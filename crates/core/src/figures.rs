//! Generators for every table and figure in the paper's evaluation, each a
//! projection of one study campaign (nothing here executes a program).
//!
//! | artefact | paper | here |
//! |----------|-------|------|
//! | Table 1  | benchmark inventory + dynamic instruction counts | [`table1`] |
//! | Figure 2 | ID coverage at IR vs assembly, 4 protection levels | [`fig2`] |
//! | Figure 3 | penetration root-cause distribution | [`fig3`] |
//! | Figure 17| Flowery vs ID-Assembly vs ID-IR coverage | [`fig17`] |
//! | §7.2     | Flowery runtime overhead over ID | [`overhead`] |
//! | §7.3     | Flowery pass execution time | [`pass_time`] |

use crate::pipeline::StudyResults;
use flowery_analysis::{render_table, Penetration, PenetrationBreakdown};
use flowery_harness::{protect, Layer, MatrixSpec, TrialUnit, Variant};
use flowery_passes::{apply_flowery, FloweryConfig};
use flowery_workloads::{all_workloads, Scale};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------- Table 1

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    pub benchmark: String,
    /// Suite and domain from the workload registry; `-` for a `--src`
    /// program.
    pub suite: String,
    pub domain: String,
    /// Dynamic IR instructions of the golden run.
    pub di_ir: u64,
    /// Dynamic assembly instructions of the golden run.
    pub di_asm: u64,
}

/// Table 1 (benchmark inventory with dynamic instruction counts; ours are
/// simulation-scale, see DESIGN.md): the Raw@IR and Raw@Asm goldens of the
/// study's own units.
pub fn table1(study: &StudyResults) -> Vec<Table1Row> {
    // Only the metadata is read, and suite and domain do not depend on scale.
    let registry = all_workloads(Scale::Tiny);
    study
        .benches
        .iter()
        .map(|b| {
            let known = registry.iter().find(|w| w.name == b.name);
            Table1Row {
                benchmark: b.name.clone(),
                suite: known.map_or("-", |w| w.suite.name()).to_string(),
                domain: known.map_or("-", |w| w.domain).to_string(),
                di_ir: b.raw_ir_dyn,
                di_asm: b.raw_asm_dyn,
            }
        })
        .collect()
}

/// Render Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    render_table(
        &["Benchmark", "Suite", "Domain", "DI (IR)", "DI (asm)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    r.suite.clone(),
                    r.domain.clone(),
                    r.di_ir.to_string(),
                    r.di_asm.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

// ---------------------------------------------------------------- Figure 2

/// One Figure 2 cell: ID coverage at both layers for (benchmark, level).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Row {
    pub benchmark: String,
    pub level: f64,
    pub id_ir_pct: f64,
    pub id_asm_pct: f64,
    pub gap_pct: f64,
}

/// Extract Figure 2 from study results.
pub fn fig2(study: &StudyResults) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for b in &study.benches {
        for l in &b.levels {
            rows.push(Fig2Row {
                benchmark: b.name.clone(),
                level: l.level,
                id_ir_pct: l.id_ir.percent(),
                id_asm_pct: l.id_asm.percent(),
                gap_pct: l.id_ir.percent() - l.id_asm.percent(),
            });
        }
    }
    rows
}

/// Render Figure 2 as a table plus the headline average gap.
pub fn render_fig2(rows: &[Fig2Row]) -> String {
    let body = render_table(
        &["Benchmark", "Level", "ID-IR", "ID-Assembly", "Gap"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.0}%", r.level * 100.0),
                    format!("{:.2}%", r.id_ir_pct),
                    format!("{:.2}%", r.id_asm_pct),
                    format!("{:+.2}%", r.gap_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let avg: f64 = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.gap_pct).sum::<f64>() / rows.len() as f64
    };
    format!("{body}\naverage IR-vs-assembly coverage gap: {avg:.2}% (paper: 31.21%)\n")
}

// ---------------------------------------------------------------- Figure 3

/// Figure 3: the penetration distribution over deficiency cases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    pub aggregate: PenetrationBreakdown,
    pub per_bench: Vec<(String, PenetrationBreakdown)>,
}

/// Extract Figure 3 (classification of full-protection assembly SDCs).
pub fn fig3(study: &StudyResults) -> Fig3 {
    Fig3 {
        aggregate: study.aggregate_rootcause(),
        per_bench: study
            .benches
            .iter()
            .map(|b| (b.name.clone(), b.full_level().rootcause.clone()))
            .collect(),
    }
}

/// Render the per-benchmark penetration shares (the paper discusses how
/// category prevalence varies across programs, e.g. kNN vs BFS store
/// shares in §5.2).
pub fn render_fig3_per_bench(f: &Fig3) -> String {
    flowery_analysis::render_table(
        &["Benchmark", "store%", "branch%", "cmp%", "call%", "map%", "cases"],
        &f.per_bench
            .iter()
            .map(|(name, b)| {
                vec![
                    name.clone(),
                    format!("{:.1}", b.percent(Penetration::Store)),
                    format!("{:.1}", b.percent(Penetration::Branch)),
                    format!("{:.1}", b.percent(Penetration::Comparison)),
                    format!("{:.1}", b.percent(Penetration::Call)),
                    format!("{:.1}", b.percent(Penetration::Mapping)),
                    b.deficiency_total().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render Figure 3 with the paper's reference distribution alongside.
pub fn render_fig3(f: &Fig3) -> String {
    let paper = [
        (Penetration::Store, 39.1),
        (Penetration::Branch, 35.7),
        (Penetration::Comparison, 19.7),
        (Penetration::Call, 3.1),
        (Penetration::Mapping, 2.5),
    ];
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|(p, ref_pct)| {
            vec![
                p.name().to_string(),
                f.aggregate.get(*p).to_string(),
                format!("{:.2}%", f.aggregate.percent(*p)),
                format!("{ref_pct:.1}%"),
            ]
        })
        .collect();
    let mut s = render_table(&["Category", "Cases", "Measured", "Paper"], &rows);
    s.push_str(&format!(
        "deficiency cases: {} (of {} SDCs)\n",
        f.aggregate.deficiency_total(),
        f.aggregate.total()
    ));
    s
}

// ---------------------------------------------------------------- Figure 17

/// One Figure 17 cell: the three coverage curves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig17Row {
    pub benchmark: String,
    pub level: f64,
    pub id_ir_pct: f64,
    pub id_asm_pct: f64,
    pub flowery_asm_pct: f64,
}

/// Extract Figure 17 from study results.
pub fn fig17(study: &StudyResults) -> Vec<Fig17Row> {
    let mut rows = Vec::new();
    for b in &study.benches {
        for l in &b.levels {
            rows.push(Fig17Row {
                benchmark: b.name.clone(),
                level: l.level,
                id_ir_pct: l.id_ir.percent(),
                id_asm_pct: l.id_asm.percent(),
                flowery_asm_pct: l.flowery_asm.percent(),
            });
        }
    }
    rows
}

/// Render Figure 17 plus the full-protection averages the paper reports and
/// the average Flowery gain over ID-Assembly across every cell.
pub fn render_fig17(rows: &[Fig17Row]) -> String {
    let body = render_table(
        &["Benchmark", "Level", "ID-IR", "ID-Assembly", "Flowery"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.0}%", r.level * 100.0),
                    format!("{:.2}%", r.id_ir_pct),
                    format!("{:.2}%", r.id_asm_pct),
                    format!("{:.2}%", r.flowery_asm_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if rows.is_empty() {
        return body;
    }
    let mut out = format!("{body}\n");
    let full: Vec<&Fig17Row> = rows.iter().filter(|r| (r.level - 1.0).abs() < 1e-9).collect();
    if !full.is_empty() {
        let avg_id: f64 = full.iter().map(|r| r.id_asm_pct).sum::<f64>() / full.len() as f64;
        let avg_fl: f64 = full.iter().map(|r| r.flowery_asm_pct).sum::<f64>() / full.len() as f64;
        out.push_str(&format!(
            "full protection, assembly level: ID {avg_id:.2}% -> Flowery {avg_fl:.2}% (paper: 76.74% -> 93.72%)\n"
        ));
    }
    let gain = rows.iter().map(|r| r.flowery_asm_pct - r.id_asm_pct).sum::<f64>() / rows.len() as f64;
    out.push_str(&format!("average Flowery coverage gain over ID at assembly level: {gain:.2}%\n"));
    out
}

// ---------------------------------------------------------------- §7.2 overhead

/// Per-level average overhead figures (paper §7.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    pub level: f64,
    /// ID over raw, dynamic instructions.
    pub id_over_raw_dyn: f64,
    /// Flowery over ID, dynamic instructions (paper: 1.93/1.63/3.72/3.74%).
    pub flowery_over_id_dyn: f64,
    /// ID over raw, modelled cycles.
    pub id_over_raw_cycles: f64,
    /// Flowery over ID, modelled cycles.
    pub flowery_over_id_cycles: f64,
}

/// Extract the §7.2 overhead table from study results.
pub fn overhead(study: &StudyResults) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for &level in &study.levels {
        let mut id_dyn = 0.0;
        let mut fl_dyn = 0.0;
        let mut id_cyc = 0.0;
        let mut fl_cyc = 0.0;
        let mut n = 0usize;
        for b in &study.benches {
            if let Some(l) = b.at_level(level) {
                id_dyn += flowery_inject::relative_overhead(l.raw_dyn, l.id_dyn);
                fl_dyn += flowery_inject::relative_overhead(l.id_dyn, l.flowery_dyn);
                id_cyc += flowery_inject::relative_overhead(l.raw_cycles, l.id_cycles);
                fl_cyc += flowery_inject::relative_overhead(l.id_cycles, l.flowery_cycles);
                n += 1;
            }
        }
        if n > 0 {
            let n = n as f64;
            rows.push(OverheadRow {
                level,
                id_over_raw_dyn: id_dyn / n,
                flowery_over_id_dyn: fl_dyn / n,
                id_over_raw_cycles: id_cyc / n,
                flowery_over_id_cycles: fl_cyc / n,
            });
        }
    }
    rows
}

/// Render the overhead table.
pub fn render_overhead(rows: &[OverheadRow]) -> String {
    render_table(
        &["Level", "ID/raw dyn", "FL/ID dyn", "ID/raw cyc", "FL/ID cyc"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}%", r.level * 100.0),
                    format!("{:+.2}%", r.id_over_raw_dyn * 100.0),
                    format!("{:+.2}%", r.flowery_over_id_dyn * 100.0),
                    format!("{:+.2}%", r.id_over_raw_cycles * 100.0),
                    format!("{:+.2}%", r.flowery_over_id_cycles * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

// ---------------------------------------------------------------- §7.3 pass time

/// Per-benchmark Flowery transformation time (paper §7.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassTimeRow {
    pub benchmark: String,
    /// Static instructions of the duplicated program the pass scans.
    pub static_insts: usize,
    /// Seconds the three patches took at full protection.
    pub seconds: f64,
}

/// Measure Flowery's compile-time cost on the study's programs (each
/// Raw@IR unit's module): the three patches timed on the fully duplicated
/// program. A timing, so callers keep it out of byte-compared output.
pub fn pass_time(units: &[TrialUnit]) -> Vec<PassTimeRow> {
    units
        .iter()
        .filter(|u| u.key.variant == Variant::Raw && u.key.layer == Layer::Ir)
        .map(|u| {
            let (_, mut id, _) = protect(&u.module, &MatrixSpec::default()).remove(0);
            let static_insts = id.static_size();
            let t0 = std::time::Instant::now();
            apply_flowery(&mut id, &FloweryConfig::default());
            PassTimeRow {
                benchmark: u.key.bench.clone(),
                static_insts,
                seconds: t0.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Render the §7.3 table.
pub fn render_pass_time(rows: &[PassTimeRow]) -> String {
    let body = render_table(
        &["Benchmark", "Static insts", "Flowery µs"],
        &rows
            .iter()
            .map(|r| vec![r.benchmark.clone(), r.static_insts.to_string(), format!("{:.1}", r.seconds * 1e6)])
            .collect::<Vec<_>>(),
    );
    let avg = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.seconds).sum::<f64>() / rows.len() as f64
    };
    format!(
        "{body}\naverage Flowery pass time: {:.1}µs here vs 0.12s in the paper \
         (real LLVM pass on full-size benchmarks; both grow with static instructions)\n",
        avg * 1e6
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_study, BenchResults};
    use flowery_harness::{build_matrix, HarnessConfig, RunOptions};
    use flowery_workloads::NAMES;

    fn smoke_study(bench: &str) -> StudyResults {
        let spec = MatrixSpec {
            benches: vec![bench.into()],
            scale: Scale::Tiny,
            ..Default::default()
        };
        let cfg = HarnessConfig { max_trials: 120, batch_size: 60, ..Default::default() };
        run_study(&spec, &cfg, RunOptions::default()).unwrap()
    }

    #[test]
    fn table1_projects_every_bench_and_marks_unregistered_programs() {
        let bench = |name: &str, di: u64| BenchResults {
            name: name.into(),
            static_insts: 0,
            raw_ir_counts: Default::default(),
            raw_asm_counts: Default::default(),
            raw_ir_dyn: di,
            raw_asm_dyn: 2 * di,
            levels: Vec::new(),
        };
        let mut benches: Vec<BenchResults> = (1..).zip(NAMES).map(|(di, name)| bench(name, di)).collect();
        benches.push(bench("probe", 17));
        let rows = table1(&StudyResults { benches, trials: 0, levels: Vec::new() });
        assert_eq!(rows.len(), 17);
        for (row, di) in rows.iter().zip(1..) {
            assert_eq!((row.di_ir, row.di_asm), (di, 2 * di), "{row:?}");
        }
        let by_name = |n: &str| rows.iter().find(|r| r.benchmark == n).unwrap();
        assert_eq!(
            (by_name("stringsearch").suite.as_str(), by_name("bfs").suite.as_str()),
            ("MiBench", "Rodinia")
        );
        assert_eq!(by_name("is").domain, "Sort Algorithm");
        assert_eq!((by_name("probe").suite.as_str(), by_name("probe").domain.as_str()), ("-", "-"));
        assert!(render_table1(&rows).contains("Rodinia"));
    }

    #[test]
    fn figures_extract_from_study() {
        let study = smoke_study("is");
        let t1 = table1(&study);
        assert_eq!((t1.len(), t1[0].suite.as_str()), (1, "NPB"));
        assert!(t1[0].di_ir > 0 && t1[0].di_asm > t1[0].di_ir, "{t1:?}");
        let f2 = fig2(&study);
        assert_eq!(f2.len(), 1);
        assert!(render_fig2(&f2).contains("average IR-vs-assembly"));
        let f3 = fig3(&study);
        assert!(render_fig3(&f3).contains("store"));
        assert!(render_fig3_per_bench(&f3).contains("is"));
        let f17 = fig17(&study);
        assert!(render_fig17(&f17).contains("average Flowery coverage gain"));
        let oh = overhead(&study);
        assert_eq!(oh.len(), 1);
        assert!(oh[0].id_over_raw_dyn > 0.3, "{:?}", oh);
        assert!(render_overhead(&oh).contains("FL/ID"));
    }

    #[test]
    fn pass_time_is_fast_and_covers_the_studys_programs() {
        let units = build_matrix(&MatrixSpec { scale: Scale::Tiny, ..Default::default() });
        let rows = pass_time(&units);
        assert_eq!(rows.iter().map(|r| r.benchmark.as_str()).collect::<Vec<_>>(), NAMES);
        for r in &rows {
            assert!(r.seconds < 1.0, "{}: {}s", r.benchmark, r.seconds);
            assert!(r.static_insts > 0);
        }
        assert!(render_pass_time(&rows).contains("average Flowery pass time"));
    }
}
