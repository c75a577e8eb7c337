//! Generators for every table and figure in the paper's evaluation, each a
//! projection of one study campaign (nothing here executes a program), and
//! [`render_study`], the paper-vs-measured document `flowery study` prints.
//!
//! | artefact | paper | here |
//! |----------|-------|------|
//! | Table 1  | benchmark inventory + dynamic instruction counts | [`table1`] |
//! | Figure 2 | ID coverage at IR vs assembly, 4 protection levels | [`coverage`] |
//! | Figure 3 | penetration root-cause distribution | [`render_fig3`] |
//! | Figure 17| Flowery vs ID-Assembly vs ID-IR coverage | [`coverage`] |
//! | §7.2     | Flowery runtime overhead over ID | [`overhead`] |
//! | §7.3     | Flowery pass execution time | [`pass_time`] |

use crate::pipeline::StudyResults;
use flowery_analysis::{render_table, Penetration};
use flowery_harness::{protect, Layer, MatrixSpec, TrialUnit, Variant};
use flowery_passes::{apply_flowery, FloweryConfig};
use flowery_workloads::{all_workloads, Scale};
use serde::{Deserialize, Serialize};

/// The paper's reference numbers (SC'23, §5 and §7), each beside the
/// quantity it reports, in the order the study prints its `quantity |
/// paper | measured` rows. These are the only place they are typed.
pub mod paper {
    /// Figure 2.
    pub const FIG2: [(&str, &str); 5] = [
        ("average IR-vs-assembly gap", "31.21%"),
        ("largest gap", "82% (stringsearch)"),
        ("full protection, ID-IR minimum", "100%"),
        ("full protection, ID-Assembly average", "76.74%"),
        ("full protection, ID-Assembly minimum", "53.33% (bfs)"),
    ];
    /// Figure 3: the categories in `Penetration::CATEGORIES` order, then
    /// the three Flowery fixes combined and the case count.
    pub const FIG3: [(&str, &str); 7] = [
        ("store", "39.1%"),
        ("branch", "35.7%"),
        ("comparison", "19.7%"),
        ("call", "3.1%"),
        ("mapping", "2.5%"),
        ("store+branch+comparison", "94.5%"),
        ("deficiency cases", "-"),
    ];
    /// Figure 17.
    pub const FIG17: [(&str, &str); 6] = [
        ("full protection, ID → Flowery at assembly", "76.74% → 93.72%"),
        ("cells where Flowery beats ID-Assembly", "all"),
        ("cells where Flowery stays below ID-IR", "all"),
        ("best full-protection Flowery", "99.31% (susan)"),
        ("worst full-protection Flowery", "stringsearch / patricia"),
        ("average Flowery gain over ID-Assembly", "-"),
    ];
    /// §7.2: Flowery's wall-time overhead over ID at each protection level.
    pub const FLOWERY_OVER_ID: [(f64, &str); 4] = [(0.3, "+1.93%"), (0.5, "+1.63%"), (0.7, "+3.72%"), (1.0, "+3.74%")];
    /// §7.3: the average Flowery pass time.
    pub const PASS_TIME: &str = "0.12s";
}

/// The whole paper-vs-measured document: Markdown, one `## ` heading per
/// artefact, each measured table followed by its `quantity | paper |
/// measured` table. §7.3 is a timing and is not part of it ([`pass_time`]).
pub fn render_study(study: &StudyResults) -> String {
    let cells = coverage(study);
    let sections = [
        ("Table 1 — benchmark inventory", render_table1(&table1(study))),
        ("Figures 2 and 17 — coverage per benchmark and level", render_coverage(&cells)),
        ("Figure 2 — ID coverage, IR vs assembly", render_fig2(&cells)),
        ("Figure 3 — penetration root-cause distribution", render_fig3(study)),
        ("Figure 17 — Flowery vs ID-Assembly vs ID-IR", render_fig17(&cells)),
        ("§7.2 — runtime overhead", render_overhead(&overhead(study))),
    ];
    let sections: Vec<String> = sections.iter().map(|(title, body)| format!("## {title}\n\n{body}")).collect();
    sections.join("\n")
}

const VERSUS: [&str; 3] = ["quantity", "paper", "measured"];

/// A `quantity | paper | measured` table: `paper`'s rows, each with its
/// `measured` value.
fn versus(paper: &[(&str, &str)], measured: Vec<String>) -> String {
    let rows: Vec<Vec<String>> = paper
        .iter()
        .zip(measured)
        .map(|(&(q, p), m)| vec![q.into(), p.into(), m])
        .collect();
    render_table(&VERSUS, &rows)
}

/// The mean of `xs`, 0 when there are none.
pub(crate) fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len().max(1);
    xs.sum::<f64>() / n as f64
}

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

// ---------------------------------------------------------------- Figures 2 and 17

/// One (benchmark, level) cell of Figures 2 and 17: ID coverage at both
/// layers and Flowery's at assembly level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageRow {
    pub benchmark: String,
    pub level: f64,
    pub id_ir_pct: f64,
    pub id_asm_pct: f64,
    pub flowery_asm_pct: f64,
}

impl CoverageRow {
    /// Figure 2's IR-vs-assembly gap.
    pub fn gap_pct(&self) -> f64 {
        self.id_ir_pct - self.id_asm_pct
    }

    fn full(&self) -> bool {
        (self.level - 1.0).abs() < 1e-9
    }
}

/// Extract Figures 2 and 17 from study results, benchmark-major.
pub fn coverage(study: &StudyResults) -> Vec<CoverageRow> {
    let cells = study.benches.iter().flat_map(|b| b.levels.iter().map(move |l| (b, l)));
    cells
        .map(|(b, l)| CoverageRow {
            benchmark: b.name.clone(),
            level: l.level,
            id_ir_pct: l.id_ir.percent(),
            id_asm_pct: l.id_asm.percent(),
            flowery_asm_pct: l.flowery_asm.percent(),
        })
        .collect()
}

/// Render the per-cell coverage table.
pub fn render_coverage(rows: &[CoverageRow]) -> String {
    render_table(
        &["Benchmark", "Level", "ID-IR", "ID-Assembly", "Gap", "Flowery"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.0}%", r.level * 100.0),
                    format!("{:.2}%", r.id_ir_pct),
                    format!("{:.2}%", r.id_asm_pct),
                    format!("{:+.2}%", r.gap_pct()),
                    format!("{:.2}%", r.flowery_asm_pct),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// The cell of `rows` where `key` is largest (`largest`) or smallest, the
/// first on a tie, as `value% (label)`.
fn extreme(
    rows: &[&CoverageRow],
    key: fn(&CoverageRow) -> f64,
    largest: bool,
    label: fn(&CoverageRow) -> String,
) -> String {
    let sign = if largest { 1.0 } else { -1.0 };
    let pick = rows
        .iter()
        .copied()
        .reduce(|a, b| if (key(b) - key(a)) * sign > 0.0 { b } else { a });
    pick.map_or("-".into(), |r| format!("{:.2}% ({})", key(r), label(r)))
}

/// Figure 2, paper vs measured: the average and the largest gap, and
/// full-protection coverage at both layers.
pub fn render_fig2(rows: &[CoverageRow]) -> String {
    let all: Vec<&CoverageRow> = rows.iter().collect();
    let full: Vec<&CoverageRow> = rows.iter().filter(|r| r.full()).collect();
    let at = |r: &CoverageRow| format!("{}@{:.0}%", r.benchmark, r.level * 100.0);
    let min_ir = full.iter().map(|r| r.id_ir_pct).reduce(f64::min);
    let measured = vec![
        format!("{:.2}%", mean(rows.iter().map(CoverageRow::gap_pct))),
        extreme(&all, CoverageRow::gap_pct, true, at),
        min_ir.map_or("-".into(), |m| format!("{m:.2}%")),
        format!("{:.2}%", mean(full.iter().map(|r| r.id_asm_pct))),
        extreme(&full, |r| r.id_asm_pct, false, |r| r.benchmark.clone()),
    ];
    versus(&paper::FIG2, measured)
}

/// Figure 17, paper vs measured: Flowery's full-protection average, the
/// cells it improves and those it leaves below the IR estimate, its best
/// and worst full-protection benchmark, and its average gain.
pub fn render_fig17(rows: &[CoverageRow]) -> String {
    let full: Vec<&CoverageRow> = rows.iter().filter(|r| r.full()).collect();
    let cells =
        |holds: fn(&CoverageRow) -> bool| format!("{}/{}", rows.iter().filter(|r| holds(r)).count(), rows.len());
    let flowery = |r: &CoverageRow| r.flowery_asm_pct;
    let name = |r: &CoverageRow| r.benchmark.clone();
    let (id, fl) = (mean(full.iter().map(|r| r.id_asm_pct)), mean(full.iter().map(|r| r.flowery_asm_pct)));
    let measured = vec![
        format!("{id:.2}% → {fl:.2}%"),
        cells(|r| r.flowery_asm_pct > r.id_asm_pct),
        cells(|r| r.flowery_asm_pct < r.id_ir_pct),
        extreme(&full, flowery, true, name),
        extreme(&full, flowery, false, name),
        format!("{:.2}%", mean(rows.iter().map(|r| r.flowery_asm_pct - r.id_asm_pct))),
    ];
    versus(&paper::FIG17, measured)
}

// ---------------------------------------------------------------- Figure 3

/// Render Figure 3, the classification of full-protection assembly SDCs:
/// each category's share of all deficiency cases against the paper's, then
/// the per-benchmark shares (the paper discusses how category prevalence
/// varies across programs, e.g. kNN vs BFS store shares in §5.2).
pub fn render_fig3(study: &StudyResults) -> String {
    let a = study.aggregate_rootcause();
    let fixable = [Penetration::Store, Penetration::Branch, Penetration::Comparison];
    let mut measured: Vec<String> = Penetration::CATEGORIES
        .iter()
        .map(|&p| format!("{:.2}% ({})", a.percent(p), a.get(p)))
        .collect();
    measured.push(format!("{:.2}%", fixable.iter().map(|&p| a.percent(p)).sum::<f64>()));
    measured.push(format!("{} of {} SDCs", a.deficiency_total(), a.total()));
    let per_bench = study.benches.iter().map(|b| {
        let shares = &b.full_level().rootcause;
        let mut row = vec![b.name.clone()];
        row.extend(Penetration::CATEGORIES.iter().map(|&p| format!("{:.1}", shares.percent(p))));
        row.push(shares.deficiency_total().to_string());
        row
    });
    let per_bench = render_table(
        &["Benchmark", "store%", "branch%", "cmp%", "call%", "map%", "cases"],
        &per_bench.collect::<Vec<_>>(),
    );
    let aggregate = versus(&paper::FIG3, measured);
    format!("{aggregate}\nPer benchmark, as % of its deficiency cases:\n\n{per_bench}")
}

// ---------------------------------------------------------------- §7.2 overhead

/// Per-level average overhead figures (paper §7.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    pub level: f64,
    /// ID over raw, dynamic instructions.
    pub id_over_raw_dyn: f64,
    /// Flowery over ID, dynamic instructions.
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

/// Render the overhead table, then Flowery over ID per level against the
/// paper's wall-time figures.
pub fn render_overhead(rows: &[OverheadRow]) -> String {
    let body = render_table(
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
    );
    let versus_paper: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let reported = paper::FLOWERY_OVER_ID.iter().find(|(level, _)| (level - r.level).abs() < 1e-9);
            vec![
                format!("Flowery over ID at {:.0}%", r.level * 100.0),
                reported.map_or("-".into(), |(_, pct)| format!("{pct} wall")),
                format!(
                    "{:+.2}% dyn, {:+.2}% cycles",
                    r.flowery_over_id_dyn * 100.0,
                    r.flowery_over_id_cycles * 100.0
                ),
            ]
        })
        .collect();
    format!("{body}\n{}", render_table(&VERSUS, &versus_paper))
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
    let avg = mean(rows.iter().map(|r| r.seconds));
    format!(
        "{body}\naverage Flowery pass time: {:.1}µs here vs {} in the paper \
         (real LLVM pass on full-size benchmarks; both grow with static instructions)\n",
        avg * 1e6,
        paper::PASS_TIME
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
        let cells = coverage(&study);
        assert_eq!(cells.len(), 1);
        assert!(render_fig2(&cells).contains("| average IR-vs-assembly gap"));
        assert!(render_fig3(&study).contains("| store+branch+comparison"));
        assert!(render_fig17(&cells).contains("| average Flowery gain over ID-Assembly"));
        let oh = overhead(&study);
        assert_eq!(oh.len(), 1);
        assert!(oh[0].id_over_raw_dyn > 0.3, "{:?}", oh);
        assert!(render_overhead(&oh).contains("| Flowery over ID at 100% | +3.74% wall |"));
        let doc = render_study(&study);
        let headings: Vec<&str> = doc.lines().filter(|l| l.starts_with("## ")).collect();
        assert_eq!(headings.len(), 6, "{doc}");
        assert!(
            doc.lines()
                .all(|l| l.is_empty() || l.starts_with("## ") || l.starts_with('|') || l.ends_with(':')),
            "{doc}"
        );
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
