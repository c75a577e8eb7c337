//! `flowery` — command-line driver for the cross-layer soft-error study.
//! [`USAGE`] (`flowery help`) lists the subcommands; wherever one takes
//! `<file.mc | bench>`, a built-in workload name (e.g. `quicksort`) works.

use flowery::analysis::{render_breakdown, render_table};
use flowery::backend::{compile_module, harden_program, BackendConfig, HardenConfig, Machine};
use flowery::core::{run_lint, PassConfig};
use flowery::harness::{run_plain, UnitKey, Variant};
use flowery::harness::{CampaignReport, GoldenCache, HarnessConfig, Layer, MatrixSpec, RunOptions, TrialUnit};
use flowery::inject::Coverage;
use flowery::ir::interp::{decode_output, ExecConfig, Interpreter, IrLayer};
use flowery::ir::Module;
use flowery::workloads::{workload, Scale, NAMES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", USAGE);
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "compile" => cmd_compile(rest),
        "asm" => cmd_asm(rest),
        "run" => cmd_run(rest),
        "inject" => cmd_inject(rest),
        "study" => cmd_study(rest),
        "campaign" => cmd_campaign(rest),
        "diff" => cmd_diff(rest),
        "explore" => cmd_explore(rest),
        "workloads" => cmd_list_workloads(),
        "vuln" => cmd_vuln(rest),
        "lint" => cmd_lint(rest),
        "source" => cmd_source(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: flowery <compile|asm|run|inject|study|campaign|diff|explore|workloads|vuln|lint|source> ...
flags are parsed strictly: an unknown flag or an unparsable number is an error

  compile <file.mc | bench>           print the -O0 IR
  asm <file.mc | bench> [--id] [--flowery] [--harden]
                                      print the machine listing
  run <file.mc | bench>               execute at both layers
  inject <file.mc | bench> [--trials N] [--id] [--flowery] [--harden]
                                      fault-injection campaign at both layers
  campaign [bench ...] [--trials N] [--ci-target H] [--threads N]
           [--batch N] [--levels a,b] [--tiny] [--json]
           [--checkpoint FILE] [--resume] [--no-snapshots]
           [--metrics-json FILE]
           [--fault-model NAME] [--executor interp|compiled|native]
           [--static-prune]
                                      run the experiment matrix on the
                                      work-stealing harness; --ci-target
                                      stops each unit once the 95% CI
                                      half-width on its SDC rate is <= H;
                                      --checkpoint/--resume survive kills
                                      (Ctrl-C drains in-flight batches and
                                      flushes a resumable checkpoint);
                                      snapshot sets persist to
                                      <checkpoint>.snaps/ so --resume
                                      re-executes and re-captures nothing;
                                      --no-snapshots disables golden-run
                                      fast-forward (bit-identical, slower)
                                      and writes no .snaps dir;
                                      --metrics-json dumps the final
                                      engine metrics (incl. snapshot
                                      capture/load counters and the bytes
                                      the snapshot store read and wrote)
                                      as JSON;
                                      --fault-model picks the injected
                                      fault physics (see `explore` for
                                      the registered model names;
                                      default single-bit-reg) — recorded
                                      in the checkpoint header, so
                                      --resume refuses a mixed-model mix;
                                      --executor picks the machine-layer
                                      engine (default compiled, the
                                      threaded-code fast loop; interp is
                                      its bookkept loop; native
                                      JIT-compiles trials to host x86-64,
                                      falling back to compiled when the
                                      host cannot run it) — results are
                                      bit-identical in every engine, and
                                      resumes may mix executors freely;
                                      --static-prune skips trials whose
                                      (site, bit) pair the bit-lattice
                                      lint proves masked (they resolve as
                                      Benign without executing — counts
                                      and CIs are bit-identical to a full
                                      run) and seeds units flagged-first;
                                      recorded in the checkpoint header,
                                      so --resume refuses a mixed-prune
                                      mix; for several hosts, shard by
                                      program list or --levels, `cat` the
                                      shard checkpoints and --resume the
                                      whole plan on the result (DESIGN §6)
  study [bench ...] [+ campaign options above]
                                      the paper's cross-layer study: that
                                      campaign, at --levels 0.3,0.5,0.7,1.0
                                      and --trials 3000 unless given, its
                                      report as a Markdown paper-vs-measured
                                      document (Table 1, Figs 2/3/17, §7.2)
                                      (--json prints the study results
                                      instead); the §7.3 pass time, a
                                      timing, goes to stderr
  diff --baseline FILE [bench ...] [--src FILE] [--out FILE]
       [+ campaign options above]   incremental campaign: partition every
                                      unit into per-function regions, hash
                                      them, and compare against the
                                      baseline checkpoint's region records;
                                      unchanged regions reuse their
                                      baseline profiles verbatim, changed
                                      or new regions re-run with trials
                                      scoped to the region, and the
                                      whole-program answer is composed
                                      from the mix under current site
                                      masses; --out writes the composed
                                      region records as a checkpoint (the
                                      next diff's baseline);
                                      --json prints the composed region
                                      records; --metrics-json includes
                                      regions reused/re-run and trials
                                      saved; --src adds an out-of-tree
                                      MiniC program to the matrix (name =
                                      file stem; repeatable) — edit it and
                                      regions whose hardened code changed
                                      re-run (partial --levels: maybe all)
  explore [bench ...] [--models a,b,..] [--detectors none,parity,..]
          [--levels a,b] [--trials N] [--seed S] [--threads N]
          [--tiny] [--no-snapshots] [--out DIR] [--json]
          [--executor interp|compiled|native]
                                      sweep fault model x protection
                                      (variant, level) x hardware-detector
                                      set at the assembly layer and emit
                                      per-workload cost/coverage Pareto
                                      frontiers; models: single-bit-reg,
                                      double-bit-reg, multi-bit-W,
                                      flags-pc, mem-cell, control-flow;
                                      --detectors takes comma-separated
                                      sets of '+'-joined detectors
                                      (parity, cf-sig; 'none' = bare);
                                      --out writes explore.json plus one
                                      explore_<bench>.json per workload;
                                      --json prints the full report
  vuln <file.mc | bench> [--trials N] [--top K] [--static-prior]
       [--by-region]                  rank the most SDC-vulnerable
                                      instructions; --static-prior folds the
                                      lint's per-site flags in as a
                                      sampling-tie breaker; --by-region
                                      adds a per-function region table
                                      (SDC share vs dynamic site mass)
  lint <file.mc | bench> [--pass-config raw|id|flowery] [--level L]
       [--validate] [--trials N] [--format json] [--bits]
                                      static penetration analysis: flag
                                      injectable sites whose corruption can
                                      reach a store/branch/call/ret sink
                                      unchecked, plus IR-level invariant
                                      findings; --validate cross-checks the
                                      predictions against an N-trial
                                      injection campaign; --bits prints the
                                      bit-lattice verdict table (per-site
                                      proven-masked bit masks — the prune
                                      table campaign --static-prune uses;
                                      --format json always includes it)
  workloads                           list the 16 Table-1 benchmarks
  source <bench>                      print a benchmark's MiniC source";

/// Load a module from a MiniC file path or a built-in workload name.
fn load(spec: &str) -> Result<Module, String> {
    if NAMES.contains(&spec) {
        return Ok(workload(spec, Scale::Standard).compile());
    }
    let src = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
    flowery::lang::compile(spec, &src).map_err(|e| format!("{spec}: {e}"))
}

/// Full protection, through the matrix's own recipe.
fn protect(m: &mut Module, id: bool, flowery: bool) {
    if id || flowery {
        let (_, id_m, flowery_m) = flowery::harness::protect(m, &MatrixSpec::default()).remove(0);
        *m = if flowery { flowery_m } else { id_m };
    }
}

/// Each subcommand's flags, declared once, getopt-style: names separated
/// by spaces, a trailing `=` marking a flag that takes a value. The parser
/// accepts exactly these, so a typo, another subcommand's flag or a missing
/// value is an error instead of being ignored — or swallowing the next
/// benchmark name.
const PROTECT: &str = "--id --flowery";
const ASM: &str = "--id --flowery --harden";
const INJECT: &str = "--id --flowery --harden --trials=";
/// The schedule and matrix flags `campaign`, `study` and `diff` share.
macro_rules! schedule {
    ($own:literal) => {
        concat!(
            "--tiny --json --no-snapshots --static-prune --trials= --batch= --min-trials= --threads= --seed= ",
            "--ci-target= --fault-model= --executor= --levels= --src= --metrics-json= ",
            $own
        )
    };
}
const CAMPAIGN: &str = schedule!("--resume --checkpoint=");
const DIFF: &str = schedule!("--baseline= --out=");
const EXPLORE: &str =
    "--tiny --json --no-snapshots --trials= --seed= --threads= --models= --detectors= --levels= --executor= --out=";
const VULN: &str = "--static-prior --by-region --trials= --top=";
const LINT: &str = "--validate --bits --pass-config= --level= --trials= --format=";

/// Whether `spec` declares flag `name`, and if so whether it takes a value.
fn declared(spec: &str, name: &str) -> Option<bool> {
    spec.split(' ')
        .find(|f| f.trim_end_matches('=') == name)
        .map(|f| f.ends_with('='))
}

/// An argument list parsed against one subcommand's declaration; lookups
/// assert the name is declared, so a misspelt lookup fails the first test
/// that reaches it.
struct Args<'a> {
    cmd: &'static str,
    spec: &'static str,
    flags: Vec<(&'a str, Option<&'a str>)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(cmd: &'static str, spec: &'static str, rest: &'a [String]) -> Result<Args<'a>, String> {
        let mut args = Args { cmd, spec, flags: Vec::new(), positional: Vec::new() };
        let mut it = rest.iter().map(String::as_str);
        while let Some(a) = it.next() {
            match declared(spec, a) {
                _ if !a.starts_with("--") => args.positional.push(a),
                Some(false) => args.flags.push((a, None)),
                Some(true) => args
                    .flags
                    .push((a, Some(it.next().ok_or_else(|| format!("{a} needs a value"))?))),
                None => return Err(format!("unknown flag '{a}' for `flowery {cmd}` (see `flowery help`)")),
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        assert_eq!(declared(self.spec, name), Some(false), "{name} is not a declared switch");
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// Every value given for `name`, in order (repeatable flags).
    fn all(&self, name: &'static str) -> impl Iterator<Item = &'a str> + '_ {
        assert_eq!(declared(self.spec, name), Some(true), "{name} is not a declared value flag");
        self.flags.iter().filter(move |(n, _)| *n == name).filter_map(|(_, v)| *v)
    }

    fn str(&self, name: &'static str) -> Option<&'a str> {
        self.all(name).next()
    }

    fn u64(&self, name: &'static str, default: u64) -> Result<u64, String> {
        let parse = |v: &str| v.parse().map_err(|_| format!("bad {name} '{v}' (want a non-negative integer)"));
        self.str(name).map_or(Ok(default), parse)
    }

    /// A count that must be at least 1: `--trials` and `--batch`.
    fn count(&self, name: &'static str, default: u64) -> Result<u64, String> {
        match self.u64(name, default)? {
            0 => Err(format!("bad {name} '0' (want at least 1)")),
            n => Ok(n),
        }
    }

    /// The subcommand's `--trials` and `--levels` defaults: every command
    /// but `explore` runs the paper's 3,000 trials, the campaign commands at
    /// full protection and `study` at the paper's four levels; `explore`
    /// runs two levels at fewer trials.
    fn defaults(&self) -> (u64, &'static [f64]) {
        match self.cmd {
            "study" => (3000, &[0.3, 0.5, 0.7, 1.0]),
            "explore" => (400, &[0.5, 1.0]),
            _ => (3000, &[1.0]),
        }
    }

    /// The single `<file.mc | bench>` operand.
    fn input(&self) -> Result<&'a str, String> {
        self.positional.first().copied().ok_or("missing input".to_string())
    }

    /// The positional operands as benchmark names.
    fn benches(&self) -> Result<Vec<String>, String> {
        let known = |a: &&str| NAMES.contains(a).then(|| a.to_string());
        self.positional
            .iter()
            .map(|a| known(a).ok_or_else(|| format!("unknown benchmark '{a}'; see `flowery workloads`")))
            .collect()
    }
}

fn cmd_compile(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("compile", PROTECT, rest)?;
    let mut m = load(args.input()?)?;
    protect(&mut m, args.flag("--id"), args.flag("--flowery"));
    print!("{}", flowery::ir::printer::print_module(&m));
    Ok(())
}

fn cmd_asm(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("asm", ASM, rest)?;
    let mut m = load(args.input()?)?;
    protect(&mut m, args.flag("--id"), args.flag("--flowery"));
    let mut prog = compile_module(&m, &BackendConfig::default());
    if args.flag("--harden") {
        let (h, stats) = harden_program(&prog, &HardenConfig::default());
        eprintln!("; hardening inserted {} read-back checks", stats.total());
        prog = h;
    }
    print!("{}", flowery::backend::print_program(&prog));
    Ok(())
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("run", PROTECT, rest)?;
    let mut m = load(args.input()?)?;
    protect(&mut m, args.flag("--id"), args.flag("--flowery"));
    let exec = ExecConfig::default();
    let ir = Interpreter::new(&m).run(&exec, None);
    println!("IR level:  {:?}", ir.status);
    println!("  output:  {:?}", decode_output(&ir.output));
    println!("  dyn insts: {}  fault sites: {}", ir.dyn_insts, ir.fault_sites);
    let prog = compile_module(&m, &BackendConfig::default());
    let asm = Machine::new(&m, &prog).run(&exec, None);
    println!("assembly:  {:?}", asm.status);
    println!("  output:  {:?}", decode_output(&asm.output));
    println!("  dyn insts: {}  fault sites: {}  cycles: {}", asm.dyn_insts, asm.fault_sites, asm.cycles);
    if ir.output != asm.output {
        return Err("cross-layer output mismatch (this is a bug)".into());
    }
    Ok(())
}

fn cmd_inject(rest: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    let args = Args::parse("inject", INJECT, rest)?;
    let trials = args.count("--trials", 1000)?;
    let name = args.input()?;
    let raw = Arc::new(load(name)?);
    let mut m = (*raw).clone();
    protect(&mut m, args.flag("--id"), args.flag("--flowery"));
    let m = Arc::new(m);

    let mut prog = compile_module(&m, &BackendConfig::default());
    if args.flag("--harden") {
        prog = harden_program(&prog, &HardenConfig::default()).0;
    }
    let (prog, raw_prog) = (Arc::new(prog), Arc::new(compile_module(&raw, &BackendConfig::default())));
    let variant = if args.flag("--flowery") { Variant::Flowery } else { Variant::Id };
    let units = [
        TrialUnit::ir(UnitKey::new(name, Variant::Raw, 0.0, Layer::Ir), raw.clone()),
        TrialUnit::ir(UnitKey::new(name, variant, 1.0, Layer::Ir), m.clone()),
        TrialUnit::asm(UnitKey::new(name, Variant::Raw, 0.0, Layer::Asm), raw, raw_prog),
        TrialUnit::asm(UnitKey::new(name, variant, 1.0, Layer::Asm), m.clone(), prog.clone()),
    ];
    let r = run_plain(&units, trials)?;
    for (layer, raw, protected) in [("IR level", &r[0], &r[1]), ("assembly", &r[2], &r[3])] {
        println!("{layer}   ({trials} campaigns):");
        println!("  raw:       {:?}", raw.counts);
        println!("  protected: {:?}", protected.counts);
        println!("  coverage:  {:.2}%", Coverage::compute(&raw.counts, &protected.counts).percent());
    }
    if args.flag("--id") || args.flag("--flowery") {
        let breakdown = flowery::analysis::classify_campaign(&m, &prog, &r[3].sdc_insts);
        println!("root causes of assembly-level SDCs:");
        print!("{}", render_breakdown(&breakdown));
    }
    Ok(())
}

/// The paper's study is a campaign over the paper's levels, its report
/// rendered as Table 1, the figures and §7.2 on stdout. §7.3 is a timing,
/// so it goes to stderr and stdout stays byte-identical on every engine.
fn cmd_study(rest: &[String]) -> Result<(), String> {
    use flowery::core::figures as fig;
    let args = Args::parse("study", CAMPAIGN, rest)?;
    let (spec, units, report) = run_plan(&args)?;
    let study = flowery::core::study(&units, &report.units, &spec.backend)?;
    if args.flag("--json") {
        println!("{}", flowery::serde_json::to_string_pretty(&study).map_err(|e| format!("{e:?}"))?);
        return Ok(());
    }
    print!("{}", fig::render_study(&study));
    eprint!("{}", fig::render_pass_time(&fig::pass_time(&units)));
    Ok(())
}

/// The trial schedule `campaign`, `study` and `diff` share.
fn parse_harness(args: &Args<'_>) -> Result<HarnessConfig, String> {
    let trials = args.count("--trials", args.defaults().0)?;
    let mut cfg = HarnessConfig {
        max_trials: trials,
        batch_size: args.count("--batch", 250)?.min(trials),
        min_trials: args.u64("--min-trials", 500)?.min(trials),
        threads: args.u64("--threads", 0)? as usize,
        seed: args.u64("--seed", 0x51C2_3001)?,
        snapshots: !args.flag("--no-snapshots"),
        static_prune: args.flag("--static-prune"),
        ..Default::default()
    };
    if let Some(v) = args.str("--ci-target") {
        let h = v.parse::<f64>().ok().filter(|h| *h > 0.0 && h.is_finite());
        cfg.ci_target = Some(h.ok_or_else(|| format!("bad --ci-target '{v}' (want a positive half-width)"))?);
    }
    if let Some(m) = args.str("--fault-model") {
        cfg.fault_model = m.trim().parse::<flowery::faultmodel::ModelSpec>()?;
    }
    if let Some(e) = args.str("--executor") {
        cfg.exec.executor = e.trim().parse::<flowery::backend::ExecMode>()?;
    }
    Ok(cfg)
}

/// A protection level in [0, 1]; a refused value is named.
fn parse_level(flag: &str, s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(level) if (0.0..=1.0).contains(&level) => Ok(level),
        Ok(_) => Err(format!("{flag} {s} out of range (0..=1)")),
        Err(_) => Err(format!("bad {flag} '{s}'")),
    }
}

fn parse_levels(args: &Args<'_>) -> Result<Vec<f64>, String> {
    let Some(csv) = args.str("--levels") else {
        return Ok(args.defaults().1.to_vec());
    };
    let mut levels = Vec::new();
    for s in csv.split(',').map(str::trim) {
        match parse_level("--levels", s)? {
            level if levels.contains(&level) => return Err(format!("--levels {s} given twice")),
            level => levels.push(level),
        }
    }
    Ok(levels)
}

/// Out-of-tree programs from `--src FILE` occurrences: the program name
/// is the file stem, and the source is compiled here so a typo fails
/// with a file-level error instead of a panic deep in `build_matrix`.
fn parse_sources(args: &Args<'_>) -> Result<Vec<(String, String)>, String> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in args.all("--src") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| !s.is_empty())
            .ok_or(format!("--src {path}: cannot derive a program name from the file name"))?
            .to_string();
        if NAMES.contains(&name.as_str()) {
            return Err(format!("--src {path}: name '{name}' collides with a built-in workload"));
        }
        if sources.iter().any(|(n, _)| *n == name) {
            return Err(format!("--src {path}: duplicate program name '{name}'"));
        }
        flowery::lang::compile(&name, &src).map_err(|e| format!("--src {path}: does not compile: {e}"))?;
        sources.push((name, src));
    }
    Ok(sources)
}

/// The matrix `campaign`, `study` and `diff` build.
fn matrix_spec(args: &Args<'_>, cfg: &HarnessConfig) -> Result<MatrixSpec, String> {
    Ok(MatrixSpec {
        benches: args.benches()?,
        sources: parse_sources(args)?,
        scale: if args.flag("--tiny") { Scale::Tiny } else { Scale::Standard },
        levels: parse_levels(args)?,
        profile_trials: (cfg.max_trials / 3).max(100),
        threads: cfg.threads,
        ..Default::default()
    })
}

fn print_campaign_report(args: &Args<'_>, report: &CampaignReport) -> Result<(), String> {
    if args.flag("--json") {
        println!("{}", flowery::serde_json::to_string_pretty(&report.units).map_err(|e| format!("{e:?}"))?);
        return Ok(());
    }
    println!(
        "{:<28} {:>7} {:>9} {:>10} {:>8} {:>8} {:>8}  ",
        "unit", "trials", "sdc", "ci95", "benign", "det", "due"
    );
    for u in &report.units {
        println!(
            "{:<28} {:>7} {:>8.2}% {:>9.2}pp {:>8} {:>8} {:>8}  {}",
            u.key.id(),
            u.trials,
            u.sdc.value * 100.0,
            u.sdc.ci95 * 100.0,
            u.counts.benign,
            u.counts.detected,
            u.counts.due,
            if u.stopped_early { "early-stop" } else { "" }
        );
    }
    let m = &report.metrics;
    println!(
        "\n{} trials in {:.1}s ({:.0}/s) | batches {} ({} from checkpoint) | golden cache {}/{} hits ({:.0}%) | snapshot sets {} captured, {} loaded, {} observed | fast-forward skipped {:.0}% of work",
        m.trials,
        m.elapsed_secs,
        m.trials_per_sec,
        m.batches,
        m.batches_reused,
        m.cache_hits,
        m.cache_hits + m.cache_misses,
        m.cache_hit_rate * 100.0,
        m.snap_captures,
        m.snap_loads,
        m.observations,
        m.ff_ratio * 100.0
    );
    Ok(())
}

fn write_metrics(args: &Args<'_>, metrics: &flowery::harness::MetricsSnapshot) -> Result<(), String> {
    let Some(p) = args.str("--metrics-json") else {
        return Ok(());
    };
    let json = flowery::serde_json::to_string_pretty(metrics).map_err(|e| format!("{e:?}"))?;
    std::fs::write(p, json + "\n").map_err(|e| format!("cannot write {p}: {e}"))
}

/// One campaign, start to finish, for `campaign` and `study`: open the
/// checkpoint, run the selection profile pass and build the matrix, run it,
/// seal the checkpoint and write `--metrics-json`.
fn run_plan(args: &Args<'_>) -> Result<(MatrixSpec, Vec<TrialUnit>, CampaignReport), String> {
    use flowery::harness::{open, plan_matrix, refused_note, region_records, run_units_after, seal, shutdown};
    use flowery::harness::{status_printer, SnapshotStore, UnitKey};
    use std::collections::HashSet;
    use std::path::Path;

    let cfg = parse_harness(args)?;
    let spec = matrix_spec(args, &cfg)?;

    // Open the checkpoint (see `harness::checkpoint::open`).
    let ckpt_path = args.str("--checkpoint").map(Path::new);
    let resume = args.flag("--resume");
    let (log, preloaded, stored, sealed) = match ckpt_path {
        None if resume => return Err("--resume needs --checkpoint FILE".into()),
        None => (None, Vec::new(), Vec::new(), HashSet::new()),
        Some(p) => {
            let (log, batches, profiles, regions) = open(p, &cfg.header(), resume)?;
            if resume {
                let refused = refused_note(&cfg.header(), &batches);
                eprintln!("[harness] resuming: {} batches from {}{refused}", batches.len(), p.display());
            }
            let sealed: HashSet<UnitKey> = regions.into_iter().map(|r| r.unit).collect();
            (Some(log), batches, profiles, sealed)
        }
    };

    // First Ctrl-C drains: in-flight batches finish and are checkpointed,
    // then the run stops. A second Ctrl-C kills the process outright.
    shutdown::install();
    let progress = status_printer("[harness]");
    // Persist snapshot sets next to the checkpoint so a resumed campaign
    // re-captures nothing. `--no-snapshots` must leave no orphan `.snap`
    // files behind, so the store is attached only when snapshots are on.
    let cache = match ckpt_path {
        Some(p) if cfg.snapshots => GoldenCache::with_store(SnapshotStore::for_checkpoint(p)),
        _ => GoldenCache::new(),
    };

    // The selection profiles partial levels select by come from the
    // checkpoint's profile records or run on this campaign's cache, and are
    // appended to its log before any campaign trial starts.
    eprintln!(
        "[harness] building matrix ({} program(s)){}",
        spec.bench_names().len() + spec.sources.len(),
        if spec.needs_profile() { ", profiling" } else { "" }
    );
    let opts = RunOptions {
        checkpoint: log.as_ref(),
        progress: Some(&progress),
        ..Default::default()
    };
    let (units, pass) = plan_matrix(&spec, &cfg, &cache, &stored, opts);
    // A selection profile cut short leaves no matrix: its report is the run's.
    let report = if pass.error.is_some() || !pass.pending.is_empty() {
        pass
    } else {
        eprintln!("[harness] {} units x <= {} trials", units.len(), cfg.max_trials);
        let opts = RunOptions {
            checkpoint: log.as_ref(),
            preloaded,
            progress: Some(&progress),
            replay_only: false,
        };
        run_units_after(&pass.metrics, &units, &cfg, &cache, opts)
    };
    if let Some(e) = report.error {
        return Err(e);
    }

    // Seal the checkpoint into canonical (byte-reproducible) form. A clean
    // finish also records per-region profiles, so it can serve as a
    // `flowery diff --baseline` later; a unit whose record the log already
    // holds (a sealed log resumed) keeps it.
    if let (Some(p), Some(log)) = (ckpt_path, log) {
        let unsealed: Vec<TrialUnit> = units.iter().filter(|u| !sealed.contains(&u.key)).cloned().collect();
        let regions = (!report.interrupted).then(|| region_records(&unsealed, &report.units, &cache, &cfg));
        seal(p, log, &regions.unwrap_or_default())?;
    }
    // Re-stamped after the seal, whose new region records may observe
    // programs.
    let report = CampaignReport { metrics: report.metrics.with_cache(cache.stats()), ..report };
    // A clean finish leaves the snapshot store holding the matrix's sets
    // only: a set under a key no unit carries (a program since edited, a
    // key scheme since replaced) is never asked for again.
    if let (Some(p), true, false) = (ckpt_path, cfg.snapshots, report.interrupted) {
        SnapshotStore::for_checkpoint(p).prune(units.iter().map(|u| (u.key.layer, u.content_key(&cache))));
    }
    write_metrics(args, &report.metrics)?;
    if report.interrupted {
        eprintln!("[harness] interrupted: {} unit(s) unfinished", report.pending.len());
        match ckpt_path {
            Some(p) => {
                eprintln!("[harness] resume with: flowery {} ... --checkpoint {} --resume", args.cmd, p.display())
            }
            None => eprintln!("[harness] progress was NOT saved (no --checkpoint)"),
        }
    }
    if units.is_empty() {
        let n = report.pending.len();
        return Err(format!("partial report: the selection profile of {n} program(s) did not finish"));
    }
    Ok((spec, units, report))
}

fn cmd_campaign(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("campaign", CAMPAIGN, rest)?;
    let (_, _, report) = run_plan(&args)?;
    print_campaign_report(&args, &report)
}

fn cmd_diff(rest: &[String]) -> Result<(), String> {
    use flowery::harness::{build_matrix, write_canonical_full, Baseline, GoldenCache};
    use std::path::Path;

    let args = Args::parse("diff", DIFF, rest)?;
    let cfg = parse_harness(&args)?;
    let spec = matrix_spec(&args, &cfg)?;
    let base_path = args
        .str("--baseline")
        .ok_or("diff needs --baseline FILE (a checkpoint from a finished campaign or a prior diff)")?;
    let baseline = Baseline::load(Path::new(base_path), &cfg.header())?;
    if baseline.pre_region {
        eprintln!("[diff] {base_path}: no region records of this build's recipe in baseline; every region runs fresh");
    }

    eprintln!("[diff] building matrix ({} program(s))", spec.bench_names().len() + spec.sources.len());
    let units = build_matrix(&spec);
    let cache = GoldenCache::new();

    flowery::harness::shutdown::install();
    let progress = flowery::harness::status_printer("[diff]");
    let report = flowery::harness::run_diff(&units, &cfg, &cache, &baseline, Some(&progress));
    if let Some(e) = report.error {
        return Err(e);
    }

    match args.str("--out") {
        Some(_) if report.interrupted => eprintln!("[diff] interrupted: no composed checkpoint written"),
        Some(p) => {
            write_canonical_full(Path::new(p), &cfg.header(), &[], &[], &[], &report.records())?;
            eprintln!("[diff] wrote composed checkpoint to {p}");
        }
        None => {}
    }
    print_diff_report(&args, &report)
}

fn print_diff_report(args: &Args<'_>, report: &flowery::harness::DiffReport) -> Result<(), String> {
    use flowery::regions::Fate;

    write_metrics(args, &report.metrics)?;
    if args.flag("--json") {
        println!(
            "{}",
            flowery::serde_json::to_string_pretty(&report.records()).map_err(|e| format!("{e:?}"))?
        );
        return Ok(());
    }

    for u in &report.units {
        let (reused, rerun, new) = u.fate_counts();
        println!(
            "{:<28} sdc {:>6.2}% ±{:.2}pp | {} regions: {} reused, {} re-run, {} new{} | {} trials run, {} saved",
            u.key.id(),
            u.composed.value * 100.0,
            u.composed.ci95 * 100.0,
            u.regions.len(),
            reused,
            rerun,
            new,
            if u.dropped.is_empty() {
                String::new()
            } else {
                format!(", {} dropped", u.dropped.len())
            },
            u.trials_run,
            u.trials_saved,
        );
        for r in &u.regions {
            if r.fate == Fate::Reused {
                continue;
            }
            println!(
                "  {:<7} {:<20} {:>6} trials  sdc {:>6.2}%  mass {}",
                r.fate.to_string(),
                r.name,
                r.profile.trials,
                r.profile.sdc().value * 100.0,
                r.profile.site_mass,
            );
        }
    }
    let m = &report.metrics;
    println!("\n{}", m.render());
    Ok(())
}

fn cmd_explore(rest: &[String]) -> Result<(), String> {
    use flowery::faultmodel::DetectorSpec;
    use flowery::harness::{explore, render_table, ExploreSpec, GoldenCache};

    let args = Args::parse("explore", EXPLORE, rest)?;
    let mut cfg = HarnessConfig {
        max_trials: args.count("--trials", args.defaults().0)?,
        seed: args.u64("--seed", 0x0F10_EE41)?,
        threads: args.u64("--threads", 0)? as usize,
        snapshots: !args.flag("--no-snapshots"),
        ..Default::default()
    };
    if let Some(e) = args.str("--executor") {
        cfg.exec.executor = e.trim().parse::<flowery::backend::ExecMode>()?;
    }
    let matrix = MatrixSpec {
        benches: args.benches()?,
        scale: if args.flag("--tiny") { Scale::Tiny } else { Scale::Standard },
        levels: parse_levels(&args)?,
        profile_trials: (cfg.max_trials * 2).clamp(100, 2000),
        threads: cfg.threads,
        ..Default::default()
    };
    let mut spec = ExploreSpec::default();
    if let Some(csv) = args.str("--models") {
        spec.models = csv.split(',').map(|s| s.trim().parse()).collect::<Result<_, String>>()?;
    }
    if let Some(csv) = args.str("--detectors") {
        spec.detector_sets = csv
            .split(',')
            .map(|set| match set.trim() {
                "none" => Ok(Vec::new()),
                set => set.split('+').map(|d| d.trim().parse::<DetectorSpec>()).collect(),
            })
            .collect::<Result<_, String>>()?;
    }

    eprintln!(
        "[explore] {} bench(es) x {} model(s) x {} detector set(s), {} trials each",
        matrix.bench_names().len() + matrix.sources.len(),
        spec.models.len(),
        spec.detector_sets.len(),
        cfg.max_trials
    );
    // One engine pass per model: the campaign's status line and Ctrl-C drain.
    flowery::harness::shutdown::install();
    let progress = flowery::harness::status_printer("[explore]");
    let report = explore(&spec, &matrix, &cfg, &GoldenCache::new(), Some(&progress))?;

    if let Some(dir) = args.str("--out") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let write = |path: &std::path::Path, json: String| -> Result<(), String> {
            std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        write(
            &dir.join("explore.json"),
            flowery::serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?,
        )?;
        for w in &report.workloads {
            write(
                &dir.join(format!("explore_{}.json", w.bench)),
                flowery::serde_json::to_string_pretty(w).map_err(|e| format!("{e:?}"))?,
            )?;
        }
        eprintln!("[explore] wrote {} file(s) to {}", report.workloads.len() + 1, dir.display());
    }
    if args.flag("--json") {
        println!("{}", flowery::serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?);
    } else {
        print!("{}", render_table(&report));
    }
    Ok(())
}

fn cmd_vuln(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("vuln", VULN, rest)?;
    let trials = args.count("--trials", 2000)?;
    let top = args.u64("--top", 15)? as usize;
    let name = args.input()?;
    let m = std::sync::Arc::new(load(name)?);
    let unit = TrialUnit::ir(UnitKey::new(name, Variant::Raw, 0.0, Layer::Ir), m.clone());
    let camp = run_plain(&[unit], trials)?.remove(0);
    // One fault-free pass: the execution profile, and the golden site
    // stream by region for `--by-region`.
    let profiled = ExecConfig { profile: true, ..ExecConfig::default() };
    let (golden, sites) = flowery::ir::interp::substrate::observe::<IrLayer>(&Interpreter::new(&m), &profiled, 0);
    let prof = golden.profile.expect("profiling run returns counts");
    let ranking = if args.flag("--static-prior") {
        let bcfg = BackendConfig::default();
        let prog = compile_module(&m, &bcfg);
        let report = flowery::analysis::predict_program(&m, &prog, bcfg.fold_compares);
        let prior = flowery::analysis::static_prior(&prog, &report);
        flowery::analysis::vulnerability_ranking_with_prior(&m, &camp.sdc_by_inst, &prof, &prior, top)
    } else {
        flowery::analysis::vulnerability_ranking(&m, &camp.sdc_by_inst, &prof, top)
    };
    println!(
        "{} SDCs across {} trials; top {} instructions by SDC contribution:",
        camp.counts.sdc,
        trials,
        ranking.len()
    );
    print!("{}", flowery::analysis::render_vulnerability(&ranking));
    if args.flag("--by-region") {
        // Fold the per-instruction SDC map into the same per-function
        // regions `flowery diff` uses, with the dynamic site mass the
        // golden run executes in each — SDC share far above mass share
        // marks a region worth selective protection (and a good diff
        // re-run priority).
        let set = flowery::regions::ir_region_set(&m, &sites, 0);
        let hits_in = |name: &str| -> u64 {
            let here = camp.sdc_by_inst.iter().filter(|((f, _), _)| m.func(*f).name == name);
            here.map(|(_, n)| n).sum()
        };
        let mut regions: Vec<(&str, u64, u64)> = set
            .regions
            .iter()
            .map(|r| (r.name.as_str(), hits_in(&r.name), r.site_mass))
            .collect();
        regions.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let (total_sdc, total_mass) = (camp.sdc_by_inst.values().sum(), set.total_mass());
        println!("\nper-region SDC contribution ({} regions):\n", regions.len());
        let share = |part: u64, whole: u64| format!("{:.1}%", part as f64 / whole.max(1) as f64 * 100.0);
        let rows: Vec<Vec<String>> = regions
            .into_iter()
            .map(|(name, hits, mass)| {
                vec![
                    name.into(),
                    hits.to_string(),
                    share(hits, total_sdc),
                    mass.to_string(),
                    share(mass, total_mass),
                ]
            })
            .collect();
        print!("{}", render_table(&["region", "sdc hits", "share", "site mass", "mass share"], &rows));
    }
    Ok(())
}

fn cmd_lint(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("lint", LINT, rest)?;
    let spec = args.input()?;
    let pass_of =
        |s| PassConfig::parse(s).ok_or_else(|| format!("bad --pass-config '{s}' (expected raw, id, or flowery)"));
    let pass = args.str("--pass-config").map_or(Ok(PassConfig::Id), pass_of)?;
    let level = args.str("--level").map_or(Ok(1.0), |s| parse_level("--level", s))?;
    let validate = args.flag("--validate").then(|| args.count("--trials", 2000)).transpose()?;
    let m = load(spec)?;
    let outcome = run_lint(spec, &m, pass, level, validate)?;
    if args.str("--format") == Some("json") {
        println!("{}", flowery::serde_json::to_string_pretty(&outcome).map_err(|e| format!("{e:?}"))?);
        return Ok(());
    }
    let r = &outcome.report;
    println!(
        "{spec} [{} @ {:.0}%]: {} injectable sites, {} proven protected, {} flagged",
        pass.name(),
        level * 100.0,
        r.sites,
        r.protected,
        r.flagged.len(),
    );
    if !r.flagged.is_empty() {
        println!("predicted penetration breakdown:");
        print!("{}", render_breakdown(&r.breakdown));
    }
    if outcome.findings.is_empty() {
        println!("IR invariants: clean");
    } else {
        println!("IR invariant findings ({}):", outcome.findings.len());
        for f in &outcome.findings {
            println!("  [{}] fn{}: {}", f.kind.name(), f.func.index(), f.detail);
        }
    }
    if let Some(v) = &outcome.validation {
        println!("cross-validation against {} injection trials:", validate.unwrap());
        print!("{}", flowery::analysis::render_validation(v));
    }
    if args.flag("--bits") {
        let b = outcome.bits.as_ref().expect("run_lint always computes the bit table");
        println!(
            "bit lattice: {} sites, {} (site, bit) pairs proven masked, mean vulnerable fraction {:.1}%",
            b.sites,
            b.proven_pairs,
            b.mean_vulnerable * 100.0
        );
        println!("{:>6} {:>7} {:>18}  mask (v = vulnerable, . = proven)", "site", "proven", "vulnerable");
        for s in &b.masks {
            if s.proven_masked == 0 {
                continue; // fully vulnerable sites carry no information
            }
            let mask: String = (0..64)
                .rev()
                .map(|bit| if (s.vulnerable >> bit) & 1 == 1 { 'v' } else { '.' })
                .collect();
            println!(
                "{:>6} {:>7} {:>18}  {}",
                s.idx,
                s.proven_masked.count_ones(),
                format!("{:#x}", s.vulnerable),
                mask
            );
        }
    }
    Ok(())
}

fn cmd_list_workloads() -> Result<(), String> {
    for name in NAMES {
        let w = workload(name, Scale::Standard);
        println!("{:<14} {:<8} {}", w.name, w.suite.name(), w.domain);
    }
    Ok(())
}

fn cmd_source(rest: &[String]) -> Result<(), String> {
    let name = rest.first().ok_or("missing benchmark name")?;
    if !NAMES.contains(&name.as_str()) {
        return Err(format!("unknown benchmark '{name}'; see `flowery workloads`"));
    }
    print!("{}", workload(name, Scale::Standard).source);
    Ok(())
}
