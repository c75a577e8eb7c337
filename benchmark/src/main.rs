//! Campaign ledger: the repo's benchmark. One command runs a named
//! workload through the calls `flowery campaign` makes and prints its
//! end-to-end metrics; `--trace 1` re-does the same work by hand through
//! each crate's public functions and prints per-layer metrics. See
//! `benchmark/README.md` for every name.
//!
//! ```text
//! campaign-ledger --workload W [--seed N] [--seconds S] [--trace 0|1]
//! campaign-ledger [--seed N] [--seconds S]        every workload, untraced
//! campaign-ledger --aa | --pin [--workload W] | --check-cli [--cli PATH] | --describe
//! ```

mod catalog;
mod modes;
mod staged;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Scratch space of one process; removed when the run ends.
pub const OUT_DIR: &str = "benchmark/out";

/// A metric value with its unit, by metric name.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What one run prints as its last line.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the driver contract. Values keep every digit
    /// `f64` formatting gives them.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    rest: Vec<String>,
}

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.rest.iter().position(|a| a == name)?;
        self.rest.get(i + 1).map(|s| s.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        let Some(v) = self.value(name) else { return Ok(default) };
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        parsed.map_err(|_| format!("bad {name} '{v}'"))
    }
}

/// A fresh scratch directory for this process under [`OUT_DIR`].
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<bool, String> {
    let seed = args.number("--seed", workloads::DEFAULT_SEED)?;
    let seconds = args.number("--seconds", modes::DEFAULT_SECONDS)?;
    let workload = args
        .value("--workload")
        .map(|name| workloads::by_name(name).ok_or_else(|| format!("unknown workload '{name}'")))
        .transpose()?;
    if args.flag("--describe") {
        print!("{}", catalog::benchmark_json());
        return Ok(true);
    }
    if args.flag("--pin") {
        return modes::pin(workload).map(|()| true);
    }
    if args.flag("--check-cli") {
        return modes::check_cli(Path::new(args.value("--cli").unwrap_or("target/release/flowery")));
    }
    if args.flag("--aa") {
        return modes::aa(seed, seconds);
    }
    // No workload named: the whole set, one process each.
    let Some(w) = workload else {
        return modes::all(seed, seconds);
    };
    let result = match args.number("--trace", 0)? {
        0 => modes::timed(w, seed, Duration::from_secs(seconds))?,
        1 => trace::traced(w, seed)?,
        other => return Err(format!("bad --trace '{other}' (want 0 or 1)")),
    };
    for (name, (value, unit)) in &result.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", result.to_json());
    Ok(result.correct())
}

fn main() -> ExitCode {
    let args = Args { rest: std::env::args().skip(1).collect() };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("campaign-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
