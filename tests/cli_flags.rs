//! Strict flag parsing, driven through the built binary: every subcommand
//! declares its switches and value flags once, so an unknown flag, a flag
//! of another subcommand, a value flag without its value and an
//! unparsable number are all errors that name the flag — none is silently
//! ignored, and none swallows the next benchmark name.

use std::process::{Command, Output};

fn flowery(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flowery"))
        .args(args)
        .output()
        .expect("the flowery binary runs")
}

/// The command must fail, and its error must contain every `needle`.
fn refused(args: &[&str], needles: &[&str]) {
    let out = flowery(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`flowery {}` must fail, printed: {err}", args.join(" "));
    for needle in needles {
        assert!(err.contains(needle), "`flowery {}`: error must mention `{needle}`: {err}", args.join(" "));
    }
}

fn stdout_of(args: &[&str]) -> String {
    let out = flowery(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "`flowery {}` failed: {err}", args.join(" "));
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn unknown_and_misspelt_flags_are_errors_that_name_the_flag() {
    // The seed ran 3000 trials here; and ignored the typo below.
    refused(&["campaign", "crc32", "--tiny", "--trials", "abc"], &["--trials", "abc"]);
    refused(&["campaign", "crc32", "--tiny", "--static-prnue"], &["--static-prnue", "campaign"]);
    // An unknown flag used to be taken as value-taking and swallow `crc32`,
    // silently widening the matrix to all 16 workloads.
    refused(&["campaign", "--bogus", "crc32", "--tiny"], &["--bogus"]);
    refused(&["campaign", "crc32", "--tiny", "--trials"], &["--trials", "needs a value"]);
    refused(&["campaign", "nosuchbench", "--tiny"], &["unknown benchmark", "nosuchbench"]);
    // A flag is only known where it is declared.
    refused(&["diff", "crc32", "--checkpoint", "x.jsonl"], &["--checkpoint", "diff"]);
    refused(&["diff", "crc32", "--tiny", "--batch", "1e3", "--baseline", "x"], &["--batch", "1e3"]);
    refused(&["explore", "crc32", "--static-prune"], &["--static-prune", "explore"]);
    // `study` takes the campaign's flags and no others.
    refused(&["study", "crc32", "--bogus"], &["--bogus", "study"]);
    refused(&["study", "crc32", "--detectors", "none"], &["--detectors", "study"]);
    refused(&["explore", "crc32", "--seed", "-4"], &["--seed", "-4"]);
    refused(&["lint", "crc32", "--bits", "--formt", "json"], &["--formt", "lint"]);
    // `serve` and `work` are not subcommands: a multi-host campaign is
    // shards of `campaign` (DESIGN §6).
    refused(&["serve", "crc32", "--checkpoint", "x.jsonl"], &["unknown command 'serve'"]);
    refused(&["work", "--connect", "127.0.0.1:1"], &["unknown command 'work'"]);
    // Requirements that are not typos still read as before.
    refused(&["campaign", "crc32", "--resume"], &["--resume needs --checkpoint"]);
    refused(&["study", "crc32", "--resume"], &["--resume needs --checkpoint"]);
}

#[test]
fn the_study_is_a_campaign_and_prints_the_same_figures_on_every_engine() {
    let study = ["study", "crc32", "--tiny", "--trials", "40", "--levels", "1.0"];
    let native = stdout_of(&[&study[..], &["--executor", "native"]].concat());
    let figure2_row = native
        .lines()
        .find(|l| l.trim_start().starts_with("crc32") && l.contains("100%"));
    assert!(
        figure2_row.is_some_and(|l| l.matches('%').count() == 4),
        "no Figure 2 row for crc32: {native}"
    );
    assert_eq!(native, stdout_of(&[&study[..], &["--executor", "interp", "--no-snapshots"]].concat()));
}

#[test]
fn a_study_of_an_out_of_tree_program_renders_table1_without_registry_metadata() {
    let dir = std::env::temp_dir().join(format!("flowery-cli-src-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.mc");
    std::fs::write(
        &path,
        "int main() { int s = 0; int i; for (i = 0; i < 9; i = i + 1) { s = s + i; } output(s); return 0; }\n",
    )
    .unwrap();
    let out = flowery(&["study", "--src", path.to_str().unwrap(), "--tiny", "--trials", "40", "--levels", "1.0"]);
    std::fs::remove_dir_all(&dir).unwrap();
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "study --src failed: {stderr}");
    let mut lines = stdout.lines().map(|l| l.split_whitespace().collect::<Vec<_>>());
    let header = ["Benchmark", "Suite", "Domain", "DI", "(IR)", "DI", "(asm)"];
    assert_eq!(lines.next().unwrap_or_default(), header, "Table 1 does not lead stdout: {stdout}");
    let row = lines.nth(1).unwrap_or_default();
    assert_eq!(row[..3], ["probe", "-", "-"], "no `-` suite and domain for probe: {stdout}");
    assert!(stderr.contains("average Flowery pass time") && !stdout.contains("average Flowery pass time"));
}

#[test]
fn declared_flags_parse_wherever_they_stand() {
    // Value flags take exactly their value: benchmark names may come
    // before, between or after them, and the runs are the same campaign.
    let schedule = ["--tiny", "--trials", "40", "--batch", "20", "--seed", "7", "--json"];
    let trailing = stdout_of(&[&["campaign", "crc32"], &schedule[..]].concat());
    let leading = stdout_of(&[&["campaign"], &schedule[..], &["crc32"]].concat());
    let between =
        stdout_of(&["campaign", "--tiny", "--trials", "40", "crc32", "--batch", "20", "--seed", "7", "--json"]);
    assert!(trailing.contains("\"crc32\""), "{trailing}");
    assert_eq!(trailing.matches("\"key\"").count(), 5, "one bench, five units: {trailing}");
    assert_eq!(trailing, leading);
    assert_eq!(trailing, between);

    let explore = [
        &["explore", "crc32", "--tiny", "--trials", "30", "--threads", "2"][..],
        &["--models", "single-bit-reg", "--detectors", "none,parity", "--levels", "1.0"][..],
    ]
    .concat();
    assert!(stdout_of(&explore).contains("crc32"));
}

#[test]
fn the_usage_header_names_every_dispatched_subcommand() {
    let help = stdout_of(&["help"]);
    let header = help.lines().next().unwrap();
    let listed: Vec<&str> = header[header.find('<').unwrap() + 1..header.find('>').unwrap()]
        .split('|')
        .collect();
    // The arms of `main`'s dispatch, read from its source.
    let dispatched: Vec<&str> = include_str!("../src/bin/flowery.rs")
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix('"')?.split_once("\" => cmd_"))
        .map(|(name, _)| name)
        .collect();
    assert!(dispatched.len() >= 12, "dispatch arms not found: {dispatched:?}");
    assert_eq!(listed, dispatched, "`{header}` must list exactly what `main` dispatches");
}

/// `refused`, and the refusal is an error exit, not a panic's.
fn refused_cleanly(args: &[&str], needles: &[&str]) {
    refused(args, needles);
    assert_eq!(flowery(args).status.code(), Some(1), "`flowery {}` must exit 1", args.join(" "));
}

/// Write `src` to a fresh `<stem>.mc` and return its path.
fn program(stem: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flowery-cli-{stem}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{stem}.mc"));
    std::fs::write(&path, src).unwrap();
    path
}

#[test]
fn a_program_without_ir_fault_sites_is_refused_by_name() {
    let path = program("quiet", "int main() { return 0; }\n");
    let p = path.to_str().unwrap();
    let why = "program has no ir fault sites";
    // Whichever of its IR units a worker reaches first is named.
    refused_cleanly(&["campaign", "--src", p, "--tiny", "--trials", "20"], &["quiet/", why]);
    // The study's selection profile is where it meets the program first.
    refused_cleanly(&["study", "--src", p, "--tiny", "--trials", "20"], &["quiet/Raw@0/Ir: ", why]);
    refused_cleanly(&["vuln", p, "--trials", "20"], &[why]);
    refused_cleanly(&["inject", p, "--trials", "20"], &[why]);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn a_golden_run_that_does_not_complete_is_refused_by_name() {
    // A trap stands in for a loop that never ends: both leave no golden
    // outcome (`engine_integration` holds the loop at a small budget).
    let path = program("trap", "int main() { int z = 0; output(5 / z); return 0; }\n");
    let p = path.to_str().unwrap();
    let why = "golden run must complete: Trapped(";
    refused_cleanly(&["campaign", "--src", p, "--tiny", "--trials", "20", "--levels", "1.0"], &["trap/", why]);
    refused_cleanly(&["vuln", p, "--trials", "20"], &[why]);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn an_empty_schedule_is_refused_by_name() {
    let why = "bad --trials '0' (want at least 1)";
    refused_cleanly(&["campaign", "crc32", "--tiny", "--trials", "0"], &[why]);
    refused_cleanly(&["study", "crc32", "--tiny", "--trials", "0"], &[why]);
    refused_cleanly(&["explore", "crc32", "--tiny", "--trials", "0"], &[why]);
    refused_cleanly(&["vuln", "crc32", "--trials", "0"], &[why]);
    refused_cleanly(&["inject", "crc32", "--trials", "0"], &[why]);
    refused_cleanly(&["lint", "crc32", "--validate", "--trials", "0"], &[why]);
}
