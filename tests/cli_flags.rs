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
    // `--static-prior` ranks `vuln`'s output; `diff` runs every region regardless.
    refused(
        &["diff", "crc32", "--tiny", "--baseline", "x", "--static-prior"],
        &["--static-prior", "diff"],
    );
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
    let coverage_row = native.lines().find(|l| l.starts_with("| crc32 ") && l.contains("100%"));
    assert!(
        coverage_row.is_some_and(|l| l.matches('%').count() == 5),
        "no Figures 2 and 17 row for crc32: {native}"
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
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("## Table 1 — benchmark inventory"),
        "Table 1 does not lead stdout: {stdout}"
    );
    let mut rows = lines
        .skip(1)
        .map(|l| l.split('|').map(str::trim).filter(|c| !c.is_empty()).collect::<Vec<_>>());
    let header = ["Benchmark", "Suite", "Domain", "DI (IR)", "DI (asm)"];
    assert_eq!(rows.next().unwrap_or_default(), header, "Table 1 does not lead stdout: {stdout}");
    let row = rows.nth(1).unwrap_or_default();
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
fn the_matrix_line_counts_the_programs_it_builds() {
    // It read `(16 benches)` for a matrix of one `--src` program.
    let path = program(
        "probe",
        "int main() { int s = 0; int i; for (i = 0; i < 9; i = i + 1) { s = s + i; } output(s); return 0; }\n",
    );
    let p = path.to_str().unwrap();
    for (benches, want) in [(&[][..], "(1 program(s))"), (&["crc32"][..], "(2 program(s))")] {
        let args = [&["campaign"], benches, &["--src", p, "--tiny", "--trials", "50", "--levels", "1.0"]].concat();
        let out = flowery(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "`flowery {}` failed: {err}", args.join(" "));
        assert!(
            err.contains(&format!("[harness] building matrix {want}")),
            "`flowery {}`: {err}",
            args.join(" ")
        );
    }
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

#[test]
fn bad_levels_and_ci_targets_are_refused_before_any_work() {
    // `--levels 1.5` used to run the selection profile and then panic in
    // `passes::select`; `1.0,1.0` ran and reported every unit twice.
    let commands: [&[&str]; 4] = [
        &["campaign", "crc32", "--tiny"],
        &["study", "crc32", "--tiny"],
        &["diff", "crc32", "--tiny", "--baseline", "x"],
        &["explore", "crc32", "--tiny"],
    ];
    for cmd in commands {
        for (levels, why) in [
            ("1.5", "--levels 1.5 out of range"),
            ("-0.2", "--levels -0.2 out of range"),
            ("nan", "--levels nan out of range"),
            ("1.0,1", "--levels 1 given twice"),
        ] {
            refused_cleanly(&[cmd, &["--levels", levels]].concat(), &[why]);
        }
    }
    // These used to mean "never stop early"; `nan` went into the header.
    for v in ["-1", "0", "nan", "inf"] {
        let why = format!("bad --ci-target '{v}'");
        refused_cleanly(&["campaign", "crc32", "--tiny", "--ci-target", v], &[&why]);
        refused_cleanly(&["study", "crc32", "--tiny", "--ci-target", v], &[&why]);
    }
}

#[test]
fn deep_minic_nesting_is_refused_by_name() {
    const DEEP: usize = 100_000;
    let shapes = [
        (
            "parens",
            format!("int main() {{\n  return {}1{}; }}\n", "(".repeat(DEEP), ")".repeat(DEEP)),
        ),
        ("negations", format!("int main() {{\n  return {}1; }}\n", "-".repeat(DEEP))),
        ("sum", format!("int main() {{\n  return 1{}; }}\n", " + 1".repeat(DEEP))),
        (
            "ifs",
            format!("int main() {{\n  {}{} return 0; }}\n", "if (1) { ".repeat(DEEP), "}".repeat(DEEP)),
        ),
    ];
    let why = format!("line 2: nesting deeper than the limit of {} levels", flowery_lang::parser::MAX_DEPTH);
    for (stem, src) in shapes {
        let path = program(stem, &src);
        let p = path.to_str().unwrap();
        refused_cleanly(&["compile", p], &[&why]);
        refused_cleanly(&["run", p], &[&why]);
        refused_cleanly(&["campaign", "--src", p, "--tiny", "--trials", "20"], &[&why]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

/// The number after `"key": ` in pretty-printed `--metrics-json` output.
fn metric(json: &str, key: &str) -> u64 {
    let at = json
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + key.len()
        + 4;
    json[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
}

#[test]
fn a_global_initializer_edit_reruns_the_regions_that_read_it() {
    // Function text names a global only by index (`@g0`), so an edit of the
    // initializer alone changes no function's text: the globals folded into
    // every region hash are what keep the baseline's regions from being
    // reused for a program that no longer exists.
    let src = "global int table[4] = {3, 1, 4, 1};\n\
               int pick(int i) { return table[i & 3]; }\n\
               int main() { int s = 0; int i;\n\
                 for (i = 0; i < 40; i = i + 1) { s = s + pick(i); }\n\
                 output(s); return 0; }\n";
    let path = program("table", src);
    let dir = path.parent().unwrap().to_path_buf();
    let (base, metrics) = (dir.join("base.jsonl"), dir.join("diff.json"));
    let (p, base, metrics) = (path.to_str().unwrap(), base.to_str().unwrap(), metrics.to_str().unwrap());
    let args = ["--src", p, "--tiny", "--trials", "100", "--batch", "50"];
    stdout_of(&[&["campaign"], &args[..], &["--checkpoint", base]].concat());
    let diff = [&["diff"], &args[..], &["--baseline", base, "--metrics-json", metrics]].concat();
    stdout_of(&diff);
    let json = std::fs::read_to_string(metrics).unwrap();
    assert_eq!(
        metric(&json, "regions_rerun"),
        0,
        "test premise: an unchanged program reuses every region"
    );

    std::fs::write(&path, src.replace("{3, 1, 4, 1}", "{3, 1, 4, 2}")).unwrap();
    stdout_of(&diff);
    let json = std::fs::read_to_string(metrics).unwrap();
    let total = metric(&json, "regions_total");
    assert!(total > 0, "{json}");
    assert_eq!((metric(&json, "regions_rerun"), metric(&json, "regions_reused")), (total, 0), "{json}");
    std::fs::remove_dir_all(dir).unwrap();
}
