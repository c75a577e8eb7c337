//! A shard killed mid-write leaves a torn last line. Joined with `cat`, that
//! fragment sits mid-file, glued to the next shard's header, where no
//! resume may take it for a record (DESIGN §6): the merge is refused naming
//! the file and line. Resumed on its own, the shard repairs its tail, and the
//! merge then seals a checkpoint byte-identical to a single-process run.

use std::path::Path;
use std::process::{Command, Output};

const SCHED: &[&str] = &["--tiny", "--trials", "60", "--batch", "20", "--seed", "4242", "--threads", "1"];

fn campaign(programs: &[&str], checkpoint: &Path, resume: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flowery"));
    cmd.arg("campaign")
        .args(programs)
        .args(SCHED)
        .arg("--checkpoint")
        .arg(checkpoint);
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("the flowery binary runs")
}

fn ok(out: Output) {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

fn cat(out: &Path, parts: &[&Path]) {
    let bytes: Vec<u8> = parts.iter().flat_map(|p| std::fs::read(p).unwrap()).collect();
    std::fs::write(out, bytes).unwrap();
}

#[test]
fn a_torn_shard_tail_is_refused_at_the_merge_and_repaired_by_its_own_resume() {
    let dir = std::env::temp_dir().join(format!("flowery-torn-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name);
    ok(campaign(&["crc32", "quicksort"], &at("ref.jsonl"), false));
    ok(campaign(&["crc32"], &at("a.jsonl"), false));
    ok(campaign(&["quicksort"], &at("b.jsonl"), false));

    // Shard a dies 40 bytes short of the end of its last line.
    let a = std::fs::read(at("a.jsonl")).unwrap();
    std::fs::write(at("a.jsonl"), &a[..a.len() - 40]).unwrap();
    let torn_line = a[..a.len() - 40].iter().filter(|&&b| b == b'\n').count() + 1;

    cat(&at("m.jsonl"), &[&at("a.jsonl"), &at("b.jsonl")]);
    let merged = campaign(&["crc32", "quicksort"], &at("m.jsonl"), true);
    let err = String::from_utf8_lossy(&merged.stderr);
    let named = format!("{}:{torn_line}: corrupt record", at("m.jsonl").display());
    assert_eq!(merged.status.code(), Some(1), "the merge must be refused: {err}");
    assert!(err.contains(&named), "the refusal must name `{named}`: {err}");

    // The shard's own resume drops the torn tail and re-runs what it lost.
    ok(campaign(&["crc32"], &at("a.jsonl"), true));
    cat(&at("m.jsonl"), &[&at("a.jsonl"), &at("b.jsonl")]);
    ok(campaign(&["crc32", "quicksort"], &at("m.jsonl"), true));
    assert!(
        std::fs::read(at("m.jsonl")).unwrap() == std::fs::read(at("ref.jsonl")).unwrap(),
        "the repaired merge must seal the single-process checkpoint"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
