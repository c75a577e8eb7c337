//! A checkpoint is bytes a campaign reads back from disk: a log torn by a
//! crash, shards joined with `cat`, a file someone edited. Mutants of a
//! sealed Tiny checkpoint — byte flips, truncations, duplicated and
//! reordered lines, oversized numbers — must resume as a checkpoint or be
//! refused with an error, and what resumes must seal the same way, every
//! record kind canonicalized: never a panic.

use flowery_harness::{canonicalize, load_checkpoint_full, open, seal};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;

/// Numbers a mutation writes over a digit run: past `u64`, past `f64`,
/// negative, and the edges of both.
const OVERSIZED: &[&str] = &[
    "18446744073709551616",
    "18446744073709551615",
    "340282366920938463463374607431768211456",
    "1e309",
    "-1",
    "-9223372036854775809",
    "0",
    "99999999999999999999999999999999999999999999999999",
];

/// Resume `path` under the header it holds and seal it, as a campaign
/// asking for that header does: every record kind is read and
/// canonicalized. `None` for a panic.
fn load(path: &Path) -> Option<Result<(), String>> {
    catch_unwind(AssertUnwindSafe(|| {
        let (header, ..) = load_checkpoint_full(path)?;
        let (log, batches, ..) = open(path, &header, true)?;
        canonicalize(&header, batches)?;
        seal(path, log, &[])
    }))
    .ok()
}

#[test]
fn mutated_checkpoints_load_or_fail_but_never_panic() {
    const MUTANTS: u64 = 300;
    let dir = std::env::temp_dir().join(format!("flowery-ckpt-mutants-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sealed = dir.join("sealed.jsonl");
    // Levels below 1.0 add the selection profile's records to the header,
    // golden, batch and region lines.
    let out = Command::new(env!("CARGO_BIN_EXE_flowery"))
        .args(["campaign", "crc32", "--tiny", "--trials", "60", "--batch", "20", "--levels", "0.5,1.0"])
        .args(["--no-snapshots", "--checkpoint", sealed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read(&sealed).unwrap();
    for kind in ["Header", "Profile", "Golden", "Batch", "Regions"] {
        let line = format!("{{\"{kind}\":");
        assert!(String::from_utf8_lossy(&text).contains(&line), "test premise: a {kind} record is present");
    }
    assert_eq!(load(&sealed), Some(Ok(())));
    assert_eq!(std::fs::read(&sealed).unwrap(), text, "test premise: the seal is canonical");

    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: usize| {
        // xorshift64*: a fixed stream, so every run tries the same mutants.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % bound.max(1)
    };
    let (mut loaded, mut panics) = (0, Vec::new());
    let mutant = dir.join("mutant.jsonl");
    for k in 0..MUTANTS {
        let mut t = text.clone();
        let mut lines: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        match k % 5 {
            0 => {
                let at = next(t.len());
                t[at] ^= 1 << next(8);
            }
            1 => t.truncate(next(t.len())),
            2 => {
                let at = next(lines.len());
                lines.insert(at, lines[next(lines.len())].clone());
                t = lines.join(&b'\n');
            }
            3 => {
                let (a, b) = (next(lines.len()), next(lines.len()));
                lines.swap(a, b);
                t = lines.join(&b'\n');
            }
            _ => {
                // Overwrite the digit run at or after a random position of
                // the header (every other time) or of any line.
                let line = if next(2) == 0 { 0 } else { next(lines.len()) };
                let from = lines[..line].iter().map(|l| l.len() + 1).sum::<usize>() + next(lines[line].len());
                let Some(start) = (from..t.len()).find(|&i| t[i].is_ascii_digit()) else {
                    continue;
                };
                let end = (start..t.len()).find(|&i| !t[i].is_ascii_digit()).unwrap_or(t.len());
                let number = OVERSIZED[next(OVERSIZED.len())].as_bytes();
                t.splice(start..end, number.iter().copied());
            }
        }
        std::fs::write(&mutant, &t).unwrap();
        match load(&mutant) {
            Some(Ok(())) => loaded += 1,
            Some(Err(_)) => {}
            None => panics.push(format!("mutant {k} (kind {})", k % 5)),
        }
    }
    // Two header edits the stream may miss: a zero batch size (the
    // schedule's divisor) and a schedule too long to hold batch by batch.
    let text = String::from_utf8(text).unwrap();
    for (from, to) in [
        ("\"batch_size\":20", "\"batch_size\":0"),
        ("\"max_trials\":60", "\"max_trials\":18446744073709551615"),
    ] {
        assert!(text.contains(from), "test premise: the header has {from}");
        std::fs::write(&mutant, text.replacen(from, to, 1)).unwrap();
        if load(&mutant).is_none() {
            panics.push(to.to_string());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(panics.is_empty(), "loading panicked on: {panics:?}");
    assert!(loaded > 0, "no mutant loaded: the sweep only exercises the refusals");
}

#[test]
fn a_batch_whose_counts_do_not_add_up_is_refused_and_run_again() {
    let dir = std::env::temp_dir().join(format!("flowery-ckpt-miscounted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (sealed, mutant) = (dir.join("sealed.jsonl"), dir.join("mutant.jsonl"));
    let campaign = |path: &Path, resume: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_flowery"));
        cmd.args(["campaign", "crc32", "--tiny", "--trials", "60", "--batch", "20"])
            .args(["--checkpoint", path.to_str().unwrap()]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stderr).unwrap()
    };
    campaign(&sealed, false);
    let text = std::fs::read_to_string(&sealed).unwrap();
    // One batch record's benign count rewritten to u64::MAX.
    let line = text.lines().find(|l| l.starts_with("{\"Batch\"")).expect("a batch record");
    let at = line.find("\"benign\":").expect("a benign count") + "\"benign\":".len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    let forged = format!("{}{}{}", &line[..at], u64::MAX, &line[at + digits..]);
    std::fs::write(&mutant, text.replacen(line, &forged, 1)).unwrap();
    let (header, batches, _) = load_checkpoint_full(&mutant).unwrap();
    assert_eq!(canonicalize(&header, batches).unwrap().len(), text.matches("{\"Batch\"").count() - 1);
    // The resume names the refusal, runs the batch again and seals the
    // uninterrupted campaign's bytes.
    let err = campaign(&mutant, true);
    let note = "(1 refused: 0 fault-model, 0 prune-provenance, 0 out-of-schedule, 1 miscounted)";
    assert!(err.contains(note), "{err}");
    assert_eq!(std::fs::read_to_string(&mutant).unwrap(), text);
    std::fs::remove_dir_all(&dir).unwrap();
}
