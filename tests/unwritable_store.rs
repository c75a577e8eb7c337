//! A snapshot store that cannot be written costs re-captures, never a
//! result. With `<checkpoint>.snaps` a plain file, no snapshot set can be
//! published (the directory cannot be made), yet the campaign finishes,
//! reports 0 snapshot bytes written and seals a checkpoint byte-identical
//! to the same campaign's over a writable store.

use std::path::Path;
use std::process::{Command, Output};

const SCHED: &[&str] = &["--tiny", "--trials", "60", "--batch", "20", "--seed", "4242", "--threads", "1"];

fn campaign(checkpoint: &Path, metrics: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flowery"))
        .args(["campaign", "crc32", "quicksort"])
        .args(SCHED)
        .arg("--checkpoint")
        .arg(checkpoint)
        .arg("--metrics-json")
        .arg(metrics)
        .output()
        .expect("the flowery binary runs")
}

/// The number after `"key": ` in the pretty-printed `--metrics-json` file.
fn metric(path: &Path, key: &str) -> u64 {
    let json = std::fs::read_to_string(path).unwrap();
    let at = json
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + key.len()
        + 4;
    json[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
}

#[test]
fn an_unwritable_store_costs_no_result() {
    let dir = std::env::temp_dir().join(format!("flowery-unwritable-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name);
    std::fs::write(at("blocked.jsonl.snaps"), b"a file where the store's directory would go").unwrap();
    for name in ["open", "blocked"] {
        let out = campaign(&at(&format!("{name}.jsonl")), &at(&format!("{name}.json")));
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
    }
    assert!(
        metric(&at("open.json"), "snap_bytes_written") > 0,
        "test premise: the open store is written"
    );
    assert_eq!(metric(&at("blocked.json"), "snap_bytes_written"), 0);
    assert!(metric(&at("blocked.json"), "snap_captures") > 0, "the blocked campaign still captures");
    assert!(
        std::fs::read(at("open.jsonl")).unwrap() == std::fs::read(at("blocked.jsonl")).unwrap(),
        "the seals must be byte-identical"
    );
    assert!(at("blocked.jsonl.snaps").is_file(), "the seal's prune leaves the file alone");
    std::fs::remove_dir_all(&dir).ok();
}
