//! Persistent snapshot sets alongside the checkpoint log.
//!
//! A campaign's snapshot sets are pure functions of program content and
//! execution config, so they can be written once and reloaded on
//! `--resume` — the resumed run then performs *zero* golden re-executions
//! and zero snapshot re-captures. Sets live in a `<checkpoint>.snaps/`
//! directory next to the log, one file per content hash and layer, in the
//! stable checksummed format of `SnapshotSet::to_bytes`.
//!
//! Everything here is best-effort: a failed save costs a future
//! re-capture, a corrupt or stale file (an older format version included)
//! is rejected by the loader's checksum/version/shape validation, named on
//! stderr with the reason, and falls back to capture. Loaded sets are still
//! geometry-checked by the cache before use. A cleanly sealed campaign
//! prunes its store to the programs of its matrix
//! ([`SnapshotStore::prune`]), so sets under keys no lookup asks for again
//! do not pile up.

use crate::plan::Layer;
use flowery_backend::{AsmLayer, AsmProgram, AsmSnapshotSet, Machine};
use flowery_ir::interp::{Interpreter, IrLayer, IrSnapshotSet, SnapshotSet, Substrate};
use flowery_ir::Module;
use std::cell::RefCell;
use std::collections::HashSet;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes concurrent in-flight writes of the same set; the final
/// rename is what publishes a file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// On-disk home of a campaign's snapshot sets, counting the file bytes it
/// reads and writes.
pub struct SnapshotStore {
    dir: PathBuf,
    read: AtomicU64,
    written: AtomicU64,
}

impl SnapshotStore {
    /// The store belonging to a checkpoint log: `<checkpoint>.snaps/`.
    pub fn for_checkpoint(checkpoint: &Path) -> SnapshotStore {
        let mut name = checkpoint.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(".snaps");
        SnapshotStore::at(checkpoint.with_file_name(name))
    }

    /// A store rooted at an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> SnapshotStore {
        SnapshotStore {
            dir: dir.into(),
            read: AtomicU64::new(0),
            written: AtomicU64::new(0),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of snapshot files read so far, refused ones included.
    pub fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }

    /// Bytes of snapshot files published so far.
    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn path<S: Substrate>(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{}-{hash:016x}.snap", S::NAME))
    }

    /// Delete every stored set whose `(layer, content key)` is not in
    /// `keep`, and every `.tmp-*` file a killed writer left behind; files
    /// of any other name stay. Returns how many files were removed.
    pub fn prune(&self, keep: impl IntoIterator<Item = (Layer, u64)>) -> usize {
        let keep: HashSet<PathBuf> = keep
            .into_iter()
            .map(|(layer, hash)| match layer {
                Layer::Ir => self.path::<IrLayer>(hash),
                Layer::Asm => self.path::<AsmLayer>(hash),
            })
            .collect();
        let stale = |path: &PathBuf| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            let stored = name.ends_with(".snap")
                && [IrLayer::NAME, AsmLayer::NAME]
                    .iter()
                    .any(|layer| name.starts_with(&format!("{layer}-")));
            (stored && !keep.contains(path)) || name.starts_with(".tmp-")
        };
        let entries = fs::read_dir(&self.dir).into_iter().flatten();
        entries
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(stale)
            .filter(|path| fs::remove_file(path).is_ok())
            .count()
    }

    /// Load the snapshot set of the program `exec` is bound to, stored
    /// under content hash `hash`. `None` on a missing file, and — with a
    /// note on stderr — on a corrupt, truncated or mismatched one. One read
    /// buffer per thread: freed after each decode, it would leave a hole.
    pub fn load<S: Substrate>(&self, exec: &S::Exec<'_>, hash: u64) -> Option<SnapshotSet<S>> {
        thread_local!(static BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) });
        BUF.with_borrow_mut(|bytes| {
            bytes.clear();
            let mut file = fs::File::open(self.path::<S>(hash)).ok()?;
            file.read_to_end(bytes).ok()?;
            self.read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            SnapshotSet::decode(bytes, exec, hash)
                .map_err(|reason| self.refused::<S>(hash, &reason))
                .ok()
        })
    }

    /// Say why the stored set for `hash` is not used; a capture replaces it.
    pub(crate) fn refused<S: Substrate>(&self, hash: u64, reason: &str) {
        eprintln!("[harness] snapshot set {} refused: {reason}; recapturing", self.path::<S>(hash).display());
    }

    /// Persist a snapshot set. Returns whether the file was published.
    pub fn save<S: Substrate>(&self, set: &SnapshotSet<S>, hash: u64) -> bool {
        self.publish(self.path::<S>(hash), set.to_bytes(hash))
    }

    /// [`SnapshotStore::load`] at the IR layer.
    pub fn load_ir(&self, module: &Module, hash: u64) -> Option<IrSnapshotSet> {
        self.load::<IrLayer>(&Interpreter::new(module), hash)
    }

    /// [`SnapshotStore::save`] at the IR layer.
    pub fn save_ir(&self, set: &IrSnapshotSet, hash: u64) -> bool {
        self.save(set, hash)
    }

    /// [`SnapshotStore::load`] at the assembly layer.
    pub fn load_asm(&self, module: &Module, program: &AsmProgram, hash: u64) -> Option<AsmSnapshotSet> {
        self.load::<AsmLayer>(&Machine::new(module, program), hash)
    }

    /// [`SnapshotStore::save`] at the assembly layer.
    pub fn save_asm(&self, set: &AsmSnapshotSet, hash: u64) -> bool {
        self.save(set, hash)
    }

    /// Atomic write: unique tmp file, then rename. Concurrent savers of
    /// the same content race benignly — both write identical bytes.
    fn publish(&self, path: PathBuf, bytes: Vec<u8>) -> bool {
        if fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".tmp-{}-{seq}", std::process::id()));
        if fs::write(&tmp, &bytes).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        let published = fs::rename(&tmp, &path).is_ok();
        if published {
            self.written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{module_hash, program_hash};
    use flowery_backend::{compile_module, BackendConfig, Machine};
    use flowery_ir::interp::{ExecConfig, Interpreter};

    fn module() -> Module {
        flowery_lang::compile(
            "t",
            "int main() { int s = 0; int i; for (i = 0; i < 800; i = i + 1) { s = s + i; } output(s); return 0; }",
        )
        .unwrap()
    }

    #[test]
    fn round_trips_both_layers_and_rejects_junk() {
        let dir = std::env::temp_dir().join(format!("flsnapstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::at(&dir);
        let m = module();
        let exec = ExecConfig::default();
        let mh = module_hash(&m);

        // Missing file: clean None.
        assert!(store.load_ir(&m, mh).is_none());
        assert_eq!((store.bytes_read(), store.bytes_written()), (0, 0));

        let set = Interpreter::new(&m).capture_snapshots_auto(&exec);
        assert!(!set.is_empty());
        assert!(store.save_ir(&set, mh));
        let loaded = store.load_ir(&m, mh).expect("saved set loads");
        let size = set.to_bytes(mh).len() as u64;
        assert_eq!((store.bytes_read(), store.bytes_written()), (size, size));
        assert_eq!(loaded.golden(), set.golden());
        assert_eq!(loaded.len(), set.len());

        let p = compile_module(&m, &BackendConfig::default());
        let ph = program_hash(&p);
        let aset = Machine::new(&m, &p).capture_snapshots_auto(&exec);
        assert!(store.save_asm(&aset, ph));
        let aloaded = store.load_asm(&m, &p, ph).expect("saved asm set loads");
        assert_eq!(aloaded.golden(), aset.golden());

        // Corrupt the IR file: load degrades to None, never panics.
        let path = dir.join(format!("ir-{mh:016x}.snap"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_ir(&m, mh).is_none());

        // Wrong content hash (file saved under another key): rejected.
        assert!(store.load_asm(&m, &p, ph ^ 1).is_none());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_named_sets_and_removes_strays_and_leftovers() {
        let dir = std::env::temp_dir().join(format!("flsnapprune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::at(&dir);
        let m = module();
        let exec = ExecConfig::default();
        let (mh, p) = (module_hash(&m), compile_module(&m, &BackendConfig::default()));
        let ah = crate::cache::asm_hash(&m, &p);
        assert!(store.save_ir(&Interpreter::new(&m).capture_snapshots_auto(&exec), mh));
        assert!(store.save_asm(&Machine::new(&m, &p).capture_snapshots_auto(&exec), ah));
        // An asm set under an IR unit's key, a set of another program, a
        // writer's leftover, and a file the store did not write.
        std::fs::copy(dir.join(format!("asm-{ah:016x}.snap")), dir.join(format!("asm-{mh:016x}.snap"))).unwrap();
        std::fs::copy(dir.join(format!("ir-{mh:016x}.snap")), dir.join(format!("ir-{:016x}.snap", mh ^ 1))).unwrap();
        std::fs::write(dir.join(".tmp-1-0"), b"torn").unwrap();
        std::fs::write(dir.join("notes.txt"), b"kept").unwrap();

        assert_eq!(store.prune([(Layer::Ir, mh), (Layer::Asm, ah)]), 3);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, [format!("asm-{ah:016x}.snap"), format!("ir-{mh:016x}.snap"), "notes.txt".into()]);
        assert!(store.load_ir(&m, mh).is_some() && store.load_asm(&m, &p, ah).is_some());
        assert_eq!(store.prune([]), 2, "an empty matrix keeps no set");
        assert_eq!(SnapshotStore::at(dir.join("absent")).prune([]), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
