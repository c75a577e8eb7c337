//! The coordinator/worker wire protocol.
//!
//! Strictly request/response from the worker's point of view: the
//! coordinator only ever writes in reply to [`ClientMsg::Hello`],
//! [`ClientMsg::Ready`] (on failure), and [`ClientMsg::LeaseRequest`];
//! [`ClientMsg::Completed`], [`ClientMsg::Heartbeat`], and
//! [`ClientMsg::Goodbye`] elicit nothing. That keeps the worker's read
//! side trivial — every read is the answer to the request it just sent —
//! while the heartbeat thread is free to write concurrently (frames are
//! atomic, see [`crate::framing`]).
//!
//! The plan travels as a [`PlanSpec`]: both sides build the experiment
//! matrix *independently* from it and compare
//! [`flowery_harness::matrix_fingerprint`]s during the handshake, so a
//! divergent build (different code, nondeterministic compile) is caught
//! before any lease is granted instead of surfacing as corrupt results.

use flowery_harness::{BatchRecord, HarnessConfig, MatrixSpec, UnitKey};
use flowery_workloads::Scale;
use serde::{Deserialize, Serialize};

/// Protocol revision; bumped on any wire-incompatible change.
///
/// v2 added scoped (region-level) leases for incremental `flowery diff`
/// campaigns: [`ServerMsg::ScopedLease`] / [`ClientMsg::ScopedCompleted`]
/// and out-of-tree plan sources. A v1 worker would silently run scoped
/// work unscoped, so the versions refuse to pair.
pub const PROTO_VERSION: u32 = 2;

/// A wire-portable experiment plan. Floats are avoided (levels travel in
/// permille) and the backend configuration is pinned to the default on
/// both sides, so two builds of the same code produce the same matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSpec {
    /// Workload names; empty means every benchmark.
    pub benches: Vec<String>,
    /// Input scale: `true` = [`Scale::Tiny`], `false` = [`Scale::Standard`].
    pub tiny: bool,
    /// Protection levels in permille (1000 = full).
    pub levels_permille: Vec<u32>,
    /// Trials for the per-instruction SDC profile behind selective
    /// protection (levels below 1000).
    pub profile_trials: u64,
    pub profile_seed: u64,
    /// Out-of-tree programs as `(name, MiniC source)`; both sides compile
    /// them exactly like workloads (see [`MatrixSpec::sources`]).
    #[serde(default)]
    pub sources: Vec<(String, String)>,
}

impl PlanSpec {
    /// Capture a [`MatrixSpec`]'s schedule-relevant parameters. The
    /// backend configuration and thread count are deliberately dropped:
    /// the wire plan pins the default backend, and threads never affect
    /// results.
    pub fn from_spec(spec: &MatrixSpec) -> PlanSpec {
        PlanSpec {
            benches: spec.benches.clone(),
            tiny: spec.scale == Scale::Tiny,
            levels_permille: spec.levels.iter().map(|&l| (l * 1000.0).round() as u32).collect(),
            profile_trials: spec.profile_trials,
            profile_seed: spec.profile_seed,
            sources: spec.sources.clone(),
        }
    }

    /// The [`MatrixSpec`] this plan describes. `threads` is the local
    /// parallelism to use while building (profiling campaigns), not part
    /// of the plan's identity.
    pub fn to_spec(&self, threads: usize) -> MatrixSpec {
        MatrixSpec {
            benches: self.benches.clone(),
            scale: if self.tiny { Scale::Tiny } else { Scale::Standard },
            levels: self.levels_permille.iter().map(|&p| p as f64 / 1000.0).collect(),
            profile_trials: self.profile_trials,
            profile_seed: self.profile_seed,
            sources: self.sources.clone(),
            threads,
            ..Default::default()
        }
    }
}

/// One changed region's re-run budget in an incremental (diff) campaign —
/// the harness's own [`flowery_harness::Scope`], which travels as is.
pub use flowery_harness::Scope as ScopeSpec;

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// First frame on every connection.
    Hello { proto_version: u32 },
    /// Sent after building the matrix from the [`ServerMsg::Welcome`]
    /// plan; the coordinator verifies both hashes before leasing.
    /// `models_hash` is [`flowery_faultmodel::registry_hash`]: builds
    /// whose fault-model/detector registries diverge would sample or
    /// classify trials differently, so they refuse to pair. Defaults to 0
    /// for pre-model workers, which never match a current coordinator.
    Ready {
        fingerprint: u64,
        #[serde(default)]
        models_hash: u64,
    },
    /// Ask for work. Answered by `Lease`, `Wait`, or `Shutdown`.
    LeaseRequest,
    /// One finished batch. `ff_insts`/`exec_insts` feed the coordinator's
    /// per-worker metrics; the record itself is merged idempotently.
    Completed { record: BatchRecord, ff_insts: u64, exec_insts: u64 },
    /// One finished batch of a scoped (region-level) lease. `scope` echoes
    /// the [`ServerMsg::ScopedLease`] task index; the record's `batch`
    /// names the fragment so the coordinator can fold fragments in batch
    /// order, bit-identically to a local `flowery diff` run.
    ScopedCompleted {
        scope: u32,
        record: BatchRecord,
        ff_insts: u64,
        exec_insts: u64,
    },
    /// Liveness signal, sent on a timer even mid-batch. Refreshes the
    /// worker's lease deadlines.
    Heartbeat,
    /// Clean disconnect; outstanding leases are requeued immediately.
    Goodbye,
}

/// Coordinator → worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Reply to `Hello`: identity, the plan to build, the schedule, and
    /// the heartbeat cadence this coordinator expects.
    Welcome {
        worker_id: u64,
        plan: PlanSpec,
        cfg: HarnessConfig,
        heartbeat_ms: u64,
    },
    /// A grant of work: run these batch indices of `unit`'s schedule.
    Lease { unit: UnitKey, batches: Vec<u64> },
    /// A grant of scoped work in an incremental (diff) campaign: run these
    /// batch indices of the region task `spec`, task index `scope`.
    /// `region_fingerprint` is [`flowery_harness::region_fingerprint`] of
    /// the coordinator's matrix — a worker whose build carves different
    /// regions would attribute trials to the wrong scope, so it must
    /// verify the hash before running the first scoped batch.
    ScopedLease {
        scope: u32,
        spec: ScopeSpec,
        batches: Vec<u64>,
        region_fingerprint: u64,
    },
    /// No work right now (all schedules leased out); ask again in `ms`.
    Wait { ms: u64 },
    /// The campaign is over (or draining); disconnect after this.
    Shutdown { reason: String },
    /// Handshake or protocol failure; the connection is closed after this.
    Error { msg: String },
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_harness::{Layer, Variant};
    use std::collections::HashMap;

    #[test]
    fn ready_without_models_hash_defaults_to_zero() {
        // A pre-model worker's Ready frame has no models_hash; it must
        // parse as 0, which never equals a real registry hash — so the
        // coordinator refuses the build divergence instead of crashing.
        let json = "{\"Ready\":{\"fingerprint\":7}}";
        let msg: ClientMsg = serde_json::from_str(json).unwrap();
        assert_eq!(msg, ClientMsg::Ready { fingerprint: 7, models_hash: 0 });
        assert_ne!(flowery_faultmodel::registry_hash(), 0);
    }

    #[test]
    fn plan_spec_roundtrips_through_matrix_spec() {
        let spec = MatrixSpec {
            benches: vec!["crc32".into(), "quicksort".into()],
            scale: Scale::Tiny,
            levels: vec![0.3, 0.7, 1.0],
            profile_trials: 600,
            profile_seed: 7,
            ..Default::default()
        };
        let plan = PlanSpec::from_spec(&spec);
        assert_eq!(plan.levels_permille, vec![300, 700, 1000]);
        let back = plan.to_spec(2);
        assert_eq!(back.benches, spec.benches);
        assert_eq!(back.scale, spec.scale);
        assert_eq!(back.levels, spec.levels);
        assert_eq!(back.profile_trials, spec.profile_trials);
        assert_eq!(back.threads, 2);
        // And the wire form itself is stable.
        let json = serde_json::to_string(&plan).unwrap();
        let wire: PlanSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(wire, plan);
    }

    #[test]
    fn messages_roundtrip_through_json() {
        let record = BatchRecord {
            unit: UnitKey::new("crc32", Variant::Id, 0.7, Layer::Asm),
            batch: 3,
            counts: Default::default(),
            sdc_by_inst: HashMap::new(),
            sdc_insts: vec![5, 9],
            fault_model: flowery_faultmodel::ModelSpec::MemCell,
            region_counts: Vec::new(),
            prune_table: 0x51a7_1c17,
            pruned: 12,
        };
        let msgs = vec![
            ClientMsg::Hello { proto_version: PROTO_VERSION },
            ClientMsg::Ready {
                fingerprint: u64::MAX,
                models_hash: flowery_faultmodel::registry_hash(),
            },
            ClientMsg::LeaseRequest,
            ClientMsg::Completed { record: record.clone(), ff_insts: 10, exec_insts: 20 },
            ClientMsg::ScopedCompleted { scope: 4, record, ff_insts: 10, exec_insts: 20 },
            ClientMsg::Heartbeat,
            ClientMsg::Goodbye,
        ];
        for m in msgs {
            let json = serde_json::to_string(&m).unwrap();
            let back: ClientMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(back, m, "{json}");
        }
        let msgs = vec![
            ServerMsg::Welcome {
                worker_id: 1,
                plan: PlanSpec {
                    benches: vec![],
                    tiny: false,
                    levels_permille: vec![1000],
                    profile_trials: 1200,
                    profile_seed: 3,
                    sources: vec![("probe".into(), "int main() { return 0; }".into())],
                },
                cfg: HarnessConfig::default(),
                heartbeat_ms: 2000,
            },
            ServerMsg::Lease {
                unit: UnitKey::new("crc32", Variant::Raw, 0.0, Layer::Ir),
                batches: vec![0, 1, 2],
            },
            ServerMsg::ScopedLease {
                scope: 4,
                spec: ScopeSpec {
                    unit: UnitKey::new("crc32", Variant::Id, 0.7, Layer::Asm),
                    region: "main".into(),
                    trials: 200,
                    seed: 0x5eed,
                    mass: 1234,
                },
                batches: vec![0, 1],
                region_fingerprint: 99,
            },
            ServerMsg::Wait { ms: 200 },
            ServerMsg::Shutdown { reason: "campaign complete".into() },
            ServerMsg::Error { msg: "fingerprint mismatch".into() },
        ];
        for m in msgs {
            let json = serde_json::to_string(&m).unwrap();
            let back: ServerMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(back, m, "{json}");
        }
    }
}
