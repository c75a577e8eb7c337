//! The coordinator's lease table: which batches are out with which
//! worker, and when they are presumed lost.
//!
//! Time enters only as caller-supplied millisecond counts, so expiry is
//! unit-testable with a fake clock. A lease's deadline is refreshed by
//! *any* frame from its holder (heartbeats included), which makes the
//! deadline a liveness bound, not an execution-time bound: a slow batch on
//! a live worker never expires, while a dead worker's leases requeue
//! after `ttl_ms` even if its TCP connection lingers.
//!
//! Requeued batches are served before fresh cursor batches, so work lost
//! to a crash is retried promptly rather than after the whole schedule.

use std::collections::{HashMap, HashSet, VecDeque};

/// One leased batch: `(unit index, batch index)`.
pub type LeaseKey = (usize, u64);

#[derive(Debug, Clone)]
struct Holder {
    worker: u64,
    deadline_ms: u64,
}

/// Tracks the per-unit schedule cursor, outstanding leases, the requeue
/// backlog, and which workers have completed batches of which units
/// (unit affinity).
pub struct LeaseTable {
    /// Per-item batch count: item `i` schedules batches `0..limits[i]`.
    /// Uniform for campaign units; per-task for scoped diff work, where
    /// each changed region gets its own trial budget.
    limits: Vec<u64>,
    cursors: Vec<u64>,
    outstanding: HashMap<LeaseKey, Holder>,
    requeued: VecDeque<LeaseKey>,
    requeue_count: u64,
    /// unit index -> workers that have completed a batch of it. Workers
    /// are steered back to units they already hold golden runs and
    /// snapshot sets for, so a fleet converges to disjoint unit
    /// ownership instead of every worker capturing every unit.
    affinity: HashMap<usize, HashSet<u64>>,
}

impl LeaseTable {
    /// A table of items with their batch counts: the schedule length for
    /// every campaign unit; for scoped diff tasks, one item per changed
    /// region sized by its trial budget.
    pub fn with_limits(limits: Vec<u64>) -> LeaseTable {
        LeaseTable {
            cursors: vec![0; limits.len()],
            limits,
            outstanding: HashMap::new(),
            requeued: VecDeque::new(),
            requeue_count: 0,
            affinity: HashMap::new(),
        }
    }

    /// Claim up to `max` batches of one unit for `worker`. Requeued
    /// batches are preferred; otherwise cursor batches are supplied from
    /// the best-ranked unit `done` does not rule out, skipping any `have`
    /// already reports (e.g. replayed from a checkpoint). Units are
    /// ranked by affinity — ones this worker already completed batches
    /// of, then ones no worker has touched, then everyone else's — so
    /// workers keep reusing the golden runs and snapshot sets they
    /// already captured. Returns an empty vec when everything left is
    /// leased out or finished.
    pub fn claim(
        &mut self,
        worker: u64,
        now_ms: u64,
        ttl_ms: u64,
        max: usize,
        done: impl Fn(usize) -> bool,
        have: impl Fn(usize, u64) -> bool,
    ) -> Vec<LeaseKey> {
        let mut grant: Vec<LeaseKey> = Vec::new();
        // Drain the requeue backlog first (all grants must share a unit so
        // the worker builds one runner). The first pick honours affinity;
        // backlog position breaks ties.
        while grant.len() < max {
            let pos = match grant.first() {
                Some(&(gu, _)) => self.requeued.iter().position(|&(ui, b)| ui == gu && !done(ui) && !have(ui, b)),
                None => self
                    .requeued
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(ui, b))| !done(ui) && !have(ui, b))
                    .min_by_key(|&(i, &(ui, _))| (self.rank(worker, ui), i))
                    .map(|(i, _)| i),
            };
            let Some(i) = pos else {
                break;
            };
            let key = self.requeued.remove(i).unwrap();
            grant.push(key);
        }
        // Also drop requeued entries that became moot (unit decided or
        // batch satisfied elsewhere) so the backlog cannot grow stale.
        self.requeued.retain(|&(ui, b)| !done(ui) && !have(ui, b));
        if grant.is_empty() {
            let mut order: Vec<usize> = (0..self.cursors.len()).collect();
            order.sort_by_key(|&ui| self.rank(worker, ui)); // stable: index order within ranks
            'units: for ui in order {
                if done(ui) {
                    continue;
                }
                while grant.len() < max {
                    let b = self.cursors[ui];
                    if b >= self.limits[ui] {
                        if grant.is_empty() {
                            continue 'units;
                        }
                        break 'units;
                    }
                    self.cursors[ui] += 1;
                    if have(ui, b) {
                        continue;
                    }
                    grant.push((ui, b));
                }
                break;
            }
        }
        for &key in &grant {
            self.outstanding.insert(key, Holder { worker, deadline_ms: now_ms + ttl_ms });
        }
        grant
    }

    /// A result arrived for this batch from `worker` (who may not hold
    /// the lease — an expired lease's batch can be reported by its
    /// original worker). Completing a batch records unit affinity: the
    /// worker has this unit's golden run and snapshot set warm, so
    /// future [`LeaseTable::claim`]s steer it back to the same unit.
    pub fn complete(&mut self, key: LeaseKey, worker: u64) {
        self.outstanding.remove(&key);
        self.affinity.entry(key.0).or_default().insert(worker);
    }

    /// Affinity rank of `ui` for `worker`: 0 = a unit it completed a
    /// batch of, 1 = a unit nobody has completed or leased, 2 = a unit
    /// some other worker is invested in. Outstanding leases count as
    /// investment so two workers starting simultaneously split the units
    /// instead of racing the same cursor.
    fn rank(&self, worker: u64, ui: usize) -> u8 {
        if self.affinity.get(&ui).is_some_and(|ws| ws.contains(&worker)) {
            return 0;
        }
        let others = self.affinity.get(&ui).is_some_and(|ws| !ws.is_empty())
            || self.outstanding.iter().any(|(&(u, _), h)| u == ui && h.worker != worker);
        if others {
            2
        } else {
            1
        }
    }

    /// Push every lease past its deadline back onto the requeue backlog.
    /// Returns how many expired.
    pub fn expire(&mut self, now_ms: u64) -> usize {
        self.requeue_where(|h| h.deadline_ms <= now_ms)
    }

    /// Requeue every lease held by `worker` (its connection died).
    pub fn release_worker(&mut self, worker: u64) -> usize {
        self.requeue_where(|h| h.worker == worker)
    }

    /// Move every outstanding lease whose holder `lost` picks to the
    /// backlog, keeping it sorted: `outstanding` iterates in hash order,
    /// so requeue bursts would otherwise land unordered.
    fn requeue_where(&mut self, lost: impl Fn(&Holder) -> bool) -> usize {
        let keys: Vec<LeaseKey> = self.outstanding.iter().filter(|(_, h)| lost(h)).map(|(&k, _)| k).collect();
        for key in &keys {
            self.outstanding.remove(key);
            self.requeued.push_back(*key);
        }
        self.requeue_count += keys.len() as u64;
        self.requeued.make_contiguous().sort_unstable();
        keys.len()
    }

    /// Refresh the deadlines of every lease `worker` holds — called on any
    /// frame from it.
    pub fn touch(&mut self, worker: u64, now_ms: u64, ttl_ms: u64) {
        for h in self.outstanding.values_mut() {
            if h.worker == worker {
                h.deadline_ms = now_ms + ttl_ms;
            }
        }
    }

    pub fn outstanding(&self) -> u64 {
        self.outstanding.len() as u64
    }

    /// Total batches ever requeued (expiry + worker death).
    pub fn requeues(&self) -> u64 {
        self.requeue_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER_DONE: fn(usize) -> bool = |_| false;
    const HAVE_NONE: fn(usize, u64) -> bool = |_, _| false;

    #[test]
    fn claims_are_batched_per_unit_and_skip_existing() {
        let mut t = LeaseTable::with_limits(vec![4; 2]);
        let have = |ui: usize, b: u64| ui == 0 && b == 1; // batch (0,1) replayed from a checkpoint
        let g = t.claim(1, 0, 1000, 3, NEVER_DONE, have);
        assert_eq!(g, vec![(0, 0), (0, 2), (0, 3)], "same unit, checkpointed batch skipped");
        let g = t.claim(2, 0, 1000, 3, NEVER_DONE, have);
        assert_eq!(g, vec![(1, 0), (1, 1), (1, 2)], "next worker moves to the next unit");
        assert_eq!(t.outstanding(), 6);
    }

    #[test]
    fn per_item_limits_bound_each_cursor() {
        let mut t = LeaseTable::with_limits(vec![1, 3]);
        let g = t.claim(1, 0, 1000, 4, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(0, 0)], "item 0 offers exactly its one batch");
        let g = t.claim(2, 0, 1000, 4, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(1, 0), (1, 1), (1, 2)], "item 1 offers three");
        for (k, w) in [((0, 0), 1u64), ((1, 0), 2), ((1, 1), 2), ((1, 2), 2)] {
            t.complete(k, w);
        }
        assert_eq!(t.outstanding(), 0);
        assert!(t.claim(3, 0, 1000, 4, NEVER_DONE, HAVE_NONE).is_empty(), "every cursor is spent");
    }

    #[test]
    fn expiry_requeues_and_requeues_are_served_first() {
        let mut t = LeaseTable::with_limits(vec![4; 1]);
        let g = t.claim(1, 0, 1000, 2, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(0, 0), (0, 1)]);
        // Deadline passes with no sign of life from worker 1.
        assert_eq!(t.expire(999), 0, "not yet");
        assert_eq!(t.expire(1000), 2, "deadline is inclusive");
        assert_eq!(t.requeues(), 2);
        assert_eq!(t.outstanding(), 0);
        // Worker 2 gets the lost batches before fresh cursor work.
        let g = t.claim(2, 1000, 1000, 4, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(0, 0), (0, 1)], "requeued work first, in batch order");
        let g = t.claim(2, 1000, 1000, 4, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(0, 2), (0, 3)], "then the cursor resumes");
    }

    #[test]
    fn touch_defers_expiry_for_live_workers() {
        let mut t = LeaseTable::with_limits(vec![2; 1]);
        t.claim(1, 0, 1000, 2, NEVER_DONE, HAVE_NONE);
        t.touch(1, 900, 1000); // heartbeat at t=900 pushes deadlines to 1900
        assert_eq!(t.expire(1500), 0, "heartbeat kept the lease alive");
        assert_eq!(t.expire(1900), 2);
    }

    #[test]
    fn worker_death_releases_only_its_leases() {
        let mut t = LeaseTable::with_limits(vec![2; 2]);
        let g1 = t.claim(1, 0, 1000, 2, NEVER_DONE, HAVE_NONE);
        let g2 = t.claim(2, 0, 1000, 2, NEVER_DONE, HAVE_NONE);
        assert_eq!(g1, vec![(0, 0), (0, 1)]);
        assert_eq!(g2, vec![(1, 0), (1, 1)]);
        assert_eq!(t.release_worker(1), 2);
        assert_eq!(t.outstanding(), 2, "worker 2's leases are untouched");
        let g = t.claim(2, 0, 1000, 2, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(0, 0), (0, 1)], "worker 2 picks up the dead worker's unit");
    }

    #[test]
    fn workers_converge_to_disjoint_unit_ownership() {
        let mut t = LeaseTable::with_limits(vec![4; 2]);
        let mut owned: [HashSet<usize>; 2] = [HashSet::new(), HashSet::new()];
        // Two workers alternate single-batch claims on a fake clock,
        // completing each batch before the next tick. Affinity should
        // give each worker its own unit from the very first round.
        let mut now = 0;
        loop {
            let mut progressed = false;
            for w in 1..=2u64 {
                for &(ui, b) in &t.claim(w, now, 1000, 1, NEVER_DONE, HAVE_NONE) {
                    owned[w as usize - 1].insert(ui);
                    t.complete((ui, b), w);
                    progressed = true;
                }
                now += 10;
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(t.outstanding(), 0, "all batches were granted and completed");
        assert_eq!(owned[0], HashSet::from([0]), "worker 1 kept the unit it started");
        assert_eq!(owned[1], HashSet::from([1]), "worker 2 settled on the other unit");
    }

    #[test]
    fn requeued_work_prefers_the_unit_the_worker_completed() {
        let mut t = LeaseTable::with_limits(vec![2; 2]);
        // Workers 3 and 4 lease everything, then die after worker 3's
        // batch (1,0) was reported by worker 1 (checkpoint replay path).
        assert_eq!(t.claim(3, 0, 100, 2, NEVER_DONE, HAVE_NONE), vec![(0, 0), (0, 1)]);
        assert_eq!(t.claim(4, 0, 100, 2, NEVER_DONE, HAVE_NONE), vec![(1, 0), (1, 1)]);
        t.complete((1, 0), 1);
        assert_eq!(t.expire(100), 3);
        // The sorted backlog holds (0,0),(0,1) ahead of (1,1), but worker
        // 1's affinity to unit 1 wins the first pick.
        let g = t.claim(1, 100, 1000, 2, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(1, 1)], "affinity picks the requeued batch of worker 1's unit");
        // The rest of the backlog is still served next, oldest unit first.
        let g = t.claim(1, 100, 1000, 2, NEVER_DONE, HAVE_NONE);
        assert_eq!(g, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn moot_requeues_are_dropped() {
        let mut t = LeaseTable::with_limits(vec![2; 1]);
        t.claim(1, 0, 1000, 2, NEVER_DONE, HAVE_NONE);
        t.release_worker(1);
        assert_eq!((t.outstanding(), t.requeues()), (0, 2), "the lost lease sits in the backlog");
        // The unit decided while the batches sat in the backlog.
        let done = |_ui: usize| true;
        assert!(t.claim(2, 0, 1000, 2, done, HAVE_NONE).is_empty());
        assert!(t.claim(2, 0, 1000, 2, NEVER_DONE, HAVE_NONE).is_empty(), "and the backlog forgot them");
    }
}
