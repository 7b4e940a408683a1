//! Service observability: request, cache, and solve accounting.

use crate::service::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// How many recent epochs the per-epoch solve history retains.
const EPOCH_HISTORY: usize = 64;

/// Cache-side accounting, owned by [`crate::cache::SelectionCache`] and
/// drained into [`ServiceStats`] snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Entries evicted because a delta touched their footprint (includes
    /// flush victims).
    pub delta_evictions: u64,
    /// Entries dropped to respect the capacity bound.
    pub capacity_evictions: u64,
    /// Entries carried forward across an epoch, summed per publication.
    pub carried_forward: u64,
    /// Solved answers dropped because a publication raced the solve.
    pub stale_inserts: u64,
    /// Wholesale flushes (structural change or untracked epoch jump).
    pub flushes: u64,
    /// Entries evicted because a ledger change (admit/release/move)
    /// touched their footprint.
    pub ledger_evictions: u64,
}

/// Monotonic service counters, updated lock-free on the request path.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub requests: AtomicU64,
    pub cache_hits: AtomicU64,
    pub solves: AtomicU64,
    pub shed: AtomicU64,
    pub refused: AtomicU64,
    pub degraded_answers: AtomicU64,
    pub epochs_published: AtomicU64,
    pub admits: AtomicU64,
    pub releases: AtomicU64,
    pub ledger_moves: AtomicU64,
    pub reconciles: AtomicU64,
    pub reconcile_repairs: AtomicU64,
    pub reconcile_releases: AtomicU64,
    /// `(epoch, solves attributed to it)` for the most recent epochs. A
    /// leaf lock: never held while acquiring another.
    pub per_epoch: Mutex<VecDeque<(u64, u64)>>,
}

impl StatsInner {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Relaxed);
    }

    /// Attributes one solve to `epoch` in the bounded history.
    pub fn record_solve(&self, epoch: u64) {
        self.solves.fetch_add(1, Relaxed);
        let mut per_epoch = lock(&self.per_epoch, "stats");
        match per_epoch.iter_mut().find(|(e, _)| *e == epoch) {
            Some((_, n)) => *n += 1,
            None => {
                if per_epoch.len() == EPOCH_HISTORY {
                    per_epoch.pop_front();
                }
                per_epoch.push_back((epoch, 1));
            }
        }
    }
}

/// A point-in-time snapshot of the service's counters.
///
/// Invariant (exact once the service is idle): `requests` =
/// `cache_hits` + `solves` + `shed` + `refused` (checkable via
/// [`ServiceStats::balanced`]). Every request ends in exactly one
/// bucket: answered from the cache, solved, shed (saturated solve gate
/// or deadline expiry), or refused by the degraded-mode policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests answered.
    pub requests: u64,
    /// Requests answered from the selection cache.
    pub cache_hits: u64,
    /// Fresh solves executed.
    pub solves: u64,
    /// Requests shed without an answer: a saturated solve gate
    /// (`ServiceError::Shed`), or a deadline that had expired on arrival
    /// or by the time the request held a gate slot
    /// (`ServiceError::DeadlineExceeded`).
    pub shed: u64,
    /// Requests refused by the degraded-mode policy (bandwidth-sensitive
    /// work past the hard staleness bound).
    pub refused: u64,
    /// Answers served but flagged `Stale` by the degraded-mode policy
    /// (these also count in their hit/solve bucket — the flag is
    /// orthogonal to how the answer was produced).
    pub degraded_answers: u64,
    /// Epochs published to the service.
    pub epochs_published: u64,
    /// Cache entries evicted by delta invalidation (incl. flushes).
    pub delta_evictions: u64,
    /// Cache entries evicted by the capacity bound.
    pub capacity_evictions: u64,
    /// Cache entries carried forward across epochs (sum over publications).
    pub carried_forward: u64,
    /// Solved answers dropped because a publication raced the solve.
    pub stale_inserts: u64,
    /// Wholesale cache flushes.
    pub flushes: u64,
    /// Cache entries evicted by ledger changes (admit/release/move).
    pub ledger_evictions: u64,
    /// Jobs admitted through the placement lifecycle.
    pub admits: u64,
    /// Jobs released.
    pub releases: u64,
    /// Supervised re-selections that moved a ledger entry.
    pub ledger_moves: u64,
    /// Reconciliation sweeps completed.
    pub reconciles: u64,
    /// Jobs moved to a new placement by a reconciliation sweep (subset
    /// of `ledger_moves`).
    pub reconcile_repairs: u64,
    /// Jobs released by a reconciliation sweep because their placement
    /// referenced entities absent from the current structure (subset of
    /// `releases`).
    pub reconcile_releases: u64,
    /// Jobs currently admitted (ledger residency).
    pub active_jobs: u64,
    /// Current ledger version (bumped per admit/release/move).
    pub ledger_version: u64,
    /// `(epoch, solves)` for the most recent epochs, oldest first.
    pub solves_per_epoch: Vec<(u64, u64)>,
}

impl ServiceStats {
    /// The request-accounting identity: `requests == cache_hits +
    /// solves + shed + refused`. Exact whenever the service is idle (no
    /// request mid-flight); the chaos study and the parity proptests
    /// assert it after every quiesced step.
    pub fn balanced(&self) -> bool {
        self.requests == self.cache_hits + self.solves + self.shed + self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_epoch_history_is_bounded() {
        let stats = StatsInner::default();
        for epoch in 0..(EPOCH_HISTORY as u64 + 10) {
            stats.record_solve(epoch);
            stats.record_solve(epoch);
        }
        let per_epoch = stats.per_epoch.lock().unwrap();
        assert_eq!(per_epoch.len(), EPOCH_HISTORY);
        assert!(per_epoch.iter().all(|&(_, n)| n == 2));
        assert_eq!(per_epoch.back().unwrap().0, EPOCH_HISTORY as u64 + 9);
        assert_eq!(stats.solves.load(Relaxed), 2 * (EPOCH_HISTORY as u64 + 10));
    }
}
