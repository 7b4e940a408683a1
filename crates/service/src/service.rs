//! The placement server: epoch publication in, placements out.
//!
//! One [`PlacementService`] owns a [`PlacementLedger`] of admitted jobs
//! together with the published raw snapshot and the residual snapshot
//! derived from the two (one mutex), and a delta-invalidated
//! [`SelectionCache`] (another). It starts no thread: every request is
//! answered on the thread that calls it, so the callers' own threads are
//! the parallelism, bounded by the solve gate. A request travels one
//! path:
//!
//! 1. **canonicalize** — [`CanonicalRequest`] normalizes the spec so
//!    identically-shaped requests share one cache slot;
//! 2. **pin** — one short ledger lock captures the view
//!    `(residual snapshot, raw epoch, ledger version, data age inputs)`;
//!    the answer is then *for that pin*, whatever is published or
//!    admitted next;
//! 3. **cache** — a hit returns the `(epoch, version)` pair's cached
//!    bits;
//! 4. **gate** — a miss takes a slot of the solve gate
//!    ([`ServiceConfig::max_inflight_solves`]), blocking or shedding per
//!    [`GetOptions::block_when_full`], and re-checks its deadline once
//!    it holds the slot;
//! 5. **solve** — on the calling thread, against the pinned residual
//!    snapshot; answer and footprint go to the cache.
//!
//! Two callers that miss on the same spec at the same pin both solve and
//! both insert the same bits; nothing merges them.
//!
//! # Overload and degraded operation
//!
//! The service carries a **monotone clock** (a lock-free f64 watermark,
//! advanced by every time-bearing call — [`PlacementService::get_with`]
//! with [`GetOptions::now`], [`PlacementService::publish_at`],
//! [`PlacementService::heartbeat`], [`PlacementService::reconcile`]).
//! Against it:
//!
//! * **Deadlines & shedding** — [`PlacementService::get_with`] accepts an
//!   optional absolute deadline. An already-expired request is shed at
//!   the door, and a request whose deadline passed while it waited for a
//!   gate slot is shed before it solves (both
//!   [`ServiceError::DeadlineExceeded`]); a saturated gate sheds instead
//!   of blocking when [`GetOptions::block_when_full`] is off
//!   ([`ServiceError::Shed`]). Everything lands in [`ServiceStats`]:
//!   `requests == cache_hits + solves + shed + refused`.
//! * **Degraded serving** — the service tracks when it last *heard from*
//!   the collector (any publication or [`PlacementService::heartbeat`])
//!   and the published snapshot's confidence
//!   ([`nodesel_topology::NetMetrics::min_confidence`]). Under a
//!   [`DegradePolicy`], answers past the soft staleness bound are served
//!   but flagged ([`PlacementQuality::Stale`]); past the hard bound,
//!   bandwidth-sensitive requests are refused
//!   ([`PlacementQuality::Refused`], carrying
//!   [`SelectError::DataTooStale`]) while CPU-only requests are still
//!   served — degradation is always *flagged*, never a silent lie. The
//!   flag never changes the answer's bits: a `Stale` answer is still
//!   bit-identical to a fresh solve on its pinned `(epoch, version)`.
//! * **Reconciliation** — [`PlacementService::reconcile`] sweeps the
//!   whole ledger against the latest snapshot's availability flags:
//!   claims on vanished entities are released, failed placements are
//!   re-selected through the per-job [`Supervisor`] (failures move
//!   immediately, quality moves respect hysteresis and exponential
//!   backoff), one ledger version bump per repaired job.
//!
//! # The placement lifecycle
//!
//! `get` answers and forgets: nothing is reserved, and K concurrent
//! callers with the same spec receive the same nodes. The lifecycle path
//! makes the service multi-job aware:
//!
//! * [`PlacementService::admit`] solves on the **residual** network (raw
//!   measurements plus every admitted claim), records the placement in
//!   the ledger with a [`ResourceDemand`]-derived claim, and bumps the
//!   ledger version;
//! * [`PlacementService::release`] un-charges the claim;
//! * [`PlacementService::supervise`] runs the failure-aware
//!   [`Supervisor`] for one admitted job against the residual network
//!   *excluding the job's own claim* (so its reservation cannot repel
//!   its re-placement) and, when re-selection is advised, moves the
//!   ledger entry atomically — one version bump swaps old claim for new,
//!   so no interleaved admission can observe the job double-counted or
//!   vanished.
//!
//! Ledger changes invalidate cached answers by the same
//! footprint-intersection machinery as measurement deltas: the changed
//! claim's touched entities are intersected with every entry's recorded
//! footprint (see [`SelectionCache::advance_ledger`]).
//!
//! With an **empty ledger** the residual snapshot *is* the raw snapshot
//! (the same `Arc`, pointer-identical), so every answer is bit-identical
//! to the oblivious path — proptest-guarded in `tests/cache_parity.rs`.
//!
//! # Locking
//!
//! Lock order is `ledger → cache`: a thread may take the cache lock
//! while holding the ledger lock, never the reverse. The solve gate's
//! mutex and the per-epoch solve history (`stats.per_epoch`) are leaves:
//! held only momentarily, never while acquiring another lock. Debug
//! builds enforce the order — the cache guard raises a thread-local
//! flag that [`PlacementService::lock_ledger`] asserts is down. No lock
//! is held across a `get` solve; `admit` and `supervise` hold the ledger
//! lock across theirs, which is what serializes admissions. The service
//! clock is a lock-free atomic. Mutex poisoning is deliberately
//! escalated ([`lock`]): a thread that panicked while mutating shared
//! state has voided the bit-identical answer contract, and no caller
//! input can reach those panics — caller-reachable failures on the
//! lifecycle and overload paths are typed [`ServiceError`]s instead.

use crate::cache::SelectionCache;
use crate::error::ServiceError;
use crate::ledger::{JobId, PlacementLedger, ResourceDemand};
use crate::stats::{ServiceStats, StatsInner};
use nodesel_core::migration::OwnUsage;
use nodesel_core::{
    selector_for, CanonicalRequest, SelectError, Selection, SelectionFootprint, SelectionRequest,
    Supervisor, SupervisorCheck, SupervisorPolicy, SupervisorVerdict,
};
use nodesel_topology::{NetDelta, NetMetrics, NetSnapshot};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Tuning knobs for a [`PlacementService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Selection-cache entry bound (LRU beyond it; `0` disables caching).
    pub cache_capacity: usize,
    /// Re-selection policy applied by [`PlacementService::supervise`]
    /// (hysteresis, backoff, staleness cap).
    pub supervisor: SupervisorPolicy,
    /// Bound on concurrently *executing* `get` solves across all caller
    /// threads (a counting admission gate). `0` disables the gate. When
    /// the gate is saturated, a request with
    /// [`GetOptions::block_when_full`] off is shed; one with it on waits
    /// for a slot.
    pub max_inflight_solves: usize,
    /// Degraded-mode serving policy (staleness and confidence bounds).
    /// The default disables every bound: all answers are
    /// [`PlacementQuality::Fresh`] and nothing is refused.
    pub degrade: DegradePolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 65536,
            supervisor: SupervisorPolicy::default(),
            max_inflight_solves: 0,
            degrade: DegradePolicy::default(),
        }
    }
}

/// Staleness and confidence bounds for degraded-mode serving.
///
/// `age` below is the **data age**: seconds of service-clock time since
/// the collector was last heard from — any publication
/// ([`PlacementService::publish_at`] / [`PlacementService::ingest_at`])
/// or [`PlacementService::heartbeat`]. A quiet-but-alive network (no new
/// epoch to publish, heartbeats flowing) therefore stays `Fresh`; only a
/// collector that has gone silent ages the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Data age beyond which answers are still served but flagged
    /// [`PlacementQuality::Stale`].
    pub soft_staleness: f64,
    /// Data age beyond which bandwidth-sensitive requests are refused
    /// ([`PlacementQuality::Refused`]); CPU-only requests are still
    /// served, flagged `Stale`.
    pub hard_staleness: f64,
    /// Published-snapshot confidence floor
    /// ([`nodesel_topology::NetMetrics::min_confidence`]); below it
    /// answers are flagged `Stale`.
    pub min_confidence: f64,
}

impl Default for DegradePolicy {
    /// Every bound disabled: infinite staleness tolerance, zero
    /// confidence floor — all answers `Fresh`, nothing refused.
    fn default() -> Self {
        DegradePolicy {
            soft_staleness: f64::INFINITY,
            hard_staleness: f64::INFINITY,
            min_confidence: 0.0,
        }
    }
}

impl DegradePolicy {
    /// Classifies an answer produced at data age `age` with published
    /// confidence `confidence`, for a request of the given bandwidth
    /// sensitivity. Public so external harnesses (the chaos study, the
    /// parity proptests) can recompute the expected quality from their
    /// own tracked age/confidence and hold the service to it.
    pub fn classify(
        &self,
        age: f64,
        confidence: f64,
        bandwidth_sensitive: bool,
    ) -> PlacementQuality {
        if age > self.hard_staleness && bandwidth_sensitive {
            PlacementQuality::Refused { age }
        } else if age > self.soft_staleness || confidence < self.min_confidence {
            PlacementQuality::Stale { age }
        } else {
            PlacementQuality::Fresh
        }
    }
}

/// How trustworthy a service answer is, per the [`DegradePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementQuality {
    /// Within every bound: the measurements behind the answer are
    /// current by the service's own policy.
    Fresh,
    /// Served, but the data behind it is past the soft staleness bound
    /// or below the confidence floor. The bits are still exactly a fresh
    /// solve on the pinned `(epoch, version)` — the flag marks the *pin*
    /// as aged, never the answer as approximate.
    Stale {
        /// Seconds since the service last heard from the collector.
        age: f64,
    },
    /// Refused: the data is past the hard staleness bound and the
    /// request is bandwidth-sensitive. The placement's `result` carries
    /// [`SelectError::DataTooStale`]; no selection was attempted.
    Refused {
        /// Seconds since the service last heard from the collector.
        age: f64,
    },
}

impl PlacementQuality {
    /// `true` unless the answer was refused outright.
    pub fn served(&self) -> bool {
        !matches!(self, PlacementQuality::Refused { .. })
    }

    /// `true` for [`PlacementQuality::Fresh`].
    pub fn is_fresh(&self) -> bool {
        matches!(self, PlacementQuality::Fresh)
    }
}

/// Per-request options for [`PlacementService::get_with`].
///
/// The default (`None` clock, no deadline, shed when full) is the
/// *load-shedding* configuration; [`PlacementService::get`] uses the
/// blocking no-deadline configuration, which cannot fail.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GetOptions {
    /// The caller's clock in service-clock seconds; advances the
    /// service's monotone clock. `None` reads the clock without
    /// advancing it.
    pub now: Option<f64>,
    /// Absolute deadline on the service clock. A request whose deadline
    /// has passed (`deadline <= now`) is shed — at submission, or once
    /// it holds a solve-gate slot if the wait outlasted the deadline.
    pub deadline: Option<f64>,
    /// When the solve gate is saturated: `true` blocks until a slot
    /// frees up, `false` sheds with [`ServiceError::Shed`].
    pub block_when_full: bool,
}

impl GetOptions {
    /// Blocking, no deadline — the infallible configuration
    /// [`PlacementService::get`] uses.
    fn blocking() -> Self {
        GetOptions {
            block_when_full: true,
            ..GetOptions::default()
        }
    }
}

/// What one [`PlacementService::reconcile`] sweep did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconcileReport {
    /// Jobs examined (ledger residency at sweep start).
    pub examined: usize,
    /// Jobs found healthy (no move advised).
    pub healthy: usize,
    /// Jobs with a pending quality move held back by hysteresis or
    /// backoff.
    pub held: usize,
    /// Jobs moved to a new placement (one ledger version bump each).
    pub repaired: Vec<JobId>,
    /// Jobs released because their placement referenced entities absent
    /// from the current structure.
    pub released: Vec<JobId>,
    /// Jobs whose supervision failed, with the error; the ledger entry
    /// is unchanged and a later sweep may recover it.
    pub deferred: Vec<(JobId, ServiceError)>,
}

/// A lock-free monotone service clock: an `f64` watermark stored as
/// bits.
///
/// For non-negative finite `f64` values the IEEE-754 bit patterns order
/// exactly like the values, so `fetch_max` on the bits is `fetch_max` on
/// the instants. Non-finite or negative instants are ignored, so the
/// clock never runs backwards and never turns NaN — the service-side
/// twin of the [`Supervisor`]'s per-job monotone clamp.
struct Clock(AtomicU64);

impl Clock {
    fn new() -> Self {
        Clock(AtomicU64::new(0f64.to_bits()))
    }

    /// The current watermark.
    fn now(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }

    /// Advances the watermark to `to` if later; returns the clamped
    /// (possibly unchanged) current time.
    fn advance(&self, to: f64) -> f64 {
        if to.is_finite() && to > 0.0 {
            let prev = f64::from_bits(self.0.fetch_max(to.to_bits(), Relaxed));
            prev.max(to)
        } else {
            self.now()
        }
    }
}

/// A counting gate bounding concurrently *executing* `get` solves
/// ([`ServiceConfig::max_inflight_solves`]; `0` disables it). Its mutex
/// is a leaf: never held across a solve or while acquiring any other
/// lock.
struct Gate {
    free: Mutex<usize>,
    cv: Condvar,
    enabled: bool,
}

/// One held gate slot, given back on drop — so an early return or an
/// unwinding solve cannot leak it.
struct GateSlot<'a>(&'a Gate);

impl Drop for GateSlot<'_> {
    fn drop(&mut self) {
        let gate = self.0;
        if gate.enabled {
            // Not `lock()`: that panics on poison, and this can run
            // while a solve unwinds. The count stays valid at every
            // step, so a poisoned guard is safe to recover.
            *gate.free.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            gate.cv.notify_one();
        }
    }
}

impl Gate {
    fn new(max: usize) -> Self {
        Gate {
            free: Mutex::new(max),
            cv: Condvar::new(),
            enabled: max > 0,
        }
    }

    /// Takes a slot without blocking; `None` when saturated.
    fn try_acquire(&self) -> Option<GateSlot<'_>> {
        if self.enabled {
            let mut free = lock(&self.free, "gate");
            if *free == 0 {
                return None;
            }
            *free -= 1;
        }
        Some(GateSlot(self))
    }

    /// Takes a slot, blocking until one frees up.
    fn acquire(&self) -> GateSlot<'_> {
        if self.enabled {
            let mut free = lock(&self.free, "gate");
            while *free == 0 {
                free = self
                    .cv
                    .wait(free)
                    .unwrap_or_else(|_| panic!("gate lock poisoned by a panicked thread"));
            }
            *free -= 1;
        }
        GateSlot(self)
    }
}

/// A service answer: the result plus the pins it is valid for and its
/// degraded-mode classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Epoch of the raw snapshot the answer was solved (or cached)
    /// against — through the residual view of the ledger version current
    /// at pin time.
    pub epoch: u64,
    /// Ledger version of the pin (the other half of the cache key the
    /// answer is bit-reproducible against).
    pub ledger_version: u64,
    /// Degraded-mode classification (always [`PlacementQuality::Fresh`]
    /// under the default [`DegradePolicy`]). A `Refused` quality carries
    /// `Err(`[`SelectError::DataTooStale`]`)` in `result`.
    pub quality: PlacementQuality,
    /// The selection, bit-identical to a fresh solve on that epoch's
    /// residual network.
    pub result: Result<Selection, SelectError>,
}

/// A successful admission: the job's ledger handle plus the placement it
/// received.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// Handle for `release`/`supervise`.
    pub job: JobId,
    /// Raw-snapshot epoch the placement was solved against.
    pub epoch: u64,
    /// Degraded-mode classification of the data the admission was
    /// decided on (never `Refused` — a refused admission is the typed
    /// error [`ServiceError::DegradedRefusal`] instead).
    pub quality: PlacementQuality,
    /// The granted placement.
    pub selection: Selection,
}

/// Acquires `m`, escalating poisoning to a panic.
///
/// Every mutex in this crate guards state whose consistency the
/// bit-identical answer contract depends on (the cache map, the ledger
/// aggregates). A poisoned lock means a thread panicked
/// mid-mutation; recovering would let the service keep answering from
/// state it cannot vouch for, so the panic is propagated. This is an
/// invariant assert, not a caller-reachable error: no request or
/// lifecycle input can poison these locks (caller-reachable failures are
/// typed [`ServiceError`]s before any lock is taken).
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>, what: &'static str) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(_) => panic!("{what} lock poisoned by a panicked thread"),
    }
}

thread_local! {
    /// Raised while this thread holds a [`CacheGuard`]: the witness the
    /// lock-order assertion in [`PlacementService::lock_ledger`] reads.
    static CACHE_HELD: Cell<bool> = const { Cell::new(false) };
}

/// The cache lock, marking its holder in debug builds.
struct CacheGuard<'a>(MutexGuard<'a, SelectionCache>);

impl Deref for CacheGuard<'_> {
    type Target = SelectionCache;
    fn deref(&self) -> &SelectionCache {
        &self.0
    }
}

impl DerefMut for CacheGuard<'_> {
    fn deref_mut(&mut self) -> &mut SelectionCache {
        &mut self.0
    }
}

impl Drop for CacheGuard<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            CACHE_HELD.set(false);
        }
    }
}

/// The ledger, the published raw snapshot, and the residual snapshot
/// derived from the two — everything a request pins, under one lock.
///
/// `residual` is the raw snapshot with every admitted claim applied —
/// or, when the ledger is invisible (no claims, or only zero-magnitude
/// ones), **the raw `Arc` itself**: pointer identity is the cheap proof
/// that an empty ledger changes no answer bits.
struct LedgerCell {
    ledger: PlacementLedger,
    /// The currently published snapshot (the only copy the service
    /// keeps; also the baseline [`PlacementService::ingest`] diffs
    /// against).
    raw: Arc<NetSnapshot>,
    residual: Arc<NetSnapshot>,
    /// Service-clock instant the collector was last heard from (any
    /// publication or heartbeat).
    last_heard: f64,
    /// `raw`'s [`NetMetrics::min_confidence`] at publication time
    /// (computed outside the lock).
    confidence: f64,
}

impl LedgerCell {
    /// Re-derives `residual` from `raw` and the current claims.
    fn refresh_residual(&mut self) {
        self.residual = if self.ledger.state().is_invisible() {
            Arc::clone(&self.raw)
        } else {
            Arc::new(self.raw.apply(&self.ledger.state().to_delta(&self.raw)))
        };
    }
}

/// The answering context, captured atomically under one short ledger
/// lock. Everything downstream (cache key, solve input, reported epoch,
/// degraded-mode classification) derives from it.
struct Pin {
    snap: Arc<NetSnapshot>,
    epoch: u64,
    version: u64,
    last_heard: f64,
    confidence: f64,
}

/// A concurrent placement server over a published snapshot stream.
///
/// Created with [`PlacementService::new`]; the collector side feeds it
/// via [`PlacementService::publish`] (or [`PlacementService::ingest`]),
/// request threads call [`PlacementService::get`] freely from any number
/// of threads (share it by reference or in an `Arc`), and job owners
/// drive [`PlacementService::admit`] / [`PlacementService::release`] /
/// [`PlacementService::supervise`]. The service owns no thread.
pub struct PlacementService {
    ledger: Mutex<LedgerCell>,
    cache: Mutex<SelectionCache>,
    stats: StatsInner,
    /// The monotone service clock (lock-free watermark).
    clock: Clock,
    /// The in-flight solve gate.
    gate: Gate,
    config: ServiceConfig,
}

impl PlacementService {
    /// A service answering against `initial` until the first publication.
    pub fn new(initial: Arc<NetSnapshot>, config: ServiceConfig) -> Self {
        PlacementService {
            cache: Mutex::new(SelectionCache::new(initial.epoch(), config.cache_capacity)),
            ledger: Mutex::new(LedgerCell {
                ledger: PlacementLedger::new(),
                residual: Arc::clone(&initial),
                last_heard: 0.0,
                confidence: initial.min_confidence(),
                raw: initial,
            }),
            stats: StatsInner::default(),
            clock: Clock::new(),
            gate: Gate::new(config.max_inflight_solves),
            config,
        }
    }

    /// The ledger lock — first in the lock order (see the module docs).
    fn lock_ledger(&self) -> MutexGuard<'_, LedgerCell> {
        debug_assert!(
            !CACHE_HELD.get(),
            "lock order violated: ledger lock taken while holding the cache lock"
        );
        lock(&self.ledger, "ledger")
    }

    /// The cache lock — second in the lock order.
    fn lock_cache(&self) -> CacheGuard<'_> {
        let guard = lock(&self.cache, "cache");
        if cfg!(debug_assertions) {
            CACHE_HELD.set(true);
        }
        CacheGuard(guard)
    }

    fn pin(&self) -> Pin {
        let cell = self.lock_ledger();
        Pin {
            snap: Arc::clone(&cell.residual),
            epoch: cell.raw.epoch(),
            version: cell.ledger.version(),
            last_heard: cell.last_heard,
            confidence: cell.confidence,
        }
    }

    /// Sheds a request whose `deadline` has passed at `now`.
    fn check_deadline(&self, deadline: Option<f64>, now: f64) -> Result<(), ServiceError> {
        match deadline {
            Some(deadline) if deadline <= now => {
                StatsInner::bump(&self.stats.shed);
                Err(ServiceError::DeadlineExceeded { deadline, now })
            }
            _ => Ok(()),
        }
    }

    /// Publishes a new epoch. `delta` must describe every annotation
    /// change since the previously published snapshot; entries whose
    /// footprint it misses survive with stale bits. `None` (or a
    /// structure change, detected here) flushes the cache wholesale.
    /// The residual snapshot is re-derived against the new epoch; a
    /// structural change additionally re-derives every ledger claim
    /// along the new structure's routes ([`PlacementLedger`] rebind).
    /// The publication contends only with request threads' short
    /// ledger/cache accesses, never with a `get` solve.
    pub fn publish(&self, snap: Arc<NetSnapshot>, delta: Option<&NetDelta>) {
        let now = self.clock.now();
        self.publish_inner(snap, delta, now);
    }

    /// [`PlacementService::publish`] with the collector's clock attached:
    /// advances the monotone service clock to `now` and resets the data
    /// age the [`DegradePolicy`] measures. The chaos-facing publication
    /// entry point.
    pub fn publish_at(&self, snap: Arc<NetSnapshot>, delta: Option<&NetDelta>, now: f64) {
        let now = self.clock.advance(now);
        self.publish_inner(snap, delta, now);
    }

    fn publish_inner(&self, snap: Arc<NetSnapshot>, delta: Option<&NetDelta>, heard_at: f64) {
        // Confidence is a full scan of the snapshot's entities — do it
        // before taking any lock.
        let confidence = snap.min_confidence();
        let epoch = snap.epoch();
        let mut cell = self.lock_ledger();
        let structure_changed = !snap.same_structure(&cell.raw);
        let delta = if structure_changed { None } else { delta };
        // Kept past the unlock so a last reference is not freed under it.
        let retired = std::mem::replace(&mut cell.raw, snap);
        cell.last_heard = heard_at;
        cell.confidence = confidence;
        if structure_changed && !cell.ledger.is_empty() {
            let LedgerCell { ledger, raw, .. } = &mut *cell;
            ledger.rebind(raw.structure());
        }
        cell.refresh_residual();
        let ledger_version = cell.ledger.version();
        let mut cache = self.lock_cache();
        cache.advance(epoch, delta);
        if cache.ledger_version() != ledger_version {
            // A structural rebind bumped the version; the flush above
            // already emptied the map, so this only moves the pin.
            cache.advance_ledger(ledger_version, Some(&NetDelta::default()));
        }
        drop(cache);
        drop(cell);
        drop(retired);
        StatsInner::bump(&self.stats.epochs_published);
    }

    /// Diffs `snap` against the last published snapshot and publishes it
    /// with the exact delta (a structure change publishes with a flush).
    /// The convenience hook for a collector pump that only has
    /// snapshots in hand. Returns the published epoch.
    pub fn ingest(&self, snap: NetSnapshot) -> u64 {
        let now = self.clock.now();
        self.ingest_inner(snap, now)
    }

    /// [`PlacementService::ingest`] with the collector's clock attached
    /// (see [`PlacementService::publish_at`]).
    pub fn ingest_at(&self, snap: NetSnapshot, now: f64) -> u64 {
        let now = self.clock.advance(now);
        self.ingest_inner(snap, now)
    }

    fn ingest_inner(&self, snap: NetSnapshot, heard_at: f64) -> u64 {
        let snap = Arc::new(snap);
        let epoch = snap.epoch();
        let last = self.snapshot();
        if snap.same_structure(&last) {
            let delta = snap.diff(&last);
            self.publish_inner(snap, Some(&delta), heard_at);
        } else {
            self.publish_inner(snap, None, heard_at);
        }
        epoch
    }

    /// Marks the collector alive at `now` without publishing anything:
    /// advances the service clock and resets the data age. A collector
    /// whose network is simply quiet (no changed epoch to publish) calls
    /// this each period so calm is not mistaken for death.
    pub fn heartbeat(&self, now: f64) {
        let now = self.clock.advance(now);
        self.lock_ledger().last_heard = now;
    }

    /// The monotone service clock: the largest instant any time-bearing
    /// call has presented (0.0 until the first).
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Seconds of service-clock time since the collector was last heard
    /// from — the age the [`DegradePolicy`] classifies against.
    pub fn data_age(&self) -> f64 {
        let last_heard = self.lock_ledger().last_heard;
        (self.clock.now() - last_heard).max(0.0)
    }

    /// The currently published raw snapshot.
    pub fn snapshot(&self) -> Arc<NetSnapshot> {
        Arc::clone(&self.lock_ledger().raw)
    }

    /// The current residual snapshot: the raw snapshot with every
    /// admitted claim applied. With an empty ledger this is the raw
    /// snapshot itself (the same `Arc`).
    pub fn residual_snapshot(&self) -> Arc<NetSnapshot> {
        self.pin().snap
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.lock_ledger().raw.epoch()
    }

    /// The current ledger version (bumped per admit/release/move).
    pub fn ledger_version(&self) -> u64 {
        self.lock_ledger().ledger.version()
    }

    /// Jobs currently admitted.
    pub fn active_jobs(&self) -> usize {
        self.lock_ledger().ledger.len()
    }

    /// Answers `request` against the currently published epoch's
    /// residual network (without admitting anything).
    ///
    /// The returned placement's `result` is bit-identical to a fresh
    /// [`nodesel_core::select`] on the residual snapshot of
    /// `placement.epoch` at the pinned ledger version — whether it came
    /// from the cache or a solve. With an empty ledger that is exactly
    /// the raw snapshot of `placement.epoch`.
    pub fn get(&self, request: &SelectionRequest) -> Placement {
        self.get_canonical(&CanonicalRequest::new(request))
    }

    /// [`PlacementService::get`] for a pre-canonicalized request.
    pub fn get_canonical(&self, canon: &CanonicalRequest) -> Placement {
        match self.get_canonical_with(canon, &GetOptions::blocking()) {
            Ok(placement) => placement,
            // Invariant, not caller-reachable: a blocking request with
            // no deadline can be neither shed nor expired.
            Err(e) => unreachable!("blocking no-deadline request failed: {e}"),
        }
    }

    /// [`PlacementService::get`] with overload options: an optional
    /// deadline, shed-instead-of-block behavior, and the caller's clock.
    ///
    /// `Err` means the service declined to answer —
    /// [`ServiceError::Shed`] (solve gate saturated,
    /// [`GetOptions::block_when_full`] off) or
    /// [`ServiceError::DeadlineExceeded`] (expired at submission or
    /// while waiting for a gate slot). A degraded-mode *refusal* is not
    /// an `Err`: it is an answer — `Ok` with [`PlacementQuality::Refused`]
    /// and [`SelectError::DataTooStale`] inside — because the service
    /// did respond, honestly.
    pub fn get_with(
        &self,
        request: &SelectionRequest,
        opts: &GetOptions,
    ) -> Result<Placement, ServiceError> {
        self.get_canonical_with(&CanonicalRequest::new(request), opts)
    }

    /// [`PlacementService::get_with`] for a pre-canonicalized request.
    pub fn get_canonical_with(
        &self,
        canon: &CanonicalRequest,
        opts: &GetOptions,
    ) -> Result<Placement, ServiceError> {
        let now = match opts.now {
            Some(t) => self.clock.advance(t),
            None => self.clock.now(),
        };
        StatsInner::bump(&self.stats.requests);
        self.check_deadline(opts.deadline, now)?;
        let pin = self.pin();
        let quality = self.config.degrade.classify(
            (now - pin.last_heard).max(0.0),
            pin.confidence,
            canon.bandwidth_sensitive(),
        );
        let placement = |result| Placement {
            epoch: pin.epoch,
            ledger_version: pin.version,
            quality,
            result,
        };
        if let PlacementQuality::Refused { .. } = quality {
            StatsInner::bump(&self.stats.refused);
            return Ok(placement(Err(SelectError::DataTooStale)));
        }
        let cached = self.lock_cache().lookup(pin.epoch, pin.version, canon);
        let result = match cached {
            Some(result) => {
                StatsInner::bump(&self.stats.cache_hits);
                result
            }
            None => {
                let slot = match self.gate.try_acquire() {
                    Some(slot) => slot,
                    None if opts.block_when_full => self.gate.acquire(),
                    None => {
                        StatsInner::bump(&self.stats.shed);
                        return Err(ServiceError::Shed);
                    }
                };
                // The wait for the slot may have outlasted the deadline;
                // a dead request must not cost a solve.
                self.check_deadline(opts.deadline, self.clock.now())?;
                let (result, footprint) = solve(&pin.snap, canon);
                drop(slot);
                self.stats.record_solve(pin.epoch);
                self.lock_cache().insert(
                    pin.epoch,
                    pin.version,
                    canon.clone(),
                    result.clone(),
                    footprint,
                );
                result
            }
        };
        if !quality.is_fresh() {
            StatsInner::bump(&self.stats.degraded_answers);
        }
        Ok(placement(result))
    }

    /// Admits `request` with the demand it implies
    /// ([`ResourceDemand::from_request`]): solves on the residual
    /// network, records the placement and its claim in the ledger, and
    /// returns the job handle. A selection failure admits nothing.
    pub fn admit(&self, request: &SelectionRequest) -> Result<Admission, ServiceError> {
        self.admit_with(request, ResourceDemand::from_request(request))
    }

    /// [`PlacementService::admit`] with an explicit declared demand.
    ///
    /// Admissions are serialized on the ledger lock *including their
    /// solve*: each admission must see every previously admitted claim,
    /// or two racing jobs would pick the same free capacity — the exact
    /// failure mode the ledger exists to close. The cache still
    /// short-circuits repeat specs at the same `(epoch, version)` pin.
    pub fn admit_with(
        &self,
        request: &SelectionRequest,
        demand: ResourceDemand,
    ) -> Result<Admission, ServiceError> {
        demand.validate()?;
        StatsInner::bump(&self.stats.requests);
        let canon = CanonicalRequest::new(request);
        let now = self.clock.now();
        let mut cell = self.lock_ledger();
        let quality = self.config.degrade.classify(
            (now - cell.last_heard).max(0.0),
            cell.confidence,
            canon.bandwidth_sensitive(),
        );
        if let PlacementQuality::Refused { age } = quality {
            // Admissions reserve real capacity: granting one on data the
            // policy calls untrustworthy would be a silent lie, so the
            // fallible path refuses with a typed error.
            drop(cell);
            StatsInner::bump(&self.stats.refused);
            return Err(ServiceError::DegradedRefusal { age });
        }
        let epoch = cell.raw.epoch();
        let version = cell.ledger.version();
        let cached = self.lock_cache().lookup(epoch, version, &canon);
        let result = match cached {
            Some(result) => {
                StatsInner::bump(&self.stats.cache_hits);
                result
            }
            None => {
                let (result, footprint) = solve(&cell.residual, &canon);
                self.stats.record_solve(epoch);
                self.lock_cache()
                    .insert(epoch, version, canon, result.clone(), footprint);
                result
            }
        };
        let selection = result.map_err(ServiceError::Select)?;
        let LedgerCell { ledger, raw, .. } = &mut *cell;
        let (job, claim) = ledger.admit(
            request.clone(),
            demand,
            selection.nodes.clone(),
            raw.structure(),
        );
        cell.refresh_residual();
        self.lock_cache()
            .advance_ledger(cell.ledger.version(), Some(&claim.touched_delta()));
        drop(cell);
        StatsInner::bump(&self.stats.admits);
        if !quality.is_fresh() {
            StatsInner::bump(&self.stats.degraded_answers);
        }
        Ok(Admission {
            job,
            epoch,
            quality,
            selection,
        })
    }

    /// Releases an admitted job, un-charging its claim from the residual
    /// network.
    pub fn release(&self, job: JobId) -> Result<(), ServiceError> {
        let mut cell = self.lock_ledger();
        let claim = cell.ledger.release(job)?;
        cell.refresh_residual();
        self.lock_cache()
            .advance_ledger(cell.ledger.version(), Some(&claim.touched_delta()));
        drop(cell);
        StatsInner::bump(&self.stats.releases);
        Ok(())
    }

    /// One supervision epoch for an admitted job: runs the failure-aware
    /// [`Supervisor`] (policy from [`ServiceConfig::supervisor`]) against
    /// the residual network **excluding the job's own claim** — the
    /// job's reservation must not repel its own re-placement — and, when
    /// re-selection is advised, moves the ledger entry to the advised
    /// nodes atomically: one version bump swaps the old claim for the
    /// new, so concurrent admissions never see the job double-counted or
    /// missing. `now` is the caller's clock in seconds, monotone across
    /// calls for this job.
    ///
    /// Selection errors (e.g. too few live nodes) leave the ledger
    /// unchanged; a later epoch may recover. A
    /// [`ServiceConfig::supervisor`] that fails
    /// [`nodesel_core::SupervisorPolicy::validate`] is
    /// [`ServiceError::InvalidSupervisorPolicy`] for every job.
    pub fn supervise(&self, job: JobId, now: f64) -> Result<SupervisorCheck, ServiceError> {
        // Checked before the lock: `Supervisor::new` panics on a bad
        // policy, and a panic under the ledger mutex poisons it.
        let policy = self.config.supervisor;
        if !policy.validate() {
            return Err(ServiceError::InvalidSupervisorPolicy);
        }
        let mut cell = self.lock_ledger();
        let raw = Arc::clone(&cell.raw);
        let delta = cell.ledger.residual_delta_excluding(&raw, job);
        // Materialized residual-without-self. An invisible remainder
        // reuses the raw snapshot unchanged.
        let excl = if delta.is_empty() {
            Arc::clone(&raw)
        } else {
            Arc::new(raw.apply(&delta))
        };
        let entry = cell.ledger.entry_mut(job)?;
        let own = OwnUsage::one_process_per_node(&entry.nodes);
        let current = entry.nodes.clone();
        let supervisor = entry
            .supervisor
            .get_or_insert_with(|| Supervisor::new(entry.request.clone(), policy));
        let check = supervisor.check(now, &excl, &current, &own)?;
        if matches!(check.verdict, SupervisorVerdict::Reselect { .. }) {
            let next = check.advice.best.nodes.clone();
            let LedgerCell { ledger, raw, .. } = &mut *cell;
            let (old_claim, new_claim) = ledger.move_job(job, next, raw.structure())?;
            cell.refresh_residual();
            // Cached answers may depend on either the vacated or the
            // newly occupied entities: invalidate against the union.
            let mut touched = old_claim.touched_delta();
            let new_touched = new_claim.touched_delta();
            touched.nodes.extend(new_touched.nodes);
            touched.links.extend(new_touched.links);
            self.lock_cache()
                .advance_ledger(cell.ledger.version(), Some(&touched));
            StatsInner::bump(&self.stats.ledger_moves);
        }
        Ok(check)
    }

    /// One reconciliation sweep: walks **every** admitted job against
    /// the latest snapshot, repairing what chaos broke.
    ///
    /// Per job, in admission order:
    ///
    /// 1. **vanished** — a placement referencing a node absent from the
    ///    current structure (a shrinking structural publication) cannot
    ///    be supervised or charged; the claim is released and the job
    ///    reported in [`ReconcileReport::released`];
    /// 2. **supervise** — otherwise the job runs one supervision epoch
    ///    through the existing [`PlacementService::supervise`] machinery:
    ///    placements on dead/stale entities re-select immediately, mere
    ///    quality moves respect hysteresis and per-job exponential
    ///    backoff, and each executed move is one atomic ledger version
    ///    bump ([`ReconcileReport::repaired`]);
    /// 3. **deferred** — a job whose supervision fails (its advised
    ///    re-selection finds too few live nodes, or the configured
    ///    supervisor policy is invalid) keeps its entry unchanged and is
    ///    reported in [`ReconcileReport::deferred`]; a later sweep may
    ///    recover it.
    ///
    /// Atomicity is **per job**, not per sweep: concurrent admissions
    /// and releases interleave safely between steps (a job released
    /// mid-sweep is skipped). `now` advances the monotone service clock.
    pub fn reconcile(&self, now: f64) -> ReconcileReport {
        let now = self.clock.advance(now);
        let mut report = ReconcileReport::default();
        let jobs = self.lock_ledger().ledger.job_ids();
        report.examined = jobs.len();
        for job in jobs {
            // The vanished check must precede supervise: supervising a
            // placement on an out-of-range node would index past the
            // structure's metric arrays.
            let vanished = {
                let cell = self.lock_ledger();
                let node_count = cell.raw.structure().node_count();
                match cell.ledger.nodes(job) {
                    Ok(nodes) => nodes.iter().any(|n| n.index() >= node_count),
                    Err(_) => continue, // released since the sweep began
                }
            };
            if vanished {
                if self.release(job).is_ok() {
                    StatsInner::bump(&self.stats.reconcile_releases);
                    report.released.push(job);
                }
                continue;
            }
            match self.supervise(job, now) {
                Ok(check) => match check.verdict {
                    SupervisorVerdict::Healthy => report.healthy += 1,
                    SupervisorVerdict::Hold { .. } => report.held += 1,
                    SupervisorVerdict::Reselect { .. } => {
                        StatsInner::bump(&self.stats.reconcile_repairs);
                        report.repaired.push(job);
                    }
                },
                // Released between the vanished check and here.
                Err(ServiceError::UnknownJob(_)) => {}
                Err(e) => report.deferred.push((job, e)),
            }
        }
        StatsInner::bump(&self.stats.reconciles);
        report
    }

    /// The nodes an admitted job currently occupies.
    pub fn job_nodes(&self, job: JobId) -> Result<Vec<nodesel_topology::NodeId>, ServiceError> {
        let cell = self.lock_ledger();
        cell.ledger.nodes(job).map(|n| n.to_vec())
    }

    /// A point-in-time view of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        let cell = self.lock_ledger();
        let active_jobs = cell.ledger.len() as u64;
        let ledger_version = cell.ledger.version();
        drop(cell);
        let cache = self.lock_cache();
        let counters = cache.counters;
        drop(cache);
        ServiceStats {
            requests: self.stats.requests.load(Relaxed),
            cache_hits: self.stats.cache_hits.load(Relaxed),
            solves: self.stats.solves.load(Relaxed),
            shed: self.stats.shed.load(Relaxed),
            refused: self.stats.refused.load(Relaxed),
            degraded_answers: self.stats.degraded_answers.load(Relaxed),
            epochs_published: self.stats.epochs_published.load(Relaxed),
            delta_evictions: counters.delta_evictions,
            capacity_evictions: counters.capacity_evictions,
            carried_forward: counters.carried_forward,
            stale_inserts: counters.stale_inserts,
            flushes: counters.flushes,
            ledger_evictions: counters.ledger_evictions,
            admits: self.stats.admits.load(Relaxed),
            releases: self.stats.releases.load(Relaxed),
            ledger_moves: self.stats.ledger_moves.load(Relaxed),
            reconciles: self.stats.reconciles.load(Relaxed),
            reconcile_repairs: self.stats.reconcile_repairs.load(Relaxed),
            reconcile_releases: self.stats.reconcile_releases.load(Relaxed),
            active_jobs,
            ledger_version,
            solves_per_epoch: lock(&self.stats.per_epoch, "stats")
                .iter()
                .copied()
                .collect(),
        }
    }

    /// Resident cache entries (test and observability hook).
    pub fn cached_entries(&self) -> usize {
        self.lock_cache().len()
    }
}

impl std::fmt::Debug for PlacementService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementService")
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// Solves `canon` against `snap`, returning the answer and the footprint
/// a cache entry for it must record.
fn solve(
    snap: &NetSnapshot,
    canon: &CanonicalRequest,
) -> (Result<Selection, SelectError>, SelectionFootprint) {
    let request = canon.to_request();
    let mut selector = selector_for(request.objective);
    let result = selector.select(snap, &request);
    (result, selector.footprint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_core::{Objective, Weights};
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;
    use nodesel_topology::{NetDelta, NodeId};

    fn service_with(config: ServiceConfig) -> (PlacementService, Vec<NodeId>) {
        let (topo, ids) = star(8, 100.0 * MBPS);
        let snap = Arc::new(NetSnapshot::capture(Arc::new(topo)));
        (PlacementService::new(snap, config), ids)
    }

    fn service() -> (PlacementService, Vec<NodeId>) {
        service_with(ServiceConfig::default())
    }

    #[test]
    fn hits_after_first_solve() {
        let (svc, _) = service();
        let request = SelectionRequest::balanced(3);
        let first = svc.get(&request);
        let second = svc.get(&request);
        assert_eq!(first, second);
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.solves_per_epoch, vec![(0, 1)]);
    }

    #[test]
    fn answers_match_fresh_select_across_epochs() {
        let (svc, ids) = service();
        let requests = [
            SelectionRequest::compute(2),
            SelectionRequest::communication(3),
            SelectionRequest::balanced(4),
        ];
        let mut snap = (*svc.snapshot()).clone();
        for round in 0..5 {
            for request in &requests {
                let placement = svc.get(request);
                assert_eq!(placement.epoch, snap.epoch());
                assert_eq!(
                    placement.result,
                    nodesel_core::select(&snap.to_topology(), request),
                    "round {round}"
                );
            }
            let delta = NetDelta {
                nodes: vec![(ids[round % ids.len()], round as f64 + 0.5)],
                ..NetDelta::default()
            };
            snap = snap.apply(&delta);
            svc.publish(Arc::new(snap.clone()), Some(&delta));
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, stats.cache_hits + stats.solves);
        assert_eq!(stats.epochs_published, 5);
    }

    #[test]
    fn structure_change_flushes_cache() {
        let (svc, _) = service();
        svc.get(&SelectionRequest::compute(2));
        assert_eq!(svc.cached_entries(), 1);
        let (other, _) = star(6, 100.0 * MBPS);
        let replacement = Arc::new(NetSnapshot::capture(Arc::new(other)));
        // Even with a (bogus) delta attached, the structure swap forces
        // a flush.
        svc.publish(replacement, Some(&NetDelta::default()));
        assert_eq!(svc.cached_entries(), 0);
        assert_eq!(svc.stats().flushes, 1);
    }

    #[test]
    fn ingest_diffs_and_carries_disjoint_entries() {
        let (svc, ids) = service();
        let compute = SelectionRequest::compute(2);
        let first = svc.get(&compute);
        // Load a node far from the answer: the compute entry's footprint
        // covers only its viable component members — here the whole
        // allowed pool, so pick the answer's own node to force eviction,
        // then a no-op delta to confirm carry.
        let snap = (*svc.snapshot()).clone();
        let next = snap.apply(&NetDelta::default());
        let epoch = svc.ingest(next);
        assert_eq!(epoch, 1);
        assert_eq!(svc.cached_entries(), 1, "empty diff carries the entry");
        let hit = svc.get(&compute);
        assert_eq!(hit.epoch, 1);
        assert_eq!(hit.result, first.result);
        assert_eq!(svc.stats().cache_hits, 1);
        // Now touch a chosen node: the entry must be evicted.
        let chosen = first.result.as_ref().unwrap().nodes[0];
        let delta = NetDelta {
            nodes: vec![(chosen, 9.0)],
            ..NetDelta::default()
        };
        let churned = svc.snapshot().apply(&delta);
        svc.ingest(churned);
        assert_eq!(svc.cached_entries(), 0);
        assert!(svc.stats().delta_evictions >= 1);
        let _ = ids;
    }

    #[test]
    fn admitted_jobs_shift_later_placements() {
        let (svc, _) = service();
        let mut request = SelectionRequest::balanced(2);
        request.reference_bandwidth = Some(20.0 * MBPS);
        // Oblivious gets answer the same nodes every time.
        let oblivious = svc.get(&request).result.unwrap();
        assert_eq!(svc.get(&request).result.unwrap(), oblivious);
        // Admission charges the nodes; the next admission must avoid the
        // now-loaded ones (8 idle leaves, 2 claimed => 6 free remain
        // strictly better on effective CPU).
        let first = svc.admit(&request).unwrap();
        assert_eq!(first.selection, oblivious);
        assert_eq!(svc.active_jobs(), 1);
        let second = svc.admit(&request).unwrap();
        for n in &second.selection.nodes {
            assert!(
                !first.selection.nodes.contains(n),
                "second admission re-used a claimed node"
            );
        }
        assert_eq!(svc.active_jobs(), 2);
        let stats = svc.stats();
        assert_eq!(stats.admits, 2);
        assert_eq!(stats.active_jobs, 2);
        assert!(stats.ledger_version >= 2);
    }

    #[test]
    fn release_restores_oblivious_answers() {
        let (svc, _) = service();
        let request = SelectionRequest::balanced(2);
        let before = svc.get(&request);
        let admission = svc.admit(&request).unwrap();
        // With the claim charged, the same spec answers differently.
        let during = svc.get(&request);
        assert_ne!(before.result, during.result);
        svc.release(admission.job).unwrap();
        // Residual is the raw snapshot again: identical Arc, identical bits.
        assert!(Arc::ptr_eq(&svc.residual_snapshot(), &svc.snapshot()));
        let after = svc.get(&request);
        assert_eq!(before.result, after.result);
        assert_eq!(svc.active_jobs(), 0);
        assert_eq!(svc.stats().releases, 1);
        // Double release is a typed error, not a panic.
        assert_eq!(
            svc.release(admission.job),
            Err(ServiceError::UnknownJob(admission.job))
        );
    }

    #[test]
    fn admit_rejects_invalid_demand_and_failed_selection() {
        let (svc, _) = service();
        let request = SelectionRequest::balanced(2);
        let bad = ResourceDemand {
            cpu_load: f64::NAN,
            pair_bandwidth: 0.0,
        };
        assert!(matches!(
            svc.admit_with(&request, bad),
            Err(ServiceError::InvalidDemand {
                field: "cpu_load",
                ..
            })
        ));
        // An unsatisfiable selection admits nothing.
        let huge = SelectionRequest::balanced(100);
        assert!(matches!(
            svc.admit(&huge),
            Err(ServiceError::Select(SelectError::NotEnoughNodes { .. }))
        ));
        assert_eq!(svc.active_jobs(), 0);
        assert_eq!(svc.stats().admits, 0);
    }

    #[test]
    fn invalid_weights_are_a_typed_error_not_a_poisoned_ledger() {
        // `admit` solves under the ledger mutex: a panic there would
        // poison it and take every later request down with it.
        let (svc, _) = service();
        let bad = SelectionRequest {
            objective: Objective::Balanced(Weights {
                compute: 0.0,
                comm: 1.0,
            }),
            ..SelectionRequest::balanced(2)
        };
        assert!(matches!(
            svc.admit(&bad),
            Err(ServiceError::Select(SelectError::InvalidWeights))
        ));
        assert_eq!(svc.active_jobs(), 0);
        assert_eq!(
            svc.get(&bad).result.as_ref(),
            Err(&SelectError::InvalidWeights)
        );
        assert!(svc.get(&SelectionRequest::balanced(2)).result.is_ok());
        assert!(svc.stats().balanced());
    }

    #[test]
    fn invalid_supervisor_policy_is_a_typed_error_not_a_poisoned_ledger() {
        // `supervise` builds the job's `Supervisor` under the ledger
        // mutex, and `Supervisor::new` panics on a bad policy.
        let good = SupervisorPolicy::default();
        let bad_policies = [
            SupervisorPolicy {
                hysteresis: f64::NAN,
                ..good
            },
            SupervisorPolicy {
                hysteresis: -1.0,
                ..good
            },
            SupervisorPolicy {
                backoff_base: 0.0,
                ..good
            },
            SupervisorPolicy {
                backoff_factor: 0.5,
                ..good
            },
            SupervisorPolicy {
                backoff_max: good.backoff_base / 2.0,
                ..good
            },
        ];
        for supervisor in bad_policies {
            let (svc, _) = service_with(ServiceConfig {
                supervisor,
                ..ServiceConfig::default()
            });
            let request = SelectionRequest::balanced(2);
            let admission = svc.admit(&request).unwrap();
            assert_eq!(
                svc.supervise(admission.job, 0.0).err(),
                Some(ServiceError::InvalidSupervisorPolicy),
                "{supervisor:?}"
            );
            let sweep = svc.reconcile(1.0);
            assert_eq!(
                sweep.deferred,
                vec![(admission.job, ServiceError::InvalidSupervisorPolicy)]
            );
            // The ledger still answers, admits and counts.
            assert!(svc.get(&request).result.is_ok());
            assert!(svc.admit(&request).is_ok());
            assert_eq!(svc.active_jobs(), 2);
            assert!(svc.stats().balanced());
        }
    }

    #[test]
    fn supervise_moves_job_off_dead_node_without_double_count() {
        let (svc, ids) = service();
        let request = SelectionRequest::balanced(2);
        let admission = svc.admit(&request).unwrap();
        let placed = admission.selection.nodes.clone();
        let healthy = svc.supervise(admission.job, 0.0).unwrap();
        assert_eq!(healthy.verdict, SupervisorVerdict::Healthy);
        // Kill one placed node.
        let dead = placed[0];
        let delta = NetDelta {
            avail_nodes: vec![(dead, false)],
            ..NetDelta::default()
        };
        let down = svc.snapshot().apply(&delta);
        svc.publish(Arc::new(down), Some(&delta));
        let check = svc.supervise(admission.job, 1.0).unwrap();
        assert_eq!(check.verdict, SupervisorVerdict::Reselect { failure: true });
        let moved = svc.job_nodes(admission.job).unwrap();
        assert!(!moved.contains(&dead));
        assert_eq!(svc.stats().ledger_moves, 1);
        // Exactly one job's claim in the ledger: the moved-to nodes are
        // charged, the vacated one is not (no double-count).
        let residual = svc.residual_snapshot();
        let raw = svc.snapshot();
        for &n in &moved {
            assert!(residual.load_avg(n) > raw.load_avg(n));
        }
        for &n in placed.iter().filter(|n| !moved.contains(n)) {
            assert_eq!(residual.load_avg(n).to_bits(), raw.load_avg(n).to_bits());
        }
        let _ = ids;
    }

    #[test]
    fn supervising_unknown_job_is_a_typed_error() {
        let (svc, _) = service();
        let admission = svc.admit(&SelectionRequest::balanced(2)).unwrap();
        svc.release(admission.job).unwrap();
        assert!(matches!(
            svc.supervise(admission.job, 0.0),
            Err(ServiceError::UnknownJob(_))
        ));
    }

    #[test]
    fn service_clock_is_monotone_and_nan_proof() {
        let (svc, _) = service();
        assert_eq!(svc.now(), 0.0);
        svc.heartbeat(5.0);
        assert_eq!(svc.now(), 5.0);
        svc.heartbeat(3.0); // rewind: clamped, never runs backwards
        assert_eq!(svc.now(), 5.0);
        svc.heartbeat(f64::NAN);
        assert_eq!(svc.now(), 5.0);
        svc.heartbeat(-1.0);
        assert_eq!(svc.now(), 5.0);
        assert_eq!(svc.data_age(), 0.0);
    }

    #[test]
    fn gate_slots_return_on_drop() {
        let bounded = Gate::new(1);
        let slot = bounded.try_acquire().expect("one slot free");
        assert!(bounded.try_acquire().is_none());
        drop(slot);
        let slot = bounded.acquire();
        assert!(bounded.try_acquire().is_none());
        drop(slot);
        let unbounded = Gate::new(0);
        let _first = unbounded
            .try_acquire()
            .expect("a disabled gate always admits");
        assert!(unbounded.try_acquire().is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order violated")]
    fn ledger_after_cache_trips_the_lock_order_assert() {
        let (svc, _) = service();
        let _cache = svc.lock_cache();
        let _ledger = svc.lock_ledger();
    }

    #[test]
    fn expired_deadline_is_shed_at_the_door() {
        let (svc, _) = service();
        let request = SelectionRequest::balanced(3);
        let err = svc
            .get_with(
                &request,
                &GetOptions {
                    now: Some(10.0),
                    deadline: Some(10.0),
                    block_when_full: false,
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::DeadlineExceeded {
                deadline: 10.0,
                now: 10.0
            }
        );
        // An in-deadline request answers normally.
        let ok = svc
            .get_with(
                &request,
                &GetOptions {
                    now: Some(10.0),
                    deadline: Some(11.0),
                    block_when_full: false,
                },
            )
            .unwrap();
        assert!(ok.result.is_ok());
        assert_eq!(ok.quality, PlacementQuality::Fresh);
        let stats = svc.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 2);
        assert!(stats.balanced());
    }

    #[test]
    fn nonblocking_request_sheds_at_a_saturated_gate() {
        let (svc, _) = service_with(ServiceConfig {
            max_inflight_solves: 1,
            ..ServiceConfig::default()
        });
        let request = SelectionRequest::balanced(3);
        // The only slot is taken, as by another caller mid-solve.
        let slot = svc.gate.try_acquire().expect("gate starts free");
        let err = svc.get_with(&request, &GetOptions::default()).unwrap_err();
        assert_eq!(err, ServiceError::Shed);
        let stats = svc.stats();
        assert_eq!((stats.shed, stats.solves), (1, 0));
        assert!(stats.balanced());
        drop(slot);
        let ok = svc.get_with(&request, &GetOptions::default()).unwrap();
        assert!(ok.result.is_ok());
        // Neither the shed nor the solve kept a slot.
        assert!(svc.gate.try_acquire().is_some());
        assert!(svc.stats().balanced());
    }

    #[test]
    fn deadline_rechecked_after_gate_wait() {
        let (svc, _) = service_with(ServiceConfig {
            max_inflight_solves: 1,
            ..ServiceConfig::default()
        });
        let slot = svc.gate.try_acquire().expect("gate starts free");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                svc.get_with(
                    &SelectionRequest::balanced(3),
                    &GetOptions {
                        now: Some(1.0),
                        deadline: Some(5.0),
                        block_when_full: true,
                    },
                )
            });
            // The request reads its own clock before its door check, so
            // once the service clock shows 1.0 it is past the door with
            // `now = 1.0` in hand — and it cannot pass the gate while the
            // slot is held here.
            while svc.now() < 1.0 {
                std::thread::yield_now();
            }
            svc.heartbeat(10.0);
            drop(slot);
            assert_eq!(
                waiter.join().expect("waiter thread"),
                Err(ServiceError::DeadlineExceeded {
                    deadline: 5.0,
                    now: 10.0
                })
            );
        });
        let stats = svc.stats();
        assert_eq!((stats.requests, stats.shed, stats.solves), (1, 1, 0));
        assert!(stats.balanced());
        assert!(
            svc.gate.try_acquire().is_some(),
            "the expired request must give its slot back"
        );
    }

    #[test]
    fn degrade_policy_flags_and_refuses_honestly() {
        let (svc, _) = service_with(ServiceConfig {
            degrade: DegradePolicy {
                soft_staleness: 10.0,
                hard_staleness: 30.0,
                min_confidence: 0.0,
            },
            ..ServiceConfig::default()
        });
        let bw = SelectionRequest::balanced(3); // bandwidth-sensitive
        let cpu = SelectionRequest::compute(3); // CPU-only
        let at = |t: f64| GetOptions {
            now: Some(t),
            deadline: None,
            block_when_full: true,
        };
        // Heard at 0.0 (construction); within bounds: Fresh.
        let fresh = svc.get_with(&bw, &at(5.0)).unwrap();
        assert_eq!(fresh.quality, PlacementQuality::Fresh);
        // Past the soft bound: served, flagged, bits unchanged.
        let stale = svc.get_with(&bw, &at(20.0)).unwrap();
        assert_eq!(stale.quality, PlacementQuality::Stale { age: 20.0 });
        assert_eq!(stale.result, fresh.result);
        // Past the hard bound: bandwidth-sensitive refused with the
        // typed staleness error; CPU-only still served, flagged.
        let refused = svc.get_with(&bw, &at(40.0)).unwrap();
        assert_eq!(refused.quality, PlacementQuality::Refused { age: 40.0 });
        assert_eq!(refused.result, Err(SelectError::DataTooStale));
        let served = svc.get_with(&cpu, &at(40.0)).unwrap();
        assert_eq!(served.quality, PlacementQuality::Stale { age: 40.0 });
        assert!(served.result.is_ok());
        // Admissions refuse with a typed error instead of an answer.
        assert_eq!(
            svc.admit(&bw).unwrap_err(),
            ServiceError::DegradedRefusal { age: 40.0 }
        );
        let cpu_admit = svc.admit(&cpu).unwrap();
        assert_eq!(cpu_admit.quality, PlacementQuality::Stale { age: 40.0 });
        svc.release(cpu_admit.job).unwrap();
        // A heartbeat proves the collector alive: quiet != dead.
        svc.heartbeat(41.0);
        assert_eq!(svc.data_age(), 0.0);
        assert_eq!(
            svc.get_with(&bw, &at(41.0)).unwrap().quality,
            PlacementQuality::Fresh
        );
        let stats = svc.stats();
        assert_eq!(stats.refused, 2); // one get, one admit
        assert!(stats.degraded_answers >= 3);
        assert!(stats.balanced());
    }

    #[test]
    fn low_confidence_flags_answers_stale_at_age_zero() {
        let (svc, ids) = service_with(ServiceConfig {
            degrade: DegradePolicy {
                soft_staleness: f64::INFINITY,
                hard_staleness: f64::INFINITY,
                min_confidence: 0.9,
            },
            ..ServiceConfig::default()
        });
        let request = SelectionRequest::balanced(3);
        let at = |t: f64| GetOptions {
            now: Some(t),
            deadline: None,
            block_when_full: true,
        };
        assert_eq!(
            svc.get_with(&request, &at(1.0)).unwrap().quality,
            PlacementQuality::Fresh
        );
        // Three missed samples on one node: published confidence drops to
        // 0.8^3 = 0.512 < 0.9 — answers flag Stale even at data age 0.
        let delta = NetDelta {
            stale_nodes: vec![(ids[1], 3)],
            ..NetDelta::default()
        };
        let aged = svc.snapshot().apply(&delta);
        svc.publish_at(Arc::new(aged), Some(&delta), 1.0);
        let flagged = svc.get_with(&request, &at(1.0)).unwrap();
        assert_eq!(flagged.quality, PlacementQuality::Stale { age: 0.0 });
        assert!(flagged.result.is_ok());
        assert!(svc.stats().balanced());
    }

    #[test]
    fn reconcile_repairs_failed_jobs_and_releases_vanished_ones() {
        let (svc, _) = service();
        let request = SelectionRequest::balanced(2);
        let a = svc.admit(&request).unwrap();
        let b = svc.admit(&request).unwrap();
        let calm = svc.reconcile(0.0);
        assert_eq!(calm.examined, 2);
        assert_eq!(calm.healthy, 2);
        assert!(calm.repaired.is_empty() && calm.released.is_empty());
        // Kill one of job a's nodes: the next sweep must repair it.
        let dead = a.selection.nodes[0];
        let delta = NetDelta {
            avail_nodes: vec![(dead, false)],
            ..NetDelta::default()
        };
        let down = svc.snapshot().apply(&delta);
        svc.publish_at(Arc::new(down), Some(&delta), 1.0);
        let repair = svc.reconcile(1.0);
        assert_eq!(repair.repaired, vec![a.job]);
        assert!(!svc.job_nodes(a.job).unwrap().contains(&dead));
        let stats = svc.stats();
        assert_eq!(stats.reconciles, 2);
        assert_eq!(stats.reconcile_repairs, 1);
        // Shrink the structure: claims on vanished nodes must be
        // released, surviving jobs must reference only live indices.
        let (small, _) = star(2, 100.0 * MBPS);
        svc.publish_at(Arc::new(NetSnapshot::capture(Arc::new(small))), None, 2.0);
        let sweep = svc.reconcile(2.0);
        let node_count = svc.snapshot().structure().node_count();
        for job in [a.job, b.job] {
            match svc.job_nodes(job) {
                Ok(nodes) => assert!(nodes.iter().all(|n| n.index() < node_count)),
                Err(ServiceError::UnknownJob(_)) => assert!(sweep.released.contains(&job)),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(
            sweep.released.len() as u64,
            svc.stats().reconcile_releases,
            "every reconcile release is counted"
        );
        assert!(svc.stats().balanced());
    }

    #[test]
    fn overload_mix_stays_balanced() {
        let (svc, _) = service_with(ServiceConfig {
            max_inflight_solves: 1,
            ..ServiceConfig::default()
        });
        std::thread::scope(|scope| {
            for i in 0..16usize {
                let svc = &svc;
                scope.spawn(move || {
                    let request = SelectionRequest::balanced(2 + (i % 4));
                    let opts = GetOptions {
                        now: Some(i as f64),
                        deadline: if i % 3 == 0 {
                            Some(i as f64 + 0.5)
                        } else {
                            None
                        },
                        block_when_full: i % 2 == 0,
                    };
                    match svc.get_with(&request, &opts) {
                        Ok(placement) => assert!(placement.result.is_ok()),
                        Err(ServiceError::Shed) | Err(ServiceError::DeadlineExceeded { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                });
            }
        });
        // Quiesced: every request must be in exactly one bucket.
        assert!(svc.stats().balanced(), "{:?}", svc.stats());
    }
}
