//! Selection-as-a-service: a concurrent placement server over the
//! epoch/delta snapshot stream.
//!
//! The paper's selection procedure answers one query against one
//! topology; this crate turns it into a long-running, multi-tenant
//! **placement service**:
//!
//! * [`CanonicalRequest`] (from `nodesel-core`) — normalized, hashable
//!   request specs, so identically-shaped requests share cache slots.
//! * [`SelectionCache`] — answers keyed by `(epoch, ledger version,
//!   canonical request)` whose recorded
//!   [`nodesel_core::SelectionFootprint`]s let a
//!   [`nodesel_topology::NetDelta`] — or an admitted claim's
//!   touched-entity set — evict exactly the entries it could have
//!   changed, carrying every other answer forward.
//! * [`PlacementLedger`] — the registry of admitted jobs: each carries a
//!   [`ResourceDemand`]-derived claim (CPU share per placed node,
//!   bandwidth per route link) that is subtracted from subsequent
//!   answers via the residual view (`nodesel_topology::residual`).
//! * [`PlacementService`] — the server, and one request path: request
//!   canonicalization, one pinned view of the published snapshot and the
//!   ledger, cache lookup, and on a miss a solve on the calling thread
//!   under a bounded solve gate; plus the admit/release/supervise
//!   placement lifecycle and honest [`ServiceStats`]. It owns no thread:
//!   the callers' threads are the parallelism.
//! * **Chaos hardening** — per-request deadlines and load shedding
//!   ([`GetOptions`], typed [`ServiceError::Shed`] /
//!   [`ServiceError::DeadlineExceeded`]), degraded-mode serving under a
//!   [`DegradePolicy`] (answers flagged [`PlacementQuality::Stale`] past
//!   the soft staleness bound, bandwidth-sensitive work refused past the
//!   hard bound — never a silent lie), and
//!   [`PlacementService::reconcile`] — a whole-ledger sweep that
//!   releases claims on vanished entities and re-selects failed
//!   placements with per-job backoff ([`ReconcileReport`]).
//!
//! The load-bearing invariant, proptest-guarded in
//! `tests/cache_parity.rs`: **every answer is bit-identical to a fresh
//! [`nodesel_core::select`] against the residual snapshot of the
//! answer's epoch and ledger version** — cached or solved, from one
//! caller or many. With an empty ledger the residual snapshot *is* the
//! raw snapshot (same `Arc`), so the lifecycle machinery is invisible
//! until the first admission.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod error;
mod ledger;
mod service;
mod stats;

pub use cache::SelectionCache;
pub use error::ServiceError;
pub use ledger::{JobId, PlacementLedger, ResourceDemand};
pub use nodesel_core::CanonicalRequest;
pub use service::{
    Admission, DegradePolicy, GetOptions, Placement, PlacementQuality, PlacementService,
    ReconcileReport, ServiceConfig,
};
pub use stats::{CacheCounters, ServiceStats};
