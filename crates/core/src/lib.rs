//! Node-selection algorithms for high performance applications on shared
//! networks.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Automatic Node Selection for High Performance Applications on
//! Networks"* (Subhlok, Lieu, Lowekamp — PPoPP '99): given a logical
//! network topology annotated with measured conditions (from
//! `nodesel-remos`) and an application's requirements, choose the set of
//! compute nodes on which the application will run fastest.
//!
//! # The three fundamental algorithms (§3.2)
//!
//! * [`max_compute`] — the `m` nodes with the highest available CPU
//!   fraction `cpu = 1/(1 + loadavg)`;
//! * [`max_bandwidth`] — Figure 2: maximize the minimum available
//!   bandwidth between any pair of selected nodes by deleting
//!   minimum-bandwidth edges while enough connected compute nodes survive;
//! * [`balanced`] — Figure 3: maximize
//!   `min(min fractional cpu, min fractional bandwidth)` greedily.
//!
//! # Generalizations (§3.3)
//!
//! All supported through [`SelectionRequest`]:
//! priority [`Weights`] between computation and communication; fixed
//! [`Constraints`] (absolute bandwidth floors, CPU floors, required and
//! allowed node sets); heterogeneous node speeds (via
//! [`nodesel_topology::Node::speed`]) and a reference link bandwidth for
//! heterogeneous networks; directed/bidirectional links (handled by the
//! topology layer); and dynamic [`migration`] advice that discounts the
//! application's own footprint.
//!
//! # Availability
//!
//! Selection consumes the health annotations carried by
//! [`nodesel_topology::NetMetrics`]: nodes reported down are never
//! eligible, links reported down are removed from the working view before
//! any bandwidth reasoning, confidence decay on stale measurements
//! penalizes candidates with aging data, and
//! [`Constraints::max_staleness`] excludes them outright. The
//! [`supervisor`] module layers a re-selection policy (failure-triggered
//! re-selection, hysteresis, exponential backoff) on top for long-running
//! applications on faulty networks.
//!
//! # Ground truth
//!
//! [`exhaustive_select`] is the brute-force optimum for test-sized
//! graphs — one thread, every subset in lexicographic order, one full
//! [`evaluate`] each, first best wins; the property tests assert the
//! greedy algorithms (with [`GreedyPolicy::Sweep`]) match it exactly on
//! acyclic topologies, where the paper's arguments are tight.
//!
//! # Performance
//!
//! The public greedy entry points run near-linear sorted-edge/union-find
//! engines instead of the paper's literal O(E²) loops; the literal loops
//! stay as the oracles those engines are asserted byte-identical to, in
//! every debug build and in the `fastpath_parity` property tests. The
//! oracles are test fixtures, not API: their entry points are exported
//! only under the `oracle` cargo feature, which the parity suites and
//! the `selection_fastpath` bench enable (`cargo doc --features oracle`
//! documents them).
//!
//! A request that names its candidates ([`Constraints::allowed`]) on an
//! acyclic structure is solved on the logical topology connecting them
//! ([`nodesel_topology::Topology::logical_topology`], the paper's graph
//! "for the nodes of interest") instead of on the whole fabric: the same
//! placement, at a cost that follows the pool. Unpooled requests and
//! cyclic structures are solved on the whole graph.
//!
//! For a stream of measurement epochs, every request is one fresh solve;
//! the [`selector`] module's [`Selector`]s also report the
//! [`SelectionFootprint`] that solve read, so a cache can keep an answer
//! across every [`nodesel_topology::NetDelta`] that misses it.
//!
//! # Example
//!
//! ```
//! use nodesel_core::{select, SelectionRequest};
//! use nodesel_topology::builders::star;
//! use nodesel_topology::units::MBPS;
//!
//! let (mut topo, ids) = star(6, 100.0 * MBPS);
//! topo.set_load_avg(ids[0], 3.0); // busy node
//! let sel = select(&topo, &SelectionRequest::balanced(4)).unwrap();
//! assert_eq!(sel.nodes.len(), 4);
//! assert!(!sel.nodes.contains(&ids[0])); // the busy node is avoided
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod algorithms;
mod baseline;
pub mod canonical;
mod exhaustive;
pub mod groups;
pub mod latency;
pub mod migration;
mod quality;
mod request;
pub mod selector;
pub mod sizing;
pub mod spec;
pub mod supervisor;
mod weights;

pub use algorithms::{balanced, max_bandwidth, max_compute, select, Selection};
#[cfg(any(test, feature = "oracle"))]
pub use algorithms::{balanced_reference, max_bandwidth_reference, select_masked};
pub use baseline::{random_selection, static_selection};
pub use canonical::CanonicalRequest;
pub use exhaustive::{exhaustive_select, ExhaustiveObjective};
pub use groups::{select_groups, GroupSpec, GroupedRequest, GroupedSelection};
pub use latency::{pairwise_latency, select_within_latency};
pub use quality::{evaluate, evaluate_in, Quality};
pub use request::{Constraints, GreedyPolicy, Objective, SelectionRequest};
pub use selector::{selector_for, FlatSelector, LinkFootprint, SelectionFootprint, Selector};
pub use sizing::{select_node_count, LooselySynchronousModel, PerformanceModel, SizedSelection};
pub use spec::{select_for_spec, AppSpec, CommPattern, SpecSelection};
pub use supervisor::{Supervisor, SupervisorCheck, SupervisorPolicy, SupervisorVerdict};
pub use weights::Weights;

/// Errors produced by the selection procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// Zero nodes were requested.
    ZeroCount,
    /// More required nodes than the requested set size.
    TooManyRequired {
        /// Number of required nodes.
        required: usize,
        /// Requested selection size.
        count: usize,
    },
    /// A required node is missing, not a compute node, or excluded by the
    /// other constraints.
    RequiredNotEligible(nodesel_topology::NodeId),
    /// Fewer eligible compute nodes exist than were requested.
    NotEnoughNodes {
        /// Eligible compute nodes available.
        eligible: usize,
        /// Requested selection size.
        requested: usize,
    },
    /// Enough nodes exist, but no connected component satisfies all
    /// constraints simultaneously.
    Unsatisfiable,
    /// The balanced objective's priority weights are not both positive
    /// and finite (see [`Weights::validate`]), or an
    /// [`AppSpec::comm_fraction`] they would be derived from is NaN or
    /// outside `[0, 1]`.
    InvalidWeights,
    /// A [`GroupSpec`]'s own constraints set `min_bandwidth`: a bandwidth
    /// floor holds across the whole combined set, so it belongs in
    /// [`GroupedRequest::min_bandwidth`].
    PerGroupBandwidthFloor,
    /// The measurement data behind the request is too old to answer a
    /// bandwidth-sensitive question honestly. Produced by service layers
    /// running a degraded-mode policy (see `nodesel-service`); [`select`]
    /// itself never returns it — a snapshot in hand is always answerable,
    /// only a *service* knows how long ago its snapshot was current.
    DataTooStale,
}

impl core::fmt::Display for SelectError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SelectError::ZeroCount => write!(f, "requested zero nodes"),
            SelectError::TooManyRequired { required, count } => {
                write!(f, "{required} required nodes exceed request size {count}")
            }
            SelectError::RequiredNotEligible(n) => {
                write!(f, "required node {n:?} is not an eligible compute node")
            }
            SelectError::NotEnoughNodes {
                eligible,
                requested,
            } => write!(
                f,
                "only {eligible} eligible compute nodes for a request of {requested}"
            ),
            SelectError::Unsatisfiable => {
                write!(f, "no connected node set satisfies the constraints")
            }
            SelectError::InvalidWeights => {
                write!(f, "priority weights must be positive and finite")
            }
            SelectError::PerGroupBandwidthFloor => write!(
                f,
                "per-group min_bandwidth is not supported; set GroupedRequest::min_bandwidth"
            ),
            SelectError::DataTooStale => {
                write!(
                    f,
                    "measurement data too stale for a bandwidth-sensitive selection"
                )
            }
        }
    }
}

impl std::error::Error for SelectError {}
