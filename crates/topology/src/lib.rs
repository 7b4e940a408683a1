//! Logical network topology graphs.
//!
//! This crate implements the *logical network topology graph* described in
//! §3.1 of "Automatic Node Selection for High Performance Applications on
//! Networks" (PPoPP '99). The graph is the single data model shared by the
//! measurement layer (`nodesel-remos`), the simulator (`nodesel-simnet`) and
//! the selection algorithms (`nodesel-core`):
//!
//! * nodes are either **compute nodes** (processors available for
//!   application execution) or **network nodes** (switches/routers that only
//!   forward traffic);
//! * edges are communication links annotated with a peak capacity
//!   ([`Link::maxbw`]) and the currently available bandwidth ([`Link::bw`]);
//! * every compute node carries a load average from which the available CPU
//!   fraction `cpu = 1 / (1 + loadavg)` is derived ([`Node::cpu`]).
//!
//! The crate provides:
//!
//! * [`Topology`] — the annotated graph with deterministic iteration order;
//! * [`GraphView`] — a cheap overlay that supports the edge-deletion loops
//!   at the heart of the paper's algorithms (Figures 2 and 3) without
//!   mutating the underlying graph;
//! * [`UnionFind`] — near-linear incremental connectivity with
//!   per-component aggregates, powering the sorted-edge fast paths in
//!   `nodesel-core`;
//! * [`route`] — static routing (unique tree paths, shortest-path tables for
//!   cyclic graphs) and bottleneck-bandwidth queries;
//! * [`Topology::logical_topology`] — on acyclic structures, the part of
//!   the graph that connects a set of nodes of interest (§2.2), built from
//!   a per-structure forest index in time proportional to the answer;
//! * [`builders`] and [`testbeds`] — canonical topologies, including the
//!   Figure 1 example network and the Figure 4 CMU testbed used throughout
//!   the paper's evaluation;
//! * [`dot`] — Graphviz export for visual inspection of selections.
//!
//! # Example
//!
//! ```
//! use nodesel_topology::{Topology, NodeKind, units::MBPS};
//!
//! let mut t = Topology::new();
//! let sw = t.add_network_node("switch");
//! let a = t.add_compute_node("a", 1.0);
//! let b = t.add_compute_node("b", 1.0);
//! t.add_link(sw, a, 100.0 * MBPS);
//! t.add_link(sw, b, 100.0 * MBPS);
//! t.set_load_avg(a, 1.0); // one competing job => cpu == 0.5
//! assert_eq!(t.node(a).cpu(), 0.5);
//! let r = t.routes();
//! assert_eq!(r.path(a, b).unwrap().len(), 2); // a-sw, sw-b
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod builders;
pub mod dot;
mod forest;
mod graph;
mod ids;
pub mod io;
mod link;
pub mod maxmin;
pub mod metrics;
mod node;
pub mod residual;
pub mod route;
pub mod snapshot;
pub mod testbeds;
pub mod unionfind;
pub mod units;
mod view;

pub use forest::Extract;
pub use graph::Topology;
pub use ids::{EdgeId, NodeId};
pub use link::{Direction, Link};
pub use node::{Node, NodeKind};
pub use residual::{LedgerState, ResourceClaim};
pub use route::{Path, RouteTable, Routes};
pub use snapshot::{staleness_confidence, NetDelta, NetMetrics, NetSnapshot};
pub use unionfind::UnionFind;
pub use view::{Component, GraphView};

/// Errors produced by topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node name was used twice; names must be unique within a topology.
    DuplicateName(String),
    /// A queried node name does not exist.
    UnknownName(String),
    /// The two endpoints of a route query are not connected.
    Disconnected(NodeId, NodeId),
    /// An operation required a compute node but got a network node.
    NotComputeNode(NodeId),
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate node name {n:?}"),
            TopologyError::UnknownName(n) => write!(f, "unknown node name {n:?}"),
            TopologyError::Disconnected(a, b) => {
                write!(f, "nodes {a:?} and {b:?} are not connected")
            }
            TopologyError::NotComputeNode(n) => write!(f, "node {n:?} is not a compute node"),
        }
    }
}

impl std::error::Error for TopologyError {}
