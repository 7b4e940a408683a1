//! Selection requests: what an application asks the framework for.
//!
//! This is the programmatic face of the paper's *application specification
//! interface* (§2.1): how many nodes, which resource to optimize, relative
//! priorities, and hard constraints.

use crate::weights::Weights;
use nodesel_topology::NodeId;
use std::collections::HashSet;

/// What to optimize (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Maximize the minimum available CPU over the selected set.
    Compute,
    /// Maximize the minimum available bandwidth between any selected pair
    /// (Figure 2).
    Communication,
    /// Maximize the minimum of fractional CPU and fractional bandwidth
    /// (Figure 3), with optional priority weights (§3.3).
    Balanced(Weights),
}

/// Hard constraints on eligible node sets (§3.3, "Fixed computation and
/// communication requirements" and application-specific placement rules).
#[derive(Debug, Clone, Default)]
pub struct Constraints {
    /// Restrict candidates to this pool (e.g. "server must run on an Alpha
    /// machine" becomes an allowed-set of Alpha nodes). `None` allows every
    /// compute node. Ids that name no compute node of the structure are
    /// ignored.
    ///
    /// The pool is also the paper's "nodes of interest" (§2.2): on an
    /// acyclic structure a pooled request is solved on the logical
    /// topology connecting the pool's eligible members
    /// ([`nodesel_topology::Topology::logical_topology`]), so it costs
    /// what the pool costs, not what the fabric costs. The placement is
    /// the one the whole graph would give; see
    /// [`Selection::iterations`](crate::Selection::iterations) for what
    /// counts the smaller graph.
    pub allowed: Option<HashSet<NodeId>>,
    /// Nodes that must be part of the selection (e.g. a pinned server).
    pub required: Vec<NodeId>,
    /// Minimum effective CPU fraction each selected node must offer.
    pub min_cpu: Option<f64>,
    /// Minimum available bandwidth (bits/s) between every selected pair.
    pub min_bandwidth: Option<f64>,
    /// Maximum tolerated measurement staleness, in missed samples: nodes
    /// whose annotations are older than this are ineligible (their state
    /// is unknown, not merely degraded). `None` accepts any age — stale
    /// nodes are then only penalized through confidence decay. Nodes
    /// reported *down* are always ineligible regardless of this setting.
    pub max_staleness: Option<u32>,
}

impl Constraints {
    /// No constraints.
    pub fn none() -> Self {
        Constraints::default()
    }

    /// True when the constraint set is trivially empty.
    pub fn is_empty(&self) -> bool {
        self.allowed.is_none()
            && self.required.is_empty()
            && self.min_cpu.is_none()
            && self.min_bandwidth.is_none()
            && self.max_staleness.is_none()
    }
}

/// Greedy-loop termination policy for the edge-deletion algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum GreedyPolicy {
    /// Figure 3 verbatim: stop as soon as one round of edge removal fails
    /// to strictly improve `minresource`. The stop depends on the order
    /// the rounds are met in, so this policy runs the literal loop —
    /// O(rounds · (V + E)), every component rebuilt every round. It is the
    /// ablation's policy; a service should ask for `Sweep`.
    Faithful,
    /// Keep deleting edges until no component can host the application,
    /// and return the best set seen anywhere along the sweep: never worse
    /// than `Faithful`, provably optimal on acyclic topologies (see the
    /// property tests), and — the best state being independent of the
    /// order states are met in — solved in one O(E log E + E·m)
    /// union-find pass.
    #[default]
    Sweep,
}

/// A complete selection request.
#[derive(Debug, Clone)]
pub struct SelectionRequest {
    /// Number of nodes the application needs.
    pub count: usize,
    /// Optimization objective.
    pub objective: Objective,
    /// Hard constraints.
    pub constraints: Constraints,
    /// Reference link bandwidth for heterogeneous networks (§3.3): when
    /// set, fractional bandwidth is `available / reference` instead of the
    /// per-link `bw / maxbw`.
    pub reference_bandwidth: Option<f64>,
    /// Greedy termination policy.
    pub policy: GreedyPolicy,
}

impl SelectionRequest {
    /// A balanced request with defaults matching the paper's experiments.
    pub fn balanced(count: usize) -> Self {
        SelectionRequest {
            count,
            objective: Objective::Balanced(Weights::EQUAL),
            constraints: Constraints::none(),
            reference_bandwidth: None,
            policy: GreedyPolicy::Sweep,
        }
    }

    /// A compute-only request.
    pub fn compute(count: usize) -> Self {
        SelectionRequest {
            objective: Objective::Compute,
            ..SelectionRequest::balanced(count)
        }
    }

    /// A communication-only request.
    pub fn communication(count: usize) -> Self {
        SelectionRequest {
            objective: Objective::Communication,
            ..SelectionRequest::balanced(count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_objectives() {
        assert_eq!(SelectionRequest::compute(3).objective, Objective::Compute);
        assert_eq!(
            SelectionRequest::communication(3).objective,
            Objective::Communication
        );
        assert!(matches!(
            SelectionRequest::balanced(3).objective,
            Objective::Balanced(_)
        ));
        assert_eq!(SelectionRequest::balanced(3).count, 3);
    }

    #[test]
    fn empty_constraints_detected() {
        assert!(Constraints::none().is_empty());
        let c = Constraints {
            min_cpu: Some(0.5),
            ..Constraints::none()
        };
        assert!(!c.is_empty());
    }
}
