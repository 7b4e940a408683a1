//! The selector seam: one solve per request, and the footprint it read.
//!
//! The paper re-applies its selection procedure as is when conditions
//! change (§3.3 "Dynamic migration": "the solution procedure can be
//! applied directly"), and so does this crate: a [`Selector`] solves a
//! request from scratch on the [`NetSnapshot`] it is handed. What a
//! long-lived service gains from the seam is the [`SelectionFootprint`]
//! the solve reports — the entities the answer's bits depend on — so an
//! epoch cache can keep the answer across every [`NetDelta`] that misses
//! them and re-solve only when one lands.
//!
//! # What an answer reads
//!
//! * Compute — the components of the starting view are fixed by the
//!   graph (and the bandwidth floor, which reads link metrics): node
//!   churn only re-ranks CPUs within the components that can host the
//!   application, link churn re-scores the answer over its routes.
//! * Communication — the Figure 2 stop component is determined by the
//!   edge order (link metrics) and eligibility alone, so node churn only
//!   re-ranks the pick inside it.
//! * Balanced — the Figure 3 deletion history reads only link metrics;
//!   node churn moves the CPU term of its states, all of which lie inside
//!   the starting view's hosting components.
//!
//! # When the footprint is conservative
//!
//! Health transitions (availability, staleness) always invalidate: dead
//! links leave the starting view and dead or too-stale nodes leave the
//! eligible set. Beyond that, a request reports
//! [`SelectionFootprint::conservative`] when it makes the skeleton itself
//! metric-dependent: a `required` set or a `min_cpu` floor (eligibility
//! then moves with the metrics), the [`GreedyPolicy::Faithful`] stopping
//! rule (score-dependent), or a non-finite/non-positive reference
//! bandwidth.
//!
//! `tests/footprint_parity.rs` pins every footprint to a naive statement
//! of these definitions and checks the soundness contract over random
//! topologies.

use crate::algorithms::{solve_in, Selection};
use crate::request::{GreedyPolicy, Objective, SelectionRequest};
use crate::SelectError;
use nodesel_topology::{EdgeId, NetDelta, NetSnapshot, NodeId, RouteTable, Topology};

/// A selection engine over snapshot epochs.
///
/// Obtain one from [`selector_for`].
///
/// Selectors are `Send` so a service may hold one behind a lock that
/// outlives any single thread's borrow. They are *not* required to be
/// `Sync` — a selector is always driven behind exclusive access.
pub trait Selector: Send {
    /// Solves `request` from scratch on `snap`.
    fn select(
        &mut self,
        snap: &NetSnapshot,
        request: &SelectionRequest,
    ) -> Result<Selection, SelectError>;

    /// The entities the last [`Selector::select`] answer depends on: a
    /// [`NetDelta`] disjoint from this footprint provably leaves a fresh
    /// solve on the patched snapshot bit-identical, so a cache may keep
    /// the answer across the epoch. The default is fully conservative
    /// (everything invalidates).
    fn footprint(&self) -> SelectionFootprint {
        SelectionFootprint::conservative()
    }
}

/// The link half of a [`SelectionFootprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkFootprint {
    /// Any link-metric change may move the answer (the deletion-loop
    /// skeletons read every edge's order).
    All,
    /// Only these edges' metrics are read (sorted, deduplicated): the
    /// route edges the final quality evaluation walks, or a bandwidth
    /// floor's filtered set.
    Edges(Vec<EdgeId>),
}

impl LinkFootprint {
    /// The edges the quality evaluation of `nodes` walks: every hop on
    /// their pairwise routes in `table` (which must hold a row for each).
    /// [`LinkFootprint::All`] when some pair is unroutable.
    pub(crate) fn routes_among(
        structure: &Topology,
        table: &RouteTable,
        nodes: &[NodeId],
    ) -> LinkFootprint {
        let mut edges = Vec::new();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let Ok(path) = table.resolve(structure, a, b) else {
                    return LinkFootprint::All;
                };
                edges.extend(path.hops.iter().map(|&(e, _)| e));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        LinkFootprint::Edges(edges)
    }
}

/// The set of entities a cached selection's bits depend on.
///
/// Produced by [`Selector::footprint`] after a successful `select`;
/// consumed by epoch caches deciding which entries a [`NetDelta`]
/// invalidates. Soundness contract: if [`SelectionFootprint::invalidated_by`]
/// returns `false`, a fresh solve of the same request on
/// `snapshot.apply(delta)` is bit-identical to the cached answer
/// (including reproduced errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionFootprint {
    /// False when the footprint is a conservative stand-in (nothing
    /// solved yet, or the request's skeleton moves with the metrics):
    /// every non-empty delta then invalidates.
    pub replayable: bool,
    /// Nodes whose load average the answer reads (sorted, deduplicated).
    pub nodes: Vec<NodeId>,
    /// Links whose traffic metrics the answer reads.
    pub links: LinkFootprint,
}

impl SelectionFootprint {
    /// The everything-invalidates footprint.
    pub fn conservative() -> Self {
        SelectionFootprint {
            replayable: false,
            nodes: Vec::new(),
            links: LinkFootprint::All,
        }
    }

    /// The footprint of an answer that reads the load of `nodes` (any
    /// order) and the metrics of `links`.
    pub(crate) fn reading(mut nodes: Vec<NodeId>, links: LinkFootprint) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        SelectionFootprint {
            replayable: true,
            nodes,
            links,
        }
    }

    /// True when `delta` may change the answer's bits.
    ///
    /// Health transitions (availability or staleness, on any entity)
    /// always invalidate: an entity entering the eligible set or the
    /// starting view is by construction absent from the footprint.
    pub fn invalidated_by(&self, delta: &NetDelta) -> bool {
        if delta.is_empty() {
            return false;
        }
        if !self.replayable || delta.has_health_changes() {
            return true;
        }
        if delta
            .nodes
            .iter()
            .any(|&(n, _)| self.nodes.binary_search(&n).is_ok())
        {
            return true;
        }
        match &self.links {
            LinkFootprint::All => !delta.links.is_empty(),
            LinkFootprint::Edges(edges) => delta
                .links
                .iter()
                .any(|&(e, _, _)| edges.binary_search(&e).is_ok()),
        }
    }
}

/// The selector solving requests of `objective` on the whole snapshot.
/// (One engine dispatches on the request it is handed; the argument
/// remains for the call sites that name the objective they solve.)
pub fn selector_for(_objective: Objective) -> Box<dyn Selector> {
    Box::new(FlatSelector::new())
}

/// The flat [`Selector`]: [`crate::select`] on a snapshot, remembering
/// the footprint of the solve that just ran.
#[derive(Debug)]
pub struct FlatSelector {
    footprint: SelectionFootprint,
}

impl FlatSelector {
    /// A selector that has not solved anything yet (its footprint is
    /// [`SelectionFootprint::conservative`]).
    pub fn new() -> Self {
        FlatSelector {
            footprint: SelectionFootprint::conservative(),
        }
    }
}

impl Default for FlatSelector {
    fn default() -> Self {
        Self::new()
    }
}

/// True when a fixed entity set decides the answer: eligibility cannot
/// move with the metrics (no pinned nodes, no CPU floor), and for the
/// balanced sweep neither can the stopping rule or the edge order's
/// meaning.
fn skeleton_is_static(request: &SelectionRequest) -> bool {
    let constraints = &request.constraints;
    let sweep_ok = match request.objective {
        Objective::Balanced(_) => {
            request.policy == GreedyPolicy::Sweep
                && request
                    .reference_bandwidth
                    .is_none_or(|r| r.is_finite() && r > 0.0)
        }
        _ => true,
    };
    constraints.required.is_empty() && constraints.min_cpu.is_none() && sweep_ok
}

impl Selector for FlatSelector {
    fn select(
        &mut self,
        snap: &NetSnapshot,
        request: &SelectionRequest,
    ) -> Result<Selection, SelectError> {
        let (result, footprint) = match solve_in(snap, request) {
            Ok((selection, footprint)) => (Ok(selection), footprint),
            // Nothing can host the application and only a health
            // transition can change that: a reproduced error reads no
            // load, and link metrics only through a bandwidth floor or a
            // deletion order.
            Err(e) => {
                let links = match (request.objective, request.constraints.min_bandwidth) {
                    (Objective::Compute, None) => LinkFootprint::Edges(Vec::new()),
                    _ => LinkFootprint::All,
                };
                (Err(e), SelectionFootprint::reading(Vec::new(), links))
            }
        };
        self.footprint = if skeleton_is_static(request) {
            footprint
        } else {
            SelectionFootprint::conservative()
        };
        result
    }

    fn footprint(&self) -> SelectionFootprint {
        self.footprint.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;
    use std::sync::Arc;

    fn snapshot_of(topo: Topology) -> NetSnapshot {
        NetSnapshot::capture(Arc::new(topo))
    }

    #[test]
    fn one_selector_serves_every_objective() {
        // The selector dispatches on the request, not on the objective
        // it was obtained for.
        let (mut topo, ids) = star(5, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 2.0);
        let snap = snapshot_of(topo);
        let mut sel = selector_for(Objective::Compute);
        for request in [
            SelectionRequest::balanced(2),
            SelectionRequest::communication(2),
            SelectionRequest::compute(2),
        ] {
            assert_eq!(
                sel.select(&snap, &request),
                crate::select(&snap.to_topology(), &request)
            );
        }
    }

    #[test]
    fn errors_are_reproduced_across_epochs() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let snap = snapshot_of(topo);
        let request = SelectionRequest::compute(9);
        let mut sel = FlatSelector::new();
        let first = sel.select(&snap, &request);
        assert!(matches!(first, Err(SelectError::NotEnoughNodes { .. })));
        // Load churn cannot conjure nodes: the footprint keeps the error,
        // and a fresh solve on the next epoch reproduces it.
        let delta = NetDelta {
            nodes: vec![(ids[0], 1.0)],
            ..NetDelta::default()
        };
        assert!(!sel.footprint().invalidated_by(&delta));
        assert_eq!(sel.select(&snap.apply(&delta), &request), first);
    }

    #[test]
    fn unprimed_footprint_is_conservative() {
        let sel = FlatSelector::new();
        let fp = sel.footprint();
        assert!(!fp.replayable);
        assert!(fp.invalidated_by(&NetDelta {
            nodes: vec![(NodeId::from_index(0), 1.0)],
            ..NetDelta::default()
        }));
        assert!(!fp.invalidated_by(&NetDelta::default()));
    }

    #[test]
    fn footprint_disjoint_deltas_preserve_answers() {
        // Two stars bridged at the hubs: load the far star's leaves, the
        // near star's answer must not be invalidated — and a fresh solve
        // on the churned snapshot must agree bit for bit.
        let (mut topo, ids) = star(8, 100.0 * MBPS);
        let allowed: std::collections::HashSet<NodeId> = ids[..4].iter().copied().collect();
        topo.set_load_avg(ids[5], 2.0);
        let snap = snapshot_of(topo);
        for request in [
            SelectionRequest::compute(2),
            SelectionRequest::communication(2),
            SelectionRequest::balanced(2),
        ] {
            let mut request = request;
            request.constraints.allowed = Some(allowed.clone());
            let mut sel = selector_for(request.objective);
            let first = sel.select(&snap, &request).unwrap();
            let fp = sel.footprint();
            assert!(fp.replayable);
            // Outside the allowed pool: never in any footprint.
            let disjoint = NetDelta {
                nodes: vec![(ids[6], 5.0)],
                ..NetDelta::default()
            };
            assert!(!fp.invalidated_by(&disjoint));
            let next = snap.apply(&disjoint);
            assert_eq!(
                first,
                crate::select(&next.to_topology(), &request).unwrap(),
                "footprint claimed invariance but the answer moved"
            );
            // A member of the answer itself is always in the footprint.
            let touching = NetDelta {
                nodes: vec![(first.nodes[0], 5.0)],
                ..NetDelta::default()
            };
            assert!(fp.invalidated_by(&touching));
        }
    }

    #[test]
    fn health_changes_always_invalidate() {
        let (topo, ids) = star(5, 100.0 * MBPS);
        let snap = snapshot_of(topo);
        let request = SelectionRequest::compute(2);
        let mut sel = FlatSelector::new();
        sel.select(&snap, &request).unwrap();
        let fp = sel.footprint();
        let delta = NetDelta {
            avail_nodes: vec![(ids[4], false)],
            ..NetDelta::default()
        };
        assert!(fp.invalidated_by(&delta));
    }
}
