//! Dynamic migration advice (§3.3, "Dynamic migration").
//!
//! "The solution procedure can be applied directly to the problem of
//! dynamic migration to avoid network congestion and busy nodes. One
//! important consideration is that the load and traffic caused by the
//! application itself must be captured separately as it is not due to a
//! competing process."
//!
//! [`discount_delta`] is the [`NetDelta`] that removes the application's
//! own footprint from a measured [`NetSnapshot`] (applied with structural
//! sharing, nothing cloned); [`Advisor::advise`] then compares the quality
//! of the current placement against a fresh selection on the discounted
//! snapshot and recommends migration when the improvement clears a
//! hysteresis threshold (migration is not free, so marginal gains should
//! not trigger it). A periodic advisor calls it once per measurement
//! epoch; nothing is carried between epochs.

use crate::algorithms::select_in;
use crate::quality::{evaluate_in, Quality};
use crate::request::SelectionRequest;
use crate::weights::Weights;
use crate::{Objective, SelectError, Selection};
use nodesel_topology::{Direction, EdgeId, NetDelta, NetMetrics, NetSnapshot, NodeId, RouteTable};

/// The application's own resource footprint, to be subtracted from
/// measurements before deciding on migration.
#[derive(Debug, Clone, Default)]
pub struct OwnUsage {
    /// Load-average contribution per node (typically 1.0 for each node
    /// running one application process).
    pub load: Vec<(NodeId, f64)>,
    /// Average bandwidth the application itself drives over each directed
    /// link, bits/s.
    pub traffic: Vec<(EdgeId, Direction, f64)>,
}

impl OwnUsage {
    /// The common case: one CPU-bound process on each currently used node
    /// (no attributed traffic).
    pub fn one_process_per_node(nodes: &[NodeId]) -> Self {
        OwnUsage {
            load: nodes.iter().map(|&n| (n, 1.0)).collect(),
            traffic: Vec::new(),
        }
    }
}

/// The [`NetDelta`] that removes `own` from `snap`'s annotations, each
/// clamped at zero. Repeated entries for the same node or directed link
/// subtract cumulatively.
pub fn discount_delta(snap: &NetSnapshot, own: &OwnUsage) -> NetDelta {
    let mut delta = NetDelta::default();
    for &(n, load) in &own.load {
        let current = delta
            .nodes
            .iter()
            .rev()
            .find(|&&(m, _)| m == n)
            .map_or_else(|| snap.load_avg(n), |&(_, v)| v);
        delta.nodes.push((n, (current - load).max(0.0)));
    }
    for &(e, dir, bits) in &own.traffic {
        let current = delta
            .links
            .iter()
            .rev()
            .find(|&&(e2, d2, _)| e2 == e && d2 == dir)
            .map_or_else(|| snap.used(e, dir), |&(_, _, v)| v);
        delta.links.push((e, dir, (current - bits).max(0.0)));
    }
    delta
}

/// Migration recommendation.
#[derive(Debug, Clone)]
pub struct MigrationAdvice {
    /// Quality of the current placement, measured on the discounted
    /// snapshot.
    pub current_quality: Quality,
    /// Balanced score of the current placement.
    pub current_score: f64,
    /// The best placement available right now.
    pub best: Selection,
    /// True when moving is worth it: `best.score > current_score * (1 +
    /// threshold)`.
    pub recommended: bool,
}

impl MigrationAdvice {
    /// Nodes that would be vacated by the recommended move.
    pub fn vacated(&self, current: &[NodeId]) -> Vec<NodeId> {
        current
            .iter()
            .copied()
            .filter(|n| !self.best.nodes.contains(n))
            .collect()
    }

    /// Nodes that would be newly occupied.
    pub fn occupied(&self, current: &[NodeId]) -> Vec<NodeId> {
        self.best
            .nodes
            .iter()
            .copied()
            .filter(|n| !current.contains(n))
            .collect()
    }
}

/// A migration advisor over a stream of snapshot epochs: one request,
/// one hysteresis threshold, stateless between epochs ("the solution
/// procedure can be applied directly").
pub struct Advisor {
    request: SelectionRequest,
    improvement_threshold: f64,
}

impl Advisor {
    /// An advisor for `request`. `improvement_threshold` is the relative
    /// score gain required to recommend a move (e.g. `0.25` = "only
    /// migrate for a ≥25% better score").
    ///
    /// # Panics
    ///
    /// When `improvement_threshold` is negative or NaN.
    pub fn new(request: SelectionRequest, improvement_threshold: f64) -> Advisor {
        assert!(improvement_threshold >= 0.0);
        Advisor {
            request,
            improvement_threshold,
        }
    }

    /// Evaluates whether a running application should migrate.
    ///
    /// `snapshot` is the measured network *including* the application's
    /// own footprint; `own` describes that footprint so it can be
    /// discounted (an empty one borrows the snapshot as measured). The
    /// request is solved afresh on the discounted snapshot and scored
    /// against the `current` placement.
    ///
    /// # Panics
    ///
    /// When `current.len()` differs from the request's count.
    pub fn advise(
        &self,
        snapshot: &NetSnapshot,
        current: &[NodeId],
        own: &OwnUsage,
    ) -> Result<MigrationAdvice, SelectError> {
        assert_eq!(
            current.len(),
            self.request.count,
            "request count must match the current placement size"
        );
        let discount = discount_delta(snapshot, own);
        let storage;
        let discounted = if discount.is_empty() {
            snapshot
        } else {
            storage = snapshot.apply(&discount);
            &storage
        };
        let request = &self.request;
        let best = select_in(discounted, request)?;
        let table = RouteTable::build_for_sources(discounted.structure(), current.iter().copied());
        let current_quality = evaluate_in(discounted, &table, current, request.reference_bandwidth);
        let weights = match request.objective {
            Objective::Balanced(w) => w,
            _ => Weights::EQUAL,
        };
        let current_score = current_quality.score(weights);
        let recommended = best.score > current_score * (1.0 + self.improvement_threshold)
            && best.nodes != current;
        Ok(MigrationAdvice {
            current_quality,
            current_score,
            best,
            recommended,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SelectionRequest;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;
    use nodesel_topology::Topology;
    use std::sync::Arc;

    fn capture(topo: Topology) -> NetSnapshot {
        NetSnapshot::capture(Arc::new(topo))
    }

    #[test]
    fn discount_delta_is_cumulative_per_node() {
        let (mut topo, ids) = star(2, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 3.0);
        // Two of our processes on the same node.
        let own = OwnUsage::one_process_per_node(&[ids[0], ids[0]]);
        let snap = capture(topo);
        let discounted = snap.apply(&discount_delta(&snap, &own));
        assert_eq!(discounted.load_avg(ids[0]), 1.0);
    }

    #[test]
    fn discount_removes_own_footprint() {
        let (mut topo, ids) = star(3, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 1.0); // entirely our own process
        topo.set_load_avg(ids[1], 2.0); // ours + one competitor
        let own = OwnUsage::one_process_per_node(&[ids[0], ids[1]]);
        let snap = capture(topo);
        let clean = snap.apply(&discount_delta(&snap, &own));
        assert_eq!(clean.load_avg(ids[0]), 0.0);
        assert_eq!(clean.load_avg(ids[1]), 1.0);
        assert_eq!(clean.load_avg(ids[2]), 0.0);
    }

    #[test]
    fn discount_clamps_at_zero() {
        let (mut topo, ids) = star(2, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 0.5);
        let own = OwnUsage::one_process_per_node(&[ids[0]]);
        let snap = capture(topo);
        let clean = snap.apply(&discount_delta(&snap, &own));
        assert_eq!(clean.load_avg(ids[0]), 0.0);
    }

    #[test]
    fn no_migration_when_placement_is_fine() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        // We run on n0, n1 (own load only); n2, n3 idle: no reason to move.
        topo.set_load_avg(ids[0], 1.0);
        topo.set_load_avg(ids[1], 1.0);
        let own = OwnUsage::one_process_per_node(&[ids[0], ids[1]]);
        let advice = Advisor::new(SelectionRequest::balanced(2), 0.1)
            .advise(&capture(topo), &[ids[0], ids[1]], &own)
            .unwrap();
        assert!(!advice.recommended);
        assert_eq!(advice.current_score, 1.0);
    }

    #[test]
    fn migration_recommended_away_from_competitors() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        // We run on n0, n1; n0 also hosts three competing jobs.
        topo.set_load_avg(ids[0], 4.0); // 1 ours + 3 competitors
        topo.set_load_avg(ids[1], 1.0); // ours only
        let own = OwnUsage::one_process_per_node(&[ids[0], ids[1]]);
        let advice = Advisor::new(SelectionRequest::balanced(2), 0.25)
            .advise(&capture(topo), &[ids[0], ids[1]], &own)
            .unwrap();
        assert!(advice.recommended);
        // The move vacates the busy node, not the quiet one.
        assert_eq!(advice.vacated(&[ids[0], ids[1]]), vec![ids[0]]);
        assert!(!advice.occupied(&[ids[0], ids[1]]).is_empty());
        assert!(advice.best.score > advice.current_score);
    }

    #[test]
    fn empty_footprint_skips_discounting() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 3.0);
        // No attributed load or traffic: the snapshot is used as measured.
        let advice = Advisor::new(SelectionRequest::balanced(2), 0.1)
            .advise(&capture(topo), &[ids[0], ids[1]], &OwnUsage::default())
            .unwrap();
        assert_eq!(advice.current_quality.min_cpu, 0.25);
        assert!(advice.recommended);
    }

    #[test]
    fn threshold_suppresses_marginal_moves() {
        let (mut topo, ids) = star(3, 100.0 * MBPS);
        // Slightly better node available: score 1/1.2 vs 1/(1+0.1).
        topo.set_load_avg(ids[0], 1.2); // ours + 0.2 competitors
        let own = OwnUsage::one_process_per_node(&[ids[0]]);
        let req = SelectionRequest::balanced(1);
        let snap = capture(topo);
        let strict = Advisor::new(req.clone(), 0.5)
            .advise(&snap, &[ids[0]], &own)
            .unwrap();
        assert!(!strict.recommended);
        let eager = Advisor::new(req, 0.0)
            .advise(&snap, &[ids[0]], &own)
            .unwrap();
        assert!(eager.recommended);
    }
}
