//! Evaluating how good a candidate node set is.
//!
//! The algorithms reason about graph components, but the quantity an
//! application actually experiences is defined over the *selected set*: the
//! most loaded selected node, and the most congested fixed route between
//! any pair of selected nodes (paper §3.2, "the (fractional) computation
//! and communication capacities for a set of nodes are determined by the
//! most loaded node and the path with the maximum traffic"). This module
//! computes that ground truth, and is also the arbiter used by the tests
//! that compare greedy selection against exhaustive search.

use crate::weights::Weights;
use nodesel_topology::{NetMetrics, NodeId, RouteTable, Routes, Topology};

/// The measured quality of a node set under current network conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Minimum available effective CPU fraction over the set
    /// (`cpu × speed`, normalized to the reference node type).
    pub min_cpu: f64,
    /// Minimum pairwise bottleneck available bandwidth, bits/s
    /// (`+∞` for singleton sets).
    pub min_bw: f64,
    /// Minimum pairwise bottleneck *fractional* bandwidth
    /// (`1.0` for singleton sets). When a reference bandwidth is supplied
    /// the fraction is `bw / reference`, otherwise per-link `bw / maxbw`.
    pub min_bwfraction: f64,
}

impl Quality {
    /// The balanced objective of Figure 3, generalized with priority
    /// weights: `min(min_cpu / w.compute, min_bwfraction / w.comm)`.
    pub fn score(&self, weights: Weights) -> f64 {
        (self.min_cpu / weights.compute).min(self.min_bwfraction / weights.comm)
    }
}

/// Evaluates a node set against a topology snapshot using its static
/// routes.
///
/// `reference_bandwidth` selects the §3.3 heterogeneous-links rule: when
/// `Some(r)`, a path's fractional bandwidth is `available / r`; when
/// `None`, each link contributes `bw / maxbw` (homogeneous case).
///
/// Panics when `nodes` is empty or contains a network node.
pub fn evaluate(
    topo: &Topology,
    routes: &Routes<'_>,
    nodes: &[NodeId],
    reference_bandwidth: Option<f64>,
) -> Quality {
    evaluate_in(topo, routes.table(), nodes, reference_bandwidth)
}

/// [`evaluate`] over any annotated-metric representation — the measured
/// [`Topology`] itself or a versioned
/// [`NetSnapshot`](nodesel_topology::NetSnapshot) — so the one-shot and
/// snapshot selection paths score candidates with the same monomorphic
/// arithmetic. `table` must hold a BFS row for every node in `nodes`.
pub fn evaluate_in<T: NetMetrics>(
    net: &T,
    table: &RouteTable,
    nodes: &[NodeId],
    reference_bandwidth: Option<f64>,
) -> Quality {
    assert!(!nodes.is_empty(), "cannot evaluate an empty selection");
    let mut min_cpu = f64::INFINITY;
    for &n in nodes {
        assert!(
            net.structure().node(n).is_compute(),
            "selection contains network node {n:?}"
        );
        min_cpu = min_cpu.min(net.effective_cpu(n));
    }
    let mut min_bw = f64::INFINITY;
    let mut min_bwfraction = 1.0f64;
    for (i, &a) in nodes.iter().enumerate() {
        for &b in nodes.iter().skip(i + 1) {
            let bw = table
                .bottleneck_bw_in(net, a, b)
                .expect("selected nodes must be connected");
            min_bw = min_bw.min(bw);
            let fraction = match reference_bandwidth {
                Some(r) => bw / r,
                None => table
                    .bottleneck_bwfactor_in(net, a, b)
                    .expect("selected nodes must be connected"),
            };
            min_bwfraction = min_bwfraction.min(fraction);
        }
    }
    Quality {
        min_cpu,
        min_bw,
        min_bwfraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::units::MBPS;
    use nodesel_topology::Direction;

    /// a --100-- s --100-- b, with c on s over a 10 Mbps link.
    fn topo() -> (Topology, [NodeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let s = t.add_network_node("s");
        let b = t.add_compute_node("b", 1.0);
        let c = t.add_compute_node("c", 1.0);
        t.add_link(a, s, 100.0 * MBPS);
        t.add_link(s, b, 100.0 * MBPS);
        t.add_link(s, c, 10.0 * MBPS);
        (t, [a, s, b, c])
    }

    #[test]
    fn unloaded_pair_is_perfect() {
        let (t, n) = topo();
        let r = t.routes();
        let q = evaluate(&t, &r, &[n[0], n[2]], None);
        assert_eq!(q.min_cpu, 1.0);
        assert_eq!(q.min_bw, 100.0 * MBPS);
        assert_eq!(q.min_bwfraction, 1.0);
        assert_eq!(q.score(Weights::default()), 1.0);
    }

    #[test]
    fn weak_link_caps_bandwidth() {
        let (t, n) = topo();
        let r = t.routes();
        let q = evaluate(&t, &r, &[n[0], n[3]], None);
        assert_eq!(q.min_bw, 10.0 * MBPS);
        // bw/maxbw per link: the 10 Mbps link is unloaded => fraction 1.0.
        assert_eq!(q.min_bwfraction, 1.0);
        // With a 100 Mbps reference link it is only 10%.
        let q = evaluate(&t, &r, &[n[0], n[3]], Some(100.0 * MBPS));
        assert!((q.min_bwfraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn loaded_node_caps_cpu() {
        let (mut t, n) = topo();
        t.set_load_avg(n[2], 3.0);
        let r = t.routes();
        let q = evaluate(&t, &r, &[n[0], n[2]], None);
        assert_eq!(q.min_cpu, 0.25);
    }

    #[test]
    fn traffic_caps_fraction() {
        let (mut t, n) = topo();
        let e0 = t.edge_ids().next().unwrap();
        t.set_link_used(e0, Direction::AtoB, 60.0 * MBPS);
        let r = t.routes();
        let q = evaluate(&t, &r, &[n[0], n[2]], None);
        assert_eq!(q.min_bw, 40.0 * MBPS);
        assert!((q.min_bwfraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn singleton_has_infinite_bandwidth() {
        let (t, n) = topo();
        let r = t.routes();
        let q = evaluate(&t, &r, &[n[0]], None);
        assert!(q.min_bw.is_infinite());
        assert_eq!(q.min_bwfraction, 1.0);
    }

    #[test]
    fn score_applies_priority_weights() {
        let q = Quality {
            min_cpu: 0.5,
            min_bw: 1.0,
            min_bwfraction: 0.3,
        };
        // Equal weights: bandwidth binds.
        assert_eq!(q.score(Weights::default()), 0.3);
        // Compute prioritized 2x: cpu 0.5 counts as 0.25 => cpu binds.
        assert_eq!(
            q.score(Weights {
                compute: 2.0,
                comm: 1.0
            }),
            0.25
        );
    }

    #[test]
    fn fast_node_raises_effective_cpu() {
        let mut t = Topology::new();
        let a = t.add_compute_node("fast", 2.0);
        let b = t.add_compute_node("ref", 1.0);
        t.add_link(a, b, 100.0 * MBPS);
        t.set_load_avg(a, 1.0); // cpu 0.5, speed 2 => effective 1.0
        let r = t.routes();
        let q = evaluate(&t, &r, &[a, b], None);
        assert_eq!(q.min_cpu, 1.0);
    }
}
