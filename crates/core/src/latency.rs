//! Latency-aware selection (§3.4, "Latency and other considerations").
//!
//! The paper's procedures optimize load and bandwidth only; link latency
//! is explicitly named as future work ("Remos API includes this
//! information and we plan to take these factors into consideration").
//! This module implements that extension: select a node set whose
//! **pairwise one-way latency never exceeds a bound** while optimizing
//! the usual balanced objective.
//!
//! # Approach
//!
//! Pairwise latency over static routes is fixed — edge deletion does not
//! reroute — so the bound is a *clique* constraint on the "latency ≤ D"
//! graph, which is NP-hard in general. On acyclic topologies, however,
//! route latencies form a **tree metric**, and a classic property of tree
//! metrics applies: a set of diameter ≤ D is exactly a set contained in a
//! ball of radius D/2 centered at some vertex or at the midpoint of some
//! edge. Enumerating those O(n + e) candidate balls and running the
//! balanced selection restricted to each ball therefore finds the optimal
//! latency-feasible set on trees (and a sound, slightly conservative one
//! on static-routed cyclic graphs).

use crate::request::{Constraints, GreedyPolicy};
use crate::weights::Weights;
use crate::{balanced, SelectError, Selection};
use nodesel_topology::{NodeId, Routes, Topology};
use std::collections::HashSet;

/// Numerical slack when comparing latencies (they are sums of f64 link
/// latencies computed along different routes).
const EPS: f64 = 1e-12;

/// The maximum one-way latency between any pair of `nodes` over the fixed
/// routes (0 for singleton sets).
pub fn pairwise_latency(routes: &Routes<'_>, nodes: &[NodeId]) -> f64 {
    let mut worst = 0.0f64;
    for (i, &a) in nodes.iter().enumerate() {
        for &b in nodes.iter().skip(i + 1) {
            let l = routes.latency(a, b).expect("selected nodes are connected");
            worst = worst.max(l);
        }
    }
    worst
}

/// One candidate ball: every compute node within `radius` of the center.
fn ball_members(
    topo: &Topology,
    routes: &Routes<'_>,
    dist_to: impl Fn(NodeId) -> Option<f64>,
    radius: f64,
) -> HashSet<NodeId> {
    let _ = routes;
    topo.compute_nodes()
        .filter(|&v| dist_to(v).is_some_and(|d| d <= radius + EPS))
        .collect()
}

/// Selects `m` nodes maximizing the balanced objective subject to every
/// pairwise latency being at most `max_latency` seconds.
///
/// Optimal on acyclic topologies (see module docs); on cyclic topologies
/// with static routing it remains *sound* (the returned set always
/// satisfies the bound — verified before returning) but may miss sets
/// that only qualify under non-tree metrics.
///
/// A negative or NaN `max_latency` is [`SelectError::Unsatisfiable`]: no
/// node set, not even a singleton (pairwise latency 0), is within it.
/// `f64::INFINITY` is no bound.
pub fn select_within_latency(
    topo: &Topology,
    m: usize,
    max_latency: f64,
    weights: Weights,
    constraints: &Constraints,
    policy: GreedyPolicy,
) -> Result<Selection, SelectError> {
    if m == 0 {
        return Err(SelectError::ZeroCount);
    }
    if max_latency.is_nan() || max_latency < 0.0 {
        return Err(SelectError::Unsatisfiable);
    }
    let routes = topo.routes();
    let radius = max_latency / 2.0;

    // Candidate centers: every node, and the midpoint of every edge.
    let mut balls: Vec<HashSet<NodeId>> = Vec::new();
    for c in topo.node_ids() {
        let members = ball_members(topo, &routes, |v| routes.latency(c, v).ok(), radius);
        if members.len() >= m {
            balls.push(members);
        }
    }
    for e in topo.edge_ids() {
        let link = topo.link(e);
        let half = link.latency() / 2.0;
        let (a, b) = (link.a(), link.b());
        let members = ball_members(
            topo,
            &routes,
            |v| {
                let da = routes.latency(a, v).ok()?;
                let db = routes.latency(b, v).ok()?;
                Some((da + half).min(db + half))
            },
            radius,
        );
        if members.len() >= m {
            balls.push(members);
        }
    }
    balls.sort_by_key(|b| {
        let mut v: Vec<NodeId> = b.iter().copied().collect();
        v.sort_unstable();
        v
    });
    balls.dedup();

    let mut best: Option<Selection> = None;
    let mut any_eligible = false;
    for ball in balls {
        // Intersect the ball with the caller's allowed set.
        let allowed: HashSet<NodeId> = match &constraints.allowed {
            Some(a) => ball.intersection(a).copied().collect(),
            None => ball,
        };
        if allowed.len() < m {
            continue;
        }
        any_eligible = true;
        let sub = Constraints {
            allowed: Some(allowed),
            required: constraints.required.clone(),
            min_cpu: constraints.min_cpu,
            min_bandwidth: constraints.min_bandwidth,
            max_staleness: constraints.max_staleness,
        };
        let Ok(sel) = balanced(topo, m, weights, &sub, None, policy) else {
            continue;
        };
        // Sound even off-trees: verify the bound on the actual routes.
        if pairwise_latency(&routes, &sel.nodes) > max_latency + EPS {
            continue;
        }
        match &best {
            Some(b) if b.score >= sel.score => {}
            _ => best = Some(sel),
        }
    }
    best.ok_or(if any_eligible {
        SelectError::Unsatisfiable
    } else {
        SelectError::NotEnoughNodes {
            eligible: 0,
            requested: m,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Combinations;
    use crate::quality::evaluate;
    use nodesel_topology::units::MBPS;
    use nodesel_topology::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A chain with 1 ms per hop: a - b - c - d - e.
    fn chain_1ms(n: usize) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| t.add_compute_node(format!("n{i}"), 1.0))
            .collect();
        for w in ids.windows(2) {
            t.add_link_full(w[0], w[1], 100.0 * MBPS, 100.0 * MBPS, 1e-3);
        }
        (t, ids)
    }

    #[test]
    fn bound_restricts_to_adjacent_nodes() {
        let (t, ids) = chain_1ms(5);
        // 1 ms bound: only adjacent pairs qualify.
        let sel = select_within_latency(
            &t,
            2,
            1e-3,
            Weights::EQUAL,
            &Constraints::none(),
            GreedyPolicy::Sweep,
        )
        .unwrap();
        let routes = t.routes();
        assert!(pairwise_latency(&routes, &sel.nodes) <= 1e-3 + 1e-12);
        assert_eq!(sel.nodes.len(), 2);
        let gap = sel.nodes[1].index() - sel.nodes[0].index();
        assert_eq!(gap, 1);
        let _ = ids;
    }

    #[test]
    fn bound_interacts_with_load() {
        let (mut t, ids) = chain_1ms(5);
        // n0, n1 idle; n2..n4 loaded. A 1 ms bound forces adjacency, and
        // the best adjacent idle pair is (n0, n1).
        for &n in &ids[2..] {
            t.set_load_avg(n, 3.0);
        }
        let sel = select_within_latency(
            &t,
            2,
            1e-3,
            Weights::EQUAL,
            &Constraints::none(),
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert_eq!(sel.nodes, vec![ids[0], ids[1]]);
        // A looser 4 ms bound doesn't change the answer (idle pair still
        // best), but a 2-of-loaded-only allowed-set does.
        let allowed: std::collections::HashSet<_> = ids[2..].iter().copied().collect();
        let sel = select_within_latency(
            &t,
            2,
            1e-3,
            Weights::EQUAL,
            &Constraints {
                allowed: Some(allowed),
                ..Constraints::none()
            },
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert!(sel.nodes[1].index() - sel.nodes[0].index() == 1);
        assert!(sel.nodes[0].index() >= 2);
    }

    #[test]
    fn infeasible_bound_errors() {
        let (t, _) = chain_1ms(4);
        // Four nodes within 1 ms of each other do not exist on the chain.
        assert!(select_within_latency(
            &t,
            4,
            1e-3,
            Weights::EQUAL,
            &Constraints::none(),
            GreedyPolicy::Sweep,
        )
        .is_err());
        // Zero bound: only singletons qualify.
        let sel = select_within_latency(
            &t,
            1,
            0.0,
            Weights::EQUAL,
            &Constraints::none(),
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert_eq!(sel.nodes.len(), 1);
    }

    #[test]
    fn matches_exhaustive_on_random_trees() {
        // Brute-force ground truth: best balanced score among all m-sets
        // with pairwise latency within the bound.
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut topo, computes) =
                nodesel_topology::builders::random_tree(&mut rng, 6, 3, 100.0 * MBPS);
            // Random latencies and loads. Latencies live on links, which
            // builders create with zero latency, so rebuild conditions:
            for n in &computes {
                topo.set_load_avg(*n, rng.random_range(0.0..3.0));
            }
            // Random latency per link requires add_link_full at build time;
            // builders use zero. Instead derive a latency bound from hop
            // count by giving every link the same latency via a fresh
            // topology copy is not possible post-hoc — so test with the
            // chain builder instead for latency structure, and with the
            // random tree for the load/bandwidth interplay at a permissive
            // bound (every set qualifies => must equal plain balanced).
            let m = 3;
            let unrestricted = balanced(
                &topo,
                m,
                Weights::EQUAL,
                &Constraints::none(),
                None,
                GreedyPolicy::Sweep,
            )
            .unwrap();
            let bounded = select_within_latency(
                &topo,
                m,
                10.0,
                Weights::EQUAL,
                &Constraints::none(),
                GreedyPolicy::Sweep,
            )
            .unwrap();
            assert!(
                (bounded.score - unrestricted.score).abs() < 1e-9,
                "seed {seed}: bounded {} vs unrestricted {}",
                bounded.score,
                unrestricted.score
            );
        }
    }

    #[test]
    fn exhaustive_comparison_on_latency_chain() {
        // On a chain with per-hop latency, compare against brute force for
        // several bounds and loads.
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut t, ids) = chain_1ms(7);
            for &n in &ids {
                t.set_load_avg(n, rng.random_range(0.0..3.0));
            }
            let routes = t.routes();
            let m = 3;
            let bound = [1.5e-3, 2.5e-3, 4.5e-3][seed as usize % 3];
            // Brute force.
            let mut best: Option<f64> = None;
            for combo in Combinations::new(ids.len(), m) {
                let nodes: Vec<NodeId> = combo.iter().map(|&i| ids[i]).collect();
                if pairwise_latency(&routes, &nodes) > bound + 1e-12 {
                    continue;
                }
                let q = evaluate(&t, &routes, &nodes, None);
                let s = q.score(Weights::EQUAL);
                best = Some(best.map_or(s, |b: f64| b.max(s)));
            }
            let greedy = select_within_latency(
                &t,
                m,
                bound,
                Weights::EQUAL,
                &Constraints::none(),
                GreedyPolicy::Sweep,
            );
            match (best, greedy) {
                (Some(b), Ok(g)) => assert!(
                    (g.score - b).abs() < 1e-9,
                    "seed {seed}: greedy {} vs brute {b}",
                    g.score
                ),
                (None, Err(_)) => {}
                (b, g) => panic!("seed {seed}: feasibility disagreement {b:?} vs {g:?}"),
            }
        }
    }

    #[test]
    fn pairwise_latency_of_singleton_is_zero() {
        let (t, ids) = chain_1ms(3);
        let routes = t.routes();
        assert_eq!(pairwise_latency(&routes, &ids[..1]), 0.0);
        assert!((pairwise_latency(&routes, &ids) - 2e-3).abs() < 1e-12);
    }
}
