//! Exhaustive (brute-force) selection: ground truth for small graphs.
//!
//! [`exhaustive_select`] enumerates every `m`-subset of eligible compute
//! nodes in lexicographic order on one thread, scores each with one full
//! [`evaluate`] — the exact pairwise [`Quality`](crate::Quality) — and
//! keeps the first best, so ties go to the lexicographically smallest
//! node set. The cost is `O(C(n, m) · m²)` route walks and nothing is
//! pruned or cached: it is the oracle the property tests hold the greedy
//! engines to, and at the sizes they ask for (≤ 6 compute nodes, m ≤ 4)
//! a call costs microseconds.

use crate::quality::evaluate;
use crate::request::Constraints;
use crate::weights::Weights;
use crate::{SelectError, Selection};
use nodesel_topology::{NodeId, Topology};

/// What the brute-force search should maximize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExhaustiveObjective {
    /// Minimum effective CPU of the set.
    MinCpu,
    /// Minimum pairwise available bandwidth (bits/s).
    MinBandwidth,
    /// Balanced score under the given weights.
    Balanced(Weights),
}

/// Iterator over all `m`-combinations of `0..n` in lexicographic order.
pub(crate) struct Combinations {
    n: usize,
    idx: Vec<usize>,
    done: bool,
}

impl Combinations {
    /// Creates the iterator; yields nothing when `m > n`.
    pub(crate) fn new(n: usize, m: usize) -> Self {
        Combinations {
            n,
            idx: (0..m).collect(),
            done: m > n,
        }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let current = self.idx.clone();
        let m = self.idx.len();
        // Bump the rightmost index that still has room and reset the tail.
        match (0..m).rev().find(|&i| self.idx[i] < self.n - (m - i)) {
            Some(i) => {
                self.idx[i] += 1;
                for j in i + 1..m {
                    self.idx[j] = self.idx[j - 1] + 1;
                }
            }
            None => self.done = true,
        }
        Some(current)
    }
}

fn eligible_pool(topo: &Topology, constraints: &Constraints) -> Vec<NodeId> {
    topo.compute_nodes()
        .filter(|&n| {
            constraints
                .allowed
                .as_ref()
                .is_none_or(|set| set.contains(&n))
                && constraints
                    .min_cpu
                    .is_none_or(|c| topo.node(n).effective_cpu() >= c)
        })
        .collect()
}

/// Brute-force optimal selection.
///
/// Subsets whose nodes are not mutually connected are skipped. Ties are
/// broken toward the lexicographically smallest node set, making the result
/// deterministic and directly comparable with the greedy algorithms.
pub fn exhaustive_select(
    topo: &Topology,
    m: usize,
    objective: ExhaustiveObjective,
    constraints: &Constraints,
    reference_bandwidth: Option<f64>,
) -> Result<Selection, SelectError> {
    if m == 0 {
        return Err(SelectError::ZeroCount);
    }
    let pool = eligible_pool(topo, constraints);
    if pool.len() < m {
        return Err(SelectError::NotEnoughNodes {
            eligible: pool.len(),
            requested: m,
        });
    }
    let routes = topo.routes();
    let weights = match objective {
        ExhaustiveObjective::Balanced(w) => w,
        _ => Weights::EQUAL,
    };
    let mut best: Option<(f64, Vec<NodeId>, crate::Quality)> = None;
    'outer: for combo in Combinations::new(pool.len(), m) {
        let nodes: Vec<NodeId> = combo.iter().map(|&i| pool[i]).collect();
        for &r in &constraints.required {
            if !nodes.contains(&r) {
                continue 'outer;
            }
        }
        // Skip disconnected subsets.
        for (i, &a) in nodes.iter().enumerate() {
            for &b in nodes.iter().skip(i + 1) {
                if routes.path(a, b).is_err() {
                    continue 'outer;
                }
            }
        }
        let q = evaluate(topo, &routes, &nodes, reference_bandwidth);
        if let Some(floor) = constraints.min_bandwidth {
            if q.min_bw < floor {
                continue;
            }
        }
        let value = match objective {
            ExhaustiveObjective::MinCpu => q.min_cpu,
            ExhaustiveObjective::MinBandwidth => q.min_bw,
            ExhaustiveObjective::Balanced(w) => q.score(w),
        };
        match &best {
            Some((b, _, _)) if *b >= value => {}
            _ => best = Some((value, nodes, q)),
        }
    }
    let (_, nodes, quality) = best.ok_or(SelectError::Unsatisfiable)?;
    Ok(Selection {
        score: quality.score(weights),
        nodes,
        quality,
        iterations: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;

    #[test]
    fn combinations_enumerate_lexicographically() {
        let all: Vec<Vec<usize>> = Combinations::new(4, 2).collect();
        assert_eq!(
            all,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn combinations_edge_cases() {
        assert_eq!(Combinations::new(3, 3).count(), 1);
        assert_eq!(Combinations::new(3, 4).count(), 0);
        assert_eq!(Combinations::new(5, 1).count(), 5);
        assert_eq!(Combinations::new(6, 3).count(), 20);
    }

    #[test]
    fn picks_the_obviously_best_pair() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 4.0);
        topo.set_load_avg(ids[1], 4.0);
        let sel = exhaustive_select(
            &topo,
            2,
            ExhaustiveObjective::Balanced(Weights::EQUAL),
            &Constraints::none(),
            None,
        )
        .unwrap();
        assert_eq!(sel.nodes, vec![ids[2], ids[3]]);
        assert_eq!(sel.quality.min_cpu, 1.0);
    }

    #[test]
    fn respects_required_nodes() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 4.0);
        let constraints = Constraints {
            required: vec![ids[0]],
            ..Constraints::none()
        };
        let sel = exhaustive_select(
            &topo,
            2,
            ExhaustiveObjective::Balanced(Weights::EQUAL),
            &constraints,
            None,
        )
        .unwrap();
        assert!(sel.nodes.contains(&ids[0]));
        assert_eq!(sel.quality.min_cpu, 0.2);
    }

    #[test]
    fn bandwidth_floor_filters_sets() {
        let mut topo = Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        let c = topo.add_compute_node("c", 1.0);
        topo.add_link(a, b, 10.0 * MBPS);
        topo.add_link(b, c, 100.0 * MBPS);
        let constraints = Constraints {
            min_bandwidth: Some(50.0 * MBPS),
            ..Constraints::none()
        };
        let sel =
            exhaustive_select(&topo, 2, ExhaustiveObjective::MinCpu, &constraints, None).unwrap();
        assert_eq!(sel.nodes, vec![b, c]);
    }

    #[test]
    fn ties_go_to_the_lexicographically_smallest_set() {
        // Unloaded star: every pair scores the same under every objective.
        let (topo, ids) = star(5, 100.0 * MBPS);
        for objective in [
            ExhaustiveObjective::MinCpu,
            ExhaustiveObjective::MinBandwidth,
            ExhaustiveObjective::Balanced(Weights::EQUAL),
        ] {
            let sel = exhaustive_select(&topo, 2, objective, &Constraints::none(), None).unwrap();
            assert_eq!(sel.nodes, vec![ids[0], ids[1]], "{objective:?}");
        }
        // With the first node outside the allowed pool, the next smallest.
        let constraints = Constraints {
            allowed: Some(ids[1..].iter().copied().collect()),
            ..Constraints::none()
        };
        let sel = exhaustive_select(
            &topo,
            3,
            ExhaustiveObjective::Balanced(Weights::EQUAL),
            &constraints,
            None,
        )
        .unwrap();
        assert_eq!(sel.nodes, vec![ids[1], ids[2], ids[3]]);
    }
}
