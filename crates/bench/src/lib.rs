//! Shared helpers for the figure, ablation and scaling benches.
//!
//! Each bench in `benches/` is a plain `main` that prints its table —
//! an algorithm figure of the paper, an ablation, or a speed-up sweep —
//! and times each cell with [`time_one`]. The helpers here build the
//! standard randomized inputs the benches sweep over.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use nodesel_topology::builders::{hierarchical, random_tree, randomize_conditions};
use nodesel_topology::units::MBPS;
use nodesel_topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Median-of-`iters` wall time of one call of `f`, in seconds.
pub fn time_one(mut f: impl FnMut(), iters: usize) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A seeded random tree (half compute, half network nodes) with random
/// load and traffic conditions — the standard input for the algorithm
/// benches.
pub fn conditioned_tree(seed: u64, nodes: usize) -> (Topology, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let computes = nodes / 2;
    let (mut topo, ids) = random_tree(&mut rng, computes, nodes - computes, 1e8);
    randomize_conditions(&mut topo, &mut rng, 3.0, 0.9);
    (topo, ids)
}

/// A seeded hierarchical fabric (star domains on a binary trunk tree,
/// see [`hierarchical`]) with random load and traffic conditions — the
/// input of the `scaling` bench's pooled sweep. Returns the topology and
/// each domain's host list.
pub fn conditioned_hierarchy(
    seed: u64,
    domains: usize,
    hosts_per_domain: usize,
) -> (Topology, Vec<Vec<NodeId>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut topo, members) =
        hierarchical(domains, hosts_per_domain, 100.0 * MBPS, 40.0 * MBPS, 2e-3);
    randomize_conditions(&mut topo, &mut rng, 3.0, 0.9);
    (topo, members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditioned_hierarchy_is_shaped_and_seeded() {
        let (topo, members) = conditioned_hierarchy(3, 4, 5);
        assert_eq!(topo.node_count(), 4 * 6); // hub + 5 hosts per domain
        assert_eq!(members.len(), 4);
        // Same seed, same conditions.
        let (again, _) = conditioned_hierarchy(3, 4, 5);
        for n in topo.compute_nodes() {
            assert_eq!(topo.node(n).load_avg(), again.node(n).load_avg());
        }
    }

    #[test]
    fn conditioned_tree_is_connected_and_seeded() {
        let (a, ids) = conditioned_tree(5, 40);
        assert_eq!(a.node_count(), 40);
        assert_eq!(ids.len(), 20);
        assert!(a.is_connected());
        let (b, _) = conditioned_tree(5, 40);
        // Same seed, same conditions.
        for n in a.compute_nodes() {
            assert_eq!(a.node(n).load_avg(), b.node(n).load_avg());
        }
    }
}
