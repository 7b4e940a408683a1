//! Byte-identical parity between the fast selection engines and the
//! paper-faithful reference loops.
//!
//! Random connected topologies (trees plus random chord links, 4–24
//! nodes — chords create cycles, exercising the engines' no-split
//! deletion paths) with random loads, utilizations, and constraint sets.
//! Every comparison is on the full `Result<Selection, SelectError>`:
//! nodes, quality, score, *and* iteration counts must agree exactly, and
//! so must error cases.
//!
//! Continuous draws almost never tie, and ties are where the balanced
//! sweep — one descending union-find pass standing in for the forward
//! loop — can pick a different round or component. `tie_heavy_topology`
//! draws loads and utilizations from three values each and adds parallel
//! links, so equal scores, equal fractions and chords that end a
//! component's stay at the maximum are the common case.

use std::collections::HashSet;

use nodesel_core::{
    balanced, balanced_reference, max_bandwidth, max_bandwidth_reference, Constraints,
    GreedyPolicy, Weights,
};
use nodesel_topology::builders::random_tree;
use nodesel_topology::units::MBPS;
use nodesel_topology::{Direction, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected topology: a random tree plus up to four chords, with
/// random loads and per-direction link utilization.
fn random_topology(
    seed: u64,
    computes: usize,
    networks: usize,
    chords: usize,
) -> (Topology, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut topo, compute_ids) = random_tree(&mut rng, computes, networks, 100.0 * MBPS);
    let all: Vec<NodeId> = topo.node_ids().collect();
    for _ in 0..chords {
        let a = all[rng.random_range(0..all.len())];
        let b = all[rng.random_range(0..all.len())];
        if a != b {
            topo.add_link(a, b, 100.0 * MBPS);
        }
    }
    for n in compute_ids.iter().copied() {
        topo.set_load_avg(n, rng.random_range(0.0..4.0));
    }
    for e in topo.edge_ids().collect::<Vec<_>>() {
        for dir in [Direction::AtoB, Direction::BtoA] {
            let cap = topo.link(e).capacity(dir);
            topo.set_link_used(e, dir, cap * rng.random_range(0.0..0.95));
        }
    }
    (topo, compute_ids)
}

/// Tree plus up to six chords (a chord may double an existing link), loads
/// from {0, 1, 2} and per-link utilization from {0, 0.25, 0.5}: most
/// scores and fractions tie.
fn tie_heavy_topology(seed: u64, computes: usize, networks: usize) -> (Topology, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut topo, compute_ids) = random_tree(&mut rng, computes, networks, 100.0 * MBPS);
    let all: Vec<NodeId> = topo.node_ids().collect();
    for _ in 0..rng.random_range(0..7) {
        let a = all[rng.random_range(0..all.len())];
        let b = all[rng.random_range(0..all.len())];
        if a != b {
            topo.add_link(a, b, 100.0 * MBPS);
        }
    }
    for n in compute_ids.iter().copied() {
        topo.set_load_avg(n, rng.random_range(0..3) as f64);
    }
    for e in topo.edge_ids().collect::<Vec<_>>() {
        let used = 0.25 * rng.random_range(0..3) as f64;
        for dir in [Direction::AtoB, Direction::BtoA] {
            topo.set_link_used(e, dir, topo.link(e).capacity(dir) * used);
        }
    }
    (topo, compute_ids)
}

/// Random constraint set: sometimes empty, sometimes with a required
/// node, a CPU floor, a bandwidth floor, or an allowed subset — the
/// corners where the fast paths must fall back or specialize.
fn random_constraints(seed: u64, ids: &[NodeId]) -> Constraints {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut c = Constraints::none();
    if rng.random_range(0..3) == 0 {
        c.required = vec![ids[rng.random_range(0..ids.len())]];
    }
    if rng.random_range(0..3) == 0 {
        c.min_cpu = Some(rng.random_range(0.1..0.6));
    }
    if rng.random_range(0..3) == 0 {
        c.min_bandwidth = Some(rng.random_range(1.0..40.0) * MBPS);
    }
    if rng.random_range(0..4) == 0 {
        let keep = 1 + rng.random_range(0..ids.len());
        c.allowed = Some(ids.iter().copied().take(keep).collect::<HashSet<_>>());
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn max_bandwidth_fast_path_is_byte_identical(
        seed in 0u64..100_000,
        computes in 2usize..12,
        networks in 0usize..8,
        chords in 0usize..4,
    ) {
        let (topo, ids) = random_topology(seed, computes, networks, chords);
        let constraints = random_constraints(seed, &ids);
        let m = 1 + (seed as usize) % ids.len().min(5);
        prop_assert_eq!(
            max_bandwidth(&topo, m, &constraints),
            max_bandwidth_reference(&topo, m, &constraints)
        );
    }

    #[test]
    fn balanced_is_byte_identical_to_the_reference(
        seed in 0u64..100_000,
        computes in 2usize..12,
        networks in 0usize..8,
        chords in 0usize..4,
    ) {
        let (topo, ids) = random_topology(seed, computes, networks, chords);
        let constraints = random_constraints(seed, &ids);
        let m = 1 + (seed as usize) % ids.len().min(5);
        let weights = if seed % 2 == 0 {
            Weights::EQUAL
        } else {
            Weights::comm_priority(2.0)
        };
        let reference = if seed % 3 == 0 { Some(155.0 * MBPS) } else { None };
        for policy in [GreedyPolicy::Faithful, GreedyPolicy::Sweep] {
            prop_assert_eq!(
                balanced(&topo, m, weights, &constraints, reference, policy),
                balanced_reference(&topo, m, weights, &constraints, reference, policy),
                "policy {:?}", policy
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn balanced_sweep_breaks_ties_like_the_deletion_loop(
        seed in 0u64..1_000_000,
        computes in 2usize..12,
        networks in 0usize..8,
    ) {
        let (topo, ids) = tie_heavy_topology(seed, computes, networks);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7165);
        let mut constraints = Constraints::none();
        for _ in 0..rng.random_range(0..3) {
            let r = ids[rng.random_range(0..ids.len())];
            if !constraints.required.contains(&r) {
                constraints.required.push(r);
            }
        }
        match rng.random_range(0..6) {
            0 => constraints.min_cpu = Some(0.5),
            1 => constraints.min_bandwidth = Some(75.0 * MBPS),
            2 => {
                let keep = 1 + rng.random_range(0..ids.len());
                constraints.allowed = Some(ids.iter().copied().take(keep).collect());
            }
            _ => {}
        }
        let reference = (seed % 2 == 0).then_some(200.0 * MBPS);
        for m in 1..=ids.len().min(5) {
            for weights in [
                Weights::EQUAL,
                Weights::comm_priority(2.0),
                Weights::compute_priority(2.0),
            ] {
                prop_assert_eq!(
                    balanced(&topo, m, weights, &constraints, reference, GreedyPolicy::Sweep),
                    balanced_reference(&topo, m, weights, &constraints, reference, GreedyPolicy::Sweep),
                    "m {} weights {:?} constraints {:?}", m, weights, constraints
                );
            }
        }
    }

}
