//! Property tests: on acyclic topologies the paper's greedy algorithms
//! (with the sweep policy) are exact — they match brute-force search over
//! all candidate node sets. These properties are the correctness core of
//! the reproduction. Beside them: an empty ledger's residual is invisible
//! to selection.

use nodesel_core::{
    balanced, exhaustive_select, max_bandwidth, max_compute, selector_for, Constraints,
    ExhaustiveObjective, GreedyPolicy, SelectionRequest, Weights,
};
use nodesel_topology::builders::random_tree;
use nodesel_topology::units::MBPS;
use nodesel_topology::{Direction, LedgerState, NetMetrics, NetSnapshot, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Builds a random tree with random per-link capacities, loads and traffic.
fn random_conditions(seed: u64, computes: usize, networks: usize) -> (Topology, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut topo, compute_ids) = random_tree(&mut rng, computes, networks, 100.0 * MBPS);
    // Replace the uniform capacities with a mix of 10/100/155 Mbps links by
    // rebuilding utilization; capacities are fixed at construction so vary
    // utilization and load instead (these drive the algorithms).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn max_compute_matches_exhaustive(seed in 0u64..10_000, computes in 2usize..7, networks in 0usize..4) {
        let (topo, ids) = random_conditions(seed, computes, networks);
        let m = 1 + (seed as usize) % ids.len().min(4);
        let greedy = max_compute(&topo, m, &Constraints::none()).unwrap();
        let optimal = exhaustive_select(&topo, m, ExhaustiveObjective::MinCpu, &Constraints::none(), None).unwrap();
        prop_assert!((greedy.quality.min_cpu - optimal.quality.min_cpu).abs() <= 1e-12 * optimal.quality.min_cpu.max(1.0),
            "greedy {} vs optimal {}", greedy.quality.min_cpu, optimal.quality.min_cpu);
    }

    #[test]
    fn max_bandwidth_matches_exhaustive(seed in 0u64..10_000, computes in 2usize..7, networks in 0usize..4) {
        let (topo, ids) = random_conditions(seed, computes, networks);
        let m = 2 + (seed as usize) % (ids.len() - 1).min(3);
        if m > ids.len() { return Ok(()); }
        let greedy = max_bandwidth(&topo, m, &Constraints::none()).unwrap();
        let optimal = exhaustive_select(&topo, m, ExhaustiveObjective::MinBandwidth, &Constraints::none(), None).unwrap();
        prop_assert!((greedy.quality.min_bw - optimal.quality.min_bw).abs() <= 1e-9 * optimal.quality.min_bw.max(1.0),
            "greedy {} vs optimal {}", greedy.quality.min_bw, optimal.quality.min_bw);
    }

    #[test]
    fn balanced_sweep_matches_exhaustive(seed in 0u64..10_000, computes in 2usize..7, networks in 0usize..4) {
        let (topo, ids) = random_conditions(seed, computes, networks);
        let m = 2 + (seed as usize) % (ids.len() - 1).min(3);
        if m > ids.len() { return Ok(()); }
        let greedy = balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, GreedyPolicy::Sweep).unwrap();
        let optimal = exhaustive_select(&topo, m, ExhaustiveObjective::Balanced(Weights::EQUAL), &Constraints::none(), None).unwrap();
        prop_assert!((greedy.score - optimal.score).abs() <= 1e-9 * optimal.score.max(1.0),
            "greedy {} ({:?}) vs optimal {} ({:?})", greedy.score, greedy.nodes, optimal.score, optimal.nodes);
    }

    #[test]
    fn balanced_with_priorities_matches_exhaustive(seed in 0u64..10_000, computes in 3usize..6, factor in 1u32..5) {
        let (topo, ids) = random_conditions(seed, computes, 2);
        let m = 2.min(ids.len());
        let w = Weights::compute_priority(factor as f64);
        let greedy = balanced(&topo, m, w, &Constraints::none(), None, GreedyPolicy::Sweep).unwrap();
        let optimal = exhaustive_select(&topo, m, ExhaustiveObjective::Balanced(w), &Constraints::none(), None).unwrap();
        prop_assert!((greedy.score - optimal.score).abs() <= 1e-9 * optimal.score.max(1.0));
    }

    #[test]
    fn sweep_never_loses_to_faithful(seed in 0u64..10_000, computes in 2usize..8, networks in 0usize..5) {
        let (topo, ids) = random_conditions(seed, computes, networks);
        let m = 1 + (seed as usize) % ids.len().min(4);
        let sweep = balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, GreedyPolicy::Sweep).unwrap();
        let faithful = balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, GreedyPolicy::Faithful).unwrap();
        prop_assert!(sweep.score >= faithful.score - 1e-12);
    }

    #[test]
    fn selections_are_well_formed(seed in 0u64..10_000, computes in 2usize..8, networks in 0usize..5) {
        let (topo, ids) = random_conditions(seed, computes, networks);
        let m = 1 + (seed as usize) % ids.len().min(5);
        let routes = topo.routes();
        for sel in [
            max_compute(&topo, m, &Constraints::none()).unwrap(),
            max_bandwidth(&topo, m, &Constraints::none()).unwrap(),
            balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, GreedyPolicy::Sweep).unwrap(),
        ] {
            prop_assert_eq!(sel.nodes.len(), m);
            // Sorted, distinct, compute-only, mutually connected.
            prop_assert!(sel.nodes.windows(2).all(|w| w[0] < w[1]));
            for &n in &sel.nodes {
                prop_assert!(topo.node(n).is_compute());
            }
            for (i, &a) in sel.nodes.iter().enumerate() {
                for &b in sel.nodes.iter().skip(i + 1) {
                    prop_assert!(routes.path(a, b).is_ok());
                }
            }
        }
    }

    #[test]
    fn bandwidth_floor_is_respected(seed in 0u64..10_000, computes in 3usize..7) {
        let (topo, ids) = random_conditions(seed, computes, 3);
        let m = 2.min(ids.len());
        let floor = 20.0 * MBPS;
        let constraints = Constraints { min_bandwidth: Some(floor), ..Constraints::none() };
        match balanced(&topo, m, Weights::EQUAL, &constraints, None, GreedyPolicy::Sweep) {
            Ok(sel) => prop_assert!(sel.quality.min_bw >= floor - 1e-6,
                "floor violated: {}", sel.quality.min_bw),
            Err(_) => {
                // If greedy says unsatisfiable, exhaustive must agree.
                prop_assert!(exhaustive_select(&topo, m, ExhaustiveObjective::Balanced(Weights::EQUAL), &constraints, None).is_err());
            }
        }
    }

    #[test]
    fn cpu_floor_is_respected(seed in 0u64..10_000, computes in 3usize..7) {
        let (topo, ids) = random_conditions(seed, computes, 2);
        let m = 2.min(ids.len());
        let constraints = Constraints { min_cpu: Some(0.4), ..Constraints::none() };
        if let Ok(sel) = max_compute(&topo, m, &constraints) {
            prop_assert!(sel.quality.min_cpu >= 0.4 - 1e-12);
        }
    }

    #[test]
    fn determinism(seed in 0u64..10_000, computes in 2usize..7, networks in 0usize..4) {
        let (topo, ids) = random_conditions(seed, computes, networks);
        let m = 1 + (seed as usize) % ids.len().min(4);
        let a = balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, GreedyPolicy::Sweep).unwrap();
        let b = balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, GreedyPolicy::Sweep).unwrap();
        prop_assert_eq!(a, b);
    }

    /// An empty [`LedgerState`] is invisible: the materialized residual
    /// (the ledger's delta applied to the snapshot) reads bit-identically
    /// to the raw snapshot on every accessor and gets bit-identical
    /// answers from the selector.
    #[test]
    fn empty_ledger_residual_is_invisible_to_selection(seed in 0u64..100_000, computes in 3usize..8, networks in 0usize..5) {
        let (topo, ids) = random_conditions(seed, computes, networks);
        let snap = NetSnapshot::capture(Arc::new(topo));
        let ledger = LedgerState::new();
        let residual = snap.apply(&ledger.to_delta(&snap));
        let topo = snap.structure_arc();
        for n in topo.node_ids() {
            prop_assert_eq!(residual.load_avg(n).to_bits(), snap.load_avg(n).to_bits());
            prop_assert_eq!(residual.node_available(n), snap.node_available(n));
            prop_assert_eq!(residual.node_staleness(n), snap.node_staleness(n));
        }
        for e in topo.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                prop_assert_eq!(residual.used(e, dir).to_bits(), snap.used(e, dir).to_bits());
            }
            prop_assert_eq!(residual.link_available(e), snap.link_available(e));
            prop_assert_eq!(residual.link_staleness(e), snap.link_staleness(e));
        }
        let m = 1 + (seed as usize) % ids.len().min(4);
        for request in [
            SelectionRequest::compute(m),
            SelectionRequest::communication(m),
            SelectionRequest::balanced(m),
        ] {
            let on_residual = selector_for(request.objective).select(&residual, &request);
            let on_raw = selector_for(request.objective).select(&snap, &request);
            prop_assert_eq!(on_residual, on_raw, "objective {:?}", request.objective);
        }
    }
}
