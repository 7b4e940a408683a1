//! Two-level selection parity and error-bound guarantees at small n.
//!
//! Random hierarchical fabrics (1–5 star domains of 3–9 hosts, seeded
//! loads and trunk utilizations). Three guarantees, all over the full
//! `Result` where applicable:
//!
//! * **Degeneracy**: with a single domain, [`TwoLevelSelector`] is
//!   bit-identical to the flat selector — nodes, quality, score,
//!   iterations, and errors — on the first epoch and on a churned one.
//! * **Feasible and close**: on multi-domain fabrics the two-level
//!   answer is feasible, and the exact flat value exceeds the two-level
//!   achieved value by at most the *reported* error bound — the bound
//!   published in [`nodesel_core::TwoLevelOutcome`] is sound, not
//!   aspirational.
//! * **Reuse parity**: a selector that already served an epoch answers
//!   the churned next one exactly as a new selector does (its per-epoch
//!   domain summaries never leak across epochs), with a bound that is
//!   still sound.

use nodesel_core::{select, selector_for, Objective, SelectionRequest, Selector, TwoLevelSelector};
use nodesel_topology::builders::hierarchical;
use nodesel_topology::units::MBPS;
use nodesel_topology::{Direction, LedgerState, NetDelta, NetMetrics, NetSnapshot, ResidualView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A seeded hierarchical fabric with randomized conditions.
fn random_hierarchy(seed: u64, domains: usize, hosts: usize) -> NetSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut topo, _) = hierarchical(
        domains,
        hosts,
        100.0 * MBPS,
        rng.random_range(10.0..80.0) * MBPS,
        rng.random_range(1e-4..5e-3),
    );
    for n in topo.compute_nodes().collect::<Vec<_>>() {
        topo.set_load_avg(n, rng.random_range(0.0..4.0));
    }
    for e in topo.edge_ids().collect::<Vec<_>>() {
        for dir in [Direction::AtoB, Direction::BtoA] {
            let cap = topo.link(e).capacity(dir);
            topo.set_link_used(e, dir, cap * rng.random_range(0.0..0.9));
        }
    }
    NetSnapshot::capture(Arc::new(topo))
}

fn requests(m: usize) -> [SelectionRequest; 3] {
    [
        SelectionRequest::compute(m),
        SelectionRequest::communication(m),
        SelectionRequest::balanced(m),
    ]
}

/// The flat objective value a selection achieved, for bound checks.
fn value(objective: Objective, sel: &nodesel_core::Selection) -> f64 {
    match objective {
        Objective::Compute => sel.quality.min_cpu,
        Objective::Communication => sel.quality.min_bw,
        Objective::Balanced(_) => sel.score,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_domain_degenerates_bit_identically(
        seed in 0u64..100_000,
        hosts in 3usize..10,
    ) {
        let snap = random_hierarchy(seed, 1, hosts);
        for request in requests(1 + (seed as usize) % hosts.min(4)) {
            let mut two = TwoLevelSelector::new();
            let mut flat = selector_for(request.objective);
            let a = two.select(&snap, &request);
            let b = flat.select(&snap, &request);
            prop_assert_eq!(&a, &b, "objective {:?}", request.objective);
            // And on the next epoch: same churn, same answers.
            let delta = NetDelta {
                nodes: snap
                    .structure_arc()
                    .compute_nodes()
                    .take(2)
                    .map(|n| (n, 2.5))
                    .collect(),
                ..NetDelta::default()
            };
            let next = snap.apply(&delta);
            prop_assert_eq!(
                two.select(&next, &request),
                flat.select(&next, &request),
                "churned epoch, objective {:?}", request.objective
            );
        }
    }

    #[test]
    fn multi_domain_is_feasible_and_close(
        seed in 0u64..100_000,
        domains in 2usize..6,
        hosts in 3usize..8,
    ) {
        let snap = random_hierarchy(seed, domains, hosts);
        let m = 1 + (seed as usize) % hosts;
        for request in requests(m) {
            let mut two = TwoLevelSelector::new();
            let approx = two.select(&snap, &request).unwrap();
            prop_assert_eq!(approx.nodes.len(), m);
            let outcome = two.last_outcome().unwrap().clone();
            // Exact flat selection on the same conditions.
            let flat = select(&snap.to_topology(), &request).unwrap();
            let flat_value = value(request.objective, &flat);
            prop_assert!(
                outcome.achieved <= outcome.upper_bound + 1e-9,
                "achieved {} above its own bound {}",
                outcome.achieved, outcome.upper_bound
            );
            // The reported error bound must cover the true regret. (Both
            // values are +inf for a single-node communication request —
            // no pairs — which is zero regret, not NaN.)
            let regret = if flat_value <= outcome.achieved {
                0.0
            } else {
                flat_value - outcome.achieved
            };
            prop_assert!(
                regret <= outcome.error_bound + 1e-9,
                "{:?}: flat {} vs two-level {} exceeds reported bound {}",
                request.objective, flat_value, outcome.achieved, outcome.error_bound
            );
        }
    }

    #[test]
    fn reused_selector_equals_a_new_one_after_churn(
        seed in 0u64..100_000,
        domains in 1usize..5,
        hosts in 3usize..8,
    ) {
        let snap = random_hierarchy(seed, domains, hosts);
        let m = 1 + (seed as usize) % hosts.min(4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
        for request in requests(m) {
            let mut sel = TwoLevelSelector::new();
            sel.select(&snap, &request).unwrap();
            // Churn a few loads and one trunk utilization.
            let computes: Vec<_> = snap.structure_arc().compute_nodes().collect();
            let edges: Vec<_> = snap.structure_arc().edge_ids().collect();
            let e = edges[rng.random_range(0..edges.len())];
            let cap = snap.structure_arc().link(e).capacity(Direction::AtoB);
            let delta = NetDelta {
                nodes: (0..3)
                    .map(|_| {
                        (
                            computes[rng.random_range(0..computes.len())],
                            rng.random_range(0.0..5.0),
                        )
                    })
                    .collect(),
                links: vec![(e, Direction::AtoB, cap * rng.random_range(0.0..0.9))],
                ..NetDelta::default()
            };
            let next = snap.apply(&delta);
            let reused = sel.select(&next, &request);
            let fresh = TwoLevelSelector::new().select(&next, &request);
            prop_assert_eq!(&reused, &fresh, "objective {:?}", request.objective);
            // The bound reported for the churned epoch covers the exact
            // flat optimum on that epoch.
            if let (Some(outcome), Ok(_)) = (sel.last_outcome(), &reused) {
                let flat = select(&next.to_topology(), &request).unwrap();
                let flat_value = value(request.objective, &flat);
                let regret = if flat_value <= outcome.achieved {
                    0.0
                } else {
                    flat_value - outcome.achieved
                };
                prop_assert!(
                    regret <= outcome.error_bound + 1e-9,
                    "{:?}: flat {} vs two-level {} exceeds reported bound {}",
                    request.objective, flat_value, outcome.achieved, outcome.error_bound
                );
            }
        }
    }

    /// An empty [`LedgerState`] is invisible: the [`ResidualView`] over
    /// it reports every metric bit-identically to the raw snapshot, and
    /// the materialized residual (the ledger's delta applied to the
    /// snapshot) yields bit-identical answers from both the two-level
    /// and the flat selectors.
    #[test]
    fn empty_ledger_residual_is_invisible_to_selection(
        seed in 0u64..100_000,
        domains in 1usize..5,
        hosts in 3usize..8,
    ) {
        let snap = random_hierarchy(seed, domains, hosts);
        let ledger = LedgerState::new();
        let view = ResidualView::new(&snap, &ledger);
        let topo = snap.structure_arc();
        for n in topo.node_ids() {
            prop_assert_eq!(view.load_avg(n).to_bits(), snap.load_avg(n).to_bits());
            prop_assert_eq!(view.node_available(n), snap.node_available(n));
            prop_assert_eq!(view.node_staleness(n), snap.node_staleness(n));
        }
        for e in topo.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                prop_assert_eq!(view.used(e, dir).to_bits(), snap.used(e, dir).to_bits());
                prop_assert_eq!(view.link_available(e), snap.link_available(e));
            }
        }
        let residual = snap.apply(&ledger.to_delta(&snap));
        let m = 1 + (seed as usize) % hosts.min(4);
        for request in requests(m) {
            let a = TwoLevelSelector::new().select(&residual, &request);
            let b = TwoLevelSelector::new().select(&snap, &request);
            prop_assert_eq!(a, b, "two-level, objective {:?}", request.objective);
            let c = selector_for(request.objective).select(&residual, &request);
            let d = selector_for(request.objective).select(&snap, &request);
            prop_assert_eq!(c, d, "flat, objective {:?}", request.objective);
        }
    }
}
