//! Parity proptests: the incremental flow engine (sharing-cluster
//! reallocation + completion heap + lazy settlement) must be bit-identical
//! to the full-recompute reference on arbitrary churn sequences — same
//! rates, link rates, remaining bits, byte counters, and completion order.

mod common;

use nodesel_simnet::{FlowEngine, FlowId, FlowTable, Sim, SimTime};
use nodesel_topology::builders::random_tree;
use nodesel_topology::units::MBPS;
use nodesel_topology::{Direction, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One churn step against both tables.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Add a flow between two (distinct) random nodes.
    Add { bits: f64 },
    /// Remove a random live flow (cancellation).
    Remove,
    /// Advance time and drain completions.
    Advance { secs: f64 },
}

fn random_ops(rng: &mut StdRng, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| match rng.random_range(0..5u32) {
            0 | 1 => Op::Add {
                bits: rng.random_range(0.0..400.0) * MBPS,
            },
            2 => Op::Remove,
            _ => Op::Advance {
                secs: rng.random_range(0.0..3.0),
            },
        })
        .collect()
}

/// Asserts every observable of the two tables matches bit-for-bit.
fn assert_tables_match(topo: &Topology, live: &[FlowId], a: &FlowTable, b: &FlowTable) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.next_completion(), b.next_completion());
    for &id in live {
        assert_eq!(
            a.flow_rate(id).map(f64::to_bits),
            b.flow_rate(id).map(f64::to_bits),
            "rate mismatch for {id:?}"
        );
        assert_eq!(
            a.remaining(id).map(f64::to_bits),
            b.remaining(id).map(f64::to_bits),
            "remaining mismatch for {id:?}"
        );
        assert_eq!(a.endpoints(id), b.endpoints(id));
    }
    for e in topo.edge_ids() {
        for dir in [Direction::AtoB, Direction::BtoA] {
            assert_eq!(
                a.link_rate(e, dir).to_bits(),
                b.link_rate(e, dir).to_bits(),
                "link rate mismatch on {e:?}/{dir:?}"
            );
            assert_eq!(
                a.link_bits(e, dir).to_bits(),
                b.link_bits(e, dir).to_bits(),
                "byte counter mismatch on {e:?}/{dir:?}"
            );
        }
    }
}

/// Drives the same churn script through an incremental and a reference
/// table, checking full observable parity after every step.
fn run_parity(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let computes = rng.random_range(2..7);
    let networks = rng.random_range(0..5);
    let (topo, ids) = random_tree(&mut rng, computes, networks, 100.0 * MBPS);
    let routes = topo.routes();
    let mut inc = FlowTable::new(&topo);
    let mut oracle = FlowTable::with_engine(&topo, FlowEngine::Reference);
    assert_eq!(inc.engine(), FlowEngine::Incremental);
    let mut now = SimTime::ZERO;
    let mut next_id = 1u64;
    let mut live: Vec<FlowId> = Vec::new();
    let mut finished_inc = Vec::new();
    let mut finished_ref = Vec::new();
    for op in random_ops(&mut rng, steps) {
        match op {
            Op::Add { bits } => {
                let a = ids[rng.random_range(0..ids.len())];
                let b = ids[rng.random_range(0..ids.len())];
                if a == b {
                    continue;
                }
                let id = FlowId(next_id);
                next_id += 1;
                let path = routes.path(a, b).unwrap();
                inc.add_flow(id, &path, bits);
                oracle.add_flow(id, &path, bits);
                live.push(id);
            }
            Op::Remove => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(rng.random_range(0..live.len()));
                assert!(inc.remove_flow(id));
                assert!(oracle.remove_flow(id));
            }
            Op::Advance { secs } => {
                now = now.after_secs_f64(secs);
                inc.settle(now);
                oracle.settle(now);
                assert_eq!(inc.next_wake(), oracle.next_wake());
                inc.take_finished_into(&mut finished_inc);
                oracle.take_finished_into(&mut finished_ref);
                // Completion order parity (both are drained in id order).
                assert_eq!(finished_inc, finished_ref);
                live.retain(|id| !finished_inc.contains(id));
            }
        }
        assert_tables_match(&topo, &live, &inc, &oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental and reference engines agree bit-for-bit on every
    /// observable after every step of a random churn sequence.
    #[test]
    fn incremental_matches_reference_on_random_churn(seed in 0u64..100_000) {
        run_parity(seed, 60);
    }

    /// Whole-simulation parity: a Sim driven by each engine produces the
    /// same final clock, statistics, event trace, and octet counters.
    #[test]
    fn sim_runs_are_engine_independent(seed in 0u64..100_000) {
        let run = |engine| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51A7);
            let (topo, ids) = random_tree(&mut rng, 4, 2, 100.0 * MBPS);
            let mut sim = Sim::with_flow_engine(topo.clone(), engine);
            sim.enable_trace(usize::MAX);
            for _ in 0..rng.random_range(1..10) {
                let a = ids[rng.random_range(0..ids.len())];
                let b = ids[rng.random_range(0..ids.len())];
                if a == b {
                    continue;
                }
                let bits = rng.random_range(0.0..300.0) * MBPS;
                let delay = rng.random_range(0.0..5.0);
                sim.schedule_in(delay, move |s| {
                    s.start_transfer(a, b, bits, |_| {});
                });
            }
            let end = sim.run();
            let mut counters = Vec::new();
            for e in topo.edge_ids() {
                for dir in [Direction::AtoB, Direction::BtoA] {
                    counters.push(sim.link_bits(e, dir).to_bits());
                }
            }
            (end, sim.stats(), sim.take_trace().0, counters)
        };
        prop_assert_eq!(run(FlowEngine::Incremental), run(FlowEngine::Reference));
    }

    /// Starved flows (zero-capacity direction) are engine-parity too and
    /// never produce a completion.
    #[test]
    fn starved_flows_stay_parked(bits in 1.0f64..1e9) {
        let mut topo = Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        topo.add_link_full(a, b, 0.0, 100.0 * MBPS, 0.0);
        let routes = topo.routes();
        let path = routes.path(a, b).unwrap();
        for engine in [FlowEngine::Incremental, FlowEngine::Reference] {
            let mut ft = FlowTable::with_engine(&topo, engine);
            ft.add_flow(FlowId(1), &path, bits);
            prop_assert_eq!(ft.flow_rate(FlowId(1)), Some(0.0));
            prop_assert_eq!(ft.next_wake(), SimTime::NEVER);
            ft.settle(SimTime::from_secs(86_400));
            prop_assert!(ft.take_finished().is_empty());
            prop_assert_eq!(ft.remaining(FlowId(1)).map(f64::to_bits), Some(bits.to_bits()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Engine parity survives faults: on a federation under per-subnet
    /// churn, scheduled crashes and stochastic node flaps, the
    /// incremental and the reference engine produce the same final
    /// clock, statistics and event trace.
    #[test]
    fn faulty_federation_runs_are_engine_independent(seed in 0u64..100_000) {
        let (topo, subnets) = common::federation(4);
        let run = |engine| common::faulty_run(&topo, &subnets, seed, 14.0, engine);
        prop_assert_eq!(run(FlowEngine::Incremental), run(FlowEngine::Reference));
    }
}
