//! Churn harness: random fault plans and sample loss hammer the full
//! measurement-to-selection pipeline — simulator, degraded collector,
//! and all three selection algorithms — for hundreds of epochs per case
//! (each case sees thousands of fault toggles and sample draws). The
//! stack must never panic, and every published value must be either
//! fresh or flagged stale with a monotonically-decaying confidence:
//!
//! * `staleness == 0` ⟺ `confidence == 1.0` (fresh);
//! * `confidence` equals `staleness_confidence(staleness)` exactly, and
//!   strictly falls while the staleness run grows;
//! * a value whose staleness covered the whole polling interval is
//!   bit-frozen at its last good sample;
//! * a node or link believed down contributes exactly zero
//!   `effective_cpu` / `available` bandwidth;
//! * no published metric is ever NaN;
//! * selectors may return `Err` (e.g. too few nodes left) but never
//!   panic, and any selection they do return uses only nodes believed
//!   available.

mod common;

use common::decode_fault_plan;
use nodesel_core::{selector_for, SelectError, SelectionRequest};
use nodesel_experiments::Testbed;
use nodesel_loadgen::{install_load, LoadConfig};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::install_faults;
use nodesel_topology::{staleness_confidence, Direction, NetMetrics, NetSnapshot};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Epochs per case and sim-seconds per epoch. The collector samples
/// every 2 s, so one case covers 600 s ≈ 300 collection rounds over
/// ~60 metric slots — roughly 18k sample draws — plus the fault
/// toggles of up to 4 flap processes with second-scale dwells.
const EPOCHS: usize = 150;
const EPOCH_SECS: f64 = 4.0;
const PERIOD: f64 = 2.0;

/// Staleness at or above this covers every collector tick a polling
/// interval can contain (`EPOCH_SECS / PERIOD`, plus one for boundary
/// ticks), so the value must be bit-frozen since the previous poll.
const FROZEN_AT: u32 = (EPOCH_SECS / PERIOD) as u32 + 1;

/// The freshness contract between two successive snapshots of the same
/// entity: exact confidence law, strict decay while the run grows, and
/// a bit-frozen value once the staleness run covers the whole interval.
fn check_freshness(
    staleness: u32,
    confidence: f64,
    value_bits: u64,
    prev: Option<(u32, f64, u64)>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        confidence.to_bits(),
        staleness_confidence(staleness).to_bits(),
        "confidence must follow the staleness law"
    );
    if staleness == 0 {
        prop_assert_eq!(confidence.to_bits(), 1.0f64.to_bits());
    } else {
        prop_assert!(confidence < 1.0, "stale data must be flagged");
    }
    if let Some((p_stale, p_conf, p_bits)) = prev {
        if staleness > p_stale {
            if staleness <= 4096 {
                prop_assert!(confidence < p_conf, "confidence must decay while stale");
            }
            if staleness >= p_stale + FROZEN_AT {
                prop_assert_eq!(
                    value_bits,
                    p_bits,
                    "a fully-missed interval must freeze the value"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn churn_degrades_gracefully_and_never_panics(
        seed in 0u64..1_000_000,
        loss in 0.0f64..0.45,
        raw_sched in proptest::collection::vec((0u32..6000, 0u8..6, 0u16..1024), 0..12),
        raw_flaps in proptest::collection::vec(
            (0u8..2, 0u16..1024, 0u32..1500, 0u32..1500), 1..5),
    ) {
        let testbed = Testbed::cmu();
        let mut sim = testbed.sim();
        let remos = Remos::install(
            &mut sim,
            CollectorConfig {
                period: PERIOD,
                window: 8,
                loss,
                seed,
                ..CollectorConfig::default()
            },
        );
        install_load(
            &mut sim,
            &testbed.machines,
            LoadConfig::paper_defaults(),
            seed ^ 0x10AD,
        );
        install_faults(&mut sim, &decode_fault_plan(&raw_sched, &raw_flaps, 0.5, seed ^ 0xFA));

        // One request per objective, re-selected every epoch.
        let requests = [
            SelectionRequest::compute(4),
            SelectionRequest::communication(4),
            SelectionRequest::balanced(4),
        ];
        let mut prev: Option<NetSnapshot> = None;

        for _epoch in 0..EPOCHS {
            sim.run_for(EPOCH_SECS);
            let _ = sim.take_killed_tasks();
            let _ = sim.take_aborted_flows();
            let snap = remos.snapshot(&sim);
            let topo = snap.structure_arc().clone();

            for n in topo.node_ids() {
                prop_assert!(!snap.load_avg(n).is_nan());
                prop_assert!(!snap.effective_cpu(n).is_nan());
                if !snap.node_available(n) {
                    prop_assert_eq!(snap.effective_cpu(n), 0.0, "down node {:?}", n);
                }
                check_freshness(
                    snap.node_staleness(n),
                    snap.node_confidence(n),
                    snap.load_avg(n).to_bits(),
                    prev.as_ref().map(|p| {
                        (p.node_staleness(n), p.node_confidence(n), p.load_avg(n).to_bits())
                    }),
                )?;
            }
            for e in topo.edge_ids() {
                for dir in [Direction::AtoB, Direction::BtoA] {
                    prop_assert!(!snap.used(e, dir).is_nan());
                    prop_assert!(!snap.available(e, dir).is_nan());
                    if !snap.link_available(e) {
                        prop_assert_eq!(snap.available(e, dir), 0.0, "down link {:?}", e);
                    }
                    check_freshness(
                        snap.link_staleness(e),
                        snap.link_confidence(e),
                        snap.used(e, dir).to_bits(),
                        prev.as_ref().map(|p| {
                            (p.link_staleness(e), p.link_confidence(e), p.used(e, dir).to_bits())
                        }),
                    )?;
                }
            }

            for req in &requests {
                match selector_for(req.objective).select(&snap, req) {
                    Ok(selection) => {
                        prop_assert_eq!(selection.nodes.len(), req.count);
                        for &n in &selection.nodes {
                            prop_assert!(
                                snap.node_available(n),
                                "selected a node believed down: {:?}", n
                            );
                        }
                    }
                    // Heavy churn can leave too few usable nodes; an
                    // error is the contract, a panic is the bug.
                    Err(SelectError::NotEnoughNodes { .. } | SelectError::Unsatisfiable) => {}
                    Err(other) => {
                        return Err(TestCaseError::fail(format!(
                            "unexpected selection error under churn: {other:?}"
                        )));
                    }
                }
            }
            prev = Some(snap);
        }
    }
}
