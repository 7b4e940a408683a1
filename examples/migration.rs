//! Dynamic migration of a long-running job (§3.3, "Dynamic migration").
//!
//! A job is placed well, then the network changes underneath it: heavy
//! compute load lands on one of its nodes and a bulk stream congests one
//! of its paths. The migration advisor discounts the job's own footprint,
//! re-runs selection, and recommends a move only when the gain clears a
//! hysteresis threshold.
//!
//! Run with: `cargo run -p nodesel-experiments --example migration`

use nodesel_core::migration::{Advisor, OwnUsage};
use nodesel_core::{FlatSelector, SelectionRequest, Selector};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::Sim;
use nodesel_topology::testbeds::cmu_testbed;

fn main() {
    let tb = cmu_testbed();
    let mut sim = Sim::new(tb.topo.clone());
    let remos = Remos::install(&mut sim, CollectorConfig::default());

    // Initial placement on the idle testbed, from the collector's
    // versioned snapshot.
    let request = SelectionRequest::balanced(4);
    let mut selector = FlatSelector::new();
    let initial = selector.select(&remos.snapshot(&sim), &request).unwrap();
    let name = |n| tb.topo.node(n).name().to_string();
    let placed: Vec<String> = initial.nodes.iter().map(|&n| name(n)).collect();
    println!("initial placement: {placed:?} (score {:.2})", initial.score);

    // The job runs: one process per node.
    for &n in &initial.nodes {
        sim.start_compute(n, 1e9, |_| {});
    }
    let own = OwnUsage::one_process_per_node(&initial.nodes);

    // Check periodically while the environment degrades: each check is
    // the selection procedure applied afresh to the discounted snapshot.
    let advisor = Advisor::new(request.clone(), 0.25);
    println!("\n t(s)  current  best   recommend  move");
    for step in 0..6 {
        sim.run_for(120.0);
        if step == 1 {
            // Competing jobs land on the first two placed nodes.
            for &n in &initial.nodes[..2] {
                for _ in 0..3 {
                    sim.start_compute(n, 1e9, |_| {});
                }
            }
        }
        let snapshot = remos.snapshot(&sim);
        let advice = advisor.advise(&snapshot, &initial.nodes, &own).unwrap();
        let vacated: Vec<String> = advice
            .vacated(&initial.nodes)
            .iter()
            .map(|&n| name(n))
            .collect();
        println!(
            "{:>5.0}  {:>7.2}  {:>5.2}  {:>9}  {}",
            sim.now().as_secs_f64(),
            advice.current_score,
            advice.best.score,
            advice.recommended,
            if advice.recommended {
                format!("vacate {vacated:?}")
            } else {
                "stay".to_string()
            }
        );
    }
}
