//! Integration of the migration advisor with the live measurement
//! pipeline: a running application's placement is re-evaluated as the
//! network degrades, discounting the application's own footprint.

use nodesel_core::migration::{Advisor, OwnUsage};
use nodesel_core::SelectionRequest;
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::Sim;
use nodesel_topology::testbeds::cmu_testbed;
use nodesel_topology::NetMetrics;

#[test]
fn own_footprint_does_not_trigger_migration() {
    let tb = cmu_testbed();
    let mut sim = Sim::new(tb.topo.clone());
    let remos = Remos::install(&mut sim, CollectorConfig::default());
    let placed = vec![tb.m(1), tb.m(2), tb.m(3), tb.m(4)];
    for &n in &placed {
        sim.start_compute(n, 1e9, |_| {});
    }
    sim.run_for(600.0);
    // The measured topology shows load ≈ 1.0 on our nodes — all of it
    // ours. After discounting, there is nothing to flee from.
    let snapshot = remos.snapshot(&sim);
    assert!(snapshot.load_avg(tb.m(1)) > 0.9);
    let advice = Advisor::new(SelectionRequest::balanced(4), 0.1)
        .advise(&snapshot, &placed, &OwnUsage::one_process_per_node(&placed))
        .unwrap();
    assert!(!advice.recommended, "advice: {advice:?}");
    assert!((advice.current_score - 1.0).abs() < 0.15);
}

#[test]
fn competing_load_triggers_migration_to_quiet_nodes() {
    let tb = cmu_testbed();
    let mut sim = Sim::new(tb.topo.clone());
    let remos = Remos::install(&mut sim, CollectorConfig::default());
    let placed = vec![tb.m(1), tb.m(2), tb.m(3), tb.m(4)];
    for &n in &placed {
        sim.start_compute(n, 1e9, |_| {});
    }
    // Competitors pile on m-1 and m-2.
    for _ in 0..4 {
        sim.start_compute(tb.m(1), 1e9, |_| {});
        sim.start_compute(tb.m(2), 1e9, |_| {});
    }
    sim.run_for(600.0);
    let snapshot = remos.snapshot(&sim);
    let advice = Advisor::new(SelectionRequest::balanced(4), 0.25)
        .advise(&snapshot, &placed, &OwnUsage::one_process_per_node(&placed))
        .unwrap();
    assert!(advice.recommended);
    let vacated = advice.vacated(&placed);
    assert!(vacated.contains(&tb.m(1)) && vacated.contains(&tb.m(2)));
    // The replacement set must be strictly better on the discounted view.
    assert!(advice.best.score > advice.current_score * 1.25);
}
