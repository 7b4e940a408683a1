//! End-to-end pump: simulated network → Remos collector →
//! [`Remos::snapshot_if_new`] → [`PlacementService::ingest`] → `get`.
//!
//! The loop a deployment runs: a pump thread polls the collector, feeds
//! only *new* epochs to the service (diffed into exact deltas by
//! `ingest`), and request threads ask for placements. Parity is checked
//! at every round against a fresh solve on the published snapshot, and
//! the accounting on both sides (snapshot hit/miss, epochs published,
//! hit + solve = requests) must line up.

use std::sync::Arc;

use nodesel_core::{selector_for, SelectionRequest};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_service::{PlacementService, ServiceConfig};
use nodesel_simnet::{Sim, SimTime};
use nodesel_topology::builders::star;
use nodesel_topology::units::MBPS;

#[test]
fn pump_feeds_service_and_answers_track_epochs() {
    let (topo, ids) = star(6, 100.0 * MBPS);
    let mut sim = Sim::new(topo);
    let remos = Remos::install(&mut sim, CollectorConfig::default());
    sim.run_until(SimTime::from_secs(30));
    let initial = remos.snapshot(&sim);
    let svc = PlacementService::new(Arc::new(initial), ServiceConfig::default());
    let requests = [
        SelectionRequest::compute(2),
        SelectionRequest::communication(3),
        SelectionRequest::balanced(2),
    ];
    let mut pumped = 0u64;
    let mut skipped = 0u64;
    for round in 0..20usize {
        // Keep the network churning: short compute bursts on rotating
        // nodes, so some collector samples change estimates and some
        // don't (exercising both pump branches).
        if round % 3 == 0 {
            sim.start_compute_detached(ids[round % ids.len()], 40.0);
        }
        sim.run_until(SimTime::from_secs(30 + 30 * (round as u64 + 1)));
        match remos.snapshot_if_new(&sim) {
            Some(snap) => {
                svc.ingest(snap);
                pumped += 1;
            }
            None => skipped += 1,
        }
        let snap = svc.snapshot();
        for request in &requests {
            let placement = svc.get(request);
            assert_eq!(placement.epoch, snap.epoch());
            let fresh = selector_for(request.objective).select(&snap, request);
            assert_eq!(
                placement.result, fresh,
                "round {round}: served answer drifted from a fresh solve"
            );
        }
    }
    assert!(pumped >= 2, "the churn must have published new epochs");
    let stats = svc.stats();
    assert_eq!(stats.requests, stats.cache_hits + stats.solves);
    assert_eq!(stats.epochs_published, pumped);
    assert!(
        stats.cache_hits > 0,
        "repeated specs across quiet rounds must hit: {stats:?}"
    );
    // The remos side of the ledger: every skipped round was a snapshot
    // hit on the handle, every pumped round a miss.
    let qs = remos.query_stats();
    assert_eq!(qs.snapshot_hits, skipped);
    assert_eq!(qs.snapshot_misses, pumped + 1); // + the initial snapshot
}
