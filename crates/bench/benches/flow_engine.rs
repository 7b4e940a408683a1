//! Flow-engine bench: incremental max-min engine vs the full-recompute
//! reference, measured as simulator events/sec under background traffic on
//! the CMU testbed at three intensities (multiples of the paper's Poisson
//! arrival rate), plus *federated* scenarios (many independent subnets in
//! one simulator) where the sharing graph actually decomposes and
//! cluster-scoped reallocation pays off. A speedup table is printed and
//! the `flow_engine` section of `BENCH_simnet.json` (events/sec per
//! setting, a Table-1 trial wall-clock) is recorded at the workspace
//! root so the perf trajectory is comparable across PRs;
//! `-- --test` validates without writing. The reference engine is the
//! simulator's `oracle` feature, which this crate's benches turn on.

use nodesel_apps::AppModel;
use nodesel_experiments::{record, run_trial, Condition, Strategy, Testbed, TrialConfig};
use nodesel_loadgen::{install_load, install_traffic, LoadConfig, TrafficConfig};
use nodesel_simnet::{FlowEngine, Sim};
use nodesel_topology::builders::federation;
use nodesel_topology::testbeds::cmu_testbed;
use std::hint::black_box;
use std::time::Instant;

const SIM_SECONDS: f64 = 600.0;

/// Background-traffic settings: multiples of the paper's arrival rate.
const INTENSITIES: [(&str, f64); 3] = [("low", 1.0), ("med", 4.0), ("high", 16.0)];

/// Federated settings: (label, subnet count, arrival-rate multiple).
const FEDERATED: [(&str, usize, f64); 2] = [("fed8", 8, 4.0), ("fed32", 32, 4.0)];

fn traffic_at(mult: f64) -> TrafficConfig {
    let mut t = TrafficConfig::paper_defaults();
    t.arrival_rate *= mult;
    t
}

/// One busy-testbed run; returns the number of events dispatched.
fn run_busy(engine: FlowEngine, mult: f64) -> u64 {
    let tb = cmu_testbed();
    let mut sim = Sim::with_flow_engine(tb.topo.clone(), engine);
    install_load(&mut sim, &tb.machines, LoadConfig::paper_defaults(), 1);
    install_traffic(&mut sim, &tb.machines, traffic_at(mult), 2);
    sim.run_for(SIM_SECONDS);
    sim.stats().events
}

/// One federated run; returns the number of events dispatched.
fn run_federated(engine: FlowEngine, k: usize, mult: f64) -> u64 {
    let (topo, subnets) = federation(k, None);
    let mut sim = Sim::with_flow_engine(topo, engine);
    for (s, hosts) in subnets.iter().enumerate() {
        install_traffic(&mut sim, hosts, traffic_at(mult), 100 + s as u64);
    }
    sim.run_for(SIM_SECONDS);
    sim.stats().events
}

/// (events dispatched, median wall seconds over `iters` runs).
fn measure(run: impl Fn() -> u64, iters: usize) -> (u64, f64) {
    let mut events = 0;
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            events = run();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (events, samples[samples.len() / 2])
}

/// Panics unless `doc` carries the section this bench (and the CI smoke
/// step) promises of `BENCH_simnet.json`: the schema-drift tripwire.
fn validate_schema(doc: &serde_json::Value) {
    let s = doc
        .get("flow_engine")
        .expect("BENCH_simnet.json lost its flow_engine section");
    for key in [
        "testbed",
        "sim_seconds",
        "intensities",
        "federated",
        "table1_trial",
    ] {
        assert!(s.get(key).is_some(), "flow_engine section lost `{key}`");
    }
}

fn main() {
    eprintln!("\n=== simnet flow engines: busy CMU testbed, {SIM_SECONDS} simulated seconds ===");
    eprintln!(
        "{:<6} {:>10} {:>16} {:>16} {:>9}",
        "load", "events", "reference ev/s", "incremental ev/s", "speedup"
    );
    let mut rows = Vec::new();
    for (label, mult) in INTENSITIES {
        let (events, slow) = measure(|| run_busy(FlowEngine::Reference, mult), 3);
        let (ev2, fast) = measure(|| run_busy(FlowEngine::Incremental, mult), 3);
        assert_eq!(events, ev2, "engines dispatched different event counts");
        let (ref_eps, inc_eps) = (events as f64 / slow, events as f64 / fast);
        eprintln!(
            "{label:<6} {events:>10} {ref_eps:>16.0} {inc_eps:>16.0} {:>8.1}x",
            slow / fast
        );
        rows.push(serde_json::json!({
            "label": label,
            "arrival_rate_multiple": mult,
            "events": events,
            "reference_events_per_sec": ref_eps,
            "incremental_events_per_sec": inc_eps,
            "speedup": slow / fast,
        }));
    }
    let mut fed_rows = Vec::new();
    for (label, k, mult) in FEDERATED {
        let (events, slow) = measure(|| run_federated(FlowEngine::Reference, k, mult), 3);
        let (ev2, fast) = measure(|| run_federated(FlowEngine::Incremental, k, mult), 3);
        assert_eq!(events, ev2, "engines dispatched different event counts");
        let (ref_eps, inc_eps) = (events as f64 / slow, events as f64 / fast);
        eprintln!(
            "{label:<6} {events:>10} {ref_eps:>16.0} {inc_eps:>16.0} {:>8.1}x",
            slow / fast
        );
        fed_rows.push(serde_json::json!({
            "label": label,
            "subnets": k,
            "arrival_rate_multiple": mult,
            "events": events,
            "reference_events_per_sec": ref_eps,
            "incremental_events_per_sec": inc_eps,
            "speedup": slow / fast,
        }));
    }

    // One full Table-1 trial (warmup + generators + selection + app run):
    // the end-to-end wall-clock unit the sweeps are built from.
    let suite = AppModel::paper_suite();
    let (app, m) = &suite[0];
    let testbed = Testbed::cmu();
    let t = Instant::now();
    black_box(run_trial(
        &testbed,
        app,
        *m,
        Strategy::Automatic,
        Condition::Both,
        &TrialConfig::default(),
        1,
    ));
    let trial_wall = t.elapsed().as_secs_f64();
    eprintln!("table1 trial ({}): {trial_wall:.3} s wall", app.name());

    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simnet.json"),
        "flow_engine",
        serde_json::json!({
            "testbed": "cmu",
            "sim_seconds": SIM_SECONDS,
            "intensities": rows,
            "federated": fed_rows,
            "table1_trial": { "app": app.name(), "wall_secs": trial_wall },
        }),
        validate_schema,
    );
}
