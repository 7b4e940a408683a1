//! Trial-level engine parity: a full trial (warm-up, generators, Remos
//! collection, selection, application run) on the reference flow engine
//! — reachable only through the `oracle` feature's `warm_trial_on` —
//! must be bit-identical to `run_trial` on the engine that ships. This
//! is the end-to-end face of the `flow_parity` suite in
//! `nodesel-simnet`.

use nodesel_apps::AppModel;
use nodesel_core::{FlatSelector, SelectionRequest, Selector};
use nodesel_experiments::{run_trial, warm_trial_on, Condition, Strategy, Testbed, TrialConfig};
use nodesel_loadgen::{install_load, LoadConfig};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::{install_faults, FaultPlan, FlowEngine, Sim};

#[test]
fn trials_are_engine_independent() {
    let testbed = Testbed::cmu();
    let suite = AppModel::paper_suite();
    let (app, m) = &suite[0];
    let cfg = TrialConfig {
        warmup: 300.0,
        ..TrialConfig::default()
    };
    for strategy in [Strategy::Random, Strategy::Automatic] {
        for condition in [Condition::None, Condition::Both] {
            for seed in [1u64, 7] {
                let a = run_trial(&testbed, app, *m, strategy, condition, &cfg, seed);
                let oracle =
                    Sim::with_flow_engine(testbed.sim().topology().clone(), FlowEngine::Reference);
                let b = warm_trial_on(oracle, &testbed, condition, &cfg, seed)
                    .finish(app, *m, strategy);
                assert_eq!(
                    a.elapsed.to_bits(),
                    b.elapsed.to_bits(),
                    "elapsed diverged: {} {strategy:?} {condition:?} seed {seed}",
                    app.name()
                );
                assert_eq!(a.nodes, b.nodes, "selection diverged");
            }
        }
    }
}

/// Installing an *empty* `FaultPlan` must be invisible: the driver
/// schedules nothing, so warm-up, collection, and selection are
/// bit-identical to a run without the fault subsystem installed at all.
/// This pins the pre-PR behavior of every fault-free experiment.
#[test]
fn empty_fault_plan_is_invisible() {
    let testbed = Testbed::cmu();
    for seed in [3u64, 11] {
        let run = |with_plan: bool| {
            let mut sim = testbed.sim();
            let remos = Remos::install(&mut sim, CollectorConfig::default());
            install_load(
                &mut sim,
                &testbed.machines,
                LoadConfig::paper_defaults(),
                seed ^ 0x10AD,
            );
            if with_plan {
                let plan = FaultPlan::default();
                assert!(plan.is_empty());
                install_faults(&mut sim, &plan);
            }
            sim.run_for(600.0);
            let snap = remos.snapshot(&sim);
            let bits: Vec<u64> = snap
                .load_values()
                .iter()
                .chain(snap.used_values())
                .map(|v| v.to_bits())
                .collect();
            let nodes = FlatSelector::new()
                .select(&snap, &SelectionRequest::balanced(4))
                .expect("fault-free selection succeeds")
                .nodes;
            assert!(snap.node_avail_values().iter().all(|&up| up));
            assert!(snap.node_stale_values().iter().all(|&s| s == 0));
            (sim.now().as_secs_f64().to_bits(), bits, nodes)
        };
        assert_eq!(
            run(true),
            run(false),
            "empty plan perturbed the run: seed {seed}"
        );
    }
}
