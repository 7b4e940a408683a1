//! Fork parity proptests: continuing a trial from a forked warm state
//! must be bit-identical to running it straight through with the same
//! seed — same turnaround bits, same selected nodes — for arbitrary
//! seeds, every strategy and every background condition, on the flow
//! engine that ships. This is the trial-level face of the fork tests in
//! `nodesel-simnet`, and the property the shared-warmup batch runners
//! stand on.

mod common;

use common::decode_fault_plan;
use nodesel_apps::AppModel;
use nodesel_experiments::{
    run_trial, warm_trial, Condition, Strategy as Placement, Testbed, TrialConfig,
};
use nodesel_loadgen::{install_load, LoadConfig};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::{install_faults, Sim};
use nodesel_topology::{Direction, NetMetrics};
use proptest::prelude::*;

fn config() -> TrialConfig {
    TrialConfig {
        // Short warm-up keeps each case affordable; parity must hold at
        // any boundary, so the length is irrelevant to the property.
        warmup: 150.0,
        ..TrialConfig::default()
    }
}

fn conditions() -> impl Strategy<Value = Condition> {
    prop_oneof![
        Just(Condition::None),
        Just(Condition::Load),
        Just(Condition::Traffic),
        Just(Condition::Both),
    ]
}

fn placements() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::Random),
        Just(Placement::Automatic),
        Just(Placement::Oracle),
        Just(Placement::Static),
    ]
}

/// Every observable a fault touches must agree bitwise between two sims:
/// clock, ground-truth load and utilization, up/down state, and the
/// degraded collector view (values, availability, staleness).
fn assert_same_world(
    a: &Sim,
    b: &Sim,
    ra: &Remos,
    rb: &Remos,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(
        a.now().as_secs_f64().to_bits(),
        b.now().as_secs_f64().to_bits(),
        "clocks diverged"
    );
    let (oa, ob) = (a.oracle_snapshot(), b.oracle_snapshot());
    let (sa, sb) = (ra.snapshot(a), rb.snapshot(b));
    for n in oa.node_ids() {
        prop_assert_eq!(
            oa.node(n).load_avg().to_bits(),
            ob.node(n).load_avg().to_bits()
        );
        prop_assert_eq!(a.node_is_up(n), b.node_is_up(n), "node {:?} up-state", n);
        prop_assert_eq!(sa.load_avg(n).to_bits(), sb.load_avg(n).to_bits());
        prop_assert_eq!(sa.node_available(n), sb.node_available(n));
        prop_assert_eq!(sa.node_staleness(n), sb.node_staleness(n));
    }
    for e in oa.edge_ids() {
        prop_assert_eq!(a.link_is_up(e), b.link_is_up(e), "link {:?} up-state", e);
        prop_assert_eq!(sa.link_available(e), sb.link_available(e));
        prop_assert_eq!(sa.link_staleness(e), sb.link_staleness(e));
        for dir in [Direction::AtoB, Direction::BtoA] {
            prop_assert_eq!(
                oa.link(e).used(dir).to_bits(),
                ob.link(e).used(dir).to_bits()
            );
            prop_assert_eq!(sa.used(e, dir).to_bits(), sb.used(e, dir).to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// fork() at the warm-up boundary, then finish: bit-identical to a
    /// straight-through `run_trial` with the same seed.
    #[test]
    fn forked_continuation_is_bit_identical(
        seed in 0u64..1_000_000,
        app_idx in 0usize..3,
        condition in conditions(),
        placement in placements(),
    ) {
        let testbed = Testbed::cmu();
        let suite = AppModel::paper_suite();
        let (app, m) = &suite[app_idx];
        let cfg = config();

        let warm = warm_trial(&testbed, condition, &cfg, seed);
        let forked = warm.fork().finish(app, *m, placement);
        let straight = run_trial(&testbed, app, *m, placement, condition, &cfg, seed);

        prop_assert_eq!(
            forked.elapsed.to_bits(),
            straight.elapsed.to_bits(),
            "elapsed diverged: {} {:?} {:?} seed {}",
            app.name(), placement, condition, seed
        );
        prop_assert_eq!(forked.nodes, straight.nodes, "selection diverged");
    }

    /// Sibling forks of one warm state are independent: two forks given
    /// different strategies each match their own straight-through run,
    /// and finishing one fork does not perturb the other.
    #[test]
    fn sibling_forks_do_not_interfere(
        seed in 0u64..1_000_000,
        app_idx in 0usize..3,
        condition in conditions(),
    ) {
        let testbed = Testbed::cmu();
        let suite = AppModel::paper_suite();
        let (app, m) = &suite[app_idx];
        let cfg = config();

        let warm = warm_trial(&testbed, condition, &cfg, seed);
        let fork_a = warm.fork();
        let fork_b = warm.fork();
        // Finish A first; B's result must be unaffected.
        let a = fork_a.finish(app, *m, Placement::Automatic);
        let b = fork_b.finish(app, *m, Placement::Random);

        let sa = run_trial(
            &testbed, app, *m, Placement::Automatic, condition, &cfg, seed,
        );
        let sb = run_trial(&testbed, app, *m, Placement::Random, condition, &cfg, seed);
        prop_assert_eq!(a.elapsed.to_bits(), sa.elapsed.to_bits());
        prop_assert_eq!(a.nodes, sa.nodes);
        prop_assert_eq!(b.elapsed.to_bits(), sb.elapsed.to_bits());
        prop_assert_eq!(b.nodes, sb.nodes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random `FaultPlan` (scheduled actions + stochastic flaps),
    /// running alongside the background-load generators and a lossy
    /// collector, replays bit-identically across `Sim::fork`: forking at
    /// 300 s and continuing to 900 s matches a straight 900 s run in
    /// every fault-touched observable — clock, ground truth, up/down
    /// state, and the degraded collector view. The base sim, continued
    /// after its fork was taken, must match as well.
    #[test]
    fn fault_plans_replay_bit_identically_across_fork(
        seed in 0u64..1_000_000,
        raw_sched in proptest::collection::vec((0u32..9000, 0u8..6, 0u16..1024), 1..10),
        raw_flaps in proptest::collection::vec(
            (0u8..2, 0u16..1024, 0u32..3000, 0u32..3000), 0..4),
    ) {
        let testbed = Testbed::cmu();
        let plan = decode_fault_plan(&raw_sched, &raw_flaps, 1.0, seed ^ 0xFA);
        let build = || {
            let mut sim = testbed.sim();
            let remos = Remos::install(
                &mut sim,
                CollectorConfig {
                    loss: 0.1,
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
            install_faults(&mut sim, &plan);
            (sim, remos)
        };

        let (mut straight, remos_s) = build();
        straight.run_for(900.0);

        let (mut base, remos_b) = build();
        base.run_for(300.0);
        let mut forked = base.fork();
        forked.run_for(600.0);
        base.run_for(600.0);

        assert_same_world(&straight, &forked, &remos_s, &remos_b)?;
        assert_same_world(&straight, &base, &remos_s, &remos_b)?;
    }
}
