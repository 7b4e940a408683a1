//! Dynamic-migration study: does periodically re-running node selection
//! on a *long-running* job recover the benefit that static selection
//! loses as its measurements go stale?
//!
//! The sensitivity study shows exactly this gap: a 512-iteration FFT keeps
//! only ~40% of the selection benefit a 32-iteration run enjoys, because
//! background load shifts mid-run. The paper's abstract points at the fix
//! ("the node selection algorithms ... are also applicable to dynamic
//! migration of long running jobs"); this experiment executes it with the
//! `nodesel-apps` migratable runner and the `nodesel-core` migration
//! advisor, checkpoint costs included.

use crate::driver::{Condition, TrialConfig};
use nodesel_apps::{fft::fft_program, launch_phased_migratable, MigrationStats};
use nodesel_core::migration::{Advisor, OwnUsage};
use nodesel_core::{random_selection, FlatSelector, SelectionRequest, Selector};
use nodesel_loadgen::{install_load, install_traffic};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::{Sim, SimTime};
use nodesel_topology::testbeds::cmu_testbed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Placement decision callback used by the migratable runner.
type Policy = Box<
    dyn FnMut(
        &mut Sim,
        &[nodesel_topology::NodeId],
        usize,
    ) -> Option<Vec<nodesel_topology::NodeId>>,
>;

/// Placement strategy for a long-running job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LongRunStrategy {
    /// Random initial nodes, never moved.
    RandomStay,
    /// Automatic initial selection, never moved.
    AutoStay,
    /// Automatic initial selection plus periodic migration checks.
    AutoMigrate {
        /// Seconds between reconsiderations.
        period: f64,
        /// Relative score improvement required to move.
        threshold: f64,
    },
}

/// Result of one long-run trial.
#[derive(Debug, Clone, Copy)]
pub struct LongRunResult {
    /// Job turnaround, seconds.
    pub elapsed: f64,
    /// Migration counters (zero for the stay strategies).
    pub stats: MigrationStats,
}

/// Runs one long FFT job (`iterations` iterations on 4 nodes) under the
/// given background condition and placement strategy.
pub fn run_long_job(
    iterations: usize,
    strategy: LongRunStrategy,
    condition: Condition,
    config: &TrialConfig,
    seed: u64,
) -> LongRunResult {
    let tb = cmu_testbed();
    let machines = tb.machines.clone();
    let mut sim = Sim::new(tb.topo.clone());
    let remos = Remos::install(
        &mut sim,
        CollectorConfig {
            estimator: config.estimator,
            ..config.collector
        },
    );
    if matches!(condition, Condition::Load | Condition::Both) {
        install_load(&mut sim, &machines, config.load, seed ^ 0x10AD);
    }
    if matches!(condition, Condition::Traffic | Condition::Both) {
        install_traffic(&mut sim, &machines, config.traffic, seed ^ 0x7AFF1C);
    }
    sim.run_for(config.warmup);

    let m = 4;
    let initial = match strategy {
        LongRunStrategy::RandomStay => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1EC7);
            random_selection(sim.topology(), m, &mut rng)
                .expect("nodes")
                .nodes
        }
        _ => {
            let mut selector = FlatSelector::new();
            selector
                .select(&remos.snapshot(&sim), &SelectionRequest::balanced(m))
                .expect("nodes")
                .nodes
        }
    };

    // Checkpoint: the FFT's matrix state (16 MB) plus headroom.
    let state_bits = 2.0 * nodesel_apps::fft::MATRIX_BITS;
    let program = fft_program(iterations);
    let policy: Policy = match strategy {
        LongRunStrategy::AutoMigrate { period, threshold } => {
            let remos = remos.clone();
            let mut last_check = SimTime::ZERO;
            let advisor = Advisor::new(SelectionRequest::balanced(m), threshold);
            Box::new(
                move |sim: &mut Sim, current: &[nodesel_topology::NodeId], _iter| {
                    let now = sim.now();
                    if now.seconds_since(last_check) < period {
                        return None;
                    }
                    last_check = now;
                    let snapshot = remos.snapshot(sim);
                    let own = OwnUsage::one_process_per_node(current);
                    match advisor.advise(&snapshot, current, &own) {
                        Ok(a) if a.recommended => Some(a.best.nodes),
                        _ => None,
                    }
                },
            )
        }
        _ => Box::new(|_: &mut Sim, _: &[nodesel_topology::NodeId], _| None),
    };

    let handle = launch_phased_migratable(&mut sim, program, &initial, state_bits, policy);
    while !handle.app.is_finished() {
        assert!(sim.step(), "drained before completion");
    }
    LongRunResult {
        elapsed: handle.app.elapsed().expect("finished"),
        stats: handle.stats(),
    }
}

/// Means over `reps` seeded repetitions.
pub fn run_long_jobs(
    iterations: usize,
    strategy: LongRunStrategy,
    condition: Condition,
    config: &TrialConfig,
    base_seed: u64,
    reps: usize,
) -> (f64, f64) {
    let mut total = 0.0;
    let mut migrations = 0.0;
    for rep in 0..reps {
        let r = run_long_job(
            iterations,
            strategy,
            condition,
            config,
            base_seed.wrapping_add(7_919 * rep as u64),
        );
        total += r.elapsed;
        migrations += r.stats.migrations as f64;
    }
    (total / reps as f64, migrations / reps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stay_strategies_never_migrate() {
        let cfg = TrialConfig::default();
        let r = run_long_job(8, LongRunStrategy::AutoStay, Condition::Load, &cfg, 5);
        assert_eq!(r.stats.migrations, 0);
        let r = run_long_job(8, LongRunStrategy::RandomStay, Condition::None, &cfg, 5);
        assert_eq!(r.stats.migrations, 0);
        assert!(r.elapsed > 0.0);
    }

    #[test]
    fn migration_happens_under_churning_load() {
        // Long job, frequent checks, low threshold: some seed in this
        // small set must trigger at least one move.
        let cfg = TrialConfig::default();
        let mut total_migrations = 0;
        for seed in 0..4 {
            let r = run_long_job(
                96,
                LongRunStrategy::AutoMigrate {
                    period: 120.0,
                    threshold: 0.3,
                },
                Condition::Load,
                &cfg,
                seed,
            );
            total_migrations += r.stats.migrations;
        }
        assert!(total_migrations > 0, "no migrations across any seed");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TrialConfig::default();
        let s = LongRunStrategy::AutoMigrate {
            period: 120.0,
            threshold: 0.3,
        };
        let a = run_long_job(24, s, Condition::Both, &cfg, 9);
        let b = run_long_job(24, s, Condition::Both, &cfg, 9);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.stats, b.stats);
    }
}
