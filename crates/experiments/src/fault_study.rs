//! Fault study: node selection on a network that breaks mid-run.
//!
//! The paper's experiments assume the testbed stays up for the duration
//! of a trial. This study drops that assumption: a seeded [`FaultPlan`]
//! crashes the most attractive node shortly after launch (optionally
//! rebooting it later), and three placement regimes race a long job
//! against a deadline:
//!
//! * **random** — uniformly random nodes, never reconsidered;
//! * **automatic** — balanced selection on Remos measurements at launch,
//!   never reconsidered (the paper's framework, verbatim);
//! * **supervised** — the same automatic launch placement, watched by a
//!   [`Supervisor`]: degraded availability data from the collector
//!   triggers re-selection and the job restarts its current work unit on
//!   the advised nodes.
//!
//! The job is a sequence of checkpointed work units (short FFT runs):
//! completed units survive a failure, the unit in flight when a
//! placement node dies is lost and must be re-run. Without supervision a
//! trial whose placement contains the crashed node can only finish if
//! the fault plan eventually reboots it; supervision bounds the outage
//! at the collector's detection latency plus one re-selection.
//!
//! Reported per trial: completion, turnaround, time-to-recover (first
//! fault observed on the placement to the next completed unit), and the
//! supervisor's re-selection counters.

use crate::driver::mean;
use nodesel_apps::{fft::fft_program, AppModel};
use nodesel_core::migration::OwnUsage;
use nodesel_core::{
    random_selection, FlatSelector, SelectionRequest, Selector, Supervisor, SupervisorPolicy,
    SupervisorVerdict,
};
use nodesel_loadgen::{install_load, LoadConfig};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::{install_faults, FaultAction, FaultPlan, Sim};
use nodesel_topology::testbeds::cmu_testbed;
use nodesel_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Placement regime under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStrategy {
    /// Random placement, never reconsidered.
    Random,
    /// Automatic (Remos + balanced) placement, never reconsidered.
    Automatic,
    /// Automatic placement under a [`Supervisor`].
    Supervised,
}

impl FaultStrategy {
    /// Row label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultStrategy::Random => "random",
            FaultStrategy::Automatic => "automatic",
            FaultStrategy::Supervised => "supervised",
        }
    }
}

/// Tunables of one fault trial.
#[derive(Debug, Clone)]
pub struct FaultStudyConfig {
    /// Application size (nodes).
    pub m: usize,
    /// Checkpointed work units in the job.
    pub units: usize,
    /// FFT iterations per unit.
    pub unit_iterations: usize,
    /// Warm-up seconds before selection + launch.
    pub warmup: f64,
    /// Give-up horizon, seconds after launch.
    pub deadline: f64,
    /// Simulation slice between health inspections, seconds.
    pub tick: f64,
    /// Supervisor consultation cadence, seconds.
    pub check_period: f64,
    /// Crash the victim this long after launch, seconds.
    pub crash_after: f64,
    /// Reboot the victim this long after the crash (`None`: it stays
    /// down forever).
    pub reboot_after: Option<f64>,
    /// Background compute load (the selection pressure).
    pub load: LoadConfig,
    /// Remos collector settings.
    pub collector: CollectorConfig,
    /// Supervisor re-selection policy.
    pub policy: SupervisorPolicy,
}

impl Default for FaultStudyConfig {
    fn default() -> Self {
        FaultStudyConfig {
            m: 4,
            units: 12,
            unit_iterations: 8,
            warmup: 600.0,
            deadline: 4000.0,
            tick: 5.0,
            check_period: 30.0,
            crash_after: 30.0,
            reboot_after: None,
            load: LoadConfig::paper_defaults(),
            collector: CollectorConfig::default(),
            policy: SupervisorPolicy::default(),
        }
    }
}

/// Outcome of one fault trial.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// True when every unit finished before the deadline.
    pub completed: bool,
    /// Job turnaround (or the deadline, when incomplete), seconds.
    pub elapsed: f64,
    /// Seconds from the first fault observed on the placement to the
    /// next completed unit; `None` when no fault hit the placement or it
    /// never recovered.
    pub recovery: Option<f64>,
    /// Re-selections the supervisor advised (0 for the other regimes).
    pub reselections: u64,
    /// The subset advised because of a failure.
    pub failure_reselections: u64,
}

/// Runs one trial: warm the testbed, place, install the fault plan, and
/// race the unit loop against the deadline. Fully determined by `seed`.
///
/// The fault plan is strategy-independent: it crashes the first node of
/// the *automatic* placement for this seed (the most attractive node),
/// so the regimes face the same network history.
pub fn run_fault_trial(
    strategy: FaultStrategy,
    config: &FaultStudyConfig,
    seed: u64,
) -> FaultOutcome {
    let tb = cmu_testbed();
    let machines = tb.machines.clone();
    let mut sim = Sim::new(tb.topo.clone());
    let remos = Remos::install(&mut sim, config.collector);
    install_load(&mut sim, &machines, config.load, seed ^ 0x10AD);
    sim.run_for(config.warmup);

    let request = SelectionRequest::balanced(config.m);
    let auto_nodes = {
        let mut selector = FlatSelector::new();
        selector
            .select(&remos.snapshot(&sim), &request)
            .expect("testbed has enough nodes")
            .nodes
    };
    let victim = auto_nodes[0];
    let mut placement: Vec<NodeId> = match strategy {
        FaultStrategy::Random => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1EC7);
            random_selection(sim.topology(), config.m, &mut rng)
                .expect("testbed has enough nodes")
                .nodes
        }
        _ => auto_nodes,
    };

    let mut scheduled = vec![(config.crash_after, FaultAction::CrashNode(victim))];
    if let Some(delay) = config.reboot_after {
        scheduled.push((config.crash_after + delay, FaultAction::RebootNode(victim)));
    }
    install_faults(
        &mut sim,
        &FaultPlan {
            scheduled,
            flaps: Vec::new(),
            seed,
        },
    );

    let mut supervisor = match strategy {
        FaultStrategy::Supervised => Some(Supervisor::new(request, config.policy)),
        _ => None,
    };

    let app = AppModel::Phased(fft_program(config.unit_iterations));
    let start = sim.now();
    let mut last_check = start.as_secs_f64();
    let mut units_done = 0usize;
    let mut first_fault: Option<f64> = None;
    let mut recovery: Option<f64> = None;
    let mut completed = true;

    'units: while units_done < config.units {
        let handle = app.launch(&mut sim, &placement);
        // Set when this unit's placement was seen dead: the unit cannot
        // finish and must be relaunched once the placement is viable.
        let mut unit_dead = false;
        loop {
            if handle.is_finished() {
                units_done += 1;
                if recovery.is_none() {
                    if let Some(at) = first_fault {
                        recovery = Some(sim.now().as_secs_f64() - at);
                    }
                }
                continue 'units;
            }
            if sim.now().seconds_since(start) >= config.deadline {
                completed = false;
                break 'units;
            }
            sim.run_for(config.tick);
            // The collector driver keeps the queue alive; killed-task and
            // aborted-flow notices are drained so they don't accumulate.
            let _ = sim.take_killed_tasks();
            let _ = sim.take_aborted_flows();
            if handle.is_finished() {
                // The unit completed within this tick; account for it at
                // the loop head before inspecting health, so a fault
                // landing in the same tick is not misread as survived.
                continue;
            }
            let now = sim.now().as_secs_f64();
            let down = placement.iter().any(|&n| !sim.node_is_up(n));
            if down {
                unit_dead = true;
                first_fault.get_or_insert(now);
            }
            match &mut supervisor {
                Some(sup) => {
                    // Consult on schedule, or immediately while impaired —
                    // the supervisor fires once the *collector* has seen
                    // the fault, which is the honest detection latency.
                    if unit_dead || now - last_check >= config.check_period {
                        last_check = now;
                        let snapshot = remos.snapshot(&sim);
                        let own = OwnUsage::one_process_per_node(&placement);
                        if let Ok(check) = sup.check(now, &snapshot, &placement, &own) {
                            if matches!(check.verdict, SupervisorVerdict::Reselect { .. }) {
                                placement = check.advice.best.nodes;
                                // Abandon the stalled handle; the unit
                                // re-runs on the new placement.
                                continue 'units;
                            }
                        }
                    }
                }
                None => {
                    // Unsupervised regimes can only wait for a reboot,
                    // then re-run the lost unit on the same nodes.
                    if unit_dead && placement.iter().all(|&n| sim.node_is_up(n)) {
                        continue 'units;
                    }
                }
            }
        }
    }

    FaultOutcome {
        completed,
        elapsed: sim.now().seconds_since(start).min(config.deadline),
        recovery,
        reselections: supervisor.as_ref().map_or(0, |s| s.reselections()),
        failure_reselections: supervisor.as_ref().map_or(0, |s| s.failure_reselections()),
    }
}

/// Aggregate of one strategy over seeded repetitions.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Strategy under test.
    pub strategy: FaultStrategy,
    /// Fraction of trials that completed before the deadline.
    pub completion_rate: f64,
    /// Mean turnaround across all trials (incomplete trials count the
    /// deadline).
    pub mean_elapsed: f64,
    /// Mean time-to-recover across trials that both saw a fault on their
    /// placement and recovered; `None` when no trial recovered.
    pub mean_recovery: Option<f64>,
    /// Trials whose placement was hit by a fault.
    pub faulted: usize,
    /// Mean re-selections per trial (supervised only).
    pub mean_reselections: f64,
    /// Trial count.
    pub trials: usize,
}

/// Runs `reps` seeded trials of each regime under the same fault plans.
pub fn run_fault_study(config: &FaultStudyConfig, base_seed: u64, reps: usize) -> Vec<FaultCell> {
    [
        FaultStrategy::Random,
        FaultStrategy::Automatic,
        FaultStrategy::Supervised,
    ]
    .into_iter()
    .map(|strategy| {
        let outcomes: Vec<FaultOutcome> = (0..reps)
            .map(|rep| {
                run_fault_trial(strategy, config, base_seed.wrapping_add(7_919 * rep as u64))
            })
            .collect();
        let recoveries: Vec<f64> = outcomes.iter().filter_map(|o| o.recovery).collect();
        FaultCell {
            strategy,
            completion_rate: outcomes.iter().filter(|o| o.completed).count() as f64 / reps as f64,
            mean_elapsed: mean(&outcomes.iter().map(|o| o.elapsed).collect::<Vec<_>>()),
            mean_recovery: (!recoveries.is_empty()).then(|| mean(&recoveries)),
            faulted: outcomes.iter().filter(|o| o.recovery.is_some()).count(),
            mean_reselections: outcomes.iter().map(|o| o.reselections as f64).sum::<f64>()
                / reps as f64,
            trials: reps,
        }
    })
    .collect()
}

/// Renders the study as an aligned text table.
pub fn render_fault_table(cells: &[FaultCell]) -> String {
    let mut out = String::new();
    out.push_str("strategy    complete   mean turnaround   mean recovery   reselections\n");
    for c in cells {
        let recovery = c
            .mean_recovery
            .map_or_else(|| "-".to_string(), |r| format!("{r:.0} s"));
        out.push_str(&format!(
            "{:<11} {:>7.0}%   {:>13.0} s   {:>13}   {:>12.1}\n",
            c.strategy.label(),
            100.0 * c.completion_rate,
            c.mean_elapsed,
            recovery,
            c.mean_reselections,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> FaultStudyConfig {
        FaultStudyConfig {
            units: 6,
            unit_iterations: 8,
            warmup: 120.0,
            deadline: 1500.0,
            crash_after: 20.0,
            ..FaultStudyConfig::default()
        }
    }

    #[test]
    fn supervised_survives_a_permanent_crash() {
        let cfg = quick_config();
        let sup = run_fault_trial(FaultStrategy::Supervised, &cfg, 3);
        assert!(sup.completed, "supervised trial missed the deadline");
        assert!(sup.failure_reselections >= 1);
        assert!(sup.recovery.is_some());
        let auto = run_fault_trial(FaultStrategy::Automatic, &cfg, 3);
        assert!(!auto.completed, "automatic has no recovery path");
        assert!((auto.elapsed - cfg.deadline).abs() < 1e-9);
    }

    #[test]
    fn reboot_lets_automatic_finish_late() {
        let cfg = FaultStudyConfig {
            reboot_after: Some(400.0),
            ..quick_config()
        };
        let auto = run_fault_trial(FaultStrategy::Automatic, &cfg, 3);
        let sup = run_fault_trial(FaultStrategy::Supervised, &cfg, 3);
        assert!(auto.completed && sup.completed);
        // Supervision re-places within the collector latency; waiting for
        // the reboot costs the unsupervised run the full outage.
        assert!(
            sup.elapsed < auto.elapsed,
            "supervised {} vs automatic {}",
            sup.elapsed,
            auto.elapsed
        );
        let (Some(rs), Some(ra)) = (sup.recovery, auto.recovery) else {
            panic!("both regimes should observe and survive the fault");
        };
        assert!(rs < ra, "supervised recovery {rs} vs automatic {ra}");
    }

    #[test]
    fn trials_are_seed_deterministic() {
        let cfg = quick_config();
        let a = run_fault_trial(FaultStrategy::Supervised, &cfg, 7);
        let b = run_fault_trial(FaultStrategy::Supervised, &cfg, 7);
        assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
        assert_eq!(a.reselections, b.reselections);
        assert_eq!(a.recovery.map(f64::to_bits), b.recovery.map(f64::to_bits));
    }
}
