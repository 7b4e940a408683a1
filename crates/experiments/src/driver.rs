//! Single-trial experiment driver.
//!
//! One *trial* reproduces one execution from the paper's methodology
//! (§4.3): bring the testbed to a steady state under the configured
//! background load/traffic, select nodes (randomly or automatically from
//! Remos measurements), run the application, and record its turnaround
//! time.
//!
//! A trial splits at the warm-up boundary into [`warm_trial`] (build the
//! simulator, install generators and collector, reach steady state) and
//! [`WarmTrial::finish`] (select, launch, drain). Because everything that
//! runs during warm-up is a data-driven driver, the warm state is
//! [`Sim::fork`]-able: one warm-up can seed several strategy
//! continuations, each bit-identical to a straight-through run with the
//! same seed. The batch runners exploit this — cells that share a
//! `(condition, seed)` pair share one warm-up, and all cells across all
//! groups drain through a single flat work queue over scoped threads.

use nodesel_apps::AppModel;
use nodesel_core::{
    balanced, random_selection, selector_for, Constraints, GreedyPolicy, SelectionRequest, Weights,
};
use nodesel_loadgen::{install_load, install_traffic, LoadConfig, TrafficConfig};
use nodesel_remos::{CollectorConfig, Estimator, Remos};
use nodesel_simnet::{Sim, DEFAULT_LOAD_AVG_TAU};
use nodesel_topology::testbeds::cmu_testbed;
use nodesel_topology::{NodeId, RouteTable, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which background generators run during a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Condition {
    /// Unloaded testbed (the paper's reference column).
    None,
    /// Compute-load generator only.
    Load,
    /// Network-traffic generator only.
    Traffic,
    /// Both generators.
    Both,
}

impl Condition {
    /// All four conditions in table order.
    pub const ALL: [Condition; 4] = [
        Condition::None,
        Condition::Load,
        Condition::Traffic,
        Condition::Both,
    ];

    /// Column label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Condition::None => "unloaded",
            Condition::Load => "load",
            Condition::Traffic => "traffic",
            Condition::Both => "load+traffic",
        }
    }

    fn has_load(self) -> bool {
        matches!(self, Condition::Load | Condition::Both)
    }

    fn has_traffic(self) -> bool {
        matches!(self, Condition::Traffic | Condition::Both)
    }
}

/// How nodes are picked for the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Uniformly random compute nodes (the paper's baseline, which it
    /// argues also stands in for static selection on this testbed).
    Random,
    /// The paper's framework: balanced selection on the Remos-measured
    /// logical topology.
    Automatic,
    /// Balanced selection on the simulator's ground truth (no measurement
    /// staleness) — an upper bound used by ablations.
    Oracle,
    /// Balanced selection on the unloaded topology (structure only).
    Static,
}

impl Strategy {
    /// Row label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Automatic => "automatic",
            Strategy::Oracle => "oracle",
            Strategy::Static => "static",
        }
    }
}

/// Tunables shared by every trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Background-load model (used when the condition includes load).
    pub load: LoadConfig,
    /// Background-traffic model (used when the condition includes traffic).
    pub traffic: TrafficConfig,
    /// Remos collector settings.
    pub collector: CollectorConfig,
    /// Estimator the automatic strategy queries with.
    pub estimator: Estimator,
    /// Seconds of warm-up before selection + launch.
    pub warmup: f64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            load: LoadConfig::paper_defaults(),
            traffic: TrafficConfig::paper_defaults(),
            collector: CollectorConfig::default(),
            estimator: Estimator::Latest,
            warmup: 1800.0,
        }
    }
}

/// Result of one trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialResult {
    /// Application turnaround time, seconds.
    pub elapsed: f64,
    /// The node names that were selected.
    pub nodes: Vec<String>,
}

/// The CMU testbed with its topology and route table behind `Arc`s,
/// prebuilt once and shared by every trial simulator (and every fork)
/// instead of being reconstructed per trial.
#[derive(Debug, Clone)]
pub struct Testbed {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    /// Compute nodes `m-1` .. `m-18`, in order.
    pub machines: Vec<NodeId>,
}

impl Testbed {
    /// Builds the paper's CMU testbed; routes are computed once, here.
    pub fn cmu() -> Testbed {
        let tb = cmu_testbed();
        let routes = Arc::new(RouteTable::build(&tb.topo));
        Testbed {
            topo: Arc::new(tb.topo),
            routes,
            machines: tb.machines,
        }
    }

    /// A fresh simulator over the shared graph. O(nodes): the topology
    /// and route table are reference-counted, not copied.
    pub fn sim(&self) -> Sim {
        Sim::with_shared(
            Arc::clone(&self.topo),
            Arc::clone(&self.routes),
            DEFAULT_LOAD_AVG_TAU,
        )
    }
}

/// A simulator brought to steady state under one `(condition, seed)`
/// pair, with the Remos handle watching it. Forking replays the warm-up
/// for free: each continuation starts from bit-identical warm state.
pub struct WarmTrial {
    sim: Sim,
    remos: Remos,
    seed: u64,
}

/// Warms a fresh simulator to steady state: installs the collector and
/// the condition's generators, then runs `config.warmup` seconds.
pub fn warm_trial(
    testbed: &Testbed,
    condition: Condition,
    config: &TrialConfig,
    seed: u64,
) -> WarmTrial {
    warm(testbed.sim(), testbed, condition, config, seed)
}

/// [`warm_trial`] on a simulator the caller built over `testbed`'s
/// graph: how `engine_parity` runs a whole trial on the reference flow
/// engine, which nothing outside the `oracle` feature can construct.
#[cfg(any(test, feature = "oracle"))]
pub fn warm_trial_on(
    sim: Sim,
    testbed: &Testbed,
    condition: Condition,
    config: &TrialConfig,
    seed: u64,
) -> WarmTrial {
    warm(sim, testbed, condition, config, seed)
}

fn warm(
    mut sim: Sim,
    testbed: &Testbed,
    condition: Condition,
    config: &TrialConfig,
    seed: u64,
) -> WarmTrial {
    // The maintained snapshot stream follows the trial's estimator, so
    // the automatic strategy sees exactly what the per-query path would.
    let remos = Remos::install(
        &mut sim,
        CollectorConfig {
            estimator: config.estimator,
            ..config.collector
        },
    );
    if condition.has_load() {
        install_load(&mut sim, &testbed.machines, config.load, seed ^ 0x10AD);
    }
    if condition.has_traffic() {
        install_traffic(&mut sim, &testbed.machines, config.traffic, seed ^ 0x7AFF1C);
    }
    sim.run_for(config.warmup);
    debug_assert!(sim.can_fork(), "warm-up left a user closure pending");
    WarmTrial { sim, remos, seed }
}

impl WarmTrial {
    /// An independent copy of the warm state (background generators,
    /// collector history, in-flight work). Legal because warm-up runs
    /// only data-driven drivers — [`Sim::can_fork`] holds here.
    pub fn fork(&self) -> WarmTrial {
        WarmTrial {
            sim: self.sim.fork(),
            remos: self.remos.clone(),
            seed: self.seed,
        }
    }

    /// Selects `m` nodes with `strategy`, launches `app` on them and
    /// runs it to completion.
    pub fn finish(self, app: &AppModel, m: usize, strategy: Strategy) -> TrialResult {
        let WarmTrial {
            mut sim,
            remos,
            seed,
        } = self;
        let nodes: Vec<NodeId> = match strategy {
            Strategy::Random => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1EC7);
                random_selection(sim.topology(), m, &mut rng)
                    .expect("testbed has enough nodes")
                    .nodes
            }
            Strategy::Automatic => {
                let snapshot = remos.snapshot(&sim);
                let request = SelectionRequest::balanced(m);
                let mut selector = selector_for(request.objective);
                selector
                    .select(&snapshot, &request)
                    .expect("testbed has enough nodes")
                    .nodes
            }
            Strategy::Oracle => {
                let snapshot = sim.oracle_snapshot();
                balanced(
                    &snapshot,
                    m,
                    Weights::EQUAL,
                    &Constraints::none(),
                    None,
                    GreedyPolicy::Sweep,
                )
                .expect("testbed has enough nodes")
                .nodes
            }
            Strategy::Static => {
                nodesel_core::static_selection(sim.topology(), m)
                    .expect("testbed has enough nodes")
                    .nodes
            }
        };
        let handle = app.launch(&mut sim, &nodes);
        while !handle.is_finished() {
            assert!(sim.step(), "simulation drained before the app finished");
        }
        let names = {
            let topo = sim.topology();
            nodes
                .iter()
                .map(|&n| topo.node(n).name().to_string())
                .collect()
        };
        TrialResult {
            elapsed: handle.elapsed().expect("finished"),
            nodes: names,
        }
    }
}

/// Runs one trial of `app` on `m` nodes of `testbed`.
///
/// `seed` drives every random choice (generators and random selection);
/// equal seeds give bit-identical trials, whether run straight through
/// like this or continued from a forked warm-up.
pub fn run_trial(
    testbed: &Testbed,
    app: &AppModel,
    m: usize,
    strategy: Strategy,
    condition: Condition,
    config: &TrialConfig,
    seed: u64,
) -> TrialResult {
    warm_trial(testbed, condition, config, seed).finish(app, m, strategy)
}

/// The `rep`-th trial seed derived from a cell's base seed.
pub(crate) fn trial_seed(base_seed: u64, rep: usize) -> u64 {
    base_seed.wrapping_add(1_000_003 * rep as u64)
}

/// One `(app, strategy)` continuation of a shared warm state; `slot`
/// indexes the flat result vector.
pub(crate) struct CellSpec<'a> {
    pub(crate) app: &'a AppModel,
    pub(crate) m: usize,
    pub(crate) strategy: Strategy,
    pub(crate) slot: usize,
}

/// All cells sharing one warmed simulator (same condition, same seed).
pub(crate) struct WarmGroup<'a> {
    pub(crate) condition: Condition,
    pub(crate) seed: u64,
    pub(crate) cells: Vec<CellSpec<'a>>,
}

/// Drains every cell of every group through one flat work queue over
/// scoped threads. A worker claims a whole group, warms once, forks the
/// warm state for each cell but the last (which consumes it), and moves
/// straight on to the next unclaimed group — no barrier between cells,
/// groups, or result rows. Returns elapsed times indexed by cell slot.
pub(crate) fn run_cells(
    testbed: &Testbed,
    config: &TrialConfig,
    groups: &[WarmGroup<'_>],
    slots: usize,
) -> Vec<f64> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(groups.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results = vec![0.0f64; slots];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = groups.get(i) else { break };
                        let mut warm =
                            Some(warm_trial(testbed, group.condition, config, group.seed));
                        for (k, cell) in group.cells.iter().enumerate() {
                            let w = if k + 1 == group.cells.len() {
                                warm.take().expect("warm state consumed early")
                            } else {
                                warm.as_ref().expect("warm state consumed early").fork()
                            };
                            let r = w.finish(cell.app, cell.m, cell.strategy);
                            out.push((cell.slot, r.elapsed));
                        }
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            for (slot, elapsed) in w.join().expect("trial worker panicked") {
                results[slot] = elapsed;
            }
        }
    });
    results
}

/// Runs `repetitions` independent trials of one cell and returns the
/// per-trial turnaround times in seed order. Repetitions drain through
/// the flat work queue — idle workers pull the next trial as they
/// finish, instead of the old barrier-per-chunk split.
#[allow(clippy::too_many_arguments)]
pub fn run_trials(
    testbed: &Testbed,
    app: &AppModel,
    m: usize,
    strategy: Strategy,
    condition: Condition,
    config: &TrialConfig,
    base_seed: u64,
    repetitions: usize,
) -> Vec<f64> {
    let groups: Vec<WarmGroup<'_>> = (0..repetitions)
        .map(|rep| WarmGroup {
            condition,
            seed: trial_seed(base_seed, rep),
            cells: vec![CellSpec {
                app,
                m,
                strategy,
                slot: rep,
            }],
        })
        .collect();
    run_cells(testbed, config, &groups, repetitions)
}

/// Mean of a slice; 0 for an empty slice (debug builds assert instead of
/// quietly propagating NaN into reports).
pub fn mean(xs: &[f64]) -> f64 {
    debug_assert!(!xs.is_empty(), "mean of an empty sample set");
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (Bessel-corrected); 0 for fewer than two
/// samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Half-width of the ~95% confidence interval for the mean
/// (`1.96 σ / √n`); the paper's "statistically relevant results" caveat,
/// quantified.
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * std_dev(xs) / (xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_apps::fft::fft_program;

    fn tiny_app() -> AppModel {
        AppModel::Phased(fft_program(2))
    }

    #[test]
    fn unloaded_trial_is_deterministic() {
        let tb = Testbed::cmu();
        let cfg = TrialConfig {
            warmup: 10.0,
            ..TrialConfig::default()
        };
        let a = run_trial(
            &tb,
            &tiny_app(),
            4,
            Strategy::Random,
            Condition::None,
            &cfg,
            1,
        );
        let b = run_trial(
            &tb,
            &tiny_app(),
            4,
            Strategy::Random,
            Condition::None,
            &cfg,
            1,
        );
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.nodes.len(), 4);
    }

    #[test]
    fn forked_finish_matches_straight_through() {
        let tb = Testbed::cmu();
        let cfg = TrialConfig {
            warmup: 120.0,
            ..TrialConfig::default()
        };
        let warm = warm_trial(&tb, Condition::Both, &cfg, 5);
        let forked = warm.fork().finish(&tiny_app(), 4, Strategy::Automatic);
        let extra = warm.finish(&tiny_app(), 4, Strategy::Random);
        let straight = run_trial(
            &tb,
            &tiny_app(),
            4,
            Strategy::Automatic,
            Condition::Both,
            &cfg,
            5,
        );
        assert_eq!(forked.elapsed.to_bits(), straight.elapsed.to_bits());
        assert_eq!(forked.nodes, straight.nodes);
        let rand_straight = run_trial(
            &tb,
            &tiny_app(),
            4,
            Strategy::Random,
            Condition::Both,
            &cfg,
            5,
        );
        assert_eq!(extra.elapsed.to_bits(), rand_straight.elapsed.to_bits());
    }

    #[test]
    fn load_slows_random_placement() {
        let tb = Testbed::cmu();
        // The paper-default load (ρ ≈ 0.35) leaves most machines idle, so
        // at a fixed seed all five random placements can dodge every
        // background job and the loaded times come out bit-identical to
        // the unloaded ones. Drive arrivals hard enough that essentially
        // every machine is busy at warm-up end: the property under test
        // is "contended CPUs slow the barrier", not the seed lottery.
        let cfg = TrialConfig {
            warmup: 300.0,
            load: LoadConfig {
                arrival_rate: 1.0 / 100.0,
                ..LoadConfig::paper_defaults()
            },
            ..TrialConfig::default()
        };
        let app = AppModel::Phased(fft_program(12));
        let unloaded = run_trials(&tb, &app, 4, Strategy::Random, Condition::None, &cfg, 3, 5);
        let loaded = run_trials(&tb, &app, 4, Strategy::Random, Condition::Load, &cfg, 3, 5);
        assert!(
            mean(&loaded) > mean(&unloaded) * 1.05,
            "load {loaded:?} vs unloaded {unloaded:?}"
        );
    }

    #[test]
    fn automatic_beats_random_under_load_on_average() {
        let tb = Testbed::cmu();
        let cfg = TrialConfig {
            warmup: 300.0,
            ..TrialConfig::default()
        };
        let app = tiny_app();
        let random = run_trials(&tb, &app, 4, Strategy::Random, Condition::Load, &cfg, 11, 6);
        let auto = run_trials(
            &tb,
            &app,
            4,
            Strategy::Automatic,
            Condition::Load,
            &cfg,
            11,
            6,
        );
        assert!(
            mean(&auto) < mean(&random),
            "auto {:?} vs random {:?}",
            auto,
            random
        );
    }

    #[test]
    fn run_trials_is_seed_stable() {
        let tb = Testbed::cmu();
        let cfg = TrialConfig {
            warmup: 20.0,
            ..TrialConfig::default()
        };
        let app = tiny_app();
        let a = run_trials(&tb, &app, 4, Strategy::Random, Condition::None, &cfg, 7, 4);
        let b = run_trials(&tb, &app, 4, Strategy::Random, Condition::None, &cfg, 7, 4);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn std_dev_and_ci() {
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(ci95_half_width(&[5.0]), 0.0);
        // Known sample: {2, 4, 4, 4, 5, 5, 7, 9} has sample std ≈ 2.138.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs) - 2.138).abs() < 1e-3);
        let ci = ci95_half_width(&xs);
        assert!((ci - 1.96 * 2.138 / 8f64.sqrt()).abs() < 1e-3);
    }
}
