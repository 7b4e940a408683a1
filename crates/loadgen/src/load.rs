//! Background compute-load generator (paper §4.2).
//!
//! "A synthetic compute intensive job was periodically invoked on every
//! node. Processor load was generated using models developed by
//! Harchol-Balter and Downey, whose measurements indicate Poisson
//! interarrival times, with job duration determined by a combination of
//! exponential and Pareto distributions."
//!
//! Each node gets an independent Poisson arrival process; every arrival
//! starts a CPU job on that node whose demand is drawn from a mixture of an
//! exponential body and a truncated Pareto tail.

use crate::dist::{split_seed, Exponential, Pareto};
use nodesel_simnet::{DriverId, DriverLogic, Sim};
use nodesel_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Job-duration model: exponential body with probability `1 - pareto_prob`,
/// truncated Pareto tail otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDurationModel {
    /// Probability a job is drawn from the heavy Pareto tail.
    pub pareto_prob: f64,
    /// Mean of the exponential body, in reference-CPU-seconds.
    pub exp_mean: f64,
    /// Pareto scale (minimum tail job duration), reference-CPU-seconds.
    pub pareto_scale: f64,
    /// Pareto shape `α`; Harchol-Balter & Downey observed `α ≈ 1`.
    pub pareto_shape: f64,
    /// Cap on a single job's duration (keeps the `α ≈ 1` tail integrable).
    pub max_duration: f64,
}

impl JobDurationModel {
    /// Draws one job duration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.random::<f64>() < self.pareto_prob {
            Pareto::new(self.pareto_scale, self.pareto_shape)
                .sample_truncated(rng, self.max_duration)
        } else {
            Exponential::with_mean(self.exp_mean)
                .sample(rng)
                .min(self.max_duration)
        }
    }

    /// Expected duration (numerically exact for the truncated mixture).
    pub fn mean(&self) -> f64 {
        let m = self.exp_mean;
        let cap = self.max_duration;
        // E[min(Exp(mean m), cap)] = m (1 - e^{-cap/m}).
        let exp_mean = m * (1.0 - (-cap / m).exp());
        // Truncated Pareto(α, s) mean of min(X, cap):
        // for α != 1: s·α/(α-1) − (s^α)·cap^{1-α}/(α-1); for α = 1:
        // s (1 + ln(cap/s)).
        let s = self.pareto_scale;
        let a = self.pareto_shape;
        let pareto_mean = if (a - 1.0).abs() < 1e-9 {
            s * (1.0 + (cap / s).ln())
        } else {
            s * a / (a - 1.0) - s.powf(a) * cap.powf(1.0 - a) / (a - 1.0)
        };
        self.pareto_prob * pareto_mean + (1.0 - self.pareto_prob) * exp_mean
    }
}

/// Configuration of the per-node background load process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Poisson arrival rate of background jobs per node, jobs/second.
    pub arrival_rate: f64,
    /// Job CPU-demand model.
    pub duration: JobDurationModel,
}

impl LoadConfig {
    /// The parameters used for the Table 1 experiments: a cluster "used
    /// primarily for data and compute intensive computations", i.e. heavier
    /// than an interactive workstation pool. The offered load per node
    /// (arrival rate × mean duration) is the long-run average load each
    /// node carries.
    /// The offered load `ρ ≈ 0.35` makes each node an M/G/1-PS queue whose
    /// run queue is empty ~65% of the time but bursts to several jobs —
    /// mild on average, yet the *maximum* over a 4–5 node barrier set is
    /// usually ≥ 1 extra job, which is exactly the regime in which Table 1
    /// was measured (random placement slows loosely-synchronous codes by
    /// 2–3× while adaptive master–slave codes degrade gently).
    /// Durations are long (minutes, with a Pareto tail up to an hour), as
    /// in the Harchol-Balter data for compute-intensive jobs: load
    /// *persists*, so a node that is busy at selection time tends to stay
    /// busy for much of an application run — the property that makes
    /// load-aware selection pay off for long applications.
    pub fn paper_defaults() -> Self {
        LoadConfig {
            arrival_rate: 1.0 / 450.0,
            duration: JobDurationModel {
                pareto_prob: 0.45,
                exp_mean: 30.0,
                pareto_scale: 60.0,
                pareto_shape: 1.0,
                max_duration: 3600.0,
            },
        }
    }

    /// Offered load per node: `ρ = arrival_rate × mean CPU demand`, the
    /// long-run fraction of the processor consumed by background jobs.
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate * self.duration.mean()
    }

    /// Long-run average run-queue length (and thus load average) each node
    /// settles at. Each node is an M/G/1 processor-sharing queue, whose
    /// mean number in system depends only on the offered load:
    /// `E[N] = ρ / (1 - ρ)`. Returns infinity for ρ ≥ 1 (unstable).
    pub fn expected_load_avg(&self) -> f64 {
        let rho = self.offered_load();
        if rho >= 1.0 {
            f64::INFINITY
        } else {
            rho / (1.0 - rho)
        }
    }
}

/// Per-node Poisson arrival process, installed as a cloneable
/// [`DriverLogic`] so its state (RNG, counters) lives inside the
/// simulator and survives [`Sim::fork`] bit-exactly.
#[derive(Debug, Clone)]
struct LoadDriver {
    node: NodeId,
    config: LoadConfig,
    rng: StdRng,
    enabled: bool,
    jobs_started: u64,
}

impl DriverLogic for LoadDriver {
    fn fire(&mut self, sim: &mut Sim, me: DriverId) {
        if !self.enabled {
            return;
        }
        let work = self.config.duration.sample(&mut self.rng);
        self.jobs_started += 1;
        sim.start_compute_detached(self.node, work);
        let gap = Exponential::new(self.config.arrival_rate).sample(&mut self.rng);
        sim.schedule_driver_in(gap, me);
    }
}

/// Handle to an installed generator: the ids of its per-node drivers.
/// State lives inside the [`Sim`], so every accessor takes the simulator
/// — and because driver ids are stable across [`Sim::fork`], one handle
/// works against the original *and* any fork.
#[derive(Debug, Clone)]
pub struct LoadHandle {
    drivers: Vec<DriverId>,
}

impl LoadHandle {
    /// Stops scheduling new arrivals (pending jobs run to completion).
    pub fn stop(&self, sim: &mut Sim) {
        for &id in &self.drivers {
            sim.driver_mut::<LoadDriver>(id).enabled = false;
        }
    }

    /// True while the generator is scheduling arrivals.
    pub fn is_running(&self, sim: &Sim) -> bool {
        self.drivers
            .iter()
            .any(|&id| sim.driver::<LoadDriver>(id).enabled)
    }

    /// Number of background jobs started so far.
    pub fn jobs_started(&self, sim: &Sim) -> u64 {
        self.drivers
            .iter()
            .map(|&id| sim.driver::<LoadDriver>(id).jobs_started)
            .sum()
    }
}

/// Installs the background-load process on every listed node.
///
/// Each node runs an independent Poisson arrival stream seeded from
/// `seed` via [`split_seed`], so adding or removing one node never
/// perturbs another node's sequence. Jobs are started *detached* and the
/// generators are data-driven, so a warmed-up simulator remains forkable
/// ([`Sim::can_fork`]).
pub fn install_load(sim: &mut Sim, nodes: &[NodeId], config: LoadConfig, seed: u64) -> LoadHandle {
    let mut drivers = Vec::with_capacity(nodes.len());
    for (i, &node) in nodes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, i as u64));
        let gap = Exponential::new(config.arrival_rate).sample(&mut rng);
        let driver = LoadDriver {
            node,
            config,
            rng,
            enabled: true,
            jobs_started: 0,
        };
        let id = sim.install_driver(driver);
        sim.schedule_driver_in(gap, id);
        drivers.push(id);
    }
    LoadHandle { drivers }
}

/// Forwards to [`install_load`]. Kept only because `benchmark/src/exec.rs`
/// calls it and the change that removed driver homing (issue 14) could
/// not edit `benchmark/`; the next `benchmark` PR drops it.
#[doc(hidden)]
pub fn install_load_at(
    sim: &mut Sim,
    nodes: &[NodeId],
    config: LoadConfig,
    seed: u64,
) -> LoadHandle {
    install_load(sim, nodes, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_simnet::SimTime;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;

    #[test]
    fn duration_model_mean_matches_samples() {
        let m = LoadConfig::paper_defaults().duration;
        let mut rng = StdRng::seed_from_u64(1);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| m.sample(&mut rng)).sum::<f64>() / n as f64;
        let expected = m.mean();
        assert!(
            (mean - expected).abs() / expected < 0.03,
            "sampled {mean}, analytic {expected}"
        );
    }

    #[test]
    fn generator_produces_expected_load_level() {
        let (topo, ids) = star(4, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let cfg = LoadConfig::paper_defaults();
        install_load(&mut sim, &ids, cfg, 7);
        // Warm up past several job lifetimes and damping constants.
        sim.run_until(SimTime::from_secs(3_000));
        let expected = cfg.expected_load_avg();
        let mean_load: f64 = ids.iter().map(|&n| sim.load_avg(n)).sum::<f64>() / ids.len() as f64;
        // One stochastic run of a heavy-tailed PS queue: allow a wide band
        // around the analytic steady state.
        assert!(
            mean_load > expected * 0.3 && mean_load < expected * 3.0,
            "mean load {mean_load}, expected {expected}"
        );
    }

    #[test]
    fn nodes_get_independent_streams() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        install_load(&mut sim, &ids, LoadConfig::paper_defaults(), 7);
        sim.run_until(SimTime::from_secs(2_000));
        let a = sim.load_avg(ids[0]);
        let b = sim.load_avg(ids[1]);
        // Independent streams virtually never coincide exactly.
        assert_ne!(a, b);
    }

    #[test]
    fn stop_halts_new_arrivals() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let h = install_load(&mut sim, &ids, LoadConfig::paper_defaults(), 3);
        sim.run_until(SimTime::from_secs(500));
        h.stop(&mut sim);
        let started = h.jobs_started(&sim);
        assert!(started > 0);
        sim.run_until(SimTime::from_secs(1_500));
        assert_eq!(h.jobs_started(&sim), started);
        assert!(!h.is_running(&sim));
    }

    #[test]
    fn generator_keeps_sim_forkable_and_forks_agree() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let h = install_load(&mut sim, &ids, LoadConfig::paper_defaults(), 11);
        sim.run_until(SimTime::from_secs(2_000));
        assert!(sim.can_fork(), "load generator left a closure pending");
        let mut fork = sim.fork();
        assert_eq!(h.jobs_started(&fork), h.jobs_started(&sim));
        fork.run_until(SimTime::from_secs(4_000));
        sim.run_until(SimTime::from_secs(4_000));
        assert_eq!(h.jobs_started(&fork), h.jobs_started(&sim));
        assert_eq!(fork.stats(), sim.stats());
        for &n in &ids {
            assert_eq!(fork.load_avg(n).to_bits(), sim.load_avg(n).to_bits());
        }
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed| {
            let (topo, ids) = star(3, 100.0 * MBPS);
            let mut sim = Sim::new(topo);
            let h = install_load(&mut sim, &ids, LoadConfig::paper_defaults(), seed);
            sim.run_until(SimTime::from_secs(1_000));
            (h.jobs_started(&sim), sim.stats().completed_tasks)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
