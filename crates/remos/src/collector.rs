//! SNMP-style periodic collector.
//!
//! The local-area Remos implementation "is based on SNMP processes on
//! network nodes and entails a very low overhead" (paper §2.2). The
//! collector reproduces that measurement pipeline against the simulator:
//! every `period` seconds it reads each host's load average and each
//! directed link's octet counter, converts counter deltas to average
//! utilization over the interval, optionally perturbs the readings with
//! multiplicative Gaussian noise (real SNMP data is not exact), and pushes
//! them into bounded history rings.
//!
//! The sample store is a cloneable [`DriverLogic`] living *inside* the
//! simulator, so a warmed-up measurement pipeline survives [`Sim::fork`]
//! bit-exactly. The per-sample walks run over compute-node and
//! directed-link lists precomputed at install time, pushing into flat
//! fixed-capacity [`Window`] rings — steady-state collection allocates
//! nothing.
//!
//! Everything downstream (the [`crate::Remos`] query API) sees only these
//! sampled histories — never the simulator's ground truth — so selection
//! experiments automatically include measurement staleness and noise.
//!
//! **Degradation.** Sample attempts can fail: structurally (a crashed
//! host or a dead link does not answer) or stochastically
//! ([`CollectorConfig::loss`]). A failed attempt never corrupts the
//! stream — the history window is left untouched, so the published
//! estimate holds its last-known-good value, while the entity's
//! staleness counter and (for reachability failures) availability flag
//! are published through the same [`NetDelta`] stream. Consumers
//! therefore always see values that are either fresh or explicitly
//! flagged stale with decaying confidence, never a silently-fresh lie.

use crate::estimator::Estimator;
use crate::window::Window;
use nodesel_simnet::{DriverId, DriverLogic, Sim, SimTime};
use nodesel_topology::{Direction, EdgeId, NetDelta, NetMetrics, NetSnapshot, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Collector configuration.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Sampling period in seconds.
    pub period: f64,
    /// Number of samples retained per metric (the "fixed window of
    /// history").
    pub window: usize,
    /// Relative standard deviation of multiplicative measurement noise;
    /// `0.0` gives exact readings.
    pub noise: f64,
    /// Probability that a sample attempt is lost in transit (an SNMP
    /// query timing out); `0.0` means every reachable entity is sampled.
    /// Lost samples leave the published estimate at its last-known-good
    /// value and bump the entity's staleness counter instead.
    pub loss: f64,
    /// Seed for the noise and loss streams.
    pub seed: u64,
    /// Estimator condensing each history window into the annotation
    /// carried by the maintained snapshot stream
    /// (see [`crate::Remos::snapshot`]). Per-query estimators remain
    /// available on the individual query methods.
    pub estimator: Estimator,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            period: 5.0,
            window: 12,
            noise: 0.0,
            loss: 0.0,
            seed: 0,
            estimator: Estimator::Latest,
        }
    }
}

/// The collector's sampled state: per-node load histories and
/// per-directed-link utilization histories. Installed as a driver, so it
/// is part of the simulator and cloned by [`Sim::fork`].
#[derive(Debug, Clone)]
pub(crate) struct Samples {
    pub(crate) config: CollectorConfig,
    /// Structural reference to the network (capacities, speeds, names) —
    /// shared with the simulator, never mutated.
    pub(crate) base: Arc<Topology>,
    /// Compute nodes, in id order (precomputed at install; the per-sample
    /// walk never re-collects node ids).
    computes: Vec<NodeId>,
    /// Directed links in slot order (`edge_index * 2 + direction`).
    links: Vec<(EdgeId, Direction)>,
    /// Load-average history per node index (network-node rings stay
    /// empty).
    pub(crate) host: Vec<Window>,
    /// Utilization (bits/s) history per directed-link slot.
    pub(crate) link: Vec<Window>,
    /// Octet counter at the previous sample, per slot.
    last_bits: Vec<f64>,
    /// Time of the last *successful* counter read per directed slot, so
    /// rates stay gap-correct when an edge misses samples: on recovery
    /// the counter delta is divided by the true elapsed interval, not one
    /// period.
    slot_anchor: Vec<SimTime>,
    /// Missed-sample streak per node index (0 = fresh); only compute
    /// entries are maintained.
    node_misses: Vec<u32>,
    /// Missed-sample streak per edge index (0 = fresh).
    link_misses: Vec<u32>,
    /// Believed-reachable flag per node index, from the last sample
    /// attempt (a crashed host's daemon does not answer).
    node_live: Vec<bool>,
    /// Believed-up flag per edge index, from the last sample attempt.
    link_live: Vec<bool>,
    /// Total samples taken.
    pub(crate) sample_count: u64,
    /// The maintained snapshot stream: the logical topology under
    /// `config.estimator`, re-published after every sample that changed
    /// any estimate. The epoch advances only on change, so consumers can
    /// use it as a cheap "did anything move?" test.
    pub(crate) snap: NetSnapshot,
    /// Cumulative node entries across all published deltas.
    pub(crate) delta_node_entries: u64,
    /// Cumulative directed-link entries across all published deltas.
    pub(crate) delta_link_entries: u64,
    rng: StdRng,
    /// Independent stream for sample-loss draws, so turning loss on does
    /// not perturb the noise sequence (and `loss == 0.0` draws nothing).
    loss_rng: StdRng,
}

impl DriverLogic for Samples {
    fn fire(&mut self, sim: &mut Sim, me: DriverId) {
        self.take_sample(sim);
        sim.schedule_driver_in(self.config.period, me);
    }
}

impl Samples {
    /// The precomputed compute-node list, in id order.
    pub(crate) fn compute_nodes(&self) -> &[NodeId] {
        &self.computes
    }

    /// The precomputed directed-link list, in slot order.
    pub(crate) fn link_slots(&self) -> &[(EdgeId, Direction)] {
        &self.links
    }

    fn noisy(&mut self, x: f64) -> f64 {
        if self.config.noise == 0.0 {
            return x;
        }
        // Box–Muller with a throwaway pair member keeps this simple; noise
        // volume is tiny compared to the simulation.
        let u1: f64 = 1.0 - self.rng.random::<f64>();
        let u2: f64 = self.rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (x * (1.0 + self.config.noise * z)).max(0.0)
    }

    /// One loss-stream draw; never touches the RNG when loss is disabled
    /// (bit-parity with the loss-free collector).
    fn lose_sample(&mut self) -> bool {
        self.config.loss > 0.0 && self.loss_rng.random::<f64>() < self.config.loss
    }

    fn take_sample(&mut self, sim: &Sim) {
        let now = sim.now();
        for i in 0..self.computes.len() {
            let id = self.computes[i];
            // A crashed host's measurement daemon does not answer
            // (structural loss); a live one may still lose the query in
            // transit (stochastic loss). Either way the history window is
            // left untouched — the published estimate stays last-known-good
            // — and the staleness streak grows; only reachability failures
            // flip the availability flag.
            let reachable = sim.node_is_up(id);
            self.node_live[id.index()] = reachable;
            if !reachable || self.lose_sample() {
                self.node_misses[id.index()] = self.node_misses[id.index()].saturating_add(1);
                continue;
            }
            self.node_misses[id.index()] = 0;
            let v = sim.load_avg(id);
            let v = self.noisy(v);
            self.host[id.index()].push(v);
        }
        // Both directions of an edge share one management query: they are
        // read, lost, and aged together.
        for pair in 0..self.link_misses.len() {
            let reachable = sim.link_effective_up(self.links[pair * 2].0);
            self.link_live[pair] = reachable;
            if !reachable || self.lose_sample() {
                self.link_misses[pair] = self.link_misses[pair].saturating_add(1);
                continue;
            }
            self.link_misses[pair] = 0;
            for slot in [pair * 2, pair * 2 + 1] {
                let (e, dir) = self.links[slot];
                // Exact octet counter at the sample instant: the flow
                // table accumulates bits on every rate change and
                // extrapolates at the current rate on read, so lazy
                // settlement is invisible to this measurement path.
                let bits = sim.link_bits(e, dir);
                let dt = now.seconds_since(self.slot_anchor[slot]);
                let rate = if dt > 0.0 {
                    (bits - self.last_bits[slot]).max(0.0) / dt
                } else {
                    0.0
                };
                self.last_bits[slot] = bits;
                self.slot_anchor[slot] = now;
                let rate = self.noisy(rate);
                self.link[slot].push(rate);
            }
        }
        self.sample_count += 1;
        self.publish_snapshot();
    }

    /// Re-estimates every annotation and advances the snapshot stream by
    /// one epoch when anything changed. The arithmetic matches the
    /// per-query topology path exactly (`.max(0.0)` on loads,
    /// `.clamp(0.0, capacity)` on utilizations), so the maintained
    /// snapshot stays bit-identical to a fresh query.
    fn publish_snapshot(&mut self) {
        let est = self.config.estimator;
        let mut delta = NetDelta::default();
        for &id in &self.computes {
            let load = est.estimate(&self.host[id.index()]).max(0.0);
            if load.to_bits() != self.snap.load_avg(id).to_bits() {
                delta.nodes.push((id, load));
            }
        }
        for (slot, &(e, dir)) in self.links.iter().enumerate() {
            let cap = self.base.link(e).capacity(dir);
            let used = est.estimate(&self.link[slot]).clamp(0.0, cap);
            if used.to_bits() != self.snap.used(e, dir).to_bits() {
                delta.links.push((e, dir, used));
            }
        }
        // Health transitions: availability flips and staleness movement
        // ride the same incremental delta stream, so a snapshot value is
        // always either fresh or explicitly flagged stale — never stale
        // and presented fresh.
        for &id in &self.computes {
            if self.node_live[id.index()] != self.snap.node_available(id) {
                delta.avail_nodes.push((id, self.node_live[id.index()]));
            }
            if self.node_misses[id.index()] != self.snap.node_staleness(id) {
                delta.stale_nodes.push((id, self.node_misses[id.index()]));
            }
        }
        for pair in 0..self.link_misses.len() {
            let e = self.links[pair * 2].0;
            if self.link_live[pair] != self.snap.link_available(e) {
                delta.avail_links.push((e, self.link_live[pair]));
            }
            if self.link_misses[pair] != self.snap.link_staleness(e) {
                delta.stale_links.push((e, self.link_misses[pair]));
            }
        }
        if !delta.is_empty() {
            self.delta_node_entries += delta.nodes.len() as u64;
            self.delta_link_entries += delta.links.len() as u64;
            self.snap = self.snap.apply(&delta);
        }
    }
}

/// Installs a collector into the simulator and returns its driver id.
///
/// The first sample is taken one period after installation (counters need
/// a baseline interval), then every period thereafter, forever. Use
/// [`Sim::run_until`] to bound execution.
pub(crate) fn install(sim: &mut Sim, config: CollectorConfig) -> DriverId {
    assert!(config.period > 0.0, "sampling period must be positive");
    assert!(config.window >= 1, "window must hold at least one sample");
    assert!(
        (0.0..1.0).contains(&config.loss),
        "sample-loss probability must be in [0, 1)"
    );
    let base = sim.topology_shared();
    let computes: Vec<NodeId> = base.compute_nodes().collect();
    let links: Vec<(EdgeId, Direction)> = base
        .edge_ids()
        .flat_map(|e| [(e, Direction::AtoB), (e, Direction::BtoA)])
        .collect();
    debug_assert!(links
        .iter()
        .enumerate()
        .all(|(slot, &(e, dir))| slot == e.index() * 2 + dir as usize));
    // Baseline the octet counters at install time.
    let last_bits: Vec<f64> = links
        .iter()
        .map(|&(e, dir)| sim.link_bits(e, dir))
        .collect();
    let host = (0..base.node_count())
        .map(|_| Window::new(config.window))
        .collect();
    let link = (0..links.len())
        .map(|_| Window::new(config.window))
        .collect();
    // Epoch 0: a just-started monitor reports an unloaded network — zero
    // load on every compute node, zero utilization on every directed link
    // (annotations the structure may carry describe ground truth the
    // monitor has not measured yet). Network-node load entries are copied
    // as-is; they never influence derived metrics.
    let mut annotated = (*base).clone();
    for &id in &computes {
        annotated.set_load_avg(id, 0.0);
    }
    for &(e, dir) in &links {
        annotated.set_link_used(e, dir, 0.0);
    }
    let snap = NetSnapshot::capture(Arc::new(annotated));
    let node_count = base.node_count();
    let pair_count = links.len() / 2;
    let samples = Samples {
        config,
        base,
        computes,
        links,
        host,
        link,
        last_bits,
        slot_anchor: vec![sim.now(); pair_count * 2],
        node_misses: vec![0; node_count],
        link_misses: vec![0; pair_count],
        node_live: vec![true; node_count],
        link_live: vec![true; pair_count],
        sample_count: 0,
        snap,
        delta_node_entries: 0,
        delta_link_entries: 0,
        rng: StdRng::seed_from_u64(config.seed),
        loss_rng: StdRng::seed_from_u64(config.seed ^ 0x4C05_5E5A),
    };
    let id = sim.install_driver(samples);
    sim.schedule_driver_in(config.period, id);
    id
}

/// Convenience used by tests: the most recently sampled load average of
/// a node, if any sample exists.
#[cfg(test)]
pub(crate) fn latest_host(samples: &Samples, node: NodeId) -> Option<f64> {
    samples.host[node.index()].latest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;

    fn samples(sim: &Sim, id: DriverId) -> &Samples {
        sim.driver::<Samples>(id)
    }

    #[test]
    fn sampling_cadence() {
        let (topo, _) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let s = install(
            &mut sim,
            CollectorConfig {
                period: 5.0,
                ..CollectorConfig::default()
            },
        );
        sim.run_until(SimTime::from_secs(26));
        assert_eq!(samples(&sim, s).sample_count, 5);
    }

    #[test]
    fn load_history_tracks_running_job() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let s = install(&mut sim, CollectorConfig::default());
        sim.start_compute(ids[0], 1e9, |_| {});
        sim.run_until(SimTime::from_secs(600));
        let st = samples(&sim, s);
        let h0 = latest_host(st, ids[0]).unwrap();
        let h1 = latest_host(st, ids[1]).unwrap();
        assert!(h0 > 0.9, "loaded host measured {h0}");
        assert!(h1 < 0.01, "idle host measured {h1}");
    }

    #[test]
    fn link_history_measures_flow_rate() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let e = topo.edge_ids().next().unwrap();
        let fwd = topo
            .link(e)
            .direction_from(topo.node_by_name("hub").unwrap());
        let mut sim = Sim::new(topo);
        let s = install(&mut sim, CollectorConfig::default());
        // Long flow n0 -> n1 at full line rate (crosses hub).
        sim.start_transfer(ids[0], ids[1], 1e18, |_| {});
        sim.run_until(SimTime::from_secs(60));
        let st = samples(&sim, s);
        // The hub->n1 access link direction carries 100 Mbps; locate its
        // slot via the second edge (hub-n1 is edge index 1).
        let e1 = nodesel_topology::EdgeId::from_index(1);
        let slot = e1.index() * 2 + fwd as usize;
        let measured = st.link[slot].latest().unwrap();
        assert!(
            (measured - 100.0 * MBPS).abs() < MBPS,
            "measured {measured}"
        );
    }

    #[test]
    fn window_is_bounded() {
        let (topo, _) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let s = install(
            &mut sim,
            CollectorConfig {
                period: 1.0,
                window: 4,
                ..CollectorConfig::default()
            },
        );
        sim.run_until(SimTime::from_secs(60));
        let st = samples(&sim, s);
        for ring in &st.host {
            assert!(ring.len() <= 4);
        }
        for ring in &st.link {
            assert!(ring.len() <= 4);
        }
    }

    #[test]
    fn noise_is_deterministic_and_nonnegative() {
        let run = |seed| {
            let (topo, ids) = star(2, 100.0 * MBPS);
            let mut sim = Sim::new(topo);
            let s = install(
                &mut sim,
                CollectorConfig {
                    noise: 0.2,
                    seed,
                    ..CollectorConfig::default()
                },
            );
            sim.start_compute(ids[0], 1e9, |_| {});
            sim.run_until(SimTime::from_secs(300));
            let st = samples(&sim, s);
            let v: Vec<f64> = st.host[ids[0].index()].iter().collect();
            assert!(v.iter().all(|&x| x >= 0.0));
            v
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn crashed_node_goes_stale_not_silently_fresh() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let s = install(&mut sim, CollectorConfig::default());
        sim.start_compute_detached(ids[0], 1e9);
        sim.run_until(SimTime::from_secs(60));
        let before = samples(&sim, s).snap.clone();
        assert!(before.node_available(ids[0]));
        assert_eq!(before.node_staleness(ids[0]), 0);
        sim.crash_node(ids[0]);
        sim.run_until(SimTime::from_secs(120));
        let st = samples(&sim, s);
        // Unreachable: flagged down, aging, estimate frozen at the
        // last-known-good value rather than silently refreshed.
        assert!(!st.snap.node_available(ids[0]));
        assert!(st.snap.node_staleness(ids[0]) > 0);
        assert_eq!(
            st.snap.load_avg(ids[0]).to_bits(),
            before.load_avg(ids[0]).to_bits()
        );
        assert_eq!(st.snap.effective_cpu(ids[0]), 0.0);
        // The healthy node keeps sampling fresh.
        assert!(st.snap.node_available(ids[1]));
        assert_eq!(st.snap.node_staleness(ids[1]), 0);
        // Recovery: reboot, next samples are fresh again.
        sim.reboot_node(ids[0]);
        sim.run_until(SimTime::from_secs(180));
        let st = samples(&sim, s);
        assert!(st.snap.node_available(ids[0]));
        assert_eq!(st.snap.node_staleness(ids[0]), 0);
    }

    #[test]
    fn dead_link_reports_zero_available_bandwidth() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let e = topo.edge_ids().next().unwrap();
        let mut sim = Sim::new(topo);
        let s = install(&mut sim, CollectorConfig::default());
        sim.start_transfer(ids[0], ids[1], 1e18, |_| {});
        sim.run_until(SimTime::from_secs(30));
        sim.set_link_up(e, false);
        sim.run_until(SimTime::from_secs(60));
        let st = samples(&sim, s);
        assert!(!st.snap.link_available(e));
        assert!(st.snap.link_staleness(e) > 0);
        // Down links advertise zero available bandwidth — never NaN and
        // never their idle capacity.
        assert_eq!(st.snap.available(e, Direction::AtoB), 0.0);
        assert_eq!(st.snap.bw(e), 0.0);
        assert_eq!(st.snap.bwfactor(e), 0.0);
        sim.set_link_up(e, true);
        sim.run_until(SimTime::from_secs(120));
        let st = samples(&sim, s);
        assert!(st.snap.link_available(e));
        assert_eq!(st.snap.link_staleness(e), 0);
        // The resumed flow saturates the link again: fresh measurement,
        // finite non-negative availability.
        assert!(st.snap.used(e, Direction::AtoB) > 0.0 || st.snap.used(e, Direction::BtoA) > 0.0);
        assert!(st.snap.bw(e) >= 0.0 && st.snap.bw(e).is_finite());
    }

    #[test]
    fn sample_loss_ages_estimates_and_is_deterministic() {
        let run = |seed| {
            let (topo, ids) = star(3, 100.0 * MBPS);
            let mut sim = Sim::new(topo);
            let s = install(
                &mut sim,
                CollectorConfig {
                    loss: 0.5,
                    seed,
                    window: 1000,
                    ..CollectorConfig::default()
                },
            );
            sim.start_compute_detached(ids[0], 1e9);
            sim.run_until(SimTime::from_secs(300));
            let st = samples(&sim, s);
            // Heavy loss: histories are shorter than the sample count,
            // but every entity remains either fresh or flagged stale.
            assert!(st.host[ids[0].index()].len() < st.sample_count as usize);
            for &id in st.compute_nodes() {
                assert!(st.snap.node_available(id), "loss is not unreachability");
            }
            let stale: Vec<u32> = st
                .compute_nodes()
                .iter()
                .map(|&id| st.snap.node_staleness(id))
                .collect();
            (stale, st.snap.load_avg(ids[0]).to_bits(), st.snap.epoch())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn collector_keeps_sim_forkable_and_forks_agree() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let s = install(&mut sim, CollectorConfig::default());
        sim.start_compute_detached(ids[0], 1e9);
        sim.run_until(SimTime::from_secs(120));
        assert!(sim.can_fork(), "collector left a closure pending");
        let mut fork = sim.fork();
        fork.run_until(SimTime::from_secs(600));
        sim.run_until(SimTime::from_secs(600));
        let (a, b) = (samples(&sim, s), samples(&fork, s));
        assert_eq!(a.sample_count, b.sample_count);
        assert_eq!(
            latest_host(a, ids[0]).map(f64::to_bits),
            latest_host(b, ids[0]).map(f64::to_bits)
        );
    }
}
