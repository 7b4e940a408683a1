//! The two-level Remos query API: flow queries and logical topology.

use crate::collector::{install, CollectorConfig, Samples};
use crate::estimator::Estimator;
use nodesel_simnet::{DriverId, Sim};
use nodesel_topology::{Direction, NetMetrics, NetSnapshot, NodeId, Topology, TopologyError};
use std::cell::Cell;
use std::rc::Rc;

/// Counters of API usage: "the cost that an application pays ... is low
/// and directly related to the depth and frequency of its requests for
/// network information" (paper §2.2). These counters expose that
/// frequency so experiments can report the measurement bill of each
/// strategy (e.g. tomography's O(n²) pair probes vs one topology query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Logical-topology queries served.
    pub topology_queries: u64,
    /// Flow-query calls served (independent and sharing-aware).
    pub flow_queries: u64,
    /// Total node pairs evaluated across all flow queries.
    pub pairs_queried: u64,
    /// Host-query calls served.
    pub host_queries: u64,
    /// [`Remos::snapshot`] calls that returned the epoch this handle had
    /// already seen — the caller's cached selection state is still valid.
    pub snapshot_hits: u64,
    /// [`Remos::snapshot`] calls that returned a new epoch.
    pub snapshot_misses: u64,
    /// Cumulative node entries across the collector's published deltas,
    /// as of the last [`Remos::snapshot`] call.
    pub delta_node_entries: u64,
    /// Cumulative directed-link entries across the collector's published
    /// deltas, as of the last [`Remos::snapshot`] call.
    pub delta_link_entries: u64,
}

/// Result of a flow query for one node pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowInfo {
    /// Flow source.
    pub src: NodeId,
    /// Flow destination.
    pub dst: NodeId,
    /// Estimated available bandwidth along the fixed route, bits/s.
    pub available_bw: f64,
    /// One-way latency along the route, seconds.
    pub latency: f64,
    /// Number of links on the route.
    pub hops: usize,
}

/// Result of a host query for one compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// The node.
    pub node: NodeId,
    /// Estimated load average.
    pub load_avg: f64,
    /// Available CPU fraction `1/(1+loadavg)`.
    pub cpu: f64,
    /// Relative speed of the node.
    pub speed: f64,
}

/// The Remos query interface.
///
/// A `Remos` handle addresses the sample store fed by the periodic
/// collector, which lives *inside* the simulator (so it is cloned by
/// [`Sim::fork`] and queries take the simulator they are asked against —
/// one handle works on the original and on every fork). Queries are
/// answered purely from sampled history — the interface never peeks at
/// simulator ground truth — which reproduces the defining property of the
/// real system: applications see *measurements*, with their period,
/// staleness and noise.
///
/// The two abstraction levels of the paper's API are
/// [`Remos::snapshot`] (a functional snapshot of the network, annotated
/// with measured conditions) and [`Remos::flow_query`] (end-to-end
/// available bandwidth for specific node pairs).
#[derive(Clone)]
pub struct Remos {
    driver: DriverId,
    stats: Rc<Cell<QueryStats>>,
    /// Epoch of the last snapshot served through this handle (shared
    /// across clones), for the hit/miss accounting.
    seen_epoch: Rc<Cell<Option<u64>>>,
}

impl Remos {
    /// Installs the SNMP-style collector into a simulator and returns the
    /// query handle.
    pub fn install(sim: &mut Sim, config: CollectorConfig) -> Remos {
        Remos {
            driver: install(sim, config),
            stats: Rc::new(Cell::new(QueryStats::default())),
            seen_epoch: Rc::new(Cell::new(None)),
        }
    }

    /// API-usage counters accumulated by this handle (shared across
    /// clones).
    pub fn query_stats(&self) -> QueryStats {
        self.stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut QueryStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn samples<'a>(&self, sim: &'a Sim) -> &'a Samples {
        sim.driver::<Samples>(self.driver)
    }

    /// Number of collection rounds completed so far.
    pub fn sample_count(&self, sim: &Sim) -> u64 {
        self.samples(sim).sample_count
    }

    /// The collector's published confidence: the minimum
    /// staleness-confidence across the available entities of the
    /// snapshot it currently publishes
    /// ([`NetMetrics::min_confidence`]). `1.0` while every reachable
    /// entity samples cleanly; decays geometrically as losses accumulate.
    /// A placement service consuming the snapshot stream feeds this
    /// scalar to its degraded-mode policy ("how much should I trust what
    /// I am serving"). Free: reads the published snapshot, counts no
    /// query.
    pub fn confidence(&self, sim: &Sim) -> f64 {
        self.samples(sim).snap.min_confidence()
    }

    /// The collector-maintained logical topology as a versioned
    /// [`NetSnapshot`], annotated under the collector's configured
    /// estimator ([`CollectorConfig::estimator`]).
    ///
    /// The collector re-publishes the snapshot after every sample that
    /// changed any estimate, so the epoch advances **only on change**:
    /// two calls returning the same [`NetSnapshot::epoch`] are guaranteed
    /// bit-identical, and [`NetSnapshot::diff`] against a previously
    /// returned snapshot yields exactly the churn in between — the input
    /// an incremental selector's `refresh` needs. Returning the snapshot
    /// is a handful of `Arc` bumps; nothing is copied.
    ///
    /// Counts as one topology query; additionally recorded as a
    /// [`QueryStats::snapshot_hits`] when this handle had already seen
    /// the returned epoch, else a miss.
    pub fn snapshot(&self, sim: &Sim) -> NetSnapshot {
        let st = self.samples(sim);
        let snap = st.snap.clone();
        let hit = self.seen_epoch.get() == Some(snap.epoch());
        self.seen_epoch.set(Some(snap.epoch()));
        let (dn, dl) = (st.delta_node_entries, st.delta_link_entries);
        self.bump(|s| {
            s.topology_queries += 1;
            if hit {
                s.snapshot_hits += 1;
            } else {
                s.snapshot_misses += 1;
            }
            s.delta_node_entries = dn;
            s.delta_link_entries = dl;
        });
        snap
    }

    /// Like [`Remos::snapshot`], but returns `None` when the collector
    /// has published nothing since the epoch this handle last saw — the
    /// caller's cached selection state (and any service cache keyed on
    /// the epoch) is still valid and there is nothing to diff. Counts as
    /// one topology query and a [`QueryStats::snapshot_hits`]; a `Some`
    /// return carries the accounting of the underlying [`Remos::snapshot`]
    /// call (a miss).
    pub fn snapshot_if_new(&self, sim: &Sim) -> Option<NetSnapshot> {
        let st = self.samples(sim);
        if self.seen_epoch.get() == Some(st.snap.epoch()) {
            let (dn, dl) = (st.delta_node_entries, st.delta_link_entries);
            self.bump(|s| {
                s.topology_queries += 1;
                s.snapshot_hits += 1;
                s.delta_node_entries = dn;
                s.delta_link_entries = dl;
            });
            return None;
        }
        Some(self.snapshot(sim))
    }

    /// Owned estimated topology under an explicit estimator: the shared
    /// materialization behind the flow queries, which re-estimate under
    /// the caller's [`Estimator`] rather than the collector's configured
    /// one. External consumers use [`Remos::snapshot`] (and
    /// `NetSnapshot::to_topology` when an owned graph is needed).
    fn estimated_topology(&self, sim: &Sim, estimator: Estimator) -> Topology {
        self.bump(|s| s.topology_queries += 1);
        let st = self.samples(sim);
        let mut topo = (*st.base).clone();
        for &id in st.compute_nodes() {
            let load = estimator.estimate(&st.host[id.index()]).max(0.0);
            topo.set_load_avg(id, load);
        }
        for (slot, &(e, dir)) in st.link_slots().iter().enumerate() {
            let cap = topo.link(e).capacity(dir);
            let used = estimator.estimate(&st.link[slot]).clamp(0.0, cap);
            topo.set_link_used(e, dir, used);
        }
        topo
    }

    /// Flow queries: estimated available bandwidth and latency between each
    /// requested pair, over the network's fixed routes.
    pub fn flow_query(
        &self,
        sim: &Sim,
        pairs: &[(NodeId, NodeId)],
        estimator: Estimator,
    ) -> Result<Vec<FlowInfo>, TopologyError> {
        self.bump(|s| {
            s.flow_queries += 1;
            s.pairs_queried += pairs.len() as u64;
        });
        let topo = self.estimated_topology(sim, estimator);
        let routes = topo.routes();
        pairs
            .iter()
            .map(|&(src, dst)| {
                let path = routes.path(src, dst)?;
                Ok(FlowInfo {
                    src,
                    dst,
                    available_bw: routes.available_bandwidth(src, dst)?,
                    latency: routes.latency(src, dst)?,
                    hops: path.len(),
                })
            })
            .collect()
    }

    /// Sharing-aware flow queries (paper §2.2: flow queries "account for
    /// sharing of network links by multiple flows").
    ///
    /// Where [`Remos::flow_query`] reports each pair's available bandwidth
    /// independently, this predicts the max-min fair rate each requested
    /// flow would obtain if **all of them ran simultaneously**, competing
    /// for whatever capacity the measured background traffic has left.
    /// This is what an application planning a communication phase (e.g. an
    /// all-to-all) should ask for.
    pub fn flow_query_shared(
        &self,
        sim: &Sim,
        pairs: &[(NodeId, NodeId)],
        estimator: Estimator,
    ) -> Result<Vec<FlowInfo>, TopologyError> {
        self.bump(|s| {
            s.flow_queries += 1;
            s.pairs_queried += pairs.len() as u64;
        });
        let topo = self.estimated_topology(sim, estimator);
        let routes = topo.routes();
        // Residual capacity per directed link after measured background
        // traffic.
        let mut capacity = vec![0.0; topo.link_count() * 2];
        for e in topo.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                capacity[nodesel_topology::maxmin::dir_slot(e, dir)] = topo.link(e).available(dir);
            }
        }
        let mut paths = Vec::with_capacity(pairs.len());
        let mut flow_slots = Vec::with_capacity(pairs.len());
        for &(src, dst) in pairs {
            let path = routes.path(src, dst)?;
            flow_slots.push(
                path.hops
                    .iter()
                    .map(|&(e, d)| nodesel_topology::maxmin::dir_slot(e, d))
                    .collect::<Vec<_>>(),
            );
            paths.push(path);
        }
        let rates = nodesel_topology::maxmin::max_min_allocate(&capacity, &flow_slots);
        pairs
            .iter()
            .zip(paths.iter().zip(rates))
            .map(|(&(src, dst), (path, rate))| {
                Ok(FlowInfo {
                    src,
                    dst,
                    available_bw: rate,
                    latency: routes.latency(src, dst)?,
                    hops: path.len(),
                })
            })
            .collect()
    }

    /// Host queries: estimated load and available CPU for each node.
    /// Errors on network nodes.
    pub fn host_query(
        &self,
        sim: &Sim,
        nodes: &[NodeId],
        estimator: Estimator,
    ) -> Result<Vec<HostInfo>, TopologyError> {
        self.bump(|s| s.host_queries += 1);
        let st = self.samples(sim);
        nodes
            .iter()
            .map(|&node| {
                let n = st.base.node(node);
                if !n.is_compute() {
                    return Err(TopologyError::NotComputeNode(node));
                }
                let load_avg = estimator.estimate(&st.host[node.index()]).max(0.0);
                Ok(HostInfo {
                    node,
                    load_avg,
                    cpu: 1.0 / (1.0 + load_avg),
                    speed: n.speed(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_simnet::SimTime;
    use nodesel_topology::builders::{chain, star};
    use nodesel_topology::units::MBPS;
    use nodesel_topology::NetMetrics;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn snapshot_matches_estimated_topology_bitwise() {
        // The flow queries re-estimate through the private owned-topology
        // materialization; it must agree bitwise with the published
        // snapshot under the collector's estimator.
        let (topo, ids) = chain(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        sim.start_compute(ids[1], 1e9, |_| {});
        sim.start_transfer(ids[0], ids[2], 1e18, |_| {});
        sim.run_until(secs(600));
        let snap = remos.snapshot(&sim);
        let queried = remos.estimated_topology(&sim, Estimator::Latest);
        for n in queried.node_ids() {
            assert_eq!(
                snap.load_avg(n).to_bits(),
                queried.node(n).load_avg().to_bits()
            );
        }
        for e in queried.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                assert_eq!(
                    snap.used(e, dir).to_bits(),
                    queried.link(e).used(dir).to_bits()
                );
            }
        }
        assert!(snap.epoch() > 0, "churn must have advanced the epoch");
    }

    #[test]
    fn snapshot_epoch_advances_only_on_change() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        // An idle network samples forever without changing any estimate.
        sim.run_until(secs(300));
        let a = remos.snapshot(&sim);
        assert_eq!(a.epoch(), 0);
        sim.run_until(secs(600));
        let b = remos.snapshot(&sim);
        assert_eq!(b.epoch(), 0);
        assert!(a.same_structure(&b));
        // Load appears: the next samples publish new epochs.
        sim.start_compute(ids[0], 1e9, |_| {});
        sim.run_until(secs(900));
        let c = remos.snapshot(&sim);
        assert!(c.epoch() > 0);
        assert!(a.same_structure(&c));
        let delta = c.diff(&a);
        assert!(delta.nodes.iter().any(|&(n, _)| n == ids[0]));
        let stats = remos.query_stats();
        assert_eq!(stats.snapshot_hits, 1); // the second idle call
        assert_eq!(stats.snapshot_misses, 2);
        assert!(stats.delta_node_entries > 0);
    }

    #[test]
    fn snapshot_if_new_skips_seen_epochs() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        sim.run_until(secs(300));
        let first = remos
            .snapshot_if_new(&sim)
            .expect("a fresh handle has seen no epoch");
        // Nothing republished: the handle reports "still current".
        assert!(remos.snapshot_if_new(&sim).is_none());
        assert!(remos.snapshot_if_new(&sim).is_none());
        // Churn publishes a new epoch; the next call returns it.
        sim.start_compute(ids[0], 1e9, |_| {});
        sim.run_until(secs(600));
        let next = remos.snapshot_if_new(&sim).expect("epoch advanced");
        assert!(next.epoch() > first.epoch());
        assert!(next.same_structure(&first));
        let stats = remos.query_stats();
        assert_eq!(stats.topology_queries, 4);
        assert_eq!(stats.snapshot_hits, 2);
        assert_eq!(stats.snapshot_misses, 2);
    }

    #[test]
    fn snapshot_survives_forks() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        sim.start_compute_detached(ids[0], 1e9);
        sim.run_until(secs(120));
        let mut fork = sim.fork();
        fork.run_until(secs(600));
        sim.run_until(secs(600));
        let (a, b) = (remos.snapshot(&sim), remos.snapshot(&fork));
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.load_values(), b.load_values());
    }

    #[test]
    fn fresh_monitor_reports_unloaded_network() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        let t = remos.snapshot(&sim).to_topology();
        assert_eq!(t.node(ids[0]).cpu(), 1.0);
        for e in t.edge_ids() {
            assert_eq!(t.link(e).bwfactor(), 1.0);
        }
        assert_eq!(remos.sample_count(&sim), 0);
    }

    #[test]
    fn topology_reflects_measured_load_and_traffic() {
        let (topo, ids) = chain(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        sim.start_compute(ids[1], 1e9, |_| {});
        sim.start_transfer(ids[0], ids[2], 1e18, |_| {});
        sim.run_until(secs(600));
        let t = remos.snapshot(&sim).to_topology();
        assert!(t.node(ids[1]).load_avg() > 0.9);
        assert!(t.node(ids[0]).load_avg() < 0.05);
        // Both chain links are saturated in the forward direction.
        for e in t.edge_ids() {
            assert!(t.link(e).bw() < MBPS, "bw {}", t.link(e).bw());
        }
    }

    #[test]
    fn flow_query_reports_available_bandwidth_and_latency() {
        let mut topo = Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let s = topo.add_network_node("s");
        let b = topo.add_compute_node("b", 1.0);
        topo.add_link_full(a, s, 100.0 * MBPS, 100.0 * MBPS, 0.001);
        topo.add_link_full(s, b, 10.0 * MBPS, 10.0 * MBPS, 0.002);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        sim.run_until(secs(30));
        let infos = remos
            .flow_query(&sim, &[(a, b), (b, a)], Estimator::Latest)
            .unwrap();
        assert_eq!(infos[0].available_bw, 10.0 * MBPS);
        assert_eq!(infos[0].hops, 2);
        assert!((infos[0].latency - 0.003).abs() < 1e-12);
        assert_eq!(infos[1].available_bw, 10.0 * MBPS);
    }

    #[test]
    fn measurements_are_stale_not_instant() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(
            &mut sim,
            CollectorConfig {
                period: 10.0,
                ..CollectorConfig::default()
            },
        );
        // Let a couple of idle samples land, then start the job.
        sim.run_until(secs(25));
        sim.start_compute(ids[0], 1e9, |_| {});
        sim.run_until(secs(29));
        // True load is ramping up but the last sample (t=20) predates it.
        assert_eq!(remos.snapshot(&sim).load_avg(ids[0]), 0.0);
        sim.run_until(secs(300));
        assert!(remos.snapshot(&sim).load_avg(ids[0]) > 0.9);
    }

    #[test]
    fn estimators_disagree_on_transients() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        // Load for the first 150s only, then idle.
        sim.start_compute(ids[0], 150.0, |_| {});
        sim.run_until(secs(175));
        let latest = remos
            .host_query(&sim, &[ids[0]], Estimator::Latest)
            .unwrap()[0]
            .load_avg;
        let mean = remos
            .host_query(&sim, &[ids[0]], Estimator::WindowMean)
            .unwrap()[0]
            .load_avg;
        // The window mean still remembers the loaded period.
        assert!(mean > latest);
    }

    #[test]
    fn host_query_rejects_network_nodes() {
        let (topo, _) = star(2, 100.0 * MBPS);
        let hub = topo.node_by_name("hub").unwrap();
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        assert!(matches!(
            remos.host_query(&sim, &[hub], Estimator::Latest),
            Err(TopologyError::NotComputeNode(_))
        ));
    }

    #[test]
    fn flow_query_errors_on_disconnected_pair() {
        let mut topo = Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        let mut sim = Sim::new(topo.clone());
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        assert!(remos
            .flow_query(&sim, &[(a, b)], Estimator::Latest)
            .is_err());
    }
    #[test]
    fn shared_flow_query_divides_a_common_bottleneck() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        sim.run_until(secs(30));
        // Two flows converging on n2: independently each sees 100 Mbps,
        // together they split n2's access link 50/50.
        let pairs = [(ids[0], ids[2]), (ids[1], ids[2])];
        let indep = remos.flow_query(&sim, &pairs, Estimator::Latest).unwrap();
        assert_eq!(indep[0].available_bw, 100.0 * MBPS);
        assert_eq!(indep[1].available_bw, 100.0 * MBPS);
        let shared = remos
            .flow_query_shared(&sim, &pairs, Estimator::Latest)
            .unwrap();
        assert_eq!(shared[0].available_bw, 50.0 * MBPS);
        assert_eq!(shared[1].available_bw, 50.0 * MBPS);
    }

    #[test]
    fn shared_flow_query_respects_background_traffic() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        // Persistent background flow into n2 consumes ~100 Mbps of its
        // access link... shared with whatever else runs, but the *measured*
        // utilization is what the prediction subtracts.
        sim.start_transfer(ids[0], ids[2], 1e18, |_| {});
        sim.run_until(secs(60));
        let shared = remos
            .flow_query_shared(&sim, &[(ids[1], ids[2])], Estimator::Latest)
            .unwrap();
        // The link is measured as saturated, so the predicted residual
        // share is near zero.
        assert!(
            shared[0].available_bw < 5.0 * MBPS,
            "{}",
            shared[0].available_bw
        );
    }

    #[test]
    fn shared_flow_query_disjoint_paths_unaffected() {
        let (topo, ids) = star(4, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        sim.run_until(secs(10));
        // Disjoint pairs keep full rate even when queried together.
        let shared = remos
            .flow_query_shared(
                &sim,
                &[(ids[0], ids[1]), (ids[2], ids[3])],
                Estimator::Latest,
            )
            .unwrap();
        assert_eq!(shared[0].available_bw, 100.0 * MBPS);
        assert_eq!(shared[1].available_bw, 100.0 * MBPS);
    }
    #[test]
    fn query_stats_count_usage() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let remos = Remos::install(&mut sim, CollectorConfig::default());
        assert_eq!(remos.query_stats(), QueryStats::default());
        let _ = remos.snapshot(&sim);
        let _ = remos.flow_query(
            &sim,
            &[(ids[0], ids[1]), (ids[1], ids[2])],
            Estimator::Latest,
        );
        let _ = remos.host_query(&sim, &ids, Estimator::Latest);
        let stats = remos.query_stats();
        // flow_query internally materializes one estimated topology too.
        assert_eq!(stats.topology_queries, 2);
        assert_eq!(stats.flow_queries, 1);
        assert_eq!(stats.pairs_queried, 2);
        assert_eq!(stats.host_queries, 1);
        // Clones share the counters (and the seen epoch: the re-snapshot
        // of an unchanged network is a hit).
        let clone = remos.clone();
        let _ = clone.snapshot(&sim);
        let stats = remos.query_stats();
        assert_eq!(stats.topology_queries, 3);
        assert_eq!(stats.snapshot_hits, 1);
        assert_eq!(stats.snapshot_misses, 1);
    }
}
