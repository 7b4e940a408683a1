//! Versioned, immutable annotated-topology snapshots.
//!
//! The paper's framework is a continuously running service: Remos status
//! changes, and node selection must be re-evaluated repeatedly against
//! it. Re-cloning the whole [`Topology`] per query makes every epoch pay
//! O(V + E) before any algorithm runs. A [`NetSnapshot`] separates the
//! *structure* (nodes, links, capacities, speeds, names — `Arc`-shared,
//! never copied per epoch) from the *dynamic annotations* (per-node load
//! averages and per-directed-link utilizations — flat `Arc<[f64]>`
//! arrays), stamped with an epoch counter. Successive epochs are derived
//! with [`NetSnapshot::apply`], which copies only the metric array(s) a
//! [`NetDelta`] actually touches.
//!
//! The [`NetMetrics`] trait abstracts "an annotated network" over both
//! representations: a plain `Topology` (whose annotations live on its
//! nodes and links) and a `NetSnapshot` (whose annotations live in the
//! flat arrays). Every derived quantity of §3.1 — `cpu = 1/(1+loadavg)`,
//! `bw`, `maxbw`, `bwfactor` — is a *provided* method with exactly one
//! definition, so algorithms generic over `NetMetrics` compute
//! bit-identical results on either representation by construction.

use crate::maxmin::dir_slot;
use crate::{Direction, EdgeId, NodeId, Topology};
use std::sync::Arc;

/// Confidence multiplier for a metric whose last `misses` measurement
/// samples were lost: `0.8^misses`, exactly `1.0` for fresh data.
///
/// Degraded Remos data decays geometrically toward zero so that a value
/// is never *silently* presented as fresh: consumers that scale by
/// confidence (the provided [`NetMetrics`] methods do) discount stale
/// readings more the older they get, and the multiplier for fresh data
/// is the bitwise identity, so a fully-fresh snapshot computes exactly
/// the pre-degradation numbers.
pub fn staleness_confidence(misses: u32) -> f64 {
    if misses == 0 {
        1.0
    } else {
        0.8f64.powi(misses.min(4096) as i32)
    }
}

/// Read access to an annotated network: graph structure plus the dynamic
/// per-node / per-directed-link measurements the selection algorithms
/// consume.
///
/// Implementations provide the two raw metrics ([`NetMetrics::load_avg`],
/// [`NetMetrics::used`]); every derived quantity is a provided method so
/// that all implementations agree bit-for-bit with the reference formulas
/// on [`crate::Node`] and [`crate::Link`].
pub trait NetMetrics {
    /// The graph structure the metrics annotate.
    fn structure(&self) -> &Topology;

    /// Load average attributed to a node.
    fn load_avg(&self, n: NodeId) -> f64;

    /// Consumed bandwidth of a link direction, bits/s.
    fn used(&self, e: EdgeId, dir: Direction) -> f64;

    /// Available CPU fraction `1/(1+loadavg)`; network nodes report 0.
    fn cpu(&self, n: NodeId) -> f64 {
        if self.structure().node(n).is_compute() {
            1.0 / (1.0 + self.load_avg(n))
        } else {
            0.0
        }
    }

    /// True when the node is believed reachable and running.
    /// Implementations without availability data report `true`.
    fn node_available(&self, _n: NodeId) -> bool {
        true
    }

    /// True when the link is believed up (not faulted or partitioned
    /// away). Implementations without availability data report `true`.
    fn link_available(&self, _e: EdgeId) -> bool {
        true
    }

    /// Consecutive measurement samples missed for this node's metrics;
    /// 0 means the annotations are fresh. Implementations without
    /// degradation tracking report 0.
    fn node_staleness(&self, _n: NodeId) -> u32 {
        0
    }

    /// Consecutive measurement samples missed for this link's metrics;
    /// 0 means the annotations are fresh.
    fn link_staleness(&self, _e: EdgeId) -> u32 {
        0
    }

    /// Confidence in this node's annotations:
    /// [`staleness_confidence`]`(node_staleness)`.
    fn node_confidence(&self, n: NodeId) -> f64 {
        staleness_confidence(self.node_staleness(n))
    }

    /// Confidence in this link's annotations:
    /// [`staleness_confidence`]`(link_staleness)`.
    fn link_confidence(&self, e: EdgeId) -> f64 {
        staleness_confidence(self.link_staleness(e))
    }

    /// Available computation normalized to the reference node type:
    /// `cpu * speed`, confidence-decayed when the load average is stale
    /// and 0 when the node is believed down. Fresh data on an available
    /// node computes bit-identical `cpu * speed` (the confidence
    /// multiplier is exactly 1.0).
    fn effective_cpu(&self, n: NodeId) -> f64 {
        if !self.node_available(n) {
            return 0.0;
        }
        self.cpu(n) * self.structure().node(n).speed() * self.node_confidence(n)
    }

    /// Peak bandwidth of a link direction, bits/s.
    fn capacity(&self, e: EdgeId, dir: Direction) -> f64 {
        self.structure().link(e).capacity(dir)
    }

    /// Available bandwidth of a link direction, bits/s (never negative):
    /// `capacity - used`, confidence-decayed when the utilization sample
    /// is stale and 0 when the link is believed down. Fresh data on an
    /// up link computes bit-identical `(capacity - used).max(0)`.
    fn available(&self, e: EdgeId, dir: Direction) -> f64 {
        if !self.link_available(e) {
            return 0.0;
        }
        (self.capacity(e, dir) - self.used(e, dir)).max(0.0) * self.link_confidence(e)
    }

    /// `bw(i, j)`: currently available bandwidth of the link — the
    /// minimum over its two directions.
    fn bw(&self, e: EdgeId) -> f64 {
        self.available(e, Direction::AtoB)
            .min(self.available(e, Direction::BtoA))
    }

    /// `maxbw(i, j)`: peak bandwidth of the link.
    fn maxbw(&self, e: EdgeId) -> f64 {
        self.capacity(e, Direction::AtoB)
            .min(self.capacity(e, Direction::BtoA))
    }

    /// `bwfactor = bw / maxbw`; 0 for administratively-down links.
    fn bwfactor(&self, e: EdgeId) -> f64 {
        let maxbw = self.maxbw(e);
        if maxbw == 0.0 {
            0.0
        } else {
            self.bw(e) / maxbw
        }
    }

    /// The lowest annotation confidence across the network's *available*
    /// entities: the min of [`NetMetrics::node_confidence`] over
    /// available compute nodes and [`NetMetrics::link_confidence`] over
    /// available links. Entities reported down are excluded — their
    /// metrics are already zeroed, and one crashed host should not mark
    /// the rest of the snapshot untrustworthy. `1.0` when everything
    /// reachable is fresh (the empty min is `1.0` too: a network with
    /// nothing available has nothing to distrust).
    ///
    /// This is the scalar a degraded-mode consumer wants: "how stale is
    /// the most-stale measurement I might be basing an answer on".
    fn min_confidence(&self) -> f64 {
        let topo = self.structure();
        let mut min = 1.0f64;
        for n in topo.compute_nodes() {
            if self.node_available(n) {
                min = min.min(self.node_confidence(n));
            }
        }
        for e in topo.edge_ids() {
            if self.link_available(e) {
                min = min.min(self.link_confidence(e));
            }
        }
        min
    }
}

impl NetMetrics for Topology {
    fn structure(&self) -> &Topology {
        self
    }

    fn load_avg(&self, n: NodeId) -> f64 {
        self.node(n).load_avg()
    }

    fn used(&self, e: EdgeId, dir: Direction) -> f64 {
        self.link(e).used(dir)
    }
}

/// A set of changed annotations between two epochs: the *new* values for
/// every node load and directed-link utilization that changed.
///
/// Entries are expected in ascending id / slot order (as produced by
/// [`NetSnapshot::diff`]); [`NetSnapshot::apply`] does not require it but
/// deterministic consumers (incremental selectors) do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetDelta {
    /// Changed node load averages: `(node, new_load_avg)`.
    pub nodes: Vec<(NodeId, f64)>,
    /// Changed directed-link utilizations: `(edge, direction, new_used)`.
    pub links: Vec<(EdgeId, Direction, f64)>,
    /// Availability transitions for nodes: `(node, now_available)`.
    pub avail_nodes: Vec<(NodeId, bool)>,
    /// Availability transitions for links: `(edge, now_available)`.
    pub avail_links: Vec<(EdgeId, bool)>,
    /// Changed node staleness counters: `(node, missed_samples)`.
    pub stale_nodes: Vec<(NodeId, u32)>,
    /// Changed link staleness counters: `(edge, missed_samples)`.
    pub stale_links: Vec<(EdgeId, u32)>,
}

impl NetDelta {
    /// True when no annotation changed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty() && !self.has_health_changes()
    }

    /// True when any availability flag or staleness counter changed —
    /// the condition under which incremental selectors fall back to a
    /// full re-solve (eligibility may have changed, not just scores).
    pub fn has_health_changes(&self) -> bool {
        !self.avail_nodes.is_empty()
            || !self.avail_links.is_empty()
            || !self.stale_nodes.is_empty()
            || !self.stale_links.is_empty()
    }

    /// Number of changed node entries.
    pub fn node_changes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of changed directed-link entries.
    pub fn link_changes(&self) -> usize {
        self.links.len()
    }

    /// Total changed entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
            + self.links.len()
            + self.avail_nodes.len()
            + self.avail_links.len()
            + self.stale_nodes.len()
            + self.stale_links.len()
    }

    /// Removes all entries, keeping capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.links.clear();
        self.avail_nodes.clear();
        self.avail_links.clear();
        self.stale_nodes.clear();
        self.stale_links.clear();
    }
}

/// An immutable, `Arc`-shared annotated topology at one epoch.
///
/// Cloning a snapshot is two `Arc` bumps; deriving the next epoch with
/// [`NetSnapshot::apply`] copies only the touched metric array(s) and
/// never the structure. Snapshots are `Send + Sync`, so many concurrent
/// selection requests can share one snapshot stream.
#[derive(Debug, Clone)]
pub struct NetSnapshot {
    structure: Arc<Topology>,
    epoch: u64,
    /// Load average per node index (network-node entries are carried but
    /// never influence derived metrics).
    load: Arc<[f64]>,
    /// Consumed bandwidth per directed-link slot
    /// (`edge_index * 2 + direction`).
    used: Arc<[f64]>,
    /// Believed-up flag per node index.
    node_avail: Arc<[bool]>,
    /// Believed-up flag per edge index.
    link_avail: Arc<[bool]>,
    /// Consecutive missed samples per node index (0 = fresh).
    node_stale: Arc<[u32]>,
    /// Consecutive missed samples per edge index (0 = fresh).
    link_stale: Arc<[u32]>,
}

impl NetSnapshot {
    /// Captures the annotations currently stored on `structure` as epoch 0.
    pub fn capture(structure: Arc<Topology>) -> NetSnapshot {
        let load: Vec<f64> = (0..structure.node_count())
            .map(|i| structure.node(NodeId::from_index(i)).load_avg())
            .collect();
        let mut used = Vec::with_capacity(structure.link_count() * 2);
        for e in structure.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                used.push(structure.link(e).used(dir));
            }
        }
        let (nodes, links) = (structure.node_count(), structure.link_count());
        NetSnapshot {
            structure,
            epoch: 0,
            load: load.into(),
            used: used.into(),
            node_avail: vec![true; nodes].into(),
            link_avail: vec![true; links].into(),
            node_stale: vec![0; nodes].into(),
            link_stale: vec![0; links].into(),
        }
    }

    /// Builds an epoch-0 snapshot from explicit metric arrays, with every
    /// node and link available and every sample fresh.
    ///
    /// `load` holds one entry per node index; `used` one entry per
    /// directed-link slot (`edge_index * 2 + direction`).
    pub fn from_parts(structure: Arc<Topology>, load: Vec<f64>, used: Vec<f64>) -> NetSnapshot {
        assert_eq!(load.len(), structure.node_count(), "load array length");
        assert_eq!(
            used.len(),
            structure.link_count() * 2,
            "used array length (one entry per directed slot)"
        );
        let (nodes, links) = (structure.node_count(), structure.link_count());
        NetSnapshot {
            structure,
            epoch: 0,
            load: load.into(),
            used: used.into(),
            node_avail: vec![true; nodes].into(),
            link_avail: vec![true; links].into(),
            node_stale: vec![0; nodes].into(),
            link_stale: vec![0; links].into(),
        }
    }

    /// The epoch counter: 0 at capture, +1 per [`NetSnapshot::apply`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared structure.
    pub fn structure_arc(&self) -> &Arc<Topology> {
        &self.structure
    }

    /// True when both snapshots share the *same* structure allocation —
    /// the cheap test incremental consumers use to rule out structural
    /// change.
    pub fn same_structure(&self, other: &NetSnapshot) -> bool {
        Arc::ptr_eq(&self.structure, &other.structure)
    }

    /// The raw load-average array (per node index).
    pub fn load_values(&self) -> &[f64] {
        &self.load
    }

    /// The raw utilization array (per directed-link slot).
    pub fn used_values(&self) -> &[f64] {
        &self.used
    }

    /// The raw node-availability array (per node index).
    pub fn node_avail_values(&self) -> &[bool] {
        &self.node_avail
    }

    /// The raw node-staleness array (per node index).
    pub fn node_stale_values(&self) -> &[u32] {
        &self.node_stale
    }

    /// Derives the next epoch by applying a delta.
    ///
    /// Structural sharing: the structure `Arc` is always shared, and a
    /// metric array is copied only when the delta touches it (an empty
    /// delta shares both arrays and still advances the epoch).
    pub fn apply(&self, delta: &NetDelta) -> NetSnapshot {
        let load = if delta.nodes.is_empty() {
            Arc::clone(&self.load)
        } else {
            let mut v = self.load.to_vec();
            for &(n, l) in &delta.nodes {
                v[n.index()] = l;
            }
            v.into()
        };
        let used = if delta.links.is_empty() {
            Arc::clone(&self.used)
        } else {
            let mut v = self.used.to_vec();
            for &(e, dir, u) in &delta.links {
                v[dir_slot(e, dir)] = u;
            }
            v.into()
        };
        let node_avail = if delta.avail_nodes.is_empty() {
            Arc::clone(&self.node_avail)
        } else {
            let mut v = self.node_avail.to_vec();
            for &(n, up) in &delta.avail_nodes {
                v[n.index()] = up;
            }
            v.into()
        };
        let link_avail = if delta.avail_links.is_empty() {
            Arc::clone(&self.link_avail)
        } else {
            let mut v = self.link_avail.to_vec();
            for &(e, up) in &delta.avail_links {
                v[e.index()] = up;
            }
            v.into()
        };
        let node_stale = if delta.stale_nodes.is_empty() {
            Arc::clone(&self.node_stale)
        } else {
            let mut v = self.node_stale.to_vec();
            for &(n, s) in &delta.stale_nodes {
                v[n.index()] = s;
            }
            v.into()
        };
        let link_stale = if delta.stale_links.is_empty() {
            Arc::clone(&self.link_stale)
        } else {
            let mut v = self.link_stale.to_vec();
            for &(e, s) in &delta.stale_links {
                v[e.index()] = s;
            }
            v.into()
        };
        NetSnapshot {
            structure: Arc::clone(&self.structure),
            epoch: self.epoch + 1,
            load,
            used,
            node_avail,
            link_avail,
            node_stale,
            link_stale,
        }
    }

    /// The delta that would turn `baseline`'s annotations into this
    /// snapshot's, in ascending id / slot order. Entries are emitted for
    /// every bitwise-unequal value.
    ///
    /// Both snapshots must annotate the same structure.
    pub fn diff(&self, baseline: &NetSnapshot) -> NetDelta {
        assert!(
            self.same_structure(baseline),
            "diff requires snapshots of the same structure"
        );
        let mut delta = NetDelta::default();
        for (i, (&new, &old)) in self.load.iter().zip(baseline.load.iter()).enumerate() {
            if new.to_bits() != old.to_bits() {
                delta.nodes.push((NodeId::from_index(i), new));
            }
        }
        for e in self.structure.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                let slot = dir_slot(e, dir);
                if self.used[slot].to_bits() != baseline.used[slot].to_bits() {
                    delta.links.push((e, dir, self.used[slot]));
                }
            }
        }
        for i in 0..self.node_avail.len() {
            if self.node_avail[i] != baseline.node_avail[i] {
                delta
                    .avail_nodes
                    .push((NodeId::from_index(i), self.node_avail[i]));
            }
            if self.node_stale[i] != baseline.node_stale[i] {
                delta
                    .stale_nodes
                    .push((NodeId::from_index(i), self.node_stale[i]));
            }
        }
        for e in self.structure.edge_ids() {
            if self.link_avail[e.index()] != baseline.link_avail[e.index()] {
                delta.avail_links.push((e, self.link_avail[e.index()]));
            }
            if self.link_stale[e.index()] != baseline.link_stale[e.index()] {
                delta.stale_links.push((e, self.link_stale[e.index()]));
            }
        }
        delta
    }

    /// Materializes an owned, annotated [`Topology`] — the representation
    /// the deprecated per-query path returns. Byte-identical to cloning
    /// the structure and setting each measured annotation on it.
    /// Availability flags and staleness counters are snapshot-only
    /// (a `Topology` has no storage for them) and are dropped.
    pub fn to_topology(&self) -> Topology {
        let mut topo = (*self.structure).clone();
        for id in self.structure.compute_nodes() {
            topo.set_load_avg(id, self.load[id.index()]);
        }
        for e in self.structure.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                topo.set_link_used(e, dir, self.used[dir_slot(e, dir)]);
            }
        }
        topo
    }
}

impl NetMetrics for NetSnapshot {
    fn structure(&self) -> &Topology {
        &self.structure
    }

    fn load_avg(&self, n: NodeId) -> f64 {
        self.load[n.index()]
    }

    fn used(&self, e: EdgeId, dir: Direction) -> f64 {
        self.used[dir_slot(e, dir)]
    }

    fn node_available(&self, n: NodeId) -> bool {
        self.node_avail[n.index()]
    }

    fn link_available(&self, e: EdgeId) -> bool {
        self.link_avail[e.index()]
    }

    fn node_staleness(&self, n: NodeId) -> u32 {
        self.node_stale[n.index()]
    }

    fn link_staleness(&self, e: EdgeId) -> u32 {
        self.link_stale[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::star;
    use crate::units::MBPS;

    fn loaded_star() -> (Arc<Topology>, Vec<NodeId>) {
        let (mut topo, ids) = star(3, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 1.0);
        let e = topo.edge_ids().next().unwrap();
        topo.set_link_used(e, Direction::AtoB, 40.0 * MBPS);
        (Arc::new(topo), ids)
    }

    #[test]
    fn capture_matches_topology_metrics() {
        let (topo, ids) = loaded_star();
        let snap = NetSnapshot::capture(Arc::clone(&topo));
        assert_eq!(snap.epoch(), 0);
        for i in 0..topo.node_count() {
            let n = NodeId::from_index(i);
            assert_eq!(snap.cpu(n).to_bits(), topo.node(n).cpu().to_bits());
            assert_eq!(
                snap.effective_cpu(n).to_bits(),
                topo.node(n).effective_cpu().to_bits()
            );
        }
        for e in topo.edge_ids() {
            assert_eq!(snap.bw(e).to_bits(), topo.link(e).bw().to_bits());
            assert_eq!(snap.maxbw(e).to_bits(), topo.link(e).maxbw().to_bits());
            assert_eq!(
                snap.bwfactor(e).to_bits(),
                topo.link(e).bwfactor().to_bits()
            );
        }
        let _ = ids;
    }

    #[test]
    fn apply_shares_untouched_arrays() {
        let (topo, ids) = loaded_star();
        let snap = NetSnapshot::capture(topo);
        let next = snap.apply(&NetDelta {
            nodes: vec![(ids[1], 2.0)],
            ..NetDelta::default()
        });
        assert_eq!(next.epoch(), 1);
        assert!(snap.same_structure(&next));
        // The untouched array is shared, the touched one is not.
        assert!(Arc::ptr_eq(&snap.used, &next.used));
        assert!(!Arc::ptr_eq(&snap.load, &next.load));
        assert_eq!(next.load_avg(ids[1]), 2.0);
        assert_eq!(next.load_avg(ids[0]), 1.0);
    }

    #[test]
    fn diff_then_apply_round_trips() {
        let (topo, ids) = loaded_star();
        let a = NetSnapshot::capture(Arc::clone(&topo));
        let e = topo.edge_ids().nth(1).unwrap();
        let b = a.apply(&NetDelta {
            nodes: vec![(ids[2], 0.5)],
            links: vec![(e, Direction::BtoA, 7.0 * MBPS)],
            ..NetDelta::default()
        });
        let d = b.diff(&a);
        assert_eq!(d.node_changes(), 1);
        assert_eq!(d.link_changes(), 1);
        assert_eq!(d.len(), 2);
        let b2 = a.apply(&d);
        assert_eq!(b.load_values(), b2.load_values());
        assert_eq!(b.used_values(), b2.used_values());
        assert!(b.diff(&b2).is_empty());
    }

    #[test]
    fn to_topology_matches_clone_and_set() {
        let (topo, ids) = loaded_star();
        let snap = NetSnapshot::capture(Arc::clone(&topo)).apply(&NetDelta {
            nodes: vec![(ids[0], 3.0)],
            ..NetDelta::default()
        });
        let t = snap.to_topology();
        assert_eq!(t.node(ids[0]).load_avg(), 3.0);
        for e in topo.edge_ids() {
            assert_eq!(
                t.link(e).used(Direction::AtoB).to_bits(),
                snap.used(e, Direction::AtoB).to_bits()
            );
        }
        // The materialized topology reports the same derived metrics.
        for i in 0..t.node_count() {
            let n = NodeId::from_index(i);
            assert_eq!(t.node(n).cpu().to_bits(), snap.cpu(n).to_bits());
        }
    }

    #[test]
    fn fresh_snapshots_are_available_and_confident() {
        let (topo, ids) = loaded_star();
        let snap = NetSnapshot::capture(Arc::clone(&topo));
        for i in 0..topo.node_count() {
            let n = NodeId::from_index(i);
            assert!(snap.node_available(n));
            assert_eq!(snap.node_staleness(n), 0);
            assert_eq!(snap.node_confidence(n).to_bits(), 1.0f64.to_bits());
        }
        for e in topo.edge_ids() {
            assert!(snap.link_available(e));
            assert_eq!(snap.link_confidence(e).to_bits(), 1.0f64.to_bits());
        }
        // Fresh + available == bit-identical to the pre-health formulas.
        assert_eq!(
            snap.effective_cpu(ids[0]).to_bits(),
            topo.node(ids[0]).effective_cpu().to_bits()
        );
    }

    #[test]
    fn health_delta_applies_and_diffs_round_trip() {
        let (topo, ids) = loaded_star();
        let a = NetSnapshot::capture(Arc::clone(&topo));
        let e = topo.edge_ids().next().unwrap();
        let b = a.apply(&NetDelta {
            avail_nodes: vec![(ids[1], false)],
            avail_links: vec![(e, false)],
            stale_nodes: vec![(ids[2], 3)],
            stale_links: vec![(e, 2)],
            ..NetDelta::default()
        });
        // Metric arrays untouched: still shared.
        assert!(Arc::ptr_eq(&a.load, &b.load));
        assert!(Arc::ptr_eq(&a.used, &b.used));
        assert!(!b.node_available(ids[1]));
        assert!(!b.link_available(e));
        assert_eq!(b.node_staleness(ids[2]), 3);
        assert_eq!(b.link_staleness(e), 2);
        let d = b.diff(&a);
        assert!(d.has_health_changes());
        assert_eq!(d.len(), 4);
        let b2 = a.apply(&d);
        assert!(b.diff(&b2).is_empty());
    }

    #[test]
    fn degraded_health_decays_derived_metrics() {
        let (topo, ids) = loaded_star();
        let snap = NetSnapshot::capture(Arc::clone(&topo));
        let e = topo.edge_ids().next().unwrap();
        // A down node contributes zero compute; a down link zero bandwidth.
        let dead = snap.apply(&NetDelta {
            avail_nodes: vec![(ids[0], false)],
            avail_links: vec![(e, false)],
            ..NetDelta::default()
        });
        assert_eq!(dead.effective_cpu(ids[0]), 0.0);
        assert_eq!(dead.bw(e), 0.0);
        assert_eq!(dead.bwfactor(e), 0.0);
        // Staleness decays confidence monotonically, never below zero.
        let mut last_cpu = snap.effective_cpu(ids[0]);
        let mut last_bw = snap.bw(e);
        for misses in 1..6u32 {
            let s = snap.apply(&NetDelta {
                stale_nodes: vec![(ids[0], misses)],
                stale_links: vec![(e, misses)],
                ..NetDelta::default()
            });
            let cpu = s.effective_cpu(ids[0]);
            let bw = s.bw(e);
            assert!(cpu < last_cpu && cpu >= 0.0);
            assert!(bw < last_bw && bw >= 0.0);
            last_cpu = cpu;
            last_bw = bw;
        }
    }

    #[test]
    fn min_confidence_tracks_staleness_and_skips_down_entities() {
        let (topo, ids) = loaded_star();
        let snap = NetSnapshot::capture(Arc::clone(&topo));
        assert_eq!(snap.min_confidence().to_bits(), 1.0f64.to_bits());
        // One stale node drags the whole-snapshot confidence down to its
        // own confidence.
        let stale = snap.apply(&NetDelta {
            stale_nodes: vec![(ids[0], 3)],
            ..NetDelta::default()
        });
        assert_eq!(
            stale.min_confidence().to_bits(),
            staleness_confidence(3).to_bits()
        );
        // Marking the stale node down removes it from the min: the rest
        // of the network is fresh again.
        let down = stale.apply(&NetDelta {
            avail_nodes: vec![(ids[0], false)],
            ..NetDelta::default()
        });
        assert_eq!(down.min_confidence().to_bits(), 1.0f64.to_bits());
        // A stale link counts exactly like a stale node.
        let e = topo.edge_ids().next().unwrap();
        let stale_link = snap.apply(&NetDelta {
            stale_links: vec![(e, 2)],
            ..NetDelta::default()
        });
        assert_eq!(
            stale_link.min_confidence().to_bits(),
            staleness_confidence(2).to_bits()
        );
    }

    #[test]
    fn staleness_confidence_is_identity_when_fresh() {
        assert_eq!(staleness_confidence(0).to_bits(), 1.0f64.to_bits());
        assert!(staleness_confidence(1) < 1.0);
        assert!(staleness_confidence(100_000) >= 0.0);
        for m in 0..20 {
            assert!(staleness_confidence(m + 1) < staleness_confidence(m));
        }
    }
}
