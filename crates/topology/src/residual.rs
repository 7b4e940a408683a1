//! Residual capacity: a ledger of admitted placements and the delta
//! that materializes them onto a snapshot.
//!
//! Every selection algorithm in `nodesel-core` scores *measured* load
//! and traffic, which lags reality: a job admitted a moment ago has not
//! yet shown up in any Remos sample, so two concurrent admissions
//! happily pick the same "best" nodes and trunk links and then starve
//! each other. A [`LedgerState`] records the resource footprints
//! ([`ResourceClaim`]) of every admitted-but-not-yet-measured placement,
//! and [`LedgerState::to_delta`] turns them into a [`NetDelta`] that
//! *adds* the claimed load and traffic onto the raw measurements:
//! `snapshot.apply(&ledger.to_delta(&snapshot))` is the *residual*
//! network — a real [`NetSnapshot`] whose `effective_cpu` and `available`
//! have shrunk by exactly the admitted demand — and the one thing the
//! placement service and the `Supervisor` solve on. The core algorithms
//! become contention-aware without touching their inner loops.
//!
//! # Bit-exactness contract
//!
//! * **An empty ledger is invisible.** With no claims (or only
//!   zero-magnitude claims — zero amounts are never stored) the delta is
//!   empty, and `apply` of an empty delta shares every annotation array
//!   with the raw snapshot: the bits are identical by construction,
//!   never `raw + 0.0`. Proptests in `nodesel-service` and
//!   `nodesel-core` guard this.
//! * **Only claimed entities are rewritten.** The delta carries
//!   `raw + extra` for exactly the entities a claim touches; every other
//!   annotation, and all health (availability, staleness — a claim
//!   reserves capacity, it says nothing about liveness), passes through.
//!
//! Aggregated extras are recomputed from scratch in ascending
//! job-id order on every insert *and* removal: floating-point addition
//! is not associative, so incremental subtraction on release would leave
//! different bits than never having admitted the job at all.

use crate::maxmin::dir_slot;
use crate::route::RouteTable;
use crate::snapshot::{NetDelta, NetMetrics, NetSnapshot};
use crate::{Direction, EdgeId, NodeId, Topology};
use std::collections::BTreeMap;

/// The resource footprint one admitted placement claims, expressed as
/// *additions* to the measured annotations: extra load average per
/// placed node and extra consumed bandwidth per directed link on the
/// placement's internal routes.
///
/// Zero-magnitude entries are never stored (they would perturb nothing,
/// but `raw + 0.0` is not always the bitwise identity — it rewrites
/// `-0.0` to `0.0`), so a zero-demand claim is exactly an empty claim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceClaim {
    /// Extra load average per node: `(node, added_load)`, sorted by
    /// node, deduplicated, every amount finite and positive.
    pub nodes: Vec<(NodeId, f64)>,
    /// Extra consumed bandwidth per directed link:
    /// `(edge, direction, added_bits_per_s)`, sorted by `(edge,
    /// direction)`, deduplicated, every amount finite and positive.
    pub links: Vec<(EdgeId, Direction, f64)>,
}

impl ResourceClaim {
    /// True when the claim touches nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }

    /// The claim of placing one task on each of `nodes` that exchange
    /// traffic pairwise: every placed node gains `cpu_load` load
    /// average, and for every unordered pair the route between them
    /// carries `pair_bandwidth` bits/s *in each direction* (the apps
    /// modeled here are symmetric exchanges; a one-way stream simply
    /// over-claims the quiet direction).
    ///
    /// Pairs with no route (a disconnected federation without trunks)
    /// contribute no link claim — their traffic never crosses the
    /// network, so there is nothing to reserve. Duplicate nodes
    /// accumulate their load.
    pub fn for_placement(
        structure: &Topology,
        nodes: &[NodeId],
        cpu_load: f64,
        pair_bandwidth: f64,
    ) -> ResourceClaim {
        let mut claim = ResourceClaim::default();
        if cpu_load > 0.0 {
            let mut loads: BTreeMap<NodeId, f64> = BTreeMap::new();
            for &n in nodes {
                *loads.entry(n).or_insert(0.0) += cpu_load;
            }
            claim.nodes = loads.into_iter().collect();
        }
        if pair_bandwidth > 0.0 && nodes.len() >= 2 {
            let table = RouteTable::build_for_sources(structure, nodes.iter().copied());
            let mut used: BTreeMap<usize, f64> = BTreeMap::new();
            for (i, &a) in nodes.iter().enumerate() {
                for &b in nodes.iter().skip(i + 1) {
                    if a == b {
                        continue;
                    }
                    let Ok(path) = table.resolve(structure, a, b) else {
                        continue;
                    };
                    for &(e, dir) in &path.hops {
                        *used.entry(dir_slot(e, dir)).or_insert(0.0) += pair_bandwidth;
                        *used.entry(dir_slot(e, dir.reverse())).or_insert(0.0) += pair_bandwidth;
                    }
                }
            }
            claim.links = used
                .into_iter()
                .map(|(slot, amount)| (EdgeId::from_index(slot / 2), slot_dir(slot), amount))
                .collect();
        }
        claim
    }

    /// A [`NetDelta`] whose entries mark exactly the entities this claim
    /// touches (values are the claim amounts, *not* absolute
    /// annotations). Useful purely for footprint-intersection tests —
    /// applying it to a snapshot is meaningless.
    pub fn touched_delta(&self) -> NetDelta {
        NetDelta {
            nodes: self.nodes.clone(),
            links: self.links.clone(),
            ..NetDelta::default()
        }
    }
}

/// The direction encoded in a [`dir_slot`] index.
fn slot_dir(slot: usize) -> Direction {
    if slot.is_multiple_of(2) {
        Direction::AtoB
    } else {
        Direction::BtoA
    }
}

/// The claims of every admitted placement, keyed by an opaque job id,
/// with the per-entity aggregates [`LedgerState::to_delta`] adds on.
///
/// Insertion order never matters: aggregates are recomputed from
/// scratch in ascending job-id order on every change, so the state
/// after `insert(a); insert(b); remove(a)` is bit-identical to a fresh
/// `insert(b)` — the property that lets a release restore the oblivious
/// answer bits exactly.
#[derive(Debug, Clone, Default)]
pub struct LedgerState {
    claims: BTreeMap<u64, ResourceClaim>,
    /// Aggregate extra load per node index.
    extra_load: BTreeMap<usize, f64>,
    /// Aggregate extra consumed bandwidth per directed-link slot.
    extra_used: BTreeMap<usize, f64>,
}

impl LedgerState {
    /// A ledger with no claims.
    pub fn new() -> LedgerState {
        LedgerState::default()
    }

    /// Number of claims held.
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// True when no claim is held.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// True when the aggregates touch nothing (no claims, or only empty
    /// claims): every residual metric is then raw pass-through.
    pub fn is_invisible(&self) -> bool {
        self.extra_load.is_empty() && self.extra_used.is_empty()
    }

    /// Records `claim` under `id`, replacing any previous claim with the
    /// same id.
    pub fn insert(&mut self, id: u64, claim: ResourceClaim) {
        self.claims.insert(id, claim);
        self.recompute();
    }

    /// Removes the claim of `id`, returning it if present.
    pub fn remove(&mut self, id: u64) -> Option<ResourceClaim> {
        let removed = self.claims.remove(&id);
        if removed.is_some() {
            self.recompute();
        }
        removed
    }

    /// The claim recorded under `id`.
    pub fn claim(&self, id: u64) -> Option<&ResourceClaim> {
        self.claims.get(&id)
    }

    /// Recomputes the aggregates from scratch in ascending job-id order.
    fn recompute(&mut self) {
        self.extra_load.clear();
        self.extra_used.clear();
        for claim in self.claims.values() {
            for &(n, amount) in &claim.nodes {
                if amount != 0.0 {
                    *self.extra_load.entry(n.index()).or_insert(0.0) += amount;
                }
            }
            for &(e, dir, amount) in &claim.links {
                if amount != 0.0 {
                    *self.extra_used.entry(dir_slot(e, dir)).or_insert(0.0) += amount;
                }
            }
        }
        // An aggregate that cancels to exactly 0.0 cannot occur with
        // positive amounts, but guard pass-through anyway: a stored 0.0
        // would turn a raw `-0.0` into `+0.0` on read.
        self.extra_load.retain(|_, v| *v != 0.0);
        self.extra_used.retain(|_, v| *v != 0.0);
    }

    /// Extra load claimed on node `n`, if any.
    pub fn extra_load(&self, n: NodeId) -> Option<f64> {
        self.extra_load.get(&n.index()).copied()
    }

    /// The delta that materializes this ledger onto `snap`: for every
    /// touched entity, the raw annotation plus the aggregate extra, so
    /// `snap.apply(&delta)` is the residual network. An invisible
    /// ledger yields an empty delta (and `apply` then shares every
    /// array).
    pub fn to_delta(&self, snap: &NetSnapshot) -> NetDelta {
        self.delta_excluding(snap, None)
    }

    /// [`LedgerState::to_delta`] with the claim of `excluded` left out —
    /// the view a supervisor re-selecting job `excluded` must solve on,
    /// so the job's own reservation does not repel its re-placement
    /// (double-counting). Bit-identical to removing the claim and
    /// calling `to_delta`, without mutating the ledger.
    pub fn to_delta_excluding(&self, snap: &NetSnapshot, excluded: u64) -> NetDelta {
        self.delta_excluding(snap, Some(excluded))
    }

    fn delta_excluding(&self, snap: &NetSnapshot, excluded: Option<u64>) -> NetDelta {
        let (extra_load, extra_used) = match excluded {
            Some(id) if self.claims.contains_key(&id) => {
                let mut load: BTreeMap<usize, f64> = BTreeMap::new();
                let mut used: BTreeMap<usize, f64> = BTreeMap::new();
                for (&jid, claim) in &self.claims {
                    if jid == id {
                        continue;
                    }
                    for &(n, amount) in &claim.nodes {
                        if amount != 0.0 {
                            *load.entry(n.index()).or_insert(0.0) += amount;
                        }
                    }
                    for &(e, dir, amount) in &claim.links {
                        if amount != 0.0 {
                            *used.entry(dir_slot(e, dir)).or_insert(0.0) += amount;
                        }
                    }
                }
                load.retain(|_, v| *v != 0.0);
                used.retain(|_, v| *v != 0.0);
                (load, used)
            }
            _ => (self.extra_load.clone(), self.extra_used.clone()),
        };
        let mut delta = NetDelta::default();
        for (&idx, &extra) in &extra_load {
            let n = NodeId::from_index(idx);
            delta.nodes.push((n, snap.load_avg(n) + extra));
        }
        for (&slot, &extra) in &extra_used {
            let e = EdgeId::from_index(slot / 2);
            let dir = slot_dir(slot);
            delta.links.push((e, dir, snap.used(e, dir) + extra));
        }
        delta
    }

    /// Re-derives every claim against a new structure after a
    /// structural change: each claim is rebuilt from `nodes` and the
    /// recorded demand by the caller. Claims whose nodes fell out of
    /// the new structure's id range are dropped to empty (the placement
    /// references entities that no longer exist; the owner should
    /// re-select or release).
    pub fn rebind<F>(&mut self, structure: &Topology, mut rebuild: F)
    where
        F: FnMut(u64) -> Option<ResourceClaim>,
    {
        let ids: Vec<u64> = self.claims.keys().copied().collect();
        for id in ids {
            let claim = rebuild(id).unwrap_or_default();
            let in_range = claim
                .nodes
                .iter()
                .all(|&(n, _)| n.index() < structure.node_count())
                && claim
                    .links
                    .iter()
                    .all(|&(e, _, _)| e.index() < structure.link_count());
            self.claims.insert(
                id,
                if in_range {
                    claim
                } else {
                    ResourceClaim::default()
                },
            );
        }
        self.recompute();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{dumbbell, star};
    use crate::units::MBPS;
    use std::sync::Arc;

    fn snap_star(n: usize) -> (NetSnapshot, Vec<NodeId>) {
        let (mut topo, ids) = star(n, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 1.5);
        let e = topo.edge_ids().next().unwrap();
        topo.set_link_used(e, Direction::AtoB, 30.0 * MBPS);
        (NetSnapshot::capture(Arc::new(topo)), ids)
    }

    #[test]
    fn empty_ledger_is_bitwise_invisible() {
        let (snap, _) = snap_star(4);
        let ledger = LedgerState::new();
        assert!(ledger.is_invisible());
        // Materialization of an invisible ledger is an empty delta, and
        // applying it shares every annotation array with the raw snapshot.
        let delta = ledger.to_delta(&snap);
        assert!(delta.is_empty());
        let residual = snap.apply(&delta);
        for i in 0..snap.structure().node_count() {
            let n = NodeId::from_index(i);
            assert_eq!(residual.load_avg(n).to_bits(), snap.load_avg(n).to_bits());
            assert_eq!(
                residual.effective_cpu(n).to_bits(),
                snap.effective_cpu(n).to_bits()
            );
        }
        for e in snap.structure().edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                assert_eq!(residual.used(e, dir).to_bits(), snap.used(e, dir).to_bits());
                assert_eq!(
                    residual.available(e, dir).to_bits(),
                    snap.available(e, dir).to_bits()
                );
            }
            assert_eq!(residual.bw(e).to_bits(), snap.bw(e).to_bits());
        }
    }

    #[test]
    fn zero_demand_claim_is_empty() {
        let (snap, ids) = snap_star(4);
        let claim = ResourceClaim::for_placement(snap.structure(), &ids[..2], 0.0, 0.0);
        assert!(claim.is_empty());
        let mut ledger = LedgerState::new();
        ledger.insert(1, claim);
        assert_eq!(ledger.len(), 1);
        assert!(ledger.is_invisible());
    }

    #[test]
    fn claim_adds_load_and_route_traffic() {
        let (topo, ids) = dumbbell(2, 100.0 * MBPS, 50.0 * MBPS);
        let snap = NetSnapshot::capture(Arc::new(topo));
        // One node per side: the route crosses the backbone.
        let placed = [ids[0], ids[2]];
        let claim = ResourceClaim::for_placement(snap.structure(), &placed, 1.0, 5.0 * MBPS);
        assert_eq!(claim.nodes.len(), 2);
        assert!(!claim.links.is_empty());
        let mut ledger = LedgerState::new();
        ledger.insert(7, claim.clone());
        let residual = snap.apply(&ledger.to_delta(&snap));
        // Claimed node: load rises by exactly the claim; CPU drops.
        assert_eq!(
            residual.load_avg(placed[0]).to_bits(),
            (snap.load_avg(placed[0]) + 1.0).to_bits()
        );
        assert!(residual.effective_cpu(placed[0]) < snap.effective_cpu(placed[0]));
        // Unclaimed node: untouched bits.
        assert_eq!(
            residual.load_avg(ids[1]).to_bits(),
            snap.load_avg(ids[1]).to_bits()
        );
        // Every claimed link direction loses available bandwidth.
        for &(e, dir, amount) in &claim.links {
            assert_eq!(
                residual.used(e, dir).to_bits(),
                (snap.used(e, dir) + amount).to_bits()
            );
            assert!(residual.available(e, dir) <= snap.available(e, dir));
        }
    }

    #[test]
    fn release_restores_exact_bits() {
        let (snap, ids) = snap_star(5);
        let claim_a = ResourceClaim::for_placement(snap.structure(), &ids[..2], 1.0, 3.0 * MBPS);
        let claim_b = ResourceClaim::for_placement(snap.structure(), &ids[1..4], 2.0, 1.0 * MBPS);
        // Reference: only b was ever admitted.
        let mut only_b = LedgerState::new();
        only_b.insert(2, claim_b.clone());
        // Admit a then b, release a: aggregates must match `only_b`.
        let mut ledger = LedgerState::new();
        ledger.insert(1, claim_a);
        ledger.insert(2, claim_b);
        ledger.remove(1);
        let snap_ref = snap.apply(&only_b.to_delta(&snap));
        let snap_led = snap.apply(&ledger.to_delta(&snap));
        assert_eq!(snap_ref.load_values(), snap_led.load_values());
        assert_eq!(snap_ref.used_values(), snap_led.used_values());
        // Release everything: invisible again.
        ledger.remove(2);
        assert!(ledger.is_invisible());
        assert!(ledger.to_delta(&snap).is_empty());
    }

    #[test]
    fn excluding_matches_removal() {
        let (snap, ids) = snap_star(5);
        let claim_a = ResourceClaim::for_placement(snap.structure(), &ids[..2], 1.0, 3.0 * MBPS);
        let claim_b = ResourceClaim::for_placement(snap.structure(), &ids[2..4], 2.0, 0.0);
        let mut ledger = LedgerState::new();
        ledger.insert(1, claim_a.clone());
        ledger.insert(2, claim_b.clone());
        let excluded = ledger.to_delta_excluding(&snap, 1);
        let mut removed = ledger.clone();
        removed.remove(1);
        assert_eq!(excluded, removed.to_delta(&snap));
        // Excluding an unknown id is the plain delta.
        assert_eq!(ledger.to_delta_excluding(&snap, 99), ledger.to_delta(&snap));
    }

    #[test]
    fn touched_delta_marks_the_claimed_set() {
        let (snap, ids) = snap_star(4);
        let claim = ResourceClaim::for_placement(snap.structure(), &ids[..2], 1.0, 2.0 * MBPS);
        let delta = claim.touched_delta();
        assert_eq!(delta.nodes.len(), claim.nodes.len());
        assert_eq!(delta.links.len(), claim.links.len());
        assert!(!delta.has_health_changes());
    }

    #[test]
    fn disconnected_pairs_claim_no_links() {
        // Two disjoint stars: a cross-placement cannot route.
        let mut topo = Topology::new();
        let h1 = topo.add_network_node("h1");
        let h2 = topo.add_network_node("h2");
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        topo.add_link(h1, a, 100.0 * MBPS);
        topo.add_link(h2, b, 100.0 * MBPS);
        let claim = ResourceClaim::for_placement(&topo, &[a, b], 1.0, 5.0 * MBPS);
        assert_eq!(claim.nodes.len(), 2);
        assert!(claim.links.is_empty());
    }
}
