//! Canonical topology builders.
//!
//! These construct the network shapes used throughout the workspace: simple
//! teaching topologies (star, chain, dumbbell), parameterized cluster
//! fabrics, and seeded random trees for property tests and scaling benches.
//! The paper-specific networks (Figure 1, Figure 4) live in
//! [`crate::testbeds`].

use crate::units::MBPS;
use crate::{NodeId, Topology};
use rand::Rng;

/// A star: one switch in the middle, `leaves` compute nodes around it, all
/// links at `capacity` bits/s. Returns the topology and the leaf ids.
pub fn star(leaves: usize, capacity: f64) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let hub = t.add_network_node("hub");
    let ids = (0..leaves)
        .map(|i| {
            let id = t.add_compute_node(format!("n{i}"), 1.0);
            t.add_link(hub, id, capacity);
            id
        })
        .collect();
    (t, ids)
}

/// A chain of `len` compute nodes: `n0 - n1 - ... - n{len-1}`.
pub fn chain(len: usize, capacity: f64) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..len)
        .map(|i| t.add_compute_node(format!("n{i}"), 1.0))
        .collect();
    for w in ids.windows(2) {
        t.add_link(w[0], w[1], capacity);
    }
    (t, ids)
}

/// A dumbbell: two stars of `per_side` compute nodes joined by a single
/// `backbone` link — the classic shape where the shared middle link is the
/// contended resource.
pub fn dumbbell(per_side: usize, edge_capacity: f64, backbone: f64) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let left = t.add_network_node("sw-left");
    let right = t.add_network_node("sw-right");
    t.add_link(left, right, backbone);
    let mut ids = Vec::with_capacity(2 * per_side);
    for i in 0..per_side {
        let id = t.add_compute_node(format!("l{i}"), 1.0);
        t.add_link(left, id, edge_capacity);
        ids.push(id);
    }
    for i in 0..per_side {
        let id = t.add_compute_node(format!("r{i}"), 1.0);
        t.add_link(right, id, edge_capacity);
        ids.push(id);
    }
    (t, ids)
}

/// A multi-cluster fabric: `clusters` stars of `per_cluster` compute nodes,
/// whose switches hang off one core router. Edge links run at
/// `edge_capacity`, uplinks at `uplink_capacity`.
pub fn multi_cluster(
    clusters: usize,
    per_cluster: usize,
    edge_capacity: f64,
    uplink_capacity: f64,
) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let core = t.add_network_node("core");
    let mut ids = Vec::with_capacity(clusters * per_cluster);
    for c in 0..clusters {
        let sw = t.add_network_node(format!("sw{c}"));
        t.add_link(core, sw, uplink_capacity);
        for i in 0..per_cluster {
            let id = t.add_compute_node(format!("c{c}n{i}"), 1.0);
            t.add_link(sw, id, edge_capacity);
            ids.push(id);
        }
    }
    (t, ids)
}

/// A balanced tree of switches with compute nodes at the leaves.
///
/// `depth` levels of switches with `fanout` children each; the bottom level
/// of switches carries `fanout` compute leaves. `depth == 0` degenerates to
/// a star of `fanout` leaves.
pub fn switch_tree(depth: usize, fanout: usize, capacity: f64) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let root = t.add_network_node("root");
    let mut frontier = vec![root];
    for level in 0..depth {
        let mut next = Vec::new();
        for (pi, &p) in frontier.iter().enumerate() {
            for f in 0..fanout {
                let sw = t.add_network_node(format!("sw-{level}-{pi}-{f}"));
                t.add_link(p, sw, capacity);
                next.push(sw);
            }
        }
        frontier = next;
    }
    let mut leaves = Vec::new();
    for (pi, &p) in frontier.iter().enumerate() {
        for f in 0..fanout {
            let leaf = t.add_compute_node(format!("m-{pi}-{f}"), 1.0);
            t.add_link(p, leaf, capacity);
            leaves.push(leaf);
        }
    }
    (t, leaves)
}

/// Star domains on a binary trunk tree; the `cold_100k` and
/// `pooled_growth` fabric. `domains` hub switches, each with
/// `hosts_per_domain` compute hosts on links at `host_cap`; hub `i > 0`
/// has a trunk to hub `(i - 1) / 2` at `trunk_cap` / `trunk_latency`.
/// Returns the topology and the host ids grouped by hub.
pub fn hierarchical(
    domains: usize,
    hosts_per_domain: usize,
    host_cap: f64,
    trunk_cap: f64,
    trunk_latency: f64,
) -> (Topology, Vec<Vec<NodeId>>) {
    assert!(domains > 0, "need at least one domain");
    let mut t = Topology::new();
    let mut hubs = Vec::with_capacity(domains);
    let mut hosts = Vec::with_capacity(domains);
    for d in 0..domains {
        let hub = t.add_network_node(format!("d{d}-sw"));
        if d > 0 {
            let parent = hubs[(d - 1) / 2];
            t.add_link_full(parent, hub, trunk_cap, trunk_cap, trunk_latency);
        }
        let members = (0..hosts_per_domain)
            .map(|i| {
                let h = t.add_compute_node(format!("d{d}-h{i}"), 1.0);
                t.add_link(hub, h, host_cap);
                h
            })
            .collect();
        hubs.push(hub);
        hosts.push(members);
    }
    (t, hosts)
}

/// A uniformly random tree over `compute` compute nodes and `network`
/// switches (random Prüfer-style attachment: each new node links to a
/// uniformly chosen earlier node). Node roles are shuffled so compute nodes
/// appear at arbitrary positions. All links at `capacity`.
///
/// Random trees are the workhorse of the property tests: the paper's §3.2
/// algorithms are exact on acyclic graphs, so any seeded tree gives a case
/// where greedy must equal exhaustive search.
pub fn random_tree<R: Rng>(
    rng: &mut R,
    compute: usize,
    network: usize,
    capacity: f64,
) -> (Topology, Vec<NodeId>) {
    assert!(compute + network >= 1);
    let total = compute + network;
    // Choose which positions are compute nodes.
    let mut roles = vec![false; total];
    let mut chosen = 0;
    while chosen < compute {
        let i = rng.random_range(0..total);
        if !roles[i] {
            roles[i] = true;
            chosen += 1;
        }
    }
    let mut t = Topology::new();
    let mut ids = Vec::with_capacity(total);
    let mut computes = Vec::with_capacity(compute);
    for (i, &is_compute) in roles.iter().enumerate() {
        let id = if is_compute {
            let id = t.add_compute_node(format!("m{i}"), 1.0);
            computes.push(id);
            id
        } else {
            t.add_network_node(format!("s{i}"))
        };
        if i > 0 {
            let parent = ids[rng.random_range(0..i)];
            t.add_link(parent, id, capacity);
        }
        ids.push(id);
    }
    (t, computes)
}

/// Assigns independent random load averages in `[0, max_load]` to every
/// compute node and random utilization in `[0, max_util_fraction]` of
/// capacity to every link direction. Used by benches and tests to produce
/// arbitrary-but-deterministic network conditions.
pub fn randomize_conditions<R: Rng>(
    topo: &mut Topology,
    rng: &mut R,
    max_load: f64,
    max_util_fraction: f64,
) {
    let compute: Vec<NodeId> = topo.compute_nodes().collect();
    for n in compute {
        topo.set_load_avg(n, rng.random_range(0.0..=max_load));
    }
    for e in topo.edge_ids().collect::<Vec<_>>() {
        for dir in [crate::Direction::AtoB, crate::Direction::BtoA] {
            let cap = topo.link(e).capacity(dir);
            topo.set_link_used(e, dir, cap * rng.random_range(0.0..=max_util_fraction));
        }
    }
}

/// A federation of `k` subnets: each subnet is a two-router backbone
/// (`s{s}-r0 — s{s}-r1` at 100 Mbps) with eight hosts attached
/// alternately to the two routers. With `trunk_latency` the subnets are
/// chained router-to-router into one connected federation whose
/// inter-subnet trunks run at 50 Mbps with that latency — the shape
/// where cross-subnet placements contend on a scarce shared link.
/// Without it the subnets stay disconnected (`k` components). Returns
/// the topology and each subnet's host list.
pub fn federation(k: usize, trunk_latency: Option<f64>) -> (Topology, Vec<Vec<NodeId>>) {
    let mut topo = Topology::new();
    let mut subnets = Vec::new();
    let mut routers = Vec::new();
    for s in 0..k {
        let r0 = topo.add_network_node(format!("s{s}-r0"));
        let r1 = topo.add_network_node(format!("s{s}-r1"));
        topo.add_link(r0, r1, 100.0 * MBPS);
        let mut hosts = Vec::new();
        for h in 0..8 {
            let n = topo.add_compute_node(format!("s{s}-h{h}"), 1.0);
            topo.add_link(n, if h % 2 == 0 { r0 } else { r1 }, 100.0 * MBPS);
            hosts.push(n);
        }
        routers.push((r0, r1));
        subnets.push(hosts);
    }
    if let Some(lat) = trunk_latency {
        for w in routers.windows(2) {
            topo.add_link_full(w[0].1, w[1].0, 50.0 * MBPS, 50.0 * MBPS, lat);
        }
    }
    (topo, subnets)
}

/// Default capacity used by examples: 100 Mbps Ethernet.
pub const DEFAULT_CAPACITY: f64 = 100.0 * MBPS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn star_shape() {
        let (t, leaves) = star(5, DEFAULT_CAPACITY);
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.link_count(), 5);
        assert_eq!(t.compute_node_count(), 5);
        assert_eq!(leaves.len(), 5);
        assert!(t.is_connected() && t.is_acyclic());
    }

    #[test]
    fn chain_shape() {
        let (t, ids) = chain(4, DEFAULT_CAPACITY);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.degree(ids[0]), 1);
        assert_eq!(t.degree(ids[1]), 2);
        assert!(t.is_acyclic());
    }

    #[test]
    fn dumbbell_shape() {
        let (t, ids) = dumbbell(3, DEFAULT_CAPACITY, 10.0 * MBPS);
        assert_eq!(ids.len(), 6);
        assert_eq!(t.node_count(), 8);
        assert_eq!(t.link_count(), 7);
        assert!(t.is_connected() && t.is_acyclic());
        // Cross-side bottleneck is the backbone.
        let r = t.routes();
        assert_eq!(r.bottleneck_bw(ids[0], ids[3]).unwrap(), 10.0 * MBPS);
        assert_eq!(r.bottleneck_bw(ids[0], ids[1]).unwrap(), DEFAULT_CAPACITY);
    }

    #[test]
    fn multi_cluster_shape() {
        let (t, ids) = multi_cluster(3, 4, DEFAULT_CAPACITY, 2.0 * DEFAULT_CAPACITY);
        assert_eq!(ids.len(), 12);
        assert_eq!(t.node_count(), 1 + 3 + 12);
        assert!(t.is_connected() && t.is_acyclic());
    }

    #[test]
    fn switch_tree_shape() {
        let (t, leaves) = switch_tree(2, 2, DEFAULT_CAPACITY);
        // 1 root + 2 + 4 switches, 8 leaves.
        assert_eq!(leaves.len(), 8);
        assert_eq!(t.node_count(), 15);
        assert!(t.is_connected() && t.is_acyclic());
    }

    #[test]
    fn hierarchical_shape() {
        let (domains, per) = (7, 5);
        let (trunk_cap, trunk_latency) = (40.0 * MBPS, 2e-3);
        let (t, hosts) = hierarchical(domains, per, DEFAULT_CAPACITY, trunk_cap, trunk_latency);
        assert_eq!(t.node_count(), domains * (per + 1));
        assert_eq!(t.link_count(), domains * per + domains - 1);
        assert!(t.is_connected() && t.is_acyclic());
        // Hub `d` is numbered just below its hosts, which come back
        // grouped by hub in ascending id, each on one link to its hub.
        let hub = |d: usize| NodeId::from_index(d * (per + 1));
        assert_eq!(hosts.len(), domains);
        for (d, members) in hosts.iter().enumerate() {
            let first = hub(d).index() + 1;
            let expected: Vec<NodeId> = (first..first + per).map(NodeId::from_index).collect();
            assert_eq!(members, &expected);
            for &h in members {
                assert!(t.node(h).is_compute());
                assert!(t.neighbors(h).iter().map(|&(_, n)| n).eq([hub(d)]));
            }
        }
        // The other `domains - 1` links: hub `d`'s trunk to hub `(d - 1) / 2`.
        for d in 1..domains {
            let up = hub((d - 1) / 2);
            let &(e, _) = t
                .neighbors(hub(d))
                .iter()
                .find(|&&(_, n)| n == up)
                .expect("a trunk to the parent hub");
            for dir in [Direction::AtoB, Direction::BtoA] {
                assert_eq!(t.link(e).capacity(dir), trunk_cap);
            }
            assert_eq!(t.link(e).latency(), trunk_latency);
        }
    }

    #[test]
    fn federation_shape() {
        let (disc, subnets) = federation(3, None);
        assert_eq!(disc.node_count(), 30);
        assert_eq!(disc.link_count(), 3 * 9);
        assert_eq!(subnets.len(), 3);
        assert!(subnets.iter().all(|hosts| hosts.len() == 8));
        assert!(!disc.is_connected());
        assert!(disc.is_acyclic());

        let (conn, _) = federation(3, Some(2e-3));
        assert!(conn.is_connected() && conn.is_acyclic());
        // The two trunks are the links added last: 50 Mbps, the given
        // latency, second router of one subnet to first of the next.
        assert_eq!(conn.link_count(), disc.link_count() + 2);
        for (s, e) in conn.edge_ids().skip(disc.link_count()).enumerate() {
            let trunk = conn.link(e);
            assert_eq!(trunk.capacity(Direction::AtoB), 50.0 * MBPS);
            assert_eq!(trunk.latency(), 2e-3);
            assert_eq!(conn.node(trunk.a()).name(), format!("s{s}-r1"));
            assert_eq!(conn.node(trunk.b()).name(), format!("s{}-r0", s + 1));
        }
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let (t, computes) = random_tree(&mut rng, 6, 4, DEFAULT_CAPACITY);
            assert_eq!(t.node_count(), 10);
            assert_eq!(t.link_count(), 9);
            assert_eq!(computes.len(), 6);
            assert!(t.is_connected());
            assert!(t.is_acyclic());
        }
    }

    #[test]
    fn random_tree_deterministic_per_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(42);
            let (t, _) = random_tree(&mut rng, 5, 5, DEFAULT_CAPACITY);
            (0..t.node_count())
                .map(|i| t.node(crate::NodeId::from_index(i)).name().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn randomize_conditions_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut t, _) = star(6, DEFAULT_CAPACITY);
        randomize_conditions(&mut t, &mut rng, 4.0, 0.9);
        for n in t.compute_nodes() {
            let l = t.node(n).load_avg();
            assert!((0.0..=4.0).contains(&l));
        }
        for e in t.edge_ids() {
            assert!(t.link(e).bwfactor() >= 0.1 - 1e-9);
        }
    }
}

/// A ring of `n` compute nodes (the simplest cyclic topology): static
/// routing fixes one of the two possible paths per pair, exercising the
/// §3.3 "cycles in network topology" case.
pub fn ring(n: usize, capacity: f64) -> (Topology, Vec<NodeId>) {
    assert!(n >= 3, "a ring needs at least three nodes");
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| t.add_compute_node(format!("n{i}"), 1.0))
        .collect();
    for i in 0..n {
        t.add_link(ids[i], ids[(i + 1) % n], capacity);
    }
    (t, ids)
}

/// A `rows × cols` grid of compute nodes with nearest-neighbour links —
/// a richer cyclic topology with many alternative paths per pair.
pub fn grid(rows: usize, cols: usize, capacity: f64) -> (Topology, Vec<NodeId>) {
    assert!(rows >= 1 && cols >= 1);
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..rows * cols)
        .map(|i| t.add_compute_node(format!("g{}-{}", i / cols, i % cols), 1.0))
        .collect();
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                t.add_link(ids[i], ids[i + 1], capacity);
            }
            if r + 1 < rows {
                t.add_link(ids[i], ids[i + cols], capacity);
            }
        }
    }
    (t, ids)
}

#[cfg(test)]
mod cyclic_tests {
    use super::*;
    use crate::metrics::metrics;

    #[test]
    fn ring_is_cyclic_and_routes_shortest() {
        let (t, ids) = ring(6, DEFAULT_CAPACITY);
        assert!(t.is_connected());
        assert!(!t.is_acyclic());
        let r = t.routes();
        // Opposite nodes are 3 hops apart either way; the route is fixed.
        let p = r.path(ids[0], ids[3]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(r.path(ids[0], ids[3]).unwrap(), p);
        // Adjacent nodes route directly.
        assert_eq!(r.path(ids[0], ids[1]).unwrap().len(), 1);
    }

    #[test]
    fn grid_shape_and_diameter() {
        let (t, ids) = grid(3, 4, DEFAULT_CAPACITY);
        assert_eq!(ids.len(), 12);
        assert_eq!(t.link_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(!t.is_acyclic());
        let m = metrics(&t);
        // Manhattan diameter: (3-1) + (4-1) = 5.
        assert_eq!(m.diameter_hops, Some(5));
    }

    #[test]
    fn degenerate_grid_is_a_chain() {
        let (t, _) = grid(1, 5, DEFAULT_CAPACITY);
        assert!(t.is_acyclic());
        assert_eq!(t.link_count(), 4);
    }
}
