//! Domain hierarchy over a flat [`Topology`].
//!
//! The flat selection engines are near-linear, but "near-linear over
//! 100 000 nodes" is still milliseconds per call and the quality scorer
//! wants per-source BFS rows that are quadratic to precompute. A
//! [`Hierarchy`] splits the graph into *domains* — the partition a
//! [`crate::ShardPlan`] describes — and summarizes everything that
//! crosses a domain boundary:
//!
//! * each domain owns an extracted sub-[`Topology`] with local ids and a
//!   mapping back to the global graph, so the flat engines can run
//!   unmodified *inside* a domain;
//! * *border nodes* are the endpoints of boundary links, the only places
//!   traffic can enter or leave a domain;
//! * the [`AggregateGraph`] has one vertex per domain and one edge per
//!   adjacent domain pair, carrying trunk capacity/latency summaries and
//!   the list of underlying links so dynamic bandwidth can be recomputed
//!   from a live [`crate::NetMetrics`] view.
//!
//! Domain membership comes from [`Topology::domains`] when the topology
//! carries an explicit assignment (hierarchical testbeds persist one),
//! and falls back to connected components otherwise. Route *estimates*
//! across the hierarchy live in [`crate::route_approx`].

use std::collections::BTreeMap;

use crate::{Direction, EdgeId, NodeId, ShardPlan, Topology};

/// A sub-topology extracted from a global graph, with both id mappings.
///
/// Local node `i` of [`Extract::sub`] is global node `nodes[i]`; local
/// edge `j` is global edge `edges[j]`. Nodes are extracted in ascending
/// global order and edges in ascending global edge order, so insertion-
/// order tie-breaking inside the sub-topology (BFS, sorted cursors)
/// matches what the same algorithm would do on the global graph
/// restricted to the extract. Link endpoint order is preserved, so
/// [`Direction`] means the same thing through the mapping. Conditions
/// (load averages, link utilizations) are copied as of extraction time.
///
/// Built per domain by a [`Hierarchy`] (node names copied), and per
/// request by [`Topology::logical_topology`] (names left on the global
/// graph).
#[derive(Debug, Clone)]
pub struct Extract {
    /// The extracted topology with local ids.
    pub sub: Topology,
    /// Global node id of each local node, ascending.
    pub nodes: Vec<NodeId>,
    /// Global edge id of each local edge, ascending.
    pub edges: Vec<EdgeId>,
}

/// One domain of a [`Hierarchy`].
#[derive(Debug, Clone)]
pub struct Domain {
    /// Global ids of this domain's compute nodes, ascending.
    computes: Vec<NodeId>,
    /// Global ids of the domain's border nodes — endpoints of boundary
    /// links that live in this domain — ascending, deduplicated. Empty
    /// for a domain with no links to the rest of the graph.
    borders: Vec<NodeId>,
    /// The domain's sub-topology and id maps.
    extract: Extract,
}

impl Domain {
    /// Global ids of every member node, ascending.
    pub fn members(&self) -> &[NodeId] {
        &self.extract.nodes
    }

    /// Global ids of the domain's compute nodes, ascending.
    pub fn computes(&self) -> &[NodeId] {
        &self.computes
    }

    /// Global ids of the domain's border nodes, ascending.
    pub fn borders(&self) -> &[NodeId] {
        &self.borders
    }

    /// The extracted sub-topology with id maps.
    pub fn extract(&self) -> &Extract {
        &self.extract
    }

    /// The domain's sub-topology (local ids).
    pub fn sub(&self) -> &Topology {
        &self.extract.sub
    }
}

/// One edge of the [`AggregateGraph`]: the bundle of all links joining
/// one pair of domains.
#[derive(Debug, Clone)]
pub struct AggEdge {
    /// Lower domain id of the pair.
    pub a: u16,
    /// Higher domain id of the pair.
    pub b: u16,
    /// Static trunk capacity summary: the sum over bundled links of each
    /// link's minimum directional capacity (an upper bound on what the
    /// bundle can carry one way, loads ignored).
    pub capacity: f64,
    /// Minimum one-way latency over the bundled links.
    pub latency: f64,
    /// The underlying global links, in edge-id order.
    pub links: Vec<EdgeId>,
}

impl AggEdge {
    /// Best currently-available bandwidth across the bundle under `net`:
    /// the max over bundled links of the link's available bandwidth. A
    /// single flow rides one trunk, so the bundle is as good as its best
    /// member (parallel trunks widen aggregate throughput, not one
    /// route's bottleneck).
    pub fn best_bw(&self, net: &impl crate::NetMetrics) -> f64 {
        self.links.iter().map(|&e| net.bw(e)).fold(0.0, f64::max)
    }
}

/// The inter-domain graph: one vertex per domain, one [`AggEdge`] per
/// adjacent domain pair.
#[derive(Debug, Clone)]
pub struct AggregateGraph {
    k: u16,
    edges: Vec<AggEdge>,
    /// Incident aggregate-edge indices per domain, in edge order.
    adj: Vec<Vec<u32>>,
}

impl AggregateGraph {
    /// Number of domains (vertices).
    pub fn num_domains(&self) -> u16 {
        self.k
    }

    /// All aggregate edges, ordered by `(a, b)` pair.
    pub fn edges(&self) -> &[AggEdge] {
        &self.edges
    }

    /// Indices into [`AggregateGraph::edges`] incident to domain `d`.
    pub fn incident(&self, d: u16) -> &[u32] {
        &self.adj[d as usize]
    }
}

/// A domain decomposition of a [`Topology`] with per-domain extracts,
/// border nodes and an aggregated inter-domain graph.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    node_domain: Vec<u16>,
    /// Local id of each global node inside its domain's extract.
    local_id: Vec<u32>,
    domains: Vec<Domain>,
    aggregate: AggregateGraph,
    /// Global links whose endpoints live in different domains, in
    /// edge-id order (the union of all aggregate-edge bundles).
    boundary: Vec<EdgeId>,
}

impl Hierarchy {
    /// Builds the hierarchy for `topo`. Uses the topology's persisted
    /// domain assignment ([`Topology::domains`]) when present, otherwise
    /// one domain per connected component. Panics if a persisted
    /// assignment is malformed (wrong length or gapped ids) — persisted
    /// files are validated by [`crate::io::from_json`] before they get
    /// here.
    pub fn new(topo: &Topology) -> Hierarchy {
        let plan = match topo.domains() {
            Some(d) => ShardPlan::from_assignment(topo, d),
            None => ShardPlan::components(topo),
        };
        Self::from_plan(topo, &plan)
    }

    /// Builds the hierarchy from an explicit shard plan over `topo`.
    pub fn from_plan(topo: &Topology, plan: &ShardPlan) -> Hierarchy {
        let k = plan.num_domains() as usize;
        let node_domain = plan.node_domain().to_vec();
        let n = topo.node_count();

        // Membership and local ids, in ascending global order per domain.
        let mut local_id = vec![0u32; n];
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for id in topo.node_ids() {
            let d = node_domain[id.index()] as usize;
            local_id[id.index()] = members[d].len() as u32;
            members[d].push(id);
        }

        // Border nodes: endpoints of boundary links, bucketed by domain.
        let mut borders: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for &e in plan.boundary_links() {
            let l = topo.link(e);
            for end in [l.a(), l.b()] {
                borders[node_domain[end.index()] as usize].push(end);
            }
        }
        for b in &mut borders {
            b.sort_unstable();
            b.dedup();
        }

        // Extract each domain's sub-topology: nodes first (ascending, so
        // local ids match `local_id`), then intra-domain links in global
        // edge order. Cross-domain links are bucketed into aggregate
        // edges keyed by the (low, high) domain pair.
        let mut subs: Vec<Topology> = (0..k).map(|_| Topology::new()).collect();
        for id in topo.node_ids() {
            let node = topo.node(id);
            let sub = &mut subs[node_domain[id.index()] as usize];
            if node.is_compute() {
                let local = sub.add_compute_node(node.name(), node.speed());
                sub.set_load_avg(local, node.load_avg());
            } else {
                sub.add_network_node(node.name());
            }
        }
        let mut edge_maps: Vec<Vec<EdgeId>> = vec![Vec::new(); k];
        let mut agg: BTreeMap<(u16, u16), AggEdge> = BTreeMap::new();
        for e in topo.edge_ids() {
            let l = topo.link(e);
            let (da, db) = (node_domain[l.a().index()], node_domain[l.b().index()]);
            if da == db {
                let sub = &mut subs[da as usize];
                let local = sub.add_link_full(
                    NodeId::from_index(local_id[l.a().index()] as usize),
                    NodeId::from_index(local_id[l.b().index()] as usize),
                    l.capacity(Direction::AtoB),
                    l.capacity(Direction::BtoA),
                    l.latency(),
                );
                sub.set_link_used(local, Direction::AtoB, l.used(Direction::AtoB));
                sub.set_link_used(local, Direction::BtoA, l.used(Direction::BtoA));
                edge_maps[da as usize].push(e);
            } else {
                let key = (da.min(db), da.max(db));
                let entry = agg.entry(key).or_insert(AggEdge {
                    a: key.0,
                    b: key.1,
                    capacity: 0.0,
                    latency: f64::INFINITY,
                    links: Vec::new(),
                });
                entry.capacity += l.capacity(Direction::AtoB).min(l.capacity(Direction::BtoA));
                entry.latency = entry.latency.min(l.latency());
                entry.links.push(e);
            }
        }

        let edges: Vec<AggEdge> = agg.into_values().collect();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, e) in edges.iter().enumerate() {
            adj[e.a as usize].push(i as u32);
            adj[e.b as usize].push(i as u32);
        }

        let domains = members
            .into_iter()
            .zip(borders)
            .zip(subs.into_iter().zip(edge_maps))
            .map(|((nodes, borders), (sub, edges))| Domain {
                computes: nodes
                    .iter()
                    .copied()
                    .filter(|&id| topo.node(id).is_compute())
                    .collect(),
                borders,
                extract: Extract { sub, nodes, edges },
            })
            .collect();

        Hierarchy {
            node_domain,
            local_id,
            domains,
            aggregate: AggregateGraph {
                k: k as u16,
                edges,
                adj,
            },
            boundary: plan.boundary_links().to_vec(),
        }
    }

    /// Number of domains.
    pub fn num_domains(&self) -> u16 {
        self.domains.len() as u16
    }

    /// Domain of global node `n`.
    pub fn domain_of(&self, n: NodeId) -> u16 {
        self.node_domain[n.index()]
    }

    /// The full node→domain assignment, indexed by [`NodeId::index`].
    pub fn node_domain(&self) -> &[u16] {
        &self.node_domain
    }

    /// Local id of global node `n` inside its domain's extract.
    pub fn local_id(&self, n: NodeId) -> NodeId {
        NodeId::from_index(self.local_id[n.index()] as usize)
    }

    /// Domain `d`.
    pub fn domain(&self, d: u16) -> &Domain {
        &self.domains[d as usize]
    }

    /// All domains, indexed by domain id.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The aggregated inter-domain graph.
    pub fn aggregate(&self) -> &AggregateGraph {
        &self.aggregate
    }

    /// Global links crossing domain boundaries, in edge-id order.
    pub fn boundary_links(&self) -> &[EdgeId] {
        &self.boundary
    }

    /// Extracts the union of a set of domains from `topo` — the merged
    /// sub-topology *including* the trunk links interior to the set —
    /// so the flat engines can run across several adjacent domains when
    /// no single domain can host a request. `topo` must be the topology
    /// this hierarchy was built from; `set` must contain valid domain
    /// ids. Allocates per call: merging is the rare fallback path, not
    /// the steady state.
    pub fn merged(&self, topo: &Topology, set: &[u16]) -> Extract {
        let mut in_set = vec![false; self.domains.len()];
        for &d in set {
            in_set[d as usize] = true;
        }
        let mut sub = Topology::new();
        let mut nodes = Vec::new();
        let mut local = vec![u32::MAX; topo.node_count()];
        for id in topo.node_ids() {
            if !in_set[self.node_domain[id.index()] as usize] {
                continue;
            }
            let node = topo.node(id);
            local[id.index()] = nodes.len() as u32;
            nodes.push(id);
            if node.is_compute() {
                let l = sub.add_compute_node(node.name(), node.speed());
                sub.set_load_avg(l, node.load_avg());
            } else {
                sub.add_network_node(node.name());
            }
        }
        let mut edges = Vec::new();
        for e in topo.edge_ids() {
            let l = topo.link(e);
            let (da, db) = (
                self.node_domain[l.a().index()] as usize,
                self.node_domain[l.b().index()] as usize,
            );
            if !(in_set[da] && in_set[db]) {
                continue;
            }
            let le = sub.add_link_full(
                NodeId::from_index(local[l.a().index()] as usize),
                NodeId::from_index(local[l.b().index()] as usize),
                l.capacity(Direction::AtoB),
                l.capacity(Direction::BtoA),
                l.latency(),
            );
            sub.set_link_used(le, Direction::AtoB, l.used(Direction::AtoB));
            sub.set_link_used(le, Direction::BtoA, l.used(Direction::BtoA));
            edges.push(e);
        }
        Extract { sub, nodes, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::hierarchical;
    use crate::units::MBPS;

    fn two_domain_dumbbell() -> (Topology, EdgeId) {
        // a0 - a1 === b0 - b1, trunk a1-b0.
        let mut t = Topology::new();
        let a0 = t.add_compute_node("a0", 1.0);
        let a1 = t.add_network_node("a1");
        let b0 = t.add_network_node("b0");
        let b1 = t.add_compute_node("b1", 2.0);
        t.add_link(a0, a1, 100.0 * MBPS);
        let trunk = t.add_link_full(a1, b0, 10.0 * MBPS, 20.0 * MBPS, 5e-3);
        t.add_link(b0, b1, 100.0 * MBPS);
        t.set_domains(vec![0, 0, 1, 1]);
        t.set_load_avg(a0, 1.5);
        (t, trunk)
    }

    #[test]
    fn builds_domains_borders_and_aggregate() {
        let (t, trunk) = two_domain_dumbbell();
        let h = Hierarchy::new(&t);
        assert_eq!(h.num_domains(), 2);
        let d0 = h.domain(0);
        assert_eq!(d0.members().len(), 2);
        assert_eq!(d0.computes(), &[NodeId::from_index(0)]);
        assert_eq!(d0.borders(), &[NodeId::from_index(1)]);
        let d1 = h.domain(1);
        assert_eq!(d1.borders(), &[NodeId::from_index(2)]);
        assert_eq!(h.boundary_links(), &[trunk]);

        // Sub-topologies carry the conditions and the id maps line up.
        assert_eq!(d0.sub().node_count(), 2);
        assert_eq!(d0.sub().link_count(), 1);
        let local_a0 = h.local_id(NodeId::from_index(0));
        assert_eq!(d0.sub().node(local_a0).load_avg(), 1.5);
        assert_eq!(d0.extract().nodes[local_a0.index()], NodeId::from_index(0));

        // Aggregate: one edge, trunk capacity = min-direction capacity.
        let agg = h.aggregate();
        assert_eq!(agg.edges().len(), 1);
        let e = &agg.edges()[0];
        assert_eq!((e.a, e.b), (0, 1));
        assert_eq!(e.capacity, 10.0 * MBPS);
        assert_eq!(e.latency, 5e-3);
        assert_eq!(e.links, vec![trunk]);
        assert_eq!(agg.incident(0), &[0]);
        assert_eq!(agg.incident(1), &[0]);
    }

    #[test]
    fn falls_back_to_connected_components() {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let b = t.add_compute_node("b", 1.0);
        t.add_link(a, b, 100.0 * MBPS);
        let c = t.add_compute_node("c", 1.0);
        let d = t.add_compute_node("d", 1.0);
        t.add_link(c, d, 100.0 * MBPS);
        let h = Hierarchy::new(&t);
        assert_eq!(h.num_domains(), 2);
        assert!(h.boundary_links().is_empty());
        assert!(h.domain(0).borders().is_empty());
        assert_eq!(h.aggregate().edges().len(), 0);
    }

    #[test]
    fn merged_extract_includes_interior_trunks() {
        let (t, trunk) = two_domain_dumbbell();
        let h = Hierarchy::new(&t);
        let m = h.merged(&t, &[0, 1]);
        assert_eq!(m.sub.node_count(), 4);
        assert_eq!(m.sub.link_count(), 3);
        assert!(m.edges.contains(&trunk));
        // A one-domain merge is the domain's own extract.
        let solo = h.merged(&t, &[1]);
        assert_eq!(solo.nodes, h.domain(1).members());
        assert_eq!(solo.sub.link_count(), 1);
    }

    #[test]
    fn hierarchical_builder_round_trips_through_hierarchy() {
        let (t, hosts) = hierarchical(4, 5, 100.0 * MBPS, 50.0 * MBPS, 2e-3);
        let h = Hierarchy::new(&t);
        assert_eq!(h.num_domains(), 4);
        for (d, dom_hosts) in hosts.iter().enumerate() {
            assert_eq!(h.domain(d as u16).computes(), dom_hosts.as_slice());
            // Star domains have exactly one border: the hub.
            assert_eq!(h.domain(d as u16).borders().len(), 1);
        }
        // Binary-tree trunk graph: k-1 aggregate edges.
        assert_eq!(h.aggregate().edges().len(), 3);
    }
}
