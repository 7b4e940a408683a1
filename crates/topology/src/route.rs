//! Static routing over the topology graph.
//!
//! The paper's algorithms assume a unique path between node pairs. On trees
//! this holds structurally; for cyclic topologies the paper observes that
//! "networks typically use static routing implying that a fixed path is
//! actually taken for all communication between a pair of nodes" (§3.3).
//! [`RouteTable`] realizes that model: it fixes one deterministic
//! shortest-hop path per ordered pair (BFS with insertion-order
//! tie-breaking) and answers path, bottleneck-bandwidth and latency queries
//! against it.

use crate::link::Direction;
use crate::snapshot::NetMetrics;
use crate::{EdgeId, NodeId, Topology, TopologyError};
use std::collections::VecDeque;

/// A fixed route between two nodes: the hops in travel order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Hops in order from `src` to `dst`: the link and the direction
    /// traffic takes across it.
    pub hops: Vec<(EdgeId, Direction)>,
}

impl Path {
    /// Number of links traversed.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for the degenerate `src == dst` path.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The node sequence `src, ..., dst` implied by the hops.
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.hops.len() + 1);
        let mut cur = self.src;
        nodes.push(cur);
        for &(e, _) in &self.hops {
            cur = topo.link(e).opposite(cur);
            nodes.push(cur);
        }
        debug_assert_eq!(cur, self.dst);
        nodes
    }
}

/// Precomputed static routes from a set of source nodes.
///
/// [`RouteTable::build`] runs BFS from every node — O(n · (n + e)) — and
/// answers queries for every ordered pair. When only a small node set will
/// ever be queried (e.g. scoring one selection of `m` nodes),
/// [`RouteTable::build_for_sources`] builds just those BFS rows in
/// O(|sources| · (n + e)). Queries are O(path length).
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    /// `row_of[v]` = BFS row index for source `v`, or `u32::MAX` when the
    /// row was not built (partial table).
    row_of: Vec<u32>,
    /// `parent[row_of[s] * n + v]` = edge by which BFS from `s` first
    /// reached `v`.
    parent: Vec<Option<EdgeId>>,
}

impl RouteTable {
    /// Builds the full table: one BFS row per node.
    pub fn build(topo: &Topology) -> Self {
        Self::build_for_sources(topo, topo.node_ids())
    }

    /// Builds BFS rows only for `sources` (duplicates are ignored).
    ///
    /// The resulting table answers queries whose `src` is one of the
    /// sources exactly as the full table would — including paths through
    /// arbitrary intermediate nodes — and panics on any other `src`.
    pub fn build_for_sources(topo: &Topology, sources: impl IntoIterator<Item = NodeId>) -> Self {
        let n = topo.node_count();
        let mut row_of = vec![u32::MAX; n];
        let mut srcs: Vec<NodeId> = Vec::new();
        for s in sources {
            if row_of[s.index()] == u32::MAX {
                row_of[s.index()] = srcs.len() as u32;
                srcs.push(s);
            }
        }
        let mut parent = vec![None; srcs.len() * n];
        // One distance slab and one queue serve every row.
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for (row, &s) in srcs.iter().enumerate() {
            dist.fill(u32::MAX);
            dist[s.index()] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                for &(e, w) in topo.neighbors(v) {
                    if dist[w.index()] == u32::MAX {
                        dist[w.index()] = dist[v.index()] + 1;
                        parent[row * n + w.index()] = Some(e);
                        queue.push_back(w);
                    }
                }
            }
        }
        RouteTable { n, row_of, parent }
    }

    /// The BFS row for `src`; panics when the row was not built.
    fn row(&self, src: NodeId) -> usize {
        let row = self.row_of[src.index()];
        assert!(
            row != u32::MAX,
            "no BFS row for {src:?}: it was not listed as a source of this partial route table"
        );
        row as usize
    }

    /// Resolves the path from `src` to `dst` against `topo` (directions and
    /// hop order require endpoint information).
    pub fn resolve(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Path, TopologyError> {
        if src == dst {
            return Ok(Path {
                src,
                dst,
                hops: Vec::new(),
            });
        }
        let row = self.row(src);
        let mut rev: Vec<(EdgeId, Direction)> = Vec::new();
        let mut cur = dst;
        while cur != src {
            let Some(e) = self.parent[row * self.n + cur.index()] else {
                return Err(TopologyError::Disconnected(src, dst));
            };
            let prev = topo.link(e).opposite(cur);
            rev.push((e, topo.link(e).direction_from(prev)));
            cur = prev;
        }
        rev.reverse();
        Ok(Path {
            src,
            dst,
            hops: rev,
        })
    }

    /// True when a route exists from `src` to `dst`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.parent[self.row(src) * self.n + dst.index()].is_some()
    }

    /// Directional available bandwidth from `src` to `dst` under `net`'s
    /// metrics: the minimum over the fixed route of each link's available
    /// capacity in the traversal direction.
    ///
    /// Generic over [`NetMetrics`] so the same fold runs on an owned
    /// annotated [`Topology`] and on a [`crate::NetSnapshot`] — results
    /// are bit-identical across representations by construction.
    pub fn available_bandwidth_in<T: NetMetrics>(
        &self,
        net: &T,
        src: NodeId,
        dst: NodeId,
    ) -> Result<f64, TopologyError> {
        let path = self.resolve(net.structure(), src, dst)?;
        if path.is_empty() {
            return Ok(f64::INFINITY);
        }
        Ok(path
            .hops
            .iter()
            .map(|&(e, d)| net.available(e, d))
            .fold(f64::INFINITY, f64::min))
    }

    /// Symmetric bottleneck `bw` from `src` to `dst` under `net`'s
    /// metrics (see [`RouteTable::available_bandwidth_in`] for the
    /// genericity rationale).
    pub fn bottleneck_bw_in<T: NetMetrics>(
        &self,
        net: &T,
        src: NodeId,
        dst: NodeId,
    ) -> Result<f64, TopologyError> {
        let path = self.resolve(net.structure(), src, dst)?;
        if path.is_empty() {
            return Ok(f64::INFINITY);
        }
        Ok(path
            .hops
            .iter()
            .map(|&(e, _)| net.bw(e))
            .fold(f64::INFINITY, f64::min))
    }

    /// Symmetric bottleneck `bwfactor` from `src` to `dst` under `net`'s
    /// metrics.
    pub fn bottleneck_bwfactor_in<T: NetMetrics>(
        &self,
        net: &T,
        src: NodeId,
        dst: NodeId,
    ) -> Result<f64, TopologyError> {
        let path = self.resolve(net.structure(), src, dst)?;
        if path.is_empty() {
            return Ok(1.0);
        }
        Ok(path
            .hops
            .iter()
            .map(|&(e, _)| net.bwfactor(e))
            .fold(f64::INFINITY, f64::min))
    }
}

/// Convenience bundle of a topology and its route table.
///
/// Most callers want the pair together; `Routes` keeps the borrow ergonomic
/// and hosts the measurement-style queries (bottleneck bandwidth, latency).
#[derive(Debug)]
pub struct Routes<'a> {
    topo: &'a Topology,
    table: RouteTable,
}

impl<'a> Routes<'a> {
    /// Builds routes for `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        Routes {
            topo,
            table: RouteTable::build(topo),
        }
    }

    /// Builds routes only from the given `sources`
    /// ([`RouteTable::build_for_sources`]): enough for queries *from* that
    /// set — e.g. pairwise metrics of one selection — at a fraction of the
    /// all-pairs build cost.
    pub fn for_sources(topo: &'a Topology, sources: impl IntoIterator<Item = NodeId>) -> Self {
        Routes {
            topo,
            table: RouteTable::build_for_sources(topo, sources),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// The underlying route table.
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// Fixed path between two nodes.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Result<Path, TopologyError> {
        self.table.resolve(self.topo, src, dst)
    }

    /// Directional available bandwidth from `src` to `dst`: the minimum,
    /// over the fixed route, of each link's available capacity in the
    /// traversal direction. This is the Remos *flow query* primitive.
    pub fn available_bandwidth(&self, src: NodeId, dst: NodeId) -> Result<f64, TopologyError> {
        self.table.available_bandwidth_in(self.topo, src, dst)
    }

    /// Symmetric bottleneck `bw` between two nodes: minimum of [`crate::Link::bw`]
    /// over the route. This is the quantity the §3.2 algorithms optimize.
    pub fn bottleneck_bw(&self, src: NodeId, dst: NodeId) -> Result<f64, TopologyError> {
        self.table.bottleneck_bw_in(self.topo, src, dst)
    }

    /// Symmetric bottleneck `bwfactor` between two nodes.
    pub fn bottleneck_bwfactor(&self, src: NodeId, dst: NodeId) -> Result<f64, TopologyError> {
        self.table.bottleneck_bwfactor_in(self.topo, src, dst)
    }

    /// One-way latency along the fixed route, in seconds.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Result<f64, TopologyError> {
        let path = self.path(src, dst)?;
        Ok(path
            .hops
            .iter()
            .map(|&(e, _)| self.topo.link(e).latency())
            .sum())
    }
}

impl Topology {
    /// Builds a [`Routes`] bundle for this topology.
    pub fn routes(&self) -> Routes<'_> {
        Routes::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MBPS;
    use crate::{Direction, Topology};

    /// a - s1 - s2 - b, plus c hanging off s2.
    fn chain() -> (Topology, [NodeId; 5], [EdgeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let s1 = t.add_network_node("s1");
        let s2 = t.add_network_node("s2");
        let b = t.add_compute_node("b", 1.0);
        let c = t.add_compute_node("c", 1.0);
        let e0 = t.add_link(a, s1, 100.0 * MBPS);
        let e1 = t.add_link(s1, s2, 10.0 * MBPS);
        let e2 = t.add_link(s2, b, 100.0 * MBPS);
        let e3 = t.add_link(s2, c, 100.0 * MBPS);
        (t, [a, s1, s2, b, c], [e0, e1, e2, e3])
    }

    #[test]
    fn path_on_tree_is_unique_route() {
        let (t, n, e) = chain();
        let r = t.routes();
        let p = r.path(n[0], n[3]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.hops.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![e[0], e[1], e[2]]
        );
        assert_eq!(p.nodes(&t), vec![n[0], n[1], n[2], n[3]]);
    }

    #[test]
    fn self_path_is_empty_and_infinite() {
        let (t, n, _) = chain();
        let r = t.routes();
        assert!(r.path(n[0], n[0]).unwrap().is_empty());
        assert!(r.available_bandwidth(n[0], n[0]).unwrap().is_infinite());
    }

    #[test]
    fn bottleneck_is_thin_middle_link() {
        let (t, n, _) = chain();
        let r = t.routes();
        assert_eq!(r.bottleneck_bw(n[0], n[3]).unwrap(), 10.0 * MBPS);
        assert_eq!(r.bottleneck_bw(n[3], n[4]).unwrap(), 100.0 * MBPS);
    }

    #[test]
    fn directional_available_bandwidth_sees_direction() {
        let (mut t, n, e) = chain();
        // Congest only the s1->s2 direction.
        t.set_link_used(e[1], Direction::AtoB, 8.0 * MBPS);
        let r = t.routes();
        assert!((r.available_bandwidth(n[0], n[3]).unwrap() - 2.0 * MBPS).abs() < 1.0);
        // Reverse direction unaffected.
        assert_eq!(r.available_bandwidth(n[3], n[0]).unwrap(), 10.0 * MBPS);
        // Symmetric bw takes the min.
        assert!((r.bottleneck_bw(n[0], n[3]).unwrap() - 2.0 * MBPS).abs() < 1.0);
    }

    #[test]
    fn disconnected_pairs_error() {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let b = t.add_compute_node("b", 1.0);
        let r = t.routes();
        assert!(matches!(
            r.path(a, b),
            Err(TopologyError::Disconnected(_, _))
        ));
        assert!(r.available_bandwidth(a, b).is_err());
    }

    #[test]
    fn cyclic_graph_gets_fixed_shortest_route() {
        // Square a-b-c-d-a plus diagonal shortcut a-c.
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let b = t.add_compute_node("b", 1.0);
        let c = t.add_compute_node("c", 1.0);
        let d = t.add_compute_node("d", 1.0);
        t.add_link(a, b, MBPS);
        t.add_link(b, c, MBPS);
        t.add_link(c, d, MBPS);
        t.add_link(d, a, MBPS);
        let diag = t.add_link(a, c, MBPS);
        let r = t.routes();
        let p = r.path(a, c).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.hops[0].0, diag);
        // Routes are stable: asking twice gives the identical path.
        assert_eq!(r.path(a, c).unwrap(), p);
    }

    #[test]
    fn partial_table_matches_full_table_for_its_sources() {
        let (t, n, _) = chain();
        let full = t.routes();
        let partial = Routes::for_sources(&t, [n[0], n[3], n[0]]); // dup ignored
        for src in [n[0], n[3]] {
            for dst in n {
                assert_eq!(
                    partial.path(src, dst).unwrap(),
                    full.path(src, dst).unwrap()
                );
                assert_eq!(
                    partial.bottleneck_bw(src, dst).unwrap(),
                    full.bottleneck_bw(src, dst).unwrap()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not listed as a source")]
    fn partial_table_rejects_foreign_sources() {
        let (t, n, _) = chain();
        let partial = Routes::for_sources(&t, [n[0]]);
        let _ = partial.path(n[3], n[0]);
    }

    #[test]
    fn latency_sums_over_route() {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let s = t.add_network_node("s");
        let b = t.add_compute_node("b", 1.0);
        t.add_link_full(a, s, MBPS, MBPS, 0.002);
        t.add_link_full(s, b, MBPS, MBPS, 0.003);
        let r = t.routes();
        assert!((r.latency(a, b).unwrap() - 0.005).abs() < 1e-12);
    }
}
