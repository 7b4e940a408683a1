//! The annotated topology graph.

use crate::forest::Forest;
use crate::link::Direction;
use crate::{EdgeId, Link, Node, NodeId, NodeKind, TopologyError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The logical network topology graph `G(n)` of paper §3.1.
///
/// Nodes and edges are stored in dense vectors; [`NodeId`]/[`EdgeId`] are
/// indices into them. Iteration order is insertion order, which keeps every
/// algorithm in the workspace deterministic.
///
/// A `Topology` is a *snapshot*: the measurement layer (`nodesel-remos`)
/// produces one per query, annotated with the load averages and link
/// utilizations it observed, and the selection algorithms consume it
/// read-only through [`crate::GraphView`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Adjacency: for each node, (edge, neighbor) pairs in insertion order.
    adjacency: Vec<Vec<(EdgeId, NodeId)>>,
    #[serde(skip)]
    name_index: HashMap<String, NodeId>,
    /// The rooted-forest index (`None` inside: the graph has a cycle),
    /// filled on first use and emptied by every structural edit. Derived
    /// data like `name_index`, so not serialized; snapshots that share the
    /// structure's `Arc` share it.
    #[serde(skip)]
    forest: OnceLock<Option<Forest>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a compute node with the given relative `speed` (1.0 = reference
    /// node type). Panics on duplicate names; use [`Topology::try_add_node`]
    /// for fallible construction.
    pub fn add_compute_node(&mut self, name: impl Into<String>, speed: f64) -> NodeId {
        self.try_add_node(name, NodeKind::Compute, speed)
            .expect("duplicate node name")
    }

    /// Adds a network (router/switch) node.
    pub fn add_network_node(&mut self, name: impl Into<String>) -> NodeId {
        self.try_add_node(name, NodeKind::Network, 0.0)
            .expect("duplicate node name")
    }

    /// Fallible node insertion.
    pub fn try_add_node(
        &mut self,
        name: impl Into<String>,
        kind: NodeKind,
        speed: f64,
    ) -> Result<NodeId, TopologyError> {
        let name = name.into();
        if self.name_index.contains_key(&name) {
            return Err(TopologyError::DuplicateName(name));
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.forest = OnceLock::new();
        self.nodes.push(Node::new(name.clone(), kind, speed));
        self.adjacency.push(Vec::new());
        self.name_index.insert(name, id);
        Ok(id)
    }

    /// Adds a symmetric link with equal capacity in both directions and zero
    /// latency. Returns its id.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity: f64) -> EdgeId {
        self.add_link_full(a, b, capacity, capacity, 0.0)
    }

    /// Adds a link with per-direction capacities (`a→b`, `b→a`) and one-way
    /// latency in seconds. Self-loops are rejected.
    pub fn add_link_full(
        &mut self,
        a: NodeId,
        b: NodeId,
        cap_ab: f64,
        cap_ba: f64,
        latency: f64,
    ) -> EdgeId {
        assert!(a != b, "self-loops are not meaningful in a topology graph");
        assert!(a.index() < self.nodes.len() && b.index() < self.nodes.len());
        let id = EdgeId(u32::try_from(self.links.len()).expect("too many links"));
        self.forest = OnceLock::new();
        self.links.push(Link::new(a, b, cap_ab, cap_ba, latency));
        self.adjacency[a.index()].push((id, b));
        self.adjacency[b.index()].push((id, a));
        id
    }

    /// Number of nodes (compute + network).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of compute nodes.
    pub fn compute_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_compute()).count()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Borrow a link.
    pub fn link(&self, id: EdgeId) -> &Link {
        &self.links[id.index()]
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// All edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.links.len()).map(|i| EdgeId(i as u32))
    }

    /// Ids of compute nodes, in insertion order.
    pub fn compute_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.node(id).is_compute())
    }

    /// `(edge, neighbor)` pairs incident to `n`, in insertion order.
    pub fn neighbors(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        &self.adjacency[n.index()]
    }

    /// Degree of a node.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId, TopologyError> {
        self.name_index
            .get(name)
            .copied()
            .ok_or_else(|| TopologyError::UnknownName(name.to_string()))
    }

    /// Sets the load average of a compute node (measurement-layer hook).
    pub fn set_load_avg(&mut self, n: NodeId, load_avg: f64) {
        assert!(load_avg >= 0.0, "load average must be non-negative");
        assert!(
            self.nodes[n.index()].is_compute(),
            "load average only applies to compute nodes"
        );
        self.nodes[n.index()].load_avg = load_avg;
    }

    /// Sets the consumed bandwidth of one direction of a link
    /// (measurement-layer hook).
    pub fn set_link_used(&mut self, e: EdgeId, dir: Direction, bits_per_sec: f64) {
        self.links[e.index()].set_used(dir, bits_per_sec);
    }

    /// True when the graph is connected (ignoring isolated topologies with
    /// zero nodes, which count as connected).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(_, m) in self.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }

    /// True when the graph contains no cycles (a forest). The fundamental
    /// algorithms of §3.2 assume an acyclic graph; cyclic graphs are handled
    /// through static routing (§3.3), see [`crate::RouteTable`].
    ///
    /// Parallel links between the same pair count as a cycle. The first
    /// call after a structural edit builds the forest index, O(n + E);
    /// later calls read it.
    pub fn is_acyclic(&self) -> bool {
        self.forest().is_some()
    }

    /// The rooted-forest index, built on first use; `None` when the graph
    /// has a cycle.
    pub(crate) fn forest(&self) -> Option<&Forest> {
        self.forest.get_or_init(|| Forest::build(self)).as_ref()
    }

    /// A topology of exactly these nodes and links (whose endpoints index
    /// `nodes`), with an empty name index: the sub-topology of an extract
    /// whose names stay on the global graph.
    pub(crate) fn from_parts(nodes: Vec<Node>, links: Vec<Link>) -> Topology {
        let mut degree = vec![0usize; nodes.len()];
        for l in &links {
            degree[l.a().index()] += 1;
            degree[l.b().index()] += 1;
        }
        let mut adjacency: Vec<Vec<(EdgeId, NodeId)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for (i, l) in links.iter().enumerate() {
            let e = EdgeId(i as u32);
            adjacency[l.a().index()].push((e, l.b()));
            adjacency[l.b().index()].push((e, l.a()));
        }
        Topology {
            nodes,
            links,
            adjacency,
            ..Topology::default()
        }
    }

    /// Rebuilds the name index after deserialization.
    ///
    /// `serde` skips the index (it is derivable); call this after
    /// deserializing if you need name lookups.
    pub fn rebuild_name_index(&mut self) {
        self.name_index = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), NodeId(i as u32)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MBPS;

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let s = t.add_network_node("s");
        let b = t.add_compute_node("b", 1.0);
        t.add_link(a, s, 100.0 * MBPS);
        t.add_link(s, b, 100.0 * MBPS);
        (t, a, s, b)
    }

    #[test]
    fn counts_and_lookup() {
        let (t, a, s, b) = line3();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.compute_node_count(), 2);
        assert_eq!(t.node_by_name("a").unwrap(), a);
        assert_eq!(t.node_by_name("s").unwrap(), s);
        assert_eq!(t.node_by_name("b").unwrap(), b);
        assert!(matches!(
            t.node_by_name("zz"),
            Err(TopologyError::UnknownName(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_compute_node("x", 1.0);
        assert!(matches!(
            t.try_add_node("x", NodeKind::Compute, 1.0),
            Err(TopologyError::DuplicateName(_))
        ));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (t, a, s, b) = line3();
        assert_eq!(t.degree(a), 1);
        assert_eq!(t.degree(s), 2);
        assert_eq!(t.degree(b), 1);
        let (e, n) = t.neighbors(a)[0];
        assert_eq!(n, s);
        assert!(t.link(e).touches(a) && t.link(e).touches(s));
    }

    #[test]
    fn connectivity_and_acyclicity() {
        let (mut t, a, _, b) = line3();
        assert!(t.is_connected());
        assert!(t.is_acyclic());
        // Adding a chord creates a cycle.
        t.add_link(a, b, 10.0 * MBPS);
        assert!(!t.is_acyclic());
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut t = Topology::new();
        t.add_compute_node("a", 1.0);
        t.add_compute_node("b", 1.0);
        assert!(!t.is_connected());
        assert!(t.is_acyclic());
    }

    #[test]
    fn load_average_updates_cpu() {
        let (mut t, a, _, _) = line3();
        t.set_load_avg(a, 3.0);
        assert_eq!(t.node(a).cpu(), 0.25);
    }

    #[test]
    #[should_panic(expected = "only applies to compute nodes")]
    fn load_average_on_router_rejected() {
        let (mut t, _, s, _) = line3();
        t.set_load_avg(s, 1.0);
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let (t, a, _, _) = line3();
        let json = serde_json::to_string(&t).unwrap();
        let mut back: Topology = serde_json::from_str(&json).unwrap();
        back.rebuild_name_index();
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.link_count(), t.link_count());
        assert_eq!(back.node_by_name("a").unwrap(), a);
        assert_eq!(back.node(a).cpu(), t.node(a).cpu());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        t.add_link(a, a, MBPS);
    }
}
