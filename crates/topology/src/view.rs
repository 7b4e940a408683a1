//! Edge-deletion overlay used by the selection algorithms.

use crate::{EdgeId, NodeId, Topology};

/// A read-only view of a [`Topology`] with a set of logically removed edges.
///
/// The paper's algorithms (Figures 2 and 3) repeatedly "remove the edge with
/// the minimum available bandwidth" and recompute connected components.
/// `GraphView` supports that loop without cloning or mutating the underlying
/// snapshot: removal flips a bit, and component computation skips removed
/// edges. A **compact live-edge list** is maintained under removal/restore,
/// so that repeated scans ([`GraphView::live_edges`],
/// [`GraphView::min_live_edge_by`]) touch only surviving edges instead of
/// re-filtering the full edge set every round.
#[derive(Debug, Clone)]
pub struct GraphView<'a> {
    topo: &'a Topology,
    removed: Vec<bool>,
    removed_count: usize,
    /// Live edges in unspecified order; `live_pos[e]` is `e`'s slot in
    /// `live`, or `usize::MAX` while removed.
    live: Vec<EdgeId>,
    live_pos: Vec<usize>,
}

/// One connected component of a [`GraphView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// All member nodes, in ascending id order.
    pub nodes: Vec<NodeId>,
    /// Member nodes that are compute nodes, in ascending id order.
    pub compute_nodes: Vec<NodeId>,
    /// Live (non-removed) edges with both endpoints in this component.
    pub edges: Vec<EdgeId>,
}

impl Component {
    /// Number of compute nodes in the component.
    pub fn compute_count(&self) -> usize {
        self.compute_nodes.len()
    }
}

impl<'a> GraphView<'a> {
    /// Creates a view with no edges removed.
    pub fn new(topo: &'a Topology) -> Self {
        GraphView {
            topo,
            removed: vec![false; topo.link_count()],
            removed_count: 0,
            live: topo.edge_ids().collect(),
            live_pos: (0..topo.link_count()).collect(),
        }
    }

    /// The underlying topology snapshot.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// Logically removes an edge. Removing an already-removed edge is a
    /// no-op.
    pub fn remove_edge(&mut self, e: EdgeId) {
        if !self.removed[e.index()] {
            self.removed[e.index()] = true;
            self.removed_count += 1;
            let slot = self.live_pos[e.index()];
            self.live.swap_remove(slot);
            if let Some(&moved) = self.live.get(slot) {
                self.live_pos[moved.index()] = slot;
            }
            self.live_pos[e.index()] = usize::MAX;
        }
    }

    /// Restores a previously removed edge.
    pub fn restore_edge(&mut self, e: EdgeId) {
        if self.removed[e.index()] {
            self.removed[e.index()] = false;
            self.removed_count -= 1;
            self.live_pos[e.index()] = self.live.len();
            self.live.push(e);
        }
    }

    /// Number of live (non-removed) edges.
    pub fn live_edge_count(&self) -> usize {
        self.topo.link_count() - self.removed_count
    }

    /// Iterates over live edge ids in unspecified (but deterministic)
    /// order. The scan is over a compact list that only contains surviving
    /// edges, so its cost is O(live), not O(total).
    pub fn live_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.live.iter().copied()
    }

    /// Live edge with the minimum key according to `key`, breaking ties by
    /// edge id (deterministic). Returns `None` when no live edges remain.
    pub fn min_live_edge_by(&self, mut key: impl FnMut(EdgeId) -> f64) -> Option<EdgeId> {
        let mut best: Option<(f64, EdgeId)> = None;
        for e in self.live_edges() {
            let k = key(e);
            match best {
                Some((bk, be)) if (bk, be) <= (k, e) => {}
                _ => best = Some((k, e)),
            }
        }
        best.map(|(_, e)| e)
    }

    /// Connected components induced by the live edges, each listing its
    /// nodes, compute nodes and internal edges. Components are ordered by
    /// their smallest node id; nodes within a component are sorted.
    pub fn components(&self) -> Vec<Component> {
        let n = self.topo.node_count();
        let mut label = vec![usize::MAX; n];
        let mut components: Vec<Component> = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            let cid = components.len();
            components.push(Component {
                nodes: Vec::new(),
                compute_nodes: Vec::new(),
                edges: Vec::new(),
            });
            label[start] = cid;
            stack.push(NodeId(start as u32));
            while let Some(v) = stack.pop() {
                components[cid].nodes.push(v);
                if self.topo.node(v).is_compute() {
                    components[cid].compute_nodes.push(v);
                }
                for &(e, w) in self.topo.neighbors(v) {
                    if self.removed[e.index()] {
                        continue;
                    }
                    if label[w.index()] == usize::MAX {
                        label[w.index()] = cid;
                        stack.push(w);
                    }
                }
            }
        }
        // Ascending edge id, so `Component::edges` stays deterministic
        // regardless of the compact live list's internal order.
        for e in self.topo.edge_ids().filter(|e| !self.removed[e.index()]) {
            let l = self.topo.link(e);
            let ca = label[l.a().index()];
            if ca == label[l.b().index()] {
                components[ca].edges.push(e);
            }
        }
        for c in &mut components {
            c.nodes.sort_unstable();
            c.compute_nodes.sort_unstable();
        }
        components
    }

    /// The component containing `n`.
    pub fn component_of(&self, n: NodeId) -> Component {
        self.components()
            .into_iter()
            .find(|c| c.nodes.binary_search(&n).is_ok())
            .expect("every node belongs to a component")
    }

    /// True when `a` and `b` are connected through live edges.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = vec![false; self.topo.node_count()];
        let mut stack = vec![a];
        seen[a.index()] = true;
        while let Some(v) = stack.pop() {
            for &(e, w) in self.topo.neighbors(v) {
                if self.removed[e.index()] || seen[w.index()] {
                    continue;
                }
                if w == b {
                    return true;
                }
                seen[w.index()] = true;
                stack.push(w);
            }
        }
        false
    }

    /// Size (in compute nodes) of the largest component, together with that
    /// component. This is the `L` / `l` of Figure 2.
    pub fn largest_compute_component(&self) -> Option<Component> {
        self.components()
            .into_iter()
            .max_by_key(|c| c.compute_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MBPS;
    use crate::Topology;

    /// star: hub h with leaves a,b,c (compute), edges e0,e1,e2.
    fn star() -> (Topology, [NodeId; 4], [EdgeId; 3]) {
        let mut t = Topology::new();
        let h = t.add_network_node("h");
        let a = t.add_compute_node("a", 1.0);
        let b = t.add_compute_node("b", 1.0);
        let c = t.add_compute_node("c", 1.0);
        let e0 = t.add_link(h, a, 100.0 * MBPS);
        let e1 = t.add_link(h, b, 100.0 * MBPS);
        let e2 = t.add_link(h, c, 100.0 * MBPS);
        (t, [h, a, b, c], [e0, e1, e2])
    }

    #[test]
    fn fresh_view_is_one_component() {
        let (t, nodes, _) = star();
        let v = GraphView::new(&t);
        let comps = v.components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].nodes.len(), 4);
        assert_eq!(comps[0].compute_count(), 3);
        assert!(v.connected(nodes[1], nodes[3]));
    }

    #[test]
    fn removal_splits_components() {
        let (t, nodes, edges) = star();
        let mut v = GraphView::new(&t);
        v.remove_edge(edges[0]);
        let comps = v.components();
        assert_eq!(comps.len(), 2);
        assert!(!v.connected(nodes[1], nodes[2]));
        assert!(v.connected(nodes[2], nodes[3]));
        // The singleton component is {a}.
        let single = comps.iter().find(|c| c.nodes.len() == 1).unwrap();
        assert_eq!(single.nodes, vec![nodes[1]]);
        assert_eq!(single.compute_count(), 1);
    }

    #[test]
    fn restore_heals_connectivity() {
        let (t, nodes, edges) = star();
        let mut v = GraphView::new(&t);
        v.remove_edge(edges[1]);
        assert!(!v.connected(nodes[2], nodes[0]));
        v.restore_edge(edges[1]);
        assert!(v.connected(nodes[2], nodes[0]));
        assert_eq!(v.live_edge_count(), 3);
    }

    #[test]
    fn double_remove_is_idempotent() {
        let (t, _, edges) = star();
        let mut v = GraphView::new(&t);
        v.remove_edge(edges[2]);
        v.remove_edge(edges[2]);
        assert_eq!(v.live_edge_count(), 2);
        v.restore_edge(edges[2]);
        assert_eq!(v.live_edge_count(), 3);
    }

    #[test]
    fn component_edges_are_internal() {
        let (t, _, edges) = star();
        let mut v = GraphView::new(&t);
        v.remove_edge(edges[0]);
        for c in v.components() {
            for &e in &c.edges {
                let l = t.link(e);
                assert!(c.nodes.binary_search(&l.a()).is_ok());
                assert!(c.nodes.binary_search(&l.b()).is_ok());
            }
        }
        // Total internal edges = live edges (hub graph keeps both in one comp).
        let total: usize = v.components().iter().map(|c| c.edges.len()).sum();
        assert_eq!(total, v.live_edge_count());
    }

    #[test]
    fn min_live_edge_by_breaks_ties_by_id() {
        let (t, _, edges) = star();
        let v = GraphView::new(&t);
        // All keys equal => lowest edge id wins.
        assert_eq!(v.min_live_edge_by(|_| 1.0), Some(edges[0]));
        // Distinct keys.
        assert_eq!(
            v.min_live_edge_by(|e| if e == edges[1] { 0.5 } else { 1.0 }),
            Some(edges[1])
        );
    }

    #[test]
    fn live_list_stays_compact_under_removal_and_restore() {
        let (t, _, edges) = star();
        let mut v = GraphView::new(&t);
        v.remove_edge(edges[1]);
        let mut live: Vec<_> = v.live_edges().collect();
        live.sort_unstable();
        assert_eq!(live, vec![edges[0], edges[2]]);
        v.restore_edge(edges[1]);
        v.remove_edge(edges[0]);
        v.remove_edge(edges[2]);
        assert_eq!(v.live_edges().collect::<Vec<_>>(), vec![edges[1]]);
        // min_live_edge_by agrees with a brute-force scan after churn.
        assert_eq!(v.min_live_edge_by(|_| 1.0), Some(edges[1]));
    }

    #[test]
    fn largest_compute_component_tracks_removals() {
        let (t, nodes, edges) = star();
        let mut v = GraphView::new(&t);
        assert_eq!(v.largest_compute_component().unwrap().compute_count(), 3);
        v.remove_edge(edges[0]);
        v.remove_edge(edges[1]);
        let biggest = v.largest_compute_component().unwrap();
        // Components: {a}, {b}, {h, c} — largest by compute count has 1; the
        // tie is broken by max_by_key returning the *last* maximum, but all
        // candidates have exactly one compute node.
        assert_eq!(biggest.compute_count(), 1);
        assert!(v.connected(nodes[0], nodes[3]));
    }
}
