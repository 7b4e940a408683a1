//! The rooted-forest index of an acyclic structure, and the logical
//! topology it yields for a set of nodes of interest.
//!
//! The paper's procedures run on "the logical network topology graph"
//! Remos returns *for the nodes of interest* (§2.2, §3.1), not on the
//! whole fabric. On a forest that graph has a closed form: the union of
//! the tree paths between the nodes of interest. [`Forest`] is the
//! per-structure index that makes it cheap to build — one parent pointer
//! and one preorder rank per node, computed once on first use
//! ([`Topology::is_acyclic`], [`Topology::logical_topology`]) and shared by
//! every snapshot that shares the structure's `Arc` — and
//! [`Topology::logical_topology`] walks it in time proportional to the
//! answer, never to the fabric.

use crate::{EdgeId, Link, Node, NodeId, Topology};

/// A sub-topology extracted from a global graph, with both id mappings.
///
/// Local node `i` of [`Extract::sub`] is global node `nodes[i]`; local
/// edge `j` is global edge `edges[j]`. Nodes are extracted in ascending
/// global order and edges in ascending global edge order, so insertion-
/// order tie-breaking inside the sub-topology (BFS, sorted cursors)
/// matches what the same algorithm would do on the global graph
/// restricted to the extract. Link endpoint order is preserved, so
/// [`crate::Direction`] means the same thing through the mapping.
/// Conditions (load averages, link utilizations) are copied as of
/// extraction time.
///
/// Built per request by [`Topology::logical_topology`] (node names are
/// left on the global graph).
#[derive(Debug, Clone)]
pub struct Extract {
    /// The extracted topology with local ids.
    pub sub: Topology,
    /// Global node id of each local node, ascending.
    pub nodes: Vec<NodeId>,
    /// Global edge id of each local edge, ascending.
    pub edges: Vec<EdgeId>,
}

/// Parent pointers and preorder ranks of a forest, each tree rooted at its
/// lowest-numbered node.
#[derive(Debug, Clone)]
pub(crate) struct Forest {
    /// The link and node one step toward the root; `None` at a root.
    parent: Vec<Option<(EdgeId, NodeId)>>,
    /// Position in a depth-first preorder of the forest. A subtree is a
    /// contiguous rank interval starting at its root, which is what lets
    /// [`Topology::logical_topology`] tell a visited ancestor from a new
    /// one by comparing two integers.
    rank: Vec<u32>,
}

impl Forest {
    /// Indexes `topo`, or `None` when it has a cycle (parallel links
    /// between one pair of nodes count as a cycle).
    pub(crate) fn build(topo: &Topology) -> Option<Forest> {
        let n = topo.node_count();
        let mut parent: Vec<Option<(EdgeId, NodeId)>> = vec![None; n];
        let mut rank = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for root in topo.node_ids() {
            if rank[root.index()] != u32::MAX {
                continue;
            }
            stack.push(root);
            while let Some(v) = stack.pop() {
                rank[v.index()] = next;
                next += 1;
                let up = parent[v.index()].map(|(e, _)| e);
                for &(e, w) in topo.neighbors(v) {
                    if Some(e) == up {
                        continue;
                    }
                    // Reached before (ranked, or waiting on the stack
                    // with its parent set): a second way to `w`.
                    if rank[w.index()] != u32::MAX || parent[w.index()].is_some() {
                        return None;
                    }
                    parent[w.index()] = Some((e, v));
                    stack.push(w);
                }
            }
        }
        Some(Forest { parent, rank })
    }
}

/// A node of the union of root paths, in discovery order.
struct Found {
    node: NodeId,
    /// The parent link and the parent's position in the discovery list;
    /// `None` at the top of a tree.
    up: Option<(EdgeId, u32)>,
    /// True for a node of interest, false for a connector.
    wanted: bool,
    children: u32,
    /// Position of the child discovered last (the only one when
    /// `children == 1`).
    child: u32,
}

impl Topology {
    /// The logical topology for the nodes `of_interest`: the smallest part
    /// of this structure that still connects every pair of them that the
    /// structure connects — their tree paths, and nothing hanging off
    /// those. `None` when the structure has a cycle (a cyclic graph has no
    /// unique paths to take the union of).
    ///
    /// Local ids ascend with global ids, for nodes and for links, and link
    /// endpoint order is kept, so every id tie-break and every
    /// [`crate::Direction`] means the same on both sides of the maps (see
    /// [`Extract`]). Annotations are copied as they stand; node names are
    /// not (the extract answers no [`Topology::node_by_name`]).
    ///
    /// `of_interest` may come in any order; ids must be in range. Costs
    /// O(k log k) for an answer of k nodes, after the structure's forest
    /// index exists (O(n + E) once per structure).
    pub fn logical_topology(&self, of_interest: &[NodeId]) -> Option<Extract> {
        let forest = self.forest()?;
        let rank = |n: NodeId| forest.rank[n.index()];
        let mut wanted = of_interest.to_vec();
        wanted.sort_unstable_by_key(|&n| rank(n));
        wanted.dedup();

        // Union of the root paths, one wanted node at a time in preorder.
        // `path` holds the discovery positions of the previous wanted
        // node's root path, top down. An ancestor of the current node was
        // discovered before iff its subtree holds the previous wanted node
        // — iff it ranks at or below it — and is then on `path`.
        let mut found: Vec<Found> = Vec::with_capacity(2 * wanted.len());
        let mut path: Vec<u32> = Vec::new();
        let mut climb: Vec<NodeId> = Vec::new();
        let mut previous: Option<u32> = None;
        for &u in &wanted {
            climb.clear();
            let mut x = u;
            let mut above = loop {
                if previous.is_some_and(|p| rank(x) <= p) {
                    while path.last().is_some_and(|&s| found[s as usize].node != x) {
                        path.pop();
                    }
                    break path.last().copied();
                }
                climb.push(x);
                match forest.parent[x.index()] {
                    Some((_, p)) => x = p,
                    None => {
                        path.clear();
                        break None;
                    }
                }
            };
            for &y in climb.iter().rev() {
                let slot = found.len() as u32;
                let up = above.map(|s| {
                    let (e, _) = forest.parent[y.index()].expect("below a discovered ancestor");
                    let parent = &mut found[s as usize];
                    parent.children += 1;
                    parent.child = slot;
                    (e, s)
                });
                found.push(Found {
                    node: y,
                    up,
                    wanted: y == u,
                    children: 0,
                    child: 0,
                });
                path.push(slot);
                above = Some(slot);
            }
            previous = Some(rank(u));
        }

        // Every leaf is wanted and every inner connector has a link up and
        // a link down, so the only connectors of degree <= 1 sit in a
        // chain at the top of a tree: peel each chain.
        let mut kept = vec![true; found.len()];
        for top in 0..found.len() {
            if found[top].up.is_some() {
                continue;
            }
            let mut s = top;
            while !found[s].wanted && found[s].children == 1 {
                kept[s] = false;
                s = found[s].child as usize;
                found[s].up = None;
            }
        }

        // Local ids in ascending global order.
        let mut slots: Vec<u32> = (0..found.len() as u32)
            .filter(|&s| kept[s as usize])
            .collect();
        slots.sort_unstable_by_key(|&s| found[s as usize].node);
        let mut local = vec![0u32; found.len()];
        for (l, &s) in slots.iter().enumerate() {
            local[s as usize] = l as u32;
        }
        let mut ups: Vec<(EdgeId, u32, u32)> = slots
            .iter()
            .filter_map(|&s| found[s as usize].up.map(|(e, p)| (e, s, p)))
            .collect();
        ups.sort_unstable_by_key(|&(e, _, _)| e);

        let nodes: Vec<NodeId> = slots.iter().map(|&s| found[s as usize].node).collect();
        // Names stay on the global nodes: copying them would be the one
        // allocation per node this build does not need.
        let sub_nodes = nodes
            .iter()
            .map(|&n| {
                let node = self.node(n);
                Node {
                    name: String::new(),
                    kind: node.kind,
                    speed: node.speed,
                    load_avg: node.load_avg,
                }
            })
            .collect();
        let sub_links = ups
            .iter()
            .map(|&(e, s, p)| {
                let link = self.link(e);
                let (child, parent) = (NodeId(local[s as usize]), NodeId(local[p as usize]));
                let (a, b) = if link.a() == found[s as usize].node {
                    (child, parent)
                } else {
                    (parent, child)
                };
                Link {
                    a,
                    b,
                    ..link.clone()
                }
            })
            .collect();
        Some(Extract {
            sub: Topology::from_parts(sub_nodes, sub_links),
            nodes,
            edges: ups.into_iter().map(|(e, _, _)| e).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{federation, hierarchical, random_tree, ring, star};
    use crate::units::MBPS;
    use crate::{Direction, GraphView, Routes};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `tree` under a random renumbering of its nodes, its links re-added
    /// in random order and orientation: ids then say nothing about the
    /// shape (`random_tree` numbers every node above its parent).
    fn relabelled(tree: &Topology, rng: &mut StdRng) -> (Topology, Vec<NodeId>) {
        let n = tree.node_count();
        let mut old_of: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            old_of.swap(i, rng.random_range(0..=i));
        }
        let mut new_of = vec![0u32; n];
        let mut topo = Topology::new();
        let mut computes = Vec::new();
        for (new, &old) in old_of.iter().enumerate() {
            new_of[old] = new as u32;
            if tree.node(NodeId(old as u32)).is_compute() {
                computes.push(topo.add_compute_node(format!("m{new}"), 1.0));
            } else {
                topo.add_network_node(format!("s{new}"));
            }
        }
        let mut links: Vec<EdgeId> = tree.edge_ids().collect();
        for i in (1..links.len()).rev() {
            links.swap(i, rng.random_range(0..=i));
        }
        for e in links {
            let (mut a, mut b) = (tree.link(e).a(), tree.link(e).b());
            if rng.random_range(0..2) == 0 {
                std::mem::swap(&mut a, &mut b);
            }
            topo.add_link(
                NodeId(new_of[a.index()]),
                NodeId(new_of[b.index()]),
                100.0 * MBPS,
            );
        }
        (topo, computes)
    }

    /// Parent pointers must lead to a root without revisiting a node, and
    /// every subtree must be one rank interval.
    fn assert_well_formed(topo: &Topology) {
        let forest = topo.forest().expect("acyclic");
        let n = topo.node_count();
        let mut ranks: Vec<u32> = forest.rank.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..n as u32).collect::<Vec<_>>());
        for v in topo.node_ids() {
            if let Some((e, p)) = forest.parent[v.index()] {
                assert_eq!(topo.link(e).opposite(v), p);
                assert!(forest.rank[p.index()] < forest.rank[v.index()]);
            }
        }
        // Subtree sizes by pushing each node's count up its root path.
        let mut size = vec![0u32; n];
        for v in topo.node_ids() {
            let mut x = Some(v);
            while let Some(y) = x {
                size[y.index()] += 1;
                x = forest.parent[y.index()].map(|(_, p)| p);
            }
        }
        for v in topo.node_ids() {
            let mut x = v;
            while let Some((_, p)) = forest.parent[x.index()] {
                x = p;
                let (lo, hi) = (
                    forest.rank[x.index()],
                    forest.rank[x.index()] + size[x.index()],
                );
                assert!((lo..hi).contains(&forest.rank[v.index()]));
            }
        }
    }

    #[test]
    fn cyclic_structures_have_no_index() {
        let (t, _) = ring(5, MBPS);
        assert!(t.forest().is_none());
        assert!(!t.is_acyclic());
        assert!(t.logical_topology(&[NodeId(0), NodeId(2)]).is_none());
    }

    #[test]
    fn parallel_links_count_as_a_cycle() {
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let b = t.add_compute_node("b", 1.0);
        t.add_link(a, b, MBPS);
        assert!(t.is_acyclic());
        t.add_link(a, b, MBPS);
        assert!(!t.is_acyclic());
    }

    #[test]
    fn a_forest_of_several_trees_is_indexed_tree_by_tree() {
        let (t, subnets) = federation(3, None);
        assert!(!t.is_connected());
        assert_well_formed(&t);
        let forest = t.forest().unwrap();
        let roots = forest.parent.iter().filter(|p| p.is_none()).count();
        assert_eq!(roots, 3);
        // Nodes of interest in two of the trees: two components, no
        // link between them, no root chain left above either.
        let wanted = [subnets[0][0], subnets[0][1], subnets[2][3]];
        let ext = t.logical_topology(&wanted).unwrap();
        assert_eq!(GraphView::new(&ext.sub).components().len(), 2);
        assert!(ext.nodes.contains(&subnets[2][3]));
        assert_eq!(ext.sub.degree(NodeId(ext.nodes.len() as u32 - 1)), 0);
    }

    #[test]
    fn the_index_follows_structural_edits() {
        let (mut t, ids) = star(3, MBPS);
        assert!(t.is_acyclic());
        // A chord: the second use must see the cycle.
        t.add_link(ids[0], ids[1], MBPS);
        assert!(!t.is_acyclic());
        // A new node alone keeps a forest a forest, and is indexed.
        let (mut t, _) = star(3, MBPS);
        assert!(t.is_acyclic());
        let extra = t.add_compute_node("extra", 1.0);
        assert_well_formed(&t);
        assert!(t.forest().unwrap().parent[extra.index()].is_none());
    }

    #[test]
    fn clones_carry_a_consistent_index() {
        let (t, ids) = star(4, MBPS);
        assert!(t.is_acyclic());
        let mut copy = t.clone();
        assert_well_formed(&copy);
        // Editing the clone drops the clone's index only.
        copy.add_link(ids[0], ids[1], MBPS);
        assert!(!copy.is_acyclic());
        assert!(t.is_acyclic());
        // A default-constructed slot (what serde's `skip` leaves behind)
        // fills on first use.
        assert!(Topology::new().is_acyclic());
    }

    #[test]
    fn logical_topology_is_the_union_of_tree_paths() {
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..200 {
            let (tree, _) = random_tree(&mut rng, 8, 6, 100.0 * MBPS);
            let (mut t, computes) = relabelled(&tree, &mut rng);
            crate::builders::randomize_conditions(&mut t, &mut rng, 3.0, 0.9);
            assert_well_formed(&t);
            let wanted: Vec<NodeId> = computes
                .iter()
                .copied()
                .skip(round % 3)
                .step_by(1 + round % 2)
                .collect();
            let ext = t.logical_topology(&wanted).unwrap();
            // Naive statement: every hop of every pairwise route.
            let routes = Routes::for_sources(&t, wanted.iter().copied());
            let mut nodes = wanted.clone();
            let mut edges = Vec::new();
            for &a in &wanted {
                for &b in &wanted {
                    let p = routes.path(a, b).unwrap();
                    nodes.extend(p.nodes(&t));
                    edges.extend(p.hops.iter().map(|&(e, _)| e));
                }
            }
            nodes.sort_unstable();
            nodes.dedup();
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(ext.nodes, nodes);
            assert_eq!(ext.edges, edges);
            // Structure, orientation and annotations survive the maps.
            for (l, &g) in ext.nodes.iter().enumerate() {
                let (sub, full) = (ext.sub.node(NodeId(l as u32)), t.node(g));
                assert_eq!(sub.kind(), full.kind());
                assert_eq!(sub.speed(), full.speed());
                assert_eq!(sub.load_avg(), full.load_avg());
            }
            for (l, &g) in ext.edges.iter().enumerate() {
                let (sub, full) = (ext.sub.link(EdgeId(l as u32)), t.link(g));
                assert_eq!(ext.nodes[sub.a().index()], full.a());
                assert_eq!(ext.nodes[sub.b().index()], full.b());
                for dir in [Direction::AtoB, Direction::BtoA] {
                    assert_eq!(sub.capacity(dir), full.capacity(dir));
                    assert_eq!(sub.used(dir), full.used(dir));
                }
                assert_eq!(sub.latency(), full.latency());
            }
            assert!(ext.sub.is_acyclic());
        }
    }

    #[test]
    fn the_view_is_sized_by_the_nodes_of_interest() {
        let (t, hosts) = hierarchical(200, 9, 100.0 * MBPS, 40.0 * MBPS, 2e-3);
        let wanted: Vec<NodeId> = hosts.iter().step_by(40).map(|d| d[3]).collect();
        let ext = t.logical_topology(&wanted).unwrap();
        // Five hosts, their hubs, and trunk hubs between: a binary tree
        // of 200 hubs is 8 deep.
        assert!(
            ext.nodes.len() <= wanted.len() * 2 * 8,
            "{}",
            ext.nodes.len()
        );
        assert_eq!(ext.edges.len(), ext.nodes.len() - 1);
        // One node of interest is its own logical topology.
        let solo = t.logical_topology(&wanted[..1]).unwrap();
        assert_eq!(solo.nodes, wanted[..1]);
        assert!(solo.edges.is_empty());
        // None at all is empty.
        assert!(t.logical_topology(&[]).unwrap().nodes.is_empty());
    }
}
