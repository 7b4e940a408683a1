//! Domain partitions.
//!
//! A [`ShardPlan`] assigns every node of a [`Topology`] to a *domain* —
//! the unit [`crate::Hierarchy`] extracts, summarizes and routes across.
//!
//! The natural partition for disconnected federations is by connected
//! component ([`ShardPlan::components`]): the boundary is empty.
//! Arbitrary cuts come from [`ShardPlan::from_assignment`], which
//! extracts the links crossing the cut.

use crate::{EdgeId, NodeId, Topology, UnionFind};

/// A partition of a topology's nodes into domains.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Domain of each node, indexed by [`NodeId::index`].
    node_domain: Vec<u16>,
    /// Number of domains (all values in `node_domain` are below this).
    num_domains: u16,
    /// Links whose endpoints live in different domains.
    boundary: Vec<EdgeId>,
}

impl ShardPlan {
    /// One domain per connected component, numbered in order of each
    /// component's smallest node index (stable across runs). There are no
    /// boundary links.
    pub fn components(topo: &Topology) -> ShardPlan {
        let n = topo.node_count();
        let mut uf = UnionFind::new(n);
        for e in topo.edge_ids() {
            let l = topo.link(e);
            uf.union(l.a().index(), l.b().index());
        }
        // Number components by first appearance, which is by smallest
        // member index because nodes are scanned in id order.
        let mut domain_of_root = vec![u16::MAX; n];
        let mut node_domain = vec![0u16; n];
        let mut next = 0u16;
        for (i, nd) in node_domain.iter_mut().enumerate() {
            let root = uf.find(i);
            if domain_of_root[root] == u16::MAX {
                domain_of_root[root] = next;
                next = next.checked_add(1).expect("more than 65535 domains");
            }
            *nd = domain_of_root[root];
        }
        ShardPlan {
            node_domain,
            num_domains: next.max(1),
            boundary: Vec::new(),
        }
    }

    /// A plan from an explicit node→domain assignment. Boundary links are
    /// derived from the topology. Panics if the assignment length does not match the node
    /// count or a domain id leaves a gap (domains must be `0..k`).
    pub fn from_assignment(topo: &Topology, node_domain: &[u16]) -> ShardPlan {
        assert_eq!(
            node_domain.len(),
            topo.node_count(),
            "assignment length must match node count"
        );
        let num_domains = node_domain.iter().copied().max().unwrap_or(0) + 1;
        let mut seen = vec![false; num_domains as usize];
        for &d in node_domain {
            seen[d as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "domain ids must be contiguous from 0"
        );
        let boundary = topo
            .edge_ids()
            .filter(|&e| {
                let l = topo.link(e);
                node_domain[l.a().index()] != node_domain[l.b().index()]
            })
            .collect();
        ShardPlan {
            node_domain: node_domain.to_vec(),
            num_domains,
            boundary,
        }
    }

    /// Number of domains.
    pub fn num_domains(&self) -> u16 {
        self.num_domains
    }

    /// Domain of `n`.
    pub fn domain_of(&self, n: NodeId) -> u16 {
        self.node_domain[n.index()]
    }

    /// The full node→domain assignment, indexed by [`NodeId::index`].
    pub fn node_domain(&self) -> &[u16] {
        &self.node_domain
    }

    /// Links crossing the partition, in edge-id order.
    pub fn boundary_links(&self) -> &[EdgeId] {
        &self.boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::star;
    use crate::units::MBPS;

    fn two_subnets() -> (Topology, Vec<NodeId>) {
        let mut topo = Topology::new();
        let mut hubs = Vec::new();
        for s in 0..2 {
            let hub = topo.add_network_node(format!("s{s}-hub"));
            for h in 0..3 {
                let n = topo.add_compute_node(format!("s{s}-h{h}"), 1.0);
                topo.add_link(hub, n, 100.0 * MBPS);
            }
            hubs.push(hub);
        }
        (topo, hubs)
    }

    #[test]
    fn components_split_disconnected_subnets() {
        let (topo, _) = two_subnets();
        let plan = ShardPlan::components(&topo);
        assert_eq!(plan.num_domains(), 2);
        assert!(plan.boundary_links().is_empty());
        // Numbering follows smallest member index: nodes 0..4 are subnet
        // 0, nodes 4..8 subnet 1.
        assert_eq!(plan.domain_of(NodeId::from_index(0)), 0);
        assert_eq!(plan.domain_of(NodeId::from_index(3)), 0);
        assert_eq!(plan.domain_of(NodeId::from_index(4)), 1);
        assert_eq!(plan.domain_of(NodeId::from_index(7)), 1);
    }

    #[test]
    fn connected_topology_is_one_component() {
        let (topo, _) = star(5, 100.0 * MBPS);
        let plan = ShardPlan::components(&topo);
        assert_eq!(plan.num_domains(), 1);
        assert!(plan.node_domain().iter().all(|&d| d == 0));
    }

    #[test]
    fn from_assignment_extracts_boundary() {
        let (mut topo, hubs) = two_subnets();
        let trunk = topo.add_link_full(hubs[0], hubs[1], 50.0 * MBPS, 50.0 * MBPS, 2e-3);
        let plan = ShardPlan::components(&topo);
        assert_eq!(plan.num_domains(), 1, "trunk joins the components");
        let cut: Vec<u16> = (0..topo.node_count())
            .map(|i| if i < 4 { 0 } else { 1 })
            .collect();
        let plan = ShardPlan::from_assignment(&topo, &cut);
        assert_eq!(plan.num_domains(), 2);
        assert_eq!(plan.boundary_links(), &[trunk]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gapped_domain_ids_rejected() {
        let (topo, _) = star(3, 100.0 * MBPS);
        let cut = vec![0, 2, 2, 2]; // domain 1 missing
        ShardPlan::from_assignment(&topo, &cut);
    }
}
