//! The application specification interface (§2.1).
//!
//! "A uniform external interface for specification of application behavior
//! is an important component of the node selection framework as it allows
//! unmodified applications to use automatic node selection." The interface
//! carries: the number of nodes, "the nature of main computation and
//! communication patterns (e.g. all-to-all or master-slave)", the
//! "relative priority of communication and computation", node groups
//! (client/server) and per-group requirements.
//!
//! [`AppSpec`] is that interface. [`select_for_spec`] compiles the
//! specification to the right engine call — the balanced algorithm, a
//! grouped request, or pure compute selection — and orders the returned
//! nodes so they can be passed directly to a launcher that assigns roles
//! positionally (master first for master–slave, stage order for
//! pipelines).

use crate::groups::{select_groups, GroupSpec, GroupedRequest, GroupedSelection};
use crate::latency::select_within_latency;
use crate::request::{Constraints, GreedyPolicy};
use crate::weights::Weights;
use crate::{balanced, max_compute, SelectError, Selection};
use nodesel_topology::{NodeId, Topology};
use std::collections::HashSet;

/// The application's dominant communication pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum CommPattern {
    /// No significant communication (embarrassingly parallel).
    Independent,
    /// Every pair exchanges data (e.g. transposes): all paths matter
    /// equally.
    AllToAll,
    /// One coordinator communicates with every worker; workers do not
    /// talk to each other. The first returned node is the master.
    MasterSlave,
    /// Data streams through a chain of stages; only adjacent stages
    /// communicate. Returned nodes are ordered along a high-bandwidth
    /// chain.
    Pipeline,
    /// Distinct server and client groups with their own placement rules.
    ClientServer {
        /// Number of server nodes.
        servers: usize,
        /// Pool the servers must come from (e.g. machines with the right
        /// binaries), or `None` for any compute node.
        server_pool: Option<HashSet<NodeId>>,
    },
}

/// A declarative application requirement set (§2.1).
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name (reports only).
    pub name: String,
    /// Number of nodes required.
    pub nodes: usize,
    /// Dominant communication pattern.
    pub pattern: CommPattern,
    /// Fraction of execution time spent communicating, in `[0, 1]`:
    /// `0.0` = pure computation, `0.5` = balanced, `1.0` = pure
    /// communication. Maps to the §3.3 priority factor.
    pub comm_fraction: f64,
    /// Placement constraints (allowed pool, pinned nodes, floors).
    pub placement: Constraints,
    /// Optional pairwise latency bound, seconds.
    pub max_latency: Option<f64>,
}

impl AppSpec {
    /// A balanced spec with no constraints.
    pub fn new(name: impl Into<String>, nodes: usize, pattern: CommPattern) -> Self {
        AppSpec {
            name: name.into(),
            nodes,
            pattern,
            comm_fraction: 0.5,
            placement: Constraints::none(),
            max_latency: None,
        }
    }

    /// Priority weights implied by [`AppSpec::comm_fraction`]: a program
    /// spending fraction `c` of its time communicating weights
    /// communication by `c / (1 - c)` relative to computation (clamped to
    /// a sane range so extreme specs stay numerically stable).
    ///
    /// # Panics
    ///
    /// When `comm_fraction` is NaN or outside `[0, 1]`. [`select_for_spec`]
    /// returns [`SelectError::InvalidWeights`] for such a spec instead.
    pub fn weights(&self) -> Weights {
        self.checked_weights()
            .expect("comm_fraction must be in [0, 1]")
    }

    /// [`AppSpec::weights`], or `None` where it would panic.
    fn checked_weights(&self) -> Option<Weights> {
        if !(0.0..=1.0).contains(&self.comm_fraction) {
            return None;
        }
        let c = self.comm_fraction.clamp(0.01, 0.99);
        let ratio = c / (1.0 - c);
        Some(if ratio >= 1.0 {
            Weights::comm_priority(ratio)
        } else {
            Weights::compute_priority(1.0 / ratio)
        })
    }
}

/// A selection resolved from an [`AppSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpecSelection {
    /// Nodes ordered for positional role assignment (master first for
    /// master–slave; chain order for pipelines; servers first for
    /// client–server).
    pub ordered_nodes: Vec<NodeId>,
    /// The underlying flat selection (quality is over the whole set).
    pub selection: Selection,
    /// Group assignments for client–server specs.
    pub groups: Option<GroupedSelection>,
}

/// Orders nodes for a master–slave program: the node with the best
/// aggregate bandwidth to the others first, breaking ties by centrality
/// (fewest total hops to the others), then CPU, then id. The master
/// terminates every transfer, so its connectivity dominates.
fn order_master_first(topo: &Topology, nodes: &[NodeId]) -> Vec<NodeId> {
    let routes = topo.routes();
    let mut scored: Vec<(f64, usize, f64, NodeId)> = nodes
        .iter()
        .map(|&candidate| {
            let mut agg_bw = 0.0;
            let mut hops = 0usize;
            for &other in nodes {
                if other == candidate {
                    continue;
                }
                agg_bw += routes.bottleneck_bw(candidate, other).unwrap_or(0.0);
                hops += routes
                    .path(candidate, other)
                    .map(|p| p.len())
                    .unwrap_or(usize::MAX / 2);
            }
            (
                agg_bw,
                hops,
                topo.node(candidate).effective_cpu(),
                candidate,
            )
        })
        .collect();
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then(a.1.cmp(&b.1))
            .then(b.2.total_cmp(&a.2))
            .then(a.3.cmp(&b.3))
    });
    scored.into_iter().map(|(_, _, _, n)| n).collect()
}

/// Orders nodes along a high-bandwidth chain for a pipeline: greedy
/// nearest-neighbour by pairwise bottleneck bandwidth, starting from the
/// best-CPU node.
fn order_chain(topo: &Topology, nodes: &[NodeId]) -> Vec<NodeId> {
    if nodes.len() <= 2 {
        return nodes.to_vec();
    }
    let routes = topo.routes();
    let mut remaining: Vec<NodeId> = nodes.to_vec();
    remaining.sort_by(|&a, &b| {
        topo.node(b)
            .effective_cpu()
            .total_cmp(&topo.node(a).effective_cpu())
            .then(a.cmp(&b))
    });
    let mut chain = vec![remaining.remove(0)];
    while !remaining.is_empty() {
        let last = *chain.last().expect("nonempty");
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &n)| (i, routes.bottleneck_bw(last, n).unwrap_or(0.0)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("nonempty");
        chain.push(remaining.remove(idx));
    }
    chain
}

/// Resolves a specification against a measured topology snapshot.
pub fn select_for_spec(topo: &Topology, spec: &AppSpec) -> Result<SpecSelection, SelectError> {
    let weights = spec.checked_weights().ok_or(SelectError::InvalidWeights)?;
    let policy = GreedyPolicy::Sweep;

    // Client–server compiles to a grouped request.
    if let CommPattern::ClientServer {
        servers,
        server_pool,
    } = &spec.pattern
    {
        if *servers == 0 || *servers >= spec.nodes {
            return Err(SelectError::ZeroCount);
        }
        let request = GroupedRequest {
            groups: vec![
                GroupSpec {
                    name: "servers".into(),
                    count: *servers,
                    constraints: Constraints {
                        allowed: server_pool.clone(),
                        required: spec.placement.required.clone(),
                        min_cpu: spec.placement.min_cpu,
                        min_bandwidth: None,
                        ..Constraints::none()
                    },
                },
                GroupSpec {
                    name: "clients".into(),
                    count: spec.nodes - servers,
                    constraints: Constraints {
                        allowed: spec.placement.allowed.clone(),
                        required: Vec::new(),
                        min_cpu: spec.placement.min_cpu,
                        min_bandwidth: None,
                        ..Constraints::none()
                    },
                },
            ],
            min_bandwidth: spec.placement.min_bandwidth,
            weights,
            reference_bandwidth: None,
            policy,
        };
        let grouped = select_groups(topo, &request)?;
        let mut ordered = grouped.group("servers").expect("servers").to_vec();
        ordered.extend_from_slice(grouped.group("clients").expect("clients"));
        return Ok(SpecSelection {
            ordered_nodes: ordered,
            selection: grouped.combined.clone(),
            groups: Some(grouped),
        });
    }

    // Flat patterns.
    let selection = if let Some(bound) = spec.max_latency {
        select_within_latency(topo, spec.nodes, bound, weights, &spec.placement, policy)?
    } else {
        match spec.pattern {
            CommPattern::Independent => max_compute(topo, spec.nodes, &spec.placement)?,
            _ => balanced(topo, spec.nodes, weights, &spec.placement, None, policy)?,
        }
    };
    let ordered_nodes = match spec.pattern {
        CommPattern::MasterSlave => order_master_first(topo, &selection.nodes),
        CommPattern::Pipeline => order_chain(topo, &selection.nodes),
        _ => selection.nodes.clone(),
    };
    Ok(SpecSelection {
        ordered_nodes,
        selection,
        groups: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::{chain, dumbbell, star};
    use nodesel_topology::units::MBPS;
    use nodesel_topology::Direction;

    #[test]
    fn weights_follow_comm_fraction() {
        let mut spec = AppSpec::new("x", 4, CommPattern::AllToAll);
        spec.comm_fraction = 0.5;
        let w = spec.weights();
        assert!((w.comm - w.compute).abs() < 1e-9);
        spec.comm_fraction = 0.8; // comm 4x more important
        let w = spec.weights();
        assert!((w.comm / w.compute - 4.0).abs() < 1e-9);
        spec.comm_fraction = 0.2;
        let w = spec.weights();
        assert!((w.compute / w.comm - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "comm_fraction")]
    fn invalid_comm_fraction_panics() {
        let mut spec = AppSpec::new("x", 2, CommPattern::AllToAll);
        spec.comm_fraction = 1.5;
        let _ = spec.weights();
    }

    #[test]
    fn a_comm_fraction_outside_the_unit_interval_is_invalid_weights_not_a_panic() {
        let (topo, _) = star(4, 100.0 * MBPS);
        for pattern in [
            CommPattern::AllToAll,
            CommPattern::Independent,
            CommPattern::ClientServer {
                servers: 1,
                server_pool: None,
            },
        ] {
            for bad in [f64::NAN, -0.1, 1.5] {
                let mut spec = AppSpec::new("x", 2, pattern.clone());
                spec.comm_fraction = bad;
                assert_eq!(
                    select_for_spec(&topo, &spec),
                    Err(SelectError::InvalidWeights),
                    "comm_fraction {bad}"
                );
            }
        }
    }

    #[test]
    fn independent_ignores_congestion() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        // Congest everything; load n3 only.
        for e in topo.edge_ids().collect::<Vec<_>>() {
            topo.set_link_used(e, Direction::AtoB, 99.0 * MBPS);
            topo.set_link_used(e, Direction::BtoA, 99.0 * MBPS);
        }
        topo.set_load_avg(ids[3], 5.0);
        let spec = AppSpec::new("mc", 3, CommPattern::Independent);
        let sel = select_for_spec(&topo, &spec).unwrap();
        assert_eq!(sel.ordered_nodes, vec![ids[0], ids[1], ids[2]]);
    }

    #[test]
    fn master_slave_puts_best_connected_node_first() {
        // Chain: the middle node has the best aggregate bandwidth.
        let (topo, ids) = chain(3, 100.0 * MBPS);
        let spec = AppSpec::new("ms", 3, CommPattern::MasterSlave);
        let sel = select_for_spec(&topo, &spec).unwrap();
        assert_eq!(sel.ordered_nodes[0], ids[1]);
        assert_eq!(sel.ordered_nodes.len(), 3);
    }

    #[test]
    fn pipeline_orders_a_sensible_chain() {
        let (topo, ids) = chain(4, 100.0 * MBPS);
        let spec = AppSpec::new("pipe", 4, CommPattern::Pipeline);
        let sel = select_for_spec(&topo, &spec).unwrap();
        // Adjacent chain positions should be adjacent in the ordering:
        // successive bottlenecks are all 100 Mbps only if the order walks
        // the chain without jumps.
        let routes = topo.routes();
        for w in sel.ordered_nodes.windows(2) {
            assert_eq!(routes.bottleneck_bw(w[0], w[1]).unwrap(), 100.0 * MBPS);
        }
        assert_eq!(sel.ordered_nodes.len(), ids.len());
    }

    #[test]
    fn client_server_resolves_groups() {
        let (mut topo, ids) = star(6, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 4.0);
        let pool: HashSet<NodeId> = [ids[0], ids[1]].into_iter().collect();
        let spec = AppSpec {
            name: "cs".into(),
            nodes: 4,
            pattern: CommPattern::ClientServer {
                servers: 1,
                server_pool: Some(pool),
            },
            comm_fraction: 0.5,
            placement: Constraints::none(),
            max_latency: None,
        };
        let sel = select_for_spec(&topo, &spec).unwrap();
        let groups = sel.groups.as_ref().unwrap();
        // The idle pool member serves.
        assert_eq!(groups.group("servers").unwrap(), &[ids[1]]);
        assert_eq!(sel.ordered_nodes[0], ids[1]);
        assert_eq!(sel.ordered_nodes.len(), 4);
        // Clients avoid the loaded node too (plenty of idle ones).
        assert!(!sel.ordered_nodes.contains(&ids[0]));
    }

    #[test]
    fn client_server_rejects_degenerate_split() {
        let (topo, _) = star(4, 100.0 * MBPS);
        for servers in [0, 4] {
            let spec = AppSpec {
                name: "cs".into(),
                nodes: 4,
                pattern: CommPattern::ClientServer {
                    servers,
                    server_pool: None,
                },
                comm_fraction: 0.5,
                placement: Constraints::none(),
                max_latency: None,
            };
            assert!(select_for_spec(&topo, &spec).is_err());
        }
    }

    #[test]
    fn latency_bound_flows_through() {
        let mut topo = Topology::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| topo.add_compute_node(format!("n{i}"), 1.0))
            .collect();
        for w in ids.windows(2) {
            topo.add_link_full(w[0], w[1], 100.0 * MBPS, 100.0 * MBPS, 1e-3);
        }
        let mut spec = AppSpec::new("lat", 2, CommPattern::AllToAll);
        spec.max_latency = Some(1e-3);
        let sel = select_for_spec(&topo, &spec).unwrap();
        let routes = topo.routes();
        assert!(crate::pairwise_latency(&routes, &sel.selection.nodes) <= 1e-3 + 1e-12);
    }

    #[test]
    fn a_latency_bound_nothing_meets_is_unsatisfiable_not_a_panic() {
        let (topo, _) = chain(4, 100.0 * MBPS);
        for bound in [f64::NAN, -1.0] {
            let mut spec = AppSpec::new("lat", 2, CommPattern::AllToAll);
            spec.max_latency = Some(bound);
            assert_eq!(
                select_for_spec(&topo, &spec).unwrap_err(),
                SelectError::Unsatisfiable,
                "bound {bound}"
            );
        }
        // No bound at all: the unbounded answer.
        let mut spec = AppSpec::new("lat", 2, CommPattern::AllToAll);
        spec.max_latency = Some(f64::INFINITY);
        assert_eq!(
            select_for_spec(&topo, &spec).unwrap().selection.nodes.len(),
            2
        );
    }

    #[test]
    fn all_to_all_prefers_local_cluster() {
        let (mut topo, ids) = dumbbell(3, 100.0 * MBPS, 100.0 * MBPS);
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 90.0 * MBPS);
        topo.set_link_used(trunk, Direction::BtoA, 90.0 * MBPS);
        let mut spec = AppSpec::new("fft", 3, CommPattern::AllToAll);
        spec.comm_fraction = 0.8;
        let sel = select_for_spec(&topo, &spec).unwrap();
        // One side only.
        let left = &ids[..3];
        let right = &ids[3..];
        assert!(
            sel.ordered_nodes.iter().all(|n| left.contains(n))
                || sel.ordered_nodes.iter().all(|n| right.contains(n))
        );
    }
}
