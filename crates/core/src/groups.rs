//! Grouped selection for custom execution patterns (§2.1 / §3.4).
//!
//! The application interface lets a program declare "different node groups
//! within an application (e.g. client and server groups)" with "specific
//! requirements of different groups (e.g. a server may be compiled only
//! for Alpha architecture or must run on some specific machines)". The
//! paper lists richer per-pattern optimization as ongoing work (§3.4,
//! "Custom execution patterns"); this module implements the natural
//! generalization of the Figure 3 sweep to groups:
//!
//! at every edge-deletion round, try to place *all* groups inside each
//! surviving component (group by group, in declaration order, each
//! honouring its own allowed/required/CPU constraints, nodes disjoint),
//! score the combined placement by `min(min cpu, min edge fraction)`, and
//! keep the best placement seen across the sweep. All groups land in one
//! component, so every intra- and inter-group path avoids the deleted
//! (congested) edges.

use crate::quality::evaluate;
use crate::request::{Constraints, GreedyPolicy};
use crate::weights::Weights;
use crate::{SelectError, Selection};
use nodesel_topology::{Component, GraphView, NodeId, Topology};

/// One group of an application (e.g. "servers", "clients").
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Group name, echoed in the result.
    pub name: String,
    /// Nodes this group needs.
    pub count: usize,
    /// Group-specific constraints. `min_bandwidth` inside a group spec is
    /// rejected — use [`GroupedRequest::min_bandwidth`], which applies to
    /// every path of the combined placement.
    pub constraints: Constraints,
}

impl GroupSpec {
    /// Convenience constructor for an unconstrained group.
    pub fn new(name: impl Into<String>, count: usize) -> Self {
        GroupSpec {
            name: name.into(),
            count,
            constraints: Constraints::none(),
        }
    }
}

/// A multi-group selection request.
#[derive(Debug, Clone)]
pub struct GroupedRequest {
    /// The groups, most-constrained / most-important first: earlier groups
    /// get first pick of the high-CPU nodes in each candidate component.
    pub groups: Vec<GroupSpec>,
    /// Minimum available bandwidth between *any* pair of selected nodes
    /// (within or across groups).
    pub min_bandwidth: Option<f64>,
    /// Priority weights for the balanced score.
    pub weights: Weights,
    /// Reference bandwidth for heterogeneous networks (§3.3).
    pub reference_bandwidth: Option<f64>,
    /// Greedy termination policy.
    pub policy: GreedyPolicy,
}

impl GroupedRequest {
    /// A request with default policy, equal weights and no bandwidth floor.
    pub fn new(groups: Vec<GroupSpec>) -> Self {
        GroupedRequest {
            groups,
            min_bandwidth: None,
            weights: Weights::EQUAL,
            reference_bandwidth: None,
            policy: GreedyPolicy::Sweep,
        }
    }

    fn total_count(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }
}

/// Result of a grouped selection.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedSelection {
    /// Per-group node assignments, in request order.
    pub groups: Vec<(String, Vec<NodeId>)>,
    /// The flattened selection with its exact quality.
    pub combined: Selection,
}

impl GroupedSelection {
    /// The nodes assigned to the named group, if present.
    pub fn group(&self, name: &str) -> Option<&[NodeId]> {
        self.groups
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nodes)| nodes.as_slice())
    }
}

fn eligible_in(topo: &Topology, spec: &GroupSpec, n: NodeId) -> bool {
    topo.node(n).is_compute()
        && spec
            .constraints
            .allowed
            .as_ref()
            .is_none_or(|set| set.contains(&n))
        && spec
            .constraints
            .min_cpu
            .is_none_or(|c| topo.node(n).effective_cpu() >= c)
}

/// Tries to place every group inside one component. Returns the per-group
/// assignments and the minimum effective CPU over all chosen nodes.
fn place_groups(
    topo: &Topology,
    comp: &Component,
    groups: &[GroupSpec],
) -> Option<(Vec<Vec<NodeId>>, f64)> {
    let mut taken: Vec<NodeId> = Vec::new();
    let mut result = Vec::with_capacity(groups.len());
    let mut min_cpu = f64::INFINITY;
    for spec in groups {
        // Required nodes must be in this component, eligible, and untaken.
        for &r in &spec.constraints.required {
            if comp.nodes.binary_search(&r).is_err()
                || !eligible_in(topo, spec, r)
                || taken.contains(&r)
            {
                return None;
            }
        }
        let mut candidates: Vec<NodeId> = comp
            .compute_nodes
            .iter()
            .copied()
            .filter(|&n| eligible_in(topo, spec, n) && !taken.contains(&n))
            .collect();
        if candidates.len() < spec.count {
            return None;
        }
        candidates.sort_by(|&a, &b| {
            topo.node(b)
                .effective_cpu()
                .total_cmp(&topo.node(a).effective_cpu())
                .then(a.cmp(&b))
        });
        let mut chosen: Vec<NodeId> = spec.constraints.required.clone();
        chosen.sort_unstable();
        chosen.dedup();
        for &n in &candidates {
            if chosen.len() == spec.count {
                break;
            }
            if !chosen.contains(&n) {
                chosen.push(n);
            }
        }
        if chosen.len() != spec.count {
            return None;
        }
        for &n in &chosen {
            min_cpu = min_cpu.min(topo.node(n).effective_cpu());
            taken.push(n);
        }
        chosen.sort_unstable();
        result.push(chosen);
    }
    Some((result, min_cpu))
}

/// Selects nodes for every group simultaneously (see module docs).
///
/// ```
/// use nodesel_core::{select_groups, GroupSpec, GroupedRequest};
/// use nodesel_topology::builders::star;
/// use nodesel_topology::units::MBPS;
///
/// let (topo, _) = star(6, 100.0 * MBPS);
/// let request = GroupedRequest::new(vec![
///     GroupSpec::new("servers", 2),
///     GroupSpec::new("clients", 3),
/// ]);
/// let sel = select_groups(&topo, &request).unwrap();
/// assert_eq!(sel.group("servers").unwrap().len(), 2);
/// assert_eq!(sel.combined.nodes.len(), 5);
/// ```
///
/// A [`GroupSpec`] whose own constraints set `min_bandwidth` is
/// [`SelectError::PerGroupBandwidthFloor`]: a bandwidth floor holds
/// across the whole combined set, so it belongs in
/// [`GroupedRequest::min_bandwidth`].
pub fn select_groups(
    topo: &Topology,
    request: &GroupedRequest,
) -> Result<GroupedSelection, SelectError> {
    if !request.weights.validate() {
        return Err(SelectError::InvalidWeights);
    }
    if request.groups.is_empty() || request.total_count() == 0 {
        return Err(SelectError::ZeroCount);
    }
    for spec in &request.groups {
        if spec.count == 0 {
            return Err(SelectError::ZeroCount);
        }
        if spec.constraints.min_bandwidth.is_some() {
            return Err(SelectError::PerGroupBandwidthFloor);
        }
        if spec.constraints.required.len() > spec.count {
            return Err(SelectError::TooManyRequired {
                required: spec.constraints.required.len(),
                count: spec.count,
            });
        }
    }
    let total = request.total_count();
    if topo.compute_node_count() < total {
        return Err(SelectError::NotEnoughNodes {
            eligible: topo.compute_node_count(),
            requested: total,
        });
    }

    let edge_fraction = |e: nodesel_topology::EdgeId| -> f64 {
        let link = topo.link(e);
        match request.reference_bandwidth {
            Some(r) => link.bw() / r,
            None => link.bwfactor(),
        }
    };

    let mut view = GraphView::new(topo);
    if let Some(floor) = request.min_bandwidth {
        let below: Vec<_> = view
            .live_edges()
            .filter(|&e| topo.link(e).bw() < floor)
            .collect();
        for e in below {
            view.remove_edge(e);
        }
    }

    // Edge fractions are static per link, so the per-round "find the
    // minimum live edge" scan collapses into one sort plus a cursor —
    // the deletion sequence is identical to repeated `min_live_edge_by`
    // calls (same `(fraction, id)` tie-breaking), one O(E) scan cheaper
    // per round.
    let mut order: Vec<_> = view.live_edges().collect();
    order.sort_unstable_by(|&x, &y| {
        edge_fraction(x)
            .total_cmp(&edge_fraction(y))
            .then(x.cmp(&y))
    });
    let mut cursor = 0usize;

    let mut best: Option<(f64, Vec<Vec<NodeId>>)> = None;
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut round_best: Option<(f64, Vec<Vec<NodeId>>)> = None;
        let mut any = false;
        for comp in view.components() {
            let Some((assignment, min_cpu)) = place_groups(topo, &comp, &request.groups) else {
                continue;
            };
            any = true;
            let min_frac = if comp.edges.is_empty() {
                1.0
            } else {
                comp.edges
                    .iter()
                    .map(|&e| edge_fraction(e))
                    .fold(f64::INFINITY, f64::min)
            };
            let score = (min_cpu / request.weights.compute).min(min_frac / request.weights.comm);
            match &round_best {
                Some((b, _)) if *b >= score => {}
                _ => round_best = Some((score, assignment)),
            }
        }
        if !any {
            break;
        }
        let improved = match (&round_best, &best) {
            (Some((r, _)), Some((b, _))) => r > b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if improved {
            best = round_best;
        } else if request.policy == GreedyPolicy::Faithful && iterations > 1 {
            break;
        }
        match order.get(cursor) {
            Some(&e) => {
                cursor += 1;
                view.remove_edge(e);
            }
            None => break,
        }
    }

    let (_, assignment) = best.ok_or(SelectError::Unsatisfiable)?;
    let mut all: Vec<NodeId> = assignment.iter().flatten().copied().collect();
    all.sort_unstable();
    let routes = topo.routes();
    let quality = evaluate(topo, &routes, &all, request.reference_bandwidth);
    Ok(GroupedSelection {
        groups: request
            .groups
            .iter()
            .zip(&assignment)
            .map(|(spec, nodes)| (spec.name.clone(), nodes.clone()))
            .collect(),
        combined: Selection {
            score: quality.score(request.weights),
            nodes: all,
            quality,
            iterations,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::{dumbbell, star};
    use nodesel_topology::units::MBPS;
    use nodesel_topology::Direction;
    use std::collections::HashSet;

    #[test]
    fn groups_are_disjoint_and_sized() {
        let (topo, _) = star(6, 100.0 * MBPS);
        let req = GroupedRequest::new(vec![
            GroupSpec::new("servers", 2),
            GroupSpec::new("clients", 3),
        ]);
        let sel = select_groups(&topo, &req).unwrap();
        let servers: HashSet<_> = sel.group("servers").unwrap().iter().collect();
        let clients: HashSet<_> = sel.group("clients").unwrap().iter().collect();
        assert_eq!(servers.len(), 2);
        assert_eq!(clients.len(), 3);
        assert!(servers.is_disjoint(&clients));
        assert_eq!(sel.combined.nodes.len(), 5);
    }

    #[test]
    fn earlier_groups_get_the_better_nodes() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 2.0);
        topo.set_load_avg(ids[1], 1.0);
        let req = GroupedRequest::new(vec![
            GroupSpec::new("server", 1),
            GroupSpec::new("clients", 3),
        ]);
        let sel = select_groups(&topo, &req).unwrap();
        // The server group picks first and gets an idle node.
        let server = sel.group("server").unwrap()[0];
        assert_eq!(topo.node(server).load_avg(), 0.0);
    }

    #[test]
    fn server_pool_constraint_respected() {
        let (mut topo, ids) = star(5, 100.0 * MBPS);
        // Only ids[3], ids[4] can host the server (say, Alpha binaries),
        // and both are loaded — the server group must still use them.
        topo.set_load_avg(ids[3], 2.0);
        topo.set_load_avg(ids[4], 2.0);
        let pool: HashSet<_> = [ids[3], ids[4]].into_iter().collect();
        let req = GroupedRequest::new(vec![
            GroupSpec {
                name: "server".into(),
                count: 1,
                constraints: Constraints {
                    allowed: Some(pool),
                    ..Constraints::none()
                },
            },
            GroupSpec::new("clients", 2),
        ]);
        let sel = select_groups(&topo, &req).unwrap();
        let server = sel.group("server").unwrap()[0];
        assert!(server == ids[3] || server == ids[4]);
        // Clients come from the idle pool.
        for &c in sel.group("clients").unwrap() {
            assert_eq!(topo.node(c).load_avg(), 0.0);
        }
    }

    #[test]
    fn pinned_server_is_honoured() {
        let (topo, ids) = star(4, 100.0 * MBPS);
        let req = GroupedRequest::new(vec![
            GroupSpec {
                name: "server".into(),
                count: 1,
                constraints: Constraints {
                    required: vec![ids[2]],
                    ..Constraints::none()
                },
            },
            GroupSpec::new("clients", 2),
        ]);
        let sel = select_groups(&topo, &req).unwrap();
        assert_eq!(sel.group("server").unwrap(), &[ids[2]]);
        assert!(!sel.group("clients").unwrap().contains(&ids[2]));
    }

    #[test]
    fn placement_avoids_congested_trunk() {
        let (mut topo, _) = dumbbell(4, 100.0 * MBPS, 100.0 * MBPS);
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 90.0 * MBPS);
        topo.set_link_used(trunk, Direction::BtoA, 90.0 * MBPS);
        let req = GroupedRequest::new(vec![GroupSpec::new("a", 2), GroupSpec::new("b", 2)]);
        let sel = select_groups(&topo, &req).unwrap();
        // All four nodes on one side: full bandwidth everywhere.
        assert_eq!(sel.combined.quality.min_bw, 100.0 * MBPS);
    }

    #[test]
    fn infeasible_combinations_error() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        // More nodes than exist.
        let req = GroupedRequest::new(vec![GroupSpec::new("g", 4)]);
        assert!(matches!(
            select_groups(&topo, &req),
            Err(SelectError::NotEnoughNodes { .. })
        ));
        // Disjoint groups both demanding the same single allowed node.
        let only: HashSet<_> = [ids[0]].into_iter().collect();
        let req = GroupedRequest::new(vec![
            GroupSpec {
                name: "a".into(),
                count: 1,
                constraints: Constraints {
                    allowed: Some(only.clone()),
                    ..Constraints::none()
                },
            },
            GroupSpec {
                name: "b".into(),
                count: 1,
                constraints: Constraints {
                    allowed: Some(only),
                    ..Constraints::none()
                },
            },
        ]);
        assert_eq!(select_groups(&topo, &req), Err(SelectError::Unsatisfiable));
        // Zero-sized group.
        let req = GroupedRequest::new(vec![GroupSpec::new("g", 0)]);
        assert!(matches!(
            select_groups(&topo, &req),
            Err(SelectError::ZeroCount)
        ));
    }

    #[test]
    fn per_group_bandwidth_floor_is_a_typed_error() {
        let (topo, _) = star(3, 100.0 * MBPS);
        let req = GroupedRequest::new(vec![
            GroupSpec::new("a", 1),
            GroupSpec {
                name: "b".into(),
                count: 1,
                constraints: Constraints {
                    min_bandwidth: Some(10.0 * MBPS),
                    ..Constraints::none()
                },
            },
        ]);
        assert_eq!(
            select_groups(&topo, &req),
            Err(SelectError::PerGroupBandwidthFloor)
        );
    }

    #[test]
    fn bandwidth_floor_applies_across_groups() {
        let (mut topo, _) = dumbbell(2, 100.0 * MBPS, 100.0 * MBPS);
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 80.0 * MBPS);
        topo.set_link_used(trunk, Direction::BtoA, 80.0 * MBPS);
        // 3 nodes cannot fit on one side; with a 50 Mbps floor the trunk
        // (20 Mbps left) is unusable, so the request is infeasible.
        let mut req = GroupedRequest::new(vec![GroupSpec::new("a", 2), GroupSpec::new("b", 1)]);
        req.min_bandwidth = Some(50.0 * MBPS);
        assert_eq!(select_groups(&topo, &req), Err(SelectError::Unsatisfiable));
    }
}
