//! Pins [`SelectionFootprint`]s to their definitions.
//!
//! A footprint names the entities a served answer's bits depend on, so an
//! epoch cache may keep the answer across every delta that misses them.
//! This suite states the definitions naively — components via
//! [`GraphView::components`], route edges via an all-pairs
//! [`RouteTable`], the Figure 2 stop component via the literal deletion
//! loop — and checks, over random topologies and request shapes, that
//!
//! * `selector.footprint()` after a `select` equals that statement, and
//! * the soundness contract holds: for node and link deltas disjoint from
//!   the footprint, a fresh solve on `snap.apply(delta)` is bit-identical
//!   to the answer the footprint was reported for, errors included.
//!
//! Request shapes: {compute, communication, balanced} × {unconstrained,
//! `allowed` pool, `min_bandwidth`, `max_staleness`, m = 1, over-asked,
//! floor-disconnected}, plus the shapes whose eligibility or stopping rule
//! moves with the metrics (`required`, `min_cpu`, `Faithful`, an unusable
//! reference bandwidth) and must therefore report the conservative
//! footprint.

use std::collections::HashSet;
use std::sync::Arc;

use nodesel_core::{
    selector_for, Constraints, GreedyPolicy, LinkFootprint, Objective, SelectError, Selection,
    SelectionFootprint, SelectionRequest, Weights,
};
use nodesel_topology::builders::random_tree;
use nodesel_topology::units::MBPS;
use nodesel_topology::{
    Direction, EdgeId, GraphView, NetDelta, NetMetrics, NetSnapshot, NodeId, RouteTable, Topology,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected topology (a random tree plus chords, so static routes
/// can leave a component of the filtered view) with random loads and
/// per-direction utilization, captured with some nodes and links reported
/// down or stale.
fn random_snapshot(
    seed: u64,
    computes: usize,
    networks: usize,
    chords: usize,
) -> (NetSnapshot, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut topo, compute_ids) = random_tree(&mut rng, computes, networks, 100.0 * MBPS);
    let all: Vec<NodeId> = topo.node_ids().collect();
    for _ in 0..chords {
        let a = all[rng.random_range(0..all.len())];
        let b = all[rng.random_range(0..all.len())];
        if a != b {
            topo.add_link(a, b, 100.0 * MBPS);
        }
    }
    for &n in &compute_ids {
        topo.set_load_avg(n, rng.random_range(0.0..4.0));
    }
    let edges: Vec<EdgeId> = topo.edge_ids().collect();
    for &e in &edges {
        for dir in [Direction::AtoB, Direction::BtoA] {
            let cap = topo.link(e).capacity(dir);
            topo.set_link_used(e, dir, cap * rng.random_range(0.0..0.95));
        }
    }
    let mut health = NetDelta::default();
    if seed % 2 == 1 {
        for &n in &compute_ids {
            match rng.random_range(0..8) {
                0 => health.avail_nodes.push((n, false)),
                1 => health.stale_nodes.push((n, rng.random_range(1..6))),
                _ => {}
            }
        }
        for &e in &edges {
            if rng.random_range(0..6) == 0 {
                health.avail_links.push((e, false));
            }
        }
    }
    let snap = NetSnapshot::capture(Arc::new(topo)).apply(&health);
    (snap, compute_ids)
}

/// The request shapes under test; `true` marks the ones whose footprint
/// must be conservative.
fn requests(seed: u64, ids: &[NodeId]) -> Vec<(SelectionRequest, bool)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let m = 1 + (seed as usize) % ids.len().min(5);
    let pool: HashSet<NodeId> = {
        let keep = 1 + rng.random_range(0..ids.len());
        let skip = rng.random_range(0..ids.len());
        ids.iter().cycle().skip(skip).take(keep).copied().collect()
    };
    let floor = rng.random_range(1.0..40.0) * MBPS;
    let pinned = ids[rng.random_range(0..ids.len())];
    let mut out = Vec::new();
    for objective in [
        Objective::Compute,
        Objective::Communication,
        Objective::Balanced(Weights::EQUAL),
        Objective::Balanced(Weights::comm_priority(2.0)),
    ] {
        let base = SelectionRequest {
            count: m,
            objective,
            constraints: Constraints::none(),
            reference_bandwidth: (seed % 3 == 1).then_some(155.0 * MBPS),
            policy: GreedyPolicy::Sweep,
        };
        let with = |edit: &dyn Fn(&mut SelectionRequest)| {
            let mut r = base.clone();
            edit(&mut r);
            r
        };
        let tight = [
            base.clone(),
            with(&|r| r.constraints.allowed = Some(pool.clone())),
            with(&|r| r.constraints.min_bandwidth = Some(floor)),
            with(&|r| r.constraints.max_staleness = Some(2)),
            with(&|r| {
                r.constraints.allowed = Some(pool.clone());
                r.constraints.min_bandwidth = Some(floor);
                r.constraints.max_staleness = Some(0);
            }),
            with(&|r| r.count = 1),
            // Over-asked: NotEnoughNodes.
            with(&|r| r.count = ids.len() + 1),
            // No link clears the floor: every node is its own component.
            with(&|r| {
                r.count = r.count.max(2);
                r.constraints.min_bandwidth = Some(1000.0 * MBPS);
            }),
        ];
        out.extend(tight.into_iter().map(|r| (r, false)));
        let mut loose = vec![
            with(&|r| r.constraints.required = vec![pinned]),
            with(&|r| r.constraints.min_cpu = Some(0.3)),
        ];
        if matches!(objective, Objective::Balanced(_)) {
            loose.push(with(&|r| r.policy = GreedyPolicy::Faithful));
            loose.push(with(&|r| r.reference_bandwidth = Some(-1.0)));
            loose.push(with(&|r| r.reference_bandwidth = Some(f64::INFINITY)));
        }
        out.extend(loose.into_iter().map(|r| (r, true)));
    }
    out
}

/// Eligibility without `required` or `min_cpu`: allowed, reported up, not
/// staler than the cap.
fn eligible(snap: &NetSnapshot, c: &Constraints, n: NodeId) -> bool {
    snap.structure().node(n).is_compute()
        && c.allowed.as_ref().is_none_or(|set| set.contains(&n))
        && snap.node_available(n)
        && c.max_staleness.is_none_or(|s| snap.node_staleness(n) <= s)
}

/// The starting view: live links that clear the bandwidth floor.
fn base_view<'a>(snap: &'a NetSnapshot, c: &Constraints) -> GraphView<'a> {
    let mut view = GraphView::new(snap.structure());
    for e in snap.structure().edge_ids() {
        let below = c.min_bandwidth.is_some_and(|floor| snap.bw(e) < floor);
        if !snap.link_available(e) || below {
            view.remove_edge(e);
        }
    }
    view
}

fn sorted(mut nodes: Vec<NodeId>) -> Vec<NodeId> {
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// The footprint definitions, stated without reference to the engines.
fn expected_footprint(
    snap: &NetSnapshot,
    request: &SelectionRequest,
    result: &Result<Selection, SelectError>,
) -> SelectionFootprint {
    let c = &request.constraints;
    let m = request.count;
    let elig = |n: &NodeId| eligible(snap, c, *n);
    let members =
        |nodes: &[NodeId]| -> Vec<NodeId> { nodes.iter().copied().filter(elig).collect() };
    let nodes = match request.objective {
        // Every viable component of the starting view competes (for the
        // balanced sweep, every later state is a subset of one).
        Objective::Compute | Objective::Balanced(_) => base_view(snap, c)
            .components()
            .iter()
            .map(|comp| members(&comp.compute_nodes))
            .filter(|ms| ms.len() >= m)
            .flatten()
            .collect(),
        Objective::Communication if result.is_err() => Vec::new(),
        // The fully deleted graph: the last singleton the loop looks at.
        Objective::Communication if m == 1 => snap
            .structure()
            .node_ids()
            .filter(elig)
            .max()
            .into_iter()
            .collect(),
        // Figure 2, literally: the last component that still hosts the
        // application before a deletion destroys it.
        Objective::Communication => {
            let mut view = base_view(snap, c);
            let mut stop = Vec::new();
            loop {
                let hosts: Vec<Vec<NodeId>> = view
                    .components()
                    .iter()
                    .map(|comp| members(&comp.compute_nodes))
                    .filter(|ms| ms.len() >= m)
                    .collect();
                let Some(best) = hosts.into_iter().max_by_key(Vec::len) else {
                    break;
                };
                stop = best;
                match view.min_live_edge_by(|e| snap.bw(e)) {
                    Some(e) => view.remove_edge(e),
                    None => break,
                }
            }
            stop
        }
    };
    let links = match (request.objective, c.min_bandwidth, result) {
        // Only the final quality walk over the answer's static routes
        // reads link metrics.
        (Objective::Compute, None, Ok(sel)) => {
            let table = RouteTable::build(snap.structure());
            let mut edges = Vec::new();
            for (i, &a) in sel.nodes.iter().enumerate() {
                for &b in &sel.nodes[i + 1..] {
                    let path = table
                        .resolve(snap.structure(), a, b)
                        .expect("a component's members are mutually routable");
                    edges.extend(path.hops.iter().map(|&(e, _)| e));
                }
            }
            edges.sort_unstable();
            edges.dedup();
            LinkFootprint::Edges(edges)
        }
        (Objective::Compute, None, Err(_)) => LinkFootprint::Edges(Vec::new()),
        _ => LinkFootprint::All,
    };
    SelectionFootprint {
        replayable: true,
        nodes: sorted(nodes),
        links,
    }
}

/// A delta of load and utilization changes on entities outside `fp`.
fn disjoint_delta(seed: u64, snap: &NetSnapshot, fp: &SelectionFootprint) -> NetDelta {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5DE17A);
    let topo: &Topology = snap.structure();
    let mut delta = NetDelta::default();
    for n in topo.compute_nodes() {
        if fp.nodes.binary_search(&n).is_err() && rng.random_range(0..2) == 0 {
            delta.nodes.push((n, rng.random_range(0.0..4.0)));
        }
    }
    if let LinkFootprint::Edges(read) = &fp.links {
        for e in topo.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                if read.binary_search(&e).is_err() && rng.random_range(0..2) == 0 {
                    let cap = topo.link(e).capacity(dir);
                    delta
                        .links
                        .push((e, dir, cap * rng.random_range(0.0..0.95)));
                }
            }
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn footprints_match_their_definitions_and_are_sound(
        seed in 0u64..100_000,
        computes in 2usize..12,
        networks in 0usize..8,
        chords in 0usize..4,
    ) {
        let (snap, ids) = random_snapshot(seed, computes, networks, chords);
        for (request, conservative) in requests(seed, &ids) {
            let mut selector = selector_for(request.objective);
            let result = selector.select(&snap, &request);
            let fp = selector.footprint();
            if conservative {
                prop_assert_eq!(&fp, &SelectionFootprint::conservative(), "{:?}", request);
                continue;
            }
            prop_assert_eq!(
                &fp,
                &expected_footprint(&snap, &request, &result),
                "{:?} -> {:?}",
                request,
                result
            );
            if let Ok(sel) = &result {
                prop_assert!(
                    sel.nodes.iter().all(|n| fp.nodes.binary_search(n).is_ok()),
                    "the answer's own nodes are read: {:?}",
                    request
                );
            }
            for step in 0..3u64 {
                let delta = disjoint_delta(seed.wrapping_add(step), &snap, &fp);
                prop_assert!(!fp.invalidated_by(&delta));
                let next = snap.apply(&delta);
                let fresh = selector_for(request.objective).select(&next, &request);
                prop_assert_eq!(
                    &fresh,
                    &result,
                    "a delta outside the footprint moved the answer: {:?} under {:?}",
                    request,
                    delta
                );
            }
        }
    }
}
