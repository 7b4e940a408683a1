//! Pool-first solving against the whole-graph masked solve.
//!
//! A request that names its candidates ([`Constraints::allowed`]) on an
//! acyclic structure is solved on the pool's logical topology — the tree
//! paths between its eligible members — instead of on the whole graph
//! with the pool applied as a mask. This suite holds the first to the
//! second (`select_masked`, exported under the `oracle` feature): over
//! random trees × {compute, communication, balanced(EQUAL), balanced(comm
//! 2×)} × {plain pool, `min_cpu`, `min_bandwidth`, `max_staleness`,
//! `required`, m = 1, over-asked}, with dead links, down and stale nodes
//! and a reference bandwidth on some seeds, the pooled answer has the same
//! `nodes`, `score`, `quality` and error, no more `iterations`, and
//! reports the same footprint. On trees *plus chords* the two are the same
//! call.
//!
//! What the two paths may legitimately disagree on is how an exact tie
//! between two different candidate components is broken (by the lowest
//! node id of each component *in the graph solved*), so the generator
//! keeps ties out: loads and utilizations are continuous draws, every load
//! exceeds 1 (a lone node's CPU term then always binds before its vacuous
//! bandwidth term, which would tie at `1 / weights.comm`), and Figure 2's
//! `required` loop — which prefers the component with the most eligible
//! nodes, an integer — asks for more than half the pool, so only one
//! component can qualify.

use std::collections::HashSet;
use std::sync::Arc;

use nodesel_core::{
    select, select_masked, selector_for, Constraints, GreedyPolicy, Objective, SelectError,
    SelectionRequest, Weights,
};
use nodesel_topology::builders::{hierarchical, random_tree};
use nodesel_topology::units::MBPS;
use nodesel_topology::{Direction, EdgeId, NetDelta, NetSnapshot, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `tree` with its nodes renumbered by a random permutation and its links
/// re-added in random order and orientation, so that no id says anything
/// about the shape. (`random_tree` numbers every node above its parent,
/// which orders the components of any deletion state the same way on the
/// whole graph and on a pruned one; real fabrics promise no such thing.)
fn relabelled(tree: &Topology, rng: &mut StdRng) -> (Topology, Vec<NodeId>) {
    let n = tree.node_count();
    let mut old_of: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        old_of.swap(i, rng.random_range(0..=i));
    }
    let mut new_of = vec![0; n];
    let mut topo = Topology::new();
    let mut computes = Vec::new();
    for (new, &old) in old_of.iter().enumerate() {
        new_of[old] = new;
        if tree.node(NodeId::from_index(old)).is_compute() {
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
        let link = tree.link(e);
        let (mut a, mut b) = (new_of[link.a().index()], new_of[link.b().index()]);
        if rng.random_range(0..2) == 0 {
            std::mem::swap(&mut a, &mut b);
        }
        topo.add_link(
            NodeId::from_index(a),
            NodeId::from_index(b),
            link.capacity(Direction::AtoB),
        );
    }
    (topo, computes)
}

/// A random labelled tree plus `chords` extra links, with tie-free random
/// loads and utilizations; odd seeds report some nodes down or stale and
/// some links dead.
fn random_snapshot(
    seed: u64,
    computes: usize,
    networks: usize,
    chords: usize,
) -> (NetSnapshot, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (tree, _) = random_tree(&mut rng, computes, networks, 100.0 * MBPS);
    let (mut topo, compute_ids) = relabelled(&tree, &mut rng);
    let all: Vec<NodeId> = topo.node_ids().collect();
    for _ in 0..chords {
        let a = all[rng.random_range(0..all.len())];
        let b = all[rng.random_range(0..all.len())];
        if a != b {
            topo.add_link(a, b, 100.0 * MBPS);
        }
    }
    for &n in &compute_ids {
        topo.set_load_avg(n, rng.random_range(1.05..4.0));
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
    (
        NetSnapshot::capture(Arc::new(topo)).apply(&health),
        compute_ids,
    )
}

/// Every pooled request shape under test for one seed.
fn requests(seed: u64, ids: &[NodeId]) -> Vec<SelectionRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let pool: Vec<NodeId> = {
        let keep = 1 + rng.random_range(0..ids.len());
        let skip = rng.random_range(0..ids.len());
        ids.iter().cycle().skip(skip).take(keep).copied().collect()
    };
    let m = 1 + (seed as usize) % pool.len().min(5);
    let floor = rng.random_range(1.0..40.0) * MBPS;
    let pinned = pool[rng.random_range(0..pool.len())];
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
            constraints: Constraints {
                allowed: Some(pool.iter().copied().collect()),
                ..Constraints::none()
            },
            reference_bandwidth: (seed % 3 == 1).then_some(155.0 * MBPS),
            policy: GreedyPolicy::Sweep,
        };
        let with = |edit: &dyn Fn(&mut SelectionRequest)| {
            let mut r = base.clone();
            edit(&mut r);
            r
        };
        out.extend([
            base.clone(),
            with(&|r| r.constraints.min_cpu = Some(0.3)),
            with(&|r| r.constraints.min_bandwidth = Some(floor)),
            with(&|r| r.constraints.max_staleness = Some(2)),
            with(&|r| {
                r.constraints.min_bandwidth = Some(floor);
                r.constraints.max_staleness = Some(0);
                r.constraints.min_cpu = Some(0.25);
            }),
            with(&|r| {
                r.constraints.required = vec![pinned];
                if objective == Objective::Communication {
                    r.count = pool.len() / 2 + 1;
                }
            }),
            with(&|r| r.count = 1),
            // Over-asked: NotEnoughNodes, from the pool alone.
            with(&|r| r.count = pool.len() + 1),
        ]);
    }
    out
}

/// The pooled answer to `request` equals the masked whole-graph one.
fn assert_parity(snap: &NetSnapshot, request: &SelectionRequest) -> Result<(), TestCaseError> {
    let mut selector = selector_for(request.objective);
    let pooled = selector.select(snap, request);
    match (&pooled, select_masked(snap, request)) {
        (Ok(p), Ok((m, read))) => {
            prop_assert_eq!(&p.nodes, &m.nodes, "{:?}", request);
            prop_assert_eq!(p.score.to_bits(), m.score.to_bits(), "{:?}", request);
            prop_assert_eq!(p.quality, m.quality, "{:?}", request);
            prop_assert!(p.iterations <= m.iterations, "{:?}", request);
            // The selector widens footprints whose skeleton moves with
            // the metrics; the others are the solve's own.
            let reported = selector.footprint();
            if reported.replayable {
                prop_assert_eq!(reported, read, "{:?}", request);
            }
        }
        (Err(p), Err(m)) => prop_assert_eq!(p, &m, "{:?}", request),
        (p, m) => prop_assert!(false, "{:?}: pooled {:?}, masked {:?}", request, p, m),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pooled_answers_equal_the_masked_whole_graph_solve(
        seed in 0u64..100_000,
        computes in 2usize..14,
        networks in 0usize..10,
    ) {
        let (snap, ids) = random_snapshot(seed, computes, networks, 0);
        prop_assert!(snap.structure_arc().is_acyclic());
        for request in requests(seed, &ids) {
            assert_parity(&snap, &request)?;
        }
    }

    #[test]
    fn a_cycle_keeps_pooled_requests_on_the_whole_graph(
        seed in 0u64..100_000,
        computes in 2usize..12,
        networks in 0usize..8,
        chords in 1usize..4,
    ) {
        let (snap, ids) = random_snapshot(seed, computes, networks, chords);
        if snap.structure_arc().is_acyclic() {
            // Every chord drew the same node twice.
            return Ok(());
        }
        let topo = snap.to_topology();
        for request in requests(seed, &ids) {
            prop_assert_eq!(
                select(&topo, &request),
                select_masked(&topo, &request).map(|(selection, _)| selection),
                "{:?}", request
            );
        }
    }
}

/// A star of four hosts behind one switch, `h3` behind a second switch.
fn small_tree() -> (Topology, [NodeId; 4], NodeId) {
    let mut t = Topology::new();
    let sw = t.add_network_node("sw");
    let far = t.add_network_node("far");
    t.add_link(sw, far, 100.0 * MBPS);
    let mut hosts = [sw; 4];
    for (i, h) in hosts.iter_mut().enumerate() {
        *h = t.add_compute_node(format!("h{i}"), 1.0);
        t.add_link(if i == 3 { far } else { sw }, *h, 100.0 * MBPS);
        t.set_load_avg(*h, 1.0 + i as f64);
    }
    (t, hosts, sw)
}

#[test]
fn validation_reads_the_pool_alone_and_matches_the_mask() {
    let (topo, hosts, switch) = small_tree();
    let pool_of = |ids: &[NodeId]| Some(ids.iter().copied().collect::<HashSet<_>>());
    let mut cases: Vec<(SelectionRequest, Option<SelectError>)> = Vec::new();
    let mut case = |edit: &dyn Fn(&mut SelectionRequest), expected: Option<SelectError>| {
        for mut request in [
            SelectionRequest::compute(2),
            SelectionRequest::communication(2),
            SelectionRequest::balanced(2),
        ] {
            request.constraints.allowed = pool_of(&hosts[..3]);
            edit(&mut request);
            cases.push((request, expected.clone()));
        }
    };
    // An id past the structure, and a switch: ignored, as the mask
    // ignores them — not indexed, not counted.
    case(
        &|r| {
            let pool = r.constraints.allowed.as_mut().unwrap();
            pool.insert(NodeId::from_index(10_000));
            pool.insert(switch);
        },
        None,
    );
    case(
        &|r| r.constraints.allowed = pool_of(&[NodeId::from_index(10_000), switch]),
        Some(SelectError::NotEnoughNodes {
            eligible: 0,
            requested: 2,
        }),
    );
    case(
        &|r| r.constraints.allowed = Some(HashSet::new()),
        Some(SelectError::NotEnoughNodes {
            eligible: 0,
            requested: 2,
        }),
    );
    case(
        &|r| r.count = 4,
        Some(SelectError::NotEnoughNodes {
            eligible: 3,
            requested: 4,
        }),
    );
    case(&|r| r.count = 0, Some(SelectError::ZeroCount));
    // Outside the pool, past the structure, a switch: the first offender
    // in `required` order, by its global id.
    case(
        &|r| r.constraints.required = vec![hosts[1], hosts[3]],
        Some(SelectError::RequiredNotEligible(hosts[3])),
    );
    case(
        &|r| r.constraints.required = vec![NodeId::from_index(10_000), hosts[3]],
        Some(SelectError::RequiredNotEligible(NodeId::from_index(10_000))),
    );
    case(
        &|r| r.constraints.required = vec![switch],
        Some(SelectError::RequiredNotEligible(switch)),
    );
    case(
        &|r| r.constraints.required = vec![hosts[0], hosts[1], hosts[3]],
        Some(SelectError::TooManyRequired {
            required: 3,
            count: 2,
        }),
    );
    // A required node outranks a short pool, as in the mask's order.
    case(
        &|r| {
            r.count = 4;
            r.constraints.required = vec![hosts[3]];
        },
        Some(SelectError::RequiredNotEligible(hosts[3])),
    );
    for (request, expected) in cases {
        let pooled = select(&topo, &request);
        let masked = select_masked(&topo, &request).map(|(selection, _)| selection);
        assert_eq!(
            pooled.as_ref().map(|s| (&s.nodes, s.score)),
            masked.as_ref().map(|s| (&s.nodes, s.score)),
            "{request:?}"
        );
        assert_eq!(pooled.err(), expected, "{request:?}");
    }
}

#[test]
fn a_dangling_branch_no_longer_delays_the_score() {
    // sw - a (fraction 0.9), sw - b (0.8), and off the pool a host x on a
    // nearly saturated link (0.1). On the whole graph the component
    // {a, b, sw, x} scores 0.1 until the sweep has deleted sw - x; the
    // logical topology never holds that link.
    let mut t = Topology::new();
    let sw = t.add_network_node("sw");
    let [a, b, x] = ["a", "b", "x"].map(|name| t.add_compute_node(name, 1.0));
    for (host, used) in [(a, 10.0), (b, 20.0), (x, 90.0)] {
        let e = t.add_link(sw, host, 100.0 * MBPS);
        t.set_link_used(e, Direction::AtoB, used * MBPS);
    }
    let mut request = SelectionRequest::balanced(2);
    request.constraints.allowed = Some([a, b].into_iter().collect());
    let pooled = select(&t, &request).unwrap();
    let (masked, _) = select_masked(&t, &request).unwrap();
    assert_eq!(pooled.nodes, vec![a, b]);
    assert_eq!(pooled.nodes, masked.nodes);
    assert_eq!(pooled.score, 0.8);
    assert_eq!(pooled.score.to_bits(), masked.score.to_bits());
    assert_eq!(pooled.quality, masked.quality);
    assert!(
        pooled.iterations < masked.iterations,
        "{} rounds on the view, {} on the graph",
        pooled.iterations,
        masked.iterations
    );
}

#[test]
fn a_pooled_solve_is_sized_by_its_pool_not_by_the_fabric() {
    let (mut topo, members) = hierarchical(1000, 99, 100.0 * MBPS, 40.0 * MBPS, 2e-3);
    let mut rng = StdRng::seed_from_u64(19);
    nodesel_topology::builders::randomize_conditions(&mut topo, &mut rng, 3.0, 0.9);
    assert_eq!(topo.node_count(), 100_000);
    let hosts: Vec<NodeId> = members.into_iter().flatten().collect();
    let mut pool = HashSet::new();
    while pool.len() < 64 {
        pool.insert(hosts[rng.random_range(0..hosts.len())]);
    }
    let view = topo
        .logical_topology(&pool.iter().copied().collect::<Vec<_>>())
        .expect("a hierarchical fabric is a tree");
    assert!(view.nodes.len() <= 64 * 12, "{} nodes", view.nodes.len());
    assert!(pool.iter().all(|h| view.nodes.binary_search(h).is_ok()));
    // The deletion loops ran on that view: a round per link of the graph
    // solved, and the fabric has 99 999 of them. (Nothing n-sized is
    // built for a graph the solve never looks at.)
    let snap = NetSnapshot::capture(Arc::new(topo));
    for mut request in [
        SelectionRequest::compute(8),
        SelectionRequest::communication(8),
        SelectionRequest::balanced(8),
    ] {
        request.constraints.allowed = Some(pool.clone());
        let answer = selector_for(request.objective)
            .select(&snap, &request)
            .unwrap();
        assert!(answer.nodes.iter().all(|n| pool.contains(n)));
        assert!(
            answer.iterations <= view.edges.len() + 2,
            "{:?}: {} rounds for a view of {} links",
            request.objective,
            answer.iterations,
            view.edges.len()
        );
    }
}
