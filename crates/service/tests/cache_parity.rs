//! Cache parity proptests for the placement service.
//!
//! The service's contract is that caching and carry-forward are
//! *invisible*: every [`Placement`] returned by `get` is bit-identical to a fresh solve on the snapshot of
//! `placement.epoch`. These tests drive random request streams against
//! random delta streams (node load churn, link utilization churn,
//! availability and staleness transitions, occasional wholesale flushes)
//! and check exactly that, keeping an epoch → snapshot map on the side.
//!
//! Eviction soundness rides on the same assertion: a carried-forward
//! entry with an unsound footprint would surface as a stale answer on a
//! later epoch, and a tiny-capacity cache exercises the LRU path on
//! every insert.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use nodesel_core::{
    selector_for, Constraints, GreedyPolicy, Objective, SelectError, SelectionRequest, Weights,
};
use nodesel_service::{
    DegradePolicy, GetOptions, JobId, PlacementQuality, PlacementService, ServiceConfig,
    ServiceError,
};
use nodesel_topology::builders::random_tree;
use nodesel_topology::units::MBPS;
use nodesel_topology::{Direction, NetDelta, NetMetrics, NetSnapshot, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected topology: a random tree plus up to three chords, with
/// random loads and per-direction link utilization.
fn random_topology(seed: u64, computes: usize, networks: usize) -> (Topology, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut topo, compute_ids) = random_tree(&mut rng, computes, networks, 100.0 * MBPS);
    let all: Vec<NodeId> = topo.node_ids().collect();
    for _ in 0..rng.random_range(0..3) {
        let a = all[rng.random_range(0..all.len())];
        let b = all[rng.random_range(0..all.len())];
        if a != b {
            topo.add_link(a, b, 100.0 * MBPS);
        }
    }
    for n in compute_ids.iter().copied() {
        topo.set_load_avg(n, rng.random_range(0.0..4.0));
    }
    for e in topo.edge_ids().collect::<Vec<_>>() {
        for dir in [Direction::AtoB, Direction::BtoA] {
            let cap = topo.link(e).capacity(dir);
            topo.set_link_used(e, dir, cap * rng.random_range(0.0..0.95));
        }
    }
    (topo, compute_ids)
}

/// A random request: any objective, small counts, and a sprinkling of
/// every constraint kind — including corners where selection errors
/// (which must round-trip through the cache bit-identically too).
fn random_request(rng: &mut StdRng, ids: &[NodeId]) -> SelectionRequest {
    let objective = match rng.random_range(0..3) {
        0 => Objective::Compute,
        1 => Objective::Communication,
        _ => Objective::Balanced(Weights::comm_priority(rng.random_range(0.5..3.0))),
    };
    let mut constraints = Constraints::none();
    if rng.random_range(0..4) == 0 {
        let anchor = ids[rng.random_range(0..ids.len())];
        let mut allowed: HashSet<NodeId> = ids
            .iter()
            .copied()
            .filter(|_| rng.random_range(0..2) == 0)
            .collect();
        allowed.insert(anchor);
        constraints.allowed = Some(allowed);
    }
    if rng.random_range(0..4) == 0 {
        constraints.required = vec![ids[rng.random_range(0..ids.len())]];
    }
    if rng.random_range(0..4) == 0 {
        constraints.min_cpu = Some(rng.random_range(0.1..0.6));
    }
    if rng.random_range(0..5) == 0 {
        constraints.min_bandwidth = Some(rng.random_range(1.0..40.0) * MBPS);
    }
    if rng.random_range(0..6) == 0 {
        constraints.max_staleness = Some(rng.random_range(0..4));
    }
    SelectionRequest {
        count: 1 + rng.random_range(0..ids.len().min(5)),
        objective,
        constraints,
        reference_bandwidth: (rng.random_range(0..3) == 0).then_some(155.0 * MBPS),
        policy: GreedyPolicy::Sweep,
    }
}

/// One epoch of churn: load and utilization moves, plus occasional
/// availability flips and staleness bumps — the health changes that must
/// evict *every* cache entry regardless of footprint.
fn random_delta(rng: &mut StdRng, topo: &Topology) -> NetDelta {
    let mut delta = NetDelta::default();
    for n in topo.compute_nodes() {
        if rng.random_range(0..2) == 0 {
            delta.nodes.push((n, rng.random_range(0.0..4.0)));
        }
    }
    for e in topo.edge_ids() {
        for dir in [Direction::AtoB, Direction::BtoA] {
            if rng.random_range(0..4) == 0 {
                let cap = topo.link(e).capacity(dir);
                delta
                    .links
                    .push((e, dir, cap * rng.random_range(0.0..0.95)));
            }
        }
    }
    if rng.random_range(0..4) == 0 {
        let computes: Vec<NodeId> = topo.compute_nodes().collect();
        let n = computes[rng.random_range(0..computes.len())];
        delta.avail_nodes.push((n, rng.random_range(0..2) == 0));
    }
    if rng.random_range(0..5) == 0 {
        let computes: Vec<NodeId> = topo.compute_nodes().collect();
        let n = computes[rng.random_range(0..computes.len())];
        delta.stale_nodes.push((n, rng.random_range(0..6)));
    }
    delta
}

/// Drives a request/delta script against one service and asserts every
/// answer is bit-identical to a fresh solve on the snapshot of the epoch
/// the placement reports.
fn drive(seed: u64, topo: Topology, ids: &[NodeId], steps: usize, config: ServiceConfig) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1ec7);
    let first = NetSnapshot::capture(Arc::new(topo));
    let svc = PlacementService::new(Arc::new(first.clone()), config.clone());
    let mut by_epoch: HashMap<u64, NetSnapshot> = HashMap::new();
    by_epoch.insert(first.epoch(), first.clone());
    let pool: Vec<SelectionRequest> = (0..4 + rng.random_range(0..4))
        .map(|_| random_request(&mut rng, ids))
        .collect();
    let mut current = first;
    for _ in 0..steps {
        for _ in 0..pool.len() + 2 {
            let request = &pool[rng.random_range(0..pool.len())];
            let placement = svc.get(request);
            let snap = &by_epoch[&placement.epoch];
            let fresh = selector_for(request.objective).select(snap, request);
            assert_eq!(
                placement.result, fresh,
                "answer for epoch {} drifted from a fresh solve",
                placement.epoch
            );
        }
        let delta = random_delta(&mut rng, current.structure_arc());
        let next = current.apply(&delta);
        by_epoch.insert(next.epoch(), next.clone());
        if rng.random_range(0..8) == 0 {
            // A publication with no delta claims nothing about footprints
            // and must flush wholesale.
            svc.publish(Arc::new(next.clone()), None);
        } else {
            svc.publish(Arc::new(next.clone()), Some(&delta));
        }
        current = next;
    }
    let stats = svc.stats();
    assert_eq!(
        stats.requests,
        stats.cache_hits + stats.solves,
        "every request is exactly one of hit / solve"
    );
    assert_eq!(stats.epochs_published, steps as u64);
    if config.cache_capacity == 0 {
        assert_eq!(stats.cache_hits, 0, "a disabled cache cannot hit");
        assert_eq!(stats.carried_forward, 0);
    }
    assert!(svc.cached_entries() <= config.cache_capacity);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random request streams against random churn, including health
    /// transitions and flush publications.
    #[test]
    fn answers_match_fresh_select(
        seed in 0u64..100_000,
        computes in 2usize..10,
        networks in 0usize..6,
        steps in 1usize..6,
    ) {
        let (topo, ids) = random_topology(seed, computes, networks);
        drive(seed, topo, &ids, steps, ServiceConfig::default());
    }

    /// A tiny cache forces the LRU eviction path on nearly every insert;
    /// capacity 0 disables caching entirely. Neither may change answers.
    #[test]
    fn tiny_cache_evictions_stay_sound(
        seed in 0u64..100_000,
        computes in 2usize..8,
        networks in 0usize..4,
        steps in 1usize..5,
        capacity in 0usize..4,
    ) {
        let (topo, ids) = random_topology(seed, computes, networks);
        let config = ServiceConfig { cache_capacity: capacity, ..ServiceConfig::default() };
        drive(seed, topo, &ids, steps, config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Empty-ledger invisibility: a service whose ledger has seen
    /// admissions but is empty again answers bit-identically to a twin
    /// that never admitted anything, across seeds, request shapes, and
    /// churn. The residual snapshot must collapse back to the raw
    /// snapshot pointer-identically, not just value-equal.
    #[test]
    fn emptied_ledger_answers_match_never_admitted_twin(
        seed in 0u64..100_000,
        computes in 3usize..10,
        networks in 0usize..5,
        steps in 1usize..4,
        jobs in 1usize..4,
    ) {
        let (topo, ids) = random_topology(seed, computes, networks);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xad317);
        let first = NetSnapshot::capture(Arc::new(topo));
        let svc = PlacementService::new(Arc::new(first.clone()), ServiceConfig::default());
        let twin = PlacementService::new(Arc::new(first.clone()), ServiceConfig::default());
        let mut current = first;
        for _ in 0..steps {
            // Admit a few random jobs (failed selections admit nothing),
            // then release every one.
            let mut admitted = Vec::new();
            for _ in 0..jobs {
                let mut request = random_request(&mut rng, &ids);
                request.reference_bandwidth = Some(20.0 * MBPS);
                if let Ok(admission) = svc.admit(&request) {
                    admitted.push(admission.job);
                }
            }
            for job in admitted {
                svc.release(job).unwrap();
            }
            prop_assert!(
                Arc::ptr_eq(&svc.residual_snapshot(), &svc.snapshot()),
                "emptied ledger must hand back the raw snapshot Arc"
            );
            for _ in 0..6 {
                let request = random_request(&mut rng, &ids);
                let ours = svc.get(&request);
                let theirs = twin.get(&request);
                prop_assert_eq!(ours.epoch, theirs.epoch);
                prop_assert_eq!(ours.result, theirs.result);
            }
            let delta = random_delta(&mut rng, current.structure_arc());
            let next = current.apply(&delta);
            svc.publish(Arc::new(next.clone()), Some(&delta));
            twin.publish(Arc::new(next.clone()), Some(&delta));
            current = next;
        }
    }

    /// With live admissions, every `get` answer matches a fresh solve on
    /// the service's own residual snapshot — contention awareness is the
    /// residual network and nothing else.
    #[test]
    fn admitted_state_answers_match_residual_solve(
        seed in 0u64..100_000,
        computes in 4usize..10,
        networks in 0usize..5,
        jobs in 1usize..4,
    ) {
        let (topo, ids) = random_topology(seed, computes, networks);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a11);
        let first = NetSnapshot::capture(Arc::new(topo));
        let svc = PlacementService::new(Arc::new(first), ServiceConfig::default());
        for _ in 0..jobs {
            let mut request = random_request(&mut rng, &ids);
            request.reference_bandwidth = Some(20.0 * MBPS);
            let _ = svc.admit(&request);
        }
        let residual = svc.residual_snapshot();
        for _ in 0..8 {
            let request = random_request(&mut rng, &ids);
            let placement = svc.get(&request);
            let fresh = selector_for(request.objective).select(&residual, &request);
            prop_assert_eq!(placement.result, fresh);
        }
    }
}

/// Six caller threads per round with a publication landing in the
/// middle of each burst, under a two-slot solve gate: whichever epoch a
/// request pins, and whether it hits or solves, its answer must match
/// the fresh solve for that pinned epoch.
#[test]
fn concurrent_bursts_stay_bit_identical() {
    const ROUNDS: usize = 4;
    const CALLERS: usize = 6;
    let (topo, ids) = random_topology(7, 8, 4);
    let mut rng = StdRng::seed_from_u64(0xbeef);
    let mut chain = vec![(NetSnapshot::capture(Arc::new(topo)), NetDelta::default())];
    for round in 0..ROUNDS {
        let delta = random_delta(&mut rng, chain[round].0.structure_arc());
        chain.push((chain[round].0.apply(&delta), delta));
    }
    let by_epoch: HashMap<u64, &NetSnapshot> =
        chain.iter().map(|(snap, _)| (snap.epoch(), snap)).collect();
    let svc = PlacementService::new(
        Arc::new(chain[0].0.clone()),
        ServiceConfig {
            cache_capacity: 64,
            max_inflight_solves: 2,
            ..ServiceConfig::default()
        },
    );
    for (next, delta) in &chain[1..] {
        let requests: Vec<SelectionRequest> =
            (0..3).map(|_| random_request(&mut rng, &ids)).collect();
        std::thread::scope(|scope| {
            for t in 0..CALLERS {
                let svc = &svc;
                let by_epoch = &by_epoch;
                let request = &requests[t % requests.len()];
                scope.spawn(move || {
                    let placement = svc.get(request);
                    let snap = by_epoch[&placement.epoch];
                    let fresh = selector_for(request.objective).select(snap, request);
                    assert_eq!(placement.result, fresh);
                });
            }
            svc.publish(Arc::new(next.clone()), Some(delta));
        });
    }
    let stats = svc.stats();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.requests, (ROUNDS * CALLERS) as u64);
    assert_eq!((stats.shed, stats.refused), (0, 0));
}

/// Soft/hard staleness bounds the chaos proptest runs under (tight
/// enough that random silences cross both).
const CHAOS_DEGRADE: DegradePolicy = DegradePolicy {
    soft_staleness: 30.0,
    hard_staleness: 90.0,
    min_confidence: 0.5,
};

/// One chaos script: a single-caller (deterministic) service under a
/// fault-bearing delta stream interleaved with requests (some with
/// already-dead deadlines), admissions, releases, heartbeats, silences,
/// and reconciliation sweeps. The driver keeps its own model of the
/// collector's liveness (`last_heard`, published confidence) and asserts,
/// for every single answer:
///
/// * **no silent lies** — the answer's [`PlacementQuality`] equals the
///   classification the driver computes from its own model (a `Fresh`
///   flag on aged data, or a missing `Stale` flag, fails here);
/// * **degradation never changes bits** — every served answer (fresh or
///   stale) is bit-identical to a fresh solve on the residual snapshot
///   pinned at call time;
/// * **refusals are typed** — past the hard bound a bandwidth-sensitive
///   answer carries [`SelectError::DataTooStale`], never fabricated
///   nodes;
/// * **reconciliation repairs** — after each sweep no surviving claim
///   references a dead node, except jobs the sweep explicitly deferred
///   (re-selection failed) — and the stats identity balances throughout.
fn chaos_drive(seed: u64, computes: usize, networks: usize, steps: usize) {
    let (topo, ids) = random_topology(seed, computes, networks);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a05);
    let first = NetSnapshot::capture(Arc::new(topo));
    let svc = PlacementService::new(
        Arc::new(first.clone()),
        ServiceConfig {
            degrade: CHAOS_DEGRADE,
            ..ServiceConfig::default()
        },
    );
    let mut current = first;
    let mut now = 0.0f64;
    let mut last_heard = 0.0f64;
    let mut confidence = current.min_confidence();
    let mut admitted: Vec<JobId> = Vec::new();
    for _ in 0..steps {
        now += rng.random_range(1.0..40.0);
        // The collector this tick: publish faults, heartbeat, or silence.
        match rng.random_range(0..4) {
            0 => {} // silent: the data ages
            1 => {
                svc.heartbeat(now);
                last_heard = now;
            }
            _ => {
                let mut delta = random_delta(&mut rng, current.structure_arc());
                let computes_now: Vec<NodeId> = current.structure_arc().compute_nodes().collect();
                for _ in 0..rng.random_range(0..3) {
                    let n = computes_now[rng.random_range(0..computes_now.len())];
                    delta.avail_nodes.push((n, rng.random_range(0..2) == 0));
                }
                let next = current.apply(&delta);
                svc.publish_at(Arc::new(next.clone()), Some(&delta), now);
                last_heard = now;
                confidence = next.min_confidence();
                current = next;
            }
        }
        let age = (now - last_heard).max(0.0);
        for _ in 0..4 {
            let request = random_request(&mut rng, &ids);
            let deadline = match rng.random_range(0..3) {
                0 => Some(now + 5.0),
                1 => Some(now - 1.0), // dead on arrival: must shed
                _ => None,
            };
            let opts = GetOptions {
                now: Some(now),
                deadline,
                block_when_full: false,
            };
            let residual = svc.residual_snapshot();
            let answer = svc.get_with(&request, &opts);
            if let Some(d) = deadline.filter(|d| *d <= now) {
                assert_eq!(
                    answer.unwrap_err(),
                    ServiceError::DeadlineExceeded { deadline: d, now }
                );
                continue;
            }
            let placement = answer.expect("ungated in-deadline request cannot fail");
            let bandwidth_sensitive = !matches!(request.objective, Objective::Compute)
                || request.constraints.min_bandwidth.is_some();
            if age > CHAOS_DEGRADE.hard_staleness && bandwidth_sensitive {
                assert_eq!(placement.quality, PlacementQuality::Refused { age });
                assert_eq!(placement.result, Err(SelectError::DataTooStale));
                continue;
            }
            let expected = if age > CHAOS_DEGRADE.soft_staleness
                || confidence < CHAOS_DEGRADE.min_confidence
            {
                PlacementQuality::Stale { age }
            } else {
                PlacementQuality::Fresh
            };
            assert_eq!(placement.quality, expected, "silent-stale answer");
            let fresh = selector_for(request.objective).select(&residual, &request);
            assert_eq!(
                placement.result, fresh,
                "served answer drifted from a fresh solve on its pin"
            );
        }
        // Admission / release churn.
        if rng.random_range(0..2) == 0 {
            let mut request = random_request(&mut rng, &ids);
            request.reference_bandwidth = Some(20.0 * MBPS);
            match svc.admit(&request) {
                Ok(admission) => admitted.push(admission.job),
                Err(ServiceError::Select(_)) | Err(ServiceError::DegradedRefusal { .. }) => {}
                Err(e) => panic!("unexpected admit error: {e}"),
            }
        }
        if !admitted.is_empty() && rng.random_range(0..3) == 0 {
            let job = admitted.swap_remove(rng.random_range(0..admitted.len()));
            svc.release(job).unwrap();
        }
        if rng.random_range(0..2) == 0 {
            let report = svc.reconcile(now);
            assert_eq!(report.examined, admitted.len());
            let snap = svc.snapshot();
            for &job in &admitted {
                let nodes = svc.job_nodes(job).expect("no structural shrink here");
                let all_up = nodes.iter().all(|&n| snap.node_available(n));
                let deferred = report.deferred.iter().any(|(j, _)| *j == job);
                assert!(
                    all_up || deferred,
                    "claim holds a dead node after reconcile without a deferral"
                );
            }
        }
        let stats = svc.stats();
        assert!(stats.balanced(), "stats identity violated: {stats:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos-flavored parity: random fault plans × request / admit /
    /// release / reconcile interleavings under live staleness bounds.
    #[test]
    fn chaos_interleavings_stay_honest_and_balanced(
        seed in 0u64..100_000,
        computes in 3usize..10,
        networks in 0usize..5,
        steps in 2usize..8,
    ) {
        chaos_drive(seed, computes, networks, steps);
    }
}
