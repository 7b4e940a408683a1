//! Scaling sweep: flat growth check, hierarchical two-level selection
//! out to n = 100k, and pooled requests on the same fabrics.
//!
//! Three experiments share this bin:
//!
//! * **Flat growth** — the §3.2 complexity claim on the flat engines: a
//!   log-log sweep of `balanced` (and, beside it, `max_bandwidth`) over
//!   random trees with the fitted growth exponent of `balanced` (the
//!   paper claims O(n²); the sorted-edge engines do better).
//! * **Two-level sweep** — per-selection latency of
//!   [`nodesel_core::TwoLevelSelector`] on hierarchical fabrics
//!   (star domains on a binary trunk tree) from n = 200 to n = 100k,
//!   for the `max_bandwidth` and `balanced` objectives. The first
//!   select on a fresh snapshot pays the hierarchy prime (domain tree,
//!   route sketch, per-domain summaries), reported as `prime_ms`;
//!   steady-state selects against the same epoch are the
//!   sub-millisecond claim, reported as the median `two_level_select_us`.
//!   On sizes where the exact flat solve is feasible (n ≤ 2000) the
//!   sweep also records the flat latency and value, the relative error
//!   of the two-level answer, the selector's *reported* relative error
//!   bound (which must cover the true error — the proptests in
//!   `nodesel-core` guard that), and the mean relative error of the
//!   landmark bandwidth sketch over sampled cross-domain pairs.
//!
//! * **Pooled growth** — what a request that names its candidates
//!   costs: `hierarchical(d, 99)` at n ∈ {1 000, 10 000, 100 000} ×
//!   an `allowed` pool of {64, 256} hosts × the three objectives, median
//!   µs per solve through the service's entry
//!   ([`nodesel_core::selector_for`] on a snapshot), which solves on the
//!   pool's logical topology. The claim is "flat in n, linear in pool".
//!   At n = 1 000 — where a 256-host pool is a quarter of the fabric and
//!   the view is most of the graph — each row also times the whole-graph
//!   masked solve (`select_masked`, the path every pooled request took
//!   before and unpooled ones still take), so the one shape where
//!   building the view could cost more than it saves stays on record.
//!
//! Results land in `BENCH_scaling.json` under `"scaling"` and
//! `"pooled_growth"` through `nodesel_experiments::record` (provenance,
//! history, schema checked on the written document; the CI smoke step
//! fails on drift). `--test`/`--smoke` truncates the two-level sweep at
//! n = 2000 and the pooled one at n = 10 000 and writes nothing;
//! measured numbers are whatever this machine gives, reported as
//! measured.

use nodesel_bench::{conditioned_hierarchy, conditioned_tree};
use nodesel_core::{
    balanced, max_bandwidth, select, select_masked, selector_for, Constraints, GreedyPolicy,
    Objective, Selection, SelectionRequest, Selector, TwoLevelSelector, Weights,
};
use nodesel_experiments::{record, smoke_requested};
use nodesel_topology::{Hierarchy, NetSnapshot, NodeId, RouteSketch, RouteTable, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Requested set size throughout the sweep.
const M: usize = 8;

/// Exact flat comparisons (and the sketch-error probe) run only up to
/// this size; beyond it the flat columns are null.
const EXACT_LIMIT: usize = 2000;

/// The pooled axis: domains of 99 hosts and a hub, so n = 100 × domains.
const POOLED_DOMAINS: [usize; 3] = [10, 100, 1000];

/// `allowed` pool sizes on the pooled axis.
const POOLS: [usize; 2] = [64, 256];

/// The masked whole-graph solve is timed beside the pooled one up to
/// this size (balanced takes 87 s at n = 100 000).
const MASKED_LIMIT: usize = 1000;

/// The two-level axis: (domains, hosts per domain); each domain also
/// carries one hub, so n = domains × (hosts + 1). Large fabrics use
/// 50-node domains: small enough that the two probe solves stay well
/// under a millisecond, at the cost of exceeding
/// `route_approx::MAX_INTER_DOMAINS` at n = 100k (the sketch then
/// drops its inter-domain matrix and approximates with border legs
/// only — select latency is unaffected).
const FABRICS: [(usize, usize); 5] = [(20, 9), (100, 9), (200, 9), (200, 49), (2000, 49)];

fn flat_value(objective: Objective, sel: &Selection) -> f64 {
    match objective {
        Objective::Compute => sel.quality.min_cpu,
        Objective::Communication => sel.quality.min_bw,
        Objective::Balanced(_) => sel.score,
    }
}

/// Median of the wall-clock samples, in microseconds.
fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2] * 1e6
}

/// Mean relative error of the landmark bandwidth sketch against exact
/// bottleneck routing, over one sampled host per domain (all
/// cross-domain pairs, up to 16 domains).
fn sketch_bw_error(topo: &Topology, snap: &NetSnapshot) -> f64 {
    let hier = Hierarchy::new(topo);
    let sketch = RouteSketch::build(&hier, snap);
    let samples: Vec<_> = (0..hier.num_domains().min(16))
        .map(|d| hier.domain(d).computes()[0])
        .collect();
    let table = RouteTable::build_for_sources(topo, samples.iter().copied());
    let mut sum = 0.0;
    let mut count = 0usize;
    for (i, &a) in samples.iter().enumerate() {
        for &b in &samples[i + 1..] {
            let exact = table
                .bottleneck_bw_in(snap, a, b)
                .expect("connected fabric");
            if exact > 0.0 && exact.is_finite() {
                sum += (sketch.approx_bw(&hier, a, b) - exact).abs() / exact;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Panics unless `doc` carries the scaling section this bench (and the
/// CI smoke step) promises: the schema-drift tripwire.
fn validate_schema(doc: &serde_json::Value) {
    let s = doc
        .get("scaling")
        .expect("BENCH_scaling.json lost its scaling section");
    for key in ["smoke", "m", "iters", "flat_growth", "rows"] {
        assert!(s.get(key).is_some(), "scaling section lost `{key}`");
    }
    for key in ["sizes", "ms", "max_bandwidth_ms", "exponent"] {
        assert!(
            s["flat_growth"].get(key).is_some(),
            "flat_growth lost `{key}`"
        );
    }
    let rows = s["rows"].as_array().expect("scaling rows is an array");
    assert!(!rows.is_empty(), "scaling rows is empty");
    for row in rows {
        for key in [
            "n",
            "domains",
            "objective",
            "prime_ms",
            "reprime_ms",
            "two_level_select_us",
            "two_level_value",
            "flat_select_us",
            "flat_value",
            "rel_error",
            "error_bound_rel",
            "sketch_bw_mean_rel_err",
        ] {
            assert!(row.get(key).is_some(), "scaling row lost `{key}`: {row}");
        }
        let objective = row["objective"].as_str().expect("objective is a string");
        assert!(
            ["max_bandwidth", "balanced"].contains(&objective),
            "unknown objective label {objective:?}"
        );
    }
}

/// Panics unless `doc` carries the pooled section in the promised shape.
fn validate_pooled_schema(doc: &serde_json::Value) {
    let s = doc
        .get("pooled_growth")
        .expect("BENCH_scaling.json lost its pooled_growth section");
    for key in ["smoke", "m", "iters", "rows"] {
        assert!(s.get(key).is_some(), "pooled_growth section lost `{key}`");
    }
    let rows = s["rows"].as_array().expect("pooled rows is an array");
    assert!(!rows.is_empty(), "pooled rows is empty");
    for row in rows {
        for key in [
            "n",
            "pool",
            "objective",
            "view_nodes",
            "select_us",
            "masked_select_us",
        ] {
            assert!(row.get(key).is_some(), "pooled row lost `{key}`: {row}");
        }
        assert!(row["select_us"].as_f64().is_some_and(|us| us > 0.0));
        let small = row["n"].as_u64().expect("n is a count") as usize <= MASKED_LIMIT;
        assert_eq!(
            row["masked_select_us"].is_number(),
            small,
            "the masked column is filled exactly up to n = {MASKED_LIMIT}: {row}"
        );
    }
}

/// The pooled-growth sweep; see the module docs.
fn pooled_growth(smoke: bool, iters: usize) {
    eprintln!("\n=== Pooled requests, m = {M} (median of {iters} solves) ===");
    eprintln!(
        "{:>7} {:>5} {:<14} {:>10} {:>11} {:>11}",
        "n", "pool", "objective", "view_nodes", "select_us", "masked_us"
    );
    let mut rows = Vec::new();
    for &domains in &POOLED_DOMAINS {
        let n = domains * 100;
        if smoke && n > 10_000 {
            continue;
        }
        let (topo, members) = conditioned_hierarchy(11, domains, 99);
        assert_eq!(topo.node_count(), n);
        let hosts: Vec<NodeId> = members.into_iter().flatten().collect();
        let snap = NetSnapshot::capture(Arc::new(topo));
        for &pool_size in &POOLS {
            let mut rng = StdRng::seed_from_u64(11 + pool_size as u64);
            let mut pool = HashSet::new();
            while pool.len() < pool_size {
                pool.insert(hosts[rng.random_range(0..hosts.len())]);
            }
            let members: Vec<NodeId> = pool.iter().copied().collect();
            let view_nodes = snap
                .structure_arc()
                .logical_topology(&members)
                .expect("hierarchical fabrics are trees")
                .nodes
                .len();
            for (label, mut request) in [
                ("max_compute", SelectionRequest::compute(M)),
                ("max_bandwidth", SelectionRequest::communication(M)),
                ("balanced", SelectionRequest::balanced(M)),
            ] {
                request.constraints.allowed = Some(pool.clone());
                let time = |solve: &dyn Fn() -> Selection| {
                    let samples = (0..iters)
                        .map(|_| {
                            let t = Instant::now();
                            std::hint::black_box(solve());
                            t.elapsed().as_secs_f64()
                        })
                        .collect();
                    median_us(samples)
                };
                let select_us = time(&|| {
                    selector_for(request.objective)
                        .select(&snap, &request)
                        .unwrap()
                });
                let masked_us = (n <= MASKED_LIMIT)
                    .then(|| time(&|| select_masked(&snap, &request).unwrap().0));
                eprintln!(
                    "{n:>7} {pool_size:>5} {label:<14} {view_nodes:>10} {select_us:>11.1} {:>11}",
                    masked_us.map_or("-".into(), |us| format!("{us:.1}")),
                );
                rows.push(serde_json::json!({
                    "n": n,
                    "pool": pool_size,
                    "objective": label,
                    "view_nodes": view_nodes,
                    "select_us": select_us,
                    "masked_select_us": masked_us,
                }));
            }
        }
    }
    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json"),
        "pooled_growth",
        serde_json::json!({
            "smoke": smoke,
            "m": M,
            "iters": iters,
            "rows": rows,
        }),
        validate_pooled_schema,
    );
}

fn main() {
    let smoke = smoke_requested();
    let (iters, flat_reps) = if smoke { (5, 2) } else { (51, 5) };

    // --- Flat growth: the §3.2 complexity check. ---
    let growth_sizes: &[usize] = if smoke {
        &[50, 100, 200]
    } else {
        &[50, 100, 200, 400, 800]
    };
    let mut growth_ms = Vec::new();
    let mut growth_maxbw_ms = Vec::new();
    eprintln!("\n=== Complexity check (flat selection, m = {M}) ===");
    eprintln!(
        "{:>10} {:>14} {:>14}",
        "nodes", "balanced (ms)", "maxbw (ms)"
    );
    for &n in growth_sizes {
        let (topo, ids) = conditioned_tree(11, n);
        let m = M.min(ids.len());
        let t = Instant::now();
        for _ in 0..flat_reps {
            balanced(
                &topo,
                m,
                Weights::EQUAL,
                &Constraints::none(),
                None,
                GreedyPolicy::Sweep,
            )
            .unwrap();
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / flat_reps as f64;
        let t = Instant::now();
        for _ in 0..flat_reps {
            max_bandwidth(&topo, m, &Constraints::none()).unwrap();
        }
        let maxbw_ms = t.elapsed().as_secs_f64() * 1e3 / flat_reps as f64;
        eprintln!("{n:>10} {ms:>14.3} {maxbw_ms:>14.3}");
        growth_ms.push(ms);
        growth_maxbw_ms.push(maxbw_ms);
    }
    let exponent = (growth_ms[growth_ms.len() - 1] / growth_ms[0]).ln()
        / (growth_sizes[growth_sizes.len() - 1] as f64 / growth_sizes[0] as f64).ln();
    eprintln!("  growth exponent (balanced) ≈ {exponent:.2} (paper claims O(n²))");

    // --- Two-level sweep. ---
    eprintln!("\n=== Two-level selection, m = {M} (median of {iters} steady-state selects) ===");
    eprintln!(
        "{:>7} {:>8} {:<14} {:>10} {:>11} {:>12} {:>12} {:>10} {:>11}",
        "n",
        "domains",
        "objective",
        "prime_ms",
        "reprime_ms",
        "select_us",
        "flat_us",
        "rel_err",
        "bound_rel"
    );
    let mut rows = Vec::new();
    for &(domains, hosts) in &FABRICS {
        let n = domains * (hosts + 1);
        if smoke && n > EXACT_LIMIT {
            continue;
        }
        let (topo, _) = conditioned_hierarchy(11, domains, hosts);
        assert_eq!(topo.node_count(), n);
        let snap = NetSnapshot::capture(Arc::new(topo.clone()));
        let sketch_err = (n <= EXACT_LIMIT).then(|| sketch_bw_error(&topo, &snap));
        for (label, request) in [
            ("max_bandwidth", SelectionRequest::communication(M)),
            ("balanced", SelectionRequest::balanced(M)),
        ] {
            // Warm the heap first: the very first hierarchy build after
            // a fresh 100k-node allocation pays page-fault/zeroing costs
            // 5-20x the rebuild work itself, which would swamp prime_ms.
            {
                let mut warm = TwoLevelSelector::new();
                std::hint::black_box(warm.select(&snap, &request).unwrap());
            }
            let mut two = TwoLevelSelector::new();
            let t = Instant::now();
            two.select(&snap, &request).unwrap();
            let prime_ms = t.elapsed().as_secs_f64() * 1e3;
            let samples = (0..iters)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(two.select(&snap, &request).unwrap());
                    t.elapsed().as_secs_f64()
                })
                .collect();
            let select_us = median_us(samples);
            // Re-prime on a fresh structure Arc: the cost of a
            // structural epoch (hierarchy, route sketch and summaries
            // rebuilt; the sketch legs and summary scans fan out over
            // the available cores). Median of 3 rebuild cycles.
            let reprime_samples: Vec<f64> = (0..3)
                .map(|_| {
                    let resnap = NetSnapshot::capture(Arc::new(topo.clone()));
                    let t = Instant::now();
                    std::hint::black_box(two.select(&resnap, &request).unwrap());
                    t.elapsed().as_secs_f64()
                })
                .collect();
            let reprime_ms = median_us(reprime_samples) / 1e3;
            let outcome = two.last_outcome().expect("unconstrained multi-domain");
            let achieved = outcome.achieved;
            let error_bound = outcome.error_bound;

            // Exact flat comparison where feasible.
            let flat = (n <= EXACT_LIMIT).then(|| {
                let samples = (0..flat_reps)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(select(&topo, &request).unwrap());
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                let us = median_us(samples);
                (
                    us,
                    flat_value(request.objective, &select(&topo, &request).unwrap()),
                )
            });
            let rel_error = flat.map(|(_, fv)| {
                let regret = if fv <= achieved { 0.0 } else { fv - achieved };
                if fv.is_finite() && fv > 0.0 {
                    regret / fv
                } else {
                    0.0
                }
            });
            let error_bound_rel = flat.map(|(_, fv)| {
                if fv.is_finite() && fv > 0.0 && error_bound.is_finite() {
                    error_bound / fv
                } else {
                    0.0
                }
            });

            eprintln!(
                "{n:>7} {domains:>8} {label:<14} {prime_ms:>10.2} {reprime_ms:>11.2} {select_us:>12.1} {:>12} {:>10} {:>11}",
                flat.map_or("-".into(), |(us, _)| format!("{us:.1}")),
                rel_error.map_or("-".into(), |e| format!("{e:.4}")),
                error_bound_rel.map_or("-".into(), |e| format!("{e:.4}")),
            );
            rows.push(serde_json::json!({
                "n": n,
                "domains": domains,
                "objective": label,
                "prime_ms": prime_ms,
                "reprime_ms": reprime_ms,
                "two_level_select_us": select_us,
                "two_level_value": achieved,
                "flat_select_us": flat.map(|(us, _)| us),
                "flat_value": flat.map(|(_, fv)| fv),
                "rel_error": rel_error,
                "error_bound_rel": error_bound_rel,
                "sketch_bw_mean_rel_err": sketch_err,
            }));
        }
    }

    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json"),
        "scaling",
        serde_json::json!({
            "smoke": smoke,
            "m": M,
            "iters": iters,
            "flat_growth": {
                "sizes": growth_sizes,
                "ms": growth_ms,
                "max_bandwidth_ms": growth_maxbw_ms,
                "exponent": exponent,
            },
            "rows": rows,
        }),
        validate_schema,
    );

    pooled_growth(smoke, iters);
}
