//! Scaling sweep: flat growth check, and pooled requests out to
//! n = 100k.
//!
//! Two experiments share this bin:
//!
//! * **Flat growth** — the §3.2 complexity claim on the flat engines: a
//!   log-log sweep of `balanced` (and, beside it, `max_bandwidth`) over
//!   random trees with the fitted growth exponent of `balanced` (the
//!   paper claims O(n²); both engines are one sort and one union-find
//!   pass), and one unpooled `balanced` solve on `hierarchical(1000, 99)`
//!   — the whole-graph cost a pool chooser in front of the exact path
//!   would have to beat (ROADMAP, Parked).
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
//! fails on drift). The file's `history` keeps the last rows of the
//! two-level sweep this bin used to run (DESIGN.md "Two-level selection
//! (removed)"). `--test`/`--smoke` shortens the flat sweep, truncates
//! the pooled one at n = 10 000 and writes nothing; measured numbers are
//! whatever this machine gives, reported as measured.

use nodesel_bench::{conditioned_hierarchy, conditioned_tree};
use nodesel_core::{
    balanced, max_bandwidth, select_masked, selector_for, Constraints, GreedyPolicy, Selection,
    SelectionRequest, Weights,
};
use nodesel_experiments::{record, smoke_requested};
use nodesel_topology::{NetSnapshot, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Requested set size throughout the sweep.
const M: usize = 8;

/// The pooled axis: domains of 99 hosts and a hub, so n = 100 × domains.
const POOLED_DOMAINS: [usize; 3] = [10, 100, 1000];

/// `allowed` pool sizes on the pooled axis.
const POOLS: [usize; 2] = [64, 256];

/// The masked whole-graph solve is timed beside the pooled one up to
/// this size: it is the shape where building the view could cost more
/// than it saves. `flat_growth.unpooled_hierarchy` has the whole-graph
/// cost at n = 100 000.
const MASKED_LIMIT: usize = 1000;

/// Median of the wall-clock samples, in microseconds.
fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2] * 1e6
}

/// Panics unless `doc` carries the scaling section this bench (and the
/// CI smoke step) promises: the schema-drift tripwire.
fn validate_schema(doc: &serde_json::Value) {
    let s = doc
        .get("scaling")
        .expect("BENCH_scaling.json lost its scaling section");
    for key in ["smoke", "m", "iters", "flat_growth"] {
        assert!(s.get(key).is_some(), "scaling section lost `{key}`");
    }
    for key in [
        "sizes",
        "ms",
        "max_bandwidth_ms",
        "exponent",
        "unpooled_hierarchy",
    ] {
        assert!(
            s["flat_growth"].get(key).is_some(),
            "flat_growth lost `{key}`"
        );
    }
    let unpooled = &s["flat_growth"]["unpooled_hierarchy"];
    assert!(unpooled["n"].as_u64().is_some_and(|n| n > 0));
    assert!(unpooled["balanced_ms"].as_f64().is_some_and(|ms| ms > 0.0));
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

    // One unpooled request on the pooled sweep's largest fabric (a tenth
    // of it on a smoke run): every host eligible, the whole graph solved.
    let unpooled_domains = if smoke { 100 } else { 1000 };
    let (fabric, _) = conditioned_hierarchy(11, unpooled_domains, 99);
    let unpooled_ms = median_us(
        (0..flat_reps)
            .map(|_| {
                let t = Instant::now();
                let solved = balanced(
                    &fabric,
                    M,
                    Weights::EQUAL,
                    &Constraints::none(),
                    None,
                    GreedyPolicy::Sweep,
                );
                std::hint::black_box(solved.unwrap());
                t.elapsed().as_secs_f64()
            })
            .collect(),
    ) / 1e3;
    eprintln!("  unpooled balanced on hierarchical({unpooled_domains}, 99): {unpooled_ms:.1} ms");

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
                "unpooled_hierarchy": {
                    "n": fabric.node_count(),
                    "balanced_ms": unpooled_ms,
                },
            },
        }),
        validate_schema,
    );

    pooled_growth(smoke, iters);
}
