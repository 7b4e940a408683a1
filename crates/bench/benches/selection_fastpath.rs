//! Fast path vs. reference loops: the selection-core speedup bench.
//!
//! Benchmarks the public near-linear engines (`max_bandwidth`, `balanced`,
//! `exhaustive_select`) against the paper-faithful O(E²) / unpruned
//! references they are asserted byte-identical to, across topology sizes
//! (the references are `nodesel-core`'s `oracle` feature, which this
//! crate's benches turn on). The speedup table it prints is the
//! performance acceptance check: the fast paths must not regress below
//! ~10× on `max_bandwidth` and ~5× on `balanced` at n = 1000.

use nodesel_bench::conditioned_tree;
use nodesel_core::{
    balanced, balanced_reference, exhaustive_select, exhaustive_select_reference, max_bandwidth,
    max_bandwidth_reference, Constraints, ExhaustiveObjective, GreedyPolicy, Weights,
};
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 3] = [50, 200, 1000];

/// Median-of-`iters` wall time of one call, in seconds.
fn time_one(mut f: impl FnMut(), iters: usize) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    eprintln!("\n=== selection fast paths vs reference loops (median of 3) ===");
    eprintln!(
        "{:<14} {:>6} {:>14} {:>14} {:>9}",
        "algorithm", "nodes", "reference (s)", "fast (s)", "speedup"
    );
    for nodes in SIZES {
        let (topo, ids) = conditioned_tree(7, nodes);
        let m = 6.min(ids.len());
        let c = Constraints::none();
        let slow = time_one(
            || {
                black_box(max_bandwidth_reference(&topo, m, &c).unwrap());
            },
            3,
        );
        let fast = time_one(
            || {
                black_box(max_bandwidth(&topo, m, &c).unwrap());
            },
            3,
        );
        eprintln!(
            "{:<14} {:>6} {:>14.6} {:>14.6} {:>8.1}x",
            "max_bandwidth",
            nodes,
            slow,
            fast,
            slow / fast
        );
        let slow = time_one(
            || {
                black_box(
                    balanced_reference(&topo, m, Weights::EQUAL, &c, None, GreedyPolicy::Sweep)
                        .unwrap(),
                );
            },
            3,
        );
        let fast = time_one(
            || {
                black_box(
                    balanced(&topo, m, Weights::EQUAL, &c, None, GreedyPolicy::Sweep).unwrap(),
                );
            },
            3,
        );
        eprintln!(
            "{:<14} {:>6} {:>14.6} {:>14.6} {:>8.1}x",
            "balanced",
            nodes,
            slow,
            fast,
            slow / fast
        );
    }
    // The oracle is exponential, so its comparison runs at a fixed small
    // size (C(18, 4) = 3060 subsets) rather than the sweep sizes.
    let (topo, ids) = conditioned_tree(11, 36);
    let m = 4.min(ids.len());
    let obj = ExhaustiveObjective::Balanced(Weights::EQUAL);
    let c = Constraints::none();
    let slow = time_one(
        || {
            black_box(exhaustive_select_reference(&topo, m, obj, &c, None).unwrap());
        },
        3,
    );
    let fast = time_one(
        || {
            black_box(exhaustive_select(&topo, m, obj, &c, None).unwrap());
        },
        3,
    );
    eprintln!(
        "{:<14} {:>6} {:>14.6} {:>14.6} {:>8.1}x",
        "exhaustive",
        36,
        slow,
        fast,
        slow / fast
    );
}
