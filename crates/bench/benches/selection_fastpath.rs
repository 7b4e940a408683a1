//! Fast path vs. reference loops: the selection-core speedup bench.
//!
//! Benchmarks the public near-linear engines (`max_bandwidth`, `balanced`)
//! against the paper-faithful O(E²) references they are asserted
//! byte-identical to, across topology sizes
//! (the references are `nodesel-core`'s `oracle` feature, which this
//! crate's benches turn on). The speedup table it prints is the
//! performance acceptance check: the fast paths must not regress below
//! ~10× on `max_bandwidth` and ~5× on `balanced` at n = 1000.

use nodesel_bench::{conditioned_tree, time_one};
use nodesel_core::{
    balanced, balanced_reference, max_bandwidth, max_bandwidth_reference, Constraints,
    GreedyPolicy, Weights,
};
use std::hint::black_box;

const SIZES: [usize; 3] = [50, 200, 1000];

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
}
