//! Regenerates **Figure 2** (the max-bandwidth selection algorithm): runs
//! it on a conditioned testbed, shows the selected set, and times the
//! algorithm across topology sizes.

use nodesel_bench::{conditioned_tree, time_one};
use nodesel_core::{max_bandwidth, Constraints};
use nodesel_topology::units::MBPS;
use std::hint::black_box;

fn main() {
    // Demonstrate the algorithm once on a conditioned tree.
    let (topo, _) = conditioned_tree(7, 40);
    let sel = max_bandwidth(&topo, 6, &Constraints::none()).unwrap();
    eprintln!("\n=== Figure 2: max-bandwidth selection (40-node tree, m=6) ===");
    eprintln!(
        "selected {:?}; min pairwise available bandwidth {:.1} Mbps after {} edge-deletion rounds",
        sel.nodes.iter().map(|n| n.index()).collect::<Vec<_>>(),
        sel.quality.min_bw / MBPS,
        sel.iterations
    );

    eprintln!("{:>6} {:>12}", "nodes", "select (us)");
    for nodes in [20usize, 40, 80, 160, 320] {
        let (topo, ids) = conditioned_tree(7, nodes);
        let m = 6.min(ids.len());
        let secs = time_one(
            || {
                black_box(max_bandwidth(&topo, m, &Constraints::none()).unwrap());
            },
            3,
        );
        eprintln!("{nodes:>6} {:>12.1}", secs * 1e6);
    }
}
