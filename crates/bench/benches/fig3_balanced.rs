//! Regenerates **Figure 3** (the balanced computation/communication
//! selection algorithm): demonstrates it on a conditioned testbed and
//! times it across topology sizes and both greedy policies.

use nodesel_bench::{conditioned_tree, time_one};
use nodesel_core::{balanced, Constraints, GreedyPolicy, Weights};
use std::hint::black_box;

fn main() {
    let (topo, _) = conditioned_tree(9, 40);
    let sel = balanced(
        &topo,
        6,
        Weights::EQUAL,
        &Constraints::none(),
        None,
        GreedyPolicy::Sweep,
    )
    .unwrap();
    eprintln!("\n=== Figure 3: balanced selection (40-node tree, m=6) ===");
    eprintln!(
        "selected {:?}; min cpu {:.2}, min bw fraction {:.2}, balanced score {:.2} ({} rounds)",
        sel.nodes.iter().map(|n| n.index()).collect::<Vec<_>>(),
        sel.quality.min_cpu,
        sel.quality.min_bwfraction,
        sel.score,
        sel.iterations
    );

    eprintln!(
        "{:>6} {:>14} {:>12}",
        "nodes", "faithful (us)", "sweep (us)"
    );
    for nodes in [20usize, 40, 80, 160, 320] {
        let (topo, ids) = conditioned_tree(9, nodes);
        let m = 6.min(ids.len());
        let [faithful, sweep] = [GreedyPolicy::Faithful, GreedyPolicy::Sweep].map(|policy| {
            time_one(
                || {
                    black_box(
                        balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, policy)
                            .unwrap(),
                    );
                },
                3,
            )
        });
        eprintln!("{nodes:>6} {:>14.1} {:>12.1}", faithful * 1e6, sweep * 1e6);
    }
}
