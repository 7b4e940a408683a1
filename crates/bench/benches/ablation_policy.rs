//! Ablation A3: the §3.3 generalizations.
//!
//! * Greedy termination policy: Figure 3 verbatim (`Faithful`) vs the
//!   sweep-to-exhaustion variant (`Sweep`) — solution quality and cost.
//! * Priority factors: how the selected set shifts as computation or
//!   communication is prioritized.
//! * Fixed bandwidth floors: maximize CPU under a minimum-bandwidth
//!   constraint.

use nodesel_bench::{conditioned_tree, time_one};
use nodesel_core::{balanced, max_compute, Constraints, GreedyPolicy, Weights};
use nodesel_topology::units::MBPS;
use std::hint::black_box;

fn main() {
    // Solution-quality comparison across many seeded instances.
    let instances = 200;
    let mut faithful_wins = 0usize;
    let mut sweep_wins = 0usize;
    let mut ties = 0usize;
    let mut faithful_score = 0.0;
    let mut sweep_score = 0.0;
    for seed in 0..instances {
        let (topo, ids) = conditioned_tree(seed, 30);
        let m = 5.min(ids.len());
        let f = balanced(
            &topo,
            m,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Faithful,
        )
        .unwrap();
        let s = balanced(
            &topo,
            m,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        faithful_score += f.score;
        sweep_score += s.score;
        if (f.score - s.score).abs() < 1e-12 {
            ties += 1;
        } else if f.score > s.score {
            faithful_wins += 1;
        } else {
            sweep_wins += 1;
        }
    }
    eprintln!("\n=== Ablation: greedy policy (200 random 30-node instances, m=5) ===");
    eprintln!(
        "  ties {ties}, sweep better {sweep_wins}, faithful better {faithful_wins} (faithful can never win: it is a prefix of the sweep)"
    );
    eprintln!(
        "  mean balanced score: faithful {:.3}, sweep {:.3}",
        faithful_score / instances as f64,
        sweep_score / instances as f64
    );

    // Priority-factor sweep on one instance.
    let (topo, ids) = conditioned_tree(3, 30);
    let m = 5.min(ids.len());
    eprintln!("=== Ablation: priority factor sweep (one 30-node instance) ===");
    for factor in [4.0f64, 2.0, 1.0] {
        let sel = balanced(
            &topo,
            m,
            Weights::compute_priority(factor),
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        eprintln!(
            "  compute priority {factor}: min cpu {:.2}, min bw fraction {:.2}",
            sel.quality.min_cpu, sel.quality.min_bwfraction
        );
    }
    for factor in [2.0f64, 4.0] {
        let sel = balanced(
            &topo,
            m,
            Weights::comm_priority(factor),
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        eprintln!(
            "  comm priority {factor}: min cpu {:.2}, min bw fraction {:.2}",
            sel.quality.min_cpu, sel.quality.min_bwfraction
        );
    }

    // Fixed bandwidth floor.
    eprintln!("=== Ablation: fixed bandwidth floor (maximize CPU subject to bw ≥ B) ===");
    for floor_mbps in [10.0f64, 30.0, 60.0] {
        let constraints = Constraints {
            min_bandwidth: Some(floor_mbps * MBPS),
            ..Constraints::none()
        };
        match max_compute(&topo, m, &constraints) {
            Ok(sel) => eprintln!(
                "  floor {floor_mbps:>4.0} Mbps: min cpu {:.2}, min bw {:.1} Mbps",
                sel.quality.min_cpu,
                sel.quality.min_bw / MBPS
            ),
            Err(e) => eprintln!("  floor {floor_mbps:>4.0} Mbps: {e}"),
        }
    }

    eprintln!("=== Cost: one balanced selection per policy (100-node instance, m=8) ===");
    let (topo, ids) = conditioned_tree(3, 100);
    let m = 8.min(ids.len());
    for policy in [GreedyPolicy::Faithful, GreedyPolicy::Sweep] {
        let secs = time_one(
            || {
                black_box(
                    balanced(&topo, m, Weights::EQUAL, &Constraints::none(), None, policy).unwrap(),
                );
            },
            3,
        );
        eprintln!("  {:<10} {:>8.1} us", format!("{policy:?}"), secs * 1e6);
    }
}
