//! Logical topology vs. end-to-end tomography (§2.2 / §5).
//!
//! The paper's case for Remos over NWS-style pairwise measurement is that
//! the logical topology "offers a more efficient and scalable solution"
//! and lets the algorithm "directly eliminate busy links". This
//! experiment measures that gap: identical trials where the automatic
//! strategy selects either from the collector's logical topology or from
//! a topology *inferred* from `O(n²)` pairwise flow measurements
//! ([`nodesel_remos::inference`]), across increasing measurement noise.

use crate::driver::{Condition, TrialConfig};
use nodesel_apps::AppModel;
use nodesel_core::{
    balanced, Constraints, FlatSelector, GreedyPolicy, SelectionRequest, Selector, Weights,
};
use nodesel_loadgen::{install_load, install_traffic};
use nodesel_remos::inference::{infer_topology, measure_all_pairs};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::Sim;
use nodesel_topology::testbeds::cmu_testbed;
use nodesel_topology::units::MBPS;
use nodesel_topology::NodeId;

/// How the automatic selection sees the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The collector's logical topology (the paper's approach).
    LogicalTopology,
    /// A topology inferred from pairwise end-to-end measurements
    /// (what an NWS-style system could build).
    Tomography,
}

/// Runs one trial with the chosen network view; returns the turnaround.
pub fn run_view_trial(
    app: &AppModel,
    m: usize,
    view: View,
    condition: Condition,
    config: &TrialConfig,
    seed: u64,
) -> f64 {
    let tb = cmu_testbed();
    let machines = tb.machines.clone();
    let mut sim = Sim::new(tb.topo.clone());
    let remos = Remos::install(
        &mut sim,
        CollectorConfig {
            estimator: config.estimator,
            ..config.collector
        },
    );
    if matches!(condition, Condition::Load | Condition::Both) {
        install_load(&mut sim, &machines, config.load, seed ^ 0x10AD);
    }
    if matches!(condition, Condition::Traffic | Condition::Both) {
        install_traffic(&mut sim, &machines, config.traffic, seed ^ 0x7AFF1C);
    }
    sim.run_for(config.warmup);

    let nodes: Vec<NodeId> = match view {
        View::LogicalTopology => {
            let mut selector = FlatSelector::new();
            selector
                .select(&remos.snapshot(&sim), &SelectionRequest::balanced(m))
                .expect("nodes")
                .nodes
        }
        View::Tomography => {
            let (obs, pairs) =
                measure_all_pairs(&remos, &sim, &machines, config.estimator).expect("measurable");
            let inferred = infer_topology(&obs, &pairs).expect("inferable");
            // Fractional bandwidth needs a reference: peak capacities are
            // not observable end-to-end.
            let sel = balanced(
                &inferred,
                m,
                Weights::EQUAL,
                &Constraints::none(),
                Some(100.0 * MBPS),
                GreedyPolicy::Sweep,
            )
            .expect("nodes");
            // Map inferred node ids back to testbed ids by name.
            sel.nodes
                .iter()
                .map(|&n| {
                    tb.topo
                        .node_by_name(inferred.node(n).name())
                        .expect("same names")
                })
                .collect()
        }
    };

    let handle = app.launch(&mut sim, &nodes);
    while !handle.is_finished() {
        assert!(sim.step(), "drained early");
    }
    handle.elapsed().expect("finished")
}

/// Mean over seeded repetitions.
pub fn run_view_trials(
    app: &AppModel,
    m: usize,
    view: View,
    condition: Condition,
    config: &TrialConfig,
    base_seed: u64,
    reps: usize,
) -> f64 {
    (0..reps)
        .map(|rep| {
            run_view_trial(
                app,
                m,
                view,
                condition,
                config,
                base_seed.wrapping_add(104_729 * rep as u64),
            )
        })
        .sum::<f64>()
        / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_apps::fft::fft_program;

    #[test]
    fn both_views_produce_valid_runs() {
        let cfg = TrialConfig::default();
        let app = AppModel::Phased(fft_program(4));
        let a = run_view_trial(&app, 4, View::LogicalTopology, Condition::Load, &cfg, 3);
        let b = run_view_trial(&app, 4, View::Tomography, Condition::Load, &cfg, 3);
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn tomography_is_competitive_without_noise() {
        // With exact measurements the ultrametric reconstruction carries
        // the same information; quality should be in the same ballpark.
        let cfg = TrialConfig::default();
        let app = AppModel::Phased(fft_program(12));
        let reps = 6;
        let logical = run_view_trials(
            &app,
            4,
            View::LogicalTopology,
            Condition::Both,
            &cfg,
            17,
            reps,
        );
        let tomo = run_view_trials(&app, 4, View::Tomography, Condition::Both, &cfg, 17, reps);
        assert!(
            tomo < logical * 1.5,
            "noise-free tomography should be competitive: {tomo} vs {logical}"
        );
    }

    #[test]
    fn deterministic() {
        let cfg = TrialConfig::default();
        let app = AppModel::Phased(fft_program(4));
        let a = run_view_trial(&app, 4, View::Tomography, Condition::Both, &cfg, 5);
        let b = run_view_trial(&app, 4, View::Tomography, Condition::Both, &cfg, 5);
        assert_eq!(a, b);
    }
}
