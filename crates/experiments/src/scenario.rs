//! The Figure 4 worked scenario: automatic selection steering around a
//! bulk traffic stream on the CMU testbed.
//!
//! Figure 4 highlights "4 nodes (with bold borders) that were automatically
//! selected to avoid a traffic stream from m-16 to m-18". We reproduce it
//! end to end: start the stream, let the Remos collector observe it, run
//! the balanced selection, and verify that no route between selected nodes
//! shares a link with the stream.

use nodesel_core::{FlatSelector, SelectionRequest, Selector};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_simnet::Sim;
use nodesel_topology::dot::to_dot;
use nodesel_topology::testbeds::cmu_testbed;
use nodesel_topology::{EdgeId, NodeId};
use std::collections::HashSet;

/// Result of the scenario run.
#[derive(Debug, Clone)]
pub struct Fig4Outcome {
    /// Names of the four selected nodes (the bold nodes of Figure 4).
    pub selected: Vec<String>,
    /// Node ids of the selection.
    pub selected_ids: Vec<NodeId>,
    /// True when no selected pair's route shares a link with the stream.
    pub avoids_stream: bool,
    /// Graphviz rendering with the selected nodes emphasized.
    pub dot: String,
}

/// Runs the scenario: a persistent bulk stream `m-16 → m-18`, then a
/// 4-node automatic selection from Remos measurements.
pub fn run_fig4_scenario() -> Fig4Outcome {
    let tb = cmu_testbed();
    let topo = tb.topo.clone();
    let routes = topo.routes();
    let stream_links: HashSet<EdgeId> = routes
        .path(tb.m(16), tb.m(18))
        .expect("testbed is connected")
        .hops
        .iter()
        .map(|&(e, _)| e)
        .collect();

    let mut sim = Sim::new(tb.topo.clone());
    let remos = Remos::install(&mut sim, CollectorConfig::default());
    // A long-running bulk stream, as in the figure.
    sim.start_transfer(tb.m(16), tb.m(18), 1e15, |_| {});
    sim.run_for(60.0);

    let snapshot = remos.snapshot(&sim);
    let mut selector = FlatSelector::new();
    let selection = selector
        .select(&snapshot, &SelectionRequest::balanced(4))
        .expect("testbed has enough nodes");

    // Does any selected pair's route touch the stream's links?
    let mut avoids = true;
    for (i, &a) in selection.nodes.iter().enumerate() {
        for &b in selection.nodes.iter().skip(i + 1) {
            let path = routes.path(a, b).expect("connected");
            if path.hops.iter().any(|&(e, _)| stream_links.contains(&e)) {
                avoids = false;
            }
        }
    }

    let names = selection
        .nodes
        .iter()
        .map(|&n| topo.node(n).name().to_string())
        .collect();
    let dot = to_dot(&snapshot.to_topology(), &selection.nodes);
    Fig4Outcome {
        selected: names,
        selected_ids: selection.nodes,
        avoids_stream: avoids,
        dot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_avoids_the_stream() {
        let outcome = run_fig4_scenario();
        assert_eq!(outcome.selected.len(), 4);
        assert!(outcome.avoids_stream, "selected {:?}", outcome.selected);
        // The stream endpoints must not be selected.
        assert!(!outcome.selected.contains(&"m-16".to_string()));
        assert!(!outcome.selected.contains(&"m-18".to_string()));
        // The DOT output highlights exactly four nodes.
        assert_eq!(outcome.dot.matches("penwidth=2.5").count(), 4);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = run_fig4_scenario();
        let b = run_fig4_scenario();
        assert_eq!(a.selected, b.selected);
    }
}
