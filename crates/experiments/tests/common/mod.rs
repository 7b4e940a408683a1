//! Shared by the fault proptests of this crate.

use nodesel_simnet::{FaultAction, FaultPlan, Flap, FlapTarget};
use nodesel_topology::testbeds::cmu_testbed;
use nodesel_topology::{EdgeId, NodeId};

/// Decodes raw proptest words into a `FaultPlan` over the CMU testbed:
/// scheduled actions plus stochastic flaps with short dwells (up-dwells
/// of at least `min_up` seconds). Times are tenths of a second; indices
/// wrap over the edge and machine lists so every draw is valid.
pub fn decode_fault_plan(
    raw_sched: &[(u32, u8, u16)],
    raw_flaps: &[(u8, u16, u32, u32)],
    min_up: f64,
    seed: u64,
) -> FaultPlan {
    let tb = cmu_testbed();
    let edges: Vec<EdgeId> = tb.topo.edge_ids().collect();
    let machines: Vec<NodeId> = tb.machines.clone();
    let pick_e = |i: u16| edges[i as usize % edges.len()];
    let pick_m = |i: u16| machines[i as usize % machines.len()];
    let group = |i: u16| -> Vec<NodeId> {
        let len = 1 + i as usize % 4;
        (0..len)
            .map(|k| machines[(i as usize + k) % machines.len()])
            .collect()
    };
    let scheduled = raw_sched
        .iter()
        .map(|&(t, kind, idx)| {
            let action = match kind % 6 {
                0 => FaultAction::LinkDown(pick_e(idx)),
                1 => FaultAction::LinkUp(pick_e(idx)),
                2 => FaultAction::CrashNode(pick_m(idx)),
                3 => FaultAction::RebootNode(pick_m(idx)),
                4 => FaultAction::Partition(group(idx)),
                _ => FaultAction::Heal(group(idx)),
            };
            (t as f64 * 0.1, action)
        })
        .collect();
    let flaps = raw_flaps
        .iter()
        .map(|&(kind, idx, up, down)| Flap {
            target: if kind % 2 == 0 {
                FlapTarget::Link(pick_e(idx))
            } else {
                FlapTarget::Node(pick_m(idx))
            },
            mean_up: min_up + up as f64 * 0.01,
            mean_down: 0.5 + down as f64 * 0.01,
        })
        .collect();
    FaultPlan {
        scheduled,
        flaps,
        seed,
    }
}
