//! Scaffolding for the faulty-federation case of the flow-engine parity
//! suite: a federated topology, subnet-confined churn with a per-subnet
//! fault plan, and one traced run of it.

use nodesel_simnet::{
    install_faults, DriverId, DriverLogic, FaultAction, FaultPlan, Flap, FlapTarget, FlowEngine,
    Sim, SimStats, SimTime, TraceEvent,
};
use nodesel_topology::units::MBPS;
use nodesel_topology::{NodeId, Topology};

/// Everything a run can observe: final clock, counters, full trace.
pub type RunResult = (SimTime, SimStats, Vec<TraceEvent>);

/// Deterministic churn confined to one subnet: periodic compute jobs
/// and intra-subnet transfers, all derived from the driver counter so
/// two installations with the same `k` are bit-identical.
#[derive(Clone)]
pub struct Churn {
    pub nodes: Vec<NodeId>,
    pub k: u64,
}

impl DriverLogic for Churn {
    fn fire(&mut self, sim: &mut Sim, me: DriverId) {
        self.k += 1;
        let a = self.nodes[(self.k as usize) % self.nodes.len()];
        let b = self.nodes[(self.k as usize * 7 + 3) % self.nodes.len()];
        sim.start_compute_detached(a, 0.2 + (self.k % 5) as f64 * 0.1);
        if a != b {
            sim.start_transfer_detached(a, b, MBPS * (1 + self.k % 7) as f64);
        }
        sim.schedule_driver_in(0.05 + (self.k % 13) as f64 * 0.017, me);
    }
}

/// `k` disconnected 3-host star subnets.
pub fn federation(k: usize) -> (Topology, Vec<Vec<NodeId>>) {
    let mut topo = Topology::new();
    let mut subnets = Vec::new();
    for s in 0..k {
        let hub = topo.add_network_node(format!("s{s}-hub"));
        let mut hosts = Vec::new();
        for h in 0..3 {
            let n = topo.add_compute_node(format!("s{s}-h{h}"), 1.0);
            topo.add_link(hub, n, 100.0 * MBPS);
            hosts.push(n);
        }
        subnets.push(hosts);
    }
    (topo, subnets)
}

/// Installs per-subnet churn and a per-subnet fault plan (scheduled
/// crash/reboot plus a stochastic node flap).
fn install_scenario(sim: &mut Sim, subnets: &[Vec<NodeId>], seed: u64) {
    for (s, hosts) in subnets.iter().enumerate() {
        let d = sim.install_driver(Churn {
            nodes: hosts.clone(),
            k: seed.wrapping_mul(31).wrapping_add(s as u64 * 1000),
        });
        sim.schedule_driver_in(0.01 * s as f64, d);
        install_faults(
            sim,
            &FaultPlan {
                scheduled: vec![
                    (6.0 + s as f64 * 0.3, FaultAction::CrashNode(hosts[2])),
                    (11.0 + s as f64 * 0.3, FaultAction::RebootNode(hosts[2])),
                ],
                flaps: vec![Flap {
                    target: FlapTarget::Node(hosts[1]),
                    mean_up: 9.0,
                    mean_down: 1.5,
                }],
                seed: seed ^ ((s as u64) << 8),
            },
        );
    }
}

/// Runs the faulty scenario to `horizon` seconds on the given flow
/// engine.
pub fn faulty_run(
    topo: &Topology,
    subnets: &[Vec<NodeId>],
    seed: u64,
    horizon: f64,
    engine: FlowEngine,
) -> RunResult {
    let mut sim = Sim::with_flow_engine(topo.clone(), engine);
    sim.enable_trace(usize::MAX);
    install_scenario(&mut sim, subnets, seed);
    sim.run_until(SimTime::from_secs_f64(horizon));
    let (trace, dropped) = sim.take_trace();
    assert_eq!(dropped, 0);
    (sim.now(), sim.stats(), trace)
}
