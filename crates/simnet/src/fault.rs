//! Fault injection: seeded plans of link failures, node crashes, and
//! subnet partitions, executed by a fork-safe driver.
//!
//! A [`FaultPlan`] is pure data: a list of scheduled actions (seconds
//! after installation) plus stochastic up/down [`Flap`] processes with
//! exponentially distributed dwell times drawn from a SplitMix64 stream
//! seeded by the plan. [`install_faults`] turns it into a
//! [`FaultDriver`] — a [`DriverLogic`] state machine living *inside* the
//! simulator — so a [`Sim::fork`](crate::Sim::fork) clones the remaining
//! schedule, the flap phases and the RNG states, and a forked run
//! replays the exact same failures.
//!
//! Semantics are the engine's: a downed link drops to zero effective
//! capacity (crossing flows starve at rate 0 and stall, the
//! administratively-down path); a crashed node kills its tasks, aborts
//! its endpoint flows and takes its incident links with it; a partition
//! cuts every link with exactly one endpoint inside the named group.

use crate::engine::{DriverId, DriverLogic, Sim};
use crate::time::SimTime;
use nodesel_topology::{EdgeId, NodeId, Topology};
use std::collections::HashSet;

/// One fault action, applied instantaneously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Take a link down (no-op if already down).
    LinkDown(EdgeId),
    /// Bring a link back up (no-op if already up).
    LinkUp(EdgeId),
    /// Crash a node (no-op if already down).
    CrashNode(NodeId),
    /// Reboot a crashed node (no-op if already up).
    RebootNode(NodeId),
    /// Partition the named group from the rest of the network: every
    /// link with exactly one endpoint in the group goes down.
    Partition(Vec<NodeId>),
    /// Heal a partition: the group's boundary links come back up (links
    /// that were downed independently come up too).
    Heal(Vec<NodeId>),
}

/// The target of a stochastic up/down process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlapTarget {
    /// A flapping link.
    Link(EdgeId),
    /// A node that repeatedly crashes and reboots.
    Node(NodeId),
}

/// A stochastic up/down process: exponentially distributed dwell times
/// in each state, alternating failure and repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flap {
    /// What flaps.
    pub target: FlapTarget,
    /// Mean seconds spent up before the next failure.
    pub mean_up: f64,
    /// Mean seconds spent down before repair.
    pub mean_down: f64,
}

/// A seeded, fully deterministic fault plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `(seconds after install, action)` pairs; equal-time actions
    /// execute in list order.
    pub scheduled: Vec<(f64, FaultAction)>,
    /// Stochastic flap processes, each with its own derived RNG stream.
    pub flaps: Vec<Flap>,
    /// Seed for the stochastic processes.
    pub seed: u64,
}

impl FaultPlan {
    /// True when the plan injects nothing: installing it schedules no
    /// events at all, so the run is bit-identical to one without it.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.flaps.is_empty()
    }
}

/// Counters of fault actions that actually changed state (a `LinkDown`
/// on an already-down link counts nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Links taken down (including partition boundary cuts).
    pub link_downs: u64,
    /// Links restored.
    pub link_ups: u64,
    /// Nodes crashed.
    pub crashes: u64,
    /// Nodes rebooted.
    pub reboots: u64,
}

impl FaultStats {
    /// Total state-changing fault events executed.
    pub fn total(&self) -> u64 {
        self.link_downs + self.link_ups + self.crashes + self.reboots
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential dwell with the given mean; strictly positive (the
/// uniform draw lands in `(0, 1]`, and the result is floored at 1 ns so
/// a flap can never stall the driver on a zero-length dwell).
fn exp_dwell(state: &mut u64, mean: f64) -> f64 {
    let u = ((splitmix(state) >> 11) as f64 + 1.0) * (1.0 / 9007199254740992.0);
    (-mean * u.ln()).max(1e-9)
}

#[derive(Debug, Clone)]
struct FlapState {
    flap: Flap,
    /// Current state of the target as driven by this process.
    up: bool,
    /// Absolute time of the next toggle.
    next: SimTime,
    rng: u64,
}

/// The driver executing a [`FaultPlan`]. All state is data (remaining
/// schedule cursor, flap phases, SplitMix64 RNG words), so it clones
/// across [`Sim::fork`](crate::Sim::fork) and the forked continuation
/// replays the fault sequence bit-identically.
#[derive(Debug, Clone)]
pub struct FaultDriver {
    /// Absolute-time schedule, sorted stably by time.
    scheduled: Vec<(SimTime, FaultAction)>,
    cursor: usize,
    flaps: Vec<FlapState>,
    stats: FaultStats,
}

impl FaultDriver {
    /// Counters of executed state-changing fault events.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// True when no further fault event will ever fire.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.scheduled.len() && self.flaps.is_empty()
    }

    fn next_event(&self) -> SimTime {
        let mut next = self
            .scheduled
            .get(self.cursor)
            .map_or(SimTime::NEVER, |&(t, _)| t);
        for f in &self.flaps {
            next = next.min(f.next);
        }
        next
    }

    fn execute(&mut self, sim: &mut Sim, action: &FaultAction) {
        match action {
            FaultAction::LinkDown(e) => {
                if sim.set_link_up(*e, false) {
                    self.stats.link_downs += 1;
                }
            }
            FaultAction::LinkUp(e) => {
                if sim.set_link_up(*e, true) {
                    self.stats.link_ups += 1;
                }
            }
            FaultAction::CrashNode(n) => {
                if sim.crash_node(*n) {
                    self.stats.crashes += 1;
                }
            }
            FaultAction::RebootNode(n) => {
                if sim.reboot_node(*n) {
                    self.stats.reboots += 1;
                }
            }
            FaultAction::Partition(group) => {
                for e in boundary_edges(sim.topology(), group) {
                    if sim.set_link_up(e, false) {
                        self.stats.link_downs += 1;
                    }
                }
            }
            FaultAction::Heal(group) => {
                for e in boundary_edges(sim.topology(), group) {
                    if sim.set_link_up(e, true) {
                        self.stats.link_ups += 1;
                    }
                }
            }
        }
    }

    fn apply_flap(&mut self, sim: &mut Sim, target: FlapTarget, up: bool) {
        let action = match (target, up) {
            (FlapTarget::Link(e), false) => FaultAction::LinkDown(e),
            (FlapTarget::Link(e), true) => FaultAction::LinkUp(e),
            (FlapTarget::Node(n), false) => FaultAction::CrashNode(n),
            (FlapTarget::Node(n), true) => FaultAction::RebootNode(n),
        };
        self.execute(sim, &action);
    }
}

impl DriverLogic for FaultDriver {
    fn fire(&mut self, sim: &mut Sim, me: DriverId) {
        let now = sim.now();
        while self.cursor < self.scheduled.len() && self.scheduled[self.cursor].0 <= now {
            let action = self.scheduled[self.cursor].1.clone();
            self.cursor += 1;
            self.execute(sim, &action);
        }
        for i in 0..self.flaps.len() {
            loop {
                let target;
                let goes_up;
                {
                    let f = &mut self.flaps[i];
                    if f.next > now {
                        break;
                    }
                    f.up = !f.up;
                    goes_up = f.up;
                    target = f.flap.target;
                    let mean = if f.up {
                        f.flap.mean_up
                    } else {
                        f.flap.mean_down
                    };
                    let dwell = exp_dwell(&mut f.rng, mean);
                    f.next = f.next.after_secs_f64(dwell);
                }
                self.apply_flap(sim, target, goes_up);
            }
        }
        let next = self.next_event();
        if next != SimTime::NEVER {
            sim.schedule_driver_in(next.seconds_since(now).max(0.0), me);
        }
    }
}

/// Every link with exactly one endpoint inside `group` — the cut a
/// partition severs.
fn boundary_edges(topo: &Topology, group: &[NodeId]) -> Vec<EdgeId> {
    let inside: HashSet<NodeId> = group.iter().copied().collect();
    topo.edge_ids()
        .filter(|&e| {
            let l = topo.link(e);
            inside.contains(&l.a()) != inside.contains(&l.b())
        })
        .collect()
}

/// Installs `plan` into the simulator and arms its first firing.
///
/// An empty plan installs a driver that never schedules anything, so
/// the run stays bit-identical to one without fault injection (the
/// zero-fault parity guard relies on this). Scheduled times are
/// relative to the simulator clock at installation.
pub fn install_faults(sim: &mut Sim, plan: &FaultPlan) -> DriverId {
    let now = sim.now();
    let mut scheduled: Vec<(SimTime, FaultAction)> = plan
        .scheduled
        .iter()
        .map(|(secs, action)| {
            assert!(
                *secs >= 0.0 && secs.is_finite(),
                "scheduled fault times must be finite and non-negative"
            );
            (now.after_secs_f64(*secs), action.clone())
        })
        .collect();
    // Stable: equal-time actions keep plan order.
    scheduled.sort_by_key(|&(t, _)| t);
    let flaps: Vec<FlapState> = plan
        .flaps
        .iter()
        .enumerate()
        .map(|(i, &flap)| {
            assert!(
                flap.mean_up > 0.0 && flap.mean_down > 0.0,
                "flap dwell means must be positive"
            );
            // One independent SplitMix64 stream per flap process.
            let mut rng = plan
                .seed
                .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let dwell = exp_dwell(&mut rng, flap.mean_up);
            FlapState {
                flap,
                up: true,
                next: now.after_secs_f64(dwell),
                rng,
            }
        })
        .collect();
    let driver = FaultDriver {
        scheduled,
        cursor: 0,
        flaps,
        stats: FaultStats::default(),
    };
    let id = sim.install_driver(driver);
    let next = sim.driver::<FaultDriver>(id).next_event();
    if next != SimTime::NEVER {
        sim.schedule_driver_in(next.seconds_since(now).max(0.0), id);
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimStats;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;

    #[test]
    fn empty_plan_schedules_nothing() {
        let (topo, _) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let id = install_faults(&mut sim, &FaultPlan::default());
        sim.run();
        assert_eq!(sim.stats(), SimStats::default());
        assert_eq!(sim.driver::<FaultDriver>(id).stats().total(), 0);
        assert!(sim.driver::<FaultDriver>(id).is_exhausted());
    }

    #[test]
    fn scheduled_link_down_stalls_and_up_resumes() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let edge = topo.neighbors(ids[0])[0].0;
        let mut sim = Sim::new(topo);
        let plan = FaultPlan {
            scheduled: vec![
                (1.0, FaultAction::LinkDown(edge)),
                (11.0, FaultAction::LinkUp(edge)),
            ],
            ..FaultPlan::default()
        };
        install_faults(&mut sim, &plan);
        // 2 s of transfer at full rate; the 10 s outage starting at t=1
        // pushes completion from t=2 to t=12 (plus zero latency).
        sim.start_transfer_detached(ids[0], ids[1], 200.0 * MBPS);
        sim.run_for(11.5);
        assert_eq!(sim.stats().completed_flows, 0);
        assert!(!sim.link_effective_up(edge) || sim.link_is_up(edge));
        sim.run_for(1.0);
        assert_eq!(sim.stats().completed_flows, 1);
    }

    #[test]
    fn crash_kills_tasks_and_aborts_endpoint_flows() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let task = sim.start_compute_detached(ids[0], 1e6);
        sim.start_transfer_detached(ids[0], ids[1], 1e12);
        let plan = FaultPlan {
            scheduled: vec![(5.0, FaultAction::CrashNode(ids[0]))],
            ..FaultPlan::default()
        };
        install_faults(&mut sim, &plan);
        sim.run_for(6.0);
        assert!(!sim.node_is_up(ids[0]));
        assert_eq!(sim.take_killed_tasks(), vec![(ids[0], task)]);
        assert_eq!(sim.take_aborted_flows().len(), 1);
        assert_eq!(sim.flow_count(), 0);
        // Work refused while down is surfaced immediately.
        let refused = sim.start_compute_detached(ids[0], 1.0);
        assert_eq!(sim.take_killed_tasks(), vec![(ids[0], refused)]);
    }

    #[test]
    fn partition_cuts_boundary_and_heal_restores() {
        let (topo, ids) = star(4, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let plan = FaultPlan {
            scheduled: vec![
                (1.0, FaultAction::Partition(vec![ids[0]])),
                (2.0, FaultAction::Heal(vec![ids[0]])),
            ],
            ..FaultPlan::default()
        };
        let id = install_faults(&mut sim, &plan);
        sim.run_for(1.5);
        let edge = sim.topology().neighbors(ids[0])[0].0;
        assert!(!sim.link_is_up(edge));
        sim.run_for(1.0);
        assert!(sim.link_is_up(edge));
        let stats = sim.driver::<FaultDriver>(id).stats();
        assert_eq!(stats.link_downs, 1);
        assert_eq!(stats.link_ups, 1);
    }

    #[test]
    fn flaps_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let (topo, ids) = star(4, 100.0 * MBPS);
            let edge = topo.neighbors(ids[1])[0].0;
            let mut sim = Sim::new(topo);
            let plan = FaultPlan {
                flaps: vec![
                    Flap {
                        target: FlapTarget::Link(edge),
                        mean_up: 20.0,
                        mean_down: 5.0,
                    },
                    Flap {
                        target: FlapTarget::Node(ids[2]),
                        mean_up: 60.0,
                        mean_down: 10.0,
                    },
                ],
                seed,
                ..FaultPlan::default()
            };
            let id = install_faults(&mut sim, &plan);
            sim.run_for(500.0);
            (sim.driver::<FaultDriver>(id).stats(), sim.stats().events)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds should differ");
        let stats = run(7).0;
        assert!(stats.link_downs > 0 && stats.crashes > 0);
        // Up/down alternation keeps the counters within one of each
        // other.
        assert!(stats.link_downs.abs_diff(stats.link_ups) <= 1);
        assert!(stats.crashes.abs_diff(stats.reboots) <= 1);
    }

    #[test]
    fn fault_execution_survives_fork() {
        let (topo, ids) = star(5, 100.0 * MBPS);
        let edge = topo.neighbors(ids[1])[0].0;
        let mut sim = Sim::new(topo);
        let plan = FaultPlan {
            scheduled: vec![(120.0, FaultAction::CrashNode(ids[3]))],
            flaps: vec![Flap {
                target: FlapTarget::Link(edge),
                mean_up: 15.0,
                mean_down: 5.0,
            }],
            seed: 99,
        };
        let id = install_faults(&mut sim, &plan);
        sim.run_for(50.0);
        let mut forked = sim.fork();
        sim.run_for(200.0);
        forked.run_for(200.0);
        assert_eq!(
            sim.driver::<FaultDriver>(id).stats(),
            forked.driver::<FaultDriver>(id).stats()
        );
        assert_eq!(sim.stats(), forked.stats());
        assert_eq!(sim.node_is_up(ids[3]), forked.node_is_up(ids[3]));
        assert_eq!(sim.link_is_up(edge), forked.link_is_up(edge));
    }
}
