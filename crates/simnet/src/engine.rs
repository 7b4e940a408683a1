//! The discrete-event engine tying hosts, flows and user events together.

#[cfg(any(test, feature = "oracle"))]
use crate::flows::FlowEngine;
use crate::flows::{FlowId, FlowTable};
use crate::host::{Host, TaskId};
use crate::time::{EventKey, SimTime};
use crate::trace::{TraceEvent, Tracer};
use nodesel_topology::{Direction, EdgeId, NodeId, RouteTable, Topology};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Default UNIX-style load-average damping constant (1-minute average).
pub const DEFAULT_LOAD_AVG_TAU: f64 = 60.0;

/// A deferred action executed by the engine at its scheduled time.
pub type Callback = Box<dyn FnOnce(&mut Sim)>;

/// Identifier of a driver installed with [`Sim::install_driver`]. Stable
/// across [`Sim::fork`]: the same id addresses the forked copy of the
/// driver in the forked simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DriverId(u32);

/// Cloneable state machine behind a recurring *data-driven* event.
///
/// Where one-off actions are scheduled as opaque [`Callback`] closures,
/// self-rescheduling processes (background generators, periodic
/// collectors) implement `DriverLogic` and live **inside** the simulator:
/// their state — RNG, counters, sample stores — is part of [`Sim`] and is
/// cloned by [`Sim::fork`], so a forked run continues bit-identically.
///
/// [`DriverLogic::fire`] runs at each scheduled time with the driver
/// temporarily removed from the registry (it may freely mutate the
/// simulator, including scheduling its next firing via
/// [`Sim::schedule_driver_in`], but cannot re-enter itself).
pub trait DriverLogic: Clone + 'static {
    /// Handles one scheduled firing. `me` is the driver's own id, for
    /// rescheduling.
    fn fire(&mut self, sim: &mut Sim, me: DriverId);
}

/// Object-safe adapter over [`DriverLogic`] (clone + downcast).
trait DriverObj: Any {
    fn fire_obj(&mut self, sim: &mut Sim, me: DriverId);
    fn clone_box(&self) -> Box<dyn DriverObj>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: DriverLogic> DriverObj for T {
    fn fire_obj(&mut self, sim: &mut Sim, me: DriverId) {
        self.fire(sim, me);
    }
    fn clone_box(&self) -> Box<dyn DriverObj> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

enum EventKind {
    HostWake { host: usize, generation: u64 },
    NetWake { generation: u64 },
    Driver { slot: u32 },
    User(Callback),
}

struct QueuedEvent {
    key: EventKey,
    kind: EventKind,
}

impl QueuedEvent {
    /// Clones a data-driven event for [`Sim::fork`]. Opaque user closures
    /// cannot be cloned; [`Sim::can_fork`] guarantees none are pending.
    fn clone_data(&self) -> QueuedEvent {
        let kind = match self.kind {
            EventKind::HostWake { host, generation } => EventKind::HostWake { host, generation },
            EventKind::NetWake { generation } => EventKind::NetWake { generation },
            EventKind::Driver { slot } => EventKind::Driver { slot },
            EventKind::User(_) => unreachable!("fork with a pending user closure"),
        };
        QueuedEvent {
            key: self.key,
            kind,
        }
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// CPU tasks completed (application + background).
    pub completed_tasks: u64,
    /// Flows fully delivered (application + background).
    pub completed_flows: u64,
    /// Events dispatched.
    pub events: u64,
}

/// The simulator.
///
/// `Sim` owns a [`Topology`] (capacities, speeds, structure), a
/// processor-sharing [`Host`] per compute node, and a max-min fair
/// [`FlowTable`]. All activity — application phases, background load,
/// background traffic, measurement sampling — is expressed as events.
///
/// # Determinism
///
/// Events dispatch in [`EventKey`] order: time first, then a strictly
/// monotone insertion sequence number. Every internal algorithm iterates
/// in dense-index order, so a run is a pure function of the topology and
/// the scheduled events.
///
/// # Checkpointing
///
/// All recurring activity can be expressed as *data*: [`DriverLogic`]
/// state machines (generators, collectors) live inside the simulator and
/// detached tasks/transfers ([`Sim::start_compute_detached`],
/// [`Sim::start_transfer_detached`]) carry no completion closure. When no
/// opaque closure is pending anywhere ([`Sim::can_fork`]), [`Sim::fork`]
/// clones the complete simulation state — clock, event queue, hosts,
/// flows, drivers, RNGs — into an independent simulator that continues
/// bit-identically to the original. The immutable [`Topology`] and
/// [`RouteTable`] are shared by `Arc`, so a fork costs O(live state), not
/// O(V·(V+E)).
pub struct Sim {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    time: SimTime,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    /// Sequence number of the next queued event (the tie-break among
    /// events scheduled for the same instant).
    seq: u64,
    hosts: Vec<Option<Host>>,
    host_generation: Vec<u64>,
    flows: FlowTable,
    /// Generation of the armed network wake; a queued wake carrying an
    /// older generation is stale and dispatches as a no-op.
    net_generation: u64,
    /// Next task id to mint.
    next_task: u64,
    /// Next flow id to mint.
    next_flow: u64,
    task_done: HashMap<TaskId, Callback>,
    flow_done: HashMap<FlowId, (f64, Callback)>,
    /// Reused drain buffer for finished flows (no per-event allocation).
    finished_flows: Vec<FlowId>,
    /// Installed recurring drivers; a slot is `None` only while its
    /// driver is firing.
    drivers: Vec<Option<Box<dyn DriverObj>>>,
    /// Number of queued [`EventKind::User`] events (fork legality).
    user_events: usize,
    /// Per-node liveness (fault injection); all true in a healthy run.
    node_up: Vec<bool>,
    /// Per-link administrative state (fault injection); all true in a
    /// healthy run. A link carries traffic only when it *and* both its
    /// endpoint nodes are up ([`Sim::link_effective_up`]).
    link_up: Vec<bool>,
    /// Tasks killed by node crashes, awaiting [`Sim::take_killed_tasks`].
    killed_tasks: Vec<(NodeId, TaskId)>,
    /// Flows aborted by endpoint crashes, awaiting
    /// [`Sim::take_aborted_flows`].
    aborted_flows: Vec<FlowId>,
    stats: SimStats,
    tracer: Option<Tracer>,
}

impl Sim {
    /// Builds a simulator over a topology snapshot. Load averages and link
    /// utilizations stored in `topo` are ignored: the simulator derives
    /// them from actual activity.
    pub fn new(topo: Topology) -> Self {
        let routes = Arc::new(RouteTable::build(&topo));
        Self::with_shared(Arc::new(topo), routes, DEFAULT_LOAD_AVG_TAU)
    }

    /// Like [`Sim::new`] on an explicit flow engine: how the parity
    /// tests and the `flow_engine` bench pit the incremental engine
    /// against the full-recompute reference.
    #[cfg(any(test, feature = "oracle"))]
    pub fn with_flow_engine(topo: Topology, engine: FlowEngine) -> Self {
        let mut sim = Self::new(topo);
        sim.flows = FlowTable::with_engine(&sim.topo, engine);
        sim
    }

    /// Builds a simulator over an `Arc`-shared topology and prebuilt route
    /// table, sharing both instead of copying. This is the cheap
    /// constructor for trial sweeps: the testbed and its all-pairs routes
    /// are derived once and shared by every simulator (and every
    /// [`Sim::fork`]).
    ///
    /// `routes` must have been built from `topo` (all route resolution
    /// goes through it).
    pub fn with_shared(topo: Arc<Topology>, routes: Arc<RouteTable>, tau: f64) -> Self {
        let hosts: Vec<Option<Host>> = topo
            .node_ids()
            .map(|id| {
                let n = topo.node(id);
                n.is_compute().then(|| Host::new(n.speed(), tau))
            })
            .collect();
        let host_generation = vec![0; hosts.len()];
        let flows = FlowTable::new(&topo);
        let node_up = vec![true; hosts.len()];
        let link_up = vec![true; topo.link_count()];
        Sim {
            topo,
            routes,
            time: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            hosts,
            host_generation,
            flows,
            net_generation: 0,
            next_task: 1,
            next_flow: 1,
            task_done: HashMap::new(),
            flow_done: HashMap::new(),
            finished_flows: Vec::new(),
            drivers: Vec::new(),
            user_events: 0,
            node_up,
            link_up,
            killed_tasks: Vec::new(),
            aborted_flows: Vec::new(),
            stats: SimStats::default(),
            tracer: None,
        }
    }

    // ----- Checkpoint / fork ----------------------------------------------

    /// True when the simulator holds no opaque closure anywhere — no
    /// queued [`Sim::schedule_in`] event and no
    /// pending task/transfer completion callback — so its entire state is
    /// data and [`Sim::fork`] is legal.
    ///
    /// A warmed-up simulator driven purely by [`DriverLogic`] drivers and
    /// detached work is always forkable; launching an application (which
    /// registers completion closures) makes it unforkable until that work
    /// drains.
    pub fn can_fork(&self) -> bool {
        self.user_events == 0 && self.task_done.is_empty() && self.flow_done.is_empty()
    }

    /// Forks the simulation: returns an independent simulator whose
    /// continuation is bit-identical to this one's. The topology and
    /// route table are shared (`Arc`), everything mutable — clock, event
    /// queue, hosts, flow table, driver state (RNGs, counters, sample
    /// stores), stats, trace buffer — is cloned.
    ///
    /// # Panics
    ///
    /// Panics when [`Sim::can_fork`] is false (an opaque closure is
    /// pending; closures cannot be cloned).
    pub fn fork(&self) -> Sim {
        assert!(
            self.can_fork(),
            "Sim::fork with a pending user closure (schedule a fork only at \
             quiescent boundaries, e.g. after warm-up and before launch)"
        );
        let forked = Sim {
            topo: Arc::clone(&self.topo),
            routes: Arc::clone(&self.routes),
            time: self.time,
            queue: self
                .queue
                .iter()
                .map(|Reverse(e)| Reverse(e.clone_data()))
                .collect(),
            seq: self.seq,
            hosts: self.hosts.clone(),
            host_generation: self.host_generation.clone(),
            flows: self.flows.clone(),
            net_generation: self.net_generation,
            next_task: self.next_task,
            next_flow: self.next_flow,
            task_done: HashMap::new(),
            flow_done: HashMap::new(),
            finished_flows: Vec::new(),
            drivers: self
                .drivers
                .iter()
                .map(|d| {
                    Some(
                        d.as_ref()
                            .expect("fork while a driver is firing")
                            .clone_box(),
                    )
                })
                .collect(),
            user_events: 0,
            node_up: self.node_up.clone(),
            link_up: self.link_up.clone(),
            killed_tasks: self.killed_tasks.clone(),
            aborted_flows: self.aborted_flows.clone(),
            stats: self.stats,
            tracer: self.tracer.clone(),
        };
        debug_assert_eq!(forked.queue.len(), self.queue.len());
        debug_assert_eq!(
            forked.queue.peek().map(|Reverse(e)| e.key),
            self.queue.peek().map(|Reverse(e)| e.key),
            "fork perturbed the event order"
        );
        forked
    }

    fn mint_task(&mut self) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        id
    }

    fn mint_flow(&mut self) -> FlowId {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        id
    }

    // ----- Drivers --------------------------------------------------------

    /// Installs a recurring data-driven event source and returns its id.
    /// The driver fires only when scheduled (see
    /// [`Sim::schedule_driver_in`]); installation alone schedules nothing.
    pub fn install_driver<T: DriverLogic>(&mut self, driver: T) -> DriverId {
        let slot = u32::try_from(self.drivers.len()).expect("too many drivers");
        self.drivers.push(Some(Box::new(driver)));
        DriverId(slot)
    }

    /// Schedules driver `id` to fire `delay_secs` from now. A driver may
    /// hold any number of scheduled firings; each dispatch calls
    /// [`DriverLogic::fire`] once.
    pub fn schedule_driver_in(&mut self, delay_secs: f64, id: DriverId) {
        let at = self.time.after_secs_f64(delay_secs);
        self.push(at, EventKind::Driver { slot: id.0 });
    }

    /// Immutable access to an installed driver's state.
    ///
    /// # Panics
    ///
    /// Panics when `id` is unknown, holds a different type, or is
    /// currently firing.
    pub fn driver<T: DriverLogic>(&self, id: DriverId) -> &T {
        self.drivers[id.0 as usize]
            .as_deref()
            .expect("driver is currently firing")
            .as_any()
            .downcast_ref::<T>()
            .expect("driver type mismatch")
    }

    /// Mutable access to an installed driver's state (see [`Sim::driver`]).
    pub fn driver_mut<T: DriverLogic>(&mut self, id: DriverId) -> &mut T {
        self.drivers[id.0 as usize]
            .as_deref_mut()
            .expect("driver is currently firing")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("driver type mismatch")
    }

    /// Enables event tracing with a buffer of up to `limit` events (use
    /// `usize::MAX` for unbounded). Call [`Sim::take_trace`] to drain.
    pub fn enable_trace(&mut self, limit: usize) {
        self.tracer = Some(Tracer::new(limit));
    }

    /// Drains the trace buffer, returning the recorded events and the
    /// number of events dropped because the buffer was full.
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        self.tracer.as_mut().map(Tracer::take).unwrap_or_default()
    }

    #[inline]
    fn trace(&mut self, make: impl FnOnce(SimTime) -> TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            let at = self.time;
            t.record(make(at));
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The topology as a shareable handle (cheap to clone; used by
    /// measurement layers that keep a structural reference).
    pub fn topology_shared(&self) -> Arc<Topology> {
        Arc::clone(&self.topo)
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.time);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            key: EventKey { at, seq },
            kind,
        }));
    }

    /// Schedules `f` to run `delay_secs` from now.
    pub fn schedule_in(&mut self, delay_secs: f64, f: impl FnOnce(&mut Sim) + 'static) {
        let at = self.time.after_secs_f64(delay_secs);
        self.user_events += 1;
        self.push(at, EventKind::User(Box::new(f)));
    }

    // ----- CPU tasks ------------------------------------------------------

    fn host_mut(&mut self, node: NodeId) -> &mut Host {
        self.hosts[node.index()]
            .as_mut()
            .expect("CPU operations require a compute node")
    }

    fn reschedule_host(&mut self, node: NodeId) {
        let idx = node.index();
        self.host_generation[idx] += 1;
        let generation = self.host_generation[idx];
        let at = self.hosts[idx]
            .as_ref()
            .expect("compute node")
            .next_completion();
        if at != SimTime::NEVER {
            self.push(
                at.max(self.time),
                EventKind::HostWake {
                    host: idx,
                    generation,
                },
            );
        }
    }

    /// Starts a CPU task of `work` reference-seconds on `node`; `on_done`
    /// fires when it completes. Returns the task id.
    pub fn start_compute(
        &mut self,
        node: NodeId,
        work: f64,
        on_done: impl FnOnce(&mut Sim) + 'static,
    ) -> TaskId {
        let id = self.mint_task();
        if !self.node_up[node.index()] {
            // A crashed host refuses work: the task is killed on arrival
            // and surfaced through `take_killed_tasks`; `on_done` never
            // fires.
            self.killed_tasks.push((node, id));
            self.trace(|at| TraceEvent::TaskKilled { at, node, id });
            return id;
        }
        let now = self.time;
        let host = self.host_mut(node);
        host.settle(now);
        host.add_task(id, work);
        self.task_done.insert(id, Box::new(on_done));
        self.reschedule_host(node);
        self.trace(|at| TraceEvent::TaskStarted { at, node, id, work });
        id
    }

    /// Starts a *detached* CPU task: like [`Sim::start_compute`] but with
    /// no completion callback, so it leaves no closure behind and keeps
    /// the simulator forkable. Background load generators use this.
    pub fn start_compute_detached(&mut self, node: NodeId, work: f64) -> TaskId {
        let id = self.mint_task();
        if !self.node_up[node.index()] {
            self.killed_tasks.push((node, id));
            self.trace(|at| TraceEvent::TaskKilled { at, node, id });
            return id;
        }
        let now = self.time;
        let host = self.host_mut(node);
        host.settle(now);
        host.add_task(id, work);
        self.reschedule_host(node);
        self.trace(|at| TraceEvent::TaskStarted { at, node, id, work });
        id
    }

    /// Cancels a running CPU task; its completion callback is dropped.
    /// Returns true when the task was live on `node`.
    pub fn cancel_compute(&mut self, node: NodeId, id: TaskId) -> bool {
        let now = self.time;
        let host = self.host_mut(node);
        host.settle(now);
        let removed = host.remove_task(id);
        if removed {
            self.task_done.remove(&id);
            self.reschedule_host(node);
            self.trace(|at| TraceEvent::TaskCancelled { at, node, id });
        }
        removed
    }

    // ----- Flows ----------------------------------------------------------

    /// Re-arms the network wake after a flow mutation: the previous wake
    /// (if any) is invalidated by the generation bump.
    fn reschedule_net(&mut self) {
        self.net_generation += 1;
        let generation = self.net_generation;
        // O(log heap) via the completion heap; flows starved by a
        // zero-capacity link report NEVER and schedule nothing.
        let at = self.flows.next_wake();
        if at != SimTime::NEVER {
            self.push(at.max(self.time), EventKind::NetWake { generation });
        }
    }

    /// Starts a bulk transfer of `bits` from `src` to `dst` along the fixed
    /// route; `on_done` fires when the last bit has arrived (transfer time
    /// plus one-way path latency). Panics when the nodes are disconnected.
    ///
    /// A transfer to self delivers after zero time (the paper's node set is
    /// connected through the network; local communication is free).
    pub fn start_transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bits: f64,
        on_done: impl FnOnce(&mut Sim) + 'static,
    ) -> FlowId {
        let id = self.mint_flow();
        if !self.node_up[src.index()] || !self.node_up[dst.index()] {
            // A crashed endpoint aborts the transfer on arrival; `on_done`
            // never fires. Surfaced through `take_aborted_flows`.
            self.aborted_flows.push(id);
            self.trace(|at| TraceEvent::FlowAborted { at, id });
            return id;
        }
        if src == dst {
            self.stats.completed_flows += 1;
            self.schedule_in(0.0, on_done);
            return id;
        }
        let path = self
            .routes
            .resolve(&self.topo, src, dst)
            .expect("transfer endpoints must be connected");
        let latency: f64 = path
            .hops
            .iter()
            .map(|&(e, _)| self.topo.link(e).latency())
            .sum();
        self.flows.settle(self.time);
        self.flows.add_flow(id, &path, bits);
        self.flow_done.insert(id, (latency, Box::new(on_done)));
        self.reschedule_net();
        self.trace(|at| TraceEvent::FlowStarted {
            at,
            id,
            src,
            dst,
            bits,
        });
        id
    }

    /// Starts a *detached* bulk transfer: like [`Sim::start_transfer`] but
    /// with no completion callback — the flow drains, frees its bandwidth
    /// and counts toward [`SimStats::completed_flows`], leaving no closure
    /// behind so the simulator stays forkable. Background traffic
    /// generators use this.
    pub fn start_transfer_detached(&mut self, src: NodeId, dst: NodeId, bits: f64) -> FlowId {
        let id = self.mint_flow();
        if !self.node_up[src.index()] || !self.node_up[dst.index()] {
            self.aborted_flows.push(id);
            self.trace(|at| TraceEvent::FlowAborted { at, id });
            return id;
        }
        if src == dst {
            self.stats.completed_flows += 1;
            return id;
        }
        let path = self
            .routes
            .resolve(&self.topo, src, dst)
            .expect("transfer endpoints must be connected");
        self.flows.settle(self.time);
        self.flows.add_flow(id, &path, bits);
        self.reschedule_net();
        self.trace(|at| TraceEvent::FlowStarted {
            at,
            id,
            src,
            dst,
            bits,
        });
        id
    }

    /// Cancels a live flow, dropping its callback. Returns true when live.
    pub fn cancel_transfer(&mut self, id: FlowId) -> bool {
        self.flows.settle(self.time);
        let removed = self.flows.remove_flow(id);
        if removed {
            self.flow_done.remove(&id);
            self.reschedule_net();
            self.trace(|at| TraceEvent::FlowCancelled { at, id });
        }
        removed
    }

    // ----- Fault injection ------------------------------------------------

    /// True when `node` has not crashed.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node.index()]
    }

    /// True when `edge` is administratively up. Its endpoints may still
    /// be down; see [`Sim::link_effective_up`].
    pub fn link_is_up(&self, edge: EdgeId) -> bool {
        self.link_up[edge.index()]
    }

    /// True when traffic can actually cross `edge`: the link itself and
    /// both endpoint nodes are up.
    pub fn link_effective_up(&self, edge: EdgeId) -> bool {
        let l = self.topo.link(edge);
        self.link_up[edge.index()] && self.node_up[l.a().index()] && self.node_up[l.b().index()]
    }

    /// Re-derives the effective capacity of `edges` from the current
    /// up/down state and applies any changes to the flow table in one
    /// cluster re-solve. Flows crossing a dead link starve at rate zero
    /// (they predict no completion and schedule nothing — the
    /// administratively-down path); restored links resume at their
    /// engineered rates.
    fn refresh_capacities(&mut self, edges: &[EdgeId]) {
        let mut changes: Vec<(EdgeId, Direction, f64)> = Vec::with_capacity(edges.len() * 2);
        for &e in edges {
            let up = self.link_effective_up(e);
            let l = self.topo.link(e);
            for dir in [Direction::AtoB, Direction::BtoA] {
                let cap = if up { l.capacity(dir) } else { 0.0 };
                changes.push((e, dir, cap));
            }
        }
        self.flows.settle(self.time);
        if self.flows.set_capacities(&changes) {
            self.reschedule_net();
        }
    }

    /// Takes a link down (`up == false`) or restores it. Flows crossing
    /// a downed link stall (bytes already carried stay settled) and
    /// resume when the link returns. Returns true when the state
    /// actually changed.
    pub fn set_link_up(&mut self, edge: EdgeId, up: bool) -> bool {
        if self.link_up[edge.index()] == up {
            return false;
        }
        self.link_up[edge.index()] = up;
        self.trace(|at| {
            if up {
                TraceEvent::LinkUp { at, edge }
            } else {
                TraceEvent::LinkDown { at, edge }
            }
        });
        self.refresh_capacities(&[edge]);
        true
    }

    /// Crashes a node: every task on its host is killed (surfaced via
    /// [`Sim::take_killed_tasks`], completion callbacks dropped), every
    /// flow terminating at it is aborted with its carried bytes settled
    /// (surfaced via [`Sim::take_aborted_flows`]), and all its incident
    /// links drop to zero effective capacity so flows routed *through*
    /// it stall. Returns true when the node was up.
    pub fn crash_node(&mut self, node: NodeId) -> bool {
        if !self.node_up[node.index()] {
            return false;
        }
        self.node_up[node.index()] = false;
        self.trace(|at| TraceEvent::NodeDown { at, node });
        if self.hosts[node.index()].is_some() {
            let now = self.time;
            let host = self.host_mut(node);
            host.settle(now);
            let killed = host.kill_all();
            self.reschedule_host(node);
            for id in killed {
                self.task_done.remove(&id);
                self.killed_tasks.push((node, id));
                self.trace(|at| TraceEvent::TaskKilled { at, node, id });
            }
        }
        self.flows.settle(self.time);
        let aborted = self.flows.flows_with_endpoint(node);
        if !aborted.is_empty() {
            for id in aborted {
                self.flows.remove_flow(id);
                self.flow_done.remove(&id);
                self.aborted_flows.push(id);
                self.trace(|at| TraceEvent::FlowAborted { at, id });
            }
            self.reschedule_net();
        }
        let edges: Vec<EdgeId> = self.topo.neighbors(node).iter().map(|&(e, _)| e).collect();
        self.refresh_capacities(&edges);
        true
    }

    /// Reboots a crashed node: it comes back with an empty run queue and
    /// its incident links (those not independently down) resume at their
    /// engineered capacities. Returns true when the node was down.
    pub fn reboot_node(&mut self, node: NodeId) -> bool {
        if self.node_up[node.index()] {
            return false;
        }
        self.node_up[node.index()] = true;
        self.trace(|at| TraceEvent::NodeUp { at, node });
        let edges: Vec<EdgeId> = self.topo.neighbors(node).iter().map(|&(e, _)| e).collect();
        self.refresh_capacities(&edges);
        true
    }

    /// Drains the `(node, task)` pairs killed by node crashes since the
    /// last call. The app driver polls this to learn that work it
    /// submitted will never complete.
    pub fn take_killed_tasks(&mut self) -> Vec<(NodeId, TaskId)> {
        std::mem::take(&mut self.killed_tasks)
    }

    /// Drains the flow ids aborted by endpoint crashes since the last
    /// call.
    pub fn take_aborted_flows(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.aborted_flows)
    }

    // ----- Measurement interface -----------------------------------------

    /// Instantaneous run-queue length of a compute node.
    pub fn run_queue(&self, node: NodeId) -> usize {
        self.hosts[node.index()]
            .as_ref()
            .expect("compute node")
            .run_queue()
    }

    /// Load average of a compute node as of now (damped analytically; does
    /// not mutate state).
    pub fn load_avg(&self, node: NodeId) -> f64 {
        let host = self.hosts[node.index()].as_ref().expect("compute node");
        // Analytic continuation of the host EWMA to the current instant.
        let mut h = host.clone();
        h.settle(self.time);
        h.load_avg()
    }

    /// Aggregate flow rate on a directed link right now, bits/s.
    pub fn link_rate(&self, edge: EdgeId, dir: Direction) -> f64 {
        self.flows.link_rate(edge, dir)
    }

    /// Cumulative bits carried by a directed link up to now (SNMP-style
    /// octet counter). Exact at any instant: the flow table accumulates on
    /// rate change and extrapolates to the engine clock on read.
    pub fn link_bits(&self, edge: EdgeId, dir: Direction) -> f64 {
        self.flows.link_bits_at(edge, dir, self.time)
    }

    /// Number of live flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Reference-seconds of CPU work completed on a node so far.
    pub fn completed_work(&self, node: NodeId) -> f64 {
        self.hosts[node.index()]
            .as_ref()
            .expect("compute node")
            .completed_work()
    }

    /// A topology snapshot annotated with the *true* instantaneous
    /// conditions: per-node load averages and per-direction link
    /// utilizations equal to current flow rates. This is the "perfect
    /// oracle" measurement; `nodesel-remos` layers realistic sampling on
    /// top.
    pub fn oracle_snapshot(&self) -> Topology {
        let mut t = (*self.topo).clone();
        let computes: Vec<NodeId> = t.compute_nodes().collect();
        for n in computes {
            t.set_load_avg(n, self.load_avg(n));
        }
        for e in t.edge_ids().collect::<Vec<_>>() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                t.set_link_used(e, dir, self.flows.link_rate(e, dir));
            }
        }
        t
    }

    // ----- Event loop -----------------------------------------------------

    /// Dispatches the next event, if any. Returns false when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.key.at >= self.time, "event from the past");
        self.time = ev.key.at;
        self.stats.events += 1;
        match ev.kind {
            EventKind::User(f) => {
                self.user_events -= 1;
                f(self);
            }
            EventKind::HostWake { host, generation } => {
                if generation == self.host_generation[host] {
                    self.on_host_wake(host);
                }
            }
            EventKind::NetWake { generation } => {
                if generation == self.net_generation {
                    self.on_net_wake();
                }
            }
            EventKind::Driver { slot } => {
                // The slot is vacated while firing so the driver can take
                // `&mut Sim` without aliasing itself; `Sim::fork` and the
                // accessors treat a vacant slot as an error.
                let mut d = self.drivers[slot as usize]
                    .take()
                    .expect("driver fired reentrantly");
                d.fire_obj(self, DriverId(slot));
                self.drivers[slot as usize] = Some(d);
            }
        }
        true
    }

    fn on_host_wake(&mut self, host: usize) {
        let node = NodeId::from_index(host);
        let now = self.time;
        let h = self.host_mut(node);
        h.settle(now);
        let finished = h.take_finished();
        self.reschedule_host(node);
        for id in finished {
            self.stats.completed_tasks += 1;
            self.trace(|at| TraceEvent::TaskFinished { at, node, id });
            if let Some(cb) = self.task_done.remove(&id) {
                cb(self);
            }
        }
    }

    fn on_net_wake(&mut self) {
        self.flows.settle(self.time);
        let mut finished = std::mem::take(&mut self.finished_flows);
        self.flows.take_finished_into(&mut finished);
        self.reschedule_net();
        for &id in &finished {
            self.stats.completed_flows += 1;
            self.trace(|at| TraceEvent::FlowFinished { at, id });
            if let Some((latency, cb)) = self.flow_done.remove(&id) {
                // The last bit still has to propagate to the receiver.
                self.schedule_in(latency, cb);
            }
        }
        finished.clear();
        self.finished_flows = finished;
    }

    /// Runs until the event queue is exhausted; returns the final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.time
    }

    /// Runs all events up to and including `limit`, then sets the clock to
    /// `limit`. Later events stay queued. A [`SimTime::NEVER`] limit
    /// drains the queue like [`Sim::run`] and leaves the clock at the
    /// last dispatched event: parking it at `NEVER` would make every
    /// later task and transfer "complete" at `NEVER` too.
    pub fn run_until(&mut self, limit: SimTime) {
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.key.at > limit {
                break;
            }
            self.step();
        }
        if limit != SimTime::NEVER {
            self.time = self.time.max(limit);
        }
    }

    /// Runs for `secs` simulated seconds from now.
    pub fn run_for(&mut self, secs: f64) {
        let limit = self.time.after_secs_f64(secs);
        self.run_until(limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::{chain, star};
    use nodesel_topology::units::MBPS;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn compute_task_completion_time() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        sim.start_compute(ids[0], 5.0, move |s| {
            *d.borrow_mut() = Some(s.now());
        });
        sim.run();
        assert_eq!(*done.borrow(), Some(t(5.0)));
        assert_eq!(sim.stats().completed_tasks, 1);
    }

    #[test]
    fn background_task_slows_application_task() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.start_compute(ids[0], 100.0, |_| {});
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        sim.start_compute(ids[0], 5.0, move |s| {
            *d.borrow_mut() = Some(s.now());
        });
        sim.run_for(30.0);
        // Shared with one competitor: 5 units at rate 0.5 => 10 s.
        assert_eq!(*done.borrow(), Some(t(10.0)));
    }

    #[test]
    fn transfer_takes_bandwidth_time_plus_latency() {
        let mut topo = nodesel_topology::Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        topo.add_link_full(a, b, 100.0 * MBPS, 100.0 * MBPS, 0.01);
        let mut sim = Sim::new(topo);
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        sim.start_transfer(a, b, 100.0 * MBPS, move |s| {
            *d.borrow_mut() = Some(s.now());
        });
        sim.run();
        // 1 s of transfer + 10 ms propagation.
        let finished = done.borrow().unwrap();
        assert!((finished.as_secs_f64() - 1.01).abs() < 1e-6);
    }

    #[test]
    fn competing_transfers_share_and_then_speed_up() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let t1 = Rc::new(RefCell::new(None));
        let t2 = Rc::new(RefCell::new(None));
        let (d1, d2) = (t1.clone(), t2.clone());
        // Both flows into n2: 100 Mbit and 50 Mbit.
        sim.start_transfer(ids[0], ids[2], 100.0 * MBPS, move |s| {
            *d1.borrow_mut() = Some(s.now().as_secs_f64());
        });
        sim.start_transfer(ids[1], ids[2], 50.0 * MBPS, move |s| {
            *d2.borrow_mut() = Some(s.now().as_secs_f64());
        });
        sim.run();
        // Shared 50/50 until the small one drains at 1 s; the big one then
        // has 50 Mbit left at full rate: total 1.5 s.
        assert!((t2.borrow().unwrap() - 1.0).abs() < 1e-6);
        assert!((t1.borrow().unwrap() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn self_transfer_is_instant() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        sim.start_transfer(ids[0], ids[0], 1e9, move |_| {
            *d.borrow_mut() = true;
        });
        sim.run();
        assert!(*done.borrow());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn user_events_fire_in_order() {
        let (topo, _) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(0, 2.0), (1, 1.0), (2, 1.0)] {
            let l = log.clone();
            sim.schedule_in(delay, move |_| l.borrow_mut().push(i));
        }
        sim.run();
        // Same-time events dispatch in scheduling order: 1 before 2.
        assert_eq!(*log.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn cancel_compute_drops_callback() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let id = sim.start_compute(ids[0], 5.0, move |_| *f.borrow_mut() = true);
        sim.run_for(1.0);
        assert!(sim.cancel_compute(ids[0], id));
        sim.run();
        assert!(!*fired.borrow());
        assert_eq!(sim.stats().completed_tasks, 0);
    }

    #[test]
    fn cancel_transfer_frees_bandwidth() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let id1 = sim.start_transfer(ids[0], ids[2], 1e12, |_| {});
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        sim.start_transfer(ids[1], ids[2], 100.0 * MBPS, move |s| {
            *d.borrow_mut() = Some(s.now().as_secs_f64());
        });
        sim.run_for(0.5); // both at 50 Mbps; 25 Mbit of flow 2 done
        assert!(sim.cancel_transfer(id1));
        sim.run_for(10.0);
        // Remaining 75 Mbit at 100 Mbps => total 0.5 + 0.75 = 1.25 s.
        assert!((done.borrow().unwrap() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn oracle_snapshot_reflects_conditions() {
        let (topo, ids) = chain(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.start_compute(ids[0], 1e9, |_| {});
        sim.start_transfer(ids[0], ids[2], 1e18, |_| {});
        sim.run_for(300.0);
        let snap = sim.oracle_snapshot();
        // Node 0 has one long-running job => load ≈ 1, cpu ≈ 0.5.
        assert!(snap.node(ids[0]).load_avg() > 0.98);
        assert!(snap.node(ids[1]).load_avg() < 1e-6);
        // The flow saturates both links in its direction.
        let e = snap.edge_ids().next().unwrap();
        assert!(snap.link(e).bw() < 1.0);
    }

    #[test]
    fn run_until_stops_clock_at_limit() {
        let (topo, _) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.schedule_in(10.0, move |_| *f.borrow_mut() = true);
        sim.run_until(t(5.0));
        assert_eq!(sim.now(), t(5.0));
        assert!(!*fired.borrow());
        sim.run_until(t(10.0));
        assert!(*fired.borrow());
    }

    #[test]
    fn draining_with_an_infinite_limit_leaves_a_finite_clock() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.start_transfer_detached(ids[0], ids[1], 100.0 * MBPS);
        sim.run_for(f64::INFINITY);
        assert_eq!(sim.now(), t(1.0));
        // Work started afterwards completes a finite time later.
        sim.start_compute_detached(ids[0], 2.0);
        assert_eq!(sim.run(), t(3.0));
        sim.run_until(SimTime::NEVER);
        assert_eq!(sim.now(), t(3.0));
    }

    #[test]
    fn starved_transfer_neither_completes_nor_spins() {
        // The a->b direction is administratively down (zero capacity):
        // max-min allocates the crossing flow rate 0, so it must neither
        // schedule a finite completion nor spin the net-wake loop.
        let mut topo = nodesel_topology::Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        topo.add_link_full(a, b, 0.0, 100.0 * MBPS, 0.0);
        let mut sim = Sim::new(topo);
        sim.start_transfer(a, b, 1e9, |_| panic!("starved flow must not complete"));
        sim.run_until(t(3600.0));
        assert_eq!(sim.stats().completed_flows, 0);
        assert_eq!(sim.flow_count(), 1);
        assert_eq!(
            sim.stats().events,
            0,
            "net-wake loop spun on a starved flow"
        );
        // The reverse (live) direction is unaffected.
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        sim.start_transfer(b, a, 100.0 * MBPS, move |s| {
            *d.borrow_mut() = Some(s.now().as_secs_f64());
        });
        sim.run_until(t(7200.0));
        assert!((done.borrow().unwrap() - 3601.0).abs() < 1e-6);
        assert_eq!(sim.flow_count(), 1);
    }

    #[test]
    fn reference_engine_runs_identically() {
        let run = |engine| {
            let (topo, ids) = star(4, 100.0 * MBPS);
            let mut sim = Sim::with_flow_engine(topo, engine);
            sim.enable_trace(usize::MAX);
            for (i, &n) in ids.iter().enumerate() {
                let dst = ids[(i + 1) % ids.len()];
                sim.start_transfer(n, dst, 10.0 * MBPS * (i + 1) as f64, |_| {});
            }
            sim.run();
            (sim.now(), sim.stats(), sim.take_trace().0)
        };
        assert_eq!(
            run(crate::flows::FlowEngine::Incremental),
            run(crate::flows::FlowEngine::Reference)
        );
    }

    /// Poisson-ish background load/traffic driver used by the fork tests:
    /// alternates a detached compute task and a detached transfer on a
    /// deterministic pseudo-random schedule derived from its own counter.
    #[derive(Clone)]
    struct Churn {
        nodes: Vec<NodeId>,
        state: u64,
        fired: u64,
    }

    impl Churn {
        fn next(&mut self) -> u64 {
            // SplitMix64 step: cloneable, deterministic.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl DriverLogic for Churn {
        fn fire(&mut self, sim: &mut Sim, me: DriverId) {
            self.fired += 1;
            let r = self.next();
            let a = self.nodes[(r as usize) % self.nodes.len()];
            let b = self.nodes[((r >> 16) as usize) % self.nodes.len()];
            if r & 1 == 0 {
                sim.start_compute_detached(a, 0.1 + (r % 97) as f64 / 50.0);
            } else if a != b {
                sim.start_transfer_detached(a, b, 1.0 * MBPS * (1 + r % 13) as f64);
            }
            let gap = 0.05 + (r % 31) as f64 / 40.0;
            sim.schedule_driver_in(gap, me);
        }
    }

    fn churn_sim(seed: u64) -> Sim {
        let (topo, ids) = star(5, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        let d = sim.install_driver(Churn {
            nodes: ids,
            state: seed,
            fired: 0,
        });
        sim.schedule_driver_in(0.0, d);
        sim
    }

    #[test]
    fn forked_continuation_is_bit_identical() {
        let mut warm = churn_sim(42);
        warm.enable_trace(usize::MAX);
        warm.run_for(200.0);
        assert!(warm.can_fork());

        let run_on = |mut s: Sim| {
            s.run_for(300.0);
            (s.now(), s.stats(), s.take_trace().0)
        };
        let fork = warm.fork();
        let forked = run_on(fork);
        let straight = run_on(warm);
        assert_eq!(forked.0, straight.0);
        assert_eq!(forked.1, straight.1);
        assert_eq!(forked.2, straight.2);
        assert!(forked.1.events > 1000, "churn driver barely ran");
    }

    #[test]
    fn forks_are_independent() {
        let mut warm = churn_sim(7);
        warm.run_for(50.0);
        let mut a = warm.fork();
        let mut b = warm.fork();
        // Divergent injected work must not leak between forks.
        let (n0, n1) = {
            let d = warm.driver::<Churn>(DriverId(0));
            (d.nodes[0], d.nodes[1])
        };
        a.start_compute_detached(n0, 1e6);
        a.run_for(100.0);
        b.run_for(100.0);
        warm.run_for(100.0);
        assert_eq!(b.stats(), warm.stats());
        assert!(a.load_avg(n0) > 0.9);
        assert!(b.load_avg(n0) < 0.9);
        assert!(a.run_queue(n1) == b.run_queue(n1) || a.stats() != b.stats());
    }

    #[test]
    fn driver_state_is_queryable_and_forked() {
        let mut warm = churn_sim(3);
        warm.run_for(100.0);
        let fired = warm.driver::<Churn>(DriverId(0)).fired;
        assert!(fired > 100);
        let mut f = warm.fork();
        assert_eq!(f.driver::<Churn>(DriverId(0)).fired, fired);
        f.run_for(10.0);
        assert!(f.driver::<Churn>(DriverId(0)).fired > fired);
        // The original's driver state is untouched by the fork's progress.
        assert_eq!(warm.driver::<Churn>(DriverId(0)).fired, fired);
        // driver_mut reaches the same state.
        warm.driver_mut::<Churn>(DriverId(0)).fired = 0;
        assert_eq!(warm.driver::<Churn>(DriverId(0)).fired, 0);
    }

    #[test]
    fn can_fork_tracks_pending_closures() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        assert!(sim.can_fork());
        sim.schedule_in(1.0, |_| {});
        assert!(!sim.can_fork());
        sim.run();
        assert!(sim.can_fork());
        sim.start_compute(ids[0], 1.0, |_| {});
        assert!(!sim.can_fork());
        sim.run();
        assert!(sim.can_fork());
        sim.start_transfer(ids[0], ids[1], 1.0 * MBPS, |_| {});
        assert!(!sim.can_fork());
        sim.run();
        assert!(sim.can_fork());
        // Detached work keeps the simulator forkable.
        sim.start_compute_detached(ids[0], 5.0);
        sim.start_transfer_detached(ids[0], ids[1], 1e9);
        assert!(sim.can_fork());
    }

    #[test]
    #[should_panic(expected = "pending user closure")]
    fn fork_panics_with_pending_closure() {
        let (topo, _) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.schedule_in(1.0, |_| {});
        let _ = sim.fork();
    }

    /// Two 3-host star subnets joined hub to hub by a 2 ms trunk.
    fn trunked_pair() -> (Topology, Vec<Vec<NodeId>>) {
        let mut topo = Topology::new();
        let mut hubs = Vec::new();
        let mut subnets = Vec::new();
        for s in 0..2 {
            let sw = topo.add_network_node(format!("s{s}-sw"));
            let mut hosts = Vec::new();
            for h in 0..3 {
                let n = topo.add_compute_node(format!("s{s}-h{h}"), 1.0);
                topo.add_link(sw, n, 100.0 * MBPS);
                hosts.push(n);
            }
            hubs.push(sw);
            subnets.push(hosts);
        }
        topo.add_link_full(hubs[0], hubs[1], 50.0 * MBPS, 50.0 * MBPS, 2e-3);
        (topo, subnets)
    }

    /// FNV-1a over the `Debug` rendering of every trace record and of
    /// the run statistics.
    fn digest(trace: &[TraceEvent], stats: SimStats) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |s: String| {
            for b in s.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        for e in trace {
            eat(format!("{e:?}"));
        }
        eat(format!("{stats:?}"));
        h
    }

    #[test]
    fn dispatch_order_is_pinned() {
        // Golden value computed at f952dad, before the partition was
        // unthreaded from the engine: one churn driver inside each
        // subnet and two spanning the trunk. Firing gaps are multiples
        // of 25 ms, task and flow sizes multiples of 20 ms and 10 ms of
        // service, so driver firings, host wakes and net wakes collide
        // on the same nanosecond and the `(at, seq)` tie-break decides.
        let (topo, subnets) = trunked_pair();
        let mut sim = Sim::new(topo);
        sim.enable_trace(usize::MAX);
        let all = subnets.concat();
        let scopes = [subnets[0].clone(), subnets[1].clone(), all.clone(), all];
        for (i, nodes) in scopes.into_iter().enumerate() {
            let d = sim.install_driver(Churn {
                nodes,
                state: 0xD15 + i as u64,
                fired: 0,
            });
            sim.schedule_driver_in(0.0, d);
        }
        sim.run_for(2000.0);
        let stats = sim.stats();
        let (trace, dropped) = sim.take_trace();
        assert_eq!(dropped, 0);

        let times = |pick: fn(&TraceEvent) -> bool| -> std::collections::HashSet<SimTime> {
            trace.iter().filter(|e| pick(e)).map(|e| e.at()).collect()
        };
        let fired = times(|e| {
            matches!(
                e,
                TraceEvent::TaskStarted { .. } | TraceEvent::FlowStarted { .. }
            )
        });
        let host = times(|e| matches!(e, TraceEvent::TaskFinished { .. }));
        let net = times(|e| matches!(e, TraceEvent::FlowFinished { .. }));
        assert!(!fired.is_disjoint(&host), "no driver/host-wake tie");
        assert!(!fired.is_disjoint(&net), "no driver/net-wake tie");
        assert!(!host.is_disjoint(&net), "no host-wake/net-wake tie");

        assert_eq!(stats.events, 43_028);
        assert_eq!(digest(&trace, stats), 0x1f08_cf6a_1c34_0e45);
    }

    #[test]
    fn detached_transfer_to_self_counts_and_schedules_nothing() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.start_transfer_detached(ids[0], ids[0], 1e9);
        assert_eq!(sim.stats().completed_flows, 1);
        assert!(!sim.step());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (topo, ids) = star(4, 100.0 * MBPS);
            let mut sim = Sim::new(topo);
            for (i, &n) in ids.iter().enumerate() {
                sim.start_compute(n, 1.0 + i as f64, |_| {});
                let dst = ids[(i + 1) % ids.len()];
                sim.start_transfer(n, dst, 10.0 * MBPS * (i + 1) as f64, |_| {});
            }
            sim.run();
            (sim.now(), sim.stats())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::TraceEvent;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;

    #[test]
    fn trace_records_lifecycles_in_order() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.enable_trace(usize::MAX);
        sim.start_compute(ids[0], 1.0, |_| {});
        sim.start_transfer(ids[0], ids[1], 50.0 * MBPS, |_| {});
        sim.run();
        let (events, dropped) = sim.take_trace();
        assert_eq!(dropped, 0);
        let kinds: Vec<&'static str> = events
            .iter()
            .map(|e| match e {
                TraceEvent::TaskStarted { .. } => "ts",
                TraceEvent::TaskFinished { .. } => "tf",
                TraceEvent::FlowStarted { .. } => "fs",
                TraceEvent::FlowFinished { .. } => "ff",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["ts", "fs", "ff", "tf"]);
        // Timestamps are monotone.
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
        // The flow (0.5 s) finishes before the task (1 s).
        assert_eq!(events[2].at(), SimTime::from_secs_f64(0.5));
        assert_eq!(events[3].at(), SimTime::from_secs(1));
    }

    #[test]
    fn trace_records_cancellations() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.enable_trace(usize::MAX);
        let t = sim.start_compute(ids[0], 100.0, |_| {});
        let f = sim.start_transfer(ids[0], ids[1], 1e12, |_| {});
        sim.run_for(1.0);
        sim.cancel_compute(ids[0], t);
        sim.cancel_transfer(f);
        sim.run_for(1.0);
        let (events, _) = sim.take_trace();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::TaskCancelled { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::FlowCancelled { .. })));
    }

    #[test]
    fn traces_are_bit_identical_across_runs() {
        let run = || {
            let (topo, ids) = star(4, 100.0 * MBPS);
            let mut sim = Sim::new(topo);
            sim.enable_trace(usize::MAX);
            for (i, &n) in ids.iter().enumerate() {
                sim.start_compute(n, 0.5 + i as f64, |_| {});
                sim.start_transfer(n, ids[(i + 1) % 4], 20.0 * MBPS, |_| {});
            }
            sim.run();
            sim.take_trace().0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disabled_trace_returns_empty() {
        let (topo, ids) = star(2, 100.0 * MBPS);
        let mut sim = Sim::new(topo);
        sim.start_compute(ids[0], 1.0, |_| {});
        sim.run();
        let (events, dropped) = sim.take_trace();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }
}
