//! Bulk-transfer flows with max-min fair bandwidth sharing.
//!
//! Transfers are modeled as fluid flows over their fixed route. Whenever the
//! flow set changes, link bandwidth is (re)divided by **progressive
//! filling**: repeatedly find the directed link with the smallest fair share
//! among its unfrozen flows, freeze those flows at that rate, subtract, and
//! continue. The result is the unique max-min fair allocation — the standard
//! fluid abstraction for competing TCP-like bulk transfers, and the
//! mechanism by which background traffic slows application communication in
//! the Table 1 experiments.
//!
//! # Incremental engine
//!
//! Max-min allocation decomposes over the connected components of the
//! *sharing graph* (flows are vertices-of-one-side, directed links the
//! other; a flow touches the links it crosses): progressive filling never
//! moves bandwidth between components. [`FlowTable`] exploits that three
//! ways:
//!
//! * **Sharing-cluster reallocation** — a link↔flow incidence index lets
//!   [`FlowTable::add_flow`]/[`FlowTable::remove_flow`] re-solve only the
//!   cluster of flows and links reachable from the changed flow's path
//!   (via [`nodesel_topology::maxmin::max_min_allocate_into`] over
//!   persistent scratch); disjoint clusters keep their rates untouched.
//! * **Completion heap** — the next flow completion is read from a
//!   lazy-deletion binary heap keyed on predicted finish time; a per-flow
//!   generation counter invalidates stale entries when a rate changes.
//!   Each flow keeps one *designated* entry (a lower bound on its finish):
//!   rate changes only push when they beat that bound, and a stale
//!   designated entry is re-queued when it surfaces — so heap size tracks
//!   the live-flow count even when every re-solve touches every flow.
//! * **Lazy settlement** — each flow carries an *anchor* (the time of its
//!   last rate change) and its remaining payload at that anchor; progress
//!   is evaluated closed-form on read, so [`FlowTable::settle`] is O(1)
//!   and an event only touches the flows of its own cluster. Per-link
//!   byte counters likewise accumulate on rate change and extrapolate on
//!   read, so the SNMP-style measurement layer sees exact values.
//!
//! # Reference oracle
//!
//! The paper-style full recompute (global progressive filling, O(flows)
//! completion scan, no heap) survives as a test fixture on the *same*
//! state layout: `FlowEngine::Reference`, which exists only under
//! `cfg(test)` and the `oracle` cargo feature (the `flow_parity` suite
//! and the `flow_engine` bench opt in). Both engines produce
//! bit-identical observable state — asserted in every debug build after
//! each cluster re-solve, and by `flow_parity` over random churn
//! sequences. No caller picks an engine: a build without the feature has
//! one, and no branch on which.

use crate::time::SimTime;
use nodesel_topology::maxmin::{max_min_allocate_into, MaxMinScratch};
use nodesel_topology::{Direction, EdgeId, NodeId, Path, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Identifier of a flow within a [`FlowTable`]. Unique per engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A directed link: the unit of capacity in the fluid model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirLink {
    /// The undirected edge.
    pub edge: EdgeId,
    /// Travel direction across it.
    pub dir: Direction,
}

impl DirLink {
    fn slot(self) -> usize {
        self.edge.index() * 2 + self.dir as usize
    }
}

/// Which reallocation strategy a [`FlowTable`] runs. Exported, and
/// two-valued, only under `cfg(test)` and the `oracle` feature; every
/// other build has the one variant, so a test on it is a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowEngine {
    /// Cluster-scoped re-solves, completion heap, lazy settlement:
    /// O(cluster) per flow event.
    #[default]
    Incremental,
    /// Full recompute on every change and a linear completion scan:
    /// O(flows · hops) per flow event. The oracle the incremental engine
    /// is checked against; also the baseline of the `flow_engine` bench.
    #[cfg(any(test, feature = "oracle"))]
    Reference,
}

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    /// Remaining payload in bits as of `anchor`.
    remaining: f64,
    /// Current max-min fair rate in bits/s.
    rate: f64,
    /// Time of the last rate change; progress since is closed-form.
    anchor: SimTime,
    /// Bumped on every rate change and on removal; keeps growing across
    /// slab reuse so stale completion-heap entries never validate.
    gen: u64,
    /// Earliest completion-heap entry time standing for this slab entry
    /// (its designated lower bound), or [`SimTime::NEVER`] when none. A
    /// rate change only pushes when its prediction beats this bound, and
    /// a stale designated entry is re-queued at pop time — so the heap
    /// holds about one entry per live flow instead of one per rate
    /// change. Always `NEVER` under the reference oracle, which never
    /// touches the heap.
    queued: SimTime,
    /// Directed-link slots traversed, in order (the slab entry keeps its
    /// buffer across reuse, so steady-state churn does not allocate).
    hops: Vec<usize>,
    live: bool,
}

impl Flow {
    /// Remaining payload at `t >= self.anchor`.
    fn remaining_at(&self, t: SimTime) -> f64 {
        let dt = t.seconds_since(self.anchor);
        if dt > 0.0 {
            (self.remaining - self.rate * dt).max(0.0)
        } else {
            self.remaining
        }
    }

    /// Predicted completion time (see [`predict_finish`]).
    fn finish(&self) -> SimTime {
        predict_finish(self.anchor, self.remaining, self.rate)
    }
}

/// Absolute completion time of a flow anchored at `anchor` with
/// `remaining` bits left and the given rate.
///
/// A drained flow completes at its anchor; a starved flow (zero rate —
/// e.g. routed across an administratively-down link) never completes and
/// must not schedule a wake. The prediction is rounded *up* until the
/// flow measures as drained at the returned instant, so a completion
/// event never fires early.
fn predict_finish(anchor: SimTime, remaining: f64, rate: f64) -> SimTime {
    if remaining <= 0.0 {
        return anchor;
    }
    if rate <= 0.0 {
        return SimTime::NEVER;
    }
    let mut t = anchor.after_secs_f64(remaining / rate);
    // f64 rounding in the division can land a whisker short of the drain
    // point; bump until the closed-form remaining is actually zero.
    let mut step = 1u64;
    while t != SimTime::NEVER && remaining - rate * t.seconds_since(anchor) > 0.0 {
        t += step;
        step = step.saturating_mul(2);
    }
    t
}

/// Persistent working memory for reallocation (cluster discovery + CSR
/// sub-problem). After warm-up, flow events allocate nothing.
#[derive(Debug, Default, Clone)]
struct ReallocScratch {
    /// Slab indices of the flows being re-solved.
    members: Vec<u32>,
    /// Slots whose aggregate rate must be refreshed.
    slots: Vec<usize>,
    /// Seed slots of the triggering change (survives unlinking).
    seeds: Vec<usize>,
    /// CSR hop lists of the member flows.
    arena: Vec<usize>,
    spans: Vec<(usize, usize)>,
    rates: Vec<f64>,
    /// Epoch marks for cluster BFS.
    slot_mark: Vec<u32>,
    flow_mark: Vec<u32>,
    epoch: u32,
    stack: Vec<usize>,
    maxmin: MaxMinScratch,
}

/// All live flows plus the derived per-link state. `Clone` is the deep
/// copy behind [`crate::Sim::fork`]: slab, heap, per-slot counters and
/// scratch all duplicate bit-exactly.
#[derive(Debug, Clone)]
pub struct FlowTable {
    engine: FlowEngine,
    /// Flow slab; freed entries are recycled via `free`.
    flows: Vec<Flow>,
    free: Vec<u32>,
    by_id: HashMap<FlowId, u32>,
    live: usize,
    /// Peak capacity per directed link (indexed by [`DirLink::slot`]).
    capacity: Vec<f64>,
    /// Aggregate allocated rate per directed link.
    link_rate: Vec<f64>,
    /// Bits carried per directed link, accumulated up to `bits_anchor`.
    link_bits: Vec<f64>,
    /// Per-slot accumulation point (advanced when the slot's rate
    /// changes; reads extrapolate from here at the current rate).
    bits_anchor: Vec<SimTime>,
    /// Link↔flow incidence: slab indices of the flows crossing each slot.
    slot_flows: Vec<Vec<u32>>,
    /// Lazy-deletion completion heap: (finish, generation, slab index).
    completions: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    last_update: SimTime,
    scratch: ReallocScratch,
}

impl FlowTable {
    /// Creates an empty table for the given topology's link capacities.
    pub fn new(topo: &Topology) -> Self {
        let mut capacity = vec![0.0; topo.link_count() * 2];
        for e in topo.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                capacity[DirLink { edge: e, dir }.slot()] = topo.link(e).capacity(dir);
            }
        }
        let slots = capacity.len();
        FlowTable {
            engine: FlowEngine::Incremental,
            flows: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            live: 0,
            capacity,
            link_rate: vec![0.0; slots],
            link_bits: vec![0.0; slots],
            bits_anchor: vec![SimTime::ZERO; slots],
            slot_flows: vec![Vec::new(); slots],
            completions: BinaryHeap::new(),
            last_update: SimTime::ZERO,
            scratch: ReallocScratch::default(),
        }
    }

    /// Like [`FlowTable::new`] on an explicit engine: how the parity
    /// tests and the `flow_engine` bench build the reference oracle.
    #[cfg(any(test, feature = "oracle"))]
    pub fn with_engine(topo: &Topology, engine: FlowEngine) -> Self {
        FlowTable {
            engine,
            ..Self::new(topo)
        }
    }

    /// The reallocation strategy this table runs.
    #[cfg(any(test, feature = "oracle"))]
    pub fn engine(&self) -> FlowEngine {
        self.engine
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no flow is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Aggregate allocated rate (bits/s) on a directed link.
    pub fn link_rate(&self, edge: EdgeId, dir: Direction) -> f64 {
        self.link_rate[DirLink { edge, dir }.slot()]
    }

    /// Cumulative bits carried by a directed link up to the last settle.
    pub fn link_bits(&self, edge: EdgeId, dir: Direction) -> f64 {
        self.link_bits_at(edge, dir, self.last_update)
    }

    /// Cumulative bits carried by a directed link up to `t` (`t` at or
    /// after the last settle). Counters accumulate on rate change and
    /// extrapolate at the current rate on read, so the value is exact at
    /// any instant — the SNMP-style octet counter the measurement layer
    /// samples.
    pub fn link_bits_at(&self, edge: EdgeId, dir: Direction, t: SimTime) -> f64 {
        let s = DirLink { edge, dir }.slot();
        self.link_bits[s] + self.link_rate[s] * t.seconds_since(self.bits_anchor[s])
    }

    /// The time up to which flow progress has been accounted.
    pub fn last_update(&self) -> SimTime {
        self.last_update
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        self.by_id.get(&id).map(|&fi| &self.flows[fi as usize])
    }

    /// Current rate of a flow, if live.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| f.rate)
    }

    /// Remaining bits of a flow, if live.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| f.remaining_at(self.last_update))
    }

    /// Source and destination of a flow, if live.
    pub fn endpoints(&self, id: FlowId) -> Option<(NodeId, NodeId)> {
        self.get(id).map(|f| (f.src, f.dst))
    }

    /// Advances the accounting clock to `now`. Must be called before any
    /// mutation or query at `now`.
    ///
    /// O(1): flow progress and link byte counters are closed-form in the
    /// time since each flow's (or slot's) last rate change, so nothing is
    /// walked here.
    pub fn settle(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        self.last_update = now;
    }

    /// Adds a flow over `path` carrying `bits`, then reallocates its
    /// sharing cluster. The caller must have settled to the current time
    /// first.
    pub fn add_flow(&mut self, id: FlowId, path: &Path, bits: f64) {
        assert!(bits >= 0.0, "flow size must be non-negative");
        assert!(!path.is_empty(), "flows require src != dst");
        let now = self.last_update;
        let fi = match self.free.pop() {
            Some(fi) => fi,
            None => {
                let fi = u32::try_from(self.flows.len()).expect("too many flows");
                self.flows.push(Flow {
                    id,
                    src: path.src,
                    dst: path.dst,
                    remaining: 0.0,
                    rate: 0.0,
                    anchor: now,
                    gen: 0,
                    queued: SimTime::NEVER,
                    hops: Vec::new(),
                    live: false,
                });
                fi
            }
        };
        let f = &mut self.flows[fi as usize];
        f.id = id;
        f.src = path.src;
        f.dst = path.dst;
        f.remaining = bits;
        f.rate = 0.0;
        f.anchor = now;
        f.queued = SimTime::NEVER;
        f.live = true;
        f.hops.clear();
        f.hops.extend(
            path.hops
                .iter()
                .map(|&(edge, dir)| DirLink { edge, dir }.slot()),
        );
        let prev = self.by_id.insert(id, fi);
        debug_assert!(prev.is_none(), "duplicate flow id");
        self.live += 1;
        for &s in &self.flows[fi as usize].hops {
            self.slot_flows[s].push(fi);
        }
        self.scratch.seeds.clear();
        let (seeds, flows) = (&mut self.scratch.seeds, &self.flows);
        seeds.extend_from_slice(&flows[fi as usize].hops);
        self.reallocate(now);
        // A zero-sized payload can leave the rate at its initial 0.0 bit
        // pattern, in which case the re-solve queued no completion entry;
        // cover the flow explicitly. (A starved route predicts NEVER and
        // stays unqueued on purpose.)
        if self.engine == FlowEngine::Incremental {
            let f = &mut self.flows[fi as usize];
            let eta = f.finish();
            if eta < f.queued {
                f.queued = eta;
                self.completions.push(Reverse((eta, f.gen, fi)));
            }
        }
    }

    /// Removes a flow (finished or cancelled), then reallocates its
    /// sharing cluster. Returns true when the flow was live.
    pub fn remove_flow(&mut self, id: FlowId) -> bool {
        let Some(fi) = self.by_id.remove(&id) else {
            return false;
        };
        let now = self.last_update;
        self.scratch.seeds.clear();
        let (seeds, flows) = (&mut self.scratch.seeds, &self.flows);
        seeds.extend_from_slice(&flows[fi as usize].hops);
        self.unlink(fi);
        self.reallocate(now);
        true
    }

    /// Overrides the capacities of directed links and re-solves the
    /// affected sharing clusters once. This is the fault-injection entry
    /// point: a downed link (or a link whose endpoint crashed) drops to
    /// zero capacity — flows crossing it starve at rate 0 and predict
    /// [`SimTime::NEVER`], the same path as an administratively-down
    /// link — and a repaired link returns to its engineered rate.
    ///
    /// Entries whose capacity is bitwise unchanged are skipped; returns
    /// true when any slot actually changed. The caller must have settled
    /// to the current time first.
    pub fn set_capacities(&mut self, changes: &[(EdgeId, Direction, f64)]) -> bool {
        let now = self.last_update;
        self.scratch.seeds.clear();
        let mut any = false;
        for &(edge, dir, cap) in changes {
            assert!(
                cap >= 0.0 && cap.is_finite(),
                "link capacity must be finite and non-negative"
            );
            let s = DirLink { edge, dir }.slot();
            if self.capacity[s].to_bits() != cap.to_bits() {
                self.capacity[s] = cap;
                self.scratch.seeds.push(s);
                any = true;
            }
        }
        if any {
            self.reallocate(now);
        }
        any
    }

    /// Ids of live flows whose source or destination is `n`, ascending.
    /// Used by the engine to abort a crashed node's transfers.
    pub fn flows_with_endpoint(&self, n: NodeId) -> Vec<FlowId> {
        let mut out: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|f| f.live && (f.src == n || f.dst == n))
            .map(|f| f.id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Pops every flow whose predicted completion has arrived (id order),
    /// then reallocates once if any finished. Allocation-free after
    /// warm-up: `out` is cleared and refilled.
    pub fn take_finished_into(&mut self, out: &mut Vec<FlowId>) {
        out.clear();
        let now = self.last_update;
        match self.engine {
            FlowEngine::Incremental => {
                while let Some(&Reverse((t, gen, fi))) = self.completions.peek() {
                    if t > now {
                        break;
                    }
                    self.completions.pop();
                    let f = &self.flows[fi as usize];
                    if !f.live || out.contains(&f.id) {
                        continue;
                    }
                    if f.gen == gen {
                        debug_assert!(f.remaining_at(now) <= 0.0, "completion fired early");
                        out.push(f.id);
                    } else if t == f.queued {
                        // The designated lower-bound entry went stale (a
                        // later rate change moved the finish); re-queue at
                        // the current prediction. When the new entry lands
                        // at or before `now` this drain picks it right back
                        // up.
                        let f = &mut self.flows[fi as usize];
                        let eta = f.finish();
                        f.queued = eta;
                        if eta != SimTime::NEVER {
                            self.completions.push(Reverse((eta, f.gen, fi)));
                        }
                    }
                }
            }
            #[cfg(any(test, feature = "oracle"))]
            FlowEngine::Reference => {
                for f in &self.flows {
                    if f.live && f.finish() <= now {
                        out.push(f.id);
                    }
                }
            }
        }
        if out.is_empty() {
            return;
        }
        out.sort_unstable();
        self.scratch.seeds.clear();
        for &id in out.iter() {
            let fi = self.by_id.remove(&id).expect("finished flow is live");
            let (seeds, flows) = (&mut self.scratch.seeds, &self.flows);
            seeds.extend_from_slice(&flows[fi as usize].hops);
            self.unlink(fi);
        }
        self.reallocate(now);
    }

    /// Allocating convenience wrapper around
    /// [`FlowTable::take_finished_into`].
    pub fn take_finished(&mut self) -> Vec<FlowId> {
        let mut out = Vec::new();
        self.take_finished_into(&mut out);
        out
    }

    /// Absolute time of the earliest flow completion at current rates, or
    /// [`SimTime::NEVER`] when no live flow will complete (no flows, or
    /// every flow starved at rate zero).
    ///
    /// This is the O(flows) reference scan; the engine wake path uses the
    /// completion heap via [`FlowTable::next_wake`].
    pub fn next_completion(&self) -> SimTime {
        let mut soonest = SimTime::NEVER;
        for f in &self.flows {
            if f.live {
                soonest = soonest.min(f.finish());
            }
        }
        soonest
    }

    /// Earliest completion through the completion heap: discards stale
    /// entries (lazy deletion), then answers from the top in O(log heap).
    /// The reference oracle answers with the linear scan instead.
    pub fn next_wake(&mut self) -> SimTime {
        if self.engine != FlowEngine::Incremental {
            return self.next_completion();
        }
        let top = loop {
            match self.completions.peek() {
                None => break SimTime::NEVER,
                Some(&Reverse((t, gen, fi))) => {
                    let f = &self.flows[fi as usize];
                    if f.live && f.gen == gen {
                        break t;
                    }
                    let requeue = f.live && t == f.queued;
                    self.completions.pop();
                    if requeue {
                        let f = &mut self.flows[fi as usize];
                        let eta = f.finish();
                        f.queued = eta;
                        if eta != SimTime::NEVER {
                            self.completions.push(Reverse((eta, f.gen, fi)));
                        }
                    }
                }
            }
        };
        debug_assert_eq!(top, self.next_completion(), "completion heap diverged");
        top
    }

    /// Marks `fi` dead, detaches it from the incidence index and recycles
    /// its slab entry. The entry's generation keeps growing so stale heap
    /// entries never validate, and its hop buffer is kept for reuse.
    fn unlink(&mut self, fi: u32) {
        let f = &mut self.flows[fi as usize];
        debug_assert!(f.live);
        f.live = false;
        f.gen += 1;
        self.live -= 1;
        for &s in &self.flows[fi as usize].hops {
            let list = &mut self.slot_flows[s];
            let at = list.iter().position(|&x| x == fi).expect("incidence entry");
            list.swap_remove(at);
        }
        self.free.push(fi);
    }

    /// Re-solves the flows affected by the change seeded at
    /// `scratch.seeds` and applies the new rates at `now`:
    /// the incremental engine solves one sharing cluster, the reference
    /// engine re-solves everything. Both paths produce bit-identical
    /// state (asserted in debug builds).
    fn reallocate(&mut self, now: SimTime) {
        match self.engine {
            FlowEngine::Incremental => self.collect_cluster(),
            #[cfg(any(test, feature = "oracle"))]
            FlowEngine::Reference => self.collect_all(),
        }
        self.solve(now);
    }

    /// Cluster BFS over the link↔flow incidence from `scratch.seeds`:
    /// fills `scratch.members` (flows to re-solve) and `scratch.slots`
    /// (slots whose aggregate rate may change). Every flow crossing a
    /// collected slot is a member, so the sub-problem is self-contained
    /// and solving it against full link capacities is exact.
    fn collect_cluster(&mut self) {
        let sc = &mut self.scratch;
        sc.members.clear();
        sc.slots.clear();
        sc.stack.clear();
        if sc.slot_mark.len() < self.capacity.len() {
            sc.slot_mark.resize(self.capacity.len(), 0);
        }
        if sc.flow_mark.len() < self.flows.len() {
            sc.flow_mark.resize(self.flows.len(), 0);
        }
        if sc.epoch == u32::MAX {
            sc.slot_mark.iter_mut().for_each(|m| *m = 0);
            sc.flow_mark.iter_mut().for_each(|m| *m = 0);
            sc.epoch = 0;
        }
        sc.epoch += 1;
        let epoch = sc.epoch;
        for &s in &sc.seeds {
            if sc.slot_mark[s] != epoch {
                sc.slot_mark[s] = epoch;
                sc.slots.push(s);
                sc.stack.push(s);
            }
        }
        'bfs: while let Some(s) = sc.stack.pop() {
            for &fi in &self.slot_flows[s] {
                if sc.flow_mark[fi as usize] == epoch {
                    continue;
                }
                sc.flow_mark[fi as usize] = epoch;
                sc.members.push(fi);
                if sc.members.len() == self.live {
                    break 'bfs;
                }
                for &h in &self.flows[fi as usize].hops {
                    if sc.slot_mark[h] != epoch {
                        sc.slot_mark[h] = epoch;
                        sc.slots.push(h);
                        sc.stack.push(h);
                    }
                }
            }
        }
        // Degenerate fully-coupled cluster: every live flow is a member, so
        // stop expanding and refresh the full slot range instead (the
        // refresh of a slot whose aggregate is unchanged is a bitwise
        // no-op, so this stays exact).
        if sc.members.len() == self.live {
            sc.stack.clear();
            sc.slots.clear();
            sc.slots.extend(0..self.capacity.len());
        }
    }

    /// Reference collection: every live flow, every slot.
    #[cfg(any(test, feature = "oracle"))]
    fn collect_all(&mut self) {
        let sc = &mut self.scratch;
        sc.members.clear();
        sc.slots.clear();
        for (fi, f) in self.flows.iter().enumerate() {
            if f.live {
                sc.members.push(fi as u32);
            }
        }
        sc.slots.extend(0..self.capacity.len());
    }

    /// Progressive filling over `scratch.members`, then rate application:
    /// flows whose rate changed re-anchor at `now` (one closed-form drain
    /// of the elapsed segment) and, when the new prediction beats their
    /// designated heap entry, queue a completion entry; slots whose
    /// aggregate rate changed settle their byte counter at `now`.
    /// Unchanged flows and slots are left untouched — the lazy-settlement
    /// invariant.
    fn solve(&mut self, now: SimTime) {
        let sc = &mut self.scratch;
        sc.arena.clear();
        sc.spans.clear();
        for &fi in &sc.members {
            let hops = &self.flows[fi as usize].hops;
            let start = sc.arena.len();
            sc.arena.extend_from_slice(hops);
            sc.spans.push((start, hops.len()));
        }
        max_min_allocate_into(
            &self.capacity,
            &sc.arena,
            &sc.spans,
            &mut sc.rates,
            &mut sc.maxmin,
        );
        #[cfg(debug_assertions)]
        let check: Option<(Vec<u32>, Vec<f64>)> = (self.engine == FlowEngine::Incremental)
            .then(|| (sc.members.clone(), sc.rates.clone()));
        #[cfg(debug_assertions)]
        if let Some((members, rates)) = check {
            self.assert_cluster_matches_global(&members, &rates);
        }
        let sc = &mut self.scratch;
        for (k, &fi) in sc.members.iter().enumerate() {
            let f = &mut self.flows[fi as usize];
            let rate = sc.rates[k];
            debug_assert!(rate.is_finite(), "flows always have at least one hop");
            if rate.to_bits() == f.rate.to_bits() {
                continue;
            }
            let dt = now.seconds_since(f.anchor);
            if dt > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            f.anchor = now;
            f.rate = rate;
            f.gen += 1;
            if self.engine == FlowEngine::Incremental {
                let eta = f.finish();
                if eta < f.queued {
                    f.queued = eta;
                    self.completions.push(Reverse((eta, f.gen, fi)));
                }
            }
        }
        for &s in &sc.slots {
            let mut sum = 0.0;
            for &fi in &self.slot_flows[s] {
                sum += self.flows[fi as usize].rate;
            }
            if sum.to_bits() != self.link_rate[s].to_bits() {
                let dt = now.seconds_since(self.bits_anchor[s]);
                if dt > 0.0 {
                    self.link_bits[s] += self.link_rate[s] * dt;
                }
                self.bits_anchor[s] = now;
                self.link_rate[s] = sum;
            }
        }
    }

    /// Debug oracle: the cluster solve must agree bit-for-bit with a full
    /// progressive filling over every live flow — members at their newly
    /// solved rates, non-members at their stored (untouched) rates.
    #[cfg(debug_assertions)]
    fn assert_cluster_matches_global(&self, members: &[u32], member_rates: &[f64]) {
        use nodesel_topology::maxmin::max_min_allocate;
        let live: Vec<u32> = (0..self.flows.len() as u32)
            .filter(|&fi| self.flows[fi as usize].live)
            .collect();
        let paths: Vec<Vec<usize>> = live
            .iter()
            .map(|&fi| self.flows[fi as usize].hops.clone())
            .collect();
        let global = max_min_allocate(&self.capacity, &paths);
        for (k, &fi) in live.iter().enumerate() {
            let expected = global[k];
            let actual = match members.iter().position(|&m| m == fi) {
                Some(m) => member_rates[m],
                None => self.flows[fi as usize].rate,
            };
            debug_assert_eq!(
                expected.to_bits(),
                actual.to_bits(),
                "cluster re-solve diverged from global max-min for flow {:?}",
                self.flows[fi as usize].id,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::{chain, dumbbell, star};
    use nodesel_topology::units::MBPS;
    use nodesel_topology::Routes;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn path(r: &Routes<'_>, a: NodeId, b: NodeId) -> Path {
        r.path(a, b).unwrap()
    }

    #[test]
    fn lone_flow_gets_bottleneck_bandwidth() {
        let (topo, ids) = chain(3, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[2]), 100.0 * MBPS);
        assert_eq!(ft.flow_rate(FlowId(1)), Some(100.0 * MBPS));
        // 100 Mbit at 100 Mbps => 1 second.
        assert_eq!(ft.next_completion(), t(1.0));
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        // Both flows converge on n2's access link (hub -> n2).
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[2]), 1e9);
        ft.add_flow(FlowId(2), &path(&r, ids[1], ids[2]), 1e9);
        assert_eq!(ft.flow_rate(FlowId(1)), Some(50.0 * MBPS));
        assert_eq!(ft.flow_rate(FlowId(2)), Some(50.0 * MBPS));
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let (topo, ids) = dumbbell(2, 100.0 * MBPS, 10.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        // Within the left side and within the right side.
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[1]), 1e9);
        ft.add_flow(FlowId(2), &path(&r, ids[2], ids[3]), 1e9);
        assert_eq!(ft.flow_rate(FlowId(1)), Some(100.0 * MBPS));
        assert_eq!(ft.flow_rate(FlowId(2)), Some(100.0 * MBPS));
    }

    #[test]
    fn max_min_gives_unbottlenecked_flow_the_slack() {
        let (topo, ids) = dumbbell(2, 100.0 * MBPS, 30.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        // Two cross flows share the 30 Mbps backbone (15 each); one local
        // flow shares l0's access link with cross flow 1.
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[2]), 1e12);
        ft.add_flow(FlowId(2), &path(&r, ids[1], ids[3]), 1e12);
        ft.add_flow(FlowId(3), &path(&r, ids[0], ids[1]), 1e12);
        let r1 = ft.flow_rate(FlowId(1)).unwrap();
        let r2 = ft.flow_rate(FlowId(2)).unwrap();
        let r3 = ft.flow_rate(FlowId(3)).unwrap();
        assert!((r1 - 15.0 * MBPS).abs() < 1.0);
        assert!((r2 - 15.0 * MBPS).abs() < 1.0);
        // Flow 3 picks up the remaining 85 Mbps on the shared access link.
        assert!((r3 - 85.0 * MBPS).abs() < 1.0);
    }

    #[test]
    fn opposite_directions_use_separate_capacity() {
        let (topo, ids) = chain(2, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[1]), 1e12);
        ft.add_flow(FlowId(2), &path(&r, ids[1], ids[0]), 1e12);
        // Full-duplex: each direction carries its flow at line rate.
        assert_eq!(ft.flow_rate(FlowId(1)), Some(100.0 * MBPS));
        assert_eq!(ft.flow_rate(FlowId(2)), Some(100.0 * MBPS));
    }

    #[test]
    fn settle_and_finish_lifecycle() {
        let (topo, ids) = chain(2, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[1]), 50.0 * MBPS);
        let eta = ft.next_completion();
        assert_eq!(eta, t(0.5));
        ft.settle(eta);
        assert_eq!(ft.take_finished(), vec![FlowId(1)]);
        assert!(ft.is_empty());
        // Counters recorded the carried bits on the forward direction only.
        let e = topo.edge_ids().next().unwrap();
        let fwd = ft.link_bits(e, topo.link(e).direction_from(ids[0]));
        let back = ft.link_bits(e, topo.link(e).direction_from(ids[1]));
        assert!((fwd - 50.0 * MBPS).abs() < 1e-3);
        assert_eq!(back, 0.0);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[2]), 100.0 * MBPS);
        ft.add_flow(FlowId(2), &path(&r, ids[1], ids[2]), 100.0 * MBPS);
        // Both run at 50 Mbps. After 1s, half of each remains.
        ft.settle(t(1.0));
        assert!(ft.remove_flow(FlowId(2)));
        assert_eq!(ft.flow_rate(FlowId(1)), Some(100.0 * MBPS));
        // Remaining 50 Mbit at 100 Mbps: finishes at 1.5s.
        assert_eq!(ft.next_completion(), t(1.5));
    }

    #[test]
    fn zero_size_flow_completes_immediately() {
        let (topo, ids) = chain(2, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[1]), 0.0);
        assert_eq!(ft.next_completion(), ft.next_completion());
        ft.settle(SimTime::ZERO);
        assert_eq!(ft.take_finished(), vec![FlowId(1)]);
    }

    #[test]
    fn link_rates_never_exceed_capacity() {
        // Heavily loaded star: all pairs exchanging.
        let (topo, ids) = star(4, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        let mut next = 0u64;
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    ft.add_flow(FlowId(next), &path(&r, a, b), 1e12);
                    next += 1;
                }
            }
        }
        for e in topo.edge_ids() {
            for dir in [Direction::AtoB, Direction::BtoA] {
                assert!(ft.link_rate(e, dir) <= topo.link(e).capacity(dir) * (1.0 + 1e-9));
            }
        }
        // Every flow got a strictly positive rate.
        for f in 0..next {
            assert!(ft.flow_rate(FlowId(f)).unwrap() > 0.0);
        }
    }

    #[test]
    fn heap_tracks_completions_through_churn() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[2]), 100.0 * MBPS);
        ft.add_flow(FlowId(2), &path(&r, ids[1], ids[2]), 50.0 * MBPS);
        // Shared 50/50: the small flow drains at 1s.
        assert_eq!(ft.next_wake(), t(1.0));
        ft.settle(t(1.0));
        let mut done = Vec::new();
        ft.take_finished_into(&mut done);
        assert_eq!(done, vec![FlowId(2)]);
        // Survivor re-anchored at full rate: 50 Mbit left => 1.5s.
        assert_eq!(ft.next_wake(), t(1.5));
        ft.settle(t(1.5));
        ft.take_finished_into(&mut done);
        assert_eq!(done, vec![FlowId(1)]);
        assert_eq!(ft.next_wake(), SimTime::NEVER);
    }

    #[test]
    fn starved_flow_never_schedules_a_wake() {
        // One administratively-down direction (zero capacity a->b).
        let mut topo = Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        topo.add_link_full(a, b, 0.0, 100.0 * MBPS, 0.0);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, a, b), 1e9);
        assert_eq!(ft.flow_rate(FlowId(1)), Some(0.0));
        assert_eq!(ft.next_completion(), SimTime::NEVER);
        assert_eq!(ft.next_wake(), SimTime::NEVER);
        ft.settle(t(3600.0));
        assert!(ft.take_finished().is_empty());
        assert_eq!(ft.remaining(FlowId(1)), Some(1e9));
        // The live direction still works at line rate.
        ft.add_flow(FlowId(2), &path(&r, b, a), 100.0 * MBPS);
        assert_eq!(ft.next_wake(), t(3601.0));
        assert!(ft.remove_flow(FlowId(1)));
    }

    #[test]
    fn cluster_churn_leaves_disjoint_flows_untouched() {
        let (topo, ids) = dumbbell(2, 100.0 * MBPS, 10.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[1]), 200.0 * MBPS);
        ft.settle(t(0.5));
        // Churn on the other side of the bottleneck: the left flow's rate
        // and predicted completion must be unaffected.
        ft.add_flow(FlowId(2), &path(&r, ids[2], ids[3]), 1e9);
        ft.add_flow(FlowId(3), &path(&r, ids[3], ids[2]), 1e9);
        assert!(ft.remove_flow(FlowId(3)));
        assert_eq!(ft.flow_rate(FlowId(1)), Some(100.0 * MBPS));
        assert_eq!(ft.next_completion(), t(2.0));
    }

    #[test]
    fn reference_engine_matches_incremental() {
        let (topo, ids) = dumbbell(3, 100.0 * MBPS, 30.0 * MBPS);
        let r = topo.routes();
        let mut inc = FlowTable::new(&topo);
        let mut oracle = FlowTable::with_engine(&topo, FlowEngine::Reference);
        assert_eq!(oracle.engine(), FlowEngine::Reference);
        let script: &[(u64, usize, usize, f64)] = &[
            (1, 0, 3, 1e9),
            (2, 1, 4, 5e8),
            (3, 2, 5, 2e9),
            (4, 0, 1, 1e8),
        ];
        for &(id, s, d, bits) in script {
            let p = path(&r, ids[s], ids[d]);
            inc.add_flow(FlowId(id), &p, bits);
            oracle.add_flow(FlowId(id), &p, bits);
        }
        // The 2 Gbit flow over the 30 Mbps shared backbone needs ~200 s.
        for step in 1..=300u64 {
            let now = SimTime::from_secs(step);
            inc.settle(now);
            oracle.settle(now);
            assert_eq!(inc.next_completion(), oracle.next_completion());
            assert_eq!(inc.next_wake(), oracle.next_wake());
            let (a, b) = (inc.take_finished(), oracle.take_finished());
            assert_eq!(a, b);
            for &(id, ..) in script {
                let id = FlowId(id);
                assert_eq!(
                    inc.flow_rate(id).map(f64::to_bits),
                    oracle.flow_rate(id).map(f64::to_bits)
                );
                assert_eq!(
                    inc.remaining(id).map(f64::to_bits),
                    oracle.remaining(id).map(f64::to_bits)
                );
            }
            for e in topo.edge_ids() {
                for dir in [Direction::AtoB, Direction::BtoA] {
                    assert_eq!(
                        inc.link_rate(e, dir).to_bits(),
                        oracle.link_rate(e, dir).to_bits()
                    );
                    assert_eq!(
                        inc.link_bits(e, dir).to_bits(),
                        oracle.link_bits(e, dir).to_bits()
                    );
                }
            }
        }
        assert!(inc.is_empty() && oracle.is_empty());
    }

    #[test]
    fn slab_reuses_entries_without_stale_completions() {
        let (topo, ids) = chain(2, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        let p = path(&r, ids[0], ids[1]);
        for round in 0..5u64 {
            let id = FlowId(round + 1);
            ft.add_flow(id, &p, 100.0 * MBPS);
            let eta = ft.next_wake();
            assert_eq!(eta, t(round as f64 + 1.0));
            ft.settle(eta);
            assert_eq!(ft.take_finished(), vec![id]);
        }
        assert!(ft.is_empty());
        assert_eq!(ft.next_wake(), SimTime::NEVER);
    }

    #[test]
    fn link_bits_extrapolate_between_settles() {
        let (topo, ids) = chain(2, 100.0 * MBPS);
        let r = topo.routes();
        let mut ft = FlowTable::new(&topo);
        ft.add_flow(FlowId(1), &path(&r, ids[0], ids[1]), 1e12);
        let e = topo.edge_ids().next().unwrap();
        let dir = topo.link(e).direction_from(ids[0]);
        // No settle needed: the counter is exact at any read instant.
        assert!((ft.link_bits_at(e, dir, t(0.25)) - 25.0 * MBPS).abs() < 1e-3);
        ft.settle(t(0.5));
        assert!((ft.link_bits(e, dir) - 50.0 * MBPS).abs() < 1e-3);
    }
}
