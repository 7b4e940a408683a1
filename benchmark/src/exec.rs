//! Executes a schedule against a fresh [`PlacementService`]: one
//! generator thread, the service inline, no second thread anywhere.
//!
//! * An **open-loop** pass spins on the clock until each operation is
//!   due and times it *from its due time*: a slow solve or publication
//!   delays the operations behind it, and that delay is counted.
//! * A **closed-loop** pass issues the same schedule back to back and
//!   times each call's duration.
//! * The **traced** pass is a closed-loop pass that splits each
//!   operation at the layer boundaries reachable from outside, records a
//!   span per piece, and replays the solve of every eighth miss outside
//!   the request's span.
//!
//! No pass checks an answer while the clock runs. A pass keeps every
//! sixteenth answer together with the residual snapshot it was asked on;
//! [`verify`] re-solves those afterwards.

use crate::hist::Hist;
use crate::inputs::{FedPlan, Fnv, Inputs, Op, TICK_SECS};
use crate::trace::{SpanLog, ROOT};
use nodesel_core::{
    selector_for, CanonicalRequest, Objective, SelectError, Selection, SelectionRequest,
};
use nodesel_loadgen::{
    install_load_at, install_traffic_at, LoadConfig, LoadHandle, TrafficConfig, TrafficHandle,
};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_service::{JobId, PlacementService, ServiceConfig, ServiceError, ServiceStats};
use nodesel_simnet::Sim;
use nodesel_topology::NetSnapshot;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// An answer of the service: what `get` returns and what `admit` grants.
pub type Answer = Result<Selection, SelectError>;

/// Every `ORACLE_EVERY`-th answer is kept for [`verify`].
const ORACLE_EVERY: usize = 16;

/// Every `REPLAY_EVERY`-th get miss of the traced pass is replayed —
/// every single one when the schedule has fewer than `REPLAY_ALL_BELOW`
/// gets (`cold_100k`), or too few replays would back no median.
const REPLAY_EVERY: u64 = 8;
const REPLAY_ALL_BELOW: usize = 800;

/// `pipeline_fed` multiplies the paper's message arrival rate by this.
const TRAFFIC_FACTOR: f64 = 8.0;

/// Which histogram an operation's timing belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `get`
    Get,
    /// `admit`
    Admit,
    /// `release`
    Release,
    /// A pump step that published an epoch.
    Publish,
    /// A pump step with nothing new: a heartbeat. Not a publication, so
    /// it enters no latency histogram.
    Heartbeat,
    /// `Sim::run_for`
    SimAdvance,
    /// `reconcile`
    Reconcile,
}

/// Latency histograms of one pass, by operation.
#[derive(Default, Clone)]
pub struct OpHists {
    /// `get`
    pub get: Hist,
    /// `admit`
    pub admit: Hist,
    /// `release`
    pub release: Hist,
    /// Publishing pump steps.
    pub publish: Hist,
    /// `Sim::run_for`
    pub sim_advance: Hist,
    /// `reconcile`
    pub reconcile: Hist,
}

impl OpHists {
    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &OpHists) {
        self.get.merge(&other.get);
        self.admit.merge(&other.admit);
        self.release.merge(&other.release);
        self.publish.merge(&other.publish);
        self.sim_advance.merge(&other.sim_advance);
        self.reconcile.merge(&other.reconcile);
    }

    fn of(&mut self, kind: Kind) -> Option<&mut Hist> {
        match kind {
            Kind::Get => Some(&mut self.get),
            Kind::Admit => Some(&mut self.admit),
            Kind::Release => Some(&mut self.release),
            Kind::Publish => Some(&mut self.publish),
            Kind::SimAdvance => Some(&mut self.sim_advance),
            Kind::Reconcile => Some(&mut self.reconcile),
            Kind::Heartbeat => None,
        }
    }
}

/// An answer kept for the oracle.
pub struct OracleSample {
    /// Position in the schedule.
    pub pos: usize,
    /// The residual snapshot the operation was answered on.
    pub residual: Arc<NetSnapshot>,
    /// The spec asked.
    pub op: Op,
    /// What the service answered.
    pub answer: Answer,
}

/// Counters of the simulator side of `pipeline_fed`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// `SimStats::events`
    pub events: u64,
    /// `SimStats::completed_flows`
    pub completed_flows: u64,
    /// `SimStats::completed_tasks`
    pub completed_tasks: u64,
    /// Background jobs the load generators started.
    pub jobs_started: u64,
    /// Messages the traffic generators started.
    pub messages_started: u64,
    /// Collector sampling rounds.
    pub samples: u64,
    /// `snapshot_if_new` calls.
    pub pumps: u64,
    /// ... that returned a new epoch.
    pub new_snapshots: u64,
    /// Simulated seconds run.
    pub sim_seconds: f64,
}

/// What one pass produced.
pub struct PassResult {
    /// Latencies after warm-up.
    pub hists: OpHists,
    /// Open loop: due → issued, every operation after warm-up.
    pub wait: Hist,
    /// Open loop: due → issued of operations the generator was idle
    /// waiting for, i.e. the spin overshoot with nothing running.
    pub generator_lag: Hist,
    /// Open loop: most operations due and not yet issued at any issue.
    pub backlog_max: u64,
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Operations executed.
    pub ops: u64,
    /// Operations that were refused, errored unexpectedly, or found no
    /// job to release; plus broken end-of-pass invariants.
    pub failed: u64,
    /// XOR over the position-weighted answers.
    pub digest: u64,
    /// The service's counters at the end of the pass.
    pub stats: ServiceStats,
    /// Answers kept for [`verify`].
    pub samples: Vec<OracleSample>,
    /// Simulator counters (`pipeline_fed`).
    pub sim: Option<SimCounts>,
    /// What `NetSnapshot::capture` of the fabric took at set-up.
    pub capture_ns: u64,
}

/// Layer timings of the traced pass, after warm-up.
#[derive(Default)]
pub struct LayerHists {
    /// `CanonicalRequest::new`
    pub canonicalize: Hist,
    /// `get_canonical` answered from the cache.
    pub get_hit: Hist,
    /// `get_canonical` that solved.
    pub get_miss: Hist,
    /// Replayed `CanonicalRequest::to_request`.
    pub to_request: Hist,
    /// Replayed `selector_for(..).select`, by objective: compute,
    /// communication, balanced.
    pub solve: [Hist; 3],
    /// Replayed `Selector::footprint`.
    pub footprint: Hist,
    /// A miss's `get_canonical` minus its replay.
    pub miss_overhead: Hist,
    /// `NetSnapshot::apply`
    pub apply: Hist,
    /// `NetSnapshot::diff`
    pub diff: Hist,
    /// `publish` / `publish_at`
    pub publish: Hist,
    /// `diff` + `publish`: what `ingest` does.
    pub ingest: Hist,
    /// `admit`
    pub admit: Hist,
    /// A solving `admit` minus its replay.
    pub admit_overhead: Hist,
    /// `release`
    pub release: Hist,
    /// `reconcile`
    pub reconcile: Hist,
    /// `Sim::run_for`
    pub run_for: Hist,
    /// `Remos::snapshot_if_new`
    pub remos_snapshot: Hist,
    /// Solves by objective over the whole pass (gets and admits).
    pub solves: [u64; 3],
    /// Wall time spent replaying, to take out of the traced wall time.
    pub replay_ns: u64,
    /// Replayed answers that differed from the served one.
    pub replay_mismatches: u64,
}

/// The traced pass's extra output.
pub struct Traced {
    /// Every span.
    pub log: SpanLog,
    /// Layer timings.
    pub layers: LayerHists,
}

fn objective_index(objective: Objective) -> usize {
    match objective {
        Objective::Compute => 0,
        Objective::Communication => 1,
        Objective::Balanced(_) => 2,
    }
}

const SELECT_SPAN: [&str; 3] = [
    "core.select_compute",
    "core.select_comm",
    "core.select_balanced",
];

/// Position-weighted digest contribution of one answer.
fn mix(pos: usize, answer: &Answer) -> u64 {
    let mut h = Fnv::default();
    match answer {
        Ok(sel) => {
            for n in &sel.nodes {
                h.word(n.index() as u64);
            }
            h.word(sel.score.to_bits());
        }
        Err(e) => {
            for byte in format!("{e:?}").bytes() {
                h.word(byte as u64);
            }
        }
    }
    h.0.wrapping_mul(pos as u64 * 2 + 1)
}

/// The simulator half of `pipeline_fed`.
struct Fed {
    sim: Sim,
    remos: Option<Remos>,
    loads: Vec<LoadHandle>,
    traffic: Vec<TrafficHandle>,
}

impl Fed {
    /// Simulator with the plan's generators; `with_collector` false
    /// builds the twin whose `run_for` carries no collector ticks.
    fn build(inputs: &Inputs, plan: &FedPlan, with_collector: bool) -> Fed {
        let mut sim = Sim::new((*inputs.topo).clone());
        let paper = TrafficConfig::paper_defaults();
        let traffic_config = TrafficConfig {
            arrival_rate: TRAFFIC_FACTOR * paper.arrival_rate,
            ..paper
        };
        let mut loads = Vec::new();
        let mut traffic = Vec::new();
        for (i, hosts) in plan.subnets.iter().enumerate() {
            let seed = plan.seed.wrapping_add(i as u64);
            loads.push(install_load_at(
                &mut sim,
                hosts,
                LoadConfig::paper_defaults(),
                seed,
            ));
            traffic.push(install_traffic_at(
                &mut sim,
                hosts[0],
                hosts,
                traffic_config,
                seed,
            ));
        }
        let remos = with_collector.then(|| {
            Remos::install(
                &mut sim,
                CollectorConfig {
                    seed: plan.seed,
                    ..CollectorConfig::default()
                },
            )
        });
        Fed {
            sim,
            remos,
            loads,
            traffic,
        }
    }
}

/// The program under test, set up for one pass.
pub struct World<'a> {
    inputs: &'a Inputs,
    svc: PlacementService,
    /// The last published raw snapshot.
    cur: Arc<NetSnapshot>,
    /// Admitted jobs, oldest first.
    jobs: VecDeque<JobId>,
    fed: Option<Fed>,
    pumps: u64,
    new_snapshots: u64,
}

/// What [`World::exec`] reports back.
struct Outcome {
    kind: Kind,
    failed: bool,
    /// The answer of a get or admit.
    answer: Option<Answer>,
    /// Digest contribution of an operation without an answer.
    extra: u64,
}

impl Outcome {
    fn plain(kind: Kind, failed: bool) -> Outcome {
        Outcome {
            kind,
            failed,
            answer: None,
            extra: 0,
        }
    }
}

impl<'a> World<'a> {
    /// Captures the initial snapshot and constructs the service (and,
    /// for `pipeline_fed`, the simulator with its generators and
    /// collector). Returns the world and the ns `NetSnapshot::capture`
    /// took.
    pub fn new(inputs: &'a Inputs) -> (World<'a>, u64) {
        let fed = inputs
            .fed
            .as_ref()
            .map(|plan| Fed::build(inputs, plan, true));
        let t = Instant::now();
        let captured = NetSnapshot::capture(Arc::clone(&inputs.topo));
        let capture_ns = t.elapsed().as_nanos() as u64;
        // The service of `pipeline_fed` starts from the collector's own
        // epoch 0, so that every later epoch shares its structure and
        // takes the delta path.
        let initial = match &fed {
            Some(fed) => fed
                .remos
                .as_ref()
                .expect("built with a collector")
                .snapshot(&fed.sim),
            None => captured,
        };
        let cur = Arc::new(initial);
        let world = World {
            inputs,
            svc: PlacementService::new(Arc::clone(&cur), ServiceConfig::default()),
            cur,
            jobs: VecDeque::new(),
            fed,
            pumps: 0,
            new_snapshots: 0,
        };
        (world, capture_ns)
    }

    fn request(&self, op: Op) -> &'a SelectionRequest {
        match op {
            Op::Get(i) => &self.inputs.pool[i as usize],
            Op::Admit(i) => &self.inputs.admit_pool[i as usize],
            other => unreachable!("{other:?} carries no request"),
        }
    }

    fn fed(&mut self) -> &mut Fed {
        self.fed
            .as_mut()
            .expect("simulator operations occur only in pipeline_fed's schedule")
    }

    /// Books a get's outcome: its answer goes to the digest and the
    /// oracle; an answer the service refused to give failed.
    fn book_get(placement: nodesel_service::Placement) -> Outcome {
        Outcome {
            answer: Some(placement.result),
            ..Outcome::plain(Kind::Get, !placement.quality.served())
        }
    }

    /// Books an admit's outcome: the job joins the queue, a typed
    /// selection error is an answer the oracle must reproduce, anything
    /// else failed.
    fn book_admit(&mut self, result: Result<nodesel_service::Admission, ServiceError>) -> Outcome {
        match result {
            Ok(admission) => {
                self.jobs.push_back(admission.job);
                Outcome {
                    answer: Some(Ok(admission.selection)),
                    ..Outcome::plain(Kind::Admit, false)
                }
            }
            Err(ServiceError::Select(e)) => Outcome {
                answer: Some(Err(e)),
                ..Outcome::plain(Kind::Admit, false)
            },
            Err(_) => Outcome::plain(Kind::Admit, true),
        }
    }

    /// Executes one operation the way a caller would.
    fn exec(&mut self, op: Op) -> Outcome {
        match op {
            Op::Get(_) => World::book_get(self.svc.get(self.request(op))),
            Op::Admit(_) => {
                let result = self.svc.admit(self.request(op));
                self.book_admit(result)
            }
            Op::Release => {
                let released = match self.jobs.pop_front() {
                    Some(job) => self.svc.release(job).is_ok(),
                    None => false,
                };
                Outcome::plain(Kind::Release, !released)
            }
            Op::Publish(i) => {
                let delta = &self.inputs.deltas[i as usize];
                let next = Arc::new(self.cur.apply(delta));
                self.svc.publish(Arc::clone(&next), Some(delta));
                self.cur = next;
                Outcome::plain(Kind::Publish, false)
            }
            Op::Ingest(i) => {
                let next = self.cur.apply(&self.inputs.deltas[i as usize]);
                self.svc.ingest(next);
                // The service owns the snapshot now; ask for it back
                // instead of keeping a copy made on the clock.
                self.cur = self.svc.snapshot();
                Outcome::plain(Kind::Publish, false)
            }
            Op::SimAdvance => {
                self.fed().sim.run_for(TICK_SECS);
                Outcome::plain(Kind::SimAdvance, false)
            }
            Op::Pump => {
                self.pumps += 1;
                let fed = self.fed.as_ref().expect("pipeline_fed");
                let now = fed.sim.now().as_secs_f64();
                let remos = fed.remos.as_ref().expect("built with a collector");
                match remos.snapshot_if_new(&fed.sim) {
                    Some(snap) => {
                        self.new_snapshots += 1;
                        let epoch = self.svc.ingest_at(snap, now);
                        Outcome {
                            extra: epoch,
                            ..Outcome::plain(Kind::Publish, false)
                        }
                    }
                    None => {
                        self.svc.heartbeat(now);
                        Outcome::plain(Kind::Heartbeat, false)
                    }
                }
            }
            Op::Reconcile => {
                let now = self.fed().sim.now().as_secs_f64();
                let report = self.svc.reconcile(now);
                Outcome {
                    extra: reconcile_word(&report),
                    ..Outcome::plain(Kind::Reconcile, !report.released.is_empty())
                }
            }
        }
    }

    /// Ends a pass: reads the counters, then releases every job and
    /// checks the invariants that must hold on an idle service. Returns
    /// the counters, the simulator counters and the invariants broken.
    fn finish(mut self) -> (ServiceStats, Option<SimCounts>, u64) {
        let stats = self.svc.stats();
        let mut broken = 0;
        if !stats.balanced() {
            eprintln!("violation: ServiceStats::balanced() is false: {stats:?}");
            broken += 1;
        }
        while let Some(job) = self.jobs.pop_front() {
            if self.svc.release(job).is_err() {
                eprintln!("violation: end-of-pass release of {job:?} failed");
                broken += 1;
            }
        }
        if !Arc::ptr_eq(&self.svc.residual_snapshot(), &self.svc.snapshot()) {
            eprintln!("violation: residual snapshot is not the raw snapshot on an empty ledger");
            broken += 1;
        }
        let sim = self.fed.as_ref().map(|fed| {
            let s = fed.sim.stats();
            SimCounts {
                events: s.events,
                completed_flows: s.completed_flows,
                completed_tasks: s.completed_tasks,
                jobs_started: fed.loads.iter().map(|h| h.jobs_started(&fed.sim)).sum(),
                messages_started: fed
                    .traffic
                    .iter()
                    .map(|h| h.messages_started(&fed.sim))
                    .sum(),
                samples: fed.remos.as_ref().map_or(0, |r| r.sample_count(&fed.sim)),
                pumps: self.pumps,
                new_snapshots: self.new_snapshots,
                sim_seconds: fed.sim.now().as_secs_f64(),
            }
        });
        (stats, sim, broken)
    }
}

fn reconcile_word(report: &nodesel_service::ReconcileReport) -> u64 {
    let mut h = Fnv::default();
    h.word(report.examined as u64);
    h.word(report.healthy as u64);
    h.word(report.held as u64);
    h.word(report.repaired.len() as u64);
    h.word(report.released.len() as u64);
    h.word(report.deferred.len() as u64);
    h.0
}

/// Nanoseconds since `start`.
#[inline]
fn ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Open or closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// Operations are issued when due and timed from their due time.
    Open,
    /// Operations are issued back to back and timed by call duration.
    Closed,
}

/// Bookkeeping shared by the plain and the traced pass: digest, failure
/// count and oracle samples, all updated outside the timed region.
struct Ledger {
    digest: u64,
    failed: u64,
    /// Gets and admits booked so far.
    answers: usize,
    samples: Vec<OracleSample>,
}

impl Ledger {
    fn new(schedule_len: usize) -> Ledger {
        Ledger {
            digest: 0,
            failed: 0,
            answers: 0,
            samples: Vec::with_capacity(schedule_len / ORACLE_EVERY + 64),
        }
    }

    /// The residual snapshot the next answer must be checked on, fetched
    /// before the operation and outside its timing: for every
    /// `ORACLE_EVERY`-th answer, and for every admit, whose errors all go
    /// to the oracle.
    fn residual_for(&self, world: &World<'_>, op: Op) -> Option<Arc<NetSnapshot>> {
        match op {
            Op::Admit(_) => Some(world.svc.residual_snapshot()),
            Op::Get(_) if self.answers % ORACLE_EVERY == 0 => Some(world.svc.residual_snapshot()),
            _ => None,
        }
    }

    fn book(&mut self, pos: usize, op: Op, outcome: Outcome, residual: Option<Arc<NetSnapshot>>) {
        self.failed += outcome.failed as u64;
        match outcome.answer {
            Some(answer) => {
                self.digest ^= mix(pos, &answer);
                let nth = self.answers;
                self.answers += 1;
                // A typed error must always be one a fresh solve returns
                // too, so every admit error goes to the oracle.
                let keep = nth % ORACLE_EVERY == 0 || answer.is_err();
                if let (true, Some(residual)) = (keep, residual) {
                    self.samples.push(OracleSample {
                        pos,
                        residual,
                        op,
                        answer,
                    });
                }
            }
            None => self.digest ^= outcome.extra.wrapping_mul(pos as u64 * 2 + 1),
        }
    }
}

/// Runs the schedule once on a fresh service, untraced.
pub fn run_pass(inputs: &Inputs, mode: Loop) -> PassResult {
    let (mut world, capture_ns) = World::new(inputs);
    let schedule = &inputs.schedule;
    let mut hists = OpHists::default();
    let mut wait = Hist::new();
    let mut generator_lag = Hist::new();
    let mut backlog_max = 0u64;
    let mut due_cursor = 0usize;
    let mut ledger = Ledger::new(schedule.len());
    let start = Instant::now();
    for (pos, s) in schedule.iter().enumerate() {
        let residual = ledger.residual_for(&world, s.op);
        let timed = pos >= inputs.warmup;
        let (from_ns, end_ns, outcome) = match mode {
            Loop::Open => {
                let mut now = ns(start);
                let idle = now < s.due_ns;
                while now < s.due_ns {
                    std::hint::spin_loop();
                    now = ns(start);
                }
                while due_cursor < schedule.len() && schedule[due_cursor].due_ns <= now {
                    due_cursor += 1;
                }
                // Operations due by now and not issued, this one aside.
                backlog_max = backlog_max.max(due_cursor.saturating_sub(pos + 1) as u64);
                let outcome = world.exec(s.op);
                let end = ns(start);
                if timed {
                    wait.record(now - s.due_ns);
                    if idle {
                        generator_lag.record(now - s.due_ns);
                    }
                }
                (s.due_ns, end, outcome)
            }
            Loop::Closed => {
                let begin = ns(start);
                let outcome = world.exec(s.op);
                (begin, ns(start), outcome)
            }
        };
        if timed {
            if let Some(hist) = hists.of(outcome.kind) {
                hist.record(end_ns - from_ns);
            }
        }
        ledger.book(pos, s.op, outcome, residual);
    }
    let wall_ns = ns(start);
    let (stats, sim, broken) = world.finish();
    PassResult {
        hists,
        wait,
        generator_lag,
        backlog_max,
        wall_ns,
        ops: schedule.len() as u64,
        failed: ledger.failed + broken,
        digest: ledger.digest,
        stats,
        samples: ledger.samples,
        sim,
        capture_ns,
    }
}

/// Replays a solve outside the request's span — `to_request`,
/// `selector_for(..).select`, `footprint` on `residual` — recording a
/// span and a timing for each. Returns the replayed answer and the ns
/// the three calls took.
fn replay(
    canon: &CanonicalRequest,
    residual: &NetSnapshot,
    start: Instant,
    pos: usize,
    timed: bool,
    traced: &mut Traced,
) -> (Answer, u64) {
    let t0 = ns(start);
    let request = canon.to_request();
    let t1 = ns(start);
    let mut selector = selector_for(request.objective);
    let answer = selector.select(residual, &request);
    let t2 = ns(start);
    black_box(selector.footprint());
    let t3 = ns(start);
    let objective = objective_index(request.objective);
    let op_id = pos as u32;
    let root = traced.log.push("replay", t0, t3, ROOT, op_id);
    traced.log.push("core.to_request", t0, t1, root, op_id);
    traced.log.push(SELECT_SPAN[objective], t1, t2, root, op_id);
    traced.log.push("core.footprint", t2, t3, root, op_id);
    if timed {
        let layers = &mut traced.layers;
        layers.to_request.record(t1 - t0);
        layers.solve[objective].record(t2 - t1);
        layers.footprint.record(t3 - t2);
    }
    traced.layers.replay_ns += t3 - t0;
    (answer, t3 - t0)
}

/// Runs the schedule once, closed loop, split at the layer boundaries.
pub fn run_traced(inputs: &Inputs) -> (PassResult, Traced) {
    let (mut world, capture_ns) = World::new(inputs);
    let schedule = &inputs.schedule;
    let mut traced = Traced {
        log: SpanLog::with_capacity(schedule.len() * 4 + 16),
        layers: LayerHists::default(),
    };
    let mut hists = OpHists::default();
    let mut ledger = Ledger::new(schedule.len());
    let gets = schedule
        .iter()
        .filter(|s| matches!(s.op, Op::Get(_)))
        .count();
    let replay_every = if gets < REPLAY_ALL_BELOW {
        1
    } else {
        REPLAY_EVERY
    };
    let mut get_misses = 0u64;
    let mut solves_before = 0u64;
    let start = Instant::now();
    for (pos, s) in schedule.iter().enumerate() {
        let residual = ledger.residual_for(&world, s.op);
        let timed = pos >= inputs.warmup;
        let op_id = pos as u32;
        let (begin, end, outcome) = match s.op {
            Op::Get(_) => {
                let request = world.request(s.op);
                let t0 = ns(start);
                let canon = CanonicalRequest::new(request);
                let t1 = ns(start);
                let placement = world.svc.get_canonical(&canon);
                let t2 = ns(start);
                let root = traced.log.push("get", t0, t2, ROOT, op_id);
                traced.log.push("core.canonicalize", t0, t1, root, op_id);
                traced
                    .log
                    .push("service.get_canonical", t1, t2, root, op_id);
                // Hit or miss, from the counters, read outside the span.
                let solves = world.svc.stats().solves;
                let miss = solves > solves_before;
                solves_before = solves;
                if timed {
                    traced.layers.canonicalize.record(t1 - t0);
                    if miss {
                        traced.layers.get_miss.record(t2 - t1);
                    } else {
                        traced.layers.get_hit.record(t2 - t1);
                    }
                }
                if miss {
                    traced.layers.solves[objective_index(request.objective)] += 1;
                    get_misses += 1;
                    if get_misses % replay_every == 0 {
                        // Nothing ran since the answer, so the residual
                        // snapshot is still the one the solve was pinned to.
                        let pinned = world.svc.residual_snapshot();
                        let (again, took) = replay(&canon, &pinned, start, pos, timed, &mut traced);
                        if timed {
                            traced
                                .layers
                                .miss_overhead
                                .record((t2 - t1).saturating_sub(took));
                        }
                        if again != placement.result {
                            eprintln!(
                                "violation: replayed solve differs from the answer at op {pos}"
                            );
                            traced.layers.replay_mismatches += 1;
                        }
                    }
                }
                (t0, t2, World::book_get(placement))
            }
            Op::Admit(_) => {
                let request = world.request(s.op);
                let t0 = ns(start);
                let result = world.svc.admit(request);
                let t1 = ns(start);
                traced.log.push("admit", t0, t1, ROOT, op_id);
                let solves = world.svc.stats().solves;
                let solved = solves > solves_before;
                solves_before = solves;
                if timed {
                    traced.layers.admit.record(t1 - t0);
                }
                if solved {
                    traced.layers.solves[objective_index(request.objective)] += 1;
                    let before = residual.as_ref().expect("admits always fetch the residual");
                    let canon = CanonicalRequest::new(request);
                    let (again, took) = replay(&canon, before, start, pos, timed, &mut traced);
                    if timed {
                        traced
                            .layers
                            .admit_overhead
                            .record((t1 - t0).saturating_sub(took));
                    }
                    let served = match &result {
                        Ok(admission) => Some(Ok(&admission.selection)),
                        Err(ServiceError::Select(e)) => Some(Err(e)),
                        Err(_) => None,
                    };
                    if served.is_some_and(|served| served != again.as_ref()) {
                        eprintln!(
                            "violation: replayed solve differs from the admission at op {pos}"
                        );
                        traced.layers.replay_mismatches += 1;
                    }
                }
                (t0, t1, world.book_admit(result))
            }
            Op::Release => {
                let job = world.jobs.pop_front();
                let t0 = ns(start);
                let released = job.is_some_and(|job| world.svc.release(job).is_ok());
                let t1 = ns(start);
                traced.log.push("release", t0, t1, ROOT, op_id);
                if timed {
                    traced.layers.release.record(t1 - t0);
                }
                (t0, t1, Outcome::plain(Kind::Release, !released))
            }
            Op::Publish(i) => {
                let delta = &inputs.deltas[i as usize];
                let t0 = ns(start);
                let next = Arc::new(world.cur.apply(delta));
                let t1 = ns(start);
                world.svc.publish(Arc::clone(&next), Some(delta));
                let t2 = ns(start);
                world.cur = next;
                let root = traced.log.push("publish", t0, t2, ROOT, op_id);
                traced.log.push("topology.apply", t0, t1, root, op_id);
                traced.log.push("service.publish", t1, t2, root, op_id);
                if timed {
                    traced.layers.apply.record(t1 - t0);
                    traced.layers.publish.record(t2 - t1);
                }
                (t0, t2, Outcome::plain(Kind::Publish, false))
            }
            Op::Ingest(i) => {
                // `ingest` issued as its two halves: the diff against the
                // last published snapshot, then `publish` with it.
                let t0 = ns(start);
                let next = Arc::new(world.cur.apply(&inputs.deltas[i as usize]));
                let t1 = ns(start);
                let delta = next.diff(&world.cur);
                let t2 = ns(start);
                world.svc.publish(Arc::clone(&next), Some(&delta));
                let t3 = ns(start);
                world.cur = next;
                let root = traced.log.push("ingest", t0, t3, ROOT, op_id);
                traced.log.push("topology.apply", t0, t1, root, op_id);
                traced.log.push("topology.diff", t1, t2, root, op_id);
                traced.log.push("service.publish", t2, t3, root, op_id);
                if timed {
                    traced.layers.apply.record(t1 - t0);
                    traced.layers.diff.record(t2 - t1);
                    traced.layers.ingest.record(t3 - t1);
                }
                (t0, t3, Outcome::plain(Kind::Publish, false))
            }
            Op::SimAdvance => {
                let t0 = ns(start);
                world.fed().sim.run_for(TICK_SECS);
                let t1 = ns(start);
                traced.log.push("simnet.run_for", t0, t1, ROOT, op_id);
                if timed {
                    traced.layers.run_for.record(t1 - t0);
                }
                (t0, t1, Outcome::plain(Kind::SimAdvance, false))
            }
            Op::Pump => {
                world.pumps += 1;
                let fed = world.fed.as_ref().expect("pipeline_fed");
                let now = fed.sim.now().as_secs_f64();
                let remos = fed.remos.as_ref().expect("built with a collector");
                let t0 = ns(start);
                let fresh = remos.snapshot_if_new(&fed.sim);
                let t1 = ns(start);
                if timed {
                    traced.layers.remos_snapshot.record(t1 - t0);
                }
                match fresh {
                    Some(snap) => {
                        world.new_snapshots += 1;
                        let epoch = snap.epoch();
                        let next = Arc::new(snap);
                        // The collector's epochs share one structure, and
                        // the service started from its epoch 0.
                        let delta = next.diff(&world.cur);
                        let t2 = ns(start);
                        world.svc.publish_at(Arc::clone(&next), Some(&delta), now);
                        let t3 = ns(start);
                        world.cur = next;
                        let root = traced.log.push("pump", t0, t3, ROOT, op_id);
                        traced
                            .log
                            .push("remos.snapshot_if_new", t0, t1, root, op_id);
                        traced.log.push("topology.diff", t1, t2, root, op_id);
                        traced.log.push("service.publish", t2, t3, root, op_id);
                        if timed {
                            traced.layers.diff.record(t2 - t1);
                            traced.layers.ingest.record(t3 - t1);
                        }
                        let outcome = Outcome {
                            extra: epoch,
                            ..Outcome::plain(Kind::Publish, false)
                        };
                        (t0, t3, outcome)
                    }
                    None => {
                        world.svc.heartbeat(now);
                        let t2 = ns(start);
                        let root = traced.log.push("pump", t0, t2, ROOT, op_id);
                        traced
                            .log
                            .push("remos.snapshot_if_new", t0, t1, root, op_id);
                        traced.log.push("service.heartbeat", t1, t2, root, op_id);
                        (t0, t2, Outcome::plain(Kind::Heartbeat, false))
                    }
                }
            }
            Op::Reconcile => {
                let now = world.fed().sim.now().as_secs_f64();
                let t0 = ns(start);
                let report = world.svc.reconcile(now);
                let t1 = ns(start);
                traced.log.push("reconcile", t0, t1, ROOT, op_id);
                // A sweep may re-select; keep the miss classification of
                // the next get honest.
                solves_before = world.svc.stats().solves;
                if timed {
                    traced.layers.reconcile.record(t1 - t0);
                }
                let outcome = Outcome {
                    extra: reconcile_word(&report),
                    ..Outcome::plain(Kind::Reconcile, !report.released.is_empty())
                };
                (t0, t1, outcome)
            }
        };
        if timed {
            if let Some(hist) = hists.of(outcome.kind) {
                hist.record(end - begin);
            }
        }
        ledger.book(pos, s.op, outcome, residual);
    }
    let wall_ns = ns(start);
    let (stats, sim, broken) = world.finish();
    let result = PassResult {
        hists,
        wait: Hist::new(),
        generator_lag: Hist::new(),
        backlog_max: 0,
        wall_ns,
        ops: schedule.len() as u64,
        failed: ledger.failed + broken + traced.layers.replay_mismatches,
        digest: ledger.digest,
        stats,
        samples: ledger.samples,
        sim,
        capture_ns,
    };
    (result, traced)
}

/// The oracle: re-solves every kept answer with a fresh selector on the
/// residual snapshot it was asked on. Returns how many differ. A typed
/// `SelectError` the fresh solve also returns is a correct answer.
pub fn verify(inputs: &Inputs, samples: &[OracleSample]) -> u64 {
    let mut wrong = 0;
    for sample in samples {
        let request = match sample.op {
            Op::Get(i) => &inputs.pool[i as usize],
            Op::Admit(i) => &inputs.admit_pool[i as usize],
            other => unreachable!("{other:?} has no answer"),
        };
        let fresh = selector_for(request.objective).select(&sample.residual, request);
        if fresh != sample.answer {
            eprintln!(
                "violation: op {} ({:?}) answered {:?}, a fresh solve gives {:?}",
                sample.pos, sample.op, sample.answer, fresh
            );
            wrong += 1;
        }
    }
    wrong
}

/// `run_for` timings, tick by tick, of the twin simulator (no collector,
/// same seeds) over the first `ticks` ticks: what the collector's
/// sampling adds to a tick of `Sim::run_for` is the traced pass's timing
/// of that tick minus this one's.
pub fn twin_run_for_ns(inputs: &Inputs, ticks: usize) -> Vec<u64> {
    let plan = inputs.fed.as_ref().expect("pipeline_fed");
    let mut twin = Fed::build(inputs, plan, false);
    (0..ticks)
        .map(|_| {
            let start = Instant::now();
            twin.sim.run_for(TICK_SECS);
            ns(start)
        })
        .collect()
}
