//! Chaos study: the placement service under faults, overload, and a
//! silent collector.
//!
//! Every other study measures placement *quality*; this one measures
//! placement *honesty under duress*. A federated testbed runs a seeded
//! [`FaultPlan`] through six phases — calm, a node crash (with reboot),
//! a collector stall (the measurement layer goes silent and the data
//! ages), a subnet partition (with heal), deterministic node flapping,
//! and a final recovery window — while the service absorbs a sustained
//! open-loop request stream plus admit/release churn, and a
//! [`PlacementService::reconcile`] sweep runs on a fixed cadence.
//!
//! The driver keeps its own model of what the service is allowed to
//! claim: it tracks the last instant the collector was heard from and
//! the confidence of the last published snapshot, recomputes the
//! expected [`PlacementQuality`] for every answer via
//! [`DegradePolicy::classify`], and **panics on any mismatch** — a
//! served answer the policy says should have been flagged stale is a
//! silent lie, and the study's headline claim is that there are zero.
//! The other per-run invariants: the request-accounting identity
//! ([`nodesel_service::ServiceStats::balanced`]) holds at every quiesced
//! tick, refusals always carry [`SelectError::DataTooStale`], and every
//! placed-node outage is repaired (by a reconcile move or the fault
//! plan's own repair) within a bounded time.
//!
//! The run is a pure function of its seed: the simulator, the
//! collector's noise/loss streams, the fault plan, and the request mix
//! are all deterministic, so the committed `BENCH_chaos.json` numbers
//! regenerate exactly. The separate [`run_soak`] probe is the one
//! intentionally racy piece — concurrent caller threads contending for
//! a two-slot solve gate — and only its deterministic aggregates are
//! reported.

use nodesel_core::{SelectError, SelectionRequest};
use nodesel_remos::{CollectorConfig, Remos};
use nodesel_service::{
    DegradePolicy, GetOptions, JobId, PlacementQuality, PlacementService, ServiceConfig,
    ServiceError, ServiceStats,
};
use nodesel_simnet::{install_faults, FaultAction, FaultDriver, FaultPlan, FaultStats, Sim};
use nodesel_topology::builders::federation;
use nodesel_topology::units::MBPS;
use nodesel_topology::{NetMetrics, NetSnapshot, NodeId};
use std::sync::Arc;

/// The six phases of the chaos timeline, each `phase_len` seconds long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosPhase {
    /// No faults; the baseline the other phases are read against.
    Calm,
    /// A compute host crashes early in the phase and reboots late.
    Crash,
    /// The collector goes silent: no publications, no heartbeats. Data
    /// age climbs through the soft and (late in the phase) hard bounds.
    Stall,
    /// One subnet's hosts are cut off (boundary links down), then healed.
    Partition,
    /// Two hosts crash and reboot on a fast deterministic cycle.
    Flap,
    /// No new faults; outstanding damage drains through reconciliation.
    Recovery,
}

/// The phases in timeline order.
pub const CHAOS_PHASES: [ChaosPhase; 6] = [
    ChaosPhase::Calm,
    ChaosPhase::Crash,
    ChaosPhase::Stall,
    ChaosPhase::Partition,
    ChaosPhase::Flap,
    ChaosPhase::Recovery,
];

impl ChaosPhase {
    /// Row label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ChaosPhase::Calm => "calm",
            ChaosPhase::Crash => "crash",
            ChaosPhase::Stall => "stall",
            ChaosPhase::Partition => "partition",
            ChaosPhase::Flap => "flap",
            ChaosPhase::Recovery => "recovery",
        }
    }

    /// Index into the timeline (and into [`ChaosOutcome::phases`]).
    pub fn index(self) -> usize {
        CHAOS_PHASES
            .iter()
            .position(|p| *p == self)
            .expect("every phase is in the timeline")
    }

    /// The phase covering absolute time `now` on a timeline of
    /// `phase_len`-second phases (times past the end stay `Recovery`).
    pub fn of(now: f64, phase_len: f64) -> ChaosPhase {
        let i = (now / phase_len).floor() as usize;
        CHAOS_PHASES[i.min(CHAOS_PHASES.len() - 1)]
    }
}

/// Tunables of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the collector's noise/loss streams.
    pub seed: u64,
    /// Simulated seconds per driver step (sim advance + pump + burst).
    pub tick: f64,
    /// Seconds per phase; the run lasts `6 * phase_len`.
    pub phase_len: f64,
    /// `get_with` requests issued per tick.
    pub burst: usize,
    /// Every `dead_every`-th request arrives with an already-expired
    /// deadline (the deterministic load-shedding pressure); `0` disables.
    pub dead_every: usize,
    /// Admitted-job count the churn loop tops the ledger up to.
    pub target_jobs: usize,
    /// Ticks between releases of the oldest (incident-free) job.
    pub release_every: usize,
    /// Nodes per admitted job.
    pub m: usize,
    /// Declared per-pair bandwidth demand for admissions, bit/s.
    pub reference_bandwidth: f64,
    /// Seconds between reconciliation sweeps.
    pub reconcile_every: f64,
    /// Remos collector settings (its `seed` is overwritten by `seed`).
    pub collector: CollectorConfig,
    /// Degraded-mode policy under test.
    pub degrade: DegradePolicy,
    /// Bound asserted on the p99 placed-node time-to-repair, seconds.
    /// Budget: collector detection (a few sampling periods) plus one
    /// reconcile cadence plus a tick of slack.
    pub repair_bound: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        let phase_len = 150.0;
        ChaosConfig {
            seed: 7,
            tick: 5.0,
            phase_len,
            burst: 8,
            dead_every: 5,
            target_jobs: 6,
            release_every: 3,
            m: 3,
            reference_bandwidth: 10.0 * MBPS,
            reconcile_every: 0.2 * phase_len,
            collector: CollectorConfig {
                period: 5.0,
                window: 8,
                loss: 0.05,
                ..CollectorConfig::default()
            },
            degrade: DegradePolicy {
                soft_staleness: 0.3 * phase_len,
                hard_staleness: 0.8 * phase_len,
                min_confidence: 0.6,
            },
            repair_bound: 0.45 * phase_len,
        }
    }
}

impl ChaosConfig {
    /// A proportionally shrunk run for CI smoke and unit tests: same
    /// phase structure, same bound ratios, a fraction of the wall time.
    pub fn smoke() -> Self {
        let phase_len = 60.0;
        ChaosConfig {
            phase_len,
            burst: 4,
            target_jobs: 4,
            reconcile_every: 0.2 * phase_len,
            degrade: DegradePolicy {
                soft_staleness: 0.3 * phase_len,
                hard_staleness: 0.8 * phase_len,
                min_confidence: 0.6,
            },
            repair_bound: 0.45 * phase_len,
            ..ChaosConfig::default()
        }
    }
}

/// Per-phase request and lifecycle accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// `get_with` calls issued during the phase.
    pub requests: u64,
    /// Answers served (`Fresh` or `Stale`).
    pub completed: u64,
    /// Requests shed (expired deadline or overflow).
    pub shed: u64,
    /// Requests refused by the degraded-mode policy.
    pub refused: u64,
    /// Served answers flagged `Stale` (subset of `completed`).
    pub degraded: u64,
    /// Jobs admitted during the phase.
    pub admits: u64,
    /// Admissions refused on hard-stale data.
    pub admit_refusals: u64,
}

/// Placed-node outage repair accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairSummary {
    /// Outages opened (an admitted job observed with a downed node).
    pub incidents: usize,
    /// Outages closed while the job was still admitted.
    pub resolved: usize,
    /// Outages still open when the run ended.
    pub unresolved: usize,
    /// Per-resolved-outage repair latency, seconds, in close order.
    pub samples: Vec<f64>,
    /// Median repair latency, seconds (0 when no samples).
    pub p50: f64,
    /// 99th-percentile repair latency, seconds (0 when no samples).
    pub p99: f64,
    /// Worst repair latency, seconds (0 when no samples).
    pub max: f64,
}

/// Reconciliation sweep totals across the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileTotals {
    /// Sweeps executed.
    pub sweeps: u64,
    /// Jobs found healthy, summed over sweeps.
    pub healthy: u64,
    /// Quality moves held by hysteresis/backoff, summed over sweeps.
    pub held: u64,
    /// Jobs moved to a new placement.
    pub repaired: u64,
    /// Jobs released for referencing vanished entities.
    pub released: u64,
    /// Advised re-selections that failed (left for a later sweep).
    pub deferred: u64,
}

/// Everything one chaos run measured.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Per-phase counts, in [`CHAOS_PHASES`] order.
    pub phases: [PhaseCounts; 6],
    /// State-changing fault events the plan actually executed.
    pub faults: FaultStats,
    /// Placed-node outage repair latencies.
    pub repair: RepairSummary,
    /// Reconciliation sweep totals.
    pub reconcile: ReconcileTotals,
    /// Final service counters (balanced; asserted every tick).
    pub stats: ServiceStats,
    /// Served answers whose quality flag disagreed with the driver's
    /// model. The run panics on the first one, so a returned outcome
    /// always carries zero — the field exists so the committed JSON
    /// states the claim explicitly.
    pub silent_stale: u64,
}

/// One admitted job the driver is watching.
struct TrackedJob {
    id: JobId,
    /// Open-outage start time, if a placed node is currently down.
    down_since: Option<f64>,
}

/// The seeded fault timeline over the federated testbed.
fn chaos_plan(config: &ChaosConfig, subnets: &[Vec<NodeId>]) -> FaultPlan {
    let len = config.phase_len;
    let crash0 = ChaosPhase::Crash.index() as f64 * len;
    let part0 = ChaosPhase::Partition.index() as f64 * len;
    let flap0 = ChaosPhase::Flap.index() as f64 * len;
    let victim = subnets[1][0];
    let cut = subnets[2].clone();
    let flappers = [subnets[3][0], subnets[3][1]];
    let mut scheduled = vec![
        (crash0 + 0.1 * len, FaultAction::CrashNode(victim)),
        (crash0 + 0.7 * len, FaultAction::RebootNode(victim)),
        (part0 + 0.1 * len, FaultAction::Partition(cut.clone())),
        (part0 + 0.7 * len, FaultAction::Heal(cut)),
    ];
    // Deterministic flapping: three crash/reboot cycles alternating
    // between two hosts, each outage 0.15 * phase_len long.
    for j in 0..3 {
        let node = flappers[j % 2];
        let start = flap0 + (0.1 + 0.3 * j as f64) * len;
        scheduled.push((start, FaultAction::CrashNode(node)));
        scheduled.push((start + 0.15 * len, FaultAction::RebootNode(node)));
    }
    FaultPlan {
        scheduled,
        flaps: Vec::new(),
        seed: config.seed,
    }
}

/// The deterministic request mix: slot `i` of the run-wide request
/// stream. Returns `(request, bandwidth_sensitive, dead_on_arrival,
/// deadline)`.
fn request_mix(
    config: &ChaosConfig,
    i: u64,
    now: f64,
) -> (SelectionRequest, bool, bool, Option<f64>) {
    let m = 2 + (i % 3) as usize;
    let bandwidth_sensitive = i.is_multiple_of(2);
    let request = if bandwidth_sensitive {
        SelectionRequest::balanced(m)
    } else {
        SelectionRequest::compute(m)
    };
    let dead = config.dead_every > 0 && i.is_multiple_of(config.dead_every as u64);
    let deadline = if dead {
        Some(now - 1.0)
    } else if i.is_multiple_of(3) {
        Some(now + config.tick)
    } else {
        None
    };
    (request, bandwidth_sensitive, dead, deadline)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs one deterministic chaos trial. Panics on any honesty violation
/// (a mis-flagged answer, an unbalanced counter identity, a refused
/// answer without [`SelectError::DataTooStale`]) — callers treat a
/// returned outcome as a passed trial.
pub fn run_chaos(config: &ChaosConfig) -> ChaosOutcome {
    let (topo, subnets) = federation(4, Some(2e-3));
    let mut sim = Sim::new(topo.clone());
    let remos = Remos::install(
        &mut sim,
        CollectorConfig {
            seed: config.seed,
            ..config.collector
        },
    );
    let plan = chaos_plan(config, &subnets);
    let fault_driver = install_faults(&mut sim, &plan);

    let initial = Arc::new(NetSnapshot::capture(Arc::new(topo)));
    let service = PlacementService::new(
        Arc::clone(&initial),
        ServiceConfig {
            degrade: config.degrade,
            ..ServiceConfig::default()
        },
    );

    // The driver's model of what the service may claim: the instant the
    // collector was last heard from and the confidence of the last
    // *published* snapshot (a heartbeat refreshes the former only).
    let mut last_heard = 0.0f64;
    let mut confidence = initial.min_confidence();

    let mut phases = [PhaseCounts::default(); 6];
    let mut repair = RepairSummary::default();
    let mut reconcile = ReconcileTotals::default();
    let mut jobs: Vec<TrackedJob> = Vec::new();
    let mut next_reconcile = config.reconcile_every;
    let mut slot = 0u64; // run-wide request-mix cursor

    let admit_request = SelectionRequest {
        reference_bandwidth: Some(config.reference_bandwidth),
        ..SelectionRequest::balanced(config.m)
    };

    let end = CHAOS_PHASES.len() as f64 * config.phase_len;
    let mut tick_index = 0u64;
    loop {
        sim.run_for(config.tick);
        let now = sim.now().as_secs_f64();
        let phase = ChaosPhase::of(now, config.phase_len);
        let ph = phase.index();

        // Pump the collector — except during the stall, which is the
        // whole point of that phase: the data must age.
        if phase != ChaosPhase::Stall {
            match remos.snapshot_if_new(&sim) {
                Some(snap) => {
                    confidence = snap.min_confidence();
                    service.ingest_at(snap, now);
                }
                None => service.heartbeat(now),
            }
            last_heard = now;
        }

        // Open-loop request burst. Every answer is checked against the
        // driver's own degraded-mode model.
        let age = (now - last_heard).max(0.0);
        for _ in 0..config.burst {
            let (request, bandwidth_sensitive, dead, deadline) = request_mix(config, slot, now);
            slot += 1;
            phases[ph].requests += 1;
            let opts = GetOptions {
                now: Some(now),
                deadline,
                block_when_full: false,
            };
            match service.get_with(&request, &opts) {
                Err(ServiceError::DeadlineExceeded { .. }) | Err(ServiceError::Shed) => {
                    phases[ph].shed += 1;
                }
                Err(e) => panic!("unexpected service error at t={now}: {e}"),
                Ok(placement) => {
                    assert!(!dead, "dead-on-arrival request was answered at t={now}");
                    let expected = config
                        .degrade
                        .classify(age, confidence, bandwidth_sensitive);
                    assert_eq!(
                        placement.quality, expected,
                        "quality flag disagrees with the driver model at t={now} \
                         (age {age:.1}s, confidence {confidence:.3})"
                    );
                    match placement.quality {
                        PlacementQuality::Refused { .. } => {
                            assert!(
                                matches!(placement.result, Err(SelectError::DataTooStale)),
                                "refusal without DataTooStale at t={now}"
                            );
                            phases[ph].refused += 1;
                        }
                        PlacementQuality::Stale { .. } => {
                            phases[ph].degraded += 1;
                            phases[ph].completed += 1;
                        }
                        PlacementQuality::Fresh => phases[ph].completed += 1,
                    }
                }
            }
        }

        // Admit/release churn. Releases skip jobs with an open outage so
        // every incident resolves to a measurable repair latency.
        if config.release_every > 0 && tick_index.is_multiple_of(config.release_every as u64) {
            if let Some(pos) = jobs.iter().position(|j| j.down_since.is_none()) {
                let job = jobs.remove(pos);
                service.release(job.id).expect("tracked job is admitted");
            }
        }
        while jobs.len() < config.target_jobs {
            match service.admit(&admit_request) {
                Ok(admission) => {
                    let expected = config.degrade.classify(age, confidence, true);
                    assert_eq!(
                        admission.quality, expected,
                        "admission quality disagrees with the driver model at t={now}"
                    );
                    phases[ph].admits += 1;
                    jobs.push(TrackedJob {
                        id: admission.job,
                        down_since: None,
                    });
                }
                Err(ServiceError::DegradedRefusal { .. }) => {
                    phases[ph].admit_refusals += 1;
                    break;
                }
                Err(ServiceError::Select(_)) => break, // too much down; retry next tick
                Err(e) => panic!("unexpected admission error at t={now}: {e}"),
            }
        }

        // Reconciliation cadence.
        if now >= next_reconcile {
            next_reconcile += config.reconcile_every;
            let report = service.reconcile(now);
            reconcile.sweeps += 1;
            reconcile.healthy += report.healthy as u64;
            reconcile.held += report.held as u64;
            reconcile.repaired += report.repaired.len() as u64;
            reconcile.released += report.released.len() as u64;
            reconcile.deferred += report.deferred.len() as u64;
            // The structure never shrinks in this study; releases are
            // churn-only, so a tracked job survives every sweep.
            jobs.retain(|j| !report.released.contains(&j.id));
        }

        // Outage bookkeeping: ground truth from the simulator vs the
        // job's *current* nodes (a reconcile move repairs an outage).
        for job in jobs.iter_mut() {
            let nodes = service.job_nodes(job.id).expect("tracked job is admitted");
            let down = nodes.iter().any(|n| !sim.node_is_up(*n));
            match (job.down_since, down) {
                (None, true) => {
                    job.down_since = Some(now);
                    repair.incidents += 1;
                }
                (Some(start), false) => {
                    repair.samples.push(now - start);
                    repair.resolved += 1;
                    job.down_since = None;
                }
                _ => {}
            }
        }

        // The service is quiesced between ticks (every call returned on
        // this thread), so the accounting identity must hold exactly.
        assert!(
            service.stats().balanced(),
            "request accounting identity broken at t={now}"
        );

        tick_index += 1;
        if now >= end {
            break;
        }
    }

    repair.unresolved = jobs.iter().filter(|j| j.down_since.is_some()).count();
    let mut sorted = repair.samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("repair latencies are finite"));
    repair.p50 = percentile(&sorted, 0.50);
    repair.p99 = percentile(&sorted, 0.99);
    repair.max = sorted.last().copied().unwrap_or(0.0);

    let faults = sim.driver::<FaultDriver>(fault_driver).stats();
    let stats = service.stats();
    assert!(stats.balanced(), "final request accounting identity broken");
    ChaosOutcome {
        phases,
        faults,
        repair,
        reconcile,
        stats,
        silent_stale: 0,
    }
}

/// Aggregate of one concurrent soak probe (see [`run_soak`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakReport {
    /// Requests issued across all threads.
    pub requests: u64,
    /// Requests answered (cache hit or solve).
    pub answered: u64,
    /// Requests shed (expired deadline or saturated gate).
    pub shed: u64,
    /// `true` when the service's counter identity held after the soak.
    pub balanced: bool,
}

/// A short genuinely-concurrent soak: a service with a tight solve gate
/// under simultaneous non-blocking bursts from `threads` caller
/// threads, a quarter of the requests dead on arrival.
///
/// The split between sheds, hits, and solves is scheduler-dependent;
/// only the deterministic aggregates (total requests, the balance of
/// the identity) are reported and asserted.
pub fn run_soak(threads: usize, per_thread: usize) -> SoakReport {
    let (topo, _) = federation(4, Some(2e-3));
    let snap = Arc::new(NetSnapshot::capture(Arc::new(topo)));
    let service = PlacementService::new(
        snap,
        ServiceConfig {
            max_inflight_solves: 2,
            ..ServiceConfig::default()
        },
    );
    service.heartbeat(1.0);
    let (answered, shed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let (mut answered, mut shed) = (0u64, 0u64);
                    for i in 0..per_thread {
                        let m = 2 + (t * 31 + i) % 4;
                        let request = SelectionRequest::balanced(m);
                        let opts = GetOptions {
                            now: Some(1.0),
                            deadline: if i % 4 == 0 { Some(0.5) } else { None },
                            block_when_full: false,
                        };
                        match service.get_with(&request, &opts) {
                            Ok(_) => answered += 1,
                            Err(ServiceError::Shed)
                            | Err(ServiceError::DeadlineExceeded { .. }) => shed += 1,
                            Err(e) => panic!("unexpected soak error: {e}"),
                        }
                    }
                    (answered, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak thread panicked"))
            .fold((0, 0), |(a, s), (da, ds)| (a + da, s + ds))
    });
    let stats = service.stats();
    let requests = (threads * per_thread) as u64;
    SoakReport {
        requests,
        answered,
        shed,
        balanced: stats.balanced() && stats.requests == requests && answered + shed == requests,
    }
}

/// Renders the per-phase table plus the repair and reconcile summaries.
pub fn render_chaos_table(outcome: &ChaosOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>9} {:>10} {:>6} {:>8} {:>9} {:>7} {:>9}\n",
        "phase", "requests", "completed", "shed", "refused", "degraded", "admits", "adm.ref."
    ));
    for phase in CHAOS_PHASES {
        let c = &outcome.phases[phase.index()];
        out.push_str(&format!(
            "{:<10} {:>9} {:>10} {:>6} {:>8} {:>9} {:>7} {:>9}\n",
            phase.label(),
            c.requests,
            c.completed,
            c.shed,
            c.refused,
            c.degraded,
            c.admits,
            c.admit_refusals
        ));
    }
    out.push_str(&format!(
        "faults: {} link-downs, {} link-ups, {} crashes, {} reboots\n",
        outcome.faults.link_downs,
        outcome.faults.link_ups,
        outcome.faults.crashes,
        outcome.faults.reboots
    ));
    out.push_str(&format!(
        "repair: {} incidents, {} resolved, {} unresolved; p50 {:.1}s, p99 {:.1}s, max {:.1}s\n",
        outcome.repair.incidents,
        outcome.repair.resolved,
        outcome.repair.unresolved,
        outcome.repair.p50,
        outcome.repair.p99,
        outcome.repair.max
    ));
    out.push_str(&format!(
        "reconcile: {} sweeps, {} healthy, {} held, {} repaired, {} released, {} deferred\n",
        outcome.reconcile.sweeps,
        outcome.reconcile.healthy,
        outcome.reconcile.held,
        outcome.reconcile.repaired,
        outcome.reconcile.released,
        outcome.reconcile.deferred
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A further-shrunk smoke run exercising the full phase timeline.
    fn mini() -> ChaosConfig {
        let phase_len = 40.0;
        ChaosConfig {
            phase_len,
            burst: 4,
            target_jobs: 3,
            reconcile_every: 0.2 * phase_len,
            degrade: DegradePolicy {
                soft_staleness: 0.3 * phase_len,
                hard_staleness: 0.8 * phase_len,
                min_confidence: 0.6,
            },
            repair_bound: 0.45 * phase_len,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn chaos_run_is_honest_balanced_and_repairs_in_bound() {
        let config = mini();
        let outcome = run_chaos(&config);
        assert!(outcome.stats.balanced());
        assert_eq!(outcome.silent_stale, 0);
        // The stall phase must push past the hard bound: refusals for
        // bandwidth-sensitive work, stale-but-served for CPU-only.
        let stall = &outcome.phases[ChaosPhase::Stall.index()];
        assert!(stall.refused > 0, "stall produced no refusals: {stall:?}");
        assert!(stall.degraded > 0, "stall produced no stale answers");
        // The dead-on-arrival mix must shed in every phase.
        assert!(outcome.phases.iter().all(|p| p.shed > 0));
        // Crashes happened, and every observed outage was repaired
        // within the bound.
        assert!(outcome.faults.crashes >= 4);
        assert_eq!(outcome.repair.unresolved, 0);
        assert!(
            outcome.repair.p99 <= config.repair_bound,
            "p99 repair {:.1}s exceeds bound {:.1}s",
            outcome.repair.p99,
            config.repair_bound
        );
        assert!(outcome.reconcile.sweeps > 0);
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let config = mini();
        let a = run_chaos(&config);
        let b = run_chaos(&config);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.repair.samples, b.repair.samples);
        assert_eq!(a.reconcile, b.reconcile);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn soak_identity_holds_under_concurrency() {
        let report = run_soak(8, 40);
        assert!(report.balanced, "soak identity broken: {report:?}");
        assert_eq!(report.requests, 320);
        assert!(report.shed >= 320 / 4, "dead-on-arrival quarter must shed");
    }
}
