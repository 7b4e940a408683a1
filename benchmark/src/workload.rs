//! One run of one workload: set-up, the passes, the oracle, and the
//! metrics computed from them.
//!
//! An **untraced** run (`--trace 0`) reports the end-to-end metrics:
//! seven or more timed set-ups, then closed-loop passes, each on a fresh
//! service. A **traced** run (`--trace 1`) reports the per-layer metrics:
//! the open-loop pass where the workload has one, then the traced pass
//! between two untraced closed-loop passes. End-to-end numbers never come
//! from a pass with tracing on.

use crate::exec::{run_pass, run_traced, twin_run_for_ns, verify, Loop, PassResult, Traced, World};
use crate::hist::Hist;
use crate::inputs::{Inputs, Op, Scale};
use crate::json::{obj, Value};
use crate::metrics::{tail_quantile, END_TO_END, PER_LAYER};
use nodesel_service::ServiceStats;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups timed per untraced run (two under `--smoke`); `setup_s` is
/// their median. A set-up that takes under 30 ms is repeated until
/// `SETUP_BUDGET_S` is spent (at most `SETUPS_MOST` times): the 0.3 ms
/// set-up of `pipeline_fed` read 35 % apart in two runs of seven.
const SETUPS: usize = 7;
const SETUPS_MOST: usize = 301;
const SETUP_BUDGET_S: f64 = 0.2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Size of the run.
    pub scale: Scale,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where the traced run writes `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

/// A reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`crate::metrics`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit from [`crate::metrics`].
    pub unit: &'static str,
    /// Samples behind a timing.
    pub samples: Option<u64>,
}

/// The result of one run.
pub struct RunOutput {
    /// No operation failed, every checked answer equals a fresh solve,
    /// every pass agrees with the first, and every invariant held.
    pub correct: bool,
    /// Operations executed over all passes.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Everything else a result file records about the run.
    pub detail: Value,
    /// The same, for a reader.
    pub report: String,
}

/// The counters of [`ServiceStats`] that must repeat from pass to pass.
fn counters(s: &ServiceStats) -> Vec<(&'static str, u64)> {
    vec![
        ("requests", s.requests),
        ("cache_hits", s.cache_hits),
        ("solves", s.solves),
        ("shed", s.shed),
        ("refused", s.refused),
        ("epochs_published", s.epochs_published),
        ("delta_evictions", s.delta_evictions),
        ("capacity_evictions", s.capacity_evictions),
        ("carried_forward", s.carried_forward),
        ("stale_inserts", s.stale_inserts),
        ("flushes", s.flushes),
        ("ledger_evictions", s.ledger_evictions),
        ("admits", s.admits),
        ("releases", s.releases),
        ("ledger_moves", s.ledger_moves),
        ("reconciles", s.reconciles),
        ("reconcile_repairs", s.reconcile_repairs),
    ]
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Collects metrics by name and checks them against the tables.
struct Report {
    metrics: Vec<Metric>,
    /// Set when an end-to-end timing lacks the samples for its percentile.
    problems: Vec<String>,
}

impl Report {
    fn unit_of(name: &str) -> (&'static str, &'static str) {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
    }

    fn value(&mut self, name: &str, value: f64) {
        let (name, unit) = Report::unit_of(name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    /// The median, over the passes, of a percentile in µs that must
    /// exist: an end-to-end metric whose pass was sized too short is a
    /// defect of the run, not a zero. `samples` is what one pass has.
    fn required_us<'h>(&mut self, name: &str, rounds: impl Iterator<Item = &'h Hist>, q: f64) {
        let (name, unit) = Report::unit_of(name);
        let mut samples = 0;
        let values: Vec<f64> = rounds
            .map(|hist| {
                samples = hist.count();
                hist.quantile_us(q).unwrap_or_else(|| {
                    self.problems.push(format!(
                        "{name}: {} samples do not back a p{}",
                        hist.count(),
                        q * 100.0
                    ));
                    f64::NAN
                })
            })
            .collect();
        self.metrics.push(Metric {
            name,
            value: median(values),
            unit,
            samples: Some(samples),
        });
    }

    /// A percentile in µs of a layer: 0 when the workload never reaches
    /// the layer or the samples do not back the percentile.
    fn layer_us(&mut self, name: &str, hist: &Hist, q: f64) {
        let (name, unit) = Report::unit_of(name);
        self.metrics.push(Metric {
            name,
            value: hist.quantile_us(q).unwrap_or(0.0),
            unit,
            samples: Some(hist.count()),
        });
    }
}

/// Cross-checks of a run's passes, accumulated into one failure count.
struct Checks {
    attempted: u64,
    failed: u64,
    passes: Vec<Value>,
    reference: Option<(u64, Vec<(&'static str, u64)>)>,
}

impl Checks {
    /// Verifies `pass` against the oracle and against the first pass,
    /// then frees its oracle samples: each holds a residual snapshot, and
    /// kept for every pass of a run they would be most of `peak_rss_mb`.
    fn admit(&mut self, label: &str, inputs: &Inputs, pass: &mut PassResult) {
        let samples = std::mem::take(&mut pass.samples);
        let wrong = verify(inputs, &samples);
        let mut disagreements = 0;
        let now = (pass.digest, counters(&pass.stats));
        match &self.reference {
            None => self.reference = Some(now),
            Some((digest, reference)) => {
                if *digest != pass.digest {
                    eprintln!(
                        "violation: {label} pass digest {:016x} differs from the first pass's {digest:016x}",
                        pass.digest
                    );
                    disagreements += 1;
                }
                for ((name, first), (_, this)) in reference.iter().zip(&now.1) {
                    if first != this {
                        eprintln!(
                            "violation: {label} pass counted {name}={this}, the first pass {first}"
                        );
                        disagreements += 1;
                    }
                }
            }
        }
        self.attempted += pass.ops;
        self.failed += pass.failed + wrong + disagreements;
        self.passes.push(obj([
            ("pass", Value::from(label)),
            ("ops", Value::from(pass.ops)),
            ("wall_s", Value::from(pass.wall_ns as f64 / 1e9)),
            (
                "get_p50_us",
                Value::from(pass.hists.get.quantile_us(0.5).unwrap_or(0.0)),
            ),
            (
                "get_p90_us",
                Value::from(pass.hists.get.quantile_us(0.9).unwrap_or(0.0)),
            ),
            (
                "get_p99_us",
                Value::from(pass.hists.get.quantile_us(0.99).unwrap_or(0.0)),
            ),
            (
                "publish_p50_us",
                Value::from(pass.hists.publish.quantile_us(0.5).unwrap_or(0.0)),
            ),
            (
                "publish_p90_us",
                Value::from(pass.hists.publish.quantile_us(0.9).unwrap_or(0.0)),
            ),
            (
                "admit_p50_us",
                Value::from(pass.hists.admit.quantile_us(0.5).unwrap_or(0.0)),
            ),
            ("digest", Value::from(format!("{:016x}", pass.digest))),
            ("oracle_checked", Value::from(samples.len() as u64)),
            ("oracle_wrong", Value::from(wrong)),
            ("failed", Value::from(pass.failed + wrong + disagreements)),
        ]));
    }
}

/// Runs `cfg` and computes its metrics.
pub fn run(cfg: &RunConfig) -> RunOutput {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    // The traced run reports no set-up time, so it sets up once.
    let (least, budget_s) = match (cfg.trace, cfg.scale.smoke) {
        (true, _) => (1, 0.0),
        (false, true) => (2, 0.0),
        (false, false) => (SETUPS, SETUP_BUDGET_S),
    };
    while setup_s.len() < least
        || (setup_s.iter().sum::<f64>() < budget_s && setup_s.len() < SETUPS_MOST)
    {
        let t = Instant::now();
        let generated = Inputs::generate(&cfg.workload, cfg.seed, cfg.scale);
        drop(World::new(&generated));
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");

    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        passes: Vec::new(),
        reference: None,
    };
    // The traced run times the open-loop pass (arrivals on a clock,
    // latency from due time), then the traced pass between two untraced
    // closed-loop passes, so that a machine drifting in speed does not
    // read as tracing cost; the untraced run repeats the closed-loop pass.
    let open = (cfg.trace && inputs.open_loop).then(|| {
        let mut pass = run_pass(&inputs, Loop::Open);
        checks.admit("open", &inputs, &mut pass);
        pass
    });
    let closed_pass = |checks: &mut Checks| {
        let mut pass = run_pass(&inputs, Loop::Closed);
        checks.admit("closed", &inputs, &mut pass);
        pass
    };
    let mut closed = Vec::new();
    let mut traced = None;
    if cfg.trace {
        closed.push(closed_pass(&mut checks));
        let (mut pass, spans) = run_traced(&inputs);
        checks.admit("traced", &inputs, &mut pass);
        traced = Some((pass, spans));
        closed.push(closed_pass(&mut checks));
    } else {
        closed.extend((0..inputs.rounds).map(|_| closed_pass(&mut checks)));
    }

    let mut report = Report {
        metrics: Vec::new(),
        problems: Vec::new(),
    };
    let mut text = String::new();
    let mut extra: Vec<(&str, Value)> = Vec::new();
    if let Some((pass, traced)) = &traced {
        layer_metrics(
            &mut report,
            &inputs,
            open.as_ref(),
            &closed,
            pass,
            traced,
            &checks,
        );
        let rows = self_time_table(&mut text, pass, traced);
        extra.push(("self_time", rows));
        match write_trace(cfg, traced) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: trace file not written: {e}"),
        }
    } else {
        report.value("setup_s", median(setup_s));
        report.required_us("get_p50_us", closed.iter().map(|p| &p.hists.get), 0.5);
        // A `--smoke` pass is too short for the workload's percentile;
        // there the tail is the p90, or the median.
        let backed = |q: f64| closed.iter().all(|p| p.hists.get.quantile(q).is_some());
        let tail = [tail_quantile(&cfg.workload), 0.9]
            .into_iter()
            .find(|&q| !cfg.scale.smoke || backed(q))
            .unwrap_or(0.5);
        report.required_us("get_tail_us", closed.iter().map(|p| &p.hists.get), tail);
        extra.push(("get_tail_percentile", Value::from(100.0 * tail)));
        report.required_us(
            "publish_p50_us",
            closed.iter().map(|p| &p.hists.publish),
            0.5,
        );
        report.value(
            "capacity_rps",
            median(
                closed
                    .iter()
                    .map(|p| p.ops as f64 / (p.wall_ns as f64 / 1e9))
                    .collect(),
            ),
        );
        report.value("peak_rss_mb", peak_rss_mb());
    }

    // Report in the tables' order, whatever order they were computed in.
    let position = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .position(|n| n == name)
    };
    report.metrics.sort_by_key(|m| position(m.name));
    for problem in &report.problems {
        eprintln!("violation: {problem}");
    }
    let failed = checks.failed + report.problems.len() as u64;
    let stats = &closed[0].stats;
    let input_hash = inputs.fingerprint();
    let _ = writeln!(
        text,
        "{} seed {} ({}): {} nodes, {} links, {} operations per pass, warm-up {}, input hash {:016x}, answer digest {:016x}",
        inputs.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        inputs.topo.node_count(),
        inputs.topo.link_count(),
        inputs.schedule.len(),
        inputs.warmup,
        input_hash,
        closed[0].digest,
    );
    let deciles: Vec<String> = (1..10)
        .filter_map(|d| closed[0].hists.get.quantile_us(d as f64 / 10.0))
        .map(|us| format!("{us:.1}"))
        .collect();
    let _ = writeln!(
        text,
        "  closed-loop get deciles (us): {}",
        deciles.join(" ")
    );
    for m in &report.metrics {
        let samples = m
            .samples
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        let _ = writeln!(
            text,
            "  {:<32} {:>16.4} {}{}",
            m.name, m.value, m.unit, samples
        );
    }
    let mut detail = vec![
        ("workload", Value::from(inputs.workload)),
        ("seed", Value::from(format!("{}", cfg.seed))),
        ("trace", Value::from(cfg.trace)),
        ("seconds", Value::from(cfg.scale.seconds)),
        ("smoke", Value::from(cfg.scale.smoke)),
        ("nodes", Value::from(inputs.topo.node_count() as u64)),
        ("links", Value::from(inputs.topo.link_count() as u64)),
        ("operations", Value::from(inputs.schedule.len() as u64)),
        ("warmup", Value::from(inputs.warmup as u64)),
        ("input_hash", Value::from(format!("{input_hash:016x}"))),
        ("digest", Value::from(format!("{:016x}", closed[0].digest))),
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(checks.attempted)),
        ("failed", Value::from(failed)),
        (
            "excluded",
            match inputs.workload {
                "cold_100k" => Value::from(
                    "balanced requests: the flat solve the service runs today takes 87 s per request at n = 100 000",
                ),
                _ => Value::Null,
            },
        ),
        (
            "counters",
            obj(counters(stats).into_iter().map(|(k, v)| (k, Value::from(v)))),
        ),
        ("passes", Value::Arr(checks.passes)),
        (
            "metrics",
            obj(report.metrics.iter().map(|m| {
                let mut fields = vec![("value", Value::from(m.value)), ("unit", Value::from(m.unit))];
                if let Some(n) = m.samples {
                    fields.push(("samples", Value::from(n)));
                }
                (m.name, obj(fields))
            })),
        ),
    ];
    detail.extend(extra);
    RunOutput {
        correct: failed == 0,
        attempted: checks.attempted,
        failed,
        metrics: report.metrics,
        detail: obj(detail),
        report: text,
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    report: &mut Report,
    inputs: &Inputs,
    open: Option<&PassResult>,
    closed: &[PassResult],
    traced_pass: &PassResult,
    traced: &Traced,
    checks: &Checks,
) {
    let layers = &traced.layers;
    let stats = &traced_pass.stats;
    let empty = Hist::new();
    let us = |ns: u64| ns as f64 / 1e3;

    let captures: Vec<f64> = open
        .into_iter()
        .chain(closed)
        .chain([traced_pass])
        .map(|p| us(p.capture_ns))
        .collect();
    report.value("topology.capture_us", median(captures));
    report.layer_us("topology.apply_us", &layers.apply, 0.5);
    report.layer_us("topology.diff_us", &layers.diff, 0.5);

    let sim = traced_pass.sim.unwrap_or_default();
    let run_for_ns = traced.log.root_total_ns(|name| name == "simnet.run_for");
    report.layer_us("simnet.run_for_p50_us", &layers.run_for, 0.5);
    report.layer_us("simnet.run_for_p90_us", &layers.run_for, 0.9);
    report.value("simnet.events", sim.events as f64);
    report.value(
        "simnet.events_per_s",
        if run_for_ns == 0 {
            0.0
        } else {
            sim.events as f64 / (run_for_ns as f64 / 1e9)
        },
    );
    report.value("simnet.completed_flows", sim.completed_flows as f64);
    report.value("simnet.completed_tasks", sim.completed_tasks as f64);
    report.value("loadgen.jobs_started", sim.jobs_started as f64);
    report.value("loadgen.messages_started", sim.messages_started as f64);
    report.layer_us("remos.snapshot_us", &layers.remos_snapshot, 0.5);
    report.value("remos.samples", sim.samples as f64);
    report.value(
        "remos.new_snapshot_ratio",
        if sim.pumps == 0 {
            0.0
        } else {
            sim.new_snapshots as f64 / sim.pumps as f64
        },
    );
    report.value(
        "remos.collector_tick_us",
        if inputs.fed.is_some() {
            // The collector samples once per tick. Both simulators do
            // the same work tick by tick otherwise, so the median of the
            // per-tick differences over the first quarter of the ticks
            // is its cost, and a tick something else disturbed does not
            // move it.
            let ticks = inputs
                .schedule
                .iter()
                .filter(|s| s.op == Op::SimAdvance)
                .count()
                / 4;
            let twin = twin_run_for_ns(inputs, ticks);
            let differences = traced
                .log
                .spans()
                .iter()
                .filter(|s| s.name == "simnet.run_for")
                .zip(&twin)
                .map(|(with, &without)| {
                    ((with.end_ns - with.start_ns) as f64 - without as f64) / 1e3
                })
                .collect();
            median(differences)
        } else {
            0.0
        },
    );

    report.layer_us("core.canonicalize_us", &layers.canonicalize, 0.5);
    report.layer_us("core.to_request_us", &layers.to_request, 0.5);
    report.layer_us("core.solve_compute_us", &layers.solve[0], 0.5);
    report.layer_us("core.solve_comm_us", &layers.solve[1], 0.5);
    report.layer_us("core.solve_balanced_us", &layers.solve[2], 0.5);
    report.layer_us("core.footprint_us", &layers.footprint, 0.5);
    report.value("core.solves_compute", layers.solves[0] as f64);
    report.value("core.solves_comm", layers.solves[1] as f64);
    report.value("core.solves_balanced", layers.solves[2] as f64);

    report.layer_us("service.get_hit_us", &layers.get_hit, 0.5);
    report.layer_us("service.get_miss_us", &layers.get_miss, 0.5);
    report.layer_us("service.miss_overhead_us", &layers.miss_overhead, 0.5);
    report.value(
        "service.cache_hit_ratio",
        stats.cache_hits as f64 / stats.requests.max(1) as f64,
    );
    report.value("service.requests", stats.requests as f64);
    report.value("service.cache_hits", stats.cache_hits as f64);
    report.value("service.solves", stats.solves as f64);
    report.value("service.carried_forward", stats.carried_forward as f64);
    report.value("service.delta_evictions", stats.delta_evictions as f64);
    report.value("service.ledger_evictions", stats.ledger_evictions as f64);
    report.value(
        "service.capacity_evictions",
        stats.capacity_evictions as f64,
    );
    report.value(
        "service.evicted_per_publish",
        stats.delta_evictions as f64 / stats.epochs_published.max(1) as f64,
    );
    report.layer_us("service.publish_us", &layers.publish, 0.5);
    report.layer_us("service.ingest_us", &layers.ingest, 0.5);
    report.layer_us("service.admit_us", &layers.admit, 0.5);
    report.layer_us("service.admit_overhead_us", &layers.admit_overhead, 0.5);
    report.layer_us("service.release_us", &layers.release, 0.5);
    report.layer_us("service.reconcile_us", &layers.reconcile, 0.5);

    let (wait, lag) = open.map_or((&empty, &empty), |p| (&p.wait, &p.generator_lag));
    report.layer_us("bench.wait_p50_us", wait, 0.5);
    report.layer_us("bench.wait_p99_us", wait, 0.99);
    report.layer_us("bench.generator_lag_p99_us", lag, 0.99);
    report.value(
        "bench.backlog_max",
        open.map_or(0.0, |p| p.backlog_max as f64),
    );
    // The replays are deliberate extra work, not tracing cost. The
    // untraced wall time is the mean of the passes before and after.
    let traced_wall = (traced_pass.wall_ns - layers.replay_ns) as f64;
    let untraced_wall = closed.iter().map(|p| p.wall_ns as f64).sum::<f64>() / closed.len() as f64;
    report.value(
        "bench.trace_overhead_share",
        traced_wall / untraced_wall - 1.0,
    );
    report.value(
        "bench.span_coverage",
        traced.log.root_total_ns(|_| true) as f64 / traced_pass.wall_ns as f64,
    );

    // Response times at the fixed arrival rate, queueing included.
    let open_hists = open.map(|p| &p.hists);
    let (open_get, open_publish, open_admit) =
        open_hists.map_or((&empty, &empty, &empty), |h| (&h.get, &h.publish, &h.admit));
    report.layer_us("open.get_p50_us", open_get, 0.5);
    report.layer_us("open.get_p90_us", open_get, 0.9);
    report.layer_us("open.get_p99_us", open_get, 0.99);
    report.layer_us("open.get_p999_us", open_get, 0.999);
    report.layer_us("open.publish_p50_us", open_publish, 0.5);
    report.layer_us("open.admit_p50_us", open_admit, 0.5);
    report.layer_us("open.admit_p90_us", open_admit, 0.9);
    // Tails and write latencies of the untraced closed-loop passes.
    let mut both = closed[0].hists.clone();
    for pass in &closed[1..] {
        both.merge(&pass.hists);
    }
    report.layer_us("get_p90_us", &both.get, 0.9);
    report.layer_us("get_p99_us", &both.get, 0.99);
    report.layer_us("publish_p90_us", &both.publish, 0.9);
    report.layer_us("admit_p50_us", &both.admit, 0.5);
    report.layer_us("admit_p90_us", &both.admit, 0.9);
    report.value(
        "sim_speed_x",
        closed[0]
            .sim
            .map_or(0.0, |s| s.sim_seconds / (untraced_wall / 1e9)),
    );
    report.value(
        "failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
}

/// Appends the self-time table to `text` and returns it as JSON rows.
fn self_time_table(text: &mut String, pass: &PassResult, traced: &Traced) -> Value {
    let rows = traced.log.self_times();
    let operations = traced.log.root_total_ns(|_| true);
    let total: u64 = rows.iter().map(|r| r.self_ns).sum();
    let _ = writeln!(
        text,
        "  self time by span (sums to {:.3} ms; operation spans total {:.3} ms, {:.1} % of the traced pass)",
        total as f64 / 1e6,
        operations as f64 / 1e6,
        100.0 * operations as f64 / pass.wall_ns as f64,
    );
    for row in &rows {
        let _ = writeln!(
            text,
            "    {:<28} {:>9} spans {:>12.3} ms {:>6.2} %",
            row.name,
            row.count,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / total.max(1) as f64,
        );
    }
    Value::Arr(
        rows.iter()
            .map(|row| {
                obj([
                    ("span", Value::from(row.name)),
                    ("count", Value::from(row.count)),
                    ("self_ms", Value::from(row.self_ns as f64 / 1e6)),
                ])
            })
            .collect(),
    )
}

fn write_trace(cfg: &RunConfig, traced: &Traced) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    traced.log.write_jsonl(&mut file)?;
    Ok(path)
}
