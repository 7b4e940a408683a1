//! What the benchmark reports: the workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics with the
//! end-to-end metric and workload each one is expected to move.
//!
//! `BENCHMARK.json` at the repository root repeats the first three
//! columns of these tables for the driver; `tests/smoke.rs` fails when
//! the two drift apart, and checks that every "moves" / "on" entry
//! names something that exists.

/// A workload and the reason it exists.
pub struct Workload {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// One line: which layer does the work, and why that is worth a run.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hot_churn_1k",
        why: "n=1000 tree, 95% of gets from a hot set of 100, a publication per 125 gets: the cache answers 80% of requests, the solver costs nearly all the time; BENCH_service.json's traffic, now with latency",
    },
    Workload {
        name: "cold_100k",
        why: "n=100000 hierarchy, every request distinct with a publication before each: 0% cache hits by construction, so the solver and every O(n) path do all the work; a cache change must not move it",
    },
    Workload {
        name: "admit_mix_1k",
        why: "the hot_churn_1k fabric and specs with 90% get / 5% admit / 5% release and snapshot ingests: ledger writes beside reads, so a get-path gain paid for by admit, release or invalidation shows",
    },
    Workload {
        name: "pipeline_fed",
        why: "16-subnet federation driven simulator -> collector -> ingest -> get/admit/reconcile per 5 s tick: the only workload with simnet, remos and loadgen on the path; the service does little",
    },
];

/// An end-to-end metric: reported by every workload on the untraced run
/// and gated by `bound`.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it measures.
    pub meaning: &'static str,
}

/// The end-to-end metrics. The driver has every one of them reported by
/// every workload, so they are the ones all four schedules can back:
/// call durations and capacity of the closed-loop passes, each the
/// median over the passes of a run. The issue's other end-to-end metrics
/// are per-layer metrics under their own names: admit latency and
/// simulation speed because not every workload has the operation,
/// `failed_share` because it is 0 (the result line's `failed` /
/// `attempted` carries it), the open-loop response times (`open.*`)
/// because this machine cannot hold them within any bound.
///
/// **The bounds.** The issue asked for 0.10 and for demoting what cannot
/// hold it. Nothing timed holds it here: ten runs of one binary on one
/// seed spread (interquartile range / median) by 0.08 on `cold_100k`'s
/// capacity, whose memory-bound passes change speed by 20 % within a
/// run, and the driver refuses a benchmark whose spread exceeds a bound
/// and asks for a third of it. Demoting every timing would leave nothing
/// to gate, so the timings carry the driver's ceiling, 0.25. README.md
/// has the measured spreads.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "median of seven or more set-ups: inputs from the seed, snapshot capture, service (and simulator, collector, generators) construction",
    },
    EndToEnd {
        name: "get_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        meaning: "median duration of PlacementService::get over a closed-loop pass; the median of the passes",
    },
    EndToEnd {
        name: "get_tail_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        meaning: "tail duration of PlacementService::get over a closed-loop pass, at the workload's percentile (tail_quantile); the median of the passes",
    },
    EndToEnd {
        name: "publish_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        meaning: "median pump step, new measurements in hand to epoch servable: apply+publish, apply+ingest, or snapshot_if_new+ingest_at; the median of the passes",
    },
    EndToEnd {
        name: "capacity_rps",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
        meaning: "operations of the schedule divided by the wall time of a closed-loop pass; the median of the passes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
        meaning: "VmHWM of the workload's process at exit",
    },
];

/// The percentile `get_tail_us` reports on `workload`: the p99 where a
/// pass backs it with 1 000 gets and it holds still, the p90 elsewhere.
/// A pass of `cold_100k` times 120 gets, which back a p90 and no more. A
/// pass of `pipeline_fed` times 3 900, but its p99 is the slowest few of
/// 1 300 balanced solves and spread by 0.12 over ten seeds where its p90
/// spread by 0.03. On `hot_churn_1k` the p99 is a balanced solve, on
/// `admit_mix_1k` a get that missed behind a ledger change.
pub fn tail_quantile(workload: &str) -> f64 {
    match workload {
        "hot_churn_1k" | "admit_mix_1k" => 0.99,
        _ => 0.9,
    }
}

/// A per-layer metric, taken on the traced run.
pub struct Layer {
    /// Metric name, prefixed by the crate it times.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end (or demoted end-to-end) metrics it should move.
    pub moves: &'static [&'static str],
    /// The workloads on which it should move them. A metric reads 0 on
    /// a workload whose schedule never reaches the layer.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &["hot_churn_1k", "cold_100k", "admit_mix_1k", "pipeline_fed"];
const HOT: &[&str] = &["hot_churn_1k"];
const COLD: &[&str] = &["cold_100k"];
const FED: &[&str] = &["pipeline_fed"];
const OPEN: &[&str] = &["hot_churn_1k", "admit_mix_1k"];
const WRITES: &[&str] = &["admit_mix_1k", "pipeline_fed"];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:expr, $on:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            on: $on,
        }
    };
}

/// The per-layer metrics and the interaction each one predicts.
pub const PER_LAYER: &[Layer] = &[
    // topology
    layer!("topology.capture_us", "us", "lower", &["setup_s"], ALL),
    layer!(
        "topology.apply_us",
        "us",
        "lower",
        &["publish_p50_us"],
        COLD
    ),
    layer!(
        "topology.diff_us",
        "us",
        "lower",
        &["publish_p50_us"],
        WRITES
    ),
    // simnet
    layer!(
        "simnet.run_for_p50_us",
        "us",
        "lower",
        &["sim_speed_x", "capacity_rps"],
        FED
    ),
    layer!(
        "simnet.run_for_p90_us",
        "us",
        "lower",
        &["sim_speed_x"],
        FED
    ),
    layer!("simnet.events", "count", "lower", &["sim_speed_x"], FED),
    layer!(
        "simnet.events_per_s",
        "1/s",
        "higher",
        &["sim_speed_x", "capacity_rps"],
        FED
    ),
    layer!(
        "simnet.completed_flows",
        "count",
        "higher",
        &["sim_speed_x"],
        FED
    ),
    layer!(
        "simnet.completed_tasks",
        "count",
        "higher",
        &["sim_speed_x"],
        FED
    ),
    // loadgen
    layer!(
        "loadgen.jobs_started",
        "count",
        "higher",
        &["sim_speed_x"],
        FED
    ),
    layer!(
        "loadgen.messages_started",
        "count",
        "higher",
        &["sim_speed_x"],
        FED
    ),
    // remos
    layer!("remos.snapshot_us", "us", "lower", &["publish_p50_us"], FED),
    layer!("remos.samples", "count", "higher", &["sim_speed_x"], FED),
    layer!(
        "remos.new_snapshot_ratio",
        "ratio",
        "lower",
        &["publish_p50_us"],
        FED
    ),
    layer!(
        "remos.collector_tick_us",
        "us",
        "lower",
        &["sim_speed_x"],
        FED
    ),
    // core
    layer!("core.canonicalize_us", "us", "lower", &["get_p50_us"], HOT),
    layer!("core.to_request_us", "us", "lower", &["get_p90_us"], HOT),
    layer!(
        "core.solve_compute_us",
        "us",
        "lower",
        &["get_p50_us", "capacity_rps"],
        COLD
    ),
    layer!(
        "core.solve_comm_us",
        "us",
        "lower",
        &["get_tail_us", "capacity_rps"],
        COLD
    ),
    layer!(
        "core.solve_balanced_us",
        "us",
        "lower",
        &["get_tail_us", "open.get_p99_us", "admit_p50_us"],
        &["hot_churn_1k", "admit_mix_1k", "pipeline_fed"]
    ),
    layer!("core.footprint_us", "us", "lower", &["get_p90_us"], HOT),
    layer!(
        "core.solves_compute",
        "count",
        "lower",
        &["capacity_rps"],
        ALL
    ),
    layer!("core.solves_comm", "count", "lower", &["capacity_rps"], ALL),
    layer!(
        "core.solves_balanced",
        "count",
        "lower",
        &["capacity_rps"],
        ALL
    ),
    // service
    layer!("service.get_hit_us", "us", "lower", &["get_p50_us"], HOT),
    layer!(
        "service.get_miss_us",
        "us",
        "lower",
        &["get_p90_us", "open.get_p90_us", "capacity_rps"],
        HOT
    ),
    layer!(
        "service.miss_overhead_us",
        "us",
        "lower",
        &["get_p90_us"],
        &["hot_churn_1k", "cold_100k"]
    ),
    layer!(
        "service.cache_hit_ratio",
        "ratio",
        "higher",
        &["capacity_rps", "open.get_p99_us"],
        OPEN
    ),
    layer!(
        "service.cache_hits",
        "count",
        "higher",
        &["capacity_rps"],
        OPEN
    ),
    layer!("service.solves", "count", "lower", &["capacity_rps"], OPEN),
    layer!(
        "service.carried_forward",
        "count",
        "higher",
        &["capacity_rps"],
        OPEN
    ),
    layer!(
        "service.delta_evictions",
        "count",
        "lower",
        &["capacity_rps"],
        OPEN
    ),
    layer!(
        "service.ledger_evictions",
        "count",
        "lower",
        &["capacity_rps", "get_tail_us"],
        WRITES
    ),
    layer!(
        "service.capacity_evictions",
        "count",
        "lower",
        &["capacity_rps"],
        OPEN
    ),
    layer!(
        "service.evicted_per_publish",
        "count",
        "lower",
        &["capacity_rps", "open.get_p99_us"],
        OPEN
    ),
    layer!(
        "service.publish_us",
        "us",
        "lower",
        &["publish_p50_us", "publish_p90_us"],
        COLD
    ),
    layer!(
        "service.ingest_us",
        "us",
        "lower",
        &["publish_p50_us", "publish_p90_us"],
        WRITES
    ),
    layer!(
        "service.admit_us",
        "us",
        "lower",
        &["admit_p50_us", "capacity_rps"],
        WRITES
    ),
    layer!(
        "service.admit_overhead_us",
        "us",
        "lower",
        &["admit_p50_us"],
        WRITES
    ),
    layer!(
        "service.release_us",
        "us",
        "lower",
        &["capacity_rps"],
        WRITES
    ),
    layer!(
        "service.reconcile_us",
        "us",
        "lower",
        &["capacity_rps"],
        FED
    ),
    // the generator itself: validity of the open-loop passes
    layer!(
        "bench.wait_p50_us",
        "us",
        "lower",
        &["open.get_p50_us"],
        OPEN
    ),
    layer!(
        "bench.wait_p99_us",
        "us",
        "lower",
        &["open.get_p99_us"],
        OPEN
    ),
    layer!("bench.generator_lag_p99_us", "us", "lower", &[], OPEN),
    layer!(
        "bench.backlog_max",
        "ops",
        "lower",
        &["open.get_p99_us"],
        OPEN
    ),
    layer!("bench.trace_overhead_share", "ratio", "lower", &[], ALL),
    layer!("bench.span_coverage", "ratio", "higher", &[], ALL),
    // End-to-end by nature, reported here: response times of the
    // open-loop pass (latency from due time, queueing included), which
    // this machine cannot hold within any bound ...
    layer!("open.get_p50_us", "us", "lower", &[], OPEN),
    layer!("open.get_p90_us", "us", "lower", &[], OPEN),
    layer!("open.get_p99_us", "us", "lower", &[], OPEN),
    layer!("open.get_p999_us", "us", "lower", &[], HOT),
    layer!("open.publish_p50_us", "us", "lower", &[], OPEN),
    layer!("open.admit_p50_us", "us", "lower", &[], &["admit_mix_1k"]),
    layer!("open.admit_p90_us", "us", "lower", &[], &["admit_mix_1k"]),
    // ... and call durations of the untraced closed-loop passes that not
    // every workload has, or backs with enough samples.
    layer!("get_p90_us", "us", "lower", &[], ALL),
    layer!(
        "get_p99_us",
        "us",
        "lower",
        &[],
        &["hot_churn_1k", "admit_mix_1k", "pipeline_fed"]
    ),
    layer!("publish_p90_us", "us", "lower", &[], ALL),
    layer!("admit_p50_us", "us", "lower", &[], WRITES),
    layer!("admit_p90_us", "us", "lower", &[], WRITES),
    layer!("sim_speed_x", "sim-s/wall-s", "higher", &[], FED),
    layer!("failed_share", "ratio", "lower", &[], ALL),
    layer!("service.requests", "count", "lower", &[], ALL),
];

/// True for a metric whose value must repeat exactly from run to run of
/// the same seed (`--compare` checks it).
pub fn is_count(unit: &str) -> bool {
    unit == "count"
}
