//! Placement-service throughput: solve-per-request vs the selection
//! cache from one caller vs the same service from several caller
//! threads, on an n = 1000 fabric under delta churn.
//!
//! The workload models a busy scheduler front-end: a pool of 10k+
//! distinct request specs (45% compute, 45% communication, 10% balanced;
//! each restricted to a random ~16–32-host allowed pool), a request
//! stream that re-asks a hot set of specs 95% of the time, and a
//! collector that republishes a new epoch every `churn_every` requests
//! with fresh load averages on a few random nodes (the small
//! steady-state deltas a change-driven collector publishes).
//!
//! Three modes answer the *same* stream against the *same* epoch
//! schedule, and their answers are digest-checked against each other —
//! the speedups below are for bit-identical outputs, not approximations:
//!
//! * **serial** — a fresh solver per request (`selector_for` +
//!   `select`), the solve-per-request baseline (measured on a prefix of
//!   the stream, long enough to cover several epochs);
//! * **cache** — a default-configured [`PlacementService`] called from
//!   one thread: canonical request → delta-invalidated cache → solve on
//!   miss, on the calling thread;
//! * **cache_clients** — the same configuration called from `CLIENTS`
//!   threads at once (the service has no threads of its own). Two
//!   callers that miss on one spec both solve it, so its solve count can
//!   exceed the single-caller mode's; the answers cannot differ.
//!
//! Results land in `BENCH_service.json` under `"service"`, with the
//! honest counters (hits, solves, carry-forwards, evictions) behind each
//! mode's req/s and the provenance of the run (commit, toolchain, core
//! count, harness). `--test`/`--smoke` shrinks every axis.

use nodesel_bench::{conditioned_tree, provenance};
use nodesel_core::{selector_for, CanonicalRequest, SelectError, Selection, SelectionRequest};
use nodesel_service::{PlacementService, ServiceConfig, ServiceStats};
use nodesel_topology::{NetDelta, NetSnapshot, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Caller threads in the `cache_clients` mode.
const CLIENTS: usize = 4;

/// Nodes whose load average moves at every churn point.
const CHURN_NODES: usize = 4;

struct Axes {
    n: usize,
    pool: usize,
    hot: usize,
    stream_len: usize,
    churn_every: usize,
    serial_requests: usize,
}

impl Axes {
    fn new(smoke: bool) -> Axes {
        if smoke {
            Axes {
                n: 200,
                pool: 600,
                hot: 100,
                stream_len: 1500,
                churn_every: 100,
                serial_requests: 300,
            }
        } else {
            Axes {
                n: 1000,
                pool: 12_000,
                hot: 100,
                stream_len: 40_000,
                churn_every: 250,
                serial_requests: 2000,
            }
        }
    }
}

/// One random spec: objective mix 45/45/10, a random small allowed pool,
/// and an occasional CPU floor.
fn spec(rng: &mut StdRng, ids: &[NodeId]) -> SelectionRequest {
    let kind = rng.random_range(0..100);
    let count = 2 + rng.random_range(0..6usize);
    let mut req = if kind < 45 {
        SelectionRequest::compute(count)
    } else if kind < 90 {
        SelectionRequest::communication(count)
    } else {
        SelectionRequest::balanced(count)
    };
    let k = 16 + rng.random_range(0..17usize);
    let mut allowed = HashSet::with_capacity(k);
    while allowed.len() < k {
        allowed.insert(ids[rng.random_range(0..ids.len())]);
    }
    req.constraints.allowed = Some(allowed);
    if rng.random_range(0..5) == 0 {
        req.constraints.min_cpu = Some(rng.random_range(0.05..0.3));
    }
    req
}

/// Order-independent digest contribution of one answered request; XOR of
/// these over a stream is mode-order-insensitive, so the threaded mode
/// folds the same value.
fn mix(pos: usize, result: &Result<Selection, SelectError>) -> u64 {
    let h = match result {
        Ok(sel) => {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for n in &sel.nodes {
                h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ (n.index() as u64);
            }
            h ^ sel.score.to_bits()
        }
        Err(_) => 0xdead_beef,
    };
    h.wrapping_mul(pos as u64 + 1)
}

struct ModeResult {
    requests: usize,
    elapsed_s: f64,
    digest: u64,
    prefix_digest: u64,
    stats: Option<ServiceStats>,
}

impl ModeResult {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }
}

fn stats_json(stats: &Option<ServiceStats>) -> serde_json::Value {
    match stats {
        None => serde_json::Value::Null,
        Some(s) => serde_json::json!({
            "cache_hits": s.cache_hits,
            "solves": s.solves,
            "shed": s.shed,
            "refused": s.refused,
            "carried_forward": s.carried_forward,
            "delta_evictions": s.delta_evictions,
            "capacity_evictions": s.capacity_evictions,
            "epochs_published": s.epochs_published,
        }),
    }
}

/// Panics unless `doc` carries the service section this bench (and the
/// CI smoke step) promises: the schema-drift tripwire.
fn validate_schema(doc: &serde_json::Value) {
    let s = doc
        .get("service")
        .expect("BENCH_service.json lost its service section");
    for key in [
        "smoke",
        "n",
        "distinct_specs",
        "hot_set",
        "stream_len",
        "churn_every",
        "churn_nodes",
        "clients",
        "modes",
        "speedup_cache",
        "speedup_cache_clients",
        "provenance",
    ] {
        assert!(s.get(key).is_some(), "service section lost `{key}`");
    }
    for key in ["commit", "rustc", "cores", "harness"] {
        assert!(
            s["provenance"].get(key).is_some(),
            "service provenance lost `{key}`"
        );
    }
    assert!(
        s["provenance"]["cores"].as_u64() != Some(1) || s["speedup_cache_clients"].is_null(),
        "a multi-client speed-up was reported from a single core"
    );
    let modes = s["modes"].as_array().expect("service modes is an array");
    assert_eq!(modes.len(), 3, "service modes must cover all three modes");
    for mode in modes {
        for key in ["mode", "requests", "elapsed_s", "rps", "counters"] {
            assert!(mode.get(key).is_some(), "service mode lost `{key}`: {mode}");
        }
        let label = mode["mode"].as_str().expect("mode label is a string");
        assert!(
            ["serial", "cache", "cache_clients"].contains(&label),
            "unknown service mode {label:?}"
        );
    }
    assert!(
        s["distinct_specs"].as_u64().unwrap_or(0) >= s["hot_set"].as_u64().unwrap_or(u64::MAX),
        "spec pool must cover at least the hot set"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let axes = Axes::new(smoke);
    let mut rng = StdRng::seed_from_u64(42);

    let (topo, ids) = conditioned_tree(11, axes.n);
    let pool: Vec<SelectionRequest> = (0..axes.pool).map(|_| spec(&mut rng, &ids)).collect();
    let distinct: HashSet<CanonicalRequest> = pool.iter().map(CanonicalRequest::new).collect();
    let stream: Vec<usize> = (0..axes.stream_len)
        .map(|_| {
            if rng.random_range(0..100) < 95 {
                rng.random_range(0..axes.hot)
            } else {
                rng.random_range(axes.hot..pool.len())
            }
        })
        .collect();

    // The epoch chain: chunk c of the stream is answered against
    // chain[c]; the delta into it moves CHURN_NODES load averages.
    let chunks = axes.stream_len / axes.churn_every;
    let mut chain = vec![NetSnapshot::capture(Arc::new(topo))];
    let mut deltas = vec![NetDelta::default()];
    for c in 1..chunks {
        let mut delta = NetDelta::default();
        for _ in 0..CHURN_NODES {
            delta.nodes.push((
                ids[rng.random_range(0..ids.len())],
                rng.random_range(0.0..4.0),
            ));
        }
        chain.push(chain[c - 1].apply(&delta));
        deltas.push(delta);
    }

    // --- serial: a fresh solve per request. ---
    let t = Instant::now();
    let mut serial_digest = 0u64;
    for pos in 0..axes.serial_requests {
        let req = &pool[stream[pos]];
        let result = selector_for(req.objective).select(&chain[pos / axes.churn_every], req);
        serial_digest ^= mix(pos, &result);
    }
    let serial = ModeResult {
        requests: axes.serial_requests,
        elapsed_s: t.elapsed().as_secs_f64(),
        digest: serial_digest,
        prefix_digest: serial_digest,
        stats: None,
    };

    // --- cache / cache_clients: one default-configured service, the
    // same stream end to end, from `clients` caller threads. ---
    let run_service = |clients: usize| {
        let svc = PlacementService::new(Arc::new(chain[0].clone()), ServiceConfig::default());
        let t = Instant::now();
        let mut digest = 0u64;
        let mut prefix_digest = 0u64;
        for c in 0..chunks {
            if c > 0 {
                svc.publish(Arc::new(chain[c].clone()), Some(&deltas[c]));
            }
            let partials = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|client| {
                        let (svc, pool, stream) = (&svc, &pool, &stream);
                        scope.spawn(move || {
                            let (mut d, mut p) = (0u64, 0u64);
                            for pos in (c * axes.churn_every..(c + 1) * axes.churn_every)
                                .filter(|pos| pos % clients == client)
                            {
                                let m = mix(pos, &svc.get(&pool[stream[pos]]).result);
                                d ^= m;
                                if pos < axes.serial_requests {
                                    p ^= m;
                                }
                            }
                            (d, p)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect::<Vec<_>>()
            });
            for (d, p) in partials {
                digest ^= d;
                prefix_digest ^= p;
            }
        }
        ModeResult {
            requests: axes.stream_len,
            elapsed_s: t.elapsed().as_secs_f64(),
            digest,
            prefix_digest,
            stats: Some(svc.stats()),
        }
    };
    let cache = run_service(1);
    let clients = run_service(CLIENTS);

    // The whole point: same bits, different bill.
    assert_eq!(
        serial.digest, cache.prefix_digest,
        "cache-mode answers drifted from solve-per-request"
    );
    assert_eq!(
        serial.digest, clients.prefix_digest,
        "concurrent callers' answers drifted from solve-per-request"
    );
    assert_eq!(
        cache.digest, clients.digest,
        "concurrent callers' answers drifted from the single caller's"
    );
    // This bench runs the infallible blocking path under the default
    // (disabled) degrade policy: the accounting identity must balance
    // with the overload buckets empty — a tripwire that the chaos
    // hardening stays invisible until it is asked for.
    for (label, mode) in [("cache", &cache), ("cache_clients", &clients)] {
        let s = mode.stats.as_ref().expect("service modes carry counters");
        assert!(s.balanced(), "{label} counters no longer balance");
        assert_eq!(
            (s.shed, s.refused),
            (0, 0),
            "{label} shed or refused on the blocking path"
        );
    }

    eprintln!("\n=== Placement service throughput (n = {}, {} distinct specs, churn every {} requests) ===",
        axes.n, distinct.len(), axes.churn_every);
    eprintln!(
        "{:<14} {:>9} {:>10} {:>11} {:>9} {:>8}",
        "mode", "requests", "elapsed_s", "req/s", "hits", "solves"
    );
    for (label, mode) in [
        ("serial", &serial),
        ("cache", &cache),
        ("cache_clients", &clients),
    ] {
        let (hits, solves) = mode
            .stats
            .as_ref()
            .map_or((0, mode.requests as u64), |s| (s.cache_hits, s.solves));
        eprintln!(
            "{label:<14} {:>9} {:>10.3} {:>11.0} {hits:>9} {solves:>8}",
            mode.requests,
            mode.elapsed_s,
            mode.rps(),
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup_cache = cache.rps() / serial.rps();
    // Several callers on one core measure the scheduler, not the service.
    let speedup_clients = (cores > 1).then(|| clients.rps() / serial.rps());
    eprintln!("  speedup over solve-per-request: cache {speedup_cache:.1}x");
    match speedup_clients {
        Some(x) => eprintln!("  {CLIENTS} callers on {cores} cores: {x:.1}x"),
        None => eprintln!("  {CLIENTS} callers: not reported on a single core"),
    }

    let mode_json = |label: &str, mode: &ModeResult| {
        serde_json::json!({
            "mode": label,
            "requests": mode.requests,
            "elapsed_s": mode.elapsed_s,
            "rps": mode.rps(),
            "counters": stats_json(&mode.stats),
        })
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .filter(|v| v.as_object().is_some())
        .unwrap_or_else(|| serde_json::json!({}));
    doc["service"] = serde_json::json!({
        "smoke": smoke,
        "n": axes.n,
        "distinct_specs": distinct.len(),
        "hot_set": axes.hot,
        "stream_len": axes.stream_len,
        "churn_every": axes.churn_every,
        "churn_nodes": CHURN_NODES,
        "clients": CLIENTS,
        "modes": [
            mode_json("serial", &serial),
            mode_json("cache", &cache),
            mode_json("cache_clients", &clients),
        ],
        "speedup_cache": speedup_cache,
        "speedup_cache_clients": speedup_clients,
        "provenance": provenance(),
    });
    validate_schema(&doc);
    match std::fs::write(path, format!("{:#}\n", doc)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let reread: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("just wrote the bench summary"))
            .expect("bench summary is valid JSON");
    validate_schema(&reread);
}
