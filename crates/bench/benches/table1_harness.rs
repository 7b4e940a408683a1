//! Trial-harness bench: straight-through trials (every cell pays its own
//! warm-up) vs the warm-fork harness (cells sharing a `(condition, seed)`
//! pair fork one warmed simulator). Reports trials/sec for both modes,
//! asserts they produce bit-identical cells, prints a speedup table, and
//! records the `table1_harness` section of `BENCH_experiments.json` at
//! the workspace root so the perf trajectory is comparable across PRs
//! (`-- --test` validates without writing). The parallel
//! flat-queue runner (`run_table1_on`) is measured separately so the
//! fork-sharing win is not conflated with thread parallelism.

use nodesel_apps::AppModel;
use nodesel_experiments::table1::{run_table1_on, Table1Config};
use nodesel_experiments::{
    record, run_trial, warm_trial, Condition, Strategy, Testbed, TrialConfig, TrialResult,
};
use std::hint::black_box;
use std::time::Instant;

/// Repetition groups per mode: each group is one `(condition, seed)`
/// warm-up shared by all cells of the suite.
const GROUPS: usize = 4;

/// Cells per group: every paper app under both table strategies.
fn suite_cells() -> Vec<(AppModel, usize, Strategy)> {
    AppModel::paper_suite()
        .into_iter()
        .flat_map(|(app, m)| {
            [Strategy::Random, Strategy::Automatic]
                .into_iter()
                .map(move |s| (app.clone(), m, s))
        })
        .collect()
}

fn group_seed(g: usize) -> u64 {
    41 + 1_000_003 * g as u64
}

/// Every cell warms its own simulator from scratch.
fn straight_through(testbed: &Testbed, cfg: &TrialConfig) -> Vec<TrialResult> {
    let cells = suite_cells();
    let mut out = Vec::with_capacity(GROUPS * cells.len());
    for g in 0..GROUPS {
        for (app, m, strategy) in &cells {
            out.push(run_trial(
                testbed,
                app,
                *m,
                *strategy,
                Condition::Both,
                cfg,
                group_seed(g),
            ));
        }
    }
    out
}

/// One warm-up per group; each cell continues from a fork of it.
fn warm_fork(testbed: &Testbed, cfg: &TrialConfig) -> Vec<TrialResult> {
    let cells = suite_cells();
    let mut out = Vec::with_capacity(GROUPS * cells.len());
    for g in 0..GROUPS {
        let mut warm = Some(warm_trial(testbed, Condition::Both, cfg, group_seed(g)));
        for (k, (app, m, strategy)) in cells.iter().enumerate() {
            let w = if k + 1 == cells.len() {
                warm.take().expect("warm state consumed early")
            } else {
                warm.as_ref().expect("warm state consumed early").fork()
            };
            out.push(w.finish(app, *m, *strategy));
        }
    }
    out
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let testbed = Testbed::cmu();
    let cfg = TrialConfig::default();
    let trials = GROUPS * suite_cells().len();

    // Parity first: the speedup below is only worth reporting if the two
    // modes compute the same cells bit-for-bit.
    let a = straight_through(&testbed, &cfg);
    let b = warm_fork(&testbed, &cfg);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.elapsed.to_bits(),
            y.elapsed.to_bits(),
            "warm-fork cell diverged from straight-through"
        );
        assert_eq!(x.nodes, y.nodes, "selection diverged");
    }

    const ITERS: usize = 3;
    let mut slow: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            black_box(straight_through(&testbed, &cfg));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut fast: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            black_box(warm_fork(&testbed, &cfg));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let (slow, fast) = (median(&mut slow), median(&mut fast));
    let (straight_tps, fork_tps) = (trials as f64 / slow, trials as f64 / fast);

    // The full parallel harness over the same work (7 columns per app:
    // the real Table 1), measured as its own end-to-end rate.
    let apps = AppModel::paper_suite();
    let t1cfg = Table1Config {
        repetitions: GROUPS,
        seed: 41,
        ..Table1Config::default()
    };
    let parallel_trials = apps.len() * 7 * GROUPS;
    let t = Instant::now();
    black_box(run_table1_on(&testbed, &apps, &t1cfg));
    let parallel_wall = t.elapsed().as_secs_f64();
    let parallel_tps = parallel_trials as f64 / parallel_wall;

    eprintln!(
        "\n=== trial harness: {trials} cells, warm-up {}s ===",
        cfg.warmup
    );
    eprintln!("{:<28} {:>12} {:>12}", "mode", "wall secs", "trials/sec");
    eprintln!(
        "{:<28} {slow:>12.2} {straight_tps:>12.2}",
        "straight-through (serial)"
    );
    eprintln!("{:<28} {fast:>12.2} {fork_tps:>12.2}", "warm-fork (serial)");
    eprintln!(
        "{:<28} {parallel_wall:>12.2} {parallel_tps:>12.2}",
        "warm-fork flat queue"
    );
    eprintln!(
        "fork-sharing speedup (serial, same thread count): {:.2}x",
        slow / fast
    );

    let summary = serde_json::json!({
        "testbed": "cmu",
        "warmup_secs": cfg.warmup,
        "groups": GROUPS,
        "trials": trials,
        "straight_through": { "wall_secs": slow, "trials_per_sec": straight_tps },
        "warm_fork": { "wall_secs": fast, "trials_per_sec": fork_tps },
        "fork_sharing_speedup": slow / fast,
        "parallel_flat_queue": {
            "trials": parallel_trials,
            "wall_secs": parallel_wall,
            "trials_per_sec": parallel_tps,
            "threads": std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        },
    });
    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_experiments.json"),
        "table1_harness",
        summary,
        |doc| {
            let speedup = &doc["table1_harness"]["fork_sharing_speedup"];
            assert!(
                speedup.is_number(),
                "table1_harness section lost its headline"
            );
        },
    );
}
