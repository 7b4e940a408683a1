//! Ablation A2: how the Remos estimator and collector staleness affect
//! selection effectiveness.
//!
//! The paper "simply uses the most recent measurements as a forecast for
//! the future" and defers forecasting to future work. This ablation
//! quantifies that choice on the Table 1 FFT workload: selection quality
//! under different estimators (latest / window mean / EWMA / trend), a
//! ground-truth oracle, and a sweep of collector periods.

use nodesel_apps::{fft::fft_program, AppModel};
use nodesel_bench::time_one;
use nodesel_experiments::{mean, run_trials, Condition, Strategy, Testbed, TrialConfig};
use nodesel_remos::{CollectorConfig, Estimator};
use std::hint::black_box;

fn config_with(estimator: Estimator, period: f64) -> TrialConfig {
    TrialConfig {
        estimator,
        collector: CollectorConfig {
            period,
            ..CollectorConfig::default()
        },
        ..TrialConfig::default()
    }
}

fn main() {
    let testbed = Testbed::cmu();
    let app = AppModel::Phased(fft_program(32));
    let reps = 12;

    eprintln!("\n=== Ablation: estimator choice (FFT, load+traffic, {reps} reps) ===");
    let estimators = [
        ("latest", Estimator::Latest),
        ("window_mean", Estimator::WindowMean),
        ("ewma_0.5", Estimator::Ewma { alpha: 0.5 }),
        ("trend", Estimator::Trend),
        ("p90_conservative", Estimator::Quantile { q: 0.9 }),
    ];
    for (name, est) in estimators {
        let cfg = config_with(est, 5.0);
        let t = mean(&run_trials(
            &testbed,
            &app,
            4,
            Strategy::Automatic,
            Condition::Both,
            &cfg,
            77,
            reps,
        ));
        eprintln!("  {name:<12} mean {t:>7.1} s");
    }
    let cfg = config_with(Estimator::Latest, 5.0);
    let oracle = mean(&run_trials(
        &testbed,
        &app,
        4,
        Strategy::Oracle,
        Condition::Both,
        &cfg,
        77,
        reps,
    ));
    let random = mean(&run_trials(
        &testbed,
        &app,
        4,
        Strategy::Random,
        Condition::Both,
        &cfg,
        77,
        reps,
    ));
    eprintln!("  {:<12} mean {oracle:>7.1} s", "oracle");
    eprintln!("  {:<12} mean {random:>7.1} s", "random");

    eprintln!("=== Ablation: collector staleness (period sweep) ===");
    for period in [1.0, 5.0, 15.0, 60.0, 300.0] {
        let cfg = config_with(Estimator::Latest, period);
        let t = mean(&run_trials(
            &testbed,
            &app,
            4,
            Strategy::Automatic,
            Condition::Both,
            &cfg,
            77,
            reps,
        ));
        eprintln!("  period {period:>6.0} s: mean {t:>7.1} s");
    }

    eprintln!("=== Cost: one automatic trial per estimator ===");
    for (name, est) in estimators {
        let cfg = config_with(est, 5.0);
        let secs = time_one(
            || {
                black_box(nodesel_experiments::run_trial(
                    &testbed,
                    &app,
                    4,
                    Strategy::Automatic,
                    Condition::Both,
                    &cfg,
                    1,
                ));
            },
            1,
        );
        eprintln!("  {name:<16} {:>7.1} ms", secs * 1e3);
    }
}
