//! Contention study driver: K concurrent jobs placed oblivious vs
//! ledger-aware on the CMU and federated testbeds, measured through
//! simnet, with the summary committed to `BENCH_contention.json`.
//! `--smoke` shrinks the run for CI (and skips the JSON rewrite).

use nodesel_experiments::contention::{
    render_contention_table, run_contention_study, ContentionConfig, ContentionOutcome,
};
use nodesel_experiments::{record, smoke_requested};

/// Panics unless `doc` carries the contention section this driver (and
/// the CI smoke step) promises: the schema-drift tripwire.
fn validate_schema(doc: &serde_json::Value) {
    let c = doc
        .get("contention")
        .expect("BENCH_contention.json lost its contention section");
    for key in [
        "smoke",
        "m",
        "iterations",
        "reference_bandwidth",
        "ks",
        "cells",
    ] {
        assert!(c.get(key).is_some(), "contention section lost `{key}`");
    }
    let cells = c["cells"].as_array().expect("contention cells is an array");
    assert!(!cells.is_empty(), "contention cells must not be empty");
    for cell in cells {
        for key in [
            "testbed",
            "regime",
            "k",
            "solo_s",
            "total_elapsed_s",
            "makespan_s",
            "mean_slowdown",
            "distinct_nodes",
            "elapsed_s",
        ] {
            assert!(
                cell.get(key).is_some(),
                "contention cell lost `{key}`: {cell}"
            );
        }
        let testbed = cell["testbed"].as_str().expect("testbed label is a string");
        assert!(
            ["cmu", "federated"].contains(&testbed),
            "unknown testbed {testbed:?}"
        );
        let regime = cell["regime"].as_str().expect("regime label is a string");
        assert!(
            ["oblivious", "ledger-aware"].contains(&regime),
            "unknown regime {regime:?}"
        );
    }
    // The headline claim the README quotes: ledger-aware beats
    // oblivious aggregate elapsed at K >= 4 on the federated testbed.
    for k in cells
        .iter()
        .filter(|c| c["testbed"].as_str() == Some("federated") && c["k"].as_u64().unwrap_or(0) >= 4)
        .map(|c| c["k"].as_u64().unwrap())
        .collect::<std::collections::HashSet<_>>()
    {
        let total = |regime: &str| {
            cells
                .iter()
                .find(|c| {
                    c["testbed"].as_str() == Some("federated")
                        && c["regime"].as_str() == Some(regime)
                        && c["k"].as_u64() == Some(k)
                })
                .and_then(|c| c["total_elapsed_s"].as_f64())
                .unwrap_or_else(|| panic!("federated K={k} {regime} cell missing"))
        };
        assert!(
            total("ledger-aware") < total("oblivious"),
            "ledger-aware must beat oblivious at K={k} on the federated testbed"
        );
    }
}

fn cell_json(c: &ContentionOutcome) -> serde_json::Value {
    serde_json::json!({
        "testbed": c.testbed.label(),
        "regime": c.regime.label(),
        "k": c.k,
        "solo_s": c.solo,
        "total_elapsed_s": c.total_elapsed,
        "makespan_s": c.makespan,
        "mean_slowdown": c.mean_slowdown,
        "distinct_nodes": c.distinct_nodes,
        "elapsed_s": c.elapsed,
    })
}

fn main() {
    let smoke = smoke_requested();
    let (config, ks): (ContentionConfig, Vec<usize>) = if smoke {
        (
            ContentionConfig {
                iterations: 4,
                ..ContentionConfig::default()
            },
            vec![4],
        )
    } else {
        (ContentionConfig::default(), vec![2, 4, 6])
    };

    println!("=== Contention study: K concurrent jobs, oblivious vs ledger-aware ===");
    println!(
        "m = {} nodes/job, {} FFT iterations, {:.0} Mbit/s declared pair bandwidth",
        config.m,
        config.iterations,
        config.reference_bandwidth / 1e6
    );
    let cells = run_contention_study(&ks, &config);
    print!("{}", render_contention_table(&cells));

    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_contention.json"),
        "contention",
        serde_json::json!({
            "smoke": smoke,
            "m": config.m,
            "iterations": config.iterations,
            "reference_bandwidth": config.reference_bandwidth,
            "ks": ks,
            "cells": cells.iter().map(cell_json).collect::<Vec<_>>(),
        }),
        validate_schema,
    );
}
