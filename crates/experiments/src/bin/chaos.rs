//! Chaos study driver: the placement service under a six-phase fault
//! timeline (crash, collector stall, partition, flapping) plus a
//! concurrent soak probe, with the summary committed to
//! `BENCH_chaos.json`. `--smoke` shrinks the run for CI and validates
//! the committed numbers without overwriting them.

use nodesel_experiments::chaos::{
    render_chaos_table, run_chaos, run_soak, ChaosConfig, ChaosOutcome, SoakReport, CHAOS_PHASES,
};
use nodesel_experiments::{record, smoke_requested};

/// Panics unless `doc` carries the chaos section this driver (and the
/// CI smoke step) promises: the schema-drift tripwire plus the headline
/// robustness claims the README quotes.
fn validate_schema(doc: &serde_json::Value) {
    let c = doc
        .get("chaos")
        .expect("BENCH_chaos.json lost its chaos section");
    for key in [
        "smoke",
        "seed",
        "tick_s",
        "phase_len_s",
        "burst",
        "target_jobs",
        "degrade",
        "phases",
        "faults",
        "repair",
        "reconcile",
        "totals",
        "soak",
    ] {
        assert!(c.get(key).is_some(), "chaos section lost `{key}`");
    }
    for key in ["soft_staleness_s", "hard_staleness_s", "min_confidence"] {
        assert!(c["degrade"].get(key).is_some(), "degrade lost `{key}`");
    }
    let phases = c["phases"].as_array().expect("chaos phases is an array");
    assert_eq!(phases.len(), 6, "chaos timeline has six phases");
    for cell in phases {
        for key in [
            "phase",
            "requests",
            "completed",
            "shed",
            "refused",
            "degraded",
            "admits",
            "admit_refusals",
        ] {
            assert!(cell.get(key).is_some(), "chaos phase lost `{key}`: {cell}");
        }
    }
    let by_phase = |label: &str, key: &str| {
        phases
            .iter()
            .find(|p| p["phase"].as_str() == Some(label))
            .and_then(|p| p[key].as_u64())
            .unwrap_or_else(|| panic!("chaos phase {label} missing `{key}`"))
    };
    for key in [
        "incidents",
        "resolved",
        "unresolved",
        "p50_s",
        "p99_s",
        "max_s",
        "bound_s",
    ] {
        assert!(c["repair"].get(key).is_some(), "repair lost `{key}`");
    }
    for key in [
        "sweeps", "healthy", "held", "repaired", "released", "deferred",
    ] {
        assert!(c["reconcile"].get(key).is_some(), "reconcile lost `{key}`");
    }
    for key in [
        "requests",
        "completed",
        "shed",
        "refused",
        "degraded",
        "silent_stale",
        "stats_balanced",
    ] {
        assert!(c["totals"].get(key).is_some(), "totals lost `{key}`");
    }
    for key in ["requests", "answered", "shed", "balanced"] {
        assert!(c["soak"].get(key).is_some(), "soak lost `{key}`");
    }

    // Headline claims: honesty and bounded repair, not raw speed.
    assert_eq!(
        c["totals"]["silent_stale"].as_u64(),
        Some(0),
        "the study's contract is zero silent-stale answers"
    );
    assert_eq!(
        c["totals"]["stats_balanced"].as_bool(),
        Some(true),
        "request accounting identity must balance"
    );
    assert_eq!(
        c["soak"]["balanced"].as_bool(),
        Some(true),
        "soak accounting identity must balance"
    );
    assert_eq!(c["repair"]["unresolved"].as_u64(), Some(0));
    let p99 = c["repair"]["p99_s"].as_f64().expect("p99_s is a number");
    let bound = c["repair"]["bound_s"]
        .as_f64()
        .expect("bound_s is a number");
    assert!(p99 <= bound, "p99 repair {p99}s exceeds bound {bound}s");
    // The stall phase must actually exercise degraded-mode serving:
    // refusals for bandwidth-sensitive work, flagged answers for the
    // rest — and the deadline mix must shed somewhere.
    assert!(by_phase("stall", "refused") > 0, "stall refused nothing");
    assert!(by_phase("stall", "degraded") > 0, "stall flagged nothing");
    let shed: u64 = phases.iter().filter_map(|p| p["shed"].as_u64()).sum();
    assert!(shed > 0, "the deadline mix shed nothing");
}

fn phase_json(outcome: &ChaosOutcome) -> Vec<serde_json::Value> {
    CHAOS_PHASES
        .iter()
        .map(|phase| {
            let c = &outcome.phases[phase.index()];
            serde_json::json!({
                "phase": phase.label(),
                "requests": c.requests,
                "completed": c.completed,
                "shed": c.shed,
                "refused": c.refused,
                "degraded": c.degraded,
                "admits": c.admits,
                "admit_refusals": c.admit_refusals,
            })
        })
        .collect()
}

fn section_json(
    smoke: bool,
    config: &ChaosConfig,
    outcome: &ChaosOutcome,
    soak: &SoakReport,
) -> serde_json::Value {
    let totals = outcome
        .phases
        .iter()
        .fold((0u64, 0u64, 0u64, 0u64, 0u64), |acc, p| {
            (
                acc.0 + p.requests,
                acc.1 + p.completed,
                acc.2 + p.shed,
                acc.3 + p.refused,
                acc.4 + p.degraded,
            )
        });
    serde_json::json!({
        "smoke": smoke,
        "seed": config.seed,
        "tick_s": config.tick,
        "phase_len_s": config.phase_len,
        "burst": config.burst,
        "target_jobs": config.target_jobs,
        "degrade": {
            "soft_staleness_s": config.degrade.soft_staleness,
            "hard_staleness_s": config.degrade.hard_staleness,
            "min_confidence": config.degrade.min_confidence,
        },
        "phases": phase_json(outcome),
        "faults": {
            "link_downs": outcome.faults.link_downs,
            "link_ups": outcome.faults.link_ups,
            "crashes": outcome.faults.crashes,
            "reboots": outcome.faults.reboots,
        },
        "repair": {
            "incidents": outcome.repair.incidents,
            "resolved": outcome.repair.resolved,
            "unresolved": outcome.repair.unresolved,
            "samples_s": outcome.repair.samples,
            "p50_s": outcome.repair.p50,
            "p99_s": outcome.repair.p99,
            "max_s": outcome.repair.max,
            "bound_s": config.repair_bound,
        },
        "reconcile": {
            "sweeps": outcome.reconcile.sweeps,
            "healthy": outcome.reconcile.healthy,
            "held": outcome.reconcile.held,
            "repaired": outcome.reconcile.repaired,
            "released": outcome.reconcile.released,
            "deferred": outcome.reconcile.deferred,
        },
        "totals": {
            "requests": totals.0,
            "completed": totals.1,
            "shed": totals.2,
            "refused": totals.3,
            "degraded": totals.4,
            "silent_stale": outcome.silent_stale,
            "stats_balanced": outcome.stats.balanced(),
        },
        "soak": {
            "requests": soak.requests,
            "answered": soak.answered,
            "shed": soak.shed,
            "balanced": soak.balanced,
        },
    })
}

fn main() {
    let smoke = smoke_requested();
    let config = if smoke {
        ChaosConfig::smoke()
    } else {
        ChaosConfig::default()
    };

    println!("=== Chaos study: deadlines, degraded serving, reconciliation under faults ===");
    println!(
        "6 x {:.0}s phases, {:.0}s tick, burst {}, target {} jobs; degrade soft {:.0}s / hard {:.0}s / conf {:.2}",
        config.phase_len,
        config.tick,
        config.burst,
        config.target_jobs,
        config.degrade.soft_staleness,
        config.degrade.hard_staleness,
        config.degrade.min_confidence
    );
    let outcome = run_chaos(&config);
    print!("{}", render_chaos_table(&outcome));
    let soak = run_soak(8, 50);
    println!(
        "soak: {} requests over 8 threads, {} answered, {} shed, identity {}",
        soak.requests,
        soak.answered,
        soak.shed,
        if soak.balanced { "balanced" } else { "BROKEN" }
    );

    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json"),
        "chaos",
        section_json(smoke, &config, &outcome, &soak),
        validate_schema,
    );
}
