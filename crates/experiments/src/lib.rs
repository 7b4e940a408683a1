//! Experiment drivers that regenerate the paper's evaluation artifacts.
//!
//! * [`table1`] — the full Table 1 matrix: three applications × {load,
//!   traffic, both} × {random, automatic}, with the unloaded reference
//!   column and the paper's "% change" and increase-ratio derived metrics;
//! * [`scenario`] — the Figure 4 worked example (automatic selection
//!   steering around a bulk `m-16 → m-18` stream);
//! * [`fault_study`] — random vs automatic vs supervised placement
//!   racing seeded fault plans (node crashes, optional reboots) against
//!   a deadline;
//! * [`bench_json`] — the one writer of the committed `BENCH_*.json`
//!   files (provenance, history, no writes on a smoke run), shared by the
//!   studies here and the benches in `nodesel-bench`;
//! * [`driver`] — the single-trial machinery both are built on, reusable
//!   by the benches and ablations of `nodesel-bench`. Trials split at the
//!   warm-up boundary: a warmed simulator is
//!   [`nodesel_simnet::Sim::fork`]ed per strategy, and batch runners
//!   drain all cells through one flat work queue over scoped threads.
//!
//! Every experiment is a pure function of its seed: the simulator, the
//! generators and the selection algorithms are all deterministic, so rows
//! can be regenerated exactly.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bench_json;
pub mod chaos;
pub mod contention;
pub mod driver;
pub mod fault_study;
pub mod migration_study;
pub mod scenario;
pub mod sensitivity;
pub mod table1;
pub mod tomography;

pub use bench_json::{record, smoke_requested};
pub use chaos::{
    render_chaos_table, run_chaos, run_soak, ChaosConfig, ChaosOutcome, ChaosPhase, PhaseCounts,
    ReconcileTotals, RepairSummary, SoakReport, CHAOS_PHASES,
};
pub use contention::{
    render_contention_table, run_contention, run_contention_study, ContentionConfig,
    ContentionOutcome, ContentionRegime, ContentionTestbed,
};
#[cfg(any(test, feature = "oracle"))]
pub use driver::warm_trial_on;
pub use driver::{
    mean, run_trial, run_trials, warm_trial, Condition, Strategy, Testbed, TrialConfig,
    TrialResult, WarmTrial,
};
pub use fault_study::{
    render_fault_table, run_fault_study, run_fault_trial, FaultCell, FaultOutcome, FaultStrategy,
    FaultStudyConfig,
};
pub use scenario::{run_fig4_scenario, Fig4Outcome};
pub use sensitivity::{
    length_sensitivity, load_sensitivity, traffic_sensitivity, SensitivityPoint,
};
pub use table1::{
    paper_table1, run_table1, run_table1_on, run_table1_row, Table1, Table1Config, Table1Row,
};
