//! Regenerates Table 1 and prints measured-vs-paper comparisons.
//!
//! Usage: `table1 [repetitions] [seed]` (defaults: 24 reps, fixed seed).
//! Emits the measured table, the paper's table, and the headline
//! increase-ratio metric. Add `--json` to also dump machine-readable rows.
//! Exits non-zero when the headline leaves [`HEADLINE_BAND`]: the CI
//! step that runs this bin is the reproduction guard.

use nodesel_experiments::table1::{paper_table1, run_table1, Table1Config};

/// Where `Table1::mean_increase_ratio` must land: 0.26 measured at 24
/// repetitions, ≈ 0.5 in the paper. If a short run lands outside, raise
/// its repetition count, not the band.
const HEADLINE_BAND: std::ops::RangeInclusive<f64> = 0.15..=0.55;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let mut config = Table1Config::default();
    if let Some(r) = positional.first().and_then(|s| s.parse().ok()) {
        config.repetitions = r;
    }
    if let Some(s) = positional.get(1).and_then(|s| s.parse().ok()) {
        config.seed = s;
    }
    eprintln!(
        "running Table 1: {} repetitions per cell (7 cells × 3 apps)...",
        config.repetitions
    );
    let table = run_table1(&config);
    println!("=== Measured (simulated CMU testbed) ===");
    println!("{table}");
    println!("=== Paper (Table 1) ===");
    for row in &table.rows {
        if let Some(p) = paper_table1(&row.app) {
            println!(
                "{:<10} random: {:>6.1} {:>6.1} {:>6.1} | auto: {:>6.1} {:>6.1} {:>6.1} | ref {:>6.1}",
                row.app, p.random[0], p.random[1], p.random[2], p.auto[0], p.auto[1], p.auto[2], p.reference
            );
        }
    }
    if json {
        println!("{}", serde_json::to_string_pretty(&table).unwrap());
    }
    let headline = table.mean_increase_ratio();
    if !HEADLINE_BAND.contains(&headline) {
        eprintln!(
            "Table 1 headline ratio {headline:.3} is outside [{}, {}]: not the paper's result",
            HEADLINE_BAND.start(),
            HEADLINE_BAND.end()
        );
        std::process::exit(1);
    }
}
