//! Runs the benchmark binary at `--smoke` scale and checks what it
//! writes: the result file's schema, every metric on every workload, the
//! agreement of digests and counts between runs of one seed, the
//! interaction table's names, and `BENCHMARK.json` against the tables.

use nodesel_benchmark::json::{parse, Value};
use nodesel_benchmark::metrics::{is_count, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nodesel-benchmark");

/// `--seconds` of the smoke runs: a few hundred operations per pass,
/// because `cargo test` builds the solver with its debug assertions on,
/// which makes it a hundred times slower.
const SECONDS: &str = "0.25";

/// Runs all four workloads, both modes, into `dir`; returns the parsed
/// result file.
fn smoke_run(dir: &Path, seed: u64) -> Value {
    let out = Command::new(BIN)
        .args(["--smoke", "--seconds", SECONDS, "--seed", &seed.to_string()])
        .arg("--out-dir")
        .arg(dir)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "smoke run failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join(format!("result-seed{seed}.json")))
        .expect("the run wrote its result file");
    parse(&text).expect("the result file is JSON")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_of<'a>(doc: &'a Value, workload: &str, mode: &str) -> &'a Value {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(mode))
        .unwrap_or_else(|| panic!("no {mode} run of {workload}"))
}

fn metric(run: &Value, name: &str) -> f64 {
    run.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} is missing or not a finite number"))
}

#[test]
fn smoke_run_reports_every_metric_and_repeats_exactly() {
    let dir = out_dir("smoke");
    let first = smoke_run(&dir.join("a"), 3);
    let second = smoke_run(&dir.join("b"), 3);

    let provenance = first.get("provenance").expect("provenance");
    for key in [
        "commit", "rustc", "nproc", "seed", "date", "profile", "harness",
    ] {
        assert!(provenance.get(key).is_some(), "provenance lost `{key}`");
    }
    assert_eq!(provenance.get("seed").and_then(Value::as_str), Some("3"));
    assert_eq!(first.get("correct").and_then(Value::as_bool), Some(true));

    for w in WORKLOADS {
        let untraced = run_of(&first, w.name, "untraced");
        let traced = run_of(&first, w.name, "traced");
        for run in [untraced, traced] {
            for key in [
                "provenance",
                "nodes",
                "links",
                "operations",
                "input_hash",
                "digest",
                "counters",
                "passes",
            ] {
                assert!(
                    run.get(key).is_some(),
                    "{}: run record lost `{key}`",
                    w.name
                );
            }
            assert_eq!(run.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(run.get("failed").and_then(Value::as_f64), Some(0.0));
        }
        // End-to-end metrics exist on every workload and are never 0.
        for m in END_TO_END {
            let value = metric(untraced, m.name);
            assert!(
                value.is_finite() && value > 0.0,
                "{} {} = {value}",
                w.name,
                m.name
            );
        }
        assert_eq!(
            untraced.get("metrics").unwrap().members().len(),
            END_TO_END.len(),
            "{}: the untraced run reports exactly the end-to-end metrics",
            w.name
        );
        // Per-layer metrics are all reported; 0 where the layer is not
        // on the workload's path.
        for m in PER_LAYER {
            assert!(metric(traced, m.name).is_finite(), "{} {}", w.name, m.name);
        }
        assert_eq!(
            traced.get("metrics").unwrap().members().len(),
            PER_LAYER.len()
        );
        assert!(traced
            .get("self_time")
            .is_some_and(|t| !t.elements().is_empty()));
        assert_eq!(metric(traced, "failed_share"), 0.0);
        if w.name == "cold_100k" {
            assert_eq!(
                metric(traced, "service.cache_hits"),
                0.0,
                "cold_100k must never hit"
            );
        }

        // The untraced and the traced run of one seed execute the same
        // schedule and must give the same answers; so must a second run.
        let digest = |run: &Value| {
            run.get("digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        assert_eq!(digest(untraced), digest(traced), "{}", w.name);
        for mode in ["untraced", "traced"] {
            let (a, b) = (run_of(&first, w.name, mode), run_of(&second, w.name, mode));
            assert_eq!(
                digest(a),
                digest(b),
                "{} {mode}: digest differs between runs",
                w.name
            );
            assert_eq!(a.get("input_hash"), b.get("input_hash"));
            assert_eq!(a.get("counters"), b.get("counters"), "{} {mode}", w.name);
        }
        let second_traced = run_of(&second, w.name, "traced");
        for m in PER_LAYER.iter().filter(|m| is_count(m.unit)) {
            assert_eq!(
                metric(traced, m.name),
                metric(second_traced, m.name),
                "{}: count {} differs between two runs of one seed",
                w.name,
                m.name
            );
        }
    }

    // `--compare`: a file is within every bound of itself, and two runs
    // of one seed agree on digests, input hashes and counts.
    let file = dir.join("a").join("result-seed3.json");
    let status = Command::new(BIN)
        .arg("--compare")
        .args([&file, &file])
        .status()
        .unwrap();
    assert!(
        status.success(),
        "a result file does not compare equal to itself"
    );
}

#[test]
fn a_single_workload_run_ends_with_the_result_line() {
    let dir = out_dir("line");
    for (trace, names) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let out = Command::new(BIN)
            .args(["--workload", "pipeline_fed", "--smoke", "--seed", "9"])
            .args(["--seconds", SECONDS, "--trace", trace])
            .arg("--out-dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let reported: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(reported, names, "--trace {trace}");
        for (_, m) in line.get("metrics").unwrap().members() {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

#[test]
fn a_debug_build_refuses_to_report() {
    let out = Command::new(BIN)
        .args(["--workload", "pipeline_fed", "--seconds", "0.5"])
        .output()
        .unwrap();
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "a refused run prints no result");
    } else {
        assert!(out.status.success());
    }
}

#[test]
fn the_interaction_table_names_things_that_exist() {
    let metric_names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for name in &metric_names {
        assert!(seen.insert(name), "metric {name} is listed twice");
    }
    for layer in PER_LAYER {
        assert!(
            !layer.on.is_empty(),
            "{} moves nothing anywhere",
            layer.name
        );
        for moved in layer.moves {
            assert!(
                metric_names.contains(moved),
                "{} should move {moved}, which is no metric",
                layer.name
            );
        }
        for workload in layer.on {
            assert!(
                WORKLOADS.iter().any(|w| w.name == *workload),
                "{} should move on {workload}, which is no workload",
                layer.name
            );
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert!(largest <= 0.25);
    assert_eq!(
        END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap()
            .bound,
        largest,
        "setup_s carries the largest bound"
    );
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc =
        parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

    let workloads = doc.get("workloads").unwrap().elements();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(listed, "name").as_deref(), Some(w.name));
        assert_eq!(text(listed, "why").as_deref(), Some(w.why));
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is one line of at most 200",
            w.name
        );
    }
    let end_to_end = doc.get("end_to_end").unwrap().elements();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, m) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text(listed, "name").as_deref(), Some(m.name));
        assert_eq!(text(listed, "unit").as_deref(), Some(m.unit));
        assert_eq!(text(listed, "better").as_deref(), Some(m.better));
        assert_eq!(listed.get("bound").and_then(Value::as_f64), Some(m.bound));
    }
    let per_layer = doc.get("per_layer").unwrap().elements();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text(listed, "name").as_deref(), Some(m.name));
        assert_eq!(text(listed, "unit").as_deref(), Some(m.unit));
        assert_eq!(text(listed, "better").as_deref(), Some(m.better));
    }
}
