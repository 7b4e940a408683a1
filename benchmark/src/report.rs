//! Result files: provenance, the all-workloads run that gathers one
//! file from per-workload child processes, and `--compare`.

use crate::json::{obj, parse, Value};
use crate::metrics::{is_count, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DD` (UTC) of a Unix time, by the days-to-civil algorithm.
fn utc_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// How and where the numbers of a result file were produced.
pub fn provenance(seed: u64) -> Value {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // `git status --porcelain` prints nothing for a clean tree, so its
    // first line exists exactly when the tree differs from the commit.
    let mut commit = first_line("git", &["rev-parse", "HEAD"]);
    if commit != "unknown" && first_line("git", &["status", "--porcelain"]) != "unknown" {
        commit.push_str("+uncommitted");
    }
    obj([
        ("commit", Value::from(commit)),
        ("rustc", Value::from(first_line("rustc", &["-V"]))),
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("seed", Value::from(format!("{seed}"))),
        ("date", Value::from(utc_date(now))),
        (
            "profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("harness", Value::from("nodesel-benchmark")),
    ])
}

/// Default directory for result and trace files: inside cargo's target
/// directory, which `.gitignore` already names.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

/// Arguments of the all-workloads run.
pub struct AllConfig {
    /// Seed handed to every child.
    pub seed: u64,
    /// `--seconds` handed to every child.
    pub seconds: f64,
    /// `--smoke` handed to every child.
    pub smoke: bool,
    /// `Some(t)` runs only that mode; `None` the untraced and the traced run.
    pub trace: Option<bool>,
    /// Directory for the children's files and the gathered result file.
    pub out_dir: PathBuf,
}

/// Runs every workload, each run in a child process of its own so that
/// `peak_rss_mb` is per workload, prints every metric with its unit, and
/// writes the gathered result file. Returns the file's path and whether
/// every run was correct.
pub fn run_all(cfg: &AllConfig) -> std::io::Result<(PathBuf, bool)> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    let mut gathered = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for trace in [false, true] {
            if cfg.trace.is_some_and(|only| only != trace) {
                continue;
            }
            let file = cfg
                .out_dir
                .join(format!("run-{}-trace{}.json", workload.name, trace as u8));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&cfg.out_dir)
                .arg("--out")
                .arg(&file)
                // The child's last line is for the driver; the report it
                // prints before that is for the reader of this run.
                .stdout(std::process::Stdio::inherit());
            if cfg.smoke {
                child.arg("--smoke");
            }
            let status = child.status()?;
            let doc = std::fs::read_to_string(&file)
                .map_err(|e| e.to_string())
                .and_then(|text| parse(&text));
            match doc {
                Ok(doc) => {
                    all_correct &= status.success()
                        && doc.get("correct").and_then(Value::as_bool) == Some(true);
                    runs.push((if trace { "traced" } else { "untraced" }, doc));
                }
                Err(e) => {
                    eprintln!("{} (trace {}): no result: {e}", workload.name, trace as u8);
                    all_correct = false;
                }
            }
        }
        gathered.push((workload.name, obj(runs)));
    }
    let doc = obj([
        ("provenance", provenance(cfg.seed)),
        ("seconds", Value::from(cfg.seconds)),
        ("smoke", Value::from(cfg.smoke)),
        ("correct", Value::from(all_correct)),
        ("workloads", obj(gathered)),
    ]);
    let path = cfg.out_dir.join(format!("result-seed{}.json", cfg.seed));
    std::fs::write(&path, doc.to_pretty())?;
    Ok((path, all_correct))
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `mode` ("untraced" / "traced") run of `workload` in a result file.
fn run_of<'a>(doc: &'a Value, workload: &str, mode: &str) -> Option<&'a Value> {
    doc.get("workloads")?.get(workload)?.get(mode)
}

fn metric_value(run: Option<&Value>, name: &str) -> Option<f64> {
    run?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares two gathered result files. Every run of both must have been
/// correct with nothing failed (`failed_share` may not rise at all, and
/// a timing of wrong answers is no timing); `b` may be worse than `a` on
/// no end-to-end metric of any workload by more than the metric's
/// bound; and, when both ran the same seed, answer digests, input hashes
/// and every count-type per-layer metric must be identical. Returns the
/// table and whether `b` passes.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    Ok(compare_docs(&load(a)?, &load(b)?))
}

fn compare_docs(a: &Value, b: &Value) -> (String, bool) {
    let seed_of = |doc: &Value| {
        doc.get("provenance")
            .and_then(|p| p.get("seed"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let same_seed = seed_of(a).is_some() && seed_of(a) == seed_of(b);
    let mut text = String::new();
    let mut pass = true;
    let _ = writeln!(
        text,
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in WORKLOADS {
        let run = |doc, mode| run_of(doc, workload.name, mode);
        for (file, doc) in [("a", a), ("b", b)] {
            for mode in ["untraced", "traced"] {
                let Some(record) = run(doc, mode) else {
                    continue;
                };
                let correct = record.get("correct").and_then(Value::as_bool) == Some(true);
                let failed = record.get("failed").and_then(Value::as_f64);
                if !correct || failed != Some(0.0) {
                    let _ = writeln!(
                        text,
                        "{:<14} {mode} run of {file} is not correct (failed: {failed:?})",
                        workload.name
                    );
                    pass = false;
                }
            }
        }
        let (ua, ub) = (run(a, "untraced"), run(b, "untraced"));
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(ua, m.name), metric_value(ub, m.name)) else {
                let _ = writeln!(text, "{:<14} {:<16} missing", workload.name, m.name);
                pass = false;
                continue;
            };
            let worse = if m.better == "lower" {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let ok = worse <= m.bound;
            pass &= ok;
            let _ = writeln!(
                text,
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}% {}",
                workload.name,
                m.name,
                va,
                vb,
                100.0 * worse,
                100.0 * m.bound,
                if ok { "" } else { "WORSE THAN THE BOUND" }
            );
        }
        if !same_seed {
            continue;
        }
        for mode in ["untraced", "traced"] {
            let (ra, rb) = (run(a, mode), run(b, mode));
            for key in ["digest", "input_hash"] {
                let (da, db) = (ra.and_then(|r| r.get(key)), rb.and_then(|r| r.get(key)));
                if da != db {
                    let _ = writeln!(
                        text,
                        "{:<14} {mode} {key} differs: {da:?} vs {db:?}",
                        workload.name
                    );
                    pass = false;
                }
            }
        }
        let (ta, tb) = (run(a, "traced"), run(b, "traced"));
        for m in PER_LAYER.iter().filter(|m| is_count(m.unit)) {
            let (ca, cb) = (metric_value(ta, m.name), metric_value(tb, m.name));
            if ca != cb {
                let _ = writeln!(
                    text,
                    "{:<14} count {} differs: {ca:?} vs {cb:?}",
                    workload.name, m.name
                );
                pass = false;
            }
        }
    }
    let _ = writeln!(
        text,
        "{}{}",
        if pass {
            "PASS: b is within every bound of a"
        } else {
            "FAIL"
        },
        if same_seed {
            "; same seed, so digests, input hashes and counts were compared too"
        } else {
            "; different seeds, so only the bounds were compared"
        }
    );
    (text, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_date_knows_leap_years() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_709_251_199), "2024-02-29");
        assert_eq!(utc_date(1_709_251_200), "2024-03-01");
        assert_eq!(utc_date(1_790_467_200), "2026-09-27");
    }

    fn result_doc(seed: u64, get_p50: f64, digest: &str) -> Value {
        let metrics = obj(END_TO_END.iter().map(|m| {
            let value = if m.name == "get_p50_us" {
                get_p50
            } else {
                10.0
            };
            (m.name, obj([("value", Value::from(value))]))
        }));
        let run = obj([
            ("digest", Value::from(digest)),
            ("correct", Value::from(true)),
            ("failed", Value::from(0u64)),
            ("metrics", metrics),
        ]);
        obj([
            (
                "provenance",
                obj([("seed", Value::from(format!("{seed}")))]),
            ),
            (
                "workloads",
                obj(WORKLOADS
                    .iter()
                    .map(|w| (w.name, obj([("untraced", run.clone())])))),
            ),
        ])
    }

    #[test]
    fn compare_applies_the_bound_in_the_metrics_direction() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "get_p50_us")
            .unwrap()
            .bound;
        let base = result_doc(1, 100.0, "aa");
        let within = result_doc(1, 100.0 * (1.0 + bound) - 1.0, "aa");
        let slower = result_doc(1, 100.0 * (1.0 + bound) + 1.0, "aa");
        let other_answers = result_doc(1, 100.0, "bb");
        let other_seed = result_doc(2, 100.0, "bb");
        assert!(compare_docs(&base, &within).1);
        assert!(!compare_docs(&base, &slower).1);
        assert!(compare_docs(&slower, &base).1, "faster is never a failure");
        assert!(!compare_docs(&base, &other_answers).1);
        assert!(compare_docs(&base, &other_seed).1);
    }

    #[test]
    fn compare_fails_a_file_whose_runs_failed_their_checks() {
        let base = result_doc(1, 100.0, "aa");
        let text = base.to_line();
        let wrong = parse(&text.replacen("\"correct\":true", "\"correct\":false", 1)).unwrap();
        let failed = parse(&text.replacen("\"failed\":0", "\"failed\":3", 1)).unwrap();
        for bad in [&wrong, &failed] {
            assert!(!compare_docs(&base, bad).1);
            assert!(!compare_docs(bad, &base).1);
        }
        // Not even on another seed, where nothing else is compared.
        assert!(!compare_docs(&result_doc(2, 100.0, "bb"), &failed).1);
    }
}
