//! `nodesel-benchmark`: see `README.md` beside this crate's manifest.

use nodesel_benchmark::inputs::Scale;
use nodesel_benchmark::json::{obj, Value};
use nodesel_benchmark::metrics::WORKLOADS;
use nodesel_benchmark::report::{self, AllConfig};
use nodesel_benchmark::workload::{run, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: nodesel-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] [--out FILE] [--out-dir DIR]
       nodesel-benchmark --compare A.json B.json

Without --workload, runs all four workloads (untraced and traced, or only
the mode --trace names), each in a child process, prints every metric and
writes DIR/result-seed<N>.json. With --workload, runs that one and prints
its result as the last line: {\"correct\", \"attempted\", \"failed\", \"metrics\"}.
--smoke shrinks every axis (and --seconds to 0.5 unless given). --compare checks
B against A by the bounds, and fails a file whose runs were not correct.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        out_dir: report::default_out_dir(),
        compare: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; known: {known:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?.into()),
            "--out-dir" => args.out_dir = value("a directory")?.into(),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok((table, pass)) => {
                print!("{table}");
                if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("error: this is a debug build; its timings mean nothing. Build with --release (only --smoke runs in debug).");
        return ExitCode::from(2);
    }
    // `--smoke` shrinks the schedules too, unless told how long to run.
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.5 } else { 10.0 });
    let Some(workload) = args.workload else {
        let all = AllConfig {
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            trace: args.trace,
            out_dir: args.out_dir,
        };
        return match report::run_all(&all) {
            Ok((path, correct)) => {
                println!("result file: {}", path.display());
                if correct {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("error: at least one run failed its checks");
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        scale: Scale {
            seconds,
            smoke: args.smoke,
        },
        trace: args.trace.unwrap_or(false),
        out_dir: args.out_dir,
    };
    let output = run(&cfg);
    if let Some(path) = &args.out {
        // A run file is the run's record with its provenance in front.
        let mut members = vec![("provenance".to_string(), report::provenance(cfg.seed))];
        members.extend_from_slice(output.detail.members());
        if let Err(e) = std::fs::write(path, Value::Obj(members).to_pretty()) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{}", output.report);
    let line = obj([
        ("correct", Value::from(output.correct)),
        ("attempted", Value::from(output.attempted)),
        ("failed", Value::from(output.failed)),
        (
            "metrics",
            obj(output.metrics.iter().map(|m| {
                (
                    m.name,
                    obj([
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.to_line());
    if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
