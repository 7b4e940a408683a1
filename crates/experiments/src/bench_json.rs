//! The one writer of the workspace's committed `BENCH_*.json` files.
//!
//! Every bench and study that commits numbers goes through [`record`]:
//! it owns one named section of one file, stamps the section with the
//! provenance of the run that produced it, keeps what it replaces
//! under the file's `history` array (so a file is a trajectory, not the
//! latest overwrite), and validates what it wrote by reading it back. A
//! smoke run (`--test`, which is how `cargo bench -- --test` starts a
//! bench, or `--smoke`) validates and writes nothing, so truncated
//! numbers never replace a full run's.

use serde_json::{json, Map, Value};

/// True when this process was asked for a shortened run whose numbers
/// must not be committed.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--smoke")
}

/// First line of `program args...`'s output; `"unknown"` when it cannot
/// run.
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The `provenance` block [`record`] stamps on a section: the commit
/// and toolchain that produced the numbers, the cores they ran on, and
/// that a bench (not a one-off probe or a back-fill) made them.
fn provenance() -> Value {
    json!({
        "commit": tool_line("git", &["describe", "--always", "--dirty"]),
        "rustc": tool_line("rustc", &["-V"]),
        "cores": std::thread::available_parallelism().map_or(1, usize::from),
        "harness": "bench",
    })
}

/// Panics unless `doc[section]` says how it was produced.
fn assert_provenance(doc: &Value, section: &str) {
    for key in ["commit", "rustc", "cores", "harness"] {
        assert!(
            doc[section]["provenance"].get(key).is_some(),
            "`{section}` provenance lost `{key}`"
        );
    }
}

/// Replaces `section` of the JSON document at `path` with `value`
/// stamped with this run's provenance (commit, toolchain, cores,
/// harness), pushing the section it replaces onto the document's
/// `history` array; other sections survive.
/// `validate` (the caller's schema and headline-claim tripwire) runs on
/// the document before it is written and again on what is read back.
///
/// On a [smoke run](smoke_requested) nothing is written: `validate` sees
/// the fresh numbers in place, then the committed file as it stands.
///
/// # Panics
///
/// When `validate` does, when a section lacks provenance, or when the
/// file cannot be written and read back.
pub fn record(path: &str, section: &str, value: Value, validate: impl Fn(&Value)) {
    record_as(smoke_requested(), path, section, value, validate);
}

fn record_as(smoke: bool, path: &str, section: &str, mut value: Value, validate: impl Fn(&Value)) {
    let check = |doc: &Value| {
        validate(doc);
        assert_provenance(doc, section);
    };
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .filter(Value::is_object)
        .unwrap_or_else(|| json!({}));
    value["provenance"] = provenance();
    let replaced = std::mem::replace(&mut doc[section], value);
    check(&doc);
    if smoke {
        if !replaced.is_null() {
            doc[section] = replaced;
            check(&doc);
        }
        println!("smoke run: `{section}` validated, {path} left untouched");
        return;
    }
    if !replaced.is_null() {
        let entry = Value::Object(Map::from_iter([(section.to_owned(), replaced)]));
        match &mut doc["history"] {
            Value::Array(history) => history.push(entry),
            slot => *slot = Value::Array(vec![entry]),
        }
    }
    std::fs::write(path, format!("{doc:#}\n"))
        .unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    let text = std::fs::read_to_string(path).expect("just wrote the summary");
    check(&serde_json::from_str(&text).expect("the written summary is valid JSON"));
    println!("wrote `{section}` to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_names_commit_toolchain_cores_and_harness() {
        let p = provenance();
        for key in ["commit", "rustc", "harness"] {
            assert!(p[key].is_string(), "provenance lost `{key}`");
        }
        assert!(p["cores"].as_u64().is_some_and(|c| c >= 1));
    }

    #[test]
    fn a_second_record_keeps_the_first_and_a_smoke_run_writes_nothing() {
        let path = std::env::temp_dir().join(format!("bench_json_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, "{\"foreign\": 1}\n").unwrap();
        let has_rate = |doc: &Value| assert!(doc["study"]["rate"].is_number());

        record_as(false, path, "study", json!({ "rate": 1.5 }), has_rate);
        record_as(false, path, "study", json!({ "rate": 2.5 }), has_rate);
        let written = std::fs::read_to_string(path).unwrap();
        let doc: Value = serde_json::from_str(&written).unwrap();
        assert_eq!(doc["foreign"].as_u64(), Some(1));
        assert_eq!(doc["study"]["rate"].as_f64(), Some(2.5));
        let history = doc["history"].as_array().expect("history array");
        assert_eq!(history.len(), 1);
        assert_eq!(history[0]["study"]["rate"].as_f64(), Some(1.5));
        assert!(history[0]["study"]["provenance"]["commit"].is_string());

        record_as(true, path, "study", json!({ "rate": 9.0 }), has_rate);
        assert_eq!(std::fs::read_to_string(path).unwrap(), written);
        std::fs::remove_file(path).unwrap();
    }
}
