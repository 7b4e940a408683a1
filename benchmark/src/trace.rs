//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. A span is pushed to a pre-sized vector at each boundary;
//! nothing is written until the pass has ended.
//!
//! A layer's **self time** is its span's duration minus the part its
//! child spans cover. Summed over all spans, self times equal the summed
//! durations of the root spans — the operations — exactly, so the
//! self-time table accounts for every traced nanosecond once.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::io::Write;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`, or the operation's name for a root span.
    pub name: &'static str,
    /// Nanoseconds since the pass started.
    pub start_ns: u64,
    /// Nanoseconds since the pass started.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Position in the schedule of the operation the span belongs to.
    pub op_id: u32,
}

/// The spans of one pass.
pub struct SpanLog {
    spans: Vec<Span>,
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Their summed self time.
    pub self_ns: u64,
}

impl SpanLog {
    /// A log with room for `capacity` spans, so that recording never
    /// allocates inside a pass sized beforehand.
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a span and returns its index, for its children to name.
    #[inline]
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op_id: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the root spans named `name`.
    pub fn root_total_ns(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT && keep(s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per span name, largest first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let row = by_name.entry(s.name).or_default();
            row.0 += 1;
            // Children are timed inside their parent by shared clock
            // readings, so they never cover more than it.
            row.1 += (s.end_ns - s.start_ns) - covered;
        }
        let mut rows: Vec<SelfTime> = by_name
            .into_iter()
            .map(|(name, (count, self_ns))| SelfTime {
                name,
                count,
                self_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                Value::Null
            } else {
                Value::from(s.parent as u64)
            };
            let line = obj([
                ("name", Value::from(s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("parent", parent),
                ("op_id", Value::from(s.op_id as u64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_spans() {
        let mut log = SpanLog::with_capacity(8);
        let get = log.push("get", 100, 200, ROOT, 0);
        log.push("core.canonicalize", 100, 130, get, 0);
        let svc = log.push("service.get_canonical", 130, 200, get, 0);
        log.push("core.select", 140, 190, svc, 0);
        log.push("publish", 300, 350, ROOT, 1);
        let rows = log.self_times();
        let self_of = |name| rows.iter().find(|r| r.name == name).unwrap().self_ns;
        assert_eq!(self_of("get"), 0);
        assert_eq!(self_of("core.canonicalize"), 30);
        assert_eq!(self_of("service.get_canonical"), 20);
        assert_eq!(self_of("core.select"), 50);
        assert_eq!(self_of("publish"), 50);
        assert_eq!(
            rows.iter().map(|r| r.self_ns).sum::<u64>(),
            log.root_total_ns(|_| true)
        );
        assert_eq!(rows[0].self_ns, 50, "largest first");
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut log = SpanLog::with_capacity(2);
        let root = log.push("get", 1, 9, ROOT, 4);
        log.push("core.canonicalize", 1, 3, root, 4);
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(lines[1].get("op_id").and_then(Value::as_f64), Some(4.0));
    }
}
