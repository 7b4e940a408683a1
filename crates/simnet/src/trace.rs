//! Optional event tracing.
//!
//! When enabled, the engine records a structured entry for every task and
//! flow lifecycle event. Traces serve three purposes: debugging workload
//! models, asserting fine-grained behaviour in tests (ordering, overlap,
//! adaptivity), and checking determinism at full resolution (two runs
//! with the same seed must produce byte-identical traces).

use crate::flows::FlowId;
use crate::host::TaskId;
use crate::time::SimTime;
use nodesel_topology::{EdgeId, NodeId};

/// One traced lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A CPU task was started on a node.
    TaskStarted {
        /// Event time.
        at: SimTime,
        /// Host node.
        node: NodeId,
        /// Task id.
        id: TaskId,
        /// Reference-CPU-seconds of demand.
        work: f64,
    },
    /// A CPU task completed.
    TaskFinished {
        /// Event time.
        at: SimTime,
        /// Host node.
        node: NodeId,
        /// Task id.
        id: TaskId,
    },
    /// A CPU task was cancelled before completion.
    TaskCancelled {
        /// Event time.
        at: SimTime,
        /// Host node.
        node: NodeId,
        /// Task id.
        id: TaskId,
    },
    /// A bulk transfer was started.
    FlowStarted {
        /// Event time.
        at: SimTime,
        /// Flow id.
        id: FlowId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Payload bits.
        bits: f64,
    },
    /// A bulk transfer fully drained (delivery fires one latency later).
    FlowFinished {
        /// Event time.
        at: SimTime,
        /// Flow id.
        id: FlowId,
    },
    /// A bulk transfer was cancelled.
    FlowCancelled {
        /// Event time.
        at: SimTime,
        /// Flow id.
        id: FlowId,
    },
    /// A link went down (fault injection or administrative action).
    LinkDown {
        /// Event time.
        at: SimTime,
        /// The affected link.
        edge: EdgeId,
    },
    /// A previously-down link came back up.
    LinkUp {
        /// Event time.
        at: SimTime,
        /// The affected link.
        edge: EdgeId,
    },
    /// A node crashed: its tasks were killed and its endpoint flows
    /// aborted.
    NodeDown {
        /// Event time.
        at: SimTime,
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node rebooted (empty run queue, links restored).
    NodeUp {
        /// Event time.
        at: SimTime,
        /// The rebooted node.
        node: NodeId,
    },
    /// A CPU task was killed by a host crash (its completion callback
    /// will never fire).
    TaskKilled {
        /// Event time.
        at: SimTime,
        /// Host node.
        node: NodeId,
        /// Task id.
        id: TaskId,
    },
    /// A bulk transfer was aborted because one of its endpoints crashed.
    FlowAborted {
        /// Event time.
        at: SimTime,
        /// Flow id.
        id: FlowId,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::TaskStarted { at, .. }
            | TraceEvent::TaskFinished { at, .. }
            | TraceEvent::TaskCancelled { at, .. }
            | TraceEvent::FlowStarted { at, .. }
            | TraceEvent::FlowFinished { at, .. }
            | TraceEvent::FlowCancelled { at, .. }
            | TraceEvent::LinkDown { at, .. }
            | TraceEvent::LinkUp { at, .. }
            | TraceEvent::NodeDown { at, .. }
            | TraceEvent::NodeUp { at, .. }
            | TraceEvent::TaskKilled { at, .. }
            | TraceEvent::FlowAborted { at, .. } => at,
        }
    }
}

/// A bounded trace buffer (unbounded when `limit == usize::MAX`).
#[derive(Debug, Default, Clone)]
pub(crate) struct Tracer {
    events: Vec<TraceEvent>,
    limit: usize,
    dropped: u64,
}

impl Tracer {
    pub(crate) fn new(limit: usize) -> Self {
        Tracer {
            events: Vec::new(),
            limit,
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, e: TraceEvent) {
        if self.events.len() < self.limit {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
    }

    pub(crate) fn take(&mut self) -> (Vec<TraceEvent>, u64) {
        let dropped = self.dropped;
        self.dropped = 0;
        (std::mem::take(&mut self.events), dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_respects_limit() {
        let mut t = Tracer::new(2);
        for i in 0..5u64 {
            t.record(TraceEvent::FlowFinished {
                at: SimTime(i),
                id: FlowId(i),
            });
        }
        let (events, dropped) = t.take();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 3);
        // After take, the buffer refills.
        let mut t2 = Tracer::new(2);
        t2.record(TraceEvent::FlowFinished {
            at: SimTime(9),
            id: FlowId(9),
        });
        assert_eq!(t2.take().0.len(), 1);
    }

    #[test]
    fn event_timestamps_accessible() {
        let e = TraceEvent::TaskFinished {
            at: SimTime::from_secs(3),
            node: NodeId::from_index(0),
            id: TaskId(1),
        };
        assert_eq!(e.at(), SimTime::from_secs(3));
    }
}
