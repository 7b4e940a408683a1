//! Deterministic discrete-event simulator for networks of time-shared
//! hosts.
//!
//! This crate is the *testbed substitute* for the PPoPP '99 node-selection
//! reproduction: where the paper executed FFT/Airshed/MRI on a physical CMU
//! network (Figure 4), we execute workload models on this simulator. It
//! provides exactly the mechanisms through which background load and
//! traffic slow applications down:
//!
//! * **Processor-sharing hosts** ([`Host`]): `n` equal-priority tasks on a
//!   host of speed `s` each progress at `s/n` — the model underlying the
//!   paper's `cpu = 1/(1+loadavg)` availability formula. Hosts maintain a
//!   UNIX-style damped load average for the measurement layer.
//! * **Max-min fair flows** ([`FlowTable`]): bulk transfers follow their
//!   static route and share directed-link capacity by progressive filling,
//!   the standard fluid model of competing TCP-like transfers. Per-link
//!   octet counters support SNMP-style measurement. Reallocation is
//!   incremental — only the sharing cluster reachable from a changed
//!   flow's path is re-solved, completions come from a lazy-deletion
//!   heap, and flow progress is evaluated closed-form on read. The
//!   paper-style full recompute is kept as the oracle that engine is
//!   tested against, compiled only under `cfg(test)` and the `oracle`
//!   cargo feature (`cargo doc --features oracle` documents it); no
//!   caller picks an engine.
//! * **A deterministic event engine** ([`Sim`], the only one): events
//!   dispatch on one thread in ([`EventKey`]) order — integer-nanosecond
//!   time, then insertion sequence. One-off actions are closure events; recurring
//!   processes (generators, collectors) are cloneable [`DriverLogic`]
//!   state machines living *inside* the simulator, so a warmed-up run with
//!   no closure pending can be [forked][Sim::fork] into independent
//!   bit-identical continuations — the mechanism behind shared-warmup
//!   paired trials in `nodesel-experiments`. Identical inputs give
//!   identical traces on every platform.
//! * **Fault injection** ([`FaultPlan`], [`install_faults`]): seeded
//!   scheduled and stochastic link flaps, node crash/reboot cycles and
//!   subnet partitions, executed by a fork-safe [`FaultDriver`]. A dead
//!   link drops to zero capacity and starves crossing flows (they stall,
//!   bytes settled, without spinning the event loop); a crashed host
//!   kills its tasks and aborts its endpoint flows, both surfaced to the
//!   app driver ([`Sim::take_killed_tasks`], [`Sim::take_aborted_flows`]).
//!
//! # Example
//!
//! ```
//! use nodesel_simnet::Sim;
//! use nodesel_topology::builders::star;
//! use nodesel_topology::units::MBPS;
//! use std::{cell::RefCell, rc::Rc};
//!
//! let (topo, ids) = star(3, 100.0 * MBPS);
//! let mut sim = Sim::new(topo);
//! let done = Rc::new(RefCell::new(0.0));
//! let d = done.clone();
//! // 100 Mbit over a 100 Mbps path: finishes at t = 1s.
//! sim.start_transfer(ids[0], ids[1], 100.0 * MBPS, move |s| {
//!     *d.borrow_mut() = s.now().as_secs_f64();
//! });
//! sim.run();
//! assert!((*done.borrow() - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod fault;
mod flows;
mod host;
pub mod time;
mod trace;

pub use engine::{Callback, DriverId, DriverLogic, Sim, SimStats, DEFAULT_LOAD_AVG_TAU};
pub use fault::{
    install_faults, FaultAction, FaultDriver, FaultPlan, FaultStats, Flap, FlapTarget,
};
#[cfg(any(test, feature = "oracle"))]
pub use flows::FlowEngine;
pub use flows::{DirLink, FlowId, FlowTable};
pub use host::{Host, TaskId};
pub use time::{EventKey, SimTime};
pub use trace::TraceEvent;
