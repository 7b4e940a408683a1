//! Typed errors for the placement lifecycle and the overload path.
//!
//! The answer-only path (`get`) is infallible by design — a selection
//! that cannot be satisfied is itself an answer
//! ([`nodesel_core::SelectError`] travels *inside* the
//! [`crate::Placement`]). The deadline-aware path
//! ([`crate::PlacementService::get_with`]) adds two ways to *not*
//! answer, both typed: [`ServiceError::Shed`] (the solve gate was
//! saturated and the request declined to block) and
//! [`ServiceError::DeadlineExceeded`] (the request's deadline passed
//! before it could be solved). The lifecycle path (`admit` / `release`
//! / `supervise`) validates caller-held state (a demand, a job handle),
//! so failures there are typed and returned, never panicked; under the
//! degraded-mode policy an admission of a bandwidth-sensitive job past
//! the hard staleness bound is refused with
//! [`ServiceError::DegradedRefusal`]. Lock poisoning remains a panic
//! throughout the crate — see [`crate::service`]'s locking notes.

use crate::ledger::JobId;
use nodesel_core::SelectError;

/// Why a placement-lifecycle call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The job handle does not name a live ledger entry — never admitted
    /// here, or already released.
    UnknownJob(JobId),
    /// A demand magnitude was not a finite, non-negative number.
    InvalidDemand {
        /// Which magnitude was rejected (`"cpu_load"` or
        /// `"pair_bandwidth"`).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The underlying selection failed; the ledger was not changed.
    Select(SelectError),
    /// [`crate::ServiceConfig::supervisor`] fails
    /// [`nodesel_core::SupervisorPolicy::validate`]: no job can be
    /// supervised under it. The ledger was not touched.
    InvalidSupervisorPolicy,
    /// The service shed the request instead of solving it: the in-flight
    /// solve gate was saturated and the request declined to block
    /// ([`crate::GetOptions::block_when_full`] was `false`). No answer
    /// was produced and nothing was cached; the caller may retry.
    Shed,
    /// The request's deadline passed before an answer was produced:
    /// either it was already expired on arrival, or it expired while the
    /// request waited for a solve-gate slot (dead work is skipped, not
    /// solved).
    DeadlineExceeded {
        /// The request's absolute deadline, service-clock seconds.
        deadline: f64,
        /// The service clock when the request was abandoned.
        now: f64,
    },
    /// The degraded-mode policy refused the operation: the collector has
    /// not been heard from for longer than the hard staleness bound and
    /// the request is bandwidth-sensitive, so any answer would be a
    /// fabrication. CPU-only requests are still served (flagged stale).
    DegradedRefusal {
        /// Seconds since the service last heard from the collector.
        age: f64,
    },
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::UnknownJob(job) => {
                write!(
                    f,
                    "job {job:?} is not admitted (unknown or already released)"
                )
            }
            ServiceError::InvalidDemand { field, value } => {
                write!(
                    f,
                    "demand {field} = {value} is not a finite non-negative number"
                )
            }
            ServiceError::Select(e) => write!(f, "selection failed: {e}"),
            ServiceError::InvalidSupervisorPolicy => {
                f.write_str("the configured supervisor policy is invalid")
            }
            ServiceError::Shed => f.write_str("request shed: solve gate saturated"),
            ServiceError::DeadlineExceeded { deadline, now } => {
                write!(
                    f,
                    "deadline {deadline:.3}s passed before an answer (now {now:.3}s)"
                )
            }
            ServiceError::DegradedRefusal { age } => {
                write!(
                    f,
                    "refused: measurements {age:.1}s old exceed the hard staleness \
                     bound for a bandwidth-sensitive request"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Select(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SelectError> for ServiceError {
    fn from(e: SelectError) -> Self {
        ServiceError::Select(e)
    }
}
