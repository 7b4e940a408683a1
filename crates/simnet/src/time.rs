//! Simulation time.
//!
//! All simulation timestamps are integer nanoseconds ([`SimTime`]). Keeping
//! time integral makes event ordering exact and runs bit-reproducible across
//! platforms; rates and durations are converted from `f64` seconds at the
//! boundary with explicit rounding.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute simulation timestamp in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Far future; used as the "never" sentinel for next-completion times.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Builds a timestamp from whole seconds, saturating to
    /// [`SimTime::NEVER`] past the representable range.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(NANOS_PER_SEC))
    }

    /// Builds a timestamp from fractional seconds, rounding up so that a
    /// strictly positive duration never collapses to the current instant
    /// (which would allow zero-delay event loops).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid time {s}");
        SimTime((s * NANOS_PER_SEC as f64).ceil() as u64)
    }

    /// This timestamp as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating time difference in fractional seconds.
    pub fn seconds_since(self, earlier: SimTime) -> f64 {
        (self.0.saturating_sub(earlier.0)) as f64 / NANOS_PER_SEC as f64
    }

    /// Advances by a fractional-second delay (rounded up; a positive delay
    /// always advances time by at least one nanosecond).
    pub fn after_secs_f64(self, delay: f64) -> SimTime {
        assert!(delay >= 0.0, "negative delay {delay}");
        if delay == 0.0 {
            return self;
        }
        if !delay.is_finite() {
            return SimTime::NEVER;
        }
        let nanos = (delay * NANOS_PER_SEC as f64).ceil().max(1.0);
        if nanos >= (u64::MAX - self.0) as f64 {
            SimTime::NEVER
        } else {
            SimTime(self.0 + nanos as u64)
        }
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, nanos: u64) -> SimTime {
        SimTime(self.0.saturating_add(nanos))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, nanos: u64) {
        *self = *self + nanos;
    }
}

impl Sub for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Total dispatch order of simulator events: time first, then the
/// engine's monotone insertion sequence number, so events scheduled for
/// the same instant dispatch in the order they were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Dispatch time.
    pub at: SimTime,
    /// The engine's monotone event sequence number.
    pub seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs(3);
        assert_eq!(t.as_secs_f64(), 3.0);
        assert_eq!(SimTime::from_secs_f64(1.5).0, 1_500_000_000);
    }

    #[test]
    fn positive_delay_always_advances() {
        let t = SimTime::from_secs(1);
        let t2 = t.after_secs_f64(1e-12);
        assert!(t2 > t);
        assert_eq!(t.after_secs_f64(0.0), t);
    }

    #[test]
    fn infinite_delay_is_never() {
        assert_eq!(SimTime::ZERO.after_secs_f64(f64::INFINITY), SimTime::NEVER);
    }

    #[test]
    fn whole_seconds_saturate_to_never() {
        let max_whole = u64::MAX / NANOS_PER_SEC;
        assert_eq!(SimTime::from_secs(max_whole).0, max_whole * NANOS_PER_SEC);
        assert_eq!(SimTime::from_secs(max_whole + 1), SimTime::NEVER);
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::NEVER);
    }

    #[test]
    fn event_key_orders_time_then_seq() {
        let k = |at, seq| EventKey {
            at: SimTime(at),
            seq,
        };
        // Time dominates...
        assert!(k(1, 9) < k(2, 0));
        // ...and at equal times the earlier-scheduled event goes first.
        assert!(k(5, 1) < k(5, 2));
        assert_eq!(k(5, 1), k(5, 1));
    }

    #[test]
    fn seconds_since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(4);
        assert_eq!(b.seconds_since(a), 3.0);
        assert_eq!(a.seconds_since(b), 0.0);
    }
}
