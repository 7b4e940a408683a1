//! Bandwidth and time unit conventions.
//!
//! All bandwidths in this workspace are `f64` values in **bits per second**.
//! The constants here keep call sites legible (`100.0 * MBPS`) and make the
//! convention greppable. Simulation time is carried separately as `u64`
//! nanoseconds by `nodesel-simnet`.

/// One kilobit per second, in bits per second.
pub const KBPS: f64 = 1_000.0;

/// One megabit per second, in bits per second.
pub const MBPS: f64 = 1_000_000.0;

/// One gigabit per second, in bits per second.
pub const GBPS: f64 = 1_000_000_000.0;

/// One megabyte, in bits.
pub const MEGABYTE: f64 = 8.0 * 1_000_000.0;

/// Converts bytes to bits.
#[inline]
pub fn bytes(n: f64) -> f64 {
    n * 8.0
}

/// Time (seconds) to move `bits` over a path sustaining `bits_per_sec`.
///
/// Returns `f64::INFINITY` when the available bandwidth is zero, which the
/// simulator treats as "stalled until more bandwidth frees up".
#[inline]
pub fn transfer_seconds(bits: f64, bits_per_sec: f64) -> f64 {
    if bits_per_sec <= 0.0 {
        f64::INFINITY
    } else {
        bits / bits_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_scale() {
        assert_eq!(MBPS, 1_000.0 * KBPS);
        assert_eq!(GBPS, 1_000.0 * MBPS);
        assert_eq!(bytes(1.0), 8.0);
        assert_eq!(MEGABYTE, bytes(1_000_000.0));
    }

    #[test]
    fn transfer_time_basics() {
        // 100 Mbit over a 100 Mbps link takes one second.
        assert!((transfer_seconds(100.0 * MBPS, 100.0 * MBPS) - 1.0).abs() < 1e-12);
        assert!(transfer_seconds(1.0, 0.0).is_infinite());
    }
}
