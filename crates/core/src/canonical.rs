//! Canonical request form: a hashable, order-normalized selection spec.
//!
//! A placement service keyed on raw [`SelectionRequest`]s would miss
//! cache hits whenever two callers phrase the same question differently
//! (an `allowed` set is a `HashSet` with no stable order, weights are
//! floats) — and could not key a `HashMap` at all, since floats are not
//! `Hash`. [`CanonicalRequest`] fixes both: every field is normalized to
//! a total-ordered, hashable representation such that **equal canonical
//! forms yield bit-identical [`crate::select`] answers** on any snapshot.
//!
//! Normalization choices and why they are sound:
//!
//! * `allowed` is sorted and deduplicated — the algorithms only ever ask
//!   membership (`contains`), never iterate, so order and multiplicity
//!   are unobservable.
//! * `required` is kept **verbatim** (order and duplicates preserved):
//!   [`crate::SelectError::RequiredNotEligible`] reports the *first*
//!   ineligible required node in caller order, and
//!   [`crate::SelectError::TooManyRequired`] counts duplicates, so
//!   reordering would change error bits.
//! * Floats (`min_cpu`, `min_bandwidth`, `reference_bandwidth`, balanced
//!   weights) are carried as `f64::to_bits` — exact round-trip, total
//!   order, hashable. Distinct NaN payloads canonicalize to distinct
//!   keys, which costs a duplicate cache slot, never a wrong answer.
//! * `-0.0` is normalized to `0.0` for `min_cpu` and `min_bandwidth`
//!   **only**: both are used exclusively in `>=` threshold comparisons
//!   (where IEEE 754 makes `-0.0 == 0.0` indistinguishable) and neither
//!   appears in any [`crate::SelectError`] payload, so the two bit
//!   patterns provably answer identically and may share a cache slot.
//!   `reference_bandwidth` and the balanced weights keep their raw bits:
//!   they are *divisors* in the quality model, and `x / 0.0` vs
//!   `x / -0.0` yield infinities of opposite sign — collapsing them
//!   could serve one request the other's answer.

use crate::request::{Constraints, GreedyPolicy, Objective, SelectionRequest};
use crate::weights::Weights;
use nodesel_topology::NodeId;
use std::collections::HashSet;

/// [`Objective`] with weights in bit form (hashable, totally ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum CanonObjective {
    Compute,
    Communication,
    Balanced { compute: u64, comm: u64 },
}

/// A normalized, hashable selection request.
///
/// Build with [`CanonicalRequest::new`]; recover an equivalent (bit-wise
/// answer-identical) request with [`CanonicalRequest::to_request`]. Two
/// requests with equal canonical forms produce byte-identical
/// [`crate::select`] results — including reproduced errors — on every
/// snapshot, which is what makes this safe as a selection-cache key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalRequest {
    count: usize,
    objective: CanonObjective,
    allowed: Option<Vec<NodeId>>,
    required: Vec<NodeId>,
    min_cpu: Option<u64>,
    min_bandwidth: Option<u64>,
    max_staleness: Option<u32>,
    reference_bandwidth: Option<u64>,
    policy: GreedyPolicy,
}

/// Key bits of a threshold float: `-0.0` collapses onto `0.0` (they
/// compare equal under `>=`, the only way thresholds are consumed), all
/// other values keep their exact bit pattern. Not applied to divisors —
/// see the module docs.
fn threshold_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

impl CanonicalRequest {
    /// Canonicalizes `request`.
    pub fn new(request: &SelectionRequest) -> Self {
        let objective = match request.objective {
            Objective::Compute => CanonObjective::Compute,
            Objective::Communication => CanonObjective::Communication,
            Objective::Balanced(w) => CanonObjective::Balanced {
                compute: w.compute.to_bits(),
                comm: w.comm.to_bits(),
            },
        };
        let allowed = request.constraints.allowed.as_ref().map(|set| {
            let mut v: Vec<NodeId> = set.iter().copied().collect();
            v.sort_unstable();
            v
        });
        CanonicalRequest {
            count: request.count,
            objective,
            allowed,
            required: request.constraints.required.clone(),
            min_cpu: request.constraints.min_cpu.map(threshold_bits),
            min_bandwidth: request.constraints.min_bandwidth.map(threshold_bits),
            max_staleness: request.constraints.max_staleness,
            reference_bandwidth: request.reference_bandwidth.map(f64::to_bits),
            policy: request.policy,
        }
    }

    /// Reconstructs a request whose [`crate::select`] answer is
    /// bit-identical to the canonicalized original's on every snapshot.
    pub fn to_request(&self) -> SelectionRequest {
        SelectionRequest {
            count: self.count,
            objective: self.objective(),
            constraints: Constraints {
                allowed: self
                    .allowed
                    .as_ref()
                    .map(|v| v.iter().copied().collect::<HashSet<NodeId>>()),
                required: self.required.clone(),
                min_cpu: self.min_cpu.map(f64::from_bits),
                min_bandwidth: self.min_bandwidth.map(f64::from_bits),
                max_staleness: self.max_staleness,
            },
            reference_bandwidth: self.reference_bandwidth.map(f64::from_bits),
            policy: self.policy,
        }
    }

    /// The request's objective.
    pub fn objective(&self) -> Objective {
        match self.objective {
            CanonObjective::Compute => Objective::Compute,
            CanonObjective::Communication => Objective::Communication,
            CanonObjective::Balanced { compute, comm } => Objective::Balanced(Weights {
                compute: f64::from_bits(compute),
                comm: f64::from_bits(comm),
            }),
        }
    }

    /// Requested node count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when the answer depends on bandwidth annotations: a
    /// communication-aware objective (communication or balanced), or a
    /// bandwidth floor constraint on an otherwise compute-only request.
    /// Degraded-mode services use this to decide which requests stale
    /// utilization data can still honestly serve — CPU-only questions
    /// survive a silent network, bandwidth questions do not.
    pub fn bandwidth_sensitive(&self) -> bool {
        !matches!(self.objective, CanonObjective::Compute) || self.min_bandwidth.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_request() -> SelectionRequest {
        let mut r = SelectionRequest::balanced(3);
        r.constraints.allowed = Some(
            [
                NodeId::from_index(4),
                NodeId::from_index(1),
                NodeId::from_index(9),
            ]
            .into_iter()
            .collect(),
        );
        r.constraints.required = vec![NodeId::from_index(9), NodeId::from_index(1)];
        r.constraints.min_cpu = Some(0.25);
        r.reference_bandwidth = Some(1.5e8);
        r
    }

    #[test]
    fn allowed_order_is_normalized_required_is_not() {
        let a = loaded_request();
        let mut b = a.clone();
        // A different insertion order: same set, same canonical form.
        b.constraints.allowed = Some(
            [
                NodeId::from_index(9),
                NodeId::from_index(4),
                NodeId::from_index(1),
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(CanonicalRequest::new(&a), CanonicalRequest::new(&b));
        // Required order changes error identity: distinct keys.
        b.constraints.required = vec![NodeId::from_index(1), NodeId::from_index(9)];
        assert_ne!(CanonicalRequest::new(&a), CanonicalRequest::new(&b));
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let a = loaded_request();
        let canon = CanonicalRequest::new(&a);
        let back = canon.to_request();
        assert_eq!(CanonicalRequest::new(&back), canon);
        assert_eq!(back.count, a.count);
        assert_eq!(back.constraints.required, a.constraints.required);
        assert_eq!(back.constraints.allowed, a.constraints.allowed);
        assert_eq!(back.constraints.min_cpu, a.constraints.min_cpu);
        assert_eq!(back.reference_bandwidth, a.reference_bandwidth);
        assert_eq!(back.policy, a.policy);
    }

    #[test]
    fn negative_zero_thresholds_share_a_key() {
        let mut a = SelectionRequest::compute(2);
        a.constraints.min_cpu = Some(0.0);
        a.constraints.min_bandwidth = Some(0.0);
        let mut b = a.clone();
        b.constraints.min_cpu = Some(-0.0);
        b.constraints.min_bandwidth = Some(-0.0);
        // Semantically identical thresholds: one cache key.
        assert_eq!(CanonicalRequest::new(&a), CanonicalRequest::new(&b));
        // The answers really are bit-identical (>= cannot see the sign).
        let (topo, _) = nodesel_topology::builders::star(4, 1e8);
        let snap = nodesel_topology::NetSnapshot::capture(std::sync::Arc::new(topo));
        assert_eq!(
            crate::selector_for(a.objective).select(&snap, &a),
            crate::selector_for(b.objective).select(&snap, &b),
        );
        // Divisors keep raw bits: a -0.0 weight is a different question.
        let w = SelectionRequest {
            objective: Objective::Balanced(Weights {
                compute: 0.0,
                comm: 1.0,
            }),
            ..SelectionRequest::balanced(2)
        };
        let mut wneg = w.clone();
        wneg.objective = Objective::Balanced(Weights {
            compute: -0.0,
            comm: 1.0,
        });
        assert_ne!(CanonicalRequest::new(&w), CanonicalRequest::new(&wneg));
        let mut rb = SelectionRequest::communication(2);
        rb.reference_bandwidth = Some(0.0);
        let mut rbneg = rb.clone();
        rbneg.reference_bandwidth = Some(-0.0);
        assert_ne!(CanonicalRequest::new(&rb), CanonicalRequest::new(&rbneg));
    }

    #[test]
    fn bandwidth_sensitivity_tracks_objective_and_floor() {
        assert!(!CanonicalRequest::new(&SelectionRequest::compute(2)).bandwidth_sensitive());
        assert!(CanonicalRequest::new(&SelectionRequest::communication(2)).bandwidth_sensitive());
        assert!(CanonicalRequest::new(&SelectionRequest::balanced(2)).bandwidth_sensitive());
        let mut floored = SelectionRequest::compute(2);
        floored.constraints.min_bandwidth = Some(1.0);
        assert!(CanonicalRequest::new(&floored).bandwidth_sensitive());
    }

    #[test]
    fn weight_bits_distinguish_objectives() {
        let a = SelectionRequest::balanced(2);
        let mut b = a.clone();
        b.objective = Objective::Balanced(Weights {
            compute: 2.0,
            comm: 1.0,
        });
        assert_ne!(CanonicalRequest::new(&a), CanonicalRequest::new(&b));
        assert_ne!(
            CanonicalRequest::new(&a),
            CanonicalRequest::new(&SelectionRequest::compute(2))
        );
    }
}
