//! Supervised availability-aware re-selection.
//!
//! The migration [`Advisor`] answers "is there a better
//! placement?" per epoch; it has no notion of *failure*. A [`Supervisor`]
//! wraps the advisor's per-epoch fresh solve with a re-selection policy
//! built for faulty networks:
//!
//! * **Failure-triggered re-selection** — when a placed node is reported down
//!   or too stale, or the routes between placed nodes cross a dead link,
//!   the placement cannot make progress: re-selection is advised
//!   immediately, bypassing the quality hysteresis.
//! * **Hysteresis** — quality-driven moves (no failure, just a better
//!   placement elsewhere) must clear a relative score-improvement
//!   threshold, exactly like the advisor: migration is not free.
//! * **Exponential backoff** — every advised re-selection opens a backoff
//!   window; quality moves inside the window are held. A re-selection
//!   advised *inside* the previous window (a flaky region repeatedly
//!   killing placements) grows the next window geometrically up to a
//!   cap, so a flapping network converges to occasional large windows
//!   instead of thrashing migrations.
//!
//! The supervisor never moves tasks itself: like the advisor, it returns
//! the advice ([`MigrationAdvice`], with the usual
//! [`vacated`](MigrationAdvice::vacated)/[`occupied`](MigrationAdvice::occupied)
//! accessors) and the caller performs the migration.

use crate::migration::{Advisor, MigrationAdvice, OwnUsage};
use crate::request::SelectionRequest;
use crate::SelectError;
use nodesel_topology::{NetMetrics, NetSnapshot, NodeId, RouteTable};

/// Re-selection policy of a [`Supervisor`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// Relative score improvement a *quality* (non-failure) move must
    /// clear — the advisor's hysteresis threshold.
    pub hysteresis: f64,
    /// Backoff window opened by a re-selection advised outside any
    /// previous window, seconds.
    pub backoff_base: f64,
    /// Growth factor applied when a re-selection is advised while the
    /// previous window is still open (a flaky region).
    pub backoff_factor: f64,
    /// Upper bound on the backoff window, seconds.
    pub backoff_max: f64,
    /// Staleness cap merged into the selection request: nodes whose
    /// measurements are more than this many samples old are not
    /// selectable, and a placed node aging past it counts as failed.
    /// `None` disables age-based exclusion (confidence decay still
    /// penalizes stale candidates).
    pub max_staleness: Option<u32>,
}

impl SupervisorPolicy {
    /// Validates the policy: a non-negative hysteresis, a positive base
    /// window, a growth factor that does not shrink it, and a cap that
    /// covers the base. NaN anywhere fails.
    pub fn validate(&self) -> bool {
        self.hysteresis >= 0.0
            && self.backoff_base > 0.0
            && self.backoff_factor >= 1.0
            && self.backoff_max >= self.backoff_base
    }
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            hysteresis: 0.25,
            backoff_base: 30.0,
            backoff_factor: 2.0,
            backoff_max: 480.0,
            max_staleness: Some(3),
        }
    }
}

/// What a [`Supervisor::check`] concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorVerdict {
    /// The placement is alive and no better placement clears the
    /// hysteresis: keep running.
    Healthy,
    /// A better placement exists but the policy holds the move back
    /// (inside the backoff window).
    Hold {
        /// Seconds until the backoff window closes.
        backoff_remaining: f64,
    },
    /// Re-selection is advised; migrate to [`SupervisorCheck::advice`]'s
    /// best placement.
    Reselect {
        /// True when triggered by a failure (dead/stale node or severed
        /// route) rather than by quality improvement.
        failure: bool,
    },
}

/// One supervision epoch's full result.
#[derive(Debug, Clone)]
pub struct SupervisorCheck {
    /// The decision.
    pub verdict: SupervisorVerdict,
    /// The underlying comparison of the current placement against the
    /// best available one (always computed, whatever the verdict).
    pub advice: MigrationAdvice,
    /// Placed nodes currently considered failed: reported down, or
    /// staler than the policy's cap.
    pub failed: Vec<NodeId>,
    /// True when some route between placed nodes crosses a link
    /// reported down (the placement is partitioned).
    pub partitioned: bool,
}

/// A failure-aware re-selection supervisor for one running placement;
/// the only state it keeps between epochs is its backoff clock and
/// counters.
pub struct Supervisor {
    advisor: Advisor,
    policy: SupervisorPolicy,
    /// End of the current backoff window, in the caller's clock.
    backoff_until: f64,
    /// Width of the most recently opened window.
    backoff: f64,
    /// Largest `now` ever seen by [`Supervisor::check`]: the clamp that
    /// keeps a stale caller clock from rewinding (and thereby resetting)
    /// an open backoff window.
    last_now: f64,
    reselections: u64,
    failure_reselections: u64,
}

impl Supervisor {
    /// A supervisor for `request` under `policy`. The policy's staleness
    /// cap is merged into the request's constraints so every solve
    /// excludes too-stale candidates uniformly.
    ///
    /// # Panics
    ///
    /// When `policy` fails [`SupervisorPolicy::validate`].
    pub fn new(mut request: SelectionRequest, policy: SupervisorPolicy) -> Supervisor {
        assert!(policy.validate(), "invalid supervisor policy: {policy:?}");
        if let Some(cap) = policy.max_staleness {
            request.constraints.max_staleness = Some(match request.constraints.max_staleness {
                Some(existing) => existing.min(cap),
                None => cap,
            });
        }
        let hysteresis = policy.hysteresis;
        Supervisor {
            advisor: Advisor::new(request, hysteresis),
            policy,
            backoff_until: 0.0,
            backoff: 0.0,
            last_now: f64::NEG_INFINITY,
            reselections: 0,
            failure_reselections: 0,
        }
    }

    /// Total re-selections advised so far.
    pub fn reselections(&self) -> u64 {
        self.reselections
    }

    /// Re-selections advised because of a failure (subset of
    /// [`Supervisor::reselections`]).
    pub fn failure_reselections(&self) -> u64 {
        self.failure_reselections
    }

    /// End of the current backoff window, in the caller's clock.
    pub fn backoff_until(&self) -> f64 {
        self.backoff_until
    }

    /// One supervision epoch: classifies the health of `current` on
    /// `snapshot`, solves for the best placement (through the embedded
    /// advisor), and applies the policy. `now` is the
    /// caller's clock in seconds; a `now` earlier than any previously
    /// seen one (or a non-finite one) is **clamped** to the latest seen —
    /// time never moves backwards inside the supervisor, so a stale
    /// clock can neither rewind an open backoff window nor trick
    /// [`Supervisor::check`] into resetting a widened one back to base.
    ///
    /// Errors from the underlying selection (e.g. too few live nodes to
    /// host the application) are returned as-is; the caller should retry
    /// on a later epoch.
    pub fn check(
        &mut self,
        now: f64,
        snapshot: &NetSnapshot,
        current: &[NodeId],
        own: &OwnUsage,
    ) -> Result<SupervisorCheck, SelectError> {
        // Monotone clamp (NaN-safe: `f64::max` ignores a NaN operand, so
        // a NaN `now` degrades to "no time passed"). Without this, a
        // caller handing an older timestamp would make `now <
        // backoff_until` comparisons lie and `note_reselection` reset a
        // widened window to its base width.
        let now = now.max(self.last_now);
        self.last_now = now;
        let cap = self.policy.max_staleness;
        let failed: Vec<NodeId> = current
            .iter()
            .copied()
            .filter(|&n| {
                !snapshot.node_available(n) || cap.is_some_and(|c| snapshot.node_staleness(n) > c)
            })
            .collect();
        let partitioned = placement_partitioned(snapshot, current);
        let advice = self.advisor.advise(snapshot, current, own)?;
        let impaired = !failed.is_empty() || partitioned;
        // A failed placement re-selects whenever anywhere else is viable,
        // regardless of hysteresis: the advice's own `recommended` flag
        // still reflects the quality rule, but a dead node scores the
        // current placement near zero anyway.
        let moved = advice.best.nodes != current;
        let verdict = if impaired && moved {
            self.note_reselection(now, true);
            SupervisorVerdict::Reselect { failure: true }
        } else if advice.recommended && moved {
            if now < self.backoff_until {
                SupervisorVerdict::Hold {
                    backoff_remaining: self.backoff_until - now,
                }
            } else {
                self.note_reselection(now, false);
                SupervisorVerdict::Reselect { failure: false }
            }
        } else {
            SupervisorVerdict::Healthy
        };
        Ok(SupervisorCheck {
            verdict,
            advice,
            failed,
            partitioned,
        })
    }

    fn note_reselection(&mut self, now: f64, failure: bool) {
        self.reselections += 1;
        if failure {
            self.failure_reselections += 1;
        }
        // Inside the previous window: the region is flaky, widen it.
        self.backoff = if now < self.backoff_until {
            (self.backoff * self.policy.backoff_factor).min(self.policy.backoff_max)
        } else {
            self.policy.backoff_base
        };
        self.backoff_until = now + self.backoff;
    }
}

/// True when any route between two placed nodes crosses a link reported
/// down: the placement cannot communicate even though every node may be
/// up.
fn placement_partitioned(snapshot: &NetSnapshot, current: &[NodeId]) -> bool {
    if current.len() < 2 {
        return false;
    }
    let topo = snapshot.structure_arc();
    let table = RouteTable::build_for_sources(topo, current.iter().copied());
    for (i, &src) in current.iter().enumerate() {
        for &dst in &current[i + 1..] {
            match table.resolve(topo, src, dst) {
                Ok(path) => {
                    if path.hops.iter().any(|&(e, _)| !snapshot.link_available(e)) {
                        return true;
                    }
                }
                Err(_) => return true,
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SelectionRequest;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;
    use nodesel_topology::NetDelta;
    use std::sync::Arc;

    fn policy() -> SupervisorPolicy {
        SupervisorPolicy {
            hysteresis: 0.25,
            backoff_base: 10.0,
            backoff_factor: 2.0,
            backoff_max: 40.0,
            max_staleness: Some(2),
        }
    }

    fn snap_star(n: usize) -> (NetSnapshot, Vec<NodeId>) {
        let (topo, ids) = star(n, 100.0 * MBPS);
        (NetSnapshot::capture(Arc::new(topo)), ids)
    }

    #[test]
    fn healthy_placement_stays_put() {
        let (snap, ids) = snap_star(4);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        let check = sup.check(0.0, &snap, &placed, &own).unwrap();
        assert_eq!(check.verdict, SupervisorVerdict::Healthy);
        assert!(check.failed.is_empty());
        assert!(!check.partitioned);
        assert_eq!(sup.reselections(), 0);
    }

    #[test]
    fn dead_node_triggers_immediate_reselection() {
        let (snap, ids) = snap_star(4);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        sup.check(0.0, &snap, &placed, &own).unwrap();
        let down = snap.apply(&NetDelta {
            avail_nodes: vec![(ids[0], false)],
            ..NetDelta::default()
        });
        let check = sup.check(5.0, &down, &placed, &own).unwrap();
        assert_eq!(check.failed, vec![ids[0]]);
        assert_eq!(check.verdict, SupervisorVerdict::Reselect { failure: true });
        // The advised placement avoids the dead node.
        assert!(!check.advice.best.nodes.contains(&ids[0]));
        assert_eq!(sup.failure_reselections(), 1);
    }

    #[test]
    fn stale_node_counts_as_failed_past_the_cap() {
        let (snap, ids) = snap_star(4);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        sup.check(0.0, &snap, &placed, &own).unwrap();
        // Two missed samples: within the cap, still healthy.
        let aging = snap.apply(&NetDelta {
            stale_nodes: vec![(ids[0], 2)],
            ..NetDelta::default()
        });
        let check = sup.check(5.0, &aging, &placed, &own).unwrap();
        assert!(check.failed.is_empty());
        // Three missed samples: past the cap, the node's state is unknown.
        let unknown = aging.apply(&NetDelta {
            stale_nodes: vec![(ids[0], 3)],
            ..NetDelta::default()
        });
        let check = sup.check(10.0, &unknown, &placed, &own).unwrap();
        assert_eq!(check.failed, vec![ids[0]]);
        assert_eq!(check.verdict, SupervisorVerdict::Reselect { failure: true });
        assert!(!check.advice.best.nodes.contains(&ids[0]));
    }

    #[test]
    fn severed_route_is_a_partition_failure() {
        let (snap, ids) = snap_star(3);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        sup.check(0.0, &snap, &placed, &own).unwrap();
        // Kill the access link of ids[0]: both nodes are up, but they
        // cannot talk.
        let e0 = snap.structure_arc().edge_ids().next().unwrap();
        let cut = snap.apply(&NetDelta {
            avail_links: vec![(e0, false)],
            ..NetDelta::default()
        });
        let check = sup.check(5.0, &cut, &placed, &own).unwrap();
        assert!(check.failed.is_empty());
        assert!(check.partitioned);
        assert_eq!(check.verdict, SupervisorVerdict::Reselect { failure: true });
        assert!(!check.advice.best.nodes.contains(&ids[0]));
    }

    #[test]
    fn hysteresis_and_backoff_gate_quality_moves() {
        let (snap, ids) = snap_star(4);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        sup.check(0.0, &snap, &placed, &own).unwrap();
        // Mild competition on ids[0]: below the 25% hysteresis bar.
        let mild = snap.apply(&NetDelta {
            nodes: vec![(ids[0], 1.2)],
            ..NetDelta::default()
        });
        let check = sup.check(5.0, &mild, &placed, &own).unwrap();
        assert_eq!(check.verdict, SupervisorVerdict::Healthy);
        // Heavy competition: clears hysteresis, advises a move and opens
        // a backoff window.
        let heavy = snap.apply(&NetDelta {
            nodes: vec![(ids[0], 4.0)],
            ..NetDelta::default()
        });
        let check = sup.check(10.0, &heavy, &placed, &own).unwrap();
        assert_eq!(
            check.verdict,
            SupervisorVerdict::Reselect { failure: false }
        );
        assert_eq!(sup.reselections(), 1);
        // Caller ignored the advice; the same pressure inside the window
        // is held, not re-advised.
        let check = sup.check(12.0, &heavy, &placed, &own).unwrap();
        let SupervisorVerdict::Hold { backoff_remaining } = check.verdict else {
            panic!("expected Hold, got {:?}", check.verdict);
        };
        assert!((backoff_remaining - 8.0).abs() < 1e-9);
        assert_eq!(sup.reselections(), 1);
        // After the window closes the move is advised again.
        let check = sup.check(25.0, &heavy, &placed, &own).unwrap();
        assert_eq!(
            check.verdict,
            SupervisorVerdict::Reselect { failure: false }
        );
        assert_eq!(sup.reselections(), 2);
    }

    #[test]
    fn flaky_region_grows_the_backoff_window() {
        let (snap, ids) = snap_star(5);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        sup.check(0.0, &snap, &placed, &own).unwrap();
        let kill = |n: NodeId, base: &NetSnapshot| {
            base.apply(&NetDelta {
                avail_nodes: vec![(n, false)],
                ..NetDelta::default()
            })
        };
        // Repeated failures inside each window: 10 → 20 → 40 (capped).
        sup.check(1.0, &kill(ids[0], &snap), &placed, &own).unwrap();
        assert!((sup.backoff_until() - 11.0).abs() < 1e-9);
        sup.check(2.0, &kill(ids[1], &snap), &placed, &own).unwrap();
        assert!((sup.backoff_until() - 22.0).abs() < 1e-9);
        sup.check(3.0, &kill(ids[0], &snap), &placed, &own).unwrap();
        assert!((sup.backoff_until() - 43.0).abs() < 1e-9);
        sup.check(4.0, &kill(ids[1], &snap), &placed, &own).unwrap();
        assert!((sup.backoff_until() - 44.0).abs() < 1e-9);
        assert_eq!(sup.failure_reselections(), 4);
        // A calm period resets the window to its base width.
        sup.check(100.0, &kill(ids[0], &snap), &placed, &own)
            .unwrap();
        assert!((sup.backoff_until() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn stale_clock_cannot_rewind_or_reset_backoff() {
        let (snap, ids) = snap_star(5);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        sup.check(0.0, &snap, &placed, &own).unwrap();
        let kill = |n: NodeId, base: &NetSnapshot| {
            base.apply(&NetDelta {
                avail_nodes: vec![(n, false)],
                ..NetDelta::default()
            })
        };
        // Two failures inside the window widen it: 10 → 20 (until 22).
        sup.check(1.0, &kill(ids[0], &snap), &placed, &own).unwrap();
        sup.check(2.0, &kill(ids[1], &snap), &placed, &own).unwrap();
        assert!((sup.backoff_until() - 22.0).abs() < 1e-9);
        // A stale clock (t=0, before the window) is clamped to the last
        // seen t=2: the failure still lands *inside* the window, so the
        // window keeps widening (20 → 40) instead of resetting to base —
        // which is what an unclamped `now=0` outside-the-window branch
        // would have done after the window closed.
        sup.check(0.0, &kill(ids[0], &snap), &placed, &own).unwrap();
        assert!(
            (sup.backoff_until() - 42.0).abs() < 1e-9,
            "stale clock reset the backoff: until = {}",
            sup.backoff_until()
        );
        // Quality moves consulted with a rewound clock stay held with the
        // remaining time measured from the clamped (latest) instant.
        let heavy = snap.apply(&NetDelta {
            nodes: vec![(ids[0], 4.0), (ids[1], 4.0)],
            ..NetDelta::default()
        });
        let check = sup.check(1.0, &heavy, &placed, &own).unwrap();
        let SupervisorVerdict::Hold { backoff_remaining } = check.verdict else {
            panic!("expected Hold, got {:?}", check.verdict);
        };
        assert!((backoff_remaining - 40.0).abs() < 1e-9);
        // Time resumes from the clamp, not from the stale reading.
        let check = sup.check(50.0, &heavy, &placed, &own).unwrap();
        assert!(matches!(check.verdict, SupervisorVerdict::Reselect { .. }));
    }

    #[test]
    fn too_many_failures_surface_as_select_error() {
        let (snap, ids) = snap_star(3);
        let placed = [ids[0], ids[1]];
        let own = OwnUsage::one_process_per_node(&placed);
        let mut sup = Supervisor::new(SelectionRequest::balanced(2), policy());
        sup.check(0.0, &snap, &placed, &own).unwrap();
        // Two of three leaves die: no 2-node placement exists.
        let down = snap.apply(&NetDelta {
            avail_nodes: vec![(ids[0], false), (ids[1], false)],
            ..NetDelta::default()
        });
        assert!(matches!(
            sup.check(5.0, &down, &placed, &own),
            Err(SelectError::NotEnoughNodes { .. })
        ));
        // Recovery on a later epoch works.
        let back = down.apply(&NetDelta {
            avail_nodes: vec![(ids[0], true), (ids[1], true)],
            ..NetDelta::default()
        });
        let check = sup.check(10.0, &back, &placed, &own).unwrap();
        assert_eq!(check.verdict, SupervisorVerdict::Healthy);
    }
}
