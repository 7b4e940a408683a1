//! The placement ledger: admitted jobs and their resource claims.
//!
//! A [`PlacementLedger`] is the registry behind the service's
//! `admit`/`release` lifecycle. Each admitted job records the
//! [`SelectionRequest`] it was solved for, the nodes it received, a
//! [`ResourceDemand`] (how much CPU and bandwidth the job is *declared*
//! to consume), and the derived [`ResourceClaim`] charged against the
//! shared [`LedgerState`]. The aggregate state is what
//! [`LedgerState::to_delta`] adds onto the raw snapshot to materialize
//! the residual one, so the next admission is solved against capacity
//! that is genuinely still free.
//!
//! Every mutation bumps a **ledger version**. Versions extend the cache
//! key exactly like epochs extend it for measurement churn: an answer is
//! valid for one `(epoch, version)` pair, and a version bump carries a
//! touched-entity delta so footprint intersection can keep every cached
//! answer the change provably cannot move.

use crate::error::ServiceError;
use nodesel_core::{SelectionRequest, Supervisor};
use nodesel_topology::{LedgerState, NetSnapshot, NodeId, ResourceClaim, Topology};
use std::collections::BTreeMap;

/// Opaque handle to an admitted job, returned by admission and consumed
/// by `release`/`supervise`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub(crate) u64);

/// The declared resource appetite of one job: what admission charges
/// against the residual network on the job's behalf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceDemand {
    /// Load average each placed task adds to its node (1.0 ≙ one
    /// fully-busy process, the classic `cpu = 1/(1+loadavg)` unit).
    pub cpu_load: f64,
    /// Bandwidth, bits/s, each pair of placed tasks exchanges (charged in
    /// both directions along the pair's route).
    pub pair_bandwidth: f64,
}

impl ResourceDemand {
    /// The demand implied by `request`: one busy process per placed
    /// task, and the request's `reference_bandwidth` as the pairwise
    /// traffic estimate (zero when absent or non-finite — the request
    /// declared no bandwidth appetite).
    pub fn from_request(request: &SelectionRequest) -> ResourceDemand {
        ResourceDemand {
            cpu_load: 1.0,
            pair_bandwidth: request
                .reference_bandwidth
                .filter(|b| b.is_finite() && *b > 0.0)
                .unwrap_or(0.0),
        }
    }

    /// Rejects non-finite or negative magnitudes — caller input the
    /// ledger must not aggregate (a NaN would poison every residual
    /// metric it touches).
    pub fn validate(&self) -> Result<(), ServiceError> {
        if !self.cpu_load.is_finite() || self.cpu_load < 0.0 {
            return Err(ServiceError::InvalidDemand {
                field: "cpu_load",
                value: self.cpu_load,
            });
        }
        if !self.pair_bandwidth.is_finite() || self.pair_bandwidth < 0.0 {
            return Err(ServiceError::InvalidDemand {
                field: "pair_bandwidth",
                value: self.pair_bandwidth,
            });
        }
        Ok(())
    }
}

/// One admitted job's ledger entry.
pub(crate) struct JobEntry {
    /// The request the job was admitted with (re-used by supervision).
    pub request: SelectionRequest,
    /// The declared demand the claim was derived from.
    pub demand: ResourceDemand,
    /// The nodes the job currently occupies.
    pub nodes: Vec<NodeId>,
    /// Lazily-created supervisor driving re-selection for this job.
    pub supervisor: Option<Supervisor>,
}

/// The registry of admitted placements (see the module docs).
#[derive(Default)]
pub struct PlacementLedger {
    next_id: u64,
    jobs: BTreeMap<u64, JobEntry>,
    state: LedgerState,
    version: u64,
}

impl PlacementLedger {
    /// An empty ledger at version 0.
    pub fn new() -> PlacementLedger {
        PlacementLedger::default()
    }

    /// The current ledger version; bumped by every admit, release, and
    /// supervised move.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of admitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no job is admitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The aggregate claim state a residual view subtracts.
    pub fn state(&self) -> &LedgerState {
        &self.state
    }

    /// Handles of every admitted job, ascending by admission order — the
    /// sweep order of [`crate::PlacementService::reconcile`].
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.keys().map(|&id| JobId(id)).collect()
    }

    /// Records an admitted placement: derives the claim from `nodes` and
    /// `demand` on `structure`, charges it, and bumps the version.
    /// Returns the job handle and the charged claim (for cache
    /// invalidation).
    pub(crate) fn admit(
        &mut self,
        request: SelectionRequest,
        demand: ResourceDemand,
        nodes: Vec<NodeId>,
        structure: &Topology,
    ) -> (JobId, ResourceClaim) {
        let claim =
            ResourceClaim::for_placement(structure, &nodes, demand.cpu_load, demand.pair_bandwidth);
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobEntry {
                request,
                demand,
                nodes,
                supervisor: None,
            },
        );
        self.state.insert(id, claim.clone());
        self.version += 1;
        (JobId(id), claim)
    }

    /// Releases `job`, un-charging its claim and bumping the version.
    /// Returns the released claim (for cache invalidation).
    pub(crate) fn release(&mut self, job: JobId) -> Result<ResourceClaim, ServiceError> {
        if self.jobs.remove(&job.0).is_none() {
            return Err(ServiceError::UnknownJob(job));
        }
        // `unwrap_or_default` is accounting, not an assert: a rebind may
        // have dropped this job's claim to empty (vanished nodes), and
        // releasing an empty claim un-charges nothing, correctly.
        let claim = self.state.remove(job.0).unwrap_or_default();
        self.version += 1;
        Ok(claim)
    }

    /// The entry of `job`, for supervision.
    pub(crate) fn entry_mut(&mut self, job: JobId) -> Result<&mut JobEntry, ServiceError> {
        self.jobs
            .get_mut(&job.0)
            .ok_or(ServiceError::UnknownJob(job))
    }

    /// The nodes `job` currently occupies.
    pub fn nodes(&self, job: JobId) -> Result<&[NodeId], ServiceError> {
        self.jobs
            .get(&job.0)
            .map(|e| e.nodes.as_slice())
            .ok_or(ServiceError::UnknownJob(job))
    }

    /// Atomically moves `job` to `nodes`: re-derives its claim, swaps it
    /// in the aggregate state, and bumps the version **once** — so no
    /// interleaving can observe the job both vacated and re-placed
    /// (double-counted) or neither. Returns `(old, new)` claims, whose
    /// union the cache must treat as touched.
    pub(crate) fn move_job(
        &mut self,
        job: JobId,
        nodes: Vec<NodeId>,
        structure: &Topology,
    ) -> Result<(ResourceClaim, ResourceClaim), ServiceError> {
        let entry = self
            .jobs
            .get_mut(&job.0)
            .ok_or(ServiceError::UnknownJob(job))?;
        let new_claim = ResourceClaim::for_placement(
            structure,
            &nodes,
            entry.demand.cpu_load,
            entry.demand.pair_bandwidth,
        );
        entry.nodes = nodes;
        // `unwrap_or_default` is accounting, not an assert: a rebind may
        // have dropped this job's claim to empty (vanished nodes), and
        // an empty old claim un-charges nothing, correctly.
        let old_claim = self.state.claim(job.0).cloned().unwrap_or_default();
        // One insert replaces the old claim under the same id; the
        // aggregate recompute inside is the atomic swap.
        self.state.insert(job.0, new_claim.clone());
        self.version += 1;
        Ok((old_claim, new_claim))
    }

    /// The delta that materializes the residual network of everyone
    /// *except* `job` onto `snap` — what `job`'s own re-selection must be
    /// solved against (its claim must not repel its re-placement).
    pub(crate) fn residual_delta_excluding(
        &self,
        snap: &NetSnapshot,
        job: JobId,
    ) -> nodesel_topology::NetDelta {
        self.state.to_delta_excluding(snap, job.0)
    }

    /// Re-derives every claim after a structural change: placements
    /// whose nodes survived in the new structure are re-charged along
    /// its routes; placements referencing vanished entities drop to an
    /// empty claim (their owners will fail supervision and re-select or
    /// release). Bumps the version.
    pub(crate) fn rebind(&mut self, structure: &Topology) {
        let jobs = &self.jobs;
        self.state.rebind(structure, |id| {
            let entry = jobs.get(&id)?;
            let in_range = entry
                .nodes
                .iter()
                .all(|n| n.index() < structure.node_count());
            in_range.then(|| {
                ResourceClaim::for_placement(
                    structure,
                    &entry.nodes,
                    entry.demand.cpu_load,
                    entry.demand.pair_bandwidth,
                )
            })
        });
        self.version += 1;
    }
}

impl std::fmt::Debug for PlacementLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementLedger")
            .field("jobs", &self.jobs.len())
            .field("version", &self.version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;

    fn demand(bw: f64) -> ResourceDemand {
        ResourceDemand {
            cpu_load: 1.0,
            pair_bandwidth: bw,
        }
    }

    #[test]
    fn admit_release_round_trip() {
        let (topo, ids) = star(4, 100.0 * MBPS);
        let mut ledger = PlacementLedger::new();
        let (job, claim) = ledger.admit(
            SelectionRequest::balanced(2),
            demand(5.0 * MBPS),
            ids[..2].to_vec(),
            &topo,
        );
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.version(), 1);
        assert!(!claim.is_empty());
        assert_eq!(ledger.nodes(job).unwrap(), &ids[..2]);
        let released = ledger.release(job).unwrap();
        assert_eq!(released, claim);
        assert!(ledger.is_empty());
        assert!(ledger.state().is_invisible());
        assert_eq!(ledger.version(), 2);
        assert_eq!(ledger.release(job), Err(ServiceError::UnknownJob(job)));
    }

    #[test]
    fn move_bumps_version_once_and_swaps_claims() {
        let (topo, ids) = star(5, 100.0 * MBPS);
        let mut ledger = PlacementLedger::new();
        let (job, old) = ledger.admit(
            SelectionRequest::balanced(2),
            demand(2.0 * MBPS),
            ids[..2].to_vec(),
            &topo,
        );
        let before = ledger.version();
        let (vacated, occupied) = ledger.move_job(job, ids[2..4].to_vec(), &topo).unwrap();
        assert_eq!(ledger.version(), before + 1);
        assert_eq!(vacated, old);
        assert_eq!(ledger.nodes(job).unwrap(), &ids[2..4]);
        // The aggregate holds exactly the new claim: no double-count.
        let mut fresh = PlacementLedger::new();
        fresh.admit(
            SelectionRequest::balanced(2),
            demand(2.0 * MBPS),
            ids[2..4].to_vec(),
            &topo,
        );
        for &(n, amount) in &occupied.nodes {
            assert_eq!(ledger.state().extra_load(n), Some(amount));
            assert_eq!(fresh.state().extra_load(n), Some(amount));
        }
        for &(n, _) in &vacated.nodes {
            assert_eq!(ledger.state().extra_load(n), None);
        }
    }

    #[test]
    fn demand_validation_rejects_nan_and_negatives() {
        assert!(demand(1.0).validate().is_ok());
        assert!(demand(0.0).validate().is_ok());
        assert!(matches!(
            demand(f64::NAN).validate(),
            Err(ServiceError::InvalidDemand {
                field: "pair_bandwidth",
                ..
            })
        ));
        assert!(matches!(
            ResourceDemand {
                cpu_load: -1.0,
                pair_bandwidth: 0.0
            }
            .validate(),
            Err(ServiceError::InvalidDemand {
                field: "cpu_load",
                ..
            })
        ));
    }

    #[test]
    fn from_request_takes_reference_bandwidth() {
        let mut r = SelectionRequest::balanced(2);
        assert_eq!(ResourceDemand::from_request(&r).pair_bandwidth, 0.0);
        r.reference_bandwidth = Some(3.0 * MBPS);
        assert_eq!(ResourceDemand::from_request(&r).pair_bandwidth, 3.0 * MBPS);
        r.reference_bandwidth = Some(f64::INFINITY);
        assert_eq!(ResourceDemand::from_request(&r).pair_bandwidth, 0.0);
    }
}
