//! Two-level hierarchical selection: domains first, then nodes.
//!
//! The flat engines are near-linear, but near-linear over 100 000 nodes
//! is still milliseconds per call. A [`TwoLevelSelector`] splits the
//! work along a [`Hierarchy`]:
//!
//! 1. **Domain choice** on the aggregated inter-domain graph. Each
//!    domain is summarized by cheap per-node statistics (descending
//!    effective CPU, best incident available bandwidth, best incident
//!    fractional bandwidth of its available compute nodes), cached per
//!    snapshot epoch. Feasible domains (at least `m` eligible nodes)
//!    are ranked by the `m`-th best statistic for the request's
//!    objective — *scarcest-first* among ties (fewest eligible nodes
//!    first, preserving large domains for large requests), then by mean
//!    inter-domain latency from the [`RouteSketch`] (central domains
//!    first), then by id.
//! 2. **Node choice** runs the unmodified flat engine *inside* each
//!    probed domain through a [`NetMetrics`] adapter that maps the
//!    domain's extracted sub-topology onto the live snapshot metrics —
//!    the same monomorphic arithmetic, so a single-domain hierarchy
//!    reproduces the flat answer bit for bit (the selector simply runs
//!    the flat engine on the whole snapshot in that case, and for
//!    constrained requests, whose pinned/allowed sets are global).
//!
//! When no single domain can host the request, adjacent domains are
//! greedily merged along the widest trunks until the union can, and as
//! a last resort the flat engine runs on the whole snapshot — the
//! two-level path never *loses* answers, it only finds the common ones
//! faster.
//!
//! # Error bound
//!
//! Restricting a selection to one domain can miss a better cross-domain
//! set, so every two-level result carries a [`TwoLevelOutcome`] with a
//! sound upper bound on the flat optimum: the minimum over any chosen
//! set of a per-node statistic is at most the `m`-th largest value of
//! that statistic (a route's bottleneck is never better than either
//! endpoint's best incident link), and a set that must span domains is
//! further capped by the best boundary-link bandwidth.
//! `error_bound = upper_bound - achieved` therefore bounds the true
//! regret of the domain restriction; benches report it at sizes where
//! exact flat selection is still feasible.

use crate::algorithms::{select_in, ExtractNet, Selection};
use crate::request::{Objective, SelectionRequest};
use crate::selector::Selector;
use crate::SelectError;
use nodesel_topology::hierarchy::Extract;
use nodesel_topology::{Hierarchy, NetMetrics, NetSnapshot, RouteSketch, Topology};
use std::sync::Arc;

/// Tuning knobs for the two-level strategy.
#[derive(Debug, Clone)]
pub struct TwoLevelConfig {
    /// Number of top-ranked feasible domains to solve flat before
    /// keeping the best in-domain answer. More probes cost more flat
    /// solves per selection and recover more ranking mistakes.
    pub probe_domains: usize,
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        TwoLevelConfig { probe_domains: 2 }
    }
}

/// Diagnostics of one two-level solve (absent when the selector
/// delegated to a flat engine).
#[derive(Debug, Clone)]
pub struct TwoLevelOutcome {
    /// Objective value achieved by the returned selection, measured
    /// within the solved (sub-)topology: `min_cpu` for compute, `min_bw`
    /// for communication, the balanced score otherwise.
    pub achieved: f64,
    /// Sound upper bound on the flat optimum of the same objective.
    pub upper_bound: f64,
    /// `upper_bound - achieved`, clamped to zero: the reported cap on
    /// the regret of not having searched the whole graph.
    pub error_bound: f64,
    /// Domains solved flat, in probe order.
    pub probed: Vec<u16>,
    /// Whether the merge/whole-graph fallback produced the answer.
    pub merged: bool,
}

/// Per-domain selection statistics, recomputed per epoch (and only for
/// the domains a delta touches). Vectors are sorted descending over the
/// domain's *available* compute nodes, so the `m`-th entry of each is
/// both the ranking key and a sound per-domain optimum bound.
#[derive(Debug, Clone)]
struct DomainSummary {
    eligible: usize,
    cpu: Vec<f64>,
    inc_bw: Vec<f64>,
    inc_frac: Vec<f64>,
}

/// A [`Selector`] that places requests through a domain hierarchy.
///
/// On single-domain topologies and for constrained requests it runs the
/// flat engine and is bit-identical to it; otherwise it runs the
/// two-level strategy and exposes its diagnostics through
/// [`TwoLevelSelector::last_outcome`].
#[derive(Default)]
pub struct TwoLevelSelector {
    config: TwoLevelConfig,
    cache: Option<HierCache>,
    last: Option<TwoLevelSolve>,
}

/// Structure-keyed hierarchy state: rebuilt only when the snapshot's
/// structure `Arc` changes.
struct HierCache {
    structure: Arc<Topology>,
    hier: Hierarchy,
    /// Mean inter-domain latency per domain (static: latencies are
    /// structure, not metrics).
    mean_lat: Vec<f64>,
}

/// What the last two-level solve leaves behind: the epoch's domain
/// summaries (reusable while only the request changes) and the outcome.
/// Dropped with the [`HierCache`] it was computed under.
struct TwoLevelSolve {
    epoch: u64,
    reference_bandwidth: Option<f64>,
    summaries: Vec<DomainSummary>,
    outcome: Option<TwoLevelOutcome>,
}

impl TwoLevelSelector {
    /// A selector with the default [`TwoLevelConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A selector with explicit tuning.
    pub fn with_config(config: TwoLevelConfig) -> Self {
        TwoLevelSelector {
            config,
            cache: None,
            last: None,
        }
    }

    /// Diagnostics of the last `select`, when the two-level path ran and
    /// succeeded (`None` after a flat solve or an error).
    pub fn last_outcome(&self) -> Option<&TwoLevelOutcome> {
        self.last.as_ref()?.outcome.as_ref()
    }

    /// Number of domains in the current hierarchy, once one is built.
    pub fn num_domains(&self) -> Option<u16> {
        self.cache.as_ref().map(|c| c.hier.num_domains())
    }

    fn ensure_cache(&mut self, snap: &NetSnapshot) {
        let structure = snap.structure_arc();
        if self
            .cache
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(&c.structure, structure))
        {
            return;
        }
        let hier = Hierarchy::new(structure);
        let sketch = RouteSketch::build(&hier, snap);
        let mean_lat = (0..hier.num_domains())
            .map(|d| sketch.mean_inter_latency(d))
            .collect();
        self.last = None;
        self.cache = Some(HierCache {
            structure: Arc::clone(structure),
            hier,
            mean_lat,
        });
    }
}

impl Selector for TwoLevelSelector {
    fn select(
        &mut self,
        snap: &NetSnapshot,
        request: &SelectionRequest,
    ) -> Result<Selection, SelectError> {
        self.ensure_cache(snap);
        let cache = self.cache.as_ref().expect("cache just ensured");
        if cache.hier.num_domains() == 1 || !request.constraints.is_empty() {
            // Degenerate or constrained: the flat engine is both bit-exact
            // and already near-linear at domain scale.
            self.last = None;
            return select_in(snap, request);
        }
        // Reuse the epoch's summaries when only the request changed.
        let summaries = match self.last.take() {
            Some(p)
                if p.epoch == snap.epoch()
                    && p.reference_bandwidth == request.reference_bandwidth =>
            {
                p.summaries
            }
            _ => summarize_all(&cache.hier, snap, request.reference_bandwidth),
        };
        let (result, outcome) = solve_two_level(cache, &summaries, &self.config, snap, request);
        self.last = Some(TwoLevelSolve {
            epoch: snap.epoch(),
            reference_bandwidth: request.reference_bandwidth,
            summaries,
            outcome,
        });
        result
    }
}

/// Below this many domains the per-domain summaries are built on the
/// calling thread: the spawn overhead would dominate the scans.
const PARALLEL_SUMMARY_THRESHOLD: usize = 32;

/// Summaries for every domain, from scratch. Domains are independent, so
/// the scans fan out over the machine's available parallelism
/// ([`nodesel_topology::fan_out`] keeps slot order, making the result
/// identical to the serial loop).
fn summarize_all(
    hier: &Hierarchy,
    net: &NetSnapshot,
    reference: Option<f64>,
) -> Vec<DomainSummary> {
    let k = hier.num_domains() as usize;
    let workers = if k >= PARALLEL_SUMMARY_THRESHOLD {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(k)
    } else {
        1
    };
    nodesel_topology::fan_out(k, workers, |d| {
        summarize_domain(hier, d as u16, net, reference)
    })
}

/// One domain's statistics under the current metrics. Eligibility here
/// mirrors [`crate::algorithms`] for an unconstrained request: a compute
/// node that is reported available (constrained requests never reach the
/// two-level path).
fn summarize_domain(
    hier: &Hierarchy,
    d: u16,
    net: &NetSnapshot,
    reference: Option<f64>,
) -> DomainSummary {
    let dom = hier.domain(d);
    let structure = net.structure();
    let mut cpu = Vec::with_capacity(dom.computes().len());
    let mut inc_bw = Vec::with_capacity(dom.computes().len());
    let mut inc_frac = Vec::with_capacity(dom.computes().len());
    for &n in dom.computes() {
        if !net.node_available(n) {
            continue;
        }
        cpu.push(net.effective_cpu(n));
        let mut best_bw = 0.0f64;
        let mut best_frac = 0.0f64;
        for &(e, _) in structure.neighbors(n) {
            let bw = net.bw(e);
            best_bw = best_bw.max(bw);
            best_frac = best_frac.max(match reference {
                Some(r) => bw / r,
                None => net.bwfactor(e),
            });
        }
        inc_bw.push(best_bw);
        inc_frac.push(best_frac);
    }
    let desc = |v: &mut Vec<f64>| v.sort_unstable_by(|a, b| b.total_cmp(a));
    desc(&mut cpu);
    desc(&mut inc_bw);
    desc(&mut inc_frac);
    DomainSummary {
        eligible: cpu.len(),
        cpu,
        inc_bw,
        inc_frac,
    }
}

/// The `m`-th-best ranking key of a feasible domain for the objective.
fn domain_key(objective: Objective, s: &DomainSummary, m: usize) -> f64 {
    match objective {
        Objective::Compute => s.cpu[m - 1],
        Objective::Communication => s.inc_bw[m - 1],
        Objective::Balanced(w) => (s.cpu[m - 1] / w.compute).min(s.inc_frac[m - 1] / w.comm),
    }
}

/// Feasible domains in probe order: best key first, scarcest (fewest
/// eligible) first on ties, then central (lowest mean inter-domain
/// latency), then lowest id — all total orders, so the ranking is
/// deterministic.
fn rank_domains(
    request: &SelectionRequest,
    summaries: &[DomainSummary],
    mean_lat: &[f64],
) -> Vec<u16> {
    let m = request.count;
    let mut ranked: Vec<(u16, f64)> = summaries
        .iter()
        .enumerate()
        .filter(|(_, s)| s.eligible >= m)
        .map(|(d, s)| (d as u16, domain_key(request.objective, s, m)))
        .collect();
    ranked.sort_by(|&(da, ka), &(db, kb)| {
        kb.total_cmp(&ka)
            .then_with(|| {
                summaries[da as usize]
                    .eligible
                    .cmp(&summaries[db as usize].eligible)
            })
            .then_with(|| mean_lat[da as usize].total_cmp(&mean_lat[db as usize]))
            .then(da.cmp(&db))
    });
    ranked.into_iter().map(|(d, _)| d).collect()
}

/// Flat solve inside an extract, mapped back to global node ids (local
/// ascending order maps to global ascending order by construction).
fn solve_in_extract(
    snap: &NetSnapshot,
    ext: &Extract,
    request: &SelectionRequest,
) -> Result<Selection, SelectError> {
    let net = ExtractNet { net: snap, ext };
    let mut sel = select_in(&net, request)?;
    sel.nodes = sel.nodes.iter().map(|n| ext.nodes[n.index()]).collect();
    Ok(sel)
}

/// The objective value a selection achieved.
fn objective_value(objective: Objective, sel: &Selection) -> f64 {
    match objective {
        Objective::Compute => sel.quality.min_cpu,
        Objective::Communication => sel.quality.min_bw,
        Objective::Balanced(_) => sel.score,
    }
}

/// Sound upper bound on the flat optimum: the minimum over any `m`-set
/// of a per-node statistic is at most the `m`-th largest value of that
/// statistic over the whole graph (for bandwidth, a route's bottleneck
/// is capped by either endpoint's best incident link), and when no
/// single domain is feasible every set spans a boundary, capping
/// bandwidth terms at the best boundary link.
fn upper_bound(
    request: &SelectionRequest,
    summaries: &[DomainSummary],
    hier: &Hierarchy,
    net: &NetSnapshot,
    single_feasible: bool,
) -> f64 {
    let m = request.count;
    let mth = |field: fn(&DomainSummary) -> &[f64]| -> f64 {
        let mut all: Vec<f64> = summaries
            .iter()
            .flat_map(|s| field(s).iter().take(m).copied())
            .collect();
        if all.len() < m {
            return f64::NEG_INFINITY;
        }
        // O(k·m) selection of the m-th largest: a full sort here is the
        // dominant per-select cost at thousands of domains.
        *all.select_nth_unstable_by(m - 1, |a, b| b.total_cmp(a)).1
    };
    let best_boundary = |frac: bool| -> f64 {
        hier.boundary_links()
            .iter()
            .map(|&e| {
                if !frac {
                    net.bw(e)
                } else {
                    match request.reference_bandwidth {
                        Some(r) => net.bw(e) / r,
                        None => net.bwfactor(e),
                    }
                }
            })
            .fold(0.0, f64::max)
    };
    match request.objective {
        Objective::Compute => mth(|s| &s.cpu),
        Objective::Communication => {
            if m == 1 {
                // A singleton has no pairs: min_bw is vacuously infinite.
                return f64::INFINITY;
            }
            let mut ub = mth(|s| &s.inc_bw);
            if !single_feasible {
                ub = ub.min(best_boundary(false));
            }
            ub
        }
        Objective::Balanced(w) => {
            let cpu_term = mth(|s| &s.cpu) / w.compute;
            // `min_bwfraction` starts at 1.0 and only decreases, so 1.0
            // caps the fraction term; a singleton keeps it exactly there.
            let frac = if m == 1 {
                1.0
            } else {
                let mut f = mth(|s| &s.inc_frac);
                if !single_feasible {
                    f = f.min(best_boundary(true));
                }
                f.min(1.0)
            };
            cpu_term.min(frac / w.comm)
        }
    }
}

/// Greedy domain merging: start from the domain with the most eligible
/// nodes, repeatedly annex the aggregate-adjacent domain behind the
/// widest trunk, and try a flat solve on the union whenever it could
/// host the request. Falls back to the whole snapshot when the
/// reachable union never suffices (e.g. a disconnected aggregate).
fn solve_merged(
    cache: &HierCache,
    summaries: &[DomainSummary],
    snap: &NetSnapshot,
    request: &SelectionRequest,
) -> Result<Selection, SelectError> {
    let hier = &cache.hier;
    let k = hier.num_domains() as usize;
    let start = (0..k)
        .max_by(|&a, &b| {
            summaries[a]
                .eligible
                .cmp(&summaries[b].eligible)
                .then(b.cmp(&a))
        })
        .expect("at least one domain");
    let mut in_set = vec![false; k];
    in_set[start] = true;
    let mut set: Vec<u16> = vec![start as u16];
    let mut eligible = summaries[start].eligible;
    loop {
        if eligible >= request.count && set.len() > 1 {
            let ext = hier.merged(&cache.structure, &set);
            if let Ok(sel) = solve_in_extract(snap, &ext, request) {
                return Ok(sel);
            }
        }
        // Widest trunk leaving the current set (first such edge on ties,
        // for determinism).
        let mut best: Option<(f64, u16)> = None;
        for e in hier.aggregate().edges() {
            let (ina, inb) = (in_set[e.a as usize], in_set[e.b as usize]);
            if ina == inb {
                continue;
            }
            let next = if ina { e.b } else { e.a };
            let bw = e.best_bw(snap);
            if best.is_none_or(|(bbw, _)| bw > bbw) {
                best = Some((bw, next));
            }
        }
        match best {
            Some((_, next)) => {
                in_set[next as usize] = true;
                set.push(next);
                eligible += summaries[next as usize].eligible;
            }
            None => break,
        }
    }
    select_in(snap, request)
}

/// One full two-level solve over cached hierarchy state.
fn solve_two_level(
    cache: &HierCache,
    summaries: &[DomainSummary],
    config: &TwoLevelConfig,
    snap: &NetSnapshot,
    request: &SelectionRequest,
) -> (Result<Selection, SelectError>, Option<TwoLevelOutcome>) {
    let ranked = rank_domains(request, summaries, &cache.mean_lat);
    let mut probed = Vec::new();
    let mut best: Option<(Selection, f64)> = None;
    for &d in ranked.iter().take(config.probe_domains.max(1)) {
        probed.push(d);
        let ext = cache.hier.domain(d).extract();
        if let Ok(sel) = solve_in_extract(snap, ext, request) {
            let value = objective_value(request.objective, &sel);
            if best.as_ref().is_none_or(|&(_, b)| value > b) {
                best = Some((sel, value));
            }
        }
    }
    let merged = best.is_none();
    let result = match best {
        Some((sel, _)) => Ok(sel),
        None => solve_merged(cache, summaries, snap, request),
    };
    let outcome = result.as_ref().ok().map(|sel| {
        let achieved = objective_value(request.objective, sel);
        let ub = upper_bound(request, summaries, &cache.hier, snap, !ranked.is_empty());
        let error_bound = if achieved >= ub { 0.0 } else { ub - achieved };
        TwoLevelOutcome {
            achieved,
            upper_bound: ub,
            error_bound,
            probed: probed.clone(),
            merged,
        }
    });
    (result, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SelectionRequest;
    use crate::selector::selector_for;
    use nodesel_topology::builders::hierarchical;
    use nodesel_topology::units::MBPS;
    use nodesel_topology::{Direction, NetDelta};

    fn conditioned(domains: usize, hosts: usize) -> NetSnapshot {
        let (mut t, hosts_by_domain) =
            hierarchical(domains, hosts, 100.0 * MBPS, 40.0 * MBPS, 2e-3);
        for (d, members) in hosts_by_domain.iter().enumerate() {
            for (i, &h) in members.iter().enumerate() {
                t.set_load_avg(h, ((d * 7 + i * 3) % 11) as f64 * 0.35);
            }
        }
        for (i, e) in t.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            let cap = t.link(e).capacity(Direction::AtoB);
            t.set_link_used(e, Direction::AtoB, cap * ((i % 7) as f64) * 0.1);
        }
        NetSnapshot::capture(Arc::new(t))
    }

    #[test]
    fn selects_within_one_domain_when_possible() {
        let snap = conditioned(4, 6);
        let mut sel = TwoLevelSelector::new();
        for request in [
            SelectionRequest::compute(3),
            SelectionRequest::communication(3),
            SelectionRequest::balanced(3),
        ] {
            let s = sel.select(&snap, &request).unwrap();
            assert_eq!(s.nodes.len(), 3);
            let outcome = sel.last_outcome().unwrap();
            assert!(!outcome.merged, "4 domains of 6 hosts fit m=3 directly");
            assert!(outcome.error_bound >= 0.0);
            assert!(outcome.achieved <= outcome.upper_bound + 1e-9);
            // All chosen nodes share a domain.
            let hier = Hierarchy::new(snap.structure_arc());
            let d0 = hier.domain_of(s.nodes[0]);
            assert!(s.nodes.iter().all(|&n| hier.domain_of(n) == d0));
        }
    }

    #[test]
    fn merges_domains_for_oversized_requests() {
        let snap = conditioned(3, 4);
        let mut sel = TwoLevelSelector::new();
        // m=9 > 4 hosts per domain: must merge across trunks.
        let s = sel
            .select(&snap, &SelectionRequest::communication(9))
            .unwrap();
        assert_eq!(s.nodes.len(), 9);
        assert!(sel.last_outcome().unwrap().merged);
        // Cross-domain min bandwidth is trunk-capped.
        assert!(s.quality.min_bw <= 40.0 * MBPS);
    }

    #[test]
    fn summaries_are_reused_within_an_epoch_only() {
        let snap = conditioned(4, 5);
        let request = SelectionRequest::balanced(3);
        let mut sel = TwoLevelSelector::new();
        let first = sel.select(&snap, &request).unwrap();
        // Same epoch, different request: answered from the kept summaries,
        // exactly as a new selector would.
        let other = SelectionRequest::compute(2);
        assert_eq!(
            sel.select(&snap, &other),
            TwoLevelSelector::new().select(&snap, &other)
        );
        // Load churn on the chosen nodes: the next epoch's answer equals a
        // new selector's and moves off them.
        let next = snap.apply(&NetDelta {
            nodes: first.nodes.iter().map(|&n| (n, 5.0)).collect(),
            ..NetDelta::default()
        });
        let moved = sel.select(&next, &request).unwrap();
        let fresh = TwoLevelSelector::new().select(&next, &request).unwrap();
        assert_eq!(moved, fresh);
        assert!(moved.nodes.iter().all(|n| !first.nodes.contains(n)));
    }

    #[test]
    fn single_domain_is_bit_identical_to_flat() {
        // One domain: the selector must delegate and agree exactly.
        let snap = conditioned(1, 8);
        for request in [
            SelectionRequest::compute(3),
            SelectionRequest::communication(3),
            SelectionRequest::balanced(3),
        ] {
            let mut two = TwoLevelSelector::new();
            let mut flat = selector_for(request.objective);
            assert_eq!(two.select(&snap, &request), flat.select(&snap, &request));
            assert!(two.last_outcome().is_none(), "delegation has no outcome");
        }
    }

    #[test]
    fn constrained_requests_delegate_to_flat() {
        let snap = conditioned(3, 4);
        let some_node = Hierarchy::new(snap.structure_arc()).domain(1).computes()[0];
        let mut request = SelectionRequest::balanced(3);
        request.constraints.required = vec![some_node];
        let mut two = TwoLevelSelector::new();
        let mut flat = selector_for(request.objective);
        assert_eq!(two.select(&snap, &request), flat.select(&snap, &request));
        assert!(two.last_outcome().is_none());
    }
}
