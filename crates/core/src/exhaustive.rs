//! Exhaustive (brute-force) selection: ground truth for small graphs.
//!
//! Enumerates every `m`-subset of eligible compute nodes, evaluates the
//! exact pairwise [`Quality`](crate::Quality), and returns the best. The
//! naive cost is `O(C(n, m) · m²)` route walks; [`exhaustive_select`]
//! keeps the same answer but makes the search practical on somewhat larger
//! graphs by combining
//!
//! * a [`PairwiseCache`] so each candidate pair's route is walked once,
//! * incremental prefix evaluation over the in-place [`Combinations`]
//!   cursor — advancing position `k` re-evaluates only levels `k..m`,
//! * best-so-far pruning: every objective is monotone nonincreasing as a
//!   prefix grows, so a prefix that cannot beat the current best (or that
//!   contains a disconnected pair or violates a bandwidth floor) discards
//!   its whole subtree via [`Combinations::advance_from`], and
//! * a chunked scoped-thread fan-out over the first subset element, with a
//!   shared atomic best-so-far tightening every worker's pruning bound.
//!
//! `exhaustive_select_reference` (exported under the `oracle` feature
//! only) is the original single-thread, unpruned oracle; the property
//! tests assert the two agree on the full
//! [`Selection`](crate::Selection), including tie-breaking toward the
//! lexicographically smallest node set.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::quality::{evaluate, PairwiseCache};
use crate::request::Constraints;
use crate::weights::Weights;
use crate::{SelectError, Selection};
use nodesel_topology::{NodeId, Routes, Topology};

/// What the brute-force search should maximize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExhaustiveObjective {
    /// Minimum effective CPU of the set.
    MinCpu,
    /// Minimum pairwise available bandwidth (bits/s).
    MinBandwidth,
    /// Balanced score under the given weights.
    Balanced(Weights),
}

/// `C(n, k)` computed in `u128` with saturation, so size hints stay
/// overflow-safe for any pool the oracle could conceivably be pointed at.
fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut r: u128 = 1;
    for i in 1..=k {
        // Multiply before dividing: the intermediate product of a running
        // binomial by its next factor is always divisible by `i`.
        let f = (n - k + i) as u128;
        r = match r.checked_mul(f) {
            Some(x) => x / i as u128,
            None => return u128::MAX,
        };
    }
    r
}

/// Iterator over all `m`-combinations of `0..n` in lexicographic order.
///
/// Besides the allocating [`Iterator`] interface, the cursor can be driven
/// in place: [`Combinations::current`] exposes the live index slice and
/// [`Combinations::advance`] / [`Combinations::advance_from`] step it —
/// the latter skipping the entire subtree sharing the current prefix,
/// which is what the oracle's pruning hooks into.
pub struct Combinations {
    n: usize,
    idx: Vec<usize>,
    done: bool,
}

impl Combinations {
    /// Creates the iterator; yields nothing when `m > n`.
    pub fn new(n: usize, m: usize) -> Self {
        Combinations {
            n,
            idx: (0..m).collect(),
            done: m > n,
        }
    }

    /// The combination the cursor is on, or `None` when exhausted.
    pub fn current(&self) -> Option<&[usize]> {
        if self.done {
            None
        } else {
            Some(&self.idx)
        }
    }

    /// Steps to the next combination in place. Returns the lowest position
    /// whose index changed, or `None` when the sequence is exhausted.
    pub fn advance(&mut self) -> Option<usize> {
        match self.idx.len() {
            0 => {
                self.done = true;
                None
            }
            m => self.advance_from(m - 1),
        }
    }

    /// Steps past every remaining combination sharing the current prefix
    /// `..=pos` — the pruning move: when a prefix is already hopeless, its
    /// whole subtree is skipped in O(m). Returns like
    /// [`Combinations::advance`].
    pub fn advance_from(&mut self, pos: usize) -> Option<usize> {
        if self.done {
            return None;
        }
        let m = self.idx.len();
        if m == 0 {
            self.done = true;
            return None;
        }
        debug_assert!(pos < m);
        let mut i = pos + 1;
        while i > 0 {
            i -= 1;
            if self.idx[i] < self.n - (m - i) {
                self.idx[i] += 1;
                for j in i + 1..m {
                    self.idx[j] = self.idx[j - 1] + 1;
                }
                return Some(i);
            }
        }
        self.done = true;
        None
    }

    /// Combinations not yet yielded (the current one included), saturating
    /// at `u128::MAX`.
    pub fn remaining(&self) -> u128 {
        if self.done {
            return 0;
        }
        let m = self.idx.len();
        // Rank of the current combination = how many precede it.
        let mut rank: u128 = 0;
        let mut prev = 0usize;
        for (i, &v) in self.idx.iter().enumerate() {
            for j in prev..v {
                rank = rank.saturating_add(binomial(self.n - 1 - j, m - 1 - i));
            }
            prev = v + 1;
        }
        binomial(self.n, m).saturating_sub(rank)
    }

    /// Drives the cursor to exhaustion, passing each combination to `f`
    /// without allocating per item.
    pub fn visit(mut self, mut f: impl FnMut(&[usize])) {
        if self.done {
            return;
        }
        loop {
            f(&self.idx);
            if self.advance().is_none() {
                break;
            }
        }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.current()?.to_vec();
        self.advance();
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match usize::try_from(self.remaining()) {
            Ok(r) => (r, Some(r)),
            Err(_) => (usize::MAX, None),
        }
    }
}

/// Exact only while `C(n, m)` fits a `usize`; `len()` panics beyond that.
impl ExactSizeIterator for Combinations {}

/// Aggregates of a subset prefix: every field is monotone nonincreasing
/// (`matched` aside) as elements are appended, which is what makes
/// best-so-far pruning sound.
#[derive(Clone, Copy)]
struct Prefix {
    min_cpu: f64,
    min_bw: f64,
    min_frac: f64,
    /// Required pool indices already contained in the prefix (required
    /// indices are sorted, and prefixes are ascending, so this is a simple
    /// merge position).
    matched: usize,
}

fn prefix_value(objective: ExhaustiveObjective, p: &Prefix) -> f64 {
    match objective {
        ExhaustiveObjective::MinCpu => p.min_cpu,
        ExhaustiveObjective::MinBandwidth => p.min_bw,
        ExhaustiveObjective::Balanced(w) => (p.min_cpu / w.compute).min(p.min_frac / w.comm),
    }
}

/// Scans every `m`-subset whose smallest pool index is `first`, returning
/// the best (value, pool indices) candidate — the *first* best in
/// lexicographic order, so per-worker results merge deterministically.
///
/// `shared` holds the bit pattern of the best value found by any worker so
/// far (monotone `fetch_max`; sound because all objective values are
/// nonnegative, where the IEEE-754 bit order matches the value order). A
/// prefix strictly below it can be pruned even before the local best
/// catches up — strictly, because an equal-valued candidate from an
/// earlier range must still win the tie.
#[allow(clippy::too_many_arguments)]
fn scan_first(
    cache: &PairwiseCache,
    objective: ExhaustiveObjective,
    floor: Option<f64>,
    required: &[usize],
    first: usize,
    m: usize,
    shared: &AtomicU64,
) -> Option<(f64, Vec<usize>)> {
    let shared_best = || f64::from_bits(shared.load(Ordering::Relaxed));
    let root = Prefix {
        min_cpu: cache.cpu(first),
        min_bw: f64::INFINITY,
        min_frac: 1.0,
        matched: usize::from(required.first() == Some(&first)),
    };
    // A required index below `first` can never appear in this range.
    if root.matched < required.len() && first > required[root.matched] {
        return None;
    }
    if m == 1 {
        if root.matched < required.len() {
            return None;
        }
        let value = prefix_value(objective, &root);
        if value < shared_best() {
            return None;
        }
        shared.fetch_max(value.to_bits(), Ordering::Relaxed);
        return Some((value, vec![first]));
    }
    if prefix_value(objective, &root) < shared_best() {
        return None;
    }
    let mut levels = vec![root; m];
    let mut inner = Combinations::new(cache.len() - first - 1, m - 1);
    let mut local: Option<(f64, Vec<usize>)> = None;
    let mut dirty = 0usize;
    while let Some(cur) = inner.current() {
        // Re-evaluate levels from the lowest position that changed; a
        // failing level prunes its whole subtree.
        let mut pruned_at: Option<usize> = None;
        'levels: for p in dirty..m - 1 {
            let e = first + 1 + cur[p];
            let prev = levels[p];
            let mut next = Prefix {
                min_cpu: prev.min_cpu.min(cache.cpu(e)),
                min_bw: prev.min_bw,
                min_frac: prev.min_frac,
                matched: prev.matched,
            };
            if !cache.connected(first, e) {
                pruned_at = Some(p);
                break;
            }
            next.min_bw = next.min_bw.min(cache.bw(first, e));
            next.min_frac = next.min_frac.min(cache.bwfraction(first, e));
            for &q in &cur[..p] {
                let f = first + 1 + q;
                if !cache.connected(f, e) {
                    pruned_at = Some(p);
                    break 'levels;
                }
                next.min_bw = next.min_bw.min(cache.bw(f, e));
                next.min_frac = next.min_frac.min(cache.bwfraction(f, e));
            }
            if next.matched < required.len() {
                match e.cmp(&required[next.matched]) {
                    core::cmp::Ordering::Equal => next.matched += 1,
                    core::cmp::Ordering::Greater => {
                        // Deeper elements only grow, so the missing
                        // required index is unreachable below this prefix.
                        pruned_at = Some(p);
                        break;
                    }
                    core::cmp::Ordering::Less => {}
                }
            }
            if floor.is_some_and(|fl| next.min_bw < fl) {
                pruned_at = Some(p);
                break;
            }
            let value = prefix_value(objective, &next);
            if local.as_ref().is_some_and(|(b, _)| value <= *b) || value < shared_best() {
                pruned_at = Some(p);
                break;
            }
            levels[p + 1] = next;
        }
        let step = match pruned_at {
            Some(p) => inner.advance_from(p),
            None => {
                let leaf = levels[m - 1];
                if leaf.matched == required.len() {
                    let value = prefix_value(objective, &leaf);
                    let mut sel = Vec::with_capacity(m);
                    sel.push(first);
                    sel.extend(cur.iter().map(|&j| first + 1 + j));
                    shared.fetch_max(value.to_bits(), Ordering::Relaxed);
                    local = Some((value, sel));
                }
                inner.advance()
            }
        };
        match step {
            Some(changed) => dirty = changed,
            None => break,
        }
    }
    local
}

/// Brute-force optimal selection.
///
/// Subsets whose nodes are not mutually connected are skipped. Ties are
/// broken toward the lexicographically smallest node set, making the result
/// deterministic and directly comparable with the greedy algorithms.
///
/// This is the pruned, parallel oracle (see the module docs); it returns
/// exactly what the unpruned single-thread search returns, only faster.
pub fn exhaustive_select(
    topo: &Topology,
    m: usize,
    objective: ExhaustiveObjective,
    constraints: &Constraints,
    reference_bandwidth: Option<f64>,
) -> Result<Selection, SelectError> {
    if m == 0 {
        return Err(SelectError::ZeroCount);
    }
    let pool = eligible_pool(topo, constraints);
    if pool.len() < m {
        return Err(SelectError::NotEnoughNodes {
            eligible: pool.len(),
            requested: m,
        });
    }
    // The cache and the winner re-evaluation only query routes among pool
    // members, so build just those BFS rows.
    let routes = Routes::for_sources(topo, pool.iter().copied());
    let weights = match objective {
        ExhaustiveObjective::Balanced(w) => w,
        _ => Weights::EQUAL,
    };
    // Required nodes as sorted pool indices; one outside the pool means no
    // subset can ever contain it.
    let mut required: Vec<usize> = Vec::with_capacity(constraints.required.len());
    for r in &constraints.required {
        match pool.iter().position(|n| n == r) {
            Some(i) => required.push(i),
            None => return Err(SelectError::Unsatisfiable),
        }
    }
    required.sort_unstable();
    required.dedup();
    if required.len() > m {
        return Err(SelectError::Unsatisfiable);
    }
    let cache = PairwiseCache::new(topo, &routes, &pool, reference_bandwidth);
    let floor = constraints.min_bandwidth;
    let tasks = pool.len() - m + 1;
    let mut results: Vec<Option<(f64, Vec<usize>)>> = vec![None; tasks];
    let shared = AtomicU64::new(0.0f64.to_bits());
    // Fan out over the first subset element; small searches stay serial so
    // the oracle keeps its place in tight test loops.
    let threads = if binomial(pool.len(), m) <= 1024 {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(tasks)
    };
    if threads <= 1 {
        for (first, slot) in results.iter_mut().enumerate() {
            *slot = scan_first(&cache, objective, floor, &required, first, m, &shared);
        }
    } else {
        let chunk = tasks.div_ceil(threads);
        let (cache, required, shared) = (&cache, required.as_slice(), &shared);
        std::thread::scope(|scope| {
            for (t, out) in results.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (k, slot) in out.iter_mut().enumerate() {
                        let first = t * chunk + k;
                        *slot = scan_first(cache, objective, floor, required, first, m, shared);
                    }
                });
            }
        });
    }
    // Merge in ascending first-element order, keeping strict improvements
    // only: the earliest range wins ties, preserving the reference's
    // lexicographic tie-breaking.
    let mut best: Option<&(f64, Vec<usize>)> = None;
    for r in results.iter().flatten() {
        match best {
            Some((b, _)) if *b >= r.0 => {}
            _ => best = Some(r),
        }
    }
    let (_, idxs) = best.ok_or(SelectError::Unsatisfiable)?;
    let nodes: Vec<NodeId> = idxs.iter().map(|&i| pool[i]).collect();
    // Re-evaluate the winner through the reference scorer so the returned
    // Quality is byte-identical to the unpruned oracle's.
    let quality = evaluate(topo, &routes, &nodes, reference_bandwidth);
    Ok(Selection {
        score: quality.score(weights),
        nodes,
        quality,
        iterations: 0,
    })
}

fn eligible_pool(topo: &Topology, constraints: &Constraints) -> Vec<NodeId> {
    topo.compute_nodes()
        .filter(|&n| {
            constraints
                .allowed
                .as_ref()
                .is_none_or(|set| set.contains(&n))
                && constraints
                    .min_cpu
                    .is_none_or(|c| topo.node(n).effective_cpu() >= c)
        })
        .collect()
}

/// The original brute-force oracle: single thread, no pruning, one full
/// [`evaluate`] per subset. Kept verbatim as the baseline the pruned
/// parallel search is tested (and benchmarked) against.
#[cfg(any(test, feature = "oracle"))]
pub fn exhaustive_select_reference(
    topo: &Topology,
    m: usize,
    objective: ExhaustiveObjective,
    constraints: &Constraints,
    reference_bandwidth: Option<f64>,
) -> Result<Selection, SelectError> {
    if m == 0 {
        return Err(SelectError::ZeroCount);
    }
    let pool = eligible_pool(topo, constraints);
    if pool.len() < m {
        return Err(SelectError::NotEnoughNodes {
            eligible: pool.len(),
            requested: m,
        });
    }
    let routes = topo.routes();
    let weights = match objective {
        ExhaustiveObjective::Balanced(w) => w,
        _ => Weights::EQUAL,
    };
    let mut best: Option<(f64, Vec<NodeId>, crate::Quality)> = None;
    'outer: for combo in Combinations::new(pool.len(), m) {
        let nodes: Vec<NodeId> = combo.iter().map(|&i| pool[i]).collect();
        for &r in &constraints.required {
            if !nodes.contains(&r) {
                continue 'outer;
            }
        }
        // Skip disconnected subsets.
        for (i, &a) in nodes.iter().enumerate() {
            for &b in nodes.iter().skip(i + 1) {
                if routes.path(a, b).is_err() {
                    continue 'outer;
                }
            }
        }
        let q = evaluate(topo, &routes, &nodes, reference_bandwidth);
        if let Some(floor) = constraints.min_bandwidth {
            if q.min_bw < floor {
                continue;
            }
        }
        let value = match objective {
            ExhaustiveObjective::MinCpu => q.min_cpu,
            ExhaustiveObjective::MinBandwidth => q.min_bw,
            ExhaustiveObjective::Balanced(w) => q.score(w),
        };
        match &best {
            Some((b, _, _)) if *b >= value => {}
            _ => best = Some((value, nodes, q)),
        }
    }
    let (_, nodes, quality) = best.ok_or(SelectError::Unsatisfiable)?;
    Ok(Selection {
        score: quality.score(weights),
        nodes,
        quality,
        iterations: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::star;
    use nodesel_topology::units::MBPS;

    #[test]
    fn combinations_enumerate_lexicographically() {
        let all: Vec<Vec<usize>> = Combinations::new(4, 2).collect();
        assert_eq!(
            all,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn combinations_edge_cases() {
        assert_eq!(Combinations::new(3, 3).count(), 1);
        assert_eq!(Combinations::new(3, 4).count(), 0);
        assert_eq!(Combinations::new(5, 1).count(), 5);
        assert_eq!(Combinations::new(6, 3).count(), 20);
    }

    #[test]
    fn advance_reports_lowest_changed_position() {
        let mut c = Combinations::new(5, 3);
        assert_eq!(c.current(), Some(&[0, 1, 2][..]));
        assert_eq!(c.advance(), Some(2)); // [0,1,3]
        assert_eq!(c.advance(), Some(2)); // [0,1,4]
        assert_eq!(c.advance(), Some(1)); // [0,2,3]
        assert_eq!(c.current(), Some(&[0, 2, 3][..]));
    }

    #[test]
    fn advance_from_skips_the_prefix_subtree() {
        let mut c = Combinations::new(6, 3);
        // Prune everything starting [0, 1, _].
        assert_eq!(c.advance_from(1), Some(1));
        assert_eq!(c.current(), Some(&[0, 2, 3][..]));
        // Prune everything starting [0, _, _].
        assert_eq!(c.advance_from(0), Some(0));
        assert_eq!(c.current(), Some(&[1, 2, 3][..]));
        // Pruning at the last valid first element exhausts the cursor.
        assert_eq!(c.advance_from(0), Some(0));
        assert_eq!(c.current(), Some(&[2, 3, 4][..]));
        assert_eq!(c.advance_from(0), Some(0));
        assert_eq!(c.advance_from(0), None);
        assert_eq!(c.current(), None);
    }

    #[test]
    fn size_hint_tracks_remaining() {
        let mut c = Combinations::new(6, 3);
        assert_eq!(c.len(), 20);
        c.next();
        c.next();
        assert_eq!(c.len(), 18);
        assert_eq!(c.by_ref().count(), 18);
        assert_eq!(c.size_hint(), (0, Some(0)));
    }

    #[test]
    fn binomial_is_overflow_safe() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(52, 5), 2_598_960);
        assert_eq!(binomial(10, 11), 0);
        // C(1000, 500) overflows u128 by a huge margin: saturates.
        assert_eq!(binomial(1000, 500), u128::MAX);
        let c = Combinations::new(1000, 500);
        assert_eq!(c.size_hint(), (usize::MAX, None));
    }

    #[test]
    fn visit_matches_iterator() {
        let mut seen = Vec::new();
        Combinations::new(5, 2).visit(|c| seen.push(c.to_vec()));
        let all: Vec<Vec<usize>> = Combinations::new(5, 2).collect();
        assert_eq!(seen, all);
    }

    #[test]
    fn picks_the_obviously_best_pair() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 4.0);
        topo.set_load_avg(ids[1], 4.0);
        let sel = exhaustive_select(
            &topo,
            2,
            ExhaustiveObjective::Balanced(Weights::EQUAL),
            &Constraints::none(),
            None,
        )
        .unwrap();
        assert_eq!(sel.nodes, vec![ids[2], ids[3]]);
        assert_eq!(sel.quality.min_cpu, 1.0);
    }

    #[test]
    fn respects_required_nodes() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 4.0);
        let constraints = Constraints {
            required: vec![ids[0]],
            ..Constraints::none()
        };
        let sel = exhaustive_select(
            &topo,
            2,
            ExhaustiveObjective::Balanced(Weights::EQUAL),
            &constraints,
            None,
        )
        .unwrap();
        assert!(sel.nodes.contains(&ids[0]));
        assert_eq!(sel.quality.min_cpu, 0.2);
    }

    #[test]
    fn bandwidth_floor_filters_sets() {
        let mut topo = Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        let c = topo.add_compute_node("c", 1.0);
        topo.add_link(a, b, 10.0 * MBPS);
        topo.add_link(b, c, 100.0 * MBPS);
        let constraints = Constraints {
            min_bandwidth: Some(50.0 * MBPS),
            ..Constraints::none()
        };
        let sel =
            exhaustive_select(&topo, 2, ExhaustiveObjective::MinCpu, &constraints, None).unwrap();
        assert_eq!(sel.nodes, vec![b, c]);
    }

    #[test]
    fn pruned_oracle_matches_reference_on_a_loaded_star() {
        let (mut topo, ids) = star(8, 100.0 * MBPS);
        for (i, &n) in ids.iter().enumerate() {
            topo.set_load_avg(n, (i % 3) as f64);
        }
        for m in 1..=4 {
            for objective in [
                ExhaustiveObjective::MinCpu,
                ExhaustiveObjective::MinBandwidth,
                ExhaustiveObjective::Balanced(Weights::comm_priority(2.0)),
            ] {
                let fast =
                    exhaustive_select(&topo, m, objective, &Constraints::none(), None).unwrap();
                let slow =
                    exhaustive_select_reference(&topo, m, objective, &Constraints::none(), None)
                        .unwrap();
                assert_eq!(fast, slow, "m={m}, objective={objective:?}");
            }
        }
    }

    #[test]
    fn pruned_oracle_matches_reference_under_constraints() {
        let (mut topo, ids) = star(7, 100.0 * MBPS);
        topo.set_load_avg(ids[1], 2.0);
        topo.set_load_avg(ids[4], 1.0);
        let constraints = Constraints {
            required: vec![ids[4]],
            min_cpu: Some(0.3),
            min_bandwidth: Some(10.0 * MBPS),
            ..Constraints::none()
        };
        for m in 1..=3 {
            let fast = exhaustive_select(
                &topo,
                m,
                ExhaustiveObjective::Balanced(Weights::EQUAL),
                &constraints,
                None,
            );
            let slow = exhaustive_select_reference(
                &topo,
                m,
                ExhaustiveObjective::Balanced(Weights::EQUAL),
                &constraints,
                None,
            );
            assert_eq!(fast, slow, "m={m}");
        }
    }
}
