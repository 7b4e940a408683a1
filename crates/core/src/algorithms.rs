//! The node-selection algorithms of §3.2, with the §3.3 generalizations.
//!
//! All three algorithms share one structure: a [`GraphView`] over the
//! measured topology snapshot, pre-filtered by any absolute bandwidth
//! constraint, on which edges are deleted in increasing order of the
//! relevant bandwidth metric while candidate node sets are read off the
//! surviving connected components.
//!
//! * [`max_compute`] — no deletion loop at all: pick the `m` eligible
//!   compute nodes with the highest available CPU (within one component).
//! * [`max_bandwidth`] — Figure 2: delete the minimum-`bw` edge while a
//!   component with `m` eligible compute nodes survives; the last
//!   surviving candidate maximizes the minimum pairwise bandwidth.
//! * [`balanced`] — Figure 3: delete the minimum-`bwfactor` edge,
//!   re-evaluating `min(min cpu, min bwfactor)` per component each round.
//!   [`GreedyPolicy::Faithful`] stops at the first non-improving round as
//!   printed in the paper; [`GreedyPolicy::Sweep`] runs the deletion to
//!   exhaustion and keeps the best round, which is provably optimal on
//!   acyclic graphs.
//!
//! # The graph a request is solved on
//!
//! The paper's procedures take "the logical network topology graph" Remos
//! returns *for the nodes of interest* (§2.2, §3.1), not the fabric. Every
//! entry point of this module does the same for a request that names its
//! candidates: when [`Constraints::allowed`] is set and the structure is a
//! forest, the eligible pool members are found by walking the pool (never
//! the fabric), [`Topology::logical_topology`] connects them, and the
//! engines below run on that — a [`NetMetrics`] view whose structure is
//! the extract and whose readings forward to the caller's network — with
//! ids mapped back in the answer and its footprint. A miss then costs what
//! its pool costs: O(pool · depth) to build the view and O(E′ log E′) to
//! solve it, whatever the fabric's size.
//!
//! The view keeps every eligible node and every tree path between two of
//! them, so each state of either deletion loop partitions the eligible
//! nodes exactly as it does on the whole graph, a candidate set's
//! bottleneck is the same, and so are `nodes`, `score`, `quality`, typed
//! errors and footprints. What does see the smaller graph:
//! [`Selection::iterations`]; the order in which components that tie
//! exactly (on score, or on eligible count in Figure 2's `required` loop)
//! are preferred, which follows each component's lowest node id *in the
//! graph solved*; and [`GreedyPolicy::Faithful`]'s stop rule, which
//! branches holding no eligible node can no longer delay or trigger.
//! Under [`GreedyPolicy::Sweep`] the optimum is unchanged: a dangling edge
//! below a component's minimum relevant edge is always deleted before it.
//!
//! Unpooled requests, and any request on a structure with a cycle (no
//! unique paths to take the union of), are solved on the whole graph with
//! `allowed` applied as an eligibility mask. That path is exported as
//! `select_masked` under the `oracle` feature, and `tests/pool_parity.rs`
//! holds the pooled answers to it.
//!
//! # Fast paths
//!
//! The paper spells the loops out literally — rescan every edge for the
//! minimum, then rebuild every component — which is O(E²). This module
//! keeps those literal loops as *references* (`max_bandwidth_reference`,
//! `balanced_reference`; exported under the `oracle` feature only) and
//! routes the public entry points through observably equivalent
//! near-linear engines:
//!
//! * `max_bandwidth` runs reverse-deletion Kruskal on a
//!   [`nodesel_topology::UnionFind`]: edges are sorted once by descending
//!   available bandwidth and unioned until a component holds `m` eligible
//!   nodes — O(E log E), and provably the same bottleneck optimum (the
//!   state reached is exactly the last state of the deletion loop that
//!   still hosts the application).
//! * `balanced` under [`GreedyPolicy::Sweep`] is the same pass run to the
//!   end. The loop's answer is the best score over all deletion states,
//!   and states do not depend on the order they are met in: add the edges
//!   in descending `(fraction, id)` order and every component of every
//!   state appears at a union. At that moment the edge just added is the
//!   smallest inside it, so its minimum fraction is that edge's — and
//!   every later edge is smaller still, so a component never scores
//!   better than at its birth; an edge that lands *inside* a component (a
//!   chord, on a cyclic graph) starts a new, lower-scoring state of the
//!   same node set. Each root carries what a state's score needs — the
//!   eligible count, the `required` members, and the CPUs of its best
//!   `m − |required|` other eligible members, merged and capped at each
//!   union — and every state of a component that can host the application
//!   is logged as an event `(score, birth step, death step, lowest node
//!   id)`, edgeless singletons at fraction 1.0 included when `m = 1`. The
//!   answer is the event with the maximum score; ties go the way the
//!   forward loop's "first strictly better round, first component in id
//!   order" sends them — to the event alive at the latest step (the
//!   earliest forward round that reaches the maximum), then to the lowest
//!   node id — and its node set is recovered by replaying the unions up
//!   to its birth. O(E log E + E·m), against the loop's O(rounds · (V +
//!   E)). [`GreedyPolicy::Faithful`] stops at the first non-improving
//!   round, which *is* order-dependent: it runs the literal loop, as
//!   `max_bandwidth` with `required` nodes does.
//!
//! Debug builds re-run the references after every fast-path call — on the
//! graph that call solved, logical or whole — and assert byte-identical
//! [`Selection`]s; the property tests in `tests/fastpath_parity.rs` do the
//! same over random topologies, continuous and tie-heavy.

use crate::quality::{evaluate_in, Quality};
use crate::request::{Constraints, GreedyPolicy, Objective, SelectionRequest};
use crate::selector::{LinkFootprint, SelectionFootprint};
use crate::weights::Weights;
use crate::SelectError;
use nodesel_topology::{
    Component, Direction, EdgeId, Extract, GraphView, NetMetrics, NodeId, RouteTable, Topology,
    UnionFind,
};
use std::collections::HashSet;

/// The result of a selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Selected compute nodes, in ascending id order.
    pub nodes: Vec<NodeId>,
    /// Exact quality of the selection (pairwise over static routes).
    pub quality: Quality,
    /// The balanced score of `quality` under the weights the request used
    /// (equal weights for the single-resource objectives).
    pub score: f64,
    /// Edge-deletion rounds executed (1 for [`max_compute`]) on the graph
    /// that was solved: the request's logical topology when it names an
    /// [`Constraints::allowed`] pool on an acyclic structure, the whole
    /// graph otherwise. A work count, not part of the placement — the
    /// same nodes and score come with fewer rounds from a smaller graph.
    pub iterations: usize,
}

/// An answer with the entities its bits depend on, as the engine that
/// produced it knows them; [`crate::selector::FlatSelector`] widens the
/// footprint for requests whose eligibility moves with the metrics.
pub(crate) type Solved = Result<(Selection, SelectionFootprint), SelectError>;

/// [`NetMetrics`] over an [`Extract`]: the structure is the extract's
/// sub-topology (kinds, speeds and capacities equal the global ones by
/// construction), while every dynamic reading is delegated through the id
/// maps — so a solve inside the extract tracks the caller's network
/// without re-extracting.
pub(crate) struct ExtractNet<'a, T: NetMetrics> {
    pub(crate) net: &'a T,
    pub(crate) ext: &'a Extract,
}

impl<T: NetMetrics> NetMetrics for ExtractNet<'_, T> {
    fn structure(&self) -> &Topology {
        &self.ext.sub
    }
    fn load_avg(&self, n: NodeId) -> f64 {
        self.net.load_avg(self.ext.nodes[n.index()])
    }
    fn used(&self, e: EdgeId, dir: Direction) -> f64 {
        self.net.used(self.ext.edges[e.index()], dir)
    }
    fn node_available(&self, n: NodeId) -> bool {
        self.net.node_available(self.ext.nodes[n.index()])
    }
    fn link_available(&self, e: EdgeId) -> bool {
        self.net.link_available(self.ext.edges[e.index()])
    }
    fn node_staleness(&self, n: NodeId) -> u32 {
        self.net.node_staleness(self.ext.nodes[n.index()])
    }
    fn link_staleness(&self, e: EdgeId) -> u32 {
        self.net.link_staleness(self.ext.edges[e.index()])
    }
}

/// The part of eligibility that reads the network: the CPU floor, and the
/// availability gating every algorithm applies uniformly — a node reported
/// down is never selectable, and a staleness cap (when requested) excludes
/// nodes whose state is unknown. The caller has checked that `n` is a
/// compute node of `net` and (if the request has a pool) a member of it.
fn selectable<T: NetMetrics>(net: &T, constraints: &Constraints, n: NodeId) -> bool {
    constraints
        .min_cpu
        .is_none_or(|c| net.effective_cpu(n) >= c)
        && net.node_available(n)
        && constraints
            .max_staleness
            .is_none_or(|s| net.node_staleness(n) <= s)
}

/// The checks a request must pass before any graph is looked at, in the
/// order their errors take precedence, given how many nodes are eligible
/// and a membership test for them. Returns the required nodes, sorted and
/// deduplicated.
fn validate(
    m: usize,
    constraints: &Constraints,
    eligible: usize,
    is_eligible: impl Fn(NodeId) -> bool,
) -> Result<Vec<NodeId>, SelectError> {
    if m == 0 {
        return Err(SelectError::ZeroCount);
    }
    if constraints.required.len() > m {
        return Err(SelectError::TooManyRequired {
            required: constraints.required.len(),
            count: m,
        });
    }
    if let Some(&r) = constraints.required.iter().find(|&&r| !is_eligible(r)) {
        return Err(SelectError::RequiredNotEligible(r));
    }
    if eligible < m {
        return Err(SelectError::NotEnoughNodes {
            eligible,
            requested: m,
        });
    }
    let mut required = constraints.required.clone();
    required.sort_unstable();
    required.dedup();
    Ok(required)
}

/// Shared validated state for one selection run, generic over the metric
/// representation: the annotated [`Topology`] for the classic one-shot
/// path, a versioned [`nodesel_topology::NetSnapshot`] for the
/// [`crate::selector`] path, or an [`ExtractNet`] over either for a pooled
/// request. All instantiate the same monomorphic arithmetic (see
/// [`NetMetrics`]), so results are byte-identical across representations
/// by construction.
struct Context<'a, T: NetMetrics> {
    net: &'a T,
    m: usize,
    required: Vec<NodeId>,
    eligible: Vec<bool>,
    min_bandwidth: Option<f64>,
    reference_bw: Option<f64>,
}

impl<'a, T: NetMetrics> Context<'a, T> {
    /// The whole graph of `net`, with `allowed` (if any) applied as a mask
    /// over its compute nodes.
    fn masked(
        net: &'a T,
        m: usize,
        constraints: &Constraints,
        reference_bw: Option<f64>,
    ) -> Result<Self, SelectError> {
        let topo = net.structure();
        let mut eligible = vec![false; topo.node_count()];
        for n in topo.compute_nodes() {
            eligible[n.index()] = constraints
                .allowed
                .as_ref()
                .is_none_or(|set| set.contains(&n))
                && selectable(net, constraints, n);
        }
        let available = eligible.iter().filter(|&&e| e).count();
        let required = validate(m, constraints, available, |r| {
            eligible.get(r.index()).is_some_and(|&e| e)
        })?;
        Ok(Context {
            net,
            m,
            required,
            eligible,
            min_bandwidth: constraints.min_bandwidth,
            reference_bw,
        })
    }

    /// The starting view: the measured graph minus every link reported
    /// down (faulted or partitioned away — no algorithm may route through
    /// it) and minus every edge that cannot satisfy an absolute bandwidth
    /// floor (§3.3 fixed requirements).
    fn base_view(&self) -> GraphView<'a> {
        let mut view = GraphView::new(self.net.structure());
        let dead: Vec<_> = view
            .live_edges()
            .filter(|&e| !self.net.link_available(e))
            .collect();
        for e in dead {
            view.remove_edge(e);
        }
        if let Some(floor) = self.min_bandwidth {
            let below: Vec<_> = view
                .live_edges()
                .filter(|&e| self.net.bw(e) < floor)
                .collect();
            for e in below {
                view.remove_edge(e);
            }
        }
        view
    }

    /// The starting view's edges with their keys, in the order a deletion
    /// loop removes them: ascending `(key, id)`, the tie-break of
    /// [`GraphView::min_live_edge_by`]. The fast engines walk it backwards.
    fn deletion_order(&self, key: impl Fn(EdgeId) -> f64) -> Vec<(f64, EdgeId)> {
        let mut order: Vec<_> = self.base_view().live_edges().map(|e| (key(e), e)).collect();
        order.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        order
    }

    /// The members of `member`'s component in `uf`, and the compute nodes
    /// among them, both ascending: what [`Context::pick_from_parts`] takes.
    fn component_of(&self, uf: &mut UnionFind, member: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        let topo = self.net.structure();
        let root = uf.find(member.index());
        let nodes: Vec<NodeId> = topo
            .node_ids()
            .filter(|n| uf.find(n.index()) == root)
            .collect();
        let compute_nodes = nodes
            .iter()
            .copied()
            .filter(|&n| topo.node(n).is_compute())
            .collect();
        (nodes, compute_nodes)
    }

    /// Fractional availability of an edge: `bw/maxbw`, or `bw/reference`
    /// when a reference link is specified (§3.3 heterogeneous links).
    fn edge_fraction(&self, e: nodesel_topology::EdgeId) -> f64 {
        match self.reference_bw {
            Some(r) => self.net.bw(e) / r,
            None => self.net.bwfactor(e),
        }
    }

    /// Picks the `m` best-CPU eligible nodes from a component, honouring
    /// required nodes. Returns the (sorted) set and its minimum effective
    /// CPU, or `None` when the component cannot host the application.
    fn pick_from(&self, comp: &Component) -> Option<(Vec<NodeId>, f64)> {
        self.pick_from_parts(&comp.nodes, &comp.compute_nodes)
    }

    /// [`Context::pick_from`] over raw (sorted) member lists, so the fast
    /// engines can evaluate components they track themselves.
    fn pick_from_parts(
        &self,
        nodes: &[NodeId],
        compute_nodes: &[NodeId],
    ) -> Option<(Vec<NodeId>, f64)> {
        for &r in &self.required {
            nodes.binary_search(&r).ok()?;
        }
        let mut candidates: Vec<NodeId> = compute_nodes
            .iter()
            .copied()
            .filter(|&n| self.eligible[n.index()])
            .collect();
        if candidates.len() < self.m {
            return None;
        }
        candidates.sort_by(|&a, &b| {
            self.net
                .effective_cpu(b)
                .total_cmp(&self.net.effective_cpu(a))
                .then(a.cmp(&b))
        });
        let mut chosen = self.required.clone();
        for &n in &candidates {
            if chosen.len() == self.m {
                break;
            }
            if !self.required.contains(&n) {
                chosen.push(n);
            }
        }
        debug_assert_eq!(chosen.len(), self.m);
        let min_cpu = chosen
            .iter()
            .map(|&n| self.net.effective_cpu(n))
            .fold(f64::INFINITY, f64::min);
        chosen.sort_unstable();
        Some((chosen, min_cpu))
    }

    /// The eligible members of a component's compute nodes, ascending.
    fn eligible_of<'s>(&'s self, compute_nodes: &'s [NodeId]) -> impl Iterator<Item = NodeId> + 's {
        compute_nodes
            .iter()
            .copied()
            .filter(|n| self.eligible[n.index()])
    }

    /// Number of eligible compute nodes in a component.
    fn eligible_count(&self, comp: &Component) -> usize {
        self.eligible_of(&comp.compute_nodes).count()
    }

    /// The BFS rows the quality evaluation of `nodes` walks: quality only
    /// queries routes among the chosen nodes, so just those rows instead
    /// of the all-pairs table.
    fn routes_among(&self, nodes: &[NodeId]) -> RouteTable {
        RouteTable::build_for_sources(self.net.structure(), nodes.iter().copied())
    }

    fn finish(&self, nodes: Vec<NodeId>, weights: Weights, iterations: usize) -> Selection {
        self.finish_on(&self.routes_among(&nodes), nodes, weights, iterations)
    }

    fn finish_on(
        &self,
        table: &RouteTable,
        nodes: Vec<NodeId>,
        weights: Weights,
        iterations: usize,
    ) -> Selection {
        let quality = evaluate_in(self.net, table, &nodes, self.reference_bw);
        Selection {
            score: quality.score(weights),
            nodes,
            quality,
            iterations,
        }
    }
}

/// Maximize available computation capacity: choose the `m` eligible nodes
/// with the highest `cpu` values (paper §3.2), restricted to a single
/// connected component so the selection can actually communicate.
pub fn max_compute(
    topo: &Topology,
    m: usize,
    constraints: &Constraints,
) -> Result<Selection, SelectError> {
    solve(topo, m, constraints, Procedure::Compute).map(|(sel, _)| sel)
}

/// [`max_compute`] on a validated [`Context`].
///
/// Footprint: the components are fixed by the graph (and the bandwidth
/// floor), so only the members of the ones that can host the application
/// can re-rank the answer; link metrics reach the bits through the floor's
/// view filter (if any) or the final quality walk over the answer's routes.
fn max_compute_in<T: NetMetrics>(ctx: &Context<T>) -> Solved {
    let view = ctx.base_view();
    let mut best: Option<(Vec<NodeId>, f64)> = None;
    let mut read = Vec::new();
    for comp in view.components() {
        if let Some((nodes, min_cpu)) = ctx.pick_from(&comp) {
            read.extend(ctx.eligible_of(&comp.compute_nodes));
            match &best {
                Some((_, b)) if *b >= min_cpu => {}
                _ => best = Some((nodes, min_cpu)),
            }
        }
    }
    let (nodes, _) = best.ok_or(SelectError::Unsatisfiable)?;
    let table = ctx.routes_among(&nodes);
    let links = match ctx.min_bandwidth {
        Some(_) => LinkFootprint::All,
        None => LinkFootprint::routes_among(ctx.net.structure(), &table, &nodes),
    };
    let selection = ctx.finish_on(&table, nodes, Weights::EQUAL, 1);
    Ok((selection, SelectionFootprint::reading(read, links)))
}

/// Maximize available communication capacity (Figure 2): maximize the
/// minimum available bandwidth between any pair of selected nodes.
///
/// Within the winning component, nodes are chosen by highest CPU — the
/// paper allows "any m compute nodes", so this refinement never hurts the
/// bandwidth objective and helps the secondary one.
///
/// Runs as reverse-deletion Kruskal in O(E log E) (see the module docs);
/// requests with `required` nodes take the faithful Figure 2 deletion
/// loop, whose stopping rule inspects a specific component each round
/// and is not expressible as a single union-find sweep.
pub fn max_bandwidth(
    topo: &Topology,
    m: usize,
    constraints: &Constraints,
) -> Result<Selection, SelectError> {
    solve(topo, m, constraints, Procedure::Communication).map(|(sel, _)| sel)
}

/// [`max_bandwidth`] on a validated [`Context`].
///
/// Footprint: the stop component is determined by the edge order and
/// eligibility alone, so node churn only re-ranks the pick inside it,
/// while any link churn can reorder the whole deletion sequence.
fn max_bandwidth_in<T: NetMetrics>(ctx: &Context<T>) -> Solved {
    if !ctx.required.is_empty() {
        // The loop's stopping rule follows the pinned nodes' component,
        // which moves with the metrics.
        return max_bandwidth_loop(ctx).map(|sel| (sel, SelectionFootprint::conservative()));
    }
    let fast = max_bandwidth_fast(ctx);
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        fast.as_ref().map(|(sel, _)| sel),
        max_bandwidth_loop(ctx).as_ref(),
        "max_bandwidth fast path diverged from the Figure 2 deletion loop"
    );
    fast
}

/// The faithful Figure 2 deletion loop, kept as the O(E²) reference the
/// fast path is asserted against (debug builds and the parity property
/// tests compare full [`Selection`]s).
#[cfg(any(test, feature = "oracle"))]
pub fn max_bandwidth_reference(
    topo: &Topology,
    m: usize,
    constraints: &Constraints,
) -> Result<Selection, SelectError> {
    solve(topo, m, constraints, Procedure::CommunicationReference).map(|(sel, _)| sel)
}

fn max_bandwidth_loop<T: NetMetrics>(ctx: &Context<T>) -> Result<Selection, SelectError> {
    let mut view = ctx.base_view();
    let mut current: Option<Vec<NodeId>> = None;
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        // Step 3/4 of Figure 2: the component with the largest number of
        // connected (eligible) compute nodes.
        let candidate = view
            .components()
            .into_iter()
            .filter(|c| ctx.eligible_count(c) >= ctx.m)
            .max_by_key(|c| ctx.eligible_count(c))
            .and_then(|c| ctx.pick_from(&c));
        match candidate {
            Some((nodes, _)) => current = Some(nodes),
            None => break,
        }
        // Step 2: remove the minimum-bandwidth edge.
        match view.min_live_edge_by(|e| ctx.net.bw(e)) {
            Some(e) => view.remove_edge(e),
            None => break,
        }
    }
    let nodes = current.ok_or(SelectError::Unsatisfiable)?;
    Ok(ctx.finish(nodes, Weights::EQUAL, iterations))
}

/// Reverse-deletion Kruskal: union edges in descending available-bandwidth
/// order until a component holds `m` eligible nodes. That state is exactly
/// the last state of the deletion loop that still hosts the application
/// (deleting edges in ascending order and adding them in descending order
/// walk the same chain of graphs), so the returned `Selection` — including
/// its `iterations` count — is byte-identical to the reference's.
fn max_bandwidth_fast<T: NetMetrics>(ctx: &Context<T>) -> Solved {
    let topo = ctx.net.structure();
    let order = ctx.deletion_order(|e| ctx.net.bw(e));
    let live = order.len();
    if ctx.m == 1 {
        // The deletion loop runs to exhaustion and reads its answer off the
        // fully-deleted graph: every eligible node is then a singleton
        // component of count 1, and the loop's max-by keeps the last one.
        let node = (0..topo.node_count())
            .rev()
            .map(NodeId::from_index)
            .find(|n| ctx.eligible[n.index()])
            .expect("Context guarantees an eligible node");
        return Ok((
            ctx.finish(vec![node], Weights::EQUAL, live + 1),
            SelectionFootprint::reading(vec![node], LinkFootprint::All),
        ));
    }
    let mut uf = UnionFind::new(topo.node_count());
    for n in topo.node_ids() {
        if ctx.eligible[n.index()] {
            uf.seed_eligible(n.index(), ctx.net.effective_cpu(n));
        }
    }
    let mut stop: Option<(NodeId, usize)> = None;
    for (i, &(_, e)) in order.iter().rev().enumerate() {
        let l = topo.link(e);
        if let Some(root) = uf.union(l.a().index(), l.b().index()) {
            if uf.eligible_count(root) >= ctx.m {
                stop = Some((l.a(), i + 1));
                break;
            }
        }
    }
    // Never reaching `m` while adding edges means even the full graph has
    // no qualifying component: round one of the reference loop fails.
    let (member, added) = stop.ok_or(SelectError::Unsatisfiable)?;
    let (nodes, compute_nodes) = ctx.component_of(&mut uf, member);
    let (chosen, _) = ctx
        .pick_from_parts(&nodes, &compute_nodes)
        .expect("stop component holds at least m eligible nodes");
    let read = ctx.eligible_of(&compute_nodes).collect();
    // The reference runs one round per deleted edge plus the failing round:
    // `live - added` deletions succeed before the stop state is destroyed.
    Ok((
        ctx.finish(chosen, Weights::EQUAL, live - added + 2),
        SelectionFootprint::reading(read, LinkFootprint::All),
    ))
}

/// Balanced computation/communication optimization (Figure 3): maximize
/// `min(min fractional cpu, min fractional bandwidth)`, generalized with
/// priority [`Weights`], an optional reference bandwidth, and the choice of
/// greedy termination [`GreedyPolicy`].
///
/// ```
/// use nodesel_core::{balanced, Constraints, GreedyPolicy, Weights};
/// use nodesel_topology::builders::star;
/// use nodesel_topology::units::MBPS;
///
/// let (mut topo, ids) = star(5, 100.0 * MBPS);
/// topo.set_load_avg(ids[0], 3.0); // busy node: cpu = 0.25
/// let sel = balanced(&topo, 3, Weights::EQUAL, &Constraints::none(),
///                    None, GreedyPolicy::Sweep).unwrap();
/// assert!(!sel.nodes.contains(&ids[0]));
/// assert_eq!(sel.score, 1.0); // three idle nodes over clean links
/// ```
pub fn balanced(
    topo: &Topology,
    m: usize,
    weights: Weights,
    constraints: &Constraints,
    reference_bandwidth: Option<f64>,
    policy: GreedyPolicy,
) -> Result<Selection, SelectError> {
    let figure3 = Figure3 {
        weights,
        reference_bandwidth,
        policy,
    };
    solve(topo, m, constraints, Procedure::Balanced(figure3)).map(|(sel, _)| sel)
}

/// [`balanced`] on a validated [`Context`].
///
/// Footprint: every state of the deletion history is a subset of a
/// component of the starting view that can host the application, and each
/// competes in the sweep, so any of those members' CPU can move the
/// winner; the history itself reads every edge's fraction.
fn balanced_in<T: NetMetrics>(ctx: &Context<T>, weights: Weights, policy: GreedyPolicy) -> Solved {
    if policy == GreedyPolicy::Faithful {
        // The stop rule depends on the order the rounds are met in.
        return balanced_loop(ctx, weights, policy)
            .map(|sel| (sel, SelectionFootprint::conservative()));
    }
    let sweep = balanced_sweep(ctx, weights);
    debug_assert_eq!(
        sweep.as_ref().map(|(sel, _)| sel),
        balanced_loop(ctx, weights, policy).as_ref(),
        "balanced sweep diverged from the Figure 3 deletion loop"
    );
    sweep
}

/// The faithful Figure 3 deletion loop — rescan every edge, rebuild every
/// component, re-pick every candidate set, each round — as the O(E²)
/// reference the sweep engine is asserted against.
#[cfg(any(test, feature = "oracle"))]
pub fn balanced_reference(
    topo: &Topology,
    m: usize,
    weights: Weights,
    constraints: &Constraints,
    reference_bandwidth: Option<f64>,
    policy: GreedyPolicy,
) -> Result<Selection, SelectError> {
    let figure3 = Figure3 {
        weights,
        reference_bandwidth,
        policy,
    };
    solve(topo, m, constraints, Procedure::BalancedReference(figure3)).map(|(sel, _)| sel)
}

/// Figure 3 as printed, O(rounds · (V + E)): what [`GreedyPolicy::Faithful`]
/// runs and what [`balanced_sweep`] is held to in debug builds.
fn balanced_loop<T: NetMetrics>(
    ctx: &Context<T>,
    weights: Weights,
    policy: GreedyPolicy,
) -> Result<Selection, SelectError> {
    let mut view = ctx.base_view();
    let mut best: Option<(f64, Vec<NodeId>)> = None;
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        // Evaluate every component that can host the application
        // (Figure 3 step 3, plus the step 1 initialization on round one).
        let mut round_best: Option<(f64, Vec<NodeId>)> = None;
        let mut any_candidate = false;
        for comp in view.components() {
            let Some((nodes, min_cpu)) = ctx.pick_from(&comp) else {
                continue;
            };
            any_candidate = true;
            let min_frac = if comp.edges.is_empty() {
                1.0
            } else {
                comp.edges
                    .iter()
                    .map(|&e| ctx.edge_fraction(e))
                    .fold(f64::INFINITY, f64::min)
            };
            let score = (min_cpu / weights.compute).min(min_frac / weights.comm);
            match &round_best {
                Some((b, _)) if *b >= score => {}
                _ => round_best = Some((score, nodes)),
            }
        }
        if !any_candidate {
            break;
        }
        let improved = match (&round_best, &best) {
            (Some((r, _)), Some((b, _))) => r > b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if improved {
            best = round_best;
        } else if policy == GreedyPolicy::Faithful && iterations > 1 {
            // Figure 3 step 4: stop when a removal round fails to raise
            // minresource.
            break;
        }
        // Remove the minimum fractional-bandwidth edge (step 2).
        match view.min_live_edge_by(|e| ctx.edge_fraction(e)) {
            Some(e) => view.remove_edge(e),
            None => break,
        }
    }
    let (_, nodes) = best.ok_or(SelectError::Unsatisfiable)?;
    Ok(ctx.finish(nodes, weights, iterations))
}

/// One stretch of the deletion history over which a component that can
/// host the application keeps both its node set and its minimum fraction.
struct Event {
    score: f64,
    /// Edges present when the stretch begins and when it ends, counted by
    /// the reverse pass: step `s` is forward round `live - s + 1`.
    birth: usize,
    death: usize,
    /// The component's lowest node id.
    first: NodeId,
}

/// The `cap` largest values of two descending lists, descending.
fn merge_top(a: Vec<f64>, b: Vec<f64>, cap: usize) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() { b } else { a };
    }
    let mut out = Vec::with_capacity(cap.min(a.len() + b.len()));
    let (mut i, mut j) = (0, 0);
    while out.len() < cap && (i < a.len() || j < b.len()) {
        if j == b.len() || (i < a.len() && a[i] >= b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

/// Figure 3 under [`GreedyPolicy::Sweep`] as one union-find pass over the
/// edges in descending fraction order (see the module docs): every state a
/// hosting component goes through is logged as an [`Event`], and the
/// answer is read off the event the forward loop would have kept.
fn balanced_sweep<T: NetMetrics>(ctx: &Context<T>, weights: Weights) -> Solved {
    let topo = ctx.net.structure();
    let order = ctx.deletion_order(|e| ctx.edge_fraction(e));
    let (n, live) = (topo.node_count(), order.len());
    // A hosting component's pick is the required nodes plus its `spare`
    // best others, so its minimum CPU is the lower of the two groups'.
    let spare = ctx.m - ctx.required.len();
    let required_cpu = ctx
        .required
        .iter()
        .map(|&r| ctx.net.effective_cpu(r))
        .fold(f64::INFINITY, f64::min);
    let score = |top: &[f64], frac: f64| {
        let min_cpu = top.last().map_or(required_cpu, |&c| required_cpu.min(c));
        (min_cpu / weights.compute).min(frac / weights.comm)
    };
    let mut uf = UnionFind::new(n);
    // Per root: required members, lowest node id, the CPUs of the `spare`
    // best eligible non-required members (descending), and the index of
    // the event describing the component as it stands (if it can host).
    let mut hits = vec![0usize; n];
    let mut first: Vec<NodeId> = topo.node_ids().collect();
    let mut top: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut open = vec![usize::MAX; n];
    let mut events: Vec<Event> = Vec::new();
    for v in topo.node_ids().filter(|v| ctx.eligible[v.index()]) {
        let cpu = ctx.net.effective_cpu(v);
        uf.seed_eligible(v.index(), cpu);
        if ctx.required.contains(&v) {
            hits[v.index()] = 1;
        } else if spare > 0 {
            top[v.index()].push(cpu);
        }
    }
    // Step 0 is the edgeless graph (fraction 1.0); steps 1..=live each add
    // the largest edge left, whose fraction is then the minimum of the
    // component it lands in — a new state of it, merged or not.
    let steps = std::iter::once(None).chain(order.iter().rev().map(Some));
    for (step, edge) in steps.enumerate() {
        let (roots, frac) = match edge {
            None => (0..n, 1.0),
            Some(&(frac, e)) => {
                let link = topo.link(e);
                let (a, b) = (uf.find(link.a().index()), uf.find(link.b().index()));
                for r in [a, b] {
                    if let Some(ended) = events.get_mut(open[r]) {
                        ended.death = step;
                    }
                }
                let root = uf.union(a, b).unwrap_or(a);
                if a != b {
                    hits[root] = hits[a] + hits[b];
                    first[root] = first[a].min(first[b]);
                    top[root] = merge_top(
                        std::mem::take(&mut top[a]),
                        std::mem::take(&mut top[b]),
                        spare,
                    );
                }
                (root..root + 1, frac)
            }
        };
        for r in roots {
            if uf.eligible_count(r) >= ctx.m && hits[r] == ctx.required.len() {
                open[r] = events.len();
                events.push(Event {
                    score: score(&top[r], frac),
                    birth: step,
                    death: live + 1,
                    first: first[r],
                });
            }
        }
    }
    // The forward loop keeps the first round that reaches the maximum —
    // the event alive latest here — and in it the component met first.
    let first_host = events.first().ok_or(SelectError::Unsatisfiable)?.birth;
    let rank = |ev: &Event| (ev.death, std::cmp::Reverse(ev.first));
    let win = events.iter().fold(&events[0], |best, ev| {
        if ev.score > best.score || (ev.score == best.score && rank(ev) > rank(best)) {
            ev
        } else {
            best
        }
    });
    let read = topo
        .node_ids()
        .filter(|v| ctx.eligible[v.index()] && open[uf.find(v.index())] != usize::MAX)
        .collect();
    uf.reset(n);
    for &(_, e) in order.iter().rev().take(win.birth) {
        let link = topo.link(e);
        uf.union(link.a().index(), link.b().index());
    }
    let (nodes, compute_nodes) = ctx.component_of(&mut uf, win.first);
    let (chosen, _) = ctx
        .pick_from_parts(&nodes, &compute_nodes)
        .expect("a logged component can host the application");
    // One round per state that hosts, plus the failing one — unless
    // singletons host, and the loop ends by running out of edges.
    let iterations = if first_host == 0 {
        live + 1
    } else {
        live - first_host + 2
    };
    Ok((
        ctx.finish(chosen, weights, iterations),
        SelectionFootprint::reading(read, LinkFootprint::All),
    ))
}

/// The parameters of Figure 3 beyond what every procedure takes.
#[derive(Debug, Clone, Copy)]
struct Figure3 {
    weights: Weights,
    reference_bandwidth: Option<f64>,
    policy: GreedyPolicy,
}

/// What to run once the request is validated and its graph is chosen.
#[derive(Debug, Clone, Copy)]
enum Procedure {
    Compute,
    Communication,
    Balanced(Figure3),
    #[cfg(any(test, feature = "oracle"))]
    CommunicationReference,
    #[cfg(any(test, feature = "oracle"))]
    BalancedReference(Figure3),
}

impl Procedure {
    fn of(request: &SelectionRequest) -> Procedure {
        match request.objective {
            Objective::Compute => Procedure::Compute,
            Objective::Communication => Procedure::Communication,
            Objective::Balanced(weights) => Procedure::Balanced(Figure3 {
                weights,
                reference_bandwidth: request.reference_bandwidth,
                policy: request.policy,
            }),
        }
    }

    /// The reference bandwidth the procedure scores fractions against
    /// (Figure 3 only), checking Figure 3's weights on the way: theirs is
    /// the first error a request can earn.
    fn reference_bandwidth(self) -> Result<Option<f64>, SelectError> {
        let figure3 = match self {
            Procedure::Balanced(f) => f,
            #[cfg(any(test, feature = "oracle"))]
            Procedure::BalancedReference(f) => f,
            _ => return Ok(None),
        };
        if !figure3.weights.validate() {
            return Err(SelectError::InvalidWeights);
        }
        Ok(figure3.reference_bandwidth)
    }

    fn run<T: NetMetrics>(self, ctx: &Context<T>) -> Solved {
        match self {
            Procedure::Compute => max_compute_in(ctx),
            Procedure::Communication => max_bandwidth_in(ctx),
            Procedure::Balanced(f) => balanced_in(ctx, f.weights, f.policy),
            #[cfg(any(test, feature = "oracle"))]
            Procedure::CommunicationReference => {
                max_bandwidth_loop(ctx).map(|sel| (sel, SelectionFootprint::conservative()))
            }
            #[cfg(any(test, feature = "oracle"))]
            Procedure::BalancedReference(f) => balanced_loop(ctx, f.weights, f.policy)
                .map(|sel| (sel, SelectionFootprint::conservative())),
        }
    }
}

/// The one step every entry point goes through: validate, choose the
/// graph from what the request and the structure show — the pool's
/// logical topology when there is a pool and unique paths to connect it
/// by, the whole graph otherwise — and run `procedure` on it.
fn solve<T: NetMetrics>(
    net: &T,
    m: usize,
    constraints: &Constraints,
    procedure: Procedure,
) -> Solved {
    match &constraints.allowed {
        Some(pool) if net.structure().is_acyclic() => {
            solve_pooled(net, pool, m, constraints, procedure)
        }
        _ => solve_masked(net, m, constraints, procedure),
    }
}

fn solve_masked<T: NetMetrics>(
    net: &T,
    m: usize,
    constraints: &Constraints,
    procedure: Procedure,
) -> Solved {
    let reference_bw = procedure.reference_bandwidth()?;
    procedure.run(&Context::masked(net, m, constraints, reference_bw)?)
}

/// Solves on the logical topology of the pool's eligible members and maps
/// the answer back. The same predicate as [`Context::masked`], evaluated
/// over the pool instead of over every compute node: ids in the pool that
/// name no compute node of this structure are ignored, as the mask ignores
/// them.
fn solve_pooled<T: NetMetrics>(
    net: &T,
    pool: &HashSet<NodeId>,
    m: usize,
    constraints: &Constraints,
    procedure: Procedure,
) -> Solved {
    let reference_bw = procedure.reference_bandwidth()?;
    let topo = net.structure();
    let mut members: Vec<NodeId> = pool
        .iter()
        .copied()
        .filter(|&n| {
            n.index() < topo.node_count()
                && topo.node(n).is_compute()
                && selectable(net, constraints, n)
        })
        .collect();
    members.sort_unstable();
    let required = validate(m, constraints, members.len(), |r| {
        members.binary_search(&r).is_ok()
    })?;
    let ext = topo
        .logical_topology(&members)
        .expect("the caller checked the structure is acyclic");
    // Local ids ascend with global ids: one merge walk marks the members.
    let mut eligible = vec![false; ext.nodes.len()];
    let mut next = members.iter().peekable();
    for (flag, global) in eligible.iter_mut().zip(&ext.nodes) {
        *flag = next.next_if_eq(&global).is_some();
    }
    let local = |global: NodeId| {
        let at = ext.nodes.binary_search(&global);
        NodeId::from_index(at.expect("required nodes are members, members are in the view"))
    };
    let ctx = Context {
        net: &ExtractNet { net, ext: &ext },
        m,
        required: required.into_iter().map(local).collect(),
        eligible,
        min_bandwidth: constraints.min_bandwidth,
        reference_bw,
    };
    let (mut selection, mut footprint) = procedure.run(&ctx)?;
    for n in selection.nodes.iter_mut().chain(&mut footprint.nodes) {
        *n = ext.nodes[n.index()];
    }
    if let LinkFootprint::Edges(edges) = &mut footprint.links {
        for e in edges {
            *e = ext.edges[e.index()];
        }
    }
    Ok((selection, footprint))
}

/// Dispatches a [`SelectionRequest`] to the right algorithm.
pub fn select(topo: &Topology, request: &SelectionRequest) -> Result<Selection, SelectError> {
    select_in(topo, request)
}

/// [`select`] over any [`NetMetrics`] representation.
pub(crate) fn select_in<T: NetMetrics>(
    net: &T,
    request: &SelectionRequest,
) -> Result<Selection, SelectError> {
    solve_in(net, request).map(|(sel, _)| sel)
}

/// [`select_in`], keeping the footprint the solve produced.
pub(crate) fn solve_in<T: NetMetrics>(net: &T, request: &SelectionRequest) -> Solved {
    solve(
        net,
        request.count,
        &request.constraints,
        Procedure::of(request),
    )
}

/// [`select`] on the whole graph with [`Constraints::allowed`] applied as
/// an eligibility mask, and the footprint that solve read: the path of
/// every unpooled request and of every request on a cyclic structure, and
/// the yardstick `tests/pool_parity.rs` and the `scaling` bench hold the
/// pool-first path to.
#[cfg(any(test, feature = "oracle"))]
pub fn select_masked<T: NetMetrics>(
    net: &T,
    request: &SelectionRequest,
) -> Result<(Selection, SelectionFootprint), SelectError> {
    solve_masked(
        net,
        request.count,
        &request.constraints,
        Procedure::of(request),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesel_topology::builders::{dumbbell, star};
    use nodesel_topology::units::MBPS;
    use nodesel_topology::Direction;
    use std::collections::HashSet;

    #[test]
    fn max_compute_picks_least_loaded() {
        let (mut topo, ids) = star(5, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 2.0);
        topo.set_load_avg(ids[1], 0.5);
        topo.set_load_avg(ids[2], 0.1);
        // ids[3], ids[4] unloaded.
        let sel = max_compute(&topo, 3, &Constraints::none()).unwrap();
        assert_eq!(sel.nodes, vec![ids[2], ids[3], ids[4]]);
        assert!((sel.quality.min_cpu - 1.0 / 1.1).abs() < 1e-12);
        assert_eq!(sel.iterations, 1);
    }

    #[test]
    fn max_bandwidth_avoids_congested_trunk() {
        let (mut topo, ids) = dumbbell(3, 100.0 * MBPS, 100.0 * MBPS);
        // Congest the backbone: cross-side pairs see 5 Mbps.
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 95.0 * MBPS);
        topo.set_link_used(trunk, Direction::BtoA, 95.0 * MBPS);
        let sel = max_bandwidth(&topo, 3, &Constraints::none()).unwrap();
        // All three nodes on one side (left = ids[0..3], right = ids[3..6]).
        let left: HashSet<_> = ids[..3].iter().copied().collect();
        let right: HashSet<_> = ids[3..].iter().copied().collect();
        let chosen: HashSet<_> = sel.nodes.iter().copied().collect();
        assert!(chosen.is_subset(&left) || chosen.is_subset(&right));
        assert_eq!(sel.quality.min_bw, 100.0 * MBPS);
    }

    #[test]
    fn max_bandwidth_crosses_trunk_when_it_must() {
        let (mut topo, _ids) = dumbbell(2, 100.0 * MBPS, 100.0 * MBPS);
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 60.0 * MBPS);
        topo.set_link_used(trunk, Direction::BtoA, 60.0 * MBPS);
        // Need 3 of 4 nodes: impossible on one side.
        let sel = max_bandwidth(&topo, 3, &Constraints::none()).unwrap();
        assert_eq!(sel.quality.min_bw, 40.0 * MBPS);
        assert_eq!(sel.nodes.len(), 3);
    }

    #[test]
    fn balanced_trades_cpu_for_bandwidth() {
        // Two sides of a dumbbell: left is idle, right is loaded; the trunk
        // is half congested. m = 2.
        let (mut topo, ids) = dumbbell(2, 100.0 * MBPS, 100.0 * MBPS);
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 50.0 * MBPS);
        // Left nodes (ids[0], ids[1]) idle: picking both gives cpu 1.0 and
        // full local bandwidth -> balanced score 1.0.
        let sel = balanced(
            &topo,
            2,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert_eq!(sel.nodes, vec![ids[0], ids[1]]);
        assert_eq!(sel.score, 1.0);
    }

    #[test]
    fn balanced_prefers_loaded_nodes_over_congested_paths() {
        // Star where the idle nodes sit behind a congested access link.
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        // n0, n1 idle but their links are 90% used; n2, n3 moderately
        // loaded (cpu 0.5) with clean links.
        for (i, e) in topo.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            if i < 2 {
                topo.set_link_used(e, Direction::AtoB, 90.0 * MBPS);
                topo.set_link_used(e, Direction::BtoA, 90.0 * MBPS);
            }
        }
        topo.set_load_avg(ids[2], 1.0);
        topo.set_load_avg(ids[3], 1.0);
        let sel = balanced(
            &topo,
            2,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        // cpu 0.5 beats bandwidth fraction 0.1.
        assert_eq!(sel.nodes, vec![ids[2], ids[3]]);
        assert_eq!(sel.score, 0.5);
    }

    #[test]
    fn priority_weights_flip_the_choice() {
        // Same setup as above, but communication prioritized 10x: now the
        // congested path (0.1/10 vs 0.5) ... still loses. Instead check the
        // reverse: compute prioritized enough that loaded nodes lose.
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        for (i, e) in topo.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            if i >= 2 {
                // n2, n3 links 40% used.
                topo.set_link_used(e, Direction::AtoB, 40.0 * MBPS);
                topo.set_link_used(e, Direction::BtoA, 40.0 * MBPS);
            }
        }
        topo.set_load_avg(ids[0], 1.0); // cpu 0.5, clean link
        topo.set_load_avg(ids[1], 1.0);
        // Equal weights: {n0,n1} scores min(0.5, 1.0) = 0.5;
        // {n2,n3} scores min(1.0, 0.6) = 0.6 -> pick n2,n3.
        let equal = balanced(
            &topo,
            2,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert_eq!(equal.nodes, vec![ids[2], ids[3]]);
        // Communication prioritized 2x: {n0,n1} -> min(0.5, 0.5) = 0.5;
        // {n2,n3} -> min(1.0, 0.3) = 0.3 -> pick n0,n1.
        let comm = balanced(
            &topo,
            2,
            Weights::comm_priority(2.0),
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert_eq!(comm.nodes, vec![ids[0], ids[1]]);
    }

    #[test]
    fn sweep_beats_faithful_on_tie_free_trap() {
        // Construct the premature-stop case: component A already recorded
        // a good score; component B contains two low edges hanging off
        // unselected leaves, so one more removal round shows no improvement
        // (Figure 3 stops), but the round after that would reveal B's
        // excellent pair.
        let mut topo = Topology::new();
        // Component A: a1 - a2 at fraction 0.5 (cpu 1.0).
        let a1 = topo.add_compute_node("a1", 1.0);
        let a2 = topo.add_compute_node("a2", 1.0);
        let ea = topo.add_link(a1, a2, 100.0 * MBPS);
        topo.set_link_used(ea, Direction::AtoB, 50.0 * MBPS);
        // Component B: b1 - b2 clean; leaves l1, l2 on low edges.
        let b1 = topo.add_compute_node("b1", 1.0);
        let b2 = topo.add_compute_node("b2", 1.0);
        let l1 = topo.add_compute_node("l1", 1.0);
        let l2 = topo.add_compute_node("l2", 1.0);
        topo.add_link(b1, b2, 100.0 * MBPS);
        let e1 = topo.add_link(b1, l1, 100.0 * MBPS);
        let e2 = topo.add_link(b2, l2, 100.0 * MBPS);
        topo.set_link_used(e1, Direction::AtoB, 70.0 * MBPS); // fraction 0.3
        topo.set_link_used(e2, Direction::AtoB, 65.0 * MBPS); // fraction 0.35
                                                              // Make the leaves useless as picks (heavy load).
        topo.set_load_avg(l1, 9.0);
        topo.set_load_avg(l2, 9.0);

        let faithful = balanced(
            &topo,
            2,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Faithful,
        )
        .unwrap();
        let sweep = balanced(
            &topo,
            2,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert_eq!(sweep.nodes, vec![b1, b2]);
        assert_eq!(sweep.score, 1.0);
        // The faithful algorithm stops before uncovering {b1, b2}.
        assert!(faithful.score < sweep.score);
    }

    /// `balanced` under `Sweep` with equal weights, held to the literal
    /// loop on the way out. One test per rule of the union-find sweep.
    fn sweep(
        topo: &Topology,
        m: usize,
        constraints: &Constraints,
    ) -> Result<Selection, SelectError> {
        let (w, policy) = (Weights::EQUAL, GreedyPolicy::Sweep);
        let fast = balanced(topo, m, w, constraints, None, policy);
        let literal = balanced_reference(topo, m, w, constraints, None, policy);
        assert_eq!(fast, literal);
        fast
    }

    /// Compute nodes `a`, `b` joined by a link at `fraction` of its capacity.
    fn pair(topo: &mut Topology, names: [&str; 2], fraction: f64) -> [NodeId; 2] {
        let a = topo.add_compute_node(names[0], 1.0);
        let b = topo.add_compute_node(names[1], 1.0);
        join(topo, a, b, fraction);
        [a, b]
    }

    fn join(topo: &mut Topology, a: NodeId, b: NodeId, fraction: f64) {
        let e = topo.add_link(a, b, 100.0 * MBPS);
        for dir in [Direction::AtoB, Direction::BtoA] {
            topo.set_link_used(e, dir, (1.0 - fraction) * 100.0 * MBPS);
        }
    }

    #[test]
    fn sweep_equal_components_go_to_the_lowest_node_id() {
        // Two disjoint pairs, same score, both alive in round one. The
        // reverse pass meets {b1, b2} first; the loop meets {a1, a2}.
        let mut topo = Topology::new();
        let a = pair(&mut topo, ["a1", "a2"], 1.0);
        pair(&mut topo, ["b1", "b2"], 1.0);
        assert_eq!(sweep(&topo, 2, &Constraints::none()).unwrap().nodes, a);
    }

    #[test]
    fn sweep_keeps_the_earliest_round_that_reaches_the_maximum() {
        // Chain a - b - c, every CPU 0.5, so CPU binds at 0.5 both in round
        // one ({a, b, c}, picking a and b) and after a-b is deleted
        // ({b, c}). The larger, earlier component wins the tie.
        let mut topo = Topology::new();
        let [a, b] = pair(&mut topo, ["a", "b"], 0.75);
        let c = topo.add_compute_node("c", 1.0);
        join(&mut topo, b, c, 1.0);
        for n in [a, b, c] {
            topo.set_load_avg(n, 1.0);
        }
        let sel = sweep(&topo, 2, &Constraints::none()).unwrap();
        assert_eq!((sel.nodes, sel.score), (vec![a, b], 0.5));
    }

    #[test]
    fn sweep_chord_ends_a_components_stay_at_the_maximum() {
        // {a, b} has a second, half-used link: it scores 1.0 only once
        // that chord is deleted, by which time {c, d} — higher ids, but at
        // 1.0 since round one — holds the maximum.
        let mut topo = Topology::new();
        let [a, b] = pair(&mut topo, ["a", "b"], 1.0);
        join(&mut topo, a, b, 0.5);
        let cd = pair(&mut topo, ["c", "d"], 1.0);
        let sel = sweep(&topo, 2, &Constraints::none()).unwrap();
        assert_eq!((sel.nodes, sel.score), (cd.to_vec(), 1.0));
    }

    #[test]
    fn sweep_single_node_is_scored_as_an_edgeless_component() {
        // m = 1 behind congested links: a node scores its link's fraction
        // until it is cut off, then min(cpu, 1.0). n2's link goes first, so
        // n2 is the first idle node to stand alone — a state with no edge
        // to be born from — and the loop runs out of edges.
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        for (i, e) in topo.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            let used = if i == 2 { 90.0 } else { 75.0 };
            topo.set_link_used(e, Direction::AtoB, used * MBPS);
        }
        let sel = sweep(&topo, 1, &Constraints::none()).unwrap();
        assert_eq!((sel.nodes, sel.iterations), (vec![ids[2]], 5));
    }

    #[test]
    fn sweep_counts_the_failing_round_after_a_floor_leaves_one_state() {
        // The floor drops n3's link; the three nodes left host m = 3 in
        // round one only, so the loop runs that round and the failing one.
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        let last = topo.edge_ids().last().unwrap();
        topo.set_link_used(last, Direction::AtoB, 90.0 * MBPS);
        let floor = Constraints {
            min_bandwidth: Some(50.0 * MBPS),
            ..Constraints::none()
        };
        let sel = sweep(&topo, 3, &floor).unwrap();
        assert_eq!((sel.nodes, sel.iterations), (ids[..3].to_vec(), 2));
        assert_eq!(sweep(&topo, 4, &floor), Err(SelectError::Unsatisfiable));
    }

    #[test]
    fn sweep_required_nodes_must_meet_in_one_component() {
        // One pinned node per side of a dumbbell: only states that still
        // hold the trunk can host, however good either side is alone.
        let (mut topo, ids) = dumbbell(2, 100.0 * MBPS, 100.0 * MBPS);
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 60.0 * MBPS);
        let mut pinned = Constraints {
            required: vec![ids[3], ids[0]],
            ..Constraints::none()
        };
        for (m, nodes) in [(2, vec![ids[0], ids[3]]), (3, vec![ids[0], ids[1], ids[3]])] {
            let sel = sweep(&topo, m, &pinned).unwrap();
            assert_eq!((sel.nodes, sel.score), (nodes, 0.4));
        }
        pinned.min_bandwidth = Some(50.0 * MBPS);
        assert_eq!(sweep(&topo, 2, &pinned), Err(SelectError::Unsatisfiable));
    }

    #[test]
    fn min_bandwidth_constraint_filters_links() {
        let (mut topo, _ids) = dumbbell(2, 100.0 * MBPS, 100.0 * MBPS);
        let trunk = topo.edge_ids().next().unwrap();
        topo.set_link_used(trunk, Direction::AtoB, 80.0 * MBPS);
        let constraints = Constraints {
            min_bandwidth: Some(50.0 * MBPS),
            ..Constraints::none()
        };
        // Cross-side pairs only get 20 Mbps, so a 2-node selection must be
        // one-sided even under the *compute* objective.
        let sel = max_compute(&topo, 2, &constraints).unwrap();
        assert!(sel.quality.min_bw >= 50.0 * MBPS);
    }

    #[test]
    fn required_and_allowed_constraints() {
        let (mut topo, ids) = star(5, 100.0 * MBPS);
        topo.set_load_avg(ids[4], 5.0);
        let constraints = Constraints {
            required: vec![ids[4]],
            ..Constraints::none()
        };
        let sel = balanced(
            &topo,
            3,
            Weights::EQUAL,
            &constraints,
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert!(sel.nodes.contains(&ids[4]));
        // Allowed set excluding the idle nodes.
        let allowed: HashSet<_> = ids[..2].iter().copied().collect();
        let constraints = Constraints {
            allowed: Some(allowed),
            ..Constraints::none()
        };
        let sel = max_compute(&topo, 2, &constraints).unwrap();
        assert_eq!(sel.nodes, vec![ids[0], ids[1]]);
    }

    #[test]
    fn min_cpu_constraint_rejects_busy_nodes() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 3.0); // cpu 0.25
        let constraints = Constraints {
            min_cpu: Some(0.5),
            ..Constraints::none()
        };
        let sel = max_bandwidth(&topo, 3, &constraints).unwrap();
        assert!(!sel.nodes.contains(&ids[0]));
        // Requesting all four under the floor is impossible.
        assert!(matches!(
            max_bandwidth(&topo, 4, &constraints),
            Err(SelectError::NotEnoughNodes { .. })
        ));
    }

    #[test]
    fn reference_bandwidth_changes_fractions() {
        // One 10 Mbps link, unloaded. Per-link fraction: 1.0. Against a
        // 100 Mbps reference: 0.1.
        let mut topo = Topology::new();
        let a = topo.add_compute_node("a", 1.0);
        let b = topo.add_compute_node("b", 1.0);
        topo.add_link(a, b, 10.0 * MBPS);
        topo.set_load_avg(a, 1.0); // cpu 0.5
        let per_link = balanced(
            &topo,
            2,
            Weights::EQUAL,
            &Constraints::none(),
            None,
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert_eq!(per_link.score, 0.5); // cpu binds
        let referenced = balanced(
            &topo,
            2,
            Weights::EQUAL,
            &Constraints::none(),
            Some(100.0 * MBPS),
            GreedyPolicy::Sweep,
        )
        .unwrap();
        assert!((referenced.score - 0.1).abs() < 1e-12); // bandwidth binds
    }

    #[test]
    fn error_cases() {
        let (topo, ids) = star(3, 100.0 * MBPS);
        assert!(matches!(
            max_compute(&topo, 0, &Constraints::none()),
            Err(SelectError::ZeroCount)
        ));
        assert!(matches!(
            max_compute(&topo, 9, &Constraints::none()),
            Err(SelectError::NotEnoughNodes { .. })
        ));
        let constraints = Constraints {
            required: vec![ids[0], ids[1]],
            ..Constraints::none()
        };
        assert!(matches!(
            max_compute(&topo, 1, &constraints),
            Err(SelectError::TooManyRequired { .. })
        ));
        let hub = topo.node_by_name("hub").unwrap();
        let constraints = Constraints {
            required: vec![hub],
            ..Constraints::none()
        };
        assert!(matches!(
            max_compute(&topo, 2, &constraints),
            Err(SelectError::RequiredNotEligible(_))
        ));
    }

    #[test]
    fn unsatisfiable_when_floor_disconnects() {
        let (mut topo, _) = star(3, 100.0 * MBPS);
        for e in topo.edge_ids().collect::<Vec<_>>() {
            topo.set_link_used(e, Direction::AtoB, 95.0 * MBPS);
        }
        let constraints = Constraints {
            min_bandwidth: Some(50.0 * MBPS),
            ..Constraints::none()
        };
        assert_eq!(
            max_compute(&topo, 2, &constraints),
            Err(SelectError::Unsatisfiable)
        );
    }

    #[test]
    fn select_dispatches_by_objective() {
        let (mut topo, ids) = star(4, 100.0 * MBPS);
        topo.set_load_avg(ids[0], 2.0);
        let c = select(&topo, &SelectionRequest::compute(2)).unwrap();
        assert!(!c.nodes.contains(&ids[0]));
        let b = select(&topo, &SelectionRequest::communication(2)).unwrap();
        assert_eq!(b.nodes.len(), 2);
        let bal = select(&topo, &SelectionRequest::balanced(2)).unwrap();
        assert!(!bal.nodes.contains(&ids[0]));
    }

    #[test]
    fn selection_is_deterministic_under_ties() {
        // All nodes identical: the algorithms must break ties by node id.
        let (topo, ids) = star(6, 100.0 * MBPS);
        for _ in 0..3 {
            let sel = balanced(
                &topo,
                3,
                Weights::EQUAL,
                &Constraints::none(),
                None,
                GreedyPolicy::Sweep,
            )
            .unwrap();
            assert_eq!(sel.nodes, vec![ids[0], ids[1], ids[2]]);
        }
    }
}
