//! Sharded hierarchical MSR solving: partition → parallel shard solves →
//! coarsened stitch.
//!
//! Whole-graph LMG-All is near-linear per move but still superlinear end to
//! end; past a few tens of thousands of versions one monolithic solve stops
//! scaling. This module trades a bounded amount of plan quality for
//! near-linear wall-clock:
//!
//! 1. **Partition** — [`dsv_vgraph::partition_graph`] cuts the graph into
//!    shards of at most [`ShardConfig::max_shard_nodes`] nodes: connected
//!    components first (free parallelism), then oversized components are
//!    cut by [`dsv_treewidth::split_component`]. That splitter bisects a
//!    group above
//!    [`SEPARATOR_EXACT_LIMIT`](dsv_treewidth::separator::SEPARATOR_EXACT_LIMIT)
//!    (768) nodes in BFS order; only smaller groups are split along their
//!    branch structure by a tree-decomposition separator. Only groups above
//!    `max_shard_nodes` are cut, so at the default 4,096 every cut is a BFS
//!    bisection, and the separator runs only at small shard sizes. Each
//!    shard becomes its own [`VersionGraph`] together with its
//!    minimum-storage arborescence, in one parallel pass over the shards.
//! 2. **Parallel shard solves** — each shard gets an independent LMG-All
//!    run, started from its arborescence, under a deterministic slice of
//!    the storage budget. Shards solve on the thread pool with an
//!    order-stable collect, so the result is byte-identical at any
//!    `DSV_NUM_THREADS`. The [`CancelToken`] is polled per shard, making
//!    the whole pipeline preemptible.
//! 3. **Coarsened stitch** — a coarse graph with one super-node per shard
//!    (its *primary root*: the most expensive locally-materialized
//!    version) and the cheapest crossing edge per shard pair is solved
//!    with LMG-All again, deciding which shards keep a materialized root
//!    and which delta off a neighbour. Local plans are then stitched into
//!    one global [`StoragePlan`] and funnelled through
//!    [`Solution::checked`] like every other engine output.
//!
//! The storage accounting is exact (the coarse budget is the global budget
//! minus the storage every local plan keeps regardless of the coarse
//! decisions), so a stitched plan can never exceed the MSR budget. The
//! objective is heuristic: the differential suite and the `shard` bench
//! gate it against whole-graph LMG-All within [`SHARD_REGRET_BOUND`].
//!
//! ## Budget-independent work is done once per graph
//!
//! Nothing in stage 1 depends on the budget. Its output, the crate-private
//! `ShardPrep` (the [`Partition`], each shard's sub-graph, its
//! local→global edge map, its minimum-storage plan and that plan's
//! storage), is kept in the call's [`SharedWork`] memo under the key
//! `max_shard_nodes`, claimed by the graph's fingerprint like every other
//! cell. [`ShardedSolver`] takes it from [`SolveOptions::shared`], so
//! callers that reuse one [`SolveOptions`] on one graph (the versioning
//! service keeps a memo per graph fingerprint) partition once and pay only
//! the budget split, shard solves and stitch per budget.
//! [`sharded_msr`] runs the same code on a fresh memo, so every call is
//! cold. [`ShardStats::partition`] is the time the call actually spent:
//! a build when cold, a lookup when warm.
//!
//! Memory: a prep is about one more copy of the graph (sub-graphs with
//! their adjacency, edge maps, start plans and the partition's three `u32`
//! arrays), held as long as its memo lives. The service's memo LRU keeps
//! up to 32 graphs (`service::GRAPH_MEMOS`), so up to 32 preps.
//!
//! Setting [`ShardConfig::min_graph_nodes`] to `usize::MAX` disables the
//! path entirely (the solver reports a deterministic
//! [`SolveError::ResourceLimit`] and the engine falls through to
//! whole-graph solvers) — the escape hatch if sharding ever misbehaves in
//! production.

use super::{SharedWork, Solution, SolveError, SolveOptions, Solver, SolverMeta};
use crate::baselines::min_storage_plan;
use crate::cancel::CancelToken;
use crate::heuristics::lmg_all::{lmg_all_from, lmg_all_with_stats, LmgAllStats};
use crate::plan::{Parent, StoragePlan};
use crate::problem::ProblemKind;
use dsv_vgraph::{cost_add, partition_graph, Cost, EdgeId, NodeId, Partition, VersionGraph};
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Solver/registry name of the sharded path.
const SOLVER: &str = "Sharded-LMG";

/// Declared regret bound of the sharded plan's objective against a
/// whole-graph LMG-All solve of the same instance: the differential tests
/// and the `shard` bench assert
/// `sharded_total_retrieval <= SHARD_REGRET_BOUND * whole_graph_total_retrieval`.
pub const SHARD_REGRET_BOUND: f64 = 1.5;

/// Tuning knobs of the sharded pipeline.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Maximum shard size: oversized connected components are cut down to
    /// at most this many nodes before the per-shard solves.
    pub max_shard_nodes: usize,
    /// Graphs below this node count get a deterministic
    /// [`SolveError::ResourceLimit`] from [`ShardedSolver`] — sharding
    /// overhead only pays off at scale, and the refusal keeps small-graph
    /// engine dispatch (and its parallel-vs-sequential parity) unchanged.
    /// `usize::MAX` turns sharding off.
    pub min_graph_nodes: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            max_shard_nodes: 4_096,
            min_graph_nodes: 32_768,
        }
    }
}

/// Observability counters and stage timings of one sharded solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards solved.
    pub shards: usize,
    /// Node count of the largest shard.
    pub largest_shard: usize,
    /// Edges crossing between shards (dropped from the local solves,
    /// candidates for the coarse stitch).
    pub cut_edges: usize,
    /// Cross-shard delta decisions the coarse solve took (shards whose
    /// primary root is reconstructed from another shard).
    pub coarse_deltas: usize,
    /// Greedy moves across all local solves plus the coarse solve.
    pub moves: usize,
    /// Materialization moves across all solves.
    pub materializations: usize,
    /// Exact storage cost of the stitched plan.
    pub storage: Cost,
    /// Exact total retrieval cost of the stitched plan.
    pub total_retrieval: Cost,
    /// Wall time of the partition stage: getting the budget-independent
    /// prep (partition, shard sub-graphs and their minimum-storage
    /// arborescences), built when cold and looked up in the memo when
    /// warm, plus splitting the budget.
    pub partition: Duration,
    /// Wall time of the parallel shard solves (the whole-graph LMG-All
    /// solve when the partition yields a single shard).
    pub shard_solves: Duration,
    /// Wall time of the stitch: primary roots, crossing edges, the coarse
    /// solve and the global plan.
    pub stitch: Duration,
}

/// The budget-independent part of a sharded solve of one graph, built by
/// [`ShardPrep::build`] and kept in the [`SharedWork`] memo.
#[derive(Debug)]
pub(crate) enum ShardPrep {
    /// The partition is a single shard: the solve is whole-graph LMG-All,
    /// started from the graph's minimum-storage arborescence.
    Whole(StoragePlan),
    /// Two or more shards, in shard order.
    Split {
        /// The node → shard assignment.
        partition: Partition,
        /// One entry per shard of `partition`.
        shards: Vec<Shard>,
    },
}

/// One shard of a [`ShardPrep::Split`].
#[derive(Debug)]
pub(crate) struct Shard {
    /// The shard's sub-graph: members in ascending global order (local
    /// index `i` = `i`-th member), intra-shard edges in global edge-id
    /// order per node.
    sub: VersionGraph,
    /// Local edge id → global edge id, for the stitch.
    edge_map: Vec<EdgeId>,
    /// [`min_storage_plan`] of `sub`: LMG-All's starting plan.
    start: StoragePlan,
    /// Storage of `start`: the least storage the shard can be given.
    smin: Cost,
}

impl ShardPrep {
    /// Partition `g` into shards of at most `max_shard_nodes` nodes, then
    /// extract every shard and build its arborescence in one parallel,
    /// order-stable pass.
    pub(crate) fn build(g: &VersionGraph, max_shard_nodes: usize) -> ShardPrep {
        let partition = partition_graph(g, max_shard_nodes, &dsv_treewidth::split_component);
        if partition.len() <= 1 {
            return ShardPrep::Whole(min_storage_plan(g));
        }
        let mut local_of = vec![0u32; g.n()];
        for members in partition.iter() {
            for (i, &v) in members.iter().enumerate() {
                local_of[v as usize] = i as u32;
            }
        }
        let shards = (0..partition.len())
            .into_par_iter()
            .map(|s| Shard::extract(g, &partition, &local_of, s))
            .collect();
        ShardPrep::Split { partition, shards }
    }
}

impl Shard {
    fn extract(g: &VersionGraph, partition: &Partition, local_of: &[u32], s: usize) -> Shard {
        let members = partition.members(s);
        let mut sub = VersionGraph::new();
        for &v in members {
            sub.add_node(g.node_storage(NodeId(v)));
        }
        let mut edge_map = Vec::new();
        for &v in members {
            for &e in g.out_edges(NodeId(v)) {
                let ed = g.edge(e);
                if partition.shard_of(ed.dst) == s as u32 {
                    sub.add_edge(
                        NodeId(local_of[v as usize]),
                        NodeId(local_of[ed.dst.index()]),
                        ed.storage,
                        ed.retrieval,
                    );
                    edge_map.push(e);
                }
            }
        }
        let start = min_storage_plan(&sub);
        let smin = start.storage_cost(&sub);
        Shard {
            sub,
            edge_map,
            start,
            smin,
        }
    }
}

fn infeasible(detail: String) -> SolveError {
    SolveError::Infeasible {
        solver: SOLVER,
        detail,
    }
}

/// Stats for a solve that never actually sharded (a single shard): the
/// whole-graph numbers under the sharded bookkeeping.
fn whole_graph_stats(
    g: &VersionGraph,
    stats: &LmgAllStats,
    partition: Duration,
    shard_solves: Duration,
) -> ShardStats {
    ShardStats {
        shards: 1,
        largest_shard: g.n(),
        cut_edges: 0,
        coarse_deltas: 0,
        moves: stats.moves,
        materializations: stats.materializations,
        storage: stats.storage,
        total_retrieval: stats.total_retrieval,
        partition,
        shard_solves,
        stitch: Duration::ZERO,
    }
}

/// Solve MSR by partitioning, solving shards in parallel, and stitching
/// through a coarse cross-shard solve. Deterministic for a given graph,
/// budget, and config — independent of thread count. Returns
/// [`SolveError::Infeasible`] when the budget lies below the sum of the
/// shards' minimum storage — a *stricter* bar than whole-graph
/// feasibility (every shard needs its own materialized root before the
/// stitch can reclaim any), so in engine dispatch this surfaces as an
/// ordinary solver failure and budget-tight instances fall through to the
/// whole-graph solvers. Also returns [`SolveError::Cancelled`] when
/// `cancel` has fired before the partition or between shard solves.
///
/// Every call builds the budget-independent prep afresh; [`ShardedSolver`]
/// keeps it in [`SolveOptions::shared`] across calls instead.
///
/// A graph that yields a single shard reduces *exactly* to the whole-graph
/// LMG-All solve.
pub fn sharded_msr(
    g: &VersionGraph,
    storage_budget: Cost,
    cfg: &ShardConfig,
    cancel: &CancelToken,
) -> Result<(StoragePlan, ShardStats), SolveError> {
    solve_sharded(g, storage_budget, cfg, cancel, &SharedWork::default())
}

/// [`sharded_msr`] with the prep taken from (or built into) `shared`.
fn solve_sharded(
    g: &VersionGraph,
    storage_budget: Cost,
    cfg: &ShardConfig,
    cancel: &CancelToken,
    shared: &SharedWork,
) -> Result<(StoragePlan, ShardStats), SolveError> {
    if g.n() == 0 {
        return Ok((StoragePlan { parent: Vec::new() }, ShardStats::default()));
    }
    let t_partition = Instant::now();
    let cancelled = || SolveError::Cancelled { solver: SOLVER };
    let prep = shared
        .for_graph(g)
        .shard_prep(g, cfg.max_shard_nodes, cancel)
        .ok_or_else(cancelled)?;
    let (partition, shards) = match &*prep {
        ShardPrep::Whole(start) => {
            let partition_time = t_partition.elapsed();
            let t_solve = Instant::now();
            let (plan, stats) = lmg_all_from(g, start.clone(), storage_budget)
                .ok_or_else(|| infeasible("storage budget below minimum storage".into()))?;
            let stats = whole_graph_stats(g, &stats, partition_time, t_solve.elapsed());
            return Ok((plan, stats));
        }
        ShardPrep::Split { partition, shards } => (partition, shards),
    };
    let k = shards.len();

    // Deterministic budget split: every shard gets its minimum storage,
    // and the surplus is divided proportionally to shard sizes through a
    // prefix-sum floor formula (shares sum to the surplus exactly, and the
    // split is independent of thread count).
    let min_total: Cost = shards.iter().fold(0, |a, sh| cost_add(a, sh.smin));
    if min_total > storage_budget {
        return Err(infeasible(format!(
            "storage budget {storage_budget} below the shards' minimum storage {min_total}"
        )));
    }
    let surplus = storage_budget - min_total;
    let n_total = g.n() as u128;
    let mut budgets = Vec::with_capacity(k);
    let mut cum = 0u128;
    for sh in shards {
        let lo = (surplus as u128 * cum / n_total) as Cost;
        cum += sh.sub.n() as u128;
        let hi = (surplus as u128 * cum / n_total) as Cost;
        budgets.push(sh.smin + (hi - lo));
    }

    let partition_time = t_partition.elapsed();

    // Parallel, order-stable shard solves; the token is polled before each
    // shard so a long pipeline can be preempted between sub-solves.
    let t_solves = Instant::now();
    let locals: Vec<Option<(StoragePlan, LmgAllStats)>> = (0..k)
        .into_par_iter()
        .map(|s| {
            if cancel.is_cancelled() {
                return None;
            }
            lmg_all_from(&shards[s].sub, shards[s].start.clone(), budgets[s])
        })
        .collect();
    if cancel.is_cancelled() {
        return Err(cancelled());
    }
    let shard_solves = t_solves.elapsed();
    let t_stitch = Instant::now();
    let mut local_plans = Vec::with_capacity(k);
    let mut local_stats = Vec::with_capacity(k);
    for (s, solved) in locals.into_iter().enumerate() {
        // Unreachable in practice: each shard budget covers its minimum
        // storage by construction.
        let (plan, stats) =
            solved.ok_or_else(|| infeasible(format!("shard {s} budget below minimum storage")))?;
        local_plans.push(plan);
        local_stats.push(stats);
    }

    // Primary root per shard: the most expensive locally-materialized
    // version (ties: smallest global id) — the node with the most storage
    // to reclaim if the coarse solve deltas the shard off a neighbour.
    let primary_root: Vec<u32> = partition
        .iter()
        .zip(&local_plans)
        .map(|(members, plan)| {
            let mut best: Option<(Cost, u32)> = None;
            for (i, &v) in members.iter().enumerate() {
                if matches!(plan.parent[i], Parent::Materialized) {
                    let s = g.node_storage(NodeId(v));
                    if best.is_none_or(|(bs, _)| s > bs) {
                        best = Some((s, v));
                    }
                }
            }
            best.expect("every local plan materializes at least one version")
                .1
        })
        .collect();
    let local_retrievals: Vec<Vec<Cost>> = shards
        .iter()
        .zip(&local_plans)
        .map(|(sh, plan)| plan.retrievals(&sh.sub))
        .collect();

    // Cheapest crossing edge per ordered shard pair, among edges entering
    // the target shard's primary root. Coarse edge cost model: storage =
    // the delta's storage, retrieval = the source's retrieval under its
    // local plan + the delta's retrieval.
    let mut cut_edges = 0usize;
    let mut best_cross: HashMap<(u32, u32), (Cost, Cost, EdgeId)> = HashMap::new();
    for (idx, ed) in g.edges().iter().enumerate() {
        let (sa, sb) = (partition.shard_of(ed.src), partition.shard_of(ed.dst));
        if sa == sb {
            continue;
        }
        cut_edges += 1;
        if ed.dst.0 != primary_root[sb as usize] {
            continue;
        }
        let e = EdgeId(idx as u32);
        let r_src = {
            let members = partition.members(sa as usize);
            let local = members.partition_point(|&v| v < ed.src.0);
            local_retrievals[sa as usize][local]
        };
        let cand = (ed.storage, cost_add(r_src, ed.retrieval), e);
        best_cross
            .entry((sa, sb))
            .and_modify(|cur| {
                if cand < *cur {
                    *cur = cand;
                }
            })
            .or_insert(cand);
    }

    // Coarse graph: one node per shard (storage = its primary root's
    // materialization cost), edges sorted by shard pair for deterministic
    // ids. Its budget is the global budget minus the storage every local
    // plan keeps regardless of coarse decisions — so any coarse plan
    // within the coarse budget stitches to a plan within the global one.
    let mut coarse = VersionGraph::new();
    for &pr in &primary_root {
        coarse.add_node(g.node_storage(NodeId(pr)));
    }
    let mut cross: Vec<_> = best_cross.into_iter().collect();
    cross.sort_unstable_by_key(|&(pair, _)| pair);
    let mut coarse_edge_global = Vec::with_capacity(cross.len());
    for &((sa, sb), (storage, retrieval, e)) in &cross {
        coarse.add_edge(NodeId(sa), NodeId(sb), storage, retrieval);
        coarse_edge_global.push(e);
    }
    let kept: Cost = local_stats
        .iter()
        .zip(&primary_root)
        .map(|(st, &pr)| st.storage - g.node_storage(NodeId(pr)))
        .fold(0, cost_add);
    let coarse_budget = storage_budget - kept.min(storage_budget);
    let (coarse_plan, coarse_stats) = lmg_all_with_stats(&coarse, coarse_budget)
        .ok_or_else(|| infeasible("coarse graph infeasible under residual budget".into()))?;

    // Stitch: local decisions mapped through the edge maps, then the
    // coarse deltas re-parent primary roots across shards. Acyclic by
    // construction — local chains end at local roots, and the shard-level
    // dependency order is exactly the coarse plan's (validated) forest.
    let mut parent = vec![Parent::Materialized; g.n()];
    for (s, members) in partition.iter().enumerate() {
        for (i, &v) in members.iter().enumerate() {
            if let Parent::Delta(le) = local_plans[s].parent[i] {
                parent[v as usize] = Parent::Delta(shards[s].edge_map[le.index()]);
            }
        }
    }
    let mut coarse_deltas = 0usize;
    for (s, p) in coarse_plan.parent.iter().enumerate() {
        if let Parent::Delta(ce) = p {
            parent[primary_root[s] as usize] = Parent::Delta(coarse_edge_global[ce.index()]);
            coarse_deltas += 1;
        }
    }
    let plan = StoragePlan { parent };

    let costs = plan.costs(g);
    let stats = ShardStats {
        shards: k,
        largest_shard: partition.max_shard_len(),
        cut_edges,
        coarse_deltas,
        moves: local_stats.iter().map(|s| s.moves).sum::<usize>() + coarse_stats.moves,
        materializations: local_stats
            .iter()
            .map(|s| s.materializations)
            .sum::<usize>()
            + coarse_stats.materializations,
        storage: costs.storage,
        total_retrieval: costs.total_retrieval,
        partition: partition_time,
        shard_solves,
        stitch: t_stitch.elapsed(),
    };
    Ok((plan, stats))
}

/// The sharded hierarchical MSR solver. Registered **first** in
/// [`Engine::with_default_solvers`](super::Engine::with_default_solvers):
/// it deterministically refuses small instances (below
/// [`ShardConfig::min_graph_nodes`]), so everyday dispatch is unchanged —
/// but at scale the engine prefers the near-linear sharded path over a
/// monolithic solve.
#[derive(Clone, Debug, Default)]
pub struct ShardedSolver {
    /// Pipeline tuning; [`ShardConfig::default`] under default registration.
    pub config: ShardConfig,
}

impl Solver for ShardedSolver {
    fn name(&self) -> &'static str {
        SOLVER
    }

    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Msr { .. })
    }

    fn solve(
        &self,
        g: &VersionGraph,
        problem: ProblemKind,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let started = Instant::now();
        let ProblemKind::Msr { storage_budget } = problem else {
            return Err(SolveError::UnsupportedProblem {
                solver: SOLVER,
                problem: problem.name(),
            });
        };
        if g.n() < self.config.min_graph_nodes {
            return Err(SolveError::ResourceLimit {
                solver: SOLVER,
                detail: format!(
                    "graph has {} nodes, below the sharding threshold {}",
                    g.n(),
                    self.config.min_graph_nodes
                ),
            });
        }
        let (plan, stats) =
            solve_sharded(g, storage_budget, &self.config, &opts.cancel, &opts.shared)?;
        let mut meta = SolverMeta::new(SOLVER);
        meta.iterations = stats.moves;
        meta.reported_objective = Some(stats.total_retrieval);
        meta.shard = Some(stats);
        Solution::checked(g, problem, plan, meta, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::min_storage_value;
    use dsv_vgraph::generators::{shard_forest, CostModel};

    fn small_cfg() -> ShardConfig {
        ShardConfig {
            max_shard_nodes: 64,
            min_graph_nodes: 0,
        }
    }

    #[test]
    fn sharded_plan_validates_and_fits_budget() {
        let g = shard_forest(6, 50, 10, &CostModel::default(), 7);
        let budget = min_storage_value(&g) * 2;
        let (plan, stats) =
            sharded_msr(&g, budget, &small_cfg(), &CancelToken::inert()).expect("feasible");
        plan.validate(&g).expect("valid");
        assert!(plan.storage_cost(&g) <= budget);
        assert!(stats.shards >= 6, "six clusters force ≥ 6 shards");
        assert!(stats.largest_shard <= 64);
        assert_eq!(stats.storage, plan.storage_cost(&g));
    }

    #[test]
    fn single_shard_reduces_to_whole_graph_lmg_all() {
        let g = shard_forest(1, 40, 0, &CostModel::default(), 3);
        let budget = min_storage_value(&g) * 2;
        let cfg = ShardConfig {
            max_shard_nodes: 4_096,
            min_graph_nodes: 0,
        };
        let (plan, stats) = sharded_msr(&g, budget, &cfg, &CancelToken::inert()).expect("feasible");
        let (whole, wstats) = lmg_all_with_stats(&g, budget).expect("feasible");
        assert_eq!(plan, whole, "single shard must be the whole-graph solve");
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.moves, wstats.moves);
    }

    #[test]
    fn objective_within_declared_regret_of_whole_graph() {
        let g = shard_forest(8, 40, 16, &CostModel::default(), 11);
        // Half the materialize-all cost: comfortably above every shard's
        // minimum storage, and a budget both pipelines can actually use.
        let budget = StoragePlan::materialize_all(&g).storage_cost(&g) / 2;
        let (_, stats) =
            sharded_msr(&g, budget, &small_cfg(), &CancelToken::inert()).expect("feasible");
        let (_, whole) = lmg_all_with_stats(&g, budget).expect("feasible");
        let bound = (whole.total_retrieval as f64 * SHARD_REGRET_BOUND).ceil() as Cost;
        assert!(
            stats.total_retrieval <= bound,
            "sharded {} vs whole {} exceeds declared regret {SHARD_REGRET_BOUND}",
            stats.total_retrieval,
            whole.total_retrieval,
        );
    }

    #[test]
    fn infeasible_budget_is_typed() {
        let g = shard_forest(4, 30, 6, &CostModel::default(), 5);
        let err = sharded_msr(&g, 0, &small_cfg(), &CancelToken::inert()).expect_err("infeasible");
        assert!(matches!(err, SolveError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn cancellation_preempts_between_shards() {
        let g = shard_forest(4, 30, 6, &CostModel::default(), 5);
        let token = CancelToken::new();
        token.cancel();
        let err = sharded_msr(&g, min_storage_value(&g) * 2, &small_cfg(), &token)
            .expect_err("cancelled");
        assert!(matches!(err, SolveError::Cancelled { .. }), "{err}");
    }

    #[test]
    fn solver_refuses_small_graphs_deterministically() {
        let g = shard_forest(2, 20, 4, &CostModel::default(), 9);
        let solver = ShardedSolver::default();
        let problem = ProblemKind::Msr {
            storage_budget: min_storage_value(&g) * 2,
        };
        let err = solver
            .solve(&g, problem, &SolveOptions::default())
            .expect_err("below threshold");
        assert!(matches!(err, SolveError::ResourceLimit { .. }), "{err}");
    }

    #[test]
    fn empty_graph_yields_empty_plan() {
        let g = VersionGraph::new();
        let (plan, stats) =
            sharded_msr(&g, 0, &small_cfg(), &CancelToken::inert()).expect("trivially feasible");
        assert!(plan.parent.is_empty());
        assert_eq!(stats.shards, 0);
    }

    /// The stats with the stage timings zeroed: what must not vary.
    fn counters(stats: ShardStats) -> ShardStats {
        ShardStats {
            partition: Duration::ZERO,
            shard_solves: Duration::ZERO,
            stitch: Duration::ZERO,
            ..stats
        }
    }

    #[test]
    fn warm_and_cold_solves_agree_over_a_budget_sweep() {
        let inert = CancelToken::inert();
        for (g, cfg) in [
            (
                shard_forest(6, 50, 10, &CostModel::default(), 7),
                small_cfg(),
            ),
            (
                shard_forest(1, 40, 0, &CostModel::default(), 3),
                ShardConfig {
                    max_shard_nodes: 4_096,
                    min_graph_nodes: 0,
                },
            ),
        ] {
            let memo = SharedWork::default();
            let prep = memo
                .for_graph(&g)
                .shard_prep(&g, cfg.max_shard_nodes, &inert)
                .expect("not cancelled");
            let floor = match &*prep {
                ShardPrep::Whole(start) => start.storage_cost(&g),
                ShardPrep::Split { shards, .. } => shards.iter().map(|sh| sh.smin).sum(),
            };
            let top = StoragePlan::materialize_all(&g).storage_cost(&g);
            for i in 0..=8 {
                // From just below the shards' minimum storage to
                // materialize-all.
                let budget = floor - 1 + (top - floor + 1) * i / 8;
                let cold = sharded_msr(&g, budget, &cfg, &inert);
                let warm = solve_sharded(&g, budget, &cfg, &inert, &memo);
                match (cold, warm) {
                    (Ok((cp, cs)), Ok((wp, ws))) => {
                        assert_eq!(cp, wp, "budget {budget}");
                        assert_eq!(counters(cs), counters(ws), "budget {budget}");
                    }
                    (Err(ce), Err(we)) => assert_eq!(ce, we, "budget {budget}"),
                    (c, w) => panic!("budget {budget}: cold {c:?} vs warm {w:?}"),
                }
            }
        }
    }

    #[test]
    fn cached_arborescence_starts_lmg_all_exactly_like_a_fresh_one() {
        let g = shard_forest(6, 50, 10, &CostModel::default(), 7);
        let ShardPrep::Split { shards, .. } = ShardPrep::build(&g, 64) else {
            panic!("the fixture shards");
        };
        for sh in &shards {
            for mult in [1, 2, 3, 5, 8] {
                let budget = sh.smin * mult / 2;
                assert_eq!(
                    lmg_all_from(&sh.sub, sh.start.clone(), budget),
                    lmg_all_with_stats(&sh.sub, budget),
                    "budget {budget}"
                );
            }
        }
    }
}
