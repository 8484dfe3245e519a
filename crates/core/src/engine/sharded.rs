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
//!    split along their branch structure by the treewidth-separator
//!    splitter ([`dsv_treewidth::split_component`]).
//! 2. **Parallel shard solves** — each shard becomes its own
//!    [`VersionGraph`] and gets an independent LMG-All run under a
//!    deterministic slice of the storage budget. Shards solve on the
//!    thread pool with an order-stable collect, so the result is
//!    byte-identical at any `DSV_NUM_THREADS`. The [`CancelToken`] is
//!    polled per shard, making the whole pipeline preemptible.
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
//! Setting [`ShardConfig::min_graph_nodes`] to `usize::MAX` disables the
//! path entirely (the solver reports a deterministic
//! [`SolveError::ResourceLimit`] and the engine falls through to
//! whole-graph solvers) — the escape hatch if sharding ever misbehaves in
//! production.

use super::{Solution, SolveError, SolveOptions, Solver, SolverMeta};
use crate::baselines::min_storage_value;
use crate::cancel::CancelToken;
use crate::heuristics::lmg_all::{lmg_all_with_stats, LmgAllStats};
use crate::plan::{Parent, StoragePlan};
use crate::problem::ProblemKind;
use dsv_vgraph::{cost_add, partition_graph, Cost, EdgeId, NodeId, VersionGraph};
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

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

/// Observability counters of one sharded solve.
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
}

fn infeasible(detail: String) -> SolveError {
    SolveError::Infeasible {
        solver: SOLVER,
        detail,
    }
}

/// Stats for a solve that never actually sharded (single shard, or an
/// empty graph): the whole-graph numbers under the sharded bookkeeping.
fn whole_graph_stats(g: &VersionGraph, stats: &LmgAllStats) -> ShardStats {
    ShardStats {
        shards: 1,
        largest_shard: g.n(),
        cut_edges: 0,
        coarse_deltas: 0,
        moves: stats.moves,
        materializations: stats.materializations,
        storage: stats.storage,
        total_retrieval: stats.total_retrieval,
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
/// `cancel` fires between shard solves.
///
/// A graph that yields a single shard reduces *exactly* to the whole-graph
/// LMG-All solve.
pub fn sharded_msr(
    g: &VersionGraph,
    storage_budget: Cost,
    cfg: &ShardConfig,
    cancel: &CancelToken,
) -> Result<(StoragePlan, ShardStats), SolveError> {
    if g.n() == 0 {
        return Ok((StoragePlan { parent: Vec::new() }, ShardStats::default()));
    }
    let partition = partition_graph(g, cfg.max_shard_nodes, &dsv_treewidth::split_component);
    let k = partition.len();
    if k <= 1 {
        let (plan, stats) = lmg_all_with_stats(g, storage_budget)
            .ok_or_else(|| infeasible("storage budget below minimum storage".into()))?;
        let stats = whole_graph_stats(g, &stats);
        return Ok((plan, stats));
    }

    // Extract one sub-graph per shard: nodes in ascending global order (so
    // local index i = i-th member), intra-shard edges in global edge-id
    // order per node, with the local→global edge map kept for the stitch.
    let mut subs: Vec<VersionGraph> = Vec::with_capacity(k);
    let mut edge_maps: Vec<Vec<EdgeId>> = Vec::with_capacity(k);
    let mut local_of = vec![u32::MAX; g.n()];
    for members in partition.iter() {
        for (i, &v) in members.iter().enumerate() {
            local_of[v as usize] = i as u32;
        }
        let mut sub = VersionGraph::new();
        for &v in members {
            sub.add_node(g.node_storage(NodeId(v)));
        }
        let mut edge_map = Vec::new();
        for &v in members {
            let a = local_of[v as usize];
            for &e in g.out_edges(NodeId(v)) {
                let dst = g.edge(e).dst;
                if partition.shard_of(dst) == partition.shard_of(NodeId(v)) {
                    let ed = g.edge(e);
                    sub.add_edge(
                        NodeId(a),
                        NodeId(local_of[dst.index()]),
                        ed.storage,
                        ed.retrieval,
                    );
                    edge_map.push(e);
                }
            }
        }
        for &v in members {
            local_of[v as usize] = u32::MAX;
        }
        subs.push(sub);
        edge_maps.push(edge_map);
    }

    // Deterministic budget split: every shard gets its minimum storage,
    // and the surplus is divided proportionally to shard sizes through a
    // prefix-sum floor formula (shares sum to the surplus exactly, and the
    // split is independent of thread count).
    let smin: Vec<Cost> = subs.iter().map(min_storage_value).collect();
    let min_total: Cost = smin.iter().fold(0, |a, &b| cost_add(a, b));
    if min_total > storage_budget {
        return Err(infeasible(format!(
            "storage budget {storage_budget} below the shards' minimum storage {min_total}"
        )));
    }
    let surplus = storage_budget - min_total;
    let n_total = g.n() as u128;
    let mut budgets = Vec::with_capacity(k);
    let mut cum = 0u128;
    for (s, sub) in subs.iter().enumerate() {
        let lo = (surplus as u128 * cum / n_total) as Cost;
        cum += sub.n() as u128;
        let hi = (surplus as u128 * cum / n_total) as Cost;
        budgets.push(smin[s] + (hi - lo));
    }

    // Parallel, order-stable shard solves; the token is polled before each
    // shard so a long pipeline can be preempted between sub-solves.
    let locals: Vec<Option<(StoragePlan, LmgAllStats)>> = (0..k)
        .into_par_iter()
        .map(|s| {
            if cancel.is_cancelled() {
                return None;
            }
            lmg_all_with_stats(&subs[s], budgets[s])
        })
        .collect();
    if cancel.is_cancelled() {
        return Err(SolveError::Cancelled { solver: SOLVER });
    }
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
    let local_retrievals: Vec<Vec<Cost>> = subs
        .iter()
        .zip(&local_plans)
        .map(|(sub, plan)| plan.retrievals(sub))
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
                parent[v as usize] = Parent::Delta(edge_maps[s][le.index()]);
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
        let (plan, stats) = sharded_msr(g, storage_budget, &self.config, &opts.cancel)?;
        let mut meta = SolverMeta::new(SOLVER);
        meta.iterations = stats.moves;
        meta.reported_objective = Some(stats.total_retrieval);
        Solution::checked(g, problem, plan, meta, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
