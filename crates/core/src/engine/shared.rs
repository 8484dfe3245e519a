//! Shared-work memo of heuristic results.
//!
//! [`SharedWork`] memoizes LMG-All and DP-MSR results per
//! `(graph fingerprint, budget)`, and one budget-independent cell per
//! shard size: the sharded solver's prep (partition, shard sub-graphs,
//! edge maps and per-shard minimum-storage arborescences, see
//! [`sharded`](super::sharded)), so a budget sweep on one graph builds it
//! once. Its reason to exist is reuse *across* calls: the versioning
//! service keeps one memo per graph fingerprint in an LRU, so a repeated `Solve` on a known graph, the service's
//! LMG-All heuristic tier and its cached tier all answer from plans that
//! were already computed. Concurrent requests on different threads may
//! ask for the same cell: the first requester computes, the others block
//! on the cell until the value is ready.
//!
//! Correctness rules:
//!
//! * A cell is keyed by budget (and root for DP-MSR), or by
//!   `max_shard_nodes` for the shard prep; the graph itself is pinned by a
//!   fingerprint claimed on first use. The engine swaps in a
//!   fresh memo when a caller reuses one `SolveOptions` across different
//!   graphs, so stale plans can never cross graphs.
//! * A computation aborted by cancellation is **discarded**, never cached:
//!   a waiter observing the discard either takes over the computation or
//!   gives up if its own token has also fired. Only complete results enter
//!   the cache, so cached values are deterministic.

use super::sharded::ShardPrep;
use crate::cancel::CancelToken;
use crate::heuristics::lmg_all::{lmg_all_with_stats, LmgAllStats};
use crate::plan::{PlanCosts, StoragePlan};
use crate::tree::dp_msr_on_graph;
use dsv_vgraph::{Cost, NodeId, VersionGraph};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum WorkKey {
    LmgAll { budget: Cost },
    DpMsr { budget: Cost, root: u32 },
    ShardPrep { max_shard_nodes: usize },
}

/// A completed memo value. The inner `Option` is the algorithm's own
/// feasibility answer (`None` = infeasible at this budget) — distinct from
/// "not computed because cancelled", which is never stored.
#[derive(Clone, Debug)]
enum WorkValue {
    LmgAll(Option<(StoragePlan, LmgAllStats)>),
    DpMsr(Option<(StoragePlan, PlanCosts)>),
    ShardPrep(Arc<ShardPrep>),
}

#[derive(Debug, Default)]
enum CellState {
    #[default]
    Empty,
    Computing,
    Done(WorkValue),
}

#[derive(Debug, Default)]
struct Cell {
    state: Mutex<CellState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct Inner {
    fingerprint: OnceLock<u64>,
    cells: Mutex<HashMap<WorkKey, Arc<Cell>>>,
}

/// Cloneable handle to a per-call heuristic-result memo (clones share the
/// same cache). The `Default` value is an empty, unclaimed memo.
#[derive(Clone, Debug, Default)]
pub struct SharedWork {
    inner: Arc<Inner>,
}

/// Graph identity for memo keys: the graph's **rolling fingerprint**
/// ([`VersionGraph::fingerprint`]), maintained in O(1) per mutation by the
/// graph itself rather than recomputed O(n + m) here on every lookup — the
/// online commit path consults memo keys once per absorbed mutation. Also
/// used by the service layer to key its per-graph memo LRU.
pub(crate) fn fingerprint(g: &VersionGraph) -> u64 {
    g.fingerprint()
}

impl SharedWork {
    /// The memo to use for a call on `g`: `self` if it is unclaimed or
    /// already claimed by `g`'s fingerprint, otherwise a fresh memo (the
    /// caller reused options across graphs).
    pub(crate) fn for_graph(&self, g: &VersionGraph) -> SharedWork {
        let fp = fingerprint(g);
        if *self.inner.fingerprint.get_or_init(|| fp) == fp {
            self.clone()
        } else {
            let fresh = SharedWork::default();
            let _ = fresh.inner.fingerprint.set(fp);
            fresh
        }
    }

    /// Get-or-compute with single-flight semantics. Returns `None` only
    /// when the computation was abandoned because `cancel` fired (either
    /// ours while waiting, or the computing thread's mid-run).
    fn get_or_compute(
        &self,
        key: WorkKey,
        cancel: &CancelToken,
        compute: impl Fn() -> (WorkValue, bool),
    ) -> Option<WorkValue> {
        let cell = {
            let mut cells = self.inner.cells.lock().expect("shared-work cells");
            cells.entry(key).or_default().clone()
        };
        let mut state = cell.state.lock().expect("shared-work cell");
        loop {
            match &*state {
                CellState::Done(v) => return Some(v.clone()),
                CellState::Empty => {
                    if cancel.is_cancelled() {
                        return None;
                    }
                    *state = CellState::Computing;
                    drop(state);
                    let (value, complete) = compute();
                    state = cell.state.lock().expect("shared-work cell");
                    if complete {
                        *state = CellState::Done(value.clone());
                        cell.ready.notify_all();
                        return Some(value);
                    }
                    // Aborted mid-compute: discard, hand the cell back.
                    *state = CellState::Empty;
                    cell.ready.notify_all();
                    return None;
                }
                CellState::Computing => {
                    // Bounded wait so a waiter's own deadline/cancellation
                    // is honoured even while another caller (possibly with
                    // an inert token) computes the value.
                    if cancel.is_cancelled() {
                        return None;
                    }
                    let (guard, _timed_out) = cell
                        .ready
                        .wait_timeout(state, std::time::Duration::from_millis(10))
                        .expect("shared-work cell");
                    state = guard;
                }
            }
        }
    }

    /// Non-computing lookup: the memoized LMG-All result at `budget` if a
    /// previous call already completed it, without triggering (or waiting
    /// on) any computation. This is the service's **cached degradation
    /// tier**: with no time left to solve, a previously-seen
    /// `(graph, budget)` can still be answered from the memo instantly.
    #[allow(clippy::type_complexity)]
    pub fn peek_lmg_all(&self, budget: Cost) -> Option<Option<(StoragePlan, LmgAllStats)>> {
        let cell = {
            let cells = self.inner.cells.lock().expect("shared-work cells");
            cells.get(&WorkKey::LmgAll { budget })?.clone()
        };
        let state = cell.state.lock().expect("shared-work cell");
        match &*state {
            CellState::Done(WorkValue::LmgAll(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// The graph fingerprint this memo is claimed by (`None` = unclaimed).
    pub(crate) fn claimed_fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint.get().copied()
    }

    /// LMG-All at `budget`, computed once per memo. Inner `None` =
    /// infeasible; outer `None` = abandoned because `cancel` fired.
    #[allow(clippy::type_complexity)]
    pub fn lmg_all(
        &self,
        g: &VersionGraph,
        budget: Cost,
        cancel: &CancelToken,
    ) -> Option<Option<(StoragePlan, LmgAllStats)>> {
        let value = self.get_or_compute(WorkKey::LmgAll { budget }, cancel, || {
            // LMG-All runs to completion (not preemptible), so its result
            // is always complete and cacheable.
            (WorkValue::LmgAll(lmg_all_with_stats(g, budget)), true)
        })?;
        match value {
            WorkValue::LmgAll(v) => Some(v),
            _ => unreachable!("key/value kinds match"),
        }
    }

    /// The DP-MSR plan at `(root, budget)`, computed once per memo.
    /// Inner `None` = infeasible/unreachable; outer `None` = abandoned
    /// because a cancellation fired (while computing or while waiting).
    #[allow(clippy::type_complexity)]
    pub fn dp_msr(
        &self,
        g: &VersionGraph,
        root: NodeId,
        budget: Cost,
        cancel: &CancelToken,
    ) -> Option<Option<(StoragePlan, PlanCosts)>> {
        let key = WorkKey::DpMsr {
            budget,
            root: root.0,
        };
        let value = self.get_or_compute(key, cancel, || {
            let result = dp_msr_on_graph(g, root, budget, cancel);
            // A `None` produced by a fired token is an aborted run, not an
            // infeasibility verdict — do not cache it.
            let complete = result.is_some() || !cancel.is_cancelled();
            (WorkValue::DpMsr(result), complete)
        })?;
        match value {
            WorkValue::DpMsr(v) => Some(v),
            _ => unreachable!("key/value kinds match"),
        }
    }

    /// The sharded solver's budget-independent prep for shards of at most
    /// `max_shard_nodes`, built once per memo and shared by every budget.
    /// `None` = abandoned because `cancel` fired before it was ready.
    pub(crate) fn shard_prep(
        &self,
        g: &VersionGraph,
        max_shard_nodes: usize,
        cancel: &CancelToken,
    ) -> Option<Arc<ShardPrep>> {
        let key = WorkKey::ShardPrep { max_shard_nodes };
        let value = self.get_or_compute(key, cancel, || {
            // The build runs to completion, so it is always cacheable.
            let prep = ShardPrep::build(g, max_shard_nodes);
            (WorkValue::ShardPrep(Arc::new(prep)), true)
        })?;
        match value {
            WorkValue::ShardPrep(p) => Some(p),
            _ => unreachable!("key/value kinds match"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_vgraph::generators::{random_tree, CostModel};

    #[test]
    fn lmg_all_is_computed_once_and_shared() {
        let g = random_tree(10, &CostModel::default(), 3);
        let budget = crate::baselines::min_storage_value(&g) * 2;
        let shared = SharedWork::default().for_graph(&g);
        let inert = CancelToken::inert();
        let a = shared.lmg_all(&g, budget, &inert).expect("not cancelled");
        let b = shared.lmg_all(&g, budget, &inert).expect("not cancelled");
        let (pa, _) = a.expect("feasible");
        let (pb, _) = b.expect("feasible");
        assert_eq!(pa, pb);
        // Exactly one cell per (kind, budget).
        assert_eq!(shared.inner.cells.lock().unwrap().len(), 1);
    }

    #[test]
    fn different_graphs_get_a_fresh_memo() {
        let g1 = random_tree(8, &CostModel::default(), 1);
        let g2 = random_tree(8, &CostModel::default(), 2);
        let shared = SharedWork::default();
        let first = shared.for_graph(&g1);
        let second = first.for_graph(&g2);
        assert!(!Arc::ptr_eq(&first.inner, &second.inner));
        // Same graph keeps the same memo.
        let again = first.for_graph(&g1);
        assert!(Arc::ptr_eq(&first.inner, &again.inner));
    }

    #[test]
    fn cancelled_requests_are_not_cached() {
        let g = random_tree(10, &CostModel::default(), 5);
        let budget = crate::baselines::min_storage_value(&g) * 2;
        let shared = SharedWork::default().for_graph(&g);
        let fired = CancelToken::new();
        fired.cancel();
        // A cancelled DP request yields nothing and leaves the cell empty…
        assert!(shared.dp_msr(&g, NodeId(0), budget, &fired).is_none());
        // …so a live request afterwards computes the real value.
        let live = shared
            .dp_msr(&g, NodeId(0), budget, &CancelToken::inert())
            .expect("not cancelled");
        assert!(live.is_some(), "feasible budget must produce a plan");
    }

    #[test]
    fn shard_prep_is_shared_across_budgets_and_renewed_per_graph_and_size() {
        use super::super::{ShardConfig, ShardedSolver, SolveOptions, Solver};
        use crate::problem::ProblemKind;
        use dsv_vgraph::generators::shard_forest;
        let mut g = shard_forest(4, 30, 6, &CostModel::default(), 5);
        let solver = ShardedSolver {
            config: ShardConfig {
                max_shard_nodes: 32,
                min_graph_nodes: 0,
            },
        };
        // The prep the solver left in the memo, looked up without computing.
        let cached = |memo: &SharedWork| {
            let key = WorkKey::ShardPrep {
                max_shard_nodes: 32,
            };
            let cell = memo.inner.cells.lock().unwrap().get(&key)?.clone();
            let state = cell.state.lock().unwrap();
            match &*state {
                CellState::Done(WorkValue::ShardPrep(p)) => Some(p.clone()),
                _ => None,
            }
        };
        let opts = SolveOptions::default();
        let inert = CancelToken::inert();
        let all = StoragePlan::materialize_all(&g).storage_cost(&g);
        let mut preps = Vec::new();
        for storage_budget in [all / 2, all * 2 / 3] {
            let problem = ProblemKind::Msr { storage_budget };
            solver.solve(&g, problem, &opts).expect("feasible");
            preps.push(cached(&opts.shared).expect("the solve filled the cell"));
        }
        assert!(
            Arc::ptr_eq(&preps[0], &preps[1]),
            "one prep for both budgets"
        );
        let memo = opts.shared.for_graph(&g);
        let other_size = memo.shard_prep(&g, 16, &inert).expect("not cancelled");
        assert!(!Arc::ptr_eq(&preps[0], &other_size));

        let v = g.add_node(1_000);
        g.add_edge(NodeId(0), v, 10, 10);
        let problem = ProblemKind::Msr {
            storage_budget: all * 2 / 3,
        };
        let sol = solver.solve(&g, problem, &opts).expect("feasible");
        sol.plan.validate(&g).expect("valid on the mutated graph");
        assert!(
            Arc::ptr_eq(&cached(&opts.shared).expect("kept"), &preps[0]),
            "the first graph's memo keeps its prep"
        );
        let fresh = opts.shared.for_graph(&g).shard_prep(&g, 32, &inert);
        assert!(
            !Arc::ptr_eq(&preps[0], &fresh.expect("not cancelled")),
            "a mutated graph gets its own prep"
        );
    }

    #[test]
    fn a_waiter_on_a_prep_being_built_returns_when_its_token_fires() {
        use super::super::{ShardConfig, ShardedSolver, SolveError, SolveOptions, Solver};
        use crate::problem::ProblemKind;
        use dsv_vgraph::generators::shard_forest;
        use std::sync::mpsc;
        let g = shard_forest(4, 30, 6, &CostModel::default(), 5);
        let memo = SharedWork::default().for_graph(&g);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let token = CancelToken::new();
        let solver = ShardedSolver {
            config: ShardConfig {
                max_shard_nodes: 32,
                min_graph_nodes: 0,
            },
        };
        let opts = SolveOptions {
            cancel: token.clone(),
            shared: memo.clone(),
            ..SolveOptions::default()
        };
        let problem = ProblemKind::Msr {
            storage_budget: StoragePlan::materialize_all(&g).storage_cost(&g) / 2,
        };
        std::thread::scope(|s| {
            // Hold the cell in `Computing` until the waiter has given up.
            let (builder_memo, builder_g) = (&memo, &g);
            let builder = s.spawn(move || {
                let key = WorkKey::ShardPrep {
                    max_shard_nodes: 32,
                };
                builder_memo.get_or_compute(key, &CancelToken::inert(), || {
                    started_tx.send(()).expect("waiter listening");
                    release_rx.recv().expect("released");
                    (
                        WorkValue::ShardPrep(Arc::new(ShardPrep::build(builder_g, 32))),
                        true,
                    )
                })
            });
            started_rx.recv().expect("builder started");
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                token.cancel();
            });
            let solved = solver.solve(&g, problem, &opts);
            // Release the builder before asserting, so a failure cannot
            // leave the scope waiting on it.
            release_tx.send(()).expect("builder waiting");
            assert!(builder.join().expect("builder").is_some());
            let err = solved.expect_err("cancelled");
            assert!(matches!(err, SolveError::Cancelled { .. }), "{err}");
        });
        // The builder's prep was cached: a live solve uses it.
        let live = SolveOptions {
            shared: memo,
            ..SolveOptions::default()
        };
        solver.solve(&g, problem, &live).expect("feasible");
    }
}
