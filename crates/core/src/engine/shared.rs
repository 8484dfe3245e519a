//! Shared-work memo of heuristic results.
//!
//! [`SharedWork`] memoizes LMG-All and DP-MSR results per
//! `(graph fingerprint, budget)`. Its reason to exist is reuse *across*
//! calls: the versioning service keeps one memo per graph fingerprint in
//! an LRU, so a repeated `Solve` on a known graph, the service's
//! LMG-All heuristic tier and its cached tier all answer from plans that
//! were already computed. Concurrent requests on different threads may
//! ask for the same cell: the first requester computes, the others block
//! on the cell until the value is ready.
//!
//! Correctness rules:
//!
//! * A cell is keyed by budget (and root for DP-MSR); the graph itself is
//!   pinned by a fingerprint claimed on first use. The engine swaps in a
//!   fresh memo when a caller reuses one `SolveOptions` across different
//!   graphs, so stale plans can never cross graphs.
//! * A computation aborted by cancellation is **discarded**, never cached:
//!   a waiter observing the discard either takes over the computation or
//!   gives up if its own token has also fired. Only complete results enter
//!   the cache, so cached values are deterministic.

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
}

/// A completed memo value. The inner `Option` is the algorithm's own
/// feasibility answer (`None` = infeasible at this budget) — distinct from
/// "not computed because cancelled", which is never stored.
#[derive(Clone, Debug)]
enum WorkValue {
    LmgAll(Option<(StoragePlan, LmgAllStats)>),
    DpMsr(Option<(StoragePlan, PlanCosts)>),
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
            WorkValue::DpMsr(_) => unreachable!("key/value kinds match"),
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
            WorkValue::LmgAll(_) => unreachable!("key/value kinds match"),
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
}
