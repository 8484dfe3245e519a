//! Differential oracles for the greedy heuristics — test support, not API.
//!
//! [`lmg`](super::lmg::lmg) and [`lmg_all`](super::lmg_all::lmg_all)
//! always run the incremental loop (see the parent module docs). This
//! module keeps the from-scratch formulation of each — rebuild the
//! `PlanView`, rescan every candidate, apply the best move — alive as
//! the oracle the incremental loops must match **move for move**, plus
//! observe-hooked entry points into the incremental loops so a test can
//! compare the two move sequences (`tests/lmg_incremental.rs`).
//!
//! The from-scratch loops cost `O(n + m)` per move; nothing outside tests
//! and benchmarks (the `repro --experiment lmg` speedup table and the
//! `lmg_scaling` bench time them against the incremental loop) should
//! call them.

use super::lmg::{self, LmgStats};
use super::lmg_all::{self, LmgAllStats, Move};
use super::{PlanView, Ratio};
use crate::baselines::min_storage_plan;
use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::{Cost, EdgeId, NodeId, VersionGraph};
use rayon::prelude::*;

/// Threshold (candidate count, edges + nodes) above which the LMG-All
/// oracle's candidate scan uses rayon.
const PAR_THRESHOLD: usize = 8_192;

/// [`lmg_with_stats`](super::lmg::lmg_with_stats) invoking `observe` with
/// every materialized node and the plan right after the move.
pub fn lmg_traced(
    g: &VersionGraph,
    storage_budget: Cost,
    observe: impl FnMut(u32, &StoragePlan),
) -> Option<(StoragePlan, LmgStats)> {
    lmg::run_incremental(g, storage_budget, observe)
}

/// [`lmg_all_with_stats`](super::lmg_all::lmg_all_with_stats) invoking
/// `observe` with every applied move and the plan right after it.
pub fn lmg_all_traced(
    g: &VersionGraph,
    storage_budget: Cost,
    observe: impl FnMut(Move, &StoragePlan),
) -> Option<(StoragePlan, LmgAllStats)> {
    lmg_all::run_incremental(g, min_storage_plan(g), storage_budget, observe)
}

/// The from-scratch LMG loop: rebuild the `PlanView` and rescan every
/// eligible node each iteration, invoking `observe` with every
/// materialized node and the plan right after the move.
pub fn lmg_scratch(
    g: &VersionGraph,
    storage_budget: Cost,
    mut observe: impl FnMut(u32, &StoragePlan),
) -> Option<(StoragePlan, LmgStats)> {
    let mut plan = min_storage_plan(g);
    if plan.storage_cost(g) > storage_budget {
        return None;
    }
    let mut stats = LmgStats::default();
    // U of Algorithm 1: versions still eligible for materialization.
    let mut eligible: Vec<bool> = plan
        .parent
        .iter()
        .map(|p| matches!(p, Parent::Delta(_)))
        .collect();

    loop {
        let view = PlanView::new(g, &plan);
        let mut best: Option<(Ratio, usize)> = None;
        for (v, &is_eligible) in eligible.iter().enumerate() {
            if !is_eligible {
                continue;
            }
            let sv = g.node_storage(NodeId::new(v));
            let paid = view.paid[v];
            // Storage delta of replacing the stored delta by materialization.
            let new_storage = view.storage - paid + sv;
            if new_storage > storage_budget {
                continue;
            }
            let dr = view.r[v] as u128 * view.size[v] as u128;
            if dr == 0 {
                continue; // no retrieval benefit; ρ would be 0
            }
            let ratio = if sv <= paid {
                Ratio::Infinite {
                    dr,
                    ds: (paid - sv) as u128,
                }
            } else {
                Ratio::Finite {
                    dr,
                    ds: (sv - paid) as u128,
                }
            };
            if best.is_none_or(|(b, _)| ratio > b) {
                best = Some((ratio, v));
            }
        }
        let Some((_, v)) = best else {
            stats.total_retrieval = view.total_retrieval;
            stats.storage = view.storage;
            return Some((plan, stats));
        };
        plan.parent[v] = Parent::Materialized;
        eligible[v] = false;
        stats.moves += 1;
        observe(v as u32, &plan);
    }
}

/// The from-scratch LMG-All loop: rebuild the `PlanView` and rescan all
/// `m + n` candidates (one parallel pass when large) every iteration,
/// invoking `observe` with every applied move and the plan right after it.
pub fn lmg_all_scratch(
    g: &VersionGraph,
    storage_budget: Cost,
    mut observe: impl FnMut(Move, &StoragePlan),
) -> Option<(StoragePlan, LmgAllStats)> {
    let mut plan = min_storage_plan(g);
    if plan.storage_cost(g) > storage_budget {
        return None;
    }
    let mut stats = LmgAllStats::default();

    loop {
        let view = PlanView::new(g, &plan);

        // Evaluate candidate `idx` of one combined scan: the `m` edge
        // replacements, then the `n` materializations (the auxiliary edges
        // of the extended graph), so a large graph's O(n) materialization
        // pass parallelizes with the edge pass instead of serializing
        // after it. `(Ratio, Move)` is a total order (indices are unique),
        // so the maximum is independent of scan order.
        let eval = |idx: usize| -> Option<(Ratio, Move)> {
            let (mv, dr, paid, new_cost) = if idx < g.m() {
                let e = &g.edges()[idx];
                let (u, v) = (e.src.index(), e.dst.index());
                if plan.parent[v] == Parent::Delta(EdgeId(idx as u32)) {
                    return None; // already stored
                }
                // Cycle guard (Algorithm 7 line 7): u must not be in subtree(v).
                if view.is_ancestor(v, u) {
                    return None;
                }
                let new_r = view.r[u].checked_add(e.retrieval)?;
                // ΔR over all dependants of v: (new - old) * size(v).
                let old_r = view.r[v];
                if new_r > old_r {
                    return None; // Algorithm 7 line 9: retrieval must not grow
                }
                let dr = (old_r - new_r) as u128 * view.size[v] as u128;
                let mv = Move::Reparent { edge: idx as u32 };
                (mv, dr, view.paid[v], e.storage)
            } else {
                let v = idx - g.m();
                if matches!(plan.parent[v], Parent::Materialized) {
                    return None;
                }
                let dr = view.r[v] as u128 * view.size[v] as u128;
                let mv = Move::Materialize { node: v as u32 };
                (mv, dr, view.paid[v], g.node_storage(NodeId::new(v)))
            };
            let ratio = if new_cost <= paid {
                let ds = (paid - new_cost) as u128;
                if dr == 0 && ds == 0 {
                    return None; // no progress
                }
                Ratio::Infinite { dr, ds }
            } else {
                let ds = new_cost - paid;
                if view.storage + ds > storage_budget || dr == 0 {
                    return None;
                }
                Ratio::Finite { dr, ds: ds as u128 }
            };
            Some((ratio, mv))
        };
        let total = g.m() + g.n();
        let best = if total >= PAR_THRESHOLD {
            (0..total)
                .into_par_iter()
                .filter_map(eval)
                .max_by(|a, b| a.cmp(b))
        } else {
            (0..total).filter_map(eval).max()
        };

        let Some((_, mv)) = best else {
            stats.total_retrieval = view.total_retrieval;
            stats.storage = view.storage;
            return Some((plan, stats));
        };
        if matches!(mv, Move::Materialize { .. }) {
            stats.materializations += 1;
        }
        let (v, parent) = mv.entry(g);
        plan.parent[v] = parent;
        stats.moves += 1;
        observe(mv, &plan);
    }
}
