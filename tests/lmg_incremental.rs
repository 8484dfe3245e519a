//! Differential suite for the incremental greedy loops: on seeded
//! ER/path/tree graphs across budget sweeps, the incremental LMG and
//! LMG-All must pick **byte-identical move sequences** (and therefore
//! plans, move counts, and stats) to the from-scratch oracle loops, and
//! every intermediate plan they pass through must validate and stay
//! within budget.

use dataset_versioning::core::heuristics::lmg::lmg_with_stats;
use dataset_versioning::core::heuristics::lmg_all::{lmg_all_with_stats, Move};
use dataset_versioning::core::heuristics::oracle::{
    lmg_all_scratch, lmg_all_traced, lmg_scratch, lmg_traced,
};
use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{
    bidirectional_path, erdos_renyi_bidirectional, random_tree, CostModel,
};

fn test_graphs() -> Vec<(String, VersionGraph)> {
    let mut graphs = Vec::new();
    for seed in 0..4 {
        graphs.push((
            format!("er-{seed}"),
            erdos_renyi_bidirectional(24, 0.25, &CostModel::default(), seed),
        ));
        graphs.push((
            format!("tree-{seed}"),
            random_tree(20, &CostModel::default(), seed),
        ));
        graphs.push((
            format!("path-{seed}"),
            bidirectional_path(22, &CostModel::default(), seed),
        ));
    }
    // A single-weight instance exercises the Infinite-ratio tie-breaks.
    graphs.push((
        "er-single-weight".into(),
        erdos_renyi_bidirectional(20, 0.3, &CostModel::single_weight(), 11),
    ));
    graphs
}

fn budgets(g: &VersionGraph) -> Vec<Cost> {
    let smin = min_storage_value(g);
    vec![
        smin,
        smin + smin / 4,
        smin * 2,
        smin * 4,
        smin * 16,
        u64::MAX / 8,
    ]
}

/// LMG-All: move sequence, final plan, and stats are byte-identical
/// between the incremental loop and the from-scratch oracle.
#[test]
fn lmg_all_incremental_matches_oracle() {
    for (name, g) in test_graphs() {
        for budget in budgets(&g) {
            let mut oracle_moves: Vec<Move> = Vec::new();
            let oracle =
                lmg_all_scratch(&g, budget, |mv, _| oracle_moves.push(mv)).expect("feasible");
            let mut inc_moves: Vec<Move> = Vec::new();
            let inc = lmg_all_traced(&g, budget, |mv, _| inc_moves.push(mv)).expect("feasible");
            assert_eq!(
                oracle_moves, inc_moves,
                "move sequences diverge on {name} at budget {budget}"
            );
            assert_eq!(
                oracle.0, inc.0,
                "plans diverge on {name} at budget {budget}"
            );
            assert_eq!(
                oracle.1, inc.1,
                "stats diverge on {name} at budget {budget}"
            );
        }
    }
}

/// LMG: same differential guarantee.
#[test]
fn lmg_incremental_matches_oracle() {
    for (name, g) in test_graphs() {
        for budget in budgets(&g) {
            let mut oracle_moves: Vec<u32> = Vec::new();
            let oracle = lmg_scratch(&g, budget, |v, _| oracle_moves.push(v)).expect("feasible");
            let mut inc_moves: Vec<u32> = Vec::new();
            let inc = lmg_traced(&g, budget, |v, _| inc_moves.push(v)).expect("feasible");
            assert_eq!(
                oracle_moves, inc_moves,
                "move sequences diverge on {name} at budget {budget}"
            );
            assert_eq!(oracle, inc, "results diverge on {name} at budget {budget}");
        }
    }
}

/// Infeasible budgets are refused identically by both loops.
#[test]
fn infeasible_budgets_agree() {
    let g = random_tree(15, &CostModel::default(), 3);
    let below = min_storage_value(&g) - 1;
    assert!(lmg_all_scratch(&g, below, |_, _| {}).is_none());
    assert!(lmg_all_with_stats(&g, below).is_none());
    assert!(lmg_scratch(&g, below, |_, _| {}).is_none());
    assert!(lmg_with_stats(&g, below).is_none());
}

/// Property loop: every intermediate plan of the incremental runs (after
/// every single move) validates structurally and respects the budget, and
/// the reported stats match an independent costing of the final plan.
#[test]
fn every_intermediate_plan_validates_and_fits_budget() {
    for (name, g) in test_graphs() {
        let smin = min_storage_value(&g);
        for budget in [smin, smin * 2, smin * 8] {
            let mut steps = 0usize;
            let (plan, stats) = lmg_all_traced(&g, budget, |_, p| {
                steps += 1;
                p.validate(&g)
                    .unwrap_or_else(|e| panic!("invalid intermediate plan on {name}: {e}"));
                assert!(
                    p.storage_cost(&g) <= budget,
                    "intermediate plan over budget on {name}"
                );
            })
            .expect("feasible");
            assert_eq!(steps, stats.moves, "observer saw every move on {name}");
            let costs = plan.costs(&g);
            assert_eq!(stats.total_retrieval, costs.total_retrieval, "{name}");
            assert_eq!(stats.storage, costs.storage, "{name}");
            assert!(costs.storage <= budget);

            let mut lmg_steps = 0usize;
            let (lplan, lstats) = lmg_traced(&g, budget, |_, p| {
                lmg_steps += 1;
                p.validate(&g)
                    .unwrap_or_else(|e| panic!("invalid intermediate LMG plan on {name}: {e}"));
                assert!(p.storage_cost(&g) <= budget);
            })
            .expect("feasible");
            assert_eq!(lmg_steps, lstats.moves);
            let lcosts = lplan.costs(&g);
            assert_eq!(lstats.total_retrieval, lcosts.total_retrieval, "{name}");
            assert_eq!(lstats.storage, lcosts.storage, "{name}");
        }
    }
}

/// The public entry points (`lmg_all`, `lmg`) run the incremental loops
/// and must therefore equal the oracle as well — this is the contract the
/// engine's parity tests build on.
#[test]
fn public_entry_points_match_oracle() {
    let g = erdos_renyi_bidirectional(18, 0.3, &CostModel::default(), 7);
    let budget = min_storage_value(&g) * 3;
    let via_default = lmg_all(&g, budget).expect("feasible");
    let via_oracle = lmg_all_scratch(&g, budget, |_, _| {}).expect("feasible").0;
    assert_eq!(via_default, via_oracle);
    let via_default = lmg(&g, budget).expect("feasible");
    let via_oracle = lmg_scratch(&g, budget, |_, _| {}).expect("feasible").0;
    assert_eq!(via_default, via_oracle);
}
