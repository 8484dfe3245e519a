//! Quality side of the Section-6.2 ablations: the paper claims the
//! practical modifications (geometric discretization, storage indexing,
//! pruning) "show comparable results but significantly improve the running
//! time". Here we verify the *comparable results* part: coarsened
//! configurations must stay within bounded factors of the exact optimum,
//! and each lever must degrade gracefully.

use dataset_versioning::prelude::*;
use dsv_core::tree::msr_engine::{run_tree_msr, GammaGrid, TreeDpConfig};
use dsv_vgraph::generators::{caterpillar, random_tree, CostModel};

fn quality_at(g: &VersionGraph, cfg: TreeDpConfig, budget: Cost) -> Option<u64> {
    let t = extract_tree(g, NodeId(0))?;
    let dp = run_tree_msr(g, &t, cfg, &CancelToken::inert())?;
    // Reconstruct and re-cost exactly, like the experiments do.
    dp.plan_under(budget)
        .map(|(plan, _)| plan.costs(g).total_retrieval)
}

#[test]
fn gamma_grid_coarseness_degrades_gracefully() {
    let g = random_tree(40, &CostModel::default(), 3);
    let smin = min_storage_value(&g);
    let budget = smin * 2;
    let exact = quality_at(&g, TreeDpConfig::exact(), budget).expect("feasible");
    let mut last_quality = exact;
    for tick_shift in [0u32, 2, 4, 6] {
        let mut cfg = TreeDpConfig::heuristic(&g, Some(budget));
        if let GammaGrid::Linear(t) = cfg.gamma {
            cfg.gamma = GammaGrid::Linear(t << tick_shift);
        }
        let got = quality_at(&g, cfg, budget).expect("feasible");
        // Never better than exact; within 2x even at very coarse ticks.
        assert!(got >= exact);
        assert!(
            got as f64 <= exact as f64 * 2.0 + 1.0,
            "tick<<{tick_shift}: {got} vs exact {exact}"
        );
        let _ = last_quality;
        last_quality = got;
    }
}

#[test]
fn k_bucketing_overestimates_but_reconstruction_stays_feasible() {
    let g = caterpillar(10, 2, &CostModel::default(), 4);
    let smin = min_storage_value(&g);
    let budget = smin * 3 / 2;
    let exact = quality_at(&g, TreeDpConfig::exact(), budget).expect("feasible");
    for (limit, ratio) in [(1u32, 2.0f64), (4, 1.5), (16, 1.2)] {
        let mut cfg = TreeDpConfig::heuristic(&g, Some(budget));
        cfg.k_exact_limit = limit;
        cfg.k_ratio = ratio;
        let got = quality_at(&g, cfg, budget).expect("feasible");
        assert!(got >= exact);
        assert!(
            got as f64 <= exact as f64 * 2.5 + 1.0,
            "k-limit {limit}: {got} vs exact {exact}"
        );
    }
}

#[test]
fn storage_pruning_is_lossless_above_the_budget() {
    // Pruning at the queried budget must not change the answer relative to
    // pruning at a much larger bound (it only discards infeasible states).
    let g = random_tree(30, &CostModel::default(), 5);
    let smin = min_storage_value(&g);
    let budget = smin * 2;
    let mut tight = TreeDpConfig::exact();
    tight.storage_prune = Some(budget);
    let mut loose = TreeDpConfig::exact();
    loose.storage_prune = Some(budget * 10);
    let a = quality_at(&g, tight, budget).expect("feasible");
    let b = quality_at(&g, loose, budget).expect("feasible");
    assert_eq!(a, b);
}

#[test]
fn pareto_cap_trades_quality_smoothly() {
    let g = random_tree(50, &CostModel::default(), 6);
    let smin = min_storage_value(&g);
    let budget = smin * 2;
    let wide = {
        let mut cfg = TreeDpConfig::heuristic(&g, Some(budget));
        cfg.pareto_cap = 64;
        quality_at(&g, cfg, budget).expect("feasible")
    };
    for cap in [2usize, 4, 8] {
        let mut cfg = TreeDpConfig::heuristic(&g, Some(budget));
        cfg.pareto_cap = cap;
        let got = quality_at(&g, cfg, budget).expect("feasible");
        assert!(
            got as f64 <= wide as f64 * 3.0 + 1.0,
            "cap {cap}: {got} vs wide {wide}"
        );
    }
}

#[test]
fn btw_and_tree_dp_agree_on_trees() {
    // Two completely independent exact algorithms must agree where both
    // apply: the ultimate cross-validation.
    for seed in 0..4 {
        let g = random_tree(8, &CostModel::default(), seed + 60);
        let smin = min_storage_value(&g);
        for budget in [smin, smin * 2] {
            let t = extract_tree(&g, NodeId(0)).expect("connected");
            let tree_val = dsv_core::tree::msr_tree_exact(&g, &t)
                .best_under(budget)
                .map(|(_, r)| r);
            let btw_val = btw_msr(&g, &BtwConfig::default(), &CancelToken::inert())
                .and_then(|r| r.best_under(budget));
            assert_eq!(tree_val, btw_val, "seed {seed} budget {budget}");
        }
    }
}
