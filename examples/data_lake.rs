//! Data-lake scenario from the paper's introduction: "huge tabular datasets
//! like product catalogs might require a few records (or rows) to be
//! modified periodically, resulting in a new version for each such
//! modification."
//!
//! We simulate a year of nightly catalog snapshots (a long version chain
//! with occasional large schema-migration commits), then answer the
//! operator questions the paper motivates:
//!
//! 1. What does the storage/retrieval frontier look like (MSR)?
//! 2. If every analyst query must reconstruct its snapshot in bounded time,
//!    what is the cheapest checkpoint placement (BMR)?
//! 3. How much worse is naive "checkpoint every k days" (the git-pack-style
//!    baseline)?
//!
//! Run with: `cargo run --example data_lake`

use dataset_versioning::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Nightly snapshots: mostly small row edits, monthly schema migrations
/// that rewrite a large fraction of the table.
fn build_catalog_history(days: usize, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let base_size: u64 = 5_000_000; // ~5 MB catalog
    let mut size = base_size;
    let mut prev: Option<NodeId> = None;
    for day in 0..days {
        let migration = day > 0 && day % 30 == 0;
        // Daily churn: 0.1-1% of rows; migrations rewrite 20-40%.
        let churn = if migration {
            (size as f64 * rng.gen_range(0.20..0.40)) as u64
        } else {
            (size as f64 * rng.gen_range(0.001..0.01)) as u64
        };
        size += churn / 10; // catalogs grow slowly
        let v = g.add_labelled_node(size, format!("day{day:03}"));
        if let Some(p) = prev {
            // Forward delta: the new/changed rows; backward: the old rows.
            let fwd = churn.max(64);
            let bwd = (churn / 2).max(64);
            g.add_edge(p, v, fwd, fwd);
            g.add_edge(v, p, bwd, bwd);
        }
        prev = Some(v);
    }
    g
}

fn mb(x: u64) -> f64 {
    x as f64 / 1e6
}

fn main() {
    let g = build_catalog_history(365, 7);
    println!(
        "catalog history: {} nightly snapshots, {:.1} GB if fully materialized",
        g.n(),
        g.total_node_storage() as f64 / 1e9
    );
    let smin = min_storage_value(&g);
    println!(
        "minimum storage (one materialization + deltas): {:.1} MB\n",
        mb(smin)
    );

    // 1. The MSR frontier, from one DP-MSR run.
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let budgets: Vec<Cost> = (0..6).map(|i| smin + smin * i * 2 / 5).collect();
    let sweep = engine
        .solve_sweep(&g, &budgets, &opts)
        .expect("chain is connected");
    println!("DP-MSR frontier:");
    for (b, sol) in budgets.iter().zip(&sweep) {
        match sol.as_ref().map(|s| s.costs) {
            Some(c) => println!(
                "  S <= {:>7.1} MB -> storage {:>7.1} MB, mean snapshot rebuild {:>7.2} MB",
                mb(*b),
                mb(c.storage),
                mb(c.total_retrieval) / g.n() as f64
            ),
            None => println!(
                "  S <= {:>7.1} MB -> infeasible on the extracted tree",
                mb(*b)
            ),
        }
    }

    // 2. Bounded rebuild time: BMR through the engine — DP-BMR wins the
    //    dispatch order, MP is requested by name as the baseline.
    let bound: Cost = 2_000_000; // <= 2 MB of delta replay per rebuild
    let bmr = ProblemKind::Bmr {
        retrieval_budget: bound,
    };
    let dp = engine
        .solve(&g, bmr, &opts)
        .expect("BMR is always feasible");
    let mp = engine
        .solve_with("MP", &g, bmr, &opts)
        .expect("BMR is always feasible");
    println!(
        "\nBMR, rebuild bound {:.1} MB: {} stores {:.1} MB ({} checkpoints); MP stores {:.1} MB ({} checkpoints)",
        mb(bound),
        dp.meta.solver,
        mb(dp.costs.storage),
        dp.plan.materialized_count(),
        mb(mp.costs.storage),
        mp.plan.materialized_count(),
    );

    // 3. Naive periodic checkpointing at the same worst-case rebuild cost.
    for k in [7usize, 30, 90] {
        let ck = checkpoint_plan(&g, k);
        let c = ck.costs(&g);
        println!(
            "checkpoint every {k:>2} days: storage {:>8.1} MB, worst rebuild {:>6.2} MB, mean {:>6.3} MB",
            mb(c.storage),
            mb(c.max_retrieval),
            mb(c.total_retrieval) / g.n() as f64
        );
    }
    println!(
        "\nTakeaway: cost-aware checkpoint placement (DP-BMR) undercuts periodic\n\
         checkpointing because migrations make deltas heterogeneous — exactly\n\
         the effect the paper's version graphs model."
    );
}
