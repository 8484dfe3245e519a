//! Differential suite for the sharded hierarchical solving path.
//!
//! Pins the contract of `sharded_msr` / `ShardedSolver` against the
//! whole-graph solvers it approximates:
//!
//! * every stitched plan validates and fits the MSR budget on multi-shard
//!   fixtures (multi-component forests and single-component merged ones);
//! * the sharded objective stays within the declared `SHARD_REGRET_BOUND`
//!   of a whole-graph LMG-All solve of the same instance;
//! * plans are byte-identical across thread-pool widths (1 vs 4) — the
//!   parallel shard fan-out is an implementation detail;
//! * a graph that yields a single shard reduces *exactly* to the
//!   whole-graph solve;
//! * engine dispatch: `ShardedSolver` wins at scale, refuses below its
//!   threshold with a deterministic `ResourceLimit`, and never disturbs
//!   small-graph dispatch.

use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{shard_forest, CostModel};
use dsv_core::heuristics::lmg_all::lmg_all_with_stats;

fn cfg(max_shard_nodes: usize) -> ShardConfig {
    ShardConfig {
        max_shard_nodes,
        min_graph_nodes: 0,
    }
}

/// Fixtures: (name, graph) pairs covering disconnected forests, a single
/// merged component, and branchy clusters with chords.
fn fixtures() -> Vec<(String, VersionGraph)> {
    let model = CostModel::default();
    vec![
        (
            "forest-disconnected".into(),
            shard_forest(6, 40, 0, &model, 1),
        ),
        ("forest-linked".into(), shard_forest(6, 40, 12, &model, 2)),
        (
            "forest-dense-links".into(),
            shard_forest(4, 60, 40, &model, 3),
        ),
        (
            "forest-many-small".into(),
            shard_forest(12, 15, 24, &model, 4),
        ),
    ]
}

/// A budget both pipelines can use: half the materialize-all cost, which
/// dominates every shard's minimum storage under the default cost model.
fn budget_for(g: &VersionGraph) -> Cost {
    StoragePlan::materialize_all(g).storage_cost(g) / 2
}

#[test]
fn sharded_plans_validate_and_fit_budget_on_fixtures() {
    for (name, g) in fixtures() {
        let budget = budget_for(&g);
        let (plan, stats) = sharded_msr(&g, budget, &cfg(48), &CancelToken::inert())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        plan.validate(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            plan.storage_cost(&g) <= budget,
            "{name}: storage exceeds budget"
        );
        assert!(stats.shards > 1, "{name}: fixtures must actually shard");
        assert!(
            stats.largest_shard <= 48,
            "{name}: shard size bound violated"
        );
    }
}

#[test]
fn sharded_objective_within_regret_bound_of_whole_graph_lmg_all() {
    for (name, g) in fixtures() {
        let budget = budget_for(&g);
        let (_, stats) =
            sharded_msr(&g, budget, &cfg(48), &CancelToken::inert()).expect("feasible");
        let (_, whole) = lmg_all_with_stats(&g, budget).expect("feasible");
        let bound = (whole.total_retrieval as f64 * SHARD_REGRET_BOUND).ceil() as Cost;
        assert!(
            stats.total_retrieval <= bound,
            "{name}: sharded {} vs whole-graph {} breaks the {SHARD_REGRET_BOUND}x regret bound",
            stats.total_retrieval,
            whole.total_retrieval,
        );
    }
}

#[test]
fn plans_byte_identical_across_thread_counts() {
    let g = shard_forest(8, 40, 16, &CostModel::default(), 7);
    let budget = budget_for(&g);
    let solve = || {
        sharded_msr(&g, budget, &cfg(48), &CancelToken::inert())
            .expect("feasible")
            .0
    };
    let mut plans = Vec::new();
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        plans.push(pool.install(solve));
    }
    assert_eq!(
        plans[0], plans[1],
        "sharded plan differs between 1 and 4 threads"
    );
}

#[test]
fn partition_byte_identical_across_thread_counts() {
    use dataset_versioning::vgraph::generators::erdos_renyi_bidirectional;
    use dataset_versioning::vgraph::partition_graph;
    let model = CostModel::default();
    // Groups above and below the splitter's exact-separator limit, one
    // merged forest component and many random components.
    let graphs = [
        ("forest", shard_forest(8, 300, 24, &model, 5), 100),
        ("forest-wide", shard_forest(3, 1_200, 6, &model, 6), 700),
        ("er", erdos_renyi_bidirectional(1_000, 0.003, &model, 7), 64),
    ];
    for (name, g, max) in graphs {
        // `Partition` equality compares its three arrays element for
        // element.
        let parts: Vec<_> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let p = pool.install(|| partition_graph(&g, max, &dsv_treewidth::split_component));
                assert!(p.max_shard_len() <= max, "{name}");
                p.validate(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
                p
            })
            .collect();
        assert!(parts[0].len() > 1, "{name}: the fixture must be cut");
        assert_eq!(
            parts[0], parts[1],
            "{name}: partition differs between 1 and 4 threads"
        );
    }
}

#[test]
fn single_shard_graph_reduces_exactly_to_whole_graph_solve() {
    // One 50-node cluster, shard cap far above it: the partition yields a
    // single shard and the result must be the whole-graph LMG-All plan.
    let g = shard_forest(1, 50, 0, &CostModel::default(), 13);
    let budget = budget_for(&g);
    let (plan, stats) =
        sharded_msr(&g, budget, &cfg(4_096), &CancelToken::inert()).expect("feasible");
    let (whole, _) = lmg_all_with_stats(&g, budget).expect("feasible");
    assert_eq!(plan, whole);
    assert_eq!(stats.shards, 1);
    assert_eq!(stats.cut_edges, 0);
    assert_eq!(stats.coarse_deltas, 0);
}

#[test]
fn engine_prefers_sharded_at_scale_and_ignores_it_below_threshold() {
    // At scale (threshold lowered to the fixture size): Sharded-LMG wins.
    let g = shard_forest(6, 40, 12, &CostModel::default(), 21);
    let mut engine = Engine::new();
    engine.register(Box::new(ShardedSolver {
        config: ShardConfig {
            max_shard_nodes: 48,
            min_graph_nodes: g.n(),
        },
    }));
    let problem = ProblemKind::Msr {
        storage_budget: budget_for(&g),
    };
    let sol = engine
        .solve(&g, problem, &SolveOptions::default())
        .expect("feasible");
    assert_eq!(sol.meta.solver, "Sharded-LMG");
    sol.plan.validate(&g).expect("valid");

    // Below threshold: the default registry's sharded entry refuses and a
    // whole-graph solver answers instead.
    let small = shard_forest(2, 10, 2, &CostModel::default(), 22);
    let engine = Engine::with_default_solvers();
    let problem = ProblemKind::Msr {
        storage_budget: budget_for(&small),
    };
    let sol = engine
        .solve(&small, problem, &SolveOptions::default())
        .expect("feasible");
    assert_ne!(sol.meta.solver, "Sharded-LMG");
}

#[test]
fn partition_surface_is_reachable_from_the_prelude() {
    // The prelude re-exports the partition + sharding surface; exercise it
    // end to end: partition with the treewidth splitter, validate, check
    // CSR accessors.
    let g = shard_forest(3, 30, 6, &CostModel::default(), 17);
    let p = partition_graph(&g, 24, &split_component);
    p.validate(&g).expect("valid partition");
    assert!(p.max_shard_len() <= 24);
    let comps: Components = g.connected_components();
    assert!(!comps.is_empty());
    for members in p.iter() {
        assert!(!members.is_empty());
    }
}
