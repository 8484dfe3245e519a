//! The cancellation contract of every algorithm that polls a
//! `CancelToken`, one table row per function: a pre-fired token yields the
//! function's preempted value (`None`, `false` for `for_each_plan`,
//! `Err(Cancelled)` for `sharded_msr` and `ShardedSolver`), and an inert
//! token yields exactly the output pinned in the row.
//!
//! The pinned outputs are the costs and parent vectors of the returned
//! plans (and DP frontiers) on one seeded 10-version tree, recorded from
//! the token-free entry points these functions replaced: a change to one
//! of them is a change of behaviour.

use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{random_tree, CostModel};
use dsv_core::exact::brute::{enumeration_space, for_each_plan};
use dsv_core::reductions::mmr_via_bmr;
use dsv_core::tree::dp_msr::dp_msr;
use dsv_core::tree::{dp_bmr, run_tree_msr, BidirTree};
use std::time::Duration;

struct Fixture {
    g: VersionGraph,
    t: BidirTree,
    root: NodeId,
    smin: Cost,
    rmax: Cost,
}

fn fixture() -> Fixture {
    let g = random_tree(10, &CostModel::default(), 7);
    let root = NodeId(0);
    let t = extract_tree(&g, root).expect("trees are connected");
    let smin = min_storage_value(&g);
    let rmax = g.max_edge_retrieval();
    Fixture {
        g,
        t,
        root,
        smin,
        rmax,
    }
}

/// A plan as its costs plus each version's parent (`M` = materialized,
/// otherwise the stored delta's edge id).
fn plan_line(g: &VersionGraph, plan: &StoragePlan) -> String {
    let c = plan.costs(g);
    let parents: Vec<String> = plan
        .parent
        .iter()
        .map(|p| match p {
            Parent::Materialized => "M".to_string(),
            Parent::Delta(e) => e.0.to_string(),
        })
        .collect();
    format!(
        "s={} r={} m={} [{}]",
        c.storage,
        c.total_retrieval,
        c.max_retrieval,
        parents.join(",")
    )
}

/// One row: the function's name, a call of it rendering its output
/// (`None` = preempted), and the pinned inert output.
type Row = (
    &'static str,
    fn(&Fixture, &CancelToken) -> Option<String>,
    &'static str,
);

fn rows() -> Vec<Row> {
    vec![
        (
            "dp_bmr",
            |f, c| {
                let r = dp_bmr(&f.g, &f.t, f.rmax * 2, c)?;
                Some(format!("{} {}", r.storage, plan_line(&f.g, &r.plan)))
            },
            "15524 s=15524 r=3541 m=853 [1,M,2,7,13,8,10,M,14,16]",
        ),
        (
            "dp_bmr_on_graph",
            |f, c| {
                let r = dp_bmr_on_graph(&f.g, f.root, f.rmax * 2, c)?;
                Some(format!("{} {}", r.storage, plan_line(&f.g, &r.plan)))
            },
            "15524 s=15524 r=3541 m=853 [1,M,2,7,13,8,10,M,14,16]",
        ),
        (
            "mmr_via_bmr",
            |f, c| {
                let (plan, r) = mmr_via_bmr(&f.g, &f.t, f.smin * 2, c)?;
                Some(format!("{r} {}", plan_line(&f.g, &plan)))
            },
            "949 s=7358 r=5813 m=949 [1,M,2,4,6,8,10,12,14,16]",
        ),
        (
            "mmr_on_graph",
            |f, c| {
                let (plan, r) = mmr_on_graph(&f.g, f.root, f.smin * 2, c)?;
                Some(format!("{r} {}", plan_line(&f.g, &plan)))
            },
            "949 s=7358 r=5813 m=949 [1,M,2,4,6,8,10,12,14,16]",
        ),
        (
            "run_tree_msr",
            |f, c| {
                let cfg = TreeDpConfig::heuristic(&f.g, Some(f.smin * 2));
                let dp = run_tree_msr(&f.g, &f.t, cfg, c)?;
                let (plan, pair) = dp.plan_under(f.smin * 2)?;
                Some(format!(
                    "{:?} {pair:?} {}",
                    dp.frontier(),
                    plan_line(&f.g, &plan)
                ))
            },
            "[(7358, 5817), (11955, 5791), (13045, 5643), (13411, 5199)] (13411, 5199) s=13411 r=5195 m=949 [1,M,2,4,6,8,10,12,M,16]",
        ),
        (
            "dp_msr",
            |f, c| {
                let dp = dp_msr(&f.g, &f.t, f.smin * 2, c)?;
                let (plan, _) = dp.plan_under(&f.g, f.smin * 2)?;
                Some(format!("{:?} {}", dp.frontier(), plan_line(&f.g, &plan)))
            },
            "[(7358, 5817), (11955, 5791), (13045, 5643), (13411, 5199)] s=13411 r=5195 m=949 [1,M,2,4,6,8,10,12,M,16]",
        ),
        (
            "dp_msr_on_graph",
            |f, c| {
                let (plan, _) = dp_msr_on_graph(&f.g, f.root, f.smin * 2, c)?;
                Some(plan_line(&f.g, &plan))
            },
            "s=13411 r=5195 m=949 [1,M,2,4,6,8,10,12,M,16]",
        ),
        (
            "dp_msr_sweep",
            |f, c| {
                let budgets = [f.smin, f.smin * 3 / 2, f.smin * 2];
                let sweep = dp_msr_sweep(&f.g, f.root, &budgets, c)?;
                Some(format!("{sweep:?}"))
            },
            "[Some(PlanCosts { storage: 7358, total_retrieval: 5813, max_retrieval: 949 }), Some(PlanCosts { storage: 7358, total_retrieval: 5813, max_retrieval: 949 }), Some(PlanCosts { storage: 13411, total_retrieval: 5195, max_retrieval: 949 })]",
        ),
        (
            "bsr_via_msr",
            |f, c| {
                let cfg = TreeDpConfig::heuristic(&f.g, None);
                let (plan, s) = bsr_via_msr(&f.g, f.root, f.rmax * 3, cfg, c)?;
                Some(format!("{s} {}", plan_line(&f.g, &plan)))
            },
            "30861 s=30861 r=1200 m=438 [1,M,2,11,13,8,M,M,M,16]",
        ),
        (
            "btw_msr",
            |f, c| {
                let cfg = BtwConfig {
                    storage_prune: Some(f.smin * 2),
                    ..Default::default()
                };
                let r = btw_msr(&f.g, &cfg, c)?;
                let (plan, pair) = r.plan_under(&f.g, f.smin * 2)?;
                Some(format!(
                    "{:?} {pair:?} {}",
                    r.frontier_pairs(),
                    plan_line(&f.g, &plan)
                ))
            },
            "[(7358, 5813), (11955, 5717), (13045, 5625), (13411, 5195)] (13411, 5195) s=13411 r=5195 m=949 [1,M,2,4,6,8,10,12,M,16]",
        ),
        (
            "brute_force",
            |f, c| {
                let problem = ProblemKind::Msr {
                    storage_budget: f.smin * 2,
                };
                let r = brute_force(&f.g, problem, c)?;
                Some(plan_line(&f.g, &r.plan))
            },
            "s=13411 r=5195 m=949 [1,M,2,4,6,8,10,12,M,16]",
        ),
        (
            "for_each_plan",
            |f, c| {
                let (mut plans, mut storage, mut retrieval) = (0u64, 0u64, 0u64);
                let complete = for_each_plan(
                    &f.g,
                    |_, costs| {
                        plans += 1;
                        storage += costs.storage;
                        retrieval += costs.total_retrieval;
                    },
                    c,
                );
                complete.then(|| format!("{plans} {storage} {retrieval}"))
            },
            "5476 243495438 12529342",
        ),
        (
            "sharded_msr",
            |f, c| {
                let cfg = ShardConfig {
                    max_shard_nodes: 4,
                    min_graph_nodes: 0,
                };
                match sharded_msr(&f.g, f.smin * 6, &cfg, c) {
                    Err(SolveError::Cancelled { .. }) => None,
                    Err(e) => Some(format!("error: {e}")),
                    Ok((plan, stats)) => {
                        // Stage timings vary from run to run; the counters
                        // and the plan are what is pinned.
                        let stats = ShardStats {
                            partition: Duration::ZERO,
                            shard_solves: Duration::ZERO,
                            stitch: Duration::ZERO,
                            ..stats
                        };
                        Some(format!("{stats:?} {}", plan_line(&f.g, &plan)))
                    }
                }
            },
            "ShardStats { shards: 3, largest_shard: 4, cut_edges: 8, coarse_deltas: 0, moves: 1, materializations: 1, storage: 37631, total_retrieval: 2404, partition: 0ns, shard_solves: 0ns, stitch: 0ns } s=37631 r=2404 m=776 [1,M,15,4,6,M,17,M,M,M]",
        ),
        (
            // The prep cell is shared with a solve on another thread, so
            // this call may find it empty, being built, or built; a fired
            // token preempts it in every case.
            "ShardedSolver::solve",
            |f, c| {
                let solver = ShardedSolver {
                    config: ShardConfig {
                        max_shard_nodes: 4,
                        min_graph_nodes: 0,
                    },
                };
                let problem = ProblemKind::Msr {
                    storage_budget: f.smin * 6,
                };
                let builder = SolveOptions::default();
                let waiter = SolveOptions {
                    cancel: c.clone(),
                    shared: builder.shared.clone(),
                    ..SolveOptions::default()
                };
                let solved = std::thread::scope(|s| {
                    s.spawn(|| solver.solve(&f.g, problem, &builder));
                    solver.solve(&f.g, problem, &waiter)
                });
                match solved {
                    Err(SolveError::Cancelled { .. }) => None,
                    Err(e) => Some(format!("error: {e}")),
                    Ok(sol) => Some(plan_line(&f.g, &sol.plan)),
                }
            },
            "s=37631 r=2404 m=776 [1,M,15,4,6,M,17,M,M,M]",
        ),
    ]
}

#[test]
fn a_fired_token_preempts_every_algorithm() {
    let f = fixture();
    // Brute force polls once per 4096 enumerated assignments, so the
    // instance must be larger than one stride for the poll to happen.
    assert!(enumeration_space(&f.g) > 4096);
    let fired = CancelToken::new();
    fired.cancel();
    for (name, run, _) in rows() {
        assert_eq!(run(&f, &fired), None, "{name} ignored a fired token");
    }
}

#[test]
fn an_inert_token_returns_the_pinned_output() {
    let f = fixture();
    let inert = CancelToken::inert();
    for (name, run, want) in rows() {
        let got = run(&f, &inert).unwrap_or_else(|| panic!("{name}: no output"));
        assert_eq!(got, want, "{name}");
    }
}
