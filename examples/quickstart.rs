//! Quickstart: the Figure-1 version graph from the paper, solved end to end
//! through the unified solver engine.
//!
//! Five dataset versions with annotated `<storage, retrieval>` costs. We
//! compare the two trivial extremes (store everything / minimum storage)
//! against the paper's algorithms at an intermediate budget — reproducing
//! the (i)–(iv) storage options of Figure 1 — then let the engine's
//! portfolio mode pick the best solver for each of the four problems.
//!
//! Run with: `cargo run --example quickstart`

use dataset_versioning::prelude::*;

fn main() {
    // Figure 1(i): the input version graph.
    let mut g = VersionGraph::new();
    let v1 = g.add_labelled_node(10_000, "v1");
    let v2 = g.add_labelled_node(10_100, "v2");
    let v3 = g.add_labelled_node(9_700, "v3");
    let v4 = g.add_labelled_node(9_800, "v4");
    let v5 = g.add_labelled_node(10_120, "v5");
    // <storage, retrieval> annotations from the figure.
    g.add_bidirectional_edge(v1, v2, 200, 200);
    g.add_bidirectional_edge(v1, v3, 1_000, 3_000);
    g.add_bidirectional_edge(v2, v4, 50, 400);
    g.add_bidirectional_edge(v2, v5, 800, 2_500);
    g.add_bidirectional_edge(v3, v5, 200, 550);

    println!("version graph: {} versions, {} deltas", g.n(), g.m());

    // Figure 1(ii): store every version.
    let all = StoragePlan::materialize_all(&g);
    let c = all.costs(&g);
    println!(
        "(ii) materialize all : storage {:>6}, total retrieval {:>6}, max {:>5}",
        c.storage, c.total_retrieval, c.max_retrieval
    );

    // Figure 1(iii): the storage-minimal plan (Problem 1).
    let minimal = min_storage_plan(&g);
    let c = minimal.costs(&g);
    println!(
        "(iii) min storage    : storage {:>6}, total retrieval {:>6}, max {:>5}",
        c.storage, c.total_retrieval, c.max_retrieval
    );

    // Figure 1(iv): materializing v3 as well shortens v3 and v5. One engine
    // serves every algorithm; pick them by name.
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let smin = min_storage_value(&g);
    let budget = smin + g.node_storage(v3);
    let msr = ProblemKind::Msr {
        storage_budget: budget,
    };
    for name in ["LMG", "LMG-All"] {
        let sol = engine
            .solve_with(name, &g, msr, &opts)
            .expect("budget is above minimum storage");
        println!(
            "(iv) {name:<8} S<={budget}: storage {:>6}, total retrieval {:>6}, max {:>5}, {} materialized, {} moves",
            sol.costs.storage,
            sol.costs.total_retrieval,
            sol.costs.max_retrieval,
            sol.plan.materialized_count(),
            sol.meta.iterations
        );
    }

    // DP-MSR gives the whole storage/retrieval frontier in one run.
    let budgets: Vec<Cost> = (0..6).map(|i| smin + i * 5_000).collect();
    let sweep = dp_msr_sweep(&g, v1, &budgets, &CancelToken::inert()).expect("graph is connected");
    println!("\nDP-MSR frontier (storage budget -> achieved storage/retrieval):");
    for (b, costs) in budgets.iter().zip(sweep) {
        match costs {
            Some(c) => println!(
                "  S <= {b:>6} : storage {:>6}, total retrieval {:>6}",
                c.storage, c.total_retrieval
            ),
            None => println!("  S <= {b:>6} : infeasible"),
        }
    }

    // The portfolio mode runs every applicable solver — including the
    // exact DP-BTW and brute force on this tiny graph — and returns the
    // best feasible plan for each of the paper's four problems.
    println!("\nengine portfolio across all four problems:");
    let rmax = g.max_edge_retrieval();
    for problem in [
        msr,
        ProblemKind::Mmr {
            storage_budget: budget,
        },
        ProblemKind::Bsr {
            retrieval_budget: rmax * 2,
        },
        ProblemKind::Bmr {
            retrieval_budget: rmax,
        },
    ] {
        match engine.portfolio(&g, problem, &opts) {
            Ok(p) => {
                let feasible = p.attempts.iter().filter(|a| a.outcome.is_ok()).count();
                println!(
                    "  {:<3} budget {:>6} -> {:>8} wins with objective {:>6} ({feasible}/{} solvers feasible{})",
                    problem.name(),
                    problem.budget(),
                    p.best.meta.solver,
                    p.best.objective(problem),
                    p.attempts.len(),
                    if p.best.meta.proven_optimal {
                        ", proven optimal"
                    } else {
                        ""
                    },
                );
            }
            Err(e) => println!("  {:<3} -> {e}", problem.name()),
        }
    }
}
