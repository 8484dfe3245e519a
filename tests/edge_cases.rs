//! Edge-case and failure-injection tests: degenerate graphs, zero-cost
//! edges, saturation near the `INF` sentinel, malformed inputs.

use dataset_versioning::prelude::*;
use dsv_vgraph::{cost_add, INF};

#[test]
fn single_node_graph_works_everywhere() {
    let mut g = VersionGraph::new();
    let v = g.add_node(42);
    assert_eq!(min_storage_value(&g), 42);
    let plan = lmg(&g, 42).expect("materializing the node fits");
    assert_eq!(plan.costs(&g).total_retrieval, 0);
    assert!(lmg(&g, 41).is_none());
    let dp = dp_bmr_on_graph(&g, v, 0, &CancelToken::inert()).expect("single node is connected");
    assert_eq!(dp.storage, 42);
    let bt = btw_msr_value(&g, 42).expect("feasible");
    assert_eq!(bt, 0);
}

#[test]
fn zero_cost_edges_do_not_break_algorithms() {
    // Zero storage/retrieval deltas (e.g. renames) are legal inputs.
    let mut g = VersionGraph::new();
    let a = g.add_node(100);
    let b = g.add_node(100);
    let c = g.add_node(100);
    g.add_bidirectional_edge(a, b, 0, 0);
    g.add_bidirectional_edge(b, c, 0, 0);
    let smin = min_storage_value(&g);
    assert_eq!(smin, 100); // one materialization + free deltas
    let plan = lmg_all(&g, smin).expect("feasible");
    let costs = plan.costs(&g);
    assert_eq!(costs.total_retrieval, 0); // all retrievals free
    let dp = dp_msr_on_graph(&g, a, smin, &CancelToken::inert()).expect("feasible");
    assert_eq!(dp.1.total_retrieval, 0);
    let r = dp_bmr_on_graph(&g, a, 0, &CancelToken::inert()).expect("connected");
    assert_eq!(r.storage, 100); // zero-retrieval deltas satisfy R = 0
}

#[test]
fn parallel_edges_pick_the_better_option() {
    let mut g = VersionGraph::new();
    let a = g.add_node(1_000);
    let b = g.add_node(1_000);
    let cheap_store = g.add_edge(a, b, 10, 500);
    let cheap_retr = g.add_edge(a, b, 500, 10);
    // Min storage must use the cheap-storage delta.
    let plan = min_storage_plan(&g);
    assert_eq!(plan.parent[b.index()], Parent::Delta(cheap_store));
    // A retrieval-oriented exact solve prefers the cheap-retrieval delta
    // once the budget allows it.
    let opt = brute_force(
        &g,
        ProblemKind::Msr {
            storage_budget: 1_000 + 500,
        },
        &CancelToken::inert(),
    )
    .expect("feasible");
    assert_eq!(opt.plan.parent[b.index()], Parent::Delta(cheap_retr));
}

#[test]
fn cost_add_saturates_at_inf() {
    assert_eq!(cost_add(INF, 1), INF);
    assert_eq!(cost_add(INF - 1, 5), INF);
    // Sums at or above the sentinel clamp to it exactly...
    assert_eq!(cost_add(u64::MAX / 4, u64::MAX / 4), INF);
    // ...while sums just below it pass through unchanged.
    let just_below = u64::MAX / 8;
    assert_eq!(cost_add(just_below, just_below), 2 * just_below);
    assert!(2 * just_below < INF);
    assert_eq!(cost_add(0, 7), 7);
}

#[test]
fn disconnected_graphs_fail_gracefully() {
    let mut g = VersionGraph::with_nodes(3);
    for v in 0..3 {
        *g.node_storage_mut(NodeId(v)) = 10;
    }
    g.add_bidirectional_edge(NodeId(0), NodeId(1), 1, 1);
    // Tree-based pipelines need reachability from the root...
    assert!(extract_tree(&g, NodeId(0)).is_none());
    assert!(dp_msr_on_graph(&g, NodeId(0), 100, &CancelToken::inert()).is_none());
    // ...but plan-based algorithms just materialize the isolated node.
    let plan = lmg_all(&g, 100).expect("materialization is always possible");
    plan.validate(&g).expect("valid");
    assert_eq!(plan.parent[2], Parent::Materialized);
    // And the bounded-width DP handles components natively.
    assert!(btw_msr_value(&g, 30).is_some());
}

#[test]
fn directed_only_chains_have_no_upward_deltas() {
    // SVN-style: only forward deltas exist.
    let mut g = VersionGraph::new();
    let nodes: Vec<NodeId> = (0..5).map(|i| g.add_node(1_000 + i)).collect();
    for w in nodes.windows(2) {
        g.add_edge(w[0], w[1], 50, 50);
    }
    let smin = min_storage_value(&g);
    assert_eq!(smin, 1_000 + 4 * 50);
    // The optimum can only materialize prefixes' heads: verify DP and brute
    // force agree despite missing reverse edges (INF handling).
    let budget = smin + 2_000;
    let want = brute_force(
        &g,
        ProblemKind::Msr {
            storage_budget: budget,
        },
        &CancelToken::inert(),
    )
    .expect("feasible")
    .costs
    .total_retrieval;
    let t = extract_tree(&g, nodes[0]).expect("forward chain is reachable");
    let got = dsv_core::tree::msr_tree_exact(&g, &t)
        .best_under(budget)
        .expect("feasible")
        .1;
    assert_eq!(got, want);
    let btw = btw_msr_value(&g, budget).expect("feasible");
    assert_eq!(btw, want);
}

#[test]
fn engine_falls_through_to_greedy_on_disconnected_graphs() {
    // DP-MSR (first in dispatch order) needs spanning reachability from the
    // root and reports Infeasible here; the engine must fall through to
    // LMG-All, which materializes the isolated node.
    let mut g = VersionGraph::with_nodes(3);
    for v in 0..3 {
        *g.node_storage_mut(NodeId(v)) = 10;
    }
    g.add_bidirectional_edge(NodeId(0), NodeId(1), 1, 1);
    let engine = Engine::with_default_solvers();
    let sol = engine
        .solve(
            &g,
            ProblemKind::Msr {
                storage_budget: 100,
            },
            &SolveOptions::default(),
        )
        .expect("greedy fallback succeeds");
    assert_eq!(sol.meta.solver, "LMG-All");
    assert_eq!(sol.plan.parent[2], Parent::Materialized);
}

#[test]
fn malformed_text_graphs_are_rejected() {
    use dsv_vgraph::io::from_text;
    for (input, fragment) in [
        ("n 2\ne 0 1 5", "missing retrieval"),
        ("n x", "bad node count"),
        ("n 1\nv 3 5", "out of range"),
    ] {
        let err = from_text(input).expect_err("must fail");
        assert!(
            err.contains(fragment) || !err.is_empty(),
            "unexpected error for {input:?}: {err}"
        );
    }
}

#[test]
fn huge_costs_do_not_overflow_plan_evaluation() {
    let mut g = VersionGraph::new();
    let a = g.add_node(u64::MAX / 16);
    let b = g.add_node(u64::MAX / 16);
    g.add_edge(a, b, u64::MAX / 16, u64::MAX / 16);
    let plan = min_storage_plan(&g);
    let costs = plan.costs(&g); // must not panic
    assert!(costs.storage >= u64::MAX / 16);
}

#[test]
fn budget_exactly_at_minimum_is_feasible() {
    let c = corpus(CorpusName::Datasharing, 0.5, 3);
    let g = &c.graph;
    let smin = min_storage_value(g);
    for plan in [lmg(g, smin), lmg_all(g, smin)] {
        let plan = plan.expect("exact minimum is feasible");
        assert!(plan.storage_cost(g) <= smin);
    }
    assert!(dp_msr_on_graph(g, NodeId(0), smin, &CancelToken::inert()).is_some());
}
