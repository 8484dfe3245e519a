//! End-to-end integration: corpus generation → transforms → every
//! algorithm → plan validation. This is the full pipeline a user of the
//! library runs, exercised across crate boundaries.

use dataset_versioning::prelude::*;
use dsv_delta::corpus::corpus_with_content;

fn all_msr_algorithms_agree_on_feasibility(g: &VersionGraph, budget: Cost) {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let problem = ProblemKind::Msr {
        storage_budget: budget,
    };
    let lmg_sol = engine.solve_with("LMG", g, problem, &opts);
    let all_sol = engine.solve_with("LMG-All", g, problem, &opts);
    assert_eq!(lmg_sol.is_ok(), all_sol.is_ok());
    for sol in [lmg_sol, all_sol].into_iter().flatten() {
        // The engine validated and budget-checked already; re-check the
        // invariants independently here.
        sol.plan.validate(g).expect("valid plan");
        assert!(sol.costs.storage <= budget);
    }
}

#[test]
fn datasharing_corpus_end_to_end() {
    let c = corpus(CorpusName::Datasharing, 1.0, 11);
    let g = &c.graph;
    assert_eq!(g.n(), 29);
    let smin = min_storage_value(g);
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();

    // Sweep like Figure 10, against DP-BTW's proven optimum at every
    // budget: DP-MSR must track OPT closely (paper: near-identical).
    for factor in [105u64, 150, 200, 250] {
        let budget = smin * factor / 100;
        all_msr_algorithms_agree_on_feasibility(g, budget);
        let (plan, costs) =
            dp_msr_on_graph(g, NodeId(0), budget, &CancelToken::inert()).expect("feasible");
        plan.validate(g).expect("valid");
        assert!(costs.storage <= budget);
        let dp = costs.total_retrieval;

        let problem = ProblemKind::Msr {
            storage_budget: budget,
        };
        let opt = engine
            .solve_with("DP-BTW", g, problem, &opts)
            .expect("datasharing has small width");
        assert!(opt.meta.proven_optimal);
        let opt = opt.costs.total_retrieval;
        let lmg_all = engine
            .solve_with("LMG-All", g, problem, &opts)
            .expect("feasible")
            .costs
            .total_retrieval;
        assert!(opt <= lmg_all, "OPT {opt} > LMG-All {lmg_all} at {factor}%");
        assert!(opt <= dp, "OPT {opt} > DP-MSR {dp} at {factor}%");
        assert!(
            dp as f64 <= opt as f64 * 1.3,
            "DP-MSR ({dp}) should track OPT ({opt}) at {factor}% of smin"
        );
    }
}

#[test]
fn compressed_corpus_pipeline() {
    let c = corpus(CorpusName::Datasharing, 1.0, 12);
    let g = random_compression(&c.graph, 99);
    // Compression must decouple the weight functions.
    assert!(g.edges().iter().any(|e| e.storage != e.retrieval));
    let smin = min_storage_value(&g);
    for factor in [120u64, 200] {
        let budget = smin * factor / 100;
        all_msr_algorithms_agree_on_feasibility(&g, budget);
    }
    // BMR pipeline on the compressed graph.
    let r_budget = g.max_edge_retrieval() * 2;
    let mp = modified_prims(&g, r_budget);
    mp.validate(&g).expect("valid");
    assert!(mp.costs(&g).max_retrieval <= r_budget);
    let t = extract_tree(&g, NodeId(0)).expect("connected");
    let dp = dp_bmr(&g, &t, r_budget, &CancelToken::inert()).expect("inert token");
    dp.plan.validate(&g).expect("valid");
    assert!(dp.plan.costs(&g).max_retrieval <= r_budget);
}

#[test]
fn er_construction_pipeline() {
    let c = corpus_with_content(CorpusName::LeetCodeAnimation, 0.2, 13, true);
    let sketches = c.sketches().expect("sketch corpus");
    let er = erdos_renyi_from_sketches(sketches, 0.3, 5);
    assert!(er.is_bidirectional());
    // The ER graph must be solvable by every algorithm.
    let smin = min_storage_value(&er);
    all_msr_algorithms_agree_on_feasibility(&er, smin * 3 / 2);
    let (plan, costs) = dp_msr_on_graph(&er, NodeId(0), smin * 3 / 2, &CancelToken::inert())
        .expect("ER graphs are connected at p=0.3");
    plan.validate(&er).expect("valid");
    assert!(costs.storage <= smin * 3 / 2);
}

#[test]
fn mmr_and_bsr_reductions_on_corpus() {
    let c = corpus(CorpusName::Datasharing, 0.8, 14);
    let g = &c.graph;
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let smin = min_storage_value(g);
    let mmr = engine
        .solve(
            g,
            ProblemKind::Mmr {
                storage_budget: smin * 2,
            },
            &opts,
        )
        .expect("feasible");
    mmr.plan.validate(g).expect("valid");
    let max_r = mmr.costs.max_retrieval;
    assert_eq!(mmr.meta.reported_objective, Some(max_r));

    let bsr = engine
        .solve(
            g,
            ProblemKind::Bsr {
                retrieval_budget: max_r * g.n() as u64,
            },
            &opts,
        )
        .expect("generous budget is feasible");
    bsr.plan.validate(g).expect("valid");
    assert!(bsr.costs.storage >= smin);
    assert!(bsr.costs.total_retrieval <= max_r * g.n() as u64);
}

#[test]
fn problem_enum_is_consistent_with_brute_force_on_corpus_subgraph() {
    // Take a tiny corpus so brute force is exact.
    let c = corpus(CorpusName::Datasharing, 0.25, 15); // ~7 commits
    let g = &c.graph;
    assert!(g.n() <= 9);
    let smin = min_storage_value(g);
    let budget = smin * 2;
    let msr = brute_force(
        g,
        ProblemKind::Msr {
            storage_budget: budget,
        },
        &CancelToken::inert(),
    )
    .expect("feasible");
    // LMG/LMG-All are upper bounds on the brute-force optimum.
    for plan in [lmg(g, budget), lmg_all(g, budget)].into_iter().flatten() {
        assert!(plan.costs(g).total_retrieval >= msr.costs.total_retrieval);
    }
    // The storage-minimal plan is what budget = smin forces.
    let tight = brute_force(
        g,
        ProblemKind::Msr {
            storage_budget: smin,
        },
        &CancelToken::inert(),
    )
    .expect("feasible");
    assert_eq!(tight.costs.storage, smin);
}

#[test]
fn treewidth_of_natural_corpora_is_small() {
    let c = corpus(CorpusName::Styleguide, 0.3, 17);
    let tw = dsv_treewidth::treewidth_upper_bound(&c.graph);
    // Footnote 7: natural version graphs have low treewidth even with
    // hundreds of commits and merges.
    assert!(tw <= 8, "treewidth upper bound {tw} unexpectedly large");
}
