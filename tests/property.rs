//! Property-based tests (proptest) over the core invariants.
//!
//! Random small version graphs are generated structurally (so every case is
//! connected and solvable), then every algorithm is checked against the
//! definitions and against the brute-force optimum where tractable.

use dataset_versioning::prelude::*;
use proptest::prelude::*;

/// A *simple* bidirectional tree: underlying tree shape and at most one
/// directed edge per ordered pair. The tree DPs commit to one delta per
/// direction between tree neighbours (like the paper's model), so exactness
/// comparisons against brute force require simple graphs — with parallel
/// edges, brute force may pick a different (storage, retrieval) trade-off
/// per edge than the extraction kept.
fn is_simple_bidir_tree(g: &VersionGraph) -> bool {
    if !g.underlying_is_tree() {
        return false;
    }
    let mut seen = std::collections::HashSet::new();
    g.edges().iter().all(|e| seen.insert((e.src, e.dst)))
}

/// Strategy: a random connected bidirectional version graph with `n ≤ 7`
/// nodes (brute-force friendly) built from a random tree plus extra edges.
fn small_graph() -> impl Strategy<Value = VersionGraph> {
    (
        2usize..7,
        proptest::collection::vec(1u64..2_000, 7),
        proptest::collection::vec((0usize..7, 0usize..7, 1u64..300, 1u64..300), 0..6),
        proptest::collection::vec((1u64..300, 1u64..300), 12),
        any::<u64>(),
    )
        .prop_map(|(n, node_costs, extra, tree_costs, seed)| {
            let mut g = VersionGraph::new();
            for i in 0..n {
                g.add_node(node_costs[i % node_costs.len()].max(1));
            }
            // Random spanning tree (deterministic from seed).
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in 1..n {
                let p = (next() as usize) % i;
                let (s1, r1) = tree_costs[(2 * i) % tree_costs.len()];
                let (s2, r2) = tree_costs[(2 * i + 1) % tree_costs.len()];
                g.add_edge(NodeId::new(p), NodeId::new(i), s1, r1);
                g.add_edge(NodeId::new(i), NodeId::new(p), s2, r2);
            }
            for (u, v, s, r) in extra {
                if u % n != v % n {
                    g.add_edge(NodeId::new(u % n), NodeId::new(v % n), s, r);
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heuristics_are_feasible_and_bounded_by_optimum(g in small_graph(), mult in 1u64..5) {
        let smin = min_storage_value(&g);
        let budget = smin.saturating_mul(mult);
        let opt = brute_force(&g, ProblemKind::Msr { storage_budget: budget }, &CancelToken::inert());
        let opt_obj = opt.expect("budget >= smin is feasible").costs.total_retrieval;
        for plan in [lmg(&g, budget), lmg_all(&g, budget)].into_iter().flatten() {
            plan.validate(&g).expect("valid");
            let c = plan.costs(&g);
            prop_assert!(c.storage <= budget);
            prop_assert!(c.total_retrieval >= opt_obj);
        }
    }

    #[test]
    fn dp_msr_exact_engine_matches_brute_force_on_trees(g in small_graph(), mult in 1u64..4) {
        // Restrict to the extracted tree == whole graph case: drop extra
        // edges by rebuilding only when the graph is a tree.
        prop_assume!(is_simple_bidir_tree(&g));
        let smin = min_storage_value(&g);
        let budget = smin.saturating_mul(mult);
        let t = extract_tree(&g, NodeId(0)).expect("trees are connected");
        let dp = dsv_core::tree::msr_tree_exact(&g, &t);
        let got = dp.best_under(budget).map(|(_, r)| r);
        let want = brute_force(&g, ProblemKind::Msr { storage_budget: budget }, &CancelToken::inert())
            .map(|r| r.costs.total_retrieval);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dp_bmr_matches_brute_force_on_trees(g in small_graph(), budget in 0u64..3_000) {
        prop_assume!(is_simple_bidir_tree(&g));
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        let r = dp_bmr(&g, &t, budget, &CancelToken::inert()).expect("inert token");
        r.plan.validate(&g).expect("valid");
        let c = r.plan.costs(&g);
        prop_assert!(c.max_retrieval <= budget);
        prop_assert_eq!(c.storage, r.storage);
        let want = brute_force(&g, ProblemKind::Bmr { retrieval_budget: budget }, &CancelToken::inert())
            .expect("BMR always feasible")
            .costs
            .storage;
        prop_assert_eq!(r.storage, want);
    }

    #[test]
    fn modified_prims_respects_budget_on_any_graph(g in small_graph(), budget in 0u64..5_000) {
        let plan = modified_prims(&g, budget);
        plan.validate(&g).expect("valid");
        prop_assert!(plan.costs(&g).max_retrieval <= budget);
    }

    #[test]
    fn btw_matches_brute_force(g in small_graph(), mult in 1u64..4) {
        // Parallel edges and random extra edges included: DP-BTW is exact
        // on any graph, and its reconstructed plan realizes the optimum.
        let smin = min_storage_value(&g);
        let budget = smin.saturating_mul(mult);
        let want = brute_force(&g, ProblemKind::Msr { storage_budget: budget }, &CancelToken::inert())
            .expect("feasible")
            .costs
            .total_retrieval;
        let cfg = BtwConfig { storage_prune: Some(budget), ..Default::default() };
        let (plan, (storage, retrieval)) = btw_msr(&g, &cfg, &CancelToken::inert())
            .and_then(|r| r.plan_under(&g, budget))
            .expect("feasible");
        plan.validate(&g).expect("valid");
        let c = plan.costs(&g);
        prop_assert!(storage <= budget);
        prop_assert_eq!((c.storage, c.total_retrieval), (storage, retrieval));
        prop_assert_eq!(retrieval, want);
    }

    #[test]
    fn checkpoint_plans_are_always_valid(g in small_graph(), k in 1usize..5) {
        let plan = checkpoint_plan(&g, k);
        plan.validate(&g).expect("valid");
        // Checkpointing only ever adds materializations over min storage.
        prop_assert!(plan.materialized_count() >= 1);
    }

    #[test]
    fn min_storage_plan_is_the_cheapest_plan(g in small_graph()) {
        let smin = min_storage_value(&g);
        let mut cheapest = u64::MAX;
        dsv_core::exact::brute::for_each_plan(
            &g,
            |_, costs| cheapest = cheapest.min(costs.storage),
            &CancelToken::inert(),
        );
        prop_assert_eq!(smin, cheapest);
    }

    #[test]
    fn plan_costs_are_internally_consistent(g in small_graph()) {
        let plan = min_storage_plan(&g);
        let costs = plan.costs(&g);
        let r = plan.retrievals(&g);
        prop_assert_eq!(costs.total_retrieval, r.iter().sum::<u64>());
        prop_assert_eq!(costs.max_retrieval, r.iter().copied().max().unwrap_or(0));
        // Materialized nodes retrieve for free; delta nodes cost at least
        // their own edge.
        for (v, p) in plan.parent.iter().enumerate() {
            match p {
                Parent::Materialized => prop_assert_eq!(r[v], 0),
                Parent::Delta(e) => prop_assert!(r[v] >= g.edge(*e).retrieval),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mmr_reduction_matches_brute_force_on_trees(g in small_graph(), mult in 1u64..4) {
        prop_assume!(is_simple_bidir_tree(&g));
        let smin = min_storage_value(&g);
        let budget = smin.saturating_mul(mult);
        let want = brute_force(&g, ProblemKind::Mmr { storage_budget: budget }, &CancelToken::inert())
            .expect("feasible")
            .costs
            .max_retrieval;
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        let (_, got) = mmr_via_bmr(&g, &t, budget, &CancelToken::inert()).expect("feasible");
        prop_assert_eq!(got, want);
    }

    #[test]
    fn myers_diff_roundtrip(a in proptest::collection::vec(0u32..6, 0..40),
                            b in proptest::collection::vec(0u32..6, 0..40)) {
        let ops = dsv_delta::myers::diff(&a, &b);
        prop_assert_eq!(dsv_delta::myers::apply(&a, &b, &ops), b);
    }

    #[test]
    fn sketch_deltas_satisfy_triangle_inequality(
        ids in proptest::collection::vec((0u64..30, 1u32..100), 1..25),
        split in any::<u64>(),
    ) {
        use dsv_delta::chunks::ChunkSketch;
        // Derive three overlapping sketches from one chunk pool. Chunk ids
        // are content addresses: one id must always map to one size, so
        // dedup the generated pool first.
        let pool: std::collections::BTreeMap<u64, u32> = ids.iter().copied().collect();
        let mut u = ChunkSketch::new();
        let mut v = ChunkSketch::new();
        let mut w = ChunkSketch::new();
        for (i, (&id, &sz)) in pool.iter().enumerate() {
            let h = split.rotate_left(i as u32 % 64) & 7;
            if h & 1 != 0 { u.insert(id, sz); }
            if h & 2 != 0 { v.insert(id, sz); }
            if h & 4 != 0 { w.insert(id, sz); }
        }
        let uv = u.delta_to(&v).storage_cost();
        let vw = v.delta_to(&w).storage_cost();
        let uw = u.delta_to(&w).storage_cost();
        prop_assert!(uw <= uv + vw);
        // Retrieval costs behave the same way.
        let uv = u.delta_to(&v).retrieval_cost();
        let vw = v.delta_to(&w).retrieval_cost();
        let uw = u.delta_to(&w).retrieval_cost();
        prop_assert!(uw <= uv + vw);
    }
}
