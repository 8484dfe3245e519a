//! DP-BMR: exact BoundedMax Retrieval on bidirectional trees (Algorithm 2,
//! Section 4 of the paper).
//!
//! `DP[v][u]` = minimum storage of a partial solution on the subtree `T[v]`
//! in which `v` is retrieved from a materialized `u` (possibly outside the
//! subtree), and every other node of `T[v]` is retrieved from within it.
//! `OPT[v] = min { DP[v][w] : w ∈ T[v] }`.
//!
//! The paper states `O(n²)` time; this implementation adds the natural
//! sparsity: only pairs with `R(u,v) ≤ R` are materialized as DP entries
//! ("retrieval balls"), so tight budgets — the regime Figure 13 sweeps —
//! cost far less than `n²`. Ball construction is embarrassingly parallel
//! and runs on rayon.

use super::extract::BidirTree;
use crate::cancel::CancelToken;
use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::{cost_add, Cost, NodeId, VersionGraph, INF};
use rayon::prelude::*;
use std::collections::HashMap;

/// Result of a DP-BMR run.
#[derive(Clone, Debug)]
pub struct DpBmrResult {
    /// The optimal (over the tree) storage plan.
    pub plan: StoragePlan,
    /// Its storage cost (`OPT[v_root]`).
    pub storage: Cost,
}

/// All nodes `u` with path-retrieval `R(u → v) ≤ budget`, with their costs.
fn retrieval_ball(g: &VersionGraph, t: &BidirTree, v: NodeId, budget: Cost) -> Vec<(u32, Cost)> {
    // The u → v path cost grows monotonically as u moves away from v, so a
    // DFS that stops at the budget explores exactly the ball.
    let mut out = vec![(v.0, 0)];
    let mut stack: Vec<(NodeId, NodeId, Cost)> = Vec::new(); // (node, came-from, cost so far)
    let push_neighbours =
        |stack: &mut Vec<(NodeId, NodeId, Cost)>, w: NodeId, from: NodeId, d: Cost| {
            // Neighbours of w: its parent and children; skip the one we came
            // from (tree paths are simple).
            if let Some(p) = t.parent[w.index()] {
                if p != from {
                    stack.push((p, w, d));
                }
            }
            for &c in &t.children[w.index()] {
                if c != from {
                    stack.push((c, w, d));
                }
            }
        };
    push_neighbours(&mut stack, v, v, 0);
    while let Some((u, toward, d)) = stack.pop() {
        // Edge u → toward is the first hop of u's path to v.
        let r = t.edge_retrieval(g, u, toward);
        let du = cost_add(d, r);
        if du > budget {
            continue;
        }
        out.push((u.0, du));
        push_neighbours(&mut stack, u, toward, du);
    }
    out
}

/// Run DP-BMR on an extracted tree. Exact over plans restricted to tree
/// deltas; always feasible (materializing everything has retrieval 0), so
/// `None` means only that `cancel`, polled once per processed node, fired
/// before the DP completed.
pub fn dp_bmr(
    g: &VersionGraph,
    t: &BidirTree,
    retrieval_budget: Cost,
    cancel: &CancelToken,
) -> Option<DpBmrResult> {
    let n = t.n();
    // Balls in parallel: each is an independent bounded DFS.
    let balls: Vec<Vec<(u32, Cost)>> = (0..n)
        .into_par_iter()
        .map(|v| retrieval_ball(g, t, NodeId::new(v), retrieval_budget))
        .collect();

    let mut dp: Vec<HashMap<u32, Cost>> = vec![HashMap::new(); n];
    let mut opt: Vec<Cost> = vec![INF; n];
    let mut opt_arg: Vec<u32> = vec![u32::MAX; n];

    for v in t.post_order() {
        if cancel.is_cancelled() {
            return None;
        }
        let vi = v.index();
        let mut map = HashMap::with_capacity(balls[vi].len());
        for &(u, _) in &balls[vi] {
            let un = NodeId(u);
            // Storage paid at v itself.
            let base = if un == v {
                g.node_storage(v)
            } else if t.is_ancestor(v, un) {
                // u strictly below v: the delta entering v comes up from the
                // child whose subtree holds u.
                let c = t.children[vi]
                    .iter()
                    .copied()
                    .find(|&c| t.is_ancestor(c, un))
                    .expect("u below v lies in exactly one child subtree");
                t.edge_storage(g, c, v)
            } else {
                // u above/outside: delta comes down from the tree parent.
                t.edge_storage(g, t.parent[vi].expect("non-root"), v)
            };
            if base >= INF {
                continue; // required delta does not exist in the graph
            }
            let mut total = base;
            for &c in &t.children[vi] {
                let ci = c.index();
                let through = dp[ci].get(&u).copied().unwrap_or(INF);
                let contribution = if t.is_ancestor(c, un) {
                    // v's path to u passes through c: c must also retrieve
                    // from u (case 2 of the paper).
                    through
                } else {
                    through.min(opt[ci])
                };
                total = cost_add(total, contribution);
                if total >= INF {
                    break;
                }
            }
            if total >= INF {
                continue;
            }
            map.insert(u, total);
            if t.is_ancestor(v, un) && total < opt[vi] {
                opt[vi] = total;
                opt_arg[vi] = u;
            }
        }
        dp[vi] = map;
    }

    // Reconstruction, root-down.
    let mut plan = StoragePlan {
        parent: vec![Parent::Materialized; n],
    };
    let ri = t.root.index();
    debug_assert!(opt[ri] < INF, "materializing everything is always feasible");
    let mut stack: Vec<(NodeId, u32)> = vec![(t.root, opt_arg[ri])];
    while let Some((v, u)) = stack.pop() {
        let vi = v.index();
        let un = NodeId(u);
        plan.parent[vi] = if un == v {
            Parent::Materialized
        } else if t.is_ancestor(v, un) {
            let c = t.children[vi]
                .iter()
                .copied()
                .find(|&c| t.is_ancestor(c, un))
                .expect("u below v lies in exactly one child subtree");
            Parent::Delta(t.edge_between(c, v).expect("edge existed during DP"))
        } else {
            Parent::Delta(
                t.edge_between(t.parent[vi].expect("non-root"), v)
                    .expect("edge existed during DP"),
            )
        };
        for &c in &t.children[vi] {
            let ci = c.index();
            if t.is_ancestor(c, un) {
                stack.push((c, u));
            } else {
                let through = dp[ci].get(&u).copied().unwrap_or(INF);
                if opt[ci] <= through {
                    stack.push((c, opt_arg[ci]));
                } else {
                    stack.push((c, u));
                }
            }
        }
    }
    Some(DpBmrResult {
        storage: opt[ri],
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::brute_force;
    use crate::problem::ProblemKind;
    use crate::tree::extract::extract_tree;
    use dsv_vgraph::generators::{bidirectional_path, random_tree, star, CostModel};

    /// DP-BMR on the tree rooted at `NodeId(0)`, as the engine runs it.
    fn bmr(g: &VersionGraph, budget: Cost) -> DpBmrResult {
        let t = extract_tree(g, NodeId(0)).expect("connected");
        dp_bmr(g, &t, budget, &CancelToken::inert()).expect("inert token")
    }

    fn exact_tree_bmr(g: &VersionGraph, budget: Cost) -> Cost {
        brute_force(
            g,
            ProblemKind::Bmr {
                retrieval_budget: budget,
            },
            &CancelToken::inert(),
        )
        .expect("BMR always feasible")
        .costs
        .storage
    }

    #[test]
    fn zero_budget_materializes_all() {
        let g = bidirectional_path(6, &CostModel::default(), 1);
        let r = bmr(&g, 0);
        r.plan.validate(&g).expect("valid");
        assert_eq!(r.storage, g.total_node_storage());
        assert_eq!(r.plan.costs(&g).max_retrieval, 0);
    }

    #[test]
    fn matches_brute_force_on_small_trees() {
        for seed in 0..8 {
            let g = random_tree(7, &CostModel::default(), seed);
            let rmax = g.max_edge_retrieval();
            for budget in [0, rmax / 2, rmax, rmax * 2, rmax * 10] {
                let r = bmr(&g, budget);
                r.plan.validate(&g).expect("valid");
                let c = r.plan.costs(&g);
                assert!(c.max_retrieval <= budget);
                assert_eq!(c.storage, r.storage, "plan must realize the DP value");
                let want = exact_tree_bmr(&g, budget);
                assert_eq!(r.storage, want, "seed {seed} budget {budget}");
            }
        }
    }

    #[test]
    fn matches_brute_force_on_stars_and_paths() {
        for (seed, g) in [
            star(6, &CostModel::default(), 3),
            bidirectional_path(6, &CostModel::single_weight(), 4),
        ]
        .into_iter()
        .enumerate()
        {
            let rmax = g.max_edge_retrieval();
            for budget in [rmax / 2, rmax * 3] {
                let r = bmr(&g, budget);
                assert_eq!(
                    r.storage,
                    exact_tree_bmr(&g, budget),
                    "case {seed} budget {budget}"
                );
            }
        }
    }

    #[test]
    fn storage_monotone_in_budget() {
        let g = random_tree(40, &CostModel::default(), 9);
        let mut last = u64::MAX;
        for budget in [0u64, 100, 300, 1_000, 3_000, 30_000] {
            let r = bmr(&g, budget);
            assert!(r.storage <= last, "DP-BMR objective must be monotone");
            last = r.storage;
        }
    }

    #[test]
    fn beats_or_matches_modified_prims() {
        // DP is exact on the tree, MP is greedy on the full graph; on tree
        // graphs DP must never lose.
        let g = random_tree(30, &CostModel::default(), 11);
        for budget in [200u64, 1_000, 5_000] {
            let dp = bmr(&g, budget);
            let mp = crate::heuristics::mp::modified_prims(&g, budget);
            assert!(dp.storage <= mp.storage_cost(&g), "budget {budget}");
        }
    }

    #[test]
    fn retrieval_ball_respects_budget_and_directions() {
        let mut g = VersionGraph::with_nodes(3);
        for v in 0..3 {
            g.set_node_storage(NodeId(v), 100);
        }
        // 0 -> 1 cheap, 1 -> 0 expensive; 1 -> 2 cheap, 2 -> 1 cheap.
        g.add_edge(NodeId(0), NodeId(1), 1, 2);
        g.add_edge(NodeId(1), NodeId(0), 1, 50);
        g.add_edge(NodeId(1), NodeId(2), 1, 3);
        g.add_edge(NodeId(2), NodeId(1), 1, 4);
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        // Ball of node 1 with budget 5: {1 (0), 0 (2), 2 (4)}.
        let mut ball = retrieval_ball(&g, &t, NodeId(1), 5);
        ball.sort();
        assert_eq!(ball, vec![(0, 2), (1, 0), (2, 4)]);
        // Ball of node 0 with budget 5: only {0}: 1 -> 0 costs 50.
        let ball0 = retrieval_ball(&g, &t, NodeId(0), 5);
        assert_eq!(ball0, vec![(0, 0)]);
    }
}
