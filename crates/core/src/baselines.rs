//! Baseline plans: Problems 1–2 and simple industrial heuristics.
//!
//! * [`min_storage_plan`] — Problem 1: the storage-minimal plan, a minimum
//!   spanning arborescence of the extended graph w.r.t. storage costs. LMG
//!   and LMG-All both start from it.
//! * [`shortest_path_plan`] — Problem 2 in the single-root form used by
//!   SVN-like systems: materialize one root, retrieve everything else along
//!   retrieval-shortest paths.
//! * [`checkpoint_plan`] — the "materialize every k-th version" strategy
//!   that windowed tools (git pack-style) effectively implement; used as an
//!   extra baseline in examples and tests.

use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::arborescence::{min_arborescence, ArbEdge};
use dsv_vgraph::dijkstra::dijkstra;
use dsv_vgraph::{Cost, EdgeId, NodeId, VersionGraph};

/// Build the extended-graph edge list (`G_aux` of the paper): all real
/// edges weighted by storage cost `s_e`, plus an auxiliary edge `v_aux → v` of
/// weight `s_v` for every version. Node `n` plays the role of `v_aux`.
/// Returns the edge list; edge index `i < m` is real edge `i`, edge index
/// `m + v` is the auxiliary (materialization) edge of node `v`.
pub fn extended_edges(g: &VersionGraph) -> Vec<ArbEdge> {
    let n = g.n();
    let mut edges: Vec<ArbEdge> = Vec::with_capacity(g.m() + n);
    for e in g.edges() {
        edges.push(ArbEdge::new(e.src.index(), e.dst.index(), e.storage as i64));
    }
    for v in g.node_ids() {
        // The auxiliary edge of `v` stores the whole version: s_v.
        edges.push(ArbEdge::new(n, v.index(), g.node_storage(v) as i64));
    }
    edges
}

/// Convert an arborescence over the extended graph back into a plan.
pub fn plan_from_extended(g: &VersionGraph, parent_edge: &[Option<usize>]) -> StoragePlan {
    let m = g.m();
    let parent = (0..g.n())
        .map(|v| match parent_edge[v] {
            Some(i) if i < m => Parent::Delta(EdgeId::new(i)),
            Some(_) => Parent::Materialized,
            None => unreachable!("only the auxiliary root lacks a parent"),
        })
        .collect();
    StoragePlan { parent }
}

/// Problem 1: the minimum-storage plan (minimum spanning arborescence of
/// `G_aux` under storage weights).
pub fn min_storage_plan(g: &VersionGraph) -> StoragePlan {
    let edges = extended_edges(g);
    let arb = min_arborescence(g.n() + 1, g.n(), &edges)
        .expect("extended graph always has a spanning arborescence");
    plan_from_extended(g, &arb.parent_edge)
}

/// Problem 2, single-root form: materialize `root` and reach every other
/// version over retrieval-shortest paths. Returns `None` if some version is
/// unreachable from `root`.
pub fn shortest_path_plan(g: &VersionGraph, root: NodeId) -> Option<StoragePlan> {
    let sp = dijkstra(g, root);
    let mut parent = vec![Parent::Materialized; g.n()];
    for v in g.node_ids() {
        if v == root {
            continue;
        }
        match sp.parent_edge[v.index()] {
            Some(e) => parent[v.index()] = Parent::Delta(e),
            None => return None,
        }
    }
    Some(StoragePlan { parent })
}

/// Materialize every `k`-th version along each retrieval path of the
/// minimum-storage skeleton (depth measured in hops); the windowed "git
/// pack" style baseline.
pub fn checkpoint_plan(g: &VersionGraph, k: usize) -> StoragePlan {
    assert!(k >= 1, "checkpoint interval must be at least 1");
    let mut plan = min_storage_plan(g);
    let pf = plan.parent_fn(g);
    let order = dsv_vgraph::topo::forest_post_order(&pf);
    // Depth per node, processed parents-first (reverse post order).
    let mut depth = vec![0usize; g.n()];
    for &v in order.iter().rev() {
        if let Some(p) = pf[v.index()] {
            depth[v.index()] = depth[p.index()] + 1;
            if depth[v.index()].is_multiple_of(k) {
                plan.parent[v.index()] = Parent::Materialized;
                depth[v.index()] = 0;
            }
        }
    }
    plan
}

/// Smallest storage any feasible plan can use (cost of Problem 1's optimum).
pub fn min_storage_value(g: &VersionGraph) -> Cost {
    min_storage_plan(g).storage_cost(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_vgraph::generators::{bidirectional_path, random_tree, CostModel};

    #[test]
    fn min_storage_plan_is_valid_and_cheapest_among_baselines() {
        let g = random_tree(20, &CostModel::default(), 1);
        let plan = min_storage_plan(&g);
        plan.validate(&g).expect("valid");
        let s = plan.storage_cost(&g);
        let all = StoragePlan::materialize_all(&g).storage_cost(&g);
        assert!(s < all);
        let spt = shortest_path_plan(&g, NodeId(0)).expect("tree is connected");
        spt.validate(&g).expect("valid");
        assert!(s <= spt.storage_cost(&g));
    }

    #[test]
    fn min_storage_picks_cheap_deltas_over_materialization() {
        // Chain where deltas are far cheaper than nodes: only one
        // materialization should remain.
        let g = bidirectional_path(10, &CostModel::default(), 2);
        let plan = min_storage_plan(&g);
        assert_eq!(plan.materialized_count(), 1);
    }

    #[test]
    fn spt_minimizes_retrieval_from_root() {
        let g = bidirectional_path(6, &CostModel::default(), 3);
        let plan = shortest_path_plan(&g, NodeId(0)).expect("connected");
        let r = plan.retrievals(&g);
        // On a path, retrieval from the root is the prefix sums — strictly
        // increasing along the chain.
        for w in r.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn spt_none_when_unreachable() {
        let mut g = VersionGraph::with_nodes(2);
        g.set_node_storage(NodeId(0), 5);
        g.set_node_storage(NodeId(1), 5);
        // No edges: node 1 unreachable from node 0.
        assert!(shortest_path_plan(&g, NodeId(0)).is_none());
    }

    #[test]
    fn checkpointing_reduces_max_retrieval() {
        let g = bidirectional_path(30, &CostModel::default(), 4);
        let base = min_storage_plan(&g);
        let ck = checkpoint_plan(&g, 5);
        ck.validate(&g).expect("valid");
        assert!(ck.costs(&g).max_retrieval < base.costs(&g).max_retrieval);
        assert!(ck.materialized_count() > base.materialized_count());
        // Every 5th node along the chain is materialized: 1 root + 5.
        assert_eq!(ck.materialized_count(), 1 + (30 - 1) / 5);
    }

    #[test]
    fn extended_edges_shape() {
        let g = random_tree(5, &CostModel::default(), 5);
        let edges = extended_edges(&g);
        assert_eq!(edges.len(), g.m() + g.n());
        // Aux edges come last and originate from node n.
        for (i, v) in g.node_ids().enumerate() {
            let e = edges[g.m() + i];
            assert_eq!(e.src as usize, g.n());
            assert_eq!(e.dst as usize, v.index());
            assert_eq!(e.weight, g.node_storage(v) as i64);
        }
    }
}
