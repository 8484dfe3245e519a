//! Treewidth estimation for version graphs.
//!
//! Footnote 7 of the paper reports that the GitHub-derived version graphs
//! have low treewidth (datasharing 2, styleguide 3, leetcode 6). We
//! reproduce that measurement with greedy elimination upper bounds — the
//! same technique used in practice, and exact on trees/series-parallel
//! graphs where the bounds are tight.

use crate::elimination::{elimination_order, EliminationHeuristic};
use dsv_vgraph::VersionGraph;

/// Deduplicated undirected edges of a version graph.
pub fn undirected_edges(g: &VersionGraph) -> Vec<(u32, u32)> {
    let mut set = std::collections::BTreeSet::new();
    for e in g.edges() {
        if e.src != e.dst {
            let (a, b) = if e.src < e.dst {
                (e.src.0, e.dst.0)
            } else {
                (e.dst.0, e.src.0)
            };
            set.insert((a, b));
        }
    }
    set.into_iter().collect()
}

/// Upper bound on the treewidth of a version graph's underlying undirected
/// graph: the better of min-degree and min-fill.
pub fn treewidth_upper_bound(g: &VersionGraph) -> usize {
    let edges = undirected_edges(g);
    let (_, w1) = elimination_order(g.n(), &edges, EliminationHeuristic::MinDegree);
    let (_, w2) = elimination_order(g.n(), &edges, EliminationHeuristic::MinFill);
    w1.min(w2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_vgraph::generators::{
        bidirectional_path, erdos_renyi_bidirectional, random_tree, series_parallel, CostModel,
    };

    #[test]
    fn trees_have_width_one() {
        let model = CostModel::default();
        assert_eq!(treewidth_upper_bound(&bidirectional_path(10, &model, 1)), 1);
        assert_eq!(treewidth_upper_bound(&random_tree(20, &model, 2)), 1);
    }

    #[test]
    fn series_parallel_has_width_at_most_two() {
        let g = series_parallel(25, &CostModel::default(), 3);
        assert!(treewidth_upper_bound(&g) <= 2);
    }

    #[test]
    fn er_graphs_have_larger_width() {
        let g = erdos_renyi_bidirectional(24, 0.4, &CostModel::default(), 4);
        // Dense ER graphs have treewidth Θ(n) whp (paper footnote 18).
        assert!(treewidth_upper_bound(&g) > 4);
    }
}
