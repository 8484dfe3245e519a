//! Synthetic version-graph families.
//!
//! These generators back the property tests and several experiments:
//!
//! * [`bidirectional_path`] — the chains of version histories without
//!   branches;
//! * [`star`], [`caterpillar`], [`random_tree`] — tree-shaped inputs for the
//!   Section 4/5 DPs;
//! * [`series_parallel`] — treewidth-2 graphs, the class the paper calls out
//!   as "highly resembl\[ing\] the version graphs we derive from real-world
//!   repositories";
//! * [`erdos_renyi_bidirectional`] — the ER construction of Section 7.1.

use crate::graph::VersionGraph;
use crate::ids::NodeId;
use crate::Cost;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cost ranges used by the random generators.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Range for node materialization costs (inclusive-exclusive).
    pub node_storage: (Cost, Cost),
    /// Range for edge storage costs.
    pub edge_storage: (Cost, Cost),
    /// Range for edge retrieval costs.
    pub edge_retrieval: (Cost, Cost),
}

impl Default for CostModel {
    fn default() -> Self {
        // Full versions are ~2 orders of magnitude bigger than deltas,
        // matching the natural-graph statistics of Table 4.
        CostModel {
            node_storage: (5_000, 15_000),
            edge_storage: (50, 500),
            edge_retrieval: (50, 500),
        }
    }
}

impl CostModel {
    /// A model where each edge's storage and retrieval costs are equal (the
    /// "single weight function" simplification of Section 2.2).
    pub fn single_weight() -> Self {
        CostModel {
            node_storage: (5_000, 15_000),
            edge_storage: (50, 500),
            edge_retrieval: (0, 0), // sentinel: mirrored from storage
        }
    }

    fn sample_node(&self, rng: &mut SmallRng) -> Cost {
        sample(rng, self.node_storage)
    }

    fn sample_edge(&self, rng: &mut SmallRng) -> (Cost, Cost) {
        let s = sample(rng, self.edge_storage);
        let r = if self.edge_retrieval == (0, 0) {
            s
        } else {
            sample(rng, self.edge_retrieval)
        };
        (s, r)
    }
}

fn sample(rng: &mut SmallRng, (lo, hi): (Cost, Cost)) -> Cost {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// A bidirectional path (both deltas available between consecutive versions).
pub fn bidirectional_path(n: usize, model: &CostModel, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(model.sample_node(&mut rng)))
        .collect();
    for w in nodes.windows(2) {
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(w[0], w[1], s, r);
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(w[1], w[0], s, r);
    }
    g
}

/// A star: `v0` in the middle, bidirectional spokes to all others.
pub fn star(n: usize, model: &CostModel, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(model.sample_node(&mut rng)))
        .collect();
    for &v in &nodes[1..] {
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(nodes[0], v, s, r);
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(v, nodes[0], s, r);
    }
    g
}

/// A caterpillar: a spine of length `spine` with `legs` leaves per spine
/// node; bidirectional edges. Models a main branch with short-lived topics.
pub fn caterpillar(spine: usize, legs: usize, model: &CostModel, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let spine_nodes: Vec<NodeId> = (0..spine)
        .map(|_| g.add_node(model.sample_node(&mut rng)))
        .collect();
    for w in spine_nodes.windows(2) {
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(w[0], w[1], s, r);
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(w[1], w[0], s, r);
    }
    for &sp in &spine_nodes {
        for _ in 0..legs {
            let leaf = g.add_node(model.sample_node(&mut rng));
            let (s, r) = model.sample_edge(&mut rng);
            g.add_edge(sp, leaf, s, r);
            let (s, r) = model.sample_edge(&mut rng);
            g.add_edge(leaf, sp, s, r);
        }
    }
    g
}

/// A uniformly random bidirectional tree: node `i > 0` attaches to a uniform
/// random node `< i`.
pub fn random_tree(n: usize, model: &CostModel, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(model.sample_node(&mut rng)))
        .collect();
    for i in 1..n {
        let p = nodes[rng.gen_range(0..i)];
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(p, nodes[i], s, r);
        let (s, r) = model.sample_edge(&mut rng);
        g.add_edge(nodes[i], p, s, r);
    }
    g
}

/// A random series-parallel graph (treewidth ≤ 2): start from a single edge
/// and repeatedly apply series or parallel compositions; bidirectional.
pub fn series_parallel(operations: usize, model: &CostModel, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let a = g.add_node(model.sample_node(&mut rng));
    let b = g.add_node(model.sample_node(&mut rng));
    // Track undirected connections as (u, v) pairs we can subdivide/duplicate.
    let mut pairs = vec![(a, b)];
    let (s, r) = model.sample_edge(&mut rng);
    g.add_edge(a, b, s, r);
    let (s, r) = model.sample_edge(&mut rng);
    g.add_edge(b, a, s, r);
    for _ in 0..operations {
        let (u, v) = pairs[rng.gen_range(0..pairs.len())];
        if rng.gen_bool(0.5) {
            // Series: subdivide with a fresh node.
            let w = g.add_node(model.sample_node(&mut rng));
            for (x, y) in [(u, w), (w, v)] {
                let (s, r) = model.sample_edge(&mut rng);
                g.add_edge(x, y, s, r);
                let (s, r) = model.sample_edge(&mut rng);
                g.add_edge(y, x, s, r);
                pairs.push((x, y));
            }
        } else {
            // Parallel: add another (u, v) delta pair.
            let (s, r) = model.sample_edge(&mut rng);
            g.add_edge(u, v, s, r);
            let (s, r) = model.sample_edge(&mut rng);
            g.add_edge(v, u, s, r);
        }
    }
    g
}

/// Erdős–Rényi bidirectional construction of Section 7.1: between each pair
/// `(u, v)`, with probability `p` both deltas are created (and with
/// probability `1 − p` neither is).
pub fn erdos_renyi_bidirectional(n: usize, p: f64, model: &CostModel, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(model.sample_node(&mut rng)))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                let (s, r) = model.sample_edge(&mut rng);
                g.add_edge(nodes[i], nodes[j], s, r);
                let (s, r) = model.sample_edge(&mut rng);
                g.add_edge(nodes[j], nodes[i], s, r);
            }
        }
    }
    g
}

/// A large branchy multi-component graph: `shards` clusters of
/// `shard_nodes` nodes each — alternating random trees and sparse ER
/// graphs (avg total degree ≈ 4, plus a spanning tree so each cluster is
/// connected) — joined by `cross_links` seeded bidirectional edges between
/// uniformly random nodes of adjacent clusters. With `cross_links == 0`
/// the result has exactly `shards` connected components; with more it
/// models a monorepo of loosely-coupled long-lived branches. This is the
/// fixture family for shard tests and the `shard` benchmark.
pub fn shard_forest(
    shards: usize,
    shard_nodes: usize,
    cross_links: usize,
    model: &CostModel,
    seed: u64,
) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = VersionGraph::new();
    let mut cluster_base = Vec::with_capacity(shards);
    for s in 0..shards {
        let base = g.n();
        cluster_base.push(base);
        let nodes: Vec<NodeId> = (0..shard_nodes)
            .map(|_| g.add_node(model.sample_node(&mut rng)))
            .collect();
        // Spanning tree keeps the cluster connected.
        for i in 1..shard_nodes {
            let p = nodes[rng.gen_range(0..i)];
            let (st, r) = model.sample_edge(&mut rng);
            g.add_edge(p, nodes[i], st, r);
            let (st, r) = model.sample_edge(&mut rng);
            g.add_edge(nodes[i], p, st, r);
        }
        // Even clusters stay trees; odd ones get ER chords (avg total
        // degree ~4 including the tree) so both branchy and dense shard
        // shapes are represented.
        if s % 2 == 1 && shard_nodes > 2 {
            for _ in 0..shard_nodes {
                let i = rng.gen_range(0..shard_nodes);
                let j = rng.gen_range(0..shard_nodes);
                if i == j {
                    continue;
                }
                let (st, r) = model.sample_edge(&mut rng);
                g.add_edge(nodes[i], nodes[j], st, r);
                let (st, r) = model.sample_edge(&mut rng);
                g.add_edge(nodes[j], nodes[i], st, r);
            }
        }
    }
    // Seeded cross-links between adjacent clusters (wrapping), spread
    // round-robin so every boundary gets roughly the same count.
    if shards > 1 && shard_nodes > 0 {
        for l in 0..cross_links {
            let a = l % shards;
            let b = (a + 1) % shards;
            let u = NodeId::new(cluster_base[a] + rng.gen_range(0..shard_nodes));
            let v = NodeId::new(cluster_base[b] + rng.gen_range(0..shard_nodes));
            let (st, r) = model.sample_edge(&mut rng);
            g.add_edge(u, v, st, r);
            let (st, r) = model.sample_edge(&mut rng);
            g.add_edge(v, u, st, r);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bidirectional_generators_are_bidirectional_trees() {
        let model = CostModel::default();
        for g in [
            bidirectional_path(6, &model, 2),
            star(6, &model, 3),
            caterpillar(4, 2, &model, 4),
            random_tree(9, &model, 5),
        ] {
            assert!(g.is_bidirectional());
            assert!(g.underlying_is_tree());
        }
    }

    #[test]
    fn single_weight_model_mirrors_storage() {
        let g = bidirectional_path(10, &CostModel::single_weight(), 7);
        for e in g.edges() {
            assert_eq!(e.storage, e.retrieval);
        }
    }

    #[test]
    fn series_parallel_counts() {
        let g = series_parallel(20, &CostModel::default(), 8);
        assert!(g.n() >= 2);
        assert!(g.is_bidirectional());
    }

    #[test]
    fn er_probability_extremes() {
        let model = CostModel::default();
        let empty = erdos_renyi_bidirectional(10, 0.0, &model, 9);
        assert_eq!(empty.m(), 0);
        let complete = erdos_renyi_bidirectional(10, 1.0, &model, 10);
        assert_eq!(complete.m(), 10 * 9); // both directions of each pair
        assert!(complete.is_bidirectional());
    }

    #[test]
    fn determinism_per_seed() {
        let a = random_tree(12, &CostModel::default(), 42);
        let b = random_tree(12, &CostModel::default(), 42);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn shard_forest_component_structure() {
        let model = CostModel::default();
        let isolated = shard_forest(4, 10, 0, &model, 1);
        assert_eq!(isolated.n(), 40);
        assert_eq!(isolated.connected_components().len(), 4);
        assert!(isolated.is_bidirectional());

        // Cross-links wrap around every boundary, merging everything.
        let linked = shard_forest(4, 10, 8, &model, 1);
        assert_eq!(linked.connected_components().len(), 1);
        assert_eq!(linked.m(), isolated.m() + 16);

        let again = shard_forest(4, 10, 8, &model, 1);
        assert_eq!(linked.edges(), again.edges(), "seeded determinism");
    }
}
