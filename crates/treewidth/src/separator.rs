//! Balanced vertex splits for shard partitioning.
//!
//! [`split_component`] cuts one connected graph (given as a plain local
//! edge list, the shape `dsv_vgraph::partition` injects its splitter with)
//! into two parts. Small components get the structure-aware route: a
//! min-degree elimination order → tree decomposition, whose **bags are
//! vertex separators** — removing the best bag splits the graph along its
//! branch structure, so version-graph clusters (low treewidth, per
//! footnote 7 of the paper) are cut at narrow waists instead of through
//! the middle of a branch. Components too large or too dense for the
//! superlinear elimination heuristic fall back to a deterministic
//! BFS-order bisection, which still respects locality (BFS layers) at
//! linear cost.
//!
//! Output is one part label (0/1) per local vertex; both parts are
//! non-empty for every input with at least two vertices.

use crate::decomposition::decomposition_from_order;
use crate::elimination::{elimination_order, EliminationHeuristic};

/// Components at or below this size use the elimination-order separator;
/// larger ones use BFS bisection (the elimination heuristic is quadratic).
pub const SEPARATOR_EXACT_LIMIT: usize = 768;

/// Components with more undirected edges than this use BFS bisection
/// whatever their size: elimination fill grows with density, so a dense
/// group of a few hundred nodes costs seconds per split. The limit is an
/// average degree of 4 at [`SEPARATOR_EXACT_LIMIT`] nodes: one split of a
/// 768-node Erdős–Rényi group at that density took 0.19 s on a 2-vCPU VM
/// (release build), at average degree 8 it took 1.8 s. Version graphs are
/// near-trees, with average degree 2–3.
pub const SEPARATOR_EXACT_EDGE_LIMIT: usize = 2 * SEPARATOR_EXACT_LIMIT;

/// Split one component into two non-empty parts, returning a part label
/// per local vertex `0..n`. Deterministic for a given `(n, edges)` input.
/// Matches the `dsv_vgraph::partition::Splitter` signature.
pub fn split_component(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    if n <= 1 {
        return vec![0; n];
    }
    if n <= SEPARATOR_EXACT_LIMIT && edges.len() <= SEPARATOR_EXACT_EDGE_LIMIT {
        if let Some(labels) = separator_split(n, edges) {
            return labels;
        }
    }
    bfs_bisect(n, edges)
}

/// Undirected adjacency in CSR form with each neighbour list ascending.
fn adjacency(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n + 1];
    for &(a, b) in edges {
        if a != b {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut list = vec![0u32; offsets[n] as usize];
    let mut cursor = offsets.clone();
    for &(a, b) in edges {
        if a != b {
            list[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            list[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
    }
    for v in 0..n {
        list[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
    }
    (offsets, list)
}

/// Structure-aware split: pick the decomposition bag whose removal
/// minimizes the largest remaining connected part, then bin-pack the
/// remaining parts into two sides and put the bag itself on the lighter
/// side. `None` when no bag actually separates (e.g. a clique), in which
/// case the caller falls back to BFS bisection.
fn separator_split(n: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    let (order, _) = elimination_order(n, edges, EliminationHeuristic::MinDegree);
    let td = decomposition_from_order(n, edges, &order);
    let (offsets, list) = adjacency(n, edges);

    // Score every bag: size of the largest connected part left after
    // removing the bag's vertices. Ties break on the earlier bag.
    let mut removed = vec![false; n];
    let mut comp = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut best: Option<(usize, usize)> = None; // (largest_part, bag index)
    for (i, bag) in td.bags.iter().enumerate() {
        if bag.len() >= n {
            continue;
        }
        for &v in bag {
            removed[v as usize] = true;
        }
        let mut largest = 0usize;
        comp[..n].fill(u32::MAX);
        for start in 0..n as u32 {
            if removed[start as usize] || comp[start as usize] != u32::MAX {
                continue;
            }
            let mut size = 0usize;
            comp[start as usize] = start;
            stack.push(start);
            while let Some(v) = stack.pop() {
                size += 1;
                for &w in &list[offsets[v as usize] as usize..offsets[v as usize + 1] as usize] {
                    if !removed[w as usize] && comp[w as usize] == u32::MAX {
                        comp[w as usize] = start;
                        stack.push(w);
                    }
                }
            }
            largest = largest.max(size);
        }
        for &v in bag {
            removed[v as usize] = false;
        }
        if best.is_none_or(|(b, _)| largest < b) {
            best = Some((largest, i));
        }
    }
    let (_, bag_idx) = best?;
    let bag = &td.bags[bag_idx];

    // Recompute the remaining parts for the winning bag, then bin-pack
    // them (largest first) onto the lighter side.
    for &v in bag {
        removed[v as usize] = true;
    }
    comp[..n].fill(u32::MAX);
    let mut part_sizes: Vec<(u32, usize)> = Vec::new(); // (component root, size)
    for start in 0..n as u32 {
        if removed[start as usize] || comp[start as usize] != u32::MAX {
            continue;
        }
        let mut size = 0usize;
        comp[start as usize] = start;
        stack.push(start);
        while let Some(v) = stack.pop() {
            size += 1;
            for &w in &list[offsets[v as usize] as usize..offsets[v as usize + 1] as usize] {
                if !removed[w as usize] && comp[w as usize] == u32::MAX {
                    comp[w as usize] = start;
                    stack.push(w);
                }
            }
        }
        part_sizes.push((start, size));
    }
    if part_sizes.len() < 2 {
        // The bag touched every remaining part: nothing to separate.
        return None;
    }
    part_sizes.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut side_of_root = std::collections::HashMap::new();
    let mut weights = [0usize; 2];
    for &(root, size) in &part_sizes {
        let side = usize::from(weights[1] < weights[0]);
        side_of_root.insert(root, side as u32);
        weights[side] += size;
    }
    let bag_side = u32::from(weights[1] < weights[0]);
    let labels = (0..n)
        .map(|v| {
            if removed[v] {
                bag_side
            } else {
                side_of_root[&comp[v]]
            }
        })
        .collect();
    Some(labels)
}

/// Deterministic linear-cost bisection: BFS from vertex 0 (ascending
/// neighbour order), unvisited vertices appended in id order, first half
/// of the visit order becomes part 0.
fn bfs_bisect(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let (offsets, list) = adjacency(n, edges);
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as u32 {
        if seen[start as usize] {
            continue;
        }
        seen[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &list[offsets[v as usize] as usize..offsets[v as usize + 1] as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    let half = n.div_ceil(2);
    let mut labels = vec![0u32; n];
    for &v in &order[half..] {
        labels[v as usize] = 1;
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_split(n: usize, labels: &[u32]) {
        assert_eq!(labels.len(), n);
        if n >= 2 {
            assert!(
                labels.contains(&0) && labels.contains(&1),
                "both parts used"
            );
        }
    }

    #[test]
    fn path_splits_near_the_middle() {
        let n = 101;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let labels = split_component(n, &edges);
        check_split(n, &labels);
        let part0 = labels.iter().filter(|&&l| l == 0).count();
        assert!(
            (20..=81).contains(&part0),
            "path split is reasonably balanced, got {part0}"
        );
        // A path separator is a single vertex: each side is contiguous
        // except for that one bag vertex, so label changes are rare.
        let flips = labels.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips <= 3, "path should be cut at a waist, {flips} flips");
    }

    #[test]
    fn two_clusters_with_a_bridge_cut_at_the_bridge() {
        // K5 – bridge – K5: the separator should put each clique whole on
        // one side.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
                edges.push((i + 5, j + 5));
            }
        }
        edges.push((4, 5));
        let labels = split_component(10, &edges);
        check_split(10, &labels);
        let first: Vec<u32> = labels[..5].to_vec();
        let second: Vec<u32> = labels[5..].to_vec();
        // Each clique lands on one side (all-equal labels within a clique).
        assert!(first.iter().all(|&l| l == first[0]) || second.iter().all(|&l| l == second[0]));
    }

    #[test]
    fn clique_falls_back_but_still_splits() {
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                edges.push((i, j));
            }
        }
        let labels = split_component(8, &edges);
        check_split(8, &labels);
    }

    #[test]
    fn dense_groups_take_the_bfs_bisection() {
        use dsv_vgraph::generators::{erdos_renyi_bidirectional, CostModel};
        // 700 nodes, under the size limit; ~7.3k undirected edges put the
        // group over the edge limit. Local edges as the partitioner emits
        // them: ascending, deduplicated, smaller endpoint first.
        let n = 700;
        let g = erdos_renyi_bidirectional(n, 0.03, &CostModel::default(), 7);
        let mut edges: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .map(|e| (e.src.0.min(e.dst.0), e.src.0.max(e.dst.0)))
            .filter(|&(a, b)| a != b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        assert!(edges.len() > SEPARATOR_EXACT_EDGE_LIMIT);
        assert_eq!(split_component(n, &edges), bfs_bisect(n, &edges));
    }

    #[test]
    fn bfs_bisect_halves_exactly() {
        let n = 40;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let labels = bfs_bisect(n, &edges);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 20);
        // BFS order on a path from 0 is the id order, so the cut is clean.
        assert!(labels[..20].iter().all(|&l| l == 0));
        assert!(labels[20..].iter().all(|&l| l == 1));
    }

    #[test]
    fn tiny_inputs() {
        assert_eq!(split_component(0, &[]), Vec::<u32>::new());
        assert_eq!(split_component(1, &[]), vec![0]);
        check_split(2, &split_component(2, &[(0, 1)]));
    }

    #[test]
    fn deterministic() {
        let edges: Vec<(u32, u32)> = (0..99u32).map(|i| (i, i + 1)).collect();
        assert_eq!(split_component(100, &edges), split_component(100, &edges));
    }
}
