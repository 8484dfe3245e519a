//! Dijkstra shortest-path arborescences.
//!
//! Problem 2 of the paper (Shortest Path Tree): ignore storage and minimize
//! every version's retrieval cost. The result doubles as the
//! retrieval-optimal extreme of the storage/retrieval trade-off curve.

use crate::graph::VersionGraph;
use crate::ids::{EdgeId, NodeId};
use crate::indexed_heap::IndexedHeap;
use crate::{Cost, INF};
use std::cmp::Reverse;

/// Result of a (multi-source) shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Distance from the nearest source, [`INF`] when unreachable.
    pub dist: Vec<Cost>,
    /// Edge used to enter each node on a shortest path (None at sources and
    /// unreachable nodes).
    pub parent_edge: Vec<Option<EdgeId>>,
}

impl ShortestPaths {
    /// Whether `v` is reachable from some source.
    pub fn reachable(&self, v: NodeId) -> bool {
        self.dist[v.index()] < INF
    }
}

/// Multi-source Dijkstra over the out-edges of `g`, weighted by retrieval
/// cost `r_e`.
///
/// `sources` yields `(node, initial distance)` pairs; passing every node of
/// the graph with its materialization cost as the initial distance computes
/// the materialize-or-retrieve lower envelope used by several heuristics.
pub fn dijkstra_multi(
    g: &VersionGraph,
    sources: impl IntoIterator<Item = (NodeId, Cost)>,
) -> ShortestPaths {
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = IndexedHeap::with_capacity(n);
    for (s, d0) in sources {
        if d0 < dist[s.index()] {
            dist[s.index()] = d0;
            heap.set(s.index(), Reverse(d0));
        }
    }
    while let Some((u, Reverse(du))) = heap.pop() {
        for &eid in g.out_edges(NodeId::new(u)) {
            let e = g.edge(eid);
            let nd = du.saturating_add(e.retrieval);
            let v = e.dst.index();
            if nd < dist[v] {
                dist[v] = nd;
                parent_edge[v] = Some(eid);
                heap.set(v, Reverse(nd));
            }
        }
    }
    ShortestPaths { dist, parent_edge }
}

/// Single-source Dijkstra from `src` with initial distance 0.
pub fn dijkstra(g: &VersionGraph, src: NodeId) -> ShortestPaths {
    dijkstra_multi(g, [(src, 0)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> VersionGraph {
        // 0 -> 1 -> 2, 0 -> 2 (expensive), 2 -> 3
        let mut g = VersionGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1, 2);
        g.add_edge(NodeId(1), NodeId(2), 1, 3);
        g.add_edge(NodeId(0), NodeId(2), 1, 10);
        g.add_edge(NodeId(2), NodeId(3), 1, 1);
        g
    }

    #[test]
    fn single_source_distances() {
        let g = grid();
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.dist, vec![0, 2, 5, 6]);
        assert_eq!(sp.parent_edge[2], Some(EdgeId(1)));
    }

    #[test]
    fn unreachable_nodes_get_inf() {
        let mut g = grid();
        let iso = g.add_node(7);
        let sp = dijkstra(&g, NodeId(0));
        assert!(!sp.reachable(iso));
        assert_eq!(sp.dist[iso.index()], INF);
    }

    #[test]
    fn multi_source_takes_minimum_envelope() {
        let g = grid();
        let sp = dijkstra_multi(&g, [(NodeId(0), 100), (NodeId(2), 0)]);
        assert_eq!(sp.dist, vec![100, 102, 0, 1]);
    }
}
