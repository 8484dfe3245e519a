//! Bidirectional-tree extraction (Section 6.2, steps 1–2).
//!
//! "Fix a node `v_root` as the root. Calculate a minimum spanning
//! arborescence `A` of the graph `G` rooted at `v_root`, using the sum of
//! retrieval and storage costs as weight. Generate a bidirectional tree
//! `G'` from `A`."
//!
//! The extracted tree keeps edge ids into the original graph so DP results
//! translate directly back into [`StoragePlan`](crate::plan::StoragePlan)s.

use dsv_vgraph::arborescence::{min_arborescence, ArbEdge};
use dsv_vgraph::{Cost, EdgeId, NodeId, VersionGraph, INF};

/// A rooted bidirectional tree over a version graph's nodes.
#[derive(Clone, Debug)]
pub struct BidirTree {
    /// The root version.
    pub root: NodeId,
    /// Tree parent of each node (None at the root).
    pub parent: Vec<Option<NodeId>>,
    /// Children lists.
    pub children: Vec<Vec<NodeId>>,
    /// Original edge `parent(v) → v` (None at the root).
    pub down_edge: Vec<Option<EdgeId>>,
    /// Original edge `v → parent(v)` when the graph has one.
    pub up_edge: Vec<Option<EdgeId>>,
    /// Euler entry timestamps (ancestor queries).
    pub tin: Vec<u32>,
    /// Euler exit timestamps.
    pub tout: Vec<u32>,
}

impl BidirTree {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Is `anc` an ancestor of `v` (or `v` itself)?
    #[inline]
    pub fn is_ancestor(&self, anc: NodeId, v: NodeId) -> bool {
        self.tin[anc.index()] <= self.tin[v.index()]
            && self.tout[v.index()] <= self.tout[anc.index()]
    }

    /// Retrieval cost of the directed tree edge `x → y` where `x` and `y`
    /// are tree-adjacent; [`INF`] when the graph lacks that delta.
    pub fn edge_retrieval(&self, g: &VersionGraph, x: NodeId, y: NodeId) -> Cost {
        self.edge_between(x, y)
            .map(|e| g.edge(e).retrieval)
            .unwrap_or(INF)
    }

    /// Storage cost of the directed tree edge `x → y`; [`INF`] when absent.
    pub fn edge_storage(&self, g: &VersionGraph, x: NodeId, y: NodeId) -> Cost {
        self.edge_between(x, y)
            .map(|e| g.edge(e).storage)
            .unwrap_or(INF)
    }

    /// The original-graph edge realizing the directed tree hop `x → y`.
    pub fn edge_between(&self, x: NodeId, y: NodeId) -> Option<EdgeId> {
        if self.parent[y.index()] == Some(x) {
            self.down_edge[y.index()]
        } else if self.parent[x.index()] == Some(y) {
            self.up_edge[x.index()]
        } else {
            None
        }
    }

    /// Nodes in post order (children before parents).
    pub fn post_order(&self) -> Vec<NodeId> {
        dsv_vgraph::topo::forest_post_order(&self.parent)
    }
}

/// Extract the minimum `s+r` arborescence rooted at `root` and promote it to
/// a bidirectional tree. Returns `None` when some node is unreachable from
/// `root` in the original digraph.
pub fn extract_tree(g: &VersionGraph, root: NodeId) -> Option<BidirTree> {
    let edges: Vec<ArbEdge> = g
        .edges()
        .iter()
        .map(|e| {
            ArbEdge::new(
                e.src.index(),
                e.dst.index(),
                e.storage.saturating_add(e.retrieval) as i64,
            )
        })
        .collect();
    let arb = min_arborescence(g.n(), root.index(), &edges)?;

    let n = g.n();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut down_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut up_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in 0..n {
        if let Some(ei) = arb.parent_edge[v] {
            let p = g.edge(EdgeId::new(ei)).src;
            parent[v] = Some(p);
            down_edge[v] = Some(EdgeId::new(ei));
            children[p.index()].push(NodeId::new(v));
        }
    }
    // Reverse edges: cheapest (by s + r) original delta in the opposite
    // direction, when the graph provides one.
    for v in 0..n {
        let Some(p) = parent[v] else { continue };
        let mut best: Option<(Cost, EdgeId)> = None;
        for &eid in g.out_edges(NodeId::new(v)) {
            let e = g.edge(eid);
            if e.dst == p {
                let w = e.storage.saturating_add(e.retrieval);
                if best.is_none_or(|(bw, _)| w < bw) {
                    best = Some((w, eid));
                }
            }
        }
        up_edge[v] = best.map(|(_, e)| e);
    }
    let (tin, tout) = dsv_vgraph::traversal::euler_tour(&parent);
    Some(BidirTree {
        root,
        parent,
        children,
        down_edge,
        up_edge,
        tin,
        tout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_vgraph::generators::{bidirectional_path, erdos_renyi_bidirectional, CostModel};

    #[test]
    fn path_extraction_preserves_chain() {
        let g = bidirectional_path(8, &CostModel::default(), 1);
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        assert_eq!(t.n(), 8);
        for v in 1..8 {
            assert_eq!(t.parent[v], Some(NodeId(v as u32 - 1)));
            assert!(t.down_edge[v].is_some());
            assert!(t.up_edge[v].is_some());
        }
        assert!(t.is_ancestor(NodeId(0), NodeId(7)));
        assert!(!t.is_ancestor(NodeId(7), NodeId(0)));
    }

    #[test]
    fn er_extraction_yields_spanning_tree() {
        let g = erdos_renyi_bidirectional(30, 0.3, &CostModel::default(), 2);
        let t = extract_tree(&g, NodeId(0)).expect("dense ER is connected");
        let non_roots = t.parent.iter().filter(|p| p.is_some()).count();
        assert_eq!(non_roots, g.n() - 1);
        // Edge lookups agree with the graph.
        for v in g.node_ids() {
            if let Some(p) = t.parent[v.index()] {
                let e = t.edge_between(p, v).expect("down edge");
                assert_eq!(g.edge(e).src, p);
                assert_eq!(g.edge(e).dst, v);
            }
        }
    }

    #[test]
    fn unreachable_root_returns_none() {
        let mut g = VersionGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1, 1);
        // Node 2 unreachable.
        assert!(extract_tree(&g, NodeId(0)).is_none());
    }

    #[test]
    fn missing_reverse_edges_cost_inf() {
        let mut g = VersionGraph::with_nodes(2);
        g.set_node_storage(NodeId(0), 10);
        g.set_node_storage(NodeId(1), 10);
        g.add_edge(NodeId(0), NodeId(1), 2, 3);
        let t = extract_tree(&g, NodeId(0)).expect("connected");
        assert_eq!(t.edge_retrieval(&g, NodeId(0), NodeId(1)), 3);
        assert_eq!(t.edge_retrieval(&g, NodeId(1), NodeId(0)), INF);
        assert!(t.up_edge[1].is_none());
    }
}
