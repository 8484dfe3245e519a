//! The [`VersionGraph`] container.
//!
//! A directed multigraph with per-node materialization costs and per-edge
//! (storage, retrieval) cost pairs, exactly the input model of Section 2.1
//! of the paper. Edge payloads live in a single arena so that algorithms can
//! index edges by [`EdgeId`] without pointer chasing; adjacency is served
//! from a **CSR index** (offset + arena arrays, one pair per direction)
//! built lazily from the edge arena on first query and maintained in place
//! by mutation. `out_edges`/`in_edges` therefore hand out contiguous slices —
//! "all edges incident to this node set" is a cache-friendly linear scan,
//! which the incremental LMG-All dirty-region rescans rely on. Within one
//! node's slice, edges appear in edge-id order (the same order the old
//! per-node `Vec<EdgeId>` lists had), so traversal order is unchanged.
//!
//! **Online mutation support.** Two pieces of derived state are maintained
//! incrementally so a commit burst does not pay O(n + m) per mutation:
//!
//! * the CSR index accepts *appends* in place — per-node slices carry slack
//!   capacity, a new edge (which always has the largest id) lands at the end
//!   of both endpoint slices, and only a slice overflow triggers a rebuild
//!   (with fresh slack, so a stream of appends settles into amortized O(1));
//! * a **rolling fingerprint** ([`VersionGraph::fingerprint`]) is kept as a
//!   commutative sum of per-node / per-edge contributions, updated in O(1)
//!   by `add_node`/`add_edge` and the cost setters, and in O(m) by
//!   [`VersionGraph::retire_version`],
//!   so memoization keys over mutating graphs never recompute O(n + m).

use crate::ids::{EdgeId, NodeId};
use crate::{Cost, INF};
use std::sync::OnceLock;

/// splitmix64 finalizer: the per-item mixer behind the rolling fingerprint.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const NODE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const EDGE_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Fingerprint contribution of one node. Contributions are combined with
/// wrapping addition (commutative), so single-item changes can be rolled by
/// subtracting the old contribution and adding the new one.
#[inline]
fn node_contrib(v: usize, storage: Cost, retired: bool) -> u64 {
    let mut h = mix64(v as u64 ^ NODE_SALT);
    h = mix64(h ^ storage);
    mix64(h ^ retired as u64)
}

/// Fingerprint contribution of one edge.
#[inline]
fn edge_contrib(e: usize, data: &EdgeData) -> u64 {
    let mut h = mix64(e as u64 ^ EDGE_SALT);
    h = mix64(h ^ data.src.0 as u64);
    h = mix64(h ^ data.dst.0 as u64);
    h = mix64(h ^ data.storage);
    mix64(h ^ data.retrieval)
}

/// Payload of a directed delta edge `src → dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeData {
    /// Tail of the edge (the version the delta is applied to).
    pub src: NodeId,
    /// Head of the edge (the version the delta produces).
    pub dst: NodeId,
    /// Cost of storing the delta (`s_e`).
    pub storage: Cost,
    /// Cost of applying the delta during retrieval (`r_e`).
    pub retrieval: Cost,
}

/// One direction of the CSR adjacency index. `offsets` has `n + 1` entries
/// marking per-node *capacity* boundaries; `list[offsets[v]..offsets[v] + lens[v]]`
/// are the live edge ids incident to `v`, in edge-id order (counting sort by
/// endpoint is stable, and appended edges always carry the largest id so an
/// in-place append at the slice end preserves the order). The gap between
/// `offsets[v] + lens[v]` and `offsets[v + 1]` is slack reserved for future
/// appends; a tight build has no slack.
#[derive(Clone, Debug, Default)]
struct AdjDir {
    offsets: Vec<u32>,
    lens: Vec<u32>,
    list: Vec<EdgeId>,
}

/// Largest number of edges the CSR index can address: offsets and cursors
/// are `u32`, so the edge arena must stay strictly below `u32::MAX`.
pub const MAX_EDGES: usize = u32::MAX as usize;

/// Slack reserved for a node appended to an already-built index, so the
/// typical "new version plus a handful of deltas" commit appends in place.
const NODE_RESERVE: u32 = 4;

impl AdjDir {
    /// Counting-sort build over one endpoint selector. `slack` adds
    /// per-node growth room (used after an append overflow so a mutation
    /// burst settles into amortized O(1) appends).
    fn build(
        n: usize,
        edges: &[EdgeData],
        endpoint: impl Fn(&EdgeData) -> usize,
        slack: bool,
    ) -> AdjDir {
        let mut lens = vec![0u32; n];
        for e in edges {
            lens[endpoint(e)] += 1;
        }
        let cap = |len: u32| {
            if slack {
                len + (len >> 1) + NODE_RESERVE
            } else {
                len
            }
        };
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + cap(lens[v]);
        }
        let mut list = vec![EdgeId(u32::MAX); offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (i, e) in edges.iter().enumerate() {
            let o = &mut cursor[endpoint(e)];
            list[*o as usize] = EdgeId::new(i);
            *o += 1;
        }
        AdjDir {
            offsets,
            lens,
            list,
        }
    }

    #[inline]
    fn slice(&self, v: usize) -> &[EdgeId] {
        let o = self.offsets[v] as usize;
        &self.list[o..o + self.lens[v] as usize]
    }

    /// Extend with one fresh node carrying `NODE_RESERVE` slack.
    fn push_node(&mut self) {
        let end = *self.offsets.last().unwrap();
        self.list
            .resize(end as usize + NODE_RESERVE as usize, EdgeId(u32::MAX));
        self.offsets.push(end + NODE_RESERVE);
        self.lens.push(0);
    }

    #[inline]
    fn has_room(&self, v: usize) -> bool {
        self.lens[v] < self.offsets[v + 1] - self.offsets[v]
    }

    #[inline]
    fn append(&mut self, v: usize, id: EdgeId) {
        let slot = self.offsets[v] + self.lens[v];
        self.list[slot as usize] = id;
        self.lens[v] += 1;
    }
}

/// Both directions of the CSR index.
#[derive(Clone, Debug, Default)]
struct AdjCsr {
    out: AdjDir,
    inn: AdjDir,
}

impl AdjCsr {
    fn build(n: usize, edges: &[EdgeData], slack: bool) -> AdjCsr {
        assert!(
            edges.len() < MAX_EDGES,
            "edge count {} exceeds the u32 CSR offset range ({MAX_EDGES} max)",
            edges.len()
        );
        AdjCsr {
            out: AdjDir::build(n, edges, |e| e.src.index(), slack),
            inn: AdjDir::build(n, edges, |e| e.dst.index(), slack),
        }
    }

    /// In-place append of a freshly-pushed edge (must carry the largest
    /// id). Returns `false` without modifying anything when either endpoint
    /// slice is out of slack — the caller rebuilds with slack instead.
    fn push_edge(&mut self, id: EdgeId, src: NodeId, dst: NodeId) -> bool {
        if !self.out.has_room(src.index()) || !self.inn.has_room(dst.index()) {
            return false;
        }
        self.out.append(src.index(), id);
        self.inn.append(dst.index(), id);
        true
    }

    fn push_node(&mut self) {
        self.out.push_node();
        self.inn.push_node();
    }
}

/// A directed version graph: nodes are dataset versions, edges are deltas.
#[derive(Clone, Debug, Default)]
pub struct VersionGraph {
    node_storage: Vec<Cost>,
    edges: Vec<EdgeData>,
    /// Lazily-built CSR adjacency; maintained in place by appends. No
    /// mutation moves an edge endpoint, so it is never reset.
    adj: OnceLock<AdjCsr>,
    /// Optional human-readable node labels (commit ids in the corpora).
    labels: Vec<String>,
    /// Tombstones for retired versions (indices stay stable).
    retired: Vec<bool>,
    /// Rolling fingerprint accumulator: wrapping sum of per-node and
    /// per-edge contributions, updated by every mutation.
    fp_acc: u64,
}

impl VersionGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a graph with `n` nodes, all with materialization cost 0.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = VersionGraph {
            node_storage: vec![0; n],
            edges: Vec::new(),
            adj: OnceLock::new(),
            labels: Vec::new(),
            retired: vec![false; n],
            fp_acc: 0,
        };
        g.fp_acc = g.fp_scratch_acc();
        g
    }

    /// The CSR adjacency index, built (tight) on first use.
    #[inline]
    fn adj(&self) -> &AdjCsr {
        self.adj
            .get_or_init(|| AdjCsr::build(self.n(), &self.edges, false))
    }

    /// Recompute the fingerprint accumulator from scratch (O(n + m)).
    fn fp_scratch_acc(&self) -> u64 {
        let mut acc = 0u64;
        for (v, (&s, &r)) in self.node_storage.iter().zip(&self.retired).enumerate() {
            acc = acc.wrapping_add(node_contrib(v, s, r));
        }
        for (e, data) in self.edges.iter().enumerate() {
            acc = acc.wrapping_add(edge_contrib(e, data));
        }
        acc
    }

    #[inline]
    fn fp_finalize(&self, acc: u64) -> u64 {
        mix64(acc ^ mix64(self.n() as u64) ^ mix64((self.m() as u64).wrapping_add(EDGE_SALT)))
    }

    /// Rolling structural fingerprint of the graph: nodes (storage cost and
    /// retirement), edges (endpoints and both costs), and the (n, m) shape.
    /// O(1) to read — mutations keep the accumulator current — and equal to
    /// [`VersionGraph::fingerprint_recomputed`] at all times, so memo keys
    /// (`SharedWork`, the service's plan memos) stay valid across online
    /// mutation without O(n + m) rehashing.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fp_finalize(self.fp_acc)
    }

    /// From-scratch O(n + m) recomputation of [`VersionGraph::fingerprint`];
    /// the differential oracle that pins the rolling value in tests.
    pub fn fingerprint_recomputed(&self) -> u64 {
        self.fp_finalize(self.fp_scratch_acc())
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.node_storage.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Add a node with materialization cost `storage`, returning its id.
    ///
    /// O(1): the CSR index (if built) is extended in place and the rolling
    /// fingerprint absorbs the node's contribution.
    pub fn add_node(&mut self, storage: Cost) -> NodeId {
        let id = NodeId::new(self.node_storage.len());
        self.fp_acc = self
            .fp_acc
            .wrapping_add(node_contrib(id.index(), storage, false));
        self.node_storage.push(storage);
        self.retired.push(false);
        if let Some(adj) = self.adj.get_mut() {
            adj.push_node();
        }
        id
    }

    /// Online-mutation alias for [`VersionGraph::add_node`]: a new version
    /// arriving in a commit stream.
    #[inline]
    pub fn add_version(&mut self, storage: Cost) -> NodeId {
        self.add_node(storage)
    }

    /// Add a labelled node (labels are only used in reports).
    pub fn add_labelled_node(&mut self, storage: Cost, label: impl Into<String>) -> NodeId {
        let id = self.add_node(storage);
        self.labels.resize(self.node_storage.len(), String::new());
        self.labels[id.index()] = label.into();
        id
    }

    /// Add a directed delta edge, returning its id.
    ///
    /// Amortized O(1) when the CSR index is built: the new edge carries the
    /// largest id, so it appends at the end of both endpoint slices; only a
    /// slack overflow triggers a rebuild (which installs fresh slack).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, storage: Cost, retrieval: Cost) -> EdgeId {
        assert!(src.index() < self.n(), "edge source out of bounds");
        assert!(dst.index() < self.n(), "edge target out of bounds");
        assert!(
            self.edges.len() < MAX_EDGES,
            "edge count would exceed the u32 CSR offset range ({MAX_EDGES} max)"
        );
        // Preserve the retirement invariant: every edge incident to a
        // retired version carries INF costs, whether it existed at
        // retirement time or was added afterwards.
        let (storage, retrieval) = if self.retired[src.index()] || self.retired[dst.index()] {
            (INF, INF)
        } else {
            (storage, retrieval)
        };
        let id = EdgeId::new(self.edges.len());
        let data = EdgeData {
            src,
            dst,
            storage,
            retrieval,
        };
        self.fp_acc = self.fp_acc.wrapping_add(edge_contrib(id.index(), &data));
        self.edges.push(data);
        if let Some(adj) = self.adj.get_mut() {
            if !adj.push_edge(id, src, dst) {
                *adj = AdjCsr::build(self.node_storage.len(), &self.edges, true);
            }
        }
        id
    }

    /// Add both `(u,v)` and `(v,u)` with identical costs; returns both ids.
    pub fn add_bidirectional_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        storage: Cost,
        retrieval: Cost,
    ) -> (EdgeId, EdgeId) {
        (
            self.add_edge(u, v, storage, retrieval),
            self.add_edge(v, u, storage, retrieval),
        )
    }

    /// Materialization cost `s_v` of a node.
    #[inline]
    pub fn node_storage(&self, v: NodeId) -> Cost {
        self.node_storage[v.index()]
    }

    /// Set a node's materialization cost. O(1): the node's fingerprint
    /// contribution is rolled out and back in.
    pub fn set_node_storage(&mut self, v: NodeId, storage: Cost) {
        let (i, retired) = (v.index(), self.retired[v.index()]);
        self.fp_acc = self
            .fp_acc
            .wrapping_sub(node_contrib(i, self.node_storage[i], retired))
            .wrapping_add(node_contrib(i, storage, retired));
        self.node_storage[i] = storage;
    }

    /// True if the version has been retired via
    /// [`VersionGraph::retire_version`].
    #[inline]
    pub fn is_retired(&self, v: NodeId) -> bool {
        self.retired[v.index()]
    }

    /// Number of retired versions.
    pub fn retired_count(&self) -> usize {
        self.retired.iter().filter(|&&r| r).count()
    }

    /// Retire a version: its materialization cost drops to zero and every
    /// incident delta edge gets `INF` costs, so no plan can store the
    /// version or route another version's reconstruction through it, while
    /// node and edge ids stay stable (plans remain index-parallel). The
    /// tombstoned version is kept `Materialized` at zero cost by planners;
    /// the store layer releases its objects on migration. O(m) arena scan
    /// (no CSR build needed, and the CSR stays valid — endpoints are
    /// untouched). Idempotent.
    pub fn retire_version(&mut self, v: NodeId) {
        assert!(v.index() < self.n(), "retired version out of bounds");
        if self.retired[v.index()] {
            return;
        }
        self.fp_acc =
            self.fp_acc
                .wrapping_sub(node_contrib(v.index(), self.node_storage[v.index()], false));
        self.node_storage[v.index()] = 0;
        self.retired[v.index()] = true;
        self.fp_acc = self.fp_acc.wrapping_add(node_contrib(v.index(), 0, true));
        for (i, e) in self.edges.iter_mut().enumerate() {
            if (e.src == v || e.dst == v) && (e.storage != INF || e.retrieval != INF) {
                self.fp_acc = self.fp_acc.wrapping_sub(edge_contrib(i, e));
                e.storage = INF;
                e.retrieval = INF;
                self.fp_acc = self.fp_acc.wrapping_add(edge_contrib(i, e));
            }
        }
    }

    /// Label of a node, if one was assigned.
    pub fn label(&self, v: NodeId) -> Option<&str> {
        self.labels
            .get(v.index())
            .map(|s| s.as_str())
            .filter(|s| !s.is_empty())
    }

    /// Edge payload by id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        &self.edges[e.index()]
    }

    /// Set an edge's storage and retrieval costs (used by the cost
    /// transforms). O(1): endpoints are untouched, so the CSR index stays
    /// valid, and the edge's fingerprint contribution is rolled out and
    /// back in.
    pub fn set_edge_costs(&mut self, e: EdgeId, storage: Cost, retrieval: Cost) {
        let i = e.index();
        self.fp_acc = self.fp_acc.wrapping_sub(edge_contrib(i, &self.edges[i]));
        let data = &mut self.edges[i];
        data.storage = storage;
        data.retrieval = retrieval;
        self.fp_acc = self.fp_acc.wrapping_add(edge_contrib(i, data));
    }

    /// All edge payloads, in id order.
    #[inline]
    pub fn edges(&self) -> &[EdgeData] {
        &self.edges
    }

    /// Ids of edges leaving `v` (a contiguous CSR slice, edge-id order).
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        self.adj().out.slice(v.index())
    }

    /// Ids of edges entering `v` (a contiguous CSR slice, edge-id order).
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        self.adj().inn.slice(v.index())
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.n() as u32).map(NodeId)
    }

    /// Iterator over `(EdgeId, &EdgeData)` pairs.
    pub fn edge_refs(&self) -> impl Iterator<Item = (EdgeId, &EdgeData)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Sum of all node materialization costs (the "store everything" plan).
    pub fn total_node_storage(&self) -> Cost {
        self.node_storage.iter().sum()
    }

    /// Average node materialization cost, as reported in Table 4.
    pub fn avg_node_storage(&self) -> f64 {
        if self.n() == 0 {
            return 0.0;
        }
        self.total_node_storage() as f64 / self.n() as f64
    }

    /// Average edge storage cost, as reported in Table 4.
    pub fn avg_edge_storage(&self) -> f64 {
        if self.m() == 0 {
            return 0.0;
        }
        self.edges.iter().map(|e| e.storage).sum::<Cost>() as f64 / self.m() as f64
    }

    /// Largest edge retrieval cost (`r_max` in Section 5.1).
    pub fn max_edge_retrieval(&self) -> Cost {
        self.edges.iter().map(|e| e.retrieval).max().unwrap_or(0)
    }

    /// True if for every edge `(u,v)` the reverse edge `(v,u)` also exists.
    pub fn is_bidirectional(&self) -> bool {
        use std::collections::HashSet;
        let pairs: HashSet<(NodeId, NodeId)> = self.edges.iter().map(|e| (e.src, e.dst)).collect();
        self.edges.iter().all(|e| pairs.contains(&(e.dst, e.src)))
    }

    /// True if the underlying undirected graph is a tree (connected, and the
    /// number of distinct undirected edges is `n - 1`). Self-loops disqualify.
    pub fn underlying_is_tree(&self) -> bool {
        use std::collections::HashSet;
        if self.n() == 0 {
            return true;
        }
        let mut undirected: HashSet<(NodeId, NodeId)> = HashSet::new();
        for e in &self.edges {
            if e.src == e.dst {
                return false;
            }
            let (a, b) = if e.src < e.dst {
                (e.src, e.dst)
            } else {
                (e.dst, e.src)
            };
            undirected.insert((a, b));
        }
        if undirected.len() != self.n() - 1 {
            return false;
        }
        // Connectivity over the undirected closure.
        let mut adj = vec![Vec::new(); self.n()];
        for &(a, b) in &undirected {
            adj[a.index()].push(b);
            adj[b.index()].push(a);
        }
        let mut seen = vec![false; self.n()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> VersionGraph {
        // v0 -> v1 -> v3, v0 -> v2 -> v3
        let mut g = VersionGraph::new();
        let v0 = g.add_node(100);
        let v1 = g.add_node(110);
        let v2 = g.add_node(120);
        let v3 = g.add_node(130);
        g.add_edge(v0, v1, 10, 11);
        g.add_edge(v0, v2, 20, 21);
        g.add_edge(v1, v3, 30, 31);
        g.add_edge(v2, v3, 40, 41);
        g
    }

    #[test]
    fn construction_and_degrees() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_edges(NodeId(0)).len(), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.node_storage(NodeId(2)), 120);
        let e = g.edge(EdgeId(2));
        assert_eq!(
            (e.src, e.dst, e.storage, e.retrieval),
            (NodeId(1), NodeId(3), 30, 31)
        );
    }

    #[test]
    fn adjacency_is_consistent_with_edge_arena() {
        let g = diamond();
        for v in g.node_ids() {
            for &e in g.out_edges(v) {
                assert_eq!(g.edge(e).src, v);
            }
            for &e in g.in_edges(v) {
                assert_eq!(g.edge(e).dst, v);
            }
        }
    }

    #[test]
    fn table4_statistics() {
        let g = diamond();
        assert_eq!(g.total_node_storage(), 460);
        assert!((g.avg_node_storage() - 115.0).abs() < 1e-9);
        assert!((g.avg_edge_storage() - 25.0).abs() < 1e-9);
        assert_eq!(g.max_edge_retrieval(), 41);
    }

    #[test]
    fn bidirectional_detection() {
        let mut g = VersionGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1, 1);
        assert!(!g.is_bidirectional());
        g.add_edge(NodeId(1), NodeId(0), 2, 2);
        assert!(g.is_bidirectional());
    }

    #[test]
    fn underlying_tree_detection() {
        let mut g = VersionGraph::with_nodes(3);
        g.add_bidirectional_edge(NodeId(0), NodeId(1), 1, 1);
        g.add_bidirectional_edge(NodeId(1), NodeId(2), 1, 1);
        assert!(g.underlying_is_tree());
        g.add_edge(NodeId(0), NodeId(2), 1, 1); // creates a cycle
        assert!(!g.underlying_is_tree());
    }

    #[test]
    fn disconnected_is_not_tree() {
        let mut g = VersionGraph::with_nodes(4);
        g.add_bidirectional_edge(NodeId(0), NodeId(1), 1, 1);
        g.add_bidirectional_edge(NodeId(2), NodeId(3), 1, 1);
        assert!(!g.underlying_is_tree());
    }

    #[test]
    fn labels() {
        let mut g = VersionGraph::new();
        let a = g.add_labelled_node(5, "commit-a");
        let b = g.add_node(6);
        assert_eq!(g.label(a), Some("commit-a"));
        assert_eq!(g.label(b), None);
    }

    #[test]
    fn csr_adjacency_tracks_mutation() {
        let mut g = diamond();
        // Force the CSR build, then mutate and re-query.
        assert_eq!(g.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(1)]);
        let v4 = g.add_node(5);
        let e = g.add_edge(NodeId(0), v4, 1, 2);
        assert_eq!(g.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(1), e]);
        assert_eq!(g.in_edges(v4), &[e]);
        assert_eq!(g.out_edges(NodeId(0)).len(), 3);
        // Slices stay in edge-id order per node.
        for v in g.node_ids() {
            assert!(g.out_edges(v).windows(2).all(|w| w[0] < w[1]));
            assert!(g.in_edges(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The incrementally-maintained CSR must hand out exactly the slices a
    /// from-scratch rebuild would, after any interleaving of builds,
    /// appends, and overflow-triggered slack rebuilds.
    #[test]
    fn csr_appends_match_fresh_build() {
        let mut g = diamond();
        let _ = g.out_edges(NodeId(0)); // force a tight build
        let mut nodes: Vec<NodeId> = g.node_ids().collect();
        for round in 0..40u64 {
            let v = g.add_node(10 + round);
            // Fan in/out to older nodes, repeatedly overflowing slack.
            for k in 0..(1 + (round as usize % 4)) {
                let u = nodes[(round as usize * 7 + k * 3) % nodes.len()];
                g.add_edge(u, v, 1, 1);
                g.add_edge(v, u, 2, 2);
            }
            nodes.push(v);
            // Interleave queries so the maintained index is exercised.
            let fresh: VersionGraph = {
                let mut f = VersionGraph::with_nodes(g.n());
                for (i, &s) in g.node_storage.iter().enumerate() {
                    f.set_node_storage(NodeId::new(i), s);
                }
                for e in g.edges() {
                    f.add_edge(e.src, e.dst, e.storage, e.retrieval);
                }
                f
            };
            for w in g.node_ids() {
                assert_eq!(g.out_edges(w), fresh.out_edges(w), "out slices diverged");
                assert_eq!(g.in_edges(w), fresh.in_edges(w), "in slices diverged");
            }
        }
    }

    #[test]
    fn rolling_fingerprint_matches_recomputation() {
        let mut g = diamond();
        assert_eq!(g.fingerprint(), g.fingerprint_recomputed());
        let v4 = g.add_version(77);
        assert_eq!(g.fingerprint(), g.fingerprint_recomputed());
        let e = g.add_edge(NodeId(1), v4, 3, 4);
        assert_eq!(g.fingerprint(), g.fingerprint_recomputed());
        g.set_edge_costs(e, 3, 9);
        assert_eq!(g.fingerprint(), g.fingerprint_recomputed());
        g.set_node_storage(NodeId(2), 500);
        assert_eq!(g.fingerprint(), g.fingerprint_recomputed());
        g.retire_version(NodeId(3));
        assert_eq!(g.fingerprint(), g.fingerprint_recomputed());
        // Every mutation changed the fingerprint (no trivial collisions on
        // this stream), and a structurally identical rebuild agrees.
        let mut h = VersionGraph::new();
        for v in g.node_ids() {
            h.add_node(g.node_storage(v));
        }
        for ed in g.edges() {
            h.add_edge(ed.src, ed.dst, ed.storage, ed.retrieval);
        }
        for v in g.node_ids() {
            if g.is_retired(v) {
                // Rebuild the retired state directly so costs already match.
                h.retired[v.index()] = true;
                h.fp_acc = h
                    .fp_acc
                    .wrapping_sub(node_contrib(v.index(), 0, false))
                    .wrapping_add(node_contrib(v.index(), 0, true));
            }
        }
        assert_eq!(g.fingerprint(), h.fingerprint());
        assert_eq!(h.fingerprint(), h.fingerprint_recomputed());
    }

    #[test]
    fn fingerprint_distinguishes_shape_and_costs() {
        let a = diamond();
        let mut b = diamond();
        b.set_node_storage(NodeId(0), 101);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut e = diamond();
        e.set_edge_costs(EdgeId(1), 20, 22);
        assert_ne!(a.fingerprint(), e.fingerprint());
        let mut c = diamond();
        c.add_version(1);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = diamond();
        d.retire_version(NodeId(3));
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn retire_version_tombstones_node_and_edges() {
        let mut g = diamond();
        let _ = g.out_edges(NodeId(0)); // CSR stays valid across retire
        g.retire_version(NodeId(1));
        assert!(g.is_retired(NodeId(1)));
        assert_eq!(g.retired_count(), 1);
        assert_eq!(g.node_storage(NodeId(1)), 0);
        // Incident edges (both directions) are priced out; others intact.
        assert_eq!(g.edge(EdgeId(0)).storage, INF); // v0 -> v1
        assert_eq!(g.edge(EdgeId(0)).retrieval, INF);
        assert_eq!(g.edge(EdgeId(2)).storage, INF); // v1 -> v3
        assert_eq!(g.edge(EdgeId(1)).storage, 20); // v0 -> v2 untouched
                                                   // Ids and adjacency are stable.
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(1)]);
        // Idempotent, and the fingerprint stays pinned.
        g.retire_version(NodeId(1));
        assert_eq!(g.retired_count(), 1);
        assert_eq!(g.fingerprint(), g.fingerprint_recomputed());
    }

    #[test]
    fn multigraph_allows_parallel_edges() {
        let mut g = VersionGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1, 1);
        g.add_edge(NodeId(0), NodeId(1), 2, 2);
        assert_eq!(g.m(), 2);
        assert_eq!(g.out_edges(NodeId(0)).len(), 2);
    }
}
