//! Graph partitioning for sharded solving.
//!
//! Splits a [`VersionGraph`] into bounded-size **shards** so oversized
//! instances can be solved piecewise and stitched back together (see
//! `dsv_core::engine`): connected components first (on [`UnionFind`] —
//! components never interact, so they are free parallelism), then oversized
//! components are cut recursively by an injected **splitter** (the
//! `dsv_treewidth` crate provides a separator-based one; this crate stays
//! independent of it, so the splitter arrives as a closure over the plain
//! local edge list).
//!
//! Both [`Components`] and [`Partition`] are flat CSR-style structures —
//! three `u32` arrays each, no per-group allocations — matching the memory
//! diet of the sharded solve path. Ordering is deterministic everywhere:
//! components and shards are numbered by their smallest member id, members
//! are listed ascending, and the driver's recursion is order-stable, so the
//! same graph always yields byte-identical partitions.

use crate::graph::VersionGraph;
use crate::ids::NodeId;
use crate::unionfind::UnionFind;
use serde::{object, Deserialize, Error, Serialize, Value};
use std::fmt;

/// Connected components of a graph's undirected closure, in CSR layout.
///
/// Components are numbered by smallest member id (component 0 contains node
/// 0); members of each component are listed in ascending id order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// Component id of each node.
    comp_of: Vec<u32>,
    /// `members(c)` = `nodes[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    nodes: Vec<u32>,
}

impl Components {
    /// Number of connected components.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph had no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Component id of a node.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> u32 {
        self.comp_of[v.index()]
    }

    /// Members of component `c`, ascending node indices.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.nodes[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Iterate over the member slices of every component, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|c| self.members(c))
    }
}

impl VersionGraph {
    /// Connected components of the undirected closure, with deterministic
    /// ordering: components numbered by smallest member id, members
    /// ascending. Runs one [`UnionFind`] pass over the edge arena.
    pub fn connected_components(&self) -> Components {
        let n = self.n();
        let mut uf = UnionFind::new(n);
        for e in self.edges() {
            uf.union(e.src.index(), e.dst.index());
        }
        let mut comp_of = vec![u32::MAX; n];
        let mut root_comp = vec![u32::MAX; n];
        let mut count = 0u32;
        for (v, c) in comp_of.iter_mut().enumerate() {
            let r = uf.find(v);
            if root_comp[r] == u32::MAX {
                root_comp[r] = count;
                count += 1;
            }
            *c = root_comp[r];
        }
        // Counting sort by component id: members come out ascending because
        // nodes are visited in id order.
        let mut offsets = vec![0u32; count as usize + 1];
        for &c in &comp_of {
            offsets[c as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut nodes = vec![0u32; n];
        for (v, &c) in comp_of.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            nodes[*slot as usize] = v as u32;
            *slot += 1;
        }
        Components {
            comp_of,
            offsets,
            nodes,
        }
    }
}

/// A structurally invalid [`Partition`] — the typed rejection used by both
/// the wire format and [`Partition::validate`], replacing what would
/// otherwise be panic-prone debug asserts downstream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The partition covers a different number of nodes than the graph.
    NodeCountMismatch {
        /// Nodes assigned by the partition.
        partition: usize,
        /// Nodes in the graph.
        graph: usize,
    },
    /// Shard ids must form a gap-free range `0..k`; this id is unused.
    EmptyShard {
        /// The shard id with no members.
        shard: u32,
    },
    /// A shard groups nodes from different connected components: any edge
    /// the stitch layer would route between them would be a cross-component
    /// edge that cannot exist in the graph.
    CrossComponentShard {
        /// The offending shard id.
        shard: u32,
        /// A member of the first component.
        a: u32,
        /// A member of a different component.
        b: u32,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NodeCountMismatch { partition, graph } => write!(
                f,
                "partition assigns {partition} nodes but the graph has {graph}"
            ),
            PartitionError::EmptyShard { shard } => {
                write!(f, "shard id {shard} has no members (ids must form 0..k)")
            }
            PartitionError::CrossComponentShard { shard, a, b } => write!(
                f,
                "shard {shard} spans connected components (v{a} and v{b} are \
                 in different components — no edge can cross between them)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A partition of a graph's nodes into shards, in CSR layout.
///
/// Shards are numbered by smallest member id; members of each shard are
/// ascending node indices. Built by [`partition_graph`] or deserialized
/// from the wire (`{"shard_of": [..]}`), in which case structural checks
/// run on input and graph-dependent checks via [`Partition::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Shard id of each node.
    shard_of: Vec<u32>,
    /// `members(s)` = `nodes[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    nodes: Vec<u32>,
}

impl Partition {
    /// Build from a per-node shard assignment. Fails with a typed error if
    /// any shard id in `0..max(shard_of)+1` is unused (ids must be gap-free
    /// so shard indices can be array indices downstream).
    ///
    /// Total on wire input: nothing is sized by a shard id. Gap-free ids
    /// over `n` nodes imply `k <= n`, so an id `>= n` is rejected, as the
    /// lowest unused id below `n`, before any id-sized allocation.
    pub fn from_shard_of(shard_of: Vec<u32>) -> Result<Partition, PartitionError> {
        let n = shard_of.len();
        let k = shard_of.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
        if k > n {
            // n nodes, one of them on an id >= n: at most n - 1 ids below n
            // are used, so one of them is a gap.
            let mut used = vec![false; n];
            for &s in &shard_of {
                if let Some(u) = used.get_mut(s as usize) {
                    *u = true;
                }
            }
            let gap = used
                .iter()
                .position(|&u| !u)
                .expect("an id >= n leaves a gap");
            return Err(PartitionError::EmptyShard { shard: gap as u32 });
        }
        let mut offsets = vec![0u32; k + 1];
        for &s in &shard_of {
            offsets[s as usize + 1] += 1;
        }
        for s in 0..k {
            if offsets[s + 1] == 0 {
                return Err(PartitionError::EmptyShard { shard: s as u32 });
            }
        }
        for i in 1..=k {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut nodes = vec![0u32; n];
        for (v, &s) in shard_of.iter().enumerate() {
            let slot = &mut cursor[s as usize];
            nodes[*slot as usize] = v as u32;
            *slot += 1;
        }
        Ok(Partition {
            shard_of,
            offsets,
            nodes,
        })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the partition covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.shard_of.is_empty()
    }

    /// Shard id of a node.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> u32 {
        self.shard_of[v.index()]
    }

    /// Members of shard `s`, ascending node indices.
    pub fn members(&self, s: usize) -> &[u32] {
        &self.nodes[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Iterate over the member slices of every shard, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|s| self.members(s))
    }

    /// Size of the largest shard.
    pub fn max_shard_len(&self) -> usize {
        (0..self.len())
            .map(|s| self.members(s).len())
            .max()
            .unwrap_or(0)
    }

    /// Graph-dependent validation: node counts agree and no shard spans two
    /// connected components (the cross-component rejection — such a shard
    /// would force the stitch layer to invent edges that cannot exist).
    pub fn validate(&self, g: &VersionGraph) -> Result<(), PartitionError> {
        if self.shard_of.len() != g.n() {
            return Err(PartitionError::NodeCountMismatch {
                partition: self.shard_of.len(),
                graph: g.n(),
            });
        }
        let comps = g.connected_components();
        for (s, members) in self.iter().enumerate() {
            let first = members[0];
            let c0 = comps.component_of(NodeId(first));
            for &v in &members[1..] {
                if comps.component_of(NodeId(v)) != c0 {
                    return Err(PartitionError::CrossComponentShard {
                        shard: s as u32,
                        a: first,
                        b: v,
                    });
                }
            }
        }
        Ok(())
    }
}

// Wire format: just the per-node assignment; the CSR view is re-derived and
// the structural checks of `from_shard_of` run on input.
impl Serialize for Partition {
    fn to_value(&self) -> Value {
        object([("shard_of", self.shard_of.to_value())])
    }
}

impl Deserialize for Partition {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let shard_of: Vec<u32> = Vec::from_value(v.field("shard_of")?)?;
        Partition::from_shard_of(shard_of).map_err(|e| Error::new(e.to_string()))
    }
}

/// A splitter cuts one oversized connected group: given the local node
/// count and the deduplicated undirected edge list over local indices
/// `0..n`, it returns one part label per local node. Injected into
/// [`partition_graph`] so this crate stays independent of the treewidth
/// crate that provides the separator-based implementation.
pub type Splitter<'a> = dyn Fn(usize, &[(u32, u32)]) -> Vec<u32> + Sync + 'a;

/// The trivial splitter: first half of the local ids to part 0, rest to
/// part 1. Ignores structure entirely — the guaranteed-terminating
/// fallback, and a useful control in tests.
pub fn halve_by_order(n: usize, _edges: &[(u32, u32)]) -> Vec<u32> {
    let half = n.div_ceil(2) as u32;
    (0..n as u32).map(|i| u32::from(i >= half)).collect()
}

/// Partition `g` into shards of at most `max_shard_nodes` nodes:
/// connected components first, then oversized components are cut
/// recursively by `splitter`. If a splitter cut fails to make progress
/// (one part keeps everything), the driver falls back to
/// [`halve_by_order`], so termination is unconditional.
///
/// The recursion runs on the thread pool: independent oversized groups are
/// split in halves on [`rayon::join`], each cut with its own scratch.
///
/// Deterministic: shards are numbered by smallest member id, members are
/// ascending, and every cut depends only on its own group — independent
/// of the splitter's own label numbering and of the pool width.
pub fn partition_graph(g: &VersionGraph, max_shard_nodes: usize, splitter: &Splitter) -> Partition {
    let max = max_shard_nodes.max(1);
    let comps = g.connected_components();
    let groups: Vec<Vec<u32>> = comps.iter().map(<[u32]>::to_vec).collect();
    let mut shards = cut_down(g, groups, max, splitter);
    // Members stayed ascending through every cut; number shards by
    // smallest member so the result is independent of recursion order.
    shards.sort_unstable_by_key(|s| s[0]);
    let mut shard_of = vec![0u32; g.n()];
    for (s, members) in shards.iter().enumerate() {
        for &v in members {
            shard_of[v as usize] = s as u32;
        }
    }
    Partition::from_shard_of(shard_of).expect("driver emits gap-free non-empty shards")
}

/// Cut every group down to at most `max` nodes. Groups already small
/// enough are kept; the oversized ones are halved as a list on
/// [`rayon::join`], so independent cuts run in parallel.
fn cut_down(
    g: &VersionGraph,
    groups: Vec<Vec<u32>>,
    max: usize,
    splitter: &Splitter,
) -> Vec<Vec<u32>> {
    let (mut done, mut big): (Vec<_>, Vec<_>) = groups.into_iter().partition(|s| s.len() <= max);
    match big.len() {
        0 => {}
        1 => {
            let parts = cut(g, &big[0], splitter);
            done.extend(cut_down(g, parts, max, splitter));
        }
        len => {
            let right = big.split_off(len / 2);
            let (a, b) = rayon::join(
                || cut_down(g, big, max, splitter),
                || cut_down(g, right, max, splitter),
            );
            done.extend(a);
            done.extend(b);
        }
    }
    done
}

/// One cut of an oversized group (ascending members) into two or more
/// non-empty parts, each ascending. The splitter sees the group's local
/// undirected edge list; a cut that makes no progress falls back to
/// [`halve_by_order`].
fn cut(g: &VersionGraph, group: &[u32], splitter: &Splitter) -> Vec<Vec<u32>> {
    // Per-cut scratch: global → local index over the group's id range.
    let lo = group[0];
    let mut local_of = vec![u32::MAX; (group[group.len() - 1] - lo) as usize + 1];
    for (i, &v) in group.iter().enumerate() {
        local_of[(v - lo) as usize] = i as u32;
    }
    let local = |u: NodeId| {
        let i = u.0.wrapping_sub(lo) as usize;
        local_of.get(i).copied().unwrap_or(u32::MAX)
    };
    // Each undirected edge is emitted at its smaller endpoint, from that
    // node's out- and in-edges: ascending and deduplicated without a
    // global sort. Endpoints outside the group (MAX) and self-loops drop.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut above: Vec<u32> = Vec::new();
    for (a, &v) in group.iter().enumerate() {
        let a = a as u32;
        let v = NodeId(v);
        above.clear();
        let outs = g.out_edges(v).iter().map(|&e| local(g.edge(e).dst));
        let ins = g.in_edges(v).iter().map(|&e| local(g.edge(e).src));
        above.extend(outs.chain(ins).filter(|&b| b > a && b != u32::MAX));
        above.sort_unstable();
        above.dedup();
        edges.extend(above.iter().map(|&b| (a, b)));
    }
    let labels = splitter(group.len(), &edges);
    let mut parts: Vec<Vec<u32>> = Vec::new();
    if labels.len() == group.len() {
        let k = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(1);
        parts.resize(k, Vec::new());
        for (&v, &l) in group.iter().zip(&labels) {
            parts[l as usize].push(v);
        }
        parts.retain(|s| !s.is_empty());
    }
    // No progress (wrong arity, or one part kept everything): fall back
    // to positional halving, which always strictly shrinks both parts.
    if parts.len() < 2 || parts.iter().any(|s| s.len() == group.len()) {
        let labels = halve_by_order(group.len(), &edges);
        parts = vec![Vec::new(), Vec::new()];
        for (&v, &l) in group.iter().zip(&labels) {
            parts[l as usize].push(v);
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_bidirectional, random_tree, CostModel};

    fn two_component_graph() -> VersionGraph {
        // {0,1,2} connected, {3,4} connected, 5 isolated.
        let mut g = VersionGraph::with_nodes(6);
        g.add_bidirectional_edge(NodeId(0), NodeId(2), 1, 1);
        g.add_bidirectional_edge(NodeId(2), NodeId(1), 1, 1);
        g.add_bidirectional_edge(NodeId(3), NodeId(4), 1, 1);
        g
    }

    #[test]
    fn components_deterministic_ordering() {
        let c = two_component_graph().connected_components();
        assert_eq!(c.len(), 3);
        assert_eq!(c.members(0), &[0, 1, 2]);
        assert_eq!(c.members(1), &[3, 4]);
        assert_eq!(c.members(2), &[5]);
        assert_eq!(c.component_of(NodeId(1)), 0);
        assert_eq!(c.component_of(NodeId(4)), 1);
        assert_eq!(c.component_of(NodeId(5)), 2);
    }

    #[test]
    fn empty_graph_components() {
        let c = VersionGraph::new().connected_components();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn partition_respects_max_and_covers_all_nodes() {
        let g = erdos_renyi_bidirectional(60, 0.1, &CostModel::default(), 11);
        let p = partition_graph(&g, 16, &halve_by_order);
        assert!(p.max_shard_len() <= 16);
        let mut seen = vec![false; g.n()];
        for members in p.iter() {
            assert!(!members.is_empty());
            assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascending");
            for &v in members {
                assert!(!std::mem::replace(&mut seen[v as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s), "every node assigned exactly once");
        p.validate(&g).expect("driver output validates");
    }

    #[test]
    fn small_components_stay_whole() {
        let g = two_component_graph();
        let p = partition_graph(&g, 10, &halve_by_order);
        assert_eq!(p.len(), 3);
        assert_eq!(p.members(0), &[0, 1, 2]);
        assert_eq!(p.members(1), &[3, 4]);
        assert_eq!(p.members(2), &[5]);
    }

    #[test]
    fn degenerate_splitter_still_terminates() {
        // A splitter that refuses to split; the driver must fall back.
        let refuse = |n: usize, _e: &[(u32, u32)]| vec![0u32; n];
        let g = random_tree(40, &CostModel::default(), 3);
        let p = partition_graph(&g, 8, &refuse);
        assert!(p.max_shard_len() <= 8);
        p.validate(&g).expect("fallback output validates");
    }

    #[test]
    fn cross_component_shard_rejected_with_typed_error() {
        let g = two_component_graph();
        // One shard grouping nodes 2 (component 0) and 3 (component 1).
        let p = Partition::from_shard_of(vec![0, 0, 1, 1, 2, 3]).unwrap();
        assert_eq!(
            p.validate(&g),
            Err(PartitionError::CrossComponentShard {
                shard: 1,
                a: 2,
                b: 3
            })
        );
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let g = two_component_graph();
        let p = Partition::from_shard_of(vec![0, 0, 0]).unwrap();
        assert_eq!(
            p.validate(&g),
            Err(PartitionError::NodeCountMismatch {
                partition: 3,
                graph: 6
            })
        );
    }

    #[test]
    fn gap_in_shard_ids_rejected() {
        assert_eq!(
            Partition::from_shard_of(vec![0, 2, 2]),
            Err(PartitionError::EmptyShard { shard: 1 })
        );
    }

    #[test]
    fn ids_at_or_above_n_rejected_before_allocating() {
        // Sizing by the id would ask for ~16 GB here.
        assert_eq!(
            Partition::from_shard_of(vec![4_000_000_000]),
            Err(PartitionError::EmptyShard { shard: 0 })
        );
        assert_eq!(
            Partition::from_shard_of(vec![0, u32::MAX, 1]),
            Err(PartitionError::EmptyShard { shard: 2 })
        );
        // Gap-free up to n - 1 is still fine.
        assert_eq!(Partition::from_shard_of(vec![2, 1, 0]).unwrap().len(), 3);
        let bad = r#"{"shard_of":[4000000000]}"#;
        assert!(serde_json::from_str::<Partition>(bad).is_err());
    }

    #[test]
    fn wire_roundtrip_and_corruption_rejected() {
        let g = erdos_renyi_bidirectional(20, 0.2, &CostModel::default(), 5);
        let p = partition_graph(&g, 6, &halve_by_order);
        let json = serde_json::to_string(&p).unwrap();
        let back: Partition = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // A gap-introducing corruption must surface as a typed wire error.
        let bad = r#"{"shard_of":[0,3,3]}"#;
        assert!(serde_json::from_str::<Partition>(bad).is_err());
    }

    /// Valid `Partition` JSON over `n` nodes: ids assigned by first
    /// appearance of `labels[v] % k`, so they are gap-free.
    fn valid_json(labels: &[u32], k: u32) -> String {
        let mut id_of = vec![u32::MAX; k as usize];
        let mut next = 0;
        let shard_of: Vec<u32> = labels
            .iter()
            .map(|&l| {
                let id = &mut id_of[(l % k) as usize];
                if *id == u32::MAX {
                    *id = next;
                    next += 1;
                }
                *id
            })
            .collect();
        let p = Partition::from_shard_of(shard_of).expect("gap-free by construction");
        serde_json::to_string(&p).unwrap()
    }

    /// Inflated ids spliced over one id of valid JSON: past `n`, past
    /// `u32`, and far past `u64`.
    const INFLATED: [&str; 5] = [
        "64",
        "4000000000",
        "4294967295",
        "4294967296",
        "184467440737095516160",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The wire decoder is total: bit flips, inflated ids, truncation
        /// and splices of valid `Partition` JSON decode to a well-formed
        /// partition or a typed error, never a panic or an id-sized
        /// allocation.
        #[test]
        fn mutated_partition_json_is_ok_or_typed_error(
            labels in proptest::collection::vec(0u32..64, 1..48),
            k in 1u32..12,
            kind in 0u32..4,
            (x, y, z) in (0usize..4096, 0usize..4096, 0usize..4096),
        ) {
            let json = valid_json(&labels, k);
            let mut bytes = json.clone().into_bytes();
            let len = bytes.len();
            match kind {
                0 => bytes[x % len] ^= 1 << (y % 8),
                1 => {
                    // Replace the (y mod n)-th id with an inflated one.
                    let open = json.find('[').expect("array") + 1;
                    let close = json.rfind(']').expect("array");
                    let mut ids: Vec<&str> = json[open..close].split(',').collect();
                    let i = y % ids.len();
                    ids[i] = INFLATED[z % INFLATED.len()];
                    bytes = format!("{}{}{}", &json[..open], ids.join(","), &json[close..])
                        .into_bytes();
                }
                2 => bytes.truncate(x % len),
                _ => {
                    // Copy a slice of the document to another position.
                    let (a, b) = ((x % len).min(y % len), (x % len).max(y % len));
                    let piece = bytes[a..b].to_vec();
                    let at = z % (len + 1);
                    bytes.splice(at..at, piece);
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(p) = serde_json::from_str::<Partition>(&text) {
                // Accepted: a well-formed partition of its own node count.
                let n = p.shard_of.len();
                proptest::prop_assert!(p.len() <= n);
                let mut seen = vec![false; n];
                for (s, members) in p.iter().enumerate() {
                    proptest::prop_assert!(!members.is_empty());
                    for &v in members {
                        proptest::prop_assert_eq!(p.shard_of(NodeId(v)), s as u32);
                        proptest::prop_assert!(!std::mem::replace(&mut seen[v as usize], true));
                    }
                }
                proptest::prop_assert!(seen.iter().all(|&s| s));
            }
        }
    }
}
