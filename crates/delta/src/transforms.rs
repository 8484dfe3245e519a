//! Graph transforms of Section 7.1.
//!
//! * [`random_compression`] — "We simulate compression of data by scaling
//!   storage cost with a random factor between 0.3 and 1, and increasing the
//!   retrieval cost by 20% (to simulate decompression). The resulting
//!   storage and retrieval costs are potentially very different."
//! * [`erdos_renyi_from_sketches`] — "between each pair `(u,v)` of versions,
//!   with probability `p` both deltas `(u,v)` and `(v,u)` are constructed,
//!   and with probability `1−p` neither are." Delta costs come from the
//!   chunk sketches, so unnatural pairs are priced by their true content
//!   distance.

use crate::chunks::ChunkSketch;
use dsv_vgraph::{NodeId, VersionGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Apply the random-compression transform, returning a new graph.
///
/// Storage costs (node and edge) scale by a uniform factor in `[0.3, 1.0)`;
/// edge retrieval costs grow by 20%.
pub fn random_compression(g: &VersionGraph, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = g.clone();
    for v in g.node_ids() {
        let f: f64 = rng.gen_range(0.3..1.0);
        let s = g.node_storage(v);
        out.set_node_storage(v, ((s as f64 * f).round() as u64).max(1));
    }
    for (e, data) in g.edge_refs() {
        let f: f64 = rng.gen_range(0.3..1.0);
        let storage = ((data.storage as f64 * f).round() as u64).max(1);
        let retrieval = ((data.retrieval as f64 * 1.2).round() as u64).max(1);
        out.set_edge_costs(e, storage, retrieval);
    }
    out
}

/// Build an Erdős–Rényi version graph over the versions whose contents are
/// given by `sketches`: node costs are the sketch sizes, and each unordered
/// pair is connected bidirectionally with probability `p`, priced by sketch
/// deltas.
pub fn erdos_renyi_from_sketches(sketches: &[ChunkSketch], p: f64, seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = sketches.len();
    let mut g = VersionGraph::new();
    for s in sketches {
        g.add_node(s.byte_size());
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                let fwd = sketches[i].delta_to(&sketches[j]);
                let bwd = sketches[j].delta_to(&sketches[i]);
                g.add_edge(
                    NodeId::new(i),
                    NodeId::new(j),
                    fwd.storage_cost(),
                    fwd.retrieval_cost(),
                );
                g.add_edge(
                    NodeId::new(j),
                    NodeId::new(i),
                    bwd.storage_cost(),
                    bwd.retrieval_cost(),
                );
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{corpus_with_content, CorpusName};

    fn leetcode_sketches() -> Vec<ChunkSketch> {
        corpus_with_content(CorpusName::LeetCodeAnimation, 0.15, 5, true)
            .sketches()
            .expect("sketch mode")
            .to_vec()
    }

    #[test]
    fn compression_shrinks_storage_and_grows_retrieval() {
        let base = corpus_with_content(CorpusName::LeetCodeAnimation, 0.1, 6, false).graph;
        let comp = random_compression(&base, 1);
        assert_eq!(base.n(), comp.n());
        assert_eq!(base.m(), comp.m());
        for v in base.node_ids() {
            assert!(comp.node_storage(v) <= base.node_storage(v));
        }
        let mut any_storage_shrunk = false;
        for (orig, new) in base.edges().iter().zip(comp.edges()) {
            assert!(new.storage <= orig.storage);
            assert!(new.retrieval >= orig.retrieval);
            if new.storage < orig.storage {
                any_storage_shrunk = true;
            }
        }
        assert!(any_storage_shrunk);
    }

    #[test]
    fn compression_decouples_weight_functions() {
        let base = corpus_with_content(CorpusName::LeetCodeAnimation, 0.1, 6, false).graph;
        let comp = random_compression(&base, 2);
        // The single-weight property must be broken by the transform.
        let proportional = comp
            .edges()
            .iter()
            .all(|e| (e.storage as f64 / e.retrieval as f64 - 1.0).abs() < 0.05);
        assert!(!proportional);
    }

    #[test]
    fn er_edge_count_tracks_probability() {
        let sk = leetcode_sketches();
        let n = sk.len();
        let g = erdos_renyi_from_sketches(&sk, 0.2, 3);
        let pairs = n * (n - 1) / 2;
        let expected = 2.0 * pairs as f64 * 0.2;
        assert!(
            (g.m() as f64) > expected * 0.5 && (g.m() as f64) < expected * 1.6,
            "edges {} vs expected {expected}",
            g.m()
        );
        let complete = erdos_renyi_from_sketches(&sk, 1.0, 4);
        assert_eq!(complete.m(), n * (n - 1));
    }

    #[test]
    fn er_unnatural_deltas_cost_more_than_natural() {
        let c = corpus_with_content(CorpusName::LeetCodeAnimation, 0.15, 5, true);
        let natural_avg = c.graph.avg_edge_storage();
        let er = erdos_renyi_from_sketches(c.sketches().expect("sketches"), 1.0, 5);
        let er_avg = er.avg_edge_storage();
        // Footnote 19: the average unnatural delta is ~10x a natural delta.
        assert!(
            er_avg > 2.0 * natural_avg,
            "expected unnatural deltas to dominate: {er_avg} vs {natural_avg}"
        );
    }
}
