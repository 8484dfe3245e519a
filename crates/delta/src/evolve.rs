//! Commit-DAG evolution simulator.
//!
//! Replays the life of a repository: commits advance branch tips, new
//! branches fork off existing tips, and merge commits join two tips (giving
//! merge nodes two parents — the reason real version graphs are tree-like
//! but not trees, cf. footnote 11 of the paper). For every parent/child
//! pair bidirectional delta edges are added with costs priced by the delta
//! engine, exactly mirroring the graph construction of Section 7.1.
//!
//! Two content models are supported:
//!
//! * **Text** — versions are real line sequences ([`crate::dataset`]),
//!   deltas are real Myers diffs. Used for the smaller corpora.
//! * **Sketch** — versions are chunk sketches ([`crate::chunks`]). Used for
//!   corpora whose versions are megabytes to hundreds of megabytes.
//!
//! ## Determinism
//!
//! Generation is deterministic per seed, and the randomness is split into
//! independent streams: one stream drives *topology* (branch/merge/tip
//! choices) and every commit's *content* edits are drawn from a stream
//! seeded by `(seed, commit index)`. No content draw ever consumes from
//! another commit's stream, so generated corpora are byte-stable no matter
//! how the surrounding harness is threaded (`DSV_NUM_THREADS` — the CI
//! thread matrix — never changes a corpus), and per-commit content
//! synthesis can be parallelized without changing a single byte.
//!
//! With `keep_content` set, the full per-version content (snapshots or
//! sketches) is retained as a [`CorpusContent`] — the [`VersionSource`]
//! that the on-disk store executes plans against.
//!
//! [`VersionSource`]: crate::store::VersionSource

use crate::chunks::ChunkSketch;
use crate::dataset::{LineStore, Snapshot};
use crate::store::{splitmix64, CorpusContent};
use dsv_vgraph::{NodeId, VersionGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for the text content model.
#[derive(Clone, Debug)]
pub struct TextParams {
    /// Number of files in the initial version.
    pub files: usize,
    /// Lines per file in the initial version.
    pub init_lines_per_file: usize,
    /// Approximate bytes per line.
    pub line_len: usize,
    /// Range of edit operations per commit (inclusive).
    pub edits_per_commit: (usize, usize),
    /// Probability an edit inserts (vs deletes) a line; the remainder keeps
    /// sizes roughly stationary.
    pub insert_ratio: f64,
}

/// Parameters for the chunk-sketch content model.
#[derive(Clone, Debug)]
pub struct SketchParams {
    /// Mean chunk size in bytes.
    pub chunk_size: u32,
    /// Initial total content bytes.
    pub init_bytes: u64,
    /// Range of bytes added per commit (inclusive).
    pub churn_bytes: (u64, u64),
    /// Fraction of churn that replaces existing chunks rather than growing
    /// the version.
    pub replace_ratio: f64,
}

/// Content model selector.
#[derive(Clone, Debug)]
pub enum ContentMode {
    /// Real text + Myers diffs.
    Text(TextParams),
    /// Statistical chunk sketches.
    Sketch(SketchParams),
}

/// Full evolution parameters.
#[derive(Clone, Debug)]
pub struct EvolveParams {
    /// Number of commits (nodes).
    pub commits: usize,
    /// Probability a commit forks a new branch.
    pub branch_prob: f64,
    /// Probability a commit merges two branches (when ≥ 2 exist).
    pub merge_prob: f64,
    /// Upper bound on simultaneously live branches.
    pub max_branches: usize,
    /// Retain the full per-version content as a [`CorpusContent`]
    /// (snapshots in text mode, sketches in sketch mode) — needed by the ER
    /// construction and by store execution.
    pub keep_content: bool,
    /// Content model.
    pub mode: ContentMode,
    /// RNG seed (generation is fully deterministic per seed; see the
    /// module docs for the stream split).
    pub seed: u64,
}

/// Result of an evolution run.
#[derive(Clone, Debug)]
pub struct Evolution {
    /// The version graph (bidirectional parent/child delta edges).
    pub graph: VersionGraph,
    /// Parent commits of each node (2 entries for merge commits).
    pub parents: Vec<Vec<u32>>,
    /// Per-version content when `keep_content` was set.
    pub content: Option<CorpusContent>,
    /// Number of merge commits generated.
    pub merge_count: usize,
}

/// The topology stream: branch/merge/tip decisions.
fn topology_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed ^ 0xD15E_A5ED_7090_0001))
}

/// The per-commit content stream: edits of commit `index` (the root's
/// initial content is commit 0).
fn content_rng(seed: u64, index: usize) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(
        seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// Run the simulator.
pub fn evolve(params: &EvolveParams) -> Evolution {
    match &params.mode {
        ContentMode::Text(tp) => evolve_text(params, tp),
        ContentMode::Sketch(sp) => evolve_sketch(params, sp),
    }
}

// ---------------------------------------------------------------- text mode

fn random_line(rng: &mut SmallRng, len: usize) -> String {
    const WORDS: [&str; 16] = [
        "data",
        "version",
        "store",
        "delta",
        "graph",
        "commit",
        "merge",
        "branch",
        "retrieval",
        "storage",
        "index",
        "schema",
        "table",
        "column",
        "record",
        "lineage",
    ];
    let mut s = String::with_capacity(len + 8);
    while s.len() < len {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
        // A numeric suffix keeps most lines distinct, like real content.
        if rng.gen_bool(0.3) {
            s.push_str(&format!("{}", rng.gen_range(0..100_000)));
        }
    }
    s
}

fn evolve_text(params: &EvolveParams, tp: &TextParams) -> Evolution {
    let mut topo = topology_rng(params.seed);
    let mut store = LineStore::new();

    // Initial snapshot — commit 0's content stream.
    let mut init_rng = content_rng(params.seed, 0);
    let mut init = Snapshot::default();
    for f in 0..tp.files {
        let lines: Vec<u32> = (0..tp.init_lines_per_file)
            .map(|_| {
                let l = random_line(&mut init_rng, tp.line_len);
                store.intern(&l)
            })
            .collect();
        init.files.insert(format!("file{f:03}.txt"), lines);
    }

    let mut g = VersionGraph::new();
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(params.commits);
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let root = g.add_node(init.byte_size(&store));
    parents.push(Vec::new());
    if params.keep_content {
        snapshots.push(init.clone());
    }
    // Tips: (node id, snapshot).
    let mut tips: Vec<(NodeId, Snapshot)> = vec![(root, init)];
    let mut merge_count = 0usize;

    let connect = |g: &mut VersionGraph,
                   store: &LineStore,
                   parent: NodeId,
                   parent_snap: &Snapshot,
                   child: NodeId,
                   child_snap: &Snapshot| {
        let fwd = parent_snap.delta_to(child_snap, store);
        let bwd = child_snap.delta_to(parent_snap, store);
        g.add_edge(parent, child, fwd.storage_cost(), fwd.retrieval_cost());
        g.add_edge(child, parent, bwd.storage_cost(), bwd.retrieval_cost());
    };

    while g.n() < params.commits {
        let can_merge = tips.len() >= 2 && g.n() + 1 < params.commits;
        if can_merge && topo.gen_bool(params.merge_prob) {
            // Merge two random distinct tips (content is deterministic
            // conflict resolution — no randomness consumed).
            let i = topo.gen_range(0..tips.len());
            let mut j = topo.gen_range(0..tips.len() - 1);
            if j >= i {
                j += 1;
            }
            let (hi, lo) = (i.max(j), i.min(j));
            let (p2, s2) = tips.swap_remove(hi);
            let (p1, s1) = tips.swap_remove(lo);
            let merged = merge_snapshots(&s1, &s2);
            let child = g.add_node(merged.byte_size(&store));
            parents.push(vec![p1.0, p2.0]);
            connect(&mut g, &store, p1, &s1, child, &merged);
            connect(&mut g, &store, p2, &s2, child, &merged);
            if params.keep_content {
                snapshots.push(merged.clone());
            }
            tips.push((child, merged));
            merge_count += 1;
        } else {
            // Advance or fork a tip; edits come from the child commit's
            // own content stream.
            let idx = topo.gen_range(0..tips.len());
            let fork = tips.len() < params.max_branches && topo.gen_bool(params.branch_prob);
            let (pid, psnap) = tips[idx].clone();
            let mut snap = psnap.clone();
            let mut edit_rng = content_rng(params.seed, g.n());
            edit_snapshot(&mut snap, &mut store, tp, &mut edit_rng);
            let child = g.add_node(snap.byte_size(&store));
            parents.push(vec![pid.0]);
            connect(&mut g, &store, pid, &psnap, child, &snap);
            if params.keep_content {
                snapshots.push(snap.clone());
            }
            if fork {
                tips.push((child, snap));
            } else {
                tips[idx] = (child, snap);
            }
        }
    }

    let content = params.keep_content.then_some(CorpusContent::Text {
        lines: store,
        snapshots,
    });
    Evolution {
        graph: g,
        parents,
        content,
        merge_count,
    }
}

fn edit_snapshot(snap: &mut Snapshot, store: &mut LineStore, tp: &TextParams, rng: &mut SmallRng) {
    let paths: Vec<String> = snap.files.keys().cloned().collect();
    let edits = rng.gen_range(tp.edits_per_commit.0..=tp.edits_per_commit.1.max(1));
    for _ in 0..edits {
        let path = &paths[rng.gen_range(0..paths.len())];
        let lines = snap.files.get_mut(path).expect("path exists");
        if lines.is_empty() || rng.gen_bool(tp.insert_ratio) {
            let l = random_line(rng, tp.line_len);
            let id = store.intern(&l);
            let pos = rng.gen_range(0..=lines.len());
            lines.insert(pos, id);
        } else {
            let pos = rng.gen_range(0..lines.len());
            lines.remove(pos);
        }
    }
}

/// Deterministic conflict resolution: per file take the longer side, and
/// keep files unique to either parent.
fn merge_snapshots(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    for (path, lines) in &b.files {
        match out.files.get(path) {
            Some(existing) if existing.len() >= lines.len() => {}
            _ => {
                out.files.insert(path.clone(), lines.clone());
            }
        }
    }
    out
}

// -------------------------------------------------------------- sketch mode

fn evolve_sketch(params: &EvolveParams, sp: &SketchParams) -> Evolution {
    let mut topo = topology_rng(params.seed);
    // Chunk ids are content addresses: a global counter keeps them unique
    // across commits (the sequence of draws per commit is fixed by its
    // stream, so the assignment is deterministic).
    let mut next_chunk_id: u64 = 1;
    let fresh_chunk = |rng: &mut SmallRng, next: &mut u64| -> (u64, u32) {
        let id = *next;
        *next += 1;
        // Chunk sizes jitter ±50% around the mean.
        let lo = (sp.chunk_size / 2).max(1);
        let hi = sp.chunk_size + sp.chunk_size / 2;
        (id, rng.gen_range(lo..=hi))
    };

    let mut init_rng = content_rng(params.seed, 0);
    let mut init = ChunkSketch::new();
    while init.byte_size() < sp.init_bytes {
        let (id, sz) = fresh_chunk(&mut init_rng, &mut next_chunk_id);
        init.insert(id, sz);
    }

    let mut g = VersionGraph::new();
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(params.commits);
    let mut all_sketches: Vec<ChunkSketch> = Vec::new();
    let root = g.add_node(init.byte_size());
    parents.push(Vec::new());
    if params.keep_content {
        all_sketches.push(init.clone());
    }
    let mut tips: Vec<(NodeId, ChunkSketch)> = vec![(root, init)];
    let mut merge_count = 0usize;

    let connect = |g: &mut VersionGraph,
                   parent: NodeId,
                   ps: &ChunkSketch,
                   child: NodeId,
                   cs: &ChunkSketch| {
        let fwd = ps.delta_to(cs);
        let bwd = cs.delta_to(ps);
        g.add_edge(parent, child, fwd.storage_cost(), fwd.retrieval_cost());
        g.add_edge(child, parent, bwd.storage_cost(), bwd.retrieval_cost());
    };

    while g.n() < params.commits {
        let can_merge = tips.len() >= 2 && g.n() + 1 < params.commits;
        if can_merge && topo.gen_bool(params.merge_prob) {
            let i = topo.gen_range(0..tips.len());
            let mut j = topo.gen_range(0..tips.len() - 1);
            if j >= i {
                j += 1;
            }
            let (hi, lo) = (i.max(j), i.min(j));
            let (p2, s2) = tips.swap_remove(hi);
            let (p1, s1) = tips.swap_remove(lo);
            // Merge = chunk union (both sides' content survives).
            let mut merged = s1.clone();
            for (id, sz) in s2.iter() {
                if !merged.contains(id) {
                    merged.insert(id, sz);
                }
            }
            let child = g.add_node(merged.byte_size());
            parents.push(vec![p1.0, p2.0]);
            connect(&mut g, p1, &s1, child, &merged);
            connect(&mut g, p2, &s2, child, &merged);
            if params.keep_content {
                all_sketches.push(merged.clone());
            }
            tips.push((child, merged));
            merge_count += 1;
        } else {
            let idx = topo.gen_range(0..tips.len());
            let fork = tips.len() < params.max_branches && topo.gen_bool(params.branch_prob);
            let (pid, psketch) = tips[idx].clone();
            let mut sketch = psketch.clone();
            // Apply churn from the child commit's own content stream:
            // replace some chunks, add the rest as growth.
            let mut churn_rng = content_rng(params.seed, g.n());
            let churn = churn_rng.gen_range(sp.churn_bytes.0..=sp.churn_bytes.1.max(1));
            let mut added = 0u64;
            while added < churn {
                let (id, sz) = fresh_chunk(&mut churn_rng, &mut next_chunk_id);
                if churn_rng.gen_bool(sp.replace_ratio) && sketch.chunk_count() > 1 {
                    // Replace: drop a random existing chunk.
                    let ids = sketch.ids();
                    let victim = ids[churn_rng.gen_range(0..ids.len())];
                    sketch.remove(victim);
                }
                sketch.insert(id, sz);
                added += sz as u64;
            }
            let child = g.add_node(sketch.byte_size());
            parents.push(vec![pid.0]);
            connect(&mut g, pid, &psketch, child, &sketch);
            if params.keep_content {
                all_sketches.push(sketch.clone());
            }
            if fork {
                tips.push((child, sketch));
            } else {
                tips[idx] = (child, sketch);
            }
        }
    }

    let content = params.keep_content.then_some(CorpusContent::Sketch {
        sketches: all_sketches,
    });
    Evolution {
        graph: g,
        parents,
        content,
        merge_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_params(commits: usize) -> EvolveParams {
        EvolveParams {
            commits,
            branch_prob: 0.1,
            merge_prob: 0.1,
            max_branches: 4,
            keep_content: false,
            mode: ContentMode::Text(TextParams {
                files: 3,
                init_lines_per_file: 40,
                line_len: 50,
                edits_per_commit: (1, 6),
                insert_ratio: 0.55,
            }),
            seed: 11,
        }
    }

    fn sketch_params(commits: usize) -> EvolveParams {
        EvolveParams {
            commits,
            branch_prob: 0.15,
            merge_prob: 0.1,
            max_branches: 6,
            keep_content: true,
            mode: ContentMode::Sketch(SketchParams {
                chunk_size: 512,
                init_bytes: 20_000,
                churn_bytes: (300, 900),
                replace_ratio: 0.7,
            }),
            seed: 12,
        }
    }

    fn sketches(ev: &Evolution) -> &[ChunkSketch] {
        ev.content
            .as_ref()
            .and_then(|c| c.sketches())
            .expect("sketch content retained")
    }

    #[test]
    fn text_evolution_shape() {
        let ev = evolve(&text_params(40));
        assert_eq!(ev.graph.n(), 40);
        // Edges: 2 per parent link; merge commits add 2 extra.
        let pair_count: usize = ev.parents.iter().map(|p| p.len()).sum();
        assert_eq!(ev.graph.m(), 2 * pair_count);
        assert!(ev.graph.is_bidirectional());
        // Every non-root node has at least one parent.
        assert!(ev.parents[0].is_empty());
        assert!(ev.parents[1..].iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn text_costs_are_positive_and_nodes_sized() {
        let ev = evolve(&text_params(30));
        for v in ev.graph.node_ids() {
            assert!(ev.graph.node_storage(v) > 0);
        }
        for e in ev.graph.edges() {
            assert!(e.storage > 0);
            assert!(e.retrieval > 0);
        }
    }

    #[test]
    fn text_evolution_keeps_snapshots_on_request() {
        let mut params = text_params(20);
        params.keep_content = true;
        let ev = evolve(&params);
        let Some(CorpusContent::Text { lines, snapshots }) = &ev.content else {
            panic!("text content retained");
        };
        assert_eq!(snapshots.len(), 20);
        for (v, s) in ev.graph.node_ids().zip(snapshots) {
            assert_eq!(ev.graph.node_storage(v), s.byte_size(lines));
        }
    }

    #[test]
    fn sketch_evolution_keeps_all_sketches() {
        let ev = evolve(&sketch_params(50));
        let sketches = sketches(&ev);
        assert_eq!(sketches.len(), 50);
        for (v, s) in ev.graph.node_ids().zip(sketches) {
            assert_eq!(ev.graph.node_storage(v), s.byte_size());
        }
    }

    #[test]
    fn sketch_edge_costs_match_sketch_deltas() {
        let ev = evolve(&sketch_params(30));
        let sketches = sketches(&ev);
        for e in ev.graph.edges() {
            let d = sketches[e.src.index()].delta_to(&sketches[e.dst.index()]);
            assert_eq!(e.storage, d.storage_cost());
            assert_eq!(e.retrieval, d.retrieval_cost());
        }
    }

    #[test]
    fn merges_have_two_parents() {
        let ev = evolve(&sketch_params(80));
        let merge_nodes = ev.parents.iter().filter(|p| p.len() == 2).count();
        assert_eq!(merge_nodes, ev.merge_count);
        assert!(ev.merge_count > 0, "expected some merges at p=0.1, n=80");
    }

    #[test]
    fn determinism() {
        let a = evolve(&sketch_params(40));
        let b = evolve(&sketch_params(40));
        assert_eq!(a.graph.edges(), b.graph.edges());
    }

    #[test]
    fn natural_deltas_much_cheaper_than_materialization() {
        let ev = evolve(&sketch_params(60));
        let g = &ev.graph;
        let avg_node = g.avg_node_storage();
        let avg_edge = g.avg_edge_storage();
        assert!(
            avg_edge * 4.0 < avg_node,
            "deltas should be far cheaper than full versions: {avg_edge} vs {avg_node}"
        );
    }
}
