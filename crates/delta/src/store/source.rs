//! From synthesized corpora to storable bytes.
//!
//! A [`VersionSource`] is anything that can produce, for every version of a
//! graph, (a) the version's canonical [`Payload`] and (b) an encoded,
//! applyable delta between any two versions. The executor in `dsv_core`
//! ingests plans through this trait: materialized nodes become payload
//! chunks, delta nodes become encoded deltas, and reconstruction is
//! verified against the payload hashes.
//!
//! [`CorpusContent`] is the built-in source: the full content retained by
//! the evolution simulator ([`crate::evolve`]) — interned snapshots for
//! text corpora, chunk sketches for sketch corpora. Deltas are priced by
//! exactly the models that priced the graph edges at synthesis time, so a
//! plan's predicted costs and the measured costs of its stored bytes agree
//! bit for bit.

use super::codec::{
    self, encode_sketch_delta, encode_text_delta, DeltaOp, FileDelta, Payload, TextPayloadWriter,
};
use crate::chunks::ChunkSketch;
use crate::dataset::{LineStore, Snapshot};
use crate::myers::{self, DiffOp};

/// A provider of version payloads and inter-version deltas.
pub trait VersionSource {
    /// Number of versions (must equal the graph's node count).
    fn version_count(&self) -> usize;

    /// The canonical content of version `v`.
    fn payload(&self, v: u32) -> Payload;

    /// Encoded delta bytes transforming version `src` into version `dst`.
    /// Must be applyable via [`codec::apply_delta`] and must decode to the
    /// same costs the corresponding graph edge carries (when one exists).
    fn delta(&self, src: u32, dst: u32) -> Vec<u8>;

    /// The canonical encoded bytes of version `v`'s payload.
    fn payload_bytes(&self, v: u32) -> Vec<u8> {
        codec::encode_payload(&self.payload(v))
    }
}

/// Retained content of a synthesized corpus: one entry per graph node.
#[derive(Clone, Debug)]
pub enum CorpusContent {
    /// Text corpora: the shared line store plus one snapshot per version.
    Text {
        /// Interned line table shared by all snapshots.
        lines: LineStore,
        /// Per-version snapshots, indexed by node id.
        snapshots: Vec<Snapshot>,
    },
    /// Sketch corpora: one chunk sketch per version.
    Sketch {
        /// Per-version sketches, indexed by node id.
        sketches: Vec<ChunkSketch>,
    },
}

impl CorpusContent {
    /// The per-version chunk sketches, when this is sketch-mode content
    /// (what the Erdős–Rényi construction consumes).
    pub fn sketches(&self) -> Option<&[ChunkSketch]> {
        match self {
            CorpusContent::Sketch { sketches } => Some(sketches),
            CorpusContent::Text { .. } => None,
        }
    }
}

/// A snapshot's canonical payload encoding, written into one exactly-sized
/// buffer.
fn write_snapshot(snap: &Snapshot, lines: &LineStore) -> TextPayloadWriter {
    let n_lines = snap.files.values().map(Vec::len).sum();
    // Per file a path and a line count; per line a `u32` length before the
    // bytes, where `LineStore::size` counts a newline.
    let byte_len = snap
        .files
        .iter()
        .map(|(path, ids)| {
            let records: u64 = ids.iter().map(|&id| lines.size(id) + 3).sum();
            8 + path.len() + records as usize
        })
        .sum();
    let mut w = TextPayloadWriter::new(snap.files.len(), byte_len, n_lines);
    for (path, ids) in &snap.files {
        w.file(path, ids.len());
        for &id in ids {
            w.line(lines.text(id).as_bytes());
        }
    }
    w
}

/// Mirror of [`Snapshot::delta_to`], producing applyable bytes instead of
/// just costs: same path union, same per-file Myers diffs, same skipping of
/// unchanged files — so the decoded costs equal the edge costs.
fn snapshot_delta(a: &Snapshot, b: &Snapshot, lines: &LineStore) -> Vec<u8> {
    let empty: Vec<u32> = Vec::new();
    let mut paths: Vec<&String> = a.files.keys().chain(b.files.keys()).collect();
    paths.sort();
    paths.dedup();
    let mut sections = Vec::new();
    for path in paths {
        let src = a.files.get(path).unwrap_or(&empty);
        let dst = b.files.get(path).unwrap_or(&empty);
        if src == dst {
            continue;
        }
        let ops = myers::diff(src, dst)
            .into_iter()
            .map(|op| match op {
                DiffOp::Equal { len } => DeltaOp::Equal(len as u32),
                DiffOp::Delete { len } => DeltaOp::Delete(len as u32),
                DiffOp::Insert { start, len } => DeltaOp::Insert(
                    dst[start..start + len]
                        .iter()
                        .map(|&id| lines.text(id))
                        .collect(),
                ),
            })
            .collect();
        sections.push(FileDelta {
            path: path.clone(),
            dst_absent: !b.files.contains_key(path),
            ops,
        });
    }
    encode_text_delta(&sections)
}

/// Mirror of [`ChunkSketch::delta_to`]: the symmetric difference of the two
/// manifests as remove/add records.
fn sketch_delta(a: &ChunkSketch, b: &ChunkSketch) -> Vec<u8> {
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let mut it_a = a.iter().peekable();
    let mut it_b = b.iter().peekable();
    loop {
        match (it_a.peek(), it_b.peek()) {
            (Some(&(ka, _)), Some(&(kb, sb))) => {
                if ka == kb {
                    it_a.next();
                    it_b.next();
                } else if ka < kb {
                    removed.push(ka);
                    it_a.next();
                } else {
                    added.push((kb, sb));
                    it_b.next();
                }
            }
            (Some(&(ka, _)), None) => {
                removed.push(ka);
                it_a.next();
            }
            (None, Some(&(kb, sb))) => {
                added.push((kb, sb));
                it_b.next();
            }
            (None, None) => break,
        }
    }
    encode_sketch_delta(&removed, &added)
}

impl VersionSource for CorpusContent {
    fn version_count(&self) -> usize {
        match self {
            CorpusContent::Text { snapshots, .. } => snapshots.len(),
            CorpusContent::Sketch { sketches } => sketches.len(),
        }
    }

    fn payload(&self, v: u32) -> Payload {
        match self {
            CorpusContent::Text { lines, snapshots } => {
                write_snapshot(&snapshots[v as usize], lines).into_payload()
            }
            CorpusContent::Sketch { sketches } => {
                Payload::Sketch(sketches[v as usize].iter().collect())
            }
        }
    }

    fn payload_bytes(&self, v: u32) -> Vec<u8> {
        match self {
            CorpusContent::Text { lines, snapshots } => {
                write_snapshot(&snapshots[v as usize], lines).into_bytes()
            }
            CorpusContent::Sketch { .. } => codec::encode_payload(&self.payload(v)),
        }
    }

    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        match self {
            CorpusContent::Text { lines, snapshots } => {
                snapshot_delta(&snapshots[src as usize], &snapshots[dst as usize], lines)
            }
            CorpusContent::Sketch { sketches } => {
                sketch_delta(&sketches[src as usize], &sketches[dst as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::codec::{apply_delta, delta_costs, DeltaCosts};

    fn text_content() -> CorpusContent {
        let mut lines = LineStore::new();
        let mut s0 = Snapshot::default();
        s0.files.insert(
            "f.txt".into(),
            vec![lines.intern("alpha"), lines.intern("beta")],
        );
        let mut s1 = Snapshot::default();
        s1.files.insert(
            "f.txt".into(),
            vec![
                lines.intern("alpha"),
                lines.intern("gamma"),
                lines.intern("beta"),
            ],
        );
        CorpusContent::Text {
            lines,
            snapshots: vec![s0, s1],
        }
    }

    #[test]
    fn text_delta_reconstructs_and_matches_cost_model() {
        let content = text_content();
        let (s0, s1) = match &content {
            CorpusContent::Text { lines, snapshots } => {
                ((snapshots[0].clone(), lines.clone()), snapshots[1].clone())
            }
            _ => unreachable!(),
        };
        let delta = content.delta(0, 1);
        let (dst, costs) = apply_delta(&content.payload(0), &delta).expect("apply");
        assert_eq!(dst, content.payload(1));
        // Decoded costs equal the delta_to pricing used at synthesis time.
        let script = s0.0.delta_to(&s1, &s0.1);
        assert_eq!(costs.storage_cost(), script.storage_cost());
        assert_eq!(costs.retrieval_cost(), script.retrieval_cost());
    }

    #[test]
    fn text_payload_bytes_are_the_exactly_sized_encoding() {
        let content = text_content();
        for v in 0..2 {
            let bytes = content.payload_bytes(v);
            assert_eq!(bytes.len(), bytes.capacity(), "one exactly-sized buffer");
            assert_eq!(bytes, codec::encode_payload(&content.payload(v)));
            assert_eq!(
                codec::decode_payload(bytes).expect("decode"),
                content.payload(v)
            );
        }
    }

    #[test]
    fn sketch_delta_reconstructs_and_matches_cost_model() {
        let mut a = ChunkSketch::new();
        a.insert(1, 100);
        a.insert(2, 200);
        let mut b = ChunkSketch::new();
        b.insert(2, 200);
        b.insert(3, 300);
        let content = CorpusContent::Sketch {
            sketches: vec![a.clone(), b.clone()],
        };
        let delta = content.delta(0, 1);
        let (dst, costs) = apply_delta(&content.payload(0), &delta).expect("apply");
        assert_eq!(dst, content.payload(1));
        let priced = a.delta_to(&b);
        assert_eq!(costs.storage_cost(), priced.storage_cost());
        assert_eq!(costs.retrieval_cost(), priced.retrieval_cost());
        assert!(matches!(
            delta_costs(&delta).expect("decode"),
            DeltaCosts::Sketch(_)
        ));
    }
}
