//! Byte formats for stored objects, with the paper's exact cost model.
//!
//! Two object families exist, each in a text and a sketch flavor:
//!
//! * **Payloads** ([`Payload`]) — the canonical, self-contained encoding of
//!   one version's content: every file's lines for text corpora, the
//!   `(chunk id, size)` manifest for chunk-sketch corpora. Payload bytes
//!   are what gets content-addressed and hash-verified.
//! * **Deltas** — applyable edit scripts between two payloads: per-file
//!   Myers op runs with inserted lines inline (text), or chunk add/remove
//!   records (sketch).
//!
//! Decoding a delta yields [`DeltaCosts`] — the *measured* storage and
//! retrieval cost of the delta, priced by exactly the models that priced
//! the version-graph edges at synthesis time ([`crate::script::CostParams`]
//! for text, [`crate::chunks::SketchDelta`] for sketches). This is what
//! lets the executor check a plan's predicted costs against real stored
//! bytes and demand *exact* agreement.
//!
//! All formats are deterministic: files sorted by path, chunks sorted by
//! id, fixed little-endian integers — equal content always encodes to
//! equal bytes, so content addressing deduplicates across plans.

use super::{ObjectHasher, ObjectId, ObjectKind, StoreError};
use crate::chunks::SketchDelta;
use crate::script::{CostParams, EditScript};
use std::sync::Arc;

const PAYLOAD_MAGIC: u8 = b'P';
const DELTA_MAGIC: u8 = b'D';
const TAG_TEXT: u8 = 1;
const TAG_SKETCH: u8 = 2;

/// Decoded version content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Text content: files sorted by path.
    Text(Vec<TextFile>),
    /// Chunk manifest: `(chunk id, chunk size)` sorted by id.
    Sketch(Vec<(u64, u32)>),
}

/// One file of a text payload.
///
/// Lines are shared, immutable byte strings: [`apply_delta`] hands the
/// destination the source's own line allocations for every `Equal` run
/// and every file the delta does not touch, so replaying a delta costs a
/// refcount bump per unchanged line instead of a copy. Sharing is
/// invisible to the format — encoding, [`hash_payload`] and equality see
/// only the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextFile {
    /// File path.
    pub path: String,
    /// Line contents, without trailing newlines.
    pub lines: Vec<Arc<[u8]>>,
}

impl Payload {
    /// Content size in cost-model bytes — the node storage cost `s_v`:
    /// text lines count their newline, sketch chunks their declared size.
    pub fn content_size(&self) -> u64 {
        match self {
            Payload::Text(files) => files
                .iter()
                .flat_map(|f| f.lines.iter())
                .map(|l| l.len() as u64 + 1)
                .sum(),
            Payload::Sketch(chunks) => chunks.iter().map(|&(_, s)| s as u64).sum(),
        }
    }
}

/// One op of a text delta section, in source order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy this many lines from the source file.
    Equal(u32),
    /// Skip this many source lines.
    Delete(u32),
    /// Splice these lines in (contents inline, no trailing newlines).
    Insert(Vec<Arc<[u8]>>),
}

/// The per-file part of a text delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileDelta {
    /// Path the ops apply to.
    pub path: String,
    /// The destination version does not contain this file at all (the ops
    /// still run, then the file is dropped).
    pub dst_absent: bool,
    /// Myers op runs covering the whole source file.
    pub ops: Vec<DeltaOp>,
}

/// Measured costs of a decoded delta — the same models that priced the
/// graph edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaCosts {
    /// Text delta, priced by [`EditScript`] under [`CostParams::default`].
    Text(EditScript),
    /// Sketch delta, priced by [`SketchDelta`].
    Sketch(SketchDelta),
}

impl DeltaCosts {
    /// Storage cost of the delta in bytes (the edge cost `s_e`).
    pub fn storage_cost(&self) -> u64 {
        match self {
            DeltaCosts::Text(s) => s.storage_cost(&CostParams::default()),
            DeltaCosts::Sketch(d) => d.storage_cost(),
        }
    }

    /// Retrieval cost of replaying the delta (the edge cost `r_e`).
    pub fn retrieval_cost(&self) -> u64 {
        match self {
            DeltaCosts::Text(s) => s.retrieval_cost(&CostParams::default()),
            DeltaCosts::Sketch(d) => d.retrieval_cost(),
        }
    }
}

// ------------------------------------------------------------------ writers

/// A consumer of encoded byte runs: either an output buffer (encoding) or
/// an [`ObjectHasher`] (hashing the canonical encoding without
/// materializing it).
trait Emit {
    fn emit(&mut self, bytes: &[u8]);
}

impl Emit for Vec<u8> {
    fn emit(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Emit for ObjectHasher {
    fn emit(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

fn put_u32(out: &mut impl Emit, v: u32) {
    out.emit(&v.to_le_bytes());
}

fn put_u64(out: &mut impl Emit, v: u64) {
    out.emit(&v.to_le_bytes());
}

fn put_bytes(out: &mut impl Emit, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.emit(b);
}

/// Emit a payload's canonical encoding, piecewise, into any sink.
fn emit_payload(p: &Payload, out: &mut impl Emit) {
    out.emit(&[PAYLOAD_MAGIC]);
    match p {
        Payload::Text(files) => {
            out.emit(&[TAG_TEXT]);
            put_u32(out, files.len() as u32);
            for f in files {
                put_bytes(out, f.path.as_bytes());
                put_u32(out, f.lines.len() as u32);
                for line in &f.lines {
                    put_bytes(out, line);
                }
            }
        }
        Payload::Sketch(chunks) => {
            out.emit(&[TAG_SKETCH]);
            put_u32(out, chunks.len() as u32);
            for &(id, size) in chunks {
                put_u64(out, id);
                put_u32(out, size);
            }
        }
    }
}

/// Encode a payload to its canonical bytes.
pub fn encode_payload(p: &Payload) -> Vec<u8> {
    let mut out = Vec::new();
    emit_payload(p, &mut out);
    out
}

/// The content address a payload's canonical encoding would hash to,
/// computed by streaming the encoding through an [`ObjectHasher`] — no
/// intermediate byte buffer. Always equal to
/// `hash_object(ObjectKind::Chunk, &encode_payload(p))`; this is what
/// reconstruction verifies decoded content against, sparing the hot read
/// path one full re-encode per version.
pub fn hash_payload(p: &Payload) -> ObjectId {
    let mut h = ObjectHasher::new(ObjectKind::Chunk);
    emit_payload(p, &mut h);
    h.finish()
}

/// Encode a text delta (sections must cover changed files only, in path
/// order, exactly as [`crate::dataset::Snapshot::delta_to`] walks them).
pub fn encode_text_delta(sections: &[FileDelta]) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(DELTA_MAGIC);
    out.push(TAG_TEXT);
    put_u32(&mut out, sections.len() as u32);
    for s in sections {
        put_bytes(&mut out, s.path.as_bytes());
        out.push(u8::from(s.dst_absent));
        put_u32(&mut out, s.ops.len() as u32);
        for op in &s.ops {
            match op {
                DeltaOp::Equal(len) => {
                    out.push(0);
                    put_u32(&mut out, *len);
                }
                DeltaOp::Delete(len) => {
                    out.push(1);
                    put_u32(&mut out, *len);
                }
                DeltaOp::Insert(lines) => {
                    out.push(2);
                    put_u32(&mut out, lines.len() as u32);
                    for line in lines {
                        put_bytes(&mut out, line);
                    }
                }
            }
        }
    }
    out
}

/// Encode a sketch delta: chunks removed from the source, chunks added by
/// the destination.
pub fn encode_sketch_delta(removed: &[u64], added: &[(u64, u32)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(DELTA_MAGIC);
    out.push(TAG_SKETCH);
    put_u32(&mut out, removed.len() as u32);
    put_u32(&mut out, added.len() as u32);
    for &id in removed {
        put_u64(&mut out, id);
    }
    for &(id, size) in added {
        put_u64(&mut out, id);
        put_u32(&mut out, size);
    }
    out
}

// ------------------------------------------------------------------ readers

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn err(&self, what: &str) -> StoreError {
        StoreError::InvalidFormat {
            detail: format!("truncated or malformed record: {what} at byte {}", self.pos),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.err(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let end = self.pos + 4;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err(what))?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let end = self.pos + 8;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err(what))?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self, what: &str) -> Result<&'a [u8], StoreError> {
        let len = self.u32(what)? as usize;
        let end = self.pos + len;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err(what))?;
        self.pos = end;
        Ok(s)
    }

    /// Capacity to reserve for `count` records of at least `min_record`
    /// bytes each: never more than the remaining input could hold, so an
    /// inflated count prefix cannot force a huge allocation — decoding
    /// then fails on truncation with a typed error instead.
    fn capacity(&self, count: u32, min_record: usize) -> usize {
        (count as usize).min((self.bytes.len() - self.pos) / min_record)
    }

    fn finish(&self, what: &str) -> Result<(), StoreError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StoreError::InvalidFormat {
                detail: format!(
                    "{what}: {} trailing bytes after byte {}",
                    self.bytes.len() - self.pos,
                    self.pos
                ),
            })
        }
    }
}

/// Decode payload bytes.
pub fn decode_payload(bytes: &[u8]) -> Result<Payload, StoreError> {
    let mut r = Reader::new(bytes);
    if r.u8("payload magic")? != PAYLOAD_MAGIC {
        return Err(StoreError::InvalidFormat {
            detail: "not a payload object".into(),
        });
    }
    let payload = match r.u8("payload tag")? {
        TAG_TEXT => {
            let n_files = r.u32("file count")?;
            // A file is at least a path length and a line count.
            let mut files = Vec::with_capacity(r.capacity(n_files, 8));
            for _ in 0..n_files {
                let path = String::from_utf8(r.bytes("path")?.to_vec()).map_err(|_| {
                    StoreError::InvalidFormat {
                        detail: "file path is not UTF-8".into(),
                    }
                })?;
                let n_lines = r.u32("line count")?;
                let mut lines = Vec::with_capacity(r.capacity(n_lines, 4));
                for _ in 0..n_lines {
                    lines.push(Arc::from(r.bytes("line")?));
                }
                files.push(TextFile { path, lines });
            }
            Payload::Text(files)
        }
        TAG_SKETCH => {
            let n = r.u32("chunk count")?;
            let mut chunks = Vec::with_capacity(r.capacity(n, 12));
            for _ in 0..n {
                let id = r.u64("chunk id")?;
                let size = r.u32("chunk size")?;
                chunks.push((id, size));
            }
            Payload::Sketch(chunks)
        }
        other => {
            return Err(StoreError::InvalidFormat {
                detail: format!("unknown payload tag {other}"),
            })
        }
    };
    r.finish("payload")?;
    Ok(payload)
}

enum DecodedDelta {
    Text(Vec<FileDelta>),
    Sketch {
        removed: Vec<u64>,
        added: Vec<(u64, u32)>,
    },
}

fn decode_delta(bytes: &[u8]) -> Result<DecodedDelta, StoreError> {
    let mut r = Reader::new(bytes);
    if r.u8("delta magic")? != DELTA_MAGIC {
        return Err(StoreError::InvalidFormat {
            detail: "not a delta object".into(),
        });
    }
    let decoded = match r.u8("delta tag")? {
        TAG_TEXT => {
            let n_sections = r.u32("section count")?;
            // A section is at least a path length, a flag and an op count.
            let mut sections = Vec::with_capacity(r.capacity(n_sections, 9));
            for _ in 0..n_sections {
                let path = String::from_utf8(r.bytes("path")?.to_vec()).map_err(|_| {
                    StoreError::InvalidFormat {
                        detail: "section path is not UTF-8".into(),
                    }
                })?;
                let dst_absent = r.u8("flags")? != 0;
                let n_ops = r.u32("op count")?;
                let mut ops = Vec::with_capacity(r.capacity(n_ops, 5));
                for _ in 0..n_ops {
                    ops.push(match r.u8("op kind")? {
                        0 => DeltaOp::Equal(r.u32("equal len")?),
                        1 => DeltaOp::Delete(r.u32("delete len")?),
                        2 => {
                            let n = r.u32("insert len")?;
                            let mut lines = Vec::with_capacity(r.capacity(n, 4));
                            for _ in 0..n {
                                lines.push(Arc::from(r.bytes("inserted line")?));
                            }
                            DeltaOp::Insert(lines)
                        }
                        other => {
                            return Err(StoreError::InvalidFormat {
                                detail: format!("unknown op kind {other}"),
                            })
                        }
                    });
                }
                sections.push(FileDelta {
                    path,
                    dst_absent,
                    ops,
                });
            }
            DecodedDelta::Text(sections)
        }
        TAG_SKETCH => {
            let n_removed = r.u32("removed count")?;
            let n_added = r.u32("added count")?;
            let mut removed = Vec::with_capacity(r.capacity(n_removed, 8));
            for _ in 0..n_removed {
                removed.push(r.u64("removed id")?);
            }
            let mut added = Vec::with_capacity(r.capacity(n_added, 12));
            for _ in 0..n_added {
                added.push((r.u64("added id")?, r.u32("added size")?));
            }
            DecodedDelta::Sketch { removed, added }
        }
        other => {
            return Err(StoreError::InvalidFormat {
                detail: format!("unknown delta tag {other}"),
            })
        }
    };
    r.finish("delta")?;
    Ok(decoded)
}

fn costs_of(decoded: &DecodedDelta) -> DeltaCosts {
    match decoded {
        DecodedDelta::Text(sections) => {
            let mut script = EditScript::default();
            for s in sections {
                for op in &s.ops {
                    match op {
                        DeltaOp::Equal(_) => {}
                        DeltaOp::Delete(len) => {
                            script.ops += 1;
                            script.deleted_bytes += u64::from(*len);
                        }
                        DeltaOp::Insert(lines) => {
                            script.ops += 1;
                            script.inserted_bytes +=
                                lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
                        }
                    }
                }
            }
            DeltaCosts::Text(script)
        }
        DecodedDelta::Sketch { removed, added } => DeltaCosts::Sketch(SketchDelta {
            added_bytes: added.iter().map(|&(_, s)| u64::from(s)).sum(),
            added_chunks: added.len() as u64,
            removed_chunks: removed.len() as u64,
        }),
    }
}

/// Decode a delta's measured costs without applying it.
pub fn delta_costs(bytes: &[u8]) -> Result<DeltaCosts, StoreError> {
    Ok(costs_of(&decode_delta(bytes)?))
}

/// Apply encoded delta bytes to a source payload, returning the
/// reconstructed destination payload and the delta's measured costs.
pub fn apply_delta(src: &Payload, delta: &[u8]) -> Result<(Payload, DeltaCosts), StoreError> {
    let decoded = decode_delta(delta)?;
    let costs = costs_of(&decoded);
    let dst = match (decoded, src) {
        (DecodedDelta::Text(sections), Payload::Text(files)) => {
            // Unchanged files and lines are shared with the source, not
            // copied: cloning a `TextFile` bumps one refcount per line.
            let mut files = files.clone();
            for section in sections {
                let at = files.binary_search_by(|f| f.path.as_str().cmp(&section.path));
                let src_lines = match at {
                    Ok(i) => std::mem::take(&mut files[i].lines),
                    Err(_) => Vec::new(),
                };
                let mut out = Vec::with_capacity(src_lines.len());
                let mut cursor = 0usize;
                for op in section.ops {
                    match op {
                        DeltaOp::Equal(len) => {
                            let end = cursor + len as usize;
                            let run = src_lines.get(cursor..end).ok_or_else(|| {
                                StoreError::InvalidFormat {
                                    detail: format!(
                                        "delta for {} copies past the source file",
                                        section.path
                                    ),
                                }
                            })?;
                            out.extend_from_slice(run);
                            cursor = end;
                        }
                        DeltaOp::Delete(len) => cursor += len as usize,
                        DeltaOp::Insert(lines) => out.extend(lines),
                    }
                }
                if cursor != src_lines.len() {
                    return Err(StoreError::InvalidFormat {
                        detail: format!(
                            "delta for {} covers {cursor} of {} source lines",
                            section.path,
                            src_lines.len()
                        ),
                    });
                }
                match at {
                    Ok(i) if section.dst_absent => {
                        files.remove(i);
                    }
                    Ok(i) => files[i].lines = out,
                    Err(_) if section.dst_absent => {}
                    Err(i) => files.insert(
                        i,
                        TextFile {
                            path: section.path,
                            lines: out,
                        },
                    ),
                }
            }
            Payload::Text(files)
        }
        (DecodedDelta::Sketch { removed, added }, Payload::Sketch(chunks)) => {
            let mut map: std::collections::BTreeMap<u64, u32> = chunks.iter().copied().collect();
            for id in removed {
                if map.remove(&id).is_none() {
                    return Err(StoreError::InvalidFormat {
                        detail: format!("delta removes chunk {id} absent from the source"),
                    });
                }
            }
            map.extend(added);
            Payload::Sketch(map.into_iter().collect())
        }
        _ => {
            return Err(StoreError::InvalidFormat {
                detail: "delta flavor does not match the source payload".into(),
            })
        }
    };
    Ok((dst, costs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(texts: &[&str]) -> Vec<Arc<[u8]>> {
        texts.iter().map(|t| Arc::from(t.as_bytes())).collect()
    }

    fn text_payload() -> Payload {
        Payload::Text(vec![
            TextFile {
                path: "a.txt".into(),
                lines: lines(&["one", "two", "three"]),
            },
            TextFile {
                path: "b.txt".into(),
                lines: lines(&["solo"]),
            },
        ])
    }

    #[test]
    fn payload_roundtrip_text_and_sketch() {
        for p in [text_payload(), Payload::Sketch(vec![(3, 100), (9, 50)])] {
            let bytes = encode_payload(&p);
            assert_eq!(decode_payload(&bytes).expect("decode"), p);
        }
        assert_eq!(text_payload().content_size(), 4 + 4 + 6 + 5);
        assert_eq!(Payload::Sketch(vec![(3, 100), (9, 50)]).content_size(), 150);
    }

    #[test]
    fn text_delta_applies_and_prices() {
        let src = text_payload();
        // a.txt: keep "one", delete "two", insert "TWO!", keep "three";
        // b.txt removed entirely; c.txt created.
        let delta = encode_text_delta(&[
            FileDelta {
                path: "a.txt".into(),
                dst_absent: false,
                ops: vec![
                    DeltaOp::Equal(1),
                    DeltaOp::Delete(1),
                    DeltaOp::Insert(lines(&["TWO!"])),
                    DeltaOp::Equal(1),
                ],
            },
            FileDelta {
                path: "b.txt".into(),
                dst_absent: true,
                ops: vec![DeltaOp::Delete(1)],
            },
            FileDelta {
                path: "c.txt".into(),
                dst_absent: false,
                ops: vec![DeltaOp::Insert(lines(&["new"]))],
            },
        ]);
        let (dst, costs) = apply_delta(&src, &delta).expect("apply");
        let Payload::Text(files) = &dst else {
            panic!("text payload expected")
        };
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].path, "a.txt");
        assert_eq!(files[0].lines, lines(&["one", "TWO!", "three"]));
        assert_eq!(files[1].path, "c.txt");
        let DeltaCosts::Text(script) = &costs else {
            panic!("text costs expected")
        };
        assert_eq!(script.ops, 4); // delete, insert, delete, insert
        assert_eq!(script.inserted_bytes, 5 + 4);
        assert_eq!(delta_costs(&delta).expect("decode"), costs);
    }

    #[test]
    fn apply_delta_shares_unchanged_lines_with_the_source() {
        let src = text_payload();
        // a.txt: keep "one", replace "two", keep "three"; b.txt untouched.
        let delta = encode_text_delta(&[FileDelta {
            path: "a.txt".into(),
            dst_absent: false,
            ops: vec![
                DeltaOp::Equal(1),
                DeltaOp::Delete(1),
                DeltaOp::Insert(lines(&["TWO!"])),
                DeltaOp::Equal(1),
            ],
        }]);
        let (dst, _) = apply_delta(&src, &delta).expect("apply");
        let (Payload::Text(before), Payload::Text(after)) = (&src, &dst) else {
            panic!("text payloads expected")
        };
        let shared = |a: &Arc<[u8]>, b: &Arc<[u8]>| Arc::ptr_eq(a, b);
        assert!(shared(&after[0].lines[0], &before[0].lines[0]));
        assert!(!shared(&after[0].lines[1], &before[0].lines[1]));
        assert!(shared(&after[0].lines[2], &before[0].lines[2]));
        assert!(shared(&after[1].lines[0], &before[1].lines[0]));
    }

    #[test]
    fn sketch_delta_applies_and_prices() {
        let src = Payload::Sketch(vec![(1, 10), (2, 20), (3, 30)]);
        let delta = encode_sketch_delta(&[2], &[(4, 40), (5, 50)]);
        let (dst, costs) = apply_delta(&src, &delta).expect("apply");
        assert_eq!(
            dst,
            Payload::Sketch(vec![(1, 10), (3, 30), (4, 40), (5, 50)])
        );
        let DeltaCosts::Sketch(d) = &costs else {
            panic!("sketch costs expected")
        };
        assert_eq!(d.added_bytes, 90);
        assert_eq!(d.added_chunks, 2);
        assert_eq!(d.removed_chunks, 1);
        assert_eq!(costs.storage_cost(), 90 + 12 * 3);
    }

    #[test]
    fn hash_payload_equals_hash_of_encoding() {
        use crate::store::hash_object;
        for p in [
            text_payload(),
            Payload::Text(vec![]),
            Payload::Sketch(vec![(3, 100), (9, 50)]),
            Payload::Sketch(vec![]),
        ] {
            assert_eq!(
                hash_payload(&p),
                hash_object(ObjectKind::Chunk, &encode_payload(&p)),
                "streamed hash must equal the hash of the materialized encoding for {p:?}"
            );
        }
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        assert!(matches!(
            decode_payload(b"garbage"),
            Err(StoreError::InvalidFormat { .. })
        ));
        let mut bytes = encode_payload(&text_payload());
        bytes.truncate(bytes.len() - 2);
        assert!(matches!(
            decode_payload(&bytes),
            Err(StoreError::InvalidFormat { .. })
        ));
        let sketchy = encode_sketch_delta(&[99], &[]);
        assert!(matches!(
            apply_delta(&Payload::Sketch(vec![(1, 1)]), &sketchy),
            Err(StoreError::InvalidFormat { .. })
        ));
    }

    /// Little-endian `u32`s.
    fn le(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// `head`, then `words` as little-endian `u32`s.
    fn record(head: &[u8], words: &[u32]) -> Vec<u8> {
        let mut out = head.to_vec();
        out.extend(le(words));
        out
    }

    fn rejected<T: std::fmt::Debug>(r: Result<T, StoreError>) {
        assert!(
            matches!(r, Err(StoreError::InvalidFormat { .. })),
            "inflated count must be a typed error, got {r:?}"
        );
    }

    #[test]
    fn inflated_file_count_is_rejected() {
        let bytes = record(&[PAYLOAD_MAGIC, TAG_TEXT], &[u32::MAX]);
        rejected(decode_payload(&bytes));
    }

    #[test]
    fn inflated_line_count_is_rejected() {
        // One file, empty path, u32::MAX lines: 14 bytes in all.
        let bytes = record(&[PAYLOAD_MAGIC, TAG_TEXT], &[1, 0, u32::MAX]);
        assert_eq!(bytes.len(), 14);
        rejected(decode_payload(&bytes));
    }

    #[test]
    fn inflated_chunk_count_is_rejected() {
        let bytes = record(&[PAYLOAD_MAGIC, TAG_SKETCH], &[u32::MAX]);
        rejected(decode_payload(&bytes));
    }

    #[test]
    fn inflated_section_count_is_rejected() {
        rejected(delta_costs(&record(&[DELTA_MAGIC, TAG_TEXT], &[u32::MAX])));
    }

    #[test]
    fn inflated_op_count_is_rejected() {
        // One section, empty path, flags 0, u32::MAX ops.
        let mut bytes = record(&[DELTA_MAGIC, TAG_TEXT], &[1, 0]);
        bytes.push(0);
        bytes.extend(le(&[u32::MAX]));
        rejected(delta_costs(&bytes));
    }

    #[test]
    fn inflated_insert_len_is_rejected() {
        // One section, empty path, flags 0, one insert op of u32::MAX lines.
        let mut bytes = record(&[DELTA_MAGIC, TAG_TEXT], &[1, 0]);
        bytes.push(0);
        bytes.extend(le(&[1]));
        bytes.push(2);
        bytes.extend(le(&[u32::MAX]));
        rejected(delta_costs(&bytes));
        rejected(apply_delta(&Payload::Text(vec![]), &bytes));
    }

    #[test]
    fn inflated_removed_count_is_rejected() {
        let bytes = record(&[DELTA_MAGIC, TAG_SKETCH], &[u32::MAX, 0]);
        rejected(delta_costs(&bytes));
        rejected(apply_delta(&Payload::Sketch(vec![]), &bytes));
    }

    #[test]
    fn inflated_added_count_is_rejected() {
        let bytes = record(&[DELTA_MAGIC, TAG_SKETCH], &[0, u32::MAX]);
        rejected(delta_costs(&bytes));
        rejected(apply_delta(&Payload::Sketch(vec![]), &bytes));
    }
}
