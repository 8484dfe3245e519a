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
//! the version-graph edges at synthesis time ([`EditScript`]
//! for text, [`crate::chunks::SketchDelta`] for sketches). This is what
//! lets the executor check a plan's predicted costs against real stored
//! bytes and demand *exact* agreement.
//!
//! All formats are deterministic: files sorted by path, chunks sorted by
//! id, fixed little-endian integers — equal content always encodes to
//! equal bytes, so content addressing deduplicates across plans.
//!
//! Both text formats spell a line the same way, as a *line record*: a
//! little-endian `u32` length, then the line's bytes. Decoded text keeps
//! those records where they are — in the payload or delta bytes it was
//! decoded from — and a file's lines are [`Lines`]: runs over such shared
//! record buffers. Replaying a delta therefore costs per op and per run,
//! not per line, and a run hashes and encodes as one contiguous span.

use super::{ObjectHasher, ObjectId, ObjectKind, StoreError};
use crate::chunks::SketchDelta;
use crate::script::EditScript;
use std::borrow::Cow;
use std::sync::Arc;

const PAYLOAD_MAGIC: u8 = b'P';
const DELTA_MAGIC: u8 = b'D';
const TAG_TEXT: u8 = 1;
const TAG_SKETCH: u8 = 2;

/// Bytes of a line record's length prefix.
const RECORD_LEN: usize = 4;

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
/// Its [`Lines`] are runs over shared, immutable record buffers: a decoded
/// payload's own bytes, and the bytes of each delta replayed on the way to
/// it. [`apply_delta`] hands the destination the source's runs for every
/// `Equal` op and every file the delta does not touch, so a payload keeps
/// its chain's buffers alive rather than copying lines out of them.
/// Sharing is invisible to the format — encoding, [`hash_payload`] and
/// equality see only the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextFile {
    /// File path.
    pub path: String,
    /// Line contents, without trailing newlines.
    pub lines: Lines,
}

/// A buffer of line records (`u32` length, then the bytes), with the start
/// offset of each record. Bytes between records (payload and delta
/// headers) are never read through it.
struct LineBuf {
    bytes: Vec<u8>,
    starts: Vec<u32>,
}

impl LineBuf {
    fn line(&self, i: usize) -> &[u8] {
        let at = self.starts[i] as usize + RECORD_LEN;
        &self.bytes[at..at + self.len_at(i)]
    }

    fn len_at(&self, i: usize) -> usize {
        let s = self.starts[i] as usize;
        let len: [u8; RECORD_LEN] = self.bytes[s..s + RECORD_LEN].try_into().expect("4 bytes");
        u32::from_le_bytes(len) as usize
    }

    fn record_end(&self, i: usize) -> usize {
        self.starts[i] as usize + RECORD_LEN + self.len_at(i)
    }
}

/// Records `first .. first + count` (`count ≥ 1`) of one [`LineBuf`].
#[derive(Clone)]
struct Run {
    buf: Arc<LineBuf>,
    first: u32,
    count: u32,
}

impl Run {
    /// The run's records as one span: consecutive records of a run are
    /// byte-contiguous.
    fn span(&self) -> &[u8] {
        let first = self.first as usize;
        let last = first + self.count as usize - 1;
        &self.buf.bytes[self.buf.starts[first] as usize..self.buf.record_end(last)]
    }
}

/// The lines of one text file: runs of line records over shared buffers.
///
/// Cloning copies the run list (one refcount bump per run), never a line.
/// Equality compares content: two `Lines` are equal when they hold the
/// same lines, however those are split into runs.
#[derive(Clone, Default)]
pub struct Lines {
    runs: Vec<Run>,
    len: usize,
}

impl Lines {
    /// Number of lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the file has no lines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lines' contents, in order, without trailing newlines.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.runs.iter().flat_map(|run| {
            let first = run.first as usize;
            (first..first + run.count as usize).map(|i| run.buf.line(i))
        })
    }

    /// Cost-model bytes: each line plus its newline, i.e. each record
    /// less three of its four length bytes.
    fn content_size(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| (r.span().len() - 3 * r.count as usize) as u64)
            .sum()
    }

    fn spans(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.runs.iter().map(Run::span)
    }

    /// Append one run, merging it into the last when the two are
    /// *byte*-contiguous in the same buffer. Consecutive record indices
    /// alone do not suffice: two inserts split by a delete are
    /// consecutive records of the delta with an op header between them.
    fn push(&mut self, run: Run) {
        self.len += run.count as usize;
        if let Some(last) = self.runs.last_mut() {
            let next = last.first + last.count;
            if Arc::ptr_eq(&last.buf, &run.buf)
                && next == run.first
                && last.buf.record_end(next as usize - 1) == last.buf.starts[next as usize] as usize
            {
                last.count += run.count;
                return;
            }
        }
        self.runs.push(run);
    }

    fn append(&mut self, other: Lines) {
        for run in other.runs {
            self.push(run);
        }
    }

    /// `count` records of `buf` from `first` (none when `count` is 0).
    fn slice(buf: &Arc<LineBuf>, first: u32, count: u32) -> Lines {
        let mut lines = Lines::default();
        if count > 0 {
            lines.push(Run {
                buf: Arc::clone(buf),
                first,
                count,
            });
        }
        lines
    }
}

impl<T: AsRef<[u8]>> FromIterator<T> for Lines {
    /// Copy lines into one fresh record buffer.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut w = RecordWriter::default();
        for line in iter {
            w.line(line.as_ref());
        }
        let count = w.starts.len() as u32;
        Lines::slice(&Arc::new(w.finish()), 0, count)
    }
}

impl PartialEq for Lines {
    fn eq(&self, other: &Lines) -> bool {
        if self.len != other.len {
            return false;
        }
        // Records are self-delimiting, so equal record bytes are equal
        // lines: compare the two span sequences as one byte string each.
        let (mut a, mut b) = (self.spans(), other.spans());
        let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if x.is_empty() {
                x = a.next().unwrap_or_default();
            }
            if y.is_empty() {
                y = b.next().unwrap_or_default();
            }
            if x.is_empty() || y.is_empty() {
                return x.is_empty() && y.is_empty();
            }
            let n = x.len().min(y.len());
            if x[..n] != y[..n] {
                return false;
            }
            (x, y) = (&x[n..], &y[n..]);
        }
    }
}

impl Eq for Lines {}

impl std::fmt::Debug for Lines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Writes line records into a fresh buffer, noting where each starts.
#[derive(Default)]
struct RecordWriter {
    bytes: Vec<u8>,
    starts: Vec<u32>,
}

impl RecordWriter {
    fn line(&mut self, line: &[u8]) {
        let start = u32::try_from(self.bytes.len()).expect("text objects stay under 4 GiB");
        self.starts.push(start);
        put_bytes(&mut self.bytes, line);
    }

    fn finish(self) -> LineBuf {
        LineBuf {
            bytes: self.bytes,
            starts: self.starts,
        }
    }
}

/// Writes a text payload's canonical encoding file by file, keeping the
/// line offsets so the bytes can become the payload's one record buffer
/// without a decode pass. The caller must declare exact counts: the file
/// count up front, each file's line count with its path.
pub(crate) struct TextPayloadWriter {
    w: RecordWriter,
    /// Path, first record and line count of each file.
    files: Vec<(String, u32, u32)>,
}

impl TextPayloadWriter {
    /// A writer for `n_files` files whose encoding is `byte_len` bytes
    /// after the payload header, holding `n_lines` lines in all.
    pub(crate) fn new(n_files: usize, byte_len: usize, n_lines: usize) -> Self {
        let mut bytes = Vec::with_capacity(6 + byte_len);
        bytes.extend([PAYLOAD_MAGIC, TAG_TEXT]);
        put_u32(&mut bytes, n_files as u32);
        TextPayloadWriter {
            w: RecordWriter {
                bytes,
                starts: Vec::with_capacity(n_lines),
            },
            files: Vec::with_capacity(n_files),
        }
    }

    /// Start the next file (paths in sorted order), of `n_lines` lines.
    pub(crate) fn file(&mut self, path: &str, n_lines: usize) {
        put_bytes(&mut self.w.bytes, path.as_bytes());
        put_u32(&mut self.w.bytes, n_lines as u32);
        let first = self.w.starts.len() as u32;
        self.files.push((path.to_owned(), first, n_lines as u32));
    }

    /// The current file's next line.
    pub(crate) fn line(&mut self, line: &[u8]) {
        self.w.line(line);
    }

    /// The encoded payload bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.w.bytes
    }

    /// The payload, each file one run of the written bytes.
    pub(crate) fn into_payload(self) -> Payload {
        text_payload(Arc::new(self.w.finish()), self.files)
    }
}

fn text_payload(buf: Arc<LineBuf>, files: Vec<(String, u32, u32)>) -> Payload {
    Payload::Text(
        files
            .into_iter()
            .map(|(path, first, count)| TextFile {
                path,
                lines: Lines::slice(&buf, first, count),
            })
            .collect(),
    )
}

impl Payload {
    /// Content size in cost-model bytes — the node storage cost `s_v`:
    /// text lines count their newline, sketch chunks their declared size.
    pub fn content_size(&self) -> u64 {
        match self {
            Payload::Text(files) => files.iter().map(|f| f.lines.content_size()).sum(),
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
    Insert(Lines),
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
    /// Text delta, priced by [`EditScript`].
    Text(EditScript),
    /// Sketch delta, priced by [`SketchDelta`].
    Sketch(SketchDelta),
}

impl DeltaCosts {
    /// Storage cost of the delta in bytes (the edge cost `s_e`).
    pub fn storage_cost(&self) -> u64 {
        match self {
            DeltaCosts::Text(s) => s.storage_cost(),
            DeltaCosts::Sketch(d) => d.storage_cost(),
        }
    }

    /// Retrieval cost of replaying the delta (the edge cost `r_e`).
    pub fn retrieval_cost(&self) -> u64 {
        match self {
            DeltaCosts::Text(s) => s.retrieval_cost(),
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
                for span in f.lines.spans() {
                    out.emit(span);
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
                    for span in lines.spans() {
                        out.extend_from_slice(span);
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

    /// Skip one line record, noting its start in `starts`.
    fn record(&mut self, starts: &mut Vec<u32>, what: &str) -> Result<(), StoreError> {
        // `text_records_fit` bounds every offset of the input by u32::MAX.
        starts.push(self.pos as u32);
        self.bytes(what).map(drop)
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

/// Text objects index their line records by `u32` offset.
fn text_records_fit(bytes: &[u8]) -> Result<(), StoreError> {
    if u32::try_from(bytes.len()).is_ok() {
        Ok(())
    } else {
        Err(StoreError::InvalidFormat {
            detail: format!("text object of {} bytes exceeds 4 GiB", bytes.len()),
        })
    }
}

/// Decode payload bytes.
///
/// A text payload keeps the input as the one record buffer of all its
/// files, so it validates the structure and notes each line's offset in
/// one pass and copies nothing per line. Owned input (`Vec<u8>`,
/// `Cow::Owned`) becomes that buffer as is; borrowed input is copied once.
pub fn decode_payload<'a>(bytes: impl Into<Cow<'a, [u8]>>) -> Result<Payload, StoreError> {
    let bytes = bytes.into();
    let mut r = Reader::new(&bytes);
    if r.u8("payload magic")? != PAYLOAD_MAGIC {
        return Err(StoreError::InvalidFormat {
            detail: "not a payload object".into(),
        });
    }
    match r.u8("payload tag")? {
        TAG_TEXT => {
            text_records_fit(&bytes)?;
            let n_files = r.u32("file count")?;
            // A file is at least a path length and a line count.
            let mut files = Vec::with_capacity(r.capacity(n_files, 8));
            let mut starts = Vec::new();
            for _ in 0..n_files {
                let path = String::from_utf8(r.bytes("path")?.to_vec()).map_err(|_| {
                    StoreError::InvalidFormat {
                        detail: "file path is not UTF-8".into(),
                    }
                })?;
                let n_lines = r.u32("line count")?;
                starts.reserve(r.capacity(n_lines, RECORD_LEN));
                let first = starts.len() as u32;
                for _ in 0..n_lines {
                    r.record(&mut starts, "line")?;
                }
                files.push((path, first, n_lines));
            }
            r.finish("payload")?;
            let buf = LineBuf {
                bytes: bytes.into_owned(),
                starts,
            };
            Ok(text_payload(Arc::new(buf), files))
        }
        TAG_SKETCH => {
            let n = r.u32("chunk count")?;
            let mut chunks = Vec::with_capacity(r.capacity(n, 12));
            for _ in 0..n {
                let id = r.u64("chunk id")?;
                let size = r.u32("chunk size")?;
                chunks.push((id, size));
            }
            r.finish("payload")?;
            Ok(Payload::Sketch(chunks))
        }
        other => Err(StoreError::InvalidFormat {
            detail: format!("unknown payload tag {other}"),
        }),
    }
}

/// A decoded text-delta op; inserts name records of the delta's buffer.
enum Op {
    Equal(u32),
    Delete(u32),
    Insert { first: u32, count: u32 },
}

struct Section {
    path: String,
    dst_absent: bool,
    ops: Vec<Op>,
}

enum DecodedDelta {
    Text {
        /// The delta's bytes, indexed at its inserted lines.
        buf: Arc<LineBuf>,
        sections: Vec<Section>,
    },
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
            text_records_fit(bytes)?;
            let n_sections = r.u32("section count")?;
            // A section is at least a path length, a flag and an op count.
            let mut sections = Vec::with_capacity(r.capacity(n_sections, 9));
            let mut starts = Vec::new();
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
                        0 => Op::Equal(r.u32("equal len")?),
                        1 => Op::Delete(r.u32("delete len")?),
                        2 => {
                            let count = r.u32("insert len")?;
                            starts.reserve(r.capacity(count, RECORD_LEN));
                            let first = starts.len() as u32;
                            for _ in 0..count {
                                r.record(&mut starts, "inserted line")?;
                            }
                            Op::Insert { first, count }
                        }
                        other => {
                            return Err(StoreError::InvalidFormat {
                                detail: format!("unknown op kind {other}"),
                            })
                        }
                    });
                }
                sections.push(Section {
                    path,
                    dst_absent,
                    ops,
                });
            }
            r.finish("delta")?;
            let buf = LineBuf {
                bytes: bytes.to_vec(),
                starts,
            };
            DecodedDelta::Text {
                buf: Arc::new(buf),
                sections,
            }
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
            r.finish("delta")?;
            DecodedDelta::Sketch { removed, added }
        }
        other => {
            return Err(StoreError::InvalidFormat {
                detail: format!("unknown delta tag {other}"),
            })
        }
    };
    Ok(decoded)
}

fn costs_of(decoded: &DecodedDelta) -> DeltaCosts {
    match decoded {
        DecodedDelta::Text { buf, sections } => {
            let mut script = EditScript::default();
            for op in sections.iter().flat_map(|s| &s.ops) {
                match *op {
                    Op::Equal(_) => {}
                    Op::Delete(len) => {
                        script.ops += 1;
                        script.deleted_bytes += u64::from(len);
                    }
                    Op::Insert { first, count } => {
                        script.ops += 1;
                        script.inserted_bytes += Lines::slice(buf, first, count).content_size();
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

/// A forward-only position in a file's runs, copying line ranges out of
/// them as runs of the same buffers.
struct Cursor<'a> {
    runs: &'a [Run],
    /// The run holding the next line to copy.
    at: usize,
    /// Lines in the runs before `at`.
    base: usize,
}

impl Cursor<'_> {
    /// Push lines `from..to` (never behind an earlier call's range, and
    /// within the file) onto `out`.
    fn copy(&mut self, mut from: usize, to: usize, out: &mut Lines) {
        while from < to {
            let run = &self.runs[self.at];
            let count = run.count as usize;
            if from >= self.base + count {
                self.base += count;
                self.at += 1;
                continue;
            }
            let (skip, end) = (from - self.base, (to - self.base).min(count));
            out.push(Run {
                buf: Arc::clone(&run.buf),
                first: run.first + skip as u32,
                count: (end - skip) as u32,
            });
            from = self.base + end;
        }
    }
}

/// Apply encoded delta bytes to a source payload, returning the
/// reconstructed destination payload and the delta's measured costs.
///
/// A text delta costs O(ops + runs), not O(lines): `Equal` ops split the
/// source file's runs, `Delete` skips lines, `Insert` adds a run of the
/// delta's own bytes, and untouched files keep the source's runs.
pub fn apply_delta(src: &Payload, delta: &[u8]) -> Result<(Payload, DeltaCosts), StoreError> {
    let decoded = decode_delta(delta)?;
    let costs = costs_of(&decoded);
    let dst = match (decoded, src) {
        (DecodedDelta::Text { buf, sections }, Payload::Text(files)) => {
            let mut files = files.clone();
            for section in sections {
                let at = files.binary_search_by(|f| f.path.as_str().cmp(&section.path));
                let src_lines = match at {
                    Ok(i) => std::mem::take(&mut files[i].lines),
                    Err(_) => Lines::default(),
                };
                let mut cursor = Cursor {
                    runs: &src_lines.runs,
                    at: 0,
                    base: 0,
                };
                let mut out = Lines::default();
                let mut pos = 0usize;
                for op in section.ops {
                    match op {
                        Op::Equal(len) => {
                            let end = pos + len as usize;
                            if end > src_lines.len() {
                                return Err(StoreError::InvalidFormat {
                                    detail: format!(
                                        "delta for {} copies past the source file",
                                        section.path
                                    ),
                                });
                            }
                            cursor.copy(pos, end, &mut out);
                            pos = end;
                        }
                        Op::Delete(len) => pos += len as usize,
                        Op::Insert { first, count } => {
                            out.append(Lines::slice(&buf, first, count));
                        }
                    }
                }
                if pos != src_lines.len() {
                    return Err(StoreError::InvalidFormat {
                        detail: format!(
                            "delta for {} covers {pos} of {} source lines",
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

    fn lines(texts: &[&str]) -> Lines {
        texts.iter().map(|t| t.as_bytes()).collect()
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

    /// Identity of each run of a file: (buffer, first record, count).
    fn runs_of(lines: &Lines) -> Vec<(*const LineBuf, u32, u32)> {
        lines
            .runs
            .iter()
            .map(|r| (Arc::as_ptr(&r.buf), r.first, r.count))
            .collect()
    }

    #[test]
    fn apply_delta_shares_unchanged_lines_with_the_source() {
        let src = decode_payload(encode_payload(&text_payload())).expect("decode");
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
        // The decoded source is one buffer: a.txt records 0..3, b.txt 3.
        let root = Arc::as_ptr(&before[0].lines.runs[0].buf);
        assert_eq!(runs_of(&before[1].lines), [(root, 3, 1)]);
        // The untouched file keeps the source's run; the `Equal` ops are
        // runs of the source's buffer around a run of the delta's.
        assert_eq!(runs_of(&after[1].lines), runs_of(&before[1].lines));
        let a = runs_of(&after[0].lines);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0], (root, 0, 1));
        assert!(a[1].0 != root, "inserted line lives in the delta's buffer");
        assert_eq!((a[1].1, a[1].2), (0, 1));
        assert_eq!(a[2], (root, 2, 1));
        assert_eq!(after[0].lines, lines(&["one", "TWO!", "three"]));
    }

    /// Two inserts split by a delete are consecutive records of the delta
    /// but not byte-contiguous (the delete's header lies between them):
    /// they must stay two runs. Merging them by index alone reads the op
    /// header as line bytes.
    #[test]
    fn inserts_split_by_a_delete_are_not_merged() {
        let src = decode_payload(encode_payload(&text_payload())).expect("decode");
        let delta = encode_text_delta(&[FileDelta {
            path: "a.txt".into(),
            dst_absent: false,
            ops: vec![
                DeltaOp::Insert(lines(&["p"])),
                DeltaOp::Delete(1),
                DeltaOp::Insert(lines(&["q"])),
                DeltaOp::Equal(1),
                DeltaOp::Equal(1),
            ],
        }]);
        let (dst, _) = apply_delta(&src, &delta).expect("apply");
        let Payload::Text(files) = &dst else {
            panic!("text payload expected")
        };
        assert_eq!(files[0].lines, lines(&["p", "q", "two", "three"]));
        let runs = runs_of(&files[0].lines);
        assert_eq!(runs.len(), 3, "p and q apart; the two equal ops merged");
        assert_eq!((runs[0].1, runs[1].1), (0, 1));
        assert_eq!((runs[2].1, runs[2].2), (1, 2));
        let expected = Payload::Text(vec![
            TextFile {
                path: "a.txt".into(),
                lines: lines(&["p", "q", "two", "three"]),
            },
            TextFile {
                path: "b.txt".into(),
                lines: lines(&["solo"]),
            },
        ]);
        assert_eq!(dst, expected);
        assert_eq!(encode_payload(&dst), encode_payload(&expected));
        assert_eq!(hash_payload(&dst), hash_payload(&expected));
    }

    #[test]
    fn equality_ignores_run_boundaries() {
        let whole = lines(&["ab", "", "c"]);
        let mut split = lines(&["ab"]);
        split.append(lines(&["", "c"]));
        assert_eq!(split.runs.len(), 2);
        assert_eq!(whole, split);
        assert_ne!(whole, lines(&["ab", "c", ""]));
        assert_ne!(whole, lines(&["ab", ""]));
        assert_ne!(lines(&["a", "b"]), lines(&["ab", ""]));
        assert_eq!(format!("{split:?}"), "[[97, 98], [], [99]]");
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
            decode_payload(&b"garbage"[..]),
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

    // ------------------------------------------------ model-based checks

    use crate::store::hash_object;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Plain text content: path → lines, one heap vector per line.
    type Model = BTreeMap<String, Vec<Vec<u8>>>;

    /// Mostly lines from a small pool, so versions share lines and diffs
    /// find `Equal` runs; sometimes arbitrary (possibly empty) bytes.
    fn random_line(rng: &mut SmallRng) -> Vec<u8> {
        if rng.gen_bool(0.8) {
            format!("line {}", rng.gen_range(0..24)).into_bytes()
        } else {
            (0..rng.gen_range(0..10))
                .map(|_| rng.gen_range(0..=255u8))
                .collect()
        }
    }

    fn random_lines(rng: &mut SmallRng, max: usize) -> Vec<Vec<u8>> {
        (0..rng.gen_range(0..max))
            .map(|_| random_line(rng))
            .collect()
    }

    fn random_model(rng: &mut SmallRng) -> Model {
        (0..rng.gen_range(0..5))
            .map(|_| {
                (
                    format!("f{}.txt", rng.gen_range(0..8)),
                    random_lines(rng, 30),
                )
            })
            .collect()
    }

    /// Random edits: files created and removed, line runs inserted,
    /// deleted and replaced.
    fn evolve(m: &Model, rng: &mut SmallRng) -> Model {
        let mut next = m.clone();
        if !next.is_empty() && rng.gen_bool(0.2) {
            let victim = next.keys().nth(rng.gen_range(0..next.len())).cloned();
            next.remove(&victim.expect("non-empty"));
        }
        if rng.gen_bool(0.25) {
            next.insert(
                format!("f{}.txt", rng.gen_range(0..8)),
                random_lines(rng, 8),
            );
        }
        for lines in next.values_mut() {
            for _ in 0..rng.gen_range(0..4) {
                let at = rng.gen_range(0..=lines.len());
                let end = (at + rng.gen_range(0..4usize)).min(lines.len());
                match rng.gen_range(0..3) {
                    0 => {
                        let new = random_lines(rng, 4);
                        lines.splice(at..at, new);
                    }
                    1 => {
                        lines.drain(at..end);
                    }
                    _ => {
                        let new = random_lines(rng, 3);
                        lines.splice(at..end, new);
                    }
                }
            }
        }
        next
    }

    /// The canonical payload bytes of `m`, written field by field.
    fn model_bytes(m: &Model) -> Vec<u8> {
        let mut out = vec![PAYLOAD_MAGIC, TAG_TEXT];
        out.extend(le(&[m.len() as u32]));
        for (path, lines) in m {
            out.extend(le(&[path.len() as u32]));
            out.extend(path.as_bytes());
            out.extend(le(&[lines.len() as u32]));
            for line in lines {
                out.extend(le(&[line.len() as u32]));
                out.extend(line);
            }
        }
        out
    }

    /// A text delta from `a` to `b`: every file that differs (including
    /// files present on one side only) as its Myers ops.
    fn model_delta(a: &Model, b: &Model) -> Vec<u8> {
        let paths: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        let empty = Vec::new();
        let sections: Vec<FileDelta> = paths
            .into_iter()
            .filter(|p| a.get(*p) != b.get(*p))
            .map(|path| {
                let src = a.get(path).unwrap_or(&empty);
                let dst = b.get(path).unwrap_or(&empty);
                let ops = crate::myers::diff(src, dst)
                    .into_iter()
                    .map(|op| match op {
                        crate::myers::DiffOp::Equal { len } => DeltaOp::Equal(len as u32),
                        crate::myers::DiffOp::Delete { len } => DeltaOp::Delete(len as u32),
                        crate::myers::DiffOp::Insert { start, len } => {
                            DeltaOp::Insert(dst[start..start + len].iter().collect())
                        }
                    })
                    .collect();
                FileDelta {
                    path: path.clone(),
                    dst_absent: !b.contains_key(path),
                    ops,
                }
            })
            .collect();
        encode_text_delta(&sections)
    }

    /// `p` holds exactly `m`'s content: same files and lines, size,
    /// encoding and hash.
    fn assert_is_model(p: &Payload, m: &Model, ctx: &str) {
        let Payload::Text(files) = p else {
            panic!("{ctx}: text payload expected")
        };
        let paths: Vec<&String> = files.iter().map(|f| &f.path).collect();
        assert_eq!(paths, m.keys().collect::<Vec<_>>(), "{ctx}");
        for (f, lines) in files.iter().zip(m.values()) {
            assert_eq!(f.lines.len(), lines.len(), "{ctx}: {}", f.path);
            assert!(
                f.lines.iter().eq(lines.iter().map(Vec::as_slice)),
                "{ctx}: {}",
                f.path
            );
        }
        let size: u64 = m.values().flatten().map(|l| l.len() as u64 + 1).sum();
        assert_eq!(p.content_size(), size, "{ctx}");
        let bytes = model_bytes(m);
        assert_eq!(encode_payload(p), bytes, "{ctx}");
        assert_eq!(
            hash_payload(p),
            hash_object(ObjectKind::Chunk, &bytes),
            "{ctx}"
        );
        assert_eq!(decode_payload(&bytes[..]).expect("decodes"), *p, "{ctx}");
    }

    /// Differential replay: chains of 12 deltas, each diffed from a
    /// random edit of the previous version, replayed from a decoded root
    /// and checked at every step against the plain model.
    #[test]
    fn replayed_chains_match_a_plain_model() {
        for seed in 0..48 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut model = random_model(&mut rng);
            let mut payload = decode_payload(model_bytes(&model)).expect("root decodes");
            assert_is_model(&payload, &model, &format!("seed {seed} root"));
            for step in 0..12 {
                let next = evolve(&model, &mut rng);
                let delta = model_delta(&model, &next);
                let (got, costs) = apply_delta(&payload, &delta).expect("delta applies");
                assert_is_model(&got, &next, &format!("seed {seed} step {step}"));
                assert_eq!(delta_costs(&delta).expect("decodes"), costs);
                (model, payload) = (next, got);
            }
        }
    }

    /// One seeded corruption of `bytes`, with `other` (another valid
    /// object) as splice material.
    fn mutate(
        mut bytes: Vec<u8>,
        other: &[u8],
        kind: u32,
        x: usize,
        y: usize,
        z: usize,
    ) -> Vec<u8> {
        let len = bytes.len();
        match kind {
            0 => bytes[x % len] ^= 1 << (y % 8),
            1 => bytes.truncate(x % len),
            2 => {
                // Inflate the `u32` at a random offset: counts and lengths
                // are the fields most bytes of a text object belong to.
                let at = x % (len - 3);
                let old = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
                let new = match y % 3 {
                    0 => old.wrapping_add(1 + (z % 4) as u32),
                    1 => u32::MAX - (z % 8) as u32,
                    _ => old.wrapping_add(len as u32),
                };
                bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
            }
            3 => {
                let (a, b) = (x % other.len(), y % other.len());
                let at = z % (len + 1);
                bytes.splice(at..at, other[a.min(b)..a.max(b)].iter().copied());
            }
            _ => {
                // Overwrite a range with a slice of the other object.
                let (a, b) = (x % other.len(), y % other.len());
                let at = z % (len + 1);
                let end = (at + (b.max(a) - a.min(b))).min(len);
                bytes.splice(at..end, other[a.min(b)..a.max(b)].iter().copied());
            }
        }
        bytes
    }

    /// An accepted payload is internally consistent: it re-encodes to
    /// bytes that decode back to it, and its streamed hash is the hash of
    /// that encoding.
    fn assert_consistent(p: &Payload) {
        let bytes = encode_payload(p);
        assert_eq!(decode_payload(&bytes[..]).expect("re-decodes"), *p);
        assert_eq!(hash_payload(p), hash_object(ObjectKind::Chunk, &bytes));
        let lines: usize = match p {
            Payload::Text(files) => files.iter().map(|f| f.lines.iter().count()).sum(),
            Payload::Sketch(chunks) => chunks.len(),
        };
        assert!(lines <= bytes.len());
        p.content_size();
    }

    fn typed<T>(r: &Result<T, StoreError>) -> bool {
        matches!(r, Ok(_) | Err(StoreError::InvalidFormat { .. }))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(768))]

        /// The text decoders are total: bit flips, truncation, inflated
        /// counts and lengths, and splices of encoded payloads and deltas
        /// decode to a consistent object or an `InvalidFormat` error,
        /// never a panic — so no stored offset can index past its buffer.
        #[test]
        fn mutated_text_objects_are_ok_or_typed_errors(
            seed in proptest::prelude::any::<u64>(),
            delta in proptest::prelude::any::<bool>(),
            kind in 0u32..5,
            (x, y, z) in (0usize..1 << 16, 0usize..1 << 16, 0usize..1 << 16),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let src = random_model(&mut rng);
            let dst = evolve(&src, &mut rng);
            let (valid, other) = if delta {
                (model_delta(&src, &dst), model_delta(&dst, &src))
            } else {
                (model_bytes(&src), model_bytes(&dst))
            };
            let bytes = mutate(valid, &other, kind, x, y, z);

            let decoded = decode_payload(&bytes[..]);
            proptest::prop_assert!(typed(&decoded), "decode_payload: {decoded:?}");
            if let Ok(p) = &decoded {
                assert_consistent(p);
            }
            let costs = delta_costs(&bytes);
            proptest::prop_assert!(typed(&costs), "delta_costs: {costs:?}");
            let applied = apply_delta(&decode_payload(model_bytes(&src)).expect("valid"), &bytes);
            proptest::prop_assert!(typed(&applied), "apply_delta: {applied:?}");
            if let Ok((p, c)) = &applied {
                assert_consistent(p);
                proptest::prop_assert_eq!(Some(c), costs.as_ref().ok());
            }
        }
    }
}
