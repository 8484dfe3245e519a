//! The persistent content-addressed backend.
//!
//! On-disk layout under the store directory:
//!
//! ```text
//! <dir>/pack.dsv     append-only pack: "DSVPACK3" magic, then records
//!                    [id 16B][tag 1B][len 8B LE][payload]
//! <dir>/pack.idx     fixed-width index (a checkpoint): "DSVIDX03" magic,
//!                    entry count, covered pack length, then 40-byte
//!                    entries sorted by id:
//!                    [id 16B][offset 8B][len 8B][kind 1B][pad 3B][rc 4B]
//! <dir>/objects/     loose files for large objects, named by their hex id
//! ```
//!
//! Small objects are appended to the pack; objects at or above the loose
//! threshold become individual hash-keyed files (the classic loose/packed
//! split). The index is fixed-width and sorted so an external reader can
//! binary-search it straight from an `mmap` without parsing; this crate
//! reads it eagerly into a map on open. Reference counts are persisted in
//! the index and the journal, so retain/release balances survive process
//! restarts.
//!
//! # The journal
//!
//! A pack record is either an object (its tag is an [`ObjectKind`] tag
//! and its id the object's hash) or a **journal record**, whose tag is
//! private to the pack. A journal payload is an entry count followed by
//! that many entries in the index's own 40-byte encoding, and its id is
//! the [`ObjectHasher`] checksum of the payload.
//! Entries carry absolute values (offset, length, kind, refcount), never
//! deltas, so replaying a journal twice is harmless.
//!
//! [`Store::flush`] appends one journal record holding every entry that
//! changed since the last flush (`put`, dedup `put`, `retain`, `release`,
//! `repair`) and syncs the pack once: its cost follows the change, not
//! the store. The index is a **checkpoint**: it records the pack length
//! it covers, and open loads it and replays every record past that
//! offset in order — objects are adopted, journals overwrite entries. A
//! checkpoint is written when the journal bytes since the last one pass
//! half the index size (so its cost is amortized O(1) per journaled
//! entry), before GC destroys bytes, after GC compaction, and on drop.
//! GC compaction copies only live object records, so it drops every
//! journal record; after `gc` the pack is the magic plus the live
//! records.
//!
//! The magics carry the format version. Version 3 is the journaled
//! layout; version 2 (index rewritten whole on every flush) and version
//! 1 (the byte-serial hash) are refused on open with a
//! [`StoreError::InvalidFormat`] naming their version. Stores are not
//! migrated; rebuild them from their source.
//!
//! [`Store::gc`] compacts: dead loose files are unlinked and the pack is
//! rewritten with only live records (then atomically swapped in), so
//! reclaimed bytes are returned to the filesystem, not just forgotten.
//!
//! # Durability
//!
//! Acknowledgement contract: a loose `put` is written when it returns;
//! packed `put`s and every refcount change are durable at the next
//! [`Store::flush`], which is one journal append plus one pack fsync.
//! Under [`Durability::Full`] (the default) every write site issues the
//! fsync barriers that make its atomicity real: loose files and the index
//! are written tmp → `sync_all` → rename → directory fsync, a checkpoint
//! syncs the pack *before* the index that covers it, and GC checkpoints
//! the zero refcounts *before* destroying any bytes.
//! [`Durability::None`] skips every sync (for benches and throwaway
//! stores) while keeping the same write ordering.
//!
//! Crash consistency is tested, not assumed: [`PackStore::arm_crash`]
//! makes the next write at a chosen [`CrashPoint`] tear its bytes
//! mid-operation and poison the store, exactly as a power loss would, and
//! the crash-matrix test reopens after each point. Recovery on open cleans
//! stray tmp files, validates the index against the pack, replays the
//! records past the checkpoint, and truncates a torn tail (a record that
//! is incomplete or fails its hash, journal or object alike). A stale
//! index — e.g. a crash between GC's pack swap and its checkpoint — is
//! rebuilt by replaying the whole pack, with reference counts carried
//! over by id except where a journal past the stale checkpoint set them.

use super::{
    hash_object, GcStats, ObjectHasher, ObjectId, ObjectKind, ObjectMeta, Store, StoreError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const PACK_MAGIC: &[u8; 8] = b"DSVPACK3";
const IDX_MAGIC: &[u8; 8] = b"DSVIDX03";
const RECORD_HEADER: u64 = 16 + 1 + 8;
/// Index header: magic, entry count, covered pack length.
const IDX_HEADER: usize = 8 + 8 + 8;
const IDX_ENTRY: usize = 16 + 8 + 8 + 1 + 3 + 4;
/// Record tag of a journal record. Pack-private: no [`ObjectKind`] uses it.
const JOURNAL_TAG: u8 = b'J';
/// Journal payload header: the entry count.
const JOURNAL_HEADER: usize = 8;

/// Objects at or above this many bytes are stored as loose hash-keyed
/// files instead of pack records.
pub const DEFAULT_LOOSE_THRESHOLD: u64 = 32 * 1024;

/// Sentinel offset marking a loose object in the index.
const LOOSE_OFFSET: u64 = u64::MAX;

/// Which fsync barriers a [`PackStore`] issues. See the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// No syncs at all: fastest, survives process crashes (the kernel
    /// still writes the data back) but not power loss.
    None,
    /// Every write site issues its full barrier sequence; an acknowledged
    /// loose put or a completed flush survives power loss.
    #[default]
    Full,
}

/// Options controlling how a [`PackStore`] is opened.
#[derive(Clone, Copy, Debug)]
pub struct PackOptions {
    /// Objects at or above this many bytes become loose files.
    pub loose_threshold: u64,
    /// Which fsync barriers the store issues.
    pub durability: Durability,
}

impl Default for PackOptions {
    fn default() -> Self {
        PackOptions {
            loose_threshold: DEFAULT_LOOSE_THRESHOLD,
            durability: Durability::Full,
        }
    }
}

/// The enumerated write sites where [`PackStore::arm_crash`] can simulate
/// power loss: the write tears mid-operation (half the bytes land, or the
/// rename never happens) and the store poisons itself — every later call
/// fails until the caller drops it and reopens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Mid-append of a packed object record.
    PackAppend,
    /// Mid-append of a flush's journal record. Reopen truncates it and
    /// recovers the previous flush's state.
    JournalAppend,
    /// Mid-write of a loose object's tmp file.
    LooseWrite,
    /// Mid-write of a checkpoint's index tmp file.
    IndexWrite,
    /// After a checkpoint's index tmp is written but before the rename.
    IndexRename,
    /// Mid-write of the GC-compacted pack tmp file.
    GcRewrite,
    /// After the compacted pack tmp is written but before the rename.
    GcRename,
    /// After the compacted pack is swapped in but before the final
    /// checkpoint — the window where the on-disk index is stale.
    GcIndex,
}

impl CrashPoint {
    /// Every enumerated crash point, for matrix tests.
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::PackAppend,
        CrashPoint::JournalAppend,
        CrashPoint::LooseWrite,
        CrashPoint::IndexWrite,
        CrashPoint::IndexRename,
        CrashPoint::GcRewrite,
        CrashPoint::GcRename,
        CrashPoint::GcIndex,
    ];
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Byte offset of the record in `pack.dsv`, or [`LOOSE_OFFSET`].
    offset: u64,
    len: u64,
    kind: ObjectKind,
    refcount: u32,
}

impl Entry {
    /// One past the last byte of this entry's pack record (`None` on
    /// overflow, which no real record has).
    fn record_end(&self) -> Option<u64> {
        self.offset
            .checked_add(RECORD_HEADER)
            .and_then(|x| x.checked_add(self.len))
    }
}

/// Append one entry in the 40-byte encoding shared by the index and the
/// journal.
fn encode_entry(out: &mut Vec<u8>, id: ObjectId, e: &Entry) {
    out.extend_from_slice(&id.0.to_le_bytes());
    out.extend_from_slice(&id.1.to_le_bytes());
    out.extend_from_slice(&e.offset.to_le_bytes());
    out.extend_from_slice(&e.len.to_le_bytes());
    out.push(e.kind.tag());
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&e.refcount.to_le_bytes());
}

/// One pack record: `[id 16B][tag 1B][len 8B LE][payload]`.
fn encode_record(id: ObjectId, tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER as usize + payload.len());
    rec.extend_from_slice(&id.0.to_le_bytes());
    rec.extend_from_slice(&id.1.to_le_bytes());
    rec.push(tag);
    rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn read_id(bytes: &[u8]) -> ObjectId {
    ObjectId(le_u64(&bytes[0..8]), le_u64(&bytes[8..16]))
}

/// Decode `claimed` entries in the shared 40-byte encoding from `body`.
/// The count must match the body length exactly — checked without
/// overflow and before anything is allocated, so an inflated count can
/// neither wrap the check nor size an allocation. An unknown kind tag is
/// an error too.
fn decode_entries(claimed: u64, body: &[u8]) -> Result<Vec<(ObjectId, Entry)>, String> {
    let count = usize::try_from(claimed)
        .ok()
        .filter(|&n| n.checked_mul(IDX_ENTRY) == Some(body.len()))
        .ok_or_else(|| format!("{} bytes for {claimed} entries", body.len()))?;
    let mut out = Vec::with_capacity(count);
    for (i, e) in body.chunks_exact(IDX_ENTRY).enumerate() {
        let kind = ObjectKind::from_tag(e[32])
            .ok_or_else(|| format!("entry {i} has kind tag {}", e[32]))?;
        out.push((
            read_id(e),
            Entry {
                offset: le_u64(&e[16..24]),
                len: le_u64(&e[24..32]),
                kind,
                refcount: u32::from_le_bytes(e[36..40].try_into().expect("4 bytes")),
            },
        ));
    }
    Ok(out)
}

/// Checksum of a journal payload: its record id.
fn journal_id(payload: &[u8]) -> ObjectId {
    let mut h = ObjectHasher::with_tag(JOURNAL_TAG);
    h.update(payload);
    h.finish()
}

/// Decode the journal record at pack offset `at`. Besides the entry
/// decoding, every packed entry must point at a record wholly between
/// the magic and the journal itself: a journal only ever describes
/// records appended before it.
fn decode_journal(at: u64, payload: &[u8]) -> Result<Vec<(ObjectId, Entry)>, String> {
    if payload.len() < JOURNAL_HEADER {
        return Err(format!("journal of {} bytes has no count", payload.len()));
    }
    let (head, body) = payload.split_at(JOURNAL_HEADER);
    let entries = decode_entries(le_u64(head), body)?;
    let min = PACK_MAGIC.len() as u64;
    if let Some((id, _)) = entries.iter().find(|(_, e)| {
        e.offset != LOOSE_OFFSET && (e.offset < min || e.record_end().is_none_or(|end| end > at))
    }) {
        return Err(format!(
            "journal at {at} points {id} outside the records before it"
        ));
    }
    Ok(entries)
}

/// One whole, checked record found by [`scan_records`].
#[derive(Debug)]
enum Scanned {
    /// An object record whose payload hashes to its id.
    Object {
        offset: u64,
        id: ObjectId,
        kind: ObjectKind,
        len: u64,
    },
    /// A journal record whose payload hashes to its id and decodes.
    Journal {
        offset: u64,
        bytes: u64,
        entries: Vec<(ObjectId, Entry)>,
    },
}

/// Walk the pack records in `region`, the pack bytes from file offset
/// `base` to the end. Returns the checked records in order and the offset
/// where the valid prefix ends. The walk stops at the first record that
/// is not whole — a short header, an unknown tag, a length past the end
/// (or overflowing) — or is a journal that fails its checksum or does not
/// decode, and everything from there on is a torn tail. A whole object
/// record whose payload does not hash to its id is corruption at rest: it
/// is skipped, not returned, and the walk goes on. Total: no input
/// panics, and nothing is allocated beyond what `region` holds.
fn scan_records(region: &[u8], base: u64) -> (Vec<Scanned>, u64) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = region.get(pos..pos + RECORD_HEADER as usize) {
        let offset = base + pos as u64;
        let id = read_id(header);
        let tag = header[16];
        let len = le_u64(&header[17..25]);
        let start = pos + RECORD_HEADER as usize;
        let Some(payload) = usize::try_from(len)
            .ok()
            .and_then(|len| start.checked_add(len))
            .and_then(|end| region.get(start..end))
        else {
            break;
        };
        let next = start + payload.len();
        let record = if tag == JOURNAL_TAG {
            if journal_id(payload) != id {
                break;
            }
            let Ok(entries) = decode_journal(offset, payload) else {
                break;
            };
            Scanned::Journal {
                offset,
                bytes: RECORD_HEADER + len,
                entries,
            }
        } else {
            let Some(kind) = ObjectKind::from_tag(tag) else {
                break;
            };
            if hash_object(kind, payload) != id {
                // Whole but rotten: corruption at rest, not a tear. Skip
                // it rather than truncate every record after it; an entry
                // pointing here reads as `Corrupt` and is repairable.
                pos = next;
                continue;
            }
            Scanned::Object {
                offset,
                id,
                kind,
                len,
            }
        };
        out.push(record);
        pos = next;
    }
    (out, base + pos as u64)
}

/// Where an object physically lives — exposed for tooling and for
/// fault-injection tests that corrupt real bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjectLocation {
    /// A record inside `pack.dsv`; `payload_offset` is where the payload
    /// bytes start.
    Packed {
        /// Offset of the first payload byte in the pack file.
        payload_offset: u64,
        /// Payload length.
        len: u64,
    },
    /// A loose file holding exactly the payload bytes.
    Loose {
        /// The loose file's path.
        path: PathBuf,
    },
}

/// The persistent content-addressed store. See the module docs for the
/// layout.
#[derive(Debug)]
pub struct PackStore {
    dir: PathBuf,
    pack_path: PathBuf,
    idx_path: PathBuf,
    entries: BTreeMap<ObjectId, Entry>,
    /// Ids whose entries changed since the last flush or checkpoint: the
    /// next flush's journal record.
    dirty: BTreeSet<ObjectId>,
    pack_len: u64,
    /// Pack length the on-disk index covers (0 while there is none);
    /// open replays the records past it.
    covered: u64,
    /// Journal bytes in the pack past `covered`, which drive the
    /// checkpoint cadence.
    journal_bytes: u64,
    loose_threshold: u64,
    durability: Durability,
    /// Armed crash point (single-shot; see [`PackStore::arm_crash`]).
    crash: Option<CrashPoint>,
    /// Set when an armed crash point fired: the store refuses every
    /// operation and [`Drop`] skips the checkpoint, as a dead process
    /// would.
    crashed: bool,
    /// Cached read handle for the pack file (lazily opened, invalidated
    /// when GC swaps the file), so the read path costs a seek, not an
    /// open, per object.
    reader: std::sync::Mutex<Option<File>>,
    /// The one append handle: every record is written and every pack
    /// sync issued through it. Opened lazily; reopened after GC swaps the
    /// pack and after a torn tail is truncated.
    appender: Option<File>,
    /// Resident pack map: the whole pack file read once and kept in
    /// memory so [`Store::get_ref`] serves verified *slices* instead of
    /// allocating a `Vec` per packed read. Loaded lazily on the first
    /// `get_ref`; every successful append extends it with the record it
    /// wrote, so it always mirrors the file. GC compaction rewrites the
    /// pack with new offsets, so GC drops it.
    resident: std::sync::OnceLock<Vec<u8>>,
}

/// Check a file's 8-byte magic against `want`. A file of the same family
/// (`DSVPACK…`/`DSVIDX…`) at another version is refused by name; anything
/// else is simply not a store file.
fn check_magic(found: &[u8], want: &[u8; 8], path: &Path) -> Result<(), StoreError> {
    if found == want {
        return Ok(());
    }
    let family = want.iter().take_while(|b| !b.is_ascii_digit()).count();
    let detail = if found.len() == want.len() && found[..family] == want[..family] {
        let version = String::from_utf8_lossy(&found[family..]);
        let version = version.trim_start_matches('0');
        format!(
            "{} is a version-{version} store file ({}); this build reads only {} \
             and does not migrate",
            path.display(),
            String::from_utf8_lossy(found),
            String::from_utf8_lossy(want),
        )
    } else {
        format!("{} has a bad magic", path.display())
    };
    Err(StoreError::InvalidFormat { detail })
}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

impl PackStore {
    /// Open (or create) a store under `dir` with default options.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(dir, PackOptions::default())
    }

    /// Open (or create) a store under `dir` with explicit [`PackOptions`].
    pub fn open_with(dir: impl Into<PathBuf>, options: PackOptions) -> Result<Self, StoreError> {
        let dir = dir.into();
        let objects = dir.join("objects");
        std::fs::create_dir_all(&objects).map_err(|e| io_err("create_dir", &objects, e))?;
        let pack_path = dir.join("pack.dsv");
        let idx_path = dir.join("pack.idx");

        let mut store = PackStore {
            dir,
            pack_path,
            idx_path,
            entries: BTreeMap::new(),
            dirty: BTreeSet::new(),
            pack_len: 0,
            covered: 0,
            journal_bytes: 0,
            loose_threshold: options.loose_threshold,
            durability: options.durability,
            crash: None,
            crashed: false,
            reader: std::sync::Mutex::new(None),
            appender: None,
            resident: std::sync::OnceLock::new(),
        };
        // A crash can leave half-written tmp files anywhere we stage
        // writes; none of them is referenced by anything, so clear them
        // before reading any state.
        store.clean_stale_tmp()?;
        store.init_pack()?;
        let start = PACK_MAGIC.len() as u64;
        let mut stale = false;
        if store.idx_path.exists() {
            let (covered, parsed) = store.parse_index()?;
            if store.index_matches_pack(covered, &parsed)? {
                store.entries = parsed.into_iter().collect();
                store.covered = covered;
                // Crash recovery and the journal alike: records appended
                // after the checkpoint are replayed in order, and a torn
                // trailing record is truncated away so future appends
                // land on a valid boundary.
                store.replay(covered)?;
            } else {
                // The index is stale — e.g. a crash landed between GC's
                // pack swap and its checkpoint, so the entries point into
                // a pack that no longer matches. Rebuild by replaying the
                // whole pack and the loose directory, then carry
                // reference counts over by id — except where a journal
                // past the stale checkpoint set them, which is newer.
                // Ids absent from the rebuilt state were dead and simply
                // drop out.
                let journaled = store.replay(start)?;
                store.adopt_loose_files()?;
                for (id, rc) in parsed.into_iter().map(|(id, e)| (id, e.refcount)) {
                    let newer = journaled.get(&id).is_some_and(|&at| at >= covered);
                    if let Some(e) = store.entries.get_mut(&id).filter(|_| !newer) {
                        e.refcount = rc;
                    }
                }
                stale = true;
            }
        } else if store.pack_len > start || store.any_loose()? {
            // Recovery: no index but data exists — replay the whole pack
            // and adopt the loose directory. Journaled reference counts
            // come back exact; objects no flush ever journaled get one
            // reference.
            store.replay(start)?;
            store.adopt_loose_files()?;
        }
        // A crash mid-GC can leave dead loose entries whose files were
        // already unlinked; the unlink was the desired end state, so
        // finish the job. (A *live* loose entry with a missing file is
        // real data loss and is left to surface as a read error.)
        let orphaned: Vec<ObjectId> = store
            .entries
            .iter()
            .filter(|(&id, e)| {
                e.offset == LOOSE_OFFSET && e.refcount == 0 && !store.loose_path(id).exists()
            })
            .map(|(&id, _)| id)
            .collect();
        for id in orphaned {
            store.entries.remove(&id);
        }
        if stale {
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// Arm a single-shot simulated power loss at `point`: the next write
    /// reaching that site tears its bytes mid-operation, the store marks
    /// itself crashed, and every later call fails with [`StoreError::Io`]
    /// until the caller drops the store (which skips the exit checkpoint,
    /// as a dead process would) and reopens.
    pub fn arm_crash(&mut self, point: CrashPoint) {
        self.crash = Some(point);
    }

    /// Whether an armed crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    fn durable(&self) -> bool {
        self.durability == Durability::Full
    }

    fn check_crashed(&self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Io {
                op: "crashed",
                path: self.dir.display().to_string(),
                detail: "store hit a simulated crash point; reopen to recover".into(),
            });
        }
        Ok(())
    }

    /// Consume an armed crash point if it matches `point`.
    fn hit_crash(&mut self, point: CrashPoint) -> bool {
        if self.crash == Some(point) {
            self.crash = None;
            self.crashed = true;
            true
        } else {
            false
        }
    }

    fn crash_err(&self, point: CrashPoint) -> StoreError {
        StoreError::Io {
            op: "injected-crash",
            path: self.dir.display().to_string(),
            detail: format!("simulated power loss at {point:?}"),
        }
    }

    /// fsync a directory so a just-renamed or just-unlinked entry is
    /// durable (no-op under [`Durability::None`]).
    fn fsync_dir(&self, dir: &Path) -> Result<(), StoreError> {
        if !self.durable() {
            return Ok(());
        }
        File::open(dir)
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err("fsync-dir", dir, e))
    }

    /// Remove stray `*.tmp` staging files left by a crash: the pack
    /// compaction tmp, the index tmp, and loose-object tmps.
    fn clean_stale_tmp(&self) -> Result<(), StoreError> {
        for tmp in [
            self.pack_path.with_extension("dsv.tmp"),
            self.idx_path.with_extension("idx.tmp"),
        ] {
            if tmp.exists() {
                std::fs::remove_file(&tmp).map_err(|e| io_err("remove", &tmp, e))?;
            }
        }
        let objects = self.dir.join("objects");
        let rd = std::fs::read_dir(&objects).map_err(|e| io_err("read_dir", &objects, e))?;
        for dirent in rd {
            let dirent = dirent.map_err(|e| io_err("read_dir", &objects, e))?;
            let path = dirent.path();
            if path.extension().is_some_and(|ext| ext == "tmp") {
                std::fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
            }
        }
        Ok(())
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the pack file.
    pub fn pack_path(&self) -> &Path {
        &self.pack_path
    }

    /// Total bytes of the pack file (including dead records and journal
    /// records until the next [`Store::gc`]).
    pub fn pack_file_len(&self) -> u64 {
        self.pack_len
    }

    /// Where an object physically lives, or `None` if absent.
    pub fn locate(&self, id: ObjectId) -> Option<ObjectLocation> {
        let e = self.entries.get(&id)?;
        Some(if e.offset == LOOSE_OFFSET {
            ObjectLocation::Loose {
                path: self.loose_path(id),
            }
        } else {
            ObjectLocation::Packed {
                payload_offset: e.offset + RECORD_HEADER,
                len: e.len,
            }
        })
    }

    fn loose_path(&self, id: ObjectId) -> PathBuf {
        self.dir.join("objects").join(id.to_string())
    }

    fn any_loose(&self) -> Result<bool, StoreError> {
        let objects = self.dir.join("objects");
        let mut it = std::fs::read_dir(&objects).map_err(|e| io_err("read_dir", &objects, e))?;
        Ok(it.next().is_some())
    }

    /// Ensure the pack file exists with a valid magic; record its length.
    fn init_pack(&mut self) -> Result<(), StoreError> {
        let mut f = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&self.pack_path)
            .map_err(|e| io_err("open", &self.pack_path, e))?;
        let len = f
            .metadata()
            .map_err(|e| io_err("stat", &self.pack_path, e))?
            .len();
        if len == 0 {
            f.write_all(PACK_MAGIC)
                .map_err(|e| io_err("write", &self.pack_path, e))?;
            self.pack_len = PACK_MAGIC.len() as u64;
        } else {
            let mut magic = [0u8; 8];
            f.seek(SeekFrom::Start(0))
                .and_then(|_| f.read_exact(&mut magic))
                .map_err(|e| io_err("read", &self.pack_path, e))?;
            check_magic(&magic, PACK_MAGIC, &self.pack_path)?;
            self.pack_len = len;
        }
        Ok(())
    }

    /// Parse the index file into its covered pack length and entries. A
    /// malformed header, a count that does not match the file length, or
    /// an unknown kind tag is a hard [`StoreError::InvalidFormat`] — the
    /// file is not an index. Offsets and the covered length are *not*
    /// validated here: staleness against the pack is
    /// [`Self::index_matches_pack`]'s job, and a stale index is
    /// recoverable, not fatal.
    fn parse_index(&self) -> Result<(u64, Vec<(ObjectId, Entry)>), StoreError> {
        let bytes = std::fs::read(&self.idx_path).map_err(|e| io_err("read", &self.idx_path, e))?;
        let path = self.idx_path.display();
        let bad = |detail: String| StoreError::InvalidFormat { detail };
        if bytes.len() < 8 {
            return Err(bad(format!("{path} has a bad header")));
        }
        check_magic(&bytes[..8], IDX_MAGIC, &self.idx_path)?;
        if bytes.len() < IDX_HEADER {
            return Err(bad(format!("{path} has a bad header")));
        }
        let covered = le_u64(&bytes[16..24]);
        let parsed = decode_entries(le_u64(&bytes[8..16]), &bytes[IDX_HEADER..])
            .map_err(|detail| bad(format!("{path}: {detail}")))?;
        Ok((covered, parsed))
    }

    /// Whether a parsed index actually describes the current pack file:
    /// its covered length must lie within the pack, and every packed
    /// entry must lie within the covered length *and* the 16-byte record
    /// id at its offset must match. Any check failing means the index is
    /// stale (a crash window, or external corruption) and the caller must
    /// rebuild — loading it as-is could serve wrong bytes, read past EOF,
    /// or replay from the middle of a record.
    fn index_matches_pack(
        &self,
        covered: u64,
        parsed: &[(ObjectId, Entry)],
    ) -> Result<bool, StoreError> {
        if covered < PACK_MAGIC.len() as u64 || covered > self.pack_len {
            return Ok(false);
        }
        let mut packed = parsed
            .iter()
            .filter(|(_, e)| e.offset != LOOSE_OFFSET)
            .peekable();
        if packed.peek().is_none() {
            return Ok(true);
        }
        let mut f = File::open(&self.pack_path).map_err(|e| io_err("open", &self.pack_path, e))?;
        for (id, e) in packed {
            if e.offset < PACK_MAGIC.len() as u64 || e.record_end().is_none_or(|end| end > covered)
            {
                return Ok(false);
            }
            let mut rec_id = [0u8; 16];
            f.seek(SeekFrom::Start(e.offset))
                .and_then(|_| f.read_exact(&mut rec_id))
                .map_err(|err| io_err("read", &self.pack_path, err))?;
            if read_id(&rec_id) != *id {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Replay the pack records from offset `from` to the end onto the
    /// entries, in order: an object record sets its entry's location
    /// (keeping a known refcount, or adopting the object with one
    /// reference), and a journal record overwrites the entries it holds.
    /// A torn tail ([`scan_records`]) is truncated away so future appends
    /// land on a valid boundary. Returns, for every journaled id, the
    /// offset of the last journal record that set it.
    fn replay(&mut self, from: u64) -> Result<BTreeMap<ObjectId, u64>, StoreError> {
        let mut journaled = BTreeMap::new();
        if from >= self.pack_len {
            return Ok(journaled);
        }
        let mut region = Vec::new();
        File::open(&self.pack_path)
            .and_then(|mut f| {
                f.seek(SeekFrom::Start(from))?;
                f.take(self.pack_len - from).read_to_end(&mut region)
            })
            .map_err(|e| io_err("read", &self.pack_path, e))?;
        let (records, valid_end) = scan_records(&region, from);
        drop(region);
        for record in records {
            match record {
                Scanned::Object {
                    offset,
                    id,
                    kind,
                    len,
                } => {
                    let e = self.entries.entry(id).or_insert(Entry {
                        offset,
                        len,
                        kind,
                        refcount: 1,
                    });
                    (e.offset, e.len, e.kind) = (offset, len, kind);
                }
                Scanned::Journal {
                    offset,
                    bytes,
                    entries,
                } => {
                    self.journal_bytes += bytes;
                    for (id, e) in entries {
                        self.entries.insert(id, e);
                        journaled.insert(id, offset);
                    }
                }
            }
        }
        if valid_end < self.pack_len {
            let w = OpenOptions::new()
                .write(true)
                .open(&self.pack_path)
                .map_err(|e| io_err("open", &self.pack_path, e))?;
            w.set_len(valid_end)
                .map_err(|e| io_err("truncate", &self.pack_path, e))?;
            self.pack_len = valid_end;
            self.appender = None;
        }
        Ok(journaled)
    }

    /// Write a checkpoint: sync the pack, then write the fixed-width
    /// sorted index — covering the whole pack — atomically: tmp → (sync)
    /// → rename → (directory fsync). The syncs make the rename a real
    /// barrier under [`Durability::Full`] — without them the rename can
    /// land before the tmp's data and a power loss leaves a valid-looking
    /// index full of garbage, or an index covering pack bytes that were
    /// lost. A checkpoint subsumes every pending journal entry.
    fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.sync_pack()?;
        let mut out = Vec::with_capacity(IDX_HEADER + self.entries.len() * IDX_ENTRY);
        out.extend_from_slice(IDX_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.pack_len.to_le_bytes());
        // BTreeMap iterates sorted by id — the binary-search invariant.
        for (&id, e) in &self.entries {
            encode_entry(&mut out, id, e);
        }
        let tmp = self.idx_path.with_extension("idx.tmp");
        if self.hit_crash(CrashPoint::IndexWrite) {
            let _ = std::fs::write(&tmp, &out[..out.len() / 2]);
            return Err(self.crash_err(CrashPoint::IndexWrite));
        }
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            f.write_all(&out).map_err(|e| io_err("write", &tmp, e))?;
            if self.durable() {
                f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
            }
        }
        if self.hit_crash(CrashPoint::IndexRename) {
            return Err(self.crash_err(CrashPoint::IndexRename));
        }
        std::fs::rename(&tmp, &self.idx_path).map_err(|e| io_err("rename", &self.idx_path, e))?;
        self.fsync_dir(&self.dir)?;
        self.covered = self.pack_len;
        self.journal_bytes = 0;
        self.dirty.clear();
        Ok(())
    }

    /// Index bytes a checkpoint writes at the current entry count.
    fn index_len(&self) -> u64 {
        (IDX_HEADER + self.entries.len() * IDX_ENTRY) as u64
    }

    /// Adopt loose files the entries do not know (recovery path when the
    /// index is missing or stale). A journaled entry keeps its refcount;
    /// an unknown file gets one reference.
    fn adopt_loose_files(&mut self) -> Result<(), StoreError> {
        let objects = self.dir.join("objects");
        let rd = std::fs::read_dir(&objects).map_err(|e| io_err("read_dir", &objects, e))?;
        for dirent in rd {
            let dirent = dirent.map_err(|e| io_err("read_dir", &objects, e))?;
            let name = dirent.file_name();
            let name = name.to_string_lossy();
            if name.len() != 32 {
                continue;
            }
            let (hi, lo) = name.split_at(16);
            let (Ok(a), Ok(b)) = (u64::from_str_radix(hi, 16), u64::from_str_radix(lo, 16)) else {
                continue;
            };
            let id = ObjectId(a, b);
            if self.entries.contains_key(&id) {
                continue;
            }
            let path = dirent.path();
            let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
            // Loose files carry no kind tag; recover it by matching the hash.
            let kind = [ObjectKind::Chunk, ObjectKind::Delta]
                .into_iter()
                .find(|&k| hash_object(k, &bytes) == id)
                .ok_or_else(|| StoreError::Corrupt {
                    id,
                    detail: "loose file does not hash to its name under any kind".into(),
                })?;
            self.entries.insert(
                id,
                Entry {
                    offset: LOOSE_OFFSET,
                    len: bytes.len() as u64,
                    kind,
                    refcount: 1,
                },
            );
        }
        Ok(())
    }

    /// Whether the resident pack map is currently loaded. Tests observe
    /// invalidation through this; callers can use it to decide whether a
    /// first read will pay the one-time load.
    pub fn resident_loaded(&self) -> bool {
        self.resident.get().is_some()
    }

    /// The resident pack map: the pack file read once into memory, after
    /// which packed [`Store::get_ref`] reads are verified slices. Appends
    /// extend it; reloaded lazily after `gc` drops it.
    fn resident_pack(&self) -> Result<&[u8], StoreError> {
        if let Some(bytes) = self.resident.get() {
            return Ok(bytes);
        }
        let bytes =
            std::fs::read(&self.pack_path).map_err(|e| io_err("read", &self.pack_path, e))?;
        // A concurrent reader may have raced the load and won; both read
        // the same file under the shared borrow (appends need `&mut`), so
        // either copy serves.
        let _ = self.resident.set(bytes);
        Ok(self.resident.get().expect("resident just set"))
    }

    fn read_packed(&self, id: ObjectId, e: &Entry) -> Result<Vec<u8>, StoreError> {
        let mut guard = self.reader.lock().expect("pack reader lock");
        if guard.is_none() {
            *guard =
                Some(File::open(&self.pack_path).map_err(|e| io_err("open", &self.pack_path, e))?);
        }
        let f = guard.as_mut().expect("reader just opened");
        let mut rec = [0u8; RECORD_HEADER as usize];
        let mut payload = vec![0u8; e.len as usize];
        let io = f
            .seek(SeekFrom::Start(e.offset))
            .and_then(|_| f.read_exact(&mut rec))
            .and_then(|_| f.read_exact(&mut payload));
        if let Err(err) = io {
            // Drop the cached handle so the next read reopens cleanly.
            *guard = None;
            return Err(io_err("read", &self.pack_path, err));
        }
        let rec_id = read_id(&rec);
        if rec_id != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("pack record at {} is for {rec_id}", e.offset),
            });
        }
        Ok(payload)
    }

    /// The append handle, opened on first use.
    fn appender(&mut self) -> Result<&mut File, StoreError> {
        if self.appender.is_none() {
            let f = OpenOptions::new()
                .append(true)
                .open(&self.pack_path)
                .map_err(|e| io_err("open", &self.pack_path, e))?;
            self.appender = Some(f);
        }
        Ok(self.appender.as_mut().expect("appender just opened"))
    }

    /// Sync the pack through the append handle (no-op under
    /// [`Durability::None`]).
    fn sync_pack(&mut self) -> Result<(), StoreError> {
        if !self.durable() {
            return Ok(());
        }
        let f = self.appender()?;
        f.sync_all()
            .map_err(|e| io_err("sync", &self.pack_path, e))?;
        Ok(())
    }

    /// Append one record to the pack, returning its offset. Shared by
    /// `put`, `repair` and `flush`'s journal; `point` is the crash point
    /// that tears it. The append itself is not synced — packed writes are
    /// acknowledged durable at the next flush, which syncs the pack after
    /// its journal record.
    fn append_record(
        &mut self,
        id: ObjectId,
        tag: u8,
        bytes: &[u8],
        point: CrashPoint,
    ) -> Result<u64, StoreError> {
        let offset = self.pack_len;
        let rec = encode_record(id, tag, bytes);
        self.appender()?;
        let crash = self.hit_crash(point);
        let f = self.appender.as_mut().expect("appender open");
        if crash {
            // Tear the record: half its bytes land past the committed
            // length, exactly what a power loss mid-append leaves behind.
            // pack_len and the entry map are NOT updated — the record was
            // never acknowledged. Reopen truncates the torn tail.
            let _ = f.write_all(&rec[..rec.len() / 2]);
            return Err(self.crash_err(point));
        }
        if let Err(e) = f.write_all(&rec) {
            // A partial append leaves garbage past pack_len; truncate
            // it away so the next put's recorded offset stays honest.
            let _ = f.set_len(offset);
            return Err(io_err("write", &self.pack_path, e));
        }
        self.pack_len += rec.len() as u64;
        // Keep the resident map a mirror of the file: `&mut self` proves
        // no slice of it is borrowed, so it can grow in place.
        if let Some(map) = self.resident.get_mut() {
            map.extend_from_slice(&rec);
        }
        Ok(offset)
    }

    /// Write a loose object: tmp → (sync) → rename → (directory fsync),
    /// so a crash mid-write can never leave a half-written file under the
    /// object's final name. Shared by `put` and `repair`.
    fn write_loose(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.loose_path(id);
        let tmp = path.with_extension("tmp");
        if self.hit_crash(CrashPoint::LooseWrite) {
            let _ = std::fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(self.crash_err(CrashPoint::LooseWrite));
        }
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            f.write_all(bytes).map_err(|e| io_err("write", &tmp, e))?;
            if self.durable() {
                f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
            }
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename", &path, e))?;
        self.fsync_dir(&self.dir.join("objects"))?;
        Ok(())
    }
}

impl Store for PackStore {
    fn put(&mut self, kind: ObjectKind, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        self.check_crashed()?;
        let id = hash_object(kind, bytes);
        if let Some(e) = self.entries.get_mut(&id) {
            e.refcount += 1;
            self.dirty.insert(id);
            return Ok(id);
        }
        let offset = if bytes.len() as u64 >= self.loose_threshold {
            self.write_loose(id, bytes)?;
            LOOSE_OFFSET
        } else {
            self.append_record(id, kind.tag(), bytes, CrashPoint::PackAppend)?
        };
        self.entries.insert(
            id,
            Entry {
                offset,
                len: bytes.len() as u64,
                kind,
                refcount: 1,
            },
        );
        self.dirty.insert(id);
        Ok(id)
    }

    fn get(&self, id: ObjectId) -> Result<Vec<u8>, StoreError> {
        self.check_crashed()?;
        let e = *self.entries.get(&id).ok_or(StoreError::Missing { id })?;
        let bytes = if e.offset == LOOSE_OFFSET {
            let path = self.loose_path(id);
            std::fs::read(&path).map_err(|err| io_err("read", &path, err))?
        } else {
            self.read_packed(id, &e)?
        };
        let actual = hash_object(e.kind, &bytes);
        if actual != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("bytes hash to {actual}"),
            });
        }
        Ok(bytes)
    }

    fn get_ref(&self, id: ObjectId) -> Result<std::borrow::Cow<'_, [u8]>, StoreError> {
        self.check_crashed()?;
        let e = *self.entries.get(&id).ok_or(StoreError::Missing { id })?;
        if e.offset == LOOSE_OFFSET {
            // Loose objects (at least the loose threshold, e.g. every
            // large text root) are not kept resident: they are read into
            // a fresh buffer and served owned, so a decoder can keep that
            // buffer instead of copying it again.
            return self.get(id).map(std::borrow::Cow::Owned);
        }
        let pack = self.resident_pack()?;
        let start = e.offset as usize;
        let end = start + RECORD_HEADER as usize + e.len as usize;
        let Some(rec) = pack.get(start..end) else {
            // Appends extend the map, so only a file changed behind the
            // store's back gets here. Serve the owned fallback, which
            // re-reads and re-verifies the record.
            return self.get(id).map(std::borrow::Cow::Owned);
        };
        let rec_id = read_id(rec);
        if rec_id != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("pack record at {} is for {rec_id}", e.offset),
            });
        }
        let payload = &rec[RECORD_HEADER as usize..];
        let actual = hash_object(e.kind, payload);
        if actual != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("bytes hash to {actual}"),
            });
        }
        Ok(std::borrow::Cow::Borrowed(payload))
    }

    fn meta(&self, id: ObjectId) -> Option<ObjectMeta> {
        self.entries.get(&id).map(|e| ObjectMeta {
            kind: e.kind,
            len: e.len,
            refcount: e.refcount,
        })
    }

    fn retain(&mut self, id: ObjectId) -> Result<(), StoreError> {
        self.check_crashed()?;
        let e = self
            .entries
            .get_mut(&id)
            .ok_or(StoreError::Missing { id })?;
        e.refcount += 1;
        self.dirty.insert(id);
        Ok(())
    }

    fn release(&mut self, id: ObjectId) -> Result<(), StoreError> {
        self.check_crashed()?;
        let e = self
            .entries
            .get_mut(&id)
            .ok_or(StoreError::Missing { id })?;
        if e.refcount == 0 {
            return Err(StoreError::AlreadyReleased { id });
        }
        e.refcount -= 1;
        self.dirty.insert(id);
        Ok(())
    }

    fn gc(&mut self) -> Result<GcStats, StoreError> {
        self.check_crashed()?;
        let mut stats = GcStats::default();
        let dead: Vec<ObjectId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.refcount == 0)
            .map(|(&id, _)| id)
            .collect();
        // With nothing dead, compaction still pays when the pack holds
        // bytes no entry points at: journal records and records orphaned
        // by `repair`.
        let packed_bytes: u64 = self
            .entries
            .values()
            .filter(|e| e.offset != LOOSE_OFFSET)
            .map(|e| RECORD_HEADER + e.len)
            .sum();
        if dead.is_empty() && self.pack_len == PACK_MAGIC.len() as u64 + packed_bytes {
            return Ok(stats);
        }
        // Durability barrier: checkpoint the zero refcounts and every
        // journaled entry *before* destroying any bytes. Without this, a
        // crash mid-GC reopens with an older index whose counts say some
        // unlinked object is live — a resurrected dead record at best, a
        // lost "live" object at worst — and compaction would drop the
        // journal records holding the newest counts.
        self.checkpoint()?;
        let mut unlinked_loose = false;
        for &id in &dead {
            let e = self.entries.remove(&id).expect("dead entry exists");
            stats.collected_objects += 1;
            stats.reclaimed_bytes += e.len;
            if e.offset == LOOSE_OFFSET {
                let path = self.loose_path(id);
                // A prior crashed GC may already have unlinked this file;
                // its absence is the desired state, not an error.
                match std::fs::remove_file(&path) {
                    Ok(()) => unlinked_loose = true,
                    Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                    Err(err) => return Err(io_err("remove", &path, err)),
                }
            }
        }
        if unlinked_loose {
            self.fsync_dir(&self.dir.join("objects"))?;
        }
        // Compact the pack: rewrite only live object records, then swap.
        // New offsets are staged and applied only once the rename has
        // succeeded — a failure mid-compaction must leave the in-memory
        // index pointing at the intact old pack, not the abandoned tmp.
        let tmp = self.pack_path.with_extension("dsv.tmp");
        let mut staged_offsets: Vec<(ObjectId, u64)> = Vec::new();
        let mut new_len = PACK_MAGIC.len() as u64;
        {
            let mut out = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            out.write_all(PACK_MAGIC)
                .map_err(|e| io_err("write", &tmp, e))?;
            let live: Vec<ObjectId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.offset != LOOSE_OFFSET)
                .map(|(&id, _)| id)
                .collect();
            let mut torn = false;
            for id in live {
                let e = self.entries[&id];
                let rec = encode_record(id, e.kind.tag(), &self.read_packed(id, &e)?);
                if self.hit_crash(CrashPoint::GcRewrite) {
                    let _ = out.write_all(&rec[..rec.len() / 2]);
                    torn = true;
                    break;
                }
                out.write_all(&rec).map_err(|e| io_err("write", &tmp, e))?;
                staged_offsets.push((id, new_len));
                new_len += rec.len() as u64;
            }
            if torn {
                return Err(self.crash_err(CrashPoint::GcRewrite));
            }
            if self.durable() {
                // The compacted pack's data must be on disk before the
                // rename makes it the pack.
                out.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
            }
        }
        if self.hit_crash(CrashPoint::GcRename) {
            return Err(self.crash_err(CrashPoint::GcRename));
        }
        std::fs::rename(&tmp, &self.pack_path).map_err(|e| io_err("rename", &self.pack_path, e))?;
        self.fsync_dir(&self.dir)?;
        for (id, offset) in staged_offsets {
            self.entries.get_mut(&id).expect("live entry").offset = offset;
        }
        self.pack_len = new_len;
        // The cached read and append handles still point at the
        // pre-compaction file, and the resident map's offsets are those
        // of the old pack — all must go, or reads after GC would serve
        // stale bytes and appends would land in the unlinked file.
        *self.reader.lock().expect("pack reader lock") = None;
        self.appender = None;
        self.resident = std::sync::OnceLock::new();
        if self.hit_crash(CrashPoint::GcIndex) {
            // The new pack is in place but the on-disk index still
            // describes the old one — the stale-index window that reopen
            // must detect and rebuild.
            return Err(self.crash_err(CrashPoint::GcIndex));
        }
        self.checkpoint()?;
        Ok(stats)
    }

    fn object_count(&self) -> usize {
        self.entries.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.len).sum()
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.check_crashed()?;
        if self.dirty.is_empty() {
            return Ok(());
        }
        // One journal record with every changed entry (absolute values),
        // then one pack sync: the records it points at were appended
        // before it, so the sync makes both durable together.
        let mut payload = Vec::with_capacity(JOURNAL_HEADER + self.dirty.len() * IDX_ENTRY);
        payload.extend_from_slice(&0u64.to_le_bytes());
        let mut count = 0u64;
        for id in &self.dirty {
            if let Some(e) = self.entries.get(id) {
                encode_entry(&mut payload, *id, e);
                count += 1;
            }
        }
        payload[..JOURNAL_HEADER].copy_from_slice(&count.to_le_bytes());
        self.append_record(
            journal_id(&payload),
            JOURNAL_TAG,
            &payload,
            CrashPoint::JournalAppend,
        )?;
        self.journal_bytes += RECORD_HEADER + payload.len() as u64;
        self.sync_pack()?;
        self.dirty.clear();
        if 2 * self.journal_bytes > self.index_len() {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn repair(&mut self, id: ObjectId, kind: ObjectKind, bytes: &[u8]) -> Result<(), StoreError> {
        self.check_crashed()?;
        let actual = hash_object(kind, bytes);
        if actual != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("repair bytes hash to {actual}"),
            });
        }
        let e = *self.entries.get(&id).ok_or(StoreError::Missing { id })?;
        if e.offset == LOOSE_OFFSET {
            // Atomically replace the loose file under the same name.
            self.write_loose(id, bytes)?;
        } else {
            // Append a fresh record and point the entry at it; the
            // orphaned corrupt record is dropped at the next GC
            // compaction, and replay adopts the later record (an object
            // record moves its entry, keeping the refcount).
            let offset = self.append_record(id, kind.tag(), bytes, CrashPoint::PackAppend)?;
            let e = self.entries.get_mut(&id).expect("entry exists");
            e.offset = offset;
            e.len = bytes.len() as u64;
            e.kind = kind;
        }
        self.dirty.insert(id);
        Ok(())
    }
}

impl Drop for PackStore {
    fn drop(&mut self) {
        // Best-effort checkpoint, so the next open replays nothing;
        // callers needing guarantees flush. A crashed store writes
        // nothing — the process it simulates died.
        if !self.crashed && (self.covered != self.pack_len || !self.dirty.is_empty()) {
            let _ = self.checkpoint();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Default options with objects of at least `loose_threshold` bytes
    /// stored as loose files.
    fn loose_at(loose_threshold: u64) -> PackOptions {
        PackOptions {
            loose_threshold,
            ..PackOptions::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "dsv-pack-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn pack_roundtrip_dedup_and_loose_split() {
        let dir = temp_dir("roundtrip");
        let mut s = PackStore::open_with(&dir, loose_at(16)).expect("open");
        let small = s.put(ObjectKind::Delta, b"small").expect("put");
        let big_bytes = vec![7u8; 64];
        let big = s.put(ObjectKind::Chunk, &big_bytes).expect("put");
        assert_eq!(s.put(ObjectKind::Delta, b"small").expect("dedup"), small);
        assert_eq!(s.meta(small).expect("meta").refcount, 2);
        assert_eq!(s.get(small).expect("get"), b"small");
        assert_eq!(s.get(big).expect("get"), big_bytes);
        assert!(matches!(
            s.locate(small),
            Some(ObjectLocation::Packed { .. })
        ));
        assert!(matches!(s.locate(big), Some(ObjectLocation::Loose { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_ref_serves_resident_slices_and_survives_append_and_gc() {
        use std::borrow::Cow;
        let dir = temp_dir("resident");
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
        let a = s.put(ObjectKind::Chunk, b"first object").expect("put");
        assert!(!s.resident_loaded(), "map loads lazily, not on open/put");
        let bytes = s.get_ref(a).expect("get_ref");
        assert!(
            matches!(bytes, Cow::Borrowed(_)),
            "packed reads must be slices of the resident map"
        );
        assert_eq!(&*bytes, b"first object");
        drop(bytes);
        assert!(s.resident_loaded());

        // An append extends the map in place: it stays loaded, and the
        // appended record is served as a borrowed slice of it.
        let b = s.put(ObjectKind::Delta, b"appended object").expect("put");
        assert!(s.resident_loaded(), "append must keep the map loaded");
        let appended = s.get_ref(b).expect("new");
        assert!(matches!(appended, Cow::Borrowed(_)));
        assert_eq!(&*appended, b"appended object");
        drop(appended);
        // A flush's journal record extends it too, without disturbing
        // the object slices.
        s.flush().expect("flush");
        assert!(s.resident_loaded(), "a journal append keeps the map loaded");
        assert_eq!(&*s.get_ref(a).expect("old"), b"first object");
        assert_eq!(
            s.resident.get().expect("loaded").len() as u64,
            s.pack_file_len(),
            "the map mirrors the whole pack"
        );

        // GC compaction moves offsets; a stale map would serve the wrong
        // record. The reload must reflect the compacted pack exactly.
        s.release(a).expect("release");
        s.gc().expect("gc");
        assert!(!s.resident_loaded(), "gc must invalidate the map");
        assert_eq!(&*s.get_ref(b).expect("survivor"), b"appended object");
        assert!(matches!(s.get_ref(a), Err(StoreError::Missing { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_ref_detects_on_disk_corruption() {
        let dir = temp_dir("refcorrupt");
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
        let id = s.put(ObjectKind::Chunk, b"fragile resident").expect("put");
        let Some(ObjectLocation::Packed { payload_offset, .. }) = s.locate(id) else {
            panic!("expected a packed object");
        };
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(s.pack_path())
            .expect("open pack");
        f.seek(SeekFrom::Start(payload_offset)).expect("seek");
        let mut byte = [0u8; 1];
        f.read_exact(&mut byte).expect("read");
        f.seek(SeekFrom::Start(payload_offset)).expect("seek");
        f.write_all(&[byte[0] ^ 0xFF]).expect("write");
        drop(f);
        assert!(matches!(s.get_ref(id), Err(StoreError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pack_persists_across_reopen() {
        let dir = temp_dir("reopen");
        let (a, b);
        {
            let mut s = PackStore::open_with(&dir, loose_at(16)).expect("open");
            a = s.put(ObjectKind::Chunk, b"persistent").expect("put");
            b = s.put(ObjectKind::Chunk, &[3u8; 100]).expect("put");
            s.release(b).expect("release");
            s.flush().expect("flush");
        }
        let s = PackStore::open_with(&dir, loose_at(16)).expect("reopen");
        assert_eq!(s.get(a).expect("get"), b"persistent");
        assert_eq!(s.meta(a).expect("meta").refcount, 1);
        // The released reference count survived the restart too.
        assert_eq!(s.meta(b).expect("meta").refcount, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_recovery_scans_pack_and_loose_files() {
        let dir = temp_dir("recover");
        let (small, big);
        {
            let mut s = PackStore::open_with(&dir, loose_at(16)).expect("open");
            small = s.put(ObjectKind::Delta, b"packed one").expect("put");
            big = s.put(ObjectKind::Chunk, &[9u8; 40]).expect("put");
            s.flush().expect("flush");
        }
        std::fs::remove_file(dir.join("pack.idx")).expect("drop index");
        let s = PackStore::open_with(&dir, loose_at(16)).expect("recover");
        assert_eq!(s.get(small).expect("get"), b"packed one");
        assert_eq!(s.get(big).expect("get"), vec![9u8; 40]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_compacts_pack_and_unlinks_loose() {
        let dir = temp_dir("gc");
        let mut s = PackStore::open_with(&dir, loose_at(16)).expect("open");
        let keep = s.put(ObjectKind::Chunk, b"keep me").expect("put");
        let drop_small = s.put(ObjectKind::Delta, b"drop me").expect("put");
        let drop_big = s.put(ObjectKind::Chunk, &[1u8; 50]).expect("put");
        let before = s.pack_file_len();
        s.release(drop_small).expect("release");
        s.release(drop_big).expect("release");
        let stats = s.gc().expect("gc");
        assert_eq!(stats.collected_objects, 2);
        assert_eq!(stats.reclaimed_bytes, 7 + 50);
        assert!(s.pack_file_len() < before, "pack must shrink");
        assert_eq!(s.get(keep).expect("survivor"), b"keep me");
        assert!(matches!(s.get(drop_small), Err(StoreError::Missing { .. })));
        assert!(!dir.join("objects").join(drop_big.to_string()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_index_recovers_appended_records_and_truncates_torn_tail() {
        let dir = temp_dir("tail");
        let (indexed, unindexed);
        {
            let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
            indexed = s.put(ObjectKind::Chunk, b"indexed object").expect("put");
            s.flush().expect("flush");
            // Appended after the last index write (simulates a crash
            // before flush) ...
            unindexed = s.put(ObjectKind::Delta, b"appended later").expect("put");
            // ... and Drop would persist the index, so put the stale one back.
            let stale = std::fs::read(dir.join("pack.idx")).expect("read idx");
            drop(s);
            std::fs::write(dir.join("pack.idx"), stale).expect("restore stale idx");
        }
        // A torn half-written record at the very end.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("pack.dsv"))
                .expect("open pack");
            f.write_all(b"torn").expect("append garbage");
        }
        let s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("reopen");
        assert_eq!(s.get(indexed).expect("indexed"), b"indexed object");
        assert_eq!(s.get(unindexed).expect("recovered"), b"appended later");
        assert_eq!(s.meta(unindexed).expect("meta").refcount, 1);
        // The torn tail was truncated: appends land on a valid boundary.
        let mut s = s;
        let fresh = s.put(ObjectKind::Chunk, b"post-recovery").expect("put");
        assert_eq!(s.get(fresh).expect("get"), b"post-recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_index_entry_triggers_rebuild_with_refcount_carryover() {
        let dir = temp_dir("badidx");
        let (victim, other);
        {
            let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
            victim = s.put(ObjectKind::Chunk, b"victim").expect("put");
            other = s.put(ObjectKind::Delta, b"bystander").expect("put");
            s.retain(other).expect("retain");
            s.flush().expect("flush");
        }
        // Blow up the first entry's length field (bytes 24..32 after the
        // 24-byte header and 16-byte id). The index no longer matches the
        // pack, so open must treat it as stale and rebuild — not refuse.
        let mut idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        idx[IDX_HEADER + 24..IDX_HEADER + 32].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(dir.join("pack.idx"), idx).expect("write idx");
        let s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("rebuild");
        assert_eq!(s.get(victim).expect("get"), b"victim");
        assert_eq!(s.get(other).expect("get"), b"bystander");
        // Refcounts carried over from the (parseable) stale entries.
        assert_eq!(s.meta(other).expect("meta").refcount, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_index_header_is_still_invalid_format() {
        let dir = temp_dir("badhdr");
        {
            let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
            s.put(ObjectKind::Chunk, b"victim").expect("put");
            s.flush().expect("flush");
        }
        let mut idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        idx[..8].copy_from_slice(b"NOTANIDX");
        std::fs::write(dir.join("pack.idx"), idx).expect("write idx");
        assert!(matches!(
            PackStore::open_with(&dir, loose_at(1 << 20)),
            Err(StoreError::InvalidFormat { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflated_index_count_is_invalid_format_not_a_panic() {
        let dir = temp_dir("bigcount");
        {
            let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
            s.put(ObjectKind::Chunk, b"victim").expect("put");
            s.flush().expect("flush");
        }
        // One real 40-byte entry under a count of 2^61 + 1: the unchecked
        // `24 + count * 40` wraps to exactly the 64-byte file length.
        let mut idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        assert_eq!(idx.len(), 64);
        idx[8..16].copy_from_slice(&((1u64 << 61) + 1).to_le_bytes());
        std::fs::write(dir.join("pack.idx"), idx).expect("write idx");
        assert!(matches!(
            PackStore::open_with(&dir, loose_at(1 << 20)),
            Err(StoreError::InvalidFormat { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_one_store_is_refused_by_version() {
        for (file, version, old, current) in [
            ("pack.dsv", 1, b"DSVPACK1", PACK_MAGIC),
            ("pack.idx", 1, b"DSVIDX01", IDX_MAGIC),
            ("pack.dsv", 2, b"DSVPACK2", PACK_MAGIC),
            ("pack.idx", 2, b"DSVIDX02", IDX_MAGIC),
        ] {
            let dir = temp_dir("vold");
            {
                let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
                s.put(ObjectKind::Chunk, b"old format").expect("put");
                s.flush().expect("flush");
            }
            let path = dir.join(file);
            let mut bytes = std::fs::read(&path).expect("read");
            assert_eq!(&bytes[..8], current);
            bytes[..8].copy_from_slice(old);
            std::fs::write(&path, bytes).expect("write");
            match PackStore::open_with(&dir, loose_at(1 << 20)) {
                Err(StoreError::InvalidFormat { detail }) => {
                    assert!(detail.contains(&format!("version-{version}")), "{detail}");
                    assert!(
                        detail.contains(std::str::from_utf8(old).unwrap()),
                        "{detail}"
                    );
                }
                other => panic!("{file} at version {version} must be refused, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_tail_with_wrapping_length_is_truncated() {
        let dir = temp_dir("wraplen");
        let (kept, covered);
        {
            let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
            kept = s.put(ObjectKind::Chunk, b"indexed object").expect("put");
            s.flush().expect("flush");
            covered = s.pack_file_len();
        }
        // An unindexed record header whose length makes
        // `offset + header + len` wrap to 0, followed by a few bytes.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("pack.dsv"))
                .expect("open pack");
            let mut rec = Vec::new();
            rec.extend_from_slice(&[0xAB; 16]);
            rec.push(ObjectKind::Chunk.tag());
            rec.extend_from_slice(&0u64.wrapping_sub(covered + RECORD_HEADER).to_le_bytes());
            rec.extend_from_slice(b"torn payload");
            f.write_all(&rec).expect("append torn record");
        }
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("reopen");
        assert_eq!(s.pack_file_len(), covered, "torn record truncated away");
        assert_eq!(s.get(kept).expect("indexed"), b"indexed object");
        let fresh = s.put(ObjectKind::Delta, b"post-recovery").expect("put");
        assert_eq!(s.get(fresh).expect("get"), b"post-recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_restores_packed_and_loose_objects_in_place() {
        let dir = temp_dir("repair");
        let mut s = PackStore::open_with(&dir, loose_at(16)).expect("open");
        let packed = s.put(ObjectKind::Chunk, b"small").expect("put");
        let loose_bytes = vec![5u8; 64];
        let loose = s.put(ObjectKind::Chunk, &loose_bytes).expect("put");
        s.retain(packed).expect("retain");

        // Corrupt both on disk.
        let Some(ObjectLocation::Packed { payload_offset, .. }) = s.locate(packed) else {
            panic!("expected packed");
        };
        let mut f = OpenOptions::new()
            .write(true)
            .open(s.pack_path())
            .expect("open pack");
        f.seek(SeekFrom::Start(payload_offset)).expect("seek");
        f.write_all(&[b's' ^ 0xFF]).expect("write");
        drop(f);
        let Some(ObjectLocation::Loose { path }) = s.locate(loose) else {
            panic!("expected loose");
        };
        let mut corrupted = loose_bytes.clone();
        corrupted[0] ^= 0xFF;
        std::fs::write(&path, &corrupted).expect("corrupt loose");

        assert!(matches!(s.get(packed), Err(StoreError::Corrupt { .. })));
        assert!(matches!(s.get(loose), Err(StoreError::Corrupt { .. })));

        s.repair(packed, ObjectKind::Chunk, b"small")
            .expect("repair");
        s.repair(loose, ObjectKind::Chunk, &loose_bytes)
            .expect("repair");
        assert_eq!(s.get(packed).expect("healed"), b"small");
        assert_eq!(s.get(loose).expect("healed"), loose_bytes);
        assert_eq!(s.meta(packed).expect("meta").refcount, 2, "rc preserved");

        // The repair survives flush + reopen (rebuilds adopt the newer
        // record), and GC drops the orphaned corrupt record.
        s.flush().expect("flush");
        drop(s);
        let mut s = PackStore::open_with(&dir, loose_at(16)).expect("reopen");
        assert_eq!(s.get(packed).expect("still healed"), b"small");
        s.release(packed).expect("release");
        s.release(packed).expect("release");
        s.release(loose).expect("release");
        s.gc().expect("gc");
        assert_eq!(s.get(loose).err(), Some(StoreError::Missing { id: loose }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_repair_bytes_are_rejected_untouched() {
        let dir = temp_dir("badrepair");
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
        let id = s.put(ObjectKind::Chunk, b"original").expect("put");
        assert!(matches!(
            s.repair(id, ObjectKind::Chunk, b"imposter"),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(s.get(id).expect("intact"), b"original");
        let ghost = hash_object(ObjectKind::Delta, b"ghost");
        assert!(matches!(
            s.repair(ghost, ObjectKind::Delta, b"ghost"),
            Err(StoreError::Missing { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_crash_poisons_store_and_skips_exit_index_write() {
        let dir = temp_dir("crashpoison");
        let idx_before;
        {
            let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
            s.put(ObjectKind::Chunk, b"acknowledged").expect("put");
            s.flush().expect("flush");
            idx_before = std::fs::read(dir.join("pack.idx")).expect("read idx");
            s.arm_crash(CrashPoint::PackAppend);
            assert!(matches!(
                s.put(ObjectKind::Chunk, b"torn away"),
                Err(StoreError::Io { .. })
            ));
            assert!(s.crashed());
            // Every later op fails until reopen.
            assert!(s.put(ObjectKind::Chunk, b"more").is_err());
            assert!(s.flush().is_err());
            assert!(s.gc().is_err());
        }
        // Drop must NOT have rewritten the index (the process "died").
        let idx_after = std::fs::read(dir.join("pack.idx")).expect("read idx");
        assert_eq!(idx_before, idx_after);
        // Reopen recovers: the torn tail is truncated, the acknowledged
        // object survives.
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("reopen");
        let id = hash_object(ObjectKind::Chunk, b"acknowledged");
        assert_eq!(s.get(id).expect("survivor"), b"acknowledged");
        let fresh = s.put(ObjectKind::Chunk, b"post-crash").expect("put");
        assert_eq!(s.get(fresh).expect("get"), b"post-crash");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_pack_bytes_surface_a_typed_error() {
        let dir = temp_dir("corrupt");
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("open");
        let id = s.put(ObjectKind::Chunk, b"fragile payload").expect("put");
        let Some(ObjectLocation::Packed { payload_offset, .. }) = s.locate(id) else {
            panic!("expected a packed object");
        };
        // Flip one payload byte on disk.
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(s.pack_path())
            .expect("open pack");
        f.seek(SeekFrom::Start(payload_offset)).expect("seek");
        let mut byte = [0u8; 1];
        f.read_exact(&mut byte).expect("read");
        f.seek(SeekFrom::Start(payload_offset)).expect("seek");
        f.write_all(&[byte[0] ^ 0xFF]).expect("write");
        drop(f);
        assert!(matches!(s.get(id), Err(StoreError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store of `n` small packed objects, flushed and checkpointed.
    fn populated(dir: &Path, n: usize) -> (PackStore, Vec<ObjectId>) {
        let mut s = PackStore::open_with(dir, loose_at(1 << 20)).expect("open");
        let ids = (0..n)
            .map(|i| {
                s.put(ObjectKind::Chunk, format!("object {i}").as_bytes())
                    .expect("put")
            })
            .collect();
        s.flush().expect("flush");
        (s, ids)
    }

    #[test]
    fn flush_appends_one_journal_record_and_reopen_replays_it() {
        let dir = temp_dir("journal");
        let (mut s, ids) = populated(&dir, 64);
        let idx_before = std::fs::read(dir.join("pack.idx")).expect("read idx");
        let len_before = s.pack_file_len();
        s.retain(ids[3]).expect("retain");
        s.retain(ids[3]).expect("retain");
        s.release(ids[5]).expect("release");
        s.flush().expect("flush");
        // Two changed entries: one record holding a count and two entries.
        assert_eq!(
            s.pack_file_len() - len_before,
            RECORD_HEADER + (JOURNAL_HEADER + 2 * IDX_ENTRY) as u64
        );
        let idx_after = std::fs::read(dir.join("pack.idx")).expect("read idx");
        assert_eq!(
            idx_before, idx_after,
            "a small flush must not rewrite the index"
        );
        // A flush with nothing changed writes nothing.
        s.flush().expect("idle flush");
        assert_eq!(
            s.pack_file_len() - len_before,
            RECORD_HEADER + (JOURNAL_HEADER + 2 * IDX_ENTRY) as u64
        );
        drop(s);
        // Put back the checkpoint from before the journal, as if the
        // process died before its exit checkpoint: replay restores both.
        std::fs::write(dir.join("pack.idx"), idx_after).expect("restore idx");
        let s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("reopen");
        assert_eq!(s.meta(ids[3]).expect("meta").refcount, 3);
        assert_eq!(s.meta(ids[5]).expect("meta").refcount, 0);
        assert_eq!(s.meta(ids[4]).expect("meta").refcount, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_follow_the_journal_volume() {
        let dir = temp_dir("cadence");
        let (mut s, ids) = populated(&dir, 100);
        // Half the 4024-byte index is 2012 bytes, and a one-entry journal
        // record is 73 bytes: every 28th flush checkpoints.
        assert_eq!(s.index_len(), 4024);
        let mut checkpoints = 0;
        for i in 0..90 {
            s.retain(ids[i % ids.len()]).expect("retain");
            s.flush().expect("flush");
            if s.covered == s.pack_file_len() {
                checkpoints += 1;
                assert_eq!(s.journal_bytes, 0);
            }
            assert!(2 * s.journal_bytes <= s.index_len());
        }
        assert_eq!(checkpoints, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_replays_journals_for_exact_refcounts() {
        let dir = temp_dir("noidx");
        let (mut s, ids) = populated(&dir, 8);
        s.retain(ids[0]).expect("retain");
        s.retain(ids[0]).expect("retain");
        s.release(ids[1]).expect("release");
        s.flush().expect("flush");
        let unflushed = s.put(ObjectKind::Delta, b"never journaled").expect("put");
        drop(s);
        std::fs::remove_file(dir.join("pack.idx")).expect("drop index");
        let s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("rebuild");
        assert_eq!(s.meta(ids[0]).expect("meta").refcount, 3);
        assert_eq!(s.meta(ids[1]).expect("meta").refcount, 0);
        assert_eq!(s.meta(ids[2]).expect("meta").refcount, 1);
        assert_eq!(s.meta(unflushed).expect("meta").refcount, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_index_prefers_journals_past_its_checkpoint() {
        let dir = temp_dir("stalejournal");
        let (mut s, ids) = populated(&dir, 20);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        // Journaled before the checkpoint below: the index agrees.
        s.retain(a).expect("retain");
        s.flush().expect("flush");
        // Never journaled: only the exit checkpoint holds b's count, so
        // replaying the older journals alone would roll it back to 1.
        s.retain(b).expect("retain");
        drop(s);
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("reopen");
        // Journaled past the checkpoint: newer than the index.
        s.retain(c).expect("retain");
        s.retain(c).expect("retain");
        s.flush().expect("flush");
        assert!(
            s.covered < s.pack_file_len(),
            "the journal is past the index"
        );
        let idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        drop(s);
        // Restore that checkpoint with one entry's length blown up: the
        // index no longer matches the pack and open must rebuild.
        let mut idx = idx;
        idx[IDX_HEADER + 24..IDX_HEADER + 32].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(dir.join("pack.idx"), idx).expect("write idx");
        let s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("rebuild");
        assert_eq!(s.meta(a).expect("meta").refcount, 2);
        assert_eq!(
            s.meta(b).expect("meta").refcount,
            2,
            "index over older journals"
        );
        assert_eq!(
            s.meta(c).expect("meta").refcount,
            3,
            "newer journal over index"
        );
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.get(id).expect("get"), format!("object {i}").as_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotten_record_past_the_checkpoint_does_not_truncate_later_ones() {
        let dir = temp_dir("rotten");
        let (mut s, _) = populated(&dir, 20);
        let idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        let x = s.put(ObjectKind::Chunk, b"rots at rest").expect("put");
        s.flush().expect("flush");
        let y = s.put(ObjectKind::Delta, b"journaled after").expect("put");
        s.retain(y).expect("retain");
        s.flush().expect("flush");
        let Some(ObjectLocation::Packed { payload_offset, .. }) = s.locate(x) else {
            panic!("expected a packed object");
        };
        drop(s);
        std::fs::write(dir.join("pack.idx"), idx).expect("restore idx");
        let mut f = OpenOptions::new()
            .write(true)
            .open(dir.join("pack.dsv"))
            .expect("open pack");
        f.seek(SeekFrom::Start(payload_offset)).expect("seek");
        f.write_all(b"R").expect("write");
        drop(f);
        let mut s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("reopen");
        // x's journal entry survives and reads as corrupt (repairable);
        // everything after it replays.
        assert!(matches!(s.get(x), Err(StoreError::Corrupt { .. })));
        s.repair(x, ObjectKind::Chunk, b"rots at rest")
            .expect("repair");
        assert_eq!(s.get(x).expect("healed"), b"rots at rest");
        assert_eq!(s.get(y).expect("replayed"), b"journaled after");
        assert_eq!(s.meta(y).expect("meta").refcount, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_compacts_away_journal_records_with_nothing_dead() {
        let dir = temp_dir("gcjournal");
        let (mut s, ids) = populated(&dir, 16);
        for &id in &ids[..4] {
            s.retain(id).expect("retain");
            s.flush().expect("flush");
        }
        let live: u64 = ids
            .iter()
            .map(|&id| RECORD_HEADER + s.meta(id).expect("meta").len)
            .sum();
        assert!(s.pack_file_len() > PACK_MAGIC.len() as u64 + live);
        let stats = s.gc().expect("gc");
        assert_eq!(stats.collected_objects, 0);
        assert_eq!(s.pack_file_len(), PACK_MAGIC.len() as u64 + live);
        // Nothing left to compact: a second gc is a no-op.
        s.gc().expect("gc");
        assert_eq!(s.pack_file_len(), PACK_MAGIC.len() as u64 + live);
        drop(s);
        let s = PackStore::open_with(&dir, loose_at(1 << 20)).expect("reopen");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.meta(id).expect("meta").refcount, 1 + u32::from(i < 4));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scan is total on damaged journals: bit flips, truncation,
    /// inflated counts (re-checksummed so the count check itself is
    /// reached) and splices of valid records all end in a prefix of
    /// whole, checked records and a torn tail — never a panic, and
    /// never an entry count the bytes do not hold.
    #[test]
    fn journal_decoding_is_total_under_damage() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let dir = temp_dir("journalfuzz");
        let (mut s, ids) = populated(&dir, 12);
        let base = s.pack_file_len();
        for round in 0..6 {
            for &id in &ids[round..round + 3] {
                s.retain(id).expect("retain");
            }
            s.flush().expect("flush");
            s.put(ObjectKind::Delta, format!("tail {round}").as_bytes())
                .expect("put");
        }
        s.flush().expect("flush");
        let pack = std::fs::read(dir.join("pack.dsv")).expect("read pack");
        let region = &pack[base as usize..];
        let (clean, end) = scan_records(region, base);
        assert_eq!(end, pack.len() as u64, "the undamaged tail scans whole");
        let journals: Vec<(usize, usize)> = clean
            .iter()
            .filter_map(|r| match r {
                Scanned::Journal { offset, bytes, .. } => {
                    Some(((offset - base) as usize, *bytes as usize))
                }
                Scanned::Object { .. } => None,
            })
            .collect();
        assert_eq!(journals.len(), 7);

        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut torn = 0;
        for case in 0..2000 {
            let mut bytes = region.to_vec();
            let (at, len) = journals[rng.gen_range(0..journals.len())];
            match case % 4 {
                0 => {
                    let bit = rng.gen_range(at * 8..(at + len) * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                1 => bytes.truncate(rng.gen_range(at..at + len)),
                2 => {
                    // Inflate the count and re-checksum the payload.
                    let payload = at + RECORD_HEADER as usize;
                    let count = [1u64 << 61, u64::MAX, rng.gen_range(0..1u64 << 20)]
                        [rng.gen_range(0..3usize)];
                    bytes[payload..payload + 8].copy_from_slice(&count.to_le_bytes());
                    let id = journal_id(&bytes[payload..at + len]);
                    bytes[at..at + 8].copy_from_slice(&id.0.to_le_bytes());
                    bytes[at + 8..at + 16].copy_from_slice(&id.1.to_le_bytes());
                }
                _ => {
                    // Splice a valid journal over another position.
                    let (from, n) = journals[rng.gen_range(0..journals.len())];
                    let rec = region[from..from + n].to_vec();
                    let to = rng.gen_range(0..bytes.len());
                    let end = (to + n).min(bytes.len());
                    bytes[to..end].copy_from_slice(&rec[..end - to]);
                }
            }
            let (records, end) = scan_records(&bytes, base);
            assert!(end <= base + bytes.len() as u64);
            // Records are in order and disjoint (a skipped rotten object
            // leaves a gap), and the valid prefix ends after the last.
            let mut pos = base;
            for r in &records {
                let (offset, size) = match r {
                    Scanned::Object { offset, len, .. } => (*offset, RECORD_HEADER + len),
                    Scanned::Journal {
                        offset,
                        bytes,
                        entries,
                    } => {
                        let body = *bytes - RECORD_HEADER - JOURNAL_HEADER as u64;
                        assert_eq!(entries.len() as u64 * IDX_ENTRY as u64, body);
                        (*offset, *bytes)
                    }
                };
                assert!(offset >= pos, "records are in order and disjoint");
                pos = offset + size;
            }
            assert!(pos <= end, "the valid prefix ends after its last record");
            torn += usize::from(end < base + bytes.len() as u64);
            // The decoder alone, without the checksum in front of it.
            let payload = &bytes[(at + RECORD_HEADER as usize).min(bytes.len())..];
            if let Ok(entries) = decode_journal(base + at as u64, payload) {
                assert_eq!(entries.len() * IDX_ENTRY + JOURNAL_HEADER, payload.len());
            }
        }
        assert!(torn > 1000, "the damage must be caught: {torn} torn tails");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Open is total on damaged v3 index headers and damaged packs: every
    /// result is a store or a typed error, never a panic, and an opened
    /// store serves only bytes that hash to their ids.
    #[test]
    fn damaged_index_headers_and_packs_open_or_fail_typed() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let dir = temp_dir("idxfuzz");
        let ids = {
            let (mut s, ids) = populated(&dir, 10);
            s.retain(ids[0]).expect("retain");
            s.flush().expect("flush");
            s.put(ObjectKind::Delta, b"unflushed").expect("put");
            let idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
            drop(s);
            // Keep the pre-exit checkpoint so the pack has a tail to replay.
            std::fs::write(dir.join("pack.idx"), idx).expect("restore idx");
            ids
        };
        let pack = std::fs::read(dir.join("pack.dsv")).expect("read pack");
        let idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        let options = PackOptions {
            loose_threshold: 1 << 20,
            durability: Durability::None,
        };
        let mut rng = SmallRng::seed_from_u64(0x1DE7);
        let (mut opened, mut refused) = (0, 0);
        for case in 0..300 {
            let (mut p, mut x) = (pack.clone(), idx.clone());
            match case % 5 {
                0 => {
                    let bit = rng.gen_range(0..IDX_HEADER * 8);
                    x[bit / 8] ^= 1 << (bit % 8);
                }
                1 => x.truncate(rng.gen_range(0..IDX_HEADER + IDX_ENTRY)),
                2 => {
                    let count = [1u64 << 61, u64::MAX, (1 << 61) + 1][rng.gen_range(0..3usize)];
                    x[8..16].copy_from_slice(&count.to_le_bytes());
                }
                3 => {
                    let covered = rng.gen_range(0..pack.len() as u64 + 64);
                    x[16..24].copy_from_slice(&covered.to_le_bytes());
                }
                _ => {
                    let bit = rng.gen_range(PACK_MAGIC.len() * 8..p.len() * 8);
                    p[bit / 8] ^= 1 << (bit % 8);
                    if rng.gen_bool(0.5) {
                        p.truncate(rng.gen_range(PACK_MAGIC.len()..p.len()));
                    }
                }
            }
            std::fs::write(dir.join("pack.dsv"), &p).expect("write pack");
            std::fs::write(dir.join("pack.idx"), &x).expect("write idx");
            match PackStore::open_with(&dir, options) {
                Ok(s) => {
                    opened += 1;
                    assert!(s.pack_file_len() <= p.len() as u64);
                    for &id in &ids {
                        if let Ok(bytes) = s.get(id) {
                            assert_eq!(hash_object(ObjectKind::Chunk, &bytes), id);
                        }
                    }
                }
                Err(StoreError::InvalidFormat { .. }) | Err(StoreError::Corrupt { .. }) => {
                    refused += 1
                }
                Err(e) => panic!("case {case}: untyped failure {e}"),
            }
        }
        assert!(
            opened > 0 && refused > 0,
            "{opened} opened, {refused} refused"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
