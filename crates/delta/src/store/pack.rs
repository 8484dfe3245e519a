//! The persistent content-addressed backend.
//!
//! On-disk layout under the store directory:
//!
//! ```text
//! <dir>/pack.dsv     append-only pack: "DSVPACK2" magic, then records
//!                    [id 16B][kind 1B][len 8B LE][payload]
//! <dir>/pack.idx     fixed-width index: "DSVIDX02" magic, entry count,
//!                    then 40-byte entries sorted by id:
//!                    [id 16B][offset 8B][len 8B][kind 1B][pad 3B][rc 4B]
//! <dir>/objects/     loose files for large objects, named by their hex id
//! ```
//!
//! Small objects are appended to the pack; objects at or above the loose
//! threshold become individual hash-keyed files (the classic loose/packed
//! split). The index is fixed-width and sorted so an external reader can
//! binary-search it straight from an `mmap` without parsing; this crate
//! reads it eagerly into a map on open. Reference counts are persisted in
//! the index, so retain/release balances survive process restarts.
//!
//! The magics carry the format version. Ids are object hashes, so a
//! change of [`ObjectHasher`](super::ObjectHasher) is a change of format:
//! version 2 is the 4-lane word-at-a-time hash, and a version-1 store
//! (the byte-serial hash it replaced) is refused on open with a
//! [`StoreError::InvalidFormat`] naming its version. Stores are not
//! migrated; rebuild them from their source.
//!
//! [`Store::gc`] compacts: dead loose files are unlinked and the pack is
//! rewritten with only live records (then atomically swapped in), so
//! reclaimed bytes are returned to the filesystem, not just forgotten.
//!
//! # Durability
//!
//! Under [`Durability::Full`] (the default) every write site issues the
//! fsync barriers that make its atomicity real: loose files and the index
//! are written tmp → `sync_all` → rename → directory fsync, the pack file
//! is synced *before* the index that points into it, and GC persists the
//! zero refcounts *before* destroying any bytes. Acknowledgement contract:
//! a loose `put` is durable when it returns; packed `put`s are durable at
//! the next [`Store::flush`]. [`Durability::None`] skips every sync (for
//! benches and throwaway stores) while keeping the same write ordering.
//!
//! Crash consistency is tested, not assumed: [`PackStore::arm_crash`]
//! makes the next write at a chosen [`CrashPoint`] tear its bytes
//! mid-operation and poison the store, exactly as a power loss would, and
//! the crash-matrix test reopens after each point. Recovery on open cleans
//! stray tmp files, validates the index against the pack (a stale index —
//! e.g. a crash between GC's pack swap and its index write — is rebuilt
//! from the pack with reference counts carried over by id), scans back any
//! unindexed appended records, and truncates torn tails.

use super::{hash_object, GcStats, ObjectId, ObjectKind, ObjectMeta, Store, StoreError};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const PACK_MAGIC: &[u8; 8] = b"DSVPACK2";
const IDX_MAGIC: &[u8; 8] = b"DSVIDX02";
const RECORD_HEADER: u64 = 16 + 1 + 8;
const IDX_ENTRY: usize = 16 + 8 + 8 + 1 + 3 + 4;

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
    /// Mid-append of a packed record.
    PackAppend,
    /// Mid-write of a loose object's tmp file.
    LooseWrite,
    /// Mid-write of the index tmp file.
    IndexWrite,
    /// After the index tmp is written but before the rename.
    IndexRename,
    /// Mid-write of the GC-compacted pack tmp file.
    GcRewrite,
    /// After the compacted pack tmp is written but before the rename.
    GcRename,
    /// After the compacted pack is swapped in but before the final index
    /// write — the window where the on-disk index is stale.
    GcIndex,
}

impl CrashPoint {
    /// Every enumerated crash point, for matrix tests.
    pub const ALL: [CrashPoint; 7] = [
        CrashPoint::PackAppend,
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
    pack_len: u64,
    loose_threshold: u64,
    durability: Durability,
    /// Armed crash point (single-shot; see [`PackStore::arm_crash`]).
    crash: Option<CrashPoint>,
    /// Set when an armed crash point fired: the store refuses every
    /// operation and [`Drop`] skips the index write, as a dead process
    /// would.
    crashed: bool,
    /// Cached read handle for the pack file (lazily opened, invalidated
    /// when GC swaps the file), so the read path costs a seek, not an
    /// open, per object.
    reader: std::sync::Mutex<Option<File>>,
    /// Resident pack map: the whole pack file read once and kept in
    /// memory so [`Store::get_ref`] serves verified *slices* instead of
    /// allocating a `Vec` per packed read. Loaded lazily on the first
    /// `get_ref`; dropped (and lazily rebuilt) whenever the mapping could
    /// go stale — a packed append extends the file past the map, and GC
    /// compaction rewrites it with new offsets entirely.
    resident: std::sync::OnceLock<Box<[u8]>>,
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

    /// Open (or create) a store under `dir`, storing objects of at least
    /// `loose_threshold` bytes as loose files.
    pub fn open_with_threshold(
        dir: impl Into<PathBuf>,
        loose_threshold: u64,
    ) -> Result<Self, StoreError> {
        Self::open_with(
            dir,
            PackOptions {
                loose_threshold,
                ..PackOptions::default()
            },
        )
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
            pack_len: 0,
            loose_threshold: options.loose_threshold,
            durability: options.durability,
            crash: None,
            crashed: false,
            reader: std::sync::Mutex::new(None),
            resident: std::sync::OnceLock::new(),
        };
        // A crash can leave half-written tmp files anywhere we stage
        // writes; none of them is referenced by anything, so clear them
        // before reading any state.
        store.clean_stale_tmp()?;
        store.init_pack()?;
        if store.idx_path.exists() {
            let parsed = store.parse_index()?;
            if store.index_matches_pack(&parsed)? {
                store.entries = parsed.into_iter().collect();
                // Crash recovery: records appended after the index was last
                // written (put without flush) are scanned back in; a torn
                // trailing record is truncated away so future appends land
                // on a valid boundary.
                store.scan_pack_tail()?;
                // A crash mid-GC can leave dead loose entries whose files
                // were already unlinked; the unlink was the desired end
                // state, so finish the job. (A *live* loose entry with a
                // missing file is real data loss and is left to surface
                // as a read error.)
                let orphaned: Vec<ObjectId> = store
                    .entries
                    .iter()
                    .filter(|(&id, e)| {
                        e.offset == LOOSE_OFFSET
                            && e.refcount == 0
                            && !store.loose_path(id).exists()
                    })
                    .map(|(&id, _)| id)
                    .collect();
                for id in orphaned {
                    store.entries.remove(&id);
                }
            } else {
                // The index is stale — e.g. a crash landed between GC's
                // pack swap and its index write, so the entries point into
                // a pack that no longer matches. Rebuild from the pack and
                // loose directory, then carry reference counts over by id:
                // ids absent from the rebuilt state were dead and simply
                // drop out.
                let stale: BTreeMap<ObjectId, u32> =
                    parsed.into_iter().map(|(id, e)| (id, e.refcount)).collect();
                store.rebuild_index()?;
                for (id, e) in store.entries.iter_mut() {
                    if let Some(&rc) = stale.get(id) {
                        e.refcount = rc;
                    }
                }
                store.write_index()?;
            }
        } else if store.pack_len > PACK_MAGIC.len() as u64 || store.any_loose()? {
            // Recovery: no index but data exists — rebuild from the pack
            // and the loose directory. Reference counts are unknown; every
            // recovered object gets one reference.
            store.rebuild_index()?;
        }
        Ok(store)
    }

    /// Arm a single-shot simulated power loss at `point`: the next write
    /// reaching that site tears its bytes mid-operation, the store marks
    /// itself crashed, and every later call fails with [`StoreError::Io`]
    /// until the caller drops the store (which skips the exit index write,
    /// as a dead process would) and reopens.
    pub fn arm_crash(&mut self, point: CrashPoint) {
        self.crash = Some(point);
    }

    /// Whether an armed crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The store's durability mode.
    pub fn durability(&self) -> Durability {
        self.durability
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

    /// Total bytes of the pack file (including dead records until the next
    /// [`Store::gc`]).
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

    /// Parse the index file into entries. A malformed header, a count that
    /// does not match the file length (checked without overflow, so an
    /// inflated count can neither wrap the check nor size an allocation),
    /// or an unknown kind tag is a hard [`StoreError::InvalidFormat`] —
    /// the file is not an index. Offsets are *not* validated here:
    /// staleness against the pack is [`Self::index_matches_pack`]'s job,
    /// and a stale index is recoverable, not fatal.
    fn parse_index(&self) -> Result<Vec<(ObjectId, Entry)>, StoreError> {
        let bytes = std::fs::read(&self.idx_path).map_err(|e| io_err("read", &self.idx_path, e))?;
        let bad = |detail: String| StoreError::InvalidFormat { detail };
        if bytes.len() < 16 {
            return Err(bad(format!("{} has a bad header", self.idx_path.display())));
        }
        check_magic(&bytes[..8], IDX_MAGIC, &self.idx_path)?;
        let claimed = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let count = usize::try_from(claimed)
            .ok()
            .filter(|&n| {
                n.checked_mul(IDX_ENTRY)
                    .and_then(|body| body.checked_add(16))
                    == Some(bytes.len())
            })
            .ok_or_else(|| {
                bad(format!(
                    "{}: {} bytes for {claimed} entries",
                    self.idx_path.display(),
                    bytes.len()
                ))
            })?;
        let mut parsed = Vec::with_capacity(count);
        for i in 0..count {
            let e = &bytes[16 + i * IDX_ENTRY..16 + (i + 1) * IDX_ENTRY];
            let id = ObjectId(
                u64::from_le_bytes(e[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(e[8..16].try_into().expect("8 bytes")),
            );
            let offset = u64::from_le_bytes(e[16..24].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(e[24..32].try_into().expect("8 bytes"));
            let kind = ObjectKind::from_tag(e[32])
                .ok_or_else(|| bad(format!("index entry {i} has kind tag {}", e[32])))?;
            let refcount = u32::from_le_bytes(e[36..40].try_into().expect("4 bytes"));
            parsed.push((
                id,
                Entry {
                    offset,
                    len,
                    kind,
                    refcount,
                },
            ));
        }
        Ok(parsed)
    }

    /// Whether a parsed index actually describes the current pack file:
    /// every packed entry must lie in bounds *and* the 16-byte record id
    /// at its offset must match. Either check failing means the index is
    /// stale (a crash window, or external corruption) and the caller must
    /// rebuild — loading it as-is could serve wrong bytes or read past
    /// EOF.
    fn index_matches_pack(&self, parsed: &[(ObjectId, Entry)]) -> Result<bool, StoreError> {
        let packed: Vec<&(ObjectId, Entry)> = parsed
            .iter()
            .filter(|(_, e)| e.offset != LOOSE_OFFSET)
            .collect();
        if packed.is_empty() {
            return Ok(true);
        }
        let mut f = File::open(&self.pack_path).map_err(|e| io_err("open", &self.pack_path, e))?;
        for (id, e) in packed {
            let end = e
                .offset
                .checked_add(RECORD_HEADER)
                .and_then(|x| x.checked_add(e.len));
            if e.offset < PACK_MAGIC.len() as u64 || end.is_none_or(|end| end > self.pack_len) {
                return Ok(false);
            }
            let mut rec_id = [0u8; 16];
            f.seek(SeekFrom::Start(e.offset))
                .and_then(|_| f.read_exact(&mut rec_id))
                .map_err(|err| io_err("read", &self.pack_path, err))?;
            let actual = ObjectId(
                u64::from_le_bytes(rec_id[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(rec_id[8..16].try_into().expect("8 bytes")),
            );
            if actual != *id {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Recover records appended after the index was last written (a crash
    /// between `put` and `flush`): scan forward from the last indexed
    /// record, verify each candidate's payload hashes to its id, and adopt
    /// it with one reference. A torn trailing record (crash mid-append) is
    /// truncated away so future appends land on a valid boundary.
    fn scan_pack_tail(&mut self) -> Result<(), StoreError> {
        let covered = self
            .entries
            .values()
            .filter(|e| e.offset != LOOSE_OFFSET)
            .map(|e| e.offset + RECORD_HEADER + e.len)
            .max()
            .unwrap_or(PACK_MAGIC.len() as u64);
        if covered >= self.pack_len {
            return Ok(());
        }
        let mut f = File::open(&self.pack_path).map_err(|e| io_err("open", &self.pack_path, e))?;
        let mut offset = covered;
        let mut truncate_at = None;
        while offset < self.pack_len {
            if self.pack_len - offset < RECORD_HEADER {
                truncate_at = Some(offset);
                break;
            }
            f.seek(SeekFrom::Start(offset))
                .map_err(|e| io_err("seek", &self.pack_path, e))?;
            let mut rec = [0u8; RECORD_HEADER as usize];
            f.read_exact(&mut rec)
                .map_err(|e| io_err("read", &self.pack_path, e))?;
            let id = ObjectId(
                u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
            );
            let kind = ObjectKind::from_tag(rec[16]);
            let len = u64::from_le_bytes(rec[17..25].try_into().expect("8 bytes"));
            // A torn or garbled length must not wrap the bound (and size
            // the payload buffer below): overflow is just another torn tail.
            let end = offset
                .checked_add(RECORD_HEADER)
                .and_then(|x| x.checked_add(len));
            let (Some(kind), Some(end)) = (kind, end.filter(|&end| end <= self.pack_len)) else {
                truncate_at = Some(offset);
                break;
            };
            let mut payload = vec![0u8; len as usize];
            f.read_exact(&mut payload)
                .map_err(|e| io_err("read", &self.pack_path, e))?;
            if hash_object(kind, &payload) != id {
                truncate_at = Some(offset);
                break;
            }
            self.entries.entry(id).or_insert(Entry {
                offset,
                len,
                kind,
                refcount: 1,
            });
            offset = end;
        }
        if let Some(at) = truncate_at {
            drop(f);
            let w = OpenOptions::new()
                .write(true)
                .open(&self.pack_path)
                .map_err(|e| io_err("open", &self.pack_path, e))?;
            w.set_len(at)
                .map_err(|e| io_err("truncate", &self.pack_path, e))?;
            self.pack_len = at;
        }
        Ok(())
    }

    /// Write the fixed-width sorted index atomically: tmp → (sync) →
    /// rename → (directory fsync). The syncs make the rename a real
    /// barrier under [`Durability::Full`] — without them the rename can
    /// land before the tmp's data and a power loss leaves a valid-looking
    /// index full of garbage.
    fn write_index(&mut self) -> Result<(), StoreError> {
        let mut out = Vec::with_capacity(16 + self.entries.len() * IDX_ENTRY);
        out.extend_from_slice(IDX_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        // BTreeMap iterates sorted by id — the binary-search invariant.
        for (id, e) in &self.entries {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&id.1.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.push(e.kind.tag());
            out.extend_from_slice(&[0u8; 3]);
            out.extend_from_slice(&e.refcount.to_le_bytes());
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
        Ok(())
    }

    /// Rebuild the in-memory index by scanning the pack and the loose
    /// directory (recovery path when `pack.idx` is missing).
    fn rebuild_index(&mut self) -> Result<(), StoreError> {
        let mut f = File::open(&self.pack_path).map_err(|e| io_err("open", &self.pack_path, e))?;
        let mut header = [0u8; 8];
        f.read_exact(&mut header)
            .map_err(|e| io_err("read", &self.pack_path, e))?;
        let mut offset = PACK_MAGIC.len() as u64;
        while offset < self.pack_len {
            let mut rec = [0u8; RECORD_HEADER as usize];
            f.read_exact(&mut rec)
                .map_err(|e| io_err("read", &self.pack_path, e))?;
            let id = ObjectId(
                u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
            );
            let kind = ObjectKind::from_tag(rec[16]).ok_or_else(|| StoreError::InvalidFormat {
                detail: format!("pack record at {offset} has kind tag {}", rec[16]),
            })?;
            let len = u64::from_le_bytes(rec[17..25].try_into().expect("8 bytes"));
            // Same bounds guard as load_index: a corrupted length field
            // must fail typed, not wrap the scan offset or seek past EOF.
            // (Payload integrity itself is re-checked on every get.)
            if offset
                .checked_add(RECORD_HEADER)
                .and_then(|x| x.checked_add(len))
                .is_none_or(|end| end > self.pack_len)
            {
                return Err(StoreError::InvalidFormat {
                    detail: format!(
                        "pack record at {offset} claims {len} bytes beyond the {} byte pack",
                        self.pack_len
                    ),
                });
            }
            self.entries.insert(
                id,
                Entry {
                    offset,
                    len,
                    kind,
                    refcount: 1,
                },
            );
            offset += RECORD_HEADER + len;
            f.seek(SeekFrom::Start(offset))
                .map_err(|e| io_err("seek", &self.pack_path, e))?;
        }
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
            let path = dirent.path();
            let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
            // Loose files carry no kind tag; recover it by matching the hash.
            let id = ObjectId(a, b);
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
    /// which packed [`Store::get_ref`] reads are verified slices. Reloaded
    /// lazily after `put`/`gc` invalidate it.
    fn resident_pack(&self) -> Result<&[u8], StoreError> {
        if let Some(bytes) = self.resident.get() {
            return Ok(bytes);
        }
        let bytes =
            std::fs::read(&self.pack_path).map_err(|e| io_err("read", &self.pack_path, e))?;
        // A concurrent reader may have raced the load and won; both read
        // the same immutable file, so either copy serves.
        let _ = self.resident.set(bytes.into_boxed_slice());
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
        let rec_id = ObjectId(
            u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
        );
        if rec_id != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("pack record at {} is for {rec_id}", e.offset),
            });
        }
        Ok(payload)
    }

    /// Append one record to the pack, returning its offset. Shared by
    /// `put` and `repair`. The append itself is not synced — packed writes
    /// are acknowledged durable at the next flush (which syncs the pack
    /// before the index pointing into it).
    fn append_record(
        &mut self,
        id: ObjectId,
        kind: ObjectKind,
        bytes: &[u8],
    ) -> Result<u64, StoreError> {
        let mut f = OpenOptions::new()
            .append(true)
            .open(&self.pack_path)
            .map_err(|e| io_err("open", &self.pack_path, e))?;
        let offset = self.pack_len;
        let mut rec = Vec::with_capacity(RECORD_HEADER as usize + bytes.len());
        rec.extend_from_slice(&id.0.to_le_bytes());
        rec.extend_from_slice(&id.1.to_le_bytes());
        rec.push(kind.tag());
        rec.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        rec.extend_from_slice(bytes);
        if self.hit_crash(CrashPoint::PackAppend) {
            // Tear the record: half its bytes land past the committed
            // length, exactly what a power loss mid-append leaves behind.
            // pack_len and the entry map are NOT updated — the record was
            // never acknowledged. Reopen truncates the torn tail.
            let _ = f.write_all(&rec[..rec.len() / 2]);
            return Err(self.crash_err(CrashPoint::PackAppend));
        }
        if let Err(e) = f.write_all(&rec) {
            // A partial append leaves garbage past pack_len; truncate
            // it away so the next put's recorded offset stays honest.
            let _ = f.set_len(self.pack_len);
            return Err(io_err("write", &self.pack_path, e));
        }
        self.pack_len += rec.len() as u64;
        // The resident map no longer covers the whole pack; drop it so
        // the next get_ref reloads one consistent snapshot. (Existing
        // offsets stay valid — the pack is append-only — so get_ref
        // additionally bounds-checks and falls back rather than ever
        // serving a slice the map does not cover.)
        self.resident = std::sync::OnceLock::new();
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
            return Ok(id);
        }
        let offset = if bytes.len() as u64 >= self.loose_threshold {
            self.write_loose(id, bytes)?;
            LOOSE_OFFSET
        } else {
            self.append_record(id, kind, bytes)?
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
            // Loose objects stay owned reads: they are the large-object
            // tail, rare on the hot path and not worth keeping resident.
            return self.get(id).map(std::borrow::Cow::Owned);
        }
        let pack = self.resident_pack()?;
        let start = e.offset as usize;
        let end = start + RECORD_HEADER as usize + e.len as usize;
        let Some(rec) = pack.get(start..end) else {
            // The record was appended after this map was loaded (the map
            // is a still-valid prefix of the append-only pack, it just
            // does not cover the tail). Serve the owned fallback.
            return self.get(id).map(std::borrow::Cow::Owned);
        };
        let rec_id = ObjectId(
            u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
        );
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
        if dead.is_empty() {
            return Ok(stats);
        }
        // Durability barrier: persist the zero refcounts *before*
        // destroying any bytes. Without this, a crash mid-GC reopens with
        // an older index whose counts say some unlinked object is live —
        // a resurrected dead record at best, a lost "live" object at
        // worst.
        if self.durable() {
            self.write_index()?;
        }
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
        // Compact the pack: rewrite only live packed records, then swap.
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
                let payload = self.read_packed(id, &e)?;
                let mut rec = Vec::with_capacity(RECORD_HEADER as usize + payload.len());
                rec.extend_from_slice(&id.0.to_le_bytes());
                rec.extend_from_slice(&id.1.to_le_bytes());
                rec.push(e.kind.tag());
                rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                rec.extend_from_slice(&payload);
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
        // The cached read handle still points at the pre-compaction file,
        // and the resident map's offsets are those of the old pack — both
        // must go, or reads after GC would serve stale bytes.
        *self.reader.lock().expect("pack reader lock") = None;
        self.resident = std::sync::OnceLock::new();
        if self.hit_crash(CrashPoint::GcIndex) {
            // The new pack is in place but the on-disk index still
            // describes the old one — the stale-index window that reopen
            // must detect and rebuild.
            return Err(self.crash_err(CrashPoint::GcIndex));
        }
        self.write_index()?;
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
        if self.durable() {
            // Pack data before the index that points into it: an index
            // entry must never outlive a power loss that its record does
            // not survive.
            let f = File::open(&self.pack_path).map_err(|e| io_err("open", &self.pack_path, e))?;
            f.sync_all()
                .map_err(|e| io_err("sync", &self.pack_path, e))?;
        }
        self.write_index()
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
            // compaction, and index rebuilds adopt the later record (the
            // pack scan inserts last-wins by offset).
            let offset = self.append_record(id, kind, bytes)?;
            let e = self.entries.get_mut(&id).expect("entry exists");
            e.offset = offset;
            e.len = bytes.len() as u64;
            e.kind = kind;
        }
        Ok(())
    }
}

impl Drop for PackStore {
    fn drop(&mut self) {
        // Best-effort index persistence; callers needing guarantees flush.
        // A crashed store writes nothing — the process it simulates died.
        if !self.crashed {
            let _ = self.write_index();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let mut s = PackStore::open_with_threshold(&dir, 16).expect("open");
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
        let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
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

        // An append invalidates the map; the next get_ref reloads one
        // snapshot covering both objects and serves slices again.
        let b = s.put(ObjectKind::Delta, b"appended object").expect("put");
        assert!(!s.resident_loaded(), "append must invalidate the map");
        assert!(matches!(s.get_ref(b).expect("new"), Cow::Borrowed(_)));
        assert_eq!(&*s.get_ref(a).expect("old"), b"first object");
        assert!(s.resident_loaded());

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
        let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
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
            let mut s = PackStore::open_with_threshold(&dir, 16).expect("open");
            a = s.put(ObjectKind::Chunk, b"persistent").expect("put");
            b = s.put(ObjectKind::Chunk, &[3u8; 100]).expect("put");
            s.release(b).expect("release");
            s.flush().expect("flush");
        }
        let s = PackStore::open_with_threshold(&dir, 16).expect("reopen");
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
            let mut s = PackStore::open_with_threshold(&dir, 16).expect("open");
            small = s.put(ObjectKind::Delta, b"packed one").expect("put");
            big = s.put(ObjectKind::Chunk, &[9u8; 40]).expect("put");
            s.flush().expect("flush");
        }
        std::fs::remove_file(dir.join("pack.idx")).expect("drop index");
        let s = PackStore::open_with_threshold(&dir, 16).expect("recover");
        assert_eq!(s.get(small).expect("get"), b"packed one");
        assert_eq!(s.get(big).expect("get"), vec![9u8; 40]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_compacts_pack_and_unlinks_loose() {
        let dir = temp_dir("gc");
        let mut s = PackStore::open_with_threshold(&dir, 16).expect("open");
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
            let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
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
        let s = PackStore::open_with_threshold(&dir, 1 << 20).expect("reopen");
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
            let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
            victim = s.put(ObjectKind::Chunk, b"victim").expect("put");
            other = s.put(ObjectKind::Delta, b"bystander").expect("put");
            s.retain(other).expect("retain");
            s.flush().expect("flush");
        }
        // Blow up the first entry's length field (bytes 24..32 after the
        // 16-byte header and 16-byte id). The index no longer matches the
        // pack, so open must treat it as stale and rebuild — not refuse.
        let mut idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        idx[16 + 24..16 + 32].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(dir.join("pack.idx"), idx).expect("write idx");
        let s = PackStore::open_with_threshold(&dir, 1 << 20).expect("rebuild");
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
            let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
            s.put(ObjectKind::Chunk, b"victim").expect("put");
            s.flush().expect("flush");
        }
        let mut idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        idx[..8].copy_from_slice(b"NOTANIDX");
        std::fs::write(dir.join("pack.idx"), idx).expect("write idx");
        assert!(matches!(
            PackStore::open_with_threshold(&dir, 1 << 20),
            Err(StoreError::InvalidFormat { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflated_index_count_is_invalid_format_not_a_panic() {
        let dir = temp_dir("bigcount");
        {
            let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
            s.put(ObjectKind::Chunk, b"victim").expect("put");
            s.flush().expect("flush");
        }
        // One real 40-byte entry under a count of 2^61 + 1: the unchecked
        // `16 + count * 40` wraps to exactly the 56-byte file length.
        let mut idx = std::fs::read(dir.join("pack.idx")).expect("read idx");
        assert_eq!(idx.len(), 56);
        idx[8..16].copy_from_slice(&((1u64 << 61) + 1).to_le_bytes());
        std::fs::write(dir.join("pack.idx"), idx).expect("write idx");
        assert!(matches!(
            PackStore::open_with_threshold(&dir, 1 << 20),
            Err(StoreError::InvalidFormat { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_one_store_is_refused_by_version() {
        for (file, v1, v2) in [
            ("pack.dsv", b"DSVPACK1", PACK_MAGIC),
            ("pack.idx", b"DSVIDX01", IDX_MAGIC),
        ] {
            let dir = temp_dir("v1");
            {
                let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
                s.put(ObjectKind::Chunk, b"old format").expect("put");
                s.flush().expect("flush");
            }
            let path = dir.join(file);
            let mut bytes = std::fs::read(&path).expect("read");
            assert_eq!(&bytes[..8], v2);
            bytes[..8].copy_from_slice(v1);
            std::fs::write(&path, bytes).expect("write");
            match PackStore::open_with_threshold(&dir, 1 << 20) {
                Err(StoreError::InvalidFormat { detail }) => {
                    assert!(detail.contains("version-1"), "{detail}");
                    assert!(
                        detail.contains(std::str::from_utf8(v1).unwrap()),
                        "{detail}"
                    );
                }
                other => panic!("{file} at version 1 must be refused, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_tail_with_wrapping_length_is_truncated() {
        let dir = temp_dir("wraplen");
        let (kept, covered);
        {
            let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
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
        let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("reopen");
        assert_eq!(s.pack_file_len(), covered, "torn record truncated away");
        assert_eq!(s.get(kept).expect("indexed"), b"indexed object");
        let fresh = s.put(ObjectKind::Delta, b"post-recovery").expect("put");
        assert_eq!(s.get(fresh).expect("get"), b"post-recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_restores_packed_and_loose_objects_in_place() {
        let dir = temp_dir("repair");
        let mut s = PackStore::open_with_threshold(&dir, 16).expect("open");
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
        let mut s = PackStore::open_with_threshold(&dir, 16).expect("reopen");
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
        let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
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
            let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
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
        let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("reopen");
        let id = hash_object(ObjectKind::Chunk, b"acknowledged");
        assert_eq!(s.get(id).expect("survivor"), b"acknowledged");
        let fresh = s.put(ObjectKind::Chunk, b"post-crash").expect("put");
        assert_eq!(s.get(fresh).expect("get"), b"post-crash");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_pack_bytes_surface_a_typed_error() {
        let dir = temp_dir("corrupt");
        let mut s = PackStore::open_with_threshold(&dir, 1 << 20).expect("open");
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
}
