//! Content-addressed storage backends: where plans meet bytes.
//!
//! The solvers in `dsv_core` decide *which* deltas to store; this module is
//! the layer that actually stores them. Every stored object — a full
//! version payload ([`ObjectKind::Chunk`]) or an encoded delta
//! ([`ObjectKind::Delta`]) — is addressed by the hash of its bytes, so
//! identical content written by different plans is stored once and
//! reference-counted.
//!
//! Two backends implement the [`Store`] trait:
//!
//! * [`MemStore`] — the in-memory corpus of earlier PRs behind the trait:
//!   objects live in a map, nothing touches disk. Used by tests and by
//!   callers that only want measured-cost verification.
//! * [`PackStore`] — the persistent backend: small objects are appended to
//!   a single pack file with a fixed-width, sorted (mmap-friendly) index;
//!   large objects become hash-keyed loose files under `objects/`.
//!   Reference counts survive reopen, and [`Store::gc`] compacts the pack,
//!   dropping every object whose count reached zero.
//!
//! The byte formats themselves (version payloads, applyable deltas with the
//! paper's exact cost model) live in [`codec`]; the bridge from synthetic
//! corpora to payload/delta bytes is [`source`].
//!
//! All failures are surfaced as the typed [`StoreError`] — notably
//! [`StoreError::Corrupt`] whenever bytes read back do not hash to the id
//! they were stored under.

pub mod codec;
pub mod fault;
pub mod pack;
pub mod source;

pub use fault::{FaultOp, FaultPlan, FaultStats, FaultStore};
pub use pack::{CrashPoint, Durability, PackOptions, PackStore};
pub use source::{CorpusContent, VersionSource};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// The content address of a stored object: a 128-bit non-cryptographic
/// hash of an object's kind and bytes (see [`ObjectHasher`]).
///
/// Not collision-resistant against adversaries, but with the corpus sizes
/// of this system (thousands of objects) accidental collisions are
/// negligible, and the hash doubles as the integrity check on every read.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64, pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({self})")
    }
}

/// What a stored object is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectKind {
    /// A full version payload (the content-addressed "chunk" of a
    /// materialized version).
    Chunk,
    /// An encoded delta transforming one version payload into another.
    Delta,
}

impl ObjectKind {
    /// Stable one-byte tag used in hashing and on-disk records.
    pub fn tag(self) -> u8 {
        match self {
            ObjectKind::Chunk => 1,
            ObjectKind::Delta => 2,
        }
    }

    /// Inverse of [`ObjectKind::tag`].
    pub fn from_tag(tag: u8) -> Option<ObjectKind> {
        match tag {
            1 => Some(ObjectKind::Chunk),
            2 => Some(ObjectKind::Delta),
            _ => None,
        }
    }
}

#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

/// Bytes per stripe: one little-endian `u64` word for each of the 4 lanes.
const STRIPE: usize = 32;

/// Updates up to this long are staged whole in the carry buffer.
const SMALL: usize = 3 * STRIPE;

/// One lane round: fold a word in with a multiply, rotate and multiply.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Fold whole stripes into the lanes (`bytes.len()` is a multiple of
/// [`STRIPE`]).
#[inline(always)]
fn fold(lanes: &mut [u64; 4], bytes: &[u8]) {
    let [mut a, mut b, mut c, mut d] = *lanes;
    for s in bytes.chunks_exact(STRIPE) {
        a = round(a, word(&s[0..]));
        b = round(b, word(&s[8..]));
        c = round(c, word(&s[16..]));
        d = round(d, word(&s[24..]));
    }
    *lanes = [a, b, c, d];
}

/// Incremental form of [`hash_object`]: feed the object bytes in any
/// number of `update` calls and `finish` yields the identical
/// [`ObjectId`]. This is what lets verification hash *streamed* content —
/// e.g. a decoded payload's canonical encoding emitted piecewise — without
/// ever materializing the full byte string.
///
/// The body is word-at-a-time: 4 independent `u64` lanes each fold one
/// little-endian word of every 32-byte stripe, so the lanes' multiply
/// chains overlap in the pipeline. Bytes short of a full stripe wait in a
/// carry buffer, which keeps the result independent of how the input is
/// split across `update` calls. `finish` folds the lanes into two halves,
/// mixes in the buffered tail, the total length and the kind tag, and
/// avalanches each half with a splitmix finalizer. All arithmetic wraps,
/// so debug and release builds agree.
#[derive(Clone, Debug)]
pub struct ObjectHasher {
    lanes: [u64; 4],
    /// The carry (`buf_len` < [`STRIPE`] bytes between calls) plus room
    /// to stage one short update behind it.
    buf: [u8; STRIPE + SMALL],
    buf_len: usize,
    len: u64,
    tag: u64,
}

impl ObjectHasher {
    /// Start hashing an object of `kind` (the kind tag seeds every lane
    /// and is mixed in again at `finish`, keeping chunk and delta
    /// namespaces disjoint).
    pub fn new(kind: ObjectKind) -> Self {
        Self::with_tag(kind.tag())
    }

    /// Start hashing under a raw record tag. Public kinds go through
    /// [`ObjectHasher::new`]; the pack's private journal tag comes here.
    pub(crate) fn with_tag(tag: u8) -> Self {
        let tag = u64::from(tag);
        let seed = splitmix64(tag);
        ObjectHasher {
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            buf: [0; STRIPE + SMALL],
            buf_len: 0,
            len: 0,
            tag,
        }
    }

    /// Absorb the next run of object bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let fill = self.buf_len;
        if bytes.len() <= SMALL {
            // Short update (the streamed-encoding case): append to the
            // carry, fold every whole stripe now in it, and move the
            // remainder to the front with one fixed-size copy.
            let end = fill + bytes.len();
            self.buf[fill..end].copy_from_slice(bytes);
            let whole = end - end % STRIPE;
            fold(&mut self.lanes, &self.buf[..whole]);
            self.buf.copy_within(whole..whole + STRIPE, 0);
            self.buf_len = end - whole;
            return;
        }
        let (head, rest) = bytes.split_at(STRIPE - fill);
        self.buf[fill..STRIPE].copy_from_slice(head);
        fold(&mut self.lanes, &self.buf[..STRIPE]);
        let whole = rest.len() - rest.len() % STRIPE;
        fold(&mut self.lanes, &rest[..whole]);
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// The content address of everything absorbed so far.
    pub fn finish(self) -> ObjectId {
        let [a, b, c, d] = self.lanes;
        // Two different lane folds, so each half depends on every lane.
        let mut h0 = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        let mut h1 = d
            .rotate_left(5)
            .wrapping_add(c.rotate_left(23))
            .wrapping_add(b.rotate_left(41))
            .wrapping_add(a.rotate_left(53));
        for lane in [a, b, c, d] {
            h0 = (h0 ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            h1 = (h1 ^ round(P3, lane)).wrapping_mul(P2).wrapping_add(P3);
        }
        // The buffered tail: whole words, then the last 0..=7 bytes
        // zero-padded (the length below tells the padding from data).
        let tail = &self.buf[..self.buf_len];
        let mut words = tail.chunks_exact(8);
        for w in &mut words {
            let k = round(0, word(w));
            h0 = (h0 ^ k).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            h1 = (h1 ^ k.rotate_left(32))
                .rotate_left(29)
                .wrapping_mul(P2)
                .wrapping_add(P3);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            let k = u64::from_le_bytes(last).wrapping_mul(P3);
            h0 = (h0 ^ k).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            h1 = (h1 ^ k.rotate_left(32))
                .rotate_left(31)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        h0 ^= self.len ^ self.tag.rotate_left(56);
        h1 ^= self.len.rotate_left(32) ^ self.tag;
        ObjectId(splitmix64(h0), splitmix64(h1 ^ h0.rotate_left(17)))
    }
}

/// Content address of an object: hash over the kind tag and the bytes.
///
/// Hashing the kind in makes chunk and delta namespaces disjoint — the same
/// byte string stored as both kinds yields two ids.
pub fn hash_object(kind: ObjectKind, bytes: &[u8]) -> ObjectId {
    let mut h = ObjectHasher::new(kind);
    h.update(bytes);
    h.finish()
}

/// Typed failure modes of a storage backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure (the persistent backend only).
    Io {
        /// What the store was doing.
        op: &'static str,
        /// The failing path.
        path: String,
        /// `std::io::Error` rendering (the error itself is not `Clone`).
        detail: String,
    },
    /// The requested object is not in the store.
    Missing {
        /// The id that failed to resolve.
        id: ObjectId,
    },
    /// Bytes read back do not hash to the id they were stored under, or a
    /// record failed to decode — on-disk (or injected) corruption.
    Corrupt {
        /// The object whose bytes are corrupt.
        id: ObjectId,
        /// What exactly failed.
        detail: String,
    },
    /// A pack or index file has a malformed header/record and cannot be
    /// opened as a store.
    InvalidFormat {
        /// What failed to parse.
        detail: String,
    },
    /// [`Store::release`] on an object whose reference count is already
    /// zero — a plan double-free, always a caller bug.
    AlreadyReleased {
        /// The over-released object.
        id: ObjectId,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "i/o error during {op} on {path}: {detail}")
            }
            StoreError::Missing { id } => write!(f, "object {id} is not in the store"),
            StoreError::Corrupt { id, detail } => write!(f, "object {id} is corrupt: {detail}"),
            StoreError::InvalidFormat { detail } => write!(f, "invalid store format: {detail}"),
            StoreError::AlreadyReleased { id } => {
                write!(f, "object {id} released more times than retained")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Metadata of one stored object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Chunk or delta.
    pub kind: ObjectKind,
    /// Payload length in bytes.
    pub len: u64,
    /// Current reference count.
    pub refcount: u32,
}

/// What a [`Store::gc`] pass reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Objects dropped (reference count was zero).
    pub collected_objects: usize,
    /// Payload bytes those objects held.
    pub reclaimed_bytes: u64,
}

/// A content-addressed, reference-counted object store.
///
/// `put` is idempotent on content: writing bytes that hash to an existing
/// id bumps that object's reference count instead of storing a second
/// copy. Every successful `put` (and every [`Store::retain`]) must be
/// balanced by a [`Store::release`] before [`Store::gc`] may reclaim the
/// object; GC only ever touches objects whose count has reached zero, so
/// an object reachable from a live (retained) plan can never be collected.
pub trait Store {
    /// Store `bytes` as an object of `kind`, returning its content address.
    /// The object's reference count is incremented (from zero on first
    /// write), so the caller owns one reference afterwards.
    fn put(&mut self, kind: ObjectKind, bytes: &[u8]) -> Result<ObjectId, StoreError>;

    /// Read an object back, verifying that the bytes still hash to `id`
    /// (a mismatch is [`StoreError::Corrupt`]).
    fn get(&self, id: ObjectId) -> Result<Vec<u8>, StoreError>;

    /// Read an object without copying when the backend can serve resident
    /// bytes: [`MemStore`] borrows straight from its object table and
    /// [`PackStore`] serves slices of its resident pack map, so the hot
    /// read path stops allocating per object. Backends without resident
    /// bytes fall back to the owned [`Store::get`]. The same integrity
    /// guarantee holds: the returned bytes hash to `id` or the read fails
    /// with [`StoreError::Corrupt`].
    fn get_ref(&self, id: ObjectId) -> Result<Cow<'_, [u8]>, StoreError> {
        self.get(id).map(Cow::Owned)
    }

    /// Metadata of an object, or `None` if absent.
    fn meta(&self, id: ObjectId) -> Option<ObjectMeta>;

    /// Whether `id` is present.
    fn contains(&self, id: ObjectId) -> bool {
        self.meta(id).is_some()
    }

    /// Add one reference to an existing object.
    fn retain(&mut self, id: ObjectId) -> Result<(), StoreError>;

    /// Drop one reference. The object stays readable until [`Store::gc`].
    fn release(&mut self, id: ObjectId) -> Result<(), StoreError>;

    /// Reclaim every object whose reference count is zero.
    fn gc(&mut self) -> Result<GcStats, StoreError>;

    /// Number of live objects.
    fn object_count(&self) -> usize;

    /// Total payload bytes of live objects.
    fn stored_bytes(&self) -> u64;

    /// Persist any buffered state (no-op for in-memory backends).
    fn flush(&mut self) -> Result<(), StoreError>;

    /// Rewrite the bytes of an *existing* object in place — the recovery
    /// half of self-healing reads. The bytes must hash to `id` under
    /// `kind` (anything else is rejected as [`StoreError::Corrupt`]
    /// without touching the store), and the object must already have an
    /// entry (repairing an absent object is [`StoreError::Missing`]).
    /// The reference count is preserved exactly.
    fn repair(&mut self, id: ObjectId, kind: ObjectKind, bytes: &[u8]) -> Result<(), StoreError>;
}

/// The in-memory backend: the synthesized corpus held behind the [`Store`]
/// trait, exactly as previous PRs held it, just content-addressed and
/// reference-counted. Nothing touches disk.
#[derive(Clone, Debug, Default)]
pub struct MemStore {
    objects: BTreeMap<ObjectId, MemObject>,
}

#[derive(Clone, Debug)]
struct MemObject {
    kind: ObjectKind,
    bytes: Vec<u8>,
    refcount: u32,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Store for MemStore {
    fn put(&mut self, kind: ObjectKind, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        let id = hash_object(kind, bytes);
        self.objects
            .entry(id)
            .and_modify(|o| o.refcount += 1)
            .or_insert_with(|| MemObject {
                kind,
                bytes: bytes.to_vec(),
                refcount: 1,
            });
        Ok(id)
    }

    fn get(&self, id: ObjectId) -> Result<Vec<u8>, StoreError> {
        self.get_ref(id).map(Cow::into_owned)
    }

    fn get_ref(&self, id: ObjectId) -> Result<Cow<'_, [u8]>, StoreError> {
        let obj = self.objects.get(&id).ok_or(StoreError::Missing { id })?;
        let actual = hash_object(obj.kind, &obj.bytes);
        if actual != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("bytes hash to {actual}"),
            });
        }
        Ok(Cow::Borrowed(obj.bytes.as_slice()))
    }

    fn meta(&self, id: ObjectId) -> Option<ObjectMeta> {
        self.objects.get(&id).map(|o| ObjectMeta {
            kind: o.kind,
            len: o.bytes.len() as u64,
            refcount: o.refcount,
        })
    }

    fn retain(&mut self, id: ObjectId) -> Result<(), StoreError> {
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or(StoreError::Missing { id })?;
        obj.refcount += 1;
        Ok(())
    }

    fn release(&mut self, id: ObjectId) -> Result<(), StoreError> {
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or(StoreError::Missing { id })?;
        if obj.refcount == 0 {
            return Err(StoreError::AlreadyReleased { id });
        }
        obj.refcount -= 1;
        Ok(())
    }

    fn gc(&mut self) -> Result<GcStats, StoreError> {
        let mut stats = GcStats::default();
        self.objects.retain(|_, o| {
            if o.refcount == 0 {
                stats.collected_objects += 1;
                stats.reclaimed_bytes += o.bytes.len() as u64;
                false
            } else {
                true
            }
        });
        Ok(stats)
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.bytes.len() as u64).sum()
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn repair(&mut self, id: ObjectId, kind: ObjectKind, bytes: &[u8]) -> Result<(), StoreError> {
        let actual = hash_object(kind, bytes);
        if actual != id {
            return Err(StoreError::Corrupt {
                id,
                detail: format!("repair bytes hash to {actual}"),
            });
        }
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or(StoreError::Missing { id })?;
        obj.kind = kind;
        obj.bytes = bytes.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_kind_separated() {
        let a = hash_object(ObjectKind::Chunk, b"hello");
        let b = hash_object(ObjectKind::Chunk, b"hello");
        assert_eq!(a, b);
        assert_ne!(a, hash_object(ObjectKind::Delta, b"hello"));
        assert_ne!(a, hash_object(ObjectKind::Chunk, b"hellp"));
        // Length is mixed in: a prefix must not collide.
        assert_ne!(
            hash_object(ObjectKind::Chunk, b""),
            hash_object(ObjectKind::Chunk, b"\0")
        );
    }

    /// Feed `bytes` through one hasher, split at `cuts` (sorted offsets).
    fn streamed(kind: ObjectKind, bytes: &[u8], cuts: &[usize]) -> ObjectId {
        let mut h = ObjectHasher::new(kind);
        let mut at = 0;
        for &cut in cuts {
            h.update(&bytes[at..cut]);
            at = cut;
        }
        h.update(&bytes[at..]);
        h.finish()
    }

    /// Deterministic pseudo-random bytes (splitmix64 stream).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = splitmix64(x);
                x as u8
            })
            .collect()
    }

    #[test]
    fn incremental_hasher_matches_one_shot() {
        // Lengths around one and two 32-byte stripes and around the
        // 96-byte short-update limit, split at every offset (alone and
        // with a second cut 33 bytes on) and byte by byte.
        for len in [0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 128, 129, 200] {
            let bytes = noise(len, len as u64);
            for kind in [ObjectKind::Chunk, ObjectKind::Delta] {
                let whole = hash_object(kind, &bytes);
                for cut in 0..=len {
                    assert_eq!(streamed(kind, &bytes, &[cut]), whole, "len {len} cut {cut}");
                    let far = (cut + 33).min(len);
                    assert_eq!(streamed(kind, &bytes, &[cut, far]), whole);
                }
                let every: Vec<usize> = (1..len).collect();
                assert_eq!(streamed(kind, &bytes, &every), whole, "len {len} bytewise");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn any_update_split_matches_hash_object(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(0usize..4096, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let chunk = hash_object(ObjectKind::Chunk, &bytes);
            let delta = hash_object(ObjectKind::Delta, &bytes);
            proptest::prop_assert_eq!(streamed(ObjectKind::Chunk, &bytes, &cuts), chunk);
            proptest::prop_assert_eq!(streamed(ObjectKind::Delta, &bytes, &cuts), delta);
            proptest::prop_assert!(chunk != delta, "kinds must not share ids");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_both_id_halves() {
        let bytes = noise(100, 9);
        let base = hash_object(ObjectKind::Chunk, &bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let id = hash_object(ObjectKind::Chunk, &flipped);
            assert!(id.0 != base.0 && id.1 != base.1, "bit {bit}");
        }
    }

    /// Pinned ids. Stored objects are addressed by these values, so a
    /// change here is an on-disk format change: bump `PACK_MAGIC` and
    /// `IDX_MAGIC` together with it.
    #[test]
    fn known_answer_ids() {
        let mib = noise(1 << 20, 0xD5F);
        let cases: [(&[u8], ObjectKind, &str); 10] = [
            (b"", ObjectKind::Chunk, "01ef36639c469264441ef472ff28deaa"),
            (b"", ObjectKind::Delta, "ec87d3fdf62177853cd4519fa264b555"),
            (b"a", ObjectKind::Chunk, "ac1f544448515d433fd5a08e316ade53"),
            (b"a", ObjectKind::Delta, "7607eefb2b5daae5f9d00023d67d40f0"),
            (
                &[0xA5; 32],
                ObjectKind::Chunk,
                "cd36d68631b4be832f6633c82402fd06",
            ),
            (
                &[0xA5; 32],
                ObjectKind::Delta,
                "c84d0b184706013ca477cffc5b7e83ab",
            ),
            (
                &[0xA5; 33],
                ObjectKind::Chunk,
                "103729dc25950cfb9ed060ad02f45b70",
            ),
            (
                &[0xA5; 33],
                ObjectKind::Delta,
                "73b3271899ef8a406476ec1257826536",
            ),
            (&mib, ObjectKind::Chunk, "53854e45efd54d0ca33cbdf82d9ca2eb"),
            (&mib, ObjectKind::Delta, "783b7e7262819203734204c0f884def2"),
        ];
        for (bytes, kind, want) in cases {
            let got = hash_object(kind, bytes).to_string();
            assert_eq!(got, want, "{} bytes as {kind:?}", bytes.len());
        }
    }

    #[test]
    fn mem_get_ref_borrows_and_verifies() {
        let mut s = MemStore::new();
        let id = s.put(ObjectKind::Chunk, b"resident bytes").expect("put");
        let bytes = s.get_ref(id).expect("get_ref");
        assert!(matches!(bytes, Cow::Borrowed(_)), "MemStore must not copy");
        assert_eq!(&*bytes, b"resident bytes");
        drop(bytes);
        s.objects.get_mut(&id).expect("present").bytes[0] ^= 0xFF;
        assert!(matches!(s.get_ref(id), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn mem_put_get_roundtrip_and_dedup() {
        let mut s = MemStore::new();
        let id1 = s.put(ObjectKind::Chunk, b"payload").expect("put");
        let id2 = s.put(ObjectKind::Chunk, b"payload").expect("put");
        assert_eq!(id1, id2);
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.meta(id1).expect("meta").refcount, 2);
        assert_eq!(s.get(id1).expect("get"), b"payload");
    }

    #[test]
    fn mem_release_and_gc() {
        let mut s = MemStore::new();
        let live = s.put(ObjectKind::Chunk, b"live").expect("put");
        let dead = s.put(ObjectKind::Delta, b"dead").expect("put");
        s.release(dead).expect("release");
        let stats = s.gc().expect("gc");
        assert_eq!(stats.collected_objects, 1);
        assert_eq!(stats.reclaimed_bytes, 4);
        assert!(s.contains(live));
        assert!(!s.contains(dead));
        // Over-release is a typed error.
        s.release(live).expect("release to zero");
        assert!(matches!(
            s.release(live),
            Err(StoreError::AlreadyReleased { .. })
        ));
    }

    #[test]
    fn mem_corruption_is_detected_and_repairable() {
        let mut s = MemStore::new();
        let id = s.put(ObjectKind::Chunk, b"precious bytes").expect("put");
        s.retain(id).expect("retain");
        s.objects.get_mut(&id).expect("present").bytes[0] ^= 0xFF;
        assert!(matches!(s.get(id), Err(StoreError::Corrupt { .. })));
        // Repair restores the bytes without touching the refcount.
        s.repair(id, ObjectKind::Chunk, b"precious bytes")
            .expect("repair");
        assert_eq!(s.get(id).expect("healed"), b"precious bytes");
        assert_eq!(s.meta(id).expect("meta").refcount, 2);
        // Wrong bytes and absent objects are typed rejections.
        assert!(matches!(
            s.repair(id, ObjectKind::Chunk, b"imposter bytes"),
            Err(StoreError::Corrupt { .. })
        ));
        let ghost = hash_object(ObjectKind::Delta, b"ghost");
        assert!(matches!(
            s.repair(ghost, ObjectKind::Delta, b"ghost"),
            Err(StoreError::Missing { .. })
        ));
    }

    #[test]
    fn missing_objects_are_typed() {
        let s = MemStore::new();
        let ghost = hash_object(ObjectKind::Chunk, b"ghost");
        assert!(matches!(s.get(ghost), Err(StoreError::Missing { .. })));
    }
}
