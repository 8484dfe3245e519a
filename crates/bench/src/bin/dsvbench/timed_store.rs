//! A [`Store`] decorator that counts calls, bytes and busy time per
//! operation kind, for the traced run's `store.*` metrics.
//!
//! Every trait method forwards to the wrapped store unchanged: `get_ref`
//! hands back the inner store's `Cow` as is (zero-copy stays zero-copy),
//! and `repair`, `retain`, `release` and `gc` pass straight through. The
//! counters are relaxed atomics because reads arrive through `&self` from
//! the checkout walker's parallel subtrees; they publish no other data.

use dsv_delta::store::{GcStats, ObjectId, ObjectKind, ObjectMeta, Store, StoreError};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The operation kinds a [`TimedStore`] accounts separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// `put`.
    Put,
    /// `get` and `get_ref`.
    Get,
    /// `retain` and `release`.
    Refcount,
    /// `repair`.
    Repair,
    /// `gc`.
    Gc,
    /// `flush`.
    Flush,
}

const OPS: usize = 6;

/// Counters of one operation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Calls made.
    pub calls: u64,
    /// Object bytes passed in (`put`, `repair`) or handed back (`get`,
    /// `get_ref`); reclaimed bytes for `gc`.
    pub bytes: u64,
    /// Wall time spent inside the wrapped store, in nanoseconds.
    pub busy_ns: u64,
}

#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

/// See the module docs.
pub struct TimedStore<S: Store> {
    inner: S,
    slots: [Slot; OPS],
}

impl<S: Store> TimedStore<S> {
    /// Wrap `inner` with all counters at zero.
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            slots: Default::default(),
        }
    }

    /// Counters of one operation kind so far.
    pub fn count(&self, op: StoreOp) -> OpCount {
        let s = &self.slots[op as usize];
        OpCount {
            calls: s.calls.load(Ordering::Relaxed),
            bytes: s.bytes.load(Ordering::Relaxed),
            busy_ns: s.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn record(&self, op: StoreOp, t0: Instant, bytes: u64) {
        let busy = t0.elapsed().as_nanos() as u64;
        let s = &self.slots[op as usize];
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(bytes, Ordering::Relaxed);
        s.busy_ns.fetch_add(busy, Ordering::Relaxed);
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn put(&mut self, kind: ObjectKind, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        let t0 = Instant::now();
        let out = self.inner.put(kind, bytes);
        self.record(StoreOp::Put, t0, bytes.len() as u64);
        out
    }

    fn get(&self, id: ObjectId) -> Result<Vec<u8>, StoreError> {
        let t0 = Instant::now();
        let out = self.inner.get(id);
        self.record(StoreOp::Get, t0, out.as_ref().map_or(0, |b| b.len() as u64));
        out
    }

    fn get_ref(&self, id: ObjectId) -> Result<Cow<'_, [u8]>, StoreError> {
        let t0 = Instant::now();
        let out = self.inner.get_ref(id);
        self.record(StoreOp::Get, t0, out.as_ref().map_or(0, |b| b.len() as u64));
        out
    }

    fn meta(&self, id: ObjectId) -> Option<ObjectMeta> {
        self.inner.meta(id)
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.inner.contains(id)
    }

    fn retain(&mut self, id: ObjectId) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let out = self.inner.retain(id);
        self.record(StoreOp::Refcount, t0, 0);
        out
    }

    fn release(&mut self, id: ObjectId) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let out = self.inner.release(id);
        self.record(StoreOp::Refcount, t0, 0);
        out
    }

    fn gc(&mut self) -> Result<GcStats, StoreError> {
        let t0 = Instant::now();
        let out = self.inner.gc();
        self.record(
            StoreOp::Gc,
            t0,
            out.as_ref().map_or(0, |s| s.reclaimed_bytes),
        );
        out
    }

    fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let out = self.inner.flush();
        self.record(StoreOp::Flush, t0, 0);
        out
    }

    fn repair(&mut self, id: ObjectId, kind: ObjectKind, bytes: &[u8]) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let out = self.inner.repair(id, kind, bytes);
        self.record(StoreOp::Repair, t0, bytes.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_delta::store::MemStore;

    /// One scripted operation, applied identically to a bare store and to
    /// the decorated one.
    fn script<S: Store>(s: &mut S) -> Vec<String> {
        let mut log = Vec::new();
        let a = s.put(ObjectKind::Chunk, b"alpha bytes").expect("put a");
        let b = s.put(ObjectKind::Delta, b"beta").expect("put b");
        let a2 = s
            .put(ObjectKind::Chunk, b"alpha bytes")
            .expect("dedup put a");
        log.push(format!("{a} {b} {a2}"));
        log.push(format!("{:?}", s.get(a).expect("get a")));
        log.push(format!("{:?}", s.get_ref(b).expect("get_ref b")));
        log.push(format!("{:?} {}", s.meta(a), s.contains(b)));
        s.retain(b).expect("retain b");
        s.release(b).expect("release b");
        s.release(b).expect("release b to zero");
        s.repair(a, ObjectKind::Chunk, b"alpha bytes")
            .expect("repair a");
        log.push(format!("{:?}", s.gc().expect("gc")));
        s.flush().expect("flush");
        log.push(format!("{} {}", s.object_count(), s.stored_bytes()));
        log.push(format!("{:?}", s.get(b).err()));
        log
    }

    #[test]
    fn decorator_is_transparent_and_counts_the_script() {
        let bare = script(&mut MemStore::new());
        let mut timed = TimedStore::new(MemStore::new());
        assert_eq!(
            script(&mut timed),
            bare,
            "same results through the decorator"
        );

        let calls_bytes = |op: StoreOp| {
            let c = timed.count(op);
            (c.calls, c.bytes)
        };
        assert_eq!(calls_bytes(StoreOp::Put), (3, 11 + 4 + 11));
        // get a (11 bytes), get_ref b (4 bytes), the failed get b (0).
        assert_eq!(calls_bytes(StoreOp::Get), (3, 11 + 4));
        assert_eq!(calls_bytes(StoreOp::Refcount), (3, 0));
        assert_eq!(calls_bytes(StoreOp::Repair), (1, 11));
        assert_eq!(calls_bytes(StoreOp::Gc), (1, 4));
        assert_eq!(calls_bytes(StoreOp::Flush), (1, 0));
        assert!(timed.count(StoreOp::Put).busy_ns > 0);
    }

    #[test]
    fn get_ref_stays_zero_copy() {
        let mut timed = TimedStore::new(MemStore::new());
        let id = timed.put(ObjectKind::Chunk, b"resident").expect("put");
        assert!(matches!(timed.get_ref(id), Ok(Cow::Borrowed(b"resident"))));
        assert_eq!(timed.object_count(), 1);
    }
}
