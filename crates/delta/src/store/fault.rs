//! Deterministic fault injection over any [`Store`] backend.
//!
//! [`FaultStore`] is a decorator: it wraps an inner store and injects
//! faults on the way through, driven entirely by a seeded [`FaultPlan`] —
//! no OS randomness, no wall clock — so a failing schedule replays
//! byte-identically from its seed.
//!
//! Four probabilistic fault families cover the failure modes a real
//! storage tier exhibits:
//!
//! * **transient read errors** — a read fails once with [`StoreError::Io`]
//!   and succeeds on retry (a flaky disk, a dropped connection);
//! * **permanent read errors** — a read fails with [`StoreError::Io`] on
//!   every attempt until the object is [`Store::repair`]ed (a lost sector);
//! * **bit flips** — at-rest corruption. Both real backends hash-verify
//!   every read, so flipped bytes can never be *served*; what a caller
//!   observes is the verification failure, which is exactly what the
//!   decorator injects: [`StoreError::Corrupt`], cleared by repair;
//! * **put failures** — the write is rejected with [`StoreError::Io`] and
//!   the inner store is left untouched (no reference is taken).
//!
//! Probabilistic read faults are decided *per object id* (a hash of the
//! seed and the id), not per call: which objects are faulty is a fixed,
//! seed-determined subset, independent of read order — so the injected
//! fault set is reproducible even under the parallel checkout walker.
//!
//! On top of the probabilities sits one op-trace trigger, precise to the
//! operation count: [`FaultPlan::fail_nth`] fails exactly the Nth
//! operation of a kind ("fail exactly the 2nd gc"). Crashes are not the
//! decorator's job: [`PackStore::arm_crash`](super::PackStore::arm_crash)
//! tears real bytes at `PackStore`'s write sites.

use super::{splitmix64, GcStats, ObjectId, ObjectKind, ObjectMeta, Store, StoreError};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The operation kinds a [`FaultPlan`] can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// [`Store::put`].
    Put,
    /// [`Store::get`] / [`Store::get_ref`] (counted together).
    Get,
    /// [`Store::retain`].
    Retain,
    /// [`Store::release`].
    Release,
    /// [`Store::gc`].
    Gc,
    /// [`Store::flush`].
    Flush,
}

/// A seeded, declarative description of which faults to inject.
///
/// The default plan injects nothing; build one with [`FaultPlan::seeded`]
/// and the `with_*` / [`fail_nth`](Self::fail_nth) builders. All
/// probabilities are in `[0, 1]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_get: f64,
    permanent_get: f64,
    bit_flip: f64,
    put_fail: f64,
    fail_nth: Vec<(FaultOp, u64)>,
}

// Per-family salts keep the three per-object decisions independent.
const SALT_TRANSIENT: u64 = 0x7261_6e73_6965_6e74;
const SALT_PERMANENT: u64 = 0x7065_726d_616e_656e;
const SALT_BIT_FLIP: u64 = 0x6269_7466_6c69_7021;
const SALT_PUT: u64 = 0x7075_7466_6169_6c21;

/// Map a 64-bit hash onto `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The seed-determined draw for one (fault family, object) pair.
fn object_draw(seed: u64, salt: u64, id: ObjectId) -> f64 {
    unit(splitmix64(
        seed ^ salt ^ splitmix64(id.0 ^ id.1.rotate_left(32)),
    ))
}

impl FaultPlan {
    /// A plan injecting nothing (probabilities zero, no triggers), with a
    /// seed for later builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A fully transparent plan — the decorator forwards everything.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fraction of objects whose *first* read fails with a transient
    /// [`StoreError::Io`]; the retry succeeds.
    pub fn with_transient_get(mut self, p: f64) -> Self {
        self.transient_get = p;
        self
    }

    /// Fraction of objects every read of which fails with
    /// [`StoreError::Io`] until the object is repaired.
    pub fn with_permanent_get(mut self, p: f64) -> Self {
        self.permanent_get = p;
        self
    }

    /// Fraction of objects whose reads fail with [`StoreError::Corrupt`]
    /// (the observable effect of an at-rest bit flip behind hash
    /// verification) until the object is repaired.
    pub fn with_bit_flip(mut self, p: f64) -> Self {
        self.bit_flip = p;
        self
    }

    /// Probability that any given [`Store::put`] fails with
    /// [`StoreError::Io`], leaving the inner store untouched.
    pub fn with_put_failures(mut self, p: f64) -> Self {
        self.put_fail = p;
        self
    }

    /// Fail exactly the `nth` (1-based) operation of kind `op` with a
    /// targeted [`StoreError::Io`]. May be called multiple times to arm
    /// several triggers.
    pub fn fail_nth(mut self, op: FaultOp, nth: u64) -> Self {
        self.fail_nth.push((op, nth));
        self
    }

    fn nth_matches(&self, op: FaultOp, n: u64) -> bool {
        self.fail_nth.iter().any(|&(o, nth)| o == op && nth == n)
    }
}

/// Monotonic counters of what a [`FaultStore`] saw and injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `put` calls observed.
    pub puts: u64,
    /// `get`/`get_ref` calls observed.
    pub gets: u64,
    /// `retain` calls observed.
    pub retains: u64,
    /// `release` calls observed.
    pub releases: u64,
    /// `gc` calls observed.
    pub gcs: u64,
    /// `flush` calls observed.
    pub flushes: u64,
    /// Transient read errors injected.
    pub injected_transient: u64,
    /// Permanent read errors injected.
    pub injected_permanent: u64,
    /// Corruption errors injected.
    pub injected_corrupt: u64,
    /// Put failures injected.
    pub injected_put_failures: u64,
    /// [`FaultPlan::fail_nth`] triggers fired.
    pub injected_targeted: u64,
    /// [`Store::repair`] calls forwarded.
    pub repairs: u64,
}

impl FaultStats {
    /// Total read faults injected (transient + permanent + corrupt).
    pub fn injected_reads(&self) -> u64 {
        self.injected_transient + self.injected_permanent + self.injected_corrupt
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Objects whose transient fault already fired — their next read goes
    /// through (fail-then-succeed).
    tripped: BTreeSet<ObjectId>,
    /// Repaired objects: all probabilistic marks are cleared for them.
    healed: BTreeSet<ObjectId>,
    /// Objects corrupted explicitly via [`FaultStore::corrupt_object`].
    forced_corrupt: BTreeSet<ObjectId>,
    stats: FaultStats,
}

/// A fault-injecting decorator over any [`Store`]. See the module docs.
///
/// Metadata reads (`meta`, `contains`, `object_count`, `stored_bytes`)
/// pass through untouched — faults target the byte paths, which is where
/// integrity lives.
#[derive(Debug)]
pub struct FaultStore<S: Store> {
    inner: S,
    plan: FaultPlan,
    /// Interior mutability: `get`/`get_ref` take `&self` but must count
    /// ops and record fired transients.
    state: Mutex<FaultState>,
}

fn injected_io(detail: &'static str) -> StoreError {
    StoreError::Io {
        op: "fault-injection",
        path: "<fault-store>".into(),
        detail: detail.into(),
    }
}

impl<S: Store> FaultStore<S> {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultStore {
            inner,
            plan,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Wrap `inner` with a no-fault plan (useful for ingesting cleanly and
    /// arming faults afterwards with [`set_plan`](Self::set_plan)).
    pub fn transparent(inner: S) -> Self {
        Self::new(inner, FaultPlan::none())
    }

    /// Replace the fault plan. Counters and already-fired transients are
    /// kept; repaired objects stay healed.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().expect("fault state lock").stats
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped store, mutably (bypasses fault injection).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap, discarding the fault machinery.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Corrupt one stored object: every read of `id` fails with
    /// [`StoreError::Corrupt`] until the object is repaired. Returns
    /// `false` if the object is absent. This is the shared
    /// corruption-injection API for both backends (it replaces the old
    /// `MemStore::corrupt_object` backdoor).
    pub fn corrupt_object(&mut self, id: ObjectId) -> bool {
        if !self.inner.contains(id) {
            return false;
        }
        let mut st = self.state.lock().expect("fault state lock");
        st.forced_corrupt.insert(id);
        st.healed.remove(&id);
        true
    }

    /// Shared entry bookkeeping for every operation: count it, then fire
    /// the op-trace triggers. Returns the 1-based count of this op.
    fn op_gate(&self, op: FaultOp, st: &mut FaultState) -> Result<u64, StoreError> {
        let count = match op {
            FaultOp::Put => {
                st.stats.puts += 1;
                st.stats.puts
            }
            FaultOp::Get => {
                st.stats.gets += 1;
                st.stats.gets
            }
            FaultOp::Retain => {
                st.stats.retains += 1;
                st.stats.retains
            }
            FaultOp::Release => {
                st.stats.releases += 1;
                st.stats.releases
            }
            FaultOp::Gc => {
                st.stats.gcs += 1;
                st.stats.gcs
            }
            FaultOp::Flush => {
                st.stats.flushes += 1;
                st.stats.flushes
            }
        };
        if self.plan.nth_matches(op, count) {
            st.stats.injected_targeted += 1;
            return Err(injected_io("injected targeted failure"));
        }
        Ok(count)
    }

    /// The read-path fault decision for `id`. `Ok(())` means the read may
    /// proceed against the inner store.
    fn read_gate(&self, id: ObjectId) -> Result<(), StoreError> {
        let mut st = self.state.lock().expect("fault state lock");
        self.op_gate(FaultOp::Get, &mut st)?;
        // Absent objects surface the inner store's own Missing — a fault
        // on an object that does not exist would be a phantom.
        if !self.inner.contains(id) || st.healed.contains(&id) {
            return Ok(());
        }
        if st.forced_corrupt.contains(&id)
            || object_draw(self.plan.seed, SALT_BIT_FLIP, id) < self.plan.bit_flip
        {
            st.stats.injected_corrupt += 1;
            return Err(StoreError::Corrupt {
                id,
                detail: "injected bit flip".into(),
            });
        }
        if object_draw(self.plan.seed, SALT_PERMANENT, id) < self.plan.permanent_get {
            st.stats.injected_permanent += 1;
            return Err(injected_io("injected permanent read error"));
        }
        if object_draw(self.plan.seed, SALT_TRANSIENT, id) < self.plan.transient_get
            && st.tripped.insert(id)
        {
            st.stats.injected_transient += 1;
            return Err(injected_io("injected transient read error"));
        }
        Ok(())
    }
}

impl<S: Store> Store for FaultStore<S> {
    fn put(&mut self, kind: ObjectKind, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        {
            let mut st = self.state.lock().expect("fault state lock");
            let count = self.op_gate(FaultOp::Put, &mut st)?;
            // Put failures are drawn per call (puts are sequential — the
            // trait takes &mut self — so the op count is a stable clock).
            if unit(splitmix64(self.plan.seed ^ SALT_PUT ^ count)) < self.plan.put_fail {
                st.stats.injected_put_failures += 1;
                return Err(injected_io("injected put failure"));
            }
        }
        self.inner.put(kind, bytes)
    }

    fn get(&self, id: ObjectId) -> Result<Vec<u8>, StoreError> {
        self.read_gate(id)?;
        self.inner.get(id)
    }

    fn get_ref(&self, id: ObjectId) -> Result<Cow<'_, [u8]>, StoreError> {
        self.read_gate(id)?;
        self.inner.get_ref(id)
    }

    fn meta(&self, id: ObjectId) -> Option<ObjectMeta> {
        self.inner.meta(id)
    }

    fn retain(&mut self, id: ObjectId) -> Result<(), StoreError> {
        {
            let mut st = self.state.lock().expect("fault state lock");
            self.op_gate(FaultOp::Retain, &mut st)?;
        }
        self.inner.retain(id)
    }

    fn release(&mut self, id: ObjectId) -> Result<(), StoreError> {
        {
            let mut st = self.state.lock().expect("fault state lock");
            self.op_gate(FaultOp::Release, &mut st)?;
        }
        self.inner.release(id)
    }

    fn gc(&mut self) -> Result<GcStats, StoreError> {
        {
            let mut st = self.state.lock().expect("fault state lock");
            self.op_gate(FaultOp::Gc, &mut st)?;
        }
        self.inner.gc()
    }

    fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        {
            let mut st = self.state.lock().expect("fault state lock");
            self.op_gate(FaultOp::Flush, &mut st)?;
        }
        self.inner.flush()
    }

    fn repair(&mut self, id: ObjectId, kind: ObjectKind, bytes: &[u8]) -> Result<(), StoreError> {
        // Repair is the recovery path: it is never fault-injected, and it
        // clears every mark on the object before forwarding, so a repaired
        // object reads cleanly from then on.
        {
            let mut st = self.state.lock().expect("fault state lock");
            st.tripped.remove(&id);
            st.forced_corrupt.remove(&id);
            st.healed.insert(id);
            st.stats.repairs += 1;
        }
        self.inner.repair(id, kind, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{hash_object, MemStore};
    use super::*;

    #[test]
    fn transparent_plan_forwards_everything() {
        let mut s = FaultStore::transparent(MemStore::new());
        let id = s.put(ObjectKind::Chunk, b"clean").expect("put");
        assert_eq!(s.get(id).expect("get"), b"clean");
        assert_eq!(s.get_ref(id).expect("get_ref").as_ref(), b"clean");
        s.retain(id).expect("retain");
        s.release(id).expect("release");
        s.release(id).expect("release");
        assert_eq!(s.gc().expect("gc").collected_objects, 1);
        let stats = s.stats();
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.injected_reads(), 0);
    }

    #[test]
    fn transient_faults_fail_exactly_once_per_object() {
        let mut s = FaultStore::new(
            MemStore::new(),
            FaultPlan::seeded(7).with_transient_get(1.0),
        );
        let a = s.put(ObjectKind::Chunk, b"alpha").expect("put");
        let b = s.put(ObjectKind::Chunk, b"beta").expect("put");
        for id in [a, b] {
            assert!(matches!(s.get(id), Err(StoreError::Io { .. })));
            assert!(s.get(id).is_ok(), "retry must succeed");
            assert!(s.get(id).is_ok());
        }
        assert_eq!(s.stats().injected_transient, 2);
    }

    #[test]
    fn permanent_and_corrupt_marks_clear_on_repair() {
        let mut s = FaultStore::new(MemStore::new(), FaultPlan::seeded(3).with_bit_flip(1.0));
        let id = s.put(ObjectKind::Chunk, b"victim").expect("put");
        assert!(matches!(s.get(id), Err(StoreError::Corrupt { .. })));
        assert!(matches!(s.get(id), Err(StoreError::Corrupt { .. })));
        let rc_before = s.meta(id).expect("meta").refcount;
        s.repair(id, ObjectKind::Chunk, b"victim").expect("repair");
        assert_eq!(s.get(id).expect("healed"), b"victim");
        assert_eq!(s.meta(id).expect("meta").refcount, rc_before);
        assert_eq!(s.stats().repairs, 1);
    }

    #[test]
    fn targeted_nth_gc_fails_and_only_that_one() {
        let mut s = FaultStore::new(
            MemStore::new(),
            FaultPlan::seeded(0).fail_nth(FaultOp::Gc, 2),
        );
        s.gc().expect("gc 1");
        assert!(matches!(s.gc(), Err(StoreError::Io { .. })), "gc 2 fails");
        s.gc().expect("gc 3");
        assert_eq!(s.stats().injected_targeted, 1);
    }

    #[test]
    fn absent_objects_surface_missing_not_phantom_faults() {
        let s = FaultStore::new(MemStore::new(), FaultPlan::seeded(1).with_bit_flip(1.0));
        let ghost = hash_object(ObjectKind::Chunk, b"ghost");
        assert!(matches!(s.get(ghost), Err(StoreError::Missing { .. })));
    }

    #[test]
    fn put_failures_leave_inner_untouched() {
        let mut s = FaultStore::new(MemStore::new(), FaultPlan::seeded(5).with_put_failures(1.0));
        assert!(matches!(
            s.put(ObjectKind::Chunk, b"doomed"),
            Err(StoreError::Io { .. })
        ));
        assert_eq!(s.inner().object_count(), 0);
        assert_eq!(s.stats().injected_put_failures, 1);
    }
}
