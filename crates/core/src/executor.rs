//! Plan execution: materializing solver plans against a real store.
//!
//! The solvers in this crate end at a [`StoragePlan`] — a *decision* about
//! which versions to materialize and which deltas to store. The
//! [`PlanExecutor`] turns that decision into bytes:
//!
//! 1. **Ingest** ([`PlanExecutor::ingest`]): every materialized version's
//!    payload and every stored delta's encoded bytes are written to a
//!    content-addressed [`Store`] (objects shared between plans are
//!    deduplicated and reference-counted). The payload hash of *every*
//!    version — including delta-reconstructed ones — is recorded as the
//!    ground truth. Ingest is a [`PlanExecutor::migrate`] from the empty
//!    stored plan, so the executor has one write loop: validate, put each
//!    object, and roll back every reference taken if a put fails.
//! 2. **Execute** ([`PlanExecutor::execute`]): every version is
//!    reconstructed by walking the plan's retrieval forest — decode the
//!    materialized roots, then apply stored deltas downward — and each
//!    reconstruction is hash-verified against the recorded source hash by
//!    hashing the *decoded* content directly
//!    ([`codec::hash_payload`] —
//!    no re-encoding round-trip). A mismatch is a typed
//!    [`ExecError::HashMismatch`], never a silent success.
//!
//! `execute` only *reads*, so it takes `&self`: it is a thin client of the
//! batched [`Checkout`] walker (cache off,
//! every version requested), which reconstructs independent subtrees of
//! the retrieval forest in parallel over borrowed
//! [`Store::get_ref`] bytes. [`PlanExecutor::reader`] hands out the same
//! walker for serving arbitrary version batches. `execute` hashes every
//! reconstruction; serving hashes a reconstruction only until it has
//! verified once against an unchanged chain (see [`StoredPlan`]).
//!
//! Execution also *measures*: the storage cost of the actual stored
//! objects and the retrieval cost of the actually replayed deltas, priced
//! from the decoded bytes by the same cost models that priced the graph.
//! The resulting [`ExecutionReport`] places measured next to predicted
//! [`PlanCosts`]; on an untransformed corpus the two must agree exactly
//! ([`ExecutionReport::agreement`]), which the store round-trip tests and
//! the `repro --experiment store` CI gate assert.
//!
//! The executor is generic over the backend: the in-memory
//! [`MemStore`](dsv_delta::MemStore) and the persistent
//! [`PackStore`](dsv_delta::PackStore) run the identical code path.

use crate::checkout::{Checkout, RepairTicket};
use crate::plan::{Parent, PlanCosts, StoragePlan};
use dsv_delta::store::{codec, ObjectId, ObjectKind, Store, StoreError, VersionSource};
use dsv_vgraph::{cost_add, VersionGraph};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Typed failure modes of plan execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The backend failed (I/O, missing object, corruption, bad record).
    Store(StoreError),
    /// The plan, graph, and content source do not describe the same
    /// instance (count mismatch, invalid plan).
    Mismatch {
        /// What disagreed.
        detail: String,
    },
    /// A reconstructed version's payload does not hash to the source hash
    /// recorded at ingest — the store round-trip corrupted content.
    HashMismatch {
        /// The node whose reconstruction went wrong.
        node: u32,
        /// Hash recorded at ingest.
        expected: ObjectId,
        /// Hash of the reconstructed payload.
        actual: ObjectId,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Store(e) => write!(f, "store error: {e}"),
            ExecError::Mismatch { detail } => write!(f, "plan/graph/source mismatch: {detail}"),
            ExecError::HashMismatch {
                node,
                expected,
                actual,
            } => write!(
                f,
                "version v{node} reconstructed to {actual}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StoreError> for ExecError {
    fn from(e: StoreError) -> Self {
        ExecError::Store(e)
    }
}

/// A plan whose objects live in a store: one object per version (payload
/// chunk for materialized versions, encoded delta otherwise), plus the
/// ground-truth payload hash of every version.
///
/// The stored plan owns one store reference per object entry; release them
/// via [`PlanExecutor::release`] when the plan is retired so
/// [`Store::gc`] can reclaim the bytes.
///
/// A stored plan also remembers, in memory, which delta reconstructions
/// have already hash-verified, so that serving a version does not hash
/// the same chain again on every checkout. Each delta-stored node has one
/// slot holding the full 128-bit ids it last verified against: its
/// `objects` entry, its `source_hashes` entry, its `plan.parent` entry,
/// and the `source_hashes` entry of the parent it was replayed on. A
/// [`Checkout`] walk *trusts* a node, and skips its hash, when
///
/// * it is a materialized root whose object id equals its recorded hash
///   (the store returns only bytes that hash to the id, or
///   [`StoreError::Corrupt`]), or
/// * its parent is trusted in the same walk and its slot equals the
///   node's current ids.
///
/// Every other node is hashed, and fills its slot only when the hash
/// matched and every ancestor in the walk verified. So a node hashed in a
/// walk makes its children hash too, and an edit to any of these public
/// fields re-arms the check from the edited node down. The slot names
/// the parent's recorded hash as well: the same delta object replayed on
/// the same verified content gives the same bytes, so a slot stays true
/// whatever else changes. [`PlanExecutor::execute`] always hashes.
///
/// The memo is not part of the store format. [`PlanExecutor::migrate`]
/// hands it on to the migrated plan; a clone starts with an empty one.
#[derive(Clone, Debug)]
pub struct StoredPlan {
    /// The plan that was ingested.
    pub plan: StoragePlan,
    /// Per-node stored object (chunk for materialized, delta otherwise).
    pub objects: Vec<ObjectId>,
    /// Per-node ground-truth payload hash, recorded from the source at
    /// ingest time.
    pub source_hashes: Vec<ObjectId>,
    /// Total bytes handed to the store during ingest (before dedup).
    pub ingest_bytes: u64,
    /// Wall-clock time of the ingest.
    pub ingest_wall: Duration,
    /// Verified reconstructions; see the type docs.
    pub(crate) memo: VerifyMemo,
}

impl StoredPlan {
    /// The stored plan of an empty graph: nothing stored, nothing spent.
    /// Ingest migrates from it.
    fn empty() -> Self {
        StoredPlan {
            plan: StoragePlan { parent: Vec::new() },
            objects: Vec::new(),
            source_hashes: Vec::new(),
            ingest_bytes: 0,
            ingest_wall: Duration::ZERO,
            memo: VerifyMemo::default(),
        }
    }

    /// The slot value that delta-stored node `v` verifies against in `g`
    /// (`None` for a materialized node, which the store verifies).
    pub(crate) fn slot_of(&self, g: &VersionGraph, v: u32) -> Option<Verified> {
        let v = v as usize;
        match self.plan.parent[v] {
            Parent::Materialized => None,
            Parent::Delta(e) => Some(Verified {
                object: self.objects[v],
                hash: self.source_hashes[v],
                parent: e.0,
                base: self.source_hashes[g.edge(e).src.index()],
            }),
        }
    }
}

/// One delta-stored node's verified reconstruction: the stored delta
/// `object`, replayed along plan edge `parent` onto content hashing to
/// `base`, gave content hashing to `hash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Verified {
    object: ObjectId,
    hash: ObjectId,
    parent: u32,
    base: ObjectId,
}

/// A stored plan's per-node [`Verified`] slots, shared by the concurrent
/// checkouts of one plan. A walk takes the lock twice, to read its slots
/// before it replays anything and to fill the new ones after it has
/// hashed everything, and never holds it across a replay or a hash.
#[derive(Default)]
pub(crate) struct VerifyMemo(Arc<RwLock<Vec<Option<Verified>>>>);

impl VerifyMemo {
    /// Per node of an `n`-node graph: whether the memo holds the node's
    /// current slot value, given for some nodes in `slots`.
    pub(crate) fn holds(&self, n: usize, slots: &[(u32, Verified)]) -> Vec<bool> {
        let mut holds = vec![false; n];
        let memo = self.0.read().expect("verify memo");
        for &(v, slot) in slots {
            holds[v as usize] = memo.get(v as usize) == Some(&Some(slot));
        }
        holds
    }

    /// Fill the slots of nodes that just verified.
    pub(crate) fn record(&self, fills: &[(u32, Verified)]) {
        if fills.is_empty() {
            return;
        }
        let mut memo = self.0.write().expect("verify memo");
        for &(v, slot) in fills {
            let v = v as usize;
            if v >= memo.len() {
                memo.resize(v + 1, None);
            }
            memo[v] = Some(slot);
        }
    }

    /// The same memo, for a plan migrated from this one. Slots name every
    /// id they verified against, so the new plan re-hashes exactly its
    /// changed delta-stored nodes and the subtrees below them.
    fn carry(&self) -> Self {
        VerifyMemo(Arc::clone(&self.0))
    }
}

impl Clone for VerifyMemo {
    /// An empty memo: a clone re-verifies on its first checkouts.
    fn clone(&self) -> Self {
        VerifyMemo::default()
    }
}

impl std::fmt::Debug for VerifyMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let memo = self.0.read().expect("verify memo");
        f.debug_struct("VerifyMemo")
            .field("verified", &memo.iter().flatten().count())
            .finish()
    }
}

/// Outcome of one live plan migration ([`PlanExecutor::migrate`]): how
/// much of the old stored plan survived untouched and how many bytes
/// actually moved.
#[derive(Clone, Debug, Default)]
pub struct MigrationStats {
    /// Nodes covered by the new plan.
    pub nodes: usize,
    /// Pre-existing nodes whose stored object was replaced because their
    /// plan entry changed (materialize ↔ deltify, or a different delta).
    pub changed: usize,
    /// Nodes new to the graph since the old plan was stored.
    pub added: usize,
    /// Objects inherited from the old stored plan without touching the
    /// store at all.
    pub reused: usize,
    /// Old objects whose references were released (GC can reclaim any
    /// that no other live plan shares).
    pub released: usize,
    /// Bytes handed to the store for changed and added nodes — the
    /// migration's whole write traffic, to compare against a full
    /// re-ingest's [`StoredPlan::ingest_bytes`].
    pub bytes_moved: u64,
    /// Wall-clock time of the migration.
    pub wall: Duration,
}

/// Measured-vs-predicted outcome of executing one plan.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Number of versions in the plan.
    pub versions: usize,
    /// Number of versions whose reconstruction hash-verified (always equal
    /// to `versions` on success — kept explicit for reporting).
    pub verified: usize,
    /// The plan's predicted costs, re-evaluated on the graph.
    pub predicted: PlanCosts,
    /// Costs measured from the stored bytes: storage from decoded objects,
    /// retrieval from the deltas actually replayed per version.
    pub measured: PlanCosts,
    /// Content bytes reconstructed across all versions (cost-model bytes).
    pub bytes_reconstructed: u64,
    /// Wall-clock time of the execute pass.
    pub execute_wall: Duration,
}

impl ExecutionReport {
    /// Whether measured costs equal predicted costs exactly.
    pub fn agreement(&self) -> bool {
        self.predicted == self.measured
    }

    /// Reconstruction throughput in (cost-model) bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_reconstructed as f64 / self.execute_wall.as_secs_f64().max(1e-9)
    }
}

/// Executes storage plans against a [`Store`]. See the module docs.
pub struct PlanExecutor<'s, S: Store + ?Sized> {
    store: &'s mut S,
}

impl<'s, S: Store + ?Sized> PlanExecutor<'s, S> {
    /// An executor writing to (and reading back from) `store`.
    pub fn new(store: &'s mut S) -> Self {
        PlanExecutor { store }
    }

    /// Write a plan's objects into the store and record every version's
    /// ground-truth payload hash: a [`migrate`](PlanExecutor::migrate)
    /// from the empty stored plan, so every node is added and a failed
    /// write rolls back every reference this call took.
    pub fn ingest(
        &mut self,
        g: &VersionGraph,
        plan: &StoragePlan,
        source: &dyn VersionSource,
    ) -> Result<StoredPlan, ExecError> {
        self.migrate(g, &StoredPlan::empty(), plan, source)
            .map(|(stored, _)| stored)
    }

    /// Migrate a live stored plan to `new_plan` without re-ingesting the
    /// corpus: only nodes whose plan entry differs (and nodes new to the
    /// graph) touch the store.
    ///
    /// **Retain-before-release**: every replacement object is written
    /// first; the superseded objects are released only after all writes
    /// succeed, so at no point is a live version unreadable — a reader
    /// holding `old` mid-migration still resolves every chain. If a write
    /// fails, the objects already written by this call are rolled back
    /// and `old` is left fully intact.
    ///
    /// On success the returned [`StoredPlan`] *inherits* the old plan's
    /// store references for unchanged nodes: `old` is consumed and must
    /// not be released afterwards (its changed-node references are gone,
    /// its unchanged-node references now belong to the new plan). Source
    /// hashes are plan-independent and carried over; only added nodes are
    /// hashed fresh. The new plan's `ingest_bytes`/`ingest_wall`
    /// accumulate the migration's traffic on top of the old plan's, so
    /// they stay "total bytes/time this stored plan ever cost". The new
    /// plan shares the old one's verification memo, so checkouts of
    /// unchanged chains stay hash-free and every changed delta-stored
    /// node, with the subtree below it, is hashed on its next checkout.
    pub fn migrate(
        &mut self,
        g: &VersionGraph,
        old: &StoredPlan,
        new_plan: &StoragePlan,
        source: &dyn VersionSource,
    ) -> Result<(StoredPlan, MigrationStats), ExecError> {
        let started = Instant::now();
        let n = g.n();
        if source.version_count() != n {
            return Err(ExecError::Mismatch {
                detail: format!(
                    "source has {} versions, graph has {n} nodes",
                    source.version_count()
                ),
            });
        }
        if let Err(reason) = new_plan.validate(g) {
            return Err(ExecError::Mismatch { detail: reason });
        }
        let old_n = old.plan.parent.len();
        if old_n > n || old.objects.len() != old_n || old.source_hashes.len() != old_n {
            return Err(ExecError::Mismatch {
                detail: format!(
                    "old stored plan covers {old_n} nodes ({} objects) against a graph of {n}",
                    old.objects.len()
                ),
            });
        }

        let mut stats = MigrationStats {
            nodes: n,
            ..MigrationStats::default()
        };
        let mut objects = Vec::with_capacity(n);
        let mut source_hashes = Vec::with_capacity(n);
        // Phase 1 — write every replacement object. Nothing is released
        // yet, so a failure can roll back to exactly the old state (for
        // an ingest, to an empty one).
        let mut fresh: Vec<ObjectId> = Vec::new();
        for v in 0..n {
            if v < old_n && old.plan.parent[v] == new_plan.parent[v] {
                objects.push(old.objects[v]);
                source_hashes.push(old.source_hashes[v]);
                stats.reused += 1;
                continue;
            }
            if v < old_n {
                stats.changed += 1;
                source_hashes.push(old.source_hashes[v]);
            } else {
                stats.added += 1;
            }
            let (kind, bytes) = match new_plan.parent[v] {
                Parent::Materialized => (ObjectKind::Chunk, source.payload_bytes(v as u32)),
                Parent::Delta(e) => {
                    let edge = g.edge(e);
                    (ObjectKind::Delta, source.delta(edge.src.0, edge.dst.0))
                }
            };
            stats.bytes_moved += bytes.len() as u64;
            let id = match self.store.put(kind, &bytes) {
                Ok(id) => id,
                Err(e) => {
                    // Roll back the references this call already took, or
                    // they could never be released and GC could never
                    // reclaim the bytes (refcounts persist in the on-disk
                    // backend).
                    for &id in &fresh {
                        let _ = self.store.release(id);
                    }
                    return Err(e.into());
                }
            };
            fresh.push(id);
            objects.push(id);
            if v >= old_n {
                // `Store::put` addresses a chunk by `hash_object(Chunk,
                // bytes)`, so a materialized node's source hash is the id
                // just returned; only a delta-stored node's payload is
                // hashed on the side, streamed from the decoded form.
                source_hashes.push(match kind {
                    ObjectKind::Chunk => id,
                    ObjectKind::Delta => codec::hash_payload(&source.payload(v as u32)),
                });
            }
        }
        // Phase 2 — all replacements are durable; release the superseded
        // objects so GC can reclaim exactly the dead ones.
        for v in 0..old_n {
            if old.plan.parent[v] != new_plan.parent[v] {
                self.store.release(old.objects[v])?;
                stats.released += 1;
            }
        }
        stats.wall = started.elapsed();
        Ok((
            StoredPlan {
                plan: new_plan.clone(),
                objects,
                source_hashes,
                ingest_bytes: old.ingest_bytes + stats.bytes_moved,
                ingest_wall: old.ingest_wall + stats.wall,
                memo: old.memo.carry(),
            },
            stats,
        ))
    }

    /// Drop the stored plan's references so [`Store::gc`] can reclaim
    /// objects no other live plan shares.
    pub fn release(&mut self, stored: &StoredPlan) -> Result<(), ExecError> {
        for &id in &stored.objects {
            self.store.release(id)?;
        }
        Ok(())
    }

    /// A shareable read-only [`Checkout`] over the executor's store, for
    /// serving version batches (attach a root cache with
    /// [`Checkout::with_cache`]).
    pub fn reader(&self) -> Checkout<'_, S> {
        Checkout::new(&*self.store)
    }

    /// The underlying store.
    pub fn store(&mut self) -> &mut S {
        self.store
    }

    /// Write the re-derived bytes of read-path [`RepairTicket`]s back
    /// into the store, preserving each object's refcount. Returns the
    /// number of repairs applied.
    ///
    /// Tickets for objects that have disappeared entirely
    /// ([`StoreError::Missing`] — e.g. reclaimed by a concurrent GC)
    /// are skipped: there is no entry left to heal, and the read path
    /// already served the request from the re-derived bytes.
    pub fn apply_repairs(&mut self, tickets: &[RepairTicket]) -> Result<usize, ExecError> {
        let mut applied = 0;
        for t in tickets {
            match self.store.repair(t.id, t.kind, &t.bytes) {
                Ok(()) => applied += 1,
                Err(StoreError::Missing { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(applied)
    }
}

impl<'s, S: Store + Sync + ?Sized> PlanExecutor<'s, S> {
    /// Reconstruct every version from the store, hash-verify each one, and
    /// measure storage/retrieval costs from the stored bytes.
    ///
    /// This is a read: it takes `&self` and runs the batched
    /// [`Checkout`] walker with every version requested and the cache
    /// off, so independent subtrees of the retrieval forest reconstruct
    /// in parallel over borrowed store bytes.
    pub fn execute(
        &self,
        g: &VersionGraph,
        stored: &StoredPlan,
    ) -> Result<ExecutionReport, ExecError> {
        let started = Instant::now();
        let n = g.n();
        let (stats, measure) = self.reader().verify_all(g, stored)?;
        if stats.hydrated != n {
            return Err(ExecError::Mismatch {
                detail: format!("reconstructed {} of {n} versions", stats.hydrated),
            });
        }
        let measured = PlanCosts {
            storage: measure.storage,
            total_retrieval: measure.retrievals.iter().fold(0, |a, &b| cost_add(a, b)),
            max_retrieval: measure.retrievals.iter().copied().max().unwrap_or(0),
        };
        Ok(ExecutionReport {
            versions: n,
            verified: stats.hydrated,
            predicted: stored.plan.costs(g),
            measured,
            bytes_reconstructed: measure.bytes_reconstructed,
            execute_wall: started.elapsed(),
        })
    }

    /// Ingest then execute in one call. If execution fails, the
    /// just-ingested references are rolled back before the error
    /// propagates — the caller never sees the [`StoredPlan`], so holding
    /// its references would leak them permanently (refcounts persist in
    /// the on-disk backend).
    pub fn run(
        &mut self,
        g: &VersionGraph,
        plan: &StoragePlan,
        source: &dyn VersionSource,
    ) -> Result<(StoredPlan, ExecutionReport), ExecError> {
        let stored = self.ingest(g, plan, source)?;
        match self.execute(g, &stored) {
            Ok(report) => Ok((stored, report)),
            Err(e) => {
                let _ = self.release(&stored);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Parent;
    use dsv_delta::store::codec::{encode_sketch_delta, Payload};
    use dsv_delta::{FaultStore, MemStore};
    use dsv_vgraph::NodeId;

    /// A tiny hand-rolled sketch source: three versions, chunk churn.
    struct TinySource;

    impl TinySource {
        fn manifest(v: u32) -> Vec<(u64, u32)> {
            match v {
                0 => vec![(1, 100), (2, 200)],
                1 => vec![(1, 100), (3, 300)],
                _ => vec![(1, 100), (3, 300), (4, 400)],
            }
        }
    }

    impl VersionSource for TinySource {
        fn version_count(&self) -> usize {
            3
        }
        fn payload(&self, v: u32) -> Payload {
            Payload::Sketch(Self::manifest(v))
        }
        fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
            let (a, b) = (Self::manifest(src), Self::manifest(dst));
            let removed: Vec<u64> = a
                .iter()
                .filter(|(id, _)| !b.iter().any(|(bid, _)| bid == id))
                .map(|&(id, _)| id)
                .collect();
            let added: Vec<(u64, u32)> = b
                .iter()
                .filter(|(id, _)| !a.iter().any(|(aid, _)| aid == id))
                .copied()
                .collect();
            encode_sketch_delta(&removed, &added)
        }
    }

    /// Graph matching TinySource, with edges priced by the sketch model.
    fn tiny_graph() -> (VersionGraph, StoragePlan) {
        let mut g = VersionGraph::new();
        let v0 = g.add_node(300);
        let v1 = g.add_node(400);
        let v2 = g.add_node(800);
        // 0 -> 1: remove chunk 2, add chunk 3 (300 bytes): 300 + 12*2 = 324
        let e01 = g.add_edge(v0, v1, 324, 300 + 6 * 2);
        // 1 -> 2: add chunk 4 (400 bytes): 400 + 12 = 412
        let e12 = g.add_edge(v1, v2, 412, 400 + 6);
        let plan = StoragePlan {
            parent: vec![Parent::Materialized, Parent::Delta(e01), Parent::Delta(e12)],
        };
        (g, plan)
    }

    #[test]
    fn roundtrip_verifies_and_measures_exactly() {
        let (g, plan) = tiny_graph();
        let mut store = MemStore::new();
        let mut exec = PlanExecutor::new(&mut store);
        let (stored, report) = exec.run(&g, &plan, &TinySource).expect("roundtrip");
        assert_eq!(report.verified, 3);
        assert!(report.agreement(), "{report:?}");
        assert_eq!(report.measured.storage, 300 + 324 + 412);
        assert_eq!(report.measured.total_retrieval, 312 + 312 + 406);
        assert_eq!(report.measured.max_retrieval, 312 + 406);
        assert_eq!(report.bytes_reconstructed, 300 + 400 + 800);
        // One chunk object + two delta objects.
        assert_eq!(store.object_count(), 3);
        let _ = stored;
    }

    #[test]
    fn corruption_surfaces_as_typed_error() {
        let (g, plan) = tiny_graph();
        let mut store = FaultStore::transparent(MemStore::new());
        let mut exec = PlanExecutor::new(&mut store);
        let stored = exec.ingest(&g, &plan, &TinySource).expect("ingest");
        assert!(store.corrupt_object(stored.objects[1]));
        let exec = PlanExecutor::new(&mut store);
        let err = exec.execute(&g, &stored).expect_err("corrupt delta");
        assert!(
            matches!(err, ExecError::Store(StoreError::Corrupt { .. })),
            "{err}"
        );
    }

    #[test]
    fn serve_heals_corruption_from_the_source() {
        let (g, plan) = tiny_graph();
        let mut store = FaultStore::transparent(MemStore::new());
        let mut exec = PlanExecutor::new(&mut store);
        let stored = exec.ingest(&g, &plan, &TinySource).expect("ingest");
        // Corrupt the materialized chunk AND the v1→v2 delta.
        assert!(store.corrupt_object(stored.objects[0]));
        assert!(store.corrupt_object(stored.objects[2]));

        let requests = [0, 1, 2];
        let mut exec = PlanExecutor::new(&mut store);
        let outcome = exec
            .reader()
            .with_source(&TinySource)
            .serve(&g, &stored, &requests)
            .expect("serve");
        let applied = exec.apply_repairs(&outcome.tickets).expect("repair");
        assert!(outcome.all_ok(), "{:?}", outcome.repair);
        assert_eq!(outcome.repair.detected, 2);
        assert_eq!(outcome.repair.rederived, 2);
        assert_eq!(outcome.repair.unrepairable, 0);
        assert_eq!(applied, 2);
        for (v, r) in requests.iter().zip(&outcome.results) {
            let p = r.as_ref().expect("served");
            assert_eq!(**p, TinySource.payload(*v), "byte-identical payload");
        }
        // The store itself is healed: a plain strict checkout (no
        // source attached) now succeeds, and refcounts are untouched.
        let report = PlanExecutor::new(&mut store)
            .execute(&g, &stored)
            .expect("healed store verifies");
        assert!(report.agreement());
        for &id in &stored.objects {
            assert_eq!(store.meta(id).expect("meta").refcount, 1);
        }
    }

    #[test]
    fn unrepairable_corruption_degrades_only_dependent_versions() {
        let (g, plan) = tiny_graph();
        let mut store = FaultStore::transparent(MemStore::new());
        let mut exec = PlanExecutor::new(&mut store);
        let stored = exec.ingest(&g, &plan, &TinySource).expect("ingest");
        // Corrupt the v1→v2 delta; serve WITHOUT a source. v0 and v1
        // still serve; only v2 (whose chain crosses the delta) fails.
        assert!(store.corrupt_object(stored.objects[2]));
        let exec = PlanExecutor::new(&mut store);
        let outcome = exec.reader().serve(&g, &stored, &[0, 1, 2]).expect("serve");
        assert!(outcome.results[0].is_ok());
        assert!(outcome.results[1].is_ok());
        assert!(matches!(
            outcome.results[2],
            Err(ExecError::Store(StoreError::Corrupt { .. }))
        ));
        assert_eq!(outcome.repair.detected, 1);
        assert_eq!(outcome.repair.unrepairable, 1);
        assert!(outcome.tickets.is_empty());
    }

    #[test]
    fn migrate_moves_only_changed_objects() {
        let (g, plan) = tiny_graph();
        let mut store = MemStore::new();
        let mut exec = PlanExecutor::new(&mut store);
        let (stored, _) = exec.run(&g, &plan, &TinySource).expect("roundtrip");
        // Materialize v1 instead of storing the 0→1 delta; keep the rest.
        let new_plan = StoragePlan {
            parent: vec![Parent::Materialized, Parent::Materialized, plan.parent[2]],
        };
        let (migrated, stats) = exec
            .migrate(&g, &stored, &new_plan, &TinySource)
            .expect("migrate");
        assert_eq!(stats.changed, 1);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.released, 1);
        assert_eq!(stats.added, 0);
        assert!(stats.bytes_moved < stored.ingest_bytes);
        // The migrated store still hash-verifies every version.
        let report = exec.execute(&g, &migrated).expect("verify");
        assert_eq!(report.verified, 3);
        assert!(report.agreement(), "{report:?}");
        // GC drains exactly the one dead object (the superseded delta).
        let gc = exec.store().gc().expect("gc");
        assert_eq!(gc.collected_objects, 1);
        // Byte-identical to a fresh ingest of the new plan: the store is
        // content-addressed, so equal object ids mean equal bytes.
        let mut store2 = MemStore::new();
        let fresh = PlanExecutor::new(&mut store2)
            .ingest(&g, &new_plan, &TinySource)
            .expect("fresh ingest");
        assert_eq!(migrated.objects, fresh.objects);
        assert_eq!(migrated.source_hashes, fresh.source_hashes);
    }

    #[test]
    fn failed_migration_leaves_the_old_plan_intact() {
        let (g, plan) = tiny_graph();
        let mut store = MemStore::new();
        let mut exec = PlanExecutor::new(&mut store);
        let stored = exec.ingest(&g, &plan, &TinySource).expect("ingest");
        // A plan the validator rejects: v0 routed through the 0→1 edge,
        // which enters v1, not v0.
        let bogus = StoragePlan {
            parent: vec![
                Parent::Delta(dsv_vgraph::EdgeId(0)),
                plan.parent[1],
                plan.parent[2],
            ],
        };
        let err = exec
            .migrate(&g, &stored, &bogus, &TinySource)
            .expect_err("invalid plan");
        assert!(matches!(err, ExecError::Mismatch { .. }));
        // Old plan still verifies; nothing was written or released.
        let report = exec.execute(&g, &stored).expect("old plan intact");
        assert!(report.agreement());
        assert_eq!(exec.store().object_count(), 3);
    }

    #[test]
    fn release_then_gc_reclaims_everything() {
        let (g, plan) = tiny_graph();
        let mut store = MemStore::new();
        let mut exec = PlanExecutor::new(&mut store);
        let (stored, _) = exec.run(&g, &plan, &TinySource).expect("roundtrip");
        exec.release(&stored).expect("release");
        let stats = exec.store().gc().expect("gc");
        assert_eq!(stats.collected_objects, 3);
        assert_eq!(exec.store().object_count(), 0);
    }

    #[test]
    fn wrong_source_is_rejected() {
        let (g, plan) = tiny_graph();
        struct Short;
        impl VersionSource for Short {
            fn version_count(&self) -> usize {
                1
            }
            fn payload(&self, _v: u32) -> Payload {
                Payload::Sketch(vec![])
            }
            fn delta(&self, _s: u32, _d: u32) -> Vec<u8> {
                Vec::new()
            }
        }
        let mut store = MemStore::new();
        let mut exec = PlanExecutor::new(&mut store);
        assert!(matches!(
            exec.ingest(&g, &plan, &Short),
            Err(ExecError::Mismatch { .. })
        ));
        let _ = NodeId(0);
    }
}
