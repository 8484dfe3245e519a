//! Batched, cache-backed checkout: the servable read path.
//!
//! A [`StoragePlan`](crate::plan::StoragePlan) only pays off if reconstructing versions down their
//! retrieval chains is fast enough to *serve*. This module turns the
//! executor's verification walk into a read hot path:
//!
//! * [`Checkout`] takes `&self` over any [`Store`] — the read path is
//!   shareable, so many checkouts can run against one store (and one
//!   executor, via [`PlanExecutor::reader`](crate::executor::PlanExecutor::reader)).
//! * [`Checkout::serve`] serves a *batch*: it plans the union of the
//!   requested versions' retrieval chains, hydrates shared ancestor
//!   prefixes exactly once, and reconstructs the independent subtrees of
//!   that union in parallel on the rayon pool. Every requested version
//!   gets its own `Result`, so a poisoned object fails only the versions
//!   whose chains cross it.
//! * Object bytes come from [`Store::get_ref`] — borrowed slices out of
//!   `PackStore`'s resident pack map (or `MemStore`'s buffers), no
//!   per-object allocation on the packed path. Large loose objects come
//!   back owned, and the decoded root keeps that buffer as its lines'
//!   storage rather than copying it.
//! * Each subtree goes reconstruct → verify → publish. It
//!   first replays every needed delta down the subtree without hashing
//!   (a child keeps runs of its parent's line records for unchanged
//!   lines and runs of its delta's bytes for inserted ones, so a replay
//!   costs per delta op, not per line);
//!   then it walks the reconstructions in DFS order on the same thread,
//!   verifies each one against the plan's recorded `source_hashes`, and
//!   publishes it. Independent subtrees run in parallel; one chain's
//!   verifications do not, so a checkout's latency does not hinge on a
//!   second CPU being free. Nothing is served, counted or measured
//!   before it and every ancestor have verified; below a failed node
//!   nothing is reported.
//! * A reconstruction is hashed ([`codec::hash_payload`], over the
//!   *decoded* content, no `encode_payload` round-trip) until it has
//!   verified once against an unchanged chain. The [`StoredPlan`] keeps a
//!   slot per node naming the ids it verified against, and a node whose
//!   parent is trusted in the same walk and whose slot still names its
//!   current ids is trusted without a hash; a materialized root is
//!   trusted when its object id equals its recorded hash. Both rest on
//!   the [`Store::get_ref`] contract: the returned bytes hash to the
//!   requested id, or the read fails with [`StoreError::Corrupt`]. A
//!   node hashed in a walk makes its children hash too, so an edit to a
//!   plan's objects, hashes or parents re-arms the check from the edited
//!   node down. [`CheckoutStats::hashed`] counts the hashes of a call.
//! * A [`CheckoutCache`] holds decoded materialized roots keyed by their
//!   object id, which for a root is its recorded content hash. The paper
//!   prices a root's retrieval at zero and charges only the deltas below
//!   it; reading, hashing and decoding a megabyte root per request costs
//!   the opposite, so a walk that reaches a materialized root looks it up
//!   first. Only a root whose read verified (by the store, or by the
//!   repair path's hash check) and whose decode succeeded is admitted, so
//!   a hit is trusted on the same grounds as a fresh read and the nodes
//!   below it keep their memo. Keys are content addresses, so a hit can
//!   never serve wrong bytes and the cache needs no invalidation when
//!   plans change.
//!
//! `PlanExecutor::execute` is a thin client of the same walker (in
//! measure mode: cache off, every version requested), so the verification
//! path inherits the batched walk, borrowed reads, and direct hashing.

use crate::executor::{ExecError, StoredPlan, Verified};
use crate::plan::Parent;
use crate::retry::RetryPolicy;
use dsv_delta::store::codec::{self, Payload};
use dsv_delta::store::{hash_object, ObjectId, ObjectKind, Store, StoreError, VersionSource};
use dsv_vgraph::{cost_add, Cost, VersionGraph};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Monotonic counters of one [`CheckoutCache`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident payload.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Payloads accepted into the cache.
    pub admitted: u64,
    /// Payloads refused because they are larger than the whole cache.
    pub rejected: u64,
    /// Payloads evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Linked-list sentinel for the LRU order.
const NIL: usize = usize::MAX;

struct Slot {
    key: ObjectId,
    payload: Arc<Payload>,
    bytes: u64,
    prev: usize,
    next: usize,
}

struct CacheInner {
    map: HashMap<ObjectId, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    used_bytes: u64,
    stats: CacheStats,
}

impl CacheInner {
    fn detach(&mut self, i: usize) {
        let (prev, next) = {
            let s = self.slots[i].as_ref().expect("live slot");
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("live slot").next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.slots[x].as_mut().expect("live slot").prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        {
            let s = self.slots[i].as_mut().expect("live slot");
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("live slot").prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// A byte-bounded LRU of decoded materialized roots, keyed by object id,
/// shared across threads (all methods take `&self`).
///
/// [`Checkout::serve`] consults it only where a walk reaches a
/// materialized root whose object id equals its recorded hash, and
/// admits a root only after its bytes verified and decoded. A root's
/// object id is the hash of its content, so a hit is byte-correct by
/// construction and the cache never needs invalidating — stale entries
/// merely age out.
pub struct CheckoutCache {
    capacity_bytes: u64,
    inner: Mutex<CacheInner>,
}

impl CheckoutCache {
    /// A cache holding at most `capacity_bytes` of decoded roots (priced
    /// by [`Payload::content_size`]).
    pub fn new(capacity_bytes: u64) -> Self {
        CheckoutCache {
            capacity_bytes,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                used_bytes: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Content bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().expect("cache lock").used_bytes
    }

    /// Number of resident roots.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters (survive [`clear`](Self::clear)).
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }

    /// Drop every resident root, keeping the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.slots.clear();
        inner.free.clear();
        inner.head = NIL;
        inner.tail = NIL;
        inner.used_bytes = 0;
    }

    /// Look up a root by object id, refreshing its recency.
    pub fn get(&self, key: ObjectId) -> Option<Arc<Payload>> {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.map.get(&key).copied() {
            Some(i) => {
                inner.detach(i);
                inner.push_front(i);
                inner.stats.hits += 1;
                Some(Arc::clone(
                    &inner.slots[i].as_ref().expect("live slot").payload,
                ))
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    fn admit(&self, key: ObjectId, payload: Arc<Payload>) {
        let bytes = payload.content_size();
        if bytes > self.capacity_bytes {
            self.inner.lock().expect("cache lock").stats.rejected += 1;
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(i) = inner.map.get(&key).copied() {
            // Another thread admitted the same content first; just
            // refresh recency.
            inner.detach(i);
            inner.push_front(i);
            return;
        }
        let slot = Slot {
            key,
            payload,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let i = match inner.free.pop() {
            Some(i) => {
                inner.slots[i] = Some(slot);
                i
            }
            None => {
                inner.slots.push(Some(slot));
                inner.slots.len() - 1
            }
        };
        inner.map.insert(key, i);
        inner.push_front(i);
        inner.used_bytes += bytes;
        inner.stats.admitted += 1;
        while inner.used_bytes > self.capacity_bytes {
            let t = inner.tail;
            if t == i {
                break; // never evict the payload just admitted
            }
            inner.detach(t);
            let s = inner.slots[t].take().expect("live tail");
            inner.map.remove(&s.key);
            inner.free.push(t);
            inner.used_bytes -= s.bytes;
            inner.stats.evictions += 1;
        }
    }
}

/// A pending store repair produced by the self-healing read path.
///
/// The read path is `&S` and cannot mutate the store, so when it
/// re-derives an object's bytes from the [`VersionSource`] it serves the
/// request immediately and emits a ticket; apply tickets with
/// [`PlanExecutor::apply_repairs`](crate::executor::PlanExecutor::apply_repairs)
/// to write the verified bytes back (preserving refcounts).
#[derive(Clone, Debug)]
pub struct RepairTicket {
    /// The version whose stored object needed repair.
    pub node: u32,
    /// The stored object's content address.
    pub id: ObjectId,
    /// The object kind recorded in the plan (chunk or delta).
    pub kind: ObjectKind,
    /// Re-derived bytes, already verified to hash to `id`.
    pub bytes: Vec<u8>,
}

/// Fault-handling counters of one read batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Object reads that failed after retries (corrupt, missing, or
    /// persistent I/O error).
    pub detected: u64,
    /// Extra read attempts spent on transient errors (whether or not
    /// the retry ultimately succeeded).
    pub retries: u64,
    /// Detected faults healed by re-deriving the bytes from the
    /// version source (hash-verified before serving).
    pub rederived: u64,
    /// Detected faults with no redundant copy to re-derive from (no
    /// source attached, or the source disagrees with the ingested
    /// hash).
    pub unrepairable: u64,
}

impl RepairStats {
    fn absorb(&mut self, other: &RepairStats) {
        self.detected += other.detected;
        self.retries += other.retries;
        self.rederived += other.rederived;
        self.unrepairable += other.unrepairable;
    }
}

/// The per-version results of one [`Checkout::serve`] batch.
///
/// One poisoned version does not fail the batch: every request gets its
/// own `Result`, and versions whose retrieval chain crossed an
/// unrepairable object report the failing ancestor's error.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// One result per requested version, in request order.
    pub results: Vec<Result<Arc<Payload>, ExecError>>,
    /// Work accounting for the batch.
    pub stats: CheckoutStats,
    /// Fault-handling counters for the batch.
    pub repair: RepairStats,
    /// Pending store repairs for faults healed from the source.
    pub tickets: Vec<RepairTicket>,
}

impl ServeOutcome {
    /// Whether every requested version was served.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }
}

/// What one [`Checkout::serve`] call did.
#[derive(Clone, Debug, Default)]
pub struct CheckoutStats {
    /// Versions requested (duplicates counted).
    pub requested: usize,
    /// Distinct versions requested.
    pub distinct: usize,
    /// Nodes decoded or delta-reconstructed during this call (shared
    /// ancestors count once; a root served from the cache counts zero).
    pub hydrated: usize,
    /// Deltas replayed during this call.
    pub delta_applies: usize,
    /// Reconstructions content-hashed during this call: the first
    /// checkout through a chain, and every node at or below an edit to
    /// it. The store's own check of the bytes it returns is not counted.
    pub hashed: usize,
    /// Materialized roots served from the cache.
    pub cache_hits: u64,
    /// Materialized roots read past the cache: looked up, missed, and
    /// read from the store or healed from the source (0 when no cache is
    /// attached).
    pub cache_misses: u64,
    /// Content bytes handed back across all requests (duplicates
    /// counted).
    pub bytes_materialized: u64,
    /// Wall-clock time of the call.
    pub wall: Duration,
}

/// Measured costs from a full verification walk (executor use).
pub(crate) struct Measure {
    pub(crate) storage: Cost,
    pub(crate) retrievals: Vec<Cost>,
    pub(crate) bytes_reconstructed: u64,
}

/// The shareable read path over a store: batched version reconstruction
/// against a [`StoredPlan`]. See the module docs.
pub struct Checkout<'a, S: Store + ?Sized> {
    store: &'a S,
    cache: Option<&'a CheckoutCache>,
    source: Option<&'a (dyn VersionSource + Sync)>,
    retry: RetryPolicy,
}

/// Everything one walk produced; the serving and verifying callers slice
/// it differently.
struct WalkOut {
    /// Per-node payload for every requested-and-hydrated version.
    payload_of: Vec<Option<Arc<Payload>>>,
    stats: CheckoutStats,
    measure: Option<Measure>,
    /// Nodes whose hydration failed, in deterministic (entry, DFS)
    /// order. Descendants of a failed node are not listed — they were
    /// simply never reached.
    failed: Vec<(u32, ExecError)>,
    repair: RepairStats,
    tickets: Vec<RepairTicket>,
}

struct WalkCtx<'x, S: Store + ?Sized> {
    store: &'x S,
    cache: Option<&'x CheckoutCache>,
    source: Option<&'x (dyn VersionSource + Sync)>,
    retry: RetryPolicy,
    g: &'x VersionGraph,
    stored: &'x StoredPlan,
    children: &'x [Vec<u32>],
    requested: &'x [bool],
    /// Nodes whose memo slot names their current ids; always false in
    /// the verification walk.
    memo_holds: &'x [bool],
    /// Verification walk: cache off, costs measured, payloads not kept.
    verify: bool,
}

impl<'a, S: Store + ?Sized> Checkout<'a, S> {
    /// A checkout reader over `store`, without a cache.
    pub fn new(store: &'a S) -> Self {
        Checkout {
            store,
            cache: None,
            source: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Attach a cache of decoded materialized roots (shared — many
    /// readers may point at the same cache). Roots are served from it
    /// and admitted to it; the deltas below a root are always replayed.
    pub fn with_cache(mut self, cache: &'a CheckoutCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a [`VersionSource`] as the redundant copy for read-path
    /// repair: objects that fail integrity after retries are re-derived
    /// from it, hash-verified, served, and reported as
    /// [`RepairTicket`]s.
    pub fn with_source(mut self, source: &'a (dyn VersionSource + Sync)) -> Self {
        self.source = Some(source);
        self
    }

    /// Set the transient-error retry policy (default:
    /// [`RetryPolicy::default`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        self.store
    }
}

impl<'a, S: Store + Sync + ?Sized> Checkout<'a, S> {
    /// Reconstruct a batch of versions. Every requested version gets its
    /// own `Result`, in request order, so one poisoned object degrades
    /// exactly the versions whose retrieval chains cross it instead of
    /// failing the batch.
    ///
    /// The union of the requested versions' retrieval chains is planned
    /// first: shared ancestor prefixes hydrate exactly once, a root in
    /// the attached cache is not read again, and the independent
    /// subtrees of the union reconstruct in parallel. Every hydrated
    /// payload is verified against the plan's recorded `source_hashes`:
    /// by hashing its decoded content, or, for a node whose unchanged
    /// chain has already verified against this stored plan, by the
    /// plan's memo of that hash (see [`StoredPlan`]). A mismatch is a
    /// typed error, never silent.
    ///
    /// Combine with [`with_source`](Checkout::with_source) for
    /// self-healing: detected faults are re-derived, hash-verified,
    /// served, and reported as [`RepairTicket`]s in the outcome.
    /// Plan-shape errors (plan/graph size mismatch, request out of
    /// range) still fail the call as a whole.
    pub fn serve(
        &self,
        g: &VersionGraph,
        stored: &StoredPlan,
        requests: &[u32],
    ) -> Result<ServeOutcome, ExecError> {
        let started = Instant::now();
        let mut out = self.walk(g, stored, requests, false)?;
        let failed: HashMap<u32, ExecError> = out.failed.into_iter().collect();
        let results: Vec<Result<Arc<Payload>, ExecError>> = requests
            .iter()
            .map(|&v| {
                if let Some(p) = out.payload_of[v as usize].clone() {
                    return Ok(p);
                }
                // Climb the retrieval chain to the ancestor that
                // actually failed and report its error.
                let mut u = v;
                loop {
                    if let Some(err) = failed.get(&u) {
                        return Err(err.clone());
                    }
                    match stored.plan.parent[u as usize] {
                        Parent::Materialized => break,
                        Parent::Delta(e) => u = g.edge(e).src.0,
                    }
                }
                Err(ExecError::Mismatch {
                    detail: format!("requested version v{v} was never hydrated"),
                })
            })
            .collect();
        out.stats.bytes_materialized = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|p| p.content_size())
            .sum();
        out.stats.wall = started.elapsed();
        Ok(ServeOutcome {
            results,
            stats: out.stats,
            repair: out.repair,
            tickets: out.tickets,
        })
    }

    /// Full verification walk for the executor: every version requested,
    /// cache off, costs measured from the stored bytes.
    pub(crate) fn verify_all(
        &self,
        g: &VersionGraph,
        stored: &StoredPlan,
    ) -> Result<(CheckoutStats, Measure), ExecError> {
        let all: Vec<u32> = (0..g.n() as u32).collect();
        let out = self.walk(g, stored, &all, true)?;
        if let Some((_, err)) = out.failed.into_iter().next() {
            return Err(err);
        }
        Ok((out.stats, out.measure.expect("measure mode")))
    }

    fn walk(
        &self,
        g: &VersionGraph,
        stored: &StoredPlan,
        requests: &[u32],
        verify: bool,
    ) -> Result<WalkOut, ExecError> {
        let n = g.n();
        if stored.objects.len() != n
            || stored.source_hashes.len() != n
            || stored.plan.parent.len() != n
        {
            return Err(ExecError::Mismatch {
                detail: format!("stored plan covers {} of {n} nodes", stored.objects.len()),
            });
        }
        let mut requested = vec![false; n];
        for &v in requests {
            if v as usize >= n {
                return Err(ExecError::Mismatch {
                    detail: format!("requested version v{v} outside graph of {n} nodes"),
                });
            }
            requested[v as usize] = true;
        }
        let distinct = requested.iter().filter(|&&r| r).count();

        // Plan the union of retrieval chains: walk each request upward
        // toward its materialized root, stopping at the first node some
        // earlier chain already claimed (shared prefixes hydrate once).
        let mut needed = vec![false; n];
        let mut roots: Vec<u32> = Vec::new();
        for &v in requests {
            let mut u = v;
            while !needed[u as usize] {
                needed[u as usize] = true;
                match stored.plan.parent[u as usize] {
                    Parent::Materialized => {
                        roots.push(u);
                        break;
                    }
                    Parent::Delta(e) => u = g.edge(e).src.0,
                }
            }
        }

        // Children lists of the stored-delta forest, restricted to the
        // needed set.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut slots = Vec::new();
        for v in (0..n).filter(|&v| needed[v]) {
            if let Parent::Delta(e) = stored.plan.parent[v] {
                children[g.edge(e).src.index()].push(v as u32);
                if !verify {
                    slots.extend(stored.slot_of(g, v as u32).map(|slot| (v as u32, slot)));
                }
            }
        }
        let memo_holds = stored.memo.holds(n, &slots);

        // Each root heads an independent subtree of the union; hydrate
        // them in parallel.
        let ctx = WalkCtx {
            store: self.store,
            cache: if verify { None } else { self.cache },
            source: self.source,
            retry: self.retry,
            g,
            stored,
            children: &children,
            requested: &requested,
            memo_holds: &memo_holds,
            verify,
        };
        let outs: Vec<SubtreeOut> = roots
            .into_par_iter()
            .map(|root| hydrate_subtree(&ctx, root))
            .collect();

        let mut stats = CheckoutStats {
            requested: requests.len(),
            distinct,
            ..CheckoutStats::default()
        };
        let mut meas = verify.then(|| Measure {
            storage: 0,
            retrievals: vec![0; n],
            bytes_reconstructed: 0,
        });
        let mut payload_of: Vec<Option<Arc<Payload>>> = vec![None; n];
        let mut failed: Vec<(u32, ExecError)> = Vec::new();
        let mut repair = RepairStats::default();
        let mut tickets: Vec<RepairTicket> = Vec::new();
        let mut fills = Vec::new();
        for out in outs {
            stats.hydrated += out.hydrated;
            stats.delta_applies += out.delta_applies;
            stats.hashed += out.hashed;
            stats.cache_hits += out.cache_hits;
            stats.cache_misses += out.cache_misses;
            fills.extend(out.fills);
            repair.absorb(&out.repair);
            failed.extend(out.failed);
            tickets.extend(out.tickets);
            if let Some(m) = meas.as_mut() {
                m.storage = cost_add(m.storage, out.storage);
                for (v, r) in out.retrievals {
                    m.retrievals[v as usize] = r;
                }
                m.bytes_reconstructed += out.bytes;
            }
            for (v, p) in out.served {
                payload_of[v as usize] = Some(p);
            }
        }
        stored.memo.record(&fills);
        Ok(WalkOut {
            payload_of,
            stats,
            measure: meas,
            failed,
            repair,
            tickets,
        })
    }
}

#[derive(Default)]
struct SubtreeOut {
    served: Vec<(u32, Arc<Payload>)>,
    hydrated: usize,
    delta_applies: usize,
    hashed: usize,
    cache_hits: u64,
    cache_misses: u64,
    /// Memo slots of the nodes hashed and verified in this subtree.
    fills: Vec<(u32, Verified)>,
    storage: Cost,
    retrievals: Vec<(u32, Cost)>,
    bytes: u64,
    failed: Vec<(u32, ExecError)>,
    repair: RepairStats,
    tickets: Vec<RepairTicket>,
}

/// Read one node's stored object with retry and repair.
///
/// Transient I/O errors are retried immediately per the [`RetryPolicy`];
/// `Corrupt` and `Missing` (and exhausted retries) fall through to repair:
/// the bytes are re-derived from the attached [`VersionSource`] (a chunk
/// from the version's payload, a delta from its edge endpoints),
/// verified to hash to the stored object id, served, and recorded as a
/// [`RepairTicket`]. With no source (or a disagreeing one) the original
/// store error surfaces.
fn fetch_object<'x, S: Store + ?Sized>(
    ctx: &WalkCtx<'x, S>,
    node: u32,
    repair: &mut RepairStats,
    tickets: &mut Vec<RepairTicket>,
) -> Result<Cow<'x, [u8]>, ExecError> {
    let id = ctx.stored.objects[node as usize];
    let attempts = ctx.retry.effective_attempts();
    let mut last_err: Option<StoreError> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            repair.retries += 1;
        }
        match ctx.store.get_ref(id) {
            Ok(bytes) => return Ok(bytes),
            Err(e) => {
                // Only transient I/O errors can succeed on re-read.
                let transient = matches!(e, StoreError::Io { .. });
                last_err = Some(e);
                if !transient {
                    break;
                }
            }
        }
    }
    let last_err = last_err.expect("at least one attempt");
    repair.detected += 1;
    if let Some(source) = ctx.source {
        let (kind, bytes) = match ctx.stored.plan.parent[node as usize] {
            Parent::Materialized => (ObjectKind::Chunk, source.payload_bytes(node)),
            Parent::Delta(e) => {
                let edge = ctx.g.edge(e);
                (ObjectKind::Delta, source.delta(edge.src.0, edge.dst.0))
            }
        };
        // The re-derived bytes must hash to the ingested object id, or
        // the source no longer describes the plan and serving them
        // would be serving wrong bytes.
        if hash_object(kind, &bytes) == id {
            repair.rederived += 1;
            tickets.push(RepairTicket {
                node,
                id,
                kind,
                bytes: bytes.clone(),
            });
            return Ok(Cow::Owned(bytes));
        }
    }
    repair.unrepairable += 1;
    Err(ExecError::Store(last_err))
}

/// `Recon::parent` of a child of the subtree's root.
const ROOT: usize = usize::MAX;

/// One delta replay of a subtree's reconstruct pass, awaiting its hash.
struct Recon {
    node: u32,
    /// Index of the parent's `Recon` in DFS order, or [`ROOT`].
    parent: usize,
    applied: Result<(Arc<Payload>, codec::DeltaCosts), ExecError>,
    /// Fault handling spent fetching this node's delta; reported only if
    /// the parent verified.
    repair: RepairStats,
    tickets: Vec<RepairTicket>,
}

fn hydrate_subtree<S: Store + ?Sized>(ctx: &WalkCtx<'_, S>, root: u32) -> SubtreeOut {
    let mut out = SubtreeOut::default();
    let node = root as usize;
    let id = ctx.stored.objects[node];
    let expected = ctx.stored.source_hashes[node];
    // A materialized node's stored object *is* its payload chunk, so the
    // object id must equal the recorded source hash; the store itself
    // verifies the bytes hash to the id on read.
    if id != expected {
        out.failed.push((
            root,
            ExecError::HashMismatch {
                node: root,
                expected,
                actual: id,
            },
        ));
        return out;
    }
    // From here the root is trusted: its object id is its recorded hash,
    // and its bytes verified, either now or before the cache admitted
    // them. A cached root costs no read, hash or decode.
    let payload = match ctx.cache.map(|cache| cache.get(id)) {
        Some(Some(payload)) => {
            out.cache_hits += 1;
            payload
        }
        lookup => {
            out.cache_misses += u64::from(lookup.is_some());
            let decoded = fetch_object(ctx, root, &mut out.repair, &mut out.tickets)
                .and_then(|bytes| Ok(codec::decode_payload(bytes)?));
            let payload = match decoded {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    out.failed.push((root, e));
                    return out;
                }
            };
            out.hydrated += 1;
            if ctx.verify {
                out.storage = cost_add(out.storage, payload.content_size());
                out.retrievals.push((root, 0));
                out.bytes += payload.content_size();
            }
            if let Some(cache) = ctx.cache {
                cache.admit(id, Arc::clone(&payload));
            }
            payload
        }
    };
    if !ctx.verify && ctx.requested[node] {
        out.served.push((root, Arc::clone(&payload)));
    }

    // Reconstruct: DFS down the needed subtree, carrying each node's
    // payload (shared, not cloned) while its children replay their
    // deltas. Nothing is hashed, counted or served yet. A failed
    // fetch or apply abandons that branch — its descendants are never
    // reached.
    let mut recons: Vec<Recon> = Vec::new();
    let mut stack: Vec<(usize, u32, Arc<Payload>)> = vec![(ROOT, root, payload)];
    while let Some((at, v, payload)) = stack.pop() {
        for &c in &ctx.children[v as usize] {
            let mut repair = RepairStats::default();
            let mut tickets = Vec::new();
            let applied = fetch_object(ctx, c, &mut repair, &mut tickets)
                .and_then(|delta_bytes| Ok(codec::apply_delta(&payload, &delta_bytes)?))
                .map(|(child, costs)| (Arc::new(child), costs));
            if let Ok((child, _)) = &applied {
                stack.push((recons.len(), c, Arc::clone(child)));
            }
            recons.push(Recon {
                node: c,
                parent: at,
                applied,
                repair,
                tickets,
            });
        }
    }

    // Verify and publish in DFS order. A node is trusted when its parent
    // is trusted in this walk and its memo slot names its current ids;
    // every other node's decoded content is hashed directly (no
    // encode_payload round-trip) on this thread, while its lines are
    // still in this core's cache. Handing the hashes of one chain to the
    // pool cost a wakeup and a cache transfer per payload, and made a
    // single checkout's latency depend on whether a second CPU was free;
    // subtrees still run in parallel. A node counts, is measured and is
    // served only if it and every ancestor verified. The first
    // failure on a branch is reported; its descendants are dropped
    // unreported and unhashed, their repairs included, exactly as if
    // never reached. `verified[i]` is recons[i]'s (retrieval, trusted)
    // once it passed.
    let mut verified: Vec<Option<(Cost, bool)>> = Vec::with_capacity(recons.len());
    for r in recons {
        let parent = match r.parent {
            ROOT => Some((0, true)),
            i => verified[i],
        };
        let Some((parent_retr, parent_trusted)) = parent else {
            verified.push(None);
            continue;
        };
        out.repair.absorb(&r.repair);
        out.tickets.extend(r.tickets);
        let c = r.node;
        let expected = ctx.stored.source_hashes[c as usize];
        let (child, costs) = match r.applied {
            Ok(applied) => applied,
            Err(e) => {
                out.failed.push((c, e));
                verified.push(None);
                continue;
            }
        };
        let trusted = parent_trusted && ctx.memo_holds[c as usize];
        if !trusted {
            out.hashed += 1;
            let actual = codec::hash_payload(&child);
            if actual != expected {
                out.failed.push((
                    c,
                    ExecError::HashMismatch {
                        node: c,
                        expected,
                        actual,
                    },
                ));
                verified.push(None);
                continue;
            }
            if let Some(slot) = ctx.stored.slot_of(ctx.g, c) {
                out.fills.push((c, slot));
            }
        }
        out.hydrated += 1;
        out.delta_applies += 1;
        let child_retr = cost_add(parent_retr, costs.retrieval_cost());
        if ctx.verify {
            out.storage = cost_add(out.storage, costs.storage_cost());
            out.retrievals.push((c, child_retr));
            out.bytes += child.content_size();
        }
        if !ctx.verify && ctx.requested[c as usize] {
            out.served.push((c, child));
        }
        verified.push(Some((child_retr, trusted)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u64, size: u32) -> Arc<Payload> {
        Arc::new(Payload::Sketch(vec![(tag, size)]))
    }

    fn key(tag: u64) -> ObjectId {
        ObjectId(tag, !tag)
    }

    #[test]
    fn lru_evicts_least_recent_and_counts() {
        let cache = CheckoutCache::new(250);
        cache.admit(key(1), payload(1, 100));
        cache.admit(key(2), payload(2, 100));
        assert_eq!(cache.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(key(1)).is_some());
        cache.admit(key(3), payload(3, 100));
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(key(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.used_bytes(), 200);
    }

    #[test]
    fn admission_refuses_a_root_larger_than_the_cache() {
        let cache = CheckoutCache::new(100);
        cache.admit(key(1), payload(1, 500));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected, 1);
        cache.admit(key(2), payload(2, 100));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 100);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = CheckoutCache::new(100);
        cache.admit(key(1), payload(1, 10));
        assert!(cache.get(key(1)).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.stats().admitted, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn double_admit_is_a_recency_touch() {
        let cache = CheckoutCache::new(100);
        cache.admit(key(1), payload(1, 10));
        cache.admit(key(1), payload(1, 10));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 10);
        assert_eq!(cache.stats().admitted, 1);
    }
}
