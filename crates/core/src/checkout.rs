//! Batched, cache-backed checkout: the servable read path.
//!
//! A [`StoragePlan`](crate::plan::StoragePlan) only pays off if reconstructing versions down their
//! retrieval chains is fast enough to *serve*. This module turns the
//! executor's verification walk into a read hot path:
//!
//! * [`Checkout`] takes `&self` over any [`Store`] — the read path is
//!   shareable, so many checkouts can run against one store (and one
//!   executor, via [`PlanExecutor::reader`](crate::executor::PlanExecutor::reader)).
//! * [`Checkout::checkout`] serves a *batch*: it plans the union of the
//!   requested versions' retrieval chains, hydrates shared ancestor
//!   prefixes exactly once, and reconstructs the independent subtrees of
//!   that union in parallel on the rayon pool.
//! * Object bytes come from [`Store::get_ref`] — borrowed slices out of
//!   `PackStore`'s resident pack map (or `MemStore`'s buffers), no
//!   per-object allocation on the packed path.
//! * Each subtree goes reconstruct → verify in parallel → publish. It
//!   first replays every needed delta down the subtree without hashing
//!   (unchanged lines are shared with the parent payload, not copied);
//!   then it hashes all reconstructions on the pool at once, hashing the
//!   *decoded* content directly ([`codec::hash_payload`]) against the
//!   plan's recorded `source_hashes` with no `encode_payload`
//!   round-trip; then it publishes in DFS order. Nothing is served,
//!   counted, measured or cached before its own hash and every
//!   ancestor's have verified; below a failed node nothing is reported.
//! * A [`CheckoutCache`] holds hot reconstructed payloads keyed by their
//!   content hash. Admission is informed by the plan: a payload's
//!   retrieval depth (deltas between it and its materialized root) is its
//!   reconstruction price, and only payloads at depth ≥
//!   [`admit_min_depth`](CheckoutCache::admit_min_depth) are worth a slot.
//!   Because keys are content hashes, a hit can never serve wrong bytes —
//!   the cache needs no invalidation when plans change.
//!
//! `PlanExecutor::execute` is a thin client of the same walker (in
//! measure mode: cache off, every version requested), so the verification
//! path inherits the batched walk, borrowed reads, and direct hashing.

use crate::executor::{ExecError, StoredPlan};
use crate::plan::Parent;
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
    /// Payloads refused by the admission gate (too shallow, or larger
    /// than the whole cache).
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
    depth: u32,
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

/// A byte-bounded LRU of hot reconstructed payloads, keyed by content
/// hash, shared across threads (all methods take `&self`).
///
/// Admission is *depth-informed*: a payload reconstructed at retrieval
/// depth `d` cost `d` delta applications, so only payloads with
/// `d >= admit_min_depth` are admitted (materialized roots at depth 0 are
/// one `get` away and not worth caching). Keys are content hashes, so a
/// hit is byte-correct by construction and the cache never needs
/// invalidating — stale entries merely age out.
pub struct CheckoutCache {
    capacity_bytes: u64,
    admit_min_depth: u32,
    inner: Mutex<CacheInner>,
}

impl CheckoutCache {
    /// A cache holding at most `capacity_bytes` of payload content
    /// (priced by [`Payload::content_size`]), admitting payloads at
    /// retrieval depth ≥ 1.
    pub fn new(capacity_bytes: u64) -> Self {
        CheckoutCache {
            capacity_bytes,
            admit_min_depth: 1,
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

    /// Only admit payloads whose retrieval depth is at least `depth`
    /// (0 admits everything, including materialized roots).
    pub fn with_admit_min_depth(mut self, depth: u32) -> Self {
        self.admit_min_depth = depth;
        self
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The admission depth gate.
    pub fn admit_min_depth(&self) -> u32 {
        self.admit_min_depth
    }

    /// Content bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().expect("cache lock").used_bytes
    }

    /// Number of resident payloads.
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

    /// Drop every resident payload, keeping the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.slots.clear();
        inner.free.clear();
        inner.head = NIL;
        inner.tail = NIL;
        inner.used_bytes = 0;
    }

    /// Look up a payload by content hash, refreshing its recency.
    pub fn get(&self, key: ObjectId) -> Option<Arc<Payload>> {
        self.lookup(key).map(|(payload, _)| payload)
    }

    fn lookup(&self, key: ObjectId) -> Option<(Arc<Payload>, u32)> {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.map.get(&key).copied() {
            Some(i) => {
                inner.detach(i);
                inner.push_front(i);
                inner.stats.hits += 1;
                let s = inner.slots[i].as_ref().expect("live slot");
                Some((Arc::clone(&s.payload), s.depth))
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    fn admit(&self, key: ObjectId, payload: Arc<Payload>, depth: u32) {
        let bytes = payload.content_size();
        if depth < self.admit_min_depth || bytes > self.capacity_bytes {
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
            depth,
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

pub use crate::retry::RetryPolicy;

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

    /// Whether every detected fault was healed.
    pub fn fully_healed(&self) -> bool {
        self.detected == self.rederived && self.unrepairable == 0
    }
}

/// The per-version results of one lenient [`Checkout::serve`] batch.
///
/// Unlike [`Checkout::checkout`], one poisoned version does not fail the
/// batch: every request gets its own `Result`, and versions whose
/// retrieval chain crossed an unrepairable object report the failing
/// ancestor's error.
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

/// What one [`Checkout::checkout`] call did.
#[derive(Clone, Debug, Default)]
pub struct CheckoutStats {
    /// Versions requested (duplicates counted).
    pub requested: usize,
    /// Distinct versions requested.
    pub distinct: usize,
    /// Nodes decoded or delta-reconstructed during this call (shared
    /// ancestors count once; cache hits count zero).
    pub hydrated: usize,
    /// Deltas replayed during this call.
    pub delta_applies: usize,
    /// Retrieval chains cut short by a cache hit.
    pub cache_hits: u64,
    /// Cache lookups that missed (0 when no cache is attached).
    pub cache_misses: u64,
    /// Content bytes handed back across all requests (duplicates
    /// counted).
    pub bytes_materialized: u64,
    /// Wall-clock time of the call.
    pub wall: Duration,
}

/// The payloads of one served batch, in request order, plus what serving
/// them cost.
#[derive(Clone, Debug)]
pub struct CheckoutOutcome {
    /// One reconstructed payload per requested version, in request order.
    /// Payloads are shared (`Arc`) with the cache and with duplicate
    /// requests in the same batch.
    pub payloads: Vec<Arc<Payload>>,
    /// Work accounting for the batch.
    pub stats: CheckoutStats,
    /// Fault-handling counters for the batch (all zero on a clean
    /// store).
    pub repair: RepairStats,
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

struct Entry {
    node: u32,
    /// Cached payload seeding this subtree, with its true retrieval
    /// depth; `None` means the node is a materialized root.
    seed: Option<(Arc<Payload>, u32)>,
}

/// Everything one walk produced; strict and lenient callers slice it
/// differently.
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
    measure: bool,
    collect: bool,
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

    /// Attach a materialization cache (shared — many readers may point
    /// at the same cache).
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

    /// Override the transient-error retry policy.
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
    /// Reconstruct a batch of versions, returning their payloads in
    /// request order.
    ///
    /// The union of the requested versions' retrieval chains is planned
    /// first: shared ancestor prefixes hydrate exactly once, chains stop
    /// early at cache hits, and the independent subtrees of the union
    /// reconstruct in parallel. Every hydrated payload is verified
    /// against the plan's recorded `source_hashes` by hashing the decoded
    /// content directly; a mismatch is a typed error, never silent.
    pub fn checkout(
        &self,
        g: &VersionGraph,
        stored: &StoredPlan,
        requests: &[u32],
    ) -> Result<CheckoutOutcome, ExecError> {
        let started = Instant::now();
        let mut out = self.walk(g, stored, requests, true, false, true)?;
        // Strict mode: the first hydration failure (in deterministic
        // entry/DFS order) fails the whole batch.
        if let Some((_, err)) = out.failed.into_iter().next() {
            return Err(err);
        }
        let payloads = requests
            .iter()
            .map(|&v| {
                out.payload_of[v as usize]
                    .clone()
                    .ok_or_else(|| ExecError::Mismatch {
                        detail: format!("requested version v{v} was never hydrated"),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        out.stats.bytes_materialized = payloads.iter().map(|p| p.content_size()).sum();
        out.stats.wall = started.elapsed();
        Ok(CheckoutOutcome {
            payloads,
            stats: out.stats,
            repair: out.repair,
        })
    }

    /// Reconstruct a batch leniently: every requested version gets its
    /// own `Result`, so one poisoned object degrades exactly the
    /// versions whose retrieval chains cross it instead of failing the
    /// batch.
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
        let mut out = self.walk(g, stored, requests, true, false, true)?;
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
        let out = self.walk(g, stored, &all, false, true, false)?;
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
        use_cache: bool,
        measure: bool,
        collect: bool,
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
        // earlier chain already claimed (shared prefixes hydrate once) or
        // at a cache hit (the chain above the hit is not needed at all).
        let cache = if use_cache { self.cache } else { None };
        let mut needed = vec![false; n];
        let mut seeded = vec![false; n];
        let mut entries: Vec<Entry> = Vec::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for &v in requests {
            let mut u = v;
            while !needed[u as usize] {
                if let Some(c) = cache {
                    if let Some(seed) = c.lookup(stored.source_hashes[u as usize]) {
                        hits += 1;
                        needed[u as usize] = true;
                        seeded[u as usize] = true;
                        entries.push(Entry {
                            node: u,
                            seed: Some(seed),
                        });
                        break;
                    }
                    misses += 1;
                }
                needed[u as usize] = true;
                match stored.plan.parent[u as usize] {
                    Parent::Materialized => {
                        entries.push(Entry {
                            node: u,
                            seed: None,
                        });
                        break;
                    }
                    Parent::Delta(e) => u = g.edge(e).src.0,
                }
            }
        }

        // Children lists of the stored-delta forest, restricted to the
        // needed set. A seeded node's own delta is never replayed — its
        // payload came from the cache.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n {
            if !needed[v] || seeded[v] {
                continue;
            }
            if let Parent::Delta(e) = stored.plan.parent[v] {
                children[g.edge(e).src.index()].push(v as u32);
            }
        }

        // Each entry roots an independent subtree of the union; hydrate
        // them in parallel.
        let ctx = WalkCtx {
            store: self.store,
            cache,
            source: self.source,
            retry: self.retry,
            g,
            stored,
            children: &children,
            requested: &requested,
            measure,
            collect,
        };
        let outs: Vec<SubtreeOut> = entries
            .into_par_iter()
            .map(|entry| hydrate_subtree(&ctx, entry))
            .collect();

        let mut stats = CheckoutStats {
            requested: requests.len(),
            distinct,
            cache_hits: hits,
            cache_misses: misses,
            ..CheckoutStats::default()
        };
        let mut meas = measure.then(|| Measure {
            storage: 0,
            retrievals: vec![0; n],
            bytes_reconstructed: 0,
        });
        let mut payload_of: Vec<Option<Arc<Payload>>> = vec![None; n];
        let mut failed: Vec<(u32, ExecError)> = Vec::new();
        let mut repair = RepairStats::default();
        let mut tickets: Vec<RepairTicket> = Vec::new();
        for out in outs {
            stats.hydrated += out.hydrated;
            stats.delta_applies += out.delta_applies;
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
    storage: Cost,
    retrievals: Vec<(u32, Cost)>,
    bytes: u64,
    failed: Vec<(u32, ExecError)>,
    repair: RepairStats,
    tickets: Vec<RepairTicket>,
}

/// Read one node's stored object with retry and repair.
///
/// Transient I/O errors are retried per the [`RetryPolicy`]; `Corrupt`
/// and `Missing` (and exhausted retries) fall through to repair: the
/// bytes are re-derived from the attached [`VersionSource`] (a chunk
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
            // Salted by object id: concurrent retries of different
            // objects decorrelate, replays wait identically.
            ctx.retry.wait(attempt, id.0 ^ id.1);
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

/// `Recon::parent` of a child of the subtree's entry node.
const ENTRY: usize = usize::MAX;

/// One delta replay of a subtree's reconstruct pass, awaiting its hash.
struct Recon {
    node: u32,
    /// Index of the parent's `Recon` in DFS order, or [`ENTRY`].
    parent: usize,
    applied: Result<(Arc<Payload>, codec::DeltaCosts), ExecError>,
    /// Fault handling spent fetching this node's delta; reported only if
    /// the parent verified.
    repair: RepairStats,
    tickets: Vec<RepairTicket>,
}

fn hydrate_subtree<S: Store + ?Sized>(ctx: &WalkCtx<'_, S>, entry: Entry) -> SubtreeOut {
    let mut out = SubtreeOut::default();
    let (payload, depth) = match entry.seed {
        // Cache hit: the payload is already byte-verified (keyed by its
        // content hash). Nothing hydrated, nothing measured.
        Some(seed) => seed,
        None => {
            let node = entry.node as usize;
            let id = ctx.stored.objects[node];
            let expected = ctx.stored.source_hashes[node];
            // A materialized node's stored object *is* its payload chunk,
            // so the object id must equal the recorded source hash; the
            // store itself verifies the bytes hash to the id on read.
            if id != expected {
                out.failed.push((
                    entry.node,
                    ExecError::HashMismatch {
                        node: entry.node,
                        expected,
                        actual: id,
                    },
                ));
                return out;
            }
            let decoded = fetch_object(ctx, entry.node, &mut out.repair, &mut out.tickets)
                .and_then(|bytes| Ok(codec::decode_payload(&bytes)?));
            let payload = match decoded {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    out.failed.push((entry.node, e));
                    return out;
                }
            };
            out.hydrated += 1;
            if ctx.measure {
                out.storage = cost_add(out.storage, payload.content_size());
                out.retrievals.push((entry.node, 0));
                out.bytes += payload.content_size();
            }
            if let Some(cache) = ctx.cache {
                cache.admit(expected, Arc::clone(&payload), 0);
            }
            (payload, 0)
        }
    };
    if ctx.collect && ctx.requested[entry.node as usize] {
        out.served.push((entry.node, Arc::clone(&payload)));
    }

    // Reconstruct: DFS down the needed subtree, carrying each node's
    // payload (shared, not cloned) while its children replay their
    // deltas. Nothing is hashed, counted, cached or served yet. A failed
    // fetch or apply abandons that branch — its descendants are never
    // reached.
    let mut recons: Vec<Recon> = Vec::new();
    let mut stack: Vec<(usize, u32, Arc<Payload>)> = vec![(ENTRY, entry.node, payload)];
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

    // Verify: hash every reconstruction's decoded content directly (no
    // encode_payload round-trip), in parallel and order-stable.
    let hashes: Vec<Option<ObjectId>> = recons
        .iter()
        .map(|r| r.applied.as_ref().ok().map(|(child, _)| &**child))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|child| child.map(codec::hash_payload))
        .collect();

    // Publish in DFS order: a node counts, is measured, cached and served
    // only if its own hash and every ancestor's verified. The first
    // failure on a branch is reported; its descendants are dropped
    // unreported, their repairs included, exactly as if never reached.
    // `verified[i]` is recons[i]'s (depth, retrieval) once it passed.
    let mut verified: Vec<Option<(u32, Cost)>> = Vec::with_capacity(recons.len());
    for (r, actual) in recons.into_iter().zip(hashes) {
        let parent = match r.parent {
            ENTRY => Some((depth, 0)),
            i => verified[i],
        };
        let Some((parent_depth, parent_retr)) = parent else {
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
        let actual = actual.expect("every reconstruction is hashed");
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
        out.hydrated += 1;
        out.delta_applies += 1;
        let child_depth = parent_depth + 1;
        let child_retr = cost_add(parent_retr, costs.retrieval_cost());
        if ctx.measure {
            out.storage = cost_add(out.storage, costs.storage_cost());
            out.retrievals.push((c, child_retr));
            out.bytes += child.content_size();
        }
        if let Some(cache) = ctx.cache {
            cache.admit(expected, Arc::clone(&child), child_depth);
        }
        if ctx.collect && ctx.requested[c as usize] {
            out.served.push((c, child));
        }
        verified.push(Some((child_depth, child_retr)));
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
        let cache = CheckoutCache::new(250).with_admit_min_depth(1);
        cache.admit(key(1), payload(1, 100), 2);
        cache.admit(key(2), payload(2, 100), 2);
        assert_eq!(cache.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(key(1)).is_some());
        cache.admit(key(3), payload(3, 100), 2);
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
    fn admission_gates_on_depth_and_size() {
        let cache = CheckoutCache::new(100).with_admit_min_depth(2);
        cache.admit(key(1), payload(1, 10), 1); // too shallow
        cache.admit(key(2), payload(2, 500), 5); // larger than the cache
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected, 2);
        cache.admit(key(3), payload(3, 10), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = CheckoutCache::new(100);
        cache.admit(key(1), payload(1, 10), 1);
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
        cache.admit(key(1), payload(1, 10), 1);
        cache.admit(key(1), payload(1, 10), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 10);
        assert_eq!(cache.stats().admitted, 1);
    }
}
