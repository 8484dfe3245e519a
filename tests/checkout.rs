//! Batched checkout integration: the serving read path.
//!
//! This suite pins the checkout layer's contract:
//!
//! * a batched checkout returns payloads **byte-identical** to
//!   one-at-a-time checkouts and to the source content, across natural
//!   (path/tree-like) and Erdős–Rényi fixtures on both backends;
//! * checkouts through the root cache return bytes identical to cold
//!   reconstructions (property loop over seeded request streams), and
//!   the cache holds materialized roots only;
//! * a root served from the cache is trusted like a fresh read: a warm
//!   read hashes nothing and hydrates only its deltas, a root whose
//!   object id differs from its recorded hash still fails while that id
//!   is resident, and a root is admitted only once its read verified;
//! * the content-level hash used for verification equals the
//!   `source_hashes` recorded at ingest (no `encode_payload` round-trip);
//! * `PackStore`'s resident pack map is invalidated by append and GC —
//!   it never serves stale slices;
//! * the read path is `&self`-shareable: concurrent checkouts against
//!   one reader and one cache agree with the source;
//! * a hash mismatch in the middle of a chain fails that node and every
//!   descendant, while its ancestors are still served and counted, and
//!   its root cached;
//! * a warm checkout hashes nothing, yet tampering with a stored plan's
//!   objects, hashes or parents after it re-arms the check at the edited
//!   node; after a migration only changed nodes and the subtrees below
//!   them are hashed again;
//! * parallel checkouts of one shared stored plan, from a cold
//!   verification memo, serve source-identical bytes on both backends.

use dataset_versioning::prelude::*;
use dsv_core::checkout::{Checkout, CheckoutCache};
use dsv_core::executor::PlanExecutor;
use dsv_delta::store::codec::{self, encode_sketch_delta, Payload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "dsv-checkout-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Natural corpora (path/tree-shaped retrieval forests under MSR plans)
/// plus an ER graph over sketch content (unnatural delta pairs).
fn fixtures() -> Vec<(&'static str, VersionGraph, CorpusContent)> {
    let mut out = Vec::new();
    let c = corpus_with_content(CorpusName::Datasharing, 1.0, 31, true);
    out.push(("datasharing", c.graph, c.content.expect("content")));
    let c = corpus_with_content(CorpusName::Icu996, 0.015, 32, true);
    out.push(("icu996", c.graph, c.content.expect("content")));
    let lc = corpus_with_content(CorpusName::LeetCodeAnimation, 0.05, 33, true);
    let sketches = lc.sketches().expect("sketch corpus").to_vec();
    let g = erdos_renyi_from_sketches(&sketches, 0.3, 34);
    out.push(("leetcode-er", g, CorpusContent::Sketch { sketches }));
    out
}

/// Serve `batch` and unwrap every per-version result, naming the first
/// version that failed.
fn serve_ok<S: Store + Sync>(
    reader: &Checkout<'_, S>,
    g: &VersionGraph,
    stored: &StoredPlan,
    batch: &[u32],
) -> (Vec<Arc<Payload>>, CheckoutStats) {
    let out = reader.serve(g, stored, batch).expect("serve");
    let payloads = out
        .results
        .into_iter()
        .zip(batch)
        .map(|(served, v)| served.unwrap_or_else(|e| panic!("v{v} not served: {e}")))
        .collect();
    (payloads, out.stats)
}

fn msr_plan(g: &VersionGraph, solver: &str) -> StoragePlan {
    let engine = Engine::with_default_solvers();
    let problem = ProblemKind::Msr {
        storage_budget: min_storage_value(g) * 2,
    };
    engine
        .solve_with(solver, g, problem, &SolveOptions::default())
        .expect("solve")
        .plan
}

/// Batched checkout == one-at-a-time checkout == source content, for
/// every version, on both backends, across fixture shapes and solvers.
#[test]
fn batched_checkout_matches_one_at_a_time_and_source() {
    for (label, g, content) in fixtures() {
        let n = g.n();
        let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
        for solver in ["LMG", "DP-MSR"] {
            let plan = msr_plan(&g, solver);

            let mut mem = MemStore::new();
            let stored_mem = PlanExecutor::new(&mut mem)
                .ingest(&g, &plan, &content)
                .expect("mem ingest");
            let dir = temp_dir(label);
            let mut pack = PackStore::open(&dir).expect("open pack");
            let stored_pack = PlanExecutor::new(&mut pack)
                .ingest(&g, &plan, &content)
                .expect("pack ingest");

            let all: Vec<u32> = (0..n as u32).collect();
            // MemStore backend.
            {
                let reader = Checkout::new(&mem);
                let (batch, stats) = serve_ok(&reader, &g, &stored_mem, &all);
                assert_eq!(batch.len(), n);
                for (v, exp) in expected.iter().enumerate() {
                    assert_eq!(*batch[v], *exp, "{solver} on {label} (mem): batched v{v}");
                    let (one, _) = serve_ok(&reader, &g, &stored_mem, &[v as u32]);
                    assert_eq!(
                        one[0], batch[v],
                        "{solver} on {label} (mem): one-at-a-time v{v}"
                    );
                }
                assert_eq!(stats.hydrated, n, "union of all chains is all nodes");
            }
            // PackStore backend.
            {
                let (batch, _) = serve_ok(&Checkout::new(&pack), &g, &stored_pack, &all);
                for (v, exp) in expected.iter().enumerate() {
                    assert_eq!(*batch[v], *exp, "{solver} on {label} (pack): batched v{v}");
                }
            }

            drop(pack);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The content-level hash used for verification is pinned to the
/// `source_hashes` the executor records at ingest (which hash the
/// *encoded* payload bytes) — the regression test for dropping the
/// `encode_payload` round-trip.
#[test]
fn hash_payload_pins_to_ingested_source_hashes() {
    for (label, g, content) in fixtures() {
        let plan = msr_plan(&g, "LMG");
        let mut mem = MemStore::new();
        let stored = PlanExecutor::new(&mut mem)
            .ingest(&g, &plan, &content)
            .expect("ingest");
        for v in 0..g.n() as u32 {
            assert_eq!(
                codec::hash_payload(&content.payload(v)),
                stored.source_hashes[v as usize],
                "{label}: content-level hash of v{v} must equal the ingest hash"
            );
        }
    }
}

/// The ids of a stored plan's materialized roots.
fn root_ids(stored: &StoredPlan) -> Vec<ObjectId> {
    (0..stored.objects.len())
        .filter(|&v| matches!(stored.plan.parent[v], Parent::Materialized))
        .map(|v| stored.objects[v])
        .collect()
}

/// Property loop: random batch streams served through a root cache
/// return bytes identical to cold reconstructions, duplicates included,
/// the cache actually hits, and it holds materialized roots only.
#[test]
fn cached_checkouts_identical_to_cold_property_loop() {
    let (_, g, content) = fixtures().swap_remove(0);
    let n = g.n();
    let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
    let plan = msr_plan(&g, "LMG");
    let mut mem = MemStore::new();
    let stored = PlanExecutor::new(&mut mem)
        .ingest(&g, &plan, &content)
        .expect("ingest");
    let roots = root_ids(&stored);

    let mut rng = SmallRng::seed_from_u64(99);
    let cache = CheckoutCache::new(expected.iter().map(|p| p.content_size()).sum::<u64>() / 3 + 1);
    let cold = Checkout::new(&mem);
    let cached = Checkout::new(&mem).with_cache(&cache);
    let mut root_hits = 0;
    for round in 0..40 {
        let len = rng.gen_range(1..=24usize);
        let batch: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
        let (warm, stats) = serve_ok(&cached, &g, &stored, &batch);
        let (chill, _) = serve_ok(&cold, &g, &stored, &batch);
        root_hits += stats.cache_hits;
        assert_eq!(warm.len(), batch.len());
        for (i, &v) in batch.iter().enumerate() {
            assert_eq!(*warm[i], expected[v as usize], "round {round}: cached v{v}");
            assert_eq!(warm[i], chill[i], "round {round}: cached vs cold v{v}");
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "hot roots must hit the cache: {stats:?}");
    assert_eq!(stats.hits, root_hits, "every hit is counted by a checkout");
    assert!(stats.admitted > 0);
    assert!(
        cache.used_bytes() <= cache.capacity_bytes(),
        "cache must respect its byte budget"
    );
    assert!(cache.len() <= roots.len());
    for v in 0..n {
        if !roots.contains(&stored.source_hashes[v]) {
            assert!(
                cache.get(stored.source_hashes[v]).is_none(),
                "delta-stored v{v} must not be cached"
            );
        }
    }
}

/// Pack-map upkeep: reads through the resident pack map stay
/// byte-correct across appends (new plan ingested) and GC (old plan
/// collected) — stale slices are never served.
#[test]
fn pack_resident_map_never_serves_stale_slices() {
    let c = corpus_with_content(CorpusName::Datasharing, 1.0, 41, true);
    let g = c.graph;
    let content = c.content.expect("content");
    let n = g.n();
    let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
    let all: Vec<u32> = (0..n as u32).collect();

    let dir = temp_dir("invalidate");
    let mut pack = PackStore::open(&dir).expect("open pack");
    let plan_a = msr_plan(&g, "LMG");
    let stored_a = PlanExecutor::new(&mut pack)
        .ingest(&g, &plan_a, &content)
        .expect("ingest A");

    // Serve A: this faults in the resident pack map.
    let (out, _) = serve_ok(&Checkout::new(&pack), &g, &stored_a, &all);
    assert!(pack.resident_loaded(), "first batched read loads the map");
    for (v, exp) in expected.iter().enumerate() {
        assert_eq!(*out[v], *exp);
    }

    // Append plan B (different forest, overlapping objects): the packed
    // appends extend the map; reads of BOTH plans must stay correct.
    let plan_b = msr_plan(&g, "DP-MSR");
    let stored_b = PlanExecutor::new(&mut pack)
        .ingest(&g, &plan_b, &content)
        .expect("ingest B");
    assert!(
        pack.resident_loaded(),
        "appends extend the map, not drop it"
    );
    for (tag, stored) in [("A", &stored_a), ("B", &stored_b)] {
        let (out, _) = serve_ok(&Checkout::new(&pack), &g, stored, &all);
        for (v, exp) in expected.iter().enumerate() {
            assert_eq!(*out[v], *exp, "plan {tag} v{v} after append");
        }
    }

    // Release A and compact: offsets move, the map is invalidated again;
    // B must still serve byte-identical content.
    PlanExecutor::new(&mut pack)
        .release(&stored_a)
        .expect("release A");
    pack.gc().expect("gc");
    let (out, _) = serve_ok(&Checkout::new(&pack), &g, &stored_b, &all);
    for (v, exp) in expected.iter().enumerate() {
        assert_eq!(*out[v], *exp, "plan B v{v} after gc");
    }

    drop(pack);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The read path is `&self`-shareable: concurrent threads serving
/// overlapping batches through one reader and one shared root cache all
/// see source-identical bytes, and the cache ends up holding each root
/// once.
#[test]
fn concurrent_checkouts_share_one_reader_and_cache() {
    let (_, g, content) = fixtures().swap_remove(0);
    let n = g.n();
    let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
    let plan = msr_plan(&g, "LMG");
    let mut mem = MemStore::new();
    let stored = PlanExecutor::new(&mut mem)
        .ingest(&g, &plan, &content)
        .expect("ingest");

    let cache = CheckoutCache::new(1 << 20);
    let reader = Checkout::new(&mem).with_cache(&cache);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let reader = &reader;
            let g = &g;
            let stored = &stored;
            let expected = &expected;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(1000 + t);
                for _ in 0..10 {
                    let batch: Vec<u32> = (0..16).map(|_| rng.gen_range(0..n as u32)).collect();
                    let (out, _) = serve_ok(reader, g, stored, &batch);
                    for (i, &v) in batch.iter().enumerate() {
                        assert_eq!(*out[i], expected[v as usize]);
                    }
                }
            });
        }
    });
    let roots = root_ids(&stored);
    assert!(cache.stats().hits > 0, "{:?}", cache.stats());
    assert!(!cache.is_empty() && cache.len() <= roots.len());
    assert!(cache.used_bytes() <= cache.capacity_bytes());
}

/// Sketch content on a hand-built forest: version `v`'s manifest is
/// chunks `0..=v`, except v6, which branches off v1 with chunk 60.
struct BranchySource;

impl BranchySource {
    const N: u32 = 7;

    fn manifest(v: u32) -> Vec<(u64, u32)> {
        match v {
            6 => vec![(0, 10), (1, 11), (60, 70)],
            _ => (0..=u64::from(v)).map(|c| (c, 10 + c as u32)).collect(),
        }
    }

    /// v0 → v1 → v2 → v3 → v4, v2 → v5, v1 → v6, priced by the sketch
    /// model (`added_bytes + 12` per chunk record stored, `+ 6` read).
    fn graph_and_plan() -> (VersionGraph, StoragePlan) {
        let mut g = VersionGraph::new();
        let nodes: Vec<_> = (0..Self::N)
            .map(|v| {
                let size = Self::manifest(v).iter().map(|&(_, s)| u64::from(s)).sum();
                g.add_node(size)
            })
            .collect();
        let mut parent = vec![Parent::Materialized];
        for (src, dst) in [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (1, 6)] {
            let (a, b) = (Self::manifest(src), Self::manifest(dst));
            let added: u64 = b
                .iter()
                .filter(|c| !a.contains(c))
                .map(|&(_, s)| u64::from(s))
                .sum();
            let records = (a.iter().filter(|c| !b.contains(c)).count()
                + b.iter().filter(|c| !a.contains(c)).count()) as u64;
            let e = g.add_edge(
                nodes[src as usize],
                nodes[dst as usize],
                added + 12 * records,
                added + 6 * records,
            );
            parent.push(Parent::Delta(e));
        }
        (g, StoragePlan { parent })
    }
}

impl VersionSource for BranchySource {
    fn version_count(&self) -> usize {
        Self::N as usize
    }

    fn payload(&self, v: u32) -> Payload {
        Payload::Sketch(Self::manifest(v))
    }

    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        let (a, b) = (Self::manifest(src), Self::manifest(dst));
        let removed: Vec<u64> = a
            .iter()
            .filter(|c| !b.contains(c))
            .map(|&(id, _)| id)
            .collect();
        let added: Vec<(u64, u32)> = b.iter().filter(|c| !a.contains(c)).copied().collect();
        encode_sketch_delta(&removed, &added)
    }
}

/// Verification runs after reconstruction, in parallel, yet a node is
/// served, counted or cached only once its own hash and every
/// ancestor's verified. Tampering with the recorded hash of `mid` (v2,
/// depth 2 of a 5-node chain) must fail exactly `mid` and its
/// descendants with `mid`'s `HashMismatch`, at any pool width.
#[test]
fn mid_chain_hash_mismatch_fails_only_the_subtree_below_it() {
    const MID: u32 = 2;
    let below_mid = [2u32, 3, 4, 5];
    let above_mid = [0u32, 1, 6];
    let (g, plan) = BranchySource::graph_and_plan();
    let mut mem = MemStore::new();
    let mut stored = PlanExecutor::new(&mut mem)
        .ingest(&g, &plan, &BranchySource)
        .expect("ingest");
    let genuine = stored.source_hashes.clone();
    let bogus = ObjectId(genuine[MID as usize].0 ^ 1, genuine[MID as usize].1);
    stored.source_hashes[MID as usize] = bogus;
    let is_mid_mismatch = |e: &ExecError| {
        matches!(e, ExecError::HashMismatch { node, expected, actual }
            if *node == MID && *expected == bogus && *actual == genuine[MID as usize])
    };

    // Every request crossing `mid` fails with its error; the rest of the
    // batch is served.
    let reader = Checkout::new(&mem);
    for batch in [vec![4u32], vec![0, 6, 5], (0..BranchySource::N).collect()] {
        let out = reader.serve(&g, &stored, &batch).expect("serve");
        for (v, served) in batch.iter().zip(&out.results) {
            match served {
                Err(err) => assert!(
                    below_mid.contains(v) && is_mid_mismatch(err),
                    "batch {batch:?}: v{v}: {err}"
                ),
                Ok(payload) => assert!(
                    above_mid.contains(v) && **payload == BranchySource.payload(*v),
                    "batch {batch:?}: v{v} served"
                ),
            }
        }
    }
    let (_, clean) = serve_ok(&reader, &g, &stored, &above_mid);
    assert_eq!(clean.hydrated, 3);

    // Through a root cache: the root verifies and is admitted; nothing
    // else is ever cached, failed or not.
    let cache = CheckoutCache::new(1 << 20);
    let all: Vec<u32> = (0..BranchySource::N).collect();
    let out = Checkout::new(&mem)
        .with_cache(&cache)
        .serve(&g, &stored, &all)
        .expect("serve");
    for v in above_mid {
        let payload = out.results[v as usize].as_ref().expect("ancestor served");
        assert_eq!(**payload, BranchySource.payload(v), "v{v}");
    }
    for v in below_mid {
        let err = out.results[v as usize]
            .as_ref()
            .expect_err("at or below mid");
        assert!(is_mid_mismatch(err), "v{v}: {err}");
    }
    assert_eq!(
        out.stats.hydrated,
        above_mid.len(),
        "only verified nodes count"
    );
    assert_eq!(out.stats.delta_applies, above_mid.len() - 1);
    assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (0, 1));
    assert_eq!(cache.len(), 1, "one root: v0");
    for v in below_mid {
        assert!(
            cache.get(genuine[v as usize]).is_none() && cache.get(bogus).is_none(),
            "v{v} must not be cached"
        );
    }
    assert!(cache.get(genuine[0]).is_some(), "the root v0 is cached");
    for v in [1u32, 6] {
        assert!(
            cache.get(genuine[v as usize]).is_none(),
            "delta-stored v{v} is not cached"
        );
    }
}

/// Ingest the `BranchySource` plan into `mem` and serve every version
/// twice: the first pass hashes each delta-stored node once, the repeat
/// hashes none.
fn warm_branchy(mem: &mut MemStore) -> (VersionGraph, StoredPlan) {
    let (g, plan) = BranchySource::graph_and_plan();
    let stored = PlanExecutor::new(mem)
        .ingest(&g, &plan, &BranchySource)
        .expect("ingest");
    let all: Vec<u32> = (0..BranchySource::N).collect();
    let reader = Checkout::new(&*mem);
    let (_, cold) = serve_ok(&reader, &g, &stored, &all);
    assert_eq!(
        cold.hashed,
        BranchySource::N as usize - 1,
        "one hash per delta"
    );
    let (_, warm) = serve_ok(&reader, &g, &stored, &all);
    assert_eq!(warm.hashed, 0, "a verified chain is not hashed again");
    assert_eq!(warm.hydrated, BranchySource::N as usize);
    (g, stored)
}

/// Serve every `BranchySource` version: the versions in `failing` must
/// all fail with one and the same error, which is returned, and every
/// other version must be served with the source's bytes.
fn serve_branchy_failing(
    mem: &MemStore,
    g: &VersionGraph,
    stored: &StoredPlan,
    failing: &[u32],
) -> ExecError {
    let all: Vec<u32> = (0..BranchySource::N).collect();
    let out = Checkout::new(mem).serve(g, stored, &all).expect("serve");
    let mut error: Option<ExecError> = None;
    for (v, served) in all.iter().zip(&out.results) {
        match served {
            Ok(payload) => assert!(
                !failing.contains(v) && **payload == BranchySource.payload(*v),
                "v{v} served"
            ),
            Err(err) => {
                assert!(failing.contains(v), "v{v}: {err}");
                assert_eq!(error.get_or_insert_with(|| err.clone()), err, "v{v}");
            }
        }
    }
    error.expect("some version failed")
}

/// After a successful warm checkout, editing a stored plan's recorded
/// hash, stored object or parent edge at one node fails that node and
/// every node below it on the next checkout, and the nodes above it are
/// still served: the verification memo never outlives an edit.
#[test]
fn edits_after_a_warm_checkout_rearm_verification() {
    const MID: u32 = 2;
    let mut mem = MemStore::new();

    // Recorded hash of `MID` tampered.
    let (g, mut stored) = warm_branchy(&mut mem);
    let genuine = stored.source_hashes[MID as usize];
    let bogus = ObjectId(genuine.0 ^ 1, genuine.1);
    stored.source_hashes[MID as usize] = bogus;
    let err = serve_branchy_failing(&mem, &g, &stored, &[2, 3, 4, 5]);
    assert_eq!(
        err,
        ExecError::HashMismatch {
            node: MID,
            expected: bogus,
            actual: genuine,
        }
    );

    // v3's delta swapped for its sibling v5's (also a delta off v2): the
    // object is valid in the store, but replays to v5's content.
    let (g, mut stored) = warm_branchy(&mut mem);
    stored.objects[3] = stored.objects[5];
    let err = serve_branchy_failing(&mem, &g, &stored, &[3, 4]);
    assert_eq!(
        err,
        ExecError::HashMismatch {
            node: 3,
            expected: stored.source_hashes[3],
            actual: stored.source_hashes[5],
        }
    );

    // v3 re-pointed at v6's edge (v1 → v6): its delta now replays onto v1.
    let (g, mut stored) = warm_branchy(&mut mem);
    stored.plan.parent[3] = stored.plan.parent[6];
    let err = serve_branchy_failing(&mem, &g, &stored, &[3, 4]);
    assert!(
        matches!(err, ExecError::HashMismatch { node: 3, .. }),
        "{err}"
    );

    // An edit that still verifies: `MID` re-pointed at v6's delta object
    // and hash, so it reconstructs to v6's content. Serving `MID` alone
    // re-verifies it; its children, never reached then, must not be
    // trusted on their old slots, which named `MID`'s old hash.
    let (g, mut stored) = warm_branchy(&mut mem);
    stored.objects[MID as usize] = stored.objects[6];
    stored.source_hashes[MID as usize] = stored.source_hashes[6];
    let reader = Checkout::new(&mem);
    let (served, stats) = serve_ok(&reader, &g, &stored, &[MID]);
    assert_eq!(*served[0], BranchySource.payload(6));
    assert_eq!(stats.hashed, 1);
    let out = reader.serve(&g, &stored, &[3, 5]).expect("serve");
    for (v, served) in [3u32, 5].iter().zip(&out.results) {
        assert!(
            matches!(served, Err(ExecError::HashMismatch { node, .. }) if node == v),
            "v{v} replayed onto v6's content must not be served: {served:?}"
        );
    }
}

/// Four threads serve overlapping batches from one shared stored plan
/// whose verification memo starts empty, on both backends: every thread
/// sees source-identical bytes while the memo fills under it.
#[test]
fn concurrent_checkouts_fill_one_shared_memo() {
    let (_, g, content) = fixtures().swap_remove(0);
    let n = g.n();
    let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
    let plan = msr_plan(&g, "LMG");

    let mut mem = MemStore::new();
    let stored_mem = PlanExecutor::new(&mut mem)
        .ingest(&g, &plan, &content)
        .expect("mem ingest");
    let dir = temp_dir("shared-memo");
    let mut pack = PackStore::open(&dir).expect("open pack");
    let stored_pack = PlanExecutor::new(&mut pack)
        .ingest(&g, &plan, &content)
        .expect("pack ingest");

    fn hammer<S: Store + Sync>(
        store: &S,
        g: &VersionGraph,
        stored: Arc<StoredPlan>,
        expected: &[Payload],
    ) -> usize {
        let n = g.n() as u32;
        // All four start together, so their first walks, which hash and
        // fill the same slots, overlap.
        let start = std::sync::Barrier::new(4);
        let hashed: usize = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4u64)
                .map(|t| {
                    let stored = Arc::clone(&stored);
                    let start = &start;
                    scope.spawn(move || {
                        let reader = Checkout::new(store);
                        start.wait();
                        let mut rng = SmallRng::seed_from_u64(2000 + t);
                        let mut hashed = 0;
                        for _ in 0..12 {
                            let batch: Vec<u32> = (0..8).map(|_| rng.gen_range(0..n)).collect();
                            let (out, stats) = serve_ok(&reader, g, &stored, &batch);
                            for (i, &v) in batch.iter().enumerate() {
                                assert_eq!(*out[i], expected[v as usize], "v{v}");
                            }
                            hashed += stats.hashed;
                        }
                        hashed
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("thread")).sum()
        });
        // Once every chain has verified, a full pass hashes nothing.
        let all: Vec<u32> = (0..n).collect();
        let reader = Checkout::new(store);
        serve_ok(&reader, g, &stored, &all);
        let (out, stats) = serve_ok(&reader, g, &stored, &all);
        for (v, payload) in out.iter().enumerate() {
            assert_eq!(**payload, expected[v], "v{v}");
        }
        assert_eq!(stats.hashed, 0);
        hashed
    }

    let hashed_mem = hammer(&mem, &g, Arc::new(stored_mem), &expected);
    let hashed_pack = hammer(&pack, &g, Arc::new(stored_pack), &expected);
    assert!(hashed_mem > 0 && hashed_pack > 0, "the memo started empty");

    drop(pack);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A migrated stored plan keeps its predecessor's verified chains:
/// versions whose chain is unchanged serve without a hash, a node given
/// a new delta parent is hashed with every node below it, and a node
/// that became materialized is verified by the store alone.
#[test]
fn migrate_rehashes_only_changed_nodes_and_their_subtrees() {
    let mut mem = MemStore::new();
    let (mut g, stored) = warm_branchy(&mut mem);
    // v2 re-parented from v1 onto a new v0 → v2 edge; v6 materialized.
    let e02 = g.add_edge(NodeId(0), NodeId(2), 23 + 12 * 2, 23 + 6 * 2);
    let mut plan = stored.plan.clone();
    plan.parent[2] = Parent::Delta(e02);
    plan.parent[6] = Parent::Materialized;
    let (migrated, stats) = PlanExecutor::new(&mut mem)
        .migrate(&g, &stored, &plan, &BranchySource)
        .expect("migrate");
    assert_eq!(stats.changed, 2);

    let reader = Checkout::new(&mem);
    let (_, reused) = serve_ok(&reader, &g, &migrated, &[0, 1, 6]);
    assert_eq!(reused.hashed, 0, "v1's chain is unchanged; v6 is a root");
    let all: Vec<u32> = (0..BranchySource::N).collect();
    let (served, changed) = serve_ok(&reader, &g, &migrated, &all);
    for (v, payload) in served.iter().enumerate() {
        assert_eq!(**payload, BranchySource.payload(v as u32), "v{v}");
    }
    assert_eq!(changed.hashed, 4, "v2 and v3, v4, v5 below it");
    let (_, warm) = serve_ok(&reader, &g, &migrated, &all);
    assert_eq!(warm.hashed, 0);
}

/// Ingest the `BranchySource` plan into `store`; its only root is v0.
fn ingest_branchy<S: Store>(store: &mut S) -> (VersionGraph, StoredPlan) {
    let (g, plan) = BranchySource::graph_and_plan();
    let stored = PlanExecutor::new(store)
        .ingest(&g, &plan, &BranchySource)
        .expect("ingest");
    (g, stored)
}

/// A root served from the cache is trusted on the same grounds as a
/// fresh read (its object id is its recorded hash, and its bytes
/// verified on admission), so the verification memo still covers the
/// deltas below it: a warm read hashes nothing, hydrates only its
/// deltas and counts one hit, through any reader sharing the cache.
#[test]
fn warm_read_of_a_cached_root_hashes_nothing_and_hydrates_only_deltas() {
    let mut mem = MemStore::new();
    let (g, stored) = ingest_branchy(&mut mem);
    let n = BranchySource::N as usize;
    let all: Vec<u32> = (0..BranchySource::N).collect();
    let cache = CheckoutCache::new(1 << 20);

    let reader = Checkout::new(&mem).with_cache(&cache);
    let (_, cold) = serve_ok(&reader, &g, &stored, &all);
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 1));
    assert_eq!((cold.hydrated, cold.hashed), (n, n - 1));

    for reader in [reader, Checkout::new(&mem).with_cache(&cache)] {
        let (served, warm) = serve_ok(&reader, &g, &stored, &all);
        for (v, payload) in served.iter().enumerate() {
            assert_eq!(**payload, BranchySource.payload(v as u32), "v{v}");
        }
        assert_eq!(warm.hashed, 0, "a cached root keeps its chains trusted");
        assert_eq!((warm.hydrated, warm.delta_applies), (n - 1, n - 1));
        assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0));
    }

    // v4 sits four deltas below the root: only those four hydrate.
    let reader = Checkout::new(&mem).with_cache(&cache);
    let (served, deep) = serve_ok(&reader, &g, &stored, &[4]);
    assert_eq!(*served[0], BranchySource.payload(4));
    assert_eq!((deep.hydrated, deep.hashed, deep.cache_hits), (4, 0, 1));
    assert_eq!(cache.stats().admitted, 1, "the root was admitted once");
}

/// The cache is looked up only after a root's object id matched its
/// recorded hash: a root whose id and hash disagree fails with
/// `HashMismatch`, exactly as without a cache, while the id it names
/// (or the hash it records) is resident.
#[test]
fn root_whose_id_differs_from_its_hash_fails_while_resident() {
    let mut mem = MemStore::new();
    let (g, stored) = ingest_branchy(&mut mem);
    let all: Vec<u32> = (0..BranchySource::N).collect();
    let cache = CheckoutCache::new(1 << 20);
    let reader = Checkout::new(&mem).with_cache(&cache);
    serve_ok(&reader, &g, &stored, &all);
    let genuine = stored.objects[0];
    assert!(cache.get(genuine).is_some(), "the root is resident");
    let bogus = ObjectId(genuine.0 ^ 1, genuine.1);

    // Recorded hash tampered: the object id is the resident root.
    let mut hash_edit = stored.clone();
    hash_edit.source_hashes[0] = bogus;
    // Object id tampered: the recorded hash names the resident root.
    let mut object_edit = stored.clone();
    object_edit.objects[0] = bogus;
    for (tampered, expected, actual) in [(hash_edit, bogus, genuine), (object_edit, genuine, bogus)]
    {
        let before = cache.stats();
        let out = reader.serve(&g, &tampered, &all).expect("serve");
        for (v, served) in out.results.iter().enumerate() {
            assert_eq!(
                served.as_ref().expect_err("every chain crosses the root"),
                &ExecError::HashMismatch {
                    node: 0,
                    expected,
                    actual,
                },
                "v{v}"
            );
        }
        assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (0, 0));
        assert_eq!(cache.stats(), before, "the cache was not consulted");
    }
}

/// `BranchySource` with the root's content swapped: a source that no
/// longer matches the ingested hash.
struct WrongRootSource;

impl VersionSource for WrongRootSource {
    fn version_count(&self) -> usize {
        BranchySource.version_count()
    }

    fn payload(&self, v: u32) -> Payload {
        match v {
            0 => Payload::Sketch(vec![(0, 99)]),
            _ => BranchySource.payload(v),
        }
    }

    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        BranchySource.delta(src, dst)
    }
}

/// A root is admitted only once its bytes verified. A corrupt root with
/// no source to heal from is not admitted, nor is one whose source
/// disagrees with the ingested hash; a root healed from the true source
/// passes the repair path's hash check, is admitted, and then serves
/// later reads from the cache while the store still holds the bad copy.
#[test]
fn only_a_verified_root_read_is_admitted() {
    let mut store = FaultStore::transparent(MemStore::new());
    let (g, stored) = ingest_branchy(&mut store);
    let root = stored.objects[0];
    assert!(store.corrupt_object(root));
    let all: Vec<u32> = (0..BranchySource::N).collect();
    let cache = CheckoutCache::new(1 << 20);

    let no_source = Checkout::new(&store).with_cache(&cache);
    let wrong_source = Checkout::new(&store)
        .with_cache(&cache)
        .with_source(&WrongRootSource);
    for (label, reader) in [
        ("no source", no_source),
        ("disagreeing source", wrong_source),
    ] {
        let out = reader.serve(&g, &stored, &all).expect("serve");
        for (v, served) in out.results.iter().enumerate() {
            assert!(
                matches!(served, Err(ExecError::Store(StoreError::Corrupt { id, .. })) if *id == root),
                "{label}: v{v}: {served:?}"
            );
        }
        assert_eq!(out.stats.cache_misses, 1, "{label}");
        assert_eq!(out.repair.unrepairable, 1, "{label}");
        assert!(
            cache.is_empty(),
            "{label}: a failed root read is not admitted"
        );
        assert_eq!(cache.stats().admitted, 0, "{label}");
    }

    let healing = Checkout::new(&store)
        .with_cache(&cache)
        .with_source(&BranchySource);
    let (served, healed) = serve_ok(&healing, &g, &stored, &all);
    for (v, payload) in served.iter().enumerate() {
        assert_eq!(**payload, BranchySource.payload(v as u32), "v{v}");
    }
    assert_eq!(healed.cache_misses, 1);
    assert_eq!(cache.len(), 1, "the healed root is admitted");
    assert_eq!(
        *cache.get(root).expect("resident"),
        BranchySource.payload(0)
    );

    let out = healing.serve(&g, &stored, &all).expect("serve");
    assert!(out.all_ok());
    assert_eq!(out.stats.cache_hits, 1);
    assert_eq!(out.repair.detected, 0, "the bad copy is not read again");
}
