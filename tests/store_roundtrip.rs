//! Store round-trip integration: solver plans → content-addressed store →
//! reconstructed, hash-verified bytes with measured costs.
//!
//! This suite pins the planning/execution split's contract:
//!
//! * every solver plan reconstructs **all** versions from the store with
//!   hash-verified bytes, and the measured retrieval/storage costs equal
//!   the plan's predicted [`PlanCosts`] **exactly** (the acceptance gate,
//!   also enforced in CI via `repro --experiment store`);
//! * GC never collects an object reachable from a live (retained) plan;
//! * corruption surfaces as a typed [`StoreError::Corrupt`], never as a
//!   silent success;
//! * corpus content is byte-stable across thread-pool widths (the CI
//!   thread matrix).

use dataset_versioning::prelude::*;
use dsv_core::executor::{ExecError, PlanExecutor};
use dsv_delta::corpus::corpus_with_content;
use dsv_delta::store::pack::ObjectLocation;
use dsv_delta::store::{
    hash_object, MemStore, ObjectKind, PackStore, Store, StoreError, VersionSource,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "dsv-roundtrip-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SOLVERS: [&str; 3] = ["LMG", "LMG-All", "DP-MSR"];

fn fixtures() -> Vec<(&'static str, dsv_delta::CorpusResult)> {
    vec![
        // Text content, real Myers deltas.
        (
            "datasharing",
            corpus_with_content(CorpusName::Datasharing, 1.0, 21, true),
        ),
        // Sketch content, chunk-manifest deltas.
        (
            "icu996",
            corpus_with_content(CorpusName::Icu996, 0.015, 22, true),
        ),
    ]
}

/// The acceptance criterion: for every solver plan, all versions
/// reconstruct with hash-verified bytes and measured costs equal predicted
/// costs exactly — on both backends.
#[test]
fn solver_plans_roundtrip_exactly_on_both_backends() {
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    for (label, c) in fixtures() {
        let g = &c.graph;
        let content = c.content.as_ref().expect("content retained");
        let problem = ProblemKind::Msr {
            storage_budget: min_storage_value(g) * 2,
        };
        for solver in SOLVERS {
            let sol = engine
                .solve_with(solver, g, problem, &opts)
                .unwrap_or_else(|e| panic!("{solver} on {label}: {e}"));

            let mut mem = MemStore::new();
            let (_, mem_report) = PlanExecutor::new(&mut mem)
                .run(g, &sol.plan, content)
                .expect("mem roundtrip");

            let dir = temp_dir(label);
            let mut pack = PackStore::open(&dir).expect("open pack");
            let (_, pack_report) = PlanExecutor::new(&mut pack)
                .run(g, &sol.plan, content)
                .expect("pack roundtrip");

            for report in [&mem_report, &pack_report] {
                assert_eq!(report.verified, g.n(), "{solver} on {label}");
                assert_eq!(
                    report.measured.total_retrieval, sol.costs.total_retrieval,
                    "{solver} on {label}: measured retrieval must equal predicted exactly"
                );
                assert_eq!(
                    report.measured.storage, sol.costs.storage,
                    "{solver} on {label}: measured storage must equal predicted exactly"
                );
                assert_eq!(report.measured, sol.costs, "{solver} on {label}");
                assert!(report.agreement());
            }
            // Both backends hold identical object sets (same ids).
            assert_eq!(mem.object_count(), pack.object_count());
            drop(pack);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A constructive DP-BTW plan goes through `solve_and_execute`:
/// reconstruction from the provenance arena produces an executor-legal
/// forest whose **measured** costs equal the plan's predictions — and the
/// predictions are the certified optimum, so the exact solver's gain is
/// realized in stored bytes, not just in metadata.
#[test]
fn btw_exact_plan_roundtrips_through_the_store() {
    let c = corpus_with_content(CorpusName::Datasharing, 1.0, 27, true);
    let g = &c.graph;
    let content = c.content.as_ref().expect("content retained");
    // A BTW-only engine: no fallback solver can mask a broken
    // reconstruction.
    let mut engine = Engine::new();
    engine.register(Box::new(dsv_core::engine::solvers::BtwSolver));
    let problem = ProblemKind::Msr {
        storage_budget: min_storage_value(g) * 2,
    };
    let dir = temp_dir("btw");
    let mut store = PackStore::open(&dir).expect("open pack");
    let exec = engine
        .solve_and_execute(g, problem, &SolveOptions::default(), &mut store, content)
        .expect("solve and execute");
    assert_eq!(exec.solution.meta.solver, "DP-BTW");
    assert!(exec.solution.meta.proven_optimal);
    // The executor-measured costs equal the certificate the DP proved.
    assert_eq!(
        exec.solution.meta.lower_bound,
        Some(exec.report.measured.total_retrieval)
    );
    assert_eq!(exec.report.verified, g.n());
    assert!(exec.report.agreement());
    assert_eq!(exec.report.measured, exec.solution.costs);
    // Retire the plan: GC must drain the store.
    PlanExecutor::new(&mut store)
        .release(&exec.stored)
        .expect("release");
    store.gc().expect("gc");
    assert_eq!(store.object_count(), 0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Engine::solve_and_execute` runs the whole chain in one call.
#[test]
fn solve_and_execute_end_to_end() {
    let c = corpus_with_content(CorpusName::Datasharing, 1.0, 23, true);
    let g = &c.graph;
    let content = c.content.as_ref().expect("content retained");
    let engine = Engine::with_default_solvers();
    let problem = ProblemKind::Msr {
        storage_budget: min_storage_value(g) * 2,
    };
    let dir = temp_dir("sae");
    let mut store = PackStore::open(&dir).expect("open pack");
    let exec = engine
        .solve_and_execute(g, problem, &SolveOptions::default(), &mut store, content)
        .expect("solve and execute");
    assert!(exec.solution.costs.storage <= problem.budget());
    assert_eq!(exec.report.verified, g.n());
    assert!(exec.report.agreement());
    assert_eq!(exec.stored.objects.len(), g.n());
    // Retire the plan: GC must return the store to empty.
    PlanExecutor::new(&mut store)
        .release(&exec.stored)
        .expect("release");
    store.gc().expect("gc");
    assert_eq!(store.object_count(), 0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// GC safety: releasing one plan never collects objects another live plan
/// still references — the survivor must still reconstruct fully.
#[test]
fn gc_never_collects_objects_of_live_plans() {
    let c = corpus_with_content(CorpusName::Datasharing, 1.0, 24, true);
    let g = &c.graph;
    let content = c.content.as_ref().expect("content retained");
    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let problem = ProblemKind::Msr {
        storage_budget: min_storage_value(g) * 2,
    };
    let dir = temp_dir("gc-live");
    let mut store = PackStore::open(&dir).expect("open pack");

    let plans: Vec<_> = ["LMG", "DP-MSR"]
        .into_iter()
        .map(|solver| {
            let sol = engine.solve_with(solver, g, problem, &opts).expect("solve");
            let (stored, report) = PlanExecutor::new(&mut store)
                .run(g, &sol.plan, content)
                .expect("roundtrip");
            assert!(report.agreement());
            stored
        })
        .collect();
    // The two plans share objects (both store deltas along mostly the same
    // cheap edges) — content addressing dedups them.
    let referenced: usize = plans.iter().map(|p| p.objects.len()).sum();
    assert!(
        store.object_count() < referenced,
        "expected cross-plan dedup: {} objects for {referenced} references",
        store.object_count()
    );

    // Retire the first plan; the second must survive GC fully intact.
    PlanExecutor::new(&mut store)
        .release(&plans[0])
        .expect("release");
    store.gc().expect("gc");
    for &id in &plans[1].objects {
        assert!(
            store.contains(id),
            "GC collected {id}, still referenced by a live plan"
        );
    }
    let report = PlanExecutor::new(&mut store)
        .execute(g, &plans[1])
        .expect("survivor reconstructs");
    assert_eq!(report.verified, g.n());
    assert!(report.agreement());

    PlanExecutor::new(&mut store)
        .release(&plans[1])
        .expect("release");
    store.gc().expect("gc");
    assert_eq!(store.object_count(), 0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write-path rollback, for every k: failing the k-th put of an ingest
/// leaves no live reference behind (GC drains the store to empty), and
/// failing the k-th put of a migration leaves the old stored plan
/// verifying with every object's refcount unchanged. Ingest writes one
/// object per version, a migration one per changed plan entry; one put
/// past the last, nothing fails.
#[test]
fn failed_writes_roll_back_every_reference() {
    let c = corpus_with_content(CorpusName::Datasharing, 1.0, 29, true);
    let g = &c.graph;
    let content = c.content.as_ref().expect("content retained");
    let smin = min_storage_value(g);
    let old_plan = lmg_all(g, smin).expect("feasible");
    let new_plan = lmg_all(g, smin * 4).expect("feasible");
    for k in 1..=g.n() as u64 + 1 {
        let mut store =
            FaultStore::new(MemStore::new(), FaultPlan::none().fail_nth(FaultOp::Put, k));
        let result = PlanExecutor::new(&mut store).ingest(g, &old_plan, content);
        if k > g.n() as u64 {
            result.expect("no put fails");
            continue;
        }
        let err = result.expect_err("the k-th put fails");
        assert!(matches!(err, ExecError::Store(_)), "ingest put {k}: {err}");
        store.gc().expect("gc");
        assert_eq!(
            store.object_count(),
            0,
            "ingest put {k}: a reference leaked"
        );
    }

    let changed = (0..g.n())
        .filter(|&v| old_plan.parent[v] != new_plan.parent[v])
        .count() as u64;
    assert!(changed > 0, "the plans must differ");
    for k in 1..=changed + 1 {
        let mut store = FaultStore::transparent(MemStore::new());
        let mut exec = PlanExecutor::new(&mut store);
        let old = exec.ingest(g, &old_plan, content).expect("ingest");
        // Refcounts of the old plan's objects, and the live object count
        // once GC has reclaimed anything unreferenced.
        let snapshot = |s: &mut FaultStore<MemStore>| {
            s.gc().expect("gc");
            let refcounts: Vec<u32> = old
                .objects
                .iter()
                .map(|&id| s.meta(id).expect("live object").refcount)
                .collect();
            (refcounts, s.object_count())
        };
        let before = snapshot(exec.store());
        let puts = exec.store().stats().puts;
        exec.store()
            .set_plan(FaultPlan::none().fail_nth(FaultOp::Put, puts + k));
        let result = exec.migrate(g, &old, &new_plan, content);
        if k > changed {
            result.expect("no put fails");
            continue;
        }
        let err = result.expect_err("the k-th put fails");
        assert!(matches!(err, ExecError::Store(_)), "migrate put {k}: {err}");
        assert_eq!(snapshot(exec.store()), before, "migrate put {k}");
        let report = exec.execute(g, &old).expect("old plan still verifies");
        assert!(report.agreement(), "migrate put {k}");
    }
}

/// Property loop over both backends: random writes, reads, releases, and
/// GC passes — reads always return the exact bytes written, retained
/// objects survive every GC, released ones are reclaimed.
#[test]
fn store_property_roundtrip_loop() {
    let dir = temp_dir("property");
    // A small loose threshold exercises both the pack and the loose path.
    let mut pack = PackStore::open_with_threshold(&dir, 48).expect("open pack");
    let mut mem = MemStore::new();
    let mut rng = SmallRng::seed_from_u64(0x5709E);
    // Model: id -> (bytes, live refcount).
    let mut model: std::collections::HashMap<dsv_delta::ObjectId, (Vec<u8>, u32)> =
        std::collections::HashMap::new();

    for round in 0..60 {
        // Write a batch of random objects (duplicates intended: ~1/4 reuse
        // an existing payload to exercise dedup).
        let batch = rng.gen_range(1..6);
        for _ in 0..batch {
            let kind = if rng.gen_bool(0.5) {
                ObjectKind::Chunk
            } else {
                ObjectKind::Delta
            };
            let len = rng.gen_range(0..120usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            let id_pack = pack.put(kind, &bytes).expect("pack put");
            let id_mem = mem.put(kind, &bytes).expect("mem put");
            assert_eq!(id_pack, id_mem, "backends must agree on addresses");
            let entry = model.entry(id_pack).or_insert_with(|| (bytes.clone(), 0));
            entry.1 += 1;
        }
        // Random releases.
        let ids: Vec<_> = model.keys().copied().collect();
        for id in ids {
            if rng.gen_bool(0.3) {
                let entry = model.get_mut(&id).expect("model entry");
                if entry.1 > 0 {
                    entry.1 -= 1;
                    pack.release(id).expect("pack release");
                    mem.release(id).expect("mem release");
                }
            }
        }
        // Periodic GC; occasionally reopen the pack to exercise
        // persistence of data and reference counts.
        if round % 7 == 3 {
            pack.gc().expect("pack gc");
            mem.gc().expect("mem gc");
            model.retain(|_, (_, rc)| *rc > 0);
        }
        if round % 13 == 5 {
            pack.flush().expect("flush");
            drop(pack);
            pack = PackStore::open_with_threshold(&dir, 48).expect("reopen pack");
        }
        // Every retained object reads back byte-identical from both
        // backends (GC'd-but-unreferenced entries may still linger; only
        // live ones are guaranteed).
        for (id, (bytes, rc)) in &model {
            if *rc > 0 {
                assert_eq!(&pack.get(*id).expect("pack get"), bytes, "round {round}");
                assert_eq!(&mem.get(*id).expect("mem get"), bytes, "round {round}");
                assert_eq!(pack.meta(*id).expect("meta").refcount, *rc);
            }
        }
    }
    // Drain: release everything, GC, both stores end empty.
    for (id, (_, rc)) in &model {
        for _ in 0..*rc {
            pack.release(*id).expect("pack release");
            mem.release(*id).expect("mem release");
        }
    }
    pack.gc().expect("pack gc");
    mem.gc().expect("mem gc");
    assert_eq!(pack.object_count(), 0);
    assert_eq!(mem.object_count(), 0);
    drop(pack);
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end corruption: flipping one stored byte of a plan's object
/// makes execution fail with the typed corruption error.
#[test]
fn corrupted_chunk_fails_execution_with_typed_error() {
    let c = corpus_with_content(CorpusName::Datasharing, 1.0, 25, true);
    let g = &c.graph;
    let content = c.content.as_ref().expect("content retained");
    let engine = Engine::with_default_solvers();
    let problem = ProblemKind::Msr {
        storage_budget: min_storage_value(g) * 2,
    };
    let sol = engine
        .solve_with("LMG-All", g, problem, &SolveOptions::default())
        .expect("solve");

    let dir = temp_dir("corrupt");
    let mut store = PackStore::open(&dir).expect("open pack");
    let stored = PlanExecutor::new(&mut store)
        .ingest(g, &sol.plan, content)
        .expect("ingest");
    // Corrupt the object of some delta-reconstructed node on disk.
    let victim = (0..g.n())
        .find(|&v| matches!(sol.plan.parent[v], Parent::Delta(_)))
        .expect("some delta node");
    match store.locate(stored.objects[victim]).expect("located") {
        ObjectLocation::Packed { payload_offset, .. } => {
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(store.pack_path())
                .expect("open pack file");
            f.seek(SeekFrom::Start(payload_offset)).expect("seek");
            let mut b = [0u8; 1];
            f.read_exact(&mut b).expect("read");
            f.seek(SeekFrom::Start(payload_offset)).expect("seek");
            f.write_all(&[b[0] ^ 0xFF]).expect("write");
        }
        ObjectLocation::Loose { path } => {
            let mut bytes = std::fs::read(&path).expect("read loose");
            bytes[0] ^= 0xFF;
            std::fs::write(&path, bytes).expect("write loose");
        }
    }
    let err = PlanExecutor::new(&mut store)
        .execute(g, &stored)
        .expect_err("corruption must fail execution");
    assert!(
        matches!(err, ExecError::Store(StoreError::Corrupt { .. })),
        "expected a typed corruption error, got {err}"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corpus synthesis draws content from per-version seeded RNG streams, so
/// generated graphs *and bytes* are identical at any thread-pool width —
/// the store round-trip is byte-stable across the CI thread matrix.
#[test]
fn corpus_content_is_stable_across_thread_pool_widths() {
    let generate = || corpus_with_content(CorpusName::Datasharing, 1.0, 26, true);
    let fingerprint = |c: &dsv_delta::CorpusResult| {
        let content = c.content.as_ref().expect("content retained");
        let payloads: Vec<_> = (0..c.graph.n() as u32)
            .map(|v| hash_object(ObjectKind::Chunk, &content.payload_bytes(v)))
            .collect();
        (c.graph.edges().to_vec(), payloads)
    };
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| fingerprint(&generate()));
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool")
        .install(|| fingerprint(&generate()));
    assert_eq!(narrow.0, wide.0, "graph must not depend on pool width");
    assert_eq!(narrow.1, wide.1, "content must not depend on pool width");
}
