//! Fault-injection and crash-durability integration suite.
//!
//! Three layers of the failure model are pinned here:
//!
//! * **Crash matrix**: a simulated power loss at *every* enumerated
//!   [`CrashPoint`] inside `PackStore` (pack append, journal append,
//!   loose write, index write, index rename, GC rewrite, GC rename, GC
//!   index) followed by a reopen must lose no acknowledged-and-flushed
//!   object, never serve wrong bytes, and leave a fully functional store.
//! * **Model test**: random sequences of put, dedup put, retain, release,
//!   repair, flush, gc, clean drop and crashed drop, each followed by a
//!   reopen, against a `BTreeMap` model of what the last completed flush
//!   acknowledged.
//! * **Seeded property loop**: hundreds of random
//!   put/get/retain/release/gc ops against `FaultStore<MemStore>` and
//!   `FaultStore<PackStore>` under injected transient I/O errors,
//!   permanent read errors, bit flips, and put failures — every
//!   surviving acknowledged object reads back byte-identical (after
//!   repair where needed), and repairs never change refcounts.
//! * **Reopen under faults**: the pack variant drops and reopens the
//!   store between segments, re-arming the fault marks, and the same
//!   invariants must hold across the restart.

use dsv_delta::store::{
    hash_object, CrashPoint, Durability, FaultPlan, FaultStore, MemStore, ObjectId, ObjectKind,
    PackOptions, PackStore, Store, StoreError,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "dsv-faults-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Small loose threshold so both packed and loose tiers are exercised.
fn pack_options() -> PackOptions {
    PackOptions {
        loose_threshold: 64,
        durability: Durability::Full,
    }
}

/// What the store acknowledged before the crash: id → (bytes, refcount).
type Acknowledged = BTreeMap<ObjectId, (Vec<u8>, u32)>;

/// Populate a store with packed + loose objects in both live and dead
/// states, flush (the durability ack barrier), and return the
/// acknowledged *live* set.
fn populate(s: &mut PackStore) -> (Acknowledged, Vec<ObjectId>) {
    let mut acked = Acknowledged::new();
    let mut dead = Vec::new();
    // Dead packed first, so GC compaction genuinely shifts offsets and
    // the stale-index spot check has to catch it.
    let dead_packed = s.put(ObjectKind::Chunk, b"dead packed").expect("put");
    let live_packed = s.put(ObjectKind::Chunk, b"live packed").expect("put");
    s.retain(live_packed).expect("retain");
    let dead_loose = s.put(ObjectKind::Chunk, &[7u8; 100]).expect("put");
    let live_loose = s.put(ObjectKind::Delta, &[9u8; 120]).expect("put");
    s.release(dead_packed).expect("release");
    s.release(dead_loose).expect("release");
    s.flush().expect("ack flush");
    acked.insert(live_packed, (b"live packed".to_vec(), 2));
    acked.insert(live_loose, (vec![9u8; 120], 1));
    dead.push(dead_packed);
    dead.push(dead_loose);
    (acked, dead)
}

/// Drive the store into the given crash point, which must fire.
fn trigger(s: &mut PackStore, point: CrashPoint) {
    s.arm_crash(point);
    let err = match point {
        CrashPoint::PackAppend => s.put(ObjectKind::Chunk, b"torn small").err(),
        CrashPoint::LooseWrite => s.put(ObjectKind::Chunk, &[3u8; 200]).err(),
        CrashPoint::JournalAppend => {
            s.put(ObjectKind::Chunk, b"unflushed").expect("put");
            s.flush().err()
        }
        // The index is written by a checkpoint, which a flush takes once
        // the journal passes half the index: flush fresh ballast objects
        // (never in the acknowledged set) until one does.
        CrashPoint::IndexWrite | CrashPoint::IndexRename => (0..1000).find_map(|i| {
            s.put(ObjectKind::Chunk, format!("ballast {i}").as_bytes())
                .expect("put");
            s.flush().err()
        }),
        CrashPoint::GcRewrite | CrashPoint::GcRename | CrashPoint::GcIndex => s.gc().err(),
    };
    let err = err.expect("armed crash point must fire");
    assert!(
        matches!(err, StoreError::Io { .. }),
        "crash surfaces as Io: {err}"
    );
    assert!(s.crashed(), "store is poisoned after the crash");
    // The dead process writes nothing more: every subsequent op fails.
    assert!(s.put(ObjectKind::Chunk, b"after death").is_err());
    assert!(s.flush().is_err());
}

/// The crash-matrix acceptance gate: after a simulated power loss at
/// every enumerated crash point, reopening recovers every
/// acknowledged-and-flushed object byte-identical with its refcount
/// intact, never serves wrong bytes, and the store keeps working.
#[test]
fn crash_matrix_reopen_loses_no_acknowledged_object() {
    for &point in &CrashPoint::ALL {
        let dir = temp_dir(&format!("crash-{point:?}").to_lowercase());
        let (acked, dead) = {
            let mut s = PackStore::open_with(&dir, pack_options()).expect("open");
            let (acked, dead) = populate(&mut s);
            trigger(&mut s, point);
            (acked, dead)
            // Drop while crashed: the exit-time index write is skipped,
            // like a process that died.
        };

        let mut s = PackStore::open_with(&dir, pack_options())
            .unwrap_or_else(|e| panic!("reopen after {point:?}: {e}"));
        for (&id, (bytes, rc)) in &acked {
            let got = s
                .get(id)
                .unwrap_or_else(|e| panic!("{point:?}: lost acknowledged object {id}: {e}"));
            assert_eq!(&got, bytes, "{point:?}: wrong bytes served for {id}");
            assert_eq!(
                s.meta(id).expect("meta").refcount,
                *rc,
                "{point:?}: refcount drifted for {id}"
            );
        }
        // Dead objects may or may not have survived the torn GC, but a
        // surviving copy must still serve its original (hashed) bytes —
        // never garbage.
        for &id in &dead {
            if s.contains(id) {
                let got = s.get(id).expect("surviving dead object reads");
                assert_eq!(hash_object(s.meta(id).expect("meta").kind, &got), id);
            }
        }
        // The recovered store is fully functional end to end.
        let fresh = s.put(ObjectKind::Chunk, b"post recovery").expect("put");
        assert_eq!(s.get(fresh).expect("get"), b"post recovery");
        s.flush().expect("flush");
        s.release(fresh).expect("release");
        s.gc().expect("gc");
        drop(s);
        // And the post-recovery state itself survives a clean reopen.
        let s = PackStore::open_with(&dir, pack_options()).expect("second reopen");
        for (&id, (bytes, _)) in &acked {
            assert_eq!(&s.get(id).expect("still present"), bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash mid-GC must not resurrect dead objects as *live*: the
/// pre-destruction index barrier persists the zero refcounts first, so
/// any dead object that survives the crash still reports refcount 0 and
/// falls to the next GC.
#[test]
fn crashed_gc_cannot_resurrect_dead_objects_as_live() {
    for &point in &[
        CrashPoint::GcRewrite,
        CrashPoint::GcRename,
        CrashPoint::GcIndex,
    ] {
        let dir = temp_dir(&format!("resurrect-{point:?}").to_lowercase());
        let (_, dead) = {
            let mut s = PackStore::open_with(&dir, pack_options()).expect("open");
            let out = populate(&mut s);
            trigger(&mut s, point);
            out
        };
        let mut s = PackStore::open_with(&dir, pack_options()).expect("reopen");
        for &id in &dead {
            if s.contains(id) {
                assert_eq!(
                    s.meta(id).expect("meta").refcount,
                    0,
                    "{point:?}: dead object {id} came back live"
                );
            }
        }
        // The next GC finishes the job.
        s.gc().expect("gc");
        for &id in &dead {
            assert!(!s.contains(id), "{point:?}: {id} survived a clean gc");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// In-model state of one object.
struct ModelObj {
    kind: ObjectKind,
    bytes: Vec<u8>,
    rc: u32,
}

type Model = BTreeMap<ObjectId, ModelObj>;

/// Read `id` through the fault store, repairing injected faults from the
/// model's redundant copy. Asserts the repair preserves the refcount and
/// that the object heals within a bounded number of rounds.
fn read_healed<S: Store>(fault: &mut FaultStore<S>, id: ObjectId, obj: &ModelObj) -> Vec<u8> {
    for _ in 0..4 {
        match fault.get(id) {
            Ok(bytes) => return bytes,
            Err(StoreError::Io { .. }) | Err(StoreError::Corrupt { .. }) => {
                let rc_before = fault.meta(id).expect("faulted object has meta").refcount;
                fault.repair(id, obj.kind, &obj.bytes).expect("repair");
                assert_eq!(
                    fault.meta(id).expect("meta").refcount,
                    rc_before,
                    "repair changed the refcount of {id}"
                );
            }
            Err(e) => panic!("unexpected error reading {id}: {e}"),
        }
    }
    panic!("object {id} did not heal after repeated repairs")
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_transient_get(0.10)
        .with_permanent_get(0.05)
        .with_bit_flip(0.05)
        .with_put_failures(0.10)
}

/// One segment of the property loop: `ops` random operations against the
/// fault store, keeping `model` as the ground truth.
fn run_fault_ops<S: Store>(
    fault: &mut FaultStore<S>,
    model: &mut Model,
    rng: &mut SmallRng,
    ops: usize,
) {
    for _ in 0..ops {
        let known: Vec<ObjectId> = model.keys().copied().collect();
        let pick = |rng: &mut SmallRng| known[rng.gen_range(0..known.len())];
        match rng.gen_range(0..100u32) {
            // Put: on injected failure the store is untouched; on success
            // the model gains a reference (dedup bumps).
            0..=29 => {
                let len = rng.gen_range(1..200usize);
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
                let kind = if rng.gen_bool(0.5) {
                    ObjectKind::Chunk
                } else {
                    ObjectKind::Delta
                };
                let expected_id = hash_object(kind, &bytes);
                match fault.put(kind, &bytes) {
                    Ok(id) => {
                        assert_eq!(id, expected_id);
                        model
                            .entry(id)
                            .and_modify(|o| o.rc += 1)
                            .or_insert(ModelObj { kind, bytes, rc: 1 });
                    }
                    Err(StoreError::Io { .. }) => {
                        // Injected put failure: the inner store must be
                        // exactly as the model says.
                        assert_eq!(
                            fault.contains(expected_id),
                            model.contains_key(&expected_id),
                            "failed put mutated the store"
                        );
                    }
                    Err(e) => panic!("unexpected put error: {e}"),
                }
            }
            // Read with repair: always byte-identical in the end.
            30..=59 if !known.is_empty() => {
                let id = pick(rng);
                let obj = &model[&id];
                let got = read_healed(fault, id, obj);
                assert_eq!(got, obj.bytes, "wrong bytes for {id}");
            }
            60..=74 if !known.is_empty() => {
                let id = pick(rng);
                fault.retain(id).expect("retain");
                model.get_mut(&id).expect("known").rc += 1;
            }
            75..=89 if !known.is_empty() => {
                let id = pick(rng);
                let obj = model.get_mut(&id).expect("known");
                if obj.rc > 0 {
                    fault.release(id).expect("release");
                    obj.rc -= 1;
                }
            }
            _ => {
                let dead: Vec<ObjectId> = model
                    .iter()
                    .filter(|(_, o)| o.rc == 0)
                    .map(|(&id, _)| id)
                    .collect();
                let stats = fault.gc().expect("gc");
                assert_eq!(
                    stats.collected_objects,
                    dead.len(),
                    "gc collected a different set than the model"
                );
                for id in dead {
                    model.remove(&id);
                    assert!(!fault.contains(id), "collected object still present");
                }
            }
        }
        // Refcounts in the store always match the model exactly.
        for (&id, obj) in model.iter() {
            assert_eq!(
                fault.meta(id).expect("modeled object has meta").refcount,
                obj.rc,
                "refcount drift on {id}"
            );
        }
    }
}

/// Final sweep: every surviving acknowledged object reads back
/// byte-identical (repairing where faults are injected).
fn verify_model<S: Store>(fault: &mut FaultStore<S>, model: &Model) {
    for (&id, obj) in model.iter() {
        let got = read_healed(fault, id, obj);
        assert_eq!(got, obj.bytes, "final sweep: wrong bytes for {id}");
        assert_eq!(fault.meta(id).expect("meta").refcount, obj.rc);
    }
}

#[test]
fn property_loop_mem_backend_survives_injected_faults() {
    for seed in [11u64, 29, 47] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fault = FaultStore::new(MemStore::new(), fault_plan(seed));
        let mut model = Model::new();
        run_fault_ops(&mut fault, &mut model, &mut rng, 300);
        verify_model(&mut fault, &model);
        let stats = fault.stats();
        assert!(
            stats.injected_reads() > 0 && stats.repairs > 0,
            "the plan must actually exercise faults and repairs: {stats:?}"
        );
    }
}

#[test]
fn property_loop_pack_backend_survives_faults_and_reopens() {
    for seed in [13u64, 31] {
        let dir = temp_dir(&format!("prop-{seed}"));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fault = FaultStore::new(
            PackStore::open_with(&dir, pack_options()).expect("open"),
            fault_plan(seed),
        );
        let mut model = Model::new();
        // Three segments with a flush + drop + reopen between them. The
        // reopen re-arms the per-object fault marks (the healed set dies
        // with the decorator), so repairs must keep working afterwards.
        for segment in 0..3 {
            run_fault_ops(&mut fault, &mut model, &mut rng, 100);
            fault.flush().expect("ack flush");
            let inner = fault.into_inner();
            drop(inner);
            let reopened = PackStore::open_with(&dir, pack_options())
                .unwrap_or_else(|e| panic!("reopen segment {segment}: {e}"));
            fault = FaultStore::new(reopened, fault_plan(seed));
            verify_model(&mut fault, &model);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The unified corruption API (satellite): `FaultStore::corrupt_object`
/// behaves identically over both backends — reads fail typed until
/// repair, and repair restores bytes without touching refcounts.
#[test]
fn corrupt_object_is_uniform_across_backends() {
    let dir = temp_dir("uniform");
    let mem = FaultStore::transparent(MemStore::new());
    let pack = FaultStore::transparent(PackStore::open_with(&dir, pack_options()).expect("open"));

    fn check<S: Store>(mut fault: FaultStore<S>) {
        let id = fault.put(ObjectKind::Chunk, b"shared api").expect("put");
        fault.retain(id).expect("retain");
        assert!(fault.corrupt_object(id));
        assert!(matches!(fault.get(id), Err(StoreError::Corrupt { .. })));
        assert!(matches!(fault.get_ref(id), Err(StoreError::Corrupt { .. })));
        fault
            .repair(id, ObjectKind::Chunk, b"shared api")
            .expect("repair");
        assert_eq!(fault.get(id).expect("healed"), b"shared api");
        assert_eq!(fault.meta(id).expect("meta").refcount, 2);
        // Corrupting an absent object reports false.
        assert!(!fault.corrupt_object(ObjectId(1, 2)));
    }
    check(mem);
    check(pack);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the model test expects of one object: its kind, bytes and
/// reference count.
type ModelState = BTreeMap<ObjectId, (ObjectKind, Vec<u8>, u32)>;

/// Bytes of the model test's object number `n`: packed below the
/// 64-byte loose threshold, loose at or above it.
fn model_bytes(n: u64) -> (ObjectKind, Vec<u8>) {
    let kind = if n.is_multiple_of(2) {
        ObjectKind::Chunk
    } else {
        ObjectKind::Delta
    };
    let len = 1 + (n % 7) as usize * 16;
    let bytes = format!("{n:016x}").into_bytes().repeat(len.div_ceil(16));
    (kind, bytes[..len].to_vec())
}

/// Flip one stored byte of `id` on disk, so the next read fails until a
/// repair.
fn corrupt_on_disk(s: &PackStore, id: ObjectId) {
    use dsv_delta::store::pack::ObjectLocation;
    use std::io::{Read, Seek, SeekFrom, Write};
    let (path, at) = match s.locate(id).expect("located") {
        ObjectLocation::Packed { payload_offset, .. } => {
            (s.pack_path().to_path_buf(), payload_offset)
        }
        ObjectLocation::Loose { path } => (path, 0),
    };
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open");
    let mut byte = [0u8; 1];
    f.seek(SeekFrom::Start(at)).expect("seek");
    f.read_exact(&mut byte).expect("read");
    f.seek(SeekFrom::Start(at)).expect("seek");
    f.write_all(&[byte[0] ^ 0xFF]).expect("write");
}

/// Every object in `expected` reads back with its bytes and refcount.
fn assert_matches(s: &PackStore, expected: &ModelState, what: &str) {
    for (&id, (_, bytes, rc)) in expected {
        let got = s
            .get(id)
            .unwrap_or_else(|e| panic!("{what}: lost {id}: {e}"));
        assert_eq!(&got, bytes, "{what}: wrong bytes for {id}");
        assert_eq!(
            s.meta(id).expect("meta").refcount,
            *rc,
            "{what}: refcount of {id}"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The journaled store against a `BTreeMap` model. A completed flush,
    /// a gc that compacted (it checkpoints first) and a clean drop are
    /// the acknowledgement points. After a clean drop the reopened store
    /// equals the model exactly; after a crashed drop every object
    /// acknowledged at the last such point comes back with its bytes and
    /// its refcount, and anything else it holds is an unacknowledged put
    /// that came back whole.
    #[test]
    fn pack_store_matches_model_across_reopens(
        ops in proptest::collection::vec((0u8..9, 0u64..1 << 16), 8..48)
    ) {
        let dir = temp_dir("model");
        let mut s = PackStore::open_with(&dir, pack_options()).expect("open");
        let mut live = ModelState::new();
        let mut acked = ModelState::new();
        let mut universe: BTreeMap<ObjectId, (ObjectKind, Vec<u8>)> = BTreeMap::new();
        let mut fresh = 0u64;
        for (op, r) in ops {
            let pick = (!live.is_empty())
                .then(|| *live.keys().nth(r as usize % live.len()).expect("in range"));
            let mut put_fresh = |s: &mut PackStore, live: &mut ModelState| {
                fresh += 1;
                let (kind, bytes) = model_bytes(r << 16 | fresh);
                let id = s.put(kind, &bytes)?;
                universe.insert(id, (kind, bytes.clone()));
                live.entry(id).or_insert((kind, bytes, 0)).2 += 1;
                Ok::<_, StoreError>(())
            };
            match (op, pick) {
                (0, _) | (1..=4, None) => put_fresh(&mut s, &mut live).expect("put"),
                (1, Some(id)) => {
                    let (kind, bytes, rc) = live.get_mut(&id).expect("live");
                    assert_eq!(s.put(*kind, bytes).expect("dedup put"), id);
                    *rc += 1;
                }
                (2, Some(id)) => {
                    s.retain(id).expect("retain");
                    live.get_mut(&id).expect("live").2 += 1;
                }
                (3, Some(id)) => {
                    let rc = &mut live.get_mut(&id).expect("live").2;
                    if *rc > 0 {
                        s.release(id).expect("release");
                        *rc -= 1;
                    }
                }
                (4, Some(id)) => {
                    let (kind, bytes, _) = &live[&id];
                    corrupt_on_disk(&s, id);
                    assert!(matches!(s.get(id), Err(StoreError::Corrupt { .. })));
                    s.repair(id, *kind, bytes).expect("repair");
                    assert_eq!(&s.get(id).expect("repaired"), bytes);
                }
                (5, _) => {
                    s.flush().expect("flush");
                    acked = live.clone();
                }
                (6, _) => {
                    let had_dead = live.values().any(|o| o.2 == 0);
                    let before = s.pack_file_len();
                    s.gc().expect("gc");
                    live.retain(|_, o| o.2 > 0);
                    if had_dead || s.pack_file_len() < before {
                        acked = live.clone();
                    }
                }
                (7, _) => {
                    drop(s);
                    s = PackStore::open_with(&dir, pack_options()).expect("reopen");
                    assert_matches(&s, &live, "clean reopen");
                    assert_eq!(s.object_count(), live.len());
                    acked = live.clone();
                }
                _ => {
                    // Power loss at a write site picked by `r`. An armed
                    // point that finds nothing to tear (a loose put, an
                    // empty journal, a gc with nothing to compact) never
                    // fires, and that drop is clean.
                    match r % 3 {
                        0 => {
                            s.arm_crash(CrashPoint::PackAppend);
                            let _ = put_fresh(&mut s, &mut live);
                        }
                        1 => {
                            s.arm_crash(CrashPoint::JournalAppend);
                            if let Some(id) = pick {
                                s.retain(id).expect("retain");
                                live.get_mut(&id).expect("live").2 += 1;
                            }
                            if s.flush().is_ok() {
                                acked = live.clone();
                            }
                        }
                        _ => {
                            s.arm_crash(CrashPoint::GcIndex);
                            if s.gc().is_err() {
                                // The pre-destruction checkpoint completed.
                                live.retain(|_, o| o.2 > 0);
                                acked = live.clone();
                            }
                        }
                    }
                    let crashed = s.crashed();
                    drop(s);
                    s = PackStore::open_with(&dir, pack_options()).expect("reopen after crash");
                    if !crashed {
                        assert_matches(&s, &live, "clean reopen");
                        assert_eq!(s.object_count(), live.len());
                        acked = live.clone();
                        continue;
                    }
                    assert_matches(&s, &acked, "crashed reopen");
                    // Rebuild the model from what the store holds: the
                    // acknowledged objects plus unacknowledged puts.
                    live = universe
                        .iter()
                        .filter_map(|(&id, (kind, bytes))| {
                            let meta = s.meta(id)?;
                            assert_eq!(&s.get(id).expect("recovered put"), bytes);
                            Some((id, (*kind, bytes.clone(), meta.refcount)))
                        })
                        .collect();
                    assert_eq!(s.object_count(), live.len(), "the store holds an unknown object");
                    acked = live.clone();
                }
            }
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
