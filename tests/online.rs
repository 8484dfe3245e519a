//! Differential suite for online planning and live plan migration.
//!
//! Random mutation streams (add version, add edges, retire) run against
//! the [`OnlinePlanner`] on ER/path/tree/shard-forest fixtures: every
//! intermediate plan must validate and fit the budget, the declared
//! regret bound against from-scratch LMG-All must hold at the end of
//! every stream, and [`PlanExecutor::migrate`] must leave the store
//! byte-identical to a fresh ingest of the new plan — with GC draining
//! exactly the superseded objects. A multi-threaded service chaos loop
//! absorbs commits while checkouts are in flight and demands zero wrong
//! bytes throughout. The from-scratch refresh
//! ([`OnlinePlanner::resolve_scratch`]) is pinned byte-identical to
//! calling LMG-All directly on the mutated graph.

use dataset_versioning::core::heuristics::lmg_all::lmg_all_with_stats;
use dataset_versioning::delta::store::codec::{encode_sketch_delta, Payload};
use dataset_versioning::prelude::*;
use dataset_versioning::vgraph::generators::{
    bidirectional_path, erdos_renyi_bidirectional, random_tree, shard_forest, CostModel,
};
use std::sync::Arc;

/// Deterministic splitmix64 stream for mutation schedules.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn fixtures() -> Vec<(String, VersionGraph)> {
    let model = CostModel::default();
    let mut out = Vec::new();
    for seed in 0..2u64 {
        out.push((
            format!("er-{seed}"),
            erdos_renyi_bidirectional(24, 0.25, &model, seed),
        ));
        out.push((format!("path-{seed}"), bidirectional_path(20, &model, seed)));
        out.push((format!("tree-{seed}"), random_tree(18, &model, seed)));
    }
    out.push(("forest".into(), shard_forest(3, 8, 2, &model, 9)));
    out
}

/// Apply one random commit (a new version plus 1–2 edges to live nodes,
/// occasionally a retirement) to the planner. Returns how many mutations
/// were absorbed.
fn random_commit(p: &mut OnlinePlanner, rng: &mut Rng, step: u64) -> usize {
    let mut absorbed = 0;
    // Every third commit also retires a random still-live version.
    if step % 3 == 2 {
        let n = p.graph().n() as u64;
        for _ in 0..8 {
            let cand = NodeId(rng.below(n) as u32);
            if !p.graph().is_retired(cand) {
                p.retire_version(cand);
                absorbed += 1;
                break;
            }
        }
    }
    let storage = 5_000 + rng.below(10_000);
    let v = p.add_version(storage);
    absorbed += 1;
    let edges = 1 + rng.below(2);
    for _ in 0..edges {
        // Attach to a live (non-retired) existing node.
        let mut u = NodeId(rng.below(v.0 as u64) as u32);
        for _ in 0..8 {
            if !p.graph().is_retired(u) {
                break;
            }
            u = NodeId(rng.below(v.0 as u64) as u32);
        }
        let (s, r) = (50 + rng.below(450), 50 + rng.below(450));
        p.add_edge(u, v, s, r);
        p.add_edge(v, u, s + 10, r + 10);
        absorbed += 3; // counts both edges + the version above loosely
    }
    absorbed
}

fn assert_settled(name: &str, step: u64, p: &OnlinePlanner) {
    p.plan()
        .validate(p.graph())
        .unwrap_or_else(|e| panic!("{name} step {step}: plan invalid: {e}"));
    let costs = p.plan().costs(p.graph());
    assert_eq!(
        costs.total_retrieval,
        p.total_retrieval(),
        "{name} step {step}: tracked retrieval drifted"
    );
    assert_eq!(
        costs.storage,
        p.storage(),
        "{name} step {step}: tracked storage drifted"
    );
}

#[test]
fn mutation_streams_stay_valid_in_budget_and_bounded_regret() {
    for (name, g) in fixtures() {
        let budget = min_storage_value(&g) * 4;
        let mut p = OnlinePlanner::new(g, budget).expect("feasible fixture");
        let mut rng = Rng(0xD5EED ^ name.len() as u64);
        for step in 0..14u64 {
            random_commit(&mut p, &mut rng, step);
            if !p.within_budget() {
                // The service's degradation ladder: incremental repair
                // could not fit the budget, fall back to a full re-solve —
                // and if even that fails, the mutated instance itself must
                // be infeasible (retirements force-materialize versions
                // until min storage exceeds the frozen budget). Anything
                // else is a hole in the repair machinery.
                let refit = p.resolve_scratch();
                assert!(
                    refit || min_storage_value(p.graph()) > budget,
                    "{name} step {step}: storage {} over budget {} on a feasible instance",
                    p.storage(),
                    budget
                );
            }
            assert_settled(&name, step, &p);
        }
        // Regret gate: the path-dependent online plan stays within the
        // declared bound of a from-scratch solve on the mutated graph.
        match lmg_all_with_stats(p.graph(), budget) {
            Some((_, scratch)) => {
                let online = p.total_retrieval();
                assert!(
                    online as f64 <= ONLINE_REGRET_BOUND * (scratch.total_retrieval.max(1)) as f64,
                    "{name}: regret violated: online {online} vs scratch {}",
                    scratch.total_retrieval
                );
            }
            None => assert!(
                !p.within_budget(),
                "{name}: scratch infeasible but the online plan fits the budget"
            ),
        }
    }
}

/// After every random commit, `resolve_scratch` leaves exactly the plan
/// LMG-All builds on the mutated graph (or reports the budget unmet when
/// LMG-All refuses), and the stream keeps absorbing incrementally from
/// that rebuilt state with the settled invariants holding.
#[test]
fn resolve_scratch_is_byte_identical_to_the_oracle() {
    for (name, g) in fixtures() {
        let budget = min_storage_value(&g) * 4;
        let mut p = OnlinePlanner::new(g, budget).expect("feasible fixture");
        let mut rng = Rng(0xFACE ^ name.len() as u64);
        for step in 0..8u64 {
            random_commit(&mut p, &mut rng, step);
            assert_settled(&name, step, &p);
            let fits = p.resolve_scratch();
            match lmg_all_with_stats(p.graph(), budget) {
                Some((oracle, _)) => {
                    assert!(fits, "{name} step {step}: oracle fits, re-solve does not");
                    assert_eq!(
                        p.plan(),
                        &oracle,
                        "{name} step {step}: resolve_scratch must match the oracle byte-for-byte"
                    );
                }
                // Instance mutated infeasible: the oracle refuses and the
                // planner must agree it is over budget.
                None => assert!(!fits && !p.within_budget(), "{name} step {step}"),
            }
            assert_settled(&name, step, &p);
        }
        assert!(p.stats().scratch_solves >= 8, "{name}");
    }
}

/// A sketch source over generated manifests: version `v` owns chunks
/// derived from `v`, overlapping with its neighbours so deltas are small.
struct StreamSource {
    manifests: Vec<Vec<(u64, u32)>>,
}

impl StreamSource {
    fn manifest(v: u64) -> Vec<(u64, u32)> {
        // 6 rolling chunks + 2 private ones: consecutive versions share
        // most content.
        let mut m: Vec<(u64, u32)> = (v..v + 6).map(|c| (c + 1, 64 + (c % 7) as u32)).collect();
        m.push((1_000 + 2 * v + 1, 128));
        m.push((1_000 + 2 * v + 2, 96));
        m
    }

    fn covering(n: usize) -> Self {
        StreamSource {
            manifests: (0..n as u64).map(Self::manifest).collect(),
        }
    }
}

impl VersionSource for StreamSource {
    fn version_count(&self) -> usize {
        self.manifests.len()
    }
    fn payload(&self, v: u32) -> Payload {
        Payload::Sketch(self.manifests[v as usize].clone())
    }
    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        let (a, b) = (&self.manifests[src as usize], &self.manifests[dst as usize]);
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

#[test]
fn migration_matches_fresh_ingest_and_gc_drains_exactly_the_dead() {
    let model = CostModel::default();
    let g = bidirectional_path(10, &model, 3);
    let n0 = g.n();
    let budget = min_storage_value(&g) * 4;
    let mut p = OnlinePlanner::new(g, budget).expect("feasible");

    let mut store = MemStore::new();
    let mut exec = PlanExecutor::new(&mut store);
    let mut stored = exec
        .ingest(p.graph(), p.plan(), &StreamSource::covering(n0))
        .expect("initial ingest");

    let mut rng = Rng(0xB00);
    for step in 0..8u64 {
        random_commit(&mut p, &mut rng, step);
        let n = p.graph().n();
        let source = StreamSource::covering(n);
        let (migrated, stats) = exec
            .migrate(p.graph(), &stored, p.plan(), &source)
            .expect("migrate");
        assert_eq!(stats.nodes, n);
        assert!(stats.added >= 1, "each commit adds a version");
        // Hash-verify every version against the source ground truth.
        let report = exec.execute(p.graph(), &migrated).expect("verify");
        assert_eq!(report.verified, n, "step {step}: all versions verify");
        // GC drains exactly the superseded objects: afterwards the store
        // holds precisely the live plan's distinct objects, and the plan
        // still verifies.
        exec.store().gc().expect("gc");
        let mut live: Vec<ObjectId> = migrated.objects.clone();
        live.sort_unstable();
        live.dedup();
        assert_eq!(
            exec.store().object_count(),
            live.len(),
            "step {step}: store holds exactly the live objects after gc"
        );
        let report = exec.execute(p.graph(), &migrated).expect("verify after gc");
        assert_eq!(report.verified, n);
        // Byte-identical to a fresh ingest of the same plan: the store is
        // content-addressed, so id equality pins the bytes.
        let mut fresh_store = MemStore::new();
        let fresh = PlanExecutor::new(&mut fresh_store)
            .ingest(p.graph(), p.plan(), &source)
            .expect("fresh ingest");
        assert_eq!(migrated.objects, fresh.objects, "step {step}");
        assert_eq!(migrated.source_hashes, fresh.source_hashes, "step {step}");
        stored = migrated;
    }
}

#[test]
fn service_chaos_commits_while_checkouts_fly_with_zero_wrong_bytes() {
    let model = CostModel::default();
    let g = bidirectional_path(12, &model, 5);
    let n0 = g.n();
    let budget = min_storage_value(&g) * 6;
    let plan = lmg_all(&g, budget).expect("feasible");
    let svc = Arc::new(VersioningService::new(MemStore::new()));
    let Reply::Committed { plan: id, .. } = svc
        .submit_with_deadline(
            Request::Commit {
                graph: Arc::new(g),
                plan,
                source: Arc::new(StreamSource::covering(n0)),
            },
            std::time::Duration::from_secs(60),
        )
        .expect("admitted")
        .wait()
        .expect("committed")
    else {
        panic!("expected Committed");
    };

    const COMMITS: usize = 10;
    let committer = {
        let svc = svc.clone();
        std::thread::spawn(move || {
            for i in 0..COMMITS {
                let n = n0 + i;
                let v = n as u32;
                let reply = svc
                    .submit_with_deadline(
                        Request::Absorb {
                            plan: id,
                            mutations: vec![
                                Mutation::AddVersion {
                                    storage: 6_000 + i as u64,
                                },
                                Mutation::AddEdge {
                                    src: v - 1,
                                    dst: v,
                                    storage: 120,
                                    retrieval: 100,
                                },
                                Mutation::AddEdge {
                                    src: v,
                                    dst: v - 1,
                                    storage: 130,
                                    retrieval: 110,
                                },
                            ],
                            budget,
                            source: Arc::new(StreamSource::covering(n + 1)),
                        },
                        std::time::Duration::from_secs(60),
                    )
                    .expect("admitted")
                    .wait()
                    .expect("absorbed");
                let Reply::Absorbed { versions, .. } = reply else {
                    panic!("expected Absorbed");
                };
                assert_eq!(versions, n + 1);
            }
        })
    };

    // Three reader threads hammer the initial version range (always
    // covered by every published snapshot) while commits land.
    let readers: Vec<_> = (0..3u64)
        .map(|t| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let mut rng = Rng(0xC0FFEE + t);
                let mut served = 0usize;
                while !std::thread::panicking() && served < 120 {
                    let versions: Vec<u32> = (0..4).map(|_| rng.below(n0 as u64) as u32).collect();
                    let reply = svc
                        .submit_with_deadline(
                            Request::Checkout {
                                plan: id,
                                versions: versions.clone(),
                            },
                            std::time::Duration::from_secs(60),
                        )
                        .expect("admitted")
                        .wait()
                        .expect("served");
                    let Reply::CheckedOut { payloads, .. } = reply else {
                        panic!("expected CheckedOut");
                    };
                    for (v, p) in versions.iter().zip(&payloads) {
                        let p = p.as_ref().expect("clean store serves");
                        assert_eq!(
                            **p,
                            Payload::Sketch(StreamSource::manifest(*v as u64)),
                            "wrong bytes for v{v}"
                        );
                        served += 1;
                    }
                }
            })
        })
        .collect();

    committer.join().expect("committer");
    for r in readers {
        r.join().expect("reader");
    }

    // Final state: the plan serves every version, byte-identically.
    let all: Vec<u32> = (0..(n0 + COMMITS) as u32).collect();
    let Reply::CheckedOut { payloads, .. } = svc
        .submit_with_deadline(
            Request::Checkout {
                plan: id,
                versions: all.clone(),
            },
            std::time::Duration::from_secs(60),
        )
        .expect("admitted")
        .wait()
        .expect("served")
    else {
        panic!("expected CheckedOut");
    };
    for (v, p) in all.iter().zip(&payloads) {
        let p = p.as_ref().expect("served");
        assert_eq!(**p, Payload::Sketch(StreamSource::manifest(*v as u64)));
    }
    let stats = svc.stats();
    assert_eq!(stats.absorbed, COMMITS as u64);
}
