//! Versioning-service integration: robustness under overload, expired
//! deadlines, and injected store faults.
//!
//! This suite pins the service layer's contract:
//!
//! * **overload never deadlocks** — with every worker wedged and the
//!   bounded queue full, further submissions are shed immediately with
//!   `Overloaded { retry_after_hint }`; once the wedge lifts, every
//!   admitted ticket resolves and the queue drains to zero;
//! * **expired deadlines return `Cancelled`, not partial plans** — a
//!   deadline that fires in the queue or mid-solve surfaces as a typed
//!   `Cancelled`, and no `Solved` reply ever arrives past its deadline;
//! * **chaos loop** — concurrent client threads hammer a service over a
//!   `FaultStore`-wrapped `PackStore` at a 1% injected fault rate:
//!   every served payload must be byte-identical to the source, repairs
//!   are counted, and a clean pass afterwards serves with zero faults;
//! * **full-tier determinism** — a service `Solve` with a comfortable
//!   deadline returns exactly the plan a direct `Engine::solve` does;
//! * **one root read per root** — repeated checkouts of a committed plan
//!   read each materialized root from the store once and serve the rest
//!   of its reads from the service's root cache, byte-identically.

use dataset_versioning::prelude::*;
use dsv_delta::evolve::{evolve, ContentMode, EvolveParams, SketchParams};
use dsv_delta::store::codec::Payload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "dsv-service-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A matched (graph, ground-truth source) pair over sketch content.
fn fixture(commits: usize, seed: u64) -> (Arc<VersionGraph>, Arc<CorpusContent>) {
    let ev = evolve(&EvolveParams {
        commits,
        branch_prob: 0.15,
        merge_prob: 0.0,
        max_branches: 4,
        keep_content: true,
        mode: ContentMode::Sketch(SketchParams {
            chunk_size: 64,
            init_bytes: 4096,
            churn_bytes: (256, 1024),
            replace_ratio: 0.3,
        }),
        seed,
    });
    (
        Arc::new(ev.graph),
        Arc::new(ev.content.expect("keep_content")),
    )
}

fn msr(g: &VersionGraph) -> ProblemKind {
    ProblemKind::Msr {
        storage_budget: min_storage_value(g) * 2,
    }
}

/// A [`VersionSource`] delegate whose reads block until a gate opens —
/// wedges a service worker deterministically inside whatever reads it
/// (a `Commit`'s ingest, an `Absorb`'s migrate). The first read signals
/// [`wait_entered`](Self::wait_entered).
struct GatedSource {
    inner: Arc<CorpusContent>,
    /// `(entered, open)`.
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl GatedSource {
    fn new(inner: Arc<CorpusContent>) -> Arc<Self> {
        Arc::new(GatedSource {
            inner,
            state: Mutex::new((false, false)),
            changed: Condvar::new(),
        })
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }

    /// Block until some read has entered the source (and is wedged there
    /// unless the gate is open).
    fn wait_entered(&self) {
        let (state, _) = self
            .changed
            .wait_timeout_while(
                self.state.lock().unwrap(),
                Duration::from_secs(60),
                |state| !state.0,
            )
            .unwrap();
        assert!(state.0, "nothing read the source");
    }

    fn block_until_open(&self) {
        let mut state = self.state.lock().unwrap();
        if !state.0 {
            state.0 = true;
            self.changed.notify_all();
        }
        while !state.1 {
            state = self.changed.wait(state).unwrap();
        }
    }
}

impl VersionSource for GatedSource {
    fn version_count(&self) -> usize {
        self.inner.version_count()
    }

    fn payload(&self, v: u32) -> Payload {
        self.block_until_open();
        self.inner.payload(v)
    }

    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        self.block_until_open();
        self.inner.delta(src, dst)
    }
}

#[test]
fn overload_sheds_immediately_and_drains_without_deadlock() {
    let (g, content) = fixture(16, 3);
    let gated = GatedSource::new(content);
    let plan = min_storage_plan(&g);
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 3,
        ..ServiceConfig::default()
    };
    let svc = VersioningService::with_config(MemStore::new(), cfg);

    // Wedge both workers inside a Commit (the gated source blocks every
    // read), then fill the queue to capacity.
    let commit = |s: &VersioningService<MemStore>| {
        s.submit_with_deadline(
            Request::Commit {
                graph: g.clone(),
                plan: plan.clone(),
                source: gated.clone() as Arc<dyn VersionSource + Send + Sync>,
            },
            Duration::from_secs(60),
        )
    };
    let mut tickets = Vec::new();
    for _ in 0..2 {
        tickets.push(commit(&svc).expect("worker slots admit"));
    }
    // Wait until both workers have actually dequeued their jobs (the
    // queue shows 0 in-flight) before filling the queue.
    while svc.queue_depth() > 0 {
        std::thread::yield_now();
    }
    for _ in 0..3 {
        tickets.push(commit(&svc).expect("queue slots admit"));
    }

    // Queue is full: the next submission is shed *immediately* with a
    // typed error carrying a retry hint.
    let err = commit(&svc).expect_err("over-capacity submission is shed");
    match err {
        ServiceError::Overloaded {
            queue_depth,
            capacity,
            retry_after_hint,
        } => {
            assert_eq!((queue_depth, capacity), (3, 3));
            assert!(retry_after_hint > Duration::ZERO);
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    let stats = svc.stats();
    assert_eq!(stats.shed, 1);
    assert!(stats.queue_depth <= 3, "queue depth stays bounded");
    assert_eq!(stats.queue_high_water, 3);

    // Lift the wedge: every admitted ticket must resolve (no deadlock)
    // and the queue must drain.
    gated.open();
    for t in tickets {
        t.wait().expect("admitted commits complete after the burst");
    }
    assert_eq!(svc.queue_depth(), 0, "queue drains after the shed burst");
    let stats = svc.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.shed, 1);
}

#[test]
fn expired_deadlines_are_cancelled_never_partial() {
    // 3,200 versions: the heuristic rung these deadlines fall to (LMG-All)
    // takes 28–34 ms in release on a 2-vCPU VM, ≥ 35× the largest
    // deadline below. At 400 versions it took ~1 ms and could beat 800 µs.
    let (g, _) = fixture(3_200, 7);
    let svc = VersioningService::new(MemStore::new());
    // An already-expired deadline (queue-stage expiry)…
    let err = svc
        .submit_with_deadline(
            Request::Solve {
                graph: g.clone(),
                problem: msr(&g),
            },
            Duration::ZERO,
        )
        .expect("admission precedes the deadline check")
        .wait()
        .expect_err("expired work must fail");
    assert!(matches!(err, ServiceError::Cancelled { .. }));

    // …and a deadline far too short for a 3,200-node solve (mid-run
    // preemption or the completed-late conversion — either way the
    // reply must be Cancelled, never a truncated plan). Each probe uses
    // a distinct budget so the warm memo cannot answer from cache — the
    // cached tier legitimately *can* beat these deadlines.
    for (i, micros) in [50u64, 200, 800].into_iter().enumerate() {
        let result = svc
            .submit_with_deadline(
                Request::Solve {
                    graph: g.clone(),
                    problem: ProblemKind::Msr {
                        storage_budget: min_storage_value(&g) * 2 + 1 + i as Cost,
                    },
                },
                Duration::from_micros(micros),
            )
            .expect("admitted")
            .wait();
        match result {
            Err(ServiceError::Cancelled { .. }) => {}
            Err(other) => panic!("expected Cancelled, got {other}"),
            Ok(Reply::Solved { .. }) => {
                panic!("a solve cannot beat a {micros}µs deadline on 3,200 nodes")
            }
            Ok(_) => panic!("unexpected reply kind"),
        }
    }
    assert_eq!(svc.stats().completed, 0);
    assert!(svc.stats().cancelled + svc.stats().expired_in_queue >= 4);
}

#[test]
fn full_tier_matches_direct_engine_solve() {
    let (g, _) = fixture(60, 5);
    let problem = msr(&g);
    let svc = VersioningService::new(MemStore::new());
    let Reply::Solved { solution, tier } = svc
        .submit_with_deadline(
            Request::Solve {
                graph: g.clone(),
                problem,
            },
            Duration::from_secs(120),
        )
        .expect("admitted")
        .wait()
        .expect("solves")
    else {
        panic!("expected Solved");
    };
    assert_eq!(tier, ServeTier::Full);
    let direct = Engine::with_default_solvers()
        .solve(&g, problem, &SolveOptions::default())
        .expect("direct solve");
    assert_eq!(
        solution.plan, direct.plan,
        "service full tier is byte-identical to a direct engine solve"
    );
}

#[test]
fn repeated_checkouts_read_each_root_from_the_store_once() {
    let (g, content) = fixture(48, 9);
    let dir = temp_dir("roots");
    let svc = VersioningService::new(PackStore::open(&dir).expect("open pack store"));
    let Reply::Solved { solution, .. } = svc
        .submit_with_deadline(
            Request::Solve {
                graph: g.clone(),
                problem: msr(&g),
            },
            Duration::from_secs(120),
        )
        .expect("admitted")
        .wait()
        .expect("solves")
    else {
        panic!("expected Solved");
    };
    let roots: Vec<u32> = (0..g.n() as u32)
        .filter(|&v| solution.plan.parent[v as usize] == Parent::Materialized)
        .collect();
    assert!(roots.len() > 1 && roots.len() < g.n(), "{roots:?}");
    let Reply::Committed { plan, .. } = svc
        .submit_with_deadline(
            Request::Commit {
                graph: g.clone(),
                plan: solution.plan.clone(),
                source: content.clone() as Arc<dyn VersionSource + Send + Sync>,
            },
            Duration::from_secs(120),
        )
        .expect("admitted")
        .wait()
        .expect("commits")
    else {
        panic!("expected Committed");
    };

    // Three passes of one-version checkouts, then one of every version
    // at once, each waited for before the next is sent.
    let n = g.n() as u32;
    let singles = (0..3).flat_map(|_| (0..n).map(|v| vec![v]));
    let batches: Vec<Vec<u32>> = singles.chain([(0..n).collect()]).collect();
    for versions in &batches {
        let Reply::CheckedOut { payloads, .. } = svc
            .submit_with_deadline(
                Request::Checkout {
                    plan,
                    versions: versions.clone(),
                },
                Duration::from_secs(120),
            )
            .expect("admitted")
            .wait()
            .expect("serves")
        else {
            panic!("expected CheckedOut");
        };
        for (v, served) in versions.iter().zip(&payloads) {
            assert_eq!(
                **served.as_ref().expect("served"),
                content.payload(*v),
                "v{v}"
            );
        }
    }
    let stats = svc.stats();
    assert_eq!(
        stats.root_cache_misses,
        roots.len() as u64,
        "each distinct root is read from the store once"
    );
    // A batch reaches each root on its chains once.
    assert_eq!(
        stats.root_cache_hits + stats.root_cache_misses,
        3 * u64::from(n) + roots.len() as u64
    );
    let root_bytes: u64 = roots
        .iter()
        .map(|&v| content.payload(v).content_size())
        .sum();
    assert_eq!(stats.root_cache_bytes, root_bytes);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_concurrent_traffic_over_faulty_store_serves_exact_bytes() {
    let (g, content) = fixture(48, 21);
    let problem = msr(&g);
    let dir = temp_dir("chaos");
    let store = FaultStore::transparent(PackStore::open(&dir).expect("open pack store"));
    let cfg = ServiceConfig {
        queue_capacity: 256,
        ..ServiceConfig::default()
    };
    let svc = VersioningService::with_config(store, cfg);

    // Solve + commit through the service itself.
    let Reply::Solved { solution, .. } = svc
        .submit_with_deadline(
            Request::Solve {
                graph: g.clone(),
                problem,
            },
            Duration::from_secs(120),
        )
        .expect("admitted")
        .wait()
        .expect("solves")
    else {
        panic!("expected Solved");
    };
    let Reply::Committed { plan, .. } = svc
        .submit_with_deadline(
            Request::Commit {
                graph: g.clone(),
                plan: solution.plan.clone(),
                source: content.clone() as Arc<dyn VersionSource + Send + Sync>,
            },
            Duration::from_secs(120),
        )
        .expect("admitted")
        .wait()
        .expect("commits")
    else {
        panic!("expected Committed");
    };
    svc.with_store_mut(|s| s.inner_mut().flush())
        .expect("flush");

    // Arm 1% transient + permanent + bit-flip faults and hammer the
    // service from several client threads.
    svc.with_store_mut(|s| {
        s.set_plan(
            FaultPlan::seeded(0xC0FFEE)
                .with_transient_get(0.01)
                .with_permanent_get(0.01)
                .with_bit_flip(0.01),
        )
    });
    let n = g.n() as u32;
    let clients = 4;
    let rounds = 12;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let svc = &svc;
            let content = &content;
            scope.spawn(move || {
                for r in 0..rounds {
                    // A deterministic per-client batch mixing hot and
                    // cold versions, duplicates included.
                    let versions: Vec<u32> = (0..8)
                        .map(|i| (c * 31 + r * 17 + i * 7) as u32 % n)
                        .collect();
                    let reply = svc
                        .submit_with_deadline(
                            Request::Checkout {
                                plan,
                                versions: versions.clone(),
                            },
                            Duration::from_secs(120),
                        )
                        .expect("capacity is generous in the chaos loop")
                        .wait()
                        .expect("serve never fails the whole batch");
                    let Reply::CheckedOut { payloads, .. } = reply else {
                        panic!("expected CheckedOut");
                    };
                    for (v, served) in versions.iter().zip(&payloads) {
                        let served = served
                            .as_ref()
                            .expect("every fault heals (retry or re-derive)");
                        assert_eq!(
                            **served,
                            content.payload(*v),
                            "byte-identical payloads under injected faults"
                        );
                    }
                }
            });
        }
    });
    let stats = svc.stats();
    assert!(
        stats.faults_detected > 0,
        "1% fault rate over {} reads must fire at least once",
        clients * rounds * 8
    );
    assert!(
        stats.repairs_applied > 0,
        "detected corruption is written back, not just served around"
    );

    // Disarm and verify the healed store serves cleanly.
    svc.with_store_mut(|s| s.set_plan(FaultPlan::none()));
    let before = svc.stats().faults_detected;
    let all: Vec<u32> = (0..n).collect();
    let Reply::CheckedOut {
        payloads, repair, ..
    } = svc
        .submit_with_deadline(
            Request::Checkout {
                plan,
                versions: all.clone(),
            },
            Duration::from_secs(120),
        )
        .expect("admitted")
        .wait()
        .expect("clean serve")
    else {
        panic!("expected CheckedOut");
    };
    assert_eq!(repair.detected, 0, "healed store has no residual faults");
    assert_eq!(svc.stats().faults_detected, before);
    for (v, served) in all.iter().zip(&payloads) {
        assert_eq!(**served.as_ref().expect("clean"), content.payload(*v));
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An absorb batch naming a version outside the graph is rejected with a
/// typed error before any of it is applied. The plan's planner survives,
/// so a valid absorb and a checkout on the same plan still get replies
/// (on a single worker, which a panic would have killed).
#[test]
fn bad_absorb_batch_is_rejected_and_the_plan_keeps_serving() {
    let (g, content) = fixture(16, 21);
    let n = g.n() as u32;
    let budget = min_storage_value(&g) * 2;
    let plan = lmg_all(&g, budget).expect("feasible");
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let svc = VersioningService::with_config(MemStore::new(), cfg);
    let source = content.clone() as Arc<dyn VersionSource + Send + Sync>;
    let submit = |request| {
        svc.submit_with_deadline(request, Duration::from_secs(60))
            .expect("admitted")
    };
    // Poll with a deadline: a reply that never comes (a dead worker)
    // fails the test instead of hanging it.
    let reply = |ticket: Ticket| {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !ticket.is_ready() {
            assert!(std::time::Instant::now() < deadline, "no reply");
            std::thread::sleep(Duration::from_millis(5));
        }
        ticket.wait()
    };
    let absorb = |mutations| Request::Absorb {
        plan: PlanId(0),
        mutations,
        budget,
        source: source.clone(),
    };
    let committed = reply(submit(Request::Commit {
        graph: g,
        plan,
        source: source.clone(),
    }));
    assert!(matches!(
        committed,
        Ok(Reply::Committed {
            plan: PlanId(0),
            ..
        })
    ));

    // The edge into the batch's own new version `n` is valid (earlier
    // `AddVersion`s count); the retirement of `n + 5` is not.
    let bad = submit(absorb(vec![
        Mutation::AddVersion { storage: 5_000 },
        Mutation::AddEdge {
            src: 0,
            dst: n,
            storage: 100,
            retrieval: 100,
        },
        Mutation::Retire { version: n + 5 },
    ]));
    let valid = submit(absorb(vec![Mutation::AddEdge {
        src: 0,
        dst: n - 1,
        storage: 100,
        retrieval: 100,
    }]));
    let all: Vec<u32> = (0..n).collect();
    let checkout = submit(Request::Checkout {
        plan: PlanId(0),
        versions: all.clone(),
    });

    let err = reply(bad).expect_err("bad batch is rejected");
    assert!(
        matches!(err, ServiceError::InvalidMutation { index: 2, version } if version == n + 5),
        "{err}"
    );
    let Ok(Reply::Absorbed { versions, .. }) = reply(valid) else {
        panic!("expected the valid batch to absorb");
    };
    assert_eq!(versions, n as usize, "nothing of the bad batch was applied");
    let Ok(Reply::CheckedOut { payloads, .. }) = reply(checkout) else {
        panic!("expected the checkout to serve");
    };
    for (v, served) in all.iter().zip(&payloads) {
        assert_eq!(**served.as_ref().expect("served"), content.payload(*v));
    }
}

/// Retiring a plan while an absorb on it is wedged inside `migrate` must
/// wait for the absorb and then release the plan the absorb published,
/// never the one `migrate` consumed. Plan 1 is the same plan committed a
/// second time, so it holds a second reference to every object: a retire
/// that released plan 0's objects twice would take plan 1's references
/// with them, GC would collect plan 1's live objects, and plan 1's next
/// checkout would detect every one of them missing.
#[test]
fn retire_during_absorb_releases_every_reference_once() {
    let (g, content) = fixture(16, 21);
    let n = g.n() as u32;
    let budget = min_storage_value(&g) * 2;
    let plan = min_storage_plan(&g);
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let svc = VersioningService::with_config(MemStore::new(), cfg);
    let submit = |request| {
        svc.submit_with_deadline(request, Duration::from_secs(60))
            .expect("admitted")
    };
    for id in 0..2 {
        let committed = submit(Request::Commit {
            graph: g.clone(),
            plan: plan.clone(),
            source: content.clone(),
        })
        .wait();
        assert!(
            matches!(committed, Ok(Reply::Committed { plan, .. }) if plan == PlanId(id)),
            "{committed:?}"
        );
    }
    // The objects one copy of the plan holds.
    let mut reference = MemStore::new();
    PlanExecutor::new(&mut reference)
        .ingest(&g, &plan, &*content)
        .expect("reference ingest");
    let live = reference.object_count();

    // Retiring the last version changes its stored object, so the absorb
    // reads the gated source inside `migrate` and wedges there.
    let gated = GatedSource::new(content.clone());
    let absorb = submit(Request::Absorb {
        plan: PlanId(0),
        mutations: vec![Mutation::Retire { version: n - 1 }],
        budget,
        source: gated.clone(),
    });
    gated.wait_entered();
    std::thread::scope(|scope| {
        let retire = scope.spawn(|| svc.retire_plan(PlanId(0)));
        // Let the retire get as far as it can before the absorb resumes.
        std::thread::sleep(Duration::from_millis(100));
        gated.open();
        let absorbed = absorb.wait();
        assert!(
            matches!(absorbed, Ok(Reply::Absorbed { .. })),
            "the retire waits for the absorb: {absorbed:?}"
        );
        retire.join().expect("retire thread").expect("retired");
    });

    svc.with_store_mut(|s| s.gc()).expect("gc");
    assert_eq!(
        svc.with_store(|s| s.object_count()),
        live,
        "plan 1 still holds exactly its objects"
    );
    let all: Vec<u32> = (0..n).collect();
    let Ok(Reply::CheckedOut {
        payloads, repair, ..
    }) = submit(Request::Checkout {
        plan: PlanId(1),
        versions: all.clone(),
    })
    .wait()
    else {
        panic!("expected plan 1 to serve");
    };
    assert_eq!(repair.detected, 0, "plan 1 lost objects: {repair:?}");
    for (v, served) in all.iter().zip(&payloads) {
        assert_eq!(**served.as_ref().expect("served"), content.payload(*v));
    }
}
