//! The end-to-end run: every request goes through [`VersioningService`]
//! exactly as a client would send it, and nothing is traced.
//!
//! A run sets the workload up (several times, so `setup_s` is a median),
//! drives the load for the given number of seconds, then checks out every
//! live version once more as the closing correctness gate. Every served
//! payload is compared with the source, every solved plan must fit its
//! budget, and the load's request stream is recorded so the traced run can
//! replay it call for call.

use crate::fixtures::{Commit, Fixture, Footprint, Kind, Oracle, Workload, FIXTURE_SEED};
use crate::stats::{permutation, poisson_schedule, zipf_schedule, FAILED};
use dsv_core::{
    ExecError, Mutation, OnlinePlanner, PlanId, ProblemKind, Reply, Request, ServiceConfig,
    ServiceError, ServiceStats, Solution, StoragePlan, VersioningService,
};
use dsv_delta::store::codec::Payload;
use dsv_delta::store::Store;
use dsv_vgraph::{Cost, NodeId, VersionGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline of a checkout request: generous, so a request is never
/// cancelled on a healthy run.
pub const CHECKOUT_DEADLINE: Duration = Duration::from_secs(30);
/// Deadline of commits and solves.
pub const LONG_DEADLINE: Duration = Duration::from_secs(120);
/// Queue capacity: large enough that the paced reader never sheds while a
/// flush holds the store lock.
const QUEUE_CAPACITY: usize = 4_096;
/// `read-text` Zipf exponent over a fixed permutation of the versions:
/// skewed enough that a version cache has a hot set to keep (the ten
/// hottest of 49 versions draw 40% of reads), flat enough that no single
/// version's chain decides the median (at 1.1 the median falls between
/// the third and fourth hottest versions and jumps between them).
const ZIPF_EXPONENT: f64 = 0.5;
/// `commit-mix` paced read rate (requests per second) and batch size.
const READ_RATE: f64 = 1_000.0;
const READ_BATCH: usize = 4;
/// How often the paced reader checks outstanding replies, which bounds how
/// late it can notice one.
const REPLY_POLL: Duration = Duration::from_micros(100);
/// Versions per request of the closing gate.
pub const GATE_BATCH: usize = 4_096;
/// `commit-mix` stream commits whose plans `retrieval_per_version`
/// averages: a fixed count, so the metric does not depend on how many
/// commits the timed load completed. 500 commits take the planner through
/// five drift refreshes, in about 3 s.
const PLANNED_COMMITS: usize = 500;

/// One load request as submitted; the traced run replays these in order.
#[derive(Clone)]
pub enum Op {
    /// Check out these versions.
    Checkout(Vec<u32>),
    /// Absorb this commit, then flush the store.
    Commit(Commit),
    /// Solve the fixture graph at this budget.
    Solve(Cost),
}

/// Latency samples in milliseconds per request kind; a failed request is
/// [`FAILED`].
#[derive(Default)]
pub struct Latencies {
    /// `Checkout` requests.
    pub checkout: Vec<f64>,
    /// `Absorb` + flush.
    pub commit: Vec<f64>,
    /// `Solve` requests.
    pub solve: Vec<f64>,
}

impl Latencies {
    /// The samples of one kind.
    pub fn of(&self, kind: Kind) -> &[f64] {
        match kind {
            Kind::Checkout => &self.checkout,
            Kind::Commit => &self.commit,
            Kind::Solve => &self.solve,
        }
    }

    fn push(&mut self, kind: Kind, ms: f64) {
        match kind {
            Kind::Checkout => self.checkout.push(ms),
            Kind::Commit => self.commit.push(ms),
            Kind::Solve => self.solve.push(ms),
        }
    }

    fn append(&mut self, other: Latencies) {
        self.checkout.extend(other.checkout);
        self.commit.extend(other.commit);
        self.solve.extend(other.solve);
    }
}

/// Request outcome counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests shed, cancelled or failed.
    pub failed: u64,
    /// Wrong outputs: payloads differing from the source, plans over
    /// budget or invalid.
    pub wrong: u64,
}

impl Tally {
    /// Fold `other` into `self`.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Everything the end-to-end run measured.
pub struct Untraced {
    /// Wall time of each setup.
    pub setup_s: Vec<f64>,
    /// Service latencies of the kept setup's solve and online commit.
    pub setup_lat: Latencies,
    /// Service latencies of the load.
    pub load: Latencies,
    /// Service latencies of the closing gate's checkouts.
    pub gate_ms: Vec<f64>,
    /// Generator lag: lateness of each paced request, and for closed loops
    /// the client's gap between a reply and its next request (which holds
    /// the client's own checks).
    pub gen_lag_ms: Vec<f64>,
    /// The load's requests in submit order.
    pub ops: Vec<Op>,
    /// Completed requests of the workload's primary kind.
    pub primary_done: u64,
    /// Wall time of the primary request stream.
    pub load_wall_s: f64,
    /// Outcome counts over the load and the gate (a failed setup aborts
    /// the run).
    pub tally: Tally,
    /// Total retrieval per version of every plan the load was served
    /// from (see [`served_plans`]).
    pub retrieval_per_version: Vec<f64>,
    /// Store footprint after GC over the live versions' payload bytes.
    pub bytes_per_user_byte: f64,
    /// The service's counters at the end of the run.
    pub stats: ServiceStats,
}

struct Live<S: Store + Send + Sync + 'static> {
    svc: VersioningService<S>,
    plan: PlanId,
    fixture: Fixture,
    versions: usize,
    lat: Latencies,
    /// The setup's solved plan.
    solution: Box<Solution>,
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: QUEUE_CAPACITY,
        default_deadline: CHECKOUT_DEADLINE,
        ..ServiceConfig::default()
    }
}

fn call<S: Store + Send + Sync + 'static>(
    svc: &VersioningService<S>,
    request: Request,
    deadline: Duration,
) -> Result<Reply, ServiceError> {
    svc.submit_with_deadline(request, deadline)?.wait()
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

fn ms_since(t: Instant) -> f64 {
    ms_between(t, Instant::now())
}

/// Whether `plan` is a valid plan for `g` within `budget`.
pub fn fits(g: &VersionGraph, plan: &StoragePlan, budget: Cost) -> bool {
    plan.validate(g).is_ok() && plan.costs(g).storage <= budget
}

fn retrieval_per_version(g: &VersionGraph, total_retrieval: Cost) -> f64 {
    total_retrieval as f64 / g.n() as f64
}

/// Wrong payloads among a served batch; `Err` when a version was not
/// served at all.
pub fn wrong_payloads(
    versions: &[u32],
    payloads: &[Result<Arc<Payload>, ExecError>],
    oracle: &Oracle,
) -> Result<u64, String> {
    if payloads.len() != versions.len() {
        return Err(format!(
            "{} payloads for {} versions",
            payloads.len(),
            versions.len()
        ));
    }
    let mut wrong = 0;
    for (&v, got) in versions.iter().zip(payloads) {
        match got {
            Ok(p) if **p == *oracle.expected(v) => {}
            Ok(_) => wrong += 1,
            Err(e) => return Err(format!("v{v} not served: {e}")),
        }
    }
    Ok(wrong)
}

fn solve<S: Store + Send + Sync + 'static>(
    svc: &VersioningService<S>,
    g: &Arc<VersionGraph>,
    budget: Cost,
) -> Result<Box<Solution>, String> {
    let request = Request::Solve {
        graph: g.clone(),
        problem: ProblemKind::Msr {
            storage_budget: budget,
        },
    };
    match call(svc, request, LONG_DEADLINE) {
        Ok(Reply::Solved { solution, .. }) => Ok(solution),
        Ok(other) => Err(format!("solve answered {other:?}")),
        Err(e) => Err(format!("solve failed: {e}")),
    }
}

fn commit_online<S: Store + Send + Sync + 'static>(
    svc: &VersioningService<S>,
    plan: PlanId,
    commit: &Commit,
    budget: Cost,
) -> Result<(), String> {
    let request = Request::Absorb {
        plan,
        mutations: commit.mutations.clone(),
        budget,
        source: commit.source.clone(),
    };
    match call(svc, request, LONG_DEADLINE) {
        Ok(Reply::Absorbed { versions, .. }) if versions == commit.versions => {}
        Ok(other) => return Err(format!("absorb answered {other:?}")),
        Err(e) => return Err(format!("absorb failed: {e}")),
    }
    svc.with_store_mut(|s| s.flush())
        .map_err(|e| format!("flush failed: {e}"))
}

/// Check a checkout reply against the source: `Ok(wrong payloads)`, or
/// `Err` when the request or any version in it was not served.
fn served(
    reply: Result<Reply, ServiceError>,
    versions: &[u32],
    oracle: &Oracle,
) -> Result<u64, String> {
    match reply {
        Ok(Reply::CheckedOut { payloads, .. }) => wrong_payloads(versions, &payloads, oracle),
        Ok(other) => Err(format!("checkout answered {other:?}")),
        Err(e) => Err(format!("checkout failed: {e}")),
    }
}

/// Fixture generation, service start, Solve, Commit, flush, and one online
/// commit with its flush. Any failure here aborts the run.
fn setup<S: Store + Send + Sync + 'static>(
    w: Workload,
    open: impl FnOnce() -> Result<S, String>,
) -> Result<(Live<S>, f64), String> {
    let t0 = Instant::now();
    let fixture = w.fixture();
    let svc = VersioningService::with_config(open()?, service_config());
    let mut lat = Latencies::default();
    let t = Instant::now();
    let solution = solve(&svc, &fixture.graph, fixture.budget)?;
    lat.push(Kind::Solve, ms_since(t));
    if !fits(&fixture.graph, &solution.plan, fixture.budget) {
        return Err("setup plan does not fit its budget".into());
    }
    let request = Request::Commit {
        graph: fixture.graph.clone(),
        plan: solution.plan.clone(),
        source: fixture.source.clone(),
    };
    let plan = match call(&svc, request, LONG_DEADLINE) {
        Ok(Reply::Committed { plan, .. }) => plan,
        Ok(other) => return Err(format!("commit answered {other:?}")),
        Err(e) => return Err(format!("commit failed: {e}")),
    };
    svc.with_store_mut(|s| s.flush())
        .map_err(|e| format!("flush failed: {e}"))?;
    let t = Instant::now();
    commit_online(&svc, plan, &fixture.setup_commit, fixture.budget)?;
    lat.push(Kind::Commit, ms_since(t));
    let setup_s = t0.elapsed().as_secs_f64();
    let live = Live {
        svc,
        plan,
        versions: fixture.setup_commit.versions,
        fixture,
        lat,
        solution,
    };
    Ok((live, setup_s))
}

/// What one client thread (or a closed loop) produced.
#[derive(Default)]
struct Load {
    lat: Latencies,
    gen_lag_ms: Vec<f64>,
    ops: Vec<(Instant, Op)>,
    tally: Tally,
    primary_done: u64,
    wall_s: f64,
    retrieval_per_version: Vec<f64>,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.lat.append(other.lat);
        self.gen_lag_ms.extend(other.gen_lag_ms);
        self.ops.extend(other.ops);
        self.tally.add(other.tally);
        self.retrieval_per_version
            .extend(other.retrieval_per_version);
    }

    /// Count one request's outcome; `Ok(wrong)` when it completed.
    fn outcome(&mut self, kind: Kind, latency_ms: f64, result: Result<u64, String>) -> bool {
        self.tally.attempted += 1;
        match result {
            Ok(wrong) => {
                self.tally.wrong += wrong;
                self.lat.push(kind, latency_ms);
                true
            }
            Err(e) => {
                eprintln!("dsvbench: {e}");
                self.tally.failed += 1;
                self.lat.push(kind, FAILED);
                false
            }
        }
    }
}

/// `read-text`: one closed-loop client checking out single versions drawn
/// Zipf over a fixed permutation.
fn read_text_load<S: Store + Send + Sync + 'static>(
    live: &Live<S>,
    seconds: f64,
    seed: u64,
    oracle: &Oracle,
) -> Load {
    let popularity = permutation(live.versions, FIXTURE_SEED);
    let schedule = zipf_schedule(&popularity, 1 << 16, ZIPF_EXPONENT, seed ^ 0x21BF);
    let mut out = Load::default();
    let start = Instant::now();
    let mut prev_done = start;
    for &v in schedule.iter().cycle() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t0 = Instant::now();
        out.gen_lag_ms.push(ms_between(prev_done, t0));
        out.ops.push((t0, Op::Checkout(vec![v])));
        let request = Request::Checkout {
            plan: live.plan,
            versions: vec![v],
        };
        let reply = call(&live.svc, request, CHECKOUT_DEADLINE);
        prev_done = Instant::now();
        let ms = ms_between(t0, prev_done);
        if out.outcome(Kind::Checkout, ms, served(reply, &[v], oracle)) {
            out.primary_done += 1;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// `commit-mix` writer: a closed loop of online commits, each durable at
/// its flush. One writer, so no two absorbs are ever in flight on the
/// plan. The loop stops at the first failed commit: the stream has
/// already numbered its version, so every later commit would name a
/// version the service never added.
fn commit_writer<S: Store + Send + Sync + 'static>(
    live: &Live<S>,
    mut stream: crate::fixtures::CommitStream,
    committed: &AtomicUsize,
    seconds: f64,
) -> Load {
    let mut out = Load::default();
    let start = Instant::now();
    let mut prev_done = start;
    while start.elapsed().as_secs_f64() < seconds {
        let commit = stream.next_commit();
        let t0 = Instant::now();
        out.gen_lag_ms.push(ms_between(prev_done, t0));
        let result = commit_online(&live.svc, live.plan, &commit, live.fixture.budget);
        prev_done = Instant::now();
        let ms = ms_between(t0, prev_done);
        let versions = commit.versions;
        out.ops.push((t0, Op::Commit(commit)));
        if !out.outcome(Kind::Commit, ms, result.map(|()| 0)) {
            break;
        }
        out.primary_done += 1;
        committed.store(versions, Ordering::SeqCst);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// `commit-mix` reader: Poisson arrivals at [`READ_RATE`], each a checkout
/// of [`READ_BATCH`] versions drawn uniformly over the committed versions.
/// Requests are submitted when due whether or not earlier ones have
/// returned, and each latency is timed from its due time.
fn paced_reader<S: Store + Send + Sync + 'static>(
    live: &Live<S>,
    committed: &AtomicUsize,
    seconds: f64,
    seed: u64,
    oracle: &Oracle,
) -> Load {
    struct InFlight {
        due: Instant,
        versions: Vec<u32>,
        ticket: dsv_core::Ticket,
    }
    let arrivals = poisson_schedule(READ_RATE, seconds, seed ^ 0x9EAD);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9EAD_0001);
    let mut out = Load::default();
    let start = Instant::now();
    let mut next = 0;
    let mut in_flight: Vec<InFlight> = Vec::new();
    loop {
        let mut i = 0;
        while i < in_flight.len() {
            if !in_flight[i].ticket.is_ready() {
                i += 1;
                continue;
            }
            let f = in_flight.swap_remove(i);
            let reply = f.ticket.wait();
            let ms = ms_since(f.due);
            out.outcome(Kind::Checkout, ms, served(reply, &f.versions, oracle));
        }
        let Some(&offset) = arrivals.get(next) else {
            if in_flight.is_empty() {
                break;
            }
            std::thread::sleep(REPLY_POLL);
            continue;
        };
        let due = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if now < due {
            // Poll only while replies are outstanding; otherwise sleep
            // until the next arrival is due.
            let wait = due - now;
            std::thread::sleep(if in_flight.is_empty() {
                wait
            } else {
                wait.min(REPLY_POLL)
            });
            continue;
        }
        next += 1;
        out.gen_lag_ms.push(ms_between(due, now));
        let live_versions = committed.load(Ordering::SeqCst) as u32;
        let versions: Vec<u32> = (0..READ_BATCH)
            .map(|_| rng.gen_range(0..live_versions))
            .collect();
        out.ops.push((now, Op::Checkout(versions.clone())));
        let request = Request::Checkout {
            plan: live.plan,
            versions: versions.clone(),
        };
        match live.svc.submit_with_deadline(request, CHECKOUT_DEADLINE) {
            Ok(ticket) => in_flight.push(InFlight {
                due,
                versions,
                ticket,
            }),
            Err(e) => {
                out.outcome(
                    Kind::Checkout,
                    FAILED,
                    Err(format!("checkout refused: {e}")),
                );
            }
        }
    }
    out
}

/// `solve-large`: one closed-loop client solving the fixture graph; request
/// `i` adds `i * 1000` plus a seeded jitter below 1000 to the budget, so no
/// memoized plan can answer it.
fn solve_load<S: Store + Send + Sync + 'static>(live: &Live<S>, seconds: f64, seed: u64) -> Load {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x501E);
    let mut out = Load::default();
    let g = &live.fixture.graph;
    let start = Instant::now();
    let mut prev_done = start;
    let mut i: Cost = 1;
    while start.elapsed().as_secs_f64() < seconds {
        let budget = live.fixture.budget + i * 1_000 + rng.gen_range(0..1_000u64);
        i += 1;
        let t0 = Instant::now();
        out.gen_lag_ms.push(ms_between(prev_done, t0));
        out.ops.push((t0, Op::Solve(budget)));
        let reply = solve(&live.svc, g, budget);
        prev_done = Instant::now();
        let ms = ms_between(t0, prev_done);
        let result = reply.map(|solution| {
            out.retrieval_per_version
                .push(retrieval_per_version(g, solution.costs.total_retrieval));
            u64::from(!fits(g, &solution.plan, budget))
        });
        if out.outcome(Kind::Solve, ms, result) {
            out.primary_done += 1;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Apply one mutation to `planner` as the service's absorb handler does;
/// returns the span name of the planner call.
pub fn absorb(planner: &mut OnlinePlanner, m: &Mutation) -> &'static str {
    match *m {
        Mutation::AddVersion { storage } => {
            planner.add_version(storage);
            "online.add_version"
        }
        Mutation::AddEdge {
            src,
            dst,
            storage,
            retrieval,
        } => {
            planner.add_edge(NodeId(src), NodeId(dst), storage, retrieval);
            "online.add_edge"
        }
        Mutation::Retire { version } => {
            planner.retire_version(NodeId(version));
            "online.retire_version"
        }
    }
}

/// The plans an online workload's load is served from, rebuilt outside
/// the timed window: an [`OnlinePlanner`] adopts the setup's plan as the
/// service's absorb handler does, then takes the setup commit and
/// `commits` through the handler's steps (mutations, then the re-solve
/// fallback when over budget). The planner is deterministic, so these are
/// the plans the service published. Returns the total retrieval per
/// version after each commit and whether the last plan validates and fits
/// the budget; `Err` when the service would have refused a commit.
fn served_plans(
    fixture: &Fixture,
    solution: &Solution,
    commits: impl IntoIterator<Item = Commit>,
) -> Result<(Vec<f64>, bool), String> {
    let mut planner = OnlinePlanner::adopt(
        (*fixture.graph).clone(),
        solution.plan.clone(),
        fixture.budget,
    );
    let mut per_version = Vec::new();
    for commit in std::iter::once(fixture.setup_commit.clone()).chain(commits) {
        for m in &commit.mutations {
            absorb(&mut planner, m);
        }
        if !planner.within_budget() && !planner.resolve_scratch() {
            return Err("an online commit does not fit the budget".into());
        }
        per_version.push(retrieval_per_version(
            planner.graph(),
            planner.total_retrieval(),
        ));
    }
    let fit = fits(planner.graph(), planner.plan(), fixture.budget);
    Ok((per_version, fit))
}

/// Check out every live version and compare each payload with the source.
fn gate<S: Store + Send + Sync + 'static>(live: &Live<S>, oracle: &Oracle) -> Load {
    let mut out = Load::default();
    let all: Vec<u32> = (0..live.versions as u32).collect();
    for batch in all.chunks(GATE_BATCH) {
        let request = Request::Checkout {
            plan: live.plan,
            versions: batch.to_vec(),
        };
        let t0 = Instant::now();
        let reply = call(&live.svc, request, CHECKOUT_DEADLINE);
        let ms = ms_since(t0);
        out.outcome(Kind::Checkout, ms, served(reply, batch, oracle));
    }
    out
}

/// Run workload `w` end to end: `setups` setups (the last one is kept),
/// `seconds` of load, the closing gate, then GC and the footprint.
/// `open(i)` opens the store of setup `i`.
pub fn run<S: Store + Footprint + Send + Sync + 'static>(
    w: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    open: impl Fn(usize) -> Result<S, String>,
) -> Result<Untraced, String> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for i in 0..setups.max(1) {
        drop(kept.take());
        let (live, secs) = setup(w, || open(i))?;
        setup_s.push(secs);
        kept = Some(live);
    }
    let mut live = kept.expect("at least one setup");
    let planned = live.fixture.stream.clone();
    let oracle = Oracle::new(live.fixture.setup_commit.source.clone());
    if w == Workload::ReadText {
        // Materialize the ground truth before the clock starts.
        for v in 0..live.versions as u32 {
            oracle.expected(v);
        }
    }

    let mut load = match w {
        Workload::ReadText => read_text_load(&live, seconds, seed, &oracle),
        Workload::SolveLarge => solve_load(&live, seconds, seed),
        Workload::CommitMix => {
            let stream = live
                .fixture
                .stream
                .take()
                .expect("commit-mix has a commit stream");
            let committed = AtomicUsize::new(live.versions);
            let (mut writer, reader) = std::thread::scope(|s| {
                let writer = s.spawn(|| commit_writer(&live, stream, &committed, seconds));
                let reader = s.spawn(|| paced_reader(&live, &committed, seconds, seed, &oracle));
                (
                    writer.join().expect("writer thread"),
                    reader.join().expect("reader thread"),
                )
            });
            live.versions = committed.load(Ordering::SeqCst);
            writer.merge(reader);
            writer
        }
    };
    load.ops.sort_by_key(|(t, _)| *t);

    let gate = gate(&live, &oracle);
    let mut tally = load.tally;
    tally.add(gate.tally);
    let retrieval_per_version = match w {
        Workload::SolveLarge => {
            let g = &live.fixture.graph;
            let setup = retrieval_per_version(g, live.solution.costs.total_retrieval);
            std::iter::once(setup)
                .chain(load.retrieval_per_version)
                .collect()
        }
        Workload::ReadText | Workload::CommitMix => {
            let commits = planned.into_iter().flat_map(|mut stream| {
                std::iter::repeat_with(move || stream.next_commit()).take(PLANNED_COMMITS)
            });
            let (served, fit) = served_plans(&live.fixture, &live.solution, commits)?;
            tally.wrong += u64::from(!fit);
            served
        }
    };
    live.svc
        .with_store_mut(|s| s.gc())
        .map_err(|e| format!("gc failed: {e}"))?;
    let footprint = live.svc.with_store(|s| s.footprint());
    Ok(Untraced {
        setup_s,
        setup_lat: live.lat,
        load: load.lat,
        gate_ms: gate.lat.checkout,
        gen_lag_ms: load.gen_lag_ms,
        ops: load.ops.into_iter().map(|(_, op)| op).collect(),
        primary_done: load.primary_done,
        load_wall_s: load.wall_s,
        tally,
        retrieval_per_version,
        bytes_per_user_byte: footprint as f64 / oracle.user_bytes(live.versions) as f64,
        stats: live.svc.stats(),
    })
}
