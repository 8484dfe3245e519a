//! A shared versioning service: admission control, deadline propagation,
//! and graceful degradation under overload.
//!
//! One [`VersioningService`] owns an [`Engine`], a content-addressed
//! store, and a registry of committed plans, and serves three request
//! kinds from many concurrent clients ([`Request::Solve`],
//! [`Request::Checkout`], [`Request::Commit`]) on a fixed pool of worker
//! threads. Robustness is the point, in four pieces:
//!
//! * **Admission control** — the request queue is bounded. A request
//!   arriving over capacity is rejected *immediately* with
//!   [`ServiceError::Overloaded`] carrying a `retry_after_hint` derived
//!   from the observed service rate, instead of queueing without bound.
//!   Queue depth, high-water mark, and shed counts are exposed via
//!   [`VersioningService::stats`].
//! * **Deadline propagation** — every admitted request carries a
//!   deadline. At dispatch it becomes a [`CancelToken`] child of the
//!   service root token (min-of-chain semantics, see [`crate::cancel`]),
//!   which the DPs, the brute-force enumeration and the sharded solve
//!   already poll mid-run — expired work is preempted and surfaces as
//!   [`ServiceError::Cancelled`], **never** as a late or truncated
//!   result: even a reply computed successfully is converted to
//!   `Cancelled` if its deadline passed while computing.
//! * **Graceful degradation** — a `Solve` under deadline pressure walks
//!   a ladder of engine calls instead of failing: with comfortable time
//!   left it runs [`Engine::solve`] over the whole registry
//!   ([`ServeTier::Full`]); with little time it runs
//!   [`Engine::solve_with`] on LMG-All alone ([`ServeTier::Heuristic`]);
//!   with almost none it makes the same call under an already-fired
//!   token, which answers from the [`SharedWork`] memo of a
//!   previously-seen graph fingerprint without computing anything
//!   ([`ServeTier::Cached`]). Every degraded reply is labeled with the
//!   tier that produced it, and every tier's plan is an engine
//!   [`Solution`], validated and budget-checked like any other —
//!   degradation trades optimality, never correctness.
//! * **Fault-tolerant reads** — `Checkout` requests go through the
//!   batched self-healing reader ([`Checkout::serve`] with a
//!   [`VersionSource`]): transient store faults are retried
//!   immediately, corrupt objects are re-derived from the source,
//!   hash-verified, served, and written back via
//!   [`PlanExecutor::apply_repairs`] — a fault under concurrent traffic
//!   heals instead of failing the request. Verified, decoded
//!   materialized roots stay in one byte-budgeted [`CheckoutCache`]
//!   shared by every plan, so a read replays its deltas without reading
//!   its root again; a root's stored bytes are checked again on its next
//!   miss.
//!
//! The service is deliberately synchronous-over-threads (no async
//! runtime): workers are plain OS threads sized to the pool width, and
//! clients rendezvous with their reply through a [`Ticket`] (a
//! one-shot slot + condvar). Everything composes from pieces that
//! already exist — the [`Engine`], `SharedWork`, the batched
//! checkout, the fault-injecting store decorator — which keeps the
//! layer small and the failure semantics inherited rather than invented.

use crate::cancel::CancelToken;
use crate::checkout::{Checkout, CheckoutCache};
use crate::engine::shared::SharedWork;
use crate::engine::{Engine, Solution, SolveError, SolveOptions};
use crate::executor::{ExecError, MigrationStats, PlanExecutor, StoredPlan};
use crate::online::OnlinePlanner;
use crate::plan::StoragePlan;
use crate::problem::ProblemKind;
use dsv_delta::store::codec::Payload;
use dsv_delta::store::{Store, VersionSource};
use dsv_vgraph::{Cost, NodeId, VersionGraph};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifier of a plan committed into the service's store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub u64);

impl fmt::Display for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan#{}", self.0)
    }
}

/// One version-graph mutation for [`Request::Absorb`].
#[derive(Clone, Copy, Debug)]
pub enum Mutation {
    /// Append a new version.
    AddVersion {
        /// Materialization (full-storage) cost of the new version.
        storage: Cost,
    },
    /// Append a delta edge between two existing versions.
    AddEdge {
        /// Source version id.
        src: u32,
        /// Destination version id.
        dst: u32,
        /// Delta storage cost.
        storage: Cost,
        /// Delta retrieval cost.
        retrieval: Cost,
    },
    /// Retire a version (tombstone — zero storage, `INF` incident
    /// deltas; see `VersionGraph::retire_version`).
    Retire {
        /// The version to retire.
        version: u32,
    },
}

/// A client request.
pub enum Request {
    /// Solve `problem` on `graph` (degradable under deadline pressure).
    Solve {
        /// The version graph to plan for.
        graph: Arc<VersionGraph>,
        /// The optimization problem.
        problem: ProblemKind,
    },
    /// Reconstruct `versions` from a committed plan through the
    /// self-healing batched reader.
    Checkout {
        /// A plan previously returned by [`Reply::Committed`].
        plan: PlanId,
        /// Requested version ids (duplicates allowed, any order).
        versions: Vec<u32>,
    },
    /// Ingest a solved plan's objects into the store and register it
    /// for serving.
    Commit {
        /// The version graph the plan was solved on.
        graph: Arc<VersionGraph>,
        /// The storage plan to materialize.
        plan: StoragePlan,
        /// Ground-truth content provider (kept for self-healing reads).
        source: Arc<dyn VersionSource + Send + Sync>,
    },
    /// Absorb graph mutations into a live committed plan **online**:
    /// mutate → incremental re-plan ([`OnlinePlanner`]) → migrate only
    /// the changed objects ([`PlanExecutor::migrate`]) — instead of a
    /// from-scratch solve plus full re-ingest per commit. Falls back to
    /// a full re-solve when the feasibility gate trips; if even that is
    /// infeasible the request fails and the previous plan stays live.
    Absorb {
        /// A plan previously returned by [`Reply::Committed`].
        plan: PlanId,
        /// The mutations of this commit, applied in order.
        mutations: Vec<Mutation>,
        /// Storage budget the online plan is settled under (used when
        /// this plan's online state is first created; later absorbs
        /// keep the original budget).
        budget: Cost,
        /// Ground-truth content for the *mutated* graph (must cover
        /// every version, old and new).
        source: Arc<dyn VersionSource + Send + Sync>,
    },
}

/// Which rung of the degradation ladder produced a `Solve` reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeTier {
    /// [`Engine::solve`] (preference-order dispatch over the whole
    /// registry) within the deadline.
    Full,
    /// Heuristic-only (LMG-All) under deadline pressure.
    Heuristic,
    /// Served from the [`SharedWork`] memo of a previously-seen graph
    /// fingerprint without computing anything.
    Cached,
}

impl ServeTier {
    /// Stable lowercase label (JSON reports, logs).
    pub fn label(self) -> &'static str {
        match self {
            ServeTier::Full => "full",
            ServeTier::Heuristic => "heuristic",
            ServeTier::Cached => "cached",
        }
    }
}

/// A successful reply.
#[derive(Debug)]
pub enum Reply {
    /// A validated plan, labeled by the degradation tier that produced
    /// it.
    Solved {
        /// The checked solution.
        solution: Box<Solution>,
        /// Producing rung of the degradation ladder.
        tier: ServeTier,
    },
    /// Reconstructed payloads, one per requested version in request
    /// order (lenient: independent subtree failures stay per-version).
    CheckedOut {
        /// Per-version results.
        payloads: Vec<Result<Arc<Payload>, ExecError>>,
        /// Fault-handling counters for the batch.
        repair: crate::checkout::RepairStats,
        /// Store repairs written back after serving.
        repairs_applied: usize,
    },
    /// The plan is ingested and ready for [`Request::Checkout`].
    Committed {
        /// Handle for subsequent checkouts.
        plan: PlanId,
        /// Number of versions the plan covers.
        versions: usize,
    },
    /// The mutations were absorbed and the stored plan migrated in
    /// place; the same [`PlanId`] now serves the mutated graph.
    Absorbed {
        /// The (unchanged) plan handle.
        plan: PlanId,
        /// Versions the migrated plan covers.
        versions: usize,
        /// What the migration actually moved.
        migration: MigrationStats,
        /// Whether the degradation fallback (full from-scratch re-solve)
        /// ran instead of pure incremental absorption.
        resolved_from_scratch: bool,
    },
}

/// Why a request failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Rejected at admission: the bounded queue is full. Retry after
    /// `retry_after_hint` (derived from the observed service rate and
    /// current depth).
    Overloaded {
        /// Queue depth at rejection time.
        queue_depth: usize,
        /// The configured capacity.
        capacity: usize,
        /// Suggested client backoff before retrying.
        retry_after_hint: Duration,
    },
    /// The request's deadline expired — in the queue, mid-solve
    /// (cooperatively preempted), or after computing but before
    /// replying. Never accompanied by a partial result.
    Cancelled {
        /// Where the deadline caught the request.
        stage: &'static str,
    },
    /// The solve failed for a non-deadline reason (infeasible budget,
    /// no supporting solver, resource limits).
    Solve(SolveError),
    /// A store/executor failure that retries and source re-derivation
    /// could not heal.
    Exec(ExecError),
    /// [`Request::Checkout`] named a plan that was never committed (or
    /// was retired).
    UnknownPlan(PlanId),
    /// A [`Request::Absorb`] mutation names a version the graph does not
    /// have at that point in the batch. The whole batch is rejected
    /// before any of it is applied.
    InvalidMutation {
        /// Position of the offending mutation in the batch.
        index: usize,
        /// The unknown version id it names.
        version: u32,
    },
    /// The service is shutting down; queued requests are drained with
    /// this error rather than silently dropped.
    ShuttingDown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded {
                queue_depth,
                capacity,
                retry_after_hint,
            } => write!(
                f,
                "overloaded: queue {queue_depth}/{capacity}, retry after {retry_after_hint:?}"
            ),
            ServiceError::Cancelled { stage } => write!(f, "deadline expired ({stage})"),
            ServiceError::Solve(e) => write!(f, "solve failed: {e}"),
            ServiceError::Exec(e) => write!(f, "execution failed: {e}"),
            ServiceError::UnknownPlan(id) => write!(f, "unknown {id}"),
            ServiceError::InvalidMutation { index, version } => {
                write!(f, "mutation #{index} names unknown version v{version}")
            }
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Tuning knobs for [`VersioningService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads; `0` sizes to the thread pool width
    /// (`rayon::current_num_threads`, i.e. thread-per-core under the
    /// default pool).
    pub workers: usize,
    /// Bounded queue capacity; submissions past it are shed with
    /// [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline for [`VersioningService::submit`] (requests without an
    /// explicit deadline).
    pub default_deadline: Duration,
}

/// Minimum time remaining at dispatch for the full tier
/// ([`ServeTier::Full`]); below it a `Solve` degrades to the heuristic
/// tier.
pub const FULL_TIER_MIN: Duration = Duration::from_millis(250);

/// Minimum time remaining for the heuristic tier; below it a `Solve` is
/// answered from the memo ([`ServeTier::Cached`]) when a previously-seen
/// fingerprint has one.
pub const HEURISTIC_TIER_MIN: Duration = Duration::from_millis(20);

/// How many graph fingerprints keep a live [`SharedWork`] memo (LRU) for
/// cross-request reuse and the cached tier.
const GRAPH_MEMOS: usize = 32;

/// Byte budget of the service's one cache of decoded materialized roots,
/// shared by every checkout of every committed plan. A root's retrieval
/// is free in the paper's cost model; with its decoded payload resident,
/// a checkout reads and replays only the deltas on its chain.
const ROOT_CACHE_BYTES: u64 = 64 << 20;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(1),
        }
    }
}

/// Counter snapshot from [`VersioningService::stats`]. All counts are
/// cumulative since construction except `queue_depth`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests offered to [`submit`](VersioningService::submit).
    pub submitted: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests rejected at admission ([`ServiceError::Overloaded`]).
    pub shed: u64,
    /// Requests answered with a successful [`Reply`].
    pub completed: u64,
    /// Requests whose deadline expired while still queued.
    pub expired_in_queue: u64,
    /// Requests preempted mid-run or completed past their deadline.
    pub cancelled: u64,
    /// Successful `Solve` replies per degradation tier.
    pub tier_full: u64,
    /// See [`ServiceStats::tier_full`].
    pub tier_heuristic: u64,
    /// See [`ServiceStats::tier_full`].
    pub tier_cached: u64,
    /// Faulty object reads detected by the serving path.
    pub faults_detected: u64,
    /// Store repairs written back after self-healing reads.
    pub repairs_applied: u64,
    /// Commits absorbed online ([`Request::Absorb`] replies).
    pub absorbed: u64,
    /// Of which, absorbs that fell back to a full from-scratch re-solve.
    pub absorb_resolves: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Maximum queue depth ever observed (bounded by capacity).
    pub queue_high_water: u64,
    /// Checkouts' materialized roots served from the root cache.
    pub root_cache_hits: u64,
    /// Checkouts' materialized roots read past the root cache (from the
    /// store, or healed from the plan's source).
    pub root_cache_misses: u64,
    /// Decoded bytes resident in the root cache now.
    pub root_cache_bytes: u64,
    /// Worker thread count.
    pub workers: usize,
}

/// One-shot rendezvous with a request's reply.
///
/// Returned by [`VersioningService::submit`]; redeem with
/// [`Ticket::wait`]. Dropping a ticket abandons the reply (the worker
/// still runs the request and fulfills the slot; nobody reads it).
pub struct Ticket {
    state: Arc<TicketState>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

struct TicketState {
    slot: Mutex<Option<Result<Reply, ServiceError>>>,
    ready: Condvar,
}

impl TicketState {
    fn fulfill(&self, result: Result<Reply, ServiceError>) {
        let mut slot = self.slot.lock().expect("ticket slot");
        *slot = Some(result);
        self.ready.notify_all();
    }
}

impl Ticket {
    /// Block until the reply is ready and take it.
    pub fn wait(self) -> Result<Reply, ServiceError> {
        let mut slot = self.state.slot.lock().expect("ticket slot");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.ready.wait(slot).expect("ticket slot");
        }
    }

    /// Whether the reply has arrived (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.state.slot.lock().expect("ticket slot").is_some()
    }
}

/// A committed plan and everything needed to serve (and heal) it.
///
/// `online` is the plan's live [`OnlinePlanner`] (created on first
/// absorb); the mutex serializes absorbs on the same plan while
/// checkouts keep reading the published `graph`/`stored` snapshots.
struct CommittedPlan {
    graph: Arc<VersionGraph>,
    stored: Arc<StoredPlan>,
    source: Arc<dyn VersionSource + Send + Sync>,
    online: Arc<Mutex<Option<OnlinePlanner>>>,
}

impl Clone for CommittedPlan {
    fn clone(&self) -> Self {
        CommittedPlan {
            graph: self.graph.clone(),
            stored: self.stored.clone(),
            source: self.source.clone(),
            online: self.online.clone(),
        }
    }
}

struct Job {
    request: Request,
    deadline: Instant,
    ticket: Arc<TicketState>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// LRU of per-graph-fingerprint [`SharedWork`] memos: the warm cache
/// behind cross-request solver reuse and the cached degradation tier.
struct MemoLru {
    /// Most-recently-used at the back.
    entries: Vec<(u64, SharedWork)>,
}

impl MemoLru {
    fn get_or_insert(&mut self, g: &VersionGraph) -> SharedWork {
        let fp = g.fingerprint();
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == fp) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
        } else {
            let memo = SharedWork::default().for_graph(g);
            debug_assert_eq!(memo.claimed_fingerprint(), Some(fp));
            self.entries.push((fp, memo));
            if self.entries.len() > GRAPH_MEMOS {
                self.entries.remove(0);
            }
        }
        self.entries.last().expect("just pushed").1.clone()
    }
}

struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    expired_in_queue: AtomicU64,
    cancelled: AtomicU64,
    tier_full: AtomicU64,
    tier_heuristic: AtomicU64,
    tier_cached: AtomicU64,
    faults_detected: AtomicU64,
    repairs_applied: AtomicU64,
    absorbed: AtomicU64,
    absorb_resolves: AtomicU64,
    queue_high_water: AtomicU64,
    /// EWMA of per-job service time in nanoseconds (0 = no sample yet);
    /// feeds the `retry_after_hint` on shed.
    ewma_service_nanos: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Counters {
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            expired_in_queue: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            tier_full: AtomicU64::new(0),
            tier_heuristic: AtomicU64::new(0),
            tier_cached: AtomicU64::new(0),
            faults_detected: AtomicU64::new(0),
            repairs_applied: AtomicU64::new(0),
            absorbed: AtomicU64::new(0),
            absorb_resolves: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            ewma_service_nanos: AtomicU64::new(0),
        }
    }

    fn observe_service_time(&self, wall: Duration) {
        let sample = wall.as_nanos().min(u64::MAX as u128) as u64;
        let prev = self.ewma_service_nanos.load(Ordering::Relaxed);
        // 1/8 smoothing; races just lose one sample of smoothing.
        let next = if prev == 0 {
            sample
        } else {
            prev - prev / 8 + sample / 8
        };
        self.ewma_service_nanos.store(next, Ordering::Relaxed);
    }
}

struct Shared<S> {
    cfg: ServiceConfig,
    workers: usize,
    engine: Engine,
    store: RwLock<S>,
    plans: RwLock<HashMap<u64, CommittedPlan>>,
    next_plan: AtomicU64,
    queue: Mutex<QueueInner>,
    available: Condvar,
    /// Fired at shutdown; every per-request token is its child.
    root: CancelToken,
    memos: Mutex<MemoLru>,
    /// Decoded materialized roots, shared by every checkout.
    roots: CheckoutCache,
    counters: Counters,
}

/// The shared versioning service. See the module docs.
pub struct VersioningService<S: Store + Send + Sync + 'static> {
    shared: Arc<Shared<S>>,
    handles: Vec<JoinHandle<()>>,
}

impl<S: Store + Send + Sync + 'static> VersioningService<S> {
    /// A service over `store` with [`ServiceConfig::default`] and the
    /// default solver registry.
    pub fn new(store: S) -> Self {
        Self::with_config(store, ServiceConfig::default())
    }

    /// A service over `store` with explicit configuration.
    pub fn with_config(store: S, cfg: ServiceConfig) -> Self {
        let workers = if cfg.workers == 0 {
            rayon::current_num_threads().max(1)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            cfg,
            workers,
            engine: Engine::default(),
            store: RwLock::new(store),
            plans: RwLock::new(HashMap::new()),
            next_plan: AtomicU64::new(0),
            queue: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            root: CancelToken::new(),
            memos: Mutex::new(MemoLru {
                entries: Vec::new(),
            }),
            roots: CheckoutCache::new(ROOT_CACHE_BYTES),
            counters: Counters::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dsv-service-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        VersioningService { shared, handles }
    }

    /// Submit with the configured default deadline.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServiceError> {
        self.submit_with_deadline(request, self.shared.cfg.default_deadline)
    }

    /// Submit with an explicit deadline `timeout` from now. Admission is
    /// decided immediately: over capacity the request is shed with
    /// [`ServiceError::Overloaded`] (it never occupies queue space).
    pub fn submit_with_deadline(
        &self,
        request: Request,
        timeout: Duration,
    ) -> Result<Ticket, ServiceError> {
        let c = &self.shared.counters;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock().expect("service queue");
            if queue.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            let depth = queue.jobs.len();
            if depth >= self.shared.cfg.queue_capacity {
                c.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Overloaded {
                    queue_depth: depth,
                    capacity: self.shared.cfg.queue_capacity,
                    retry_after_hint: self.retry_after_hint(depth),
                });
            }
            queue.jobs.push_back(Job {
                request,
                deadline: Instant::now() + timeout,
                ticket: state.clone(),
            });
            c.admitted.fetch_add(1, Ordering::Relaxed);
            c.queue_high_water
                .fetch_max((depth + 1) as u64, Ordering::Relaxed);
        }
        self.shared.available.notify_one();
        Ok(Ticket { state })
    }

    /// Estimated wait until capacity frees up: the EWMA per-job service
    /// time scaled by the backlog per worker (floor 1 ms, cap 5 s).
    fn retry_after_hint(&self, depth: usize) -> Duration {
        let nanos = self
            .shared
            .counters
            .ewma_service_nanos
            .load(Ordering::Relaxed);
        let per_job = if nanos == 0 {
            Duration::from_millis(1)
        } else {
            Duration::from_nanos(nanos)
        };
        let backlog_rounds = (depth / self.shared.workers.max(1)) as u32 + 1;
        (per_job * backlog_rounds)
            .max(Duration::from_millis(1))
            .min(Duration::from_secs(5))
    }

    /// Counter snapshot (monotonic counters + current queue depth).
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let depth = self.shared.queue.lock().expect("service queue").jobs.len();
        let roots = self.shared.roots.stats();
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            expired_in_queue: c.expired_in_queue.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            tier_full: c.tier_full.load(Ordering::Relaxed),
            tier_heuristic: c.tier_heuristic.load(Ordering::Relaxed),
            tier_cached: c.tier_cached.load(Ordering::Relaxed),
            faults_detected: c.faults_detected.load(Ordering::Relaxed),
            repairs_applied: c.repairs_applied.load(Ordering::Relaxed),
            absorbed: c.absorbed.load(Ordering::Relaxed),
            absorb_resolves: c.absorb_resolves.load(Ordering::Relaxed),
            queue_depth: depth,
            queue_high_water: c.queue_high_water.load(Ordering::Relaxed),
            root_cache_hits: roots.hits,
            root_cache_misses: roots.misses,
            root_cache_bytes: self.shared.roots.used_bytes(),
            workers: self.shared.workers,
        }
    }

    /// Current queue depth (always ≤ the configured capacity).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("service queue").jobs.len()
    }

    /// Run `f` against the underlying store (shared read lock).
    pub fn with_store<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.shared.store.read().expect("service store"))
    }

    /// Run `f` against the underlying store (exclusive write lock).
    /// Blocks serving for the duration — administrative use (flush,
    /// compaction) only.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.shared.store.write().expect("service store"))
    }

    /// Drop a committed plan from the registry and release its objects.
    ///
    /// Waits for an absorb in flight on the plan: retiring takes the
    /// plan's online lock before removing the entry (lock order online →
    /// plans → store, as in an absorb), so it always releases the newest
    /// published plan, never one an absorb's `migrate` has consumed.
    pub fn retire_plan(&self, plan: PlanId) -> Result<(), ServiceError> {
        let online = self
            .shared
            .plans
            .read()
            .expect("service plans")
            .get(&plan.0)
            .ok_or(ServiceError::UnknownPlan(plan))?
            .online
            .clone();
        let _absorbs = online.lock().expect("online planner");
        let committed = self
            .shared
            .plans
            .write()
            .expect("service plans")
            .remove(&plan.0)
            .ok_or(ServiceError::UnknownPlan(plan))?;
        let mut store = self.shared.store.write().expect("service store");
        PlanExecutor::new(&mut *store)
            .release(&committed.stored)
            .map_err(ServiceError::Exec)
    }

    /// Stop accepting requests, reply [`ServiceError::ShuttingDown`] to
    /// everything still queued, and join the workers (in-flight requests
    /// finish under their own deadlines). Also invoked by `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let drained: Vec<Job> = {
            let mut queue = self.shared.queue.lock().expect("service queue");
            queue.shutdown = true;
            queue.jobs.drain(..).collect()
        };
        for job in drained {
            job.ticket.fulfill(Err(ServiceError::ShuttingDown));
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<S: Store + Send + Sync + 'static> Drop for VersioningService<S> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop<S: Store + Send + Sync + 'static>(shared: &Shared<S>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("service queue");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("service queue");
            }
        };
        process(shared, job);
    }
}

fn process<S: Store + Send + Sync + 'static>(shared: &Shared<S>, job: Job) {
    let c = &shared.counters;
    let now = Instant::now();
    if now >= job.deadline {
        c.expired_in_queue.fetch_add(1, Ordering::Relaxed);
        job.ticket
            .fulfill(Err(ServiceError::Cancelled { stage: "queued" }));
        return;
    }
    let remaining = job.deadline - now;
    let token = shared.root.child_with_deadline(Some(remaining));
    let started = Instant::now();
    let result = match job.request {
        Request::Solve { graph, problem } => {
            handle_solve(shared, &graph, problem, &token, remaining)
        }
        Request::Checkout { plan, versions } => handle_checkout(shared, plan, &versions, &token),
        Request::Commit {
            graph,
            plan,
            source,
        } => handle_commit(shared, graph, &plan, source, &token),
        Request::Absorb {
            plan,
            mutations,
            budget,
            source,
        } => handle_absorb(shared, plan, &mutations, budget, source, &token),
    };
    c.observe_service_time(started.elapsed());
    // The never-late guarantee: a reply computed past its deadline is
    // converted to `Cancelled` — clients either get a timely result or
    // a typed timeout, never a stale success.
    let result = match result {
        Ok(reply) => {
            if Instant::now() >= job.deadline {
                c.cancelled.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Cancelled {
                    stage: "completed-late",
                })
            } else {
                c.completed.fetch_add(1, Ordering::Relaxed);
                if let Reply::Solved { tier, .. } = &reply {
                    let counter = match tier {
                        ServeTier::Full => &c.tier_full,
                        ServeTier::Heuristic => &c.tier_heuristic,
                        ServeTier::Cached => &c.tier_cached,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                Ok(reply)
            }
        }
        Err(e) => {
            if matches!(e, ServiceError::Cancelled { .. }) {
                c.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(e)
        }
    };
    job.ticket.fulfill(result);
}

fn handle_solve<S: Store + Send + Sync + 'static>(
    shared: &Shared<S>,
    g: &Arc<VersionGraph>,
    problem: ProblemKind,
    token: &CancelToken,
    remaining: Duration,
) -> Result<Reply, ServiceError> {
    let memo = shared.memos.lock().expect("service memos").get_or_insert(g);
    // Degradation ladder. Only MSR has heuristic/cached rungs (LMG-All
    // is an MSR algorithm); other problems always run `Engine::solve`,
    // bounded by the deadline token.
    if remaining >= FULL_TIER_MIN || !matches!(problem, ProblemKind::Msr { .. }) {
        let opts = SolveOptions {
            time_limit: Some(remaining),
            cancel: token.clone(),
            shared: memo,
            ..SolveOptions::default()
        };
        return match shared.engine.solve(g, problem, &opts) {
            Ok(solution) => Ok(Reply::Solved {
                solution: Box::new(solution),
                tier: ServeTier::Full,
            }),
            Err(SolveError::Cancelled { .. }) | Err(SolveError::Timeout { .. }) => {
                Err(ServiceError::Cancelled { stage: "solve" })
            }
            Err(e) => Err(ServiceError::Solve(e)),
        };
    }
    let lmg_all = |cancel: CancelToken| {
        let opts = SolveOptions {
            cancel,
            shared: memo.clone(),
            ..SolveOptions::default()
        };
        shared.engine.solve_with("LMG-All", g, problem, &opts)
    };
    if remaining < HEURISTIC_TIER_MIN {
        // Cached rung: LMG-All under an already-fired token, which reads a
        // finished memo cell and never computes. A miss (`Cancelled`)
        // falls through to the heuristic rung as a best effort — the
        // final deadline check converts any late success to Cancelled.
        let fired = CancelToken::new();
        fired.cancel();
        match lmg_all(fired) {
            Ok(solution) => {
                return Ok(Reply::Solved {
                    solution: Box::new(solution),
                    tier: ServeTier::Cached,
                })
            }
            Err(SolveError::Cancelled { .. }) => {}
            Err(e) => return Err(ServiceError::Solve(e)),
        }
    }
    // Heuristic rung: LMG-All only, memoized for future cached replies.
    match lmg_all(token.clone()) {
        Ok(solution) => Ok(Reply::Solved {
            solution: Box::new(solution),
            tier: ServeTier::Heuristic,
        }),
        Err(SolveError::Cancelled { .. }) => Err(ServiceError::Cancelled { stage: "heuristic" }),
        Err(e) => Err(ServiceError::Solve(e)),
    }
}

fn handle_checkout<S: Store + Send + Sync + 'static>(
    shared: &Shared<S>,
    plan: PlanId,
    versions: &[u32],
    token: &CancelToken,
) -> Result<Reply, ServiceError> {
    let committed = shared
        .plans
        .read()
        .expect("service plans")
        .get(&plan.0)
        .ok_or(ServiceError::UnknownPlan(plan))?
        .clone();
    if token.is_cancelled() {
        return Err(ServiceError::Cancelled { stage: "checkout" });
    }
    // Serve under a shared read lock (many checkouts in parallel);
    // repairs re-acquire exclusively below.
    let outcome = {
        let store = shared.store.read().expect("service store");
        Checkout::new(&*store)
            .with_cache(&shared.roots)
            .with_source(&*committed.source)
            .serve(&committed.graph, &committed.stored, versions)
            .map_err(ServiceError::Exec)?
    };
    let mut applied = 0;
    if !outcome.tickets.is_empty() {
        let mut store = shared.store.write().expect("service store");
        applied = PlanExecutor::new(&mut *store)
            .apply_repairs(&outcome.tickets)
            .map_err(ServiceError::Exec)?;
    }
    let c = &shared.counters;
    c.faults_detected
        .fetch_add(outcome.repair.detected, Ordering::Relaxed);
    c.repairs_applied
        .fetch_add(applied as u64, Ordering::Relaxed);
    Ok(Reply::CheckedOut {
        payloads: outcome.results,
        repair: outcome.repair,
        repairs_applied: applied,
    })
}

fn handle_commit<S: Store + Send + Sync + 'static>(
    shared: &Shared<S>,
    graph: Arc<VersionGraph>,
    plan: &StoragePlan,
    source: Arc<dyn VersionSource + Send + Sync>,
    token: &CancelToken,
) -> Result<Reply, ServiceError> {
    if token.is_cancelled() {
        return Err(ServiceError::Cancelled { stage: "commit" });
    }
    let stored = {
        let mut store = shared.store.write().expect("service store");
        PlanExecutor::new(&mut *store)
            .ingest(&graph, plan, &*source)
            .map_err(ServiceError::Exec)?
    };
    let versions = graph.n();
    let id = shared.next_plan.fetch_add(1, Ordering::Relaxed);
    shared.plans.write().expect("service plans").insert(
        id,
        CommittedPlan {
            graph,
            stored: Arc::new(stored),
            source,
            online: Arc::new(Mutex::new(None)),
        },
    );
    Ok(Reply::Committed {
        plan: PlanId(id),
        versions,
    })
}

/// Check an absorb batch against a graph of `versions` versions before
/// any of it is applied: every edge endpoint and retiree must exist by the
/// time its mutation runs (`AddVersion`s earlier in the batch count).
/// Applying an out-of-range mutation would panic inside the planner.
fn validate_mutations(mutations: &[Mutation], mut versions: usize) -> Result<(), ServiceError> {
    for (index, m) in mutations.iter().enumerate() {
        let bad = match *m {
            Mutation::AddVersion { .. } => {
                versions += 1;
                None
            }
            Mutation::AddEdge { src, dst, .. } => {
                [src, dst].into_iter().find(|&v| v as usize >= versions)
            }
            Mutation::Retire { version } => (version as usize >= versions).then_some(version),
        };
        if let Some(version) = bad {
            return Err(ServiceError::InvalidMutation { index, version });
        }
    }
    Ok(())
}

fn handle_absorb<S: Store + Send + Sync + 'static>(
    shared: &Shared<S>,
    plan_id: PlanId,
    mutations: &[Mutation],
    budget: Cost,
    source: Arc<dyn VersionSource + Send + Sync>,
    token: &CancelToken,
) -> Result<Reply, ServiceError> {
    if token.is_cancelled() {
        return Err(ServiceError::Cancelled { stage: "absorb" });
    }
    // The per-plan online state; its mutex serializes absorbs and
    // retirement on the same plan (checkouts are unaffected — they read
    // the published snapshots).
    let online = shared
        .plans
        .read()
        .expect("service plans")
        .get(&plan_id.0)
        .ok_or(ServiceError::UnknownPlan(plan_id))?
        .online
        .clone();
    let mut slot = online.lock().expect("online planner");
    // Re-fetch the live entry *inside* the lock: an earlier absorb may
    // have published a newer stored plan, and `migrate` must diff
    // against the one actually in the store.
    let committed = shared
        .plans
        .read()
        .expect("service plans")
        .get(&plan_id.0)
        .cloned()
        .ok_or(ServiceError::UnknownPlan(plan_id))?;
    let versions = slot
        .as_ref()
        .map_or(committed.graph.n(), |planner| planner.graph().n());
    validate_mutations(mutations, versions)?;
    let planner = slot.get_or_insert_with(|| {
        OnlinePlanner::adopt(
            (*committed.graph).clone(),
            committed.stored.plan.clone(),
            budget,
        )
    });
    for m in mutations {
        match *m {
            Mutation::AddVersion { storage } => {
                planner.add_version(storage);
            }
            Mutation::AddEdge {
                src,
                dst,
                storage,
                retrieval,
            } => {
                planner.add_edge(NodeId(src), NodeId(dst), storage, retrieval);
            }
            Mutation::Retire { version } => planner.retire_version(NodeId(version)),
        }
    }
    // Degradation gate: when incremental absorption cannot fit the
    // budget, fall back to a full from-scratch re-solve; if even that is
    // infeasible the request fails and the previous plan stays live (the
    // planner keeps the mutated graph, so a later absorb that frees
    // budget — e.g. a retirement — can recover).
    let mut resolved = false;
    if !planner.within_budget() {
        resolved = true;
        if !planner.resolve_scratch() {
            return Err(ServiceError::Solve(SolveError::Infeasible {
                solver: "online-absorb",
                detail: "mutated graph does not fit the storage budget".into(),
            }));
        }
    }
    if token.is_cancelled() {
        return Err(ServiceError::Cancelled { stage: "absorb" });
    }
    // Migrate under the store write lock: in-flight checkouts serialize
    // around it, and `migrate` retains every replacement object before
    // releasing the superseded ones, so no live version is ever
    // unreadable. (The lock is dropped before republishing — the plans
    // lock is always taken without the store lock held, matching
    // `retire_plan`'s online → plans → store order.)
    let (new_stored, migration) = {
        let mut store = shared.store.write().expect("service store");
        PlanExecutor::new(&mut *store)
            .migrate(planner.graph(), &committed.stored, planner.plan(), &*source)
            .map_err(ServiceError::Exec)?
    };
    let versions = planner.graph().n();
    let graph = Arc::new(planner.graph().clone());
    // The entry is still there: `retire_plan` waits for the online lock
    // this absorb holds.
    *shared
        .plans
        .write()
        .expect("service plans")
        .get_mut(&plan_id.0)
        .expect("retirement waits for the online lock") = CommittedPlan {
        graph,
        stored: Arc::new(new_stored),
        source,
        online: online.clone(),
    };
    let c = &shared.counters;
    c.absorbed.fetch_add(1, Ordering::Relaxed);
    if resolved {
        c.absorb_resolves.fetch_add(1, Ordering::Relaxed);
    }
    Ok(Reply::Absorbed {
        plan: plan_id,
        versions,
        migration,
        resolved_from_scratch: resolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_delta::evolve::{evolve, ContentMode, EvolveParams, SketchParams};
    use dsv_delta::MemStore;
    use dsv_vgraph::generators::{random_tree, CostModel};
    use dsv_vgraph::Cost;

    fn msr_budget(g: &VersionGraph) -> Cost {
        crate::baselines::min_storage_value(g) * 2
    }

    /// A matched (graph, ground-truth source) pair: edge costs priced by
    /// the same sketch deltas the source serves.
    fn fixture(
        commits: usize,
        seed: u64,
    ) -> (Arc<VersionGraph>, Arc<dyn VersionSource + Send + Sync>) {
        let ev = evolve(&EvolveParams {
            commits,
            branch_prob: 0.2,
            merge_prob: 0.0,
            max_branches: 4,
            keep_content: true,
            mode: ContentMode::Sketch(SketchParams {
                chunk_size: 64,
                init_bytes: 2048,
                churn_bytes: (128, 512),
                replace_ratio: 0.3,
            }),
            seed,
        });
        (
            Arc::new(ev.graph),
            Arc::new(ev.content.expect("keep_content")),
        )
    }

    #[test]
    fn solve_commit_checkout_roundtrip() {
        let (g, source) = fixture(24, 11);
        let svc = VersioningService::new(MemStore::new());
        let budget = msr_budget(&g);
        let reply = svc
            .submit_with_deadline(
                Request::Solve {
                    graph: g.clone(),
                    problem: ProblemKind::Msr {
                        storage_budget: budget,
                    },
                },
                Duration::from_secs(60),
            )
            .expect("admitted")
            .wait()
            .expect("solved");
        let Reply::Solved { solution, tier } = reply else {
            panic!("expected Solved");
        };
        assert_eq!(tier, ServeTier::Full);

        let Reply::Committed { plan, versions } = svc
            .submit_with_deadline(
                Request::Commit {
                    graph: g.clone(),
                    plan: solution.plan.clone(),
                    source: source.clone(),
                },
                Duration::from_secs(60),
            )
            .expect("admitted")
            .wait()
            .expect("committed")
        else {
            panic!("expected Committed");
        };
        assert_eq!(versions, g.n());

        let wanted: Vec<u32> = (0..g.n() as u32).collect();
        let Reply::CheckedOut { payloads, .. } = svc
            .submit_with_deadline(
                Request::Checkout {
                    plan,
                    versions: wanted.clone(),
                },
                Duration::from_secs(60),
            )
            .expect("admitted")
            .wait()
            .expect("served")
        else {
            panic!("expected CheckedOut");
        };
        assert_eq!(payloads.len(), wanted.len());
        for (v, served) in wanted.iter().zip(&payloads) {
            let served = served.as_ref().expect("clean store serves everything");
            assert_eq!(**served, source.payload(*v), "byte-identical payloads");
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.tier_full, 1);
    }

    #[test]
    fn expired_deadline_is_cancelled_not_partial() {
        let g = Arc::new(random_tree(32, &CostModel::default(), 7));
        let svc = VersioningService::new(MemStore::new());
        let err = svc
            .submit_with_deadline(
                Request::Solve {
                    graph: g.clone(),
                    problem: ProblemKind::Msr {
                        storage_budget: msr_budget(&g),
                    },
                },
                Duration::ZERO,
            )
            .expect("admission is decided before the deadline")
            .wait()
            .expect_err("expired deadline must fail");
        assert!(
            matches!(err, ServiceError::Cancelled { .. }),
            "expired work surfaces as Cancelled, got {err}"
        );
        assert_eq!(svc.stats().completed, 0);
    }

    #[test]
    fn unknown_plan_is_typed() {
        let svc: VersioningService<MemStore> = VersioningService::new(MemStore::new());
        let err = svc
            .submit(Request::Checkout {
                plan: PlanId(99),
                versions: vec![0],
            })
            .expect("admitted")
            .wait()
            .expect_err("unknown plan");
        assert!(matches!(err, ServiceError::UnknownPlan(PlanId(99))));
    }

    #[test]
    fn degraded_tiers_validate_and_label() {
        let g = Arc::new(random_tree(40, &CostModel::default(), 3));
        let budget = msr_budget(&g);
        let svc: VersioningService<MemStore> = VersioningService::new(MemStore::new());
        let problem = ProblemKind::Msr {
            storage_budget: budget,
        };
        // Each deadline sits just below its rung's minimum, so the time
        // left at dispatch picks that rung. First request computes on the
        // heuristic rung (and warms the memo)…
        let just_below = |min: Duration| min - Duration::from_millis(1);
        let Reply::Solved { solution, tier } = svc
            .submit_with_deadline(
                Request::Solve {
                    graph: g.clone(),
                    problem,
                },
                just_below(FULL_TIER_MIN),
            )
            .expect("admitted")
            .wait()
            .expect("heuristic rung solves")
        else {
            panic!("expected Solved");
        };
        assert_eq!(tier, ServeTier::Heuristic);
        assert!(solution.costs.storage <= budget, "budget respected");
        let heuristic_plan = solution.plan.clone();
        // …later identical requests are served from the memo.
        let Reply::Solved { solution, tier } = svc
            .submit_with_deadline(
                Request::Solve {
                    graph: g.clone(),
                    problem,
                },
                just_below(HEURISTIC_TIER_MIN),
            )
            .expect("admitted")
            .wait()
            .expect("cached rung answers")
        else {
            panic!("expected Solved");
        };
        assert_eq!(tier, ServeTier::Cached);
        assert_eq!(solution.plan, heuristic_plan, "memo returns the same plan");
        let stats = svc.stats();
        assert_eq!((stats.tier_heuristic, stats.tier_cached), (1, 1));
    }

    #[test]
    fn a_cached_rung_miss_is_answered_by_the_heuristic_rung() {
        let g = Arc::new(random_tree(40, &CostModel::default(), 4));
        let svc: VersioningService<MemStore> = VersioningService::new(MemStore::new());
        let Reply::Solved { solution, tier } = svc
            .submit_with_deadline(
                Request::Solve {
                    graph: g.clone(),
                    problem: ProblemKind::Msr {
                        storage_budget: msr_budget(&g),
                    },
                },
                HEURISTIC_TIER_MIN - Duration::from_millis(1),
            )
            .expect("admitted")
            .wait()
            .expect("the heuristic rung answers a cold memo")
        else {
            panic!("expected Solved");
        };
        assert_eq!(tier, ServeTier::Heuristic);
        assert_eq!(solution.meta.solver, "LMG-All");
        let stats = svc.stats();
        assert_eq!((stats.tier_heuristic, stats.tier_cached), (1, 0));
    }

    /// A generic sketch source over explicit per-version manifests —
    /// extensible with new versions, unlike the frozen evolve fixture.
    struct ManifestSource {
        manifests: Vec<Vec<(u64, u32)>>,
    }

    impl VersionSource for ManifestSource {
        fn version_count(&self) -> usize {
            self.manifests.len()
        }
        fn payload(&self, v: u32) -> Payload {
            Payload::Sketch(self.manifests[v as usize].clone())
        }
        fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
            use dsv_delta::store::codec::encode_sketch_delta;
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

    fn chain_manifest(v: u64) -> Vec<(u64, u32)> {
        (0..=v).map(|i| (i + 1, 100 + 10 * i as u32)).collect()
    }

    #[test]
    fn absorb_migrates_the_live_plan_online() {
        // A 4-version chain with manifests each version extends.
        let mut g = VersionGraph::new();
        for v in 0..4u64 {
            g.add_version(5_000 + 100 * v);
        }
        for v in 0..3u32 {
            g.add_edge(dsv_vgraph::NodeId(v), dsv_vgraph::NodeId(v + 1), 150, 120);
        }
        let budget = crate::baselines::min_storage_value(&g) * 3;
        let plan = crate::heuristics::lmg_all::lmg_all(&g, budget).expect("feasible");
        let initial = Arc::new(ManifestSource {
            manifests: (0..4).map(chain_manifest).collect(),
        });
        let svc = VersioningService::new(MemStore::new());
        let Reply::Committed { plan: id, .. } = svc
            .submit_with_deadline(
                Request::Commit {
                    graph: Arc::new(g),
                    plan,
                    source: initial,
                },
                Duration::from_secs(60),
            )
            .expect("admitted")
            .wait()
            .expect("committed")
        else {
            panic!("expected Committed");
        };

        // Absorb one commit: version 4 extends version 3.
        let extended = Arc::new(ManifestSource {
            manifests: (0..5).map(chain_manifest).collect(),
        });
        let Reply::Absorbed {
            versions,
            migration,
            ..
        } = svc
            .submit_with_deadline(
                Request::Absorb {
                    plan: id,
                    mutations: vec![
                        Mutation::AddVersion { storage: 5_400 },
                        Mutation::AddEdge {
                            src: 3,
                            dst: 4,
                            storage: 160,
                            retrieval: 130,
                        },
                    ],
                    budget,
                    source: extended.clone(),
                },
                Duration::from_secs(60),
            )
            .expect("admitted")
            .wait()
            .expect("absorbed")
        else {
            panic!("expected Absorbed");
        };
        assert_eq!(versions, 5);
        assert_eq!(migration.added, 1);
        assert!(
            migration.reused >= 3,
            "unchanged objects must be inherited, not rewritten: {migration:?}"
        );

        // The same plan id now serves all five versions, byte-identically.
        let wanted: Vec<u32> = (0..5).collect();
        let Reply::CheckedOut { payloads, .. } = svc
            .submit_with_deadline(
                Request::Checkout {
                    plan: id,
                    versions: wanted.clone(),
                },
                Duration::from_secs(60),
            )
            .expect("admitted")
            .wait()
            .expect("served")
        else {
            panic!("expected CheckedOut");
        };
        for (v, served) in wanted.iter().zip(&payloads) {
            let served = served.as_ref().expect("served");
            assert_eq!(**served, extended.payload(*v), "byte-identical payloads");
        }
        let stats = svc.stats();
        assert_eq!(stats.absorbed, 1);
    }

    #[test]
    fn shutdown_drains_the_queue() {
        let svc: VersioningService<MemStore> = VersioningService::new(MemStore::new());
        drop(svc); // must not hang
    }
}
