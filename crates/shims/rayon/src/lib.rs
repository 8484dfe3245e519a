//! API-subset shim for the `rayon` crate (the build environment is offline).
//!
//! It provides exactly the surface the workspace uses: [`join`], the
//! chunked parallel iterators behind
//! [`iter::IntoParallelIterator::into_par_iter`] (`map`, `filter_map`,
//! `max_by`, `collect`), [`current_num_threads`], and private pools from
//! [`ThreadPoolBuilder`].
//!
//! Execution is **genuinely parallel**: a global thread pool built on
//! `std::thread` services every operation. Scheduling is work-stealing at
//! task granularity: every parallel operation splits into chunk tasks
//! pushed onto a shared injector queue, and idle workers — the submitting
//! thread included, which drains its own operation's tasks while it waits
//! — steal the next available task. Combination of per-chunk results is
//! strictly ordered, so `collect` and `max_by` return exactly what the
//! sequential pipeline would (ties in `max_by` resolve to the later
//! element, as with `std::iter::Iterator::max_by`), independent of thread
//! count or interleaving.
//!
//! Pool size is taken from `DSV_NUM_THREADS`, then `RAYON_NUM_THREADS`,
//! then [`std::thread::available_parallelism`]; `1` disables parallel
//! execution entirely (pure sequential fallback, no worker threads).
//! [`ThreadPoolBuilder::build`] + [`ThreadPool::install`] scope a private
//! pool to a closure (used by tests so they do not depend on the
//! environment).

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------- pool core

/// Completion latch of one [`Scope`]: counts outstanding tasks
/// and carries the first panic payload for re-throw on the owner thread.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new() -> Arc<Self> {
        Arc::new(ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }
}

/// One queued unit of work, tagged with its owning scope.
struct Job {
    scope: Arc<ScopeState>,
    run: Box<dyn FnOnce() + Send>,
}

impl Job {
    fn execute(self) {
        let Job { scope, run } = self;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            scope.panic.lock().unwrap().get_or_insert(payload);
        }
        let mut pending = scope.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            scope.done.notify_all();
        }
    }
}

/// State shared between a pool's workers and every thread submitting work.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work: Condvar,
    threads: usize,
    shutdown: AtomicBool,
}

fn worker_loop(shared: Arc<PoolShared>) {
    // Workers run nested parallel operations on their own pool.
    CURRENT.with(|c| *c.borrow_mut() = Some(shared.clone()));
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match q.pop_front() {
                    Some(job) => break job,
                    None => q = shared.work.wait(q).unwrap(),
                }
            }
        };
        job.execute();
    }
}

/// A work-stealing thread pool over `std::thread`.
///
/// `threads` is the parallelism width: the pool spawns `threads - 1` worker
/// threads and the submitting thread itself acts as the remaining worker
/// while it waits for its operation to finish (so a 1-thread pool executes
/// everything inline with zero spawned threads).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    fn with_threads(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            threads,
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dsv-rayon-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// The pool's parallelism width (submitting thread included).
    pub fn current_num_threads(&self) -> usize {
        self.shared.threads
    }

    /// Run `f` with this pool as the calling thread's current pool: every
    /// [`join`]/parallel-iterator call inside `f` uses it instead
    /// of the global pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<PoolShared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.shared.clone()));
        let _restore = Restore(prev);
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Arc<PoolShared>>> =
        const { std::cell::RefCell::new(None) };
}

fn default_threads() -> usize {
    for var in ["DSV_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::with_threads(default_threads()))
}

fn current_shared() -> Arc<PoolShared> {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| global().shared.clone())
}

/// Parallelism width of the calling thread's current pool.
pub fn current_num_threads() -> usize {
    current_shared().threads
}

/// Error type of [`ThreadPoolBuilder::build`], which never fails: it has
/// no values and is kept for the real crate's signature.
#[derive(Debug)]
pub enum ThreadPoolBuildError {}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`: pick a thread count, then
/// [`build`](ThreadPoolBuilder::build) a private pool.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (environment-derived) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Set the parallelism width (`0` = environment default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    fn resolved(&self) -> usize {
        if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        }
    }

    /// Build a private pool (use [`ThreadPool::install`] to activate it).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool::with_threads(self.resolved()))
    }
}

// ---------------------------------------------------------------- scope

/// Spawn handle of one parallel operation ([`join`], the iterators' chunk
/// fan-out); tasks spawned through it may borrow anything that outlives
/// `'scope`.
struct Scope<'scope> {
    shared: Arc<PoolShared>,
    state: Arc<ScopeState>,
    // Invariant over 'scope, as with `std::thread::Scope`.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queue `f` onto the pool. It runs concurrently with the rest of the
    /// scope body and is guaranteed to finish before `scope_on` returns.
    fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        *self.state.pending.lock().unwrap() += 1;
        let run: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: `scope_on` does not return until `pending` drops to zero,
        // so everything the closure borrows from `'scope` strictly outlives
        // its execution; the erased box never leaves the pool queue alive.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
        self.shared.queue.lock().unwrap().push_back(Job {
            scope: self.state.clone(),
            run,
        });
        self.shared.work.notify_one();
    }
}

fn scope_on<'scope, R>(shared: &Arc<PoolShared>, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
    let s = Scope {
        shared: shared.clone(),
        state: ScopeState::new(),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    // Work-stealing wait: drain this scope's queued tasks on the calling
    // thread, then sleep until in-flight ones (stolen by workers) finish.
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            q.iter()
                .position(|j| Arc::ptr_eq(&j.scope, &s.state))
                .and_then(|i| q.remove(i))
        };
        match job {
            Some(job) => job.execute(),
            None => {
                let mut pending = s.state.pending.lock().unwrap();
                while *pending > 0 {
                    pending = s.state.done.wait(pending).unwrap();
                }
                break;
            }
        }
    }
    if let Some(payload) = s.state.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }
    match result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

/// Run both closures, potentially in parallel, and return both results.
/// `b` is offered to the pool while the calling thread runs `a`; if no
/// worker picks it up, the caller runs it afterwards (work-stealing).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let shared = current_shared();
    if shared.threads <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let mut ra = None;
    let mut rb = None;
    scope_on(&shared, |s| {
        let rb_slot = &mut rb;
        s.spawn(move || *rb_slot = Some(b()));
        ra = Some(a());
    });
    (
        ra.expect("join: first closure completed"),
        rb.expect("join: second closure completed"),
    )
}

/// Split `base` into chunks, fold each chunk as one pool task, and return
/// the per-chunk accumulators **in chunk order** (the key to thread-count
/// independent results).
fn par_run<B, A, F>(base: Vec<B>, fold: F) -> Vec<A>
where
    B: Send,
    A: Send,
    F: Fn(Vec<B>) -> A + Sync,
{
    let shared = current_shared();
    if shared.threads <= 1 || base.len() <= 1 {
        return vec![fold(base)];
    }
    // More chunks than threads so finish-time imbalance self-levels.
    let target = shared.threads * 8;
    let chunk_size = base.len().div_ceil(target).max(1);
    let mut chunks: Vec<Vec<B>> = Vec::with_capacity(target);
    let mut rest = base;
    while rest.len() > chunk_size {
        let tail = rest.split_off(chunk_size);
        chunks.push(rest);
        rest = tail;
    }
    chunks.push(rest);
    let slots: Vec<Mutex<Option<A>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    scope_on(&shared, |s| {
        for (chunk, slot) in chunks.into_iter().zip(&slots) {
            let fold = &fold;
            s.spawn(move || {
                *slot.lock().unwrap() = Some(fold(chunk));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("chunk completed"))
        .collect()
}

// ---------------------------------------------------------------- iterators

/// Parallel-iterator entry points and adaptors.
pub mod iter {
    use super::par_run;
    use std::cmp::Ordering;
    use std::sync::Arc;

    /// Conversion into a parallel iterator.
    pub trait IntoParallelIterator {
        /// Element type.
        type Item: Send;
        /// The iterator produced.
        type Iter;
        /// Convert `self` into a parallel iterator over owned items.
        fn into_par_iter(self) -> Self::Iter;
    }

    /// Marker unifying the shim's parallel iterators (adaptors are inherent
    /// methods on [`Base`] and [`ParIter`]; real rayon's generic surface is
    /// not reproduced).
    pub trait ParallelIterator {}

    /// A freshly converted source: owned items, no adaptors applied yet.
    pub struct Base<B: Send> {
        items: Vec<B>,
    }

    impl<B: Send> ParallelIterator for Base<B> {}

    /// An adapted pipeline: owned base items plus the composed per-item
    /// transformation (`map`s and `filter_map`s fused into one closure).
    pub struct ParIter<'a, B: Send, T: Send> {
        base: Vec<B>,
        f: Arc<dyn Fn(B) -> Option<T> + Send + Sync + 'a>,
    }

    impl<'a, B: Send, T: Send> ParallelIterator for ParIter<'a, B, T> {}

    impl<B: Send> Base<B> {
        /// Map each element.
        pub fn map<'a, O, G>(self, g: G) -> ParIter<'a, B, O>
        where
            O: Send,
            G: Fn(B) -> O + Send + Sync + 'a,
        {
            ParIter {
                base: self.items,
                f: Arc::new(move |b| Some(g(b))),
            }
        }

        /// Filter-map each element.
        pub fn filter_map<'a, O, G>(self, g: G) -> ParIter<'a, B, O>
        where
            O: Send,
            G: Fn(B) -> Option<O> + Send + Sync + 'a,
        {
            ParIter {
                base: self.items,
                f: Arc::new(g),
            }
        }

        /// Maximum by a comparison function (ties: later element wins, as
        /// with `std::iter::Iterator::max_by`).
        pub fn max_by(self, cmp: impl Fn(&B, &B) -> Ordering + Send + Sync) -> Option<B> {
            combine_max(
                par_run(self.items, |chunk| {
                    chunk.into_iter().max_by(|x, y| cmp(x, y))
                }),
                cmp,
            )
        }

        /// Collect into a container, preserving the source order.
        pub fn collect<C: FromIterator<B>>(self) -> C {
            par_run(self.items, |chunk| chunk)
                .into_iter()
                .flatten()
                .collect()
        }
    }

    impl<'a, B: Send + 'a, T: Send + 'a> ParIter<'a, B, T> {
        /// Map each element.
        pub fn map<O, G>(self, g: G) -> ParIter<'a, B, O>
        where
            O: Send + 'a,
            G: Fn(T) -> O + Send + Sync + 'a,
        {
            let f = self.f;
            ParIter {
                base: self.base,
                f: Arc::new(move |b| f(b).map(&g)),
            }
        }

        /// Filter-map each element.
        pub fn filter_map<O, G>(self, g: G) -> ParIter<'a, B, O>
        where
            O: Send + 'a,
            G: Fn(T) -> Option<O> + Send + Sync + 'a,
        {
            let f = self.f;
            ParIter {
                base: self.base,
                f: Arc::new(move |b| f(b).and_then(&g)),
            }
        }

        /// Maximum by a comparison function (ties: later element wins, as
        /// with `std::iter::Iterator::max_by`).
        pub fn max_by(self, cmp: impl Fn(&T, &T) -> Ordering + Send + Sync) -> Option<T> {
            let f = self.f;
            combine_max(
                par_run(self.base, |chunk| {
                    chunk
                        .into_iter()
                        .filter_map(|b| f(b))
                        .max_by(|x, y| cmp(x, y))
                }),
                cmp,
            )
        }

        /// Collect into a container, preserving the source order.
        pub fn collect<C: FromIterator<T>>(self) -> C {
            let f = self.f;
            par_run(self.base, |chunk| {
                chunk.into_iter().filter_map(|b| f(b)).collect::<Vec<T>>()
            })
            .into_iter()
            .flatten()
            .collect()
        }
    }

    /// Ordered reduction of per-chunk maxima with sequential tie semantics
    /// (later chunk wins ties).
    fn combine_max<T>(parts: Vec<Option<T>>, cmp: impl Fn(&T, &T) -> Ordering) -> Option<T> {
        parts.into_iter().flatten().reduce(|acc, x| {
            if cmp(&acc, &x) == Ordering::Greater {
                acc
            } else {
                x
            }
        })
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Item = usize;
        type Iter = Base<usize>;
        fn into_par_iter(self) -> Base<usize> {
            Base {
                items: self.collect(),
            }
        }
    }

    impl IntoParallelIterator for std::ops::Range<u32> {
        type Item = u32;
        type Iter = Base<u32>;
        fn into_par_iter(self) -> Base<u32> {
            Base {
                items: self.collect(),
            }
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = Base<T>;
        fn into_par_iter(self) -> Base<T> {
            Base { items: self }
        }
    }
}

/// The customary glob import.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{join, ThreadPoolBuilder};
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};
    use std::time::Duration;

    #[test]
    fn range_map_collect() {
        let v: Vec<usize> = (0..5usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn filter_map_max_by() {
        let best = (0..100usize)
            .into_par_iter()
            .filter_map(|x| if x % 7 == 0 { Some(x) } else { None })
            .max_by(|a, b| a.cmp(b));
        assert_eq!(best, Some(98));
    }

    #[test]
    fn map_then_filter_map_chain() {
        let v: Vec<usize> = (0..10usize)
            .into_par_iter()
            .map(|x| x * 3)
            .filter_map(|x| if x % 2 == 0 { Some(x) } else { None })
            .collect();
        assert_eq!(v, vec![0, 6, 12, 18, 24]);
    }

    #[test]
    fn max_by_tie_takes_the_later_element_like_std() {
        // Elements compare only by .0; sequential max_by keeps the last max.
        let items: Vec<(u32, usize)> = (0..4000).map(|i| (i as u32 / 1000, i)).collect();
        let want = items.iter().copied().max_by(|a, b| a.0.cmp(&b.0));
        let got = items.into_par_iter().max_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got, want);
    }

    /// Results must be identical across pool widths (ordered combination).
    #[test]
    fn results_independent_of_thread_count() {
        let compute = || -> (Vec<usize>, Option<usize>) {
            let c: Vec<usize> = (0..10_000usize).into_par_iter().map(|x| x ^ 0x5a).collect();
            let m = (0..10_000usize)
                .into_par_iter()
                .filter_map(|x| if x % 3 == 0 { Some(x / 3) } else { None })
                .max_by(|a, b| a.cmp(b));
            (c, m)
        };
        let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let four = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(one.install(compute), four.install(compute));
    }

    /// `par_iter` must actually fan out over more than one OS thread when
    /// the pool is wider than one.
    #[test]
    fn par_iter_uses_multiple_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        let ids = Mutex::new(HashSet::new());
        pool.install(|| {
            let _: Vec<()> = (0..256usize)
                .into_par_iter()
                .map(|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(Duration::from_millis(1));
                })
                .collect();
        });
        let distinct = ids.lock().unwrap().len();
        assert!(distinct > 1, "expected >1 worker threads, saw {distinct}");
    }

    /// `join` must run its closures concurrently: both sides block on a
    /// two-party barrier, which deadlocks unless two threads participate.
    #[test]
    fn join_runs_closures_concurrently() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let barrier = Barrier::new(2);
        let (ra, rb) = pool.install(|| {
            join(
                || {
                    barrier.wait();
                    std::thread::current().id()
                },
                || {
                    barrier.wait();
                    std::thread::current().id()
                },
            )
        });
        assert_ne!(ra, rb, "join sides ran on the same thread");
    }

    #[test]
    fn one_thread_pool_runs_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let here = std::thread::current().id();
        let ids: Vec<_> = pool.install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&id| id == here));
    }

    #[test]
    fn scope_propagates_panics() {
        // The spawned side of `join` panics; the payload is re-thrown on
        // the calling thread once both sides have finished.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| join(|| 1, || -> u32 { panic!("boom") }))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let total: u64 = pool.install(|| {
            let partials: Vec<u64> = (0..8usize)
                .into_par_iter()
                .map(|i| {
                    // Inner parallel op from inside a pool task.
                    let inner: Vec<u64> = (0..100usize)
                        .into_par_iter()
                        .map(move |j| (i * 100 + j) as u64)
                        .collect();
                    inner.into_iter().sum::<u64>()
                })
                .collect();
            partials.into_iter().sum()
        });
        assert_eq!(total, (0..800u64).sum());
    }
}
