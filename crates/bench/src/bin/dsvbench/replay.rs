//! The traced run: the end-to-end run's setup and request stream replayed,
//! in order, through the calls the service handlers make — `Engine::solve`,
//! `OnlinePlanner::add_*` / `within_budget` / `resolve_scratch`,
//! `PlanExecutor::ingest` / `migrate` / `apply_repairs`, `Checkout::serve`
//! and `Store::flush` — with a span around each call and a
//! [`TimedStore`] under the executor and the reader.
//!
//! One client, no queue: the difference between a request's service
//! latency and its direct-call time here is what the service layer adds.
//! End-to-end metrics never come from this run.

use crate::drive::{absorb, fits, wrong_payloads, Latencies, Op, Tally, GATE_BATCH, LONG_DEADLINE};
use crate::fixtures::{Commit, Oracle, SharedSource, Workload};
use crate::timed_store::{OpCount, StoreOp, TimedStore};
use crate::trace::Tracer;
use dsv_core::engine::SharedWork;
use dsv_core::heuristics::lmg_all::lmg_all_with_stats;
use dsv_core::{
    Checkout, Engine, OnlinePlanner, PlanExecutor, ProblemKind, RetryPolicy, Solution,
    SolveOptions, StoredPlan,
};
use dsv_delta::store::Store;
use dsv_vgraph::{Cost, VersionGraph};
use std::time::Instant;

/// Everything the traced run measured.
#[derive(Default)]
pub struct Traced {
    /// Outcome counts of the replayed requests.
    pub tally: Tally,
    /// Direct-call time per request kind (ms), for the service overhead.
    pub direct: Latencies,
    /// `Checkout::serve` work summed over every batch.
    pub checkout: CheckoutSums,
    /// Online-planner time per commit, from the first mutation to the
    /// budget gate (ms).
    pub apply_ms: Vec<f64>,
    /// From-scratch re-solves inside the planner (drift refreshes and the
    /// budget fallback), and the time of the calls that ran them (ms).
    pub refreshes: u64,
    /// See [`Traced::refreshes`].
    pub refresh_ms: f64,
    /// Planner work summed over every commit.
    pub rescored: u64,
    /// See [`Traced::rescored`].
    pub moves: u64,
    /// See [`Traced::rescored`].
    pub repairs: u64,
    /// Online commits replayed.
    pub commits: u64,
    /// End-of-stream planner objective over a from-scratch LMG-All solve
    /// of the same graph and budget.
    pub regret: f64,
    /// Migration traffic summed over every commit.
    pub migrated: MigrationSums,
    /// `PlanExecutor::ingest` wall time (ms) and bytes.
    pub ingest_ms: f64,
    /// See [`Traced::ingest_ms`].
    pub ingest_bytes: u64,
    /// `SolverMeta::iterations` of every solve.
    pub solve_iterations: Vec<usize>,
    /// Store counters: gets, puts, flushes.
    pub store_get: OpCount,
    /// See [`Traced::store_get`].
    pub store_put: OpCount,
    /// See [`Traced::store_get`].
    pub store_flush: OpCount,
}

/// Summed [`dsv_core::CheckoutStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckoutSums {
    /// Versions requested.
    pub requested: u64,
    /// Nodes hydrated.
    pub hydrated: u64,
    /// Deltas applied.
    pub delta_applies: u64,
    /// Payload bytes handed back.
    pub bytes: u64,
    /// `serve` wall time (ms).
    pub serve_ms: f64,
}

/// Summed [`dsv_core::MigrationStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationSums {
    /// Bytes written.
    pub bytes_moved: u64,
    /// Pre-existing nodes whose object changed.
    pub changed: u64,
    /// Objects inherited untouched.
    pub reused: u64,
}

struct Replay<'t, S: Store> {
    store: TimedStore<S>,
    tracer: &'t mut Tracer,
    out: Traced,
    oracle: Oracle,
    engine: Engine,
    memo: SharedWork,
    budget: Cost,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<S: Store + Sync> Replay<'_, S> {
    fn flush(&mut self, req: u64) -> Result<(), String> {
        let t0 = Instant::now();
        let r = self.store.flush();
        self.tracer.record("store.flush", req, t0, 0);
        r.map_err(|e| format!("flush failed: {e}"))
    }

    fn solve(&mut self, g: &VersionGraph, budget: Cost, req: u64) -> Result<Solution, String> {
        let opts = SolveOptions {
            time_limit: Some(LONG_DEADLINE),
            shared: self.memo.clone(),
            ..SolveOptions::default()
        };
        let problem = ProblemKind::Msr {
            storage_budget: budget,
        };
        let t0 = Instant::now();
        let solution = self.engine.solve(g, problem, &opts);
        let d = self.tracer.record("engine.solve", req, t0, 0);
        let solution = solution.map_err(|e| format!("solve failed: {e}"))?;
        self.out.tally.attempted += 1;
        self.out.direct.solve.push(ms(d));
        self.out.solve_iterations.push(solution.meta.iterations);
        if !fits(g, &solution.plan, budget) {
            self.out.tally.wrong += 1;
        }
        Ok(solution)
    }

    /// One online commit as the service's absorb handler runs it, then the
    /// client's flush.
    fn commit(
        &mut self,
        planner: &mut OnlinePlanner,
        stored: &mut StoredPlan,
        commit: &Commit,
        req: u64,
    ) -> Result<(), String> {
        let before = planner.stats();
        let start = Instant::now();
        for m in &commit.mutations {
            let solves = planner.stats().scratch_solves;
            let t0 = Instant::now();
            let name = absorb(planner, m);
            let d = self.tracer.record(name, req, t0, 0);
            if planner.stats().scratch_solves > solves {
                self.out.refreshes += 1;
                self.out.refresh_ms += ms(d);
            }
        }
        let t0 = Instant::now();
        let within = planner.within_budget();
        self.tracer.record("online.within_budget", req, t0, 0);
        if !within {
            let t0 = Instant::now();
            let feasible = planner.resolve_scratch();
            let d = self.tracer.record("online.resolve_scratch", req, t0, 0);
            self.out.refreshes += 1;
            self.out.refresh_ms += ms(d);
            if !feasible {
                return Err("absorbed graph does not fit the budget".into());
            }
        }
        self.out.apply_ms.push(ms(start.elapsed()));

        let t0 = Instant::now();
        let migrated = PlanExecutor::new(&mut self.store).migrate(
            planner.graph(),
            stored,
            planner.plan(),
            &*commit.source,
        );
        let (next, stats) = migrated.map_err(|e| format!("migrate failed: {e}"))?;
        self.tracer
            .record("executor.migrate", req, t0, stats.bytes_moved);
        *stored = next;
        self.flush(req)?;

        let after = planner.stats();
        let o = &mut self.out;
        o.tally.attempted += 1;
        o.direct.commit.push(ms(start.elapsed()));
        o.commits += 1;
        o.rescored += (after.rescored - before.rescored) as u64;
        o.moves += (after.moves - before.moves) as u64;
        o.repairs += (after.repairs - before.repairs) as u64;
        o.migrated.bytes_moved += stats.bytes_moved;
        o.migrated.changed += stats.changed as u64;
        o.migrated.reused += stats.reused as u64;
        Ok(())
    }

    /// One checkout as the service's checkout handler runs it.
    fn checkout(
        &mut self,
        g: &VersionGraph,
        stored: &StoredPlan,
        source: &SharedSource,
        versions: &[u32],
        req: u64,
    ) -> Result<(), String> {
        let start = Instant::now();
        let served = Checkout::new(&self.store)
            .with_source(&**source)
            .with_retry(RetryPolicy::default())
            .serve(g, stored, versions);
        let outcome = served.map_err(|e| format!("checkout failed: {e}"))?;
        let d = self.tracer.record(
            "checkout.serve",
            req,
            start,
            outcome.stats.bytes_materialized,
        );
        if !outcome.tickets.is_empty() {
            let t0 = Instant::now();
            PlanExecutor::new(&mut self.store)
                .apply_repairs(&outcome.tickets)
                .map_err(|e| format!("repair failed: {e}"))?;
            self.tracer.record("executor.apply_repairs", req, t0, 0);
        }
        let o = &mut self.out;
        o.tally.attempted += 1;
        o.direct.checkout.push(ms(start.elapsed()));
        let s = &outcome.stats;
        o.checkout.requested += s.requested as u64;
        o.checkout.hydrated += s.hydrated as u64;
        o.checkout.delta_applies += s.delta_applies as u64;
        o.checkout.bytes += s.bytes_materialized;
        o.checkout.serve_ms += ms(d);
        o.tally.wrong += wrong_payloads(versions, &outcome.results, &self.oracle)?;
        Ok(())
    }
}

/// Replay workload `w`'s setup, the recorded request stream `ops` and the
/// closing gate through direct calls over `store`, recording spans into
/// `tracer`. Any failed call aborts the replay.
pub fn replay<S: Store + Sync>(
    w: Workload,
    ops: &[Op],
    store: S,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    let fixture = w.fixture();
    let mut r = Replay {
        store: TimedStore::new(store),
        tracer,
        out: Traced::default(),
        oracle: Oracle::new(fixture.setup_commit.source.clone()),
        engine: Engine::default(),
        memo: SharedWork::default(),
        budget: fixture.budget,
    };

    // Setup: solve, ingest, flush, then the first online commit.
    let mut req = 0;
    let solution = r.solve(&fixture.graph, r.budget, req)?;
    let t0 = Instant::now();
    let ingested =
        PlanExecutor::new(&mut r.store).ingest(&fixture.graph, &solution.plan, &*fixture.source);
    let mut stored = ingested.map_err(|e| format!("ingest failed: {e}"))?;
    let d = r
        .tracer
        .record("executor.ingest", req, t0, stored.ingest_bytes);
    r.out.ingest_ms = ms(d);
    r.out.ingest_bytes = stored.ingest_bytes;
    r.flush(req)?;
    req += 1;
    let t0 = Instant::now();
    let mut planner = OnlinePlanner::adopt((*fixture.graph).clone(), stored.plan.clone(), r.budget);
    r.tracer.record("online.adopt", req, t0, 0);
    r.commit(&mut planner, &mut stored, &fixture.setup_commit, req)?;
    let mut source = fixture.setup_commit.source.clone();

    for op in ops {
        req += 1;
        match op {
            Op::Checkout(versions) => {
                r.checkout(planner.graph(), &stored, &source, versions, req)?
            }
            Op::Commit(commit) => {
                r.commit(&mut planner, &mut stored, commit, req)?;
                source = commit.source.clone();
            }
            Op::Solve(budget) => {
                r.solve(&fixture.graph, *budget, req)?;
            }
        }
    }

    let all: Vec<u32> = (0..planner.graph().n() as u32).collect();
    for batch in all.chunks(GATE_BATCH) {
        req += 1;
        r.checkout(planner.graph(), &stored, &source, batch, req)?;
    }

    let scratch = lmg_all_with_stats(planner.graph(), r.budget)
        .ok_or("the live graph has no feasible plan at its budget")?;
    let mut out = r.out;
    out.regret = planner.total_retrieval() as f64 / scratch.1.total_retrieval.max(1) as f64;
    out.store_get = r.store.count(StoreOp::Get);
    out.store_put = r.store.count(StoreOp::Put);
    out.store_flush = r.store.count(StoreOp::Flush);
    Ok(out)
}
