//! Online planning: absorb version-graph mutations into a live LMG-All
//! plan without re-solving from scratch.
//!
//! A production version store receives a continuous commit stream; paying
//! O(solve) per commit does not scale. [`OnlinePlanner`] owns a
//! [`VersionGraph`], its current [`StoragePlan`], and the incremental
//! machinery from `heuristics` (the [`IncrementalPlanView`] and the
//! candidate heap), and keeps the plan greedily settled across three
//! mutations:
//!
//! * [`OnlinePlanner::add_version`] — the new version enters materialized;
//!   O(1) state growth, then the greedy loop runs on whatever candidates
//!   the mutation dirtied (none yet — a bare version has no deltas).
//! * [`OnlinePlanner::add_edge`] — exactly one new candidate (the new
//!   delta) is scored and queued; if adopting it (or anything it unlocks)
//!   improves the objective, the standard dirty-region loop cascades from
//!   there.
//! * [`OnlinePlanner::retire_version`] — the retired version's stored
//!   subtree children are detached (materialized), the version itself is
//!   tombstoned ([`VersionGraph::retire_version`] zeroes its storage and
//!   prices incident deltas at `INF`), and the freed budget revives parked
//!   candidates.
//!
//! After every mutation the greedy loop re-runs **locally**: only dirtied
//! candidates are re-scored, and the loop stops when no improving move
//! remains — the same fixed point the from-scratch loop reaches, entered
//! from a different start state.
//!
//! # Budget repair
//!
//! The LMG-All move set never grows retrieval, so it also can never
//! deltify a freshly materialized version — feasibility is *inherited*
//! from the start state, and a mutation can break it (a new version
//! enters materialized; a retirement force-materializes the retiree's
//! stored children). When an absorb leaves storage above the budget the
//! planner runs the inverse greedy: among all deltifications of currently
//! materialized versions, repeatedly apply the one costing the least
//! retrieval growth per byte of storage saved, until the plan fits again.
//! The regular greedy loop then re-settles (it can only spend budget that
//! exists, so feasibility is preserved from there on).
//!
//! The repair candidates live in a second [`IndexedHeap`], one entry per
//! usable in-delta, ranked by smallest `growth / saving`, then the larger
//! saving, then the lower edge id. A repair candidate's inputs are exactly
//! those of the greedy `Reparent` move on the same edge, so it is
//! re-scored on the same dirty regions (every applied move, every
//! absorbed mutation, adoption and the from-scratch refresh). A repair
//! move is then a verified pop — re-score the top entry, take it if its
//! key still matches — instead of a scan over every in-delta of the
//! graph. Unit tests assert that each pick equals that scan's.
//!
//! # Regret gate
//!
//! Online greedy is path-dependent: its plan can differ from what LMG-All
//! would build from scratch on the mutated graph. The contract is bounded
//! regret — after any mutation sequence,
//! `online total_retrieval ≤ ONLINE_REGRET_BOUND × scratch total_retrieval`
//! (checked by `tests/online.rs` and in-run by the `online` benchmark).
//! Two mechanisms keep it: locally, every absorb re-settles to the greedy
//! fixed point; globally, the planner counts *drift* — mutations since the
//! last from-scratch solve — and refreshes with a full re-solve once drift
//! reaches `max(8, n/8)`. Amortized, that is at most one solve per
//! eighth-of-the-graph churn: vanishing for a large graph absorbing single
//! commits, and exactly where the regret of pure path-dependence would
//! otherwise accumulate. The refresh is the public
//! [`OnlinePlanner::resolve_scratch`], whose plan is **byte-identical** to
//! calling LMG-All on the mutated graph — the oracle the differential
//! tests pin against.

use crate::baselines::min_storage_plan;
use crate::heuristics::lmg_all::{all_moves, for_each_dirty, lmg_all_with_stats, score, Move};
use crate::heuristics::{CandidateHeap, IncrementalPlanView};
use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::indexed_heap::IndexedHeap;
use dsv_vgraph::{Cost, EdgeId, NodeId, VersionGraph, INF};
use std::cmp::Ordering;

/// Declared regret bound of online absorption: after any mutation
/// sequence, the online plan's total retrieval is at most this factor
/// times the from-scratch LMG-All objective on the same graph and budget.
/// Enforced by the differential suite and asserted in-run by the `online`
/// benchmark.
pub const ONLINE_REGRET_BOUND: f64 = 1.25;

/// Cumulative diagnostics of an [`OnlinePlanner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Mutations absorbed (versions + edges + retirements).
    pub absorbed: usize,
    /// Greedy moves applied across all absorbs.
    pub moves: usize,
    /// Greedy candidate scores across all absorbs: the dirty-region
    /// re-scores plus the verifications of the top entry at selection —
    /// the dirty-region work metric (a from-scratch solve would pay
    /// ≥ n + m per commit). Each candidate has one heap entry, so
    /// selection never re-scores outdated copies.
    pub rescored: usize,
    /// Budget-repair moves (deltifications forced by a mutation pushing
    /// storage past the budget) — a subset of `moves`.
    pub repairs: usize,
    /// From-scratch re-solves: drift refreshes (once per `max(8, n/8)`
    /// absorbed mutations) plus every caller-requested
    /// [`OnlinePlanner::resolve_scratch`].
    pub scratch_solves: usize,
}

/// A live LMG-All plan that absorbs graph mutations incrementally.
///
/// Owns the graph: all mutation goes through the planner so the plan, the
/// incremental view, and the candidate heap stay consistent. Read access
/// via [`OnlinePlanner::graph`] / [`OnlinePlanner::plan`].
pub struct OnlinePlanner {
    g: VersionGraph,
    plan: StoragePlan,
    view: IncrementalPlanView,
    cands: Candidates,
    budget: Cost,
    stats: OnlineStats,
    /// Mutations absorbed since the last from-scratch solve; bounds the
    /// regret of path-dependence (see the module docs).
    drift: usize,
}

impl OnlinePlanner {
    /// Solve `g` from scratch (LMG-All at `budget`) and wrap the result
    /// for online absorption. Returns `None` when even the minimum-storage
    /// plan exceeds the budget.
    pub fn new(g: VersionGraph, budget: Cost) -> Option<Self> {
        let (plan, _) = lmg_all_with_stats(&g, budget)?;
        Some(Self::adopt(g, plan, budget))
    }

    /// Wrap an existing `(graph, plan)` pair — e.g. a plan the engine or
    /// service already committed — without re-solving. The plan must be
    /// valid for `g` (debug-asserted).
    pub fn adopt(g: VersionGraph, plan: StoragePlan, budget: Cost) -> Self {
        debug_assert!(plan.validate(&g).is_ok(), "adopted plan must validate");
        let view = IncrementalPlanView::new(&g, &plan);
        let mut planner = OnlinePlanner {
            g,
            plan,
            view,
            cands: Candidates::default(),
            budget,
            stats: OnlineStats::default(),
            drift: 0,
        };
        // Seed every candidate once so the adopted plan settles to the
        // greedy fixed point under this budget (a no-op when the plan is
        // already settled, e.g. fresh LMG-All output at the same budget).
        planner.seed_all();
        planner.settle();
        planner
    }

    /// The graph as mutated so far.
    pub fn graph(&self) -> &VersionGraph {
        &self.g
    }

    /// The current plan (always valid for [`OnlinePlanner::graph`] and
    /// covering every node).
    pub fn plan(&self) -> &StoragePlan {
        &self.plan
    }

    /// The storage budget the plan is settled under.
    pub fn budget(&self) -> Cost {
        self.budget
    }

    /// Current total retrieval (the MSR objective), tracked by the view.
    pub fn total_retrieval(&self) -> Cost {
        self.view.total_retrieval()
    }

    /// Current total storage, tracked by the view.
    pub fn storage(&self) -> Cost {
        self.view.storage()
    }

    /// Whether the current plan fits the budget. Absorbing a new version
    /// can push storage past the budget (the version enters materialized);
    /// callers gate on this and fall back (re-solve, or reject the commit).
    pub fn within_budget(&self) -> bool {
        self.storage() <= self.budget
    }

    /// Cumulative absorb diagnostics.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// Absorb a new version with materialization cost `storage`. The
    /// version enters the plan materialized; deltas attached later (via
    /// [`OnlinePlanner::add_edge`]) let the greedy loop deltify it.
    pub fn add_version(&mut self, storage: Cost) -> NodeId {
        let v = self.g.add_version(storage);
        self.plan.parent.push(Parent::Materialized);
        self.view.push_node(storage);
        self.stats.absorbed += 1;
        // A bare version creates no candidates (its materialization is
        // already the plan), and if its storage broke the budget there is
        // nothing useful to repair yet either: the version itself cannot
        // be deltified until its deltas arrive, so repairing now would
        // shuffle unrelated versions only for the commit's `add_edge`s to
        // undo it. Leave the plan over budget; the next absorb repairs,
        // and callers gate on `within_budget` after the full commit batch.
        self.settle();
        self.bump_drift();
        v
    }

    /// Absorb a new delta edge. Exactly one candidate (the edge itself) is
    /// scored; the greedy loop cascades from whatever it dirties.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, storage: Cost, retrieval: Cost) -> EdgeId {
        let e = self.g.add_edge(src, dst, storage, retrieval);
        self.stats.absorbed += 1;
        self.rescore(Move::Reparent { edge: e.0 });
        self.settle_and_repair();
        e
    }

    /// Absorb a retirement: detach the version's stored children
    /// (materialize them — the greedy loop immediately re-deltifies
    /// whatever pays off), materialize the version itself if it was stored
    /// as a delta, tombstone it in the graph (zero storage, `INF` incident
    /// deltas), and let the freed budget revive parked candidates.
    pub fn retire_version(&mut self, v: NodeId) {
        if self.g.is_retired(v) {
            return;
        }
        self.stats.absorbed += 1;
        let vi = v.index();
        let mut dirty: Vec<u32> = Vec::new();
        // Detach stored children first so no stored edge is incident to
        // `v` when its edge costs move to INF (keeps the view's `r` exact).
        for c in self.view.children_of(vi) {
            let effect = self
                .view
                .apply(&self.g, &mut self.plan, c as usize, Parent::Materialized);
            dirty.extend_from_slice(&effect.subtree);
            dirty.extend_from_slice(&effect.path);
        }
        if !matches!(self.plan.parent[vi], Parent::Materialized) {
            let effect = self
                .view
                .apply(&self.g, &mut self.plan, vi, Parent::Materialized);
            dirty.extend_from_slice(&effect.subtree);
            dirty.extend_from_slice(&effect.path);
        }
        self.g.retire_version(v);
        // The tombstone zeroed the node's materialization cost; re-read
        // the paid storage of the (now materialized, free) version.
        self.view.refresh_paid(&self.g, &self.plan, vi);
        dirty.push(v.0);
        for x in dirty {
            self.rescore_around(x);
        }
        self.settle_and_repair();
    }

    /// Throw the incremental state away and re-solve the current graph
    /// from scratch (LMG-All at the planner's budget) — the drift refresh,
    /// and the degradation fallback when a caller's gate (feasibility,
    /// regret) trips. The re-solved plan is byte-identical to
    /// [`lmg_all`](crate::heuristics::lmg_all::lmg_all) on the mutated
    /// graph. Returns whether it fits the budget; when it does not (the
    /// mutated graph is infeasible), the plan degrades to minimum storage
    /// and [`OnlinePlanner::within_budget`] stays `false`.
    pub fn resolve_scratch(&mut self) -> bool {
        self.stats.scratch_solves += 1;
        self.drift = 0;
        if let Some((plan, _)) = lmg_all_with_stats(&self.g, self.budget) {
            self.plan = plan;
        } else {
            // Infeasible: keep per-node validity (everything the old plan
            // had, new nodes materialized) so the caller can still diff,
            // migrate, or reject.
            self.plan = min_storage_plan(&self.g);
        }
        self.view = IncrementalPlanView::new(&self.g, &self.plan);
        // The scratch plan is settled, so the greedy heap starts empty; the
        // repair heap must hold every usable in-delta.
        self.cands = Candidates::default();
        for e in 0..self.g.m() as u32 {
            let key = repair_key(&self.g, &self.plan, &mut self.view, EdgeId(e));
            self.cands.set_repair(e, key);
        }
        self.within_budget()
    }

    /// Re-score one candidate, in both heaps, against the current state.
    fn rescore(&mut self, mv: Move) {
        self.stats.rescored += 1;
        self.cands
            .rescore(&self.g, &self.plan, &mut self.view, self.budget, mv);
    }

    /// Seed the full candidate set (adopt-time only).
    fn seed_all(&mut self) {
        for mv in all_moves(&self.g) {
            self.rescore(mv);
        }
    }

    /// Re-score the candidates whose evaluation inputs depend on node `x`:
    /// its materialization and every incident delta (the superset of the
    /// subtree/path split in [`for_each_dirty`]; re-scoring a candidate
    /// twice only sets its entry twice).
    fn rescore_around(&mut self, x: u32) {
        self.rescore(Move::Materialize { node: x });
        let xv = NodeId(x);
        for i in 0..self.g.in_edges(xv).len() {
            let e = self.g.in_edges(xv)[i];
            self.rescore(Move::Reparent { edge: e.0 });
        }
        for i in 0..self.g.out_edges(xv).len() {
            let e = self.g.out_edges(xv)[i];
            self.rescore(Move::Reparent { edge: e.0 });
        }
    }

    /// Run the greedy loop to its fixed point: revive parked candidates at
    /// the current storage, select the best accurate candidate, apply it,
    /// re-score its dirty region; stop when no improving move remains.
    /// Identical structure to `run_incremental` in `heuristics::lmg_all`.
    fn settle(&mut self) {
        loop {
            let chosen = {
                let storage_now = self.view.storage();
                let g = &self.g;
                let plan = &self.plan;
                let view = &mut self.view;
                let budget = self.budget;
                let rescored = &mut self.stats.rescored;
                let mut rescore = |mv: Move| {
                    *rescored += 1;
                    score(g, plan, view, budget, mv)
                };
                self.cands.greedy.revive(storage_now, &mut rescore);
                self.cands.greedy.select(&mut rescore)
            };
            let Some(mv) = chosen else { return };
            let (v, new_parent) = mv.entry(&self.g);
            self.stats.moves += 1;
            self.apply_and_rescore(v, new_parent);
        }
    }

    /// Apply one move to the plan and view, then re-score its dirty
    /// region ([`for_each_dirty`]).
    fn apply_and_rescore(&mut self, v: usize, new_parent: Parent) {
        let effect = self.view.apply(&self.g, &mut self.plan, v, new_parent);
        let (g, plan, view, budget) = (&self.g, &self.plan, &mut self.view, self.budget);
        let (cands, rescored) = (&mut self.cands, &mut self.stats.rescored);
        for_each_dirty(g, &effect, |mv| {
            *rescored += 1;
            cands.rescore(g, plan, view, budget, mv);
        });
    }

    /// Settle, then — if the absorbed mutation left storage above the
    /// budget — run budget repair and settle again (the repair's
    /// retrieval-growing deltifications both free budget *and* unlock
    /// parked candidates). A second repair is never needed: the settled
    /// loop only applies budget-checked moves, so feasibility is
    /// preserved once restored. Finally the drift counter is bumped, and
    /// once an eighth of the graph has churned since the last full solve
    /// the planner refreshes from scratch — the amortized cost that keeps
    /// the regret bound honest (see the module docs).
    fn settle_and_repair(&mut self) {
        self.settle();
        if self.view.storage() > self.budget {
            self.repair_budget();
            self.settle();
        }
        self.bump_drift();
    }

    /// Count one absorbed mutation toward drift; refresh from scratch once
    /// an eighth of the graph has churned since the last full solve.
    fn bump_drift(&mut self) {
        self.drift += 1;
        if self.drift >= (self.g.n() / 8).max(8) {
            self.resolve_scratch();
        }
    }

    /// The inverse greedy: while the plan is over budget, move the
    /// version whose cheapest usable in-delta costs the least retrieval
    /// growth per byte of storage saved — deltifying materialized
    /// versions *and* swapping stored deltas for cheaper ones. This can
    /// always walk the plan down to (cycle-constrained) minimum storage,
    /// so it succeeds whenever the mutated graph is feasible at all.
    /// Stops early when no move saves storage —
    /// [`OnlinePlanner::within_budget`] stays `false` and the caller
    /// decides (full re-solve, or reject the commit).
    fn repair_budget(&mut self) {
        while self.view.storage() > self.budget {
            let Some(edge) = self.next_repair() else {
                return;
            };
            #[cfg(test)]
            assert_eq!(
                Some(edge),
                self.repair_scan(),
                "repair heap disagrees with the scan"
            );
            let e = EdgeId(edge);
            let v = self.g.edge(e).dst.index();
            self.stats.moves += 1;
            self.stats.repairs += 1;
            self.apply_and_rescore(v, Parent::Delta(e));
        }
    }

    /// Verified pop of the repair heap: re-score the top entry and return
    /// its edge only if the key still matches (applying it then re-scores
    /// the edge out of the heap — it is stored). A mismatch records the
    /// current key and looks again.
    fn next_repair(&mut self) -> Option<u32> {
        while let Some((edge, &key)) = self.cands.repair.peek() {
            let current = repair_key(&self.g, &self.plan, &mut self.view, EdgeId(edge as u32));
            if current == Some(key) {
                return Some(key.edge);
            }
            self.cands.set_repair(edge as u32, current);
        }
        None
    }

    /// The repair pick by a full scan of every in-delta: the reference
    /// the repair heap is checked against.
    #[cfg(test)]
    fn repair_scan(&mut self) -> Option<u32> {
        // (retrieval growth, storage saved, edge): minimize the ratio
        // growth/saved; ties prefer the bigger saving, then the lower
        // edge id (deterministic).
        let mut best: Option<(u128, u128, u32)> = None;
        for v in 0..self.g.n() {
            for i in 0..self.g.in_edges(NodeId(v as u32)).len() {
                let e = self.g.in_edges(NodeId(v as u32))[i];
                let Some(RepairKey { grow, save, .. }) =
                    repair_key(&self.g, &self.plan, &mut self.view, e)
                else {
                    continue;
                };
                let better = match best {
                    None => true,
                    Some((bg, bs, be)) => {
                        let (l, r) = (grow * bs, bg * save);
                        l < r
                            || (l == r
                                && (save, std::cmp::Reverse(e.0)) > (bs, std::cmp::Reverse(be)))
                    }
                };
                if better {
                    best = Some((grow, save, e.0));
                }
            }
        }
        best.map(|(_, _, edge)| edge)
    }
}

/// The planner's two candidate heaps, re-scored together on every dirty
/// region: the greedy moves, and the budget-repair deltifications keyed
/// by edge id.
#[derive(Default)]
struct Candidates {
    greedy: CandidateHeap<Move>,
    repair: IndexedHeap<RepairKey>,
}

impl Candidates {
    /// Score `mv` as a greedy move and, for an edge, as a repair move.
    fn rescore(
        &mut self,
        g: &VersionGraph,
        plan: &StoragePlan,
        view: &mut IncrementalPlanView,
        budget: Cost,
        mv: Move,
    ) {
        self.greedy.update(score(g, plan, view, budget, mv), mv);
        if let Move::Reparent { edge } = mv {
            self.set_repair(edge, repair_key(g, plan, view, EdgeId(edge)));
        }
    }

    fn set_repair(&mut self, edge: u32, key: Option<RepairKey>) {
        match key {
            Some(key) => self.repair.set(edge as usize, key),
            None => {
                self.repair.remove(edge as usize);
            }
        }
    }
}

/// Rank of a budget-repair move: storing `edge` for its destination `v`
/// grows total retrieval by `grow` and saves `save > 0` bytes. The
/// greatest key is repaired first: the smallest `grow / save`, then the
/// larger saving, then the lower edge id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RepairKey {
    grow: u128,
    save: u128,
    edge: u32,
}

impl Ord for RepairKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b < c/d  <=>  a*d < c*b (b, d > 0).
        (other.grow * self.save)
            .cmp(&(self.grow * other.save))
            .then(self.save.cmp(&other.save))
            .then(other.edge.cmp(&self.edge))
    }
}

impl PartialOrd for RepairKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Score storing `e` as a repair move, or `None` when it is unusable:
/// already stored, saving nothing (which also rules out `INF`
/// tombstones), closing a cycle, or overflowing retrieval. Reads the same
/// state as the greedy `Reparent` score of `e`, so the same dirty regions
/// keep it current.
fn repair_key(
    g: &VersionGraph,
    plan: &StoragePlan,
    view: &mut IncrementalPlanView,
    e: EdgeId,
) -> Option<RepairKey> {
    let ed = g.edge(e);
    let v = ed.dst.index();
    if plan.parent[v] == Parent::Delta(e) {
        return None;
    }
    let paid = view.paid[v];
    if ed.storage >= paid {
        return None;
    }
    let u = ed.src.index();
    if view.is_ancestor(v, u) {
        return None;
    }
    let new_r = view.r[u].checked_add(ed.retrieval)?;
    if new_r >= INF {
        return None;
    }
    // Retrieval growth over all of v's dependants. A retrieval-reducing
    // saving would be an Infinite-ratio settle move; post-settle it can
    // only be blocked moves surfacing mid-repair — cost it zero and take
    // it.
    Some(RepairKey {
        grow: new_r.saturating_sub(view.r[v]) as u128 * view.size[v] as u128,
        save: (paid - ed.storage) as u128,
        edge: e.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::min_storage_value;
    use dsv_vgraph::generators::{erdos_renyi_bidirectional, CostModel};

    fn settled_invariants(p: &OnlinePlanner) {
        p.plan().validate(p.graph()).expect("plan validates");
        assert!(p.within_budget(), "plan fits the budget");
        let costs = p.plan().costs(p.graph());
        assert_eq!(costs.total_retrieval, p.total_retrieval());
        assert_eq!(costs.storage, p.storage());
    }

    #[test]
    fn absorbs_a_small_commit_stream() {
        let model = CostModel::default();
        let g = erdos_renyi_bidirectional(24, 0.2, &model, 11);
        let budget = min_storage_value(&g) * 4;
        let mut p = OnlinePlanner::new(g, budget).expect("feasible");
        settled_invariants(&p);
        let mut prev = NodeId(0);
        for i in 0..16u64 {
            let v = p.add_version(8_000 + i);
            p.add_edge(prev, v, 100 + i, 120 + i);
            p.add_edge(v, prev, 110 + i, 130 + i);
            settled_invariants(&p);
            prev = v;
        }
        assert!(p.stats().absorbed == 48);
        // The dirty-region loop did far less scoring work than 48
        // from-scratch solves (each ≥ n + m ≈ 200 scores) would have.
        assert!(p.stats().rescored < 48 * (p.graph().n() + p.graph().m()));
    }

    /// Seeded streams at ~1.05× the minimum storage, mixing new versions,
    /// deltas between existing versions and retirements, so budget repair
    /// runs hundreds of times. `repair_budget` asserts that every pick of
    /// the repair heap equals the full scan's.
    #[test]
    fn repair_heap_picks_what_the_scan_picks_at_tight_budgets() {
        let model = CostModel::default();
        let mut repairs = 0;
        for seed in 0..6u64 {
            let g = erdos_renyi_bidirectional(40, 0.1, &model, seed);
            let budget = min_storage_value(&g) * 21 / 20;
            let mut p = OnlinePlanner::new(g, budget).expect("feasible");
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rng = move |below: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % below
            };
            let live = |p: &OnlinePlanner, rng: &mut dyn FnMut(u64) -> u64| loop {
                let v = NodeId(rng(p.graph().n() as u64) as u32);
                if !p.graph().is_retired(v) {
                    return v;
                }
            };
            for _ in 0..150 {
                match rng(4) {
                    0 => {
                        let v = live(&p, &mut rng);
                        p.retire_version(v);
                    }
                    1 => {
                        let (u, v) = (live(&p, &mut rng), live(&p, &mut rng));
                        if u != v {
                            p.add_edge(u, v, 50 + rng(450), 50 + rng(450));
                        }
                    }
                    _ => {
                        let u = live(&p, &mut rng);
                        let v = p.add_version(5_000 + rng(10_000));
                        p.add_edge(u, v, 50 + rng(450), 50 + rng(450));
                        p.add_edge(v, u, 50 + rng(450), 50 + rng(450));
                    }
                }
                p.plan().validate(p.graph()).expect("plan validates");
                let costs = p.plan().costs(p.graph());
                assert_eq!(costs.total_retrieval, p.total_retrieval());
                assert_eq!(costs.storage, p.storage());
            }
            repairs += p.stats().repairs;
        }
        assert!(repairs >= 300, "only {repairs} repair moves ran");
    }

    #[test]
    fn adopting_a_fresh_solution_is_already_settled() {
        let g = erdos_renyi_bidirectional(20, 0.3, &CostModel::default(), 5);
        let budget = min_storage_value(&g) * 2;
        let (plan, _) = lmg_all_with_stats(&g, budget).expect("feasible");
        let p = OnlinePlanner::adopt(g, plan.clone(), budget);
        // Settling a fresh LMG-All plan at the same budget changes nothing.
        assert_eq!(p.plan(), &plan);
        assert_eq!(p.stats().moves, 0);
    }

    #[test]
    fn retire_detaches_dependants_and_frees_budget() {
        let model = CostModel::default();
        let g = erdos_renyi_bidirectional(30, 0.25, &model, 7);
        let budget = min_storage_value(&g) * 2;
        let mut p = OnlinePlanner::new(g, budget).expect("feasible");
        // Retire a handful of versions; every intermediate plan stays
        // valid, in budget, and never stores a tombstoned delta.
        for v in [3u32, 11, 19] {
            p.retire_version(NodeId(v));
            settled_invariants(&p);
            assert!(matches!(p.plan().parent[v as usize], Parent::Materialized));
            for (i, pe) in p.plan().parent.iter().enumerate() {
                if let Parent::Delta(e) = pe {
                    let ed = p.graph().edge(*e);
                    assert!(
                        !p.graph().is_retired(ed.src) && !p.graph().is_retired(ed.dst),
                        "node {i} routed through a retired version"
                    );
                }
            }
        }
        assert_eq!(p.graph().retired_count(), 3);
        // Retiring again is a no-op.
        let stats = p.stats();
        p.retire_version(NodeId(3));
        assert_eq!(p.stats(), stats);
    }

    #[test]
    fn online_objective_within_regret_of_scratch() {
        let model = CostModel::default();
        for seed in 0..4u64 {
            let g = erdos_renyi_bidirectional(26, 0.2, &model, seed);
            let budget = min_storage_value(&g) * 3;
            let Some(mut p) = OnlinePlanner::new(g, budget) else {
                continue;
            };
            let mut prev = NodeId(2);
            for i in 0..12u64 {
                let v = p.add_version(6_000 + 100 * i);
                p.add_edge(prev, v, 200, 150);
                p.add_edge(v, prev, 210, 160);
                if i % 5 == 4 {
                    p.retire_version(NodeId((seed as u32 * 3 + i as u32) % 20));
                }
                prev = v;
            }
            let online = p.total_retrieval();
            let (_, scratch) = lmg_all_with_stats(p.graph(), budget).expect("scratch feasible");
            assert!(
                online as f64 <= ONLINE_REGRET_BOUND * scratch.total_retrieval as f64,
                "regret violated (seed {seed}): online {online} vs scratch {}",
                scratch.total_retrieval
            );
        }
    }
}
