//! The bounded-width MSR dynamic program (DP-BTW, Section 5.3) —
//! **constructive**: the exact certificate carries provenance, so the
//! winning frontier entry reconstructs an optimal [`StoragePlan`].
//!
//! The paper formulates the DP over nice tree decompositions with state
//! `(Par, Dep, Ret, Anc, ρ) → σ`. This implementation runs the same state
//! machine over a *nice path decomposition* (a vertex separation order —
//! every step is one introduce followed by forgets), which covers the
//! paper's practical motivation (natural version graphs have tiny width)
//! while avoiding the join-node compatibility machinery; the restriction is
//! recorded in `DESIGN.md`.
//!
//! Per live (in-bag) vertex the interface stores exactly the paper's
//! information:
//!
//! * `VS::Rooted{γ}` — the `Ret` value: retrieval already resolved;
//! * `VS::Wait{k}` — the `Dep` value: `k` processed versions (itself
//!   included) hang below an as-yet unparented vertex, priced with
//!   `R(v) = 0` and re-priced exactly when the parent arrives;
//! * `VS::Chain{root, δ}` — the `Par`/`Anc` information: parent chosen,
//!   retrieval resolves together with the waiting chain `root` (`δ` = path
//!   cost from the root), and the root pointer is what blocks cycles.
//!
//! Values are exact (no discretization): per state key a Pareto frontier of
//! `(storage, total retrieval)` entries.
//!
//! ## Provenance: the decision arena
//!
//! Every frontier entry additionally carries an index into an append-only
//! **decision arena**. Each arena node records the entry's predecessor and
//! the one plan-visible decision taken at that step:
//!
//! * `Decision::Materialize` — the introduced vertex is stored in full;
//! * `Decision::Edge` — a delta edge `(p, v)` is stored, either at
//!   introduce time (`v` picks a live in-neighbour) or during the adoption
//!   closure (the introduced vertex adopts a waiting out-neighbour, which
//!   is what re-roots that vertex's waiting chain).
//!
//! Introducing a vertex as *waiting* makes no plan-visible decision, so it
//! shares its predecessor's arena node; the eventual adoption edge is the
//! decision that parents it. Dominated-point pruning and the
//! [`BtwConfig::max_states`] bound work exactly as before — provenance is
//! payload, never part of the dominance order — and at every forget step
//! the arena is **compacted**: entries reachable from the live frontier are
//! marked, everything else (provenance of pruned/dominated states) is
//! dropped and indices are remapped, so arena memory stays proportional to
//! the live frontier times the chain depth instead of the total number of
//! transitions ever taken.
//!
//! A terminal entry walks its chain back to a full edge/materialization
//! set: [`BtwResult::plan_under`] turns the best in-budget entry into a
//! validated [`StoragePlan`] whose costs equal the entry exactly — the
//! certificate *is* the plan. The state space is exponential in the width,
//! so this solver targets the low-width graphs the paper motivates;
//! [`BtwConfig::max_states`] bounds the work and `None` is returned when
//! exceeded.

use super::order::{separation_order, SeparationOrder};
use crate::cancel::CancelToken;
use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::{cost_add, Cost, EdgeId, VersionGraph, INF};
use std::collections::BTreeMap;

/// Per-vertex interface status.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum VS {
    /// Retrieval resolved to `γ`.
    Rooted { gamma: Cost },
    /// No parent yet; `k` dependents (itself included).
    Wait { k: u32 },
    /// Parent assigned; resolves with waiting vertex `root`, at distance
    /// `offset` below it.
    Chain { root: u32, offset: Cost },
}

/// Interface key: live vertices with statuses, sorted by vertex id.
type Key = Vec<(u32, VS)>;
/// `(storage, total retrieval)` frontier point.
type Pair = (Cost, Cost);
/// A frontier entry: the Pareto point plus its provenance-arena index.
type Entry = (Cost, Cost, u32);
/// States are kept in a `BTreeMap` (not a hash map) so every iteration
/// order — and therefore every arena index — is deterministic: equal-cost
/// ties always reconstruct the same plan, run to run and thread to thread.
type StateMap = BTreeMap<Key, Vec<Entry>>;

/// Sentinel provenance index: the DP's initial state (no decisions yet).
const NO_PROV: u32 = u32::MAX;

/// One plan-visible decision recorded in the provenance arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    /// This vertex is materialized.
    Materialize(u32),
    /// This delta edge is stored (its `dst` is reconstructed from `src`).
    Edge(EdgeId),
}

/// An arena node: the predecessor entry plus the decision taken.
#[derive(Clone, Copy, Debug)]
struct ProvEntry {
    prev: u32,
    decision: Decision,
}

/// Append-only decision arena with mark-and-sweep compaction.
#[derive(Clone, Debug, Default)]
struct DecisionArena {
    entries: Vec<ProvEntry>,
    peak: usize,
}

impl DecisionArena {
    /// Append a decision; `None` when the index space is exhausted (the
    /// state budget would long have been blown first in practice).
    fn push(&mut self, prev: u32, decision: Decision) -> Option<u32> {
        if self.entries.len() >= NO_PROV as usize {
            return None;
        }
        self.entries.push(ProvEntry { prev, decision });
        self.peak = self.peak.max(self.entries.len());
        Some((self.entries.len() - 1) as u32)
    }

    /// Drop every arena node not reachable from `states`' entries and
    /// remap the survivors in place. Because the arena is append-only,
    /// `prev` always points backwards, so a single forward pass remaps
    /// consistently.
    fn compact(&mut self, states: &mut StateMap) {
        let mut live = vec![false; self.entries.len()];
        for list in states.values() {
            for &(_, _, prov) in list.iter() {
                let mut p = prov;
                while p != NO_PROV && !live[p as usize] {
                    live[p as usize] = true;
                    p = self.entries[p as usize].prev;
                }
            }
        }
        let mut remap = vec![NO_PROV; self.entries.len()];
        let mut kept: u32 = 0;
        for (i, &keep) in live.iter().enumerate() {
            if keep {
                remap[i] = kept;
                kept += 1;
            }
        }
        let mut out = Vec::with_capacity(kept as usize);
        for (i, e) in self.entries.iter().enumerate() {
            if live[i] {
                let prev = if e.prev == NO_PROV {
                    NO_PROV
                } else {
                    remap[e.prev as usize]
                };
                out.push(ProvEntry {
                    prev,
                    decision: e.decision,
                });
            }
        }
        self.entries = out;
        for list in states.values_mut() {
            for e in list.iter_mut() {
                if e.2 != NO_PROV {
                    e.2 = remap[e.2 as usize];
                }
            }
        }
    }
}

/// Configuration for [`btw_msr`].
#[derive(Clone, Debug)]
pub struct BtwConfig {
    /// Abort (return `None`) when a step's state count exceeds this.
    pub max_states: usize,
    /// Drop partial solutions whose storage exceeds this.
    pub storage_prune: Option<Cost>,
}

impl Default for BtwConfig {
    fn default() -> Self {
        BtwConfig {
            max_states: 2_000_000,
            storage_prune: None,
        }
    }
}

/// Result of a DP-BTW run: the exact frontier *and* the provenance needed
/// to reconstruct an optimal plan for any point on it.
#[derive(Clone, Debug)]
pub struct BtwResult {
    /// The exact `(storage, retrieval, provenance)` Pareto frontier,
    /// sorted by storage. Provenance indices point into `arena`.
    frontier: Vec<Entry>,
    /// The compacted decision arena (only terminal chains survive).
    arena: DecisionArena,
    /// Width (max live-set size − 1) of the separation order used.
    pub width: usize,
    /// Peak number of interface states.
    pub peak_states: usize,
    /// Peak number of decision-arena nodes alive at any point of the run —
    /// the provenance memory high-water mark, reported so benchmarks can
    /// track the overhead of being constructive.
    pub peak_arena: usize,
}

impl BtwResult {
    /// The exact `(storage, total retrieval)` Pareto frontier.
    pub fn frontier_pairs(&self) -> Vec<Pair> {
        self.frontier.iter().map(|&(s, r, _)| (s, r)).collect()
    }

    /// Best total retrieval under a storage budget.
    pub fn best_under(&self, storage_budget: Cost) -> Option<Cost> {
        self.frontier
            .iter()
            .filter(|&&(s, _, _)| s <= storage_budget)
            .map(|&(_, r, _)| r)
            .min()
    }

    /// Reconstruct an **optimal plan** under a storage budget by walking
    /// the winning entry's decision chain, or `None` if no frontier point
    /// fits. The plan is validated and its exact costs are returned; they
    /// equal the frontier entry by construction (the differential suite
    /// and the `btw` bench gate assert this).
    pub fn plan_under(
        &self,
        g: &VersionGraph,
        storage_budget: Cost,
    ) -> Option<(StoragePlan, Pair)> {
        let mut best: Option<Entry> = None;
        for &(s, r, p) in &self.frontier {
            if s <= storage_budget && best.is_none_or(|(bs, br, _)| (r, s) < (br, bs)) {
                best = Some((s, r, p));
            }
        }
        let (s, r, prov) = best?;
        let plan = self.reconstruct(g, prov);
        debug_assert_eq!(plan.validate(g), Ok(()));
        debug_assert_eq!(
            {
                let c = plan.costs(g);
                (c.storage, c.total_retrieval)
            },
            (s, r),
            "reconstructed plan must realize its frontier entry exactly"
        );
        Some((plan, (s, r)))
    }

    /// Walk a provenance chain back to the initial state, collecting the
    /// one decision every vertex received (a materialization, or the delta
    /// edge entering it).
    fn reconstruct(&self, g: &VersionGraph, mut prov: u32) -> StoragePlan {
        let mut parent: Vec<Option<Parent>> = vec![None; g.n()];
        while prov != NO_PROV {
            let node = &self.arena.entries[prov as usize];
            let (v, p) = match node.decision {
                Decision::Materialize(v) => (v as usize, Parent::Materialized),
                Decision::Edge(e) => (g.edge(e).dst.index(), Parent::Delta(e)),
            };
            assert!(parent[v].is_none(), "DP-BTW provenance assigned v{v} twice");
            parent[v] = Some(p);
            prov = node.prev;
        }
        StoragePlan {
            parent: parent
                .into_iter()
                .enumerate()
                .map(|(v, p)| p.unwrap_or_else(|| panic!("DP-BTW provenance never decided v{v}")))
                .collect(),
        }
    }
}

/// Whether a partial `(storage, retrieval)` point is worth keeping.
fn admissible(cfg: &BtwConfig, pair: Pair) -> bool {
    pair.0 < INF && pair.1 < INF && cfg.storage_prune.is_none_or(|l| pair.0 <= l)
}

/// Exact Pareto compression of every frontier in the map. Entries sort by
/// `(storage, retrieval, provenance)`, so equal-cost ties deterministically
/// keep the smallest (oldest) provenance index.
fn compress(map: &mut StateMap) {
    for list in map.values_mut() {
        list.sort_unstable();
        let mut out: Vec<Entry> = Vec::with_capacity(list.len());
        for &(s, r, p) in list.iter() {
            match out.last() {
                Some(&(_, lr, _)) if r >= lr => {}
                _ => out.push((s, r, p)),
            }
        }
        *list = out;
    }
}

/// Update a key's entry for vertex `x`.
fn with_status(key: &Key, x: u32, vs: VS) -> Key {
    let mut k = key.clone();
    let pos = k.binary_search_by_key(&x, |&(v, _)| v).expect("x is live");
    k[pos].1 = vs;
    k
}

fn status_of(key: &Key, x: u32) -> VS {
    let pos = key
        .binary_search_by_key(&x, |&(v, _)| v)
        .expect("x is live");
    key[pos].1
}

/// Re-point every `Chain{root: from, δ}` entry after `from` resolved to
/// retrieval `gamma_from` (entries become `Rooted`).
fn resolve_chains(key: &mut Key, from: u32, gamma_from: Cost) {
    for (_, vs) in key.iter_mut() {
        if let VS::Chain { root, offset } = *vs {
            if root == from {
                *vs = VS::Rooted {
                    gamma: cost_add(gamma_from, offset),
                };
            }
        }
    }
}

/// Re-point every `Chain{root: from, δ}` entry onto a new root at extra
/// distance `shift` (the old root chained into the new one).
fn repoint_chains(key: &mut Key, from: u32, to: u32, shift: Cost) {
    for (_, vs) in key.iter_mut() {
        if let VS::Chain { root, offset } = *vs {
            if root == from {
                *vs = VS::Chain {
                    root: to,
                    offset: cost_add(shift, offset),
                };
            }
        }
    }
}

/// `k · γ` with saturation.
#[inline]
fn mul(k: u32, g: Cost) -> Cost {
    let p = (k as u128) * (g as u128);
    if p >= INF as u128 {
        INF
    } else {
        p as Cost
    }
}

/// Exact MSR over a low-width version graph. Returns `None` when the state
/// budget is exceeded (width too large for exact treatment) or when
/// `cancel`, polled once per introduced vertex, fired; callers that need to
/// tell the two apart re-check the token afterwards.
pub fn btw_msr(g: &VersionGraph, cfg: &BtwConfig, cancel: &CancelToken) -> Option<BtwResult> {
    let so: SeparationOrder = separation_order(g);
    let mut arena = DecisionArena::default();
    let mut states: StateMap = BTreeMap::new();
    states.insert(Vec::new(), vec![(0, 0, NO_PROV)]);
    let mut peak = 1usize;

    for (step, &v) in so.order.iter().enumerate() {
        if cancel.is_cancelled() {
            return None;
        }
        let vid = v.0;
        // ---- introduce v: choose its storage decision.
        let mut next: StateMap = BTreeMap::new();
        for (key, list) in &states {
            // Base keys with v inserted.
            let base = key.clone();
            let pos = base.partition_point(|&(x, _)| x < vid);
            // Option 1: materialize v.
            {
                let mut k = base.clone();
                k.insert(pos, (vid, VS::Rooted { gamma: 0 }));
                for &(s, r, p) in list {
                    let pair = (cost_add(s, g.node_storage(v)), r);
                    if admissible(cfg, pair) {
                        let prov = arena.push(p, Decision::Materialize(vid))?;
                        next.entry(k.clone())
                            .or_default()
                            .push((pair.0, pair.1, prov));
                    }
                }
            }
            // Option 2: leave v waiting for a parent — no plan-visible
            // decision yet, so provenance passes through unchanged.
            {
                let mut k = base.clone();
                k.insert(pos, (vid, VS::Wait { k: 1 }));
                for &(s, r, p) in list {
                    if admissible(cfg, (s, r)) {
                        next.entry(k.clone()).or_default().push((s, r, p));
                    }
                }
            }
            // Option 3: v takes a live in-neighbour as parent.
            for &eid in g.in_edges(v) {
                let e = g.edge(eid);
                let u = e.src.0;
                if u == vid || key.binary_search_by_key(&u, |&(x, _)| x).is_err() {
                    continue; // u not live (or self-loop)
                }
                let (extra_rho, vstat, fixup): (Cost, VS, Option<(u32, VS)>) =
                    match status_of(key, u) {
                        VS::Rooted { gamma } => {
                            let rv = cost_add(gamma, e.retrieval);
                            (rv, VS::Rooted { gamma: rv }, None)
                        }
                        VS::Wait { k } => (
                            e.retrieval,
                            VS::Chain {
                                root: u,
                                offset: e.retrieval,
                            },
                            Some((u, VS::Wait { k: k + 1 })),
                        ),
                        VS::Chain { root, offset } => {
                            let d = cost_add(offset, e.retrieval);
                            let rk = match status_of(key, root) {
                                VS::Wait { k } => k,
                                _ => unreachable!("chain roots are waiting"),
                            };
                            (
                                d,
                                VS::Chain { root, offset: d },
                                Some((root, VS::Wait { k: rk + 1 })),
                            )
                        }
                    };
                let mut k2 = base.clone();
                k2.insert(pos, (vid, vstat));
                if let Some((x, vs)) = fixup {
                    k2 = with_status(&k2, x, vs);
                }
                for &(s, r, p) in list {
                    let pair = (cost_add(s, e.storage), cost_add(r, extra_rho));
                    if admissible(cfg, pair) {
                        let prov = arena.push(p, Decision::Edge(eid))?;
                        next.entry(k2.clone())
                            .or_default()
                            .push((pair.0, pair.1, prov));
                    }
                }
            }
        }
        compress(&mut next);

        // ---- adoption closure: v adopts waiting out-neighbours.
        let out_edges: Vec<EdgeId> = g
            .out_edges(v)
            .iter()
            .copied()
            .filter(|&eid| g.edge(eid).dst != v)
            .collect();
        if !out_edges.is_empty() {
            let mut frontier: Vec<(Key, Vec<Entry>)> = next.clone().into_iter().collect();
            while let Some((key, list)) = frontier.pop() {
                if frontier.len() > cfg.max_states {
                    return None; // closure blow-up on a dense bag
                }
                for &eid in &out_edges {
                    let e = g.edge(eid);
                    let u = e.dst.0;
                    let Ok(_) = key.binary_search_by_key(&u, |&(x, _)| x) else {
                        continue; // u already forgotten? cannot happen pre-forget
                    };
                    let VS::Wait { k: ku } = status_of(&key, u) else {
                        continue; // only waiting vertices can be adopted
                    };
                    let vstat = status_of(&key, vid);
                    // Cycle guard: v must not hang (transitively) below u.
                    let v_root = match vstat {
                        VS::Rooted { .. } => None,
                        VS::Wait { .. } => Some(vid),
                        VS::Chain { root, .. } => Some(root),
                    };
                    if v_root == Some(u) {
                        continue;
                    }
                    let mut k2;
                    let extra_rho;
                    match vstat {
                        VS::Rooted { gamma } => {
                            let base = cost_add(gamma, e.retrieval);
                            extra_rho = mul(ku, base);
                            k2 = with_status(&key, u, VS::Rooted { gamma: base });
                            resolve_chains(&mut k2, u, base);
                        }
                        VS::Wait { k: kv } => {
                            extra_rho = mul(ku, e.retrieval);
                            k2 = with_status(
                                &key,
                                u,
                                VS::Chain {
                                    root: vid,
                                    offset: e.retrieval,
                                },
                            );
                            repoint_chains(&mut k2, u, vid, e.retrieval);
                            k2 = with_status(&k2, vid, VS::Wait { k: kv + ku });
                        }
                        VS::Chain { root, offset } => {
                            let d = cost_add(offset, e.retrieval);
                            extra_rho = mul(ku, d);
                            k2 = with_status(&key, u, VS::Chain { root, offset: d });
                            repoint_chains(&mut k2, u, root, d);
                            let VS::Wait { k: rk } = status_of(&k2, root) else {
                                unreachable!("chain roots are waiting");
                            };
                            k2 = with_status(&k2, root, VS::Wait { k: rk + ku });
                        }
                    }
                    let mut new_entries = Vec::with_capacity(list.len());
                    for &(s, r, p) in &list {
                        let pair = (cost_add(s, e.storage), cost_add(r, extra_rho));
                        if admissible(cfg, pair) {
                            let prov = arena.push(p, Decision::Edge(eid))?;
                            new_entries.push((pair.0, pair.1, prov));
                        }
                    }
                    if new_entries.is_empty() {
                        continue;
                    }
                    // Feed the closure: adopted states can adopt further.
                    frontier.push((k2.clone(), new_entries.clone()));
                    next.entry(k2).or_default().extend(new_entries);
                }
            }
            compress(&mut next);
        }

        // ---- forgets.
        for f in &so.forget_after[step] {
            let fid = f.0;
            let mut after: StateMap = BTreeMap::new();
            for (key, list) in next {
                let pos = key
                    .binary_search_by_key(&fid, |&(x, _)| x)
                    .expect("forgotten vertex is live");
                if matches!(key[pos].1, VS::Wait { .. }) {
                    continue; // can never obtain a parent: invalid
                }
                let mut k2 = key.clone();
                k2.remove(pos);
                after.entry(k2).or_default().extend(list);
            }
            next = after;
            compress(&mut next);
        }
        // Forgotten states (and every dominated point) leave dead
        // provenance behind; reclaim it so the arena tracks the live
        // frontier, not the transition history.
        if !so.forget_after[step].is_empty() {
            arena.compact(&mut next);
        }

        peak = peak.max(next.values().map(|l| l.len()).sum::<usize>());
        if peak > cfg.max_states {
            return None;
        }
        states = next;
    }

    let mut terminal: StateMap = BTreeMap::new();
    terminal.insert(Vec::new(), states.remove(&Vec::new()).unwrap_or_default());
    arena.compact(&mut terminal);
    let frontier = terminal.remove(&Vec::new()).unwrap_or_default();
    let peak_arena = arena.peak;
    Some(BtwResult {
        frontier,
        arena,
        width: so.width(),
        peak_states: peak,
        peak_arena,
    })
}

/// Convenience wrapper mirroring the other solvers: best retrieval under a
/// budget, or `None` if infeasible / state-budget exceeded.
pub fn btw_msr_value(g: &VersionGraph, storage_budget: Cost) -> Option<Cost> {
    let cfg = BtwConfig {
        storage_prune: Some(storage_budget),
        ..Default::default()
    };
    btw_msr(g, &cfg, &CancelToken::inert())?.best_under(storage_budget)
}

/// Constructive convenience wrapper: the optimal plan under a budget, or
/// `None` if infeasible / state-budget exceeded.
pub fn btw_msr_plan(g: &VersionGraph, storage_budget: Cost) -> Option<(StoragePlan, Pair)> {
    let cfg = BtwConfig {
        storage_prune: Some(storage_budget),
        ..Default::default()
    };
    btw_msr(g, &cfg, &CancelToken::inert())?.plan_under(g, storage_budget)
}

/// A trivially feasible witness plan used by tests to sanity-check frontier
/// end points (materializing everything realizes `(Σ s_v, 0)`).
pub fn materialize_all_point(g: &VersionGraph) -> (StoragePlan, Pair) {
    let plan = StoragePlan::materialize_all(g);
    let s = plan.storage_cost(g);
    (plan, (s, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::msr_optimum;
    use dsv_vgraph::generators::{
        bidirectional_path, erdos_renyi_bidirectional, random_tree, series_parallel, CostModel,
    };
    use dsv_vgraph::NodeId;

    fn check_against_brute(g: &VersionGraph, budgets: &[Cost]) {
        for &budget in budgets {
            let want = msr_optimum(g, budget);
            let got = btw_msr_value(g, budget);
            assert_eq!(got, want, "budget {budget}");
            // The constructive path agrees with the value path: the
            // reconstructed plan validates and realizes the certificate.
            match btw_msr_plan(g, budget) {
                None => assert_eq!(want, None),
                Some((plan, (s, r))) => {
                    plan.validate(g).expect("reconstructed plan validates");
                    let costs = plan.costs(g);
                    assert_eq!((costs.storage, costs.total_retrieval), (s, r));
                    assert!(costs.storage <= budget);
                    assert_eq!(Some(r), want, "plan realizes the optimum");
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_on_paths() {
        let g = bidirectional_path(6, &CostModel::default(), 1);
        let smin = crate::baselines::min_storage_value(&g);
        check_against_brute(&g, &[smin - 1, smin, smin * 3 / 2, smin * 3]);
    }

    #[test]
    fn matches_brute_force_on_random_trees() {
        for seed in 0..5 {
            let g = random_tree(6, &CostModel::default(), seed);
            let smin = crate::baselines::min_storage_value(&g);
            check_against_brute(&g, &[smin, smin * 2]);
        }
    }

    #[test]
    fn matches_brute_force_on_series_parallel() {
        // The class the paper highlights: treewidth 2, NOT a tree — the
        // tree-restricted DP cannot be exact here, DP-BTW must be.
        for seed in 0..5 {
            let g = series_parallel(4, &CostModel::default(), seed);
            if g.n() > 7 {
                continue; // keep brute force tractable
            }
            let smin = crate::baselines::min_storage_value(&g);
            check_against_brute(&g, &[smin, smin * 2, smin * 4]);
        }
    }

    #[test]
    fn matches_brute_force_on_small_er_graphs() {
        for seed in 0..6 {
            let g = erdos_renyi_bidirectional(6, 0.4, &CostModel::default(), seed);
            let smin = crate::baselines::min_storage_value(&g);
            check_against_brute(&g, &[smin, smin * 2]);
        }
    }

    #[test]
    fn frontier_endpoints_are_sane() {
        let g = bidirectional_path(5, &CostModel::default(), 7);
        let r = btw_msr(&g, &BtwConfig::default(), &CancelToken::inert()).expect("small width");
        assert!(r.width <= 2);
        let frontier = r.frontier_pairs();
        // Low end: the minimum-storage plan.
        let smin = crate::baselines::min_storage_value(&g);
        assert_eq!(frontier.first().expect("non-empty").0, smin);
        // High end: materializing everything gives zero retrieval.
        let (_, (s_all, _)) = materialize_all_point(&g);
        assert!(frontier.iter().any(|&(s, rho)| rho == 0 && s <= s_all));
        // Every frontier point reconstructs into a plan realizing it.
        for &(s, rho) in &frontier {
            let (plan, got) = r.plan_under(&g, s).expect("on-frontier budget");
            assert_eq!(got, (s, rho));
            let costs = plan.costs(&g);
            assert_eq!((costs.storage, costs.total_retrieval), (s, rho));
        }
    }

    #[test]
    fn beats_tree_dp_on_non_tree_graphs() {
        // On graphs with useful non-tree edges, the exact bounded-width DP
        // must be at least as good as the tree-restricted DP.
        for seed in 0..4 {
            let g = erdos_renyi_bidirectional(7, 0.5, &CostModel::default(), seed + 20);
            let smin = crate::baselines::min_storage_value(&g);
            let budget = smin * 2;
            let btw = btw_msr_value(&g, budget).expect("feasible");
            if let Some(t) = crate::tree::extract_tree(&g, NodeId(0)) {
                let dp = crate::tree::msr_tree_exact(&g, &t);
                if let Some((_, tree_val)) = dp.best_under(budget) {
                    assert!(btw <= tree_val, "seed {seed}: {btw} > {tree_val}");
                }
            }
        }
    }

    #[test]
    fn gives_up_gracefully_on_state_explosion() {
        let g = erdos_renyi_bidirectional(16, 0.9, &CostModel::default(), 3);
        let cfg = BtwConfig {
            max_states: 50,
            ..Default::default()
        };
        assert!(btw_msr(&g, &cfg, &CancelToken::inert()).is_none());
    }

    #[test]
    fn compaction_keeps_the_arena_near_the_live_frontier() {
        // On a long path the live frontier is tiny at every step; without
        // compaction the arena would hold one node per transition ever
        // taken (Ω(n · states)); with it the peak stays far below that.
        let g = bidirectional_path(40, &CostModel::default(), 9);
        let r = btw_msr(&g, &BtwConfig::default(), &CancelToken::inert()).expect("tiny width");
        assert!(
            r.peak_arena < 40 * r.peak_states,
            "peak arena {} not proportional to the live frontier (peak states {})",
            r.peak_arena,
            r.peak_states
        );
        // And the surviving arena holds exactly the terminal chains.
        assert!(r.arena.entries.len() <= r.frontier.len() * g.n());
    }

    #[test]
    fn reconstruction_is_deterministic() {
        // Equal-cost ties must resolve identically run to run (BTreeMap
        // states + smallest-provenance tie-break), so two independent DP
        // runs return byte-identical plans.
        for seed in 0..4 {
            let g = erdos_renyi_bidirectional(8, 0.5, &CostModel::default(), seed + 40);
            let smin = crate::baselines::min_storage_value(&g);
            let budget = smin * 2;
            let a = btw_msr_plan(&g, budget);
            let b = btw_msr_plan(&g, budget);
            assert_eq!(
                a.map(|(p, c)| (p.parent, c)),
                b.map(|(p, c)| (p.parent, c)),
                "seed {seed}"
            );
        }
    }
}
