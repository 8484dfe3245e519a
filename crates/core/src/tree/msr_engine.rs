//! The tree MSR dynamic-programming engine (Sections 5.1 and 6.2).
//!
//! One engine powers three front ends:
//!
//! * **exact** — no discretization; exact optimum over tree plans (the
//!   `ε → 0` limit of the paper's FPTAS, used as ground truth in tests);
//! * **FPTAS** — the Section-5.1 scheme: root-retrieval values `γ` rounded
//!   to ticks of size `l = ε·r_max/n²`;
//! * **heuristic (DP-MSR)** — the Section-6.2 practical variant: geometric
//!   discretization, storage-indexed Pareto frontiers, and pruning.
//!
//! ## State design
//!
//! Processing the (extracted) bidirectional tree bottom-up, each node `v`
//! summarizes its subtree by an *interface* to its parent:
//!
//! * `Dep(k)` — `v` will be retrieved from its tree parent; `k` counts the
//!   versions retrieved through `v` (including `v`), the paper's dependency
//!   number. Costs are priced with `R(v) = 0`; the parent later adds
//!   `k · (R(parent) + r(parent→v))` exactly.
//! * `Up(γ)` — `v` is materialized or retrieved from inside its subtree
//!   with final retrieval `R(v) = γ`, the paper's root-retrieval value; the
//!   parent may chain onto `v` at cost `γ + r(v→parent)`.
//!
//! For each interface the engine keeps a Pareto frontier of
//! `(storage, total retrieval)` pairs. Keeping the *retrieval sums exact*
//! and discretizing only `γ` (plus bucketing `k` in heuristic mode)
//! dominates the paper's scheme, which also rounds the running sums: every
//! frontier entry corresponds to a real plan whose cost is computed
//! exactly.
//!
//! The paper's eight binary-tree cases (Figure 7) arise here as
//! combinations of three per-child options — *closed* (child subtree
//! self-sufficient), *hang* (child retrieved from `v`), *source* (`v`
//! retrieved from child) — folded over children sequentially, which also
//! removes the need for the Appendix-C binarization.
//!
//! Reconstruction is provenance-free: a top-down pass re-runs each node's
//! fold (deterministic, so it reproduces the same frontiers) and back-tracks
//! the exact arithmetic that produced the chosen pair.

use super::extract::BidirTree;
use crate::cancel::CancelToken;
use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::{cost_add, Cost, NodeId, VersionGraph, INF};
use std::collections::HashMap;

/// A `(storage, total retrieval)` point.
pub type Pair = (Cost, Cost);

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct TreeDpConfig {
    /// Rounding grid for root-retrieval values `γ`.
    pub gamma: GammaGrid,
    /// Dependency counts up to this value stay exact.
    pub k_exact_limit: u32,
    /// Geometric bucket ratio for dependency counts above the limit.
    pub k_ratio: f64,
    /// Geometric coalescing ratio for frontier storage values (`1.0` =
    /// exact dominance only).
    pub storage_ratio: f64,
    /// Hard cap on frontier length (`usize::MAX` = unlimited).
    pub pareto_cap: usize,
    /// Drop partial solutions whose storage exceeds this.
    pub storage_prune: Option<Cost>,
    /// Drop `Up` states whose `γ` exceeds this.
    pub gamma_prune: Option<Cost>,
    /// Cap on the total number of `Up` entries per node after cross-key
    /// dominance pruning (an entry is *exactly* useless when another entry
    /// has smaller-or-equal γ, storage, and retrieval, so dominance pruning
    /// is lossless; only this cap is lossy).
    pub up_cross_cap: usize,
}

/// How root-retrieval values are rounded (always upward, so estimates stay
/// conservative and reconstructed plans can only be cheaper).
#[derive(Clone, Debug)]
pub enum GammaGrid {
    /// No rounding.
    Exact,
    /// Round up to multiples of the tick (the paper's FPTAS grid).
    Linear(Cost),
    /// Round up to precomputed boundaries (geometric grids: log-many keys
    /// over the whole chain-depth range, the Section-6.2 discretization).
    Table(std::sync::Arc<Vec<Cost>>),
}

impl GammaGrid {
    /// Build a geometric grid `0, base, base·q, …` up to `top` (boundaries
    /// are strictly increasing integers; `top` itself is included).
    pub fn geometric(base: Cost, ratio: f64, top: Cost) -> Self {
        let mut v: Vec<Cost> = vec![0];
        let mut b = base.max(1);
        let q = ratio.max(1.0 + 1e-9);
        while b < top {
            v.push(b);
            b = (b + 1).max((b as f64 * q).ceil() as Cost);
        }
        v.push(top);
        GammaGrid::Table(std::sync::Arc::new(v))
    }

    /// Round `g` up onto the grid ([`INF`] when above the last boundary).
    #[inline]
    pub fn round(&self, g: Cost) -> Cost {
        if g >= INF {
            return INF;
        }
        match self {
            GammaGrid::Exact => g,
            GammaGrid::Linear(l) if *l <= 1 => g,
            GammaGrid::Linear(l) => g.div_ceil(*l) * *l,
            GammaGrid::Table(t) => {
                let i = t.partition_point(|&b| b < g);
                if i < t.len() {
                    t[i]
                } else {
                    INF
                }
            }
        }
    }
}

impl TreeDpConfig {
    /// Exact optimum over tree plans — exponential-state in the worst case,
    /// fine on small trees.
    pub fn exact() -> Self {
        TreeDpConfig {
            gamma: GammaGrid::Exact,
            k_exact_limit: u32::MAX,
            k_ratio: 1.0,
            storage_ratio: 1.0,
            pareto_cap: usize::MAX,
            storage_prune: None,
            gamma_prune: None,
            up_cross_cap: usize::MAX,
        }
    }

    /// The Section-5.1 FPTAS: `γ` ticks of `l = ε·r_max/n²`.
    pub fn fptas(g: &VersionGraph, epsilon: f64) -> Self {
        let n = g.n().max(2) as f64;
        let rmax = g.max_edge_retrieval().max(1) as f64;
        let l = (epsilon * rmax / (n * n)).floor().max(1.0) as Cost;
        TreeDpConfig {
            gamma: GammaGrid::Linear(l),
            ..TreeDpConfig::exact()
        }
    }

    /// The Section-6.2 practical configuration: geometric everything plus
    /// pruning. `storage_prune` should usually be the top of the sweep
    /// range (the paper prunes at 2–10× the minimum storage).
    ///
    /// State budgets adapt to the graph size: small graphs get near-exact
    /// resolution, large graphs get tight caps so the per-node table stays
    /// around a thousand entries (the discretization/pruning levers of
    /// Section 6.2). γ uses a *linear* grid — rounding errors stay additive
    /// along deep version chains — and state breadth is bounded by the
    /// lossless cross-key dominance prune plus a cap, so chains thousands of
    /// commits deep still feed retrieval upward.
    pub fn heuristic(g: &VersionGraph, storage_prune: Option<Cost>) -> Self {
        let rmax = g.max_edge_retrieval().max(1);
        let r_avg = (g
            .edges()
            .iter()
            .map(|e| e.retrieval as u128)
            .sum::<u128>()
            .checked_div(g.m() as u128)
            .unwrap_or(1)
            .max(1)) as Cost;
        let small = g.n() < 100;
        let gamma_top = (g.n() as Cost)
            .saturating_mul(r_avg)
            .saturating_mul(4)
            .max(rmax.saturating_mul(4));
        let gamma_tick = if small {
            (r_avg / 16).max(1)
        } else {
            (r_avg / 8).max(1)
        };
        TreeDpConfig {
            gamma: GammaGrid::Linear(gamma_tick),
            k_exact_limit: if small { 128 } else { 4 },
            k_ratio: if small { 1.3 } else { 1.5 },
            storage_ratio: if small { 1.01 } else { 1.03 },
            pareto_cap: if small { 48 } else { 12 },
            storage_prune,
            gamma_prune: Some(gamma_top),
            up_cross_cap: if small { 512 } else { 96 },
        }
    }

    #[inline]
    fn round_gamma(&self, g: Cost) -> Cost {
        self.gamma.round(g)
    }

    #[inline]
    fn bucket_k(&self, k: u64) -> u32 {
        if k <= self.k_exact_limit as u64 {
            return k as u32;
        }
        // Smallest geometric boundary >= k (deterministic, monotone).
        let mut b = self.k_exact_limit.max(1) as f64;
        loop {
            let cur = b.ceil() as u64;
            if cur >= k {
                return cur.min(u32::MAX as u64) as u32;
            }
            b *= self.k_ratio.max(1.0 + 1e-9);
        }
    }
}

/// Interface key of a partial solution during the child fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum AccKey {
    /// Source will be the tree parent; `k` = dependency count.
    Dep(u32),
    /// Source will be a not-yet-processed child; `k` = dependency count.
    Pend(u32),
    /// Source resolved inside; `γ` = final retrieval of the node.
    Up(Cost),
}

type AccMap = HashMap<AccKey, Vec<Pair>>;

/// Finalized per-node tables.
#[derive(Clone, Debug, Default)]
pub struct NodeTable {
    /// `Dep(k)` frontiers.
    pub dep: HashMap<u32, Vec<Pair>>,
    /// `Up(γ)` frontiers.
    pub up: HashMap<Cost, Vec<Pair>>,
}

/// `k · γ` with saturation at [`INF`].
#[inline]
fn mul_kg(k: u32, g: Cost) -> Cost {
    if g >= INF {
        return INF;
    }
    let p = (k as u128) * (g as u128);
    if p >= INF as u128 {
        INF
    } else {
        p as Cost
    }
}

/// Compress a frontier: exact dominance, then optional geometric
/// coalescing (keeping the best-retrieval representative per storage
/// bucket, plus the global minimum-storage point so tight budgets stay
/// feasible), then an even-thinning cap.
fn compress(list: &mut Vec<Pair>, cfg: &TreeDpConfig) {
    if list.is_empty() {
        return;
    }
    list.sort_unstable();
    // Exact Pareto: storage ascending, retrieval strictly descending.
    let mut pareto: Vec<Pair> = Vec::with_capacity(list.len());
    for &(s, r) in list.iter() {
        match pareto.last() {
            Some(&(_, lr)) if r >= lr => continue,
            _ => pareto.push((s, r)),
        }
    }
    let mut out: Vec<Pair>;
    if cfg.storage_ratio <= 1.0 {
        out = pareto;
    } else {
        let bucket = |s: Cost| -> u64 { ((s.max(1) as f64).ln() / cfg.storage_ratio.ln()) as u64 };
        out = Vec::with_capacity(pareto.len());
        out.push(pareto[0]); // global min-storage point
        let mut i = 1;
        while i < pareto.len() {
            // Find the end of this storage bucket; its last element has the
            // bucket's best retrieval (retrieval decreases along the list).
            let b = bucket(pareto[i].0);
            let mut j = i;
            while j + 1 < pareto.len() && bucket(pareto[j + 1].0) == b {
                j += 1;
            }
            out.push(pareto[j]);
            i = j + 1;
        }
        out.dedup();
    }
    if out.len() > cfg.pareto_cap {
        // Thin evenly, always keeping the extremes.
        let keep = cfg.pareto_cap.max(2);
        let mut thinned = Vec::with_capacity(keep);
        for i in 0..keep {
            let idx = i * (out.len() - 1) / (keep - 1);
            if thinned.last() != Some(&out[idx]) {
                thinned.push(out[idx]);
            }
        }
        out = thinned;
    }
    *list = out;
}

/// Insert with prune checks (no dominance yet — compress later).
#[inline]
fn push(map: &mut AccMap, cfg: &TreeDpConfig, key: AccKey, pair: Pair) {
    if pair.0 >= INF || pair.1 >= INF {
        return;
    }
    if let Some(limit) = cfg.storage_prune {
        if pair.0 > limit {
            return;
        }
    }
    if let AccKey::Up(g) = key {
        if let Some(limit) = cfg.gamma_prune {
            if g > limit {
                return;
            }
        }
    }
    map.entry(key).or_default().push(pair);
}

/// Per-child directed edge costs within the tree.
#[derive(Clone, Copy, Debug)]
struct ChildEdges {
    /// `(storage, retrieval)` of `v → c` (hang direction), if present.
    down: Option<(Cost, Cost)>,
    /// `(storage, retrieval)` of `c → v` (source direction), if present.
    up: Option<(Cost, Cost)>,
}

fn child_edges(g: &VersionGraph, t: &BidirTree, c: NodeId) -> ChildEdges {
    let down = t.down_edge[c.index()].map(|e| {
        let d = g.edge(e);
        (d.storage, d.retrieval)
    });
    let up = t.up_edge[c.index()].map(|e| {
        let d = g.edge(e);
        (d.storage, d.retrieval)
    });
    ChildEdges { down, up }
}

/// Initial accumulator of a node before any children are folded in.
fn init_acc(g: &VersionGraph, v: NodeId, cfg: &TreeDpConfig) -> AccMap {
    let mut acc = AccMap::new();
    push(&mut acc, cfg, AccKey::Dep(1), (0, 0));
    push(&mut acc, cfg, AccKey::Pend(1), (0, 0));
    push(&mut acc, cfg, AccKey::Up(0), (g.node_storage(v), 0));
    acc
}

/// Fold one child table into an accumulator.
fn merge_child(
    acc: &AccMap,
    child: &NodeTable,
    closed: &[Pair],
    edges: ChildEdges,
    cfg: &TreeDpConfig,
) -> AccMap {
    let mut out = AccMap::new();
    for (&key, list) in acc {
        for &(s, rho) in list {
            // Option 1: closed — the child subtree is self-sufficient.
            for &(cs, crho) in closed {
                push(&mut out, cfg, key, (cost_add(s, cs), cost_add(rho, crho)));
            }
            // Option 2: hang — store (v → c); child interface Dep(k_c).
            if let Some((svc, rvc)) = edges.down {
                for (&kc, clist) in &child.dep {
                    for &(cs, crho) in clist {
                        let s2 = cost_add(cost_add(s, cs), svc);
                        match key {
                            AccKey::Dep(k) => {
                                let r2 = cost_add(cost_add(rho, crho), mul_kg(kc, rvc));
                                push(
                                    &mut out,
                                    cfg,
                                    AccKey::Dep(cfg.bucket_k(k as u64 + kc as u64)),
                                    (s2, r2),
                                );
                            }
                            AccKey::Pend(k) => {
                                let r2 = cost_add(cost_add(rho, crho), mul_kg(kc, rvc));
                                push(
                                    &mut out,
                                    cfg,
                                    AccKey::Pend(cfg.bucket_k(k as u64 + kc as u64)),
                                    (s2, r2),
                                );
                            }
                            AccKey::Up(gamma) => {
                                let r2 =
                                    cost_add(cost_add(rho, crho), mul_kg(kc, cost_add(gamma, rvc)));
                                push(&mut out, cfg, AccKey::Up(gamma), (s2, r2));
                            }
                        }
                    }
                }
            }
            // Option 3: source — store (c → v); v's retrieval resolves.
            if let (AccKey::Pend(k), Some((scv, rcv))) = (key, edges.up) {
                for (&gc, clist) in &child.up {
                    let gv = cfg.round_gamma(cost_add(gc, rcv));
                    for &(cs, crho) in clist {
                        let s2 = cost_add(cost_add(s, cs), scv);
                        // k dependants (v included) now each pay γ_v.
                        let r2 = cost_add(cost_add(rho, crho), mul_kg(k, gv));
                        push(&mut out, cfg, AccKey::Up(gv), (s2, r2));
                    }
                }
            }
        }
    }
    for list in out.values_mut() {
        compress(list, cfg);
    }
    prune_up_cross_key(&mut out, cfg);
    out
}

/// Cross-key dominance prune over the `Up(γ)` states of an accumulator: an
/// entry `(γ, s, ρ)` is dropped when some entry `(γ', s', ρ')` with
/// `γ' ≤ γ, s' ≤ s, ρ' ≤ ρ` (strict somewhere) exists — the smaller-γ entry
/// is at least as good for every future use (children hanging at `γ`,
/// parents chaining from `γ`, or closing the subtree). Dominance pruning is
/// lossless; the `up_cross_cap` thinning afterwards is the lossy part.
fn prune_up_cross_key(acc: &mut AccMap, cfg: &TreeDpConfig) {
    let total_up: usize = acc
        .iter()
        .filter(|(k, _)| matches!(k, AccKey::Up(_)))
        .map(|(_, l)| l.len())
        .sum();
    if total_up <= 2 {
        return; // nothing can dominate anything interesting
    }
    let mut entries: Vec<(Cost, Cost, Cost)> = Vec::new();
    acc.retain(|k, list| {
        if let AccKey::Up(g) = k {
            for &(s, r) in list.iter() {
                entries.push((*g, s, r));
            }
            false
        } else {
            true
        }
    });
    if entries.is_empty() {
        return;
    }
    entries.sort_unstable();
    entries.dedup();
    // Staircase of (storage, retrieval) points from smaller-or-equal γ:
    // storage ascending, retrieval strictly descending.
    let mut stair: Vec<Pair> = Vec::new();
    let mut kept: Vec<(Cost, Cost, Cost)> = Vec::with_capacity(entries.len());
    for &(g, s, r) in &entries {
        let i = stair.partition_point(|&(ss, _)| ss <= s);
        if i > 0 && stair[i - 1].1 <= r {
            continue; // dominated
        }
        kept.push((g, s, r));
        let ins = stair.partition_point(|&(ss, _)| ss < s);
        let mut j = ins;
        while j < stair.len() && stair[j].1 >= r {
            j += 1;
        }
        stair.splice(ins..j, [(s, r)]);
    }
    if kept.len() > cfg.up_cross_cap {
        // Thin evenly along the storage axis, keeping the extremes.
        kept.sort_unstable_by_key(|&(g, s, r)| (s, r, g));
        let keep = cfg.up_cross_cap.max(2);
        let mut thinned = Vec::with_capacity(keep);
        for i in 0..keep {
            let idx = i * (kept.len() - 1) / (keep - 1);
            if thinned.last() != Some(&kept[idx]) {
                thinned.push(kept[idx]);
            }
        }
        kept = thinned;
    }
    for (g, s, r) in kept {
        acc.entry(AccKey::Up(g)).or_default().push((s, r));
    }
    // Restore per-key frontier invariants.
    for (k, list) in acc.iter_mut() {
        if matches!(k, AccKey::Up(_)) {
            compress(list, cfg);
        }
    }
}

/// Finalize: keep `Dep` and `Up` interfaces; `Pend` never found a source.
fn finalize(acc: AccMap) -> NodeTable {
    let mut table = NodeTable::default();
    for (key, list) in acc {
        match key {
            AccKey::Dep(k) => {
                table.dep.insert(k, list);
            }
            AccKey::Up(g) => {
                table.up.insert(g, list);
            }
            AccKey::Pend(_) => {}
        }
    }
    table
}

/// Pareto frontier over all `Up` interfaces of a table.
pub fn closed_frontier(table: &NodeTable, cfg: &TreeDpConfig) -> Vec<Pair> {
    let mut all: Vec<Pair> = table.up.values().flatten().copied().collect();
    compress(&mut all, cfg);
    all
}

/// The full DP state after a bottom-up pass.
pub struct TreeMsrDp<'a> {
    g: &'a VersionGraph,
    t: &'a BidirTree,
    cfg: TreeDpConfig,
    tables: Vec<NodeTable>,
}

/// Run the bottom-up pass over the whole tree, polling `cancel` once per
/// node. Returns `None` iff the token fired before the pass completed.
pub fn run_tree_msr<'a>(
    g: &'a VersionGraph,
    t: &'a BidirTree,
    cfg: TreeDpConfig,
    cancel: &CancelToken,
) -> Option<TreeMsrDp<'a>> {
    let n = t.n();
    let mut tables: Vec<NodeTable> = vec![NodeTable::default(); n];
    for v in t.post_order() {
        if cancel.is_cancelled() {
            return None;
        }
        let mut acc = init_acc(g, v, &cfg);
        for &c in &t.children[v.index()] {
            let closed = closed_frontier(&tables[c.index()], &cfg);
            acc = merge_child(
                &acc,
                &tables[c.index()],
                &closed,
                child_edges(g, t, c),
                &cfg,
            );
        }
        tables[v.index()] = finalize(acc);
    }
    Some(TreeMsrDp { g, t, cfg, tables })
}

impl<'a> TreeMsrDp<'a> {
    /// The root's Pareto curve of `(storage, total retrieval)` solutions —
    /// the "whole spectrum of solutions at once" of Section 7.2.
    pub fn frontier(&self) -> Vec<Pair> {
        closed_frontier(&self.tables[self.t.root.index()], &self.cfg)
    }

    /// Total number of `(storage, retrieval)` entries across all per-node
    /// tables — the work/metadata counter a DP run reports (one run, one
    /// count, however many budgets are answered from it).
    pub fn state_count(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.dep.values().map(Vec::len).sum::<usize>()
                    + t.up.values().map(Vec::len).sum::<usize>()
            })
            .sum()
    }

    /// Best total retrieval under a storage budget.
    pub fn best_under(&self, storage_budget: Cost) -> Option<Pair> {
        self.frontier()
            .into_iter()
            .filter(|&(s, _)| s <= storage_budget)
            .min_by_key(|&(_, r)| r)
    }

    /// Reconstruct a plan realizing the frontier point for `storage_budget`.
    ///
    /// Returns the plan and the frontier pair it realizes; `None` when the
    /// budget is below every frontier point.
    pub fn plan_under(&self, storage_budget: Cost) -> Option<(StoragePlan, Pair)> {
        let (s, r) = self.best_under(storage_budget)?;
        // Locate the root Up key holding this pair.
        let ri = self.t.root.index();
        let (gamma, _) = self.tables[ri]
            .up
            .iter()
            .find(|(_, list)| list.contains(&(s, r)))
            .map(|(&g, l)| (g, l))
            .expect("frontier pairs come from up tables");
        let mut plan = StoragePlan {
            parent: vec![Parent::Materialized; self.t.n()],
        };
        let mut stack: Vec<(NodeId, AccKey, Pair)> = vec![(self.t.root, AccKey::Up(gamma), (s, r))];
        while let Some((v, key, pair)) = stack.pop() {
            self.backtrack_node(v, key, pair, &mut plan, &mut stack);
        }
        Some((plan, (s, r)))
    }

    /// Re-run node `v`'s fold and back-track the decisions that produced
    /// `(key, pair)`, scheduling children onto `stack`.
    fn backtrack_node(
        &self,
        v: NodeId,
        key: AccKey,
        pair: Pair,
        plan: &mut StoragePlan,
        stack: &mut Vec<(NodeId, AccKey, Pair)>,
    ) {
        let cfg = &self.cfg;
        let children = &self.t.children[v.index()];
        // Rebuild the accumulator sequence (deterministic replay).
        let mut accs: Vec<AccMap> = Vec::with_capacity(children.len() + 1);
        accs.push(init_acc(self.g, v, cfg));
        for &c in children {
            let closed = closed_frontier(&self.tables[c.index()], cfg);
            let next = merge_child(
                accs.last().expect("non-empty"),
                &self.tables[c.index()],
                &closed,
                child_edges(self.g, self.t, c),
                cfg,
            );
            accs.push(next);
        }

        let mut cur_key = key;
        let mut cur_pair = pair;
        // Child decisions discovered while walking backwards.
        for j in (0..children.len()).rev() {
            let c = children[j];
            let child = &self.tables[c.index()];
            let prev = &accs[j];
            let edges = child_edges(self.g, self.t, c);
            let (s, rho) = cur_pair;

            let mut found: Option<(AccKey, Pair, ChildDecision)> = None;

            // Option 1: closed.
            'closed: for (&gc, clist) in &child.up {
                for &(cs, crho) in clist {
                    if cs > s || crho > rho {
                        continue;
                    }
                    let (ps, prho) = (s - cs, rho - crho);
                    if prev.get(&cur_key).is_some_and(|l| l.contains(&(ps, prho))) {
                        found = Some((
                            cur_key,
                            (ps, prho),
                            ChildDecision::Closed {
                                gamma: gc,
                                pair: (cs, crho),
                            },
                        ));
                        break 'closed;
                    }
                }
            }
            // Option 2: hang.
            if found.is_none() {
                if let Some((svc, rvc)) = edges.down {
                    'hang: for (&kc, clist) in &child.dep {
                        for &(cs, crho) in clist {
                            let base_s = cost_add(cs, svc);
                            if base_s > s {
                                continue;
                            }
                            let ps = s - base_s;
                            match cur_key {
                                AccKey::Dep(k) | AccKey::Pend(k) => {
                                    let extra = cost_add(crho, mul_kg(kc, rvc));
                                    if extra > rho {
                                        continue;
                                    }
                                    let prho = rho - extra;
                                    // Previous k must bucket to k with kc.
                                    let make = |pk: u32| match cur_key {
                                        AccKey::Dep(_) => AccKey::Dep(pk),
                                        _ => AccKey::Pend(pk),
                                    };
                                    for (&pkey, plist) in prev {
                                        let pk = match (pkey, cur_key) {
                                            (AccKey::Dep(x), AccKey::Dep(_)) => x,
                                            (AccKey::Pend(x), AccKey::Pend(_)) => x,
                                            _ => continue,
                                        };
                                        if cfg.bucket_k(pk as u64 + kc as u64) != k {
                                            continue;
                                        }
                                        if plist.contains(&(ps, prho)) {
                                            found = Some((
                                                make(pk),
                                                (ps, prho),
                                                ChildDecision::Hang {
                                                    k: kc,
                                                    pair: (cs, crho),
                                                },
                                            ));
                                            break 'hang;
                                        }
                                    }
                                }
                                AccKey::Up(gamma) => {
                                    let extra = cost_add(crho, mul_kg(kc, cost_add(gamma, rvc)));
                                    if extra > rho {
                                        continue;
                                    }
                                    let prho = rho - extra;
                                    if prev
                                        .get(&AccKey::Up(gamma))
                                        .is_some_and(|l| l.contains(&(ps, prho)))
                                    {
                                        found = Some((
                                            AccKey::Up(gamma),
                                            (ps, prho),
                                            ChildDecision::Hang {
                                                k: kc,
                                                pair: (cs, crho),
                                            },
                                        ));
                                        break 'hang;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Option 3: source.
            if found.is_none() {
                if let (AccKey::Up(gv), Some((scv, rcv))) = (cur_key, edges.up) {
                    'source: for (&gc, clist) in &child.up {
                        if cfg.round_gamma(cost_add(gc, rcv)) != gv {
                            continue;
                        }
                        for &(cs, crho) in clist {
                            let base_s = cost_add(cs, scv);
                            if base_s > s {
                                continue;
                            }
                            let ps = s - base_s;
                            for (&pkey, plist) in prev {
                                let AccKey::Pend(k) = pkey else { continue };
                                let extra = cost_add(crho, mul_kg(k, gv));
                                if extra > rho {
                                    continue;
                                }
                                let prho = rho - extra;
                                if plist.contains(&(ps, prho)) {
                                    found = Some((
                                        pkey,
                                        (ps, prho),
                                        ChildDecision::Source {
                                            gamma: gc,
                                            pair: (cs, crho),
                                        },
                                    ));
                                    break 'source;
                                }
                            }
                        }
                    }
                }
            }

            let (pkey, ppair, decision) =
                found.expect("backtrack must reproduce the forward combination");
            match decision {
                ChildDecision::Closed { gamma, pair } => {
                    stack.push((c, AccKey::Up(gamma), pair));
                }
                ChildDecision::Hang { k, pair } => {
                    plan.parent[c.index()] = Parent::Delta(
                        self.t.down_edge[c.index()].expect("hang used the down edge"),
                    );
                    stack.push((c, AccKey::Dep(k), pair));
                }
                ChildDecision::Source { gamma, pair } => {
                    plan.parent[v.index()] =
                        Parent::Delta(self.t.up_edge[c.index()].expect("source used the up edge"));
                    stack.push((c, AccKey::Up(gamma), pair));
                }
            }
            cur_key = pkey;
            cur_pair = ppair;
        }

        // At the initial accumulator: resolve v's own storage decision.
        match cur_key {
            AccKey::Up(0) => {
                // Materialized (pair must be (s_v, 0)).
                plan.parent[v.index()] = Parent::Materialized;
            }
            AccKey::Pend(1) => {
                // Source was a child; plan.parent[v] already set above.
            }
            AccKey::Dep(1) => {
                // Parent will set plan.parent[v] via its own Hang decision.
            }
            other => unreachable!("invalid initial accumulator key {other:?}"),
        }
    }
}

enum ChildDecision {
    Closed { gamma: Cost, pair: Pair },
    Hang { k: u32, pair: Pair },
    Source { gamma: Cost, pair: Pair },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_grid_linear_rounds_up_and_is_idempotent() {
        let g = GammaGrid::Linear(10);
        assert_eq!(g.round(0), 0);
        assert_eq!(g.round(1), 10);
        assert_eq!(g.round(10), 10);
        assert_eq!(g.round(11), 20);
        assert_eq!(g.round(g.round(37)), g.round(37));
        assert_eq!(g.round(INF), INF);
    }

    #[test]
    fn gamma_grid_exact_is_identity() {
        let g = GammaGrid::Exact;
        for x in [0u64, 1, 17, 12345] {
            assert_eq!(g.round(x), x);
        }
    }

    #[test]
    fn gamma_grid_geometric_is_monotone_and_idempotent() {
        let g = GammaGrid::geometric(4, 1.5, 1_000);
        let mut last = 0;
        for x in 0..1_000u64 {
            let r = g.round(x);
            assert!(r >= x, "rounding must go up");
            assert!(r >= last, "rounding must be monotone");
            assert_eq!(g.round(r), r, "boundaries are fixed points");
            last = r;
        }
        // Above the top boundary: pruned to INF.
        assert_eq!(g.round(1_001), INF);
    }

    #[test]
    fn bucket_k_exact_below_limit_and_monotone_above() {
        let cfg = TreeDpConfig {
            k_exact_limit: 4,
            k_ratio: 1.5,
            ..TreeDpConfig::exact()
        };
        for k in 1..=4u64 {
            assert_eq!(cfg.bucket_k(k), k as u32);
        }
        let mut last = 4;
        for k in 5..200u64 {
            let b = cfg.bucket_k(k);
            assert!(b as u64 >= k, "buckets round up");
            assert!(b >= last, "buckets are monotone");
            assert_eq!(cfg.bucket_k(b as u64), b, "buckets are fixed points");
            last = b;
        }
    }

    #[test]
    fn compress_keeps_pareto_and_min_storage() {
        let cfg = TreeDpConfig {
            storage_ratio: 1.5,
            pareto_cap: 4,
            ..TreeDpConfig::exact()
        };
        let mut list = vec![
            (100, 50),
            (100, 40), // dominates previous
            (120, 45), // dominated
            (150, 30),
            (155, 28), // same-ish bucket as 150, better retrieval
            (400, 10),
            (900, 5),
            (901, 4),
        ];
        compress(&mut list, &cfg);
        // Global min storage survives.
        assert_eq!(list[0].0, 100);
        assert_eq!(list[0].1, 40);
        // Pareto: storage ascending, retrieval strictly descending.
        for w in list.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 > w[1].1);
        }
        assert!(list.len() <= 4);
    }

    #[test]
    fn compress_exact_mode_keeps_all_nondominated() {
        let cfg = TreeDpConfig::exact();
        let mut list = vec![(3, 7), (1, 9), (2, 8), (3, 6), (4, 6)];
        compress(&mut list, &cfg);
        assert_eq!(list, vec![(1, 9), (2, 8), (3, 6)]);
    }

    #[test]
    fn mul_kg_saturates() {
        assert_eq!(mul_kg(3, 5), 15);
        assert_eq!(mul_kg(u32::MAX, INF - 1), INF);
        assert_eq!(mul_kg(7, INF), INF);
        assert_eq!(mul_kg(0, 42), 0);
    }
}
