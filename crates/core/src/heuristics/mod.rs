//! Greedy heuristics: LMG (prior work), LMG-All, and Modified Prim's.
//!
//! # Incremental plan maintenance
//!
//! Both greedy loops ([`fn@lmg`] and [`fn@lmg_all`]) repeatedly pick the
//! best-ratio single move and apply it. The from-scratch formulation pays
//! `O(n + m)` per move: rebuild [`PlanView`] (Euler tour, post-order,
//! subtree sizes, full retrieval BFS), then rescan every candidate. The
//! public entry points instead always run on [`IncrementalPlanView`] plus a
//! `CandidateHeap` with one entry per candidate. The from-scratch loops
//! live on in [`oracle`] as the differential-testing oracle — both must
//! pick **byte-identical move sequences**.
//!
//! ## Dirty-region invariants
//!
//! Applying a move on node `v` (reparent or materialize) changes, relative
//! to the stored-delta forest before the move:
//!
//! * `r[x]` and `depth[x]` only for `x ∈ subtree(v)` (the subtree itself is
//!   structurally intact, so each descendant's retrieval shifts by the same
//!   delta as `v`'s);
//! * `size[x]` only for `x` on the old and new ancestor paths of `v`;
//! * `paid[x]` only for `x = v`; `storage` and `total_retrieval` as running
//!   aggregates;
//! * ancestor-set membership only for nodes of `subtree(v)` (a node `u`
//!   outside it keeps exactly the same ancestors, so `u ∈ subtree(w)` can
//!   change only when `u ∈ subtree(v)`).
//!
//! [`IncrementalPlanView::apply`] performs exactly those updates and
//! returns the dirty region as a [`MoveEffect`] (`subtree` + ancestor
//! `path`), so a greedy loop re-scores only candidates whose evaluation
//! inputs could have changed: edges incident to `subtree(v)`, edges into
//! the ancestor paths, and the materialization moves of both node sets.
//! The only *global* evaluation input is the current total `storage`
//! (budget feasibility); candidate caches handle it by parking
//! over-budget candidates keyed by the largest storage at which they fit
//! (see `CandidateHeap`).
//!
//! ## One entry per candidate
//!
//! `CandidateHeap` gives every candidate one slot of an [`IndexedHeap`]
//! keyed by `(ratio, payload)`: LMG-All's `Reparent{edge}` uses slot
//! `2·edge` and `Materialize{node}` slot `2·node + 1`; LMG's
//! `Reverse(node)` uses `node`. A re-score sets the candidate's entry in
//! place, and a `Skip` or `Park` removes it. Selection peeks the top
//! entry, re-scores it, and takes it only if the score still matches;
//! otherwise it records the current score and looks again. The invariant making this exact:
//! whenever a candidate's evaluation changes, it is inside the dirty
//! region of the move that changed it, so its entry was re-scored then.
//! The one input outside any dirty region is total storage, which only
//! decides feasible versus parked: a top entry that went over budget is
//! parked when selection re-scores it, and a parked candidate is revived
//! once storage falls to its threshold.
//!
//! The heap thus holds at most `n + m` entries, and selection almost
//! always takes the first entry it looks at: no outdated copies are left
//! behind to be popped and re-scored.
//!
//! ## Ancestor tests
//!
//! The cycle guard needs `is u ∈ subtree(v)` queries. Euler timestamps
//! give `O(1)` tests but a move invalidates them globally; re-stamping
//! every move would cost `O(n)`. [`IncrementalPlanView`] therefore answers
//! queries by a parent path-walk bounded by depth, and re-stamps the tour
//! only when the walks since the last structural change exceed a `Θ(n)`
//! budget — after which tests are `O(1)` again until the next move. Walk
//! cost is thereby amortized against the tour rebuild it replaces.
//!
//! ## Amortized complexity per greedy move
//!
//! | component | from-scratch | incremental |
//! |-----------|--------------|-------------|
//! | view maintenance | `O(n + m)` rebuild | `O(|subtree(v)| + depth)` |
//! | candidate scoring | `O(n + m)` rescan | `O(Σ deg(dirty) )` re-scores |
//! | heap updates | — | `O(log m)` per re-score (one entry per candidate) |
//! | selection | `O(1)` (during scan) | one verified peek, `O(log m)` |
//! | ancestor tests | `O(1)` (fresh tour) | `O(depth)` amortized, `O(1)` after re-stamp |
//!
//! With `Δ` the dirty-region size, one move costs `O(Δ·deg·log m)`
//! amortized instead of `O(n + m)`.

pub mod lmg;
pub mod lmg_all;
pub mod mp;
#[doc(hidden)]
pub mod oracle;

pub use lmg::lmg;
pub use lmg_all::lmg_all;
pub use mp::modified_prims;

use crate::plan::{Parent, StoragePlan};
use dsv_vgraph::indexed_heap::IndexedHeap;
use dsv_vgraph::{cost_add, Cost, NodeId, VersionGraph, INF};

/// Per-iteration view of a plan: retrieval costs, dependency-subtree sizes,
/// Euler timestamps (for ancestor tests), and currently-paid storage. The
/// [`oracle`] loops rebuild it every move; tests pin
/// [`IncrementalPlanView`] against it.
pub(crate) struct PlanView {
    /// Retrieval cost per node.
    pub r: Vec<Cost>,
    /// Size of each node's subtree in the stored-delta forest (including
    /// itself) — the number of versions whose retrieval path uses the node.
    pub size: Vec<u32>,
    /// Storage currently paid to store each node (`s_v` or the delta cost).
    pub paid: Vec<Cost>,
    /// Entry timestamps of the Euler tour of the delta forest.
    pub tin: Vec<u32>,
    /// Exit timestamps of the Euler tour.
    pub tout: Vec<u32>,
    /// Total storage.
    pub storage: Cost,
    /// Total retrieval — reported through the oracle loops' run stats.
    pub total_retrieval: Cost,
}

impl PlanView {
    pub(crate) fn new(g: &VersionGraph, plan: &StoragePlan) -> Self {
        let n = g.n();
        let pf = plan.parent_fn(g);
        let (tin, tout) = dsv_vgraph::traversal::euler_tour(&pf);
        let post = dsv_vgraph::topo::forest_post_order(&pf);
        let mut size = vec![1u32; n];
        for &v in &post {
            if let Some(p) = pf[v.index()] {
                size[p.index()] += size[v.index()];
            }
        }
        let r = plan.retrievals(g);
        let paid: Vec<Cost> = plan
            .parent
            .iter()
            .enumerate()
            .map(|(v, p)| match p {
                crate::plan::Parent::Materialized => g.node_storage(dsv_vgraph::NodeId::new(v)),
                crate::plan::Parent::Delta(e) => g.edge(*e).storage,
            })
            .collect();
        let storage = paid.iter().copied().fold(0, cost_add);
        let total_retrieval = r.iter().copied().fold(0, cost_add);
        PlanView {
            r,
            size,
            paid,
            tin,
            tout,
            storage,
            total_retrieval,
        }
    }

    /// Whether `anc` lies on the retrieval path of `v` (or is `v`).
    #[inline]
    pub(crate) fn is_ancestor(&self, anc: usize, v: usize) -> bool {
        self.tin[anc] <= self.tin[v] && self.tout[v] <= self.tout[anc]
    }
}

/// Sentinel for "no parent" (materialized root) in the packed parent array.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Dirty region of one applied move: the nodes whose per-node state
/// (`r`/`depth`/`paid`, or ancestor-set membership) changed, plus the
/// ancestor-path nodes whose `size` changed. May contain duplicates (old
/// and new ancestor paths can share a suffix); re-scoring twice only sets
/// the candidate's heap entry twice.
pub(crate) struct MoveEffect {
    /// `subtree(v)` of the moved node, `v` included.
    pub subtree: Vec<u32>,
    /// Old and new strict-ancestor paths of `v` (concatenated).
    pub path: Vec<u32>,
}

/// Persistent, incrementally-maintained view of a plan: the same
/// quantities as [`PlanView`], kept valid across moves by subtree-local
/// delta propagation instead of full rebuilds. See the module docs for the
/// dirty-region invariants.
pub(crate) struct IncrementalPlanView {
    /// Forest parent of each node ([`NO_PARENT`] = materialized root).
    parent: Vec<u32>,
    /// Children of the stored-delta forest as intrusive doubly-linked
    /// sibling lists over three flat `u32` arrays ([`NO_PARENT`] = nil):
    /// O(1) attach/detach and zero per-node heap allocations, so a view
    /// over `n` nodes is a fixed set of flat `u32`/`u64` arrays end-to-end
    /// (the SoA memory diet the sharded million-node solve path relies on).
    /// List order is irrelevant to move selection — every consumer either
    /// sums over children (commutative) or feeds the candidate heap, whose
    /// keys are totally ordered — so the push-front discipline is
    /// byte-identical-safe, as the differential oracle tests verify.
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    prev_sibling: Vec<u32>,
    /// Retrieval cost per node.
    pub r: Vec<Cost>,
    /// Subtree size (including the node) in the stored-delta forest.
    pub size: Vec<u32>,
    /// Storage currently paid for each node.
    pub paid: Vec<Cost>,
    /// Depth in the stored-delta forest (roots at 0).
    depth: Vec<u32>,
    /// Exact running aggregates (clamped to [`INF`] on read, matching the
    /// oracle's saturating folds).
    storage_sum: u128,
    retrieval_sum: u128,
    /// Euler timestamps; valid only while `tour_valid`.
    tin: Vec<u32>,
    tout: Vec<u32>,
    tour_valid: bool,
    /// Remaining path-walk steps before the tour is re-stamped.
    walk_budget: u64,
}

impl IncrementalPlanView {
    pub(crate) fn new(g: &VersionGraph, plan: &StoragePlan) -> Self {
        let n = g.n();
        let pf = plan.parent_fn(g);
        let parent: Vec<u32> = pf.iter().map(|p| p.map_or(NO_PARENT, |p| p.0)).collect();
        let mut first_child = vec![NO_PARENT; n];
        let mut next_sibling = vec![NO_PARENT; n];
        let mut prev_sibling = vec![NO_PARENT; n];
        // Push-front in reverse node order so lists start out ascending
        // (cosmetic: list order is irrelevant, see the field docs).
        for v in (0..n).rev() {
            if let Some(p) = pf[v] {
                let head = first_child[p.index()];
                next_sibling[v] = head;
                if head != NO_PARENT {
                    prev_sibling[head as usize] = v as u32;
                }
                first_child[p.index()] = v as u32;
            }
        }
        let (tin, tout) = dsv_vgraph::traversal::euler_tour(&pf);
        let post = dsv_vgraph::topo::forest_post_order(&pf);
        let mut size = vec![1u32; n];
        for &v in &post {
            if let Some(p) = pf[v.index()] {
                size[p.index()] += size[v.index()];
            }
        }
        let mut depth = vec![0u32; n];
        // Parents precede children in reverse post-order of a forest.
        for &v in post.iter().rev() {
            if let Some(p) = pf[v.index()] {
                depth[v.index()] = depth[p.index()] + 1;
            }
        }
        let r = plan.retrievals(g);
        let paid: Vec<Cost> = plan
            .parent
            .iter()
            .enumerate()
            .map(|(v, p)| match p {
                Parent::Materialized => g.node_storage(NodeId::new(v)),
                Parent::Delta(e) => g.edge(*e).storage,
            })
            .collect();
        let storage_sum = paid.iter().map(|&c| c as u128).sum();
        let retrieval_sum = r.iter().map(|&c| c as u128).sum();
        IncrementalPlanView {
            parent,
            first_child,
            next_sibling,
            prev_sibling,
            r,
            size,
            paid,
            depth,
            storage_sum,
            retrieval_sum,
            tin,
            tout,
            tour_valid: true,
            walk_budget: 0,
        }
    }

    /// Total storage, clamped exactly like the oracle's saturating fold.
    #[inline]
    pub(crate) fn storage(&self) -> Cost {
        clamp_inf(self.storage_sum)
    }

    /// Total retrieval, clamped exactly like the oracle's saturating fold.
    #[inline]
    pub(crate) fn total_retrieval(&self) -> Cost {
        clamp_inf(self.retrieval_sum)
    }

    /// Whether `anc` lies on the retrieval path of `v` (or is `v`).
    ///
    /// Uses the cached Euler tour when it is valid; otherwise a parent
    /// path-walk bounded by the depth difference, with a tour re-stamp
    /// once the accumulated walk work since the last move exceeds the
    /// `Θ(n)` budget (see module docs).
    pub(crate) fn is_ancestor(&mut self, anc: usize, v: usize) -> bool {
        if !self.tour_valid {
            let steps = match self.depth[v].checked_sub(self.depth[anc]) {
                Some(s) => s as u64,
                None => return false, // anc is deeper than v
            };
            if steps > self.walk_budget {
                self.rebuild_tour();
            } else {
                self.walk_budget -= steps;
                let mut x = v as u32;
                for _ in 0..steps {
                    x = self.parent[x as usize];
                }
                return x as usize == anc;
            }
        }
        self.tin[anc] <= self.tin[v] && self.tout[v] <= self.tout[anc]
    }

    fn rebuild_tour(&mut self) {
        let pf: Vec<Option<NodeId>> = self
            .parent
            .iter()
            .map(|&p| (p != NO_PARENT).then_some(NodeId(p)))
            .collect();
        let (tin, tout) = dsv_vgraph::traversal::euler_tour(&pf);
        self.tin = tin;
        self.tout = tout;
        self.tour_valid = true;
    }

    /// Extend the view with one fresh node, materialized (a version
    /// arriving online starts stored in full; the greedy loop then decides
    /// whether a delta serves it better). O(1): only the flat arrays grow,
    /// the forest is untouched, and the tour re-stamps lazily.
    pub(crate) fn push_node(&mut self, storage: Cost) {
        self.parent.push(NO_PARENT);
        self.first_child.push(NO_PARENT);
        self.next_sibling.push(NO_PARENT);
        self.prev_sibling.push(NO_PARENT);
        self.r.push(0);
        self.size.push(1);
        self.paid.push(storage);
        self.depth.push(0);
        self.storage_sum += storage as u128;
        self.tin.push(0);
        self.tout.push(0);
        self.tour_valid = false;
        self.walk_budget = self.walk_budget.max(2 * self.parent.len() as u64);
    }

    /// Re-read `v`'s paid storage from the graph + plan after a graph-side
    /// cost change (retirement zeroes a node's materialization cost), and
    /// fix the running storage aggregate. The caller guarantees no *stored*
    /// delta edge changed cost (retirement detaches them first), so `r`
    /// stays valid.
    pub(crate) fn refresh_paid(&mut self, g: &VersionGraph, plan: &StoragePlan, v: usize) {
        let new_paid = match plan.parent[v] {
            Parent::Materialized => g.node_storage(NodeId::new(v)),
            Parent::Delta(e) => g.edge(e).storage,
        };
        self.storage_sum = self.storage_sum - self.paid[v] as u128 + new_paid as u128;
        self.paid[v] = new_paid;
    }

    /// Children of `v` in the stored-delta forest (order unspecified).
    pub(crate) fn children_of(&self, v: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut c = self.first_child[v];
        while c != NO_PARENT {
            out.push(c);
            c = self.next_sibling[c as usize];
        }
        out
    }

    /// Apply the move "change `v`'s parent to `new_parent`" to both the
    /// plan and the view, updating only `subtree(v)`, the old/new ancestor
    /// paths, and the running aggregates. Returns the dirty region.
    ///
    /// The caller must have established the cycle guard (for a reparent
    /// via edge `(u, v)`, `u ∉ subtree(v)`).
    pub(crate) fn apply(
        &mut self,
        g: &VersionGraph,
        plan: &mut StoragePlan,
        v: usize,
        new_parent: Parent,
    ) -> MoveEffect {
        let (np, new_paid) = match new_parent {
            Parent::Materialized => (NO_PARENT, g.node_storage(NodeId::new(v))),
            Parent::Delta(e) => {
                let ed = g.edge(e);
                debug_assert_eq!(ed.dst.index(), v, "delta edge must enter the node");
                (ed.src.0, ed.storage)
            }
        };
        let size_v = self.size[v];
        let mut path = Vec::new();

        // Detach from the old parent (O(1) intrusive-list unlink); sizes
        // along the old ancestor path.
        let op = self.parent[v];
        if op != NO_PARENT {
            let mut x = op;
            while x != NO_PARENT {
                path.push(x);
                self.size[x as usize] -= size_v;
                x = self.parent[x as usize];
            }
            let (prev, next) = (self.prev_sibling[v], self.next_sibling[v]);
            if prev == NO_PARENT {
                debug_assert_eq!(
                    self.first_child[op as usize], v as u32,
                    "child listed under its parent"
                );
                self.first_child[op as usize] = next;
            } else {
                self.next_sibling[prev as usize] = next;
            }
            if next != NO_PARENT {
                self.prev_sibling[next as usize] = prev;
            }
            self.next_sibling[v] = NO_PARENT;
            self.prev_sibling[v] = NO_PARENT;
        }

        // Attach to the new parent (push-front); sizes along the new
        // ancestor path.
        self.parent[v] = np;
        if np != NO_PARENT {
            let head = self.first_child[np as usize];
            self.next_sibling[v] = head;
            if head != NO_PARENT {
                self.prev_sibling[head as usize] = v as u32;
            }
            self.first_child[np as usize] = v as u32;
            let mut x = np;
            while x != NO_PARENT {
                path.push(x);
                self.size[x as usize] += size_v;
                x = self.parent[x as usize];
            }
        }

        // Storage aggregate and the node's paid cost.
        self.storage_sum = self.storage_sum - self.paid[v] as u128 + new_paid as u128;
        self.paid[v] = new_paid;

        // Retrieval and depth over subtree(v): each node recomputes from
        // its (unchanged) stored delta on top of its parent's new value,
        // exactly mirroring the oracle's BFS — so saturation behaves
        // identically. Parents are processed before children.
        let mut subtree = Vec::with_capacity(size_v as usize);
        let mut stack = vec![v as u32];
        while let Some(x) = stack.pop() {
            let xi = x as usize;
            self.retrieval_sum -= self.r[xi] as u128;
            let p = self.parent[xi];
            if p == NO_PARENT {
                self.r[xi] = 0;
                self.depth[xi] = 0;
            } else {
                let e = match plan.parent[xi] {
                    Parent::Delta(e) if xi != v => e,
                    _ => match new_parent {
                        // `v` itself: its plan entry is updated below.
                        Parent::Delta(e) => e,
                        Parent::Materialized => unreachable!("roots have NO_PARENT"),
                    },
                };
                self.r[xi] = cost_add(self.r[p as usize], g.edge(e).retrieval);
                self.depth[xi] = self.depth[p as usize] + 1;
            }
            self.retrieval_sum += self.r[xi] as u128;
            subtree.push(x);
            let mut c = self.first_child[xi];
            while c != NO_PARENT {
                stack.push(c);
                c = self.next_sibling[c as usize];
            }
        }

        plan.parent[v] = new_parent;
        self.tour_valid = false;
        self.walk_budget = 2 * self.parent.len() as u64;
        MoveEffect { subtree, path }
    }
}

/// Clamp an exact aggregate the way repeated [`cost_add`] folding of
/// non-negative terms would: `min(sum, INF)`.
#[inline]
fn clamp_inf(sum: u128) -> Cost {
    if sum >= INF as u128 {
        INF
    } else {
        sum as Cost
    }
}

/// Scoring outcome of one greedy candidate against current state.
pub(crate) enum Scored {
    /// Structurally invalid or no progress — drop (a later state change
    /// that could revive it dirties the candidate, which re-scores it).
    Skip,
    /// Valid and feasible at this ratio.
    Push(Ratio),
    /// Valid but over budget: feasible again once total storage is at
    /// most `max_storage`.
    Park {
        /// Largest total storage at which the move fits the budget.
        max_storage: u128,
    },
}

/// A greedy candidate: its `Ord` is the tie-break among equal ratios, and
/// it owns one dense slot of the [`CandidateHeap`].
pub(crate) trait Candidate: Copy + Ord {
    /// Id of the candidate's heap entry; distinct candidates of one loop
    /// never share a slot.
    fn slot(self) -> usize;
}

/// Max-heap of greedy candidates with budget parking, shared by the
/// incremental [`lmg`] and [`lmg_all`] loops and the online planner (see
/// the module docs for the one-entry rule it implements). Each candidate
/// has at most one entry, keyed by `(ratio, payload)`: the payload's `Ord`
/// is the tie-break among equal ratios, so each loop encodes its oracle's
/// tie-breaking in the payload type (LMG-All: edge-beats-mat then highest
/// index; LMG: `Reverse(node)` for lowest id).
pub(crate) struct CandidateHeap<P: Candidate> {
    heap: IndexedHeap<(Ratio, P)>,
    parked: std::collections::BinaryHeap<(u128, P)>,
}

impl<P: Candidate> Default for CandidateHeap<P> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<P: Candidate> CandidateHeap<P> {
    /// An empty heap with room for the slots `0..slots`; it grows past
    /// them on demand.
    pub(crate) fn with_capacity(slots: usize) -> Self {
        CandidateHeap {
            heap: IndexedHeap::with_capacity(slots),
            parked: std::collections::BinaryHeap::new(),
        }
    }

    /// Record a candidate's fresh score: a feasible one sets its entry to
    /// the new ratio, a budget-blocked one leaves the ratio heap for the
    /// parked heap, and a `Skip` leaves the ratio heap.
    pub(crate) fn update(&mut self, sc: Scored, payload: P) {
        match sc {
            Scored::Push(ratio) => self.heap.set(payload.slot(), (ratio, payload)),
            Scored::Park { max_storage } => {
                self.heap.remove(payload.slot());
                self.parked.push((max_storage, payload));
            }
            Scored::Skip => {
                self.heap.remove(payload.slot());
            }
        }
    }

    /// Revive parked candidates that fit under the current total storage,
    /// re-scoring each. A parked copy may be stale (the candidate was
    /// re-scored since it was parked); re-scoring it only records the
    /// candidate's current score again. A re-parked candidate always gets
    /// a threshold below `storage`, so this terminates.
    pub(crate) fn revive(&mut self, storage: Cost, rescore: &mut impl FnMut(P) -> Scored) {
        while self
            .parked
            .peek()
            .is_some_and(|&(max_storage, _)| max_storage >= storage as u128)
        {
            let (_, payload) = self.parked.pop().expect("peeked entry");
            self.update(rescore(payload), payload);
        }
    }

    /// Verified selection: re-score the top entry and take it only if its
    /// ratio still matches. A mismatch records the current score and
    /// looks again; state is frozen between moves, so the next look at
    /// that candidate matches. `None` means no valid feasible candidate
    /// remains.
    pub(crate) fn select(&mut self, rescore: &mut impl FnMut(P) -> Scored) -> Option<P> {
        while let Some((_, &(ratio, payload))) = self.heap.peek() {
            match rescore(payload) {
                Scored::Push(current) if current == ratio => {
                    self.heap.pop();
                    return Some(payload);
                }
                sc => self.update(sc, payload),
            }
        }
        None
    }
}

/// Greedy benefit/cost ratio with exact integer comparison.
///
/// `Infinite` encodes moves that do not increase storage (the paper assigns
/// them `ρ = ∞`); ties are broken by larger retrieval benefit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ratio {
    /// Storage does not increase; ordered by (retrieval gain, storage gain).
    Infinite {
        /// Retrieval reduction.
        dr: u128,
        /// Storage reduction (≥ 0).
        ds: u128,
    },
    /// Storage increases by `ds > 0`; value is `dr / ds`.
    Finite {
        /// Retrieval reduction (> 0).
        dr: u128,
        /// Storage increase (> 0).
        ds: u128,
    },
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use Ratio::*;
        match (self, other) {
            (Infinite { dr: a, ds: b }, Infinite { dr: c, ds: d }) => (a, b).cmp(&(c, d)),
            (Infinite { .. }, Finite { .. }) => std::cmp::Ordering::Greater,
            (Finite { .. }, Infinite { .. }) => std::cmp::Ordering::Less,
            (Finite { dr: a, ds: b }, Finite { dr: c, ds: d }) => {
                // a/b vs c/d  <=>  a*d vs c*b (b, d > 0); tie-break on dr.
                (a * d).cmp(&(c * b)).then(a.cmp(c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::min_storage_plan;
    use dsv_vgraph::generators::{random_tree, CostModel};

    #[test]
    fn plan_view_consistency() {
        let g = random_tree(15, &CostModel::default(), 3);
        let plan = min_storage_plan(&g);
        let view = PlanView::new(&g, &plan);
        let costs = plan.costs(&g);
        assert_eq!(view.storage, costs.storage);
        assert_eq!(view.total_retrieval, costs.total_retrieval);
        // Subtree sizes sum over roots to n.
        let root_sum: u32 = (0..g.n())
            .filter(|&v| matches!(plan.parent[v], crate::plan::Parent::Materialized))
            .map(|v| view.size[v])
            .sum();
        assert_eq!(root_sum as usize, g.n());
    }

    /// Apply a pseudo-random legal move sequence through the incremental
    /// view and after each move compare every maintained quantity against
    /// a from-scratch [`PlanView`] rebuild.
    #[test]
    fn incremental_view_matches_rebuild_under_random_moves() {
        use dsv_vgraph::generators::erdos_renyi_bidirectional;
        for seed in 0..4u64 {
            let g = erdos_renyi_bidirectional(18, 0.3, &CostModel::default(), seed);
            let mut plan = min_storage_plan(&g);
            let mut view = IncrementalPlanView::new(&g, &plan);
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut applied = 0;
            for _ in 0..200 {
                if applied >= 40 {
                    break;
                }
                // Candidate: either materialize a random node or reparent
                // along a random edge, skipping illegal (cyclic) moves.
                let mv = if rng() % 4 == 0 {
                    let v = (rng() % g.n() as u64) as usize;
                    if matches!(plan.parent[v], Parent::Materialized) {
                        continue;
                    }
                    (v, Parent::Materialized)
                } else {
                    let e = dsv_vgraph::EdgeId((rng() % g.m() as u64) as u32);
                    let ed = g.edge(e);
                    let (u, v) = (ed.src.index(), ed.dst.index());
                    if plan.parent[v] == Parent::Delta(e) || view.is_ancestor(v, u) {
                        continue;
                    }
                    (v, Parent::Delta(e))
                };
                view.apply(&g, &mut plan, mv.0, mv.1);
                applied += 1;
                plan.validate(&g).expect("moves keep the plan a forest");
                let oracle = PlanView::new(&g, &plan);
                assert_eq!(view.r, oracle.r, "retrievals diverge (seed {seed})");
                assert_eq!(view.size, oracle.size, "sizes diverge (seed {seed})");
                assert_eq!(view.paid, oracle.paid, "paid diverges (seed {seed})");
                assert_eq!(view.storage(), oracle.storage);
                assert_eq!(view.total_retrieval(), oracle.total_retrieval);
                // Ancestor tests agree on every pair, regardless of
                // whether the tour or the path-walk answers them.
                for a in 0..g.n() {
                    for b in 0..g.n() {
                        assert_eq!(
                            view.is_ancestor(a, b),
                            oracle.is_ancestor(a, b),
                            "ancestor({a}, {b}) diverges (seed {seed})"
                        );
                    }
                }
            }
            assert!(applied > 10, "move generator too weak (seed {seed})");
        }
    }

    #[test]
    fn ratio_ordering() {
        use Ratio::*;
        let inf_small = Infinite { dr: 0, ds: 1 };
        let inf_big = Infinite { dr: 10, ds: 0 };
        let fin_2 = Finite { dr: 4, ds: 2 }; // 2.0
        let fin_3 = Finite { dr: 9, ds: 3 }; // 3.0
        assert!(inf_small > fin_3);
        assert!(inf_big > inf_small);
        assert!(fin_3 > fin_2);
        // Equal value, larger numerator wins.
        assert!(Finite { dr: 6, ds: 3 } > Finite { dr: 4, ds: 2 });
    }
}
