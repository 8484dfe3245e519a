//! Storage plans: the solution representation.
//!
//! A plan assigns every version either *materialized* (stored in full) or
//! *delta* (reconstructed by applying one stored incoming delta). The stored
//! deltas must form a forest of arborescences rooted at materialized
//! versions — equivalently, a spanning arborescence of the extended graph
//! `G_aux` of the paper.

use dsv_vgraph::{cost_add, Cost, EdgeId, NodeId, VersionGraph};

/// How one version is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parent {
    /// The version is materialized (costs `s_v`, retrieval 0).
    Materialized,
    /// The version is reconstructed via this stored delta edge (whose `dst`
    /// must be the version).
    Delta(EdgeId),
}

/// A complete storage plan for a version graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoragePlan {
    /// Per-node decision.
    pub parent: Vec<Parent>,
}

/// Cost summary of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanCosts {
    /// Total storage cost (materializations + stored deltas).
    pub storage: Cost,
    /// Sum of retrieval costs.
    pub total_retrieval: Cost,
    /// Maximum retrieval cost.
    pub max_retrieval: Cost,
}

impl StoragePlan {
    /// The plan that materializes every version.
    pub fn materialize_all(g: &VersionGraph) -> Self {
        StoragePlan {
            parent: vec![Parent::Materialized; g.n()],
        }
    }

    /// Number of materialized versions.
    pub fn materialized_count(&self) -> usize {
        self.parent
            .iter()
            .filter(|p| matches!(p, Parent::Materialized))
            .count()
    }

    /// Parent function in the forest sense (for Euler tours etc.).
    pub fn parent_fn(&self, g: &VersionGraph) -> Vec<Option<NodeId>> {
        self.parent
            .iter()
            .map(|p| match p {
                Parent::Materialized => None,
                Parent::Delta(e) => Some(g.edge(*e).src),
            })
            .collect()
    }

    /// Check structural validity: every delta edge enters its node, and the
    /// stored deltas are acyclic (every version reachable from a
    /// materialized one).
    pub fn validate(&self, g: &VersionGraph) -> Result<(), String> {
        if self.parent.len() != g.n() {
            return Err(format!(
                "plan covers {} nodes, graph has {}",
                self.parent.len(),
                g.n()
            ));
        }
        for (v, p) in self.parent.iter().enumerate() {
            if let Parent::Delta(e) = p {
                if e.index() >= g.m() {
                    return Err(format!("node v{v} references missing edge {e}"));
                }
                if g.edge(*e).dst.index() != v {
                    return Err(format!(
                        "node v{v} stored delta {e} enters {} instead",
                        g.edge(*e).dst
                    ));
                }
            }
        }
        // Cycle check: follow parents with step counting.
        let pf = self.parent_fn(g);
        for start in 0..g.n() {
            let mut v = start;
            let mut steps = 0usize;
            while let Some(p) = pf[v] {
                v = p.index();
                steps += 1;
                if steps > g.n() {
                    return Err(format!("delta cycle reachable from v{start}"));
                }
            }
        }
        Ok(())
    }

    /// Total storage cost.
    pub fn storage_cost(&self, g: &VersionGraph) -> Cost {
        self.parent
            .iter()
            .enumerate()
            .map(|(v, p)| match p {
                Parent::Materialized => g.node_storage(NodeId::new(v)),
                Parent::Delta(e) => g.edge(*e).storage,
            })
            .sum()
    }

    /// Retrieval cost of every version.
    ///
    /// The stored-delta forest is indexed as a flat CSR (counting sort by
    /// parent: two `u32` arrays, no per-node allocations), so costing a
    /// plan stays cheap at million-node scale.
    pub fn retrievals(&self, g: &VersionGraph) -> Vec<Cost> {
        let n = g.n();
        let mut r = vec![Cost::MAX; n];
        let mut offsets = vec![0u32; n + 1];
        for p in &self.parent {
            if let Parent::Delta(e) = p {
                offsets[g.edge(*e).src.index() + 1] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut children = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        let mut stack = Vec::new();
        for (v, p) in self.parent.iter().enumerate() {
            match p {
                Parent::Materialized => {
                    r[v] = 0;
                    stack.push(v as u32);
                }
                Parent::Delta(e) => {
                    let slot = &mut cursor[g.edge(*e).src.index()];
                    children[*slot as usize] = v as u32;
                    *slot += 1;
                }
            }
        }
        while let Some(v) = stack.pop() {
            let base = r[v as usize];
            let vi = v as usize;
            for &c in &children[offsets[vi] as usize..offsets[vi + 1] as usize] {
                let e = match self.parent[c as usize] {
                    Parent::Delta(e) => e,
                    Parent::Materialized => unreachable!("roots are not children"),
                };
                r[c as usize] = cost_add(base, g.edge(e).retrieval);
                stack.push(c);
            }
        }
        debug_assert!(
            r.iter().all(|&x| x != Cost::MAX),
            "plan must be validated before costing"
        );
        r
    }

    /// Storage, total retrieval, and max retrieval in one pass.
    pub fn costs(&self, g: &VersionGraph) -> PlanCosts {
        let r = self.retrievals(g);
        PlanCosts {
            storage: self.storage_cost(g),
            total_retrieval: r.iter().fold(0, |a, &b| cost_add(a, b)),
            max_retrieval: r.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3-node chain with one materialized root.
    fn chain() -> (VersionGraph, StoragePlan) {
        let mut g = VersionGraph::new();
        let a = g.add_node(100);
        let b = g.add_node(110);
        let c = g.add_node(120);
        let e1 = g.add_edge(a, b, 10, 7);
        let e2 = g.add_edge(b, c, 20, 9);
        let plan = StoragePlan {
            parent: vec![Parent::Materialized, Parent::Delta(e1), Parent::Delta(e2)],
        };
        let _ = (a, b, c);
        (g, plan)
    }

    #[test]
    fn chain_costs() {
        let (g, plan) = chain();
        plan.validate(&g).expect("valid");
        let costs = plan.costs(&g);
        assert_eq!(costs.storage, 100 + 10 + 20);
        assert_eq!(plan.retrievals(&g), vec![0, 7, 16]);
        assert_eq!(costs.total_retrieval, 23);
        assert_eq!(costs.max_retrieval, 16);
    }

    #[test]
    fn materialize_all_has_zero_retrieval() {
        let (g, _) = chain();
        let plan = StoragePlan::materialize_all(&g);
        let costs = plan.costs(&g);
        assert_eq!(costs.storage, 330);
        assert_eq!(costs.total_retrieval, 0);
        assert_eq!(costs.max_retrieval, 0);
        assert_eq!(plan.materialized_count(), 3);
    }

    #[test]
    fn validation_rejects_wrong_edge_target() {
        let (g, mut plan) = chain();
        // Point node 1 at the edge entering node 2.
        plan.parent[1] = Parent::Delta(EdgeId::new(1));
        assert!(plan.validate(&g).unwrap_err().contains("enters"));
    }

    #[test]
    fn validation_rejects_cycles() {
        let mut g = VersionGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let e1 = g.add_edge(a, b, 1, 1);
        let e2 = g.add_edge(b, a, 1, 1);
        let plan = StoragePlan {
            parent: vec![Parent::Delta(e2), Parent::Delta(e1)],
        };
        assert!(plan.validate(&g).unwrap_err().contains("cycle"));
    }
}
