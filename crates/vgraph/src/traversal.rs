//! Euler tours of rooted forests and the ancestor test on them.
//!
//! These are used throughout the heuristics, e.g. LMG-All's "is `u` a
//! descendant of `v`" test (Algorithm 7 line 7) runs on an Euler tour of the
//! current storage plan.

use crate::ids::NodeId;

/// Euler-tour (entry/exit) timestamps of a rooted forest given as a parent
/// function. `parent[v] == None` marks roots. Children are visited in node
/// id order. Returns `(tin, tout)`; `u` is an ancestor of `v` (or equal) iff
/// `tin[u] <= tin[v] && tout[v] <= tout[u]`.
pub fn euler_tour(parent: &[Option<NodeId>]) -> (Vec<u32>, Vec<u32>) {
    let n = parent.len();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (v, p) in parent.iter().enumerate() {
        match p {
            Some(p) => children[p.index()].push(v as u32),
            None => roots.push(v as u32),
        }
    }
    let mut tin = vec![0u32; n];
    let mut tout = vec![0u32; n];
    let mut clock = 0u32;
    // Iterative DFS with explicit enter/exit events.
    let mut stack: Vec<(u32, bool)> = Vec::with_capacity(n);
    for &r in roots.iter().rev() {
        stack.push((r, false));
    }
    let mut visited = 0usize;
    while let Some((v, exiting)) = stack.pop() {
        if exiting {
            tout[v as usize] = clock;
            clock += 1;
            continue;
        }
        tin[v as usize] = clock;
        clock += 1;
        visited += 1;
        stack.push((v, true));
        for &c in children[v as usize].iter().rev() {
            stack.push((c, false));
        }
    }
    assert_eq!(visited, n, "parent function contains a cycle");
    (tin, tout)
}

/// Ancestor test on Euler timestamps: is `anc` an ancestor of `v` (or `v`
/// itself) in the forest the timestamps were computed from?
#[inline]
pub fn is_ancestor(tin: &[u32], tout: &[u32], anc: NodeId, v: NodeId) -> bool {
    tin[anc.index()] <= tin[v.index()] && tout[v.index()] <= tout[anc.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euler_tour_ancestor_queries() {
        // Forest: 0 -> {1, 2}, 1 -> {3}; 4 is its own root.
        let parent = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(1)),
            None,
        ];
        let (tin, tout) = euler_tour(&parent);
        assert!(is_ancestor(&tin, &tout, NodeId(0), NodeId(3)));
        assert!(is_ancestor(&tin, &tout, NodeId(1), NodeId(3)));
        assert!(!is_ancestor(&tin, &tout, NodeId(2), NodeId(3)));
        assert!(!is_ancestor(&tin, &tout, NodeId(3), NodeId(0)));
        assert!(is_ancestor(&tin, &tout, NodeId(4), NodeId(4)));
        assert!(!is_ancestor(&tin, &tout, NodeId(0), NodeId(4)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn euler_tour_rejects_cycles() {
        let parent = vec![Some(NodeId(1)), Some(NodeId(0))];
        euler_tour(&parent);
    }
}
