//! Post-orders of rooted forests.
//!
//! The tree DPs of Sections 4 and 5 process nodes children-first, and the
//! greedy heuristics walk storage plans the same way.

use crate::ids::NodeId;

/// Post-order of a rooted forest given by a parent function (children before
/// parents). Panics if the parent function has a cycle.
pub fn forest_post_order(parent: &[Option<NodeId>]) -> Vec<NodeId> {
    let n = parent.len();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (v, p) in parent.iter().enumerate() {
        match p {
            Some(p) => children[p.index()].push(v as u32),
            None => roots.push(v as u32),
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(u32, bool)> = Vec::with_capacity(n);
    for &r in roots.iter().rev() {
        stack.push((r, false));
    }
    while let Some((v, exiting)) = stack.pop() {
        if exiting {
            order.push(NodeId(v));
            continue;
        }
        stack.push((v, true));
        for &c in children[v as usize].iter().rev() {
            stack.push((c, false));
        }
    }
    assert_eq!(order.len(), n, "parent function contains a cycle");
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_post_order_children_first() {
        let parent = vec![None, Some(NodeId(0)), Some(NodeId(0)), Some(NodeId(1))];
        let order = forest_post_order(&parent);
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        assert!(pos[3] < pos[1]);
        assert!(pos[1] < pos[0]);
        assert!(pos[2] < pos[0]);
    }
}
