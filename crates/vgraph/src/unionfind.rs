//! Union–find (disjoint set union) structures.
//!
//! Two variants are provided: a plain path-compressing [`UnionFind`] used by
//! the connected-components pass of the partitioner, and a
//! [`RollbackUnionFind`] (union by size, no compression, with an undo
//! journal) required by the reconstruction phase of the Gabow/Tarjan
//! minimum-arborescence algorithm.

/// Classic union–find with path halving and union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            // Path halving.
            self.parent[x] = self.parent[self.parent[x] as usize];
            x = self.parent[x] as usize;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns false if already merged.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }
}

/// Union–find with rollback: unions can be undone in LIFO order.
///
/// Uses union by size *without* path compression so that a union touches
/// exactly two array cells, which is what makes the undo journal exact.
/// `find` is `O(log n)` worst case.
#[derive(Clone, Debug)]
pub struct RollbackUnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Journal of (child-root, parent-root) pairs, one per successful union.
    journal: Vec<(u32, u32)>,
}

impl RollbackUnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        RollbackUnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            journal: Vec::new(),
        }
    }

    /// Representative of `x`'s set (no compression).
    pub fn find(&self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            x = self.parent[x] as usize;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns false if already merged.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.journal.push((rb as u32, ra as u32));
        true
    }

    /// Current time, to be passed to [`RollbackUnionFind::rollback`].
    pub fn time(&self) -> usize {
        self.journal.len()
    }

    /// Undo all unions performed after `time`.
    pub fn rollback(&mut self, time: usize) {
        while self.journal.len() > time {
            let (child, parent) = self.journal.pop().expect("journal non-empty");
            self.parent[child as usize] = child;
            self.size[parent as usize] -= self.size[child as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        assert!(uf.union(1, 2));
        assert_eq!(uf.find(0), uf.find(3));
        assert_ne!(uf.find(0), uf.find(4));
    }

    #[test]
    fn rollback_restores_exact_state() {
        let mut uf = RollbackUnionFind::new(6);
        uf.union(0, 1);
        let t = uf.time();
        uf.union(2, 3);
        uf.union(0, 2);
        assert_eq!(uf.find(3), uf.find(1));
        uf.rollback(t);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(2), uf.find(3));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn rollback_to_zero() {
        let mut uf = RollbackUnionFind::new(4);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(2, 3);
        uf.rollback(0);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn rollback_union_find_sizes_restore() {
        let mut uf = RollbackUnionFind::new(4);
        uf.union(0, 1);
        let t = uf.time();
        uf.union(2, 0);
        let r = uf.find(0);
        assert_eq!(uf.size[r], 3);
        uf.rollback(t);
        let r = uf.find(0);
        assert_eq!(uf.size[r], 2);
    }

    #[test]
    fn interleaved_union_rollback_fuzz() {
        // Compare against a fresh plain union-find replay after rollbacks.
        let mut uf = RollbackUnionFind::new(32);
        let ops: Vec<(usize, usize)> = (0..64).map(|i| ((i * 7) % 32, (i * 13 + 5) % 32)).collect();
        let t0 = uf.time();
        for &(a, b) in &ops[..32] {
            uf.union(a, b);
        }
        uf.rollback(t0);
        for &(a, b) in &ops[32..] {
            uf.union(a, b);
        }
        let mut reference = UnionFind::new(32);
        for &(a, b) in &ops[32..] {
            reference.union(a, b);
        }
        for i in 0..32 {
            for j in 0..32 {
                assert_eq!(
                    uf.find(i) == uf.find(j),
                    reference.find(i) == reference.find(j)
                );
            }
        }
    }
}
