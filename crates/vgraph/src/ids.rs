//! Typed indices for nodes and edges.
//!
//! Both are thin `u32` newtypes: version graphs in the evaluation have at
//! most a few tens of thousands of nodes and ~10^5 edges, so 32-bit indices
//! halve the memory traffic of the hot algorithms (cf. the "Smaller
//! Integers" advice in the Rust Performance Book).

use std::fmt;

/// Identifier of a version (a node of the version graph).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a delta (a directed edge of the version graph).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build from a `usize` index (panics if it does not fit in `u32`).
    #[inline]
    pub fn new(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        NodeId(i as u32)
    }
}

impl EdgeId {
    /// The index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build from a `usize` index (panics if it does not fit in `u32`).
    #[inline]
    pub fn new(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        EdgeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId::new(i)
    }
}

impl From<usize> for EdgeId {
    fn from(i: usize) -> Self {
        EdgeId::new(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(format!("{n}"), "v42");
        assert_eq!(format!("{n:?}"), "v42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId::new(7);
        assert_eq!(e.index(), 7);
        assert_eq!(format!("{e}"), "e7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(10));
    }
}
