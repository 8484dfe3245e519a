//! Edit scripts with a byte-accurate cost model.
//!
//! A delta between two dataset versions is an edit script. Its *storage
//! cost* is the number of bytes needed to persist it; its *retrieval cost*
//! models the work to replay it. The paper notes that with `simple diff`
//! "the storage and retrieval costs are proportional to each other", and
//! that "deletion is also significantly faster and easier to store than
//! addition of content" — both properties fall out of this encoding:
//! inserted content is stored verbatim while deletions are just ranges.

use crate::myers::DiffOp;

/// Per-script fixed overhead of the cost model (bytes). The three
/// constants mimic a unified-diff-like encoding: each hunk costs a header,
/// deletions cost a range record, insertions cost their content.
const SCRIPT_HEADER: u64 = 16;
/// Per-op record overhead (bytes).
const OP_HEADER: u64 = 8;
/// Extra retrieval work per op replayed (seek + splice), in cost units.
const OP_REPLAY: u64 = 4;

/// An edit script between two versions, with the byte sizes needed to price
/// it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditScript {
    /// Number of edit ops (non-`Equal` runs).
    pub ops: usize,
    /// Total bytes of inserted content.
    pub inserted_bytes: u64,
    /// Total bytes covered by deletions (not stored, only counted for the
    /// retrieval model).
    pub deleted_bytes: u64,
}

impl EditScript {
    /// Price a diff over line-id sequences, where `line_size(id)` returns
    /// the byte length of a line.
    pub fn from_ops(ops: &[DiffOp], b_lines: &[u32], line_size: impl Fn(u32) -> u64) -> Self {
        let mut script = EditScript::default();
        for op in ops {
            match *op {
                DiffOp::Equal { .. } => {}
                DiffOp::Delete { len } => {
                    script.ops += 1;
                    // Deleted bytes are estimated via the replaced content in
                    // `b`; for the cost model we only need a magnitude, and
                    // deletions are cheap regardless.
                    script.deleted_bytes += len as u64;
                }
                DiffOp::Insert { start, len } => {
                    script.ops += 1;
                    script.inserted_bytes += b_lines[start..start + len]
                        .iter()
                        .map(|&id| line_size(id))
                        .sum::<u64>();
                }
            }
        }
        script
    }

    /// Storage cost in bytes: headers plus inserted content. Deletions cost
    /// only their op header — this is the asymmetry the paper calls out.
    pub fn storage_cost(&self) -> u64 {
        SCRIPT_HEADER + self.ops as u64 * OP_HEADER + self.inserted_bytes
    }

    /// Retrieval cost: proportional to the bytes spliced in plus replay
    /// overhead per op. This is proportional to the storage cost, matching
    /// the "simple diff" setting of Section 7.1.
    pub fn retrieval_cost(&self) -> u64 {
        SCRIPT_HEADER + self.ops as u64 * OP_REPLAY + self.inserted_bytes
    }

    /// Merge the scripts of several files into a whole-version delta.
    pub fn merge(scripts: impl IntoIterator<Item = EditScript>) -> EditScript {
        let mut total = EditScript::default();
        for s in scripts {
            total.ops += s.ops;
            total.inserted_bytes += s.inserted_bytes;
            total.deleted_bytes += s.deleted_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::myers::diff;

    #[test]
    fn empty_script_costs_only_header() {
        let s = EditScript::default();
        assert_eq!(s.storage_cost(), SCRIPT_HEADER);
        assert_eq!(s.retrieval_cost(), SCRIPT_HEADER);
    }

    #[test]
    fn insertion_dominates_cost() {
        let a: Vec<u32> = vec![0, 1, 2];
        let b: Vec<u32> = vec![0, 1, 2, 3, 4];
        let ops = diff(&a, &b);
        let s = EditScript::from_ops(&ops, &b, |_| 100);
        assert_eq!(s.inserted_bytes, 200);
        assert_eq!(s.storage_cost(), 16 + 8 + 200);
    }

    #[test]
    fn deletion_is_cheap() {
        let a: Vec<u32> = vec![0, 1, 2, 3, 4];
        let b: Vec<u32> = vec![0, 4];
        let ops = diff(&a, &b);
        let s = EditScript::from_ops(&ops, &b, |_| 100);
        // No inserted content: storage is headers only.
        assert_eq!(s.inserted_bytes, 0);
        assert!(s.storage_cost() < 100);
        assert!(s.deleted_bytes > 0);
    }

    #[test]
    fn merge_adds_components() {
        let a = EditScript {
            ops: 2,
            inserted_bytes: 10,
            deleted_bytes: 3,
        };
        let b = EditScript {
            ops: 1,
            inserted_bytes: 5,
            deleted_bytes: 0,
        };
        let m = EditScript::merge([a, b]);
        assert_eq!(m.ops, 3);
        assert_eq!(m.inserted_bytes, 15);
        assert_eq!(m.deleted_bytes, 3);
    }

    #[test]
    fn directional_asymmetry() {
        // Adding content is expensive forward, cheap backward.
        let a: Vec<u32> = vec![0, 1];
        let b: Vec<u32> = vec![0, 1, 2, 3, 4, 5];
        let fwd = EditScript::from_ops(&diff(&a, &b), &b, |_| 50);
        let bwd = EditScript::from_ops(&diff(&b, &a), &a, |_| 50);
        assert!(fwd.storage_cost() > bwd.storage_cost());
    }
}
