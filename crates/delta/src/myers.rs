//! Myers `O(ND)` shortest edit script.
//!
//! The classic greedy algorithm from Myers, *"An O(ND) Difference Algorithm
//! and Its Variations"* (1986) — the same algorithm behind `diff`, which is
//! what the paper uses to produce deltas ("We use simple diff to calculate
//! the deltas"). Works over any `Eq` items; the dataset layer feeds it
//! interned line ids.

/// One primitive of an edit script over sequences `a → b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffOp {
    /// `len` items are common to both sequences.
    Equal {
        /// Run length.
        len: usize,
    },
    /// `len` items of `a` are deleted.
    Delete {
        /// Run length.
        len: usize,
    },
    /// Items `b[start..start+len]` are inserted.
    Insert {
        /// Start index into `b`.
        start: usize,
        /// Run length.
        len: usize,
    },
}

/// Compute a shortest edit script turning `a` into `b`.
///
/// Returns ops in order; `Equal`/`Delete` consume `a`, `Equal`/`Insert`
/// produce `b`. The number of non-equal items is minimal (Myers' D).
pub fn diff<T: Eq>(a: &[T], b: &[T]) -> Vec<DiffOp> {
    // Trim the common prefix/suffix first — version graphs diff
    // near-identical versions, so this removes almost all of the input in
    // the common case.
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let mut suffix = 0usize;
    while suffix < a.len().saturating_sub(prefix)
        && suffix < b.len().saturating_sub(prefix)
        && a[a.len() - 1 - suffix] == b[b.len() - 1 - suffix]
    {
        suffix += 1;
    }
    let core_a = &a[prefix..a.len() - suffix];
    let core_b = &b[prefix..b.len() - suffix];

    let mut ops = Vec::new();
    if prefix > 0 {
        ops.push(DiffOp::Equal { len: prefix });
    }
    myers_core(core_a, core_b, prefix, &mut ops);
    if suffix > 0 {
        ops.push(DiffOp::Equal { len: suffix });
    }
    coalesce(ops)
}

/// The greedy forward Myers algorithm with a trace for backtracking.
fn myers_core<T: Eq>(a: &[T], b: &[T], b_offset: usize, ops: &mut Vec<DiffOp>) {
    let (n, m) = (a.len(), b.len());
    if n == 0 && m == 0 {
        return;
    }
    if n == 0 {
        ops.push(DiffOp::Insert {
            start: b_offset,
            len: m,
        });
        return;
    }
    if m == 0 {
        ops.push(DiffOp::Delete { len: n });
        return;
    }
    let max = n + m;
    let width = 2 * max + 1;
    // v[k + max] = furthest x on diagonal k.
    let mut v = vec![0usize; width];
    let mut trace: Vec<Vec<usize>> = Vec::new();
    let mut found_d = None;
    'outer: for d in 0..=max {
        trace.push(v.clone());
        let d_i = d as isize;
        let mut k = -d_i;
        while k <= d_i {
            let ki = (k + max as isize) as usize;
            let mut x = if k == -d_i || (k != d_i && v[ki - 1] < v[ki + 1]) {
                v[ki + 1] // down: insertion
            } else {
                v[ki - 1] + 1 // right: deletion
            };
            let mut y = (x as isize - k) as usize;
            while x < n && y < m && a[x] == b[y] {
                x += 1;
                y += 1;
            }
            v[ki] = x;
            if x >= n && y >= m {
                found_d = Some(d);
                break 'outer;
            }
            k += 2;
        }
    }
    let d_final = found_d.expect("Myers always terminates within n+m steps");

    // Backtrack through the trace, emitting ops in reverse.
    let mut rev: Vec<DiffOp> = Vec::new();
    let (mut x, mut y) = (n, m);
    for d in (1..=d_final).rev() {
        let vd = &trace[d];
        let d_i = d as isize;
        let k = x as isize - y as isize;
        let ki = (k + max as isize) as usize;
        let went_down = k == -d_i || (k != d_i && vd[ki - 1] < vd[ki + 1]);
        let prev_k = if went_down { k + 1 } else { k - 1 };
        let prev_ki = (prev_k + max as isize) as usize;
        let prev_x = vd[prev_ki];
        let prev_y = (prev_x as isize - prev_k) as usize;
        // Snake (equal run) after the edit step.
        let step_x = if went_down { prev_x } else { prev_x + 1 };
        let step_y = (step_x as isize - k) as usize;
        let snake = x - step_x;
        if snake > 0 {
            rev.push(DiffOp::Equal { len: snake });
        }
        if went_down {
            rev.push(DiffOp::Insert {
                start: b_offset + step_y - 1,
                len: 1,
            });
        } else {
            rev.push(DiffOp::Delete { len: 1 });
        }
        x = prev_x;
        y = prev_y;
    }
    if x > 0 {
        // Leading snake at d = 0.
        rev.push(DiffOp::Equal { len: x });
    }
    ops.extend(rev.into_iter().rev());
}

/// Merge adjacent ops of the same kind.
fn coalesce(ops: Vec<DiffOp>) -> Vec<DiffOp> {
    let mut out: Vec<DiffOp> = Vec::with_capacity(ops.len());
    for op in ops {
        match (out.last_mut(), op) {
            (Some(DiffOp::Equal { len }), DiffOp::Equal { len: l2 }) => *len += l2,
            (Some(DiffOp::Delete { len }), DiffOp::Delete { len: l2 }) => *len += l2,
            (Some(DiffOp::Insert { start, len }), DiffOp::Insert { start: s2, len: l2 })
                if *start + *len == s2 =>
            {
                *len += l2
            }
            _ => out.push(op),
        }
    }
    out
}

/// Apply a script produced by [`diff`] to `a`, reading inserted items from
/// `b`. Returns the reconstructed sequence (clones items).
pub fn apply<T: Clone>(a: &[T], b: &[T], ops: &[DiffOp]) -> Vec<T> {
    let mut out = Vec::with_capacity(b.len());
    let mut ai = 0usize;
    for op in ops {
        match *op {
            DiffOp::Equal { len } => {
                out.extend_from_slice(&a[ai..ai + len]);
                ai += len;
            }
            DiffOp::Delete { len } => ai += len,
            DiffOp::Insert { start, len } => out.extend_from_slice(&b[start..start + len]),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of edited items (insertions + deletions) in a script —
    /// Myers' D.
    fn edit_distance(ops: &[DiffOp]) -> usize {
        ops.iter()
            .map(|op| match op {
                DiffOp::Equal { .. } => 0,
                DiffOp::Delete { len } | DiffOp::Insert { len, .. } => *len,
            })
            .sum()
    }

    fn check(a: &[u32], b: &[u32]) -> Vec<DiffOp> {
        let ops = diff(a, b);
        assert_eq!(apply(a, b, &ops), b, "apply(diff) must reproduce b");
        ops
    }

    #[test]
    fn identical_sequences() {
        let ops = check(&[1, 2, 3], &[1, 2, 3]);
        assert_eq!(ops, vec![DiffOp::Equal { len: 3 }]);
        assert_eq!(edit_distance(&ops), 0);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(check(&[], &[]), vec![]);
        let ops = check(&[], &[1, 2]);
        assert_eq!(edit_distance(&ops), 2);
        let ops = check(&[1, 2], &[]);
        assert_eq!(edit_distance(&ops), 2);
    }

    #[test]
    fn single_substitution() {
        let ops = check(&[1, 2, 3], &[1, 9, 3]);
        assert_eq!(edit_distance(&ops), 2); // delete 2, insert 9
    }

    #[test]
    fn insertion_in_middle() {
        let ops = check(&[1, 2, 3], &[1, 2, 9, 9, 3]);
        assert_eq!(edit_distance(&ops), 2);
    }

    #[test]
    fn textbook_example() {
        // Myers' paper example: ABCABBA -> CBABAC has D = 5.
        let a: Vec<u32> = "ABCABBA".bytes().map(u32::from).collect();
        let b: Vec<u32> = "CBABAC".bytes().map(u32::from).collect();
        let ops = check(&a, &b);
        assert_eq!(edit_distance(&ops), 5);
    }

    #[test]
    fn disjoint_sequences() {
        let ops = check(&[1, 2], &[3, 4, 5]);
        assert_eq!(edit_distance(&ops), 5);
    }

    #[test]
    fn randomized_roundtrip_and_minimality_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let n = rng.gen_range(0..60);
            let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..8)).collect();
            // b = a with random local mutations, so D should stay small.
            let mut b = a.clone();
            let muts = rng.gen_range(0..8);
            for _ in 0..muts {
                if b.is_empty() || rng.gen_bool(0.5) {
                    let pos = rng.gen_range(0..=b.len());
                    b.insert(pos, rng.gen_range(0..8));
                } else {
                    let pos = rng.gen_range(0..b.len());
                    b.remove(pos);
                }
            }
            let ops = check(&a, &b);
            // Shortest script is at most the number of mutations... not
            // exactly (mutations can cancel), but bounded by 2*muts.
            assert!(edit_distance(&ops) <= 2 * muts);
        }
    }
}
