//! Indexed binary max-heap: one entry per id, keys stored inline.
//!
//! Dijkstra, the Modified-Prim heuristic and the greedy candidate queues
//! of `dsv-core` all need a priority queue whose entries are
//! re-prioritized in place. [`IndexedHeap`] keeps at most **one entry per
//! id** plus a position map, so [`IndexedHeap::set`] (insert, raise or
//! lower), [`IndexedHeap::remove`] and [`IndexedHeap::pop`] are
//! `O(log len)` and the heap never holds more entries than live ids. The
//! common lazy-deletion `BinaryHeap` pattern instead leaves a stale copy
//! behind on every re-prioritization, so it can hold `O(updates)` entries
//! and every stale copy has to be popped and discarded later.
//!
//! The heap is a **max**-heap over any `K: Ord`; a min-queue over `u64`
//! priorities uses `Reverse(u64)` keys. Ids are dense `usize`s and the
//! id universe grows on demand, so a queue over a growing graph needs no
//! resizing by the caller. Among equal keys the pop order depends only on
//! the sequence of operations, so runs are deterministic.

/// Max-heap over ids `0..`, each queued at most once with a key `K`.
#[derive(Clone, Debug)]
pub struct IndexedHeap<K> {
    /// Heap-ordered `(key, id)` entries.
    heap: Vec<(K, u32)>,
    /// `pos[id]` = index of `id`'s entry in `heap`, or `ABSENT`. Ids past
    /// the end are absent.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl<K: Ord> Default for IndexedHeap<K> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<K: Ord> IndexedHeap<K> {
    /// An empty heap with room for the ids `0..ids` without reallocating.
    pub fn with_capacity(ids: usize) -> Self {
        IndexedHeap {
            heap: Vec::with_capacity(ids),
            pos: vec![ABSENT; ids],
        }
    }

    /// Number of ids currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no ids are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn slot(&self, id: usize) -> Option<usize> {
        match self.pos.get(id) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// Key of a queued id.
    pub fn get(&self, id: usize) -> Option<&K> {
        self.slot(id).map(|i| &self.heap[i].0)
    }

    /// The id with the largest key, without removing it.
    pub fn peek(&self) -> Option<(usize, &K)> {
        self.heap.first().map(|(k, id)| (*id as usize, k))
    }

    /// Queue `id` with `key`, replacing its key if it is already queued.
    pub fn set(&mut self, id: usize, key: K) {
        if let Some(i) = self.slot(id) {
            let raised = key > self.heap[i].0;
            self.heap[i].0 = key;
            if raised {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        } else {
            assert!(id < ABSENT as usize, "id {id} out of range");
            if id >= self.pos.len() {
                self.pos.resize(id + 1, ABSENT);
            }
            self.pos[id] = self.heap.len() as u32;
            self.heap.push((key, id as u32));
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Dequeue `id`, returning its key (`None` if it was not queued).
    pub fn remove(&mut self, id: usize) -> Option<K> {
        let i = self.slot(id)?;
        Some(self.take(i))
    }

    /// Remove and return the id with the largest key.
    pub fn pop(&mut self) -> Option<(usize, K)> {
        let id = self.heap.first()?.1 as usize;
        Some((id, self.take(0)))
    }

    /// Remove the entry at heap index `i`: the last entry takes its place
    /// and sifts whichever way its key points.
    fn take(&mut self, i: usize) -> K {
        let (key, id) = self.heap.swap_remove(i);
        self.pos[id as usize] = ABSENT;
        if i < self.heap.len() {
            self.pos[self.heap[i].1 as usize] = i as u32;
            if i > 0 && self.heap[i].0 > self.heap[(i - 1) / 2].0 {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        key
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 > self.heap[parent].0 {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len() && self.heap[l].0 > self.heap[largest].0 {
                largest = l;
            }
            if r < self.heap.len() && self.heap[r].0 > self.heap[largest].0 {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap_slots(i, largest);
            i = largest;
        }
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BTreeSet;

    #[test]
    fn pops_in_key_order() {
        let mut h = IndexedHeap::default();
        for (id, p) in [(3usize, 30u64), (1, 10), (7, 70), (2, 20)] {
            h.set(id, Reverse(p));
        }
        assert_eq!(h.pop(), Some((1, Reverse(10))));
        assert_eq!(h.pop(), Some((2, Reverse(20))));
        assert_eq!(h.pop(), Some((3, Reverse(30))));
        assert_eq!(h.pop(), Some((7, Reverse(70))));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn set_raises_and_lowers_in_place() {
        let mut h = IndexedHeap::with_capacity(4);
        h.set(0, 100u64);
        h.set(1, 50);
        h.set(1, 150);
        assert_eq!(h.len(), 2, "one entry per id");
        assert_eq!(h.peek(), Some((1, &150)));
        h.set(1, 10);
        assert_eq!(h.peek(), Some((0, &100)));
        assert_eq!(h.pop(), Some((0, 100)));
        assert_eq!(h.pop(), Some((1, 10)));
    }

    #[test]
    fn membership_removal_and_growth() {
        let mut h = IndexedHeap::with_capacity(3);
        assert_eq!(h.get(1_000), None);
        h.set(2, 5u32);
        h.set(1_000, 7);
        assert_eq!(h.get(2), Some(&5));
        assert_eq!(h.get(1_000), Some(&7));
        assert_eq!(h.remove(1_000), Some(7));
        assert_eq!(h.remove(1_000), None);
        assert_eq!(h.remove(5_000), None);
        assert_eq!(h.pop(), Some((2, 5)));
        assert_eq!(h.get(2), None);
        assert!(h.is_empty());
    }

    /// One random heap operation of the model test.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Set(usize, u16),
        Remove(usize),
        Pop,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::strategy::Strategy;
        // Keys from a small range so equal keys (ties) are common; ids up
        // to 200 so most `set`s grow the id space or hit absent ids.
        (0u8..10, 0usize..200, 0u16..64).prop_map(|(kind, id, key)| match kind {
            0..=5 => Op::Set(id, key),
            6..=7 => Op::Remove(id),
            _ => Op::Pop,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random `set` (insert, raise, lower), `remove` (present or
        /// absent ids) and `pop` against a `BTreeSet<(key, id)>` model.
        /// Keys are `(key, id)` pairs, so the maximum is unique and the
        /// pop order is fully determined.
        #[test]
        fn matches_a_sorted_set_model(ops in proptest::collection::vec(op(), 0..400)) {
            let mut h: IndexedHeap<(u16, usize)> = IndexedHeap::default();
            let mut model: BTreeSet<(u16, usize)> = BTreeSet::new();
            let mut keys: Vec<Option<u16>> = Vec::new();
            for op in ops {
                match op {
                    Op::Set(id, key) => {
                        if keys.len() <= id {
                            keys.resize(id + 1, None);
                        }
                        if let Some(old) = keys[id].replace(key) {
                            model.remove(&(old, id));
                        }
                        model.insert((key, id));
                        h.set(id, (key, id));
                    }
                    Op::Remove(id) => {
                        let old = keys.get_mut(id).and_then(Option::take);
                        if let Some(old) = old {
                            model.remove(&(old, id));
                        }
                        proptest::prop_assert_eq!(h.remove(id), old.map(|k| (k, id)));
                    }
                    Op::Pop => {
                        let want = model.pop_last();
                        if let Some((_, id)) = want {
                            keys[id] = None;
                        }
                        proptest::prop_assert_eq!(h.pop(), want.map(|k| (k.1, k)));
                    }
                }
                proptest::prop_assert_eq!(h.len(), model.len());
                proptest::prop_assert_eq!(h.peek().map(|(_, k)| *k), model.last().copied());
                for (id, key) in keys.iter().enumerate() {
                    proptest::prop_assert_eq!(h.get(id).copied(), key.map(|k| (k, id)));
                }
            }
            let mut drained = Vec::new();
            while let Some((_, k)) = h.pop() {
                drained.push(k);
            }
            let want: Vec<(u16, usize)> = model.into_iter().rev().collect();
            proptest::prop_assert_eq!(drained, want);
        }
    }
}
