//! Versioned datasets as interned line sequences.
//!
//! A [`Snapshot`] is the content of one dataset version: a set of files,
//! each a sequence of interned line ids. Lines live once in a shared
//! [`LineStore`]; versions reference them by id, so holding dozens of
//! near-identical versions is cheap — the same trick real VCS object stores
//! use.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared intern table for lines.
#[derive(Clone, Debug, Default)]
pub struct LineStore {
    lines: Vec<Arc<str>>,
    sizes: Vec<u64>,
    index: HashMap<String, u32>,
}

impl LineStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a line, returning its id.
    pub fn intern(&mut self, line: &str) -> u32 {
        if let Some(&id) = self.index.get(line) {
            return id;
        }
        let id = self.lines.len() as u32;
        self.lines.push(Arc::from(line));
        // +1 for the newline byte, as a byte-on-disk measure.
        self.sizes.push(line.len() as u64 + 1);
        self.index.insert(line.to_string(), id);
        id
    }

    /// Byte size of a line (including newline).
    #[inline]
    pub fn size(&self, id: u32) -> u64 {
        self.sizes[id as usize]
    }

    /// The text of a line.
    pub fn text(&self, id: u32) -> &str {
        &self.lines[id as usize]
    }

    /// Number of distinct interned lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// One version of the dataset: file path → line ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Files sorted by path (BTreeMap keeps diffs deterministic).
    pub files: BTreeMap<String, Vec<u32>>,
}

impl Snapshot {
    /// Total byte size of the version (the node storage cost `s_v`).
    pub fn byte_size(&self, store: &LineStore) -> u64 {
        self.files
            .values()
            .flat_map(|lines| lines.iter().map(|&id| store.size(id)))
            .sum()
    }

    /// Compute the whole-version delta `self → other` by diffing each file.
    pub fn delta_to(&self, other: &Snapshot, store: &LineStore) -> crate::script::EditScript {
        let mut scripts = Vec::new();
        let empty: Vec<u32> = Vec::new();
        // Union of paths (sorted automatically via BTreeMap iteration merge).
        let mut paths: Vec<&String> = self.files.keys().chain(other.files.keys()).collect();
        paths.sort();
        paths.dedup();
        for path in paths {
            let a = self.files.get(path).unwrap_or(&empty);
            let b = other.files.get(path).unwrap_or(&empty);
            if a == b {
                continue;
            }
            let ops = crate::myers::diff(a, b);
            scripts.push(crate::script::EditScript::from_ops(&ops, b, |id| {
                store.size(id)
            }));
        }
        crate::script::EditScript::merge(scripts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(store: &mut LineStore, files: &[(&str, &[&str])]) -> Snapshot {
        let mut s = Snapshot::default();
        for (path, lines) in files {
            let ids = lines.iter().map(|l| store.intern(l)).collect();
            s.files.insert(path.to_string(), ids);
        }
        s
    }

    #[test]
    fn interning_dedupes() {
        let mut store = LineStore::new();
        let a = store.intern("hello");
        let b = store.intern("hello");
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.size(a), 6);
        assert_eq!(store.text(a), "hello");
    }

    #[test]
    fn byte_size_sums_lines() {
        let mut store = LineStore::new();
        let s = snap(&mut store, &[("a.txt", &["xx", "yyy"])]);
        assert_eq!(s.byte_size(&store), 3 + 4);
    }

    #[test]
    fn identical_snapshots_have_header_only_delta() {
        let mut store = LineStore::new();
        let s1 = snap(&mut store, &[("a", &["1", "2"])]);
        let s2 = s1.clone();
        let d = s1.delta_to(&s2, &store);
        assert_eq!(d.ops, 0);
        assert_eq!(d.inserted_bytes, 0);
    }

    #[test]
    fn file_addition_costs_its_content() {
        let mut store = LineStore::new();
        let s1 = snap(&mut store, &[("a", &["1"])]);
        let s2 = snap(&mut store, &[("a", &["1"]), ("b", &["abcd", "efgh"])]);
        let d = s1.delta_to(&s2, &store);
        assert_eq!(d.inserted_bytes, 5 + 5);
        // Reverse direction deletes the file: cheap.
        let rd = s2.delta_to(&s1, &store);
        assert_eq!(rd.inserted_bytes, 0);
        assert!(rd.storage_cost() < d.storage_cost());
    }

    #[test]
    fn modification_only_pays_changed_lines() {
        let mut store = LineStore::new();
        let s1 = snap(&mut store, &[("a", &["same1", "old", "same2"])]);
        let s2 = snap(&mut store, &[("a", &["same1", "newer", "same2"])]);
        let d = s1.delta_to(&s2, &store);
        assert_eq!(d.inserted_bytes, 6); // "newer\n"
    }
}
