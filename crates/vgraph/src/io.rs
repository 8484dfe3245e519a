//! Graph (de)serialization.
//!
//! Two formats: JSON via serde for tooling, and a simple line-oriented text
//! format for quick inspection and for piping graphs between the harness
//! binaries:
//!
//! ```text
//! # comment
//! n <node-count>
//! v <id> <storage>
//! e <src> <dst> <storage> <retrieval>
//! ```

use crate::graph::VersionGraph;
use crate::ids::NodeId;
use std::fmt::Write as _;

/// Serialize to JSON.
pub fn to_json(g: &VersionGraph) -> String {
    serde_json::to_string(g).expect("VersionGraph serializes")
}

/// Deserialize from JSON.
pub fn from_json(s: &str) -> Result<VersionGraph, String> {
    serde_json::from_str(s).map_err(|e| e.to_string())
}

/// Serialize to the line-oriented text format.
pub fn to_text(g: &VersionGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "n {}", g.n());
    for v in g.node_ids() {
        let _ = writeln!(out, "v {} {}", v.index(), g.node_storage(v));
    }
    for e in g.edges() {
        let _ = writeln!(
            out,
            "e {} {} {} {}",
            e.src.index(),
            e.dst.index(),
            e.storage,
            e.retrieval
        );
    }
    out
}

/// Parse the line-oriented text format.
pub fn from_text(s: &str) -> Result<VersionGraph, String> {
    let mut g: Option<VersionGraph> = None;
    for (lineno, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let tag = it.next().expect("non-empty line");
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("line {}: missing {what}", lineno + 1))?
                .parse::<u64>()
                .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))
        };
        match tag {
            "n" => {
                let n = num("node count")? as usize;
                g = Some(VersionGraph::with_nodes(n));
            }
            "v" => {
                let g = g
                    .as_mut()
                    .ok_or_else(|| format!("line {}: 'v' before 'n'", lineno + 1))?;
                let id = num("node id")? as usize;
                let storage = num("storage")?;
                if id >= g.n() {
                    return Err(format!("line {}: node id {id} out of range", lineno + 1));
                }
                *g.node_storage_mut(NodeId::new(id)) = storage;
            }
            "e" => {
                let g = g
                    .as_mut()
                    .ok_or_else(|| format!("line {}: 'e' before 'n'", lineno + 1))?;
                let src = num("src")? as usize;
                let dst = num("dst")? as usize;
                let storage = num("storage")?;
                let retrieval = num("retrieval")?;
                if src >= g.n() || dst >= g.n() {
                    return Err(format!("line {}: edge endpoint out of range", lineno + 1));
                }
                g.add_edge(NodeId::new(src), NodeId::new(dst), storage, retrieval);
            }
            other => {
                return Err(format!("line {}: unknown tag '{other}'", lineno + 1));
            }
        }
    }
    g.ok_or_else(|| "no 'n' line found".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_tree, CostModel};

    #[test]
    fn json_roundtrip() {
        let g = random_tree(10, &CostModel::default(), 3);
        let g2 = from_json(&to_json(&g)).expect("parses");
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.edges(), g2.edges());
    }

    #[test]
    fn duplicated_adjacency_entries_are_rejected() {
        // A graph whose out-adjacency lists edge 0 twice and edge 1 never:
        // per-entry checks and degree sums both pass, so only the
        // exactly-once check can catch it.
        let mut g = VersionGraph::with_nodes(2);
        *g.node_storage_mut(NodeId(0)) = 1;
        *g.node_storage_mut(NodeId(1)) = 1;
        g.add_edge(NodeId(0), NodeId(1), 1, 1); // edge 0
        g.add_edge(NodeId(0), NodeId(1), 2, 2); // edge 1 (parallel)

        // Corrupt via the JSON surface: out_adj [[0,1],[]] -> [[0,0],[]].
        let clean = to_json(&g);
        let json = clean.replace("\"out_adj\":[[0,1],[]]", "\"out_adj\":[[0,0],[]]");
        assert_ne!(json, clean, "corruption must apply");
        let err = from_json(&json).expect_err("duplicate adjacency must be rejected");
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn text_roundtrip() {
        let g = random_tree(8, &CostModel::default(), 4);
        let g2 = from_text(&to_text(&g)).expect("parses");
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.edges(), g2.edges());
        for v in g.node_ids() {
            assert_eq!(g.node_storage(v), g2.node_storage(v));
        }
    }

    #[test]
    fn text_with_comments_and_blanks() {
        let s = "# a graph\n\nn 2\nv 0 10\nv 1 20\n\ne 0 1 3 4\n";
        let g = from_text(s).expect("parses");
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        assert_eq!(g.node_storage(NodeId(1)), 20);
    }

    #[test]
    fn text_errors_are_reported_with_line_numbers() {
        assert!(from_text("v 0 1").unwrap_err().contains("'v' before 'n'"));
        assert!(from_text("n 1\ne 0 5 1 1")
            .unwrap_err()
            .contains("out of range"));
        assert!(from_text("n 1\nq").unwrap_err().contains("unknown tag"));
        assert!(from_text("").unwrap_err().contains("no 'n' line"));
    }
}
