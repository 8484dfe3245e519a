//! Experiment output: typed tables rendered as Markdown, CSV and JSON, and
//! the named gates a run must pass.

use serde::Serialize as _;
use serde_json::Value;
use std::fmt::Write as _;

/// Build one report row from any mix of [`serde::Serialize`] cells
/// (integers, floats, strings, bools, `Option`s).
macro_rules! row {
    ($($cell:expr),* $(,)?) => {{
        use serde::Serialize as _;
        vec![$(($cell).to_value()),*]
    }};
}
pub(crate) use row;

/// One experiment's output table.
#[derive(Clone, Debug)]
pub struct Report {
    /// Table id (e.g. `fig10-msr-natural-datasharing`); also the CSV name.
    pub name: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of typed cells; floats are formatted with [`fmt_f`] only when
    /// rendered as Markdown or CSV.
    pub rows: Vec<Vec<Value>>,
    /// Free-form notes (expected shape vs. observations).
    pub notes: Vec<String>,
}

impl Report {
    /// Start an empty report.
    pub fn new(name: impl Into<String>, header: &[&str]) -> Self {
        Report {
            name: name.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn push_row(&mut self, cells: Vec<Value>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    fn rendered_rows(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        self.rows.iter().map(|row| row.iter().map(render).collect())
    }

    /// Render as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.name);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(out, "|{}|", vec!["---"; self.header.len()].join("|"));
        for row in self.rendered_rows() {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let line = |cells: &[String]| {
            let escaped: Vec<String> = cells
                .iter()
                .map(|s| {
                    if s.contains(',') || s.contains('"') {
                        format!("\"{}\"", s.replace('"', "\"\""))
                    } else {
                        s.clone()
                    }
                })
                .collect();
            escaped.join(",") + "\n"
        };
        let mut out = line(&self.header);
        for row in self.rendered_rows() {
            out.push_str(&line(&row));
        }
        out
    }

    fn to_value(&self) -> Value {
        serde::object([
            ("name", self.name.to_value()),
            ("columns", self.header.to_value()),
            (
                "rows",
                Value::Seq(self.rows.iter().cloned().map(Value::Seq).collect()),
            ),
            ("notes", self.notes.to_value()),
        ])
    }
}

/// Render one cell for Markdown/CSV: floats through [`fmt_f`], a missing
/// value as `-`.
fn render(v: &Value) -> String {
    match v {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::UInt(x) => x.to_string(),
        Value::Int(x) => x.to_string(),
        Value::Float(x) => fmt_f(*x),
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).expect("value tree serializes"),
    }
}

/// Format a float compactly (3 significant-ish digits).
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{:.3e}", x)
    } else if x.abs() >= 1.0 {
        format!("{:.1}", x)
    } else {
        format!("{:.4}", x)
    }
}

/// One named pass/fail condition of a run: it passes when
/// `value >= floor`. Yes/no conditions are recorded as value 1 or 0
/// against floor 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Stable name, `<experiment>.<condition>`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Smallest passing value.
    pub floor: f64,
}

impl Gate {
    /// Whether the measured value reaches the floor.
    pub fn passed(&self) -> bool {
        self.value >= self.floor
    }
}

/// What every experiment returns: its tables and the gates its run must
/// pass (none for the paper's tables and figures).
#[derive(Clone, Debug, Default)]
pub struct Bench {
    /// Output tables, one CSV each.
    pub tables: Vec<Report>,
    /// Named gates, in the order they were declared.
    pub gates: Vec<Gate>,
}

impl Bench {
    /// A gate-free result holding these tables.
    pub fn tables(tables: Vec<Report>) -> Self {
        Bench {
            tables,
            gates: Vec::new(),
        }
    }

    /// Declare a numeric gate: `value` must reach `floor`.
    pub fn floor(&mut self, name: &str, value: f64, floor: f64) {
        self.gates.push(Gate {
            name: name.into(),
            value,
            floor,
        });
    }

    /// Declare (or AND into) the yes/no gate `name`: it passes only if
    /// every call for that name held.
    pub fn check(&mut self, name: &str, ok: bool) {
        let value = if ok { 1.0 } else { 0.0 };
        match self.gates.iter_mut().find(|g| g.name == name) {
            Some(g) => g.value = g.value.min(value),
            None => self.floor(name, value, 1.0),
        }
    }

    /// The gates that did not reach their floor.
    pub fn failed(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| !g.passed())
    }

    /// The `BENCH_<experiment>.json` document: `experiment`, `seed`,
    /// `threads`, `gates[]` as `{name, value, floor, passed}`, and
    /// `tables[]` as `{name, columns, rows, notes}`.
    pub fn to_json(&self, experiment: &str, seed: u64) -> String {
        let gates = self
            .gates
            .iter()
            .map(|g| {
                serde::object([
                    ("name", g.name.to_value()),
                    ("value", g.value.to_value()),
                    ("floor", g.floor.to_value()),
                    ("passed", g.passed().to_value()),
                ])
            })
            .collect();
        let doc = serde::object([
            ("experiment", experiment.to_value()),
            ("seed", seed.to_value()),
            ("threads", rayon::current_num_threads().to_value()),
            ("gates", Value::Seq(gates)),
            (
                "tables",
                Value::Seq(self.tables.iter().map(Report::to_value).collect()),
            ),
        ]);
        serde_json::to_string(&doc).expect("value tree serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_render() {
        let mut r = Report::new("demo", &["a", "b", "c", "d"]);
        r.push_row(row![1u64, "x,y", 0.12, None::<u64>]);
        r.note("hello");
        let md = r.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| 1 | x,y | 0.1200 | - |"));
        assert!(md.contains("> hello"));
        let csv = r.to_csv();
        assert!(csv.contains("a,b,c,d"));
        assert!(csv.contains("1,\"x,y\",0.1200,-"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(12345.0), "1.234e4");
        assert_eq!(fmt_f(3.25), "3.2");
        assert_eq!(fmt_f(0.12), "0.1200");
    }

    #[test]
    fn gate_below_floor_is_reported_failed_by_name() {
        let mut b = Bench::default();
        b.floor("demo.speedup", 1.5, 2.0);
        b.floor("demo.throughput", 3.0, 1.0);
        b.check("demo.identical", true);
        b.check("demo.identical", false);
        b.check("demo.identical", true);
        let failed: Vec<&str> = b.failed().map(|g| g.name.as_str()).collect();
        assert_eq!(failed, ["demo.speedup", "demo.identical"]);
        let doc: Value = serde_json::from_str(&b.to_json("demo", 1)).expect("json");
        let gates = match doc.field("gates").expect("gates") {
            Value::Seq(g) => g,
            other => panic!("gates is {}", other.kind()),
        };
        assert_eq!(
            gates[0].field("name"),
            Ok(&Value::Str("demo.speedup".into()))
        );
        assert_eq!(gates[0].field("passed"), Ok(&Value::Bool(false)));
        assert_eq!(gates[1].field("passed"), Ok(&Value::Bool(true)));
    }
}
