//! Report plumbing shared by every experiment: scales, ASCII tables, and
//! CSV/JSON artifacts under `target/lab/`.

use std::fmt::Write as _;
use std::path::PathBuf;

/// How big an experiment run is.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentScale {
    /// Number of random platforms per panel (the paper uses 10).
    pub platforms: usize,
    /// Number of tasks per run (the paper uses 1000).
    pub tasks: usize,
    /// Master seed; every derived RNG is seeded from it.
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's scale: 10 platforms × 1000 tasks.
    pub fn full() -> Self {
        ExperimentScale {
            platforms: 10,
            tasks: 1000,
            seed: 42,
        }
    }

    /// A reduced scale for tests and quick looks (same shapes, ~100× faster).
    pub fn quick() -> Self {
        ExperimentScale {
            platforms: 3,
            tasks: 120,
            seed: 42,
        }
    }
}

/// A plain ASCII table builder (fixed-width columns, right-aligned numbers).
pub struct AsciiTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        AsciiTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with column separators, suitable for terminals and logs.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                let _ = write!(line, " {:<width$} ", cells[i], width = widths[i]);
                if i + 1 < cols {
                    line.push('|');
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Directory where experiment artifacts land (`target/lab/`).
pub fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/lab");
    std::fs::create_dir_all(&dir).expect("create target/lab");
    dir
}

/// The CSV text of a header and stringified rows: fields comma-joined, one
/// line per row, each line newline-terminated. Callers guarantee field
/// contents are comma-free (labels and numbers only).
pub fn csv_body(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut body = header.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    body
}

/// Writes [`csv_body`] to `name.csv` in the artifact directory; returns the
/// path.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = artifact_dir().join(format!("{name}.csv"));
    std::fs::write(&path, csv_body(header, rows)).expect("write csv");
    path
}

/// Serializes any report as pretty JSON next to the CSVs; returns the path.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> PathBuf {
    let path = artifact_dir().join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(&path, body).expect("write json");
    path
}

/// Rounds for display.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Rounds for display (4 decimals, used for ratios near 1).
pub fn fmt4(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_table_renders_aligned() {
        let mut t = AsciiTable::new(vec!["alg", "makespan"]);
        t.row(vec!["SRPT", "1.000"]);
        t.row(vec!["LS", "0.873"]);
        let s = t.render();
        assert!(s.contains("alg"));
        assert!(s.contains("SRPT"));
        assert_eq!(s.lines().count(), 4);
        // All lines have the same width.
        let widths: Vec<usize> = s.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = AsciiTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_written_to_artifact_dir() {
        let path = write_csv(
            "unit_test_artifact",
            &["x", "y"],
            &[vec!["1".into(), "2".into()]],
        );
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "x,y\n1,2\n");
    }

    #[test]
    fn scales() {
        assert_eq!(ExperimentScale::full().tasks, 1000);
        assert!(ExperimentScale::quick().tasks < 200);
    }
}
