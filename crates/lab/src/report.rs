//! Report plumbing shared by every experiment: scales, ASCII tables, and
//! the CSV/JSON artifact files a report renders and `ms-lab` writes.

use std::fmt::Write as _;
use std::path::Path;

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

/// One artifact file: its name in the artifact directory and its text.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// File name, e.g. `fig1a.csv`.
    pub name: String,
    /// The file's full contents.
    pub body: String,
}

impl Artifact {
    /// `stem.json`: any report as pretty JSON.
    pub fn json<T: serde::Serialize>(stem: &str, value: &T) -> Self {
        Artifact {
            name: format!("{stem}.json"),
            body: serde_json::to_string_pretty(value).expect("serialize report"),
        }
    }

    /// `stem.csv`: the [`csv_body`] of a report's `csv_table()`.
    pub fn csv(stem: &str, (header, rows): (&[&str], Vec<Vec<String>>)) -> Self {
        Artifact {
            name: format!("{stem}.csv"),
            body: csv_body(header, &rows),
        }
    }
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

/// Writes `files` into `dir`, creating the directory first. With no files
/// this only checks that `dir` is usable. An error names the path it
/// failed on.
pub fn write_files(dir: &Path, files: &[Artifact]) -> std::io::Result<()> {
    let located = |path: &Path, e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| located(dir, e))?;
    for file in files {
        let path = dir.join(&file.name);
        std::fs::write(&path, &file.body).map_err(|e| located(&path, e))?;
    }
    Ok(())
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
        let dir = std::env::temp_dir().join(format!("mss-lab-report-{}", std::process::id()));
        let file = Artifact::csv("unit", (&["x", "y"], vec![vec!["1".into(), "2".into()]]));
        assert_eq!(file.name, "unit.csv");
        write_files(&dir.join("nested"), &[file]).unwrap();
        let body = std::fs::read_to_string(dir.join("nested/unit.csv")).unwrap();
        assert_eq!(body, "x,y\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_regular_file_is_no_artifact_dir() {
        let file = std::env::temp_dir().join(format!("mss-lab-report-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        for files in [&[][..], &[Artifact::json("unit", &1)]] {
            let err = write_files(&file, files).unwrap_err();
            assert!(err.to_string().contains(&*file.to_string_lossy()), "{err}");
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn scales() {
        assert_eq!(ExperimentScale::full().tasks, 1000);
        assert!(ExperimentScale::quick().tasks < 200);
    }
}
