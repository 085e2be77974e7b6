//! Report rendering: the markdown and CSV tables the experiment drivers
//! print and archive under `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::ProfileError;

/// A simple rectangular table with a title, built row by row.
///
/// ```
/// use sqnn_profiler::report::Table;
///
/// let mut t = Table::new("Fig. 0 — demo", ["scheme", "error %"]);
/// t.push_row(["seqpoint", "0.11"]);
/// assert!(t.to_markdown().contains("| seqpoint | 0.11 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new<S: Into<String>>(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = S>,
    ) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn push_row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Render as a GitHub-flavoured markdown table with a heading.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Render as CSV (header row first; quotes around cells containing
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Io`] when the filesystem write fails.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<(), ProfileError> {
        let path = path.as_ref();
        let io_err = |e: std::io::Error| ProfileError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(io_err)?;
        }
        fs::write(path, self.to_csv()).map_err(io_err)
    }
}

/// Format a float with `digits` decimal places, trimming `-0`.
pub fn fmt_f(value: f64, digits: usize) -> String {
    let s = format!("{value:.digits$}");
    match s.strip_prefix('-') {
        Some(zero) if zero.chars().all(|c| c == '0' || c == '.') => zero.to_owned(),
        _ => s,
    }
}

/// Format a duration in seconds with an adaptive unit (s / ms / µs).
pub fn fmt_duration(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} µs", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Demo", ["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["x,y", "q\"z"]);
        t.push_row(["only-one"]);
        t
    }

    #[test]
    fn markdown_has_header_and_rows() {
        let md = table().to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_escapes_delimiters() {
        let csv = table().to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"z\""));
    }

    #[test]
    fn short_rows_are_padded() {
        let t = table();
        assert_eq!(t.row_count(), 3);
        let md = t.to_markdown();
        assert!(md.contains("| only-one |  |"));
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join("seqpoint-report-test");
        let path = dir.join("nested/out.csv");
        let _ = std::fs::remove_dir_all(&dir);
        table().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(-0.0001, 2), "0.00");
        assert_eq!(fmt_duration(2.5), "2.50 s");
        assert_eq!(fmt_duration(0.0025), "2.50 ms");
        assert_eq!(fmt_duration(0.0000025), "2.50 µs");
    }

    #[test]
    fn fmt_f_trims_only_a_negative_zero() {
        assert_eq!(fmt_f(-0.0, 3), "0.000");
        assert_eq!(fmt_f(-0.0002, 3), "0.000");
        assert_eq!(fmt_f(-0.001, 3), "-0.001");
        assert_eq!(fmt_f(-0.4, 0), "0");
        assert_eq!(fmt_f(-0.6, 0), "-1");
        assert_eq!(fmt_f(0.0, 3), "0.000");
        assert_eq!(fmt_f(-10.0004, 3), "-10.000");
    }
}
