//! Output helpers for the experiment harness: aligned console tables
//! and CSV files under `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple experiment table: header row + data rows.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row of already-formatted cells.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout and writes `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let dir = Path::new("results");
        if fs::create_dir_all(dir).is_ok() {
            let _ = fs::write(dir.join(format!("{name}.csv")), csv);
        }
    }
}

/// Formats a float with the given number of decimals.
pub fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Prints a paper-comparison note under a table.
pub fn note(text: &str) {
    println!("   paper: {text}\n");
}
