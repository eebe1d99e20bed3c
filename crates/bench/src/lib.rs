//! Shared helpers for the paper-experiment bench targets.
//!
//! Every `[[bench]]` in this crate is a plain binary (`harness = false`)
//! that regenerates one table or figure of the SCALE-Sim v3 paper,
//! printing the same rows/series the paper reports and appending a
//! machine-readable CSV under `target/experiments/`.
//!
//! The library also hosts [`layout_reference`], the seed layout kernel the
//! layout equivalence test and `layout_microbench` compare against, and
//! [`merge_bench_section`], which the perf harnesses use to update
//! `BENCH_perf.json`.

pub mod layout_reference;

use std::fs;
use std::path::PathBuf;

/// Directory where experiment CSVs are collected.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes an experiment CSV.
pub fn write_csv(name: &str, content: &str) {
    let path = experiments_dir().join(name);
    fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[csv] {}", path.display());
}

/// Appends the `key` section of the `BENCH_perf.json` trajectory at the
/// repo root, replacing that section and everything after it if present.
/// `section` is the pretty-printed `  "key": {...}` member, newline-ended.
pub fn merge_bench_section(key: &str, section: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json");
    let merged = match fs::read_to_string(&path) {
        Ok(mut existing) => {
            if let Some(i) = existing.find(&format!("\n  \"{key}\"")) {
                existing.truncate(i);
                existing.truncate(existing.trim_end().len());
                if existing.ends_with(',') {
                    existing.pop();
                }
            } else {
                existing.truncate(existing.trim_end().len());
                match existing.pop() {
                    Some('}') => existing.truncate(existing.trim_end().len()),
                    _ => existing = String::from("{"),
                }
            }
            if existing.trim_end().ends_with('{') {
                format!("{existing}\n{section}}}\n")
            } else {
                format!("{existing},\n{section}}}\n")
            }
        }
        Err(_) => format!("{{\n{section}}}\n"),
    };
    fs::write(&path, &merged).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[json] {}", path.display());
}

/// Prints the experiment banner.
pub fn banner(id: &str, title: &str, paper_claim: &str) {
    println!("{}", "=".repeat(74));
    println!("{id} — {title}");
    println!("paper: {paper_claim}");
    println!("{}", "=".repeat(74));
}

/// A printable/serializable results table.
#[derive(Debug, Clone)]
pub struct ResultTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column mismatch");
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with fixed precision (helper for table rows).
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = ResultTable::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn row_width_checked() {
        let mut t = ResultTable::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }
}
