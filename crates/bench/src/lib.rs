//! Shared harness utilities for the per-table/figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §5 for the index) and prints the paper's
//! reference value next to the measured one wherever the paper reports a
//! number. Absolute matches are not expected — the substrate is a
//! calibrated simulator — but the *shape* (who wins, by roughly what
//! factor) is the acceptance criterion, recorded in EXPERIMENTS.md.

use std::fmt::Display;

use sibia_nn::{zoo, Network};
use sibia_sim::ArchSpec;

/// The five core variants of Fig. 10 and Fig. 11, in figure order:
/// Bit-fusion, HNPU, Sibia without the SBR, input skipping, hybrid skipping.
pub fn fig_archs() -> [ArchSpec; 5] {
    [
        ArchSpec::bit_fusion(),
        ArchSpec::hnpu(),
        ArchSpec::sibia_no_sbr(),
        ArchSpec::sibia_input_skip(),
        ArchSpec::sibia_hybrid(),
    ]
}

/// The Fig. 10 (dense) then Fig. 11 (sparse) benchmark networks.
pub fn fig_networks() -> Vec<Network> {
    zoo::dense_benchmarks()
        .into_iter()
        .chain(zoo::sparse_benchmarks())
        .collect()
}

/// Prints an experiment header.
pub fn header(id: &str, title: &str) {
    println!("╔═══════════════════════════════════════════════════════════════════╗");
    println!("║ {id:<10} {title:<56} ║");
    println!("╚═══════════════════════════════════════════════════════════════════╝");
}

/// Prints a section rule.
pub fn section(title: &str) {
    println!("\n── {title} ──");
}

/// A fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    columns: Vec<(String, usize)>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with column headers.
    pub fn new(columns: &[&str]) -> Self {
        Self {
            columns: columns.iter().map(|c| (c.to_string(), c.len())).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "cell count mismatch");
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        for (c, (_, w)) in cells.iter().zip(self.columns.iter_mut()) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Prints the table.
    pub fn print(&self) {
        let line: Vec<String> = self
            .columns
            .iter()
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join("  "));
        let rule: Vec<String> = self.columns.iter().map(|(_, w)| "─".repeat(*w)).collect();
        println!("{}", rule.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&self.columns)
                .map(|(c, (_, w))| format!("{c:<w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }
}

/// Formats a ratio as `"3.65x"`.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats a paper-vs-measured comparison cell.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    format!("{measured:.2} (paper {paper:.2})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_rows() {
        let mut t = Table::new(&["a", "metric"]);
        t.row(&[&"x", &1.5]);
        t.row(&[&"long-name", &x(2.0)]);
        t.print();
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn formatters() {
        assert_eq!(x(3.654), "3.65x");
        assert_eq!(pct(0.119), "11.9%");
        assert_eq!(vs_paper(3.2, 3.65), "3.20 (paper 3.65)");
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn table_validates_cells() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&1]);
    }
}
