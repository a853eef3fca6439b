//! Plain-text table formatting for the benchmark harness and examples.

/// A simple column-aligned plain-text table, used by the `repro` harness to print the
/// paper's tables and claims.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the row must have exactly as many cells as there are headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows as strings (for tests and serialization).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let widths = self.column_widths();
        writeln!(f, "{}", self.title)?;
        let format_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let header = format_row(&self.headers);
        writeln!(f, "{header}")?;
        writeln!(f, "{}", "-".repeat(header.len()))?;
        for row in &self.rows {
            writeln!(f, "{}", format_row(row))?;
        }
        Ok(())
    }
}

/// Formats a probability the way the paper's tables do (percentage with every leading
/// nine visible), delegating to [`fault_model::metrics::Nines`].
pub fn percent(probability: f64) -> String {
    fault_model::metrics::Nines::from_probability(probability).as_percent()
}

/// Formats a probability as a number of nines with two decimals (e.g. `3.52 nines`).
pub fn nines(probability: f64) -> String {
    let n = fault_model::metrics::nines(probability);
    if n.is_infinite() {
        "inf nines".to_string()
    } else {
        format!("{n:.2} nines")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("Demo", &["N", "Safe %"]);
        t.push_row(vec!["3".into(), "99.97%".into()]);
        t.push_row(vec!["9".into(), "99.999998%".into()]);
        let rendered = format!("{t}");
        assert!(rendered.contains("Demo"));
        assert!(rendered.contains("N  Safe %"));
        assert!(rendered.lines().count() >= 5);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows()[0][1], "99.97%");
    }

    #[test]
    #[should_panic(expected = "cells but the table has")]
    fn row_arity_is_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn percent_and_nines_formatting() {
        assert_eq!(percent(0.9997), "99.97%");
        assert_eq!(nines(0.999), "3.00 nines");
        assert_eq!(nines(1.0), "inf nines");
    }
}
