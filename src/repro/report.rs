//! Plain-text table rendering for the reproduction reports.

/// A fixed-width text table builder.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub(crate) fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn row<S: Into<String>, I: IntoIterator<Item = S>>(
        &mut self,
        cells: I,
    ) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>w$}"));
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a fraction as a signed percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Formats seconds as milliseconds with two decimals.
pub(crate) fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All rows equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.147), "+14.7%");
        assert_eq!(pct(-0.031), "-3.1%");
        assert_eq!(ms(0.08625), "86.25");
    }
}
