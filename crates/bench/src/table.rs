//! Plain-text table rendering for experiment output.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "bb"]);
        t.row(vec!["xxxx".into(), "y".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     bb"));
        assert!(lines[2].starts_with("xxxx  y"));
    }

    #[test]
    fn rendered_table_contains_its_rows() {
        let mut t = TextTable::new(vec!["app", "runtime (s)"]);
        t.row(vec!["terasort".into(), "1234.5".into()]);
        let rendered = t.render();
        assert!(rendered.contains("terasort"));
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(vec!["only"]);
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
