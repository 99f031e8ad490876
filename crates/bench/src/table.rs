//! Plain-text table output for the figures.

use std::io::{self, Write};

/// A plain-text table. Rows are buffered; [`Table::finish`] writes the
/// header, a rule and every row, each cell right-aligned to the widest
/// cell of its column (at least 8). Dropping an unfinished table panics.
pub struct Table<'a> {
    out: &'a mut dyn Write,
    /// The header, then the data rows.
    rows: Vec<Vec<String>>,
}

impl<'a> Table<'a> {
    /// Starts a table with the given column headers.
    pub fn new(out: &'a mut dyn Write, headers: &[&str]) -> Self {
        let header = headers.iter().map(|h| h.to_string()).collect();
        Table {
            out,
            rows: vec![header],
        }
    }

    /// Buffers one data row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Writes the table.
    pub fn finish(mut self) -> io::Result<()> {
        let rows = std::mem::take(&mut self.rows);
        let mut widths: Vec<usize> = Vec::new();
        for row in &rows {
            widths.resize(widths.len().max(row.len()), 8);
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let (header, data) = rows.split_at(1);
        for row in header.iter().chain([&rule]).chain(data) {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            writeln!(self.out, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

/// Nothing is printed before [`Table::finish`], so a table dropped without
/// it would vanish from the output silently.
impl Drop for Table<'_> {
    fn drop(&mut self) {
        assert!(
            self.rows.is_empty() || std::thread::panicking(),
            "Table dropped without finish(): its rows were never written"
        );
    }
}

/// Formats a ratio as a percentage string, e.g. `0.8578 -> "85.78%"`.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Formats an improvement as a signed percentage, e.g. `0.61 -> "+61.0%"`.
pub fn signed_pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

/// Formats seconds as adaptive ms/s.
pub fn secs(x: f64) -> String {
    if x >= 1.0 {
        format!("{x:.2}s")
    } else {
        format!("{:.2}ms", x * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(pct(0.8578), "85.78%");
        assert_eq!(signed_pct(0.6109), "+61.1%");
        assert_eq!(secs(0.00123), "1.23ms");
        assert_eq!(secs(2.5), "2.50s");
    }

    #[test]
    fn table_right_aligns_to_widest_cell() {
        let mut buf = Vec::new();
        let mut t = Table::new(&mut buf, &["n", "C4/C1 (closed form)"]);
        t.row(&["6".into(), "85.78%".into()]);
        t.row(&["C2 sequence-opt only".into(), "-".into()]);
        t.finish().unwrap();
        let lines = [
            "                   n  C4/C1 (closed form)",
            "--------------------  -------------------",
            "                   6               85.78%",
            "C2 sequence-opt only                    -",
            "",
        ];
        assert_eq!(String::from_utf8(buf).unwrap(), lines.join("\n"));
    }

    #[test]
    #[should_panic(expected = "without finish()")]
    fn unfinished_table_panics() {
        let mut buf = Vec::new();
        let mut t = Table::new(&mut buf, &["n"]);
        t.row(&["6".into()]);
    }
}
