//! Plain-text table output for the figures.

use std::io::{self, Write};

/// A simple fixed-width table printer: header once, then rows; every cell
/// is right-aligned to its column width.
pub struct Table<'a> {
    out: &'a mut dyn Write,
    widths: Vec<usize>,
}

impl<'a> Table<'a> {
    /// Writes the header and remembers column widths (at least the header
    /// width, at least 8).
    pub fn new(out: &'a mut dyn Write, headers: &[&str]) -> io::Result<Self> {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(8)).collect();
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let mut t = Table { out, widths };
        t.row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())?;
        t.row(&rule)?;
        Ok(t)
    }

    /// Writes one data row.
    pub fn row(&mut self, cells: &[String]) -> io::Result<()> {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = self.widths.get(i).copied().unwrap_or(8)))
            .collect();
        writeln!(self.out, "{}", line.join("  "))
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
    fn table_right_aligns_to_header_width() {
        let mut buf = Vec::new();
        let mut t = Table::new(&mut buf, &["n", "C4/C1 (closed form)"]).unwrap();
        t.row(&["6".into(), "85.78%".into()]).unwrap();
        let lines = [
            "       n  C4/C1 (closed form)",
            "--------  -------------------",
            "       6               85.78%",
            "",
        ];
        assert_eq!(String::from_utf8(buf).unwrap(), lines.join("\n"));
    }
}
