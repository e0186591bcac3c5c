//! Aligned text tables for experiment output.

use std::fmt::Write as _;
use std::time::Duration;

/// A simple column-aligned table: first column left-aligned, the rest
/// right-aligned (the layout of every table in EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                if i == 0 {
                    out.push_str(cell);
                    out.push_str(&" ".repeat(pad));
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Format a duration compactly (`1.23µs`, `45.6ms`, `2.00s`).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Format a rate (`12.3k/s`, `1.20M/s`).
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2}M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1}k/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1}/s")
    }
}

/// Format a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["engine", "tput", "p99"]);
        t.row(["vc+2pl", "12.3k/s", "800µs"]);
        t.row(["reed-mvto", "9.1k/s", "1.2ms"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("engine"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // right-aligned numeric columns: both data rows end aligned
        assert!(lines[2].ends_with("800µs"));
        assert!(lines[3].ends_with("1.2ms"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_nanos(1230)), "1.23µs");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn rate_formats() {
        assert_eq!(fmt_rate(12.0), "12.0/s");
        assert_eq!(fmt_rate(12_300.0), "12.3k/s");
        assert_eq!(fmt_rate(1_200_000.0), "1.20M/s");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(fmt_pct(0.123), "12.3%");
        assert_eq!(fmt_pct(0.0), "0.0%");
    }
}
