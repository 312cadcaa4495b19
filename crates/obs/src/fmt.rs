//! Shared formatting helpers so every example reports through one
//! consistent, greppable style: `section(...)` banners, `key = value`
//! lines, and simple aligned tables.

use crate::metrics::MetricsSnapshot;
use crate::trace::SpanSummary;
use std::fmt::Display;

/// Section banner: `── title ──`.
pub fn section(title: &str) -> String {
    format!("── {title} ──")
}

/// A greppable `key = value` line.
pub fn kv(key: &str, value: impl Display) -> String {
    format!("  {key:<28} = {value}")
}

/// A minimal column-aligned table: first column left-aligned, the rest
/// right-aligned, widths computed from content.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<D: Display>(&mut self, cells: &[D]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        render_line(&mut out, &self.headers, &widths);
        for row in &self.rows {
            render_line(&mut out, row, &widths);
        }
        out.pop(); // trailing newline
        out
    }
}

fn render_line(out: &mut String, cells: &[String], widths: &[usize]) {
    for (i, width) in widths.iter().enumerate() {
        let cell = cells.get(i).map(String::as_str).unwrap_or("");
        if i == 0 {
            out.push_str(&format!("  {cell:<width$}"));
        } else if i + 1 == widths.len() {
            // Last column flows free so flag lists don't get padded.
            out.push_str(&format!("  {cell}"));
        } else {
            out.push_str(&format!("  {cell:>width$}"));
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out.push('\n');
}

/// Render every counter (and gauge) in a snapshot as `key = value` lines.
pub fn counter_lines(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut lines: Vec<String> = snapshot.counters.iter().map(|(k, v)| kv(k, v)).collect();
    lines.extend(
        snapshot
            .gauges
            .iter()
            .map(|(k, v)| kv(k, format!("{v:.2}"))),
    );
    lines
}

/// Render span summaries as an aligned table.
pub fn span_table(summaries: &[SpanSummary]) -> String {
    let mut t = Table::new(&["span", "count", "total ms", "mean µs", "max µs"]);
    for s in summaries {
        t.row(&[
            s.name.clone(),
            s.count.to_string(),
            format!("{:.2}", s.total_s * 1e3),
            format!("{:.1}", s.mean_s * 1e6),
            format!("{:.1}", s.max_s * 1e6),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["node", "trust", "flags"]);
        t.row(&["open-field", "87", "-"]);
        t.row(&["indoor-basement", "12", "low snr; few msgs"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        let col = |line: &str, word: &str| line.find(word).unwrap();
        // Right-aligned numeric column lines up on its last character.
        assert_eq!(
            col(lines[1], "87") + 2,
            col(lines[2], "12") + 2,
            "trust column aligned"
        );
        assert!(lines[2].starts_with("  indoor-basement"));
    }

    #[test]
    fn kv_lines_are_greppable() {
        assert_eq!(
            kv("wire.attempts", 30),
            format!("  {:<28} = 30", "wire.attempts")
        );
    }
}
