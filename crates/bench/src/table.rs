//! Minimal plain-text table rendering for experiment output.

/// A fixed-column text table with right-aligned numeric cells.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with a separator line under the header: the first column
    /// left-aligned, the rest right-aligned.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut cells = cells.iter().zip(&widths);
            let (first, w) = cells.next().expect("at least one column");
            let mut line = format!("{first:<w$}");
            for (c, w) in cells {
                line += &format!("  {c:>w$}");
            }
            line + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let mut out = line(&self.header) + &rule + "\n";
        for row in &self.rows {
            out += &line(row);
        }
        out
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["q", "calls", "time"]);
        t.row(vec!["Q1", "648", "1.2ms"]);
        t.row(vec!["Q10", "2", "900µs"]);
        let s = t.render();
        assert!(s.contains("Q1"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x", "y"]);
    }

    #[test]
    fn duration_units() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_duration(Duration::from_micros(1_500)), "1.5ms");
        assert_eq!(fmt_duration(Duration::from_millis(2_500)), "2.50s");
    }
}
