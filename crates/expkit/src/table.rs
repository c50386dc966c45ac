//! Minimal table rendering for harness output: GitHub markdown.

/// A rectangular table of strings with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row; must match the header width.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width must match headers");
        self.rows.push(row);
    }

    /// Render as a GitHub-flavoured markdown table with aligned columns.
    pub fn to_markdown(&self) -> String {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| self.rows.iter().map(|r| r[i].len()).chain([h.len()]).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body: Vec<String> =
                cells.iter().zip(widths).map(|(c, &w)| format!("{c:<w$}")).collect();
            format!("| {} |\n", body.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format seconds adaptively (`1.23 s`, `45.6 ms`, `789 µs`).
pub fn fmt_duration_s(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} µs", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_layout() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.add_row(vec!["1", "2"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | long-header |\n"));
        assert!(md.contains("| - | ----------- |"));
        assert!(md.contains("| 1 | 2           |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["only-one"]);
        t.add_row(vec!["a", "b"]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_s(2.5), "2.50 s");
        assert_eq!(fmt_duration_s(0.0456), "45.60 ms");
        assert_eq!(fmt_duration_s(0.000789), "789.0 µs");
    }
}
