//! Exhibit formatting: every experiment runner returns an [`Exhibit`]
//! (series of (x, y) points plus notes), printed as aligned text tables so
//! `cargo run -p octo-core --bin figures` regenerates the paper's rows.

/// One line/curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub(crate) label: String,
    /// (x, y) points in x order.
    pub(crate) points: Vec<(f64, f64)>,
}

impl Series {
    /// Build a series.
    pub(crate) fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// y value at a given x (exact match), if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-12)
            .map(|(_, y)| *y)
    }
}

/// One table or figure of the paper, regenerated.
#[derive(Debug, Clone)]
pub struct Exhibit {
    /// Paper exhibit id ("fig4a", "table2", ...).
    pub id: String,
    /// Title as printed.
    pub(crate) title: String,
    /// x-axis label.
    pub(crate) xlabel: String,
    /// y-axis label.
    pub(crate) ylabel: String,
    /// The curves.
    pub(crate) series: Vec<Series>,
    /// Comparison notes (paper claim vs our measurement).
    pub(crate) notes: Vec<String>,
}

impl Exhibit {
    /// New empty exhibit.
    pub(crate) fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        xlabel: impl Into<String>,
        ylabel: impl Into<String>,
    ) -> Self {
        Exhibit {
            id: id.into(),
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a series.
    pub(crate) fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Append a note.
    pub(crate) fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Find a series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render the exhibit as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        // Collect all x values in order.
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let label_w = self
            .series
            .iter()
            .map(|s| s.label.len())
            .chain([self.xlabel.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = write!(out, "{:>label_w$}", self.xlabel);
        for x in &xs {
            let _ = write!(out, " {:>12}", trim_num(*x));
        }
        let _ = writeln!(out);
        for s in &self.series {
            let _ = write!(out, "{:>label_w$}", s.label);
            for x in &xs {
                match s.y_at(*x) {
                    Some(y) => {
                        let _ = write!(out, " {:>12}", format_sig(y));
                    }
                    None => {
                        let _ = write!(out, " {:>12}", "—");
                    }
                }
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "  [y: {}]", self.ylabel);
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

fn trim_num(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 && x.abs() < 1e9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.3}")
    }
}

/// Format with 4 significant digits and engineering suffixes.
pub(crate) fn format_sig(y: f64) -> String {
    let a = y.abs();
    if a == 0.0 {
        return "0".into();
    }
    if a >= 1e12 {
        format!("{:.3}T", y / 1e12)
    } else if a >= 1e9 {
        format!("{:.3}G", y / 1e9)
    } else if a >= 1e6 {
        format!("{:.3}M", y / 1e6)
    } else if a >= 1e3 {
        format!("{:.3}k", y / 1e3)
    } else if a >= 1.0 {
        format!("{y:.3}")
    } else {
        format!("{y:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let s = Series::new("a", vec![(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
    }

    #[test]
    fn render_contains_everything() {
        let mut e = Exhibit::new("figX", "demo", "cores", "FLOP/s");
        e.push_series(Series::new("riscv", vec![(1.0, 1.5e8), (2.0, 3.0e8)]));
        e.push_series(Series::new("amd", vec![(1.0, 3.0e9)]));
        e.note("paper: shape only");
        let r = e.render();
        assert!(r.contains("figX"));
        assert!(r.contains("riscv"));
        assert!(r.contains("150.000M"));
        assert!(r.contains("3.000G"));
        assert!(r.contains("—"), "missing point placeholder");
        assert!(r.contains("note: paper"));
    }

    #[test]
    fn format_sig_ranges() {
        assert_eq!(format_sig(0.0), "0");
        assert_eq!(format_sig(1234.0), "1.234k");
        assert_eq!(format_sig(2.5e9), "2.500G");
        assert_eq!(format_sig(5e12), "5.000T");
        assert_eq!(format_sig(0.25), "0.25000");
    }

    #[test]
    fn series_by_label_finds() {
        let mut e = Exhibit::new("t", "t", "x", "y");
        e.push_series(Series::new("one", vec![]));
        assert!(e.series_by_label("one").is_some());
        assert!(e.series_by_label("two").is_none());
    }
}
