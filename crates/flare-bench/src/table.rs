//! Minimal aligned-table printer for the figure modules.

/// Render rows of cells, one per header, as an aligned text table with a
/// header rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn line<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
        let padded = cells.iter().zip(widths);
        let padded = padded.map(|(cell, &w)| format!("{:>w$}", cell.as_ref()));
        padded.collect::<Vec<_>>().join("  ").trim_end().to_string() + "\n"
    }
    let width = |i: usize| {
        let cells = rows.iter().map(|row| row[i].chars().count());
        cells.fold(headers[i].chars().count(), usize::max)
    };
    let widths: Vec<usize> = (0..headers.len()).map(width).collect();
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    let body: String = rows.iter().map(|row| line(row, &widths)).collect();
    line(headers, &widths) + &rule + "\n" + &body
}

/// One column of a table of `R`s: its header, and a row's cell in it.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// Print one aligned line per row, one cell per column, under the column
/// headers, then a blank line.
pub fn print<R>(rows: impl IntoIterator<Item = R>, columns: &[Column<R>]) {
    let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let cells = |r: R| columns.iter().map(|c| (c.1)(&r)).collect();
    let rows: Vec<Vec<String>> = rows.into_iter().map(cells).collect();
    println!("{}", render(&headers, &rows));
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a byte count in MiB with 2 decimals.
pub fn mib(x: f64) -> String {
    format!("{:.2}", x / (1024.0 * 1024.0))
}

/// Format a byte count in KiB with 1 decimal.
pub fn kib(x: f64) -> String {
    format!("{:.1}", x / 1024.0)
}

/// Format a fraction as a whole percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let s = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn unit_formatters() {
        assert_eq!(f2(1.005), "1.00"); // rounds-to-even display is fine
        assert_eq!(mib(2.0 * 1024.0 * 1024.0), "2.00");
        assert_eq!(kib(1536.0), "1.5");
        assert_eq!(pct(0.1), "10%");
    }
}
