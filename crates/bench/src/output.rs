//! Output helpers: aligned text tables for the console and CSV files under
//! `results/` for plotting.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, &sep);
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Directory where experiment CSVs are written.
pub(crate) fn results_dir() -> PathBuf {
    let dir = std::env::var("DS2_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Writes rows as a CSV file under the results directory, creating it if
/// needed. Returns the file path.
pub(crate) fn write_csv(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Formats a rate in records/second compactly (e.g. `2.0M`, `500K`).
pub(crate) fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.0}K", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "long_header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     long_header"));
        assert!(lines[2].starts_with("x     1"));
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(2_000_000.0), "2.00M");
        assert_eq!(fmt_rate(500_000.0), "500K");
        assert_eq!(fmt_rate(42.0), "42");
    }

    #[test]
    fn csv_written() {
        std::env::set_var("DS2_RESULTS_DIR", "/tmp/ds2-test-results");
        let p = write_csv(
            "unit_test.csv",
            &["t", "v"],
            &[vec!["0".into(), "1".into()]],
        )
        .unwrap();
        assert!(p.exists());
        let content = std::fs::read_to_string(&p).unwrap();
        assert_eq!(content, "t,v\n0,1\n");
        std::env::remove_var("DS2_RESULTS_DIR");
    }
}
