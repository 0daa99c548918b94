//! Experiment bookkeeping: result tables, CSV output, timing, and scale control.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A rectangular experiment-result table that can be printed to stdout and written as a
/// CSV file under `target/experiments/`.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    /// Experiment identifier (e.g. `"fig3a_sparsity"`).
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Create an empty table.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        ExperimentTable {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render the table as aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let width = widths.get(i).copied().unwrap_or(cell.len());
                let _ = write!(out, "{cell:>width$}  ");
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }

    /// Print the table (with its name as a heading) to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.name);
        print!("{}", self.to_text());
    }

    /// Render the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Write the table as `target/experiments/<name>.csv`, creating the directory if
    /// necessary. Returns the path written to.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target").join("experiments");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Print the table and write the CSV, logging the output path (errors are reported
    /// but not fatal, so figure binaries always show their numbers).
    pub fn print_and_save(&self) {
        self.print();
        match self.write_csv() {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => println!("[could not save CSV: {e}]"),
        }
    }
}

/// Wall-clock a closure, returning its result and the elapsed time.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Global experiment scale factor, read from the `FG_SCALE` environment variable
/// (default 1.0). Figure binaries multiply their node counts by this factor, so
/// `FG_SCALE=0.1 cargo run --bin fig3a_sparsity` gives a fast smoke run and
/// `FG_SCALE=1` the full-size reproduction.
pub fn scale_factor() -> f64 {
    std::env::var("FG_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Scale a node count by [`scale_factor`], keeping a sensible floor.
pub fn scaled_n(base: usize) -> usize {
    ((base as f64 * scale_factor()).round() as usize).max(200)
}

/// Logical cores visible to this process (1 if detection fails).
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Nearest-rank percentile (`p` in `[0, 100]`) over an ascending-sorted slice,
/// in milliseconds. Empty input reports zero.
pub fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    sorted[index].as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_text_and_csv_rendering() {
        let mut t = ExperimentTable::new("unit_test_table", &["f", "GS", "DCEr"]);
        t.push_row(vec!["0.01".into(), "0.85".into(), "0.84".into()]);
        t.push_row(vec!["0.10".into(), "0.90".into(), "0.90".into()]);
        let text = t.to_text();
        assert!(text.contains("DCEr"));
        assert!(text.contains("0.85"));
        let csv = t.to_csv();
        assert!(csv.starts_with("f,GS,DCEr\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_written_to_target() {
        let mut t = ExperimentTable::new("unit_test_write", &["a"]);
        t.push_row(vec!["1".into()]);
        let path = t.write_csv().unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn time_it_measures_something() {
        let (value, elapsed) = time_it(|| (0..10_000).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn scale_factor_defaults_to_one() {
        // Cannot assume the env var is unset in every environment, but the parsed value
        // must be positive.
        assert!(scale_factor() > 0.0);
        assert!(scaled_n(1000) >= 200);
    }

    #[test]
    fn detected_cores_is_at_least_one() {
        assert!(detected_cores() >= 1);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&sorted, 50.0), 50.0);
        assert_eq!(percentile_ms(&sorted, 95.0), 95.0);
        assert_eq!(percentile_ms(&sorted, 99.0), 99.0);
        assert_eq!(percentile_ms(&sorted, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        let single = [Duration::from_millis(7)];
        assert_eq!(percentile_ms(&single, 50.0), 7.0);
        assert_eq!(percentile_ms(&single, 99.0), 7.0);
    }
}
