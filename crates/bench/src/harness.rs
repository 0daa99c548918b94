//! Experiment bookkeeping: result tables, CSV output and timing.

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
    /// Create an empty table with the columns of a comma-separated header line.
    pub fn new(name: &str, header: &str) -> Self {
        ExperimentTable {
            name: name.to_string(),
            headers: header.split(',').map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// The cells under `header`, parsed as numbers; a missing or non-numeric
    /// cell reads NaN, so every comparison against it fails.
    pub fn column(&self, header: &str) -> Vec<f64> {
        let index = self.headers.iter().position(|h| h == header);
        self.rows
            .iter()
            .map(|row| {
                index
                    .and_then(|i| row.get(i))
                    .and_then(|cell| cell.parse().ok())
                    .unwrap_or(f64::NAN)
            })
            .collect()
    }

    /// The number under `header` in the row whose first cell is `key` (NaN if
    /// there is none).
    pub fn get(&self, key: &str, header: &str) -> f64 {
        let row = self
            .rows
            .iter()
            .position(|row| row.first().is_some_and(|c| c == key));
        row.map_or(f64::NAN, |i| self.column(header)[i])
    }

    /// Render the table as CSV. A cell (or header) holding `,`, `"` or a line break
    /// is quoted, with inner `"` doubled (RFC 4180), so builder names such as
    /// `Knn(k=10,weighting=heat)` stay one field.
    pub fn to_csv(&self) -> String {
        let render_row = |cells: &[String]| {
            let fields: Vec<String> = cells
                .iter()
                .map(|cell| {
                    if cell.contains([',', '"', '\n', '\r']) {
                        format!("\"{}\"", cell.replace('"', "\"\""))
                    } else {
                        cell.clone()
                    }
                })
                .collect();
            fields.join(",") + "\n"
        };
        let mut out = render_row(&self.headers);
        for row in &self.rows {
            out.push_str(&render_row(row));
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

    /// Print the table (its name as a heading, then its CSV) and write the CSV,
    /// logging the output path (errors are reported but not fatal, so a run
    /// always shows its numbers).
    pub fn print_and_save(&self) {
        print!("\n== {} ==\n{}", self.name, self.to_csv());
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
        let mut t = ExperimentTable::new("unit_test_table", "f,GS,DCEr");
        t.push_row(vec!["0.01".into(), "0.85".into(), "0.84".into()]);
        t.push_row(vec!["0.10".into(), "0.90".into(), "0.90".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("f,GS,DCEr\n"));
        assert_eq!(csv.lines().count(), 3);

        // Cells and headers holding a comma, quote or line break are quoted
        // (RFC 4180), so every row keeps the header's field count.
        let mut quoted = ExperimentTable::new("unit_test_quoted", "builder,say \"hi\",n");
        quoted.push_row(vec![
            "Knn(k=10,weighting=heat)".into(),
            "a \"b\"".into(),
            "two\nlines".into(),
        ]);
        assert_eq!(
            quoted.to_csv(),
            "builder,\"say \"\"hi\"\"\",n\n\"Knn(k=10,weighting=heat)\",\"a \"\"b\"\"\",\"two\nlines\"\n"
        );
    }

    #[test]
    fn cells_read_back_as_numbers() {
        let mut t = ExperimentTable::new("unit_test_cells", "f,GS,DCEr");
        t.push_row(vec!["0.01".into(), "0.85".into(), "-".into()]);
        t.push_row(vec!["0.1".into(), "0.90".into(), "0.88".into()]);
        assert_eq!(t.column("GS"), vec![0.85, 0.90]);
        assert_eq!(t.get("0.1", "DCEr"), 0.88);
        assert!(t.get("0.01", "DCEr").is_nan());
        assert!(t.get("0.5", "GS").is_nan());
        assert!(t.column("nope").iter().all(|v| v.is_nan()));
    }

    #[test]
    fn csv_written_to_target() {
        let mut t = ExperimentTable::new("unit_test_write", "a");
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
