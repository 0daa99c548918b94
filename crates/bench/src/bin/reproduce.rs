//! Reproduce the paper's evaluation: run every figure row (or the row ids
//! given), print and save its tables, and end with one verdict per row.
//!
//! ```text
//! cargo run --release -p fg-bench --bin reproduce [ROW_ID ...]
//! ```
//!
//! Exits 1 when a claim fails that the deviation list does not name, or a
//! listed deviation holds; exits 2 on an unknown row id.

use fg_bench::figures::{judge, report, Verdict, DEVIATIONS, ROWS};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = ids
        .iter()
        .find(|id| ROWS.iter().all(|r| r.id != id.as_str()))
    {
        let known: Vec<&str> = ROWS.iter().map(|r| r.id).collect();
        eprintln!(
            "unknown row '{unknown}' (expected one of {})",
            known.join(", ")
        );
        std::process::exit(2);
    }
    let (mut verdicts, mut failed) = (String::new(), false);
    for row in ROWS
        .iter()
        .filter(|r| ids.is_empty() || ids.iter().any(|id| id == r.id))
    {
        println!("\n#### {}", row.id);
        match (row.run)() {
            Ok(tables) => {
                tables.iter().for_each(|t| t.print_and_save());
                let judged = judge(row, &tables, DEVIATIONS);
                failed |= judged.0 >= Verdict::Fail;
                verdicts += &report(row, &judged);
            }
            Err(e) => {
                failed = true;
                verdicts += &format!("{:<13}FAIL (the run failed: {e})\n", row.id);
            }
        }
    }
    print!("\n== verdicts ==\n{verdicts}");
    if failed {
        std::process::exit(1);
    }
}
