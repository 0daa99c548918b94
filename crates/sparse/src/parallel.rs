//! Thread-parallel execution layer for the sparse kernels.
//!
//! The paper's estimation algorithm stays `O(m·k·ℓmax)` precisely so it scales to
//! graphs with millions of edges; on such graphs the three hot kernels —
//! [`CsrMatrix::spmm_dense`], [`CsrMatrix::spmv`], and the Gustavson product
//! [`CsrMatrix::spmm`] — dominate the wall clock. This module parallelizes them with
//! hand-rolled [`std::thread::scope`] workers (the build environment has no crates.io
//! access, so no rayon): the output rows are split into disjoint contiguous ranges,
//! each thread runs the *same* per-row kernel the serial code uses on its own range,
//! and the per-range results are stitched back together in row order. Because no
//! thread ever reduces across a row boundary, no floating-point operation is
//! reordered: the parallel results are **bit-identical** to the serial ones.
//!
//! The thread count is chosen via [`Threads`] (`Serial | Fixed(n) | Auto`), which is
//! threaded through the propagation configs, `fg_core::Pipeline`, and the
//! `fg --threads N` CLI option.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use fg_obs::Span;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread policy for the parallel kernels.
///
/// The default is [`Threads::Serial`], which makes every kernel take the exact serial
/// code path (no thread is spawned), so existing callers are unaffected until they
/// opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Single-threaded: run the serial kernel on the calling thread.
    #[default]
    Serial,
    /// Use exactly `n` worker threads (values of 0 and 1 behave like `Serial`).
    Fixed(usize),
    /// Use one worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Threads {
    /// Resolve the policy to a concrete thread count (always at least 1).
    pub fn count(self) -> usize {
        match self {
            Threads::Serial => 1,
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// The number of workers to use for `rows` rows of output: the resolved count,
    /// capped so no worker is left without a row.
    pub fn count_for(self, rows: usize) -> usize {
        self.count().min(rows.max(1))
    }
}

impl std::str::FromStr for Threads {
    type Err = String;

    /// Parse a CLI-style spec: `serial`, `auto`, `0` (= auto), or a thread count.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Ok(Threads::Serial),
            "auto" | "0" => Ok(Threads::Auto),
            other => other
                .parse::<usize>()
                .map(|n| {
                    if n <= 1 {
                        Threads::Serial
                    } else {
                        Threads::Fixed(n)
                    }
                })
                .map_err(|_| format!("invalid thread spec '{s}' (expected serial, auto, or N)")),
        }
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Threads::Serial => write!(f, "serial"),
            Threads::Fixed(n) => write!(f, "{n}"),
            Threads::Auto => write!(f, "auto"),
        }
    }
}

/// Split `0..rows` into at most `parts` contiguous, non-empty ranges of near-equal
/// length (the first `rows % parts` ranges get one extra row).
pub fn partition_rows(rows: usize, parts: usize) -> Vec<Range<usize>> {
    if rows == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, rows);
    let base = rows / parts;
    let extra = rows % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Split the rows of a CSR matrix into at most `parts` contiguous, non-empty ranges of
/// near-equal *work* (stored entries, read off `indptr`). Rows with wildly uneven
/// degrees — the norm for power-law graphs — make equal-row splits badly unbalanced;
/// this keeps each worker's `nnz` share within one row of the ideal. When leading
/// rows carry no work, a range may absorb them and fewer than `parts` ranges come
/// back — callers size their worker pool from `ranges.len()`, not `parts`.
pub fn partition_rows_by_nnz(indptr: &[usize], parts: usize) -> Vec<Range<usize>> {
    let rows = indptr.len().saturating_sub(1);
    if rows == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, rows);
    let total = indptr[rows];
    if total == 0 {
        return partition_rows(rows, parts);
    }
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        if start == rows {
            break;
        }
        // Advance until this range holds its proportional share of the entries.
        let target = (total as u128 * (p as u128 + 1) / parts as u128) as usize;
        let mut end = start + 1;
        while end < rows && indptr[end] < target {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    if start < rows {
        // Give any leftover rows to the last range.
        let last = ranges.last_mut().expect("parts >= 1");
        last.end = rows;
    }
    ranges
}

/// Run `f` over disjoint row-chunks of `out` on one scoped thread per range.
///
/// `ranges` must be a contiguous partition of `0..out.len() / row_width` starting at 0
/// (what the partitioners above produce); chunk `i` of `out` holds rows
/// `ranges[i].start..ranges[i].end`, each `row_width` values wide. With a single range
/// `f` runs inline on the calling thread — no thread is spawned. Returns the per-range
/// results in range order.
pub fn map_row_chunks<R, F>(
    out: &mut [f64],
    row_width: usize,
    ranges: &[Range<usize>],
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>, &mut [f64]) -> R + Sync,
{
    debug_assert!(
        ranges.is_empty()
            || (ranges[0].start == 0 && ranges.last().unwrap().end * row_width == out.len()),
        "ranges must be a contiguous partition of the output rows"
    );
    if ranges.len() <= 1 {
        return ranges
            .iter()
            .map(|r| f(r.clone(), &mut out[r.start * row_width..r.end * row_width]))
            .collect();
    }
    // Spawn workers for all ranges but the last, which runs inline on the calling
    // thread (otherwise the caller would park in `scope` doing nothing): N-way
    // parallelism costs N - 1 spawns.
    let (last, head) = ranges.split_last().expect("ranges checked non-empty above");
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(head.len());
        let mut rest = out;
        for r in head {
            let (chunk, tail) = rest.split_at_mut((r.end - r.start) * row_width);
            rest = tail;
            let worker = &f;
            handles.push(scope.spawn(move || worker(r.clone(), chunk)));
        }
        let last_result = f(last.clone(), rest);
        let mut results: Vec<R> = handles
            .into_iter()
            .map(|h| h.join().expect("parallel kernel worker panicked"))
            .collect();
        results.push(last_result);
        results
    })
}

/// Distribute `cell_count` independent cells across scoped worker threads via a
/// shared atomic work queue, reassembling the per-cell results in their original
/// order. Each cell must be derivable from its index alone, so the output is
/// identical to a serial `(0..cell_count).map(run_cell)` loop regardless of which
/// worker picks up which cell; the first error (in worker-join order) aborts the
/// whole call. Cells are *started* in index order — the queue is a single atomic
/// counter — which callers with cross-cell ordering constraints (e.g. the manifest
/// runner's first-entry-computes rule) build on. With one worker the loop runs
/// inline on the calling thread.
pub fn run_ordered_cells<T, E, F>(
    cell_count: usize,
    threads: Threads,
    run_cell: F,
) -> std::result::Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> std::result::Result<T, E> + Sync,
{
    let workers = threads.count_for(cell_count);
    if workers <= 1 {
        return (0..cell_count).map(run_cell).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<std::result::Result<Vec<(usize, T)>, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cell_count {
                            break;
                        }
                        local.push((i, run_cell(i)?));
                    }
                    Ok(local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..cell_count).map(|_| None).collect();
    for worker in per_worker {
        for (i, outcome) in worker? {
            slots[i] = Some(outcome);
        }
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every cell is computed exactly once"))
        .collect())
}

impl CsrMatrix {
    /// [`CsrMatrix::spmm_dense`] under a [`Threads`] policy. Bit-identical to the
    /// serial kernel: each worker owns a disjoint row range of the output, so no
    /// floating-point accumulation is reordered.
    pub fn spmm_dense_with(&self, dense: &DenseMatrix, threads: Threads) -> Result<DenseMatrix> {
        if self.cols() != dense.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "csr * dense",
                left: self.shape(),
                right: dense.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows(), dense.cols());
        self.spmm_dense_run(dense, threads, &mut out);
        Ok(out)
    }

    /// [`CsrMatrix::spmm_dense_with`] writing into a caller-owned output buffer of
    /// shape `(self.rows(), dense.cols())`. Every output value is overwritten —
    /// `out` needs no zeroing, so a loop like the path-count recurrence can reuse
    /// the same buffers across iterations with zero per-iteration allocations.
    pub fn spmm_dense_into(
        &self,
        dense: &DenseMatrix,
        threads: Threads,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        if self.cols() != dense.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "csr * dense",
                left: self.shape(),
                right: dense.shape(),
            });
        }
        if out.shape() != (self.rows(), dense.cols()) {
            return Err(SparseError::DimensionMismatch {
                op: "csr * dense (into)",
                left: (self.rows(), dense.cols()),
                right: out.shape(),
            });
        }
        self.spmm_dense_run(dense, threads, out);
        Ok(())
    }

    /// Shared driver behind the dense-RHS SpMM entry points: split the output rows
    /// across workers by nnz, then run the (overwriting) row kernel per range.
    /// Dimensions are already checked.
    fn spmm_dense_run(&self, dense: &DenseMatrix, threads: Threads, out: &mut DenseMatrix) {
        let k = dense.cols();
        let workers = threads.count_for(self.rows());
        let _span = Span::enter_with(
            "spmm",
            &[
                ("rows", self.rows() as u64),
                ("nnz", self.nnz() as u64),
                ("k", k as u64),
                ("workers", workers as u64),
            ],
        );
        let ranges = if workers <= 1 {
            if self.rows() == 0 {
                Vec::new()
            } else {
                #[allow(clippy::single_range_in_vec_init)]
                {
                    vec![0..self.rows()]
                }
            }
        } else {
            partition_rows_by_nnz(self.indptr(), workers)
        };
        map_row_chunks(out.data_mut(), k, &ranges, |rows, chunk| {
            let indptr = self.indptr();
            let _chunk_span = Span::enter_with(
                "spmm_chunk",
                &[
                    ("rows", rows.len() as u64),
                    ("nnz", (indptr[rows.end] - indptr[rows.start]) as u64),
                ],
            );
            self.spmm_dense_rows_into(dense, rows, chunk);
        });
    }

    /// [`CsrMatrix::spmv`] under a [`Threads`] policy. Bit-identical to the serial
    /// kernel (each output entry is produced by exactly one worker, with the serial
    /// summation order).
    pub fn spmv_with(&self, v: &[f64], threads: Threads) -> Result<Vec<f64>> {
        let workers = threads.count_for(self.rows());
        if workers <= 1 {
            return self.spmv(v);
        }
        if v.len() != self.cols() {
            return Err(SparseError::DimensionMismatch {
                op: "csr * vector",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows()];
        let ranges = partition_rows_by_nnz(self.indptr(), workers);
        map_row_chunks(&mut out, 1, &ranges, |rows, chunk| {
            self.spmv_rows_into(v, rows, chunk)
        });
        Ok(out)
    }

    /// [`CsrMatrix::spmm`] (Gustavson) under a [`Threads`] policy. Each worker runs
    /// the serial per-row kernel on its own row range with its own dense accumulator;
    /// the per-range outputs concatenate in row order into exactly the serial result.
    pub fn spmm_with(&self, other: &CsrMatrix, threads: Threads) -> Result<CsrMatrix> {
        let workers = threads.count_for(self.rows());
        if workers <= 1 {
            return self.spmm(other);
        }
        if self.cols() != other.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "csr * csr",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let ranges = partition_rows_by_nnz(self.indptr(), workers);
        if ranges.len() <= 1 {
            return self.spmm(other);
        }
        // As in `map_row_chunks`: the last range runs inline on the calling thread.
        let (last, head) = ranges.split_last().expect("at least two ranges");
        let parts: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = head
                .iter()
                .cloned()
                .map(|rows| scope.spawn(move || self.spmm_rows(other, rows)))
                .collect();
            let last_part = self.spmm_rows(other, last.clone());
            let mut parts: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("parallel spmm worker panicked"))
                .collect();
            parts.push(last_part);
            parts
        });
        let total: usize = parts.iter().map(|(_, idx, _)| idx.len()).sum();
        let mut indptr = Vec::with_capacity(self.rows() + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        for (row_lens, part_indices, part_values) in parts {
            for len in row_lens {
                indptr.push(indptr.last().unwrap() + len);
            }
            indices.extend(part_indices);
            values.extend(part_values);
        }
        Ok(CsrMatrix::from_parts(
            self.rows(),
            other.cols(),
            indptr,
            indices,
            values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A seeded sparse random matrix with uneven row lengths.
    fn random_csr(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for r in 0..rows {
            // Skewed degrees: some rows dense, some empty.
            let nnz = if r % 7 == 0 { 0 } else { 1 + rng.gen_index(8) };
            for _ in 0..nnz {
                let c = rng.gen_index(cols);
                triplets.push((r, c, 4.0 * rng.gen::<f64>() - 2.0));
            }
        }
        CsrMatrix::from_triplets(rows, cols, &triplets)
    }

    fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| 2.0 * rng.gen::<f64>() - 1.0)
            .collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn threads_resolution_and_parsing() {
        assert_eq!(Threads::Serial.count(), 1);
        assert_eq!(Threads::Fixed(0).count(), 1);
        assert_eq!(Threads::Fixed(4).count(), 4);
        assert!(Threads::Auto.count() >= 1);
        assert_eq!(Threads::Fixed(8).count_for(3), 3);
        assert_eq!(Threads::Fixed(8).count_for(0), 1);
        assert_eq!("serial".parse::<Threads>().unwrap(), Threads::Serial);
        assert_eq!("1".parse::<Threads>().unwrap(), Threads::Serial);
        assert_eq!("auto".parse::<Threads>().unwrap(), Threads::Auto);
        assert_eq!("0".parse::<Threads>().unwrap(), Threads::Auto);
        assert_eq!("4".parse::<Threads>().unwrap(), Threads::Fixed(4));
        assert!("bogus".parse::<Threads>().is_err());
        assert_eq!(Threads::default(), Threads::Serial);
        assert_eq!(Threads::Fixed(3).to_string(), "3");
        assert_eq!(Threads::Auto.to_string(), "auto");
    }

    #[test]
    fn partition_rows_covers_everything() {
        for (rows, parts) in [(10, 3), (4, 4), (5, 8), (1, 1), (100, 7)] {
            let ranges = partition_rows(rows, parts);
            assert!(ranges.len() <= parts);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, rows);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(!w[0].is_empty() && !w[1].is_empty());
            }
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        }
        assert!(partition_rows(0, 4).is_empty());
    }

    #[test]
    fn partition_by_nnz_balances_work() {
        let m = random_csr(200, 50, 11);
        for parts in [1, 2, 3, 4, 7] {
            let ranges = partition_rows_by_nnz(m.indptr(), parts);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, m.rows());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            for r in &ranges {
                assert!(!r.is_empty());
            }
            // Every range's nnz share is within one max-degree row of the ideal.
            let max_row = (0..m.rows()).map(|i| m.row_nnz(i)).max().unwrap();
            let ideal = m.nnz() / parts;
            for r in &ranges {
                let work: usize = r.clone().map(|i| m.row_nnz(i)).sum();
                assert!(work <= ideal + max_row, "work {work} vs ideal {ideal}");
            }
        }
        // Degenerate inputs.
        assert!(partition_rows_by_nnz(&[0], 4).is_empty());
        assert_eq!(partition_rows_by_nnz(&[0, 0, 0], 2).len(), 2);
        // More parts than rows still yields a full, non-empty cover (possibly fewer
        // ranges than rows when some rows carry no work).
        let tiny = random_csr(3, 5, 2);
        let ranges = partition_rows_by_nnz(tiny.indptr(), 16);
        assert!(!ranges.is_empty() && ranges.len() <= 3);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 3);
    }

    #[test]
    fn parallel_spmm_dense_is_bit_identical() {
        let m = random_csr(301, 97, 5);
        let x = random_dense(97, 4, 6);
        let serial = m.spmm_dense(&x).unwrap();
        for threads in [
            Threads::Serial,
            Threads::Fixed(2),
            Threads::Fixed(4),
            Threads::Auto,
        ] {
            let parallel = m.spmm_dense_with(&x, threads).unwrap();
            assert_eq!(serial.data(), parallel.data(), "{threads:?}");
        }
        assert!(m
            .spmm_dense_with(&DenseMatrix::zeros(5, 2), Threads::Fixed(4))
            .is_err());
    }

    #[test]
    fn parallel_spmv_is_bit_identical() {
        let m = random_csr(257, 64, 7);
        let v = random_dense(1, 64, 8).data().to_vec();
        let serial = m.spmv(&v).unwrap();
        for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
            assert_eq!(serial, m.spmv_with(&v, threads).unwrap(), "{threads:?}");
        }
        assert!(m.spmv_with(&[1.0], Threads::Fixed(4)).is_err());
    }

    #[test]
    fn parallel_spmm_is_bit_identical() {
        let a = random_csr(120, 80, 9);
        let b = random_csr(80, 60, 10);
        let serial = a.spmm(&b).unwrap();
        for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
            let parallel = a.spmm_with(&b, threads).unwrap();
            assert_eq!(serial.indptr(), parallel.indptr(), "{threads:?}");
            assert_eq!(serial.indices(), parallel.indices(), "{threads:?}");
            assert_eq!(serial.values(), parallel.values(), "{threads:?}");
        }
        assert!(a.spmm_with(&a, Threads::Fixed(2)).is_err());
    }

    #[test]
    fn parallel_kernels_handle_empty_and_tiny_matrices() {
        let empty = CsrMatrix::zeros(0, 0);
        assert_eq!(
            empty
                .spmm_dense_with(&DenseMatrix::zeros(0, 3), Threads::Fixed(4))
                .unwrap()
                .shape(),
            (0, 3)
        );
        let one = CsrMatrix::identity(1);
        assert_eq!(one.spmv_with(&[2.0], Threads::Fixed(8)).unwrap(), vec![2.0]);
        let all_zero = CsrMatrix::zeros(6, 6);
        let x = random_dense(6, 2, 3);
        assert_eq!(
            all_zero
                .spmm_dense_with(&x, Threads::Fixed(3))
                .unwrap()
                .data(),
            all_zero.spmm_dense(&x).unwrap().data()
        );
    }

    /// A hub-heavy (power-law-ish) matrix: a few rows hold a large share of the
    /// entries, most rows hold 1–3, and every 11th row is empty.
    fn hub_heavy_csr(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for r in 0..rows {
            let nnz = if r % 97 == 0 {
                cols / 2
            } else if r % 11 == 0 {
                0
            } else {
                1 + rng.gen_index(3)
            };
            for _ in 0..nnz {
                triplets.push((r, rng.gen_index(cols), 2.0 * rng.gen::<f64>() - 1.0));
            }
        }
        CsrMatrix::from_triplets(rows, cols, &triplets)
    }

    /// The blocked / monomorphized SpMM (k ≤ 8 takes a fixed-size-accumulator fast
    /// path, larger k the generic column-blocked loop) must be bit-identical to the
    /// scalar reference kernel for every k, thread count, and degree profile —
    /// including hub rows and empty rows.
    #[test]
    fn blocked_spmm_matches_reference_across_k_and_threads() {
        let matrices = [random_csr(301, 97, 5), hub_heavy_csr(500, 97, 13)];
        for m in &matrices {
            // Covers every dispatch arm: monomorphized (k ≤ 8), single-pass
            // streaming (9..=64), and the column-blocked fallback (k > 64).
            for k in [1usize, 2, 3, 5, 8, 17, 70] {
                let x = random_dense(m.cols(), k, 40 + k as u64);
                let reference = m.spmm_dense_reference(&x).unwrap();
                assert_eq!(
                    reference.data(),
                    m.spmm_dense(&x).unwrap().data(),
                    "serial blocked kernel diverged at k={k}"
                );
                for threads in [
                    Threads::Serial,
                    Threads::Fixed(2),
                    Threads::Fixed(4),
                    Threads::Auto,
                ] {
                    assert_eq!(
                        reference.data(),
                        m.spmm_dense_with(&x, threads).unwrap().data(),
                        "k={k} {threads:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn spmm_dense_into_overwrites_reused_buffers() {
        let m = random_csr(157, 60, 17);
        let x = random_dense(60, 4, 18);
        let expected = m.spmm_dense(&x).unwrap();
        // A dirty buffer must be fully overwritten, at any thread count.
        for threads in [Threads::Serial, Threads::Fixed(3)] {
            let mut out = DenseMatrix::filled(157, 4, f64::NAN);
            m.spmm_dense_into(&x, threads, &mut out).unwrap();
            assert_eq!(expected.data(), out.data(), "{threads:?}");
        }
        // Shape mismatches on either operand are rejected.
        let mut wrong = DenseMatrix::zeros(10, 4);
        assert!(m.spmm_dense_into(&x, Threads::Serial, &mut wrong).is_err());
        let mut out = DenseMatrix::zeros(157, 4);
        assert!(m
            .spmm_dense_into(&DenseMatrix::zeros(3, 4), Threads::Serial, &mut out)
            .is_err());
    }

    #[test]
    fn map_row_chunks_runs_inline_for_single_range() {
        let mut out = vec![0.0; 8];
        let caller = std::thread::current().id();
        let single_range = partition_rows(4, 1);
        let ids = map_row_chunks(&mut out, 2, &single_range, |_, chunk| {
            chunk.fill(1.0);
            std::thread::current().id()
        });
        assert_eq!(ids, vec![caller]);
        assert_eq!(out, vec![1.0; 8]);
    }
}
