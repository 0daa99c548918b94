//! Compressed sparse row (CSR) matrices.
//!
//! The adjacency matrix `W` of the input graph is the only large object in the whole
//! pipeline. Every kernel that touches it is written so intermediate results stay
//! `n x k` dense (never `n x n`): this is the "factorized" evaluation order the paper
//! relies on for scalability (Section 4.6, footnote 5).
//!
//! # Layout
//!
//! Column indices are stored as `u32` (so neither dimension may exceed
//! [`MAX_DIM`]), and the value array is kept only when some stored value is not
//! exactly `1.0`. An unweighted graph — every graph `fg generate` and binary kNN
//! produce — therefore costs 4 bytes per stored entry, a weighted one 12
//! ([`CsrMatrix::entry_bytes`]). The layout is canonical: every constructor and
//! every operation that yields a matrix picks it from the data, so two matrices
//! with equal entries are equal, whichever way they were built. Kernels are
//! generic over the two layouts; the unit one adds `x` where the weighted one adds
//! `w·x`, which is bit-identical for `w = 1.0`.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use std::ops::Range;

/// Largest row or column count of a [`CsrMatrix`]: indices are stored as `u32`.
pub const MAX_DIM: usize = u32::MAX as usize;

/// One undirected edge as CSR assembly reads it: two endpoints and a weight, `1.0`
/// for an unweighted pair.
pub trait Edge: Copy {
    /// The two endpoints.
    fn endpoints(self) -> (usize, usize);
    /// The weight.
    fn weight(self) -> f64;
}

/// [`Edge`] for pairs (weight 1.0) and weighted triples of one index type.
macro_rules! impl_edge {
    ($($index:ty),*) => {$(
        impl Edge for ($index, $index) {
            #[inline]
            fn endpoints(self) -> (usize, usize) {
                (self.0 as usize, self.1 as usize)
            }
            #[inline]
            fn weight(self) -> f64 {
                1.0
            }
        }

        impl Edge for ($index, $index, f64) {
            #[inline]
            fn endpoints(self) -> (usize, usize) {
                (self.0 as usize, self.1 as usize)
            }
            #[inline]
            fn weight(self) -> f64 {
                self.2
            }
        }
    )*};
}

impl_edge!(usize, u32);

/// A sequence of `(row, col, value)` entries that can be walked more than once.
trait Entries {
    fn for_each(&self, f: impl FnMut(usize, usize, f64));
}

/// Entries given as triplets.
struct Triplets<'a>(&'a [(usize, usize, f64)]);

impl Entries for Triplets<'_> {
    fn for_each(&self, mut f: impl FnMut(usize, usize, f64)) {
        for &(r, c, v) in self.0 {
            f(r, c, v);
        }
    }
}

/// Undirected edges: `(u, v, w)` and `(v, u, w)`, a self-loop once.
struct UndirectedEdges<'a, E>(&'a [E]);

impl<E: Edge> Entries for UndirectedEdges<'_, E> {
    fn for_each(&self, mut f: impl FnMut(usize, usize, f64)) {
        for &e in self.0 {
            let ((u, v), w) = (e.endpoints(), e.weight());
            f(u, v, w);
            if u != v {
                f(v, u, w);
            }
        }
    }
}

/// Widest column block of the register-blocked SpMM kernel for `k > 8`: sixteen
/// f64 accumulators fill eight of the sixteen SSE2 registers every x86-64 target
/// has, and the row's indices and values are re-read once per block.
const SPMM_WIDE_BLOCK: usize = 16;

/// Panics unless both dimensions fit the `u32` indices.
fn check_dims(rows: usize, cols: usize) {
    assert!(
        rows <= MAX_DIM && cols <= MAX_DIM,
        "a {rows}x{cols} matrix exceeds the largest CSR dimension {MAX_DIM}"
    );
}

/// The canonical value array: none when every value is exactly 1.0.
fn canonical(values: Vec<f64>) -> Option<Vec<f64>> {
    values.iter().any(|&v| v != 1.0).then_some(values)
}

/// The stored values of a row range as the kernels read them: [`Unit`] or an
/// explicit slice. Monomorphizing the kernels over it keeps the unit layout free
/// of the multiply.
trait Weights: Copy {
    /// The weights of the stored entries in `range`.
    fn range(self, range: Range<usize>) -> Self;
    /// `w · x` for the `p`-th entry.
    fn times(self, p: usize, x: f64) -> f64;
}

/// Every stored value is 1.0.
#[derive(Clone, Copy)]
struct Unit;

impl Weights for Unit {
    #[inline(always)]
    fn range(self, _: Range<usize>) -> Self {
        Unit
    }
    #[inline(always)]
    fn times(self, _: usize, x: f64) -> f64 {
        x
    }
}

impl Weights for &[f64] {
    #[inline(always)]
    fn range(self, range: Range<usize>) -> Self {
        &self[range]
    }
    #[inline(always)]
    fn times(self, p: usize, x: f64) -> f64 {
        self[p] * x
    }
}

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<u32>,
    /// Non-zero values aligned with `indices`; `None` when every one is 1.0.
    values: Option<Vec<f64>>,
}

impl CsrMatrix {
    /// Create an empty (all-zero) matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        check_dims(rows, cols);
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: None,
        }
    }

    /// Create the `n x n` identity.
    pub fn identity(n: usize) -> Self {
        check_dims(n, n);
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: None,
        }
    }

    /// Create a diagonal matrix from a vector of diagonal entries.
    /// Zero diagonal entries are not stored (they are dropped, not kept as explicit
    /// zeros), so `nnz()` counts only the non-zero diagonal values.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        check_dims(n, n);
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for (i, &d) in diag.iter().enumerate() {
            if d != 0.0 {
                indices.push(i as u32);
                values.push(d);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values: canonical(values),
        }
    }

    /// Build from (possibly duplicated, unsorted) triplets, summing duplicates in
    /// input order and dropping entries that sum to exactly zero.
    ///
    /// Panics if a row index is not below `rows` or a column index not below `cols`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        Self::from_entries(rows, cols, Triplets(triplets))
    }

    /// Build the symmetric `n x n` matrix holding `(u, v, w)` and `(v, u, w)` for
    /// every undirected edge (a self-loop `u == v` is stored once). Duplicate edges
    /// sum in input order and entries that sum to exactly zero are dropped, as in
    /// [`CsrMatrix::from_triplets`] on the doubled triplet list, without building
    /// that list. Unweighted pairs `(u, v)` weigh 1.0. Panics if an endpoint is not
    /// smaller than `n`.
    pub fn from_undirected_edges<E: Edge>(n: usize, edges: &[E]) -> Self {
        Self::from_entries(n, n, UndirectedEdges(edges))
    }

    /// The one CSR assembly: a counting pass, a prefix sum, a scatter into row
    /// buckets (each bucket keeps input order), then an in-place compaction. A row
    /// whose columns are already strictly increasing with no zero value is kept as
    /// is; any other row is stably sorted by column, its duplicates summed in input
    /// order and its zero sums dropped.
    ///
    /// When every entry is 1.0 no value array is scattered; it is materialized
    /// (as ones) only if some row turns out to hold duplicates, whose sums are not
    /// 1.0. A value array left holding only ones is dropped at the end.
    fn from_entries(rows: usize, cols: usize, entries: impl Entries) -> Self {
        check_dims(rows, cols);
        // `indptr[r + 1]` counts row `r`; the exclusive prefix sum then makes
        // `indptr[r]` row `r`'s scatter cursor, which the scatter advances to the
        // row's end. Shifting by one afterwards restores the bucket bounds.
        let mut indptr = vec![0usize; rows + 1];
        let mut unit = true;
        entries.for_each(|r, c, v| {
            assert!(
                r < rows && c < cols,
                "entry ({r}, {c}) out of bounds for a {rows}x{cols} matrix"
            );
            indptr[r + 1] += 1;
            unit &= v == 1.0;
        });
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        let nnz = indptr[rows];
        let mut indices = vec![0u32; nnz];
        let mut values = if unit { Vec::new() } else { vec![0.0f64; nnz] };
        entries.for_each(|r, c, v| {
            let pos = indptr[r];
            indices[pos] = c as u32;
            if !unit {
                values[pos] = v;
            }
            indptr[r] += 1;
        });
        indptr.copy_within(0..rows, 1);
        indptr[0] = 0;
        // Compact each bucket towards the front; the write cursor never passes the
        // read position, so the scatter buffers become the output arrays.
        let mut row: Vec<(u32, f64)> = Vec::new();
        let (mut out, mut start) = (0usize, 0usize);
        for r in 0..rows {
            let end = indptr[r + 1];
            let mut clean = indices[start..end].windows(2).all(|p| p[0] < p[1]);
            if unit && !clean {
                // Equal unit entries are interchangeable, so an unstable sort
                // gives the stable sort's result; only a duplicate column (a sum
                // of two or more ones) needs the value array.
                indices[start..end].sort_unstable();
                clean = indices[start..end].windows(2).all(|p| p[0] < p[1]);
                if !clean {
                    unit = false;
                    values = vec![1.0; nnz];
                }
            } else if !unit {
                clean = clean && values[start..end].iter().all(|&v| v != 0.0);
            }
            if clean {
                if out != start {
                    indices.copy_within(start..end, out);
                    if !unit {
                        values.copy_within(start..end, out);
                    }
                }
                out += end - start;
            } else {
                row.clear();
                row.extend(
                    indices[start..end]
                        .iter()
                        .copied()
                        .zip(values[start..end].iter().copied()),
                );
                row.sort_by_key(|&(c, _)| c);
                for group in row.chunk_by(|a, b| a.0 == b.0) {
                    let mut sum = 0.0;
                    for &(_, v) in group {
                        sum += v;
                    }
                    if sum != 0.0 {
                        indices[out] = group[0].0;
                        values[out] = sum;
                        out += 1;
                    }
                }
            }
            indptr[r + 1] = out;
            start = end;
        }
        indices.truncate(out);
        values.truncate(out);
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values: if unit { None } else { canonical(values) },
        }
    }

    /// Build from a dense matrix, keeping only non-zero entries.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..dense.rows() {
            for j in 0..dense.cols() {
                let v = dense.get(i, j);
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Self::from_triplets(dense.rows(), dense.cols(), &triplets)
    }

    /// Construct directly from raw CSR arrays. Validates the dimensions, monotone
    /// `indptr`, in-bounds column indices, and matching lengths. `values` holding
    /// only ones is not kept (the canonical layout).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if rows > MAX_DIM || cols > MAX_DIM {
            return Err(SparseError::InvalidInput(format!(
                "a {rows}x{cols} matrix exceeds the largest CSR dimension {MAX_DIM}"
            )));
        }
        if indptr.len() != rows + 1 {
            return Err(SparseError::InvalidInput(format!(
                "indptr must have length rows+1 = {}, got {}",
                rows + 1,
                indptr.len()
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidInput(
                "indices and values must have the same length".into(),
            ));
        }
        if *indptr.last().unwrap_or(&0) != indices.len() {
            return Err(SparseError::InvalidInput(
                "last indptr entry must equal the number of stored values".into(),
            ));
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidInput(
                "indptr must be non-decreasing".into(),
            ));
        }
        if indices.iter().any(|&c| c as usize >= cols) {
            return Err(SparseError::InvalidInput(
                "column index out of bounds".into(),
            ));
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values: canonical(values),
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of explicitly stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array, aligned with [`CsrMatrix::indices`]; `None` when every stored
    /// value is exactly 1.0 (the unit layout).
    pub fn values(&self) -> Option<&[f64]> {
        self.values.as_deref()
    }

    /// Bytes each stored entry occupies: 4 (a `u32` column) in the unit layout,
    /// 12 with a value array.
    pub fn entry_bytes(&self) -> usize {
        if self.values.is_some() {
            12
        } else {
            4
        }
    }

    /// The stored columns of row `i`.
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// The stored entries of row `i` as `(column, value)`, in column order.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.indptr[i]..self.indptr[i + 1];
        let values = self.values.as_deref().map(|v| &v[range.clone()]);
        self.indices[range]
            .iter()
            .enumerate()
            .map(move |(p, &c)| (c as usize, values.map_or(1.0, |v| v[p])))
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Read the entry at `(i, j)` (zero when not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let Ok(j) = u32::try_from(j) else {
            return 0.0;
        };
        match self.row_indices(i).binary_search(&j) {
            Ok(pos) => self
                .values
                .as_ref()
                .map_or(1.0, |v| v[self.indptr[i] + pos]),
            Err(_) => 0.0,
        }
    }

    /// Iterate over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| self.row_entries(i).map(move |(c, v)| (i, c, v)))
    }

    /// Sum of the entries in each row (weighted node degrees for an adjacency matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.row_entries(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Diagonal entries as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Sparse-matrix x dense-matrix product: `self (rows x cols) * dense (cols x k)`.
    ///
    /// This is the workhorse of factorized path summation: cost `O(nnz * k)`.
    pub fn spmm_dense(&self, dense: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != dense.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "csr * dense",
                left: self.shape(),
                right: dense.shape(),
            });
        }
        let k = dense.cols();
        let mut out = DenseMatrix::zeros(self.rows, k);
        self.spmm_dense_rows_into(dense, 0..self.rows, out.data_mut());
        Ok(out)
    }

    /// The row kernel behind [`CsrMatrix::spmm_dense`]: write rows `rows` of
    /// `self * dense` into `out`, a buffer holding exactly those output rows
    /// (`rows.len() * dense.cols()` values). Every output value is overwritten, so
    /// callers may pass an unzeroed (reused) buffer. Shared by the serial entry point
    /// and the thread-parallel one in [`crate::parallel`], so both produce
    /// bit-identical results.
    ///
    /// `k = dense.cols()` is the class count in the summarize and propagation
    /// callers (k ≤ 8 in the paper's experiments) and the active block width in the
    /// eigensolver (tens of columns). k ∈ 1..=8 is one monomorphized register block
    /// per row, rows in pairs ([`CsrMatrix::spmm_rows_fixed`]); wider RHS go
    /// through [`CsrMatrix::spmm_rows_wide`]. Every path sums
    /// each output element over its row's stored entries in column order — exactly
    /// the order of the scalar kernel kept as [`CsrMatrix::spmm_dense_reference`] —
    /// so the results are bit-identical to it.
    pub(crate) fn spmm_dense_rows_into(
        &self,
        dense: &DenseMatrix,
        rows: Range<usize>,
        out: &mut [f64],
    ) {
        self.spmm_rows(dense.data(), dense.cols(), rows, out);
    }

    /// [`CsrMatrix::spmm_dense_rows_into`] on the row-major `k`-wide RHS `data`,
    /// monomorphized for the matrix's value layout.
    fn spmm_rows(&self, data: &[f64], k: usize, rows: Range<usize>, out: &mut [f64]) {
        match self.values.as_deref() {
            None => self.spmm_rows_with(Unit, data, k, rows, out),
            Some(values) => self.spmm_rows_with(values, data, k, rows, out),
        }
    }

    /// [`CsrMatrix::spmm_rows`] for one value layout.
    fn spmm_rows_with<V: Weights>(
        &self,
        weights: V,
        data: &[f64],
        k: usize,
        rows: Range<usize>,
        out: &mut [f64],
    ) {
        match k {
            0 => {}
            1 => self.spmm_rows_fixed::<1, V>(weights, data, rows, out),
            2 => self.spmm_rows_fixed::<2, V>(weights, data, rows, out),
            3 => self.spmm_rows_fixed::<3, V>(weights, data, rows, out),
            4 => self.spmm_rows_fixed::<4, V>(weights, data, rows, out),
            5 => self.spmm_rows_fixed::<5, V>(weights, data, rows, out),
            6 => self.spmm_rows_fixed::<6, V>(weights, data, rows, out),
            7 => self.spmm_rows_fixed::<7, V>(weights, data, rows, out),
            8 => self.spmm_rows_fixed::<8, V>(weights, data, rows, out),
            _ => self.spmm_rows_wide(weights, data, k, rows, out),
        }
    }

    /// The stored columns and weights of row `i`.
    #[inline(always)]
    fn kernel_row<V: Weights>(&self, weights: V, i: usize) -> (&[u32], V) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[range.clone()], weights.range(range))
    }

    /// Monomorphized SpMM row kernel for small `K`: rows run in pairs, each row
    /// of a pair in its own K-wide register block, written out once. The two
    /// rows' stored entries are walked side by side while both have some left,
    /// then the longer row finishes alone, and an odd last row runs alone, so
    /// every output element is still summed over its own row in column order,
    /// starting from +0.0. What pairing buys is a second independent add chain:
    /// at `K = 1` (SpMV) a lone row is one dependent chain, whose add latency
    /// rather than its memory traffic set the cost.
    fn spmm_rows_fixed<const K: usize, V: Weights>(
        &self,
        weights: V,
        data: &[f64],
        rows: Range<usize>,
        out: &mut [f64],
    ) {
        let mut pairs = out.chunks_exact_mut(2 * K);
        let mut i = rows.start;
        for pair in &mut pairs {
            let (out_a, out_b) = pair.split_at_mut(K);
            let (cols_a, vals_a) = self.kernel_row(weights, i);
            let (cols_b, vals_b) = self.kernel_row(weights, i + 1);
            let both = cols_a.len().min(cols_b.len());
            let (mut acc_a, mut acc_b) = ([0.0f64; K], [0.0f64; K]);
            for (p, (&ca, &cb)) in cols_a[..both].iter().zip(&cols_b[..both]).enumerate() {
                let (sa, sb) = (ca as usize * K, cb as usize * K);
                let (xa, xb) = (&data[sa..sa + K], &data[sb..sb + K]);
                for j in 0..K {
                    acc_a[j] += vals_a.times(p, xa[j]);
                    acc_b[j] += vals_b.times(p, xb[j]);
                }
            }
            accumulate::<K, V>(
                &cols_a[both..],
                vals_a.range(both..cols_a.len()),
                data,
                K,
                0,
                &mut acc_a,
            );
            accumulate::<K, V>(
                &cols_b[both..],
                vals_b.range(both..cols_b.len()),
                data,
                K,
                0,
                &mut acc_b,
            );
            out_a.copy_from_slice(&acc_a);
            out_b.copy_from_slice(&acc_b);
            i += 2;
        }
        let last = pairs.into_remainder();
        if !last.is_empty() {
            let (cols, vals) = self.kernel_row(weights, i);
            spmm_block::<K, V>(cols, vals, data, K, 0, last);
        }
    }

    /// Register-blocked SpMM row kernel for every `k > 8`: the output row is cut
    /// into [`SPMM_WIDE_BLOCK`]-wide blocks, then 4-wide ones, then one 1- to
    /// 3-wide remainder, each a monomorphized register block accumulated over the
    /// row's stored entries and written out once. Widths are fixed at compile
    /// time, so no block loops over a runtime length, and the output row is never
    /// read back.
    fn spmm_rows_wide<V: Weights>(
        &self,
        weights: V,
        data: &[f64],
        k: usize,
        rows: Range<usize>,
        out: &mut [f64],
    ) {
        for (i, out_row) in rows.zip(out.chunks_exact_mut(k)) {
            let (cols, vals) = self.kernel_row(weights, i);
            let mut j0 = 0;
            while k - j0 >= SPMM_WIDE_BLOCK {
                spmm_block::<SPMM_WIDE_BLOCK, V>(cols, vals, data, k, j0, out_row);
                j0 += SPMM_WIDE_BLOCK;
            }
            while k - j0 >= 4 {
                spmm_block::<4, V>(cols, vals, data, k, j0, out_row);
                j0 += 4;
            }
            match k - j0 {
                1 => spmm_block::<1, V>(cols, vals, data, k, j0, out_row),
                2 => spmm_block::<2, V>(cols, vals, data, k, j0, out_row),
                3 => spmm_block::<3, V>(cols, vals, data, k, j0, out_row),
                _ => {}
            }
        }
    }

    /// The pre-blocking scalar SpMM (one `out[j] += w * src[j]` triple loop). Kept as
    /// the correctness oracle for the register-blocked kernels: tests assert
    /// bit-identity against it. Not part of the supported API.
    #[doc(hidden)]
    pub fn spmm_dense_reference(&self, dense: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != dense.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "csr * dense",
                left: self.shape(),
                right: dense.shape(),
            });
        }
        let k = dense.cols();
        let mut out = DenseMatrix::zeros(self.rows, k);
        let buf = out.data_mut();
        for i in 0..self.rows {
            let out_row = &mut buf[i * k..(i + 1) * k];
            for (c, w) in self.row_entries(i) {
                let src = dense.row(c);
                for (o, &s) in out_row.iter_mut().zip(src.iter()) {
                    *o += w * s;
                }
            }
        }
        Ok(out)
    }

    /// Sparse matrix-vector product `self * v`: the `k = 1` SpMM row kernel.
    pub fn spmv(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                op: "csr * vector",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        self.spmm_rows(v, 1, 0..self.rows, &mut out);
        Ok(out)
    }

    /// Sparse-sparse product `self * other`, returning a sparse result.
    ///
    /// Only used for the *unfactorized* baseline (explicit `W^ℓ`, Fig. 5b) and for small
    /// matrices; the factorized kernels never call this on the full graph repeatedly.
    pub fn spmm(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.cols != other.rows {
            return Err(SparseError::DimensionMismatch {
                op: "csr * csr",
                left: self.shape(),
                right: other.shape(),
            });
        }
        // Classic Gustavson's algorithm with a dense per-row accumulator.
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0);
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut accumulator = vec![0.0f64; other.cols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            for (c, w) in self.row_entries(i) {
                for (oc, ov) in other.row_entries(c) {
                    if accumulator[oc] == 0.0 {
                        touched.push(oc);
                    }
                    accumulator[oc] += w * ov;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = accumulator[c];
                if v != 0.0 {
                    indices.push(c as u32);
                    values.push(v);
                }
                accumulator[c] = 0.0;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: other.cols,
            indptr,
            indices,
            values: canonical(values),
        })
    }

    /// Element-wise sum `self + other` (sparse result).
    pub fn add(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        self.combine(other, "csr add", 1.0)
    }

    /// Element-wise difference `self - other` (sparse result).
    pub fn sub(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        self.combine(other, "csr sub", -1.0)
    }

    fn combine(&self, other: &CsrMatrix, op: &'static str, sign: f64) -> Result<CsrMatrix> {
        if self.shape() != other.shape() {
            return Err(SparseError::DimensionMismatch {
                op,
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut triplets = Vec::with_capacity(self.nnz() + other.nnz());
        triplets.extend(self.iter());
        triplets.extend(other.iter().map(|(r, c, v)| (r, c, sign * v)));
        Ok(CsrMatrix::from_triplets(self.rows, self.cols, &triplets))
    }

    /// The same sparsity pattern with the stored values replaced by
    /// `f(row, col, value)`, in the canonical layout.
    fn map_values(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> CsrMatrix {
        let mut values = self.values.clone().unwrap_or_else(|| vec![1.0; self.nnz()]);
        for i in 0..self.rows {
            let range = self.indptr[i]..self.indptr[i + 1];
            for (v, &c) in values[range.clone()].iter_mut().zip(&self.indices[range]) {
                *v = f(i, c as usize, *v);
            }
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: canonical(values),
        }
    }

    /// Multiply every stored value by `factor`.
    pub fn scaled(&self, factor: f64) -> CsrMatrix {
        self.map_values(|_, _, v| v * factor)
    }

    /// Transpose into a new CSR matrix.
    ///
    /// Counting sort over the stored entries — `O(nnz + cols)`, no triplet buffer and
    /// no per-row comparison sort (the `from_triplets` round trip this replaced).
    /// Source rows are visited in order, so each transposed row receives its entries
    /// with strictly ascending column indices. Explicit zeros (possible via
    /// [`CsrMatrix::from_raw`]) are dropped, matching the previous behavior.
    pub fn transpose(&self) -> CsrMatrix {
        // `next[c + 1]` counts transposed row `c`; the prefix sum turns the array
        // into scatter cursors, and after the scatter a one-slot shift recovers the
        // row pointers (cursor `c` has advanced exactly to the end of row `c`).
        let mut next = vec![0usize; self.cols + 1];
        for (_, c, v) in self.iter() {
            if v != 0.0 {
                next[c + 1] += 1;
            }
        }
        for c in 0..self.cols {
            next[c + 1] += next[c];
        }
        let tnnz = next[self.cols];
        let mut t_indices = vec![0u32; tnnz];
        let mut t_values = vec![0.0f64; tnnz];
        for (r, c, v) in self.iter() {
            if v != 0.0 {
                let pos = next[c];
                t_indices[pos] = r as u32;
                t_values[pos] = v;
                next[c] += 1;
            }
        }
        for c in (1..=self.cols).rev() {
            next[c] = next[c - 1];
        }
        next[0] = 0;
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr: next,
            indices: t_indices,
            values: canonical(t_values),
        }
    }

    /// Whether the matrix is (numerically) symmetric.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.iter()
            .all(|(r, c, v)| (self.get(c, r) - v).abs() <= tol)
    }

    /// Sum of the entries in each column, computed in one pass over the stored
    /// entries (no transpose is materialized).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (_, c, v) in self.iter() {
            sums[c] += v;
        }
        sums
    }

    /// Column-normalize: divide each entry by its column sum (used by random-walk
    /// methods, Eq. 3). Columns with zero sum are left as zero.
    pub fn column_normalized(&self) -> CsrMatrix {
        let col_sums = self.column_sums();
        self.map_values(|_, c, v| {
            if col_sums[c] != 0.0 {
                v / col_sums[c]
            } else {
                v
            }
        })
    }

    /// Row-normalize: divide each entry by its row sum. Rows with zero sum stay zero.
    pub fn row_normalized(&self) -> CsrMatrix {
        let sums = self.row_sums();
        self.map_values(|i, _, v| if sums[i] != 0.0 { v / sums[i] } else { v })
    }

    /// Symmetric normalization `D^{-1/2} W D^{-1/2}` used by the harmonic/LGC family.
    pub fn symmetric_normalized(&self) -> CsrMatrix {
        let sums = self.row_sums();
        let inv_sqrt: Vec<f64> = sums
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 0.0 })
            .collect();
        self.map_values(|i, c, v| v * (inv_sqrt[i] * inv_sqrt[c]))
    }

    /// Convert to a dense matrix. Intended for tests and small matrices only.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.add_at(r, c, v);
        }
        out
    }

    /// Frobenius norm of the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.iter().map(|(_, _, v)| v * v).sum::<f64>().sqrt()
    }
}

/// One register block of an SpMM output row: columns `j0..j0 + W` of the row
/// whose stored entries are `cols`/`vals`, against the row-major `k`-wide RHS
/// `data`. Each accumulator starts at zero and adds `w * x` entry by entry in
/// column order, the reference kernel's order.
#[inline(always)]
fn spmm_block<const W: usize, V: Weights>(
    cols: &[u32],
    vals: V,
    data: &[f64],
    k: usize,
    j0: usize,
    out_row: &mut [f64],
) {
    let mut acc = [0.0f64; W];
    accumulate::<W, V>(cols, vals, data, k, j0, &mut acc);
    out_row[j0..j0 + W].copy_from_slice(&acc);
}

/// Add `w * x` into `acc` for the stored entries `cols`/`vals`, entry by entry in
/// column order: the inner loop of [`spmm_block`] and of a row pair's tail.
#[inline(always)]
fn accumulate<const W: usize, V: Weights>(
    cols: &[u32],
    vals: V,
    data: &[f64],
    k: usize,
    j0: usize,
    acc: &mut [f64; W],
) {
    for (p, &c) in cols.iter().enumerate() {
        let start = c as usize * k + j0;
        let src = &data[start..start + W];
        for j in 0..W {
            acc[j] += vals.times(p, src[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-node path graph 0-1-2-3 adjacency.
    fn path_graph() -> CsrMatrix {
        CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        )
    }

    #[test]
    fn zeros_has_no_entries() {
        let m = CsrMatrix::zeros(3, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.get(2, 3), 0.0);
    }

    #[test]
    fn identity_diagonal() {
        let m = CsrMatrix::identity(3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn from_diagonal_drops_zeros() {
        let m = CsrMatrix::from_diagonal(&[1.0, 0.0, 3.0]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(2, 2), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn from_triplets_sums_and_sorts() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 3.0)]);
        assert_eq!(m.row_indices(0), &[0, 2]);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn from_triplets_drops_cancelled_entries() {
        let m = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, -1.0)]);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn from_triplets_keeps_shape_and_counts() {
        let m = CsrMatrix::from_triplets(3, 4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 2, 4.0)]);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(2, 2), 4.0);
        // Empty rows, including trailing ones, still get their indptr slot.
        let sparse = CsrMatrix::from_triplets(4, 2, &[(1, 0, 1.0)]);
        assert_eq!(sparse.indptr(), &[0, 0, 1, 1, 1]);
    }

    #[test]
    fn from_triplets_sums_duplicates_in_input_order() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0)]);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.nnz(), 1);
        // Three copies whose sum depends on the order: input order is the one used.
        let (a, b, c) = (3.0, 1e16, -1e16);
        let in_order = 0.0 + a + b + c;
        assert_ne!(in_order, 0.0 + b + c + a);
        let m = CsrMatrix::from_triplets(1, 3, &[(0, 2, a), (0, 0, 5.0), (0, 2, b), (0, 2, c)]);
        assert_eq!(m.get(0, 2).to_bits(), in_order.to_bits());
        assert_eq!(m.row_indices(0), &[0, 2]);
    }

    #[test]
    fn iter_yields_triplets() {
        let m = CsrMatrix::from_triplets(2, 2, &[(1, 0, -2.0), (0, 0, 1.5)]);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(0, 0, 1.5), (1, 0, -2.0)]
        );
    }

    #[test]
    fn from_undirected_edges_stores_both_directions() {
        let m = CsrMatrix::from_undirected_edges(3, &[(0usize, 1usize, 1.0), (2, 1, 2.0)]);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 2), 2.0);
        assert!(m.is_symmetric(0.0));
        // A self-loop is stored once.
        let looped = CsrMatrix::from_undirected_edges(3, &[(0usize, 1usize, 1.0), (2, 2, 1.0)]);
        assert_eq!(looped.nnz(), 3);
        assert_eq!(looped.get(2, 2), 1.0);
        // Copies that cancel vanish from both rows.
        let cancelled = CsrMatrix::from_undirected_edges(2, &[(0usize, 1usize, 1.5), (1, 0, -1.5)]);
        assert_eq!(cancelled.nnz(), 0);
    }

    #[test]
    fn from_undirected_edges_matches_doubled_triplets_bitwise() {
        // Sorted and unsorted rows, duplicates (up to four copies), explicit and
        // cancelling zeros: the direct build equals the doubled triplet list.
        let mut state = 7u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for n in [1usize, 2, 5, 40] {
            let mut edges = Vec::new();
            for _ in 0..3 * n {
                let u = next(n as u64) as usize;
                let v = next(n as u64) as usize;
                let w = match next(5) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.0,
                    _ => (next(2001) as f64 - 1000.0) / 7.0,
                };
                for _ in 0..=next(4) {
                    edges.push((u, v, w));
                }
            }
            let mut doubled = Vec::new();
            for &(u, v, w) in &edges {
                doubled.push((u, v, w));
                if u != v {
                    doubled.push((v, u, w));
                }
            }
            let direct = CsrMatrix::from_undirected_edges(n, &edges);
            let reference = CsrMatrix::from_triplets(n, n, &doubled);
            assert_eq!(direct.indptr(), reference.indptr(), "n = {n}");
            assert_eq!(direct.indices(), reference.indices(), "n = {n}");
            let bits = |m: &CsrMatrix| m.iter().map(|(_, _, v)| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&reference), "n = {n}");
        }
    }

    #[test]
    fn layout_is_canonical_across_constructors() {
        // One unweighted 3-node path, built every way there is: each build keeps
        // no value array and all of them are equal.
        let path =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        assert_eq!((path.values(), path.entry_bytes()), (None, 4));
        let builds = [
            CsrMatrix::from_undirected_edges(3, &[(0usize, 1usize), (2, 1)]),
            CsrMatrix::from_undirected_edges(3, &[(0u32, 1u32), (2, 1)]),
            CsrMatrix::from_undirected_edges(3, &[(0usize, 1usize, 1.0), (2, 1, 1.0)]),
            CsrMatrix::from_raw(3, 3, vec![0, 1, 3, 4], vec![1, 0, 2, 1], vec![1.0; 4]).unwrap(),
            CsrMatrix::from_dense(&path.to_dense()),
            path.scaled(1.0),
            path.transpose(),
            path.clone(),
        ];
        for (i, m) in builds.iter().enumerate() {
            assert_eq!(m, &path, "build {i}");
            assert_eq!(m.values(), None, "build {i}");
        }
        let identity = CsrMatrix::identity(3);
        assert_eq!(identity.values(), None);
        assert_eq!(identity, CsrMatrix::from_diagonal(&[1.0, 1.0, 1.0]));
        assert_eq!(identity, CsrMatrix::from_dense(&identity.to_dense()));
        assert_eq!(CsrMatrix::zeros(2, 2).values(), None);
        // Any other value keeps the value array, 12 bytes per entry.
        let weighted = path.scaled(2.0);
        assert_eq!(weighted.values(), Some(&[2.0; 4][..]));
        assert_eq!(weighted.entry_bytes(), 12);
        assert_eq!(
            CsrMatrix::from_diagonal(&[1.0, 3.0]).values(),
            Some(&[1.0, 3.0][..])
        );
    }

    #[test]
    fn values_that_come_to_one_give_the_unit_layout() {
        // Halves that sum to one, a doubling undone, and a row normalization of
        // degree-one rows all land on the matrix built unit, kernels included.
        let unit = CsrMatrix::from_undirected_edges(4, &[(0usize, 1usize), (2, 3)]);
        let halves = CsrMatrix::from_undirected_edges(
            4,
            &[
                (0usize, 1usize, 0.5),
                (2, 3, 0.25),
                (1, 0, 0.5),
                (3, 2, 0.75),
            ],
        );
        let undone = unit.scaled(2.0).scaled(0.5);
        let normalized = unit.scaled(3.0).row_normalized();
        let x =
            DenseMatrix::from_vec(4, 3, (0..12).map(|v| v as f64 * 0.3 - 1.1).collect()).unwrap();
        for m in [&halves, &undone, &normalized] {
            assert_eq!(m, &unit);
            assert_eq!(m.values(), None);
            assert_eq!(
                m.spmm_dense(&x).unwrap().data(),
                unit.spmm_dense(&x).unwrap().data()
            );
        }
    }

    #[test]
    fn duplicate_unit_entries_fall_back_to_the_weighted_layout() {
        // Unsorted unit rows stay unit; a duplicate sums to 2.0 and brings the
        // value array back, for the rows before and after it too.
        let unsorted = CsrMatrix::from_undirected_edges(4, &[(0usize, 3usize), (0, 1), (2, 0)]);
        assert_eq!(unsorted.values(), None);
        assert_eq!(unsorted.row_indices(0), &[1, 2, 3]);
        let doubled =
            CsrMatrix::from_undirected_edges(4, &[(0usize, 3usize), (1, 2), (2, 1), (3, 1)]);
        assert_eq!(doubled.entry_bytes(), 12);
        assert_eq!(doubled.get(1, 2), 2.0);
        assert_eq!(doubled.get(2, 1), 2.0);
        assert_eq!(doubled.get(0, 3), 1.0);
        assert_eq!(doubled.get(3, 1), 1.0);
        let triplets = [
            (0, 3, 1.0),
            (3, 0, 1.0),
            (1, 2, 2.0),
            (2, 1, 2.0),
            (1, 3, 1.0),
            (3, 1, 1.0),
        ];
        assert_eq!(doubled, CsrMatrix::from_triplets(4, 4, &triplets));
    }

    #[test]
    fn dimensions_beyond_u32_indices_are_rejected() {
        let too_big = MAX_DIM + 1;
        assert!(CsrMatrix::from_raw(0, too_big, vec![0], vec![], vec![]).is_err());
        assert!(std::panic::catch_unwind(|| CsrMatrix::from_triplets(1, too_big, &[])).is_err());
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = DenseMatrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 0.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 2);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn from_raw_validation() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).is_ok());
        // wrong indptr length
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // decreasing indptr
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err());
        // mismatched value length
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![0], vec![1.0, 2.0]).is_err());
        // last indptr wrong
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let w = path_graph();
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let got = w.spmv(&v).unwrap();
        let expected = w.to_dense().matvec(&v).unwrap();
        assert_eq!(got, expected);
        assert!(w.spmv(&[1.0]).is_err());
    }

    #[test]
    fn spmm_dense_matches_dense_matmul() {
        let w = path_graph();
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 0.0],
        ])
        .unwrap();
        let got = w.spmm_dense(&x).unwrap();
        let expected = w.to_dense().matmul(&x).unwrap();
        assert!(got.approx_eq(&expected, 1e-12));
        assert!(w.spmm_dense(&DenseMatrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn spmm_sparse_matches_dense() {
        let w = path_graph();
        let w2 = w.spmm(&w).unwrap();
        let expected = w.to_dense().matmul(&w.to_dense()).unwrap();
        assert!(w2.to_dense().approx_eq(&expected, 1e-12));
        // diagonal of W^2 is the degree
        assert_eq!(w2.get(0, 0), 1.0);
        assert_eq!(w2.get(1, 1), 2.0);
    }

    #[test]
    fn spmm_dimension_mismatch() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(a.spmm(&b).is_err());
    }

    #[test]
    fn add_and_sub() {
        let w = path_graph();
        let sum = w.add(&w).unwrap();
        assert_eq!(sum.get(0, 1), 2.0);
        let diff = w.sub(&w).unwrap();
        assert_eq!(diff.nnz(), 0);
        assert!(w.add(&CsrMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn scaled_multiplies_values() {
        let w = path_graph().scaled(0.5);
        assert_eq!(w.get(0, 1), 0.5);
    }

    #[test]
    fn transpose_of_symmetric_is_equal() {
        let w = path_graph();
        assert_eq!(w.transpose().to_dense(), w.to_dense());
        assert!(w.is_symmetric(0.0));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!asym.is_symmetric(0.0));
        assert_eq!(asym.transpose().get(1, 0), 1.0);
    }

    #[test]
    fn row_sums_are_degrees() {
        let w = path_graph();
        assert_eq!(w.row_sums(), vec![1.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 2, 1.0), (2, 2, 5.0)]);
        assert_eq!(m.diagonal(), vec![2.0, 0.0, 5.0]);
    }

    #[test]
    fn column_sums_match_transpose_row_sums() {
        let m =
            CsrMatrix::from_triplets(3, 4, &[(0, 1, 2.0), (1, 1, 3.0), (2, 0, 1.0), (2, 3, -4.0)]);
        assert_eq!(m.column_sums(), m.transpose().row_sums());
        assert_eq!(m.column_sums(), vec![1.0, 5.0, 0.0, -4.0]);
    }

    #[test]
    fn column_normalized_columns_sum_to_one() {
        let w = path_graph();
        let c = w.column_normalized();
        let col_sums = c.transpose().row_sums();
        for s in col_sums {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let w = path_graph();
        let r = w.row_normalized();
        for s in r.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_normalized_stays_symmetric() {
        let w = path_graph();
        let s = w.symmetric_normalized();
        assert!(s.is_symmetric(1e-12));
        // entry (0,1) should be 1/sqrt(d0*d1) = 1/sqrt(2)
        assert!((s.get(0, 1) - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn iter_visits_all_entries() {
        let w = path_graph();
        assert_eq!(w.iter().count(), 6);
        let total: f64 = w.iter().map(|(_, _, v)| v).sum();
        assert_eq!(total, 6.0);
    }

    #[test]
    fn frobenius_norm_counts_entries() {
        let w = path_graph();
        assert!((w.frobenius_norm() - 6.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn row_nnz_counts() {
        let w = path_graph();
        assert_eq!(w.row_nnz(0), 1);
        assert_eq!(w.row_nnz(1), 2);
    }
}
