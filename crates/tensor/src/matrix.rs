//! Row-major dense `f32` matrices with the kernels needed by the neural
//! network and training engine crates.

use crate::SeededRng;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major dense `f32` matrix.
///
/// All shape mismatches panic: the training engine builds matrices of
/// statically-known shapes, so a mismatch is a programming error, not a
/// recoverable condition.
///
/// # Example
///
/// ```
/// use bns_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let rc = self.cols.min(8);
            for c in 0..rc {
                write!(f, "{:>9.4}", self[(r, c)])?;
                if c + 1 < rc {
                    write!(f, ", ")?;
                }
            }
            if rc < self.cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if show < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: {} values cannot fill a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(r, c)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A matrix of i.i.d. `N(mean, std^2)` entries.
    pub fn random_normal(
        rows: usize,
        cols: usize,
        mean: f32,
        std: f32,
        rng: &mut SeededRng,
    ) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.normal(mean, std))
    }

    /// A matrix of i.i.d. uniform entries in `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.uniform_range(lo, hi))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes `self` to `rows x cols` for a kernel that overwrites
    /// every element: the contents afterwards are unspecified (old
    /// values or zeros). A fresh (capacity-0) matrix gets a zeroed
    /// allocation, as [`Matrix::zeros`] would; a reused one keeps its
    /// buffer, growing it (amortized, no copy) only when too small.
    /// This is what lets a rank overwrite its layer buffers every epoch
    /// without allocating in steady state.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        // `Vec::capacity` by path: the analyzer's call graph resolves a
        // bare `.capacity()` to an unrelated workspace method.
        let cap = Vec::capacity(&self.data);
        if cap == 0 {
            // bns-allow(BNS-A005): first use of a fresh buffer; a reused one never gets here
            self.data = vec![0.0; n];
        } else {
            if n > cap {
                self.data.clear();
            }
            self.data.resize(n, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// [`Matrix::reset`] for a kernel that accumulates into its output:
    /// a reused buffer is re-zeroed, a fresh one is allocated zeroed.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.reset(rows, cols);
    }

    /// Overwrites `self` with a copy of `src`, reusing `self`'s buffer.
    pub fn assign(&mut self, src: &Matrix) {
        self.assign_rows(src.rows, src.cols, &src.data);
    }

    /// Overwrites `self` with the `rows x cols` values in `src`: a copy
    /// into the reused buffer (no zeroing pass), or, for a fresh matrix,
    /// a plain `to_vec` as `clone` would make.
    fn assign_rows(&mut self, rows: usize, cols: usize, src: &[f32]) {
        debug_assert_eq!(src.len(), rows * cols);
        if Vec::capacity(&self.data) == 0 {
            // bns-allow(BNS-A005): first use of a fresh buffer; a reused one never gets here
            self.data = src.to_vec();
        } else {
            self.data.clear();
            self.data.extend_from_slice(src);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Drops every row from `at` on, keeping the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > rows`.
    pub fn truncate_rows(&mut self, at: usize) {
        assert!(at <= self.rows, "truncate_rows out of bounds");
        self.data.truncate(at * self.cols);
        self.rows = at;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// Row-blocked over the installed [`crate::pool`] (serial when no
    /// pool is installed or the product is small) with a cache-blocked
    /// i-k-j inner kernel dispatched through [`crate::simd`]. Every
    /// output element is accumulated in ascending-`k` order by exactly
    /// one thread, vectorized across output *columns* with no FMA, so
    /// the result is bitwise identical at any thread count and any
    /// SIMD lane width. Unlike the earlier scalar kernel there is
    /// **no** skip of zero entries: `0 * NaN` must stay `NaN`
    /// (IEEE 754), so divergence in either operand always propagates
    /// to the product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned buffer (reshaped and
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{} shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.mm_nn(rhs.cols, &rhs.data, out);
    }

    /// The shared NN-layout product core: `out = self * B` where `B` is
    /// a flat row-major `self.cols x n` buffer. The SIMD backend is
    /// resolved once here, on the calling thread, and handed to the
    /// pool closures (worker threads never consult dispatch state).
    fn mm_nn(&self, n: usize, b: &[f32], out: &mut Matrix) {
        out.reset_zeroed(self.rows, n);
        let kd = self.cols;
        let a = &self.data;
        let bk = crate::simd::begin_kernel();
        let min_rows = par_min_rows(self.rows, kd * n);
        let optr = SendMutPtr(out.data.as_mut_ptr());
        crate::pool::parallel_row_blocks(self.rows, min_rows, &|i0, i1| {
            // SAFETY: each block owns the disjoint output rows [i0, i1).
            let oblock =
                unsafe { std::slice::from_raw_parts_mut(optr.get().add(i0 * n), (i1 - i0) * n) };
            crate::simd::mm_nn_block(bk, &a[i0 * kd..i1 * kd], b, oblock, kd, n);
        });
    }

    /// `self^T * rhs` without materializing the transpose.
    ///
    /// Parallel over blocks of output rows (= columns of `self`); the
    /// per-element accumulation order is ascending over `self`'s rows
    /// regardless of blocking or lane width (the [`crate::simd`]
    /// kernel vectorizes across output columns), so results are
    /// bitwise deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into a caller-owned buffer (reshaped and
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: {}x{} ^T * {}x{} shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_zeroed(self.cols, rhs.cols);
        let n = rhs.cols;
        let kd = self.cols;
        let rows = self.rows;
        let a = &self.data;
        let b = &rhs.data;
        let bk = crate::simd::begin_kernel();
        let min_rows = par_min_rows(kd, rows * n);
        let optr = SendMutPtr(out.data.as_mut_ptr());
        crate::pool::parallel_row_blocks(kd, min_rows, &|i0, i1| {
            // SAFETY: disjoint output rows [i0, i1) per block.
            let oblock =
                unsafe { std::slice::from_raw_parts_mut(optr.get().add(i0 * n), (i1 - i0) * n) };
            crate::simd::mm_tn_block(bk, a, b, oblock, (i0, i1), kd, n);
        });
    }

    /// `self * rhs^T`, computed as one explicit `rhs` transpose
    /// followed by the shared NN kernel: with `rhs^T` materialized the
    /// inner loop reads contiguous rows and vectorizes across output
    /// columns, where the old fused dot-product walked `rhs` with a
    /// lane-hostile stride. Each output element still accumulates its
    /// products in ascending-`k` order starting from `0.0` — the exact
    /// float sequence of the former `acc += x * y` loop — so results
    /// are bitwise unchanged and deterministic at any thread count and
    /// lane width. The transpose is a one-off `O(k·n)` copy against an
    /// `O(m·k·n)` product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let (mut bt, mut out) = (Matrix::default(), Matrix::default());
        self.matmul_nt_into(rhs, &mut bt, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into a caller-owned buffer, with `bt` as
    /// the scratch for the `rhs` transpose (both reshaped and
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, bt: &mut Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * {}x{} ^T shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        rhs.transpose_into(bt);
        self.mm_nn(rhs.rows, &bt.data, out);
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-owned buffer (reshaped and
    /// overwritten).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Elementwise in-place `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        crate::simd::add_assign(crate::simd::begin_kernel(), &mut self.data, &rhs.data);
    }

    /// Elementwise in-place `self += alpha * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        crate::simd::axpy(
            crate::simd::begin_kernel(),
            &mut self.data,
            alpha,
            &rhs.data,
        );
    }

    /// Elementwise in-place `self -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        crate::simd::sub_assign(crate::simd::begin_kernel(), &mut self.data, &rhs.data);
    }

    /// In-place scaling by a scalar.
    pub fn scale(&mut self, s: f32) {
        crate::simd::scale(crate::simd::begin_kernel(), &mut self.data, s);
    }

    /// Elementwise (Hadamard) product as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let mut out = self.clone();
        crate::simd::hadamard_assign(crate::simd::begin_kernel(), &mut out.data, &rhs.data);
        out
    }

    /// Adds a length-`cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let bk = crate::simd::begin_kernel();
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            crate::simd::add_assign(bk, row, bias);
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            // The exchange loop never calls Matrix::map; the edge is
            // an iterator/Option `map` name collision.
            // bns-allow(BNS-A005): Matrix::map returns a new matrix by contract
            self.data.iter().map(|&a| f(a)).collect(),
        )
    }

    /// Gathers the given rows into a new matrix (`out.row(i) =
    /// self.row(idx[i])`).
    ///
    /// Stays a plain `copy_from_slice` per row: a pure memcpy is
    /// already the optimal (and trivially bitwise-exact) form, so it
    /// is not routed through [`crate::simd`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < self.rows, "gather_rows: index {r} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Adds each row of `src` into `self.row(idx[i])` (the adjoint of
    /// [`Matrix::gather_rows`]).
    ///
    /// # Panics
    ///
    /// Panics on index out of bounds or column mismatch.
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Matrix) {
        assert_eq!(idx.len(), src.rows, "scatter_add_rows: index/src mismatch");
        assert_eq!(self.cols, src.cols, "scatter_add_rows: column mismatch");
        let bk = crate::simd::begin_kernel();
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < self.rows, "scatter_add_rows: index {r} out of bounds");
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            crate::simd::add_assign(bk, dst, src.row(i));
        }
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics on column mismatch.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Horizontally concatenates `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics on row mismatch.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Adds rows laid out contiguously in `src` (`idx.len() × self.cols`
    /// row-major) into `self.row(idx[i])` — [`Matrix::scatter_add_rows`]
    /// without requiring the source to be materialized as a `Matrix`.
    ///
    /// # Panics
    ///
    /// Panics on index out of bounds or if `src.len() != idx.len() * cols`.
    pub fn scatter_add_rows_slice(&mut self, idx: &[usize], src: &[f32]) {
        assert_eq!(
            src.len(),
            idx.len() * self.cols,
            "scatter_add_rows_slice: src length mismatch"
        );
        let bk = crate::simd::begin_kernel();
        for (i, &r) in idx.iter().enumerate() {
            assert!(
                r < self.rows,
                "scatter_add_rows_slice: index {r} out of bounds"
            );
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            crate::simd::add_assign(bk, dst, &src[i * self.cols..(i + 1) * self.cols]);
        }
    }

    /// Splits rows at `at`, consuming `self`: returns
    /// `(self[..at, :], self[at.., :])`. The top part reuses the existing
    /// allocation (truncate in place, no copy); only the bottom rows are
    /// copied out.
    ///
    /// # Panics
    ///
    /// Panics if `at > rows`.
    pub fn split_rows(mut self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.rows, "split_rows out of bounds");
        let bottom = Matrix::from_vec(
            self.rows - at,
            self.cols,
            self.data[at * self.cols..].to_vec(),
        );
        self.data.truncate(at * self.cols);
        self.rows = at;
        (self, bottom)
    }

    /// The sub-matrix of rows `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        let mut out = Matrix::default();
        self.slice_rows_into(start, end, &mut out);
        out
    }

    /// [`Matrix::slice_rows`] into a caller-owned buffer (reshaped and
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(start <= end && end <= self.rows, "slice_rows out of bounds");
        out.assign_rows(
            end - start,
            self.cols,
            &self.data[start * self.cols..end * self.cols],
        );
    }

    /// Splits columns at `at`: returns `(self[:, ..at], self[:, at..])`.
    ///
    /// # Panics
    ///
    /// Panics if `at > cols`.
    pub fn split_cols(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols, "split_cols out of bounds");
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Per-column sums as a length-`cols` vector.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.col_sums_into(&mut out);
        out
    }

    /// [`Matrix::col_sums`] into a caller-owned slice (overwritten),
    /// rows summed in ascending order from `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols`.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "col_sums length mismatch");
        out.fill(0.0);
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>()
    }

    /// Maximum absolute difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether all elements differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|a| !a.is_finite())
    }
}

/// A `*mut f32` the pool closures may carry across threads. Sound
/// because every user writes only to a disjoint row range of the
/// pointee (see the SAFETY comments at each use).
#[derive(Clone, Copy)]
struct SendMutPtr(*mut f32);
// SAFETY: the wrapper is only handed to pool jobs that write disjoint
// row ranges of the output buffer, and `ThreadPool::run` joins every
// job before the `&mut` borrow it was derived from ends.
unsafe impl Send for SendMutPtr {}
// SAFETY: as above — shared references only ever read the pointer
// value itself; all writes through it are range-disjoint per job.
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// Accessed via a method so closures capture the whole `Send`
    /// wrapper — a 2021-edition closure naming the field directly would
    /// capture only the raw (non-`Send`) pointer.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Minimum FLOPs-per-element budget below which a matmul stays serial
/// (fan-out costs more than it saves on tiny products).
#[cfg(not(miri))]
const PAR_MIN_WORK: usize = 64 * 1024;
/// Under Miri the interpreter is ~1000x slower, so the budget shrinks:
/// tiny test products still take the parallel raw-pointer path that
/// Miri is there to check (tests/miri_kernels.rs).
#[cfg(miri)]
const PAR_MIN_WORK: usize = 64;

/// Minimum rows per parallel block for a kernel whose per-output-row
/// cost is `work_per_row` multiply-adds.
fn par_min_rows(rows: usize, work_per_row: usize) -> usize {
    if rows == 0 {
        return 1;
    }
    PAR_MIN_WORK.div_ceil(work_per_row.max(1)).max(1)
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        // Hot paths use `add_assign`; the analyzer reaches this only
        // through the raw-pointer `.add(offset)` calls in the kernels.
        // bns-allow(BNS-A005): reached via the raw-pointer `add` name collision
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.sub_assign(rhs);
        out
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale(s);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = SeededRng::new(1);
        let a = Matrix::random_normal(7, 5, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(5, 9, 0.0, 1.0, &mut rng);
        assert!(a.matmul(&b).approx_eq(&naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = SeededRng::new(2);
        let a = Matrix::random_normal(6, 4, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(6, 3, 0.0, 1.0, &mut rng);
        assert!(a.matmul_tn(&b).approx_eq(&a.transpose().matmul(&b), 1e-5));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = SeededRng::new(3);
        let a = Matrix::random_normal(6, 4, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(5, 4, 0.0, 1.0, &mut rng);
        assert!(a.matmul_nt(&b).approx_eq(&a.matmul(&b.transpose()), 1e-5));
    }

    #[test]
    fn zero_times_nan_propagates() {
        // IEEE 754: 0 * NaN = NaN and 0 * Inf = NaN. A zero-entry fast
        // path in the kernels would mask divergence in the other
        // operand, so all three matmul flavours must propagate it.
        let zero = Matrix::zeros(2, 2);
        let mut bad = Matrix::zeros(2, 2);
        bad[(0, 0)] = f32::NAN;
        bad[(1, 1)] = f32::INFINITY;

        let z = zero.matmul(&bad);
        assert!(z[(0, 0)].is_nan(), "0 * NaN must be NaN (matmul)");
        assert!(z[(0, 1)].is_nan(), "0 * Inf must be NaN (matmul)");

        let z = zero.matmul_tn(&bad);
        assert!(z[(0, 0)].is_nan(), "0 * NaN must be NaN (matmul_tn)");
        assert!(z[(1, 1)].is_nan(), "0 * Inf must be NaN (matmul_tn)");

        let z = zero.matmul_nt(&bad);
        assert!(z[(0, 0)].is_nan(), "0 * NaN must be NaN (matmul_nt)");
        assert!(z[(0, 1)].is_nan(), "0 * Inf must be NaN (matmul_nt)");

        // And the mirrored case: NaN in the left operand, zeros right.
        let z = bad.matmul(&zero);
        assert!(z[(0, 0)].is_nan(), "NaN * 0 must be NaN (matmul)");
    }

    /// Reused buffers hold stale values from another shape; the `_into`
    /// forms must give the fresh forms' bits regardless.
    #[test]
    fn into_forms_overwrite_dirty_buffers() {
        let mut rng = SeededRng::new(4);
        let a = Matrix::random_normal(9, 5, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(5, 7, 0.0, 1.0, &mut rng);
        let c = Matrix::random_normal(9, 7, 0.0, 1.0, &mut rng);
        let d = Matrix::random_normal(7, 5, 0.0, 1.0, &mut rng);
        let dirty = || Matrix::filled(11, 13, f32::NAN);
        let (mut out, mut bt) = (dirty(), dirty());
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_tn_into(&c, &mut out);
        assert_eq!(out, a.matmul_tn(&c));
        a.matmul_nt_into(&d, &mut bt, &mut out);
        assert_eq!(out, a.matmul_nt(&d));
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        c.slice_rows_into(2, 6, &mut out);
        assert_eq!(out, c.slice_rows(2, 6));
        out.assign(&b);
        assert_eq!(out, b);
        let mut sums = vec![f32::NAN; 7];
        c.col_sums_into(&mut sums);
        assert_eq!(sums, c.col_sums());
        out.truncate_rows(2);
        assert_eq!(out, b.slice_rows(0, 2));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SeededRng::new(4);
        let a = Matrix::random_normal(5, 5, 0.0, 1.0, &mut rng);
        assert!(a.matmul(&Matrix::eye(5)).approx_eq(&a, 1e-6));
        assert!(Matrix::eye(5).matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SeededRng::new(5);
        let a = Matrix::random_normal(4, 7, 0.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut rng = SeededRng::new(6);
        let a = Matrix::random_normal(8, 3, 0.0, 1.0, &mut rng);
        let idx = vec![1, 4, 7];
        let g = a.gather_rows(&idx);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), a.row(1));
        let mut z = Matrix::zeros(8, 3);
        z.scatter_add_rows(&idx, &g);
        for r in 0..8 {
            if idx.contains(&r) {
                assert_eq!(z.row(r), a.row(r));
            } else {
                assert!(z.row(r).iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Matrix::zeros(2, 2);
        dst.scatter_add_rows(&[0, 0], &src);
        assert_eq!(dst.row(0), &[4.0, 6.0]);
        assert_eq!(dst.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_add_rows_slice_matches_matrix_form() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let idx = [2usize, 0, 2];
        let mut a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let mut b = a.clone();
        a.scatter_add_rows(&idx, &src);
        b.scatter_add_rows_slice(&idx, src.as_slice());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "src length mismatch")]
    fn scatter_add_rows_slice_rejects_bad_length() {
        let mut a = Matrix::zeros(2, 2);
        a.scatter_add_rows_slice(&[0], &[1.0]);
    }

    #[test]
    fn split_rows_inverts_vstack() {
        let mut rng = SeededRng::new(3);
        let a = Matrix::random_normal(4, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let (top, bottom) = a.vstack(&b).split_rows(4);
        assert_eq!(top, a);
        assert_eq!(bottom, b);
        // Degenerate splits.
        let (t, bot) = a.clone().split_rows(0);
        assert_eq!(t.shape(), (0, 3));
        assert_eq!(bot, a);
        let (t, bot) = a.clone().split_rows(4);
        assert_eq!(t, a);
        assert_eq!(bot.shape(), (0, 3));
    }

    #[test]
    fn hstack_and_split_cols_roundtrip() {
        let mut rng = SeededRng::new(7);
        let a = Matrix::random_normal(4, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(4, 2, 0.0, 1.0, &mut rng);
        let c = a.hstack(&b);
        assert_eq!(c.shape(), (4, 5));
        let (l, r) = c.split_cols(3);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn vstack_and_slice_rows_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0]]);
        let c = a.vstack(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.slice_rows(0, 2), a);
        assert_eq!(c.slice_rows(2, 3), b);
    }

    #[test]
    fn broadcast_and_reductions() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.sum(), 9.0);
        assert_eq!(m.col_sums(), vec![3.0, 6.0]);
        assert!((m.frobenius_norm() - (3.0f32 + 12.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.row(0), &[6.0, 12.0]);
        assert_eq!((&a + &b).row(0), &[11.0, 22.0]);
        assert_eq!((&b - &a).row(0), &[9.0, 18.0]);
        assert_eq!((&a * 3.0).row(0), &[3.0, 6.0]);
        assert_eq!(a.hadamard(&b).row(0), &[10.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f32::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(0, 0));
        assert!(!s.is_empty());
    }
}
