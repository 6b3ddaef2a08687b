use crate::{Error, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The factorization is computed once and can then be reused for multiple
/// solves, log-determinant queries and sampling transforms — exactly the
/// access pattern of Gaussian-process regression, where the kernel matrix is
/// factored once per fit and solved against many right-hand sides.
///
/// # Examples
///
/// ```
/// use hyperpower_linalg::Matrix;
///
/// # fn main() -> Result<(), hyperpower_linalg::Error> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let chol = a.cholesky()?;
/// // L is lower-triangular with positive diagonal.
/// assert!((chol.factor_l()[(0, 0)] - 5.0).abs() < 1e-12);
/// // log|A| via the factorization.
/// assert!(chol.log_det().is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle is stale.
    ///
    /// The factorization is the blocked right-looking algorithm in
    /// `crate::block`; it produces a factor bit-identical to the naive
    /// left-looking loop (pinned by `tests/reference_kernels.rs`), and on
    /// failure reports the same first bad pivot with the bit-identical
    /// pivot value.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] if `a` is not square.
    /// * [`Error::NonFiniteInput`] if the lower triangle of `a` contains NaN
    ///   or infinity.
    /// * [`Error::NotPositiveDefinite`] if a non-positive pivot arises.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let lower = i * n..=i * n + i;
            l.buf_mut()[lower.clone()].copy_from_slice(&a.as_slice()[lower]);
        }
        Cholesky::factor_in_place(l.buf_mut(), n)?;
        Ok(Cholesky { l })
    }

    /// Factors in place the symmetric positive-definite matrix whose lower
    /// triangle is stored in `buf`, a row-major n×n buffer: on success the
    /// lower triangle holds `L`. The strict upper triangle is ignored and
    /// left as it was.
    ///
    /// This is the factorization behind [`Cholesky::factor`], bit for bit.
    /// It exists for callers that factor many same-sized matrices, such as
    /// the GP hyper-parameter fit, and reuse one buffer for all of them.
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] if `buf.len() != n * n`.
    /// * [`Error::NonFiniteInput`] if the lower triangle contains NaN or
    ///   infinity.
    /// * [`Error::NotPositiveDefinite`] if a non-positive pivot arises.
    pub fn factor_in_place(buf: &mut [f64], n: usize) -> Result<()> {
        check_square_buffer(buf, n)?;
        let lower_finite = buf
            .chunks(n.max(1))
            .enumerate()
            .all(|(i, row)| row.iter().take(i + 1).all(|v| v.is_finite()));
        if !lower_finite {
            return Err(Error::NonFiniteInput);
        }
        crate::block::cholesky_factor(n, buf)
            .map_err(|(pivot, value)| Error::NotPositiveDefinite { pivot, value })?;
        // Inputs were checked above; this catches factor-internal
        // overflow/underflow before L escapes into GP solves.
        for (i, row) in buf.chunks(n.max(1)).enumerate() {
            crate::debug_assert_finite!("cholesky factor L", row.get(..=i).unwrap_or(row));
        }
        Ok(())
    }

    /// Solves `A·x = b` in place against a factor made by
    /// [`Cholesky::factor_in_place`] (forward then backward substitution,
    /// reading only the lower triangle of `factor`). Bit-identical to
    /// [`Cholesky::solve`] on the same factor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `factor.len() != n * n` or
    /// `b.len() != n`.
    pub fn solve_in_place(factor: &[f64], n: usize, b: &mut [f64]) -> Result<()> {
        check_square_buffer(factor, n)?;
        check_rhs_len(b, n)?;
        crate::block::solve_lower_multi(n, factor, 1, b);
        crate::block::solve_lower_transpose_multi(n, factor, 1, b);
        Ok(())
    }

    /// Factors `a + jitter·I`, escalating `jitter` by ×10 up to `max_tries`
    /// times if the matrix is numerically indefinite.
    ///
    /// This is the standard trick for kernel matrices that are positive
    /// definite in exact arithmetic but borderline in floating point.
    ///
    /// Returns the factorization together with the jitter that was actually
    /// applied.
    ///
    /// # Errors
    ///
    /// Propagates the last factorization error if all attempts fail.
    pub fn factor_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64)> {
        match Self::factor(a) {
            Ok(c) => return Ok((c, 0.0)),
            Err(Error::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        let mut jitter = initial_jitter;
        let mut last_err = Error::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for _ in 0..max_tries {
            let mut aj = a.clone();
            aj.add_diagonal(jitter);
            match Self::factor(&aj) {
                Ok(c) => return Ok((c, jitter)),
                Err(e) => {
                    last_err = e;
                    jitter *= 10.0;
                }
            }
        }
        Err(last_err)
    }

    /// The lower-triangular factor `L`.
    pub fn factor_l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b` using the factorization (forward then backward
    /// substitution).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        Cholesky::solve_in_place(self.l.as_slice(), self.dim(), &mut x)?;
        Ok(x)
    }

    /// Solves the lower-triangular system `L·y = b` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        check_rhs_len(b, n)?;
        let mut y = b.to_vec();
        crate::block::solve_lower_multi(n, self.l.as_slice(), 1, &mut y);
        Ok(y)
    }

    /// Solves the upper-triangular system `Lᵀ·x = y` (backward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `y.len() != self.dim()`.
    pub fn solve_lower_transpose(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        check_rhs_len(y, n)?;
        let mut x = y.to_vec();
        crate::block::solve_lower_transpose_multi(n, self.l.as_slice(), 1, &mut x);
        Ok(x)
    }

    /// Solves `L·Y = B` for every column of `B` in one blocked pass:
    /// column `j` of the result is `solve_lower(b.col(j))`, bit-for-bit.
    ///
    /// A row-major matrix with RHS in the columns is exactly the layout the
    /// multi-RHS kernel wants (components contiguous across right-hand
    /// sides), so each `L` panel row is loaded once and reused across all
    /// columns instead of once per column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_lower_columns(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::ShapeMismatch {
                expected: format!("rhs with {n} rows"),
                found: format!("rhs with {} rows", b.rows()),
            });
        }
        let mut y = b.clone();
        crate::block::solve_lower_multi(n, self.l.as_slice(), y.cols(), y.buf_mut());
        Ok(y)
    }

    /// Solves `A·X = B` for every column of `B` (forward then backward
    /// substitution, both multi-RHS; no per-column allocation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        let mut out = self.solve_lower_columns(b)?;
        crate::block::solve_lower_transpose_multi(n, self.l.as_slice(), out.cols(), out.buf_mut());
        Ok(out)
    }

    /// Natural logarithm of `det(A) = det(L)² = (∏ Lᵢᵢ)²`.
    pub fn log_det(&self) -> f64 {
        let log_pivots: Vec<f64> = (0..self.dim()).map(|i| self.l[(i, i)].ln()).collect();
        crate::vector::sum_ordered(&log_pivots) * 2.0
    }

    /// Reconstructs `A = L·Lᵀ` (mainly useful in tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| {
            (0..=i.min(j))
                .map(|k| self.l[(i, k)] * self.l[(j, k)])
                .sum()
        })
    }
}

fn check_square_buffer(buf: &[f64], n: usize) -> Result<()> {
    if n.checked_mul(n) != Some(buf.len()) {
        return Err(Error::ShapeMismatch {
            expected: format!("{n}x{n} buffer"),
            found: format!("buffer of length {}", buf.len()),
        });
    }
    Ok(())
}

fn check_rhs_len(b: &[f64], n: usize) -> Result<()> {
    if b.len() != n {
        return Err(Error::ShapeMismatch {
            expected: format!("rhs of length {n}"),
            found: format!("rhs of length {}", b.len()),
        });
    }
    Ok(())
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_known_matrix() {
        // Classic textbook example with exact integer factor.
        let c = spd3().cholesky().unwrap();
        let l = c.factor_l();
        let expected =
            Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[3.0, 3.0, 0.0], &[-1.0, 1.0, 3.0]]).unwrap();
        assert!(l.max_abs_diff(&expected).unwrap() < 1e-12);
    }

    #[test]
    fn reconstruct_roundtrip() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        assert!(c.reconstruct().max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn log_det_matches_product_of_pivots() {
        let c = spd3().cholesky().unwrap();
        // det = (5*3*3)^2 = 2025
        assert!((c.log_det() - 2025.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let err = a.cholesky().unwrap_err();
        assert!(matches!(err, Error::NotPositiveDefinite { pivot: 1, .. }));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a).unwrap_err(),
            Error::NotSquare { rows: 2, cols: 3 }
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::identity(2);
        a[(1, 0)] = f64::NAN;
        assert!(matches!(a.cholesky().unwrap_err(), Error::NonFiniteInput));
    }

    #[test]
    fn upper_triangle_is_not_read() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        let chol = a.cholesky().unwrap();
        assert_eq!(chol.factor_l(), &Matrix::identity(2));
    }

    #[test]
    fn jitter_recovers_borderline_matrix() {
        // Rank-deficient matrix: needs jitter to factor.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let (c, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn jitter_zero_for_well_conditioned() {
        let (_, jitter) = Cholesky::factor_with_jitter(&spd3(), 1e-10, 5).unwrap();
        assert_eq!(jitter, 0.0);
    }

    #[test]
    fn solve_matrix_identity_inverts() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let inv = c.solve_matrix(&Matrix::identity(3)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn in_place_entry_points_match_the_owned_factor() {
        let a = spd3();
        let chol = a.cholesky().unwrap();
        // The upper triangle is ignored on input and left as it was.
        let mut buf = a.as_slice().to_vec();
        buf[1] = f64::NAN;
        Cholesky::factor_in_place(&mut buf, 3).unwrap();
        assert!(buf[1].is_nan());
        for i in 0..3 {
            for j in 0..=i {
                assert_eq!(buf[i * 3 + j].to_bits(), chol.factor_l()[(i, j)].to_bits());
            }
        }
        let mut x = vec![1.0, -2.0, 0.5];
        Cholesky::solve_in_place(&buf, 3, &mut x).unwrap();
        let expected = chol.solve(&[1.0, -2.0, 0.5]).unwrap();
        assert_eq!(x, expected);
    }

    #[test]
    fn in_place_entry_points_reject_bad_shapes_and_values() {
        let mut buf = vec![1.0; 8];
        assert!(matches!(
            Cholesky::factor_in_place(&mut buf, 3),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Cholesky::solve_in_place(&buf, 3, &mut [0.0; 3]),
            Err(Error::ShapeMismatch { .. })
        ));
        let mut identity = Matrix::identity(2).as_slice().to_vec();
        assert!(matches!(
            Cholesky::solve_in_place(&identity, 2, &mut [0.0; 3]),
            Err(Error::ShapeMismatch { .. })
        ));
        identity[2] = f64::INFINITY;
        assert!(matches!(
            Cholesky::factor_in_place(&mut identity, 2),
            Err(Error::NonFiniteInput)
        ));
    }

    #[test]
    fn solve_wrong_length_rejected() {
        let c = spd3().cholesky().unwrap();
        assert!(c.solve(&[1.0, 2.0]).is_err());
    }
}
