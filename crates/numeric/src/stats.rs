use serde::{Deserialize, Serialize};

use crate::{jacobi_eigen, Matrix, NumericError, Result};

/// Per-column mean of an `n x d` observation matrix.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] if `x` has no rows.
///
/// # Example
///
/// ```
/// use powerlens_numeric::{mean_columns, Matrix};
/// let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]).unwrap();
/// assert_eq!(mean_columns(&x).unwrap(), vec![2.0, 20.0]);
/// ```
pub fn mean_columns(x: &Matrix) -> Result<Vec<f64>> {
    if x.rows() == 0 {
        return Err(NumericError::Empty { op: "mean_columns" });
    }
    let n = x.rows() as f64;
    let mut mean = vec![0.0; x.cols()];
    for r in 0..x.rows() {
        for (c, m) in mean.iter_mut().enumerate() {
            *m += x[(r, c)];
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    Ok(mean)
}

/// Sample covariance matrix (`d x d`) of an `n x d` observation matrix.
///
/// Uses the unbiased `1/(n-1)` normalization when `n > 1` and falls back to a
/// zero matrix for a single observation (the Mahalanobis distance then
/// degenerates gracefully via the pseudo-inverse).
///
/// # Errors
///
/// Returns [`NumericError::Empty`] if `x` has no rows or no columns.
pub fn covariance(x: &Matrix) -> Result<Matrix> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(NumericError::Empty { op: "covariance" });
    }
    let d = x.cols();
    let mean = mean_columns(x)?;
    let mut cov = Matrix::zeros(d, d);
    if x.rows() < 2 {
        return Ok(cov);
    }
    let denom = (x.rows() - 1) as f64;
    for r in 0..x.rows() {
        for i in 0..d {
            let di = x[(r, i)] - mean[i];
            for j in i..d {
                let dj = x[(r, j)] - mean[j];
                cov[(i, j)] += di * dj / denom;
            }
        }
    }
    for i in 0..d {
        for j in 0..i {
            cov[(i, j)] = cov[(j, i)];
        }
    }
    Ok(cov)
}

/// Moore–Penrose pseudo-inverse of a symmetric matrix.
///
/// Computed via the Jacobi eigendecomposition: eigenvalues whose magnitude
/// falls below a relative tolerance are treated as zero (their reciprocal is
/// dropped), which is exactly the behaviour PowerLens needs when per-layer
/// features are collinear (e.g. a network whose layers all share a feature
/// value produces a singular covariance matrix).
///
/// # Errors
///
/// Propagates errors from [`jacobi_eigen`] (non-square, empty, non-finite
/// input or non-convergence).
pub fn pseudo_inverse(a: &Matrix) -> Result<Matrix> {
    let eig = jacobi_eigen(a)?;
    let n = a.rows();
    let max_val = eig.values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let tol = max_val * (n as f64) * 1e-12;
    let mut d = Matrix::zeros(n, n);
    for (i, &val) in eig.values.iter().enumerate() {
        d[(i, i)] = if val.abs() > tol { 1.0 / val } else { 0.0 };
    }
    eig.vectors.matmul(&d)?.matmul(&eig.vectors.transpose())
}

/// Mahalanobis distance between two feature vectors given the pseudo-inverse
/// `p` of the feature covariance matrix:
/// `sqrt((x - y)^T P (x - y))`.
///
/// Negative quadratic forms (possible only through floating-point noise when
/// `p` is a pseudo-inverse of a near-singular matrix) are clamped to zero.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if the vector lengths and `p`
/// disagree.
///
/// # Example
///
/// ```
/// use powerlens_numeric::{mahalanobis, Matrix};
/// let p = Matrix::identity(2); // identity covariance => Euclidean distance
/// let d = mahalanobis(&[0.0, 0.0], &[3.0, 4.0], &p).unwrap();
/// assert!((d - 5.0).abs() < 1e-12);
/// ```
pub fn mahalanobis(x: &[f64], y: &[f64], p: &Matrix) -> Result<f64> {
    if x.len() != y.len() || p.rows() != x.len() || p.cols() != x.len() {
        return Err(NumericError::DimensionMismatch {
            op: "mahalanobis",
            left: (x.len(), y.len()),
            right: (p.rows(), p.cols()),
        });
    }
    let diff: Vec<f64> = x.iter().zip(y).map(|(a, b)| a - b).collect();
    let pv = p.matvec(&diff)?;
    let q: f64 = diff.iter().zip(&pv).map(|(a, b)| a * b).sum();
    Ok(q.max(0.0).sqrt())
}

/// Euclidean distance between two equal-length vectors.
///
/// Runs the lane-chunked [`crate::kernels::squared_distance`] kernel, so
/// the sum is re-associated across lanes rather than taken in index order.
///
/// # Panics
///
/// Panics if the lengths differ.
///
/// # Example
///
/// ```
/// use powerlens_numeric::euclidean;
/// assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
/// ```
pub fn euclidean(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "euclidean: length mismatch");
    crate::kernels::squared_distance(x, y).sqrt()
}

/// Whitening transform factored from a positive semi-definite covariance
/// matrix.
///
/// From the Jacobi eigendecomposition `C = V·diag(λ)·Vᵀ` the pseudo-inverse
/// is `P = V·diag(1/λ)·Vᵀ` (eigenvalues at or below the numerical-rank
/// tolerance dropped). Factoring `P = W·Wᵀ` with `W = V·diag(1/sqrt(λ))`
/// turns the Mahalanobis quadratic form into a plain Euclidean norm over
/// whitened coordinates:
///
/// `sqrt((x-y)ᵀ P (x-y)) = ‖(x-y)·W‖`
///
/// so an all-pairs Mahalanobis distance over `n` rows of dimension `d`
/// costs O(n·d² + n²·d) after whitening each row once, instead of O(n²·d²)
/// with a per-pair [`mahalanobis`] call.
///
/// The rank tolerance (`max|λ|·d·1e-12`) matches [`pseudo_inverse`], and
/// eigenvalues of a PSD covariance matrix can only go negative through
/// floating-point noise below that tolerance, so whitened distances agree
/// with [`mahalanobis`] over `pseudo_inverse(C)` to within rounding error.
///
/// # Example
///
/// ```
/// use powerlens_numeric::{covariance, euclidean, mahalanobis, pseudo_inverse, Matrix, Whitener};
/// let x = Matrix::from_rows(&[
///     vec![1.0, 2.0],
///     vec![2.0, 4.1],
///     vec![3.0, 5.9],
/// ]).unwrap();
/// let cov = covariance(&x).unwrap();
/// let wh = Whitener::from_covariance(&cov).unwrap();
/// let z = wh.whiten(&x).unwrap();
/// let p = pseudo_inverse(&cov).unwrap();
/// let direct = mahalanobis(x.row(0), x.row(2), &p).unwrap();
/// let via_whitening = euclidean(z.row(0), z.row(2));
/// assert!((direct - via_whitening).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Whitener {
    /// `d x r` factor with `r = rank(C)`; whitened rows are `x · w`.
    w: Matrix,
}

impl Whitener {
    /// Factors the whitening matrix from a symmetric PSD covariance matrix.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`jacobi_eigen`] (non-square, empty,
    /// non-finite input or non-convergence).
    pub fn from_covariance(cov: &Matrix) -> Result<Whitener> {
        let eig = jacobi_eigen(cov)?;
        let d = cov.rows();
        let max_val = eig.values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let tol = max_val * (d as f64) * 1e-12;
        let kept: Vec<usize> = (0..d).filter(|&i| eig.values[i] > tol).collect();
        let mut w = Matrix::zeros(d, kept.len());
        for (c, &i) in kept.iter().enumerate() {
            let inv_sqrt = 1.0 / eig.values[i].sqrt();
            for r in 0..d {
                w[(r, c)] = eig.vectors[(r, i)] * inv_sqrt;
            }
        }
        Ok(Whitener { w })
    }

    /// Feature dimensionality `d` the whitener was fitted on.
    pub fn dim(&self) -> usize {
        self.w.rows()
    }

    /// Numerical rank `r` of the covariance matrix (whitened dimension).
    pub fn rank(&self) -> usize {
        self.w.cols()
    }

    /// Whitens every row of an `n x d` matrix, producing `n x r` whitened
    /// coordinates whose pairwise Euclidean distances equal Mahalanobis
    /// distances under the fitted covariance.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.cols() != self.dim()`.
    pub fn whiten(&self, x: &Matrix) -> Result<Matrix> {
        x.matmul(&self.w)
    }

    /// Whitens a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn whiten_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.w.rows() {
            return Err(NumericError::DimensionMismatch {
                op: "whiten_vec",
                left: (1, x.len()),
                right: (self.w.rows(), self.w.cols()),
            });
        }
        let mut out = vec![0.0; self.w.cols()];
        // One lane-chunked axpy per input coordinate: ascending `r` per
        // output element, the same order as the gemm behind `whiten`, so
        // vector and matrix whitening stay bit-identical.
        for (r, &xv) in x.iter().enumerate() {
            crate::kernels::axpy(&mut out, xv, self.w.row(r));
        }
        Ok(out)
    }
}

/// Column-wise z-score scaler fitted on a training matrix.
///
/// Columns with zero standard deviation are passed through centred but
/// unscaled (scale factor 1), so constant features do not produce NaN.
///
/// # Example
///
/// ```
/// use powerlens_numeric::{Matrix, Scaler};
/// let x = Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 5.0]]).unwrap();
/// let scaler = Scaler::fit(&x).unwrap();
/// let scaled = scaler.transform(&x).unwrap();
/// assert!((scaled[(0, 0)] + scaled[(1, 0)]).abs() < 1e-12); // centred
/// assert_eq!(scaled[(0, 1)], 0.0); // constant column centred to 0
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Scaler {
    /// Fits per-column mean and standard deviation on `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Empty`] if `x` has no rows.
    pub fn fit(x: &Matrix) -> Result<Scaler> {
        let mean = mean_columns(x)?;
        let mut var = vec![0.0; x.cols()];
        if x.rows() > 1 {
            let denom = (x.rows() - 1) as f64;
            for r in 0..x.rows() {
                for (c, v) in var.iter_mut().enumerate() {
                    let d = x[(r, c)] - mean[c];
                    *v += d * d / denom;
                }
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = v.sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Scaler { mean, std })
    }

    /// Applies the fitted scaling to a matrix with the same column count.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the column counts differ.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.mean.len() {
            return Err(NumericError::DimensionMismatch {
                op: "scaler_transform",
                left: (x.rows(), x.cols()),
                right: (1, self.mean.len()),
            });
        }
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                out[(r, c)] = (x[(r, c)] - self.mean[c]) / self.std[c];
            }
        }
        Ok(out)
    }

    /// Applies the fitted scaling to a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if lengths differ.
    pub fn transform_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.mean.len() {
            return Err(NumericError::DimensionMismatch {
                op: "scaler_transform_vec",
                left: (1, x.len()),
                right: (1, self.mean.len()),
            });
        }
        Ok(x.iter()
            .enumerate()
            .map(|(i, v)| (v - self.mean[i]) / self.std[i])
            .collect())
    }

    /// The fitted per-column means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The fitted per-column standard deviations (1.0 for constant columns).
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Reassembles a scaler from previously fitted parameters (e.g. loaded
    /// from a serialized model).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the lengths differ and
    /// [`NumericError::Empty`] if both are empty.
    pub fn from_parts(mean: Vec<f64>, std: Vec<f64>) -> Result<Scaler> {
        if mean.is_empty() {
            return Err(NumericError::Empty {
                op: "scaler_from_parts",
            });
        }
        if mean.len() != std.len() {
            return Err(NumericError::DimensionMismatch {
                op: "scaler_from_parts",
                left: (1, mean.len()),
                right: (1, std.len()),
            });
        }
        Ok(Scaler { mean, std })
    }
}

/// One-shot convenience: fits a [`Scaler`] on `x` and returns the transformed
/// matrix.
///
/// # Errors
///
/// Same as [`Scaler::fit`].
pub fn zscore_scale(x: &Matrix) -> Result<Matrix> {
    Scaler::fit(x)?.transform(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covariance_of_known_data() {
        // Perfectly correlated columns.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let c = covariance(&x).unwrap();
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn covariance_single_row_is_zero() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let c = covariance(&x).unwrap();
        assert_eq!(c, Matrix::zeros(2, 2));
    }

    #[test]
    fn pinv_of_invertible_matches_inverse() {
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]).unwrap();
        let p = pseudo_inverse(&a).unwrap();
        assert!((p[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((p[(1, 1)] - 0.25).abs() < 1e-12);
        assert!(p[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn pinv_of_singular_satisfies_penrose() {
        // Rank-1 symmetric matrix.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let p = pseudo_inverse(&a).unwrap();
        // A P A == A (first Penrose condition).
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((apa[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        // P A P == P (second Penrose condition).
        let pap = p.matmul(&a).unwrap().matmul(&p).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((pap[(i, j)] - p[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn pinv_of_zero_is_zero() {
        let z = Matrix::zeros(3, 3);
        let p = pseudo_inverse(&z).unwrap();
        assert_eq!(p, Matrix::zeros(3, 3));
    }

    #[test]
    fn mahalanobis_identity_is_euclidean() {
        let p = Matrix::identity(3);
        let d = mahalanobis(&[0.0, 0.0, 0.0], &[1.0, 2.0, 2.0], &p).unwrap();
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_scales_by_variance() {
        // High-variance dimension contributes less distance.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 35.0],
            vec![4.0, 38.0],
        ])
        .unwrap();
        let cov = covariance(&x).unwrap();
        let p = pseudo_inverse(&cov).unwrap();
        let d_small = mahalanobis(&[0.0, 0.0], &[1.0, 0.0], &p).unwrap();
        let d_large_dim = mahalanobis(&[0.0, 0.0], &[0.0, 1.0], &p).unwrap();
        assert!(
            d_large_dim < d_small,
            "unit step along high-variance axis must be shorter: {d_large_dim} vs {d_small}"
        );
    }

    #[test]
    fn mahalanobis_self_distance_zero() {
        let p = Matrix::identity(2);
        assert_eq!(mahalanobis(&[1.0, 2.0], &[1.0, 2.0], &p).unwrap(), 0.0);
    }

    #[test]
    fn mahalanobis_dim_mismatch() {
        let p = Matrix::identity(2);
        assert!(mahalanobis(&[1.0], &[1.0, 2.0], &p).is_err());
    }

    #[test]
    fn euclidean_known_values() {
        assert_eq!(euclidean(&[], &[]), 0.0);
        assert!((euclidean(&[1.0, 1.0], &[4.0, 5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn euclidean_length_mismatch_panics() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn whitened_distance_matches_mahalanobis() {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0, 1.0],
            vec![1.0, 10.0, 2.0],
            vec![2.0, 20.0, 2.5],
            vec![3.0, 35.0, 0.5],
            vec![4.0, 38.0, 1.5],
        ])
        .unwrap();
        let cov = covariance(&x).unwrap();
        let p = pseudo_inverse(&cov).unwrap();
        let wh = Whitener::from_covariance(&cov).unwrap();
        assert_eq!(wh.dim(), 3);
        let z = wh.whiten(&x).unwrap();
        assert_eq!(z.cols(), wh.rank());
        for i in 0..x.rows() {
            for j in 0..x.rows() {
                let direct = mahalanobis(x.row(i), x.row(j), &p).unwrap();
                let fast = euclidean(z.row(i), z.row(j));
                assert!(
                    (direct - fast).abs() < 1e-9,
                    "pair ({i},{j}): {direct} vs {fast}"
                );
            }
        }
    }

    #[test]
    fn whitener_drops_null_directions_of_singular_covariance() {
        // Two perfectly correlated columns: covariance has rank 1.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let cov = covariance(&x).unwrap();
        let wh = Whitener::from_covariance(&cov).unwrap();
        assert_eq!(wh.rank(), 1);
        let p = pseudo_inverse(&cov).unwrap();
        let z = wh.whiten(&x).unwrap();
        let direct = mahalanobis(x.row(0), x.row(2), &p).unwrap();
        assert!((euclidean(z.row(0), z.row(2)) - direct).abs() < 1e-9);
    }

    #[test]
    fn whitener_of_zero_covariance_has_rank_zero() {
        let wh = Whitener::from_covariance(&Matrix::zeros(2, 2)).unwrap();
        assert_eq!(wh.rank(), 0);
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let z = wh.whiten(&x).unwrap();
        assert_eq!((z.rows(), z.cols()), (2, 0));
        assert_eq!(euclidean(z.row(0), z.row(1)), 0.0);
    }

    #[test]
    fn whiten_vec_matches_matrix_whitening() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.1], vec![3.0, 5.9]]).unwrap();
        let wh = Whitener::from_covariance(&covariance(&x).unwrap()).unwrap();
        let z = wh.whiten(&x).unwrap();
        let zv = wh.whiten_vec(x.row(1)).unwrap();
        assert_eq!(zv.as_slice(), z.row(1));
        assert!(wh.whiten_vec(&[1.0]).is_err());
    }

    #[test]
    fn scaler_from_parts_validates() {
        let s = Scaler::from_parts(vec![1.0, 2.0], vec![1.0, 0.5]).unwrap();
        assert_eq!(s.transform_vec(&[1.0, 3.0]).unwrap(), vec![0.0, 2.0]);
        assert!(Scaler::from_parts(vec![], vec![]).is_err());
        assert!(Scaler::from_parts(vec![1.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn scaler_zero_mean_unit_variance() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let s = zscore_scale(&x).unwrap();
        let mean: f64 = (0..4).map(|r| s[(r, 0)]).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = (0..4).map(|r| s[(r, 0)].powi(2)).sum::<f64>() / 3.0;
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaler_constant_column_no_nan() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0]]).unwrap();
        let s = zscore_scale(&x).unwrap();
        assert!(s.all_finite());
        assert_eq!(s[(0, 0)], 0.0);
    }

    #[test]
    fn scaler_transform_vec_matches_matrix() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]).unwrap();
        let scaler = Scaler::fit(&x).unwrap();
        let m = scaler.transform(&x).unwrap();
        let v = scaler.transform_vec(&[1.0, 2.0]).unwrap();
        assert_eq!(v, vec![m[(0, 0)], m[(0, 1)]]);
        assert!(scaler.transform_vec(&[1.0]).is_err());
    }
}
