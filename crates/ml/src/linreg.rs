//! Ordinary least squares via the normal equations.
//!
//! These are the "LR" baselines of §5.1. Coefficient vectors are exposed so
//! domain experts can read the model — the paper's stated reason for
//! preferring linear models.

use crate::error::MlError;
use crate::matrix::Matrix;
use crate::Regressor;

/// Ordinary least squares.
///
/// ```
/// use kea_ml::{LinearRegression, Regressor};
/// // y = 2 + 3x, exactly.
/// let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = (0..10).map(|i| 2.0 + 3.0 * i as f64).collect();
/// let model = LinearRegression::fit(&x, &y).unwrap();
/// assert!((model.intercept() - 2.0).abs() < 1e-9);
/// assert!((model.coefficients()[0] - 3.0).abs() < 1e-9);
/// assert!((model.predict_row(&[4.0]) - 14.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    intercept: f64,
    coefficients: Vec<f64>,
}

impl LinearRegression {
    /// Fits OLS with an intercept by solving the normal equations
    /// `XᵀX β = Xᵀy` over the intercept-augmented design.
    ///
    /// # Errors
    /// Shapes must agree, inputs must be finite, and the design must be
    /// full-rank with at least as many rows as coefficients.
    pub fn fit(x_rows: &[Vec<f64>], y: &[f64]) -> Result<Self, MlError> {
        if x_rows.len() != y.len() {
            return Err(MlError::ShapeMismatch {
                x_rows: x_rows.len(),
                y_len: y.len(),
            });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteInput);
        }
        // Validate row widths up front: a ragged input should be a typed
        // error here, not a failure (or panic) deep in the matrix layer.
        let p = crate::error::check_rectangular(x_rows)? + 1;
        if x_rows.len() < p {
            return Err(MlError::InsufficientData {
                required: p,
                actual: x_rows.len(),
            });
        }

        let design: Vec<Vec<f64>> = x_rows
            .iter()
            .map(|r| {
                let mut row = Vec::with_capacity(p);
                row.push(1.0);
                row.extend_from_slice(r);
                row
            })
            .collect();
        let x = Matrix::from_rows(&design)?;
        let xt = x.transpose();
        let beta = xt.matmul(&x)?.solve(&xt.matvec(y)?)?;
        let (intercept, coefficients) = (beta[0], beta[1..].to_vec()); // kea-lint: allow(index-in-library) — beta has 1 + n_features entries by construction
        Ok(LinearRegression {
            intercept,
            coefficients,
        })
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope coefficients (one per feature).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

impl Regressor for LinearRegression {
    fn predict_row(&self, features: &[f64]) -> f64 {
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(features)
                .map(|(c, x)| c * x)
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_line(n: usize, a: f64, b: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| a + b * i as f64).collect();
        (x, y)
    }

    #[test]
    fn recovers_exact_line() {
        let (x, y) = exact_line(20, -1.5, 0.75);
        let m = LinearRegression::fit(&x, &y).unwrap();
        assert!((m.intercept() + 1.5).abs() < 1e-9);
        assert!((m.coefficients()[0] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn recovers_multivariate_plane() {
        // y = 1 + 2a − 3b
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 5) as f64, (i % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 1.0 + 2.0 * r[0] - 3.0 * r[1]).collect();
        let m = LinearRegression::fit(&x, &y).unwrap();
        assert!((m.intercept() - 1.0).abs() < 1e-8);
        assert!((m.coefficients()[0] - 2.0).abs() < 1e-8);
        assert!((m.coefficients()[1] + 3.0).abs() < 1e-8);
    }

    #[test]
    fn least_squares_minimizes_residuals_on_noisy_data() {
        // OLS residuals must be orthogonal to the regressors.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50)
            .map(|i| 3.0 + 0.5 * i as f64 + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let m = LinearRegression::fit(&x, &y).unwrap();
        let resid: Vec<f64> = x
            .iter()
            .zip(&y)
            .map(|(r, &t)| t - m.predict_row(r))
            .collect();
        let sum: f64 = resid.iter().sum();
        let dot: f64 = resid.iter().zip(&x).map(|(r, xr)| r * xr[0]).sum();
        assert!(sum.abs() < 1e-8, "residuals must sum to ~0, got {sum}");
        assert!(dot.abs() < 1e-6, "residuals ⟂ x violated, got {dot}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let x = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            LinearRegression::fit(&x, &[1.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn ragged_rows_rejected_up_front() {
        let x = vec![vec![1.0], vec![2.0, 9.0], vec![3.0]];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(
            LinearRegression::fit(&x, &y),
            Err(MlError::RaggedRows {
                expected: 1,
                row: 1,
                actual: 2
            })
        );
    }

    #[test]
    fn underdetermined_rejected() {
        // 2 coefficients (intercept + slope) but 1 row.
        assert!(matches!(
            LinearRegression::fit(&[vec![1.0]], &[1.0]),
            Err(MlError::InsufficientData { .. })
        ));
    }

    #[test]
    fn collinear_features_detected() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(LinearRegression::fit(&x, &y), Err(MlError::SingularSystem));
    }

    #[test]
    fn nan_target_rejected() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        assert_eq!(
            LinearRegression::fit(&x, &[1.0, f64::NAN, 3.0]),
            Err(MlError::NonFiniteInput)
        );
    }

    #[test]
    fn batch_predict_matches_row_predict() {
        let (x, y) = exact_line(10, 1.0, 2.0);
        let m = LinearRegression::fit(&x, &y).unwrap();
        let batch = m.predict(&x);
        for (b, r) in batch.iter().zip(&x) {
            assert_eq!(*b, m.predict_row(r));
        }
    }
}
