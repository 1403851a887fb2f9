//! Huber robust regression fitted with IRLS.
//!
//! §5.2.1: "We used a Huber Regressor for the prediction of the set of
//! performance metrics in the What-if Engine, which is more robust to
//! outliers compared to the Least Squares Regression." Cluster telemetry is
//! full of outliers — machines draining for repair, transient hot spots —
//! so robustness is not optional.
//!
//! The estimator minimizes `Σ ρ_δ(r_i / s)` where `ρ_δ` is the Huber loss
//! (quadratic within `δ`, linear outside) and `s` is a robust scale
//! estimate. We fit by iteratively reweighted least squares: at each step,
//! observations with standardized residual beyond `δ` get down-weighted by
//! `δ·s/|r|`, then a weighted least-squares problem is solved in closed
//! form. Scale is re-estimated each iteration from the median absolute
//! deviation (MAD).

// kea-lint: allow-file(index-in-library) — IRLS over a design matrix validated rectangular at entry

use crate::error::MlError;
use crate::matrix::Matrix;
use crate::Regressor;

/// Configuration and result of a Huber regression fit.
///
/// ```
/// use kea_ml::{HuberRegressor, Regressor};
/// // y = 1 + 2x with one gross outlier; Huber shrugs it off.
/// let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = (0..30)
///     .map(|i| 1.0 + 2.0 * i as f64 + if i == 7 { 500.0 } else { 0.0 })
///     .collect();
/// let model = HuberRegressor::fit(&x, &y).unwrap();
/// assert!((model.coefficients()[0] - 2.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HuberRegressor {
    intercept: f64,
    coefficients: Vec<f64>,
    delta: f64,
    scale: f64,
    iterations: usize,
    converged: bool,
}

/// MAD-based robust scale, scaled to be consistent with the standard
/// deviation under normality (factor 1.4826).
fn mad_scale(residuals: &[f64]) -> f64 {
    let mut abs: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
    abs.sort_by(f64::total_cmp);
    let n = abs.len();
    let median = if n % 2 == 1 {
        abs[n / 2]
    } else {
        0.5 * (abs[n / 2 - 1] + abs[n / 2])
    };
    1.4826 * median
}

/// Solves weighted least squares `(Xᵀ W X) β = Xᵀ W y` with an intercept
/// column prepended to `x_rows`.
fn weighted_ls(x_rows: &[Vec<f64>], y: &[f64], w: &[f64]) -> Result<Vec<f64>, MlError> {
    let p = x_rows[0].len() + 1;
    let mut xtwx = Matrix::zeros(p, p);
    let mut xtwy = vec![0.0; p];
    let mut row = vec![0.0; p];
    for ((xr, &yi), &wi) in x_rows.iter().zip(y).zip(w) {
        row[0] = 1.0;
        // kea-lint: allow(panic-method-in-library) — check_rectangular at entry guarantees every row has p-1 features
        row[1..].copy_from_slice(xr);
        for i in 0..p {
            let wxi = wi * row[i];
            xtwy[i] += wxi * yi;
            for (j, &rj) in row.iter().enumerate().skip(i) {
                let v = xtwx.get(i, j) + wxi * rj;
                xtwx.set(i, j, v);
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..p {
        for j in (i + 1)..p {
            let v = xtwx.get(i, j);
            xtwx.set(j, i, v);
        }
    }
    xtwx.solve(&xtwy)
}

impl HuberRegressor {
    /// Default Huber threshold; 1.345 gives 95% efficiency under normal
    /// errors (the standard choice, also scikit-learn's default modulo its
    /// different parameterization).
    pub const DEFAULT_DELTA: f64 = 1.345;

    /// IRLS iteration budget of [`HuberRegressor::fit`].
    pub(crate) const DEFAULT_MAX_ITER: usize = 100;

    /// Max-coefficient-change tolerance of [`HuberRegressor::fit`].
    pub(crate) const DEFAULT_TOL: f64 = 1e-8;

    /// Fits with the default threshold and iteration budget.
    ///
    /// # Errors
    /// See [`HuberRegressor::fit_with`].
    pub fn fit(x_rows: &[Vec<f64>], y: &[f64]) -> Result<Self, MlError> {
        Self::fit_with(
            x_rows,
            y,
            Self::DEFAULT_DELTA,
            Self::DEFAULT_MAX_ITER,
            Self::DEFAULT_TOL,
        )
    }

    /// Fits a Huber regression with threshold `delta` (in robust standard
    /// deviations), at most `max_iter` IRLS iterations, declaring
    /// convergence when the max coefficient change drops below `tol`.
    /// If the budget runs out (rare; degenerate leverage configurations
    /// such as near-vertical clouds from saturated telemetry) the last
    /// iterate is returned with [`HuberRegressor::converged`] = `false` —
    /// a telemetry pipeline must degrade, not fall over.
    ///
    /// # Errors
    /// Shapes must agree, inputs must be finite, `delta` positive.
    pub fn fit_with(
        x_rows: &[Vec<f64>],
        y: &[f64],
        delta: f64,
        max_iter: usize,
        tol: f64,
    ) -> Result<Self, MlError> {
        if !delta.is_finite() || delta <= 0.0 {
            return Err(MlError::InvalidParameter("delta must be positive"));
        }
        if max_iter == 0 {
            return Err(MlError::InvalidParameter("max_iter must be positive"));
        }
        if x_rows.len() != y.len() {
            return Err(MlError::ShapeMismatch {
                x_rows: x_rows.len(),
                y_len: y.len(),
            });
        }
        // Ragged rows would otherwise panic in `weighted_ls`'s
        // `copy_from_slice`.
        let n_features = crate::error::check_rectangular(x_rows)?;
        let p = n_features + 1;
        if x_rows.len() < p {
            return Err(MlError::InsufficientData {
                required: p,
                actual: x_rows.len(),
            });
        }
        if x_rows.iter().flatten().any(|v| !v.is_finite()) || y.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteInput);
        }

        // Start from OLS (unit weights).
        let mut w = vec![1.0; y.len()];
        let mut beta = weighted_ls(x_rows, y, &w)?;
        let mut scale;
        let mut last_scale = 0.0;

        for iter in 1..=max_iter {
            // Residuals under current coefficients.
            let residuals: Vec<f64> = x_rows
                .iter()
                .zip(y)
                .map(|(xr, &yi)| {
                    let pred: f64 =
                        beta[0] + beta[1..].iter().zip(xr).map(|(b, x)| b * x).sum::<f64>();
                    yi - pred
                })
                .collect();
            scale = mad_scale(&residuals);
            if scale < 1e-12 {
                // Perfect (or near-perfect) fit for over half the data; the
                // Huber solution is the current one.
                return Ok(HuberRegressor {
                    intercept: beta[0],
                    coefficients: beta[1..].to_vec(),
                    delta,
                    scale: 0.0,
                    iterations: iter,
                    converged: true,
                });
            }
            let threshold = delta * scale;
            for (wi, r) in w.iter_mut().zip(&residuals) {
                let a = r.abs();
                *wi = if a <= threshold { 1.0 } else { threshold / a };
            }
            let next = weighted_ls(x_rows, y, &w)?;
            let max_change = next
                .iter()
                .zip(&beta)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            beta = next;
            if max_change < tol {
                return Ok(HuberRegressor {
                    intercept: beta[0],
                    coefficients: beta[1..].to_vec(),
                    delta,
                    scale,
                    iterations: iter,
                    converged: true,
                });
            }
            last_scale = scale;
        }
        Ok(HuberRegressor {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
            delta,
            scale: last_scale,
            iterations: max_iter,
            converged: false,
        })
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Robust residual scale (MAD-based) at convergence.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// IRLS iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Huber threshold in robust standard deviations.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Whether IRLS converged within the iteration budget. A `false`
    /// here flags a degenerate fit the caller may want to inspect.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

impl Regressor for HuberRegressor {
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
    use crate::linreg::LinearRegression;

    fn noisy_line_with_outliers() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10 + 2x with small deterministic noise, plus 10% gross
        // outliers (telemetry from draining machines).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let xi = i as f64 * 0.5;
            let noise = ((i * 37) % 11) as f64 * 0.02 - 0.1;
            let yi = if i % 10 == 3 {
                // Gross outlier.
                10.0 + 2.0 * xi + 80.0
            } else {
                10.0 + 2.0 * xi + noise
            };
            x.push(vec![xi]);
            y.push(yi);
        }
        (x, y)
    }

    #[test]
    fn exact_line_recovered() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 5.0 - 0.5 * i as f64).collect();
        let m = HuberRegressor::fit(&x, &y).unwrap();
        assert!((m.intercept() - 5.0).abs() < 1e-6);
        assert!((m.coefficients()[0] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn robust_to_gross_outliers_where_ols_is_not() {
        let (x, y) = noisy_line_with_outliers();
        let huber = HuberRegressor::fit(&x, &y).unwrap();
        let ols = LinearRegression::fit(&x, &y).unwrap();
        // Huber slope should be very close to the true 2.0; OLS is pulled
        // away by the +80 outliers.
        let huber_err = (huber.coefficients()[0] - 2.0).abs();
        let ols_err = (ols.coefficients()[0] - 2.0).abs();
        assert!(huber_err < 0.05, "huber slope err {huber_err}");
        assert!(
            huber.intercept() - 10.0 < 1.0,
            "huber intercept {}",
            huber.intercept()
        );
        assert!(
            huber_err < ols_err,
            "huber ({huber_err}) should beat OLS ({ols_err})"
        );
        // OLS intercept is biased upward by roughly outlier_mass ≈ 8.
        assert!(ols.intercept() > huber.intercept() + 2.0);
    }

    #[test]
    fn multivariate_huber() {
        // y = 1 + 2a + 3b with a few outliers.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let a = (i % 6) as f64;
            let b = (i % 5) as f64;
            let mut yi = 1.0 + 2.0 * a + 3.0 * b + ((i * 13) % 7) as f64 * 0.01;
            if i % 15 == 7 {
                yi += 50.0;
            }
            x.push(vec![a, b]);
            y.push(yi);
        }
        let m = HuberRegressor::fit(&x, &y).unwrap();
        assert!((m.coefficients()[0] - 2.0).abs() < 0.1);
        assert!((m.coefficients()[1] - 3.0).abs() < 0.1);
    }

    #[test]
    fn perfect_fit_short_circuits() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 3.0 * i as f64).collect();
        let m = HuberRegressor::fit(&x, &y).unwrap();
        assert_eq!(m.scale(), 0.0);
        assert!((m.coefficients()[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = [1.0, 2.0, 3.0];
        assert!(HuberRegressor::fit_with(&x, &y, 0.0, 10, 1e-8).is_err());
        assert!(HuberRegressor::fit_with(&x, &y, -1.0, 10, 1e-8).is_err());
        assert!(HuberRegressor::fit_with(&x, &y, 1.345, 0, 1e-8).is_err());
    }

    #[test]
    fn shape_and_finiteness_checked() {
        assert!(matches!(
            HuberRegressor::fit(&[vec![1.0], vec![2.0]], &[1.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
        assert_eq!(
            HuberRegressor::fit(&[vec![1.0], vec![f64::NAN], vec![2.0]], &[1.0, 2.0, 3.0]),
            Err(MlError::NonFiniteInput)
        );
    }

    #[test]
    fn ragged_rows_are_an_error_not_a_panic() {
        // Historical panic: row 2 is wider than row 0, and
        // `weighted_ls` copied it into a row-0-sized buffer.
        let x = vec![vec![1.0], vec![2.0], vec![3.0, 4.0], vec![5.0]];
        let y = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            HuberRegressor::fit(&x, &y),
            Err(MlError::RaggedRows {
                expected: 1,
                row: 2,
                actual: 2
            })
        );
        // Narrower rows must be caught too (they would silently predict
        // with stale buffer contents rather than panic).
        let x = vec![vec![1.0, 1.0], vec![2.0], vec![3.0, 4.0]];
        let y = [1.0, 2.0, 3.0];
        assert!(matches!(
            HuberRegressor::fit(&x, &y),
            Err(MlError::RaggedRows { row: 1, .. })
        ));
    }

    #[test]
    fn iterations_reported() {
        let (x, y) = noisy_line_with_outliers();
        let m = HuberRegressor::fit(&x, &y).unwrap();
        assert!(m.iterations() >= 1);
        assert!(m.scale() > 0.0);
        assert_eq!(m.delta(), HuberRegressor::DEFAULT_DELTA);
    }

    #[test]
    fn larger_delta_approaches_ols() {
        let (x, y) = noisy_line_with_outliers();
        let ols = LinearRegression::fit(&x, &y).unwrap();
        // With an enormous delta nothing is down-weighted: Huber == OLS.
        let huber = HuberRegressor::fit_with(&x, &y, 1e9, 100, 1e-10).unwrap();
        assert!((huber.coefficients()[0] - ols.coefficients()[0]).abs() < 1e-6);
        assert!((huber.intercept() - ols.intercept()).abs() < 1e-6);
    }
}
