//! Univariate linear models with exact inverses.
//!
//! Every calibrated model in the paper's equations (1)–(6) and (11)–(12) is
//! a univariate map between two machine-group metrics: containers → CPU
//! utilization (`g_k`), utilization → tasks/hour (`h_k`), utilization →
//! task latency (`f_k`), cores → SSD (`p`), cores → RAM (`q`). The SKU
//! design optimizer additionally needs the inverse maps `p⁻¹`, `q⁻¹`
//! (§6.1, step 2). [`LinearModel1D`] packages a fitted line with its
//! inverse and provenance.

use crate::error::MlError;
use crate::huber::HuberRegressor;
use crate::metrics::r2_of;
use crate::Regressor;

/// Which estimator produced a [`LinearModel1D`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Ordinary least squares.
    Ols,
    /// Huber robust regression (the paper's default for the What-if Engine).
    Huber,
    /// Parameters supplied directly rather than fitted.
    Manual,
}

/// A univariate linear model `y = intercept + slope·x`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel1D {
    intercept: f64,
    slope: f64,
    estimator: Estimator,
    n_obs: usize,
}

impl LinearModel1D {
    /// Fits by OLS.
    ///
    /// Solves the 2×2 normal equations inline. The result is bit-identical
    /// to [`LinearRegression::fit`](crate::LinearRegression::fit) on the same column, which stays the
    /// multivariate reference.
    ///
    /// # Errors
    /// Needs at least two finite observations with varying `x`. Errors
    /// match [`LinearRegression::fit`](crate::LinearRegression::fit)'s, in the same order.
    pub fn fit_ols(x: &[f64], y: &[f64]) -> Result<Self, MlError> {
        if x.len() != y.len() {
            return Err(MlError::ShapeMismatch {
                x_rows: x.len(),
                y_len: y.len(),
            });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteInput);
        }
        check_two_rows(x.len())?;
        if x.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteInput);
        }
        // `LinearRegression` forms XᵀX with `Matrix::matmul`, whose sums
        // start at +0.0, and Xᵀy with `Iterator::sum`, which starts at
        // −0.0. Starting each sum where the oracle does keeps the sign
        // of an all-zero sum, and with it the bits of the result.
        let (mut n, mut sx, mut sxx) = (0.0, 0.0, 0.0);
        let (mut sy, mut sxy) = (-0.0, -0.0);
        for (&xi, &yi) in x.iter().zip(y) {
            n += 1.0;
            sx += xi;
            sxx += xi * xi;
            sy += yi;
            sxy += xi * yi;
        }
        let (intercept, slope) = solve_2x2([[n, sx], [sx, sxx]], [sy, sxy])?;
        Ok(LinearModel1D {
            intercept,
            slope,
            estimator: Estimator::Ols,
            n_obs: x.len(),
        })
    }

    /// Fits by Huber robust regression (the paper's choice, §5.2.1).
    ///
    /// Runs IRLS on the two columns directly, without per-row
    /// allocations. The result is bit-identical to [`HuberRegressor::fit`]
    /// on the same column, which stays the multivariate reference. Like
    /// the oracle, it never fails for want of convergence: when the
    /// iteration budget runs out it returns the last iterate.
    ///
    /// # Errors
    /// Needs at least two finite observations with varying `x`. Errors
    /// match [`HuberRegressor::fit`]'s, in the same order; a weighted
    /// system that turns singular mid-iteration is
    /// [`MlError::SingularSystem`].
    pub fn fit_huber(x: &[f64], y: &[f64]) -> Result<Self, MlError> {
        let (intercept, slope) = huber_line(
            x,
            y,
            HuberRegressor::DEFAULT_DELTA,
            HuberRegressor::DEFAULT_MAX_ITER,
            HuberRegressor::DEFAULT_TOL,
        )?;
        Ok(LinearModel1D {
            intercept,
            slope,
            estimator: Estimator::Huber,
            n_obs: x.len(),
        })
    }

    /// Builds a model from known parameters.
    pub fn from_parameters(intercept: f64, slope: f64) -> Self {
        LinearModel1D {
            intercept,
            slope,
            estimator: Estimator::Manual,
            n_obs: 0,
        }
    }

    /// Intercept (`α` in the paper's Equations 11–12).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Slope (`β` in the paper's Equations 11–12).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Which estimator produced this model.
    pub fn estimator(&self) -> Estimator {
        self.estimator
    }

    /// Number of observations the model was fitted on (0 for manual).
    pub fn n_obs(&self) -> usize {
        self.n_obs
    }

    /// Forward prediction `y = intercept + slope·x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Training R² of this line on `(x, y)`: [`r2_score`](crate::r2_score) of `y` against
    /// [`LinearModel1D::predict`] over `x`, computed without a prediction
    /// buffer.
    ///
    /// # Errors
    /// Same as [`r2_score`](crate::r2_score).
    pub fn r2_score(&self, x: &[f64], y: &[f64]) -> Result<f64, MlError> {
        if x.len() != y.len() {
            return Err(MlError::ShapeMismatch {
                x_rows: x.len(),
                y_len: y.len(),
            });
        }
        r2_of(y, || x.iter().map(|&v| self.predict(v)))
    }

    /// Exact inverse `x = (y − intercept) / slope` — the `p⁻¹`, `q⁻¹` of
    /// §6.1.
    ///
    /// # Errors
    /// The slope must be non-zero for the inverse to exist.
    pub fn inverse(&self, y: f64) -> Result<f64, MlError> {
        if self.slope == 0.0 {
            return Err(MlError::InvalidParameter(
                "inverse undefined for zero slope",
            ));
        }
        Ok((y - self.intercept) / self.slope)
    }
}

impl Regressor for LinearModel1D {
    fn predict_row(&self, features: &[f64]) -> f64 {
        self.predict(features.first().copied().unwrap_or(f64::NAN))
    }
}

/// The oracles' row-count check for a one-feature design: two rows are
/// needed, except that an empty design has no feature column, so
/// [`HuberRegressor`] and [`LinearRegression`](crate::LinearRegression) ask for one row.
fn check_two_rows(n: usize) -> Result<(), MlError> {
    match n {
        0 => Err(MlError::InsufficientData {
            required: 1,
            actual: 0,
        }),
        1 => Err(MlError::InsufficientData {
            required: 2,
            actual: 1,
        }),
        _ => Ok(()),
    }
}

/// Solves `a · (b0, b1) = r` with the operations `Matrix::solve` performs
/// on a 2×2 system: partial pivot on column 0, the same `< 1e-12`
/// singularity test on each pivot, elimination skipped on a zero factor,
/// then back substitution.
fn solve_2x2(a: [[f64; 2]; 2], r: [f64; 2]) -> Result<(f64, f64), MlError> {
    let [[mut a00, mut a01], [mut a10, mut a11]] = a;
    let [mut r0, mut r1] = r;
    if a10.abs() > a00.abs() {
        std::mem::swap(&mut a00, &mut a10);
        std::mem::swap(&mut a01, &mut a11);
        std::mem::swap(&mut r0, &mut r1);
    }
    if a00.abs() < 1e-12 {
        return Err(MlError::SingularSystem);
    }
    let factor = a10 / a00;
    if factor != 0.0 {
        a11 -= factor * a01;
        r1 -= factor * r0;
    }
    if a11.abs() < 1e-12 {
        return Err(MlError::SingularSystem);
    }
    let b1 = r1 / a11;
    Ok(((r0 - a01 * b1) / a00, b1))
}

/// Weighted least-squares line `y ≈ b0 + b1·x`: the sums of the
/// oracle's `weighted_ls` over the design `[1, x]`, in row order, each
/// starting at +0.0.
fn weighted_line(x: &[f64], y: &[f64], w: &[f64]) -> Result<(f64, f64), MlError> {
    let (mut sw, mut swx, mut swxx, mut swy, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for ((&xi, &yi), &wi) in x.iter().zip(y).zip(w) {
        let wx = wi * xi;
        sw += wi;
        swx += wx;
        swxx += wx * xi;
        swy += wi * yi;
        swxy += wx * yi;
    }
    solve_2x2([[sw, swx], [swx, swxx]], [swy, swxy])
}

/// Median of non-empty `v`, reordering it. For even lengths it averages
/// the selected upper middle with the largest value below it, which is
/// the pair a full `total_cmp` sort would put in the middle.
fn median_in_place(v: &mut [f64]) -> f64 {
    let (mid, odd) = (v.len() / 2, v.len() % 2 == 1);
    let (lower, &mut upper, _) = v.select_nth_unstable_by(mid, f64::total_cmp);
    if odd {
        return upper;
    }
    lower
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .map_or(upper, |below| 0.5 * (below + upper))
}

/// `HuberRegressor::fit_with` for one feature, returning
/// `(intercept, slope)`: the same validation order, the same IRLS
/// arithmetic, the same `scale < 1e-12` short-circuit and max-change
/// stopping rule, and the last iterate when `max_iter` runs out. Three
/// n-length buffers (weights, |residuals| in row order, and a copy the
/// MAD selection reorders) live across iterations.
fn huber_line(
    x: &[f64],
    y: &[f64],
    delta: f64,
    max_iter: usize,
    tol: f64,
) -> Result<(f64, f64), MlError> {
    if !delta.is_finite() || delta <= 0.0 {
        return Err(MlError::InvalidParameter("delta must be positive"));
    }
    if max_iter == 0 {
        return Err(MlError::InvalidParameter("max_iter must be positive"));
    }
    if x.len() != y.len() {
        return Err(MlError::ShapeMismatch {
            x_rows: x.len(),
            y_len: y.len(),
        });
    }
    check_two_rows(x.len())?;
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err(MlError::NonFiniteInput);
    }

    // Start from OLS (unit weights).
    let mut w = vec![1.0; y.len()];
    let mut abs_res = vec![0.0; y.len()];
    let mut select = Vec::with_capacity(y.len());
    let (mut b0, mut b1) = weighted_line(x, y, &w)?;
    for _ in 0..max_iter {
        for ((a, &xi), &yi) in abs_res.iter_mut().zip(x).zip(y) {
            *a = (yi - (b0 + b1 * xi)).abs();
        }
        select.clear();
        select.extend_from_slice(&abs_res);
        // MAD scale, consistent with the standard deviation under
        // normality.
        let scale = 1.4826 * median_in_place(&mut select);
        if scale < 1e-12 {
            break;
        }
        let threshold = delta * scale;
        for (wi, &a) in w.iter_mut().zip(&abs_res) {
            *wi = if a <= threshold { 1.0 } else { threshold / a };
        }
        let (n0, n1) = weighted_line(x, y, &w)?;
        let max_change = 0.0_f64.max((n0 - b0).abs()).max((n1 - b1).abs());
        (b0, b1) = (n0, n1);
        if max_change < tol {
            break;
        }
    }
    Ok((b0, b1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearRegression;

    fn column(x: &[f64]) -> Vec<Vec<f64>> {
        x.iter().map(|&v| vec![v]).collect()
    }

    fn bits(m: &LinearModel1D) -> (u64, u64) {
        (m.intercept().to_bits(), m.slope().to_bits())
    }

    fn huber_oracle(x: &[f64], y: &[f64]) -> Result<(u64, u64), MlError> {
        let m = HuberRegressor::fit(&column(x), y)?;
        Ok((m.intercept().to_bits(), m.coefficients()[0].to_bits()))
    }

    fn ols_oracle(x: &[f64], y: &[f64]) -> Result<(u64, u64), MlError> {
        let m = LinearRegression::fit(&column(x), y)?;
        Ok((m.intercept().to_bits(), m.coefficients()[0].to_bits()))
    }

    /// A noisy line with every `outlier_every`-th row pushed far off it;
    /// `step` > 0 rounds y onto a grid so many |residuals| tie.
    fn sample(n: usize, seed: u64, outlier_every: usize, step: f64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let xi = 20.0 * next();
            let mut yi = 3.0 - 1.7 * xi + next() - 0.5;
            if outlier_every > 0 && i % outlier_every == outlier_every / 2 {
                yi += 200.0 * next();
            }
            if step > 0.0 {
                yi = (yi / step).round() * step;
            }
            x.push(if step > 0.0 { xi.round() } else { xi });
            y.push(yi);
        }
        (x, y)
    }

    #[test]
    fn fit_huber_is_bit_identical_to_the_oracle() {
        let mut cases = 0;
        for n in [2, 3, 4, 5, 17, 64, 101, 1000] {
            for (seed, outlier_every, step) in [(1, 0, 0.0), (2, 4, 0.0), (3, 10, 0.0), (4, 5, 0.5)]
            {
                let (x, y) = sample(n, seed * 7919 + n as u64, outlier_every, step);
                match LinearModel1D::fit_huber(&x, &y) {
                    Ok(m) => {
                        assert_eq!(Ok(bits(&m)), huber_oracle(&x, &y), "n={n} seed={seed}");
                        cases += 1;
                    }
                    Err(e) => assert_eq!(Err(e), huber_oracle(&x, &y), "n={n} seed={seed}"),
                }
            }
        }
        assert!(cases >= 28, "only {cases} inputs were fittable");
    }

    #[test]
    fn fit_huber_perfect_line_takes_the_scale_short_circuit() {
        let x: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 2.0).collect();
        let oracle = HuberRegressor::fit(&column(&x), &y).unwrap();
        assert_eq!(oracle.scale(), 0.0, "the oracle short-circuits here");
        let m = LinearModel1D::fit_huber(&x, &y).unwrap();
        assert_eq!(Ok(bits(&m)), huber_oracle(&x, &y));
        assert_eq!(m.estimator(), Estimator::Huber);
        assert_eq!(m.n_obs(), 11);
    }

    #[test]
    fn huber_line_returns_the_same_last_iterate_when_the_budget_runs_out() {
        let (x, y) = sample(301, 99, 3, 0.0);
        for max_iter in 1..=3 {
            let oracle = HuberRegressor::fit_with(&column(&x), &y, 1.345, max_iter, 1e-8).unwrap();
            assert!(!oracle.converged(), "max_iter {max_iter} must not converge");
            let (b0, b1) = huber_line(&x, &y, 1.345, max_iter, 1e-8).unwrap();
            assert_eq!(
                b0.to_bits(),
                oracle.intercept().to_bits(),
                "max_iter {max_iter}"
            );
            assert_eq!(
                b1.to_bits(),
                oracle.coefficients()[0].to_bits(),
                "max_iter {max_iter}"
            );
        }
        for (delta, max_iter) in [(0.0, 10), (-1.0, 10), (f64::NAN, 10), (1.345, 0)] {
            assert_eq!(
                huber_line(&x, &y, delta, max_iter, 1e-8),
                HuberRegressor::fit_with(&column(&x), &y, delta, max_iter, 1e-8)
                    .map(|_| (0.0, 0.0)),
            );
        }
    }

    #[test]
    fn errors_match_the_oracles() {
        let ramp = [0.0, 1.0, 2.0, 3.0];
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (ramp.to_vec(), vec![1.0, 2.0, 3.0]),
            (vec![], vec![]),
            (vec![1.0], vec![2.0]),
            (vec![f64::NAN], vec![2.0]),
            (vec![1.0], vec![f64::INFINITY]),
            (vec![0.0, 1.0, f64::NAN, 3.0], ramp.to_vec()),
            (vec![0.0, f64::INFINITY, 2.0, 3.0], ramp.to_vec()),
            (vec![0.0, f64::NEG_INFINITY, 2.0, 3.0], ramp.to_vec()),
            (ramp.to_vec(), vec![0.0, 1.0, f64::NAN, 3.0]),
            (ramp.to_vec(), vec![0.0, 1.0, f64::NEG_INFINITY, 3.0]),
            (
                vec![f64::NAN, 1.0, 2.0, 3.0],
                vec![0.0, 1.0, f64::INFINITY, 3.0],
            ),
            (vec![5.0; 4], ramp.to_vec()),
        ];
        for (x, y) in &cases {
            let huber = LinearModel1D::fit_huber(x, y).map(|m| bits(&m));
            let ols = LinearModel1D::fit_ols(x, y).map(|m| bits(&m));
            assert!(huber.is_err() && ols.is_err(), "x={x:?} y={y:?}");
            assert_eq!(huber, huber_oracle(x, y), "huber x={x:?} y={y:?}");
            assert_eq!(ols, ols_oracle(x, y), "ols x={x:?} y={y:?}");
        }
        assert_eq!(
            LinearModel1D::fit_huber(&[1.0], &[1.0]),
            Err(MlError::InsufficientData {
                required: 2,
                actual: 1
            })
        );
        assert_eq!(
            LinearModel1D::fit_ols(&[5.0; 4], &ramp),
            Err(MlError::SingularSystem)
        );
    }

    #[test]
    fn fit_ols_is_bit_identical_to_the_oracle() {
        for n in [2, 3, 10, 257, 1000] {
            for (seed, outlier_every, step) in [(5, 0, 0.0), (6, 7, 0.0), (7, 3, 0.25)] {
                let (x, y) = sample(n, seed * 31 + n as u64, outlier_every, step);
                let m = LinearModel1D::fit_ols(&x, &y);
                assert_eq!(m.map(|m| bits(&m)), ols_oracle(&x, &y), "n={n} seed={seed}");
            }
        }
        // An all-(−0.0) target: XᵀX and Xᵀy sums start where the oracle's
        // do, or the intercept's sign flips.
        let x = [0.1, 0.2];
        let y = [-0.0; 2];
        let m = LinearModel1D::fit_ols(&x, &y).unwrap();
        assert_eq!(Ok(bits(&m)), ols_oracle(&x, &y));
        assert!(m.intercept().is_sign_negative());
    }

    #[test]
    fn r2_score_matches_the_slice_metric() {
        let (x, y) = sample(200, 11, 9, 0.0);
        let m = LinearModel1D::fit_huber(&x, &y).unwrap();
        let pred: Vec<f64> = x.iter().map(|&v| m.predict(v)).collect();
        assert_eq!(
            m.r2_score(&x, &y).map(f64::to_bits),
            crate::r2_score(&y, &pred).map(f64::to_bits)
        );
        let flat = [4.0; 3];
        let line = LinearModel1D::from_parameters(4.0, 0.5);
        assert_eq!(
            line.r2_score(&[0.0, 1.0, 2.0], &flat),
            crate::r2_score(&flat, &[4.0, 4.5, 5.0])
        );
        assert!(line.r2_score(&[0.0], &flat).is_err());
        assert!(line.r2_score(&[], &[]).is_err());
    }

    #[test]
    fn fit_ols_recovers_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 1.0 + 0.5 * v).collect();
        let m = LinearModel1D::fit_ols(&x, &y).unwrap();
        assert!((m.intercept() - 1.0).abs() < 1e-9);
        assert!((m.slope() - 0.5).abs() < 1e-9);
        assert_eq!(m.estimator(), Estimator::Ols);
        assert_eq!(m.n_obs(), 10);
    }

    #[test]
    fn fit_huber_ignores_outliers() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 + 3.0 * v + if i % 9 == 4 { 500.0 } else { 0.0 })
            .collect();
        let huber = LinearModel1D::fit_huber(&x, &y).unwrap();
        let ols = LinearModel1D::fit_ols(&x, &y).unwrap();
        assert!((huber.slope() - 3.0).abs() < 0.05);
        assert!((huber.slope() - 3.0).abs() < (ols.slope() - 3.0).abs());
    }

    #[test]
    fn inverse_round_trips() {
        let m = LinearModel1D::from_parameters(10.0, 2.5);
        for x in [-3.0, 0.0, 7.25] {
            let y = m.predict(x);
            assert!((m.inverse(y).unwrap() - x).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_rejects_flat_line() {
        let m = LinearModel1D::from_parameters(4.0, 0.0);
        assert!(m.inverse(4.0).is_err());
    }

    #[test]
    fn regressor_trait_matches_predict() {
        let m = LinearModel1D::from_parameters(1.0, 2.0);
        assert_eq!(m.predict_row(&[5.0]), m.predict(5.0));
    }
}
