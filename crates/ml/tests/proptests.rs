//! Property-based tests for the regression stack.

use kea_ml::{HuberRegressor, LinearModel1D, LinearRegression, Matrix, MlError, Regressor};
use proptest::prelude::*;

/// A noisy line over `n` rows with `outlier_pct`% gross outliers. With
/// `tied`, x and y snap onto coarse grids, so many |residuals| tie at
/// the MAD median.
fn line_sample(n: usize, seed: u64, outlier_pct: u64, tied: bool) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (mut x, mut y) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let mut xi = 100.0 * next();
        let mut yi = 40.0 + 0.8 * xi + 2.0 * (next() - 0.5);
        if next() * 100.0 < outlier_pct as f64 {
            yi += 500.0 * next() - 100.0;
        }
        if tied {
            xi = xi.round();
            yi = yi.round();
        }
        x.push(xi);
        y.push(yi);
    }
    (x, y)
}

fn column(x: &[f64]) -> Vec<Vec<f64>> {
    x.iter().map(|&v| vec![v]).collect()
}

fn line_bits(m: Result<LinearModel1D, MlError>) -> Result<(u64, u64), MlError> {
    m.map(|m| (m.intercept().to_bits(), m.slope().to_bits()))
}

proptest! {
    #[test]
    fn ols_recovers_exact_lines(
        intercept in -100.0..100.0f64,
        slope in -50.0..50.0f64,
        n in 3usize..40,
    ) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| intercept + slope * i as f64).collect();
        let m = LinearRegression::fit(&x, &y).unwrap();
        prop_assert!((m.intercept() - intercept).abs() < 1e-6 * intercept.abs().max(1.0));
        prop_assert!((m.coefficients()[0] - slope).abs() < 1e-6 * slope.abs().max(1.0));
    }

    #[test]
    fn huber_recovers_lines_despite_planted_outliers(
        intercept in -10.0..10.0f64,
        slope in 0.1..10.0f64,
        outlier in 100.0..1000.0f64,
    ) {
        let n = 60;
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.5]).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let base = intercept + slope * i as f64 * 0.5
                    + ((i * 13) % 7) as f64 * 0.01; // tiny noise for scale
                if i % 12 == 5 { base + outlier } else { base }
            })
            .collect();
        let m = HuberRegressor::fit(&x, &y).unwrap();
        prop_assert!(
            (m.coefficients()[0] - slope).abs() < 0.05 * slope.max(1.0),
            "slope {} vs true {}", m.coefficients()[0], slope
        );
    }

    #[test]
    fn matrix_solve_has_small_residual(
        seed in 0u64..500,
        n in 2usize..6,
    ) {
        // Diagonally dominant systems are well-conditioned.
        let mut rows = Vec::new();
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / u32::MAX as f64) * 2.0 - 1.0
        };
        for i in 0..n {
            let mut row: Vec<f64> = (0..n).map(|_| next()).collect();
            row[i] += n as f64 + 1.0;
            rows.push(row);
        }
        let b: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        let a = Matrix::from_rows(&rows).unwrap();
        let x = a.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-8, "residual {} vs {}", got, want);
        }
    }

    #[test]
    fn prediction_is_affine_in_features(
        intercept in -5.0..5.0f64,
        c0 in -5.0..5.0f64,
        c1 in -5.0..5.0f64,
        x0 in -100.0..100.0f64,
        x1 in -100.0..100.0f64,
    ) {
        // Fit an exact plane so the model carries these parameters.
        let x: Vec<Vec<f64>> = (0..35).map(|i| vec![(i % 5) as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| intercept + c0 * r[0] + c1 * r[1]).collect();
        let m = LinearRegression::fit(&x, &y).unwrap();
        let (intercept, c) = (m.intercept(), m.coefficients());
        let (c0, c1) = (c[0], c[1]);
        let direct = m.predict_row(&[x0, x1]);
        prop_assert!((direct - (intercept + c0 * x0 + c1 * x1)).abs() < 1e-9);
        // Affinity: doubling features doubles the non-intercept part.
        let doubled = m.predict_row(&[2.0 * x0, 2.0 * x1]);
        prop_assert!(((doubled - intercept) - 2.0 * (direct - intercept)).abs() < 1e-6);
    }

    #[test]
    fn line_fit_huber_is_bit_identical_to_huber_regressor(
        seed in 0u64..1_000_000,
        half in 1usize..1500,
        odd in prop::bool::ANY,
        outlier_pct in 0u64..31,
        tied in prop::bool::ANY,
    ) {
        let (x, y) = line_sample(2 * half + usize::from(odd), seed, outlier_pct, tied);
        let oracle = HuberRegressor::fit(&column(&x), &y)
            .map(|m| (m.intercept().to_bits(), m.coefficients()[0].to_bits()));
        prop_assert_eq!(line_bits(LinearModel1D::fit_huber(&x, &y)), oracle);
    }

    #[test]
    fn line_fit_ols_is_bit_identical_to_linear_regression(
        seed in 0u64..1_000_000,
        half in 1usize..1500,
        odd in prop::bool::ANY,
        outlier_pct in 0u64..31,
        tied in prop::bool::ANY,
    ) {
        let (x, y) = line_sample(2 * half + usize::from(odd), seed, outlier_pct, tied);
        let oracle = LinearRegression::fit(&column(&x), &y)
            .map(|m| (m.intercept().to_bits(), m.coefficients()[0].to_bits()));
        prop_assert_eq!(line_bits(LinearModel1D::fit_ols(&x, &y)), oracle);
    }
}
