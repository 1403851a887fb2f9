//! From-scratch regression models for KEA's What-if Engine.
//!
//! The paper (§5.1) uses "regression models as the predictors, such as
//! linear regression (LR), support vector machines (SVM), or deep neural
//! nets (DNN). Linear models are more explainable, which is critical for
//! domain experts", and §5.2.1 specifically uses a **Huber Regressor**
//! because it is "more robust to outliers compared to the Least Squares
//! Regression". This crate provides the linear half of that toolbox, the
//! half the engine uses:
//!
//! * [`matrix`] — a small dense row-major matrix with a partial-pivoting
//!   linear solver (all KEA models are tiny: a handful of coefficients per
//!   machine group).
//! * [`linreg`] — ordinary least squares via the normal equations, for
//!   any number of features.
//! * [`huber`] — the Huber robust regressor fitted with iteratively
//!   reweighted least squares (IRLS) and a MAD scale estimate, for any
//!   number of features. It is the multivariate reference: the engine's
//!   one-feature fits must agree with it bit for bit.
//! * [`mod@line`] — the univariate [`line::LinearModel1D`] used for the paper's
//!   `g_k`, `h_k`, `f_k`, `p`, `q` models, with an exact inverse (needed by
//!   the Monte-Carlo SKU-design optimizer, §6.1). Its OLS and Huber fits
//!   run on the two columns directly, with an inline 2×2 solve and no
//!   per-row allocation; they are the path the What-if Engine runs.
//! * [`metrics`] — R², the goodness-of-fit number reported per group.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod huber;
pub mod line;
pub mod linreg;
pub mod matrix;
pub mod metrics;

pub use error::MlError;
pub use huber::HuberRegressor;
pub use line::LinearModel1D;
pub use linreg::LinearRegression;
pub use matrix::Matrix;
pub use metrics::r2_score;

/// A fitted regression model mapping a feature row to a prediction.
///
/// KEA's What-if Engine treats every calibrated model uniformly through this
/// trait, so the optimizer can compose `g_k`, `h_k`, `f_k` without caring
/// which estimator produced them.
pub trait Regressor {
    /// Predicts the target for one feature row (without intercept column;
    /// the model handles its own intercept).
    fn predict_row(&self, features: &[f64]) -> f64;

    /// Predicts a batch; default implementation maps [`Self::predict_row`].
    fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }
}
