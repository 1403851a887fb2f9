//! Error type for model fitting.

use std::fmt;

/// Errors raised while building or fitting a model.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Feature matrix and target vector disagree on the number of rows.
    ShapeMismatch {
        /// Rows in the feature matrix.
        x_rows: usize,
        /// Entries in the target vector.
        y_len: usize,
    },
    /// Feature rows disagree on width (the design matrix is ragged).
    RaggedRows {
        /// Width of the first row.
        expected: usize,
        /// Index of the first offending row.
        row: usize,
        /// That row's width.
        actual: usize,
    },
    /// Not enough observations to identify the coefficients.
    InsufficientData {
        /// Observations required (≥ number of coefficients).
        required: usize,
        /// Observations provided.
        actual: usize,
    },
    /// The normal-equations system was singular (e.g. perfectly collinear
    /// features or a constant regressor next to the intercept).
    SingularSystem,
    /// Input contained NaN or infinity.
    NonFiniteInput,
    /// A hyper-parameter was out of range (message explains which).
    InvalidParameter(&'static str),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch { x_rows, y_len } => {
                write!(f, "shape mismatch: X has {x_rows} rows but y has {y_len}")
            }
            MlError::RaggedRows {
                expected,
                row,
                actual,
            } => {
                write!(
                    f,
                    "ragged feature rows: row {row} has {actual} features, expected {expected}"
                )
            }
            MlError::InsufficientData { required, actual } => {
                write!(f, "need at least {required} observations, got {actual}")
            }
            MlError::SingularSystem => write!(f, "normal equations are singular"),
            MlError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            MlError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Validates that every feature row has the same width as the first,
/// returning that width. Estimators call this before building a design
/// matrix, so a ragged input surfaces as [`MlError::RaggedRows`] instead
/// of an index panic deep in the solver.
pub(crate) fn check_rectangular(x_rows: &[Vec<f64>]) -> Result<usize, MlError> {
    let expected = x_rows.first().map_or(0, |r| r.len());
    for (row, r) in x_rows.iter().enumerate().skip(1) {
        if r.len() != expected {
            return Err(MlError::RaggedRows {
                expected,
                row,
                actual: r.len(),
            });
        }
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MlError::ShapeMismatch { x_rows: 3, y_len: 4 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("4"));
        assert!(MlError::SingularSystem.to_string().contains("singular"));
    }
}
