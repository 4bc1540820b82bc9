use std::error::Error;
use std::fmt;

/// Error type for numeric operations.
///
/// All fallible functions in this crate return [`NumericError`] via the
/// crate-level [`Result`](crate::Result) alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumericError {
    /// The operands of a binary operation have incompatible dimensions.
    DimensionMismatch {
        /// Human-readable name of the failing operation.
        op: &'static str,
        /// Dimensions of the left operand `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right operand `(rows, cols)`.
        right: (usize, usize),
    },
    /// The operation requires a non-empty matrix but received an empty one.
    Empty {
        /// Human-readable name of the failing operation.
        op: &'static str,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Human-readable name of the failing operation.
        op: &'static str,
        /// Actual dimensions `(rows, cols)`.
        dims: (usize, usize),
    },
    /// An iterative algorithm failed to converge.
    NoConvergence {
        /// Human-readable name of the failing algorithm.
        op: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A value was not finite (NaN or infinity) where a finite value is required.
    NonFinite {
        /// Human-readable name of the failing operation.
        op: &'static str,
    },
    /// The input has more rows than the operation can index.
    TooLarge {
        /// Human-readable name of the failing operation.
        op: &'static str,
        /// Rows in the input.
        rows: usize,
        /// Most rows the operation accepts.
        max: usize,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            NumericError::Empty { op } => write!(f, "empty matrix passed to {op}"),
            NumericError::NotSquare { op, dims } => {
                write!(
                    f,
                    "{op} requires a square matrix, got {}x{}",
                    dims.0, dims.1
                )
            }
            NumericError::NoConvergence { op, iterations } => {
                write!(f, "{op} did not converge after {iterations} iterations")
            }
            NumericError::NonFinite { op } => {
                write!(f, "non-finite value encountered in {op}")
            }
            NumericError::TooLarge { op, rows, max } => {
                write!(f, "{op} accepts at most {max} rows, got {rows}")
            }
        }
    }
}

impl Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = NumericError::DimensionMismatch {
            op: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch in matmul: left is 2x3, right is 4x5"
        );
    }

    #[test]
    fn display_not_square() {
        let e = NumericError::NotSquare {
            op: "jacobi_eigen",
            dims: (2, 3),
        };
        assert!(e.to_string().contains("requires a square matrix"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
