//! Error type shared by all engine operations.

use std::fmt;

/// Errors raised by the relational engine.
///
/// The engine is strict: schema and type problems are reported as errors
/// instead of being silently coerced, which keeps the summarization
/// algorithms honest about the plans they build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelalgError {
    /// A referenced column does not exist in the input schema.
    ColumnNotFound {
        /// Name or index description of the missing column.
        column: String,
    },
    /// An expression was applied to values of an unsupported type.
    TypeMismatch {
        /// Human-readable description of the offending operation.
        operation: String,
        /// The type actually encountered.
        found: String,
    },
    /// Two tables were combined with incompatible schemas.
    SchemaMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// A row was constructed with the wrong number of values.
    ArityMismatch {
        /// Expected number of columns.
        expected: usize,
        /// Provided number of values.
        found: usize,
    },
    /// Division by zero inside an expression.
    DivisionByZero,
    /// Any other invariant violation.
    Invalid {
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for RelalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelalgError::ColumnNotFound { column } => {
                write!(f, "column not found: {column}")
            }
            RelalgError::TypeMismatch { operation, found } => {
                write!(f, "type mismatch in {operation}: found {found}")
            }
            RelalgError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            RelalgError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} values, got {found}"
                )
            }
            RelalgError::DivisionByZero => write!(f, "division by zero"),
            RelalgError::Invalid { detail } => write!(f, "invalid operation: {detail}"),
        }
    }
}

impl std::error::Error for RelalgError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, RelalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = RelalgError::ColumnNotFound {
            column: "delay".into(),
        };
        assert!(err.to_string().contains("delay"));
        let err = RelalgError::ArityMismatch {
            expected: 3,
            found: 2,
        };
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains('2'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RelalgError::DivisionByZero, RelalgError::DivisionByZero);
        assert_ne!(
            RelalgError::DivisionByZero,
            RelalgError::Invalid { detail: "x".into() }
        );
    }
}
