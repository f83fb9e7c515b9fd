//! Error types for the `berry-nn` crate.

use std::fmt;

/// Errors produced by tensor and network operations.
///
/// All fallible public functions in this crate return [`NnError`] so callers
/// can distinguish shape mismatches from invalid arguments without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// The number of elements implied by a shape does not match the length of
    /// the provided data buffer.
    ShapeDataMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors that must share a shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Vec<usize>,
        /// Shape of the right-hand operand.
        right: Vec<usize>,
    },
    /// A tensor of a particular rank was required.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Provided rank.
        actual: usize,
    },
    /// A parameter value was outside its valid domain.
    InvalidArgument(String),
    /// A serialized model could not be restored.
    DeserializeMismatch(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape implies {expected} elements but {actual} were provided"
            ),
            NnError::ShapeMismatch { left, right } => {
                write!(f, "tensor shapes {left:?} and {right:?} are incompatible")
            }
            NnError::RankMismatch { expected, actual } => {
                write!(f, "expected a rank-{expected} tensor, got rank {actual}")
            }
            NnError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            NnError::DeserializeMismatch(msg) => write!(f, "deserialize mismatch: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = vec![
            NnError::ShapeDataMismatch {
                expected: 4,
                actual: 3,
            },
            NnError::ShapeMismatch {
                left: vec![2, 2],
                right: vec![3],
            },
            NnError::RankMismatch {
                expected: 2,
                actual: 1,
            },
            NnError::InvalidArgument("x".into()),
            NnError::DeserializeMismatch("y".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
