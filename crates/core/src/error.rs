//! Error type for Layered Markov Model construction and ranking.

use std::error::Error as StdError;
use std::fmt;

use lmm_linalg::LinalgError;
use lmm_rank::RankError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LmmError>;

/// Errors produced by LMM construction and rank computation.
#[derive(Debug)]
pub enum LmmError {
    /// The model structure is inconsistent (dimensions, empty phase list,
    /// malformed initial distributions, ...).
    InvalidModel {
        /// Human-readable cause.
        reason: String,
    },
    /// The phase matrix `Y` is not primitive, violating the precondition of
    /// Theorem 2 (Approaches 2 and 4 require it).
    PhaseMatrixNotPrimitive {
        /// Number of strongly connected components of `Y`.
        components: usize,
        /// Period of `Y` when irreducible (0 otherwise).
        period: usize,
    },
    /// A referenced phase index is out of range.
    PhaseOutOfRange {
        /// The offending index.
        phase: usize,
        /// Number of phases in the model.
        n_phases: usize,
    },
    /// Underlying linear-algebra failure.
    Linalg(LinalgError),
    /// Underlying ranking failure (PageRank / gatekeeper).
    Rank(RankError),
}

impl fmt::Display for LmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LmmError::InvalidModel { reason } => write!(f, "invalid layered model: {reason}"),
            LmmError::PhaseMatrixNotPrimitive { components, period } => write!(
                f,
                "phase matrix Y is not primitive ({components} components, period {period}); \
                 Theorem 2 requires a primitive Y"
            ),
            LmmError::PhaseOutOfRange { phase, n_phases } => {
                write!(
                    f,
                    "phase {phase} out of range (model has {n_phases} phases)"
                )
            }
            LmmError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            LmmError::Rank(e) => write!(f, "ranking error: {e}"),
        }
    }
}

impl StdError for LmmError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            LmmError::Linalg(e) => Some(e),
            LmmError::Rank(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for LmmError {
    fn from(e: LinalgError) -> Self {
        LmmError::Linalg(e)
    }
}

impl From<RankError> for LmmError {
    fn from(e: RankError) -> Self {
        LmmError::Rank(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = LmmError::PhaseMatrixNotPrimitive {
            components: 3,
            period: 0,
        };
        assert!(e.to_string().contains("Theorem 2"));
        let e = LmmError::PhaseOutOfRange {
            phase: 9,
            n_phases: 2,
        };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn sources_preserved() {
        assert!(LmmError::from(LinalgError::Empty).source().is_some());
        assert!(LmmError::from(RankError::Empty).source().is_some());
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: StdError + Send + Sync + 'static>() {}
        assert_bounds::<LmmError>();
    }
}
