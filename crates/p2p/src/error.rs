//! Error type for the distributed-ranking simulator.

use std::error::Error as StdError;
use std::fmt;

use lmm_core::LmmError;
use lmm_linalg::LinalgError;
use lmm_rank::RankError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, P2pError>;

/// Errors produced by the distributed simulation.
#[derive(Debug)]
pub enum P2pError {
    /// The configuration is invalid (zero peers, bad fault probability...).
    InvalidConfig {
        /// Human-readable cause.
        reason: String,
    },
    /// The distributed SiteRank failed to converge within the round budget.
    NotConverged {
        /// Rounds executed.
        rounds: u32,
        /// Residual at the last round.
        residual: f64,
    },
    /// A message referenced an unknown peer.
    UnknownPeer {
        /// The offending peer index.
        peer: usize,
        /// Number of peers in the network.
        n_peers: usize,
    },
    /// Underlying ranking failure.
    Rank(RankError),
    /// Underlying linear-algebra failure.
    Linalg(LinalgError),
}

impl fmt::Display for P2pError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P2pError::InvalidConfig { reason } => {
                write!(f, "invalid distributed configuration: {reason}")
            }
            P2pError::NotConverged { rounds, residual } => write!(
                f,
                "distributed siterank did not converge after {rounds} rounds (residual {residual:e})"
            ),
            P2pError::UnknownPeer { peer, n_peers } => {
                write!(f, "unknown peer {peer} (network has {n_peers} peers)")
            }
            P2pError::Rank(e) => write!(f, "ranking error: {e}"),
            P2pError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl StdError for P2pError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            P2pError::Rank(e) => Some(e),
            P2pError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RankError> for P2pError {
    fn from(e: RankError) -> Self {
        P2pError::Rank(e)
    }
}

impl From<LinalgError> for P2pError {
    fn from(e: LinalgError) -> Self {
        P2pError::Linalg(e)
    }
}

/// A failure of `lmm-core`'s per-site solve keeps its ranking or
/// linear-algebra cause; a model error is a configuration the simulation
/// cannot run.
impl From<LmmError> for P2pError {
    fn from(e: LmmError) -> Self {
        match e {
            LmmError::Rank(e) => P2pError::Rank(e),
            LmmError::Linalg(e) => P2pError::Linalg(e),
            other => P2pError::InvalidConfig {
                reason: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(P2pError::NotConverged {
            rounds: 7,
            residual: 0.5
        }
        .to_string()
        .contains('7'));
        assert!(P2pError::UnknownPeer {
            peer: 3,
            n_peers: 2
        }
        .to_string()
        .contains('3'));
    }

    #[test]
    fn sources() {
        assert!(P2pError::from(RankError::Empty).source().is_some());
        assert!(P2pError::InvalidConfig { reason: "x".into() }
            .source()
            .is_none());
    }

    #[test]
    fn bounds() {
        fn assert_bounds<E: StdError + Send + Sync + 'static>() {}
        assert_bounds::<P2pError>();
    }
}
