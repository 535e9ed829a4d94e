//! Error type of the cluster fabric.
//!
//! The split that matters operationally is *retriable* vs *terminal*:
//! a query hitting a dying node gets [`ClusterError::NodeUnavailable`] —
//! the controller will reassign the node's shards and a retry against
//! refreshed placement succeeds — whereas a tombstoned document is a
//! typed, permanent answer. [`ClusterError::is_retriable`] encodes the
//! distinction so callers (and the churn bench) can loop on exactly the
//! errors failover repairs and fail loudly on everything else.

use std::error::Error as StdError;
use std::fmt;

use lmm_serve::ServeError;

use crate::wire::WireError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Errors produced by cluster nodes, the controller, and clients.
#[derive(Debug)]
pub enum ClusterError {
    /// A component was configured inconsistently.
    InvalidConfig {
        /// Human-readable cause.
        reason: String,
    },
    /// A frame failed to encode or decode.
    Wire(WireError),
    /// The controller could not be reached (registration, placement or
    /// routing fetch). Not retriable: without a controller there is no
    /// failover to wait for.
    ControllerUnavailable {
        /// What failed, including the io error.
        detail: String,
    },
    /// A shard node could not be reached or dropped the connection
    /// mid-exchange. **Retriable**: the controller's heartbeat monitor
    /// evicts the node, reassigns its shards and bumps the cluster epoch;
    /// a retry against refreshed placement lands on a survivor.
    NodeUnavailable {
        /// Address of the unreachable node.
        addr: String,
        /// What failed, including the io error.
        detail: String,
    },
    /// A scatter-gather kept observing a mix of cluster epochs after
    /// exhausting its retry and escalation budget. **Retriable**: the
    /// cluster was mid-publish (or mid-failover) the whole time; a later
    /// attempt sees the commit completed.
    Inconsistent {
        /// Gather rounds attempted before giving up.
        rounds: usize,
    },
    /// The cluster has no committed epoch yet (nothing published).
    NotPublished,
    /// A publish was requested with no registered (live) nodes.
    NoNodes,
    /// A published snapshot's epoch is older than the pinned one.
    StalePublish {
        /// Epoch of the rejected snapshot.
        published: u64,
        /// Epoch currently pinned by the controller.
        pinned: u64,
    },
    /// A publish failed on every attempt (each attempt evicts the failed
    /// node and retries against survivors until none remain).
    PublishFailed {
        /// Human-readable cause of the last attempt.
        detail: String,
    },
    /// An operation exhausted its [`RetryPolicy`](crate::RetryPolicy)
    /// budget — every attempt failed and no further backoff was granted.
    /// Terminal by construction: the budget *is* the caller's patience.
    RetryExhausted {
        /// The operation that gave up.
        op: &'static str,
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The last attempt's failure.
        detail: String,
    },
    /// A typed serving-tier answer (unknown/tombstoned document or site)
    /// relayed from the answering node.
    Serve(ServeError),
    /// A peer answered with an unexpected or malformed message.
    Protocol {
        /// What was expected and what arrived.
        detail: String,
    },
}

impl ClusterError {
    /// `true` for errors a caller should retry after the cluster
    /// re-converges (node eviction + shard reassignment, or an in-flight
    /// publish committing). Everything else is a permanent answer.
    #[must_use]
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            ClusterError::NodeUnavailable { .. } | ClusterError::Inconsistent { .. }
        )
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidConfig { reason } => {
                write!(f, "invalid cluster configuration: {reason}")
            }
            ClusterError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ClusterError::ControllerUnavailable { detail } => {
                write!(f, "controller unavailable: {detail}")
            }
            ClusterError::NodeUnavailable { addr, detail } => {
                write!(f, "node {addr} unavailable: {detail}")
            }
            ClusterError::Inconsistent { rounds } => {
                write!(
                    f,
                    "gather saw mixed cluster epochs after {rounds} rounds (publish or \
                     failover still in flight)"
                )
            }
            ClusterError::NotPublished => write!(f, "cluster has no committed epoch yet"),
            ClusterError::NoNodes => write!(f, "no live shard nodes registered"),
            ClusterError::StalePublish { published, pinned } => {
                write!(
                    f,
                    "snapshot epoch {published} is older than pinned epoch {pinned}"
                )
            }
            ClusterError::PublishFailed { detail } => write!(f, "publish failed: {detail}"),
            ClusterError::RetryExhausted {
                op,
                attempts,
                detail,
            } => {
                write!(
                    f,
                    "{op} gave up after {attempts} attempts (retry budget spent): {detail}"
                )
            }
            ClusterError::Serve(e) => write!(f, "{e}"),
            ClusterError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl StdError for ClusterError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ClusterError::Wire(e) => Some(e),
            ClusterError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for ClusterError {
    fn from(e: ServeError) -> Self {
        ClusterError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retriability_splits_failover_from_permanent_answers() {
        let transient = ClusterError::NodeUnavailable {
            addr: "127.0.0.1:9".into(),
            detail: "connection refused".into(),
        };
        assert!(transient.is_retriable());
        assert!(ClusterError::Inconsistent { rounds: 8 }.is_retriable());
        let permanent = ClusterError::Serve(ServeError::TombstonedDoc { doc: 3, epoch: 5 });
        assert!(!permanent.is_retriable());
        assert!(!ClusterError::NotPublished.is_retriable());
        assert!(!ClusterError::ControllerUnavailable {
            detail: "refused".into()
        }
        .is_retriable());
        // A spent retry budget is terminal: retrying a retry-exhaustion
        // would make the budget meaningless.
        assert!(!ClusterError::RetryExhausted {
            op: "publish",
            attempts: 7,
            detail: "node 3 unreachable".into()
        }
        .is_retriable());
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: StdError + Send + Sync + 'static>() {}
        assert_bounds::<ClusterError>();
    }
}
