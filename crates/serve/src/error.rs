//! Error type of the serving tier.

use std::error::Error as StdError;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Errors produced by server construction, publishing, and queries.
#[derive(Debug)]
pub enum ServeError {
    /// The server was configured inconsistently (shard map vs snapshot).
    InvalidConfig {
        /// Human-readable cause.
        reason: String,
    },
    /// A query referenced a document the answering epoch does not rank.
    UnknownDoc {
        /// The offending document index.
        doc: usize,
        /// The epoch that could not answer.
        epoch: u64,
    },
    /// A query referenced a site the answering epoch does not rank.
    UnknownSite {
        /// The offending site index.
        site: usize,
        /// The epoch that could not answer.
        epoch: u64,
    },
    /// A point lookup named a document that **was** ranked but has been
    /// removed — its id slot is tombstoned. Distinct from
    /// [`UnknownDoc`](ServeError::UnknownDoc) so clients can tell "never
    /// existed" from "gone": the first is a caller bug, the second is the
    /// web shrinking under them.
    TombstonedDoc {
        /// The removed document's (stable) id.
        doc: usize,
        /// The epoch that answered.
        epoch: u64,
    },
    /// A site-scoped query named a site that was removed.
    TombstonedSite {
        /// The removed site's (stable) id.
        site: usize,
        /// The epoch that answered.
        epoch: u64,
    },
    /// A published snapshot's epoch is older than the one being served.
    StaleSnapshot {
        /// Epoch of the rejected snapshot.
        published: u64,
        /// Epoch currently served.
        serving: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid serving configuration: {reason}")
            }
            ServeError::UnknownDoc { doc, epoch } => {
                write!(f, "document {doc} unknown at serving epoch {epoch}")
            }
            ServeError::UnknownSite { site, epoch } => {
                write!(f, "site {site} unknown at serving epoch {epoch}")
            }
            ServeError::TombstonedDoc { doc, epoch } => {
                write!(
                    f,
                    "document {doc} was removed (tombstoned) as of epoch {epoch}"
                )
            }
            ServeError::TombstonedSite { site, epoch } => {
                write!(
                    f,
                    "site {site} was removed (tombstoned) as of epoch {epoch}"
                )
            }
            ServeError::StaleSnapshot { published, serving } => {
                write!(
                    f,
                    "snapshot epoch {published} is older than serving epoch {serving}"
                )
            }
        }
    }
}

impl StdError for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServeError::UnknownDoc { doc: 42, epoch: 7 };
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains('7'));
        let e = ServeError::StaleSnapshot {
            published: 3,
            serving: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: StdError + Send + Sync + 'static>() {}
        assert_bounds::<ServeError>();
    }
}
