//! The shared query surface of a serving tier.
//!
//! [`ShardQuery`] abstracts over *where* the shards live: the in-process
//! [`ShardedServer`] (one serving set, answered on the caller's thread) and
//! the remote `lmm-cluster` client (shards on TCP nodes) answer the same
//! five queries under the same epoch-consistency contract — every
//! response carries exactly one epoch, and every value in it was read
//! from that epoch's published snapshot. Both tiers implement this
//! trait, and the cluster's loopback and chaos tests hold the wire tier to
//! bitwise parity with the local one.

use std::cmp::Ordering;

use lmm_graph::{DocId, SiteId};

use crate::router::ShardedServer;

/// An epoch-consistent, site-sharded query surface.
///
/// Each method returns the answering epoch alongside the payload; a
/// multi-shard answer is only ever assembled from partials of one epoch.
/// Errors are implementation-specific (`ServeError` locally, a superset
/// with retriable transport failures over the wire), hence the associated
/// type.
pub trait ShardQuery {
    /// The tier's error type.
    type Error: std::error::Error + Send + Sync + 'static;

    /// The epoch currently being published to. Reads may still answer
    /// from the previous epoch while a swap is in flight.
    fn serving_epoch(&self) -> u64;

    /// Global score of one document.
    ///
    /// # Errors
    /// Unknown/tombstoned documents and transport failures, per tier.
    fn score(&self, doc: DocId) -> Result<(u64, f64), Self::Error>;

    /// Batched score lookups, reassembled in input order, all answered
    /// from one epoch.
    ///
    /// # Errors
    /// Unknown/tombstoned documents and transport failures, per tier.
    fn score_batch(&self, docs: &[DocId]) -> Result<(u64, Vec<f64>), Self::Error>;

    /// Global top-`k` in serving order (score descending, ties by id).
    ///
    /// # Errors
    /// Transport failures, per tier.
    #[allow(clippy::type_complexity)]
    fn top_k(&self, k: usize) -> Result<(u64, Vec<(DocId, f64)>), Self::Error>;

    /// Top-`k` within one site.
    ///
    /// # Errors
    /// Unknown/tombstoned sites and transport failures, per tier.
    #[allow(clippy::type_complexity)]
    fn top_k_for_site(
        &self,
        site: SiteId,
        k: usize,
    ) -> Result<(u64, Vec<(DocId, f64)>), Self::Error>;

    /// Compares two documents at one epoch: `Greater` means `a` outranks
    /// `b`.
    ///
    /// # Errors
    /// Unknown/tombstoned documents and transport failures, per tier.
    fn compare(&self, a: DocId, b: DocId) -> Result<(u64, Ordering), Self::Error>;
}

impl ShardQuery for ShardedServer {
    type Error = crate::ServeError;

    fn serving_epoch(&self) -> u64 {
        self.epoch()
    }

    fn score(&self, doc: DocId) -> Result<(u64, f64), Self::Error> {
        ShardedServer::score(self, doc)
    }

    fn score_batch(&self, docs: &[DocId]) -> Result<(u64, Vec<f64>), Self::Error> {
        ShardedServer::score_batch(self, docs)
    }

    fn top_k(&self, k: usize) -> Result<(u64, Vec<(DocId, f64)>), Self::Error> {
        ShardedServer::top_k(self, k)
    }

    fn top_k_for_site(
        &self,
        site: SiteId,
        k: usize,
    ) -> Result<(u64, Vec<(DocId, f64)>), Self::Error> {
        ShardedServer::top_k_for_site(self, site, k)
    }

    fn compare(&self, a: DocId, b: DocId) -> Result<(u64, Ordering), Self::Error> {
        ShardedServer::compare(self, a, b)
    }
}
