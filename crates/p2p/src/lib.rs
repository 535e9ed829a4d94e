//! Peer-to-peer simulation of distributed LMM ranking.
//!
//! The paper's motivation is Web search engines with a **peer-to-peer
//! architecture** (Section 3.2): each Web site is a peer that computes its
//! own local DocRank; the SiteRank is computed over the (much smaller)
//! SiteGraph, either by a coordinator or cooperatively; the final ranking
//! is the O(N) composition of the two. This crate simulates that deployment
//! faithfully enough to *measure* it:
//!
//! * per-site compute — each peer's local DocRank and the final
//!   composition — is `lmm-core`'s layered solve
//!   (`lmm_core::siterank::{local_ranks, compose}`), the same code the
//!   single-process pipeline runs; only the SiteRank transport
//!   ([`peer::GroupNode`]'s rounds) is specific to this crate;
//! * [`network::SimNetwork`] — a message-passing fabric with per-message
//!   byte accounting and optional loss + retransmission (failure
//!   injection);
//! * [`runner`] — three architectures over the same graph:
//!   [`Architecture::Flat`] (every site a peer, round-synchronous
//!   distributed SiteRank), [`Architecture::SuperPeer`] (rank aggregation
//!   at super-peers, batched inter-group traffic), and
//!   [`Architecture::Centralized`] (the baseline that ships the whole
//!   DocGraph to one node);
//! * [`stats`] — per-phase traffic and wall-clock accounting that
//!   `lmm-repro distributed` turns into tables.
//!
//! The distributed result is numerically identical (up to the convergence
//! tolerance) to the single-process layered pipeline in
//! `lmm_core::siterank` — that equivalence is asserted in the integration
//! tests, with and without message loss.
//!
//! # Example
//!
//! ```
//! use lmm_graph::generator::CampusWebConfig;
//! use lmm_p2p::runner::{run_distributed, Architecture, DistributedConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = CampusWebConfig::small();
//! cfg.total_docs = 600;
//! cfg.n_sites = 12;
//! cfg.spam_farms.clear();
//! let graph = cfg.generate()?;
//! let outcome = run_distributed(&graph, &DistributedConfig::default())?;
//! assert!(outcome.stats.total().messages > 0);
//! assert_eq!(outcome.global.len(), graph.n_docs());
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod message;
pub mod network;
pub mod peer;
pub mod runner;
pub mod stats;

pub use error::{P2pError, Result};
pub use network::{FaultConfig, SimNetwork};
pub use runner::{run_distributed, Architecture, DistributedConfig, DistributedOutcome};
pub use stats::{PhaseStats, RunStats, TrafficStats};
