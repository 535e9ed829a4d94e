//! # `lmm-serve` — the sharded serving tier
//!
//! The paper computes rankings in a distributed, per-site fashion so they
//! can be *consumed* that way too; this crate is the consumption side: a
//! std-only, read-mostly serving tier over `lmm-engine`'s snapshots, built
//! for the ROADMAP's "heavy traffic" north star.
//!
//! ```text
//!                 ┌──────────────┐   GraphDelta    ┌─────────────┐
//!   writer thread │  RankEngine  │ ──────────────► │ RankSnapshot│
//!                 │ (incremental)│    apply_delta  │ epoch E+1   │
//!                 └──────────────┘                 │ + Staleness │
//!                                                  └──────┬──────┘
//!                                   publish: build the    │
//!                                   next set, one store   ▼
//!                 ┌───────────────────────────────────────────────┐
//!                 │                ShardedServer                  │
//!                 │  ArcCell<Serving>: one epoch, swapped whole   │
//!                 │  ┌───────────────────────────────────────┐    │
//!   score/batch/  │  │ routing snapshot (doc → shard)        │    │
//!   top-k/site ─► │  │ ShardState 0 │ 1 │ … │ n-1            │    │
//!   top-k/compare │  └───────────────────────────────────────┘    │
//!   (one load,    │  answered and merged on the caller's thread   │
//!    per query)   │  — no workers, no queues, no locks            │
//!                 └───────────────────────────────────────────────┘
//! ```
//!
//! * **Shard = contiguous site range** ([`ShardMap`], from `lmm-graph`):
//!   the paper's unit of computation is the unit of serving, so the
//!   incremental layer's per-site staleness sets translate directly into
//!   shard invalidation sets.
//! * **Per-shard stores** ([`ShardState`]): precomputed top-k heaps,
//!   per-site serving orders, and score lookups over one pinned immutable
//!   [`RankSnapshot`](lmm_engine::RankSnapshot).
//! * **One serving set, one read path**: the routing snapshot and every
//!   shard store of one epoch sit together in one lock-free [`ArcCell`].
//!   Every query loads it once and answers on the **caller's thread** —
//!   zero mutexes, zero queues, zero worker threads — so every response
//!   carries exactly one epoch by construction. A global top-k merges the
//!   shards' precomputed lists in place.
//! * **Writes never block reads** ([`ShardedServer::publish`]): a delta
//!   produces a new snapshot + staleness set; only stale shards rebuild,
//!   the rest re-pin their store `Arc` under the new epoch — or, after a
//!   removal redistributed the SiteRank, *refresh* (per-site orders
//!   reused, shard top list re-merged) — and readers keep answering
//!   from the old set until the publisher stores the new one whole.
//! * **Removal is first-class**: tombstoned documents and sites answer
//!   typed errors ([`ServeError::TombstonedDoc`] /
//!   [`ServeError::TombstonedSite`]) instead of stale scores, and
//!   [`ServeStatsSnapshot::doc_skew`] exposes the per-shard doc-count
//!   imbalance churn leaves behind — the dynamic-resharding trigger.
//!
//! # Example
//!
//! ```
//! use lmm_engine::{BackendSpec, RankEngine};
//! use lmm_graph::generator::CampusWebConfig;
//! use lmm_graph::sharding::ShardMap;
//! use lmm_serve::{ServeConfig, ShardedServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = CampusWebConfig::small();
//! cfg.total_docs = 300;
//! cfg.n_sites = 8;
//! cfg.spam_farms.clear();
//! let graph = cfg.generate()?;
//!
//! let mut engine = RankEngine::builder()
//!     .backend(BackendSpec::Incremental)
//!     .build()?;
//! engine.rank(&graph)?;
//!
//! let server = ShardedServer::start(
//!     ShardMap::balanced(&graph, 4)?,
//!     &engine.snapshot()?,
//!     ServeConfig::default(),
//! )?;
//! let (epoch, top) = server.top_k(5)?;
//! assert_eq!(epoch, 1);
//! assert_eq!(top, engine.top_k(5)?); // bitwise: same scores, same order
//! # Ok(())
//! # }
//! ```

pub mod cell;
pub mod error;
pub mod query;
pub mod router;
pub mod shard;
pub mod telemetry;

pub use cell::ArcCell;
pub use error::{Result, ServeError};
pub use query::ShardQuery;
pub use router::{
    publish_grades, shard_site_range, PublishReport, ServeConfig, ShardedServer, SwapGrade,
};
pub use shard::{DocScore, ShardState, SiteTopK};
pub use telemetry::{
    LatencyHistogram, LatencyHistogramSnapshot, ServeStats, ServeStatsSnapshot, LATENCY_BUCKETS,
};

// Re-exported so downstream code can name the shard key without a direct
// lmm-graph dependency.
pub use lmm_graph::sharding::ShardMap;
