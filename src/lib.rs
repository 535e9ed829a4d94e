//! # Layered Markov Model web ranking — facade crate
//!
//! A full reproduction of *Wu & Aberer, "Using a Layered Markov Model for
//! Distributed Web Ranking Computation" (ICDCS 2005)* as a Rust workspace.
//! This crate re-exports every workspace member under one roof so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`engine`] — **the unified API**: `RankEngine::builder()`, pluggable
//!   [`Ranker`](lmm_engine::Ranker) backends for every approach and
//!   deployment, and a query-serving layer (`top_k`, `top_k_for_site`,
//!   `score`, `compare`);
//! * [`linalg`] — sparse/dense matrices, power method, primitivity analysis;
//! * [`rank`] — PageRank, gatekeeper (minimal irreducibility), HITS,
//!   BlockRank, and rank-comparison metrics;
//! * [`graph`] — DocGraph/SiteGraph web-graph substrate and the synthetic
//!   campus-web generator;
//! * [`core`] — the Layered Markov Model: Approaches 1–4, the Partition
//!   Theorem, and the SiteRank × DocRank pipeline;
//! * [`p2p`] — the distributed (peer-to-peer) computation simulator;
//! * [`serve`] — the sharded concurrent serving tier: site-range shards,
//!   epoch-consistent queries, and snapshot hot-swap over live deltas;
//! * [`cluster`] — the same serving protocol across processes over TCP:
//!   shard nodes, a controller with heartbeat eviction and failover, and
//!   a client whose answers are bitwise identical to the in-process tier.
//!
//! # Quickstart
//!
//! Rank a synthetic campus web with the Layered Method through the unified
//! engine, serve queries from the cache, and confirm the Partition Theorem
//! (Approach 2 ≡ Approach 4) through the same API:
//!
//! ```
//! use lmm::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = CampusWebConfig::small();
//! cfg.total_docs = 400;
//! cfg.n_sites = 8;
//! cfg.spam_farms.clear();
//! let graph = cfg.generate()?;
//!
//! // Approach 4 — the Layered Method — through the unified builder.
//! let mut engine = RankEngine::builder()
//!     .backend(BackendSpec::Layered { site_layer: SiteLayerMethod::Stationary })
//!     .damping(0.85)
//!     .build()?;
//! engine.rank(&graph)?;
//! let top = engine.top_k(5)?; // served from the cache
//! assert_eq!(top.len(), 5);
//!
//! // Approach 2 (centralized stationary chain) agrees: Theorem 2.
//! let mut central = RankEngine::builder()
//!     .backend(BackendSpec::CentralizedStationary)
//!     .damping(0.85)
//!     .build()?;
//! central.rank(&graph)?;
//! assert!(engine.compare(central.outcome()?, 10)?.linf < 1e-8);
//! # Ok(())
//! # }
//! ```

pub use lmm_cluster as cluster;
pub use lmm_core as core;
pub use lmm_engine as engine;
pub use lmm_graph as graph;
pub use lmm_linalg as linalg;
pub use lmm_p2p as p2p;
pub use lmm_rank as rank;
pub use lmm_serve as serve;

/// Commonly used items, importable with `use lmm::prelude::*`.
pub mod prelude {
    pub use lmm_cluster::{
        ClientConfig, ClusterClient, ClusterController, ClusterError, ControllerConfig, NodeConfig,
        ShardNode,
    };
    pub use lmm_core::{
        approaches::RankApproach, model::LayeredMarkovModel, siterank::LayeredRankConfig,
        siterank::SiteLayerMethod,
    };
    pub use lmm_engine::{
        BackendSpec, EngineConfig, EngineError, MemorySink, RankEngine, RankOutcome, RankSnapshot,
        Ranker, RunTelemetry, Staleness,
    };
    pub use lmm_graph::{
        delta::{AppliedDelta, GraphDelta},
        docgraph::{DocGraph, DocGraphBuilder},
        generator::CampusWebConfig,
        remap::IdRemap,
        sharding::ShardMap,
        sitegraph::{SiteGraph, SiteGraphOptions},
        DocId, SiteId,
    };
    pub use lmm_linalg::{
        CooMatrix, CsrMatrix, DenseMatrix, LinalgError, PowerOptions, StochasticMatrix,
    };
    pub use lmm_p2p::runner::Architecture;
    pub use lmm_rank::{
        pagerank::{PageRank, PageRankConfig},
        ranking::Ranking,
    };
    pub use lmm_serve::{ServeConfig, ServeError, ShardQuery, ShardedServer};
}

/// Compiles and runs the `rust` blocks of README.md under `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
