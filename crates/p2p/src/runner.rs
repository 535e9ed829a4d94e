//! Orchestration of full distributed ranking runs.
//!
//! [`run_distributed`] executes the paper's deployment end to end under one
//! of three architectures and returns the global DocRank together with a
//! per-phase traffic/latency breakdown:
//!
//! * [`Architecture::Flat`] — every site is a peer; the SiteRank power
//!   iteration runs as synchronous rounds of per-edge contribution
//!   messages; local DocRanks are computed in parallel with zero traffic;
//!   each peer ships its local vector for the final composition.
//! * [`Architecture::SuperPeer`] — sites are partitioned across `n_groups`
//!   super-peers; intra-group contributions never touch the network and
//!   inter-group ones are batched, so rounds cost far fewer messages; rank
//!   aggregation happens at the super-peers (the paper's alternative in
//!   Section 3.2).
//! * [`Architecture::Centralized`] — the baseline: every peer uploads its
//!   full edge list and one node computes flat PageRank over the whole
//!   DocGraph.

use std::time::Instant;

use crate::error::{P2pError, Result};
use crate::message::{Address, Payload};
use crate::network::{FaultConfig, SimNetwork};
use crate::peer::GroupNode;
use crate::stats::RunStats;
use lmm_core::siterank::{
    compose, flat_pagerank, local_ranks, site_layer, LayeredRankConfig, SiteLayerMethod,
};
use lmm_graph::docgraph::DocGraph;
use lmm_graph::sitegraph::{ranking_site_graph, SiteGraphOptions};
use lmm_linalg::PowerOptions;
use lmm_rank::Ranking;

/// Deployment topology of the simulated search engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// One peer per site; SiteRank runs as a flat distributed iteration.
    Flat,
    /// Sites partitioned over `n_groups` super-peers; aggregation at the
    /// super-peers, batched inter-group traffic.
    SuperPeer {
        /// Number of super-peers.
        n_groups: usize,
    },
    /// Local DocRanks at the peers, but the SiteRank computed once by the
    /// coordinator from uploaded SiteLink rows and shared back — the
    /// paper's "SiteRank could be a shared resource among all peers"
    /// deployment. Minimizes traffic: the SiteGraph crosses the wire once
    /// instead of once per power-iteration round.
    Hybrid,
    /// Ship the whole DocGraph to one node and run flat PageRank there.
    Centralized,
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Architecture::Flat => write!(f, "flat p2p"),
            Architecture::SuperPeer { n_groups } => write!(f, "super-peer x{n_groups}"),
            Architecture::Hybrid => write!(f, "hybrid (central siterank)"),
            Architecture::Centralized => write!(f, "centralized"),
        }
    }
}

/// Configuration of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedConfig {
    /// Deployment topology.
    pub architecture: Architecture,
    /// Damping of the SiteRank iteration.
    pub site_damping: f64,
    /// Damping of the per-site local DocRanks.
    pub local_damping: f64,
    /// L1 convergence tolerance of the distributed SiteRank.
    pub tol: f64,
    /// Round budget for the distributed SiteRank.
    pub max_rounds: u32,
    /// SiteGraph derivation options.
    pub site_options: SiteGraphOptions,
    /// Power budget for local computations (local DocRanks; the
    /// centralized baseline's global PageRank).
    pub power: PowerOptions,
    /// Optional message-loss injection.
    pub fault: Option<FaultConfig>,
    /// Worker threads for the parallel local-DocRank phase and the
    /// centralized baseline's PageRank (`0` = one per available core).
    pub threads: usize,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            architecture: Architecture::Flat,
            site_damping: 0.85,
            local_damping: 0.85,
            tol: 1e-10,
            max_rounds: 10_000,
            site_options: SiteGraphOptions::default(),
            power: PowerOptions::with_tol(1e-10),
            fault: None,
            threads: 0,
        }
    }
}

impl DistributedConfig {
    /// Returns `self` with a different architecture.
    #[must_use]
    pub fn with_architecture(mut self, architecture: Architecture) -> Self {
        self.architecture = architecture;
        self
    }

    /// The configuration of the `lmm-core` solve the peers run.
    fn layered(&self) -> LayeredRankConfig {
        LayeredRankConfig {
            local_damping: self.local_damping,
            site_damping: self.site_damping,
            site_method: SiteLayerMethod::PageRank,
            site_options: self.site_options,
            power: self.power.clone(),
            threads: self.threads,
            ..LayeredRankConfig::default()
        }
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The architecture that produced this outcome.
    pub architecture: Architecture,
    /// The global document ranking. For `Flat`/`SuperPeer` this is the
    /// layered SiteRank × DocRank composition; for `Centralized` it is flat
    /// PageRank (the baseline system's semantics).
    pub global: Ranking,
    /// The SiteRank (uniform for the centralized baseline, which never
    /// computes one).
    pub site_rank: Ranking,
    /// Per-phase traffic and timing.
    pub stats: RunStats,
    /// Rounds the distributed SiteRank needed (0 for centralized).
    pub siterank_rounds: u32,
}

/// Runs the configured architecture over the document graph.
///
/// # Errors
/// * [`P2pError::InvalidConfig`] for empty graphs or bad parameters;
/// * [`P2pError::NotConverged`] when the SiteRank round budget is
///   exhausted;
/// * propagated PageRank failures from the compute phases.
pub fn run_distributed(graph: &DocGraph, config: &DistributedConfig) -> Result<DistributedOutcome> {
    if graph.n_docs() == 0 || graph.n_sites() == 0 {
        return Err(P2pError::InvalidConfig {
            reason: "graph has no documents or sites".into(),
        });
    }
    match config.architecture {
        Architecture::Centralized => run_centralized(graph, config),
        Architecture::Hybrid => run_hybrid(graph, config),
        Architecture::Flat => {
            let groups: Vec<Vec<usize>> = (0..graph.n_sites()).map(|s| vec![s]).collect();
            run_layered(graph, config, groups)
        }
        Architecture::SuperPeer { n_groups } => {
            if n_groups == 0 || n_groups > graph.n_sites() {
                return Err(P2pError::InvalidConfig {
                    reason: format!(
                        "{n_groups} super-peers cannot host {} sites",
                        graph.n_sites()
                    ),
                });
            }
            let mut groups = vec![Vec::new(); n_groups];
            for s in 0..graph.n_sites() {
                groups[s % n_groups].push(s);
            }
            run_layered(graph, config, groups)
        }
    }
}

/// The layered protocol (flat and super-peer are the same protocol over
/// different site partitions).
fn run_layered(
    graph: &DocGraph,
    config: &DistributedConfig,
    groups: Vec<Vec<usize>>,
) -> Result<DistributedOutcome> {
    let n_sites = graph.n_sites();
    let n_groups = groups.len();
    let mut owner_of = vec![0usize; n_sites];
    for (g, sites) in groups.iter().enumerate() {
        for &s in sites {
            owner_of[s] = g;
        }
    }
    let mut net = SimNetwork::new(n_groups, config.fault)?;
    let mut stats = RunStats::default();

    // --- Phase 1: SiteGraph derivation. Each peer derives its own
    // SiteLink row from its local pages' outgoing links; no traffic.
    let t0 = Instant::now();
    let site_graph = ranking_site_graph(graph, &config.site_options);
    let site_transition = site_graph.to_stochastic()?.into_matrix();
    let mut nodes: Vec<GroupNode> = groups
        .iter()
        .enumerate()
        .map(|(g, sites)| GroupNode::new(g, sites.clone(), &site_transition, config.site_damping))
        .collect::<Result<_>>()?;
    stats.push(net.end_phase("sitegraph", t0, 0));

    // --- Phase 2: distributed SiteRank (synchronous rounds).
    let t0 = Instant::now();
    let mut rounds = 0u32;
    let mut converged = false;
    let mut last_residual = f64::INFINITY;
    while rounds < config.max_rounds {
        rounds += 1;
        // Peers emit contributions + piggybacked round report.
        let mut total_dangling = 0.0;
        let mut total_residual = 0.0;
        for (g, node) in nodes.iter_mut().enumerate() {
            let emission = node.emit(&owner_of);
            total_dangling += emission.dangling_mass;
            total_residual += emission.residual;
            for (dst_group, entries) in emission.batches {
                net.send(
                    Address::Peer(g),
                    Address::Peer(dst_group),
                    Payload::RankContributionBatch { entries },
                )?;
            }
            net.send(
                Address::Peer(g),
                Address::Coordinator,
                Payload::RoundReport {
                    residual: emission.residual,
                    dangling_mass: emission.dangling_mass,
                },
            )?;
        }
        last_residual = total_residual;
        // Coordinator decides: stop (previous round's residual is already
        // below tolerance) or proceed with the aggregated dangling mass.
        let proceed = total_residual >= config.tol;
        for g in 0..n_groups {
            net.send(
                Address::Coordinator,
                Address::Peer(g),
                Payload::RoundControl {
                    dangling_share: total_dangling,
                    proceed,
                },
            )?;
        }
        if !proceed {
            converged = true;
            // Peers discard the emitted contributions of the final
            // half-round; drain the fabric so nothing dangles.
            for g in 0..n_groups {
                let _ = net.drain(Address::Peer(g))?;
            }
            let _ = net.drain(Address::Coordinator)?;
            break;
        }
        // Deliver contributions and apply the synchronized update.
        let _ = net.drain(Address::Coordinator)?;
        for (g, node) in nodes.iter_mut().enumerate() {
            for msg in net.drain(Address::Peer(g))? {
                if let Payload::RankContributionBatch { entries } = msg.payload {
                    node.absorb(&entries)?;
                }
            }
            node.apply_update(total_dangling);
        }
    }
    if !converged {
        return Err(P2pError::NotConverged {
            rounds,
            residual: last_residual,
        });
    }
    stats.push(net.end_phase("siterank rounds", t0, rounds));

    // Collect the site rank vector (conceptually known to each owner).
    let mut site_scores = vec![0.0f64; n_sites];
    for node in &nodes {
        for (s, r) in node.ranks() {
            site_scores[s] = r;
        }
    }
    let site_rank = Ranking::from_weights(site_scores)?;

    // --- Phase 3: local DocRanks in parallel (no traffic).
    let t0 = Instant::now();
    let local = peer_local_ranks(graph, config)?;
    stats.push(net.end_phase("local docranks", t0, 0));

    // --- Phase 4: aggregation. Site peers ship local vectors to their
    // owner (super-peer or coordinator); owners compose their slice and
    // forward it.
    let t0 = Instant::now();
    for (s, &owner) in owner_of.iter().enumerate() {
        // In the flat architecture the site's compute process *is* its
        // protocol node, so handing the vector over is a local move, not
        // network traffic; only uploads to a distinct super-peer count.
        let is_own_node = groups[owner].len() == 1 && groups[owner][0] == s;
        if is_own_node {
            continue;
        }
        net.send(
            Address::Peer(s.min(n_groups - 1)), // the site's compute peer
            Address::Peer(owner),
            Payload::LocalRankVector {
                scores: local[s].scores().to_vec(),
            },
        )?;
    }
    // Owners weight their slices and forward the composed sub-vector.
    for (g, sites) in groups.iter().enumerate() {
        let slice_len: usize = sites.iter().map(|&s| local[s].len()).sum();
        net.send(
            Address::Peer(g),
            Address::Coordinator,
            Payload::LocalRankVector {
                scores: vec![0.0; slice_len], // sizes drive accounting
            },
        )?;
        let _ = net.drain(Address::Peer(g))?;
    }
    let _ = net.drain(Address::Coordinator)?;
    let global = compose(graph, &site_rank, &local)?;
    stats.push(net.end_phase("aggregation", t0, 0));

    Ok(DistributedOutcome {
        architecture: config.architecture,
        global,
        site_rank,
        stats,
        siterank_rounds: rounds,
    })
}

/// The hybrid deployment: SiteLink rows go up once, the coordinator ranks
/// the (small) SiteGraph centrally and shares the vector; local DocRanks
/// stay at the peers.
fn run_hybrid(graph: &DocGraph, config: &DistributedConfig) -> Result<DistributedOutcome> {
    let n_sites = graph.n_sites();
    let mut net = SimNetwork::new(n_sites, config.fault)?;
    let mut stats = RunStats::default();

    // --- Phase 1: SiteLink rows cross the wire exactly once.
    let t0 = Instant::now();
    let site_graph = ranking_site_graph(graph, &config.site_options);
    for s in 0..n_sites {
        let (cols, vals) = site_graph.weights().row(s);
        net.send(
            Address::Peer(s),
            Address::Coordinator,
            Payload::SiteLinkRow {
                entries: cols.iter().copied().zip(vals.iter().copied()).collect(),
            },
        )?;
    }
    let _ = net.drain(Address::Coordinator)?;
    stats.push(net.end_phase("sitelink upload", t0, 0));

    // --- Phase 2: central SiteRank + broadcast of the shared vector.
    let t0 = Instant::now();
    let (site_rank, site_report) = site_layer(graph, &config.layered(), None)?;
    for s in 0..n_sites {
        net.send(
            Address::Coordinator,
            Address::Peer(s),
            Payload::LocalRankVector {
                scores: site_rank.scores().to_vec(),
            },
        )?;
        let _ = net.drain(Address::Peer(s))?;
    }
    stats.push(net.end_phase("central siterank", t0, site_report.iterations as u32));

    // --- Phase 3: local DocRanks in parallel at the peers (no traffic).
    let t0 = Instant::now();
    let local = peer_local_ranks(graph, config)?;
    stats.push(net.end_phase("local docranks", t0, 0));

    // --- Phase 4: peers ship their (already weighted) slices.
    let t0 = Instant::now();
    for (s, ranks) in local.iter().enumerate() {
        net.send(
            Address::Peer(s),
            Address::Coordinator,
            Payload::LocalRankVector {
                scores: ranks.scores().to_vec(),
            },
        )?;
    }
    let _ = net.drain(Address::Coordinator)?;
    let global = compose(graph, &site_rank, &local)?;
    stats.push(net.end_phase("aggregation", t0, 0));

    Ok(DistributedOutcome {
        architecture: Architecture::Hybrid,
        global,
        site_rank,
        stats,
        siterank_rounds: 0,
    })
}

/// The centralized baseline: upload everything, rank flat.
fn run_centralized(graph: &DocGraph, config: &DistributedConfig) -> Result<DistributedOutcome> {
    let n_sites = graph.n_sites();
    let mut net = SimNetwork::new(n_sites, config.fault)?;
    let mut stats = RunStats::default();

    // Upload phase: each site ships every outgoing edge of its pages.
    let t0 = Instant::now();
    let site_of = graph.site_assignments();
    let mut edges_per_site = vec![0usize; n_sites];
    for (src, _, _) in graph.adjacency().iter() {
        edges_per_site[site_of[src].index()] += 1;
    }
    for (s, &n_edges) in edges_per_site.iter().enumerate() {
        net.send(
            Address::Peer(s),
            Address::Coordinator,
            Payload::EdgeList { n_edges },
        )?;
    }
    let _ = net.drain(Address::Coordinator)?;
    stats.push(net.end_phase("graph upload", t0, 0));

    // Central compute phase.
    let t0 = Instant::now();
    let result = flat_pagerank(graph, config.local_damping, &config.power, config.threads)?;
    stats.push(net.end_phase("central pagerank", t0, 0));

    Ok(DistributedOutcome {
        architecture: Architecture::Centralized,
        global: result.ranking,
        site_rank: Ranking::uniform(n_sites)?,
        stats,
        siterank_rounds: 0,
    })
}

/// Every site's local DocRank, solved cold by `lmm-core`'s per-site solve
/// on the shared worker pool — the real deployment's site servers each
/// ranking their own collection concurrently.
fn peer_local_ranks(graph: &DocGraph, config: &DistributedConfig) -> Result<Vec<Ranking>> {
    let mut local = vec![Ranking::empty(); graph.n_sites()];
    let jobs: Vec<(usize, bool)> = graph.live_sites().map(|s| (s.index(), false)).collect();
    local_ranks(graph, &mut local, &jobs, &config.layered())?;
    Ok(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_core::siterank::layered_doc_rank;
    use lmm_graph::generator::CampusWebConfig;
    use lmm_linalg::vec_ops;

    fn small_graph() -> DocGraph {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = 500;
        cfg.n_sites = 10;
        cfg.spam_farms.truncate(1);
        cfg.spam_farms[0].host_site = 4;
        cfg.spam_farms[0].n_pages = 60;
        cfg.generate().unwrap()
    }

    #[test]
    fn flat_matches_single_process_pipeline() {
        let g = small_graph();
        let distributed = run_distributed(&g, &DistributedConfig::default()).unwrap();
        let local = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        assert!(
            vec_ops::l1_diff(distributed.global.scores(), local.global.scores()) < 1e-6,
            "distributed and single-process layered ranks must agree"
        );
        assert!(vec_ops::l1_diff(distributed.site_rank.scores(), local.site_rank.scores()) < 1e-6);
    }

    #[test]
    fn superpeer_matches_flat_result() {
        let g = small_graph();
        let flat = run_distributed(&g, &DistributedConfig::default()).unwrap();
        let sp = run_distributed(
            &g,
            &DistributedConfig::default()
                .with_architecture(Architecture::SuperPeer { n_groups: 3 }),
        )
        .unwrap();
        assert!(vec_ops::l1_diff(flat.global.scores(), sp.global.scores()) < 1e-9);
    }

    #[test]
    fn superpeer_uses_fewer_messages_per_round() {
        let g = small_graph();
        let flat = run_distributed(&g, &DistributedConfig::default()).unwrap();
        let sp = run_distributed(
            &g,
            &DistributedConfig::default()
                .with_architecture(Architecture::SuperPeer { n_groups: 2 }),
        )
        .unwrap();
        let per_round = |o: &DistributedOutcome| {
            let phase = o
                .stats
                .phases
                .iter()
                .find(|p| p.name == "siterank rounds")
                .unwrap();
            phase.traffic.messages as f64 / f64::from(phase.rounds)
        };
        assert!(per_round(&sp) < per_round(&flat));
    }

    #[test]
    fn centralized_ships_the_graph() {
        let g = small_graph();
        let c = run_distributed(
            &g,
            &DistributedConfig::default().with_architecture(Architecture::Centralized),
        )
        .unwrap();
        let upload = &c.stats.phases[0];
        assert_eq!(upload.name, "graph upload");
        // Upload bytes scale with the edge count (16 bytes per edge + headers).
        assert!(upload.traffic.bytes as usize >= g.n_links() * 16);
        // The hybrid layered deployment moves far less data: SiteLink rows
        // once plus rank vectors, instead of the whole DocGraph.
        let hybrid = run_distributed(
            &g,
            &DistributedConfig::default().with_architecture(Architecture::Hybrid),
        )
        .unwrap();
        assert!(hybrid.stats.total().bytes < upload.traffic.bytes);
    }

    #[test]
    fn hybrid_matches_flat_result() {
        let g = small_graph();
        let flat = run_distributed(&g, &DistributedConfig::default()).unwrap();
        let hybrid = run_distributed(
            &g,
            &DistributedConfig::default().with_architecture(Architecture::Hybrid),
        )
        .unwrap();
        assert!(vec_ops::l1_diff(flat.global.scores(), hybrid.global.scores()) < 1e-6);
        assert!(vec_ops::l1_diff(flat.site_rank.scores(), hybrid.site_rank.scores()) < 1e-6);
    }

    #[test]
    fn message_loss_preserves_result_and_inflates_traffic() {
        let g = small_graph();
        let clean = run_distributed(&g, &DistributedConfig::default()).unwrap();
        let cfg = DistributedConfig {
            fault: Some(FaultConfig {
                drop_prob: 0.2,
                seed: 7,
            }),
            ..DistributedConfig::default()
        };
        let lossy = run_distributed(&g, &cfg).unwrap();
        assert!(vec_ops::l1_diff(clean.global.scores(), lossy.global.scores()) < 1e-9);
        assert!(lossy.stats.total().retransmissions > 0);
        assert!(lossy.stats.total().messages > clean.stats.total().messages);
    }

    #[test]
    fn round_budget_enforced() {
        let g = small_graph();
        let cfg = DistributedConfig {
            max_rounds: 2,
            ..DistributedConfig::default()
        };
        assert!(matches!(
            run_distributed(&g, &cfg),
            Err(P2pError::NotConverged { rounds: 2, .. })
        ));
    }

    #[test]
    fn config_validation() {
        let g = small_graph();
        let cfg =
            DistributedConfig::default().with_architecture(Architecture::SuperPeer { n_groups: 0 });
        assert!(run_distributed(&g, &cfg).is_err());
        let cfg = DistributedConfig::default()
            .with_architecture(Architecture::SuperPeer { n_groups: 99 });
        assert!(run_distributed(&g, &cfg).is_err());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let g = small_graph();
        let cfg = DistributedConfig {
            threads: 1,
            ..DistributedConfig::default()
        };
        let serial = run_distributed(&g, &cfg).unwrap();
        let parallel = run_distributed(&g, &DistributedConfig::default()).unwrap();
        assert!(vec_ops::l1_diff(serial.global.scores(), parallel.global.scores()) < 1e-12);
    }

    #[test]
    fn architecture_display() {
        assert_eq!(Architecture::Flat.to_string(), "flat p2p");
        assert_eq!(
            Architecture::SuperPeer { n_groups: 4 }.to_string(),
            "super-peer x4"
        );
        assert_eq!(Architecture::Centralized.to_string(), "centralized");
    }
}
