//! The system under test, behind one adapter.
//!
//! This is the only file of the benchmark that names a product API. Every
//! layer is driven from outside through its public functions; every
//! product config is its `Default`; each product `*Stats` struct is read in
//! exactly one place. When a product API moves, this file is the whole
//! diff.
//!
//! Product errors are flattened to strings: the harness only counts and
//! prints them.

use std::fmt::Display;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmm_cluster::{
    decode_frame, encode_frame, ClientConfig, ClusterClient, ClusterController, ControllerConfig,
    FramedConn, Message, NodeConfig, ShardNode, WireCounters,
};
use lmm_core::incremental::{self, SiteDelta};
use lmm_core::siterank::{self, LayeredDocRank, LayeredRankConfig, SiteLayerMethod};
use lmm_engine::{BackendSpec, RankEngine, RankSnapshot, RunTelemetry};
use lmm_graph::delta::{AppliedDelta, GraphDelta};
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::sitegraph::{ranking_site_graph, SiteGraphOptions};
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_p2p::runner::Architecture;
use lmm_rank::pagerank::PageRank;
use lmm_serve::{shard_site_range, ServeConfig, ShardQuery, ShardState, ShardedServer, SwapGrade};

use crate::gen::{DeltaSpec, QueryOp, Targets, WebView};

pub type Res<T> = Result<T, String>;

fn flat<T, E: Display>(r: Result<T, E>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

pub const DAMPING: f64 = 0.85;
pub const TOLERANCE: f64 = 1e-10;
pub const N_SHARDS: usize = 8;
pub const N_NODES: usize = 4;
pub const TOP_K: usize = 10;
pub const SITE_K: usize = 10;

// ---------------------------------------------------------------- graph

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 100 000 documents over 400 sites: every gated number.
    Bench,
    /// 2 000 documents over 40 sites: `--smoke` and the unit tests.
    Smoke,
    /// The generator's full crawl scale (430 000 documents, 218 sites): one
    /// per-layer probe of the same kernels on sites eight times larger.
    Full,
}

/// The campus web: the product's document graph.
#[derive(Debug, Clone)]
pub struct Web(DocGraph);

impl Web {
    /// The generator's campus web at its own fixed seed, spam farms
    /// cleared. The web is deliberately the same for every `--seed`: across
    /// generator seeds the cold ranking time moves by a fifth (iteration
    /// counts follow the largest sites' structure), which would drown the
    /// changes the rank metrics exist to show.
    pub fn generate(scale: Scale) -> Res<Web> {
        let mut cfg = match scale {
            Scale::Full => CampusWebConfig::full_scale(),
            _ => CampusWebConfig::paper_scale(),
        };
        cfg.spam_farms.clear();
        match scale {
            Scale::Bench => (cfg.total_docs, cfg.n_sites) = (100_000, 400),
            Scale::Smoke => (cfg.total_docs, cfg.n_sites) = (2_000, 40),
            Scale::Full => {}
        }
        flat(cfg.generate()).map(Web)
    }

    pub fn n_links(&self) -> usize {
        self.0.n_links()
    }

    pub fn n_live_sites(&self) -> usize {
        self.0.n_live_sites()
    }

    pub fn shard_map(&self) -> Res<Shards> {
        flat(ShardMap::balanced(&self.0, N_SHARDS)).map(Shards)
    }

    /// Builds the product's delta from a generated spec, checking that the
    /// ids the product hands out are the ids the spec predicted.
    pub fn delta(&self, spec: &DeltaSpec) -> Res<Delta> {
        let mut delta = GraphDelta::for_graph(&self.0);
        for i in 0..spec.new_sites {
            let site = delta.add_site(&format!("churn-{}.example", self.0.n_sites() + i));
            if site.index() != self.0.n_sites() + i {
                return Err(format!(
                    "new site numbered {site}, spec expected {}",
                    self.0.n_sites() + i
                ));
            }
        }
        for (i, &site) in spec.new_pages.iter().enumerate() {
            let want = self.0.n_docs() + i;
            let doc = flat(delta.add_page(SiteId(site), &format!("http://churn.example/{want}")))?;
            if doc.index() != want {
                return Err(format!("new page numbered {doc}, spec expected {want}"));
            }
        }
        for &(a, b) in &spec.remove_links {
            flat(delta.remove_link(DocId(a), DocId(b)))?;
        }
        for &(a, b) in &spec.add_links {
            flat(delta.add_link(DocId(a), DocId(b)))?;
        }
        for &p in &spec.remove_pages {
            flat(delta.remove_page(DocId(p)))?;
        }
        for &s in &spec.remove_sites {
            flat(delta.remove_site(SiteId(s)))?;
        }
        Ok(Delta(delta))
    }

    /// `DocGraph::apply`: the mutated web and the induced summary. The
    /// engine runs the same function inside `apply_delta`; the harness
    /// calls it to keep its own copy of the web, and times it as the
    /// replay that attributes the graph layer's share.
    pub fn apply(&self, delta: &Delta) -> Res<(Web, Applied)> {
        flat(self.0.apply(&delta.0)).map(|(g, a)| (Web(g), Applied(a)))
    }

    /// `ranking_site_graph`: the site-graph derivation every layered
    /// ranking starts with. Returns its link count so the call is used.
    pub fn site_graph_links(&self) -> usize {
        ranking_site_graph(&self.0, &SiteGraphOptions::default()).n_sitelinks()
    }

    /// `diff_sites(old, self)`: the graph diff the incremental backend
    /// falls back to when it is handed a graph and not a delta.
    pub fn diff_from(&self, old: &Web) -> Res<usize> {
        flat(incremental::diff_sites(&old.0, &self.0)).map(|d| d.changed_sites.len())
    }

    /// Flat PageRank through `lmm-rank` alone, no engine: iterations run.
    pub fn pagerank_direct(&self, threads: usize) -> Res<usize> {
        let mut pr = PageRank::new();
        pr.damping(DAMPING).tol(TOLERANCE).threads(threads);
        flat(pr.run_adjacency(self.0.adjacency().clone())).map(|r| r.report.iterations)
    }
}

impl WebView for Web {
    fn n_docs(&self) -> usize {
        self.0.n_docs()
    }
    fn n_sites(&self) -> usize {
        self.0.n_sites()
    }
    fn site_size(&self, site: usize) -> usize {
        self.0.site_size(SiteId(site))
    }
    fn site_doc(&self, site: usize, i: usize) -> usize {
        self.0.docs_of_site(SiteId(site))[i].index()
    }
    fn intra_site_link(&self, doc: usize) -> Option<usize> {
        let site = self.0.site_of(DocId(doc));
        let (cols, _) = self.0.adjacency().row(doc);
        cols.iter()
            .copied()
            .find(|&to| self.0.site_of(DocId(to)) == site)
    }
}

#[derive(Debug, Clone)]
pub struct Shards(ShardMap);

#[derive(Debug, Clone)]
pub struct Delta(GraphDelta);

#[derive(Debug, Clone)]
pub struct Applied(AppliedDelta);

// ----------------------------------------------------------------- core

/// Counters of one ranking run, whichever layer produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunInfo {
    pub converged: bool,
    pub site_iters: usize,
    pub local_iters_total: usize,
    pub local_iters_max: usize,
    pub sites_recomputed: usize,
    pub sites_reused: usize,
    pub messages: u64,
    pub bytes: u64,
    pub retransmissions: u64,
}

/// The one place `RunTelemetry` is read.
fn run_info(t: &RunTelemetry) -> RunInfo {
    RunInfo {
        converged: t.converged,
        site_iters: t.site_iterations,
        local_iters_total: t.total_local_iterations,
        local_iters_max: t.max_local_iterations,
        sites_recomputed: t.sites_recomputed,
        sites_reused: t.sites_reused,
        messages: t.messages,
        bytes: t.bytes,
        retransmissions: t.retransmissions,
    }
}

fn layered_config(stationary: bool, threads: usize) -> LayeredRankConfig {
    LayeredRankConfig {
        site_method: if stationary {
            SiteLayerMethod::Stationary
        } else {
            SiteLayerMethod::PageRank
        },
        threads,
        ..LayeredRankConfig::with_damping(DAMPING)
    }
}

/// A layered ranking held by the harness itself: `lmm-core` called
/// directly, with no engine around it. It is the direct-call probe of the
/// core layer, and — updated in step with the engine — the replay that
/// attributes the core layer's share of an `apply_delta`.
#[derive(Debug, Clone)]
pub struct Layered(LayeredDocRank);

impl Layered {
    /// `layered_doc_rank`, cold. `stationary` selects the paper's Approach
    /// 4 site layer; the incremental backend uses the PageRank site layer.
    pub fn rank(web: &Web, stationary: bool, threads: usize) -> Res<(Layered, RunInfo)> {
        let r = flat(siterank::layered_doc_rank(
            &web.0,
            &layered_config(stationary, threads),
        ))?;
        let info = RunInfo {
            converged: r.site_report.converged,
            site_iters: r.site_report.iterations,
            local_iters_total: r.total_local_iterations,
            local_iters_max: r.max_local_iterations,
            sites_recomputed: web.0.n_sites(),
            ..RunInfo::default()
        };
        Ok((Layered(r), info))
    }

    /// `incremental_update` against the mutated web.
    pub fn update(
        &self,
        new_web: &Web,
        applied: &Applied,
        threads: usize,
    ) -> Res<(Layered, RunInfo)> {
        let delta = SiteDelta::from(&applied.0);
        if delta.is_empty() {
            return Ok((
                self.clone(),
                RunInfo {
                    converged: true,
                    sites_reused: new_web.0.n_sites(),
                    ..RunInfo::default()
                },
            ));
        }
        let (r, stats) = flat(incremental::incremental_update(
            &self.0,
            &new_web.0,
            &delta,
            &layered_config(false, threads),
        ))?;
        let info = RunInfo {
            converged: r.site_report.converged,
            sites_recomputed: stats.sites_recomputed,
            sites_reused: stats.sites_reused,
            ..RunInfo::default()
        };
        Ok((Layered(r), info))
    }

    pub fn scores(&self) -> &[f64] {
        self.0.global.scores()
    }
}

// --------------------------------------------------------------- engine

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Layered { Stationary }`: the paper's Approach 4.
    Layered,
    /// `FlatPageRank`: the paper's baseline.
    Flat,
    /// `Distributed { Flat }`: one simulated peer per site.
    DistributedFlat,
    /// `Distributed { SuperPeer { 16 } }`.
    DistributedSuperPeer,
    /// `Incremental`: the only backend that takes deltas.
    Incremental,
}

pub struct Engine(RankEngine);

impl Engine {
    pub fn new(backend: Backend, threads: usize) -> Res<Engine> {
        let spec = match backend {
            Backend::Layered => BackendSpec::Layered {
                site_layer: SiteLayerMethod::Stationary,
            },
            Backend::Flat => BackendSpec::FlatPageRank,
            Backend::DistributedFlat => BackendSpec::Distributed {
                architecture: Architecture::Flat,
            },
            Backend::DistributedSuperPeer => BackendSpec::Distributed {
                architecture: Architecture::SuperPeer { n_groups: 16 },
            },
            Backend::Incremental => BackendSpec::Incremental,
        };
        flat(
            RankEngine::builder()
                .backend(spec)
                .damping(DAMPING)
                .tolerance(TOLERANCE)
                .threads(threads)
                .build(),
        )
        .map(Engine)
    }

    pub fn rank(&mut self, web: &Web) -> Res<RunInfo> {
        flat(self.0.rank(&web.0)).map(|o| run_info(&o.telemetry))
    }

    pub fn apply_delta(&mut self, delta: &Delta) -> Res<RunInfo> {
        flat(self.0.apply_delta(&delta.0)).map(|o| run_info(&o.telemetry))
    }

    pub fn snapshot(&self) -> Res<Snap> {
        flat(self.0.snapshot()).map(Snap)
    }

    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    /// The engine's own cached `top_k`: the reference every served
    /// `top_k` must equal bit for bit.
    pub fn top_k(&self) -> Res<Vec<(usize, u64)>> {
        flat(self.0.top_k(TOP_K)).map(top_bits)
    }

    pub fn scores(&self) -> Res<&[f64]> {
        flat(self.0.outcome()).map(|o| o.ranking.scores())
    }
}

fn top_bits(top: Vec<(DocId, f64)>) -> Vec<(usize, u64)> {
    top.into_iter()
        .map(|(d, s)| (d.index(), s.to_bits()))
        .collect()
}

/// One immutable epoch of scores: the unit handed to a serving tier.
#[derive(Debug, Clone)]
pub struct Snap(RankSnapshot);

impl Snap {
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    pub fn score_bits(&self, doc: usize) -> u64 {
        self.0.scores()[doc].to_bits()
    }

    pub fn mass(&self) -> f64 {
        self.0.scores().iter().sum()
    }

    /// `ShardState::build` of shard 0: what a publish does per stale shard.
    pub fn build_one_shard(&self, shards: &Shards) -> usize {
        let range = shard_site_range(&shards.0, 0, self.0.n_sites());
        ShardState::build(&self.0, range, ServeConfig::default().heap_k).n_docs()
    }
}

// -------------------------------------------------------------- queries

/// One answer: the epoch it was read at and a digest of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub epoch: u64,
    pub digest: u64,
}

pub fn top_digest(top: &[(usize, u64)]) -> u64 {
    top.iter().fold(top.len() as u64, |h, &(d, bits)| {
        (h ^ d as u64 ^ bits.rotate_left(17)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Query targets in the product's id types, built once so that a measured
/// loop converts nothing.
#[derive(Debug, Clone)]
pub struct Batches(Vec<(SiteId, Vec<DocId>)>);

impl Batches {
    pub fn of(targets: &Targets) -> Self {
        Self(
            targets
                .sites
                .iter()
                .map(|(s, docs)| (SiteId(*s), docs.iter().map(|&d| DocId(d)).collect()))
                .collect(),
        )
    }

    /// What a snapshot says a point answer must be; `None` for the classes
    /// checked by epoch alone.
    pub fn expect(&self, op: &QueryOp, snap: &Snap) -> Option<u64> {
        match *op {
            QueryOp::Score(d) => Some(snap.score_bits(d)),
            QueryOp::Batch { target } => Some(snap.score_bits(self.0[target].1[0].index())),
            _ => None,
        }
    }
}

/// One query against either tier, through the product's shared query
/// surface.
fn answer<T: ShardQuery>(tier: &T, op: &QueryOp, b: &Batches) -> Res<Answer> {
    match *op {
        QueryOp::Score(d) => flat(tier.score(DocId(d))).map(|(epoch, s)| Answer {
            epoch,
            digest: s.to_bits(),
        }),
        QueryOp::Batch { target } => {
            flat(tier.score_batch(&b.0[target].1)).map(|(epoch, s)| Answer {
                epoch,
                digest: s[0].to_bits(),
            })
        }
        QueryOp::SiteTopK { target } => {
            flat(tier.top_k_for_site(b.0[target].0, SITE_K)).map(|(epoch, top)| Answer {
                epoch,
                digest: top.len() as u64,
            })
        }
        QueryOp::Compare { target, i, j } => {
            let docs = &b.0[target].1;
            flat(tier.compare(docs[i], docs[j])).map(|(epoch, ord)| Answer {
                epoch,
                digest: ord as i8 as u64,
            })
        }
        QueryOp::TopK => flat(tier.top_k(TOP_K)).map(|(epoch, top)| Answer {
            epoch,
            digest: top_digest(&top_bits(top)),
        }),
    }
}

/// A tier that answers the five queries, each answer from one epoch.
pub trait Surface: Sync {
    fn answer(&self, op: &QueryOp, batches: &Batches) -> Res<Answer>;
}

// ---------------------------------------------------------------- serve

/// The in-process serving tier.
pub struct Server(ShardedServer);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapInfo {
    pub rebuilt: usize,
    pub repinned: usize,
    pub refreshed: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    pub direct_hits: u64,
    pub fanout_queries: u64,
    pub gather_retries: u64,
    pub gate_escalations: u64,
}

impl Server {
    pub fn start(shards: &Shards, snap: &Snap) -> Res<Server> {
        flat(ShardedServer::start(
            shards.0.clone(),
            &snap.0,
            ServeConfig::default(),
        ))
        .map(Server)
    }

    pub fn publish(&self, snap: &Snap) -> Res<SwapInfo> {
        flat(self.0.publish(&snap.0)).map(|r| SwapInfo {
            rebuilt: r.shards_rebuilt,
            repinned: r.shards_repinned,
            refreshed: r.shards_refreshed,
        })
    }

    /// The one place `ServeStatsSnapshot` is read.
    pub fn counters(&self) -> ServeCounters {
        let s = self.0.stats();
        ServeCounters {
            direct_hits: s.direct_hits,
            fanout_queries: s.fanout_queries,
            gather_retries: s.gather_retries,
            gate_escalations: s.gate_escalations,
        }
    }
}

impl Surface for Server {
    fn answer(&self, op: &QueryOp, batches: &Batches) -> Res<Answer> {
        answer(&self.0, op, batches)
    }
}

// -------------------------------------------------------------- cluster

/// A loopback fabric: one controller, [`N_NODES`] shard nodes.
pub struct Cluster {
    controller: ClusterController,
    nodes: Vec<ShardNode>,
    pub controller_start: Duration,
    /// Start of one node, registration included (median over the nodes).
    pub node_start: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterSwapInfo {
    pub swap: SwapInfo,
    pub attempts: usize,
    pub max_fanout_ms: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterCounters {
    pub publishes: u64,
    pub controller_bytes_out: u64,
    pub node_queries: u64,
    pub node_staged_expired: u64,
    pub node_aborted: u64,
}

impl ClusterCounters {
    /// Adds what one fabric instance counted between `before` and `now`.
    pub fn add_since(&mut self, now: &ClusterCounters, before: &ClusterCounters) {
        self.publishes += now.publishes - before.publishes;
        self.controller_bytes_out += now.controller_bytes_out - before.controller_bytes_out;
        self.node_queries += now.node_queries - before.node_queries;
        self.node_staged_expired += now.node_staged_expired - before.node_staged_expired;
        self.node_aborted += now.node_aborted - before.node_aborted;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientCounters {
    pub gather_retries: u64,
    pub gather_escalations: u64,
    pub placement_refreshes: u64,
    pub reconnects: u64,
    pub node_failures: u64,
    pub bytes: u64,
}

impl Cluster {
    pub fn start(shards: &Shards) -> Res<Cluster> {
        let t0 = Instant::now();
        let controller = flat(ClusterController::start(
            shards.0.clone(),
            ControllerConfig::default(),
        ))?;
        let controller_start = t0.elapsed();
        let mut nodes = Vec::with_capacity(N_NODES);
        let mut node_starts = Vec::with_capacity(N_NODES);
        for _ in 0..N_NODES {
            let t = Instant::now();
            nodes.push(flat(ShardNode::start(
                controller.addr(),
                NodeConfig::default(),
            ))?);
            node_starts.push(t.elapsed());
        }
        flat(controller.wait_for_nodes(N_NODES, Duration::from_secs(10)))?;
        node_starts.sort_unstable();
        Ok(Cluster {
            controller,
            nodes,
            controller_start,
            node_start: node_starts[N_NODES / 2],
        })
    }

    pub fn publish(&self, snap: &Snap) -> Res<ClusterSwapInfo> {
        flat(self.controller.publish(&snap.0)).map(|r| ClusterSwapInfo {
            swap: SwapInfo {
                rebuilt: r.rebuilt,
                repinned: r.repinned,
                refreshed: r.refreshed,
            },
            attempts: r.attempts,
            max_fanout_ms: r.max_fanout_ms,
        })
    }

    pub fn client(&self) -> Client {
        Client(ClusterClient::new(
            self.controller.addr(),
            ClientConfig::default(),
        ))
    }

    pub fn node_addr(&self, i: usize) -> &str {
        self.nodes[i].addr()
    }

    /// The one place `ClusterStats` and `NodeWireStats` are read.
    pub fn counters(&self) -> ClusterCounters {
        let s = self.controller.stats();
        let mut c = ClusterCounters {
            publishes: s.publishes,
            controller_bytes_out: s.controller_bytes.0,
            ..ClusterCounters::default()
        };
        for node in &self.nodes {
            let w = node.local_stats();
            c.node_queries += w.queries;
            c.node_staged_expired += w.staged_expired;
            c.node_aborted += w.aborted;
        }
        c
    }

    /// Stops every thread of the fabric and waits for it.
    pub fn shutdown(self) {
        self.controller.shutdown();
        for node in self.nodes {
            node.kill();
        }
    }
}

pub struct Client(ClusterClient);

impl Client {
    /// The one place `ClientStats` is read.
    pub fn counters(&self) -> ClientCounters {
        let s = self.0.stats();
        ClientCounters {
            gather_retries: s.gather_retries,
            gather_escalations: s.gather_escalations,
            placement_refreshes: s.placement_refreshes,
            reconnects: s.reconnects,
            node_failures: s.node_failures,
            bytes: s.bytes.0 + s.bytes.1,
        }
    }
}

impl Surface for Client {
    fn answer(&self, op: &QueryOp, batches: &Batches) -> Res<Answer> {
        answer(&self.0, op, batches)
    }
}

/// One kept connection to a node, for the transport probes.
pub struct Conn(FramedConn);

impl Conn {
    /// Connect plus first round trip, as the controller pays per stage and
    /// per commit when it dials a node.
    pub fn dial(addr: &str) -> Res<Conn> {
        let timeout = ControllerConfig::default().io_timeout;
        let mut conn = Conn(flat(FramedConn::connect(
            addr,
            timeout,
            Arc::new(WireCounters::default()),
        ))?);
        conn.ping()?;
        Ok(conn)
    }

    pub fn ping(&mut self) -> Res<()> {
        match flat(self.0.call(&Message::Ping { seq: 1 }))? {
            Message::Pong { .. } => Ok(()),
            other => Err(format!("expected Pong, got {other:?}")),
        }
    }
}

/// Wire codec of the frame a rebuild publish ships per shard: a `Stage`
/// carrying shard 0's snapshot segment. Returns (encode, decode, bytes).
pub fn wire_segment_codec(snap: &Snap, shards: &Shards) -> Res<(Duration, Duration, usize)> {
    let range = shard_site_range(&shards.0, 0, snap.0.n_sites());
    let msg = Message::Stage {
        epoch: 1,
        shard: 0,
        grade: SwapGrade::Rebuild,
        segment: Some(snap.0.export_segment(range)),
    };
    let t = Instant::now();
    let frame = flat(encode_frame(&msg))?;
    let encode = t.elapsed();
    let t = Instant::now();
    let (back, used) = flat(decode_frame(&frame))?;
    let decode = t.elapsed();
    if used != frame.len() || back != msg {
        return Err("Stage frame did not round-trip".into());
    }
    Ok((encode, decode, frame.len()))
}

/// Wire codec of one point query: request and reply, each encoded and
/// decoded `rounds` times. Returns the time per query.
pub fn wire_point_codec(rounds: usize) -> Res<Duration> {
    let request = Message::ScoreBatch {
        shard: 3,
        docs: vec![12_345],
    };
    let reply = Message::Scores {
        epoch: 7,
        rank_epoch: 7,
        scores: vec![lmm_serve::DocScore::Live(1.25e-5)],
    };
    let t = Instant::now();
    for _ in 0..rounds {
        for msg in [&request, &reply] {
            let frame = flat(encode_frame(black_box(msg)))?;
            black_box(flat(decode_frame(&frame))?);
        }
    }
    Ok(t.elapsed() / rounds as u32)
}
