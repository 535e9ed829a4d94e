//! The cluster client: the `ShardedServer` query surface over TCP, with
//! the same epoch-consistency contract.
//!
//! Every response is answered from exactly one *cluster* epoch. A
//! scatter-gather that straddles a publish (some nodes already at `C+1`,
//! some still at `C`) retries, then **escalates**: it re-fetches
//! placement from the controller each round and backs off until the
//! commit fan-out lands. Epoch mixing is *detected and retried*, never
//! merged.
//!
//! Failures are typed by what repairs them: a dead node answers as a
//! retriable [`ClusterError::NodeUnavailable`] (the controller's failover
//! reassigns and a later retry lands on a survivor), while tombstoned or
//! unknown documents surface the same typed `ServeError`s as the
//! in-process tier — bitwise-identical payloads, which the parity bench
//! checks.
//!
//! Routing state is cached aggressively because the id space is
//! append-only: a document → site assignment never changes once made, so
//! the cached table only refreshes when a query names a document beyond
//! its end; documents beyond even the *controller's* table route to the
//! last shard, exactly like the in-process router.
//!
//! The *placement* cache is not append-only — owners move on failover
//! and rejoin — so it is **evicted** the moment a node answers
//! `NotOwner`, and every refresh prunes pooled connections to addresses
//! no longer in the placement. Connections live in the fabric's shared
//! [`ConnPool`], which reconnects lazily: a call over a stale stream (the
//! peer restarted since it was parked) falls through to one fresh dial
//! before the failure surfaces, so a node restart costs callers a
//! reconnect, not an error.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocId, SiteId};
use lmm_serve::{
    DocScore, LatencyHistogram, LatencyHistogramSnapshot, ServeError, ShardQuery, SiteTopK,
};

use crate::error::{ClusterError, Result};
use crate::retry::RetryPolicy;
use crate::transport::{lock_clean, ConnPool, FaultPlan, TransportError, WireCounters};
use crate::wire::Message;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connect/read/write timeout per call.
    pub io_timeout: Duration,
    /// Free gather retries before escalating: a gather whose nodes
    /// answered from different cluster epochs (a commit or failover in
    /// flight), or hit a retriable node failure, is asked again at once
    /// this many times.
    pub max_gather_retries: usize,
    /// Retry discipline past the free retries: each escalation round
    /// re-fetches placement and sleeps a budgeted, jittered backoff step
    /// — the same [`RetryPolicy`] the controller and nodes use, so the
    /// whole fabric converges instead of stampeding.
    pub retry: RetryPolicy,
    /// Optional deterministic fault injection on this client's sends.
    pub fault: Option<FaultPlan>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(2),
            max_gather_retries: 4,
            retry: RetryPolicy::default(),
            fault: None,
        }
    }
}

/// The placement a client caches: one committed cluster epoch's shard map
/// and owner addresses.
#[derive(Debug)]
struct PlacementView {
    epoch: u64,
    rank_epoch: u64,
    map: ShardMap,
    owners: Vec<String>,
}

#[derive(Default)]
struct ClientState {
    placement: Option<Arc<PlacementView>>,
    /// Cached document → site routing (append-only, prefix-stable).
    site_of: Vec<u64>,
}

/// One reply of a scatter/gather round: `(shard, message)`.
type ShardReply = (u64, Message);
/// Builds the per-shard requests of one gather round from the placement
/// the round will run against.
type GatherPlan<'a> = &'a dyn Fn(&PlacementView) -> Result<Vec<ShardReply>>;
/// A converged gather: `(cluster_epoch, rank_epoch, replies)`.
type GatherOutcome = (u64, u64, Vec<ShardReply>);
/// Point-lookup batch grouped per shard: doc ids plus their positions in
/// the caller's input order.
type ShardBatches = BTreeMap<u64, (Vec<u64>, Vec<usize>)>;

/// Plain-value client counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Gathers retried on an epoch mismatch.
    pub gather_retries: u64,
    /// Gathers that escalated to placement-refresh rounds.
    pub gather_escalations: u64,
    /// Node calls that failed at the transport.
    pub node_failures: u64,
    /// Placement fetches from the controller.
    pub placement_refreshes: u64,
    /// Routing-table fetches from the controller.
    pub routing_refreshes: u64,
    /// Cached placements evicted after a `NotOwner` answer.
    pub placement_evictions: u64,
    /// Stale pooled connections replaced by a fresh dial.
    pub reconnects: u64,
    /// Bytes written / read by this client.
    pub bytes: (u64, u64),
    /// End-to-end latency of every `ShardQuery` call (success or error)
    /// — the same log2 buckets the in-process tier reports, so a
    /// dashboard can overlay the wire and in-process distributions.
    pub query_latency: LatencyHistogramSnapshot,
}

/// A cluster query client. Cheap to share behind an `Arc`; all methods
/// take `&self`.
pub struct ClusterClient {
    controller: String,
    cfg: ClientConfig,
    state: Mutex<ClientState>,
    pool: ConnPool,
    counters: Arc<WireCounters>,
    /// Per-gather salt: desynchronizes concurrent gathers' jitter
    /// streams without touching the shared budget.
    next_op: AtomicU64,
    gather_retries: AtomicU64,
    gather_escalations: AtomicU64,
    node_failures: AtomicU64,
    placement_refreshes: AtomicU64,
    routing_refreshes: AtomicU64,
    placement_evictions: AtomicU64,
    query_latency: LatencyHistogram,
}

/// Serving order for cross-shard merges: score descending, ties by id
/// ascending — identical to the in-process tier. Scores come off the
/// wire, so a non-finite value (hostile peer) sorts as equal instead of
/// panicking.
fn serve_cmp(a: &(DocId, f64), b: &(DocId, f64)) -> CmpOrdering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(CmpOrdering::Equal)
        .then(a.0.cmp(&b.0))
}

impl ClusterClient {
    /// Creates a client against the controller at `controller_addr`. No
    /// network traffic happens until the first query.
    #[must_use]
    pub fn new(controller_addr: &str, cfg: ClientConfig) -> Self {
        let counters = Arc::new(WireCounters::default());
        Self {
            controller: controller_addr.to_string(),
            state: Mutex::new(ClientState::default()),
            pool: ConnPool::new(cfg.io_timeout, Arc::clone(&counters), cfg.fault),
            cfg,
            counters,
            next_op: AtomicU64::new(0),
            gather_retries: AtomicU64::new(0),
            gather_escalations: AtomicU64::new(0),
            node_failures: AtomicU64::new(0),
            placement_refreshes: AtomicU64::new(0),
            routing_refreshes: AtomicU64::new(0),
            placement_evictions: AtomicU64::new(0),
            query_latency: LatencyHistogram::default(),
        }
    }

    /// Times one query-surface call into the client's latency histogram.
    /// Errors are recorded too: a failed gather is latency a caller paid.
    fn timed<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let out = f();
        self.query_latency.record(start.elapsed());
        out
    }

    /// This client's counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            gather_retries: self.gather_retries.load(Ordering::Relaxed),
            gather_escalations: self.gather_escalations.load(Ordering::Relaxed),
            node_failures: self.node_failures.load(Ordering::Relaxed),
            placement_refreshes: self.placement_refreshes.load(Ordering::Relaxed),
            routing_refreshes: self.routing_refreshes.load(Ordering::Relaxed),
            placement_evictions: self.placement_evictions.load(Ordering::Relaxed),
            reconnects: self.pool.reconnects(),
            bytes: self.counters.totals(),
            query_latency: self.query_latency.snapshot(),
        }
    }

    /// The `(cluster epoch, rank epoch)` pair of a freshly fetched
    /// placement.
    ///
    /// # Errors
    /// [`ClusterError::NotPublished`] before the first publish;
    /// [`ClusterError::ControllerUnavailable`] when the controller is
    /// gone.
    pub fn epochs(&self) -> Result<(u64, u64)> {
        let view = self.placement(true)?;
        Ok((view.epoch, view.rank_epoch))
    }

    // -- connections --------------------------------------------------------

    fn call_node(&self, addr: &str, msg: &Message) -> Result<Message> {
        let reply = self.pool.call(addr, msg).map_err(|e| {
            self.node_failures.fetch_add(1, Ordering::Relaxed);
            match e {
                TransportError::Wire(w) => ClusterError::Wire(w),
                other => ClusterError::NodeUnavailable {
                    addr: addr.to_string(),
                    detail: other.to_string(),
                },
            }
        })?;
        match reply {
            // Placement moved under us (failover or a rejoin handing
            // shards home). The cached view is *wrong*, not merely old —
            // evict it so the retry re-fetches instead of re-asking the
            // same non-owner.
            Message::NotOwner { shard } => {
                lock_clean(&self.state).placement = None;
                self.placement_evictions.fetch_add(1, Ordering::Relaxed);
                Err(ClusterError::NodeUnavailable {
                    addr: addr.to_string(),
                    detail: format!("no longer owns shard {shard}"),
                })
            }
            Message::Bad { detail } => Err(ClusterError::Protocol { detail }),
            other => Ok(other),
        }
    }

    fn call_controller(&self, msg: &Message) -> Result<Message> {
        let reply = self.pool.call(&self.controller, msg).map_err(|e| {
            ClusterError::ControllerUnavailable {
                detail: format!("{}: {e}", self.controller),
            }
        })?;
        match reply {
            Message::Bad { detail } => Err(ClusterError::Protocol { detail }),
            other => Ok(other),
        }
    }

    // -- placement & routing ------------------------------------------------

    fn placement(&self, refresh: bool) -> Result<Arc<PlacementView>> {
        if !refresh {
            if let Some(view) = lock_clean(&self.state).placement.clone() {
                return Ok(view);
            }
        }
        let reply = self.call_controller(&Message::PlacementReq)?;
        let Message::Placement {
            epoch,
            rank_epoch,
            boundaries,
            owners,
        } = reply
        else {
            return Err(ClusterError::Protocol {
                detail: format!("expected Placement, got {reply:?}"),
            });
        };
        if epoch == 0 {
            return Err(ClusterError::NotPublished);
        }
        let map = ShardMap::from_boundaries(boundaries.iter().map(|&b| b as usize).collect())
            .map_err(|e| ClusterError::Protocol {
                detail: format!("controller sent an invalid shard map: {e}"),
            })?;
        if owners.len() != map.n_shards() {
            return Err(ClusterError::Protocol {
                detail: format!(
                    "placement names {} owners for {} shards",
                    owners.len(),
                    map.n_shards()
                ),
            });
        }
        self.placement_refreshes.fetch_add(1, Ordering::Relaxed);
        let view = Arc::new(PlacementView {
            epoch,
            rank_epoch,
            map,
            owners,
        });
        lock_clean(&self.state).placement = Some(Arc::clone(&view));
        // Prune pooled connections to addresses the new placement no
        // longer names — dead nodes' streams would otherwise linger until
        // some call tripped over them.
        self.pool
            .retain(|addr| addr == self.controller || view.owners.iter().any(|o| o == addr));
        Ok(view)
    }

    /// The shard owning `doc` under `view`. Documents beyond the cached
    /// routing table trigger one refresh; documents beyond even the
    /// controller's table fall into the last shard (growth absorbs
    /// there), exactly like the in-process router.
    fn shard_of_doc(&self, view: &PlacementView, doc: DocId) -> Result<usize> {
        {
            let state = lock_clean(&self.state);
            if let Some(&site) = state.site_of.get(doc.index()) {
                return Ok(view.map.shard_of_site(SiteId(site as usize)));
            }
        }
        let reply = self.call_controller(&Message::RoutingReq)?;
        let Message::Routing { site_of, .. } = reply else {
            return Err(ClusterError::Protocol {
                detail: format!("expected Routing, got {reply:?}"),
            });
        };
        self.routing_refreshes.fetch_add(1, Ordering::Relaxed);
        let mut state = lock_clean(&self.state);
        // Append-only ids: never shrink the cache (a concurrent publish
        // may have answered with an older, shorter table).
        if site_of.len() > state.site_of.len() {
            state.site_of = site_of;
        }
        match state.site_of.get(doc.index()) {
            Some(&site) => Ok(view.map.shard_of_site(SiteId(site as usize))),
            None => Ok(view.map.n_shards() - 1),
        }
    }

    // -- the consistent gather ----------------------------------------------

    /// Scatters one request per shard (built by `plan` from the placement
    /// it will run against) and collects replies until every reply
    /// carries the same cluster epoch. Retries absorb straddled publishes
    /// and dead nodes; escalation re-fetches placement and backs off per
    /// the shared [`RetryPolicy`] until the budget is spent or the
    /// cluster re-converges.
    fn consistent_gather(&self, plan: GatherPlan<'_>) -> Result<GatherOutcome> {
        let mut refresh = false;
        let mut last_err: Option<ClusterError> = None;
        let mut schedule = self
            .cfg
            .retry
            .begin(self.next_op.fetch_add(1, Ordering::Relaxed));
        let mut rounds = 0usize;
        let mut escalated = false;
        loop {
            if rounds > self.cfg.max_gather_retries {
                if !escalated {
                    escalated = true;
                    self.gather_escalations.fetch_add(1, Ordering::Relaxed);
                }
                if !schedule.backoff_and_retry() {
                    break;
                }
                refresh = true;
            }
            rounds += 1;
            let view = match self.placement(refresh) {
                Ok(view) => view,
                Err(e @ ClusterError::NotPublished) => return Err(e),
                Err(e @ ClusterError::ControllerUnavailable { .. }) => return Err(e),
                Err(e) => {
                    last_err = Some(e);
                    refresh = true;
                    continue;
                }
            };
            refresh = false;
            let requests = plan(&view)?;
            let mut replies = Vec::with_capacity(requests.len());
            let mut epochs: Option<(u64, u64)> = None;
            let mut mixed = false;
            let mut failed: Option<ClusterError> = None;
            for (shard, request) in requests {
                let addr = &view.owners[shard as usize];
                match self.call_node(addr, &request) {
                    Ok(reply) => {
                        let Some(pair) = reply_epochs(&reply) else {
                            return Err(ClusterError::Protocol {
                                detail: format!("unexpected reply to a shard query: {reply:?}"),
                            });
                        };
                        mixed |= *epochs.get_or_insert(pair) != pair;
                        replies.push((shard, reply));
                    }
                    Err(e) if e.is_retriable() => {
                        failed = Some(e);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if let Some(e) = failed {
                last_err = Some(e);
                refresh = true;
                self.gather_retries.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if mixed {
                self.gather_retries.fetch_add(1, Ordering::Relaxed);
                last_err = None;
                continue;
            }
            let (epoch, rank_epoch) = epochs.unwrap_or((view.epoch, view.rank_epoch));
            return Ok((epoch, rank_epoch, replies));
        }
        Err(last_err.unwrap_or(ClusterError::Inconsistent { rounds }))
    }

    // -- the query surface --------------------------------------------------

    /// Global score of one document, answered at one epoch.
    ///
    /// # Errors
    /// Typed `ServeError`s for unknown/tombstoned documents; retriable
    /// cluster errors for dead nodes and unsettled publishes.
    pub fn score(&self, doc: DocId) -> Result<(u64, f64)> {
        self.timed(|| {
            let (epoch, scores) = self.score_batch_inner(&[doc])?;
            Ok((epoch, scores[0]))
        })
    }

    /// Batched scores, grouped per shard, all answered from one cluster
    /// epoch.
    ///
    /// # Errors
    /// See [`ClusterClient::score`].
    pub fn score_batch(&self, docs: &[DocId]) -> Result<(u64, Vec<f64>)> {
        self.timed(|| self.score_batch_inner(docs))
    }

    fn score_batch_inner(&self, docs: &[DocId]) -> Result<(u64, Vec<f64>)> {
        if docs.is_empty() {
            let view = self.placement(false)?;
            return Ok((view.rank_epoch, Vec::new()));
        }
        let group = |view: &PlacementView| -> Result<ShardBatches> {
            let mut per_shard = ShardBatches::new();
            for (pos, &doc) in docs.iter().enumerate() {
                let shard = self.shard_of_doc(view, doc)? as u64;
                let entry = per_shard.entry(shard).or_default();
                entry.0.push(doc.index() as u64);
                entry.1.push(pos);
            }
            Ok(per_shard)
        };
        let (_, rank_epoch, replies) = self.consistent_gather(&|view| {
            Ok(group(view)?
                .into_iter()
                .map(|(shard, (docs, _))| (shard, Message::ScoreBatch { shard, docs }))
                .collect())
        })?;
        // Re-derive the grouping from the *current* placement to pair
        // positions with replies. The doc → site table is append-only and
        // the gather pinned one epoch, so the grouping is stable within a
        // successful gather.
        let view = self.placement(false)?;
        let per_shard = group(&view)?;
        let mut out = vec![0.0f64; docs.len()];
        for (shard, reply) in replies {
            let Message::Scores { scores, .. } = reply else {
                return Err(ClusterError::Protocol {
                    detail: "score batch answered with a non-Scores reply".into(),
                });
            };
            let Some((_, positions)) = per_shard.get(&shard) else {
                return Err(ClusterError::Protocol {
                    detail: format!("reply for shard {shard} nobody asked about"),
                });
            };
            if positions.len() != scores.len() {
                return Err(ClusterError::Protocol {
                    detail: format!(
                        "shard {shard} answered {} scores for {} documents",
                        scores.len(),
                        positions.len()
                    ),
                });
            }
            for (&pos, score) in positions.iter().zip(scores) {
                out[pos] = doc_score_to_result(score, docs[pos], rank_epoch)?;
            }
        }
        Ok((rank_epoch, out))
    }

    /// Global top-`k` across every shard, merged in serving order, all
    /// partials from one cluster epoch.
    ///
    /// # Errors
    /// Retriable cluster errors; see [`ClusterClient::score`].
    pub fn top_k(&self, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        self.timed(|| self.top_k_inner(k))
    }

    fn top_k_inner(&self, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        let (_, rank_epoch, replies) = self.consistent_gather(&|view| {
            Ok((0..view.map.n_shards() as u64)
                .map(|shard| (shard, Message::TopKReq { shard, k: k as u64 }))
                .collect())
        })?;
        let mut merged: Vec<(DocId, f64)> = Vec::with_capacity(k.saturating_mul(2));
        for (_, reply) in replies {
            let Message::Top { entries, .. } = reply else {
                return Err(ClusterError::Protocol {
                    detail: "top-k answered with a non-Top reply".into(),
                });
            };
            merged.extend(entries);
        }
        merged.sort_unstable_by(serve_cmp);
        merged.truncate(k);
        Ok((rank_epoch, merged))
    }

    /// Top-`k` within one site, routed to the owning shard's node.
    ///
    /// # Errors
    /// Typed `ServeError`s for unknown/tombstoned sites; see
    /// [`ClusterClient::score`].
    pub fn top_k_for_site(&self, site: SiteId, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        self.timed(|| self.top_k_for_site_inner(site, k))
    }

    fn top_k_for_site_inner(&self, site: SiteId, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        let (_, rank_epoch, mut replies) = self.consistent_gather(&|view| {
            let shard = view.map.shard_of_site(site) as u64;
            Ok(vec![(
                shard,
                Message::SiteTopKReq {
                    shard,
                    site: site.index() as u64,
                    k: k as u64,
                },
            )])
        })?;
        let Some((_, Message::SiteTop { reply, .. })) = replies.pop() else {
            return Err(ClusterError::Protocol {
                detail: "site top-k answered with a non-SiteTop reply".into(),
            });
        };
        match reply {
            SiteTopK::Entries(entries) => Ok((rank_epoch, entries)),
            SiteTopK::Tombstoned => Err(ServeError::TombstonedSite {
                site: site.index(),
                epoch: rank_epoch,
            }
            .into()),
            SiteTopK::NotCovered => Err(ServeError::UnknownSite {
                site: site.index(),
                epoch: rank_epoch,
            }
            .into()),
        }
    }

    /// Compares two documents at one epoch: `Greater` means `a` outranks
    /// `b`, ties break toward the lower id — the tier-wide serving order.
    ///
    /// # Errors
    /// See [`ClusterClient::score`].
    pub fn compare(&self, a: DocId, b: DocId) -> Result<(u64, CmpOrdering)> {
        self.timed(|| {
            let (epoch, scores) = self.score_batch_inner(&[a, b])?;
            let order = scores[0]
                .partial_cmp(&scores[1])
                .unwrap_or(CmpOrdering::Equal)
                .then(b.cmp(&a));
            Ok((epoch, order))
        })
    }
}

fn reply_epochs(reply: &Message) -> Option<(u64, u64)> {
    match reply {
        Message::Scores {
            epoch, rank_epoch, ..
        }
        | Message::Top {
            epoch, rank_epoch, ..
        }
        | Message::SiteTop {
            epoch, rank_epoch, ..
        } => Some((*epoch, *rank_epoch)),
        _ => None,
    }
}

fn doc_score_to_result(score: DocScore, doc: DocId, epoch: u64) -> Result<f64> {
    match score {
        DocScore::Live(v) => Ok(v),
        DocScore::Tombstoned => Err(ServeError::TombstonedDoc {
            doc: doc.index(),
            epoch,
        }
        .into()),
        DocScore::Unknown => Err(ServeError::UnknownDoc {
            doc: doc.index(),
            epoch,
        }
        .into()),
    }
}

impl ShardQuery for ClusterClient {
    type Error = ClusterError;

    /// The rank epoch the controller currently publishes, refreshed over
    /// the wire; falls back to the cached placement when the controller
    /// is unreachable (`0` before any publish is visible).
    fn serving_epoch(&self) -> u64 {
        if let Ok(view) = self.placement(true) {
            return view.rank_epoch;
        }
        lock_clean(&self.state)
            .placement
            .as_ref()
            .map_or(0, |view| view.rank_epoch)
    }

    fn score(&self, doc: DocId) -> Result<(u64, f64)> {
        ClusterClient::score(self, doc)
    }

    fn score_batch(&self, docs: &[DocId]) -> Result<(u64, Vec<f64>)> {
        ClusterClient::score_batch(self, docs)
    }

    fn top_k(&self, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        ClusterClient::top_k(self, k)
    }

    fn top_k_for_site(&self, site: SiteId, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        ClusterClient::top_k_for_site(self, site, k)
    }

    fn compare(&self, a: DocId, b: DocId) -> Result<(u64, CmpOrdering)> {
        ClusterClient::compare(self, a, b)
    }
}
