//! The cluster controller: node registry, shard placement, heartbeat
//! monitoring with missed-beat eviction, and the **two-phase,
//! epoch-coordinated publish** that keeps every remote answer
//! single-epoch.
//!
//! # The publish protocol
//!
//! A publish of rank snapshot `R` over cluster epoch `C` runs:
//!
//! 1. **Grade** every shard with the same [`publish_grades`] the
//!    in-process tier uses (rebuild / refresh / repin per the staleness
//!    contract), then force-rebuild any shard whose *owner* changed —
//!    a grade describes data movement, not placement movement.
//! 2. **Stage** (phase one): cut a [`SnapshotSegment`] per
//!    rebuild/refresh shard and ship it to the owning node at epoch
//!    `C+1`, in parallel across nodes. Nodes hold staged sets without
//!    serving them.
//! 3. **Commit** (phase two): only after *every* node acked its stages,
//!    tell each to flip to `C+1`. A node that fails either phase is
//!    evicted, every survivor gets an **`Abort(C+1)`** (the attempt's
//!    epoch is burnt, never reused), and the whole publish backs off per
//!    the shared [`RetryPolicy`] then retries against the survivors at
//!    `C+2` — commits are idempotent and restages supersede, so partial
//!    progress is harmless. Survivors the abort cannot reach expire the
//!    dead staged set by TTL on their own.
//!
//! Queries key their gather consistency on the cluster epoch, so during
//! the commit fan-out a client sees a mix of `C` and `C+1` and simply
//! retries; it never merges across the flip.
//!
//! # Links
//!
//! The controller dials nodes, never the reverse, and keeps every link
//! in one [`ConnPool`]: stage, commit, abort, heartbeat and stats calls
//! check a link out for one round trip and park it again, so a publish
//! opens no connection and a steady cluster holds one link per node. A
//! link any call failed on is dropped, which is what makes each per-node
//! retry run on a new physical connection. Only the rejoin liveness
//! probe dials outside the pool, on purpose.
//!
//! # Failover
//!
//! The monitor thread pings every node each interval. A node missing
//! more than `miss_limit` beats is evicted; its shards are reassigned
//! round-robin to the survivors and re-staged as **rebuilds cut from the
//! controller's pinned snapshot** under a bumped cluster epoch — the
//! same rank epoch, republished. Clients in flight get retriable
//! `NodeUnavailable` / epoch-mismatch retries, never wrong-epoch data.
//!
//! # Restart & rejoin
//!
//! A restarted node announces itself with `Rejoin { node, addr }` and is
//! re-admitted **under its prior id**. The eviction recorded its shard
//! claim, so the catch-up republish (same rank epoch, bumped cluster
//! epoch) hands its old shards back — restoring the pre-failure balance
//! instead of leaving them piled on survivors — and, because the
//! returner is marked *fresh*, stages them as full rebuilds cut from the
//! pinned snapshot.
//!
//! [`SnapshotSegment`]: lmm_engine::SnapshotSegment

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lmm_engine::RankSnapshot;
use lmm_graph::sharding::ShardMap;
use lmm_serve::{publish_grades, shard_site_range, SwapGrade};

use crate::error::{ClusterError, Result};
use crate::retry::RetryPolicy;
use crate::transport::{lock_clean, Accepted, ConnPool, FaultPlan, FramedConn, WireCounters};
use crate::wire::{Message, NodeWireStats};

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Heartbeat probe interval. Together with
    /// [`ControllerConfig::miss_limit`] this sets the failure-detection
    /// horizon: a node is declared dead only after `miss_limit + 1`
    /// consecutive intervals without a `Pong`, so a slow-but-alive node
    /// (delays under `io_timeout`) is never spuriously evicted.
    pub heartbeat_interval: Duration,
    /// Consecutive missed beats after which a node is evicted.
    pub miss_limit: u32,
    /// Read/write/connect timeout on every controller connection.
    pub io_timeout: Duration,
    /// Evict-and-reassign automatically from the monitor thread. Tests
    /// that need placements to hold through missed beats turn this off.
    pub auto_failover: bool,
    /// Retry discipline shared by publish machinery: per-node stage and
    /// commit calls retry transient transport faults (with a tight
    /// attempt cap) before the node is declared failed, and whole-publish
    /// attempts back off between retries instead of hammering survivors.
    pub retry: RetryPolicy,
    /// Optional deterministic fault injection on controller sends.
    pub fault: Option<FaultPlan>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(75),
            miss_limit: 3,
            io_timeout: Duration::from_secs(2),
            auto_failover: true,
            retry: RetryPolicy::default(),
            fault: None,
        }
    }
}

/// One registered node, as the controller sees it.
#[derive(Debug, Clone)]
struct NodeEntry {
    addr: String,
    missed: u32,
    rtt_us: u64,
    last_fanout_ms: f64,
}

#[derive(Default)]
struct ControlState {
    next_node: u64,
    nodes: BTreeMap<u64, NodeEntry>,
    /// `placement[shard]` = owning node id. Empty until the first publish.
    placement: Vec<u64>,
    cepoch: u64,
    /// Highest cluster epoch any publish attempt has ever staged at,
    /// including attempts that failed and were aborted. Survivors of a
    /// failed attempt remember it as their `last_aborted` watermark and
    /// refuse stage/commit at or below it — so the next attempt must
    /// start strictly above every number ever handed out, even across a
    /// publish that exhausted its retry budget (where `cepoch` itself
    /// never advanced).
    burnt: u64,
    rank_epoch: u64,
    pinned: Option<RankSnapshot>,
    /// Shard claims of evicted nodes, keyed by node id: if the node
    /// rejoins, placement hands its old shards back (restoring the
    /// pre-failure balance) instead of leaving them piled on survivors.
    /// A claim is dropped once a publish applies it; an eviction strips
    /// its shards from all older claims, so each shard has one claimant.
    former: BTreeMap<u64, Vec<u64>>,
    /// Nodes that (re)joined with no serving state since the last
    /// successful publish that placed them — every shard placed on a
    /// fresh node is force-rebuilt, never repinned or refreshed.
    fresh: BTreeSet<u64>,
}

struct ControllerInner {
    map: ShardMap,
    cfg: ControllerConfig,
    addr: String,
    shutdown: AtomicBool,
    state: Mutex<ControlState>,
    /// Paired with `state`: signalled when a node registers or rejoins
    /// (for `wait_for_nodes`) and at shutdown (for the monitor's sleep).
    wake: Condvar,
    /// Serializes publishes and failovers. Lock order: this, then `state`.
    publish_gate: Mutex<()>,
    counters: Arc<WireCounters>,
    /// Every controller→node link: stage, commit, abort, heartbeat and
    /// stats calls all go through here, so a steady cluster dials each
    /// node once. Lock order: `state`, then the pool (eviction drops the
    /// evicted address's parked links while it holds the registry).
    pool: ConnPool,
    /// Background catch-up publishes spawned by rejoins; joined at
    /// shutdown.
    aux: Mutex<Vec<JoinHandle<()>>>,
    publishes: AtomicU64,
    evictions: AtomicU64,
    failovers: AtomicU64,
    missed_heartbeats: AtomicU64,
    rejoins: AtomicU64,
    rejoins_rejected: AtomicU64,
    publish_aborts: AtomicU64,
}

/// Accounting of one cluster publish (or failover republish).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPublishReport {
    /// The committed cluster epoch.
    pub epoch: u64,
    /// The rank epoch now served.
    pub rank_epoch: u64,
    /// Nodes that took part.
    pub nodes: usize,
    /// Shards rebuilt / refreshed / re-pinned, summed over nodes.
    pub rebuilt: usize,
    /// See [`ClusterPublishReport::rebuilt`].
    pub refreshed: usize,
    /// See [`ClusterPublishReport::rebuilt`].
    pub repinned: usize,
    /// Shards whose owner changed in this publish.
    pub reassigned: usize,
    /// Publish attempts (more than 1 means a node died mid-publish and
    /// was evicted on the way).
    pub attempts: usize,
    /// Slowest per-node stage fan-out, milliseconds.
    pub max_fanout_ms: f64,
    /// `true` when the snapshot was already served and nothing moved.
    pub noop: bool,
}

/// One node's row in [`ClusterStats`].
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Controller-assigned node id.
    pub node: u64,
    /// The node's listen address.
    pub addr: String,
    /// Consecutive missed heartbeats right now.
    pub missed: u32,
    /// Last measured heartbeat round-trip, microseconds.
    pub rtt_us: u64,
    /// Stage fan-out time of the last publish that reached this node,
    /// milliseconds.
    pub last_fanout_ms: f64,
    /// The node's own counters (`None` if it did not answer).
    pub wire: Option<NodeWireStats>,
}

/// A cluster-wide statistics snapshot.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Committed cluster epoch.
    pub epoch: u64,
    /// Served rank epoch.
    pub rank_epoch: u64,
    /// Successful publishes (including failover republishes).
    pub publishes: u64,
    /// Nodes evicted over the controller's lifetime.
    pub evictions: u64,
    /// Failover republishes triggered.
    pub failovers: u64,
    /// Heartbeats that went unanswered.
    pub missed_heartbeats: u64,
    /// Restarted nodes re-admitted under their prior id.
    pub rejoins: u64,
    /// Rejoin attempts refused because the claimed id was still live at
    /// a different address (identity-hijack guard).
    pub rejoins_rejected: u64,
    /// `Abort` messages delivered to survivors of failed publish
    /// attempts.
    pub publish_aborts: u64,
    /// Controller→node connections opened over the controller's
    /// lifetime. Links are pooled, so in a steady cluster this stays at
    /// the node count however many publishes and heartbeats run; it
    /// grows when a link went stale, a call failed, or a heartbeat found
    /// a node's link busy with a publish and opened a second one.
    pub node_dials: u64,
    /// Per-node rows, id-ordered.
    pub nodes: Vec<NodeReport>,
    /// Live-document skew across **all** cluster shards (max shard over
    /// mean, the `ServeStatsSnapshot::doc_skew` formula) — the dynamic
    /// resharding trigger signal, now cluster-wide.
    pub doc_skew: f64,
    /// Tombstone rejections summed over nodes.
    pub tombstone_rejections: u64,
    /// Bytes the controller wrote / read.
    pub controller_bytes: (u64, u64),
}

/// The running controller. Stop with [`ClusterController::shutdown`].
pub struct ClusterController {
    inner: Arc<ControllerInner>,
    threads: Vec<JoinHandle<()>>,
    conns: Arc<Accepted>,
}

impl ClusterController {
    /// Binds a loopback listener and starts the accept and monitor
    /// threads. `map` fixes the shard count and site boundaries for the
    /// controller's lifetime (growth clamps into the last shard, as in
    /// the in-process tier).
    ///
    /// # Errors
    /// [`ClusterError::InvalidConfig`] when the listener cannot bind or
    /// the heartbeat knobs are degenerate (zero interval, zero miss
    /// limit, or zero io timeout — each would make the failure detector
    /// either a busy-loop or a hair trigger).
    pub fn start(map: ShardMap, cfg: ControllerConfig) -> Result<Self> {
        if cfg.heartbeat_interval.is_zero() {
            return Err(ClusterError::InvalidConfig {
                reason: "heartbeat_interval must be positive".into(),
            });
        }
        if cfg.miss_limit == 0 {
            return Err(ClusterError::InvalidConfig {
                reason: "miss_limit must be at least 1 (a single dropped frame is not death)"
                    .into(),
            });
        }
        if cfg.io_timeout.is_zero() {
            return Err(ClusterError::InvalidConfig {
                reason: "io_timeout must be positive".into(),
            });
        }
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| ClusterError::InvalidConfig {
                reason: format!("cannot bind a loopback listener: {e}"),
            })?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::InvalidConfig {
                reason: format!("listener has no local address: {e}"),
            })?
            .to_string();
        let counters = Arc::new(WireCounters::default());
        let inner = Arc::new(ControllerInner {
            map,
            addr,
            shutdown: AtomicBool::new(false),
            state: Mutex::new(ControlState::default()),
            wake: Condvar::new(),
            publish_gate: Mutex::new(()),
            pool: ConnPool::new(cfg.io_timeout, Arc::clone(&counters), cfg.fault),
            cfg,
            counters,
            aux: Mutex::new(Vec::new()),
            publishes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            missed_heartbeats: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            rejoins_rejected: AtomicU64::new(0),
            publish_aborts: AtomicU64::new(0),
        });
        let conns = Arc::new(Accepted::default());
        let accept = {
            let inner = Arc::clone(&inner);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &inner, &conns))
        };
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || monitor_loop(&inner))
        };
        Ok(Self {
            inner,
            threads: vec![accept, monitor],
            conns,
        })
    }

    /// The controller's listen address (`ip:port`).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// The committed `(cluster epoch, rank epoch)` pair.
    #[must_use]
    pub fn epochs(&self) -> (u64, u64) {
        let state = lock_clean(&self.inner.state);
        (state.cepoch, state.rank_epoch)
    }

    /// Registered (live) node count.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        lock_clean(&self.inner.state).nodes.len()
    }

    /// Blocks until at least `n` nodes registered.
    ///
    /// # Errors
    /// [`ClusterError::NoNodes`] on timeout.
    pub fn wait_for_nodes(&self, n: usize, timeout: Duration) -> Result<()> {
        let (state, _) = self
            .inner
            .wake
            .wait_timeout_while(lock_clean(&self.inner.state), timeout, |state| {
                state.nodes.len() < n
            })
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.nodes.len() < n {
            return Err(ClusterError::NoNodes);
        }
        Ok(())
    }

    /// Publishes a snapshot cluster-wide: stage everywhere, then commit,
    /// bumping the cluster epoch. Nodes that fail mid-publish are evicted
    /// and the publish retries against survivors.
    ///
    /// # Errors
    /// [`ClusterError::NoNodes`] with an empty registry;
    /// [`ClusterError::StalePublish`] for an epoch older than the pinned
    /// one; [`ClusterError::PublishFailed`] when every attempt failed.
    pub fn publish(&self, snapshot: &RankSnapshot) -> Result<ClusterPublishReport> {
        let _gate = self
            .inner
            .publish_gate
            .lock()
            .map_err(|_| ClusterError::PublishFailed {
                detail: "publish gate poisoned".into(),
            })?;
        {
            let state = lock_clean(&self.inner.state);
            if state.pinned.is_some() {
                if snapshot.epoch() < state.rank_epoch {
                    return Err(ClusterError::StalePublish {
                        published: snapshot.epoch(),
                        pinned: state.rank_epoch,
                    });
                }
                if snapshot.epoch() == state.rank_epoch {
                    return Ok(ClusterPublishReport {
                        epoch: state.cepoch,
                        rank_epoch: state.rank_epoch,
                        nodes: state.nodes.len(),
                        rebuilt: 0,
                        refreshed: 0,
                        repinned: 0,
                        reassigned: 0,
                        attempts: 0,
                        max_fanout_ms: 0.0,
                        noop: true,
                    });
                }
            }
        }
        self.inner.publish_locked(snapshot)
    }

    /// Gathers cluster-wide statistics, asking every node for its
    /// counters over the pooled links (unreachable nodes report
    /// `wire: None`).
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        let inner = &self.inner;
        // Sampled before the gather below uses (and may open) links.
        let node_dials = inner.pool.dials();
        let (epoch, rank_epoch, rows): (u64, u64, Vec<(u64, NodeEntry)>) = {
            let state = lock_clean(&inner.state);
            (
                state.cepoch,
                state.rank_epoch,
                state.nodes.iter().map(|(&id, e)| (id, e.clone())).collect(),
            )
        };
        let mut nodes = Vec::with_capacity(rows.len());
        let mut shard_docs: Vec<u64> = Vec::new();
        let mut tombstones = 0u64;
        for (id, entry) in rows {
            let wire = match inner.pool.call(&entry.addr, &Message::StatsReq) {
                Ok(Message::Stats(stats)) => Some(stats),
                _ => None,
            };
            if let Some(stats) = &wire {
                tombstones += stats.tombstone_rejections;
                shard_docs.extend(stats.shard_docs.iter().map(|&(_, d)| d));
            }
            nodes.push(NodeReport {
                node: id,
                addr: entry.addr,
                missed: entry.missed,
                rtt_us: entry.rtt_us,
                last_fanout_ms: entry.last_fanout_ms,
                wire,
            });
        }
        let doc_skew = lmm_serve::ServeStatsSnapshot {
            shard_docs,
            ..Default::default()
        }
        .doc_skew();
        ClusterStats {
            epoch,
            rank_epoch,
            publishes: inner.publishes.load(Ordering::Relaxed),
            evictions: inner.evictions.load(Ordering::Relaxed),
            failovers: inner.failovers.load(Ordering::Relaxed),
            missed_heartbeats: inner.missed_heartbeats.load(Ordering::Relaxed),
            rejoins: inner.rejoins.load(Ordering::Relaxed),
            rejoins_rejected: inner.rejoins_rejected.load(Ordering::Relaxed),
            publish_aborts: inner.publish_aborts.load(Ordering::Relaxed),
            node_dials,
            nodes,
            doc_skew,
            tombstone_rejections: tombstones,
            controller_bytes: inner.counters.totals(),
        }
    }

    /// Stops the controller, joins its threads, and closes every link —
    /// inbound and pooled — before it returns.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the monitor out of its interval sleep (under `state`, so
        // the flag cannot slip between its check and its wait), and the
        // accept thread out of `accept` with a throwaway connection.
        {
            let _state = lock_clean(&self.inner.state);
            self.inner.wake.notify_all();
        }
        let _ = TcpStream::connect(&self.inner.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.conns.close();
        let aux = std::mem::take(&mut *lock_clean(&self.inner.aux));
        for handle in aux {
            let _ = handle.join();
        }
        self.inner.pool.retain(|_| false);
    }
}

/// One node's work order within a publish attempt.
struct NodeJob {
    node: u64,
    addr: String,
    /// The attempt's `Stage` frames, built once while planning and sent
    /// by reference — a per-node retry re-sends them without re-cutting
    /// or copying a segment.
    stages: Vec<Message>,
}

impl ControllerInner {
    /// The publish loop. Caller holds the publish gate.
    fn publish_locked(&self, snapshot: &RankSnapshot) -> Result<ClusterPublishReport> {
        let mut attempts = 0usize;
        let mut schedule = self.cfg.retry.begin(snapshot.epoch() ^ 0x0B11_5EED);
        loop {
            attempts += 1;
            // --- plan under the state lock -------------------------------
            let (next_epoch, placement, jobs, reassigned, counts, claimed, fresh_used) = {
                let mut state = lock_clean(&self.state);
                if state.nodes.is_empty() {
                    return Err(ClusterError::NoNodes);
                }
                // Burn this attempt's epoch *now*, while planning: whether
                // the attempt commits, aborts, or dies silently, the
                // number is never reused, so an `Abort` at it is final and
                // a later publish always starts above every survivor's
                // `last_aborted` watermark.
                let next_epoch = state.cepoch.max(state.burnt) + 1;
                state.burnt = next_epoch;
                let survivors: Vec<u64> = state.nodes.keys().copied().collect();
                let n_shards = self.map.n_shards();
                // Claims of evicted-then-rejoined nodes: hand each such
                // shard back to its returning owner instead of leaving it
                // piled on whoever absorbed it at failover.
                let mut claims: HashMap<u64, u64> = HashMap::new();
                let mut claimed: Vec<u64> = Vec::new();
                for (&node, shards) in &state.former {
                    if state.nodes.contains_key(&node) {
                        claimed.push(node);
                        for &shard in shards {
                            claims.insert(shard, node);
                        }
                    }
                }
                // Sticky placement: claimants win, then live owners keep
                // their shards, round-robin the rest over survivors (first
                // publish: contiguous ranges).
                let mut placement = vec![0u64; n_shards];
                let mut changed = vec![false; n_shards];
                if state.placement.is_empty() {
                    let owners = survivors.len().min(n_shards);
                    let ranges =
                        self.map
                            .owner_ranges(owners)
                            .map_err(|e| ClusterError::InvalidConfig {
                                reason: format!("owner ranges: {e}"),
                            })?;
                    for (owner, range) in ranges.into_iter().enumerate() {
                        for shard in range {
                            placement[shard] = survivors[owner];
                            changed[shard] = true;
                        }
                    }
                } else {
                    let mut cycle = survivors.iter().cycle();
                    for shard in 0..n_shards {
                        let prev = state.placement[shard];
                        if let Some(&claimant) = claims.get(&(shard as u64)) {
                            placement[shard] = claimant;
                            changed[shard] = claimant != prev;
                        } else if state.nodes.contains_key(&prev) {
                            placement[shard] = prev;
                        } else {
                            placement[shard] = *cycle.next().expect("survivors is non-empty");
                            changed[shard] = true;
                        }
                    }
                }
                // A fresh (just-rejoined) node holds no serving state, so
                // every shard placed on it must be a full rebuild even if
                // the grade or placement says otherwise.
                let fresh_used: Vec<u64> = state
                    .fresh
                    .iter()
                    .copied()
                    .filter(|id| placement.contains(id))
                    .collect();
                for shard in 0..n_shards {
                    if state.fresh.contains(&placement[shard]) {
                        changed[shard] = true;
                    }
                }
                // Grade data movement, then force-rebuild placement moves.
                let mut grades: Vec<SwapGrade> = if state.cepoch == 0 {
                    vec![SwapGrade::Rebuild; n_shards]
                } else if snapshot.epoch() == state.rank_epoch {
                    // Failover republish: identical data, new placement.
                    vec![SwapGrade::Repin; n_shards]
                } else {
                    publish_grades(&self.map, state.rank_epoch, snapshot)
                };
                let mut reassigned = 0usize;
                for shard in 0..n_shards {
                    if changed[shard] {
                        grades[shard] = SwapGrade::Rebuild;
                        reassigned += 1;
                    }
                }
                let counts = (
                    grades.iter().filter(|g| **g == SwapGrade::Rebuild).count(),
                    grades.iter().filter(|g| **g == SwapGrade::Refresh).count(),
                    grades.iter().filter(|g| **g == SwapGrade::Repin).count(),
                );
                // Cut segments while planning: clone cost is bounded by
                // the stale shards' sites, and we hold no node locks.
                let mut jobs: BTreeMap<u64, NodeJob> = BTreeMap::new();
                for shard in 0..n_shards {
                    let node = placement[shard];
                    let job = jobs.entry(node).or_insert_with(|| NodeJob {
                        node,
                        addr: state.nodes[&node].addr.clone(),
                        stages: Vec::new(),
                    });
                    let segment = match grades[shard] {
                        SwapGrade::Repin => None,
                        SwapGrade::Rebuild | SwapGrade::Refresh => Some(snapshot.export_segment(
                            shard_site_range(&self.map, shard, snapshot.n_sites()),
                        )),
                    };
                    job.stages.push(Message::Stage {
                        epoch: next_epoch,
                        shard: shard as u64,
                        grade: grades[shard],
                        segment,
                    });
                }
                (
                    next_epoch,
                    placement,
                    jobs.into_values().collect::<Vec<_>>(),
                    reassigned,
                    counts,
                    claimed,
                    fresh_used,
                )
            };
            // --- phase one: stage, in parallel across nodes --------------
            let n_jobs = jobs.len();
            let mut fanouts: Vec<(u64, f64)> = Vec::with_capacity(n_jobs);
            let mut failed: Vec<(u64, String)> = Vec::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(n_jobs);
                for job in &jobs {
                    handles.push(scope.spawn(move || {
                        let started = Instant::now();
                        self.stage_node(job, next_epoch)
                            .map(|()| (job.node, started.elapsed().as_secs_f64() * 1e3))
                            .map_err(|detail| (job.node, detail))
                    }));
                }
                for handle in handles {
                    match handle.join().expect("stage thread panicked") {
                        Ok(ok) => fanouts.push(ok),
                        Err(err) => failed.push(err),
                    }
                }
            });
            // --- phase two: commit only after every node staged ----------
            if failed.is_empty() {
                for job in &jobs {
                    if let Err(detail) = self.commit_node(job, next_epoch, snapshot.epoch()) {
                        failed.push((job.node, detail));
                    }
                }
            }
            if !failed.is_empty() {
                let detail = failed
                    .iter()
                    .map(|(node, d)| format!("node {node}: {d}"))
                    .collect::<Vec<_>>()
                    .join("; ");
                // This attempt's epoch is dead: tell every survivor to
                // drop its staged set so nothing can ever commit it (nodes
                // the abort cannot reach expire it by TTL instead).
                let failed_ids: BTreeSet<u64> = failed.iter().map(|(node, _)| *node).collect();
                self.abort_attempt(&jobs, &failed_ids, next_epoch);
                {
                    let mut state = lock_clean(&self.state);
                    for id in &failed_ids {
                        self.evict_locked(&mut state, *id);
                    }
                    if state.nodes.is_empty() {
                        return Err(ClusterError::PublishFailed { detail });
                    }
                }
                if schedule.backoff_and_retry() {
                    continue; // retry against survivors at the next epoch
                }
                return Err(ClusterError::RetryExhausted {
                    op: "publish",
                    attempts: schedule.attempts(),
                    detail,
                });
            }
            // --- success: commit the control state -----------------------
            let max_fanout_ms = fanouts.iter().fold(0.0f64, |acc, &(_, ms)| acc.max(ms));
            let mut state = lock_clean(&self.state);
            for (node, ms) in fanouts {
                if let Some(entry) = state.nodes.get_mut(&node) {
                    entry.last_fanout_ms = ms;
                }
            }
            state.cepoch = next_epoch;
            state.rank_epoch = snapshot.epoch();
            state.placement = placement;
            state.pinned = Some(snapshot.clone());
            // Only the claims and fresh flags this plan actually used are
            // consumed — a node that rejoined *mid-attempt* keeps its
            // flag for the catch-up publish that follows.
            for node in &claimed {
                state.former.remove(node);
            }
            for node in &fresh_used {
                state.fresh.remove(node);
            }
            self.publishes.fetch_add(1, Ordering::Relaxed);
            return Ok(ClusterPublishReport {
                epoch: next_epoch,
                rank_epoch: snapshot.epoch(),
                nodes: n_jobs,
                rebuilt: counts.0,
                refreshed: counts.1,
                repinned: counts.2,
                reassigned,
                attempts,
                max_fanout_ms,
                noop: false,
            });
        }
    }

    /// The tight per-node retry cap. Transient transport faults get a
    /// couple of quick retries, each on a new physical connection (the
    /// pool never re-parks a link a call failed on; both phases are
    /// idempotent: restages supersede, duplicate commits ack), but a node
    /// that keeps failing is declared dead fast — burning the *full*
    /// retry budget here would stretch every failover by the whole
    /// deadline.
    fn call_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            ..self.cfg.retry
        }
    }

    fn stage_node(&self, job: &NodeJob, epoch: u64) -> std::result::Result<(), String> {
        let mut schedule = self.call_policy().begin(epoch ^ job.node.rotate_left(32));
        loop {
            match self.try_stage(job, epoch) {
                Ok(()) => return Ok(()),
                Err(detail) => {
                    if !schedule.backoff_and_retry() {
                        return Err(detail);
                    }
                }
            }
        }
    }

    fn try_stage(&self, job: &NodeJob, epoch: u64) -> std::result::Result<(), String> {
        for stage in &job.stages {
            let reply = self
                .pool
                .call(&job.addr, stage)
                .map_err(|e| format!("stage via {}: {e}", job.addr))?;
            match reply {
                Message::Ack { epoch: acked } if acked == epoch => {}
                other => return Err(format!("stage answered {other:?}")),
            }
        }
        Ok(())
    }

    fn commit_node(
        &self,
        job: &NodeJob,
        epoch: u64,
        rank_epoch: u64,
    ) -> std::result::Result<(), String> {
        let mut schedule = self
            .call_policy()
            .begin(epoch ^ job.node.rotate_left(32) ^ 0xC0);
        loop {
            match self.try_commit(job, epoch, rank_epoch) {
                Ok(()) => return Ok(()),
                Err(detail) => {
                    if !schedule.backoff_and_retry() {
                        return Err(detail);
                    }
                }
            }
        }
    }

    fn try_commit(
        &self,
        job: &NodeJob,
        epoch: u64,
        rank_epoch: u64,
    ) -> std::result::Result<(), String> {
        let reply = self
            .pool
            .call(&job.addr, &Message::Commit { epoch, rank_epoch })
            .map_err(|e| format!("commit via {}: {e}", job.addr))?;
        match reply {
            Message::Ack { epoch: acked } if acked == epoch => Ok(()),
            other => Err(format!("commit answered {other:?}")),
        }
    }

    /// Best-effort `Abort` to every node of the attempt that did **not**
    /// fail it. Unreachable survivors are fine: the staged epoch also
    /// expires by TTL, and nodes refuse stage/commit at or below their
    /// last aborted epoch, so the dead epoch cannot resurrect either way.
    fn abort_attempt(&self, jobs: &[NodeJob], failed: &BTreeSet<u64>, epoch: u64) {
        for job in jobs {
            if failed.contains(&job.node) {
                continue;
            }
            let reply = self.pool.call(&job.addr, &Message::Abort { epoch });
            if matches!(reply, Ok(Message::Ack { .. })) {
                self.publish_aborts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Removes a node from the registry, recording which shards it owned
    /// so a rejoin hands them back. Each shard has exactly one claimant:
    /// the newest eviction strips its shards from every older claim.
    fn evict_locked(&self, state: &mut ControlState, id: u64) {
        let Some(evicted) = state.nodes.remove(&id) else {
            return;
        };
        self.pool.retain(|addr| addr != evicted.addr);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        state.fresh.remove(&id);
        let owned: Vec<u64> = state
            .placement
            .iter()
            .enumerate()
            .filter(|&(_, &owner)| owner == id)
            .map(|(shard, _)| shard as u64)
            .collect();
        if owned.is_empty() {
            return;
        }
        for shards in state.former.values_mut() {
            shards.retain(|s| !owned.contains(s));
        }
        state.former.retain(|_, shards| !shards.is_empty());
        state.former.insert(id, owned);
    }

    /// Republishes the pinned snapshot under the gate — the shared tail
    /// of failover and rejoin catch-up. Same rank epoch, bumped cluster
    /// epoch.
    fn republish_pinned(&self) -> Result<ClusterPublishReport> {
        let _gate = self
            .publish_gate
            .lock()
            .map_err(|_| ClusterError::PublishFailed {
                detail: "publish gate poisoned".into(),
            })?;
        let pinned = {
            let state = lock_clean(&self.state);
            state.pinned.clone().ok_or(ClusterError::NotPublished)?
        };
        self.publish_locked(&pinned)
    }

    fn failover(&self) -> Result<ClusterPublishReport> {
        let report = self.republish_pinned()?;
        self.failovers.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }
}

/// Blocks in `accept`, so a registering node or a client is served the
/// moment it connects; `shutdown` wakes it with a connection of its own.
fn accept_loop(listener: &TcpListener, inner: &Arc<ControllerInner>, conns: &Accepted) {
    while let Ok((stream, _)) = listener.accept() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let inner = Arc::clone(inner);
        conns.spawn(stream, move |stream| serve_conn(stream, &inner));
    }
}

fn serve_conn(stream: TcpStream, inner: &Arc<ControllerInner>) {
    let Ok(mut conn) =
        FramedConn::from_stream(stream, inner.cfg.io_timeout, Arc::clone(&inner.counters))
    else {
        return;
    };
    loop {
        let msg = match conn.recv_idle(&mut || !inner.shutdown.load(Ordering::SeqCst)) {
            Ok(msg) => msg,
            Err(crate::transport::TransportError::Wire(e)) => {
                if conn
                    .send(&Message::Bad {
                        detail: e.to_string(),
                    })
                    .is_err()
                {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let reply = match msg {
            Message::Register { addr } => {
                let mut state = lock_clean(&inner.state);
                let node = state.next_node;
                state.next_node += 1;
                state.nodes.insert(
                    node,
                    NodeEntry {
                        addr,
                        missed: 0,
                        rtt_us: 0,
                        last_fanout_ms: 0.0,
                    },
                );
                inner.wake.notify_all();
                Message::Registered { node }
            }
            Message::Rejoin { node, addr } => {
                // A restarted node comes back under its prior id with an
                // empty serving state. Re-admit it, mark it fresh (every
                // shard placed on it rebuilds), and catch it up in the
                // background by republishing the pinned snapshot — its
                // old shards come home via the `former` claim, under a
                // bumped cluster epoch but the *same* rank epoch.
                //
                // The id may still be in the registry: a fast restart
                // beats the heartbeat monitor to the eviction. That is
                // legal only if the prior incarnation is actually dead —
                // probe its old address (off-lock) and refuse the rejoin
                // when it still answers, so a duplicate or spurious
                // Rejoin cannot hijack a live node's identity. A re-sent
                // Rejoin from the *same* address (a retry after a lost
                // reply) is idempotent, not a hijack.
                let prior_addr = {
                    let state = lock_clean(&inner.state);
                    state.nodes.get(&node).map(|entry| entry.addr.clone())
                };
                // The probe dials fresh on purpose: a parked link proves
                // only that the prior incarnation was alive when parked.
                let prior_alive = prior_addr.as_deref().is_some_and(|old| {
                    old != addr
                        && inner
                            .pool
                            .dial(old)
                            .and_then(|mut conn| conn.call(&Message::Ping { seq: 0 }))
                            .is_ok_and(|reply| matches!(reply, Message::Pong { .. }))
                });
                if prior_alive {
                    inner.rejoins_rejected.fetch_add(1, Ordering::Relaxed);
                    Message::Bad {
                        detail: format!(
                            "rejoin refused: node {node} is still live at {}",
                            prior_addr.unwrap_or_default()
                        ),
                    }
                } else {
                    let has_pinned = {
                        let mut state = lock_clean(&inner.state);
                        state.next_node = state.next_node.max(node + 1);
                        let prior = state.nodes.insert(
                            node,
                            NodeEntry {
                                addr: addr.clone(),
                                missed: 0,
                                rtt_us: 0,
                                last_fanout_ms: 0.0,
                            },
                        );
                        // Links parked for the dead incarnation's
                        // address are useless now. (A same-address
                        // resend is the same incarnation: keep them.)
                        if let Some(prior) = prior.filter(|prior| prior.addr != addr) {
                            inner.pool.retain(|parked| parked != prior.addr);
                        }
                        state.fresh.insert(node);
                        inner.wake.notify_all();
                        state.pinned.is_some()
                    };
                    inner.rejoins.fetch_add(1, Ordering::Relaxed);
                    if has_pinned {
                        let catcher = Arc::clone(inner);
                        let handle = std::thread::spawn(move || {
                            // NoNodes/NotPublished just mean the cluster
                            // moved on; real publish failures surface via
                            // stats.
                            let _ = catcher.republish_pinned();
                        });
                        // Reap finished catch-up threads while we are
                        // here, so a long-lived controller under churn
                        // does not hoard dead handles until shutdown.
                        let mut aux = lock_clean(&inner.aux);
                        aux.retain(|h| !h.is_finished());
                        aux.push(handle);
                    }
                    Message::Registered { node }
                }
            }
            Message::PlacementReq => {
                let state = lock_clean(&inner.state);
                if state.cepoch == 0 {
                    // Epoch 0 = "nothing published"; clients map this to
                    // a typed NotPublished.
                    Message::Placement {
                        epoch: 0,
                        rank_epoch: 0,
                        boundaries: Vec::new(),
                        owners: Vec::new(),
                    }
                } else {
                    Message::Placement {
                        epoch: state.cepoch,
                        rank_epoch: state.rank_epoch,
                        boundaries: inner.map.boundaries().iter().map(|&b| b as u64).collect(),
                        owners: state
                            .placement
                            .iter()
                            .map(|id| {
                                state
                                    .nodes
                                    .get(id)
                                    .map_or_else(String::new, |n| n.addr.clone())
                            })
                            .collect(),
                    }
                }
            }
            Message::RoutingReq => {
                let state = lock_clean(&inner.state);
                match &state.pinned {
                    Some(snapshot) => Message::Routing {
                        rank_epoch: state.rank_epoch,
                        site_of: snapshot
                            .site_assignments()
                            .iter()
                            .map(|s| s.index() as u64)
                            .collect(),
                    },
                    None => Message::Routing {
                        rank_epoch: 0,
                        site_of: Vec::new(),
                    },
                }
            }
            other => Message::Bad {
                detail: format!("unexpected message at the controller: {other:?}"),
            },
        };
        if conn.send(&reply).is_err() {
            return;
        }
    }
}

fn monitor_loop(inner: &Arc<ControllerInner>) {
    let mut seq = 0u64;
    loop {
        let targets: Vec<(u64, String)> = {
            // One interval's sleep, cut short only by shutdown.
            let (state, _) = inner
                .wake
                .wait_timeout_while(
                    lock_clean(&inner.state),
                    inner.cfg.heartbeat_interval,
                    |_| !inner.shutdown.load(Ordering::SeqCst),
                )
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            state
                .nodes
                .iter()
                .map(|(&id, e)| (id, e.addr.clone()))
                .collect()
        };
        let mut dead: Vec<u64> = Vec::new();
        for (id, addr) in targets {
            seq += 1;
            let started = Instant::now();
            // Over the pool: if the node's link is busy carrying a stage,
            // the beat opens a second link instead of queueing behind it.
            let alive = matches!(
                inner.pool.call(&addr, &Message::Ping { seq }),
                Ok(Message::Pong { seq: s, .. }) if s == seq
            );
            let mut state = lock_clean(&inner.state);
            let Some(entry) = state.nodes.get_mut(&id) else {
                continue;
            };
            if alive {
                entry.missed = 0;
                entry.rtt_us = started.elapsed().as_micros() as u64;
            } else {
                inner.missed_heartbeats.fetch_add(1, Ordering::Relaxed);
                entry.missed += 1;
                if entry.missed > inner.cfg.miss_limit {
                    dead.push(id);
                }
            }
        }
        if dead.is_empty() {
            continue;
        }
        {
            let mut state = lock_clean(&inner.state);
            for id in &dead {
                inner.evict_locked(&mut state, *id);
            }
        }
        if inner.cfg.auto_failover {
            // NotPublished / NoNodes here just mean there is nothing to
            // repair yet; publish-time failures surface on the publisher.
            let _ = inner.failover();
        }
    }
}
