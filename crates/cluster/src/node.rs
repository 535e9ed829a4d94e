//! A shard node: owns a set of `ShardState`s behind a `TcpListener`.
//!
//! The node is deliberately dumb — all placement and grading intelligence
//! lives in the controller. It registers, answers heartbeats, applies
//! two-phase publishes (stage segments, commit the epoch flip), and
//! serves queries tagged with its committed **cluster epoch** and the
//! **rank epoch** of the snapshot it serves. The two are distinct on
//! purpose: failover republishes the *same* rank epoch under a *new*
//! cluster epoch, and clients key gather consistency on the cluster
//! epoch — so "same data, new placement" never reads as "same epoch,
//! different data".
//!
//! Concurrency model: one accept thread blocked in `accept` (`kill` wakes
//! it by dialing the listener itself), one thread per accepted
//! connection. Peers keep their links open — the controller's pool holds
//! one per node, clients one per node they query. A staged set whose
//! publisher died is expired by the heartbeat pings that keep arriving
//! from the controller, and a commit refuses a set past its TTL, so no
//! idle timer is needed.
//!
//! A publish costs the node its staged shards, not the web. All of a
//! node's stores pin **one** snapshot per committed epoch, cut from the
//! node's tables (see `Tables`), which hold entries for the members of
//! the node's own sites only. An epoch whose stages are all repins shares
//! the committed tables outright. Otherwise its first segment takes the
//! score and assignment buffers of a retired epoch — no allocation and
//! no copy of the whole id space — and every stage writes its shard's
//! members into them: a segment's from the wire, a repinned shard's from
//! the committed epoch. Each member list a segment did not change stays
//! shared. A site keeps its committed order when its member list is
//! unchanged and the order is still strictly in serving order under the
//! new scores — exactly what a full sort would produce, since serving
//! order is a strict total order. Commit then re-sorts only the other
//! sites and re-merges the top lists, under the stage lock; the serving
//! mutex is taken only to swap the new stores in, and queries hold it
//! only to clone the `Arc` they answer from.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lmm_engine::{RankSnapshot, SnapshotSegment, Staleness};
use lmm_graph::{DocId, SiteId};
use lmm_serve::{DocScore, ShardState, SiteTopK, SwapGrade};

use crate::error::{ClusterError, Result};
use crate::retry::RetryPolicy;
use crate::transport::{lock_clean, Accepted, FaultPlan, FramedConn, TransportError, WireCounters};
use crate::wire::{Message, NodeWireStats};

/// Shard-node tuning knobs.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Per-shard precomputed top-k capacity (as in the in-process tier).
    pub heap_k: usize,
    /// Read/write timeout on every connection.
    pub io_timeout: Duration,
    /// How long a staged-but-uncommitted epoch set may wait for its
    /// commit before the node garbage-collects it. A publishing
    /// controller that dies (or silently gives up) between stage and
    /// commit must not leave segments pinned forever — and a commit for
    /// an expired set is refused, so a resurrected controller cannot
    /// flip the node onto a stale epoch.
    pub stage_ttl: Duration,
    /// Retry discipline for registration and rejoin with the controller
    /// (kept modest by default so a genuinely absent controller fails in
    /// tens of milliseconds, not the full chaos-grade budget).
    pub retry: RetryPolicy,
    /// Optional deterministic fault injection on this node's accepted
    /// connections (both directions).
    pub fault: Option<FaultPlan>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            heap_k: 64,
            io_timeout: Duration::from_secs(2),
            stage_ttl: Duration::from_secs(60),
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            fault: None,
        }
    }
}

/// What the node currently serves: one committed cluster epoch, one rank
/// epoch, the owned shard stores, and the tables their one snapshot was
/// cut from. Swapped wholesale at commit.
#[derive(Default)]
struct Serving {
    epoch: u64,
    rank_epoch: u64,
    shards: HashMap<u64, Arc<ShardState>>,
    tables: Tables,
}

/// The tables of a node's snapshot, indexed like the full snapshot's:
/// scores and site assignments by `DocId`, member lists by site. Only the
/// sites of the node's shards have members, and a score or an assignment
/// is defined only for a member of one of them. That is enough: a store
/// reads a document's score only after finding the document in the
/// member list of the site its assignment names, so any other entry,
/// whatever it holds, reads as a dead slot.
#[derive(Debug, Clone, Default)]
struct Tables {
    backend: String,
    scores: Arc<Vec<f64>>,
    site_of: Arc<Vec<SiteId>>,
    members: Arc<Vec<Arc<[DocId]>>>,
}

impl Tables {
    /// Gives the score and assignment tables buffers of their own, `n_docs`
    /// long: the spare ones when there are, whatever they hold, since
    /// only the staged shards' members need entries — those of the sites
    /// in `carried` are copied from `base` here, the rest are written by
    /// their segments.
    fn detach(
        &mut self,
        spare: &mut Spare,
        n_docs: usize,
        base: &Tables,
        carried: &[Range<usize>],
    ) {
        let mut scores = std::mem::take(&mut spare.scores);
        scores.resize(n_docs, 0.0);
        let mut site_of = std::mem::take(&mut spare.site_of);
        site_of.resize(n_docs, SiteId(usize::MAX));
        self.scores = Arc::new(scores);
        self.site_of = Arc::new(site_of);
        for sites in carried {
            self.carry(base, sites.clone());
        }
    }

    /// Copies the entries of the members of `sites` from `base`, for a
    /// shard repinned into detached tables.
    fn carry(&mut self, base: &Tables, sites: Range<usize>) {
        // Unshared once detached, so neither call clones.
        let scores = Arc::make_mut(&mut self.scores);
        let site_of = Arc::make_mut(&mut self.site_of);
        for site in sites {
            for &doc in base.members.get(site).map_or(&[][..], |m| m) {
                // A repinned shard keeps its id space; ids past this epoch's
                // are no member of it.
                if let (Some(score), Some(assigned)) =
                    (scores.get_mut(doc.index()), site_of.get_mut(doc.index()))
                {
                    *score = base.scores[doc.index()];
                    *assigned = SiteId(site);
                }
            }
        }
    }

    /// Writes one segment's sites into detached tables: its scores, its
    /// members' assignments, and each member list it changed. Every other
    /// member list stays shared.
    fn patch(&mut self, seg: &SnapshotSegment) {
        self.backend.clone_from(&seg.backend);
        if self.members.len() != seg.n_sites {
            Arc::make_mut(&mut self.members).resize(seg.n_sites, Arc::from([]));
        }
        let scores = Arc::make_mut(&mut self.scores);
        let site_of = Arc::make_mut(&mut self.site_of);
        scores.resize(seg.n_docs, 0.0);
        site_of.resize(seg.n_docs, SiteId(usize::MAX));
        let covered = seg.members.iter().zip(&seg.member_scores);
        for (site, (docs, doc_scores)) in seg.sites.clone().zip(covered) {
            for (&doc, &score) in docs.iter().zip(doc_scores) {
                scores[doc.index()] = score;
                site_of[doc.index()] = SiteId(site);
            }
            if *self.members[site] != **docs {
                Arc::make_mut(&mut self.members)[site] = Arc::from(docs.as_slice());
            }
        }
    }

    /// Empties the member lists of `sites` (a shard that left the node).
    fn clear(&mut self, sites: Range<usize>) {
        for site in sites {
            if self.members.get(site).is_some_and(|m| !m.is_empty()) {
                Arc::make_mut(&mut self.members)[site] = Arc::from([]);
            }
        }
    }

    /// The node's snapshot over these tables at `rank_epoch`. It shares
    /// every table and lists no dead documents: a node never exports.
    fn snapshot(&self, rank_epoch: u64) -> RankSnapshot {
        RankSnapshot::new(
            rank_epoch,
            self.backend.clone(),
            Arc::clone(&self.scores),
            None,
            Arc::clone(&self.members),
            Arc::clone(&self.site_of),
            Arc::default(),
            Staleness::Full,
        )
    }
}

/// The score and assignment buffers of a retired epoch, kept so that the
/// next epoch writes into pages the node already holds instead of
/// allocating (and faulting in) new ones.
#[derive(Debug, Default)]
struct Spare {
    scores: Vec<f64>,
    site_of: Vec<SiteId>,
}

impl Spare {
    /// Keeps each buffer of `retired` that nothing holds any more, when
    /// it is larger than the one kept.
    fn recycle(&mut self, retired: Tables) {
        keep_larger(&mut self.scores, retired.scores);
        keep_larger(&mut self.site_of, retired.site_of);
    }
}

fn keep_larger<T>(spare: &mut Vec<T>, retired: Arc<Vec<T>>) {
    if let Ok(buffer) = Arc::try_unwrap(retired) {
        if buffer.capacity() > spare.capacity() {
            *spare = buffer;
        }
    }
}

/// `true` when `order` is strictly in serving order under `scores`: score
/// descending, ties by ascending id — the order lmm-serve sorts a site
/// into, which is a strict total order, so an order that passes is the
/// one a fresh sort of the same members would produce.
fn in_serving_order(order: &[DocId], scores: &[f64]) -> bool {
    order.windows(2).all(|w| {
        let (a, b) = (scores[w[0].index()], scores[w[1].index()]);
        a > b || (a == b && w[0] < w[1])
    })
}

/// How commit installs one staged shard.
#[derive(Debug)]
enum StagedShard {
    /// Keep the committed store over `sites`, pinned on the new snapshot.
    Repin { sites: Range<usize> },
    /// Assemble over `sites`, re-sorting only `stale` (ascending) and
    /// sharing every other site's committed order.
    Assemble {
        sites: Range<usize>,
        stale: Vec<usize>,
    },
}

/// The pending stage set for one not-yet-committed cluster epoch: its
/// shards and the epoch's node tables. A stage at a newer epoch
/// supersedes (clears) an older uncommitted set, and a set that outlives
/// [`NodeConfig::stage_ttl`] is expired.
#[derive(Default)]
struct Staged {
    epoch: u64,
    entries: HashMap<u64, StagedShard>,
    /// The committed tables until the epoch's first segment arrives; from
    /// then on (`detached`) score and assignment buffers of the epoch's
    /// own, holding the entries of every staged shard's members.
    tables: Tables,
    detached: bool,
    /// When the set's most recent stage arrived (TTL clock).
    at: Option<Instant>,
    spare: Spare,
}

impl Staged {
    fn clear(&mut self) {
        self.entries.clear();
        self.spare.recycle(std::mem::take(&mut self.tables));
        self.detached = false;
        self.at = None;
    }
}

struct NodeInner {
    /// Assigned at construction and never reassigned (a rejoin keeps the
    /// id), so no atomicity is needed.
    node_id: u64,
    addr: String,
    cfg: NodeConfig,
    shutdown: AtomicBool,
    serving: Mutex<Serving>,
    staged: Mutex<Staged>,
    /// Highest cluster epoch the controller has explicitly aborted; stage
    /// and commit at or below it are refused, so a dead epoch can never
    /// be committed by a late or replayed message.
    last_aborted: AtomicU64,
    counters: Arc<WireCounters>,
    next_conn: AtomicU64,
    queries: AtomicU64,
    tombstone_rejections: AtomicU64,
    staged_count: AtomicU64,
    commits: AtomicU64,
    aborted: AtomicU64,
    staged_expired: AtomicU64,
}

/// A running shard node. Dropping the handle does **not** stop the node;
/// call [`ShardNode::kill`].
pub struct ShardNode {
    inner: Arc<NodeInner>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Accepted>,
}

impl ShardNode {
    /// Binds a loopback listener, registers with the controller at
    /// `controller_addr`, and starts serving.
    ///
    /// # Errors
    /// [`ClusterError::InvalidConfig`] for a zero `heap_k`;
    /// [`ClusterError::ControllerUnavailable`] or
    /// [`ClusterError::RetryExhausted`] when registration fails past the
    /// config's retry budget.
    pub fn start(controller_addr: &str, cfg: NodeConfig) -> Result<Self> {
        Self::launch(controller_addr, cfg, None)
    }

    /// Restarts a killed node: binds a *fresh* listener (the old port is
    /// gone with the old process) and announces itself to the controller
    /// under the node id of its previous incarnation. The controller
    /// re-admits the id, restores its former shard claim, and catches the
    /// node up by republishing the pinned snapshot under a bumped cluster
    /// epoch — the rank epoch is untouched, the same two-epoch discipline
    /// as failover. Until that catch-up publish commits, the node answers
    /// `NotOwner` (a retriable condition clients already handle).
    ///
    /// # Errors
    /// See [`ShardNode::start`].
    pub fn restart(controller_addr: &str, prior_node: u64, cfg: NodeConfig) -> Result<Self> {
        Self::launch(controller_addr, cfg, Some(prior_node))
    }

    fn launch(controller_addr: &str, cfg: NodeConfig, prior: Option<u64>) -> Result<Self> {
        if cfg.heap_k == 0 {
            return Err(ClusterError::InvalidConfig {
                reason: "heap_k must be at least 1".into(),
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
        // Register before serving: the controller must know us before any
        // publish can place shards here. The listener is already bound,
        // so a catch-up stage racing in right after the reply parks in
        // the TCP backlog until the accept loop spins up.
        let node = register_with_controller(controller_addr, &addr, prior, &cfg, &counters)?;
        let inner = Arc::new(NodeInner {
            node_id: node,
            addr,
            cfg,
            shutdown: AtomicBool::new(false),
            serving: Mutex::new(Serving::default()),
            staged: Mutex::new(Staged::default()),
            last_aborted: AtomicU64::new(0),
            counters,
            next_conn: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            tombstone_rejections: AtomicU64::new(0),
            staged_count: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            staged_expired: AtomicU64::new(0),
        });
        let conns = Arc::new(Accepted::default());
        let accept = {
            let inner = Arc::clone(&inner);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &inner, &conns))
        };
        Ok(Self {
            inner,
            accept: Some(accept),
            conns,
        })
    }

    /// The node's listen address (`ip:port`).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// The controller-assigned node id.
    #[must_use]
    pub fn node_id(&self) -> u64 {
        self.inner.node_id
    }

    /// The committed `(cluster epoch, rank epoch)` pair.
    #[must_use]
    pub fn epochs(&self) -> (u64, u64) {
        let s = lock_clean(&self.inner.serving);
        (s.epoch, s.rank_epoch)
    }

    /// This node's counters, as they would go over the wire.
    #[must_use]
    pub fn local_stats(&self) -> NodeWireStats {
        self.inner.wire_stats()
    }

    /// Closes every accepted connection while the node keeps running —
    /// what an idle-link reaper or a middlebox reset does to long-lived
    /// links. Peers find their parked links stale on the next call and
    /// re-dial; nothing else about the node changes.
    pub fn drop_connections(&self) {
        self.conns.sever();
    }

    /// Stops the node abruptly: the listener closes, every accepted
    /// connection is shut down under its thread (peers hold these open
    /// indefinitely, so waiting for them to go idle would wait out a read
    /// timeout), and — crucially for the failover story — the controller
    /// is *not* told. It finds out the way real clusters do: missed
    /// heartbeats.
    pub fn kill(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread out of `accept` with a connection of our
        // own; it sees the flag and drops the listener.
        let _ = TcpStream::connect(&self.inner.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.conns.close();
    }
}

/// Registers (or rejoins) with the controller under the node's retry
/// policy: transport hiccups back off and retry, protocol violations
/// surface immediately.
fn register_with_controller(
    controller_addr: &str,
    addr: &str,
    prior: Option<u64>,
    cfg: &NodeConfig,
    counters: &Arc<WireCounters>,
) -> Result<u64> {
    let hello = match prior {
        Some(node) => Message::Rejoin {
            node,
            addr: addr.to_string(),
        },
        None => Message::Register {
            addr: addr.to_string(),
        },
    };
    let salt = addr.bytes().fold(prior.unwrap_or(0), |acc, b| {
        acc.rotate_left(8) ^ u64::from(b)
    });
    let mut schedule = cfg.retry.begin(salt);
    loop {
        let attempt = (|| -> Result<u64> {
            let mut ctrl =
                FramedConn::connect(controller_addr, cfg.io_timeout, Arc::clone(counters))
                    .map_err(|e| ClusterError::ControllerUnavailable {
                        detail: format!("dial {controller_addr}: {e}"),
                    })?;
            let reply = ctrl
                .call(&hello)
                .map_err(|e| ClusterError::ControllerUnavailable {
                    detail: format!("register with {controller_addr}: {e}"),
                })?;
            match reply {
                Message::Registered { node } => Ok(node),
                other => Err(ClusterError::Protocol {
                    detail: format!("expected Registered, got {other:?}"),
                }),
            }
        })();
        match attempt {
            Ok(node) => return Ok(node),
            err @ Err(ClusterError::Protocol { .. }) => return err,
            Err(e) => {
                if !schedule.backoff_and_retry() {
                    return if schedule.attempts() == 0 {
                        // No retry was ever granted: surface the plain
                        // cause, not a budget complaint.
                        Err(e)
                    } else {
                        Err(ClusterError::RetryExhausted {
                            op: if prior.is_some() {
                                "rejoin"
                            } else {
                                "register"
                            },
                            attempts: schedule.attempts() + 1,
                            detail: e.to_string(),
                        })
                    };
                }
            }
        }
    }
}

/// Blocks in `accept`, so a peer's first frame is read the moment it
/// dials; `kill` wakes it with a connection of its own.
fn accept_loop(listener: &TcpListener, inner: &Arc<NodeInner>, conns: &Accepted) {
    while let Ok((stream, _)) = listener.accept() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let inner = Arc::clone(inner);
        conns.spawn(stream, move |stream| conn_loop(stream, &inner));
    }
}

fn conn_loop(stream: TcpStream, inner: &Arc<NodeInner>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let Ok(conn) =
        FramedConn::from_stream(stream, inner.cfg.io_timeout, Arc::clone(&inner.counters))
    else {
        return;
    };
    let mut conn = match &inner.cfg.fault {
        Some(plan) => conn.with_faults(Arc::new(
            plan.injector(inner.next_conn.fetch_add(1, Ordering::Relaxed)),
        )),
        None => conn,
    };
    loop {
        let msg = conn.recv_idle(&mut || !inner.shutdown.load(Ordering::SeqCst));
        let msg = match msg {
            Ok(msg) => msg,
            // TimedOut here means the shutdown flag flipped while idle;
            // Closed/Io means the peer went away. Either way: wind down.
            Err(TransportError::TimedOut | TransportError::Closed | TransportError::Io(_)) => {
                return
            }
            Err(TransportError::Wire(e)) => {
                // Garbage on the wire: answer typed, then keep serving.
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
        };
        let reply = inner.handle(msg);
        if conn.send(&reply).is_err() {
            return;
        }
    }
}

impl NodeInner {
    fn handle(&self, msg: Message) -> Message {
        match msg {
            Message::Ping { seq } => {
                // Heartbeats double as the staged-epoch GC tick: a set
                // whose publisher went silent is expired here even if no
                // further stage or commit ever arrives.
                self.expire_stale_stage();
                let epoch = lock_clean(&self.serving).epoch;
                Message::Pong { seq, epoch }
            }
            Message::Stage {
                epoch,
                shard,
                grade,
                segment,
            } => self.stage(epoch, shard, grade, segment),
            Message::Commit { epoch, rank_epoch } => self.commit(epoch, rank_epoch),
            Message::Abort { epoch } => self.abort(epoch),
            Message::ScoreBatch { shard, docs } => self.score_batch(shard, &docs),
            Message::TopKReq { shard, k } => self.top_k(shard, k),
            Message::SiteTopKReq { shard, site, k } => self.site_top_k(shard, site, k),
            Message::StatsReq => Message::Stats(self.wire_stats()),
            other => Message::Bad {
                detail: format!("unexpected message at a shard node: {other:?}"),
            },
        }
    }

    /// Discards any staged set at or below the aborted epoch and refuses
    /// that epoch (and everything older) forever after. Idempotent — a
    /// replayed abort re-acks.
    fn abort(&self, epoch: u64) -> Message {
        // SeqCst: this watermark gates stage/commit acceptance — a Relaxed
        // store could let a racing late Stage slip past the abort (the
        // burnt-epoch class of bug from PR 7).
        self.last_aborted.fetch_max(epoch, Ordering::SeqCst);
        let mut staged = lock_clean(&self.staged);
        if !staged.entries.is_empty() && staged.epoch <= epoch {
            staged.clear();
            self.aborted.fetch_add(1, Ordering::Relaxed);
        }
        Message::Ack { epoch }
    }

    /// Clears a staged set that outlived the stage TTL, counting it.
    /// Returns `true` when something was expired.
    fn expire_locked(&self, staged: &mut Staged) -> bool {
        let expired = !staged.entries.is_empty()
            && staged
                .at
                .is_some_and(|at| at.elapsed() > self.cfg.stage_ttl);
        if expired {
            staged.clear();
            self.staged_expired.fetch_add(1, Ordering::Relaxed);
        }
        expired
    }

    fn expire_stale_stage(&self) {
        let mut staged = lock_clean(&self.staged);
        self.expire_locked(&mut staged);
    }

    /// Stages one shard of `epoch`. A segment is patched into the epoch's
    /// tables here, and the sites whose committed order cannot be kept are
    /// picked here too, so commit has only the re-sorts and the merges
    /// left. Everything is decided against the committed epoch, which
    /// cannot move while the stage lock is held: commit holds it too.
    fn stage(
        &self,
        epoch: u64,
        shard: u64,
        grade: SwapGrade,
        segment: Option<SnapshotSegment>,
    ) -> Message {
        if grade != SwapGrade::Repin && segment.is_none() {
            return Message::Bad {
                detail: format!("stage of shard {shard} grade {grade:?} carries no segment"),
            };
        }
        if let Some(seg) = segment.as_ref().filter(|seg| seg.sites.end > seg.n_sites) {
            return Message::Bad {
                detail: format!(
                    "stage of shard {shard} covers sites {:?} of {}",
                    seg.sites, seg.n_sites
                ),
            };
        }
        let aborted = self.last_aborted.load(Ordering::SeqCst);
        if epoch <= aborted && aborted > 0 {
            return Message::Bad {
                detail: format!("stage epoch {epoch} was aborted (last aborted {aborted})"),
            };
        }
        let mut staged = lock_clean(&self.staged);
        let (committed, base, prev) = {
            let serving = lock_clean(&self.serving);
            (
                serving.epoch,
                serving.tables.clone(),
                serving.shards.get(&shard).cloned(),
            )
        };
        if epoch <= committed {
            return Message::Bad {
                detail: format!("stage epoch {epoch} is not past committed {committed}"),
            };
        }
        self.expire_locked(&mut staged);
        if staged.epoch != epoch || staged.entries.is_empty() {
            // A newer publish supersedes any uncommitted older stage set;
            // the new set starts from the committed tables.
            staged.clear();
            staged.epoch = epoch;
            staged.tables = base.clone();
        }
        let entry = match segment {
            None => {
                // A repin keeps the committed store, over its sites.
                let sites = prev.as_ref().map_or(0..0, |p| p.sites().clone());
                if staged.detached {
                    staged.tables.carry(&base, sites.clone());
                }
                StagedShard::Repin { sites }
            }
            Some(seg) => {
                let Staged {
                    entries,
                    tables,
                    detached,
                    spare,
                    ..
                } = &mut *staged;
                if !*detached {
                    let repinned: Vec<Range<usize>> = entries
                        .values()
                        .filter_map(|entry| match entry {
                            StagedShard::Repin { sites } => Some(sites.clone()),
                            StagedShard::Assemble { .. } => None,
                        })
                        .collect();
                    tables.detach(spare, seg.n_docs, &base, &repinned);
                    *detached = true;
                }
                tables.patch(&seg);
                // A site keeps its committed order when its members are
                // unchanged and the order is still strictly sorted.
                let stale = seg
                    .sites
                    .clone()
                    .zip(&seg.members)
                    .filter(|&(site, members)| {
                        let unchanged = base.members.get(site).is_some_and(|m| **m == **members);
                        let order = prev.as_ref().and_then(|p| p.site_order(SiteId(site)));
                        !(unchanged && order.is_some_and(|o| in_serving_order(o, &tables.scores)))
                    })
                    .map(|(site, _)| site)
                    .collect();
                StagedShard::Assemble {
                    sites: seg.sites,
                    stale,
                }
            }
        };
        staged.entries.insert(shard, entry);
        staged.at = Some(Instant::now());
        self.staged_count.fetch_add(1, Ordering::Relaxed);
        Message::Ack { epoch }
    }

    /// Commits the staged set: assembles every store over one new node
    /// snapshot under the stage lock, then swaps them in under the serving
    /// mutex, which it holds for nothing else.
    fn commit(&self, epoch: u64, rank_epoch: u64) -> Message {
        let mut staged = lock_clean(&self.staged);
        let (committed, mut prev) = {
            let serving = lock_clean(&self.serving);
            (serving.epoch, serving.shards.clone())
        };
        if committed == epoch {
            // Duplicate commit (a publish retry): already serving it.
            return Message::Ack { epoch };
        }
        let aborted = self.last_aborted.load(Ordering::SeqCst);
        if epoch <= aborted && aborted > 0 {
            return Message::Bad {
                detail: format!("commit of epoch {epoch} refused: epoch was aborted"),
            };
        }
        if self.expire_locked(&mut staged) {
            return Message::Bad {
                detail: format!(
                    "commit of epoch {epoch} refused: staged set expired after {:?}",
                    self.cfg.stage_ttl
                ),
            };
        }
        if staged.epoch != epoch || staged.entries.is_empty() {
            return Message::Bad {
                detail: format!(
                    "commit of epoch {epoch} but staged epoch is {} with {} shards",
                    staged.epoch,
                    staged.entries.len()
                ),
            };
        }
        let entries = std::mem::take(&mut staged.entries);
        let mut tables = std::mem::take(&mut staged.tables);
        staged.clear();
        // Shards not in the staged set leave the node — the controller
        // moved them elsewhere — and their sites leave its tables.
        for (shard, state) in &prev {
            if !entries.contains_key(shard) {
                tables.clear(state.sites().clone());
            }
        }
        let snapshot = tables.snapshot(rank_epoch);
        let mut shards: HashMap<u64, Arc<ShardState>> = HashMap::with_capacity(entries.len());
        for (shard, entry) in entries {
            let state = match (entry, prev.remove(&shard)) {
                (StagedShard::Repin { .. }, Some(prev)) => prev.repin(&snapshot),
                (StagedShard::Repin { .. }, None) => {
                    return Message::Bad {
                        detail: format!("repin of shard {shard} without a prior store"),
                    }
                }
                (StagedShard::Assemble { sites, stale }, Some(prev)) => {
                    prev.rebuild(&snapshot, sites, &stale, self.cfg.heap_k)
                }
                (StagedShard::Assemble { sites, .. }, None) => {
                    ShardState::build(&snapshot, sites, self.cfg.heap_k)
                }
            };
            shards.insert(shard, Arc::new(state));
        }
        let retired = std::mem::replace(
            &mut *lock_clean(&self.serving),
            Serving {
                epoch,
                rank_epoch,
                shards,
                tables,
            },
        );
        // Off the serving lock: the retired stores go, and the buffers of
        // the tables they pinned are kept for the next epoch's copies.
        drop(prev);
        drop(retired.shards);
        staged.spare.recycle(retired.tables);
        self.commits.fetch_add(1, Ordering::Relaxed);
        Message::Ack { epoch }
    }

    /// Pins `(epoch, rank_epoch, store)` for one owned shard — the lock is
    /// held only for the `Arc` clone, compute happens on the caller. The
    /// refusal is boxed: `Message` is frame-sized, the happy path isn't.
    fn pin(&self, shard: u64) -> std::result::Result<(u64, u64, Arc<ShardState>), Box<Message>> {
        let serving = lock_clean(&self.serving);
        match serving.shards.get(&shard) {
            Some(state) => Ok((serving.epoch, serving.rank_epoch, Arc::clone(state))),
            None => Err(Box::new(Message::NotOwner { shard })),
        }
    }

    fn score_batch(&self, shard: u64, docs: &[u64]) -> Message {
        let (epoch, rank_epoch, state) = match self.pin(shard) {
            Ok(pin) => pin,
            Err(refusal) => return *refusal,
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let scores: Vec<DocScore> = docs
            .iter()
            .map(|&d| {
                let score = state.score(DocId(d as usize));
                if score == DocScore::Tombstoned {
                    self.tombstone_rejections.fetch_add(1, Ordering::Relaxed);
                }
                score
            })
            .collect();
        Message::Scores {
            epoch,
            rank_epoch,
            scores,
        }
    }

    fn top_k(&self, shard: u64, k: u64) -> Message {
        let (epoch, rank_epoch, state) = match self.pin(shard) {
            Ok(pin) => pin,
            Err(refusal) => return *refusal,
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let (entries, complete) = state.top_k(k as usize);
        Message::Top {
            epoch,
            rank_epoch,
            entries,
            complete,
        }
    }

    fn site_top_k(&self, shard: u64, site: u64, k: u64) -> Message {
        let (epoch, rank_epoch, state) = match self.pin(shard) {
            Ok(pin) => pin,
            Err(refusal) => return *refusal,
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let reply = state.site_top_k(SiteId(site as usize), k as usize);
        if reply == SiteTopK::Tombstoned {
            self.tombstone_rejections.fetch_add(1, Ordering::Relaxed);
        }
        Message::SiteTop {
            epoch,
            rank_epoch,
            reply,
        }
    }

    fn wire_stats(&self) -> NodeWireStats {
        let (epoch, rank_epoch, mut shard_docs) = {
            let serving = lock_clean(&self.serving);
            let docs: Vec<(u64, u64)> = serving
                .shards
                .iter()
                .map(|(&shard, state)| (shard, state.n_docs() as u64))
                .collect();
            (serving.epoch, serving.rank_epoch, docs)
        };
        shard_docs.sort_unstable();
        let (bytes_sent, bytes_recv) = self.counters.totals();
        NodeWireStats {
            node: self.node_id,
            epoch,
            rank_epoch,
            shard_docs,
            queries: self.queries.load(Ordering::Relaxed),
            tombstone_rejections: self.tombstone_rejections.load(Ordering::Relaxed),
            staged: self.staged_count.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            staged_expired: self.staged_expired.load(Ordering::Relaxed),
            bytes_sent,
            bytes_recv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_engine::{BackendSpec, RankEngine};
    use lmm_graph::delta::GraphDelta;
    use lmm_graph::generator::CampusWebConfig;
    use lmm_graph::sharding::ShardMap;
    use lmm_graph::DocGraph;
    use lmm_serve::{publish_grades, shard_site_range};

    const HEAP_K: usize = 8;

    fn node(node_id: u64) -> NodeInner {
        NodeInner {
            node_id,
            addr: String::new(),
            cfg: NodeConfig {
                heap_k: HEAP_K,
                ..NodeConfig::default()
            },
            shutdown: AtomicBool::new(false),
            serving: Mutex::new(Serving::default()),
            staged: Mutex::new(Staged::default()),
            last_aborted: AtomicU64::new(0),
            counters: Arc::new(WireCounters::default()),
            next_conn: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            tombstone_rejections: AtomicU64::new(0),
            staged_count: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            staged_expired: AtomicU64::new(0),
        }
    }

    /// Every site order of every store of `node`, by site.
    fn orders(node: &NodeInner) -> HashMap<usize, Arc<[DocId]>> {
        let serving = lock_clean(&node.serving);
        let mut orders = HashMap::new();
        for state in serving.shards.values() {
            for site in state.sites().clone() {
                if let Some(order) = state.site_order(SiteId(site)) {
                    orders.insert(site, Arc::clone(order));
                }
            }
        }
        orders
    }

    /// What the controller does: stage each shard at its owner with its
    /// grade (a segment unless repinned), then commit every owner. The
    /// nodes' spare buffers are poisoned first, so an entry the epoch
    /// fails to write cannot pass for a correct one.
    fn publish(
        nodes: &[NodeInner],
        owners: &[usize],
        grades: &[SwapGrade],
        map: &ShardMap,
        snapshot: &RankSnapshot,
        epoch: u64,
    ) {
        for node in nodes {
            let spare = &mut lock_clean(&node.staged).spare;
            spare.scores.fill(f64::NAN);
            spare.site_of.fill(SiteId(0));
        }
        for (shard, (&owner, &grade)) in owners.iter().zip(grades).enumerate() {
            let segment = (grade != SwapGrade::Repin)
                .then(|| snapshot.export_segment(shard_site_range(map, shard, snapshot.n_sites())));
            let reply = nodes[owner].stage(epoch, shard as u64, grade, segment);
            assert_eq!(reply, Message::Ack { epoch }, "stage of shard {shard}");
        }
        for (i, node) in nodes.iter().enumerate() {
            if owners.contains(&i) {
                let reply = node.commit(epoch, snapshot.epoch());
                assert_eq!(reply, Message::Ack { epoch }, "commit at node {i}");
            }
        }
    }

    /// Every store equals a from-scratch build over the full snapshot on
    /// its own sites: orders, top list, site answers, and the score of
    /// every document of those sites. A document of a site the node does
    /// not hold is never live there (asking for it is a routing error): a
    /// dead slot, or unknown past the id space of the node's last
    /// segment. An id past the snapshot is unknown.
    fn assert_parity(
        nodes: &[NodeInner],
        owners: &[usize],
        map: &ShardMap,
        snapshot: &RankSnapshot,
    ) {
        for (shard, &owner) in owners.iter().enumerate() {
            let (_, rank_epoch, store) = nodes[owner].pin(shard as u64).unwrap();
            assert_eq!(rank_epoch, snapshot.epoch());
            let sites = shard_site_range(map, shard, snapshot.n_sites());
            let want = ShardState::build(snapshot, sites.clone(), HEAP_K);
            assert_eq!(store.sites(), &sites);
            for site in sites.clone() {
                assert_eq!(
                    store.site_order(SiteId(site)).map(|o| &o[..]),
                    want.site_order(SiteId(site)).map(|o| &o[..]),
                    "order of site {site}"
                );
            }
            let bits = |(top, exact): (Vec<(DocId, f64)>, bool)| {
                (
                    top.into_iter()
                        .map(|(d, s)| (d, s.to_bits()))
                        .collect::<Vec<_>>(),
                    exact,
                )
            };
            for k in [1, HEAP_K, snapshot.n_docs()] {
                assert_eq!(
                    bits(store.top_k(k)),
                    bits(want.top_k(k)),
                    "top {k} of shard {shard}"
                );
            }
            for site in 0..snapshot.n_sites() + 1 {
                assert_eq!(
                    store.site_top_k(SiteId(site), snapshot.n_docs()),
                    want.site_top_k(SiteId(site), snapshot.n_docs()),
                    "site {site} at shard {shard}"
                );
            }
            let held: Vec<Range<usize>> = owners
                .iter()
                .enumerate()
                .filter(|&(_, &o)| o == owner)
                .map(|(s, _)| shard_site_range(map, s, snapshot.n_sites()))
                .collect();
            for d in 0..snapshot.n_docs() + 2 {
                let doc = DocId(d);
                let got = store.score(doc);
                let site = snapshot.site_assignments().get(d).map(|s| s.index());
                match site {
                    None => assert_eq!(got, DocScore::Unknown, "doc {d}"),
                    Some(s) if held.iter().any(|r| r.contains(&s)) => {
                        let want = want.score(doc);
                        match (got, want) {
                            (DocScore::Live(a), DocScore::Live(b)) => {
                                assert_eq!(a.to_bits(), b.to_bits(), "score of doc {d}");
                            }
                            _ => assert_eq!(got, want, "doc {d}"),
                        }
                    }
                    Some(_) => assert!(
                        matches!(got, DocScore::Tombstoned | DocScore::Unknown),
                        "doc {d} of another node answered {got:?}"
                    ),
                }
            }
        }
    }

    fn campus() -> DocGraph {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = 300;
        cfg.n_sites = 10;
        cfg.spam_farms.clear();
        cfg.generate().unwrap()
    }

    /// One delta of each kind in turn: local (a rewire and a new page),
    /// global (a cross-site link), page removal, site removal, and an
    /// appended site.
    fn delta(graph: &DocGraph, step: usize) -> GraphDelta {
        let mut delta = GraphDelta::for_graph(graph);
        let live: Vec<SiteId> = graph.live_sites().collect();
        let site = live[(step * 7 + 3) % live.len()];
        let docs = graph.docs_of_site(site);
        match step % 5 {
            0 => {
                // As the benchmark's local edit: one site is rewired (its
                // members stay, its order moves), another grows a page.
                for &from in &docs[..docs.len() - 1] {
                    delta.add_link(from, docs[docs.len() - 1]).unwrap();
                }
                let grown = live[(step * 7 + 4) % live.len()];
                let root = graph.docs_of_site(grown)[0];
                let page = delta
                    .add_page(grown, &format!("http://parity/{step}"))
                    .unwrap();
                delta.add_link(root, page).unwrap();
            }
            1 => {
                let other = graph.docs_of_site(live[(step * 3 + 1) % live.len()]);
                delta.add_link(docs[0], other[other.len() / 2]).unwrap();
            }
            2 => delta.remove_page(docs[docs.len() - 1]).unwrap(),
            3 => delta.remove_site(site).unwrap(),
            _ => {
                let added = delta.add_site(&format!("parity-{step}.example"));
                let a = delta.add_page(added, "http://parity-a/").unwrap();
                let b = delta.add_page(added, "http://parity-b/").unwrap();
                delta.add_link(a, b).unwrap();
                delta.add_link(b, docs[0]).unwrap();
                delta.add_link(docs[0], a).unwrap();
            }
        }
        delta
    }

    /// A republish of the same rank epoch onto a new placement, graded as
    /// the controller does: a shard that changed owner is rebuilt, every
    /// other one repinned. A node that keeps its shards keeps every order.
    fn replace(
        nodes: &[NodeInner],
        owners: &mut Vec<usize>,
        moved_to: Vec<usize>,
        map: &ShardMap,
        snapshot: &RankSnapshot,
        epoch: u64,
    ) {
        let grades: Vec<SwapGrade> = owners
            .iter()
            .zip(&moved_to)
            .map(|(was, now)| {
                if was == now {
                    SwapGrade::Repin
                } else {
                    SwapGrade::Rebuild
                }
            })
            .collect();
        let before = orders(&nodes[0]);
        *owners = moved_to;
        publish(nodes, owners, &grades, map, snapshot, epoch);
        assert_parity(nodes, owners, map, snapshot);
        for (site, order) in orders(&nodes[0]) {
            if let Some(kept) = before.get(&site) {
                assert!(Arc::ptr_eq(&order, kept), "site {site} re-sorted");
            }
        }
    }

    #[test]
    fn node_stores_equal_full_builds_across_churn_and_failover() {
        let mut graph = campus();
        let mut engine = RankEngine::builder()
            .backend(BackendSpec::Incremental)
            .threads(1)
            .build()
            .unwrap();
        engine.rank(&graph).unwrap();
        let map = ShardMap::balanced(&graph, 4).unwrap();
        let mut nodes = vec![node(0), node(1)];
        let mut owners = vec![0, 0, 1, 1];
        let mut snapshot = engine.snapshot().unwrap();
        let mut epoch = 1;
        let mut local_deltas = 0;
        let rebuild_all = [SwapGrade::Rebuild; 4];
        publish(&nodes, &owners, &rebuild_all, &map, &snapshot, epoch);
        assert_parity(&nodes, &owners, &map, &snapshot);

        for step in 0..15 {
            epoch += 1;
            if step == 5 {
                // Failover: node 1 is gone, node 0 takes its shards.
                nodes.pop();
                replace(&nodes, &mut owners, vec![0; 4], &map, &snapshot, epoch);
                epoch += 1;
            }
            if step == 10 {
                // Node 1 rejoins empty and takes its shards back, which
                // leave node 0.
                nodes.push(node(1));
                replace(
                    &nodes,
                    &mut owners,
                    vec![0, 0, 1, 1],
                    &map,
                    &snapshot,
                    epoch,
                );
                epoch += 1;
            }
            let d = delta(&graph, step);
            graph = graph.apply(&d).unwrap().0;
            engine.apply_delta(&d).unwrap();
            let previous = snapshot.epoch();
            snapshot = engine.snapshot().unwrap();
            let grades = publish_grades(&map, previous, &snapshot);
            let before: Vec<_> = nodes.iter().map(orders).collect();
            publish(&nodes, &owners, &grades, &map, &snapshot, epoch);
            assert_parity(&nodes, &owners, &map, &snapshot);
            if let Staleness::Sites(named) = snapshot.staleness() {
                // A local delta: every order it did not name is the very
                // order of the previous commit.
                local_deltas += 1;
                for (node, before) in nodes.iter().zip(&before) {
                    let after = orders(node);
                    for (site, order) in before {
                        if named.binary_search(site).is_err() {
                            assert!(Arc::ptr_eq(order, &after[site]), "site {site} re-sorted");
                        }
                    }
                }
            }
        }
        assert!(
            local_deltas >= 2,
            "the stream staged {local_deltas} local deltas"
        );
    }
}
