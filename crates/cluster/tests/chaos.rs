//! The fabric under a seeded fault schedule — chaos, but reproducible
//! chaos.
//!
//! Stands up the loopback cluster (controller, four [`ShardNode`]s over
//! eight shards, a [`ClusterClient`]) next to the in-process
//! [`ShardedServer`] mirror and drives a local / removal / global delta
//! mix through both. The chaos schedule gives **every** role a
//! deterministic [`FaultPlan`]: nodes drop, delay, and sever frames in both
//! directions (one of them rides a periodic bidirectional partition
//! window), and the clients' own sends are lossy too. It also kills two
//! nodes outright at fixed epochs and restarts each under its prior id a
//! few epochs later. Asserted throughout:
//!
//! * **zero wrong-epoch responses** — every probe answered during a
//!   publish, a failover window, or a rejoin catch-up is wholly at the
//!   pre-swap or post-swap epoch, bit for bit;
//! * **only-retriable client errors** — faults surface to the client as
//!   [`ClusterError::is_retriable`] errors, never as wrong answers or
//!   non-retriable failures;
//! * **bitwise parity at every quiesce** — after each publish settles,
//!   the cluster's query surface equals the in-process tier's, IEEE-754
//!   bit patterns included;
//! * **rank-mass conservation** — every epoch's snapshot scores sum to 1
//!   within 1e-9;
//! * **recovery round-trips** — a killed node's shards fail over with the
//!   rank epoch pinned, and after restart the node serves *exactly* its
//!   original shard set again, the rank epoch still untouched; publish
//!   retries stay within budget and client escalations stay bounded.
//!
//! Everything binds 127.0.0.1:0 and spawns its own threads, so the suite
//! is `RUST_TEST_THREADS=1`-safe.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lmm_cluster::{
    ClientConfig, ClusterClient, ClusterController, ClusterError, ControllerConfig, FaultPlan,
    NodeConfig, RetryPolicy, ShardNode,
};
use lmm_engine::{BackendSpec, RankEngine, RankSnapshot};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

const SEED: u64 = 0xC7A05;
const N_NODES: usize = 4;
const N_SHARDS: usize = 8;
const EPOCHS: usize = 8;
/// Two full down-and-back cycles, epochs apart so churn keeps flowing
/// while a node is dark.
const KILL_AT: [usize; 2] = [1, 4];
const REJOIN_AT: [usize; 2] = [3, 7];
const TOP_K: usize = 10;
const PROBES_PER_SWAP: u64 = 20;

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }
    fn next(&mut self, m: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % m
    }
}

/// 2 000 docs over 40 sites, no spam farms.
fn campus() -> DocGraph {
    let mut cfg = CampusWebConfig::paper_scale();
    cfg.spam_farms.clear();
    cfg.seed = 23;
    cfg.total_docs = 2_000;
    cfg.n_sites = 40;
    cfg.generate().unwrap()
}

fn engine_for(graph: &DocGraph) -> RankEngine {
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .build()
        .unwrap();
    engine.rank(graph).unwrap();
    engine
}

/// The ambient fault plan the `i`-th node serves behind: lossy and slow
/// in both directions, with node 1 additionally riding a periodic
/// bidirectional partition window.
fn node_plan(i: usize, seed: u64) -> FaultPlan {
    FaultPlan {
        drop_per_mille: 6,
        delay_per_mille: 10,
        delay: Duration::from_millis(2),
        disconnect_per_mille: 2,
        recv_drop_per_mille: 4,
        recv_delay_per_mille: 8,
        partition_period: if i == 1 { 96 } else { 0 },
        partition_len: if i == 1 { 6 } else { 0 },
        ..FaultPlan::quiet(seed ^ (i as u64).rotate_left(24))
    }
}

fn node_config(i: usize, seed: u64) -> NodeConfig {
    NodeConfig {
        heap_k: 128,
        fault: Some(node_plan(i, seed)),
        ..NodeConfig::default()
    }
}

/// Repeats a cluster call through transient (retriable) failures: faults
/// may slow an answer down, never change it. Anything non-retriable fails
/// the test.
fn patient<T>(mut op: impl FnMut() -> Result<T, ClusterError>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match op() {
            Ok(out) => return out,
            Err(err) if err.is_retriable() => {
                assert!(Instant::now() < deadline, "retriable error never cleared");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(err) => panic!("non-retriable under chaos: {err}"),
        }
    }
}

/// The delta of churn epoch `epoch`: local, removal, global in turn.
fn delta_for_epoch(graph: &DocGraph, epoch: usize) -> GraphDelta {
    match epoch % 3 {
        2 => global_delta(graph, epoch),
        1 => removal_delta(graph, epoch),
        _ => local_delta(graph, epoch),
    }
}

/// Intra-site rewire plus growth: only the touched shards rebuild.
fn local_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 7 + 3) % n_sites;
    while graph.site_size(SiteId(site)) < 3 {
        site = (site + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(site));
    delta.remove_link(docs[0], docs[1]).unwrap();
    delta.add_link(docs[1], docs[2]).unwrap();
    delta.add_link(docs[2], docs[0]).unwrap();
    let mut target = (step * 5 + 1) % n_sites;
    while graph.site_size(SiteId(target)) < 1 {
        target = (target + 1) % n_sites;
    }
    let target = SiteId(target);
    let root = graph.docs_of_site(target)[0];
    let p = delta
        .add_page(target, &format!("http://chaos-grow-{step}.page/"))
        .unwrap();
    delta.add_link(root, p).unwrap();
    delta.add_link(p, root).unwrap();
    delta
}

/// Cross link (plus a new site every 2nd time): stales the site layer, so
/// every shard is refreshed or rebuilt from a shipped segment — maximum
/// wire fan-out under faults.
fn global_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site_a = (step * 11 + 2) % n_sites;
    while graph.site_size(SiteId(site_a)) < 1 {
        site_a = (site_a + 1) % n_sites;
    }
    let mut site_b = (step * 13 + 5) % n_sites;
    while site_b == site_a || graph.site_size(SiteId(site_b)) < 1 {
        site_b = (site_b + 1) % n_sites;
    }
    let a = graph.docs_of_site(SiteId(site_a))[0];
    let b = graph.docs_of_site(SiteId(site_b))[0];
    delta.add_link(a, b).unwrap();
    if step.is_multiple_of(2) {
        let s = delta.add_site(&format!("chaos-{step}.example"));
        let pages: Vec<DocId> = (0..3)
            .map(|i| {
                delta
                    .add_page(s, &format!("http://chaos-{step}.example/{i}"))
                    .unwrap()
            })
            .collect();
        for w in pages.windows(2) {
            delta.add_link(w[0], w[1]).unwrap();
        }
        delta.add_link(pages[2], pages[0]).unwrap();
        delta.add_link(a, pages[0]).unwrap();
        delta.add_link(pages[0], a).unwrap();
    }
    delta
}

/// Whole-site retirement plus a page removal elsewhere: the publish
/// rebuilds the named shards and refreshes every other one.
fn removal_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 13 + 5) % n_sites;
    while graph.site_size(SiteId(site)) < 4 {
        site = (site + 1) % n_sites;
    }
    delta.remove_site(SiteId(site)).unwrap();
    let mut shrink = (step * 17 + 11) % n_sites;
    while shrink == site || graph.site_size(SiteId(shrink)) < 4 {
        shrink = (shrink + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(shrink));
    delta.remove_page(docs[docs.len() - 1]).unwrap();
    delta
}

/// Bitwise parity of `top_k`, `score_batch` and `compare` between the
/// cluster and the in-process tier at one quiesce point, patiently riding
/// out injected faults.
fn assert_parity(
    client: &ClusterClient,
    server: &ShardedServer,
    snapshot: &RankSnapshot,
    rng: &mut XorShift,
) {
    let want_epoch = snapshot.epoch();

    let (le, local_top) = server.top_k(TOP_K).unwrap();
    let (re, remote_top) = patient(|| client.top_k(TOP_K));
    assert_eq!((le, re), (want_epoch, want_epoch), "top_k epoch drift");
    assert_eq!(local_top.len(), remote_top.len());
    for (l, r) in local_top.iter().zip(remote_top.iter()) {
        assert_eq!(l.0, r.0, "top_k doc drift");
        assert_eq!(
            l.1.to_bits(),
            r.1.to_bits(),
            "top_k score drift at {:?}",
            l.0
        );
    }

    let live: Vec<DocId> = (0..snapshot.n_docs())
        .map(DocId)
        .filter(|&d| snapshot.is_live_doc(d))
        .collect();
    let batch: Vec<DocId> = (0..64.min(live.len()))
        .map(|_| live[rng.next(live.len())])
        .collect();
    let (le, local_scores) = server.score_batch(&batch).unwrap();
    let (re, remote_scores) = patient(|| client.score_batch(&batch));
    assert_eq!((le, re), (want_epoch, want_epoch), "batch epoch drift");
    for (i, (l, r)) in local_scores.iter().zip(remote_scores.iter()).enumerate() {
        assert_eq!(l.to_bits(), r.to_bits(), "score drift at {:?}", batch[i]);
    }

    for _ in 0..8 {
        let (a, b) = (live[rng.next(live.len())], live[rng.next(live.len())]);
        let (le, local_ord) = server.compare(a, b).unwrap();
        let (re, remote_ord) = patient(|| client.compare(a, b));
        assert_eq!((le, re), (want_epoch, want_epoch), "compare epoch drift");
        assert_eq!(local_ord, remote_ord, "compare drift {a:?} vs {b:?}");
    }
}

/// The shard ids `node` currently serves, read (lossily) over the wire.
/// Empty when the stats probe itself was eaten by a fault — callers loop.
fn shards_of(controller: &ClusterController, node: u64) -> BTreeSet<u64> {
    controller
        .stats()
        .nodes
        .iter()
        .find(|n| n.node == node)
        .and_then(|n| n.wire.as_ref())
        .map(|w| w.shard_docs.iter().map(|&(s, _)| s).collect())
        .unwrap_or_default()
}

/// Hammers `TOP_K` from a second, equally lossy client while a publish
/// swaps `old_epoch` for `new_epoch`: every answer must be wholly one
/// epoch's top list, bit for bit, and every error retriable. The prober
/// signals `ready` once its first probe returns (connected, placement
/// fetched), then probes at least `PROBES_PER_SWAP` times and until
/// `published` is set, so a publish started after `ready` has its whole
/// stage-to-commit window probed. Returns how many probes were issued.
fn spawn_prober(
    controller: &ClusterController,
    ready: mpsc::Sender<()>,
    published: &Arc<AtomicBool>,
    epoch: usize,
    (old_epoch, old_top): (u64, Vec<(DocId, f64)>),
    (new_epoch, new_top): (u64, Vec<(DocId, f64)>),
) -> std::thread::JoinHandle<u64> {
    let controller_addr = controller.addr().to_string();
    let published = Arc::clone(published);
    let probe_fault = FaultPlan {
        drop_per_mille: 8,
        ..FaultPlan::quiet(SEED ^ 0xF00D ^ (epoch as u64) << 20)
    };
    std::thread::spawn(move || {
        let probe_client = ClusterClient::new(
            &controller_addr,
            ClientConfig {
                io_timeout: Duration::from_millis(500),
                fault: Some(probe_fault),
                ..ClientConfig::default()
            },
        );
        let mut probes = 0u64;
        while probes < PROBES_PER_SWAP || !published.load(Ordering::Acquire) {
            probes += 1;
            match probe_client.top_k(TOP_K) {
                Ok((epoch, top)) => {
                    assert!(
                        epoch == old_epoch || epoch == new_epoch,
                        "probe answered from epoch {epoch}, swap is {old_epoch}->{new_epoch}"
                    );
                    let want = if epoch == old_epoch {
                        &old_top
                    } else {
                        &new_top
                    };
                    assert_eq!(top.len(), want.len(), "torn probe at epoch {epoch}");
                    for (a, b) in top.iter().zip(want.iter()) {
                        assert_eq!(a.0, b.0, "torn probe at epoch {epoch}");
                        assert_eq!(a.1.to_bits(), b.1.to_bits(), "torn probe bits");
                    }
                }
                Err(err) => assert!(err.is_retriable(), "non-retriable probe error: {err}"),
            }
            // The publisher may have stopped waiting; that is its call.
            let _ = ready.send(());
        }
        probes
    })
}

#[test]
#[allow(clippy::too_many_lines)]
fn chaos_schedule_never_serves_a_wrong_epoch_through_kills_and_rejoins() {
    let base = campus();
    let mut engine = engine_for(&base);

    let map = ShardMap::balanced(&base, N_SHARDS).unwrap();
    let controller = ClusterController::start(
        map.clone(),
        ControllerConfig {
            heartbeat_interval: Duration::from_millis(50),
            // Generous miss budget: the ambient drop rates make a missed
            // Pong routine, and node 1's partition window blacks out
            // three pings back-to-back. Only sustained silence may evict.
            miss_limit: 6,
            io_timeout: Duration::from_millis(800),
            auto_failover: true,
            retry: RetryPolicy {
                base: Duration::from_millis(5),
                max_backoff: Duration::from_millis(100),
                max_attempts: 5,
                ..RetryPolicy::default()
            },
            fault: None,
        },
    )
    .unwrap();
    let mut nodes: Vec<ShardNode> = (0..N_NODES)
        .map(|i| ShardNode::start(controller.addr(), node_config(i, SEED)).unwrap())
        .collect();
    controller
        .wait_for_nodes(N_NODES, Duration::from_secs(10))
        .unwrap();

    let snapshot = engine.snapshot().unwrap();
    controller.publish(&snapshot).unwrap();
    let server = ShardedServer::start(map, &snapshot, ServeConfig { heap_k: 128 }).unwrap();
    let client = ClusterClient::new(
        controller.addr(),
        ClientConfig {
            io_timeout: Duration::from_millis(500),
            fault: Some(FaultPlan {
                drop_per_mille: 8,
                ..FaultPlan::quiet(SEED ^ 0xC11E)
            }),
            ..ClientConfig::default()
        },
    );
    let mut parity_rng = XorShift::new(SEED ^ 0x9E37_79B9);
    assert_parity(&client, &server, &snapshot, &mut parity_rng);

    let mut current = base;
    let mut total_probes = 0u64;
    // One node down at a time: its id, its shard set at time of death,
    // and the fault seed index its restart must reuse.
    let mut down: Option<(u64, BTreeSet<u64>, usize)> = None;
    for epoch in 0..EPOCHS {
        let delta = delta_for_epoch(&current, epoch);
        let (mutated, _) = current.apply(&delta).unwrap();
        engine.apply_delta(&delta).unwrap();
        current = mutated;
        let snapshot = engine.snapshot().unwrap();
        let mass: f64 = snapshot.scores().iter().sum();
        assert!(
            (mass - 1.0).abs() < 1e-9,
            "epoch {epoch}: rank mass {mass} is not conserved"
        );
        let new_epoch = snapshot.epoch();
        let want_top = engine.top_k(TOP_K).unwrap();
        let old_top = server.top_k(TOP_K).unwrap().1;

        let published = Arc::new(AtomicBool::new(false));
        let (ready, prober_ready) = mpsc::channel();
        let prober = spawn_prober(
            &controller,
            ready,
            &published,
            epoch,
            (new_epoch - 1, old_top),
            (new_epoch, want_top.clone()),
        );
        // A prober that panicked before its first answer hangs up; the
        // join below reports it.
        let _ = prober_ready.recv();
        let report = controller.publish(&snapshot).unwrap();
        published.store(true, Ordering::Release);
        total_probes += prober.join().expect("prober panicked (torn response?)");
        server.publish(&snapshot).unwrap();

        assert_eq!(report.rank_epoch, new_epoch, "publish rank epoch drift");
        // Bounded retries at the publish layer: the budget is 5, and a
        // run that eats it all is a storm, not chaos tolerance.
        assert!(report.attempts <= 5, "publish retry storm: {report:?}");
        assert_parity(&client, &server, &snapshot, &mut parity_rng);

        if let Some(kill) = KILL_AT.iter().position(|&k| k == epoch) {
            // Kill a node outright — no goodbye. Hammer the window until
            // the controller evicts and fails over, then verify the rank
            // epoch never moved.
            let victim = nodes.remove(0);
            let victim_id = victim.node_id();
            // The ownership read goes over the fault-injected wire, so a
            // single probe can come back empty without the victim owning
            // nothing — loop it like every other lossy stats read.
            let owned = {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let owned = shards_of(&controller, victim_id);
                    if !owned.is_empty() {
                        break owned;
                    }
                    assert!(Instant::now() < deadline, "victim owned nothing");
                    std::thread::sleep(Duration::from_millis(20));
                }
            };
            let (cepoch_before, rank_now) = controller.epochs();
            let killer = std::thread::spawn(move || victim.kill());
            let deadline = Instant::now() + Duration::from_secs(60);
            while controller.epochs().0 == cepoch_before || controller.n_nodes() != N_NODES - 1 {
                assert!(
                    Instant::now() < deadline,
                    "controller never evicted the dead node: n_nodes={}, epochs={:?}, stats={:?}",
                    controller.n_nodes(),
                    controller.epochs(),
                    controller.stats()
                );
                match client.top_k(TOP_K) {
                    Ok((e, top)) => {
                        assert_eq!(e, rank_now, "wrong-epoch response during failover");
                        assert_eq!(top.len(), want_top.len(), "torn failover response");
                    }
                    Err(err) => {
                        assert!(err.is_retriable(), "non-retriable during failover: {err}");
                    }
                }
                total_probes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            killer.join().expect("node kill panicked");
            assert_eq!(
                controller.epochs().1,
                rank_now,
                "failover changed the ranking"
            );
            down = Some((victim_id, owned, kill));
        }

        if REJOIN_AT.contains(&epoch) {
            // Restart the downed node under its prior id, with its prior
            // fault plan — recovery does not get a clean network. The
            // controller must re-admit it and hand back exactly the
            // shards it held when it died, without touching the ranking.
            let (victim_id, original, fault_index) = down.take().expect("no node is down");
            let (cepoch_before, rank_before) = controller.epochs();
            let returned = ShardNode::restart(
                controller.addr(),
                victim_id,
                node_config(fault_index, SEED ^ 0x7E57),
            )
            .unwrap();
            assert_eq!(returned.node_id(), victim_id, "rejoin changed the id");
            let deadline = Instant::now() + Duration::from_secs(60);
            while controller.epochs().0 <= cepoch_before
                || shards_of(&controller, victim_id) != original
            {
                assert!(
                    Instant::now() < deadline,
                    "rejoin never restored node {victim_id}'s shards {original:?}"
                );
                match client.top_k(TOP_K) {
                    Ok((e, _)) => assert_eq!(e, rank_before, "wrong-epoch response during rejoin"),
                    Err(err) => assert!(err.is_retriable(), "non-retriable during rejoin: {err}"),
                }
                total_probes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(
                controller.epochs().1,
                rank_before,
                "rejoin changed the ranking"
            );
            assert_eq!(controller.n_nodes(), N_NODES, "rejoin lost a node");
            nodes.push(returned);
        }
    }

    let stats = controller.stats();
    let client_stats = client.stats();
    assert!(down.is_none(), "a killed node never rejoined");
    assert_eq!(stats.rank_epoch, engine.epoch());
    assert_eq!(stats.nodes.len(), N_NODES);
    assert!(
        stats.evictions >= 2,
        "kills not counted: {}",
        stats.evictions
    );
    assert!(stats.rejoins >= 2, "rejoins not counted: {}", stats.rejoins);
    assert!(stats.failovers >= 2, "failovers not counted");
    // Bounded retries, fleet-wide: the ambient loss rates cost a small
    // constant factor, not a multiplicative storm.
    assert!(
        client_stats.gather_escalations <= total_probes / 4 + 8,
        "escalation storm: {} of {total_probes} probes",
        client_stats.gather_escalations,
    );

    drop(client);
    controller.shutdown();
    for node in nodes {
        node.kill();
    }
}
