//! End-to-end loopback cluster tests: a real controller, real `ShardNode`
//! processes-in-threads behind real TCP sockets, and a `ClusterClient`
//! whose answers must be **bitwise identical** to the in-process
//! `ShardedServer` at every published epoch — through churn republishes,
//! heartbeat-driven eviction, and a mid-run node kill.
//!
//! Everything binds 127.0.0.1:0 and spawns its own threads, so the suite
//! is `RUST_TEST_THREADS=1`-safe.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmm_cluster::{
    ClientConfig, ClusterClient, ClusterController, ClusterError, ControllerConfig, FaultPlan,
    FramedConn, Message, NodeConfig, ShardNode, WireCounters,
};
use lmm_engine::{BackendSpec, RankEngine, RankSnapshot};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ServeError, ShardQuery, ShardedServer, SwapGrade};

fn campus(docs: usize, sites: usize) -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = docs;
    cfg.n_sites = sites;
    cfg.spam_farms.clear();
    cfg.generate().unwrap()
}

fn engine_for(graph: &DocGraph) -> RankEngine {
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .threads(1)
        .build()
        .unwrap();
    engine.rank(graph).unwrap();
    engine
}

/// A churn delta: intra-site rewire every step, growth every 2nd step, a
/// cross-site link every 3rd — the same mix the serve-tier tests use, so
/// the cluster sees rebuild, refresh, and re-pin publish grades.
fn delta_for_step(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 5 + 1) % n_sites;
    while graph.site_size(SiteId(site)) < 3 {
        site = (site + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(site));
    delta.remove_link(docs[0], docs[1]).unwrap();
    delta.add_link(docs[1], docs[2]).unwrap();
    delta.add_link(docs[2], docs[0]).unwrap();
    if step.is_multiple_of(2) {
        let target = SiteId((step * 7 + 2) % n_sites);
        let root = graph.docs_of_site(target)[0];
        let p = delta
            .add_page(target, &format!("http://cluster-grow-{step}.page/"))
            .unwrap();
        delta.add_link(root, p).unwrap();
        delta.add_link(p, root).unwrap();
    }
    if step.is_multiple_of(3) {
        let a = graph.docs_of_site(SiteId((step * 3 + 4) % n_sites))[0];
        let b = graph.docs_of_site(SiteId((step * 11 + 7) % n_sites))[0];
        delta.add_link(a, b).unwrap();
    }
    delta
}

/// A controller whose monitor never beats within a test's lifetime, so
/// the test thread is the only user of the controller's node links.
fn unmonitored_controller() -> ControllerConfig {
    ControllerConfig {
        heartbeat_interval: Duration::from_secs(600),
        auto_failover: false,
        ..fast_controller()
    }
}

/// The engine's snapshot now, then one more after each of `steps` churn
/// deltas — ranked up front so a test can publish them back to back.
fn snapshot_series(docs: usize, sites: usize, steps: usize) -> (DocGraph, Vec<RankSnapshot>) {
    let mut graph = campus(docs, sites);
    let mut engine = engine_for(&graph);
    let mut series = vec![engine.snapshot().unwrap()];
    for step in 0..steps {
        let delta = delta_for_step(&graph, step);
        let (mutated, _) = graph.apply(&delta).unwrap();
        engine.apply_delta(&delta).unwrap();
        graph = mutated;
        series.push(engine.snapshot().unwrap());
    }
    (graph, series)
}

fn fast_controller() -> ControllerConfig {
    ControllerConfig {
        heartbeat_interval: Duration::from_millis(40),
        miss_limit: 2,
        io_timeout: Duration::from_secs(2),
        auto_failover: true,
        retry: lmm_cluster::RetryPolicy {
            base: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            max_attempts: 5,
            ..lmm_cluster::RetryPolicy::default()
        },
        fault: None,
    }
}

/// Assert the over-the-wire answers are bit-equal to the in-process
/// tier's for the whole query surface, at the same rank epoch.
fn assert_parity(
    client: &ClusterClient,
    server: &ShardedServer,
    snapshot: &RankSnapshot,
    graph_docs: usize,
    graph_sites: usize,
) {
    let want_epoch = snapshot.epoch();

    let (le, local_top) = server.top_k(10).unwrap();
    let (re, remote_top) = client.top_k(10).unwrap();
    assert_eq!((le, re), (want_epoch, want_epoch));
    assert_eq!(local_top.len(), remote_top.len());
    for (l, r) in local_top.iter().zip(remote_top.iter()) {
        assert_eq!(l.0, r.0);
        assert_eq!(
            l.1.to_bits(),
            r.1.to_bits(),
            "top-k score drift at {:?}",
            l.0
        );
    }

    let batch: Vec<DocId> = (0..graph_docs.min(64)).map(DocId).collect();
    let (le, local_scores) = server.score_batch(&batch).unwrap();
    let (re, remote_scores) = client.score_batch(&batch).unwrap();
    assert_eq!((le, re), (want_epoch, want_epoch));
    for (i, (l, r)) in local_scores.iter().zip(remote_scores.iter()).enumerate() {
        assert_eq!(l.to_bits(), r.to_bits(), "score drift at doc {i}");
    }

    for site in 0..graph_sites {
        let local = server.top_k_for_site(SiteId(site), 5);
        let remote = client.top_k_for_site(SiteId(site), 5);
        match (local, remote) {
            (Ok((le, l)), Ok((re, r))) => {
                assert_eq!((le, re), (want_epoch, want_epoch));
                assert_eq!(l.len(), r.len(), "site {site} length drift");
                for (a, b) in l.iter().zip(r.iter()) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            (Err(_), Err(_)) => {}
            (l, r) => panic!("site {site}: local {l:?} vs remote {r:?}"),
        }
    }

    let (a, b) = (DocId(0), DocId(graph_docs / 2));
    let (le, local_ord) = server.compare(a, b).unwrap();
    let (re, remote_ord) = client.compare(a, b).unwrap();
    assert_eq!((le, re), (want_epoch, want_epoch));
    assert_eq!(local_ord, remote_ord);
}

#[test]
fn cluster_matches_in_process_tier_across_churn() {
    let mut graph = campus(400, 8);
    let mut engine = engine_for(&graph);
    let map = ShardMap::balanced(&graph, 4).unwrap();

    let controller = ClusterController::start(map.clone(), fast_controller()).unwrap();
    let nodes: Vec<ShardNode> = (0..2)
        .map(|_| ShardNode::start(controller.addr(), NodeConfig::default()).unwrap())
        .collect();
    controller
        .wait_for_nodes(2, Duration::from_secs(5))
        .unwrap();

    // Before the first publish the cluster must say so, typed.
    let client = ClusterClient::new(controller.addr(), ClientConfig::default());
    assert!(matches!(client.top_k(5), Err(ClusterError::NotPublished)));

    let snapshot = engine.snapshot().unwrap();
    let report = controller.publish(&snapshot).unwrap();
    assert_eq!(report.rank_epoch, snapshot.epoch());
    assert_eq!(report.nodes, 2);
    assert!(!report.noop);

    let server = ShardedServer::start(map, &snapshot, ServeConfig { heap_k: 64 }).unwrap();

    assert_parity(&client, &server, &snapshot, graph.n_docs(), graph.n_sites());

    // Re-publishing the identical rank epoch is an acknowledged no-op.
    assert!(controller.publish(&snapshot).unwrap().noop);

    // Churn: publish to both tiers, compare after every flip. The last
    // step also retires a whole site and shrinks another, so removals
    // cross the wire too.
    let retired = SiteId(graph.n_sites() - 1);
    for step in 0..4 {
        let mut delta = delta_for_step(&graph, step);
        if step == 3 {
            delta.remove_site(retired).unwrap();
            let shrunk = graph.docs_of_site(SiteId(retired.index() - 1));
            delta.remove_page(shrunk[shrunk.len() - 1]).unwrap();
        }
        let (mutated, _) = graph.apply(&delta).unwrap();
        engine.apply_delta(&delta).unwrap();
        graph = mutated;

        let snapshot = engine.snapshot().unwrap();
        let report = controller.publish(&snapshot).unwrap();
        assert_eq!(report.rank_epoch, snapshot.epoch());
        server.publish(&snapshot).unwrap();
        assert_parity(&client, &server, &snapshot, graph.n_docs(), graph.n_sites());
    }
    assert!(matches!(
        server.top_k_for_site(retired, 5),
        Err(ServeError::TombstonedSite { .. })
    ));
    assert!(matches!(
        client.top_k_for_site(retired, 5),
        Err(ClusterError::Serve(ServeError::TombstonedSite { .. }))
    ));

    // Trait object surface: the cluster client is a ShardQuery tier too.
    let tier: &dyn ShardQuery<Error = ClusterError> = &client;
    assert_eq!(tier.serving_epoch(), engine.epoch());

    // Telemetry made it across the wire.
    let stats = controller.stats();
    assert_eq!(stats.rank_epoch, engine.epoch());
    assert_eq!(stats.nodes.len(), 2);
    assert!(stats.publishes >= 5);
    assert!(stats.doc_skew >= 1.0);
    let wired: Vec<_> = stats.nodes.iter().filter_map(|n| n.wire.as_ref()).collect();
    assert_eq!(wired.len(), 2);
    assert!(wired.iter().all(|w| w.commits >= 5 && w.bytes_recv > 0));
    let served: u64 = wired.iter().map(|w| w.queries).sum();
    assert!(served > 0, "nodes never saw a query");

    drop(client);
    controller.shutdown();
    for node in nodes {
        node.kill();
    }
}

#[test]
fn node_kill_evicts_fails_over_and_serving_survives() {
    let graph = campus(300, 8);
    let engine = engine_for(&graph);
    let map = ShardMap::balanced(&graph, 8).unwrap();

    let controller = ClusterController::start(map.clone(), fast_controller()).unwrap();
    let mut nodes: Vec<ShardNode> = (0..3)
        .map(|_| ShardNode::start(controller.addr(), NodeConfig::default()).unwrap())
        .collect();
    controller
        .wait_for_nodes(3, Duration::from_secs(5))
        .unwrap();

    let snapshot = engine.snapshot().unwrap();
    controller.publish(&snapshot).unwrap();
    let (cepoch_before, rank_before) = controller.epochs();

    let server = ShardedServer::start(map, &snapshot, ServeConfig { heap_k: 64 }).unwrap();
    let client = ClusterClient::new(controller.addr(), ClientConfig::default());
    assert_parity(&client, &server, &snapshot, graph.n_docs(), graph.n_sites());

    // Kill a node that provably owns shards, then hammer queries through
    // the eviction window: every response is either correct at the pinned
    // rank epoch or a *retriable* error — never wrong-epoch data.
    nodes.remove(0).kill();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut survived_early_queries = 0u64;
    while controller.epochs().0 == cepoch_before {
        assert!(
            Instant::now() < deadline,
            "controller never evicted the dead node"
        );
        match client.top_k(5) {
            Ok((epoch, top)) => {
                assert_eq!(epoch, rank_before, "wrong-epoch data during failover");
                let (_, want) = server.top_k(5).unwrap();
                assert_eq!(top.len(), want.len());
                for (a, b) in top.iter().zip(want.iter()) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
                survived_early_queries += 1;
            }
            Err(err) => assert!(err.is_retriable(), "non-retriable during failover: {err}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Failover bumped the *cluster* epoch but re-published the *same*
    // pinned rank snapshot — the ranking the world sees is unchanged.
    let (cepoch_after, rank_after) = controller.epochs();
    assert!(cepoch_after > cepoch_before);
    assert_eq!(rank_after, rank_before);
    assert_eq!(controller.n_nodes(), 2);

    // Full surface parity again, now served entirely by the survivors.
    assert_parity(&client, &server, &snapshot, graph.n_docs(), graph.n_sites());

    let stats = controller.stats();
    assert!(stats.evictions >= 1, "eviction not counted");
    assert!(stats.failovers >= 1, "failover not counted");
    assert!(stats.missed_heartbeats >= 1);
    assert_eq!(stats.nodes.len(), 2);
    // All 8 shard ranges are still owned: a full top-k gather succeeds
    // and covers every document.
    let all: Vec<DocId> = (0..graph.n_docs()).map(DocId).collect();
    let (epoch, scores) = client.score_batch(&all).unwrap();
    assert_eq!(epoch, rank_before);
    assert_eq!(scores.len(), all.len());
    let _ = survived_early_queries; // informational; may be 0 on slow CI

    drop(client);
    controller.shutdown();
    for node in nodes {
        node.kill();
    }
}

/// The shard ids `node` currently serves, read over the wire.
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

#[test]
fn killed_node_rejoins_and_serves_its_original_shards() {
    let graph = campus(300, 8);
    let engine = engine_for(&graph);
    let map = ShardMap::balanced(&graph, 8).unwrap();

    let controller = ClusterController::start(map, fast_controller()).unwrap();
    let mut nodes: Vec<ShardNode> = (0..3)
        .map(|_| ShardNode::start(controller.addr(), NodeConfig::default()).unwrap())
        .collect();
    controller
        .wait_for_nodes(3, Duration::from_secs(5))
        .unwrap();

    let snapshot = engine.snapshot().unwrap();
    controller.publish(&snapshot).unwrap();
    let rank_epoch = snapshot.epoch();

    let victim = nodes.remove(0);
    let victim_id = victim.node_id();
    let original = shards_of(&controller, victim_id);
    assert!(!original.is_empty(), "victim owned no shards");

    let client = ClusterClient::new(controller.addr(), ClientConfig::default());

    // Kill it: heartbeats evict, failover republishes onto survivors.
    let cepoch0 = controller.epochs().0;
    victim.kill();
    let deadline = Instant::now() + Duration::from_secs(10);
    while controller.epochs().0 == cepoch0 || controller.n_nodes() != 2 {
        assert!(Instant::now() < deadline, "failover never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (cepoch1, rank1) = controller.epochs();
    assert_eq!(rank1, rank_epoch, "failover touched the rank epoch");

    // Warm the client's placement cache at the failover epoch so the
    // rejoin republish below provably invalidates it via `NotOwner`.
    client.top_k(5).unwrap();

    // Restart under the prior id: the controller re-admits it and the
    // catch-up republish hands its original shards back.
    let returned = ShardNode::restart(controller.addr(), victim_id, NodeConfig::default()).unwrap();
    assert_eq!(returned.node_id(), victim_id);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(
            Instant::now() < deadline,
            "rejoin catch-up never restored the original shard range"
        );
        if controller.epochs().0 > cepoch1 && shards_of(&controller, victim_id) == original {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (_, rank2) = controller.epochs();
    assert_eq!(rank2, rank_epoch, "rejoin touched the rank epoch");
    assert_eq!(controller.n_nodes(), 3);

    // The full surface still answers, at the unchanged rank epoch, with
    // the returned node serving its shards — and the client crossed the
    // move by evicting its stale placement, not by erroring.
    let all: Vec<DocId> = (0..graph.n_docs()).map(DocId).collect();
    let (epoch, scores) = client.score_batch(&all).unwrap();
    assert_eq!(epoch, rank_epoch);
    assert_eq!(scores.len(), all.len());
    assert!(returned.local_stats().queries > 0 || client.top_k(5).is_ok());
    assert!(
        client.stats().placement_evictions >= 1,
        "stale placement was never evicted: {:?}",
        client.stats()
    );
    let stats = controller.stats();
    assert!(stats.rejoins >= 1, "rejoin not counted");
    assert!(stats.evictions >= 1, "eviction not counted");

    drop(client);
    controller.shutdown();
    nodes.push(returned);
    for node in nodes {
        node.kill();
    }
}

#[test]
fn mid_publish_death_aborts_survivors_and_dead_epoch_never_serves() {
    let mut graph = campus(200, 6);
    let mut engine = engine_for(&graph);
    let map = ShardMap::balanced(&graph, 6).unwrap();

    // Slow heartbeats + no auto-failover: the dead node stays registered
    // until the publish itself trips over it, which is the scenario under
    // test (death in the stage/commit gap, not death noticed beforehand).
    let cfg = ControllerConfig {
        heartbeat_interval: Duration::from_millis(500),
        miss_limit: 20,
        auto_failover: false,
        ..fast_controller()
    };
    let controller = ClusterController::start(map, cfg).unwrap();
    let survivor = ShardNode::start(controller.addr(), NodeConfig::default()).unwrap();
    let casualty = ShardNode::start(controller.addr(), NodeConfig::default()).unwrap();
    controller
        .wait_for_nodes(2, Duration::from_secs(5))
        .unwrap();

    let snap1 = engine.snapshot().unwrap();
    controller.publish(&snap1).unwrap();
    let (cepoch, _) = controller.epochs();

    // Kill one node, then publish *new* data: attempt one stages on the
    // survivor, fails on the casualty, aborts the survivor's staged set,
    // and retries — burning the attempt's epoch forever.
    casualty.kill();
    let delta = delta_for_step(&graph, 1);
    let (mutated, _) = graph.apply(&delta).unwrap();
    engine.apply_delta(&delta).unwrap();
    graph = mutated;
    let snap2 = engine.snapshot().unwrap();
    let report = controller.publish(&snap2).unwrap();
    assert!(report.attempts >= 2, "publish never saw the death");

    let aborted_epoch = cepoch + 1;
    let (cepoch_after, rank_after) = controller.epochs();
    assert!(cepoch_after > aborted_epoch, "the aborted epoch was reused");
    assert_eq!(rank_after, snap2.epoch());

    // The survivor recorded the abort and serves only the final epoch.
    let stats = survivor.local_stats();
    assert!(stats.aborted >= 1, "survivor never saw the abort");
    assert_eq!(stats.epoch, cepoch_after);
    assert!(controller.stats().publish_aborts >= 1);

    // And it refuses the dead epoch outright — a resurrected (or
    // confused) controller cannot stage or commit it later.
    let mut conn = FramedConn::connect(
        survivor.addr(),
        Duration::from_secs(2),
        Arc::new(WireCounters::default()),
    )
    .unwrap();
    let reply = conn
        .call(&Message::Commit {
            epoch: aborted_epoch,
            rank_epoch: snap2.epoch(),
        })
        .unwrap();
    assert!(
        matches!(reply, Message::Bad { .. }),
        "dead epoch committed: {reply:?}"
    );
    let reply = conn
        .call(&Message::Stage {
            epoch: aborted_epoch,
            shard: 0,
            grade: SwapGrade::Repin,
            segment: None,
        })
        .unwrap();
    assert!(
        matches!(reply, Message::Bad { .. }),
        "dead epoch restaged: {reply:?}"
    );
    let _ = graph;

    controller.shutdown();
    survivor.kill();
}

#[test]
fn exhausted_publish_burns_its_epochs_and_survivors_stay_admitted() {
    let mut graph = campus(200, 6);
    let mut engine = engine_for(&graph);
    let map = ShardMap::balanced(&graph, 6).unwrap();

    // Zero publish retries and a sleepy failure detector: the first
    // publish after the kill must *exhaust* its budget (aborting the
    // survivor's staged epoch on the way out) rather than retry to
    // success, and nothing in the background may clean up after it.
    let cfg = ControllerConfig {
        heartbeat_interval: Duration::from_millis(500),
        miss_limit: 20,
        auto_failover: false,
        retry: lmm_cluster::RetryPolicy {
            max_attempts: 0,
            ..lmm_cluster::RetryPolicy::default()
        },
        ..fast_controller()
    };
    let controller = ClusterController::start(map, cfg).unwrap();
    let survivor = ShardNode::start(controller.addr(), NodeConfig::default()).unwrap();
    let casualty = ShardNode::start(controller.addr(), NodeConfig::default()).unwrap();
    controller
        .wait_for_nodes(2, Duration::from_secs(5))
        .unwrap();

    let snap1 = engine.snapshot().unwrap();
    controller.publish(&snap1).unwrap();

    casualty.kill();
    let delta = delta_for_step(&graph, 1);
    let (mutated, _) = graph.apply(&delta).unwrap();
    engine.apply_delta(&delta).unwrap();
    graph = mutated;
    let snap2 = engine.snapshot().unwrap();
    match controller.publish(&snap2) {
        Err(ClusterError::RetryExhausted { op: "publish", .. }) => {}
        other => panic!("expected publish retry exhaustion, got {other:?}"),
    }
    assert!(
        survivor.local_stats().aborted >= 1,
        "survivor never saw the abort"
    );
    assert_eq!(controller.n_nodes(), 1, "survivor was evicted");

    // The burnt attempt epoch is persisted in controller state: the next
    // publish must start above the survivor's `last_aborted` watermark,
    // succeed, and keep the survivor registered — not mistake the
    // survivor's "epoch was aborted" refusal for node death and brick
    // the whole registry.
    let report = controller.publish(&snap2).unwrap();
    assert_eq!(report.rank_epoch, snap2.epoch());
    assert_eq!(report.nodes, 1);
    assert_eq!(controller.n_nodes(), 1, "survivor was evicted on retry");
    assert_eq!(survivor.epochs(), (controller.epochs().0, snap2.epoch()));

    // And the cluster actually serves the new epoch end to end.
    let client = ClusterClient::new(controller.addr(), ClientConfig::default());
    let (epoch, top) = client.top_k(5).unwrap();
    assert_eq!(epoch, snap2.epoch());
    assert!(!top.is_empty());
    let _ = graph;

    drop(client);
    controller.shutdown();
    survivor.kill();
}

#[test]
fn rejoin_with_a_live_node_id_is_refused() {
    let graph = campus(120, 4);
    let map = ShardMap::balanced(&graph, 2).unwrap();
    let controller = ClusterController::start(map, fast_controller()).unwrap();
    let node = ShardNode::start(controller.addr(), NodeConfig::default()).unwrap();
    controller
        .wait_for_nodes(1, Duration::from_secs(5))
        .unwrap();
    let id = node.node_id();
    let addr_before = controller.stats().nodes[0].addr.clone();

    // A spurious Rejoin claiming a registered-and-answering node's id
    // from some other address must not hijack it.
    let mut conn = FramedConn::connect(
        controller.addr(),
        Duration::from_secs(2),
        Arc::new(WireCounters::default()),
    )
    .unwrap();
    let reply = conn
        .call(&Message::Rejoin {
            node: id,
            addr: "127.0.0.1:1".into(),
        })
        .unwrap();
    assert!(
        matches!(reply, Message::Bad { .. }),
        "live id hijacked: {reply:?}"
    );
    let stats = controller.stats();
    assert_eq!(stats.rejoins_rejected, 1, "refusal not counted");
    assert_eq!(stats.rejoins, 0);
    assert_eq!(controller.n_nodes(), 1);
    assert_eq!(
        stats.nodes[0].addr, addr_before,
        "live node's address was overwritten"
    );

    // A re-sent Rejoin from the node's *own* address (a retry after a
    // lost reply) is idempotent, not a hijack.
    let reply = conn
        .call(&Message::Rejoin {
            node: id,
            addr: addr_before.clone(),
        })
        .unwrap();
    assert!(
        matches!(reply, Message::Registered { node } if node == id),
        "idempotent rejoin refused: {reply:?}"
    );
    assert_eq!(controller.n_nodes(), 1);

    controller.shutdown();
    node.kill();
}

#[test]
fn staged_epochs_expire_by_ttl_when_the_commit_never_arrives() {
    let graph = campus(120, 4);
    let map = ShardMap::balanced(&graph, 2).unwrap();
    let controller = ClusterController::start(map, fast_controller()).unwrap();
    let node = ShardNode::start(
        controller.addr(),
        NodeConfig {
            stage_ttl: Duration::from_millis(50),
            ..NodeConfig::default()
        },
    )
    .unwrap();

    // Pose as a publishing controller that dies in the stage/commit gap.
    let mut conn = FramedConn::connect(
        node.addr(),
        Duration::from_secs(2),
        Arc::new(WireCounters::default()),
    )
    .unwrap();
    let stage = |conn: &mut FramedConn, epoch: u64| {
        conn.call(&Message::Stage {
            epoch,
            shard: 0,
            grade: SwapGrade::Repin,
            segment: None,
        })
        .unwrap()
    };
    assert!(matches!(stage(&mut conn, 7), Message::Ack { epoch: 7 }));
    std::thread::sleep(Duration::from_millis(120));
    // The set outlived its TTL: a late commit must be refused.
    let reply = conn
        .call(&Message::Commit {
            epoch: 7,
            rank_epoch: 1,
        })
        .unwrap();
    assert!(
        matches!(reply, Message::Bad { .. }),
        "expired stage committed: {reply:?}"
    );
    assert!(node.local_stats().staged_expired >= 1);

    // Heartbeats double as the GC tick: an abandoned set is collected
    // even if no commit (or further stage) ever arrives.
    assert!(matches!(stage(&mut conn, 9), Message::Ack { epoch: 9 }));
    std::thread::sleep(Duration::from_millis(120));
    let reply = conn.call(&Message::Ping { seq: 1 }).unwrap();
    assert!(matches!(reply, Message::Pong { .. }));
    assert!(node.local_stats().staged_expired >= 2);

    // And the node's own idle-poll tick collects with *no* inbound
    // traffic at all — a controller that dies right after staging (so no
    // heartbeats ever arrive again) must not pin the segments in node
    // memory indefinitely. `local_stats` reads in-process, not over the
    // wire, so nothing below touches the socket.
    assert!(matches!(stage(&mut conn, 11), Message::Ack { epoch: 11 }));
    drop(conn);
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.local_stats().staged_expired < 3 {
        assert!(
            Instant::now() < deadline,
            "idle-poll tick never reclaimed the orphaned staged set"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    controller.shutdown();
    node.kill();
}

#[test]
fn slow_but_alive_node_is_not_spuriously_evicted() {
    let graph = campus(120, 4);
    let map = ShardMap::balanced(&graph, 2).unwrap();
    let cfg = ControllerConfig {
        heartbeat_interval: Duration::from_millis(40),
        miss_limit: 2,
        io_timeout: Duration::from_millis(500),
        ..fast_controller()
    };
    let controller = ClusterController::start(map, cfg).unwrap();
    // Every frame this node touches is delayed well past the heartbeat
    // interval but well under `io_timeout`: slow, never silent. The
    // failure detector must tell the difference.
    let node = ShardNode::start(
        controller.addr(),
        NodeConfig {
            fault: Some(FaultPlan {
                delay_per_mille: 1000,
                recv_delay_per_mille: 1000,
                delay: Duration::from_millis(60),
                ..FaultPlan::quiet(0xBEA7)
            }),
            ..NodeConfig::default()
        },
    )
    .unwrap();
    controller
        .wait_for_nodes(1, Duration::from_secs(5))
        .unwrap();
    // Over ~17 heartbeat intervals every probe is slow; none may be
    // counted as death.
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(controller.n_nodes(), 1, "slow node was evicted");
    let stats = controller.stats();
    assert_eq!(stats.evictions, 0, "slow node was evicted");

    controller.shutdown();
    node.kill();
}

#[test]
fn stale_publish_is_rejected_and_newer_snapshot_wins() {
    let mut graph = campus(200, 6);
    let mut engine = engine_for(&graph);
    let map = ShardMap::balanced(&graph, 3).unwrap();

    let controller = ClusterController::start(map, fast_controller()).unwrap();
    let node = ShardNode::start(controller.addr(), NodeConfig::default()).unwrap();
    controller
        .wait_for_nodes(1, Duration::from_secs(5))
        .unwrap();

    let old = engine.snapshot().unwrap();
    let delta = delta_for_step(&graph, 1);
    let (mutated, _) = graph.apply(&delta).unwrap();
    engine.apply_delta(&delta).unwrap();
    graph = mutated;
    let new = engine.snapshot().unwrap();

    controller.publish(&new).unwrap();
    match controller.publish(&old) {
        Err(ClusterError::StalePublish { published, pinned }) => {
            assert_eq!(published, old.epoch());
            assert_eq!(pinned, new.epoch());
        }
        other => panic!("stale publish accepted: {other:?}"),
    }
    assert_eq!(controller.epochs().1, new.epoch());
    let _ = graph;

    controller.shutdown();
    node.kill();
}

#[test]
fn steady_cluster_dials_each_node_once() {
    let (graph, series) = snapshot_series(200, 6, 10);
    let map = ShardMap::balanced(&graph, 4).unwrap();
    let interval = Duration::from_millis(200);
    let started = Instant::now();
    let controller = ClusterController::start(
        map,
        ControllerConfig {
            heartbeat_interval: interval,
            ..fast_controller()
        },
    )
    .unwrap();
    let nodes: Vec<ShardNode> = (0..2)
        .map(|_| ShardNode::start(controller.addr(), NodeConfig::default()).unwrap())
        .collect();
    controller
        .wait_for_nodes(2, Duration::from_secs(5))
        .unwrap();

    // A warm-up publish and ten more, each staging and committing on
    // both nodes: 44 node conversations at the least.
    for snapshot in &series {
        let report = controller.publish(snapshot).unwrap();
        assert_eq!(report.attempts, 1);
    }
    // Finished inside the first heartbeat interval: no beat ran beside a
    // publish, so no link was ever busy when somebody wanted it.
    let undisturbed = started.elapsed() < interval;
    // Then heartbeats alone, for at least five intervals.
    std::thread::sleep(interval * 6);

    let stats = controller.stats();
    assert_eq!(stats.publishes, 11);
    assert_eq!(stats.missed_heartbeats, 0);
    assert!(
        stats.nodes.iter().all(|n| n.rtt_us > 0),
        "no heartbeat ever completed: {stats:?}"
    );
    if undisturbed {
        assert_eq!(stats.node_dials, 2, "a steady cluster re-dialed");
    } else {
        // A slow host let a beat overlap a publish: that beat opened a
        // second link rather than wait, and both links are kept.
        assert!((2..=4).contains(&stats.node_dials), "{stats:?}");
    }

    controller.shutdown();
    for node in nodes {
        node.kill();
    }
}

#[test]
fn severed_link_costs_a_redial_not_a_retry() {
    let (graph, series) = snapshot_series(200, 6, 1);
    let map = ShardMap::balanced(&graph, 4).unwrap();
    let controller = ClusterController::start(map, unmonitored_controller()).unwrap();
    let nodes: Vec<ShardNode> = (0..2)
        .map(|_| ShardNode::start(controller.addr(), NodeConfig::default()).unwrap())
        .collect();
    controller
        .wait_for_nodes(2, Duration::from_secs(5))
        .unwrap();
    controller.publish(&series[0]).unwrap();
    let client = ClusterClient::new(controller.addr(), ClientConfig::default());
    client.top_k(5).unwrap();
    assert_eq!(controller.stats().node_dials, 2);

    // One node closes every link it accepted — the controller's and the
    // client's — while both sit parked. Neither side may notice more
    // than a reconnect.
    nodes[0].drop_connections();
    let report = controller.publish(&series[1]).unwrap();
    assert_eq!(report.attempts, 1, "a stale link cost a publish retry");
    assert_eq!(report.nodes, 2);
    let stats = controller.stats();
    assert_eq!(stats.node_dials, 3);
    assert_eq!((stats.evictions, stats.publish_aborts), (0, 0));

    let (epoch, top) = client.top_k(5).unwrap();
    assert_eq!(epoch, series[1].epoch());
    assert_eq!(top.len(), 5);
    let seen = client.stats();
    assert_eq!(seen.reconnects, 1, "{seen:?}");
    assert_eq!(
        (seen.node_failures, seen.gather_retries),
        (0, 0),
        "{seen:?}"
    );

    drop(client);
    controller.shutdown();
    for node in nodes {
        node.kill();
    }
}

#[test]
fn heartbeat_does_not_queue_behind_a_publish_in_flight() {
    let (graph, series) = snapshot_series(120, 4, 0);
    let map = ShardMap::balanced(&graph, 2).unwrap();
    let cfg = ControllerConfig {
        heartbeat_interval: Duration::from_millis(40),
        miss_limit: 2,
        io_timeout: Duration::from_millis(500),
        ..fast_controller()
    };
    let controller = ClusterController::start(map, cfg).unwrap();
    // Every frame the node touches takes 60 ms each way, so the publish
    // below keeps the node's link busy for three ~120 ms conversations
    // while the monitor wants it every 40 ms.
    let node = ShardNode::start(
        controller.addr(),
        NodeConfig {
            fault: Some(FaultPlan {
                delay_per_mille: 1000,
                recv_delay_per_mille: 1000,
                delay: Duration::from_millis(60),
                ..FaultPlan::quiet(0xBEA7)
            }),
            ..NodeConfig::default()
        },
    )
    .unwrap();
    controller
        .wait_for_nodes(1, Duration::from_secs(5))
        .unwrap();
    let report = controller.publish(&series[0]).unwrap();
    assert_eq!(report.attempts, 1);

    let stats = controller.stats();
    // The beats that found the link busy went out on a second one …
    assert!(
        stats.node_dials >= 2,
        "a beat waited for the link: {stats:?}"
    );
    // … and none of them was late enough to count against the node.
    assert_eq!(stats.missed_heartbeats, 0);
    assert_eq!(stats.nodes[0].missed, 0);
    assert_eq!(stats.evictions, 0);
    assert_eq!(node.epochs(), controller.epochs());

    controller.shutdown();
    node.kill();
}

#[test]
fn publishes_ride_out_disconnects_on_new_connections() {
    let (graph, series) = snapshot_series(200, 6, 8);
    let map = ShardMap::balanced(&graph, 4).unwrap();
    let controller = ClusterController::start(
        map,
        ControllerConfig {
            fault: Some(FaultPlan {
                disconnect_per_mille: 100,
                ..FaultPlan::quiet(0xD15C)
            }),
            ..unmonitored_controller()
        },
    )
    .unwrap();
    let nodes: Vec<ShardNode> = (0..2)
        .map(|_| ShardNode::start(controller.addr(), NodeConfig::default()).unwrap())
        .collect();
    controller
        .wait_for_nodes(2, Duration::from_secs(5))
        .unwrap();

    // One send in ten tears its link down. A torn link is never parked
    // again: the call moves to a new physical connection (with its own
    // fault schedule), so no node is ever blamed and no publish retried.
    for snapshot in &series {
        let report = controller.publish(snapshot).unwrap();
        assert_eq!((report.attempts, report.nodes), (1, 2), "{report:?}");
    }
    let stats = controller.stats();
    assert!(
        stats.node_dials > 2,
        "no disconnect was injected: {stats:?}"
    );
    assert_eq!((stats.evictions, stats.publish_aborts), (0, 0));
    for node in &nodes {
        assert_eq!(node.epochs(), controller.epochs());
    }

    controller.shutdown();
    for node in nodes {
        node.kill();
    }
}

#[test]
fn kill_with_an_idle_inbound_link_returns_promptly() {
    let graph = campus(120, 4);
    let map = ShardMap::balanced(&graph, 2).unwrap();
    let controller = ClusterController::start(map, unmonitored_controller()).unwrap();
    let node = ShardNode::start(controller.addr(), NodeConfig::default()).unwrap();
    // A peer that keeps its link open and idle, as the controller's pool
    // and every client do: the node's thread for it sits in a read.
    let mut conn = FramedConn::connect(
        node.addr(),
        Duration::from_secs(2),
        Arc::new(WireCounters::default()),
    )
    .unwrap();
    let reply = conn.call(&Message::Ping { seq: 1 }).unwrap();
    assert!(matches!(reply, Message::Pong { .. }));

    let started = Instant::now();
    node.kill();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "kill waited {took:?} on an idle link"
    );
    assert!(conn.call(&Message::Ping { seq: 2 }).is_err());

    let started = Instant::now();
    controller.shutdown();
    assert!(started.elapsed() < Duration::from_millis(500));
}
