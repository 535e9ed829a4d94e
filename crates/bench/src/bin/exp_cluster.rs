//! Experiment PR6: the remote shard fabric under churn, over real sockets.
//!
//! Stands up a full loopback cluster — one [`ClusterController`], four
//! [`ShardNode`]s owning eight shard ranges behind real `TcpListener`s,
//! and a [`ClusterClient`] — next to the in-process [`ShardedServer`]
//! serving the *same* snapshots, then drives both through a churn stream
//! of structural deltas (local rewires, site-layer-staling cross links,
//! and page removals, so publishes exercise every swap grade). Midway
//! through, one node is killed outright. Three properties are asserted,
//! not just measured:
//!
//! * **bitwise parity** — at every published epoch the cluster's answers
//!   (`top_k`, `score_batch`, `top_k_for_site`, `compare`) equal the
//!   in-process tier's *bit for bit*: scores cross the wire as IEEE-754
//!   bit patterns, so distribution must change nothing;
//! * **epoch consistency** — probes issued *during* every over-the-wire
//!   publish answer from the pre-swap or post-swap epoch, never a mix;
//!   during the node-kill window every response is either correct at the
//!   pinned rank epoch or a *retriable* error — zero wrong-epoch
//!   responses, counted and asserted;
//! * **failover** — the controller evicts the dead node on missed
//!   heartbeats, reassigns its shard ranges to survivors, rebuilds them
//!   from the pinned snapshot, and bumps the cluster epoch; the churn
//!   stream then continues on the surviving nodes.
//!
//! Writes `BENCH_pr6.json` (`--smoke` writes `BENCH_pr6_smoke.json` for
//! CI so the committed measurements are never clobbered).
//!
//! Run: `cargo run --release -p lmm-bench --bin exp_cluster`

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lmm_bench::{section, timed};
use lmm_cluster::{
    ClientConfig, ClusterClient, ClusterController, ClusterPublishReport, ControllerConfig,
    NodeConfig, ShardNode,
};
use lmm_engine::{BackendSpec, RankEngine, RankSnapshot};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

const OUT_PATH: &str = "BENCH_pr6.json";
const SMOKE_OUT_PATH: &str = "BENCH_pr6_smoke.json";
const N_NODES: usize = 4;
const N_SHARDS: usize = 8;
const TOP_K: usize = 10;
const PROBES_PER_SWAP: usize = 25;

struct StepRecord {
    step: usize,
    kind: &'static str,
    cepoch: u64,
    rank_epoch: u64,
    publish: Duration,
    report: ClusterPublishReport,
    probe_old: usize,
    probe_new: usize,
    probe_retriable: usize,
}

struct FailoverRecord {
    after_step: usize,
    wall: Duration,
    cepoch_before: u64,
    cepoch_after: u64,
    queries_during: u64,
    retriable_during: u64,
    wrong_epoch: u64,
}

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

/// Intra-site rewire plus growth: only the touched shards rebuild.
fn local_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 7 + 3) % n_sites;
    while graph.site_size(SiteId(site)) < 3 {
        site = (site + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(site));
    delta.remove_link(docs[0], docs[1]).expect("in range");
    delta.add_link(docs[1], docs[2]).expect("in range");
    delta.add_link(docs[2], docs[0]).expect("in range");
    let mut target = (step * 5 + 1) % n_sites;
    while graph.site_size(SiteId(target)) < 1 {
        target = (target + 1) % n_sites;
    }
    let target = SiteId(target);
    let root = graph.docs_of_site(target)[0];
    let p = delta
        .add_page(target, &format!("http://cluster-grow-{step}.page/"))
        .expect("existing site");
    delta.add_link(root, p).expect("in range");
    delta.add_link(p, root).expect("in range");
    delta
}

/// Cross link (plus a new site every 2nd time): stales the site layer, so
/// the publish rebuilds only the new site's shard and refreshes the rest —
/// still a segment to every shard, the worst-case wire fan-out.
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
    delta.add_link(a, b).expect("in range");
    if step.is_multiple_of(2) {
        let s = delta.add_site(&format!("cluster-{step}.example"));
        let mut pages = Vec::new();
        for i in 0..3 {
            pages.push(
                delta
                    .add_page(s, &format!("http://cluster-{step}.example/{i}"))
                    .expect("new site"),
            );
        }
        for w in pages.windows(2) {
            delta.add_link(w[0], w[1]).expect("in range");
        }
        delta.add_link(pages[2], pages[0]).expect("in range");
        delta.add_link(a, pages[0]).expect("in range");
        delta.add_link(pages[0], a).expect("in range");
    }
    delta
}

/// Whole-site retirement plus a page removal elsewhere: SiteRank reruns
/// over the survivors (`Staleness::Resized`, as for any rerun), so the
/// publish *rebuilds* the shards of the removed and shrunk sites and
/// *refreshes* every other one — re-merging intact per-site orders under
/// the rescaled scores, over the wire.
fn removal_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 13 + 5) % n_sites;
    while graph.site_size(SiteId(site)) < 4 {
        site = (site + 1) % n_sites;
    }
    delta.remove_site(SiteId(site)).expect("live site");
    let mut shrink = (step * 17 + 11) % n_sites;
    while shrink == site || graph.site_size(SiteId(shrink)) < 4 {
        shrink = (shrink + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(shrink));
    delta
        .remove_page(docs[docs.len() - 1])
        .expect("populous site");
    delta
}

/// Full-surface bitwise parity between the cluster and the in-process
/// tier at one epoch. Panics (failing the experiment) on any drift.
fn assert_parity(
    client: &ClusterClient,
    server: &ShardedServer,
    snapshot: &RankSnapshot,
    rng: &mut XorShift,
) {
    let want_epoch = snapshot.epoch();

    let (le, local_top) = server.top_k(TOP_K).expect("local top_k");
    let (re, remote_top) = client.top_k(TOP_K).expect("cluster top_k");
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
    let (le, local_scores) = server.score_batch(&batch).expect("local batch");
    let (re, remote_scores) = client.score_batch(&batch).expect("cluster batch");
    assert_eq!((le, re), (want_epoch, want_epoch), "batch epoch drift");
    for (i, (l, r)) in local_scores.iter().zip(remote_scores.iter()).enumerate() {
        assert_eq!(l.to_bits(), r.to_bits(), "score drift at {:?}", batch[i]);
    }

    for _ in 0..8 {
        let site = SiteId(rng.next(snapshot.n_sites()));
        match (
            server.top_k_for_site(site, 5),
            client.top_k_for_site(site, 5),
        ) {
            (Ok((le, l)), Ok((re, r))) => {
                assert_eq!((le, re), (want_epoch, want_epoch), "site epoch drift");
                assert_eq!(l.len(), r.len(), "site {site:?} length drift");
                for (a, b) in l.iter().zip(r.iter()) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            (Err(_), Err(_)) => {}
            (l, r) => panic!("site {site:?}: local {l:?} vs cluster {r:?}"),
        }
    }

    for _ in 0..8 {
        let (a, b) = (live[rng.next(live.len())], live[rng.next(live.len())]);
        let (le, local_ord) = server.compare(a, b).expect("local compare");
        let (re, remote_ord) = client.compare(a, b).expect("cluster compare");
        assert_eq!((le, re), (want_epoch, want_epoch), "compare epoch drift");
        assert_eq!(local_ord, remote_ord, "compare drift {a:?} vs {b:?}");
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let steps = if smoke { 4 } else { 10 };
    let kill_after_step = steps / 2 - 1; // kill once, mid-run

    let mut cfg = CampusWebConfig::paper_scale();
    cfg.spam_farms.clear();
    cfg.seed = 23;
    if smoke {
        cfg.total_docs = 2_000;
        cfg.n_sites = 40;
    } else {
        cfg.total_docs = 100_000;
        cfg.n_sites = 400;
    }
    let base = cfg.generate()?;

    section(&format!(
        "Remote shard fabric: {} docs, {} sites, {} links; {N_NODES} nodes x {N_SHARDS} shards, {steps} churn steps, node kill after step {kill_after_step}",
        base.n_docs(),
        base.n_sites(),
        base.n_links(),
    ));

    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .build()?;
    let (_, warmup) = timed(|| engine.rank(&base).map(|_| ()));
    println!("base rank (cold): {warmup:.2?}");

    let map = ShardMap::balanced(&base, N_SHARDS)?;
    let controller = ClusterController::start(
        map.clone(),
        ControllerConfig {
            heartbeat_interval: Duration::from_millis(50),
            miss_limit: 2,
            io_timeout: Duration::from_secs(5),
            auto_failover: true,
            retry: lmm_cluster::RetryPolicy::default(),
            fault: None,
        },
    )?;
    let mut nodes: Vec<ShardNode> = (0..N_NODES)
        .map(|_| {
            ShardNode::start(
                controller.addr(),
                NodeConfig {
                    heap_k: 128,
                    ..NodeConfig::default()
                },
            )
        })
        .collect::<Result<_, _>>()?;
    controller.wait_for_nodes(N_NODES, Duration::from_secs(10))?;

    let snapshot = engine.snapshot()?;
    let (first, first_wall) = timed(|| controller.publish(&snapshot));
    let first = first?;
    println!(
        "first publish: {} shards rebuilt across {} nodes in {first_wall:.2?} ({:.1} ms max node fan-out)",
        first.rebuilt, first.nodes, first.max_fanout_ms
    );

    let server = ShardedServer::start(map, &snapshot, ServeConfig { heap_k: 128 })?;
    let client = ClusterClient::new(controller.addr(), ClientConfig::default());
    let mut parity_rng = XorShift::new(0xc1u64 << 32 | 0x5eed);
    assert_parity(&client, &server, &snapshot, &mut parity_rng);

    let bench_start = Instant::now();
    let mut current = base;
    let mut records: Vec<StepRecord> = Vec::new();
    let mut failover: Option<FailoverRecord> = None;
    println!(
        "{:>5} {:>8} {:>7} {:>6} {:>10} {:>22} {:>14}",
        "step", "kind", "cepoch", "rank", "publish", "rebuild/refresh/repin", "probes old|new"
    );
    for step in 0..steps {
        let (delta, kind) = match step % 3 {
            2 => (global_delta(&current, step), "global"),
            1 => (removal_delta(&current, step), "removal"),
            _ => (local_delta(&current, step), "local"),
        };
        let (mutated, _) = current.apply(&delta)?;
        engine.apply_delta(&delta)?;
        current = mutated;
        let snapshot = engine.snapshot()?;
        let old_epoch = snapshot.epoch() - 1;
        let new_epoch = snapshot.epoch();
        let want_top = engine.top_k(TOP_K)?;
        let old_top = server.top_k(TOP_K)?.1;

        // Epoch-consistency probe *during* the over-the-wire publish:
        // every answer is wholly pre-swap or wholly post-swap.
        let prober = {
            let controller_addr = controller.addr().to_string();
            let want_top = want_top.clone();
            std::thread::spawn(move || {
                let probe_client = ClusterClient::new(&controller_addr, ClientConfig::default());
                let (mut old, mut new, mut retriable) = (0usize, 0usize, 0usize);
                for _ in 0..PROBES_PER_SWAP {
                    match probe_client.top_k(TOP_K) {
                        Ok((epoch, top)) => {
                            assert!(
                                epoch == old_epoch || epoch == new_epoch,
                                "probe answered from epoch {epoch}, swap is {old_epoch}->{new_epoch}"
                            );
                            let want = if epoch == old_epoch {
                                &old_top
                            } else {
                                &want_top
                            };
                            assert_eq!(top.len(), want.len(), "torn probe at epoch {epoch}");
                            for (a, b) in top.iter().zip(want.iter()) {
                                assert_eq!(a.0, b.0, "torn probe at epoch {epoch}");
                                assert_eq!(a.1.to_bits(), b.1.to_bits(), "torn probe bits");
                            }
                            if epoch == old_epoch {
                                old += 1;
                            } else {
                                new += 1;
                            }
                        }
                        Err(err) => {
                            assert!(err.is_retriable(), "non-retriable probe error: {err}");
                            retriable += 1;
                        }
                    }
                }
                (old, new, retriable)
            })
        };
        let (report, publish_wall) = timed(|| controller.publish(&snapshot));
        let report = report?;
        let (probe_old, probe_new, probe_retriable) =
            prober.join().expect("prober panicked (torn response?)");
        server.publish(&snapshot)?;

        assert_eq!(report.rank_epoch, new_epoch, "publish rank epoch drift");
        assert_parity(&client, &server, &snapshot, &mut parity_rng);

        println!(
            "{:>5} {:>8} {:>7} {:>6} {:>10.2?} {:>10}/{}/{:<7} {:>9}|{:<4}",
            step,
            kind,
            report.epoch,
            report.rank_epoch,
            publish_wall,
            report.rebuilt,
            report.refreshed,
            report.repinned,
            probe_old,
            probe_new,
        );
        records.push(StepRecord {
            step,
            kind,
            cepoch: report.epoch,
            rank_epoch: report.rank_epoch,
            publish: publish_wall,
            report,
            probe_old,
            probe_new,
            probe_retriable,
        });

        if step == kill_after_step {
            // Kill a node outright — no deregistration, no goodbye. The
            // controller must notice via missed heartbeats, evict, and
            // republish the pinned snapshot on the survivors.
            let victim = nodes.remove(0);
            let victim_addr = victim.addr().to_string();
            let (cepoch_before, rank_now) = controller.epochs();
            println!("  >> killing node at {victim_addr} (cluster epoch {cepoch_before})");
            // Kill on a side thread: the join inside `kill` can outlast
            // the whole eviction window, and the point is to query
            // *through* that window.
            let kill_start = Instant::now();
            let killer = std::thread::spawn(move || victim.kill());
            let deadline = kill_start + Duration::from_secs(30);
            let (mut during, mut retriable, mut wrong) = (0u64, 0u64, 0u64);
            while controller.epochs().0 == cepoch_before {
                assert!(
                    Instant::now() < deadline,
                    "controller never evicted the dead node"
                );
                match client.top_k(TOP_K) {
                    Ok((epoch, top)) => {
                        if epoch == rank_now && top == want_top {
                            during += 1;
                        } else {
                            wrong += 1;
                        }
                    }
                    Err(err) if err.is_retriable() => retriable += 1,
                    Err(err) => panic!("non-retriable during failover: {err}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let wall = kill_start.elapsed();
            killer.join().expect("node kill panicked");
            let (cepoch_after, rank_after) = controller.epochs();
            assert_eq!(rank_after, rank_now, "failover changed the ranking");
            assert_eq!(wrong, 0, "{wrong} wrong-epoch responses during failover");
            assert_parity(&client, &server, &snapshot, &mut parity_rng);
            println!(
                "  >> failover complete in {wall:.2?}: cluster epoch {cepoch_before} -> {cepoch_after}, \
                 {} survivors; {during} correct + {retriable} retriable during the window",
                controller.n_nodes()
            );
            failover = Some(FailoverRecord {
                after_step: step,
                wall,
                cepoch_before,
                cepoch_after,
                queries_during: during,
                retriable_during: retriable,
                wrong_epoch: wrong,
            });
        }
    }
    let wall = bench_start.elapsed();

    let failover = failover.expect("node kill never ran");
    let stats = controller.stats();
    let client_stats = client.stats();
    assert!(stats.evictions >= 1, "eviction not counted");
    assert!(stats.failovers >= 1, "failover not counted");
    assert_eq!(stats.nodes.len(), N_NODES - 1);
    assert_eq!(stats.rank_epoch, engine.epoch());
    let total_probe_errors: usize = records.iter().map(|r| r.probe_retriable).sum();
    println!(
        "\n{} publishes over the wire in {wall:.2?}; doc skew {:.3}; \
         {} gather retries, {} escalations, {} node failures seen by the client; \
         {total_probe_errors} retriable probe errors, 0 wrong-epoch responses",
        stats.publishes,
        stats.doc_skew,
        client_stats.gather_retries,
        client_stats.gather_escalations,
        client_stats.node_failures
    );

    let json = render_json(
        &current,
        smoke,
        &records,
        &failover,
        &stats,
        &client_stats,
        wall,
    );
    let out_path = if smoke { SMOKE_OUT_PATH } else { OUT_PATH };
    std::fs::write(out_path, json)?;
    println!("wrote {out_path}");

    controller.shutdown();
    for node in nodes {
        node.kill();
    }
    Ok(())
}

fn render_json(
    final_graph: &DocGraph,
    smoke: bool,
    records: &[StepRecord],
    failover: &FailoverRecord,
    stats: &lmm_cluster::ClusterStats,
    client_stats: &lmm_cluster::ClientStats,
    wall: Duration,
) -> String {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"exp_cluster\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"n_nodes\": {N_NODES},");
    let _ = writeln!(out, "  \"n_shards\": {N_SHARDS},");
    let _ = writeln!(out, "  \"final_docs\": {},", final_graph.n_docs());
    let _ = writeln!(out, "  \"final_sites\": {},", final_graph.n_sites());
    let _ = writeln!(out, "  \"final_links\": {},", final_graph.n_links());
    out.push_str("  \"steps\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"step\": {}, \"kind\": \"{}\", \"cluster_epoch\": {}, \"rank_epoch\": {}, \
             \"publish_ms\": {:.3}, \"max_node_fanout_ms\": {:.3}, \
             \"shards_rebuilt\": {}, \"shards_refreshed\": {}, \"shards_repinned\": {}, \
             \"shards_reassigned\": {}, \"publish_attempts\": {}, \
             \"probe_old_epoch\": {}, \"probe_new_epoch\": {}, \"probe_retriable\": {}}}",
            r.step,
            r.kind,
            r.cepoch,
            r.rank_epoch,
            r.publish.as_secs_f64() * 1e3,
            r.report.max_fanout_ms,
            r.report.rebuilt,
            r.report.refreshed,
            r.report.repinned,
            r.report.reassigned,
            r.report.attempts,
            r.probe_old,
            r.probe_new,
            r.probe_retriable,
        );
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"failover\": {{");
    let _ = writeln!(out, "    \"after_step\": {},", failover.after_step);
    let _ = writeln!(
        out,
        "    \"detect_and_republish_ms\": {:.3},",
        failover.wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "    \"cluster_epoch_before\": {},",
        failover.cepoch_before
    );
    let _ = writeln!(
        out,
        "    \"cluster_epoch_after\": {},",
        failover.cepoch_after
    );
    let _ = writeln!(
        out,
        "    \"correct_responses_during\": {},",
        failover.queries_during
    );
    let _ = writeln!(
        out,
        "    \"retriable_errors_during\": {},",
        failover.retriable_during
    );
    let _ = writeln!(
        out,
        "    \"wrong_epoch_responses\": {}",
        failover.wrong_epoch
    );
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"totals\": {{");
    let _ = writeln!(out, "    \"wall_ms\": {:.3},", wall.as_secs_f64() * 1e3);
    let _ = writeln!(out, "    \"publishes\": {},", stats.publishes);
    let _ = writeln!(out, "    \"evictions\": {},", stats.evictions);
    let _ = writeln!(out, "    \"failovers\": {},", stats.failovers);
    let _ = writeln!(
        out,
        "    \"missed_heartbeats\": {},",
        stats.missed_heartbeats
    );
    let _ = writeln!(out, "    \"doc_skew\": {:.4},", stats.doc_skew);
    let _ = writeln!(
        out,
        "    \"tombstone_rejections\": {},",
        stats.tombstone_rejections
    );
    let _ = writeln!(
        out,
        "    \"controller_bytes_sent\": {},",
        stats.controller_bytes.0
    );
    let _ = writeln!(
        out,
        "    \"controller_bytes_recv\": {},",
        stats.controller_bytes.1
    );
    let _ = writeln!(out, "    \"client_bytes_sent\": {},", client_stats.bytes.0);
    let _ = writeln!(out, "    \"client_bytes_recv\": {},", client_stats.bytes.1);
    let _ = writeln!(
        out,
        "    \"client_gather_retries\": {},",
        client_stats.gather_retries
    );
    let _ = writeln!(
        out,
        "    \"client_gather_escalations\": {},",
        client_stats.gather_escalations
    );
    let _ = writeln!(
        out,
        "    \"client_node_failures\": {},",
        client_stats.node_failures
    );
    let _ = writeln!(
        out,
        "    \"client_placement_refreshes\": {}",
        client_stats.placement_refreshes
    );
    out.push_str("  },\n");
    out.push_str("  \"nodes\": [\n");
    for (i, n) in stats.nodes.iter().enumerate() {
        let (docs, skew, bytes_sent, bytes_recv, queries) =
            n.wire.as_ref().map_or((0, 0.0, 0, 0, 0), |w| {
                (
                    w.n_docs(),
                    w.doc_skew(),
                    w.bytes_sent,
                    w.bytes_recv,
                    w.queries,
                )
            });
        let _ = write!(
            out,
            "    {{\"node\": {}, \"addr\": \"{}\", \"rtt_us\": {}, \"missed\": {}, \
             \"last_fanout_ms\": {:.3}, \"docs\": {}, \"doc_skew\": {:.4}, \
             \"bytes_sent\": {}, \"bytes_recv\": {}, \"queries\": {}}}",
            n.node,
            n.addr,
            n.rtt_us,
            n.missed,
            n.last_fanout_ms,
            docs,
            skew,
            bytes_sent,
            bytes_recv,
            queries,
        );
        out.push_str(if i + 1 == stats.nodes.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
