//! Experiment PR4: the sharded serving tier under closed-loop query load
//! with interleaved live deltas.
//!
//! Drives `lmm-serve`'s [`ShardedServer`] over a synthetic 100k-page
//! campus web: N reader threads run a closed query loop (mixed `top_k` /
//! `top_k_for_site` / `score` / `compare`) against the server while the
//! writer applies structural deltas through `RankEngine::apply_delta` and
//! hot-swaps the resulting snapshots. Three properties are asserted, not
//! just measured:
//!
//! * **correctness** — cross-shard `top_k` equals the engine cache's
//!   `top_k` *bitwise* at every epoch, and every reader response is
//!   verified against the published snapshot of the epoch it claims (a
//!   torn read fails immediately);
//! * **locality** — a publish rebuilds exactly the shards covering the
//!   delta's changed/grown site sets (serve telemetry counters), re-pins
//!   the rest, and site-layer-staling deltas rebuild everything;
//! * **availability** — a prober thread issues queries *during* every
//!   swap; each one must answer (old epoch or new — never an error, never
//!   a mixed-epoch response).
//!
//! Writes `BENCH_pr4.json` (`--smoke` writes `BENCH_pr4_smoke.json` for
//! CI so the committed measurements are never clobbered).
//!
//! Run: `cargo run --release -p lmm-bench --bin exp_serve`

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lmm_bench::{section, timed};
use lmm_engine::{BackendSpec, MemorySink, RankEngine, RankSnapshot};
use lmm_graph::delta::{AppliedDelta, GraphDelta};
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

const OUT_PATH: &str = "BENCH_pr4.json";
const SMOKE_OUT_PATH: &str = "BENCH_pr4_smoke.json";
const TOP_K: usize = 10;
const READERS: usize = 4;
const PROBES_PER_SWAP: usize = 40;

/// Per-epoch ground truth, inserted before the epoch is published.
type Expected = Mutex<HashMap<u64, (RankSnapshot, Vec<(DocId, f64)>)>>;

struct StepRecord {
    step: usize,
    kind: &'static str,
    epoch: u64,
    apply: Duration,
    publish: Duration,
    shards_rebuilt: usize,
    shards_repinned: usize,
    probe_old_epoch: usize,
    probe_new_epoch: usize,
}

/// Deterministic xorshift64* for the query mix. (The vendored `rand`
/// shim is a dev-dependency of this crate — tests and benches only — so
/// experiment *bins* roll their own five-line generator.)
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

/// A serving-localized delta: intra-site rewire plus growth — no
/// cross-site change, so only the touched sites' shards rebuild.
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
    let target = SiteId((step * 5 + 1) % n_sites);
    let root = graph.docs_of_site(target)[0];
    let p = delta
        .add_page(target, &format!("http://serve-grow-{step}.page/"))
        .expect("existing site");
    delta.add_link(root, p).expect("in range");
    delta.add_link(p, root).expect("in range");
    delta
}

/// A site-layer-staling delta: cross links (and every 2nd time a whole new
/// site), forcing a SiteRank recompute and therefore a full shard rebuild.
fn global_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let a = graph.docs_of_site(SiteId((step * 11 + 2) % n_sites))[0];
    let b = graph.docs_of_site(SiteId((step * 13 + 5) % n_sites))[0];
    delta.add_link(a, b).expect("in range");
    if step.is_multiple_of(2) {
        let s = delta.add_site(&format!("serve-{step}.example"));
        let mut pages = Vec::new();
        for i in 0..3 {
            pages.push(
                delta
                    .add_page(s, &format!("http://serve-{step}.example/{i}"))
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

/// The shards a publish must rebuild for this induced delta.
fn expected_rebuilds(map: &ShardMap, applied: &AppliedDelta) -> usize {
    if applied.cross_links_changed || applied.added_sites > 0 {
        map.n_shards()
    } else {
        map.shards_of_sites(
            applied
                .changed_sites
                .iter()
                .chain(applied.grown_sites.iter())
                .copied(),
        )
        .len()
    }
}

/// Verifies one reader response against the published ground truth of the
/// epoch it claims. Panics (failing the experiment) on any mismatch.
fn verify_response(expected: &Expected, kind: usize, query: &QueryOutcome) {
    let guard = expected.lock().expect("expected map poisoned");
    let (snap, want_top) = guard
        .get(&query.epoch)
        .unwrap_or_else(|| panic!("response from unpublished epoch {}", query.epoch));
    match (kind, query) {
        (0, QueryOutcome { top: Some(top), .. }) => {
            assert_eq!(top, want_top, "torn top_k at epoch {}", query.epoch);
        }
        (
            1,
            QueryOutcome {
                doc: Some((doc, score)),
                ..
            },
        ) => {
            assert_eq!(
                score.to_bits(),
                snap.scores()[doc.index()].to_bits(),
                "torn score at epoch {}",
                query.epoch
            );
        }
        (
            2,
            QueryOutcome {
                site: Some((site, top)),
                ..
            },
        ) => {
            let scores = snap.scores();
            let mut want: Vec<(DocId, f64)> = snap
                .members_of_site(*site)
                .iter()
                .map(|&d| (d, scores[d.index()]))
                .collect();
            want.sort_by(|x, y| {
                y.1.partial_cmp(&x.1)
                    .expect("finite scores")
                    .then(x.0.cmp(&y.0))
            });
            want.truncate(5);
            assert_eq!(top, &want, "torn site top_k at epoch {}", query.epoch);
        }
        (
            3,
            QueryOutcome {
                pair: Some((a, b, order)),
                ..
            },
        ) => {
            let scores = snap.scores();
            let want = scores[a.index()]
                .partial_cmp(&scores[b.index()])
                .expect("finite scores")
                .then(b.cmp(a));
            assert_eq!(*order, want, "torn compare at epoch {}", query.epoch);
        }
        _ => unreachable!("query outcome does not match its kind"),
    }
}

#[derive(Default)]
struct QueryOutcome {
    epoch: u64,
    top: Option<Vec<(DocId, f64)>>,
    doc: Option<(DocId, f64)>,
    site: Option<(SiteId, Vec<(DocId, f64)>)>,
    pair: Option<(DocId, DocId, std::cmp::Ordering)>,
}

/// One closed-loop reader iteration: pick a query kind, run it, verify it.
fn reader_iteration(
    server: &ShardedServer,
    expected: &Expected,
    rng: &mut XorShift,
    base_docs: usize,
    base_sites: usize,
) -> u64 {
    let kind = rng.next(4);
    let outcome = match kind {
        0 => {
            let (epoch, top) = server.top_k(TOP_K).expect("top_k failed");
            QueryOutcome {
                epoch,
                top: Some(top),
                ..QueryOutcome::default()
            }
        }
        1 => {
            let doc = DocId(rng.next(base_docs));
            let (epoch, score) = server.score(doc).expect("score failed");
            QueryOutcome {
                epoch,
                doc: Some((doc, score)),
                ..QueryOutcome::default()
            }
        }
        2 => {
            let site = SiteId(rng.next(base_sites));
            let (epoch, top) = server.top_k_for_site(site, 5).expect("site top_k failed");
            QueryOutcome {
                epoch,
                site: Some((site, top)),
                ..QueryOutcome::default()
            }
        }
        _ => {
            let a = DocId(rng.next(base_docs));
            let b = DocId(rng.next(base_docs));
            let (epoch, order) = server.compare(a, b).expect("compare failed");
            QueryOutcome {
                epoch,
                pair: Some((a, b, order)),
                ..QueryOutcome::default()
            }
        }
    };
    verify_response(expected, kind, &outcome);
    outcome.epoch
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let steps = if smoke { 4 } else { 10 };
    let n_shards = 8;

    let mut cfg = CampusWebConfig::paper_scale();
    cfg.spam_farms.clear();
    cfg.seed = 17;
    if smoke {
        cfg.total_docs = 2_000;
        cfg.n_sites = 40;
    } else {
        cfg.total_docs = 100_000;
        cfg.n_sites = 400;
    }
    let base = cfg.generate()?;
    let base_docs = base.n_docs();
    let base_sites = base.n_sites();

    section(&format!(
        "Sharded serving: {} docs, {} sites, {} links; {} shards, {} readers, {} delta steps",
        base.n_docs(),
        base.n_sites(),
        base.n_links(),
        n_shards,
        READERS,
        steps
    ));

    let sink = Arc::new(MemorySink::new());
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .telemetry(sink)
        .build()?;
    let (_, warmup) = timed(|| engine.rank(&base).map(|_| ()));
    println!("base rank (cold): {warmup:.2?}");

    let expected: Arc<Expected> = Arc::new(Mutex::new(HashMap::new()));
    let record_epoch = |expected: &Expected, engine: &RankEngine| {
        let snap = engine.snapshot().expect("ranked");
        let top = engine.top_k(TOP_K).expect("ranked");
        expected
            .lock()
            .expect("expected map poisoned")
            .insert(snap.epoch(), (snap, top));
    };
    record_epoch(&expected, &engine);

    let map = ShardMap::balanced(&base, n_shards)?;
    let server = Arc::new(ShardedServer::start(
        map.clone(),
        &engine.snapshot()?,
        ServeConfig { heap_k: 128 },
    )?);

    // Closed-loop readers: hammer until stopped, verifying every response.
    let stop = Arc::new(AtomicBool::new(false));
    let verified: Vec<Arc<AtomicU64>> = (0..READERS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let published = Arc::new(AtomicU64::new(engine.epoch()));
    let behind_swap = Arc::new(AtomicU64::new(0)); // responses from < published epoch
    let mut reader_handles = Vec::new();
    for reader in 0..READERS {
        let server = Arc::clone(&server);
        let expected = Arc::clone(&expected);
        let stop = Arc::clone(&stop);
        let verified = Arc::clone(&verified[reader]);
        let published = Arc::clone(&published);
        let behind_swap = Arc::clone(&behind_swap);
        reader_handles.push(std::thread::spawn(move || {
            let mut rng = XorShift::new(0x5eed + reader as u64 * 7919);
            while !stop.load(Ordering::Relaxed) {
                let epoch = reader_iteration(&server, &expected, &mut rng, base_docs, base_sites);
                verified.fetch_add(1, Ordering::Relaxed);
                if epoch < published.load(Ordering::Relaxed) {
                    behind_swap.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    let bench_start = Instant::now();
    let mut current = base;
    let mut records: Vec<StepRecord> = Vec::new();
    println!(
        "{:>5} {:>8} {:>6} {:>10} {:>10} {:>14} {:>12}",
        "step", "kind", "epoch", "apply", "publish", "rebuilt/total", "probes old|new"
    );
    for step in 0..steps {
        let (delta, kind) = if step % 3 == 2 {
            (global_delta(&current, step), "global")
        } else {
            (local_delta(&current, step), "local")
        };
        let (mutated, applied) = current.apply(&delta)?;

        let (result, apply_wall) = timed(|| engine.apply_delta(&delta).map(|_| ()));
        result?;
        record_epoch(&expected, &engine);
        let snapshot = engine.snapshot()?;
        let old_epoch = snapshot.epoch() - 1;

        // Availability probe: a dedicated thread queries *while* the
        // publish below swaps shards; every probe must answer from the old
        // or the new epoch — never error, never mix.
        let prober = {
            let server = Arc::clone(&server);
            let expected = Arc::clone(&expected);
            let new_epoch = snapshot.epoch();
            std::thread::spawn(move || {
                let mut rng = XorShift::new(0xbeef + new_epoch);
                let mut old = 0usize;
                let mut new = 0usize;
                for _ in 0..PROBES_PER_SWAP {
                    let epoch =
                        reader_iteration(&server, &expected, &mut rng, base_docs, base_sites);
                    assert!(
                        epoch == old_epoch || epoch == new_epoch,
                        "probe answered from epoch {epoch}, swap is {old_epoch}->{new_epoch}"
                    );
                    if epoch == old_epoch {
                        old += 1;
                    } else {
                        new += 1;
                    }
                }
                (old, new)
            })
        };
        let (report, publish_wall) = timed(|| server.publish(&snapshot));
        let report = report?;
        published.store(report.epoch, Ordering::Relaxed);
        let (probe_old, probe_new) = prober.join().expect("prober panicked (torn response?)");

        // (b) Locality: exactly the shards of the delta's site sets were
        // rebuilt; the rest re-pinned.
        let want_rebuilt = expected_rebuilds(&map, &applied);
        assert_eq!(
            report.shards_rebuilt, want_rebuilt,
            "step {step}: rebuilt {} shards, induced delta demands {want_rebuilt}",
            report.shards_rebuilt
        );
        assert_eq!(
            report.shards_repinned,
            n_shards - want_rebuilt,
            "step {step}: re-pin accounting is off"
        );
        if kind == "local" {
            assert!(
                report.shards_rebuilt < n_shards,
                "step {step}: a local delta must not rebuild every shard"
            );
        }

        // (a) Correctness: cross-shard top-k equals the engine cache's
        // top-k bitwise at the new epoch.
        let (epoch, served_top) = server.top_k(TOP_K)?;
        assert_eq!(epoch, engine.epoch(), "serving epoch lags the engine");
        assert_eq!(
            served_top,
            engine.top_k(TOP_K)?,
            "step {step}: served top-k diverged from the engine cache"
        );

        println!(
            "{:>5} {:>8} {:>6} {:>10.2?} {:>10.2?} {:>9}/{:<4} {:>8}|{:<4}",
            step,
            kind,
            report.epoch,
            apply_wall,
            publish_wall,
            report.shards_rebuilt,
            n_shards,
            probe_old,
            probe_new,
        );
        records.push(StepRecord {
            step,
            kind,
            epoch: report.epoch,
            apply: apply_wall,
            publish: publish_wall,
            shards_rebuilt: report.shards_rebuilt,
            shards_repinned: report.shards_repinned,
            probe_old_epoch: probe_old,
            probe_new_epoch: probe_new,
        });
        current = mutated;
    }

    // Let every reader verify a few responses at the final epoch, then
    // stop the closed loop.
    let marks: Vec<u64> = verified
        .iter()
        .map(|v| v.load(Ordering::Relaxed) + 5)
        .collect();
    while verified
        .iter()
        .zip(&marks)
        .any(|(v, &m)| v.load(Ordering::Relaxed) < m)
    {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for handle in reader_handles {
        handle.join().expect("reader panicked (torn response?)");
    }
    let wall = bench_start.elapsed();

    let stats = server.stats();
    let total_verified: u64 = verified.iter().map(|v| v.load(Ordering::Relaxed)).sum();
    let probes_total = records
        .iter()
        .map(|r| r.probe_old_epoch + r.probe_new_epoch)
        .sum::<usize>();
    let old_epoch_probes = records.iter().map(|r| r.probe_old_epoch).sum::<usize>();
    // (c) Queries kept answering throughout every swap.
    assert_eq!(probes_total, steps * PROBES_PER_SWAP);
    let qps = stats.total_queries() as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "\nreaders verified {total_verified} responses ({:.0} q/s over {wall:.2?}); \
         {} answered during swaps from the pre-swap epoch",
        qps, old_epoch_probes
    );

    let json = render_json(
        &current,
        smoke,
        n_shards,
        &records,
        &stats_json(
            &stats,
            total_verified,
            behind_swap.load(Ordering::Relaxed),
            old_epoch_probes,
            qps,
            wall,
        ),
    );
    let out_path = if smoke { SMOKE_OUT_PATH } else { OUT_PATH };
    std::fs::write(out_path, json)?;
    println!("wrote {out_path}");
    Ok(())
}

/// Pre-rendered totals block (hand-rolled JSON; the workspace is offline —
/// no serde).
#[allow(clippy::too_many_arguments)]
fn stats_json(
    stats: &lmm_serve::ServeStatsSnapshot,
    verified: u64,
    behind_swap: u64,
    old_epoch_probes: usize,
    qps: f64,
    wall: Duration,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  \"totals\": {{");
    let _ = writeln!(out, "    \"wall_ms\": {:.3},", wall.as_secs_f64() * 1e3);
    let _ = writeln!(out, "    \"queries_per_second\": {qps:.0},");
    let _ = writeln!(out, "    \"responses_verified\": {verified},");
    let _ = writeln!(out, "    \"responses_behind_swap\": {behind_swap},");
    let _ = writeln!(
        out,
        "    \"probe_old_epoch_responses\": {old_epoch_probes},"
    );
    let _ = writeln!(out, "    \"score_queries\": {},", stats.score_queries);
    let _ = writeln!(out, "    \"batch_queries\": {},", stats.batch_queries);
    let _ = writeln!(out, "    \"top_k_queries\": {},", stats.top_k_queries);
    let _ = writeln!(
        out,
        "    \"site_top_k_queries\": {},",
        stats.site_top_k_queries
    );
    let _ = writeln!(out, "    \"compare_queries\": {},", stats.compare_queries);
    let _ = writeln!(out, "    \"publishes\": {},", stats.publishes);
    let _ = writeln!(out, "    \"shards_rebuilt\": {},", stats.shards_rebuilt);
    let _ = writeln!(out, "    \"shards_repinned\": {}", stats.shards_repinned);
    let _ = write!(out, "  }}");
    out
}

fn render_json(
    final_graph: &DocGraph,
    smoke: bool,
    n_shards: usize,
    records: &[StepRecord],
    totals: &str,
) -> String {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"exp_serve\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"n_shards\": {n_shards},");
    let _ = writeln!(out, "  \"reader_threads\": {READERS},");
    let _ = writeln!(out, "  \"final_docs\": {},", final_graph.n_docs());
    let _ = writeln!(out, "  \"final_sites\": {},", final_graph.n_sites());
    let _ = writeln!(out, "  \"final_links\": {},", final_graph.n_links());
    out.push_str("  \"steps\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"step\": {}, \"kind\": \"{}\", \"epoch\": {}, \
             \"apply_ms\": {:.3}, \"publish_ms\": {:.3}, \
             \"shards_rebuilt\": {}, \"shards_repinned\": {}, \
             \"probe_old_epoch\": {}, \"probe_new_epoch\": {}}}",
            r.step,
            r.kind,
            r.epoch,
            r.apply.as_secs_f64() * 1e3,
            r.publish.as_secs_f64() * 1e3,
            r.shards_rebuilt,
            r.shards_repinned,
            r.probe_old_epoch,
            r.probe_new_epoch,
        );
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    out.push_str(totals);
    out.push_str("\n}\n");
    out
}
