//! Concurrent readers during snapshot hot-swap: reader threads hammer
//! all five query shapes — `top_k`, `score`, `top_k_for_site`, and a
//! `score_batch` and `compare` that span shards — while the writer
//! applies deltas and publishes, and every single response must be
//! *internally consistent* — its payload bit-equal to what the epoch it
//! claims was published with. A torn read (data from one epoch stamped
//! with another, or shards of two epochs in one answer) fails the
//! comparison immediately.
//!
//! The test spawns its own threads and pins the engine pool to one worker,
//! so it behaves identically under `RUST_TEST_THREADS=1`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lmm_engine::{BackendSpec, RankEngine, RankSnapshot};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

/// Expected answers per published epoch: the snapshot itself plus the
/// global top-10 it implies. Inserted *before* the epoch is published, so
/// a reader can always verify whatever epoch answers.
type Expected = Mutex<HashMap<u64, (RankSnapshot, Vec<(DocId, f64)>)>>;

fn campus() -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 600;
    cfg.n_sites = 12;
    cfg.spam_farms.clear();
    cfg.generate().unwrap()
}

/// Expected serving order of one site under a snapshot.
fn expected_site_top(snapshot: &RankSnapshot, site: SiteId, k: usize) -> Vec<(DocId, f64)> {
    let scores = snapshot.scores();
    let mut members: Vec<(DocId, f64)> = snapshot
        .members_of_site(site)
        .iter()
        .map(|&d| (d, scores[d.index()]))
        .collect();
    members.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then(a.0.cmp(&b.0))
    });
    members.truncate(k);
    members
}

/// A churn delta: always an intra-site rewire; growth every 2nd step; a
/// cross link every 3rd (forcing a full invalidation, i.e. all shards
/// rebuild) — so the stream exercises both re-pin and rebuild swaps.
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
            .add_page(target, &format!("http://swap-grow-{step}.page/"))
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

#[test]
fn readers_never_observe_torn_state_across_swaps() {
    let base = campus();
    let base_docs = base.n_docs();
    let base_sites = base.n_sites();
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .threads(1)
        .build()
        .unwrap();
    engine.rank(&base).unwrap();

    let expected: Arc<Expected> = Arc::new(Mutex::new(HashMap::new()));
    let record = |expected: &Expected, engine: &RankEngine| {
        let snap = engine.snapshot().unwrap();
        let top = engine.top_k(10).unwrap();
        expected.lock().unwrap().insert(snap.epoch(), (snap, top));
    };
    record(&expected, &engine);

    let server = Arc::new(
        ShardedServer::start(
            ShardMap::balanced(&base, 4).unwrap(),
            &engine.snapshot().unwrap(),
            ServeConfig { heap_k: 16 },
        )
        .unwrap(),
    );

    // Docs of the first and last site live in the first and last shard:
    // a batch or compare holding both spans shards.
    let first_doc = base.docs_of_site(SiteId(0))[0];
    let last_doc = base.docs_of_site(SiteId(base_sites - 1))[0];
    let stop = Arc::new(AtomicBool::new(false));
    let n_readers = 3;
    let verified: Vec<Arc<AtomicU64>> = (0..n_readers)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let final_epochs: Vec<Arc<AtomicU64>> = (0..n_readers)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let mut readers = Vec::new();
    for reader in 0..n_readers {
        let server = Arc::clone(&server);
        let expected = Arc::clone(&expected);
        let stop = Arc::clone(&stop);
        let verified = Arc::clone(&verified[reader]);
        let last_epoch = Arc::clone(&final_epochs[reader]);
        readers.push(std::thread::spawn(move || {
            let mut rng: u64 = (0x9e37_79b9 * (reader as u64 + 1)) | 1;
            let mut step = |m: usize| -> usize {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % m
            };
            while !stop.load(Ordering::Relaxed) {
                let epoch = match step(5) {
                    0 => {
                        let (epoch, top) = server.top_k(10).unwrap();
                        let guard = expected.lock().unwrap();
                        let (_, want) = guard.get(&epoch).expect("unpublished epoch");
                        assert_eq!(&top, want, "torn top_k at epoch {epoch}");
                        epoch
                    }
                    1 => {
                        let doc = DocId(step(base_docs));
                        let (epoch, score) = server.score(doc).unwrap();
                        let guard = expected.lock().unwrap();
                        let (snap, _) = guard.get(&epoch).expect("unpublished epoch");
                        assert_eq!(
                            score.to_bits(),
                            snap.scores()[doc.index()].to_bits(),
                            "torn score at epoch {epoch}"
                        );
                        epoch
                    }
                    2 => {
                        let docs = [first_doc, DocId(step(base_docs)), last_doc];
                        let (epoch, scores) = server.score_batch(&docs).unwrap();
                        let guard = expected.lock().unwrap();
                        let (snap, _) = guard.get(&epoch).expect("unpublished epoch");
                        let want: Vec<u64> = docs
                            .iter()
                            .map(|d| snap.scores()[d.index()].to_bits())
                            .collect();
                        let got: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                        assert_eq!(got, want, "torn cross-shard batch at epoch {epoch}");
                        epoch
                    }
                    3 => {
                        let doc = DocId(step(base_docs));
                        let (epoch, order) = server.compare(doc, last_doc).unwrap();
                        let guard = expected.lock().unwrap();
                        let (snap, _) = guard.get(&epoch).expect("unpublished epoch");
                        let scores = snap.scores();
                        let want = scores[doc.index()]
                            .partial_cmp(&scores[last_doc.index()])
                            .expect("finite scores")
                            .then(last_doc.cmp(&doc));
                        assert_eq!(order, want, "torn compare at epoch {epoch}");
                        epoch
                    }
                    _ => {
                        let site = SiteId(step(base_sites));
                        let (epoch, top) = server.top_k_for_site(site, 5).unwrap();
                        let guard = expected.lock().unwrap();
                        let (snap, _) = guard.get(&epoch).expect("unpublished epoch");
                        assert_eq!(
                            top,
                            expected_site_top(snap, site, 5),
                            "torn site top_k at epoch {epoch}"
                        );
                        epoch
                    }
                };
                verified.fetch_add(1, Ordering::Relaxed);
                last_epoch.store(epoch, Ordering::Relaxed);
            }
        }));
    }

    // Writer: apply deltas and hot-swap while the readers hammer.
    let mut current = base;
    for step in 0..8 {
        let delta = delta_for_step(&current, step);
        let (mutated, _) = current.apply(&delta).unwrap();
        engine.apply_delta(&delta).unwrap();
        record(&expected, &engine);
        server.publish(&engine.snapshot().unwrap()).unwrap();
        current = mutated;
    }
    let final_epoch = engine.epoch();
    assert_eq!(server.epoch(), final_epoch);

    // Let every reader verify at least a few responses *after* the last
    // swap, so the final epoch is provably served, then stop.
    let marks: Vec<u64> = verified
        .iter()
        .map(|v| v.load(Ordering::Relaxed) + 3)
        .collect();
    while verified
        .iter()
        .zip(&marks)
        .any(|(v, &m)| v.load(Ordering::Relaxed) < m)
    {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for handle in readers {
        handle.join().expect("reader thread panicked (torn read?)");
    }

    for (reader, v) in verified.iter().enumerate() {
        assert!(
            v.load(Ordering::Relaxed) >= 3,
            "reader {reader} verified too few responses"
        );
    }
    // After the writer finished, the readers' most recent responses must
    // come from the final epoch.
    for (reader, e) in final_epochs.iter().enumerate() {
        assert_eq!(
            e.load(Ordering::Relaxed),
            final_epoch,
            "reader {reader} stuck on a stale epoch"
        );
    }
    // The stream mixed re-pin swaps with rebuild swaps.
    let stats = server.stats();
    assert_eq!(stats.publishes, 8);
    assert!(stats.shards_rebuilt > 0);
    assert!(stats.shards_repinned > 0);
    assert_eq!(stats.latency.count(), stats.total_queries());
}

#[test]
fn serve_results_match_the_engine_cache_bitwise() {
    // The serve tier and the engine cache must agree bit for bit on every
    // query type, at the initial epoch and after a localized delta.
    let base = campus();
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .threads(1)
        .build()
        .unwrap();
    engine.rank(&base).unwrap();
    let server = ShardedServer::start(
        ShardMap::balanced(&base, 3).unwrap(),
        &engine.snapshot().unwrap(),
        ServeConfig::default(),
    )
    .unwrap();

    let check = |engine: &RankEngine, server: &ShardedServer, n_sites: usize| {
        let (_, top) = server.top_k(20).unwrap();
        assert_eq!(top, engine.top_k(20).unwrap());
        for s in 0..n_sites {
            let (_, site_top) = server.top_k_for_site(SiteId(s), 4).unwrap();
            assert_eq!(site_top, engine.top_k_for_site(SiteId(s), 4).unwrap());
        }
        for d in (0..base.n_docs()).step_by(37) {
            let (_, score) = server.score(DocId(d)).unwrap();
            assert_eq!(score.to_bits(), engine.score(DocId(d)).unwrap().to_bits());
        }
    };
    check(&engine, &server, base.n_sites());

    // Localized delta: rewire inside one site; only its shard rebuilds.
    let mut delta = GraphDelta::for_graph(&base);
    let docs = base.docs_of_site(SiteId(4));
    delta.remove_link(docs[0], docs[1]).unwrap();
    delta.add_link(docs[1], docs[0]).unwrap();
    engine.apply_delta(&delta).unwrap();
    let report = server.publish(&engine.snapshot().unwrap()).unwrap();
    assert_eq!(report.shards_rebuilt, 1);
    assert_eq!(report.shards_repinned, 2);
    check(&engine, &server, base.n_sites());
}
