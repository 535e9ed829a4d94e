//! The sharded serving tier end to end: rank a campus web, shard it by
//! site, serve epoch-consistent queries on the caller's thread, then mutate
//! the graph live and hot-swap the new snapshot — watching which shards
//! rebuild and which merely re-pin.
//!
//! Run with: `cargo run --release --example serving_tier`

use lmm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = CampusWebConfig::small();
    cfg.spam_farms.clear();
    let graph = cfg.generate()?;
    println!(
        "graph: {} docs, {} sites, {} links",
        graph.n_docs(),
        graph.n_sites(),
        graph.n_links()
    );

    // The incremental backend maintains state so deltas re-rank locally.
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .build()?;
    engine.rank(&graph)?;

    // Shard by site (document-balanced contiguous site ranges) and start
    // serving: every query answers on the calling thread.
    let map = ShardMap::balanced(&graph, 4)?;
    for shard in 0..map.n_shards() {
        let sites = map.sites_of_shard(shard);
        let docs: usize = sites.clone().map(|s| graph.site_size(SiteId(s))).sum();
        println!("shard {shard}: sites {sites:?} ({docs} docs)");
    }
    let server = ShardedServer::start(map, &engine.snapshot()?, ServeConfig::default())?;

    let (epoch, top) = server.top_k(5)?;
    println!("\nepoch {epoch} top-5 (bitwise equal to the engine cache):");
    for (doc, score) in &top {
        println!("  {score:.6}  {}", graph.url(*doc));
    }
    assert_eq!(top, engine.top_k(5)?);

    // A batch answers from one epoch even across shards; compares are
    // epoch-consistent pairs.
    let (_, scores) = server.score_batch(&[DocId(0), DocId(7), DocId(42)])?;
    println!("batched scores: {scores:?}");
    let (_, order) = server.compare(DocId(0), DocId(42))?;
    println!("doc 0 vs doc 42: {order:?}");

    // Live mutation: rewire one site internally. Only that site's shard
    // rebuilds its heaps — the other shards re-pin their stores.
    let site = SiteId(3);
    let docs = graph.docs_of_site(site);
    let mut delta = GraphDelta::for_graph(&graph);
    delta.remove_link(docs[0], docs[1])?;
    delta.add_link(docs[1], docs[0])?;
    engine.apply_delta(&delta)?;
    let report = server.publish(&engine.snapshot()?)?;
    println!(
        "\npublished epoch {}: {} shard(s) rebuilt, {} re-pinned",
        report.epoch, report.shards_rebuilt, report.shards_repinned
    );
    assert_eq!(report.shards_rebuilt, 1);

    let (epoch, top) = server.top_k(5)?;
    assert_eq!(epoch, engine.epoch());
    assert_eq!(top, engine.top_k(5)?);
    println!("epoch {epoch} serves the mutated ranking, still bitwise-exact");
    Ok(())
}
