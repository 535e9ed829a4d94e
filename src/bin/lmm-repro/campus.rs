//! Figures 3 and 4 on the synthetic campus web (218 sites, ≈50k pages;
//! ≈433k with `--full`): the top-15 lists of flat PageRank (Figure 3) and
//! of the layered method (Figure 4), their spam shares, and the in-degree
//! of the most-linked farm page the paper's narrative dwells on.

use std::time::Instant;

use lmm::engine::BackendSpec;
use lmm::graph::stats::summarize;
use lmm::graph::DocId;
use lmm::rank::{metrics, Ranking};

use crate::{
    campus_config, experiment_engine, section, top_k_table, Claims, Result, Table, LAYERED,
};

pub fn run(full: bool, claims: &mut Claims) -> Result {
    let cfg = campus_config(full);
    let start = Instant::now();
    let graph = cfg.generate()?;
    let gen_time = start.elapsed();
    section("Campus web (synthetic stand-in for the EPFL crawl)");
    println!("{}", summarize(&graph));
    println!("generated in {gen_time:.2?} (seed {})", cfg.seed);

    // The paper's top spam page collected 17004 in-links on 433k pages.
    let indeg = graph.in_degrees();
    let spam = graph.spam_labels();
    let top_spam = (0..graph.n_docs())
        .filter(|&d| spam[d])
        .max_by_key(|&d| indeg[d])
        .ok_or("the campus web has no spam farm")?;
    println!(
        "most-linked spam page: {} with {} in-links",
        graph.url(DocId(top_spam)),
        indeg[top_spam]
    );

    let mut flat_engine = experiment_engine(BackendSpec::FlatPageRank).build()?;
    let flat = flat_engine.rank(&graph)?.clone();
    let mut layered_engine = experiment_engine(LAYERED).build()?;
    let layered = layered_engine.rank(&graph)?.clone();

    section("Figure 3 analogue: top 15 by flat PageRank");
    print!("{}", top_k_table(&graph, &flat.ranking, 15));
    let t = &flat.telemetry;
    println!("  [{} iterations, {:.2?} wall]", t.site_iterations, t.wall);

    section("Figure 4 analogue: top 15 by the LMM-based layered method");
    print!("{}", top_k_table(&graph, &layered.ranking, 15));
    let t = &layered.telemetry;
    println!(
        "  [site: {} iters; locals: {} total / {} critical path; {:.2?} wall]",
        t.site_iterations, t.total_local_iterations, t.max_local_iterations, t.wall
    );

    section("Spam share of the top k");
    let share = |ranking: &Ranking, k| 100.0 * metrics::labeled_share_at_k(ranking, &spam, k);
    let mut table = Table::new(&["k", "PageRank", "Layered"]);
    for k in [10, 15, 25, 50, 100] {
        table.row(vec![
            k.to_string(),
            format!("{:.1}%", share(&flat.ranking, k)),
            format!("{:.1}%", share(&layered.ranking, k)),
        ]);
    }
    print!("{table}");
    println!("  {}", layered.compare(&flat, 15)?);

    // tests/pipeline.rs holds the same floor and zero on the small web.
    let flat_share = metrics::labeled_share_at_k(&flat.ranking, &spam, 15);
    claims.at_least("Fig. 3: spam share of flat top 15", flat_share, 0.3);
    let layered_spam = layered.ranking.top_k(15).into_iter().filter(|&d| spam[d]);
    claims.exact(
        "Fig. 4: spam pages in layered top 15",
        layered_spam.count(),
        0,
    );
    Ok(())
}
