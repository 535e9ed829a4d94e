//! Baselines and design-choice ablations on a 12k-page campus web:
//! BlockRank's contrast with the layered method (Section 3.2's
//! discussion) and HITS, personalization at the site layer, and the
//! SiteGraph construction choices — SiteLink weighting, self-loops and
//! the damping factor.

use std::time::Instant;

use lmm::core::personalize::PersonalizationBuilder;
use lmm::engine::BackendSpec;
use lmm::graph::generator::CampusWebConfig;
use lmm::graph::sitegraph::{SiteGraphOptions, SiteLinkWeighting};
use lmm::graph::SiteId;
use lmm::rank::blockrank::blockrank;
use lmm::rank::hits::{hits, HitsConfig};
use lmm::rank::metrics::{kendall_tau, top_k_overlap};
use lmm::rank::pagerank::PageRankConfig;

use crate::{experiment_engine, section, spam15, Claims, Result, Table, LAYERED};

pub fn run(_full: bool, _claims: &mut Claims) -> Result {
    let mut cfg = CampusWebConfig::paper_scale();
    cfg.total_docs = 12_000; // ablations sweep many variants; keep each cheap
    cfg.spam_farms[0].n_pages = 1_000;
    cfg.spam_farms[1].n_pages = 600;
    let graph = cfg.generate()?;
    let spam = graph.spam_labels();
    let layered = experiment_engine(LAYERED).build()?.rank(&graph)?.clone();
    let mut flat_engine = experiment_engine(BackendSpec::FlatPageRank).build()?;
    let flat = flat_engine.rank(&graph)?;

    section("BlockRank vs the layered method");
    let site_labels: Vec<usize> = graph.site_assignments().iter().map(|s| s.index()).collect();
    let start = Instant::now();
    let config = PageRankConfig::default();
    let block = blockrank(graph.adjacency(), &site_labels, graph.n_sites(), &config)?;
    let approx = &block.approximation;
    println!(
        "  BlockRank total time (serialized stages): {:.2?}",
        start.elapsed()
    );
    println!(
        "  warm-started global refinement iterations: {}",
        block.warm_iterations
    );
    println!(
        "  tau(BlockRank approx, flat PageRank)  = {:.3}",
        kendall_tau(approx, &flat.ranking)
    );
    println!(
        "  tau(BlockRank approx, layered method) = {:.3}",
        kendall_tau(approx, &layered.ranking)
    );
    println!(
        "  spam@15: BlockRank approx {}, refined {}, layered {}",
        spam15(approx, &spam),
        spam15(&block.refined.ranking, &spam),
        spam15(&layered.ranking, &spam),
    );
    println!("  note: BlockRank's block weights need the local ranks first (serial);");
    println!("        the LMM SiteGraph uses raw link counts (parallel).");

    section("HITS baseline (authorities)");
    let h = hits(graph.adjacency(), &HitsConfig::default())?;
    println!(
        "  spam@15 HITS authorities: {} (TKC effect; cf. the paper's HITS critique)",
        spam15(&h.authorities, &spam)
    );

    section("Personalization summary (site layer)");
    let mut table = Table::new(&["boost", "site rank", "boosted", "tau vs neutral"]);
    for (label, boost_site) in [("physics dept", 10usize), ("tail dept", 150usize)] {
        let v = PersonalizationBuilder::new(graph.n_sites())
            .baseline(0.4)
            .boost(boost_site, 1.0)
            .build()?;
        let mut engine = experiment_engine(LAYERED).site_personalization(v).build()?;
        engine.rank(&graph)?;
        let site = SiteId(boost_site);
        let no_site_layer = "the layered backend has a site layer";
        let neutral = layered.site_score(site)?.ok_or(no_site_layer)?;
        let boosted = engine.site_score(site)?.ok_or(no_site_layer)?;
        let tau = kendall_tau(&layered.ranking, &engine.outcome()?.ranking);
        table.row(vec![
            label.to_string(),
            format!("{neutral:.4}"),
            format!("{boosted:.4}"),
            format!("{tau:.3}"),
        ]);
    }
    print!("{table}");

    section("SiteGraph construction (default: link counts, no self-loops)");
    let mut table = Table::new(&["site graph", "tau vs default", "spam@15", "top15 ovl"]);
    for (name, weighting, include_self_loops) in [
        ("link counts", SiteLinkWeighting::LinkCount, false),
        ("uniform", SiteLinkWeighting::Uniform, false),
        ("log counts", SiteLinkWeighting::LogCount, false),
        ("self-loops", SiteLinkWeighting::LinkCount, true),
    ] {
        let options = SiteGraphOptions {
            weighting,
            include_self_loops,
        };
        let mut engine = experiment_engine(LAYERED).site_options(options).build()?;
        let r = engine.rank(&graph)?;
        let overlap = 100.0 * top_k_overlap(&layered.ranking, &r.ranking, 15);
        table.row(vec![
            name.to_string(),
            format!("{:.3}", kendall_tau(&layered.ranking, &r.ranking)),
            spam15(&r.ranking, &spam),
            format!("{overlap:.0}%"),
        ]);
    }
    print!("{table}");

    section("Damping sweep (both layers)");
    let mut table = Table::new(&["damping", "PR spam@15", "LMM spam@15", "tau(PR,LMM)"]);
    for f in [0.5, 0.7, 0.85, 0.95] {
        let mut flat_engine = experiment_engine(BackendSpec::FlatPageRank)
            .damping(f)
            .build()?;
        let fr = flat_engine.rank(&graph)?;
        let mut layered_engine = experiment_engine(LAYERED).damping(f).build()?;
        let lr = layered_engine.rank(&graph)?;
        table.row(vec![
            f.to_string(),
            spam15(&fr.ranking, &spam),
            spam15(&lr.ranking, &spam),
            format!("{:.3}", kendall_tau(&fr.ranking, &lr.ranking)),
        ]);
    }
    print!("{table}");
    Ok(())
}
