//! The mechanism behind Figures 3 and 4: one spam farm of growing size on
//! the small campus web. The farm hijacks flat PageRank's top 15 as it
//! grows, while the layered method caps its host site's influence through
//! the SiteRank factor.

use lmm::engine::BackendSpec;
use lmm::graph::generator::CampusWebConfig;
use lmm::rank::metrics::kendall_tau;

use crate::{experiment_engine, section, spam15, Claims, Result, Table, LAYERED};

pub fn run(_full: bool, _claims: &mut Claims) -> Result {
    section("Spam-farm size sweep (one farm; small campus web; k = 15)");
    let mut table = Table::new(&["farm pages", "PR spam@15", "LMM spam@15", "tau(PR,LMM)"]);
    for farm_pages in [0usize, 100, 200, 400, 800] {
        let mut cfg = CampusWebConfig::small();
        cfg.spam_farms.truncate(1);
        if farm_pages == 0 {
            cfg.spam_farms.clear();
        } else {
            cfg.spam_farms[0].n_pages = farm_pages;
            // Bigger farms afford more hub pages — each hub is another
            // top-k slot the farm can capture under flat PageRank.
            cfg.spam_farms[0].n_targets = (farm_pages / 80).clamp(2, 10);
        }
        let graph = cfg.generate()?;
        let spam = graph.spam_labels();
        let mut flat_engine = experiment_engine(BackendSpec::FlatPageRank).build()?;
        let flat = flat_engine.rank(&graph)?;
        let mut layered_engine = experiment_engine(LAYERED).build()?;
        let layered = layered_engine.rank(&graph)?;
        let tau = kendall_tau(&flat.ranking, &layered.ranking);
        table.row(vec![
            farm_pages.to_string(),
            spam15(&flat.ranking, &spam),
            spam15(&layered.ranking, &spam),
            format!("{tau:.3}"),
        ]);
    }
    print!("{table}");
    Ok(())
}
