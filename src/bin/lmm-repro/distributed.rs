//! §3.2's deployment: what each architecture moves over the (simulated)
//! wire on the campus web, read from the `RankEngine`'s telemetry sink,
//! and a message-loss sweep showing the protocol converges to the same
//! ranking while paying retransmission traffic.

use std::sync::Arc;

use lmm::engine::{BackendSpec, MemorySink, RankOutcome};
use lmm::p2p::runner::{run_distributed, Architecture, DistributedConfig};
use lmm::p2p::FaultConfig;

use crate::{campus_config, experiment_engine, section, Claims, Result, Table};

pub fn run(full: bool, claims: &mut Claims) -> Result {
    let mut cfg = campus_config(full);
    // Traffic scales are clearer on a mid-size instance; trim the default.
    if !full {
        cfg.total_docs = 20_000;
    }
    let graph = cfg.generate()?;
    section("Deployment comparison (engine telemetry)");
    println!(
        "graph: {} docs, {} sites, {} links\n",
        graph.n_docs(),
        graph.n_sites(),
        graph.n_links()
    );

    let sink = Arc::new(MemorySink::new());
    let mut table = Table::new(&["backend", "messages", "bytes", "rounds", "wall"]);
    let mut flat: Option<RankOutcome> = None;
    for architecture in [
        Architecture::Flat,
        Architecture::SuperPeer { n_groups: 16 },
        Architecture::Hybrid,
        Architecture::Centralized,
    ] {
        let backend = BackendSpec::Distributed { architecture };
        let mut engine = experiment_engine(backend).telemetry(sink.clone()).build()?;
        let outcome = engine.rank(&graph)?.clone();
        let t = &outcome.telemetry;
        table.row(vec![
            outcome.backend.clone(),
            t.messages.to_string(),
            t.bytes.to_string(),
            t.site_iterations.to_string(),
            format!("{:.2?}", t.wall),
        ]);
        match architecture {
            Architecture::Flat => flat = Some(outcome),
            // Centralized ranks by flat PageRank: different semantics.
            Architecture::Centralized => {}
            _ => {
                let reference = flat.as_ref().ok_or("the flat architecture runs first")?;
                let l1 = outcome.compare(reference, 15)?.l1;
                claims.within(&format!("{architecture} = flat p2p (L1)"), l1, 0.0, 1e-6);
            }
        }
    }
    print!("{table}");
    println!(
        "\n{} runs recorded by the shared telemetry sink",
        sink.len()
    );

    section("Phase breakdown (flat architecture; low-level simulator view)");
    println!(
        "{}",
        run_distributed(&graph, &DistributedConfig::default())?.stats
    );

    section("Message-loss sweep (flat architecture)");
    let clean = flat.ok_or("the flat architecture ran")?;
    let mut table = Table::new(&["loss", "messages", "retransmissions", "result drift"]);
    for drop_prob in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let mut builder = experiment_engine(BackendSpec::Distributed {
            architecture: Architecture::Flat,
        });
        if drop_prob > 0.0 {
            builder = builder.fault(FaultConfig { drop_prob, seed: 3 });
        }
        let mut engine = builder.build()?;
        let outcome = engine.rank(&graph)?;
        table.row(vec![
            format!("{:.0}%", drop_prob * 100.0),
            outcome.telemetry.messages.to_string(),
            outcome.telemetry.retransmissions.to_string(),
            format!("{:.2e}", outcome.compare(&clean, 15)?.l1),
        ]);
    }
    print!("{table}");
    Ok(())
}
