//! The metric registry, the values a run measured, and the two output
//! forms: the one-line result object and the full result file.
//!
//! The registry is the single list of metric names. `BENCHMARK.json` is
//! generated from it (`lmm-benchmark manifest`) and a unit test holds the
//! committed file to it.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Gated: the median may worsen by at most `bound` (a share of the
    /// parent's median) before a change is a regression.
    EndToEnd { bound: f64 },
    /// Attribution only, never gated. `exact` counters must repeat exactly
    /// for a fixed seed; `compare` fails on any mismatch.
    PerLayer { exact: bool },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::PerLayer { exact: false },
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        kind: Kind::PerLayer { exact: false },
    }
}

/// A counter that must repeat exactly for a fixed seed (the `#` counters
/// of the README tables).
const fn exact(name: &'static str) -> Def {
    Def {
        name,
        unit: "count",
        better: Better::Lower,
        kind: Kind::PerLayer { exact: true },
    }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first. Which layer metric should move which
/// end-to-end metric, on which workload, is tabulated in the README.
pub const METRICS: &[Def] = &[
    // -- end to end ----------------------------------------------------
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rank_layered_s", "s", Lower, 0.25),
    e2e("rank_flat_s", "s", Lower, 0.25),
    e2e("rank_distributed_s", "s", Lower, 0.25),
    e2e("rank_distributed_bytes", "bytes", Lower, 0.001),
    e2e("freshness_inproc_local_ms", "ms", Lower, 0.20),
    e2e("freshness_inproc_global_ms", "ms", Lower, 0.20),
    e2e("point_qps", "1/s", Higher, 0.25),
    e2e("freshness_cluster_ms", "ms", Lower, 0.25),
    // -- demoted from end to end (printed, never gated) ----------------
    layer("query_p99_us", "us"),
    layer_up("top_k_qps", "1/s"),
    layer("cluster_point_p50_us", "us"),
    layer("cluster_top_k_p50_us", "us"),
    layer_up("cluster_qps", "1/s"),
    // -- graph ----------------------------------------------------------
    layer("graph.generate_s", "s"),
    layer("graph.shard_map_ms", "ms"),
    layer("graph.apply_delta_ms", "ms"),
    layer("graph.site_graph_ms", "ms"),
    exact("graph.delta_ops"),
    // -- linalg / rank --------------------------------------------------
    exact("linalg.flat_iters"),
    layer("linalg.ns_per_nnz_iter", "ns"),
    layer("rank.pagerank_s", "s"),
    // -- core -----------------------------------------------------------
    layer("core.layered_doc_rank_s", "s"),
    exact("core.site_iters"),
    exact("core.local_iters_total"),
    exact("core.local_iters_max"),
    layer("core.layered_fullscale_s", "s"),
    layer("core.incremental_update_ms", "ms"),
    layer("core.diff_sites_ms", "ms"),
    exact("core.sites_recomputed"),
    exact("core.sites_reused"),
    layer_up("core.reuse_ratio", "ratio"),
    // -- par ------------------------------------------------------------
    layer_up("par.layered_speedup_2t", "ratio"),
    layer_up("par.flat_speedup_2t", "ratio"),
    // -- engine ---------------------------------------------------------
    layer("engine.rank_self_s", "s"),
    layer("engine.apply_delta_local_ms", "ms"),
    layer("engine.apply_delta_global_ms", "ms"),
    layer("engine.apply_delta_removal_ms", "ms"),
    layer("engine.apply_self_ms", "ms"),
    layer("engine.snapshot_us", "us"),
    layer("engine.cache_top_k_us", "us"),
    // -- serve ----------------------------------------------------------
    layer("serve.start_ms", "ms"),
    layer("serve.publish_local_ms", "ms"),
    layer("serve.publish_global_ms", "ms"),
    layer("serve.publish_removal_ms", "ms"),
    layer("serve.shard_build_ms", "ms"),
    exact("serve.shards_rebuilt"),
    exact("serve.shards_repinned"),
    exact("serve.shards_refreshed"),
    layer("serve.score_ns", "ns"),
    layer("serve.batch16_ns", "ns"),
    layer("serve.site_top_k_ns", "ns"),
    layer("serve.compare_ns", "ns"),
    layer("serve.top_k_us", "us"),
    layer("serve.rate_5k.p99_us", "us"),
    layer("serve.rate_20k.p99_us", "us"),
    layer("serve.rate_40k.p99_us", "us"),
    layer_up("serve.max_rate_qps", "1/s"),
    layer("serve.gen_lag_max_us", "us"),
    layer("serve.swap_p99_us", "us"),
    layer_up("serve.churn_read_qps", "1/s"),
    layer_up("serve.direct_hits", "count"),
    layer("serve.fanout_queries", "count"),
    layer("serve.gather_retries", "count"),
    layer("serve.gate_escalations", "count"),
    // -- cluster --------------------------------------------------------
    layer("cluster.wire.encode_segment_ms", "ms"),
    layer("cluster.wire.decode_segment_ms", "ms"),
    exact("cluster.wire.segment_bytes"),
    layer("cluster.wire.point_codec_ns", "ns"),
    layer("cluster.transport.rtt_us", "us"),
    layer("cluster.transport.dial_ms", "ms"),
    layer("cluster.controller.publish_local_ms", "ms"),
    layer("cluster.controller.publish_global_ms", "ms"),
    layer("cluster.controller.publish_removal_ms", "ms"),
    layer("cluster.controller.max_fanout_ms", "ms"),
    exact("cluster.controller.publish_attempts"),
    layer("cluster.controller.bytes_out_per_publish", "bytes"),
    layer("cluster.controller.start_ms", "ms"),
    layer("cluster.node.start_ms", "ms"),
    layer("cluster.first_publish_ms", "ms"),
    layer("cluster.client.first_answer_ms", "ms"),
    layer("cluster.client.score_us", "us"),
    layer("cluster.client.batch16_us", "us"),
    layer("cluster.client.site_top_k_us", "us"),
    layer("cluster.client.compare_us", "us"),
    layer("cluster.client.top_k_us", "us"),
    layer("cluster.client.gather_retries", "count"),
    layer("cluster.client.gather_escalations", "count"),
    layer("cluster.client.placement_refreshes", "count"),
    layer("cluster.client.reconnects", "count"),
    layer("cluster.client.node_failures", "count"),
    layer("cluster.client.bytes_per_query", "bytes"),
    layer_up("cluster.node.queries", "count"),
    layer("cluster.node.staged_expired", "count"),
    layer("cluster.node.aborted", "count"),
    // -- p2p ------------------------------------------------------------
    exact("p2p.messages"),
    exact("p2p.bytes"),
    exact("p2p.rounds"),
    exact("p2p.retransmissions"),
    exact("p2p.superpeer_bytes"),
    // -- trace ----------------------------------------------------------
    layer_up("trace.freshness_children_pct", "%"),
    layer("trace_overhead_pct", "%"),
];

pub fn def(name: &str) -> Option<&'static Def> {
    METRICS.iter().find(|d| d.name == name)
}

pub fn end_to_end() -> impl Iterator<Item = &'static Def> {
    METRICS
        .iter()
        .filter(|d| matches!(d.kind, Kind::EndToEnd { .. }))
}

pub fn per_layer() -> impl Iterator<Item = &'static Def> {
    METRICS
        .iter()
        .filter(|d| matches!(d.kind, Kind::PerLayer { .. }))
}

/// One measured metric: the reported value and, for a timing, the sample
/// summary it is the median of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: Option<Summary>,
}

/// The metrics one run measured, by registry name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

/// The registry's own spelling of `name`; a name it does not hold is a
/// bug in the harness.
fn registered(name: &str) -> &'static str {
    def(name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
        .name
}

impl Metrics {
    /// A single value: a count, a rate, a ratio.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = registered(name);
        self.0.insert(
            name,
            Measured {
                value,
                samples: None,
            },
        );
    }

    /// The median of `samples`, each scaled by `scale` (timings are taken
    /// in seconds; `1e3` reports milliseconds). Skipped when there are none.
    pub fn median_of(&mut self, name: &str, samples: &[f64], scale: f64) {
        if samples.is_empty() {
            return;
        }
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        let summary = Summary::of(&scaled);
        let name = registered(name);
        self.0.insert(
            name,
            Measured {
                value: summary.median,
                samples: Some(summary),
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Measured)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

/// The result object printed as the last line of standard output: every
/// end-to-end metric of an untraced run, every per-layer metric of a
/// traced one (zero where the workload does not exercise the layer).
pub fn result_line(metrics: &Metrics, traced: bool, attempted: u64, failed: u64) -> String {
    let wanted: Vec<&Def> = if traced {
        per_layer().collect()
    } else {
        end_to_end().collect()
    };
    let values = wanted.into_iter().map(|d| {
        (
            d.name,
            Json::obj([
                ("value", Json::Num(metrics.get(d.name).unwrap_or(0.0))),
                ("unit", Json::str(d.unit)),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(values)),
    ])
    .to_line()
}

/// A human-readable table of everything measured, registry order.
pub fn table(metrics: &Metrics) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in METRICS {
        let Some(m) = metrics.0.get(d.name) else {
            continue;
        };
        let _ = write!(out, "  {:<42} {:>16.6} {:<6}", d.name, m.value, d.unit);
        if let Some(s) = m.samples {
            let _ = write!(out, " q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n);
        }
        out.push('\n');
    }
    out
}

/// The full result file: envelope plus every metric measured.
pub fn result_file(envelope: Vec<(&'static str, Json)>, metrics: &Metrics) -> Json {
    let values = metrics.iter().map(|(name, m)| {
        let d = def(name).expect("registered");
        let mut fields = vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::str(d.unit)),
            (
                "better",
                Json::str(if d.better == Lower { "lower" } else { "higher" }),
            ),
        ];
        match d.kind {
            Kind::EndToEnd { bound } => fields.push(("bound", Json::Num(bound))),
            Kind::PerLayer { exact } => fields.push(("exact", Json::Bool(exact))),
        }
        if let Some(s) = m.samples {
            fields.push(("q1", Json::Num(s.q1)));
            fields.push(("q3", Json::Num(s.q3)));
            fields.push(("n", Json::Num(s.n as f64)));
        }
        (name, Json::obj(fields))
    });
    let mut pairs = envelope;
    pairs.push(("metrics", Json::obj(values)));
    Json::obj(pairs)
}

/// `BENCHMARK.json`, generated from the registry and the workload list.
pub fn manifest(workloads: &[(&str, &str)], run_seconds: u32) -> Json {
    let better = |d: &Def| Json::str(if d.better == Lower { "lower" } else { "higher" });
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                end_to_end()
                    .map(|d| {
                        let Kind::EndToEnd { bound } = d.kind else {
                            unreachable!("filtered")
                        };
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d)),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in METRICS {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            if let Kind::EndToEnd { bound } = d.kind {
                assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
            }
        }
        assert!((1..=16).contains(&end_to_end().count()));
        assert!((1..=128).contains(&per_layer().count()));
        assert!(matches!(
            def("setup_s").unwrap().kind,
            Kind::EndToEnd { .. }
        ));
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        m.median_of("rank_layered_s", &[0.07, 0.08, 0.09], 1.0);
        m.set("p2p.bytes", 1234.0);
        let line = result_line(&m, false, 10, 0);
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(10.0));
        let got: Vec<&str> = v
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = end_to_end().map(|d| d.name).collect();
        assert_eq!(got, want);
        let layered = v.get("metrics").unwrap().get("rank_layered_s").unwrap();
        assert_eq!(layered.get("value").and_then(Json::as_f64), Some(0.08));
        assert_eq!(layered.get("unit").and_then(Json::as_str), Some("s"));

        let traced = Json::parse(&result_line(&m, true, 10, 2)).unwrap();
        assert_eq!(traced.get("correct").and_then(Json::as_bool), Some(false));
        let layers = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(layers.len(), per_layer().count());
        assert_eq!(
            traced
                .get("metrics")
                .unwrap()
                .get("p2p.bytes")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(1234.0)
        );
        assert!(traced.get("metrics").unwrap().get("setup_s").is_none());
    }

    #[test]
    fn result_file_round_trips() {
        let mut m = Metrics::default();
        m.median_of("freshness_cluster_ms", &[0.09, 0.1, 0.11, 0.12], 1e3);
        m.set("graph.delta_ops", 420.0);
        let file = result_file(
            vec![
                ("workload", Json::str("cluster_e2e")),
                ("seed", Json::Num(3.0)),
            ],
            &m,
        );
        let back = Json::parse(&file.to_pretty()).unwrap();
        assert_eq!(back, file);
        let f = back
            .get("metrics")
            .unwrap()
            .get("freshness_cluster_ms")
            .unwrap();
        assert_eq!(f.get("n").and_then(Json::as_f64), Some(4.0));
        assert_eq!(f.get("bound").and_then(Json::as_f64), Some(0.25));
        let ops = back.get("metrics").unwrap().get("graph.delta_ops").unwrap();
        assert_eq!(ops.get("exact").and_then(Json::as_bool), Some(true));
    }
}
