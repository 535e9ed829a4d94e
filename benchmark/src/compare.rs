//! `compare`: two sets of result files, side by side.
//!
//! For every workload and metric it prints each set's median and
//! quartiles over its runs, the change, the bound and a verdict. A gated
//! metric is `worse` when the second set's median is worse than the
//! first's by more than the bound, and `unresolved` when that cannot be
//! told — the spread of a set exceeds the bound and the two sets' runs
//! overlap. Exact counters are compared run by run, per seed, and any
//! mismatch fails the comparison, as does any `worse`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::report::{self, Better, Kind};
use crate::stats::Summary;

/// One result file, reduced to what `compare` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl RunFile {
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let v = Json::parse(text)?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("result file has no \"{k}\""))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(RunFile {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            traced: field("traced")?
                .as_bool()
                .ok_or("\"traced\" is not a boolean")?,
            seed: field("seed")?.as_f64().ok_or("\"seed\" is not a number")? as u64,
            failed: field("ops_failed")?
                .as_f64()
                .ok_or("\"ops_failed\" is not a number")? as u64,
            metrics,
        })
    }
}

/// Reads every `*.json` result file of a directory (or the one file named).
pub fn load(path: &Path) -> Result<Vec<RunFile>, String> {
    let mut files: Vec<_> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|text| RunFile::parse(&text))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// An exact counter differs between two runs of one seed.
    Mismatch,
    /// Not gated: a per-layer timing, printed for attribution.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Info => "",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one gated metric from the two sets' run values.
pub fn gate(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if (sa.spread() > bound || sb.spread() > bound) && overlap {
        Verdict::Unresolved
    } else if worsening(better, sa.median, sb.median) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares two sets; returns the printed table and whether the
/// comparison passed (no `worse`, no mismatch, no failed operation).
pub fn compare(a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let failed: u64 = a.iter().chain(b).map(|r| r.failed).sum();
    if failed > 0 {
        let _ = writeln!(out, "{failed} operations failed across the two sets");
        pass = false;
    }
    let mut groups: Vec<(String, bool)> = a
        .iter()
        .chain(b)
        .map(|r| (r.workload.clone(), r.traced))
        .collect();
    groups.sort();
    groups.dedup();
    for (workload, traced) in groups {
        let of = |r: &&RunFile| r.workload == workload && r.traced == traced;
        let (ra, rb): (Vec<&RunFile>, Vec<&RunFile>) =
            (a.iter().filter(of).collect(), b.iter().filter(of).collect());
        let _ = writeln!(
            out,
            "\n{workload} ({}; {} vs {} runs)",
            if traced { "traced" } else { "untraced" },
            ra.len(),
            rb.len()
        );
        let _ = writeln!(
            out,
            "  {:<42} {:>14} {:>9} {:>14} {:>9} {:>8} {:>6}  verdict",
            "metric", "median A", "iqr% A", "median B", "iqr% B", "change%", "bound%"
        );
        for d in report::METRICS {
            let values = |set: &[&RunFile]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(d.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let (verdict, bound) = match d.kind {
                Kind::EndToEnd { bound } => (gate(d.better, bound, &va, &vb), Some(bound)),
                Kind::PerLayer { exact: true } => {
                    // Same seed, same count — within a set and across sets.
                    let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                    for r in ra.iter().chain(&rb) {
                        if let Some(&v) = r.metrics.get(d.name) {
                            by_seed.entry(r.seed).or_default().push(v);
                        }
                    }
                    let same = by_seed.values().all(|v| v.iter().all(|&x| x == v[0]));
                    (if same { Verdict::Ok } else { Verdict::Mismatch }, None)
                }
                Kind::PerLayer { exact: false } => (Verdict::Info, None),
            };
            pass &= !matches!(verdict, Verdict::Worse | Verdict::Mismatch);
            let _ = writeln!(
                out,
                "  {:<42} {:>14.6} {:>9.2} {:>14.6} {:>9.2} {:>+8.2} {:>6}  {}",
                d.name,
                sa.median,
                100.0 * sa.spread(),
                sb.median,
                100.0 * sb.spread(),
                100.0 * worsening(Better::Lower, sa.median, sb.median),
                bound.map_or(String::new(), |b| format!("{}", (1e4 * b).round() / 100.0)),
                verdict.label()
            );
        }
    }
    let _ = writeln!(out, "\ncompare: {}", if pass { "pass" } else { "FAIL" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> RunFile {
        RunFile {
            workload: workload.into(),
            traced: false,
            seed,
            failed: 0,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn gate_tells_ok_worse_and_unresolved_apart() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            gate(
                Better::Lower,
                0.10,
                &steady,
                &[1.03, 1.02, 1.04, 1.03, 1.01]
            ),
            Verdict::Ok
        );
        assert_eq!(
            gate(
                Better::Lower,
                0.10,
                &steady,
                &[1.20, 1.21, 1.19, 1.22, 1.20]
            ),
            Verdict::Worse
        );
        // Faster is never worse; for a rate, lower is.
        assert_eq!(
            gate(Better::Lower, 0.10, &steady, &[0.5, 0.51, 0.5, 0.49, 0.5]),
            Verdict::Ok
        );
        assert_eq!(
            gate(Better::Higher, 0.10, &steady, &[0.5, 0.51, 0.5, 0.49, 0.5]),
            Verdict::Worse
        );
        // A set wider than the bound whose runs overlap the other's.
        let noisy = [0.8, 1.3, 1.0, 1.6, 0.9];
        assert_eq!(
            gate(Better::Lower, 0.10, &steady, &noisy),
            Verdict::Unresolved
        );
        // Wide, but every run of B is above every run of A: resolved.
        assert_eq!(
            gate(Better::Lower, 0.10, &steady, &[2.0, 2.6, 3.1, 2.2, 2.9]),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_fails_on_worse_and_on_counter_mismatch() {
        let a = vec![
            run(
                "rank_cold",
                1,
                &[("rank_flat_s", 0.18), ("p2p.bytes", 100.0)],
            ),
            run(
                "rank_cold",
                2,
                &[("rank_flat_s", 0.18), ("p2p.bytes", 120.0)],
            ),
        ];
        let (table, pass) = compare(&a, &a);
        assert!(pass, "{table}");
        assert!(table.contains("rank_flat_s") && table.contains("compare: pass"));

        let mut slower = a.clone();
        for r in &mut slower {
            r.metrics.insert("rank_flat_s".into(), 0.25);
        }
        let (table, pass) = compare(&a, &slower);
        assert!(!pass && table.contains("worse"), "{table}");

        let mut drifted = a.clone();
        drifted[1].metrics.insert("p2p.bytes".into(), 121.0);
        let (table, pass) = compare(&a, &drifted);
        assert!(!pass && table.contains("MISMATCH"), "{table}");

        let mut broken = a.clone();
        broken[0].failed = 3;
        assert!(!compare(&a, &broken).1);
    }

    #[test]
    fn result_files_parse() {
        let text = r#"{"workload": "cluster_e2e", "seed": 4, "traced": true, "ops_failed": 0,
            "metrics": {"cluster_qps": {"value": 9000.5, "unit": "1/s"}}}"#;
        let r = RunFile::parse(text).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.traced),
            ("cluster_e2e", 4, true)
        );
        assert_eq!(r.metrics["cluster_qps"], 9000.5);
        assert!(RunFile::parse("{}").is_err());
    }
}
