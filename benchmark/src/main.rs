//! `lmm-benchmark`: one seeded harness, four workloads, end-to-end
//! freshness / query / rank metrics with per-layer attribution. How to run
//! it, what every metric means and which layer should move which number is
//! in `benchmark/README.md`.

mod compare;
mod gen;
mod json;
mod load;
mod report;
mod rng;
mod run;
mod stats;
mod sut;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use run::{Args, Outcome, Workload};

/// Seconds one measured run lasts, as declared in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 20;

const USAGE: &str = "usage:
  lmm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file.json>]
  lmm-benchmark --smoke
  lmm-benchmark compare <dir-or-file A> <dir-or-file B>
  lmm-benchmark manifest
workloads: rank_cold churn_inproc query_inproc cluster_e2e";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("compare") if argv.len() == 3 => {
            compare_sets(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("manifest") => {
            let workloads: Vec<_> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
            print!("{}", report::manifest(&workloads, RUN_SECONDS).to_pretty());
            Ok(true)
        }
        _ => parse(&argv).and_then(|(args, out)| measure(args, out.as_deref())),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lmm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(argv: &[String]) -> Result<(Args, Option<PathBuf>), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let missing = || format!("--workload, --seed, --seconds and --trace are all required\n{USAGE}");
    Ok((
        Args {
            workload: workload.ok_or_else(missing)?,
            seed: seed.ok_or_else(missing)?,
            seconds: seconds.ok_or_else(missing)?,
            traced: traced.ok_or_else(missing)?,
            scale: sut::Scale::Bench,
        },
        out,
    ))
}

/// One run: prints every metric it measured by name with its unit, then
/// the result object as the last line. Fails when any operation failed.
fn measure(args: Args, out: Option<&Path>) -> Result<bool, String> {
    let outcome = run::run(args)?;
    println!(
        "{} seed {} ({} s, {}): {} operations, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    print!("{}", report::table(&outcome.metrics));
    if let Some((rank, serve, cluster)) = outcome.shares {
        println!("  blocking time: graph+core+linalg {rank:.1} %, serve {serve:.1} %, cluster {cluster:.1} %");
    }
    for note in &outcome.notes {
        println!("  FAILED {note}");
    }
    if let Some(path) = out {
        write_files(path, &outcome).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        report::result_line(
            &outcome.metrics,
            args.traced,
            outcome.attempted,
            outcome.failed
        )
    );
    Ok(outcome.failed == 0)
}

/// The full result file, and beside it the spans of a traced run as JSON
/// lines.
fn write_files(path: &Path, outcome: &Outcome) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut envelope = outcome.envelope.clone();
    if let Some((rank, serve, cluster)) = outcome.shares {
        envelope.push((
            "blocking_share_pct",
            Json::obj([
                ("graph_core_linalg", Json::Num(rank)),
                ("serve", Json::Num(serve)),
                ("cluster", Json::Num(cluster)),
            ]),
        ));
    }
    std::fs::write(
        path,
        report::result_file(envelope, &outcome.metrics).to_pretty(),
    )?;
    if outcome.tracer.keeps_spans() {
        std::fs::write(
            path.with_extension("trace.jsonl"),
            outcome.tracer.to_jsonl(),
        )?;
    }
    Ok(())
}

/// The untraced run (one program whatever the workload) and all four
/// workloads' traced runs on the 2 000-page web, through the same code
/// paths as a measured run, with the result objects checked against the
/// registry.
fn smoke() -> Result<bool, String> {
    let started = Instant::now();
    let mut ok = true;
    let untraced = (Workload::ALL[0], false);
    for (workload, traced) in std::iter::once(untraced).chain(Workload::ALL.map(|w| (w, true))) {
        let args = Args {
            workload,
            seed: 1,
            seconds: 0.4,
            traced,
            scale: sut::Scale::Smoke,
        };
        let outcome = run::run(args)?;
        let line = report::result_line(&outcome.metrics, traced, outcome.attempted, outcome.failed);
        let problems = check_result_line(&line, traced);
        println!(
            "smoke {:<13} {:<8} {:>7} ops, {} failed{}",
            if traced { workload.name() } else { "(any)" },
            if traced { "traced" } else { "untraced" },
            outcome.attempted,
            outcome.failed,
            problems
                .iter()
                .map(|p| format!("\n  {p}"))
                .collect::<String>()
        );
        for note in &outcome.notes {
            println!("  FAILED {note}");
        }
        ok &= outcome.failed == 0 && problems.is_empty();
    }
    println!(
        "smoke: {} in {:.1} s",
        if ok { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

/// What is wrong with a result line, by the contract: exactly the four
/// keys, exactly the declared metrics with their units, and — for the
/// gated ones — values that are never zero.
fn check_result_line(line: &str, traced: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let Ok(v) = Json::parse(line) else {
        return vec!["result line is not JSON".into()];
    };
    let keys: Vec<&str> = v
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("result keys are {keys:?}"));
    }
    if v.get("attempted")
        .and_then(Json::as_f64)
        .is_none_or(|n| n < 1.0)
    {
        problems.push("attempted is not at least 1".into());
    }
    let metrics = v.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    let declared: Vec<&report::Def> = if traced {
        report::per_layer().collect()
    } else {
        report::end_to_end().collect()
    };
    if metrics.len() != declared.len() {
        problems.push(format!(
            "{} metrics printed, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    for d in declared {
        match metrics.iter().find(|(k, _)| k == d.name).map(|(_, m)| m) {
            None => problems.push(format!("{} is missing", d.name)),
            Some(m) => {
                if m.get("unit").and_then(Json::as_str) != Some(d.unit) {
                    problems.push(format!("{} has the wrong unit", d.name));
                }
                let value = m.get("value").and_then(Json::as_f64);
                if value.is_none() || (!traced && value == Some(0.0)) {
                    problems.push(format!("{} has no usable value", d.name));
                }
            }
        }
    }
    problems
}

fn compare_sets(a: &Path, b: &Path) -> Result<bool, String> {
    let (table, pass) = compare::compare(&compare::load(a)?, &compare::load(b)?);
    print!("{table}");
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is generated (`lmm-benchmark manifest`); this holds
    /// the committed file to the registry and the workload list.
    #[test]
    fn the_committed_manifest_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(committed, report::manifest(&workloads, RUN_SECONDS));
        for (_, why) in workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn arguments_parse_in_any_order_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (args, out) = parse(&argv(
            "--seed 7 --trace 1 --workload cluster_e2e --seconds 2.5 --out r/x.json",
        ))
        .unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.traced),
            (Workload::ClusterE2e, 7, 2.5, true)
        );
        assert_eq!(out, Some(PathBuf::from("r/x.json")));
        assert!(parse(&argv("--workload rank_cold --seed 1 --seconds 1")).is_err());
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload rank_cold --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload rank_cold --seed 1 --seconds 1 --trace 2")).is_err());
        // The web's size is not the caller's to choose.
        assert!(parse(&argv(
            "--workload rank_cold --seed 1 --seconds 1 --trace 0 --scale smoke"
        ))
        .is_err());
    }

    #[test]
    fn the_result_line_check_catches_missing_and_zero_metrics() {
        let mut m = report::Metrics::default();
        for d in report::end_to_end() {
            m.set(d.name, 1.0);
        }
        assert!(check_result_line(&report::result_line(&m, false, 5, 0), false).is_empty());
        assert!(!check_result_line(
            &report::result_line(&report::Metrics::default(), false, 5, 0),
            false
        )
        .is_empty());
        assert!(check_result_line(
            &report::result_line(&report::Metrics::default(), true, 5, 0),
            true
        )
        .is_empty());
        assert!(!check_result_line("{}", false).is_empty());
    }
}
