//! `lmm-repro`: reproduces the paper's evidence and checks every value the
//! paper prints or states.
//!
//! Run: `cargo run --release --bin lmm-repro [--full] [EXPERIMENT…]`. With
//! no names it runs every experiment, in the paper's order. `--full` ranks
//! the 433k-page campus web instead of the 50k-page default.
//!
//! Each checked value is a claim row — ours | paper | tolerance | ok. The
//! process exits 1 when any row fails, naming it on stderr, and 2 on a
//! usage error.

use std::fmt::{self, Write as _};
use std::process::ExitCode;

use lmm::core::siterank::SiteLayerMethod;
use lmm::engine::{BackendSpec, RankEngine, RankEngineBuilder};
use lmm::graph::generator::CampusWebConfig;
use lmm::graph::{DocGraph, DocId};
use lmm::rank::{metrics, Ranking};

mod ablation;
mod campus;
mod crawl;
mod distributed;
mod fig2;
mod partition;
mod scalability;
mod spam;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// An experiment's name, the paper artifact it reproduces, and its entry
/// point, which takes `--full` and the claims to check.
type Experiment = (&'static str, &'static str, fn(bool, &mut Claims) -> Result);

/// Every experiment, in the paper's order.
const EXPERIMENTS: [Experiment; 8] = [
    ("fig2", "§2.3 worked example, Figure 2", fig2::run),
    ("campus", "Figures 3 and 4, spam shares", campus::run),
    ("spam", "spam-farm size sweep", spam::run),
    ("partition", "Theorem 2 at scale", partition::run),
    ("scalability", "§2.3.3 complexity claim", scalability::run),
    ("distributed", "§3.2 deployment traffic", distributed::run),
    ("ablation", "baselines, SiteGraph ablations", ablation::run),
    ("crawl", "§2.2 partial-crawl stability", crawl::run),
];

/// Parses the command line into `--full` and the experiments to run.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> std::result::Result<(bool, Vec<&'static Experiment>), String> {
    let (mut full, mut chosen) = (false, Vec::new());
    for arg in args {
        if arg == "--full" {
            full = true;
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.0 == arg) {
            chosen.push(e);
        } else {
            return Err(format!("unknown experiment or option `{arg}`"));
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.iter().collect();
    }
    Ok((full, chosen))
}

fn usage() -> String {
    let mut text = String::from(
        "usage: lmm-repro [--full] [EXPERIMENT…]\n\n  \
         --full  rank the 433k-page campus web (campus, distributed)\n\n\
         experiments (default: all, in this order):\n",
    );
    for (name, about, _) in &EXPERIMENTS {
        let _ = writeln!(text, "  {name:<12} {about}");
    }
    text
}

fn main() -> ExitCode {
    let (full, chosen) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("lmm-repro: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (mut checked, mut failed) = (0, Vec::new());
    for (name, about, run) in chosen {
        println!("\n##### {name}: {about}");
        let mut claims = Claims::default();
        if let Err(err) = run(full, &mut claims) {
            eprintln!("lmm-repro {name}: {err}");
            return ExitCode::FAILURE;
        }
        let rows = claims.table.rows.len() - 1;
        if rows > 0 {
            section("Claims");
            print!("{}", claims.table);
        }
        checked += rows;
        failed.extend(claims.failed.iter().map(|c| format!("{name}: {c}")));
    }
    println!("\n{checked} claims checked, {} failed", failed.len());
    for claim in &failed {
        eprintln!("FAILED {claim}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A text table sized to its widest cells; the first row is the header.
/// A column other than the first is right-aligned when its first data cell
/// reads as a number.
struct Table {
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(header: &[&str]) -> Self {
        let header = header.iter().map(ToString::to_string).collect();
        Self { rows: vec![header] }
    }

    fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.rows[0].len(), "one cell per column");
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths = vec![0; self.rows[0].len()];
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let number = |s: &String| s.starts_with(|c: char| c.is_ascii_digit() || c == '-');
        let right: Vec<bool> = (0..widths.len())
            .map(|c| c > 0 && self.rows.get(1).is_some_and(|r| number(&r[c])))
            .collect();
        for row in &self.rows {
            let mut line = String::new();
            for ((cell, &w), &right) in row.iter().zip(&widths).zip(&right) {
                if right {
                    write!(line, "  {cell:>w$}")?;
                } else {
                    write!(line, "  {cell:<w$}")?;
                }
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// The values an experiment checks against the paper, one table row each:
/// claim | ours | paper | tolerance | ok.
struct Claims {
    table: Table,
    failed: Vec<String>,
}

impl Default for Claims {
    fn default() -> Self {
        let table = Table::new(&["claim", "ours", "paper", "tolerance", "ok"]);
        Self {
            table,
            failed: Vec::new(),
        }
    }
}

impl Claims {
    /// Holds when `|ours − paper| < tol`; a NaN never holds.
    fn within(&mut self, claim: &str, ours: f64, paper: f64, tol: f64) {
        let cells = [num(ours), num(paper), format!("{tol:.0e}")];
        self.push(claim, (ours - paper).abs() < tol, cells);
    }

    /// Holds when `ours ≥ floor`; a NaN never holds.
    fn at_least(&mut self, claim: &str, ours: f64, floor: f64) {
        let cells = [num(ours), format!(">= {}", num(floor)), "-".into()];
        self.push(claim, ours >= floor, cells);
    }

    /// Holds when `ours == paper`: counts, orders, flags.
    fn exact<T: PartialEq + fmt::Display>(&mut self, claim: &str, ours: T, paper: T) {
        let cells = [ours.to_string(), paper.to_string(), "exact".into()];
        self.push(claim, ours == paper, cells);
    }

    fn push(&mut self, claim: &str, ok: bool, [ours, paper, tol]: [String; 3]) {
        if !ok {
            self.failed.push(claim.to_string());
        }
        let verdict = if ok { "ok" } else { "FAIL" };
        let row = vec![claim.to_string(), ours, paper, tol, verdict.into()];
        self.table.row(row);
    }
}

/// The paper's four printed decimals; scientific notation for residuals.
fn num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() < 1e-3 {
        format!("{v:.2e}")
    } else {
        format!("{v:.4}")
    }
}

/// Approach 3: the layered method with a PageRank site layer (Figure 4).
const LAYERED: BackendSpec = BackendSpec::Layered {
    site_layer: SiteLayerMethod::PageRank,
};

/// Approach 4: the Layered Method, with a stationary site layer (Theorem 2).
const LAYERED_METHOD: BackendSpec = BackendSpec::Layered {
    site_layer: SiteLayerMethod::Stationary,
};

/// A `RankEngine` builder on `backend` with the experiments' shared
/// damping 0.85 and tolerance 1e-10.
fn experiment_engine(backend: BackendSpec) -> RankEngineBuilder {
    RankEngine::builder()
        .backend(backend)
        .damping(0.85)
        .tolerance(1e-10)
}

/// The campus web: 218 sites and ≈50k pages, or ≈433k with `--full`.
fn campus_config(full: bool) -> CampusWebConfig {
    if full {
        CampusWebConfig::full_scale()
    } else {
        CampusWebConfig::paper_scale()
    }
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// A Figure-3/4-style top-`k` listing: position, spam marker, score, URL.
fn top_k_table(graph: &DocGraph, ranking: &Ranking, k: usize) -> Table {
    let spam = graph.spam_labels();
    let mut table = Table::new(&["#", "spam", "score", "url"]);
    for (pos, doc) in ranking.top_k(k).into_iter().enumerate() {
        table.row(vec![
            (pos + 1).to_string(),
            if spam[doc] { "SPAM" } else { "" }.into(),
            format!("{:.6}", ranking.score(doc)),
            graph.url(DocId(doc)).to_string(),
        ]);
    }
    table
}

/// The spam share of `ranking`'s top 15, as a whole percentage.
fn spam15(ranking: &Ranking, spam: &[bool]) -> String {
    let share = metrics::labeled_share_at_k(ranking, spam, 15);
    format!("{:.0}%", 100.0 * share)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> (bool, Vec<&'static str>) {
        let (full, chosen) = parse_args(args.iter().map(ToString::to_string)).unwrap();
        (full, chosen.iter().map(|e| e.0).collect())
    }

    #[test]
    fn arguments_select_experiments_and_scale() {
        let all = "fig2 campus spam partition scalability distributed ablation crawl";
        let all: Vec<&str> = all.split(' ').collect();
        assert_eq!(names(&[]), (false, all.clone()), "paper order");
        assert_eq!(names(&["--full"]), (true, all));
        let subset = (true, vec!["crawl", "fig2"]);
        assert_eq!(names(&["crawl", "--full", "fig2"]), subset, "order given");
    }

    #[test]
    fn unknown_name_or_flag_is_a_usage_error() {
        for bad in ["fig3", "--smoke"] {
            let err = parse_args([bad.to_string()]).err().unwrap();
            assert!(err.contains(bad), "{err}");
        }
        assert!(EXPERIMENTS.iter().all(|e| usage().contains(e.0)));
    }

    #[test]
    fn claims_pass_within_tolerance_and_fail_outside_or_on_nan() {
        let mut claims = Claims::default();
        claims.within("close", 0.25405, 0.2541, 7e-4);
        claims.at_least("floor", 0.3, 0.3);
        assert!(claims.failed.is_empty());
        claims.within("far", 0.2551, 0.2541, 7e-4);
        claims.within("edge", 1.0, 0.0, 1.0);
        claims.within("nan", f64::NAN, 0.0, 1.0);
        claims.at_least("nan floor", f64::NAN, 0.0);
        assert_eq!(claims.failed, ["far", "edge", "nan", "nan floor"]);
    }

    #[test]
    fn exact_claims_compare_equal() {
        let mut claims = Claims::default();
        claims.exact("count", 0usize, 0);
        claims.exact("order", "5 7 6", "5 7 6");
        assert!(claims.failed.is_empty());
        claims.exact("off by one", 1usize, 0);
        claims.exact("swapped", "7 5 6", "5 7 6");
        assert_eq!(claims.failed, ["off by one", "swapped"]);
        let text = claims.table.to_string();
        assert!(text.lines().last().unwrap().ends_with("FAIL"), "{text}");
    }

    #[test]
    fn table_columns_fit_their_widest_cell() {
        let mut table = Table::new(&["backend", "messages"]);
        table.row(vec!["flat".into(), "50573".into()]);
        table.row(vec!["hybrid (central)".into(), "7".into()]);
        let expected = "  backend           messages\n  flat                 50573\n  \
                        hybrid (central)         7\n";
        assert_eq!(table.to_string(), expected);
    }
}
