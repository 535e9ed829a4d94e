//! One run: set-up, the four phases, the checks, the metrics.
//!
//! There are four phases — `rank`, `churn`, `query`, `cluster` — over one
//! campus web, one engine and one delta stream. The result contract asks
//! every untraced run for every end-to-end metric, so there is one untraced
//! program, the same whatever the workload: the part of each phase that a
//! gated metric comes from, at the fixed shares of [`GATED_SHARES`]. The
//! workload selects what a traced run executes: its own phase alone and in
//! full, with the direct-call probes and replays that attribute its time to
//! layers, so a layer the workload does not exercise reports zero.
//!
//! Ranking rounds and closed-loop capacity slices are self-contained, so
//! an untraced run spreads them over its whole length, in groups before,
//! between and after the other phases: this host speeds up and slows down
//! for seconds at a time, and a metric sampled inside one such spell does
//! not repeat. The other phases are not cut up — each would measure its
//! warm-up again in every piece.
//!
//! Work is planned in counts derived from `--seconds`, so a fixed seed
//! always executes the same operations and the exact counters repeat. The
//! clock only guards: once a run has lasted [`GUARD_FACTOR`] times
//! `--seconds` (at least [`GUARD_FLOOR_S`]) it issues no further step, and
//! every step it left out is a failed operation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{self, Churn, DeltaKind, Mix, QueryOp, Targets, WebView, CLASSES};
use crate::json::Json;
use crate::load::{closed_loop, open_loop, Check, EpochWindow, Until, PUBLISH_EVERY};
use crate::report::{self, Better, Metrics};
use crate::rng::{ScheduleHash, SplitMix};
use crate::stats;
use crate::sut::{
    self, Answer, Backend, Batches, Client, ClientCounters, Cluster, ClusterCounters,
    ClusterSwapInfo, Conn, Engine, Layered, Res, RunInfo, Scale, ServeCounters, Server, Shards,
    Snap, Surface, SwapInfo, Web,
};
use crate::trace::{self, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RankCold,
    ChurnInproc,
    QueryInproc,
    ClusterE2e,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RankCold,
        Workload::ChurnInproc,
        Workload::QueryInproc,
        Workload::ClusterE2e,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RankCold => "rank_cold",
            Workload::ChurnInproc => "churn_inproc",
            Workload::QueryInproc => "query_inproc",
            Workload::ClusterE2e => "cluster_e2e",
        }
    }

    /// Why the workload exists: which layers its phase loads and which it
    /// leaves idle (one line; copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RankCold => "offline batch: cold rank() of the 100k-page web by layered, flat and simulated-P2P backends; graph/linalg/rank/core/p2p do the work, and its traced run starts no serving tier at all",
            Workload::ChurnInproc => "write path in one process: seeded deltas through apply_delta, snapshot, ShardedServer::publish to the first fresh answer, beside a reader; graph/core/serve work, the cluster does none",
            Workload::QueryInproc => "read path in one process: point and top-k capacity, then open-loop arrivals while snapshots are swapped in; serve router/cell/shard do all the work, ranking none",
            Workload::ClusterE2e => "loopback fabric of controller, 4 nodes and a client: deltas to the first client answer at the new epoch, then closed-loop queries; wire/transport/controller/node/client dominate",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

/// Everything a run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    pub tracer: Tracer,
    pub envelope: Vec<(&'static str, Json)>,
    /// Share of blocking time per layer group in the workload's phase,
    /// percent: `(graph+core+linalg, serve, cluster)`. Traced runs only.
    pub shares: Option<(f64, f64, f64)>,
}

// ------------------------------------------------------------------ plan

/// Share of `--seconds` each phase gets in an untraced run, in the order
/// of [`Workload::ALL`]. Ranking rounds and cluster deltas get the most:
/// they are the slowest operations, so their medians have the fewest
/// samples per second.
const GATED_SHARES: [f64; 4] = [0.35, 0.20, 0.10, 0.35];
/// Shares of `--seconds` the two passes of a traced run give the
/// workload's phase.
const BASELINE_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.5;
/// A run that has lasted this many times `--seconds` issues no more steps.
const GUARD_FACTOR: f64 = 3.0;
/// The guard is never shorter than this, so that a sub-second run (the
/// smoke test, the unit tests) is not cut short by one slow set-up.
const GUARD_FLOOR_S: f64 = 10.0;
/// Longest a tier may take to answer at the epoch it has just been given.
const FIRST_ANSWER_LIMIT: Duration = Duration::from_secs(5);

/// Nominal cost of one operation on the two-core reference host, used only
/// to turn a time budget into an operation count; and the few sizes that
/// differ between the measured web and the smoke web.
struct Costs {
    rank_round_s: f64,
    churn_step_s: f64,
    cluster_step_s: f64,
    min_cluster_steps: usize,
    /// Times an untraced run sets up; `setup_s` is the median.
    setups: usize,
}

const BENCH_COSTS: Costs = Costs {
    rank_round_s: 0.50,
    churn_step_s: 0.022,
    cluster_step_s: 0.15,
    min_cluster_steps: 12,
    setups: 5,
};
const SMOKE_COSTS: Costs = Costs {
    rank_round_s: 0.02,
    churn_step_s: 0.002,
    cluster_step_s: 0.125,
    min_cluster_steps: 3,
    setups: 2,
};

fn costs(scale: Scale) -> Costs {
    if scale == Scale::Smoke {
        SMOKE_COSTS
    } else {
        BENCH_COSTS
    }
}

/// What a pass over the phases is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The untraced run: of every phase, the part a gated metric comes
    /// from. The end-to-end metrics come from here.
    Gated,
    /// First pass of a traced run: the workload's phase alone, untraced —
    /// the base the tracing overhead is measured against.
    Baseline,
    /// Second pass of a traced run: the same phase with spans kept and
    /// with the probes and replays that attribute its time to layers.
    Traced,
}

#[derive(Debug, PartialEq)]
struct Plan {
    rank_rounds: usize,
    churn_steps: usize,
    /// Closed-loop slices of [`SLICE_S`] of the point mix.
    query_slices: usize,
    /// Whether `top_k` alone gets as many.
    top_k_slices: bool,
    /// Open-loop phases: `(index into RATES, seconds)`.
    query_rates: Vec<(usize, f64)>,
    cluster_steps: usize,
    cluster_query_s: f64,
    /// Direct-call probes and replays (the traced pass).
    detail: bool,
}

/// Open-loop arrival rates and the per-layer metric each reports.
const RATES: [(f64, &str); 3] = [
    (5_000.0, "serve.rate_5k.p99_us"),
    (20_000.0, "serve.rate_20k.p99_us"),
    (40_000.0, "serve.rate_40k.p99_us"),
];
/// The rate every run measures, and `query_p99_us` reports.
const MAIN_RATE: usize = 1;
/// An open-loop rate is sustainable while its windowed p99 stays under
/// this limit and the generator is not falling behind.
const LATENCY_LIMIT_US: f64 = 1_000.0;
/// Length of one closed-loop slice; a rate is the median over slices.
const SLICE_S: f64 = 0.03;

fn plan(args: &Args, mode: Mode) -> Plan {
    let costs = costs(args.scale);
    let budget = |phase: Workload| {
        let share = match mode {
            Mode::Gated => GATED_SHARES[phase as usize],
            Mode::Baseline if phase == args.workload => BASELINE_SHARE,
            Mode::Traced if phase == args.workload => TRACED_SHARE,
            _ => 0.0,
        };
        args.seconds * share
    };
    let count = |budget: f64, cost: f64, min: usize| {
        if budget == 0.0 {
            0
        } else {
            ((budget / cost).round() as usize).max(min)
        }
    };
    // A traced step also pays for its replays.
    let replay_factor = if mode == Mode::Traced { 2.0 } else { 1.0 };
    // The open loop and the cluster's closed loop feed no gated metric:
    // an untraced run spends the whole of both budgets on what does.
    let gated = mode == Mode::Gated;
    let query = budget(Workload::QueryInproc);
    let (closed, open) = if gated { (1.0, 0.0) } else { (0.15, 0.7) };
    let mut query_rates = match mode {
        Mode::Traced => vec![(0, 0.3), (MAIN_RATE, 0.4), (2, 0.3)],
        _ => vec![(MAIN_RATE, 1.0)],
    };
    query_rates.iter_mut().for_each(|r| r.1 *= query * open);
    query_rates.retain(|r| r.1 > 0.0);
    let cluster = budget(Workload::ClusterE2e);
    let deltas = if gated { 1.0 } else { 0.65 };
    Plan {
        rank_rounds: count(
            budget(Workload::RankCold),
            costs.rank_round_s * replay_factor,
            1,
        ),
        churn_steps: count(
            budget(Workload::ChurnInproc),
            costs.churn_step_s * replay_factor,
            8,
        ),
        query_slices: count(query * closed, SLICE_S, 3),
        top_k_slices: !gated,
        query_rates,
        cluster_steps: count(
            cluster * deltas,
            costs.cluster_step_s * replay_factor,
            costs.min_cluster_steps,
        ),
        cluster_query_s: cluster * (1.0 - deltas),
        detail: mode == Mode::Traced,
    }
}

// ----------------------------------------------------------------- tally

/// Operations attempted and failed. A wrong answer, a wrong epoch, a
/// broken invariant or an error is a failure.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; it failed if any of its checks did.
    fn op(&mut self, checks: &[(bool, &str)], what: &str) {
        let broken = checks.iter().find(|(ok, _)| !ok);
        self.absorb(
            1,
            u64::from(broken.is_some()),
            broken.map(|(_, why)| format!("{what}: {why}")),
        );
    }

    fn absorb(&mut self, attempted: u64, failed: u64, note: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(note) = note {
            if self.notes.len() < 12 {
                self.notes.push(note);
            }
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `n` split into `parts` nearly equal counts, the larger ones first.
fn spread(n: usize, parts: usize) -> Vec<usize> {
    (0..parts)
        .map(|i| n / parts + usize::from(i < n % parts))
        .collect()
}

// ----------------------------------------------------------------- world

/// What set-up builds: the web, its shard map, a ranked incremental
/// engine, and the serving tiers at the engine's first epoch.
struct World {
    base: Web,
    shards: Shards,
    engine: Engine,
    snap: Snap,
    server: Option<Server>,
    cluster: Option<Cluster>,
}

#[derive(Debug, Default)]
struct SetupTimes {
    total: Vec<f64>,
    generate: Vec<f64>,
    shard_map: Vec<f64>,
    serve_start: Vec<f64>,
    controller_start: Vec<f64>,
    node_start: Vec<f64>,
    first_publish: Vec<f64>,
}

/// Local edits sprinkled over the generated web, from the seed.
const SPRINKLE: usize = 32;

fn build_world(
    args: &Args,
    rng: &SplitMix,
    needs: (bool, bool),
    times: &mut SetupTimes,
) -> Res<World> {
    let t0 = Instant::now();
    let t = Instant::now();
    let generated = Web::generate(args.scale)?;
    let sprinkle = gen::sprinkle(&mut rng.fork(0x6EA9), &generated, SPRINKLE);
    let base = generated.apply(&generated.delta(&sprinkle)?)?.0;
    times.generate.push(secs(t.elapsed()));
    let t = Instant::now();
    let shards = base.shard_map()?;
    times.shard_map.push(secs(t.elapsed()));
    let mut engine = Engine::new(Backend::Incremental, 1)?;
    engine.rank(&base)?;
    let snap = engine.snapshot()?;
    let server = if needs.0 {
        let t = Instant::now();
        let server = Server::start(&shards, &snap)?;
        times.serve_start.push(secs(t.elapsed()));
        Some(server)
    } else {
        None
    };
    let cluster = if needs.1 {
        let cluster = Cluster::start(&shards)?;
        times.controller_start.push(secs(cluster.controller_start));
        times.node_start.push(secs(cluster.node_start));
        let t = Instant::now();
        cluster.publish(&snap)?;
        times.first_publish.push(secs(t.elapsed()));
        Some(cluster)
    } else {
        None
    };
    times.total.push(secs(t0.elapsed()));
    Ok(World {
        base,
        shards,
        engine,
        snap,
        server,
        cluster,
    })
}

// --------------------------------------------------------------- samples

const BACKENDS: [(Backend, &str, &str); 3] = [
    (Backend::Layered, "engine.rank.layered", "rank_layered_s"),
    (Backend::Flat, "engine.rank.flat", "rank_flat_s"),
    (
        Backend::DistributedFlat,
        "engine.rank.distributed",
        "rank_distributed_s",
    ),
];

/// Samples are seconds unless the name says otherwise.
#[derive(Debug, Default)]
struct RankSamples {
    /// Per backend of [`BACKENDS`].
    times: [Vec<f64>; 3],
    /// Scores and counters of each backend's first round: every later
    /// round must reproduce them bit for bit.
    first: [Option<(Vec<u64>, RunInfo)>; 3],
    site_graph: Vec<f64>,
    pagerank: Vec<f64>,
    core_direct: Vec<f64>,
    core_info: RunInfo,
}

/// The delta path, per delta kind where the kind matters.
#[derive(Debug, Default)]
struct StepSamples {
    freshness: [Vec<f64>; 3],
    apply: [Vec<f64>; 3],
    publish: [Vec<f64>; 3],
    snapshot: Vec<f64>,
    first_answer: Vec<f64>,
    graph_apply: Vec<f64>,
    core_update: Vec<f64>,
    apply_self: Vec<f64>,
    diff_sites: Vec<f64>,
    site_graph: Vec<f64>,
    max_fanout_ms: Vec<f64>,
    swaps: SwapInfo,
    attempts: usize,
    delta_ops: usize,
    sites_recomputed: usize,
    sites_reused: usize,
}

#[derive(Debug, Default)]
struct QuerySamples {
    point_rates: Vec<f64>,
    top_k_rates: Vec<f64>,
    /// Window p99s, microseconds, per rate of [`RATES`].
    window_p99_us: [Vec<f64>; 3],
    fell_behind: [bool; 3],
    lag_max_us: f64,
    /// Latency of arrivals due inside a publish, microseconds.
    swap_us: Vec<f64>,
}

#[derive(Debug, Default)]
struct ClusterQuerySamples {
    by_class: [Vec<f64>; 5],
    count: u64,
    elapsed_s: f64,
    /// Bytes the client moved for the timed queries.
    client_bytes: u64,
    /// Counters of the client that ran the timed queries.
    client: ClientCounters,
    /// Counters of the fabric's instances, summed.
    fabric: ClusterCounters,
}

// ------------------------------------------------------------------ tiers

/// A serving tier a delta is published to.
trait Tier {
    const PUBLISH_SPAN: &'static str;
    fn publish(&self, snap: &Snap) -> Res<ClusterSwapInfo>;
    fn surface(&self) -> &dyn Surface;
}

struct InProc<'a>(&'a Server);

impl Tier for InProc<'_> {
    const PUBLISH_SPAN: &'static str = "serve.publish";
    fn publish(&self, snap: &Snap) -> Res<ClusterSwapInfo> {
        self.0.publish(snap).map(|swap| ClusterSwapInfo {
            swap,
            attempts: 1,
            max_fanout_ms: 0.0,
        })
    }
    fn surface(&self) -> &dyn Surface {
        self.0
    }
}

struct Fabric<'a>(&'a Cluster, &'a Client);

impl Tier for Fabric<'_> {
    const PUBLISH_SPAN: &'static str = "cluster.controller.publish";
    fn publish(&self, snap: &Snap) -> Res<ClusterSwapInfo> {
        self.0.publish(snap)
    }
    fn surface(&self) -> &dyn Surface {
        self.1
    }
}

// -------------------------------------------------------------------- run

/// The mutable state the phases share.
struct Run {
    args: Args,
    plan: Plan,
    rng: SplitMix,
    tracer: Tracer,
    tally: Tally,
    metrics: Metrics,
    hash: ScheduleHash,
    web: Web,
    churn: Churn,
    targets: Targets,
    batches: Batches,
    /// The harness's own layered ranking, kept in step with the engine on
    /// a traced pass: the core layer's replay.
    shadow: Option<Layered>,
    /// The newest snapshot of the engine, with the digest of its `top_k`:
    /// what a tier serves once it has caught up.
    current: (Snap, u64),
    step: usize,
    /// When the run stops issuing steps (see [`GUARD_FACTOR`]).
    deadline: Instant,
}

/// Deltas one instance of the fabric takes before a fresh one replaces it.
const FABRIC_STEPS: usize = 6;
/// Longest pause before a cluster delta: two accept ticks of a node.
const THINK_MAX_US: usize = 50_000;
const MASS_TOLERANCE: f64 = 1e-9;
const SCRATCH_L1_TOLERANCE: f64 = 1e-6;
const SCRATCH_CHECK_EVERY: usize = 50;

impl Run {
    /// Whether the run has outlasted its guard. If so the `left` operations
    /// the caller was about to issue are recorded as failed, and it must
    /// issue none of them.
    fn out_of_time(&mut self, left: usize, what: &str) -> bool {
        let late = Instant::now() >= self.deadline;
        if late {
            let note = format!("{what}: {left} left out, the run has outlasted its guard");
            self.tally.absorb(left as u64, left as u64, Some(note));
        }
        late
    }

    /// One delta from submission to the first answer at the new epoch.
    fn delta_step<T: Tier>(
        &mut self,
        engine: &mut Engine,
        tier: &T,
        window: Option<&EpochWindow>,
        out: &mut StepSamples,
    ) -> Res<()> {
        let spec = self.churn.next(&self.web);
        spec.hash_into(&mut self.hash);
        let delta = self.web.delta(&spec)?;
        let kind = spec.kind as usize;
        let probe = QueryOp::Score(self.rng.below(self.targets.base_docs));
        let old_epoch = engine.epoch();

        self.tracer.next_op();
        let root = self.tracer.begin("freshness");
        let (info, d_apply) = self
            .tracer
            .time("engine.apply_delta", || engine.apply_delta(&delta));
        let info = info?;
        let (snap, d_snap) = self.tracer.time("engine.snapshot", || engine.snapshot());
        let snap = snap?;
        if let Some(w) = window {
            w.opening(snap.epoch());
        }
        let (swap, d_publish) = self.tracer.time(T::PUBLISH_SPAN, || tier.publish(&snap));
        let swap = swap?;
        let mut wrong_epoch = false;
        let (first, d_first) = self.tracer.time("client.first_answer", || {
            let polling = Instant::now();
            loop {
                let answer = tier.surface().answer(&probe, &self.batches)?;
                if answer.epoch == snap.epoch() {
                    return Ok::<Answer, String>(answer);
                }
                wrong_epoch |= answer.epoch != old_epoch;
                if polling.elapsed() > FIRST_ANSWER_LIMIT {
                    return Err(format!(
                        "no answer at epoch {} within {FIRST_ANSWER_LIMIT:?} of its publish",
                        snap.epoch()
                    ));
                }
            }
        });
        let first = first?;
        let total = self.tracer.end(root);
        if let Some(w) = window {
            w.closed(snap.epoch());
        }

        // Outside the timed operation: keep the harness's copy of the web,
        // replay the layers, check.
        let (applied, d_graph) = self
            .tracer
            .replay("replay.graph.apply", || self.web.apply(&delta));
        let (new_web, applied) = applied?;
        out.graph_apply.push(secs(d_graph));
        if let Some(shadow) = self.shadow.take() {
            let (r, d_core) = self.tracer.replay("replay.core.incremental_update", || {
                shadow.update(&new_web, &applied, 1)
            });
            let (next, core_info) = r?;
            out.core_update.push(secs(d_core));
            out.apply_self
                .push((secs(d_apply) - secs(d_graph) - secs(d_core)).max(0.0));
            out.sites_recomputed += core_info.sites_recomputed;
            out.sites_reused += core_info.sites_reused;
            if self.step.is_multiple_of(10) {
                let (r, d) = self
                    .tracer
                    .replay("replay.core.diff_sites", || new_web.diff_from(&self.web));
                r?;
                out.diff_sites.push(secs(d));
            }
            if spec.kind != DeltaKind::Local {
                let (_, d) = self
                    .tracer
                    .replay("replay.graph.site_graph", || new_web.site_graph_links());
                out.site_graph.push(secs(d));
            }
            self.shadow = Some(next);
        }

        let top_digest = sut::top_digest(&engine.top_k()?);
        let served_top = tier.surface().answer(&QueryOp::TopK, &self.batches)?;
        let mass_ok = (snap.mass() - 1.0).abs() <= MASS_TOLERANCE;
        let mut scratch_ok = true;
        if self.step % SCRATCH_CHECK_EVERY == SCRATCH_CHECK_EVERY - 1 {
            let (scratch, _) = Layered::rank(&new_web, false, 1)?;
            let l1: f64 = scratch
                .scores()
                .iter()
                .zip(engine.scores()?)
                .map(|(a, b)| (a - b).abs())
                .sum();
            scratch_ok = l1 <= SCRATCH_L1_TOLERANCE;
        }
        self.tally.op(
            &[
                (info.converged, "incremental update did not converge"),
                (
                    snap.epoch() == old_epoch + 1,
                    "epoch did not advance by one",
                ),
                (mass_ok, "rank mass drifted from 1"),
                (
                    !wrong_epoch,
                    "an answer came from neither the old nor the new epoch",
                ),
                (
                    Some(first.digest) == self.batches.expect(&probe, &snap),
                    "first fresh answer differs from the snapshot",
                ),
                (
                    served_top.epoch == snap.epoch() && served_top.digest == top_digest,
                    "served top_k differs from engine.top_k",
                ),
                (
                    scratch_ok,
                    "incremental ranking drifted from a from-scratch ranking",
                ),
            ],
            "delta",
        );

        out.freshness[kind].push(secs(total));
        out.apply[kind].push(secs(d_apply));
        out.publish[kind].push(secs(d_publish));
        out.snapshot.push(secs(d_snap));
        out.first_answer.push(secs(d_first));
        out.max_fanout_ms.push(swap.max_fanout_ms);
        out.swaps.rebuilt += swap.swap.rebuilt;
        out.swaps.repinned += swap.swap.repinned;
        out.swaps.refreshed += swap.swap.refreshed;
        out.attempts += swap.attempts;
        out.delta_ops += spec.ops();
        self.web = new_web;
        self.current = (snap, top_digest);
        self.step += 1;
        Ok(())
    }

    /// Starts the core layer's replay from the engine's present state.
    fn start_shadow(&mut self) -> Res<()> {
        if self.plan.detail {
            self.shadow = Some(Layered::rank(&self.web, false, 1)?.0);
        }
        Ok(())
    }

    // ------------------------------------------------------------- rank

    /// `rounds` cold rankings by each backend, interleaved.
    fn rank_rounds(&mut self, base: &Web, rounds: usize, s: &mut RankSamples) -> Res<()> {
        for round in 0..rounds {
            if self.out_of_time(BACKENDS.len() * (rounds - round), "rank rounds") {
                break;
            }
            for (b, (backend, span, _)) in BACKENDS.iter().enumerate() {
                let mut engine = Engine::new(*backend, 1)?;
                self.tracer.next_op();
                let (info, d) = self.tracer.time(span, || engine.rank(base));
                let info = info?;
                s.times[b].push(secs(d));
                let bits: Vec<u64> = engine.scores()?.iter().map(|s| s.to_bits()).collect();
                let mass: f64 = engine.scores()?.iter().sum();
                let (first_bits, first_info) =
                    s.first[b].get_or_insert_with(|| (bits.clone(), info));
                self.tally.op(
                    &[
                        (info.converged, "ranking did not converge"),
                        (
                            (mass - 1.0).abs() <= MASS_TOLERANCE,
                            "rank mass drifted from 1",
                        ),
                        (
                            *first_bits == bits,
                            "two rounds of one backend differ bitwise",
                        ),
                        (
                            *first_info == info,
                            "two rounds of one backend count differently",
                        ),
                    ],
                    span,
                );
            }
            if self.plan.detail {
                self.tracer.next_op();
                let (_, d) = self
                    .tracer
                    .time("graph.site_graph", || base.site_graph_links());
                s.site_graph.push(secs(d));
                let (iters, d) = self
                    .tracer
                    .time("rank.pagerank", || base.pagerank_direct(1));
                iters?;
                s.pagerank.push(secs(d));
                let (r, d) = self
                    .tracer
                    .time("core.layered_doc_rank", || Layered::rank(base, true, 1));
                s.core_info = r?.1;
                s.core_direct.push(secs(d));
            }
        }
        Ok(())
    }

    /// One-off probes of the ranking layers (the traced pass).
    fn rank_probes(&mut self, base: &Web, s: &RankSamples) -> Res<()> {
        if self.out_of_time(1, "rank probes") {
            return Ok(());
        }
        let mut superpeer = Engine::new(Backend::DistributedSuperPeer, 1)?;
        let info = superpeer.rank(base)?;
        self.tally.op(
            &[(info.converged, "super-peer ranking did not converge")],
            "p2p.superpeer",
        );
        self.metrics.set("p2p.superpeer_bytes", info.bytes as f64);

        // The engine's own query surface: its cached top_k.
        let mut cached = Engine::new(Backend::Layered, 1)?;
        cached.rank(base)?;
        let t = Instant::now();
        for _ in 0..200 {
            std::hint::black_box(cached.top_k()?);
        }
        self.metrics
            .set("engine.cache_top_k_us", secs(t.elapsed()) * 1e6 / 200.0);

        // Two threads against one, informational on a shared host.
        for (backend, b, metric) in [
            (Backend::Layered, 0, "par.layered_speedup_2t"),
            (Backend::Flat, 1, "par.flat_speedup_2t"),
        ] {
            let mut two = Vec::new();
            for _ in 0..3 {
                let mut engine = Engine::new(backend, 2)?;
                let t = Instant::now();
                engine.rank(base)?;
                two.push(secs(t.elapsed()));
            }
            let one = stats::median(&s.times[b]);
            self.metrics.set(metric, one / stats::median(&two));
        }

        // The same layer on sites eight times larger.
        if self.args.scale == Scale::Bench {
            let full = Web::generate(Scale::Full)?;
            let mut rounds = Vec::new();
            for _ in 0..5 {
                self.tracer.next_op();
                let (r, d) = self
                    .tracer
                    .time("core.layered_fullscale", || Layered::rank(&full, true, 1));
                let (_, info) = r?;
                self.tally.op(
                    &[(info.converged, "full-scale ranking did not converge")],
                    "core.layered_fullscale",
                );
                rounds.push(secs(d));
            }
            self.metrics
                .median_of("core.layered_fullscale_s", &rounds, 1.0);
        }
        Ok(())
    }

    fn report_rank(&mut self, base: &Web, s: &RankSamples) {
        for (b, (_, _, metric)) in BACKENDS.iter().enumerate() {
            self.metrics.median_of(metric, &s.times[b], 1.0);
        }
        let info_of = |b: usize| s.first[b].as_ref().map(|(_, i)| *i).unwrap_or_default();
        let (flat, dist) = (info_of(1), info_of(2));
        self.metrics
            .set("rank_distributed_bytes", dist.bytes as f64);
        if !self.plan.detail {
            return;
        }
        self.metrics.set("p2p.messages", dist.messages as f64);
        self.metrics.set("p2p.bytes", dist.bytes as f64);
        self.metrics.set("p2p.rounds", dist.site_iters as f64);
        self.metrics
            .set("p2p.retransmissions", dist.retransmissions as f64);
        self.metrics
            .set("linalg.flat_iters", flat.site_iters as f64);
        self.metrics.set(
            "linalg.ns_per_nnz_iter",
            stats::median(&s.times[1]) * 1e9
                / (flat.site_iters.max(1) * base.n_links().max(1)) as f64,
        );
        self.metrics
            .median_of("graph.site_graph_ms", &s.site_graph, 1e3);
        self.metrics.median_of("rank.pagerank_s", &s.pagerank, 1.0);
        self.metrics
            .median_of("core.layered_doc_rank_s", &s.core_direct, 1.0);
        self.metrics
            .set("core.site_iters", s.core_info.site_iters as f64);
        self.metrics.set(
            "core.local_iters_total",
            s.core_info.local_iters_total as f64,
        );
        self.metrics
            .set("core.local_iters_max", s.core_info.local_iters_max as f64);
        self.metrics.set(
            "engine.rank_self_s",
            (stats::median(&s.times[0]) - stats::median(&s.core_direct)).max(0.0),
        );
    }

    // ------------------------------------------------------------ churn

    fn phase_churn(&mut self, engine: &mut Engine, server: &Server) -> Res<()> {
        // Catch the tier up with what other phases did to the engine.
        server.publish(&self.current.0)?;
        self.start_shadow()?;
        let mut out = StepSamples::default();
        let window = EpochWindow::at(self.current.0.epoch());
        let stop = AtomicBool::new(false);
        // The reader runs the point mix: with the writer it keeps both of
        // this host's cores busy, and a gather's eight worker wake-ups per
        // query would make the writer's share of a core a matter of luck.
        let reader_ops = gen::draw_many(&mut self.rng, Mix::Point, &self.targets, 4096);
        gen::hash_queries(&reader_ops, &mut self.hash);
        let batches = self.batches.clone();
        let steps = self.plan.churn_steps;
        let (result, read) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                closed_loop(
                    server,
                    &batches,
                    &reader_ops,
                    Until::Stopped(&stop),
                    Check::Window(&window),
                )
            });
            let mut result = Ok(());
            for step in 0..steps {
                if result.is_err() || self.out_of_time(steps - step, "churn deltas") {
                    break;
                }
                result = self.delta_step(engine, &InProc(server), Some(&window), &mut out);
            }
            stop.store(true, Ordering::SeqCst);
            (result, reader.join().expect("reader thread panicked"))
        });
        result?;
        self.tally.absorb(read.count, read.failed, read.note);

        self.metrics
            .median_of("freshness_inproc_local_ms", &out.freshness[0], 1e3);
        self.metrics
            .median_of("freshness_inproc_global_ms", &out.freshness[1], 1e3);
        if self.plan.detail {
            self.metrics
                .set("serve.churn_read_qps", read.count as f64 / read.elapsed_s);
            for (kind, name) in DeltaKind::ALL.iter().map(|k| (*k as usize, k.name())) {
                self.metrics.median_of(
                    &format!("serve.publish_{name}_ms"),
                    &out.publish[kind],
                    1e3,
                );
            }
            self.metrics
                .set("serve.shards_rebuilt", out.swaps.rebuilt as f64);
            self.metrics
                .set("serve.shards_repinned", out.swaps.repinned as f64);
            self.metrics
                .set("serve.shards_refreshed", out.swaps.refreshed as f64);
            self.report_delta_layers(&out);
        }
        Ok(())
    }

    /// Per-layer numbers of the delta path that both tiers share.
    fn report_delta_layers(&mut self, out: &StepSamples) {
        for (kind, name) in DeltaKind::ALL.iter().map(|k| (*k as usize, k.name())) {
            self.metrics.median_of(
                &format!("engine.apply_delta_{name}_ms"),
                &out.apply[kind],
                1e3,
            );
        }
        self.metrics
            .median_of("engine.snapshot_us", &out.snapshot, 1e6);
        self.metrics
            .median_of("engine.apply_self_ms", &out.apply_self, 1e3);
        self.metrics
            .median_of("graph.apply_delta_ms", &out.graph_apply, 1e3);
        self.metrics
            .median_of("graph.site_graph_ms", &out.site_graph, 1e3);
        self.metrics
            .median_of("core.incremental_update_ms", &out.core_update, 1e3);
        self.metrics
            .median_of("core.diff_sites_ms", &out.diff_sites, 1e3);
        self.metrics.set("graph.delta_ops", out.delta_ops as f64);
        self.metrics
            .set("core.sites_recomputed", out.sites_recomputed as f64);
        self.metrics
            .set("core.sites_reused", out.sites_reused as f64);
        let touched = (out.sites_recomputed + out.sites_reused).max(1);
        self.metrics
            .set("core.reuse_ratio", out.sites_reused as f64 / touched as f64);
        let coverage = trace::child_coverage_pct(self.tracer.spans(), "freshness");
        if !coverage.is_empty() {
            self.metrics
                .set("trace.freshness_children_pct", stats::median(&coverage));
        }
    }

    // ------------------------------------------------------------ query

    /// Closed loop, one thread, no publishes: `slices` capacity slices per
    /// class (point mix, `top_k` alone). A rate is the median over slices,
    /// so a hiccup of the host costs one slice, not the run.
    fn capacity_slices(&mut self, server: &Server, slices: usize, s: &mut QuerySamples) -> Res<()> {
        if slices == 0 {
            return Ok(());
        }
        server.publish(&self.current.0)?;
        let serving = Check::Fixed(self.current.0.epoch(), self.current.1);
        for mix in [Mix::Point, Mix::TopK] {
            if mix == Mix::TopK && !self.plan.top_k_slices {
                continue;
            }
            let ops = gen::draw_many(&mut self.rng, mix, &self.targets, 4096);
            gen::hash_queries(&ops, &mut self.hash);
            for _ in 0..slices {
                self.tracer.next_op();
                let slice = Until::Elapsed(SLICE_S);
                let (r, _) = self.tracer.time("serve.closed_loop", || {
                    closed_loop(server, &self.batches, &ops, slice, serving)
                });
                self.tally.absorb(r.count, r.failed, r.note);
                let rates = match mix {
                    Mix::Point => &mut s.point_rates,
                    _ => &mut s.top_k_rates,
                };
                rates.push(r.count as f64 / r.elapsed_s);
            }
        }
        Ok(())
    }

    /// Open loop: arrivals on a schedule while snapshots are swapped in.
    fn phase_query(
        &mut self,
        engine: &mut Engine,
        server: &Server,
        shards: &Shards,
        s: &mut QuerySamples,
    ) -> Res<()> {
        server.publish(&self.current.0)?;
        if self.plan.detail {
            let serving = Check::Fixed(self.current.0.epoch(), self.current.1);
            self.serve_probes(server, shards, serving);
        }
        for (rate_index, seconds) in self.plan.query_rates.clone() {
            let rate = RATES[rate_index].0;
            let publishes = (seconds / secs(PUBLISH_EVERY)) as usize;
            let chain = self.precompute_chain(engine, publishes)?;
            let schedule = gen::arrivals(&mut self.rng, &self.targets, rate, seconds);
            for (due, op) in &schedule {
                self.hash.push(*due);
                gen::hash_queries([op], &mut self.hash);
            }
            self.tracer.next_op();
            let span = self.tracer.begin("serve.open_loop");
            let r = open_loop(server, &self.batches, &schedule, &self.current, &chain);
            self.tracer.end(span);
            self.tally.absorb(
                schedule.len() as u64 + r.swaps.len() as u64,
                r.failed,
                r.note,
            );
            if let Some(last) = chain.last() {
                self.current = last.clone();
            }
            // Windows of at least 200 ms and about 1 200 arrivals; thinner
            // ones (fewer than 1 000) are dropped.
            let window_ns = ((1_200.0 / rate * 1e9) as u64).max(200_000_000);
            s.window_p99_us[rate_index].extend(
                stats::window_p99s(&r.arrivals, window_ns, 1_000)
                    .iter()
                    .map(|ns| ns / 1e3),
            );
            let (lag_max, lag_last) = stats::lag_profile(&r.arrivals);
            s.lag_max_us = s.lag_max_us.max(lag_max as f64 / 1e3);
            s.fell_behind[rate_index] |= lag_last as f64 / 1e3 >= LATENCY_LIMIT_US;
            s.swap_us.extend(
                r.arrivals
                    .iter()
                    .filter(|a| {
                        r.swaps
                            .iter()
                            .any(|&(from, to)| a.due_ns >= from && a.due_ns <= to)
                    })
                    .map(|a| a.latency_ns() as f64 / 1e3),
            );
        }
        Ok(())
    }

    /// Service time per query class and the cost of building one shard
    /// (the traced pass): fixed counts, one span per class.
    fn serve_probes(&mut self, server: &Server, shards: &Shards, serving: Check) {
        for (class, name) in CLASSES.iter().enumerate() {
            let n = if class == 4 { 2_000 } else { 200_000 };
            let ops = gen::draw_many(&mut self.rng, Mix::Class(class), &self.targets, 1024);
            self.tracer.next_op();
            let (r, _) = self.tracer.time("serve.class_loop", || {
                closed_loop(server, &self.batches, &ops, Until::Count(n), serving)
            });
            self.tally.absorb(r.count, r.failed, r.note);
            let per_op_s = r.elapsed_s / r.count as f64;
            if class == 4 {
                self.metrics.set("serve.top_k_us", per_op_s * 1e6);
            } else {
                self.metrics
                    .set(&format!("serve.{name}_ns"), per_op_s * 1e9);
            }
        }
        let mut builds = Vec::new();
        for _ in 0..5 {
            let snap = &self.current.0;
            let (_, d) = self
                .tracer
                .time("serve.shard_build", || snap.build_one_shard(shards));
            builds.push(secs(d));
        }
        self.metrics.median_of("serve.shard_build_ms", &builds, 1e3);
    }

    /// Applies `n` more deltas of the stream to the engine without
    /// publishing them: the snapshots an open-loop phase swaps in.
    fn precompute_chain(&mut self, engine: &mut Engine, n: usize) -> Res<Vec<(Snap, u64)>> {
        let mut chain = Vec::with_capacity(n);
        for _ in 0..n {
            let spec = self.churn.next(&self.web);
            spec.hash_into(&mut self.hash);
            let delta = self.web.delta(&spec)?;
            let info = engine.apply_delta(&delta)?;
            let snap = engine.snapshot()?;
            self.tally.op(
                &[
                    (info.converged, "incremental update did not converge"),
                    (
                        (snap.mass() - 1.0).abs() <= MASS_TOLERANCE,
                        "rank mass drifted from 1",
                    ),
                ],
                "chain delta",
            );
            self.web = self.web.apply(&delta)?.0;
            chain.push((snap, sut::top_digest(&engine.top_k()?)));
        }
        Ok(chain)
    }

    fn report_query(&mut self, s: QuerySamples, before: ServeCounters, after: ServeCounters) {
        self.metrics.median_of("point_qps", &s.point_rates, 1.0);
        self.metrics.median_of("top_k_qps", &s.top_k_rates, 1.0);
        self.metrics
            .median_of("query_p99_us", &s.window_p99_us[MAIN_RATE], 1.0);
        if !self.plan.detail {
            return;
        }
        let mut max_rate = 0.0f64;
        for (i, (rate, name)) in RATES.iter().enumerate() {
            self.metrics.median_of(name, &s.window_p99_us[i], 1.0);
            let sustained = !s.window_p99_us[i].is_empty()
                && stats::median(&s.window_p99_us[i]) <= LATENCY_LIMIT_US
                && !s.fell_behind[i];
            if sustained {
                max_rate = max_rate.max(*rate);
            }
        }
        self.metrics.set("serve.max_rate_qps", max_rate);
        self.metrics.set("serve.gen_lag_max_us", s.lag_max_us);
        let mut swap_us = s.swap_us;
        swap_us.sort_unstable_by(f64::total_cmp);
        if let Some((_, value)) = stats::tail(&swap_us) {
            self.metrics.set("serve.swap_p99_us", value);
        }
        self.metrics.set(
            "serve.direct_hits",
            (after.direct_hits - before.direct_hits) as f64,
        );
        self.metrics.set(
            "serve.fanout_queries",
            (after.fanout_queries - before.fanout_queries) as f64,
        );
        self.metrics.set(
            "serve.gather_retries",
            (after.gather_retries - before.gather_retries) as f64,
        );
        self.metrics.set(
            "serve.gate_escalations",
            (after.gate_escalations - before.gate_escalations) as f64,
        );
    }

    // ---------------------------------------------------------- cluster

    fn phase_cluster(
        &mut self,
        engine: &mut Engine,
        cluster: &mut Cluster,
        shards: &Shards,
    ) -> Res<()> {
        self.start_shadow()?;
        // Phase A: deltas to the first client answer at the new epoch, over
        // several instances of the fabric. How long a publish waits on the
        // nodes' 25 ms accept ticks depends on how the four nodes' ticks
        // happen to be offset against each other, which is fixed when they
        // start: one instance would put the whole run at one draw of that
        // lottery, anywhere between 75 and 115 ms.
        let mut out = StepSamples::default();
        let mut s = ClusterQuerySamples::default();
        let instances = self.plan.cluster_steps.div_ceil(FABRIC_STEPS);
        let mut left = self.plan.cluster_steps;
        let (client, before) = 'instances: loop {
            // Catch the fabric up with what was published elsewhere, and
            // open the client's connections, before timing.
            cluster.publish(&self.current.0)?;
            let before = cluster.counters();
            let client = cluster.client();
            let warm = client.answer(&QueryOp::TopK, &self.batches)?;
            self.tally.op(
                &[(
                    warm.epoch == self.current.0.epoch() && warm.digest == self.current.1,
                    "cluster top_k differs from engine.top_k",
                )],
                "cluster warm-up",
            );
            let steps = left.min(self.plan.cluster_steps.div_ceil(instances));
            for done in 0..steps {
                if self.out_of_time(left - done, "cluster deltas") {
                    break 'instances (client, before);
                }
                // Deltas arrive at seeded random instants, not back to back,
                // so that each meets the ticks at its own phase.
                std::thread::sleep(Duration::from_micros(self.rng.below(THINK_MAX_US) as u64));
                self.delta_step(engine, &Fabric(cluster, &client), None, &mut out)?;
            }
            left -= steps;
            if left == 0 {
                break (client, before);
            }
            s.fabric.add_since(&cluster.counters(), &before);
            drop(client);
            std::mem::replace(cluster, Cluster::start(shards)?).shutdown();
        };

        if self.plan.cluster_query_s > 0.0 {
            self.cluster_queries(&client, &mut s);
        }
        s.fabric.add_since(&cluster.counters(), &before);
        if self.plan.detail {
            self.cluster_probes(cluster, shards)?;
        }
        self.report_cluster(&out, &s);
        Ok(())
    }

    /// Phase B: one closed-loop client, the mixed queries, each timed.
    fn cluster_queries(&mut self, client: &Client, s: &mut ClusterQuerySamples) {
        let ops = gen::draw_many(&mut self.rng, Mix::Mixed, &self.targets, 4096);
        gen::hash_queries(&ops, &mut self.hash);
        let serving = Check::Fixed(self.current.0.epoch(), self.current.1);
        let deadline = Duration::from_secs_f64(self.plan.cluster_query_s);
        let bytes_before = client.counters().bytes;
        let started = Instant::now();
        self.tracer.next_op();
        let span = self.tracer.begin("cluster.client.closed_loop");
        'run: loop {
            for op in &ops {
                let t = Instant::now();
                let answer = client.answer(op, &self.batches);
                s.by_class[op.class()].push(secs(t.elapsed()));
                s.count += 1;
                let ok = matches!(&answer, Ok(a) if serving.accepts(0, op, a));
                self.tally
                    .op(&[(ok, "wrong or failed cluster answer")], "cluster query");
                if s.count.is_multiple_of(64) && started.elapsed() >= deadline {
                    break 'run;
                }
            }
        }
        self.tracer.end(span);
        s.elapsed_s = secs(started.elapsed());
        s.client = client.counters();
        s.client_bytes = s.client.bytes - bytes_before;
    }

    /// The wire and the transport on their own (the traced pass).
    fn cluster_probes(&mut self, cluster: &Cluster, shards: &Shards) -> Res<()> {
        let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0);
        for _ in 0..5 {
            let (e, d, b) = sut::wire_segment_codec(&self.current.0, shards)?;
            encode.push(secs(e));
            decode.push(secs(d));
            bytes = b;
        }
        self.metrics
            .median_of("cluster.wire.encode_segment_ms", &encode, 1e3);
        self.metrics
            .median_of("cluster.wire.decode_segment_ms", &decode, 1e3);
        self.metrics.set("cluster.wire.segment_bytes", bytes as f64);
        self.metrics.set(
            "cluster.wire.point_codec_ns",
            secs(sut::wire_point_codec(20_000)?) * 1e9,
        );
        let (mut dials, mut rtts) = (Vec::new(), Vec::new());
        for i in 0..8 {
            let t = Instant::now();
            let mut conn = Conn::dial(cluster.node_addr(i % sut::N_NODES))?;
            dials.push(secs(t.elapsed()));
            for _ in 0..50 {
                let t = Instant::now();
                conn.ping()?;
                rtts.push(secs(t.elapsed()));
            }
        }
        self.metrics
            .median_of("cluster.transport.dial_ms", &dials, 1e3);
        self.metrics
            .median_of("cluster.transport.rtt_us", &rtts, 1e6);
        Ok(())
    }

    fn report_cluster(&mut self, out: &StepSamples, s: &ClusterQuerySamples) {
        let all: Vec<f64> = out.freshness.iter().flatten().copied().collect();
        self.metrics.median_of("freshness_cluster_ms", &all, 1e3);
        if s.count > 0 {
            self.metrics
                .set("cluster_qps", s.count as f64 / s.elapsed_s);
        }
        let points: Vec<f64> = s.by_class[..4].iter().flatten().copied().collect();
        self.metrics.median_of("cluster_point_p50_us", &points, 1e6);
        self.metrics
            .median_of("cluster_top_k_p50_us", &s.by_class[4], 1e6);
        if !self.plan.detail {
            return;
        }
        for (class, name) in CLASSES.iter().enumerate() {
            self.metrics.median_of(
                &format!("cluster.client.{name}_us"),
                &s.by_class[class],
                1e6,
            );
        }
        self.metrics.set(
            "cluster.client.gather_retries",
            s.client.gather_retries as f64,
        );
        self.metrics.set(
            "cluster.client.gather_escalations",
            s.client.gather_escalations as f64,
        );
        self.metrics.set(
            "cluster.client.placement_refreshes",
            s.client.placement_refreshes as f64,
        );
        self.metrics
            .set("cluster.client.reconnects", s.client.reconnects as f64);
        self.metrics.set(
            "cluster.client.node_failures",
            s.client.node_failures as f64,
        );
        self.metrics.set(
            "cluster.client.bytes_per_query",
            s.client_bytes as f64 / s.count as f64,
        );
        self.metrics
            .median_of("cluster.client.first_answer_ms", &out.first_answer, 1e3);
        for (kind, name) in DeltaKind::ALL.iter().map(|k| (*k as usize, k.name())) {
            self.metrics.median_of(
                &format!("cluster.controller.publish_{name}_ms"),
                &out.publish[kind],
                1e3,
            );
        }
        self.metrics.set(
            "cluster.controller.max_fanout_ms",
            stats::median(&out.max_fanout_ms),
        );
        self.metrics
            .set("cluster.controller.publish_attempts", out.attempts as f64);
        self.metrics.set(
            "cluster.controller.bytes_out_per_publish",
            s.fabric.controller_bytes_out as f64 / s.fabric.publishes.max(1) as f64,
        );
        self.metrics
            .set("cluster.node.queries", s.fabric.node_queries as f64);
        self.metrics.set(
            "cluster.node.staged_expired",
            s.fabric.node_staged_expired as f64,
        );
        self.metrics
            .set("cluster.node.aborted", s.fabric.node_aborted as f64);
        self.report_delta_layers(out);
    }
}

// ------------------------------------------------------------------ entry

/// Runs one workload.
///
/// # Errors
/// A product call that must succeed for the run to continue failed.
pub fn run(args: Args) -> Res<Outcome> {
    let guard = (GUARD_FACTOR * args.seconds).max(GUARD_FLOOR_S);
    run_within(args, Duration::from_secs_f64(guard))
}

/// [`run`], issuing no step once `guard` has passed.
fn run_within(args: Args, guard: Duration) -> Res<Outcome> {
    let started = Instant::now();
    let rng = SplitMix::new(args.seed);
    let focus = args.workload;
    // (in-process server, cluster): a traced run sets up only the tiers
    // its workload exercises.
    let needs = if args.traced {
        (
            matches!(focus, Workload::ChurnInproc | Workload::QueryInproc),
            focus == Workload::ClusterE2e,
        )
    } else {
        (true, true)
    };

    // Set-up, several times over: the median is the set-up time, the last
    // world is the one the phases run on.
    let mut times = SetupTimes::default();
    let mut world = None;
    let setups = if args.traced {
        1
    } else {
        costs(args.scale).setups
    };
    for _ in 0..setups {
        // Repeating the set-up may not cost more than half of `--seconds`.
        if times.total.iter().sum::<f64>() > args.seconds / 2.0 {
            break;
        }
        if let Some(World {
            cluster: Some(c), ..
        }) = world.take()
        {
            c.shutdown();
        }
        world = Some(build_world(&args, &rng, needs, &mut times)?);
    }
    let World {
        base,
        shards,
        mut engine,
        snap,
        server,
        mut cluster,
    } = world.expect("at least one set-up");

    let targets = Targets::of(&base);
    let top = sut::top_digest(&engine.top_k()?);
    let mut run = Run {
        tracer: Tracer::new(false),
        tally: Tally::default(),
        metrics: Metrics::default(),
        hash: ScheduleHash::default(),
        churn: Churn::new(rng.fork(0xC4A2), &base),
        batches: Batches::of(&targets),
        targets,
        shadow: None,
        web: base.clone(),
        current: (snap, top),
        step: 0,
        deadline: started + guard,
        rng: rng.fork(0x0B5E),
        plan: plan(&args, Mode::Gated),
        args,
    };
    run.tally.op(
        &[(
            (run.current.0.mass() - 1.0).abs() <= MASS_TOLERANCE,
            "rank mass drifted from 1",
        )],
        "set-up ranking",
    );

    let modes: &[Mode] = if args.traced {
        &[Mode::Baseline, Mode::Traced]
    } else {
        &[Mode::Gated]
    };
    let mut baseline = None;
    let mut phase_wall = [0.0f64; 4];
    let result = modes.iter().try_for_each(|&mode| -> Res<()> {
        if mode == Mode::Traced {
            baseline = Some(std::mem::take(&mut run.metrics));
        }
        run.plan = plan(&args, mode);
        run.tracer = Tracer::new(mode == Mode::Traced);
        // Rank rounds and capacity slices in groups between the other
        // phases (see the module documentation).
        let rank_groups = spread(run.plan.rank_rounds, 4);
        let slice_groups = spread(run.plan.query_slices, 3);
        let (mut rank, mut query) = (RankSamples::default(), QuerySamples::default());
        let serve_before = server.as_ref().map(Server::counters);
        let mut timed = |phase: usize, run: &mut Run, f: &mut dyn FnMut(&mut Run) -> Res<()>| {
            let t = Instant::now();
            let result = f(run);
            phase_wall[phase] += secs(t.elapsed());
            result
        };
        timed(0, &mut run, &mut |run| {
            run.rank_rounds(&base, rank_groups[0], &mut rank)
        })?;
        if let Some(server) = &server {
            timed(2, &mut run, &mut |run| {
                run.capacity_slices(server, slice_groups[0], &mut query)
            })?;
            if run.plan.churn_steps > 0 {
                timed(1, &mut run, &mut |run| run.phase_churn(&mut engine, server))?;
            }
        }
        timed(0, &mut run, &mut |run| {
            run.rank_rounds(&base, rank_groups[1], &mut rank)
        })?;
        if let Some(server) = &server {
            timed(2, &mut run, &mut |run| {
                run.capacity_slices(server, slice_groups[1], &mut query)?;
                if run.plan.query_rates.is_empty() {
                    return Ok(());
                }
                run.phase_query(&mut engine, server, &shards, &mut query)
            })?;
        }
        timed(0, &mut run, &mut |run| {
            run.rank_rounds(&base, rank_groups[2], &mut rank)
        })?;
        if let Some(cluster) = &mut cluster {
            if run.plan.cluster_steps > 0 {
                timed(3, &mut run, &mut |run| {
                    run.phase_cluster(&mut engine, cluster, &shards)
                })?;
            }
        }
        timed(0, &mut run, &mut |run| {
            run.rank_rounds(&base, rank_groups[3], &mut rank)
        })?;
        if run.plan.rank_rounds > 0 {
            if run.plan.detail {
                run.rank_probes(&base, &rank)?;
            }
            run.report_rank(&base, &rank);
        }
        if let (Some(server), Some(before)) = (&server, serve_before) {
            timed(2, &mut run, &mut |run| {
                run.capacity_slices(server, slice_groups[2], &mut query)
            })?;
            if run.plan.query_slices > 0 {
                run.report_query(query, before, server.counters());
            }
        }
        Ok(())
    });
    // Stop the fabric's threads whether or not the phases succeeded.
    if let Some(cluster) = cluster {
        cluster.shutdown();
    }
    drop(server);
    result?;

    run.metrics.median_of("setup_s", &times.total, 1.0);
    let mut untraced_pass = Vec::new();
    if let Some(baseline) = baseline {
        run.metrics.set(
            "trace_overhead_pct",
            trace_overhead_pct(&baseline, &run.metrics),
        );
        untraced_pass = baseline
            .iter()
            .map(|(name, m)| (name, Json::Num(m.value)))
            .collect();
        run.metrics
            .median_of("graph.generate_s", &times.generate, 1.0);
        run.metrics
            .median_of("graph.shard_map_ms", &times.shard_map, 1e3);
        run.metrics
            .median_of("serve.start_ms", &times.serve_start, 1e3);
        run.metrics
            .median_of("cluster.controller.start_ms", &times.controller_start, 1e3);
        run.metrics
            .median_of("cluster.node.start_ms", &times.node_start, 1e3);
        run.metrics
            .median_of("cluster.first_publish_ms", &times.first_publish, 1e3);
    }

    let shares = args.traced.then(|| layer_shares(&run.tracer));
    let phase_wall = ["rank", "churn", "query", "cluster"]
        .into_iter()
        .zip(phase_wall)
        .map(|(name, s)| (name, Json::Num(s)));
    let envelope = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.traced)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("scale", Json::str(format!("{:?}", args.scale))),
        ("engine_threads", Json::Num(1.0)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)),
        ),
        ("git_rev", Json::str(git_rev())),
        ("docs", Json::Num(base.n_docs() as f64)),
        ("sites", Json::Num(base.n_sites() as f64)),
        ("links", Json::Num(base.n_links() as f64)),
        (
            "live_sites_at_end",
            Json::Num(run.web.n_live_sites() as f64),
        ),
        (
            "churn_sites_alive",
            Json::Num(run.churn.live_added_sites() as f64),
        ),
        (
            "schedule_hash",
            Json::str(format!("{:016x}", run.hash.value())),
        ),
        ("ops_attempted", Json::Num(run.tally.attempted as f64)),
        ("ops_failed", Json::Num(run.tally.failed as f64)),
        ("wall_s", Json::Num(secs(started.elapsed()))),
        ("setup_total_s", Json::Num(times.total.iter().sum())),
        ("phase_wall_s", Json::obj(phase_wall)),
        // End-to-end medians of a traced run's untraced first pass: the
        // base `trace_overhead_pct` is measured against.
        ("untraced_pass", Json::obj(untraced_pass)),
    ];
    Ok(Outcome {
        metrics: run.metrics,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        notes: run.tally.notes,
        tracer: run.tracer,
        envelope,
        shares,
    })
}

/// How much worse the traced pass's end-to-end medians are than the
/// untraced pass's, in percent, for the metric that worsened most — the
/// timings only: a count a span cannot slow would put a floor of zero
/// under the figure. Both passes are short, so run-to-run noise shows here
/// too — a negative value says the traced pass was the faster of the two
/// on every metric.
fn trace_overhead_pct(untraced: &Metrics, traced: &Metrics) -> f64 {
    report::end_to_end()
        .filter_map(|d| {
            let base = untraced
                .iter()
                .find(|(name, m)| *name == d.name && m.samples.is_some());
            let (base, with) = (base?.1.value, traced.get(d.name)?);
            let worse = match d.better {
                Better::Lower => with / base - 1.0,
                Better::Higher => base / with - 1.0,
            };
            Some(100.0 * worse)
        })
        .reduce(f64::max)
        .unwrap_or(0.0)
}

/// The commit the benchmark ran at: `GIT_REV` if the caller set it, else
/// whatever `.git/HEAD` resolves to, else `unknown` (a checkout that is
/// not a repository).
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        return rev;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(path) => std::fs::read_to_string(format!(".git/{path}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Blocking time per layer group, as shares of all non-replay self time:
/// graph + core + linalg (everything an engine call does), serve, cluster.
/// `client.first_answer` is a read of whichever tier the delta was
/// published to, so it goes where its sibling publish span goes.
fn layer_shares(tracer: &Tracer) -> (f64, f64, f64) {
    let by_name = trace::self_time_by_name(tracer.spans());
    let first_answer_is_cluster = by_name.contains_key(<Fabric as Tier>::PUBLISH_SPAN);
    let (mut rank, mut serve, mut cluster, mut total) = (0u64, 0u64, 0u64, 0u64);
    for (name, ns) in by_name {
        total += ns;
        let first_answer = name == "client.first_answer";
        if ["engine.", "graph.", "core.", "rank."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            rank += ns;
        } else if name.starts_with("serve.") || (first_answer && !first_answer_is_cluster) {
            serve += ns;
        } else if name.starts_with("cluster.") || first_answer {
            cluster += ns;
        }
    }
    let pct = |x: u64| 100.0 * x as f64 / total.max(1) as f64;
    (pct(rank), pct(serve), pct(cluster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Kind;

    fn tiny(workload: Workload, seed: u64, traced: bool) -> Outcome {
        run(Args {
            workload,
            seed,
            seconds: 0.4,
            traced,
            scale: Scale::Smoke,
        })
        .expect("run")
    }

    fn envelope_str(o: &Outcome, key: &str) -> String {
        o.envelope
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_str().map(str::to_string))
            .expect("envelope key")
    }

    #[test]
    fn untraced_runs_measure_every_end_to_end_metric_without_failures() {
        let o = tiny(Workload::ChurnInproc, 1, false);
        assert_eq!(o.failed, 0, "{:?}", o.notes);
        assert!(o.attempted > 100);
        for d in report::end_to_end() {
            let v = o.metrics.get(d.name).unwrap_or(0.0);
            assert!(v > 0.0, "{} = {v}", d.name);
        }
    }

    #[test]
    fn the_untraced_plan_ignores_the_workload_and_a_traced_one_isolates_it() {
        let args = |workload, traced| Args {
            workload,
            seed: 1,
            seconds: 20.0,
            traced,
            scale: Scale::Bench,
        };
        let gated = plan(&args(Workload::RankCold, false), Mode::Gated);
        for workload in Workload::ALL {
            assert_eq!(plan(&args(workload, false), Mode::Gated), gated);
        }
        // Only what a gated metric comes from.
        assert!(gated.rank_rounds > 0 && gated.churn_steps > 0 && gated.cluster_steps > 0);
        assert!(gated.query_slices > 0 && !gated.top_k_slices);
        assert!(gated.query_rates.is_empty() && gated.cluster_query_s == 0.0);
        assert!((GATED_SHARES.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        let traced = plan(&args(Workload::QueryInproc, true), Mode::Traced);
        assert_eq!(
            (traced.rank_rounds, traced.churn_steps, traced.cluster_steps),
            (0, 0, 0)
        );
        assert!(traced.top_k_slices && traced.query_rates.len() == RATES.len());
    }

    #[test]
    fn a_run_that_outlasts_its_guard_leaves_steps_out_and_counts_them_failed() {
        let args = Args {
            workload: Workload::ChurnInproc,
            seed: 1,
            seconds: 0.4,
            traced: false,
            scale: Scale::Smoke,
        };
        let o = run_within(args, Duration::ZERO).expect("run");
        assert!(o.failed > 0);
        assert!(
            o.notes.iter().any(|n| n.contains("left out")),
            "{:?}",
            o.notes
        );
        assert!(o.metrics.get("rank_layered_s").is_none());
        assert!(o.metrics.get("freshness_cluster_ms").is_none());
    }

    #[test]
    fn same_seed_same_schedule_and_exact_counters_other_seed_differs() {
        let exact = |o: &Outcome| -> Vec<(&'static str, f64)> {
            o.metrics
                .iter()
                .filter(|(n, _)| {
                    matches!(report::def(n).unwrap().kind, Kind::PerLayer { exact: true })
                })
                .map(|(n, m)| (n, m.value))
                .collect()
        };
        for workload in [
            Workload::RankCold,
            Workload::ChurnInproc,
            Workload::ClusterE2e,
        ] {
            let (a, b) = (tiny(workload, 5, true), tiny(workload, 5, true));
            assert_eq!((a.failed, b.failed), (0, 0), "{:?} {:?}", a.notes, b.notes);
            assert_eq!(
                envelope_str(&a, "schedule_hash"),
                envelope_str(&b, "schedule_hash")
            );
            assert!(!exact(&a).is_empty());
            assert_eq!(exact(&a), exact(&b), "{workload:?}");
        }
        let (a, c) = (
            tiny(Workload::ChurnInproc, 5, true),
            tiny(Workload::ChurnInproc, 6, true),
        );
        assert_ne!(
            envelope_str(&a, "schedule_hash"),
            envelope_str(&c, "schedule_hash")
        );
    }

    #[test]
    fn a_traced_run_reports_only_the_layers_its_workload_exercises() {
        let rank = tiny(Workload::RankCold, 2, true);
        assert_eq!(rank.failed, 0, "{:?}", rank.notes);
        for (name, m) in rank.metrics.iter() {
            assert!(
                !(name.starts_with("serve.") || name.starts_with("cluster.")) || m.value == 0.0,
                "rank_cold measured {name}"
            );
        }
        assert!(rank.metrics.get("core.layered_doc_rank_s").unwrap() > 0.0);
        let (r, s, c) = rank.shares.unwrap();
        assert!(r > 99.0 && s == 0.0 && c == 0.0, "{r} {s} {c}");

        let query = tiny(Workload::QueryInproc, 2, true);
        assert_eq!(query.failed, 0, "{:?}", query.notes);
        assert!(query.metrics.get("serve.score_ns").unwrap() > 0.0);
        assert!(query.metrics.get("cluster.transport.rtt_us").is_none());
        assert!(query.shares.unwrap().1 > 50.0);

        // The first fresh answer is a read of the tier published to: no
        // cluster time where there is no cluster.
        let churn = tiny(Workload::ChurnInproc, 2, true);
        assert_eq!(churn.failed, 0, "{:?}", churn.notes);
        let (r, s, c) = churn.shares.unwrap();
        assert!(r > 0.0 && s > 0.0 && c == 0.0, "{r} {s} {c}");

        let cluster = tiny(Workload::ClusterE2e, 2, true);
        assert_eq!(cluster.failed, 0, "{:?}", cluster.notes);
        assert!(cluster.metrics.get("cluster.transport.rtt_us").unwrap() > 0.0);
        let coverage = cluster.metrics.get("trace.freshness_children_pct").unwrap();
        assert!(coverage > 95.0 && coverage <= 100.0, "{coverage}");
        assert!(!cluster.tracer.spans().is_empty());
    }
}
