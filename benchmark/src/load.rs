//! Load generators: one closed-loop client, and the open loop in which a
//! generator thread sends each query when it is due while a second thread
//! swaps snapshots in — with the epoch bookkeeping that lets every answer
//! be checked against what the writer was doing when it was given.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::gen::QueryOp;
use crate::stats::Arrival;
use crate::sut::{Answer, Batches, Server, Snap, Surface};

/// Snapshots are swapped in this often during open-loop phases.
pub const PUBLISH_EVERY: Duration = Duration::from_millis(500);

/// Epoch bounds a concurrent reader checks answers against: every answer
/// must come from an epoch in `lo..=hi`, which is {pre-swap, post-swap}
/// while a publish is in flight and a single epoch otherwise.
#[derive(Debug)]
pub struct EpochWindow {
    lo: AtomicU64,
    hi: AtomicU64,
}

impl EpochWindow {
    pub fn at(epoch: u64) -> Self {
        Self {
            lo: AtomicU64::new(epoch),
            hi: AtomicU64::new(epoch),
        }
    }
    /// A publish of `next` is about to start.
    pub fn opening(&self, next: u64) {
        self.hi.store(next, Ordering::SeqCst);
    }
    /// The publish of `now` has returned.
    pub fn closed(&self, now: u64) {
        self.lo.store(now, Ordering::SeqCst);
    }
}

/// How a query's answer is checked.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// No publish is in flight: every answer is at this epoch, and a
    /// `top_k` has this digest.
    Fixed(u64, u64),
    /// A writer is publishing: the epoch must lie inside the window.
    Window(&'a EpochWindow),
}

impl Check<'_> {
    /// The oldest epoch an answer to a query sent now may carry; read it
    /// before sending.
    pub fn floor(&self) -> u64 {
        match self {
            Check::Fixed(epoch, _) => *epoch,
            Check::Window(w) => w.lo.load(Ordering::SeqCst),
        }
    }

    /// Whether `answer`, to a query sent when the floor was `lo`, is one
    /// the tier may give.
    pub fn accepts(&self, lo: u64, op: &QueryOp, answer: &Answer) -> bool {
        match *self {
            Check::Fixed(epoch, top) => {
                answer.epoch == epoch && (*op != QueryOp::TopK || answer.digest == top)
            }
            Check::Window(w) => answer.epoch >= lo && answer.epoch <= w.hi.load(Ordering::SeqCst),
        }
    }
}

pub enum Until<'a> {
    Stopped(&'a AtomicBool),
    Elapsed(f64),
    Count(u64),
}

pub struct LoopResult {
    pub count: u64,
    pub failed: u64,
    pub note: Option<String>,
    pub elapsed_s: f64,
}

/// One closed-loop client: the next query is sent when the previous one
/// has been answered.
pub fn closed_loop(
    tier: &dyn Surface,
    batches: &Batches,
    ops: &[QueryOp],
    until: Until,
    check: Check,
) -> LoopResult {
    let started = Instant::now();
    let (mut count, mut failed, mut note) = (0u64, 0u64, None);
    'run: loop {
        for op in ops {
            let lo = check.floor();
            let answer = tier.answer(op, batches);
            count += 1;
            if !matches!(&answer, Ok(a) if check.accepts(lo, op, a)) {
                failed += 1;
                note.get_or_insert_with(|| format!("closed-loop {op:?}: {answer:?}"));
            }
            if count.is_multiple_of(256) {
                let done = match until {
                    Until::Stopped(stop) => stop.load(Ordering::SeqCst),
                    Until::Elapsed(s) => started.elapsed().as_secs_f64() >= s,
                    Until::Count(n) => count >= n,
                };
                if done {
                    break 'run;
                }
            }
        }
    }
    LoopResult {
        count,
        failed,
        note,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

pub struct OpenLoopResult {
    pub arrivals: Vec<Arrival>,
    /// `(start_ns, end_ns)` of each publish, on the arrivals' clock.
    pub swaps: Vec<(u64, u64)>,
    pub failed: u64,
    pub note: Option<String>,
}

/// One generator thread sends each query when it is due — it never waits
/// for capacity — while a second thread swaps in the next snapshot of
/// `chain` every [`PUBLISH_EVERY`]. Every answer is checked against the
/// snapshot of the epoch it claims.
pub fn open_loop(
    server: &Server,
    batches: &Batches,
    schedule: &[(u64, QueryOp)],
    serving: &(Snap, u64),
    chain: &[(Snap, u64)],
) -> OpenLoopResult {
    let first_epoch = serving.0.epoch();
    let by_epoch = |epoch: u64| -> Option<&(Snap, u64)> {
        match epoch.checked_sub(first_epoch)? {
            0 => Some(serving),
            i => chain.get(i as usize - 1),
        }
    };
    let window = EpochWindow::at(first_epoch);
    let check = Check::Window(&window);
    let done = AtomicBool::new(false);
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut arrivals = Vec::with_capacity(schedule.len());
    let (mut failed, mut note) = (0u64, None);
    let (swaps, publish_error) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let mut swaps = Vec::with_capacity(chain.len());
            for (i, (snap, _)) in chain.iter().enumerate() {
                let due = PUBLISH_EVERY * (i as u32 + 1);
                while origin.elapsed() < due && !done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let start = now_ns();
                window.opening(snap.epoch());
                if let Err(e) = server.publish(snap) {
                    return (swaps, Some(e));
                }
                window.closed(snap.epoch());
                swaps.push((start, now_ns()));
            }
            (swaps, None)
        });
        for (due_ns, op) in schedule {
            while now_ns() < *due_ns {
                std::hint::spin_loop();
            }
            let lo = check.floor();
            let start_ns = now_ns();
            let answer = server.answer(op, batches);
            let end_ns = now_ns();
            arrivals.push(Arrival {
                due_ns: *due_ns,
                start_ns,
                end_ns,
            });
            let ok = matches!(&answer, Ok(a) if check.accepts(lo, op, a)
            && by_epoch(a.epoch).is_some_and(|(snap, top)| match op {
                QueryOp::TopK => a.digest == *top,
                _ => batches.expect(op, snap).is_none_or(|want| want == a.digest),
            }));
            if !ok {
                failed += 1;
                note.get_or_insert_with(|| format!("open-loop {op:?}: {answer:?}"));
            }
        }
        done.store(true, Ordering::SeqCst);
        publisher.join().expect("publisher thread panicked")
    });
    if let Some(e) = publish_error {
        failed += 1;
        note.get_or_insert(format!("publish failed: {e}"));
    }
    OpenLoopResult {
        arrivals,
        swaps,
        failed,
        note,
    }
}
