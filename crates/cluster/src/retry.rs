//! One retry discipline for every role in the fabric.
//!
//! PR 6 left three ad-hoc retry loops in the tree: the client slept a
//! fixed `escalation_backoff` between gather escalations, the controller
//! re-ran failed publishes immediately until it ran out of nodes, and a
//! node that could not reach the controller at startup simply died. Under
//! chaos (dropped frames, delay spikes, partition windows) all three need
//! the same thing: **budgeted exponential backoff with deterministic
//! jitter and a per-operation deadline**. [`RetryPolicy`] is that
//! discipline; [`RetrySchedule`] is one operation's walk through it.
//!
//! Jitter is deterministic on purpose. The chaos test
//! (`tests/chaos.rs`) replays a seeded fault schedule and asserts exact
//! invariants; a thread-local RNG in the backoff path would make every
//! run a different interleaving. Instead each schedule hashes
//! `(jitter_seed, salt, attempt)` through splitmix64 and scales the
//! exponential step into `[step/2, step]` — desynchronized enough to
//! break retry convoys, reproducible enough to debug.

use std::thread;
use std::time::{Duration, Instant};

use lmm_engine::fingerprint::finalizer;

/// The splitmix64 step — the golden-ratio increment followed by the
/// engine's [`finalizer`], a full-avalanche hash of a 64-bit word. Fault
/// injection and the retry jitter derive independent deterministic
/// streams from one seed through it.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    finalizer(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// A budgeted, deterministic exponential-backoff policy shared by the
/// client (gather escalation, lazy reconnect), the controller (per-node
/// publish calls and whole-publish attempts), and the node (registration
/// and rejoin). `Copy` so configs embedding it stay plain values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First backoff step; doubles each attempt.
    pub base: Duration,
    /// Ceiling on a single backoff step.
    pub max_backoff: Duration,
    /// Total retries allowed per operation (0 disables retrying).
    pub max_attempts: u32,
    /// Wall-clock budget per operation: once `begin` is older than this,
    /// no further delay is granted even with attempts to spare.
    pub deadline: Duration,
    /// Seed for the deterministic jitter stream. Two schedules with the
    /// same seed and salt sleep identically.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Tuned for loopback fabrics: ~10 ms first step, kilohertz-scale
    /// convergence, and a 30 s ceiling that outlives any single publish
    /// or failover window the tests exercise.
    fn default() -> Self {
        Self {
            base: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
            max_attempts: 40,
            deadline: Duration::from_secs(30),
            jitter_seed: 0x5EED_AB1E_C0DE_D00D,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — for callers that want exactly one
    /// attempt but share the code path.
    #[cfg(test)]
    fn none() -> Self {
        Self {
            max_attempts: 0,
            ..Self::default()
        }
    }

    /// The jittered backoff for `attempt` (0-based) under `salt`.
    ///
    /// The raw step is `base * 2^attempt` capped at `max_backoff`; the
    /// jittered step is deterministic in `[raw/2, raw]` so concurrent
    /// retriers with distinct salts spread out instead of stampeding.
    #[must_use]
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.min(20); // past 2^20 the cap has long since won
        let raw = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let roll = splitmix64(self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt));
        let half = raw / 2;
        Duration::from_nanos(half + roll % (raw - half + 1))
    }

    /// Starts one operation's schedule. `salt` individualizes the jitter
    /// stream (use an op counter, node id, or epoch) without affecting
    /// the budget.
    #[must_use]
    pub fn begin(&self, salt: u64) -> RetrySchedule {
        RetrySchedule {
            policy: *self,
            salt,
            attempt: 0,
            started: Instant::now(),
        }
    }
}

/// One operation's walk through a [`RetryPolicy`]: hand out backoff
/// delays until the attempt budget or the wall-clock deadline is spent.
#[derive(Debug)]
pub struct RetrySchedule {
    policy: RetryPolicy,
    salt: u64,
    attempt: u32,
    started: Instant,
}

impl RetrySchedule {
    /// The next backoff delay, or `None` when the budget is exhausted —
    /// either `max_attempts` delays were already granted or sleeping the
    /// next step would cross the per-op deadline.
    fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.max_attempts {
            return None;
        }
        let delay = self.policy.backoff(self.attempt, self.salt);
        if self.started.elapsed() + delay > self.policy.deadline {
            return None;
        }
        self.attempt += 1;
        Some(delay)
    }

    /// Sleeps the next backoff step and reports whether the caller may
    /// retry; `false` means the budget is spent and the last error should
    /// surface.
    pub fn backoff_and_retry(&mut self) -> bool {
        match self.next_delay() {
            Some(delay) => {
                thread::sleep(delay);
                true
            }
            None => false,
        }
    }

    /// Delays granted so far.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(7), splitmix64(7));
        assert_ne!(splitmix64(7), splitmix64(8));
        // Single-bit input flips should flip roughly half the output bits.
        let flips = (splitmix64(7) ^ splitmix64(7 | 1 << 40)).count_ones();
        assert!((16..=48).contains(&flips), "weak avalanche: {flips} bits");
    }

    #[test]
    fn splitmix_known_answers() {
        // The reference splitmix64 stream's first output from seed 0, and
        // the bare finalizer: fault schedules, jitter and fingerprints are
        // pinned to these exact bits.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(finalizer(1), 0x5692_161d_100b_05e5);
    }

    #[test]
    fn backoff_grows_then_caps_with_bounded_jitter() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        let mut prev_raw = Duration::ZERO;
        for attempt in 0..10 {
            let raw = policy
                .base
                .saturating_mul(1 << attempt.min(20))
                .min(policy.max_backoff);
            let jittered = policy.backoff(attempt, 42);
            assert!(jittered <= raw, "attempt {attempt}: {jittered:?} > {raw:?}");
            assert!(
                jittered >= raw / 2,
                "attempt {attempt}: {jittered:?} < half of {raw:?}"
            );
            assert!(raw >= prev_raw);
            prev_raw = raw;
        }
        assert_eq!(prev_raw, policy.max_backoff);
    }

    #[test]
    fn jitter_is_deterministic_per_salt_and_varies_across_salts() {
        let policy = RetryPolicy::default();
        for attempt in 0..8 {
            assert_eq!(policy.backoff(attempt, 1), policy.backoff(attempt, 1));
        }
        // Not every attempt must differ across salts, but the whole
        // schedule colliding would mean the salt is ignored.
        let a: Vec<_> = (0..8).map(|i| policy.backoff(i, 1)).collect();
        let b: Vec<_> = (0..8).map(|i| policy.backoff(i, 2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn schedule_honors_attempt_budget() {
        let policy = RetryPolicy {
            base: Duration::from_micros(1),
            max_backoff: Duration::from_micros(2),
            max_attempts: 3,
            deadline: Duration::from_secs(60),
            jitter_seed: 9,
        };
        let mut schedule = policy.begin(5);
        assert!(schedule.next_delay().is_some());
        assert!(schedule.next_delay().is_some());
        assert!(schedule.next_delay().is_some());
        assert_eq!(schedule.next_delay(), None);
        assert_eq!(schedule.attempts(), 3);
    }

    #[test]
    fn schedule_honors_wall_deadline() {
        let policy = RetryPolicy {
            base: Duration::from_secs(10),
            max_backoff: Duration::from_secs(10),
            max_attempts: 100,
            deadline: Duration::from_millis(1),
            jitter_seed: 9,
        };
        // The very first 10 s step would blow the 1 ms deadline.
        let mut schedule = policy.begin(0);
        assert_eq!(schedule.next_delay(), None);
    }

    #[test]
    fn zero_attempts_never_retries() {
        let mut schedule = RetryPolicy::none().begin(0);
        assert!(!schedule.backoff_and_retry());
    }
}
