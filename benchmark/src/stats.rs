//! Estimators. A timing is reported as a median with quartiles and sample
//! count; a tail is the highest percentile that still has ten samples
//! beyond it; an open-loop tail is the median over windows of each
//! window's p99, timed from the instant a request was due.

/// Median, quartiles and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; an empty set summarises to zeros with `n = 0`.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// acceptance rule is stated in.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The `q`-quantile by the exclusive method (`position = q * (n + 1)`,
/// linear interpolation, clamped to the sample range) — the method of
/// Python's `statistics.quantiles`, so spreads computed here match the
/// ones the acceptance rule is checked with.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n as f64 + 1.0);
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = (pos - j as f64).clamp(0.0, 1.0);
            sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
        }
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of a sorted set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The small slack keeps `99.9 % of 1000` at rank 999 despite rounding.
    let rank = ((p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(percentile, one in how many samples lies beyond it)`.
const TAIL_LADDER: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 that
/// still has at least ten samples beyond it, with its value. `None` below
/// twenty samples, where even the median has fewer than ten beyond.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&(_, one_in)| sorted.len() >= 10 * one_in)
        .map(|&(p, _)| (p, percentile(sorted, p)))
}

/// One open-loop arrival, all instants in nanoseconds on one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the schedule said the request should be sent.
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub start_ns: u64,
    /// When the answer arrived.
    pub end_ns: u64,
}

impl Arrival {
    /// Latency from the due instant: a stall is charged to every request
    /// it delayed, not only to the one that stalled.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator ran for this request.
    pub fn lag_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.due_ns)
    }
}

/// The p99 latency (nanoseconds) of each window of an open-loop run.
/// Arrivals are bucketed by due time into windows of `window_ns`; windows
/// holding fewer than `min_samples` are dropped. The reported tail is the
/// median of these: a whole-run p99 on a shared host is set by one
/// scheduler hiccup, the median window is not.
pub fn window_p99s(arrivals: &[Arrival], window_ns: u64, min_samples: usize) -> Vec<f64> {
    let Some(first) = arrivals.iter().map(|a| a.due_ns).min() else {
        return Vec::new();
    };
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for a in arrivals {
        let w = ((a.due_ns - first) / window_ns) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(a.latency_ns() as f64);
    }
    windows
        .into_iter()
        .filter(|w| w.len() >= min_samples)
        .map(|mut w| {
            w.sort_unstable_by(f64::total_cmp);
            percentile(&w, 99.0)
        })
        .collect()
}

/// Largest generator lag of the run and of its last tenth; a backlog is
/// growing when the last tenth is still as late as the worst of the run.
pub fn lag_profile(arrivals: &[Arrival]) -> (u64, u64) {
    let max = arrivals.iter().map(Arrival::lag_ns).max().unwrap_or(0);
    let tail_from = arrivals.len() - arrivals.len() / 10;
    let last = arrivals[tail_from..]
        .iter()
        .map(Arrival::lag_ns)
        .max()
        .unwrap_or(0);
    (max, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-generator open loop on a synthetic clock: a request starts
    /// when it is due or when the previous one ends, whichever is later.
    fn replay(due: &[u64], service: &[u64]) -> Vec<Arrival> {
        let mut free_at = 0u64;
        due.iter()
            .zip(service)
            .map(|(&due_ns, &s)| {
                let start_ns = due_ns.max(free_at);
                free_at = start_ns + s;
                Arrival {
                    due_ns,
                    start_ns,
                    end_ns: free_at,
                }
            })
            .collect()
    }

    #[test]
    fn median_and_quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // Unsorted input, odd count.
        let s = Summary::of(&[9.0, 1.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 5.0, 9.0));
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(Summary::of(&[4.0]).median, 4.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sorted = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&sorted(19)), None);
        assert_eq!(tail(&sorted(20)).unwrap().0, 50.0);
        assert_eq!(tail(&sorted(99)).unwrap().0, 50.0);
        assert_eq!(tail(&sorted(100)).unwrap().0, 90.0);
        assert_eq!(tail(&sorted(999)).unwrap().0, 90.0);
        assert_eq!(tail(&sorted(1_000)).unwrap(), (99.0, 989.0));
        assert_eq!(tail(&sorted(10_000)).unwrap().0, 99.9);
        assert_eq!(tail(&sorted(100_000)).unwrap().0, 99.99);
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_and_shows_as_generator_lag() {
        // One request every 100 ns, each served in 10 ns, except the
        // third, which stalls for 500 ns.
        let due: Vec<u64> = (0..10).map(|i| i * 100).collect();
        let mut service = vec![10u64; 10];
        service[2] = 500;
        let arrivals = replay(&due, &service);
        // The stalled request itself: 500 ns.
        assert_eq!(arrivals[2].latency_ns(), 500);
        assert_eq!(arrivals[2].lag_ns(), 0);
        // The next one was due at 300 but could only start at 700: its
        // service time is 10 ns, its latency from the due time is 410.
        assert_eq!(arrivals[3].lag_ns(), 400);
        assert_eq!(arrivals[3].latency_ns(), 410);
        // The queue drains: request 7 is still 40 ns late, request 8 is
        // on time again.
        assert_eq!(arrivals[7].lag_ns(), 40);
        assert_eq!(arrivals[8].lag_ns(), 0);
        assert_eq!(arrivals[8].latency_ns(), 10);
        let (max_lag, last_lag) = lag_profile(&arrivals);
        assert_eq!((max_lag, last_lag), (400, 0));
    }

    #[test]
    fn window_p99s_keep_one_bad_window_apart_and_drop_thin_windows() {
        // Five full windows of 1000 arrivals at 10 ns, one of which holds a
        // burst of 50 slow answers; a sixth window is too thin to count.
        let mut arrivals = Vec::new();
        for w in 0..5u64 {
            for i in 0..1000u64 {
                let due_ns = w * 1_000_000 + i * 1000;
                let slow = w == 3 && i < 50;
                let lat = if slow { 9_000 } else { 10 };
                arrivals.push(Arrival {
                    due_ns,
                    start_ns: due_ns,
                    end_ns: due_ns + lat,
                });
            }
        }
        arrivals.push(Arrival {
            due_ns: 5_000_000,
            start_ns: 5_000_000,
            end_ns: 5_900_000,
        });
        let p99s = window_p99s(&arrivals, 1_000_000, 1000);
        assert_eq!(p99s, vec![10.0, 10.0, 10.0, 9_000.0, 10.0]);
        assert_eq!(median(&p99s), 10.0);
        // With no window thick enough there is no estimate at all.
        assert!(window_p99s(&arrivals, 1_000_000, 2000).is_empty());
        assert!(window_p99s(&[], 1_000_000, 1).is_empty());
    }
}
