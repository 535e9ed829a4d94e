//! Traffic and timing accounting for distributed runs.

use std::time::Duration;

/// Raw transport counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Transmission attempts (including retransmissions).
    pub messages: u64,
    /// Bytes across all attempts.
    pub bytes: u64,
    /// Attempts beyond the first per logical message (failure injection).
    pub retransmissions: u64,
}

impl TrafficStats {
    /// Component-wise sum.
    #[must_use]
    fn plus(self, other: TrafficStats) -> TrafficStats {
        TrafficStats {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            retransmissions: self.retransmissions + other.retransmissions,
        }
    }
}

impl std::fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} msgs, {} bytes ({} retx)",
            self.messages, self.bytes, self.retransmissions
        )
    }
}

/// One protocol phase: what it cost on the wire and on the clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseStats {
    /// Phase label ("siterank rounds", "local docranks", ...).
    pub name: &'static str,
    /// Transport counters for the phase.
    pub traffic: TrafficStats,
    /// Wall-clock duration of the phase.
    pub wall: Duration,
    /// Synchronous rounds executed (0 for compute-only phases).
    pub rounds: u32,
}

impl std::fmt::Display for PhaseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<18} {:>10} msgs {:>14} bytes {:>6} rounds {:>10.3?}",
            self.name, self.traffic.messages, self.traffic.bytes, self.rounds, self.wall
        )
    }
}

/// Accounting for a full distributed run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Per-phase breakdown in execution order.
    pub phases: Vec<PhaseStats>,
}

impl RunStats {
    /// Appends a phase.
    pub fn push(&mut self, phase: PhaseStats) {
        self.phases.push(phase);
    }

    /// Aggregate traffic across phases.
    #[must_use]
    pub fn total(&self) -> TrafficStats {
        self.phases
            .iter()
            .fold(TrafficStats::default(), |acc, p| acc.plus(p.traffic))
    }

    /// Total wall time across phases.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for p in &self.phases {
            writeln!(f, "{p}")?;
        }
        write!(f, "total: {} in {:.3?}", self.total(), self.total_wall())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_addition() {
        let a = TrafficStats {
            messages: 1,
            bytes: 10,
            retransmissions: 0,
        };
        let b = TrafficStats {
            messages: 2,
            bytes: 20,
            retransmissions: 1,
        };
        let c = a.plus(b);
        assert_eq!(c.messages, 3);
        assert_eq!(c.bytes, 30);
        assert_eq!(c.retransmissions, 1);
    }

    #[test]
    fn run_stats_aggregate() {
        let mut run = RunStats::default();
        run.push(PhaseStats {
            name: "a",
            traffic: TrafficStats {
                messages: 5,
                bytes: 100,
                retransmissions: 0,
            },
            wall: Duration::from_millis(10),
            rounds: 3,
        });
        run.push(PhaseStats {
            name: "b",
            traffic: TrafficStats {
                messages: 7,
                bytes: 50,
                retransmissions: 2,
            },
            wall: Duration::from_millis(5),
            rounds: 0,
        });
        assert_eq!(run.total().messages, 12);
        assert_eq!(run.total().bytes, 150);
        assert_eq!(run.total_wall(), Duration::from_millis(15));
        let display = run.to_string();
        assert!(display.contains("total"));
        assert!(display.contains("12 msgs"));
    }
}
