//! The simulated message fabric: delivery queues, traffic accounting and
//! failure injection.
//!
//! Messages are enqueued with [`SimNetwork::send`] and drained per
//! destination with [`SimNetwork::drain`]. With a [`FaultConfig`], each
//! transmission attempt is dropped with probability `drop_prob`; the sender
//! retransmits until delivery (the simulator's stand-in for an
//! ack/timeout/retransmit transport), so protocol *semantics* are
//! unchanged while *traffic* inflates — exactly what the failure-injection
//! experiment measures.

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::{P2pError, Result};
use crate::message::{Address, Message, Payload};
use crate::stats::{PhaseStats, TrafficStats};

/// Message-loss injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that one transmission attempt is lost (in `[0, 1)`).
    pub drop_prob: f64,
    /// Seed of the loss process (deterministic runs).
    pub seed: u64,
}

impl FaultConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`P2pError::InvalidConfig`] when `drop_prob` is not in
    /// `[0, 1)` (a probability of 1 would retransmit forever).
    pub fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.drop_prob) {
            return Err(P2pError::InvalidConfig {
                reason: format!("drop_prob {} must lie in [0, 1)", self.drop_prob),
            });
        }
        Ok(())
    }
}

/// The simulated network: one inbox per peer plus the coordinator's inbox.
#[derive(Debug)]
pub struct SimNetwork {
    peer_inboxes: Vec<VecDeque<Message>>,
    coordinator_inbox: VecDeque<Message>,
    stats: TrafficStats,
    fault: Option<(FaultConfig, StdRng)>,
}

impl SimNetwork {
    /// Creates a fabric for `n_peers` peers (plus the coordinator).
    ///
    /// # Errors
    /// Returns [`P2pError::InvalidConfig`] for zero peers or an invalid
    /// fault configuration.
    pub fn new(n_peers: usize, fault: Option<FaultConfig>) -> Result<Self> {
        if n_peers == 0 {
            return Err(P2pError::InvalidConfig {
                reason: "network needs at least one peer".into(),
            });
        }
        if let Some(f) = &fault {
            f.validate()?;
        }
        Ok(Self {
            peer_inboxes: (0..n_peers).map(|_| VecDeque::new()).collect(),
            coordinator_inbox: VecDeque::new(),
            stats: TrafficStats::default(),
            fault: fault.map(|f| (f, StdRng::seed_from_u64(f.seed))),
        })
    }

    /// Number of peers.
    #[must_use]
    pub fn n_peers(&self) -> usize {
        self.peer_inboxes.len()
    }

    /// Sends a message, retransmitting through injected losses until it is
    /// delivered. Every attempt (including lost ones) is counted.
    ///
    /// # Errors
    /// Returns [`P2pError::UnknownPeer`] for an out-of-range recipient.
    pub fn send(&mut self, from: Address, to: Address, payload: Payload) -> Result<()> {
        let message = Message::new(from, to, payload);
        let size = message.wire_size();
        // Transmission attempts: with faults, retry until the coin says
        // "delivered"; each attempt consumes bandwidth.
        let mut attempts = 1u64;
        if let Some((cfg, rng)) = &mut self.fault {
            while rng.random::<f64>() < cfg.drop_prob {
                attempts += 1;
            }
        }
        self.stats.messages += attempts;
        self.stats.bytes += attempts * size;
        if attempts > 1 {
            self.stats.retransmissions += attempts - 1;
        }
        match to {
            Address::Coordinator => self.coordinator_inbox.push_back(message),
            Address::Peer(p) => {
                let n = self.peer_inboxes.len();
                self.peer_inboxes
                    .get_mut(p)
                    .ok_or(P2pError::UnknownPeer {
                        peer: p,
                        n_peers: n,
                    })?
                    .push_back(message);
            }
        }
        Ok(())
    }

    /// Drains the inbox of a destination.
    ///
    /// # Errors
    /// Returns [`P2pError::UnknownPeer`] for an out-of-range peer.
    pub fn drain(&mut self, who: Address) -> Result<Vec<Message>> {
        let inbox = match who {
            Address::Coordinator => &mut self.coordinator_inbox,
            Address::Peer(p) => {
                let n = self.peer_inboxes.len();
                self.peer_inboxes.get_mut(p).ok_or(P2pError::UnknownPeer {
                    peer: p,
                    n_peers: n,
                })?
            }
        };
        Ok(inbox.drain(..).collect())
    }

    /// Snapshot of the traffic counters.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Resets the traffic counters (used between protocol phases) and
    /// returns the counts accumulated so far.
    fn take_stats(&mut self) -> TrafficStats {
        std::mem::take(&mut self.stats)
    }

    /// Closes one protocol phase: its traffic since the previous phase
    /// (the counters reset) and its wall time since `start`.
    pub(crate) fn end_phase(
        &mut self,
        name: &'static str,
        start: Instant,
        rounds: u32,
    ) -> PhaseStats {
        PhaseStats {
            name,
            traffic: self.take_stats(),
            wall: start.elapsed(),
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contribution(v: f64) -> Payload {
        Payload::RankContribution {
            dest_site: 0,
            value: v,
        }
    }

    #[test]
    fn messages_are_delivered_in_order() {
        let mut net = SimNetwork::new(2, None).unwrap();
        net.send(Address::Peer(0), Address::Peer(1), contribution(0.1))
            .unwrap();
        net.send(Address::Peer(0), Address::Peer(1), contribution(0.2))
            .unwrap();
        let inbox = net.drain(Address::Peer(1)).unwrap();
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].payload, contribution(0.1));
        assert_eq!(inbox[1].payload, contribution(0.2));
        assert!(net.drain(Address::Peer(1)).unwrap().is_empty());
    }

    #[test]
    fn coordinator_has_own_inbox() {
        let mut net = SimNetwork::new(1, None).unwrap();
        net.send(
            Address::Peer(0),
            Address::Coordinator,
            Payload::RoundReport {
                residual: 0.0,
                dangling_mass: 0.0,
            },
        )
        .unwrap();
        assert_eq!(net.drain(Address::Coordinator).unwrap().len(), 1);
        assert!(net.drain(Address::Peer(0)).unwrap().is_empty());
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let mut net = SimNetwork::new(2, None).unwrap();
        net.send(Address::Peer(0), Address::Peer(1), contribution(0.1))
            .unwrap();
        let stats = net.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, contribution(0.1).wire_size());
        assert_eq!(stats.retransmissions, 0);
    }

    #[test]
    fn faults_inflate_traffic_but_deliver_everything() {
        let fault = FaultConfig {
            drop_prob: 0.5,
            seed: 11,
        };
        let mut net = SimNetwork::new(2, Some(fault)).unwrap();
        for _ in 0..200 {
            net.send(Address::Peer(0), Address::Peer(1), contribution(0.1))
                .unwrap();
        }
        // All 200 messages arrive despite drops...
        assert_eq!(net.drain(Address::Peer(1)).unwrap().len(), 200);
        // ...but traffic shows retransmissions (expected ~200 extra at 50%).
        let stats = net.stats();
        assert!(stats.retransmissions > 100, "{stats:?}");
        assert_eq!(stats.messages, 200 + stats.retransmissions);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = |seed| {
            let mut net = SimNetwork::new(
                2,
                Some(FaultConfig {
                    drop_prob: 0.3,
                    seed,
                }),
            )
            .unwrap();
            for _ in 0..50 {
                net.send(Address::Peer(0), Address::Peer(1), contribution(0.1))
                    .unwrap();
            }
            net.stats().messages
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn validation() {
        assert!(SimNetwork::new(0, None).is_err());
        assert!(FaultConfig {
            drop_prob: 1.0,
            seed: 0
        }
        .validate()
        .is_err());
        let mut net = SimNetwork::new(1, None).unwrap();
        assert!(matches!(
            net.send(Address::Peer(0), Address::Peer(9), contribution(0.1)),
            Err(P2pError::UnknownPeer { peer: 9, .. })
        ));
        assert!(net.drain(Address::Peer(9)).is_err());
    }

    #[test]
    fn take_stats_resets() {
        let mut net = SimNetwork::new(2, None).unwrap();
        net.send(Address::Peer(0), Address::Peer(1), contribution(0.1))
            .unwrap();
        let taken = net.take_stats();
        assert_eq!(taken.messages, 1);
        assert_eq!(net.stats().messages, 0);
    }
}
