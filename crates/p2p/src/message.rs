//! Wire messages exchanged by peers, with size accounting.
//!
//! Sizes approximate a compact binary encoding: 8 bytes per `f64` / index,
//! plus a fixed per-message header. The simulator never serializes for
//! real — only the byte counts matter for the traffic tables.

/// Per-message header overhead (source, destination, type tag, length).
const HEADER_BYTES: u64 = 24;

/// A peer or coordinator address. The coordinator is a distinguished
/// address outside the peer index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// Peer owning site `i` (or super-peer `i`, depending on context).
    Peer(usize),
    /// The coordinating node.
    Coordinator,
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Address::Peer(i) => write!(f, "peer{i}"),
            Address::Coordinator => write!(f, "coordinator"),
        }
    }
}

/// Message payloads of the distributed ranking protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// One SiteRank power-iteration contribution: `value` flows from the
    /// sender's site toward `dest_site` (flat architecture: one edge per
    /// message).
    RankContribution {
        /// Destination site of the contribution.
        dest_site: usize,
        /// Contribution value `d · rank_I · w_IJ`.
        value: f64,
    },
    /// Batched contributions between super-peers: many `(site, value)`
    /// pairs in one message.
    RankContributionBatch {
        /// `(destination site, value)` pairs.
        entries: Vec<(usize, f64)>,
    },
    /// Per-round status from a peer to the coordinator: the L1 residual of
    /// its slice and the dangling mass it holds.
    RoundReport {
        /// Sum of `|new − old|` over the peer's site entries.
        residual: f64,
        /// Rank mass parked on sites without outgoing SiteLinks.
        dangling_mass: f64,
    },
    /// Coordinator's broadcast starting the next round (or stopping).
    RoundControl {
        /// Dangling mass share each site must fold into its update.
        dangling_share: f64,
        /// `false` = converged, stop iterating.
        proceed: bool,
    },
    /// A peer's final local DocRank vector (aggregation phase).
    LocalRankVector {
        /// Local PageRank scores, one per member document.
        scores: Vec<f64>,
    },
    /// A site's full edge list (centralized baseline upload).
    EdgeList {
        /// Number of `(from, to)` document pairs shipped.
        n_edges: usize,
    },
    /// A site's SiteLink out-row (centralized SiteRank variant).
    SiteLinkRow {
        /// `(destination site, link count)` pairs.
        entries: Vec<(usize, f64)>,
    },
}

impl Payload {
    /// Approximate wire size in bytes (header included).
    #[must_use]
    pub fn wire_size(&self) -> u64 {
        let body = match self {
            Payload::RankContribution { .. } => 16,
            Payload::RankContributionBatch { entries } => 16 * entries.len() as u64,
            Payload::RoundReport { .. } => 16,
            Payload::RoundControl { .. } => 9,
            Payload::LocalRankVector { scores } => 8 * scores.len() as u64,
            Payload::EdgeList { n_edges } => 16 * *n_edges as u64,
            Payload::SiteLinkRow { entries } => 16 * entries.len() as u64,
        };
        HEADER_BYTES + body
    }
}

/// An addressed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sender.
    pub from: Address,
    /// Recipient.
    pub to: Address,
    /// Payload.
    pub payload: Payload,
}

impl Message {
    /// Creates a message.
    #[must_use]
    pub fn new(from: Address, to: Address, payload: Payload) -> Self {
        Self { from, to, payload }
    }

    /// Wire size including header.
    #[must_use]
    pub fn wire_size(&self) -> u64 {
        self.payload.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_content() {
        let single = Payload::RankContribution {
            dest_site: 3,
            value: 0.5,
        };
        let batch = Payload::RankContributionBatch {
            entries: vec![(1, 0.1), (2, 0.2), (3, 0.3)],
        };
        assert_eq!(single.wire_size(), HEADER_BYTES + 16);
        assert_eq!(batch.wire_size(), HEADER_BYTES + 48);
        let vector = Payload::LocalRankVector {
            scores: vec![0.0; 100],
        };
        assert_eq!(vector.wire_size(), HEADER_BYTES + 800);
        let edges = Payload::EdgeList { n_edges: 10 };
        assert_eq!(edges.wire_size(), HEADER_BYTES + 160);
    }

    #[test]
    fn batching_amortizes_headers() {
        // 3 single messages cost more than 1 batch of 3 — the super-peer
        // architecture's advantage.
        let singles: u64 = (0..3)
            .map(|i| {
                Payload::RankContribution {
                    dest_site: i,
                    value: 0.1,
                }
                .wire_size()
            })
            .sum();
        let batch = Payload::RankContributionBatch {
            entries: vec![(0, 0.1), (1, 0.1), (2, 0.1)],
        }
        .wire_size();
        assert!(batch < singles);
    }

    #[test]
    fn address_display() {
        assert_eq!(Address::Peer(4).to_string(), "peer4");
        assert_eq!(Address::Coordinator.to_string(), "coordinator");
    }

    #[test]
    fn message_construction() {
        let m = Message::new(
            Address::Peer(0),
            Address::Coordinator,
            Payload::RoundReport {
                residual: 0.1,
                dangling_mass: 0.0,
            },
        );
        assert_eq!(m.wire_size(), HEADER_BYTES + 16);
    }
}
