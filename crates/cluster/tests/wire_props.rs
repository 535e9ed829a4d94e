//! Property tests for the cluster wire protocol: every message variant
//! round-trips bit-exactly, and the decoder is *total* — truncated
//! frames, oversized length prefixes, unknown versions/tags, and outright
//! arbitrary bytes are all refused with a typed error, never a panic.

use lmm_cluster::{
    decode_frame, decode_message, encode_frame, Message, NodeWireStats, WireError, MAX_PAYLOAD,
};
use lmm_engine::SnapshotSegment;
use lmm_graph::DocId;
use lmm_serve::{DocScore, SiteTopK, SwapGrade};
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Any *finite* double (sign preserved, exponent never all-ones), so
/// `PartialEq` on the decoded message is meaningful.
fn finite(bits: u64) -> f64 {
    f64::from_bits((bits & 0x8000_0000_0000_0000) | (bits & 0x7FEF_FFFF_FFFF_FFFF))
}

fn segment(s: &mut u64) -> SnapshotSegment {
    let start = (xorshift(s) % 8) as usize;
    let covered = (xorshift(s) % 4) as usize;
    let n_docs = 32usize;
    let members: Vec<Vec<DocId>> = (0..covered)
        .map(|_| {
            (0..xorshift(s) % 5)
                .map(|_| DocId((xorshift(s) % n_docs as u64) as usize))
                .collect()
        })
        .collect();
    let member_scores: Vec<Vec<f64>> = members
        .iter()
        .map(|docs| docs.iter().map(|_| finite(xorshift(s))).collect())
        .collect();
    SnapshotSegment {
        epoch: xorshift(s),
        backend: format!("backend-{}", xorshift(s) % 100),
        sites: start..start + covered,
        n_docs,
        n_sites: start + covered + (xorshift(s) % 3) as usize,
        members,
        member_scores,
    }
}

/// One instance of **every** protocol variant, fields drawn from `seed`.
fn messages_from(seed: u64) -> Vec<Message> {
    let s = &mut (seed | 1);
    let entries = |s: &mut u64| -> Vec<(DocId, f64)> {
        (0..xorshift(s) % 5)
            .map(|_| (DocId((xorshift(s) % 64) as usize), finite(xorshift(s))))
            .collect()
    };
    vec![
        Message::Register {
            addr: format!("127.0.0.1:{}", xorshift(s) % 65536),
        },
        Message::Registered { node: xorshift(s) },
        Message::Ping { seq: xorshift(s) },
        Message::Pong {
            seq: xorshift(s),
            epoch: xorshift(s),
        },
        Message::PlacementReq,
        Message::Placement {
            epoch: xorshift(s),
            rank_epoch: xorshift(s),
            boundaries: (0..xorshift(s) % 6).map(|_| xorshift(s)).collect(),
            owners: (0..xorshift(s) % 6)
                .map(|_| format!("n{}", xorshift(s) % 1000))
                .collect(),
        },
        Message::RoutingReq,
        Message::Routing {
            rank_epoch: xorshift(s),
            site_of: (0..xorshift(s) % 20).map(|_| xorshift(s) % 64).collect(),
        },
        Message::Stage {
            epoch: xorshift(s),
            shard: xorshift(s) % 16,
            grade: match xorshift(s) % 3 {
                0 => SwapGrade::Rebuild,
                1 => SwapGrade::Refresh,
                _ => SwapGrade::Repin,
            },
            segment: if xorshift(s).is_multiple_of(2) {
                Some(segment(s))
            } else {
                None
            },
        },
        Message::Commit {
            epoch: xorshift(s),
            rank_epoch: xorshift(s),
        },
        Message::Abort { epoch: xorshift(s) },
        Message::Rejoin {
            node: xorshift(s),
            addr: format!("127.0.0.1:{}", xorshift(s) % 65536),
        },
        Message::Ack { epoch: xorshift(s) },
        Message::ScoreBatch {
            shard: xorshift(s) % 16,
            docs: (0..xorshift(s) % 8).map(|_| xorshift(s) % 1024).collect(),
        },
        Message::TopKReq {
            shard: xorshift(s) % 16,
            k: xorshift(s) % 100,
        },
        Message::SiteTopKReq {
            shard: xorshift(s) % 16,
            site: xorshift(s) % 64,
            k: xorshift(s) % 100,
        },
        Message::Scores {
            epoch: xorshift(s),
            rank_epoch: xorshift(s),
            scores: (0..xorshift(s) % 6)
                .map(|_| match xorshift(s) % 3 {
                    0 => DocScore::Live(finite(xorshift(s))),
                    1 => DocScore::Tombstoned,
                    _ => DocScore::Unknown,
                })
                .collect(),
        },
        Message::Top {
            epoch: xorshift(s),
            rank_epoch: xorshift(s),
            entries: entries(s),
            complete: xorshift(s).is_multiple_of(2),
        },
        Message::SiteTop {
            epoch: xorshift(s),
            rank_epoch: xorshift(s),
            reply: match xorshift(s) % 3 {
                0 => SiteTopK::Entries(entries(s)),
                1 => SiteTopK::Tombstoned,
                _ => SiteTopK::NotCovered,
            },
        },
        Message::StatsReq,
        Message::Stats(NodeWireStats {
            node: xorshift(s),
            epoch: xorshift(s),
            rank_epoch: xorshift(s),
            shard_docs: (0..xorshift(s) % 5)
                .map(|_| (xorshift(s) % 16, xorshift(s) % 10_000))
                .collect(),
            queries: xorshift(s),
            tombstone_rejections: xorshift(s),
            staged: xorshift(s),
            commits: xorshift(s),
            aborted: xorshift(s),
            staged_expired: xorshift(s),
            bytes_sent: xorshift(s),
            bytes_recv: xorshift(s),
        }),
        Message::NotOwner {
            shard: xorshift(s) % 16,
        },
        Message::Bad {
            detail: format!("cause {}", xorshift(s)),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_variant_round_trips(seed in any::<u64>()) {
        for msg in messages_from(seed) {
            let frame = encode_frame(&msg).expect("encodable");
            let (back, consumed) = decode_frame(&frame).expect("decodable");
            prop_assert_eq!(consumed, frame.len());
            prop_assert_eq!(back, msg);
        }
    }

    #[test]
    fn truncated_frames_are_refused_not_panicked(seed in any::<u64>()) {
        for msg in messages_from(seed) {
            let frame = encode_frame(&msg).expect("encodable");
            // Every strict prefix must fail typed — the frame length
            // header promises more bytes than are present.
            for cut in 0..frame.len() {
                prop_assert!(
                    decode_frame(&frame[..cut]).is_err(),
                    "prefix of {} bytes decoded", cut
                );
            }
        }
    }

    #[test]
    fn unknown_versions_and_tags_are_refused(seed in any::<u64>(), corrupt in any::<u64>()) {
        let frame = encode_frame(&Message::Ping { seq: seed }).expect("encodable");
        let bad_version = 2u8.wrapping_add((corrupt % 254) as u8); // never 1
        let mut v = frame.clone();
        v[4] = bad_version;
        prop_assert_eq!(
            decode_frame(&v),
            Err(WireError::BadVersion { version: bad_version })
        );
        let bad_tag = 24u8.saturating_add((corrupt % 232) as u8); // past every tag
        let mut t = frame;
        t[5] = bad_tag;
        prop_assert_eq!(decode_frame(&t), Err(WireError::BadTag { tag: bad_tag }));
    }

    #[test]
    fn oversized_length_prefixes_are_refused(extra in any::<u32>()) {
        let len = MAX_PAYLOAD.saturating_add(extra.max(1));
        let mut frame = len.to_be_bytes().to_vec();
        frame.extend_from_slice(&[0u8; 16]);
        prop_assert_eq!(
            decode_frame(&frame),
            Err(WireError::Oversized { len: u64::from(len) })
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic(words in prop::collection::vec(any::<u64>(), 0..64)) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        // Totality is the property: any outcome but a panic is fine, and
        // a successful decode must account for its consumption honestly.
        if let Ok((_, consumed)) = decode_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
        let _ = decode_message(&bytes);
        // Same with a plausible length header stapled on.
        let mut framed = ((bytes.len()) as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        if let Ok((_, consumed)) = decode_frame(&framed) {
            prop_assert!(consumed <= framed.len());
        }
    }
}
