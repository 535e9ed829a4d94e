//! Wire-tag registry regression: every `Message` variant's tag byte must
//! match the committed golden registry (`wire_tags.golden`) byte for
//! byte. Tag numbering is wire-compat critical — a mixed-version cluster
//! decodes frames by these bytes — so a failure here means a variant was
//! renumbered, dropped, or added without appending its line to the
//! registry by hand.

use std::collections::BTreeMap;

use lmm_cluster::{encode_frame, encode_message, Message, NodeWireStats, WIRE_VERSION};
use lmm_engine::SnapshotSegment;
use lmm_graph::DocId;
use lmm_serve::{DocScore, SiteTopK, SwapGrade};

fn golden() -> BTreeMap<u8, String> {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("wire_tags.golden"),
    )
    .expect("wire_tags.golden is committed next to Cargo.toml");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let tag: u8 = parts.next().expect("tag").parse().expect("numeric tag");
            let variant = parts.next().expect("variant name").to_string();
            (tag, variant)
        })
        .collect()
}

fn segment() -> SnapshotSegment {
    SnapshotSegment {
        epoch: 9,
        backend: "layered".into(),
        sites: 2..3,
        n_docs: 10,
        n_sites: 5,
        members: vec![vec![DocId(3)]],
        member_scores: vec![vec![0.5]],
    }
}

/// One exemplar per variant, labeled with its golden registry name.
fn exemplars() -> Vec<(&'static str, Message, &'static str)> {
    vec![
        (
            "Register",
            Message::Register { addr: "a:1".into() },
            "00000009 02 01 00000003 613a31",
        ),
        (
            "Registered",
            Message::Registered { node: 7 },
            "0000000a 02 02 0000000000000007",
        ),
        (
            "Rejoin",
            Message::Rejoin {
                node: 7,
                addr: "a:2".into(),
            },
            "00000011 02 17 0000000000000007 00000003 613a32",
        ),
        (
            "Ping",
            Message::Ping { seq: 1 },
            "0000000a 02 03 0000000000000001",
        ),
        (
            "Pong",
            Message::Pong { seq: 1, epoch: 2 },
            "00000012 02 04 0000000000000001 0000000000000002",
        ),
        ("PlacementReq", Message::PlacementReq, "00000002 02 05"),
        (
            "Placement",
            Message::Placement {
                epoch: 1,
                rank_epoch: 2,
                boundaries: vec![0, 3],
                owners: vec!["a:1".into(), "b:2".into()],
            },
            "00000038 02 06 0000000000000001 0000000000000002 00000002 \
             0000000000000000 0000000000000003 00000002 00000003 613a31 \
             00000003 623a32",
        ),
        ("RoutingReq", Message::RoutingReq, "00000002 02 07"),
        (
            "Routing",
            Message::Routing {
                rank_epoch: 2,
                site_of: vec![0, 0, 1],
            },
            "00000026 02 08 0000000000000002 00000003 0000000000000000 \
             0000000000000000 0000000000000001",
        ),
        (
            "Stage",
            Message::Stage {
                epoch: 3,
                shard: 0,
                grade: SwapGrade::Rebuild,
                segment: Some(segment()),
            },
            "0000005f 02 09 0000000000000003 0000000000000000 00 01 \
             0000000000000009 00000007 6c617965726564 0000000000000002 \
             0000000000000003 000000000000000a 0000000000000005 \
             00000001 00000001 0000000000000003 3fe0000000000000",
        ),
        (
            "Commit",
            Message::Commit {
                epoch: 3,
                rank_epoch: 2,
            },
            "00000012 02 0a 0000000000000003 0000000000000002",
        ),
        (
            "Abort",
            Message::Abort { epoch: 3 },
            "0000000a 02 16 0000000000000003",
        ),
        (
            "Ack",
            Message::Ack { epoch: 3 },
            "0000000a 02 0b 0000000000000003",
        ),
        (
            "ScoreBatch",
            Message::ScoreBatch {
                shard: 0,
                docs: vec![1, 2],
            },
            "0000001e 02 0c 0000000000000000 00000002 0000000000000001 \
             0000000000000002",
        ),
        (
            "TopKReq",
            Message::TopKReq { shard: 0, k: 5 },
            "00000012 02 0d 0000000000000000 0000000000000005",
        ),
        (
            "SiteTopKReq",
            Message::SiteTopKReq {
                shard: 0,
                site: 1,
                k: 5,
            },
            "0000001a 02 0e 0000000000000000 0000000000000001 \
             0000000000000005",
        ),
        (
            "Scores",
            Message::Scores {
                epoch: 3,
                rank_epoch: 2,
                scores: vec![DocScore::Live(0.5), DocScore::Tombstoned, DocScore::Unknown],
            },
            "00000021 02 0f 0000000000000003 0000000000000002 00000003 \
             00 3fe0000000000000 01 02",
        ),
        (
            "Top",
            Message::Top {
                epoch: 3,
                rank_epoch: 2,
                entries: vec![(DocId(1), 0.5)],
                complete: true,
            },
            "00000027 02 10 0000000000000003 0000000000000002 00000001 \
             0000000000000001 3fe0000000000000 01",
        ),
        (
            "SiteTop",
            Message::SiteTop {
                epoch: 3,
                rank_epoch: 2,
                reply: SiteTopK::Entries(vec![(DocId(1), 0.5)]),
            },
            "00000027 02 11 0000000000000003 0000000000000002 00 \
             00000001 0000000000000001 3fe0000000000000",
        ),
        ("StatsReq", Message::StatsReq, "00000002 02 12"),
        (
            "Stats",
            Message::Stats(NodeWireStats {
                node: 7,
                epoch: 3,
                rank_epoch: 2,
                shard_docs: vec![(0, 10)],
                queries: 0,
                tombstone_rejections: 0,
                staged: 0,
                commits: 0,
                aborted: 0,
                staged_expired: 0,
                bytes_sent: 0,
                bytes_recv: 0,
            }),
            "0000006e 02 13 0000000000000007 0000000000000003 \
             0000000000000002 00000001 0000000000000000 \
             000000000000000a 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000",
        ),
        (
            "NotOwner",
            Message::NotOwner { shard: 0 },
            "0000000a 02 14 0000000000000000",
        ),
        (
            "Bad",
            Message::Bad {
                detail: "no".into(),
            },
            "00000008 02 15 00000002 6e6f",
        ),
    ]
}

#[test]
fn every_variant_tag_matches_the_golden_registry() {
    let golden = golden();
    let by_name: BTreeMap<&String, u8> = golden.iter().map(|(t, n)| (n, *t)).collect();
    let mut seen = BTreeMap::new();
    for (name, msg, _) in exemplars() {
        let payload = encode_message(&msg).expect("encode");
        assert_eq!(payload[0], WIRE_VERSION, "{name}: version byte");
        let tag = payload[1];
        let expected = *by_name
            .get(&name.to_string())
            .unwrap_or_else(|| panic!("{name} missing from wire_tags.golden"));
        assert_eq!(tag, expected, "{name}: tag byte drifted from the registry");
        assert!(
            seen.insert(tag, name).is_none(),
            "tag {tag} encoded by two variants"
        );
    }
    assert_eq!(
        seen.len(),
        golden.len(),
        "every registry entry must be exercised; registry has {} tags, test covers {}",
        golden.len(),
        seen.len()
    );
}

#[test]
fn registry_is_the_contiguous_range_1_to_23() {
    let golden = golden();
    let tags: Vec<u8> = golden.keys().copied().collect();
    assert_eq!(tags, (1..=23).collect::<Vec<u8>>());
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Known-answer vectors: every exemplar's full frame, byte for byte. The
/// expected hex may be spaced for reading; spaces are not compared.
#[test]
fn every_variant_frame_matches_its_known_answer_bytes() {
    let mut wrong = Vec::new();
    for (name, msg, expected) in exemplars() {
        let got = hex(&encode_frame(&msg).expect("encode"));
        let expected: String = expected.split_whitespace().collect();
        if got != expected {
            wrong.push(format!("{name}: got {got}"));
        }
    }
    assert!(wrong.is_empty(), "frames drifted:\n{}", wrong.join("\n"));
}
