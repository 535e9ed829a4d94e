//! Every semantic refusal of the wire decoder, pinned one hand-built
//! payload at a time. `wire_props.rs` shows that arbitrary bytes never
//! panic; this file shows that each check the decoder makes still fires,
//! with the error it is documented to return: inverted or miscounted
//! segment ranges, member ids outside the id space, bad discriminants,
//! invalid UTF-8, trailing bytes, and a length claim the remaining bytes
//! cannot back on every collection a message carries.

use lmm_cluster::{decode_message, WireError, WIRE_VERSION};

/// A payload (`[version][tag][body]`) written field by field.
struct Payload(Vec<u8>);

impl Payload {
    fn new(tag: u8) -> Self {
        Self(vec![WIRE_VERSION, tag])
    }
    fn u8(mut self, v: u8) -> Self {
        self.0.push(v);
        self
    }
    fn u32(mut self, v: u32) -> Self {
        self.0.extend_from_slice(&v.to_be_bytes());
        self
    }
    fn u64(mut self, v: u64) -> Self {
        self.0.extend_from_slice(&v.to_be_bytes());
        self
    }
    fn zeros(mut self, n: usize) -> Self {
        self.0.resize(self.0.len() + n, 0);
        self
    }
    fn str(self, s: &str) -> Self {
        let mut p = self.u32(s.len() as u32);
        p.0.extend_from_slice(s.as_bytes());
        p
    }
    fn decode(&self) -> Result<lmm_cluster::Message, WireError> {
        decode_message(&self.0)
    }
}

const STAGE: u8 = 9;

/// A `Stage` of a rebuilt shard up to its segment's covered-site count:
/// stage epoch and shard, grade, the `Some` byte, then the segment's
/// epoch, backend, site range `start..end`, `n_docs` and `n_sites`.
fn stage_segment(start: u64, end: u64, n_docs: u64) -> Payload {
    Payload::new(STAGE)
        .u64(3)
        .u64(0)
        .u8(0)
        .u8(1)
        .u64(9)
        .str("layered")
        .u64(start)
        .u64(end)
        .u64(n_docs)
        .u64(8)
}

#[track_caller]
fn assert_malformed(payload: &Payload, cause: &str) {
    match payload.decode() {
        Err(WireError::Malformed { detail }) => {
            assert!(detail.contains(cause), "`{detail}` does not name {cause}");
        }
        other => panic!("expected Malformed ({cause}), got {other:?}"),
    }
}

#[test]
fn an_inverted_segment_range_is_malformed() {
    assert_malformed(&stage_segment(5, 4, 10).u32(0), "inverted");
}

#[test]
fn a_covered_count_off_the_range_width_is_malformed() {
    // Range 2..4 holds two sites; the segment claims three, each empty.
    let p = stage_segment(2, 4, 10).u32(3).u32(0).u32(0).u32(0);
    assert_malformed(&p, "covers 3 sites");
}

#[test]
fn a_member_doc_outside_the_id_space_is_malformed() {
    // One covered site with one member, doc 10 of a 10-document web.
    let p = stage_segment(0, 1, 10).u32(1).u32(1).u64(10).u64(0);
    assert_malformed(&p, "outside id space");
}

#[test]
fn bad_discriminants_are_malformed() {
    let grade = Payload::new(STAGE).u64(3).u64(0).u8(3).u8(0);
    assert_malformed(&grade, "swap grade discriminant 3");
    let option = Payload::new(STAGE).u64(3).u64(0).u8(2).u8(2);
    assert_malformed(&option, "option byte 2");
    // Scores: epoch, rank epoch, one score with discriminant 3.
    let score = Payload::new(15).u64(3).u64(2).u32(1).u8(3);
    assert_malformed(&score, "doc score discriminant 3");
    // SiteTop: epoch, rank epoch, reply discriminant 3.
    let site_top = Payload::new(17).u64(3).u64(2).u8(3);
    assert_malformed(&site_top, "site top-k discriminant 3");
    // Top: epoch, rank epoch, no entries, `complete` byte 2.
    let boolean = Payload::new(16).u64(3).u64(2).u32(0).u8(2);
    assert_malformed(&boolean, "boolean byte 2");
}

#[test]
fn invalid_utf8_is_malformed() {
    let p = Payload::new(1).u32(2).u8(0xff).u8(0xfe);
    assert_malformed(&p, "UTF-8");
}

#[test]
fn trailing_bytes_are_refused() {
    let p = Payload::new(3).u64(1).u8(0).u8(0);
    assert_eq!(p.decode(), Err(WireError::TrailingBytes { extra: 2 }));
}

/// Claims `u32::MAX` items where only `have` bytes follow: the decoder
/// must refuse the claim against the per-item floor before reading (or
/// allocating for) a single item.
#[track_caller]
fn assert_claim_refused(head: Payload, floor: usize, have: usize) {
    let p = head.u32(u32::MAX).zeros(have);
    assert_eq!(
        p.decode(),
        Err(WireError::Truncated {
            needed: u32::MAX as usize * floor,
            have,
        })
    );
}

#[test]
fn an_over_long_claim_is_truncated_in_every_collection() {
    // Placement: boundaries (u64, 8 bytes each), then owners (strings,
    // 4 bytes each at least).
    assert_claim_refused(Payload::new(6).u64(1).u64(2), 8, 8);
    assert_claim_refused(Payload::new(6).u64(1).u64(2).u32(0), 4, 4);
    // Routing: site_of.
    assert_claim_refused(Payload::new(8).u64(2), 8, 8);
    // Stage: the segment's covered sites (4 bytes each at least), then
    // one covered site's members (doc and score, 16 bytes each).
    assert_claim_refused(stage_segment(0, 1, 10), 4, 4);
    assert_claim_refused(stage_segment(0, 1, 10).u32(1), 16, 16);
    // ScoreBatch: docs.
    assert_claim_refused(Payload::new(12).u64(0), 8, 8);
    // Scores: one byte per score at least.
    assert_claim_refused(Payload::new(15).u64(3).u64(2), 1, 1);
    // Top: entries (doc and score).
    assert_claim_refused(Payload::new(16).u64(3).u64(2), 16, 17);
    // SiteTop: the entries of a `SiteTopK::Entries` reply.
    assert_claim_refused(Payload::new(17).u64(3).u64(2).u8(0), 16, 16);
    // Stats: node, epoch, rank epoch, then `(shard, docs)` pairs.
    assert_claim_refused(Payload::new(19).u64(7).u64(3).u64(2), 16, 64);
    // Register's address and Bad's detail: one byte per byte.
    assert_claim_refused(Payload::new(1), 1, 3);
    assert_claim_refused(Payload::new(21), 1, 3);
}
