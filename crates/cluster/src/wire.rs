//! The cluster wire protocol: a hand-rolled, length-prefixed binary codec.
//!
//! Every frame on a cluster connection is
//!
//! ```text
//! [u32 BE payload length][u8 version][u8 tag][body...]
//! ```
//!
//! with all integers big-endian and every `f64` carried as its IEEE-754
//! bit pattern (`to_bits`/`from_bits`) — scores survive the wire
//! **bitwise**, which is what lets the parity bench compare a remote
//! answer against an in-process one with `==` instead of a tolerance.
//!
//! Each message is declared once, in the `messages!` table that defines
//! [`Message`]: one line gives a variant its tag byte and its fields, and
//! the table generates the enum, its encoder and its decoder. A body is
//! its fields in declaration order, each written by its type's `Wire`
//! codec; a reused tag does not compile. A new message is one line in
//! the table (next free tag) plus one line in `wire_tags.golden`, which
//! `tests/wire_tags.rs` holds the tags to.
//!
//! Decoding is total: [`decode_frame`] and [`decode_message`] return a
//! typed [`WireError`] for truncated frames, oversized length prefixes,
//! unknown version bytes, unknown tags, and malformed bodies — they never
//! panic and never allocate proportionally to a length claim that the
//! remaining bytes cannot back (a 4 GB vector header on a 40-byte frame
//! is rejected before any allocation). That guard is written once, as
//! `Reader::claimed_len`, and fed by types: `Vec<T>`'s decoder holds a
//! claim of `n` items to `n` times the fewest bytes a `T` encodes to
//! (`Wire::MIN_BYTES`), as a snapshot segment does for its sites and
//! members. `tests/wire_props.rs` hammers both directions, and
//! `tests/wire_refusals.rs` pins each refusal.

use std::fmt;

use lmm_engine::SnapshotSegment;
use lmm_graph::DocId;
use lmm_serve::{DocScore, SiteTopK, SwapGrade};

/// Protocol version carried by every frame. Peers reject frames whose
/// version byte differs — a mixed-version cluster fails typed instead of
/// misparsing.
pub const WIRE_VERSION: u8 = 2;

/// Hard cap on a frame's payload length. Large enough for a full-web
/// snapshot segment, small enough that a corrupt or hostile length prefix
/// cannot drive an allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Decode/encode failures. Every variant is a *refusal*, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A length prefix exceeded [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version byte received.
        version: u8,
    },
    /// The message tag is not one this protocol defines.
    BadTag {
        /// The tag byte received.
        tag: u8,
    },
    /// The body contradicted itself (impossible counts, invalid UTF-8,
    /// enum discriminants out of range, non-finite score bits, ...).
    Malformed {
        /// Human-readable cause.
        detail: String,
    },
    /// The body decoded cleanly but bytes were left over.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds cap {MAX_PAYLOAD}")
            }
            WireError::BadVersion { version } => {
                write!(
                    f,
                    "unknown protocol version {version} (expected {WIRE_VERSION})"
                )
            }
            WireError::BadTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::Malformed { detail } => write!(f, "malformed message body: {detail}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message body")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(detail: String) -> WireError {
    WireError::Malformed { detail }
}

/// Per-node counters shipped over the wire on a stats request — the
/// cluster-tier analogue of `ServeStatsSnapshot`, extended with transport
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeWireStats {
    /// The node's controller-assigned id.
    pub node: u64,
    /// The node's committed cluster epoch.
    pub epoch: u64,
    /// The rank (snapshot) epoch the node answers from.
    pub rank_epoch: u64,
    /// `(shard, live docs)` per owned shard, sorted by shard.
    pub shard_docs: Vec<(u64, u64)>,
    /// Queries answered (score batches, top-k, site top-k).
    pub queries: u64,
    /// Point lookups that answered a tombstoned document or site.
    pub tombstone_rejections: u64,
    /// Snapshot segments staged (including restages superseded before
    /// commit).
    pub staged: u64,
    /// Commits applied (epoch flips).
    pub commits: u64,
    /// Staged epoch sets discarded by an explicit controller `Abort`.
    pub aborted: u64,
    /// Staged epoch sets discarded by the node's own TTL expiry (the
    /// controller died or lost this node between stage and commit).
    pub staged_expired: u64,
    /// Bytes written to peers since the node started.
    pub bytes_sent: u64,
    /// Bytes read from peers since the node started.
    pub bytes_recv: u64,
}

impl NodeWireStats {
    /// Live documents across this node's owned shards.
    #[must_use]
    pub fn n_docs(&self) -> u64 {
        self.shard_docs.iter().map(|&(_, d)| d).sum()
    }

    /// Document skew across this node's *own* shards — the same
    /// max-over-mean signal `ServeStatsSnapshot::doc_skew` computes for
    /// the in-process tier, reused here so dashboards read one number.
    #[must_use]
    pub fn doc_skew(&self) -> f64 {
        let snap = lmm_serve::ServeStatsSnapshot {
            shard_docs: self.shard_docs.iter().map(|&(_, d)| d).collect(),
            ..Default::default()
        };
        snap.doc_skew()
    }
}

// ---------------------------------------------------------------------------
// the message table
// ---------------------------------------------------------------------------

/// Declares the message enum from a table of `tag Variant { fields }`
/// lines (a unit variant has no fields; the one tuple variant names its
/// field, `Variant(name: Type)`) and generates, from that one table, the
/// encoder of `[tag][body]` and the body decoder of each tag. A field is
/// written and read by its type's `Wire` codec, in declaration order.
/// The decoder's match denies unreachable patterns, so a tag used twice
/// is a compile error.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum Message {
            $(
                $(#[$doc:meta])*
                $tag:literal $name:ident
                $({ $($(#[$field_doc:meta])* $field:ident: $ty:ty),* $(,)? })?
                $(($one:ident: $one_ty:ty))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Message {
            $(
                $(#[$doc])*
                $name $({ $($(#[$field_doc])* $field: $ty),* })? $(($one_ty))?,
            )*
        }

        impl Message {
            fn encode(&self, w: &mut Writer) {
                match self {
                    $(Self::$name $({ $($field),* })? $(($one))? => {
                        w.u8($tag);
                        $($($field.encode(w);)*)?
                        $($one.encode(w);)?
                    })*
                }
            }

            #[deny(unreachable_patterns)]
            fn decode(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match tag {
                    $($tag => Self::$name
                        $({ $($field: Wire::decode(r)?),* })?
                        $((<$one_ty>::decode(r)?))?,)*
                    tag => return Err(WireError::BadTag { tag }),
                })
            }
        }
    };
}

messages! {
    /// Every message of the cluster protocol. One enum for both directions —
    /// the tag byte identifies the variant on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        /// Node → controller: announce a fresh node listening on `addr`.
        1 Register {
            /// The node's `ip:port` listen address.
            addr: String,
        },
        /// Controller → node: registration accepted, node id assigned.
        2 Registered {
            /// The assigned node id.
            node: u64,
        },
        /// Controller → node heartbeat probe.
        3 Ping {
            /// Echo token.
            seq: u64,
        },
        /// Node → controller heartbeat answer.
        4 Pong {
            /// The probe's echo token.
            seq: u64,
            /// The node's committed cluster epoch.
            epoch: u64,
        },
        /// Client → controller: request the current placement map.
        5 PlacementReq,
        /// Controller → client: the committed placement.
        6 Placement {
            /// Committed cluster epoch.
            epoch: u64,
            /// Rank (snapshot) epoch the cluster serves.
            rank_epoch: u64,
            /// Shard-map boundaries (first site of each shard, starting 0).
            boundaries: Vec<u64>,
            /// Owning node address per shard (parallel to shards).
            owners: Vec<String>,
        },
        /// Client → controller: request the document → site routing table.
        7 RoutingReq,
        /// Controller → client: document → site assignments (append-only ids,
        /// so a cached prefix stays valid as the web grows).
        8 Routing {
            /// Rank epoch the table was read from.
            rank_epoch: u64,
            /// `site_of[doc]` for every document id.
            site_of: Vec<u64>,
        },
        /// Controller → node, publish phase 1: stage one shard at the next
        /// cluster epoch. `segment` is `None` exactly for [`SwapGrade::Repin`]
        /// — the node reuses its current store.
        9 Stage {
            /// The cluster epoch being staged (commit flips to it).
            epoch: u64,
            /// The shard being staged.
            shard: u64,
            /// How the node must swap this shard.
            grade: SwapGrade,
            /// The shard's snapshot slice (rebuild/refresh only).
            segment: Option<SnapshotSegment>,
        },
        /// Controller → node, publish phase 2: flip to the staged epoch.
        10 Commit {
            /// The cluster epoch to commit (must equal the staged epoch).
            epoch: u64,
            /// The rank epoch the staged segments came from.
            rank_epoch: u64,
        },
        /// Node → controller: stage or commit applied (also acknowledges an
        /// abort).
        11 Ack {
            /// The acknowledged cluster epoch.
            epoch: u64,
        },
        /// Client → node: score a batch of documents on one owned shard.
        12 ScoreBatch {
            /// The shard to answer from.
            shard: u64,
            /// Document ids to score.
            docs: Vec<u64>,
        },
        /// Client → node: one shard's best `k` documents.
        13 TopKReq {
            /// The shard to answer from.
            shard: u64,
            /// How many documents.
            k: u64,
        },
        /// Client → node: one site's best `k` documents.
        14 SiteTopKReq {
            /// The shard owning the site.
            shard: u64,
            /// The site.
            site: u64,
            /// How many documents.
            k: u64,
        },
        /// Node → client: batched score answer.
        15 Scores {
            /// The node's committed cluster epoch.
            epoch: u64,
            /// The rank epoch the scores came from.
            rank_epoch: u64,
            /// One typed answer per requested document, in request order.
            scores: Vec<DocScore>,
        },
        /// Node → client: shard top-k answer.
        16 Top {
            /// The node's committed cluster epoch.
            epoch: u64,
            /// The rank epoch the entries came from.
            rank_epoch: u64,
            /// The shard's best documents in serving order.
            entries: Vec<(DocId, f64)>,
            /// `false` when `k` exceeded the precomputed list and the shard
            /// fell back to a scan.
            complete: bool,
        },
        /// Node → client: site top-k answer.
        17 SiteTop {
            /// The node's committed cluster epoch.
            epoch: u64,
            /// The rank epoch the reply came from.
            rank_epoch: u64,
            /// The typed site answer.
            reply: SiteTopK,
        },
        /// Controller/client → node: request counters.
        18 StatsReq,
        /// Node → requester: counters.
        19 Stats(stats: NodeWireStats),
        /// Node → client: the queried shard is not owned here (placement
        /// changed under the client; refresh and retry).
        20 NotOwner {
            /// The shard that was asked for.
            shard: u64,
        },
        /// Either direction: the request could not be honoured.
        21 Bad {
            /// Human-readable cause.
            detail: String,
        },
        /// Controller → node: a publish attempt died between stage and
        /// commit; discard anything staged at or below this epoch and refuse
        /// to ever commit it. Answered with [`Message::Ack`].
        22 Abort {
            /// The dead cluster epoch.
            epoch: u64,
        },
        /// Node → controller: a restarted node announces itself under the id
        /// it held before it died. The controller re-admits the id, restores
        /// its former shard claim, and catches it up by republishing the
        /// pinned snapshot under a bumped cluster epoch (rank epoch
        /// untouched). Answered with [`Message::Registered`].
        23 Rejoin {
            /// The node id from the previous incarnation.
            node: u64,
            /// The restarted node's new `ip:port` listen address.
            addr: String,
        },
    }
}

// ---------------------------------------------------------------------------
// byte writer and reader
// ---------------------------------------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    /// A collection's length prefix. A count past `u32::MAX` wraps here,
    /// but its items alone outgrow [`MAX_PAYLOAD`], so the frame is
    /// refused as oversized before it can leave.
    fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.0.len(),
            });
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn len(&mut self) -> Result<usize, WireError> {
        Ok(u32::from_be_bytes(self.array()?) as usize)
    }

    /// Reads a collection length prefix and refuses any claim the
    /// remaining bytes cannot possibly back (`min_bytes` per item), so a
    /// corrupt header cannot drive an allocation.
    fn claimed_len(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.len()?;
        let floor = n.saturating_mul(min_bytes.max(1));
        if floor > self.0.len() {
            return Err(WireError::Truncated {
                needed: floor,
                have: self.0.len(),
            });
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), WireError> {
        if !self.0.is_empty() {
            return Err(WireError::TrailingBytes {
                extra: self.0.len(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// field codecs
// ---------------------------------------------------------------------------

/// How one field type crosses the wire. `MIN_BYTES` is the fewest bytes
/// any value of the type encodes to: the floor a collection's length
/// claim is held against.
trait Wire: Sized {
    const MIN_BYTES: usize;
    fn encode(&self, w: &mut Writer);
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl Wire for u64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u64::from_be_bytes(r.array()?))
    }
}

impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = u64::decode(r)?;
        usize::try_from(raw)
            .map_err(|_| malformed(format!("value {raw} does not fit this platform")))
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.u64(self.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u64::decode(r).map(f64::from_bits)
    }
}

impl Wire for DocId {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        self.index().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::decode(r).map(DocId)
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("boolean byte {b}"))),
        }
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn encode(&self, w: &mut Writer) {
        w.len(self.len());
        w.0.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len()?;
        String::from_utf8(r.bytes(n)?.to_vec())
            .map_err(|_| malformed("invalid UTF-8 in string field".into()))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn encode(&self, w: &mut Writer) {
        w.len(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.claimed_len(T::MIN_BYTES)?;
        (0..n).map(|_| T::decode(r)).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
            None => w.u8(0),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            b => Err(malformed(format!("option byte {b}"))),
        }
    }
}

impl Wire for SwapGrade {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            SwapGrade::Rebuild => 0,
            SwapGrade::Refresh => 1,
            SwapGrade::Repin => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SwapGrade::Rebuild),
            1 => Ok(SwapGrade::Refresh),
            2 => Ok(SwapGrade::Repin),
            b => Err(malformed(format!("swap grade discriminant {b}"))),
        }
    }
}

impl Wire for DocScore {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        match self {
            DocScore::Live(v) => {
                w.u8(0);
                v.encode(w);
            }
            DocScore::Tombstoned => w.u8(1),
            DocScore::Unknown => w.u8(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => f64::decode(r).map(DocScore::Live),
            1 => Ok(DocScore::Tombstoned),
            2 => Ok(DocScore::Unknown),
            b => Err(malformed(format!("doc score discriminant {b}"))),
        }
    }
}

impl Wire for SiteTopK {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        match self {
            SiteTopK::Entries(entries) => {
                w.u8(0);
                entries.encode(w);
            }
            SiteTopK::Tombstoned => w.u8(1),
            SiteTopK::NotCovered => w.u8(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Vec::decode(r).map(SiteTopK::Entries),
            1 => Ok(SiteTopK::Tombstoned),
            2 => Ok(SiteTopK::NotCovered),
            b => Err(malformed(format!("site top-k discriminant {b}"))),
        }
    }
}

impl Wire for NodeWireStats {
    const MIN_BYTES: usize = 11 * u64::MIN_BYTES + Vec::<(u64, u64)>::MIN_BYTES;
    fn encode(&self, w: &mut Writer) {
        let NodeWireStats {
            node,
            epoch,
            rank_epoch,
            shard_docs,
            queries,
            tombstone_rejections,
            staged,
            commits,
            aborted,
            staged_expired,
            bytes_sent,
            bytes_recv,
        } = self;
        node.encode(w);
        epoch.encode(w);
        rank_epoch.encode(w);
        shard_docs.encode(w);
        queries.encode(w);
        tombstone_rejections.encode(w);
        staged.encode(w);
        commits.encode(w);
        aborted.encode(w);
        staged_expired.encode(w);
        bytes_sent.encode(w);
        bytes_recv.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeWireStats {
            node: Wire::decode(r)?,
            epoch: Wire::decode(r)?,
            rank_epoch: Wire::decode(r)?,
            shard_docs: Wire::decode(r)?,
            queries: Wire::decode(r)?,
            tombstone_rejections: Wire::decode(r)?,
            staged: Wire::decode(r)?,
            commits: Wire::decode(r)?,
            aborted: Wire::decode(r)?,
            staged_expired: Wire::decode(r)?,
            bytes_sent: Wire::decode(r)?,
            bytes_recv: Wire::decode(r)?,
        })
    }
}

/// A covered site's members: `(doc, score)` pairs, carried as the two
/// parallel lists a segment holds.
type Member = (DocId, f64);

impl Wire for SnapshotSegment {
    const MIN_BYTES: usize =
        u64::MIN_BYTES + String::MIN_BYTES + 4 * usize::MIN_BYTES + Vec::<Member>::MIN_BYTES;
    fn encode(&self, w: &mut Writer) {
        self.epoch.encode(w);
        self.backend.encode(w);
        self.sites.start.encode(w);
        self.sites.end.encode(w);
        self.n_docs.encode(w);
        self.n_sites.encode(w);
        w.len(self.members.len());
        for (docs, scores) in self.members.iter().zip(&self.member_scores) {
            w.len(docs.len());
            for (doc, score) in docs.iter().zip(scores) {
                doc.encode(w);
                score.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let epoch = u64::decode(r)?;
        let backend = String::decode(r)?;
        let start = usize::decode(r)?;
        let end = usize::decode(r)?;
        if end < start {
            return Err(malformed(format!(
                "segment site range {start}..{end} is inverted"
            )));
        }
        let n_docs = usize::decode(r)?;
        let n_sites = usize::decode(r)?;
        let covered = r.claimed_len(Vec::<Member>::MIN_BYTES)?;
        if covered != end - start {
            return Err(malformed(format!(
                "segment covers {covered} sites but its range {start}..{end} holds {}",
                end - start
            )));
        }
        let mut members = Vec::with_capacity(covered);
        let mut member_scores = Vec::with_capacity(covered);
        for _ in 0..covered {
            let n = r.claimed_len(Member::MIN_BYTES)?;
            let mut docs = Vec::with_capacity(n);
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                let (doc, score) = Member::decode(r)?;
                if doc.index() >= n_docs {
                    return Err(malformed(format!(
                        "member doc {} outside id space {n_docs}",
                        doc.index()
                    )));
                }
                docs.push(doc);
                scores.push(score);
            }
            members.push(docs);
            member_scores.push(scores);
        }
        Ok(SnapshotSegment {
            epoch,
            backend,
            sites: start..end,
            n_docs,
            n_sites,
            members,
            member_scores,
        })
    }
}

// ---------------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------------

/// Appends `msg`'s payload (`[version][tag][body]`) to `w`, refusing one
/// over [`MAX_PAYLOAD`]. Returns the payload's length.
fn put_payload(msg: &Message, w: &mut Writer) -> Result<usize, WireError> {
    let start = w.0.len();
    w.u8(WIRE_VERSION);
    msg.encode(w);
    let len = w.0.len() - start;
    if len > MAX_PAYLOAD as usize {
        return Err(WireError::Oversized { len: len as u64 });
    }
    Ok(len)
}

/// Encodes a message payload (`[version][tag][body]`, no length prefix —
/// the transport frames it).
///
/// # Errors
/// [`WireError::Oversized`] when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_message(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut w = Writer(Vec::with_capacity(64));
    put_payload(msg, &mut w)?;
    Ok(w.0)
}

/// Decodes one message payload (`[version][tag][body]`). Total: every
/// failure is a typed [`WireError`], and the whole payload must be
/// consumed.
///
/// # Errors
/// See [`WireError`].
pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader(payload);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { version });
    }
    let tag = r.u8()?;
    let msg = Message::decode(tag, &mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Encodes a full frame: `[u32 BE payload length][payload]`, in one
/// buffer — the prefix is reserved first and patched once the payload's
/// length is known.
///
/// # Errors
/// [`WireError::Oversized`] when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut w = Writer(Vec::with_capacity(64));
    w.u32(0);
    let len = put_payload(msg, &mut w)? as u32;
    w.0[..4].copy_from_slice(&len.to_be_bytes());
    Ok(w.0)
}

/// Decodes one frame off the front of `bytes`, returning the message and
/// the bytes consumed. Never panics on arbitrary input.
///
/// # Errors
/// See [`WireError`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    let mut r = Reader(bytes);
    let len = r.len()?;
    if len > MAX_PAYLOAD as usize {
        return Err(WireError::Oversized { len: len as u64 });
    }
    if r.0.len() < len {
        return Err(WireError::Truncated {
            needed: 4 + len,
            have: bytes.len(),
        });
    }
    let msg = decode_message(&r.0[..len])?;
    Ok((msg, 4 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) {
        let frame = encode_frame(msg).expect("encode");
        let (back, consumed) = decode_frame(&frame).expect("decode");
        assert_eq!(&back, msg);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn frames_round_trip() {
        round_trip(&Message::Register {
            addr: "127.0.0.1:4077".into(),
        });
        round_trip(&Message::Placement {
            epoch: 3,
            rank_epoch: 7,
            boundaries: vec![0, 4, 9],
            owners: vec!["a:1".into(), "a:1".into(), "b:2".into()],
        });
        round_trip(&Message::Scores {
            epoch: 2,
            rank_epoch: 2,
            scores: vec![
                DocScore::Live(0.125),
                DocScore::Tombstoned,
                DocScore::Unknown,
            ],
        });
        round_trip(&Message::SiteTop {
            epoch: 1,
            rank_epoch: 1,
            reply: SiteTopK::Entries(vec![(DocId(4), 0.5), (DocId(1), 0.25)]),
        });
        round_trip(&Message::Abort { epoch: 12 });
        round_trip(&Message::Rejoin {
            node: 3,
            addr: "127.0.0.1:4078".into(),
        });
    }

    #[test]
    fn segment_stages_round_trip_bitwise() {
        let seg = SnapshotSegment {
            epoch: 9,
            backend: "layered".into(),
            sites: 2..4,
            n_docs: 10,
            n_sites: 5,
            members: vec![vec![DocId(3), DocId(4)], vec![DocId(7)]],
            member_scores: vec![vec![0.1 + 0.2, f64::MIN_POSITIVE], vec![1.0 / 3.0]],
        };
        let msg = Message::Stage {
            epoch: 4,
            shard: 1,
            grade: SwapGrade::Rebuild,
            segment: Some(seg.clone()),
        };
        let frame = encode_frame(&msg).expect("encode");
        let (back, _) = decode_frame(&frame).expect("decode");
        let Message::Stage {
            segment: Some(got), ..
        } = back
        else {
            panic!("wrong variant");
        };
        // Bitwise, not approximate: scores survive via to_bits.
        for (a, b) in got
            .member_scores
            .iter()
            .flatten()
            .zip(seg.member_scores.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(got, seg);
    }

    #[test]
    fn hostile_headers_are_refused_without_allocating() {
        // Claims 4 billion entries on a 12-byte body.
        let mut w = Writer(Vec::new());
        w.u8(WIRE_VERSION);
        w.u8(12); // ScoreBatch
        w.u64(0); // shard
        w.u32(u32::MAX); // docs length claim
        let mut frame = Vec::new();
        frame.extend_from_slice(&(w.0.len() as u32).to_be_bytes());
        frame.extend_from_slice(&w.0);
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn version_and_tag_are_checked() {
        let frame = encode_frame(&Message::Ping { seq: 1 }).expect("encode");
        let mut wrong_version = frame.clone();
        wrong_version[4] = 99;
        assert_eq!(
            decode_frame(&wrong_version),
            Err(WireError::BadVersion { version: 99 })
        );
        let mut wrong_tag = frame;
        wrong_tag[5] = 200;
        assert_eq!(
            decode_frame(&wrong_tag),
            Err(WireError::BadTag { tag: 200 })
        );
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut frame = vec![0u8; 8];
        frame[..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::Oversized {
                len: u64::from(MAX_PAYLOAD) + 1
            })
        );
    }

    #[test]
    fn node_stats_reuse_the_serve_skew_formula() {
        let stats = NodeWireStats {
            shard_docs: vec![(0, 40), (1, 100), (2, 100), (3, 160)],
            ..Default::default()
        };
        assert!((stats.doc_skew() - 1.6).abs() < 1e-12);
        assert_eq!(stats.n_docs(), 400);
    }
}
