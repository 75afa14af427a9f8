//! The versioned binary wire protocol for DiBA node links.
//!
//! Every message travels as a *frame*: a little-endian `u32` payload length
//! followed by the payload. The payload is a one-byte tag and the message's
//! fixed-width little-endian fields — no varints, no padding, nothing
//! optional — so every message has exactly one byte representation. The
//! three handshake messages are scalar frames ([`WireMsg`]); all round
//! traffic rides the one batch format.
//!
//! | tag | message     | payload layout (after the tag byte)                         |
//! |-----|-------------|-------------------------------------------------------------|
//! | 1   | `Hello`     | `version: u16`, `node: u32`, `n_nodes: u32`, `topology: u64`|
//! | 2   | `HelloAck`  | `version: u16`, `node: u32`                                 |
//! | 3   | `Reject`    | `reason: u8`                                                |
//! | 7   | `DataBatch` | `round: u32`, `count: u16`, then `count` packed entries     |
//!
//! Tags 4–6 are retired: they were the scalar round frames (`Data`,
//! `Heartbeat`, `Goodbye`) that no carrier has accepted since the batch
//! format took over. They decode as [`WireError::UnknownTag`] and must
//! never be reused.
//!
//! A [`DataBatch`] entry is 21 bytes — `slot: u32`, `e: f64`,
//! `transfer: f64`, `flags: u8` — matching the paper's point that a DiBA
//! message fits a single cache line, let alone a packet. It carries one
//! per-link payload (data, heartbeat, goodbye, or end-of-stream, chosen by
//! the flag bits) addressed to the *receiver's* link index `slot`, and it
//! is the message type [`crate::agent::AgentCore`] itself stages and
//! consumes. Coalescing many per-link payloads into one frame per carrier
//! per round is what makes the reactor's wire cost O(links), not
//! O(messages).
//!
//! The decoder is total: any byte sequence either decodes to exactly one
//! message or returns a typed [`WireError`] — truncated frames, trailing
//! bytes, unknown tags, reserved flag bits, oversized batch counts, and
//! non-finite floats are all rejected, never panicked on (property-tested
//! in `tests/wire_props.rs`).

use std::io::{self, Read, Write};

/// Protocol version spoken by this build. Bumped on any change to the
/// frame layouts above; handshakes reject a peer with a different version.
/// (v2 added the tag-7 `DataBatch` frame and widened the payload cap.)
pub const PROTOCOL_VERSION: u16 = 2;

/// Tag byte of the coalesced [`DataBatch`] frame.
pub const TAG_DATA_BATCH: u8 = 7;

/// Bytes of one packed batch entry: `slot: u32`, `e: f64`,
/// `transfer: f64`, `flags: u8`.
pub(crate) const BATCH_ENTRY_LEN: usize = 21;

/// Bytes of a batch payload before the entries: tag, `round: u32`,
/// `count: u16`.
pub(crate) const BATCH_HEADER_LEN: usize = 7;

/// Most entries one [`DataBatch`] frame may carry; a busier carrier seals
/// the frame and opens the next one ([`BatchWriter`] does this
/// automatically).
pub const MAX_BATCH_ENTRIES: u16 = 2048;

/// Upper bound on an accepted payload length (bytes): a full
/// [`DataBatch`] frame. Scalar payloads stay under 32 bytes; the cap
/// keeps a corrupted or hostile length prefix from turning into an
/// attempted multi-gigabyte allocation.
pub const MAX_PAYLOAD_LEN: u32 =
    (BATCH_HEADER_LEN + MAX_BATCH_ENTRIES as usize * BATCH_ENTRY_LEN) as u32;

/// Consumed-prefix size at which [`Reassembly`] compacts its buffer.
/// Decoupled from [`MAX_PAYLOAD_LEN`] (43 KB in v2) so a connection that
/// only ever sees small frames never holds more than a few KB.
const COMPACT_THRESHOLD: usize = 8192;

/// Why a handshake peer was turned away, carried inside [`WireMsg::Reject`]
/// so the dialer learns the named reason instead of a bare disconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The peer speaks a different [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The peer was launched against a different communication graph
    /// (its [`dpc_topology::Graph::topology_hash`] differs).
    TopologyMismatch,
    /// The peer believes the cluster has a different node count.
    ClusterSizeMismatch,
    /// The peer's node id is not a graph neighbor of this node (or that
    /// link is already established).
    UnknownPeer,
}

impl RejectReason {
    const ALL: [RejectReason; 4] = [
        RejectReason::VersionMismatch,
        RejectReason::TopologyMismatch,
        RejectReason::ClusterSizeMismatch,
        RejectReason::UnknownPeer,
    ];

    fn code(self) -> u8 {
        match self {
            RejectReason::VersionMismatch => 1,
            RejectReason::TopologyMismatch => 2,
            RejectReason::ClusterSizeMismatch => 3,
            RejectReason::UnknownPeer => 4,
        }
    }

    fn from_code(code: u8) -> Option<RejectReason> {
        RejectReason::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// Stable name used in error messages and logs.
    pub(crate) fn key(self) -> &'static str {
        match self {
            RejectReason::VersionMismatch => "version-mismatch",
            RejectReason::TopologyMismatch => "topology-mismatch",
            RejectReason::ClusterSizeMismatch => "cluster-size-mismatch",
            RejectReason::UnknownPeer => "unknown-peer",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A decoded scalar protocol message: the handshake. Round traffic is
/// [`BatchEntry`] values inside [`DataBatch`] frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMsg {
    /// Join: the dialer introduces itself and states the cluster identity
    /// it was launched with. The acceptor validates every field.
    Hello {
        /// Dialer's [`PROTOCOL_VERSION`].
        version: u16,
        /// Dialer's node id.
        node: u32,
        /// Cluster size the dialer was launched with.
        n_nodes: u32,
        /// Fingerprint of the dialer's communication graph.
        topology_hash: u64,
    },
    /// The acceptor's half of the join: it confirms the link and names
    /// itself so the dialer can verify it reached the intended neighbor.
    HelloAck {
        /// Acceptor's [`PROTOCOL_VERSION`].
        version: u16,
        /// Acceptor's node id.
        node: u32,
    },
    /// The acceptor turns the dialer away with a named reason; the link is
    /// closed immediately after.
    Reject {
        /// Why the handshake failed.
        reason: RejectReason,
    },
}

impl WireMsg {
    /// The message's tag byte.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            WireMsg::Hello { .. } => 1,
            WireMsg::HelloAck { .. } => 2,
            WireMsg::Reject { .. } => 3,
        }
    }

    /// Human-readable message kind (for error reporting).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "hello",
            WireMsg::HelloAck { .. } => "hello-ack",
            WireMsg::Reject { .. } => "reject",
        }
    }
}

/// What one packed [`DataBatch`] entry means, carried in its flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// One round's state/residual exchange — the workhorse: the
    /// sender's residual snapshot and the slack it transfers.
    Data,
    /// Keepalive sent instead of `Data` when a settled sender's state is
    /// identical to what the receiver already holds (residual unchanged
    /// since the last `Data`, zero transfer); the float fields travel as
    /// `+0.0`.
    Heartbeat,
    /// Depart: the sender leaves the link for good — a graceful shutdown
    /// after convergence quorum (`transfer = 0`), or a departure donating
    /// its residual mass to the receiver.
    Goodbye,
    /// Per-link end-of-stream: the sender will never write this link
    /// again. Carriers are shared, so a link-level FIN has to travel
    /// in-band instead of as a transport close.
    Eof,
}

impl EntryKind {
    fn bits(self) -> u8 {
        match self {
            EntryKind::Data => 0b000,
            EntryKind::Heartbeat => 0b010,
            EntryKind::Goodbye => 0b100,
            EntryKind::Eof => 0b110,
        }
    }

    fn from_bits(bits: u8) -> EntryKind {
        match bits {
            0b000 => EntryKind::Data,
            0b010 => EntryKind::Heartbeat,
            0b100 => EntryKind::Goodbye,
            _ => EntryKind::Eof,
        }
    }
}

/// One per-link payload — the protocol's round message, and the unit a
/// [`DataBatch`] frame packs.
///
/// Pairwise conservation is the contract: the sender subtracts `transfer`
/// from its own residual when it sends, the receiver adds it on receipt,
/// so `Σe` is invariant under messaging regardless of delivery order. `e`
/// is advisory (the sender's residual *after* its local action this
/// round); `transfer` is mass and must never be dropped silently — a
/// driver that fails to deliver must say so, so the sender can reclaim it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEntry {
    /// The link the payload is for. As staged by
    /// [`crate::agent::AgentCore`] it is the sender's own slot; on the
    /// wire and in an inbox it is the *receiver's* link index, which the
    /// driver writes when it delivers.
    pub slot: u32,
    /// Sender's residual estimate after its action this round, in watts
    /// (`+0.0` for heartbeat/eof entries).
    pub e: f64,
    /// Slack donated to the receiver, in watts, ≤ 0 like any transfer
    /// (`+0.0` for heartbeat/eof and for a quorum goodbye).
    pub transfer: f64,
    /// Sender considers itself settled — |Δp| below tolerance for the
    /// configured number of consecutive rounds (data/heartbeat only; must
    /// be clear for goodbye/eof).
    pub settled: bool,
    /// What the entry means.
    pub kind: EntryKind,
}

impl BatchEntry {
    fn flags(&self) -> u8 {
        debug_assert!(
            !(self.settled && matches!(self.kind, EntryKind::Goodbye | EntryKind::Eof)),
            "settled bit is undefined for goodbye/eof entries"
        );
        self.kind.bits() | u8::from(self.settled)
    }
}

/// An owned, decoded tag-7 frame: one carrier's coalesced per-link
/// payloads for `round`. The hot path decodes into a reused `entries`
/// buffer via [`Reassembly::next_frame_into`]; this owned form exists for
/// tests and one-shot decodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataBatch {
    /// Sender's round counter for every entry in the frame (wraps at
    /// `u32::MAX`; used for diagnostics, not ordering — links are FIFO).
    pub round: u32,
    /// The packed entries, in send order.
    pub entries: Vec<BatchEntry>,
}

impl DataBatch {
    /// Appends this batch as one full frame (length prefix included).
    ///
    /// # Panics
    ///
    /// Panics if the batch exceeds [`MAX_BATCH_ENTRIES`]; producers split
    /// via [`BatchWriter`] instead of building oversized batches.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_batch_into(self.round, &self.entries, buf)
    }
}

/// Any decoded frame: a scalar message or a coalesced batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A scalar protocol message (tags 1–3).
    Msg(WireMsg),
    /// A coalesced tag-7 batch.
    Batch(DataBatch),
}

/// The borrow-free result of [`Reassembly::next_frame_into`]: batch
/// contents land in the caller's reused [`DataBatch`] scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameKind {
    /// A scalar protocol message (tags 1–3).
    Msg(WireMsg),
    /// A batch frame; its header and entries were decoded into the
    /// scratch argument.
    Batch,
}

/// A typed decoding failure. Every variant is a *data* problem — the bytes
/// themselves are wrong — as opposed to the I/O problems reported by
/// [`FrameError::Io`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message's fixed layout was complete.
    Truncated {
        /// Bytes the tag's layout requires.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload continued past the message's fixed layout.
    TrailingBytes {
        /// The decoded message's tag.
        tag: u8,
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The first payload byte is not a known message tag.
    UnknownTag(u8),
    /// A [`WireMsg::Reject`] carried an unassigned reason code.
    UnknownReason(u8),
    /// A flags byte had reserved (non-zero) bits set.
    BadFlags(u8),
    /// A float field decoded to NaN or ±∞, which no solver ever produces.
    NonFinite {
        /// Name of the offending field.
        field: &'static str,
    },
    /// The frame's length prefix exceeds [`MAX_PAYLOAD_LEN`].
    OversizedFrame(u32),
    /// A [`DataBatch`] count field exceeds [`MAX_BATCH_ENTRIES`].
    OversizedBatch(u16),
    /// A [`DataBatch`] frame arrived on a path that only speaks scalar
    /// messages ([`read_frame`], [`decode_payload`]).
    UnexpectedBatch,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { expected, got } => {
                write!(f, "truncated payload: expected {expected} bytes, got {got}")
            }
            WireError::TrailingBytes { tag, extra } => {
                write!(f, "{extra} trailing bytes after tag-{tag} payload")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            WireError::UnknownReason(code) => write!(f, "unknown reject reason code {code}"),
            WireError::BadFlags(flags) => {
                write!(f, "reserved flag bits set: {flags:#04x}")
            }
            WireError::NonFinite { field } => write!(f, "non-finite value in field `{field}`"),
            WireError::OversizedFrame(len) => write!(
                f,
                "frame length {len} exceeds the {MAX_PAYLOAD_LEN}-byte payload cap"
            ),
            WireError::OversizedBatch(count) => write!(
                f,
                "batch count {count} exceeds the {MAX_BATCH_ENTRIES}-entry cap"
            ),
            WireError::UnexpectedBatch => f.write_str("batch frame on a scalar-only path"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a framed read ended without producing a message.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The transport failed mid-frame (includes read timeouts).
    Io(io::Error),
    /// The frame arrived but its bytes decode to no valid message.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("peer closed the stream"),
            FrameError::Io(e) => write!(f, "i/o failure: {e}"),
            FrameError::Wire(e) => write!(f, "wire decode failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

const FLAG_SETTLED: u8 = 0b0000_0001;

/// Encodes the payload (tag + fields, no length prefix) into `buf`.
pub fn encode_payload(msg: &WireMsg, buf: &mut Vec<u8>) {
    buf.push(msg.tag());
    match *msg {
        WireMsg::Hello {
            version,
            node,
            n_nodes,
            topology_hash,
        } => {
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&node.to_le_bytes());
            buf.extend_from_slice(&n_nodes.to_le_bytes());
            buf.extend_from_slice(&topology_hash.to_le_bytes());
        }
        WireMsg::HelloAck { version, node } => {
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&node.to_le_bytes());
        }
        WireMsg::Reject { reason } => buf.push(reason.code()),
    }
}

/// A cursor over a payload that pulls fixed-width little-endian fields and
/// reports exactly how many bytes the layout wanted when it runs short.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    want: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor {
            bytes,
            pos: 0,
            want: 0,
        }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.want += N;
        match self.bytes.get(self.pos..self.pos + N) {
            Some(chunk) => {
                self.pos += N;
                let mut out = [0u8; N];
                out.copy_from_slice(chunk);
                Ok(out)
            }
            None => Err(WireError::Truncated {
                expected: self.want,
                got: self.bytes.len(),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, WireError> {
        let v = f64::from_le_bytes(self.take::<8>()?);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(WireError::NonFinite { field })
        }
    }

    fn finish(self, tag: u8, msg: WireMsg) -> Result<WireMsg, WireError> {
        if self.pos < self.bytes.len() {
            Err(WireError::TrailingBytes {
                tag,
                extra: self.bytes.len() - self.pos,
            })
        } else {
            Ok(msg)
        }
    }
}

/// Decodes one scalar payload (tag + fields, no length prefix): tags 1–3.
/// The batch tag is refused by name, and everything else — the retired
/// tags 4–6 included — is unknown.
///
/// # Errors
///
/// A [`WireError`] naming exactly what is wrong with the bytes; never
/// panics on any input.
pub fn decode_payload(bytes: &[u8]) -> Result<WireMsg, WireError> {
    let mut c = Cursor::new(bytes);
    let tag = c.u8().map_err(|_| WireError::Truncated {
        expected: 1,
        got: 0,
    })?;
    match tag {
        1 => {
            let version = c.u16()?;
            let node = c.u32()?;
            let n_nodes = c.u32()?;
            let topology_hash = c.u64()?;
            c.finish(
                tag,
                WireMsg::Hello {
                    version,
                    node,
                    n_nodes,
                    topology_hash,
                },
            )
        }
        2 => {
            let version = c.u16()?;
            let node = c.u32()?;
            c.finish(tag, WireMsg::HelloAck { version, node })
        }
        3 => {
            let code = c.u8()?;
            let reason = RejectReason::from_code(code).ok_or(WireError::UnknownReason(code))?;
            c.finish(tag, WireMsg::Reject { reason })
        }
        TAG_DATA_BATCH => Err(WireError::UnexpectedBatch),
        other => Err(WireError::UnknownTag(other)),
    }
}

/// Decodes a tag-7 payload's header and entries into `entries` (cleared
/// first, capacity reused), returning the batch round. `bytes` is the
/// whole payload including the tag byte.
fn decode_batch_payload(bytes: &[u8], entries: &mut Vec<BatchEntry>) -> Result<u32, WireError> {
    entries.clear();
    let mut c = Cursor::new(bytes);
    let tag = c.u8()?;
    debug_assert_eq!(tag, TAG_DATA_BATCH, "caller dispatched on the tag");
    let round = c.u32()?;
    let count = c.u16()?;
    if count > MAX_BATCH_ENTRIES {
        return Err(WireError::OversizedBatch(count));
    }
    entries.reserve(count as usize);
    for _ in 0..count {
        let slot = c.u32()?;
        let e = c.f64("e")?;
        let transfer = c.f64("transfer")?;
        let flags = c.u8()?;
        if flags & !0b111 != 0 {
            return Err(WireError::BadFlags(flags));
        }
        let settled = flags & FLAG_SETTLED != 0;
        let kind = EntryKind::from_bits(flags & 0b110);
        if settled && matches!(kind, EntryKind::Goodbye | EntryKind::Eof) {
            return Err(WireError::BadFlags(flags));
        }
        entries.push(BatchEntry {
            slot,
            e,
            transfer,
            settled,
            kind,
        });
    }
    if c.pos < bytes.len() {
        return Err(WireError::TrailingBytes {
            tag: TAG_DATA_BATCH,
            extra: bytes.len() - c.pos,
        });
    }
    Ok(round)
}

/// Decodes one payload of *any* tag — scalar or batch — into an owned
/// [`Frame`]. Total like [`decode_payload`]; the canonical-encoding
/// property (decode ∘ encode = id) holds for every successful decode.
///
/// # Errors
///
/// A [`WireError`] naming exactly what is wrong with the bytes.
pub fn decode_frame_payload(bytes: &[u8]) -> Result<Frame, WireError> {
    if bytes.first() == Some(&TAG_DATA_BATCH) {
        let mut batch = DataBatch::default();
        batch.round = decode_batch_payload(bytes, &mut batch.entries)?;
        Ok(Frame::Batch(batch))
    } else {
        decode_payload(bytes).map(Frame::Msg)
    }
}

/// Encodes a full frame (length prefix + payload) into a fresh `Vec` —
/// handshake writes and tests; round traffic goes through
/// [`BatchWriter`] into a reused buffer instead.
pub fn encode_frame(msg: &WireMsg) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    encode_payload(msg, &mut frame);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

fn encode_entry(entry: &BatchEntry, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&entry.slot.to_le_bytes());
    buf.extend_from_slice(&entry.e.to_le_bytes());
    buf.extend_from_slice(&entry.transfer.to_le_bytes());
    buf.push(entry.flags());
}

/// Appends one complete [`DataBatch`] frame (length prefix included).
///
/// # Panics
///
/// Panics if `entries.len()` exceeds [`MAX_BATCH_ENTRIES`] — producers
/// with unbounded entry streams go through [`BatchWriter`], which seals
/// and reopens frames at the cap.
pub fn encode_batch_into(round: u32, entries: &[BatchEntry], buf: &mut Vec<u8>) {
    assert!(
        entries.len() <= MAX_BATCH_ENTRIES as usize,
        "batch of {} entries exceeds the {MAX_BATCH_ENTRIES}-entry cap",
        entries.len()
    );
    let payload = BATCH_HEADER_LEN + entries.len() * BATCH_ENTRY_LEN;
    buf.reserve(4 + payload);
    buf.extend_from_slice(&(payload as u32).to_le_bytes());
    buf.push(TAG_DATA_BATCH);
    buf.extend_from_slice(&round.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for entry in entries {
        encode_entry(entry, buf);
    }
}

/// Incremental [`DataBatch`] encoder writing straight into a carrier's
/// outbound buffer: the first entry of a flush window opens a
/// frame (length and count fields as placeholders), subsequent entries
/// append in place, and [`BatchWriter::seal`] patches the header when the
/// window closes. A round change or the [`MAX_BATCH_ENTRIES`] cap seals
/// and reopens automatically, so entries from agents a round apart never
/// share a header.
///
/// While a frame is open, nothing else may append to the buffer or move
/// its bytes — callers seal first.
#[derive(Debug, Default)]
pub struct BatchWriter {
    /// Byte offset of the open frame's length prefix, if one is open.
    open_at: Option<usize>,
    round: u32,
    count: u16,
}

impl BatchWriter {
    /// A writer with no open frame.
    pub fn new() -> BatchWriter {
        BatchWriter::default()
    }

    /// Appends `entry` under `round`, opening/sealing frames as needed.
    /// With `coalesce` false every entry is sealed into its own
    /// single-entry frame — the per-message framing mode the bench gate
    /// compares against.
    pub fn push(&mut self, buf: &mut Vec<u8>, round: u32, entry: BatchEntry, coalesce: bool) {
        if self.open_at.is_some() && (self.round != round || self.count == MAX_BATCH_ENTRIES) {
            self.seal(buf);
        }
        if self.open_at.is_none() {
            self.open_at = Some(buf.len());
            buf.extend_from_slice(&[0u8; 4]);
            buf.push(TAG_DATA_BATCH);
            buf.extend_from_slice(&round.to_le_bytes());
            buf.extend_from_slice(&[0u8; 2]);
            self.round = round;
            self.count = 0;
        }
        encode_entry(&entry, buf);
        self.count += 1;
        if !coalesce {
            self.seal(buf);
        }
    }

    /// Patches the open frame's length and count fields and closes it.
    /// Idempotent; must be called before the buffer is flushed or its
    /// bytes move.
    pub fn seal(&mut self, buf: &mut [u8]) {
        if let Some(at) = self.open_at.take() {
            let payload = (buf.len() - at - 4) as u32;
            buf[at..at + 4].copy_from_slice(&payload.to_le_bytes());
            let count_at = at + 4 + 1 + 4;
            buf[count_at..count_at + 2].copy_from_slice(&self.count.to_le_bytes());
        }
    }
}

/// Writes one frame to a byte stream.
///
/// # Errors
///
/// Propagates the underlying write failure.
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> io::Result<()> {
    w.write_all(&encode_frame(msg))
}

/// Reads exactly one frame from a byte stream and decodes it.
///
/// # Errors
///
/// [`FrameError::Closed`] on EOF at a frame boundary, [`FrameError::Io`]
/// mid-frame (including read timeouts), [`FrameError::Wire`] when the
/// bytes are invalid.
pub fn read_frame(r: &mut impl Read) -> Result<WireMsg, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_PAYLOAD_LEN {
        return Err(FrameError::Wire(WireError::OversizedFrame(len)));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed mid payload",
            ))
        } else {
            FrameError::Io(e)
        }
    })?;
    decode_payload(&payload).map_err(FrameError::Wire)
}

/// Incremental frame reassembly over a byte stream that arrives in
/// arbitrary chunks — the readiness-loop counterpart of [`read_frame`].
///
/// Feed whatever bytes the socket produced with [`Reassembly::push`], then
/// pop complete frames with [`Reassembly::next_frame`] until it returns
/// `Ok(None)`. Splitting a stream at *any* byte boundary decodes to the
/// identical message sequence as one contiguous read (property-tested in
/// `tests/wire_props.rs`), and no input ever panics.
#[derive(Debug, Default)]
pub struct Reassembly {
    buf: Vec<u8>,
    start: usize,
}

impl Reassembly {
    /// An empty reassembly buffer.
    pub fn new() -> Reassembly {
        Reassembly::default()
    }

    /// Appends bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed frames at the front are dead
        // weight, and steady-state frames are tiny, so this keeps the
        // buffer at a few dozen bytes per connection forever.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame, if one is fully buffered, returning
    /// an owned [`Frame`]. Allocates a fresh entry vector for batch frames;
    /// hot paths that pop many batches should prefer
    /// [`Reassembly::next_frame_into`], which reuses one.
    ///
    /// # Errors
    ///
    /// The same [`WireError`]s [`read_frame`] reports: an oversized length
    /// prefix or an invalid payload. The stream is unrecoverable after an
    /// error (framing is lost), as with [`read_frame`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let mut batch = DataBatch::default();
        Ok(match self.next_frame_into(&mut batch)? {
            None => None,
            Some(FrameKind::Msg(msg)) => Some(Frame::Msg(msg)),
            Some(FrameKind::Batch) => Some(Frame::Batch(batch)),
        })
    }

    /// Decodes the next complete frame without allocating: scalar messages
    /// come back inline in the returned [`FrameKind`], while batch payloads
    /// are decoded into `batch` (cleared first, entry capacity reused) and
    /// signalled by [`FrameKind::Batch`]. This is the steady-state receive
    /// path — no intermediate copy of the payload is made; entries decode
    /// straight out of the reassembly buffer.
    ///
    /// # Errors
    ///
    /// Identical to [`Reassembly::next_frame`].
    pub fn next_frame_into(
        &mut self,
        batch: &mut DataBatch,
    ) -> Result<Option<FrameKind>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_PAYLOAD_LEN {
            return Err(WireError::OversizedFrame(len));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[4..total];
        let kind = if payload.first() == Some(&TAG_DATA_BATCH) {
            batch.round = decode_batch_payload(payload, &mut batch.entries)?;
            FrameKind::Batch
        } else {
            FrameKind::Msg(decode_payload(payload)?)
        };
        self.start += total;
        Ok(Some(kind))
    }
}

/// The cluster identity a node validates a [`WireMsg::Hello`] against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterIdentity {
    /// Expected cluster size.
    pub n_nodes: u32,
    /// Expected [`dpc_topology::Graph::topology_hash`].
    pub topology_hash: u64,
}

impl ClusterIdentity {
    /// Checks a hello's version and cluster identity, returning the named
    /// reason a peer must be turned away with.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] to send back on any mismatch.
    pub fn validate_hello(
        &self,
        version: u16,
        n_nodes: u32,
        topology_hash: u64,
    ) -> Result<(), RejectReason> {
        if version != PROTOCOL_VERSION {
            return Err(RejectReason::VersionMismatch);
        }
        if n_nodes != self.n_nodes {
            return Err(RejectReason::ClusterSizeMismatch);
        }
        if topology_hash != self.topology_hash {
            return Err(RejectReason::TopologyMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sizes_match_the_documented_layout() {
        let hello = WireMsg::Hello {
            version: PROTOCOL_VERSION,
            node: 3,
            n_nodes: 8,
            topology_hash: 42,
        };
        assert_eq!(encode_frame(&hello).len(), 4 + 19);
        let ack = WireMsg::HelloAck {
            version: PROTOCOL_VERSION,
            node: 3,
        };
        assert_eq!(encode_frame(&ack).len(), 4 + 7);
        let reject = WireMsg::Reject {
            reason: RejectReason::UnknownPeer,
        };
        assert_eq!(encode_frame(&reject).len(), 4 + 2);
    }

    #[test]
    fn stream_round_trip() {
        let msgs = [
            WireMsg::Hello {
                version: PROTOCOL_VERSION,
                node: 1,
                n_nodes: 8,
                topology_hash: 0xdead_beef,
            },
            WireMsg::HelloAck {
                version: PROTOCOL_VERSION,
                node: 2,
            },
            WireMsg::Reject {
                reason: RejectReason::TopologyMismatch,
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, m).unwrap();
        }
        let mut reader = &stream[..];
        for m in &msgs {
            let got = read_frame(&mut reader).unwrap();
            assert_eq!(&got, m);
        }
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::Wire(WireError::OversizedFrame(u32::MAX)))
        ));
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for (e, transfer, field) in [
            (f64::NAN, 0.0, "e"),
            (0.0, f64::INFINITY, "transfer"),
            (f64::NEG_INFINITY, f64::NAN, "e"),
        ] {
            let mut payload = vec![TAG_DATA_BATCH];
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&1u16.to_le_bytes());
            payload.extend_from_slice(&0u32.to_le_bytes());
            payload.extend_from_slice(&e.to_le_bytes());
            payload.extend_from_slice(&transfer.to_le_bytes());
            payload.push(0);
            assert_eq!(
                decode_frame_payload(&payload),
                Err(WireError::NonFinite { field })
            );
        }
    }

    #[test]
    fn hello_validation_names_the_reason() {
        let id = ClusterIdentity {
            n_nodes: 8,
            topology_hash: 99,
        };
        assert_eq!(id.validate_hello(PROTOCOL_VERSION, 8, 99), Ok(()));
        assert_eq!(
            id.validate_hello(PROTOCOL_VERSION + 1, 8, 99),
            Err(RejectReason::VersionMismatch)
        );
        assert_eq!(
            id.validate_hello(PROTOCOL_VERSION, 9, 99),
            Err(RejectReason::ClusterSizeMismatch)
        );
        assert_eq!(
            id.validate_hello(PROTOCOL_VERSION, 8, 98),
            Err(RejectReason::TopologyMismatch)
        );
    }

    #[test]
    fn batch_round_trip_preserves_entries() {
        let batch = DataBatch {
            round: 41,
            entries: vec![
                BatchEntry {
                    slot: 0,
                    e: -2.5,
                    transfer: -0.5,
                    settled: true,
                    kind: EntryKind::Data,
                },
                BatchEntry {
                    slot: 3,
                    e: 0.0,
                    transfer: 0.0,
                    settled: false,
                    kind: EntryKind::Heartbeat,
                },
                BatchEntry {
                    slot: 7,
                    e: -1.0,
                    transfer: 0.25,
                    settled: false,
                    kind: EntryKind::Goodbye,
                },
                BatchEntry {
                    slot: 9,
                    e: 0.0,
                    transfer: 0.0,
                    settled: false,
                    kind: EntryKind::Eof,
                },
            ],
        };
        let mut buf = Vec::new();
        batch.encode_into(&mut buf);
        assert_eq!(
            buf.len(),
            4 + BATCH_HEADER_LEN + batch.entries.len() * BATCH_ENTRY_LEN
        );
        let mut reasm = Reassembly::new();
        reasm.push(&buf);
        assert_eq!(reasm.next_frame().unwrap(), Some(Frame::Batch(batch)));
        assert_eq!(reasm.next_frame().unwrap(), None);
    }

    #[test]
    fn batch_writer_coalesces_per_round_and_seals_on_round_change() {
        let entry = |slot| BatchEntry {
            slot,
            e: -1.0,
            transfer: 0.5,
            settled: false,
            kind: EntryKind::Data,
        };
        let mut buf = Vec::new();
        let mut w = BatchWriter::new();
        w.push(&mut buf, 5, entry(0), true);
        w.push(&mut buf, 5, entry(1), true);
        w.push(&mut buf, 6, entry(2), true);
        w.seal(&mut buf);
        let mut reasm = Reassembly::new();
        reasm.push(&buf);
        let first = reasm.next_frame().unwrap().unwrap();
        let second = reasm.next_frame().unwrap().unwrap();
        assert_eq!(reasm.next_frame().unwrap(), None);
        match (first, second) {
            (Frame::Batch(a), Frame::Batch(b)) => {
                assert_eq!((a.round, a.entries.len()), (5, 2));
                assert_eq!((b.round, b.entries.len()), (6, 1));
            }
            other => panic!("expected two batches, got {other:?}"),
        }
    }

    #[test]
    fn uncoalesced_writer_emits_single_entry_frames() {
        let entry = BatchEntry {
            slot: 2,
            e: -0.5,
            transfer: 0.0,
            settled: true,
            kind: EntryKind::Data,
        };
        let mut buf = Vec::new();
        let mut w = BatchWriter::new();
        w.push(&mut buf, 9, entry, false);
        w.push(&mut buf, 9, entry, false);
        w.seal(&mut buf);
        let mut reasm = Reassembly::new();
        reasm.push(&buf);
        for _ in 0..2 {
            match reasm.next_frame().unwrap() {
                Some(Frame::Batch(b)) => {
                    assert_eq!((b.round, b.entries.len()), (9, 1));
                }
                other => panic!("expected a one-entry batch, got {other:?}"),
            }
        }
        assert_eq!(reasm.next_frame().unwrap(), None);
    }

    #[test]
    fn batch_rejections_name_the_defect() {
        // Count beyond the cap.
        let mut payload = vec![TAG_DATA_BATCH];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&(MAX_BATCH_ENTRIES + 1).to_le_bytes());
        assert_eq!(
            decode_frame_payload(&payload),
            Err(WireError::OversizedBatch(MAX_BATCH_ENTRIES + 1))
        );
        // Batch tag on a scalar-only decode path.
        assert_eq!(decode_payload(&payload), Err(WireError::UnexpectedBatch));
        // Reserved flag bits.
        let mut payload = vec![TAG_DATA_BATCH];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0f64.to_le_bytes());
        payload.extend_from_slice(&0f64.to_le_bytes());
        payload.push(0b1000);
        assert_eq!(
            decode_frame_payload(&payload),
            Err(WireError::BadFlags(0b1000))
        );
        // Settled goodbye is contradictory.
        *payload.last_mut().unwrap() = 0b101;
        assert_eq!(
            decode_frame_payload(&payload),
            Err(WireError::BadFlags(0b101))
        );
    }
}
