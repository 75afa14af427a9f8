//! Carrier and link state for the reactor: one byte *carrier* per pair of
//! shards that share an edge — always a nonblocking loopback TCP socket,
//! registered in the owning shard's epoll under its carrier index — one
//! lightweight *link* per agent↔neighbor attachment, riding the carrier to
//! the neighbor's shard — or none, inside one shard — and the [`Inbox`],
//! one two-entry FIFO per link in a flat per-shard array. A one-agent node
//! shard ([`super::host_node`]) is the degenerate case: one carrier, and
//! one link, per graph neighbor.
//!
//! Every carrier moves the identical length-prefixed byte stream:
//! handshake frames are scalar [`crate::wire::WireMsg`]s, round traffic is
//! coalesced into [`crate::wire::DataBatch`] frames whose entries are
//! addressed by the *receiving* shard's link index. The shard loop encodes
//! entries straight into the carrier's persistent staging buffer (via
//! [`crate::wire::BatchWriter`]), so the steady-state send path allocates
//! nothing; flushed bytes wait in a [`RingBuf`] and go to the kernel with
//! vectored writes when the ring wraps.

use crate::wire::{BatchEntry, BatchWriter, EntryKind, Reassembly};
use std::io::{IoSlice, Write};
use std::net::TcpStream;
use std::ops::Range;

/// A growable circular byte buffer: the persistent write-side staging of a
/// carrier. Bytes go in at the tail (wrapping), come out at the head, and
/// the readable region is exposed as at most two slices so the flush path
/// can hand both to one vectored write. Capacity only ever grows
/// (doubling), so after warm-up the steady state allocates nothing.
#[derive(Default)]
pub struct RingBuf {
    buf: Vec<u8>,
    head: usize,
    len: usize,
}

impl RingBuf {
    /// An empty ring; no allocation until the first write.
    pub fn new() -> RingBuf {
        RingBuf::default()
    }

    /// Buffered byte count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `bytes`, wrapping at the capacity edge; grows (and
    /// linearizes) only when the ring is full.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let needed = self.len + bytes.len();
        if needed > self.buf.len() {
            self.grow(needed);
        }
        let cap = self.buf.len();
        let tail = (self.head + self.len) % cap;
        let first = bytes.len().min(cap - tail);
        self.buf[tail..tail + first].copy_from_slice(&bytes[..first]);
        self.buf[..bytes.len() - first].copy_from_slice(&bytes[first..]);
        self.len += bytes.len();
    }

    fn grow(&mut self, needed: usize) {
        let cap = needed.next_power_of_two().max(4096);
        let mut fresh = vec![0u8; cap];
        let (a, b) = self.as_slices();
        fresh[..a.len()].copy_from_slice(a);
        fresh[a.len()..a.len() + b.len()].copy_from_slice(b);
        self.head = 0;
        self.buf = fresh;
    }

    /// The readable region: one contiguous slice, or two when the data
    /// wraps the capacity edge (second slice empty otherwise).
    pub fn as_slices(&self) -> (&[u8], &[u8]) {
        if self.len == 0 {
            return (&[], &[]);
        }
        let cap = self.buf.len();
        let first = self.len.min(cap - self.head);
        (
            &self.buf[self.head..self.head + first],
            &self.buf[..self.len - first],
        )
    }

    /// Drops `n` consumed bytes from the head (a successful write's byte
    /// count); resets to the buffer start once drained so refills are
    /// contiguous.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len, "consumed more than buffered");
        self.len -= n;
        if self.len == 0 {
            self.head = 0;
        } else {
            self.head = (self.head + n) % self.buf.len();
        }
    }

    /// Writes as much buffered data as the stream accepts, using one
    /// vectored write when the ring wraps. Returns the bytes accepted.
    ///
    /// # Errors
    ///
    /// The stream's own write error (`WouldBlock` included).
    pub fn write_to(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        let (a, b) = self.as_slices();
        let n = if b.is_empty() {
            stream.write(a)?
        } else {
            stream.write_vectored(&[IoSlice::new(a), IoSlice::new(b)])?
        };
        self.consume(n);
        Ok(n)
    }
}

/// Handshake progress of one carrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarrierState {
    /// Acceptor side: waiting for the dialer's `Hello`.
    AwaitHello,
    /// Dialer side: `Hello` sent, waiting for `HelloAck`.
    AwaitAck,
    /// Handshake complete; batched round frames flow.
    Data,
}

/// One shard↔shard byte stream. All round traffic between the two shards'
/// agents is coalesced onto this single stream as batch entries, so the
/// per-round flush cost is O(carriers) — a handful — rather than
/// O(messages).
pub struct Carrier {
    /// Peer shard id (handshake validation).
    pub peer_shard: usize,
    /// How errors name the peer: `shard K` inside one process, the
    /// socket address when the peer is another process's node shard.
    pub label: String,
    /// The nonblocking loopback stream.
    pub stream: TcpStream,
    /// Outbound bytes not yet accepted by the kernel.
    pub out: RingBuf,
    /// Registered for `EPOLLOUT` (pending flush).
    pub want_write: bool,
    /// The stream failed or its read side reached EOF; sends are refused.
    pub closed: bool,
    /// Handshake progress.
    pub state: CarrierState,
    /// Partial-frame reassembly for the inbound byte stream.
    pub reasm: Reassembly,
    /// Outbound frames under construction, reused every flush.
    pub staging: Vec<u8>,
    /// Incremental batch encoder over `staging`.
    pub writer: BatchWriter,
    /// Inbound stream exhausted (peer shard finished or failed).
    pub eof: bool,
    /// Lazy-cancellation sequence for the handshake deadline.
    pub hs_seq: u32,
    /// Shard-local links whose inbound rides this carrier (stream-EOF
    /// fan-out on the abort path).
    pub fed_links: Vec<u32>,
}

impl Carrier {
    /// A fresh carrier over `stream` (already nonblocking), waiting for a
    /// `Hello` until the shard loop makes its side the dialer.
    pub fn new(peer_shard: usize, stream: TcpStream) -> Carrier {
        Carrier {
            peer_shard,
            label: format!("shard {peer_shard}"),
            stream,
            out: RingBuf::new(),
            want_write: false,
            closed: false,
            state: CarrierState::AwaitHello,
            reasm: Reassembly::new(),
            staging: Vec::new(),
            writer: BatchWriter::new(),
            eof: false,
            hs_seq: 0,
            fed_links: Vec::new(),
        }
    }

    /// Label used in errors.
    pub fn peer_label(&self) -> String {
        self.label.clone()
    }
}

/// One agent↔neighbor attachment. Links own no byte streams: a cross-shard
/// link's traffic rides the carrier connecting the two owning shards, an
/// intra-shard link's is written straight into the [`Inbox`] FIFO of the
/// receiving link. Links are laid out in the shard block's slot order, so
/// agent `a`'s slot `k` is link `block.slots(a).start + k`; whether a
/// link's inbound side has ended is [`Inbox`] state.
#[derive(Clone, Copy)]
pub struct Link {
    /// Shard-local index of the carrier this link's traffic rides; `None`
    /// when the neighbor is on this shard.
    pub carrier: Option<u32>,
    /// The *receiving* shard's index for the reverse link: outgoing
    /// entries are tagged with it so the peer shard routes them without
    /// any lookup (and, in place, it is the FIFO they go to).
    pub peer_slot: u32,
}

/// What an arrival on a link — an entry, or an EOF on an empty link —
/// does for the agent that owns it when no round of the agent waits on
/// the link. (While a round does, [`Inbox::arm`] makes the arrival count
/// the round down, once.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Wake {
    /// Nothing.
    Idle = 0,
    /// The agent drains: every arrival wakes it.
    Any = ANY,
}

// A link's state byte: where the front entry is, how many entries the
// ring holds (0–2, in units of `LEN`), whether an arrival counts for its
// owner's round (`COUNT`) or wakes its drain (`ANY`), and whether its
// inbound side has ended. One load answers every question a delivery or
// a receive asks of the link.
const HEAD: u8 = 1;
const LEN: u8 = 2;
const LENS: u8 = 3 * LEN;
const COUNT: u8 = 8;
const ANY: u8 = 16;
const WAKES: u8 = COUNT | ANY;
const EOF: u8 = 32;

/// One link's FIFO: a ring of up to two buffered entries and its state
/// byte, forty bytes. An entry's fields are kept apart and copied one by
/// one, the widths they were written with, so reading back an entry that
/// was just assembled never stalls on a wider load of narrower stores.
#[derive(Clone, Copy)]
struct SlotFifo {
    e: [f64; 2],
    transfer: [f64; 2],
    settled: [bool; 2],
    kind: [EntryKind; 2],
    state: u8,
}

impl SlotFifo {
    #[inline]
    fn put(&mut self, k: usize, entry: BatchEntry) {
        self.e[k] = entry.e;
        self.transfer[k] = entry.transfer;
        self.settled[k] = entry.settled;
        self.kind[k] = entry.kind;
    }
}

/// The entries buffered for a shard's links, awaiting their agents'
/// receive passes — one two-entry FIFO per link, flat over the links in
/// block slot order — and, per agent, how many links its round still
/// waits on.
///
/// Round-aligned traffic never needs more than two entries. A peer sends
/// its round-`r + 1` entry only after it has heard this agent's round
/// `r`, and its round `r + 2` only after this agent's round `r + 1`,
/// which consumes the round-`r` entry first. Anything past two entries —
/// a peer that sends ahead (only a foreign process can), or traffic onto
/// a slot that a round deadline pruned or left one round behind — goes to
/// an overflow spill in arrival order and moves up as the FIFO drains, so
/// every link stays FIFO. A link has entries in the spill only while its
/// ring is full.
pub struct Inbox {
    fifo: Vec<SlotFifo>,
    /// Per link: the block index of the agent that owns it.
    owner: Vec<u32>,
    /// Per agent: the empty links its round waits on.
    missing: Vec<u32>,
    /// Entries that found their link's FIFO full, as `(link, entry)` in
    /// arrival order.
    spill: Vec<(u32, BatchEntry)>,
}

impl Inbox {
    /// Empty, idle FIFOs for `agents` agents, one per link, for links
    /// owned by `owners` in link order.
    pub fn new(agents: usize, owners: impl IntoIterator<Item = u32>) -> Inbox {
        let owner: Vec<u32> = owners.into_iter().collect();
        let empty = SlotFifo {
            e: [0.0; 2],
            transfer: [0.0; 2],
            settled: [false; 2],
            kind: [EntryKind::Eof; 2],
            state: 0,
        };
        Inbox {
            fifo: vec![empty; owner.len()],
            owner,
            missing: vec![0; agents],
            spill: Vec::new(),
        }
    }

    /// Appends `entry` to `link`'s FIFO. Returns the agent to step, if the
    /// arrival completes the round of the link's owner or wakes its drain.
    #[inline]
    pub fn push(&mut self, link: usize, entry: BatchEntry) -> Option<u32> {
        let f = &mut self.fifo[link];
        let state = f.state;
        if state & LENS == 2 * LEN {
            self.spill.push((link as u32, entry));
        } else {
            // The back of the ring: the front when empty, else the other.
            f.put(usize::from((state ^ (state >> 1)) & HEAD), entry);
            f.state = (state + LEN) & !COUNT;
        }
        self.arrive(link, state)
    }

    /// The peer behind `link` will send nothing more: marks its inbound
    /// side ended. Returns the agent to step, as for
    /// [`push`](Inbox::push), when that fills the link — it was not at
    /// EOF already and nothing is buffered on it.
    pub fn latch_eof(&mut self, link: usize) -> Option<u32> {
        let f = &mut self.fifo[link];
        let state = f.state;
        f.state = (state | EOF) & !COUNT;
        match state & (EOF | LENS) {
            0 => self.arrive(link, state),
            _ => None,
        }
    }

    /// An arrival on `link`, whose state byte was `state` before it (a
    /// count fires once: the arrival's own store cleared it).
    #[inline]
    fn arrive(&mut self, link: usize, state: u8) -> Option<u32> {
        if state & WAKES == 0 {
            return None;
        }
        let owner = self.owner[link];
        if state & ANY != 0 {
            return Some(owner);
        }
        let missing = &mut self.missing[owner as usize];
        *missing -= 1;
        (*missing == 0).then_some(owner)
    }

    /// Whether `link`'s inbound side has ended.
    #[inline]
    pub fn is_eof(&self, link: usize) -> bool {
        self.fifo[link].state & EOF != 0
    }

    /// Makes the next arrival on `link` count for its owner's round, if
    /// nothing is buffered there; returns whether it will, or `None` when
    /// the link is at EOF (and nothing changes). The owner's count is
    /// [`wait_for`](Inbox::wait_for)'s to set.
    #[inline]
    pub fn arm(&mut self, link: usize) -> Option<bool> {
        let f = &mut self.fifo[link];
        let state = f.state;
        if state & EOF != 0 {
            return None;
        }
        let empty = state & LENS == 0;
        f.state = state | if empty { COUNT } else { 0 };
        Some(empty)
    }

    /// Undoes [`arm`](Inbox::arm): no round waits on `link`.
    #[cold]
    pub fn disarm(&mut self, link: usize) {
        self.fifo[link].state &= !COUNT;
    }

    /// Agent `a`'s round waits on the `links` it just armed.
    #[inline]
    pub fn wait_for(&mut self, a: usize, links: u32) {
        self.missing[a] = links;
    }

    /// The empty links agent `a`'s round waits on.
    #[inline]
    pub fn missing(&self, a: usize) -> u32 {
        self.missing[a]
    }

    /// Sets what the next arrival on each of `links` (all owned by agent
    /// `a`) does; the agent's round waits on none of them any more.
    pub fn set_wakes(&mut self, a: usize, links: Range<usize>, wake: Wake) {
        for f in &mut self.fifo[links] {
            f.state = (f.state & !WAKES) | wake as u8;
        }
        self.missing[a] = 0;
    }

    /// Takes the front entry of `link`'s FIFO.
    #[inline]
    pub fn pop(&mut self, link: usize) -> Option<BatchEntry> {
        let f = &mut self.fifo[link];
        let state = f.state;
        if state & LENS == 0 {
            return None;
        }
        let h = usize::from(state & HEAD);
        let front = BatchEntry {
            slot: link as u32,
            e: f.e[h],
            transfer: f.transfer[h],
            settled: f.settled[h],
            kind: f.kind[h],
        };
        f.state = (state ^ HEAD) - LEN;
        if !self.spill.is_empty() && state & LENS == 2 * LEN {
            self.refill(link);
        }
        Some(front)
    }

    /// The oldest spilled entry of `link`, if any, moves up behind its
    /// front.
    #[cold]
    fn refill(&mut self, link: usize) {
        let Some(at) = self.spill.iter().position(|&(l, _)| l as usize == link) else {
            return;
        };
        let (_, next) = self.spill.remove(at);
        let f = &mut self.fifo[link];
        f.put(usize::from((f.state & HEAD) ^ 1), next);
        f.state += LEN;
    }

    /// How many entries `link` holds, ring and spill.
    pub fn buffered(&self, link: usize) -> usize {
        let spilled = self.spill.iter().filter(|&&(l, _)| l as usize == link);
        usize::from((self.fifo[link].state & LENS) / LEN) + spilled.count()
    }
}

#[cfg(test)]
mod tests {
    use super::{Inbox, RingBuf, Wake};
    use crate::wire::{BatchEntry, EntryKind};

    #[test]
    fn inbox_keeps_every_link_fifo_through_the_spill() {
        let entry = |transfer: f64| BatchEntry {
            slot: 0,
            e: -1.0,
            transfer,
            settled: false,
            kind: EntryKind::Data,
        };
        // A 3-path: agent 1 owns links 1 and 2, agent 2 owns link 3.
        let mut inbox = Inbox::new(3, [0, 1, 1, 2]);
        // An entry that arrives before its link is armed: the round finds
        // it buffered and does not wait on the link.
        assert_eq!(inbox.push(3, entry(-0.5)), None);
        assert_eq!(inbox.arm(3), Some(false));
        assert_eq!(inbox.arm(1), Some(true));
        assert_eq!(inbox.arm(2), Some(true));
        inbox.wait_for(1, 2);
        assert_eq!(inbox.missing(1), 2);
        assert_eq!(inbox.push(1, entry(-1.0)), None);
        assert_eq!(inbox.push(1, entry(-2.0)), None, "a count fires once");
        assert_eq!(inbox.missing(1), 1);
        assert_eq!(
            inbox.push(2, entry(-10.0)),
            Some(1),
            "agent 1's round is complete"
        );
        assert_eq!(inbox.arm(2), Some(false), "link 2 has an entry buffered");
        // Links 1 and 2 interleave in the spill.
        for k in 3..=6 {
            assert_eq!(inbox.push(1, entry(-f64::from(k))), None);
            assert_eq!(inbox.buffered(1), k as usize);
            inbox.push(2, entry(-10.0 * f64::from(k)));
        }
        assert_eq!((inbox.pop(0), inbox.is_eof(0)), (None, false));
        let mut heard = Vec::new();
        while let Some(e) = inbox.pop(1) {
            heard.push(e.transfer);
            if heard.len() == 2 {
                inbox.push(1, entry(-7.0));
            }
        }
        assert_eq!(heard, [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0]);
        let first = inbox.pop(2).map(|e| e.transfer);
        assert_eq!(first, Some(-10.0));
        assert_eq!(inbox.pop(2).map(|e| e.transfer), Some(-30.0));
        assert_eq!(inbox.buffered(1), 0);
        // A link that is armed again and never filled stops counting once
        // its arm is undone.
        assert_eq!(inbox.arm(1), Some(true));
        inbox.disarm(1);
        assert_eq!(inbox.push(1, entry(-8.0)), None);
    }

    #[test]
    fn an_eof_on_an_empty_awaited_link_counts_once() {
        let mut inbox = Inbox::new(1, [0, 0]);
        assert_eq!((inbox.arm(0), inbox.arm(1)), (Some(true), Some(true)));
        inbox.wait_for(0, 2);
        assert_eq!(inbox.latch_eof(0), None);
        assert_eq!(inbox.latch_eof(0), None, "a second EOF does not count");
        assert_eq!(inbox.missing(0), 1);
        assert_eq!((inbox.pop(0), inbox.is_eof(0)), (None, true));
        assert_eq!(inbox.arm(0), None, "a link at EOF refuses the round");
        assert_eq!(inbox.latch_eof(1), Some(0));
    }

    #[test]
    fn a_draining_owner_wakes_on_any_arrival() {
        let goodbye = BatchEntry {
            slot: 0,
            e: -1.0,
            transfer: 0.0,
            settled: false,
            kind: EntryKind::Goodbye,
        };
        let mut inbox = Inbox::new(2, [1, 1, 0]);
        inbox.set_wakes(1, 0..2, Wake::Any);
        assert_eq!(inbox.push(0, goodbye), Some(1));
        assert_eq!(inbox.push(0, goodbye), Some(1), "every arrival wakes it");
        assert_eq!(inbox.latch_eof(1), Some(1));
        assert_eq!(inbox.push(2, goodbye), None, "agent 0 is idle");
        inbox.set_wakes(1, 0..2, Wake::Idle);
        assert_eq!(inbox.push(0, goodbye), None);
    }

    #[test]
    fn ring_wraps_and_exposes_two_slices() {
        let mut r = RingBuf::new();
        r.extend_from_slice(&[1u8; 3000]);
        r.consume(2500);
        r.extend_from_slice(&[2u8; 3000]);
        assert_eq!(r.len(), 3500);
        let (a, b) = r.as_slices();
        assert_eq!(a.len() + b.len(), 3500);
        assert!(!b.is_empty(), "3500 live bytes in a 4096 ring must wrap");
        let mut flat: Vec<u8> = a.to_vec();
        flat.extend_from_slice(b);
        assert_eq!(&flat[..500], &[1u8; 500][..]);
        assert_eq!(&flat[500..], &[2u8; 3000][..]);
    }

    #[test]
    fn ring_grows_preserving_order() {
        let mut r = RingBuf::new();
        r.extend_from_slice(&[7u8; 4000]);
        r.consume(3900);
        r.extend_from_slice(&[8u8; 200]);
        // 300 live bytes wrapped; force growth and check linearization.
        let big = vec![9u8; 8000];
        r.extend_from_slice(&big);
        let (a, b) = r.as_slices();
        let mut flat: Vec<u8> = a.to_vec();
        flat.extend_from_slice(b);
        assert_eq!(flat.len(), 100 + 200 + 8000);
        assert_eq!(&flat[..100], &[7u8; 100][..]);
        assert_eq!(&flat[100..300], &[8u8; 200][..]);
        assert_eq!(&flat[300..], &big[..]);
    }
}
