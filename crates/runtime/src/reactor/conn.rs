//! Carrier and link state for the reactor: one byte *carrier* per pair of
//! shards that share an edge — always a nonblocking loopback TCP socket,
//! registered in the owning shard's epoll under its carrier index — one
//! lightweight *link* per agent↔neighbor attachment, riding the carrier to
//! the neighbor's shard — or none, inside one shard — and the [`Inbox`],
//! one two-entry FIFO per link in a flat per-shard array. A one-agent node
//! shard ([`super::host_node`]) is the degenerate case: one carrier, and
//! one link, per graph neighbor.
//!
//! A carrier starts connected and with its peer known (bring-up made it),
//! so it moves round traffic only: [`crate::wire::DataBatch`] frames whose
//! entries are addressed by the *receiving* shard's link index. The shard
//! loop encodes entries straight into the carrier's one outbound buffer
//! (via [`crate::wire::BatchWriter`]), and a flush writes what the kernel
//! has not taken yet from that same buffer, so the steady-state send path
//! allocates and copies nothing.

use crate::wire::{BatchEntry, BatchWriter, EntryKind, Reassembly};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::ops::Range;

/// One shard↔shard byte stream. All round traffic between the two shards'
/// agents is coalesced onto this single stream as batch entries, so the
/// per-round flush cost is O(carriers) — a handful — rather than
/// O(messages).
pub(crate) struct Carrier {
    /// How errors name the peer: `shard K` inside one process, the
    /// socket address when the peer is another process's node shard.
    pub label: String,
    /// The nonblocking loopback stream.
    pub stream: TcpStream,
    /// Outbound frames: `out[sent..]` is not yet accepted by the kernel,
    /// the tail past the last seal is the frame under construction.
    pub out: Vec<u8>,
    /// Bytes of `out` the kernel has accepted.
    pub sent: usize,
    /// Incremental batch encoder over `out`.
    pub writer: BatchWriter,
    /// Registered for `EPOLLOUT` (pending flush).
    pub want_write: bool,
    /// The stream failed or its read side reached EOF; sends are refused.
    pub closed: bool,
    /// Partial-frame reassembly for the inbound byte stream.
    pub reasm: Reassembly,
    /// Inbound stream exhausted (peer shard finished or failed).
    pub eof: bool,
    /// Shard-local links whose inbound rides this carrier (stream-EOF
    /// fan-out on the abort path).
    pub fed_links: Vec<u32>,
}

impl Carrier {
    /// A fresh carrier over `stream` (already nonblocking), naming its
    /// peer `label` in errors.
    pub(crate) fn new(label: String, stream: TcpStream) -> Carrier {
        Carrier {
            label,
            stream,
            out: Vec::new(),
            sent: 0,
            writer: BatchWriter::new(),
            want_write: false,
            closed: false,
            reasm: Reassembly::new(),
            eof: false,
            fed_links: Vec::new(),
        }
    }

    /// Label used in errors.
    pub(crate) fn peer_label(&self) -> String {
        self.label.clone()
    }

    /// Seals the open frame, if any, and writes the unsent bytes
    /// `out[sent..]` until the kernel stops taking them or the stream
    /// fails (then the carrier is closed). Returns whether bytes are left
    /// for a later flush. The buffer empties once all of it is sent; a
    /// sent prefix longer than what is left is compacted away — only here,
    /// after the seal, so no open frame's header offset moves, and at most
    /// one copy per byte however slowly the peer reads.
    pub(super) fn flush(&mut self) -> bool {
        self.writer.seal(&mut self.out);
        while self.sent < self.out.len() && !self.closed {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => self.closed = true,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.closed = true,
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        } else if self.sent > self.out.len() / 2 {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
        self.sent < self.out.len() && !self.closed
    }
}

/// One agent↔neighbor attachment. Links own no byte streams: a cross-shard
/// link's traffic rides the carrier connecting the two owning shards, an
/// intra-shard link's is written straight into the [`Inbox`] FIFO of the
/// receiving link. Links are laid out in the shard block's slot order, so
/// agent `a`'s slot `k` is link `block.slots(a).start + k`; whether a
/// link's inbound side has ended is [`Inbox`] state.
#[derive(Clone, Copy)]
pub(crate) struct Link {
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
pub(crate) enum Wake {
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
pub(crate) struct Inbox {
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
    pub(crate) fn new(agents: usize, owners: impl IntoIterator<Item = u32>) -> Inbox {
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
    pub(crate) fn push(&mut self, link: usize, entry: BatchEntry) -> Option<u32> {
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
    pub(crate) fn latch_eof(&mut self, link: usize) -> Option<u32> {
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
    pub(crate) fn is_eof(&self, link: usize) -> bool {
        self.fifo[link].state & EOF != 0
    }

    /// Makes the next arrival on `link` count for its owner's round, if
    /// nothing is buffered there; returns whether it will, or `None` when
    /// the link is at EOF (and nothing changes). The owner's count is
    /// [`wait_for`](Inbox::wait_for)'s to set.
    #[inline]
    pub(crate) fn arm(&mut self, link: usize) -> Option<bool> {
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
    pub(crate) fn disarm(&mut self, link: usize) {
        self.fifo[link].state &= !COUNT;
    }

    /// Agent `a`'s round waits on the `links` it just armed.
    #[inline]
    pub(crate) fn wait_for(&mut self, a: usize, links: u32) {
        self.missing[a] = links;
    }

    /// The empty links agent `a`'s round waits on.
    #[inline]
    pub(crate) fn missing(&self, a: usize) -> u32 {
        self.missing[a]
    }

    /// Sets what the next arrival on each of `links` (all owned by agent
    /// `a`) does; the agent's round waits on none of them any more.
    pub(crate) fn set_wakes(&mut self, a: usize, links: Range<usize>, wake: Wake) {
        for f in &mut self.fifo[links] {
            f.state = (f.state & !WAKES) | wake as u8;
        }
        self.missing[a] = 0;
    }

    /// Takes the front entry of `link`'s FIFO.
    #[inline]
    pub(crate) fn pop(&mut self, link: usize) -> Option<BatchEntry> {
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
    pub(crate) fn buffered(&self, link: usize) -> usize {
        let spilled = self.spill.iter().filter(|&&(l, _)| l as usize == link);
        usize::from((self.fifo[link].state & LENS) / LEN) + spilled.count()
    }
}

#[cfg(test)]
mod tests {
    use super::{Carrier, Inbox, Wake};
    use crate::wire::{BatchEntry, EntryKind, Frame, Reassembly};
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn a_carrier_keeps_its_unsent_bytes_across_short_writes() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dial = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        dial.set_nonblocking(true).unwrap();
        let mut c = Carrier::new("peer".to_string(), dial);
        let entry = |k: u32| BatchEntry {
            slot: k,
            e: -1.0,
            transfer: -f64::from(k),
            settled: false,
            kind: EntryKind::Data,
        };
        // Rounds of 4 096 entries, each flushed, until the peer's unread
        // bytes fill the kernel's buffers and three flushes come up short:
        // the later rounds land behind the unsent tail, and the flushes
        // that follow compact the sent prefix as the peer reads.
        let mut pushed = 0u32;
        let mut round = 0;
        let mut short = 0;
        while short < 3 {
            round += 1;
            for _ in 0..4_096 {
                c.writer.push(&mut c.out, round, entry(pushed), true);
                pushed += 1;
            }
            if c.flush() {
                short += 1;
            } else {
                assert!(
                    c.out.is_empty() && c.sent == 0,
                    "a full write empties the buffer"
                );
            }
        }
        let reader = std::thread::spawn(move || {
            let mut reasm = Reassembly::new();
            let mut buf = vec![0u8; 1 << 16];
            let mut heard = Vec::new();
            loop {
                let n = peer.read(&mut buf).unwrap();
                if n == 0 {
                    return heard;
                }
                reasm.push(&buf[..n]);
                while let Some(Frame::Batch(batch)) = reasm.next_frame().unwrap() {
                    heard.extend(
                        batch
                            .entries
                            .iter()
                            .map(|e| (batch.round, e.slot, e.transfer)),
                    );
                }
            }
        });
        while c.flush() {
            std::thread::yield_now();
        }
        assert!(!c.closed);
        c.stream.shutdown(std::net::Shutdown::Write).unwrap();
        let heard = reader.join().unwrap();
        assert_eq!(heard.len(), pushed as usize);
        for (k, &(r, slot, transfer)) in heard.iter().enumerate() {
            assert_eq!(
                (r, slot, transfer),
                (k as u32 / 4_096 + 1, k as u32, -(k as f64))
            );
        }
    }

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
}
