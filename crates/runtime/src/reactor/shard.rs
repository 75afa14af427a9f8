//! One poller shard: an epoll loop owning a contiguous range of agents as
//! one [`AgentCore`] block, their links and inbox FIFOs, the carriers that
//! connect it to other shards, and two kinds of deadline.
//!
//! Bring-up hands the loop connected carriers whose peers are known, so
//! every agent starts its first round at once and any scalar frame on a
//! carrier is a protocol error. The loop body is: wait (bounded by the
//! nearest deadline) → ingest carrier bytes into per-carrier reassembly
//! buffers → route decoded batch entries into their links' inbox FIFOs →
//! step every agent whose round inputs are complete, writing each entry
//! for an agent on this shard straight into the receiving link's FIFO →
//! flush staged outbound bytes, one write per carrier → fire the due
//! deadlines.
//!
//! An agent steps round `r` only when every awaited slot has a buffered
//! entry (or a link-level EOF). Each agent keeps a count of the awaited
//! slots still missing one: set when it sends its round, decremented by
//! the delivery or EOF that fills a slot, and the agent is queued to step
//! when it reaches zero — so a delivery is one FIFO write and one
//! decrement, and no agent is ever woken to find its round incomplete.
//! The receive pass consumes the entries in slot order, so the values
//! computed are independent of the order entries happened to arrive in,
//! which is what makes reactor runs bitwise-identical to the lockstep
//! reference — whether the shard hosts a slice of a cluster inside one
//! process or a single agent whose carriers are the sockets to other
//! processes ([`super::host_node`]).
//!
//! The hot path allocates nothing: an intra-shard entry is written as a
//! value into the receiving link's FIFO, a cross-shard one encodes
//! straight into its carrier's outbound buffer through a [`BatchWriter`],
//! and inbound batches decode into one reused [`DataBatch`] scratch. No
//! agent pays a clock read per round: the round check looks at the stalled
//! agents only when it fires.
//!
//! The deadlines are two plain fields. One shard-level round check, an
//! `Option<Instant>`, covers every stalled agent. Each draining agent's
//! quiet period is a `(deadline, agent)` entry in a FIFO: every quiet
//! period has the same length, so the entries expire in the order they
//! were pushed, and an entry is stale when its agent has a later one
//! queued (an absorbed entry restarted the period).
//!
//! What an entry *means* is the block's business: the shard re-addresses
//! the entries the block stages, delivers them, and hands inbound ones
//! back to `receive` / `drain`. The one kind it looks at is `Eof`, the
//! in-band link-level FIN — transport, not protocol.

use super::conn::{Carrier, Inbox, Link, Wake};
use super::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::agent::AgentCore;
use crate::error::RuntimeError;
use crate::node::NodeReport;
use crate::wire::{BatchEntry, DataBatch, EntryKind, FrameKind};
use std::collections::VecDeque;
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where an agent is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Ready to compute and send the next round.
    NeedSend,
    /// Round sent; waiting for every live slot's entry.
    AwaitFrames,
    /// Goodbyes sent; absorbing in-flight entries.
    Draining,
    /// Report folded.
    Done,
}

/// Everything one shard thread owns.
pub(crate) struct Shard {
    /// Shard index (thread name, diagnostics).
    pub id: usize,
    /// This shard's epoll instance; a carrier's token is its index.
    pub epoll: Epoll,
    /// The hosted agents' protocol state, block index = agent index.
    pub block: AgentCore,
    /// All links of hosted agents, in block slot order.
    pub links: Vec<Link>,
    /// Byte carriers: one socket per peer shard this shard exchanges
    /// traffic with (intra-shard edges need none).
    pub carriers: Vec<Carrier>,
    /// How long a hosted agent waits out a frame-starved round, and
    /// (capped at 100 ms) a draining agent's quiet period.
    pub round_timeout: Duration,
    /// Coalesce cross-shard round traffic into multi-entry batches
    /// (`false` seals a single-entry frame per message — the bench
    /// comparison mode). Intra-shard entries are never framed.
    pub coalesce: bool,
    /// Set by any shard (or the driver) to abandon the run.
    pub abort: Arc<std::sync::atomic::AtomicBool>,
}

/// The shard loop's working state.
struct Loop {
    /// Per agent: where it is in its lifecycle.
    phase: Vec<Phase>,
    /// Per agent: the round a round check last saw it stalled in, and
    /// when that check first saw it stalled there.
    stall_seen: Vec<Option<(usize, Instant)>>,
    /// When the armed round check fires.
    round_check: Option<Instant>,
    /// Draining agents' quiet-period deadlines, `(deadline, agent)` in
    /// the order they were pushed, which is deadline order.
    drains: VecDeque<(Instant, u32)>,
    /// Agents queued to step, one bit per block index.
    queued: Vec<u64>,
    /// Bits set in `queued`.
    n_queued: usize,
    /// Same-shard links to latch at EOF once no agent can advance.
    eofs: Vec<u32>,
    /// The entries buffered on every link.
    inbox: Inbox,
    done: usize,
    /// A round has run on its deadline with entries missing, so a peer
    /// can be a round ahead of a link's consumer.
    forced: bool,
    /// Socket read buffer.
    scratch: Vec<u8>,
    /// Inbound batch decode scratch, reused across every frame.
    batch: DataBatch,
}

/// Runs the shard to completion: every hosted agent reports, a protocol
/// error aborts the whole run, or the abort flag stops the loop early
/// (another shard failed).
///
/// # Errors
///
/// First [`RuntimeError`] hit by any hosted carrier or agent.
pub(crate) fn run_shard(mut shard: Shard) -> Result<Vec<(usize, NodeReport)>, RuntimeError> {
    let n_agents = shard.block.len();
    let mut lp = Loop {
        phase: vec![Phase::NeedSend; n_agents],
        stall_seen: vec![None; n_agents],
        round_check: None,
        drains: VecDeque::new(),
        queued: vec![0; n_agents.div_ceil(64)],
        n_queued: 0,
        eofs: Vec::new(),
        inbox: Inbox::new(
            n_agents,
            (0..n_agents).flat_map(|a| shard.block.slots(a).map(move |_| a as u32)),
        ),
        done: 0,
        forced: false,
        scratch: vec![0u8; 64 * 1024],
        batch: DataBatch::default(),
    };
    // Every agent starts its first round at once.
    for a in 0..n_agents as u32 {
        queue_step(&mut lp, a);
    }

    // The block is borrowed beside the shard, so a delivery can reach the
    // shard's links while the block hands out an agent's entries.
    let mut block = std::mem::take(&mut shard.block);
    let result = drive(&mut shard, &mut block, &mut lp, n_agents);
    if result.is_err() {
        shard.abort.store(true, Ordering::Release);
    }
    // Seal, flush, and close every outbound carrier — on success so peers
    // see orderly EOF after the in-flight frames, on failure so peer
    // shards observe closed streams instead of waiting out their failure
    // detectors.
    teardown(&mut shard);
    result?;
    // A finished agent's row is final; an abort leaves some unfinished.
    let finished = lp.phase.iter().map(|&phase| phase == Phase::Done);
    let reports = block.into_reports().into_iter().zip(finished);
    Ok(reports
        .filter(|(_, done)| *done)
        .map(|(r, _)| (r.node, r))
        .collect())
}

fn drive(
    shard: &mut Shard,
    block: &mut AgentCore,
    lp: &mut Loop,
    n_agents: usize,
) -> Result<(), RuntimeError> {
    // Register every carrier's socket under its index.
    for (ci, c) in shard.carriers.iter().enumerate() {
        shard
            .epoll
            .add(c.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, ci as u64)
            .map_err(|source| RuntimeError::Io {
                peer: c.peer_label(),
                source,
            })?;
    }

    let mut events = vec![EpollEvent::default(); 512];
    loop {
        pump(shard, block, lp)?;
        if lp.done == n_agents {
            return Ok(());
        }
        if shard.abort.load(Ordering::Acquire) {
            return Ok(());
        }

        let now = Instant::now();
        let next = lp.drains.front().map(|&(deadline, _)| deadline);
        let timeout_ms = match lp.round_check.into_iter().chain(next).min() {
            Some(wake) => wake
                .saturating_duration_since(now)
                .as_millis()
                .clamp(1, 100) as i32,
            None => 100,
        };
        let n = shard
            .epoll
            .wait(&mut events, timeout_ms)
            .map_err(|source| RuntimeError::Io {
                peer: format!("shard {}", shard.id),
                source,
            })?;
        for ev in events.iter().take(n).copied() {
            handle_conn_event(shard, lp, ev.data as usize, ev.events)?;
        }
        fire_timers(shard, block, lp)?;
    }
}

/// Sweeps the queued agents, again and again, until no agent can advance
/// — then flushes every carrier in one write each. Intra-shard entries are
/// delivered as they are staged, so a one-shard run completes every round
/// inside one pump.
fn pump(shard: &mut Shard, block: &mut AgentCore, lp: &mut Loop) -> Result<(), RuntimeError> {
    loop {
        if lp.n_queued == 0 {
            // A same-shard EOF lands only now, when nothing on the shard
            // can happen without it, so the path by which a neighbor of
            // an agent that left reclaims its transfer does not depend on
            // the order agents were stepped in.
            while let Some(link_idx) = lp.eofs.pop() {
                latch_eof(lp, link_idx as usize);
            }
            if lp.n_queued == 0 {
                break;
            }
        }
        sweep_agents(shard, block, lp)?;
    }
    flush_cross(shard);
    Ok(())
}

/// Steps the queued agents in block order. An agent queued ahead of the
/// cursor steps in this sweep, one queued behind it in the next, so in
/// steady state a sweep is one round of the shard that walks the block's
/// columns front to back.
fn sweep_agents(
    shard: &mut Shard,
    block: &mut AgentCore,
    lp: &mut Loop,
) -> Result<(), RuntimeError> {
    let mut next = 0;
    while next < block.len() {
        let word = next / 64;
        let ahead = lp.queued[word] & (u64::MAX << (next % 64));
        if ahead == 0 {
            next = (word + 1) * 64;
            continue;
        }
        let a = word * 64 + ahead.trailing_zeros() as usize;
        lp.queued[word] &= !(1 << (a % 64));
        lp.n_queued -= 1;
        step_agent(shard, block, lp, a as u32)?;
        next = a + 1;
    }
    Ok(())
}

/// Queues `agent` to step in the next sweep that reaches it.
fn queue_step(lp: &mut Loop, agent: u32) {
    let (word, bit) = (agent as usize / 64, 1 << (agent % 64));
    if lp.queued[word] & bit == 0 {
        lp.queued[word] |= bit;
        lp.n_queued += 1;
    }
}

/// Pops every complete frame out of a carrier's reassembly buffer and
/// routes its batch entries into their links' FIFOs; a scalar frame has no
/// place on an established carrier.
fn route_carrier(shard: &mut Shard, lp: &mut Loop, ci: usize) -> Result<(), RuntimeError> {
    loop {
        let mut batch = std::mem::take(&mut lp.batch);
        let next = shard.carriers[ci].reasm.next_frame_into(&mut batch);
        lp.batch = batch;
        match next {
            Ok(None) => return Ok(()),
            Err(source) => {
                return Err(RuntimeError::Decode {
                    peer: shard.carriers[ci].peer_label(),
                    source,
                })
            }
            Ok(Some(FrameKind::Batch)) => {
                for k in 0..lp.batch.entries.len() {
                    let entry = lp.batch.entries[k];
                    route_entry(shard, lp, ci, entry)?;
                }
            }
            Ok(Some(FrameKind::Msg(msg))) => {
                return Err(RuntimeError::Protocol {
                    peer: shard.carriers[ci].peer_label(),
                    got: msg.kind(),
                })
            }
        }
    }
}

/// Delivers one decoded entry to the link it addresses, which must ride this carrier.
fn route_entry(
    shard: &mut Shard,
    lp: &mut Loop,
    ci: usize,
    entry: BatchEntry,
) -> Result<(), RuntimeError> {
    let slot = entry.slot as usize;
    if slot >= shard.links.len() || shard.links[slot].carrier != Some(ci as u32) {
        return Err(RuntimeError::Protocol {
            peer: shard.carriers[ci].peer_label(),
            got: "misrouted-batch-entry",
        });
    }
    if entry.kind == EntryKind::Eof {
        latch_eof(lp, slot);
    } else {
        deliver(shard, lp, slot, entry);
    }
    Ok(())
}

/// Writes one round entry into the FIFO of shard-local link `link_idx`,
/// queueing the owner if that completes its round or wakes its drain.
#[inline]
fn deliver(shard: &mut Shard, lp: &mut Loop, link_idx: usize, entry: BatchEntry) {
    debug_assert!(
        lp.inbox.buffered(link_idx) < 2 || shard.links[link_idx].carrier.is_some() || lp.forced,
        "benign same-shard traffic never buffers more than two entries on a link"
    );
    if let Some(a) = lp.inbox.push(link_idx, entry) {
        queue_step(lp, a);
    }
}

/// The peer behind a link will send nothing more: mark its inbound side
/// ended, which fills the link if nothing is buffered on it.
fn latch_eof(lp: &mut Loop, link_idx: usize) {
    if let Some(a) = lp.inbox.latch_eof(link_idx) {
        queue_step(lp, a);
    }
}

/// Sets what an arrival on each link of agent `i` does.
fn set_wakes(block: &AgentCore, lp: &mut Loop, i: usize, wake: Wake) {
    lp.inbox.set_wakes(i, block.slots(i), wake);
}

/// The whole inbound stream of a carrier ended (peer shard finished or
/// died): every link riding it is at EOF.
fn carrier_stream_eof(shard: &mut Shard, lp: &mut Loop, ci: usize) {
    if shard.carriers[ci].eof {
        return;
    }
    shard.carriers[ci].eof = true;
    for i in 0..shard.carriers[ci].fed_links.len() {
        let link_idx = shard.carriers[ci].fed_links[i] as usize;
        latch_eof(lp, link_idx);
    }
}

/// Sends one batch entry out on link `link_idx`, which is not at EOF,
/// to the receiving link: written in place when the receiver is on this
/// shard (an EOF waits in `eofs`), staged on the link's carrier
/// otherwise. Returns `false` when the carrier is closed; with a link at
/// EOF that is how a link is provably dead, and the caller reclaims the
/// transfer the entry carried. A staged entry counts as delivered,
/// exactly like a buffered socket write.
#[inline]
fn send_entry(
    shard: &mut Shard,
    lp: &mut Loop,
    link_idx: usize,
    round: u32,
    entry: BatchEntry,
) -> bool {
    let link = shard.links[link_idx];
    match link.carrier {
        None if entry.kind == EntryKind::Eof => lp.eofs.push(link.peer_slot),
        None => deliver(shard, lp, link.peer_slot as usize, entry),
        Some(ci) => {
            let entry = BatchEntry {
                slot: link.peer_slot,
                ..entry
            };
            return stage_on_carrier(shard, ci as usize, round, entry);
        }
    }
    true
}

/// Stages an entry on carrier `ci`; `false` when the carrier is closed.
#[inline(never)]
fn stage_on_carrier(shard: &mut Shard, ci: usize, round: u32, entry: BatchEntry) -> bool {
    let c = &mut shard.carriers[ci];
    if c.closed {
        return false;
    }
    c.writer.push(&mut c.out, round, entry, shard.coalesce);
    true
}

/// Moves every carrier's unsent bytes to its socket in one write. This —
/// not per-message writes — is what makes the per-round wire cost
/// O(carriers).
fn flush_cross(shard: &mut Shard) {
    for ci in 0..shard.carriers.len() {
        let c = &shard.carriers[ci];
        if c.sent < c.out.len() {
            flush_conn(shard, ci);
        }
    }
}

/// Flushes carrier `ci`; arms `EPOLLOUT` while bytes are left over.
fn flush_conn(shard: &mut Shard, ci: usize) {
    let c = &mut shard.carriers[ci];
    let want = c.flush();
    if want != c.want_write {
        c.want_write = want;
        let interest = if want {
            EPOLLIN | EPOLLRDHUP | EPOLLOUT
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        let _ = shard
            .epoll
            .modify(c.stream.as_raw_fd(), interest, ci as u64);
    }
}

fn handle_conn_event(
    shard: &mut Shard,
    lp: &mut Loop,
    ci: usize,
    events: u32,
) -> Result<(), RuntimeError> {
    if events & EPOLLOUT != 0 {
        flush_conn(shard, ci);
    }
    if events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
        let mut saw_eof = events & (EPOLLERR | EPOLLHUP) != 0;
        loop {
            let c = &mut shard.carriers[ci];
            if c.closed {
                break;
            }
            match std::io::Read::read(&mut c.stream, &mut lp.scratch) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    c.reasm.push(&lp.scratch[..n]);
                    route_carrier(shard, lp, ci)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    saw_eof = true;
                    break;
                }
            }
        }
        if saw_eof {
            let c = &mut shard.carriers[ci];
            if !c.closed {
                c.closed = true;
                let _ = shard.epoll.delete(c.stream.as_raw_fd());
            }
            carrier_stream_eof(shard, lp, ci);
        }
    }
    Ok(())
}

/// Advances one agent as far as buffered input allows.
fn step_agent(
    shard: &mut Shard,
    block: &mut AgentCore,
    lp: &mut Loop,
    a: u32,
) -> Result<(), RuntimeError> {
    let i = a as usize;
    loop {
        match lp.phase[i] {
            Phase::Done => return Ok(()),
            Phase::NeedSend => {
                if !block.rounds_remaining(i) {
                    finish_agent(shard, block, lp, a);
                    return Ok(());
                }
                block.begin_round(i);
                send_round(shard, block, lp, i);
                lp.phase[i] = Phase::AwaitFrames;
                if lp.inbox.missing(i) > 0 {
                    if lp.round_check.is_none() {
                        // The check this stall arms sees it from now on.
                        let now = arm_round_check(shard, lp);
                        lp.stall_seen[i] = Some((block.rounds(i), now));
                    }
                    return Ok(());
                }
            }
            Phase::AwaitFrames => {
                if lp.inbox.missing(i) > 0 {
                    return Ok(());
                }
                receive_round(shard, block, lp, a, false);
            }
            Phase::Draining => {
                absorb_drain(shard, block, lp, a);
                return Ok(());
            }
        }
    }
}

/// Sends agent `i`'s round and arms the wakes of its receive pass: each
/// link its round went out on waits for the peer's entry of the same
/// round, unless that entry is buffered already. Every other link is idle
/// (an agent's wakes are idle whenever it is not waiting or draining).
fn send_round(shard: &mut Shard, block: &mut AgentCore, lp: &mut Loop, i: usize) {
    let round = block.rounds(i) as u32;
    let base = block.slots(i).start;
    // No entry of this pass lands on agent `i`'s own links, so each is
    // armed before its entry goes out, and the count set once, after it.
    let mut missing = 0;
    block.send(i, |entry| {
        let link_idx = base + entry.slot as usize;
        let Some(armed) = lp.inbox.arm(link_idx) else {
            return false;
        };
        let delivered = send_entry(shard, lp, link_idx, round, entry);
        match delivered {
            true => missing += u32::from(armed),
            false => lp.inbox.disarm(link_idx),
        }
        delivered
    });
    lp.inbox.wait_for(i, missing);
}

/// Delivers the goodbyes agent `a` has staged.
fn send_goodbyes(shard: &mut Shard, block: &mut AgentCore, lp: &mut Loop, a: u32) {
    let i = a as usize;
    let round = block.rounds(i) as u32;
    let base = block.slots(i).start;
    block.send(i, |entry| {
        let link_idx = base + entry.slot as usize;
        !lp.inbox.is_eof(link_idx) && send_entry(shard, lp, link_idx, round, entry)
    });
}

/// The slot-ordered receive pass; `force` lets it run with entries
/// missing, which the block counts as silent rounds (the round-deadline
/// path — never taken in healthy runs).
#[inline]
fn receive_round(shard: &mut Shard, block: &mut AgentCore, lp: &mut Loop, a: u32, force: bool) {
    let i = a as usize;
    let base = block.slots(i).start;
    block.receive_round(i, |slot| {
        let entry = lp.inbox.pop(base + slot);
        let eof = entry.is_none() && lp.inbox.is_eof(base + slot);
        debug_assert!(
            force || entry.is_some() || eof,
            "receive pass ran without a full round buffered"
        );
        (entry, eof)
    });
    if block.end_round(i) {
        start_drain(shard, block, lp, a);
    } else {
        lp.phase[i] = Phase::NeedSend;
    }
}

/// Agent `a` reached convergence quorum: its goodbyes go out and it
/// drains.
#[inline(never)]
fn start_drain(shard: &mut Shard, block: &mut AgentCore, lp: &mut Loop, a: u32) {
    send_goodbyes(shard, block, lp, a);
    lp.phase[a as usize] = Phase::Draining;
    set_wakes(block, lp, a as usize, Wake::Any);
    arm_drain_timer(shard, lp, a);
    absorb_drain(shard, block, lp, a);
}

/// (Re)starts agent `a`'s quiet period: its entry goes to the back of the
/// FIFO, and any earlier one of `a` is stale from now on.
fn arm_drain_timer(shard: &Shard, lp: &mut Loop, a: u32) {
    let quiet = shard.round_timeout.min(Duration::from_millis(100));
    lp.drains.push_back((Instant::now() + quiet, a));
}

/// Hands buffered lame-duck entries to the block's drain and closes the
/// slots whose link reached EOF; finishes the agent once the block says
/// every slot is closed.
fn absorb_drain(shard: &mut Shard, block: &mut AgentCore, lp: &mut Loop, a: u32) {
    let i = a as usize;
    let mut absorbed = false;
    for (slot, link_idx) in block.slots(i).enumerate() {
        while let Some(entry) = lp.inbox.pop(link_idx) {
            absorbed |= block.drain(i, slot, entry);
        }
        if lp.inbox.is_eof(link_idx) {
            block.close_drain(i, slot);
        }
    }
    if absorbed {
        // An entry restarts the quiet period.
        arm_drain_timer(shard, lp, a);
    }
    if block.drain_done(i) {
        finish_agent(shard, block, lp, a);
    }
}

/// Marks the agent done — its row of the block is its final report — and
/// announces its departure: one EOF entry per link, in place inside the
/// shard, else in band after the frames already staged — the carrier
/// itself stays open for its other agents.
fn finish_agent(shard: &mut Shard, block: &AgentCore, lp: &mut Loop, a: u32) {
    let i = a as usize;
    lp.phase[i] = Phase::Done;
    set_wakes(block, lp, i, Wake::Idle);
    lp.done += 1;
    let round = block.rounds(i) as u32;
    let eof = BatchEntry {
        slot: 0,
        e: 0.0,
        transfer: 0.0,
        settled: false,
        kind: EntryKind::Eof,
    };
    for link_idx in block.slots(i) {
        if !lp.inbox.is_eof(link_idx) {
            send_entry(shard, lp, link_idx, round, eof);
        }
    }
}

/// Seals and flushes every carrier's remaining bytes, then shuts the
/// outbound side (drain then FIN). The tails fall back to bounded blocking
/// writes so goodbye/EOF frames are not lost when the loop is no longer
/// around to answer `EPOLLOUT`.
fn teardown(shard: &mut Shard) {
    for c in &mut shard.carriers {
        if c.closed {
            continue;
        }
        let _ = c.stream.set_nonblocking(false);
        let _ = c.stream.set_write_timeout(Some(Duration::from_secs(2)));
        c.flush();
        let _ = c.stream.shutdown(Shutdown::Write);
    }
}

/// One shard-level round check covers every stalled agent: per-agent
/// deadlines would arm thousands of timers per sweep for no benefit, since
/// the deadline only matters on the (rare) faulty path. The check runs
/// every round timeout while an agent stalls, and an agent it sees stalled
/// in the same round as a check at least a round timeout before has its
/// round forced — no agent pays a clock stamp per round. Returns when the
/// check was armed.
fn arm_round_check(shard: &Shard, lp: &mut Loop) -> Instant {
    let now = Instant::now();
    lp.round_check = Some(now + shard.round_timeout);
    now
}

/// Whether agent `a` waits out a frame-starved round.
fn stalled(lp: &Loop, a: usize) -> bool {
    lp.phase[a] == Phase::AwaitFrames && lp.inbox.missing(a) > 0
}

/// Runs the round check and ends the quiet periods that are due.
fn fire_timers(
    shard: &mut Shard,
    block: &mut AgentCore,
    lp: &mut Loop,
) -> Result<(), RuntimeError> {
    let now = Instant::now();
    if lp.round_check.is_some_and(|due| due <= now) {
        lp.round_check = None;
        for a in 0..block.len() as u32 {
            let i = a as usize;
            if !stalled(lp, i) {
                continue;
            }
            let round = block.rounds(i);
            let since = match lp.stall_seen[i] {
                Some((seen, since)) if seen == round => since,
                _ => {
                    lp.stall_seen[i] = Some((round, now));
                    continue;
                }
            };
            if now.saturating_duration_since(since) >= shard.round_timeout {
                lp.forced = true;
                // The links still counting will fill after the round they
                // were armed for.
                set_wakes(block, lp, i, Wake::Idle);
                receive_round(shard, block, lp, a, true);
                queue_step(lp, a);
            }
        }
        pump(shard, block, lp)?;
        if lp.round_check.is_none() && (0..block.len()).any(|a| stalled(lp, a)) {
            arm_round_check(shard, lp);
        }
    }
    while let Some(&(due, a)) = lp.drains.front() {
        if due > now {
            break;
        }
        lp.drains.pop_front();
        let i = a as usize;
        if lp.phase[i] != Phase::Draining || lp.drains.iter().any(|&(_, b)| b == a) {
            continue;
        }
        // Quiet period elapsed: close every slot still open.
        for slot in 0..block.degree(i) {
            block.close_drain(i, slot);
        }
        let done = block.drain_done(i);
        debug_assert!(done, "every drain slot was just closed");
        finish_agent(shard, block, lp, a);
    }
    Ok(())
}
