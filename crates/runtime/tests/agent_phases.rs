//! [`AgentCore`] blocks stepped by hand, phase by phase, with no driver.
//!
//! The block is the whole protocol, so its rules are checked where they
//! live: what it stages, how it answers each delivery outcome, what each
//! inbound entry does to `(e, links)`, and when the drain is done. A test
//! about one agent drives a block of one; the four-node path is one block
//! of four. The agents here run a degenerate solver — `step_power = 0`, so `p` never
//! moves, and residuals that are small dyadic rationals, so every
//! transfer and every sum is exact — which lets conservation be asserted
//! to the bit instead of to a tolerance.

use dpc_alg::diba::NodeParams;
use dpc_models::units::Watts;
use dpc_models::QuadraticUtility;
use dpc_runtime::agent::AgentCore;
use dpc_runtime::node::{NodeReport, NodeSpec};
use dpc_runtime::wire::{BatchEntry, EntryKind};

/// A node whose power is frozen (`step_power = 0`) and whose transfers
/// are `(e − eⱼ) / (2·degree)` when negative: exact on dyadic residuals.
/// It counts itself settled after `stable_rounds` rounds, since `dp = 0`
/// every round.
fn spec(id: usize, e: f64, stable_rounds: usize) -> NodeSpec {
    NodeSpec {
        id,
        utility: QuadraticUtility::new(0.0, 0.01, -1e-5, Watts(100.0), Watts(200.0)).unwrap(),
        p: 150.0,
        e,
        params: NodeParams {
            eta: 1.0,
            margin: 0.25,
            step_power: 0.0,
            step_transfer: 1.0,
        },
        eta_boost: 1.0,
        settle_tol: 1e-4,
        stable_rounds,
        detect_after: 3,
        max_rounds: 100,
        sample_every: 0,
    }
}

/// A block of the one agent `spec` with neighbors `peers`.
fn one(spec: NodeSpec, peers: &[usize]) -> AgentCore {
    AgentCore::new([(spec, peers)])
}

/// The report agent `a` would fold into right now.
fn peek(block: &AgentCore, a: usize) -> NodeReport {
    block.clone().into_reports().swap_remove(a)
}

/// Hands every entry agent `a` staged to its link, answering for each
/// whether the link took it, and returns them.
fn send(block: &mut AgentCore, a: usize, taken: impl Fn(&BatchEntry) -> bool) -> Vec<BatchEntry> {
    let mut sent = Vec::new();
    block.send(a, |entry| {
        sent.push(entry);
        taken(&entry)
    });
    sent
}

/// [`send`] as a driver whose links are all up would.
fn send_all(block: &mut AgentCore, a: usize) -> Vec<BatchEntry> {
    send(block, a, |_| true)
}

/// The entries agent `a` has staged, in slot order, read off a copy so
/// nothing is sent.
fn staged(block: &AgentCore, a: usize) -> Vec<BatchEntry> {
    send_all(&mut block.clone(), a)
}

/// Agent `a`'s round-slot snapshot.
fn round_slots(block: &AgentCore, a: usize) -> Vec<usize> {
    block.round_slots(a).collect()
}

fn data(e: f64, transfer: f64, settled: bool) -> BatchEntry {
    BatchEntry {
        slot: 0,
        e,
        transfer,
        settled,
        kind: EntryKind::Data,
    }
}

fn heartbeat() -> BatchEntry {
    BatchEntry {
        slot: 0,
        e: 0.0,
        transfer: 0.0,
        settled: true,
        kind: EntryKind::Heartbeat,
    }
}

fn goodbye(e: f64, transfer: f64) -> BatchEntry {
    BatchEntry {
        slot: 0,
        e,
        transfer,
        settled: false,
        kind: EntryKind::Goodbye,
    }
}

/// One round of a block of one in which every link is up and each
/// neighbor answers with `inbound[slot]`.
fn round(core: &mut AgentCore, inbound: &[BatchEntry]) -> bool {
    core.begin_round(0);
    send_all(core, 0);
    for (slot, entry) in inbound.iter().enumerate() {
        core.receive(0, slot, Some(*entry), false);
    }
    core.end_round(0)
}

/// The path 0 – 1 – 2 – 3 through four rounds that between them take
/// every road mass can travel: delivered entries, a node that exits
/// without a goodbye while an entry for it is already on the link, a
/// quorum goodbye, and a lame-duck drain that absorbs a straggler. Σe —
/// the cores', the departed node's — plus the transfers in flight is the
/// same bit pattern at every checkpoint.
#[test]
fn mass_is_conserved_to_the_bit_through_every_phase() {
    // 0 counts itself settled at once and reaches quorum as soon as 1
    // says the same, in round 3; 2 never settles, which keeps 1 running.
    let mut path = AgentCore::new([
        (spec(0, -16.0, 1), &[1][..]),
        (spec(1, -4.0, 3), &[0, 2][..]),
        (spec(2, -8.0, 50), &[1, 3][..]),
        (spec(3, -2.0, 50), &[2][..]),
    ]);
    let total = -30.0f64;
    let check = |path: &AgentCore, agents: &[usize], departed: f64, in_flight: &[f64], at: &str| {
        let held: f64 = agents.iter().map(|&a| peek(path, a).e).sum();
        let now = held + departed + in_flight.iter().sum::<f64>();
        assert_eq!(now.to_bits(), total.to_bits(), "{at}: {now} != {total}");
    };
    check(&path, &[0, 1, 2, 3], 0.0, &[], "launch");

    // Rounds 1 and 2, every entry delivered. A node's first view of a
    // neighbor is its own residual, so round 1 moves nothing; round 2
    // moves slack toward node 1, which has the least.
    for r in 1..=2 {
        let sent: Vec<Vec<BatchEntry>> = (0..4)
            .map(|a| {
                path.begin_round(a);
                send_all(&mut path, a)
            })
            .collect();
        let flying: Vec<f64> = sent
            .iter()
            .flat_map(|o| o.iter().map(|entry| entry.transfer))
            .collect();
        check(&path, &[0, 1, 2, 3], 0.0, &flying, "sent");
        if r == 2 {
            assert_eq!(flying, [-6.0, 0.0, 0.0, -1.0, -1.5, 0.0]);
        }
        let (o0, o1, o2, o3) = (&sent[0], &sent[1], &sent[2], &sent[3]);
        path.receive(0, 0, Some(o1[0]), false);
        path.receive(1, 0, Some(o0[0]), false);
        path.receive(1, 1, Some(o2[0]), false);
        path.receive(2, 0, Some(o1[1]), false);
        path.receive(2, 1, Some(o3[0]), false);
        path.receive(3, 0, Some(o2[1]), false);
        check(&path, &[0, 1, 2, 3], 0.0, &[], "received");
        for a in 0..4 {
            assert!(!path.end_round(a));
        }
    }
    let residuals = [0, 1, 2, 3].map(|a| peek(&path, a).e);
    assert_eq!(residuals, [-10.0, -11.0, -5.5, -3.5]);

    // Round 3: node 3 is gone, without a goodbye — it is never stepped
    // again. Node 2 has already handed its entry for 3 to the link when it
    // finds nothing coming back and the link closed, and takes the
    // transfer back.
    let left = peek(&path, 3).e;
    let sent: Vec<Vec<BatchEntry>> = (0..3)
        .map(|a| {
            path.begin_round(a);
            send_all(&mut path, a)
        })
        .collect();
    let (o0, o1, o2) = (&sent[0], &sent[1], &sent[2]);
    let owed = o2[1].transfer;
    assert_eq!(owed, -0.875);
    path.receive(0, 0, Some(o1[0]), false);
    path.receive(1, 0, Some(o0[0]), false);
    path.receive(1, 1, Some(o2[0]), false);
    path.receive(2, 0, Some(o1[1]), false);
    check(&path, &[0, 1, 2], left, &[owed], "owed by a dead link");
    path.receive(2, 1, None, true);
    check(&path, &[0, 1, 2], left, &[], "taken back");
    assert!(!path.is_alive(2, 1));
    assert_eq!(peek(&path, 2).pruned, [3]);
    // Node 1's round-3 entry said "settled", and node 0 has been all
    // along: quorum for 0. Not for 1, whose other neighbor is not.
    assert!(path.end_round(0));
    let bye = send_all(&mut path, 0);
    assert!(!path.end_round(1));
    assert!(!path.end_round(2));
    assert_eq!(bye.len(), 1);
    assert_eq!(bye[0].kind, EntryKind::Goodbye);
    check(&path, &[0, 1, 2], left, &[], "goodbye said");

    // Round 4: node 1 sends to 0 before it reads the goodbye queued
    // behind 0's round-3 entry, so 0 absorbs that entry as a lame duck.
    path.begin_round(1);
    let o1 = send_all(&mut path, 1);
    path.begin_round(2);
    assert_eq!(
        round_slots(&path, 2),
        [0],
        "the dead slot is out of the round"
    );
    let o2 = send_all(&mut path, 2);
    let straggler = o1[0].transfer;
    assert_eq!(straggler, -1.4375);
    assert!(path.drain(0, 0, o1[0]));
    assert!(
        !path.drain_done(0),
        "the slot is open until 1 is known to be done"
    );
    path.receive(1, 0, Some(bye[0]), false);
    path.receive(1, 1, Some(o2[0]), false);
    path.receive(2, 0, Some(o1[1]), false);
    assert!(!path.is_alive(1, 0));
    assert!(peek(&path, 1).pruned.is_empty(), "a goodbye is not a prune");
    path.close_drain(0, 0);
    assert!(path.drain_done(0));
    check(&path, &[0, 1, 2], left, &[], "drained");

    let report = path.into_reports().swap_remove(0);
    assert!(report.converged);
    assert_eq!(report.e, -7.25 + straggler);
    assert_eq!(
        (report.rounds, report.msgs_sent, report.msgs_received),
        (3, 4, 4)
    );
}

/// The send side of a closed link: the transfer comes back at once, the
/// peer is listed as pruned, the other entries still go out — and the
/// surviving neighbor, which was sent the residual from before the
/// reclaim, is sent the new one next round instead of a heartbeat.
#[test]
fn a_send_that_finds_the_link_closed_reclaims_its_transfer() {
    let mut core = one(spec(1, -16.0, 1), &[0, 2]);
    round(&mut core, &[data(-4.0, 0.0, false), data(-4.0, 0.0, false)]);

    core.begin_round(0);
    let out = staged(&core, 0);
    assert_eq!((out[0].transfer, out[1].transfer), (-3.0, -3.0));
    assert_eq!((out[0].e, peek(&core, 0).e), (-10.0, -10.0));
    send(&mut core, 0, |entry| entry.slot != 0);
    assert_eq!(peek(&core, 0).e, -13.0);
    assert_eq!(peek(&core, 0).pruned, [0]);
    assert_eq!(round_slots(&core, 0), [0, 1]);
    assert!(!core.is_alive(0, 0), "the receive pass skips the slot");
    core.receive(0, 1, Some(data(-13.0, 0.0, false)), false);
    core.end_round(0);
    assert_eq!(peek(&core, 0).msgs_sent, 3);

    // Settled, nothing to transfer — but node 2 holds −10, not −13.
    core.begin_round(0);
    let out = staged(&core, 0);
    assert_eq!(out.len(), 1);
    assert_eq!(
        (out[0].kind, out[0].e, out[0].transfer),
        (EntryKind::Data, -13.0, 0.0)
    );
}

/// The receive side: the closure is noticed only after the round's entry
/// went out. The transfer staged for that slot comes back exactly once.
#[test]
fn a_receive_that_finds_the_link_closed_recredits_exactly_once() {
    let mut core = one(spec(1, -16.0, 50), &[0, 2]);
    round(&mut core, &[data(-4.0, 0.0, false), data(-4.0, 0.0, false)]);

    core.begin_round(0);
    let sent = send_all(&mut core, 0);
    assert_eq!((sent[0].transfer, sent[1].transfer), (-3.0, -3.0));
    core.receive(0, 0, Some(data(-4.0, 0.0, false)), false);
    assert_eq!(peek(&core, 0).e, -10.0);
    core.receive(0, 1, None, true);
    assert_eq!(peek(&core, 0).e, -13.0);
    assert_eq!(peek(&core, 0).pruned, [2]);
    core.end_round(0);

    // From here on the slot is out of the round, so nothing can credit it
    // again: the residual plus what node 0 was really given is what the
    // node started with.
    core.begin_round(0);
    assert_eq!(round_slots(&core, 0), [0]);
    let sent = send_all(&mut core, 0);
    assert_eq!(sent[0].transfer, -4.5);
    core.receive(0, 0, Some(data(-4.0, 0.0, false)), false);
    core.end_round(0);
    assert_eq!(peek(&core, 0).e + (-3.0 + -4.5), -16.0);
    assert_eq!(peek(&core, 0).pruned, [2]);
}

/// Heartbeat rule: `settled ∧ transfer == 0 ∧ e == sent_e`, and the first
/// round is always data because nothing has been sent yet.
#[test]
fn a_heartbeat_replaces_data_only_when_the_peer_already_holds_the_state() {
    let peer_idle = data(-8.0, 0.0, true);
    let mut core = one(spec(0, -8.0, 2), &[1]);

    // Round 1: unchanged and nothing to transfer, but unsettled and unsent.
    core.begin_round(0);
    let first = staged(&core, 0)[0];
    assert_eq!(
        (first.kind, first.e, first.settled),
        (EntryKind::Data, -8.0, false)
    );
    send_all(&mut core, 0);
    core.receive(0, 0, Some(peer_idle), false);
    core.end_round(0);

    // Rounds 2 and 3: settled, and the peer holds exactly −8.
    for _ in 2..=3 {
        core.begin_round(0);
        let beat = staged(&core, 0)[0];
        assert_eq!((beat.kind, beat.settled), (EntryKind::Heartbeat, true));
        assert_eq!(
            (beat.e.to_bits(), beat.transfer.to_bits()),
            (0f64.to_bits(), 0f64.to_bits()),
            "a heartbeat's floats travel as +0.0"
        );
        send_all(&mut core, 0);
        core.receive(0, 0, Some(heartbeat()), false);
        core.end_round(0);
    }
    assert_eq!(
        (peek(&core, 0).heartbeats_sent, peek(&core, 0).msgs_sent),
        (2, 3)
    );

    // The peer donates: the residual moves, so round 4 is data again even
    // though this node is still settled with nothing to transfer…
    core.receive(0, 0, Some(data(-20.0, -1.0, true)), false);
    core.begin_round(0);
    let changed = staged(&core, 0)[0];
    assert_eq!(
        (changed.kind, changed.e, changed.transfer, changed.settled),
        (EntryKind::Data, -9.0, 0.0, true)
    );
    send_all(&mut core, 0);
    core.receive(0, 0, Some(heartbeat()), false);
    core.end_round(0);
    // …and round 5, with the peer up to date, is a heartbeat.
    core.begin_round(0);
    assert_eq!(staged(&core, 0)[0].kind, EntryKind::Heartbeat);

    // An unsettled node never heartbeats, however little changes.
    let mut restless = one(spec(0, -8.0, 50), &[1]);
    for _ in 0..4 {
        restless.begin_round(0);
        assert_eq!(staged(&restless, 0)[0].kind, EntryKind::Data);
        send_all(&mut restless, 0);
        restless.receive(0, 0, Some(peer_idle), false);
        restless.end_round(0);
    }
    assert_eq!(peek(&restless, 0).heartbeats_sent, 0);
}

/// Quorum needs the node's own settled streak *and* every live neighbor
/// settled; a neighbor that said goodbye counts as settled, and gets no
/// goodbye back.
#[test]
fn quorum_needs_own_streak_and_every_live_neighbor_settled() {
    let settled = data(-8.0, 0.0, true);
    let unsettled = data(-8.0, 0.0, false);

    let mut core = one(spec(1, -8.0, 2), &[0, 2]);
    assert!(
        !round(&mut core, &[settled, settled]),
        "own streak is 1 of 2"
    );
    assert!(
        !round(&mut core, &[settled, unsettled]),
        "node 2 is not settled"
    );
    assert!(round(&mut core, &[settled, settled]));
    let byes = staged(&core, 0);
    assert_eq!(byes.len(), 2);
    for (slot, bye) in byes.iter().enumerate() {
        assert_eq!(
            (bye.slot, bye.kind, bye.settled),
            (slot as u32, EntryKind::Goodbye, false)
        );
        assert_eq!((bye.e, bye.transfer.to_bits()), (-8.0, 0f64.to_bits()));
    }
    // A goodbye that cannot be delivered is not counted and prunes nobody.
    send(&mut core, 0, |entry| entry.slot == 0);
    assert_eq!(peek(&core, 0).msgs_sent, 3 * 2 + 1);
    assert_eq!(peek(&core, 0).heartbeats_sent, 2 * 2, "rounds 2 and 3");
    assert!(peek(&core, 0).pruned.is_empty());
    assert!(
        !peek(&core, 0).converged,
        "converged is the drain's last word"
    );

    let mut core = one(spec(1, -8.0, 2), &[0, 2]);
    assert!(!round(&mut core, &[unsettled, unsettled]));
    assert!(round(&mut core, &[settled, goodbye(-8.0, 0.0)]));
    assert_eq!(
        staged(&core, 0).len(),
        1,
        "no goodbye to the neighbor that left"
    );
    assert_eq!(staged(&core, 0)[0].slot, 0);
    assert!(peek(&core, 0).pruned.is_empty());
}

/// `detect_after` *consecutive* silent rounds prune a neighbor and list
/// it; an entry in between resets the count; a goodbye ends the link
/// without listing anyone.
#[test]
fn silence_prunes_after_detect_after_rounds_and_a_goodbye_does_not() {
    let idle = data(-8.0, 0.0, false);
    let mut core = one(spec(1, -8.0, 50), &[0, 2]);
    // detect_after is 3: two silent rounds, an entry, then three more.
    for (r, heard) in [None, None, Some(idle), None, None, None]
        .iter()
        .enumerate()
    {
        assert!(core.is_alive(0, 0), "pruned early, in round {r}");
        core.begin_round(0);
        send_all(&mut core, 0);
        core.receive(0, 0, *heard, false);
        core.receive(0, 1, Some(idle), false);
        core.end_round(0);
    }
    assert!(!core.is_alive(0, 0));
    assert_eq!(peek(&core, 0).pruned, [0]);

    core.begin_round(0);
    assert_eq!(round_slots(&core, 0), [1]);
    send_all(&mut core, 0);
    core.receive(0, 1, Some(goodbye(-8.0, -0.5)), false);
    core.end_round(0);
    assert!(!core.is_alive(0, 1));
    assert_eq!(
        peek(&core, 0).pruned,
        [0],
        "a goodbye is accounted, not pruned"
    );
    assert_eq!(
        peek(&core, 0).e,
        -8.5,
        "and its farewell donation is absorbed"
    );
    core.begin_round(0);
    assert!(round_slots(&core, 0).is_empty());
    assert!(staged(&core, 0).is_empty());
}

/// A drain that hears only heartbeats counts them and leaves the residual
/// bit for bit as it was, and a slot that has closed absorbs nothing.
///
/// (The residual that would expose a stray `e += 0.0` is `-0.0`, and no
/// sequence of calls can produce one by the time a core drains: every
/// `begin_round` adds `dp − Σtransfers`, whose zero is `+0.0`.)
#[test]
fn a_heartbeat_only_drain_leaves_the_residual_bit_exact() {
    let mut core = one(spec(0, -8.0, 1), &[1, 2]);
    assert!(round(
        &mut core,
        &[data(-8.0, -0.3, true), data(-8.0, 0.0, true)]
    ));
    send_all(&mut core, 0);
    let before = peek(&core, 0);
    assert!(core.drain(0, 0, heartbeat()));
    assert!(core.drain(0, 1, heartbeat()));
    assert!(
        core.drain(0, 0, goodbye(-8.0, 0.0)),
        "the goodbye closes slot 0"
    );
    assert!(
        !core.drain(0, 0, heartbeat()),
        "nothing is absorbed after it"
    );
    assert!(!core.drain_done(0), "slot 1 is still open");
    core.close_drain(0, 1);
    assert!(!core.drain(0, 1, data(-8.0, -1.0, true)));
    assert!(core.drain_done(0));
    let after = core.into_reports().swap_remove(0);
    assert_eq!(after.e.to_bits(), before.e.to_bits());
    assert_eq!(after.msgs_received, before.msgs_received + 3);
    assert!(after.converged && !before.converged);
}

/// A drain applies its staged mass slot by slot, each slot's entries in
/// arrival order, however arrivals interleave — also while another agent
/// of the block drains and finishes first. The masses are chosen so that
/// arrival order, the slots in reverse and a slot's entries in reverse
/// each book another residual.
#[test]
fn a_drain_applies_its_mass_in_slot_order_then_arrival_order() {
    let mut block = AgentCore::new([
        (spec(0, -8.0, 1), &[1, 2][..]),
        (spec(1, -8.0, 1), &[0, 2][..]),
    ]);
    for a in 0..2 {
        block.begin_round(a);
        send_all(&mut block, a);
        for slot in 0..2 {
            block.receive(a, slot, Some(data(-8.0, 0.0, true)), false);
        }
        assert!(block.end_round(a), "agent {a} reaches quorum");
        send_all(&mut block, a);
    }
    let before = [peek(&block, 0).e, peek(&block, 1).e];
    let big = 2f64.powi(57);
    // (agent, slot, entry), in arrival order.
    let arrivals = [
        (0, 1, data(-8.0, 1.0, true)),
        (1, 0, data(-8.0, 0.5, true)),
        (0, 0, data(-8.0, -1.0, true)),
        (1, 1, goodbye(-8.0, 0.25)),
        (0, 1, goodbye(-8.0, -big)),
        (1, 0, goodbye(-8.0, big)),
        (0, 0, goodbye(-8.0, big)),
    ];
    let mut done_at = [None; 2];
    for (k, &(a, slot, entry)) in arrivals.iter().enumerate() {
        assert!(block.drain(a, slot, entry));
        if done_at[a].is_none() && block.drain_done(a) {
            done_at[a] = Some(k);
        }
    }
    assert_eq!(done_at, [Some(6), Some(5)], "agent 1 finishes first");
    let sum = |e: f64, masses: &[f64]| masses.iter().fold(e, |e, m| e + m).to_bits();
    let want = [
        sum(before[0], &[-1.0, big, 1.0, -big]),
        sum(before[1], &[0.5, big, 0.25]),
    ];
    for (order, masses) in [
        ("arrival", [1.0, -1.0, -big, big]),
        ("slots reversed", [1.0, -big, -1.0, big]),
        ("entries reversed", [big, -1.0, -big, 1.0]),
    ] {
        assert_ne!(want[0], sum(before[0], &masses), "{order} order");
    }
    let reports = block.into_reports();
    for (a, report) in reports.iter().enumerate() {
        assert_eq!(report.e.to_bits(), want[a], "agent {a}");
        assert!(report.converged);
    }
}
