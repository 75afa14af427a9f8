//! [`AgentCore`] stepped by hand, phase by phase, with no driver.
//!
//! The core is the whole protocol, so its rules are checked where they
//! live: what it stages, how it answers each delivery outcome, what each
//! inbound entry does to `(e, links)`, and when the drain is done. The
//! cores here run a degenerate solver — `step_power = 0`, so `p` never
//! moves, and residuals that are small dyadic rationals, so every
//! transfer and every sum is exact — which lets conservation be asserted
//! to the bit instead of to a tolerance.

use dpc_alg::diba::NodeParams;
use dpc_models::units::Watts;
use dpc_models::QuadraticUtility;
use dpc_runtime::agent::AgentCore;
use dpc_runtime::node::{NodeReport, NodeSpec};
use dpc_runtime::wire::{BatchEntry, EntryKind};
use std::time::Duration;

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
        round_timeout: Duration::from_secs(1),
        sample_every: 0,
    }
}

/// The report the core would fold into right now.
fn peek(core: &AgentCore) -> NodeReport {
    core.clone().into_report()
}

/// Hands every staged entry to its link and returns them, as a driver
/// whose links are all up would.
fn send_all(core: &mut AgentCore) -> Vec<BatchEntry> {
    let staged = core.outbound().to_vec();
    for k in 0..staged.len() {
        core.note_sent(k);
    }
    staged
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

/// One round in which every link is up and each neighbor answers with
/// `inbound[slot]`.
fn round(core: &mut AgentCore, inbound: &[BatchEntry]) -> bool {
    core.begin_round();
    send_all(core);
    for (slot, entry) in inbound.iter().enumerate() {
        core.receive(slot, Some(*entry), false);
    }
    core.end_round()
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
    let mut n0 = AgentCore::new(spec(0, -16.0, 1), &[1]);
    let mut n1 = AgentCore::new(spec(1, -4.0, 3), &[0, 2]);
    let mut n2 = AgentCore::new(spec(2, -8.0, 50), &[1, 3]);
    let mut n3 = AgentCore::new(spec(3, -2.0, 50), &[2]);
    let total = -30.0f64;
    let check = |cores: &[&AgentCore], departed: f64, in_flight: &[f64], at: &str| {
        let held: f64 = cores.iter().map(|c| peek(c).e).sum();
        let now = held + departed + in_flight.iter().sum::<f64>();
        assert_eq!(now.to_bits(), total.to_bits(), "{at}: {now} != {total}");
    };
    check(&[&n0, &n1, &n2, &n3], 0.0, &[], "launch");

    // Rounds 1 and 2, every entry delivered. A node's first view of a
    // neighbor is its own residual, so round 1 moves nothing; round 2
    // moves slack toward node 1, which has the least.
    for r in 1..=2 {
        for core in [&mut n0, &mut n1, &mut n2, &mut n3] {
            core.begin_round();
        }
        let (o0, o1, o2, o3) = (
            send_all(&mut n0),
            send_all(&mut n1),
            send_all(&mut n2),
            send_all(&mut n3),
        );
        let flying: Vec<f64> = [&o0, &o1, &o2, &o3]
            .iter()
            .flat_map(|o| o.iter().map(|entry| entry.transfer))
            .collect();
        check(&[&n0, &n1, &n2, &n3], 0.0, &flying, "sent");
        if r == 2 {
            assert_eq!(flying, [-6.0, 0.0, 0.0, -1.0, -1.5, 0.0]);
        }
        n0.receive(0, Some(o1[0]), false);
        n1.receive(0, Some(o0[0]), false);
        n1.receive(1, Some(o2[0]), false);
        n2.receive(0, Some(o1[1]), false);
        n2.receive(1, Some(o3[0]), false);
        n3.receive(0, Some(o2[1]), false);
        check(&[&n0, &n1, &n2, &n3], 0.0, &[], "received");
        for core in [&mut n0, &mut n1, &mut n2, &mut n3] {
            assert!(!core.end_round());
        }
    }
    let residuals = [&n0, &n1, &n2, &n3].map(|c| peek(c).e);
    assert_eq!(residuals, [-10.0, -11.0, -5.5, -3.5]);

    // Round 3: node 3 is gone, without a goodbye. Node 2 has already
    // handed its entry for 3 to the link when it finds nothing coming
    // back and the link closed, and takes the transfer back.
    let left = peek(&n3).e;
    drop(n3);
    for core in [&mut n0, &mut n1, &mut n2] {
        core.begin_round();
    }
    let (o0, o1, o2) = (send_all(&mut n0), send_all(&mut n1), send_all(&mut n2));
    let owed = o2[1].transfer;
    assert_eq!(owed, -0.875);
    n0.receive(0, Some(o1[0]), false);
    n1.receive(0, Some(o0[0]), false);
    n1.receive(1, Some(o2[0]), false);
    n2.receive(0, Some(o1[1]), false);
    check(&[&n0, &n1, &n2], left, &[owed], "owed by a dead link");
    n2.receive(1, None, true);
    check(&[&n0, &n1, &n2], left, &[], "taken back");
    assert!(!n2.is_alive(1));
    assert_eq!(peek(&n2).pruned, [3]);
    // Node 1's round-3 entry said "settled", and node 0 has been all
    // along: quorum for 0. Not for 1, whose other neighbor is not.
    assert!(n0.end_round());
    assert!(!n1.end_round());
    assert!(!n2.end_round());
    let bye = send_all(&mut n0);
    assert_eq!(bye.len(), 1);
    assert_eq!(bye[0].kind, EntryKind::Goodbye);
    check(&[&n0, &n1, &n2], left, &[], "goodbye said");

    // Round 4: node 1 sends to 0 before it reads the goodbye queued
    // behind 0's round-3 entry, so 0 absorbs that entry as a lame duck.
    n1.begin_round();
    n2.begin_round();
    assert_eq!(n2.round_slots(), [0], "the dead slot is out of the round");
    let (o1, o2) = (send_all(&mut n1), send_all(&mut n2));
    let straggler = o1[0].transfer;
    assert_eq!(straggler, -1.4375);
    assert!(n0.drain(0, o1[0]));
    assert!(
        !n0.drain_done(),
        "the slot is open until 1 is known to be done"
    );
    n1.receive(0, Some(bye[0]), false);
    n1.receive(1, Some(o2[0]), false);
    n2.receive(0, Some(o1[1]), false);
    assert!(!n1.is_alive(0));
    assert!(peek(&n1).pruned.is_empty(), "a goodbye is not a prune");
    n0.close_drain(0);
    assert!(n0.drain_done());
    check(&[&n0, &n1, &n2], left, &[], "drained");

    let report = n0.into_report();
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
    let mut core = AgentCore::new(spec(1, -16.0, 1), &[0, 2]);
    round(&mut core, &[data(-4.0, 0.0, false), data(-4.0, 0.0, false)]);

    core.begin_round();
    let staged = core.outbound().to_vec();
    assert_eq!((staged[0].transfer, staged[1].transfer), (-3.0, -3.0));
    assert_eq!((staged[0].e, peek(&core).e), (-10.0, -10.0));
    core.note_send_closed(0);
    core.note_sent(1);
    assert_eq!(peek(&core).e, -13.0);
    assert_eq!(peek(&core).pruned, [0]);
    assert_eq!(core.round_slots(), [0, 1]);
    assert!(!core.is_alive(0), "the receive pass skips the slot");
    core.receive(1, Some(data(-13.0, 0.0, false)), false);
    core.end_round();
    assert_eq!(peek(&core).msgs_sent, 3);

    // Settled, nothing to transfer — but node 2 holds −10, not −13.
    core.begin_round();
    let staged = core.outbound().to_vec();
    assert_eq!(staged.len(), 1);
    assert_eq!(
        (staged[0].kind, staged[0].e, staged[0].transfer),
        (EntryKind::Data, -13.0, 0.0)
    );
}

/// The receive side: the closure is noticed only after the round's entry
/// went out. The transfer staged for that slot comes back exactly once.
#[test]
fn a_receive_that_finds_the_link_closed_recredits_exactly_once() {
    let mut core = AgentCore::new(spec(1, -16.0, 50), &[0, 2]);
    round(&mut core, &[data(-4.0, 0.0, false), data(-4.0, 0.0, false)]);

    core.begin_round();
    let sent = send_all(&mut core);
    assert_eq!((sent[0].transfer, sent[1].transfer), (-3.0, -3.0));
    core.receive(0, Some(data(-4.0, 0.0, false)), false);
    assert_eq!(peek(&core).e, -10.0);
    core.receive(1, None, true);
    assert_eq!(peek(&core).e, -13.0);
    assert_eq!(peek(&core).pruned, [2]);
    core.end_round();

    // From here on the slot is out of the round, so nothing can credit it
    // again: the residual plus what node 0 was really given is what the
    // node started with.
    core.begin_round();
    assert_eq!(core.round_slots(), [0]);
    let sent = send_all(&mut core);
    assert_eq!(sent[0].transfer, -4.5);
    core.receive(0, Some(data(-4.0, 0.0, false)), false);
    core.end_round();
    assert_eq!(peek(&core).e + (-3.0 + -4.5), -16.0);
    assert_eq!(peek(&core).pruned, [2]);
}

/// Heartbeat rule: `settled ∧ transfer == 0 ∧ e == sent_e`, and the first
/// round is always data because nothing has been sent yet.
#[test]
fn a_heartbeat_replaces_data_only_when_the_peer_already_holds_the_state() {
    let peer_idle = data(-8.0, 0.0, true);
    let mut core = AgentCore::new(spec(0, -8.0, 2), &[1]);

    // Round 1: unchanged and nothing to transfer, but unsettled and unsent.
    core.begin_round();
    let first = core.outbound()[0];
    assert_eq!(
        (first.kind, first.e, first.settled),
        (EntryKind::Data, -8.0, false)
    );
    send_all(&mut core);
    core.receive(0, Some(peer_idle), false);
    core.end_round();

    // Rounds 2 and 3: settled, and the peer holds exactly −8.
    for _ in 2..=3 {
        core.begin_round();
        let beat = core.outbound()[0];
        assert_eq!((beat.kind, beat.settled), (EntryKind::Heartbeat, true));
        assert_eq!(
            (beat.e.to_bits(), beat.transfer.to_bits()),
            (0f64.to_bits(), 0f64.to_bits()),
            "a heartbeat's floats travel as +0.0"
        );
        send_all(&mut core);
        core.receive(0, Some(heartbeat()), false);
        core.end_round();
    }
    assert_eq!((peek(&core).heartbeats_sent, peek(&core).msgs_sent), (2, 3));

    // The peer donates: the residual moves, so round 4 is data again even
    // though this node is still settled with nothing to transfer…
    core.receive(0, Some(data(-20.0, -1.0, true)), false);
    core.begin_round();
    let changed = core.outbound()[0];
    assert_eq!(
        (changed.kind, changed.e, changed.transfer, changed.settled),
        (EntryKind::Data, -9.0, 0.0, true)
    );
    send_all(&mut core);
    core.receive(0, Some(heartbeat()), false);
    core.end_round();
    // …and round 5, with the peer up to date, is a heartbeat.
    core.begin_round();
    assert_eq!(core.outbound()[0].kind, EntryKind::Heartbeat);

    // An unsettled node never heartbeats, however little changes.
    let mut restless = AgentCore::new(spec(0, -8.0, 50), &[1]);
    for _ in 0..4 {
        restless.begin_round();
        assert_eq!(restless.outbound()[0].kind, EntryKind::Data);
        send_all(&mut restless);
        restless.receive(0, Some(peer_idle), false);
        restless.end_round();
    }
    assert_eq!(peek(&restless).heartbeats_sent, 0);
}

/// Quorum needs the node's own settled streak *and* every live neighbor
/// settled; a neighbor that said goodbye counts as settled, and gets no
/// goodbye back.
#[test]
fn quorum_needs_own_streak_and_every_live_neighbor_settled() {
    let settled = data(-8.0, 0.0, true);
    let unsettled = data(-8.0, 0.0, false);

    let mut core = AgentCore::new(spec(1, -8.0, 2), &[0, 2]);
    assert!(
        !round(&mut core, &[settled, settled]),
        "own streak is 1 of 2"
    );
    assert!(
        !round(&mut core, &[settled, unsettled]),
        "node 2 is not settled"
    );
    assert!(round(&mut core, &[settled, settled]));
    let byes = core.outbound().to_vec();
    assert_eq!(byes.len(), 2);
    for (slot, bye) in byes.iter().enumerate() {
        assert_eq!(
            (bye.slot, bye.kind, bye.settled),
            (slot as u32, EntryKind::Goodbye, false)
        );
        assert_eq!((bye.e, bye.transfer.to_bits()), (-8.0, 0f64.to_bits()));
    }
    // A goodbye that cannot be delivered is not counted and prunes nobody.
    core.note_sent(0);
    core.note_send_closed(1);
    assert_eq!(peek(&core).msgs_sent, 3 * 2 + 1);
    assert_eq!(peek(&core).heartbeats_sent, 2 * 2, "rounds 2 and 3");
    assert!(peek(&core).pruned.is_empty());
    assert!(!peek(&core).converged, "converged is the drain's last word");

    let mut core = AgentCore::new(spec(1, -8.0, 2), &[0, 2]);
    assert!(!round(&mut core, &[unsettled, unsettled]));
    assert!(round(&mut core, &[settled, goodbye(-8.0, 0.0)]));
    assert_eq!(
        core.outbound().len(),
        1,
        "no goodbye to the neighbor that left"
    );
    assert_eq!(core.outbound()[0].slot, 0);
    assert!(peek(&core).pruned.is_empty());
}

/// `detect_after` *consecutive* silent rounds prune a neighbor and list
/// it; an entry in between resets the count; a goodbye ends the link
/// without listing anyone.
#[test]
fn silence_prunes_after_detect_after_rounds_and_a_goodbye_does_not() {
    let idle = data(-8.0, 0.0, false);
    let mut core = AgentCore::new(spec(1, -8.0, 50), &[0, 2]);
    // detect_after is 3: two silent rounds, an entry, then three more.
    for (r, heard) in [None, None, Some(idle), None, None, None]
        .iter()
        .enumerate()
    {
        assert!(core.is_alive(0), "pruned early, in round {r}");
        core.begin_round();
        send_all(&mut core);
        core.receive(0, *heard, false);
        core.receive(1, Some(idle), false);
        core.end_round();
    }
    assert!(!core.is_alive(0));
    assert_eq!(peek(&core).pruned, [0]);

    core.begin_round();
    assert_eq!(core.round_slots(), [1]);
    send_all(&mut core);
    core.receive(1, Some(goodbye(-8.0, -0.5)), false);
    core.end_round();
    assert!(!core.is_alive(1));
    assert_eq!(
        peek(&core).pruned,
        [0],
        "a goodbye is accounted, not pruned"
    );
    assert_eq!(peek(&core).e, -8.5, "and its farewell donation is absorbed");
    core.begin_round();
    assert!(core.round_slots().is_empty());
    assert!(core.outbound().is_empty());
}

/// A drain that hears only heartbeats counts them and leaves the residual
/// bit for bit as it was, and a slot that has closed absorbs nothing.
///
/// (The residual that would expose a stray `e += 0.0` is `-0.0`, and no
/// sequence of calls can produce one by the time a core drains: every
/// `begin_round` adds `dp − Σtransfers`, whose zero is `+0.0`.)
#[test]
fn a_heartbeat_only_drain_leaves_the_residual_bit_exact() {
    let mut core = AgentCore::new(spec(0, -8.0, 1), &[1, 2]);
    assert!(round(
        &mut core,
        &[data(-8.0, -0.3, true), data(-8.0, 0.0, true)]
    ));
    send_all(&mut core);
    let before = peek(&core);
    assert!(core.drain(0, heartbeat()));
    assert!(core.drain(1, heartbeat()));
    assert!(
        core.drain(0, goodbye(-8.0, 0.0)),
        "the goodbye closes slot 0"
    );
    assert!(!core.drain(0, heartbeat()), "nothing is absorbed after it");
    assert!(!core.drain_done(), "slot 1 is still open");
    core.close_drain(1);
    assert!(!core.drain(1, data(-8.0, -1.0, true)));
    assert!(core.drain_done());
    let after = core.into_report();
    assert_eq!(after.e.to_bits(), before.e.to_bits());
    assert_eq!(after.msgs_received, before.msgs_received + 3);
    assert!(after.converged && !before.converged);
}
