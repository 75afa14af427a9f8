//! Bring-up liveness and rejection for a node shard
//! ([`dpc_runtime::reactor::host_node`], the entry point behind
//! `dpc node`), against fake peers on real sockets.
//!
//! Liveness: a peer that connects but never *completes* its handshake
//! must not stall cluster bring-up. A per-read socket timeout resets on
//! every `read`, so a peer dripping one byte per timeout window keeps the
//! handshake "live" indefinitely; bring-up enforces one absolute deadline
//! across dial retries, accepts and every handshake byte.
//!
//! Rejection: a peer launched with a different protocol version, cluster
//! size or topology — or one that is not an expected neighbor at all — is
//! turned away with a named reason on both ends of the link, and corrupt
//! bytes on an established link — or a retired frame type in place of the
//! `Hello` — surface as a decode error, each naming the peer.
//!
//! Round deadline: a peer that handshakes and then falls silent is pruned
//! after `detect_after` rounds that each waited out `round_timeout`, and a
//! draining node closes a quiet period after the last entry it absorbed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dpc_alg::diba::DibaConfig;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::cluster::{node_specs, RuntimeConfig};
use dpc_runtime::error::{HandshakeFailure, RuntimeError};
use dpc_runtime::node::NodeReport;
use dpc_runtime::reactor::host_node;
use dpc_runtime::wire::{
    encode_batch_into, encode_frame, read_frame, write_frame, BatchEntry, EntryKind, Frame,
    Reassembly, RejectReason, WireError, WireMsg, PROTOCOL_VERSION,
};
use dpc_topology::Graph;

/// The 2-node cluster most tests run in: node 0 dials, node 1 accepts.
fn pair() -> Graph {
    Graph::path(2)
}

/// Runs node `id` of `graph` to completion on this thread, listening on
/// `listener` and dialing `dial_addrs`, with `timeout` as the bring-up
/// deadline.
fn host(
    graph: &Graph,
    id: usize,
    listener: TcpListener,
    dial_addrs: &[(usize, SocketAddr)],
    timeout: Duration,
) -> Result<NodeReport, RuntimeError> {
    let rt = RuntimeConfig {
        handshake_timeout: timeout,
        ..RuntimeConfig::default()
    };
    host_with(graph, id, listener, dial_addrs, rt)
}

/// [`host`] under a whole runtime configuration.
fn host_with(
    graph: &Graph,
    id: usize,
    listener: TcpListener,
    dial_addrs: &[(usize, SocketAddr)],
    rt: RuntimeConfig,
) -> Result<NodeReport, RuntimeError> {
    let n = graph.len();
    let utilities = ClusterBuilder::new(n).seed(0).build().utilities();
    let problem = PowerBudgetProblem::new(utilities, Watts(170.0 * n as f64)).unwrap();
    let spec = node_specs(&problem, graph, DibaConfig::default(), &rt)
        .unwrap()
        .swap_remove(id);
    host_node(spec, graph, listener, dial_addrs, &rt)
}

fn loopback_listener() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    (listener, addr)
}

/// Node 0 of the pair, dialing node 1 at `peer_addr`.
fn host_dialer(peer_addr: SocketAddr, timeout: Duration) -> Result<NodeReport, RuntimeError> {
    host(
        &pair(),
        0,
        loopback_listener().0,
        &[(1, peer_addr)],
        timeout,
    )
}

fn hello(graph: &Graph, node: u32) -> WireMsg {
    WireMsg::Hello {
        version: PROTOCOL_VERSION,
        node,
        n_nodes: graph.len() as u32,
        topology_hash: graph.topology_hash(),
    }
}

fn expect_timeout(result: Result<NodeReport, RuntimeError>, elapsed: Duration, budget: Duration) {
    match result {
        Err(RuntimeError::Handshake {
            reason: HandshakeFailure::Timeout,
            peer,
        }) => {
            assert!(!peer.is_empty(), "timeout error must name the peer");
        }
        other => panic!("expected a handshake timeout, got {other:?}"),
    }
    assert!(
        elapsed < budget,
        "handshake took {elapsed:?} to fail — deadline did not bound bring-up"
    );
}

/// A peer that drips a *valid* Hello one byte at a time, each gap well
/// inside the handshake timeout. Under a per-read timeout this peer holds
/// bring-up open for frame_len × gap; under an absolute deadline it is cut
/// off at the deadline.
#[test]
fn drip_fed_hello_cannot_outlive_the_handshake_deadline() {
    let (listener, addr) = loopback_listener();
    let timeout = Duration::from_millis(300);

    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for byte in encode_frame(&hello(&pair(), 0)) {
            if stream.write_all(&[byte]).is_err() {
                return; // accepting side gave up — exactly what we want
            }
            std::thread::sleep(Duration::from_millis(60));
        }
        // Keep the socket open so EOF never rescues the reader.
        std::thread::sleep(Duration::from_secs(2));
    });

    let start = Instant::now();
    let result = host(&pair(), 1, listener, &[], timeout);
    expect_timeout(result, start.elapsed(), Duration::from_millis(1_200));
    let _ = peer.join();
}

/// A peer that connects and then goes silent: the original symptom — the
/// accept loop gets its connection, then blocks reading a Hello that never
/// arrives.
#[test]
fn silent_peer_times_out_instead_of_stalling_bring_up() {
    let (listener, addr) = loopback_listener();
    let timeout = Duration::from_millis(200);

    let peer = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_secs(2));
        drop(stream);
    });

    let start = Instant::now();
    let result = host(&pair(), 1, listener, &[], timeout);
    expect_timeout(result, start.elapsed(), Duration::from_millis(1_000));
    let _ = peer.join();
}

/// The dial side has the same obligation: a listener that accepts node 0's
/// connection and swallows its Hello without ever acking must not wedge
/// the dialer.
#[test]
fn unacked_dial_times_out_under_the_deadline() {
    let (listener, peer_addr) = loopback_listener();
    let timeout = Duration::from_millis(200);

    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        // Read nothing, ack nothing; just sit on the connection.
        std::thread::sleep(Duration::from_secs(2));
        drop(stream);
    });

    let start = Instant::now();
    let result = host_dialer(peer_addr, timeout);
    expect_timeout(result, start.elapsed(), Duration::from_millis(1_000));
    let _ = peer.join();
}

/// Dial retries run under the same deadline as everything else: a peer
/// that never listens fails the dial when the deadline passes (not after
/// a retry budget of its own), naming the address.
#[test]
fn dead_peer_fails_the_dial_at_the_deadline() {
    let (listener, dead_addr) = loopback_listener();
    drop(listener);
    let start = Instant::now();
    let result = host_dialer(dead_addr, Duration::from_secs(1));
    let elapsed = start.elapsed();
    match result {
        Err(RuntimeError::Connect { peer, .. }) => assert_eq!(peer, dead_addr.to_string()),
        other => panic!("expected a connect error, got {other:?}"),
    }
    assert!(
        elapsed >= Duration::from_millis(900) && elapsed < Duration::from_millis(2_500),
        "dial gave up after {elapsed:?} under a 1 s deadline"
    );
}

/// …and a peer whose listener comes up late, but inside the deadline, is
/// reached: the late acceptor sees the dialer's Hello.
#[test]
fn late_listener_is_still_reached_inside_the_deadline() {
    let (listener, peer_addr) = loopback_listener();
    drop(listener);
    let reason = RejectReason::TopologyMismatch;
    let acceptor = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let listener = TcpListener::bind(peer_addr).expect("rebind the reserved port");
        let (mut stream, _) = listener.accept().expect("accept");
        let hello = read_frame(&mut stream).expect("dialer opens with hello");
        assert!(matches!(hello, WireMsg::Hello { node: 0, .. }), "{hello:?}");
        write_frame(&mut stream, &WireMsg::Reject { reason }).expect("send reject");
    });
    let err = host_dialer(peer_addr, Duration::from_secs(5)).expect_err("rejected");
    acceptor.join().expect("acceptor thread");
    assert!(
        matches!(
            err,
            RuntimeError::Handshake {
                reason: HandshakeFailure::Rejected(got),
                ..
            } if got == reason
        ),
        "dialer saw {err}"
    );
}

/// A bare socket posing as a dialer: connects to `addr`, opens with
/// `hello` and hands back the acceptor's answer plus the stream.
fn fake_dialer(addr: SocketAddr, hello: WireMsg) -> (SocketAddr, WireMsg, TcpStream) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &hello).expect("send hello");
    let answer = read_frame(&mut stream).expect("acceptor answers every hello");
    (stream.local_addr().expect("local addr"), answer, stream)
}

/// Drives accepting node `id` of `graph` against a dialer opening with
/// `hello`: the acceptor must fail naming the dialer's address, the node
/// id it claimed and `reason`, and the dialer must be sent the same reason
/// in a `Reject` frame.
fn assert_hello_rejected(graph: &Graph, id: usize, hello: WireMsg, reason: RejectReason) {
    let WireMsg::Hello { node: claimed, .. } = hello else {
        panic!("not a hello: {hello:?}");
    };
    let (listener, addr) = loopback_listener();
    let dialer = std::thread::spawn(move || fake_dialer(addr, hello));
    let err = host(graph, id, listener, &[], Duration::from_secs(5))
        .expect_err("a rejected hello must not establish the link");
    let (dialer_addr, answer, _stream) = dialer.join().expect("dialer thread");
    match err {
        RuntimeError::Handshake {
            peer,
            reason: HandshakeFailure::RejectedPeer { node, reason: got },
        } => {
            assert_eq!((node, got), (claimed, reason));
            assert_eq!(peer, dialer_addr.to_string(), "error must name the dialer");
        }
        other => panic!("acceptor saw {other}"),
    }
    assert_eq!(answer, WireMsg::Reject { reason });
}

/// The pair's node 1 against a dialer whose Hello carries the given
/// launch identity.
fn assert_launch_mismatch_rejected(
    version: u16,
    n_nodes: u32,
    topology_hash: u64,
    reason: RejectReason,
) {
    let hello = WireMsg::Hello {
        version,
        node: 0,
        n_nodes,
        topology_hash,
    };
    assert_hello_rejected(&pair(), 1, hello, reason);
}

#[test]
fn version_mismatch_is_rejected_with_a_named_reason() {
    assert_launch_mismatch_rejected(
        PROTOCOL_VERSION + 1,
        2,
        pair().topology_hash(),
        RejectReason::VersionMismatch,
    );
}

#[test]
fn topology_mismatch_is_rejected_with_a_named_reason() {
    assert_launch_mismatch_rejected(
        PROTOCOL_VERSION,
        2,
        pair().topology_hash() ^ 1,
        RejectReason::TopologyMismatch,
    );
}

#[test]
fn cluster_size_mismatch_is_rejected_with_a_named_reason() {
    assert_launch_mismatch_rejected(
        PROTOCOL_VERSION,
        3,
        pair().topology_hash(),
        RejectReason::ClusterSizeMismatch,
    );
}

/// An otherwise valid Hello from an id that is not a still-missing
/// lower-id neighbor — a node outside the neighbor row, or a neighbor
/// that already connected — is answered `Reject{UnknownPeer}`.
#[test]
fn hello_from_a_stranger_or_a_duplicate_is_rejected_as_unknown_peer() {
    assert_hello_rejected(&pair(), 1, hello(&pair(), 5), RejectReason::UnknownPeer);

    // Node 2 of a triangle waits for 0 and 1; 0 connects twice.
    let triangle = Graph::complete(3);
    let (listener, addr) = loopback_listener();
    let first = hello(&triangle, 0);
    let dialers = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, &first).expect("send hello");
        let (_, answer, _again) = fake_dialer(addr, first);
        (answer, stream)
    });
    let err = host(&triangle, 2, listener, &[], Duration::from_secs(5)).expect_err("duplicate");
    let (answer, _stream) = dialers.join().expect("dialer thread");
    let reason = RejectReason::UnknownPeer;
    assert_eq!(answer, WireMsg::Reject { reason });
    assert!(
        matches!(
            err,
            RuntimeError::Handshake {
                reason: HandshakeFailure::RejectedPeer { node: 0, reason: got },
                ..
            } if got == reason
        ),
        "acceptor saw {err}"
    );
}

/// The dialing side of the same exchange: an acceptor that answers
/// `Reject` surfaces on the dialer as `Rejected` with the reason the
/// acceptor named and the address that was dialed.
#[test]
fn reject_frame_names_peer_and_reason_on_the_dialing_side() {
    for reason in [
        RejectReason::VersionMismatch,
        RejectReason::TopologyMismatch,
        RejectReason::ClusterSizeMismatch,
    ] {
        let (listener, peer_addr) = loopback_listener();
        let acceptor = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let hello = read_frame(&mut stream).expect("dialer opens with hello");
            assert!(matches!(hello, WireMsg::Hello { node: 0, .. }), "{hello:?}");
            write_frame(&mut stream, &WireMsg::Reject { reason }).expect("send reject");
        });
        let err = host_dialer(peer_addr, Duration::from_secs(5))
            .expect_err("a rejected dial must not establish the link");
        acceptor.join().expect("acceptor thread");
        match err {
            RuntimeError::Handshake {
                peer,
                reason: HandshakeFailure::Rejected(got),
            } => {
                assert_eq!(got, reason);
                assert_eq!(peer, peer_addr.to_string(), "error must name the acceptor");
            }
            other => panic!("dialer saw {other}"),
        }
    }
}

/// An established link that then carries garbage: the frame's length
/// prefix is honest but its payload has no valid tag, so the receive path
/// must report a decode error naming the peer rather than act on it.
#[test]
fn corrupt_bytes_surface_as_a_decode_error() {
    let (listener, addr) = loopback_listener();
    let dialer = std::thread::spawn(move || {
        let (local, answer, mut stream) = fake_dialer(addr, hello(&pair(), 0));
        assert!(
            matches!(answer, WireMsg::HelloAck { node: 1, .. }),
            "{answer:?}"
        );
        let mut frame = 3u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0xFF, 0x00, 0x01]);
        stream.write_all(&frame).expect("send corrupt frame");
        (local, stream)
    });
    let result = host(&pair(), 1, listener, &[], Duration::from_secs(5));
    let (dialer_addr, _stream) = dialer.join().expect("dialer thread");
    match result {
        Err(RuntimeError::Decode { peer, .. }) => assert_eq!(peer, dialer_addr.to_string()),
        other => panic!("expected a decode error, got {other:?}"),
    }
}

/// A peer from before the scalar round frames were retired opens with a
/// well-formed tag-4 `Data` frame (26 bytes: `round: u32`, `e: f64`,
/// `transfer: f64`, `flags: u8`). The tag no longer exists, so bring-up
/// answers with a typed decode error naming the peer — at once, not at
/// the deadline.
#[test]
fn retired_scalar_data_frame_is_a_decode_error_naming_the_peer() {
    let (listener, addr) = loopback_listener();
    let timeout = Duration::from_secs(5);
    let dialer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut frame = 22u32.to_le_bytes().to_vec();
        frame.push(4);
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&(-1.5f64).to_le_bytes());
        frame.extend_from_slice(&(-0.25f64).to_le_bytes());
        frame.push(1);
        assert_eq!(frame.len(), 26);
        stream.write_all(&frame).expect("send the old frame");
        (stream.local_addr().expect("local addr"), stream)
    });
    let start = Instant::now();
    let result = host(&pair(), 1, listener, &[], timeout);
    let elapsed = start.elapsed();
    let (dialer_addr, _stream) = dialer.join().expect("dialer thread");
    match result {
        Err(RuntimeError::Decode { peer, source }) => {
            assert_eq!(peer, dialer_addr.to_string());
            assert_eq!(source, WireError::UnknownTag(4));
        }
        other => panic!("expected a decode error, got {other:?}"),
    }
    assert!(elapsed < timeout, "answered only after {elapsed:?}");
}

/// The round deadline through a live shard loop: a peer that completes
/// the handshake and then never sends a round entry, its socket held open
/// so no end-of-stream rescues the node. Each time a stalled round
/// outlives `round_timeout` the node runs it with the entry missing; the
/// `detect_after`-th silent round prunes the peer, and the node, alone,
/// settles and exits through quorum. It sends exactly one data entry per
/// round the peer was live for, so the prune came neither early nor late
/// in rounds, and the wall-clock floor shows no silent round was counted
/// before its deadline.
#[test]
fn a_silent_peer_is_pruned_after_detect_after_round_deadlines() {
    let round_timeout = Duration::from_millis(50);
    let detect_after = 3;
    let (listener, addr) = loopback_listener();
    let peer = std::thread::spawn(move || {
        let (_, answer, stream) = fake_dialer(addr, hello(&pair(), 0));
        assert!(
            matches!(answer, WireMsg::HelloAck { node: 1, .. }),
            "{answer:?}"
        );
        // Handed back open; dropped only after the node has finished.
        stream
    });
    let rt = RuntimeConfig {
        round_timeout,
        detect_after,
        handshake_timeout: Duration::from_secs(5),
        ..RuntimeConfig::default()
    };
    let start = Instant::now();
    let report = host_with(&pair(), 1, listener, &[], rt).expect("node finishes alone");
    let elapsed = start.elapsed();
    let _stream = peer.join().expect("peer thread");
    assert_eq!(report.pruned, [0]);
    assert!(report.converged, "the lone node must exit through quorum");
    assert_eq!(report.msgs_sent, detect_after as u64);
    assert!(
        elapsed >= round_timeout * detect_after as u32,
        "pruned after {elapsed:?}, before {detect_after} round deadlines"
    );
}

/// Reads frames off `stream` until an entry of `kind` arrives.
fn read_until(stream: &mut TcpStream, reasm: &mut Reassembly, kind: EntryKind) {
    let mut buf = [0u8; 1024];
    loop {
        while let Some(frame) = reasm.next_frame().expect("the node sends valid frames") {
            if let Frame::Batch(batch) = frame {
                if batch.entries.iter().any(|entry| entry.kind == kind) {
                    return;
                }
            }
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "the stream ended before a {kind:?} entry");
        reasm.push(&buf[..n]);
    }
}

/// The drain's quiet period through a live shard loop. Node 1 reaches
/// quorum in round 1 (any move settles it, and the peer's round-1 entry
/// says settled), says goodbye and drains; the peer, holding its stream
/// open, sends one late round-2 entry 60 ms after the goodbye and then
/// nothing. The entry is absorbed and restarts the quiet period, so the
/// node closes only a whole quiet period (100 ms: the default round
/// timeout capped at 100 ms) after it, not after the goodbye.
#[test]
fn a_drain_ends_on_its_quiet_period_restarted_by_each_entry() {
    let (listener, addr) = loopback_listener();
    let peer = std::thread::spawn(move || {
        let (_, answer, mut stream) = fake_dialer(addr, hello(&pair(), 0));
        assert!(
            matches!(answer, WireMsg::HelloAck { node: 1, .. }),
            "{answer:?}"
        );
        let entry = |transfer: f64, settled: bool| BatchEntry {
            slot: 0,
            e: -1.0,
            transfer,
            settled,
            kind: EntryKind::Data,
        };
        let mut frame = Vec::new();
        encode_batch_into(1, &[entry(0.0, true)], &mut frame);
        stream.write_all(&frame).expect("send round 1");
        let mut reasm = Reassembly::new();
        read_until(&mut stream, &mut reasm, EntryKind::Goodbye);
        std::thread::sleep(Duration::from_millis(60));
        frame.clear();
        encode_batch_into(2, &[entry(-0.5, false)], &mut frame);
        let sent = Instant::now();
        stream.write_all(&frame).expect("send the late entry");
        // Silent from here on; the node's EOF ends the read.
        let mut rest = Vec::new();
        stream
            .read_to_end(&mut rest)
            .expect("read to the node's EOF");
        (sent.elapsed(), stream)
    });
    let rt = RuntimeConfig {
        settle_tol: 1e9,
        stable_rounds: 1,
        handshake_timeout: Duration::from_secs(5),
        ..RuntimeConfig::default()
    };
    let report = host_with(&pair(), 1, listener, &[], rt).expect("node drains and exits");
    let (closed_after, _stream) = peer.join().expect("peer thread");
    assert!(report.converged, "the node exits through quorum");
    assert_eq!(report.rounds, 1);
    assert_eq!(report.msgs_received, 2, "round 1 and the late entry");
    assert!(
        closed_after >= Duration::from_millis(100),
        "closed {closed_after:?} after the late entry, inside its quiet period"
    );
}
