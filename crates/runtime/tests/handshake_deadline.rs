//! Handshake liveness and rejection, against fake peers on real sockets.
//!
//! Liveness: a peer that connects but never *completes* its handshake
//! must not stall cluster bring-up. A per-read socket timeout resets on
//! every `read`, so a peer dripping one byte per timeout window keeps the
//! handshake "live" indefinitely; the transport enforces an absolute
//! deadline across all handshake reads on a connection.
//!
//! Rejection: a peer launched with a different protocol version, cluster
//! size or topology is turned away with a named reason on both ends of
//! the link, and corrupt bytes on an established link surface as a decode
//! error — each naming the peer.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dpc_runtime::error::{HandshakeFailure, RuntimeError};
use dpc_runtime::tcp::{HandshakeContext, Incoming, RetryPolicy, TcpTransport};
use dpc_runtime::wire::{
    encode_frame, read_frame, write_frame, RejectReason, WireMsg, PROTOCOL_VERSION,
};

const TOPOLOGY_HASH: u64 = 0x5eed;

/// Node 1 in a 2-node cluster: accepts a connection from node 0.
fn accepting_node() -> (TcpTransport, std::net::SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let transport =
        TcpTransport::new(1, listener, &[0], &[], RetryPolicy::default()).expect("transport");
    let addr = transport.local_addr().expect("local addr");
    (transport, addr)
}

/// Node 0 in the same cluster: dials node 1 at `peer_addr`.
fn dialing_node(peer_addr: SocketAddr) -> TcpTransport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    TcpTransport::new(0, listener, &[1], &[(1, peer_addr)], RetryPolicy::default())
        .expect("transport")
}

fn ctx(timeout: Duration) -> HandshakeContext {
    HandshakeContext {
        n_nodes: 2,
        topology_hash: TOPOLOGY_HASH,
        timeout,
    }
}

fn expect_timeout(result: Result<(), RuntimeError>, elapsed: Duration, budget: Duration) {
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
    let (mut transport, addr) = accepting_node();
    let timeout = Duration::from_millis(300);

    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = encode_frame(&WireMsg::Hello {
            version: PROTOCOL_VERSION,
            node: 0,
            n_nodes: 2,
            topology_hash: TOPOLOGY_HASH,
        });
        for byte in frame {
            if stream.write_all(&[byte]).is_err() {
                return; // accepting side gave up — exactly what we want
            }
            std::thread::sleep(Duration::from_millis(60));
        }
        // Keep the socket open so EOF never rescues the reader.
        std::thread::sleep(Duration::from_secs(2));
    });

    let start = Instant::now();
    let result = transport.handshake(&ctx(timeout));
    let elapsed = start.elapsed();
    expect_timeout(result, elapsed, Duration::from_millis(1_200));
    drop(transport);
    let _ = peer.join();
}

/// A peer that connects and then goes silent: the original symptom — the
/// accept loop gets its connection, then blocks reading a Hello that never
/// arrives.
#[test]
fn silent_peer_times_out_instead_of_stalling_bring_up() {
    let (mut transport, addr) = accepting_node();
    let timeout = Duration::from_millis(200);

    let peer = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_secs(2));
        drop(stream);
    });

    let start = Instant::now();
    let result = transport.handshake(&ctx(timeout));
    let elapsed = start.elapsed();
    expect_timeout(result, elapsed, Duration::from_millis(1_000));
    drop(transport);
    let _ = peer.join();
}

/// The dial side has the same obligation: a listener that accepts node 0's
/// connection and swallows its Hello without ever acking must not wedge
/// the dialer.
#[test]
fn unacked_dial_times_out_under_the_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer listener");
    let peer_addr = listener.local_addr().expect("peer addr");
    // Node 0 in a 2-node cluster dials node 1 and waits for HelloAck.
    let mut transport = dialing_node(peer_addr);
    let timeout = Duration::from_millis(200);

    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        // Read nothing, ack nothing; just sit on the connection.
        std::thread::sleep(Duration::from_secs(2));
        drop(stream);
    });

    let start = Instant::now();
    let result = transport.handshake(&ctx(timeout));
    let elapsed = start.elapsed();
    expect_timeout(result, elapsed, Duration::from_millis(1_000));
    drop(transport);
    let _ = peer.join();
}

/// Node 0 of the 2-node cluster as a bare socket: dials `addr`, opens
/// with `hello` and hands back the acceptor's answer plus the stream.
fn fake_dialer(addr: SocketAddr, hello: WireMsg) -> (SocketAddr, WireMsg, TcpStream) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &hello).expect("send hello");
    let answer = read_frame(&mut stream).expect("acceptor answers every hello");
    (stream.local_addr().expect("local addr"), answer, stream)
}

/// Drives the accepting transport against a dialer whose `Hello` carries
/// the given launch identity: the acceptor must fail naming the dialer's
/// address, node id and `reason`, and the dialer must be sent the same
/// reason in a `Reject` frame.
fn assert_hello_rejected(version: u16, n_nodes: u32, topology_hash: u64, reason: RejectReason) {
    let (mut transport, addr) = accepting_node();
    let hello = WireMsg::Hello {
        version,
        node: 0,
        n_nodes,
        topology_hash,
    };
    let dialer = std::thread::spawn(move || fake_dialer(addr, hello));
    let err = transport
        .handshake(&ctx(Duration::from_secs(5)))
        .expect_err("mismatched hello must not establish the link");
    let (dialer_addr, answer, _stream) = dialer.join().expect("dialer thread");
    match err {
        RuntimeError::Handshake {
            peer,
            reason:
                HandshakeFailure::RejectedPeer {
                    node: 0,
                    reason: got,
                },
        } => {
            assert_eq!(got, reason);
            assert_eq!(peer, dialer_addr.to_string(), "error must name the dialer");
        }
        other => panic!("acceptor saw {other}"),
    }
    assert_eq!(answer, WireMsg::Reject { reason });
}

#[test]
fn version_mismatch_is_rejected_with_a_named_reason() {
    assert_hello_rejected(
        PROTOCOL_VERSION + 1,
        2,
        TOPOLOGY_HASH,
        RejectReason::VersionMismatch,
    );
}

#[test]
fn topology_mismatch_is_rejected_with_a_named_reason() {
    assert_hello_rejected(
        PROTOCOL_VERSION,
        2,
        TOPOLOGY_HASH ^ 1,
        RejectReason::TopologyMismatch,
    );
}

#[test]
fn cluster_size_mismatch_is_rejected_with_a_named_reason() {
    assert_hello_rejected(
        PROTOCOL_VERSION,
        3,
        TOPOLOGY_HASH,
        RejectReason::ClusterSizeMismatch,
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
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer listener");
        let peer_addr = listener.local_addr().expect("peer addr");
        let mut transport = dialing_node(peer_addr);
        let acceptor = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let hello = read_frame(&mut stream).expect("dialer opens with hello");
            assert!(matches!(hello, WireMsg::Hello { node: 0, .. }), "{hello:?}");
            write_frame(&mut stream, &WireMsg::Reject { reason }).expect("send reject");
        });
        let err = transport
            .handshake(&ctx(Duration::from_secs(5)))
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
    let (mut transport, addr) = accepting_node();
    let hello = WireMsg::Hello {
        version: PROTOCOL_VERSION,
        node: 0,
        n_nodes: 2,
        topology_hash: TOPOLOGY_HASH,
    };
    let dialer = std::thread::spawn(move || {
        let (local, answer, mut stream) = fake_dialer(addr, hello);
        assert!(
            matches!(answer, WireMsg::HelloAck { node: 1, .. }),
            "{answer:?}"
        );
        let mut frame = 3u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0xFF, 0x00, 0x01]);
        stream.write_all(&frame).expect("send corrupt frame");
        (local, stream)
    });
    transport
        .handshake(&ctx(Duration::from_secs(5)))
        .expect("valid hello establishes the link");
    let (dialer_addr, _stream) = dialer.join().expect("dialer thread");
    match transport.recv(0, Duration::from_secs(5)) {
        Err(RuntimeError::Decode { peer, .. }) => assert_eq!(peer, dialer_addr.to_string()),
        Ok(Incoming::Msg(msg)) => panic!("corrupt frame decoded to {msg:?}"),
        other => panic!("expected a decode error, got {other:?}"),
    }
}
