//! Link bring-up: every carrier a shard loop starts with is a connected
//! stream whose peer is known, so the loop itself runs rounds only.
//!
//! Inside one process ([`super::run_reactor_cluster`]) the driver makes
//! both ends of every carrier itself: [`loopback_pair`] dials the bring-up
//! listener and accepts, and the accepted stream must be the one just
//! dialed — anything else that connected to the listener fails bring-up.
//! No frame is exchanged: both ends were built from the same graph.
//!
//! A node process ([`super::host_node`]) runs the `Hello` / `HelloAck` /
//! `Reject` exchange here, all under its one bring-up deadline, following
//! the dial-low/accept-high rule — for every edge `(u, v)` with `u < v`,
//! `u` dials `v`'s listen address:
//!
//! 1. dial every higher-id neighbor, retrying until the deadline so peers
//!    may start in any order, and write `Hello` on each;
//! 2. accept the lower-id neighbors: an accepted stream's `Hello` must come
//!    from a still-missing lower-id neighbor and carry this cluster's
//!    version, size and topology; it is answered `HelloAck`, or `Reject`
//!    with the reason, which fails bring-up;
//! 3. read each dialed stream's answer, which must be a `HelloAck` from
//!    the dialed neighbor.
//!
//! The order cannot deadlock: an accept waits only on a lower-id node's
//! dial and `Hello`, and those wait on nothing but a bound listener.

use super::sys::{Epoll, EpollEvent, EPOLLIN};
use crate::error::{HandshakeFailure, RuntimeError};
use crate::wire::{
    read_frame, write_frame, ClusterIdentity, FrameError, RejectReason, WireMsg, PROTOCOL_VERSION,
};
use dpc_topology::Graph;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Pause between connect attempts while a peer's listener is coming up.
const DIAL_RETRY: Duration = Duration::from_millis(50);

/// Both ends of one in-process carrier, nonblocking and without Nagle:
/// dials `listener` and accepts. The accepted stream must be the one just
/// dialed (its peer address is the dialed end's local address).
///
/// # Errors
///
/// The OS error of any step, or [`io::ErrorKind::ConnectionRefused`]
/// naming both addresses when the listener hands over another stream.
pub(super) fn loopback_pair(listener: &TcpListener) -> io::Result<(TcpStream, TcpStream)> {
    let dial = TcpStream::connect(listener.local_addr()?)?;
    let (acc, remote) = listener.accept()?;
    let local = dial.local_addr()?;
    if remote != local {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("accepted a stream from {remote}, not the one dialed from {local}"),
        ));
    }
    for s in [&dial, &acc] {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
    }
    Ok((dial, acc))
}

/// One neighbor's connected, handshaken stream.
pub(crate) struct NeighborStream {
    pub stream: TcpStream,
    /// The peer's socket address, for error messages.
    pub label: String,
}

/// A socket read view that enforces an *absolute* deadline across every
/// `read` call, by shrinking the stream's read timeout to the time left
/// before each one.
///
/// `set_read_timeout` alone is not enough for handshakes: it is a
/// per-`read` budget, and a frame read takes several reads — so a peer
/// that connects and then drips one byte per timeout window holds the
/// handshake (and with it the whole cluster bring-up) open indefinitely
/// while never being "silent long enough" to trip the timer. Wrapping the
/// stream in a `DeadlineReader` makes every byte count against one clock.
struct DeadlineReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "handshake deadline elapsed",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

fn handshake_err(peer: &str, reason: HandshakeFailure) -> RuntimeError {
    RuntimeError::Handshake {
        peer: peer.to_string(),
        reason,
    }
}

fn dial(addr: SocketAddr, deadline: Instant) -> Result<TcpStream, RuntimeError> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match TcpStream::connect_timeout(&addr, left.max(Duration::from_millis(1))) {
            Ok(stream) => return Ok(stream),
            Err(_) if left > DIAL_RETRY => std::thread::sleep(DIAL_RETRY),
            Err(source) => {
                return Err(RuntimeError::Connect {
                    peer: addr.to_string(),
                    source,
                })
            }
        }
    }
}

/// Reads one handshake frame off `stream` before `deadline`.
fn read_handshake(
    stream: &mut TcpStream,
    label: &str,
    deadline: Instant,
) -> Result<WireMsg, RuntimeError> {
    read_frame(&mut DeadlineReader { stream, deadline }).map_err(|e| match e {
        FrameError::Closed => handshake_err(label, HandshakeFailure::Closed),
        FrameError::Io(e)
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
        {
            handshake_err(label, HandshakeFailure::Timeout)
        }
        FrameError::Io(source) => RuntimeError::Io {
            peer: label.to_string(),
            source,
        },
        FrameError::Wire(source) => RuntimeError::Decode {
            peer: label.to_string(),
            source,
        },
    })
}

fn write_handshake(stream: &mut TcpStream, label: &str, msg: &WireMsg) -> Result<(), RuntimeError> {
    write_frame(stream, msg).map_err(|source| RuntimeError::Io {
        peer: label.to_string(),
        source,
    })
}

/// Accepts one stream from each of `lower` (ascending neighbor ids, all
/// below `node`), each identified and checked by the `Hello` it opens
/// with and answered `HelloAck`.
fn accept_lower(
    node: usize,
    lower: &[usize],
    identity: ClusterIdentity,
    listener: &TcpListener,
    deadline: Instant,
) -> Result<Vec<NeighborStream>, RuntimeError> {
    let accept_io = |source| RuntimeError::Io {
        peer: "accept".to_string(),
        source,
    };
    listener.set_nonblocking(true).map_err(accept_io)?;
    let epoll = Epoll::new().map_err(accept_io)?;
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, 0)
        .map_err(accept_io)?;
    let mut slots: Vec<Option<NeighborStream>> = lower.iter().map(|_| None).collect();
    let mut missing = lower.len();
    while missing > 0 {
        let (mut stream, remote) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(handshake_err(
                        &format!("{missing} missing lower-id neighbor(s)"),
                        HandshakeFailure::Timeout,
                    ));
                }
                let ms = left.as_millis().clamp(1, 1_000) as i32;
                epoll
                    .wait(&mut [EpollEvent::default()], ms)
                    .map_err(accept_io)?;
                continue;
            }
            Err(source) => return Err(accept_io(source)),
        };
        let label = remote.to_string();
        stream.set_nonblocking(false).map_err(accept_io)?;
        let hello = read_handshake(&mut stream, &label, deadline)?;
        let WireMsg::Hello {
            version,
            node: claimed,
            n_nodes,
            topology_hash,
        } = hello
        else {
            let got = hello.kind();
            return Err(handshake_err(
                &label,
                HandshakeFailure::UnexpectedMessage { got },
            ));
        };
        let slot = lower
            .iter()
            .position(|&peer| peer == claimed as usize)
            .filter(|&slot| slots[slot].is_none())
            .ok_or(RejectReason::UnknownPeer)
            .and_then(|slot| {
                let checked = identity.validate_hello(version, n_nodes, topology_hash);
                checked.map(|()| slot)
            });
        let slot = match slot {
            Ok(slot) => slot,
            Err(reason) => {
                let _ = write_frame(&mut stream, &WireMsg::Reject { reason });
                return Err(handshake_err(
                    &label,
                    HandshakeFailure::RejectedPeer {
                        node: claimed,
                        reason,
                    },
                ));
            }
        };
        let ack = WireMsg::HelloAck {
            version: PROTOCOL_VERSION,
            node: node as u32,
        };
        write_handshake(&mut stream, &label, &ack)?;
        slots[slot] = Some(NeighborStream { stream, label });
        missing -= 1;
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Reads the answer to the `Hello` written on `dialed`, which must be a
/// `HelloAck` from node `peer`.
fn await_ack(
    dialed: &mut NeighborStream,
    peer: usize,
    deadline: Instant,
) -> Result<(), RuntimeError> {
    let reason = match read_handshake(&mut dialed.stream, &dialed.label, deadline)? {
        WireMsg::HelloAck { version, .. } if version != PROTOCOL_VERSION => {
            HandshakeFailure::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            }
        }
        WireMsg::HelloAck { node, .. } if node as usize != peer => {
            HandshakeFailure::UnexpectedPeer {
                expected: Some(peer),
                got: node as usize,
            }
        }
        WireMsg::HelloAck { .. } => return Ok(()),
        WireMsg::Reject { reason } => HandshakeFailure::Rejected(reason),
        other => HandshakeFailure::UnexpectedMessage { got: other.kind() },
    };
    Err(handshake_err(&dialed.label, reason))
}

/// Connects node `node` of `graph` to every neighbor, handshaken, and
/// returns the streams in neighbor (slot) order. `dial_addrs` must hold an
/// address for every neighbor with a higher id (addresses for other ids
/// are ignored — lower-id neighbors dial `listener`).
///
/// # Errors
///
/// [`HandshakeFailure::MissingDialAddr`] before any I/O; then
/// [`RuntimeError::Connect`] naming the address when a dial is still
/// refused at the deadline, and [`RuntimeError::Handshake`] naming the
/// peer when a neighbor has not answered by then
/// ([`HandshakeFailure::Timeout`]), a `Hello` is turned away
/// ([`HandshakeFailure::RejectedPeer`]) or a dial is
/// ([`HandshakeFailure::Rejected`]).
pub(crate) fn connect_neighbors(
    node: usize,
    graph: &Graph,
    listener: &TcpListener,
    dial_addrs: &[(usize, SocketAddr)],
    deadline: Instant,
) -> Result<Vec<NeighborStream>, RuntimeError> {
    let neighbors = graph.neighbors(node);
    let (lower, higher) = neighbors.split_at(neighbors.partition_point(|&peer| peer < node));
    let mut addrs = Vec::with_capacity(higher.len());
    for &peer in higher {
        match dial_addrs.iter().find(|(id, _)| *id == peer) {
            Some(&(_, addr)) => addrs.push(addr),
            None => {
                return Err(handshake_err(
                    &format!("node {peer}"),
                    HandshakeFailure::MissingDialAddr { node: peer },
                ))
            }
        }
    }
    let identity = ClusterIdentity {
        n_nodes: graph.len() as u32,
        topology_hash: graph.topology_hash(),
    };
    let hello = WireMsg::Hello {
        version: PROTOCOL_VERSION,
        node: node as u32,
        n_nodes: identity.n_nodes,
        topology_hash: identity.topology_hash,
    };
    let mut dialed = Vec::with_capacity(addrs.len());
    for addr in addrs {
        let mut stream = dial(addr, deadline)?;
        let label = addr.to_string();
        write_handshake(&mut stream, &label, &hello)?;
        dialed.push(NeighborStream { stream, label });
    }
    let mut streams = if lower.is_empty() {
        Vec::new()
    } else {
        accept_lower(node, lower, identity, listener, deadline)?
    };
    for (s, &peer) in dialed.iter_mut().zip(higher) {
        await_ack(s, peer, deadline)?;
    }
    streams.append(&mut dialed);
    Ok(streams)
}

#[cfg(test)]
mod tests {
    use super::loopback_pair;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn a_stranger_ahead_of_the_driver_on_the_listener_fails_bring_up() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stranger = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let err = loopback_pair(&listener).expect_err("a stranger is not a carrier");
        let stranger = stranger.local_addr().unwrap().to_string();
        assert!(err.to_string().contains(&stranger), "{err}");

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (dial, acc) = loopback_pair(&listener).expect("the driver's own dial");
        assert_eq!(acc.peer_addr().unwrap(), dial.local_addr().unwrap());
    }
}
