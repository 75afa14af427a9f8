//! Socket bring-up for a one-agent node shard ([`super::host_node`]): get
//! one connected stream per graph neighbor, all under one deadline.
//!
//! Link establishment follows the dial-low/accept-high rule: for every
//! undirected edge `(u, v)` with `u < v`, node `u` dials node `v`'s listen
//! address and `v` accepts. Dials retry until the deadline, so peers may
//! start in any order. An accepted stream is anonymous until its dialer
//! speaks, so the acceptor reads the opening `Hello` here — only to learn
//! *which* neighbor the stream is — and keeps the bytes: the shard loop's
//! handshake state machine validates and answers them like any others. A
//! `Hello` from anyone but a still-missing lower-id neighbor is answered
//! `Reject{UnknownPeer}` and fails bring-up.

use super::sys::{Epoll, EpollEvent, EPOLLIN};
use crate::error::{HandshakeFailure, RuntimeError};
use crate::wire::{read_frame, write_frame, FrameError, RejectReason, WireMsg};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Pause between connect attempts while a peer's listener is coming up.
const DIAL_RETRY: Duration = Duration::from_millis(50);

/// One neighbor's connected stream.
pub struct NeighborStream {
    pub stream: TcpStream,
    /// The peer's socket address, for error messages.
    pub label: String,
    /// Bytes already read off the stream (an accepted stream's `Hello`).
    pub preread: Vec<u8>,
}

/// A socket read view that enforces an *absolute* deadline across every
/// `read` call, by shrinking the stream's read timeout to the time left
/// before each one, and records the bytes it hands out.
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
    seen: Vec<u8>,
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
        let n = self.stream.read(buf)?;
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
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

/// Reads the dialer's opening frame, which must be a `Hello`, and returns
/// the node id it claims along with the raw bytes.
fn read_hello(
    stream: &mut TcpStream,
    label: &str,
    deadline: Instant,
) -> Result<(u32, Vec<u8>), RuntimeError> {
    let mut reader = DeadlineReader {
        stream,
        deadline,
        seen: Vec::new(),
    };
    match read_frame(&mut reader) {
        Ok(WireMsg::Hello { node, .. }) => Ok((node, reader.seen)),
        Ok(other) => Err(handshake_err(
            label,
            HandshakeFailure::UnexpectedMessage { got: other.kind() },
        )),
        Err(FrameError::Closed) => Err(handshake_err(label, HandshakeFailure::Closed)),
        Err(FrameError::Io(e))
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
        {
            Err(handshake_err(label, HandshakeFailure::Timeout))
        }
        Err(FrameError::Io(source)) => Err(RuntimeError::Io {
            peer: label.to_string(),
            source,
        }),
        Err(FrameError::Wire(source)) => Err(RuntimeError::Decode {
            peer: label.to_string(),
            source,
        }),
    }
}

/// Accepts one stream from each of `lower` (ascending neighbor ids, all
/// below `node`), identified by the `Hello` it opens with.
fn accept_lower(
    lower: &[usize],
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
        let (claimed, preread) = read_hello(&mut stream, &label, deadline)?;
        let slot = lower
            .iter()
            .position(|&peer| peer == claimed as usize)
            .filter(|&slot| slots[slot].is_none());
        let Some(slot) = slot else {
            let reason = RejectReason::UnknownPeer;
            let _ = write_frame(&mut stream, &WireMsg::Reject { reason });
            return Err(handshake_err(
                &label,
                HandshakeFailure::RejectedPeer {
                    node: claimed,
                    reason,
                },
            ));
        };
        slots[slot] = Some(NeighborStream {
            stream,
            label,
            preread,
        });
        missing -= 1;
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Connects `node` to every neighbor, returning the streams in neighbor
/// (slot) order. `neighbors` is ascending, as
/// [`dpc_topology::Graph::neighbors`] returns it; `dial_addrs` must hold
/// an address for every neighbor with a higher id (addresses for other
/// ids are ignored — lower-id neighbors dial `listener`).
///
/// # Errors
///
/// [`HandshakeFailure::MissingDialAddr`] before any I/O; then
/// [`RuntimeError::Connect`] naming the address when a dial is still
/// refused at the deadline, and [`RuntimeError::Handshake`] when a
/// lower-id neighbor has not introduced itself by then
/// ([`HandshakeFailure::Timeout`]) or someone else did
/// ([`HandshakeFailure::RejectedPeer`]).
pub fn connect_neighbors(
    node: usize,
    neighbors: &[usize],
    listener: &TcpListener,
    dial_addrs: &[(usize, SocketAddr)],
    deadline: Instant,
) -> Result<Vec<NeighborStream>, RuntimeError> {
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
    let mut dialed = Vec::with_capacity(addrs.len());
    for addr in addrs {
        dialed.push(NeighborStream {
            stream: dial(addr, deadline)?,
            label: addr.to_string(),
            preread: Vec::new(),
        });
    }
    let mut streams = if lower.is_empty() {
        Vec::new()
    } else {
        accept_lower(lower, listener, deadline)?
    };
    streams.append(&mut dialed);
    Ok(streams)
}
