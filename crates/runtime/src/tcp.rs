//! TCP transport: one socket per graph edge, frames from [`crate::wire`].
//!
//! Link establishment follows the dial-low/accept-high rule: for every
//! undirected edge `(u, v)` with `u < v`, node `u` dials node `v`'s listen
//! address and opens the handshake with `Hello`; `v` validates the claimed
//! identity against its own launch configuration and answers `HelloAck` or
//! a named `Reject`. Each node therefore dials its higher-id neighbors and
//! accepts from its lower-id ones, and no ordering of node start-ups can
//! deadlock: dials retry until the peer's listener is up, hellos are sent
//! before any node blocks in accept, and every accept/ack step runs under
//! a deadline.
//!
//! After establishment each link gets a reader thread that decodes frames
//! into a channel, so the node loop's per-slot `recv` is a plain
//! `recv_timeout`.
//!
//! A [`TcpTransport`] is one node's endpoint: a fixed set of *slots*, one
//! per graph neighbor in ascending-id order (the same order as
//! [`dpc_topology::Graph::neighbors`]), each carrying framed [`WireMsg`]s
//! with FIFO delivery. Slots are stable for the life of the transport;
//! links that die stay addressable (sends report [`Delivery::Closed`],
//! receives report [`Incoming::Closed`]) so the node loop in
//! [`crate::node`] owns all liveness bookkeeping.

use crate::error::{HandshakeFailure, RuntimeError};
use crate::wire::{
    encode_frame_into, read_frame, write_frame, ClusterIdentity, FrameError, WireError, WireMsg,
    PROTOCOL_VERSION,
};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// What a send did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The frame was handed to the link.
    Sent,
    /// The link is gone (peer exited or connection broke): the frame was
    /// *not* delivered and any mass it carried must be reclaimed by the
    /// caller.
    Closed,
}

/// What a receive produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Incoming {
    /// A decoded message.
    Msg(WireMsg),
    /// Nothing arrived within the timeout (the peer is silent, not
    /// necessarily gone — the node loop counts these against
    /// `detect_after`).
    Timeout,
    /// The link is gone.
    Closed,
}

/// The launch identity a node asserts (and demands of its peers) in the
/// link-establishment exchange, plus the deadline it runs under.
#[derive(Debug, Clone, Copy)]
pub struct HandshakeContext {
    /// Cluster size this node was launched with.
    pub n_nodes: usize,
    /// Fingerprint of the communication graph this node was launched with.
    pub topology_hash: u64,
    /// Per-step handshake deadline.
    pub timeout: Duration,
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

/// How dials behave while a peer's listener may still be coming up.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Additional connect attempts after the first (0 = dial once).
    pub retries: u32,
    /// Pause between attempts.
    pub delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 50,
            delay: Duration::from_millis(100),
        }
    }
}

enum LinkState {
    /// Handshake not yet run.
    Pending,
    /// Established: writes go to `stream`, reads come decoded off `rx`.
    Up {
        stream: TcpStream,
        rx: Receiver<Result<WireMsg, WireError>>,
        write_closed: bool,
    },
    /// Gone (peer exited or connection broke).
    Down,
}

struct TcpLink {
    peer: usize,
    label: String,
    state: LinkState,
}

/// One node's TCP endpoint: a bound listener plus dial targets for its
/// higher-id neighbors. Links come up in [`TcpTransport::handshake`].
pub struct TcpTransport {
    node: usize,
    listener: Option<TcpListener>,
    dial_addrs: Vec<(usize, SocketAddr)>,
    retry: RetryPolicy,
    links: Vec<TcpLink>,
    /// Reused send-side encode buffer: the steady-state send path frames
    /// every outgoing message here instead of allocating per message.
    scratch: Vec<u8>,
}

impl TcpTransport {
    /// Creates the endpoint. `neighbors` is this node's neighbor list in
    /// ascending id order (as [`dpc_topology::Graph::neighbors`] returns
    /// it); `dial_addrs` must provide an address for every neighbor with a
    /// higher id than `node` (addresses for lower ids are ignored — those
    /// peers dial us).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Handshake`] with [`HandshakeFailure::MissingDialAddr`]
    /// when a higher-id neighbor has no dial address.
    pub fn new(
        node: usize,
        listener: TcpListener,
        neighbors: &[usize],
        dial_addrs: &[(usize, SocketAddr)],
        retry: RetryPolicy,
    ) -> Result<TcpTransport, RuntimeError> {
        let mut links = Vec::with_capacity(neighbors.len());
        for &peer in neighbors {
            let label = if peer > node {
                match dial_addrs.iter().find(|(id, _)| *id == peer) {
                    Some((_, addr)) => addr.to_string(),
                    None => {
                        return Err(RuntimeError::Handshake {
                            peer: format!("node {peer}"),
                            reason: HandshakeFailure::MissingDialAddr { node: peer },
                        })
                    }
                }
            } else {
                format!("node {peer}")
            };
            links.push(TcpLink {
                peer,
                label,
                state: LinkState::Pending,
            });
        }
        Ok(TcpTransport {
            node,
            listener: Some(listener),
            dial_addrs: dial_addrs.to_vec(),
            retry,
            links,
            scratch: Vec::new(),
        })
    }

    /// The local listener's bound address.
    ///
    /// # Errors
    ///
    /// Propagates the OS failure to read the socket name.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match &self.listener {
            Some(l) => l.local_addr(),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener already consumed by handshake",
            )),
        }
    }

    fn slot_of(&self, peer: usize) -> Option<usize> {
        self.links.iter().position(|l| l.peer == peer)
    }

    fn dial(&self, addr: SocketAddr) -> Result<TcpStream, RuntimeError> {
        let mut attempt = 0;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(_) if attempt < self.retry.retries => {
                    attempt += 1;
                    std::thread::sleep(self.retry.delay);
                }
                Err(source) => {
                    return Err(RuntimeError::Connect {
                        peer: addr.to_string(),
                        source,
                    })
                }
            }
        }
    }

    fn read_handshake_frame(
        stream: &mut TcpStream,
        label: &str,
        deadline: Instant,
    ) -> Result<WireMsg, RuntimeError> {
        let mut reader = DeadlineReader { stream, deadline };
        match read_frame(&mut reader) {
            Ok(msg) => Ok(msg),
            Err(FrameError::Closed) => Err(RuntimeError::Handshake {
                peer: label.to_string(),
                reason: HandshakeFailure::Closed,
            }),
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(RuntimeError::Handshake {
                    peer: label.to_string(),
                    reason: HandshakeFailure::Timeout,
                })
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

    fn bring_up(&mut self, slot: usize, stream: TcpStream) {
        let _ = stream.set_read_timeout(None);
        let (tx, rx) = unbounded::<Result<WireMsg, WireError>>();
        let mut reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => {
                self.links[slot].state = LinkState::Down;
                return;
            }
        };
        std::thread::Builder::new()
            .name(format!("dpc-link-{}-{}", self.node, self.links[slot].peer))
            .spawn(move || loop {
                match read_frame(&mut reader) {
                    Ok(msg) => {
                        if tx.send(Ok(msg)).is_err() {
                            break;
                        }
                    }
                    Err(FrameError::Wire(e)) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                    Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
                }
            })
            .expect("spawning a link reader thread");
        self.links[slot].state = LinkState::Up {
            stream,
            rx,
            write_closed: false,
        };
    }

    /// Number of neighbor slots.
    pub fn degree(&self) -> usize {
        self.links.len()
    }

    /// Neighbor node id behind `slot`.
    pub fn peer(&self, slot: usize) -> usize {
        self.links[slot].peer
    }

    /// Human-readable peer label for error reporting (`"node 3"` or
    /// `"127.0.0.1:4102"`).
    pub fn peer_label(&self, slot: usize) -> String {
        self.links[slot].label.clone()
    }

    /// Runs the hello/ack exchange on every slot: the lower-id endpoint of
    /// each link dials (sends `Hello`), the higher-id endpoint validates
    /// and answers `HelloAck` or `Reject`.
    ///
    /// # Errors
    ///
    /// A [`RuntimeError::Handshake`] naming the peer and reason on any
    /// mismatch, timeout, or protocol confusion.
    pub fn handshake(&mut self, ctx: &HandshakeContext) -> Result<(), RuntimeError> {
        let identity = ClusterIdentity {
            n_nodes: ctx.n_nodes as u32,
            topology_hash: ctx.topology_hash,
        };
        let node = self.node;

        // Phase 1 — dial every higher-id neighbor and open with Hello.
        let dials: Vec<(usize, SocketAddr)> = self
            .dial_addrs
            .iter()
            .filter(|(id, _)| *id > node && self.slot_of(*id).is_some())
            .copied()
            .collect();
        let mut dialed: Vec<(usize, TcpStream)> = Vec::with_capacity(dials.len());
        for (peer, addr) in dials {
            let mut stream = self.dial(addr)?;
            let hello = WireMsg::Hello {
                version: PROTOCOL_VERSION,
                node: node as u32,
                n_nodes: identity.n_nodes,
                topology_hash: identity.topology_hash,
            };
            write_frame(&mut stream, &hello).map_err(|source| RuntimeError::Io {
                peer: addr.to_string(),
                source,
            })?;
            dialed.push((peer, stream));
        }

        // Phase 2 — accept every lower-id neighbor under one deadline.
        let expected_accepts = self.links.iter().filter(|l| l.peer < node).count();
        if expected_accepts > 0 {
            let listener = self
                .listener
                .take()
                .ok_or_else(|| RuntimeError::Handshake {
                    peer: "listener".to_string(),
                    reason: HandshakeFailure::Closed,
                })?;
            listener
                .set_nonblocking(true)
                .map_err(|source| RuntimeError::Bind {
                    addr: listener
                        .local_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_else(|_| "<unknown>".to_string()),
                    source,
                })?;
            let deadline = Instant::now() + ctx.timeout;
            let mut accepted = 0usize;
            while accepted < expected_accepts {
                match listener.accept() {
                    Ok((mut stream, remote)) => {
                        let _ = stream.set_nodelay(true);
                        let label = remote.to_string();
                        // The same deadline that bounds the accept loop
                        // bounds this peer's hello bytes: connecting and
                        // then stalling (or dripping bytes) cannot hold
                        // bring-up open past it.
                        let msg = Self::read_handshake_frame(&mut stream, &label, deadline)?;
                        let (version, their_node, n_nodes, topology_hash) = match msg {
                            WireMsg::Hello {
                                version,
                                node,
                                n_nodes,
                                topology_hash,
                            } => (version, node, n_nodes, topology_hash),
                            other => {
                                return Err(RuntimeError::Handshake {
                                    peer: label,
                                    reason: HandshakeFailure::UnexpectedMessage {
                                        got: other.kind(),
                                    },
                                })
                            }
                        };
                        let slot = match self.slot_of(their_node as usize) {
                            Some(slot)
                                if (their_node as usize) < node
                                    && matches!(self.links[slot].state, LinkState::Pending) =>
                            {
                                slot
                            }
                            _ => {
                                let reason = crate::wire::RejectReason::UnknownPeer;
                                let _ = write_frame(&mut stream, &WireMsg::Reject { reason });
                                return Err(RuntimeError::Handshake {
                                    peer: label,
                                    reason: HandshakeFailure::RejectedPeer {
                                        node: their_node,
                                        reason,
                                    },
                                });
                            }
                        };
                        if let Err(reason) =
                            identity.validate_hello(version, n_nodes, topology_hash)
                        {
                            let _ = write_frame(&mut stream, &WireMsg::Reject { reason });
                            return Err(RuntimeError::Handshake {
                                peer: label,
                                reason: HandshakeFailure::RejectedPeer {
                                    node: their_node,
                                    reason,
                                },
                            });
                        }
                        let ack = WireMsg::HelloAck {
                            version: PROTOCOL_VERSION,
                            node: node as u32,
                        };
                        write_frame(&mut stream, &ack).map_err(|source| RuntimeError::Io {
                            peer: label.clone(),
                            source,
                        })?;
                        self.links[slot].label = label;
                        self.bring_up(slot, stream);
                        accepted += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(RuntimeError::Handshake {
                                peer: format!(
                                    "{} missing lower-id neighbor(s)",
                                    expected_accepts - accepted
                                ),
                                reason: HandshakeFailure::Timeout,
                            });
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(source) => {
                        return Err(RuntimeError::Io {
                            peer: "accept".to_string(),
                            source,
                        })
                    }
                }
            }
        }
        self.listener = None;

        // Phase 3 — collect HelloAck/Reject on every dialed link, all under
        // one further deadline.
        let ack_deadline = Instant::now() + ctx.timeout;
        for (peer, mut stream) in dialed {
            let slot = self.slot_of(peer).expect("dialed an existing slot");
            let label = self.links[slot].label.clone();
            match Self::read_handshake_frame(&mut stream, &label, ack_deadline)? {
                WireMsg::HelloAck {
                    version,
                    node: their_node,
                } => {
                    if version != PROTOCOL_VERSION {
                        return Err(RuntimeError::Handshake {
                            peer: label,
                            reason: HandshakeFailure::VersionMismatch {
                                ours: PROTOCOL_VERSION,
                                theirs: version,
                            },
                        });
                    }
                    if their_node as usize != peer {
                        return Err(RuntimeError::Handshake {
                            peer: label,
                            reason: HandshakeFailure::UnexpectedPeer {
                                expected: Some(peer),
                                got: their_node as usize,
                            },
                        });
                    }
                    self.bring_up(slot, stream);
                }
                WireMsg::Reject { reason } => {
                    return Err(RuntimeError::Handshake {
                        peer: label,
                        reason: HandshakeFailure::Rejected(reason),
                    })
                }
                other => {
                    return Err(RuntimeError::Handshake {
                        peer: label,
                        reason: HandshakeFailure::UnexpectedMessage { got: other.kind() },
                    })
                }
            }
        }
        Ok(())
    }

    /// Sends one message on `slot`.
    pub fn send(&mut self, slot: usize, msg: &WireMsg) -> Delivery {
        match &mut self.links[slot].state {
            LinkState::Up {
                stream,
                write_closed,
                ..
            } if !*write_closed => {
                // Frame into the transport's reused scratch buffer — the
                // steady-state send path performs no heap allocation.
                self.scratch.clear();
                encode_frame_into(msg, &mut self.scratch);
                match stream.write_all(&self.scratch) {
                    Ok(()) => Delivery::Sent,
                    Err(_) => {
                        *write_closed = true;
                        Delivery::Closed
                    }
                }
            }
            _ => Delivery::Closed,
        }
    }

    /// Waits up to `timeout` for one message on `slot`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Decode`] when the peer's bytes are invalid — the
    /// link is poisoned and the node should abort rather than act on a
    /// corrupt stream.
    pub fn recv(&mut self, slot: usize, timeout: Duration) -> Result<Incoming, RuntimeError> {
        let label = self.links[slot].label.clone();
        match &mut self.links[slot].state {
            LinkState::Up { rx, .. } => match rx.recv_timeout(timeout) {
                Ok(Ok(msg)) => Ok(Incoming::Msg(msg)),
                Ok(Err(source)) => Err(RuntimeError::Decode {
                    peer: label,
                    source,
                }),
                Err(RecvTimeoutError::Timeout) => Ok(Incoming::Timeout),
                Err(RecvTimeoutError::Disconnected) => {
                    self.links[slot].state = LinkState::Down;
                    Ok(Incoming::Closed)
                }
            },
            LinkState::Pending | LinkState::Down => Ok(Incoming::Closed),
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Wake every reader thread so none is left blocked on a socket the
        // process no longer cares about.
        for link in &self.links {
            if let LinkState::Up { stream, .. } = &link.state {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}
