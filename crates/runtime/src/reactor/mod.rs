//! The scale-out reactor runtime: a sharded, epoll-backed readiness loop
//! that hosts thousands of DiBA agents per poller thread.
//!
//! One OS thread per node tops out around a thousand agents per process.
//! The reactor inverts that: a handful of *poller shards* (one thread
//! each, sized by the load-driven auto-tune or `--shards K`) own
//! contiguous node ranges cut by [`dpc_topology::Graph::shard_offsets`],
//! and every agent is a state machine stepped when its inputs are ready —
//! memory and threads are O(agents) and O(shards) respectively, never
//! O(agents) threads.
//!
//! The same shard loop is the multi-process deployment: [`host_node`]
//! (behind `dpc node`) runs a shard whose node range is one agent, whose
//! shard id is the node id and whose carriers are the TCP streams to that
//! node's graph neighbors — one process per server, one thread per
//! process, the wire format below unchanged.
//!
//! Every entry is addressed by the *receiving* shard's link index
//! (computed here, centrally, so delivery needs no lookups), and moves one
//! of two ways:
//!
//! * **intra-shard** edges carry no bytes: the sender writes the entry
//!   straight into the receiving link's inbox FIFO, a flat per-shard
//!   array beside the shard's [`AgentCore`] block;
//! * **cross-shard** traffic is coalesced onto **carriers**, one byte
//!   stream per pair of shards that share an edge — always a real
//!   nonblocking loopback TCP socket driven by the shard's epoll (at most
//!   `shards·(shards−1)/2` of them), which packs round traffic into
//!   [`crate::wire::DataBatch`] frames. Bring-up made both ends of every
//!   carrier and checked that the accepted end is the one it dialed, so a
//!   carrier carries no handshake; only a node process, whose peers are
//!   other processes, runs the `Hello` exchange, in bring-up.
//!
//! A deployment of K shards and P carriers holds K + 2·P + 1 descriptors
//! at once (an epoll per shard, both socket ends per carrier, the
//! listener). When `RLIMIT_NOFILE` is lower, bring-up fails with the OS
//! error (`Too many open files`) under a label naming K, P and that need.
//!
//! Agents consume exactly one entry per live slot per round in slot
//! order, so the arithmetic is bitwise-identical to the lockstep
//! reference at equal seeds (pinned by the transport-equivalence tests)
//! — how an entry moves never changes what it says.

mod bringup;
mod conn;
mod shard;
// `epoll` takes raw syscalls: the one module outside `vendor/` that the
// `unsafe_code` lint allows. Its four calls each carry a `SAFETY:` note.
#[allow(unsafe_code)]
mod sys;

use conn::{Carrier, Link};
use shard::{run_shard, Shard};
use sys::Epoll;

use crate::agent::AgentCore;
use crate::cluster::{RuntimeConfig, ShardCount};
use crate::error::RuntimeError;
use crate::node::{NodeReport, NodeSpec};
use dpc_topology::Graph;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// What a reactor deployment produced, beyond the reports themselves.
pub struct ReactorRun {
    /// Per-node reports, ordered by node id.
    pub reports: Vec<NodeReport>,
    /// Peak process thread count observed during the run — the number
    /// that substantiates the O(shards)-not-O(agents) claim.
    pub peak_threads: u32,
    /// Peak resident set size (KiB) from `/proc/self/status` (`VmHWM`),
    /// when the platform exposes it.
    pub peak_rss_kb: Option<u64>,
    /// Poller shards actually deployed (the auto-tune's pick, or the
    /// clamped fixed request) — re-reported in the cluster header.
    pub shards: usize,
}

/// Auto-tune target: per-round work units (Σ degree+4 over hosted nodes,
/// the same cost model [`Graph::shard_offsets`] balances) one shard can
/// carry before splitting pays. Calibrated from the runtime bench's
/// measured per-shard round cost — below this, cross-shard carrier
/// latency eats what parallelism buys (see DESIGN.md, "Auto-sharding").
const AUTO_WORK_PER_SHARD: usize = 16_384;

/// Most shards the auto-tune will deploy, matching the previous flag's
/// clamp; fixed `--shards K` may exceed it explicitly.
const AUTO_MAX_SHARDS: usize = 8;

/// Resolves the configured shard count against the actual load: a fixed
/// request is clamped to `[1, n]`, while [`ShardCount::Auto`] sizes from
/// total round work, host parallelism, and `AUTO_WORK_PER_SHARD`.
pub(crate) fn resolve_shard_count(requested: ShardCount, graph: &Graph) -> usize {
    let n = graph.len();
    match requested {
        ShardCount::Fixed(k) => k.clamp(1, n.max(1)),
        ShardCount::Auto => {
            let cores = dpc_alg::exec::host_parallelism().clamp(1, AUTO_MAX_SHARDS);
            let total_work: usize = (0..n).map(|v| graph.neighbors(v).len() + 4).sum();
            total_work
                .div_ceil(AUTO_WORK_PER_SHARD)
                .clamp(1, cores)
                .clamp(1, n.max(1))
        }
    }
}

fn shard_of(cuts: &[usize], node: usize) -> usize {
    cuts.partition_point(|&c| c <= node) - 1
}

fn bringup_io(source: io::Error) -> RuntimeError {
    RuntimeError::Io {
        peer: "reactor bring-up".to_string(),
        source,
    }
}

fn proc_status_value(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            if let Some(rest) = rest.strip_prefix(':') {
                return rest.split_whitespace().next()?.parse().ok();
            }
        }
    }
    None
}

/// Runs a full cluster on the reactor substrate and waits for every
/// agent's report.
///
/// # Errors
///
/// [`RuntimeError::Io`] when a loopback socket or an epoll instance
/// cannot be made — `Too many open files` when `RLIMIT_NOFILE` is below
/// the deployment's K + 2·P + 1 descriptors, which the error names, or
/// when a stream other than the driver's own dial reaches the bring-up
/// listener — and the first protocol/decode error any shard hits; every
/// error names the peer it happened against.
///
/// # Panics
///
/// Panics if `specs` does not hold exactly one spec per graph node, or
/// if a shard thread itself panics (a bug, not an environmental failure).
pub fn run_reactor_cluster(
    specs: Vec<NodeSpec>,
    graph: &Graph,
    rt: &RuntimeConfig,
) -> Result<ReactorRun, RuntimeError> {
    let n = graph.len();
    assert_eq!(specs.len(), n, "one node spec per graph node");
    let shards = resolve_shard_count(rt.shards, graph);
    let cuts = graph.shard_offsets(shards);

    // Which shard pairs exchange traffic: one carrier per pair that shares
    // an edge.
    let mut pair_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (u, v) in graph.edges() {
        let (su, sv) = (shard_of(&cuts, u), shard_of(&cuts, v));
        if su != sv {
            pair_set.insert((su.min(sv), su.max(sv)));
        }
    }

    // Every bring-up failure names the descriptors the deployment holds at
    // once, so a shortage says which `ulimit -n` would fit it.
    let carriers = pair_set.len();
    let label = format!(
        "reactor bring-up of {shards} shards and {carriers} carriers, \
         which need {} file descriptors",
        shards + 2 * carriers + 1
    );
    let bringup_err = |source| RuntimeError::Io {
        peer: label.clone(),
        source,
    };

    // One loopback socket pair per carrier, keyed (owner shard, peer
    // shard): the lower shard holds the dialed end, the higher the
    // accepted one.
    let mut streams: HashMap<(usize, usize), TcpStream> = HashMap::new();
    if carriers > 0 {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(bringup_err)?;
        for &(a, b) in &pair_set {
            let (dial, acc) = bringup::loopback_pair(&listener).map_err(bringup_err)?;
            streams.insert((a, b), dial);
            streams.insert((b, a), acc);
        }
    }

    // Pass 1: assign every link its shard-local index, in the exact order
    // pass 2 creates them (nodes ascending, neighbor slots in order — the
    // block's slot order), so outgoing entries can be tagged with the
    // *receiver's* index.
    let mut link_index: HashMap<(usize, usize), u32> = HashMap::new();
    for s in 0..shards {
        let mut counter = 0u32;
        for node in cuts[s]..cuts[s + 1] {
            for &peer in graph.neighbors(node) {
                link_index.insert((node, peer), counter);
                counter += 1;
            }
        }
    }

    // Pass 2: assemble each shard — carriers in deterministic order (peer
    // shards ascending), agents, and their links.
    let abort = Arc::new(AtomicBool::new(false));
    let mut specs_by_node: Vec<Option<NodeSpec>> = specs.into_iter().map(Some).collect();
    let mut shard_structs = Vec::with_capacity(shards);
    for s in 0..shards {
        let epoll = Epoll::new().map_err(bringup_err)?;
        let mut carriers: Vec<Carrier> = Vec::new();
        let mut carrier_of_peer: HashMap<usize, u32> = HashMap::new();
        for &(a, b) in &pair_set {
            if a != s && b != s {
                continue;
            }
            let peer_shard = if a == s { b } else { a };
            let stream = streams.remove(&(s, peer_shard));
            carrier_of_peer.insert(peer_shard, carriers.len() as u32);
            carriers.push(Carrier::new(
                format!("shard {peer_shard}"),
                stream.expect("each socket end is taken once"),
            ));
        }

        let hosted = cuts[s]..cuts[s + 1];
        let specs: Vec<NodeSpec> = hosted
            .clone()
            .map(|node| specs_by_node[node].take().expect("spec consumed once"))
            .collect();
        let block = AgentCore::new(specs.into_iter().map(|spec| {
            let id = spec.id;
            (spec, graph.neighbors(id))
        }));
        let mut links: Vec<Link> = Vec::new();
        for (agent_idx, node) in hosted.enumerate() {
            for &peer in graph.neighbors(node) {
                let peer_shard = shard_of(&cuts, peer);
                // Same shard: in place. Otherwise the pair's carrier must exist.
                let carrier = (peer_shard != s).then(|| carrier_of_peer[&peer_shard]);
                let link_idx = links.len() as u32;
                debug_assert_eq!(link_index[&(node, peer)], link_idx, "pass 1 order matches");
                links.push(Link {
                    carrier,
                    peer_slot: link_index[&(peer, node)],
                });
                if let Some(ci) = carrier {
                    carriers[ci as usize].fed_links.push(link_idx);
                }
            }
            debug_assert_eq!(links.len(), block.slots(agent_idx).end, "block slot order");
        }
        shard_structs.push(Shard {
            id: s,
            epoll,
            block,
            links,
            carriers,
            round_timeout: rt.round_timeout,
            coalesce: rt.coalesce,
            abort: Arc::clone(&abort),
        });
    }

    let handles: Vec<_> = shard_structs
        .into_iter()
        .map(|sh| {
            thread::Builder::new()
                .name(format!("dpc-reactor-{}", sh.id))
                .spawn(move || run_shard(sh))
                .expect("spawning a reactor shard thread")
        })
        .collect();

    // No shard spawns threads, so the count with every shard spawned is
    // the run's peak: one sample, then block on the joins.
    let peak_threads = proc_status_value("Threads").unwrap_or(0) as u32;
    let mut tagged: Vec<(usize, NodeReport)> = Vec::with_capacity(n);
    let mut first_err = None;
    for handle in handles {
        match handle.join().expect("reactor shard panicked") {
            Ok(part) => tagged.extend(part),
            Err(e) if first_err.is_none() => first_err = Some(e),
            Err(_) => {}
        }
    }
    let peak_rss_kb = proc_status_value("VmHWM");
    if let Some(e) = first_err {
        return Err(e);
    }
    assert_eq!(tagged.len(), n, "every agent reports exactly once");
    tagged.sort_by_key(|(node, _)| *node);
    Ok(ReactorRun {
        reports: tagged.into_iter().map(|(_, r)| r).collect(),
        // A shard that already finished is not in the sample; the floor
        // is exact.
        peak_threads: peak_threads.max(shards as u32 + 1),
        peak_rss_kb,
        shards,
    })
}

/// Runs ONE agent as a one-agent reactor shard on the calling thread and
/// returns its report — the per-process deployment behind `dpc node`.
///
/// The shard's id is the node id and it has one socket carrier per graph
/// neighbor: `spec.id` dials every higher-id neighbor at its `dial_addrs`
/// entry and accepts every lower-id neighbor on `listener`
/// (dial-low/accept-high, so peers may start in any order). The whole
/// bring-up — dial retries, accepts, and the `Hello`/`HelloAck` exchange
/// on every stream — shares the single deadline `rt.handshake_timeout`;
/// the shard loop then starts on handshaken carriers.
///
/// # Errors
///
/// [`RuntimeError::Connect`] naming the address when a peer is still
/// unreachable at the deadline; [`RuntimeError::Handshake`] naming the
/// peer's address and reason on a missing dial address, a timeout, a
/// launch-configuration mismatch or an unexpected peer; and the first
/// protocol/decode error on an established link. Peers that leave or die
/// mid-run are not errors — the agent prunes them and carries on.
pub fn host_node(
    spec: NodeSpec,
    graph: &Graph,
    listener: TcpListener,
    dial_addrs: &[(usize, SocketAddr)],
    rt: &RuntimeConfig,
) -> Result<NodeReport, RuntimeError> {
    let node = spec.id;
    let neighbors = graph.neighbors(node);
    let deadline = Instant::now() + rt.handshake_timeout;
    let streams = bringup::connect_neighbors(node, graph, &listener, dial_addrs, deadline)?;
    drop(listener);

    let mut carriers = Vec::with_capacity(neighbors.len());
    let mut links = Vec::with_capacity(neighbors.len());
    for (slot, (&peer, s)) in neighbors.iter().zip(streams).enumerate() {
        let slot = slot as u32;
        s.stream.set_nodelay(true).map_err(bringup_io)?;
        s.stream.set_nonblocking(true).map_err(bringup_io)?;
        let mut carrier = Carrier::new(s.label, s.stream);
        carrier.fed_links.push(slot);
        carriers.push(carrier);
        // The peer is a one-agent shard too, so its link index for this
        // edge is this node's position in its (ascending) neighbor row.
        let peer_slot = graph.neighbors(peer).binary_search(&node);
        links.push(Link {
            carrier: Some(slot),
            peer_slot: peer_slot.expect("edges are listed from both ends") as u32,
        });
    }
    let shard = Shard {
        id: node,
        epoll: Epoll::new().map_err(bringup_io)?,
        block: AgentCore::new([(spec, neighbors)]),
        links,
        carriers,
        round_timeout: rt.round_timeout,
        coalesce: rt.coalesce,
        abort: Arc::new(AtomicBool::new(false)),
    };
    let (_, report) = run_shard(shard)?.pop().expect("one agent, one report");
    Ok(report)
}
