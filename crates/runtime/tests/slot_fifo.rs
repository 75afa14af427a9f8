//! The reactor's per-link FIFO past two entries, against a fake peer on a
//! real socket.
//!
//! Round-aligned traffic never buffers more than two entries on a link,
//! so a node shard ([`dpc_runtime::reactor::host_node`]) keeps two in
//! place and spills the rest. These tests make a peer send ahead — three
//! round entries in one carrier frame, once before the node has stepped
//! its first round and once after a round ran on its deadline — and hold
//! the node's report to an agent block stepped by hand through the same
//! entries in the same order: same state to the bit, so no entry was lost,
//! reordered or counted twice.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use dpc_alg::diba::DibaConfig;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::agent::AgentCore;
use dpc_runtime::cluster::{node_specs, RuntimeConfig};
use dpc_runtime::node::{NodeReport, NodeSpec};
use dpc_runtime::reactor::host_node;
use dpc_runtime::wire::{
    encode_batch_into, read_frame, write_frame, BatchEntry, EntryKind, WireMsg, PROTOCOL_VERSION,
    TAG_DATA_BATCH,
};
use dpc_topology::Graph;

/// Node 1 of a 2-node path, the node under test; the fake peer is node 0.
fn spec(rt: &RuntimeConfig) -> NodeSpec {
    let graph = Graph::path(2);
    let utilities = ClusterBuilder::new(2).seed(0).build().utilities();
    let problem = PowerBudgetProblem::new(utilities, Watts(340.0)).unwrap();
    let specs = node_specs(&problem, &graph, DibaConfig::default(), rt).unwrap();
    specs.into_iter().nth(1).unwrap()
}

/// Peer entries for node 1's only link, distinct in both residual and
/// transfer so that taking them out of order moves the result.
fn ahead(n: usize) -> Vec<BatchEntry> {
    (1..=n)
        .map(|k| BatchEntry {
            slot: 0,
            e: -4.0 - k as f64,
            transfer: -0.125 * k as f64,
            settled: false,
            kind: EntryKind::Data,
        })
        .collect()
}

/// The payload of the next frame on `stream`.
fn next_payload(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}

/// Runs node 1 on this thread against a fake node 0 that completes the
/// handshake and then hands its stream to `peer`.
fn against(rt: &RuntimeConfig, peer: impl FnOnce(&mut TcpStream) + Send + 'static) -> NodeReport {
    let graph = Graph::path(2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hello = WireMsg::Hello {
        version: PROTOCOL_VERSION,
        node: 0,
        n_nodes: 2,
        topology_hash: graph.topology_hash(),
    };
    let fake = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &hello).unwrap();
        let ack = read_frame(&mut stream).unwrap();
        assert!(matches!(ack, WireMsg::HelloAck { node: 1, .. }), "{ack:?}");
        peer(&mut stream);
        // Hold the stream until the node is done with it.
        let _ = stream.read_to_end(&mut Vec::new());
    });
    let report = host_node(spec(rt), &graph, listener, &[], rt).expect("node finishes");
    fake.join().expect("fake peer");
    report
}

/// Node 1 as a block of one, stepped by hand: round `r` hears
/// `inbound[r - 1]` (`None` is a silent round).
fn by_hand(rt: &RuntimeConfig, inbound: &[Option<BatchEntry>]) -> NodeReport {
    let mut block = AgentCore::new([(spec(rt), &[0][..])]);
    for &entry in inbound {
        block.begin_round(0);
        block.send(0, |_| true);
        block.receive(0, 0, entry, false);
        assert!(!block.end_round(0), "no quorum with an unsettled peer");
    }
    block.into_reports().swap_remove(0)
}

fn assert_same(got: &NodeReport, want: &NodeReport) {
    assert_eq!(
        (got.p.to_bits(), got.e.to_bits()),
        (want.p.to_bits(), want.e.to_bits())
    );
    assert_eq!(got, want);
}

/// Three round entries in one frame, before the node has stepped its first
/// round: two go in place, the third spills, and the node runs its three
/// rounds on them in order.
#[test]
fn a_frame_of_three_entries_for_one_link_keeps_fifo_order() {
    let rt = RuntimeConfig {
        max_rounds: 3,
        handshake_timeout: Duration::from_secs(5),
        ..RuntimeConfig::default()
    };
    let got = against(&rt, |stream| {
        use std::io::Write;
        let mut frame = Vec::new();
        encode_batch_into(1, &ahead(3), &mut frame);
        stream.write_all(&frame).unwrap();
    });
    let want = by_hand(&rt, &ahead(3).into_iter().map(Some).collect::<Vec<_>>());
    assert_eq!((got.rounds, got.msgs_received), (3, 3));
    assert_same(&got, &want);
}

/// A round that runs on its deadline leaves the node a round behind its
/// peer: the peer's entries for rounds 1–3 then arrive together while the
/// node waits in round 2, and are heard in rounds 2–4, in order.
#[test]
fn entries_after_a_deadline_round_are_heard_a_round_late_in_order() {
    let rt = RuntimeConfig {
        max_rounds: 4,
        detect_after: 10,
        round_timeout: Duration::from_millis(200),
        handshake_timeout: Duration::from_secs(5),
        ..RuntimeConfig::default()
    };
    let got = against(&rt, |stream| {
        use std::io::Write;
        // The node's round-2 entry: round 1 ran on its deadline.
        loop {
            let payload = next_payload(stream);
            let round = u32::from_le_bytes(payload[1..5].try_into().unwrap());
            if payload[0] == TAG_DATA_BATCH && round == 2 {
                break;
            }
        }
        let mut frame = Vec::new();
        encode_batch_into(1, &ahead(3), &mut frame);
        stream.write_all(&frame).unwrap();
    });
    let mut inbound = vec![None];
    inbound.extend(ahead(3).into_iter().map(Some));
    let want = by_hand(&rt, &inbound);
    assert_eq!((got.rounds, got.msgs_received), (4, 3));
    assert!(got.pruned.is_empty(), "one silent round is not a prune");
    assert_same(&got, &want);
}
