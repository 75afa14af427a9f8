//! `dpc node`: run one DiBA agent over TCP as a one-agent reactor shard —
//! one invocation per server in a real deployment. Blocks until the agent
//! reaches convergence quorum (or exhausts its round budget) and then
//! reports its final state.

use super::{parse_text, runtime_err, CliError, Deployment, Job, Options, Result};
use crate::alg::diba::DibaConfig;
use crate::runtime::cluster::{node_specs, TransportKind};
use std::net::ToSocketAddrs;

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let id = o.num_opt("id", ..)?;
    let mut d = Deployment::parse(o, 4)?;
    d.rt.transport = TransportKind::Reactor;
    let listen = o
        .text("listen")
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    // Each entry is `id=ip:port`; the address resolves when the job runs.
    let peers = o.text("peers").unwrap_or_default();
    let peers: Vec<(usize, String)> = peers
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| match part.split_once('=') {
            Some((peer, addr)) => Ok((parse_text("peers", peer.trim())?, addr.trim().into())),
            None => Err(CliError(format!(
                "--peers: bad entry `{part}`; expected id=ip:port"
            ))),
        })
        .collect::<Result<_>>()?;
    // The bring-up deadline is `now + timeout`: both must be representable.
    let timeout_secs = o.num("timeout-secs", 10.0, ..)?;
    d.rt.handshake_timeout = std::time::Duration::try_from_secs_f64(timeout_secs)
        .ok()
        .filter(|t| !t.is_zero() && std::time::Instant::now().checked_add(*t).is_some())
        .ok_or_else(|| {
            CliError(format!(
                "--timeout-secs must be a positive number of seconds the clock can reach, \
                 got {timeout_secs}"
            ))
        })?;
    let id = id.ok_or_else(|| CliError("--id is required (which node this process is)".into()))?;
    let n = d.n;
    if id >= n {
        return Err(CliError(format!("--id {id} out of range for {n} servers")));
    }
    Ok(Box::new(move || {
        let (problem, graph) = d.build()?;
        let spec = node_specs(&problem, &graph, DibaConfig::default(), &d.rt)
            .map_err(runtime_err)?
            .swap_remove(id);
        let listener = std::net::TcpListener::bind(&listen)
            .map_err(|e| CliError(format!("--listen {listen}: cannot listen: {e}")))?;
        let mut dial_addrs = Vec::new();
        for (peer, addr) in peers {
            let bad = |why| CliError(format!("--peers: address `{addr}` of {peer}: {why}"));
            let mut resolved = addr.to_socket_addrs().map_err(|e| bad(e.to_string()))?;
            let resolved = resolved
                .next()
                .ok_or_else(|| bad("resolves to nothing".into()))?;
            dial_addrs.push((peer, resolved));
        }

        let report = crate::runtime::reactor::host_node(spec, &graph, listener, &dial_addrs, &d.rt)
            .map_err(runtime_err)?;

        Ok(format!(
            "node {}: {} after {} rounds\ncap {:.3} W, residual {:.3e} W\n\
             messages: {} sent ({} heartbeats), {} received{}\n",
            report.node,
            if report.converged {
                "convergence quorum"
            } else {
                "NO QUORUM (round budget exhausted)"
            },
            report.rounds,
            report.p,
            report.e,
            report.msgs_sent,
            report.heartbeats_sent,
            report.msgs_received,
            if report.pruned.is_empty() {
                String::new()
            } else {
                format!("\npruned silent neighbors: {:?}", report.pruned)
            },
        ))
    }))
}
