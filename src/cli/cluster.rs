//! `dpc cluster`: deploy N node agents locally (on the epoll reactor or
//! the serial lockstep reference) and report the converged allocation.

use super::{
    parse_in, runtime_err, unknown_choice, CliError, Deployment, Job, Options, Result, MAX_THREADS,
};
use crate::alg::diba::DibaConfig;
use crate::models::units::Watts;
use crate::runtime::cluster::{ShardCount, TransportKind};

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let mut d = Deployment::parse(o, 8)?;
    if let Some(name) = o.text("transport") {
        let keys = TransportKind::ALL.map(TransportKind::key);
        d.rt.transport = TransportKind::from_key(&name)
            .ok_or_else(|| unknown_choice("transport", &name, &keys))?;
    }
    // Only the reactor has shards: every other driver refuses the flag
    // instead of ignoring it.
    d.rt.shards = match o.text("shards") {
        None => ShardCount::Auto,
        Some(_) if d.rt.transport != TransportKind::Reactor => {
            return Err(CliError(format!(
                "--shards applies to the reactor transport only; the {} transport has no shards",
                d.rt.transport.key()
            )))
        }
        Some(s) if s == "auto" => ShardCount::Auto,
        Some(s) => ShardCount::Fixed(parse_in("shards", &s, &(1..=MAX_THREADS))?),
    };
    d.rt.sample_every = o.num("sample-every", 0, ..)?;
    Ok(Box::new(move || {
        let (problem, graph) = d.build()?;
        let rt = d.rt;

        const POWER_ITERATIONS: usize = 200;
        let spectrum = crate::topology::spectral::consensus_spectrum(&graph, POWER_ITERATIONS);
        let min_degree = (0..graph.len())
            .map(|i| graph.neighbors(i).len())
            .min()
            .unwrap_or(0);
        // An unconverged power iteration only bounds the gap from above, so
        // the line says so instead of printing the iterate as the graph's gap.
        let (le, about, caveat) = if spectrum.converged {
            ("", "~", String::new())
        } else {
            let caveat = format!(" (not converged in {POWER_ITERATIONS} iterations)");
            ("≤ ", "≥ ", caveat)
        };
        let topology_line = format!(
            "topology {} (hash {:#018x}): degree {}..{}, spectral gap {le}{:.4}, \
             mixing {about}{:.0} rounds{caveat}\n",
            d.topology,
            graph.topology_hash(),
            min_degree,
            graph.max_degree(),
            spectrum.gap,
            spectrum.mixing_time,
        );

        let outcome = crate::runtime::run_cluster(problem, graph, DibaConfig::default(), &rt)
            .map_err(runtime_err)?;

        // The reactor reports the shard count it actually ran with — under
        // `--shards auto` that is the load-driven choice, so the header is
        // where the user learns what the policy picked.
        let shards_line = match outcome.shards_used {
            Some(shards) => format!(
                "runtime: {shards} reactor shard{} ({})\n",
                if shards == 1 { "" } else { "s" },
                match rt.shards {
                    ShardCount::Auto => "auto",
                    ShardCount::Fixed(_) => "pinned",
                },
            ),
            None => String::new(),
        };

        let budget = outcome.budget;
        let mut out = format!(
            "cluster: {} nodes on {} transport, budget {:.2} kW\n{topology_line}{shards_line}{} \
             in {} rounds, residual drift {:.3e} W\nmessages: {} sent ({} heartbeats), {} received\n\n\
             node   cap (W)    residual (W)  rounds   msgs\n",
            d.n,
            rt.transport.key(),
            budget.kilowatts(),
            if outcome.converged {
                "convergence quorum"
            } else {
                "NO QUORUM (round budget exhausted)"
            },
            outcome.rounds,
            outcome.drift,
            outcome.msgs_sent,
            outcome.heartbeats,
            outcome.msgs_received,
        );
        for r in &outcome.reports {
            out.push_str(&format!(
                "{:>4}   {:>8.3}   {:>11.3e}  {:>6}  {:>5}{}\n",
                r.node,
                r.p,
                r.e,
                r.rounds,
                r.msgs_sent,
                if r.pruned.is_empty() {
                    String::new()
                } else {
                    format!("  pruned {:?}", r.pruned)
                },
            ));
        }
        out.push_str(&format!(
            "\ntotal power {:.2} W, budget {:.2} W: {}\n",
            outcome.total_power().0,
            budget.0,
            if outcome.total_power() <= budget + Watts(1e-6) {
                "respected"
            } else {
                "VIOLATED"
            },
        ));
        if let Some(threads) = outcome.peak_threads {
            out.push_str(&format!("runtime: peak {threads} threads\n"));
        }
        // Wall-clock-adjacent and host-dependent, so it lives on its own line
        // (containing "rss") that reproducibility comparisons strip.
        if let Some(kb) = outcome.peak_rss_kb {
            out.push_str(&format!("runtime: peak rss {:.1} MB\n", kb as f64 / 1024.0));
        }
        Ok(out)
    }))
}
