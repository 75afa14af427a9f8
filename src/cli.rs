//! The `dpc` command-line interface: solve, simulate, split and deploy from a
//! shell, optionally against an operator's own measurement traces.
//!
//! The parser is hand-rolled (`--flag value` pairs after a subcommand) so
//! the workspace stays dependency-light; every command returns its report
//! as a `String` so the logic is unit-testable without spawning processes.

use crate::alg::diba::{DibaConfig, DibaRun};
use crate::alg::exec::Threads;
use crate::alg::primal_dual::{self, PrimalDualConfig};
use crate::alg::problem::PowerBudgetProblem;
use crate::alg::{baselines, centralized};
use crate::models::metrics::snp_arithmetic;
use crate::models::traces::{parse_trace_csv, utilities_from_traces};
use crate::models::units::{Seconds, Watts};
use crate::models::workload::ClusterBuilder;
use crate::models::QuadraticUtility;
use crate::runtime::cluster::{RuntimeConfig, ShardCount, TransportKind};
use crate::sim::engine::{simulate, SimConfig};
use crate::sim::schedule::BudgetSchedule;
use crate::thermal::partition::{self_consistent_partition, uniform_rack_map};
use crate::thermal::ThermalModel;
use crate::topology::Graph;
use std::collections::BTreeMap;
use std::fmt;

/// CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

/// Parsed `--flag value` options after the subcommand.
#[derive(Debug, Clone, Default)]
pub struct Options {
    // Sorted, so the unknown flag `run` names is the same on every run.
    values: BTreeMap<String, String>,
}

impl Options {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Rejects dangling flags, repeated flags and positional arguments.
    pub fn parse(args: &[String]) -> Result<Options, CliError> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError(format!("unexpected positional argument `{a}`")));
            };
            let Some(v) = it.next() else {
                return Err(CliError(format!("flag --{key} needs a value")));
            };
            if values.insert(key.to_string(), v.clone()).is_some() {
                return Err(CliError(format!("flag --{key} given twice")));
            }
        }
        Ok(Options { values })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| CliError(format!("bad value for --{key}: {e}"))),
        }
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.get(key)?.unwrap_or(default))
    }

    fn string(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `--budget-watts`, or `default`: a NaN or infinite budget is refused
    /// here, naming the flag, instead of reaching a solver.
    fn budget_watts(&self, default: f64) -> Result<Watts, CliError> {
        let budget: f64 = self.get_or("budget-watts", default)?;
        if !budget.is_finite() {
            return Err(CliError(format!(
                "--budget-watts must be a finite number of watts, got {budget}"
            )));
        }
        Ok(Watts(budget))
    }

    /// `--tol`, or `default`, refused unless finite and positive.
    fn tol(&self, default: f64) -> Result<f64, CliError> {
        let tol: f64 = self.get_or("tol", default)?;
        if !tol.is_finite() || tol <= 0.0 {
            return Err(CliError("--tol must be positive".into()));
        }
        Ok(tol)
    }
}

/// Usage text.
pub fn usage() -> String {
    format!(
        "\
dpc — decentralized power capping toolkit

USAGE: dpc <command> [--flag value ...]

COMMANDS:
  solve      allocate a budget once and report every scheme
             --servers N (100)  --budget-watts W (172·N)  --seed S (0)
             --topology ring|chords|grid|torus|hypercube|random-regular (ring)  --trace FILE.csv
  simulate   run a dynamic DiBA simulation
             --servers N (100)  --budget-watts W (176·N)  --seconds T (60)
             --churn-secs S     --phase-secs S            --seed S (0)
  split      self-consistent computing/cooling split of a facility budget
             --total-mw X (0.66)
  faults     sweep late-delivery rate x node churn, check recovery, write JSON
             --servers N (48)  --rounds R (1500, at least 3)  --seed S (0)
             --late P,P,... (0,0.05,0.1,0.2)
             --out FILE (BENCH_fault_resilience.json)
             --trace FILE (also record a JSONL crash+restart round trace)
  replay     drive a scenario timeline against a warm-started DiBA
             --scenario FILE (the scenario text format; see README)
             --cold on|off (on; also measure a cold start per event group)
             --threads T|auto (auto)
             --tol W (1e-2)  --stable-rounds R (10)  --max-rounds R (200000)
             --out FILE (also write the per-event JSON report)
  hier       solve a hierarchical multi-tenant budget tree
             --servers N (96)  --budget-watts W (170·N)  --seed S (0)
             --fanout F (4)  --depth D (1)  --leaf oracle|diba (oracle)
             --tenants K (0, striped caps at 90% of tenant peak)
             --tol X (0.015)  --max-rounds R (200000)
             --threads T|auto (auto)
             --domains FILE (also write per-domain JSONL records)
             --bench [FILE]  run the fanout × depth sweep instead and write
             BENCH_hierarchy.json (or FILE); --fanouts F,F,... (2,4)
             --depths D,D,... (1,2)  --big N (0; adds the ≥100k two-level
             DiBA row when positive)
  trace      run one solver with the round recorder attached, write a trace
             --solver diba|async|primal-dual (diba)  --servers N (64)
             --budget-watts W (170·N)  --seed S (0)  --rounds R (600)
             --topology ring|chords|grid|torus|hypercube|random-regular (ring)  --threads T|auto (auto)
             --format jsonl|csv|prom (jsonl)  --capacity C (rounds)
             --late P (0, async only)  --crash-round R (1..=R, async only)
             --out FILE (TRACE.jsonl)
  cluster    deploy N DiBA node agents locally and report the allocation
             --servers N (8)  --transport {transports} ({default_transport})
             --budget-watts W (170·N)  --seed S (0)
             --topology ring|chords|grid|torus|hypercube|random-regular (ring)
             --shards auto|K (reactor only; auto: load-driven shard count
             from N, degree and host cores — the header reports the choice;
             K pins it; K = N puts every edge on a loopback TCP socket)
             --tol W (1e-4)  --max-rounds R (20000)
             --sample-every K (0, merge telemetry)
  node       run ONE DiBA agent over TCP: one reactor shard per process,
             one process per server
             --id I (required)  --servers N (4)  --listen IP:PORT (127.0.0.1:0)
             --peers j=ip:port,... (dial addresses of the HIGHER-id neighbors;
             lower-id neighbors dial this node's --listen address)
             --budget-watts W (170·N)  --seed S (0)
             --topology ring|chords|grid|torus|hypercube|random-regular
             --tol W (1e-4)  --max-rounds R (20000)
             --timeout-secs T (10; the one bring-up deadline: dial retries,
             accepts and handshakes all end by it)
  help       this text
",
        transports = transport_keys("|"),
        default_transport = RuntimeConfig::default().transport.key(),
    )
}

/// Writes `contents` to `path`, creating missing parent directories first.
/// All CLI report and trace writes go through here so a bad `--out`
/// surfaces as a typed error naming the offending path instead of a bare
/// "No such file or directory".
fn write_output(path: &str, contents: &str) -> Result<(), CliError> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                CliError(format!(
                    "cannot create directory {} for --out {path}: {e}",
                    parent.display()
                ))
            })?;
        }
    }
    std::fs::write(p, contents).map_err(|e| CliError(format!("cannot write {path}: {e}")))
}

fn load_utilities(opts: &Options, n: usize, seed: u64) -> Result<Vec<QuadraticUtility>, CliError> {
    match opts.string("trace") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            let traces = parse_trace_csv(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
            utilities_from_traces(&traces).map_err(|e| CliError(format!("{path}: fit: {e}")))
        }
        None => Ok(ClusterBuilder::new(n).seed(seed).build().utilities()),
    }
}

/// The most-square `rows × cols = n` factorization, for the wrap-around
/// families that want a rectangle.
fn rect_dims(n: usize, flag: &str) -> Result<(usize, usize), CliError> {
    let mut side = (n as f64).sqrt().floor() as usize;
    while side > 1 && !n.is_multiple_of(side) {
        side -= 1;
    }
    if side < 1 || side * (n / side) != n {
        return Err(CliError(format!(
            "--topology {flag} needs a rectangular n, got {n}"
        )));
    }
    Ok((side, n / side))
}

fn graph_for(name: &str, n: usize, seed: u64) -> Result<Graph, CliError> {
    match name {
        "ring" => Ok(Graph::ring(n)),
        "chords" => Ok(Graph::ring_with_chords(n, (n / 8).max(2))),
        "grid" => {
            let (rows, cols) = rect_dims(n, "grid")?;
            Ok(Graph::grid(rows, cols))
        }
        "torus" => {
            let (rows, cols) = rect_dims(n, "torus")?;
            Graph::torus(rows, cols).map_err(|e| CliError(format!("--topology torus: {e}")))
        }
        "hypercube" => {
            if !n.is_power_of_two() {
                return Err(CliError(format!(
                    "--topology hypercube needs a power-of-two n, got {n}"
                )));
            }
            Ok(Graph::hypercube(n.trailing_zeros()))
        }
        "random-regular" => {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            Graph::random_regular(n, 4, &mut rng, 200)
                .map_err(|e| CliError(format!("--topology random-regular: {e}")))
        }
        other => Err(CliError(format!(
            "unknown topology `{other}`; expected ring, chords, grid, torus, \
             hypercube or random-regular"
        ))),
    }
}

/// `dpc solve`.
pub fn cmd_solve(opts: &Options) -> Result<String, CliError> {
    let seed: u64 = opts.get_or("seed", 0)?;
    let n: usize = opts.get_or("servers", 100)?;
    if n == 0 {
        return Err(CliError("--servers must be positive".into()));
    }
    let utilities = load_utilities(opts, n, seed)?;
    let n = utilities.len();
    let budget = opts.budget_watts(172.0 * n as f64)?;
    let problem = PowerBudgetProblem::new(utilities, budget)
        .map_err(|e| CliError(format!("infeasible problem: {e}")))?;
    let graph = graph_for(opts.string("topology").unwrap_or("ring"), n, seed)?;

    let oracle = centralized::solve(&problem);
    let opt_util = problem.total_utility(&oracle.allocation);
    let uniform = baselines::uniform(&problem);
    let greedy_alloc = baselines::greedy_throughput_per_watt(&problem, Watts(1.0));
    let pd = primal_dual::solve(&problem, &PrimalDualConfig::default());
    let mut diba = DibaRun::new(problem.clone(), graph, DibaConfig::default())
        .map_err(|e| CliError(e.to_string()))?;
    let rounds = diba.run_until_within(opt_util, 0.01, 50_000);

    let snp = |a: &crate::alg::problem::Allocation| snp_arithmetic(&problem.anps(a));
    let mut out = format!(
        "{n} servers, budget {:.2} kW ({:.1} W/server)\n\n\
         scheme        SNP      power (kW)\n\
         ----------------------------------\n",
        budget.kilowatts(),
        budget.0 / n as f64
    );
    for (name, alloc) in [
        ("uniform", &uniform),
        ("greedy", &greedy_alloc),
        ("primal-dual", &pd.allocation),
        ("DiBA", &diba.allocation()),
        ("oracle", &oracle.allocation),
    ] {
        out.push_str(&format!(
            "{name:<12}  {:.4}   {:>9.2}\n",
            snp(alloc),
            alloc.total().kilowatts()
        ));
    }
    out.push_str(&match rounds {
        Some(r) => format!("\nDiBA: 99% of optimal in {r} gossip rounds\n"),
        None => "\nDiBA: did not reach 99% within 50000 rounds\n".to_string(),
    });
    Ok(out)
}

/// `dpc simulate`.
pub fn cmd_simulate(opts: &Options) -> Result<String, CliError> {
    let seed: u64 = opts.get_or("seed", 0)?;
    let n: usize = opts.get_or("servers", 100)?;
    if n == 0 {
        return Err(CliError("--servers must be positive".into()));
    }
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    let budget = opts.budget_watts(176.0 * n as f64)?;
    let seconds: f64 = opts.get_or("seconds", 60.0)?;
    let churn: Option<f64> = opts.get("churn-secs")?;
    let phases: Option<f64> = opts.get("phase-secs")?;

    let problem = PowerBudgetProblem::new(cluster.utilities(), budget)
        .map_err(|e| CliError(format!("infeasible problem: {e}")))?;
    let mut run = DibaRun::new(problem, Graph::ring(n), DibaConfig::default())
        .map_err(|e| CliError(e.to_string()))?;
    let config = SimConfig {
        duration: Seconds(seconds),
        sample_interval: Seconds(2.0),
        rounds_per_sample: 300,
        churn_mean: churn.map(Seconds),
        phase_mean: phases.map(Seconds),
    };
    let schedule = BudgetSchedule::constant(budget);
    let series =
        simulate(cluster, &mut run, &schedule, &config).map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "{n} servers, budget {:.2} kW, {seconds:.0} s simulated\n\
         samples: {}  budget respected: {}\n\
         mean SNP: {:.4}  mean SNP/optimal: {:.4}\n\n{}",
        budget.kilowatts(),
        series.len(),
        series.budget_respected(Watts(1e-6)),
        series.mean_snp(),
        series.mean_optimality(),
        series.to_csv(),
    ))
}

/// `dpc split`.
pub fn cmd_split(opts: &Options) -> Result<String, CliError> {
    let total_mw: f64 = opts.get_or("total-mw", 0.66)?;
    if !(0.1..10.0).contains(&total_mw) {
        return Err(CliError(format!(
            "--total-mw {total_mw} outside the plausible 0.1–10 range"
        )));
    }
    let model = ThermalModel::paper_cluster();
    let map = uniform_rack_map(model.racks());
    let r = self_consistent_partition(
        Watts::from_megawatts(total_mw),
        &model,
        &map,
        Watts(50.0),
        500,
    )
    .map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "total {total_mw:.2} MW -> computing {:.3} MW + cooling {:.3} MW\n\
         supply temperature {:.1}; cooling share {:.1}%; {} iterations\n",
        r.computing.megawatts(),
        r.cooling.megawatts(),
        r.t_sup,
        r.cooling_fraction() * 100.0,
        r.iterations,
    ))
}

/// `dpc faults`.
pub fn cmd_faults(opts: &Options) -> Result<String, CliError> {
    use dpc_bench::faultbench::{run_fault_bench, traced_cell, Churn, DEFAULT_LATE};

    let servers: usize = opts.get_or("servers", 48)?;
    if servers < 3 {
        return Err(CliError("--servers must be at least 3".into()));
    }
    let rounds: usize = opts.get_or("rounds", 1_500)?;
    if rounds < 3 {
        // Node faults land a third of the way in, and round 0 is the
        // launch state.
        return Err(CliError("--rounds must be at least 3".into()));
    }
    let seed: u64 = opts.get_or("seed", 0)?;
    let late = parse_list(opts, "late", &DEFAULT_LATE)?;
    if late.is_empty() || late.iter().any(|d| !(0.0..1.0).contains(d)) {
        return Err(CliError("--late needs probabilities in [0, 1)".into()));
    }
    let out_path = opts.string("out").unwrap_or("BENCH_fault_resilience.json");

    let report = run_fault_bench(servers, rounds, seed, &late);
    if !report.all_recovered() {
        return Err(CliError(format!(
            "a sweep cell failed to recover — fault-handling bug:\n{}",
            report.to_table()
        )));
    }
    write_output(out_path, &report.to_json())?;
    let mut out = format!(
        "{}\nall cells re-attained a feasible allocation with the dead \
         node's budget re-absorbed\nreport written to {out_path}\n",
        report.to_table()
    );
    if let Some(trace_path) = opts.string("trace") {
        let t = traced_cell(servers, rounds, seed, late[0], Churn::CrashRestart);
        write_output(trace_path, &t.to_jsonl())?;
        out.push_str(&format!(
            "crash+restart trace ({} rounds, {} fault events) written to {trace_path}\n",
            t.rounds_recorded(),
            t.events_recorded()
        ));
    }
    Ok(out)
}

/// `dpc replay`: drives a scenario event timeline against a warm-started
/// DiBA and reports per-event re-convergence (optionally vs a cold start
/// on the identical mutated instance).
///
/// The output is deterministic: the report carries round counts and
/// allocations only, never wall-clock, so `--out` files are byte-identical
/// across reruns (the CI replay smoke step relies on this).
pub fn cmd_replay(opts: &Options) -> Result<String, CliError> {
    use crate::sim::replay::{replay, ReplayConfig, Scenario, SettleCriterion};

    let path = opts
        .string("scenario")
        .ok_or_else(|| CliError("replay needs --scenario FILE".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read --scenario {path}: {e}")))?;
    let scenario = Scenario::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    let compare_cold = match opts.string("cold").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(CliError(format!("--cold must be on|off, got `{other}`"))),
    };
    let settle = SettleCriterion {
        tol_watts: opts.get_or("tol", 1e-2)?,
        stable_rounds: opts.get_or("stable-rounds", 10)?,
        max_rounds: opts.get_or("max-rounds", 200_000)?,
    };
    let config = ReplayConfig {
        diba: DibaConfig {
            threads: opts.get_or("threads", Threads::Auto)?,
            ..DibaConfig::default()
        },
        settle,
        compare_cold,
    };
    let outcome = replay(&scenario, &config).map_err(|e| CliError(format!("{path}: {e}")))?;
    let report = &outcome.report;
    if let Some(out_path) = opts.string("out") {
        write_output(out_path, &report.to_json())?;
    }
    let mut out = report.to_table();
    if !report.all_settled() {
        return Err(CliError(format!(
            "an event group failed to re-settle within --max-rounds:\n{out}"
        )));
    }
    if let Some(out_path) = opts.string("out") {
        out.push_str(&format!("report written to {out_path}\n"));
    }
    Ok(out)
}

/// Parses a comma-separated `--key a,b,...` list, or returns `default`.
fn parse_list<T>(opts: &Options, key: &str, default: &[T]) -> Result<Vec<T>, CliError>
where
    T: std::str::FromStr + Clone,
    T::Err: fmt::Display,
{
    match opts.string(key) {
        None => Ok(default.to_vec()),
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|e| CliError(format!("bad value in --{key}: `{s}`: {e}")))
            })
            .collect(),
    }
}

/// `dpc hier`: solves one hierarchical budget tree (or, with `--bench`,
/// runs the fanout × depth sweep and writes `BENCH_hierarchy.json`).
pub fn cmd_hier(opts: &Options) -> Result<String, CliError> {
    use crate::alg::hierarchy::{BudgetTree, DomainSpec, LeafSolver};
    use crate::alg::telemetry::{domains_to_jsonl, DomainRecord};

    let seed: u64 = opts.get_or("seed", 0)?;

    if let Some(bench_out) = opts.string("bench") {
        let servers: usize = opts.get_or("servers", 96)?;
        if servers < 8 {
            return Err(CliError("--servers must be at least 8".into()));
        }
        let fanouts = parse_list(opts, "fanouts", &[2, 4])?;
        let depths = parse_list(opts, "depths", &[1, 2])?;
        if fanouts.iter().any(|&f| f < 2) || depths.contains(&0) {
            return Err(CliError(
                "--fanouts need values of at least 2 and --depths of at least 1".into(),
            ));
        }
        let tenants: usize = opts.get_or("tenants", 2)?;
        let big: usize = opts.get_or("big", 0)?;
        if big > 0 && big < 100_000 {
            return Err(CliError(
                "--big is the ≥100k scalability row; use 0 to skip it".into(),
            ));
        }
        let report = dpc_bench::hierbench::run(
            servers,
            &fanouts,
            &depths,
            seed,
            tenants,
            (big > 0).then_some(big),
        );
        if !report.gates_pass() {
            return Err(CliError(format!(
                "a sweep cell failed its gate:\n{}",
                report.to_table()
            )));
        }
        write_output(bench_out, &report.to_json())?;
        return Ok(format!(
            "{}\nreport written to {bench_out}\n",
            report.to_table()
        ));
    }

    let n: usize = opts.get_or("servers", 96)?;
    if n < 2 {
        return Err(CliError("--servers must be at least 2".into()));
    }
    let budget = opts.budget_watts(170.0 * n as f64)?;
    let fanout: usize = opts.get_or("fanout", 4)?;
    let depth: usize = opts.get_or("depth", 1)?;
    if fanout < 2 {
        return Err(CliError("--fanout must be at least 2".into()));
    }
    let tenants: usize = opts.get_or("tenants", 0)?;
    let utilities = ClusterBuilder::new(n).seed(seed).build().utilities();
    let caps = dpc_bench::hierbench::striped_tenants(&utilities, tenants);
    let rel_tol = opts.tol(0.015)?;
    let leaf = match opts.string("leaf").unwrap_or("oracle") {
        "oracle" => LeafSolver::Oracle,
        "diba" => LeafSolver::Diba {
            config: DibaConfig {
                threads: opts.get_or("threads", Threads::Auto)?,
                ..DibaConfig::default()
            },
            rel_tol,
            max_rounds: opts.get_or("max-rounds", 200_000)?,
        },
        other => {
            return Err(CliError(format!(
                "--leaf must be oracle|diba, got `{other}`"
            )))
        }
    };
    let spec = DomainSpec::uniform(n, fanout, depth);
    let mut tree = BudgetTree::new(utilities, &spec, budget, caps)
        .map_err(|e| CliError(format!("infeasible tree: {e}")))?;
    let sol = tree
        .solve(&leaf)
        .map_err(|e| CliError(format!("tree solve failed: {e}")))?;

    let reports = tree.domain_reports();
    if let Some(path) = opts.string("domains") {
        let records: Vec<DomainRecord> = reports
            .iter()
            .map(|r| DomainRecord {
                path: r.path.clone(),
                depth: r.depth,
                servers: r.servers,
                budget_w: r.budget.0,
                cap_w: r.cap.map(|c| c.0),
                power_w: r.power.0,
                price: r.price,
                rounds: r.rounds,
            })
            .collect();
        write_output(path, &domains_to_jsonl(&records))?;
    }

    let mut out = format!(
        "hierarchical budget tree: {n} servers, fanout {fanout}, depth {depth}\n\n\
         {:>5}  {:>7}  {:>12}  {:>12}  {:>12}  {:>9}  path\n",
        "depth", "servers", "budget (W)", "power (W)", "price", "rounds",
    );
    for r in &reports {
        out.push_str(&format!(
            "{:>5}  {:>7}  {:>12.2}  {:>12.2}  {:>12.6}  {:>9}  {}\n",
            r.depth, r.servers, r.budget.0, r.power.0, r.price, r.rounds, r.path,
        ));
    }
    out.push_str(&format!(
        "\ntotal power {:.2} W of {:.2} W budget, utility {:.4}, largest ring {} servers\n",
        sol.total_power.0, budget.0, sol.total_utility, sol.max_leaf_servers,
    ));
    for t in &sol.tenants {
        out.push_str(&format!(
            "tenant {:>8}: usage {:>10.2} W of cap {:>10.2} W, price {:.6}{}\n",
            t.name,
            t.usage.0,
            t.cap.0,
            t.price,
            if t.binding { " (binding)" } else { "" },
        ));
    }
    if !tree.nested_feasible(Watts(1e-9 * budget.0.max(1.0))) {
        return Err(CliError(format!(
            "nested-constraint chain violated:\n{out}"
        )));
    }
    if let Some(path) = opts.string("domains") {
        out.push_str(&format!("domain records written to {path}\n"));
    }
    Ok(out)
}

/// `dpc trace`: runs one solver with the round recorder attached and
/// writes the captured telemetry in the requested sink format. The
/// recorded trajectory is bitwise identical to an untraced run, and the
/// JSONL/CSV output is byte-identical across reruns with the same flags.
pub fn cmd_trace(opts: &Options) -> Result<String, CliError> {
    use crate::alg::faults::NodeFaultKind;
    use crate::alg::telemetry::{Telemetry, TelemetryConfig};
    use crate::runtime::lockstep::Lockstep;
    use dpc_bench::faultbench;

    let seed: u64 = opts.get_or("seed", 0)?;
    let n: usize = opts.get_or("servers", 64)?;
    if n < 3 {
        return Err(CliError("--servers must be at least 3".into()));
    }
    let rounds: usize = opts.get_or("rounds", 600)?;
    if rounds == 0 {
        return Err(CliError("--rounds must be positive".into()));
    }
    let capacity: usize = opts.get_or("capacity", rounds)?;
    if capacity == 0 {
        return Err(CliError("--capacity must be positive".into()));
    }
    let budget = opts.budget_watts(170.0 * n as f64)?;
    let threads: Threads = opts.get_or("threads", Threads::Auto)?;
    let late: f64 = opts.get_or("late", 0.0)?;
    if !(0.0..1.0).contains(&late) {
        return Err(CliError("--late needs a probability in [0, 1)".into()));
    }
    let crash_round: Option<usize> = opts.get("crash-round")?;
    if let Some(r) = crash_round.filter(|r| !(1..=rounds).contains(r)) {
        return Err(CliError(format!(
            "--crash-round {r} is outside the run: rounds are 1..={rounds}"
        )));
    }
    let solver = opts.string("solver").unwrap_or("diba");
    let format = opts.string("format").unwrap_or("jsonl");
    let out_path = opts.string("out").unwrap_or("TRACE.jsonl");

    let utilities = ClusterBuilder::new(n).seed(seed).build().utilities();
    let problem = PowerBudgetProblem::new(utilities, budget)
        .map_err(|e| CliError(format!("infeasible problem: {e}")))?;
    let graph = graph_for(opts.string("topology").unwrap_or("ring"), n, seed)?;
    let telemetry = TelemetryConfig::with_capacity(capacity);
    // Every solver's recorder reserves its capacity up front.
    telemetry
        .validate()
        .map_err(|e| CliError(format!("--capacity (defaults to --rounds): {e}")))?;

    let recorder: Telemetry = match solver {
        "diba" => {
            let config = DibaConfig {
                threads,
                telemetry,
                ..DibaConfig::default()
            };
            let mut run =
                DibaRun::new(problem, graph, config).map_err(|e| CliError(e.to_string()))?;
            run.run(rounds);
            run.telemetry()
                .expect("telemetry was enabled in the config")
                .clone()
        }
        "async" => {
            let mut plan = faultbench::late_plan(seed, late);
            if let Some(r) = crash_round {
                // Same victim as the fault sweep's.
                let victim = faultbench::victim(seed, n);
                plan = plan.and(r, victim, NodeFaultKind::Crash);
            }
            let mut run = Lockstep::for_problem(&problem, &graph, DibaConfig::default(), plan)
                .map_err(|e| CliError(e.to_string()))?;
            run.set_telemetry(telemetry);
            run.run(rounds);
            run.telemetry().expect("the recorder is attached").clone()
        }
        "primal-dual" => {
            let result = primal_dual::solve(&problem, &PrimalDualConfig::default());
            let mut t = Telemetry::new(telemetry);
            t.record_primal_dual(n, budget, &result);
            t
        }
        other => {
            return Err(CliError(format!(
                "unknown solver `{other}`; expected diba, async or primal-dual"
            )))
        }
    };

    let rendered = match format {
        "jsonl" => recorder.to_jsonl(),
        "csv" => recorder.to_csv(),
        "prom" => recorder.prometheus(),
        other => {
            return Err(CliError(format!(
                "unknown format `{other}`; expected jsonl, csv or prom"
            )))
        }
    };
    write_output(out_path, &rendered)?;

    let sent = recorder.messages_sent();
    let drift = recorder
        .latest()
        .map(|r| r.conservation_drift())
        .unwrap_or(0.0);
    Ok(format!(
        "{solver} trace: {n} servers, {} rounds recorded ({} retained), {} fault events\n\
         messages: {sent} sent\n\
         final conservation drift: {drift:.3e} W\n\
         trace written to {out_path}\n",
        recorder.rounds_recorded(),
        recorder.rounds_retained(),
        recorder.events_recorded(),
    ))
}

/// Maps a runtime failure into the CLI's error type, keeping the typed
/// error's peer address and named reason in the message.
fn runtime_err(e: crate::runtime::RuntimeError) -> CliError {
    CliError(format!("runtime: {e}"))
}

/// Every `--transport` spelling, joined by `sep`.
fn transport_keys(sep: &str) -> String {
    TransportKind::ALL.map(TransportKind::key).join(sep)
}

fn parse_transport(name: &str) -> Result<TransportKind, CliError> {
    TransportKind::from_key(name).ok_or_else(|| {
        CliError(format!(
            "unknown transport `{name}`; expected one of {}",
            transport_keys(", ")
        ))
    })
}

/// Shared problem/graph/runtime-config derivation for `dpc cluster` and
/// `dpc node` — both must resolve the identical deployment from the same
/// flags or the handshake's topology check will (correctly) refuse to pair
/// them. Only the reactor has shards, so `--shards` is parsed for it and
/// refused, naming `transport`, for every other driver.
fn deployment_for(
    opts: &Options,
    n: usize,
    seed: u64,
    transport: TransportKind,
) -> Result<(PowerBudgetProblem, Graph, RuntimeConfig), CliError> {
    let budget = opts.budget_watts(170.0 * n as f64)?;
    let utilities = ClusterBuilder::new(n).seed(seed).build().utilities();
    let problem = PowerBudgetProblem::new(utilities, budget)
        .map_err(|e| CliError(format!("infeasible problem: {e}")))?;
    let graph = graph_for(opts.string("topology").unwrap_or("ring"), n, seed)?;
    let tol = opts.tol(1e-4)?;
    let max_rounds: usize = opts.get_or("max-rounds", 20_000)?;
    if max_rounds == 0 {
        return Err(CliError("--max-rounds must be positive".into()));
    }
    let shards = match (opts.string("shards"), transport) {
        (spec, TransportKind::Reactor) => parse_shards(spec)?,
        (None, _) => ShardCount::Auto,
        (Some(_), other) => {
            return Err(CliError(format!(
                "--shards applies to the reactor transport only; the {} transport has no shards",
                other.key()
            )))
        }
    };
    let rt = RuntimeConfig {
        transport,
        settle_tol: tol,
        max_rounds,
        sample_every: opts.get_or("sample-every", 0)?,
        shards,
        ..RuntimeConfig::default()
    };
    Ok((problem, graph, rt))
}

/// Parses `--shards auto|K`.
fn parse_shards(spec: Option<&str>) -> Result<ShardCount, CliError> {
    match spec {
        None | Some("auto") => Ok(ShardCount::Auto),
        Some(s) => match s.parse::<usize>() {
            Ok(k) if k > 0 => Ok(ShardCount::Fixed(k)),
            _ => Err(CliError(format!(
                "--shards must be `auto` or a positive shard count, got `{s}`"
            ))),
        },
    }
}

/// `dpc cluster`: deploy N node agents locally (on the epoll reactor or
/// the serial lockstep reference) and report the converged allocation.
pub fn cmd_cluster(opts: &Options) -> Result<String, CliError> {
    let seed: u64 = opts.get_or("seed", 0)?;
    let n: usize = opts.get_or("servers", 8)?;
    if n < 3 {
        return Err(CliError("--servers must be at least 3".into()));
    }
    let transport = match opts.string("transport") {
        Some(name) => parse_transport(name)?,
        None => RuntimeConfig::default().transport,
    };
    let (problem, graph, rt) = deployment_for(opts, n, seed, transport)?;

    let topology_name = opts.string("topology").unwrap_or("ring");
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
        "topology {topology_name} (hash {:#018x}): degree {}..{}, spectral gap {le}{:.4}, \
         mixing {about}{:.0} rounds{caveat}\n",
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
        "cluster: {n} nodes on {} transport, budget {:.2} kW\n{topology_line}{shards_line}{} \
         in {} rounds, residual drift {:.3e} W\nmessages: {} sent ({} heartbeats), {} received\n\n\
         node   cap (W)    residual (W)  rounds   msgs\n",
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
}

/// `dpc node`: run one DiBA agent over TCP as a one-agent reactor shard —
/// one invocation per server in a real deployment. Blocks until the agent
/// reaches convergence quorum (or exhausts its round budget) and then
/// reports its final state.
pub fn cmd_node(opts: &Options) -> Result<String, CliError> {
    use crate::runtime::cluster::node_specs;
    use std::net::ToSocketAddrs;

    let id: usize = opts
        .get("id")?
        .ok_or_else(|| CliError("--id is required (which node this process is)".into()))?;
    let seed: u64 = opts.get_or("seed", 0)?;
    let n: usize = opts.get_or("servers", 4)?;
    if n < 3 {
        return Err(CliError("--servers must be at least 3".into()));
    }
    if id >= n {
        return Err(CliError(format!("--id {id} out of range for {n} servers")));
    }
    let (problem, graph, mut rt) = deployment_for(opts, n, seed, TransportKind::Reactor)?;
    // The bring-up deadline is `now + timeout`: both must be representable.
    let timeout_secs: f64 = opts.get_or("timeout-secs", 10.0)?;
    rt.handshake_timeout = std::time::Duration::try_from_secs_f64(timeout_secs)
        .ok()
        .filter(|t| !t.is_zero() && std::time::Instant::now().checked_add(*t).is_some())
        .ok_or_else(|| {
            CliError(format!(
                "--timeout-secs must be a positive number of seconds the clock can reach, \
                 got `{}`",
                opts.string("timeout-secs").unwrap_or_default()
            ))
        })?;
    let spec = node_specs(&problem, &graph, DibaConfig::default(), &rt)
        .map_err(runtime_err)?
        .swap_remove(id);

    let listen = opts.string("listen").unwrap_or("127.0.0.1:0");
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| CliError(format!("cannot listen on {listen}: {e}")))?;

    let mut dial_addrs = Vec::new();
    if let Some(peers) = opts.string("peers") {
        for part in peers.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((peer, addr)) = part.split_once('=') else {
                return Err(CliError(format!(
                    "bad --peers entry `{part}`; expected id=ip:port"
                )));
            };
            let peer: usize = peer
                .trim()
                .parse()
                .map_err(|e| CliError(format!("bad peer id in --peers entry `{part}`: {e}")))?;
            let addr = addr
                .trim()
                .to_socket_addrs()
                .map_err(|e| CliError(format!("bad address in --peers entry `{part}`: {e}")))?
                .next()
                .ok_or_else(|| CliError(format!("--peers entry `{part}` resolves to nothing")))?;
            dial_addrs.push((peer, addr));
        }
    }

    let report = crate::runtime::reactor::host_node(spec, &graph, listener, &dial_addrs, &rt)
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
}

/// `dpc hier` accepts `--bench` both bare (report to the conventional
/// `BENCH_hierarchy.json`) and with an explicit file value; the general
/// parser wants every flag to carry a value, so a bare `--bench` gets the
/// default path spliced in before parsing.
fn normalize_bench_arg(rest: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(rest.len() + 1);
    let mut it = rest.iter().peekable();
    while let Some(a) = it.next() {
        out.push(a.clone());
        if a == "--bench" {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {}
                _ => out.push("BENCH_hierarchy.json".to_string()),
            }
        }
    }
    out
}

/// A subcommand's entry point.
pub type Command = fn(&Options) -> Result<String, CliError>;

/// Every subcommand [`run`] dispatches besides `help`, in [`usage`] order:
/// its name, its entry point and every `--flag` it reads. [`run`] refuses
/// a flag that is not in the list, so a misspelt flag is an error instead
/// of a silently applied default.
pub const COMMANDS: [(&str, Command, &[&str]); 9] = [
    (
        "solve",
        cmd_solve,
        &["servers", "budget-watts", "seed", "topology", "trace"],
    ),
    (
        "simulate",
        cmd_simulate,
        &[
            "servers",
            "budget-watts",
            "seconds",
            "churn-secs",
            "phase-secs",
            "seed",
        ],
    ),
    ("split", cmd_split, &["total-mw"]),
    (
        "faults",
        cmd_faults,
        &["servers", "rounds", "seed", "late", "out", "trace"],
    ),
    (
        "replay",
        cmd_replay,
        &[
            "scenario",
            "cold",
            "threads",
            "tol",
            "stable-rounds",
            "max-rounds",
            "out",
        ],
    ),
    (
        "hier",
        cmd_hier,
        &[
            "servers",
            "budget-watts",
            "seed",
            "fanout",
            "depth",
            "leaf",
            "tenants",
            "tol",
            "max-rounds",
            "threads",
            "domains",
            "bench",
            "fanouts",
            "depths",
            "big",
        ],
    ),
    (
        "trace",
        cmd_trace,
        &[
            "solver",
            "servers",
            "budget-watts",
            "seed",
            "rounds",
            "topology",
            "threads",
            "format",
            "capacity",
            "late",
            "crash-round",
            "out",
        ],
    ),
    (
        "cluster",
        cmd_cluster,
        &[
            "servers",
            "transport",
            "budget-watts",
            "seed",
            "topology",
            "shards",
            "tol",
            "max-rounds",
            "sample-every",
        ],
    ),
    (
        "node",
        cmd_node,
        &[
            "id",
            "servers",
            "listen",
            "peers",
            "budget-watts",
            "seed",
            "topology",
            "tol",
            "max-rounds",
            "timeout-secs",
        ],
    ),
];

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns the user-facing error message on bad input, including a flag
/// the named command does not read.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(usage());
    };
    let rest = if cmd == "hier" {
        normalize_bench_arg(rest)
    } else {
        rest.to_vec()
    };
    let opts = Options::parse(&rest)?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some((_, command, flags)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return Err(CliError(format!("unknown command `{cmd}`; try `dpc help`")));
    };
    if let Some(unknown) = opts.values.keys().find(|k| !flags.contains(&k.as_str())) {
        return Err(CliError(format!(
            "`dpc {cmd}` does not take --{unknown}; its flags are --{}",
            flags.join(", --")
        )));
    }
    command(&opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_flags_and_reject_garbage() {
        let o = Options::parse(&args(&["--servers", "10", "--seed", "3"])).unwrap();
        assert_eq!(o.get::<usize>("servers").unwrap(), Some(10));
        assert_eq!(o.get::<u64>("seed").unwrap(), Some(3));
        assert!(Options::parse(&args(&["positional"])).is_err());
        assert!(Options::parse(&args(&["--dangling"])).is_err());
        assert!(Options::parse(&args(&["--a", "1", "--a", "2"])).is_err());

        // A flag the command does not read is an error naming both, not a
        // silently applied default; another command's flag counts too.
        let err = run(&args(&["solve", "--sevrers", "5"])).unwrap_err();
        assert!(
            err.0.contains("`dpc solve` does not take --sevrers"),
            "{err}"
        );
        assert!(err.0.contains("--servers"), "{err}");
        let err = run(&args(&["split", "--servers", "5"])).unwrap_err();
        assert!(err.0.contains("`dpc split`"), "{err}");
        // The comma lists share one parser that names flag and element.
        let err = run(&args(&["faults", "--late", "0.1,lots"])).unwrap_err();
        assert!(err.0.contains("--late") && err.0.contains("lots"), "{err}");
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&args(&[])).unwrap().contains("USAGE"));
        assert!(run(&args(&["help"])).unwrap().contains("COMMANDS"));
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.0.contains("unknown command"));
    }

    #[test]
    fn solve_small_cluster_reports_all_schemes() {
        let out = run(&args(&["solve", "--servers", "16", "--seed", "1"])).unwrap();
        for scheme in ["uniform", "greedy", "primal-dual", "DiBA", "oracle"] {
            assert!(out.contains(scheme), "missing {scheme} in:\n{out}");
        }
        assert!(out.contains("gossip rounds"));
    }

    #[test]
    fn solve_accepts_a_trace_file() {
        use crate::models::throughput::CurveParams;
        use crate::models::traces::{write_trace_csv, ServerTrace};
        let traces: Vec<ServerTrace> = (0..6)
            .map(|server| {
                let truth = CurveParams::for_memory_boundedness(server as f64 / 6.0)
                    .utility(Watts(120.0), Watts(200.0));
                ServerTrace {
                    server,
                    points: (0..5)
                        .map(|k| {
                            let p = 120.0 + 20.0 * k as f64;
                            (p, truth.value(Watts(p)))
                        })
                        .collect(),
                }
            })
            .collect();
        let dir = std::env::temp_dir().join("dpc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(&path, write_trace_csv(&traces)).unwrap();
        let out = run(&args(&[
            "solve",
            "--trace",
            path.to_str().unwrap(),
            "--budget-watts",
            "1000",
        ]))
        .unwrap();
        assert!(out.contains("6 servers"), "{out}");
    }

    #[test]
    fn simulate_produces_csv() {
        let out = run(&args(&[
            "simulate",
            "--servers",
            "12",
            "--seconds",
            "6",
            "--phase-secs",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("budget respected: true"), "{out}");
        assert!(out.contains("t_s,budget_w"), "{out}");
    }

    #[test]
    fn faults_report_is_byte_identical_across_reruns() {
        let dir = std::env::temp_dir().join("dpc-cli-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |name: &str| {
            let path = dir.join(name);
            let out = run(&args(&[
                "faults",
                "--servers",
                "20",
                "--rounds",
                "900",
                "--seed",
                "7",
                "--late",
                "0.1",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("report written"), "{out}");
            assert!(out.contains("re-absorbed"), "{out}");
            std::fs::read(path).unwrap()
        };
        let first = run_once("a.json");
        let second = run_once("b.json");
        assert_eq!(first, second, "fault report not byte-identical");
        let json = String::from_utf8(first).unwrap();
        assert!(json.contains("\"bench\": \"fault_resilience\""), "{json}");
        assert!(json.contains("\"all_recovered\": true"), "{json}");
        assert!(run(&args(&["faults", "--servers", "2"])).is_err());
        assert!(run(&args(&["faults", "--late", "1.5"])).is_err());
        let short = run(&args(&["faults", "--rounds", "2"])).unwrap_err();
        assert!(short.0.contains("--rounds must be at least 3"), "{short}");
    }

    #[test]
    fn replay_report_is_byte_identical_and_errors_name_the_file() {
        let dir = std::env::temp_dir().join("dpc-cli-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = dir.join("ramp.txt");
        std::fs::write(
            &scenario,
            "servers 8\nseed 3\nbudget 1400\n\
             at 1 budget 1386\nat 2 vm-arrive node 4 share 0.5 mem 0.3\n\
             at 3 vm-depart node 4\n",
        )
        .unwrap();
        let run_once = |name: &str| {
            let path = dir.join(name);
            let out = run(&args(&[
                "replay",
                "--scenario",
                scenario.to_str().unwrap(),
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("report written"), "{out}");
            assert!(out.contains("budget 1386.0"), "{out}");
            std::fs::read(path).unwrap()
        };
        let first = run_once("a.json");
        let second = run_once("b.json");
        assert_eq!(first, second, "replay report not byte-identical");
        let json = String::from_utf8(first).unwrap();
        assert!(json.contains("\"report\": \"replay\""), "{json}");
        assert!(json.contains("\"all_settled\": true"), "{json}");

        // Error paths: missing inputs and malformed scenarios name the
        // offending file (and line) instead of panicking.
        assert!(run(&args(&["replay"])).is_err());
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "servers 8\nbudget 1400\nat 1 phase node 99 mem 0.5\n").unwrap();
        let err = run(&args(&["replay", "--scenario", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("bad.txt"), "{err}");
        assert!(err.0.contains("unknown node 99"), "{err}");
        std::fs::write(
            &bad,
            "servers 8\nbudget 1400\nat 2 budget 90\nat 1 budget 95\n",
        )
        .unwrap();
        let err = run(&args(&["replay", "--scenario", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("line 4"), "{err}");
        let err = run(&args(&[
            "replay",
            "--scenario",
            scenario.to_str().unwrap(),
            "--cold",
            "maybe",
        ]))
        .unwrap_err();
        assert!(err.0.contains("--cold"), "{err}");
        assert!(run(&args(&["replay", "--bench", "x.json"])).is_err());
    }

    #[test]
    fn hier_solves_a_tree_and_writes_domain_records() {
        let dir = std::env::temp_dir().join("dpc-cli-hier-test");
        std::fs::create_dir_all(&dir).unwrap();
        let domains = dir.join("domains.jsonl");
        let out = run(&args(&[
            "hier",
            "--servers",
            "48",
            "--fanout",
            "4",
            "--depth",
            "1",
            "--tenants",
            "2",
            "--domains",
            domains.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("largest ring 12 servers"), "{out}");
        assert!(out.contains("tenant  tenant0"), "{out}");
        let jsonl = std::fs::read_to_string(&domains).unwrap();
        assert_eq!(jsonl.lines().count(), 5, "{jsonl}");
        assert!(jsonl.contains("\"path\":\"dc/dc.0\""), "{jsonl}");

        assert!(run(&args(&["hier", "--servers", "1"])).is_err());
        assert!(run(&args(&["hier", "--fanout", "1"])).is_err());
        assert!(run(&args(&["hier", "--leaf", "magic"])).is_err());
        assert!(run(&args(&["hier", "--bench", "--big", "5"])).is_err());
    }

    #[test]
    fn hier_bench_report_is_byte_identical_across_reruns() {
        let dir = std::env::temp_dir().join("dpc-cli-hier-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |name: &str| {
            let path = dir.join(name);
            let out = run(&args(&[
                "hier",
                "--bench",
                path.to_str().unwrap(),
                "--servers",
                "64",
                "--fanouts",
                "2,4",
                "--depths",
                "1",
                "--tenants",
                "2",
            ]))
            .unwrap();
            assert!(out.contains("report written"), "{out}");
            std::fs::read(path).unwrap()
        };
        let first = run_once("a.json");
        let second = run_once("b.json");
        assert_eq!(first, second, "hier report not byte-identical");
        let json = String::from_utf8(first).unwrap();
        assert!(json.contains("\"bench\": \"hierarchy\""), "{json}");
        assert!(json.contains("\"gates_pass\": true"), "{json}");
    }

    #[test]
    fn trace_is_byte_reproducible_and_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("dpc-cli-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let run_once = |name: &str| {
            // The nested path exercises write_output's directory creation:
            // the parent does not exist before the command runs.
            let path = dir.join(name).join("deep").join("trace.jsonl");
            let out = run(&args(&[
                "trace",
                "--servers",
                "24",
                "--rounds",
                "80",
                "--seed",
                "5",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("trace written"), "{out}");
            assert!(out.contains("80 rounds recorded"), "{out}");
            std::fs::read(path).unwrap()
        };
        let first = run_once("a");
        let second = run_once("b");
        assert_eq!(first, second, "trace not byte-identical across reruns");
        let jsonl = String::from_utf8(first).unwrap();
        assert!(jsonl.contains("\"type\":\"round\""), "{jsonl}");
        assert!(jsonl.contains("\"sum_e_w\":"), "{jsonl}");
    }

    #[test]
    fn trace_covers_every_solver_and_format() {
        let dir = std::env::temp_dir().join("dpc-cli-trace-solvers");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("async.jsonl");
        let out = run(&args(&[
            "trace",
            "--solver",
            "async",
            "--servers",
            "20",
            "--rounds",
            "300",
            "--late",
            "0.05",
            "--crash-round",
            "100",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("async trace"), "{out}");
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert!(jsonl.contains("\"type\":\"fault\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"crash\""), "{jsonl}");

        let path = dir.join("pd.csv");
        let out = run(&args(&[
            "trace",
            "--solver",
            "primal-dual",
            "--servers",
            "16",
            "--format",
            "csv",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("primal-dual trace"), "{out}");
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("round,budget_w,"), "{csv}");

        let path = dir.join("snapshot.prom");
        run(&args(&[
            "trace",
            "--servers",
            "16",
            "--rounds",
            "40",
            "--format",
            "prom",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let prom = std::fs::read_to_string(&path).unwrap();
        assert!(prom.contains("dpc_rounds_total 40"), "{prom}");

        assert!(run(&args(&["trace", "--solver", "frobnicate"])).is_err());
        assert!(run(&args(&["trace", "--format", "xml"])).is_err());
        assert!(run(&args(&["trace", "--rounds", "0"])).is_err());
        assert!(run(&args(&["trace", "--threads", "0"])).is_err());
        assert!(run(&args(&["trace", "--late", "1.5"])).is_err());
        for r in ["0", "61"] {
            let args = args(&[
                "trace",
                "--solver",
                "async",
                "--rounds",
                "60",
                "--crash-round",
                r,
            ]);
            let err = run(&args).unwrap_err();
            assert!(
                err.0.contains("--crash-round") && err.0.contains("1..=60"),
                "{err}"
            );
        }
    }

    #[test]
    fn faults_attaches_the_recorder_via_trace_flag() {
        let dir = std::env::temp_dir().join("dpc-cli-trace-flag");
        let _ = std::fs::remove_dir_all(&dir);
        let trace_path = dir.join("traces").join("faults.jsonl");
        let out = run(&args(&[
            "faults",
            "--servers",
            "20",
            "--rounds",
            "900",
            "--seed",
            "7",
            "--late",
            "0.05",
            "--out",
            dir.join("reports").join("faults.json").to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("crash+restart trace"), "{out}");
        let jsonl = std::fs::read_to_string(&trace_path).unwrap();
        assert!(jsonl.contains("\"kind\":\"crash\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"restart\""), "{jsonl}");
    }

    #[test]
    fn cluster_deploys_and_reports_quorum() {
        let out = run(&args(&["cluster", "--servers", "6", "--seed", "1"])).unwrap();
        assert!(out.contains("6 nodes on reactor transport"), "{out}");
        assert!(out.contains("convergence quorum"), "{out}");
        assert!(out.contains("respected"), "{out}");
        // Six nodes mix fast enough for 200 power iterations to settle, so
        // the gap is printed as a value; on the 1 024-ring it is a bound.
        assert!(out.contains("spectral gap 0."), "{out}");
        let out = run(&args(&[
            "cluster",
            "--servers",
            "1024",
            "--max-rounds",
            "9",
        ]))
        .unwrap();
        let bound = "spectral gap ≤ 0.0025, mixing ≥ 396 rounds (not converged in 200";
        assert!(out.contains(bound), "{out}");
        assert!(run(&args(&["cluster", "--servers", "2"])).is_err());
        assert!(run(&args(&["cluster", "--tol", "0"])).is_err());
        // Unknown transports — the deleted channel mesh and blocking TCP
        // driver included — are refused by name, with the surviving
        // spellings listed.
        for gone in ["carrier-pigeon", "inproc", "tcp"] {
            let err = run(&args(&["cluster", "--transport", gone])).unwrap_err();
            assert!(
                err.0.contains(&format!("unknown transport `{gone}`")),
                "{err}"
            );
            assert!(err.0.contains("one of lockstep, reactor"), "{err}");
        }
        // --shards is a reactor knob: lockstep refuses it instead of
        // ignoring it, and `0` is no longer a spelling of auto.
        let err = run(&args(&[
            "cluster",
            "--transport",
            "lockstep",
            "--shards",
            "2",
        ]))
        .unwrap_err();
        assert!(err.0.contains("--shards"), "{err}");
        assert!(err.0.contains("lockstep"), "{err}");
        let out = run(&args(&["cluster", "--servers", "6", "--shards", "2"])).unwrap();
        assert!(out.contains("2 reactor shards (pinned)"), "{out}");
        let err = run(&args(&["cluster", "--shards", "0"])).unwrap_err();
        assert!(err.0.contains("--shards"), "{err}");
    }

    #[test]
    fn cluster_tcp_matches_reactor_allocation() {
        let reactor = run(&args(&["cluster", "--servers", "5", "--seed", "3"])).unwrap();
        // "N agents over real loopback TCP in one process" is one shard
        // per agent: every edge crosses shards, so every edge is a socket.
        let tcp = run(&args(&[
            "cluster",
            "--servers",
            "5",
            "--seed",
            "3",
            "--shards",
            "5",
        ]))
        .unwrap();
        assert!(tcp.contains("5 reactor shards (pinned)"), "{tcp}");
        // The per-node table and the budget verdict are identical however
        // the bytes move; only the reactor's shard/thread/RSS lines differ.
        let table = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("node"))
                .filter(|l| !l.starts_with("runtime:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&reactor), table(&tcp), "\n{reactor}\nvs\n{tcp}");
        let err = run(&args(&["cluster", "--transport", "tcp"])).unwrap_err();
        assert!(err.0.contains("one of lockstep, reactor"), "{err}");
    }

    #[test]
    fn bare_bench_flag_gets_the_conventional_path() {
        let normalized = normalize_bench_arg(&args(&["--bench", "--depths", "1"]));
        assert_eq!(
            normalized,
            args(&["--bench", "BENCH_hierarchy.json", "--depths", "1"])
        );
        let normalized = normalize_bench_arg(&args(&["--depths", "1", "--bench"]));
        assert_eq!(
            normalized,
            args(&["--depths", "1", "--bench", "BENCH_hierarchy.json"])
        );
        let untouched = normalize_bench_arg(&args(&["--bench", "custom.json"]));
        assert_eq!(untouched, args(&["--bench", "custom.json"]));
    }

    #[test]
    fn node_processes_form_a_tcp_cluster() {
        // Four `dpc node` invocations — the per-process deployment path —
        // wired over pre-assigned loopback ports on a 4-ring. Each node
        // dials its higher-id neighbors and listens for the lower ones.
        let ports: Vec<u16> = (0..4)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().port()
            })
            .collect();
        let peer = |j: usize| format!("{j}=127.0.0.1:{}", ports[j]);
        let peers_for = |i: usize| -> String {
            // Ring neighbors of i with a higher id.
            [(i + 1) % 4, (i + 3) % 4]
                .into_iter()
                .filter(|&j| j > i)
                .map(peer)
                .collect::<Vec<_>>()
                .join(",")
        };
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let listen = format!("127.0.0.1:{}", ports[i]);
                let peers = peers_for(i);
                std::thread::spawn(move || {
                    let mut a = vec![
                        "node".to_string(),
                        "--id".to_string(),
                        i.to_string(),
                        "--servers".to_string(),
                        "4".to_string(),
                        "--seed".to_string(),
                        "7".to_string(),
                        "--listen".to_string(),
                        listen,
                    ];
                    if !peers.is_empty() {
                        a.push("--peers".to_string());
                        a.push(peers);
                    }
                    run(&a)
                })
            })
            .collect();
        let outputs: Vec<String> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        for (i, out) in outputs.iter().enumerate() {
            assert!(out.contains(&format!("node {i}:")), "{out}");
            assert!(out.contains("convergence quorum"), "{out}");
        }
    }

    #[test]
    fn node_rejects_bad_launch_configs() {
        let err = run(&args(&["node", "--servers", "4"])).unwrap_err();
        assert!(err.0.contains("--id is required"), "{err}");
        let err = run(&args(&["node", "--id", "9", "--servers", "4"])).unwrap_err();
        assert!(err.0.contains("out of range"), "{err}");
        let err = run(&args(&[
            "node",
            "--id",
            "0",
            "--servers",
            "4",
            "--peers",
            "oops",
        ]))
        .unwrap_err();
        assert!(err.0.contains("expected id=ip:port"), "{err}");
        let err = run(&args(&["node", "--id", "0", "--shards", "2"])).unwrap_err();
        assert!(err.0.contains("`dpc node` does not take --shards"), "{err}");
        // Node 0 on a 4-ring has higher neighbors 1 and 3; giving it no
        // dial addresses is a typed runtime error naming the peer.
        let err = run(&args(&["node", "--id", "0", "--servers", "4"])).unwrap_err();
        assert!(err.0.contains("runtime:"), "{err}");
        assert!(err.0.contains("no dial address"), "{err}");
    }

    #[test]
    fn split_runs() {
        let out = run(&args(&["split", "--total-mw", "0.6"])).unwrap();
        assert!(out.contains("cooling share"));
        assert!(run(&args(&["split", "--total-mw", "99"])).is_err());
    }
}
