//! The `dpc` command-line interface: solve, simulate, split and deploy from a
//! shell, optionally against an operator's own measurement traces.
//!
//! The parser is hand-rolled (`--flag value` pairs after a subcommand) so
//! the workspace stays dependency-light. Each subcommand lives in its own
//! module as a [`Parse`] function. It reads every flag it accepts through
//! a typed reader on [`Options`], which checks the value against a range
//! or a list of choices and refuses a bad one with a message that starts
//! with the flag. It returns the work as a [`Job`] that has not run yet.
//! Parsing has no side effects: it opens no socket, writes no file and
//! starts no thread. Every job returns its report as a `String`, so the
//! logic is unit-testable without spawning processes.

use crate::alg::exec::Threads;
use crate::alg::problem::PowerBudgetProblem;
use crate::models::units::Watts;
use crate::models::workload::ClusterBuilder;
use crate::models::QuadraticUtility;
use crate::runtime::cluster::{RuntimeConfig, TransportKind};
use crate::topology::Graph;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

mod cluster;
mod faults;
mod hier;
mod node;
mod replay;
mod repro;
mod simulate;
mod solve;
mod split;
mod trace;

/// CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

type Result<T, E = CliError> = std::result::Result<T, E>;

/// The most servers any subcommand builds a cluster of. It is above the
/// 10⁶-server stretch goal and far below what overflows a capacity.
const MAX_SERVERS: usize = 1 << 24;

/// The most workers `--threads` and shards `--shards` may ask for. Each is
/// an OS thread, and this is far above any host's core count, past which
/// another thread only waits at the round barrier.
const MAX_THREADS: usize = 256;

/// Positive and finite, for tolerances and mean times.
const POSITIVE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Unbounded);

/// Every `--topology` spelling.
const TOPOLOGIES: &[&str] = &[
    "ring",
    "chords",
    "grid",
    "torus",
    "hypercube",
    "random-regular",
];

/// A numeric flag type a range can bound.
trait Num: FromStr<Err: fmt::Display> + PartialOrd + Copy + fmt::Display {
    /// `f64` also parses NaN and ±∞, which no range admits.
    fn finite(self) -> bool {
        true
    }
}

impl Num for usize {}
impl Num for u64 {}
impl Num for f64 {
    fn finite(self) -> bool {
        self.is_finite()
    }
}

/// Parses one flag value, naming the flag and the text when it fails.
fn parse_text<T: FromStr<Err: fmt::Display>>(key: &str, s: &str) -> Result<T> {
    s.parse()
        .map_err(|e| CliError(format!("--{key}: cannot parse `{s}`: {e}")))
}

/// Parses one flag value and checks it against `range`.
fn parse_in<T: Num>(key: &str, s: &str, range: &impl RangeBounds<T>) -> Result<T> {
    use Bound::{Excluded, Included, Unbounded};
    let v: T = parse_text(key, s)?;
    if v.finite() && range.contains(&v) {
        return Ok(v);
    }
    let want = match (range.start_bound(), range.end_bound()) {
        (Included(lo), Included(hi)) => format!("in {lo}..={hi}"),
        (Included(lo), Excluded(hi)) => format!("at least {lo} and below {hi}"),
        (Included(lo), Unbounded) => format!("at least {lo}"),
        (Excluded(lo), _) => format!("above {lo} and finite"),
        (Unbounded, Included(hi)) => format!("at most {hi}"),
        _ => "finite".to_string(),
    };
    Err(CliError(format!("--{key} must be {want}, got {v}")))
}

/// Parsed `--flag value` options after the subcommand, and the flags the
/// subcommand's parse step has read from them.
#[derive(Debug, Clone, Default)]
pub struct Options {
    // Sorted, so the unknown flag `run` names is the same on every run.
    values: BTreeMap<String, String>,
    /// Every flag a reader was asked for, in first-read order.
    read: Vec<Key>,
    /// The flags in `read` whose value names a file.
    paths: Vec<Key>,
}

/// A flag name or choice, as the parse steps spell it.
type Key = &'static str;

impl Options {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Rejects dangling flags, repeated flags and positional arguments.
    pub fn parse(args: &[String]) -> Result<Options> {
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
        Ok(Options {
            values,
            ..Options::default()
        })
    }

    /// `--key`'s text, recording `key` as a flag the subcommand accepts.
    fn text(&mut self, key: Key) -> Option<String> {
        if !self.read.contains(&key) {
            self.read.push(key);
        }
        self.values.get(key).cloned()
    }

    /// `--key`, a file path.
    fn path(&mut self, key: Key) -> Option<String> {
        self.paths.push(key);
        self.text(key)
    }

    /// `--key` in `range`, or `None`.
    fn num_opt<T: Num>(&mut self, key: Key, range: impl RangeBounds<T>) -> Result<Option<T>> {
        self.text(key)
            .map(|s| parse_in(key, &s, &range))
            .transpose()
    }

    /// `--key` in `range`, or `default`.
    fn num<T: Num>(&mut self, key: Key, default: T, range: impl RangeBounds<T>) -> Result<T> {
        Ok(self.num_opt(key, range)?.unwrap_or(default))
    }

    /// A comma-separated `--key a,b,...`, each in `range`, or `default`.
    fn list<T: Num>(
        &mut self,
        key: Key,
        default: &[T],
        range: impl RangeBounds<T>,
    ) -> Result<Vec<T>> {
        match self.text(key) {
            None => Ok(default.to_vec()),
            Some(spec) => spec
                .split(',')
                .map(|s| parse_in(key, s.trim(), &range))
                .collect(),
        }
    }

    /// `--key`, one of `choices`, or `default`.
    fn choice(&mut self, key: Key, default: Key, choices: &[Key]) -> Result<Key> {
        match self.text(key) {
            None => Ok(default),
            Some(v) => choices
                .iter()
                .copied()
                .find(|c| *c == v)
                .ok_or_else(|| unknown_choice(key, &v, choices)),
        }
    }

    /// `--servers`, from `min` to [`MAX_SERVERS`], or `default`.
    fn servers(&mut self, default: usize, min: usize) -> Result<usize> {
        self.num("servers", default, min..=MAX_SERVERS)
    }

    /// `--threads auto|T`, `T` from 1 to [`MAX_THREADS`]; `auto` when absent.
    fn threads(&mut self) -> Result<Threads> {
        match self.text("threads") {
            None => Ok(Threads::Auto),
            Some(s) if s.trim() == "auto" => Ok(Threads::Auto),
            Some(s) => parse_in("threads", &s, &(1..=MAX_THREADS)).map(Threads::Fixed),
        }
    }

    /// `--budget-watts`, or `default`: finite, so no solver sees a NaN or
    /// infinite budget.
    fn budget(&mut self, default: f64) -> Result<Watts> {
        self.num("budget-watts", default, ..).map(Watts)
    }
}

/// The refusal of a value outside a flag's fixed list of choices.
fn unknown_choice(key: &str, v: &str, choices: &[&str]) -> CliError {
    CliError(format!(
        "--{key}: unknown {key} `{v}`; expected one of {}",
        choices.join(", ")
    ))
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
  repro      regenerate a table or figure of the paper (repro_output.txt)
             --experiment ID|all (required; an unknown ID lists them)
             --scale paper|small (paper)
  help       this text
",
        transports = TransportKind::ALL.map(TransportKind::key).join("|"),
        default_transport = RuntimeConfig::default().transport.key(),
    )
}

/// Writes `contents` to `path`, the value of `--flag`, creating missing
/// parent directories first. All CLI report and trace writes go through
/// here, so a bad path surfaces as an error naming the flag and the path
/// instead of a bare "No such file or directory".
fn write_output(flag: &str, path: &str, contents: &str) -> Result<()> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        let shown = dir.display();
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError(format!("--{flag} {path}: cannot create {shown}: {e}")))?;
    }
    std::fs::write(p, contents).map_err(|e| CliError(format!("--{flag} {path}: cannot write: {e}")))
}

/// The learned utilities of the seeded synthetic cluster of `n` servers.
fn cluster_utilities(n: usize, seed: u64) -> Vec<QuadraticUtility> {
    ClusterBuilder::new(n).seed(seed).build().utilities()
}

/// The problem of capping `utilities` at `budget`, which must cover their
/// idle floor.
fn problem_for(utilities: Vec<QuadraticUtility>, budget: Watts) -> Result<PowerBudgetProblem> {
    let watts = budget.0;
    PowerBudgetProblem::new(utilities, budget)
        .map_err(|e| CliError(format!("--budget-watts {watts}: infeasible problem: {e}")))
}

/// The most-square `rows × cols = n` factorization, for the wrap-around
/// families that want a rectangle.
fn rect_dims(n: usize) -> (usize, usize) {
    let mut side = (n as f64).sqrt().floor() as usize;
    while side > 1 && !n.is_multiple_of(side) {
        side -= 1;
    }
    (side, n / side)
}

/// The `--topology` graph over `n ≥ 1` servers; `name` is one of
/// [`TOPOLOGIES`].
fn graph_for(name: &str, n: usize, seed: u64) -> Result<Graph> {
    let (rows, cols) = rect_dims(n);
    match name {
        "ring" => Ok(Graph::ring(n)),
        "chords" => Ok(Graph::ring_with_chords(n, (n / 8).max(2))),
        "grid" => Ok(Graph::grid(rows, cols)),
        "torus" => Graph::torus(rows, cols).map_err(|e| CliError(format!("--topology torus: {e}"))),
        "hypercube" if n.is_power_of_two() => Ok(Graph::hypercube(n.trailing_zeros())),
        "hypercube" => Err(CliError(format!(
            "--topology hypercube needs a power-of-two n, got {n}"
        ))),
        _ => {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            Graph::random_regular(n, 4, &mut rng, 200)
                .map_err(|e| CliError(format!("--topology random-regular: {e}")))
        }
    }
}

/// Maps a runtime failure into the CLI's error type, keeping the typed
/// error's peer address and named reason in the message.
fn runtime_err(e: crate::runtime::RuntimeError) -> CliError {
    CliError(format!("runtime: {e}"))
}

/// The flags `cluster` and `node` share. Both must resolve the identical
/// deployment from the same flags, or the handshake's topology check will
/// (correctly) refuse to pair them.
struct Deployment {
    n: usize,
    seed: u64,
    budget: Watts,
    topology: &'static str,
    /// Settle tolerance and round budget set; the caller sets the rest.
    rt: RuntimeConfig,
}

impl Deployment {
    fn parse(o: &mut Options, default_servers: usize) -> Result<Deployment> {
        let n = o.servers(default_servers, 3)?;
        Ok(Deployment {
            n,
            budget: o.budget(170.0 * n as f64)?,
            seed: o.num("seed", 0, ..)?,
            topology: o.choice("topology", "ring", TOPOLOGIES)?,
            rt: RuntimeConfig {
                settle_tol: o.num("tol", 1e-4, POSITIVE)?,
                max_rounds: o.num("max-rounds", 20_000, 1..)?,
                ..RuntimeConfig::default()
            },
        })
    }

    /// The problem and the graph the flags describe.
    fn build(&self) -> Result<(PowerBudgetProblem, Graph)> {
        let problem = problem_for(cluster_utilities(self.n, self.seed), self.budget)?;
        Ok((problem, graph_for(self.topology, self.n, self.seed)?))
    }
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

/// A subcommand's work, parsed and checked but not run yet.
pub type Job = Box<dyn FnOnce() -> Result<String>>;

/// A subcommand's parse step. It reads every flag it accepts, whichever
/// mode the other flags choose, and checks each before it returns.
pub type Parse = fn(&mut Options) -> Result<Job>;

/// Every subcommand [`run`] dispatches besides `help`, in [`usage`] order.
pub const COMMANDS: [(&str, Parse); 10] = [
    ("solve", solve::parse),
    ("simulate", simulate::parse),
    ("split", split::parse),
    ("faults", faults::parse),
    ("replay", replay::parse),
    ("hier", hier::parse),
    ("trace", trace::parse),
    ("cluster", cluster::parse),
    ("node", node::parse),
    ("repro", repro::parse),
];

/// The flags `parse` accepts: the ones it reads from an empty command
/// line. A parse step reads every flag it accepts on every path, and a
/// required one is checked only after the others are read, so this is also
/// what it reads from any other command line.
pub fn accepted(parse: Parse) -> Vec<&'static str> {
    let mut opts = Options::default();
    let _ = parse(&mut opts);
    opts.read
}

/// Dispatches a full argument vector (without the program name) in three
/// steps: refuse a flag the command does not read, parse and check every
/// flag it does, then run the command.
///
/// # Errors
///
/// Returns the user-facing error message on bad input, including a flag
/// the named command does not read.
pub fn run(args: &[String]) -> Result<String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(usage());
    };
    let rest = if cmd == "hier" {
        normalize_bench_arg(rest)
    } else {
        rest.to_vec()
    };
    let mut opts = Options::parse(&rest)?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some((_, parse)) = COMMANDS.iter().find(|(name, _)| name == cmd) else {
        return Err(CliError(format!("unknown command `{cmd}`; try `dpc help`")));
    };
    let flags = accepted(*parse);
    if let Some(unknown) = opts.values.keys().find(|k| !flags.contains(&k.as_str())) {
        return Err(CliError(format!(
            "`dpc {cmd}` does not take --{unknown}; its flags are --{}",
            flags.join(", --")
        )));
    }
    parse(&mut opts)?()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_flags_and_reject_garbage() {
        let mut o = Options::parse(&args(&["--servers", "10", "--seed", "3"])).unwrap();
        assert_eq!(o.num("servers", 0, ..).unwrap(), 10_usize);
        assert_eq!(o.num("seed", 0, ..).unwrap(), 3_u64);
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

    /// Every flag of every subcommand, fed each hostile value in turn on
    /// small valid base arguments: nothing panics, a refusal names the
    /// flag, and no accepted run reports a NaN. The flags come from the
    /// parse steps themselves, so a flag is covered as soon as a reader
    /// reads it.
    #[test]
    fn every_flag_takes_hostile_values_or_refuses_them_by_name() {
        const HOSTILE: [&str; 10] = [
            "0",
            "-1",
            "NaN",
            "inf",
            "-inf",
            "1e30",
            "18446744073709551615",
            "18446744073709551616",
            "",
            "garbage",
        ];
        // How long a run lasts is the operator's choice, and a node waits
        // for its peers: these values only go through the parse step.
        const RUN_LENGTH: [&str; 4] = ["rounds", "max-rounds", "seconds", "stable-rounds"];
        let dir = std::env::temp_dir().join("dpc-cli-hostile");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
        std::fs::write(
            file("ramp.txt"),
            "servers 8\nseed 3\nbudget 1400\nat 1 budget 1386\n",
        )
        .unwrap();
        let base = |cmd: &str| match cmd {
            "solve" | "cluster" => args(&["--servers", "4"]),
            "simulate" => args(&["--servers", "4", "--seconds", "2"]),
            "faults" => args(&[
                "--servers",
                "4",
                "--rounds",
                "150",
                "--late",
                "0",
                "--out",
                &file("f.json"),
            ]),
            "replay" => args(&["--scenario", &file("ramp.txt")]),
            "hier" => args(&["--servers", "8"]),
            "trace" => args(&["--servers", "4", "--rounds", "5", "--out", &file("t.jsonl")]),
            "node" => args(&["--id", "0", "--servers", "4"]),
            "repro" => args(&["--experiment", "table4_1"]),
            _ => Vec::new(),
        };
        let mut runs = 0;
        for (cmd, parse) in COMMANDS {
            let mut dry = Options::default();
            let _ = parse(&mut dry);
            let mut accepted = dry.read.clone();
            accepted.sort_unstable();
            for &flag in &dry.read {
                let key = format!("--{flag}");
                for (k, value) in HOSTILE.into_iter().enumerate() {
                    // A path is a fresh file, or directory, of that name.
                    let value = if dry.paths.contains(&flag) {
                        let fresh = dir.join(format!("{cmd}-{flag}-{k}"));
                        std::fs::create_dir_all(&fresh).unwrap();
                        fresh.join(value).to_str().unwrap().to_string()
                    } else {
                        value.to_string()
                    };
                    let mut argv = base(cmd);
                    match argv.iter().position(|a| *a == key) {
                        Some(i) => argv[i + 1] = value.clone(),
                        None => argv.extend([key.clone(), value.clone()]),
                    }
                    let named = |e: CliError| {
                        assert!(e.0.contains(&key), "dpc {cmd} {argv:?}: {e}");
                    };
                    let mut opts = Options::parse(&argv).unwrap();
                    let job = match parse(&mut opts) {
                        Ok(job) => job,
                        Err(e) => {
                            named(e);
                            continue;
                        }
                    };
                    // Every path through a parse step reads the same flags.
                    opts.read.sort_unstable();
                    assert_eq!(opts.read, accepted, "dpc {cmd} {argv:?}");
                    if cmd == "node" || RUN_LENGTH.contains(&flag) {
                        continue;
                    }
                    runs += 1;
                    match job() {
                        // A report may echo the path it wrote to.
                        Ok(report) => assert!(
                            !report.replace(&value, "").contains("NaN"),
                            "dpc {cmd} {argv:?}:\n{report}"
                        ),
                        Err(e) => named(e),
                    }
                }
            }
        }
        assert!(runs > 100, "only {runs} jobs ran");
    }

    #[test]
    fn threads_and_shards_are_bounded_at_parse() {
        // Parse steps only: no job runs, so no thread or shard starts.
        let parse = |cmd: &str, argv: &[&str]| {
            let (_, parse) = COMMANDS.iter().find(|(name, _)| *name == cmd).unwrap();
            parse(&mut Options::parse(&args(argv)).unwrap())
        };
        let max = MAX_THREADS.to_string();
        let over = (MAX_THREADS + 1).to_string();
        for (cmd, key) in [
            ("hier", "--threads"),
            ("replay", "--threads"),
            ("trace", "--threads"),
            ("cluster", "--shards"),
        ] {
            for bad in ["0", over.as_str(), "18446744073709551616", "-1", "many"] {
                match parse(cmd, &[key, bad]) {
                    Ok(_) => panic!("dpc {cmd} {key} {bad} passed its parse step"),
                    Err(e) => assert!(e.0.contains(key), "dpc {cmd} {key} {bad}: {e}"),
                }
            }
            // `replay` refuses a missing --scenario after reading --threads.
            if cmd != "replay" {
                for good in ["1", max.as_str(), "auto"] {
                    assert!(parse(cmd, &[key, good]).is_ok(), "dpc {cmd} {key} {good}");
                }
            }
        }
    }

    #[test]
    fn split_runs() {
        let out = run(&args(&["split", "--total-mw", "0.6"])).unwrap();
        assert!(out.contains("cooling share"));
        assert!(run(&args(&["split", "--total-mw", "99"])).is_err());
    }
}
