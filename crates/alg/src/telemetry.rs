//! Round-level telemetry: watch a run from the inside.
//!
//! The paper's headline claims are *trajectory* claims — how fast `Σp`
//! approaches the cap, how the residual mass drains, how many messages that
//! costs (Ch. 4, Figs. 4.3–4.8 and Table 4.2) — yet a solver that only
//! exposes its final allocation cannot substantiate any of them. This
//! module adds a recording layer every engine threads through:
//!
//! * [`RoundRecord`] — one fixed-size, `Copy` sample per round: residual
//!   aggregates (`Σe`, `max |eᵢ|`), power aggregates (`Σp`, ‖p‖₂), message
//!   accounting (sent / in flight) and the fault ledger (pending shares of
//!   powered-off peers, stranded mass).
//! * [`FaultEvent`] — a discrete record per fault-machinery action (crash,
//!   departure, restart, detection, a share booked) with the slack mass it
//!   moved.
//! * `Ring` — a fixed-capacity overwrite-oldest buffer that never
//!   allocates after construction, so steady-state recording is
//!   allocation-free. Each recorder has a single writer (worker 0 of the
//!   synchronous engine; the runtime's serial lockstep loop), so no
//!   locking is needed.
//! * Sinks — [`Telemetry::to_jsonl`] (structured trace, byte-reproducible
//!   for a fixed seed), [`Telemetry::to_csv`] (time series), and
//!   [`Telemetry::prometheus`] (text-exposition snapshot of the latest
//!   state plus cumulative counters).
//!
//! **Determinism contract.** Every value in a record is derived from the
//! solver's deterministic state with the same fixed-chunk reductions the
//! engines use ([`crate::exec::chunked_sum`]), and recording never touches
//! solver state or RNG streams — enabling telemetry leaves trajectories
//! bitwise identical, and a JSONL trace is a pure function of the
//! configuration and seed.

use crate::primal_dual::PrimalDualResult;
use dpc_models::units::Watts;
use std::fmt::Write as _;

/// Telemetry knob carried by `DibaConfig`. Disabled by default: the
/// engines then skip recording entirely (one branch per round, no
/// allocation, no measurable throughput cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record per-round telemetry.
    pub enabled: bool,
    /// Rounds (and fault events) retained; older entries are overwritten.
    pub capacity: usize,
}

impl TelemetryConfig {
    /// Default ring capacity, in rounds.
    pub(crate) const DEFAULT_CAPACITY: usize = 4096;

    /// Telemetry disabled (the default).
    pub fn off() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Telemetry enabled at the default capacity.
    pub fn on() -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            ..Self::off()
        }
    }

    /// Telemetry enabled, retaining the last `rounds` rounds.
    pub fn with_capacity(rounds: usize) -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            capacity: rounds,
        }
    }

    /// Checks the knob is honorable: when enabled, a capacity from 1 to
    /// 2²⁰ records — the ring reserves all of it up front, 112 B a record.
    ///
    /// # Errors
    ///
    /// [`crate::problem::AlgError::InvalidConfig`] naming the capacity.
    pub fn validate(&self) -> Result<(), crate::problem::AlgError> {
        const MAX_CAPACITY: usize = 1 << 20;
        if !self.enabled || (1..=MAX_CAPACITY).contains(&self.capacity) {
            return Ok(());
        }
        let what = match self.capacity {
            0 => "telemetry capacity must be positive when telemetry is enabled".to_string(),
            c => format!("telemetry capacity {c} is above {MAX_CAPACITY}"),
        };
        Err(crate::problem::AlgError::InvalidConfig { what })
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::off()
    }
}

/// One round's structured sample. Flat and `Copy` so the ring buffer holds
/// it inline; every solver fills the fields that apply to it and zeroes the
/// rest (a synchronous run has no in-flight mass; primal-dual has no
/// residual vector but does have a price).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundRecord {
    /// Round (or iteration) index, 1-based.
    pub round: u64,
    /// Budget `P` in effect (watts).
    pub budget: f64,
    /// Total power `Σp` (watts), fixed-chunk reduction.
    pub sum_p: f64,
    /// Euclidean norm of the power vector (watts).
    pub norm2_p: f64,
    /// Residual mass on the nodes `Σe` (watts), fixed-chunk reduction.
    pub sum_e: f64,
    /// Largest per-node residual magnitude `max |eᵢ|` (watts).
    pub max_abs_e: f64,
    /// Largest per-node power move of the round (watts); 0 when the solver
    /// does not track it.
    pub max_step: f64,
    /// Dual price λ (primal-dual only; 0 for the gossip solvers).
    pub lambda: f64,
    /// Messages sent this round.
    pub msgs_sent: u64,
    /// Messages in flight at the end of the round.
    pub in_flight: u64,
    /// Slack mass riding those in-flight messages (watts, ≤ 0).
    pub inflight_mass: f64,
    /// Shares of powered-off peers the survivors hold and have not booked
    /// yet (watts).
    pub pending: f64,
    /// Mass on links whose both ends are down (watts).
    pub stranded: f64,
    /// Live nodes.
    pub live: u64,
}

impl RoundRecord {
    /// The conservation identity evaluated on this record alone:
    /// `|Σe + in-flight + pending + stranded − (Σp − P)|`. Zero (to rounding)
    /// for every DiBA ledger record; the invariant tests pin it.
    pub fn conservation_drift(&self) -> f64 {
        (self.sum_e + self.inflight_mass + self.pending + self.stranded
            - (self.sum_p - self.budget))
            .abs()
    }
}

/// What a recorded fault-machinery action was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A node powered off silently; `mass` is its `e − p`, which lives on
    /// in its neighbours' shares of it.
    Crash,
    /// A node left permanently (graceful farewell or management removal).
    Depart,
    /// A crashed node gathered enough headroom and booted.
    Restart,
    /// Failure detection pruned a link to a silent neighbor.
    Detect,
    /// A survivor booked its share of a powered-off peer into its own
    /// residual; `node` is the peer, `mass` the share.
    Settle,
    /// The total budget changed mid-run (warm re-solve); `mass` is the
    /// signed budget delta in watts, `node` is 0 (cluster-wide).
    Budget,
    /// A node's fitted utility curve was replaced mid-run (VM churn or a
    /// workload phase change); `mass` is the box-clamp power adjustment.
    Workload,
    /// A warm re-solve after a mutation reached rest; `mass` is the number
    /// of rounds the re-convergence took, `node` is 0 (cluster-wide).
    Reconverged,
}

impl FaultEventKind {
    /// Stable identifier used by the sinks.
    pub(crate) fn key(self) -> &'static str {
        match self {
            FaultEventKind::Crash => "crash",
            FaultEventKind::Depart => "depart",
            FaultEventKind::Restart => "restart",
            FaultEventKind::Detect => "detect",
            FaultEventKind::Settle => "settle",
            FaultEventKind::Budget => "budget",
            FaultEventKind::Workload => "workload",
            FaultEventKind::Reconverged => "reconverged",
        }
    }
}

/// A discrete fault-recovery event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Round the event fired in, 1-based.
    pub round: u64,
    /// Node the event concerns.
    pub node: usize,
    /// What happened.
    pub kind: FaultEventKind,
    /// Slack mass the event moved (watts; the dead node's `e − p` or a
    /// booked share, the boot power for restarts, 0 for pure detections).
    pub mass: f64,
}

/// One solved budget domain of a hierarchical run, flattened for sinks.
/// Built from [`crate::hierarchy::DomainReport`] rows; kept separate so the
/// telemetry layer does not depend on the tree solver.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainRecord {
    /// Slash-joined path from the root domain.
    pub path: String,
    /// Distance from the root (root = 0).
    pub depth: usize,
    /// Servers in the subtree.
    pub servers: usize,
    /// Budget the parent assigned (watts).
    pub budget_w: f64,
    /// Hard cap, if configured (watts; NaN-free: `None` serializes as null).
    pub cap_w: Option<f64>,
    /// Power the subtree drew (watts).
    pub power_w: f64,
    /// The domain's demand price λ.
    pub price: f64,
    /// DiBA rounds the leaf used (0 for internal nodes and oracle leaves).
    pub rounds: u64,
}

/// Renders per-domain records as JSON Lines, one object per domain in
/// preorder. Byte-reproducible: every field is a pure function of the
/// problem and configuration.
pub fn domains_to_jsonl(domains: &[DomainRecord]) -> String {
    let mut out = String::new();
    for d in domains {
        let _ = write!(
            out,
            "{{\"type\":\"domain\",\"path\":\"{}\",\"depth\":{},\"servers\":{},\
             \"budget_w\":{},\"cap_w\":",
            d.path, d.depth, d.servers, d.budget_w,
        );
        match d.cap_w {
            Some(c) => {
                let _ = write!(out, "{c}");
            }
            None => out.push_str("null"),
        }
        let _ = writeln!(
            out,
            ",\"power_w\":{},\"price\":{},\"rounds\":{}}}",
            d.power_w, d.price, d.rounds,
        );
    }
    out
}

/// Fixed-capacity overwrite-oldest ring buffer with a single writer. The
/// backing storage is reserved once at construction; `push` never
/// allocates, so a recorder in the hot round loop is allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    pushed: u64,
}

impl<T: Copy> Ring<T> {
    /// A ring retaining the last `cap` entries (`cap` is clamped to ≥ 1).
    pub(crate) fn with_capacity(cap: usize) -> Ring<T> {
        let cap = cap.max(1);
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            pushed: 0,
        }
    }

    /// Appends an entry, overwriting the oldest once full.
    pub(crate) fn push(&mut self, value: T) {
        let idx = (self.pushed % self.cap as u64) as usize;
        if self.buf.len() < self.cap {
            debug_assert_eq!(idx, self.buf.len());
            self.buf.push(value);
        } else {
            self.buf[idx] = value;
        }
        self.pushed += 1;
    }

    /// Entries currently retained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries ever pushed (including those overwritten).
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Retained entries in push order (oldest first).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            (self.pushed % self.cap as u64) as usize
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// The most recently pushed entry.
    pub(crate) fn latest(&self) -> Option<&T> {
        if self.pushed == 0 {
            return None;
        }
        Some(&self.buf[((self.pushed - 1) % self.cap as u64) as usize])
    }
}

/// A run's recorder: the round ring, the fault-event ring, and cumulative
/// message counters that survive ring overwrites.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    rounds: Ring<RoundRecord>,
    events: Ring<FaultEvent>,
    total_sent: u64,
    /// Static per-shard work estimate of the topology sharding (edge units),
    /// set by engines that shard — exposes the balance the work-balanced
    /// cuts achieved.
    shard_work: Vec<usize>,
}

impl Telemetry {
    /// A recorder for the given knob (which should be enabled).
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            rounds: Ring::with_capacity(config.capacity),
            events: Ring::with_capacity(config.capacity),
            total_sent: 0,
            shard_work: Vec::new(),
        }
    }

    /// Records one round (single-writer: worker 0 or the serial loop).
    pub fn record_round(&mut self, record: RoundRecord) {
        self.total_sent += record.msgs_sent;
        self.rounds.push(record);
    }

    /// Records one fault-machinery event.
    pub fn record_event(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Installs the static per-shard work estimate of the current sharding.
    pub(crate) fn set_shard_work(&mut self, work: Vec<usize>) {
        self.shard_work = work;
    }

    /// Retained round records, oldest first.
    pub fn rounds(&self) -> impl Iterator<Item = &RoundRecord> + '_ {
        self.rounds.iter()
    }

    /// Retained fault events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FaultEvent> + '_ {
        self.events.iter()
    }

    /// The latest round record.
    pub fn latest(&self) -> Option<&RoundRecord> {
        self.rounds.latest()
    }

    /// Rounds ever recorded (including overwritten ones).
    pub fn rounds_recorded(&self) -> u64 {
        self.rounds.pushed()
    }

    /// Fault events ever recorded.
    pub fn events_recorded(&self) -> u64 {
        self.events.pushed()
    }

    /// Round records currently retained.
    pub fn rounds_retained(&self) -> usize {
        self.rounds.len()
    }

    /// Messages sent across the whole run, unaffected by ring overwrites.
    pub fn messages_sent(&self) -> u64 {
        self.total_sent
    }

    /// Converts a primal-dual solve's history into round records: the
    /// coordinator knows the global residual `Σp − P` exactly, and every
    /// iteration funnels `2n` packets through it (the Table 4.2 accounting).
    pub fn record_primal_dual(&mut self, n: usize, budget: Watts, result: &PrimalDualResult) {
        for (k, tr) in result.history.iter().enumerate() {
            self.record_round(RoundRecord {
                round: (k + 1) as u64,
                budget: budget.0,
                sum_p: tr.total_power.0,
                sum_e: tr.total_power.0 - budget.0,
                lambda: tr.lambda,
                msgs_sent: 2 * n as u64,
                live: n as u64,
                ..RoundRecord::default()
            });
        }
    }

    /// Renders the recorder as JSON Lines: one object per retained entry,
    /// rounds and fault events merged chronologically (an event sorts
    /// before the record of the round it fired in). Byte-reproducible for
    /// a fixed configuration and seed.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut rounds = self.rounds.iter().peekable();
        let mut events = self.events.iter().peekable();
        loop {
            let take_event = match (rounds.peek(), events.peek()) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(r), Some(e)) => e.round <= r.round,
            };
            if take_event {
                let e = events.next().expect("peeked");
                let _ = writeln!(
                    out,
                    "{{\"type\":\"fault\",\"round\":{},\"node\":{},\"kind\":\"{}\",\"mass_w\":{}}}",
                    e.round,
                    e.node,
                    e.kind.key(),
                    e.mass,
                );
            } else {
                let r = rounds.next().expect("peeked");
                let _ = writeln!(
                    out,
                    "{{\"type\":\"round\",\"round\":{},\"budget_w\":{},\"sum_p_w\":{},\
                     \"norm2_p\":{},\"sum_e_w\":{},\"max_abs_e_w\":{},\"max_step_w\":{},\
                     \"lambda\":{},\"msgs_sent\":{},\"in_flight\":{},\"inflight_mass_w\":{},\
                     \"pending_w\":{},\"stranded_w\":{},\"live\":{}}}",
                    r.round,
                    r.budget,
                    r.sum_p,
                    r.norm2_p,
                    r.sum_e,
                    r.max_abs_e,
                    r.max_step,
                    r.lambda,
                    r.msgs_sent,
                    r.in_flight,
                    r.inflight_mass,
                    r.pending,
                    r.stranded,
                    r.live,
                );
            }
        }
        out
    }

    /// Renders the retained round records as a CSV time series (fault
    /// events are omitted — they live in the JSONL trace).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,budget_w,sum_p_w,norm2_p,sum_e_w,max_abs_e_w,max_step_w,lambda,\
             msgs_sent,in_flight,inflight_mass_w,pending_w,stranded_w,live\n",
        );
        for r in self.rounds.iter() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.round,
                r.budget,
                r.sum_p,
                r.norm2_p,
                r.sum_e,
                r.max_abs_e,
                r.max_step,
                r.lambda,
                r.msgs_sent,
                r.in_flight,
                r.inflight_mass,
                r.pending,
                r.stranded,
                r.live,
            );
        }
        out
    }

    /// Renders a Prometheus-style text-exposition snapshot: cumulative
    /// counters over the whole run plus gauges from the latest record.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        counter(
            &mut out,
            "dpc_rounds_total",
            "Rounds recorded",
            self.rounds.pushed(),
        );
        counter(
            &mut out,
            "dpc_msgs_sent_total",
            "Messages sent",
            self.total_sent,
        );
        counter(
            &mut out,
            "dpc_fault_events_total",
            "Fault-machinery events",
            self.events.pushed(),
        );
        if let Some(r) = self.rounds.latest() {
            gauge(&mut out, "dpc_budget_watts", "Budget P in effect", r.budget);
            gauge(&mut out, "dpc_sum_p_watts", "Total power", r.sum_p);
            gauge(
                &mut out,
                "dpc_sum_e_watts",
                "Residual mass on nodes",
                r.sum_e,
            );
            gauge(
                &mut out,
                "dpc_max_abs_e_watts",
                "Largest residual magnitude",
                r.max_abs_e,
            );
            gauge(&mut out, "dpc_lambda", "Dual price (primal-dual)", r.lambda);
            gauge(
                &mut out,
                "dpc_pending_watts",
                "Unbooked shares of powered-off peers",
                r.pending,
            );
            gauge(
                &mut out,
                "dpc_stranded_watts",
                "Stranded slack mass",
                r.stranded,
            );
            gauge(
                &mut out,
                "dpc_in_flight",
                "Messages in flight",
                r.in_flight as f64,
            );
            gauge(&mut out, "dpc_live_nodes", "Live nodes", r.live as f64);
        }
        if !self.shard_work.is_empty() {
            let _ = writeln!(
                out,
                "# HELP dpc_shard_work Edge-work units per topology shard"
            );
            let _ = writeln!(out, "# TYPE dpc_shard_work gauge");
            for (k, w) in self.shard_work.iter().enumerate() {
                let _ = writeln!(out, "dpc_shard_work{{shard=\"{k}\"}} {w}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_the_latest_entries_in_order() {
        let mut ring: Ring<u64> = Ring::with_capacity(3);
        assert!(ring.buf.is_empty());
        assert_eq!(ring.latest(), None);
        for v in 0..7 {
            ring.push(v);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 7);
        assert_eq!(ring.pushed() - ring.len() as u64, 4, "dropped");
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(ring.latest(), Some(&6));
    }

    #[test]
    fn ring_push_never_reallocates() {
        let mut ring: Ring<RoundRecord> = Ring::with_capacity(16);
        let base = ring.buf.capacity();
        for round in 0..200 {
            ring.push(RoundRecord {
                round,
                ..RoundRecord::default()
            });
        }
        assert_eq!(ring.buf.capacity(), base, "ring grew in the hot loop");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring: Ring<u8> = Ring::with_capacity(0);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn config_validation_and_builders() {
        assert!(TelemetryConfig::off().validate().is_ok());
        assert!(TelemetryConfig::on().validate().is_ok());
        assert!(TelemetryConfig::with_capacity(10).enabled);
        let bad = TelemetryConfig {
            enabled: true,
            capacity: 0,
        };
        assert!(bad.validate().is_err());
        assert!(TelemetryConfig::with_capacity(1 << 20).validate().is_ok());
        let huge = TelemetryConfig::with_capacity(100_000_000_000).validate();
        assert!(huge.unwrap_err().to_string().contains("100000000000"));
        assert!(!TelemetryConfig::default().enabled);
    }

    fn record(round: u64) -> RoundRecord {
        RoundRecord {
            round,
            budget: 100.0,
            sum_p: 95.0,
            sum_e: -5.0,
            msgs_sent: 10,
            live: 4,
            ..RoundRecord::default()
        }
    }

    #[test]
    fn record_conservation_identity() {
        let r = record(1);
        assert!(r.conservation_drift() < 1e-12);
        let mut leaked = r;
        leaked.sum_e = -4.0;
        assert!((leaked.conservation_drift() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_merges_events_before_their_round() {
        let mut t = Telemetry::new(TelemetryConfig::on());
        t.record_round(record(1));
        t.record_event(FaultEvent {
            round: 2,
            node: 3,
            kind: FaultEventKind::Crash,
            mass: -7.5,
        });
        t.record_round(record(2));
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"round\"") && lines[0].contains("\"round\":1"));
        assert!(lines[1].contains("\"kind\":\"crash\"") && lines[1].contains("\"mass_w\":-7.5"));
        assert!(lines[2].contains("\"type\":\"round\"") && lines[2].contains("\"round\":2"));
    }

    #[test]
    fn sinks_are_deterministic_and_well_formed() {
        let mut t = Telemetry::new(TelemetryConfig::on());
        for round in 1..=5 {
            t.record_round(record(round));
        }
        t.set_shard_work(vec![12, 11]);
        assert_eq!(t.to_jsonl(), t.clone().to_jsonl());
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("round,budget_w"));
        let prom = t.prometheus();
        assert!(prom.contains("dpc_rounds_total 5"));
        assert!(prom.contains("dpc_msgs_sent_total 50"));
        assert!(prom.contains("dpc_sum_p_watts 95"));
        assert!(prom.contains("dpc_shard_work{shard=\"1\"} 11"));
        assert_eq!(t.messages_sent(), 50);
    }

    #[test]
    fn domain_records_serialize_in_preorder_with_null_caps() {
        let domains = vec![
            DomainRecord {
                path: "dc".to_string(),
                depth: 0,
                servers: 8,
                budget_w: 1400.0,
                cap_w: None,
                power_w: 1399.5,
                price: 0.002,
                rounds: 0,
            },
            DomainRecord {
                path: "dc/rack0".to_string(),
                depth: 1,
                servers: 4,
                budget_w: 700.0,
                cap_w: Some(650.0),
                power_w: 650.0,
                price: 0.004,
                rounds: 120,
            },
        ];
        let jsonl = domains_to_jsonl(&domains);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"path\":\"dc\"") && lines[0].contains("\"cap_w\":null"));
        assert!(lines[1].contains("\"cap_w\":650") && lines[1].contains("\"rounds\":120"));
        assert_eq!(jsonl, domains_to_jsonl(&domains));
    }
}
