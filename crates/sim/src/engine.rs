//! The epoch-driven cluster simulator behind the dynamic experiments
//! (Figs. 4.4 and 4.7, and the Chapter 3 runtime traces of Figs. 3.14/3.15).
//!
//! Time advances in fixed sampling intervals. Between samples the engine
//! (1) applies any scheduled budget change, (2) replaces completed
//! workloads when churn is enabled, (3) lets the budgeter advance a number
//! of algorithm rounds, and (4) records power / SNP / oracle-SNP.

use crate::budgeter::Budgeter;
use crate::schedule::BudgetSchedule;
use crate::series::{TimePoint, TimeSeries};
use dpc_alg::centralized;
use dpc_alg::problem::AlgError;
use dpc_alg::telemetry::TelemetryConfig;
use dpc_models::metrics::snp_arithmetic;
use dpc_models::phases::PhasedWorkload;
use dpc_models::units::Seconds;
use dpc_models::workload::Cluster;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Total simulated time.
    pub duration: Seconds,
    /// Sampling interval.
    pub sample_interval: Seconds,
    /// Algorithm rounds the budgeter advances per sample.
    pub rounds_per_sample: usize,
    /// Mean workload duration for churn; `None` disables churn.
    pub churn_mean: Option<Seconds>,
    /// Mean execution-phase dwell time; `None` disables phase behaviour.
    /// With phases on, every server cycles through compute/memory phases
    /// of its benchmark and the budgeter is notified at each transition.
    pub phase_mean: Option<Seconds>,
    /// Record per-server allocations at every sample (memory-heavy).
    pub record_allocations: bool,
    /// Round-level recording, installed on the budgeter's engine before the
    /// run (off by default; budgeters without an engine ignore it).
    pub telemetry: TelemetryConfig,
}

impl SimConfig {
    /// A sensible default: `duration` at 1 s sampling, 50 rounds per
    /// sample, no churn, no allocation recording.
    pub fn new(duration: Seconds) -> SimConfig {
        SimConfig {
            duration,
            sample_interval: Seconds(1.0),
            rounds_per_sample: 50,
            churn_mean: None,
            phase_mean: None,
            record_allocations: false,
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Checks every knob holds a value the engine can honor, so a bad
    /// configuration surfaces as a typed error at the top of [`DynamicSim::run`]
    /// instead of a panic (or a silently corrupted cast) mid-simulation.
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] naming the offending knob: a non-finite
    /// or non-positive sample interval, a non-finite or negative duration,
    /// non-positive churn/phase means, or a zero telemetry capacity.
    pub fn validate(&self) -> Result<(), AlgError> {
        let bad = |what: String| Err(AlgError::InvalidConfig { what });
        if !self.sample_interval.0.is_finite() || self.sample_interval <= Seconds::ZERO {
            return bad(format!(
                "sample_interval = {} s must be finite and positive",
                self.sample_interval.0
            ));
        }
        if !self.duration.0.is_finite() || self.duration < Seconds::ZERO {
            return bad(format!(
                "duration = {} s must be finite and non-negative",
                self.duration.0
            ));
        }
        if let Some(mean) = self.churn_mean {
            if !mean.0.is_finite() || mean <= Seconds::ZERO {
                return bad(format!(
                    "churn_mean = Some({} s) must be finite and positive",
                    mean.0
                ));
            }
        }
        if let Some(mean) = self.phase_mean {
            if !mean.0.is_finite() || mean <= Seconds::ZERO {
                return bad(format!(
                    "phase_mean = Some({} s) must be finite and positive",
                    mean.0
                ));
            }
        }
        self.telemetry.validate()
    }
}

/// Runs a dynamic cluster simulation.
pub struct DynamicSim<B: Budgeter> {
    cluster: Cluster,
    budgeter: B,
    schedule: BudgetSchedule,
    config: SimConfig,
    /// Per-server workload expiry times (churn).
    expiries: Vec<f64>,
    /// Per-server phase state (when phases are enabled).
    phased: Vec<PhasedWorkload>,
}

impl<B: Budgeter> DynamicSim<B> {
    /// Builds the simulation. The budgeter must already be initialized on
    /// the cluster's problem with the schedule's `t = 0` budget.
    ///
    /// # Panics
    ///
    /// Panics if the budgeter's problem size differs from the cluster size.
    pub fn new(
        cluster: Cluster,
        budgeter: B,
        schedule: BudgetSchedule,
        config: SimConfig,
    ) -> DynamicSim<B> {
        assert_eq!(
            budgeter.problem().len(),
            cluster.len(),
            "budgeter and cluster sizes differ"
        );
        DynamicSim {
            cluster,
            budgeter,
            schedule,
            config,
            expiries: Vec::new(),
            phased: Vec::new(),
        }
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] when the configuration fails
    /// [`SimConfig::validate`]; [`AlgError::InfeasibleBudget`] when the
    /// schedule drops below the cluster's idle floor.
    pub fn run(&mut self) -> Result<TimeSeries, AlgError> {
        self.config.validate()?;
        let dt = self.config.sample_interval;

        // Initialize churn expiries.
        if let Some(mean) = self.config.churn_mean {
            self.expiries = (0..self.cluster.len())
                .map(|_| self.cluster.draw_duration(mean.0))
                .collect();
        }
        // Initialize phase state.
        if let Some(mean) = self.config.phase_mean {
            let server = self.cluster.server().clone();
            let mut rng = StdRng::seed_from_u64(0x9a5e);
            self.phased = self
                .cluster
                .workloads()
                .iter()
                .map(|w| {
                    PhasedWorkload::generate(
                        w.benchmark.spec(),
                        server.min_full_power(),
                        server.peak,
                        mean.0,
                        &mut rng,
                    )
                })
                .collect();
            for (i, ph) in self.phased.iter().enumerate() {
                self.budgeter.workload_changed(i, *ph.current());
            }
        }
        if self.config.telemetry.enabled {
            self.budgeter.set_telemetry(self.config.telemetry);
        }

        let mut series = TimeSeries::new();
        let mut t = Seconds::ZERO;
        self.budgeter.set_budget(self.schedule.budget_at(t))?;
        self.sample(t, &mut series);

        while t < self.config.duration {
            let next = t + dt;
            if self.schedule.changes_within(t, next) {
                self.budgeter.set_budget(self.schedule.budget_at(next))?;
            }
            if self.config.churn_mean.is_some() {
                self.apply_churn(next);
            }
            if self.config.phase_mean.is_some() {
                self.apply_phases(dt);
            }
            self.budgeter.advance(self.config.rounds_per_sample);
            t = next;
            self.sample(t, &mut series);
        }
        Ok(series)
    }

    /// Access to the budgeter after the run.
    pub fn budgeter(&self) -> &B {
        &self.budgeter
    }

    fn apply_churn(&mut self, now: Seconds) {
        let mean = self.config.churn_mean.expect("caller checked");
        for i in 0..self.expiries.len() {
            if self.expiries[i] <= now.0 {
                self.cluster.churn(i);
                let utility = self.cluster.workloads()[i].learned;
                self.budgeter.workload_changed(i, utility);
                self.expiries[i] = now.0 + self.cluster.draw_duration(mean.0);
            }
        }
    }

    fn apply_phases(&mut self, dt: Seconds) {
        for (i, ph) in self.phased.iter_mut().enumerate() {
            if ph.advance(dt.0) {
                self.budgeter.workload_changed(i, *ph.current());
            }
        }
    }

    fn sample(&self, t: Seconds, series: &mut TimeSeries) {
        let problem = self.budgeter.problem();
        let allocation = self.budgeter.allocation();
        let snp = snp_arithmetic(&problem.anps(&allocation));
        let oracle = centralized::solve(problem);
        let optimal_snp = snp_arithmetic(&problem.anps(&oracle.allocation));
        series.push(TimePoint {
            t,
            budget: problem.budget(),
            total_power: allocation.total(),
            snp,
            optimal_snp,
            allocation: self
                .config
                .record_allocations
                .then(|| allocation.powers().to_vec()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budgeter::{DibaBudgeter, UniformBudgeter};
    use dpc_alg::diba::DibaConfig;
    use dpc_alg::exec::Precision;
    use dpc_alg::problem::PowerBudgetProblem;
    use dpc_models::units::Watts;
    use dpc_models::workload::ClusterBuilder;
    use dpc_topology::Graph;

    fn cluster(n: usize, seed: u64) -> Cluster {
        ClusterBuilder::new(n).seed(seed).build()
    }

    fn config(duration: f64) -> SimConfig {
        SimConfig {
            duration: Seconds(duration),
            sample_interval: Seconds(1.0),
            rounds_per_sample: 40,
            churn_mean: None,
            phase_mean: None,
            record_allocations: false,
            telemetry: TelemetryConfig::off(),
        }
    }

    #[test]
    fn bad_engine_knobs_are_typed_errors() {
        type Poison = Box<dyn Fn(&mut SimConfig)>;
        let cases: Vec<(&str, Poison)> = vec![
            (
                "zero interval",
                Box::new(|c| c.sample_interval = Seconds(0.0)),
            ),
            (
                "nan interval",
                Box::new(|c| c.sample_interval = Seconds(f64::NAN)),
            ),
            (
                "negative duration",
                Box::new(|c| c.duration = Seconds(-1.0)),
            ),
            (
                "zero churn mean",
                Box::new(|c| c.churn_mean = Some(Seconds(0.0))),
            ),
            (
                "nan phase mean",
                Box::new(|c| c.phase_mean = Some(Seconds(f64::NAN))),
            ),
        ];
        for (name, poison) in cases {
            let c = cluster(5, 5);
            let p = PowerBudgetProblem::new(c.utilities(), Watts(850.0)).unwrap();
            let b = UniformBudgeter::new(p);
            let mut cfg = config(5.0);
            poison(&mut cfg);
            let mut sim = DynamicSim::new(c, b, BudgetSchedule::constant(Watts(850.0)), cfg);
            assert!(
                matches!(sim.run(), Err(AlgError::InvalidConfig { .. })),
                "{name} not rejected"
            );
        }
        assert!(config(5.0).validate().is_ok());
    }

    #[test]
    fn sim_telemetry_reaches_the_budgeter_engine() {
        let c = cluster(20, 2);
        let p = PowerBudgetProblem::new(c.utilities(), Watts(3_400.0)).unwrap();
        let b = DibaBudgeter::new(p, Graph::ring(20), DibaConfig::default()).unwrap();
        let mut cfg = config(5.0);
        cfg.telemetry = TelemetryConfig::on();
        let mut sim = DynamicSim::new(c, b, BudgetSchedule::constant(Watts(3_400.0)), cfg);
        sim.run().unwrap();
        let tel = sim.budgeter().telemetry().expect("recorder installed");
        // 5 samples × 40 rounds each.
        assert_eq!(tel.rounds_recorded(), 200);
        assert!(tel.latest().unwrap().conservation_drift() < 1e-6);
    }

    #[test]
    fn fast_precision_sim_stays_feasible_and_tracks_optimal() {
        let c = cluster(20, 2);
        let p = PowerBudgetProblem::new(c.utilities(), Watts(3_400.0)).unwrap();
        let fast = DibaConfig {
            precision: Precision::Fast,
            ..DibaConfig::default()
        };
        let b = DibaBudgeter::new(p, Graph::ring(20), fast).unwrap();
        let schedule = BudgetSchedule::constant(Watts(3_400.0));
        let mut sim = DynamicSim::new(c, b, schedule, config(10.0));
        let series = sim.run().unwrap();
        assert!(series.budget_respected(Watts(1e-6)));
        assert!(
            series.mean_optimality() > 0.95,
            "{}",
            series.mean_optimality()
        );
    }

    #[test]
    fn diba_tracks_a_budget_step_without_violations() {
        let c = cluster(30, 1);
        let p = PowerBudgetProblem::new(c.utilities(), Watts(5_700.0)).unwrap();
        let b = DibaBudgeter::new(p, Graph::ring(30), DibaConfig::default()).unwrap();
        let schedule = BudgetSchedule::step(Watts(5_700.0), Watts(5_100.0), Seconds(10.0));
        let mut sim = DynamicSim::new(c, b, schedule, config(20.0));
        let series = sim.run().unwrap();
        assert_eq!(series.len(), 21);
        // One-sample grace after the step: the decentralized controller
        // needs rounds to shed power (the paper's Figs. 4.5/4.6 transient).
        let violations = series
            .points()
            .iter()
            .filter(|pt| pt.total_power > pt.budget + Watts(1e-6))
            .count();
        assert!(violations <= 1, "{violations} violating samples");
        // Final state respects the reduced budget.
        assert!(series.points().last().unwrap().total_power <= Watts(5_100.0) + Watts(1e-6));
    }

    #[test]
    fn churn_keeps_running_and_stays_feasible() {
        let c = cluster(20, 2);
        let p = PowerBudgetProblem::new(c.utilities(), Watts(3_400.0)).unwrap();
        let b = DibaBudgeter::new(p, Graph::ring(20), DibaConfig::default()).unwrap();
        let mut cfg = config(30.0);
        cfg.churn_mean = Some(Seconds(5.0));
        let mut sim = DynamicSim::new(c, b, BudgetSchedule::constant(Watts(3_400.0)), cfg);
        let series = sim.run().unwrap();
        assert!(series.budget_respected(Watts(1e-6)));
        // SNP stays close to optimal through this (very aggressive: one
        // workload change per server per 5 s) churn.
        assert!(
            series.mean_optimality() > 0.90,
            "{}",
            series.mean_optimality()
        );
    }

    #[test]
    fn uniform_baseline_underperforms_diba() {
        let c = cluster(40, 3);
        let budget = Watts(6_640.0); // 166 W/server: the tight regime
        let p = PowerBudgetProblem::new(c.utilities(), budget).unwrap();

        let diba = DibaBudgeter::new(p.clone(), Graph::ring(40), DibaConfig::default()).unwrap();
        let mut sim_d = DynamicSim::new(
            c.clone(),
            diba,
            BudgetSchedule::constant(budget),
            config(15.0),
        );
        let sd = sim_d.run().unwrap();

        let uni = UniformBudgeter::new(p);
        let mut sim_u = DynamicSim::new(c, uni, BudgetSchedule::constant(budget), config(15.0));
        let su = sim_u.run().unwrap();

        assert!(
            sd.points().last().unwrap().snp > su.points().last().unwrap().snp,
            "DiBA {} vs uniform {}",
            sd.points().last().unwrap().snp,
            su.points().last().unwrap().snp
        );
    }

    #[test]
    fn phase_transitions_keep_the_budget_and_track_optimal() {
        let c = cluster(24, 7);
        let p = PowerBudgetProblem::new(c.utilities(), Watts(4_080.0)).unwrap();
        let b = DibaBudgeter::new(p, Graph::ring(24), DibaConfig::default()).unwrap();
        let mut cfg = config(25.0);
        cfg.phase_mean = Some(Seconds(6.0));
        cfg.rounds_per_sample = 150;
        let mut sim = DynamicSim::new(c, b, BudgetSchedule::constant(Watts(4_080.0)), cfg);
        let series = sim.run().unwrap();
        assert!(series.budget_respected(Watts(1e-6)));
        assert!(
            series.mean_optimality() > 0.9,
            "{}",
            series.mean_optimality()
        );
        // Phase transitions visibly move the optimal SNP over time.
        let opt: Vec<f64> = series.points().iter().map(|pt| pt.optimal_snp).collect();
        let spread = opt.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - opt.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 1e-4,
            "phases never moved the landscape: spread {spread}"
        );
    }

    #[test]
    fn allocation_recording_is_optional() {
        let c = cluster(5, 4);
        let p = PowerBudgetProblem::new(c.utilities(), Watts(850.0)).unwrap();
        let b = UniformBudgeter::new(p);
        let mut cfg = config(2.0);
        cfg.record_allocations = true;
        let mut sim = DynamicSim::new(c, b, BudgetSchedule::constant(Watts(850.0)), cfg);
        let series = sim.run().unwrap();
        for pt in series.points() {
            assert_eq!(pt.allocation.as_ref().map(Vec::len), Some(5));
        }
    }

    #[test]
    fn infeasible_schedule_errors() {
        let c = cluster(5, 5);
        let p = PowerBudgetProblem::new(c.utilities(), Watts(850.0)).unwrap();
        let b = UniformBudgeter::new(p);
        let schedule = BudgetSchedule::step(Watts(850.0), Watts(100.0), Seconds(1.0));
        let mut sim = DynamicSim::new(c, b, schedule, config(5.0));
        assert!(matches!(sim.run(), Err(AlgError::InfeasibleBudget { .. })));
    }
}
