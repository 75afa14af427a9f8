//! The epoch-driven front-end of the dynamics loop, behind Figs. 4.4 and
//! 4.7, `ext_phases` and `dpc simulate`.
//!
//! Time advances in fixed sampling intervals. Each interval is one tick of
//! [`mod@crate::replay`]'s loop: (1) any scheduled budget change, (2) the
//! workloads whose churn expiry passed, (3) the phase transitions, then a
//! fixed number of DiBA rounds, and a sample of power / SNP / oracle-SNP.

use crate::replay::{drive, Settle};
use crate::schedule::BudgetSchedule;
use crate::series::{TimePoint, TimeSeries};
use dpc_alg::centralized;
use dpc_alg::diba::DibaRun;
use dpc_alg::problem::AlgError;
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
    /// DiBA rounds run per sample.
    pub rounds_per_sample: usize,
    /// Mean workload duration for churn; `None` disables churn.
    pub churn_mean: Option<Seconds>,
    /// Mean execution-phase dwell time; `None` disables phase behaviour.
    /// With phases on, every server cycles through compute/memory phases
    /// of its benchmark and each transition replaces its curve.
    pub phase_mean: Option<Seconds>,
}

impl SimConfig {
    /// A sensible default: `duration` at 1 s sampling, 50 rounds per
    /// sample, no churn, no phases.
    pub fn new(duration: Seconds) -> SimConfig {
        SimConfig {
            duration,
            sample_interval: Seconds(1.0),
            rounds_per_sample: 50,
            churn_mean: None,
            phase_mean: None,
        }
    }

    /// Checks every knob holds a value the engine can honor, so a bad
    /// configuration surfaces as a typed error at the top of [`simulate`]
    /// instead of a panic (or a silently corrupted cast) mid-simulation.
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] naming the offending knob: a non-finite
    /// or non-positive sample interval, a non-finite or negative duration,
    /// or non-positive churn/phase means.
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
        for (knob, mean) in [
            ("churn_mean", self.churn_mean),
            ("phase_mean", self.phase_mean),
        ] {
            match mean {
                Some(mean) if !mean.0.is_finite() || mean <= Seconds::ZERO => {
                    return bad(format!(
                        "{knob} = Some({} s) must be finite and positive",
                        mean.0
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Drives `run` through `config.duration` of simulated time under
/// `schedule`, with `cluster`'s churn and phases when `config` turns them
/// on, and samples it every `config.sample_interval`. `run` must be
/// initialized on `cluster`'s problem with the schedule's `t = 0` budget;
/// it is left warm after the last sample (telemetry, final allocation).
///
/// The start draws the churn expiries in node order, replaces every
/// node's curve with its first phase, re-sets the `t = 0` budget (which
/// re-arms the stage counter) and samples. Each interval then sets the
/// budget if the schedule moved, replaces the curve of each expired
/// workload and then of each phase transition one node at a time, in node
/// order, runs `rounds_per_sample` rounds and samples.
///
/// A recorder attached through `run`'s `DibaConfig::telemetry` sees every
/// call, the start's included: with phases on, each node's first phase
/// curve leaves a `workload` marker at the start round.
///
/// # Errors
///
/// [`AlgError::InvalidConfig`] when the configuration fails
/// [`SimConfig::validate`] or `run` and `cluster` differ in size;
/// [`AlgError::InfeasibleBudget`] when the schedule drops below the
/// cluster's idle floor.
pub fn simulate(
    mut cluster: Cluster,
    run: &mut DibaRun,
    schedule: &BudgetSchedule,
    config: &SimConfig,
) -> Result<TimeSeries, AlgError> {
    config.validate()?;
    if run.problem().len() != cluster.len() {
        return Err(AlgError::InvalidConfig {
            what: format!(
                "run has {} nodes but the cluster {} servers",
                run.problem().len(),
                cluster.len()
            ),
        });
    }
    let dt = config.sample_interval;
    let mut expiries: Vec<f64> = match config.churn_mean {
        Some(mean) => (0..cluster.len())
            .map(|_| cluster.draw_duration(mean.0))
            .collect(),
        None => Vec::new(),
    };
    let mut phased: Vec<PhasedWorkload> = match config.phase_mean {
        Some(mean) => {
            let server = cluster.server().clone();
            let mut rng = StdRng::seed_from_u64(0x9a5e);
            cluster
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
                .collect()
        }
        None => Vec::new(),
    };

    // The start: every node's first phase curve, then the unchanged t = 0
    // budget (setting it re-arms the stage counter), and a sample.
    for (i, ph) in phased.iter().enumerate() {
        run.replace_utility(i, *ph.current());
    }
    run.set_budget(schedule.budget_at(Seconds::ZERO))?;
    let mut series = TimeSeries::new();
    series.push(sample(run, Seconds::ZERO));

    // One tick per sample interval. Curves change one node at a time: a
    // node that churns and changes phase in the same interval is clamped
    // into both boxes in turn, which a `replace_utilities` batch would not
    // do.
    let mut t = Seconds::ZERO;
    let next = |run: &mut DibaRun| {
        if t >= config.duration {
            return Ok(None);
        }
        let now = t + dt;
        if schedule.changes_within(t, now) {
            run.set_budget(schedule.budget_at(now))?;
        }
        if let Some(mean) = config.churn_mean {
            for (i, expiry) in expiries.iter_mut().enumerate() {
                if *expiry <= now.0 {
                    cluster.churn(i);
                    run.replace_utility(i, cluster.workloads()[i].learned);
                    *expiry = now.0 + cluster.draw_duration(mean.0);
                }
            }
        }
        for (i, ph) in phased.iter_mut().enumerate() {
            if ph.advance(dt.0) {
                run.replace_utility(i, *ph.current());
            }
        }
        t = now;
        Ok(Some((Settle::Rounds(config.rounds_per_sample), now)))
    };
    drive(run, next, |run, t, _| {
        series.push(sample(run, t));
        Ok(())
    })?;
    Ok(series)
}

/// The run's budget, power and SNP at `t`, with the oracle's SNP on the
/// same instance.
fn sample(run: &DibaRun, t: Seconds) -> TimePoint {
    let problem = run.problem();
    let allocation = run.allocation();
    let oracle = centralized::solve(problem);
    TimePoint {
        t,
        budget: problem.budget(),
        total_power: allocation.total(),
        snp: snp_arithmetic(&problem.anps(&allocation)),
        optimal_snp: snp_arithmetic(&problem.anps(&oracle.allocation)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_alg::diba::DibaConfig;
    use dpc_alg::exec::Precision;
    use dpc_alg::problem::PowerBudgetProblem;
    use dpc_alg::telemetry::TelemetryConfig;
    use dpc_models::units::Watts;
    use dpc_models::workload::ClusterBuilder;
    use dpc_topology::Graph;

    fn cluster(n: usize, seed: u64) -> Cluster {
        ClusterBuilder::new(n).seed(seed).build()
    }

    /// A DiBA run on a ring over `c`'s problem at `budget`.
    fn ring_run(c: &Cluster, budget: f64, config: DibaConfig) -> DibaRun {
        let p = PowerBudgetProblem::new(c.utilities(), Watts(budget)).unwrap();
        DibaRun::new(p, Graph::ring(c.len()), config).unwrap()
    }

    fn config(duration: f64) -> SimConfig {
        SimConfig {
            rounds_per_sample: 40,
            ..SimConfig::new(Seconds(duration))
        }
    }

    #[test]
    fn bad_engine_knobs_are_typed_errors() {
        type Poison = fn(&mut SimConfig);
        let cases: [(&str, Poison); 5] = [
            ("zero interval", |c| c.sample_interval = Seconds(0.0)),
            ("nan interval", |c| c.sample_interval = Seconds(f64::NAN)),
            ("negative duration", |c| c.duration = Seconds(-1.0)),
            ("zero churn mean", |c| c.churn_mean = Some(Seconds(0.0))),
            ("nan phase mean", |c| c.phase_mean = Some(Seconds(f64::NAN))),
        ];
        for (name, poison) in cases {
            let c = cluster(5, 5);
            let mut run = ring_run(&c, 850.0, DibaConfig::default());
            let mut cfg = config(5.0);
            poison(&mut cfg);
            let schedule = BudgetSchedule::constant(Watts(850.0));
            assert!(
                matches!(
                    simulate(c, &mut run, &schedule, &cfg),
                    Err(AlgError::InvalidConfig { .. })
                ),
                "{name} not rejected"
            );
        }
        assert!(config(5.0).validate().is_ok());
        // A run over another cluster size is a typed error too.
        let mut run = ring_run(&cluster(6, 5), 1_020.0, DibaConfig::default());
        let schedule = BudgetSchedule::constant(Watts(850.0));
        assert!(matches!(
            simulate(cluster(5, 5), &mut run, &schedule, &config(5.0)),
            Err(AlgError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sim_telemetry_reaches_the_budgeter_engine() {
        let c = cluster(20, 2);
        let recorded = DibaConfig {
            telemetry: TelemetryConfig::on(),
            ..DibaConfig::default()
        };
        let mut run = ring_run(&c, 3_400.0, recorded);
        let schedule = BudgetSchedule::constant(Watts(3_400.0));
        simulate(c, &mut run, &schedule, &config(5.0)).unwrap();
        let tel = run.telemetry().expect("recorder installed");
        // 5 samples × 40 rounds each.
        assert_eq!(tel.rounds_recorded(), 200);
        assert!(tel.latest().unwrap().conservation_drift() < 1e-6);
    }

    #[test]
    fn fast_precision_sim_stays_feasible_and_tracks_optimal() {
        let c = cluster(20, 2);
        let fast = DibaConfig {
            precision: Precision::Fast,
            ..DibaConfig::default()
        };
        let mut run = ring_run(&c, 3_400.0, fast);
        let schedule = BudgetSchedule::constant(Watts(3_400.0));
        let series = simulate(c, &mut run, &schedule, &config(10.0)).unwrap();
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
        let mut run = ring_run(&c, 5_700.0, DibaConfig::default());
        let schedule = BudgetSchedule::step(Watts(5_700.0), Watts(5_100.0), Seconds(10.0));
        let series = simulate(c, &mut run, &schedule, &config(20.0)).unwrap();
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
        let mut run = ring_run(&c, 3_400.0, DibaConfig::default());
        let mut cfg = config(30.0);
        cfg.churn_mean = Some(Seconds(5.0));
        let schedule = BudgetSchedule::constant(Watts(3_400.0));
        let series = simulate(c, &mut run, &schedule, &cfg).unwrap();
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
        let uniform = snp_arithmetic(&p.anps(&dpc_alg::baselines::uniform(&p)));

        let mut run = ring_run(&c, budget.0, DibaConfig::default());
        let schedule = BudgetSchedule::constant(budget);
        let series = simulate(c, &mut run, &schedule, &config(15.0)).unwrap();
        let diba = series.points().last().unwrap().snp;
        assert!(diba > uniform, "DiBA {diba} vs uniform {uniform}");
    }

    #[test]
    fn phase_transitions_keep_the_budget_and_track_optimal() {
        let c = cluster(24, 7);
        let mut run = ring_run(&c, 4_080.0, DibaConfig::default());
        let mut cfg = config(25.0);
        cfg.phase_mean = Some(Seconds(6.0));
        cfg.rounds_per_sample = 150;
        let schedule = BudgetSchedule::constant(Watts(4_080.0));
        let series = simulate(c, &mut run, &schedule, &cfg).unwrap();
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
    fn infeasible_schedule_errors() {
        let c = cluster(5, 5);
        let mut run = ring_run(&c, 850.0, DibaConfig::default());
        let schedule = BudgetSchedule::step(Watts(850.0), Watts(100.0), Seconds(1.0));
        assert!(matches!(
            simulate(c, &mut run, &schedule, &config(5.0)),
            Err(AlgError::InfeasibleBudget { .. })
        ));
    }
}
