//! The budgeter abstraction the simulator drives.
//!
//! A budgeter owns the live allocation problem and reacts to the three
//! events of cluster operation: budget re-allocation, workload change, and
//! the passage of algorithm rounds. The three implementations mirror the
//! schemes compared in the dynamic experiments: DiBA, uniform, and the
//! centralized oracle.

use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::problem::{AlgError, Allocation, PowerBudgetProblem};
use dpc_alg::telemetry::{Telemetry, TelemetryConfig};
use dpc_models::throughput::QuadraticUtility;
use dpc_models::units::Watts;
use dpc_topology::Graph;

/// A live power budgeter.
pub trait Budgeter {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// The problem currently being solved.
    fn problem(&self) -> &PowerBudgetProblem;

    /// Re-allocates to a new total budget.
    ///
    /// # Errors
    ///
    /// [`AlgError::InfeasibleBudget`] when the budget cannot cover idle
    /// power.
    fn set_budget(&mut self, budget: Watts) -> Result<(), AlgError>;

    /// Reacts to server `i` starting a new workload.
    fn workload_changed(&mut self, server: usize, utility: QuadraticUtility);

    /// Advances `rounds` algorithm rounds (no-op for one-shot schemes).
    fn advance(&mut self, rounds: usize);

    /// The current allocation.
    fn allocation(&self) -> Allocation;

    /// Attaches a round recorder to the underlying engine. The default is
    /// a no-op, which models one-shot schemes with no rounds to record.
    fn set_telemetry(&mut self, _config: TelemetryConfig) {}

    /// The engine's round recorder, when telemetry is enabled (the default
    /// is `None`).
    fn telemetry(&self) -> Option<&Telemetry> {
        None
    }
}

/// DiBA running continuously between events.
#[derive(Debug, Clone)]
pub struct DibaBudgeter {
    run: DibaRun,
}

impl DibaBudgeter {
    /// Starts DiBA on the given problem and topology.
    ///
    /// # Errors
    ///
    /// Propagates [`DibaRun::new`] errors.
    pub fn new(
        problem: PowerBudgetProblem,
        graph: Graph,
        config: DibaConfig,
    ) -> Result<DibaBudgeter, AlgError> {
        Ok(DibaBudgeter {
            run: DibaRun::new(problem, graph, config)?,
        })
    }

    /// Access to the underlying run (residuals, iteration count).
    pub fn run(&self) -> &DibaRun {
        &self.run
    }
}

impl Budgeter for DibaBudgeter {
    fn name(&self) -> &'static str {
        "DiBA"
    }

    fn problem(&self) -> &PowerBudgetProblem {
        self.run.problem()
    }

    fn set_budget(&mut self, budget: Watts) -> Result<(), AlgError> {
        self.run.set_budget(budget)
    }

    fn workload_changed(&mut self, server: usize, utility: QuadraticUtility) {
        self.run.replace_utility(server, utility);
    }

    fn advance(&mut self, rounds: usize) {
        self.run.run(rounds);
    }

    fn allocation(&self) -> Allocation {
        self.run.allocation()
    }

    fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.run.set_telemetry(config);
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.run.telemetry()
    }
}

/// Uniform split recomputed on every event.
#[derive(Debug, Clone)]
pub struct UniformBudgeter {
    problem: PowerBudgetProblem,
    cached: Allocation,
}

impl UniformBudgeter {
    /// Builds the budgeter.
    pub fn new(problem: PowerBudgetProblem) -> UniformBudgeter {
        let cached = dpc_alg::baselines::uniform(&problem);
        UniformBudgeter { problem, cached }
    }

    fn refresh(&mut self) {
        self.cached = dpc_alg::baselines::uniform(&self.problem);
    }
}

impl Budgeter for UniformBudgeter {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn problem(&self) -> &PowerBudgetProblem {
        &self.problem
    }

    fn set_budget(&mut self, budget: Watts) -> Result<(), AlgError> {
        self.problem = self.problem.with_budget(budget)?;
        self.refresh();
        Ok(())
    }

    fn workload_changed(&mut self, server: usize, utility: QuadraticUtility) {
        let mut utilities = self.problem.utilities().to_vec();
        utilities[server] = utility;
        self.problem = PowerBudgetProblem::new(utilities, self.problem.budget())
            .expect("same sizes stay valid");
        self.refresh();
    }

    fn advance(&mut self, _rounds: usize) {}

    fn allocation(&self) -> Allocation {
        self.cached.clone()
    }
}

/// Centralized oracle re-solved on every event (the "optimal" trace of the
/// dynamic figures).
#[derive(Debug, Clone)]
pub struct OracleBudgeter {
    problem: PowerBudgetProblem,
    cached: Allocation,
}

impl OracleBudgeter {
    /// Builds the budgeter.
    pub fn new(problem: PowerBudgetProblem) -> OracleBudgeter {
        let cached = centralized::solve(&problem).allocation;
        OracleBudgeter { problem, cached }
    }

    fn refresh(&mut self) {
        self.cached = centralized::solve(&self.problem).allocation;
    }
}

impl Budgeter for OracleBudgeter {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn problem(&self) -> &PowerBudgetProblem {
        &self.problem
    }

    fn set_budget(&mut self, budget: Watts) -> Result<(), AlgError> {
        self.problem = self.problem.with_budget(budget)?;
        self.refresh();
        Ok(())
    }

    fn workload_changed(&mut self, server: usize, utility: QuadraticUtility) {
        let mut utilities = self.problem.utilities().to_vec();
        utilities[server] = utility;
        self.problem = PowerBudgetProblem::new(utilities, self.problem.budget())
            .expect("same sizes stay valid");
        self.refresh();
    }

    fn advance(&mut self, _rounds: usize) {}

    fn allocation(&self) -> Allocation {
        self.cached.clone()
    }
}

/// Primal-dual decomposition re-run on every event — the coordinator-based
/// distributed baseline in dynamic scenarios.
#[derive(Debug, Clone)]
pub struct PrimalDualBudgeter {
    problem: PowerBudgetProblem,
    config: dpc_alg::primal_dual::PrimalDualConfig,
    cached: Allocation,
}

impl PrimalDualBudgeter {
    /// Builds the budgeter and solves once.
    pub fn new(
        problem: PowerBudgetProblem,
        config: dpc_alg::primal_dual::PrimalDualConfig,
    ) -> PrimalDualBudgeter {
        let cached = dpc_alg::primal_dual::solve(&problem, &config).allocation;
        PrimalDualBudgeter {
            problem,
            config,
            cached,
        }
    }

    fn refresh(&mut self) {
        self.cached = dpc_alg::primal_dual::solve(&self.problem, &self.config).allocation;
    }
}

impl Budgeter for PrimalDualBudgeter {
    fn name(&self) -> &'static str {
        "primal-dual"
    }

    fn problem(&self) -> &PowerBudgetProblem {
        &self.problem
    }

    fn set_budget(&mut self, budget: Watts) -> Result<(), AlgError> {
        self.problem = self.problem.with_budget(budget)?;
        self.refresh();
        Ok(())
    }

    fn workload_changed(&mut self, server: usize, utility: QuadraticUtility) {
        let mut utilities = self.problem.utilities().to_vec();
        utilities[server] = utility;
        self.problem = PowerBudgetProblem::new(utilities, self.problem.budget())
            .expect("same sizes stay valid");
        self.refresh();
    }

    fn advance(&mut self, _rounds: usize) {}

    fn allocation(&self) -> Allocation {
        self.cached.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::workload::ClusterBuilder;

    fn problem(n: usize, budget: f64) -> PowerBudgetProblem {
        let c = ClusterBuilder::new(n).seed(1).build();
        PowerBudgetProblem::new(c.utilities(), Watts(budget)).unwrap()
    }

    #[test]
    fn diba_budgeter_advances_and_reacts() {
        let p = problem(20, 3_400.0);
        let mut b = DibaBudgeter::new(p.clone(), Graph::ring(20), DibaConfig::default()).unwrap();
        assert_eq!(b.name(), "DiBA");
        b.advance(200);
        assert!(b.allocation().total() <= p.budget() + Watts(1e-6));
        b.set_budget(Watts(3_300.0)).unwrap();
        b.advance(300);
        assert!(b.allocation().total() <= Watts(3_300.0) + Watts(1e-6));
    }

    #[test]
    fn uniform_budgeter_tracks_budget() {
        let mut b = UniformBudgeter::new(problem(10, 1_700.0));
        assert_eq!(b.allocation().power(0), Watts(170.0));
        b.set_budget(Watts(1_600.0)).unwrap();
        assert_eq!(b.allocation().power(0), Watts(160.0));
        assert_eq!(b.name(), "uniform");
    }

    #[test]
    fn oracle_budgeter_reacts_to_workload_change() {
        let p = problem(10, 1_700.0);
        let mut b = OracleBudgeter::new(p.clone());
        let before = b.allocation();
        // Swap server 0 to a markedly steeper curve.
        let u = p.utility(0);
        let steep = dpc_models::throughput::CurveParams::for_memory_boundedness(0.0)
            .utility(u.p_min(), u.p_max());
        b.workload_changed(0, steep);
        let after = b.allocation();
        assert!(
            after.power(0) >= before.power(0),
            "steeper curve should not lose power"
        );
        assert!(after.total() <= p.budget() + Watts(1e-3));
    }

    #[test]
    fn primal_dual_budgeter_tracks_events() {
        let p = problem(15, 2_550.0);
        let mut b =
            PrimalDualBudgeter::new(p.clone(), dpc_alg::primal_dual::PrimalDualConfig::default());
        assert_eq!(b.name(), "primal-dual");
        let before = p.total_utility(&b.allocation());
        let uniform = p.total_utility(&dpc_alg::baselines::uniform(&p));
        assert!(before >= uniform);
        b.set_budget(Watts(2_450.0)).unwrap();
        assert!(b.allocation().total() <= Watts(2_450.0) + Watts(1e-3));
    }

    #[test]
    fn infeasible_budget_propagates() {
        let mut b = UniformBudgeter::new(problem(10, 1_700.0));
        assert!(b.set_budget(Watts(100.0)).is_err());
    }
}
