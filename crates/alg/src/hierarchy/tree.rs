//! The budget tree: nested domains, top-down budget propagation, bottom-up
//! demand-price reporting, and cross-cutting tenant caps.
//!
//! Solving is two-phase:
//!
//! 1. **Curve phase (exact).** Each leaf's aggregate demand curve is built
//!    from its members' quadratics; internal nodes sum their children's
//!    (cap-clamped) curves. Budgets then propagate top-down: a node inverts
//!    its interior curve at its assigned budget to get its domain price λ,
//!    children are funded at their demand `D_c(λ)` plus a feasibility-safe
//!    spread of the residual, and leaves allocate members at
//!    `argmax r_i(p) − (λ + μ_tenant)·p`. Tenant multipliers μ are driven
//!    by projected dual ascent (with a final per-tenant bisection sweep) so
//!    every cross-cutting cap is respected exactly.
//! 2. **Leaf phase (optional, decentralized).** With [`LeafSolver::Diba`]
//!    each leaf re-solves its assigned budget with a DiBA ring (tenant
//!    members keep their curve-phase caps as tightened boxes), so no
//!    communication ring ever exceeds the leaf size; prices then report
//!    bottom-up as member-count-weighted means, mirroring the flat
//!    facility's rebalance telemetry.

use super::curve::AggregateCurve;
use super::spread_residue;
use super::tenant::{self, TenantCap, TenantReport};
use crate::centralized;
use crate::diba::{DibaConfig, DibaRun};
use crate::problem::{check_budget, AlgError, Allocation, PowerBudgetProblem};
use dpc_models::throughput::QuadraticUtility;
use dpc_models::units::Watts;
use dpc_topology::Graph;

/// How the tree's leaf domains solve their assigned budgets.
#[derive(Debug, Clone)]
pub enum LeafSolver {
    /// Exact per-leaf water-filling at the propagated domain price.
    Oracle,
    /// A DiBA ring per leaf, run until within `rel_tol` of the leaf's own
    /// oracle utility (or `max_rounds`, then [`AlgError::DidNotConverge`]).
    Diba {
        /// DiBA engine configuration shared by every leaf ring.
        config: DibaConfig,
        /// Relative utility tolerance versus the leaf oracle.
        rel_tol: f64,
        /// Per-leaf round cap.
        max_rounds: usize,
    },
}

/// Children of a domain: either sub-domains or a concrete server set.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainChildren {
    /// Internal node over sub-domains.
    Domains(Vec<DomainSpec>),
    /// Leaf node over server indices (into the facility utility vector).
    Servers(Vec<usize>),
}

/// Declarative description of one budget domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSpec {
    /// Domain name (path segments in reports).
    pub name: String,
    /// Optional hard cap on the domain's power (`Σ p_i ≤ cap` over its
    /// subtree), independent of the budget its parent assigns.
    pub cap: Option<Watts>,
    /// Sub-domains or servers.
    pub children: DomainChildren,
}

impl DomainSpec {
    /// A leaf domain over `servers`.
    pub fn leaf(name: impl Into<String>, servers: Vec<usize>) -> DomainSpec {
        DomainSpec {
            name: name.into(),
            cap: None,
            children: DomainChildren::Servers(servers),
        }
    }

    /// An internal domain over `children`.
    pub fn internal(name: impl Into<String>, children: Vec<DomainSpec>) -> DomainSpec {
        DomainSpec {
            name: name.into(),
            cap: None,
            children: DomainChildren::Domains(children),
        }
    }

    /// A uniform tree over servers `0..n`: `depth` internal levels of
    /// `fanout` children each, leaves holding contiguous server ranges
    /// (`depth = 0` is a single flat leaf). Child `k` of a domain over
    /// `count` servers from `lo` holds `[lo + k·count/fanout,
    /// lo + (k+1)·count/fanout)`; empty ranges are skipped, so `n` need not
    /// divide evenly, and building costs O(depth · n), not O(depth · n ·
    /// fanout).
    pub fn uniform(n: usize, fanout: usize, depth: usize) -> DomainSpec {
        fn build(name: String, lo: usize, hi: usize, fanout: usize, depth: usize) -> DomainSpec {
            if depth == 0 {
                return DomainSpec::leaf(name, (lo..hi).collect());
            }
            let count = hi - lo;
            let mut children = Vec::new();
            let mut a = lo;
            while a < hi {
                // The first child whose range ends past `a` starts at `a`:
                // every child between it and the previous one is empty.
                let k = ((a - lo + 1) * fanout).div_ceil(count) - 1;
                let b = lo + (k + 1) * count / fanout;
                children.push(build(format!("{name}.{k}"), a, b, fanout, depth - 1));
                a = b;
            }
            DomainSpec::internal(name, children)
        }
        build("dc".to_string(), 0, n, fanout.max(1), depth)
    }
}

/// One solved domain, for telemetry and tables.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainReport {
    /// Slash-joined path from the root.
    pub path: String,
    /// Distance from the root (root = 0).
    pub depth: usize,
    /// Servers in the subtree.
    pub servers: usize,
    /// Budget assigned by the parent (root: the facility budget).
    pub budget: Watts,
    /// The domain's configured hard cap, if any.
    pub cap: Option<Watts>,
    /// Aggregate idle floor `Σ p_min` of the subtree.
    pub floor: Watts,
    /// Aggregate peak `Σ p_max` of the subtree.
    pub ceil: Watts,
    /// Power the subtree actually drew.
    pub power: Watts,
    /// The domain's demand price (exact λ in the curve phase; reported
    /// weighted mean marginal after a DiBA leaf phase).
    pub price: f64,
    /// DiBA rounds the leaf used (0 for internal nodes and oracle leaves).
    pub rounds: u64,
}

/// Result of a [`BudgetTree::solve`].
#[derive(Debug, Clone)]
pub struct TreeSolution {
    /// Per-server power caps in facility order.
    pub allocation: Allocation,
    /// Total facility utility at the solution.
    pub total_utility: f64,
    /// Total facility power at the solution.
    pub total_power: Watts,
    /// The root domain's price.
    pub root_price: f64,
    /// Largest leaf (= largest communication ring) in servers.
    pub max_leaf_servers: usize,
    /// DiBA rounds used per leaf, in preorder (empty for oracle leaves).
    pub leaf_rounds: Vec<u64>,
    /// Solved state of every tenant cap.
    pub tenants: Vec<TenantReport>,
}

struct Node {
    children: Vec<usize>,
    /// Leaf members (empty for internal nodes).
    members: Vec<usize>,
    servers: usize,
    cap: Option<f64>,
    floor: f64,
    ceil: f64,
    depth: usize,
    path: String,
    budget: f64,
    price: f64,
    power: f64,
    rounds: u64,
}

/// A hierarchical multi-tenant budget-allocation problem over a facility of
/// servers: physical domains nest (`Σ p_i ≤ P_rack ≤ P_row ≤ P_dc`), tenant
/// caps cut across them.
pub struct BudgetTree {
    utilities: Vec<QuadraticUtility>,
    budget: Watts,
    tenants: Vec<TenantCap>,
    tenant_of: Vec<Option<usize>>,
    mu: Vec<f64>,
    /// Preorder flattening; index 0 is the root, parents precede children.
    nodes: Vec<Node>,
    leaves: Vec<usize>,
    powers: Vec<f64>,
}

const MAX_TENANT_ITERS: usize = 200;
const TENANT_SWEEPS: usize = 8;

impl BudgetTree {
    /// Builds a tree, validating that the leaves partition `0..n` exactly,
    /// every domain cap covers its subtree's idle floor, the facility
    /// budget covers the root floor, and tenant caps are disjoint and
    /// individually feasible.
    ///
    /// # Errors
    ///
    /// [`AlgError::EmptyProblem`] for an empty facility or empty leaf,
    /// [`AlgError::InvalidConfig`] for a NaN or infinite budget,
    /// [`AlgError::DimensionMismatch`] when the leaves do not partition the
    /// server set (or tenants overlap), [`AlgError::InfeasibleBudget`] when
    /// a cap or the budget is below the corresponding floor, and
    /// [`AlgError::UnknownNode`] for out-of-range members.
    pub fn new(
        utilities: Vec<QuadraticUtility>,
        spec: &DomainSpec,
        budget: Watts,
        tenants: Vec<TenantCap>,
    ) -> Result<BudgetTree, AlgError> {
        let n = utilities.len();
        if n == 0 {
            return Err(AlgError::EmptyProblem);
        }
        check_budget(budget)?;
        let mut nodes: Vec<Node> = Vec::new();
        let mut leaves: Vec<usize> = Vec::new();
        Self::flatten(spec, None, 0, &mut nodes, &mut leaves)?;

        let mut owner: Vec<Option<usize>> = vec![None; n];
        for &l in &leaves {
            if nodes[l].members.is_empty() {
                return Err(AlgError::EmptyProblem);
            }
            for &i in &nodes[l].members {
                if i >= n {
                    return Err(AlgError::UnknownNode { node: i, nodes: n });
                }
                if owner[i].is_some() {
                    return Err(AlgError::DimensionMismatch {
                        expected: 1,
                        got: i,
                    });
                }
                owner[i] = Some(l);
            }
        }
        let covered = owner.iter().filter(|o| o.is_some()).count();
        if covered != n {
            return Err(AlgError::DimensionMismatch {
                expected: n,
                got: covered,
            });
        }

        // Bottom-up floors/ceilings (children have larger indices than
        // their parents in the preorder flattening).
        for idx in (0..nodes.len()).rev() {
            if nodes[idx].children.is_empty() {
                let (mut floor, mut ceil) = (0.0, 0.0);
                for &i in &nodes[idx].members {
                    floor += utilities[i].p_min().0;
                    ceil += utilities[i].p_max().0;
                }
                nodes[idx].floor = floor;
                nodes[idx].ceil = ceil;
                nodes[idx].servers = nodes[idx].members.len();
            } else {
                let (mut floor, mut ceil, mut servers) = (0.0, 0.0, 0);
                for &c in &nodes[idx].children.clone() {
                    floor += nodes[c].floor;
                    ceil += nodes[c].ceil;
                    servers += nodes[c].servers;
                }
                nodes[idx].floor = floor;
                nodes[idx].ceil = ceil;
                nodes[idx].servers = servers;
            }
            if let Some(cap) = nodes[idx].cap {
                if cap < nodes[idx].floor {
                    return Err(AlgError::InfeasibleBudget {
                        budget: Watts(cap),
                        min_required: Watts(nodes[idx].floor),
                    });
                }
            }
        }
        if budget.0 < nodes[0].floor {
            return Err(AlgError::InfeasibleBudget {
                budget,
                min_required: Watts(nodes[0].floor),
            });
        }
        let tenant_of = tenant::validate(&tenants, &utilities)?;
        let mu = vec![0.0; tenants.len()];
        Ok(BudgetTree {
            utilities,
            budget,
            tenants,
            tenant_of,
            mu,
            nodes,
            leaves,
            powers: vec![0.0; n],
        })
    }

    fn flatten(
        spec: &DomainSpec,
        parent: Option<usize>,
        depth: usize,
        nodes: &mut Vec<Node>,
        leaves: &mut Vec<usize>,
    ) -> Result<(), AlgError> {
        let idx = nodes.len();
        let path = match parent {
            Some(p) => format!("{}/{}", nodes[p].path, spec.name),
            None => spec.name.clone(),
        };
        nodes.push(Node {
            children: Vec::new(),
            members: Vec::new(),
            servers: 0,
            cap: spec.cap.map(|c| c.0),
            floor: 0.0,
            ceil: 0.0,
            depth,
            path,
            budget: 0.0,
            price: 0.0,
            power: 0.0,
            rounds: 0,
        });
        match &spec.children {
            DomainChildren::Servers(members) => {
                nodes[idx].members = members.clone();
                leaves.push(idx);
            }
            DomainChildren::Domains(children) => {
                if children.is_empty() {
                    return Err(AlgError::EmptyProblem);
                }
                for child in children {
                    let c = nodes.len();
                    nodes[idx].children.push(c);
                    Self::flatten(child, Some(idx), depth + 1, nodes, leaves)?;
                }
            }
        }
        Ok(())
    }

    /// Number of domains (internal + leaf).
    pub fn domain_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf domains.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Servers in the largest leaf — the size of the largest communication
    /// ring any decentralized leaf phase would need.
    pub fn max_leaf_servers(&self) -> usize {
        self.leaves
            .iter()
            .map(|&l| self.nodes[l].members.len())
            .max()
            .unwrap_or(0)
    }

    /// Solves the tree. The curve phase is always run (tenant multipliers
    /// included); [`LeafSolver::Diba`] then re-solves every leaf with a
    /// bounded-size DiBA ring against its propagated budget.
    ///
    /// # Errors
    ///
    /// [`AlgError::DidNotConverge`] when tenant dual ascent cannot satisfy
    /// every cap or a DiBA leaf exhausts `max_rounds`; propagated
    /// construction errors from the leaf phase otherwise.
    pub fn solve(&mut self, leaf: &LeafSolver) -> Result<TreeSolution, AlgError> {
        self.solve_curve_phase()?;
        let mut leaf_rounds = Vec::new();
        if let LeafSolver::Diba {
            config,
            rel_tol,
            max_rounds,
        } = leaf
        {
            leaf_rounds = self.solve_leaf_phase(*config, *rel_tol, *max_rounds)?;
        }
        self.aggregate_power();
        Ok(self.solution(leaf_rounds))
    }

    /// The per-domain solved state, in preorder.
    pub fn domain_reports(&self) -> Vec<DomainReport> {
        self.nodes
            .iter()
            .map(|nd| DomainReport {
                path: nd.path.clone(),
                depth: nd.depth,
                servers: nd.servers,
                budget: Watts(nd.budget),
                cap: nd.cap.map(Watts),
                floor: Watts(nd.floor),
                ceil: Watts(nd.ceil),
                power: Watts(nd.power),
                price: nd.price,
                rounds: nd.rounds,
            })
            .collect()
    }

    /// Checks the nested-constraint chain at `tol`: every domain's subtree
    /// power within its assigned budget and its hard cap, and every
    /// internal node's child budgets summing to at most its own.
    pub fn nested_feasible(&self, tol: Watts) -> bool {
        self.nodes.iter().enumerate().all(|(idx, nd)| {
            let child_sum: f64 = nd.children.iter().map(|&c| self.nodes[c].budget).sum();
            nd.power <= nd.budget + tol.0
                && nd.cap.is_none_or(|cap| nd.power <= cap + tol.0)
                && (nd.children.is_empty() || child_sum <= self.nodes[idx].budget + tol.0)
        })
    }

    fn solution(&self, leaf_rounds: Vec<u64>) -> TreeSolution {
        let allocation = Allocation::new(self.powers.iter().map(|&p| Watts(p)).collect());
        let total_utility = self
            .utilities
            .iter()
            .zip(&self.powers)
            .map(|(u, &p)| u.value(Watts(p)))
            .sum();
        TreeSolution {
            total_utility,
            total_power: Watts(self.powers.iter().sum()),
            root_price: self.nodes[0].price,
            max_leaf_servers: self.max_leaf_servers(),
            leaf_rounds,
            tenants: self.tenant_reports(),
            allocation,
        }
    }

    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.tenants
            .iter()
            .zip(&self.mu)
            .map(|(t, &mu)| {
                let usage: f64 = t.members.iter().map(|&i| self.powers[i]).sum();
                TenantReport {
                    name: t.name.clone(),
                    cap: t.cap,
                    usage: Watts(usage),
                    price: mu,
                    binding: mu > 1e-9 && usage >= t.cap.0 - 1e-3 * t.cap.0.max(1.0),
                }
            })
            .collect()
    }

    /// Builds interior and exposed curves for the current multipliers.
    /// `interior[idx]` prices the node's own budget; `exposed[idx]` adds
    /// the node's hard cap and is what its parent sums.
    fn build_curves(&self) -> (Vec<AggregateCurve>, Vec<AggregateCurve>) {
        let mut interior: Vec<Option<AggregateCurve>> =
            (0..self.nodes.len()).map(|_| None).collect();
        let mut exposed: Vec<Option<AggregateCurve>> =
            (0..self.nodes.len()).map(|_| None).collect();
        for idx in (0..self.nodes.len()).rev() {
            let nd = &self.nodes[idx];
            let inner = if nd.children.is_empty() {
                AggregateCurve::from_members(nd.members.iter().map(|&i| {
                    let mu = self.tenant_of[i].map_or(0.0, |t| self.mu[t]);
                    (&self.utilities[i], mu)
                }))
            } else {
                let children: Vec<&AggregateCurve> = nd
                    .children
                    .iter()
                    .map(|&c| exposed[c].as_ref().expect("children built first"))
                    .collect();
                AggregateCurve::sum(&children)
            };
            let outer = match nd.cap {
                Some(cap) => inner.with_cap(cap),
                None => inner.clone(),
            };
            interior[idx] = Some(inner);
            exposed[idx] = Some(outer);
        }
        (
            interior.into_iter().map(Option::unwrap).collect(),
            exposed.into_iter().map(Option::unwrap).collect(),
        )
    }

    /// Top-down budget propagation and exact leaf allocation at the current
    /// multipliers.
    fn propagate(&mut self, interior: &[AggregateCurve], exposed: &[AggregateCurve]) {
        self.nodes[0].budget = match self.nodes[0].cap {
            Some(cap) => self.budget.0.min(cap),
            None => self.budget.0,
        };
        for (idx, inner) in interior.iter().enumerate() {
            let b = self.nodes[idx].budget;
            let lambda = inner.price_for_budget(b);
            self.nodes[idx].price = lambda;
            let children = self.nodes[idx].children.clone();
            match children.len() {
                0 => {
                    // Members price in at λ + μ. A degenerate linear member
                    // (c == 0) whose effective slope sits exactly at λ is
                    // *marginal*: the water-filling optimum may place it
                    // anywhere in its box. Start it at p_min (matching the
                    // right-continuous demand the budget funded), then fill
                    // the leaf's residual budget into the marginal members
                    // in ascending order — this keeps the leaf's draw a
                    // continuous function of the multipliers, which the
                    // tenant dual ascent needs to converge.
                    let members = self.nodes[idx].members.clone();
                    let mut total = 0.0;
                    let mut marginal: Vec<usize> = Vec::new();
                    for &i in &members {
                        let mu = self.tenant_of[i].map_or(0.0, |t| self.mu[t]);
                        let u = &self.utilities[i];
                        let (_, ub, uc) = u.coefficients();
                        let p = if uc == 0.0 && ub - mu == lambda {
                            marginal.push(i);
                            u.p_min().0
                        } else {
                            u.argmax_minus_price(lambda + mu).0
                        };
                        self.powers[i] = p;
                        total += p;
                    }
                    let mut residual = b - total;
                    for &i in &marginal {
                        if residual <= 0.0 {
                            break;
                        }
                        let u = &self.utilities[i];
                        let room = u.p_max().0 - u.p_min().0;
                        let add = residual.min(room);
                        self.powers[i] += add;
                        residual -= add;
                    }
                }
                1 => {
                    // Pass-through: a chain node funds its only child with
                    // its entire budget (clamped by the child's cap), so
                    // trivial trees reproduce the flat budget bit-exactly.
                    let c = children[0];
                    self.nodes[c].budget = match self.nodes[c].cap {
                        Some(cap) => b.min(cap),
                        None => b,
                    };
                }
                _ => {
                    // Fund each child at its right-continuous demand, then
                    // spread the residual only into children whose curve
                    // jumps at exactly λ (degenerate linear members sitting
                    // at the margin): their left limit is the most a
                    // water-filler may allocate at this price. Continuous
                    // children have zero room, so generic crossings fund
                    // children at their demand exactly.
                    let mut shares: Vec<f64> = children
                        .iter()
                        .map(|&c| exposed[c].demand(lambda))
                        .collect();
                    let lo = shares.clone();
                    let hi: Vec<f64> = children
                        .iter()
                        .map(|&c| exposed[c].demand_left(lambda))
                        .collect();
                    spread_residue(&mut shares, &lo, &hi, b);
                    for (&c, &s) in children.iter().zip(&shares) {
                        self.nodes[c].budget = s;
                    }
                }
            }
        }
    }

    fn tenant_usages(&self) -> Vec<f64> {
        self.tenants
            .iter()
            .map(|t| t.members.iter().map(|&i| self.powers[i]).sum())
            .collect()
    }

    /// Runs the exact curve phase: propagation plus projected dual ascent
    /// on the tenant multipliers until every cross-cutting cap is satisfied
    /// (complementary slackness within tolerance).
    fn solve_curve_phase(&mut self) -> Result<(), AlgError> {
        if self.tenants.is_empty() {
            let (interior, exposed) = self.build_curves();
            self.propagate(&interior, &exposed);
            return Ok(());
        }
        // Damped Newton on μ: the step uses each tenant's demand
        // sensitivity Σ 1/(2|c_i|) as the (diagonal) curvature estimate.
        let curvatures: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| {
                t.members
                    .iter()
                    .map(|&i| {
                        let (_, _, c) = self.utilities[i].coefficients();
                        if c < 0.0 {
                            1.0 / (2.0 * c.abs())
                        } else {
                            0.0
                        }
                    })
                    .sum::<f64>()
                    .max(1e-12)
            })
            .collect();
        let mut iterations = 0;
        for _ in 0..MAX_TENANT_ITERS {
            iterations += 1;
            let (interior, exposed) = self.build_curves();
            self.propagate(&interior, &exposed);
            let usages = self.tenant_usages();
            let converged =
                self.tenants
                    .iter()
                    .zip(&usages)
                    .zip(&self.mu)
                    .all(|((t, &usage), &mu)| {
                        let over = usage - t.cap.0;
                        over <= 1e-7 * t.cap.0.max(1.0) && (mu <= 1e-12 || over >= -1e-4 * t.cap.0)
                    });
            if converged {
                break;
            }
            for ((t, &usage), (mu, &curv)) in self
                .tenants
                .iter()
                .zip(&usages)
                .zip(self.mu.iter_mut().zip(&curvatures))
            {
                *mu = (*mu + 0.8 * (usage - t.cap.0) / curv).max(0.0);
            }
        }
        // Exact feasibility: per-tenant bisection sweeps (raising one μ can
        // free budget that re-violates another tenant, so sweep until
        // clean). Re-propagate first: the ascent loop may have exited with
        // multipliers updated after the last propagation.
        for _ in 0..TENANT_SWEEPS {
            let (interior, exposed) = self.build_curves();
            self.propagate(&interior, &exposed);
            let usages = self.tenant_usages();
            let violated: Vec<usize> = (0..self.tenants.len())
                .filter(|&t| usages[t] > self.tenants[t].cap.0 + 1e-9 * self.tenants[t].cap.0)
                .collect();
            if violated.is_empty() {
                return Ok(());
            }
            for t in violated {
                self.bisect_tenant(t);
            }
        }
        let usages = self.tenant_usages();
        if self
            .tenants
            .iter()
            .zip(&usages)
            .any(|(t, &u)| u > t.cap.0 + 1e-6 * t.cap.0.max(1.0))
        {
            return Err(AlgError::DidNotConverge { iterations });
        }
        Ok(())
    }

    /// Bisection on tenant `t`'s multiplier alone until its usage lands at
    /// the cap from below (other multipliers fixed).
    fn bisect_tenant(&mut self, t: usize) {
        let cap = self.tenants[t].cap.0;
        let mut lo = self.mu[t];
        // A price above every member's start slope pins the tenant to its
        // floor, which is feasible by construction.
        let mut hi = self.tenants[t]
            .members
            .iter()
            .map(|&i| self.utilities[i].slope(self.utilities[i].p_min()))
            .fold(lo, f64::max)
            .max(lo + 1e-9)
            * 2.0;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            self.mu[t] = mid;
            let (interior, exposed) = self.build_curves();
            self.propagate(&interior, &exposed);
            let usage: f64 = self.tenants[t]
                .members
                .iter()
                .map(|&i| self.powers[i])
                .sum();
            if usage > cap {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Land on the feasible side of the bracket.
        self.mu[t] = hi;
        let (interior, exposed) = self.build_curves();
        self.propagate(&interior, &exposed);
    }

    /// Re-solves every leaf with a DiBA ring against its propagated budget.
    /// Tenant members keep their curve-phase allocation as a tightened
    /// upper box, so cross-cutting caps survive the decentralized phase.
    fn solve_leaf_phase(
        &mut self,
        config: DibaConfig,
        rel_tol: f64,
        max_rounds: usize,
    ) -> Result<Vec<u64>, AlgError> {
        let mut leaf_rounds = Vec::with_capacity(self.leaves.len());
        for &l in &self.leaves.clone() {
            let members = self.nodes[l].members.clone();
            let mut leaf_utils = Vec::with_capacity(members.len());
            for &i in &members {
                let u = self.utilities[i];
                let tightened = match self.tenant_of[i] {
                    Some(t) if self.mu[t] > 1e-9 => {
                        let cap = Watts(self.powers[i]).max(u.p_min() + Watts(1e-6));
                        let (a, b, c) = u.coefficients();
                        QuadraticUtility::new(a, b, c, u.p_min(), cap.min(u.p_max())).unwrap_or(u)
                    }
                    _ => u,
                };
                leaf_utils.push(tightened);
            }
            let problem = PowerBudgetProblem::new(leaf_utils, Watts(self.nodes[l].budget))?;
            let reference = problem.total_utility(&centralized::solve(&problem).allocation);
            let mut run = DibaRun::new(problem, Graph::ring(members.len()), config)?;
            let rounds = run.run_until_within(reference, rel_tol, max_rounds).ok_or(
                AlgError::DidNotConverge {
                    iterations: max_rounds,
                },
            )?;
            self.nodes[l].rounds = rounds as u64;
            leaf_rounds.push(rounds as u64);
            let alloc = run.allocation();
            for (slot, &i) in members.iter().enumerate() {
                self.powers[i] = alloc.power(slot).0;
            }
            // Bottom-up demand-price report: the leaf's mean marginal
            // replaces the exact curve-phase λ.
            let price: f64 = members
                .iter()
                .map(|&i| self.utilities[i].slope(Watts(self.powers[i])).max(0.0))
                .sum::<f64>()
                / members.len() as f64;
            self.nodes[l].price = price;
        }
        // Internal prices report bottom-up as server-count-weighted means,
        // mirroring the flat facility's weighted rebalance price.
        for idx in (0..self.nodes.len()).rev() {
            if !self.nodes[idx].children.is_empty() {
                let children = self.nodes[idx].children.clone();
                let weighted: f64 = children
                    .iter()
                    .map(|&c| self.nodes[c].price * self.nodes[c].servers as f64)
                    .sum();
                self.nodes[idx].price = weighted / self.nodes[idx].servers as f64;
            }
        }
        Ok(leaf_rounds)
    }

    fn aggregate_power(&mut self) {
        for idx in (0..self.nodes.len()).rev() {
            if self.nodes[idx].children.is_empty() {
                self.nodes[idx].power = self.nodes[idx]
                    .members
                    .iter()
                    .map(|&i| self.powers[i])
                    .sum();
            } else {
                self.nodes[idx].power = self.nodes[idx]
                    .children
                    .clone()
                    .iter()
                    .map(|&c| self.nodes[c].power)
                    .sum();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::workload::ClusterBuilder;

    fn cluster(n: usize, seed: u64) -> Vec<QuadraticUtility> {
        ClusterBuilder::new(n).seed(seed).build().utilities()
    }

    #[test]
    fn uniform_spec_partitions_contiguously() {
        let spec = DomainSpec::uniform(10, 3, 1);
        let tree = BudgetTree::new(cluster(10, 1), &spec, Watts(1800.0), vec![]).unwrap();
        assert_eq!(tree.leaf_count(), 3);
        assert_eq!(tree.domain_count(), 4);
        assert!(tree.max_leaf_servers() <= 4);
    }

    #[test]
    fn uniform_spec_matches_the_enumeration_of_every_child() {
        // The construction that visited all `fanout` children of every
        // domain, empty ones included.
        fn reference(
            name: String,
            lo: usize,
            hi: usize,
            fanout: usize,
            depth: usize,
        ) -> DomainSpec {
            if depth == 0 {
                return DomainSpec::leaf(name, (lo..hi).collect());
            }
            let count = hi - lo;
            let children = (0..fanout)
                .filter_map(|k| {
                    let a = lo + k * count / fanout;
                    let b = lo + (k + 1) * count / fanout;
                    (a < b).then(|| reference(format!("{name}.{k}"), a, b, fanout, depth - 1))
                })
                .collect();
            DomainSpec::internal(name, children)
        }
        for n in 0..=24 {
            for fanout in 1..=9 {
                for depth in 0..=3 {
                    assert_eq!(
                        DomainSpec::uniform(n, fanout, depth),
                        reference("dc".to_string(), 0, n, fanout, depth),
                        "n {n}, fanout {fanout}, depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_spec_costs_nothing_per_empty_child() {
        // Visiting all 65 536 children of each of the 65 536 one-server
        // domains is 2³² steps; only the non-empty children cost anything.
        let start = std::time::Instant::now();
        let spec = DomainSpec::uniform(65_536, 65_536, 2);
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
        let DomainChildren::Domains(children) = &spec.children else {
            panic!("depth 2 has internal children");
        };
        assert_eq!(children.len(), 65_536);
        assert_eq!(children[65_535].name, "dc.65535");
    }

    #[test]
    fn construction_rejects_bad_trees() {
        let u = cluster(6, 2);
        let spec = DomainSpec::uniform(6, 2, 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                BudgetTree::new(u.clone(), &spec, Watts(bad), vec![]),
                Err(AlgError::InvalidConfig { .. })
            ));
        }
        // Duplicate server 0; server 5 missing.
        let dup = DomainSpec::internal(
            "dc",
            vec![
                DomainSpec::leaf("a", vec![0, 1, 2]),
                DomainSpec::leaf("b", vec![0, 3, 4]),
            ],
        );
        assert!(matches!(
            BudgetTree::new(u.clone(), &dup, Watts(1200.0), vec![]),
            Err(AlgError::DimensionMismatch { .. })
        ));
        // Cap below the subtree floor.
        let capped = DomainSpec::internal(
            "dc",
            vec![
                DomainSpec {
                    cap: Some(Watts(10.0)),
                    ..DomainSpec::leaf("a", vec![0, 1, 2])
                },
                DomainSpec::leaf("b", vec![3, 4, 5]),
            ],
        );
        assert!(matches!(
            BudgetTree::new(u.clone(), &capped, Watts(1200.0), vec![]),
            Err(AlgError::InfeasibleBudget { .. })
        ));
        // Overlapping tenants.
        let overlapping = vec![
            TenantCap::new("t0", vec![0, 1], Watts(800.0)),
            TenantCap::new("t1", vec![1, 2], Watts(800.0)),
        ];
        assert!(BudgetTree::new(u, &spec, Watts(1200.0), overlapping).is_err());
    }

    #[test]
    fn uncapped_tree_matches_the_flat_oracle() {
        for (n, fanout, depth) in [(48, 4, 1), (60, 3, 2), (64, 2, 3)] {
            let u = cluster(n, 7);
            let budget = Watts(165.0 * n as f64);
            let flat = PowerBudgetProblem::new(u.clone(), budget).unwrap();
            let oracle = centralized::solve(&flat);
            let spec = DomainSpec::uniform(n, fanout, depth);
            let mut tree = BudgetTree::new(u, &spec, budget, vec![]).unwrap();
            let sol = tree.solve(&LeafSolver::Oracle).unwrap();
            let dev = sol.allocation.max_abs_diff(&oracle.allocation);
            assert!(
                dev < Watts(1e-5),
                "fanout {fanout} depth {depth}: max deviation {dev}"
            );
            assert!(tree.nested_feasible(Watts(1e-6)));
        }
    }

    #[test]
    fn binding_domain_cap_is_enforced_and_slack_is_reused() {
        let n = 40;
        let u = cluster(n, 3);
        let budget = Watts(180.0 * n as f64);
        // Cap the first rack well below its uncapped draw.
        let mut spec = DomainSpec::uniform(n, 4, 1);
        if let DomainChildren::Domains(children) = &mut spec.children {
            children[0].cap = Some(Watts(1400.0));
        }
        let mut tree = BudgetTree::new(u, &spec, budget, vec![]).unwrap();
        let sol = tree.solve(&LeafSolver::Oracle).unwrap();
        let reports = tree.domain_reports();
        let capped = reports.iter().find(|r| r.cap.is_some()).unwrap();
        assert!(capped.power <= Watts(1400.0) + Watts(1e-6));
        // The freed budget flows to the uncapped racks: total power still
        // tracks the facility budget (no stranded watts).
        assert!(sol.total_power > budget - Watts(1.0));
        assert!(tree.nested_feasible(Watts(1e-6)));
    }

    #[test]
    fn binding_tenant_cap_is_respected_exactly() {
        let n = 32;
        let u = cluster(n, 9);
        let budget = Watts(190.0 * n as f64);
        let spec = DomainSpec::uniform(n, 4, 1);
        // A tenant spanning all four racks, capped below its uncapped draw.
        let members: Vec<usize> = (0..n).step_by(4).collect();
        let uncapped = {
            let mut tree = BudgetTree::new(u.clone(), &spec, budget, vec![]).unwrap();
            let sol = tree.solve(&LeafSolver::Oracle).unwrap();
            members
                .iter()
                .map(|&i| sol.allocation.power(i).0)
                .sum::<f64>()
        };
        let cap = Watts(uncapped * 0.8);
        let tenants = vec![TenantCap::new("acme", members.clone(), cap)];
        let mut tree = BudgetTree::new(u, &spec, budget, tenants).unwrap();
        let sol = tree.solve(&LeafSolver::Oracle).unwrap();
        let usage: f64 = members.iter().map(|&i| sol.allocation.power(i).0).sum();
        assert!(
            usage <= cap.0 + 1e-6 * cap.0,
            "tenant usage {usage} exceeds cap {cap}"
        );
        assert!(sol.tenants[0].binding, "cap at 80% of draw must bind");
        assert!(sol.tenants[0].price > 0.0);
        assert!(tree.nested_feasible(Watts(1e-6)));
    }

    #[test]
    fn diba_leaves_reach_the_tree_optimum() {
        let n = 64;
        let u = cluster(n, 5);
        let budget = Watts(168.0 * n as f64);
        let flat = PowerBudgetProblem::new(u.clone(), budget).unwrap();
        let opt = flat.total_utility(&centralized::solve(&flat).allocation);
        let spec = DomainSpec::uniform(n, 4, 1);
        let mut tree = BudgetTree::new(u, &spec, budget, vec![]).unwrap();
        let sol = tree
            .solve(&LeafSolver::Diba {
                config: DibaConfig::default(),
                rel_tol: 0.01,
                max_rounds: 60_000,
            })
            .unwrap();
        assert_eq!(sol.leaf_rounds.len(), 4);
        let gap = (opt - sol.total_utility).abs() / opt.abs();
        assert!(gap < 0.015, "utility gap {gap}");
        assert!(sol.total_power <= budget + Watts(1e-6));
        assert_eq!(sol.max_leaf_servers, 16);
    }

    #[test]
    fn chain_domains_pass_the_budget_through_unchanged() {
        let n = 12;
        let u = cluster(n, 11);
        let budget = Watts(170.0 * n as f64);
        let spec = DomainSpec::internal(
            "dc",
            vec![DomainSpec::internal(
                "row",
                vec![DomainSpec::leaf("rack", (0..n).collect())],
            )],
        );
        let mut tree = BudgetTree::new(u, &spec, budget, vec![]).unwrap();
        tree.solve(&LeafSolver::Oracle).unwrap();
        for r in tree.domain_reports() {
            assert_eq!(r.budget, budget, "{}: budget not passed through", r.path);
        }
    }
}
