//! Solver results and errors.

use crate::certify::{Certificate, CertifyError};
use crate::expr::Var;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// The returned solution is optimal (within tolerances).
    Optimal,
    /// A feasible solution was found but the search hit a limit before
    /// proving optimality; the reported bound gives the remaining gap.
    Feasible,
}

/// Where the returned incumbent assignment came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncumbentSource {
    /// The caller-supplied warm start was never improved upon.
    WarmStart,
    /// An LP relaxation happened to be integral.
    LpIntegral,
    /// The round-and-repair heuristic produced it.
    Heuristic,
}

impl fmt::Display for IncumbentSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IncumbentSource::WarmStart => "warm start",
            IncumbentSource::LpIntegral => "integral LP relaxation",
            IncumbentSource::Heuristic => "round-and-repair heuristic",
        })
    }
}

/// What happened to the warm start the caller supplied (if any).
///
/// Warm starts used to be rejected silently; the solver now validates them
/// up front and reports the outcome here, including the exact violation for
/// a rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum WarmStartStatus {
    /// No warm start was supplied.
    NotProvided,
    /// The warm start was feasible and was installed as the initial
    /// incumbent.
    Accepted,
    /// The warm start was infeasible; the violation explains why.
    Rejected(CertifyError),
}

impl fmt::Display for WarmStartStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmStartStatus::NotProvided => f.write_str("not provided"),
            WarmStartStatus::Accepted => f.write_str("accepted"),
            WarmStartStatus::Rejected(e) => write!(f, "rejected: {e}"),
        }
    }
}

/// One incumbent improvement observed during the search.
///
/// The solver appends an event every time a strictly better feasible
/// assignment is admitted (warm starts included), so the sequence of
/// objectives is strictly improving in the model's optimization direction.
#[derive(Debug, Clone, PartialEq)]
pub struct IncumbentEvent {
    /// When the improvement landed, measured from the start of the solve.
    pub at: Duration,
    /// The incumbent objective after the improvement, in the caller's
    /// objective space (i.e. already un-negated for maximize models).
    pub objective: f64,
    /// Which mechanism produced the improvement.
    pub source: IncumbentSource,
}

/// Per-phase timing and work breakdown for the root node of the search.
///
/// Wide models can spend their entire budget before the first branch:
/// building the model, presolving it, factorizing the first basis, and
/// grinding through the root LP. This profile makes that spend visible so
/// regressions in any one phase show up in benchmarks instead of hiding
/// inside total wall-clock. All durations are in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RootProfile {
    /// Time spent constructing the [`Model`](crate::Model) (variables,
    /// linearized constraints) before the solver saw it. Stamped by the
    /// caller via [`Solution::set_build_time`]; `0` when the caller did
    /// not measure it.
    pub build_us: u64,
    /// Time spent in presolve (activity bound tightening, probing,
    /// coefficient strengthening) plus LP standardization.
    pub presolve_us: u64,
    /// Time the first basis factorization took inside the root LP solve.
    pub first_factor_us: u64,
    /// Wall-clock of the first root LP solve (the relaxation before any
    /// cut is added).
    pub root_lp_us: u64,
    /// Simplex iterations of the first root LP solve. Cut-round
    /// re-solves are counted in [`cut_lp_iters`](Self::cut_lp_iters);
    /// both are included in [`Solution::lp_iterations`].
    pub root_lp_iters: u64,
    /// Cut separation rounds that generated at least one cut.
    pub cut_rounds: u64,
    /// Total Gomory + cover cuts appended to the root relaxation.
    pub cuts_added: u64,
    /// Wall-clock of the root cut loop: separation plus the dual
    /// re-solves each round's cuts trigger.
    pub cut_us: u64,
    /// Simplex iterations of the cut-round re-solves.
    pub cut_lp_iters: u64,
    /// Rows rescaled by geometric-mean equilibration (0 when scaling is
    /// disabled or every row already had unit geometric mean).
    pub scale_rows: u64,
    /// Spread of per-row geometric coefficient means (`max/min` over rows
    /// of `geomean(|a|)`) before equilibration (0.0 when scaling did not
    /// run; 1.0 for an empty matrix). A spread already ≤ 4 skips the
    /// rescaling entirely (`rows_scaled` stays 0).
    pub scale_range_before: f64,
    /// Row-geomean spread after equilibration (≤ 2 up to the power-of-two
    /// rounding whenever rescaling actually ran).
    pub scale_range_after: f64,
}

/// A (mixed-)integer solution returned by the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
    pub(crate) best_bound: f64,
    pub(crate) status: SolveStatus,
    pub(crate) nodes: u64,
    pub(crate) nodes_pruned: u64,
    pub(crate) nodes_branched: u64,
    pub(crate) lp_iterations: u64,
    pub(crate) lp_warm_attempts: u64,
    pub(crate) lp_warm_hits: u64,
    pub(crate) lp_refactors: u64,
    pub(crate) lp_ftran: u64,
    pub(crate) lp_ftran_hyper: u64,
    pub(crate) lp_btran: u64,
    pub(crate) lp_btran_hyper: u64,
    pub(crate) wall_time: Duration,
    pub(crate) incumbent_source: IncumbentSource,
    pub(crate) warm_start: WarmStartStatus,
    pub(crate) certificate: Option<Certificate>,
    pub(crate) timeline: Vec<IncumbentEvent>,
    pub(crate) jobs: usize,
    pub(crate) root_profile: RootProfile,
}

impl Solution {
    /// Value of a variable in this solution.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// Value of an integer variable rounded to the nearest integer.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn int_value(&self, var: Var) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// The full assignment, indexed by variable index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective value of the returned assignment.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Best proven bound on the optimal objective. Equals
    /// [`objective`](Self::objective) when the status is
    /// [`SolveStatus::Optimal`].
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// Relative optimality gap `|objective − bound| / max(1, |objective|)`.
    pub fn gap(&self) -> f64 {
        (self.objective - self.best_bound).abs() / self.objective.abs().max(1.0)
    }

    /// Termination status.
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// Whether optimality was proven.
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }

    /// Number of branch-and-bound nodes explored (LP relaxations attempted).
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Number of nodes discarded without producing children: cut off by the
    /// incumbent bound, proven empty by bound propagation, or LP-infeasible.
    pub fn nodes_pruned(&self) -> u64 {
        self.nodes_pruned
    }

    /// Number of nodes whose relaxation was split into two children.
    pub fn nodes_branched(&self) -> u64 {
        self.nodes_branched
    }

    /// Total simplex iterations across all LP relaxations.
    pub fn lp_iterations(&self) -> u64 {
        self.lp_iterations
    }

    /// Nodes that arrived carrying a parent basis and attempted a
    /// dual-simplex warm restart.
    pub fn lp_warm_attempts(&self) -> u64 {
        self.lp_warm_attempts
    }

    /// Warm-restart attempts that reoptimized without falling back to the
    /// from-scratch primal simplex.
    pub fn lp_warm_hits(&self) -> u64 {
        self.lp_warm_hits
    }

    /// Warm-restart hit rate in `[0, 1]`; `0` when no restart was tried.
    pub fn lp_warm_hit_rate(&self) -> f64 {
        if self.lp_warm_attempts == 0 {
            0.0
        } else {
            self.lp_warm_hits as f64 / self.lp_warm_attempts as f64
        }
    }

    /// Basis re-inversions (eta-file rebuilds) across all LP solves.
    pub fn lp_refactors(&self) -> u64 {
        self.lp_refactors
    }

    /// Average simplex pivots per explored node.
    pub fn pivots_per_node(&self) -> f64 {
        self.lp_iterations as f64 / self.nodes.max(1) as f64
    }

    /// FTRAN kernel applications across all LP solves (entering columns
    /// and bound-flip accumulators; dense utility solves excluded).
    pub fn lp_ftran(&self) -> u64 {
        self.lp_ftran
    }

    /// FTRAN applications that stayed on the hypersparse path — the result
    /// pattern never crossed the density cutover, so cost was proportional
    /// to the nonzeros touched rather than the row count.
    pub fn lp_ftran_hyper(&self) -> u64 {
        self.lp_ftran_hyper
    }

    /// BTRAN kernel applications across all LP solves (pricing rows).
    pub fn lp_btran(&self) -> u64 {
        self.lp_btran
    }

    /// BTRAN applications whose result pattern stayed below the density
    /// cutover, enabling sparse row-sweep pricing.
    pub fn lp_btran_hyper(&self) -> u64 {
        self.lp_btran_hyper
    }

    /// Fraction of FTRAN+BTRAN applications served hypersparsely, in
    /// `[0, 1]`; `0` when no kernel call was made.
    pub fn lp_hyper_rate(&self) -> f64 {
        let total = self.lp_ftran + self.lp_btran;
        if total == 0 {
            0.0
        } else {
            (self.lp_ftran_hyper + self.lp_btran_hyper) as f64 / total as f64
        }
    }

    /// Every incumbent improvement in admission order, ending at the
    /// returned assignment. Empty only when the solve failed before any
    /// feasible point (in which case there is no `Solution` to ask).
    pub fn incumbent_timeline(&self) -> &[IncumbentEvent] {
        &self.timeline
    }

    /// How many workers explored the tree (the effective
    /// [`BranchConfig::jobs`](crate::BranchConfig::jobs), at least 1).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Wall-clock time the search spent (including a numerical retry, when
    /// the solve went through [`Model::solve_with`](crate::Model::solve_with)).
    pub fn wall_time(&self) -> Duration {
        self.wall_time
    }

    /// Which mechanism produced the returned incumbent.
    pub fn incumbent_source(&self) -> IncumbentSource {
        self.incumbent_source
    }

    /// Outcome of warm-start validation.
    pub fn warm_start(&self) -> &WarmStartStatus {
        &self.warm_start
    }

    /// The certificate attached by the automatic post-solve check, when the
    /// solution came from [`Model::solve`](crate::Model::solve) or
    /// [`Model::solve_with`](crate::Model::solve_with). `None` for solutions
    /// obtained from the raw [`branch::solve`](crate::branch::solve) engine.
    pub fn certificate(&self) -> Option<&Certificate> {
        self.certificate.as_ref()
    }

    /// Per-phase breakdown of the root-node work (presolve, first
    /// factorization, root LP, cuts). `build_us` is `0` unless the caller
    /// stamped it with [`set_build_time`](Self::set_build_time).
    pub fn root_profile(&self) -> RootProfile {
        self.root_profile
    }

    /// Records how long the caller spent constructing the model before the
    /// solve, so [`root_profile`](Self::root_profile) covers the full path
    /// from formulation to first branch. The solver cannot measure this
    /// itself — it only sees the finished model.
    pub fn set_build_time(&mut self, build: Duration) {
        self.root_profile.build_us = build.as_micros() as u64;
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} objective={} bound={} nodes={} pruned={} branched={} lp_iters={} \
             warm={}/{} refactors={} jobs={}",
            self.status,
            self.objective,
            self.best_bound,
            self.nodes,
            self.nodes_pruned,
            self.nodes_branched,
            self.lp_iterations,
            self.lp_warm_hits,
            self.lp_warm_attempts,
            self.lp_refactors,
            self.jobs
        )
    }
}

/// Errors produced by [`Model::solve`](crate::Model::solve).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The constraints admit no assignment.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A limit (time, nodes) stopped the search before any feasible point
    /// was found. Contains a human-readable description of the limit.
    Limit(String),
    /// The model is malformed (e.g. NaN coefficient) or numerically
    /// intractable for the solver.
    Numerical(String),
    /// The solver produced an answer, but the independent post-solve check
    /// found it violates the original model. This indicates a solver bug;
    /// the result must not be trusted.
    Certify(CertifyError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("model is infeasible"),
            SolveError::Unbounded => f.write_str("model is unbounded"),
            SolveError::Limit(s) => {
                write!(f, "search limit reached before finding a solution: {s}")
            }
            SolveError::Numerical(s) => write!(f, "numerical failure: {s}"),
            SolveError::Certify(e) => write!(f, "solution failed certification: {e}"),
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_zero_for_proven_optimum() {
        let s = Solution {
            values: vec![1.0],
            objective: 5.0,
            best_bound: 5.0,
            status: SolveStatus::Optimal,
            nodes: 1,
            nodes_pruned: 0,
            nodes_branched: 0,
            lp_iterations: 3,
            lp_warm_attempts: 2,
            lp_warm_hits: 1,
            lp_refactors: 4,
            lp_ftran: 6,
            lp_ftran_hyper: 3,
            lp_btran: 2,
            lp_btran_hyper: 1,
            wall_time: Duration::from_millis(1),
            incumbent_source: IncumbentSource::LpIntegral,
            warm_start: WarmStartStatus::NotProvided,
            certificate: None,
            timeline: vec![IncumbentEvent {
                at: Duration::ZERO,
                objective: 5.0,
                source: IncumbentSource::LpIntegral,
            }],
            jobs: 1,
            root_profile: RootProfile {
                root_lp_iters: 2,
                ..RootProfile::default()
            },
        };
        assert_eq!(s.gap(), 0.0);
        assert!(s.is_optimal());
        assert_eq!(s.incumbent_timeline().len(), 1);
        assert_eq!(s.jobs(), 1);
        assert_eq!(s.lp_warm_attempts(), 2);
        assert_eq!(s.lp_warm_hits(), 1);
        assert_eq!(s.lp_warm_hit_rate(), 0.5);
        assert_eq!(s.lp_refactors(), 4);
        assert_eq!(s.pivots_per_node(), 3.0);
        assert_eq!(s.lp_ftran(), 6);
        assert_eq!(s.lp_btran(), 2);
        assert_eq!(s.lp_hyper_rate(), 0.5);
        assert_eq!(s.root_profile().root_lp_iters, 2);
        assert_eq!(s.root_profile().cuts_added, 0);
        let text = s.to_string();
        assert!(text.contains("pruned=0"), "{text}");
        assert!(text.contains("warm=1/2"), "{text}");
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
        assert!(SolveError::Limit("10s".into()).to_string().contains("10s"));
    }

    #[test]
    fn solution_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Solution>();
        assert_send_sync::<SolveError>();
    }
}
