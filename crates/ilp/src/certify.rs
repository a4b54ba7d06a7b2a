//! Independent certification of solver results.
//!
//! The branch-and-bound engine in [`branch`](crate::branch) maintains a lot
//! of derived state (compressed columns, presolve-tightened bounds, slack
//! rows). A bug anywhere in that machinery could silently return an
//! assignment that violates the *original* model. This module re-checks a
//! returned [`Solution`] against the model as written, sharing no code with
//! the solve path: it walks the raw variable bounds, integrality
//! requirements, constraint expressions, and objective, and reports the
//! first violation as a typed [`CertifyError`].
//!
//! [`Model::solve`](crate::Model::solve) and
//! [`Model::solve_with`](crate::Model::solve_with) run [`certify`]
//! automatically on every solution they return, so a certified
//! [`Certificate`] is attached to every [`Solution`] the public API hands
//! out. The checks are also available directly for auditing external
//! assignments (e.g. warm starts) via [`certify_values`].

use crate::model::{Cmp, Model, Sense, VarKind};
use crate::solution::Solution;
use std::fmt;

/// Absolute tolerance for bound, integrality, and constraint residuals.
pub const CERT_FEAS_TOL: f64 = 1e-5;
/// Relative tolerance for the recomputed objective value.
pub const CERT_OBJ_TOL: f64 = 1e-6;

/// A violation found while re-checking a solution against its model.
#[derive(Debug, Clone, PartialEq)]
pub enum CertifyError {
    /// The assignment has the wrong number of values for the model.
    WrongArity {
        /// Number of variables in the model.
        expected: usize,
        /// Number of values in the assignment.
        got: usize,
    },
    /// A value is NaN or infinite.
    NonFinite {
        /// Variable name.
        var: String,
        /// Variable index.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A value lies outside its variable's declared bounds.
    BoundViolation {
        /// Variable name.
        var: String,
        /// Variable index.
        index: usize,
        /// The offending value.
        value: f64,
        /// Declared lower bound.
        lower: f64,
        /// Declared upper bound.
        upper: f64,
    },
    /// An integer or binary variable takes a fractional value.
    IntegralityViolation {
        /// Variable name.
        var: String,
        /// Variable index.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A constraint's residual exceeds tolerance.
    ConstraintViolation {
        /// Constraint name.
        constraint: String,
        /// Constraint index.
        index: usize,
        /// Signed violation amount (how far past the right-hand side).
        residual: f64,
    },
    /// The objective reported by the solver disagrees with the objective
    /// recomputed from the returned values.
    ObjectiveMismatch {
        /// Objective value the solver reported.
        reported: f64,
        /// Objective recomputed from the assignment.
        recomputed: f64,
    },
    /// The reported best bound sits on the wrong side of the objective for
    /// the model's optimization sense.
    BoundSideError {
        /// Objective value the solver reported.
        objective: f64,
        /// Best bound the solver reported.
        bound: f64,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::WrongArity { expected, got } => write!(
                f,
                "assignment has {got} values but the model has {expected} variables"
            ),
            CertifyError::NonFinite { var, index, value } => {
                write!(f, "variable {var} (#{index}) has non-finite value {value}")
            }
            CertifyError::BoundViolation {
                var,
                index,
                value,
                lower,
                upper,
            } => write!(
                f,
                "variable {var} (#{index}) = {value} violates bounds [{lower}, {upper}]"
            ),
            CertifyError::IntegralityViolation { var, index, value } => write!(
                f,
                "integer variable {var} (#{index}) has fractional value {value}"
            ),
            CertifyError::ConstraintViolation {
                constraint,
                index,
                residual,
            } => write!(
                f,
                "constraint {constraint} (#{index}) violated by {residual:.3e}"
            ),
            CertifyError::ObjectiveMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "reported objective {reported} disagrees with recomputed value {recomputed}"
            ),
            CertifyError::BoundSideError { objective, bound } => write!(
                f,
                "best bound {bound} is on the wrong side of objective {objective}"
            ),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Evidence that a solution passed independent re-checking, with the worst
/// residuals observed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Certificate {
    /// Largest bound violation over all variables (≤ tolerance).
    pub max_bound_violation: f64,
    /// Largest distance from integrality over all integer variables.
    pub max_integrality_violation: f64,
    /// Largest constraint residual past its right-hand side.
    pub max_constraint_residual: f64,
    /// Absolute difference between reported and recomputed objective.
    pub objective_error: f64,
}

/// Checks a raw assignment against the model's bounds, integrality
/// requirements, and constraints within `tol`.
///
/// This is the value-level half of [`certify`]; it is also used to vet
/// warm-start assignments before the solver accepts them as incumbents.
///
/// # Errors
///
/// The first violation found, as a typed [`CertifyError`].
pub fn certify_values(
    model: &Model,
    values: &[f64],
    tol: f64,
) -> Result<Certificate, CertifyError> {
    if values.len() != model.num_vars() {
        return Err(CertifyError::WrongArity {
            expected: model.num_vars(),
            got: values.len(),
        });
    }
    let mut cert = Certificate::default();
    for (i, (v, &x)) in model.vars.iter().zip(values.iter()).enumerate() {
        if !x.is_finite() {
            return Err(CertifyError::NonFinite {
                var: v.name.clone(),
                index: i,
                value: x,
            });
        }
        let bound_viol = (v.lb - x).max(x - v.ub).max(0.0);
        if bound_viol > tol {
            return Err(CertifyError::BoundViolation {
                var: v.name.clone(),
                index: i,
                value: x,
                lower: v.lb,
                upper: v.ub,
            });
        }
        cert.max_bound_violation = cert.max_bound_violation.max(bound_viol);
        if v.kind != VarKind::Continuous {
            let frac = (x - x.round()).abs();
            if frac > tol {
                return Err(CertifyError::IntegralityViolation {
                    var: v.name.clone(),
                    index: i,
                    value: x,
                });
            }
            cert.max_integrality_violation = cert.max_integrality_violation.max(frac);
        }
    }
    for (ci, c) in model.constraints.iter().enumerate() {
        let lhs = c.expr.eval(values);
        let residual = match c.cmp {
            Cmp::Le => lhs - c.rhs,
            Cmp::Ge => c.rhs - lhs,
            Cmp::Eq => (lhs - c.rhs).abs(),
        }
        .max(0.0);
        if residual > tol {
            return Err(CertifyError::ConstraintViolation {
                constraint: c.name.clone(),
                index: ci,
                residual,
            });
        }
        cert.max_constraint_residual = cert.max_constraint_residual.max(residual);
    }
    Ok(cert)
}

/// Fully certifies a [`Solution`] against its model: value feasibility (via
/// [`certify_values`]), a recomputed objective, and a sanity check that the
/// reported best bound lies on the correct side for the model's sense.
///
/// # Errors
///
/// The first violation found, as a typed [`CertifyError`].
pub fn certify(model: &Model, sol: &Solution) -> Result<Certificate, CertifyError> {
    let mut cert = certify_values(model, sol.values(), CERT_FEAS_TOL)?;

    let recomputed = model.objective.eval(sol.values());
    let reported = sol.objective();
    let obj_err = (reported - recomputed).abs();
    if obj_err > CERT_OBJ_TOL * reported.abs().max(1.0) {
        return Err(CertifyError::ObjectiveMismatch {
            reported,
            recomputed,
        });
    }
    cert.objective_error = obj_err;

    let bound = sol.best_bound();
    let slack = CERT_OBJ_TOL * reported.abs().max(1.0);
    let ok = match model.sense {
        Sense::Minimize => bound <= reported + slack,
        Sense::Maximize => bound >= reported - slack,
    };
    if !ok {
        return Err(CertifyError::BoundSideError {
            objective: reported,
            bound,
        });
    }
    Ok(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Sense};
    use crate::LinExpr;

    fn knapsack() -> Model {
        let mut m = Model::new("k");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_constraint("cap", 3.0 * a + 4.0 * b, Cmp::Le, 5.0);
        m.set_objective(5.0 * a + 6.0 * b, Sense::Maximize);
        m
    }

    #[test]
    fn accepts_a_genuine_optimum() {
        let m = knapsack();
        let s = m.solve().unwrap();
        let cert = certify(&m, &s).unwrap();
        assert!(cert.max_constraint_residual <= CERT_FEAS_TOL);
        assert!(cert.objective_error <= CERT_OBJ_TOL);
    }

    #[test]
    fn rejects_out_of_bounds_value() {
        let m = knapsack();
        let err = certify_values(&m, &[2.0, 0.0], CERT_FEAS_TOL).unwrap_err();
        assert!(matches!(err, CertifyError::BoundViolation { index: 0, .. }));
    }

    #[test]
    fn rejects_fractional_integer() {
        let m = knapsack();
        let err = certify_values(&m, &[0.5, 0.0], CERT_FEAS_TOL).unwrap_err();
        assert!(matches!(
            err,
            CertifyError::IntegralityViolation { index: 0, .. }
        ));
    }

    #[test]
    fn rejects_constraint_violation_with_name() {
        let m = knapsack();
        let err = certify_values(&m, &[1.0, 1.0], CERT_FEAS_TOL).unwrap_err();
        match err {
            CertifyError::ConstraintViolation {
                constraint,
                residual,
                ..
            } => {
                assert_eq!(constraint, "cap");
                assert!((residual - 2.0).abs() < 1e-9);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_arity_and_non_finite() {
        let m = knapsack();
        assert!(matches!(
            certify_values(&m, &[1.0], CERT_FEAS_TOL).unwrap_err(),
            CertifyError::WrongArity {
                expected: 2,
                got: 1
            }
        ));
        assert!(matches!(
            certify_values(&m, &[f64::NAN, 0.0], CERT_FEAS_TOL).unwrap_err(),
            CertifyError::NonFinite { index: 0, .. }
        ));
    }

    #[test]
    fn rejects_corrupted_objective_and_bound_side() {
        let m = knapsack();
        let mut s = m.solve().unwrap();
        s.objective += 1.0;
        assert!(matches!(
            certify(&m, &s).unwrap_err(),
            CertifyError::ObjectiveMismatch { .. }
        ));
        let mut s2 = m.solve().unwrap();
        // Maximize: a bound *below* the objective claims the incumbent beats
        // the proven optimum, which is impossible.
        s2.best_bound = s2.objective - 1.0;
        assert!(matches!(
            certify(&m, &s2).unwrap_err(),
            CertifyError::BoundSideError { .. }
        ));
    }

    #[test]
    fn minimize_bound_side() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let mut s = m.solve().unwrap();
        assert!(certify(&m, &s).is_ok());
        s.best_bound = s.objective + 1.0;
        assert!(matches!(
            certify(&m, &s).unwrap_err(),
            CertifyError::BoundSideError { .. }
        ));
    }
}
