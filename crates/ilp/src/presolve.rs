//! Bound-tightening presolve.
//!
//! Before branch and bound, the solver propagates constraint activity
//! bounds to tighten variable bounds, rounds integer bounds inward, and
//! detects trivially infeasible or redundant rows. On the GOMIL models this
//! fixes a large fraction of variables outright (e.g. compressor counts in
//! columns whose bit count is too small for any compressor), which directly
//! shrinks the standardized LP: fixed columns are compressed out before the
//! sparse column store is built, so they cost nothing in pricing or FTRAN.
//!
//! Two MIP-grade reductions run on top of the activity fixpoint:
//!
//! * **Binary probing** tentatively fixes a 0/1 variable to each of its two
//!   values and propagates. If one branch is infeasible the variable is
//!   fixed to the other value; if both survive, bounds implied by *both*
//!   branches become global bounds. Probing is capped by a work budget so
//!   it stays cheap on wide models.
//! * **Coefficient strengthening** tightens the coefficient of an integer
//!   variable on a `≤` row when the row cannot be binding unless the
//!   variable sits at its upper bound. The strengthened row is valid for
//!   every integer point of the original model and implies the original
//!   row within the variable bounds, so certification against the original
//!   model is unaffected while the LP relaxation gets strictly tighter.

use crate::expr::{LinExpr, Var};
use crate::model::{Cmp, Model, VarKind};
use crate::simplex::FEAS_TOL;
use gomil_budget::Budget;
use std::collections::VecDeque;

/// Maximum number of binary variables probed per presolve call.
const PROBE_MAX_VARS: usize = 256;
/// Total row-term visits allowed across all probes (keeps probing bounded
/// on wide models where a single propagation can cascade).
const PROBE_WORK_CAP: u64 = 5_000_000;

/// Switches for the optional presolve reductions. The defaults enable
/// everything; the branch-and-bound numerical retry and A/B benchmarks
/// turn individual reductions off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresolveOpts {
    /// Probe binary variables (tentative fix + propagate) to harvest
    /// fixings and implied bounds.
    pub probing: bool,
    /// Strengthen integer coefficients on `≤` rows.
    pub strengthen: bool,
}

impl Default for PresolveOpts {
    fn default() -> Self {
        PresolveOpts {
            probing: true,
            strengthen: true,
        }
    }
}

/// Result of presolving a model.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// Tightened lower bounds, indexed by variable index.
    pub lb: Vec<f64>,
    /// Tightened upper bounds, indexed by variable index.
    pub ub: Vec<f64>,
    /// Rows proven redundant under the tightened bounds (always satisfied).
    pub redundant: Vec<bool>,
    /// Whether the model was proven infeasible.
    pub infeasible: bool,
    /// Number of variables fixed (`lb == ub`) after tightening.
    pub fixed: usize,
    /// Rows whose coefficients were strengthened; the replacement is a `≤`
    /// row that is valid for every integer point and implies the original
    /// row within the variable bounds. Sorted by row index.
    pub strengthened: Vec<StrengthenedRow>,
}

/// One coefficient-strengthened row: `(row index, replacement terms,
/// replacement rhs)`.
pub type StrengthenedRow = (usize, Vec<(Var, f64)>, f64);

/// Runs activity-based bound tightening to a fixpoint (bounded passes).
pub fn presolve(model: &Model) -> Presolved {
    presolve_with_budget(model, &Budget::unlimited())
}

/// Like [`presolve`], but stops tightening early (keeping whatever bounds
/// it has derived so far, which are always valid) once `budget` expires.
pub fn presolve_with_budget(model: &Model, budget: &Budget) -> Presolved {
    presolve_with_opts(model, budget, &PresolveOpts::default())
}

/// What happened when one row was propagated against the current bounds.
enum RowProp {
    /// The row's minimum activity exceeds its rhs: no assignment exists.
    Infeasible,
    /// The row's maximum activity is within its rhs: always satisfied.
    Redundant,
    /// Normal propagation; the flag says whether any bound moved.
    Done(bool),
}

/// Propagates a single `sign·expr ≤ sign·rhs` form, tightening `lb`/`ub`
/// in place. `on_change(i, old_lb, old_ub)` fires before each mutation so
/// probing can record an undo trail.
#[allow(clippy::too_many_arguments)]
fn tighten_form(
    model: &Model,
    expr: &LinExpr,
    sign: f64,
    rhs: f64,
    is_eq: bool,
    lb: &mut [f64],
    ub: &mut [f64],
    mut on_change: impl FnMut(usize, f64, f64),
) -> RowProp {
    let rhs = sign * rhs;
    let mut min_act = 0.0f64;
    let mut max_act = 0.0f64;
    for (v, coef) in expr.iter() {
        let a = sign * coef;
        let (l, u) = (lb[v.index()], ub[v.index()]);
        if a > 0.0 {
            min_act += a * l;
            max_act += a * u;
        } else {
            min_act += a * u;
            max_act += a * l;
        }
    }
    if min_act > rhs + FEAS_TOL {
        return RowProp::Infeasible;
    }
    if !is_eq && max_act <= rhs + FEAS_TOL && max_act.is_finite() {
        return RowProp::Redundant;
    }
    if !min_act.is_finite() {
        return RowProp::Done(false); // cannot propagate through infinite activity
    }
    let mut changed = false;
    // Tighten each variable: a·x ≤ rhs − (min_act − its own minimal
    // contribution).
    for (v, coef) in expr.iter() {
        let a = sign * coef;
        let i = v.index();
        let (l, u) = (lb[i], ub[i]);
        let own_min = if a > 0.0 { a * l } else { a * u };
        let slack = rhs - (min_act - own_min);
        let is_int = model.vars[i].kind != VarKind::Continuous;
        if a > 0.0 {
            let mut new_ub = slack / a;
            if is_int {
                new_ub = (new_ub + FEAS_TOL).floor();
            }
            if new_ub < u - 1e-9 {
                on_change(i, lb[i], ub[i]);
                ub[i] = new_ub;
                changed = true;
            }
        } else {
            let mut new_lb = slack / a;
            if is_int {
                new_lb = (new_lb - FEAS_TOL).ceil();
            }
            if new_lb > l + 1e-9 {
                on_change(i, lb[i], ub[i]);
                lb[i] = new_lb;
                changed = true;
            }
        }
        if lb[i] > ub[i] + FEAS_TOL {
            return RowProp::Infeasible;
        }
    }
    RowProp::Done(changed)
}

/// The `(sign, is_eq)` forms a row decomposes into for propagation.
fn forms_of(cmp: Cmp) -> &'static [(f64, bool)] {
    match cmp {
        Cmp::Le => &[(1.0, false)],
        Cmp::Ge => &[(-1.0, false)],
        Cmp::Eq => &[(1.0, true), (-1.0, true)],
    }
}

/// Runs the activity fixpoint over all rows. Returns `true` if the model
/// was proven infeasible.
fn fixpoint(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    redundant: &mut [bool],
    budget: &Budget,
    passes: usize,
) -> bool {
    for _pass in 0..passes {
        if budget.exhausted() {
            break;
        }
        let mut changed = false;
        for (ci, c) in model.constraints.iter().enumerate() {
            if redundant[ci] {
                continue;
            }
            for &(sign, is_eq) in forms_of(c.cmp) {
                match tighten_form(model, &c.expr, sign, c.rhs, is_eq, lb, ub, |_, _, _| {}) {
                    RowProp::Infeasible => return true,
                    RowProp::Redundant => {
                        redundant[ci] = true;
                        break;
                    }
                    RowProp::Done(c) => changed |= c,
                }
            }
        }
        if !changed {
            break;
        }
    }
    false
}

/// Tentatively fixes variable `probe` to `val`, propagates through the
/// rows touching each changed variable, and returns the bounds implied for
/// every variable the propagation moved (`None` when the branch is
/// infeasible). Bounds are restored before returning either way.
#[allow(clippy::too_many_arguments)]
fn probe_one(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    redundant: &[bool],
    rows_of: &[Vec<u32>],
    probe: usize,
    val: f64,
    work: &mut u64,
) -> Option<Vec<(usize, f64, f64)>> {
    let mut trail: Vec<(usize, f64, f64)> = vec![(probe, lb[probe], ub[probe])];
    lb[probe] = val;
    ub[probe] = val;

    let mut queue: VecDeque<u32> = rows_of[probe].iter().copied().collect();
    let mut in_queue = vec![false; model.num_constraints()];
    for &r in &queue {
        in_queue[r as usize] = true;
    }
    let mut infeasible = false;
    while let Some(ci) = queue.pop_front() {
        in_queue[ci as usize] = false;
        if *work > PROBE_WORK_CAP {
            break; // partial propagation still yields valid implications
        }
        let c = &model.constraints[ci as usize];
        let mut touched: Vec<usize> = Vec::new();
        for &(sign, is_eq) in forms_of(c.cmp) {
            *work += c.expr.iter().count() as u64;
            match tighten_form(model, &c.expr, sign, c.rhs, is_eq, lb, ub, |i, l, u| {
                trail.push((i, l, u));
                touched.push(i);
            }) {
                RowProp::Infeasible => infeasible = true,
                RowProp::Redundant => break,
                RowProp::Done(_) => {}
            }
            if infeasible {
                break;
            }
        }
        if infeasible {
            break;
        }
        for i in touched {
            for &r in &rows_of[i] {
                if !in_queue[r as usize] && !redundant[r as usize] && r != ci {
                    in_queue[r as usize] = true;
                    queue.push_back(r);
                }
            }
        }
    }

    let result = if infeasible {
        None
    } else {
        // First-occurrence dedup of the trail gives the changed set; the
        // current bounds hold this branch's implications.
        let mut emitted: Vec<usize> = Vec::with_capacity(trail.len());
        let mut out: Vec<(usize, f64, f64)> = Vec::with_capacity(trail.len());
        for &(i, _, _) in &trail {
            if !emitted.contains(&i) {
                emitted.push(i);
                out.push((i, lb[i], ub[i]));
            }
        }
        Some(out)
    };

    for &(i, l, u) in trail.iter().rev() {
        lb[i] = l;
        ub[i] = u;
    }
    result
}

/// Probes free binaries; fixes variables whose branches collapse and
/// harvests bounds implied by both branches. Returns `true` if the model
/// was proven infeasible (both branches of some binary die).
fn probe_binaries(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    redundant: &[bool],
    budget: &Budget,
    changed: &mut bool,
) -> bool {
    let n = model.num_vars();
    let mut rows_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (ci, c) in model.constraints.iter().enumerate() {
        if redundant[ci] {
            continue;
        }
        for (v, _) in c.expr.iter() {
            rows_of[v.index()].push(ci as u32);
        }
    }
    let candidates: Vec<usize> = (0..n)
        .filter(|&i| model.vars[i].kind != VarKind::Continuous && lb[i] == 0.0 && ub[i] == 1.0)
        .take(PROBE_MAX_VARS)
        .collect();

    let mut work = 0u64;
    for &i in &candidates {
        if work > PROBE_WORK_CAP || budget.exhausted() {
            break;
        }
        if lb[i] != 0.0 || ub[i] != 1.0 {
            continue; // fixed by an earlier probe
        }
        let down = probe_one(model, lb, ub, redundant, &rows_of, i, 0.0, &mut work);
        let up = probe_one(model, lb, ub, redundant, &rows_of, i, 1.0, &mut work);
        match (down, up) {
            (None, None) => return true,
            (None, Some(_)) => {
                lb[i] = 1.0;
                *changed = true;
            }
            (Some(_), None) => {
                ub[i] = 0.0;
                *changed = true;
            }
            (Some(d0), Some(d1)) => {
                // A bound holds globally only if *both* branches imply it;
                // variables untouched by a branch keep their global bound
                // there, so only the intersection of the changed sets can
                // tighten.
                for &(j, l0, u0) in &d0 {
                    let Some(&(_, l1, u1)) = d1.iter().find(|&&(k, _, _)| k == j) else {
                        continue;
                    };
                    let nl = l0.min(l1);
                    let nu = u0.max(u1);
                    if nl > lb[j] + 1e-9 {
                        lb[j] = nl;
                        *changed = true;
                    }
                    if nu < ub[j] - 1e-9 {
                        ub[j] = nu;
                        *changed = true;
                    }
                    if lb[j] > ub[j] + FEAS_TOL {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Strengthens integer coefficients on non-redundant `≤` rows.
///
/// For a row `Σ aⱼxⱼ ≤ b` with integer `x_k`, `a_k > 0`, finite `u_k` and
/// finite maximum activity `M` of the other terms, let
/// `d = min(b − M − a_k·(u_k − 1), a_k)`. When `d > 0` the row can only be
/// binding if `x_k = u_k`, and `(a_k − d)·x_k + Σ_{j≠k} aⱼxⱼ ≤ b − d·u_k`
/// is valid for every integer point and implies the original row whenever
/// `x_k ≤ u_k`.
fn strengthen_le_rows(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    redundant: &[bool],
) -> Vec<StrengthenedRow> {
    let mut out = Vec::new();
    for (ci, c) in model.constraints.iter().enumerate() {
        if c.cmp != Cmp::Le || redundant[ci] {
            continue;
        }
        let mut terms: Vec<(Var, f64)> = c.expr.iter().collect();
        let mut rhs = c.rhs;
        let mut any = false;
        for k in 0..terms.len() {
            let (vk, ak) = terms[k];
            let i = vk.index();
            if ak <= 0.0
                || model.vars[i].kind == VarKind::Continuous
                || !ub[i].is_finite()
                || ub[i] - lb[i] <= FEAS_TOL
            {
                continue;
            }
            let mut max_others = 0.0f64;
            for (j, &(vj, aj)) in terms.iter().enumerate() {
                if j == k {
                    continue;
                }
                let (l, u) = (lb[vj.index()], ub[vj.index()]);
                max_others += if aj > 0.0 { aj * u } else { aj * l };
            }
            if !max_others.is_finite() {
                continue;
            }
            let d = (rhs - max_others - ak * (ub[i] - 1.0)).min(ak);
            if d > FEAS_TOL {
                terms[k].1 = ak - d;
                rhs -= d * ub[i];
                any = true;
            }
        }
        if any {
            terms.retain(|&(_, a)| a != 0.0);
            out.push((ci, terms, rhs));
        }
    }
    out
}

/// Full presolve with explicit reduction switches: the activity fixpoint,
/// then (optionally) binary probing with a re-run of the fixpoint when it
/// tightened anything, then (optionally) coefficient strengthening.
pub fn presolve_with_opts(model: &Model, budget: &Budget, opts: &PresolveOpts) -> Presolved {
    let n = model.num_vars();
    let mut lb: Vec<f64> = (0..n).map(|i| model.vars[i].lb).collect();
    let mut ub: Vec<f64> = (0..n).map(|i| model.vars[i].ub).collect();

    // Integer bounds start rounded inward.
    for (i, v) in model.vars.iter().enumerate() {
        if v.kind != VarKind::Continuous {
            lb[i] = (lb[i] - FEAS_TOL).ceil();
            ub[i] = (ub[i] + FEAS_TOL).floor();
        }
    }

    let mut redundant = vec![false; model.num_constraints()];
    let mut infeasible = fixpoint(model, &mut lb, &mut ub, &mut redundant, budget, 20);

    if !infeasible && opts.probing && !budget.exhausted() {
        let mut changed = false;
        infeasible = probe_binaries(model, &mut lb, &mut ub, &redundant, budget, &mut changed);
        if !infeasible && changed {
            infeasible = fixpoint(model, &mut lb, &mut ub, &mut redundant, budget, 20);
        }
    }

    let strengthened = if !infeasible && opts.strengthen {
        strengthen_le_rows(model, &lb, &ub, &redundant)
    } else {
        Vec::new()
    };

    let fixed = (0..n)
        .filter(|&i| (ub[i] - lb[i]).abs() <= FEAS_TOL && lb[i].is_finite())
        .count();
    Presolved {
        lb,
        ub,
        redundant,
        infeasible,
        fixed,
        strengthened,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Model};

    #[test]
    fn tightens_upper_bound_from_le_row() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 100.0);
        let y = m.add_continuous("y", 2.0, 100.0);
        m.add_constraint("c", x + y, Cmp::Le, 10.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert_eq!(p.ub[x.index()], 8.0);
        assert_eq!(p.ub[y.index()], 10.0);
    }

    #[test]
    fn rounds_integer_bounds_inward() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Le, 7.0);
        let p = presolve(&m);
        assert_eq!(p.ub[x.index()], 3.0);
    }

    #[test]
    fn detects_infeasible_activity() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x), Cmp::Ge, 2.0);
        let p = presolve(&m);
        assert!(p.infeasible);
    }

    #[test]
    fn fixes_binary_through_chained_rows() {
        // b1 >= 1 forces b1 = 1; b1 + b2 <= 1 then forces b2 = 0.
        let mut m = Model::new("t");
        let b1 = m.add_binary("b1");
        let b2 = m.add_binary("b2");
        m.add_constraint("f", LinExpr::from(b1), Cmp::Ge, 1.0);
        m.add_constraint("x", b1 + b2, Cmp::Le, 1.0);
        let p = presolve(&m);
        assert_eq!((p.lb[b1.index()], p.ub[b1.index()]), (1.0, 1.0));
        assert_eq!((p.lb[b2.index()], p.ub[b2.index()]), (0.0, 0.0));
        assert_eq!(p.fixed, 2);
    }

    #[test]
    fn marks_redundant_rows() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x), Cmp::Le, 5.0);
        let p = presolve(&m);
        assert!(p.redundant[0]);
    }

    #[test]
    fn equality_propagates_both_directions() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 100.0);
        let y = m.add_continuous("y", 0.0, 3.0);
        m.add_constraint("c", x + y, Cmp::Eq, 5.0);
        let p = presolve(&m);
        // x = 5 − y ∈ [2, 5].
        assert_eq!(p.lb[x.index()], 2.0);
        assert_eq!(p.ub[x.index()], 5.0);
    }

    #[test]
    fn probing_fixes_binary_whose_branch_is_infeasible() {
        // With b = 0 the equality x + 2b = 2 forces x = 2 > ub(x) = 1, so
        // probing must fix b = 1 (plain activity propagation cannot: both
        // branch values keep the activity range overlapping the rhs).
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_constraint("c", x + 2.0 * b, Cmp::Eq, 2.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert_eq!((p.lb[b.index()], p.ub[b.index()]), (1.0, 1.0));
    }

    #[test]
    fn probing_detects_infeasibility_when_both_branches_die() {
        // b = 0 forces x = 3 (impossible, ub = 1); b = 1 forces x = -1
        // (impossible, lb = 0).
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_constraint("c", x + 4.0 * b, Cmp::Eq, 3.0);
        let p = presolve(&m);
        assert!(p.infeasible);
    }

    #[test]
    fn probing_harvests_bounds_implied_by_both_branches() {
        // y − b ≥ 2 and y + b ≥ 3: branch b=0 gives y ≥ 3, branch b=1
        // gives y ≥ 3, so y ≥ 3 globally even though each row alone only
        // proves y ≥ 2.
        let mut m = Model::new("t");
        let y = m.add_continuous("y", 0.0, 10.0);
        let b = m.add_binary("b");
        m.add_constraint("c1", y - b, Cmp::Ge, 2.0);
        m.add_constraint("c2", y + b, Cmp::Ge, 3.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert!(p.lb[y.index()] >= 3.0 - 1e-9, "lb = {}", p.lb[y.index()]);
        let off = presolve_with_opts(
            &m,
            &Budget::unlimited(),
            &PresolveOpts {
                probing: false,
                strengthen: false,
            },
        );
        assert!(off.lb[y.index()] < 3.0, "control: probing did the work");
    }

    #[test]
    fn dead_budget_keeps_original_bounds_and_stays_valid() {
        // With an exhausted budget neither the fixpoint loop nor probing
        // runs; the result must still be valid (no false infeasibility,
        // no bogus tightening beyond integer rounding).
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Le, 7.0);
        let b = Budget::with_limit(std::time::Duration::ZERO);
        let p = presolve_with_budget(&m, &b);
        assert!(!p.infeasible);
        assert_eq!(p.ub[x.index()], 10.0, "no passes ran under a dead budget");
    }

    #[test]
    fn dead_budget_never_claims_infeasibility() {
        // This model IS infeasible, but only probing can prove it (see
        // `probing_detects_infeasibility_when_both_branches_die`). With a
        // dead budget no pass runs, so presolve must stay conservative and
        // leave detection to the solver — a false `infeasible` under
        // budget pressure would wrongly prune a live subtree.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_constraint("c", x + 4.0 * b, Cmp::Eq, 3.0);
        let dead = Budget::with_limit(std::time::Duration::ZERO);
        let p = presolve_with_budget(&m, &dead);
        assert!(!p.infeasible, "dead budget must not guess infeasibility");
        let live = presolve(&m);
        assert!(live.infeasible, "control: a live budget does prove it");
    }

    #[test]
    fn dead_budget_marks_no_rows_redundant() {
        // Redundancy marks let the solver drop rows, so they are only safe
        // when the activity pass actually ran.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x), Cmp::Le, 5.0);
        let dead = Budget::with_limit(std::time::Duration::ZERO);
        let p = presolve_with_budget(&m, &dead);
        assert!(!p.redundant[0]);
        assert!(presolve(&m).redundant[0], "control: live budget marks it");
    }

    #[test]
    fn binding_rows_are_never_marked_redundant() {
        // x + y <= 10 with x, y in [0, 8]: max activity 16 > 10, so the
        // row constrains the feasible set and must survive presolve.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 8.0);
        let y = m.add_continuous("y", 0.0, 8.0);
        m.add_constraint("c", x + y, Cmp::Le, 10.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert!(!p.redundant[0]);
    }

    #[test]
    fn strengthens_integer_coefficient_on_le_row() {
        // 3x + y <= 10 with x int in [0,3], y in [0,2]: max_others = 2, so
        // d = 10 - 2 - 3·2 = 2 > 0 ⇒ x's coefficient tightens to 1 and the
        // rhs to 10 - 2·3 = 4 (row becomes x + y <= 4).
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constraint("c", 3.0 * x + y, Cmp::Le, 10.0);
        let p = presolve(&m);
        assert_eq!(p.strengthened.len(), 1);
        let (row, terms, rhs) = &p.strengthened[0];
        assert_eq!(*row, 0);
        assert_eq!(*rhs, 4.0);
        let ax = terms.iter().find(|(v, _)| *v == x).unwrap().1;
        let ay = terms.iter().find(|(v, _)| *v == y).unwrap().1;
        assert_eq!((ax, ay), (1.0, 1.0));
        // The strengthened row keeps exactly the original integer points.
        for xi in 0..=3i32 {
            for yi in [0.0, 1.0, 2.0] {
                let orig = 3.0 * f64::from(xi) + yi <= 10.0 + 1e-9;
                let tight = f64::from(xi) + yi <= 4.0 + 1e-9;
                assert_eq!(orig, tight, "x={xi} y={yi}");
            }
        }
    }

    #[test]
    fn strengthening_leaves_tight_rows_alone() {
        // x + y <= 2 with both in [0,2]: d = 2 - 2 - 1·(2-1) = -1 ⇒ no-op.
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 2.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constraint("c", x + y, Cmp::Le, 2.0);
        let p = presolve(&m);
        assert!(p.strengthened.is_empty());
    }
}
