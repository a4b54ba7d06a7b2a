//! The branch-and-bound node loop: a fixed worker pool over a shared
//! best-first queue.
//!
//! [`branch::solve`](crate::branch::solve) prepares the model (presolve,
//! standardization, root LP and cuts) and hands the node loop to
//! [`search`], which runs [`BranchConfig::jobs`](crate::BranchConfig::jobs)
//! workers: `jobs − 1` scoped helper threads plus one worker on the calling
//! thread, so `jobs = 1` is a pool of one that spawns no thread. Every
//! worker runs the same per-node pipeline — bound propagation, dual warm
//! restart, pseudocost branching, the round-and-repair heuristic cadence:
//!
//! * **Open queue.** One `Mutex<BinaryHeap>` ordered best-bound-first, with
//!   a NaN-safe [`f64::total_cmp`] comparator and deeper nodes first on
//!   ties. Workers pop the globally best open node; when the heap runs dry
//!   but peers are still processing (and may push children), a worker
//!   parks on a condvar rather than exiting. The search is over when the
//!   heap is empty *and* no worker is mid-node.
//! * **Shared incumbent.** The incumbent objective lives in an `AtomicU64`
//!   as order-preserving bits, so every worker prunes against the freshest
//!   bound with one relaxed load — no lock on the hot path. Improvements
//!   CAS the objective first (losers retry or abandon), then store the
//!   assignment and a timeline event under a mutex.
//! * **Node state.** Each node carries an `Arc` parent-pointer chain of
//!   branching deltas ([`PathNode`]), so any worker can materialize any
//!   node's bounds without touching shared mutable state. Per-worker
//!   `lb`/`ub` scratch buffers keep simplex state thread-private, while
//!   parent bases travel with the nodes (`Arc<Basis>`) so any worker can
//!   dual-warm-restart.
//! * **Cancellation.** Workers share the solve's [`Budget`]: deadlines and
//!   [`Budget::cancel`] are observed between nodes (via an amortized
//!   [`BudgetChecker`]) and inside every simplex pivot loop, so one
//!   pipeline-level budget still bounds the whole search.
//!
//! Determinism: a pool of one visits nodes in a fixed order, so two
//! `jobs = 1` solves of the same model return the same node and iteration
//! counts and the same assignment. With more workers the *proved optimum*
//! is unchanged (pruning only ever discards nodes that provably cannot
//! beat the incumbent), but node visit order, node/iteration counts, and
//! which of several optimal assignments is returned depend on thread
//! timing.
//!
//! [`Budget`]: gomil_budget::Budget
//! [`Budget::cancel`]: gomil_budget::Budget::cancel
//! [`BudgetChecker`]: gomil_budget::BudgetChecker

use crate::branch::{
    checked_bound, expand, BoundDelta, Incumbent, PcTables, SearchCounters, SearchCtx,
    SearchOutcome,
};
use crate::model::VarKind;
use crate::propagate::propagate_bounds;
use crate::simplex::{
    resolve_lp, solve_lp_from, Basis, KernelStats, LpError, LpOutcome, LpResult, FEAS_TOL,
};
use crate::solution::{IncumbentEvent, IncumbentSource, SolveError};
use gomil_budget::BudgetChecker;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Between-node budget checks sample the clock every this many nodes per
/// worker; the simplex inner loop still checks on its own cadence, so a
/// deadline is never missed by more than one LP solve.
const BUDGET_CHECK_AMORTIZATION: u32 = 8;

/// Maps an f64 to bits whose unsigned order matches the float order
/// (negative floats reversed, sign bit flipped on the rest). Lets an
/// `AtomicU64` hold a minimize-space objective that only ever decreases.
fn key_of(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn val_of(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// One link in a node's parent-pointer chain of branching decisions.
struct PathNode {
    parent: Option<Arc<PathNode>>,
    delta: BoundDelta,
}

/// Applies every delta on the chain, innermost-first. Deltas only ever
/// tighten, so the order does not matter.
fn apply_path(mut path: Option<&Arc<PathNode>>, lb: &mut [f64], ub: &mut [f64]) {
    while let Some(p) = path {
        p.delta.tighten(lb, ub);
        path = p.parent.as_ref();
    }
}

/// An open node in the shared queue.
struct ParNode {
    bound: f64,
    depth: u32,
    path: Option<Arc<PathNode>>,
    /// `(column, went_up, parent LP objective, fractional distance)` for
    /// pseudocost updates.
    branch: Option<(usize, bool, f64, f64)>,
    /// The parent's optimal basis, shared by both children; travels with
    /// the node so whichever worker claims it can dual-warm-restart.
    basis: Option<Arc<Basis>>,
}

impl PartialEq for ParNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ParNode {}
impl Ord for ParNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first, with a
        // preference for deeper nodes (diving) on ties. `total_cmp` keeps
        // this a lawful total order even for NaN bounds (which
        // `checked_bound` rejects upstream anyway): NaN sorts after every
        // real bound instead of silently comparing "equal" to everything
        // and corrupting the heap invariant.
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.depth.cmp(&other.depth))
    }
}
impl PartialOrd for ParNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Why the whole pool must stop early.
enum Stop {
    /// Budget/node limit; carries the best open bound at the trigger.
    Limit(String, f64),
    /// Root relaxation unbounded with no incumbent.
    UnboundedRoot,
    /// Simplex breakdown somewhere; the solve fails as a whole.
    Numerical(String),
}

/// Queue state guarded by one mutex.
struct QueueState {
    heap: BinaryHeap<ParNode>,
    /// Bounds of nodes currently being processed; needed so the final
    /// reported bound covers in-flight work, not just the heap.
    inflight: Vec<f64>,
    /// Workers currently processing a node (may still push children).
    active: usize,
    stop: Option<Stop>,
}

/// Incumbent payload behind the atomic objective mirror.
struct IncSlot {
    best: Option<Incumbent>,
    timeline: Vec<IncumbentEvent>,
}

struct Shared<'c, 'm> {
    ctx: &'c SearchCtx<'m>,
    q: Mutex<QueueState>,
    cv: Condvar,
    /// Minimize-space incumbent objective as order-preserving bits;
    /// `key_of(f64::INFINITY)` while no incumbent exists. Only ever
    /// decreases (CAS), so a relaxed load is always a valid cutoff.
    inc_bits: AtomicU64,
    inc: Mutex<IncSlot>,
    pc: Mutex<PcTables>,
    explored: AtomicU64,
    pruned: AtomicU64,
    branched: AtomicU64,
    lp_iters: AtomicU64,
    warm_attempts: AtomicU64,
    warm_hits: AtomicU64,
    refactors: AtomicU64,
    ftran: AtomicU64,
    ftran_hyper: AtomicU64,
    btran: AtomicU64,
    btran_hyper: AtomicU64,
}

/// What processing one node produced.
enum NodeResult {
    Children(ParNode, ParNode),
    /// Pruned, infeasible, or recorded as an incumbent — no children.
    Exhausted,
    Stop(Stop),
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl<'c, 'm> Shared<'c, 'm> {
    /// The current incumbent objective, if any.
    fn cutoff(&self) -> Option<f64> {
        let best = val_of(self.inc_bits.load(Ordering::Relaxed));
        (best != f64::INFINITY).then_some(best)
    }

    /// Whether a node with this bound cannot beat the incumbent, within
    /// the configured gap tolerance.
    fn prunable(&self, bound: f64) -> bool {
        match self.cutoff() {
            Some(best) => bound >= best - self.ctx.config.gap_tol * best.abs().max(1.0),
            None => false,
        }
    }

    /// Offers a feasible assignment as the shared incumbent. The objective
    /// mirror is CAS'd first — losers (no strict improvement) return
    /// without touching the mutex — then the payload and timeline are
    /// updated under the lock, re-checking in case a better offer landed
    /// between the CAS and the lock.
    fn offer(&self, vals: Vec<f64>, source: IncumbentSource) {
        let obj = self.ctx.eval_obj(&vals);
        if obj.is_nan() {
            return;
        }
        let key = key_of(obj);
        let mut cur = self.inc_bits.load(Ordering::Relaxed);
        loop {
            if obj >= val_of(cur) - 1e-9 {
                return; // not a strict improvement
            }
            match self
                .inc_bits
                .compare_exchange_weak(cur, key, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let mut slot = lock(&self.inc);
        if slot.best.as_ref().is_none_or(|(_, b, _)| obj < b - 1e-9) {
            slot.timeline.push(IncumbentEvent {
                at: self.ctx.start.elapsed(),
                objective: obj,
                source,
            });
            slot.best = Some((vals, obj, source));
        }
    }

    /// Blocks until a node is available, the pool is told to stop, or the
    /// search is exhausted. `None` means "this worker is done".
    fn acquire(&self, checker: &mut BudgetChecker) -> Option<ParNode> {
        let mut q = lock(&self.q);
        loop {
            if q.stop.is_some() {
                return None;
            }
            if let Some(top_bound) = q.heap.peek().map(|n| n.bound) {
                // The top is the minimum bound: if it cannot beat the
                // incumbent, neither can anything below it. Discard the
                // whole heap in one sweep.
                if self.prunable(top_bound) {
                    let n = q.heap.len() as u64;
                    q.heap.clear();
                    self.pruned.fetch_add(n, Ordering::Relaxed);
                    continue;
                }
                if let Err(reason) = checker.check() {
                    q.stop = Some(Stop::Limit(reason.to_string(), top_bound));
                    self.cv.notify_all();
                    return None;
                }
                if self.explored.load(Ordering::Relaxed) >= self.ctx.config.node_limit {
                    let msg = format!("node limit {}", self.ctx.config.node_limit);
                    q.stop = Some(Stop::Limit(msg, top_bound));
                    self.cv.notify_all();
                    return None;
                }
                let node = q.heap.pop().expect("peeked node vanished under lock");
                q.active += 1;
                q.inflight.push(node.bound);
                return Some(node);
            }
            if q.active == 0 {
                // Nothing open, nobody producing: search exhausted.
                self.cv.notify_all();
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Publishes the result of one processed node and updates termination
    /// bookkeeping.
    fn release(&self, bound: f64, result: NodeResult) {
        let mut q = lock(&self.q);
        q.active -= 1;
        if let Some(pos) = q
            .inflight
            .iter()
            .position(|b| b.to_bits() == bound.to_bits())
        {
            q.inflight.swap_remove(pos);
        }
        match result {
            NodeResult::Children(a, b) => {
                q.heap.push(a);
                q.heap.push(b);
            }
            NodeResult::Exhausted => {}
            NodeResult::Stop(s) => {
                if q.stop.is_none() {
                    q.stop = Some(s);
                }
            }
        }
        // Wake sleepers for new work, a stop, or possible termination.
        self.cv.notify_all();
    }

    /// The per-node pipeline: materialize bounds, propagate,
    /// solve the LP relaxation, update pseudocosts, then prune, record an
    /// incumbent, or branch.
    fn process(&self, node: &ParNode, lb_buf: &mut [f64], ub_buf: &mut [f64]) -> NodeResult {
        let ctx = self.ctx;
        let std = &ctx.std;
        let config = ctx.config;
        let explored_now = self.explored.fetch_add(1, Ordering::Relaxed) + 1;

        lb_buf.copy_from_slice(&std.lp.lb);
        ub_buf.copy_from_slice(&std.lp.ub);
        apply_path(node.path.as_ref(), lb_buf, ub_buf);
        if lb_buf
            .iter()
            .zip(ub_buf.iter())
            .any(|(l, u)| *l > u + FEAS_TOL)
        {
            self.pruned.fetch_add(1, Ordering::Relaxed);
            return NodeResult::Exhausted; // branching made it empty
        }
        if !propagate_bounds(&std.lp, lb_buf, ub_buf, &std.col_is_int, 3) {
            self.pruned.fetch_add(1, Ordering::Relaxed);
            return NodeResult::Exhausted; // propagation proved infeasibility
        }

        // Dual warm restart from the basis that traveled with the node;
        // miss ⇒ from-scratch two-phase primal.
        let mut res: Option<LpResult> = None;
        if ctx.config.reuse_basis {
            if let Some(basis) = node.basis.as_deref() {
                self.warm_attempts.fetch_add(1, Ordering::Relaxed);
                match resolve_lp(&std.lp, lb_buf, ub_buf, basis, &ctx.lp_opts) {
                    Ok(Some(r)) => {
                        self.warm_hits.fetch_add(1, Ordering::Relaxed);
                        res = Some(r);
                    }
                    Ok(None) => {}
                    Err(LpError::Budget { reason, iterations }) => {
                        self.lp_iters.fetch_add(iterations, Ordering::Relaxed);
                        return NodeResult::Stop(Stop::Limit(reason.to_string(), node.bound));
                    }
                    Err(LpError::Numerical(msg)) => return NodeResult::Stop(Stop::Numerical(msg)),
                }
            }
        }
        let res = match res {
            Some(r) => r,
            None => match solve_lp_from(&std.lp, lb_buf, ub_buf, &ctx.lp_opts) {
                Ok(r) => r,
                Err(LpError::Budget { reason, iterations }) => {
                    self.lp_iters.fetch_add(iterations, Ordering::Relaxed);
                    return NodeResult::Stop(Stop::Limit(reason.to_string(), node.bound));
                }
                Err(LpError::Numerical(msg)) => return NodeResult::Stop(Stop::Numerical(msg)),
            },
        };
        self.lp_iters.fetch_add(res.iterations, Ordering::Relaxed);
        self.refactors.fetch_add(res.refactors, Ordering::Relaxed);
        self.ftran.fetch_add(res.kernel.ftran, Ordering::Relaxed);
        self.ftran_hyper
            .fetch_add(res.kernel.ftran_hyper, Ordering::Relaxed);
        self.btran.fetch_add(res.kernel.btran, Ordering::Relaxed);
        self.btran_hyper
            .fetch_add(res.kernel.btran_hyper, Ordering::Relaxed);
        let child_basis = res.basis.map(Arc::new);
        let (x, lp_obj) = match res.outcome {
            LpOutcome::Infeasible => {
                self.pruned.fetch_add(1, Ordering::Relaxed);
                return NodeResult::Exhausted;
            }
            LpOutcome::Unbounded => {
                if node.depth == 0 && self.cutoff().is_none() {
                    return NodeResult::Stop(Stop::UnboundedRoot);
                }
                self.pruned.fetch_add(1, Ordering::Relaxed);
                return NodeResult::Exhausted;
            }
            LpOutcome::Optimal { x, obj } => match checked_bound(obj + ctx.obj_offset) {
                Ok(b) => (x, b),
                Err(e) => return NodeResult::Stop(Stop::Numerical(e.to_string())),
            },
        };

        if let Some((col, up, parent_obj, dist)) = node.branch {
            lock(&self.pc).observe(col, up, parent_obj, dist, lp_obj);
        }

        if self.prunable(lp_obj) {
            self.pruned.fetch_add(1, Ordering::Relaxed);
            return NodeResult::Exhausted;
        }

        let pick = lock(&self.pc).pick_branch(&x, &std.col_is_int);
        match pick {
            None => {
                // Integral LP optimum: offer as shared incumbent.
                let mut vals = expand(std, &x);
                for (i, v) in vals.iter_mut().enumerate() {
                    if ctx.model.vars[i].kind != VarKind::Continuous {
                        *v = v.round();
                    }
                }
                self.offer(vals, IncumbentSource::LpIntegral);
                NodeResult::Exhausted
            }
            Some((c, _)) => {
                // Heuristic: round and repair every `heuristic_period`
                // explored nodes (a global count, so the cadence is
                // approximate under concurrency).
                if config.heuristic_period > 0 && explored_now % config.heuristic_period == 1 {
                    if let Some(vals) = crate::heur::round_and_repair(
                        &std.lp,
                        lb_buf,
                        ub_buf,
                        &std.col_is_int,
                        &x,
                        &ctx.lp_opts,
                    ) {
                        let full = expand(std, &vals);
                        if ctx.model.is_feasible(&full, FEAS_TOL * 10.0) {
                            self.offer(full, IncumbentSource::Heuristic);
                        }
                    }
                }
                self.branched.fetch_add(1, Ordering::Relaxed);
                debug_assert!(
                    lp_obj.is_finite(),
                    "child node bound must be finite, got {lp_obj}"
                );
                let xi = x[c];
                let down = xi.floor();
                let up = xi.ceil();
                let depth = node.depth + 1;
                let child = |is_lower: bool, value: f64, dist: f64| ParNode {
                    bound: lp_obj,
                    depth,
                    path: Some(Arc::new(PathNode {
                        parent: node.path.clone(),
                        delta: BoundDelta {
                            col: c as u32,
                            is_lower,
                            value,
                        },
                    })),
                    branch: Some((c, is_lower, lp_obj, dist)),
                    basis: child_basis.clone(),
                };
                NodeResult::Children(child(false, down, xi - down), child(true, up, up - xi))
            }
        }
    }
}

fn worker(shared: &Shared<'_, '_>) {
    let ncols = shared.ctx.std.lp.num_cols;
    let mut lb_buf = vec![0.0; ncols];
    let mut ub_buf = vec![0.0; ncols];
    let mut checker = BudgetChecker::new(shared.ctx.budget.clone(), BUDGET_CHECK_AMORTIZATION);
    while let Some(node) = shared.acquire(&mut checker) {
        let bound = node.bound;
        let result = shared.process(&node, &mut lb_buf, &mut ub_buf);
        shared.release(bound, result);
    }
}

/// Runs the worker-pool search: `jobs − 1` scoped helper threads plus one
/// worker on the calling thread. Called by
/// [`branch::solve`](crate::branch::solve); inherits the prepared context
/// plus any warm-start incumbent/timeline.
pub(crate) fn search(
    ctx: &SearchCtx<'_>,
    incumbent: Option<Incumbent>,
    timeline: Vec<IncumbentEvent>,
) -> Result<SearchOutcome, SolveError> {
    let jobs = ctx.config.jobs.max(1);
    let mut heap = BinaryHeap::new();
    heap.push(ParNode {
        bound: f64::NEG_INFINITY,
        depth: 0,
        path: None,
        branch: None,
        // The root LP was already solved (and cut) in `prepare`; restarting
        // from its basis makes the first node a handful of dual pivots.
        basis: ctx.root_basis.clone(),
    });
    let shared = Shared {
        ctx,
        q: Mutex::new(QueueState {
            heap,
            inflight: Vec::new(),
            active: 0,
            stop: None,
        }),
        cv: Condvar::new(),
        inc_bits: AtomicU64::new(key_of(
            incumbent.as_ref().map_or(f64::INFINITY, |(_, o, _)| *o),
        )),
        inc: Mutex::new(IncSlot {
            best: incumbent,
            timeline,
        }),
        pc: Mutex::new(PcTables::new(ctx.std.lp.num_structural)),
        explored: AtomicU64::new(0),
        pruned: AtomicU64::new(0),
        branched: AtomicU64::new(0),
        lp_iters: AtomicU64::new(0),
        warm_attempts: AtomicU64::new(0),
        warm_hits: AtomicU64::new(0),
        refactors: AtomicU64::new(0),
        ftran: AtomicU64::new(0),
        ftran_hyper: AtomicU64::new(0),
        btran: AtomicU64::new(0),
        btran_hyper: AtomicU64::new(0),
    };

    std::thread::scope(|s| {
        for _ in 1..jobs {
            s.spawn(|| worker(&shared));
        }
        worker(&shared);
    });

    let q = shared.q.into_inner().unwrap_or_else(|p| p.into_inner());
    let slot = shared.inc.into_inner().unwrap_or_else(|p| p.into_inner());
    let counters = SearchCounters {
        explored: shared.explored.load(Ordering::Relaxed),
        pruned: shared.pruned.load(Ordering::Relaxed),
        branched: shared.branched.load(Ordering::Relaxed),
        lp_iters: shared.lp_iters.load(Ordering::Relaxed),
        warm_attempts: shared.warm_attempts.load(Ordering::Relaxed),
        warm_hits: shared.warm_hits.load(Ordering::Relaxed),
        refactors: shared.refactors.load(Ordering::Relaxed),
        kernel: KernelStats {
            ftran: shared.ftran.load(Ordering::Relaxed),
            ftran_hyper: shared.ftran_hyper.load(Ordering::Relaxed),
            btran: shared.btran.load(Ordering::Relaxed),
            btran_hyper: shared.btran_hyper.load(Ordering::Relaxed),
        },
    };

    let mut saw_unbounded_root = false;
    let (limit_hit, mut best_open_bound) = match q.stop {
        None => (None, f64::NEG_INFINITY),
        Some(Stop::Limit(msg, bound)) => (Some(msg), bound),
        Some(Stop::UnboundedRoot) => {
            saw_unbounded_root = true;
            (None, f64::NEG_INFINITY)
        }
        Some(Stop::Numerical(msg)) => return Err(SolveError::Numerical(msg)),
    };
    // The reported bound must cover everything still open when the pool
    // stopped: the trigger node, the remaining heap, and (defensively)
    // anything that was in flight.
    if limit_hit.is_some() {
        if let Some(top) = q.heap.peek() {
            best_open_bound = best_open_bound.min(top.bound);
        }
        for &b in &q.inflight {
            best_open_bound = best_open_bound.min(b);
        }
    }

    Ok(SearchOutcome {
        incumbent: slot.best,
        timeline: slot.timeline,
        counters,
        limit_hit,
        best_open_bound,
        saw_unbounded_root,
    })
}

#[cfg(test)]
mod tests {
    use crate::model::Model;
    use crate::{BranchConfig, Cmp, LinExpr, Sense, SolveError};

    fn knapsack() -> Model {
        let mut m = Model::new("knap");
        let items: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w = [2.0, 3.0, 4.0, 5.0, 7.0, 8.0];
        let v = [3.0, 4.0, 5.0, 6.0, 9.0, 10.0];
        let weight: LinExpr = items.iter().zip(w.iter()).map(|(&x, &wi)| wi * x).sum();
        let value: LinExpr = items.iter().zip(v.iter()).map(|(&x, &vi)| vi * x).sum();
        m.add_constraint("cap", weight, Cmp::Le, 11.0);
        m.set_objective(value, Sense::Maximize);
        m
    }

    #[test]
    fn key_mapping_is_order_preserving() {
        use super::{key_of, val_of};
        let xs = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.75,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(key_of(w[0]) <= key_of(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &x in &xs {
            assert_eq!(val_of(key_of(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn open_node_order_is_total_even_with_nan_bounds() {
        use super::ParNode;
        use std::collections::BinaryHeap;
        let node = |bound: f64| ParNode {
            bound,
            depth: 0,
            path: None,
            branch: None,
            basis: None,
        };
        // Antisymmetry must hold where partial_cmp().unwrap_or(Equal) broke
        // it: NaN vs real compared Equal both ways before, now the order is
        // consistent and reversible.
        let (a, b) = (node(f64::NAN), node(1.0));
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Pop order stays best-first (smallest bound first) with NaN last.
        let mut heap = BinaryHeap::new();
        for bound in [f64::NAN, 1.0, f64::NEG_INFINITY, -3.0] {
            heap.push(node(bound));
        }
        let popped: Vec<f64> = std::iter::from_fn(|| heap.pop().map(|n| n.bound)).collect();
        assert_eq!(popped[0], f64::NEG_INFINITY);
        assert_eq!(popped[1], -3.0);
        assert_eq!(popped[2], 1.0);
        assert!(popped[3].is_nan());
    }

    #[test]
    fn pool_sizes_prove_the_same_objective() {
        for jobs in [1, 2, 4] {
            let m = knapsack();
            let cfg = BranchConfig {
                jobs,
                ..BranchConfig::default()
            };
            let s = m.solve_with(&cfg).unwrap();
            assert!(s.is_optimal(), "jobs={jobs}");
            assert!(
                (s.objective() - 14.0).abs() < 1e-6,
                "jobs={jobs}: {}",
                s.objective()
            );
            assert_eq!(s.jobs(), jobs);
            assert!(s.certificate().is_some());
        }
    }

    #[test]
    fn parallel_detects_infeasibility() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 1.0);
        m.add_constraint("c", 2.0 * x, Cmp::Eq, 1.0);
        let cfg = BranchConfig {
            jobs: 4,
            ..BranchConfig::default()
        };
        assert_eq!(m.solve_with(&cfg).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn parallel_detects_unbounded_root() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let cfg = BranchConfig {
            jobs: 2,
            ..BranchConfig::default()
        };
        assert_eq!(m.solve_with(&cfg).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn parallel_honours_dead_budget_with_warm_start() {
        use gomil_budget::Budget;
        use std::time::Duration;
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let cfg = BranchConfig {
            jobs: 4,
            budget: Budget::with_limit(Duration::ZERO),
            time_limit: None,
            initial: Some(vec![4.0]),
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert_eq!(s.status(), crate::SolveStatus::Feasible);
        assert_eq!(s.int_value(x), 4);
    }

    #[test]
    fn parallel_cancellation_stops_the_pool() {
        use gomil_budget::Budget;
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let budget = Budget::unlimited();
        budget.cancel();
        let cfg = BranchConfig {
            jobs: 8,
            budget,
            time_limit: None,
            ..BranchConfig::default()
        };
        match m.solve_with(&cfg).unwrap_err() {
            SolveError::Limit(msg) => assert!(msg.contains("cancelled"), "{msg}"),
            other => panic!("unexpected: {other}"),
        }
    }
}
