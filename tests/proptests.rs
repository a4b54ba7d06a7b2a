//! Property-based tests over the core data structures and invariants.

use gomil::{schedule_toward_target, Bcv, CompressionSchedule};
use gomil_arith::{
    dadda_schedule, min_stages, required_stages_modular, schedule_toward_target_modular,
    wallace_schedule, Steerer,
};
use gomil_ilp::{Cmp, LinExpr, Model, Sense, SolveError};
use gomil_netlist::Netlist;
use gomil_prefix::{optimize_prefix_tree, rca_sum, PrefixTree, TwoRows};
use proptest::prelude::*;

/// Strategy: a plausible initial BCV (positive heights, no leading zero).
fn bcv_strategy() -> impl Strategy<Value = Bcv> {
    proptest::collection::vec(1u32..=8, 2..=24).prop_map(Bcv::new)
}

proptest! {
    /// Every 3:2 compressor removes exactly one bit in total; every 2:2
    /// preserves the total. So for ANY schedule produced by our
    /// generators, F = total(V0) − total(Vs).
    #[test]
    fn full_adder_count_equals_total_bit_drop(v0 in bcv_strategy()) {
        for sched in [wallace_schedule(&v0), dadda_schedule(&v0)] {
            let fin = sched.final_bcv(&v0).unwrap();
            prop_assert_eq!(sched.num_full(), v0.total_bits() - fin.total_bits());
            prop_assert!(fin.is_reduced());
        }
    }

    /// Wallace never needs more stages than the fixed-width theoretical
    /// bound (irregular profiles can even beat it, because a top-column
    /// carry extends the matrix and adds parallelism — proptest found
    /// [1, 4] as the minimal example).
    #[test]
    fn wallace_stage_count_is_at_most_the_bound(v0 in bcv_strategy()) {
        let sched = wallace_schedule(&v0);
        prop_assert!(sched.num_stages() as u32 <= min_stages(v0.height()));
    }

    /// For regular AND-PPG profiles: Dadda (whose stage targets are the
    /// bound by construction) achieves it exactly; Wallace lands within
    /// one stage either way — it can even *beat* the fixed-width bound
    /// (m = 29: 7 vs 8) because its leftmost-column compressors extend the
    /// matrix by a column, which the d-sequence bound does not model. The
    /// paper's Fig. 1 dashed rectangle is exactly such a compressor.
    #[test]
    fn stage_counts_for_multipliers(m in 2usize..=48) {
        let v0 = Bcv::and_ppg(m);
        let bound = min_stages(m as u32);
        prop_assert_eq!(dadda_schedule(&v0).num_stages() as u32, bound);
        let w = wallace_schedule(&v0).num_stages() as u32;
        prop_assert!(
            (bound.saturating_sub(1)..=bound + 1).contains(&w),
            "wallace {} vs bound {}",
            w,
            bound
        );
    }

    /// Dadda's compressor cost never exceeds Wallace's on multiplier
    /// matrices (the classic result — it does NOT hold for arbitrary
    /// irregular profiles, where Dadda's extra target stages can cost
    /// more; proptest found [1, 4] as a counterexample).
    #[test]
    fn dadda_cost_at_most_wallace_for_multipliers(m in 2usize..=48) {
        let v0 = Bcv::and_ppg(m);
        let d = dadda_schedule(&v0).cost(3.0, 2.0);
        let w = wallace_schedule(&v0).cost(3.0, 2.0);
        prop_assert!(d <= w + 1e-9, "dadda {} wallace {}", d, w);
    }

    /// Stage-by-stage weighted-count accounting: a 3:2 at column j turns
    /// 3·2^j of count-weight into 2^j + 2^{j+1} (conserving), while a 2:2
    /// turns 2·2^j into 3·2^j (adding exactly 2^j of count-weight — the
    /// *value* is conserved, the per-bit count-weight is not). So
    /// weighted(next) = weighted(cur) + Σ_j h_j·2^j, exactly.
    #[test]
    fn compression_weighted_count_accounting(v0 in bcv_strategy()) {
        let weighted = |v: &Bcv| -> u128 {
            v.iter().enumerate().map(|(j, c)| (c as u128) << j).sum()
        };
        for sched in [dadda_schedule(&v0), wallace_schedule(&v0)] {
            let mut cur = v0.clone();
            for (i, st) in sched.stages.iter().enumerate() {
                let next = CompressionSchedule::apply_stage(i, st, &cur).unwrap();
                let ha_weight: u128 = st
                    .half
                    .iter()
                    .enumerate()
                    .map(|(j, &h)| (h as u128) << j)
                    .sum();
                prop_assert_eq!(weighted(&next), weighted(&cur) + ha_weight);
                cur = next;
            }
        }
    }

    /// The prefix DP's weighted cost is monotone in w and its area at
    /// w = 0 is a lower bound on the area at any weight.
    #[test]
    fn prefix_dp_weight_monotonicity(
        leaf in proptest::collection::vec(any::<bool>(), 2..=16),
        w1 in 0.0f64..8.0,
        w2 in 8.0f64..64.0,
    ) {
        let s0 = optimize_prefix_tree(&leaf, 0.0);
        let s1 = optimize_prefix_tree(&leaf, w1);
        let s2 = optimize_prefix_tree(&leaf, w2);
        prop_assert!(s0.area <= s1.area + 1e-9);
        prop_assert!(s0.area <= s2.area + 1e-9);
        prop_assert!(s2.delay <= s1.delay + 1e-9);
        // Cost function value is monotone in w at fixed tree, so optimal
        // cost is monotone too.
        prop_assert!(s1.cost <= s2.cost + 1e-9);
    }

    /// Any tree reconstructed by the DP must cost exactly what the tables
    /// claim, and every serial/balanced reference tree is never better.
    #[test]
    fn dp_result_dominates_reference_trees(
        leaf in proptest::collection::vec(any::<bool>(), 2..=12),
        w in 0.0f64..32.0,
    ) {
        let sol = optimize_prefix_tree(&leaf, w);
        prop_assert!((sol.tree.weighted_cost(&leaf, w) - sol.cost).abs() < 1e-9);
        let n = leaf.len();
        for t in [PrefixTree::serial(n), PrefixTree::balanced(n)] {
            prop_assert!(sol.cost <= t.weighted_cost(&leaf, w) + 1e-9);
        }
    }

    /// The targeted schedule generator never violates schedule validity
    /// and always reports its true achieved BCV.
    #[test]
    fn targeted_schedules_are_valid(
        v0 in bcv_strategy(),
        seed in any::<u64>(),
    ) {
        let s = min_stages(v0.height()) as usize;
        // Pseudo-random target profile from the seed.
        let target: Vec<u32> = (0..v0.len())
            .map(|j| 1 + ((seed >> (j % 60)) & 1) as u32)
            .collect();
        if let Some((sched, vs)) = schedule_toward_target(&v0, s, &target) {
            let replay = sched.final_bcv(&v0).unwrap();
            prop_assert_eq!(replay, vs.clone());
            prop_assert!(vs.is_reduced());
            prop_assert!(vs.iter().all(|c| c >= 1));
            prop_assert_eq!(sched.num_stages(), s);
        }
    }

    /// Two targets steer one matrix through the same stages but the last,
    /// under both the strict and the modular rule: no stage before the
    /// last depends on the target, which is what lets `Steerer::new` run
    /// those stages once per search. The steerer's achieved profile, last
    /// stage and CT cost agree with its full schedule replayed from `v0`.
    #[test]
    fn steered_schedules_share_all_but_the_last_stage(
        v0 in bcv_strategy(),
        seed1 in any::<u64>(),
        seed2 in any::<u64>(),
    ) {
        let target = |seed: u64| -> Vec<u32> {
            (0..v0.len() + 4).map(|j| 1 + ((seed >> (j % 60)) & 1) as u32).collect()
        };
        let (t1, t2) = (target(seed1), target(seed2));
        let stages = [
            (min_stages(v0.height()) as usize, false),
            (required_stages_modular(&v0), true),
        ];
        for (s, modular) in stages {
            let mut steerer = Steerer::new(&v0, s, modular);
            let mut runs = Vec::new();
            for t in [&t1, &t2] {
                let Some(steered) = steerer.toward(t) else { continue };
                let sched = steered.schedule();
                prop_assert_eq!(sched.num_stages(), s);
                prop_assert_eq!(steered.last_stage(), sched.stages.last());
                let replay = sched.final_bcv(&v0).unwrap();
                prop_assert_eq!(steered.achieved(), replay.counts());
                prop_assert_eq!(steered.ct_cost(3.0, 2.0), sched.cost(3.0, 2.0));
                let one_shot = if modular {
                    schedule_toward_target_modular(&v0, s, t)
                } else {
                    schedule_toward_target(&v0, s, t)
                };
                prop_assert_eq!(one_shot, Some((sched.clone(), replay)));
                runs.push(sched);
            }
            if let [a, b] = runs.as_slice() {
                let head = s.saturating_sub(1);
                prop_assert_eq!(&a.stages[..head], &b.stages[..head]);
            }
        }
    }

    /// Random irregular two-row operands: the RCA adder equals integer
    /// addition for arbitrary widths and shapes.
    #[test]
    fn rca_is_integer_addition(
        shape in proptest::collection::vec(0u32..=2, 1..=12),
        val in any::<u64>(),
    ) {
        let nbits: usize = shape.iter().sum::<u32>() as usize;
        prop_assume!(nbits > 0 && nbits <= 60);
        let mut nl = Netlist::new("t");
        let bits = nl.add_input("x", nbits);
        let mut rows = TwoRows::default();
        let mut off = 0;
        let mut expected: u128 = 0;
        let v = (val as u128) & ((1u128 << nbits) - 1);
        for (j, &h) in shape.iter().enumerate() {
            rows.a.push((h >= 1).then(|| bits[off]));
            rows.b.push((h >= 2).then(|| bits[off + 1]));
            for k in 0..h as usize {
                if (v >> (off + k)) & 1 == 1 {
                    expected += 1 << j;
                }
            }
            off += h as usize;
        }
        let sum = rca_sum(&mut nl, &rows);
        nl.add_output("s", sum);
        prop_assert_eq!(nl.eval_ints(&[v], "s"), expected);
    }

    /// Random DAG netlists: dead-logic pruning must preserve the value of
    /// every output for arbitrary inputs.
    #[test]
    fn prune_preserves_output_semantics(
        ops in proptest::collection::vec((0u8..=5, any::<u16>(), any::<u16>()), 1..40),
        outputs in proptest::collection::vec(any::<u16>(), 1..6),
        stimulus in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let mut nl = Netlist::new("r");
        let inputs = nl.add_input("x", 4);
        let mut nets = inputs.clone();
        for (op, a, b) in ops {
            let x = nets[(a as usize) % nets.len()];
            let y = nets[(b as usize) % nets.len()];
            let n = match op {
                0 => nl.and(x, y),
                1 => nl.or(x, y),
                2 => nl.xor(x, y),
                3 => nl.nand(x, y),
                4 => nl.not(x),
                _ => nl.mux(x, y, x),
            };
            nets.push(n);
        }
        let out_bits: Vec<_> = outputs
            .iter()
            .map(|&o| nets[(o as usize) % nets.len()])
            .collect();
        nl.add_output("o", out_bits);
        let before: Vec<u64> = {
            let sim = nl.simulate(std::slice::from_ref(&stimulus));
            nl.outputs()[0].bits.iter().map(|&b| sim.net(b)).collect()
        };
        nl.prune_dead();
        let after: Vec<u64> = {
            let sim = nl.simulate(std::slice::from_ref(&stimulus));
            nl.outputs()[0].bits.iter().map(|&b| sim.net(b)).collect()
        };
        prop_assert_eq!(before, after);
        let has_dead = nl
            .check()
            .iter()
            .any(|i| matches!(i, gomil_netlist::CheckIssue::DeadLogic { .. }));
        prop_assert!(!has_dead);
    }

    /// Small random MILPs: any solver-claimed optimum must be feasible and
    /// no integer point sampled from the box beats it.
    #[test]
    fn milp_optimum_is_feasible_and_unbeaten(
        coefs in proptest::collection::vec((-3i32..=3, -3i32..=3, -3i32..=3), 2..=3),
        obj in (-3i32..=3, -3i32..=3, -3i32..=3),
        rhs in proptest::collection::vec(0i32..=9, 2..=3),
    ) {
        prop_assume!(coefs.len() == rhs.len());
        let mut m = Model::new("p");
        let xs: Vec<_> = (0..3).map(|i| m.add_integer(format!("x{i}"), 0.0, 3.0)).collect();
        for (ci, ((a, b, c), r)) in coefs.iter().zip(&rhs).enumerate() {
            let e = *a as f64 * xs[0] + *b as f64 * xs[1] + *c as f64 * xs[2];
            m.add_constraint(format!("c{ci}"), e, Cmp::Le, *r as f64);
        }
        let objective: LinExpr =
            obj.0 as f64 * xs[0] + obj.1 as f64 * xs[1] + obj.2 as f64 * xs[2];
        m.set_objective(objective, Sense::Minimize);
        match m.solve() {
            Ok(sol) => {
                prop_assert!(m.is_feasible(sol.values(), 1e-5));
                // Enumerate the 64 integer points of the box.
                for p in 0..64 {
                    let x = [(p & 3) as f64, ((p >> 2) & 3) as f64, ((p >> 4) & 3) as f64];
                    let feas = coefs.iter().zip(&rhs).all(|((a, b, c), r)| {
                        *a as f64 * x[0] + *b as f64 * x[1] + *c as f64 * x[2] <= *r as f64 + 1e-9
                    });
                    if feas {
                        let v = obj.0 as f64 * x[0] + obj.1 as f64 * x[1] + obj.2 as f64 * x[2];
                        prop_assert!(sol.objective() <= v + 1e-6,
                            "solver {} beaten by {:?} = {}", sol.objective(), x, v);
                    }
                }
            }
            Err(SolveError::Infeasible) => {
                // x = 0 is feasible iff all rhs ≥ 0, which they are — so
                // infeasibility must never be claimed.
                prop_assert!(false, "claimed infeasible but origin is feasible");
            }
            Err(e) => prop_assert!(false, "solver error: {e}"),
        }
    }
}
