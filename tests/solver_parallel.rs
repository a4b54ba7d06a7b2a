//! Jobs-matrix tests for the branch-and-bound worker pool: the same model
//! solved with `jobs ∈ {1, 2, 8}` must prove the same objective (the pool
//! size is a latency knob, never a result knob) and every returned
//! solution must pass the independent certifier. A pool of one must also
//! be deterministic.
//!
//! Equality is only meaningful for solves that *prove* optimality — a
//! time- or node-limited search may legitimately return different
//! incumbents depending on exploration order — so the proven-equality
//! matrix runs on instances the solver cracks quickly (randomized
//! knapsacks across the m ∈ {8, 16, 32, 64} size roster, CT ILPs at
//! small widths), while the larger GOMIL models assert the invariants
//! that *do* hold under a limit: certification and never returning worse
//! than the validated warm-start seed.

use gomil::{add_prefix_constraints, build_joint_model, Bcv, CtIlp, GomilConfig, LeafB};
use gomil_ilp::{BranchConfig, Cmp, LinExpr, Model, Sense, Solution};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

const JOBS_MATRIX: [usize; 3] = [1, 2, 8];

fn solve_jobs(model: &Model, base: &BranchConfig, jobs: usize) -> Solution {
    let cfg = BranchConfig {
        jobs,
        ..base.clone()
    };
    model.solve_with(&cfg).expect("solve succeeds")
}

/// A random knapsack with `n` items; LP-fractional at the root so branch
/// and bound genuinely branches, yet small enough to prove optimality in
/// milliseconds.
fn random_knapsack(n: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(format!("knap{n}_{seed}"));
    let mut obj = LinExpr::default();
    let mut weight = LinExpr::default();
    for i in 0..n {
        let x = m.add_binary(format!("x{i}"));
        obj += rng.gen_range(1..20) as f64 * x;
        weight += rng.gen_range(1..12) as f64 * x;
    }
    // Capacity near half the total weight keeps the instance fractional.
    let cap = (6 * n / 2) as f64;
    m.add_constraint("cap", weight, Cmp::Le, cap);
    m.set_objective(obj, Sense::Maximize);
    m
}

#[test]
fn random_milps_prove_the_same_objective_at_any_job_count() {
    // The m ∈ {8, 16, 32, 64} size roster from the acceptance criteria,
    // two seeds each.
    for n in [8usize, 16, 32, 64] {
        for seed in [1u64, 2] {
            let model = random_knapsack(n, seed ^ (n as u64) << 8);
            let base = BranchConfig::default();
            let reference = solve_jobs(&model, &base, 1);
            assert!(
                reference.is_optimal(),
                "n={n} seed={seed}: sequential solve must prove optimality"
            );
            assert!(reference.certificate().is_some());
            for jobs in JOBS_MATRIX {
                let sol = solve_jobs(&model, &base, jobs);
                assert!(
                    sol.is_optimal(),
                    "n={n} seed={seed} jobs={jobs}: must prove optimality"
                );
                assert!(
                    (sol.objective() - reference.objective()).abs() < 1e-6,
                    "n={n} seed={seed} jobs={jobs}: objective {} != {}",
                    sol.objective(),
                    reference.objective()
                );
                assert!(
                    sol.certificate().is_some(),
                    "n={n} seed={seed} jobs={jobs}: solution must certify"
                );
                assert_eq!(sol.jobs(), jobs.max(1));
            }
        }
    }
}

#[test]
fn ct_ilp_proves_the_same_schedule_cost_at_any_job_count() {
    let cfg = GomilConfig::fast();
    for m in [4usize, 5] {
        let v0 = Bcv::and_ppg(m);
        let ct = CtIlp::build(&v0, &cfg);
        let base = BranchConfig {
            time_limit: Some(Duration::from_secs(30)),
            ..BranchConfig::default()
        };
        let reference = solve_jobs(&ct.model, &base, 1);
        assert!(reference.is_optimal(), "CT m={m} proves sequentially");
        for jobs in JOBS_MATRIX {
            let sol = solve_jobs(&ct.model, &base, jobs);
            assert!(sol.is_optimal(), "CT m={m} jobs={jobs} proves");
            assert!(
                (sol.objective() - reference.objective()).abs() < 1e-6,
                "CT m={m} jobs={jobs}: {} != {}",
                sol.objective(),
                reference.objective()
            );
            assert!(sol.certificate().is_some());
            // The decoded schedule must be a feasible compression of v0.
            let schedule = ct.extract_schedule(sol.values());
            assert!(schedule.final_bcv(&v0).is_ok());
        }
    }
}

/// The full-width prefix IP warm-started by the DP: the DP witness is
/// optimal, so whatever the job count, the solve must return exactly the
/// DP cost and certify — even when the proof itself is cut off by the
/// node limit.
#[test]
fn prefix_ip_returns_the_dp_cost_at_any_job_count() {
    let m = 8usize;
    let leaf_vals: Vec<bool> = (0..2 * m - 1).map(|i| i % 3 == 0).collect();
    let mut model = Model::new("prefix_jobs");
    let leaves: Vec<LeafB> = leaf_vals.iter().map(|&b| LeafB::Const(b)).collect();
    let vars = add_prefix_constraints(&mut model, &leaves, 8.0, leaf_vals.len());
    model.set_objective(vars.root_cost.clone(), Sense::Minimize);
    let mut init = vec![0.0; model.num_vars()];
    vars.warm_start_into(&mut init, &leaf_vals);
    let base = BranchConfig {
        node_limit: 50,
        initial: Some(init),
        ..BranchConfig::default()
    };
    let mut objectives = Vec::new();
    for jobs in JOBS_MATRIX {
        let sol = solve_jobs(&model, &base, jobs);
        assert!(sol.certificate().is_some(), "jobs={jobs} certifies");
        objectives.push(sol.objective());
    }
    // All job counts admit the same (optimal) DP warm start, so none may
    // return a different incumbent cost.
    assert!(
        objectives.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6),
        "prefix IP objectives diverge across jobs: {objectives:?}"
    );
}

/// The joint Eq. 27 model is too hard to prove at any useful width, so
/// under a node limit the guaranteed invariants are: the solve certifies,
/// reports a coherent gap, and never returns worse than the best
/// validated warm-start seed it was given.
#[test]
fn joint_ilp_under_a_node_limit_certifies_and_respects_its_seeds() {
    let cfg = GomilConfig::fast();
    let v0 = Bcv::and_ppg(4);
    let jm = build_joint_model(&v0, &cfg, None).expect("m=4 has a joint model");
    let seed_cost: f64 = {
        // Re-evaluate the first seed through the model objective.
        let jm2 = build_joint_model(&v0, &cfg, None).unwrap();
        let base = BranchConfig {
            node_limit: 1,
            initial: Some(jm2.seeds[0].clone()),
            ..BranchConfig::default()
        };
        jm2.model.solve_with(&base).unwrap().objective()
    };
    for jobs in JOBS_MATRIX {
        let mut seeds = jm.seeds.clone().into_iter();
        let base = BranchConfig {
            node_limit: 120,
            initial: seeds.next(),
            extra_starts: seeds.collect(),
            jobs,
            ..BranchConfig::default()
        };
        let sol = jm.model.solve_with(&base).expect("joint solve succeeds");
        assert!(sol.certificate().is_some(), "jobs={jobs} certifies");
        assert!(
            sol.objective() <= seed_cost + 1e-6,
            "jobs={jobs}: objective {} worse than seed {seed_cost}",
            sol.objective()
        );
        assert!(
            sol.gap() >= -1e-9,
            "jobs={jobs}: negative gap {}",
            sol.gap()
        );
        assert!(sol.nodes() >= 1);
    }
}

/// Telemetry flows through at every job count, and the counters are
/// coherent: explored ≥ branched, every branch creates two children, and
/// the incumbent timeline improves monotonically.
#[test]
fn telemetry_is_coherent_at_every_job_count() {
    let model = random_knapsack(16, 99);
    for jobs in JOBS_MATRIX {
        let sol = solve_jobs(&model, &BranchConfig::default(), jobs);
        assert!(sol.nodes() >= 1, "jobs={jobs}");
        assert!(sol.nodes() >= sol.nodes_branched(), "jobs={jobs}");
        assert!(
            sol.lp_iterations() > 0,
            "jobs={jobs}: simplex iterations must be counted"
        );
        let timeline = sol.incumbent_timeline();
        assert!(!timeline.is_empty(), "jobs={jobs}: optimum was admitted");
        // Maximization: later incumbents are strictly better.
        for w in timeline.windows(2) {
            assert!(
                w[1].objective > w[0].objective,
                "jobs={jobs}: timeline not improving: {timeline:?}"
            );
        }
        let last = timeline.last().unwrap();
        assert!((last.objective - sol.objective()).abs() < 1e-9);
    }
}

/// A pool of one is deterministic: two `jobs = 1` solves of a model that
/// branches (joint m=3 AND explores over a hundred nodes) visit the same
/// nodes, spend the same simplex iterations, and return the same values.
#[test]
fn a_pool_of_one_is_deterministic() {
    let cfg = GomilConfig::default();
    let jm = build_joint_model(&Bcv::and_ppg(3), &cfg, None).expect("m=3 has a joint model");
    let solve = || {
        let mut seeds = jm.seeds.clone().into_iter();
        let base = BranchConfig {
            initial: seeds.next(),
            extra_starts: seeds.collect(),
            ..BranchConfig::default()
        };
        solve_jobs(&jm.model, &base, 1)
    };
    let (a, b) = (solve(), solve());
    assert!(
        a.is_optimal() && a.nodes_branched() > 0,
        "must prove by branching"
    );
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.lp_iterations(), b.lp_iterations());
    assert_eq!(a.values(), b.values());
}

/// Regression for the NaN ordering bug: a NaN cost coefficient must
/// surface as a typed numerical error at every job count, never corrupt
/// the best-first queue.
#[test]
fn nan_objective_is_rejected_at_every_job_count() {
    for jobs in JOBS_MATRIX {
        let mut m = Model::new("nan");
        let x = m.add_integer("x", 0.0, 5.0);
        m.set_objective(f64::NAN * x, Sense::Maximize);
        let err = m
            .solve_with(&BranchConfig {
                jobs,
                ..BranchConfig::default()
            })
            .expect_err("NaN objective must not solve");
        assert!(
            matches!(err, gomil_ilp::SolveError::Numerical(_)),
            "jobs={jobs}: got {err:?}"
        );
    }
}
