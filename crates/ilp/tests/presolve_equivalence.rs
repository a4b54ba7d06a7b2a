//! Property-style safety net for the MIP presolve: binary probing and
//! coefficient strengthening are *reductions*, so they may shrink the
//! search but must never cut off a certified optimal solution. Every
//! instance on the m ∈ {8, 16} roster is solved twice — presolve on
//! versus off — and the two certified objectives must agree exactly
//! (within feasibility tolerance).

use gomil_ilp::{BranchConfig, Cmp, CutMode, LinExpr, Model, Pricing, Sense};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random 0/1 knapsack: the roster's pure-binary family, where probing
/// and cover-style strengthening both have something to chew on.
fn random_knapsack(n: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(format!("knap{n}"));
    let mut obj = LinExpr::default();
    let mut weight = LinExpr::default();
    for i in 0..n {
        let x = m.add_binary(format!("x{i}"));
        obj += rng.gen_range(1..20) as f64 * x;
        weight += rng.gen_range(1..12) as f64 * x;
    }
    m.add_constraint("cap", weight, Cmp::Le, (6 * n / 2) as f64);
    m.set_objective(obj, Sense::Maximize);
    m
}

/// A random mixed model with implication-style rows (`x_i ≤ u·b_i`) and a
/// shared capacity: the structure probing actually exploits (fixing a
/// binary kills its continuous companion).
fn random_mixed(n: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(format!("mixed{n}"));
    let mut obj = LinExpr::default();
    let mut cap = LinExpr::default();
    for i in 0..n {
        let u = rng.gen_range(1..5) as f64;
        let x = m.add_continuous(format!("x{i}"), 0.0, u);
        let b = m.add_binary(format!("b{i}"));
        // x_i can only be nonzero when its binary is on.
        m.add_constraint(format!("link{i}"), x - u * b, Cmp::Le, 0.0);
        obj += rng.gen_range(1..10) as f64 * x - rng.gen_range(1..6) as f64 * b;
        cap += LinExpr::from(x);
    }
    m.add_constraint("cap", cap, Cmp::Le, (n as f64) * 1.5);
    m.set_objective(obj, Sense::Maximize);
    m
}

fn solve_objective(model: &Model, probing: bool) -> f64 {
    let cfg = BranchConfig {
        probing,
        // Isolate the presolve: no cuts, a deterministic pool of one.
        cuts: CutMode::Off,
        pricing: Pricing::Devex,
        jobs: 1,
        ..BranchConfig::default()
    };
    solve_objective_with(model, &cfg)
}

fn solve_objective_with(model: &Model, cfg: &BranchConfig) -> f64 {
    let sol = model.solve_with(cfg).expect("roster instance must solve");
    assert!(sol.is_optimal(), "{}: must prove optimality", model.name());
    assert!(
        sol.certificate().is_some(),
        "{}: optimum must certify",
        model.name()
    );
    sol.objective()
}

/// Equilibration scaling is an exact reformulation: solving with it
/// engaged must certify the same objective as the unscaled solver on the
/// whole m ∈ {8, 16} roster.
#[test]
fn scaling_never_changes_certified_objectives() {
    let plain = BranchConfig {
        cuts: CutMode::Off,
        pricing: Pricing::Devex,
        jobs: 1,
        scaling: false,
        ..BranchConfig::default()
    };
    let scaled = BranchConfig {
        scaling: true,
        ..plain.clone()
    };
    for n in [8usize, 16] {
        for seed in 0..8u64 {
            for model in [
                random_knapsack(n, 0xC0FFEE ^ (seed << 8) ^ n as u64),
                random_mixed(n, 0xBEEF ^ (seed << 8) ^ n as u64),
            ] {
                let base = solve_objective_with(&model, &plain);
                let with = solve_objective_with(&model, &scaled);
                assert!(
                    (with - base).abs() <= 1e-6,
                    "{} n={n} seed={seed}: scaled objective {with} vs plain {base}",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn probing_and_strengthening_never_cut_off_the_optimum() {
    for n in [8usize, 16] {
        for seed in 0..8u64 {
            let knap = random_knapsack(n, 0xC0FFEE ^ (seed << 8) ^ n as u64);
            let with = solve_objective(&knap, true);
            let without = solve_objective(&knap, false);
            assert!(
                (with - without).abs() <= 1e-6,
                "knapsack n={n} seed={seed}: presolved objective {with} vs plain {without}"
            );

            let mixed = random_mixed(n, 0xBEEF ^ (seed << 8) ^ n as u64);
            let with = solve_objective(&mixed, true);
            let without = solve_objective(&mixed, false);
            assert!(
                (with - without).abs() <= 1e-6,
                "mixed n={n} seed={seed}: presolved objective {with} vs plain {without}"
            );
        }
    }
}
