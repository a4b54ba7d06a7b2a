//! The cold workload: `build_gomil` with the default configuration, one
//! cell at a time, no cache, mart or warm-start hint.
//!
//! The untraced run times whole `build_gomil` calls. The traced run
//! replays the same pipeline through the layers' public entry points —
//! PPG, the ladder's rungs, CT realization, prefix DP, CPA, verification,
//! STA — with a span around each call.

use crate::report::{note_quality, put_quality, timed_set_ups, CellQuality, Figures, Run};
use crate::rng::Rng;
use crate::stats::{geomean, median};
use crate::trace::{self_time, Tracer};
use gomil::{
    build_gomil, joint_ilp_budgeted, target_search_budgeted, verify_multiplier, Budget,
    DesignMetrics, GlobalSolution, GomilConfig, GomilDesign, PpgKind, Rung, VerdictTier,
};
use gomil_arith::{
    and_ppg, baugh_wooley_ppg, booth4_ppg, booth8_ppg, realize_schedule, try_required_stages,
};
use gomil_netlist::Netlist;
use gomil_prefix::{dp_tables_budgeted, leaf_types, ppf_csl_sum, TwoRows};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One (width, PPG) design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Operand width.
    pub m: usize,
    /// Partial-product generator.
    pub ppg: PpgKind,
}

impl Ord for Cell {
    fn cmp(&self, other: &Cell) -> std::cmp::Ordering {
        (self.m, self.ppg.label()).cmp(&(other.m, other.ppg.label()))
    }
}

impl PartialOrd for Cell {
    fn partial_cmp(&self, other: &Cell) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Cell {
    /// `m<width>-<PPG>`, e.g. `m8-MBE`.
    pub fn label(self) -> String {
        format!("m{}-{}", self.m, self.ppg.label())
    }
}

/// The lattice of `cold_narrow`: the only band where the joint ILP runs.
pub fn narrow() -> Vec<Cell> {
    [
        (4, PpgKind::And),
        (6, PpgKind::And),
        (8, PpgKind::And),
        (8, PpgKind::Booth4),
    ]
    .into_iter()
    .map(|(m, ppg)| Cell { m, ppg })
    .collect()
}

/// The warm-up design built during set-up: a lattice cell, so set-up runs
/// every layer the timed builds run, the joint ILP and exhaustive
/// verification included.
const WARM_UP: Cell = Cell {
    m: 8,
    ppg: PpgKind::And,
};

/// ILP budget of the warm-up build. The joint ILP spends it whole, as it
/// spends the default budget on the timed cells, so set-up time is this
/// budget plus a few milliseconds of pipeline work and does not move with
/// the host's CPU speed.
const WARM_UP_BUDGET: Duration = Duration::from_millis(300);

/// Times one `build_gomil` call and checks its output: no error, no
/// degradation, a verdict that is not `Failed`, and an independent
/// `verify_multiplier` call on the netlist that agrees with it.
fn build_checked(cell: Cell, cfg: &GomilConfig) -> Result<(f64, CellQuality), String> {
    let label = cell.label();
    let t0 = Instant::now();
    let design = build_gomil(cell.m, cell.ppg, cfg);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let design = design.map_err(|e| format!("{label}: build failed: {e}"))?;
    check_design(&label, &design, cfg)?;
    let metrics = design.build.netlist.metrics(cfg.power_vectors);
    Ok((
        ms,
        quality(
            &label,
            design.solution.objective,
            &metrics,
            design.solution.verdict.tier(),
        ),
    ))
}

fn check_design(label: &str, design: &GomilDesign, cfg: &GomilConfig) -> Result<(), String> {
    let sol = &design.solution;
    let report = &sol.degradation;
    // The serving layer's rule for a result that must not be cached.
    if report.degraded() || report.budget_limited() || report.winner == Some(Rung::DaddaPrefix) {
        return Err(format!("{label}: degraded result ({report})"));
    }
    let tier = sol.verdict.tier();
    if tier == VerdictTier::Failed {
        return Err(format!("{label}: verdict failed"));
    }
    if !sol.objective.is_finite() {
        return Err(format!("{label}: objective {}", sol.objective));
    }
    if let Some(vcfg) = cfg.verify.config() {
        let b = &design.build;
        let again = verify_multiplier(&b.netlist, b.m, b.is_signed(), &vcfg).tier();
        if again != tier {
            return Err(format!(
                "{label}: independent verification says {} but the build says {}",
                again.label(),
                tier.label()
            ));
        }
    }
    Ok(())
}

fn quality(label: &str, objective: f64, m: &DesignMetrics, tier: VerdictTier) -> CellQuality {
    CellQuality {
        cell: label.to_string(),
        objective,
        area: m.area,
        delay: m.delay,
        pdp: m.pdp(),
        verdict: tier.label().to_string(),
    }
}

/// Set-up of a cold run: the configuration and a warm-up build, so lazily
/// mapped code and allocator growth are not charged to the first timed
/// cell.
fn set_up() -> Result<GomilConfig, String> {
    let cfg = GomilConfig::default();
    let warm = GomilConfig {
        solver_budget: WARM_UP_BUDGET,
        ..cfg.clone()
    };
    build_checked(WARM_UP, &warm)?;
    Ok(cfg)
}

/// Times of the untraced passes.
struct Untraced {
    per_cell_ms: BTreeMap<Cell, Vec<f64>>,
    pass_s: Vec<f64>,
}

/// Builds every cell of the lattice, in a seeded order, pass after pass
/// until `seconds` have elapsed (at least one whole pass).
fn untraced(run: &mut Run, cells: &[Cell], cfg: &GomilConfig, seed: u64, seconds: u64) -> Untraced {
    let mut rng = Rng::new(seed, 0);
    let mut out = Untraced {
        per_cell_ms: BTreeMap::new(),
        pass_s: Vec::new(),
    };
    let mut first: BTreeMap<Cell, CellQuality> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        let mut order = cells.to_vec();
        rng.shuffle(&mut order);
        let mut pass_ms = 0.0;
        for cell in order {
            run.attempted += 1;
            match build_checked(cell, cfg) {
                Ok((ms, q)) => {
                    pass_ms += ms;
                    out.per_cell_ms.entry(cell).or_default().push(ms);
                    note_quality(&mut first, cell, q, "between passes", &mut run.problems);
                }
                Err(e) => run.problems.push(e),
            }
        }
        out.pass_s.push(pass_ms / 1e3);
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut medians = Vec::new();
    for (cell, times) in &out.per_cell_ms {
        let m = median(times).unwrap_or(0.0);
        eprintln!(
            "cell_ms {} median {m:.3} over {} builds",
            cell.label(),
            times.len()
        );
        medians.push(m);
    }
    if let Some(g) = geomean(&medians) {
        run.put("design_geomean_ms", g, "ms");
    }
    if let Some(l) = median(&out.pass_s) {
        run.put("lattice_s", l, "s");
    }
    run.quality = first.into_values().collect();
    put_quality(run);
    out
}

/// Runs a cold workload over `cells`.
pub fn run(cells: &[Cell], seed: u64, seconds: u64, traced: bool, origin: Instant) -> Run {
    let mut run = Run::default();
    let cfg = match timed_set_ups(origin, |_| set_up()) {
        Ok((setup_s, cfg)) => {
            run.put("setup_s", setup_s, "s");
            cfg
        }
        Err(e) => {
            run.problems.push(format!("set-up: {e}"));
            return run;
        }
    };
    let base = untraced(&mut run, cells, &cfg, seed, seconds);
    if traced {
        replay_all(&mut run, cells, &cfg, seed, seconds, &base, origin);
    }
    let attempted = run.attempted as f64;
    let errors = run.problems.len() as f64;
    run.put("error_share", errors / attempted.max(1.0), "ratio");
    run
}

/// What one traced replay of a cell produced.
struct Replay {
    objective: f64,
    metrics: DesignMetrics,
    tier: VerdictTier,
    joint: Option<gomil::SolveStats>,
    joint_won: bool,
    /// Ids of the winning rung's span and of the ladder span.
    winner_span: usize,
    ladder_span: usize,
}

/// Replays `build_gomil` for one cell through the layers' public entry
/// points, one span per call. Mirrors the default ladder: the joint ILP
/// where its size guard admits it, then target search; the better
/// objective wins.
fn replay(cell: Cell, cfg: &GomilConfig, tr: &mut Tracer, req: u64) -> Result<Replay, String> {
    let label = cell.label();
    let budget = Budget::unlimited();
    let m = cell.m;
    let root = tr.open("core.build", req, None);
    let mut nl = Netlist::new(format!("gomil_{}_{m}", cell.ppg.label().to_lowercase()));
    let a = nl.add_input("a", m);
    let b = nl.add_input("b", m);
    let pp = tr.span("arith.ppg", req, Some(root), || match cell.ppg {
        PpgKind::And => and_ppg(&mut nl, &a, &b),
        PpgKind::Booth4 => booth4_ppg(&mut nl, &a, &b),
        PpgKind::Booth8 => booth8_ppg(&mut nl, &a, &b),
        PpgKind::BaughWooley => baugh_wooley_ppg(&mut nl, &a, &b),
    });
    let v0 = pp.heights();

    let ladder = tr.open("core.ladder", req, Some(root));
    let mut joint: Option<(GlobalSolution, usize)> = None;
    if v0.len() <= 16 && try_required_stages(&v0).is_some() {
        let id = tr.open("core.joint_ilp", req, Some(ladder));
        let sol = joint_ilp_budgeted(&v0, cfg, &budget);
        tr.close(id);
        joint = Some((
            sol.map_err(|e| format!("{label}: joint ILP failed: {e}"))?,
            id,
        ));
    }
    let ts_id = tr.open("core.target_search", req, Some(ladder));
    let ts = target_search_budgeted(&v0, cfg, &budget);
    tr.close(ts_id);
    let ts = ts.map_err(|e| format!("{label}: target search failed: {e}"))?;
    tr.close(ladder);
    let (sol, winner_span, joint_stats, joint_won) = match joint {
        Some((j, id)) if ts.objective >= j.objective - 1e-9 => {
            let stats = j.solver_stats.clone();
            (j, id, stats, true)
        }
        Some((j, _)) => (ts, ts_id, j.solver_stats, false),
        None => (ts, ts_id, None, false),
    };

    let reduced = tr
        .span("arith.realize", req, Some(root), || {
            realize_schedule(&mut nl, &pp, &sol.schedule)
        })
        .map_err(|e| format!("{label}: realize failed: {e}"))?;
    let rows = TwoRows::from_matrix(&reduced);
    let tree = tr.span("prefix.dp", req, Some(root), || {
        if !cfg.arrival_aware {
            return sol.tree.clone();
        }
        // Arrival-aware re-optimization on the winning V_s, as the build
        // does: CT arrival per column in prefix-node delay units.
        const NODE_DELAY_UNIT: f64 = 1.1;
        let timing = nl.timing();
        let arrivals: Vec<f64> = (0..rows.width())
            .map(|j| {
                rows.column(j)
                    .iter()
                    .map(|&bit| timing.arrival(bit))
                    .fold(0.0, f64::max)
                    / NODE_DELAY_UNIT
            })
            .collect();
        let leaves = leaf_types(sol.vs.counts());
        match dp_tables_budgeted(&leaves, cfg.w, Some(&arrivals), &budget) {
            Ok(t) => t.tree(leaves.len() - 1, 0),
            Err(_) => sol.tree.clone(),
        }
    });
    tr.span("prefix.cpa", req, Some(root), || {
        let mut sum = ppf_csl_sum(&mut nl, &rows, &tree, cfg.select_style);
        sum.truncate(2 * m);
        while sum.len() < 2 * m {
            let z = nl.const0();
            sum.push(z);
        }
        nl.add_output("p", sum);
        nl.prune_dead();
    });
    let tier = match cfg.verify.config() {
        Some(vcfg) => tr
            .span("netlist.verify", req, Some(root), || {
                verify_multiplier(&nl, m, cell.ppg.is_signed(), &vcfg)
            })
            .tier(),
        None => VerdictTier::Skipped,
    };
    tr.close(root);
    let metrics = tr.span("netlist.sta", req, None, || nl.metrics(cfg.power_vectors));
    Ok(Replay {
        objective: sol.objective,
        metrics,
        tier,
        joint: joint_stats,
        joint_won,
        winner_span,
        ladder_span: ladder,
    })
}

/// Cells per pass, to pack (pass, cell) into a request id.
const REQ_STRIDE: u64 = 1000;

/// The traced run: replays the lattice pass after pass (at least one)
/// for `seconds`, then derives the per-layer figures from the spans.
fn replay_all(
    run: &mut Run,
    cells: &[Cell],
    cfg: &GomilConfig,
    seed: u64,
    seconds: u64,
    base: &Untraced,
    origin: Instant,
) {
    let mut tr = Tracer::new(origin);
    let mut rng = Rng::new(seed, 1);
    let reference: BTreeMap<&str, &CellQuality> =
        run.quality.iter().map(|q| (q.cell.as_str(), q)).collect();
    let mut per_pass: Vec<Figures> = Vec::new();
    let mut gaps = Vec::new();
    let (mut joint_runs, mut joint_optimal) = (0usize, 0usize);
    let (mut proved, mut verified) = (0usize, 0usize);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    for pass in 0u64.. {
        let mut order = cells.to_vec();
        rng.shuffle(&mut order);
        let mut f = Figures::new();
        let (mut useful, mut ladder) = (0.0, 0.0);
        for (i, cell) in order.iter().enumerate() {
            let req = pass * REQ_STRIDE + i as u64;
            run.attempted += 1;
            let r = match replay(*cell, cfg, &mut tr, req) {
                Ok(r) => r,
                Err(e) => {
                    run.problems.push(format!("traced replay: {e}"));
                    continue;
                }
            };
            let spans = tr.spans();
            useful += spans[r.winner_span].duration() as f64;
            ladder += spans[r.ladder_span].duration() as f64;
            *f.entry("core.joint_ilp_wins").or_default() += f64::from(u8::from(r.joint_won));
            if let Some(s) = &r.joint {
                joint_runs += 1;
                joint_optimal += usize::from(s.proven_optimal);
                if s.gap.is_finite() {
                    gaps.push(s.gap);
                }
                *f.entry("ilp.nodes").or_default() += s.nodes as f64;
                *f.entry("ilp.lp_iterations").or_default() += s.lp_iterations as f64;
                *f.entry("ilp.root_lp_ms").or_default() += s.root.root_lp_us as f64 / 1e3;
            }
            verified += 1;
            proved += usize::from(r.tier == VerdictTier::Proved);
            let label = cell.label();
            let q = quality(&label, r.objective, &r.metrics, r.tier);
            // A replay that no longer builds what `build_gomil` builds
            // would describe a pipeline the program does not run.
            if let Some(problem) = reference
                .get(label.as_str())
                .and_then(|old| old.mismatch(&q, "between build_gomil and its traced replay"))
            {
                run.problems.push(problem);
            }
        }
        let in_pass = |r: u64| r / REQ_STRIDE == pass;
        for (span, key) in LAYER_MS {
            f.insert(key, tr.total_ms(span, in_pass));
        }
        f.insert("core.ladder_useful_ratio", useful / ladder.max(1.0));
        // Build time in the traced pass, and the part of it that child
        // spans cover.
        let (mut built, mut covered) = (0u64, 0u64);
        for s in tr
            .spans()
            .iter()
            .filter(|s| s.name == "core.build" && in_pass(s.request))
        {
            built += s.duration();
            covered += s.duration() - self_time(tr.spans(), s);
        }
        f.insert("traced_lattice_s", built as f64 / 1e9);
        f.insert("covered_s", covered as f64 / 1e9);
        per_pass.push(f);
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut layers = Figures::new();
    let keys: Vec<&'static str> = per_pass.iter().flat_map(|f| f.keys().copied()).collect();
    for key in keys {
        let values: Vec<f64> = per_pass
            .iter()
            .map(|f| f.get(key).copied().unwrap_or(0.0))
            .collect();
        layers.insert(key, median(&values).unwrap_or(0.0));
    }
    let covered = layers.remove("covered_s").unwrap_or(0.0);
    let traced_lattice = layers.remove("traced_lattice_s").unwrap_or(0.0);
    layers.insert(
        "trace.unattributed_share",
        1.0 - covered / traced_lattice.max(1e-9),
    );
    layers.insert(
        "trace.overhead_lattice_s",
        traced_lattice - median(&base.pass_s).unwrap_or(0.0),
    );
    layers.insert("ilp.gap_median", median(&gaps).unwrap_or(0.0));
    layers.insert(
        "ilp.proved_optimal_share",
        joint_optimal as f64 / joint_runs.max(1) as f64,
    );
    layers.insert(
        "netlist.proved_share",
        proved as f64 / verified.max(1) as f64,
    );
    run.layers = layers;
    run.spans = Some(tr.to_ndjson());
}

/// Span name → per-layer metric (total ms per lattice pass).
const LAYER_MS: [(&str, &str); 9] = [
    ("core.ladder", "core.ladder_ms"),
    ("core.joint_ilp", "core.joint_ilp_ms"),
    ("core.target_search", "core.target_search_ms"),
    ("prefix.dp", "prefix.dp_ms"),
    ("prefix.cpa", "prefix.cpa_ms"),
    ("arith.ppg", "arith.ppg_ms"),
    ("arith.realize", "arith.realize_ms"),
    ("netlist.verify", "netlist.verify_ms"),
    ("netlist.sta", "netlist.sta_ms"),
];
