//! Narrow-lattice roster gate: the served objective of every small
//! multiplier, checked against a recorded baseline.
//!
//! Builds every cell m = 2..8 × {AND, MBE, MBE8, BW} (the widths at which
//! the joint ILP once ran for up to 16 columns) cold, through `build_gomil`
//! with the default configuration, and prints for each cell its column
//! count, served objective, winning rung and the joint ILP's outcome and
//! wall time. The run fails (exit 1) when
//!
//! * a served objective is worse than its baseline, unless that cell's
//!   joint ILP ran out its wall-clock budget — whether it proves in time
//!   depends on host speed, so such a cell is reported, not failed;
//! * a verdict is `failed`, or a build errors;
//! * the cold m = 8 AND build takes 1 s or more.
//!
//! The baseline is the design each cell was served when the joint ILP ran
//! on every matrix of at most 16 columns under the default 10 s budget.
//! [`JOINT_ILP_MAX_COLUMNS`] now narrows that guard; this gate shows the
//! narrowing serves no cell a worse design.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gomil-bench --bin narrow_lattice [-- --quick]
//! ```
//!
//! `--quick` runs the square lattice (for `scripts/check.sh`). The full
//! run adds narrow shapes of the other two entry points that share the
//! ladder, `build_gomil_rect` and `build_gomil_truncated`, against the
//! same kind of baseline.

use gomil::{
    build_gomil, build_gomil_rect, build_gomil_truncated, GomilConfig, GomilDesign, GomilError,
    PpgKind, Rung, RungOutcome, VerdictTier, JOINT_ILP_MAX_COLUMNS,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A multiplier shape and the entry point that builds it.
#[derive(Clone, Copy)]
enum Shape {
    /// `build_gomil(m, ppg)`.
    Square(usize, PpgKind),
    /// `build_gomil_rect(m, n)`.
    Rect(usize, usize),
    /// `build_gomil_truncated(m, k)`.
    Truncated(usize, usize),
}

impl Shape {
    fn label(self) -> String {
        match self {
            Shape::Square(m, ppg) => format!("{} m={m}", ppg.label()),
            Shape::Rect(m, n) => format!("rect {m}x{n}"),
            Shape::Truncated(m, k) => format!("trunc m={m} k={k}"),
        }
    }

    fn build(self, cfg: &GomilConfig) -> Result<GomilDesign, GomilError> {
        match self {
            Shape::Square(m, ppg) => build_gomil(m, ppg, cfg),
            Shape::Rect(m, n) => build_gomil_rect(m, n, cfg),
            Shape::Truncated(m, k) => build_gomil_truncated(m, k, cfg),
        }
    }
}

/// The square lattice with its baseline served objectives.
const SQUARE: [(usize, PpgKind, f64); 24] = [
    (2, PpgKind::And, 22.0),
    (2, PpgKind::Booth4, 41.0),
    (2, PpgKind::BaughWooley, 42.0),
    (3, PpgKind::And, 60.0),
    (3, PpgKind::Booth8, 33.0),
    (3, PpgKind::BaughWooley, 70.0),
    (4, PpgKind::And, 98.0),
    (4, PpgKind::Booth4, 97.0),
    (4, PpgKind::Booth8, 96.0),
    (4, PpgKind::BaughWooley, 101.0),
    (5, PpgKind::And, 125.0),
    (5, PpgKind::Booth8, 118.0),
    (5, PpgKind::BaughWooley, 136.0),
    (6, PpgKind::And, 174.0),
    (6, PpgKind::Booth4, 157.0),
    (6, PpgKind::Booth8, 140.0),
    (6, PpgKind::BaughWooley, 177.0),
    (7, PpgKind::And, 213.0),
    (7, PpgKind::Booth8, 176.0),
    (7, PpgKind::BaughWooley, 216.0),
    (8, PpgKind::And, 258.0),
    (8, PpgKind::Booth4, 213.0),
    (8, PpgKind::Booth8, 193.0),
    (8, PpgKind::BaughWooley, 261.0),
];

/// Narrow rectangular and truncated shapes with their baseline served
/// objectives (full run only): one each the joint ILP still runs on,
/// then shapes of 7–16 columns it now skips, ties with target search
/// (rect 2x7, trunc m=5 k=2) included.
const OTHER: [(Shape, f64); 10] = [
    (Shape::Rect(2, 4), 59.0),
    (Shape::Rect(2, 7), 86.0),
    (Shape::Rect(3, 5), 93.0),
    (Shape::Rect(4, 5), 109.0),
    (Shape::Rect(5, 8), 183.0),
    (Shape::Truncated(4, 2), 71.0),
    (Shape::Truncated(5, 2), 117.0),
    (Shape::Truncated(6, 3), 142.0),
    (Shape::Truncated(7, 4), 178.0),
    (Shape::Truncated(8, 4), 231.0),
];

/// The cold m = 8 AND build must finish below this.
const M8_GATE: Duration = Duration::from_secs(1);

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = GomilConfig::default();
    let mut roster: Vec<(Shape, f64)> = SQUARE
        .iter()
        .map(|&(m, ppg, base)| (Shape::Square(m, ppg), base))
        .collect();
    if !quick {
        roster.extend(OTHER);
    }

    println!(
        "joint ILP guard: <= {JOINT_ILP_MAX_COLUMNS} columns, solver budget {:?}",
        cfg.solver_budget
    );
    println!(
        "{:<16} {:>4} {:>9} {:>9} {:<14} {:<24} {:>10} {:>8}  status",
        "cell", "cols", "objective", "baseline", "winner", "joint ILP", "build", "verdict"
    );
    let mut failures = 0;
    let mut reported = 0;
    for (shape, base) in roster {
        let label = shape.label();
        let t0 = Instant::now();
        let design = match shape.build(&cfg) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("FAIL: {label}: build failed: {e}");
                failures += 1;
                continue;
            }
        };
        let took = t0.elapsed();
        let sol = &design.solution;
        let report = &sol.degradation;
        let joint = report.attempt(Rung::JointIlp);
        let joint_text = match joint.map(|a| (&a.outcome, a.duration)) {
            Some((RungOutcome::Succeeded { objective }, d)) => format!("{objective} in {d:.1?}"),
            Some((RungOutcome::Failed(_), d)) => format!("failed in {d:.1?}"),
            Some((RungOutcome::Skipped(_), _)) | None => "skipped".to_string(),
        };
        let ilp_timed_out = joint.is_some_and(|a| a.duration >= cfg.solver_budget);
        let tier = sol.verdict.tier();

        let mut status = Vec::new();
        if sol.objective > base + 1e-9 {
            if ilp_timed_out {
                status.push(format!("worse than {base}, ILP hit its budget (reported)"));
                reported += 1;
            } else {
                status.push(format!("WORSE than {base}"));
                failures += 1;
            }
        }
        if tier == VerdictTier::Failed {
            status.push("VERDICT FAILED".to_string());
            failures += 1;
        }
        if matches!(shape, Shape::Square(8, PpgKind::And)) && took >= M8_GATE {
            status.push(format!(
                "SLOW: cold m=8 AND took {took:.2?} (gate {M8_GATE:?})"
            ));
            failures += 1;
        }
        println!(
            "{:<16} {:>4} {:>9} {:>9} {:<14} {:<24} {:>10.2?} {:>8}  {}",
            label,
            sol.vs.len(),
            sol.objective,
            base,
            sol.strategy,
            joint_text,
            took,
            tier.label(),
            if status.is_empty() {
                "ok".to_string()
            } else {
                status.join("; ")
            }
        );
        if !status.is_empty() {
            eprintln!("{label}: {report}");
        }
    }

    if failures > 0 {
        eprintln!("narrow lattice: {failures} check(s) failed");
        return ExitCode::FAILURE;
    }
    println!(
        "narrow lattice: {} cells checked, {reported} worse on an ILP budget timeout (reported)",
        SQUARE.len() + if quick { 0 } else { OTHER.len() }
    );
    ExitCode::SUCCESS
}
