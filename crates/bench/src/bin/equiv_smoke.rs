//! Equivalence smoke run: the verification gate, exercised end to end.
//!
//! Builds GOMIL designs under the `strict` verification mode and asserts
//! the verdict tier the gate must reach at each width: exhaustively
//! `proved` where the full 2^(2m) input space is enumerable, `tested`
//! (corner + seeded-random vectors) beyond. A regression anywhere in the
//! PPG → compressor tree → CPA pipeline, the bit-parallel simulator, or
//! the verdict plumbing turns this run red.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gomil-bench --bin equiv_smoke [-- --quick]
//! ```
//!
//! `--quick` trims the roster to m = 8 AND and m = 12 MBE proved (the
//! latter takes the threaded, signed sweep) and one tested width (for
//! `scripts/check.sh` and CI smoke); the full run sweeps both PPGs and
//! the m = 16 exhaustive sweep (2^32 products).

use gomil::{build_gomil, GomilConfig, PpgKind, VerdictTier, VerifyMode};
use std::process::ExitCode;
use std::time::Instant;

/// One roster entry: width, PPG, and the tier the gate must reach.
struct SmokeCase {
    m: usize,
    ppg: PpgKind,
    want: VerdictTier,
}

fn case(m: usize, ppg: PpgKind, want: VerdictTier) -> SmokeCase {
    SmokeCase { m, ppg, want }
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let roster: Vec<SmokeCase> = if quick {
        vec![
            case(8, PpgKind::And, VerdictTier::Proved),
            case(12, PpgKind::Booth4, VerdictTier::Proved),
            case(32, PpgKind::And, VerdictTier::Tested),
        ]
    } else {
        vec![
            case(8, PpgKind::And, VerdictTier::Proved),
            case(8, PpgKind::Booth4, VerdictTier::Proved),
            case(16, PpgKind::And, VerdictTier::Proved),
            case(16, PpgKind::Booth4, VerdictTier::Proved),
            case(32, PpgKind::And, VerdictTier::Tested),
            case(32, PpgKind::Booth4, VerdictTier::Tested),
        ]
    };
    let cfg = GomilConfig {
        verify: VerifyMode::Strict,
        ..GomilConfig::fast()
    };

    println!(
        "{:<14} {:>4} {:>9} {:>12} {:>10} {:>10}",
        "design", "m", "verdict", "vectors", "verify", "build"
    );
    let mut failures = 0;
    for c in &roster {
        let t0 = Instant::now();
        match build_gomil(c.m, c.ppg, &cfg) {
            Ok(design) => {
                let took = t0.elapsed();
                let verdict = &design.solution.verdict;
                let ok = verdict.tier() == c.want;
                println!(
                    "{:<14} {:>4} {:>9} {:>12} {:>10.2?} {:>10.2?}{}",
                    design.build.name,
                    c.m,
                    verdict.tier().label(),
                    verdict.vectors(),
                    design.solution.verify_time,
                    took,
                    if ok { "" } else { "  ← WRONG TIER" }
                );
                if !ok {
                    eprintln!(
                        "FAIL: {} came back {} (wanted {})",
                        design.build.name,
                        verdict.tier().label(),
                        c.want.label()
                    );
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("FAIL: m={} {}: {e}", c.m, c.ppg.label());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "equivalence smoke: {failures} of {} cases failed",
            roster.len()
        );
        return ExitCode::FAILURE;
    }
    println!("equivalence smoke: all {} cases verified", roster.len());
    ExitCode::SUCCESS
}
