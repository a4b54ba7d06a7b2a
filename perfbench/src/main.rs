//! End-to-end benchmark of the GOMIL reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_narrow|serve_mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints every end-to-end metric of the workload by name and unit, then,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the gated end-to-end metrics of `BENCHMARK.json` with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. Stamps, spans and per-cell quality records go to
//! `.bench_out/` at the repository root.

mod cold;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use report::{check_quality_record, peak_rss_mb, result_line, Stamp};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 2] = ["cold_narrow", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let number = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Limits glibc malloc to one arena. By default glibc adds an arena
/// whenever threads contend for one, so how many a run creates depends on
/// thread timing: serve_mixed's `peak_rss_mb` read 7.8–9.0 MB over five
/// seeds that way, and 6.3–6.6 MB with one arena. Must run before any
/// other thread starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable, and no other
    // thread exists yet.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn main() -> ExitCode {
    let origin = Instant::now();
    one_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let out_dir = root.join(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let mut run = match args.workload.as_str() {
        "cold_narrow" => cold::run(&cold::narrow(), args.seed, args.seconds, args.trace, origin),
        _ => serve::run(&out_dir, args.seed, args.seconds, args.trace, origin),
    };
    match peak_rss_mb() {
        Some(mb) => run.put("peak_rss_mb", mb, "MB"),
        None => run.problems.push("VmHWM unavailable".to_string()),
    }

    let cfg = gomil::GomilConfig::default();
    let stamp = Stamp::new(&root, &cfg, &args.workload, args.seed);
    let record = out_dir.join(format!("quality-{}.tsv", args.workload));
    let drift = check_quality_record(&record, &stamp.quality_key(), &run.quality);
    run.problems.extend(drift);

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(spans) = run.spans.take() {
        let _ = std::fs::write(out_dir.join(format!("spans-{tag}.ndjson")), spans);
    }
    println!("stamp {}", stamp.to_json());
    for (name, value, unit) in &run.e2e {
        println!("metric {name} {value} {unit}");
    }
    for (name, value) in &run.layers {
        println!("layer {name} {value}");
    }
    for q in &run.quality {
        println!(
            "cell {} objective={} area={} delay={} pdp={} verdict={}",
            q.cell, q.objective, q.area, q.delay, q.pdp, q.verdict
        );
    }
    for p in &run.problems {
        println!("problem {p}");
    }
    let line = result_line(&mut run, args.trace);
    let _ = std::fs::write(
        out_dir.join(format!("result-{tag}.json")),
        format!("{{\"stamp\": {}, \"result\": {line}}}\n", stamp.to_json()),
    );
    println!("{line}");
    if run.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 3, 10, true)
        );
        for bad in [
            "--workload cold_wide --seed 1 --seconds 1 --trace 0",
            "--workload cold_narrow --seed x --seconds 1 --trace 0",
            "--workload cold_narrow --seed 1 --seconds 0 --trace 0",
            "--workload cold_narrow --seed 1 --seconds 1 --trace 2",
            "--workload cold_narrow --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
