//! Experiment: the precomputed design mart against the warm LRU cache.
//!
//! Builds a small mart over the hot lattice through the real pipeline
//! (timing the offline build), then measures the steady-state serving
//! throughput of (a) a service answering from its warm in-memory cache
//! and (b) a fresh service answering every request from the mart with
//! zero solver invocations. The acceptance bar is that the mart hit
//! path stays within 2x of the warm-cache path — both are hash lookups;
//! the mart adds only a binary-search over the sorted index.
//!
//! Splices a `"mart"` section into `BENCH_serve.json` (the rest of the
//! file is untouched), stamped with the commit, the host's CPU count and
//! the configuration: `GomilConfig::fast()`, the word lengths and loops.
//!
//! Usage: `cargo run --release -p gomil-bench --bin mart_serve --
//! [m …] [--loops N] [--json FILE]`

use gomil::{
    serve_service, DesignStore, GomilConfig, PpgKind, ServeConfig, ServeOutcome, SolveRequest,
    SOLVER_VERSION,
};
use gomil_bench::{git_commit, host_cpus, splice_json_file, timed};
use gomil_mart::{Mart, MartBuilder};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let loops: usize = args
        .iter()
        .position(|a| a == "--loops")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let ms: Vec<usize> = {
        let named: Vec<usize> = args
            .iter()
            .filter(|s| !s.starts_with("--"))
            .filter_map(|s| s.parse().ok())
            .collect();
        if named.is_empty() {
            vec![4, 8, 12]
        } else {
            named
        }
    };

    // `fast()` keeps the offline build short; the measured paths below
    // never invoke the solver at all, so the config only shapes keys.
    let cfg = GomilConfig::fast();
    let requests: Vec<SolveRequest> = ms
        .iter()
        .flat_map(|&m| {
            PpgKind::all()
                .into_iter()
                .filter(move |&ppg| !(ppg == PpgKind::Booth4 && m % 2 != 0))
                .map(move |ppg| SolveRequest { m, ppg })
        })
        .collect();

    // Offline mart build through the real pipeline (the same sweep
    // `gomil mart build` runs), timed end to end including the write.
    let mart_path =
        std::env::temp_dir().join(format!("gomil-mart-bench-{}.mart", std::process::id()));
    eprintln!("mart build: {} designs …", requests.len());
    let builder_svc = serve_service(&cfg, ServeConfig::default())?;
    let (outcomes, build) = timed(
        || -> Result<Vec<ServeOutcome>, Box<dyn std::error::Error>> {
            let results = builder_svc.run_batch(&requests);
            let mut builder = MartBuilder::new(SOLVER_VERSION);
            let mut outcomes = Vec::with_capacity(requests.len());
            for (req, res) in requests.iter().zip(results) {
                let outcome = res?;
                builder.insert(&builder_svc.key_for(req), &outcome);
                outcomes.push(outcome);
            }
            builder.write(&mart_path)?;
            Ok(outcomes)
        },
    );
    let outcomes = outcomes?;
    eprintln!("  built {} entries in {build:.1?}", outcomes.len());

    // Warm-cache path: the builder service already holds every outcome
    // in its LRU cache, so each serve_one is a pure cache hit.
    let n = (loops * requests.len()) as f64;
    eprintln!(
        "warm-cache path: {loops} loops x {} requests …",
        requests.len()
    );
    let (_, warm) = timed(|| {
        for _ in 0..loops {
            for req in &requests {
                builder_svc.serve_one(req).expect("warm hit");
            }
        }
    });
    let warm_cache_rps = n / warm.as_secs_f64().max(1e-9);

    // Mart hit path: a fresh service (empty cache) backed by the mart
    // just written. Every request must resolve without a solve.
    let mart = Mart::load(&mart_path)?;
    assert_eq!(mart.skipped(), 0, "bench mart must load clean");
    let entries = mart.len();
    let mart_svc = serve_service(&cfg, ServeConfig::default())?.with_mart(Arc::new(mart));
    eprintln!(
        "mart-hit path: {loops} loops x {} requests …",
        requests.len()
    );
    let (_, hit) = timed(|| {
        for _ in 0..loops {
            for req in &requests {
                mart_svc.serve_one(req).expect("mart hit");
            }
        }
    });
    let mart_hit_rps = n / hit.as_secs_f64().max(1e-9);
    let report = mart_svc.report();
    assert_eq!(report.solves, 0, "mart path must never invoke the solver");
    assert_eq!(report.mart_hits, loops as u64 * requests.len() as u64);
    let _ = std::fs::remove_file(&mart_path);

    let ratio = warm_cache_rps / mart_hit_rps.max(1e-9);
    println!(
        "warm cache: {warm_cache_rps:.0} req/s   mart hit: {mart_hit_rps:.0} req/s   \
         warm/mart ratio: {ratio:.2}"
    );
    if ratio > 2.0 {
        eprintln!("warning: mart hit path slower than 2x the warm-cache path");
    }

    let section = format!(
        "{{\n    \"commit\": \"{}\",\n    \"host_cpus\": {},\n    \
         \"config\": \"fast\",\n    \"word_lengths\": [{}],\n    \
         \"entries\": {},\n    \"build_seconds\": {},\n    \
         \"loops\": {},\n    \"warm_cache_requests_per_sec\": {},\n    \
         \"mart_hit_requests_per_sec\": {},\n    \"warm_over_mart_ratio\": {},\n    \
         \"mart_solves\": {},\n    \"mart_coverage\": {}\n  }}",
        git_commit(),
        host_cpus(),
        ms.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        entries,
        build.as_secs_f64(),
        loops,
        warm_cache_rps,
        mart_hit_rps,
        ratio,
        report.solves,
        report.mart_coverage(),
    );
    splice_json_file(&json_path, &[("mart", section)])?;
    eprintln!("wrote mart section into {json_path}");
    Ok(())
}
