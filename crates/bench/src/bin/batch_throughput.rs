//! Experiment: throughput of the `gomil-serve` batch service — cold
//! (every request solves) versus warm (cache + singleflight absorb the
//! duplicates), plus the dedup and warm-start counters behind the
//! speedup. Writes its top-level fields of `BENCH_serve.json`, stamped
//! with the commit, the host's CPU count and the configuration
//! (`GomilConfig::fast()`, the word lengths and the service's worker
//! count); the `mart` and `http` sections other benches write are left
//! as they are.
//!
//! Usage: `cargo run --release -p gomil-bench --bin batch_throughput --
//! [m …] [--json FILE]`

use gomil::{serve_service, GomilConfig, PpgKind, ServeConfig, SolveRequest};
use gomil_bench::{git_commit, host_cpus, splice_json_file, timed};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let ms: Vec<usize> = {
        let named: Vec<usize> = args.iter().filter_map(|s| s.parse().ok()).collect();
        if named.is_empty() {
            vec![8, 12, 16, 24]
        } else {
            named
        }
    };

    // `fast()` keeps the solver budget small so the benchmark measures
    // the service overheads, not one giant branch and bound.
    let cfg = GomilConfig::fast();
    let svc = serve_service(&cfg, ServeConfig::default())?;

    // The duplicated request list of the acceptance scenario: every
    // (m, PPG) twice, duplicates adjacent so they overlap in flight.
    let requests: Vec<SolveRequest> = ms
        .iter()
        .flat_map(|&m| {
            PpgKind::all()
                .into_iter()
                .filter(move |&ppg| !(ppg == PpgKind::Booth4 && m % 2 != 0))
                .map(move |ppg| SolveRequest { m, ppg })
        })
        .flat_map(|r| [r.clone(), r])
        .collect();

    eprintln!("cold wave: {} requests …", requests.len());
    let (cold_results, cold) = timed(|| svc.run_batch(&requests));
    let cold_errors = cold_results.iter().filter(|r| r.is_err()).count();
    eprintln!("  done in {cold:.1?} ({cold_errors} errors)");

    eprintln!("warm wave: same {} requests …", requests.len());
    let (warm_results, warm) = timed(|| svc.run_batch(&requests));
    let warm_errors = warm_results.iter().filter(|r| r.is_err()).count();
    eprintln!("  done in {warm:.1?} ({warm_errors} errors)");

    let report = svc.report();
    println!("{report}");
    let n = requests.len() as f64;
    let cold_rps = n / cold.as_secs_f64().max(1e-9);
    let warm_rps = n / warm.as_secs_f64().max(1e-9);
    println!("cold: {cold_rps:.2} req/s   warm: {warm_rps:.2} req/s");

    let word_lengths = ms
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let fields = [
        ("bench", "\"batch_throughput\"".to_string()),
        ("commit", format!("\"{}\"", git_commit())),
        ("host_cpus", host_cpus().to_string()),
        ("config", "\"fast\"".to_string()),
        ("word_lengths", format!("[{word_lengths}]")),
        ("requests_per_wave", requests.len().to_string()),
        ("jobs", ServeConfig::default().jobs.to_string()),
        ("cold_seconds", cold.as_secs_f64().to_string()),
        ("warm_seconds", warm.as_secs_f64().to_string()),
        ("cold_requests_per_sec", cold_rps.to_string()),
        ("warm_requests_per_sec", warm_rps.to_string()),
        ("solves", report.solves.to_string()),
        ("cache_hits", report.hits.to_string()),
        ("dedup_joins", report.dedup_joins.to_string()),
        ("warm_start_hints", report.warm_hints.to_string()),
        ("hit_rate", report.hit_rate().to_string()),
        ("errors", (cold_errors + warm_errors).to_string()),
    ];
    splice_json_file(&json_path, &fields)?;
    eprintln!("wrote batch fields into {json_path}");
    Ok(())
}
