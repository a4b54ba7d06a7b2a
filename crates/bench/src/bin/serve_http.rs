//! Experiment: closed-loop load generation against the `gomil-httpd`
//! HTTP front end — request latency percentiles and throughput under a
//! steady closed loop, then shed behaviour under a burst past the
//! admission bound. Merges an `http` section into `BENCH_serve.json`
//! (replacing any previous one; the rest of the file is untouched).
//!
//! The section is stamped with the commit, the host's CPU count and the
//! parsed flags; a malformed flag value is an error, never a default.
//!
//! Usage: `cargo run --release -p gomil-bench --bin serve_http --
//! [--clients N] [--requests N] [--burst N] [--json FILE]`

use gomil::{serve_service, GomilConfig, ServeConfig};
use gomil_bench::{git_commit, host_cpus, splice_json_file};
use gomil_httpd::{client, HttpdConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// The value after `name`, or `default` when the flag is absent.
fn flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => {
            let value = args.get(i + 1).map_or("", String::as_str);
            value
                .parse()
                .map_err(|_| format!("{name}: expected a count, got '{value}'"))
        }
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let clients = flag(&args, "--clients", 8)?.max(1);
    let per_client = flag(&args, "--requests", 25)?.max(1);
    let burst = flag(&args, "--burst", 24)?.max(1);
    let host_cpus = host_cpus();

    // `fast()` keeps individual solves small: the benchmark measures the
    // HTTP and admission path, not one giant branch and bound.
    let cfg = GomilConfig::fast();
    let svc = Arc::new(serve_service(&cfg, ServeConfig::default())?);
    let httpd = HttpdConfig {
        max_inflight: 4,
        max_queue: 16,
        ..HttpdConfig::default()
    };
    let (max_inflight, max_queue) = (httpd.max_inflight, httpd.max_queue);
    let server = Server::bind(Arc::clone(&svc), "127.0.0.1:0", httpd)?;
    let addr = server.local_addr()?.to_string();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());

    // Phase 1 — steady closed loop over four hot keys: after the four
    // cold solves everything is cache hits and dedup joins, so this is
    // the per-request overhead of the socket + parse + admission path.
    eprintln!("closed loop: {clients} clients × {per_client} requests …");
    let widths = [6usize, 8, 10, 12];
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut lat_ms = Vec::with_capacity(per_client);
                let mut errors = 0usize;
                for i in 0..per_client {
                    let m = widths[(c + i) % widths.len()];
                    let body = format!("{{\"m\": {m}, \"ppg\": \"and\"}}");
                    let t = Instant::now();
                    match client::post_json(&addr, "/solve", &body) {
                        Ok(resp) if resp.status == 200 => {
                            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        _ => errors += 1,
                    }
                }
                (lat_ms, errors)
            })
        })
        .collect();
    let mut lat_ms = Vec::new();
    let mut errors = 0usize;
    for w in workers {
        let (l, e) = w.join().expect("client thread");
        lat_ms.extend(l);
        errors += e;
    }
    let elapsed = t0.elapsed();
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&lat_ms, 0.50);
    let p99 = percentile(&lat_ms, 0.99);
    let throughput = lat_ms.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "  {} ok, {errors} errors in {elapsed:.1?}: p50 {p50:.2} ms, p99 {p99:.2} ms, {throughput:.1} req/s",
        lat_ms.len()
    );

    // Phase 2 — a burst of distinct keys past inflight + queue: the
    // overflow must shed with 429 while every admitted request still
    // answers within its deadline (degrading if the budget expires).
    eprintln!("burst: {burst} concurrent distinct solves, 400 ms deadlines …");
    let burst_workers: Vec<_> = (0..burst)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let body = format!("{{\"m\": {}, \"budget_ms\": 400}}", 13 + i);
                let t = Instant::now();
                let status = client::post_json(&addr, "/solve", &body)
                    .map(|r| r.status)
                    .unwrap_or(0);
                (status, t.elapsed().as_secs_f64() * 1e3)
            })
        })
        .collect();
    let outcomes: Vec<(u16, f64)> = burst_workers
        .into_iter()
        .map(|w| w.join().expect("burst thread"))
        .collect();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    let burst_ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let burst_worst_ms = outcomes
        .iter()
        .filter(|(s, _)| *s == 200)
        .map(|(_, ms)| *ms)
        .fold(0.0f64, f64::max);
    let shed_rate = shed as f64 / burst as f64;
    eprintln!(
        "  {burst_ok} served, {shed} shed ({:.0}%), worst admitted latency {burst_worst_ms:.0} ms",
        shed_rate * 100.0
    );

    // The server-side view must agree with the client-side one.
    let metrics = client::request(&addr, "GET", "/metrics", &[], b"")?;
    let server_shed: u64 = metrics
        .text()
        .lines()
        .find_map(|l| l.strip_prefix("gomil_shed_total ").map(str::to_string))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);

    handle.shutdown();
    run.join().expect("server thread")?;
    let report = svc.report();
    println!("{report}");

    let commit = git_commit();
    let section = format!(
        "{{\n    \"commit\": \"{commit}\",\n    \"host_cpus\": {host_cpus},\n    \
         \"clients\": {clients},\n    \"requests_per_client\": {per_client},\n    \
         \"burst_clients\": {burst},\n    \
         \"max_inflight\": {max_inflight},\n    \"max_queue\": {max_queue},\n    \
         \"ok\": {},\n    \"errors\": {errors},\n    \
         \"p50_ms\": {p50},\n    \"p99_ms\": {p99},\n    \
         \"throughput_rps\": {throughput},\n    \
         \"burst_served\": {burst_ok},\n    \
         \"burst_shed\": {shed},\n    \"burst_shed_rate\": {shed_rate},\n    \
         \"burst_worst_admitted_ms\": {burst_worst_ms},\n    \
         \"server_shed_total\": {server_shed}\n  }}",
        lat_ms.len()
    );
    splice_json_file(&json_path, &[("http", section)])?;
    eprintln!("wrote http section into {json_path}");
    Ok(())
}
