//! What a run reports: metrics with units, the stamp that ties a result
//! to the code and configuration it measured, the per-cell quality
//! record that must repeat exactly, and the final JSON line.

use crate::stats::{geomean, median};
use gomil::{GomilConfig, SOLVER_VERSION};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs `set_up` [`SETUP_REPS`] times and returns the median set-up time
/// in seconds with the last set-up's product. The first set-up is timed
/// from `origin`, process start, so it also carries what precedes it.
pub fn timed_set_ups<T>(
    origin: Instant,
    mut set_up: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // The previous set-up is torn down before the next is timed.
        drop(last.take());
        let t0 = if rep == 0 { origin } else { Instant::now() };
        let made = set_up(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    eprintln!("setup_s samples {times:?}");
    let median = median(&times).expect("at least one set-up");
    Ok((median, last.expect("at least one set-up")))
}

/// End-to-end metrics every workload reports, gated by `BENCHMARK.json`
/// (name, unit). A workload's other end-to-end figures are printed but
/// not gated: they do not exist on every workload, or read 0 on a correct
/// run.
pub const GATED: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("design_geomean_ms", "ms"),
    ("objective_sum", "cost"),
    ("area_geomean", "nand2_eq"),
    ("delay_geomean", "gate_delays"),
    ("pdp_geomean", "rel"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (name, unit). A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.ladder_ms", "ms"),
    ("core.joint_ilp_ms", "ms"),
    ("core.ladder_useful_ratio", "ratio"),
    ("core.joint_ilp_wins", "count"),
    ("core.target_search_ms", "ms"),
    ("ilp.nodes", "count"),
    ("ilp.lp_iterations", "count"),
    ("ilp.root_lp_ms", "ms"),
    ("ilp.gap_median", "ratio"),
    ("ilp.proved_optimal_share", "ratio"),
    ("prefix.dp_ms", "ms"),
    ("prefix.cpa_ms", "ms"),
    ("arith.ppg_ms", "ms"),
    ("arith.realize_ms", "ms"),
    ("netlist.verify_ms", "ms"),
    ("netlist.proved_share", "ratio"),
    ("netlist.sta_ms", "ms"),
    ("serve.hit_us_p50", "us"),
    ("serve.mart_hit_share", "ratio"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.solves", "count"),
    ("serve.dedup_joins", "count"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.persist_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("mart.build_s", "s"),
    ("mart.load_ms", "ms"),
    ("mart.lookup_us", "us"),
    ("httpd.hit_ms_p50", "ms"),
    ("httpd.design_ms_p50", "ms"),
    ("httpd.shed_share", "ratio"),
    ("httpd.drain_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_lattice_s", "s"),
    ("trace.overhead_http_p50_ms", "ms"),
];

/// Figures a workload measured, by metric name.
pub type Figures = BTreeMap<&'static str, f64>;

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Run {
    /// Designs built or requests sent.
    pub attempted: u64,
    /// Every failed, degraded or wrong output, named.
    pub problems: Vec<String>,
    /// End-to-end figures with their units (gated or not).
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer figures (traced run only).
    pub layers: Figures,
    /// Served quality per cell, for the exact-repeat check.
    pub quality: Vec<CellQuality>,
    /// NDJSON spans of the traced run.
    pub spans: Option<String>,
}

impl Run {
    /// Adds an end-to-end figure.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|(n, _, _)| *n == name).map(|e| e.1)
    }
}

/// The quality of the design served for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellQuality {
    /// `m<width>-<PPG>`.
    pub cell: String,
    /// GOMIL objective (CT + prefix cost).
    pub objective: f64,
    /// Area, NAND2 equivalents.
    pub area: f64,
    /// Critical-path delay, gate delays.
    pub delay: f64,
    /// Power × delay.
    pub pdp: f64,
    /// Equivalence verdict label.
    pub verdict: String,
}

impl CellQuality {
    fn fields(&self) -> String {
        format!(
            "objective={} area={} delay={} pdp={} verdict={}",
            self.objective, self.area, self.delay, self.pdp, self.verdict
        )
    }

    /// A problem naming the cell when `other` differs from `self`.
    pub fn mismatch(&self, other: &CellQuality, context: &str) -> Option<String> {
        (self != other).then(|| {
            format!(
                "quality of cell {} changed {context}: {} then {}",
                self.cell,
                self.fields(),
                other.fields()
            )
        })
    }
}

/// Records `q` as the quality served for `key`, or names the cell when it
/// differs from the quality recorded first.
pub fn note_quality<K: Ord>(
    seen: &mut BTreeMap<K, CellQuality>,
    key: K,
    q: CellQuality,
    context: &str,
    problems: &mut Vec<String>,
) {
    match seen.get(&key) {
        Some(old) => problems.extend(old.mismatch(&q, context)),
        None => {
            seen.insert(key, q);
        }
    }
}

/// Adds the quality metrics of the run's served cells.
pub fn put_quality(run: &mut Run) {
    let cells = std::mem::take(&mut run.quality);
    let col = |f: fn(&CellQuality) -> f64| -> Vec<f64> { cells.iter().map(f).collect() };
    run.put("objective_sum", col(|c| c.objective).iter().sum(), "cost");
    for (name, values, unit) in [
        ("area_geomean", col(|c| c.area), "nand2_eq"),
        ("delay_geomean", col(|c| c.delay), "gate_delays"),
        ("pdp_geomean", col(|c| c.pdp), "rel"),
    ] {
        match geomean(&values) {
            Some(g) => run.put(name, g, unit),
            None => run.problems.push(format!("{name}: no positive values")),
        }
    }
    let proved = cells.iter().filter(|c| c.verdict == "proved").count();
    run.put(
        "proved_share",
        proved as f64 / cells.len().max(1) as f64,
        "ratio",
    );
    run.quality = cells;
}

/// What a result was measured on, so a stale result can be detected.
#[derive(Debug)]
pub struct Stamp {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the sources the benchmark builds, so a checkout
    /// without git history is still identified.
    pub source_digest: u64,
    /// Host CPUs available to the process.
    pub cpus: usize,
    /// `GomilConfig::solve_fingerprint()`.
    pub solve_fingerprint: String,
    /// `GomilConfig::solver_budget`, seconds.
    pub solver_budget_s: f64,
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
}

impl Stamp {
    /// Stamps a run of `workload` over the checkout at `root`.
    pub fn new(root: &Path, cfg: &GomilConfig, workload: &str, seed: u64) -> Stamp {
        let commit = std::process::Command::new("git")
            .arg("--git-dir")
            .arg(root.join(".git"))
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Stamp {
            commit,
            source_digest: source_digest(root),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            solve_fingerprint: cfg.solve_fingerprint(),
            solver_budget_s: cfg.solver_budget.as_secs_f64(),
            workload: workload.to_string(),
            seed,
        }
    }

    /// Identity of the code and configuration whose designs must repeat.
    pub fn quality_key(&self) -> String {
        format!(
            "{:016x}/{}/v{SOLVER_VERSION}",
            self.source_digest, self.solve_fingerprint
        )
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\":\"{}\",\"source_digest\":\"{:016x}\",\"cpus\":{},\
             \"solve_fingerprint\":\"{}\",\"solver_budget_s\":{},\"solver_version\":{},\
             \"workload\":\"{}\",\"seed\":{}}}",
            self.commit,
            self.source_digest,
            self.cpus,
            self.solve_fingerprint,
            self.solver_budget_s,
            SOLVER_VERSION,
            self.workload,
            self.seed
        )
    }
}

/// FNV-1a over the path and bytes of every `.rs` and `.toml` file (and
/// `Cargo.lock`) under the library sources, in path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "third_party"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("rs" | "toml" | "lock")
    ) {
        out.push(path.to_path_buf());
    }
}

/// Compares `cells` with the record of earlier runs of the same code and
/// configuration in `file`, naming every cell whose quality changed, and
/// records cells seen for the first time.
pub fn check_quality_record(file: &Path, key: &str, cells: &[CellQuality]) -> Vec<String> {
    let text = std::fs::read_to_string(file).unwrap_or_default();
    let mut known: BTreeMap<String, CellQuality> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 || f[0] != key {
            continue;
        }
        let num = |s: &str| s.parse::<f64>().unwrap_or(f64::NAN);
        known.insert(
            f[1].to_string(),
            CellQuality {
                cell: f[1].to_string(),
                objective: num(f[2]),
                area: num(f[3]),
                delay: num(f[4]),
                pdp: num(f[5]),
                verdict: f[6].to_string(),
            },
        );
    }
    let mut problems = Vec::new();
    let mut fresh = String::new();
    for c in cells {
        match known.get(&c.cell) {
            Some(old) => problems.extend(old.mismatch(c, "since an earlier run of this code")),
            None => {
                let _ = writeln!(
                    fresh,
                    "{key}\t{}\t{}\t{}\t{}\t{}\t{}",
                    c.cell, c.objective, c.area, c.delay, c.pdp, c.verdict
                );
            }
        }
    }
    if !fresh.is_empty() {
        let _ = std::fs::write(file, text + &fresh);
    }
    problems
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The last stdout line: `correct`, `attempted`, `failed` and either the
/// gated end-to-end metrics (`traced == false`) or every per-layer metric.
/// A metric the run could not measure is reported as a problem.
pub fn result_line(run: &mut Run, traced: bool) -> String {
    let mut metrics = Vec::new();
    if traced {
        for (name, unit) in PER_LAYER {
            let v = run.layers.get(name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        for (name, unit) in GATED {
            match run.e2e_value(name) {
                Some(v) => metrics.push((name, v, unit)),
                None => {
                    run.problems.push(format!("{name} was not measured"));
                    metrics.push((name, 0.0, unit));
                }
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.problems.is_empty(),
        run.attempted.max(1),
        run.problems.len(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, objective: f64) -> CellQuality {
        CellQuality {
            cell: name.to_string(),
            objective,
            area: 1.5,
            delay: 2.0,
            pdp: 3.25,
            verdict: "proved".to_string(),
        }
    }

    #[test]
    fn gated_and_per_layer_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = gomil_httpd::parse_json(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(gomil_httpd::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} must be a list"),
            }
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(&GATED));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_reports_every_gated_metric() {
        let mut run = Run {
            attempted: 3,
            ..Run::default()
        };
        for (name, unit) in GATED {
            run.put(name, 1.25, unit);
        }
        let line = result_line(&mut run, false);
        let doc = gomil_httpd::parse_json(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&gomil_httpd::Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        for (name, _) in GATED {
            assert!(doc.get("metrics").and_then(|m| m.get(name)).is_some());
        }
        // A metric that was not measured fails the run.
        let mut empty = Run::default();
        let line = result_line(&mut empty, false);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(empty.problems.len(), GATED.len());
    }

    #[test]
    fn quality_record_names_the_changed_cell() {
        let dir = std::env::temp_dir().join(format!("perfbench-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("quality.tsv");
        let first = vec![cell("m8-AND", 258.0), cell("m8-MBE", 213.0)];
        assert!(check_quality_record(&file, "k", &first).is_empty());
        assert!(check_quality_record(&file, "k", &first).is_empty());
        let changed = vec![cell("m8-AND", 258.0), cell("m8-MBE", 214.0)];
        let problems = check_quality_record(&file, "k", &changed);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("m8-MBE"), "{}", problems[0]);
        // Another code version keeps its own record.
        assert!(check_quality_record(&file, "other", &changed).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
