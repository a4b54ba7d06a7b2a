//! `serve_mixed`: a closed loop of HTTP clients against an in-process
//! `gomil_httpd::Server` over a mart-backed `SolveService`.
//!
//! The mart covers a hot set of cells. The seeded request sequence mixes
//! mart-covered `/solve` reads, repeats of cells outside the mart (the
//! first solves and fills the cache, later ones hit it), a few unique
//! wide misses, and `GET /design/{fingerprint}` for fingerprints a client
//! was already given. The run ends with drain and cache persistence.

use crate::cold::Cell;
use crate::report::{note_quality, put_quality, timed_set_ups, CellQuality, Figures, Run};
use crate::rng::Rng;
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use gomil::{
    serve_service, DesignStore, GomilConfig, PpgKind, ServeConfig, SolveRequest, SolveService,
    SOLVER_VERSION,
};
use gomil_httpd::{client, HttpdConfig, Json, Server, ServerHandle};
use gomil_mart::{Mart, MartBuilder};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client threads (the host's CPU count this benchmark was sized for).
pub const CLIENTS: u64 = 2;

fn cells(ms: &[usize]) -> Vec<Cell> {
    ms.iter()
        .flat_map(|&m| [PpgKind::And, PpgKind::Booth4].map(|ppg| Cell { m, ppg }))
        .collect()
}

/// Cells the mart covers.
pub fn hot() -> Vec<Cell> {
    cells(&[12, 16, 24, 32])
}

/// Cells outside the mart that the sequence repeats, up to the widest
/// width served, so served quality is guarded at m = 64 too.
pub fn repeat() -> Vec<Cell> {
    cells(&[20, 28, 48, 64])
}

/// Cells each requested at most once per run: the widths of 17..=31
/// outside the hot and repeated sets, with the AND PPG and, when even,
/// with MBE. They stay narrower than the widest repeated cell, so a run's
/// peak memory does not depend on which of them the seed draws.
pub fn unique_pool() -> Vec<Cell> {
    let taken: Vec<usize> = hot().iter().chain(&repeat()).map(|c| c.m).collect();
    (17..=31)
        .filter(|m| !taken.contains(m))
        .flat_map(|m| {
            let mut v = vec![Cell {
                m,
                ppg: PpgKind::And,
            }];
            if m % 2 == 0 {
                v.push(Cell {
                    m,
                    ppg: PpgKind::Booth4,
                });
            }
            v
        })
        .collect()
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/solve` of a mart-covered cell.
    Hot,
    /// `/solve` of a repeated cell outside the mart.
    Repeat,
    /// `/solve` of a cell no other request asks for.
    Unique,
    /// `GET /design/{fingerprint}` of a cell's earlier reply (a `/solve`
    /// of the cell when this client has no reply for it yet).
    Design,
}

/// One request of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// What it asks for.
    pub kind: Kind,
    /// The cell it names.
    pub cell: Cell,
}

/// The request mix, in parts per 10 000.
const UNIQUE_PARTS: usize = 25;
const DESIGN_PARTS: usize = 775;
const REPEAT_PARTS: usize = 1200;

/// The endless, seeded request sequence of one client. The same seed and
/// client give the same sequence; clients draw disjoint unique cells.
pub struct RequestGen {
    rng: Rng,
    hot: Vec<Cell>,
    repeat: Vec<Cell>,
    unique: Vec<Cell>,
    next_unique: usize,
}

impl RequestGen {
    /// The sequence of `client` (of [`CLIENTS`]) under `seed`.
    pub fn new(seed: u64, client: u64) -> RequestGen {
        let mut pool = unique_pool();
        Rng::new(seed, 99).shuffle(&mut pool);
        let unique = pool
            .into_iter()
            .skip(client as usize)
            .step_by(CLIENTS as usize)
            .collect();
        RequestGen {
            rng: Rng::new(seed, 100 + client),
            hot: hot(),
            repeat: repeat(),
            unique,
            next_unique: 0,
        }
    }
}

impl Iterator for RequestGen {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let draw = self.rng.below(10_000);
        let pick = self.rng.next_u64() as usize;
        let (kind, cell) = if draw < UNIQUE_PARTS && self.next_unique < self.unique.len() {
            self.next_unique += 1;
            (Kind::Unique, self.unique[self.next_unique - 1])
        } else if draw < UNIQUE_PARTS + DESIGN_PARTS {
            let fixed = self.hot.len() + self.repeat.len();
            let i = pick % fixed;
            let cell = self
                .hot
                .get(i)
                .copied()
                .unwrap_or_else(|| self.repeat[i - self.hot.len()]);
            (Kind::Design, cell)
        } else if draw < UNIQUE_PARTS + DESIGN_PARTS + REPEAT_PARTS {
            (Kind::Repeat, self.repeat[pick % self.repeat.len()])
        } else {
            (Kind::Hot, self.hot[pick % self.hot.len()])
        };
        Some(Req { kind, cell })
    }
}

fn request_of(cell: Cell) -> SolveRequest {
    SolveRequest {
        m: cell.m,
        ppg: cell.ppg,
    }
}

/// The service under test, the mart behind it, and set-up timings.
struct Stack {
    svc: Arc<SolveService>,
    mart: Arc<Mart>,
    cache_path: PathBuf,
    mart_build_s: f64,
    mart_load_ms: f64,
}

/// A set-up stack with its server running on a thread of its own.
/// Dropping it drains the server and removes the cache file.
struct Live {
    stack: Stack,
    addr: String,
    book: KeyBook,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    /// The service's counters after the warm-up, so the per-layer shares
    /// count timed requests only.
    warm: gomil::MetricsReport,
}

impl Live {
    /// Drains the server and waits for its thread to end.
    fn drain(&mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server drain: {e}")),
            Some(Err(_)) => Err("server thread panicked".to_string()),
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.drain();
        let _ = std::fs::remove_file(&self.stack.cache_path);
    }
}

/// Builds the mart over the hot set through the real pipeline, writes and
/// loads it, binds a server over a service backed by it, starts the
/// server and warms it up. Warm-start hand-off is off, so every served
/// design is a function of its cell alone and its quality repeats
/// exactly.
fn set_up(cfg: &GomilConfig, dir: &Path, tag: &str) -> Result<Live, String> {
    let mart_path = dir.join(format!("mart-{}-{tag}.mart", std::process::id()));
    let cache_path = dir.join(format!("cache-{}-{tag}.tsv", std::process::id()));
    let _ = std::fs::remove_file(&cache_path);
    let quiet = ServeConfig {
        jobs: 1,
        warm_start: false,
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let builder_svc = serve_service(cfg, quiet.clone()).map_err(|e| e.to_string())?;
    let requests: Vec<SolveRequest> = hot().into_iter().map(request_of).collect();
    let mut builder = MartBuilder::new(SOLVER_VERSION);
    for (req, res) in requests.iter().zip(builder_svc.run_batch(&requests)) {
        let outcome =
            res.map_err(|e| format!("mart build m={} {}: {e}", req.m, req.ppg.label()))?;
        if outcome.degraded {
            return Err(format!("mart build m={}: degraded outcome", req.m));
        }
        builder.insert(&builder_svc.key_for(req), &outcome);
    }
    builder.write(&mart_path).map_err(|e| e.to_string())?;
    let mart_build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mart = Mart::load(&mart_path).map_err(|e| e.to_string())?;
    let mart_load_ms = t1.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&mart_path);
    if mart.skipped() > 0 || mart.len() != requests.len() {
        return Err(format!(
            "mart holds {} of {} designs ({} skipped)",
            mart.len(),
            requests.len(),
            mart.skipped()
        ));
    }
    let mart = Arc::new(mart);
    let served = ServeConfig {
        cache_path: Some(cache_path.clone()),
        ..quiet
    };
    let svc = Arc::new(
        serve_service(cfg, served)
            .map_err(|e| e.to_string())?
            .with_mart(Arc::clone(&mart) as Arc<dyn DesignStore>),
    );
    // One solve at a time: a run's peak memory is then that of its widest
    // solve, not of whichever solves happen to overlap.
    let httpd = HttpdConfig {
        max_inflight: 1,
        ..HttpdConfig::default()
    };
    let server = Server::bind(Arc::clone(&svc), "127.0.0.1:0", httpd).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let book = key_book(&svc);
    let warm = svc.report();
    let mut live = Live {
        stack: Stack {
            svc,
            mart,
            cache_path,
            mart_build_s,
            mart_load_ms,
        },
        addr,
        book,
        handle: server.handle(),
        thread: None,
        warm,
    };
    live.thread = Some(std::thread::spawn(move || server.run()));
    warm_up(&live.addr, &live.book)?;
    live.warm = live.stack.svc.report();
    if live.warm.solves > 0 {
        return Err(format!(
            "warm-up solved {} mart-covered cells",
            live.warm.solves
        ));
    }
    Ok(live)
}

/// Warm-up before timing: every mart-covered cell once by `/solve` and
/// once by `GET /design`, each reply checked. Set-up ends when the running
/// server has served the whole mart.
fn warm_up(addr: &str, book: &KeyBook) -> Result<(), String> {
    for cell in hot() {
        let label = cell.label();
        let transport = |e| format!("{label}: warm-up transport error: {e}");
        let body = format!("{{\"m\": {}, \"ppg\": \"{}\"}}", cell.m, cell.ppg.label());
        let r = client::post_json(addr, "/solve", &body).map_err(transport)?;
        let solved = check_solve(cell, r.status, &r.text(), book)?;
        let fp = book[&cell].1.clone();
        let r =
            client::request(addr, "GET", &format!("/design/{fp}"), &[], b"").map_err(transport)?;
        let by_fp = HashMap::from([(fp.clone(), (cell, solved))]);
        check_design_reply(&fp, r.status, &r.text(), &by_fp)?;
    }
    Ok(())
}

/// One timed request as the client saw it.
struct Sample {
    kind: Kind,
    cell: Cell,
    ms: f64,
    /// The request that first asked for a cell outside the mart: it
    /// solved (or joined the solve), where later ones hit the cache.
    miss: bool,
}

/// What the clients of one closed loop observed.
#[derive(Default)]
struct LoopOut {
    samples: Vec<Sample>,
    problems: Vec<String>,
    attempted: u64,
    shed: u64,
    quality: BTreeMap<Cell, CellQuality>,
    wall_s: f64,
    tracer: Option<Tracer>,
}

/// Expected identity of every cell's reply: the service's canonical key
/// and its 64-bit fingerprint in hex.
type KeyBook = HashMap<Cell, (String, String)>;

fn key_book(svc: &SolveService) -> KeyBook {
    hot()
        .into_iter()
        .chain(repeat())
        .chain(unique_pool())
        .map(|cell| {
            let key = svc.key_for(&request_of(cell));
            (
                cell,
                (
                    key.canonical().to_string(),
                    format!("{:016x}", key.hash64()),
                ),
            )
        })
        .collect()
}

fn num(j: &Json, key: &str) -> Option<f64> {
    match j.get(key) {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    }
}

/// Checks a `/solve` reply for `cell` and returns the served quality.
fn check_solve(cell: Cell, status: u16, body: &str, book: &KeyBook) -> Result<CellQuality, String> {
    let label = cell.label();
    if status != 200 {
        return Err(format!("{label}: /solve answered {status}"));
    }
    let doc = gomil_httpd::parse_json(body).map_err(|e| format!("{label}: bad JSON: {e}"))?;
    let (key, fingerprint) = &book[&cell];
    let got_key = doc.get("key").and_then(Json::as_str).unwrap_or("");
    if got_key != key {
        return Err(format!("{label}: reply key {got_key:?}, expected {key:?}"));
    }
    let got_fp = doc.get("fingerprint").and_then(Json::as_str).unwrap_or("");
    if got_fp != fingerprint {
        return Err(format!(
            "{label}: fingerprint {got_fp}, expected {fingerprint}"
        ));
    }
    outcome_quality(&label, doc.get("outcome"))
}

fn outcome_quality(label: &str, outcome: Option<&Json>) -> Result<CellQuality, String> {
    let o = outcome.ok_or_else(|| format!("{label}: reply has no outcome"))?;
    let verdict = o.get("verdict").and_then(Json::as_str).unwrap_or("");
    if o.get("degraded") != Some(&Json::Bool(false)) || o.get("verified") != Some(&Json::Bool(true))
    {
        return Err(format!("{label}: degraded or unverified outcome"));
    }
    if verdict.is_empty() || verdict == "failed" {
        return Err(format!("{label}: verdict {verdict:?}"));
    }
    let field = |k| num(o, k).ok_or_else(|| format!("{label}: outcome lacks {k}"));
    let delay = field("delay")?;
    Ok(CellQuality {
        cell: label.to_string(),
        objective: field("objective")?,
        area: field("area")?,
        delay,
        pdp: field("power")? * delay,
        verdict: verdict.to_string(),
    })
}

/// Runs `CLIENTS` closed-loop clients against `addr` for `seconds`.
fn closed_loop(
    addr: &str,
    book: &KeyBook,
    seed: u64,
    seconds: u64,
    origin: Option<Instant>,
) -> LoopOut {
    let claimed: Mutex<BTreeSet<Cell>> = Mutex::new(BTreeSet::new());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(seconds);
    let outs: Vec<LoopOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let claimed = &claimed;
                scope
                    .spawn(move || client_loop(addr, book, seed, client, deadline, claimed, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopOut {
        wall_s: t0.elapsed().as_secs_f64(),
        ..LoopOut::default()
    };
    for out in outs {
        all.samples.extend(out.samples);
        all.problems.extend(out.problems);
        all.attempted += out.attempted;
        all.shed += out.shed;
        for (cell, q) in out.quality {
            note_quality(
                &mut all.quality,
                cell,
                q,
                "between clients",
                &mut all.problems,
            );
        }
        if let Some(t) = out.tracer {
            all.tracer
                .get_or_insert_with(|| Tracer::new(origin.expect("traced")))
                .absorb(t);
        }
    }
    all
}

fn client_loop(
    addr: &str,
    book: &KeyBook,
    seed: u64,
    client: u64,
    deadline: Instant,
    claimed: &Mutex<BTreeSet<Cell>>,
    origin: Option<Instant>,
) -> LoopOut {
    let mut out = LoopOut {
        tracer: origin.map(Tracer::new),
        ..LoopOut::default()
    };
    // The `/solve` replies this client holds: fingerprint by cell, and
    // cell and quality by fingerprint.
    let mut held: HashMap<Cell, String> = HashMap::new();
    let mut by_fp: HashMap<String, (Cell, CellQuality)> = HashMap::new();
    for (seq, req) in RequestGen::new(seed, client).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let request_id = (client << 32) | seq as u64;
        let design_fp = match req.kind {
            Kind::Design => held.get(&req.cell).cloned(),
            _ => None,
        };
        let miss = design_fp.is_none()
            && req.kind != Kind::Hot
            && claimed.lock().expect("claim set poisoned").insert(req.cell);
        let span = out
            .tracer
            .as_mut()
            .map(|t| t.open("httpd.request", request_id, None));
        let t0 = Instant::now();
        let reply = match &design_fp {
            Some(fp) => client::request(addr, "GET", &format!("/design/{fp}"), &[], b""),
            None => client::post_json(
                addr,
                "/solve",
                &format!(
                    "{{\"m\": {}, \"ppg\": \"{}\"}}",
                    req.cell.m,
                    req.cell.ppg.label()
                ),
            ),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(id)) = (out.tracer.as_mut(), span) {
            t.close(id);
        }
        out.attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.problems
                    .push(format!("{}: transport error: {e}", req.cell.label()));
                continue;
            }
        };
        if reply.status == 429 {
            out.shed += 1;
        }
        let body = reply.text();
        let checked = match &design_fp {
            Some(fp) => check_design_reply(fp, reply.status, &body, &by_fp),
            None => check_solve(req.cell, reply.status, &body, book),
        };
        let q = match checked {
            Ok(q) => q,
            Err(e) => {
                out.problems.push(e);
                continue;
            }
        };
        // A design request without a reply to look up went out as a solve.
        let kind = match (req.kind, &design_fp) {
            (Kind::Design, Some(_)) => Kind::Design,
            (Kind::Design, None) if hot().contains(&req.cell) => Kind::Hot,
            (Kind::Design, None) => Kind::Repeat,
            (kind, _) => kind,
        };
        out.samples.push(Sample {
            kind,
            cell: req.cell,
            ms,
            miss,
        });
        if design_fp.is_none() {
            let fp = book[&req.cell].1.clone();
            held.insert(req.cell, fp.clone());
            by_fp.insert(fp, (req.cell, q.clone()));
        }
        if kind != Kind::Unique {
            note_quality(
                &mut out.quality,
                req.cell,
                q,
                "between requests",
                &mut out.problems,
            );
        }
    }
    out
}

/// Checks a `/design/{fp}` reply against the `/solve` reply it came from.
fn check_design_reply(
    fp: &str,
    status: u16,
    body: &str,
    by_fp: &HashMap<String, (Cell, CellQuality)>,
) -> Result<CellQuality, String> {
    let (cell, solved) = &by_fp[fp];
    let label = cell.label();
    if status != 200 {
        return Err(format!("{label}: /design/{fp} answered {status}"));
    }
    let doc = gomil_httpd::parse_json(body).map_err(|e| format!("{label}: bad JSON: {e}"))?;
    let q = outcome_quality(&label, doc.get("outcome"))?;
    if let Some(problem) = solved.mismatch(&q, "between /solve and /design") {
        return Err(problem);
    }
    Ok(q)
}

/// Requests every hot and repeated cell the loop did not reach, so the
/// quality metrics always cover the same cells.
fn sweep(addr: &str, book: &KeyBook, out: &mut LoopOut) {
    for cell in hot().into_iter().chain(repeat()) {
        if out.quality.contains_key(&cell) {
            continue;
        }
        out.attempted += 1;
        let body = format!("{{\"m\": {}, \"ppg\": \"{}\"}}", cell.m, cell.ppg.label());
        match client::post_json(addr, "/solve", &body) {
            Ok(r) => match check_solve(cell, r.status, &r.text(), book) {
                Ok(q) => {
                    out.quality.insert(cell, q);
                }
                Err(e) => out.problems.push(e),
            },
            Err(e) => out
                .problems
                .push(format!("{}: transport error: {e}", cell.label())),
        }
    }
}

/// What one served closed loop measured.
struct Served {
    out: LoopOut,
    report: gomil::MetricsReport,
    /// The service's counters when the loop started.
    warm: gomil::MetricsReport,
    layers: Figures,
}

/// Runs the closed loop against a set-up stack, sweeps the cells it did
/// not reach, probes the in-process fast paths when traced, then drains
/// the server and times persistence and reload of the cache.
fn serve_once(
    mut live: Live,
    cfg: &GomilConfig,
    seed: u64,
    seconds: u64,
    origin: Option<Instant>,
) -> Served {
    let mut layers = Figures::new();
    let mut out = closed_loop(&live.addr, &live.book, seed, seconds, origin);
    sweep(&live.addr, &live.book, &mut out);
    let stack = &live.stack;
    let report = stack.svc.report();
    if let Some(t) = out.tracer.as_mut() {
        probe(stack, t, &mut out.problems, &mut layers);
    }
    let t0 = Instant::now();
    if let Err(e) = live.drain() {
        out.problems.push(e);
    }
    layers.insert("httpd.drain_ms", t0.elapsed().as_secs_f64() * 1e3);
    let stack = &live.stack;
    let t0 = Instant::now();
    if let Err(e) = stack.svc.persist() {
        out.problems.push(format!("persist: {e}"));
    }
    layers.insert("serve.persist_ms", t0.elapsed().as_secs_f64() * 1e3);
    let t1 = Instant::now();
    let reloaded = serve_service(
        cfg,
        ServeConfig {
            cache_path: Some(stack.cache_path.clone()),
            ..ServeConfig::default()
        },
    );
    layers.insert("serve.load_ms", t1.elapsed().as_secs_f64() * 1e3);
    match reloaded {
        Ok(r) if r.cache_len() == stack.svc.cache_len() => {}
        Ok(r) => out.problems.push(format!(
            "persisted cache reloads {} of {} designs",
            r.cache_len(),
            stack.svc.cache_len()
        )),
        Err(e) => out.problems.push(format!("cache reload: {e}")),
    }
    Served {
        out,
        report,
        warm: live.warm.clone(),
        layers,
    }
}

/// Rounds of in-process probes per cell.
const PROBE_ROUNDS: usize = 200;

/// Times the in-process fast paths under the HTTP layer:
/// `SolveService::cached` on every hot and repeated cell (all served by
/// now) and `DesignStore::get` on the mart's keys.
fn probe(stack: &Stack, t: &mut Tracer, problems: &mut Vec<String>, layers: &mut Figures) {
    let fixed: Vec<SolveRequest> = hot().into_iter().chain(repeat()).map(request_of).collect();
    let keys: Vec<_> = hot()
        .into_iter()
        .map(|c| stack.svc.key_for(&request_of(c)))
        .collect();
    let mut hit_us = Vec::new();
    let mut lookup_us = Vec::new();
    let mut id = 1u64 << 40;
    for _ in 0..PROBE_ROUNDS {
        for req in &fixed {
            id += 1;
            let t0 = Instant::now();
            let hit = t.span("serve.cached", id, None, || stack.svc.cached(req));
            hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if hit.is_none() {
                problems.push(format!(
                    "m={} {}: served cell not cached",
                    req.m,
                    req.ppg.label()
                ));
            }
        }
        for key in &keys {
            id += 1;
            let t0 = Instant::now();
            let hit = t.span("mart.lookup", id, None, || stack.mart.get(key));
            lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if hit.is_none() {
                problems.push(format!("{}: mart lookup missed", key.canonical()));
            }
        }
    }
    layers.insert("serve.hit_us_p50", median(&hit_us).unwrap_or(0.0));
    layers.insert("mart.lookup_us", median(&lookup_us).unwrap_or(0.0));
}

fn latencies(out: &LoopOut, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    out.samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.ms)
        .collect()
}

/// Runs `serve_mixed`; `dir` holds the mart and cache files while it runs.
pub fn run(dir: &Path, seed: u64, seconds: u64, traced: bool, origin: Instant) -> Run {
    let cfg = GomilConfig::default();
    let mut run = Run::default();
    let (mut builds, mut loads) = (Vec::new(), Vec::new());
    let set_ups = timed_set_ups(origin, |rep| {
        let live = set_up(&cfg, dir, &format!("setup{rep}"))?;
        builds.push(live.stack.mart_build_s);
        loads.push(live.stack.mart_load_ms);
        Ok(live)
    });
    let live = match set_ups {
        Ok((setup_s, last)) => {
            run.put("setup_s", setup_s, "s");
            last
        }
        Err(e) => {
            run.problems.push(format!("set-up: {e}"));
            return run;
        }
    };

    let base = serve_once(live, &cfg, seed, seconds, None);
    absorb(&mut run, &base.out);
    let per_cell: Vec<f64> = hot()
        .into_iter()
        .chain(repeat())
        .filter_map(|cell| {
            median(&latencies(&base.out, |s| {
                s.cell == cell && matches!(s.kind, Kind::Hot | Kind::Repeat)
            }))
        })
        .collect();
    if let Some(g) = geomean(&per_cell) {
        run.put("design_geomean_ms", g, "ms");
    }
    let all = latencies(&base.out, |_| true);
    let p50 = median(&all).unwrap_or(0.0);
    run.put("http_p50_ms", p50, "ms");
    match percentile(&all, 0.99) {
        Some(p99) => run.put("http_p99_ms", p99, "ms"),
        None => eprintln!(
            "http_p99_ms: refused, {} samples leave fewer than 10 above p99",
            all.len()
        ),
    }
    run.put(
        "http_rps",
        all.len() as f64 / base.out.wall_s.max(1e-9),
        "req/s",
    );
    run.quality = base.out.quality.values().cloned().collect();
    put_quality(&mut run);

    if traced {
        match set_up(&cfg, dir, "traced") {
            Ok(live) => {
                let t = serve_once(live, &cfg, seed, seconds, Some(origin));
                absorb(&mut run, &t.out);
                run.layers = per_layer(&t, p50);
                run.layers
                    .insert("mart.build_s", median(&builds).unwrap_or(0.0));
                run.layers
                    .insert("mart.load_ms", median(&loads).unwrap_or(0.0));
                run.spans = t.out.tracer.as_ref().map(Tracer::to_ndjson);
            }
            Err(e) => run.problems.push(format!("traced set-up: {e}")),
        }
    }
    let errors = run.problems.len() as f64;
    run.put(
        "error_share",
        errors / (run.attempted as f64).max(1.0),
        "ratio",
    );
    run
}

fn absorb(run: &mut Run, out: &LoopOut) {
    run.attempted += out.attempted;
    run.problems.extend(out.problems.iter().cloned());
}

/// Per-layer figures of the traced loop; `untraced_p50` is the untraced
/// loop's `http_p50_ms`, for the tracing overhead.
fn per_layer(t: &Served, untraced_p50: f64) -> Figures {
    let out = &t.out;
    let (r, w) = (&t.report, &t.warm);
    let mut f = t.layers.clone();
    let share = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let p50 = |keep: &dyn Fn(&Sample) -> bool| median(&latencies(out, keep)).unwrap_or(0.0);
    f.insert("httpd.hit_ms_p50", p50(&|s| s.kind == Kind::Hot));
    f.insert("httpd.design_ms_p50", p50(&|s| s.kind == Kind::Design));
    f.insert("serve.miss_ms_p50", p50(&|s| s.miss));
    f.insert("httpd.shed_share", share(out.shed, out.attempted));
    let requests = r.requests - w.requests;
    f.insert(
        "serve.mart_hit_share",
        share(r.mart_hits - w.mart_hits, requests),
    );
    f.insert("serve.cache_hit_share", share(r.hits - w.hits, requests));
    f.insert("serve.solves", (r.solves - w.solves) as f64);
    f.insert("serve.dedup_joins", (r.dedup_joins - w.dedup_joins) as f64);
    f.insert(
        "trace.overhead_http_p50_ms",
        median(&latencies(out, |_| true)).unwrap_or(0.0) - untraced_p50,
    );
    if let Some(tr) = &out.tracer {
        let in_requests = tr.total_ms("httpd.request", |_| true) / 1e3;
        f.insert(
            "trace.unattributed_share",
            1.0 - in_requests / (CLIENTS as f64 * out.wall_s).max(1e-9),
        );
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_request_sequence() {
        let a: Vec<Req> = RequestGen::new(7, 0).take(5000).collect();
        let b: Vec<Req> = RequestGen::new(7, 0).take(5000).collect();
        let other_seed: Vec<Req> = RequestGen::new(8, 0).take(5000).collect();
        let other_client: Vec<Req> = RequestGen::new(7, 1).take(5000).collect();
        assert_eq!(a, b);
        assert_ne!(a, other_seed);
        assert_ne!(a, other_client);
        // Every kind of request appears, hot reads most of all.
        let count = |k| a.iter().filter(|r| r.kind == k).count();
        assert!(count(Kind::Hot) > count(Kind::Repeat));
        assert!(count(Kind::Repeat) > count(Kind::Design));
        assert!(count(Kind::Design) > count(Kind::Unique));
        assert!(count(Kind::Unique) > 0);
    }

    #[test]
    fn unique_cells_are_never_repeated() {
        let mut seen = BTreeSet::new();
        for client in 0..CLIENTS {
            for r in RequestGen::new(3, client).take(100_000) {
                if r.kind == Kind::Unique {
                    assert!(seen.insert(r.cell), "{} drawn twice", r.cell.label());
                }
            }
        }
        assert_eq!(seen.len(), unique_pool().len(), "the pool is used up");
        let fixed: BTreeSet<Cell> = hot().into_iter().chain(repeat()).collect();
        assert!(seen.is_disjoint(&fixed));
    }
}
