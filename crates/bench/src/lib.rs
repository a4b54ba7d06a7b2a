//! Shared harness code for the figure/table regeneration binaries.
//!
//! Each experiment of the paper (see `DESIGN.md`, Section 6) has a binary
//! under `src/bin/`; this library holds the pieces they share: building
//! the full design roster at a word length, timing the optimizer, and
//! pretty-printing normalized tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gomil::{
    build_baseline, build_gomil, BaselineKind, DesignReport, GomilConfig, GomilError, PpgKind,
};
use std::time::{Duration, Instant};

/// The eight designs of the paper's Fig. 3, in plotting order.
pub const DESIGN_ORDER: [&str; 8] = [
    "B-Wal-RCA",
    "B-Wal-PPF",
    "Wal-RCA",
    "Wal-PPF",
    "apparch",
    "pparch",
    "GOMIL-AND",
    "GOMIL-MBE",
];

/// Builds and measures the whole Fig. 3 roster at word length `m`.
///
/// Returns reports in [`DESIGN_ORDER`].
///
/// # Errors
///
/// Propagates ILP solver failures from the GOMIL builds, and returns
/// [`GomilError::Verification`] if any constructed design fails functional
/// verification — a benchmark over an incorrect multiplier would be
/// meaningless, but one bad width should not abort a whole sweep.
pub fn build_roster(m: usize, cfg: &GomilConfig) -> Result<Vec<DesignReport>, GomilError> {
    fn measured(
        build: &gomil::MultiplierBuild,
        power_vectors: usize,
    ) -> Result<DesignReport, GomilError> {
        let r = DesignReport::measure(build, power_vectors);
        if !r.verified {
            return Err(GomilError::from(gomil::VerificationFailure::new(
                &r.name,
                "failed functional verification",
            )));
        }
        Ok(r)
    }
    let mut out = Vec::with_capacity(8);
    for kind in BaselineKind::all() {
        let b = build_baseline(kind, m, cfg);
        out.push(measured(&b, cfg.power_vectors)?);
    }
    for ppg in [PpgKind::And, PpgKind::Booth4] {
        let d = build_gomil(m, ppg, cfg)?;
        out.push(measured(&d.build, cfg.power_vectors)?);
    }
    Ok(out)
}

/// Wall-clock measurement of a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// The commit the bench was built from (`git rev-parse HEAD`), or
/// `"unknown"` outside a git checkout: the stamp the bench binaries put
/// in the JSON they write.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The number of CPUs this process may run on: the host stamp next to
/// [`git_commit`] in bench JSON.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// [`splice_json`] on the file at `path` (a missing file starts empty),
/// checking that the merged document parses before writing it back.
///
/// # Errors
///
/// The file cannot be read or written, or it or the merged document is
/// not a JSON object.
pub fn splice_json_file(path: &str, fresh: &[(&str, String)]) -> Result<(), String> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let merged = splice_json(&existing, fresh).map_err(|e| format!("{path}: {e}"))?;
    gomil_httpd::parse_json(&merged).map_err(|e| format!("merged {path} is invalid: {e}"))?;
    std::fs::write(path, merged).map_err(|e| format!("{path}: {e}"))
}

/// Sets top-level entries of the JSON object `existing`, leaving every
/// other entry byte-identical: the result file of several benches that
/// each own some keys.
///
/// `fresh` holds `(key, raw JSON value)` pairs. A key already present is
/// replaced where it stands; a new key follows the entry before it in
/// `fresh`, or goes at the end when it comes first. A blank `existing`
/// starts an empty object. The result is two-space indented, one entry per line.
///
/// # Errors
///
/// `existing` is not blank and not a JSON object.
pub fn splice_json(existing: &str, fresh: &[(&str, String)]) -> Result<String, String> {
    let mut entries = if existing.trim().is_empty() {
        Vec::new()
    } else {
        json_entries(existing)?
    };
    // Where the previous fresh entry sits.
    let mut prev: Option<usize> = None;
    for (key, value) in fresh {
        let i = match entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                entries[i].1 = value.clone();
                i
            }
            None => {
                let at = prev.map_or(entries.len(), |p| p + 1);
                entries.insert(at, (key.to_string(), value.clone()));
                at
            }
        };
        prev = Some(i);
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    Ok(format!("{{\n{}\n}}\n", body.join(",\n")))
}

/// The top-level entries of a JSON object as `(key, raw value text)`, in
/// document order. Values are not validated beyond bracket and string
/// balance.
fn json_entries(doc: &str) -> Result<Vec<(String, String)>, String> {
    let not_object = || "not a JSON object".to_string();
    let b = doc.as_bytes();
    let skip_ws = |mut i: usize| {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    // The index just past the string starting at `i`.
    let string_end = |i: usize| -> Result<usize, String> {
        let mut j = i + 1;
        while j < b.len() {
            match b[j] {
                b'\\' => j += 2,
                b'"' => return Ok(j + 1),
                _ => j += 1,
            }
        }
        Err("unterminated string".to_string())
    };
    let mut i = skip_ws(0);
    if b.get(i) != Some(&b'{') {
        return Err(not_object());
    }
    let mut entries = Vec::new();
    i = skip_ws(i + 1);
    if b.get(i) == Some(&b'}') {
        return Ok(entries);
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return Err(not_object());
        }
        let key_end = string_end(i)?;
        let key = doc[i + 1..key_end - 1].to_string();
        i = skip_ws(key_end);
        if b.get(i) != Some(&b':') {
            return Err(format!("no value for key {key:?}"));
        }
        let start = skip_ws(i + 1);
        // The value runs to the first `,` or `}` outside brackets and strings.
        let mut depth = 0usize;
        let mut j = start;
        while j < b.len() {
            match b[j] {
                b'"' => {
                    j = string_end(j)?;
                    continue;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' if depth > 0 => depth -= 1,
                b',' | b'}' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let value = doc[start..j].trim_end();
        if value.is_empty() || j == b.len() {
            return Err(format!("unterminated value for key {key:?}"));
        }
        entries.push((key, value.to_string()));
        if b[j] == b'}' {
            return Ok(entries);
        }
        i = skip_ws(j + 1);
    }
}

/// Parses word lengths from argv, defaulting to the paper's 8/16/32/64.
pub fn word_lengths_from_args() -> Vec<usize> {
    let ms: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    if ms.is_empty() {
        vec![8, 16, 32, 64]
    } else {
        ms
    }
}

/// Renders a set of measured rosters as a JSON document (hand-rolled —
/// flat structure, no extra dependencies) for downstream plotting.
pub fn rosters_to_json(per_m: &[(usize, Vec<DesignReport>)]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n  \"rosters\": [\n");
    for (mi, (m, reports)) in per_m.iter().enumerate() {
        out.push_str(&format!("    {{\"m\": {m}, \"designs\": [\n"));
        for (ri, r) in reports.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"area\": {}, \"delay\": {}, \"power\": {}, \"pdp\": {}, \"gates\": {}, \"verified\": {}}}{}\n",
                esc(&r.name),
                r.metrics.area,
                r.metrics.delay,
                r.metrics.power,
                r.metrics.pdp(),
                r.gates,
                r.verified,
                if ri + 1 < reports.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if mi + 1 < per_m.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Formats one metric across designs (rows) and word lengths (columns),
/// normalized per-column to the first row, plus a trailing average column
/// — the exact layout of a Fig. 3 panel.
pub fn fig3_panel(metric_name: &str, designs: &[String], per_m: &[(usize, Vec<f64>)]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "--- {metric_name} (normalized to {}) ---\n",
        designs[0]
    ));
    s.push_str(&format!("{:<12}", "design"));
    for (m, _) in per_m {
        s.push_str(&format!(" {:>8}", format!("m={m}")));
    }
    s.push_str(&format!(" {:>8}\n", "avg"));
    for (di, name) in designs.iter().enumerate() {
        s.push_str(&format!("{name:<12}"));
        let mut acc = 0.0;
        for (_, vals) in per_m {
            let norm = vals[di] / vals[0];
            acc += norm;
            s.push_str(&format!(" {norm:>8.3}"));
        }
        s.push_str(&format!(" {:>8.3}\n", acc / per_m.len() as f64));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_builds_at_4_bits() {
        let cfg = GomilConfig::fast();
        let reports = build_roster(4, &cfg).unwrap();
        assert_eq!(reports.len(), 8);
        for (r, expect) in reports.iter().zip(DESIGN_ORDER) {
            assert!(r.name.starts_with(expect), "{} vs {expect}", r.name);
            assert!(r.verified);
        }
    }

    #[test]
    fn json_writer_produces_balanced_output() {
        let cfg = GomilConfig::fast();
        let reports = build_roster(4, &cfg).unwrap();
        let json = rosters_to_json(&[(4, reports)]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"m\": 4"));
        assert!(json.contains("GOMIL-AND-4"));
        assert!(json.contains("\"verified\": true"));
    }

    #[test]
    fn splice_replaces_owned_keys_and_keeps_the_rest_verbatim() {
        let http = "{\n    \"commit\": \"abc\",\n    \"p50_ms\": 0.44\n  }";
        let doc = format!(
            "{{\n  \"bench\": \"old\",\n  \"word_lengths\": [8, 12],\n  \"http\": {http}\n}}\n"
        );
        let fresh = [
            ("bench", "\"batch\"".to_string()),
            ("word_lengths", "[4]".to_string()),
            ("commit", "\"def\"".to_string()),
        ];
        let out = splice_json(&doc, &fresh).unwrap();
        assert_eq!(
            out,
            format!(
                "{{\n  \"bench\": \"batch\",\n  \"word_lengths\": [4],\n  \
                 \"commit\": \"def\",\n  \"http\": {http}\n}}\n"
            )
        );
        // A section absent so far is appended; one present is replaced in
        // place, and the http section's bytes never change.
        let mart = "{\n    \"entries\": 12\n  }".to_string();
        let with_mart = splice_json(&out, &[("mart", mart.clone())]).unwrap();
        assert!(with_mart.ends_with(&format!("\"http\": {http},\n  \"mart\": {mart}\n}}\n")));
        let again = splice_json(&with_mart, &[("mart", "{}".to_string())]).unwrap();
        assert!(again.contains(&format!("\"http\": {http},\n  \"mart\": {{}}\n}}")));
        assert_eq!(
            splice_json("", &[("a", "1".to_string())]).unwrap(),
            "{\n  \"a\": 1\n}\n"
        );
        assert!(splice_json("[1]", &[("a", "1".to_string())]).is_err());
        assert!(splice_json("{\"a\": [1,", &[("a", "1".to_string())]).is_err());
    }

    #[test]
    fn panel_normalizes_to_first_row() {
        let designs = vec!["base".to_string(), "other".to_string()];
        let per_m = vec![(8usize, vec![2.0, 1.0]), (16usize, vec![4.0, 1.0])];
        let s = fig3_panel("delay", &designs, &per_m);
        assert!(s.contains("1.000")); // the base row
        assert!(s.contains("0.500")); // other at m=8
        assert!(s.contains("0.250")); // other at m=16
        assert!(s.contains("0.375")); // other's average
    }
}
