//! The cacheable result of one solve.

use gomil_arith::PpgKind;
use gomil_netlist::{DesignMetrics, VerdictTier};
use std::fmt;

/// Everything the service returns (and persists) for one request: the
/// measured quality-of-results plus the optimizer provenance.
///
/// Deliberately *flat* — no netlist — so an entry costs a few hundred
/// bytes in memory and one line on disk; callers that need the gates
/// re-run `build_gomil` (the report tells them the exact strategy and
/// objective they will get).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServeOutcome {
    /// Design name (e.g. `GOMIL-AND-16`).
    pub name: String,
    /// Word length.
    pub m: usize,
    /// Partial product generator.
    pub ppg: PpgKind,
    /// Measured area/delay/power.
    pub metrics: DesignMetrics,
    /// Logic gate count.
    pub gates: usize,
    /// Whether functional verification passed.
    pub verified: bool,
    /// Winning optimizer rung (a `Rung::label` string).
    pub strategy: String,
    /// Combined objective `ct_cost + prefix_cost` of the winning solution.
    pub objective: f64,
    /// Whether the degradation ladder absorbed a failure or was shaped by
    /// budget expiry. Degraded outcomes are served but never cached.
    pub degraded: bool,
    /// Final BCV column counts (LSB first, entries 1 or 2) — the incumbent
    /// profile offered to neighbor requests as a warm start.
    pub vs_counts: Vec<u32>,
    /// Branch-and-bound nodes the winning ILP rung explored (0 when a
    /// non-ILP rung won, or for records persisted before telemetry).
    pub solver_nodes: u64,
    /// Simplex iterations the winning ILP rung spent (0 when a non-ILP
    /// rung won, or for records persisted before telemetry).
    pub solver_lp_iters: u64,
    /// Final relative MIP gap of the winning ILP rung (0 for a proved
    /// optimum, non-ILP rungs, or pre-telemetry records). A root-only
    /// solve with no dual bound yet has an *infinite* gap, which the wire
    /// format carries as the explicit sentinel `inf` — distinguishable
    /// from both 0 and a missing field.
    pub solver_gap: f64,
    /// Warm-restart attempts: nodes that carried a parent basis into the
    /// dual simplex (0 for non-ILP rungs or pre-telemetry records).
    pub solver_warm_attempts: u64,
    /// Warm-restart hits: attempts that reoptimized without a from-scratch
    /// primal fallback (0 for non-ILP rungs or pre-telemetry records).
    pub solver_warm_hits: u64,
    /// Basis refactorizations (eta-file rebuilds) the winning ILP rung
    /// performed (0 for non-ILP rungs or pre-telemetry records).
    pub solver_refactors: u64,
    /// Equivalence-verdict tier of the emitted netlist (`Skipped` for
    /// records persisted before the verification gate existed).
    pub verdict: VerdictTier,
    /// Operand pairs the verifier simulated (0 for skipped verdicts and
    /// pre-verification records).
    pub verify_vectors: u64,
    /// Verification wall-clock in microseconds (0 for skipped verdicts
    /// and pre-verification records).
    pub verify_us: u64,
    /// Root-stage wall-clock of the winning ILP rung in microseconds:
    /// model build + presolve + root LP + cut loop (0 for non-ILP rungs
    /// or pre-root-profile records).
    pub root_us: u64,
    /// Simplex iterations of the root LP alone (0 for non-ILP rungs or
    /// pre-root-profile records).
    pub root_lp_iters: u64,
    /// Cutting planes appended at the root (0 when cuts were off, a
    /// non-ILP rung won, or the record predates root profiles).
    pub cuts_added: u64,
    /// Incumbent-improvement timeline of the winning ILP rung: one
    /// `(microseconds from solve start, objective)` pair per admitted
    /// improvement, in admission order (empty for non-ILP rungs and
    /// pre-timeline records). This is what `POST /solve?stream=1` replays
    /// as chunked progress events.
    pub improvements: Vec<(u64, f64)>,
}

impl ServeOutcome {
    /// Serializes to one tab-separated line (field order is the struct
    /// order; floats use Rust's shortest-roundtrip formatting, so
    /// [`from_line`](Self::from_line) reproduces them bit-exactly).
    pub fn to_line(&self) -> String {
        let counts: Vec<String> = self.vs_counts.iter().map(u32::to_string).collect();
        let improvements: Vec<String> = self
            .improvements
            .iter()
            .map(|(at_us, obj)| format!("{at_us}:{obj}"))
            .collect();
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.name.replace(['\t', '\n'], " "),
            self.m,
            self.ppg.label(),
            self.metrics.area,
            self.metrics.delay,
            self.metrics.power,
            self.gates,
            self.verified,
            self.strategy,
            self.objective,
            self.degraded,
            counts.join(","),
            self.solver_nodes,
            self.solver_lp_iters,
            self.solver_gap,
            self.solver_warm_attempts,
            self.solver_warm_hits,
            self.solver_refactors,
            self.verdict.label(),
            self.verify_vectors,
            self.verify_us,
            self.root_us,
            self.root_lp_iters,
            self.cuts_added,
            improvements.join(","),
        )
    }

    /// Parses a [`to_line`](Self::to_line) record; `None` on any malformed
    /// field (a corrupted persisted entry is skipped, not fatal). Accepts
    /// the current 25-field format plus the five legacy ones: 24 fields
    /// (before incumbent timelines), 21 fields (before root-LP profiles),
    /// 18 fields (before verification verdicts), 15 fields (before
    /// warm-restart telemetry) and 12 fields (before any solver
    /// telemetry), defaulting the missing verdict to `Skipped` and missing
    /// counters and timelines to empty.
    pub fn from_line(line: &str) -> Option<ServeOutcome> {
        let f: Vec<&str> = line.split('\t').collect();
        if ![12, 15, 18, 21, 24, 25].contains(&f.len()) {
            return None;
        }
        let vs_counts = if f[11].is_empty() {
            Vec::new()
        } else {
            f[11]
                .split(',')
                .map(|c| c.parse::<u32>().ok())
                .collect::<Option<Vec<u32>>>()?
        };
        let (solver_nodes, solver_lp_iters, solver_gap) = if f.len() >= 15 {
            (
                f[12].parse().ok()?,
                f[13].parse().ok()?,
                f[14].parse().ok()?,
            )
        } else {
            (0, 0, 0.0)
        };
        let (solver_warm_attempts, solver_warm_hits, solver_refactors) = if f.len() >= 18 {
            (
                f[15].parse().ok()?,
                f[16].parse().ok()?,
                f[17].parse().ok()?,
            )
        } else {
            (0, 0, 0)
        };
        let (verdict, verify_vectors, verify_us) = if f.len() >= 21 {
            (
                VerdictTier::from_label(f[18])?,
                f[19].parse().ok()?,
                f[20].parse().ok()?,
            )
        } else {
            (VerdictTier::Skipped, 0, 0)
        };
        let (root_us, root_lp_iters, cuts_added) = if f.len() >= 24 {
            (
                f[21].parse().ok()?,
                f[22].parse().ok()?,
                f[23].parse().ok()?,
            )
        } else {
            (0, 0, 0)
        };
        let improvements = if f.len() == 25 && !f[24].is_empty() {
            f[24]
                .split(',')
                .map(|pair| {
                    let (at_us, obj) = pair.split_once(':')?;
                    Some((at_us.parse::<u64>().ok()?, obj.parse::<f64>().ok()?))
                })
                .collect::<Option<Vec<(u64, f64)>>>()?
        } else {
            Vec::new()
        };
        Some(ServeOutcome {
            name: f[0].to_string(),
            m: f[1].parse().ok()?,
            ppg: PpgKind::from_name(f[2])?,
            metrics: DesignMetrics {
                area: f[3].parse().ok()?,
                delay: f[4].parse().ok()?,
                power: f[5].parse().ok()?,
            },
            gates: f[6].parse().ok()?,
            verified: f[7].parse().ok()?,
            strategy: f[8].to_string(),
            objective: f[9].parse().ok()?,
            degraded: f[10].parse().ok()?,
            vs_counts,
            solver_nodes,
            solver_lp_iters,
            solver_gap,
            solver_warm_attempts,
            solver_warm_hits,
            solver_refactors,
            verdict,
            verify_vectors,
            verify_us,
            root_us,
            root_lp_iters,
            cuts_added,
            improvements,
        })
    }

    /// Serializes to a JSON object — the body of the HTTP service's
    /// `POST /solve` and `GET /design/{fingerprint}` replies.
    ///
    /// Hand-rolled (the workspace runs offline with no `serde_json`):
    /// strings are escaped per RFC 8259, and non-finite floats — which
    /// JSON cannot represent as numbers — are emitted as the same quoted
    /// sentinels the TSV wire format uses (`"inf"`, `"-inf"`, `"NaN"`),
    /// so a root-only solve's infinite gap survives the trip.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self.vs_counts.iter().map(u32::to_string).collect();
        let improvements: Vec<String> = self
            .improvements
            .iter()
            .map(|(at_us, obj)| format!("{{\"at_us\":{at_us},\"objective\":{}}}", json_f64(*obj)))
            .collect();
        format!(
            "{{\"name\":{},\"m\":{},\"ppg\":{},\"area\":{},\"delay\":{},\"power\":{},\
             \"gates\":{},\"verified\":{},\"strategy\":{},\"objective\":{},\"degraded\":{},\
             \"vs_counts\":[{}],\"solver_nodes\":{},\"solver_lp_iters\":{},\"solver_gap\":{},\
             \"solver_warm_attempts\":{},\"solver_warm_hits\":{},\"solver_refactors\":{},\
             \"verdict\":{},\"verify_vectors\":{},\"verify_us\":{},\"root_us\":{},\
             \"root_lp_iters\":{},\"cuts_added\":{},\"improvements\":[{}]}}",
            json_string(&self.name),
            self.m,
            json_string(self.ppg.label()),
            json_f64(self.metrics.area),
            json_f64(self.metrics.delay),
            json_f64(self.metrics.power),
            self.gates,
            self.verified,
            json_string(&self.strategy),
            json_f64(self.objective),
            self.degraded,
            counts.join(","),
            self.solver_nodes,
            self.solver_lp_iters,
            json_f64(self.solver_gap),
            self.solver_warm_attempts,
            self.solver_warm_hits,
            self.solver_refactors,
            json_string(self.verdict.label()),
            self.verify_vectors,
            self.verify_us,
            self.root_us,
            self.root_lp_iters,
            self.cuts_added,
            improvements.join(","),
        )
    }
}

/// RFC 8259 string escaping (quotes included in the output).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as a JSON value: a bare number when finite (Rust's shortest
/// roundtrip formatting is valid JSON for every finite `f64`), otherwise
/// the quoted TSV sentinel.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `75.0` formats as `75`, which JSON accepts as a number.
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

impl fmt::Display for ServeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} m={:<3} {} gates={} [{}{}, {}]",
            self.name,
            self.m,
            self.metrics,
            self.gates,
            self.strategy,
            if self.degraded { ", degraded" } else { "" },
            self.verdict,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeOutcome {
        ServeOutcome {
            name: "GOMIL-AND-8".into(),
            m: 8,
            ppg: PpgKind::And,
            metrics: DesignMetrics {
                area: 123.456789,
                delay: 0.1 + 0.2, // deliberately non-representable exactly
                power: 7.25,
            },
            gates: 321,
            verified: true,
            strategy: "joint-ilp".into(),
            objective: 456.125,
            degraded: false,
            vs_counts: vec![1, 2, 2, 1],
            solver_nodes: 42,
            solver_lp_iters: 1_337,
            solver_gap: 0.0625,
            solver_warm_attempts: 40,
            solver_warm_hits: 36,
            solver_refactors: 9,
            verdict: VerdictTier::Proved,
            verify_vectors: 65_536,
            verify_us: 4_200,
            root_us: 12_500,
            root_lp_iters: 96,
            cuts_added: 5,
            improvements: vec![(1_500, 512.5), (9_000, 456.125)],
        }
    }

    #[test]
    fn line_roundtrip_is_bit_exact() {
        let o = sample();
        let back = ServeOutcome::from_line(&o.to_line()).unwrap();
        assert_eq!(o, back);
        assert_eq!(o.metrics.delay.to_bits(), back.metrics.delay.to_bits());
        assert_eq!(o.to_line(), back.to_line());
    }

    #[test]
    fn legacy_twelve_field_lines_parse_with_zero_telemetry() {
        let line = sample().to_line();
        let legacy: Vec<&str> = line.split('\t').take(12).collect();
        let back = ServeOutcome::from_line(&legacy.join("\t")).unwrap();
        assert_eq!(back.name, "GOMIL-AND-8");
        assert_eq!(back.vs_counts, vec![1, 2, 2, 1]);
        assert_eq!(back.solver_nodes, 0);
        assert_eq!(back.solver_lp_iters, 0);
        assert_eq!(back.solver_gap, 0.0);
        assert_eq!(back.solver_warm_attempts, 0);
        assert_eq!(back.solver_warm_hits, 0);
        assert_eq!(back.solver_refactors, 0);
        assert_eq!(back.verdict, VerdictTier::Skipped);
        assert_eq!(back.verify_vectors, 0);
    }

    #[test]
    fn legacy_fifteen_field_lines_parse_with_zero_warm_telemetry() {
        let line = sample().to_line();
        let legacy: Vec<&str> = line.split('\t').take(15).collect();
        let back = ServeOutcome::from_line(&legacy.join("\t")).unwrap();
        assert_eq!(back.solver_nodes, 42);
        assert_eq!(back.solver_lp_iters, 1_337);
        assert_eq!(back.solver_gap, 0.0625);
        assert_eq!(back.solver_warm_attempts, 0);
        assert_eq!(back.solver_warm_hits, 0);
        assert_eq!(back.solver_refactors, 0);
        assert_eq!(back.verdict, VerdictTier::Skipped);
    }

    #[test]
    fn legacy_eighteen_field_lines_parse_with_a_skipped_verdict() {
        let line = sample().to_line();
        let legacy: Vec<&str> = line.split('\t').take(18).collect();
        let back = ServeOutcome::from_line(&legacy.join("\t")).unwrap();
        assert_eq!(back.solver_warm_attempts, 40);
        assert_eq!(back.solver_warm_hits, 36);
        assert_eq!(back.solver_refactors, 9);
        assert_eq!(back.verdict, VerdictTier::Skipped);
        assert_eq!(back.verify_vectors, 0);
        assert_eq!(back.verify_us, 0);
    }

    #[test]
    fn legacy_twentyone_field_lines_parse_with_zero_root_profile() {
        let line = sample().to_line();
        let legacy: Vec<&str> = line.split('\t').take(21).collect();
        let back = ServeOutcome::from_line(&legacy.join("\t")).unwrap();
        assert_eq!(back.verdict, VerdictTier::Proved);
        assert_eq!(back.verify_vectors, 65_536);
        assert_eq!(back.verify_us, 4_200);
        assert_eq!(back.root_us, 0);
        assert_eq!(back.root_lp_iters, 0);
        assert_eq!(back.cuts_added, 0);
    }

    #[test]
    fn legacy_twentyfour_field_lines_parse_with_an_empty_timeline() {
        let line = sample().to_line();
        let legacy: Vec<&str> = line.split('\t').take(24).collect();
        let back = ServeOutcome::from_line(&legacy.join("\t")).unwrap();
        assert_eq!(back.root_us, 12_500);
        assert_eq!(back.root_lp_iters, 96);
        assert_eq!(back.cuts_added, 5);
        assert!(back.improvements.is_empty());
    }

    #[test]
    fn current_lines_carry_the_incumbent_timeline() {
        let line = sample().to_line();
        assert_eq!(line.split('\t').count(), 25);
        let back = ServeOutcome::from_line(&line).unwrap();
        assert_eq!(back.verdict, VerdictTier::Proved);
        assert_eq!(back.verify_vectors, 65_536);
        assert_eq!(back.verify_us, 4_200);
        assert_eq!(back.root_us, 12_500);
        assert_eq!(back.root_lp_iters, 96);
        assert_eq!(back.cuts_added, 5);
        assert_eq!(back.improvements, vec![(1_500, 512.5), (9_000, 456.125)]);
        // An empty timeline roundtrips as an empty field, not a parse error.
        let mut o = sample();
        o.improvements.clear();
        let back = ServeOutcome::from_line(&o.to_line()).unwrap();
        assert!(back.improvements.is_empty());
        assert_eq!(o, back);
    }

    #[test]
    fn json_rendering_is_parseable_and_complete() {
        let mut o = sample();
        o.name = "GOMIL \"quoted\"\t8".into();
        o.solver_gap = f64::INFINITY;
        let json = o.to_json();
        // Structural sanity a real JSON parser would enforce: balanced
        // braces/brackets, escaped quotes, sentinel for the infinite gap.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"name\":\"GOMIL \\\"quoted\\\"\\t8\""));
        assert!(json.contains("\"solver_gap\":\"inf\""));
        assert!(json.contains("\"verdict\":\"proved\""));
        assert!(json.contains("\"improvements\":[{\"at_us\":1500,\"objective\":512.5}"));
        assert!(json.contains("\"vs_counts\":[1,2,2,1]"));
        assert!(!json.contains('\n'), "JSON body must be single-line");
    }

    #[test]
    fn infinite_gap_roundtrips_as_an_explicit_sentinel() {
        // A root-only solve has no dual bound, so its gap is infinite.
        // The wire format must carry that as a real sentinel (`inf`),
        // not collapse it to something indistinguishable from a missing
        // or zero field.
        let mut o = sample();
        o.solver_gap = f64::INFINITY;
        let line = o.to_line();
        assert!(
            line.split('\t').nth(14) == Some("inf"),
            "gap field must be the explicit sentinel, got {:?}",
            line.split('\t').nth(14)
        );
        let back = ServeOutcome::from_line(&line).unwrap();
        assert!(back.solver_gap.is_infinite() && back.solver_gap > 0.0);
        assert_eq!(o, back);
        assert_eq!(line, back.to_line());
    }

    #[test]
    fn malformed_lines_are_rejected_not_fatal() {
        assert!(ServeOutcome::from_line("garbage").is_none());
        assert!(ServeOutcome::from_line("").is_none());
        let mut truncated = sample().to_line();
        truncated.truncate(truncated.len() / 2);
        assert!(ServeOutcome::from_line(&truncated).is_none());
        // Field counts between (or beyond) the known formats are no format.
        let line = sample().to_line();
        for n in [13usize, 14, 16, 17, 19, 20, 22, 23] {
            let partial: Vec<&str> = line.split('\t').take(n).collect();
            assert!(
                ServeOutcome::from_line(&partial.join("\t")).is_none(),
                "{n}-field line must be rejected"
            );
        }
        let overlong = format!("{line}\t0");
        assert!(ServeOutcome::from_line(&overlong).is_none());
        // A corrupted timeline field is malformed, not silently empty.
        let head: Vec<&str> = line.split('\t').take(24).collect();
        for bad in ["garbage", "12:x", ":1.0", "5:1.0,7"] {
            assert!(
                ServeOutcome::from_line(&format!("{}\t{bad}", head.join("\t"))).is_none(),
                "timeline {bad:?} must be rejected"
            );
        }
        // An unknown verdict label is a malformed field, not Skipped.
        let bad = line.replace("\tproved\t", "\tmaybe\t");
        assert_ne!(bad, line);
        assert!(ServeOutcome::from_line(&bad).is_none());
    }
}
