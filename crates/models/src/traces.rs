//! Measurement-trace import/export.
//!
//! The paper "uses the experimental server to construct a database of
//! execution traces" from which all throughput curves are learned
//! (Section 3.3). A downstream operator adopting this library has their own
//! power/throughput measurements; this module reads and writes them in a
//! plain CSV format so a cluster's real characterization data can drive the
//! allocators directly:
//!
//! ```csv
//! server,power_w,throughput
//! 0,130.5,0.61
//! 0,150.0,0.78
//! 1,130.2,0.95
//! ```
//!
//! Rows may appear in any order; each server needs at least one sample, and
//! its power box is inferred from its sample range (or overridden).

use crate::characterization::fit_utility_from_points;
use crate::throughput::QuadraticUtility;
use crate::units::Watts;
use std::collections::BTreeMap;
use std::fmt;

/// Error reading a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Missing or malformed header row.
    BadHeader {
        /// What the first line actually contained.
        found: String,
    },
    /// A data row failed to parse.
    BadRow {
        /// 1-based line number.
        line: usize,
        /// Parse failure description.
        reason: String,
    },
    /// Server ids must cover `0..n` without gaps.
    MissingServer {
        /// The first uncovered id.
        server: usize,
    },
    /// No data rows at all.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader { found } => {
                write!(
                    f,
                    "expected header `server,power_w,throughput`, found `{found}`"
                )
            }
            TraceError::BadRow { line, reason } => write!(f, "line {line}: {reason}"),
            TraceError::MissingServer { server } => {
                write!(
                    f,
                    "server ids must be contiguous from 0: id {server} has no samples"
                )
            }
            TraceError::Empty => f.write_str("trace contains no data rows"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One server's measured operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerTrace {
    /// Server id (position in the cluster).
    pub server: usize,
    /// `(power_w, throughput)` samples.
    pub points: Vec<(f64, f64)>,
}

impl ServerTrace {
    /// Measured power range of the samples.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no points (construction via
    /// [`parse_trace_csv`] guarantees at least one).
    pub(crate) fn power_range(&self) -> (Watts, Watts) {
        let lo = self
            .points
            .iter()
            .map(|p| p.0)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .points
            .iter()
            .map(|p| p.0)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(lo.is_finite() && hi.is_finite(), "empty trace");
        (Watts(lo), Watts(hi))
    }

    /// Fits the utility curve the allocators consume, on the sample range
    /// widened to at least 1 W so the box is never empty.
    ///
    /// # Errors
    ///
    /// Propagates the fitting error for an empty trace.
    pub(crate) fn fit(&self) -> Result<QuadraticUtility, crate::fitting::FitError> {
        let (lo, hi) = self.power_range();
        let hi = if hi - lo < Watts(1.0) {
            lo + Watts(1.0)
        } else {
            hi
        };
        fit_utility_from_points(&self.points, lo, hi)
    }
}

/// Parses the trace CSV format.
///
/// # Errors
///
/// See [`TraceError`] for the failure modes; all carry line numbers where
/// applicable.
pub fn parse_trace_csv(text: &str) -> Result<Vec<ServerTrace>, TraceError> {
    let mut lines = text.lines().enumerate();
    let header = loop {
        match lines.next() {
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((_, l)) => break l,
            None => return Err(TraceError::Empty),
        }
    };
    let normalized: String = header.chars().filter(|c| !c.is_whitespace()).collect();
    if !normalized.eq_ignore_ascii_case("server,power_w,throughput") {
        return Err(TraceError::BadHeader {
            found: header.trim().to_string(),
        });
    }

    let mut by_server: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split(',').map(str::trim);
        let (Some(s), Some(p), Some(t)) = (fields.next(), fields.next(), fields.next()) else {
            return Err(TraceError::BadRow {
                line: line_no,
                reason: "expected 3 comma-separated fields".into(),
            });
        };
        if fields.next().is_some() {
            return Err(TraceError::BadRow {
                line: line_no,
                reason: "too many fields".into(),
            });
        }
        let server: usize = s.parse().map_err(|e| TraceError::BadRow {
            line: line_no,
            reason: format!("bad server id `{s}`: {e}"),
        })?;
        let power: f64 = p.parse().map_err(|e| TraceError::BadRow {
            line: line_no,
            reason: format!("bad power `{p}`: {e}"),
        })?;
        let throughput: f64 = t.parse().map_err(|e| TraceError::BadRow {
            line: line_no,
            reason: format!("bad throughput `{t}`: {e}"),
        })?;
        if !power.is_finite() || power <= 0.0 {
            return Err(TraceError::BadRow {
                line: line_no,
                reason: format!("power must be positive and finite, got {power}"),
            });
        }
        if !throughput.is_finite() || throughput <= 0.0 {
            return Err(TraceError::BadRow {
                line: line_no,
                reason: format!("throughput must be positive and finite, got {throughput}"),
            });
        }
        by_server
            .entry(server)
            .or_default()
            .push((power, throughput));
    }
    if by_server.is_empty() {
        return Err(TraceError::Empty);
    }
    // Contiguity check.
    for (expect, (&id, _)) in by_server.iter().enumerate() {
        if id != expect {
            return Err(TraceError::MissingServer { server: expect });
        }
    }
    Ok(by_server
        .into_iter()
        .map(|(server, points)| ServerTrace { server, points })
        .collect())
}

/// Renders traces back to the CSV format (header included).
pub fn write_trace_csv(traces: &[ServerTrace]) -> String {
    let mut out = String::from("server,power_w,throughput\n");
    for t in traces {
        for &(p, tp) in &t.points {
            out.push_str(&format!("{},{:.6},{:.9}\n", t.server, p, tp));
        }
    }
    out
}

/// Fits one utility per server from parsed traces — the bridge from an
/// operator's measurement database to [`crate::workload::Cluster`]-free
/// problem construction.
///
/// # Errors
///
/// Propagates per-server fitting errors.
pub fn utilities_from_traces(
    traces: &[ServerTrace],
) -> Result<Vec<QuadraticUtility>, crate::fitting::FitError> {
    traces.iter().map(ServerTrace::fit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::CurveParams;

    fn sample_csv() -> String {
        let mut traces = Vec::new();
        for server in 0..4 {
            let mb = server as f64 / 4.0;
            let truth = CurveParams::for_memory_boundedness(mb).utility(Watts(120.0), Watts(200.0));
            let points: Vec<(f64, f64)> = (0..6)
                .map(|k| {
                    let p = 120.0 + 16.0 * k as f64;
                    (p, truth.value(Watts(p)))
                })
                .collect();
            traces.push(ServerTrace { server, points });
        }
        write_trace_csv(&traces)
    }

    #[test]
    fn roundtrip_parse_write_parse() {
        let csv = sample_csv();
        let traces = parse_trace_csv(&csv).unwrap();
        assert_eq!(traces.len(), 4);
        let again = parse_trace_csv(&write_trace_csv(&traces)).unwrap();
        assert_eq!(traces.len(), again.len());
        for (a, b) in traces.iter().zip(&again) {
            assert_eq!(a.server, b.server);
            assert_eq!(a.points.len(), b.points.len());
        }
    }

    #[test]
    fn fitted_utilities_recover_the_measured_curves() {
        let traces = parse_trace_csv(&sample_csv()).unwrap();
        let utilities = utilities_from_traces(&traces).unwrap();
        assert_eq!(utilities.len(), 4);
        for (t, u) in traces.iter().zip(&utilities) {
            for &(p, tp) in &t.points {
                let rel = (u.value(Watts(p)) - tp).abs() / tp;
                assert!(rel < 1e-6, "server {}: rel {rel}", t.server);
            }
        }
    }

    #[test]
    fn header_and_row_errors_carry_context() {
        assert!(matches!(parse_trace_csv(""), Err(TraceError::Empty)));
        assert!(matches!(
            parse_trace_csv("host,watts,ops\n1,2,3\n"),
            Err(TraceError::BadHeader { .. })
        ));
        let bad_power = "server,power_w,throughput\n0,-5.0,1.0\n";
        match parse_trace_csv(bad_power) {
            Err(TraceError::BadRow { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadRow, got {other:?}"),
        }
        let short = "server,power_w,throughput\n0,1.0\n";
        assert!(matches!(
            parse_trace_csv(short),
            Err(TraceError::BadRow { .. })
        ));
    }

    #[test]
    fn gaps_in_server_ids_rejected() {
        let csv = "server,power_w,throughput\n0,130,0.5\n2,130,0.5\n";
        assert!(matches!(
            parse_trace_csv(csv),
            Err(TraceError::MissingServer { server: 1 })
        ));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let csv = "server,power_w,throughput\n\n# comment\n0,130,0.5\n0,150,0.7\n";
        let traces = parse_trace_csv(csv).unwrap();
        assert_eq!(traces[0].points.len(), 2);
    }

    #[test]
    fn single_point_trace_still_fits_something_valid() {
        let csv = "server,power_w,throughput\n0,130,0.5\n";
        let traces = parse_trace_csv(csv).unwrap();
        let u = traces[0].fit().unwrap();
        assert!(u.value(Watts(130.0)) > 0.0);
        assert!(u.p_max() > u.p_min());
    }
}
