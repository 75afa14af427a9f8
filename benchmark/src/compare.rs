//! `benchmark compare A.json B.json`: applies each end-to-end metric's
//! bound to two `results.json` files, one row per (metric, workload).
//!
//! B regresses a metric when its median is worse than A's by more than
//! the bound. Where either side's run-to-run spread (interquartile range
//! over median, four runs or more) is wider than the bound, a row that
//! did not regress reads *unresolved*, not *unchanged* — unless every
//! run of B beats every run of A.

use crate::json::Value;
use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, summarize};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn key(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// Judges one metric from the per-run values of both sides.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of A.
    let worse = match metric.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    if worse > bound {
        return Verdict::Regressed;
    }
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_wins = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let spread = |v: &[f64]| {
        if v.len() >= 4 {
            summarize(v).spread()
        } else {
            0.0
        }
    };
    let noise = spread(a).max(spread(b));
    if b_always_wins {
        Verdict::Improved
    } else if noise > bound {
        Verdict::Unresolved
    } else if -worse > noise && worse != 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Per-run values of `metric` on `workload`, or why they cannot be read.
fn run_values(doc: &Value, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let runs = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("workload `{workload}` has no runs"))?;
    runs.iter()
        .map(|run| {
            if run.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!("a run of `{workload}` failed its checks"));
            }
            run.get("end_to_end")
                .and_then(|m| m.get(metric))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("a run of `{workload}` lacks `{metric}`"))
        })
        .collect()
}

/// Renders the comparison and says whether B is acceptable against A.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let values = run_values(a, workload, metric.name)
                .and_then(|va| Ok((va, run_values(b, workload, metric.name)?)));
            let (va, vb) = match values {
                Ok((va, vb)) if va.len() == vb.len() && !va.is_empty() => (va, vb),
                Ok((va, vb)) => {
                    ok = false;
                    out.push_str(&format!(
                        "{workload:<18} {:<16} count mismatch: {} runs against {}\n",
                        metric.name,
                        va.len(),
                        vb.len()
                    ));
                    continue;
                }
                Err(why) => {
                    ok = false;
                    out.push_str(&format!("{workload:<18} {:<16} {why}\n", metric.name));
                    continue;
                }
            };
            let verdict = judge(metric, &va, &vb);
            ok &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            out.push_str(&format!(
                "{workload:<18} {:<16} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.0}%  {}\n",
                metric.name,
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * metric.bound.expect("end-to-end metrics carry a bound"),
                verdict.key()
            ));
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::spec::end_to_end;

    #[test]
    fn judge_applies_the_bound_and_the_spread_rule() {
        let m = end_to_end("rounds_to_cap").unwrap(); // lower is better, 25 %
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(m, &steady, &steady), Verdict::Unchanged);
        assert_eq!(judge(m, &steady, &[126.0; 5]), Verdict::Regressed);
        assert_eq!(judge(m, &steady, &[124.0; 5]), Verdict::Unchanged);
        assert_eq!(judge(m, &steady, &[90.0; 5]), Verdict::Improved);
        // Spread wider than the bound: not "unchanged" …
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(m, &noisy, &noisy), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(m, &noisy, &[50.0, 55.0, 40.0, 59.0, 45.0]),
            Verdict::Improved
        );
        // Fewer than four runs carry no spread; medians alone decide.
        assert_eq!(judge(m, &[100.0], &[105.0]), Verdict::Unchanged);
        assert_eq!(judge(m, &[100.0], &[126.0]), Verdict::Regressed);
    }

    fn results(value: f64, runs: usize, correct: bool) -> Value {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("\"{}\": {value}", m.name))
            .collect();
        let run = format!(
            "{{\"correct\": {correct}, \"end_to_end\": {{{}}}}}",
            metrics.join(", ")
        );
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| {
                format!(
                    "\"{w}\": {{\"runs\": [{}]}}",
                    vec![run.clone(); runs].join(", ")
                )
            })
            .collect();
        parse(&format!("{{\"workloads\": {{{}}}}}", workloads.join(", "))).unwrap()
    }

    #[test]
    fn compare_prints_one_row_per_metric_and_workload() {
        let (table, ok) = compare(&results(10.0, 2, true), &results(10.5, 2, true));
        assert!(ok, "{table}");
        assert_eq!(
            table.lines().count(),
            1 + WORKLOADS.len() * END_TO_END.len()
        );
        assert!(table.contains("unchanged") && !table.contains("REGRESSED"));
    }

    #[test]
    fn compare_fails_on_regression_count_mismatch_and_failed_runs() {
        let base = results(10.0, 2, true);
        let (table, ok) = compare(&base, &results(20.0, 2, true));
        assert!(!ok && table.contains("REGRESSED"));
        let (table, ok) = compare(&base, &results(10.0, 3, true));
        assert!(!ok && table.contains("count mismatch"));
        let (table, ok) = compare(&base, &results(10.0, 2, false));
        assert!(!ok && table.contains("failed its checks"));
        let (_, ok) = compare(&base, &parse("{}").unwrap());
        assert!(!ok);
    }
}
