//! `run.sh compare <a.json> <b.json>`: apply each end-to-end metric's
//! bound to two result sets, workload by workload.
//!
//! Each set holds several runs per workload; a metric is compared by the
//! median of its runs, with the quartile spread printed. A metric whose
//! run-to-run spread is wider than its bound is *unresolved*, not
//! unchanged — unless every run of one set reads better than every run of
//! the other, which no spread explains away.

use crate::json::Json;
use crate::metrics::{Better, Metric, CLASS, END_TO_END};
use crate::stats;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compare one metric's runs in the baseline set `a` and the new set `b`.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let worse = worsening(metric, stats::median(a), stats::median(b));
    let spread = stats::spread(a).max(stats::spread(b));
    let better_than = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all = |f: &dyn Fn(f64, f64) -> bool| a.iter().all(|x| b.iter().all(|y| f(*x, *y)));
    let verdict = if spread > metric.bound {
        // The runs disagree with themselves by more than the bound: only
        // a clean separation of the two sets resolves it.
        if all(&|x, y| better_than(y, x)) {
            Verdict::Improved
        } else if worse > metric.bound && all(&|x, y| better_than(x, y)) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse > metric.bound {
        Verdict::Regression
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse, spread)
}

/// The values of `metric` across a workload's untraced runs.
fn run_values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            run.get("metrics")?
                .get(metric)?
                .get("value")
                .and_then(Json::as_f64)
        })
        .collect()
}

fn failed_statements(workload: &Json) -> f64 {
    let runs = workload.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .chain(workload.get("traced"))
        .filter_map(|run| run.get("failed").and_then(Json::as_f64))
        .sum()
}

fn workloads(set: &Json) -> &[(String, Json)] {
    set.get("workloads").and_then(Json::as_obj).unwrap_or(&[])
}

/// Print one result set: every end-to-end metric (median of the runs and
/// their spread) and every per-layer metric, by name, with its unit.
pub fn print_set(set: &Json) {
    for (name, workload) in workloads(set) {
        println!("== {name} ==");
        for metric in END_TO_END.iter().chain(&CLASS) {
            let values = run_values(workload, metric.name);
            if values.is_empty() {
                continue;
            }
            println!(
                "  {:<40} {:>16.4} {:<6} (median of {}, spread {:.1} %, bound {:.1} %)",
                metric.name,
                stats::median(&values),
                metric.unit,
                values.len(),
                100.0 * stats::spread(&values),
                100.0 * metric.bound
            );
        }
        println!(
            "  {:<40} {:>16}",
            "failed statements",
            failed_statements(workload)
        );
        let layers = workload.get("traced").and_then(|t| t.get("metrics"));
        for (layer, entry) in layers.and_then(Json::as_obj).unwrap_or(&[]) {
            let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {layer:<40} {value:>16.4} {unit}");
        }
    }
}

/// Compare two parsed sets; returns the report lines and whether any
/// metric regressed.
pub fn compare_sets(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut regressed = false;
    for (name, workload_a) in workloads(a) {
        let Some(workload_b) = b.get("workloads").and_then(|w| w.get(name)) else {
            lines.push(format!("{name}: missing from the second set"));
            regressed = true;
            continue;
        };
        lines.push(format!(
            "== {name} ==\n  {:<28} {:>14} {:>14} {:<5} {:>10} {:>9} {:>8}",
            "metric", "a (median)", "b (median)", "unit", "b worse by", "spread", "bound"
        ));
        for metric in END_TO_END.iter().chain(&CLASS) {
            let (va, vb) = (
                run_values(workload_a, metric.name),
                run_values(workload_b, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, worse, spread) = judge(metric, &va, &vb);
            regressed |= verdict == Verdict::Regression;
            lines.push(format!(
                "  {:<28} {:>14.4} {:>14.4} {:<5} {:>+8.1} % {:>7.1} % {:>6.1} %  {}",
                metric.name,
                stats::median(&va),
                stats::median(&vb),
                metric.unit,
                100.0 * worse,
                100.0 * spread,
                100.0 * metric.bound,
                verdict.as_str()
            ));
        }
        // failed_share has bound 0: any failed statement is a regression.
        let failed = failed_statements(workload_b);
        if failed > 0.0 {
            regressed = true;
        }
        lines.push(format!(
            "  {:<28} {:>14} {:>14}        {}",
            "failed statements",
            failed_statements(workload_a),
            failed,
            if failed > 0.0 {
                "REGRESSION"
            } else {
                "unchanged"
            }
        ));
    }
    (lines, regressed)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (lines, regressed) = compare_sets(&a, &b);
    for line in lines {
        println!("{line}");
    }
    if regressed {
        println!("compare: REGRESSION");
        ExitCode::FAILURE
    } else {
        println!("compare: no regression");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: Metric = Metric {
        name: "latency",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const THROUGHPUT: Metric = Metric {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn medians_within_the_bound_are_unchanged() {
        let (v, worse, _) = judge(&LATENCY, &[10.0, 10.1, 9.9], &[10.5, 10.6, 10.4]);
        assert_eq!(v, Verdict::Unchanged);
        assert!((worse - 0.05).abs() < 1e-9);
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression_in_the_metrics_direction() {
        assert_eq!(
            judge(&LATENCY, &[10.0, 10.1, 9.9], &[11.5, 11.6, 11.4]).0,
            Verdict::Regression
        );
        assert_eq!(
            judge(&LATENCY, &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]).0,
            Verdict::Improved
        );
        // Higher is better: fewer ops/s is the regression.
        assert_eq!(
            judge(&THROUGHPUT, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]).0,
            Verdict::Regression
        );
        assert_eq!(
            judge(&THROUGHPUT, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]).0,
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sets_separate() {
        // Overlapping, noisy sets: no verdict.
        let (v, _, spread) = judge(&LATENCY, &[8.0, 10.0, 12.0], &[9.0, 11.5, 13.0]);
        assert_eq!(v, Verdict::Unresolved);
        assert!(spread > LATENCY.bound);
        // Noisy, but every new run is slower than every old run.
        assert_eq!(
            judge(&LATENCY, &[8.0, 10.0, 12.0], &[20.0, 25.0, 30.0]).0,
            Verdict::Regression
        );
        assert_eq!(
            judge(&LATENCY, &[20.0, 25.0, 30.0], &[8.0, 10.0, 12.0]).0,
            Verdict::Improved
        );
    }

    fn set(p50: [f64; 3], failed: f64) -> Json {
        let runs = p50
            .iter()
            .map(|v| {
                Json::obj([
                    ("failed", Json::Num(failed)),
                    (
                        "metrics",
                        Json::obj([(
                            "p50_ms",
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::str("ms"))]),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::obj([(
            "workloads",
            Json::obj([("scan_mix", Json::obj([("runs", Json::Arr(runs))]))]),
        )])
    }

    #[test]
    fn compare_sets_flags_regressions_and_failed_statements() {
        let base = set([10.0, 10.1, 9.9], 0.0);
        let (lines, regressed) = compare_sets(&base, &set([10.2, 10.3, 10.1], 0.0));
        assert!(!regressed, "{lines:?}");
        let (lines, regressed) = compare_sets(&base, &set([14.0, 14.1, 13.9], 0.0));
        assert!(regressed && lines.iter().any(|l| l.contains("REGRESSION")));
        let (_, regressed) = compare_sets(&base, &set([10.0, 10.1, 9.9], 1.0));
        assert!(regressed, "a failed statement is a regression");
        let missing = Json::obj([("workloads", Json::obj::<String>([]))]);
        assert!(compare_sets(&base, &missing).1);
    }
}
