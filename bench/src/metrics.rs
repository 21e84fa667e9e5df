//! The metric registry: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound, and how each
//! per-layer metric is derived from a traced run's spans and values.
//!
//! `BENCHMARK.json` repeats the end-to-end and per-layer lists for the
//! driver; a unit test keeps the two in step.

use crate::trace::TraceView;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression (0 for per-layer metrics, which
    /// attribute and do not gate).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

/// What a user of the engine sees, on every workload.
///
/// The bounds are what this sandbox resolves, not what one would like to
/// gate: ten runs of the same code on ten seeds usually spread
/// (interquartile distance over median) 3–6 %, up to 10 % on
/// `paged_cycle`, and the shared host slows whole runs by 10–25 % for
/// minutes at a time, so a timing bound under the contract's cap of 25 %
/// would reject unchanged code.
pub const END_TO_END: [Metric; 5] = [
    // process start → first timed statement: generate, CREATE + INSERT
    // load, persist, warm caches and indexes (median of three set-ups).
    lower("setup_s", "s", 0.25),
    // timed statements ÷ the sum of their latencies, at the stated n.
    higher("ops_per_s", "1/s", 0.25),
    // median latency over all timed statements.
    lower("p50_ms", "ms", 0.25),
    // latency at the workload's frozen ladder rung (p75/p90/p99/p99.9).
    lower("tail_ms", "ms", 0.25),
    // VmHWM when the run ends.
    lower("peak_rss_mb", "MB", 0.25),
];

/// End-to-end metrics that exist on some workloads only. `compare` gates
/// them where both result sets carry them; the driver sees them in the
/// traced run's per-layer list (0 where the workload has no such class).
pub const CLASS: [Metric; 5] = [
    lower("class.read_p50_ms", "ms", 0.25),
    lower("class.write_p50_ms", "ms", 0.25),
    higher("class.tuples_per_s", "1/s", 0.25),
    lower("class.reopen_s", "s", 0.25),
    lower("class.file_bytes_per_tuple", "B", 0.005),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as H, Lower as L};

/// Single-layer metrics, from the traced run. 0 means the workload does
/// not exercise that layer (its prediction there is "no change").
pub const PER_LAYER: [Metric; 76] = [
    // tempagg-sql
    layer("sql.lex_ns", "ns", L),
    layer("sql.parse_ns", "ns", L),
    layer("sql.overhead_ns_per_tuple", "ns", L),
    layer("sql.serve_ns_per_row", "ns", L),
    layer("sql.stream_over_materialized", "ratio", L),
    layer("stmt.scan_full_multi.p50_ms", "ms", L),
    layer("stmt.scan_full_sorted.p50_ms", "ms", L),
    layer("stmt.scan_window10.p50_ms", "ms", L),
    layer("stmt.scan_filter.p50_ms", "ms", L),
    layer("stmt.scan_group_value.p50_ms", "ms", L),
    layer("stmt.scan_group_span.p50_ms", "ms", L),
    layer("stmt.scan_join.p50_ms", "ms", L),
    layer("stmt.scan_stream.p50_ms", "ms", L),
    layer("stmt.probe_sum.p50_ms", "ms", L),
    layer("stmt.probe_minmax.p50_ms", "ms", L),
    layer("stmt.topk.p50_ms", "ms", L),
    layer("stmt.cached_select.p50_ms", "ms", L),
    layer("stmt.fresh_probe_sum.p50_ms", "ms", L),
    layer("stmt.fresh_probe_min.p50_ms", "ms", L),
    layer("stmt.fresh_select.p50_ms", "ms", L),
    layer("stmt.fresh_topk.p50_ms", "ms", L),
    layer("stmt.insert.p50_ms", "ms", L),
    layer("stmt.update.p50_ms", "ms", L),
    layer("stmt.delete.p50_ms", "ms", L),
    layer("stmt.flush_insert.p50_ms", "ms", L),
    layer("stmt.reopen.p50_ms", "ms", L),
    layer("stmt.paged_full_ktree.p50_ms", "ms", L),
    layer("stmt.paged_full_sweep.p50_ms", "ms", L),
    layer("stmt.paged_window10.p50_ms", "ms", L),
    // tempagg-plan
    layer("plan.analyze_ns_per_tuple", "ns", L),
    layer("plan.execute_ns_per_tuple", "ns", L),
    layer("plan.choose_ns", "ns", L),
    layer("plan.regret", "ratio", L),
    layer("plan.rank_agreement", "ratio", H),
    // tempagg-algo and tempagg-agg
    layer("algo.sweep_ns_per_tuple", "ns", L),
    layer("algo.ktree_ns_per_tuple", "ns", L),
    layer("algo.aggtree_ns_per_tuple", "ns", L),
    layer("algo.linked_list_ns_per_tuple", "ns", L),
    layer("algo.span_ns_per_tuple", "ns", L),
    layer("algo.join_ns_per_pair", "ns", L),
    layer("algo.partition_speedup", "ratio", H),
    layer("agg.multidyn_over_typed", "ratio", L),
    layer("algo.windex_build_ns_per_run", "ns", L),
    layer("algo.windex_probe_ns", "ns", L),
    layer("algo.scan_window_ns_per_run", "ns", L),
    layer("algo.feed_ram_ns_per_tuple", "ns", L),
    layer("algo.feed_paged_ns_per_tuple", "ns", L),
    // tempagg-store
    layer("store.insert_ns", "ns", L),
    layer("store.update_ns", "ns", L),
    layer("store.delete_ns", "ns", L),
    layer("store.patched_runs_per_write", "count", L),
    layer("store.publish_ns_per_run", "ns", L),
    layer("store.topk_rebuild_ns", "ns", L),
    layer("store.window_probe_ns", "ns", L),
    layer("store.topk_ns", "ns", L),
    layer("store.cache_build_ns_per_tuple.sum", "ns", L),
    layer("store.cache_build_ns_per_tuple.min", "ns", L),
    layer("store.min_cache_rss_bytes_per_run", "B", L),
    layer("store.flush_ns_per_tuple", "ns", L),
    layer("store.open_ns_per_tuple", "ns", L),
    // tempagg-core::pager
    layer("pager.write_ns_per_tuple", "ns", L),
    layer("pager.open_ns", "ns", L),
    layer("pager.read_page_ns", "ns", L),
    layer("pager.read_page_projected_ns", "ns", L),
    layer("pager.read_relation_ns_per_tuple", "ns", L),
    layer("pager.pages_read", "count", L),
    layer("pager.pages_pruned", "count", H),
    layer("pager.peak_resident_tuples", "count", L),
    layer("pager.relation_bytes_per_tuple", "B", L),
    layer("pager.footer_bytes_per_run", "B", L),
    // the benchmark itself
    layer("trace.overhead_share", "ratio", H),
    // workload-specific end-to-end metrics, as the traced run saw them
    layer("class.read_p50_ms", "ms", L),
    layer("class.write_p50_ms", "ms", L),
    layer("class.tuples_per_s", "1/s", H),
    layer("class.reopen_s", "s", L),
    layer("class.file_bytes_per_tuple", "B", L),
];

/// Derive one per-layer metric from a traced run. Names follow one
/// convention, so most metrics need no code of their own:
///
/// * `stmt.<shape>.p50_ms` — median duration of the `stmt.<shape>` roots;
/// * `<span>_ns` — median duration of the spans named `<span>`;
/// * `<span>_ns_per_<unit>[.<variant>]` — total duration of the spans
///   named `<span>[.<variant>]` over their total work count;
/// * anything else — a value the workload recorded under that name.
pub fn derive(name: &str, v: &TraceView) -> f64 {
    match name {
        // SQL's own share of a full scan statement: the statement's
        // execution minus the replayed planner and executor calls.
        "sql.overhead_ns_per_tuple" => {
            let (self_ns, _) = v.self_ns_under("stmt.scan_full_multi", "sql.exec");
            ratio(self_ns as f64, v.total_count("stmt.scan_full_multi") as f64)
        }
        // Snapshot zip + row build per row served from the caches.
        "sql.serve_ns_per_row" => {
            let (a_ns, a_rows) = v.self_ns_under("stmt.cached_select", "sql.exec");
            let (b_ns, b_rows) = v.self_ns_under("stmt.fresh_select", "sql.exec");
            ratio((a_ns + b_ns) as f64, (a_rows + b_rows) as f64)
        }
        "sql.stream_over_materialized" => ratio(
            v.median_ns("stmt.scan_stream"),
            v.median_ns("stmt.scan_full_multi"),
        ),
        "trace.overhead_share" => {
            let untraced = v.value("trace.untraced_ops_per_s");
            ratio(v.value("trace.traced_ops_per_s") - untraced, untraced)
        }
        _ => {
            if let Some(shape) = name.strip_suffix(".p50_ms") {
                return v.median_ns(shape) / 1e6;
            }
            if let Some((span, rest)) = name.split_once("_ns_per_") {
                return match rest.split_once('.') {
                    Some((_unit, variant)) => v.ns_per_count(&format!("{span}.{variant}")),
                    None => v.ns_per_count(span),
                };
            }
            if let Some(span) = name.strip_suffix("_ns") {
                return v.median_ns(span);
            }
            v.value(name)
        }
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace::Tracer;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} is declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        // Every class metric is also reported by the traced run.
        for m in &CLASS {
            assert!(PER_LAYER.iter().any(|p| p.name == m.name));
        }
    }

    #[test]
    fn benchmark_json_repeats_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, f64)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    )
                })
                .collect()
        };
        let declared = |metrics: &[Metric]| -> Vec<(String, String, String, f64)> {
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        m.unit.to_owned(),
                        m.better.as_str().to_owned(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(&END_TO_END));
        assert_eq!(listed("per_layer"), declared(&PER_LAYER));
    }

    #[test]
    fn derivation_follows_the_naming_convention() {
        let mut t = Tracer::new();
        for ns_count in [10u64, 30] {
            t.next_op();
            let id = t.open("algo.sweep");
            t.close(id, ns_count);
            let id = t.open("store.cache_build.min");
            t.close(id, 5);
            let id = t.open("stmt.topk");
            t.close(id, 0);
        }
        t.values.insert("pager.pages_read", 717.0);
        t.values.insert("trace.untraced_ops_per_s", 100.0);
        t.values.insert("trace.traced_ops_per_s", 97.0);
        let v = TraceView::new(&t.spans, &t.values);
        let total: u64 = t
            .spans
            .iter()
            .filter(|s| s.name == "algo.sweep")
            .map(|s| s.ns())
            .sum();
        assert_eq!(derive("algo.sweep_ns_per_tuple", &v), total as f64 / 40.0);
        assert!(derive("store.cache_build_ns_per_tuple.min", &v) >= 0.0);
        assert_eq!(derive("store.cache_build_ns_per_tuple.sum", &v), 0.0);
        assert_eq!(derive("pager.pages_read", &v), 717.0);
        assert_eq!(
            derive("stmt.topk.p50_ms", &v),
            v.median_ns("stmt.topk") / 1e6
        );
        assert!((derive("trace.overhead_share", &v) + 0.03).abs() < 1e-12);
        assert_eq!(derive("plan.regret", &v), 0.0);
    }
}
