//! The optimizer strategy of Section 6.3, as a rule-based planner with a
//! small cost model.
//!
//! The paper's conclusions, encoded here:
//!
//! * very few constant intervals expected in the result → **linked list**
//!   ("quite adequate performance" and minimal state);
//! * relation sorted → **k-ordered tree with k = 1** ("very efficient
//!   run-time performance … minimal memory usage");
//! * relation declared retroactively bounded → **k-ordered tree** with the
//!   equivalent k, *without* sorting;
//! * relation measured k-ordered for small k → **k-ordered tree**;
//! * otherwise (unordered): **aggregation tree** if its memory fits the
//!   budget and memory is cheaper than the I/O of sorting, else **sort +
//!   k-ordered tree with k = 1** (the paper's "simplest strategy").
//!
//! This rule set reproduces the paper's optimizer verbatim, so it never
//! prescribes the (post-paper) endpoint-sweep kernel; the cost-based
//! [`crate::choose_algorithm`] adds that fourth candidate.

use crate::stats::{OrderingKnowledge, RelationStats};
use std::fmt;
use tempagg_algo::memory::model_node_bytes;
use tempagg_algo::parallel::machine_threads;

/// The algorithm (and preprocessing) a plan prescribes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmChoice {
    LinkedList,
    AggregationTree,
    /// Columnar endpoint sweep: buffer the runs, sort the endpoint events
    /// once, emit in a single merge scan. Requires a retractable
    /// (`SweepAggregate`) aggregate; the rule-based Section 6.3 planner
    /// never picks it — [`crate::choose_algorithm`] does, by cost.
    Sweep,
    /// Serve an MVCC snapshot of a store-maintained aggregate cache: no
    /// relation scan at all, just one pass over the cached
    /// constant-interval runs. Only a candidate when
    /// [`RelationStats::cached_series`](crate::RelationStats) reports a
    /// cache for the queried aggregate; the executor never runs this
    /// choice itself — the store's query layer serves it.
    CachedSeries,
    /// Sweep-based interval join: co-sort both relations' endpoint events
    /// and enumerate the other side's live set at each admit (`JOIN ...
    /// ON OVERLAPS` and the Allen predicates). Only produced by
    /// [`crate::plan_join`] — joins have no competing operator yet — and
    /// executed by the SQL layer, never by the single-relation executor.
    SweepJoin,
    /// Probe the store's implicit segment-tree window index over the
    /// cached series: `O(log runs)` per windowed aggregate instead of a
    /// linear pass. Only a candidate for *window* queries
    /// ([`crate::choose_window_algorithm`]) when
    /// [`RelationStats::cached_series`](crate::RelationStats) reports a
    /// warm cache; the executor never runs this choice itself — the
    /// store's query layer serves it.
    IndexProbe,
    /// `presort`: sort the relation by time first (k is then 1).
    KOrderedTree {
        k: usize,
        presort: bool,
    },
}

impl AlgorithmChoice {
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmChoice::LinkedList => "linked-list",
            AlgorithmChoice::AggregationTree => "aggregation-tree",
            AlgorithmChoice::Sweep => "endpoint-sweep",
            AlgorithmChoice::CachedSeries => "cached-series",
            AlgorithmChoice::SweepJoin => "sweep-join",
            AlgorithmChoice::IndexProbe => "index-probe",
            AlgorithmChoice::KOrderedTree { presort: true, .. } => "sort + k-ordered-tree",
            AlgorithmChoice::KOrderedTree { presort: false, .. } => "k-ordered-tree",
        }
    }
}

/// Cost-model knobs (Section 6.3 phrases them as "the tradeoff between the
/// cost of increased memory requirements and the cost of disk access").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannerConfig {
    /// Hard cap on algorithm state; `None` = unconstrained.
    pub memory_budget_bytes: Option<usize>,
    /// `true` when memory is considered cheaper than the disk I/O a sort
    /// would cost ("If memory is cheaper than disk I/O, then the
    /// aggregation tree is the best approach").
    pub memory_cheaper_than_io: bool,
    /// Result sizes at or below this favour the linked list.
    pub small_result_threshold: usize,
    /// Measured k values above `tuple_count / this` are treated as
    /// effectively unordered (a huge window would buy nothing).
    pub k_usefulness_divisor: usize,
    /// Degree of parallelism a plan may prescribe: `None` asks the machine
    /// ([`tempagg_algo::parallel::machine_threads`]), `Some(1)` forces a
    /// serial plan, `Some(p)` allows up to `p` workers — domain partitions
    /// for the push-time algorithms (the sweep and the join run serially).
    pub parallelism: Option<usize>,
    /// Relations smaller than this stay serial regardless of
    /// [`parallelism`](Self::parallelism) being available: partition setup
    /// and seam stitching cost more than they save on small inputs.
    pub parallel_min_tuples: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            memory_budget_bytes: None,
            memory_cheaper_than_io: true,
            small_result_threshold: 64,
            k_usefulness_divisor: 8,
            parallelism: None,
            parallel_min_tuples: 8192,
        }
    }
}

/// The degree of parallelism a plan should prescribe: the configured (or
/// machine-reported) worker count, except that small relations stay serial
/// (`1`). The cost-based planner treats it as an upper bound and splits
/// each candidate only as far as its partition overhead pays.
pub fn choose_parallelism(stats: &RelationStats, config: &PlannerConfig) -> usize {
    let available = config.parallelism.unwrap_or_else(machine_threads);
    if available <= 1 || stats.tuple_count < config.parallel_min_tuples {
        1
    } else {
        available
    }
}

/// A chosen algorithm plus the estimates and reasoning behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub choice: AlgorithmChoice,
    /// Workers to run on (1 = serial execution): domain partitions for the
    /// list and the trees; always 1 for the sweep and the join.
    pub parallelism: usize,
    /// Estimated peak state bytes under the paper's 16-byte-node model.
    pub estimated_state_bytes: usize,
    /// Human-readable EXPLAIN lines.
    pub rationale: Vec<String>,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "algorithm: {}", self.choice.name())?;
        if let AlgorithmChoice::KOrderedTree { k, presort } = self.choice {
            writeln!(f, "  k = {k}, presort = {presort}")?;
        }
        if self.parallelism > 1 {
            writeln!(f, "  parallelism = {}", self.parallelism)?;
        }
        writeln!(f, "  estimated state: {} bytes", self.estimated_state_bytes)?;
        for line in &self.rationale {
            writeln!(f, "  - {line}")?;
        }
        Ok(())
    }
}

/// Estimated peak nodes for the aggregation tree: one initial node plus
/// two per unique timestamp (Section 5.1 / Figure 2's counting argument).
pub fn estimate_tree_nodes(stats: &RelationStats) -> usize {
    2 * stats.unique_timestamps_or_default() + 1
}

/// Estimated peak nodes for the k-ordered tree: the 2k+1-tuple window's
/// worth of splits, inflated by the long-lived fraction (whose end-time
/// nodes linger — Section 6.2).
pub fn estimate_ktree_nodes(stats: &RelationStats, k: usize) -> usize {
    let window_nodes = 4 * (2 * k + 1) + 1;
    let long_lived_extra = (stats.long_lived_fraction * stats.tuple_count as f64) as usize * 2;
    window_nodes + long_lived_extra
}

/// Estimated cells for the linked list: one per unique timestamp plus one.
pub fn estimate_list_cells(stats: &RelationStats) -> usize {
    stats.unique_timestamps_or_default() + 1
}

/// Choose an algorithm for computing one instant-grouped temporal
/// aggregate over a relation with the given statistics.
///
/// `state_model_bytes` is the aggregate's per-node state size
/// (`Aggregate::state_model_bytes`, 4 for `COUNT`).
///
/// ```
/// use tempagg_plan::{plan, AlgorithmChoice, OrderingKnowledge, PlannerConfig, RelationStats};
///
/// let stats = RelationStats::unknown(64_000).with_ordering(OrderingKnowledge::Sorted);
/// let chosen = plan(&stats, &PlannerConfig::default(), 4);
/// assert_eq!(chosen.choice, AlgorithmChoice::KOrderedTree { k: 1, presort: false });
/// ```
pub fn plan(stats: &RelationStats, config: &PlannerConfig, state_model_bytes: usize) -> Plan {
    let node_bytes = model_node_bytes(state_model_bytes);
    let mut rationale = Vec::new();
    let parallelism = choose_parallelism(stats, config);
    if parallelism > 1 {
        rationale.push(format!(
            "{} tuples ≥ the parallel threshold of {}: partition the domain \
             {parallelism} ways and stitch at the seams",
            stats.tuple_count, config.parallel_min_tuples
        ));
    }

    // Rule 1: tiny results → linked list.
    if let Some(result_n) = stats.expected_result_intervals {
        if result_n <= config.small_result_threshold {
            rationale.push(format!(
                "expected result has only {result_n} constant intervals (≤ {}): \
                 the linked list's head scan is cheap and its state minimal",
                config.small_result_threshold
            ));
            return Plan {
                parallelism,
                choice: AlgorithmChoice::LinkedList,
                estimated_state_bytes: (result_n + 1) * node_bytes,
                rationale,
            };
        }
    }

    // Rules 2–4: exploit ordering.
    match stats.ordering {
        OrderingKnowledge::Sorted => {
            rationale.push(
                "relation is sorted by time: k-ordered aggregation tree with k = 1 \
                 gives one-pass evaluation with a constant-size window"
                    .into(),
            );
            return Plan {
                parallelism,
                choice: AlgorithmChoice::KOrderedTree {
                    k: 1,
                    presort: false,
                },
                estimated_state_bytes: estimate_ktree_nodes(stats, 1) * node_bytes,
                rationale,
            };
        }
        OrderingKnowledge::RetroactivelyBounded { equivalent_k } => {
            rationale.push(format!(
                "relation is declared retroactively bounded (equivalent k = {equivalent_k}): \
                 k-ordered aggregation tree applies directly, no sorting required"
            ));
            return Plan {
                parallelism,
                choice: AlgorithmChoice::KOrderedTree {
                    k: equivalent_k.max(1),
                    presort: false,
                },
                estimated_state_bytes: estimate_ktree_nodes(stats, equivalent_k.max(1))
                    * node_bytes,
                rationale,
            };
        }
        OrderingKnowledge::KOrdered { k }
            if k <= stats.tuple_count / config.k_usefulness_divisor.max(1) =>
        {
            rationale.push(format!(
                "relation is k-ordered with k = {k}: k-ordered aggregation tree \
                 garbage-collects everything outside a 2k+1 window"
            ));
            return Plan {
                parallelism,
                choice: AlgorithmChoice::KOrderedTree {
                    k: k.max(1),
                    presort: false,
                },
                estimated_state_bytes: estimate_ktree_nodes(stats, k.max(1)) * node_bytes,
                rationale,
            };
        }
        OrderingKnowledge::KOrdered { k } => {
            rationale.push(format!(
                "measured k = {k} is too large a fraction of n = {} to help",
                stats.tuple_count
            ));
        }
        OrderingKnowledge::Unordered | OrderingKnowledge::Unknown => {}
    }

    // Rule 5: unordered. Aggregation tree if memory allows and is cheap;
    // otherwise sort first and stream with k = 1.
    let tree_bytes = estimate_tree_nodes(stats) * node_bytes;
    let fits = config
        .memory_budget_bytes
        .map_or(true, |budget| tree_bytes <= budget);
    if fits && config.memory_cheaper_than_io {
        rationale.push(format!(
            "relation is unordered and the aggregation tree's estimated {tree_bytes} bytes \
             fit the budget: random insertion order keeps the tree balanced"
        ));
        Plan {
            parallelism,
            choice: AlgorithmChoice::AggregationTree,
            estimated_state_bytes: tree_bytes,
            rationale,
        }
    } else {
        if !fits {
            rationale.push(format!(
                "aggregation tree needs ~{tree_bytes} bytes, over the budget of {} bytes",
                config.memory_budget_bytes.unwrap_or(0)
            ));
        }
        if !config.memory_cheaper_than_io {
            rationale.push("disk I/O for a sort is configured cheaper than memory".into());
        }
        rationale.push(
            "sort the relation, then k-ordered aggregation tree with k = 1 \
             (the paper's 'simplest strategy')"
                .into(),
        );
        Plan {
            parallelism,
            choice: AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true,
            },
            estimated_state_bytes: estimate_ktree_nodes(stats, 1) * node_bytes,
            rationale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{OrderingKnowledge, RelationStats};

    fn stats(n: usize, ordering: OrderingKnowledge) -> RelationStats {
        RelationStats::unknown(n).with_ordering(ordering)
    }

    #[test]
    fn sorted_relation_gets_k1_tree() {
        let p = plan(
            &stats(10_000, OrderingKnowledge::Sorted),
            &PlannerConfig::default(),
            4,
        );
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false
            }
        );
        assert!(p.estimated_state_bytes < 1024);
    }

    #[test]
    fn retro_bounded_avoids_sorting() {
        let p = plan(
            &stats(
                10_000,
                OrderingKnowledge::RetroactivelyBounded { equivalent_k: 16 },
            ),
            &PlannerConfig::default(),
            4,
        );
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 16,
                presort: false
            }
        );
        // Not `rationale[0]`: on a multi-core host a parallelism line
        // comes first.
        assert!(p
            .rationale
            .iter()
            .any(|line| line.contains("no sorting required")));
    }

    #[test]
    fn small_k_ordered_uses_ktree() {
        let p = plan(
            &stats(10_000, OrderingKnowledge::KOrdered { k: 40 }),
            &PlannerConfig::default(),
            4,
        );
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 40,
                presort: false
            }
        );
    }

    #[test]
    fn huge_k_falls_back_to_unordered_handling() {
        let p = plan(
            &stats(1_000, OrderingKnowledge::KOrdered { k: 900 }),
            &PlannerConfig::default(),
            4,
        );
        assert_eq!(p.choice, AlgorithmChoice::AggregationTree);
    }

    #[test]
    fn unordered_with_memory_uses_tree() {
        let p = plan(
            &stats(10_000, OrderingKnowledge::Unordered),
            &PlannerConfig::default(),
            4,
        );
        assert_eq!(p.choice, AlgorithmChoice::AggregationTree);
        // 2·(2n)+1 nodes × 16 bytes.
        assert_eq!(p.estimated_state_bytes, (2 * 20_000 + 1) * 16);
    }

    #[test]
    fn unordered_with_tight_budget_sorts_first() {
        let config = PlannerConfig {
            memory_budget_bytes: Some(10_000),
            ..Default::default()
        };
        let p = plan(&stats(10_000, OrderingKnowledge::Unordered), &config, 4);
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true
            }
        );
        assert!(p.rationale.iter().any(|r| r.contains("over the budget")));
    }

    #[test]
    fn expensive_memory_sorts_first() {
        let config = PlannerConfig {
            memory_cheaper_than_io: false,
            ..Default::default()
        };
        let p = plan(&stats(10_000, OrderingKnowledge::Unknown), &config, 4);
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true
            }
        );
    }

    #[test]
    fn tiny_result_prefers_linked_list() {
        let s = stats(1_000_000, OrderingKnowledge::Unordered).with_expected_result_intervals(12);
        let p = plan(&s, &PlannerConfig::default(), 4);
        assert_eq!(p.choice, AlgorithmChoice::LinkedList);
    }

    #[test]
    fn tiny_result_beats_sortedness_rules() {
        let s = stats(1_000_000, OrderingKnowledge::Sorted).with_expected_result_intervals(12);
        let p = plan(&s, &PlannerConfig::default(), 4);
        assert_eq!(p.choice, AlgorithmChoice::LinkedList);
    }

    #[test]
    fn explain_output_is_readable() {
        let p = plan(
            &stats(10_000, OrderingKnowledge::Sorted),
            &PlannerConfig::default(),
            4,
        );
        let text = p.to_string();
        assert!(text.contains("algorithm: k-ordered-tree"));
        assert!(text.contains("k = 1"));
        assert!(text.contains("estimated state"));
    }

    #[test]
    fn estimators_scale_sensibly() {
        let small = stats(1_000, OrderingKnowledge::Unordered);
        let large = stats(64_000, OrderingKnowledge::Unordered);
        assert!(estimate_tree_nodes(&large) > estimate_tree_nodes(&small));
        assert!(estimate_list_cells(&large) > estimate_list_cells(&small));
        // k-tree estimate grows with k but not with n (short-lived case).
        assert_eq!(
            estimate_ktree_nodes(&small, 1),
            estimate_ktree_nodes(&large, 1)
        );
        assert!(estimate_ktree_nodes(&small, 100) > estimate_ktree_nodes(&small, 1));
        // Long-lived tuples inflate the k-tree estimate.
        let mut ll = small;
        ll.long_lived_fraction = 0.8;
        assert!(estimate_ktree_nodes(&ll, 1) > estimate_ktree_nodes(&small, 1));
    }
}
