//! Cross-crate tests for the extension systems: temporal algebra feeding
//! aggregation, event-window aggregation, on-disk scans, the paged tree,
//! and the cost-based planner.

use temporal_aggregates::algo::moving::{moving_aggregate, WindowAlignment};
use temporal_aggregates::algo::oracle::oracle;
use temporal_aggregates::core::{algebra, BitemporalRelation, EventRelation};
use temporal_aggregates::planner::{choose_algorithm, CostModel};
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::employed::employed_relation;
use temporal_aggregates::workload::{generate, storage, WorkloadConfig};
use temporal_aggregates::{Schema, SweepClass, ValueType};

#[test]
fn algebra_pipeline_feeds_aggregation() {
    // departments ⋈ employed → select Research → COUNT per instant.
    let employed = employed_relation();
    let schema = Schema::of(&[("emp", ValueType::Str), ("dept", ValueType::Str)]);
    let mut departments = TemporalRelation::new(schema);
    for (n, d) in [
        ("Richard", "Research"),
        ("Karen", "Research"),
        ("Nathan", "Engineering"),
    ] {
        departments
            .push(vec![Value::from(n), Value::from(d)], Interval::TIMELINE)
            .unwrap();
    }
    let joined = algebra::join(&employed, &departments, &[("name", "emp")]).unwrap();
    let research = algebra::select(&joined, |t| t.value(2) == &Value::from("Research"));

    let mut tree = AggregationTree::new(Count);
    for t in &research {
        tree.push(t.valid(), ()).unwrap();
    }
    let series = tree.finish();
    // Research head count: Karen [8,20], Richard [18,∞].
    assert_eq!(series.value_at(Timestamp(10)), Some(&1));
    assert_eq!(series.value_at(Timestamp(19)), Some(&2));
    assert_eq!(series.value_at(Timestamp(30)), Some(&1));
    assert_eq!(series.value_at(Timestamp(0)), Some(&0));
}

#[test]
fn timeslice_equals_series_value_at() {
    let relation = generate(&WorkloadConfig::random(300).with_seed(4));
    let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
    let series =
        temporal_aggregates::run(AggregationTree::new(Count), tuples.iter().copied()).unwrap();
    for t in [0i64, 1_000, 250_000, 999_999] {
        let slice = algebra::timeslice(&relation, Timestamp(t));
        assert_eq!(
            series.value_at(Timestamp(t)).copied().unwrap(),
            slice.len() as u64,
            "instant {t}"
        );
    }
}

#[test]
fn union_difference_inverse_on_disjoint_windows() {
    let base = generate(&WorkloadConfig::random(100).with_seed(1));
    let early = algebra::window(&base, Interval::at(0, 400_000));
    let late = algebra::window(&base, Interval::at(400_001, 999_999));
    let both = algebra::union(&early, &late).unwrap();
    let minus_late = algebra::difference(&both, &late).unwrap();
    // Removing the late window leaves exactly the early tuples (coalesced
    // forms compared instant-by-instant via aggregation).
    let series_a = temporal_aggregates::run(
        AggregationTree::new(Count),
        minus_late.intervals().map(|iv| (iv, ())),
    )
    .unwrap();
    let series_b = temporal_aggregates::run(
        AggregationTree::new(Count),
        algebra::window(
            &algebra::union(&early, &early).unwrap(),
            Interval::at(0, 400_000),
        )
        .intervals()
        .map(|iv| (iv, ())),
    )
    .unwrap();
    assert_eq!(series_a, series_b);
}

#[test]
fn event_relation_moving_window_matches_oracle() {
    let schema = Schema::of(&[("sensor", ValueType::Int)]);
    let mut events = EventRelation::new(schema);
    for t in [3i64, 5, 5, 9, 14, 20, 21, 40] {
        events.push(vec![Value::Int(1)], t).unwrap();
    }
    // Via EventRelation::to_intervals + any algorithm...
    let as_intervals = events.to_intervals(5, WindowAlignment::Trailing).unwrap();
    let tuples: Vec<(Interval, ())> = as_intervals.intervals().map(|iv| (iv, ())).collect();
    let expected = oracle(&Count, Interval::TIMELINE, &tuples);
    // ...equals the moving_aggregate convenience.
    let pairs: Vec<(Timestamp, ())> = events.instants().map(|t| (t, ())).collect();
    let got = moving_aggregate(Count, &pairs, 5, WindowAlignment::Trailing).unwrap();
    assert_eq!(got, expected);
}

#[test]
fn storage_scan_feeds_every_algorithm_identically() {
    let relation = generate(&WorkloadConfig::sorted(400).with_seed(6));
    let mut path = std::env::temp_dir();
    path.push(format!("tempagg-ext-test-{}.rel", std::process::id()));
    storage::write_relation(&relation, &path).unwrap();

    let from_disk: Vec<(Interval, ())> = storage::Scan::open(&path)
        .unwrap()
        .map(|t| (t.unwrap().valid(), ()))
        .collect();
    let in_memory: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
    assert_eq!(from_disk, in_memory);

    // Page-shuffled scan → aggregation tree equals sorted scan → k-tree.
    let shuffled: Vec<(Interval, ())> = storage::scan_with_page_shuffle(&path, 1, 9)
        .unwrap()
        .map(|t| (t.unwrap().valid(), ()))
        .collect();
    let via_tree =
        temporal_aggregates::run(AggregationTree::new(Count), shuffled.iter().copied()).unwrap();
    let via_ktree = temporal_aggregates::run(
        KOrderedAggregationTree::new(Count, 1).unwrap(),
        in_memory.iter().copied(),
    )
    .unwrap();
    assert_eq!(via_tree, via_ktree);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn paged_tree_agrees_with_plain_tree_on_workloads() {
    let relation = generate(&WorkloadConfig::random(600).with_seed(11));
    let domain = Interval::at(0, 999_999);
    let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
    let plain = temporal_aggregates::run(
        AggregationTree::with_domain(Count, domain),
        tuples.iter().copied(),
    )
    .unwrap();
    for regions in [3usize, 10, 57] {
        let paged = temporal_aggregates::run(
            PagedAggregationTree::new(Count, domain, regions).unwrap(),
            tuples.iter().copied(),
        )
        .unwrap();
        assert_eq!(paged, plain, "regions = {regions}");
    }
}

#[test]
fn cost_planner_and_rule_planner_agree_on_generated_workloads() {
    for (config, label) in [
        (WorkloadConfig::random(2_000), "random"),
        (WorkloadConfig::sorted(2_000), "sorted"),
        (WorkloadConfig::k_ordered(2_000, 16, 0.08), "k-ordered"),
    ] {
        let relation = generate(&config);
        let stats = RelationStats::analyze(&relation);
        let rule = plan(&stats, &PlannerConfig::default(), 4).choice;
        // An approximate aggregate never sweeps: the paper's candidates only.
        let cost = choose_algorithm(
            &stats,
            SweepClass::Approximate,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        )
        .choice;
        assert_eq!(rule, cost, "workload {label}");
    }
}

#[test]
fn weighted_series_composes_with_aggregation() {
    // Average head count over the first 30 instants of Employed, weighted
    // by duration: sums instants of employment / 30.
    let tuples: Vec<(Interval, ())> = employed_relation()
        .intervals()
        .filter_map(|iv| iv.intersect(&Interval::at(0, 29)))
        .map(|iv| (iv, ()))
        .collect();
    let series = temporal_aggregates::run(
        AggregationTree::with_domain(Count, Interval::at(0, 29)),
        tuples,
    )
    .unwrap();
    let window = Interval::at(0, 29);
    let total_instants = series.weighted_integral(window, |&c| Some(c as f64));
    // Karen 8..=20 (13) + Nathan 7..=12 (6) + Richard 18..=29 (12) +
    // Nathan 18..=21 (4) = 35 tuple-instants.
    assert_eq!(total_instants, 35.0);
    let mean = series
        .time_weighted_mean(window, |&c| Some(c as f64))
        .unwrap();
    assert!((mean - 35.0 / 30.0).abs() < 1e-12);
}

#[test]
fn aggregate_as_of_transaction_time() {
    // Build the Employed relation bitemporally: facts recorded shortly
    // after they become valid, with one retroactive correction.
    let schema = Schema::of(&[("name", ValueType::Str), ("salary", ValueType::Int)]);
    let mut db = BitemporalRelation::new(schema);
    db.insert(
        vec![Value::from("Nathan"), Value::Int(35_000)],
        Interval::at(7, 12),
        8,
    )
    .unwrap();
    db.insert(
        vec![Value::from("Karen"), Value::Int(45_000)],
        Interval::at(8, 20),
        9,
    )
    .unwrap();
    db.insert(
        vec![Value::from("Richard"), Value::Int(40_000)],
        Interval::from_start(18),
        19,
    )
    .unwrap();
    db.insert(
        vec![Value::from("Nathan"), Value::Int(37_000)],
        Interval::at(18, 21),
        19,
    )
    .unwrap();
    // Later it turns out Karen left at 15, not 20.
    db.update_where(
        30,
        |v| v.values()[0] == Value::from("Karen"),
        vec![Value::from("Karen"), Value::Int(45_000)],
        Interval::at(8, 15),
    )
    .unwrap();

    let count_as_of = |tt: i64| {
        let relation = db.as_of(tt);
        let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
        temporal_aggregates::run(AggregationTree::new(Count), tuples).unwrap()
    };

    // As believed at tt = 25 (before the correction): Table 1 exactly.
    let believed = count_as_of(25);
    assert_eq!(believed.value_at(Timestamp(19)), Some(&3));
    assert_eq!(believed.value_at(Timestamp(16)), Some(&1));
    // After the correction, instant 19 has one fewer employee (Karen gone
    // from [16, 20]).
    let corrected = count_as_of(100);
    assert_eq!(corrected.value_at(Timestamp(19)), Some(&2));
    assert_eq!(corrected.value_at(Timestamp(10)), Some(&2));
    // As of before any writes: empty timeline.
    assert_eq!(count_as_of(0).value_at(Timestamp(19)), Some(&0));
}

#[test]
fn transaction_order_feeds_the_ktree() {
    // Versions in transaction order form a retroactively bounded stream;
    // measure its k-order and run the k-ordered tree without sorting.
    let schema = Schema::of(&[("x", ValueType::Int)]);
    let mut db = BitemporalRelation::new(schema);
    for i in 0..500i64 {
        // Valid time roughly tracks transaction time with a bounded lag.
        let valid_start = i * 10 - (i % 7) * 3;
        db.insert(
            vec![Value::Int(i)],
            Interval::at(valid_start.max(0), valid_start.max(0) + 25),
            1_000 + i,
        )
        .unwrap();
    }
    let ordered: Vec<Interval> = db
        .by_transaction_order()
        .iter()
        .map(|v| v.valid())
        .collect();
    let k = temporal_aggregates::sortedness::k_order(&ordered).max(1);
    assert!(k < 16, "bounded lag must give small k, got {k}");

    let via_ktree = temporal_aggregates::run(
        KOrderedAggregationTree::new(Count, k).unwrap(),
        ordered.iter().map(|&iv| (iv, ())),
    )
    .unwrap();
    let via_tree = temporal_aggregates::run(
        AggregationTree::new(Count),
        ordered.iter().map(|&iv| (iv, ())),
    )
    .unwrap();
    assert_eq!(via_ktree, via_tree);
}
