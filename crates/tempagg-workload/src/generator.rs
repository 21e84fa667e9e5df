//! Synthetic relation generation reproducing Section 6.
//!
//! "We generated the starting position of our tuples independently, so our
//! relations had many unique timestamps. … short-lived lifespan tuples are
//! tuples whose lifespan is a random length from 1 to 1000 instants. …
//! long-lived lifespan tuples have duration equal to a random length
//! between 20% and 80% of the relation's lifespan. … Generated tuples that
//! extend past beyond the relation's lifespan were discarded."

use crate::config::{TupleOrder, WorkloadConfig};
use crate::perturb;
use crate::rng::StdRng;
use std::sync::Arc;
use tempagg_core::{Interval, Schema, TemporalRelation, Value, ValueType};

/// Pool of first names for the `name` attribute, seeded with the paper's
/// cast.
const NAMES: &[&str] = &[
    "Richard", "Karen", "Nathan", "Mike", "Suchen", "Curtis", "Sampath", "Andrey", "Nick", "Ilsoo",
];

/// The schema of generated relations; matches the paper's test relation
/// ("name (6 bytes), salary (4 bytes), start-time, stop-time") with an
/// optional `padding` column standing in for the 110 unexamined bytes.
pub fn workload_schema(with_padding: bool) -> Arc<Schema> {
    if with_padding {
        Schema::of(&[
            ("name", ValueType::Str),
            ("salary", ValueType::Int),
            ("padding", ValueType::Str),
        ])
    } else {
        Schema::of(&[("name", ValueType::Str), ("salary", ValueType::Int)])
    }
}

/// Generate one valid-time interval per the paper's rules.
fn generate_interval(rng: &mut StdRng, config: &WorkloadConfig, long_lived: bool) -> Interval {
    let lifespan = config.lifespan;
    loop {
        let start = rng.random_range(0..lifespan);
        let length = if long_lived {
            // lint: allow(no-raw-i64-arith): long_length_frac is an (f64, f64) fraction pair, not a timestamp
            let lo = (config.long_length_frac.0 * lifespan as f64) as i64;
            let hi = (config.long_length_frac.1 * lifespan as f64) as i64;
            rng.random_range(lo..=hi.max(lo))
        } else {
            rng.random_range(config.short_length.0..=config.short_length.1)
        };
        let end = start + length - 1;
        // Discard tuples extending past the relation's lifespan, as the
        // paper does (rather than clamping, which would skew the
        // distribution of end times).
        if end < lifespan {
            // lint: allow(no-unwrap): end = start + (length - 1) with length >= 1, so the bounds are ordered
            return Interval::new(start, end).expect("length >= 1");
        }
    }
}

/// Generate a relation per the configuration. Deterministic in
/// `config.seed`.
///
/// # Panics
/// Panics if the configuration fails [`WorkloadConfig::validate`].
pub fn generate(config: &WorkloadConfig) -> TemporalRelation {
    config
        .validate()
        // lint: allow(no-unwrap): generate is the documented panicking front end; fallible callers use validate()
        .unwrap_or_else(|e| panic!("invalid workload config: {e}"));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = workload_schema(config.payload_bytes > 0);
    let mut relation = TemporalRelation::with_capacity(schema, config.tuples);
    let long_fraction = config.long_lived_pct as f64 / 100.0;

    for i in 0..config.tuples {
        let long_lived = rng.random_bool(long_fraction);
        let interval = generate_interval(&mut rng, config, long_lived);
        let name = NAMES[i % NAMES.len()];
        let salary = rng.random_range(20_000i64..=100_000);
        let mut values = vec![Value::from(name), Value::Int(salary)];
        if config.payload_bytes > 0 {
            values.push(Value::from("x".repeat(config.payload_bytes)));
        }
        relation
            .push(values, interval)
            // lint: allow(no-unwrap): the generator builds each row from the schema it just constructed
            .expect("generated tuples match the schema");
    }

    match config.order {
        TupleOrder::Random => {
            // Independent uniform starts already give a randomly ordered
            // relation; nothing to do.
        }
        TupleOrder::Sorted => relation.sort_by_time(),
        TupleOrder::KOrdered { k, percentage } => {
            relation.sort_by_time();
            perturb::make_k_ordered(&mut relation, k, percentage, config.seed ^ 0x9E37_79B9);
        }
        TupleOrder::RetroactivelyBounded { max_delay } => {
            perturb::order_by_bounded_arrival(&mut relation, max_delay, config.seed ^ 0x517C_C1B7);
        }
    }
    relation
}

/// Project a relation to `(interval, salary)` pairs — the form the
/// algorithm layer consumes for numeric aggregates.
pub fn salary_stream(relation: &TemporalRelation) -> Vec<(Interval, i64)> {
    let idx = relation
        .schema()
        .index_of("salary")
        // lint: allow(no-unwrap): every generator schema includes a salary column
        .expect("workload relations have a salary column");
    relation
        .iter()
        .map(|t| {
            (
                t.valid(),
                // lint: allow(no-unwrap): generated salaries are always Value::Int
                t.value(idx).as_i64().expect("salary is an integer"),
            )
        })
        .collect()
}

/// Project a relation to `(interval, ())` pairs for `COUNT`.
pub fn count_stream(relation: &TemporalRelation) -> Vec<(Interval, ())> {
    relation.intervals().map(|iv| (iv, ())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_core::sortedness;

    #[test]
    fn deterministic_in_seed() {
        let c = WorkloadConfig::random(256);
        assert_eq!(generate(&c), generate(&c));
        let other = generate(&c.clone().with_seed(1));
        assert_ne!(generate(&c), other);
    }

    #[test]
    fn respects_lifespan_and_lengths() {
        let c = WorkloadConfig::random(2000);
        let r = generate(&c);
        assert_eq!(r.len(), 2000);
        for iv in r.intervals() {
            assert!(iv.start().get() >= 0);
            assert!(iv.end().get() < c.lifespan);
            let d = iv.duration();
            assert!((1..=1000).contains(&d), "short tuple duration {d}");
        }
    }

    #[test]
    fn long_lived_tuples_have_long_durations() {
        let c = WorkloadConfig::random(500).with_long_lived_pct(100);
        let r = generate(&c);
        for iv in r.intervals() {
            let d = iv.duration();
            assert!(
                (200_000..=800_000).contains(&d),
                "long tuple duration {d} outside 20–80% of lifespan"
            );
        }
    }

    #[test]
    fn mixed_long_lived_fraction_is_plausible() {
        let c = WorkloadConfig::random(4000).with_long_lived_pct(40);
        let r = generate(&c);
        let long = r.intervals().filter(|iv| iv.duration() > 1000).count();
        let frac = long as f64 / r.len() as f64;
        assert!((0.3..0.5).contains(&frac), "long-lived fraction {frac}");
    }

    #[test]
    fn sorted_order_is_sorted() {
        let r = generate(&WorkloadConfig::sorted(1000));
        let ivs: Vec<Interval> = r.intervals().collect();
        assert!(sortedness::is_time_ordered(&ivs));
    }

    #[test]
    fn random_order_is_not_sorted() {
        let r = generate(&WorkloadConfig::random(1000));
        let ivs: Vec<Interval> = r.intervals().collect();
        assert!(!sortedness::is_time_ordered(&ivs));
        // Random order means large displacements.
        assert!(sortedness::k_order(&ivs) > 100);
    }

    #[test]
    fn k_ordered_output_respects_k_and_percentage() {
        let k = 40;
        let target = 0.08;
        let r = generate(&WorkloadConfig::k_ordered(4096, k, target));
        let ivs: Vec<Interval> = r.intervals().collect();
        let observed_k = sortedness::k_order(&ivs);
        assert!(
            observed_k <= k,
            "k_order {observed_k} exceeds requested {k}"
        );
        let pct = sortedness::k_ordered_percentage(&ivs, k);
        assert!(
            (pct - target).abs() < 0.02,
            "k-ordered-percentage {pct} far from target {target}"
        );
    }

    #[test]
    fn retro_bounded_is_nearly_sorted() {
        let c = WorkloadConfig {
            tuples: 2000,
            order: TupleOrder::RetroactivelyBounded { max_delay: 500 },
            ..Default::default()
        };
        let r = generate(&c);
        let ivs: Vec<Interval> = r.intervals().collect();
        let k = sortedness::k_order(&ivs);
        // With a delay of 500 instants over a 1M-instant lifespan and 2000
        // tuples, expected displacement is ~ n·d/L = 1; allow slack.
        assert!(k < 64, "retro-bounded k_order {k} unexpectedly large");
    }

    #[test]
    fn unique_timestamps_dominate() {
        // "our relations had many unique timestamps".
        let r = generate(&WorkloadConfig::random(4096));
        let mut starts: Vec<i64> = r.intervals().map(|iv| iv.start().get()).collect();
        starts.sort_unstable();
        starts.dedup();
        assert!(starts.len() > 4000, "only {} unique starts", starts.len());
    }

    #[test]
    fn payload_and_projections() {
        let r = generate(&WorkloadConfig::random(16).with_payload_bytes(110));
        assert_eq!(r.schema().len(), 3);
        assert_eq!(r.tuples()[0].value(2).as_str().unwrap().len(), 110);
        let s = salary_stream(&r);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|&(_, v)| (20_000..=100_000).contains(&v)));
        assert_eq!(count_stream(&r).len(), 16);
    }
}
