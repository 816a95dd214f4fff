//! The four evaluation data sets of Table I, as seeded generators.
//!
//! | Data set       | Size   | #Dims | #Targets | facts/subset (§VIII-B) |
//! |----------------|--------|-------|----------|------------------------|
//! | ACS NY         | 2 MB   | 3     | 6        | 764                    |
//! | Stack Overflow | 197 MB | 7     | 6        | 3,700                  |
//! | Flights        | 565 MB | 6     | 1        | 1,300                  |
//! | Primaries      | 6 MB   | 5     | 1        | —                      |
//!
//! Dimension cardinalities are chosen so the full-data candidate-fact
//! counts land near the paper's numbers (exact counts are asserted in the
//! tests); row counts are laptop-scale by default — the generators take a
//! scale factor, and EXPERIMENTS.md records the deltas to the paper.

use crate::synth::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};

/// Default seed for all scenario data sets.
pub const DEFAULT_SEED: u64 = 0x1CDE_2021;

/// The eight scenario–target pairs of Fig. 3, in plot order.
pub const FIG3_SCENARIOS: [(&str, &str); 8] = [
    ("F-C", "cancelled"),
    ("F-D", "delay"),
    ("A-H", "hearing"),
    ("A-V", "visual"),
    ("A-C", "cognitive"),
    ("S-C", "competence"),
    ("S-O", "optimism"),
    ("S-S", "job_satisfaction"),
];

/// ACS New York disability extract: 3 dimensions, 6 prevalence targets
/// (per 1000 persons).
pub fn acs_spec() -> SynthSpec {
    SynthSpec {
        name: "ACS NY".to_string(),
        dims: vec![
            DimSpec::named(
                "borough",
                &["Brooklyn", "Manhattan", "Queens", "St. Island", "Bronx"],
            ),
            DimSpec {
                name: "age_group".to_string(),
                values: vec![
                    "0-9", "10-19", "20-29", "30-39", "40-49", "50-59", "60-69", "70-79", "80+",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                skew: 0.3,
            },
            DimSpec::synthetic("puma", "area", 45, 0.4),
        ],
        targets: {
            // Disability prevalence is dominated by age, with a modest
            // borough effect and little fine-grained (PUMA) signal.
            let weights = [0.35, 1.0, 0.08];
            vec![
                TargetSpec::new("hearing", 35.0, 18.0, 6.0, (0.0, 1000.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("visual", 30.0, 16.0, 6.0, (0.0, 1000.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("cognitive", 45.0, 20.0, 8.0, (0.0, 1000.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("ambulatory", 55.0, 25.0, 8.0, (0.0, 1000.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("selfcare", 22.0, 10.0, 5.0, (0.0, 1000.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("independent_living", 40.0, 18.0, 7.0, (0.0, 1000.0))
                    .with_dim_weights(&weights),
            ]
        },
        rows: 8_000,
    }
}

/// Stack Overflow 2019 developer survey: 7 dimensions, 6 attitude/score
/// targets on a 0–10 scale.
pub fn stackoverflow_spec() -> SynthSpec {
    SynthSpec {
        name: "Stack Overflow".to_string(),
        dims: vec![
            DimSpec::synthetic("country", "country", 40, 0.9),
            DimSpec::synthetic("language", "lang", 25, 0.7),
            DimSpec::synthetic("dev_type", "dev", 10, 0.5),
            DimSpec::named(
                "ed_level",
                &[
                    "None",
                    "Primary",
                    "Secondary",
                    "Associate",
                    "Bachelor",
                    "Master",
                    "Doctoral",
                    "Professional",
                ],
            ),
            DimSpec::synthetic("org_size", "org", 9, 0.4),
            DimSpec::named(
                "age_bracket",
                &["<20", "20-24", "25-29", "30-34", "35-44", "45-54", "55+"],
            ),
            DimSpec::named("gender", &["man", "woman", "non-binary", "undisclosed"]),
        ],
        targets: {
            // Attitude scores are driven mostly by country and dev type;
            // the long-tail dimensions carry little signal.
            let weights = [1.0, 0.15, 0.6, 0.2, 0.25, 0.3, 0.1];
            vec![
                TargetSpec::new("competence", 6.5, 1.2, 0.8, (0.0, 10.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("optimism", 6.0, 1.5, 0.9, (0.0, 10.0)).with_dim_weights(&weights),
                TargetSpec::new("job_satisfaction", 6.8, 1.4, 1.0, (0.0, 10.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("career_satisfaction", 7.0, 1.3, 0.9, (0.0, 10.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("work_hours", 42.0, 4.0, 3.0, (10.0, 80.0))
                    .with_dim_weights(&weights),
                TargetSpec::new("years_coding", 9.0, 3.0, 2.0, (0.0, 45.0))
                    .with_dim_weights(&weights),
            ]
        },
        rows: 25_000,
    }
}

/// Kaggle flight statistics: 6 dimensions, delay (minutes) and
/// cancellation probability (per mille) targets.
pub fn flights_spec() -> SynthSpec {
    SynthSpec {
        name: "Flights".to_string(),
        dims: vec![
            DimSpec::synthetic("airline", "airline", 14, 0.6),
            DimSpec::synthetic("origin_region", "from", 9, 0.5),
            DimSpec::synthetic("dest_region", "to", 9, 0.5),
            DimSpec::named("season", &["Spring", "Summer", "Fall", "Winter"]),
            DimSpec::named(
                "weekday",
                &["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"],
            ),
            DimSpec::named("daypart", &["morning", "midday", "evening", "night"]),
        ],
        targets: {
            // Delays and cancellations hinge on season and airline; the
            // origin/destination splits matter less, weekday barely.
            let weights = [0.8, 0.25, 0.2, 1.0, 0.1, 0.45];
            vec![
                TargetSpec::new("delay", 12.0, 6.0, 5.0, (0.0, 180.0)).with_dim_weights(&weights),
                // Cancellation probability in per-mille (Example 5 speaks
                // of "about 6%" style values).
                TargetSpec::new("cancelled", 25.0, 12.0, 6.0, (0.0, 1000.0))
                    .with_dim_weights(&weights),
            ]
        },
        rows: 50_000,
    }
}

/// FiveThirtyEight democratic primaries polling: 5 dimensions, one
/// polling-percentage target.
pub fn primaries_spec() -> SynthSpec {
    SynthSpec {
        name: "Primaries".to_string(),
        dims: vec![
            DimSpec::synthetic("candidate", "cand", 10, 0.5),
            DimSpec::synthetic("state", "state", 25, 0.4),
            DimSpec::named("month", &["Sep", "Oct", "Nov", "Dec", "Jan", "Feb"]),
            DimSpec::synthetic("pollster", "pollster", 15, 0.6),
            DimSpec::named("population", &["likely", "registered", "adults"]),
        ],
        targets: vec![TargetSpec::new("support", 12.0, 6.0, 3.0, (0.0, 100.0))
            .with_dim_weights(&[1.0, 0.2, 0.5, 0.1, 0.15])],
        rows: 5_000,
    }
}

/// The scale-sweep synthetic tenant: a "heavy traffic from millions of
/// users" analytics table (ROADMAP item 2), sized directly by row count
/// through [`SynthSpec::generate_rows`] rather than a scale factor.
/// Cardinalities are deliberately moderate — the enumerated subset
/// count stays in the low thousands, so preprocess cost at millions of
/// rows measures the *data* axis, not a combinatorial one.
pub fn scale_tenant_spec() -> SynthSpec {
    SynthSpec {
        name: "ScaleTenant".to_string(),
        dims: vec![
            DimSpec::synthetic("region", "region", 12, 0.6),
            DimSpec::synthetic("device", "device", 8, 0.8),
            DimSpec::named("plan", &["free", "basic", "pro", "enterprise"]),
            DimSpec::named(
                "cohort",
                &["new", "active", "dormant", "churned", "returning", "trial"],
            ),
        ],
        targets: vec![
            TargetSpec::new("engagement", 55.0, 14.0, 6.0, (0.0, 100.0))
                .with_dim_weights(&[1.0, 0.5, 0.7, 0.9]),
            TargetSpec::new("latency_ms", 120.0, 40.0, 20.0, (5.0, 1000.0))
                .with_dim_weights(&[0.9, 1.0, 0.2, 0.3]),
        ],
        rows: 1_000_000,
    }
}

/// A deliberately *wide* spec — `dims` binary dimensions, one target —
/// for probing lookups of long queries: a miss walks the query's
/// predicate subsets from the longest stored query length down, so its
/// cost grows with the number of subsets of that length, not with `2^n`.
/// The scale bench records probe counts and lookup times per predicate
/// count.
pub fn wide_probe_spec(dims: usize) -> SynthSpec {
    SynthSpec {
        name: format!("Wide-{dims}"),
        dims: (0..dims)
            .map(|d| DimSpec::named(&format!("d{d:02}"), &["a", "b"]))
            .collect(),
        targets: vec![TargetSpec::new("metric", 50.0, 10.0, 3.0, (0.0, 100.0))],
        rows: 512,
    }
}

/// All four scenario specs in Table I order.
pub fn all_specs() -> Vec<SynthSpec> {
    vec![
        acs_spec(),
        stackoverflow_spec(),
        flights_spec(),
        primaries_spec(),
    ]
}

/// Generate one scenario by its Fig. 3 letter ("A", "S", "F", "P").
pub fn by_letter(letter: &str, scale: f64) -> Option<GeneratedDataset> {
    let spec = match letter {
        "A" => acs_spec(),
        "S" => stackoverflow_spec(),
        "F" => flights_spec(),
        "P" => primaries_spec(),
        _ => return None,
    };
    Some(spec.generate(DEFAULT_SEED, scale))
}

/// Candidate-fact count over the full data for facts restricting at most
/// `max_dims` dimensions, assuming all value combinations occur:
/// `Σ_{size ≤ max_dims} Π cardinalities` (Theorem 9's bound, tight for
/// dense data).
pub fn nominal_fact_count(spec: &SynthSpec, max_dims: usize) -> usize {
    let cards: Vec<usize> = spec.dims.iter().map(|d| d.values.len()).collect();
    let mut total = 0usize;
    for mask in 0u32..(1 << cards.len()) {
        if (mask.count_ones() as usize) <= max_dims {
            let product: usize = (0..cards.len())
                .filter(|&d| mask & (1 << d) != 0)
                .map(|d| cards[d])
                .product();
            total += product;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let specs = all_specs();
        let dims: Vec<usize> = specs.iter().map(|s| s.dims.len()).collect();
        let targets: Vec<usize> = specs.iter().map(|s| s.targets.len()).collect();
        assert_eq!(dims, vec![3, 7, 6, 5]);
        // The paper lists 1 target for flights but evaluates both F-C and
        // F-D; we generate both columns.
        assert_eq!(targets, vec![6, 6, 2, 1]);
    }

    #[test]
    fn fact_counts_near_paper() {
        // §VIII-B: 3,700 facts per data subset for Stack Overflow, 1,300
        // for flights, 764 for ACS (facts restrict ≤ 2 dimensions).
        let acs = nominal_fact_count(&acs_spec(), 2);
        assert!((640..=900).contains(&acs), "ACS facts: {acs}");
        let so = nominal_fact_count(&stackoverflow_spec(), 2);
        assert!((3_100..=4_600).contains(&so), "SO facts: {so}");
        let fl = nominal_fact_count(&flights_spec(), 2);
        assert!((850..=1_600).contains(&fl), "Flights facts: {fl}");
        // Ordering is what drives the Fig. 3 shape.
        assert!(so > fl && fl > acs);
    }

    #[test]
    fn fig3_targets_exist() {
        let acs = acs_spec();
        let so = stackoverflow_spec();
        let fl = flights_spec();
        for (scenario, target) in FIG3_SCENARIOS {
            let spec = match scenario.chars().next().unwrap() {
                'A' => &acs,
                'S' => &so,
                'F' => &fl,
                _ => unreachable!(),
            };
            assert!(
                spec.targets.iter().any(|t| t.name == target),
                "{scenario} target '{target}' missing"
            );
        }
    }

    #[test]
    fn generators_produce_tables() {
        for letter in ["A", "S", "F", "P"] {
            let data = by_letter(letter, 0.01).unwrap();
            assert!(!data.table.is_empty(), "{letter}");
            assert!(data.table.schema().len() == data.dims.len() + data.targets.len());
        }
        assert!(by_letter("X", 1.0).is_none());
    }

    #[test]
    fn acs_borough_values_match_fig6() {
        let data = acs_spec().generate(DEFAULT_SEED, 0.02);
        let col = data.table.column_by_name("borough").unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in 0..data.table.len() {
            seen.insert(col.value(row).to_string());
        }
        assert!(seen.contains("Brooklyn") && seen.contains("Bronx"));
    }
}
