//! Property-based cross-validation: the direct in-memory algorithms, the
//! relational (SQL-style) executions and the model's formal invariants
//! must all agree on randomized instances.

use proptest::prelude::*;

use vqs_core::prelude::*;
use vqs_core::relational::{RelationalExact, RelationalGreedy};

/// Strategy: a small random relation with 1–3 dimensions.
fn arb_relation() -> impl Strategy<Value = EncodedRelation> {
    (
        2usize..4,
        prop::collection::vec(0u8..3, 12..40),
        prop::collection::vec(0.0f64..50.0, 12..40),
        0.0f64..25.0,
    )
        .prop_map(|(dims, codes, targets, prior)| {
            let n = codes.len().min(targets.len());
            let rows: Vec<(Vec<String>, f64)> = (0..n)
                .map(|i| {
                    let values: Vec<String> = (0..dims)
                        .map(|d| format!("v{}", (codes[i] as usize + d * 7 + i * (d + 1)) % 3))
                        .collect();
                    (values, (targets[i] * 2.0).round() / 2.0)
                })
                .collect();
            let dim_names: Vec<String> = (0..dims).map(|d| format!("d{d}")).collect();
            let name_refs: Vec<&str> = dim_names.iter().map(String::as_str).collect();
            let row_refs: Vec<(Vec<&str>, f64)> = rows
                .iter()
                .map(|(values, t)| (values.iter().map(String::as_str).collect(), *t))
                .collect();
            EncodedRelation::from_rows(&name_refs, "y", row_refs, Prior::Constant(prior))
                .expect("well-formed random relation")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn utility_is_monotone(relation in arb_relation(), picks in prop::collection::vec(0usize..64, 1..6)) {
        let dims: Vec<usize> = (0..relation.dim_count()).collect();
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let facts: Vec<Fact> = picks
            .iter()
            .map(|&p| catalog.fact(p % catalog.len()).clone())
            .collect();
        // Monotonicity: utility never decreases as facts accumulate.
        let mut previous = 0.0;
        for i in 0..=facts.len() {
            let u = utility(&relation, &facts[..i]);
            prop_assert!(u + 1e-9 >= previous, "utility dropped from {previous} to {u}");
            previous = u;
        }
    }

    #[test]
    fn utility_is_submodular(relation in arb_relation(), picks in prop::collection::vec(0usize..64, 3..6)) {
        // Theorem 1: the marginal gain of a fact shrinks as the speech
        // grows (F1 ⊆ F2 ⇒ Δ(F1, f) ≥ Δ(F2, f)).
        let dims: Vec<usize> = (0..relation.dim_count()).collect();
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let facts: Vec<Fact> = picks
            .iter()
            .map(|&p| catalog.fact(p % catalog.len()).clone())
            .collect();
        let (new_fact, rest) = facts.split_last().unwrap();
        for split in 0..rest.len() {
            let small = &rest[..split];
            let large = rest;
            let gain = |base: &[Fact]| {
                let mut with = base.to_vec();
                with.push(new_fact.clone());
                utility(&relation, &with) - utility(&relation, base)
            };
            prop_assert!(gain(small) + 1e-9 >= gain(large));
        }
    }

    #[test]
    fn residual_state_tracks_speech_error(relation in arb_relation(), picks in prop::collection::vec(0usize..64, 1..5)) {
        let dims: Vec<usize> = (0..relation.dim_count()).collect();
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let facts: Vec<Fact> = picks
            .iter()
            .map(|&p| catalog.fact(p % catalog.len()).clone())
            .collect();
        let mut state = ResidualState::new(&relation);
        for fact in &facts {
            state.apply_fact(&relation, fact);
        }
        let direct = speech_error(&relation, &facts);
        prop_assert!((state.total() - direct).abs() < 1e-9);
    }

    #[test]
    fn greedy_variants_agree(relation in arb_relation()) {
        let dims: Vec<usize> = (0..relation.dim_count()).collect();
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let problem = Problem::new(&relation, &catalog, 3).unwrap();
        let base = GreedySummarizer::base().summarize(&problem).unwrap();
        let naive = GreedySummarizer::with_naive_pruning().summarize(&problem).unwrap();
        let optimized = GreedySummarizer::with_optimized_pruning().summarize(&problem).unwrap();
        prop_assert!((base.utility - naive.utility).abs() < 1e-9);
        prop_assert!((base.utility - optimized.utility).abs() < 1e-9);
    }

    #[test]
    fn exact_dominates_greedy_within_bound(relation in arb_relation()) {
        let dims: Vec<usize> = (0..relation.dim_count()).collect();
        let catalog = FactCatalog::build(&relation, &dims, 1).unwrap();
        let problem = Problem::new(&relation, &catalog, 2).unwrap();
        let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
        let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
        prop_assert!(exact.utility + 1e-9 >= greedy.utility);
        // Theorem 3: greedy ≥ (1 − 1/e)·OPT.
        let factor = 1.0 - 1.0 / std::f64::consts::E;
        prop_assert!(greedy.utility + 1e-9 >= factor * exact.utility);
    }

    #[test]
    fn relational_greedy_matches_direct(relation in arb_relation()) {
        let dims: Vec<usize> = (0..relation.dim_count()).collect();
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let problem = Problem::new(&relation, &catalog, 2).unwrap();
        let direct = GreedySummarizer::base().summarize(&problem).unwrap();
        let relational = RelationalGreedy.summarize(&problem).unwrap();
        prop_assert!(
            (direct.utility - relational.utility).abs() < 1e-9,
            "direct {} vs relational {}",
            direct.utility,
            relational.utility
        );
    }
}

// The relational exact path is slower; exercise it on fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn relational_exact_matches_direct(relation in arb_relation()) {
        let dims: Vec<usize> = (0..relation.dim_count()).collect();
        let catalog = FactCatalog::build(&relation, &dims, 1).unwrap();
        let problem = Problem::new(&relation, &catalog, 2).unwrap();
        let direct = ExactSummarizer::paper().summarize(&problem).unwrap();
        let relational = RelationalExact::with_greedy_bound(&problem)
            .unwrap()
            .summarize(&problem)
            .unwrap();
        prop_assert!(
            (direct.utility - relational.utility).abs() < 1e-9,
            "direct {} vs relational {}",
            direct.utility,
            relational.utility
        );
    }
}

#[test]
fn catalog_partitions_are_exhaustive_and_exclusive() {
    // Deterministic variant of the partition invariant on a seeded batch.
    for seed in 0..5u64 {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(Vec<String>, f64)> = (0..60)
            .map(|_| {
                (
                    vec![
                        format!("a{}", rng.gen_range(0..4)),
                        format!("b{}", rng.gen_range(0..3)),
                    ],
                    rng.gen_range(0.0..10.0),
                )
            })
            .collect();
        let refs: Vec<(Vec<&str>, f64)> = rows
            .iter()
            .map(|(values, t)| (values.iter().map(String::as_str).collect(), *t))
            .collect();
        let relation =
            EncodedRelation::from_rows(&["a", "b"], "y", refs, Prior::GlobalMean).unwrap();
        let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
        for group in catalog.groups() {
            let mut support_sum = 0;
            for id in group.fact_ids() {
                support_sum += catalog.fact(id).support;
            }
            // Each group's facts partition all rows.
            assert_eq!(support_sum, relation.len());
            let mut covered: Vec<usize> = Vec::new();
            for id in group.fact_ids() {
                let rows = catalog.covered_rows(id);
                let scope = &catalog.fact(id).scope;
                assert!(rows.iter().all(|&row| scope.matches_row(&relation, row)));
                covered.extend(rows);
            }
            covered.sort_unstable();
            assert_eq!(covered, (0..relation.len()).collect::<Vec<_>>());
        }
    }
}
