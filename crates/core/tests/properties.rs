//! Property-based tests of the model layer: scopes, expectation models
//! and the utility function's formal guarantees.

use proptest::prelude::*;

use vqs_core::prelude::*;

fn arb_scope_pairs() -> impl Strategy<Value = Vec<(usize, u32)>> {
    prop::collection::btree_map(0usize..6, 0u32..4, 0..4).prop_map(|map| map.into_iter().collect())
}

proptest! {
    #[test]
    fn scope_pairs_roundtrip(pairs in arb_scope_pairs()) {
        let scope = Scope::from_pairs(&pairs).unwrap();
        prop_assert_eq!(scope.pairs(), pairs.clone());
        prop_assert_eq!(scope.len(), pairs.len());
        for (d, v) in &pairs {
            prop_assert!(scope.restricts(*d));
            prop_assert_eq!(scope.value_for(*d), Some(*v));
        }
    }

    #[test]
    fn scope_subset_is_a_partial_order(a in arb_scope_pairs(), b in arb_scope_pairs()) {
        let sa = Scope::from_pairs(&a).unwrap();
        let sb = Scope::from_pairs(&b).unwrap();
        // Reflexivity.
        prop_assert!(sa.subset_of(&sa));
        // Antisymmetry.
        if sa.subset_of(&sb) && sb.subset_of(&sa) {
            prop_assert_eq!(&sa, &sb);
        }
        // The empty scope is a subset of everything.
        prop_assert!(Scope::all().subset_of(&sa));
    }

    #[test]
    fn subset_scopes_cover_superset_rows(a in arb_scope_pairs(), extra in 0usize..6, value in 0u32..4) {
        // If sa ⊆ sb then every row matching sb also matches sa.
        let sa = Scope::from_pairs(&a).unwrap();
        let mut b = a.clone();
        if !b.iter().any(|&(d, _)| d == extra) {
            b.push((extra, value));
        }
        let sb = Scope::from_pairs(&b).unwrap();
        prop_assert!(sa.subset_of(&sb));

        // Construct a relation whose first row matches sb exactly.
        let dims: Vec<String> = (0..6).map(|d| format!("d{d}")).collect();
        let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
        let mut row = vec!["v0"; 6];
        let values = ["v0", "v1", "v2", "v3"];
        for &(d, v) in &b {
            row[d] = values[v as usize];
        }
        let relation = EncodedRelation::from_rows(
            &dim_refs,
            "y",
            vec![(row.clone(), 1.0)],
            Prior::Constant(0.0),
        )
        .unwrap();
        // Re-encode both scopes against this relation's dictionaries.
        let encode = |pairs: &[(usize, u32)]| {
            let encoded: Vec<(usize, u32)> = pairs
                .iter()
                .map(|&(d, v)| {
                    let code = relation.dims()[d]
                        .code_of(values[v as usize])
                        .unwrap_or(0);
                    (d, code)
                })
                .collect();
            Scope::from_pairs(&encoded).unwrap()
        };
        let (ra, rb) = (encode(&a), encode(&b));
        if rb.matches_row(&relation, 0) {
            prop_assert!(ra.matches_row(&relation, 0));
        }
    }

    #[test]
    fn expectations_stay_within_value_hull(
        values in prop::collection::vec(0.0f64..100.0, 1..5),
        prior in 0.0f64..100.0,
        actual in 0.0f64..100.0,
    ) {
        // Every model's expectation lies within the hull of the proposed
        // values and the prior.
        let relation = EncodedRelation::from_rows(
            &["d"],
            "y",
            vec![(vec!["x"], actual)],
            Prior::Constant(prior),
        )
        .unwrap();
        let facts: Vec<Fact> = values
            .iter()
            .map(|&v| Fact::new(Scope::from_pairs(&[(0, 0)]).unwrap(), v, 1))
            .collect();
        let lo = values
            .iter()
            .chain(std::iter::once(&prior))
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = values
            .iter()
            .chain(std::iter::once(&prior))
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        for model in ExpectationModel::ALL {
            let e = model.expected_value(&relation, 0, &facts, prior, actual);
            prop_assert!(e >= lo - 1e-9 && e <= hi + 1e-9, "{model:?}: {e} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn closest_model_bounds(
        values in prop::collection::vec(0.0f64..100.0, 1..5),
        prior in 0.0f64..100.0,
        actual in 0.0f64..100.0,
    ) {
        // Sound orderings among the models: the closest pick dominates the
        // farthest pick (same choice set), and hearing facts can never
        // hurt a closest-model listener relative to the prior alone.
        // (Averaging models are incomparable point-wise: an average of two
        // off values can land closer than any single proposed value.)
        let relation = EncodedRelation::from_rows(
            &["d"],
            "y",
            vec![(vec!["x"], actual)],
            Prior::Constant(prior),
        )
        .unwrap();
        let facts: Vec<Fact> = values
            .iter()
            .map(|&v| Fact::new(Scope::from_pairs(&[(0, 0)]).unwrap(), v, 1))
            .collect();
        let closest = speech_error_under(&relation, &facts, ExpectationModel::ClosestRelevant);
        let farthest =
            speech_error_under(&relation, &facts, ExpectationModel::FarthestRelevant);
        prop_assert!(closest <= farthest + 1e-9);
        prop_assert!(closest <= (prior - actual).abs() + 1e-9);
        // Against every proposed value individually, closest wins.
        for &v in &values {
            prop_assert!(closest <= (v - actual).abs() + 1e-9);
        }
    }

    #[test]
    fn utility_bounded_by_base_error(
        targets in prop::collection::vec(0.0f64..50.0, 4..24),
        prior in 0.0f64..50.0,
    ) {
        let rows: Vec<(Vec<String>, f64)> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (vec![format!("v{}", i % 4)], t))
            .collect();
        let row_refs: Vec<(Vec<&str>, f64)> = rows
            .iter()
            .map(|(v, t)| (v.iter().map(String::as_str).collect(), *t))
            .collect();
        let relation =
            EncodedRelation::from_rows(&["d"], "y", row_refs, Prior::Constant(prior)).unwrap();
        let catalog = FactCatalog::build(&relation, &[0], 1).unwrap();
        let problem = Problem::new(&relation, &catalog, 3).unwrap();
        let summary = GreedySummarizer::base().summarize(&problem).unwrap();
        prop_assert!(summary.utility >= -1e-9);
        prop_assert!(summary.utility <= summary.base_error + 1e-9);
        prop_assert!(summary.scaled_utility() <= 1.0 + 1e-9);
    }

    #[test]
    fn speech_deduplication_preserves_utility(
        targets in prop::collection::vec(0.0f64..50.0, 4..16),
    ) {
        let rows: Vec<(Vec<String>, f64)> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (vec![format!("v{}", i % 3)], t))
            .collect();
        let row_refs: Vec<(Vec<&str>, f64)> = rows
            .iter()
            .map(|(v, t)| (v.iter().map(String::as_str).collect(), *t))
            .collect();
        let relation =
            EncodedRelation::from_rows(&["d"], "y", row_refs, Prior::Constant(0.0)).unwrap();
        let catalog = FactCatalog::build(&relation, &[0], 1).unwrap();
        let fact = catalog.fact(0);
        let single = Speech::new(vec![fact.clone()]);
        let doubled = Speech::new(vec![fact.clone(), fact]);
        prop_assert_eq!(doubled.len(), 1);
        prop_assert_eq!(single.utility(&relation), doubled.utility(&relation));
    }
}
