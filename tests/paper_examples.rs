//! Fidelity tests: every worked number in the paper, checked against the
//! reconstructed Fig. 1 grid (`vqs_data::running_example` derives the
//! grid and documents the one inconsistency, in Example 4).

use vqs_core::prelude::*;
use vqs_data::running_example as ex;

#[test]
fn example1_grid_shape() {
    let r = ex::relation();
    assert_eq!(r.len(), 16);
    assert_eq!(r.dim_count(), 2);
    assert_eq!(r.dims()[0].cardinality(), 4);
    assert_eq!(r.dims()[1].cardinality(), 4);
    assert_eq!(r.target_name(), "delay");
}

#[test]
fn example2_fact_values() {
    // "The average delay in Summer in the South is 20 minutes."
    let r = ex::relation();
    let summer_south = Fact::for_scope(
        &r,
        ex::scope(&r, &[("season", "Summer"), ("region", "South")]),
    )
    .unwrap();
    assert_eq!(summer_south.value, 20.0);
    assert_eq!(summer_south.support, 1);
    // "The average delay in Winter is 15 minutes."
    let winter = Fact::for_scope(&r, ex::scope(&r, &[("season", "Winter")])).unwrap();
    assert_eq!(winter.value, 15.0);
    assert_eq!(winter.support, 4);
}

#[test]
fn example3_prior_expectations() {
    // "Assume users expect no delays by default (the prior)."
    let r = ex::relation();
    assert_eq!(r.prior_values(), vec![0.0; 16]);
    // Without facts, expectation equals the prior for every row.
    for row in 0..r.len() {
        let e = ExpectationModel::ClosestRelevant.expected_value(&r, row, &[], 0.0, r.target(row));
        assert_eq!(e, 0.0);
    }
}

#[test]
fn example4_error_and_utilities() {
    let r = ex::relation();
    // "an accumulated error of 4·20 + 4·10 = 120".
    assert_eq!(base_error(&r), 120.0);
    // "After listening to Speech 1, error reduces to 80 (utility 40)".
    let s1 = ex::speech1(&r);
    assert_eq!(s1.error(&r), 80.0);
    assert_eq!(s1.utility(&r), 40.0);
    // Documented inconsistency: the paper claims error 35 for Speech 2;
    // the grid consistent with Examples 2/6/7/8 yields 55 (utility 65).
    // The qualitative claim — Speech 2 is more useful — holds.
    let s2 = ex::speech2(&r);
    assert_eq!(s2.error(&r), 55.0);
    assert_eq!(s2.utility(&r), 65.0);
    assert!(s2.utility(&r) > s1.utility(&r));
}

#[test]
fn example6_pruning_conditions() {
    let r = ex::relation();
    // "this fact alone has utility 20" (Summer∧South).
    let summer_south = Fact::for_scope(
        &r,
        ex::scope(&r, &[("season", "Summer"), ("region", "South")]),
    )
    .unwrap();
    assert_eq!(utility(&r, std::slice::from_ref(&summer_south)), 20.0);
    // "the fact stating that the average delay in Winter is 15 minutes …
    // has single-fact utility 40" → appending it after Summer∧South
    // violates the decreasing-utility order (40 > 20): permutation pruning
    // discards that expansion.
    let winter = Fact::for_scope(&r, ex::scope(&r, &[("season", "Winter")])).unwrap();
    assert_eq!(utility(&r, std::slice::from_ref(&winter)), 40.0);
    // "Knowing a speech with utility 85 … b = 85, S.U = 20, F.U = 20,
    // r = 1, and (b − S.U)/r > F.U" — the bound prunes the expansion by
    // the Winter∧East fact (single-fact utility 20).
    let winter_east = Fact::for_scope(
        &r,
        ex::scope(&r, &[("season", "Winter"), ("region", "East")]),
    )
    .unwrap();
    let single_u = utility(&r, std::slice::from_ref(&winter_east));
    assert_eq!(single_u, 20.0);
    let b = 85.0;
    let s_u = 20.0;
    let remaining = 1.0;
    assert!(
        (b - s_u) / remaining > single_u,
        "the Example 6 pruning fires"
    );
}

#[test]
fn example7_greedy_trace() {
    let r = ex::relation();
    let catalog = ex::example7_catalog(&r);
    let problem = Problem::new(&r, &catalog, 2).unwrap();
    let summary = GreedySummarizer::base().summarize(&problem).unwrap();
    // First pick utility 40, second adds 25 → 65 total; both picks are
    // the value-15 facts (Winter / North).
    assert_eq!(summary.utility, 65.0);
    assert!(summary.speech.facts().iter().all(|f| f.value == 15.0));
    // "Other facts, e.g. referencing flights in the South in Summer, with
    // utility 20, are dominated."
    let summer_south = Fact::for_scope(
        &r,
        ex::scope(&r, &[("season", "Summer"), ("region", "South")]),
    )
    .unwrap();
    assert!(!summary
        .speech
        .facts()
        .iter()
        .any(|f| f.scope == summer_south.scope));
}

#[test]
fn example8_bounds_after_winter() {
    let r = ex::relation();
    let catalog = ex::example7_catalog(&r);
    let winter = Fact::for_scope(&r, ex::scope(&r, &[("season", "Winter")])).unwrap();
    let mut residual = ResidualState::new(&r);
    residual.apply_fact(&r, &winter);
    let mut counters = Instrumentation::default();

    let bound_of = |pairs: &[(&str, &str)], counters: &mut Instrumentation| -> f64 {
        let scope = ex::scope(&r, pairs);
        for (g, group) in catalog.groups().iter().enumerate() {
            if group.mask == scope.mask() {
                let bounds = catalog.group_fact_bounds(&residual, g, counters);
                for (offset, bound) in bounds.iter().enumerate() {
                    if catalog.fact(group.fact_start + offset).scope == scope {
                        return *bound;
                    }
                }
            }
        }
        panic!("fact not found for {pairs:?}");
    };

    // "facts referencing Fall have an upper bound of 10".
    assert_eq!(bound_of(&[("season", "Fall")], &mut counters), 10.0);
    // "facts referencing the East cannot increase utility by more than
    // five (deviation between actual and expected delay in the East in
    // Winter)".
    assert_eq!(bound_of(&[("region", "East")], &mut counters), 5.0);
    // "the fact stating average delays in the North … utility gain (25)".
    let north = Fact::for_scope(&r, ex::scope(&r, &[("region", "North")])).unwrap();
    let north_gain = residual.gain_of(&r, &north);
    assert_eq!(north_gain, 25.0);
    // The North gain dominates the Fall and East bounds, so those facts
    // can be excluded, as the example concludes.
    assert!(north_gain > bound_of(&[("season", "Fall")], &mut counters));
    assert!(north_gain > bound_of(&[("region", "East")], &mut counters));
}

#[test]
fn theorem1_diminishing_returns_on_example() {
    // Adding Summer∧South to {Winter} gains at least as much as adding it
    // to {Winter, North}.
    let r = ex::relation();
    let winter = Fact::for_scope(&r, ex::scope(&r, &[("season", "Winter")])).unwrap();
    let north = Fact::for_scope(&r, ex::scope(&r, &[("region", "North")])).unwrap();
    let extra = Fact::for_scope(
        &r,
        ex::scope(&r, &[("season", "Summer"), ("region", "South")]),
    )
    .unwrap();
    let small = vec![winter.clone()];
    let large = vec![winter, north];
    let gain = |base: &[Fact]| {
        let mut with: Vec<Fact> = base.to_vec();
        with.push(extra.clone());
        utility(&r, &with) - utility(&r, base)
    };
    assert!(gain(&small) >= gain(&large));
}

#[test]
fn exact_is_optimal_on_the_example() {
    let r = ex::relation();
    let catalog = ex::example7_catalog(&r);
    for m in 1..=3 {
        let problem = Problem::new(&r, &catalog, m).unwrap();
        let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
        let brute = BruteForceSummarizer.summarize(&problem).unwrap();
        assert_eq!(exact.utility, brute.utility, "m = {m}");
    }
}

#[test]
fn section3_speech_counts_scale_with_configuration() {
    // §III / Theorem 10: the number of queries grows with targets and
    // predicate combinations. Check the generator's arithmetic on the
    // running example: 1 empty + 4 + 4 singles + 16 pairs per target.
    use vqs_engine::prelude::*;
    let r = ex::relation();
    let config = Configuration::new("fig1", &["season", "region"], &["delay"]);
    let items = enumerate_queries(&r, &config, "delay");
    assert_eq!(items.len(), 1 + 4 + 4 + 16);
}
