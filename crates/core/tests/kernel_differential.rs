//! Differential tests of the indexed solver hot path.
//!
//! Three invariants protect the catalog build, the indexed-kernel and the
//! parallel-search optimizations:
//!
//! 1. The catalog's CSR inverted-index kernel
//!    (`gain_indexed`/`apply_indexed`/`revert_frame`) agrees with the
//!    original full-scan implementations (`gain_of`/`apply_fact`/`revert`)
//!    on random relations, and reverts are bit-exact. The unrolled
//!    (auto-vectorizable) `gain_indexed` sweep additionally agrees with
//!    the single-accumulator `gain_indexed_scalar` ground truth to 1e-9
//!    (its four partial sums reassociate the additions).
//! 2. The parallel exact search returns the same speech as the sequential
//!    search — utility, chosen facts, and timeout flag — for any worker
//!    count, on both sides of the adaptive fan-out gate and for scoped
//!    as well as custom executors.
//! 3. The catalog build agrees with a naive reference — one
//!    `Fact::for_scope` per distinct value combination, in order of first
//!    appearance — on fact order, scopes, value bits, support, the
//!    row→fact partition, every CSR slice and the grouped gains,
//!    including three-dimension groups over a high-cardinality column,
//!    whose integer grouping keys fold.

use proptest::prelude::*;

use vqs_core::prelude::*;

/// A random relation over four dimensions, the last with up to 300
/// distinct values, and real-valued targets so that summation order shows
/// in the bits of every average.
fn arb_wide_relation() -> impl Strategy<Value = EncodedRelation> {
    prop::collection::vec(
        (0u32..3, 0u32..5, 0u32..2, 0u32..300, -50.0f64..50.0),
        1..80,
    )
    .prop_map(|rows| {
        let data: Vec<(Vec<String>, f64)> = rows
            .iter()
            .map(|&(a, b, c, h, y)| {
                let values = vec![
                    format!("a{a}"),
                    format!("b{b}"),
                    format!("c{c}"),
                    format!("h{h}"),
                ];
                (values, y)
            })
            .collect();
        let row_refs: Vec<(Vec<&str>, f64)> = data
            .iter()
            .map(|(v, t)| (v.iter().map(String::as_str).collect(), *t))
            .collect();
        EncodedRelation::from_rows(&["a", "b", "c", "h"], "y", row_refs, Prior::GlobalMean).unwrap()
    })
}

/// One group of the reference catalog: the distinct value combinations of
/// `cols` in order of first appearance, each fact computed by a direct
/// scan of its scope, and every row's combination index.
fn naive_group(relation: &EncodedRelation, cols: &[usize]) -> (Vec<Fact>, Vec<usize>) {
    let mut combos: Vec<Vec<u32>> = Vec::new();
    let mut of_row = Vec::with_capacity(relation.len());
    for row in 0..relation.len() {
        let combo: Vec<u32> = cols.iter().map(|&d| relation.code(d, row)).collect();
        let index = match combos.iter().position(|c| *c == combo) {
            Some(index) => index,
            None => {
                combos.push(combo);
                combos.len() - 1
            }
        };
        of_row.push(index);
    }
    let facts = combos
        .iter()
        .map(|combo| {
            let pairs: Vec<(usize, u32)> =
                cols.iter().copied().zip(combo.iter().copied()).collect();
            Fact::for_scope(relation, Scope::from_pairs(&pairs).unwrap()).unwrap()
        })
        .collect();
    (facts, of_row)
}

/// A small random relation (2 dimensions, bounded cardinalities) plus the
/// per-row targets, generated from plain proptest collections so failures
/// replay deterministically.
fn arb_relation() -> impl Strategy<Value = EncodedRelation> {
    (
        prop::collection::vec((0u32..4, 0u32..3), 1..40),
        0.0f64..30.0,
    )
        .prop_map(|(rows, prior)| {
            let data: Vec<(Vec<String>, f64)> = rows
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| {
                    (
                        vec![format!("a{a}"), format!("b{b}")],
                        ((i * 7919) % 97) as f64,
                    )
                })
                .collect();
            let row_refs: Vec<(Vec<&str>, f64)> = data
                .iter()
                .map(|(v, t)| (v.iter().map(String::as_str).collect(), *t))
                .collect();
            EncodedRelation::from_rows(&["a", "b"], "y", row_refs, Prior::Constant(prior)).unwrap()
        })
}

proptest! {
    // Indexed gains equal full-scan gains for every candidate fact, both
    // from the initial state and after a couple of facts were applied.
    #[test]
    fn indexed_gain_matches_full_scan(relation in arb_relation(), picks in prop::collection::vec(0usize..64, 0..3)) {
        let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
        let mut state = ResidualState::new(&relation);
        let mut arena = UndoArena::new();
        for pick in picks {
            let id = pick % catalog.len();
            let (rows, devs) = (catalog.fact_rows(id), catalog.fact_devs(id));
            state.apply_indexed(rows, devs, &mut arena);
        }
        for (id, fact) in catalog.facts().iter().enumerate() {
            let indexed = state.gain_indexed(catalog.fact_rows(id), catalog.fact_devs(id));
            let scan = state.gain_of(&relation, fact);
            prop_assert!((indexed - scan).abs() < 1e-9, "fact {id}: {indexed} vs {scan}");
        }
    }

    // Applying through the index mutates residuals exactly like the
    // full-scan apply, and the arena revert restores the prior state
    // bit-for-bit (residuals *and* running total).
    #[test]
    fn indexed_apply_and_revert_match_full_scan(relation in arb_relation(), picks in prop::collection::vec(0usize..64, 1..5)) {
        let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
        let mut scan = ResidualState::new(&relation);
        let mut indexed = ResidualState::new(&relation);
        let mut arena = UndoArena::new();
        let mut checkpoints: Vec<(Vec<f64>, f64)> = Vec::new();
        for pick in &picks {
            let id = pick % catalog.len();
            checkpoints.push((indexed.residuals().to_vec(), indexed.total()));
            let fact = catalog.fact(id).clone();
            let (scan_gain, _) = scan.apply_fact(&relation, &fact);
            let indexed_gain =
                indexed.apply_indexed(catalog.fact_rows(id), catalog.fact_devs(id), &mut arena);
            prop_assert!((indexed_gain - scan_gain).abs() < 1e-9);
            for row in 0..relation.len() {
                prop_assert!((indexed.residual(row) - scan.residual(row)).abs() < 1e-9);
            }
            prop_assert!((indexed.total() - scan.total()).abs() < 1e-9);
        }
        // Unwind in LIFO order: every checkpoint must be restored exactly.
        prop_assert_eq!(arena.depth(), picks.len());
        while let Some((residuals, total)) = checkpoints.pop() {
            indexed.revert_frame(&mut arena);
            prop_assert_eq!(indexed.residuals(), residuals.as_slice());
            prop_assert_eq!(indexed.total().to_bits(), total.to_bits());
        }
        prop_assert_eq!(arena.depth(), 0);
    }

    // The unrolled four-accumulator gain sweep agrees with the
    // single-accumulator scalar ground truth on every fact, from the
    // initial residuals and after random applies.
    #[test]
    fn vectorized_gain_sweep_matches_scalar_sweep(relation in arb_relation(), picks in prop::collection::vec(0usize..64, 0..3)) {
        let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
        let mut state = ResidualState::new(&relation);
        let mut arena = UndoArena::new();
        for pick in picks {
            let id = pick % catalog.len();
            state.apply_indexed(catalog.fact_rows(id), catalog.fact_devs(id), &mut arena);
        }
        for id in 0..catalog.len() {
            let unrolled = state.gain_indexed(catalog.fact_rows(id), catalog.fact_devs(id));
            let scalar = state.gain_indexed_scalar(catalog.fact_rows(id), catalog.fact_devs(id));
            prop_assert!((unrolled - scalar).abs() < 1e-9, "fact {id}: {unrolled} vs {scalar}");
        }
    }

    // The parallel exact search is byte-identical to the sequential one:
    // same utility bits, same chosen facts, same timeout flag, for
    // workers ∈ {0, 1, 2, 8} — with the fan-out forced *on*
    // (`fan_out_threshold: 0`) so the parallel machinery actually runs,
    // and forced *off* (`usize::MAX`) so the adaptive gate's sequential
    // route is provably the same search. The default threshold sits
    // between those extremes, so both sides of the gate boundary are
    // covered.
    #[test]
    fn parallel_exact_equals_sequential(relation in arb_relation(), max_facts in 1usize..4) {
        let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
        let problem = Problem::new(&relation, &catalog, max_facts).unwrap();
        let sequential = ExactSummarizer::paper().summarize(&problem).unwrap();
        for workers in [0usize, 1, 2, 8] {
            for fan_out_threshold in [0usize, usize::MAX] {
                let parallel = ExactSummarizer {
                    workers,
                    fan_out_threshold,
                    ..ExactSummarizer::paper()
                }
                .summarize(&problem)
                .unwrap();
                prop_assert_eq!(
                    parallel.utility.to_bits(),
                    sequential.utility.to_bits(),
                    "workers {} threshold {}", workers, fan_out_threshold
                );
                prop_assert_eq!(
                    parallel.speech.facts(),
                    sequential.speech.facts(),
                    "workers {} threshold {}", workers, fan_out_threshold
                );
                prop_assert_eq!(parallel.timed_out, sequential.timed_out);
                prop_assert_eq!(parallel.base_error.to_bits(), sequential.base_error.to_bits());
            }
        }
    }

    // The catalog build equals the naive reference group by group, for
    // scope sizes up to three.
    #[test]
    fn catalog_build_matches_naive_reference(
        relation in arb_wide_relation(),
        max_dims in 1usize..=3,
        picks in prop::collection::vec(0usize..4096, 0..3),
    ) {
        let catalog = FactCatalog::build(&relation, &[0, 1, 2, 3], max_dims).unwrap();
        let subsets = (0u32..16).filter(|m| m.count_ones() as usize <= max_dims).count();
        prop_assert_eq!(catalog.groups().len(), subsets);
        // Gains are compared after a few applies, so residuals differ
        // from row to row.
        let mut state = ResidualState::new(&relation);
        let mut arena = UndoArena::new();
        for pick in picks {
            let id = pick % catalog.len();
            state.apply_indexed(catalog.fact_rows(id), catalog.fact_devs(id), &mut arena);
        }
        let mut counters = Instrumentation::default();
        let mut next_fact = 0;
        for (g, group) in catalog.groups().iter().enumerate() {
            let (facts, of_row) = naive_group(&relation, &group.cols);
            prop_assert_eq!(group.fact_start, next_fact);
            prop_assert_eq!(group.fact_count, facts.len());
            next_fact += facts.len();
            for (row, &slot) in of_row.iter().enumerate() {
                prop_assert_eq!(group.fact_of_row(row), group.fact_start + slot);
            }
            let gains = catalog.group_gains(&relation, &state, g, &mut counters);
            for (slot, want) in facts.iter().enumerate() {
                let id = group.fact_start + slot;
                let got = catalog.fact(id);
                prop_assert_eq!(&got.scope, &want.scope);
                prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
                prop_assert_eq!(got.support, want.support);
                let rows: Vec<u32> = (0..relation.len() as u32)
                    .filter(|&r| of_row[r as usize] == slot)
                    .collect();
                prop_assert_eq!(catalog.fact_rows(id), rows.as_slice());
                let devs: Vec<u64> = rows
                    .iter()
                    .map(|&r| (want.value - relation.target(r as usize)).abs().to_bits())
                    .collect();
                let got_devs: Vec<u64> = catalog.fact_devs(id).iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(got_devs, devs);
                let direct = state.gain_of(&relation, want);
                prop_assert!(
                    (gains[slot] - direct).abs() <= 1e-9 * direct.abs().max(1.0),
                    "fact {id}: {} vs {direct}", gains[slot]
                );
            }
        }
        prop_assert_eq!(next_fact, catalog.len());
    }

    // The indexed exact search still matches the brute-force optimum.
    #[test]
    fn indexed_exact_matches_brute_force(relation in arb_relation()) {
        let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
        let problem = Problem::new(&relation, &catalog, 2).unwrap();
        let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
        let brute = BruteForceSummarizer.summarize(&problem).unwrap();
        prop_assert!((exact.utility - brute.utility).abs() < 1e-9);
    }
}

/// The indexed kernel touches exactly the in-scope rows: solving with the
/// exact summarizer reports index row touches but no scan-based gain
/// touches from the DFS (the single-fact utility pass still scans).
#[test]
fn exact_search_runs_on_the_index() {
    let data: Vec<(Vec<&str>, f64)> = (0..60)
        .map(|i| {
            let a = ["x", "y", "z"][i % 3];
            let b = ["p", "q"][i % 2];
            (vec![a, b], (i % 13) as f64)
        })
        .collect();
    let relation = EncodedRelation::from_rows(&["a", "b"], "y", data, Prior::GlobalMean).unwrap();
    let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
    let problem = Problem::new(&relation, &catalog, 3).unwrap();
    let summary = ExactSummarizer::paper().summarize(&problem).unwrap();
    assert!(summary.instrumentation.index_row_touches > 0);
    assert!(summary.instrumentation.nodes_expanded > 0);
}
