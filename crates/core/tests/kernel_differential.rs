//! Differential tests of the cell-ordered solver hot path.
//!
//! Three invariants protect the catalog build and the indexed kernel,
//! each checked against naive scope matching:
//!
//! 1. The catalog's cell-ordered kernel (`gain_indexed`/`apply_indexed`/
//!    `revert_frame`) agrees with the full-scan implementations
//!    (`gain_of`/`apply_fact`) on random relations, and reverts are
//!    bit-exact. The unrolled (auto-vectorizable) `gain_indexed` sweeps
//!    additionally agree with a single-accumulator sum over the same rows
//!    to 1e-9 (their four partial sums reassociate the additions). Where
//!    every row is lone, each row's deviation, computed from the
//!    cell-ordered targets, matches the scan's to the bit: gains equal the
//!    scan's terms in the kernel's association, and applies equal the
//!    scan's outright.
//! 2. The catalog build agrees with a naive reference — one
//!    `Fact::for_scope` per distinct value combination, in order of first
//!    appearance — on fact order, scopes, value bits, support, the rows
//!    each fact covers and the grouped gains, including three-dimension
//!    groups over a high-cardinality column.
//! 3. A catalog over the rows of one query, built from cells over all
//!    dimensions, summarizes exactly like a catalog over those rows copied
//!    out, and its `speech_error` — summed in row order by walking each
//!    row's cell to its next position — equals `speech_error` over the
//!    copy to the bit, for constant and per-row priors.
//! 4. The greedy's apply, which keeps no undo log (`commit_indexed`),
//!    equals the recording `apply_indexed` bit for bit.
//!
//! Relations are drawn on both sides of the cell-size property the index
//! relies on: clustered ones, where every cell holds several rows (runs),
//! and distinct ones, where every row is alone in its cell (lone rows).

use proptest::prelude::*;

use vqs_core::prelude::*;

/// Build a relation from generated string rows.
fn relation_of(dims: &[&str], rows: Vec<(Vec<String>, f64)>, prior: Prior) -> EncodedRelation {
    let row_refs: Vec<(Vec<&str>, f64)> = rows
        .iter()
        .map(|(v, t)| (v.iter().map(String::as_str).collect(), *t))
        .collect();
    EncodedRelation::from_rows(dims, "y", row_refs, prior).unwrap()
}

/// A random relation over four dimensions, the last with up to 300
/// distinct values, and real-valued targets so that summation order shows
/// in the bits of every average.
fn arb_wide_relation() -> impl Strategy<Value = EncodedRelation> {
    prop::collection::vec(
        (0u32..3, 0u32..5, 0u32..2, 0u32..300, -50.0f64..50.0),
        1..80,
    )
    .prop_map(|rows| {
        let data = rows
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
        relation_of(&["a", "b", "c", "h"], data, Prior::GlobalMean)
    })
}

/// Few low-cardinality dimensions and every cell holding several rows:
/// each drawn row appears twice, once in drawing order and once in
/// reverse, so cells interleave in row order.
fn arb_clustered_relation() -> impl Strategy<Value = EncodedRelation> {
    (
        prop::collection::vec((0u32..3, 0u32..2, -20.0f64..20.0), 1..30),
        -5.0f64..5.0,
    )
        .prop_map(|(rows, prior)| {
            let forward = rows.iter().map(|&(a, b, y)| (a, b, y));
            let backward = rows.iter().rev().map(|&(a, b, y)| (a, b, y + 0.5));
            let data = forward
                .chain(backward)
                .map(|(a, b, y)| (vec![format!("a{a}"), format!("b{b}")], y))
                .collect();
            relation_of(&["a", "b"], data, Prior::Constant(prior))
        })
}

/// Many high-cardinality dimensions, the last one distinct per row, so
/// every row is alone in its cell.
fn arb_distinct_relation() -> impl Strategy<Value = EncodedRelation> {
    prop::collection::vec((0u32..40, 0u32..40, -20.0f64..20.0), 1..40).prop_map(|rows| {
        let data = rows
            .iter()
            .enumerate()
            .map(|(i, &(a, b, y))| (vec![format!("a{a}"), format!("b{b}"), format!("r{i}")], y))
            .collect();
        relation_of(&["a", "b", "r"], data, Prior::GlobalMean)
    })
}

/// A small random relation (2 dimensions, bounded cardinalities): cells of
/// one and of several rows side by side.
fn arb_relation() -> impl Strategy<Value = EncodedRelation> {
    (
        prop::collection::vec((0u32..4, 0u32..3), 1..40),
        0.0f64..30.0,
    )
        .prop_map(|(rows, prior)| {
            let data = rows
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| {
                    (
                        vec![format!("a{a}"), format!("b{b}")],
                        ((i * 7919) % 97) as f64,
                    )
                })
                .collect();
            relation_of(&["a", "b"], data, Prior::Constant(prior))
        })
}

/// Any of the three relation shapes, with its dimensions all free.
fn arb_any_relation() -> impl Strategy<Value = (EncodedRelation, Vec<usize>)> {
    prop_oneof![
        arb_relation().prop_map(|r| (r, vec![0, 1])),
        arb_clustered_relation().prop_map(|r| (r, vec![0, 1])),
        arb_distinct_relation().prop_map(|r| (r, vec![0, 1, 2])),
    ]
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

/// The bits of `values`, so that comparisons tell `-0.0` from `0.0`.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `|a − b| ≤ 1e-9` relative to the larger magnitude (floor 1).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// `terms` summed as the indexed kernel sums a fact's lone rows: four
/// accumulators fed in turn, the remainder into the first, then
/// `(a0 + a1) + (a2 + a3)`.
fn four_wide_sum(terms: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let whole = terms.len() / 4 * 4;
    for (k, &term) in terms[..whole].iter().enumerate() {
        acc[k % 4] += term;
    }
    for &term in &terms[whole..] {
        acc[0] += term;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Apply `picks` to a catalog state and to the row-order scan reference.
fn apply_both(
    relation: &EncodedRelation,
    catalog: &FactCatalog,
    picks: &[usize],
) -> (ResidualState, ResidualState, UndoArena) {
    let mut indexed = catalog.residual_state();
    let mut scan = ResidualState::new(relation);
    let mut arena = UndoArena::new();
    for pick in picks {
        let id = pick % catalog.len();
        indexed.apply_indexed(catalog.fact_index(id), &mut arena);
        scan.apply_fact(relation, &catalog.fact(id));
    }
    (indexed, scan, arena)
}

proptest! {
    // Indexed gains equal full-scan gains for every candidate fact, both
    // from the initial state and after a couple of facts were applied.
    #[test]
    fn indexed_gain_matches_full_scan(
        (relation, dims) in arb_any_relation(),
        picks in prop::collection::vec(0usize..64, 0..3),
    ) {
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let (state, scan, _) = apply_both(&relation, &catalog, &picks);
        for (id, fact) in catalog.facts().enumerate() {
            let indexed = state.gain_indexed(catalog.fact_index(id));
            let want = scan.gain_of(&relation, &fact);
            prop_assert!(close(indexed, want), "fact {id}: {indexed} vs {want}");
        }
    }

    // Applying through the index mutates residuals like the full-scan
    // apply (position `p` holds row `cell_order[p]`), and the arena revert
    // restores the prior state bit-for-bit (residuals *and* running total).
    #[test]
    fn indexed_apply_and_revert_match_full_scan(
        (relation, dims) in arb_any_relation(),
        picks in prop::collection::vec(0usize..64, 1..5),
    ) {
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let cell_order: Vec<usize> = catalog.cell_order().collect();
        let mut scan = ResidualState::new(&relation);
        let mut indexed = catalog.residual_state();
        prop_assert_eq!(indexed.total().to_bits(), scan.total().to_bits());
        let mut arena = UndoArena::new();
        let mut checkpoints: Vec<(Vec<f64>, f64)> = Vec::new();
        for pick in &picks {
            let id = pick % catalog.len();
            checkpoints.push((indexed.residuals().to_vec(), indexed.total()));
            let (scan_gain, _) = scan.apply_fact(&relation, &catalog.fact(id));
            let indexed_gain = indexed.apply_indexed(catalog.fact_index(id), &mut arena);
            prop_assert!(close(indexed_gain, scan_gain));
            for (pos, &row) in cell_order.iter().enumerate() {
                prop_assert_eq!(indexed.residual(pos).to_bits(), scan.residual(row).to_bits());
            }
            prop_assert!(close(indexed.total(), scan.total()));
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

    // The unrolled four-accumulator gain sweeps agree with a
    // single-accumulator sum over the same positions, from the initial
    // residuals and after random applies.
    #[test]
    fn vectorized_gain_sweep_matches_scalar_sweep(
        (relation, dims) in arb_any_relation(),
        picks in prop::collection::vec(0usize..64, 0..3),
    ) {
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let (state, _, _) = apply_both(&relation, &catalog, &picks);
        for id in 0..catalog.len() {
            let index = catalog.fact_index(id);
            let mut scalar = 0.0;
            for pos in index.positions() {
                let improvement =
                    state.residual(pos) - (index.value - index.targets[pos]).abs();
                if improvement > 0.0 {
                    scalar += improvement;
                }
            }
            let unrolled = state.gain_indexed(index);
            prop_assert!(close(unrolled, scalar), "fact {id}: {unrolled} vs {scalar}");
        }
    }

    // The catalog build equals the naive reference group by group, for
    // scope sizes up to three.
    #[test]
    fn catalog_build_matches_naive_reference(
        (relation, dims) in prop_oneof![
            arb_wide_relation().prop_map(|r| (r, vec![0, 1, 2, 3])),
            arb_any_relation(),
        ],
        max_dims in 1usize..=3,
        picks in prop::collection::vec(0usize..4096, 0..3),
    ) {
        let catalog = FactCatalog::build(&relation, &dims, max_dims).unwrap();
        let full = (1u32 << dims.len()) - 1;
        let subsets = (0..=full).filter(|m| m.count_ones() as usize <= max_dims).count();
        prop_assert_eq!(catalog.groups().len(), subsets);
        // Gains are compared after a few applies, so residuals differ
        // from row to row.
        let (state, scan, _) = apply_both(&relation, &catalog, &picks);
        let mut counters = Instrumentation::default();
        let mut next_fact = 0;
        for (g, group) in catalog.groups().iter().enumerate() {
            let (facts, of_row) = naive_group(&relation, &group.cols);
            prop_assert_eq!(group.fact_start, next_fact);
            prop_assert_eq!(group.fact_count, facts.len());
            next_fact += facts.len();
            let gains = catalog.group_gains(&state, g, &mut counters);
            for (slot, want) in facts.iter().enumerate() {
                let id = group.fact_start + slot;
                let got = catalog.fact(id);
                prop_assert_eq!(&got.scope, &want.scope);
                prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
                prop_assert_eq!(got.support, want.support);
                let rows: Vec<usize> = (0..relation.len()).filter(|&r| of_row[r] == slot).collect();
                prop_assert_eq!(catalog.covered_rows(id), rows);
                prop_assert_eq!(catalog.fact_index(id).len(), want.support);
                let direct = scan.gain_of(&relation, want);
                prop_assert!(close(gains[slot], direct), "fact {id}: {} vs {direct}", gains[slot]);
            }
        }
        prop_assert_eq!(next_fact, catalog.len());
    }

    // Where every row is lone, the index computes each row's deviation
    // from the cell-ordered targets exactly as the scan computes it from
    // the relation: the indexed gain equals the scan's per-row terms
    // summed in the kernel's four-wide association, and equals the scan's
    // gain outright for facts of at most three rows (whose sum the kernel
    // keeps sequential); an indexed apply lowers the same residuals to the
    // same bits and realizes the same gain.
    #[test]
    fn lone_rows_match_the_scan_bit_for_bit(
        relation in arb_distinct_relation(),
        picks in prop::collection::vec(0usize..64, 1..4),
    ) {
        let catalog = FactCatalog::build(&relation, &[0, 1, 2], 2).unwrap();
        let cell_order: Vec<usize> = catalog.cell_order().collect();
        let mut indexed = catalog.residual_state();
        let mut scan = ResidualState::new(&relation);
        let mut arena = UndoArena::new();
        for pick in &picks {
            for (id, fact) in catalog.facts().enumerate() {
                let index = catalog.fact_index(id);
                prop_assert!(index.runs.is_empty());
                let terms: Vec<f64> = index
                    .lone
                    .iter()
                    .map(|&pos| {
                        let row = cell_order[pos as usize];
                        let dev = (fact.value - relation.target(row)).abs();
                        (scan.residual(row) - dev).max(0.0)
                    })
                    .collect();
                let gain = indexed.gain_indexed(index);
                prop_assert_eq!(gain.to_bits(), four_wide_sum(&terms).to_bits(), "fact {}", id);
                if terms.len() < 4 {
                    prop_assert_eq!(gain.to_bits(), scan.gain_of(&relation, &fact).to_bits());
                }
            }
            let id = pick % catalog.len();
            let (scan_gain, _) = scan.apply_fact(&relation, &catalog.fact(id));
            let indexed_gain = indexed.apply_indexed(catalog.fact_index(id), &mut arena);
            prop_assert_eq!(indexed_gain.to_bits(), scan_gain.to_bits());
            for (pos, &row) in cell_order.iter().enumerate() {
                prop_assert_eq!(indexed.residual(pos).to_bits(), scan.residual(row).to_bits());
            }
            prop_assert_eq!(indexed.total().to_bits(), scan.total().to_bits());
        }
    }

    // The greedy's apply without an undo log realizes the same gain and
    // leaves the same residuals and total, to the bit, as the recording
    // apply the backtracking searches use.
    #[test]
    fn commit_matches_the_recording_apply(
        (relation, dims) in prop_oneof![
            arb_relation().prop_map(|r| (r, vec![0, 1])),
            arb_distinct_relation().prop_map(|r| (r, vec![0, 1, 2])),
        ],
        picks in prop::collection::vec(0usize..64, 1..5),
    ) {
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let mut recorded = catalog.residual_state();
        let mut committed = catalog.residual_state();
        let mut arena = UndoArena::new();
        for pick in &picks {
            let index = catalog.fact_index(pick % catalog.len());
            let gain = recorded.apply_indexed(index, &mut arena);
            prop_assert_eq!(committed.commit_indexed(index).to_bits(), gain.to_bits());
            prop_assert_eq!(bits(committed.residuals()), bits(recorded.residuals()));
            prop_assert_eq!(committed.total().to_bits(), recorded.total().to_bits());
        }
    }

    // A catalog over a selection of rows sums a speech's deviations in
    // row order, walking each row's cell to its next position, and so
    // equals the scan over the selected rows copied out, to the bit — with
    // cells of several rows interleaved in row order, and with the prior
    // shared or per row.
    #[test]
    fn selection_speech_error_matches_the_subset(
        (relation, dims) in prop_oneof![
            arb_clustered_relation().prop_map(|r| (r, vec![0, 1])),
            arb_any_relation(),
        ],
        keep in prop::collection::vec(any::<bool>(), 1..80),
        per_row_prior in any::<bool>(),
        speeches in prop::collection::vec(prop::collection::vec(0usize..4096, 0..4), 1..4),
    ) {
        let relation = if per_row_prior {
            let prior = (0..relation.len()).map(|row| (row % 7) as f64 - 3.0).collect();
            relation.with_prior(Prior::PerRow(prior)).unwrap()
        } else {
            relation
        };
        let mut rows: Vec<u32> = (0..relation.len() as u32)
            .filter(|&row| keep[row as usize % keep.len()])
            .collect();
        if rows.is_empty() {
            rows.push(0);
        }
        let cells = RowPartition::new(&relation, &dims);
        let selected =
            FactCatalog::build_over(&relation, &cells, rows.as_slice(), &dims, 0, 2).unwrap();
        let subset = relation.subset(&rows).unwrap();
        let copied = FactCatalog::build(&subset, &dims, 2).unwrap();
        prop_assert_eq!(selected.base_error().to_bits(), base_error(&subset).to_bits());
        for picks in &speeches {
            let ids: Vec<FactId> = picks.iter().map(|pick| pick % selected.len()).collect();
            let facts: Vec<Fact> = ids.iter().map(|&id| copied.fact(id)).collect();
            prop_assert_eq!(
                selected.speech_error(&ids).to_bits(),
                speech_error(&subset, &facts).to_bits(),
                "{:?}", ids
            );
        }
    }

    // The indexed exact search still matches the brute-force optimum.
    #[test]
    fn indexed_exact_matches_brute_force((relation, dims) in arb_any_relation()) {
        let catalog = FactCatalog::build(&relation, &dims, 2).unwrap();
        let problem = Problem::new(&relation, &catalog, 2).unwrap();
        let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
        let brute = BruteForceSummarizer.summarize(&problem).unwrap();
        prop_assert!(close(exact.utility, brute.utility));
    }

    // A query's catalog over its rows, built from cells over every
    // dimension, solves to the same speeches, utility bits and base error
    // bits as a catalog over the query's rows copied out.
    #[test]
    fn query_catalog_matches_subset_catalog(
        (relation, dims) in arb_any_relation(),
        fixed in 0usize..3,
        pick in 0usize..64,
    ) {
        let fixed = fixed % dims.len();
        let value = relation.code(fixed, pick % relation.len());
        let rows: Vec<u32> = (0..relation.len() as u32)
            .filter(|&row| relation.code(fixed, row as usize) == value)
            .collect();
        let free: Vec<usize> = dims.iter().copied().filter(|&d| d != fixed).collect();
        let cells = RowPartition::new(&relation, &dims);
        let selected =
            FactCatalog::build_over(&relation, &cells, rows.as_slice(), &free, 0, 2).unwrap();
        let subset = relation.subset(&rows).unwrap();
        let copied = FactCatalog::build(&subset, &free, 2).unwrap();
        prop_assert_eq!(selected.facts().collect::<Vec<_>>(), copied.facts().collect::<Vec<_>>());
        let on_rows = Problem::new(&relation, &selected, 3).unwrap();
        let on_copy = Problem::new(&subset, &copied, 3).unwrap();
        let solvers: [Box<dyn Summarizer>; 3] = [
            Box::new(GreedySummarizer::base()),
            Box::new(GreedySummarizer::with_optimized_pruning()),
            Box::new(ExactSummarizer::paper()),
        ];
        for solver in &solvers {
            let a = solver.summarize(&on_rows).unwrap();
            let b = solver.summarize(&on_copy).unwrap();
            prop_assert_eq!(a.speech.facts(), b.speech.facts(), "{}", solver.name());
            prop_assert_eq!(a.utility.to_bits(), b.utility.to_bits());
            prop_assert_eq!(a.base_error.to_bits(), b.base_error.to_bits());
            prop_assert_eq!(a.instrumentation, b.instrumentation);
        }
    }
}

/// The indexed kernel touches exactly the in-scope rows: solving with the
/// exact summarizer reports index row touches from the DFS.
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
