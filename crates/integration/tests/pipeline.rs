//! End-to-end coverage of the staged NL pipeline (tokenize → analyze →
//! plan → execute): a golden utterance corpus spanning every §VIII-D
//! Table III category plus the compound/comparative/aggregate forms the
//! live tier answers, a proptest differential pinning live plan
//! execution to direct `vqs-relalg` evaluation, and the byte-identity
//! guarantee for store-served answers.

use std::sync::Arc;

use proptest::prelude::*;
use vqs_data::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_relalg::ops::aggregate::{AggFunc, AggItem};
use vqs_relalg::prelude::{Expr, Plan};

const SEASONS: [&str; 4] = ["Winter", "Spring", "Summer", "Fall"];
const REGIONS: [&str; 3] = ["East", "West", "North"];

fn dataset(seed: u64) -> GeneratedDataset {
    SynthSpec {
        name: "air".to_string(),
        dims: vec![
            DimSpec::named("season", &SEASONS),
            DimSpec::named("region", &REGIONS),
        ],
        targets: vec![
            TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
            TargetSpec::new("cancelled", 30.0, 10.0, 4.0, (0.0, 1000.0)),
        ],
        rows: 180,
    }
    .generate(seed, 1.0)
}

fn config() -> Configuration {
    Configuration::new("air", &["season", "region"], &["delay", "cancelled"])
}

fn service() -> VoiceService {
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("air", dataset(0xA1), config())
                .target_synonyms("delay", &["delays"])
                .unavailable_markers(&["flight"]),
        )
        .unwrap();
    service
}

/// The golden corpus: every Table III category, exercised through the
/// full `ServiceRequest → pipeline → Answer` path, with the expected
/// label AND the expected answer tier.
#[test]
fn golden_corpus_labels_and_answer_tiers() {
    let service = service();
    // (utterance, Table III label, expected answer shape)
    enum Want {
        Help,
        Speech,
        Computed,
        Unsupported,
    }
    let corpus: Vec<(&str, &str, Want)> = vec![
        // Help.
        ("help", "Help", Want::Help),
        ("what can you do", "Help", Want::Help),
        ("how do i use this", "Help", Want::Help),
        // Repeat (stateless respond has no history → guidance).
        ("repeat that", "Repeat", Want::Help),
        ("say that again", "Repeat", Want::Help),
        // S-Query: the store answers, including two-predicate hits
        // (max_query_length is 2) and the no-predicate overall.
        ("delay in Winter?", "S-Query", Want::Speech),
        ("delay in Winter", "S-Query", Want::Speech),
        ("cancelled in the East", "S-Query", Want::Speech),
        ("delay in Summer in the West", "S-Query", Want::Speech),
        ("what is the delay", "S-Query", Want::Speech),
        // U-Query, extremum form: live tier two computes it.
        ("which season has the most delay", "U-Query", Want::Computed),
        (
            "which region has the least cancelled",
            "U-Query",
            Want::Computed,
        ),
        (
            "which region has the lowest cancelled",
            "U-Query",
            Want::Computed,
        ),
        (
            "which season is worst for delays in the east",
            "U-Query",
            Want::Computed,
        ),
        // U-Query, comparative form.
        (
            "compare delay for Winter versus Summer",
            "U-Query",
            Want::Computed,
        ),
        (
            "what is the difference between delays in the East and the West",
            "U-Query",
            Want::Computed,
        ),
        // U-Query, aggregate forms (counts and totals).
        ("how many delays in Winter", "U-Query", Want::Computed),
        ("the total cancelled in the East", "U-Query", Want::Computed),
        // U-Query, out-of-deployment marker: stays a typed apology.
        (
            "delay of flight UA one twenty three",
            "U-Query",
            Want::Unsupported,
        ),
        // Other.
        ("tell me a joke", "Other", Want::Help),
        ("thank you", "Other", Want::Help),
        ("play some music", "Other", Want::Help),
    ];
    for (utterance, label, want) in corpus {
        let response = service.respond(&ServiceRequest::new("air", utterance));
        assert_eq!(response.label(), label, "{utterance}");
        assert!(!response.text().is_empty(), "{utterance}");
        match want {
            Want::Help => assert!(
                matches!(response.answer, Answer::Help { .. }),
                "{utterance}: {:?}",
                response.answer
            ),
            Want::Speech => assert!(
                response.answer.is_speech(),
                "{utterance}: {:?}",
                response.answer
            ),
            Want::Computed => assert!(
                matches!(response.answer, Answer::Computed { .. }),
                "{utterance}: {:?}",
                response.answer
            ),
            Want::Unsupported => assert!(
                matches!(response.answer, Answer::Unsupported { .. }),
                "{utterance}: {:?}",
                response.answer
            ),
        }
    }
}

/// The typed plans behind the computed answers carry the recognized
/// structure, not just rendered text.
#[test]
fn computed_answers_expose_their_plans() {
    let service = service();
    let extremum = service.respond(&ServiceRequest::new(
        "air",
        "which season is worst for delays in the east",
    ));
    let Answer::Computed { plan, value, .. } = &extremum.answer else {
        panic!("expected a computed answer, got {:?}", extremum.answer);
    };
    assert_eq!(
        *plan,
        QueryPlan::GroupExtremum {
            target: "delay".into(),
            predicates: vec![("region".into(), "East".into())],
            dimension: "season".into(),
            highest: true,
        }
    );
    assert!(matches!(value, ComputedValue::GroupExtremum { .. }));

    let comparison = service.respond(&ServiceRequest::new(
        "air",
        "compare delay for Winter versus Summer",
    ));
    let Answer::Computed { plan, .. } = &comparison.answer else {
        panic!("expected a computed answer, got {:?}", comparison.answer);
    };
    assert_eq!(
        *plan,
        QueryPlan::Comparison {
            target: "delay".into(),
            predicates: vec![],
            dimension: "season".into(),
            left: "Winter".into(),
            right: "Summer".into(),
        }
    );

    let count = service.respond(&ServiceRequest::new("air", "how many delays in Winter"));
    let Answer::Computed { plan, value, .. } = &count.answer else {
        panic!("expected a computed answer, got {:?}", count.answer);
    };
    assert_eq!(
        *plan,
        QueryPlan::Aggregate {
            target: "delay".into(),
            predicates: vec![("season".into(), "Winter".into())],
            agg: AggKind::Count,
        }
    );
    // The count is exactly the subset size in the live data.
    let data = dataset(0xA1);
    let season = data.table.schema().index_of("season").unwrap();
    let winter_rows = (0..data.table.len())
        .filter(|&row| {
            data.table.value(row, season) == vqs_relalg::prelude::Value::Str("Winter".into())
        })
        .count();
    assert_eq!(*value, ComputedValue::Count { rows: winter_rows });
}

/// Store hits are byte-identical to the pre-pipeline path: for every
/// stored speech the utterance built from its query returns the *same
/// `Arc`* the store lookup returns, with no rephrasing on top.
#[test]
fn store_hits_are_byte_identical_to_direct_lookup() {
    let service = service();
    let store = service.tenant_store("air").unwrap();
    let mut exact_hits = 0usize;
    for stored in store.snapshot() {
        let mut utterance = stored.query.target().to_string();
        for (_, value) in stored.query.predicates() {
            utterance.push_str(&format!(" in {value}"));
        }
        let response = service.respond(&ServiceRequest::new("air", &utterance));
        let Answer::Speech {
            speech,
            kept_predicates,
        } = &response.answer
        else {
            panic!(
                "{utterance}: expected a store hit, got {:?}",
                response.answer
            );
        };
        assert_eq!(kept_predicates, &None, "{utterance}");
        assert!(
            Arc::ptr_eq(speech, &stored),
            "{utterance}: served a different speech than stored"
        );
        // And the direct (pre-pipeline) lookup agrees pointer-for-pointer.
        let Lookup::Exact(direct) = store.lookup(&stored.query) else {
            panic!("{utterance}: direct lookup missed");
        };
        assert!(Arc::ptr_eq(&direct, &stored));
        assert_eq!(response.text(), direct.text);
        exact_hits += 1;
    }
    // Two targets × (1 overall + 4 seasons + 3 regions + 12 pairs).
    assert_eq!(exact_hits, 40);
}

/// Build the reference answer with `vqs-relalg` directly: σ(predicates)
/// → Γ(avg(target), count(*)).
fn direct_average(
    data: &GeneratedDataset,
    target: &str,
    predicates: &[(&str, &str)],
) -> (Option<f64>, usize) {
    let schema = data.table.schema();
    let mut plan = Plan::shared(Arc::new(data.table.clone()));
    for (dim, value) in predicates {
        let col = Expr::col(schema.index_of(dim).unwrap());
        plan = plan.filter(col.eq(Expr::lit(*value)));
    }
    let target_col = Expr::col(schema.index_of(target).unwrap());
    let result = plan
        .aggregate(
            vec![],
            vec![],
            vec![
                AggItem::new(AggFunc::Avg, target_col.clone(), "value"),
                AggItem::new(AggFunc::CountAll, target_col, "support"),
            ],
        )
        .execute()
        .unwrap();
    let support = match result.value(0, 1) {
        vqs_relalg::prelude::Value::Int(n) => n as usize,
        other => panic!("unexpected support value {other:?}"),
    };
    (result.value(0, 0).as_f64(), support)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Differential: the live tier's conjunctive average (tier two for
    // queries beyond the pre-processed length) equals direct
    // `vqs-relalg` evaluation of σ → Γ over the same data, for every
    // (seed, season, region) subset — including empty subsets, which
    // must apologize rather than voice a NULL.
    #[test]
    fn live_conjunctive_average_matches_direct_relalg(
        seed in 0u64..32,
        season_index in 0usize..SEASONS.len(),
        region_index in 0usize..REGIONS.len(),
    ) {
        let data = dataset(seed);
        let mut narrow = config();
        // One-predicate stores force two-predicate questions onto the
        // live path.
        narrow.max_query_length = 1;
        let service = ServiceBuilder::new().workers(1).build();
        service
            .register_dataset(
                TenantSpec::new("air", data.clone(), narrow).target_synonyms("delay", &["delays"]),
            )
            .unwrap();
        let season = SEASONS[season_index];
        let region = REGIONS[region_index];
        let response = service.respond(&ServiceRequest::new(
            "air",
            format!("delays in {season} in the {region}"),
        ));
        prop_assert_eq!(response.label(), "U-Query");
        let (expected, support) =
            direct_average(&data, "delay", &[("region", region), ("season", season)]);
        match &response.answer {
            Answer::Computed { plan, value, .. } => {
                prop_assert_eq!(
                    plan,
                    &QueryPlan::Aggregate {
                        target: "delay".into(),
                        predicates: vec![
                            ("region".into(), region.into()),
                            ("season".into(), season.into()),
                        ],
                        agg: AggKind::Avg,
                    }
                );
                prop_assert_eq!(
                    value,
                    &ComputedValue::Scalar {
                        agg: AggKind::Avg,
                        value: expected.expect("non-empty subset has an average"),
                        support,
                    }
                );
            }
            Answer::Unsupported { .. } => {
                // Only acceptable when the subset is genuinely empty.
                prop_assert_eq!(support, 0, "{} {}", season, region);
            }
            other => prop_assert!(false, "unexpected answer {:?}", other),
        }
    }
}

/// Follow-on hints ride along on both store hits and computed answers,
/// and always point at a stored summary one predicate deeper.
#[test]
fn follow_on_hints_point_at_adjacent_summaries() {
    let service = service();
    let store = service.tenant_store("air").unwrap();
    let hit = service.respond(&ServiceRequest::new("air", "delay in Winter?"));
    assert!(hit.answer.is_speech());
    let hint = hit.follow_on.expect("Winter has stored extensions");
    assert_eq!(hint.query.len(), 2);
    assert!(matches!(store.lookup(&hint.query), Lookup::Exact(_)));
    assert!(hint.utterance.ends_with('?'));

    // Asking the suggested follow-on is itself an exact store hit.
    let followed = service.respond(&ServiceRequest::new("air", &hint.utterance));
    match &followed.answer {
        Answer::Speech {
            speech,
            kept_predicates,
        } => {
            assert_eq!(kept_predicates, &None);
            assert_eq!(speech.query, hint.query);
        }
        other => panic!("follow-on should hit the store, got {other:?}"),
    }
}
