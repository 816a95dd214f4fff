//! End-to-end coverage of the staged NL pipeline (tokenize → analyze →
//! plan → execute): a golden utterance corpus spanning every §VIII-D
//! Table III category plus the compound/comparative/aggregate forms the
//! live tier answers, a proptest differential pinning live plan
//! execution to direct `vqs-relalg` evaluation, a row-scan oracle for
//! counts, totals, extremum, scalar minimum and maximum and comparison
//! answers over string, `Int` and `Float` dimensions, the deadline that
//! skips live plans, and the byte-identity guarantee for store-served
//! answers.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqs_data::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_relalg::ops::aggregate::{AggFunc, AggItem};
use vqs_relalg::prelude::{ColumnType, Expr, Field, Plan, Schema, Table, Value};

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

/// With two targets configured, a question that names neither has no
/// target to compute over: it keeps its U-Query label and gets the typed
/// apology. Naming a target builds the plan over that target.
#[test]
fn unnamed_target_of_a_two_target_deployment_apologizes() {
    let data = SynthSpec {
        name: "wait".to_string(),
        dims: vec![
            DimSpec::named("season", &SEASONS),
            DimSpec::named("region", &REGIONS),
        ],
        targets: vec![
            TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
            TargetSpec::new("wait_time", 30.0, 10.0, 4.0, (0.0, 100.0)),
        ],
        rows: 180,
    }
    .generate(0xB2, 1.0);
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(TenantSpec::new(
            "wait",
            data,
            Configuration::new("wait", &["season", "region"], &["delay", "wait_time"]),
        ))
        .unwrap();
    for (utterance, reason) in [
        ("which season is worst in the east", Unsupported::Extremum),
        ("compare winter versus summer", Unsupported::Comparison),
        ("how many in winter", Unsupported::Aggregate),
    ] {
        let response = service.respond(&ServiceRequest::new("wait", utterance));
        assert_eq!(
            response.request,
            Some(Request::Unsupported(reason.clone())),
            "{utterance}"
        );
        match &response.answer {
            Answer::Unsupported { reason: got, text } => {
                assert_eq!(*got, reason, "{utterance}");
                assert!(!text.is_empty(), "{utterance}");
            }
            other => panic!("{utterance}: expected an apology, got {other:?}"),
        }
    }
    for (utterance, target) in [
        ("which season has the most delay in the east", "delay"),
        ("compare wait time for winter versus summer", "wait_time"),
    ] {
        let response = service.respond(&ServiceRequest::new("wait", utterance));
        match &response.answer {
            Answer::Computed { plan, .. } => assert_eq!(plan.target(), target, "{utterance}"),
            other => panic!("{utterance}: expected a computed answer, got {other:?}"),
        }
    }
}

/// The air tenant's data without its Summer rows in the East, so that
/// combination generalizes.
fn without_summer_in_the_east() -> GeneratedDataset {
    let data = dataset(0xA1);
    let rows: Vec<Vec<Value>> = data
        .table
        .iter_rows()
        .filter(|row| !(row[0] == Value::str("Summer") && row[1] == Value::str("East")))
        .collect();
    GeneratedDataset {
        table: Table::from_rows(data.table.schema().clone(), rows).unwrap(),
        ..data
    }
}

/// A request answered past its deadline skips live plans: a count, an
/// extremum, a comparison and a total each answer their typed apology,
/// stamped `StoreOnly`, where a 60-s budget computes them at full
/// quality. A store question is served from the store whatever its
/// deadline, exact hit and generalization alike.
#[test]
fn an_expired_deadline_skips_live_plans_but_not_stored_speeches() {
    let data = without_summer_in_the_east();
    let service = ServiceBuilder::new().workers(1).build();
    service
        .register_dataset(
            TenantSpec::new("air", data, config()).target_synonyms("delay", &["delays"]),
        )
        .unwrap();
    let ask = |utterance: &str, budget: Duration| {
        service.respond(&ServiceRequest::new("air", utterance).with_budget(budget))
    };

    for (utterance, reason) in [
        ("how many delays in Winter", Unsupported::Aggregate),
        ("which season has the most delay", Unsupported::Extremum),
        (
            "compare delay for Winter versus Summer",
            Unsupported::Comparison,
        ),
        ("the total delay in the East", Unsupported::Aggregate),
    ] {
        let expired = ask(utterance, Duration::ZERO);
        assert_eq!(expired.degradation, Degradation::StoreOnly, "{utterance}");
        match &expired.answer {
            Answer::Unsupported { reason: got, .. } => assert_eq!(*got, reason, "{utterance}"),
            other => panic!("{utterance}: expected an apology, got {other:?}"),
        }
        let budgeted = ask(utterance, Duration::from_secs(60));
        assert_eq!(budgeted.degradation, Degradation::None, "{utterance}");
        assert!(
            matches!(budgeted.answer, Answer::Computed { .. }),
            "{utterance}: {:?}",
            budgeted.answer
        );
    }

    for (utterance, kept) in [
        ("delay in Winter in the West?", None),
        ("delay in Summer in the East?", Some(1)),
    ] {
        let response = ask(utterance, Duration::ZERO);
        assert_eq!(response.degradation, Degradation::None, "{utterance}");
        match &response.answer {
            Answer::Speech {
                kept_predicates, ..
            } => assert_eq!(*kept_predicates, kept, "{utterance}"),
            other => panic!("{utterance}: expected a stored speech, got {other:?}"),
        }
    }
}

/// Store hits are byte-identical to the pre-pipeline path: for every
/// stored speech the utterance built from its query returns the *same
/// `Arc`* the store lookup returns, and speaks that speech's own
/// rendering, with no rephrasing on top.
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
            ..
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
        assert_eq!(response.text(), direct.text(), "{utterance}");
        exact_hits += 1;
    }
    // Two targets × (1 overall + 4 seasons + 3 regions + 12 pairs).
    assert_eq!(exact_hits, 40);
}

/// A store answer speaks the speech it serves: its text is the served
/// speech's own rendering, for an exact hit and for a generalization
/// alike. Every season and region pair of both targets is asked; Summer
/// in the East, which the data lacks, generalizes.
#[test]
fn store_answers_speak_the_served_speech() {
    let service = ServiceBuilder::new().workers(1).build();
    service
        .register_dataset(TenantSpec::new(
            "air",
            without_summer_in_the_east(),
            config(),
        ))
        .unwrap();
    let mut hits = [0usize; 2];
    for target in ["delay", "cancelled"] {
        for season in SEASONS {
            for region in REGIONS {
                let utterance = format!("{target} in {season} in {region}");
                let response = service.respond(&ServiceRequest::new("air", &utterance));
                let Answer::Speech {
                    speech,
                    text,
                    kept_predicates,
                } = &response.answer
                else {
                    panic!(
                        "{utterance}: expected a store answer, got {:?}",
                        response.answer
                    );
                };
                assert_eq!(*text, speech.text(), "{utterance}");
                assert_eq!(response.text(), text, "{utterance}");
                hits[usize::from(kept_predicates.is_some())] += 1;
            }
        }
    }
    assert_eq!(hits, [22, 2], "exact hits and generalizations");
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

/// One group's rows as the row-scan oracle saw them.
#[derive(Debug, Clone, Copy)]
struct Scan {
    rows: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl Scan {
    /// The group's average target, `None` when the group is empty.
    fn average(&self) -> Option<f64> {
        (self.rows > 0).then(|| self.sum / self.rows as f64)
    }
}

/// The row-scan oracle: for each value in `groups`, the row count and the
/// sum, minimum and maximum of `target` over the rows whose `group_by`
/// cell holds that value and whose `scope` cells hold theirs. Summed and
/// counted in row order by a plain loop, with no `vqs-relalg` operator
/// involved.
fn row_scan(
    table: &Table,
    target: &str,
    scope: &[(&str, Value)],
    group_by: &str,
    groups: &[Value],
) -> Vec<Scan> {
    let column = |name: &str| table.schema().index_of(name).unwrap();
    let scope: Vec<(usize, &Value)> = scope
        .iter()
        .map(|(name, value)| (column(name), value))
        .collect();
    let (group_col, target_col) = (column(group_by), column(target));
    let empty = Scan {
        rows: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };
    let mut scans = vec![empty; groups.len()];
    for row in 0..table.len() {
        if scope
            .iter()
            .any(|&(col, value)| table.value(row, col) != *value)
        {
            continue;
        }
        let group = groups
            .iter()
            .position(|value| table.value(row, group_col) == *value)
            .expect("every row's group is listed");
        let value = table
            .value(row, target_col)
            .as_f64()
            .expect("numeric target");
        let scan = &mut scans[group];
        scan.rows += 1;
        scan.sum += value;
        scan.min = scan.min.min(value);
        scan.max = scan.max.max(value);
    }
    scans
}

/// The oracle's averages for the groups of `group_by`, scoped by `scope`.
fn scan_averages(
    table: &Table,
    scope: &[(&str, Value)],
    group_by: &str,
    groups: &[Value],
) -> Vec<Option<f64>> {
    row_scan(table, "delay", scope, group_by, groups)
        .iter()
        .map(Scan::average)
        .collect()
}

/// The oracle's average for the group the engine named `name`.
fn oracle_value(names: &[&str], averages: &[Option<f64>], name: &str) -> Option<f64> {
    averages[names.iter().position(|&group| group == name)?]
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9
}

/// An extremum answer over `dimension`'s groups (`names`, with oracle
/// `averages`) names groups whose averages are the asked-for and the
/// opposite end of the present ones. On a tie either group is accepted;
/// an empty subset must apologize rather than voice a NULL.
fn check_extremum(
    question: &str,
    answer: &Answer,
    dimension: &str,
    highest: bool,
    names: &[&str],
    averages: &[Option<f64>],
) -> TestCaseResult {
    let present: Vec<f64> = averages.iter().flatten().copied().collect();
    match answer {
        Answer::Computed {
            value:
                ComputedValue::GroupExtremum {
                    dimension: answered_dimension,
                    best,
                    best_value,
                    other,
                    other_value,
                    highest: answered,
                },
            ..
        } => {
            prop_assert_eq!(answered_dimension.as_str(), dimension, "{}", question);
            prop_assert_eq!(*answered, highest, "{}", question);
            let top = present.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bottom = present.iter().copied().fold(f64::INFINITY, f64::min);
            let (want_best, want_other) = if highest {
                (top, bottom)
            } else {
                (bottom, top)
            };
            for (name, value, want) in [
                (best, *best_value, want_best),
                (other, *other_value, want_other),
            ] {
                let expected = oracle_value(names, averages, name);
                prop_assert!(
                    expected
                        .is_some_and(|expected| close(expected, value) && close(expected, want)),
                    "{}: answered {} at {}, oracle {:?} (want {})",
                    question,
                    name,
                    value,
                    averages,
                    want
                );
            }
        }
        Answer::Unsupported { .. } => prop_assert!(present.is_empty(), "{}", question),
        other => prop_assert!(
            false,
            "{}: unexpected extremum answer {:?}",
            question,
            other
        ),
    }
    Ok(())
}

/// A comparison answer keeps the mention order and voices each side's
/// oracle average; a side with no rows must apologize.
fn check_comparison(
    question: &str,
    answer: &Answer,
    dimension: &str,
    (left, right): (&str, &str),
    names: &[&str],
    averages: &[Option<f64>],
) -> TestCaseResult {
    let (want_left, want_right) = (
        oracle_value(names, averages, left),
        oracle_value(names, averages, right),
    );
    match answer {
        Answer::Computed {
            value:
                ComputedValue::Comparison {
                    dimension: answered_dimension,
                    left: answered_left,
                    left_value,
                    right: answered_right,
                    right_value,
                },
            ..
        } => {
            prop_assert_eq!(answered_dimension.as_str(), dimension, "{}", question);
            prop_assert_eq!(
                (answered_left.as_str(), answered_right.as_str()),
                (left, right),
                "{}",
                question
            );
            prop_assert!(
                want_left.is_some_and(|want| close(want, *left_value))
                    && want_right.is_some_and(|want| close(want, *right_value)),
                "{}: {} vs {}, oracle {:?} vs {:?}",
                question,
                left_value,
                right_value,
                want_left,
                want_right
            );
        }
        Answer::Unsupported { .. } => {
            prop_assert!(want_left.is_none() || want_right.is_none(), "{}", question)
        }
        other => prop_assert!(
            false,
            "{}: unexpected comparison answer {:?}",
            question,
            other
        ),
    }
    Ok(())
}

/// A count answer equals the oracle's row count; an empty subset must
/// apologize.
fn check_count(question: &str, answer: &Answer, rows: usize) -> TestCaseResult {
    match answer {
        Answer::Computed {
            value: ComputedValue::Count { rows: answered },
            ..
        } => prop_assert_eq!(*answered, rows, "{}", question),
        Answer::Unsupported { .. } => prop_assert_eq!(rows, 0, "{}", question),
        other => prop_assert!(false, "{}: unexpected count answer {:?}", question, other),
    }
    Ok(())
}

/// A scalar answer is the `agg` the oracle's `scan` gives (`want`), over
/// as many rows; an empty subset must apologize.
fn check_scalar(
    question: &str,
    answer: &Answer,
    (agg, want): (AggKind, f64),
    scan: &Scan,
) -> TestCaseResult {
    match answer {
        Answer::Computed {
            value:
                ComputedValue::Scalar {
                    agg: answered,
                    value,
                    support,
                },
            ..
        } => {
            prop_assert_eq!(*answered, agg, "{}", question);
            prop_assert_eq!(*support, scan.rows, "{}", question);
            prop_assert!(
                close(*value, want),
                "{}: answered {}, oracle {}",
                question,
                value,
                want
            );
        }
        Answer::Unsupported { .. } => prop_assert_eq!(scan.rows, 0, "{}", question),
        other => prop_assert!(false, "{}: unexpected scalar answer {:?}", question, other),
    }
    Ok(())
}

/// An `Int` and a `Float` dimension with the spelling the engine speaks
/// for each value (the value's display text).
const YEARS: [(i64, &str); 3] = [(2019, "2019"), (2020, "2020"), (2021, "2021")];
const GRADES: [(f64, &str); 3] = [(1.0, "1.0"), (2.5, "2.5"), (4.0, "4.0")];

/// A tenant whose dimensions are not strings: an `Int` year and a
/// `Float` grade, with `delay` as the target.
fn typed_dataset(seed: u64) -> GeneratedDataset {
    let schema = Schema::new(vec![
        Field::required("year", ColumnType::Int),
        Field::required("grade", ColumnType::Float),
        Field::required("delay", ColumnType::Float),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<Value>> = (0..120)
        .map(|_| {
            vec![
                Value::Int(YEARS[rng.gen_range(0..YEARS.len())].0),
                Value::Float(GRADES[rng.gen_range(0..GRADES.len())].0),
                Value::Float((rng.gen_range(0.0..60.0_f64) * 10.0).round() / 10.0),
            ]
        })
        .collect();
    GeneratedDataset {
        name: "typed".to_string(),
        table: Table::from_rows(schema, rows).unwrap(),
        dims: vec!["year".to_string(), "grade".to_string()],
        targets: vec!["delay".to_string()],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Oracle: a region-scoped extremum or comparison question is answered
    // over that region's rows only, with the per-season averages a plain
    // row scan of the generated table gives; a region-scoped total,
    // highest or lowest value is that scan's sum, maximum or minimum.
    #[test]
    fn scoped_extremum_and_comparison_match_a_row_scan(
        seed in 0u64..32,
        region_index in 0usize..REGIONS.len(),
        left_index in 0usize..SEASONS.len(),
        offset in 1usize..SEASONS.len(),
        highest in any::<bool>(),
    ) {
        let data = dataset(seed);
        let service = ServiceBuilder::new().workers(1).build();
        service
            .register_dataset(TenantSpec::new("air", data.clone(), config()))
            .unwrap();
        let region = REGIONS[region_index];
        let averages = scan_averages(
            &data.table,
            &[("region", Value::str(region))],
            "season",
            &SEASONS.map(Value::str),
        );
        let ask = |question: String| {
            let answer = service.respond(&ServiceRequest::new("air", &question)).answer;
            (question, answer)
        };

        let polarity = if highest { "most" } else { "lowest" };
        let (question, answer) =
            ask(format!("which season has the {polarity} delay in the {region}"));
        check_extremum(&question, &answer, "season", highest, &SEASONS, &averages)?;

        let sides = (SEASONS[left_index], SEASONS[(left_index + offset) % SEASONS.len()]);
        let (question, answer) =
            ask(format!("compare delay for {} versus {} in the {region}", sides.0, sides.1));
        check_comparison(&question, &answer, "season", sides, &SEASONS, &averages)?;

        // No dimension named: a total, a highest and a lowest value over
        // the region's rows.
        let scan = row_scan(&data.table, "delay", &[], "region", &REGIONS.map(Value::str))
            [region_index];
        for (question, want) in [
            ("the total delay", (AggKind::Sum, scan.sum)),
            ("the highest delay", (AggKind::Max, scan.max)),
            ("the lowest delay", (AggKind::Min, scan.min)),
        ] {
            let (question, answer) = ask(format!("{question} in the {region}"));
            check_scalar(&question, &answer, want, &scan)?;
        }
    }

    // The same oracle over a tenant whose dimensions are an `Int` and a
    // `Float`: counts scoped by either dimension, and extrema and
    // comparisons grouped on each, unscoped and scoped by the other. The
    // engine names each value by its display text.
    #[test]
    fn int_and_float_dimensions_match_a_row_scan(
        seed in 0u64..32,
        scope_index in 0usize..YEARS.len(),
        left_index in 0usize..YEARS.len(),
        offset in 1usize..YEARS.len(),
        highest in any::<bool>(),
    ) {
        let data = typed_dataset(seed);
        let service = ServiceBuilder::new().workers(1).build();
        let config = Configuration::new("typed", &["year", "grade"], &["delay"]);
        service
            .register_dataset(TenantSpec::new("typed", data.clone(), config))
            .unwrap();
        let ask = |question: String| {
            let answer = service.respond(&ServiceRequest::new("typed", &question)).answer;
            (question, answer)
        };
        let years = YEARS.map(|(year, _)| Value::Int(year));
        let grades = GRADES.map(|(grade, _)| Value::Float(grade));
        let year_names = YEARS.map(|(_, name)| name);
        let grade_names = GRADES.map(|(_, name)| name);
        let polarity = if highest { "most" } else { "lowest" };

        for (dimension, values, names, scope) in [
            ("year", &years, &year_names, ("grade", &grades, &grade_names)),
            ("grade", &grades, &grade_names, ("year", &years, &year_names)),
        ] {
            let (question, answer) = ask(format!("how many delay in {}", names[scope_index]));
            let rows = row_scan(&data.table, "delay", &[], dimension, values)[scope_index].rows;
            check_count(&question, &answer, rows)?;

            let (scope_dimension, scope_values, scope_names) = scope;
            for scoped in [false, true] {
                let (suffix, filter) = if scoped {
                    (
                        format!(" in {}", scope_names[scope_index]),
                        vec![(scope_dimension, scope_values[scope_index].clone())],
                    )
                } else {
                    (String::new(), vec![])
                };
                let averages = scan_averages(&data.table, &filter, dimension, values);
                let (question, answer) =
                    ask(format!("which {dimension} has the {polarity} delay{suffix}"));
                check_extremum(&question, &answer, dimension, highest, names, &averages)?;

                let sides = (names[left_index], names[(left_index + offset) % names.len()]);
                let (question, answer) =
                    ask(format!("compare delay for {} versus {}{suffix}", sides.0, sides.1));
                check_comparison(&question, &answer, dimension, sides, names, &averages)?;
            }
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
            ..
        } => {
            assert_eq!(kept_predicates, &None);
            assert_eq!(speech.query, hint.query);
        }
        other => panic!("follow-on should hit the store, got {other:?}"),
    }
}
