//! End-to-end integration: data set → configuration → service facade →
//! speech store → text-to-query extraction → typed answers, plus the
//! deployment-log classification pipeline — the whole Fig. 2 system in
//! one test file, driven through [`vqs_engine::service::VoiceService`].

use vqs_baseline::sampling::{vocalize, SamplingConfig};
use vqs_core::prelude::*;
use vqs_data::{DimSpec, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;

fn dataset() -> vqs_data::GeneratedDataset {
    SynthSpec {
        name: "e2e-flights".to_string(),
        dims: vec![
            DimSpec::named("season", &["Spring", "Summer", "Fall", "Winter"]),
            DimSpec::named("region", &["East", "South", "West", "North"]),
            DimSpec::synthetic("airline", "airline", 5, 0.5),
        ],
        targets: vec![
            TargetSpec::new("cancelled", 60.0, 25.0, 10.0, (0.0, 1000.0))
                .with_dim_weights(&[1.0, 0.4, 0.7]),
        ],
        rows: 1_500,
    }
    .generate(0xE2E, 1.0)
}

fn config() -> Configuration {
    Configuration::new(
        "e2e-flights",
        &["season", "region", "airline"],
        &["cancelled"],
    )
}

#[test]
fn register_and_answer_with_every_summarizer() {
    let data = dataset();
    let summarizers: Vec<Box<dyn Summarizer + Send + Sync>> = vec![
        Box::new(GreedySummarizer::base()),
        Box::new(GreedySummarizer::with_naive_pruning()),
        Box::new(GreedySummarizer::with_optimized_pruning()),
    ];
    let mut utilities: Vec<f64> = Vec::new();
    for summarizer in summarizers {
        let service = ServiceBuilder::new()
            .workers(4)
            .summarizer_box(summarizer)
            .build();
        let report = service
            .register_dataset(TenantSpec::new("e2e", data.clone(), config()))
            .unwrap();
        assert_eq!(report.queries, report.speeches);
        let store = service.tenant_store("e2e").unwrap();
        assert!(store.len() > 20);
        // The overall query must always be answerable.
        let overall = store.get(&Query::of("cancelled", &[])).unwrap();
        assert!(overall.utility >= 0.0);
        assert!(!overall.text().is_empty());
        utilities.push(overall.utility);
    }
    // All greedy variants agree on the selected utility.
    assert!((utilities[0] - utilities[1]).abs() < 1e-9);
    assert!((utilities[0] - utilities[2]).abs() < 1e-9);
}

#[test]
fn stored_speeches_respect_configuration_limits() {
    let data = dataset();
    let mut config = config();
    config.speech_length = 2;
    config.max_fact_dimensions = 1;
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(TenantSpec::new("e2e", data, config))
        .unwrap();
    let store = service.tenant_store("e2e").unwrap();
    for query in store.queries() {
        let speech = store.get(&query).unwrap();
        assert!(speech.facts.len() <= 2, "{query}");
        for fact in &speech.facts {
            assert!(fact.scope.len() <= 1, "{query}: {:?}", fact.scope);
            // Fact scopes never repeat a query predicate's dimension.
            for (dim, _) in &fact.scope {
                assert!(
                    !query.predicates().iter().any(|(qd, _)| qd == dim),
                    "{query} fact restricts fixed dimension {dim}"
                );
            }
        }
    }
}

#[test]
fn voice_round_trip_through_the_facade() {
    let data = dataset();
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(
            TenantSpec::new("e2e", data, config())
                .template(
                    "cancelled",
                    SpeechTemplate::per_mille("cancellation probability", "flights"),
                )
                .target_synonyms("cancelled", &["cancellations"]),
        )
        .unwrap();

    // Example 5's query shape works end to end, statelessly.
    let response = service.respond(&ServiceRequest::new("e2e", "cancellations in Winter?"));
    assert!(matches!(response.request, Some(Request::Query(_))));
    assert!(matches!(
        response.answer,
        Answer::Speech {
            kept_predicates: None,
            ..
        }
    ));
    assert!(response.text().contains("For season Winter"));
    assert!(response.text().contains("out of 1000 flights"));

    // Three predicates exceed the pre-processed query length: the store
    // falls back to the most specific generalization (§III).
    let response = service.respond(&ServiceRequest::new(
        "e2e",
        "cancellations in Winter in the East on airline0",
    ));
    assert!(response.speaking_secs > 0.0);
    assert!(!response.text().is_empty());

    // Repeat replays verbatim — in a stateful session.
    let mut session = service.session("e2e").unwrap();
    let first = session.answer("cancellations in Winter in the East on airline0");
    let repeated = session.answer("repeat");
    assert_eq!(repeated.text(), first.text());

    // An unknown tenant is a typed answer, not a panic.
    let unknown = service.respond(&ServiceRequest::new("nope", "cancellations in Winter?"));
    assert!(matches!(unknown.answer, Answer::UnknownTenant { .. }));
}

#[test]
fn fallback_lookup_prefers_most_specific_generalization() {
    let data = dataset();
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(TenantSpec::new("e2e", data, config()))
        .unwrap();
    let store = service.tenant_store("e2e").unwrap();
    // A three-predicate query was never pre-processed (max length 2).
    let query = Query::of(
        "cancelled",
        &[
            ("season", "Winter"),
            ("region", "East"),
            ("airline", "airline0"),
        ],
    );
    match store.lookup(&query) {
        Lookup::Generalized {
            speech,
            kept_predicates,
        } => {
            assert_eq!(kept_predicates, 2);
            // The served speech's predicates are a subset of the query's.
            for predicate in speech.query.predicates() {
                assert!(query.predicates().contains(predicate));
            }
        }
        other => panic!("expected generalized lookup, got {other:?}"),
    }
}

#[test]
fn baseline_answers_same_queries_with_ranges() {
    let data = dataset();
    let config = config();
    let relation = target_relation(&data, &config, "cancelled").unwrap();
    let items = enumerate_queries(&relation, &config, "cancelled");
    let winter = items
        .iter()
        .find(|i| i.query == Query::of("cancelled", &[("season", "Winter")]))
        .unwrap();
    let subset = relation.subset(&winter.rows).unwrap();
    let result = vocalize(
        &subset,
        &[1, 2],
        2,
        &SamplingConfig {
            seed: 5,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!result.facts.is_empty());
    assert!(result.text.contains("between"));
    assert!(result.latency <= result.total);
}

#[test]
fn deployment_log_pipeline_matches_table3() {
    let data = dataset();
    let config = config();
    let relation = target_relation(&data, &config, "cancelled").unwrap();
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(
            TenantSpec::new("e2e", data, config)
                .target_synonyms("cancelled", &["cancellations"])
                .unavailable_markers(&["flight"]),
        )
        .unwrap();
    for (i, mix) in TABLE3.iter().enumerate() {
        let log = generate_log(&relation, "cancellations", mix, 900 + i as u64);
        let counts = service.replay("e2e", &log).unwrap();
        assert_eq!(
            counts,
            [mix.help, mix.repeat, mix.s_query, mix.u_query, mix.other],
            "{}",
            mix.name
        );
    }
}

#[test]
fn facade_preprocessing_is_deterministic_in_pool_size() {
    let data = dataset();
    let run = |workers: usize| {
        let service = ServiceBuilder::new().workers(workers).build();
        service
            .register_dataset(TenantSpec::new("e2e", data.clone(), config()))
            .unwrap();
        let store = service.tenant_store("e2e").unwrap();
        let mut texts: Vec<(String, String)> = store
            .queries()
            .into_iter()
            .map(|q| (q.to_string(), store.get(&q).unwrap().text()))
            .collect();
        texts.sort();
        texts
    };
    assert_eq!(run(1), run(8));
}
