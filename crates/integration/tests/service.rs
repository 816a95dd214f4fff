//! Integration hardening for the multi-tenant [`VoiceService`] facade:
//! pool-size determinism of facade-built stores, multi-tenant
//! isolation, and concurrent traffic against refreshes.

use std::sync::Arc;

use vqs_core::prelude::GreedySummarizer;
use vqs_data::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_relalg::prelude::{Table, Value};

fn dataset(seed: u64) -> GeneratedDataset {
    SynthSpec {
        name: "svc".to_string(),
        dims: vec![
            DimSpec::named("season", &["Winter", "Spring", "Summer", "Fall"]),
            DimSpec::named("region", &["East", "West", "North"]),
        ],
        targets: vec![
            TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
            TargetSpec::new("cancelled", 30.0, 10.0, 4.0, (0.0, 1000.0)),
        ],
        rows: 420,
    }
    .generate(seed, 1.0)
}

fn config() -> Configuration {
    Configuration::new("svc", &["season", "region"], &["delay", "cancelled"])
}

/// The acceptance criterion: for the same dataset and configuration, the
/// facade-built store is byte-identical (snapshot equality, including
/// float formatting) regardless of pool size — a 1-worker, 2-worker, and
/// 8-worker registration all produce exactly the same store and reports.
#[test]
fn facade_store_is_pool_size_deterministic() {
    let data = dataset(0xFACADE);
    let mut reference: Option<(Vec<Arc<StoredSpeech>>, PreprocessReport)> = None;
    for workers in [1usize, 2, 8] {
        let service = ServiceBuilder::new()
            .workers(workers)
            .summarizer(GreedySummarizer::with_optimized_pruning())
            .build();
        assert_eq!(service.pool_workers(), workers);
        let report = service
            .register_dataset(TenantSpec::new("svc", data.clone(), config()))
            .unwrap();
        let snapshot = service.tenant_store("svc").unwrap().snapshot();
        match &reference {
            None => reference = Some((snapshot, report)),
            Some((expected, expected_report)) => {
                assert_eq!(report.queries, expected_report.queries);
                assert_eq!(report.speeches, expected_report.speeches);
                // Instrumentation totals are merged in job order on
                // every path: exactly equal, not just approximately.
                assert_eq!(report.instrumentation, expected_report.instrumentation);
                assert_eq!(&snapshot, expected, "{workers} pool workers");
                assert_eq!(
                    format!("{snapshot:?}"),
                    format!("{expected:?}"),
                    "byte-identical including float formatting ({workers} workers)"
                );
            }
        }
    }
}

/// Two tenants with the same schema but different data answer the same
/// utterance differently, and their stats stay isolated.
#[test]
fn tenants_are_isolated() {
    let service = ServiceBuilder::new().workers(2).build();
    for (name, seed) in [("alpha", 11u64), ("beta", 99u64)] {
        service
            .register_dataset(TenantSpec::new(name, dataset(seed), config()))
            .unwrap();
    }
    assert_eq!(
        service.tenants(),
        vec!["alpha".to_string(), "beta".to_string()]
    );

    let utterance = "delay in Winter?";
    let a = service.respond(&ServiceRequest::new("alpha", utterance));
    let b = service.respond(&ServiceRequest::new("beta", utterance));
    let (Answer::Speech { speech: sa, .. }, Answer::Speech { speech: sb, .. }) =
        (&a.answer, &b.answer)
    else {
        panic!("both tenants must answer with speeches: {a:?} / {b:?}");
    };
    assert_eq!(sa.query, sb.query, "same classified query");
    assert_ne!(sa.text, sb.text, "different data, different answer");

    // Store counters are per tenant: only alpha served the second probe.
    service.respond(&ServiceRequest::new("alpha", "delay in Summer?"));
    let stats = service.stats();
    assert_eq!(stats.tenants[0].tenant, "alpha");
    assert_eq!(stats.tenants[0].store.lookups, 2);
    assert_eq!(stats.tenants[1].store.lookups, 1);
    assert_eq!(stats.total_requests(), 3);

    // Evicting one tenant leaves the other fully answerable.
    assert!(service.evict_tenant("alpha"));
    let gone = service.respond(&ServiceRequest::new("alpha", utterance));
    assert!(matches!(gone.answer, Answer::UnknownTenant { .. }));
    let still = service.respond(&ServiceRequest::new("beta", utterance));
    assert!(still.answer.is_speech());
}

/// Rebuild the dataset's table with `mutate` applied to every row.
fn rebuild_with(
    dataset: &GeneratedDataset,
    mut mutate: impl FnMut(usize, &mut Vec<Value>),
) -> GeneratedDataset {
    let schema = dataset.table.schema().clone();
    let rows: Vec<Vec<Value>> = dataset
        .table
        .iter_rows()
        .enumerate()
        .map(|(row_index, mut row)| {
            mutate(row_index, &mut row);
            row
        })
        .collect();
    GeneratedDataset {
        name: dataset.name.clone(),
        table: Table::from_rows(schema, rows).unwrap(),
        dims: dataset.dims.clone(),
        targets: dataset.targets.clone(),
    }
}

/// Concurrent `respond` traffic on one tenant while another tenant
/// refreshes: every answer stays well-formed, the refresh lands, and the
/// served tenant's store is untouched.
#[test]
fn concurrent_respond_and_refresh_on_separate_tenants() {
    let service = ServiceBuilder::new().workers(4).build();
    let serving_data = dataset(5);
    let refreshing_data = dataset(6);
    service
        .register_dataset(TenantSpec::new("serving", serving_data, config()))
        .unwrap();
    service
        .register_dataset(TenantSpec::new(
            "refreshing",
            refreshing_data.clone(),
            config(),
        ))
        .unwrap();
    let serving_before = service.tenant_store("serving").unwrap().snapshot();

    // Mutate a slice of the refreshing tenant's delay column.
    let delay_col = refreshing_data.table.schema().index_of("delay").unwrap();
    let changed_rows: Vec<usize> = (0..refreshing_data.table.len()).step_by(3).collect();
    let mutated = rebuild_with(&refreshing_data, |row_index, row| {
        if row_index % 3 == 0 {
            let Value::Float(value) = row[delay_col] else {
                panic!("delay must be a float column");
            };
            row[delay_col] = Value::Float((value + 7.5).min(60.0));
        }
    });

    let utterances = [
        "delay in Winter?",
        "cancelled in the East",
        "delay in Summer in the West",
        "help",
        "which season has the most delay",
    ];
    std::thread::scope(|scope| {
        let service = &service;
        let refresh_handle = scope.spawn({
            let mutated = &mutated;
            let changed_rows = &changed_rows;
            move || {
                service
                    .refresh_tenant("refreshing", mutated, changed_rows)
                    .unwrap()
            }
        });
        for reader in 0..4 {
            let utterances = &utterances;
            scope.spawn(move || {
                for round in 0..200 {
                    for tenant in ["serving", "refreshing"] {
                        let text = utterances[(reader + round) % utterances.len()];
                        let response = service.respond(&ServiceRequest::new(tenant, text));
                        // Mid-refresh every answer must still be whole:
                        // classified, non-empty, and never UnknownTenant.
                        assert!(response.request.is_some());
                        assert!(!response.text().is_empty());
                        assert!(
                            !matches!(response.answer, Answer::UnknownTenant { .. }),
                            "{tenant} vanished mid-refresh"
                        );
                    }
                }
            });
        }
        let report = refresh_handle.join().unwrap();
        assert!(report.recomputed > 0);
    });

    // The refresh landed exactly as a from-scratch registration would.
    let fresh = ServiceBuilder::new().workers(2).build();
    fresh
        .register_dataset(TenantSpec::new("reference", mutated, config()))
        .unwrap();
    assert_eq!(
        service.tenant_store("refreshing").unwrap().snapshot(),
        fresh.tenant_store("reference").unwrap().snapshot()
    );
    // The serving tenant is pointer-identical to before: refreshing a
    // different tenant never touches it.
    let serving_after = service.tenant_store("serving").unwrap().snapshot();
    assert_eq!(serving_before.len(), serving_after.len());
    for (a, b) in serving_before.iter().zip(&serving_after) {
        assert!(Arc::ptr_eq(a, b), "{} was disturbed", a.query);
    }
    // Stats are sorted by tenant name: "refreshing" < "serving".
    let stats = service.stats();
    assert_eq!(stats.tenants[0].tenant, "refreshing");
    assert_eq!(stats.tenants[0].refreshes, 1);
    assert_eq!(stats.tenants[1].refreshes, 0);
}

/// One shared pool drives many tenants' registrations concurrently
/// without mixing up their stores.
#[test]
fn concurrent_registrations_share_the_pool() {
    let service = ServiceBuilder::new().workers(4).build();
    std::thread::scope(|scope| {
        for seed in 0..4u64 {
            let service = &service;
            scope.spawn(move || {
                service
                    .register_dataset(TenantSpec::new(
                        format!("tenant-{seed}"),
                        dataset(seed),
                        config(),
                    ))
                    .unwrap();
            });
        }
    });
    assert_eq!(service.tenants().len(), 4);
    for seed in 0..4u64 {
        let name = format!("tenant-{seed}");
        let reference = ServiceBuilder::new().workers(1).build();
        reference
            .register_dataset(TenantSpec::new("ref", dataset(seed), config()))
            .unwrap();
        assert_eq!(
            service.tenant_store(&name).unwrap().snapshot(),
            reference.tenant_store("ref").unwrap().snapshot(),
            "{name}"
        );
    }
}

/// A facade refresh equals a from-scratch registration over the new
/// data, and entries whose subset did not change stay pointer-stable
/// (the same `Arc` keeps serving).
#[test]
fn facade_refresh_equals_fresh_registration() {
    let before = dataset(0xBEEF);
    let delay_col = before.table.schema().index_of("delay").unwrap();
    let changed_rows = vec![0usize, 7, 13];
    let after = rebuild_with(&before, |row_index, row| {
        if changed_rows.contains(&row_index) {
            let Value::Float(value) = row[delay_col] else {
                panic!("delay must be a float column");
            };
            row[delay_col] = Value::Float((value + 9.0).min(60.0));
        }
    });

    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(TenantSpec::new("svc", before, config()))
        .unwrap();
    let store = service.tenant_store("svc").unwrap();
    let before_snapshot = store.snapshot();
    let report = service
        .refresh_tenant("svc", &after, &changed_rows)
        .unwrap();
    assert!(report.recomputed > 0);
    assert!(report.kept > 0);
    assert_eq!(report.queries, report.recomputed + report.kept);

    // Element-wise identical to a fresh registration over the new data.
    let fresh = ServiceBuilder::new().workers(1).build();
    fresh
        .register_dataset(TenantSpec::new("ref", after, config()))
        .unwrap();
    assert_eq!(store.snapshot(), before_snapshot);
    let refreshed = service.tenant_store("svc").unwrap().snapshot();
    assert_eq!(refreshed, fresh.tenant_store("ref").unwrap().snapshot());

    // Untouched entries were not rebuilt: the refreshed snapshot reuses
    // exactly `kept` of the original `Arc`s.
    let stable = refreshed
        .iter()
        .filter(|speech| before_snapshot.iter().any(|old| Arc::ptr_eq(old, speech)))
        .count();
    assert_eq!(stable, report.kept);
}

/// Dimension subsets are 32-bit masks: registering a tenant with 32
/// dimensions is refused as an invalid configuration instead of panicking
/// in the query enumeration, while 31 dimensions still register.
#[test]
fn thirty_two_dimensions_are_rejected_not_a_panic() {
    let names: Vec<String> = (0..32).map(|d| format!("d{d:02}")).collect();
    let wide = |dims: usize| {
        let data = SynthSpec {
            name: "wide".to_string(),
            dims: names[..dims]
                .iter()
                .map(|name| DimSpec::named(name, &["x", "y"]))
                .collect(),
            targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
            rows: 40,
        }
        .generate(7, 1.0);
        let dim_names: Vec<&str> = names[..dims].iter().map(String::as_str).collect();
        let mut config = Configuration::new("wide", &dim_names, &["delay"]);
        config.max_query_length = 1;
        config.max_fact_dimensions = 1;
        TenantSpec::new("wide", data, config)
    };
    let service = ServiceBuilder::new()
        .workers(1)
        .summarizer(GreedySummarizer::with_optimized_pruning())
        .build();
    let err = service.register_dataset(wide(32)).unwrap_err();
    assert!(
        matches!(err, EngineError::Config(ConfigError::Invalid { .. })),
        "{err:?}"
    );
    assert!(service.tenant_store("wide").is_none());
    service.register_dataset(wide(31)).unwrap();
    assert_eq!(service.tenant_store("wide").unwrap().len(), 1 + 31 * 2);
}
