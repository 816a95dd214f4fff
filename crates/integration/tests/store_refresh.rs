//! Delta re-summarization through the service facade
//! ([`VoiceService::refresh_tenant`], and the ingest log's
//! [`VoiceService::refresh_tenant_deltas`]): mutate a dataset slice,
//! refresh, and verify that only affected queries' speeches change,
//! untouched entries stay pointer-stable, and the refreshed store is
//! always element-wise identical to a full re-preprocess of the mutated
//! data.

use std::sync::Arc;

use vqs_data::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_relalg::prelude::{ColumnType, Field, Schema, Table, Value};

fn dataset() -> GeneratedDataset {
    SynthSpec {
        name: "refresh".to_string(),
        dims: vec![
            DimSpec::named("season", &["Winter", "Summer"]),
            DimSpec::named("region", &["East", "West", "North"]),
        ],
        targets: vec![
            TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
            TargetSpec::new("cancelled", 30.0, 10.0, 4.0, (0.0, 1000.0)),
        ],
        rows: 240,
    }
    .generate(0xF5, 1.0)
}

fn config() -> Configuration {
    Configuration::new("refresh", &["season", "region"], &["delay", "cancelled"])
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

fn str_value(value: &Value) -> &str {
    match value {
        Value::Str(s) => s.as_ref(),
        other => panic!("expected string value, got {other:?}"),
    }
}

/// Row indexes matching a (season, region) combination.
fn rows_in_combo(dataset: &GeneratedDataset, season: &str, region: &str) -> Vec<usize> {
    let schema = dataset.table.schema();
    let season_col = schema.index_of("season").unwrap();
    let region_col = schema.index_of("region").unwrap();
    dataset
        .table
        .iter_rows()
        .enumerate()
        .filter(|(_, row)| {
            str_value(&row[season_col]) == season && str_value(&row[region_col]) == region
        })
        .map(|(row_index, _)| row_index)
        .collect()
}

/// A single-tenant service over `data` (the facade default summarizer is
/// the optimized greedy, matching the legacy suite).
fn service_over(data: &GeneratedDataset) -> VoiceService {
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(TenantSpec::new("refresh", data.clone(), config()))
        .unwrap();
    service
}

/// [`service_over`] with streaming ingestion enabled.
fn ingesting_service_over(data: &GeneratedDataset) -> VoiceService {
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(
            TenantSpec::new("refresh", data.clone(), config()).ingest(IngestBuilder::new()),
        )
        .unwrap();
    service
}

/// The store a fresh registration of `data` produces (the refresh ground
/// truth).
fn preprocess_full(data: &GeneratedDataset) -> Arc<SpeechStore> {
    service_over(data).tenant_store("refresh").unwrap()
}

/// Moving every (Winter, East) row to region West: the vanished value
/// combination is removed, gaining/losing subsets are recomputed, and
/// everything else — including the whole (Summer, *) slice — keeps its
/// exact `Arc`s.
#[test]
fn dimension_mutation_refreshes_only_affected_queries() {
    let before_data = dataset();
    let changed_rows = rows_in_combo(&before_data, "Winter", "East");
    assert!(!changed_rows.is_empty());
    let region_col = before_data.table.schema().index_of("region").unwrap();
    let after_data = rebuild_with(&before_data, |row_index, row| {
        if changed_rows.contains(&row_index) {
            row[region_col] = Value::Str("West".into());
        }
    });

    let service = service_over(&before_data);
    let store = service.tenant_store("refresh").unwrap();
    let before: Vec<Arc<StoredSpeech>> = store.snapshot();
    let report = service
        .refresh_tenant("refresh", &after_data, &changed_rows)
        .unwrap();
    // The handle taken before the refresh still holds the old store.
    assert_eq!(store.snapshot(), before);
    let store = service.tenant_store("refresh").unwrap();

    // The (Winter, East) combination vanished for both targets.
    assert_eq!(report.removed, 2);
    for target in ["delay", "cancelled"] {
        assert!(store
            .get(&Query::of(
                target,
                &[("season", "Winter"), ("region", "East")]
            ))
            .is_none());
    }
    assert!(report.recomputed > 0);
    assert!(report.kept > 0, "expected untouched queries to survive");
    assert_eq!(
        report.recomputed + report.kept,
        report.queries,
        "every enumerated query is either kept or recomputed"
    );

    // Ground truth: the refreshed store equals a full re-preprocess.
    let reference = preprocess_full(&after_data);
    assert_eq!(store.snapshot(), reference.snapshot());

    // Untouched queries keep their exact Arc (pointer stability), e.g.
    // the whole Summer slice and the unchanged (Winter, North) subset.
    let untouched = [
        Query::of("delay", &[("season", "Summer")]),
        Query::of("delay", &[("season", "Summer"), ("region", "East")]),
        Query::of("delay", &[("season", "Winter"), ("region", "North")]),
        Query::of("cancelled", &[("region", "North")]),
    ];
    for query in &untouched {
        let old = before.iter().find(|s| &s.query == query).unwrap();
        let new = store.get(query).unwrap();
        assert!(Arc::ptr_eq(old, &new), "{query} should be pointer-stable");
    }

    // Affected queries actually changed: region East lost rows, West
    // gained them.
    for (region, delta_sign) in [("East", -1i64), ("West", 1i64)] {
        let query = Query::of("delay", &[("region", region)]);
        let old = before.iter().find(|s| s.query == query).unwrap();
        let new = store.get(&query).unwrap();
        let delta = new.rows as i64 - old.rows as i64;
        assert_eq!(
            delta.signum(),
            delta_sign,
            "{query}: rows {} -> {}",
            old.rows,
            new.rows
        );
    }
}

/// Mean-preserving target mutation (+δ on a Winter/East row, −δ on a
/// Summer/West row): the global prior is unchanged, so only the subsets
/// containing the two rows are recomputed — exactly 7 of the 12 queries
/// per target — and the rest keep their `Arc`s. The same change sent as
/// two row updates through the ingest log re-solves the same queries.
#[test]
fn target_value_mutation_recomputes_containing_subsets_only() {
    let before_data = dataset();
    let winter_east = rows_in_combo(&before_data, "Winter", "East")[0];
    let summer_west = rows_in_combo(&before_data, "Summer", "West")[0];
    let changed_rows = vec![winter_east, summer_west];
    let delay_col = before_data.table.schema().index_of("delay").unwrap();
    let delta = 5.0;
    let after_data = rebuild_with(&before_data, |row_index, row| {
        let Value::Float(value) = row[delay_col] else {
            panic!("delay must be a float column");
        };
        if row_index == winter_east {
            row[delay_col] = Value::Float(value + delta);
        } else if row_index == summer_west {
            row[delay_col] = Value::Float(value - delta);
        }
    });

    let service = service_over(&before_data);
    let store = service.tenant_store("refresh").unwrap();
    let before = store.snapshot();
    let report = service
        .refresh_tenant("refresh", &after_data, &changed_rows)
        .unwrap();
    let store = service.tenant_store("refresh").unwrap();

    // Per target: overall, Winter, Summer, East, West, (Winter,East),
    // (Summer,West) contain a changed row; North and the other pairs do
    // not. 7 recomputed + 5 kept, for each of the two targets.
    assert_eq!(report.queries, 24);
    assert_eq!(report.recomputed, 14);
    assert_eq!(report.kept, 10);
    assert_eq!(report.removed, 0);

    assert_eq!(store.snapshot(), preprocess_full(&after_data).snapshot());

    // A directly-hit subset demonstrably changed for the mutated target.
    let hit = Query::of("delay", &[("season", "Winter"), ("region", "East")]);
    let old = before.iter().find(|s| s.query == hit).unwrap();
    let new = store.get(&hit).unwrap();
    assert!(
        (old.utility - new.utility).abs() > 1e-12 || old.facts != new.facts,
        "mutated subset should produce a different summary"
    );

    // Untouched subsets stay pointer-stable.
    for target in ["delay", "cancelled"] {
        for preds in [
            vec![("region", "North")],
            vec![("season", "Winter"), ("region", "West")],
            vec![("season", "Summer"), ("region", "East")],
        ] {
            let query = Query::of(target, &preds);
            let old = before.iter().find(|s| s.query == query).unwrap();
            let new = store.get(&query).unwrap();
            assert!(Arc::ptr_eq(old, &new), "{query} should be pointer-stable");
        }
    }

    let ingesting = ingesting_service_over(&before_data);
    let deltas: Vec<RowDelta> = changed_rows
        .iter()
        .map(|&row| RowDelta::Update {
            row,
            values: after_data.table.row(row),
        })
        .collect();
    let flush = ingesting.refresh_tenant_deltas("refresh", &deltas).unwrap();
    assert_eq!(
        (flush.resummarized, flush.kept, flush.removed),
        (report.recomputed, report.kept, report.removed)
    );
    assert_eq!(
        ingesting.tenant_store("refresh").unwrap().snapshot(),
        store.snapshot()
    );
}

/// A row moved to another region and back within one ingest window ends
/// where it started: only the subsets holding it (overall, its season, its
/// region and its pair — 4 of the 12 queries per target) are re-solved,
/// and the speeches of the region it visited keep their `Arc`s for both
/// targets. The prior holds, since the row keeps its values.
#[test]
fn a_row_moved_away_and_back_re_solves_only_where_it_ends() {
    let data = dataset();
    let row = rows_in_combo(&data, "Winter", "East")[0];
    let at = |region: &str| {
        let mut values = data.table.row(row);
        values[data.table.schema().index_of("region").unwrap()] = Value::str(region);
        RowDelta::Update { row, values }
    };
    let service = ingesting_service_over(&data);
    let before = service.tenant_store("refresh").unwrap();

    let flush = service
        .refresh_tenant_deltas("refresh", &[at("West"), at("East")])
        .unwrap();
    assert_eq!(
        (flush.resummarized, flush.kept, flush.removed),
        (8, 16, 0),
        "{flush:?}"
    );
    let store = service.tenant_store("refresh").unwrap();
    assert_eq!(store.snapshot(), preprocess_full(&data).snapshot());
    for target in ["delay", "cancelled"] {
        for preds in [
            vec![("region", "West")],
            vec![("season", "Winter"), ("region", "West")],
        ] {
            let query = Query::of(target, &preds);
            let (old, new) = (before.get(&query).unwrap(), store.get(&query).unwrap());
            assert!(Arc::ptr_eq(&old, &new), "{query} should be pointer-stable");
        }
    }
}

/// Randomized differential guarantee: whatever slice is mutated, refresh
/// must land on exactly the same store as preprocessing from scratch.
#[test]
fn refresh_equals_full_preprocess_for_random_mutations() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let before_data = dataset();
    let schema = before_data.table.schema();
    let season_col = schema.index_of("season").unwrap();
    let region_col = schema.index_of("region").unwrap();
    let delay_col = schema.index_of("delay").unwrap();

    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut changed_rows: Vec<usize> = (0..before_data.table.len())
            .filter(|_| rng.gen_bool(0.05))
            .collect();
        if changed_rows.is_empty() {
            changed_rows.push(rng.gen_range(0..before_data.table.len()));
        }
        let seasons = ["Winter", "Summer"];
        let regions = ["East", "West", "North"];
        let after_data = rebuild_with(&before_data, |row_index, row| {
            if !changed_rows.contains(&row_index) {
                return;
            }
            match rng.gen_range(0..3u32) {
                0 => {
                    let season: &str = seasons[rng.gen_range(0..2usize)];
                    row[season_col] = Value::Str(season.into());
                }
                1 => {
                    let region: &str = regions[rng.gen_range(0..3usize)];
                    row[region_col] = Value::Str(region.into());
                }
                _ => {
                    let Value::Float(value) = row[delay_col] else {
                        panic!("delay must be a float column");
                    };
                    row[delay_col] = Value::Float(value + rng.gen_range(-10.0f64..10.0));
                }
            }
        });

        let service = service_over(&before_data);
        service
            .refresh_tenant("refresh", &after_data, &changed_rows)
            .unwrap();
        let store = service.tenant_store("refresh").unwrap();
        let reference = preprocess_full(&after_data);
        assert_eq!(
            store.snapshot(),
            reference.snapshot(),
            "seed {seed}: refresh diverged from full preprocess"
        );
    }
}

/// A refresh finds a changed row's subsets through its cell, over `Int`
/// and `Float` dimensions alike. Rows 0 and 2 share a year and trade
/// scores: every subset keeps its size and the prior stays bit-identical,
/// so only the two changed rows bring the `score = 1.0` and
/// `score = 2.0` subsets up to date.
#[test]
fn swapped_rows_over_int_and_float_dimensions_refresh_their_subsets() {
    let schema = Schema::new(vec![
        Field::required("year", ColumnType::Int),
        Field::required("score", ColumnType::Float),
        Field::required("delay", ColumnType::Float),
    ])
    .unwrap();
    let rows = |swapped: bool| -> Vec<Vec<Value>> {
        let (first, third) = if swapped { (2.0, 1.0) } else { (1.0, 2.0) };
        [
            (2019, first, 5.0),
            (2020, 1.0, 20.0),
            (2019, third, 40.0),
            (2020, 2.0, 30.0),
            (2019, 1.0, 12.0),
            (2020, 2.0, 33.0),
            (2019, 2.0, 44.0),
            (2020, 1.0, 18.0),
        ]
        .iter()
        .map(|&(year, score, delay)| {
            vec![Value::Int(year), Value::Float(score), Value::Float(delay)]
        })
        .collect()
    };
    let data = |swapped: bool| GeneratedDataset {
        name: "typed".to_string(),
        table: Table::from_rows(schema.clone(), rows(swapped)).unwrap(),
        dims: vec!["year".to_string(), "score".to_string()],
        targets: vec!["delay".to_string()],
    };
    let register = |data: GeneratedDataset| {
        let service = ServiceBuilder::new().workers(1).build();
        let config = Configuration::new("typed", &["year", "score"], &["delay"]);
        service
            .register_dataset(TenantSpec::new("typed", data, config))
            .unwrap();
        service
    };

    let service = register(data(false));
    let store = service.tenant_store("typed").unwrap();
    let before = store.snapshot();
    let report = service
        .refresh_tenant("typed", &data(true), &[0, 2])
        .unwrap();
    let store = service.tenant_store("typed").unwrap();
    assert_eq!(report.removed, 0);
    let cold = register(data(true));
    assert_eq!(
        store.snapshot(),
        cold.tenant_store("typed").unwrap().snapshot()
    );

    // No row of 2020 changed, so none of its subsets was solved again.
    let year_2020: Vec<&Arc<StoredSpeech>> = before
        .iter()
        .filter(|speech| {
            speech
                .query
                .predicates()
                .iter()
                .any(|(d, v)| &**d == "year" && &**v == "2020")
        })
        .collect();
    assert_eq!(year_2020.len(), 3, "year 2020 alone and with each score");
    for old in year_2020 {
        let new = store.get(&old.query).unwrap();
        assert!(
            Arc::ptr_eq(old, &new),
            "{} should be pointer-stable",
            old.query
        );
    }
}
