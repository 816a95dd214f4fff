//! Streaming-ingestion differential suite (ISSUE 9 acceptance).
//!
//! The convergence contract: any interleaving of [`RowDelta`] batches
//! through `VoiceService::ingest`, once the log drains, leaves the
//! tenant's store byte-identical to a cold `register_dataset` of the
//! final table — for any solver worker count. The proptest generates
//! abstract operations, interprets them against a running row count so
//! every index is valid, and feeds the *same* concrete deltas to the
//! streaming engine and to a plain `Vec` fold that builds the reference
//! table.
//!
//! Alongside the differential: a concurrent-readers stress test (no
//! torn or missing entries while flushes swap summaries underneath),
//! a pointer-stability check that the incremental circuit leaves
//! untouched entries `Arc`-identical instead of rebuilding the store,
//! and two deterministic cases where dirty keys built from the delta's
//! raw values, or through the columns of an earlier registration, would
//! miss the summaries a delta changed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use vqs_data::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_relalg::prelude::{ColumnType, Field, Schema, Table, Value};

const SEASONS: [&str; 2] = ["Winter", "Summer"];
const REGIONS: [&str; 2] = ["East", "West"];

fn dataset(seed: u64, rows: usize) -> GeneratedDataset {
    SynthSpec {
        name: "stream".to_string(),
        dims: vec![
            DimSpec::named("season", &SEASONS),
            DimSpec::named("region", &REGIONS),
        ],
        targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
        rows,
    }
    .generate(seed, 1.0)
}

fn config() -> Configuration {
    Configuration::new("stream", &["season", "region"], &["delay"])
}

fn row(season: usize, region: usize, delay: u32) -> Vec<Value> {
    vec![
        Value::str(SEASONS[season]),
        Value::str(REGIONS[region]),
        Value::Float(f64::from(delay) / 10.0),
    ]
}

/// An abstract table operation; indexes are resolved against the row
/// count at application time so generated programs are always valid.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        season: usize,
        region: usize,
        delay: u32,
    },
    Update {
        pick: usize,
        season: usize,
        region: usize,
        delay: u32,
    },
    Delete {
        pick: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0usize..2, 0u32..600).prop_map(|(season, region, delay)| Op::Insert {
            season,
            region,
            delay
        }),
        (any::<usize>(), 0usize..2, 0usize..2, 0u32..600).prop_map(
            |(pick, season, region, delay)| Op::Update {
                pick,
                season,
                region,
                delay
            }
        ),
        any::<usize>().prop_map(|pick| Op::Delete { pick }),
    ]
}

/// Interpret abstract batches into concrete deltas, tracking the row
/// count exactly like the engine applies them (deletes shift like
/// `Vec::remove`, so the count changes *within* a batch too).
fn concretize(batches: &[Vec<Op>], mut rows: usize) -> Vec<Vec<RowDelta>> {
    batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .filter_map(|op| match op {
                    Op::Insert {
                        season,
                        region,
                        delay,
                    } => {
                        rows += 1;
                        Some(RowDelta::Insert(row(*season, *region, *delay)))
                    }
                    Op::Update {
                        pick,
                        season,
                        region,
                        delay,
                    } => (rows > 0).then(|| RowDelta::Update {
                        row: pick % rows,
                        values: row(*season, *region, *delay),
                    }),
                    Op::Delete { pick } => (rows > 0).then(|| {
                        let index = pick % rows;
                        rows -= 1;
                        RowDelta::Delete { row: index }
                    }),
                })
                .collect()
        })
        .collect()
}

/// The reference semantics: fold the same deltas over a plain row
/// vector and rebuild a table.
fn reference_fold(base: &GeneratedDataset, batches: &[Vec<RowDelta>]) -> GeneratedDataset {
    let mut rows: Vec<Vec<Value>> = base.table.iter_rows().collect();
    for delta in batches.iter().flatten() {
        match delta {
            RowDelta::Insert(values) => rows.push(values.clone()),
            RowDelta::Update { row, values } => rows[*row] = values.clone(),
            RowDelta::Delete { row } => {
                rows.remove(*row);
            }
        }
    }
    GeneratedDataset {
        name: base.name.clone(),
        table: Table::from_rows(base.table.schema().clone(), rows).unwrap(),
        dims: base.dims.clone(),
        targets: base.targets.clone(),
    }
}

/// Live-tier utterances over season, region and delay: a count, a
/// total, an extremum and a comparison.
const LIVE_UTTERANCES: [&str; 4] = [
    "how many delays in Winter",
    "the total delay in the East",
    "which season has the most delay",
    "compare delay for Winter versus Summer",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Streaming ≡ batch: ingest batches (with mid-run auto-flushes from
    // a tiny dirty cap) + drain == cold preprocess of the final table,
    // byte-identical, for 1 and 8 solver workers.
    #[test]
    fn interleaved_ingest_converges_to_cold_preprocess(
        batches in prop::collection::vec(prop::collection::vec(arb_op(), 1..6), 1..5),
        seed in 1u64..64,
        workers in prop_oneof![Just(1usize), Just(8)],
    ) {
        let base = dataset(seed, 48);
        let deltas = concretize(&batches, base.table.len());

        let live = ServiceBuilder::new().workers(workers).build();
        live.register_dataset(
            TenantSpec::new("stream", base.clone(), config())
                .ingest(IngestBuilder::new().max_dirty(4)),
        )
        .unwrap();
        for batch in &deltas {
            if !batch.is_empty() {
                live.ingest("stream", batch).unwrap();
            }
        }
        live.drain_ingest("stream").unwrap();

        let cold = ServiceBuilder::new().workers(workers).build();
        cold.register_dataset(TenantSpec::new(
            "stream",
            reference_fold(&base, &deltas),
            config(),
        ))
        .unwrap();

        prop_assert_eq!(
            live.tenant_store("stream").unwrap().snapshot(),
            cold.tenant_store("stream").unwrap().snapshot(),
            "streaming drain diverged from cold preprocess (seed {}, {} workers)",
            seed,
            workers
        );
        // The live tier answers from the patched table: the drained
        // tenant computes what the cold one computes.
        for utterance in LIVE_UTTERANCES {
            let request = ServiceRequest::new("stream", utterance);
            let (patched, rebuilt) = (live.respond(&request), cold.respond(&request));
            prop_assert!(
                matches!(rebuilt.answer, Answer::Computed { .. }),
                "{} was not computed live: {:?}",
                utterance,
                rebuilt.answer
            );
            prop_assert_eq!(&patched.answer, &rebuilt.answer, "{}", utterance);
            prop_assert_eq!(&patched.follow_on, &rebuilt.follow_on, "{}", utterance);
        }
        let stats = live.stats();
        prop_assert_eq!(stats.tenants[0].ingest_lag, 0);
        prop_assert_eq!(
            stats.tenants[0].deltas_applied,
            deltas.iter().map(|b| b.len() as u64).sum::<u64>()
        );
    }
}

/// Readers racing a flushing writer must never observe a torn store:
/// the overall and per-season entries stay present (lookups serve the
/// last-good speech until the atomic swap), and `respond` always comes
/// back with a speech.
#[test]
fn concurrent_reads_see_no_torn_or_missing_entries() {
    let base = dataset(9, 64);
    let service = Arc::new(ServiceBuilder::new().workers(2).build());
    service
        .register_dataset(
            TenantSpec::new("stream", base.clone(), config())
                .ingest(IngestBuilder::new().max_dirty(1)),
        )
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let overall = Query::of("delay", &[]);
                let winter = Query::of("delay", &[("season", "Winter")]);
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let store = service.tenant_store("stream").unwrap();
                    assert!(store.get(&overall).is_some(), "overall entry vanished");
                    assert!(store.get(&winter).is_some(), "season entry vanished");
                    let response =
                        service.respond(&ServiceRequest::new("stream", "delay in Winter?"));
                    assert!(response.answer.is_speech(), "respond lost its speech");
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // The writer keeps row 0 in Winter and cycles its region; with
    // `max_dirty(1)` every batch flushes, so readers race real swaps.
    const FLIPS: usize = 40;
    for i in 0..FLIPS {
        let region = if i % 2 == 0 { 1 } else { 0 };
        service
            .ingest(
                "stream",
                &[RowDelta::Update {
                    row: 0,
                    values: row(0, region, 125),
                }],
            )
            .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().unwrap() > 0, "reader made no progress");
    }

    // And the usual convergence check on top.
    service.drain_ingest("stream").unwrap();
    let mut rows: Vec<Vec<Value>> = base.table.iter_rows().collect();
    rows[0] = row(0, if (FLIPS - 1).is_multiple_of(2) { 1 } else { 0 }, 125);
    let final_dataset = GeneratedDataset {
        name: base.name.clone(),
        table: Table::from_rows(base.table.schema().clone(), rows).unwrap(),
        dims: base.dims.clone(),
        targets: base.targets.clone(),
    };
    let cold = ServiceBuilder::new().workers(2).build();
    cold.register_dataset(TenantSpec::new("stream", final_dataset, config()))
        .unwrap();
    assert_eq!(
        service.tenant_store("stream").unwrap().snapshot(),
        cold.tenant_store("stream").unwrap().snapshot()
    );
}

/// The invalidation circuit is precise: a delta that cannot affect a
/// summary leaves its stored `Arc` untouched (pointer-identical), while
/// the summaries it can affect are rebuilt.
#[test]
fn untouched_summaries_stay_pointer_stable() {
    let base = dataset(21, 64);
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("stream", base.clone(), config()).ingest(IngestBuilder::new()),
        )
        .unwrap();
    let store = service.tenant_store("stream").unwrap();

    // Flip row 0's region while keeping its season and delay value: the
    // global target mean is bit-identical, so the §III constant prior
    // does not drift, and the other season's summary is untouched.
    let first: Vec<Value> = base.table.iter_rows().next().unwrap();
    let season = first[0].as_str().unwrap().to_string();
    let other_season = if season == "Winter" {
        "Summer"
    } else {
        "Winter"
    };
    let old_region = first[1].as_str().unwrap().to_string();
    let new_region = if old_region == "East" { "West" } else { "East" };

    let untouched = Query::of("delay", &[("season", other_season)]);
    let overall = Query::of("delay", &[]);
    let before_untouched = store.get(&untouched).expect("summary was stored");
    let before_overall = store.get(&overall).expect("summary was stored");

    service
        .refresh_tenant_deltas(
            "stream",
            &[RowDelta::Update {
                row: 0,
                values: vec![first[0].clone(), Value::str(new_region), first[2].clone()],
            }],
        )
        .unwrap();

    let after_untouched = store.get(&untouched).expect("summary survived");
    let after_overall = store.get(&overall).expect("summary survived");
    assert!(
        Arc::ptr_eq(&before_untouched, &after_untouched),
        "a summary outside the dirty set was rebuilt"
    );
    assert!(
        !Arc::ptr_eq(&before_overall, &after_overall),
        "a dirtied summary was not recomputed"
    );
}

/// Drain the tenant's log and require its store to equal a cold
/// registration of `expected`, the table the deltas should have left.
fn assert_drains_to_cold(
    service: &VoiceService,
    expected: GeneratedDataset,
    config: Configuration,
) {
    service.drain_ingest("stream").unwrap();
    let cold = ServiceBuilder::new().workers(2).build();
    cold.register_dataset(TenantSpec::new("stream", expected, config))
        .unwrap();
    assert_eq!(
        service.tenant_store("stream").unwrap().snapshot(),
        cold.tenant_store("stream").unwrap().snapshot()
    );
}

/// Dirty keys come from the stored cells, not from the delta's values:
/// an `Int` written into a `Float` dimension is stored as a float, which
/// the encoder spells "1.0", not "1". Two batches swap the buckets of
/// two East rows and swap them back; both bucket speeches must follow.
#[test]
fn int_deltas_into_a_float_dimension_keep_its_speeches_current() {
    let schema = Schema::new(vec![
        Field::required("bucket", ColumnType::Float),
        Field::required("region", ColumnType::Str),
        Field::required("delay", ColumnType::Float),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = [
        (1.0, "East", 5.0),
        (1.0, "West", 20.0),
        (2.0, "West", 30.0),
        (2.0, "East", 55.0),
        (1.0, "East", 12.0),
        (2.0, "East", 41.0),
        (1.0, "West", 18.0),
        (2.0, "West", 33.0),
    ]
    .iter()
    .map(|&(bucket, region, delay)| {
        vec![
            Value::Float(bucket),
            Value::str(region),
            Value::Float(delay),
        ]
    })
    .collect();
    let dataset = GeneratedDataset {
        name: "buckets".to_string(),
        table: Table::from_rows(schema, rows).unwrap(),
        dims: vec!["bucket".to_string(), "region".to_string()],
        targets: vec!["delay".to_string()],
    };
    let config = Configuration::new("buckets", &["bucket", "region"], &["delay"]);
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("stream", dataset.clone(), config.clone()).ingest(IngestBuilder::new()),
        )
        .unwrap();
    let east =
        |bucket: i64, delay: f64| vec![Value::Int(bucket), Value::str("East"), Value::Float(delay)];
    for (first, second) in [(2, 1), (1, 2)] {
        service
            .ingest(
                "stream",
                &[
                    RowDelta::Update {
                        row: 0,
                        values: east(first, 5.0),
                    },
                    RowDelta::Update {
                        row: 3,
                        values: east(second, 55.0),
                    },
                ],
            )
            .unwrap();
        service.drain_ingest("stream").unwrap();
    }
    // Swapped back: the final table is the registered one.
    assert_drains_to_cold(&service, dataset, config);
}

/// A refresh may hand in the dataset with its columns in another order;
/// later delta tuples follow that order, and the circuit must read each
/// dimension from its new position.
#[test]
fn deltas_after_a_reordering_refresh_dirty_the_right_keys() {
    let base = dataset(5, 48);
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("stream", base.clone(), config()).ingest(IngestBuilder::new()),
        )
        .unwrap();
    // The same rows as (region, season, delay).
    let reordered_schema = Schema::new(vec![
        Field::required("region", ColumnType::Str),
        Field::required("season", ColumnType::Str),
        Field::required("delay", ColumnType::Float),
    ])
    .unwrap();
    let reorder = |rows: Vec<Vec<Value>>| -> GeneratedDataset {
        let rows = rows
            .into_iter()
            .map(|row| vec![row[1].clone(), row[0].clone(), row[2].clone()]);
        GeneratedDataset {
            name: base.name.clone(),
            table: Table::from_rows(reordered_schema.clone(), rows).unwrap(),
            dims: base.dims.clone(),
            targets: base.targets.clone(),
        }
    };
    let mut rows: Vec<Vec<Value>> = base.table.iter_rows().collect();
    service
        .refresh_tenant("stream", &reorder(rows.clone()), &[])
        .unwrap();

    // Two rows of one region in different seasons swap seasons: every
    // subset keeps its size, so only exact dirty keys re-solve them.
    let first = 0;
    let second = (1..rows.len())
        .find(|&row| rows[row][1] == rows[first][1] && rows[row][0] != rows[first][0])
        .expect("the generated table has such a pair");
    let (season_a, season_b) = (rows[first][0].clone(), rows[second][0].clone());
    rows[first][0] = season_b;
    rows[second][0] = season_a;
    let expected = reorder(rows);
    let deltas: Vec<RowDelta> = [first, second]
        .iter()
        .map(|&row| RowDelta::Update {
            row,
            values: expected.table.row(row),
        })
        .collect();
    service.ingest("stream", &deltas).unwrap();
    assert_drains_to_cold(&service, expected, config());
}
