//! Streaming-ingestion differential suite.
//!
//! The convergence contract: any interleaving of [`RowDelta`] batches
//! through `VoiceService::ingest`, once the log drains, leaves the
//! tenant's store byte-identical to a cold `register_dataset` of the
//! final table — for any solver worker count. The proptest generates
//! abstract operations, interprets them against a running row count so
//! every index is valid, and feeds the *same* concrete deltas to the
//! streaming engine and to a plain `Vec` fold that builds the reference
//! table. Its second phase sends moves only, which keep the §III prior
//! bit-identical, so only the rows a flush hands the re-summarizer keep
//! the store current.
//!
//! Alongside the differential: a concurrent-readers stress test (no
//! torn or missing entries while flushes publish new stores), a
//! pointer-stability check that a flush carries untouched entries over
//! `Arc`-identical instead of re-solving them, a check that a store
//! handle taken before a refresh or flush keeps its contents, two
//! deterministic cases where a flush finds a changed row's subsets
//! through its cell, whatever the delta's value types or the column
//! order of an earlier refresh, a delete that must shift the changed
//! rows recorded before it, a NULL in a column the tenant does not
//! project, which must not fail a flush, a sparse tenant whose store
//! holds a speech for exactly the value combinations of its live rows,
//! each fact stating its subset's mean, after every flush and refresh,
//! and a tenant emptied by deletes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// A move: row `pick` (resolved like an update's) takes new dimension
/// values and keeps its delay.
#[derive(Debug, Clone)]
struct Move {
    pick: usize,
    season: usize,
    region: usize,
}

fn arb_move() -> impl Strategy<Value = Move> {
    (any::<usize>(), 0usize..2, 0usize..2).prop_map(|(pick, season, region)| Move {
        pick,
        season,
        region,
    })
}

/// Interpret move batches into updates of `data`'s rows; moves keep
/// every row's delay and the row count, so `data` resolves them all.
fn concretize_moves(batches: &[Vec<Move>], data: &GeneratedDataset) -> Vec<Vec<RowDelta>> {
    let rows = data.table.len();
    batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .filter(|_| rows > 0)
                .map(|to| {
                    let row = to.pick % rows;
                    let mut values = data.table.row(row);
                    values[0] = Value::str(SEASONS[to.season]);
                    values[1] = Value::str(REGIONS[to.region]);
                    RowDelta::Update { row, values }
                })
                .collect()
        })
        .collect()
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
    // byte-identical, for 1 and 8 solver workers; then the same for
    // batches of moves only, over the drained table.
    #[test]
    fn interleaved_ingest_converges_to_cold_preprocess(
        batches in prop::collection::vec(prop::collection::vec(arb_op(), 1..6), 1..5),
        seed in 1u64..64,
        workers in prop_oneof![Just(1usize), Just(8)],
        moves in prop::collection::vec(prop::collection::vec(arb_move(), 1..6), 1..5),
    ) {
        let base = dataset(seed, 48);
        let deltas = concretize(&batches, base.table.len());

        let live = ServiceBuilder::new().workers(workers).build();
        live.register_dataset(
            TenantSpec::new("stream", base.clone(), config())
                .ingest(IngestBuilder::new().max_dirty(4)),
        )
        .unwrap();
        // Ingest `deltas`, drain, and require the store of a cold
        // registration of `expected`, which is returned.
        let converges = |deltas: &[Vec<RowDelta>], expected: GeneratedDataset, phase: &str| {
            for batch in deltas.iter().filter(|batch| !batch.is_empty()) {
                live.ingest("stream", batch).unwrap();
            }
            live.drain_ingest("stream").unwrap();
            let cold = ServiceBuilder::new().workers(workers).build();
            cold.register_dataset(TenantSpec::new("stream", expected, config()))
                .unwrap();
            prop_assert_eq!(
                live.tenant_store("stream").unwrap().snapshot(),
                cold.tenant_store("stream").unwrap().snapshot(),
                "streaming drain diverged from cold preprocess ({} phase, seed {}, {} workers)",
                phase,
                seed,
                workers
            );
            Ok(cold)
        };
        let mixed = reference_fold(&base, &deltas);
        converges(&deltas, mixed.clone(), "mixed")?;
        let moved = concretize_moves(&moves, &mixed);
        let cold = converges(&moved, reference_fold(&mixed, &moved), "moves-only")?;
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
            deltas.iter().chain(&moved).map(|b| b.len() as u64).sum::<u64>()
        );
    }
}

/// Readers racing a flushing writer must never observe a torn store:
/// the overall and per-season entries stay present (lookups serve the
/// last-good speech until the atomic swap), and `respond` always comes
/// back with a speech. The writer starts once every reader has read, so
/// each reader races some flushes however the threads are scheduled.
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
    let (started, first_reads) = mpsc::channel();
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            // Dropped after the first read, or by a reader failing before it.
            let mut started = Some(started.clone());
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
                    if let Some(started) = started.take() {
                        started
                            .send(())
                            .expect("the test waits for every first read");
                    }
                }
                reads
            })
        })
        .collect();
    drop(started);
    for _ in 0..readers.len() {
        first_reads
            .recv()
            .expect("a reader failed before its first read");
    }

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

    let store = service.tenant_store("stream").unwrap();
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

/// A store is published once and never written: a `tenant_store` handle
/// taken before a refresh, and one taken before a flush, keep their
/// snapshots. The store fetched afterwards equals a cold registration of
/// the new table and shares every untouched speech (`Arc::ptr_eq`) with
/// the old handle. Both changes move one row to the other region and keep
/// its season and delay, so the prior holds and the other season's
/// speeches stay untouched.
#[test]
fn store_handles_keep_their_snapshot_across_refresh_and_flush() {
    let base = dataset(21, 64);
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("stream", base.clone(), config()).ingest(
                IngestBuilder::new()
                    .max_dirty(1000)
                    .flush_interval(Duration::from_secs(3600)),
            ),
        )
        .unwrap();
    let mut rows: Vec<Vec<Value>> = base.table.iter_rows().collect();
    let moved = |row: &[Value]| {
        let region = if row[1].as_str() == Some("East") {
            "West"
        } else {
            "East"
        };
        vec![row[0].clone(), Value::str(region), row[2].clone()]
    };
    let cold = |rows: &[Vec<Value>]| {
        let cold = ServiceBuilder::new().workers(2).build();
        let table = Table::from_rows(base.table.schema().clone(), rows.to_vec()).unwrap();
        cold.register_dataset(TenantSpec::new(
            "stream",
            GeneratedDataset {
                table,
                ..base.clone()
            },
            config(),
        ))
        .unwrap();
        cold.tenant_store("stream").unwrap().snapshot()
    };
    // How many of `new`'s speeches are `old`'s own `Arc`s.
    let shared = |old: &SpeechStore, new: &SpeechStore| {
        new.snapshot()
            .iter()
            .filter(|speech| {
                old.get(&speech.query)
                    .is_some_and(|before| Arc::ptr_eq(&before, speech))
            })
            .count()
    };

    let before_refresh = service.tenant_store("stream").unwrap();
    let snapshot = before_refresh.snapshot();
    rows[0] = moved(&rows[0]);
    let refreshed = GeneratedDataset {
        table: Table::from_rows(base.table.schema().clone(), rows.clone()).unwrap(),
        ..base.clone()
    };
    let report = service.refresh_tenant("stream", &refreshed, &[0]).unwrap();
    assert!(report.kept > 0 && report.recomputed > 0, "{report:?}");
    assert_eq!(
        before_refresh.snapshot(),
        snapshot,
        "the refresh wrote the published store"
    );
    let after_refresh = service.tenant_store("stream").unwrap();
    assert_eq!(after_refresh.snapshot(), cold(&rows));
    assert_eq!(shared(&before_refresh, &after_refresh), report.kept);

    let before_flush = after_refresh;
    let snapshot = before_flush.snapshot();
    rows[1] = moved(&rows[1]);
    service
        .ingest(
            "stream",
            &[RowDelta::Update {
                row: 1,
                values: rows[1].clone(),
            }],
        )
        .unwrap();
    let flush = service.drain_ingest("stream").unwrap();
    assert!(flush.kept > 0 && flush.resummarized > 0, "{flush:?}");
    assert_eq!(
        before_flush.snapshot(),
        snapshot,
        "the flush wrote the published store"
    );
    let after_flush = service.tenant_store("stream").unwrap();
    assert_eq!(after_flush.snapshot(), cold(&rows));
    assert_eq!(shared(&before_flush, &after_flush), flush.kept);
}

/// Deleting every row leaves an empty store, and a store question then
/// answers `NoSummary` at full quality, deadline or not: no plan over the
/// empty table could answer it. One insert brings the speeches back. With
/// one row every fact's average is the overall average, so no speech
/// holds a fact, and each says its subset's average is the overall one.
#[test]
fn an_emptied_tenant_answers_no_summary_until_a_row_returns() {
    let base = dataset(4, 6);
    let service = ServiceBuilder::new().workers(1).build();
    service
        .register_dataset(
            TenantSpec::new("stream", base.clone(), config())
                .ingest(IngestBuilder::new().max_dirty(1)),
        )
        .unwrap();
    for _ in 0..base.table.len() {
        let report = service
            .ingest("stream", &[RowDelta::Delete { row: 0 }])
            .unwrap();
        assert!(report.flush.is_some(), "max_dirty(1) flushes every batch");
    }
    assert!(service.tenant_store("stream").unwrap().is_empty());
    for request in [
        ServiceRequest::new("stream", "delay in Winter?"),
        ServiceRequest::new("stream", "delay in Winter?").with_budget(Duration::ZERO),
    ] {
        let response = service.respond(&request);
        assert!(
            matches!(response.answer, Answer::NoSummary { .. }),
            "{:?}",
            response.answer
        );
        assert_eq!(response.degradation, Degradation::None);
    }

    let report = service
        .ingest("stream", &[RowDelta::Insert(row(0, 0, 125))])
        .unwrap();
    assert!(report.flush.is_some());
    // Overall, Winter, East, and Winter in the East.
    let store = service.tenant_store("stream").unwrap();
    assert_eq!(store.len(), 4);
    assert!(store
        .snapshot()
        .iter()
        .all(|speech| speech.facts.is_empty()));
    let response = service.respond(&ServiceRequest::new("stream", "delay in Winter?"));
    match &response.answer {
        Answer::Speech {
            speech,
            kept_predicates: None,
            ..
        } => assert_eq!(speech.query, Query::of("delay", &[("season", "Winter")])),
        other => panic!("expected the Winter speech, got {other:?}"),
    }
    assert_eq!(
        response.text(),
        "For season Winter: The average delay is the same as overall."
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

/// A flush finds a changed row's subsets through its cell, not through
/// the delta's values: an `Int` written into a `Float` dimension is stored
/// as a float, which the encoder spells "1.0", not "1". Two batches swap
/// the buckets of two East rows and swap them back; after each drain the
/// store equals a cold registration of the table the deltas left.
#[test]
fn int_deltas_into_a_float_dimension_keep_its_speeches_current() {
    let schema = Schema::new(vec![
        Field::required("bucket", ColumnType::Float),
        Field::required("region", ColumnType::Str),
        Field::required("delay", ColumnType::Float),
    ])
    .unwrap();
    // The table with rows 0 and 3 in `buckets`.
    let dataset = |buckets: (f64, f64)| {
        let rows: Vec<Vec<Value>> = [
            (buckets.0, "East", 5.0),
            (1.0, "West", 20.0),
            (2.0, "West", 30.0),
            (buckets.1, "East", 55.0),
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
        GeneratedDataset {
            name: "buckets".to_string(),
            table: Table::from_rows(schema.clone(), rows).unwrap(),
            dims: vec!["bucket".to_string(), "region".to_string()],
            targets: vec!["delay".to_string()],
        }
    };
    let config = Configuration::new("buckets", &["bucket", "region"], &["delay"]);
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("stream", dataset((1.0, 2.0)), config.clone())
                .ingest(IngestBuilder::new()),
        )
        .unwrap();
    let east =
        |bucket: i64, delay: f64| vec![Value::Int(bucket), Value::str("East"), Value::Float(delay)];
    // Swapped, then swapped back to the registered table.
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
        let buckets = (first as f64, second as f64);
        assert_drains_to_cold(&service, dataset(buckets), config.clone());
    }
}

/// A refresh may hand in the dataset with its columns in another order;
/// later delta tuples follow that order, and the log must write each
/// dimension to its own column, so the changed rows land in the cells
/// that hold them.
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
    // subset keeps its size, so only the changed rows re-solve them.
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

/// A delete shifts the rows recorded before it, as it shifts the table:
/// row 6 moves from Summer/East to Summer/West, row 2 (Summer/West) is
/// deleted, and a Summer/East row with row 2's delay is inserted. Every
/// subset keeps its size and the delays are whole numbers, so every sum
/// is exact and the prior bit-identical: only the recorded rows decide
/// what is re-solved. The moved row is row 5 after the delete; read as
/// row 6, Winter/East's last row, it would leave the West subsets stale.
#[test]
fn a_delete_shifts_the_rows_recorded_before_it() {
    let rows: Vec<Vec<Value>> = [
        (0, 0, 10),
        (0, 1, 20),
        (1, 1, 30),
        (1, 0, 40),
        (0, 0, 50),
        (1, 1, 60),
        (1, 0, 70),
        (0, 0, 80),
    ]
    .iter()
    .map(|&(season, region, delay)| row(season, region, delay * 10))
    .collect();
    let base = dataset(1, 8);
    let with_rows = |rows: &[Vec<Value>]| GeneratedDataset {
        table: Table::from_rows(base.table.schema().clone(), rows.to_vec()).unwrap(),
        ..base.clone()
    };
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("stream", with_rows(&rows), config()).ingest(IngestBuilder::new()),
        )
        .unwrap();
    let deltas = [
        RowDelta::Update {
            row: 6,
            values: row(1, 1, 700),
        },
        RowDelta::Delete { row: 2 },
        RowDelta::Insert(row(1, 0, 300)),
    ];
    service.ingest("stream", &deltas).unwrap();

    let mut expected = rows;
    expected[6] = row(1, 1, 700);
    expected.remove(2);
    expected.push(row(1, 0, 300));
    assert_drains_to_cold(&service, with_rows(&expected), config());
}

/// Only the configured dimensions and targets are projected, so a NULL
/// in any other column never reaches a flush: the drain succeeds, the
/// lag reaches zero, and the store equals a cold registration.
#[test]
fn an_unprojected_null_column_never_stalls_a_flush() {
    let schema = Schema::new(vec![
        Field::required("season", ColumnType::Str),
        Field::required("region", ColumnType::Str),
        Field::required("delay", ColumnType::Float),
        Field::nullable("cancelled", ColumnType::Float),
    ])
    .unwrap();
    let base = dataset(3, 48);
    let with_cancelled = |rows: Vec<Vec<Value>>| GeneratedDataset {
        name: base.name.clone(),
        table: Table::from_rows(schema.clone(), rows).unwrap(),
        dims: base.dims.clone(),
        targets: base.targets.clone(),
    };
    let mut rows: Vec<Vec<Value>> = base
        .table
        .iter_rows()
        .enumerate()
        .map(|(index, mut row)| {
            row.push(Value::Float(index as f64));
            row
        })
        .collect();
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(
            TenantSpec::new("stream", with_cancelled(rows.clone()), config())
                .ingest(IngestBuilder::new().flush_interval(Duration::from_secs(3600))),
        )
        .unwrap();
    let null_cancelled = |season, region, delay| {
        let mut values = row(season, region, delay);
        values.push(Value::Null);
        values
    };
    let deltas = [
        RowDelta::Insert(null_cancelled(0, 1, 125)),
        RowDelta::Update {
            row: 2,
            values: null_cancelled(1, 0, 300),
        },
    ];
    let report = service.ingest("stream", &deltas).unwrap();
    assert!(
        report.flush.is_none(),
        "the wide window leaves the flush to the drain"
    );
    let flush = service.drain_ingest("stream").unwrap();
    assert_eq!(flush.deltas, 2);
    let stats = service.stats();
    assert_eq!(stats.tenants[0].ingest_lag, 0);
    assert_eq!(stats.tenants[0].flush_failures, 0);

    rows.push(null_cancelled(0, 1, 125));
    rows[2] = null_cancelled(1, 0, 300);
    assert_drains_to_cold(&service, with_cancelled(rows), config());
}

/// The sparse tenant's dimensions and their values: 14 rows over 48
/// cells, so many value pairs are absent at any time.
const SPARSE_DIMS: [(&str, &[&str]); 3] = [
    ("season", &["Winter", "Summer", "Spring"]),
    ("region", &["East", "West", "North", "South"]),
    ("carrier", &["Alpha", "Bravo", "Charlie", "Echo"]),
];

fn sparse_row(rng: &mut StdRng) -> Vec<Value> {
    let mut row: Vec<Value> = SPARSE_DIMS
        .iter()
        .map(|(_, values)| Value::str(values[rng.gen_range(0..values.len())]))
        .collect();
    row.push(Value::Float(f64::from(rng.gen_range(0u32..600)) / 10.0));
    row
}

fn sparse_dataset(rows: Vec<Vec<Value>>) -> GeneratedDataset {
    let mut fields: Vec<Field> = SPARSE_DIMS
        .iter()
        .map(|&(name, _)| Field::required(name, ColumnType::Str))
        .collect();
    fields.push(Field::required("delay", ColumnType::Float));
    GeneratedDataset {
        name: "sparse".to_string(),
        table: Table::from_rows(Schema::new(fields).unwrap(), rows).unwrap(),
        dims: SPARSE_DIMS
            .iter()
            .map(|(name, _)| name.to_string())
            .collect(),
        targets: vec!["delay".to_string()],
    }
}

fn sparse_config() -> Configuration {
    let dims = SPARSE_DIMS.map(|(name, _)| name);
    Configuration::new("sparse", &dims, &["delay"])
}

/// Every query of up to `max_length` predicates over the dimensions'
/// values, as the (dimension index, value) pairs it fixes.
fn sparse_queries(max_length: usize) -> Vec<Vec<(usize, &'static str)>> {
    let mut queries = vec![vec![]];
    for (dim, (_, values)) in SPARSE_DIMS.iter().enumerate() {
        let mut longer = Vec::new();
        for query in queries.iter().filter(|query| query.len() < max_length) {
            for &value in *values {
                let mut query = query.clone();
                query.push((dim, value));
                longer.push(query);
            }
        }
        queries.extend(longer);
    }
    queries
}

/// The store holds a speech for exactly the value combinations of
/// `rows`: each query is an exact hit exactly when its combination
/// occurs, and a budgeted respond to it answers a stored speech at full
/// quality (a question over values the rows all hold parses to the query
/// itself). Every fact of every stored speech states what is true of
/// `rows`: its value has the bits of the row-order mean of `delay` over
/// the rows its query's predicates and its scope select, and its support
/// is their count.
fn assert_store_matches_rows(service: &VoiceService, rows: &[Vec<Value>], state: &str) {
    let store = service.tenant_store("sparse").unwrap();
    for speech in store.snapshot() {
        for fact in speech.facts.iter() {
            let selected: Vec<f64> = rows
                .iter()
                .filter(|row| {
                    speech
                        .query
                        .predicates()
                        .iter()
                        .chain(fact.scope.iter())
                        .all(|(dim, value)| {
                            let column = SPARSE_DIMS.iter().position(|(name, _)| **name == **dim);
                            row[column.expect("a configured dimension")].as_str() == Some(value)
                        })
                })
                .map(|row| match row[SPARSE_DIMS.len()] {
                    Value::Float(delay) => delay,
                    ref other => panic!("delay is a float, got {other:?}"),
                })
                .collect();
            let mean = selected.iter().fold(0.0, |sum, delay| sum + delay) / selected.len() as f64;
            let what = format!("{state}: {} fact {fact:?}", speech.query);
            assert_eq!(fact.support, selected.len(), "{what}");
            assert_eq!(fact.value.to_bits(), mean.to_bits(), "{what}");
        }
    }
    let holds = |row: &Vec<Value>, &(dim, value): &(usize, &str)| row[dim].as_str() == Some(value);
    for fixed in sparse_queries(sparse_config().max_query_length) {
        let query = Query::new(
            "delay",
            fixed
                .iter()
                .map(|&(dim, value)| (SPARSE_DIMS[dim].0, value)),
        );
        let occurs = rows
            .iter()
            .any(|row| fixed.iter().all(|pair| holds(row, pair)));
        assert_eq!(
            matches!(store.lookup(&query), Lookup::Exact(_)),
            occurs,
            "{state}: exact hit for {query}"
        );

        let mut utterance = "delay".to_string();
        for (_, value) in &fixed {
            utterance.push_str(&format!(" in {value}"));
        }
        let response = service.respond(
            &ServiceRequest::new("sparse", format!("{utterance}?"))
                .with_budget(Duration::from_secs(60)),
        );
        assert_eq!(
            response.degradation,
            Degradation::None,
            "{state}: {utterance}"
        );
        let Answer::Speech {
            kept_predicates, ..
        } = response.answer
        else {
            panic!("{state}: {utterance} answered {:?}", response.answer);
        };
        let known = fixed
            .iter()
            .all(|pair| rows.iter().any(|row| holds(row, pair)));
        if known {
            assert_eq!(
                response.request,
                Some(Request::Query(query)),
                "{state}: {utterance}"
            );
            assert_eq!(kept_predicates.is_none(), occurs, "{state}: {utterance}");
        }
    }
}

/// Registration, every ingest flush and a batch refresh leave a speech
/// in the store for every value combination of the live rows and for no
/// other, each fact true of those rows, so a store question never finds
/// the store behind its data: checked after the registration, after
/// each of 30 single-delta batches (inserts, updates and deletes, each
/// flushed inline by `max_dirty(1)`), and after a refresh.
#[test]
fn the_store_holds_exactly_the_live_combinations() {
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<Value>> = (0..14).map(|_| sparse_row(&mut rng)).collect();
        let service = ServiceBuilder::new().workers(1).build();
        service
            .register_dataset(
                TenantSpec::new("sparse", sparse_dataset(rows.clone()), sparse_config())
                    .ingest(IngestBuilder::new().max_dirty(1)),
            )
            .unwrap();
        assert_store_matches_rows(&service, &rows, &format!("seed {seed}, registered"));

        for batch in 0..30 {
            let delta = match rng.gen_range(0..3) {
                0 if rows.len() < 20 => RowDelta::Insert(sparse_row(&mut rng)),
                1 if rows.len() > 8 => RowDelta::Delete {
                    row: rng.gen_range(0..rows.len()),
                },
                _ => RowDelta::Update {
                    row: rng.gen_range(0..rows.len()),
                    values: sparse_row(&mut rng),
                },
            };
            match &delta {
                RowDelta::Insert(values) => rows.push(values.clone()),
                RowDelta::Update { row, values } => rows[*row] = values.clone(),
                RowDelta::Delete { row } => {
                    rows.remove(*row);
                }
            }
            let report = service.ingest("sparse", &[delta]).unwrap();
            assert!(report.flush.is_some(), "max_dirty(1) flushes every batch");
            assert_store_matches_rows(&service, &rows, &format!("seed {seed}, batch {batch}"));
        }

        for row in &mut rows[..3] {
            *row = sparse_row(&mut rng);
        }
        service
            .refresh_tenant("sparse", &sparse_dataset(rows.clone()), &[0, 1, 2])
            .unwrap();
        assert_store_matches_rows(&service, &rows, &format!("seed {seed}, refreshed"));
    }
}
