//! Concurrency hardening for the sharded speech store and the
//! work-stealing pre-processing pipeline: writer/reader stress with
//! invariant checks, and determinism in the worker count.

use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqs_core::prelude::{ExactSummarizer, GreedySummarizer, Summarizer};
use vqs_data::{DimSpec, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;

const TARGETS: [&str; 2] = ["delay", "cancelled"];
const DIMS: [&str; 3] = ["season", "region", "airline"];
const VALUES_PER_DIM: usize = 8;

/// The deterministic text every writer stores for a query; readers use it
/// to detect torn or half-written speeches.
fn expected_text(query: &Query) -> String {
    format!("speech::{query}")
}

fn speech_for(query: Query) -> StoredSpeech {
    let rows = 1 + query.len() * 10;
    StoredSpeech {
        text: expected_text(&query),
        facts: vec![],
        utility: query.len() as f64,
        base_error: 2.0,
        rows,
        query,
    }
}

/// A deterministic universe of distinct queries: every 0-, 1- and
/// 2-predicate combination over the small dimension/value grid.
fn query_universe() -> Vec<Query> {
    let value = |v: usize| format!("v{v}");
    let mut queries = Vec::new();
    for target in TARGETS {
        queries.push(Query::of(target, &[]));
        for (d, dim) in DIMS.iter().enumerate() {
            for v in 0..VALUES_PER_DIM {
                queries.push(Query::new(target, [(dim.to_string(), value(v))]));
                for dim2 in &DIMS[d + 1..] {
                    for v2 in 0..VALUES_PER_DIM {
                        queries.push(Query::new(
                            target,
                            [(dim.to_string(), value(v)), (dim2.to_string(), value(v2))],
                        ));
                    }
                }
            }
        }
    }
    queries
}

/// 8 writers + 8 readers hammer the store concurrently. Every concurrent
/// lookup must observe either a miss or a fully-formed speech, no insert
/// may be lost, and the final state must equal a sequential replay.
#[test]
fn stress_8_writers_8_readers() {
    let universe = query_universe();
    assert!(universe.len() >= 400, "universe too small to stress shards");
    let store = SpeechStore::new();
    let writers_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let chunk = universe.len().div_ceil(8);
        for (w, slice) in universe.chunks(chunk).enumerate() {
            let store = &store;
            scope.spawn(move || {
                // Insert twice (second pass replaces with identical
                // content) to exercise the replacement path under load.
                for pass in 0..2 {
                    for query in slice {
                        store.insert(speech_for(query.clone()));
                    }
                    if pass == 0 && w == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for r in 0..8 {
            let store = &store;
            let universe = &universe;
            let writers_done = &writers_done;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE + r);
                let mut observed_hit = false;
                loop {
                    let done = writers_done.load(Ordering::Relaxed);
                    for _ in 0..500 {
                        let probe = match rng.gen_range(0..4u32) {
                            // An exact stored query.
                            0 | 1 => universe[rng.gen_range(0..universe.len())].clone(),
                            // A 3-predicate query forcing the fallback.
                            2 => {
                                let target = TARGETS[rng.gen_range(0..TARGETS.len())];
                                Query::new(
                                    target,
                                    DIMS.iter().map(|dim| {
                                        (
                                            dim.to_string(),
                                            format!("v{}", rng.gen_range(0..VALUES_PER_DIM)),
                                        )
                                    }),
                                )
                            }
                            // An unknown target: always a miss.
                            _ => Query::of("satisfaction", &[("season", "v0")]),
                        };
                        match store.lookup(&probe) {
                            Lookup::Miss => {}
                            Lookup::Exact(speech) => {
                                observed_hit = true;
                                assert_eq!(speech.query, probe);
                                assert_eq!(speech.text, expected_text(&speech.query));
                            }
                            Lookup::Generalized {
                                speech,
                                kept_predicates,
                            } => {
                                observed_hit = true;
                                assert!(
                                    speech.query.subset_of(&probe),
                                    "{} ⊄ {}",
                                    speech.query,
                                    probe
                                );
                                assert_ne!(speech.query, probe);
                                assert_eq!(kept_predicates, speech.query.len());
                                assert_eq!(speech.text, expected_text(&speech.query));
                            }
                        }
                    }
                    if done {
                        break;
                    }
                }
                // After the writers finished, at least the final rounds
                // must have seen data (the store is fully populated).
                assert!(observed_hit);
            });
        }
        // Watcher: release the readers once every insert is visible, so
        // each reader runs at least one full round against the complete
        // store before exiting.
        scope.spawn(|| {
            while store.len() < universe.len() {
                std::thread::yield_now();
            }
            writers_done.store(true, Ordering::Relaxed);
        });
    });

    // No lost inserts.
    assert_eq!(store.len(), universe.len());
    // Final state equals a sequential replay.
    let replay = SpeechStore::new();
    for query in &universe {
        replay.insert(speech_for(query.clone()));
    }
    assert_eq!(store.snapshot(), replay.snapshot());
    // Every stored query now answers exactly.
    for query in &universe {
        match store.lookup(query) {
            Lookup::Exact(speech) => assert_eq!(speech.text, expected_text(query)),
            other => panic!("{query} should hit exactly, got {other:?}"),
        }
    }
}

/// Concurrent `invalidate_target` against readers: lookups of the other
/// target are never disturbed, and the invalidated target transitions to
/// misses without ever serving a malformed speech.
#[test]
fn invalidation_under_concurrent_reads() {
    let universe = query_universe();
    let store = SpeechStore::new();
    for query in &universe {
        store.insert(speech_for(query.clone()));
    }
    std::thread::scope(|scope| {
        let store = &store;
        let universe = &universe;
        scope.spawn(move || {
            store.invalidate_target("delay");
        });
        for r in 0..4 {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(99 + r);
                for _ in 0..2_000 {
                    let probe = &universe[rng.gen_range(0..universe.len())];
                    match store.lookup(probe) {
                        Lookup::Miss => assert_eq!(probe.target(), "delay"),
                        Lookup::Exact(speech) => {
                            assert_eq!(speech.text, expected_text(&speech.query))
                        }
                        Lookup::Generalized { speech, .. } => {
                            // Mid-invalidation a more general surviving
                            // speech may answer; it must still be whole.
                            assert_eq!(speech.text, expected_text(&speech.query));
                            assert!(speech.query.subset_of(probe));
                        }
                    }
                }
            });
        }
    });
    assert_eq!(store.speeches_for_target("delay").len(), 0);
    let cancelled: Vec<_> = store.speeches_for_target("cancelled");
    assert_eq!(cancelled.len(), universe.len() / 2);
}

fn determinism_dataset() -> vqs_data::GeneratedDataset {
    SynthSpec {
        name: "determinism".to_string(),
        dims: vec![
            DimSpec::named("season", &["Winter", "Spring", "Summer", "Fall"]),
            DimSpec::named("region", &["East", "West", "North", "South"]),
            DimSpec::synthetic("airline", "airline", 3, 0.4),
        ],
        targets: vec![
            TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
            TargetSpec::new("cancelled", 30.0, 10.0, 4.0, (0.0, 1000.0)),
        ],
        rows: 600,
    }
    .generate(0xD57, 1.0)
}

/// `preprocess` with 1, 2, and 8 workers yields byte-identical stores and
/// identical instrumentation totals, for the optimized greedy and the
/// exact summarizer — the work-stealing queue must not introduce
/// chunking- or scheduling-dependent results. Registration runs on the
/// service's shared solver pool, so this also pins the pool path.
#[test]
fn preprocess_is_deterministic_in_worker_count() {
    let data = determinism_dataset();
    let config = Configuration::new(
        "determinism",
        &["season", "region", "airline"],
        &["delay", "cancelled"],
    );
    let summarizers: [fn() -> Box<dyn Summarizer + Send + Sync>; 2] = [
        || Box::new(GreedySummarizer::with_optimized_pruning()),
        || Box::new(ExactSummarizer::paper()),
    ];
    for summarizer in summarizers {
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let service = ServiceBuilder::new()
                    .workers(workers)
                    .summarizer_box(summarizer())
                    .build();
                let report = service
                    .register_dataset(TenantSpec::new("determinism", data.clone(), config.clone()))
                    .unwrap();
                (service.tenant_store("determinism").unwrap(), report)
            })
            .collect();
        let name = summarizer().name();
        let (reference_store, reference_report) = &runs[0];
        let reference = reference_store.snapshot();
        assert!(reference_report.queries > 50, "{name}");
        for (store, report) in &runs[1..] {
            assert_eq!(report.queries, reference_report.queries, "{name}");
            assert_eq!(report.speeches, reference_report.speeches, "{name}");
            // Instrumentation totals are summed in job order from
            // per-worker partials: exactly equal, not just approximately.
            assert_eq!(
                report.instrumentation, reference_report.instrumentation,
                "{name}"
            );
            let snapshot = store.snapshot();
            assert_eq!(snapshot, reference, "{name}");
            // Byte-identical including float formatting, not just PartialEq.
            assert_eq!(format!("{snapshot:?}"), format!("{reference:?}"), "{name}");
        }
    }
}
