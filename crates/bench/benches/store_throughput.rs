//! Mixed read/write throughput of the sharded speech store versus a
//! single-`RwLock` baseline (the pre-ISSUE-2 design), at 1, 8 and 16
//! threads. The sharded store must win on the ≥ 8-thread mixed workloads:
//! readers only contend with writers that hash to the same shard, while
//! the single lock serializes every write against all readers.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vqs_engine::prelude::*;
use vqs_relalg::hash::FxHashMap;

const TARGETS: [&str; 2] = ["delay", "cancelled"];
const DIMS: [&str; 3] = ["season", "region", "airline"];
const VALUES_PER_DIM: usize = 8;
/// Operations per thread per measured iteration; large enough that the
/// scoped-thread spawn cost is noise.
const OPS_PER_THREAD: usize = 2_000;

/// The store interface the workload drives, so the sharded store and the
/// single-lock baseline run byte-for-byte the same benchmark loop.
trait Store: Sync {
    fn insert(&self, speech: StoredSpeech);
    /// Returns true when the lookup produced a speech.
    fn lookup_hit(&self, query: &Query) -> bool;
}

impl Store for SpeechStore {
    fn insert(&self, speech: StoredSpeech) {
        SpeechStore::insert(self, speech);
    }

    fn lookup_hit(&self, query: &Query) -> bool {
        self.lookup(query).speech().is_some()
    }
}

/// The old design: one global reader-writer lock around one hash map,
/// with the unindexed subset-walk fallback.
#[derive(Default)]
struct SingleLockStore {
    speeches: std::sync::RwLock<FxHashMap<Query, Arc<StoredSpeech>>>,
}

impl Store for SingleLockStore {
    fn insert(&self, speech: StoredSpeech) {
        self.speeches
            .write()
            .unwrap()
            .insert(speech.query.clone(), Arc::new(speech));
    }

    fn lookup_hit(&self, query: &Query) -> bool {
        let map = self.speeches.read().unwrap();
        if map.contains_key(query) {
            return true;
        }
        query
            .generalizations()
            .into_iter()
            .skip(1)
            .any(|candidate| map.contains_key(&candidate))
    }
}

fn value(v: usize) -> String {
    format!("v{v}")
}

fn speech_for(query: Query) -> StoredSpeech {
    StoredSpeech {
        text: format!("speech::{query}").into(),
        facts: Box::new([]),
        utility: 1.0,
        base_error: 2.0,
        rows: 1 + query.len(),
        query,
    }
}

/// Every 0-, 1- and 2-predicate query over the grid (the stored set).
fn query_universe() -> Vec<Query> {
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

/// 3-predicate probes that always exercise the generalization fallback.
fn fallback_probes() -> Vec<Query> {
    (0..64)
        .map(|i| {
            Query::new(
                TARGETS[i % 2],
                DIMS.iter()
                    .enumerate()
                    .map(|(d, dim)| (dim.to_string(), value((i + d) % VALUES_PER_DIM))),
            )
        })
        .collect()
}

/// Mixed workload: per thread, 60% exact lookups, 30% fallback lookups
/// (the §VIII-D deployment log is dominated by user queries longer than
/// the pre-processed length), 10% (re-)inserts, over disjoint per-thread
/// traversal orders.
fn run_mixed<S: Store>(store: &S, universe: &[Query], fallbacks: &[Query], threads: usize) -> u64 {
    let hits = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let hits = &hits;
            scope.spawn(move || {
                let mut local = 0u64;
                // Deterministic per-thread stride so threads spread over
                // the key space instead of marching in lockstep.
                let stride = 2 * t + 1;
                for i in 0..OPS_PER_THREAD {
                    let k = (i * stride + t) % universe.len();
                    match i % 10 {
                        0 => store.insert(speech_for(universe[k].clone())),
                        1..=3 => {
                            if store.lookup_hit(&fallbacks[k % fallbacks.len()]) {
                                local += 1;
                            }
                        }
                        _ => {
                            if store.lookup_hit(&universe[k]) {
                                local += 1;
                            }
                        }
                    }
                }
                hits.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    hits.load(std::sync::atomic::Ordering::Relaxed)
}

fn bench_throughput(c: &mut Criterion) {
    let universe = query_universe();
    let fallbacks = fallback_probes();

    let mut group = c.benchmark_group("store_throughput");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(150));
    for threads in [1usize, 8, 16] {
        let sharded = SpeechStore::new();
        let single = SingleLockStore::default();
        for query in &universe {
            sharded.insert(speech_for(query.clone()));
            Store::insert(&single, speech_for(query.clone()));
        }
        group.bench_function(&format!("sharded/{threads}t"), |b| {
            b.iter(|| black_box(run_mixed(&sharded, &universe, &fallbacks, threads)))
        });
        group.bench_function(&format!("single_lock/{threads}t"), |b| {
            b.iter(|| black_box(run_mixed(&single, &universe, &fallbacks, threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
