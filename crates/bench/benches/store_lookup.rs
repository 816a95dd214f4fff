//! Run-time speech-store lookups (the Fig. 10 "our latency" path), and
//! the text rendering every store answer pays after its lookup.

use criterion::{criterion_group, criterion_main, Criterion};
use vqs_data::{scenarios, DEFAULT_SEED};
use vqs_engine::prelude::*;

fn bench_lookup(c: &mut Criterion) {
    let dataset = scenarios::flights_spec().generate(DEFAULT_SEED, 0.02);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new("flights", &dims, &["cancelled"]);
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(TenantSpec::new("flights", dataset, config))
        .unwrap();
    let store = service.tenant_store("flights").unwrap();
    let queries = store.queries();
    let exact = queries.iter().find(|q| q.len() == 1).unwrap().clone();
    // A query whose exact combination is absent: exercises the fallback.
    let fallback = Query::of(
        "cancelled",
        &[
            ("season", "Winter"),
            ("weekday", "Mon"),
            ("daypart", "night"),
        ],
    );

    // A query on a target that was never pre-processed: the secondary
    // index rejects it after a single probe.
    let miss = Query::of("satisfaction", &[("season", "Winter")]);

    let mut group = c.benchmark_group("store_lookup");
    group.bench_function("exact_hit", |b| b.iter(|| store.lookup(&exact)));
    group.bench_function("generalization_fallback", |b| {
        b.iter(|| store.lookup(&fallback))
    });
    group.bench_function("miss_unknown_target", |b| b.iter(|| store.lookup(&miss)));
    group.finish();

    // Directional evidence that the fallback is index-driven, not a
    // subset walk: report probes-per-lookup for the fallback query.
    store.reset_stats();
    let _ = store.lookup(&fallback);
    let stats = store.stats();
    println!(
        "store_lookup/fallback_probes            {} probes over {} stored speeches \
         ({} subsets would be walked unindexed)",
        stats.probes,
        store.len(),
        1u64 << fallback.len()
    );
}

/// `StoredSpeech::text` over every speech of Stack Overflow at scale 1.0,
/// the largest store voicebench serves: one sample renders all of them,
/// as many answers would, one each.
fn bench_speech_text(c: &mut Criterion) {
    let dataset = vqs_data::by_letter("S", 1.0).expect("Stack Overflow");
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new(&dataset.name, &dims, &["competence"]);
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(TenantSpec::new("so", dataset, config))
        .unwrap();
    let speeches = service.tenant_store("so").unwrap().snapshot();
    let mut group = c.benchmark_group("speech_text");
    group.bench_function("stackoverflow_every_speech", |b| {
        b.iter(|| speeches.iter().map(|s| s.text().len()).sum::<usize>())
    });
    group.finish();
    let chars: usize = speeches.iter().map(|s| s.text().len()).sum();
    println!(
        "speech_text/stackoverflow                {} speeches, {} bytes of text",
        speeches.len(),
        chars
    );
}

criterion_group!(benches, bench_lookup, bench_speech_text);
criterion_main!(benches);
