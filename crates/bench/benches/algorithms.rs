//! Micro-benchmarks of the summarization algorithms, including two
//! ablations: exact-search bound pruning on/off/tight and incremental
//! residual maintenance vs recomputation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vqs_core::prelude::*;
use vqs_data::{scenarios, DEFAULT_SEED};
use vqs_engine::prelude::*;

fn flights_problem() -> (EncodedRelation, FactCatalog) {
    let dataset = scenarios::flights_spec().generate(DEFAULT_SEED, 0.02);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new("flights", &dims, &["cancelled"]);
    let relation = target_relation(&dataset, &config, "cancelled").unwrap();
    let catalog =
        FactCatalog::build(&relation, &(0..relation.dim_count()).collect::<Vec<_>>(), 2).unwrap();
    (relation, catalog)
}

fn bench_greedy(c: &mut Criterion) {
    let (relation, catalog) = flights_problem();
    let problem = Problem::new(&relation, &catalog, 3).unwrap();
    let mut group = c.benchmark_group("greedy");
    group.bench_function("g_b", |b| {
        b.iter(|| {
            GreedySummarizer::base()
                .summarize(&problem)
                .unwrap()
                .utility
        })
    });
    group.bench_function("g_p", |b| {
        b.iter(|| {
            GreedySummarizer::with_naive_pruning()
                .summarize(&problem)
                .unwrap()
                .utility
        })
    });
    group.bench_function("g_o", |b| {
        b.iter(|| {
            GreedySummarizer::with_optimized_pruning()
                .summarize(&problem)
                .unwrap()
                .utility
        })
    });
    group.finish();
}

fn bench_exact_ablation(c: &mut Criterion) {
    // Smaller instance so the unpruned search stays tractable.
    let dataset = scenarios::acs_spec().generate(DEFAULT_SEED, 0.02);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new("acs", &dims, &["hearing"]);
    let relation = target_relation(&dataset, &config, "hearing").unwrap();
    let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
    let problem = Problem::new(&relation, &catalog, 3).unwrap();
    let mut group = c.benchmark_group("exact");
    group.sample_size(10);
    group.bench_function("paper_bounds", |b| {
        b.iter(|| {
            ExactSummarizer::paper()
                .summarize(&problem)
                .unwrap()
                .utility
        })
    });
    group.bench_function("tight_bounds", |b| {
        b.iter(|| {
            ExactSummarizer::with_tight_bounds()
                .summarize(&problem)
                .unwrap()
                .utility
        })
    });
    group.bench_function("no_bound_pruning", |b| {
        b.iter(|| {
            ExactSummarizer::without_bound_pruning()
                .summarize(&problem)
                .unwrap()
                .utility
        })
    });
    group.finish();
}

fn bench_residual_maintenance(c: &mut Criterion) {
    // Ablation: incremental residual updates vs full recomputation after
    // each fact — the reason Algorithm 2 carries expectations in a column.
    let (relation, catalog) = flights_problem();
    let facts: Vec<Fact> = catalog.facts().take(16).collect();
    let mut group = c.benchmark_group("residuals");
    group.bench_function("incremental", |b| {
        b.iter_batched(
            || ResidualState::new(&relation),
            |mut state| {
                for fact in &facts {
                    state.apply_fact(&relation, fact);
                }
                state.total()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("recompute", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for i in 1..=facts.len() {
                total = speech_error(&relation, &facts[..i]);
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_greedy,
    bench_exact_ablation,
    bench_residual_maintenance
);
criterion_main!(benches);
