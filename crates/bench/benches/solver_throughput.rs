//! Solver hot-path benchmarks on the flights scenario.
//!
//! * `kernel/*` — per-fact utility gains and apply/revert cycles through
//!   the catalog's cell-ordered index versus the original full row scan
//!   with per-row scope matching. The indexed kernel must win by ≥ 3×
//!   (it touches each row once per group per sweep, as a lone row or
//!   inside a run, instead of `rows × facts` rows, each with scope
//!   decoding).
//! * `exact/*` — the branch-and-bound exact search on one flights
//!   instance, in the paper configuration (greedy seed + bound pruning,
//!   a small search) and in the pruning-free ablation (a ~2.4M-node
//!   search).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use vqs_core::prelude::*;
use vqs_data::{scenarios, DEFAULT_SEED};
use vqs_engine::prelude::*;

fn flights_relation() -> EncodedRelation {
    let dataset = scenarios::flights_spec().generate(DEFAULT_SEED, 0.02);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new("flights", &dims, &["cancelled"]);
    target_relation(&dataset, &config, "cancelled").unwrap()
}

/// One full sweep: the gain of every candidate fact against `state`.
fn sweep_scan(relation: &EncodedRelation, facts: &[Fact], state: &ResidualState) -> f64 {
    facts.iter().map(|fact| state.gain_of(relation, fact)).sum()
}

fn sweep_indexed(catalog: &FactCatalog, state: &ResidualState) -> f64 {
    (0..catalog.len())
        .map(|id| state.gain_indexed(catalog.fact_index(id)))
        .sum()
}

fn bench_kernel(c: &mut Criterion) {
    let relation = flights_relation();
    let catalog =
        FactCatalog::build(&relation, &(0..relation.dim_count()).collect::<Vec<_>>(), 2).unwrap();
    let facts: Vec<Fact> = catalog.facts().collect();
    let state = ResidualState::new(&relation);
    let cell_state = catalog.residual_state();

    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    group.bench_function("gain_scan", |b| {
        b.iter(|| black_box(sweep_scan(&relation, &facts, &state)))
    });
    group.bench_function("gain_indexed", |b| {
        b.iter(|| black_box(sweep_indexed(&catalog, &cell_state)))
    });

    // Apply + revert cycles over the first facts of every group — the
    // exact search's per-node work.
    let picks: Vec<FactId> = catalog.groups().iter().map(|g| g.fact_start).collect();
    group.bench_function("apply_revert_scan", |b| {
        b.iter_batched(
            || ResidualState::new(&relation),
            |mut state| {
                for &id in &picks {
                    let fact = catalog.fact(id);
                    let (_, undo) = state.apply_fact(&relation, &fact);
                    state.revert(&undo);
                }
                state.total()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("apply_revert_indexed", |b| {
        b.iter_batched(
            || (catalog.residual_state(), UndoArena::new()),
            |(mut state, mut arena)| {
                for &id in &picks {
                    state.apply_indexed(catalog.fact_index(id), &mut arena);
                    state.revert_frame(&mut arena);
                }
                state.total()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    let relation = flights_relation();
    // Airline × origin × season: enough candidates that the DFS dominates.
    let catalog = FactCatalog::build(&relation, &[0, 1, 3], 2).unwrap();
    let problem = Problem::new(&relation, &catalog, 3).unwrap();

    let mut group = c.benchmark_group("exact");
    group.sample_size(10);
    for (label, summarizer) in [
        ("paper", ExactSummarizer::paper()),
        ("no_bounds", ExactSummarizer::without_bound_pruning()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| summarizer.summarize(&problem).unwrap().utility)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel, bench_exact);
criterion_main!(benches);
