//! ISSUE-3 solver hot-path benchmarks on the flights scenario.
//!
//! * `kernel/*` — per-fact utility gains and apply/revert cycles through
//!   the catalog's cell-ordered index versus the original full row scan
//!   with per-row scope matching. The indexed kernel must win by ≥ 3×
//!   (it touches each row once per group per sweep, as a lone row or
//!   inside a run, instead of `rows × facts` rows, each with scope
//!   decoding).
//! * `exact/*` — the parallel branch-and-bound exact search at 1, 4 and
//!   8 workers on one flights instance; the setup asserts that every
//!   worker count returns a byte-identical speech before timing anything.
//!   Two instances are timed: the paper configuration (greedy seed +
//!   bound pruning — the search is tiny, so this measures fan-out
//!   overhead) and the pruning-free ablation whose ~2.4M-node search is
//!   what actually fans out. Worker scaling needs cores: on a single-CPU
//!   machine expect parity, on `n` cores an up-to-`n×` win on the
//!   search-dominated instance.

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
fn sweep_scan(relation: &EncodedRelation, catalog: &FactCatalog, state: &ResidualState) -> f64 {
    catalog
        .facts()
        .iter()
        .map(|fact| state.gain_of(relation, fact))
        .sum()
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
    let state = ResidualState::new(&relation);
    let cell_state = catalog.residual_state();

    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    group.bench_function("gain_scan", |b| {
        b.iter(|| black_box(sweep_scan(&relation, &catalog, &state)))
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
                    let fact = catalog.fact(id).clone();
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

fn bench_parallel_exact(c: &mut Criterion) {
    let relation = flights_relation();
    // Airline × origin × season: enough candidates that the DFS dominates.
    let catalog = FactCatalog::build(&relation, &[0, 1, 3], 2).unwrap();
    let problem = Problem::new(&relation, &catalog, 3).unwrap();

    let configs: [(&str, ExactSummarizer); 2] = [
        ("paper", ExactSummarizer::paper()),
        ("no_bounds", ExactSummarizer::without_bound_pruning()),
    ];
    for (label, base) in configs {
        // The parallel search must return the sequential speech
        // byte-for-byte before its timings mean anything.
        let reference = base.summarize(&problem).unwrap();
        for workers in [4usize, 8] {
            let parallel = ExactSummarizer {
                workers,
                ..base.clone()
            }
            .summarize(&problem)
            .unwrap();
            assert_eq!(parallel.utility.to_bits(), reference.utility.to_bits());
            assert_eq!(parallel.speech.facts(), reference.speech.facts());
        }

        let mut group = c.benchmark_group(&format!("exact_{label}"));
        group.sample_size(10);
        for workers in [1usize, 4, 8] {
            let summarizer = ExactSummarizer {
                workers,
                ..base.clone()
            };
            group.bench_function(&format!("{workers}w"), |b| {
                b.iter(|| summarizer.summarize(&problem).unwrap().utility)
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_kernel, bench_parallel_exact);
criterion_main!(benches);
