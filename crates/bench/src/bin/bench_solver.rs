//! Solver perf trajectory recorder: measures greedy and exact wall-times
//! on pinned scenarios plus the indexed-vs-scan kernel sweeps, and emits
//! `BENCH_solver.json` (schema `vqs-bench-solver/v3`). CI runs it as a
//! smoke step; the committed baselines form the trajectory across PRs.
//!
//! The binary asserts that every entry solved all its queries, that the
//! indexed and grouped kernel sweeps agree with the full scan, and that
//! each beats the scan by at least [`MIN_KERNEL_SPEEDUP`].
//!
//! Schema v3 drops v2's `workers` and `executor` fields: every solver
//! runs one search per query on one thread.
//!
//! Usage: `bench_solver [--out PATH] [--scale X] [--queries N]`

use std::time::Instant;

use vqs_bench::{run_batch, sample_items, scenario_dataset, single_target_config, RunConfig};
use vqs_core::prelude::*;
use vqs_engine::prelude::*;

/// The floor on the indexed and grouped kernel sweeps' speedup over the
/// full row scan (`benches/solver_throughput.rs` documents it).
const MIN_KERNEL_SPEEDUP: f64 = 3.0;

/// One timed measurement in the emitted JSON.
struct Entry {
    scenario: String,
    algorithm: String,
    queries: usize,
    solved: usize,
    wall_ms: f64,
}

/// The pinned (scenario, target) pairs: two flights targets, plus ACS
/// for a second data shape.
const PINNED: [(&str, char, &str); 3] = [
    ("F-C", 'F', "cancelled"),
    ("F-D", 'F', "delay"),
    ("A-H", 'A', "hearing"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut config = RunConfig {
        scale: 0.02,
        query_limit: 24,
        ..Default::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                })
                .to_string()
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")),
            "--scale" => config.scale = value("--scale").parse().expect("numeric scale"),
            "--queries" => config.query_limit = value("--queries").parse().expect("numeric limit"),
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let mut entries: Vec<Entry> = Vec::new();
    for (name, letter, target) in PINNED {
        let dataset = scenario_dataset(letter, &config);
        let engine_config = single_target_config(&dataset, target);
        let relation = target_relation(&dataset, &engine_config, target).expect("pinned target");
        let items = sample_items(
            enumerate_queries(&relation, &engine_config, target),
            config.query_limit,
        );
        let algorithms: Vec<(&str, Box<dyn Summarizer>)> = vec![
            ("G-B", Box::new(GreedySummarizer::base())),
            ("G-O", Box::new(GreedySummarizer::with_optimized_pruning())),
            ("E", Box::new(ExactSummarizer::paper())),
        ];
        // Best of repeated batches, interleaved round-robin across the
        // algorithms: the smallest batches run in the hundreds of
        // microseconds, where a single scheduler hiccup would swamp the
        // signal. Interleaving keeps a slow machine period (shared runners
        // throttle in multi-second waves) from landing on one algorithm's
        // entire sample; repeating until ≥20 ms accumulates per algorithm
        // (at least 5, at most 40 rounds) gives µs-scale scenarios enough
        // samples for the minimum to reach the noise floor.
        let mut best: Vec<Option<(usize, f64)>> = vec![None; algorithms.len()];
        let mut totals = vec![0.0f64; algorithms.len()];
        let mut rounds = 0;
        while rounds < 5 || (totals.iter().any(|&ms| ms < 20.0) && rounds < 40) {
            for (slot, (_, summarizer)) in algorithms.iter().enumerate() {
                let outcome = run_batch(
                    &relation,
                    &engine_config,
                    summarizer.as_ref(),
                    &items,
                    config.timeout,
                );
                let wall_ms = outcome.elapsed.as_secs_f64() * 1e3;
                totals[slot] += wall_ms;
                if best[slot].is_none_or(|(_, ms)| wall_ms < ms) {
                    best[slot] = Some((outcome.solved(), wall_ms));
                }
            }
            rounds += 1;
        }
        for ((algorithm, _), best) in algorithms.iter().zip(best) {
            let (solved, wall_ms) = best.expect("at least one round ran");
            assert_eq!(
                solved,
                items.len(),
                "{name} {algorithm}: solved {solved} of {} queries",
                items.len()
            );
            entries.push(Entry {
                scenario: name.to_string(),
                algorithm: algorithm.to_string(),
                queries: items.len(),
                solved,
                wall_ms,
            });
        }
    }

    // Kernel sweeps on the full flights catalog: gains of every
    // candidate fact via (a) the original full scan, (b) the per-fact
    // cell-ordered index (lone rows gathered, runs streamed), (c) the
    // grouped pass (the greedy sweep's actual inner loop).
    let dataset = scenario_dataset('F', &config);
    let engine_config = single_target_config(&dataset, "cancelled");
    let relation = target_relation(&dataset, &engine_config, "cancelled").expect("flights");
    let catalog = FactCatalog::build(&relation, &(0..relation.dim_count()).collect::<Vec<_>>(), 2)
        .expect("flights catalog");
    let state = ResidualState::new(&relation);
    let cell_state = catalog.residual_state();
    // Minimum over repetitions — the standard noise floor for µs-scale
    // sweeps (any rep can only be slowed down by interference, never
    // sped up past the true cost).
    let reps = 7;
    let mut scan_ms = f64::INFINITY;
    let mut scan_sum = 0.0;
    let facts: Vec<Fact> = catalog.facts().collect();
    for _ in 0..reps {
        let start = Instant::now();
        let mut sum = 0.0;
        for fact in &facts {
            sum += state.gain_of(&relation, fact);
        }
        scan_ms = scan_ms.min(start.elapsed().as_secs_f64() * 1e3);
        scan_sum = sum;
    }
    let mut indexed_ms = f64::INFINITY;
    let mut indexed_sum = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        let mut sum = 0.0;
        for id in 0..catalog.len() {
            sum += cell_state.gain_indexed(catalog.fact_index(id));
        }
        indexed_ms = indexed_ms.min(start.elapsed().as_secs_f64() * 1e3);
        indexed_sum = sum;
    }
    let mut grouped_ms = f64::INFINITY;
    let mut grouped_sum = 0.0;
    let mut counters = Instrumentation::default();
    let mut gains = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let mut sum = 0.0;
        for group in 0..catalog.groups().len() {
            catalog.group_gains_into(&cell_state, group, &mut counters, &mut gains);
            sum += gains.iter().sum::<f64>();
        }
        grouped_ms = grouped_ms.min(start.elapsed().as_secs_f64() * 1e3);
        grouped_sum = sum;
    }
    // Relative tolerance: the unrolled kernels reassociate additions, so
    // the agreement bound must scale with the magnitude of the totals.
    let tolerance = 1e-9 * (1.0 + scan_sum.abs());
    assert!(
        (scan_sum - indexed_sum).abs() < tolerance,
        "kernel mismatch: scan {scan_sum} vs indexed {indexed_sum}"
    );
    assert!(
        (scan_sum - grouped_sum).abs() < tolerance,
        "kernel mismatch: scan {scan_sum} vs grouped {grouped_sum}"
    );
    for (sweep, ms) in [("indexed", indexed_ms), ("grouped", grouped_ms)] {
        assert!(
            ms * MIN_KERNEL_SPEEDUP <= scan_ms,
            "{sweep} sweep {ms:.3} ms is not {MIN_KERNEL_SPEEDUP}x faster than the scan's {scan_ms:.3} ms"
        );
    }

    let json = render_json(&config, &entries, &catalog, scan_ms, indexed_ms, grouped_ms);
    match out {
        Some(path) => {
            std::fs::write(&path, &json).expect("write BENCH_solver.json");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

fn render_json(
    config: &RunConfig,
    entries: &[Entry],
    catalog: &FactCatalog,
    scan_ms: f64,
    indexed_ms: f64,
    grouped_ms: f64,
) -> String {
    let speedup = |fast: f64| if fast > 0.0 { scan_ms / fast } else { 9999.0 };
    let mut lines = Vec::new();
    lines.push("{".to_string());
    lines.push("  \"schema\": \"vqs-bench-solver/v3\",".to_string());
    lines.push(format!("  \"scale\": {},", config.scale));
    lines.push(format!("  \"query_limit\": {},", config.query_limit));
    lines.push("  \"entries\": [".to_string());
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        lines.push(format!(
            "    {{\"scenario\": \"{}\", \"algorithm\": \"{}\", \"queries\": {}, \
             \"solved\": {}, \"wall_ms\": {:.3}}}{}",
            e.scenario, e.algorithm, e.queries, e.solved, e.wall_ms, comma
        ));
    }
    lines.push("  ],".to_string());
    lines.push("  \"kernel\": {".to_string());
    lines.push(format!("    \"facts\": {},", catalog.len()));
    lines.push(format!("    \"rows\": {},", catalog.rows()));
    lines.push(format!("    \"groups\": {},", catalog.groups().len()));
    lines.push(format!("    \"gain_sweep_scan_ms\": {scan_ms:.3},"));
    lines.push(format!("    \"gain_sweep_indexed_ms\": {indexed_ms:.3},"));
    lines.push(format!("    \"gain_sweep_grouped_ms\": {grouped_ms:.3},"));
    lines.push(format!(
        "    \"indexed_speedup\": {:.2},",
        speedup(indexed_ms)
    ));
    lines.push(format!(
        "    \"grouped_speedup\": {:.2}",
        speedup(grouped_ms)
    ));
    lines.push("  }".to_string());
    lines.push("}".to_string());
    let mut json = lines.join("\n");
    json.push('\n');
    json
}
