//! §VIII-E ML experiment: can a learned text generator replace the
//! optimizing summarizer given a small seed set of summaries?
//!
//! The paper trains a seq2seq model on 49 (facts, summary) pairs for
//! queries placing one predicate on the flights dimension with the most
//! distinct values (52 airport regions), tests on 3, and finds the
//! generated speeches syntactically plausible but redundant and overly
//! narrow — rated below 5.92 on every adjective vs above 7.28 for ours.

use std::sync::Arc;

use vqs_baseline::mlgen::{MlGenerator, TrainExample};
use vqs_core::prelude::*;
use vqs_data::{DimSpec, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_usersim::{compare_profiles, SpeechProfile};

use crate::experiments::fig11::named_to_fact;
use crate::{print_table, RunConfig};

/// Flights variant with a 52-value region dimension, matching the
/// paper's "start airport region with 52 values".
fn ml_flights_spec() -> SynthSpec {
    SynthSpec {
        name: "Flights-ML".to_string(),
        dims: vec![
            DimSpec::synthetic("start_region", "region", 52, 0.5),
            DimSpec::named("season", &["Spring", "Summer", "Fall", "Winter"]),
            DimSpec::synthetic("airline", "airline", 10, 0.6),
        ],
        targets: vec![TargetSpec::new("cancelled", 25.0, 12.0, 6.0, (0.0, 1000.0))],
        rows: 20_000,
    }
}

/// Run the ML comparison.
pub fn run(config: &RunConfig) {
    let dataset = ml_flights_spec().generate(config.seed, config.scale.max(0.2));
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let engine_config = Configuration::new(&dataset.name, &dims, &["cancelled"]);
    let relation =
        target_relation(&dataset, &engine_config, "cancelled").expect("cancelled target");
    let template = Arc::new(SpeechTemplate::per_mille(
        "cancellation probability",
        "flights",
    ));
    let summarizer = GreedySummarizer::with_optimized_pruning();
    let cells = target_cells(&relation);

    // All queries with one predicate on the 52-value dimension.
    let items: Vec<WorkItem> = enumerate_queries(&relation, &engine_config, "cancelled")
        .into_iter()
        .filter(|item| item.query.len() == 1 && &*item.query.predicates()[0].0 == "start_region")
        .collect();
    let (train_items, test_items) = items.split_at(items.len().saturating_sub(3));

    // Training pairs from the optimizing approach's own summaries.
    let train_start = std::time::Instant::now();
    let examples: Vec<TrainExample> = train_items
        .iter()
        .map(|item| {
            let (speech, _) = solve_item(
                &relation,
                &cells,
                &engine_config,
                &summarizer,
                &template,
                item,
            )
            .expect("solve succeeds");
            TrainExample {
                summary: speech.text(),
                facts: speech.facts.into_vec(),
            }
        })
        .collect();
    let model = MlGenerator::train(&examples);
    let train_time = train_start.elapsed();

    // Generate for the test queries and compare against ours.
    let mut rows = Vec::new();
    let mut rating_sums = vec![(0.0f64, 0.0f64); 6];
    let mut generation_time = std::time::Duration::ZERO;
    for (ti, item) in test_items.iter().enumerate() {
        let (ours, _) = solve_item(
            &relation,
            &cells,
            &engine_config,
            &summarizer,
            &template,
            item,
        )
        .expect("solve succeeds");
        let subset = relation.subset(&item.rows).expect("subset valid");

        // The ML model selects from the same candidate pool.
        let free: Vec<usize> = (0..subset.dim_count())
            .filter(|&d| &*subset.dims()[d].name != "start_region")
            .collect();
        let catalog =
            FactCatalog::build(&subset, &free, engine_config.max_fact_dimensions).expect("catalog");
        let candidates: Vec<NamedFact> = catalog
            .facts()
            .map(|f| NamedFact {
                scope: f
                    .scope
                    .pairs()
                    .into_iter()
                    .map(|(d, code)| {
                        let dim = &subset.dims()[d];
                        (dim.name.clone(), dim.values[code as usize].clone())
                    })
                    .collect(),
                value: f.value,
                support: f.support,
            })
            .collect();
        let gen_start = std::time::Instant::now();
        let ml_text = model.generate(&candidates);
        generation_time += gen_start.elapsed();

        // Profile the ML selection: quality of its chosen facts under the
        // utility model, plus its redundancy.
        let mut ranked = candidates.clone();
        ranked.sort_by(|a, b| {
            b.scope
                .len()
                .cmp(&a.scope.len())
                .then(b.value.abs().total_cmp(&a.value.abs()))
        });
        let ml_facts: Vec<NamedFact> = ranked.into_iter().take(3).collect();
        let core_facts: Vec<Fact> = ml_facts
            .iter()
            .filter_map(|f| named_to_fact(&subset, f))
            .collect();
        let base = base_error(&subset).max(f64::EPSILON);
        let ml_profile = SpeechProfile {
            quality: (utility(&subset, &core_facts) / base).clamp(0.0, 1.0),
            range_width: 0.0,
            redundancy: MlGenerator::redundancy(&ml_facts),
            words: ml_text.split_whitespace().count().max(10),
        };
        let ours_profile = SpeechProfile::precise(
            ours.scaled_utility(),
            ours.text().split_whitespace().count(),
        );
        let comparison = compare_profiles(
            &ours_profile,
            &ml_profile,
            150,
            config.seed + 60 + ti as u64,
        );
        for (i, row) in comparison.iter().enumerate() {
            rating_sums[i].0 += row.ours_rating;
            rating_sums[i].1 += row.baseline_rating;
            if ti == 0 {
                rows.push(vec![row.adjective.to_string()]);
            }
        }
    }
    let tests = test_items.len().max(1) as f64;
    for (cells, sums) in rows.iter_mut().zip(&rating_sums) {
        cells.push(format!("{:.2}", sums.0 / tests));
        cells.push(format!("{:.2}", sums.1 / tests));
    }
    print_table(
        "§VIII-E ML comparison — ratings (ours vs ML-generated)",
        &["Adjective", "Ours", "ML"],
        &rows,
    );
    println!(
        "{} training pairs in {:?}; generation {:?} per sample \
         (paper: 49 pairs, 30 s training, 24 ms/sample; ratings ours > 7.28, ML < 5.92).",
        train_items.len(),
        train_time,
        generation_time / test_items.len().max(1) as u32,
    );
}
