//! Fig. 11: AMT preferences — our precise pre-generated speeches vs the
//! sampling baseline's range-valued speeches, on three flight queries.
//!
//! Paper shape: ours wins on every adjective, with the largest gaps on
//! "Precise" and "Informative" ("reporting precise values … likely leads
//! to gains for properties like Precise and Informative").

use vqs_baseline::sampling::{vocalize, SamplingConfig, SamplingResult};
use vqs_core::prelude::*;
use vqs_engine::prelude::*;
use vqs_usersim::{compare_profiles, SpeechProfile};

use crate::{print_table, scenario_dataset, single_target_config, RunConfig};

/// Convert a named-scope fact back into a core [`Fact`] over `relation`.
pub fn named_to_fact(relation: &EncodedRelation, named: &NamedFact) -> Option<Fact> {
    let pairs: Vec<(usize, u32)> = named
        .scope
        .iter()
        .map(|(dim, value)| {
            let d = relation.dim_index(dim)?;
            let code = relation.dims()[d].code_of(value)?;
            Some((d, code))
        })
        .collect::<Option<Vec<_>>>()?;
    let scope = Scope::from_pairs(&pairs).ok()?;
    Some(Fact::new(scope, named.value, named.support))
}

fn baseline_profile(relation: &EncodedRelation, result: &SamplingResult) -> SpeechProfile {
    let facts: Vec<Fact> = result
        .facts
        .iter()
        .filter_map(|rf| named_to_fact(relation, &rf.to_named()))
        .collect();
    let base = base_error(relation).max(f64::EPSILON);
    let quality = (utility(relation, &facts) / base).clamp(0.0, 1.0);
    // Perceived imprecision: range width relative to the spoken value
    // ("between 5 and 10" around an estimate of 7 reads as very vague).
    let range_width = if result.facts.is_empty() {
        0.0
    } else {
        result
            .facts
            .iter()
            .map(|f| ((f.hi - f.lo) / f.estimate.abs().max(1.0)).min(1.0))
            .sum::<f64>()
            / result.facts.len() as f64
    };
    SpeechProfile {
        quality,
        range_width: range_width.min(1.0),
        redundancy: 0.0,
        words: result.text.split_whitespace().count(),
    }
}

/// Run the preference comparison.
pub fn run(config: &RunConfig) {
    let dataset = scenario_dataset('F', config);
    let engine_config = single_target_config(&dataset, "cancelled");
    let relation =
        target_relation(&dataset, &engine_config, "cancelled").expect("cancelled target");
    let region =
        relation.dims()[relation.dim_index("origin_region").unwrap()].values[0].to_string();

    // The paper's three queries: flights in general, flights in the
    // Northeast, flights in the Northeast in Winter.
    let queries = [
        Query::of("cancelled", &[]),
        Query::of("cancelled", &[("origin_region", region.as_str())]),
        Query::of(
            "cancelled",
            &[("origin_region", region.as_str()), ("season", "Winter")],
        ),
    ];

    let template = SpeechTemplate::per_mille("cancellation probability", "flights");
    let summarizer = GreedySummarizer::with_optimized_pruning();
    let cells = target_cells(&relation);
    let mut rows = Vec::new();
    let mut rating_sums = vec![(0.0f64, 0.0f64, 0usize, 0usize); 6];
    for (qi, query) in queries.iter().enumerate() {
        // Our speech.
        let item = WorkItem {
            query: query.clone(),
            rows: (0..relation.len())
                .filter(|&row| {
                    query.predicates().iter().all(|(dim, value)| {
                        let d = relation.dim_index(dim).unwrap();
                        relation.value_str(d, row) == value
                    })
                })
                .map(|row| row as u32)
                .collect(),
        };
        let (ours, _) = solve_item(
            &relation,
            &cells,
            &engine_config,
            &summarizer,
            &template,
            &item,
        )
        .expect("solve succeeds");
        let ours_profile =
            SpeechProfile::precise(ours.scaled_utility(), ours.text.split_whitespace().count());

        // Baseline speech on the same subset.
        let subset = relation.subset(&item.rows).expect("subset valid");
        let free: Vec<usize> = (0..subset.dim_count())
            .filter(|&d| {
                !query
                    .predicates()
                    .iter()
                    .any(|(n, _)| *n == subset.dims()[d].name)
            })
            .collect();
        let baseline = vocalize(
            &subset,
            &free,
            engine_config.max_fact_dimensions,
            &SamplingConfig {
                seed: config.seed + qi as u64,
                ..Default::default()
            },
        )
        .expect("baseline runs");
        let base_profile = baseline_profile(&subset, &baseline);

        // 150 workers per query × 6 adjectives ≈ the paper's 900 HITs.
        let comparison = compare_profiles(
            &ours_profile,
            &base_profile,
            150,
            config.seed + 40 + qi as u64,
        );
        for (i, row) in comparison.iter().enumerate() {
            rating_sums[i].0 += row.ours_rating;
            rating_sums[i].1 += row.baseline_rating;
            rating_sums[i].2 += row.ours_wins;
            rating_sums[i].3 += row.baseline_wins;
        }
        if qi == 0 {
            for row in &comparison {
                rows.push(vec![row.adjective.to_string()]);
            }
        }
    }
    for (cells, sums) in rows.iter_mut().zip(&rating_sums) {
        cells.push(format!("{:.2}", sums.0 / queries.len() as f64));
        cells.push(format!("{:.2}", sums.1 / queries.len() as f64));
        cells.push(sums.2.to_string());
        cells.push(sums.3.to_string());
    }
    print_table(
        "Fig. 11 — ours vs sampling baseline (3 flight queries, 900 HITs)",
        &[
            "Adjective",
            "Ours rating",
            "Baseline rating",
            "Ours wins",
            "Baseline wins",
        ],
        &rows,
    );
    println!(
        "paper shape: ours ahead on every adjective, biggest gaps on Precise and \
         Informative (ranges vs exact averages)."
    );
}
