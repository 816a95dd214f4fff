//! Fig. 5 + Table II: AMT preferences correlate with the speech quality
//! model.
//!
//! 100 random speeches are ranked by the quality model; the worst,
//! median and best are rated by 50 workers on four adjectives and
//! compared pairwise. Paper shape: ratings ~6.2–6.8, best > medium >
//! worst on every adjective, and the win counts order the same way.
//! Table II prints the worst/best speech texts for the ACS scenario.

use vqs_engine::prelude::*;
use vqs_usersim as usersim;

use crate::experiments::fig6::{borough_age_relation, ranked_speeches};
use crate::{print_table, scenario_dataset, RunConfig};

/// Run the Fig. 5 study (and print Table II).
pub fn run(config: &RunConfig) {
    // The paper runs the study for the flights and ACS data; the rating
    // pipeline is identical, so we report ACS (whose Table II speeches we
    // also print) and flights.
    for letter in ['A', 'F'] {
        let dataset = scenario_dataset(letter, config);
        let target = if letter == 'A' { "visual" } else { "cancelled" };
        let relation = if letter == 'A' {
            borough_age_relation(&dataset, target)
        } else {
            let engine_config = crate::single_target_config(&dataset, target);
            target_relation(&dataset, &engine_config, target).expect("target exists")
        };
        let (_, ranked) = if letter == 'A' {
            ranked_speeches(&relation, config.seed)
        } else {
            let catalog = vqs_core::prelude::FactCatalog::build(
                &relation,
                &(0..relation.dim_count()).collect::<Vec<_>>(),
                2,
            )
            .expect("catalog");
            (
                catalog.clone(),
                usersim::rank_random_speeches(&relation, &catalog, 3, 100, config.seed),
            )
        };

        let cells = usersim::fig5(&ranked, 50, config.seed + letter as u64);
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.adjective.to_string(),
                    c.speech.to_string(),
                    format!("{:.2}", c.rating),
                    c.wins.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 5 — ratings and pairwise wins ({})", dataset.name),
            &["Adjective", "Speech", "Avg rating", "Wins"],
            &rows,
        );

        if letter == 'A' {
            // Table II: the worst and best ranked speech texts.
            let template = SpeechTemplate::per_mille("visual impairment rate", "persons");
            let query = Query::of(target, &[]);
            let render = |speech: &usersim::RankedSpeech| {
                let facts: Vec<NamedFact> = speech
                    .facts
                    .iter()
                    .map(|f| NamedFact {
                        scope: f
                            .scope
                            .pairs()
                            .into_iter()
                            .map(|(d, code)| {
                                let dim = &relation.dims()[d];
                                (dim.name.clone(), dim.values[code as usize].clone())
                            })
                            .collect(),
                        value: f.value,
                        support: f.support,
                    })
                    .collect();
                template.render(&query, &facts)
            };
            print_table(
                "Table II — worst vs best speech (ACS visual impairment)",
                &["Speech", "Text"],
                &[
                    vec!["Worst".to_string(), render(&ranked[0])],
                    vec!["Best".to_string(), render(&ranked[2])],
                ],
            );
        }
    }
    println!("paper shape: quality rank orders both ratings and wins on every adjective.");
}
