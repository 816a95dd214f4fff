//! The ACS disability scenario behind Table II and Fig. 6: summarize
//! visual-impairment prevalence per New York borough and age group, and
//! contrast a poorly chosen speech with the optimized one.
//!
//! ```text
//! cargo run --example acs_disability
//! ```

use vqs_core::prelude::*;
use vqs_engine::prelude::*;

/// Aggregate the ACS rows to 15 (borough, age group) data points.
fn borough_age_relation() -> EncodedRelation {
    let dataset = vqs_data::acs_spec().generate(vqs_data::DEFAULT_SEED, 0.1);
    let schema = dataset.table.schema();
    let borough = schema.index_of("borough").unwrap();
    let age = schema.index_of("age_group").unwrap();
    let visual = schema.index_of("visual").unwrap();
    let coarse = |fine: &str| match fine {
        "0-9" | "10-19" => "Teenagers",
        "70-79" | "80+" => "Elders",
        _ => "Adults",
    };
    let mut sums: std::collections::BTreeMap<(String, &str), (f64, usize)> = Default::default();
    for row in 0..dataset.table.len() {
        let key = (
            dataset.table.value(row, borough).to_string(),
            coarse(&dataset.table.value(row, age).to_string()),
        );
        let entry = sums.entry(key).or_insert((0.0, 0));
        entry.0 += dataset.table.value(row, visual).as_f64().unwrap();
        entry.1 += 1;
    }
    let rows: Vec<(Vec<&str>, f64)> = sums
        .iter()
        .map(|((b, a), (sum, n))| (vec![b.as_str(), *a], sum / *n as f64))
        .collect();
    let relation = EncodedRelation::from_rows(
        &["borough", "age_group"],
        "visual",
        rows,
        Prior::Constant(0.0),
    )
    .unwrap();
    let mean = relation.target_mean();
    relation.with_prior(Prior::Constant(mean)).unwrap()
}

fn main() {
    let relation = borough_age_relation();
    println!("visual impairment prevalence (per 1000) across 15 data points\n");

    let catalog = FactCatalog::build(&relation, &[0, 1], 2).expect("catalog");
    let problem = Problem::new(&relation, &catalog, 3).expect("problem");
    let template = SpeechTemplate::per_mille("visual impairment rate", "persons");
    let query = Query::of("visual", &[]);

    let render = |facts: &[Fact]| {
        let named: Vec<NamedFact> = facts
            .iter()
            .map(|f| NamedFact {
                scope: f
                    .scope
                    .pairs()
                    .into_iter()
                    .map(|(d, code)| {
                        let dim = &relation.dims()[d];
                        (dim.name.clone(), dim.values[code as usize].to_string())
                    })
                    .collect(),
                value: f.value,
                support: f.support,
            })
            .collect();
        template.render(&query, &named)
    };

    // The optimized speech (our approach).
    let best = GreedySummarizer::with_optimized_pruning()
        .summarize(&problem)
        .expect("greedy");
    println!(
        "optimized speech (utility {:.1} of {:.1} base error):",
        best.utility, best.base_error
    );
    println!("  {}\n", render(best.speech.facts()));

    // A deliberately bad speech: three facts about the same narrow region
    // (the failure mode Table II's worst speech exhibits).
    let worst: Vec<Fact> = catalog
        .facts()
        .filter(|f| f.scope.len() == 2)
        .take(3)
        .collect();
    let worst_utility = utility(&relation, &worst);
    println!("a poorly chosen speech (utility {worst_utility:.1}):");
    println!("  {}\n", render(&worst));

    // Per-point residual deviation under each speech (what Fig. 6's
    // workers would estimate from).
    println!(
        "{:<12} {:<10} {:>8} {:>10} {:>10}",
        "borough", "age", "actual", "best dev", "worst dev"
    );
    let priors = relation.prior_values();
    for (row, &prior) in priors.iter().enumerate() {
        let actual = relation.target(row);
        let dev = |facts: &[Fact]| {
            let mut d = (prior - actual).abs();
            for fact in facts {
                if fact.scope.matches_row(&relation, row) {
                    d = d.min((fact.value - actual).abs());
                }
            }
            d
        };
        println!(
            "{:<12} {:<10} {:>8.1} {:>10.1} {:>10.1}",
            relation.value_str(0, row),
            relation.value_str(1, row),
            actual,
            dev(best.speech.facts()),
            dev(&worst)
        );
    }
}
