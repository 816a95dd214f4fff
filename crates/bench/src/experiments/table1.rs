//! Table I: overview of the evaluation data sets.

use crate::{print_table, RunConfig};

/// Paper-reported rows: (name, size, #dims, #targets).
const PAPER: [(&str, &str, usize, usize); 4] = [
    ("ACS NY", "2 MB", 3, 6),
    ("Stack Overflow", "197 MB", 7, 6),
    ("Flights", "565 MB", 6, 1),
    ("Primaries", "6 MB", 5, 1),
];

/// Generate every data set at the configured scale and print its shape
/// next to the paper's Table I.
pub fn run(config: &RunConfig) {
    let mut rows = Vec::new();
    for spec in vqs_data::all_specs() {
        let dataset = spec.generate(config.seed, config.scale);
        let paper = PAPER.iter().find(|(name, ..)| *name == dataset.name);
        let facts = vqs_data::nominal_fact_count(&spec, 2);
        rows.push(vec![
            dataset.name.clone(),
            format!(
                "{} rows (~{} KB)",
                dataset.table.len(),
                dataset.approx_bytes() / 1024
            ),
            dataset.dims.len().to_string(),
            dataset.targets.len().to_string(),
            facts.to_string(),
            paper
                .map(|(_, size, d, t)| format!("{size}, {d} dims, {t} targets"))
                .unwrap_or_default(),
        ]);
    }
    print_table(
        "Table I — data sets (ours vs paper)",
        &[
            "Data Set",
            "Size (ours)",
            "#Dims",
            "#Targets",
            "Facts (≤2 dims)",
            "Paper",
        ],
        &rows,
    );
    println!(
        "note: generators are seeded synthetic stand-ins for the public data sets \
         (see vqs_data::scenarios); scale factor {}",
        config.scale
    );
}
