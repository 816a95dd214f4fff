//! # vqs-bench — experiment harness for every table and figure
//!
//! The `experiments` binary regenerates each table/figure of the paper's
//! evaluation (§VIII): run `experiments all` or a single id such as
//! `experiments fig3`. Results print as aligned text tables with the
//! paper's reported values alongside. Criterion micro-benchmarks for the
//! performance-critical paths live in `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod loadgen;

use std::time::Duration;

use vqs_core::prelude::*;
use vqs_data::GeneratedDataset;
use vqs_engine::prelude::*;

/// Global knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Data scale factor applied to every generator (1.0 = the crate's
    /// laptop-scale defaults; the paper's raw data is orders of magnitude
    /// larger — `vqs_data::scenarios` lists its sizes).
    pub scale: f64,
    /// Maximum queries sampled per scenario in the batch experiments
    /// (`usize::MAX` = the full pre-processing workload).
    pub query_limit: usize,
    /// Per-(scenario, algorithm) wall-clock budget, the analogue of the
    /// paper's 48-hour timeout.
    pub timeout: Duration,
    /// Pre-processing worker threads.
    pub workers: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.05,
            query_limit: 60,
            timeout: Duration::from_secs(20),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: vqs_data::DEFAULT_SEED,
        }
    }
}

/// Format a duration compactly for tables.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 100.0 {
        format!("{secs:.0}s")
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

/// Print an aligned text table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// The scenario letter → data set mapping of Fig. 3.
pub fn scenario_dataset(letter: char, config: &RunConfig) -> GeneratedDataset {
    vqs_data::by_letter(&letter.to_string(), config.scale).expect("known scenario letter")
}

/// Default engine configuration for a generated data set, restricted to
/// one target column.
pub fn single_target_config(dataset: &GeneratedDataset, target: &str) -> Configuration {
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    Configuration::new(&dataset.name, &dims, &[target])
}

/// Evenly sample at most `limit` work items (deterministic).
pub fn sample_items(items: Vec<WorkItem>, limit: usize) -> Vec<WorkItem> {
    if items.len() <= limit {
        return items;
    }
    let step = items.len() as f64 / limit as f64;
    (0..limit)
        .map(|i| items[(i as f64 * step) as usize].clone())
        .collect()
}

/// Outcome of solving a batch of work items with one algorithm.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Per-item utility (aligned with the input items); `None` when the
    /// budget expired before the item was solved.
    pub utilities: Vec<Option<f64>>,
    /// Whether the batch hit the timeout.
    pub timed_out: bool,
    /// Summed work counters.
    pub instrumentation: Instrumentation,
}

impl BatchOutcome {
    /// Number of items solved.
    pub fn solved(&self) -> usize {
        self.utilities.iter().flatten().count()
    }
}

/// Solve `items` sequentially with `summarizer` under a wall-clock
/// budget, recording per-item utility (the Fig. 3/4 inner loop).
pub fn run_batch<S: Summarizer + ?Sized>(
    relation: &EncodedRelation,
    config: &Configuration,
    summarizer: &S,
    items: &[WorkItem],
    budget: Duration,
) -> BatchOutcome {
    let template = SpeechTemplate::plain("target");
    let start = std::time::Instant::now();
    let cells = target_cells(relation);
    let mut utilities = Vec::with_capacity(items.len());
    let mut instrumentation = Instrumentation::default();
    let mut timed_out = false;
    for item in items {
        if start.elapsed() >= budget {
            timed_out = true;
            utilities.push(None);
            continue;
        }
        match solve_item(relation, &cells, config, summarizer, &template, item) {
            Ok((speech, counters)) => {
                instrumentation.merge(&counters);
                let scaled = if speech.base_error == 0.0 {
                    1.0
                } else {
                    speech.utility / speech.base_error
                };
                utilities.push(Some(scaled));
            }
            Err(_) => utilities.push(None),
        }
    }
    BatchOutcome {
        elapsed: start.elapsed(),
        utilities,
        timed_out,
        instrumentation,
    }
}

/// Average of the utilities each algorithm achieved, scaled per instance
/// by the best utility any algorithm achieved on that instance (the
/// paper's "utility (scaled) … scale to one for each summarization
/// problem instance").
pub fn scale_per_instance(outcomes: &[&BatchOutcome]) -> Vec<f64> {
    if outcomes.is_empty() {
        return Vec::new();
    }
    let n = outcomes[0].utilities.len();
    let mut scaled_sums = vec![0.0f64; outcomes.len()];
    let mut counts = vec![0usize; outcomes.len()];
    for i in 0..n {
        let best = outcomes
            .iter()
            .filter_map(|o| o.utilities[i])
            .fold(f64::NEG_INFINITY, f64::max);
        if !best.is_finite() || best <= 0.0 {
            continue;
        }
        for (a, outcome) in outcomes.iter().enumerate() {
            if let Some(u) = outcome.utilities[i] {
                scaled_sums[a] += (u / best).min(1.0);
                counts[a] += 1;
            }
        }
    }
    scaled_sums
        .into_iter()
        .zip(counts)
        .map(|(sum, count)| if count == 0 { 0.0 } else { sum / count as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50.0us");
        assert_eq!(fmt_duration(Duration::from_millis(25)), "25.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
        assert_eq!(fmt_duration(Duration::from_secs(240)), "240s");
    }

    #[test]
    fn sampling_keeps_order_and_limit() {
        let dataset = scenario_dataset(
            'A',
            &RunConfig {
                scale: 0.02,
                ..Default::default()
            },
        );
        let config = single_target_config(&dataset, "hearing");
        let relation = target_relation(&dataset, &config, "hearing").unwrap();
        let items = enumerate_queries(&relation, &config, "hearing");
        let sampled = sample_items(items.clone(), 10);
        assert_eq!(sampled.len(), 10);
        let all = sample_items(items.clone(), usize::MAX);
        assert_eq!(all.len(), items.len());
    }

    #[test]
    fn batch_and_scaling() {
        let dataset = scenario_dataset(
            'A',
            &RunConfig {
                scale: 0.02,
                ..Default::default()
            },
        );
        let config = single_target_config(&dataset, "hearing");
        let relation = target_relation(&dataset, &config, "hearing").unwrap();
        let items = sample_items(enumerate_queries(&relation, &config, "hearing"), 8);
        let greedy = run_batch(
            &relation,
            &config,
            &GreedySummarizer::base(),
            &items,
            Duration::from_secs(30),
        );
        assert_eq!(greedy.solved(), items.len());
        assert!(!greedy.timed_out);
        let scaled = scale_per_instance(&[&greedy]);
        assert!((scaled[0] - 1.0).abs() < 1e-9); // alone, it is the best
    }

    #[test]
    fn zero_budget_times_out() {
        let dataset = scenario_dataset(
            'A',
            &RunConfig {
                scale: 0.02,
                ..Default::default()
            },
        );
        let config = single_target_config(&dataset, "hearing");
        let relation = target_relation(&dataset, &config, "hearing").unwrap();
        let items = sample_items(enumerate_queries(&relation, &config, "hearing"), 5);
        let outcome = run_batch(
            &relation,
            &config,
            &GreedySummarizer::base(),
            &items,
            Duration::ZERO,
        );
        assert!(outcome.timed_out);
        assert_eq!(outcome.solved(), 0);
    }
}
