//! The sampling-based vocalization baseline of §VIII-E.
//!
//! Prior work (CiceroDB, ref. 25; voice-based OLAP, ref. 28) selects speech facts
//! *at query time* by evaluating candidates on progressively larger row
//! samples: the first sentence can be spoken once its estimate is
//! confident (low latency), while the remaining facts keep refining in
//! the background (higher total processing time). Because estimates come
//! from samples, spoken values are *ranges* ("between 5 and 10 percent")
//! rather than precise averages — the property driving the Fig. 11
//! preference gap.
//!
//! This is a faithful reimplementation of that execution model, not of
//! any private codebase: incremental uniform row sampling, confidence
//! intervals via the normal approximation, greedy fact selection on the
//! sample, anytime emission.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vqs_core::prelude::*;
use vqs_engine::prelude::{format_value, NamedFact};

/// Tuning knobs of the sampling vocalizer.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Rows drawn per sampling round.
    pub batch_size: usize,
    /// Emit a fact once its 95% CI half-width falls below this fraction
    /// of the observed target range.
    pub precision: f64,
    /// Hard cap on sampling rounds.
    pub max_rounds: usize,
    /// Facts to select.
    pub max_facts: usize,
    /// Spoken ranges are widened to multiples of this step ("the
    /// cancellation probability is between 5 and 10%" — the prior work
    /// reports coarse ranges "to account for imprecision of sampling").
    pub round_step: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            batch_size: 256,
            precision: 0.05,
            max_rounds: 64,
            max_facts: 3,
            round_step: 5.0,
            seed: 7,
        }
    }
}

/// A fact estimated from samples: a scope plus a value *range*.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeFact {
    /// Scope as named pairs.
    pub scope: Vec<(String, String)>,
    /// Lower bound of the 95% CI.
    pub lo: f64,
    /// Upper bound of the 95% CI.
    pub hi: f64,
    /// Point estimate (sample mean).
    pub estimate: f64,
}

impl RangeFact {
    /// Range phrasing used for voice output.
    pub fn phrase(&self) -> String {
        format!(
            "between {} and {}",
            format_value(self.lo),
            format_value(self.hi)
        )
    }

    /// Convert to a [`NamedFact`] (point estimate) for rating studies.
    pub fn to_named(&self) -> NamedFact {
        NamedFact {
            scope: self.scope.clone(),
            value: self.estimate,
            support: 0,
        }
    }
}

/// Result of one sampling-based vocalization.
#[derive(Debug, Clone)]
pub struct SamplingResult {
    /// Selected facts with their ranges, in emission order.
    pub facts: Vec<RangeFact>,
    /// Time until the first sentence could be spoken.
    pub latency: Duration,
    /// Total processing time for the full speech.
    pub total: Duration,
    /// Rows sampled overall (with replacement).
    pub rows_sampled: usize,
    /// Rendered speech text.
    pub text: String,
}

/// Run the baseline on a (query-filtered) relation.
///
/// `free_dims`/`max_dims` describe the candidate-fact space exactly as
/// for the pre-processing approach, so the two systems answer the same
/// query with the same fact vocabulary.
pub fn vocalize(
    relation: &EncodedRelation,
    free_dims: &[usize],
    max_dims: usize,
    config: &SamplingConfig,
) -> Result<SamplingResult> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = relation.len();
    if n == 0 {
        return Ok(SamplingResult {
            facts: Vec::new(),
            latency: Duration::ZERO,
            total: start.elapsed(),
            rows_sampled: 0,
            text: "No data available.".to_string(),
        });
    }

    let range = target_range(relation);
    let mut sampled_rows: Vec<u32> = Vec::new();
    let mut facts: Vec<RangeFact> = Vec::new();
    let mut latency: Option<Duration> = None;

    for _ in 0..config.max_rounds {
        // Draw one more batch (uniform with replacement, as in [28]).
        sampled_rows.extend((0..config.batch_size).map(|_| rng.gen_range(0..n) as u32));
        let sample = relation.subset(&sampled_rows)?;

        // Greedy selection on the sample.
        let catalog = FactCatalog::build(&sample, free_dims, max_dims.min(free_dims.len()))?;
        let problem = Problem::new(&sample, &catalog, config.max_facts)?;
        let summary = GreedySummarizer::base().summarize(&problem)?;

        // Confidence intervals of the selected facts on the sample,
        // widened outward to the spoken range grid.
        let estimated: Vec<(RangeFact, f64)> = summary
            .speech
            .facts()
            .iter()
            .map(|fact| {
                let (mut range, width) = estimate(&sample, fact, relation);
                if config.round_step > 0.0 {
                    range.lo = (range.lo / config.round_step).floor() * config.round_step;
                    range.hi = (range.hi / config.round_step).ceil() * config.round_step;
                    if range.lo == range.hi {
                        range.hi += config.round_step;
                    }
                }
                (range, width)
            })
            .collect();

        let confident = |width: f64| width <= config.precision * range.max(f64::EPSILON);
        if latency.is_none() {
            if let Some((_, width)) = estimated.first() {
                if confident(*width) {
                    latency = Some(start.elapsed());
                }
            }
        }
        facts = estimated.iter().map(|(f, _)| f.clone()).collect();
        if !estimated.is_empty() && estimated.iter().all(|(_, width)| confident(*width)) {
            break;
        }
    }

    let total = start.elapsed();
    let text = render(&facts, relation.target_name());
    Ok(SamplingResult {
        facts,
        latency: latency.unwrap_or(total),
        total,
        rows_sampled: sampled_rows.len(),
        text,
    })
}

fn target_range(relation: &EncodedRelation) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in relation.targets() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo.is_finite() && hi.is_finite() {
        hi - lo
    } else {
        0.0
    }
}

/// Sample mean ± 1.96·s/√n over the rows of `sample` within the fact's
/// scope; returns the range fact and the CI half-width.
fn estimate(sample: &EncodedRelation, fact: &Fact, full: &EncodedRelation) -> (RangeFact, f64) {
    let mut values = Vec::new();
    for row in 0..sample.len() {
        if fact.scope.matches_row(sample, row) {
            values.push(sample.target(row));
        }
    }
    let count = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / count;
    // Unbiased sample variance (n−1 denominator, guarded for n ≤ 1).
    let variance =
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count - 1.0).max(1.0);
    let half_width = 1.96 * (variance / count).sqrt();
    let scope = fact
        .scope
        .pairs()
        .into_iter()
        .map(|(d, code)| {
            let dim = &full.dims()[d];
            (dim.name.clone(), dim.values[code as usize].to_string())
        })
        .collect();
    (
        RangeFact {
            scope,
            lo: mean - half_width,
            hi: mean + half_width,
            estimate: mean,
        },
        half_width,
    )
}

fn render(facts: &[RangeFact], target: &str) -> String {
    if facts.is_empty() {
        return "No data available.".to_string();
    }
    let target = target.replace('_', " ");
    let mut out = String::new();
    for (i, fact) in facts.iter().enumerate() {
        let scope = if fact.scope.is_empty() {
            "overall".to_string()
        } else {
            let parts: Vec<String> = fact
                .scope
                .iter()
                .map(|(d, v)| format!("{} {}", d.replace('_', " "), v))
                .collect();
            format!("for {}", parts.join(" and "))
        };
        if i == 0 {
            out.push_str(&format!("The {target} {scope} is {}.", fact.phrase()));
        } else {
            out.push_str(&format!(" It is {} {scope}.", fact.phrase()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_data::running_example;

    fn relation() -> EncodedRelation {
        // A larger relation so sampling is meaningful: replicate the
        // running example 64 times.
        let base = running_example::relation();
        let rows: Vec<u32> = (0..64).flat_map(|_| 0..base.len() as u32).collect();
        base.subset(&rows).unwrap()
    }

    #[test]
    fn produces_ranges_containing_truth() {
        let r = relation();
        let config = SamplingConfig {
            seed: 3,
            ..Default::default()
        };
        let result = vocalize(&r, &[0, 1], 2, &config).unwrap();
        assert!(!result.facts.is_empty());
        for fact in &result.facts {
            assert!(fact.lo <= fact.estimate && fact.estimate <= fact.hi);
        }
        assert!(result.text.contains("between"));
    }

    #[test]
    fn latency_below_total() {
        let r = relation();
        let result = vocalize(&r, &[0, 1], 2, &SamplingConfig::default()).unwrap();
        assert!(result.latency <= result.total);
        assert!(result.rows_sampled > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let r = relation();
        let config = SamplingConfig {
            seed: 9,
            ..Default::default()
        };
        let a = vocalize(&r, &[0, 1], 2, &config).unwrap();
        let b = vocalize(&r, &[0, 1], 2, &config).unwrap();
        assert_eq!(a.facts, b.facts);
    }

    #[test]
    fn estimates_approach_exact_averages() {
        let r = relation();
        let config = SamplingConfig {
            batch_size: 2048,
            max_rounds: 16,
            ..Default::default()
        };
        let result = vocalize(&r, &[0, 1], 2, &config).unwrap();
        // The sample means of the selected facts should be close to the
        // exact scope averages; spoken ranges widen to the 5-unit grid,
        // so a converged CI spans at most two grid steps.
        for fact in &result.facts {
            let width = fact.hi - fact.lo;
            assert!(width <= 2.0 * config.round_step, "CI too wide: {width}");
        }
    }

    #[test]
    fn spoken_ranges_snap_to_grid() {
        let r = relation();
        let config = SamplingConfig {
            seed: 4,
            ..Default::default()
        };
        let result = vocalize(&r, &[0, 1], 2, &config).unwrap();
        for fact in &result.facts {
            assert_eq!(fact.lo % config.round_step, 0.0, "lo {}", fact.lo);
            assert_eq!(fact.hi % config.round_step, 0.0, "hi {}", fact.hi);
            assert!(fact.hi > fact.lo);
        }
    }

    #[test]
    fn empty_relation_handled() {
        let r = EncodedRelation::from_rows(&["d"], "t", Vec::new(), Prior::Constant(0.0)).unwrap();
        let result = vocalize(&r, &[0], 1, &SamplingConfig::default()).unwrap();
        assert!(result.facts.is_empty());
        assert_eq!(result.rows_sampled, 0);
    }
}
