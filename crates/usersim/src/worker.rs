//! Simulated crowd workers.
//!
//! §VIII-C validates the paper's expectation model on Amazon Mechanical
//! Turk. Workers are unavailable offline, so we simulate them: a worker's
//! estimate of a data point after hearing a speech follows the
//! closest-relevant-value model — the model Fig. 7 found to predict real
//! workers best — plus multiplicative noise. Encoding that finding as the
//! generating process means the reproduced studies validate the *analysis
//! pipeline* (ranking, medians, model comparison), not human behaviour.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vqs_core::prelude::*;
use vqs_data::synth::gaussian;

/// A population of simulated workers with a shared noise profile.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    /// Relative estimate noise (standard deviation as a fraction of the
    /// estimate, plus an absolute floor).
    pub noise: f64,
    /// Absolute noise floor.
    pub noise_floor: f64,
    /// The model workers actually follow when resolving facts.
    pub behaviour: ExpectationModel,
    seed: u64,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool {
            noise: 0.15,
            noise_floor: 1.0,
            behaviour: ExpectationModel::ClosestRelevant,
            seed: 0xA17,
        }
    }
}

impl WorkerPool {
    /// Pool with a specific seed.
    pub fn seeded(seed: u64) -> WorkerPool {
        WorkerPool {
            seed,
            ..Default::default()
        }
    }

    /// One worker's estimate of row `row`'s target value after hearing
    /// `facts`. `hit` diversifies the noise across repeated HITs.
    pub fn estimate(
        &self,
        relation: &EncodedRelation,
        row: usize,
        facts: &[Fact],
        prior: f64,
        hit: u64,
    ) -> f64 {
        let actual = relation.target(row);
        let belief = self
            .behaviour
            .expected_value(relation, row, facts, prior, actual);
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (row as u64).wrapping_mul(0x9E37_79B9) ^ hit.wrapping_mul(0x85EB_CA6B),
        );
        let noise = gaussian(&mut rng) * (belief.abs() * self.noise + self.noise_floor);
        (belief + noise).max(0.0)
    }

    /// Median worker estimate over `hits` repetitions (the §VIII-C studies
    /// report medians over 20 HITs per data point).
    pub fn median_estimate(
        &self,
        relation: &EncodedRelation,
        row: usize,
        facts: &[Fact],
        prior: f64,
        hits: usize,
    ) -> f64 {
        let mut estimates: Vec<f64> = (0..hits)
            .map(|h| self.estimate(relation, row, facts, prior, h as u64))
            .collect();
        median(&mut estimates)
    }
}

/// Median of a slice (averages the middle pair for even lengths).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_data::running_example;

    #[test]
    fn estimates_track_the_generating_model() {
        let r = running_example::relation();
        let facts = running_example::speech2(&r).facts().to_vec();
        let pool = WorkerPool::default();
        // Row 12 is Winter-East (actual 20): model expectation is 15.
        let med = pool.median_estimate(&r, 12, &facts, 0.0, 200);
        assert!((med - 15.0).abs() < 2.0, "median {med}");
    }

    #[test]
    fn estimates_without_facts_follow_prior() {
        let r = running_example::relation();
        let pool = WorkerPool::default();
        let med = pool.median_estimate(&r, 0, &[], 7.0, 200);
        assert!((med - 7.0).abs() < 1.5, "median {med}");
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let r = running_example::relation();
        let facts = running_example::speech1(&r).facts().to_vec();
        // Row 12 (Winter-East) has a nonzero belief, so the noise term
        // cannot be clamped away by the `.max(0.0)` floor for either seed.
        let a = WorkerPool::seeded(5).estimate(&r, 12, &facts, 0.0, 1);
        let b = WorkerPool::seeded(5).estimate(&r, 12, &facts, 0.0, 1);
        assert_eq!(a, b);
        let c = WorkerPool::seeded(6).estimate(&r, 12, &facts, 0.0, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn estimates_never_negative() {
        let r = running_example::relation();
        let pool = WorkerPool {
            noise: 2.0,
            ..Default::default()
        };
        for hit in 0..50 {
            assert!(pool.estimate(&r, 0, &[], 0.5, hit) >= 0.0);
        }
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
