//! Generic seeded data synthesis.
//!
//! The paper evaluates on four public data sets (Table I). Those files are
//! not available offline, so each is replaced by a generator that matches
//! the properties the algorithms are sensitive to: the number of dimension
//! and target columns, per-dimension cardinalities (which determine the
//! candidate-fact counts reported in §VIII-B), value skew, and a target
//! that truly depends on the dimensions (so that facts explain variance
//! and summaries are meaningful). Everything is seeded and reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vqs_relalg::prelude::{ColumnType, Field, Schema, Table, Value};

/// One dimension column specification.
#[derive(Debug, Clone)]
pub struct DimSpec {
    /// Column name.
    pub name: String,
    /// Distinct values.
    pub values: Vec<String>,
    /// Zipf-ish skew exponent: 0 = uniform, 1 ≈ classic Zipf. Real survey
    /// columns (country, airline) are heavily skewed, which shapes fact
    /// supports and thereby pruning effectiveness.
    pub skew: f64,
}

impl DimSpec {
    /// A dimension with auto-named values `prefix0..prefixN`.
    pub fn synthetic(name: &str, prefix: &str, cardinality: usize, skew: f64) -> DimSpec {
        DimSpec {
            name: name.to_string(),
            values: (0..cardinality).map(|i| format!("{prefix}{i}")).collect(),
            skew,
        }
    }

    /// A dimension with explicit values, uniform draw.
    pub fn named(name: &str, values: &[&str]) -> DimSpec {
        DimSpec {
            name: name.to_string(),
            values: values.iter().map(|s| s.to_string()).collect(),
            skew: 0.0,
        }
    }
}

/// One target column specification.
///
/// Values are generated as
/// `base + Σ_d effect_scale · e_d[code_d] + N(0, noise)` clamped to
/// `[min, max]`, with per-value effects `e_d` drawn once per (target,
/// dimension) from the seed. The additive structure means low-dimensional
/// facts genuinely predict the target — the regime the paper's utility
/// model rewards.
#[derive(Debug, Clone)]
pub struct TargetSpec {
    /// Column name.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Scale of per-dimension effects.
    pub effect_scale: f64,
    /// Standard deviation of the residual noise.
    pub noise: f64,
    /// Lower clamp.
    pub min: f64,
    /// Upper clamp.
    pub max: f64,
    /// Relative effect weight per dimension (aligned with the spec's
    /// dims; missing entries default to 1). Real-world targets are
    /// dominated by one or two dimensions — disability prevalence by age,
    /// flight delays by season/airline — and that concentration is what
    /// makes coarse facts informative and fact-group pruning effective.
    pub dim_weights: Vec<f64>,
}

impl TargetSpec {
    /// Convenience constructor with uniform dimension weights.
    pub fn new(name: &str, base: f64, effect_scale: f64, noise: f64, range: (f64, f64)) -> Self {
        TargetSpec {
            name: name.to_string(),
            base,
            effect_scale,
            noise,
            min: range.0,
            max: range.1,
            dim_weights: Vec::new(),
        }
    }

    /// Set per-dimension effect weights (builder style).
    pub fn with_dim_weights(mut self, weights: &[f64]) -> Self {
        self.dim_weights = weights.to_vec();
        self
    }

    fn weight(&self, dim: usize) -> f64 {
        self.dim_weights.get(dim).copied().unwrap_or(1.0)
    }
}

/// A complete synthetic data set specification.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Data set name (e.g. "Flights").
    pub name: String,
    /// Dimension columns.
    pub dims: Vec<DimSpec>,
    /// Target columns.
    pub targets: Vec<TargetSpec>,
    /// Row count at scale 1.0.
    pub rows: usize,
}

/// A generated data set: a relalg table plus column-role metadata.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Data set name.
    pub name: String,
    /// The data (dimension columns first, then targets).
    pub table: Table,
    /// Names of the dimension columns.
    pub dims: Vec<String>,
    /// Names of the target columns.
    pub targets: Vec<String>,
}

impl GeneratedDataset {
    /// Approximate in-memory size in bytes (strings count once per cell),
    /// reported in our Table I analogue.
    pub fn approx_bytes(&self) -> usize {
        let mut per_row = 0usize;
        for field in self.table.schema().fields() {
            per_row += match field.ty {
                ColumnType::Str => 12,
                _ => 8,
            };
        }
        self.table.len() * per_row
    }
}

/// The derived sampling model of one spec: per-dimension cumulative
/// distributions and the per-(target, dimension, value) additive
/// effects. Building it consumes the effect draws from the model RNG;
/// sampling rows afterwards is side-effect-free on the model, so any
/// number of independently seeded RNGs can sample rows concurrently.
struct SynthModel {
    /// Cumulative categorical distribution per dimension (Zipf-ish).
    dim_cdfs: Vec<Vec<f64>>,
    /// `effects[t][d][code]`: additive contribution of dimension `d`
    /// taking value `code` to target `t`.
    effects: Vec<Vec<Vec<f64>>>,
}

/// Rows per generation chunk of [`SynthSpec::generate_rows`]. Fixed —
/// never derived from the worker count — so chunk RNG streams, and
/// therefore the generated bytes, are identical for any parallelism.
const GEN_CHUNK: usize = 8_192;

/// SplitMix64 step: decorrelates per-chunk seeds from the base seed so
/// neighboring chunks don't get neighboring `StdRng` streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SynthSpec {
    /// Generate the data set at `scale` (scaling the row count) from a
    /// deterministic seed.
    pub fn generate(&self, seed: u64, scale: f64) -> GeneratedDataset {
        let rows = ((self.rows as f64 * scale).round() as usize).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        // Model draws come off the same RNG stream the row loop then
        // continues — the historical layout; golden tests pin its bytes.
        let model = self.model(&mut rng);
        let mut table = Table::empty(self.schema());
        for _ in 0..rows {
            table
                .push_row(self.sample_row(&model, &mut rng))
                .expect("generated row matches schema");
        }
        self.dataset(table)
    }

    /// Generate exactly `rows` rows on `workers` threads (`0` = all
    /// available cores), deterministically in `(seed, rows)`: the table
    /// is byte-identical for any worker count, because rows are produced
    /// in fixed `GEN_CHUNK`-row chunks each sampled from its own
    /// chunk-seeded RNG, and chunks are assembled in order. The derived
    /// model (value distributions, dimension effects) matches
    /// [`SynthSpec::generate`] with the same seed; the row stream is a
    /// different (but equally seeded) sample of the same population.
    ///
    /// This is the scale-bench entry point: row counts in the millions
    /// are sized directly instead of through a scale factor, and
    /// generation parallelizes.
    pub fn generate_rows(&self, seed: u64, rows: usize, workers: usize) -> GeneratedDataset {
        let rows = rows.max(1);
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let model = self.model(&mut StdRng::seed_from_u64(seed));
        let chunk_count = rows.div_ceil(GEN_CHUNK);
        let slots: Vec<std::sync::Mutex<Vec<Vec<Value>>>> = (0..chunk_count)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let fill = |_worker: usize| loop {
            let chunk = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if chunk >= chunk_count {
                break;
            }
            let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ (chunk as u64 + 1)));
            let count = GEN_CHUNK.min(rows - chunk * GEN_CHUNK);
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                out.push(self.sample_row(&model, &mut rng));
            }
            *slots[chunk].lock().expect("chunk slot poisoned") = out;
        };
        if workers <= 1 || chunk_count <= 1 {
            fill(0);
        } else {
            std::thread::scope(|scope| {
                for worker in 0..workers.min(chunk_count) {
                    scope.spawn(move || fill(worker));
                }
            });
        }
        let table = Table::from_rows(
            self.schema(),
            slots
                .into_iter()
                .flat_map(|slot| slot.into_inner().expect("chunk slot poisoned")),
        )
        .expect("generated rows match schema");
        self.dataset(table)
    }

    /// The spec's schema: dimension columns (strings) first, then
    /// targets (floats).
    fn schema(&self) -> Schema {
        let mut fields: Vec<Field> = self
            .dims
            .iter()
            .map(|d| Field::required(&d.name, ColumnType::Str))
            .collect();
        fields.extend(
            self.targets
                .iter()
                .map(|t| Field::required(&t.name, ColumnType::Float)),
        );
        Schema::new(fields).expect("spec column names are unique")
    }

    /// Derive the sampling model, consuming the effect draws from `rng`
    /// in the historical order (targets outer, dimensions inner, values
    /// innermost — [`SynthSpec::generate`]'s byte-stability depends on
    /// it).
    fn model(&self, rng: &mut StdRng) -> SynthModel {
        // Per-dimension categorical distributions (Zipf-ish by rank).
        let dim_cdfs: Vec<Vec<f64>> = self
            .dims
            .iter()
            .map(|dim| {
                let raw: Vec<f64> = (0..dim.values.len())
                    .map(|rank| 1.0 / ((rank + 1) as f64).powf(dim.skew))
                    .collect();
                let total: f64 = raw.iter().sum();
                // Cumulative distribution for sampling.
                let mut acc = 0.0;
                raw.iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            })
            .collect();

        // Per-(target, dimension, value) additive effects, scaled by the
        // target's per-dimension weights.
        let effects: Vec<Vec<Vec<f64>>> = self
            .targets
            .iter()
            .map(|target| {
                self.dims
                    .iter()
                    .enumerate()
                    .map(|(d, dim)| {
                        let weight = target.weight(d);
                        (0..dim.values.len())
                            .map(|_| rng.gen_range(-1.0..1.0) * target.effect_scale * weight)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        SynthModel { dim_cdfs, effects }
    }

    /// Sample one row: a dimension-code draw per dimension, then per
    /// target one gaussian residual — the exact historical draw order.
    fn sample_row(&self, model: &SynthModel, rng: &mut impl Rng) -> Vec<Value> {
        let codes: Vec<usize> = model
            .dim_cdfs
            .iter()
            .map(|cdf| {
                let x: f64 = rng.gen();
                cdf.iter().position(|&c| x <= c).unwrap_or(cdf.len() - 1)
            })
            .collect();
        let mut row: Vec<Value> = codes
            .iter()
            .zip(&self.dims)
            .map(|(&code, dim)| Value::str(&dim.values[code]))
            .collect();
        for (t, target) in self.targets.iter().enumerate() {
            let effect: f64 = codes
                .iter()
                .enumerate()
                .map(|(d, &code)| model.effects[t][d][code])
                .sum();
            let noise = gaussian(rng) * target.noise;
            let value = (target.base + effect + noise).clamp(target.min, target.max);
            row.push(Value::Float(value));
        }
        row
    }

    /// Wrap a finished table in the dataset envelope.
    fn dataset(&self, table: Table) -> GeneratedDataset {
        GeneratedDataset {
            name: self.name.clone(),
            table,
            dims: self.dims.iter().map(|d| d.name.clone()).collect(),
            targets: self.targets.iter().map(|t| t.name.clone()).collect(),
        }
    }
}

/// Standard normal sample via Box–Muller (avoids a distribution crate).
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SynthSpec {
        SynthSpec {
            name: "test".to_string(),
            dims: vec![
                DimSpec::synthetic("a", "a", 4, 0.8),
                DimSpec::named("b", &["x", "y"]),
            ],
            targets: vec![TargetSpec::new("t", 50.0, 10.0, 2.0, (0.0, 100.0))],
            rows: 500,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = spec().generate(7, 1.0);
        let b = spec().generate(7, 1.0);
        assert_eq!(a.table.len(), b.table.len());
        for (ra, rb) in a.table.iter_rows().zip(b.table.iter_rows()) {
            assert_eq!(ra, rb);
        }
        let c = spec().generate(8, 1.0);
        let differs = a
            .table
            .iter_rows()
            .zip(c.table.iter_rows())
            .any(|(x, y)| x != y);
        assert!(differs);
    }

    #[test]
    fn scale_controls_rows() {
        assert_eq!(spec().generate(1, 0.1).table.len(), 50);
        assert_eq!(spec().generate(1, 2.0).table.len(), 1000);
        assert_eq!(spec().generate(1, 0.0).table.len(), 1);
    }

    #[test]
    fn skew_concentrates_mass() {
        let data = spec().generate(3, 1.0);
        let col = data.table.column_by_name("a").unwrap();
        let mut counts = std::collections::HashMap::new();
        for row in 0..data.table.len() {
            *counts.entry(col.value(row).to_string()).or_insert(0usize) += 1;
        }
        // Rank-0 value should be the most frequent under skew 0.8.
        let a0 = counts.get("a0").copied().unwrap_or(0);
        assert!(counts.values().all(|&c| c <= a0), "counts: {counts:?}");
    }

    #[test]
    fn targets_respect_clamp() {
        let data = spec().generate(5, 1.0);
        let idx = data.table.schema().index_of("t").unwrap();
        for row in 0..data.table.len() {
            let v = data.table.value(row, idx).as_f64().unwrap();
            assert!((0.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn dimension_effects_shape_target() {
        // Group means by dimension value must differ by more than noise:
        // otherwise summaries would be vacuous.
        let data = spec().generate(11, 2.0);
        let a = data.table.schema().index_of("a").unwrap();
        let t = data.table.schema().index_of("t").unwrap();
        let mut sums: std::collections::HashMap<String, (f64, usize)> = Default::default();
        for row in 0..data.table.len() {
            let key = data.table.value(row, a).to_string();
            let entry = sums.entry(key).or_insert((0.0, 0));
            entry.0 += data.table.value(row, t).as_f64().unwrap();
            entry.1 += 1;
        }
        let means: Vec<f64> = sums.values().map(|&(s, n)| s / n as f64).collect();
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 3.0, "group means too flat: {means:?}");
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = spec().generate(1, 0.5);
        let large = spec().generate(1, 1.0);
        assert!(large.approx_bytes() > small.approx_bytes());
    }
}
