//! The user-study harnesses of §VIII-C/§VIII-E (Figs. 5–8 and 11).
//!
//! Each function reproduces one study's procedure — speech selection,
//! HIT structure, aggregation — over simulated workers and returns the
//! rows/series the paper plots. The experiment binary in `vqs-bench`
//! prints them next to the paper's reported values.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use vqs_core::prelude::*;
use vqs_data::synth::gaussian;

use crate::ratings::{Adjective, Rater, SpeechProfile};
use crate::worker::{median, WorkerPool};

/// A speech with its quality rank, as selected for the Fig. 5 study.
#[derive(Debug, Clone)]
pub struct RankedSpeech {
    /// "Worst", "Medium" or "Best".
    pub label: &'static str,
    /// The facts of the speech.
    pub facts: Vec<Fact>,
    /// Scaled utility under the paper's quality model.
    pub quality: f64,
}

/// Generate `count` random speeches of `m` facts, rank them by the
/// quality model, and return (worst, median, best) — the §VIII-C
/// selection procedure ("we generated 100 speeches by randomly selecting
/// facts and ranked them according to our quality model").
pub fn rank_random_speeches(
    relation: &EncodedRelation,
    catalog: &FactCatalog,
    m: usize,
    count: usize,
    seed: u64,
) -> [RankedSpeech; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = base_error(relation).max(f64::EPSILON);
    let mut speeches: Vec<(Vec<Fact>, f64)> = (0..count)
        .map(|_| {
            let mut ids: Vec<usize> = (0..catalog.len()).collect();
            ids.shuffle(&mut rng);
            let facts: Vec<Fact> = ids.into_iter().take(m).map(|id| catalog.fact(id)).collect();
            let quality = utility(relation, &facts) / base;
            (facts, quality)
        })
        .collect();
    speeches.sort_by(|a, b| a.1.total_cmp(&b.1));
    let pick = |label, index: usize| {
        let (facts, quality) = speeches[index].clone();
        RankedSpeech {
            label,
            facts,
            quality,
        }
    };
    [
        pick("Worst", 0),
        pick("Medium", speeches.len() / 2),
        pick("Best", speeches.len() - 1),
    ]
}

/// One Fig. 5 output cell: adjective × speech → (average rating, wins).
#[derive(Debug, Clone)]
pub struct Fig5Cell {
    /// Adjective label.
    pub adjective: &'static str,
    /// Speech label (Worst/Medium/Best).
    pub speech: &'static str,
    /// Average rating over all workers (1–10).
    pub rating: f64,
    /// Pairwise comparison wins against the other two speeches.
    pub wins: usize,
}

/// Fig. 5: ratings + pairwise wins of worst/median/best speeches across
/// the four adjectives, `workers` raters each.
pub fn fig5(speeches: &[RankedSpeech; 3], workers: usize, seed: u64) -> Vec<Fig5Cell> {
    let rater = Rater::seeded(seed);
    let profiles: Vec<SpeechProfile> = speeches
        .iter()
        .map(|s| SpeechProfile::precise(s.quality, 12 * s.facts.len().max(1)))
        .collect();
    let mut cells = Vec::new();
    for adjective in Adjective::FIG5 {
        for (i, speech) in speeches.iter().enumerate() {
            let rating = rater.average_rating(&profiles[i], adjective, workers);
            let wins: usize = (0..3)
                .filter(|&j| j != i)
                .map(|j| rater.wins(&profiles[i], &profiles[j], adjective, workers / 2))
                .sum();
            cells.push(Fig5Cell {
                adjective: adjective.label(),
                speech: speech.label,
                rating,
                wins,
            });
        }
    }
    cells
}

/// One Fig. 6 row: a (borough, age group) data point with the median
/// worker estimate under the worst and best speech, and the true value.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Dimension values of the data point.
    pub point: Vec<String>,
    /// Median estimate after the worst-ranked speech.
    pub worst_estimate: f64,
    /// Median estimate after the best-ranked speech.
    pub best_estimate: f64,
    /// Actual value.
    pub correct: f64,
}

/// Fig. 6: workers estimate every row of `relation` (15 borough × age
/// points in the paper) after hearing the worst / best speech; 20 HITs
/// per (point, speech).
pub fn fig6(
    relation: &EncodedRelation,
    worst: &[Fact],
    best: &[Fact],
    hits: usize,
    seed: u64,
) -> Vec<Fig6Row> {
    let pool = WorkerPool::seeded(seed);
    let priors = relation.prior_values();
    (0..relation.len())
        .map(|row| {
            let point: Vec<String> = (0..relation.dim_count())
                .map(|d| relation.value_str(d, row).to_string())
                .collect();
            Fig6Row {
                point,
                worst_estimate: pool.median_estimate(relation, row, worst, priors[row], hits),
                best_estimate: pool.median_estimate(relation, row, best, priors[row], hits),
                correct: relation.target(row),
            }
        })
        .collect()
}

/// Fig. 6 summary statistic: mean absolute deviation of the median
/// estimates from the correct values.
pub fn estimate_error(rows: &[Fig6Row], best: bool) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter()
        .map(|r| {
            let estimate = if best {
                r.best_estimate
            } else {
                r.worst_estimate
            };
            (estimate - r.correct).abs()
        })
        .sum::<f64>()
        / rows.len() as f64
}

/// One Fig. 7 row: a candidate conflict-resolution model and its median
/// prediction error against the (simulated) workers.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Model label ("Farthest", "Avg. Scope", "Closest", "Avg. All").
    pub model: &'static str,
    /// Median |worker estimate − model prediction| over all HITs.
    pub error: f64,
}

/// Fig. 7: workers hear four facts over two dimensions and estimate every
/// value combination; each candidate model's predictions are compared to
/// the worker estimates.
pub fn fig7(relation: &EncodedRelation, facts: &[Fact], hits: usize, seed: u64) -> Vec<Fig7Row> {
    let pool = WorkerPool::seeded(seed);
    let priors = relation.prior_values();
    ExpectationModel::ALL
        .iter()
        .map(|model| {
            let mut errors = Vec::new();
            for (row, &prior) in priors.iter().enumerate() {
                let prediction =
                    model.expected_value(relation, row, facts, prior, relation.target(row));
                for hit in 0..hits {
                    let estimate = pool.estimate(relation, row, facts, prior, hit as u64);
                    errors.push((estimate - prediction).abs());
                }
            }
            Fig7Row {
                model: model.label(),
                error: median(&mut errors),
            }
        })
        .collect()
}

/// One participant of the Fig. 8 interface study.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Participant index.
    pub participant: usize,
    /// Median time to answer with the voice interface (seconds).
    pub vocal_time: f64,
    /// Median time with the visual interface (seconds).
    pub visual_time: f64,
    /// Usability rating of the voice interface (1–10).
    pub vocal_eval: f64,
    /// Usability rating of the visual interface (1–10).
    pub visual_eval: f64,
}

/// Fig. 8: `participants` users answer three questions per interface.
///
/// Interaction time model: voice = formulate + lookup + listen; visual =
/// a few navigate/filter interactions + read. Calibrated so most (not
/// all) participants are slightly faster with voice and evaluations
/// scatter in the upper half — the paper's qualitative outcome.
pub fn fig8(participants: usize, answer_speaking_secs: f64, seed: u64) -> Vec<Fig8Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..participants)
        .map(|participant| {
            let questions = 3;
            let mut vocal_times = Vec::with_capacity(questions);
            let mut visual_times = Vec::with_capacity(questions);
            for _ in 0..questions {
                let formulate = 5.0 + gaussian(&mut rng).abs() * 2.0;
                let listen = answer_speaking_secs * rng.gen_range(0.9..1.2);
                vocal_times.push(formulate + 0.1 + listen);
                let interactions = rng.gen_range(3..6);
                let navigate: f64 = (0..interactions).map(|_| rng.gen_range(3.0..8.0)).sum();
                let read = 3.0 + gaussian(&mut rng).abs() * 1.5;
                visual_times.push(navigate + read);
            }
            let vocal_eval = (5.5 + gaussian(&mut rng) * 1.6).clamp(1.0, 10.0);
            let visual_eval = (6.5 + gaussian(&mut rng) * 1.6).clamp(1.0, 10.0);
            Fig8Point {
                participant,
                vocal_time: median(&mut vocal_times),
                visual_time: median(&mut visual_times),
                vocal_eval,
                visual_eval,
            }
        })
        .collect()
}

/// One Fig. 11 row: adjective × system → rating and pairwise wins.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Adjective label.
    pub adjective: &'static str,
    /// Average rating of our (pre-processed, precise) speech.
    pub ours_rating: f64,
    /// Average rating of the sampling baseline's (range) speech.
    pub baseline_rating: f64,
    /// Pairwise wins of ours over the baseline.
    pub ours_wins: usize,
    /// Pairwise wins of the baseline over ours.
    pub baseline_wins: usize,
}

/// Fig. 11 / §VIII-E ML comparison: rate two speech profiles on the six
/// adjectives with `workers` raters each.
pub fn compare_profiles(
    ours: &SpeechProfile,
    other: &SpeechProfile,
    workers: usize,
    seed: u64,
) -> Vec<Fig11Row> {
    let rater = Rater::seeded(seed);
    Adjective::FIG11
        .iter()
        .map(|&adjective| {
            let ours_wins = rater.wins(ours, other, adjective, workers);
            Fig11Row {
                adjective: adjective.label(),
                ours_rating: rater.average_rating(ours, adjective, workers),
                baseline_rating: rater.average_rating(other, adjective, workers),
                ours_wins,
                baseline_wins: workers - ours_wins,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_data::running_example;

    fn setup() -> (EncodedRelation, FactCatalog) {
        let r = running_example::relation();
        let catalog = running_example::example7_catalog(&r);
        (r, catalog)
    }

    #[test]
    fn ranking_orders_by_quality() {
        let (r, catalog) = setup();
        let [worst, medium, best] = rank_random_speeches(&r, &catalog, 3, 100, 1);
        assert!(worst.quality <= medium.quality);
        assert!(medium.quality <= best.quality);
        assert!(best.quality > worst.quality);
    }

    #[test]
    fn fig5_ratings_correlate_with_rank() {
        let (r, catalog) = setup();
        let speeches = rank_random_speeches(&r, &catalog, 3, 100, 2);
        let cells = fig5(&speeches, 50, 3);
        assert_eq!(cells.len(), 12);
        for adjective in ["Precise", "Good", "Complete", "Informative"] {
            let get = |label: &str| {
                cells
                    .iter()
                    .find(|c| c.adjective == adjective && c.speech == label)
                    .unwrap()
            };
            assert!(
                get("Best").rating > get("Worst").rating,
                "{adjective}: best {} vs worst {}",
                get("Best").rating,
                get("Worst").rating
            );
            assert!(get("Best").wins > get("Worst").wins, "{adjective}");
        }
    }

    #[test]
    fn fig6_best_speech_tracks_truth_better() {
        let (r, catalog) = setup();
        let speeches = rank_random_speeches(&r, &catalog, 3, 100, 4);
        let rows = fig6(&r, &speeches[0].facts, &speeches[2].facts, 20, 5);
        assert_eq!(rows.len(), r.len());
        assert!(estimate_error(&rows, true) < estimate_error(&rows, false));
    }

    #[test]
    fn fig7_closest_model_wins() {
        let r = running_example::relation();
        // Four facts over the two dimensions (two values each), as in the
        // paper's conflict study.
        let facts = vec![
            Fact::for_scope(&r, running_example::scope(&r, &[("season", "Winter")])).unwrap(),
            Fact::for_scope(&r, running_example::scope(&r, &[("season", "Summer")])).unwrap(),
            Fact::for_scope(&r, running_example::scope(&r, &[("region", "North")])).unwrap(),
            Fact::for_scope(&r, running_example::scope(&r, &[("region", "East")])).unwrap(),
        ];
        let rows = fig7(&r, &facts, 20, 6);
        assert_eq!(rows.len(), 4);
        let closest = rows.iter().find(|r| r.model == "Closest").unwrap().error;
        for row in &rows {
            assert!(
                closest <= row.error + 1e-9,
                "Closest ({closest}) should beat {} ({})",
                row.model,
                row.error
            );
        }
    }

    #[test]
    fn fig8_voice_mostly_faster() {
        let points = fig8(10, 8.0, 7);
        assert_eq!(points.len(), 10);
        let faster = points
            .iter()
            .filter(|p| p.vocal_time < p.visual_time)
            .count();
        assert!(faster >= 6, "only {faster}/10 faster with voice");
        for p in &points {
            assert!((1.0..=10.0).contains(&p.vocal_eval));
            assert!((1.0..=10.0).contains(&p.visual_eval));
        }
    }

    #[test]
    fn fig11_ours_beats_ranged_baseline_on_precise() {
        let ours = SpeechProfile::precise(0.85, 30);
        let baseline = SpeechProfile {
            quality: 0.8,
            range_width: 0.4,
            redundancy: 0.0,
            words: 36,
        };
        let rows = compare_profiles(&ours, &baseline, 150, 8);
        let precise = rows.iter().find(|r| r.adjective == "Precise").unwrap();
        assert!(precise.ours_rating > precise.baseline_rating);
        assert!(precise.ours_wins > precise.baseline_wins);
        let informative = rows.iter().find(|r| r.adjective == "Informative").unwrap();
        assert!(informative.ours_rating > informative.baseline_rating);
    }

    #[test]
    fn ml_comparison_gap_matches_paper_direction() {
        // §VIII-E: ML speeches rated below 5.92, ours above 7.28, for
        // every adjective.
        let ours = SpeechProfile::precise(0.85, 30);
        let ml = SpeechProfile {
            quality: 0.35,
            range_width: 0.0,
            redundancy: 0.7,
            words: 34,
        };
        let rows = compare_profiles(&ours, &ml, 150, 9);
        for row in &rows {
            assert!(
                row.ours_rating > row.baseline_rating,
                "{}: {} vs {}",
                row.adjective,
                row.ours_rating,
                row.baseline_rating
            );
        }
    }
}
