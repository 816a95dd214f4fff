//! Deployment log simulation (§VIII-D, Table III and Fig. 9).
//!
//! The paper analyzes the last 50 voice requests of each of three public
//! Google-Assistant deployments. Those logs are private; this module
//! generates utterance streams with the *observed* request-type mix and
//! query-shape mix, and feeds them through the real classifier
//! ([`crate::pipeline::Extractor`]). Tests assert the classifier
//! tabulates the generated logs back to the paper's counts, validating
//! the classification pipeline end to end.
//!
//! Replays against a live deployment go through the facade:
//! [`crate::service::VoiceService::replay`] tabulates a log with the
//! addressed tenant's registered extractor.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use vqs_core::prelude::EncodedRelation;

use crate::pipeline::{Extractor, Request};

/// Request mix of one deployment (a Table III column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMix {
    /// Deployment name.
    pub name: &'static str,
    /// Help requests.
    pub help: usize,
    /// Repeat requests.
    pub repeat: usize,
    /// Supported data-access queries.
    pub s_query: usize,
    /// Unsupported data-access queries.
    pub u_query: usize,
    /// Everything else.
    pub other: usize,
}

impl RequestMix {
    /// Total requests.
    pub fn total(&self) -> usize {
        self.help + self.repeat + self.s_query + self.u_query + self.other
    }
}

/// Table III's three deployments.
pub const TABLE3: [RequestMix; 3] = [
    RequestMix {
        name: "Primaries",
        help: 17,
        repeat: 3,
        s_query: 16,
        u_query: 1,
        other: 13,
    },
    RequestMix {
        name: "Flights",
        help: 9,
        repeat: 0,
        s_query: 12,
        u_query: 5,
        other: 24,
    },
    RequestMix {
        name: "Developers",
        help: 4,
        repeat: 0,
        s_query: 13,
        u_query: 16,
        other: 17,
    },
];

/// Fig. 9(a): query complexity mix over all analyzed data-access queries
/// (0, 1, 2 predicates).
pub const FIG9_COMPLEXITY: [usize; 3] = [15, 47, 1];
/// Fig. 9(b): query type mix (retrieval, comparison, extremum).
pub const FIG9_TYPES: [usize; 3] = [49, 6, 8];

const HELP_UTTERANCES: [&str; 4] = [
    "help",
    "what can you do",
    "how do i use this",
    "help me please",
];
const REPEAT_UTTERANCES: [&str; 3] = ["repeat that", "say that again", "come again please"];
// Chatter deliberately free of dimension-value words: utterances like
// "good morning" would legitimately trip the daypart dictionary of a
// flights deployment and shift the Table III counts.
const OTHER_UTTERANCES: [&str; 8] = [
    "thank you",
    "hello there",
    "play some music",
    "what's the weather like",
    "never mind",
    "stop",
    "you're funny",
    "tell me a joke",
];

/// A generated log entry with its intended category (ground truth).
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// The raw utterance.
    pub text: String,
    /// Category the generator intended (Table III label).
    pub intended: &'static str,
}

/// Generate a seeded utterance log matching `mix` for a deployment whose
/// data is described by `relation` and `target_phrase` (a spoken name of
/// the target column).
pub fn generate_log(
    relation: &EncodedRelation,
    target_phrase: &str,
    mix: &RequestMix,
    seed: u64,
) -> Vec<LogEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(mix.total());

    for i in 0..mix.help {
        entries.push(LogEntry {
            text: HELP_UTTERANCES[i % HELP_UTTERANCES.len()].to_string(),
            intended: "Help",
        });
    }
    for i in 0..mix.repeat {
        entries.push(LogEntry {
            text: REPEAT_UTTERANCES[i % REPEAT_UTTERANCES.len()].to_string(),
            intended: "Repeat",
        });
    }
    for _ in 0..mix.s_query {
        entries.push(LogEntry {
            text: supported_query_text(relation, target_phrase, &mut rng),
            intended: "S-Query",
        });
    }
    for i in 0..mix.u_query {
        entries.push(LogEntry {
            text: unsupported_query_text(relation, target_phrase, i, &mut rng),
            intended: "U-Query",
        });
    }
    for i in 0..mix.other {
        entries.push(LogEntry {
            text: OTHER_UTTERANCES[i % OTHER_UTTERANCES.len()].to_string(),
            intended: "Other",
        });
    }
    entries.shuffle(&mut rng);
    entries
}

/// A supported retrieval query with 0–2 predicates, weighted like
/// Fig. 9(a) (zero predicates ~24%, one ~74%, two ~2%).
fn supported_query_text(
    relation: &EncodedRelation,
    target_phrase: &str,
    rng: &mut StdRng,
) -> String {
    let roll: f64 = rng.gen();
    let predicates = if roll < 0.24 {
        0
    } else if roll < 0.98 {
        1
    } else {
        2
    };
    let mut text = target_phrase.to_string();
    let mut dims: Vec<usize> = (0..relation.dim_count()).collect();
    dims.shuffle(rng);
    for &d in dims.iter().take(predicates) {
        let dim = &relation.dims()[d];
        if dim.values.is_empty() {
            continue;
        }
        let value = &dim.values[rng.gen_range(0..dim.values.len())];
        text.push_str(&format!(" in {value}"));
    }
    text.push('?');
    text
}

/// An unsupported request: cycles through extremum, comparison and
/// unavailable-data shapes (the §VIII-D examples).
fn unsupported_query_text(
    relation: &EncodedRelation,
    target_phrase: &str,
    index: usize,
    rng: &mut StdRng,
) -> String {
    match index % 3 {
        0 => format!(
            "which {} has the most {target_phrase}",
            dim_name(relation, rng)
        ),
        1 => {
            let dim = &relation.dims()[rng.gen_range(0..relation.dim_count())];
            let a = &dim.values[0];
            let b = dim.values.get(1).unwrap_or(&dim.values[0]);
            format!("make a comparison between {target_phrase} for {a} and {b}")
        }
        _ => format!("{target_phrase} of flight UA one twenty three"),
    }
}

fn dim_name(relation: &EncodedRelation, rng: &mut StdRng) -> String {
    let d = rng.gen_range(0..relation.dim_count());
    relation.dims()[d].name.replace('_', " ")
}

/// Tabulate a classified log into Table III counts, in label order
/// (Help, Repeat, S-Query, U-Query, Other).
pub fn tabulate(extractor: &Extractor, log: &[LogEntry]) -> [usize; 5] {
    let mut counts = [0usize; 5];
    for entry in log {
        let idx = match extractor.classify(&entry.text) {
            Request::Help => 0,
            Request::Repeat => 1,
            Request::Query(_) => 2,
            Request::Unsupported(_) => 3,
            Request::Other => 4,
        };
        counts[idx] += 1;
    }
    counts
}

/// Count predicate complexity (0/1/2+) of the supported queries in a log,
/// as classified by the extractor (Fig. 9(a)).
pub fn complexity_histogram(extractor: &Extractor, log: &[LogEntry]) -> [usize; 3] {
    let mut counts = [0usize; 3];
    for entry in log {
        if let Request::Query(q) = extractor.classify(&entry.text) {
            counts[q.len().min(2)] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_core::prelude::Prior;

    fn relation() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["season", "airline"],
            "cancelled",
            vec![
                (vec!["Winter", "Delta"], 20.0),
                (vec!["Summer", "United"], 10.0),
                (vec!["Fall", "Alaska"], 5.0),
                (vec!["Spring", "JetBlue"], 8.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    fn extractor() -> Extractor {
        Extractor::from_relation(&relation(), 2)
            .with_target_synonyms("cancelled", &["cancellations", "cancellation probability"])
            .with_unavailable_markers(&["flight"])
    }

    #[test]
    fn table3_mixes_sum_to_50() {
        for mix in TABLE3 {
            assert_eq!(mix.total(), 50, "{}", mix.name);
        }
        // Fig. 9 pies cover the 63 data-access queries.
        let data_access: usize = TABLE3.iter().map(|m| m.s_query + m.u_query).sum();
        assert_eq!(data_access, 63);
        assert_eq!(FIG9_COMPLEXITY.iter().sum::<usize>(), 63);
        assert_eq!(FIG9_TYPES.iter().sum::<usize>(), 63);
    }

    #[test]
    fn generated_log_reclassifies_to_intended_mix() {
        let relation = relation();
        let ex = extractor();
        for (i, mix) in TABLE3.iter().enumerate() {
            let log = generate_log(&relation, "cancellations", mix, 100 + i as u64);
            assert_eq!(log.len(), 50);
            let counts = tabulate(&ex, &log);
            assert_eq!(
                counts,
                [mix.help, mix.repeat, mix.s_query, mix.u_query, mix.other],
                "{}",
                mix.name
            );
        }
    }

    #[test]
    fn intended_labels_match_classifier() {
        let relation = relation();
        let ex = extractor();
        let log = generate_log(&relation, "cancellations", &TABLE3[1], 7);
        for entry in &log {
            assert_eq!(
                ex.classify(&entry.text).label(),
                entry.intended,
                "utterance: {}",
                entry.text
            );
        }
    }

    #[test]
    fn complexity_mostly_one_predicate() {
        let relation = relation();
        let ex = extractor();
        let mix = RequestMix {
            name: "synthetic",
            help: 0,
            repeat: 0,
            s_query: 200,
            u_query: 0,
            other: 0,
        };
        let log = generate_log(&relation, "cancellations", &mix, 3);
        let histogram = complexity_histogram(&ex, &log);
        assert_eq!(histogram.iter().sum::<usize>(), 200);
        // One-predicate queries dominate, as in Fig. 9(a).
        assert!(histogram[1] > histogram[0]);
        assert!(histogram[0] > histogram[2]);
    }

    #[test]
    fn logs_are_seeded() {
        let relation = relation();
        let a = generate_log(&relation, "cancellations", &TABLE3[0], 9);
        let b = generate_log(&relation, "cancellations", &TABLE3[0], 9);
        assert_eq!(a, b);
        let c = generate_log(&relation, "cancellations", &TABLE3[0], 10);
        assert_ne!(a, c);
    }
}
