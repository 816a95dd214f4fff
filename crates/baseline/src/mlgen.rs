//! The machine-learning summarization baseline of §VIII-E.
//!
//! The paper trains a Simpletransformers seq2seq model on 49 (facts,
//! summary) pairs and reports that the generated speeches "use similar
//! syntactic patterns" but "are often redundant (multiple facts in the
//! same speech referencing the same dimension) and tend to focus on
//! overly narrow data subsets". No pretrained language model is available
//! offline, so this module substitutes a template-retrieval learner with
//! the same observable behaviour: it learns sentence templates by slot
//! abstraction from the training pairs (so its output is syntactically
//! faithful), but selects *content* like a sequence model without the
//! utility objective — preferring salient (extreme-valued, specific)
//! facts, which reproduces exactly the redundancy and narrowness flaws
//! the paper measures.

use vqs_engine::prelude::{format_value, NamedFact};

/// One training pair: the candidate facts shown to the model and the
/// reference summary produced by the optimizing approach.
#[derive(Debug, Clone)]
pub struct TrainExample {
    /// Candidate facts (the "input text" of the seq2seq pair).
    pub facts: Vec<NamedFact>,
    /// Reference summary.
    pub summary: String,
}

/// A learned sentence template with `{value}` and `{scope}` slots.
#[derive(Debug, Clone, PartialEq)]
struct SentenceTemplate {
    pattern: String,
}

/// The template-retrieval "seq2seq" substitute.
#[derive(Debug, Clone, Default)]
pub struct MlGenerator {
    lead_templates: Vec<SentenceTemplate>,
    follow_templates: Vec<SentenceTemplate>,
    facts_per_summary: usize,
}

impl MlGenerator {
    /// Train on (facts, summary) pairs: splits summaries into sentences,
    /// abstracts numbers into `{value}` slots and learned scope phrases
    /// into `{scope}` slots.
    pub fn train(examples: &[TrainExample]) -> MlGenerator {
        let mut lead = Vec::new();
        let mut follow = Vec::new();
        let mut fact_counts = Vec::new();
        for example in examples {
            fact_counts.push(example.facts.len().max(1));
            for (i, sentence) in split_sentences(&example.summary).into_iter().enumerate() {
                let template = SentenceTemplate {
                    pattern: abstract_sentence(&sentence, example),
                };
                let bucket = if i == 0 { &mut lead } else { &mut follow };
                if !bucket.contains(&template) {
                    bucket.push(template);
                }
            }
        }
        let facts_per_summary = if fact_counts.is_empty() {
            3
        } else {
            fact_counts.iter().sum::<usize>() / fact_counts.len()
        };
        MlGenerator {
            lead_templates: lead,
            follow_templates: follow,
            facts_per_summary,
        }
    }

    /// Number of distinct sentence templates learned.
    pub fn template_count(&self) -> usize {
        self.lead_templates.len() + self.follow_templates.len()
    }

    /// Generate a summary for a set of candidate facts.
    ///
    /// Content selection is salience-driven (most specific scopes, most
    /// extreme values) with no redundancy penalty — the failure mode the
    /// paper reports for the learned model.
    pub fn generate(&self, candidates: &[NamedFact]) -> String {
        if candidates.is_empty() || self.lead_templates.is_empty() {
            return String::new();
        }
        let mut ranked: Vec<&NamedFact> = candidates.iter().collect();
        // Salience: specificity first (narrow scopes), then extreme values.
        ranked.sort_by(|a, b| {
            b.scope
                .len()
                .cmp(&a.scope.len())
                .then(b.value.abs().total_cmp(&a.value.abs()))
        });
        let chosen: Vec<&NamedFact> = ranked
            .into_iter()
            .take(self.facts_per_summary.max(1))
            .collect();

        let mut out = String::new();
        for (i, fact) in chosen.iter().enumerate() {
            let template = if i == 0 {
                &self.lead_templates[0]
            } else {
                self.follow_templates
                    .get((i - 1) % self.follow_templates.len().max(1))
                    .unwrap_or(&self.lead_templates[0])
            };
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&fill(template, fact));
        }
        out
    }

    /// Fraction of generated facts sharing a dimension with an earlier
    /// fact — the redundancy measure discussed in §VIII-E.
    pub fn redundancy(facts: &[NamedFact]) -> f64 {
        if facts.len() <= 1 {
            return 0.0;
        }
        let mut redundant = 0usize;
        for (i, fact) in facts.iter().enumerate() {
            let repeats = fact.scope.iter().any(|(dim, _)| {
                facts[..i]
                    .iter()
                    .any(|prev| prev.scope.iter().any(|(d, _)| d == dim))
            });
            if repeats {
                redundant += 1;
            }
        }
        redundant as f64 / (facts.len() - 1) as f64
    }

    /// Average scope size of a fact list — the narrowness measure.
    pub fn narrowness(facts: &[NamedFact]) -> f64 {
        if facts.is_empty() {
            return 0.0;
        }
        facts.iter().map(|f| f.scope.len() as f64).sum::<f64>() / facts.len() as f64
    }
}

fn split_sentences(text: &str) -> Vec<String> {
    text.split('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| format!("{s}."))
        .collect()
}

/// Replace the example's fact values and scope phrases with slots.
fn abstract_sentence(sentence: &str, example: &TrainExample) -> String {
    let mut out = sentence.to_string();
    for fact in &example.facts {
        let value_text = format_value(fact.value);
        if out.contains(&value_text) {
            out = out.replacen(&value_text, "{value}", 1);
        }
        let scope_text = fact.scope_phrase();
        if out.contains(&scope_text) {
            out = out.replacen(&scope_text, "{scope}", 1);
        }
    }
    out
}

fn fill(template: &SentenceTemplate, fact: &NamedFact) -> String {
    template
        .pattern
        .replace("{value}", &format_value(fact.value))
        .replace("{scope}", &fact.scope_phrase())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(scope: &[(&str, &str)], value: f64) -> NamedFact {
        NamedFact {
            scope: scope
                .iter()
                .map(|&(d, v)| (d.to_string(), v.to_string()))
                .collect(),
            value,
            support: 10,
        }
    }

    fn training_set() -> Vec<TrainExample> {
        (0..8)
            .map(|i| {
                let f1 = fact(&[], 30.0 + i as f64);
                let f2 = fact(&[("region", "East")], 12.0);
                TrainExample {
                    summary: format!(
                        "The cancellation rate overall is about {}. It is 12 for region East.",
                        format_value(f1.value)
                    ),
                    facts: vec![f1, f2],
                }
            })
            .collect()
    }

    #[test]
    fn learns_slot_templates() {
        let model = MlGenerator::train(&training_set());
        assert!(model.template_count() >= 2);
        // The lead template should have abstracted the value slot.
        assert!(model.lead_templates[0].pattern.contains("{value}"));
        assert!(model.follow_templates[0].pattern.contains("{scope}"));
    }

    #[test]
    fn generates_syntactically_similar_text() {
        let model = MlGenerator::train(&training_set());
        let candidates = vec![
            fact(&[], 25.0),
            fact(&[("region", "West")], 40.0),
            fact(&[("region", "West"), ("season", "Winter")], 55.0),
        ];
        let text = model.generate(&candidates);
        assert!(text.contains("cancellation rate"));
        assert!(text.contains("55"));
    }

    #[test]
    fn exhibits_narrowness_flaw() {
        // Given a broad and a narrow fact, the generator prefers narrow —
        // unlike the utility-optimal selection.
        let model = MlGenerator::train(&training_set());
        let broad = fact(&[], 30.0);
        let narrow = fact(&[("region", "West"), ("season", "Winter")], 31.0);
        let text = model.generate(&[broad.clone(), narrow.clone()]);
        let first_sentence = text.split('.').next().unwrap().to_string();
        assert!(
            first_sentence.contains("region West"),
            "expected narrow fact first: {text}"
        );
    }

    #[test]
    fn redundancy_metric() {
        let redundant = vec![
            fact(&[("month", "Feb")], 10.0),
            fact(&[("month", "Mar")], 12.0),
            fact(&[("month", "Apr")], 14.0),
        ];
        assert_eq!(MlGenerator::redundancy(&redundant), 1.0);
        let diverse = vec![
            fact(&[("month", "Feb")], 10.0),
            fact(&[("region", "East")], 12.0),
        ];
        assert_eq!(MlGenerator::redundancy(&diverse), 0.0);
        assert_eq!(MlGenerator::redundancy(&[]), 0.0);
    }

    #[test]
    fn narrowness_metric() {
        let narrow = vec![fact(&[("a", "x"), ("b", "y")], 1.0)];
        let broad = vec![fact(&[], 1.0)];
        assert!(MlGenerator::narrowness(&narrow) > MlGenerator::narrowness(&broad));
    }

    #[test]
    fn empty_inputs_degrade_gracefully() {
        let model = MlGenerator::train(&[]);
        assert_eq!(model.generate(&[fact(&[], 1.0)]), "");
        let trained = MlGenerator::train(&training_set());
        assert_eq!(trained.generate(&[]), "");
    }
}
