//! Speech realization: rendering fact sets into voice-output text.
//!
//! §III: "the speech is generated according to a simple text template …
//! Speeches are prefixed with a description of the summarized data subset."
//! The style follows Table II's deployed examples:
//!
//! > "About 80 out of 1000 elder persons identify as visually impaired.
//! >  It is 17 for adults. It is 3 for teenagers in Manhattan."

use crate::problem::{NamedFact, Query};

/// How target values are phrased.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueStyle {
    /// "about 12.3 `<unit>`" (e.g. minutes).
    Unit(String),
    /// "about X out of 1000 `<noun>`" (Table II's prevalence phrasing).
    PerMille(String),
    /// "about X percent".
    Percent,
    /// Bare number.
    Plain,
}

/// A speech template for one target column.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeechTemplate {
    /// Spoken name of the target ("cancellation probability").
    pub target_phrase: String,
    /// Value phrasing.
    pub style: ValueStyle,
}

impl SpeechTemplate {
    /// Template speaking plain averages of `target`.
    pub fn plain(target: &str) -> SpeechTemplate {
        SpeechTemplate {
            target_phrase: format!("average {}", target.replace('_', " ")),
            style: ValueStyle::Plain,
        }
    }

    /// Template with a measurement unit.
    pub fn with_unit(target_phrase: &str, unit: &str) -> SpeechTemplate {
        SpeechTemplate {
            target_phrase: target_phrase.to_string(),
            style: ValueStyle::Unit(unit.to_string()),
        }
    }

    /// Table II prevalence phrasing.
    pub fn per_mille(target_phrase: &str, noun: &str) -> SpeechTemplate {
        SpeechTemplate {
            target_phrase: target_phrase.to_string(),
            style: ValueStyle::PerMille(noun.to_string()),
        }
    }

    fn value_phrase(&self, value: f64) -> String {
        let rounded = format_value(value);
        match &self.style {
            ValueStyle::Unit(unit) => format!("about {rounded} {unit}"),
            ValueStyle::PerMille(noun) => format!("about {rounded} out of 1000 {noun}"),
            ValueStyle::Percent => format!("about {rounded} percent"),
            ValueStyle::Plain => format!("about {rounded}"),
        }
    }

    /// Render a full speech: subset prefix, then one sentence per fact —
    /// the first spelled out, the rest in Table II's "It is X for Y" form.
    pub fn render(&self, query: &Query, facts: &[NamedFact]) -> String {
        let mut out = String::new();
        if !query.is_empty() {
            let parts: Vec<String> = query
                .predicates()
                .iter()
                .map(|(d, v)| format!("{} {}", d.replace('_', " "), v))
                .collect();
            out.push_str(&format!("For {}: ", parts.join(" and ")));
        }
        if facts.is_empty() {
            out.push_str(&format!(
                "No data is available on the {}.",
                self.target_phrase
            ));
            return out;
        }
        for (i, fact) in facts.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!(
                    "The {} {} is {}.",
                    self.target_phrase,
                    fact.scope_phrase(),
                    self.value_phrase(fact.value)
                ));
            } else {
                out.push_str(&format!(
                    " It is {} {}.",
                    format_value(fact.value),
                    fact.scope_phrase()
                ));
            }
        }
        out
    }
}

/// Round to at most one decimal, dropping a trailing ".0".
pub fn format_value(value: f64) -> String {
    let rounded = (value * 10.0).round() / 10.0;
    if (rounded - rounded.round()).abs() < 1e-9 {
        format!("{}", rounded.round() as i64)
    } else {
        format!("{rounded:.1}")
    }
}

/// Estimated speaking time at a typical TTS rate (~160 words/minute) —
/// used by the runtime latency accounting of Fig. 10.
pub fn speaking_time_secs(text: &str) -> f64 {
    let words = text.split_whitespace().count();
    words as f64 * 60.0 / 160.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts() -> Vec<NamedFact> {
        vec![
            NamedFact {
                scope: vec![("age_group".into(), "elder".into())],
                value: 80.0,
                support: 40,
            },
            NamedFact {
                scope: vec![("age_group".into(), "adult".into())],
                value: 17.0,
                support: 90,
            },
            NamedFact {
                scope: vec![
                    ("age_group".into(), "teenager".into()),
                    ("borough".into(), "Manhattan".into()),
                ],
                value: 3.2,
                support: 12,
            },
        ]
    }

    #[test]
    fn renders_table2_style() {
        let template = SpeechTemplate::per_mille("visual impairment rate", "persons");
        let text = template.render(&Query::of("visual", &[]), &facts());
        assert!(text.starts_with(
            "The visual impairment rate for age group elder is about 80 out of 1000 persons."
        ));
        assert!(text.contains("It is 17 for age group adult."));
        assert!(text.contains("It is 3.2 for age group teenager and borough Manhattan."));
    }

    #[test]
    fn prefixes_subset_description() {
        let template = SpeechTemplate::with_unit("delay", "minutes");
        let query = Query::of("delay", &[("season", "Winter")]);
        let text = template.render(
            &query,
            &[NamedFact {
                scope: vec![],
                value: 15.0,
                support: 4,
            }],
        );
        assert!(text.starts_with("For season Winter: "));
        assert!(text.contains("The delay overall is about 15 minutes."));
    }

    #[test]
    fn empty_facts_explains() {
        let template = SpeechTemplate::plain("support");
        let text = template.render(&Query::of("support", &[]), &[]);
        assert!(text.contains("No data is available"));
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(80.0), "80");
        assert_eq!(format_value(3.25), "3.3");
        assert_eq!(format_value(17.04), "17");
        assert_eq!(format_value(0.0), "0");
    }

    #[test]
    fn speaking_time_scales_with_words() {
        let short = speaking_time_secs("one two three");
        let long = speaking_time_secs(&"word ".repeat(160));
        assert!(short < 2.0);
        assert!((long - 60.0).abs() < 1.0);
    }
}
