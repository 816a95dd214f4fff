//! Speech realization: rendering fact sets into voice-output text.
//!
//! §III: "the speech is generated according to a simple text template …
//! Speeches are prefixed with a description of the summarized data subset."
//! The style follows Table II's deployed examples:
//!
//! > "About 80 out of 1000 elder persons identify as visually impaired.
//! >  It is 17 for adults. It is 3 for teenagers in Manhattan."

use std::fmt::Write;

use crate::problem::{NamedFact, Predicate, Query};

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

    /// Append the phrase of `value` in this template's style ("about 12.3
    /// minutes").
    fn write_value_phrase(&self, out: &mut String, value: f64) {
        out.push_str("about ");
        write_value(out, value);
        match &self.style {
            ValueStyle::Unit(unit) => {
                out.push(' ');
                out.push_str(unit);
            }
            ValueStyle::PerMille(noun) => {
                out.push_str(" out of 1000 ");
                out.push_str(noun);
            }
            ValueStyle::Percent => out.push_str(" percent"),
            ValueStyle::Plain => {}
        }
    }

    /// Render a full speech: subset prefix, then one sentence per fact —
    /// the first spelled out, the rest in Table II's "It is X for Y" form.
    /// Every part is written into the one returned buffer.
    pub fn render(&self, query: &Query, facts: &[NamedFact]) -> String {
        let mut out = String::new();
        if !query.is_empty() {
            out.push_str("For ");
            write_pairs(&mut out, query.predicates());
            out.push_str(": ");
        }
        if facts.is_empty() {
            out.push_str("No data is available on the ");
            out.push_str(&self.target_phrase);
            out.push('.');
            return out;
        }
        for (i, fact) in facts.iter().enumerate() {
            if i == 0 {
                out.push_str("The ");
                out.push_str(&self.target_phrase);
                out.push(' ');
                write_scope_phrase(&mut out, &fact.scope);
                out.push_str(" is ");
                self.write_value_phrase(&mut out, fact.value);
            } else {
                out.push_str(" It is ");
                write_value(&mut out, fact.value);
                out.push(' ');
                write_scope_phrase(&mut out, &fact.scope);
            }
            out.push('.');
        }
        out
    }
}

/// Append `name` as spoken, underscores as spaces ("age_group" → "age
/// group").
pub(crate) fn write_spoken(out: &mut String, name: &str) {
    for (i, word) in name.split('_').enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(word);
    }
}

/// Append `pairs` as spoken: "season Winter and region East".
pub(crate) fn write_pairs(out: &mut String, pairs: &[Predicate]) {
    for (i, (dim, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(" and ");
        }
        write_spoken(out, dim);
        out.push(' ');
        out.push_str(value);
    }
}

/// Append a fact's scope phrase: "for season Winter and region East", or
/// "overall" for the empty scope.
pub(crate) fn write_scope_phrase(out: &mut String, scope: &[Predicate]) {
    if scope.is_empty() {
        out.push_str("overall");
    } else {
        out.push_str("for ");
        write_pairs(out, scope);
    }
}

/// Round to at most one decimal, dropping a trailing ".0".
pub fn format_value(value: f64) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Append [`format_value`]'s rendering of `value`.
fn write_value(out: &mut String, value: f64) {
    let rounded = (value * 10.0).round() / 10.0;
    // Writing into a `String` cannot fail.
    let _ = if (rounded - rounded.round()).abs() < 1e-9 {
        write!(out, "{}", rounded.round() as i64)
    } else {
        write!(out, "{rounded:.1}")
    };
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
                scope: Box::new([("age_group".into(), "elder".into())]),
                value: 80.0,
                support: 40,
            },
            NamedFact {
                scope: Box::new([("age_group".into(), "adult".into())]),
                value: 17.0,
                support: 90,
            },
            NamedFact {
                scope: Box::new([
                    ("age_group".into(), "teenager".into()),
                    ("borough".into(), "Manhattan".into()),
                ]),
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
                scope: Box::new([]),
                value: 15.0,
                support: 4,
            }],
        );
        assert!(text.starts_with("For season Winter: "));
        assert!(text.contains("The delay overall is about 15 minutes."));
    }

    /// The speech as first rendered, one `String` per part.
    fn reference_render(template: &SpeechTemplate, query: &Query, facts: &[NamedFact]) -> String {
        let spoken = |pairs: &[Predicate]| {
            pairs
                .iter()
                .map(|(d, v)| format!("{} {}", d.replace('_', " "), v))
                .collect::<Vec<String>>()
                .join(" and ")
        };
        let scope = |fact: &NamedFact| {
            if fact.scope.is_empty() {
                "overall".to_string()
            } else {
                format!("for {}", spoken(&fact.scope))
            }
        };
        let value_phrase = |value: f64| match &template.style {
            ValueStyle::Unit(unit) => format!("about {} {unit}", format_value(value)),
            ValueStyle::PerMille(noun) => {
                format!("about {} out of 1000 {noun}", format_value(value))
            }
            ValueStyle::Percent => format!("about {} percent", format_value(value)),
            ValueStyle::Plain => format!("about {}", format_value(value)),
        };
        let mut out = String::new();
        if !query.is_empty() {
            out.push_str(&format!("For {}: ", spoken(query.predicates())));
        }
        if facts.is_empty() {
            out.push_str(&format!(
                "No data is available on the {}.",
                template.target_phrase
            ));
            return out;
        }
        for (i, fact) in facts.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!(
                    "The {} {} is {}.",
                    template.target_phrase,
                    scope(fact),
                    value_phrase(fact.value)
                ));
            } else {
                out.push_str(&format!(
                    " It is {} {}.",
                    format_value(fact.value),
                    scope(fact)
                ));
            }
        }
        out
    }

    #[test]
    fn one_buffer_renders_what_the_joined_parts_rendered() {
        let templates = [
            SpeechTemplate::plain("flight_delay"),
            SpeechTemplate::with_unit("delay", "minutes"),
            SpeechTemplate::per_mille("visual impairment rate", "persons"),
            SpeechTemplate {
                target_phrase: "share".to_string(),
                style: ValueStyle::Percent,
            },
        ];
        let queries = [
            Query::of("t", &[]),
            Query::of("t", &[("age_group", "70-79")]),
            Query::of("t", &[("start_region", "North_East"), ("season", "Winter")]),
        ];
        for template in &templates {
            for query in &queries {
                for count in 0..=3 {
                    let facts = &facts()[..count];
                    assert_eq!(
                        template.render(query, facts),
                        reference_render(template, query, facts),
                        "{query} with {count} facts"
                    );
                }
            }
        }
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
