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

    /// Heap bytes the template owns: its strings' buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        let style = match &self.style {
            ValueStyle::Unit(text) | ValueStyle::PerMille(text) => text.capacity(),
            ValueStyle::Percent | ValueStyle::Plain => 0,
        };
        self.target_phrase.capacity() + style
    }

    /// Append the phrase of `value` in this template's style ("about 12.3
    /// minutes").
    fn write_value_phrase(&self, out: &mut impl Sink, value: f64) {
        out.push_str("about ");
        out.push_value(value);
        match &self.style {
            ValueStyle::Unit(unit) => {
                out.push_str(" ");
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
    /// A first pass adds up how long the text can be, so the one returned
    /// buffer is allocated once, before the second pass writes it.
    pub fn render(&self, query: &Query, facts: &[NamedFact]) -> String {
        let mut bound = Length::default();
        self.write_speech(&mut bound, query, facts);
        let mut out = String::with_capacity(bound.0);
        self.write_speech(&mut out, query, facts);
        out
    }

    /// Write [`SpeechTemplate::render`]'s speech into `out`. A summarizer
    /// returns no facts only when every candidate fact's average equals
    /// the overall one (a fact whose average differs lowers the error of
    /// one of its rows), so a speech without facts says so.
    fn write_speech(&self, out: &mut impl Sink, query: &Query, facts: &[NamedFact]) {
        if !query.is_empty() {
            out.push_str("For ");
            write_pairs(out, query.predicates());
            out.push_str(": ");
        }
        if facts.is_empty() {
            out.push_str("The ");
            out.push_str(&self.target_phrase);
            out.push_str(" is the same as overall.");
            return;
        }
        for (i, fact) in facts.iter().enumerate() {
            if i == 0 {
                out.push_str("The ");
                out.push_str(&self.target_phrase);
                out.push_str(" ");
                write_scope_phrase(out, &fact.scope);
                out.push_str(" is ");
                self.write_value_phrase(out, fact.value);
            } else {
                out.push_str(" It is ");
                out.push_value(fact.value);
                out.push_str(" ");
                write_scope_phrase(out, &fact.scope);
            }
            out.push_str(".");
        }
    }
}

/// Where speech text is written: a [`String`], or a [`Length`] that only
/// adds up how long the text can be.
pub(crate) trait Sink {
    /// Append `text`.
    fn push_str(&mut self, text: &str);
    /// Append [`format_value`]'s rendering of `value`.
    fn push_value(&mut self, value: f64);
}

impl Sink for String {
    fn push_str(&mut self, text: &str) {
        String::push_str(self, text);
    }

    fn push_value(&mut self, value: f64) {
        write_value(self, value);
    }
}

/// The longest [`format_value`] rendering: an `i64` with its sign. A value
/// that keeps a decimal is below 2^52 in magnitude, so it is shorter.
const MAX_VALUE_LEN: usize = 20;

/// An upper bound on the length of the text written to it: every string's
/// length, and [`MAX_VALUE_LEN`] per value.
#[derive(Default)]
struct Length(usize);

impl Sink for Length {
    fn push_str(&mut self, text: &str) {
        self.0 += text.len();
    }

    fn push_value(&mut self, _value: f64) {
        self.0 += MAX_VALUE_LEN;
    }
}

/// Append `name` as spoken, underscores as spaces ("age_group" → "age
/// group").
pub(crate) fn write_spoken(out: &mut impl Sink, name: &str) {
    for (i, word) in name.split('_').enumerate() {
        if i > 0 {
            out.push_str(" ");
        }
        out.push_str(word);
    }
}

/// Append `pairs` as spoken: "season Winter and region East".
pub(crate) fn write_pairs(out: &mut impl Sink, pairs: &[Predicate]) {
    for (i, (dim, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(" and ");
        }
        write_spoken(out, dim);
        out.push_str(" ");
        out.push_str(value);
    }
}

/// Append a fact's scope phrase: "for season Winter and region East", or
/// "overall" for the empty scope.
pub(crate) fn write_scope_phrase(out: &mut impl Sink, scope: &[Predicate]) {
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
                "The {} is the same as overall.",
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

    /// No facts means no fact's average differs from the overall one.
    #[test]
    fn empty_facts_explains() {
        let template = SpeechTemplate::plain("support");
        let text = template.render(&Query::of("support", &[("region", "East")]), &[]);
        assert_eq!(
            text,
            "For region East: The average support is the same as overall."
        );
    }

    /// The first pass bounds the text, so the second never grows the
    /// buffer: its capacity is still the bound it was allocated with.
    #[test]
    fn the_buffer_is_sized_before_it_is_written() {
        let template = SpeechTemplate::per_mille("visual impairment rate", "persons");
        let query = Query::of("visual", &[("age_group", "70-79"), ("borough", "Queens")]);
        let extremes = [
            -9.3e18,
            1e300,
            f64::NAN,
            f64::NEG_INFINITY,
            -4_503_599_627_370_495.5,
            0.05,
        ];
        let mut facts = facts();
        for value in extremes {
            facts[1].value = value;
            for count in 0..=3 {
                let mut bound = Length::default();
                template.write_speech(&mut bound, &query, &facts[..count]);
                let text = template.render(&query, &facts[..count]);
                assert!(text.len() <= bound.0, "{text}");
                assert_eq!(text.capacity(), bound.0, "{text}");
            }
        }
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
