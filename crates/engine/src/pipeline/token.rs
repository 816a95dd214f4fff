//! Stage one of the pipeline: tokenization.
//!
//! Every downstream stage works on one shared lowercase rendering of the
//! utterance ([`Utterance`]). Matching is span-based rather than
//! token-list-based: dictionary entries are *phrases* ("New York City"),
//! so the primitive is a word-boundary-aware substring search
//! ([`find_phrase`]) over the normalized text.

/// One utterance, normalized once for all downstream stages.
#[derive(Debug, Clone)]
pub(crate) struct Utterance {
    lower: String,
}

impl Utterance {
    /// Normalize `text` (one lowercase pass shared by every stage).
    pub(crate) fn new(text: &str) -> Utterance {
        Utterance {
            lower: text.to_lowercase(),
        }
    }

    /// Plain substring containment against any of `cues`. Cue tables
    /// (help/repeat/extremum/comparison) keep substring semantics — e.g.
    /// the `"max "` cue relies on its trailing space.
    pub(crate) fn contains_any(&self, cues: &[&str]) -> bool {
        cues.iter().any(|cue| self.lower.contains(cue))
    }

    /// Word-boundary phrase search; see [`find_phrase`].
    pub(crate) fn find_phrase(&self, phrase: &str) -> Option<usize> {
        find_phrase(&self.lower, phrase)
    }

    /// Word-boundary phrase containment: `phrase` appears and is not
    /// glued into a longer word on either side.
    pub(crate) fn contains_phrase(&self, phrase: &str) -> bool {
        self.find_phrase(phrase).is_some()
    }
}

/// Byte offset of the first occurrence of `phrase` in `text` that is not
/// glued into a longer word on either side (`None` when absent).
fn find_phrase(text: &str, phrase: &str) -> Option<usize> {
    if phrase.is_empty() {
        return None;
    }
    let mut start = 0;
    while let Some(pos) = text[start..].find(phrase) {
        let begin = start + pos;
        let end = begin + phrase.len();
        let ok_before = begin == 0 || !text[..begin].chars().next_back().unwrap().is_alphanumeric();
        let ok_after = end == text.len() || !text[end..].chars().next().unwrap().is_alphanumeric();
        if ok_before && ok_after {
            return Some(begin);
        }
        start = begin + 1;
        if start >= text.len() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_phrase_reports_position() {
        assert_eq!(find_phrase("delays in winter", "winter"), Some(10));
        assert_eq!(find_phrase("winterization report", "winter"), None);
        // Skips a glued match and still finds a later clean one.
        assert_eq!(find_phrase("northeastern east", "east"), Some(13));
        assert_eq!(find_phrase("anything", ""), None);
    }

    #[test]
    fn word_boundaries_respected() {
        let contains = |text: &str, phrase: &str| Utterance::new(text).contains_phrase(phrase);
        assert!(contains("delays in winter", "winter"));
        assert!(!contains("winterization report", "winter"));
        assert!(contains("the east region", "east"));
        assert!(!contains("northeastern", "east"));
    }

    #[test]
    fn utterance_matching_is_case_insensitive() {
        let utt = Utterance::new("Compare DELAYS for Winter VS Summer");
        assert!(utt.contains_any(&[" vs "]));
        assert!(utt.contains_phrase("winter"));
        assert!(utt.find_phrase("delays") < utt.find_phrase("summer"));
    }
}
