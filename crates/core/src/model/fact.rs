//! Facts and their scopes (Definition 2 of the paper).

use std::fmt;

use crate::error::{CoreError, Result};
use crate::model::relation::EncodedRelation;

/// A fact scope: an assignment of values to a subset of dimension columns.
///
/// Stored compactly as a bitmask of restricted dimensions plus the value
/// codes for those dimensions in ascending dimension order. Supports up to
/// 32 dimensions, far beyond the handful the paper's configurations use.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scope {
    mask: u32,
    values: Vec<u32>,
}

impl Scope {
    /// The empty scope (restricts nothing; every row is within scope).
    pub fn all() -> Scope {
        Scope {
            mask: 0,
            values: Vec::new(),
        }
    }

    /// Build a scope from `(dimension index, value code)` pairs.
    pub fn from_pairs(pairs: &[(usize, u32)]) -> Result<Scope> {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|&(d, _)| d);
        let mut mask = 0u32;
        let mut values = Vec::with_capacity(sorted.len());
        for &(d, v) in &sorted {
            if d >= 32 {
                return Err(CoreError::DimensionOutOfRange { dim: d, dims: 32 });
            }
            let bit = 1u32 << d;
            if mask & bit != 0 {
                return Err(CoreError::InvalidProblem {
                    detail: format!("dimension {d} restricted twice in one scope"),
                });
            }
            mask |= bit;
            values.push(v);
        }
        Ok(Scope { mask, values })
    }

    /// Bitmask of restricted dimensions.
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Number of restricted dimensions.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the scope restricts nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Whether dimension `d` is restricted.
    #[inline]
    pub fn restricts(&self, d: usize) -> bool {
        d < 32 && self.mask & (1 << d) != 0
    }

    /// Value code required for dimension `d`, if restricted.
    pub fn value_for(&self, d: usize) -> Option<u32> {
        if !self.restricts(d) {
            return None;
        }
        let bit = 1u32 << d;
        // Position among set bits below `d`.
        let rank = (self.mask & (bit - 1)).count_ones() as usize;
        Some(self.values[rank])
    }

    /// `(dimension, value)` pairs in ascending dimension order.
    pub fn pairs(&self) -> Vec<(usize, u32)> {
        let mut out = Vec::with_capacity(self.values.len());
        let mut mask = self.mask;
        let mut i = 0;
        while mask != 0 {
            let d = mask.trailing_zeros() as usize;
            out.push((d, self.values[i]));
            i += 1;
            mask &= mask - 1;
        }
        out
    }

    /// Definition 2's "within scope": row `row` of `relation` matches when
    /// the row agrees with every restricted dimension.
    #[inline]
    pub fn matches_row(&self, relation: &EncodedRelation, row: usize) -> bool {
        // Walk the mask's set bits beside `values` (both in ascending
        // dimension order) instead of allocating `pairs()`: the scan paths
        // call this once per row per fact.
        let mut mask = self.mask;
        for &v in &self.values {
            let d = mask.trailing_zeros() as usize;
            if relation.code(d, row) != v {
                return false;
            }
            mask &= mask - 1;
        }
        true
    }

    /// Set-inclusion of scopes: `self ⊆ other` iff every `(dim, value)`
    /// assignment of `self` also appears in `other`. A smaller scope covers
    /// *more* rows; the paper writes `D ⊆ Dr` for row matching.
    pub fn subset_of(&self, other: &Scope) -> bool {
        if self.mask & other.mask != self.mask {
            return false;
        }
        self.pairs()
            .iter()
            .all(|&(d, v)| other.value_for(d) == Some(v))
    }

    /// Render the scope with dimension names and values from `relation`.
    pub fn describe(&self, relation: &EncodedRelation) -> String {
        if self.is_empty() {
            return "overall".to_string();
        }
        let parts: Vec<String> = self
            .pairs()
            .iter()
            .map(|&(d, v)| {
                let dim = &relation.dims()[d];
                let value = dim
                    .values
                    .get(v as usize)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("#{v}"));
                format!("{}={}", dim.name, value)
            })
            .collect();
        parts.join(" ∧ ")
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("{}");
        }
        f.write_str("{")?;
        for (i, (d, v)) in self.pairs().into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "d{d}={v}")?;
        }
        f.write_str("}")
    }
}

/// A fact: a scope plus the typical (average) target value of the rows
/// within scope (Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Scope of the fact.
    pub scope: Scope,
    /// Average target value over rows within scope.
    pub value: f64,
    /// Number of rows within scope (support).
    pub support: usize,
}

impl Fact {
    /// Build a fact from scope and typical value.
    pub fn new(scope: Scope, value: f64, support: usize) -> Fact {
        Fact {
            scope,
            value,
            support,
        }
    }

    /// Compute the fact for `scope` over `relation` (average of the rows
    /// within scope). Returns `None` when no row matches.
    pub fn for_scope(relation: &EncodedRelation, scope: Scope) -> Option<Fact> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for row in 0..relation.len() {
            if scope.matches_row(relation, row) {
                sum += relation.target(row);
                count += 1;
            }
        }
        (count > 0).then(|| Fact::new(scope, sum / count as f64, count))
    }

    /// Render "the average `<target>` for `<scope>` is `<value>`".
    pub fn describe(&self, relation: &EncodedRelation) -> String {
        format!(
            "average {} for {} is {:.2}",
            relation.target_name(),
            self.scope.describe(relation),
            self.value
        )
    }
}

/// Identifier of a fact within a [`crate::enumeration::FactCatalog`].
pub type FactId = usize;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::relation::Prior;

    fn relation() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["region", "season"],
            "delay",
            vec![
                (vec!["East", "Winter"], 20.0),
                (vec!["South", "Winter"], 10.0),
                (vec!["South", "Summer"], 20.0),
                (vec!["East", "Summer"], 0.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    #[test]
    fn scope_pairs_roundtrip() {
        let scope = Scope::from_pairs(&[(1, 3), (0, 7)]).unwrap();
        assert_eq!(scope.pairs(), vec![(0, 7), (1, 3)]);
        assert_eq!(scope.value_for(0), Some(7));
        assert_eq!(scope.value_for(1), Some(3));
        assert_eq!(scope.value_for(2), None);
        assert_eq!(scope.len(), 2);
    }

    #[test]
    fn duplicate_dimension_rejected() {
        assert!(Scope::from_pairs(&[(0, 1), (0, 2)]).is_err());
        assert!(Scope::from_pairs(&[(40, 1)]).is_err());
    }

    #[test]
    fn row_matching() {
        let r = relation();
        let winter = Scope::from_pairs(&[(1, r.dims()[1].code_of("Winter").unwrap())]).unwrap();
        assert!(winter.matches_row(&r, 0));
        assert!(winter.matches_row(&r, 1));
        assert!(!winter.matches_row(&r, 2));
        assert!(Scope::all().matches_row(&r, 3));
    }

    #[test]
    fn row_matching_on_high_dimensions_agrees_with_pairs() {
        let names: Vec<String> = (0..12).map(|d| format!("d{d}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let rows: Vec<(Vec<&str>, f64)> = (0..24)
            .map(|r| {
                let values = (0..12).map(|d| ["x", "y", "z"][(r / (d % 4 + 1)) % 3]);
                (values.collect(), r as f64)
            })
            .collect();
        let r = EncodedRelation::from_rows(&names, "t", rows, Prior::Constant(0.0)).unwrap();
        let scopes: [&[(usize, u32)]; 5] = [
            &[(8, 0)],
            &[(11, 1)],
            &[(3, 2), (8, 1)],
            &[(0, 0), (9, 2), (11, 0)],
            &[(8, 0), (9, 0), (10, 0), (11, 0)],
        ];
        let mut matched = 0;
        for pairs in scopes {
            let scope = Scope::from_pairs(pairs).unwrap();
            for row in 0..r.len() {
                let by_pairs = scope.pairs().iter().all(|&(d, v)| r.code(d, row) == v);
                assert_eq!(scope.matches_row(&r, row), by_pairs, "{scope} row {row}");
                matched += usize::from(by_pairs);
            }
        }
        assert!(matched > 0);
    }

    #[test]
    fn subset_semantics() {
        let coarse = Scope::from_pairs(&[(0, 1)]).unwrap();
        let fine = Scope::from_pairs(&[(0, 1), (1, 2)]).unwrap();
        let other = Scope::from_pairs(&[(0, 2), (1, 2)]).unwrap();
        assert!(coarse.subset_of(&fine));
        assert!(!fine.subset_of(&coarse));
        assert!(!coarse.subset_of(&other));
        assert!(Scope::all().subset_of(&coarse));
        assert!(fine.subset_of(&fine));
    }

    #[test]
    fn fact_for_scope_averages() {
        let r = relation();
        let south = Scope::from_pairs(&[(0, r.dims()[0].code_of("South").unwrap())]).unwrap();
        let fact = Fact::for_scope(&r, south).unwrap();
        assert_eq!(fact.value, 15.0);
        assert_eq!(fact.support, 2);
        let overall = Fact::for_scope(&r, Scope::all()).unwrap();
        assert_eq!(overall.value, 12.5);
        assert_eq!(overall.support, 4);
    }

    #[test]
    fn fact_for_empty_match_is_none() {
        let r = relation();
        // Value code 9 does not exist.
        let scope = Scope {
            mask: 1,
            values: vec![9],
        };
        assert!(Fact::for_scope(&r, scope).is_none());
    }

    #[test]
    fn describe_is_readable() {
        let r = relation();
        let winter = Scope::from_pairs(&[(1, r.dims()[1].code_of("Winter").unwrap())]).unwrap();
        assert_eq!(winter.describe(&r), "season=Winter");
        let fact = Fact::for_scope(&r, winter).unwrap();
        assert!(fact.describe(&r).contains("delay"));
        assert!(fact.describe(&r).contains("15.00"));
        assert_eq!(Scope::all().describe(&r), "overall");
    }

    #[test]
    fn display_compact() {
        let scope = Scope::from_pairs(&[(0, 7), (2, 1)]).unwrap();
        assert_eq!(scope.to_string(), "{d0=7, d2=1}");
        assert_eq!(Scope::all().to_string(), "{}");
    }
}
