//! The NP-hardness reduction of §VII (Theorem 4): set cover reduces to
//! speech summarization.
//!
//! Executable form of the proof: a [`SetCoverInstance`] maps to a relation
//! with one row per universe element and one dimension column per subset;
//! each subset `s` contributes a candidate fact with value 1 scoped to the
//! rows of `s`. With prior 0 and all targets 1, a speech of `m` facts has
//! deviation 0 iff the corresponding `m` subsets cover the universe.
//! Running any exact summarizer on the reduction therefore decides set
//! cover — which is both a correctness check for the solvers and the
//! reason exhaustive search cannot stay polynomial.

use crate::enumeration::FactCatalog;
use crate::error::{CoreError, Result};
use crate::model::fact::{Fact, Scope};
use crate::model::relation::{EncodedRelation, Prior};
use crate::model::speech::Speech;

/// A set cover instance: a universe `{0, .., universe_size-1}` and a
/// family of subsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetCoverInstance {
    /// Number of universe elements.
    pub universe_size: usize,
    /// The subsets, each listing element indexes.
    pub subsets: Vec<Vec<usize>>,
}

impl SetCoverInstance {
    /// Validate element indexes.
    pub fn new(universe_size: usize, subsets: Vec<Vec<usize>>) -> Result<Self> {
        for (i, subset) in subsets.iter().enumerate() {
            if let Some(&bad) = subset.iter().find(|&&e| e >= universe_size) {
                return Err(CoreError::InvalidProblem {
                    detail: format!("subset {i} references element {bad} outside the universe"),
                });
            }
        }
        Ok(SetCoverInstance {
            universe_size,
            subsets,
        })
    }

    /// Whether the chosen subset indexes cover the universe.
    pub fn is_cover(&self, chosen: &[usize]) -> bool {
        let mut covered = vec![false; self.universe_size];
        for &s in chosen {
            for &e in &self.subsets[s] {
                covered[e] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }
}

/// The reduction artifacts: a relation, the candidate facts (one per
/// subset), and the mapping back to subset indexes.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// One row per universe element, one dimension per subset.
    pub relation: EncodedRelation,
    /// Candidate facts; `facts[i]` corresponds to `subsets[i]`.
    pub facts: Vec<Fact>,
}

/// Build the Theorem 4 reduction.
///
/// Column `C_s` holds value `"in"` for rows in subset `s` and `"out"`
/// otherwise; fact `F_s = ⟨{⟨C_s, in⟩}, 1⟩`. Prior 0, targets 1.
pub fn reduce(instance: &SetCoverInstance) -> Result<Reduction> {
    if instance.subsets.len() > 32 {
        return Err(CoreError::InvalidProblem {
            detail: "reduction supports at most 32 subsets (scope mask width)".to_string(),
        });
    }
    let dim_names: Vec<String> = (0..instance.subsets.len())
        .map(|s| format!("C{s}"))
        .collect();
    let dim_name_refs: Vec<&str> = dim_names.iter().map(String::as_str).collect();

    let mut rows = Vec::with_capacity(instance.universe_size);
    for element in 0..instance.universe_size {
        let values: Vec<&str> = instance
            .subsets
            .iter()
            .map(|subset| {
                if subset.contains(&element) {
                    "in"
                } else {
                    "out"
                }
            })
            .collect();
        rows.push((values, 1.0));
    }
    let relation =
        EncodedRelation::from_rows(&dim_name_refs, "covered", rows, Prior::Constant(0.0))?;

    let mut facts = Vec::with_capacity(instance.subsets.len());
    for (s, subset) in instance.subsets.iter().enumerate() {
        let code = relation.dims()[s]
            .code_of("in")
            .ok_or_else(|| CoreError::InvalidProblem {
                detail: format!("subset {s} is empty — it covers nothing and has no 'in' code"),
            })?;
        let scope = Scope::from_pairs(&[(s, code)])?;
        facts.push(Fact::new(scope, 1.0, subset.len()));
    }
    Ok(Reduction { relation, facts })
}

/// Decision variant: can the universe be covered with `m` subsets?
/// Decided by exhaustively searching speeches over the reduction and
/// checking for deviation zero (the proof's equivalence).
pub fn decide_cover_via_summarization(instance: &SetCoverInstance, m: usize) -> Result<bool> {
    let reduction = reduce(instance)?;
    let n = instance.universe_size as f64;
    // Search all speeches of up to m facts for one with deviation 0,
    // i.e. utility n (base error = n, each row contributing |0 − 1| = 1).
    let best = best_speech_utility(&reduction, m);
    Ok((best - n).abs() < 1e-9)
}

/// Map an optimal speech back to subset indexes.
pub fn speech_to_subsets(reduction: &Reduction, speech: &Speech) -> Vec<usize> {
    speech
        .facts()
        .iter()
        .filter_map(|f| reduction.facts.iter().position(|c| c.scope == f.scope))
        .collect()
}

fn best_speech_utility(reduction: &Reduction, m: usize) -> f64 {
    // Exhaustive search over C(k, ≤m) fact subsets (instances are small).
    let k = reduction.facts.len();
    let mut best = 0.0f64;
    let mut indices: Vec<usize> = Vec::new();
    search(reduction, m.min(k), 0, &mut indices, &mut best);
    best
}

fn search(reduction: &Reduction, m: usize, start: usize, chosen: &mut Vec<usize>, best: &mut f64) {
    let facts: Vec<Fact> = chosen.iter().map(|&i| reduction.facts[i].clone()).collect();
    let u = crate::model::utility::utility(&reduction.relation, &facts);
    if u > *best {
        *best = u;
    }
    if chosen.len() == m {
        return;
    }
    for i in start..reduction.facts.len() {
        chosen.push(i);
        search(reduction, m, i + 1, chosen, best);
        chosen.pop();
    }
}

/// Confirm a catalog built over the reduction's relation contains every
/// reduction fact (the candidate pool of the formal proof is a subset of
/// what [`FactCatalog::build`] enumerates).
pub fn catalog_contains_reduction_facts(catalog: &FactCatalog, reduction: &Reduction) -> bool {
    reduction.facts.iter().all(|f| {
        catalog
            .facts()
            .any(|c| c.scope == f.scope && (c.value - f.value).abs() < 1e-12)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> SetCoverInstance {
        // Universe {0..5}; cover possible with 2 subsets ({0,1,2} ∪ {3,4,5}).
        SetCoverInstance::new(
            6,
            vec![
                vec![0, 1, 2],
                vec![3, 4, 5],
                vec![0, 3],
                vec![1, 4],
                vec![2, 5],
            ],
        )
        .unwrap()
    }

    #[test]
    fn validates_elements() {
        assert!(SetCoverInstance::new(3, vec![vec![0, 5]]).is_err());
    }

    #[test]
    fn is_cover_checks_union() {
        let inst = instance();
        assert!(inst.is_cover(&[0, 1]));
        assert!(inst.is_cover(&[2, 3, 4]));
        assert!(!inst.is_cover(&[0, 2]));
    }

    #[test]
    fn reduction_shape() {
        let inst = instance();
        let red = reduce(&inst).unwrap();
        assert_eq!(red.relation.len(), 6);
        assert_eq!(red.relation.dim_count(), 5);
        assert_eq!(red.facts.len(), 5);
        // Every fact covers exactly its subset's rows.
        for (s, fact) in red.facts.iter().enumerate() {
            for row in 0..red.relation.len() {
                assert_eq!(
                    fact.scope.matches_row(&red.relation, row),
                    inst.subsets[s].contains(&row),
                    "fact {s} row {row}"
                );
            }
        }
    }

    #[test]
    fn zero_deviation_iff_cover() {
        let inst = instance();
        // m = 2: {0,1} covers → decidable.
        assert!(decide_cover_via_summarization(&inst, 2).unwrap());
        // m = 1: no single subset covers.
        assert!(!decide_cover_via_summarization(&inst, 1).unwrap());
        // m = 3: the triple {2,3,4} also covers.
        assert!(decide_cover_via_summarization(&inst, 3).unwrap());
    }

    #[test]
    fn uncoverable_universe_detected() {
        let inst = SetCoverInstance::new(4, vec![vec![0, 1], vec![1, 2]]).unwrap();
        assert!(!decide_cover_via_summarization(&inst, 2).unwrap());
    }

    #[test]
    fn empty_subset_rejected_by_reduction() {
        let inst = SetCoverInstance::new(3, vec![vec![0, 1, 2], vec![]]).unwrap();
        assert!(reduce(&inst).is_err());
    }

    #[test]
    fn speech_maps_back_to_cover() {
        let inst = instance();
        let red = reduce(&inst).unwrap();
        let speech = Speech::new(vec![red.facts[0].clone(), red.facts[1].clone()]);
        let chosen = speech_to_subsets(&red, &speech);
        assert_eq!(chosen, vec![0, 1]);
        assert!(inst.is_cover(&chosen));
    }

    #[test]
    fn catalog_covers_reduction_facts() {
        let inst = instance();
        let red = reduce(&inst).unwrap();
        let dims: Vec<usize> = (0..red.relation.dim_count()).collect();
        let catalog = FactCatalog::build(&red.relation, &dims, 1).unwrap();
        assert!(catalog_contains_reduction_facts(&catalog, &red));
    }
}
