//! The paper's running example (Fig. 1): average airplane delays as a
//! function of region and season.
//!
//! The paper shows the grid only as a figure; the 4×4 grid below is
//! reconstructed from the numbers its examples work through (each one is
//! checked in `tests/paper_examples.rs`):
//!
//! ```text
//!             East  South  West  North
//! Spring        0      0     0     20
//! Summer        0     20     0     10
//! Fall          0      0     0     10
//! Winter       20     10    10     20
//! ```
//!
//! **Derivation.** Under the prior "no delays" (Example 3), Example 4's
//! base error `4·20 + 4·10 = 120` makes four cells 20, four 10 and the
//! other eight 0. Example 2 puts 20 at Summer∧South and makes Winter
//! average 15, so Winter's row sums to 60. Example 6 gives Winter∧East, a
//! one-cell fact, utility 20, so that cell is 20. After the Winter fact,
//! Example 8 bounds facts about the East by 5 — Winter∧East's residual
//! `|20 − 15|` — so the East's other cells are 0; it bounds facts about
//! Fall by 10, so Fall's row sums to 10. Examples 7 and 8 make North the
//! greedy's second pick, with value 15 (a column sum of 60) and gain 25.
//! After the Winter fact, a non-Winter cell of 20 adds 15 to that gain, a
//! cell of 10 adds 5, and Winter∧North adds nothing whatever it holds. So
//! North's Spring, Summer and Fall cells hold one 20 and two 10s, and
//! Winter∧North holds the 20 left of the column's 60. That spends the four
//! 20s, so Winter's South and West cells, which sum to 20, hold 10 each.
//! That spends the four 10s, so Fall's 10 is Fall∧North. One choice stays
//! open: which of Spring∧North and Summer∧North holds the 20. A search
//! over every grid of four 20s and four 10s finds exactly these two grids
//! under the examples' numbers, and both give every number the examples
//! quote; this grid takes Spring∧North = 20.
//!
//! Derived quantities the tests rely on: `D(∅) = 120`; the Winter and
//! North facts (both value 15) have single-fact utility 40 each and the
//! second of them adds gain 25 after the first; the Summer∧South fact
//! (value 20) has utility 20; after the Winter fact, the East group's
//! deviation bound is 5 and Fall's is 10.
//!
//! **Example 4's inconsistency.** The paper states error 35 for Speech 2
//! (the Winter and North facts). On this grid, and on the other one, the
//! error is 55 (utility 65), and the tests pin 55. Speech 2 still
//! dominates Speech 1 (utility 40), as the paper claims.

use vqs_core::prelude::*;

/// Season labels, row-major order of the grid.
pub const SEASONS: [&str; 4] = ["Spring", "Summer", "Fall", "Winter"];
/// Region labels, column order of the grid.
pub const REGIONS: [&str; 4] = ["East", "South", "West", "North"];

/// The delay grid, `GRID[season][region]`.
pub const GRID: [[f64; 4]; 4] = [
    [0.0, 0.0, 0.0, 20.0],
    [0.0, 20.0, 0.0, 10.0],
    [0.0, 0.0, 0.0, 10.0],
    [20.0, 10.0, 10.0, 20.0],
];

/// The running-example relation: one row per (season, region) cell, prior
/// "no delays" (Example 3).
pub fn relation() -> EncodedRelation {
    let mut rows = Vec::with_capacity(16);
    for (s, season) in SEASONS.iter().enumerate() {
        for (r, region) in REGIONS.iter().enumerate() {
            rows.push((vec![*season, *region], GRID[s][r]));
        }
    }
    EncodedRelation::from_rows(&["season", "region"], "delay", rows, Prior::Constant(0.0))
        .expect("running example is well-formed")
}

/// Build a scope over the running example from `(column, value)` names.
pub fn scope(relation: &EncodedRelation, pairs: &[(&str, &str)]) -> Scope {
    let encoded: Vec<(usize, u32)> = pairs
        .iter()
        .map(|&(dim, value)| {
            let d = relation.dim_index(dim).expect("dimension exists");
            let code = relation.dims()[d].code_of(value).expect("value exists");
            (d, code)
        })
        .collect();
    Scope::from_pairs(&encoded).expect("valid scope")
}

/// Speech 1 of Fig. 1: Summer∧South = 20 and Winter∧East = 20.
pub fn speech1(relation: &EncodedRelation) -> Speech {
    Speech::new(vec![
        Fact::new(
            scope(relation, &[("season", "Summer"), ("region", "South")]),
            20.0,
            1,
        ),
        Fact::new(
            scope(relation, &[("season", "Winter"), ("region", "East")]),
            20.0,
            1,
        ),
    ])
}

/// Speech 2 of Fig. 1: Winter = 15 and North = 15.
pub fn speech2(relation: &EncodedRelation) -> Speech {
    Speech::new(vec![
        Fact::new(scope(relation, &[("season", "Winter")]), 15.0, 4),
        Fact::new(scope(relation, &[("region", "North")]), 15.0, 4),
    ])
}

/// The Example 7 fact pool: every fact restricting a specific region or
/// season or both (no overall-average fact).
pub fn example7_catalog(relation: &EncodedRelation) -> FactCatalog {
    FactCatalog::build_with_scope_sizes(relation, &[0, 1], 1, 2).expect("running example catalog")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_totals_match_example4() {
        let r = relation();
        assert_eq!(r.len(), 16);
        assert_eq!(base_error(&r), 120.0);
    }

    #[test]
    fn speech_utilities() {
        let r = relation();
        assert_eq!(speech1(&r).utility(&r), 40.0);
        assert_eq!(speech2(&r).utility(&r), 65.0);
        assert!(speech2(&r).utility(&r) > speech1(&r).utility(&r));
    }

    #[test]
    fn fact_values_match_grid_averages() {
        let r = relation();
        let winter = Fact::for_scope(&r, scope(&r, &[("season", "Winter")])).unwrap();
        assert_eq!(winter.value, 15.0);
        let north = Fact::for_scope(&r, scope(&r, &[("region", "North")])).unwrap();
        assert_eq!(north.value, 15.0);
        let east = Fact::for_scope(&r, scope(&r, &[("region", "East")])).unwrap();
        assert_eq!(east.value, 5.0);
    }

    #[test]
    fn example7_pool_excludes_overall() {
        let r = relation();
        let catalog = example7_catalog(&r);
        assert!(catalog.facts().all(|f| !f.scope.is_empty()));
        // 4 seasons + 4 regions + 16 cells.
        assert_eq!(catalog.len(), 24);
    }
}
