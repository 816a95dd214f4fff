//! A simple cost model for the engine's operators.
//!
//! §VI-C of the paper estimates two operation costs: `CU(g)` — computing
//! per-fact utility for fact group `g`, which needs a join between facts
//! and data rows — and `CD(g)` — computing per-group deviation bounds,
//! which is a group-by without a join. "Both estimates can be obtained via
//! the query optimizer cost model"; this module is that cost model.
//!
//! Costs are unitless work estimates (≈ number of row touches weighted by
//! per-touch effort), not wall-clock predictions. Only *ratios* matter to
//! the pruning optimizer.

/// Tunable per-row effort weights.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Effort to probe the join hash table and compute a utility term for
    /// one (row, fact) pair. Joins also write wider intermediate rows,
    /// hence the higher default weight.
    pub join_row_weight: f64,
    /// Effort to hash a row into a group and add one value.
    pub group_row_weight: f64,
    /// Fixed setup cost per operator invocation (hash-table allocation,
    /// output buffers).
    pub operator_setup: f64,
    /// Per-output-row cost of materializing results.
    pub output_row_weight: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Weights calibrated against the relalg operators on 100k-row
        // tables: a scope-join row touch costs roughly 3x a group-by row
        // touch (hash probe + wider output rows).
        CostModel {
            join_row_weight: 3.0,
            group_row_weight: 1.0,
            operator_setup: 64.0,
            output_row_weight: 0.5,
        }
    }
}

impl CostModel {
    /// `CU(g)`: utility computation for one fact group — a scope join of
    /// `rows` data rows against `facts` facts followed by a grouped sum.
    ///
    /// Every data row matches exactly one fact of a group (the fact whose
    /// scope equals the row's dimension values), so join output ≈ `rows`.
    pub fn utility_cost(&self, rows: usize, facts: usize) -> f64 {
        self.operator_setup
            + self.join_row_weight * rows as f64
            + self.group_row_weight * rows as f64
            + self.output_row_weight * facts as f64
    }

    /// `CD(g)`: deviation upper bounds for one fact group — a single
    /// group-by over the data, no join.
    pub fn deviation_cost(&self, rows: usize, facts: usize) -> f64 {
        self.operator_setup
            + self.group_row_weight * rows as f64
            + self.output_row_weight * facts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utility_more_expensive_than_deviation() {
        let model = CostModel::default();
        // The core asymmetry the pruning optimizer relies on.
        assert!(model.utility_cost(10_000, 50) > model.deviation_cost(10_000, 50));
    }

    #[test]
    fn costs_scale_with_rows() {
        let model = CostModel::default();
        assert!(model.utility_cost(20_000, 50) > model.utility_cost(10_000, 50));
        assert!(model.deviation_cost(20_000, 50) > model.deviation_cost(10_000, 50));
    }

    #[test]
    fn setup_dominates_tiny_inputs() {
        let model = CostModel::default();
        let tiny = model.deviation_cost(1, 1);
        assert!(tiny >= model.operator_setup);
    }
}
