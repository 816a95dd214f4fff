//! Work counters shared by the algorithms and the benches.
//!
//! The paper compares algorithms by data processing effort (joins vs
//! group-bys); these counters make the same effort visible in our direct
//! implementations, independent of wall-clock noise.

/// Counters accumulated while solving one summarization problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Instrumentation {
    /// Row touches spent computing per-fact utility gains (the analogue of
    /// joining data rows with facts, `CU`).
    pub gain_row_touches: u64,
    /// Row touches spent computing deviation upper bounds (the analogue of
    /// the group-by-only bound queries, `CD`).
    pub bound_row_touches: u64,
    /// Row touches served by the catalog's cell-ordered index
    /// ([`crate::enumeration::FactCatalog::fact_index`]): only rows inside a
    /// fact's scope, as lone rows or inside runs of its cells. The indexed
    /// solver hot path accumulates here instead of `gain_row_touches`,
    /// making the O(|scope|)-vs-O(rows·dims) saving directly visible.
    pub index_row_touches: u64,
    /// Number of per-group gain passes executed.
    pub gain_passes: u64,
    /// Number of per-group bound passes executed.
    pub bound_passes: u64,
    /// Fact groups pruned (targets plus their specializations).
    pub groups_pruned: u64,
    /// Search-tree nodes expanded (exact algorithm only).
    pub nodes_expanded: u64,
    /// Search-tree branches cut by the utility bound (exact only).
    pub nodes_pruned: u64,
    /// Complete speeches whose exact utility was evaluated.
    pub speeches_evaluated: u64,
    /// Run-time speech-store lookups served.
    pub store_lookups: u64,
    /// Hash probes issued by the speech store (exact probe plus indexed
    /// generalization candidates; a full-map scan would show up here as a
    /// probe count proportional to the store size).
    pub store_probes: u64,
}

impl Instrumentation {
    /// Merge counters from another instance (e.g. per-iteration partials).
    pub fn merge(&mut self, other: &Instrumentation) {
        self.gain_row_touches += other.gain_row_touches;
        self.bound_row_touches += other.bound_row_touches;
        self.index_row_touches += other.index_row_touches;
        self.gain_passes += other.gain_passes;
        self.bound_passes += other.bound_passes;
        self.groups_pruned += other.groups_pruned;
        self.nodes_expanded += other.nodes_expanded;
        self.nodes_pruned += other.nodes_pruned;
        self.speeches_evaluated += other.speeches_evaluated;
        self.store_lookups += other.store_lookups;
        self.store_probes += other.store_probes;
    }

    /// Total row touches across gain and bound passes.
    pub fn total_row_touches(&self) -> u64 {
        self.gain_row_touches + self.bound_row_touches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = Instrumentation {
            gain_row_touches: 10,
            gain_passes: 1,
            ..Default::default()
        };
        let b = Instrumentation {
            gain_row_touches: 5,
            bound_row_touches: 7,
            index_row_touches: 11,
            groups_pruned: 2,
            store_lookups: 3,
            store_probes: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.gain_row_touches, 15);
        assert_eq!(a.bound_row_touches, 7);
        assert_eq!(a.index_row_touches, 11);
        assert_eq!(a.groups_pruned, 2);
        assert_eq!(a.total_row_touches(), 22);
        assert_eq!(a.store_lookups, 3);
        assert_eq!(a.store_probes, 9);
    }

    #[test]
    fn store_counters_accumulate_independently() {
        let mut a = Instrumentation {
            store_lookups: 1,
            store_probes: 4,
            ..Default::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.store_lookups, 2);
        assert_eq!(a.store_probes, 8);
        // Store counters do not leak into the data-processing totals.
        assert_eq!(a.total_row_touches(), 0);
    }
}
