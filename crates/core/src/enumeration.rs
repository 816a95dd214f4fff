//! Fact candidate enumeration and the group/partition index.
//!
//! §III: "The facts considered for summarization report average values in
//! the target column for data subsets. We consider one fact for each data
//! subset defined by a conjunction of the query predicates and, by
//! default, up to two additional equality predicates on the dimensions
//! (considering equality predicates for all value combinations that appear
//! in the data set)."
//!
//! A [`FactCatalog`] materializes exactly those candidates for one
//! (already query-filtered) relation: one [`FactGroup`] per subset of the
//! free dimension columns up to the configured size, one fact per distinct
//! value combination appearing in the data, in order of first appearance.
//! Each group stores a row→fact partition index so that per-fact utility
//! gains and deviation bounds are computed in one pass over the rows — the
//! direct-execution analogue of the paper's fact/data joins and group-by
//! queries. The partition comes from [`RowPartition`], the grouping pass
//! the engine's query enumeration shares.

use vqs_relalg::hash::FxHashMap;

use crate::error::{CoreError, Result};
use crate::instrument::Instrumentation;
use crate::model::fact::{Fact, FactId, Scope};
use crate::model::relation::EncodedRelation;
use crate::model::utility::ResidualState;

/// One fact group: all facts restricting the same set of dimensions
/// (§VI-B prunes "at the granularity of fact groups, characterized by the
/// set of restricted dimension columns").
#[derive(Debug, Clone)]
pub struct FactGroup {
    /// Bitmask of restricted dimensions.
    pub mask: u32,
    /// Restricted dimension indexes, ascending.
    pub cols: Vec<usize>,
    /// First fact of this group in the catalog's fact list.
    pub fact_start: FactId,
    /// Number of facts in the group (`M(g)` in §VI-C).
    pub fact_count: usize,
    /// Per-row fact offset within the group: row `r` falls within the scope
    /// of exactly the fact `fact_start + row_fact[r]`.
    row_fact: Vec<u32>,
}

impl FactGroup {
    /// Global [`FactId`] of the group fact covering `row`.
    #[inline]
    pub fn fact_of_row(&self, row: usize) -> FactId {
        self.fact_start + self.row_fact[row] as usize
    }

    /// Fact ids of this group.
    pub fn fact_ids(&self) -> std::ops::Range<FactId> {
        self.fact_start..self.fact_start + self.fact_count
    }
}

/// The candidate facts for one summarization problem.
///
/// Besides the per-group row→fact partitions, the catalog materializes a
/// CSR-layout *inverted* index: for every fact, the rows within its scope
/// (`fact_rows`) and the pre-computed deviation `|fact.value − v_r|` of
/// each such row (`fact_devs`, the catalog's only copy of the
/// deviations). The solver hot path
/// ([`crate::model::utility::ResidualState::gain_indexed`] /
/// [`crate::model::utility::ResidualState::apply_indexed`]) walks these
/// slices instead of scanning all rows and re-decoding scopes per row —
/// O(|scope|) work per fact instead of O(rows·dims).
#[derive(Debug, Clone)]
pub struct FactCatalog {
    facts: Vec<Fact>,
    groups: Vec<FactGroup>,
    rows: usize,
    /// CSR offsets: the rows of fact `f` live at
    /// `index_rows[index_offsets[f]..index_offsets[f + 1]]`.
    index_offsets: Vec<usize>,
    /// Row ids per fact, ascending within each fact.
    index_rows: Vec<u32>,
    /// `|fact.value − target(row)|`, aligned with `index_rows`.
    index_devs: Vec<f64>,
}

impl FactCatalog {
    /// Enumerate all facts over `relation` restricting at most `max_dims`
    /// of the `free_dims` columns, including the empty scope (the overall
    /// average — the "general cancellation probability" style fact of the
    /// paper's Example 5).
    ///
    /// `free_dims` are the dimensions not already fixed by query
    /// predicates; restricting a fixed dimension would duplicate facts.
    pub fn build(
        relation: &EncodedRelation,
        free_dims: &[usize],
        max_dims: usize,
    ) -> Result<FactCatalog> {
        Self::build_with_scope_sizes(relation, free_dims, 0, max_dims)
    }

    /// Like [`FactCatalog::build`] but with a *minimum* scope size as well —
    /// `min_dims = 1` excludes the overall-average fact, matching the fact
    /// pool of the paper's Example 7 ("all facts … describing flights
    /// within a specific region or season or both").
    pub fn build_with_scope_sizes(
        relation: &EncodedRelation,
        free_dims: &[usize],
        min_dims: usize,
        max_dims: usize,
    ) -> Result<FactCatalog> {
        for &d in free_dims {
            if d >= relation.dim_count() {
                return Err(CoreError::DimensionOutOfRange {
                    dim: d,
                    dims: relation.dim_count(),
                });
            }
        }
        if free_dims.len() > 32 {
            return Err(CoreError::InvalidProblem {
                detail: format!(
                    "at most 32 free dimensions supported, got {}",
                    free_dims.len()
                ),
            });
        }
        let mut sorted_dims = free_dims.to_vec();
        sorted_dims.sort_unstable();
        sorted_dims.dedup();

        let mut facts = Vec::new();
        let mut groups = Vec::new();
        for subset in subsets_up_to(&sorted_dims, max_dims) {
            if subset.len() < min_dims {
                continue;
            }
            let group = build_group(relation, &subset, &mut facts)?;
            groups.push(group);
        }
        if groups.is_empty() {
            return Err(CoreError::InvalidProblem {
                detail: format!(
                    "no fact groups: min_dims {min_dims} exceeds max_dims {max_dims} or free dims"
                ),
            });
        }
        let (index_offsets, index_rows, index_devs) =
            build_inverted_index(relation, &facts, &groups);
        Ok(FactCatalog {
            facts,
            groups,
            rows: relation.len(),
            index_offsets,
            index_rows,
            index_devs,
        })
    }

    /// All candidate facts.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// Fact by id.
    pub fn fact(&self, id: FactId) -> &Fact {
        &self.facts[id]
    }

    /// Number of candidate facts (`k = |F|` in §VII).
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when no facts were enumerated (empty relation).
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The fact groups, ordered by subset enumeration (empty scope first,
    /// then single dimensions, then pairs, ...).
    pub fn groups(&self) -> &[FactGroup] {
        &self.groups
    }

    /// Number of rows the catalog was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Index of the group that owns `fact`.
    pub fn group_of(&self, fact: FactId) -> usize {
        match self.groups.binary_search_by(|g| {
            if fact < g.fact_start {
                std::cmp::Ordering::Greater
            } else if fact >= g.fact_start + g.fact_count {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => unreachable!("fact id out of catalog range"),
        }
    }

    /// Utility gains of every fact in `group` against the current
    /// residuals, in one pass over the rows (the direct analogue of the
    /// fact/data join plus grouped sum in Algorithm 2 Line 7).
    pub fn group_gains(
        &self,
        relation: &EncodedRelation,
        residual: &ResidualState,
        group: usize,
        counters: &mut Instrumentation,
    ) -> Vec<f64> {
        let mut gains = Vec::new();
        self.group_gains_into(relation, residual, group, counters, &mut gains);
        gains
    }

    /// [`FactCatalog::group_gains`] into a caller-owned buffer, for sweeps
    /// that evaluate many groups per iteration (the greedy inner loop):
    /// the buffer is cleared and refilled, so one allocation serves the
    /// whole sweep instead of one per group.
    pub fn group_gains_into(
        &self,
        relation: &EncodedRelation,
        residual: &ResidualState,
        group: usize,
        counters: &mut Instrumentation,
        gains: &mut Vec<f64>,
    ) {
        debug_assert_eq!(relation.len(), self.rows);
        let group = &self.groups[group];
        gains.clear();
        gains.resize(group.fact_count, 0.0);
        let residuals = residual.residuals();
        if group.fact_count == 1 {
            // Single-fact group (e.g. the overall average): the fact
            // covers every row in ascending order, so its CSR deviations
            // are row-aligned and the gain is a pure reduction over two
            // contiguous streams — 4-way unrolled with independent
            // accumulators and a branchless clamp, the same shape as
            // `ResidualState::gain_indexed`. The reordered summation may
            // differ from the sequential pass by rounding (gain estimates
            // tolerate that; see the differential tests).
            let devs = self.fact_devs(group.fact_start);
            let chunks = self.rows / 4;
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for c in 0..chunks {
                let b = c * 4;
                a0 += (residuals[b] - devs[b]).max(0.0);
                a1 += (residuals[b + 1] - devs[b + 1]).max(0.0);
                a2 += (residuals[b + 2] - devs[b + 2]).max(0.0);
                a3 += (residuals[b + 3] - devs[b + 3]).max(0.0);
            }
            let mut tail = 0.0f64;
            for r in chunks * 4..self.rows {
                tail += (residuals[r] - devs[r]).max(0.0);
            }
            gains[0] = (a0 + a1) + (a2 + a3) + tail;
        } else {
            // Per-fact gather over the catalog's CSR inverted index: the
            // group's facts partition the rows, so this touches each row
            // exactly once — the same totals as a row-order partition
            // pass — but every add lands in a register accumulator
            // instead of a `gains[offset]` slot, so there is no serial
            // load-add-store chain through memory. Four independent
            // accumulators per fact expose ILP; the branchless clamp
            // adds +0.0 for non-improving rows (the additive identity
            // for these finite non-negative streams). Summation order
            // differs from the scan by reassociation only — gains are
            // selection estimates with tolerance-checked consumers (see
            // the differential tests), while `apply_indexed`, which
            // determines search state, stays strictly sequential.
            assert_eq!(residuals.len(), self.rows);
            for (slot, fact) in group.fact_ids().enumerate() {
                let lo = self.index_offsets[fact];
                let hi = self.index_offsets[fact + 1];
                let len = hi - lo;
                let chunks = len / 4;
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                // SAFETY: `build_inverted_index` fills `index_rows` with
                // row ids drawn from `0..relation.len()` (validated as
                // `self.rows` above, the length of `residuals`),
                // `index_devs` is aligned with `index_rows`, and the
                // CSR offsets are a prefix sum bounded by their lengths.
                unsafe {
                    for c in 0..chunks {
                        let b = lo + c * 4;
                        let rows = &self.index_rows;
                        let devs = &self.index_devs;
                        a0 += (residuals.get_unchecked(*rows.get_unchecked(b) as usize)
                            - devs.get_unchecked(b))
                        .max(0.0);
                        a1 += (residuals.get_unchecked(*rows.get_unchecked(b + 1) as usize)
                            - devs.get_unchecked(b + 1))
                        .max(0.0);
                        a2 += (residuals.get_unchecked(*rows.get_unchecked(b + 2) as usize)
                            - devs.get_unchecked(b + 2))
                        .max(0.0);
                        a3 += (residuals.get_unchecked(*rows.get_unchecked(b + 3) as usize)
                            - devs.get_unchecked(b + 3))
                        .max(0.0);
                    }
                }
                let mut tail = 0.0f64;
                for k in lo + chunks * 4..hi {
                    tail += (residuals[self.index_rows[k] as usize] - self.index_devs[k]).max(0.0);
                }
                gains[slot] = (a0 + a1) + (a2 + a3) + tail;
            }
        }
        counters.gain_passes += 1;
        counters.gain_row_touches += self.rows as u64;
    }

    /// Per-fact upper bounds on utility gain for one group: the summed
    /// residual deviation of the rows within each fact's scope ("adding a
    /// fact can at most decrease error to zero in the data region the
    /// fact refers to", §VI-B). The paper's Example 8 quotes these values
    /// (facts referencing Fall ≤ 10, facts referencing the East ≤ 5).
    pub fn group_fact_bounds(
        &self,
        residual: &ResidualState,
        group: usize,
        counters: &mut Instrumentation,
    ) -> Vec<f64> {
        let group = &self.groups[group];
        let mut sums = vec![0.0f64; group.fact_count];
        for row in 0..self.rows {
            sums[group.row_fact[row] as usize] += residual.residual(row);
        }
        counters.bound_passes += 1;
        counters.bound_row_touches += self.rows as u64;
        sums
    }

    /// Upper bound on the utility gain of any fact in `group`: the maximum
    /// of [`FactCatalog::group_fact_bounds`] (Algorithm 3 Line 15).
    pub fn group_bound(
        &self,
        residual: &ResidualState,
        group: usize,
        counters: &mut Instrumentation,
    ) -> f64 {
        self.group_fact_bounds(residual, group, counters)
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Rows within the scope of `fact`, ascending (CSR inverted index).
    #[inline]
    pub fn fact_rows(&self, fact: FactId) -> &[u32] {
        &self.index_rows[self.index_offsets[fact]..self.index_offsets[fact + 1]]
    }

    /// Pre-computed deviations `|fact.value − v_r|`, aligned with
    /// [`FactCatalog::fact_rows`].
    #[inline]
    pub fn fact_devs(&self, fact: FactId) -> &[f64] {
        &self.index_devs[self.index_offsets[fact]..self.index_offsets[fact + 1]]
    }

    /// Both CSR slices of one fact in a single bounds computation — the
    /// shape the solver hot path consumes.
    #[inline]
    pub fn fact_index(&self, fact: FactId) -> (&[u32], &[f64]) {
        let range = self.index_offsets[fact]..self.index_offsets[fact + 1];
        (&self.index_rows[range.clone()], &self.index_devs[range])
    }

    /// Single-fact utilities of every fact (used by the exact algorithm to
    /// order facts and bound expansions).
    pub fn single_fact_utilities(
        &self,
        relation: &EncodedRelation,
        counters: &mut Instrumentation,
    ) -> Vec<f64> {
        let base = ResidualState::new(relation);
        let mut utilities = vec![0.0f64; self.facts.len()];
        for (g, _) in self.groups.iter().enumerate() {
            let gains = self.group_gains(relation, &base, g, counters);
            let start = self.groups[g].fact_start;
            utilities[start..start + gains.len()].copy_from_slice(&gains);
        }
        utilities
    }
}

/// Enumerate all subsets of `dims` with at most `max_size` elements,
/// smallest first (the empty subset leads).
fn subsets_up_to(dims: &[usize], max_size: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for size in 1..=max_size.min(dims.len()) {
        for combo in combinations(dims.len(), size) {
            out.push(combo.iter().map(|&i| dims[i]).collect());
        }
    }
    out
}

/// All `size`-combinations of `0..n` in lexicographic order.
fn combinations(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if size > n {
        return out;
    }
    let mut combo: Vec<usize> = (0..size).collect();
    loop {
        out.push(combo.clone());
        let mut i = size;
        let mut advanced = false;
        while i > 0 {
            i -= 1;
            if combo[i] != i + n - size {
                combo[i] += 1;
                for j in i + 1..size {
                    combo[j] = combo[j - 1] + 1;
                }
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    out
}

/// Materialize the CSR inverted index from the per-group row→fact
/// partitions: one counting sort per group, no scope matching. Every row
/// appears once per group (the groups partition the rows), so the index
/// holds exactly `rows × groups` entries.
fn build_inverted_index(
    relation: &EncodedRelation,
    facts: &[Fact],
    groups: &[FactGroup],
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let total = relation.len() * groups.len();
    let mut offsets = vec![0usize; facts.len() + 1];
    // Count rows per fact (shifted by one for the prefix sum).
    for group in groups {
        for &offset in &group.row_fact {
            offsets[group.fact_start + offset as usize + 1] += 1;
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor: Vec<usize> = offsets[..facts.len()].to_vec();
    let mut rows = vec![0u32; total];
    let mut devs = vec![0.0f64; total];
    for group in groups {
        for (row, &offset) in group.row_fact.iter().enumerate() {
            let fact = group.fact_start + offset as usize;
            let slot = cursor[fact];
            cursor[fact] += 1;
            rows[slot] = row as u32;
            devs[slot] = (facts[fact].value - relation.target(row)).abs();
        }
    }
    (offsets, rows, devs)
}

/// The rows of a relation partitioned by their value combination on a set
/// of columns: the grouping pass behind both the fact catalog and the
/// engine's query enumeration.
#[derive(Debug, Clone)]
pub struct RowPartition {
    /// Per row, the id of its value combination. Ids are dense and number
    /// the combinations in order of first appearance.
    pub of_row: Vec<u32>,
    /// Per combination id, the first row holding the combination.
    pub first_row: Vec<u32>,
}

impl RowPartition {
    /// Partition the rows of `relation` by their codes on `cols`.
    ///
    /// Each row's code tuple becomes one `u64` key, with no allocation per
    /// row: two codes pack into one key, and a wider tuple folds — the key
    /// of its leading codes resolves to that prefix's dense id, which packs
    /// with the next code. Every step is injective, so equal final keys
    /// mean equal tuples.
    pub fn new(relation: &EncodedRelation, cols: &[usize]) -> RowPartition {
        let columns: Vec<&[u32]> = cols.iter().map(|&d| relation.codes(d)).collect();
        // One map per fold of a wide tuple, then one for the whole tuple.
        let mut maps: Vec<FxHashMap<u64, u32>> =
            vec![FxHashMap::default(); columns.len().saturating_sub(1).max(1)];
        let (folds, whole) = maps.split_at_mut(columns.len().saturating_sub(2));
        let whole = &mut whole[0];
        let mut of_row = Vec::with_capacity(relation.len());
        let mut first_row = Vec::new();
        for row in 0..relation.len() {
            let mut key = columns.first().map_or(0, |codes| u64::from(codes[row]));
            for (i, codes) in columns.iter().enumerate().skip(1) {
                if i > 1 {
                    key = u64::from(dense_id(&mut folds[i - 2], key));
                }
                key = pack(key, codes[row]);
            }
            let id = dense_id(whole, key);
            if id as usize == first_row.len() {
                first_row.push(row as u32);
            }
            of_row.push(id);
        }
        RowPartition { of_row, first_row }
    }

    /// Number of distinct value combinations.
    pub fn len(&self) -> usize {
        self.first_row.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.first_row.is_empty()
    }
}

/// Pack a code or prefix id (below 2^32) with the next code into one key.
/// The odd multiply and the xor-shift are bijections that carry high bits
/// into low ones: the Fx hash leaves a key's low bits depending on its low
/// bits only, and the hash table picks buckets by them.
#[inline]
fn pack(prefix: u64, code: u32) -> u64 {
    let key = ((prefix << 32) | u64::from(code)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    key ^ (key >> 32)
}

/// The dense id of `key` in `ids`, assigning the next one on first sight.
#[inline]
fn dense_id(ids: &mut FxHashMap<u64, u32>, key: u64) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next)
}

fn build_group(
    relation: &EncodedRelation,
    cols: &[usize],
    facts: &mut Vec<Fact>,
) -> Result<FactGroup> {
    let fact_start = facts.len();
    let RowPartition {
        of_row: row_fact,
        first_row,
    } = RowPartition::new(relation, cols);
    // Sums accumulate in row order, as in `Fact::for_scope`, so every fact
    // value is bit-identical to a direct scan of its scope. The indexing
    // also checks every offset against the fact count, which the bound
    // pass, the inverted index and the unchecked gain sweep rely on.
    let mut sums = vec![0.0f64; first_row.len()];
    let mut counts = vec![0usize; first_row.len()];
    for (&offset, &target) in row_fact.iter().zip(relation.targets()) {
        sums[offset as usize] += target;
        counts[offset as usize] += 1;
    }
    let mask = cols.iter().fold(0u32, |m, &d| m | (1 << d));
    for ((&row, sum), count) in first_row.iter().zip(&sums).zip(&counts) {
        let pairs: Vec<(usize, u32)> = cols
            .iter()
            .map(|&d| (d, relation.code(d, row as usize)))
            .collect();
        let scope = Scope::from_pairs(&pairs)?;
        facts.push(Fact::new(scope, sum / *count as f64, *count));
    }
    Ok(FactGroup {
        mask,
        cols: cols.to_vec(),
        fact_start,
        fact_count: first_row.len(),
        row_fact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::relation::Prior;
    use crate::model::utility;

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
    fn enumerates_expected_fact_count() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        // Empty scope (1) + region (2) + season (2) + region×season (4).
        assert_eq!(catalog.len(), 9);
        assert_eq!(catalog.groups().len(), 4);
        let masks: Vec<u32> = catalog.groups().iter().map(|g| g.mask).collect();
        assert_eq!(masks, vec![0b00, 0b01, 0b10, 0b11]);
    }

    #[test]
    fn max_dims_limits_groups() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 1).unwrap();
        assert_eq!(catalog.groups().len(), 3);
        assert_eq!(catalog.len(), 5);
        let catalog = FactCatalog::build(&r, &[0, 1], 0).unwrap();
        assert_eq!(catalog.len(), 1); // just the overall average
        assert_eq!(catalog.fact(0).value, 12.5);
    }

    #[test]
    fn facts_average_their_scope() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        for fact in catalog.facts() {
            let recomputed = Fact::for_scope(&r, fact.scope.clone()).unwrap();
            assert!((fact.value - recomputed.value).abs() < 1e-12);
            assert_eq!(fact.support, recomputed.support);
        }
    }

    #[test]
    fn row_partition_is_consistent() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        for group in catalog.groups() {
            for row in 0..r.len() {
                let fact = catalog.fact(group.fact_of_row(row));
                assert!(fact.scope.matches_row(&r, row));
            }
        }
    }

    #[test]
    fn group_of_inverts_fact_ids() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        for (g, group) in catalog.groups().iter().enumerate() {
            for id in group.fact_ids() {
                assert_eq!(catalog.group_of(id), g);
            }
        }
    }

    #[test]
    fn gains_match_direct_computation() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let state = ResidualState::new(&r);
        let mut counters = Instrumentation::default();
        for (g, group) in catalog.groups().iter().enumerate() {
            let gains = catalog.group_gains(&r, &state, g, &mut counters);
            for (offset, gain) in gains.iter().enumerate() {
                let fact = catalog.fact(group.fact_start + offset);
                let direct = state.gain_of(&r, fact);
                assert!((gain - direct).abs() < 1e-12, "group {g} fact {offset}");
            }
        }
        assert!(counters.gain_passes >= 4);
        assert_eq!(counters.gain_row_touches, 16);
    }

    #[test]
    fn single_fact_utilities_match_utility_fn() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let mut counters = Instrumentation::default();
        let utilities = catalog.single_fact_utilities(&r, &mut counters);
        for (id, fact) in catalog.facts().iter().enumerate() {
            let direct = utility::utility(&r, std::slice::from_ref(fact));
            assert!((utilities[id] - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn bounds_dominate_gains() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let state = ResidualState::new(&r);
        let mut counters = Instrumentation::default();
        for g in 0..catalog.groups().len() {
            let bound = catalog.group_bound(&state, g, &mut counters);
            let gains = catalog.group_gains(&r, &state, g, &mut counters);
            for gain in gains {
                assert!(bound >= gain - 1e-12);
            }
        }
        assert_eq!(counters.bound_passes, 4);
    }

    #[test]
    fn inverted_index_matches_scope_matching() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        for (id, fact) in catalog.facts().iter().enumerate() {
            let expected: Vec<u32> = (0..r.len())
                .filter(|&row| fact.scope.matches_row(&r, row))
                .map(|row| row as u32)
                .collect();
            assert_eq!(catalog.fact_rows(id), expected.as_slice(), "fact {id}");
            for (&row, &dev) in catalog.fact_rows(id).iter().zip(catalog.fact_devs(id)) {
                let direct = (fact.value - r.target(row as usize)).abs();
                assert_eq!(dev, direct, "fact {id} row {row}");
            }
            assert_eq!(catalog.fact_rows(id).len(), fact.support);
        }
        // The groups partition the rows, so the index holds rows × groups
        // entries in total.
        let total: usize = (0..catalog.len())
            .map(|id| catalog.fact_rows(id).len())
            .sum();
        assert_eq!(total, r.len() * catalog.groups().len());
    }

    #[test]
    fn indexed_gain_matches_scan_gain() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let state = ResidualState::new(&r);
        for (id, fact) in catalog.facts().iter().enumerate() {
            let (rows, devs) = catalog.fact_index(id);
            let indexed = state.gain_indexed(rows, devs);
            let scan = state.gain_of(&r, fact);
            assert_eq!(indexed, scan, "fact {id}");
        }
    }

    #[test]
    fn free_dims_exclude_fixed_columns() {
        let r = relation();
        // Only season free: no region-restricted facts.
        let catalog = FactCatalog::build(&r, &[1], 2).unwrap();
        assert_eq!(catalog.groups().len(), 2);
        assert!(catalog.facts().iter().all(|f| !f.scope.restricts(0)));
    }

    #[test]
    fn invalid_dims_rejected() {
        let r = relation();
        assert!(FactCatalog::build(&r, &[5], 2).is_err());
    }

    #[test]
    fn subsets_enumeration_orders_by_size() {
        let subsets = subsets_up_to(&[0, 1, 2], 2);
        assert_eq!(
            subsets,
            vec![
                vec![],
                vec![0],
                vec![1],
                vec![2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
            ]
        );
        assert_eq!(subsets_up_to(&[3, 7], 5).len(), 4);
    }

    #[test]
    fn combinations_basic() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
        assert!(combinations(2, 3).is_empty());
    }
}
