//! Fact candidate enumeration and the cell-ordered fact index.
//!
//! §III: "The facts considered for summarization report average values in
//! the target column for data subsets. We consider one fact for each data
//! subset defined by a conjunction of the query predicates and, by
//! default, up to two additional equality predicates on the dimensions
//! (considering equality predicates for all value combinations that appear
//! in the data set)."
//!
//! A [`FactCatalog`] enumerates exactly those candidates for one
//! summarization problem: one [`FactGroup`] per subset of the free
//! dimension columns up to the configured size, one fact per distinct
//! value combination appearing in the covered rows, in order of first
//! appearance. It stores them as columns — each fact's value and support,
//! each group's scope codes back to back — and builds a [`Fact`] with its
//! [`Scope`] only when asked ([`FactCatalog::fact`]): a solve touches the
//! values of every candidate but speaks only a few facts.
//!
//! The catalog works on *cells*: a row's value combination on every
//! dimension a fact may restrict decides which facts cover it, so the rows
//! of one cell share their covering facts. The covered rows get their
//! positions in cell order once: cells of two or more rows first, smallest
//! first, then the cells of one row (*lone* rows); every cell keeps its
//! rows in row order. The catalog keeps per covered row only its target at
//! its position and its cell, plus each cell's first position, so a row's
//! position is its cell's next one in row order and no position map is
//! stored. It shares the caller's row list rather than copying it. Each
//! group's facts come from partitioning the cells rather than the rows.
//! Where the group's code space — the product of its columns' dictionary
//! sizes — is no larger than the partition the cells come from, a cell's
//! mixed-radix code indexes an array of fact ids; larger spaces are
//! hashed. Each fact is indexed as the positions of its lone rows plus
//! contiguous position ranges (*runs*) for its larger cells; the
//! deviations `|fact.value − v_r|` of both, and for a prior shared by
//! every row the prior deviations `|prior − v_r|` too, are computed on the
//! fly from the cell-ordered targets. Gains, bounds, apply and revert
//! stream those positions — the direct-execution analogue of the paper's
//! fact/data joins and group-by queries. The cells come from
//! [`RowPartition`], the grouping pass the engine's query enumeration
//! shares: it groups the same cells on each predicate mask
//! ([`RowPartition::group_cells`]).

use std::sync::Arc;

use vqs_relalg::hash::FxHashMap;

use crate::error::{CoreError, Result};
use crate::instrument::Instrumentation;
use crate::model::fact::{Fact, FactId, Scope};
use crate::model::relation::{EncodedRelation, Prior};
use crate::model::utility::{self, ResidualState};

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
}

impl FactGroup {
    /// Fact ids of this group.
    pub fn fact_ids(&self) -> std::ops::Range<FactId> {
        self.fact_start..self.fact_start + self.fact_count
    }
}

/// The rows within one fact's scope, as positions in its catalog's cell
/// order (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct FactIndex<'a> {
    /// The fact's value.
    pub value: f64,
    /// Positions of the fact's lone rows, ascending (and so in row order).
    pub lone: &'a [u32],
    /// Half-open position ranges holding the fact's cells of two or more
    /// rows, ascending — and so shortest first, as smaller cells sit
    /// first; adjacent cells of the fact share one range.
    pub runs: &'a [(u32, u32)],
    /// The catalog's targets in cell order, from which every position's
    /// deviation is computed.
    pub targets: &'a [f64],
}

impl FactIndex<'_> {
    /// Assert that the index fits a residual state of `rows` positions:
    /// every position is in range of it and of the targets.
    ///
    /// # Panics
    /// Panics otherwise — an index paired with another catalog's state.
    pub(crate) fn check(&self, rows: usize) {
        let limit = rows.min(self.targets.len());
        let lone_max = self.lone.iter().fold(0, |max, &pos| max.max(pos));
        assert!(
            (self.lone.is_empty() || (lone_max as usize) < limit)
                && self
                    .runs
                    .iter()
                    .all(|&(start, end)| start <= end && end as usize <= limit),
            "fact index reaches past a state of {rows} rows"
        );
    }

    /// Number of rows within the fact's scope.
    pub fn len(&self) -> usize {
        self.lone.len()
            + self
                .runs
                .iter()
                .map(|&(start, end)| (end - start) as usize)
                .sum::<usize>()
    }

    /// True when the fact covers no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every position within the fact's scope: lone rows, then runs.
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.lone.iter().map(|&pos| pos as usize).chain(
            self.runs
                .iter()
                .flat_map(|&(start, end)| start as usize..end as usize),
        )
    }
}

/// The candidate facts for one summarization problem, with the
/// cell-ordered index the solvers run on.
#[derive(Debug, Clone)]
pub struct FactCatalog {
    groups: Vec<FactGroup>,
    /// Per group, where its facts' codes start in `scope_codes`.
    scope_starts: Vec<usize>,
    /// Each fact's scope codes, aligned with its group's `cols`, fact
    /// after fact in id order.
    scope_codes: Vec<u32>,
    /// Per fact, its value.
    values: Vec<f64>,
    /// Per fact, the number of rows within its scope.
    supports: Vec<u32>,
    /// Rows of the relation the catalog was built over.
    relation_rows: usize,
    /// The covered relation rows, in the order given (row order): the
    /// caller's list itself.
    rows: Arc<[u32]>,
    /// Per covered row, in the order given, its cell.
    cell_of: Vec<u32>,
    /// Per cell, its first cell-order position; its rows follow in the
    /// order given ([`row_positions`]).
    cell_start: Vec<u32>,
    /// Target of each cell-order position.
    targets: Vec<f64>,
    /// What the residuals start from before any fact is spoken.
    prior: PriorDeviations,
    /// `D(∅)` of the covered rows, summed in row order.
    base_error: f64,
    /// Per fact `f`, where its slices start in `lone` and in `runs`; they
    /// end where those of `f + 1` start.
    offsets: Vec<(u32, u32)>,
    lone: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

/// Each cell-order position's deviation from the prior, `|prior − v|`:
/// the residuals before any fact is spoken.
#[derive(Debug, Clone)]
enum PriorDeviations {
    /// A prior shared by every row: each deviation is computed from the
    /// position's target when asked for.
    Constant(f64),
    /// A per-row prior: the deviation of each position.
    PerPosition(Vec<f64>),
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
        let dims = checked_dims(relation, free_dims)?;
        let cells = RowPartition::new(relation, &dims);
        let rows: Arc<[u32]> = (0..relation.len() as u32).collect();
        Self::build_over(relation, &cells, rows, free_dims, min_dims, max_dims)
    }

    /// The catalog over the rows `rows` of `relation`, taken in the given
    /// order — the same facts, values and summaries as a catalog built over
    /// `relation.subset(rows)`, without copying the rows out. The catalog
    /// holds `rows` itself: an `Arc` is shared, not copied.
    ///
    /// `cells` partitions all of `relation` on a set of columns that
    /// includes every free dimension; the engine makes one per target over
    /// all configured dimensions and shares it across the target's queries.
    ///
    /// # Errors
    /// Besides invalid dimensions, cells or rows: a catalog whose lone or
    /// run entries would reach 2^32, which its `u32` offsets cannot
    /// address.
    pub fn build_over(
        relation: &EncodedRelation,
        cells: &RowPartition,
        rows: impl Into<Arc<[u32]>>,
        free_dims: &[usize],
        min_dims: usize,
        max_dims: usize,
    ) -> Result<FactCatalog> {
        let rows: Arc<[u32]> = rows.into();
        let dims = checked_dims(relation, free_dims)?;
        if cells.of_row.len() != relation.len() || !dims.iter().all(|d| cells.cols.contains(d)) {
            return Err(CoreError::InvalidProblem {
                detail: "cells must partition the relation on every free dimension".to_string(),
            });
        }
        if let Some(&row) = rows.iter().find(|&&row| row as usize >= relation.len()) {
            return Err(CoreError::LengthMismatch {
                detail: format!("row {row} out of range ({} rows)", relation.len()),
            });
        }
        let mut layout = CellLayout::new(relation, cells, &rows, &dims);
        let (cell_of, cell_start) = (
            std::mem::take(&mut layout.cell_of),
            std::mem::take(&mut layout.start),
        );
        let target = |row: u32| relation.target(row as usize);
        let mut targets = vec![0.0; rows.len()];
        for (&row, pos) in rows.iter().zip(row_positions(&cell_of, &cell_start)) {
            targets[pos] = target(row);
        }
        // Every sum runs over the rows in the order given, as over
        // `relation.subset(rows)`.
        let shared = |prior: f64| {
            let base_error = rows.iter().map(|&row| (prior - target(row)).abs()).sum();
            (PriorDeviations::Constant(prior), base_error)
        };
        let (prior, base_error) = match relation.prior() {
            Prior::Constant(c) => shared(*c),
            // The mean of the covered rows, as in `relation.subset(rows)`.
            Prior::GlobalMean => {
                shared(rows.iter().map(|&row| target(row)).sum::<f64>() / rows.len() as f64)
            }
            Prior::PerRow(p) => {
                let deviation = |row: u32| (p[row as usize] - target(row)).abs();
                let mut deviations = vec![0.0; rows.len()];
                for (&row, pos) in rows.iter().zip(row_positions(&cell_of, &cell_start)) {
                    deviations[pos] = deviation(row);
                }
                let base_error = rows.iter().map(|&row| deviation(row)).sum();
                (PriorDeviations::PerPosition(deviations), base_error)
            }
        };

        let subsets: Vec<Vec<usize>> = subsets_up_to(&dims, max_dims)
            .into_iter()
            .filter(|subset| subset.len() >= min_dims)
            .collect();
        // Every group holds each lone row once and each larger cell in at
        // most one run; the offsets must reach every lone entry.
        let lone_entries = layout.lone.len().saturating_mul(subsets.len());
        entry_offset(lone_entries)?;
        let mut catalog = FactCatalog {
            groups: Vec::new(),
            scope_starts: Vec::new(),
            scope_codes: Vec::new(),
            values: Vec::new(),
            supports: Vec::new(),
            relation_rows: relation.len(),
            rows,
            cell_of,
            cell_start,
            targets,
            prior,
            base_error,
            offsets: vec![(0, 0)],
            lone: vec![0; lone_entries],
            runs: Vec::with_capacity(layout.multi.len() * subsets.len()),
        };
        for subset in subsets {
            catalog.push_group(relation, &layout, subset)?;
        }
        if catalog.groups.is_empty() {
            return Err(CoreError::InvalidProblem {
                detail: format!(
                    "no fact groups: min_dims {min_dims} exceeds max_dims {max_dims} or free dims"
                ),
            });
        }
        Ok(catalog)
    }

    /// Append the group restricting `cols`: partition the cells, sum each
    /// fact's targets in row order (so every value is bit-identical to a
    /// direct scan of its scope), then index each fact's lone rows and runs.
    fn push_group(
        &mut self,
        relation: &EncodedRelation,
        layout: &CellLayout,
        cols: Vec<usize>,
    ) -> Result<()> {
        let fact_start = self.values.len();
        let columns: Vec<&[u32]> = cols.iter().map(|&d| layout.codes[d].as_slice()).collect();
        let sizes: Vec<usize> = cols.iter().map(|&d| layout.dictionary[d]).collect();
        let part = RowPartition::of_coded_columns(
            &columns,
            &sizes,
            layout.size.len(),
            layout.direct_limit,
        );

        let facts = part.len();
        let fact_of = |cell: u32| part.of_row[cell as usize] as usize;
        let mut sums = vec![0.0f64; facts];
        for (&cell, &row) in self.cell_of.iter().zip(self.rows.iter()) {
            sums[fact_of(cell)] += relation.target(row as usize);
        }
        let mut counts = vec![0u32; facts];
        for (cell, &size) in (0..).zip(&layout.size) {
            counts[fact_of(cell)] += size;
        }
        self.values.extend(
            sums.iter()
                .zip(&counts)
                .map(|(&sum, &count)| sum / f64::from(count)),
        );
        self.supports.extend_from_slice(&counts);
        self.scope_starts.push(self.scope_codes.len());
        self.scope_codes.reserve(facts * cols.len());
        for &cell in &part.first_row {
            self.scope_codes
                .extend(columns.iter().map(|codes| codes[cell as usize]));
        }

        // Count each fact's lone rows and runs, turn the counts into slots
        // after the slices already in the catalog, then place them. The
        // larger cells sit back to back in position order, so a cell
        // extends its fact's last run exactly when the cell before it
        // belongs to the same fact.
        let mut at = vec![(0u32, 0u32); facts];
        for &cell in &layout.lone {
            at[fact_of(cell)].0 += 1;
        }
        let mut prev = usize::MAX;
        for &(cell, _, _) in &layout.multi {
            let f = fact_of(cell);
            at[f].1 += u32::from(f != prev);
            prev = f;
        }
        let (mut lone, mut runs) = *self.offsets.last().expect("offsets start with (0, 0)");
        self.offsets.reserve(facts);
        for slot in &mut at {
            let end = (
                entry_offset(lone as usize + slot.0 as usize)?,
                entry_offset(runs as usize + slot.1 as usize)?,
            );
            (*slot, (lone, runs)) = ((lone, runs), end);
            self.offsets.push(end);
        }
        self.runs.resize(runs as usize, (0, 0));
        for (&cell, pos) in layout.lone.iter().zip(layout.lone_start..) {
            let slot = &mut at[fact_of(cell)].0;
            self.lone[*slot as usize] = pos;
            *slot += 1;
        }
        let mut prev = usize::MAX;
        for &(cell, start, end) in &layout.multi {
            let f = fact_of(cell);
            if f == prev {
                self.runs[at[f].1 as usize - 1].1 = end;
            } else {
                self.runs[at[f].1 as usize] = (start, end);
                at[f].1 += 1;
            }
            prev = f;
        }
        self.groups.push(FactGroup {
            mask: cols.iter().fold(0u32, |m, &d| m | (1 << d)),
            cols,
            fact_start,
            fact_count: facts,
        });
        Ok(())
    }

    /// All candidate facts in id order, each built as
    /// [`FactCatalog::fact`] builds it.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        (0..self.groups.len())
            .flat_map(move |g| self.groups[g].fact_ids().map(move |id| self.fact_in(g, id)))
    }

    /// Fact by id, with its scope built from the catalog's columns.
    pub fn fact(&self, id: FactId) -> Fact {
        self.fact_in(self.group_of(id), id)
    }

    /// Fact `id` of group `g`.
    fn fact_in(&self, g: usize, id: FactId) -> Fact {
        let group = &self.groups[g];
        let width = group.cols.len();
        let start = self.scope_starts[g] + (id - group.fact_start) * width;
        let codes = self.scope_codes[start..start + width].to_vec();
        let scope = Scope::from_columns(&group.cols, codes)
            .expect("groups restrict ascending dimensions below 32");
        Fact::new(scope, self.values[id], self.supports[id] as usize)
    }

    /// Number of candidate facts (`k = |F|` in §VII).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no facts were enumerated (empty relation).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The fact groups, ordered by subset enumeration (empty scope first,
    /// then single dimensions, then pairs, ...).
    pub fn groups(&self) -> &[FactGroup] {
        &self.groups
    }

    /// Number of rows the catalog covers.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of rows of the relation the catalog was built over.
    pub fn relation_rows(&self) -> usize {
        self.relation_rows
    }

    /// The covered relation rows in the order given at build time.
    pub fn selection(&self) -> &[u32] {
        &self.rows
    }

    /// The covered relation rows in cell order: position `p` of
    /// [`FactCatalog::residual_state`] holds row `cell_order().nth(p)`.
    /// The catalog keeps no position map: this lays the rows out anew.
    pub fn cell_order(&self) -> impl Iterator<Item = usize> {
        let mut order = vec![0; self.rows.len()];
        for (&row, pos) in self
            .rows
            .iter()
            .zip(row_positions(&self.cell_of, &self.cell_start))
        {
            order[pos] = row as usize;
        }
        order.into_iter()
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

    /// The rows within the scope of `fact`, as cell-order positions.
    #[inline]
    pub fn fact_index(&self, fact: FactId) -> FactIndex<'_> {
        self.indexes(fact..fact + 1)
            .next()
            .expect("one fact, one index")
    }

    /// The indexes of the facts `ids`, in order.
    fn indexes(&self, ids: std::ops::Range<FactId>) -> impl Iterator<Item = FactIndex<'_>> {
        let offsets = self.offsets[ids.start..=ids.end].windows(2);
        offsets.zip(&self.values[ids]).map(|(ends, &value)| {
            let ((lone, runs), (lone_end, runs_end)) = (ends[0], ends[1]);
            FactIndex {
                value,
                lone: &self.lone[lone as usize..lone_end as usize],
                runs: &self.runs[runs as usize..runs_end as usize],
                targets: &self.targets,
            }
        })
    }

    /// The relation rows within the scope of `fact`, ascending, recovered
    /// from the index and [`FactCatalog::cell_order`].
    pub fn covered_rows(&self, fact: FactId) -> Vec<usize> {
        let order: Vec<usize> = self.cell_order().collect();
        let mut rows: Vec<usize> = self
            .fact_index(fact)
            .positions()
            .map(|pos| order[pos])
            .collect();
        rows.sort_unstable();
        rows
    }

    /// The residuals before any fact is spoken: each covered row's prior
    /// deviation, in cell order, with the row-order total `D(∅)`.
    pub fn residual_state(&self) -> ResidualState {
        ResidualState::from_parts(self.prior_deviations(), self.base_error)
    }

    /// Each cell-order position's prior deviation `|prior − v|`.
    fn prior_deviations(&self) -> Vec<f64> {
        match &self.prior {
            PriorDeviations::Constant(prior) => {
                self.targets.iter().map(|&v| (prior - v).abs()).collect()
            }
            PriorDeviations::PerPosition(deviations) => deviations.clone(),
        }
    }

    /// `D(∅)` of the covered rows, summed in row order.
    pub fn base_error(&self) -> f64 {
        self.base_error
    }

    /// `D(F)` of the facts `ids` over the covered rows, from first
    /// principles rather than a solver's running total: each row deviates
    /// by the least of `|prior − v|` and `|fact.value − v|` over the facts
    /// covering it (a minimum, so the facts' order does not matter), and
    /// the deviations are summed in row order, as [`utility::speech_error`]
    /// sums them, by walking each row's cell to its next position.
    pub fn speech_error(&self, ids: &[FactId]) -> f64 {
        let mut deviation = self.prior_deviations();
        for &id in ids {
            let index = self.fact_index(id);
            for pos in index.positions() {
                deviation[pos] = deviation[pos].min((index.value - self.targets[pos]).abs());
            }
        }
        row_positions(&self.cell_of, &self.cell_start)
            .fold(0.0, |total, pos| total + deviation[pos])
    }

    /// Utility gains of every fact in `group` against the current
    /// residuals, in one pass over the covered rows (the direct analogue of
    /// the fact/data join plus grouped sum in Algorithm 2 Line 7).
    pub fn group_gains(
        &self,
        residual: &ResidualState,
        group: usize,
        counters: &mut Instrumentation,
    ) -> Vec<f64> {
        let mut gains = Vec::new();
        self.group_gains_into(residual, group, counters, &mut gains);
        gains
    }

    /// [`FactCatalog::group_gains`] into a caller-owned buffer, for sweeps
    /// that evaluate many groups per iteration (the greedy inner loop):
    /// the buffer is cleared and refilled, so one allocation serves the
    /// whole sweep instead of one per group.
    pub fn group_gains_into(
        &self,
        residual: &ResidualState,
        group: usize,
        counters: &mut Instrumentation,
        gains: &mut Vec<f64>,
    ) {
        let residuals = self.residuals_of(residual);
        gains.clear();
        gains.extend(self.indexes(self.groups[group].fact_ids()).map(|index| {
            // SAFETY: `residuals_of` matched the state to this catalog,
            // whose indexes hold its own positions only.
            unsafe { utility::index_gain(residuals, index) }
        }));
        counters.gain_passes += 1;
        counters.gain_row_touches += self.rows.len() as u64;
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
        let residuals = self.residuals_of(residual);
        let bounds = self
            .indexes(self.groups[group].fact_ids())
            // SAFETY: as in `group_gains_into`.
            .map(|index| unsafe { utility::index_bound(residuals, index) })
            .collect();
        counters.bound_passes += 1;
        counters.bound_row_touches += self.rows.len() as u64;
        bounds
    }

    /// The residuals of `residual`, asserted to be a state of this
    /// catalog: one per position. Group sweeps check this once instead of
    /// checking every fact's index (groups hold thousands of facts of a
    /// few rows each, where per-fact overhead shows).
    fn residuals_of<'s>(&self, residual: &'s ResidualState) -> &'s [f64] {
        let residuals = residual.residuals();
        assert_eq!(
            residuals.len(),
            self.targets.len(),
            "state of another catalog"
        );
        residuals
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

    /// Single-fact utilities of every fact (used by the exact algorithm to
    /// order facts and bound expansions).
    pub fn single_fact_utilities(&self, counters: &mut Instrumentation) -> Vec<f64> {
        let base = self.residual_state();
        let mut utilities = Vec::with_capacity(self.len());
        let mut gains = Vec::new();
        for g in 0..self.groups.len() {
            self.group_gains_into(&base, g, counters, &mut gains);
            utilities.extend_from_slice(&gains);
        }
        utilities
    }
}

/// The free dimensions, validated, sorted and deduplicated.
fn checked_dims(relation: &EncodedRelation, free_dims: &[usize]) -> Result<Vec<usize>> {
    if let Some(&dim) = free_dims.iter().find(|&&d| d >= relation.dim_count()) {
        return Err(CoreError::DimensionOutOfRange {
            dim,
            dims: relation.dim_count(),
        });
    }
    if free_dims.len() > 32 {
        return Err(CoreError::InvalidProblem {
            detail: format!(
                "at most 32 free dimensions supported, got {}",
                free_dims.len()
            ),
        });
    }
    // A scope's mask has one bit per dimension.
    if let Some(&dim) = free_dims.iter().find(|&&d| d >= 32) {
        return Err(CoreError::DimensionOutOfRange { dim, dims: 32 });
    }
    let mut dims = free_dims.to_vec();
    dims.sort_unstable();
    dims.dedup();
    Ok(dims)
}

/// `entries` as an offset into a catalog's lone or run entries, or an
/// error once a catalog would hold 2^32 of either, which `u32` offsets
/// cannot address.
fn entry_offset(entries: usize) -> Result<u32> {
    u32::try_from(entries).map_err(|_| CoreError::InvalidProblem {
        detail: format!("{entries} index entries: a fact catalog addresses fewer than 2^32"),
    })
}

/// Each covered row's cell-order position, in the order the rows were
/// given: a cell holds its rows in that order from its first position on,
/// so each row takes its cell's next position.
fn row_positions<'a>(cell_of: &'a [u32], cell_start: &[u32]) -> impl Iterator<Item = usize> + 'a {
    let mut next = cell_start.to_vec();
    cell_of.iter().map(move |&cell| {
        let pos = next[cell as usize];
        next[cell as usize] = pos + 1;
        pos as usize
    })
}

thread_local! {
    /// Working space for [`CellLayout::new`]: per cell of the given partition,
    /// the catalog cell it last became. Never cleared — an entry counts
    /// only when the catalog cell it names stands for the same cell.
    static LOCAL_CELL: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Working space for [`RowPartition::of_small_columns`]: per
    /// mixed-radix code, the id it last got. Never cleared — an entry
    /// counts only when the id it names was given to the same code.
    static LOCAL_ID: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The covered rows grouped by cell and laid out in cell order.
struct CellLayout {
    /// Per covered row (in the order given), its cell. Cells are numbered
    /// in order of first appearance.
    cell_of: Vec<u32>,
    /// Per free dimension, each cell's code; empty for the other columns.
    codes: Vec<Vec<u32>>,
    /// Per dimension, its dictionary size: every code lies below it.
    dictionary: Vec<usize>,
    /// The largest code space a group numbers its facts in directly: the
    /// number of cells of the partition the layout came from.
    direct_limit: usize,
    /// Per cell, its number of rows.
    size: Vec<u32>,
    /// The cells of two or more rows in position order, with the half-open
    /// position range each occupies.
    multi: Vec<(u32, u32, u32)>,
    /// The cells of one row in position order, from `lone_start` on.
    lone: Vec<u32>,
    lone_start: u32,
    /// Per cell, its first position.
    start: Vec<u32>,
}

impl CellLayout {
    fn new(
        relation: &EncodedRelation,
        cells: &RowPartition,
        rows: &[u32],
        dims: &[usize],
    ) -> CellLayout {
        let mut cell_of = Vec::with_capacity(rows.len());
        let mut first_row = Vec::new();
        let mut size: Vec<u32> = Vec::new();
        // Per cell, the partition's cell it stands for.
        let mut outer: Vec<u32> = Vec::new();
        LOCAL_CELL.with_borrow_mut(|local| {
            if local.len() < cells.len() {
                local.resize(cells.len(), 0);
            }
            for &row in rows {
                let of = cells.of_row[row as usize];
                let mut cell = local[of as usize];
                if outer.get(cell as usize) != Some(&of) {
                    cell = outer.len() as u32;
                    local[of as usize] = cell;
                    outer.push(of);
                    first_row.push(row);
                    size.push(0);
                }
                size[cell as usize] += 1;
                cell_of.push(cell);
            }
        });
        // The larger cells go smallest first: each fact's runs then come
        // shortest first, so run loops see trip counts that repeat from
        // run to run and their branches stay predictable where cells hold
        // two or three rows.
        let mut by_size: Vec<u32> = (0..size.len() as u32)
            .filter(|&cell| size[cell as usize] > 1)
            .collect();
        by_size.sort_unstable_by_key(|&cell| (size[cell as usize], cell));
        let mut start = vec![0u32; size.len()];
        let mut multi = Vec::with_capacity(by_size.len());
        let mut next = 0u32;
        for cell in by_size {
            let rows = size[cell as usize];
            multi.push((cell, next, next + rows));
            start[cell as usize] = next;
            next += rows;
        }
        let lone: Vec<u32> = (0..size.len() as u32)
            .filter(|&cell| size[cell as usize] == 1)
            .collect();
        for (&cell, pos) in lone.iter().zip(next..) {
            start[cell as usize] = pos;
        }
        // Each group partitions the cells on these compact columns instead
        // of reading the relation's columns at scattered rows.
        let mut codes = vec![Vec::new(); relation.dim_count()];
        for &d in dims {
            let column = relation.codes(d);
            codes[d] = first_row.iter().map(|&row| column[row as usize]).collect();
        }
        CellLayout {
            cell_of,
            codes,
            dictionary: relation.dims().iter().map(|d| d.cardinality()).collect(),
            direct_limit: cells.len(),
            size,
            multi,
            lone,
            lone_start: next,
            start,
        }
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
    /// The columns partitioned on.
    cols: Vec<usize>,
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
        RowPartition {
            cols: cols.to_vec(),
            ..Self::of_columns(&columns, relation.len())
        }
    }

    /// Group this partition's combinations — its cells — by their codes on
    /// `cols`, some of the columns partitioned on: per cell, in `of_row`,
    /// the id of its combination on `cols`, and per such combination, in
    /// `first_row`, its first cell. Cells are numbered in order of first
    /// appearance, so every row of cell `c` gets the id
    /// [`RowPartition::new`]`(relation, cols)` gives it, `of_row[c]`, while
    /// the hashing runs once per cell instead of once per row.
    ///
    /// # Panics
    /// Panics unless every column of `cols` is partitioned on here.
    pub fn group_cells(&self, relation: &EncodedRelation, cols: &[usize]) -> RowPartition {
        assert!(
            cols.iter().all(|d| self.cols.contains(d)),
            "cells group only on columns they are partitioned on"
        );
        let columns: Vec<Vec<u32>> = cols
            .iter()
            .map(|&d| {
                let codes = relation.codes(d);
                self.first_row
                    .iter()
                    .map(|&row| codes[row as usize])
                    .collect()
            })
            .collect();
        let columns: Vec<&[u32]> = columns.iter().map(Vec::as_slice).collect();
        Self::of_columns(&columns, self.len())
    }

    /// Partition the positions `0..len` by their codes in `columns`.
    fn of_columns(columns: &[&[u32]], len: usize) -> RowPartition {
        // One map per fold of a wide tuple, then one for the whole tuple.
        let mut maps: Vec<FxHashMap<u64, u32>> =
            vec![FxHashMap::default(); columns.len().saturating_sub(1).max(1)];
        let (folds, whole) = maps.split_at_mut(columns.len().saturating_sub(2));
        let whole = &mut whole[0];
        let mut of_row = Vec::with_capacity(len);
        let mut first_row = Vec::new();
        for row in 0..len {
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
        RowPartition {
            of_row,
            first_row,
            cols: Vec::new(),
        }
    }

    /// [`RowPartition::of_columns`] for columns whose codes lie below
    /// `sizes`: hash-free ([`RowPartition::of_small_columns`]) when the
    /// product of `sizes` is at most `limit`, hashed otherwise.
    fn of_coded_columns(
        columns: &[&[u32]],
        sizes: &[usize],
        len: usize,
        limit: usize,
    ) -> RowPartition {
        let space = sizes
            .iter()
            .try_fold(1usize, |space, &size| space.checked_mul(size));
        match space {
            Some(space) if space <= limit.min(u32::MAX as usize) => {
                Self::of_small_columns(columns, sizes, space, len)
            }
            _ => Self::of_columns(columns, len),
        }
    }

    /// [`RowPartition::of_columns`] without hashing, for columns whose
    /// codes lie below `sizes`, whose product `space` fits a `u32`: each
    /// position's mixed-radix code indexes a thread-local array of
    /// first-appearance ids. The codes are summed column by column into
    /// `of_row`, which the ids then overwrite.
    fn of_small_columns(
        columns: &[&[u32]],
        sizes: &[usize],
        space: usize,
        len: usize,
    ) -> RowPartition {
        let mut of_row = vec![0u32; len];
        let mut stride = 1usize;
        for (codes, &size) in columns.iter().zip(sizes) {
            for (code, &c) in of_row.iter_mut().zip(&codes[..len]) {
                *code += c * stride as u32;
            }
            stride *= size;
        }
        let distinct = len.min(space);
        let mut first_row = Vec::with_capacity(distinct);
        // Per id, its code: the stamp an entry of `LOCAL_ID` is checked by.
        let mut code_of: Vec<u32> = Vec::with_capacity(distinct);
        LOCAL_ID.with_borrow_mut(|local| {
            if local.len() < space {
                local.resize(space, 0);
            }
            for (row, slot) in (0..).zip(&mut of_row) {
                let code = *slot;
                let id = local[code as usize];
                *slot = if code_of.get(id as usize) == Some(&code) {
                    id
                } else {
                    let id = code_of.len() as u32;
                    local[code as usize] = id;
                    code_of.push(code);
                    first_row.push(row);
                    id
                };
            }
        });
        RowPartition {
            of_row,
            first_row,
            cols: Vec::new(),
        }
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    /// Eight rows in three cells on (region, season): two cells of three
    /// rows, interleaved in row order, and one of two.
    fn clustered() -> EncodedRelation {
        let cells = [("East", "Winter"), ("South", "Summer"), ("East", "Summer")];
        let layout = [0, 1, 0, 2, 1, 0, 2, 1];
        let rows = layout
            .iter()
            .enumerate()
            .map(|(i, &c)| (vec![cells[c].0, cells[c].1], (i * 7 % 5) as f64 + 0.25));
        EncodedRelation::from_rows(&["region", "season"], "delay", rows, Prior::GlobalMean).unwrap()
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

    /// Each group's facts partition the rows, and every fact covers
    /// exactly the rows its scope matches.
    #[test]
    fn row_partition_is_consistent() {
        for r in [relation(), clustered()] {
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            for group in catalog.groups() {
                let mut covered: Vec<usize> = group
                    .fact_ids()
                    .flat_map(|id| catalog.covered_rows(id))
                    .collect();
                covered.sort_unstable();
                assert_eq!(covered, (0..r.len()).collect::<Vec<_>>());
                for id in group.fact_ids() {
                    for row in catalog.covered_rows(id) {
                        assert!(catalog.fact(id).scope.matches_row(&r, row));
                    }
                }
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
        let state = catalog.residual_state();
        let scan = ResidualState::new(&r);
        let mut counters = Instrumentation::default();
        for (g, group) in catalog.groups().iter().enumerate() {
            let gains = catalog.group_gains(&state, g, &mut counters);
            for (offset, gain) in gains.iter().enumerate() {
                let fact = catalog.fact(group.fact_start + offset);
                let direct = scan.gain_of(&r, &fact);
                assert!((gain - direct).abs() < 1e-12, "group {g} fact {offset}");
            }
        }
        assert!(counters.gain_passes >= 4);
        assert_eq!(counters.gain_row_touches, 16);
    }

    #[test]
    fn single_fact_utilities_match_utility_fn() {
        for r in [relation(), clustered()] {
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let mut counters = Instrumentation::default();
            let utilities = catalog.single_fact_utilities(&mut counters);
            for (id, fact) in catalog.facts().enumerate() {
                let direct = utility::utility(&r, std::slice::from_ref(&fact));
                assert!((utilities[id] - direct).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bounds_dominate_gains() {
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let state = catalog.residual_state();
        let mut counters = Instrumentation::default();
        for g in 0..catalog.groups().len() {
            let bound = catalog.group_bound(&state, g, &mut counters);
            let gains = catalog.group_gains(&state, g, &mut counters);
            for gain in gains {
                assert!(bound >= gain - 1e-12);
            }
        }
        assert_eq!(counters.bound_passes, 4);
    }

    /// Every fact's index — lone rows and runs over the cell-ordered
    /// targets — covers exactly its scope.
    #[test]
    fn inverted_index_matches_scope_matching() {
        for r in [relation(), clustered()] {
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let targets: Vec<f64> = catalog.cell_order().map(|row| r.target(row)).collect();
            let mut entries = 0;
            for (id, fact) in catalog.facts().enumerate() {
                let expected: Vec<usize> = (0..r.len())
                    .filter(|&row| fact.scope.matches_row(&r, row))
                    .collect();
                assert_eq!(catalog.covered_rows(id), expected, "fact {id}");
                let index = catalog.fact_index(id);
                assert_eq!(index.targets, targets.as_slice());
                assert_eq!(index.value, fact.value);
                assert!(index.runs.iter().all(|&(start, end)| end - start >= 2));
                entries += index.positions().count();
                assert_eq!(index.positions().count(), fact.support);
            }
            assert_eq!(entries, r.len() * catalog.groups().len());
        }
    }

    /// Cells of several rows become runs, smallest cell first, interleaved
    /// cells come out contiguous, and the overall fact's adjacent cells
    /// share one run.
    #[test]
    fn cells_lay_out_runs_and_lone_rows() {
        let r = clustered();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let order: Vec<usize> = catalog.cell_order().collect();
        assert_eq!(order, vec![3, 6, 0, 2, 5, 1, 4, 7]);
        assert_eq!(catalog.fact_index(0).runs, &[(0, 8)]);
        assert!(catalog.fact_index(0).lone.is_empty());
        let single = catalog.groups().last().unwrap();
        for id in single.fact_ids() {
            assert_eq!(catalog.fact_index(id).runs.len(), 1);
        }
        // Four rows in four cells: every row is lone.
        let r = relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        assert_eq!(catalog.fact_index(0).lone, &[0, 1, 2, 3]);
        assert!((0..catalog.len()).all(|id| catalog.fact_index(id).runs.is_empty()));
    }

    #[test]
    fn indexed_gain_matches_scan_gain() {
        for r in [relation(), clustered()] {
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let state = catalog.residual_state();
            let scan = ResidualState::new(&r);
            for (id, fact) in catalog.facts().enumerate() {
                let indexed = state.gain_indexed(catalog.fact_index(id));
                assert_eq!(indexed, scan.gain_of(&r, &fact), "fact {id}");
            }
        }
    }

    /// A catalog over some rows of a relation equals the catalog built over
    /// those rows copied out, down to the bits of its values and base error.
    #[test]
    fn selection_matches_subset_catalog() {
        let r = clustered();
        let cells = RowPartition::new(&r, &[0, 1]);
        let rows = [1u32, 2, 4, 5, 6, 7];
        let selected = FactCatalog::build_over(&r, &cells, &rows[..], &[0, 1], 0, 2).unwrap();
        let subset = r.subset(&rows).unwrap();
        let copied = FactCatalog::build(&subset, &[0, 1], 2).unwrap();
        assert_eq!(
            selected.facts().collect::<Vec<_>>(),
            copied.facts().collect::<Vec<_>>()
        );
        assert_eq!(selected.rows(), rows.len());
        assert_eq!(selected.relation_rows(), r.len());
        assert_eq!(
            selected.base_error().to_bits(),
            copied.base_error().to_bits()
        );
        assert_eq!(
            selected.base_error().to_bits(),
            utility::base_error(&subset).to_bits()
        );
        for ids in [vec![], vec![1, 2], vec![0, 3, 4]] {
            let facts: Vec<Fact> = ids.iter().map(|&id| copied.fact(id)).collect();
            assert_eq!(
                selected.speech_error(&ids).to_bits(),
                utility::speech_error(&subset, &facts).to_bits()
            );
        }
        for id in 0..selected.len() {
            let mapped: Vec<usize> = copied
                .covered_rows(id)
                .iter()
                .map(|&i| rows[i] as usize)
                .collect();
            assert_eq!(selected.covered_rows(id), mapped, "fact {id}");
        }
        // Cells must cover every free dimension, and rows must exist.
        let coarse = RowPartition::new(&r, &[0]);
        assert!(FactCatalog::build_over(&r, &coarse, &rows[..], &[0, 1], 0, 2).is_err());
        assert!(FactCatalog::build_over(&r, &cells, [8], &[0, 1], 0, 2).is_err());
    }

    /// Grouping the cells on some of their columns gives every row the
    /// combination id a partition of the rows on those columns gives it.
    #[test]
    fn grouped_cells_match_the_row_partition() {
        for r in [relation(), clustered()] {
            let cells = RowPartition::new(&r, &[0, 1]);
            for cols in [vec![], vec![0], vec![1], vec![0, 1]] {
                let grouped = cells.group_cells(&r, &cols);
                let direct = RowPartition::new(&r, &cols);
                let via_cells: Vec<u32> = cells
                    .of_row
                    .iter()
                    .map(|&cell| grouped.of_row[cell as usize])
                    .collect();
                assert_eq!(via_cells, direct.of_row, "{cols:?}");
                let first: Vec<u32> = grouped
                    .first_row
                    .iter()
                    .map(|&cell| cells.first_row[cell as usize])
                    .collect();
                assert_eq!(first, direct.first_row, "{cols:?}");
            }
        }
    }

    proptest! {
        // The hash-free numbering gives every position the id, and every id
        // the first position, that the hashed partition gives — with the
        // thread-local array holding whatever earlier cases left in it —
        // and the dispatch agrees on code spaces both within and past its
        // limit.
        #[test]
        fn direct_numbering_matches_hashed_partition(
            sizes in prop::collection::vec(1usize..9, 0..4),
            draws in prop::collection::vec(prop::collection::vec(0u32..64, 3), 0..60),
        ) {
            let columns: Vec<Vec<u32>> = (0..)
                .zip(&sizes)
                .map(|(i, &size)| draws.iter().map(|draw| draw[i] % size as u32).collect())
                .collect();
            let columns: Vec<&[u32]> = columns.iter().map(Vec::as_slice).collect();
            let len = draws.len();
            let hashed = RowPartition::of_columns(&columns, len);
            let space = sizes.iter().product();
            let direct = RowPartition::of_small_columns(&columns, &sizes, space, len);
            prop_assert_eq!(&direct.of_row, &hashed.of_row);
            prop_assert_eq!(&direct.first_row, &hashed.first_row);
            let chosen = RowPartition::of_coded_columns(&columns, &sizes, len, len);
            prop_assert_eq!(&chosen.of_row, &hashed.of_row);
            prop_assert_eq!(&chosen.first_row, &hashed.first_row);
        }
    }

    /// Offsets address fewer than 2^32 entries; one more is an error, not
    /// a wrapped offset.
    #[test]
    fn entry_offsets_stop_short_of_two_to_the_32() {
        assert_eq!(entry_offset(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(entry_offset(u32::MAX as usize + 1).is_err());
    }

    #[test]
    fn free_dims_exclude_fixed_columns() {
        let r = relation();
        // Only season free: no region-restricted facts.
        let catalog = FactCatalog::build(&r, &[1], 2).unwrap();
        assert_eq!(catalog.groups().len(), 2);
        assert!(catalog.facts().all(|f| !f.scope.restricts(0)));
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
