//! Deviation, error and utility (Definitions 5 and 6), plus the
//! incremental residual state used by the algorithms.

use crate::enumeration::FactIndex;
use crate::model::expectation::ExpectationModel;
use crate::model::fact::Fact;
use crate::model::relation::EncodedRelation;

/// Accumulated deviation `D(∅)` between the prior and the data — the error
/// before any fact is spoken.
pub fn base_error(relation: &EncodedRelation) -> f64 {
    let priors = relation.prior_values();
    relation
        .targets()
        .iter()
        .zip(&priors)
        .map(|(&v, &p)| (p - v).abs())
        .sum()
}

/// Accumulated deviation `D(F)` of a speech under the paper's
/// closest-relevant-value expectation model (Definition 5).
pub fn speech_error(relation: &EncodedRelation, facts: &[Fact]) -> f64 {
    let priors = relation.prior_values();
    let mut total = 0.0;
    for (row, &prior) in priors.iter().enumerate() {
        let actual = relation.target(row);
        let mut dev = (prior - actual).abs();
        for fact in facts {
            if fact.scope.matches_row(relation, row) {
                dev = dev.min((fact.value - actual).abs());
            }
        }
        total += dev;
    }
    total
}

/// Accumulated deviation of a speech under an arbitrary expectation model
/// (used to reproduce Fig. 7).
pub fn speech_error_under(
    relation: &EncodedRelation,
    facts: &[Fact],
    model: ExpectationModel,
) -> f64 {
    let priors = relation.prior_values();
    let mut total = 0.0;
    for (row, &prior) in priors.iter().enumerate() {
        let actual = relation.target(row);
        let expected = model.expected_value(relation, row, facts, prior, actual);
        total += (expected - actual).abs();
    }
    total
}

/// Utility `U(F) = D(∅) − D(F)` (Definition 6).
pub fn utility(relation: &EncodedRelation, facts: &[Fact]) -> f64 {
    base_error(relation) - speech_error(relation, facts)
}

/// Per-row residual deviations, maintained incrementally while a speech is
/// being built.
///
/// `residual[p]` is the deviation of the row at position `p` under the
/// facts applied so far (starting from the prior): row `p` of a relation
/// for [`ResidualState::new`], a cell-order position for
/// [`crate::enumeration::FactCatalog::residual_state`]. The greedy algorithm's Line 11
/// ("recalculate user expectation") is [`ResidualState::apply_fact`]; its
/// Line 7 utility computation is [`ResidualState::gain_of`].
#[derive(Debug, Clone)]
pub struct ResidualState {
    residual: Vec<f64>,
    total: f64,
}

impl ResidualState {
    /// Initialize from the relation's prior.
    pub fn new(relation: &EncodedRelation) -> Self {
        let priors = relation.prior_values();
        let residual: Vec<f64> = relation
            .targets()
            .iter()
            .zip(&priors)
            .map(|(&v, &p)| (p - v).abs())
            .collect();
        let total = residual.iter().sum();
        ResidualState { residual, total }
    }

    /// A state from per-row residuals and their total `D(F)`.
    pub(crate) fn from_parts(residual: Vec<f64>, total: f64) -> Self {
        ResidualState { residual, total }
    }

    /// Current residual of one row.
    #[inline]
    pub fn residual(&self, row: usize) -> f64 {
        self.residual[row]
    }

    /// All residuals.
    pub fn residuals(&self) -> &[f64] {
        &self.residual
    }

    /// Current accumulated deviation `D(F)`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Utility gain of adding `fact` to the current speech, without
    /// modifying state: `Σ_r max(0, residual_r − |fact.value − v_r|)` over
    /// the rows within scope.
    pub fn gain_of(&self, relation: &EncodedRelation, fact: &Fact) -> f64 {
        let mut gain = 0.0;
        for row in 0..relation.len() {
            if fact.scope.matches_row(relation, row) {
                let dev = (fact.value - relation.target(row)).abs();
                let improvement = self.residual[row] - dev;
                if improvement > 0.0 {
                    gain += improvement;
                }
            }
        }
        gain
    }

    /// Apply `fact`: residuals of covered rows drop to
    /// `min(residual, |fact.value − v_r|)`. Returns the realized gain and
    /// an undo log of `(row, previous residual)` entries for backtracking
    /// search.
    pub fn apply_fact(
        &mut self,
        relation: &EncodedRelation,
        fact: &Fact,
    ) -> (f64, Vec<(usize, f64)>) {
        let mut gain = 0.0;
        let mut undo = Vec::new();
        for row in 0..relation.len() {
            if fact.scope.matches_row(relation, row) {
                let dev = (fact.value - relation.target(row)).abs();
                if dev < self.residual[row] {
                    undo.push((row, self.residual[row]));
                    gain += self.residual[row] - dev;
                    self.residual[row] = dev;
                }
            }
        }
        self.total -= gain;
        (gain, undo)
    }

    /// Reverse a previous [`ResidualState::apply_fact`].
    pub fn revert(&mut self, undo: &[(usize, f64)]) {
        for &(row, previous) in undo {
            self.total += previous - self.residual[row];
            self.residual[row] = previous;
        }
    }

    /// Indexed variant of [`ResidualState::gain_of`] over a catalog's
    /// residuals: only the rows within the fact's scope are touched, with
    /// no per-row scope decoding. Lone rows are gathered and runs stream
    /// residuals and targets side by side; every deviation
    /// `|fact.value − v_r|` comes from the cell-ordered targets.
    ///
    /// The sweeps keep several independent accumulators and a branchless
    /// `max(0.0)` clamp instead of one chain of conditional adds. That
    /// reorders the floating-point summation, so the result can differ from
    /// a sequential sum by rounding (≤ 1e-9 relative in the differential
    /// tests) — acceptable for gain *estimates*. State-mutating code
    /// ([`ResidualState::apply_indexed`]) stays sequential, so search
    /// determinism is unaffected.
    ///
    /// # Panics
    /// Panics if `index` reaches past this state — an index of another
    /// catalog than the one this state came from.
    pub fn gain_indexed(&self, index: FactIndex<'_>) -> f64 {
        index.check(self.residual.len());
        // SAFETY: checked just above.
        unsafe { index_gain(&self.residual, index) }
    }

    /// Indexed variant of [`ResidualState::apply_fact`] for backtracking
    /// search: touches only the in-scope rows, lone rows first, and
    /// records the undo information in `arena` (one frame per call)
    /// instead of allocating a fresh undo vector. Returns the realized
    /// gain. Revert with [`ResidualState::revert_frame`]; a search that
    /// never reverts applies through [`ResidualState::commit_indexed`].
    pub fn apply_indexed(&mut self, index: FactIndex<'_>, arena: &mut UndoArena) -> f64 {
        let frame = UndoFrame {
            mark: arena.entries.len(),
            total_before: self.total,
        };
        let gain = self.lower(index, |pos, current| {
            arena.entries.push((pos as u32, current))
        });
        arena.frames.push(frame);
        gain
    }

    /// [`ResidualState::apply_indexed`] for good, recording nothing: the
    /// same residuals, gain and total, for the greedy, which never
    /// backtracks.
    pub fn commit_indexed(&mut self, index: FactIndex<'_>) -> f64 {
        self.lower(index, |_, _| {})
    }

    /// Lower the residuals within the scope of `index` to the fact's
    /// deviations where those are smaller, handing `record` each lowered
    /// position with its residual before; returns the realized gain.
    fn lower(&mut self, index: FactIndex<'_>, mut record: impl FnMut(usize, f64)) -> f64 {
        let mut gain = 0.0;
        let mut lower = |pos: usize, dev: f64| {
            let current = self.residual[pos];
            if dev < current {
                record(pos, current);
                gain += current - dev;
                self.residual[pos] = dev;
            }
        };
        for &pos in index.lone {
            let pos = pos as usize;
            lower(pos, (index.value - index.targets[pos]).abs());
        }
        for &(start, end) in index.runs {
            for pos in start as usize..end as usize {
                lower(pos, (index.value - index.targets[pos]).abs());
            }
        }
        self.total -= gain;
        gain
    }

    /// Reverse the most recent un-reverted [`ResidualState::apply_indexed`].
    ///
    /// Restores the saved per-row residuals (newest first) and resets the
    /// running total to its snapshot, so a revert is *bit-exact*: the
    /// state after any apply/revert sequence depends only on the facts
    /// currently applied, never on abandoned search branches, so a
    /// node's utility does not depend on the branches searched before
    /// it.
    ///
    /// # Panics
    /// Panics if `arena` holds no open frame (more reverts than applies).
    pub fn revert_frame(&mut self, arena: &mut UndoArena) {
        let frame = arena.frames.pop().expect("revert_frame without open frame");
        for &(row, previous) in arena.entries[frame.mark..].iter().rev() {
            self.residual[row as usize] = previous;
        }
        arena.entries.truncate(frame.mark);
        self.total = frame.total_before;
    }
}

/// Utility gain of one fact over `residual`.
///
/// # Safety
/// `index` must pass `FactIndex::check` against `residual.len()`.
#[inline]
pub(crate) unsafe fn index_gain(residual: &[f64], index: FactIndex<'_>) -> f64 {
    // SAFETY: `check` bounds every position by `residual.len()` and by
    // `index.targets.len()`.
    let r = |pos: usize| unsafe { *residual.get_unchecked(pos) };
    let target = |pos: usize| unsafe { *index.targets.get_unchecked(pos) };
    let gain = |pos: usize| (r(pos) - (index.value - target(pos)).abs()).max(0.0);
    gather_sum(index.lone, gain) + runs_sum(index.runs, gain)
}

/// The summed residuals within one fact's scope (its gain bound).
///
/// # Safety
/// As for [`index_gain`].
#[inline]
pub(crate) unsafe fn index_bound(residual: &[f64], index: FactIndex<'_>) -> f64 {
    // SAFETY: as in `index_gain`.
    let r = |pos: usize| unsafe { *residual.get_unchecked(pos) };
    gather_sum(index.lone, r) + runs_sum(index.runs, r)
}

/// `Σ term(pos)` over `positions`, four accumulators wide so the sum does
/// not serialize on one chain of adds (`max(0.0)`-clamped terms are finite
/// and non-negative, so the reassociation only moves rounding).
#[inline]
fn gather_sum(positions: &[u32], term: impl Fn(usize) -> f64) -> f64 {
    let n = positions.len();
    let at = |k: usize| term(positions[k] as usize);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0;
    while k + 4 <= n {
        a0 += at(k);
        a1 += at(k + 1);
        a2 += at(k + 2);
        a3 += at(k + 3);
        k += 4;
    }
    while k < n {
        a0 += at(k);
        k += 1;
    }
    (a0 + a1) + (a2 + a3)
}

/// `Σ term(pos)` over the positions of `runs`: pairs of positions feed
/// two accumulators, a run's odd last position a third. Runs arrive
/// shortest first, so the loop's trip counts repeat and its branches stay
/// predictable even for cells of two or three rows.
#[inline]
fn runs_sum(runs: &[(u32, u32)], term: impl Fn(usize) -> f64) -> f64 {
    let (mut a0, mut a1, mut a2) = (0.0f64, 0.0f64, 0.0f64);
    for &(start, end) in runs {
        let (mut pos, end) = (start as usize, end as usize);
        while pos + 2 <= end {
            a0 += term(pos);
            a1 += term(pos + 1);
            pos += 2;
        }
        if pos < end {
            a2 += term(pos);
        }
    }
    (a0 + a1) + a2
}

/// One apply's bookkeeping inside an [`UndoArena`].
#[derive(Debug, Clone, Copy)]
struct UndoFrame {
    /// First entry of this frame in the arena's entry stack.
    mark: usize,
    /// Exact running total before the apply, restored on revert.
    total_before: f64,
}

/// Reusable undo storage for backtracking search (the exact and
/// brute-force summarizers) over [`ResidualState::apply_indexed`] /
/// [`ResidualState::revert_frame`].
///
/// A depth-first search applies and reverts one fact per tree edge; with a
/// per-call undo `Vec` every node pays an allocation. The arena instead
/// keeps one growing `(row, previous residual)` stack plus a frame stack
/// marking where each apply started, so steady-state search allocates
/// nothing. Frames must be reverted in LIFO order — exactly the order a
/// DFS backtracks in. The greedy never reverts and keeps no arena
/// ([`ResidualState::commit_indexed`]).
#[derive(Debug, Clone, Default)]
pub struct UndoArena {
    entries: Vec<(u32, f64)>,
    frames: Vec<UndoFrame>,
}

impl UndoArena {
    /// An empty arena.
    pub fn new() -> UndoArena {
        UndoArena::default()
    }

    /// Number of open (un-reverted) frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fact::Scope;
    use crate::model::relation::Prior;

    /// The canonical Fig. 1 grid (`vqs_data::running_example` derives it).
    fn fig1() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["season", "region"],
            "delay",
            vec![
                (vec!["Spring", "East"], 0.0),
                (vec!["Spring", "South"], 0.0),
                (vec!["Spring", "West"], 0.0),
                (vec!["Spring", "North"], 20.0),
                (vec!["Summer", "East"], 0.0),
                (vec!["Summer", "South"], 20.0),
                (vec!["Summer", "West"], 0.0),
                (vec!["Summer", "North"], 10.0),
                (vec!["Fall", "East"], 0.0),
                (vec!["Fall", "South"], 0.0),
                (vec!["Fall", "West"], 0.0),
                (vec!["Fall", "North"], 10.0),
                (vec!["Winter", "East"], 20.0),
                (vec!["Winter", "South"], 10.0),
                (vec!["Winter", "West"], 10.0),
                (vec!["Winter", "North"], 20.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    fn scope(r: &EncodedRelation, pairs: &[(&str, &str)]) -> Scope {
        let encoded: Vec<(usize, u32)> = pairs
            .iter()
            .map(|&(dim, value)| {
                let d = r.dim_index(dim).unwrap();
                (d, r.dims()[d].code_of(value).unwrap())
            })
            .collect();
        Scope::from_pairs(&encoded).unwrap()
    }

    #[test]
    fn example4_base_error_is_120() {
        assert_eq!(base_error(&fig1()), 120.0);
    }

    #[test]
    fn example4_speech1_error_80_utility_40() {
        let r = fig1();
        let speech1 = vec![
            Fact::new(
                scope(&r, &[("season", "Summer"), ("region", "South")]),
                20.0,
                1,
            ),
            Fact::new(
                scope(&r, &[("season", "Winter"), ("region", "East")]),
                20.0,
                1,
            ),
        ];
        assert_eq!(speech_error(&r, &speech1), 80.0);
        assert_eq!(utility(&r, &speech1), 40.0);
    }

    #[test]
    fn speech2_dominates_speech1() {
        // The paper's Example 4 states error 35 for Speech 2; with the grid
        // consistent with Examples 2/6/7/8 the exact error is 55 (see
        // `vqs_data::running_example`), but Speech 2 still dominates
        // Speech 1 (utility 65 > 40).
        let r = fig1();
        let speech2 = vec![
            Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4),
            Fact::new(scope(&r, &[("region", "North")]), 15.0, 4),
        ];
        assert_eq!(speech_error(&r, &speech2), 55.0);
        assert_eq!(utility(&r, &speech2), 65.0);
    }

    #[test]
    fn single_fact_utilities_from_examples() {
        let r = fig1();
        // Example 6/7: Winter fact utility 40, Summer∧South utility 20.
        let winter = Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4);
        assert_eq!(utility(&r, &[winter]), 40.0);
        let north = Fact::new(scope(&r, &[("region", "North")]), 15.0, 4);
        assert_eq!(utility(&r, &[north]), 40.0);
        let summer_south = Fact::new(
            scope(&r, &[("season", "Summer"), ("region", "South")]),
            20.0,
            1,
        );
        assert_eq!(utility(&r, &[summer_south]), 20.0);
    }

    #[test]
    fn residual_state_matches_direct_computation() {
        let r = fig1();
        let winter = Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4);
        let north = Fact::new(scope(&r, &[("region", "North")]), 15.0, 4);
        let mut state = ResidualState::new(&r);
        assert_eq!(state.total(), 120.0);

        // Example 7: gains 40 then 25.
        assert_eq!(state.gain_of(&r, &winter), 40.0);
        let (gain, _) = state.apply_fact(&r, &winter);
        assert_eq!(gain, 40.0);
        assert_eq!(state.gain_of(&r, &north), 25.0);
        let (gain, _) = state.apply_fact(&r, &north);
        assert_eq!(gain, 25.0);
        assert_eq!(state.total(), speech_error(&r, &[winter, north]));
    }

    #[test]
    fn revert_restores_state() {
        let r = fig1();
        let winter = Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4);
        let mut state = ResidualState::new(&r);
        let before: Vec<f64> = state.residuals().to_vec();
        let (_, undo) = state.apply_fact(&r, &winter);
        assert_ne!(state.residuals(), before.as_slice());
        state.revert(&undo);
        assert_eq!(state.residuals(), before.as_slice());
        assert_eq!(state.total(), 120.0);
    }

    /// A fact's index over `r` in row order, laid out the way a
    /// `FactCatalog` lays out cells: stretches of two or more consecutive
    /// rows in scope become runs, the others lone rows.
    struct Index {
        value: f64,
        lone: Vec<u32>,
        runs: Vec<(u32, u32)>,
    }

    impl Index {
        fn of(r: &EncodedRelation, fact: &Fact) -> Index {
            let mut index = Index {
                value: fact.value,
                lone: Vec::new(),
                runs: Vec::new(),
            };
            let mut row = 0;
            while row < r.len() {
                let end = (row..r.len())
                    .find(|&end| !fact.scope.matches_row(r, end))
                    .unwrap_or(r.len());
                match end - row {
                    0 => row += 1,
                    1 => index.lone.push(row as u32),
                    _ => index.runs.push((row as u32, end as u32)),
                }
                row = row.max(end);
            }
            index
        }

        fn view<'a>(&'a self, r: &'a EncodedRelation) -> FactIndex<'a> {
            FactIndex {
                value: self.value,
                lone: &self.lone,
                runs: &self.runs,
                targets: r.targets(),
            }
        }
    }

    #[test]
    fn indexed_kernel_matches_full_scan() {
        let r = fig1();
        let winter = Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4);
        let north = Fact::new(scope(&r, &[("region", "North")]), 15.0, 4);
        let (w, n) = (Index::of(&r, &winter), Index::of(&r, &north));
        // Winter's rows are one stretch, North's are spread out.
        assert_eq!((w.runs.len(), w.lone.len()), (1, 0));
        assert_eq!((n.runs.len(), n.lone.len()), (0, 4));
        let mut scan = ResidualState::new(&r);
        let mut indexed = ResidualState::new(&r);
        let mut arena = UndoArena::new();
        for (fact, index) in [(&winter, &w), (&north, &n)] {
            assert_eq!(indexed.gain_indexed(index.view(&r)), scan.gain_of(&r, fact));
            let (scan_gain, _) = scan.apply_fact(&r, fact);
            let indexed_gain = indexed.apply_indexed(index.view(&r), &mut arena);
            assert_eq!(indexed_gain, scan_gain);
            assert_eq!(indexed.residuals(), scan.residuals());
            assert_eq!(indexed.total(), scan.total());
        }
        assert_eq!(arena.depth(), 2);
    }

    #[test]
    fn arena_revert_is_bit_exact_in_lifo_order() {
        let r = fig1();
        let winter = Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4);
        let north = Fact::new(scope(&r, &[("region", "North")]), 15.0, 4);
        let mut state = ResidualState::new(&r);
        let before_any: Vec<f64> = state.residuals().to_vec();
        let mut arena = UndoArena::new();
        let (w, n) = (Index::of(&r, &winter), Index::of(&r, &north));
        state.apply_indexed(w.view(&r), &mut arena);
        let after_winter: Vec<f64> = state.residuals().to_vec();
        let total_after_winter = state.total();
        state.apply_indexed(n.view(&r), &mut arena);
        state.revert_frame(&mut arena);
        assert_eq!(state.residuals(), after_winter.as_slice());
        assert_eq!(state.total(), total_after_winter);
        state.revert_frame(&mut arena);
        assert_eq!(state.residuals(), before_any.as_slice());
        assert_eq!(state.total(), 120.0);
        assert_eq!(arena.depth(), 0);
    }

    /// The kernel reads a lone row's target unchecked, so an index whose
    /// lone position fits the state but not the targets is refused.
    #[test]
    #[should_panic(expected = "fact index reaches past")]
    fn lone_position_past_the_targets_panics() {
        let state = ResidualState::new(&fig1());
        let targets = [0.0; 4];
        state.gain_indexed(FactIndex {
            value: 15.0,
            lone: &[7],
            runs: &[],
            targets: &targets,
        });
    }

    #[test]
    #[should_panic(expected = "revert_frame without open frame")]
    fn revert_without_frame_panics() {
        let r = fig1();
        let mut state = ResidualState::new(&r);
        let mut arena = UndoArena::new();
        state.revert_frame(&mut arena);
    }

    #[test]
    fn utility_is_monotone_and_submodular_on_fig1() {
        // Spot check of Theorem 1 on the running example: adding a fact to
        // a subset helps at least as much as adding it to a superset.
        let r = fig1();
        let winter = Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4);
        let north = Fact::new(scope(&r, &[("region", "North")]), 15.0, 4);
        let summer_south = Fact::new(
            scope(&r, &[("season", "Summer"), ("region", "South")]),
            20.0,
            1,
        );

        let small = vec![winter.clone()];
        let large = vec![winter.clone(), north.clone()];
        let gain_small = utility(&r, &[winter.clone(), summer_south.clone()]) - utility(&r, &small);
        let gain_large = utility(&r, &[winter.clone(), north.clone(), summer_south.clone()])
            - utility(&r, &large);
        assert!(gain_small >= gain_large);
        // Monotonicity.
        assert!(utility(&r, &large) >= utility(&r, &small));
    }

    #[test]
    fn error_under_closest_matches_speech_error() {
        let r = fig1();
        let facts = vec![
            Fact::new(scope(&r, &[("season", "Winter")]), 15.0, 4),
            Fact::new(scope(&r, &[("region", "North")]), 15.0, 4),
        ];
        assert_eq!(
            speech_error_under(&r, &facts, ExpectationModel::ClosestRelevant),
            speech_error(&r, &facts)
        );
        // The adversarial model can only do worse.
        assert!(
            speech_error_under(&r, &facts, ExpectationModel::FarthestRelevant)
                >= speech_error(&r, &facts)
        );
    }
}
