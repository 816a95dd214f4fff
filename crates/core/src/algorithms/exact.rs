//! The exact summarizer (Algorithm 1, §IV).
//!
//! Depth-first enumeration of fact combinations with the two pruning rules
//! of §IV-B:
//!
//! 1. **Permutation pruning** — facts are considered in non-increasing
//!    order of single-fact utility, so each fact *set* is enumerated once.
//! 2. **Bound pruning** — a partial speech is abandoned when even the
//!    optimistic completion `S.U + r·F.U` (Lemma 1) cannot reach the best
//!    known utility `b`, which is seeded by a greedy run (the paper's
//!    "lower bound … generated by a cheaper heuristic") and tightened as
//!    better speeches are found.
//!
//! The search hot path is index-driven: every node applies and reverts one
//! fact through the catalog's cell-ordered index
//! ([`crate::enumeration::FactCatalog::fact_index`]) and a reusable
//! [`UndoArena`], touching only in-scope rows with no per-row scope
//! decoding and no per-node allocation.
//!
//! With [`ExactSummarizer::workers`] > 1 *and* an instance large enough
//! to amortize fan-out overhead (see
//! [`ExactSummarizer::fan_out_threshold`]), the search fans work units
//! over a [`SearchExecutor`] — scoped threads by default, or a long-lived
//! worker pool when the engine installs one — sharing an `AtomicU64` best
//! bound (f64 bit-cast, CAS-max updated). Work units are top-level DFS
//! branches when there are many of them, and depth-2 *sub-branches*
//! (`(i, j)` fact-pair prefixes) when branches are scarce relative to
//! workers, so one dominant top-level branch no longer serializes the
//! phase. Workers race, so which branch first reaches the optimal utility
//! is schedule-dependent; to keep the result deterministic a second, much
//! cheaper pass re-runs the search in branch order pruning against the
//! now-known optimum and stops at the first speech attaining it — the
//! same speech the sequential search commits to.
//! The returned speech is therefore byte-identical for any worker count
//! (utility reverts are bit-exact snapshots, so node utilities never
//! depend on abandoned branches). Caveat: the pruning bounds themselves
//! are evaluated in floating point, so an instance holding *several*
//! distinct optimum-attaining speeches whose ancestors' bounds sit
//! within rounding error of the optimum can, in principle, make the
//! sequential and parallel searches tie-break onto different
//! equal-utility speeches; the returned *utility* is the optimum either
//! way. Under an expired [`ExactSummarizer::time_budget`] the best
//! speech found so far is returned with [`Summary::timed_out`] set,
//! without the determinism guarantee.
//!
//! Note on the paper's notation: Algorithm 1 writes the pruning parameter
//! as `m−i−1` while Example 6 evaluates it as `r = 1` for `m = 2, i = 2`;
//! the sound reading (used here, and consistent with the example and with
//! Lemma 1) is that a speech holding `c` facts can gain at most
//! `(m − c) · u_next` more utility.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vqs_relalg::hash::FxHashMap;

use crate::algorithms::exec::{ScopedExecutor, SearchExecutor};
use crate::algorithms::greedy::GreedySummarizer;
use crate::algorithms::{summary_from_ids, Problem, Summarizer, Summary};
use crate::error::Result;
use crate::instrument::Instrumentation;
use crate::model::fact::{FactId, Scope};
use crate::model::utility::{ResidualState, UndoArena};

/// How many node expansions pass between wall-clock deadline checks.
const DEADLINE_CHECK_PERIOD: u64 = 256;

/// Default for [`ExactSummarizer::fan_out_threshold`]: the minimum
/// estimated search-tree size (facts × budget `m`) before a parallel
/// request actually fans out. Calibrated against the pinned bench
/// scenarios (`bench_solver`): their instances sit around 3k where
/// per-search fan-out overhead still beats any speedup, so they — and
/// everything smaller — run sequentially.
pub const DEFAULT_FAN_OUT_THRESHOLD: usize = 4096;

/// Switch phase 1 to depth-2 sub-branch units when the top-level branch
/// count is below `workers × SUBBRANCH_FACTOR`: with few branches, whole
/// branches are too coarse to balance (one dominant branch serializes the
/// phase), while `(i, j)` prefixes give ~n²/2 stealable units.
const SUBBRANCH_FACTOR: usize = 16;

/// Guaranteed-optimal summarizer with configurable pruning.
#[derive(Clone)]
pub struct ExactSummarizer {
    /// Seed the utility lower bound with a greedy run (on by default; the
    /// paper's Algorithm 1 takes this bound as input `b`).
    pub greedy_lower_bound: bool,
    /// Use the exact utility of the partial speech in the bound instead of
    /// the sum of single-fact utilities (`S.U`). Both are sound (Lemma 1 is
    /// stated for exact aggregate utility, of which `S.U` is an upper
    /// bound); the tight variant prunes more and is our ablation extension.
    pub tight_bounds: bool,
    /// Disable bound pruning entirely (ablation; permutation pruning
    /// always stays on, as in Theorem 5's worst-case analysis).
    pub bound_pruning: bool,
    /// Wall-clock budget; when it expires the search returns its best
    /// speech so far with [`Summary::timed_out`] set (the paper runs
    /// Fig. 3 under a 48-hour timeout).
    pub time_budget: Option<Duration>,
    /// Worker threads fanning out the search. `1` (the default) searches
    /// sequentially on the calling thread; `0` resolves to the executor's
    /// [`SearchExecutor::max_workers`] (available parallelism for the
    /// default scoped executor). The returned speech is byte-identical
    /// for every worker count.
    pub workers: usize,
    /// Where parallel fan-out runs: `None` (the default) spawns scoped
    /// threads per search; the engine installs its long-lived solver
    /// pool here so searches never pay per-request thread spawns.
    pub executor: Option<Arc<dyn SearchExecutor>>,
    /// Adaptive fan-out gate: a parallel request whose estimated search
    /// tree (facts × budget `m`) is smaller than this runs sequentially,
    /// because fan-out overhead would dominate. Set to `0` to force
    /// fan-out whenever `workers > 1` (tests, calibration).
    pub fan_out_threshold: usize,
}

impl std::fmt::Debug for ExactSummarizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactSummarizer")
            .field("greedy_lower_bound", &self.greedy_lower_bound)
            .field("tight_bounds", &self.tight_bounds)
            .field("bound_pruning", &self.bound_pruning)
            .field("time_budget", &self.time_budget)
            .field("workers", &self.workers)
            .field("executor", &self.executor.is_some())
            .field("fan_out_threshold", &self.fan_out_threshold)
            .finish()
    }
}

impl Default for ExactSummarizer {
    fn default() -> Self {
        ExactSummarizer {
            greedy_lower_bound: true,
            tight_bounds: false,
            bound_pruning: true,
            time_budget: None,
            workers: 1,
            executor: None,
            fan_out_threshold: DEFAULT_FAN_OUT_THRESHOLD,
        }
    }
}

impl ExactSummarizer {
    /// Paper-faithful configuration (greedy seed, `S.U`-based bounds).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation: no bound pruning at all.
    pub fn without_bound_pruning() -> Self {
        ExactSummarizer {
            greedy_lower_bound: false,
            bound_pruning: false,
            ..Self::default()
        }
    }

    /// Extension: tight bounds from exact partial utility.
    pub fn with_tight_bounds() -> Self {
        ExactSummarizer {
            tight_bounds: true,
            ..Self::default()
        }
    }

    /// Paper configuration under a wall-clock budget.
    pub fn with_time_budget(budget: Duration) -> Self {
        ExactSummarizer {
            time_budget: Some(budget),
            ..Self::default()
        }
    }

    /// Paper configuration searching with `workers` threads (0 = all
    /// available cores).
    pub fn with_workers(workers: usize) -> Self {
        ExactSummarizer {
            workers,
            ..Self::default()
        }
    }

    /// Route this summarizer's fan-out through `executor` (e.g. the
    /// engine's shared solver pool) instead of per-search scoped threads.
    pub fn on_executor(mut self, executor: Arc<dyn SearchExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Resolve the configured worker count (0 = the executor's maximum).
    fn effective_workers(&self, executor: &dyn SearchExecutor) -> usize {
        if self.workers == 0 {
            executor.max_workers().max(1)
        } else {
            self.workers
        }
    }

    /// Run the greedy heuristic and recover its fact ids through one
    /// `(scope, value-bits) → id` hash map — O(facts + speech) instead of
    /// one linear catalog scan per greedy fact.
    fn greedy_seed(
        &self,
        problem: &Problem<'_>,
        counters: &mut Instrumentation,
    ) -> Result<(f64, Vec<FactId>)> {
        let greedy = GreedySummarizer::base().summarize(problem)?;
        counters.merge(&greedy.instrumentation);
        let mut by_key: FxHashMap<(Scope, u64), FactId> = FxHashMap::default();
        for (id, fact) in problem.catalog.facts().iter().enumerate() {
            by_key
                .entry((fact.scope.clone(), fact.value.to_bits()))
                .or_insert(id);
        }
        let ids = greedy
            .speech
            .facts()
            .iter()
            .filter_map(|f| by_key.get(&(f.scope.clone(), f.value.to_bits())).copied())
            .collect();
        Ok((greedy.utility, ids))
    }
}

/// Read-only context shared by the sequential search and every worker.
struct SearchContext<'p, 'a> {
    problem: &'p Problem<'a>,
    /// Fact ids sorted by descending single-fact utility.
    order: Vec<FactId>,
    /// Single-fact utility aligned with `order`.
    utilities: Vec<f64>,
    m: usize,
    tight_bounds: bool,
    bound_pruning: bool,
    /// Utility of the greedy seed speech (0 when seeding is off); the
    /// initial lower bound `b` and the floor below which no candidate is
    /// ever recorded.
    seed_utility: f64,
    base_error: f64,
    deadline: Option<Instant>,
}

/// Outcome of a search: the chosen fact ids and whether the budget expired.
struct SearchOutcome {
    best_ids: Vec<FactId>,
    timed_out: bool,
}

// ---------------------------------------------------------------------------
// Sequential search
// ---------------------------------------------------------------------------
//
// NOTE: the DFS skeleton (evaluate → record → bound-prune loop → expand/
// apply/recurse/revert) appears three times — here, in `Phase1Worker`,
// and in `Phase2Worker` — differing only in where the bound comes from
// and what "record" means. The copies must stay in lockstep: the
// byte-identity guarantee depends on all three evaluating utilities and
// walking candidates in exactly the same order, and the differential
// tests (`tests/kernel_differential.rs`) guard that equivalence.

struct SequentialSearch<'c, 'p, 'a> {
    ctx: &'c SearchContext<'p, 'a>,
    state: ResidualState,
    arena: UndoArena,
    chosen: Vec<FactId>,
    /// Best utility found so far (the bound `b`).
    best_utility: f64,
    best_ids: Vec<FactId>,
    counters: Instrumentation,
    timed_out: bool,
}

impl SequentialSearch<'_, '_, '_> {
    /// Wall-clock deadline check: consults the clock on entry into the
    /// search (covering zero/expired budgets before any expansion) and
    /// then once every [`DEADLINE_CHECK_PERIOD`] expanded nodes,
    /// immediately after the expansion counter increments.
    fn expired(&mut self) -> bool {
        if self.timed_out {
            return true;
        }
        let Some(deadline) = self.ctx.deadline else {
            return false;
        };
        if self
            .counters
            .nodes_expanded
            .is_multiple_of(DEADLINE_CHECK_PERIOD)
            && Instant::now() >= deadline
        {
            self.timed_out = true;
        }
        self.timed_out
    }

    /// DFS over positions in `order`, starting at `start`, with the facts
    /// in `chosen` already applied to `state`. `sum_single` is `S.U`, the
    /// sum of single-fact utilities of the chosen facts.
    fn dfs(&mut self, start: usize, sum_single: f64) {
        let current_utility = self.ctx.base_error - self.state.total();
        self.counters.speeches_evaluated += 1;
        if current_utility > self.best_utility {
            self.best_utility = current_utility;
            self.best_ids = self.chosen.clone();
        }
        if self.chosen.len() == self.ctx.m {
            return;
        }
        if self.expired() {
            return;
        }
        let remaining = (self.ctx.m - self.chosen.len()) as f64;
        for idx in start..self.ctx.order.len() {
            let u_next = self.ctx.utilities[idx];
            if self.ctx.bound_pruning {
                // Upper bound on any completion through this candidate.
                let stem = if self.ctx.tight_bounds {
                    current_utility
                } else {
                    sum_single
                };
                let bound = stem + remaining * u_next;
                if bound <= self.best_utility {
                    // Candidates are sorted by descending utility: every
                    // later candidate has an equal-or-smaller bound.
                    self.counters.nodes_pruned += (self.ctx.order.len() - idx) as u64;
                    return;
                }
            }
            self.counters.nodes_expanded += 1;
            if self.expired() {
                return;
            }
            let fact_id = self.ctx.order[idx];
            let index = self.ctx.problem.catalog.fact_index(fact_id);
            self.counters.index_row_touches += index.len() as u64;
            self.state.apply_indexed(index, &mut self.arena);
            self.chosen.push(fact_id);
            self.dfs(idx + 1, sum_single + u_next);
            self.chosen.pop();
            self.state.revert_frame(&mut self.arena);
            if self.timed_out {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel search
// ---------------------------------------------------------------------------

/// Best speech one worker found within one top-level branch: the first
/// speech (in that branch's DFS order) attaining the branch's maximum
/// utility above the seed floor.
struct BranchCandidate {
    branch: usize,
    utility: f64,
    ids: Vec<FactId>,
}

/// Phase-1 work decomposition: either one unit per top-level branch, or
/// — when branches are scarce relative to workers — one unit per depth-2
/// `(i, j)` prefix, so workers steal *sub*-branches and one dominant
/// top-level branch no longer serializes the phase.
struct UnitMap {
    /// `offsets[i]` = first unit of branch `i`; `offsets[n]` = unit count.
    offsets: Vec<usize>,
    /// True when units are `(i, j)` prefixes rather than whole branches.
    pairs: bool,
}

impl UnitMap {
    /// One unit per top-level branch.
    fn branches(n: usize) -> UnitMap {
        UnitMap {
            offsets: (0..=n).collect(),
            pairs: false,
        }
    }

    /// One unit per depth-2 prefix: branch `i` owns `max(n − 1 − i, 1)`
    /// units — one per second fact `j ∈ i+1..n`, plus a lone sentinel
    /// unit for the last branch (which has no second fact). The first
    /// unit of each branch additionally evaluates the single-fact speech
    /// `{i}`, so every node is still evaluated exactly once globally.
    fn pairs(n: usize) -> UnitMap {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        for i in 0..n {
            offsets.push(total);
            total += (n - 1 - i).max(1);
        }
        offsets.push(total);
        UnitMap {
            offsets,
            pairs: true,
        }
    }

    fn total(&self) -> usize {
        *self.offsets.last().expect("unit map has a sentinel offset")
    }

    /// Decode a unit id into `(branch, sub-index)`.
    fn decode(&self, unit: usize) -> (usize, usize) {
        let branch = self.offsets.partition_point(|&o| o <= unit) - 1;
        (branch, unit - self.offsets[branch])
    }
}

/// State shared by the phase-1 workers.
struct Phase1Shared {
    /// f64 bits of the best utility achieved so far (seed included);
    /// monotone under [`store_max`]. Sound as a prune bound because it
    /// only ever holds utilities actually attained by some speech.
    best_bits: AtomicU64,
    /// Next unclaimed work unit (see [`UnitMap`]).
    next_unit: AtomicUsize,
    /// Smallest branch whose tail was already counted as pruned
    /// (CAS-min), so racing workers don't double-count overlapping
    /// `nodes_pruned` tails. The parallel count is still approximate —
    /// a branch a racing worker already expanded under an older bound
    /// can land inside a later-counted tail — so parallel prune counters
    /// are schedule-dependent effort indicators, unlike the sequential
    /// search's exact ones.
    pruned_from: AtomicUsize,
    timed_out: AtomicBool,
}

/// CAS-max update of an f64 stored as bits (non-negative utilities, so
/// the bit pattern is order-preserving; the loop compares as f64 anyway).
fn store_max(bits: &AtomicU64, utility: f64) {
    let mut current = bits.load(Ordering::Relaxed);
    while utility > f64::from_bits(current) {
        match bits.compare_exchange_weak(
            current,
            utility.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// Phase 1: workers steal work units (whole branches or depth-2
/// sub-branches) and run the bounded DFS, racing the shared best bound
/// upward. Finds the optimal *utility* (deterministically — the bound
/// only prunes subtrees that cannot strictly beat an already-attained
/// value) but not a deterministic *speech*, because unit completion
/// order is schedule-dependent.
struct Phase1Worker<'c, 'p, 'a> {
    ctx: &'c SearchContext<'p, 'a>,
    shared: &'c Phase1Shared,
    units: &'c UnitMap,
    state: ResidualState,
    arena: UndoArena,
    chosen: Vec<FactId>,
    counters: Instrumentation,
    candidates: Vec<BranchCandidate>,
    branch: usize,
    /// Best utility seen in the current branch (floored at the seed), the
    /// threshold for recording the branch candidate. Deliberately *not*
    /// carried across branches: each branch must report its own first
    /// maximum-attaining speech for the deterministic merge.
    branch_best: f64,
    /// Top-level branch currently applied to `state` — a prefix cache so
    /// consecutive sub-branch units of the same branch skip the
    /// re-apply/revert of the branch fact.
    applied: Option<usize>,
}

impl Phase1Worker<'_, '_, '_> {
    fn expired(&mut self) -> bool {
        if self.shared.timed_out.load(Ordering::Relaxed) {
            return true;
        }
        let Some(deadline) = self.ctx.deadline else {
            return false;
        };
        if self
            .counters
            .nodes_expanded
            .is_multiple_of(DEADLINE_CHECK_PERIOD)
            && Instant::now() >= deadline
        {
            self.shared.timed_out.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    fn run(&mut self) {
        // Entry check: a zero or already-expired budget stops the worker
        // before it claims any unit (nodes_expanded is still 0 here, so
        // `expired` consults the wall clock).
        if !self.expired() {
            loop {
                if self.shared.timed_out.load(Ordering::Relaxed) {
                    break;
                }
                let unit = self.shared.next_unit.fetch_add(1, Ordering::Relaxed);
                if unit >= self.units.total() {
                    break;
                }
                let (branch, sub) = self.units.decode(unit);
                if branch >= self.shared.pruned_from.load(Ordering::Relaxed) {
                    // Claims are monotone, so every later unit belongs to
                    // an equal-or-later (already pruned) branch.
                    break;
                }
                if self.ctx.bound_pruning {
                    // Top-level bound: with utilities sorted descending, once
                    // branch `b` cannot beat the shared best, none after it can.
                    let bound = self.ctx.m as f64 * self.ctx.utilities[branch];
                    if bound <= f64::from_bits(self.shared.best_bits.load(Ordering::Relaxed)) {
                        // Count each pruned tail branch once across workers.
                        let prev = self.shared.pruned_from.fetch_min(branch, Ordering::Relaxed);
                        if branch < prev {
                            let end = prev.min(self.ctx.order.len());
                            self.counters.nodes_pruned += (end - branch) as u64;
                        }
                        break;
                    }
                }
                if self.units.pairs {
                    self.run_pair_unit(branch, sub);
                } else {
                    self.run_branch(branch);
                }
            }
        }
        self.leave_branch();
    }

    /// Apply the branch fact as the worker's cached prefix (a no-op when
    /// the previous unit already applied the same branch).
    fn enter_branch(&mut self, branch: usize) {
        if self.applied == Some(branch) {
            return;
        }
        self.leave_branch();
        self.branch = branch;
        self.branch_best = self.ctx.seed_utility;
        let fact_id = self.ctx.order[branch];
        let index = self.ctx.problem.catalog.fact_index(fact_id);
        self.counters.index_row_touches += index.len() as u64;
        self.state.apply_indexed(index, &mut self.arena);
        self.chosen.push(fact_id);
        self.applied = Some(branch);
    }

    /// Revert the cached branch prefix, if any.
    fn leave_branch(&mut self) {
        if self.applied.take().is_some() {
            self.chosen.pop();
            self.state.revert_frame(&mut self.arena);
        }
    }

    /// One whole-branch unit (the classic depth-1 decomposition).
    fn run_branch(&mut self, branch: usize) {
        self.counters.nodes_expanded += 1;
        if self.expired() {
            return;
        }
        self.enter_branch(branch);
        self.dfs(branch + 1, self.ctx.utilities[branch]);
        self.leave_branch();
    }

    /// One depth-2 unit: the subtree under the `(branch, branch+1+sub)`
    /// prefix. The first unit of each branch (`sub == 0`) additionally
    /// evaluates the single-fact speech `{branch}`.
    fn run_pair_unit(&mut self, branch: usize, sub: usize) {
        self.enter_branch(branch);
        // Bit-exact re-evaluation of the branch node: same apply order
        // from the same initial state as the sequential DFS. Needed both
        // for the `sub == 0` record and for tight child bounds.
        let branch_utility = self.ctx.base_error - self.state.total();
        if sub == 0 {
            self.counters.nodes_expanded += 1;
            self.counters.speeches_evaluated += 1;
            if branch_utility > self.branch_best {
                self.branch_best = branch_utility;
                self.record(branch_utility);
                store_max(&self.shared.best_bits, branch_utility);
            }
        }
        if self.expired() {
            return;
        }
        let idx = branch + 1 + sub;
        if idx >= self.ctx.order.len() {
            return; // sentinel unit of the last branch
        }
        let sum_single = self.ctx.utilities[branch];
        let u_next = self.ctx.utilities[idx];
        if self.ctx.bound_pruning {
            let stem = if self.ctx.tight_bounds {
                branch_utility
            } else {
                sum_single
            };
            let bound = stem + (self.ctx.m - 1) as f64 * u_next;
            if bound <= f64::from_bits(self.shared.best_bits.load(Ordering::Relaxed)) {
                // Later units of this branch re-check their own (weaker)
                // bounds themselves, so only this unit's root is counted.
                self.counters.nodes_pruned += 1;
                return;
            }
        }
        self.counters.nodes_expanded += 1;
        if self.expired() {
            return;
        }
        let fact_id = self.ctx.order[idx];
        let index = self.ctx.problem.catalog.fact_index(fact_id);
        self.counters.index_row_touches += index.len() as u64;
        self.state.apply_indexed(index, &mut self.arena);
        self.chosen.push(fact_id);
        self.dfs(idx + 1, sum_single + u_next);
        self.chosen.pop();
        self.state.revert_frame(&mut self.arena);
    }

    fn record(&mut self, utility: f64) {
        if let Some(last) = self.candidates.last_mut() {
            if last.branch == self.branch {
                last.utility = utility;
                last.ids.clear();
                last.ids.extend_from_slice(&self.chosen);
                return;
            }
        }
        self.candidates.push(BranchCandidate {
            branch: self.branch,
            utility,
            ids: self.chosen.clone(),
        });
    }

    fn dfs(&mut self, start: usize, sum_single: f64) {
        let current_utility = self.ctx.base_error - self.state.total();
        self.counters.speeches_evaluated += 1;
        if current_utility > self.branch_best {
            self.branch_best = current_utility;
            self.record(current_utility);
            store_max(&self.shared.best_bits, current_utility);
        }
        if self.chosen.len() == self.ctx.m {
            return;
        }
        if self.expired() {
            return;
        }
        let remaining = (self.ctx.m - self.chosen.len()) as f64;
        for idx in start..self.ctx.order.len() {
            let u_next = self.ctx.utilities[idx];
            if self.ctx.bound_pruning {
                let stem = if self.ctx.tight_bounds {
                    current_utility
                } else {
                    sum_single
                };
                let bound = stem + remaining * u_next;
                if bound <= f64::from_bits(self.shared.best_bits.load(Ordering::Relaxed)) {
                    self.counters.nodes_pruned += (self.ctx.order.len() - idx) as u64;
                    return;
                }
            }
            self.counters.nodes_expanded += 1;
            if self.expired() {
                return;
            }
            let fact_id = self.ctx.order[idx];
            let index = self.ctx.problem.catalog.fact_index(fact_id);
            self.counters.index_row_touches += index.len() as u64;
            self.state.apply_indexed(index, &mut self.arena);
            self.chosen.push(fact_id);
            self.dfs(idx + 1, sum_single + u_next);
            self.chosen.pop();
            self.state.revert_frame(&mut self.arena);
            if self.shared.timed_out.load(Ordering::Relaxed) {
                return;
            }
        }
    }
}

/// State shared by the phase-2 workers.
struct Phase2Shared {
    /// Smallest branch known to hold a speech attaining the target
    /// utility (CAS-min); branches above it are skipped or abandoned.
    found_branch: AtomicUsize,
    next_branch: AtomicUsize,
    timed_out: AtomicBool,
}

/// Phase 2: deterministic tie-break. Re-walks the branches in order,
/// pruning against the known optimal utility (strictly — equal bounds may
/// still hold an attaining speech) and stops at each branch's first
/// speech whose utility bit-equals the target; the smallest such branch
/// is exactly the speech the sequential search returns. Utility
/// evaluations are bit-exact re-runs of phase 1's (applies happen in the
/// same order from the same initial state), so equality is exact.
struct Phase2Worker<'c, 'p, 'a> {
    ctx: &'c SearchContext<'p, 'a>,
    shared: &'c Phase2Shared,
    target: f64,
    /// Prune threshold: `target` minus a rounding-slack margin. Lemma 1
    /// guarantees every attaining speech's ancestors have bound ≥ target
    /// in *exact* arithmetic, but the bound and the attained utility are
    /// evaluated by different floating-point expression trees, so a
    /// mathematically tight bound can round a few ulps (~1e-15 relative)
    /// below the target. Pruning against this slightly lower floor keeps
    /// every attaining subtree alive — so the first achiever matches the
    /// sequential search's — while still discarding everything materially
    /// below the optimum. Exploring the extra near-tie band cannot add
    /// achievers (attainment is still checked bit-exactly).
    target_floor: f64,
    state: ResidualState,
    arena: UndoArena,
    chosen: Vec<FactId>,
    counters: Instrumentation,
    branch: usize,
    candidate: Option<BranchCandidate>,
}

impl Phase2Worker<'_, '_, '_> {
    fn expired(&mut self) -> bool {
        if self.shared.timed_out.load(Ordering::Relaxed) {
            return true;
        }
        let Some(deadline) = self.ctx.deadline else {
            return false;
        };
        if self
            .counters
            .nodes_expanded
            .is_multiple_of(DEADLINE_CHECK_PERIOD)
            && Instant::now() >= deadline
        {
            self.shared.timed_out.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    fn run(&mut self) {
        if self.expired() {
            return;
        }
        loop {
            if self.shared.timed_out.load(Ordering::Relaxed) {
                return;
            }
            let branch = self.shared.next_branch.fetch_add(1, Ordering::Relaxed);
            if branch >= self.ctx.order.len()
                || branch > self.shared.found_branch.load(Ordering::Relaxed)
            {
                // Claims are monotone: every later branch is larger still.
                return;
            }
            // An attaining speech spends all m slots' optimism; a branch
            // whose optimistic value is below the target holds none, and
            // (sorted descending) neither does any later branch.
            if self.ctx.m as f64 * self.ctx.utilities[branch] < self.target_floor {
                return;
            }
            self.branch = branch;
            self.counters.nodes_expanded += 1;
            if self.expired() {
                return;
            }
            let fact_id = self.ctx.order[branch];
            let index = self.ctx.problem.catalog.fact_index(fact_id);
            self.counters.index_row_touches += index.len() as u64;
            self.state.apply_indexed(index, &mut self.arena);
            self.chosen.push(fact_id);
            let found = self.dfs(branch + 1, self.ctx.utilities[branch]);
            self.chosen.pop();
            self.state.revert_frame(&mut self.arena);
            if found {
                self.shared
                    .found_branch
                    .fetch_min(branch, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Returns true when the branch's first target-attaining speech was
    /// found (recorded in `self.candidate`).
    fn dfs(&mut self, start: usize, sum_single: f64) -> bool {
        let current_utility = self.ctx.base_error - self.state.total();
        self.counters.speeches_evaluated += 1;
        if current_utility.to_bits() == self.target.to_bits() {
            self.candidate = Some(BranchCandidate {
                branch: self.branch,
                utility: current_utility,
                ids: self.chosen.clone(),
            });
            return true;
        }
        if self.chosen.len() == self.ctx.m {
            return false;
        }
        if self.expired() {
            return false;
        }
        let remaining = (self.ctx.m - self.chosen.len()) as f64;
        for idx in start..self.ctx.order.len() {
            let u_next = self.ctx.utilities[idx];
            // Always sound (Lemma 1), independent of the bound_pruning
            // ablation flag: skipping subtrees that cannot *reach* the
            // optimum cannot change which speech first attains it.
            let stem = if self.ctx.tight_bounds {
                current_utility
            } else {
                sum_single
            };
            if stem + remaining * u_next < self.target_floor {
                self.counters.nodes_pruned += (self.ctx.order.len() - idx) as u64;
                return false;
            }
            self.counters.nodes_expanded += 1;
            if self.expired() {
                return false;
            }
            let fact_id = self.ctx.order[idx];
            let index = self.ctx.problem.catalog.fact_index(fact_id);
            self.counters.index_row_touches += index.len() as u64;
            self.state.apply_indexed(index, &mut self.arena);
            self.chosen.push(fact_id);
            let found = self.dfs(idx + 1, sum_single + u_next);
            self.chosen.pop();
            self.state.revert_frame(&mut self.arena);
            if found {
                return true;
            }
            if self.shared.timed_out.load(Ordering::Relaxed)
                || self.branch > self.shared.found_branch.load(Ordering::Relaxed)
            {
                return false;
            }
        }
        false
    }
}

/// Run the full sequential DFS from a fresh residual state, seeded with
/// the greedy lower bound, merging its counters into `counters`.
fn run_sequential(
    ctx: &SearchContext<'_, '_>,
    seed_ids: Vec<FactId>,
    counters: &mut Instrumentation,
) -> SearchOutcome {
    let mut search = SequentialSearch {
        ctx,
        state: ctx.problem.catalog.residual_state(),
        arena: UndoArena::new(),
        chosen: Vec::with_capacity(ctx.m),
        best_utility: ctx.seed_utility,
        best_ids: seed_ids,
        counters: Instrumentation::default(),
        timed_out: false,
    };
    search.dfs(0, 0.0);
    counters.merge(&search.counters);
    SearchOutcome {
        best_ids: search.best_ids,
        timed_out: search.timed_out,
    }
}

/// Fan the search over `workers` tasks on `executor`. See the module
/// docs for the two-phase determinism scheme and the unit decomposition.
fn parallel_search(
    ctx: &SearchContext<'_, '_>,
    seed_ids: &[FactId],
    workers: usize,
    executor: &dyn SearchExecutor,
    counters: &mut Instrumentation,
) -> SearchOutcome {
    let proto = ctx.problem.catalog.residual_state();
    let n = ctx.order.len();
    // Counters for the two parallel phases are accumulated separately so
    // the defensive sequential fallback at the bottom can *discard* them:
    // merging the full sequential counters on top of already-merged phase
    // counters would double-report every expansion of that search.
    let mut phase_counters = Instrumentation::default();
    // The root (empty) speech is evaluated once, not once per worker.
    phase_counters.speeches_evaluated += 1;

    // Sub-branch stealing: with branches scarce relative to workers,
    // depth-2 units keep every worker busy even when one dominant branch
    // holds most of the tree. With plenty of branches, whole branches are
    // cheaper units (no per-unit decode or re-entry).
    let units = if ctx.m >= 2 && n < workers.saturating_mul(SUBBRANCH_FACTOR) {
        UnitMap::pairs(n)
    } else {
        UnitMap::branches(n)
    };
    // Never fan out more tasks than units: excess workers would only
    // spin on an empty claim counter (and, on the scoped executor, pay a
    // thread spawn for nothing).
    let fan1 = workers.min(units.total()).max(1);

    let shared = Phase1Shared {
        best_bits: AtomicU64::new(ctx.seed_utility.to_bits()),
        next_unit: AtomicUsize::new(0),
        pruned_from: AtomicUsize::new(usize::MAX),
        timed_out: AtomicBool::new(false),
    };
    let mut candidates: Vec<BranchCandidate> = Vec::new();
    {
        let outputs: Mutex<Vec<(Vec<BranchCandidate>, Instrumentation)>> =
            Mutex::new(Vec::with_capacity(fan1));
        executor.run(fan1, &|_| {
            let mut worker = Phase1Worker {
                ctx,
                shared: &shared,
                units: &units,
                state: proto.clone(),
                arena: UndoArena::new(),
                chosen: Vec::with_capacity(ctx.m),
                counters: Instrumentation::default(),
                candidates: Vec::new(),
                branch: 0,
                branch_best: ctx.seed_utility,
                applied: None,
            };
            worker.run();
            outputs
                .lock()
                .expect("phase-1 output sink poisoned")
                .push((worker.candidates, worker.counters));
        });
        // Collection order is schedule-dependent, which is fine: counter
        // merging is commutative and the candidates are sorted below.
        for (found, inst) in outputs.into_inner().expect("phase-1 output sink poisoned") {
            phase_counters.merge(&inst);
            candidates.extend(found);
        }
    }
    let timed_out = shared.timed_out.load(Ordering::Relaxed);

    // Highest utility first; among equals, the smallest branch (DFS order).
    candidates.sort_by(|a, b| {
        b.utility
            .total_cmp(&a.utility)
            .then(a.branch.cmp(&b.branch))
    });
    let Some(best) = candidates.first() else {
        // Nothing beat the seed: the greedy speech is optimal (or the
        // budget expired before anything was found).
        counters.merge(&phase_counters);
        return SearchOutcome {
            best_ids: seed_ids.to_vec(),
            timed_out,
        };
    };
    if timed_out {
        // Best-effort result; unit completion order was racy, so no
        // determinism claim — exactly like a timed-out sequential search.
        counters.merge(&phase_counters);
        return SearchOutcome {
            best_ids: best.ids.clone(),
            timed_out: true,
        };
    }

    // Phase 2: find the first speech (global DFS order) attaining the
    // optimum. Branch-granular: phase 2 typically touches only the first
    // few branches, so sub-branch decomposition buys nothing here.
    let target = best.utility;
    let target_floor = target - 1e-9 * (1.0 + target.abs());
    let shared2 = Phase2Shared {
        found_branch: AtomicUsize::new(usize::MAX),
        next_branch: AtomicUsize::new(0),
        timed_out: AtomicBool::new(false),
    };
    let fan2 = workers.min(n).max(1);
    let mut winners: Vec<BranchCandidate> = Vec::new();
    {
        let outputs: Mutex<Vec<(Option<BranchCandidate>, Instrumentation)>> =
            Mutex::new(Vec::with_capacity(fan2));
        executor.run(fan2, &|_| {
            let mut worker = Phase2Worker {
                ctx,
                shared: &shared2,
                target,
                target_floor,
                state: proto.clone(),
                arena: UndoArena::new(),
                chosen: Vec::with_capacity(ctx.m),
                counters: Instrumentation::default(),
                branch: 0,
                candidate: None,
            };
            worker.run();
            outputs
                .lock()
                .expect("phase-2 output sink poisoned")
                .push((worker.candidate, worker.counters));
        });
        for (found, inst) in outputs.into_inner().expect("phase-2 output sink poisoned") {
            phase_counters.merge(&inst);
            winners.extend(found);
        }
    }
    let timed_out2 = shared2.timed_out.load(Ordering::Relaxed);
    if let Some(winner) = winners.into_iter().min_by_key(|c| c.branch) {
        counters.merge(&phase_counters);
        return SearchOutcome {
            best_ids: winner.ids,
            timed_out: timed_out2,
        };
    }
    if timed_out2 {
        // Budget expired mid-phase-2: best-effort racy phase-1 winner,
        // flagged as timed out like a timed-out sequential search.
        counters.merge(&phase_counters);
        return SearchOutcome {
            best_ids: best.ids.clone(),
            timed_out: true,
        };
    }
    // In exact arithmetic phase 2 always re-finds the optimum (and the
    // target-floor margin absorbs bound rounding), so this is defensive:
    // if no attaining speech was re-found, re-run sequentially so the
    // result stays deterministic instead of leaking a schedule-dependent
    // phase-1 speech. The phase counters are dropped — the search that
    // produced the returned speech is the sequential one, and merging
    // both would inflate every effort counter.
    run_sequential(ctx, seed_ids.to_vec(), counters)
}

impl Summarizer for ExactSummarizer {
    fn name(&self) -> &'static str {
        "E"
    }

    fn summarize(&self, problem: &Problem<'_>) -> Result<Summary> {
        self.summarize_by(problem, None)
    }

    /// [`Summarizer::summarize`] under an additional external deadline:
    /// the search stops at whichever expires first — the configured
    /// [`ExactSummarizer::time_budget`] or `deadline` — and returns the
    /// best speech found so far with [`Summary::timed_out`] set.
    fn summarize_by(&self, problem: &Problem<'_>, deadline: Option<Instant>) -> Result<Summary> {
        let mut counters = Instrumentation::default();

        // Single-fact utilities (Algorithm 1 Line 6), then sort descending —
        // the permutation-pruning order of §IV-B.
        let utilities = problem.catalog.single_fact_utilities(&mut counters);
        let mut order: Vec<FactId> = (0..problem.catalog.len()).collect();
        order.sort_by(|&a, &b| utilities[b].total_cmp(&utilities[a]));
        let sorted_utilities: Vec<f64> = order.iter().map(|&id| utilities[id]).collect();

        // Lower bound b from the greedy heuristic.
        let (seed_utility, seed_ids) = if self.greedy_lower_bound {
            self.greedy_seed(problem, &mut counters)?
        } else {
            (0.0, Vec::new())
        };

        let base_error = problem.catalog.base_error();
        let ctx = SearchContext {
            problem,
            order,
            utilities: sorted_utilities,
            m: problem.max_facts.min(problem.catalog.len()),
            tight_bounds: self.tight_bounds,
            bound_pruning: self.bound_pruning,
            seed_utility,
            base_error,
            deadline: match (
                self.time_budget.map(|budget| Instant::now() + budget),
                deadline,
            ) {
                (Some(own), Some(external)) => Some(own.min(external)),
                (own, external) => own.or(external),
            },
        };

        let scoped = ScopedExecutor;
        let executor: &dyn SearchExecutor = match &self.executor {
            Some(executor) => executor.as_ref(),
            None => &scoped,
        };
        let workers = self.effective_workers(executor).min(ctx.order.len().max(1));
        // Adaptive fan-out gate: fan out only when the estimated tree
        // size (facts × m, the quantity the worst-case bound of Theorem 5
        // is exponential in) can amortize the fan-out overhead. Tiny
        // instances — the common case for interactive voice queries —
        // run sequentially even when many workers are configured.
        let estimated_tree = ctx.order.len().saturating_mul(ctx.m);
        let outcome = if workers <= 1 || ctx.m == 0 || estimated_tree < self.fan_out_threshold {
            run_sequential(&ctx, seed_ids, &mut counters)
        } else {
            parallel_search(&ctx, &seed_ids, workers, executor, &mut counters)
        };

        let mut summary = summary_from_ids(problem, &outcome.best_ids, counters);
        summary.timed_out = outcome.timed_out;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::brute::BruteForceSummarizer;
    use crate::algorithms::testutil::{fig1_relation, random_relation};
    use crate::enumeration::FactCatalog;

    #[test]
    fn optimal_on_fig1_with_pairs() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
        let brute = BruteForceSummarizer.summarize(&problem).unwrap();
        assert!((exact.utility - brute.utility).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        for seed in 0..10 {
            let r = random_relation(seed, 80, &[("a", 3), ("b", 4)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
            let brute = BruteForceSummarizer.summarize(&problem).unwrap();
            assert!(
                (exact.utility - brute.utility).abs() < 1e-9,
                "seed {seed}: exact {} vs brute {}",
                exact.utility,
                brute.utility
            );
        }
    }

    #[test]
    fn all_pruning_configurations_agree() {
        for seed in 20..25 {
            let r = random_relation(seed, 60, &[("a", 3), ("b", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let paper = ExactSummarizer::paper().summarize(&problem).unwrap();
            let no_bounds = ExactSummarizer::without_bound_pruning()
                .summarize(&problem)
                .unwrap();
            let tight = ExactSummarizer::with_tight_bounds()
                .summarize(&problem)
                .unwrap();
            assert!(
                (paper.utility - no_bounds.utility).abs() < 1e-9,
                "seed {seed}"
            );
            assert!((paper.utility - tight.utility).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn bound_pruning_reduces_search_effort() {
        let r = random_relation(42, 150, &[("a", 5), ("b", 5)]);
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let pruned = ExactSummarizer::paper().summarize(&problem).unwrap();
        let unpruned = ExactSummarizer::without_bound_pruning()
            .summarize(&problem)
            .unwrap();
        assert!(
            pruned.instrumentation.nodes_expanded < unpruned.instrumentation.nodes_expanded,
            "pruned {} vs unpruned {}",
            pruned.instrumentation.nodes_expanded,
            unpruned.instrumentation.nodes_expanded
        );
        // Tight bounds prune at least as hard as S.U bounds.
        let tight = ExactSummarizer::with_tight_bounds()
            .summarize(&problem)
            .unwrap();
        assert!(tight.instrumentation.nodes_expanded <= pruned.instrumentation.nodes_expanded);
    }

    #[test]
    fn exact_at_least_greedy() {
        for seed in 30..36 {
            let r = random_relation(seed, 100, &[("a", 4), ("b", 3), ("c", 2)]);
            let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
            let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
            assert!(exact.utility >= greedy.utility - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn zero_time_budget_times_out_with_greedy_fallback() {
        let r = random_relation(77, 400, &[("a", 8), ("b", 8), ("c", 8)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let summary = ExactSummarizer::with_time_budget(std::time::Duration::ZERO)
            .summarize(&problem)
            .unwrap();
        assert!(summary.timed_out);
        // The greedy seed still provides a valid speech.
        let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
        assert!(summary.utility >= greedy.utility - 1e-9);
        assert!(!greedy.timed_out);
    }

    #[test]
    fn expired_external_deadline_times_out_with_greedy_fallback() {
        let r = random_relation(79, 400, &[("a", 8), ("b", 8), ("c", 8)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        // No configured budget — the external serving deadline alone
        // must stop the search.
        let summary = ExactSummarizer::paper()
            .summarize_by(&problem, Some(std::time::Instant::now()))
            .unwrap();
        assert!(summary.timed_out);
        let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
        assert!(summary.utility >= greedy.utility - 1e-9);
    }

    #[test]
    fn external_deadline_tightens_own_budget() {
        let r = random_relation(80, 400, &[("a", 8), ("b", 8), ("c", 8)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        // A generous configured budget paired with an already-expired
        // external deadline: the tighter of the two wins.
        let summary = ExactSummarizer::with_time_budget(std::time::Duration::from_secs(3600))
            .summarize_by(&problem, Some(std::time::Instant::now()))
            .unwrap();
        assert!(summary.timed_out);
    }

    #[test]
    fn parallel_zero_time_budget_times_out() {
        let r = random_relation(78, 400, &[("a", 8), ("b", 8), ("c", 8)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let summarizer = ExactSummarizer {
            time_budget: Some(std::time::Duration::ZERO),
            workers: 4,
            fan_out_threshold: 0,
            ..ExactSummarizer::paper()
        };
        let summary = summarizer.summarize(&problem).unwrap();
        assert!(summary.timed_out);
        let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
        assert!(summary.utility >= greedy.utility - 1e-9);
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        for seed in 50..56 {
            let r = random_relation(seed, 120, &[("a", 4), ("b", 4), ("c", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let sequential = ExactSummarizer::paper().summarize(&problem).unwrap();
            for workers in [2usize, 4, 8] {
                // Threshold 0 forces actual fan-out on these small
                // instances; workers 2 exercises whole-branch units and
                // workers 8 the depth-2 sub-branch decomposition.
                let parallel = ExactSummarizer {
                    workers,
                    fan_out_threshold: 0,
                    ..ExactSummarizer::paper()
                }
                .summarize(&problem)
                .unwrap();
                assert_eq!(
                    parallel.utility.to_bits(),
                    sequential.utility.to_bits(),
                    "seed {seed} workers {workers}"
                );
                assert_eq!(
                    parallel.speech.facts(),
                    sequential.speech.facts(),
                    "seed {seed} workers {workers}"
                );
                assert_eq!(parallel.timed_out, sequential.timed_out);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_without_seed_or_with_tight_bounds() {
        for seed in 60..63 {
            let r = random_relation(seed, 80, &[("a", 3), ("b", 4)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            for base in [
                ExactSummarizer::without_bound_pruning(),
                ExactSummarizer::with_tight_bounds(),
            ] {
                let sequential = base.clone().summarize(&problem).unwrap();
                let parallel = ExactSummarizer {
                    workers: 8,
                    fan_out_threshold: 0,
                    ..base.clone()
                }
                .summarize(&problem)
                .unwrap();
                assert_eq!(
                    parallel.utility.to_bits(),
                    sequential.utility.to_bits(),
                    "seed {seed}"
                );
                assert_eq!(
                    parallel.speech.facts(),
                    sequential.speech.facts(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn worker_zero_resolves_to_available_parallelism() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 2).unwrap();
        let auto = ExactSummarizer {
            workers: 0,
            fan_out_threshold: 0,
            ..ExactSummarizer::paper()
        }
        .summarize(&problem)
        .unwrap();
        let sequential = ExactSummarizer::paper().summarize(&problem).unwrap();
        assert_eq!(auto.utility.to_bits(), sequential.utility.to_bits());
        assert_eq!(auto.speech.facts(), sequential.speech.facts());
    }

    #[test]
    fn handles_budget_exceeding_catalog() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[], 0).unwrap();
        let problem = Problem::new(&r, &catalog, 4).unwrap();
        let summary = ExactSummarizer::paper().summarize(&problem).unwrap();
        assert_eq!(summary.speech.len(), 1);
        let parallel = ExactSummarizer::with_workers(8)
            .summarize(&problem)
            .unwrap();
        assert_eq!(parallel.speech.facts(), summary.speech.facts());
    }

    #[test]
    fn unit_map_pairs_covers_every_prefix_once() {
        for n in 1..12usize {
            let units = UnitMap::pairs(n);
            assert_eq!(
                units.total(),
                (0..n).map(|i| (n - 1 - i).max(1)).sum::<usize>()
            );
            let mut seen = std::collections::HashSet::new();
            for unit in 0..units.total() {
                let (branch, sub) = units.decode(unit);
                assert!(branch < n, "unit {unit} decoded past branch range");
                let idx = branch + 1 + sub;
                assert!(idx <= n, "unit {unit} decoded past candidate range");
                assert!(seen.insert((branch, sub)), "duplicate unit {unit}");
            }
            // Every (i, j) prefix appears, plus the last branch's sentinel.
            for i in 0..n {
                for j in i + 1..n {
                    assert!(seen.contains(&(i, j - i - 1)), "missing prefix ({i},{j})");
                }
            }
            assert!(
                seen.contains(&(n - 1, 0)),
                "missing sentinel of branch {}",
                n - 1
            );
            let flat = UnitMap::branches(n);
            assert_eq!(flat.total(), n);
            for unit in 0..n {
                assert_eq!(flat.decode(unit), (unit, 0));
            }
        }
    }

    /// The adaptive gate: a parallel request below the threshold resolves
    /// to a plain sequential run — *fully* identical to `workers: 1`,
    /// including every instrumentation counter (the parallel scheme's
    /// counters are approximate, the sequential ones exact).
    #[test]
    fn fan_out_gate_resolves_small_parallel_requests_sequentially() {
        let r = random_relation(91, 120, &[("a", 4), ("b", 4), ("c", 3)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        // facts × m is well under the default threshold here.
        assert!(catalog.len() * 3 < DEFAULT_FAN_OUT_THRESHOLD);
        let sequential = ExactSummarizer::paper().summarize(&problem).unwrap();
        let gated = ExactSummarizer::with_workers(8)
            .summarize(&problem)
            .unwrap();
        assert_eq!(gated.utility.to_bits(), sequential.utility.to_bits());
        assert_eq!(gated.speech.facts(), sequential.speech.facts());
        assert_eq!(gated.timed_out, sequential.timed_out);
        assert_eq!(gated.instrumentation, sequential.instrumentation);
    }

    /// Forcing the sub-branch (depth-2) decomposition — many workers on
    /// few branches — still returns the sequential speech byte-for-byte.
    #[test]
    fn sub_branch_stealing_preserves_byte_identity() {
        for seed in 70..76 {
            let r = random_relation(seed, 100, &[("a", 3), ("b", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 4).unwrap();
            let sequential = ExactSummarizer::paper().summarize(&problem).unwrap();
            // With workers ≥ facts/16 the unit map switches to pairs.
            let parallel = ExactSummarizer {
                workers: 8,
                fan_out_threshold: 0,
                ..ExactSummarizer::paper()
            }
            .summarize(&problem)
            .unwrap();
            assert_eq!(
                parallel.utility.to_bits(),
                sequential.utility.to_bits(),
                "seed {seed}"
            );
            assert_eq!(
                parallel.speech.facts(),
                sequential.speech.facts(),
                "seed {seed}"
            );
        }
    }

    /// A custom executor stands in for the engine's pool: the search must
    /// route its fan-out through it (not spawn scoped threads itself) and
    /// stay byte-identical.
    #[test]
    fn custom_executor_carries_the_fan_out() {
        use std::sync::atomic::AtomicUsize;

        struct CountingExecutor {
            batches: AtomicUsize,
            tasks: AtomicUsize,
        }
        impl SearchExecutor for CountingExecutor {
            fn max_workers(&self) -> usize {
                4
            }
            fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.tasks.fetch_add(tasks, Ordering::Relaxed);
                for i in 0..tasks {
                    task(i);
                }
            }
        }

        let r = random_relation(55, 120, &[("a", 4), ("b", 4), ("c", 3)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let sequential = ExactSummarizer::paper().summarize(&problem).unwrap();
        let executor = Arc::new(CountingExecutor {
            batches: AtomicUsize::new(0),
            tasks: AtomicUsize::new(0),
        });
        let summarizer = ExactSummarizer {
            workers: 0, // resolve from the executor
            fan_out_threshold: 0,
            ..ExactSummarizer::paper()
        }
        .on_executor(Arc::clone(&executor) as Arc<dyn SearchExecutor>);
        let parallel = summarizer.summarize(&problem).unwrap();
        assert_eq!(parallel.utility.to_bits(), sequential.utility.to_bits());
        assert_eq!(parallel.speech.facts(), sequential.speech.facts());
        // The fan-out rode the executor (phase 2 is skipped entirely
        // when the greedy seed is already optimal, so ≥ 1 batch).
        let batches = executor.batches.load(Ordering::Relaxed);
        assert!((1..=2).contains(&batches), "batches {batches}");
        assert!(executor.tasks.load(Ordering::Relaxed) <= 8);
        assert!(executor.tasks.load(Ordering::Relaxed) >= 2);
    }
}
