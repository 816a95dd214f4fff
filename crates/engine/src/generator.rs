//! The Problem Generator and batch pre-processing stage (§III).
//!
//! "The Problem Generator creates one query for each combination of a
//! target column and a subset of equality predicates, considering all
//! possible combinations of equality predicates up to the query length.
//! For each such query, we generate a speech summarizing values in the
//! target column for the data subset defined by the query predicates."
//!
//! Pre-processing is embarrassingly parallel across queries. The batch
//! runner flattens every (target, query) pair into one job list and
//! fans workers out over a shared atomic work queue: each worker steals
//! the next unclaimed job index, so an expensive problem never leaves a
//! whole static chunk idle behind it. Results are re-ordered by job
//! index before they touch the store, which makes the output (and the
//! merged [`Instrumentation`] totals) independent of the worker count.
//!
//! `refresh_with` (driving [`crate::service::VoiceService::refresh_tenant`])
//! is the delta path for streaming updates: it recomputes
//! only the queries whose data subset changed, keeps every other stored
//! speech pointer-stable, and drops queries whose value combination
//! disappeared from the data.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vqs_core::prelude::*;
use vqs_data::GeneratedDataset;
use vqs_relalg::hash::{FxHashMap, FxHashSet};
use vqs_relalg::prelude::Table;

use crate::config::Configuration;
use crate::error::{EngineError, Result};
use crate::problem::{NamedFact, Query, StoredSpeech};
use crate::service::{ScatterPriority, SolverPool};
use crate::store::SpeechStore;
use crate::template::SpeechTemplate;

/// One pre-processing work item: a query and the rows of its data subset.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// The query to answer.
    pub query: Query,
    /// Row indexes of the subset within the target's relation.
    pub rows: Vec<usize>,
}

/// Aggregate report of one pre-processing run (feeds Fig. 10's
/// per-query pre-processing time).
#[derive(Debug, Clone, Default)]
pub struct PreprocessReport {
    /// Queries generated (= speeches attempted).
    pub queries: usize,
    /// Speeches stored.
    pub speeches: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
    /// Summed wall-clock time spent inside the solver across all queries
    /// (CPU-side effort; exceeds `elapsed` when workers solve in
    /// parallel).
    pub solver_time: Duration,
    /// Summed work counters across all problems, merged in job order
    /// from the per-worker partials.
    pub instrumentation: Instrumentation,
}

impl PreprocessReport {
    /// Average pre-processing time per query.
    pub fn per_query(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.elapsed / self.queries as u32
        }
    }

    /// Total wall-clock time spent solving summarization problems, summed
    /// over all queries and workers.
    pub fn total_solver_time(&self) -> Duration {
        self.solver_time
    }
}

/// Aggregate report of one refresh run (see
/// [`crate::service::VoiceService::refresh_tenant`]).
#[derive(Debug, Clone, Default)]
pub struct RefreshReport {
    /// Queries enumerated over the new data (across all targets).
    pub queries: usize,
    /// Queries whose speech was recomputed.
    pub recomputed: usize,
    /// Queries whose stored speech was kept untouched.
    pub kept: usize,
    /// Stored queries removed because their value combination no longer
    /// occurs in the data.
    pub removed: usize,
    /// Wall-clock time of the whole refresh.
    pub elapsed: Duration,
    /// Summed wall-clock solver time of the recomputed problems.
    pub solver_time: Duration,
    /// Summed work counters of the recomputed problems only.
    pub instrumentation: Instrumentation,
}

/// Build the per-target relation with the paper's prior: "the average
/// value in the target column as a (constant) prior" — the *global*
/// average, kept constant across subsets.
pub fn target_relation(
    dataset: &GeneratedDataset,
    config: &Configuration,
    target: &str,
) -> Result<EncodedRelation> {
    table_relation(&dataset.table, config, target)
}

/// [`target_relation`] over a bare table (the respond path's live tier
/// holds a projected [`Table`], not the original dataset).
pub(crate) fn table_relation(
    table: &Table,
    config: &Configuration,
    target: &str,
) -> Result<EncodedRelation> {
    for dim in &config.dimensions {
        if table.schema().index_of(dim).is_err() {
            return Err(EngineError::MissingColumn {
                column: dim.clone(),
            });
        }
    }
    if table.schema().index_of(target).is_err() {
        return Err(EngineError::MissingColumn {
            column: target.to_string(),
        });
    }
    let dims: Vec<&str> = config.dimensions.iter().map(String::as_str).collect();
    let relation = EncodedRelation::from_table(table, &dims, target, Prior::Constant(0.0))?;
    let mean = relation.target_mean();
    Ok(relation.with_prior(Prior::Constant(mean))?)
}

/// Enumerate every query for one target: all predicate-dimension subsets
/// up to the configured length, with every value combination appearing in
/// the data (§III).
pub fn enumerate_queries(
    relation: &EncodedRelation,
    config: &Configuration,
    target: &str,
) -> Vec<WorkItem> {
    let dim_count = relation.dim_count();
    let mut items = Vec::new();
    // The admissible dimension subsets come from `vqs_core::delta`, the
    // same definitions the streaming invalidation circuit maps deltas
    // through — keeping "what exists" and "what a delta can dirty" in
    // exact agreement.
    for mask in subset_masks(dim_count, config.max_query_length) {
        let dims = mask_dims(mask);
        let partition = RowPartition::new(relation, &dims);
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); partition.len()];
        for (row, &combo) in partition.of_row.iter().enumerate() {
            rows[combo as usize].push(row);
        }
        // Lexicographic order of the code tuples: jobs, and with them the
        // store's insertion order, follow it.
        let codes = |combo: usize| row_codes(relation, &dims, partition.first_row[combo]);
        let mut order: Vec<usize> = (0..partition.len()).collect();
        order.sort_unstable_by(|&a, &b| codes(a).cmp(codes(b)));
        for combo in order {
            let predicates: Vec<(String, String)> = dims
                .iter()
                .zip(codes(combo))
                .map(|(&d, code)| {
                    let dim = &relation.dims()[d];
                    (dim.name.clone(), dim.values[code as usize].to_string())
                })
                .collect();
            items.push(WorkItem {
                query: Query::new(target.to_string(), predicates),
                rows: std::mem::take(&mut rows[combo]),
            });
        }
    }
    items
}

/// The codes of `row` on `dims`, in order.
fn row_codes<'a>(
    relation: &'a EncodedRelation,
    dims: &'a [usize],
    row: u32,
) -> impl Iterator<Item = u32> + 'a {
    dims.iter().map(move |&d| relation.code(d, row as usize))
}

/// The paper's exact summarizer configured for this deployment: each
/// solver invocation fans its branch-and-bound search over
/// [`Configuration::solver_workers`] threads (default 1 — the
/// pre-processing pool already parallelizes across queries; raise it when
/// single huge instances dominate or when solving interactively). The
/// stored speeches are byte-identical for every worker count.
pub fn configured_exact(config: &Configuration) -> ExactSummarizer {
    ExactSummarizer {
        workers: config.solver_workers,
        ..ExactSummarizer::paper()
    }
}

/// [`configured_exact`] with its inner branch-and-bound fan-out routed
/// through `executor` (the service installs its shared [`SolverPool`]
/// here, so searches reuse the long-lived workers instead of spawning
/// scoped threads per search). Searches that are themselves running on a
/// pool worker — every pre-processing job — execute their batch inline,
/// so the nesting cannot deadlock and the cross-query parallelism stays
/// in charge. Stored speeches remain byte-identical to the scoped and
/// sequential paths.
pub fn configured_exact_on(
    config: &Configuration,
    executor: std::sync::Arc<dyn SearchExecutor>,
) -> ExactSummarizer {
    configured_exact(config).on_executor(executor)
}

/// The cells of a target relation: its rows partitioned on every
/// configured dimension, shared by the fact catalogs of all its queries.
pub fn target_cells(relation: &EncodedRelation) -> RowPartition {
    let dims: Vec<usize> = (0..relation.dim_count()).collect();
    RowPartition::new(relation, &dims)
}

/// Solve one work item into a stored speech; `cells` are the relation's
/// [`target_cells`].
pub fn solve_item<S: Summarizer + ?Sized>(
    relation: &EncodedRelation,
    cells: &RowPartition,
    config: &Configuration,
    summarizer: &S,
    template: &SpeechTemplate,
    item: &WorkItem,
) -> Result<(StoredSpeech, Instrumentation)> {
    let (speech, instrumentation, _) =
        solve_item_at(relation, cells, config, summarizer, template, item, None)?;
    Ok((speech, instrumentation))
}

/// [`solve_item`] under an external wall-clock deadline (the serving
/// path's live-solve tier). The third return value reports whether the
/// solve timed out — the speech is then the summarizer's best-so-far
/// (anytime algorithms) with no optimality guarantee.
pub(crate) fn solve_item_at<S: Summarizer + ?Sized>(
    relation: &EncodedRelation,
    cells: &RowPartition,
    config: &Configuration,
    summarizer: &S,
    template: &SpeechTemplate,
    item: &WorkItem,
    deadline: Option<Instant>,
) -> Result<(StoredSpeech, Instrumentation, bool)> {
    // Dimensions not fixed by the query remain free for fact scopes.
    let fixed: Vec<&String> = item.query.predicates().iter().map(|(d, _)| d).collect();
    let free_dims: Vec<usize> = (0..relation.dim_count())
        .filter(|&d| !fixed.iter().any(|f| **f == relation.dims()[d].name))
        .collect();
    let min_dims = usize::from(!config.include_overall_fact && !free_dims.is_empty());
    let max_dims = config.max_fact_dimensions.min(free_dims.len());
    let catalog =
        FactCatalog::build_over(relation, cells, &item.rows, &free_dims, min_dims, max_dims)?;
    let problem = Problem::new(relation, &catalog, config.speech_length)?;
    let summary = summarizer.summarize_by(&problem, deadline)?;

    let facts: Vec<NamedFact> = summary
        .speech
        .facts()
        .iter()
        .map(|fact| NamedFact {
            scope: fact
                .scope
                .pairs()
                .into_iter()
                .map(|(d, code)| {
                    let dim = &relation.dims()[d];
                    (dim.name.clone(), dim.values[code as usize].to_string())
                })
                .collect(),
            value: fact.value,
            support: fact.support,
        })
        .collect();
    let text = template.render(&item.query, &facts);
    Ok((
        StoredSpeech {
            query: item.query.clone(),
            facts,
            text,
            utility: summary.utility,
            base_error: summary.base_error,
            rows: item.rows.len(),
        },
        summary.instrumentation,
        summary.timed_out,
    ))
}

/// Solve one query live against a tenant's retained table, under the
/// request's remaining deadline — the respond path's degradation ladder.
///
/// Returns `Ok(None)` when the query cannot be solved live (a predicate
/// names an unknown dimension or value, or the subset is empty); the
/// caller then falls through to the pre-existing answer tiers. When the
/// configured summarizer times out against `deadline` (or
/// `force_timeout` simulates that, for fault injection), the solve
/// degrades to one poly-time greedy pass over the same problem and the
/// returned flag reports the degradation.
pub(crate) fn solve_live(
    table: &Table,
    config: &Configuration,
    summarizer: &dyn Summarizer,
    templates: &FxHashMap<String, SpeechTemplate>,
    query: &Query,
    deadline: Option<Instant>,
    force_timeout: bool,
) -> Result<Option<(StoredSpeech, bool)>> {
    let relation = table_relation(table, config, query.target())?;
    let mut predicates = Vec::with_capacity(query.predicates().len());
    for (dim, value) in query.predicates() {
        match relation.dim_index(dim) {
            Some(d) => predicates.push((d, value.as_str())),
            None => return Ok(None),
        }
    }
    let rows: Vec<usize> = (0..relation.len())
        .filter(|&row| {
            predicates
                .iter()
                .all(|&(d, value)| relation.value_str(d, row) == value)
        })
        .collect();
    if rows.is_empty() {
        return Ok(None);
    }
    let item = WorkItem {
        query: query.clone(),
        rows,
    };
    let template = templates
        .get(query.target())
        .cloned()
        .unwrap_or_else(|| SpeechTemplate::plain(query.target()));
    let cells = target_cells(&relation);
    if !force_timeout {
        let (speech, _, timed_out) = solve_item_at(
            &relation, &cells, config, summarizer, &template, &item, deadline,
        )?;
        if !timed_out {
            return Ok(Some((speech, false)));
        }
    }
    // The budgeted solve expired (or was forced to): one greedy pass
    // still yields a valid — merely non-optimal — speech.
    let greedy = GreedySummarizer::with_optimized_pruning();
    let (speech, _, _) = solve_item_at(&relation, &cells, config, &greedy, &template, &item, None)?;
    Ok(Some((speech, true)))
}

/// The fully-prepared pre-processing input for one target.
struct TargetPlan {
    target: String,
    relation: EncodedRelation,
    /// The relation's [`target_cells`], shared by every query's catalog.
    cells: RowPartition,
    template: SpeechTemplate,
    items: Vec<WorkItem>,
    /// Global target average, the §III constant prior.
    prior: f64,
}

/// Validate columns and enumerate the work for every configured target.
fn build_plans(
    dataset: &GeneratedDataset,
    config: &Configuration,
    templates: &FxHashMap<String, SpeechTemplate>,
) -> Result<Vec<TargetPlan>> {
    config
        .targets
        .iter()
        .map(|target| {
            let relation = target_relation(dataset, config, target)?;
            let items = enumerate_queries(&relation, config, target);
            let template = templates
                .get(target)
                .cloned()
                .unwrap_or_else(|| SpeechTemplate::plain(target));
            let prior = relation.target_mean();
            Ok(TargetPlan {
                target: target.clone(),
                cells: target_cells(&relation),
                relation,
                template,
                items,
                prior,
            })
        })
        .collect()
}

/// Run the given `(plan, item)` jobs on `pool`, queued on `priority`
/// (registrations ride [`ScatterPriority::Bulk`], delta refreshes the
/// interactive fast lane — see [`SolverPool::scatter_at`]).
///
/// Workers claim job indexes from a shared atomic counter, so load
/// balances across targets and across skewed per-query costs without
/// static chunking. Each worker accumulates results locally; the merged
/// output is sorted back into job order, making it — and therefore the
/// store contents and instrumentation totals — deterministic in the
/// worker count. On failure the error of the smallest reported job index
/// wins and the remaining workers stop early.
fn run_jobs<S: Summarizer + Sync + ?Sized>(
    plans: &[TargetPlan],
    jobs: &[(usize, usize)],
    config: &Configuration,
    summarizer: &S,
    pool: &SolverPool,
    priority: ScatterPriority,
) -> Result<(Vec<(StoredSpeech, Instrumentation)>, Duration)> {
    if jobs.is_empty() {
        return Ok((Vec::new(), Duration::ZERO));
    }
    let worker_count = pool.workers().min(jobs.len());
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    type WorkerOutput = (
        Vec<(usize, (StoredSpeech, Instrumentation))>,
        Option<(usize, EngineError)>,
        Duration,
    );
    let worker_body = |_worker: usize| -> WorkerOutput {
        let mut solved = Vec::new();
        let mut failure: Option<(usize, EngineError)> = None;
        let mut solver_time = Duration::ZERO;
        while !cancelled.load(Ordering::Relaxed) {
            let job = next.fetch_add(1, Ordering::Relaxed);
            if job >= jobs.len() {
                break;
            }
            let (plan_index, item_index) = jobs[job];
            let plan = &plans[plan_index];
            let solve_start = Instant::now();
            let outcome = solve_item(
                &plan.relation,
                &plan.cells,
                config,
                summarizer,
                &plan.template,
                &plan.items[item_index],
            );
            solver_time += solve_start.elapsed();
            match outcome {
                Ok(result) => solved.push((job, result)),
                Err(error) => {
                    failure = Some((job, error));
                    cancelled.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        (solved, failure, solver_time)
    };
    let per_worker: Vec<WorkerOutput> = pool.scatter_at(priority, worker_count, worker_body);

    let mut solved = Vec::with_capacity(jobs.len());
    let mut first_failure: Option<(usize, EngineError)> = None;
    let mut solver_time = Duration::ZERO;
    for (worker_solved, failure, worker_time) in per_worker {
        solved.extend(worker_solved);
        solver_time += worker_time;
        if let Some((index, error)) = failure {
            if first_failure.as_ref().is_none_or(|(best, _)| index < *best) {
                first_failure = Some((index, error));
            }
        }
    }
    if let Some((_, error)) = first_failure {
        return Err(error);
    }
    solved.sort_by_key(|(index, _)| *index);
    Ok((
        solved.into_iter().map(|(_, result)| result).collect(),
        solver_time,
    ))
}

/// Pre-processing on `pool`; the implementation behind
/// [`crate::service::VoiceService::register_dataset`]. Targets without
/// an entry in `templates` use [`SpeechTemplate::plain`].
pub(crate) fn preprocess_with<S: Summarizer + Sync + ?Sized>(
    dataset: &GeneratedDataset,
    config: &Configuration,
    summarizer: &S,
    templates: &FxHashMap<String, SpeechTemplate>,
    pool: &SolverPool,
    priority: ScatterPriority,
) -> Result<(SpeechStore, PreprocessReport)> {
    config.validate()?;
    let start = Instant::now();
    let plans = build_plans(dataset, config, templates)?;
    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(plan_index, plan)| (0..plan.items.len()).map(move |i| (plan_index, i)))
        .collect();
    let total_queries = jobs.len();
    let (solved, solver_time) = run_jobs(&plans, &jobs, config, summarizer, pool, priority)?;

    let store = SpeechStore::new();
    let mut instrumentation = Instrumentation::default();
    for (speech, counters) in solved {
        instrumentation.merge(&counters);
        store.insert(speech);
    }
    for plan in &plans {
        store.set_target_prior(&plan.target, plan.prior);
    }

    let speeches = store.len();
    Ok((
        store,
        PreprocessReport {
            queries: total_queries,
            speeches,
            elapsed: start.elapsed(),
            solver_time,
            instrumentation,
        },
    ))
}

/// Delta re-summarization: bring `store` up to date with `dataset` after
/// the rows in `changed_rows` were mutated, recomputing only the queries
/// whose data subset actually changed.
///
/// A query is recomputed when any of these hold:
/// - its (new) subset contains a changed row — covers changed target
///   values and rows that moved *into* the subset;
/// - its stored row count differs from the new subset size — covers rows
///   that moved *out of* the subset;
/// - it has no stored speech yet — covers value combinations newly
///   appearing in the data (or targets invalidated via
///   [`SpeechStore::invalidate_target`]);
/// - the target's global average (the §III constant prior) drifted, which
///   invalidates every speech of that target.
///
/// Stored queries whose value combination vanished are removed. All other
/// entries are left untouched — the same [`std::sync::Arc`] keeps serving
/// — so after a refresh the store is element-wise identical to a full
/// pre-processing pass over the new data.
/// Delta re-summarization on `pool`; the implementation behind
/// [`crate::service::VoiceService::refresh_tenant`]. A thin wrapper over
/// [`resummarize_with`] selecting queries by changed row membership.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refresh_with<S: Summarizer + Sync + ?Sized>(
    dataset: &GeneratedDataset,
    config: &Configuration,
    summarizer: &S,
    templates: &FxHashMap<String, SpeechTemplate>,
    store: &SpeechStore,
    changed_rows: &[usize],
    pool: &SolverPool,
    priority: ScatterPriority,
) -> Result<RefreshReport> {
    resummarize_with(
        dataset,
        config,
        summarizer,
        templates,
        store,
        Invalidation::ChangedRows(changed_rows),
        pool,
        priority,
    )
}

/// A normalized (sorted) predicate list identifying one value
/// combination, exactly as [`Query::predicates`] stores them.
pub(crate) type DirtyKey = Vec<(String, String)>;

/// How a re-summarization pass decides which live queries are dirty.
///
/// Both the batch refresh path and the streaming ingest circuit funnel
/// through [`resummarize_with`] with one of these selectors, so the two
/// paths cannot diverge on invalidation semantics.
pub(crate) enum Invalidation<'a> {
    /// Row indexes (into the *new* data) that were mutated — the batch
    /// `refresh` contract: any query whose subset contains a changed row
    /// is recomputed.
    ChangedRows(&'a [usize]),
    /// Exact dirty predicate-combination keys produced by the streaming
    /// invalidation circuit. Keys are normalized (sorted) predicate
    /// lists, exactly as [`Query::predicates`] stores them: `all`
    /// applies to every target (dimension-membership changes), the
    /// per-target sets only to queries of that target (target-value
    /// changes that left the global mean bit-identical).
    DirtyKeys {
        /// Combinations dirtied for every target.
        all: &'a FxHashSet<DirtyKey>,
        /// Combinations dirtied for a single target only.
        by_target: &'a FxHashMap<String, FxHashSet<DirtyKey>>,
    },
}

/// The shared re-summarization core: bring `store` up to date with
/// `dataset`, recomputing only the queries `invalidation` marks dirty
/// (plus the safety-net cases below), removing stored queries whose
/// value combination vanished, and leaving every other entry
/// `Arc`-pointer-stable. The store is only mutated after *every* dirty
/// query solved, so a failed pass leaves it untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resummarize_with<S: Summarizer + Sync + ?Sized>(
    dataset: &GeneratedDataset,
    config: &Configuration,
    summarizer: &S,
    templates: &FxHashMap<String, SpeechTemplate>,
    store: &SpeechStore,
    invalidation: Invalidation<'_>,
    pool: &SolverPool,
    priority: ScatterPriority,
) -> Result<RefreshReport> {
    config.validate()?;
    let start = Instant::now();
    let plans = build_plans(dataset, config, templates)?;

    let mut queries = 0usize;
    let mut kept = 0usize;
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    let mut stale: Vec<Query> = Vec::new();
    for (plan_index, plan) in plans.iter().enumerate() {
        queries += plan.items.len();
        let changed: Option<Vec<bool>> = match &invalidation {
            Invalidation::ChangedRows(rows) => {
                let mut flags = vec![false; plan.relation.len()];
                for &row in rows.iter() {
                    if row < flags.len() {
                        flags[row] = true;
                    }
                }
                Some(flags)
            }
            Invalidation::DirtyKeys { .. } => None,
        };
        // The prior is recomputed deterministically from the data, so an
        // unchanged target column reproduces it bit-for-bit; any other
        // value means every kept speech of this target would embed a
        // stale prior.
        let prior_drifted = match store.target_prior(&plan.target) {
            Some(old) => old.to_bits() != plan.prior.to_bits(),
            None => true,
        };
        // Note stored queries whose value combination no longer occurs;
        // actual removal is deferred until solving has succeeded so a
        // failed refresh never leaves a live store partially mutated.
        let live: FxHashSet<&Query> = plan.items.iter().map(|item| &item.query).collect();
        for speech in store.speeches_for_target(&plan.target) {
            if !live.contains(&speech.query) {
                stale.push(speech.query.clone());
            }
        }
        for (item_index, item) in plan.items.iter().enumerate() {
            let data_dirty = match &invalidation {
                Invalidation::ChangedRows(_) => {
                    let flags = changed.as_ref().expect("flags built for ChangedRows");
                    item.rows.iter().any(|&row| flags[row])
                }
                Invalidation::DirtyKeys { all, by_target } => {
                    let key: &[(String, String)] = item.query.predicates();
                    all.contains(key)
                        || by_target
                            .get(&plan.target)
                            .is_some_and(|set| set.contains(key))
                }
            };
            // The stored-speech checks are a safety net shared by both
            // selectors: a missing entry covers combinations newly
            // appearing in the data (or targets invalidated wholesale),
            // a row-count mismatch covers rows that moved out of the
            // subset.
            let affected = prior_drifted
                || data_dirty
                || store
                    .get(&item.query)
                    .is_none_or(|existing| existing.rows != item.rows.len());
            if affected {
                jobs.push((plan_index, item_index));
            } else {
                kept += 1;
            }
        }
    }

    let (solved, solver_time) = run_jobs(&plans, &jobs, config, summarizer, pool, priority)?;
    // Everything solved: from here on the store mutates without fallible
    // steps in between.
    let removed = stale.len();
    for query in &stale {
        store.remove(query);
    }
    let recomputed = solved.len();
    let mut instrumentation = Instrumentation::default();
    for (speech, counters) in solved {
        instrumentation.merge(&counters);
        store.insert(speech);
    }
    for plan in &plans {
        store.set_target_prior(&plan.target, plan.prior);
    }

    Ok(RefreshReport {
        queries,
        recomputed,
        kept,
        removed,
        elapsed: start.elapsed(),
        solver_time,
        instrumentation,
    })
}

// These tests drive `preprocess_with`/`refresh_with` on small private
// pools; the facade path is covered by `service::tests` and the
// `vqs-integration` service suite.
#[cfg(test)]
mod tests {
    use super::*;
    use vqs_data::{DimSpec, SynthSpec, TargetSpec};

    /// [`preprocess_with`] with plain templates on `pool`'s bulk lane.
    fn preprocess<S: Summarizer + Sync + ?Sized>(
        dataset: &GeneratedDataset,
        config: &Configuration,
        summarizer: &S,
        pool: &SolverPool,
    ) -> Result<(SpeechStore, PreprocessReport)> {
        preprocess_with(
            dataset,
            config,
            summarizer,
            &FxHashMap::default(),
            pool,
            ScatterPriority::Bulk,
        )
    }

    /// [`refresh_with`] with plain templates on `pool`'s interactive lane.
    fn refresh<S: Summarizer + Sync + ?Sized>(
        dataset: &GeneratedDataset,
        config: &Configuration,
        summarizer: &S,
        pool: &SolverPool,
        store: &SpeechStore,
        changed_rows: &[usize],
    ) -> Result<RefreshReport> {
        refresh_with(
            dataset,
            config,
            summarizer,
            &FxHashMap::default(),
            store,
            changed_rows,
            pool,
            ScatterPriority::Interactive,
        )
    }

    fn tiny_dataset() -> GeneratedDataset {
        SynthSpec {
            name: "tiny".to_string(),
            dims: vec![
                DimSpec::named("season", &["Winter", "Summer"]),
                DimSpec::named("region", &["East", "West", "North"]),
            ],
            targets: vec![
                TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
                TargetSpec::new("cancelled", 30.0, 10.0, 4.0, (0.0, 1000.0)),
            ],
            rows: 300,
        }
        .generate(11, 1.0)
    }

    fn config() -> Configuration {
        Configuration::new("tiny", &["season", "region"], &["delay", "cancelled"])
    }

    #[test]
    fn enumerates_all_present_combinations() {
        let data = tiny_dataset();
        let relation = target_relation(&data, &config(), "delay").unwrap();
        let items = enumerate_queries(&relation, &config(), "delay");
        // 1 empty + 2 seasons + 3 regions + 6 pairs = 12 (all combos occur
        // in 300 rows with overwhelming probability).
        assert_eq!(items.len(), 12);
        // Every subset is consistent with its predicates.
        for item in &items {
            assert!(!item.rows.is_empty());
            for (d, v) in item.query.predicates() {
                let dim = relation.dim_index(d).unwrap();
                for &row in &item.rows {
                    assert_eq!(relation.value_str(dim, row), v.as_str());
                }
            }
        }
        // Subsets of the same dimension set partition the rows.
        let season_rows: usize = items
            .iter()
            .filter(|i| i.query.len() == 1 && i.query.predicates()[0].0 == "season")
            .map(|i| i.rows.len())
            .sum();
        assert_eq!(season_rows, relation.len());
    }

    #[test]
    fn query_length_limit_respected() {
        let data = tiny_dataset();
        let mut cfg = config();
        cfg.max_query_length = 1;
        let relation = target_relation(&data, &cfg, "delay").unwrap();
        let items = enumerate_queries(&relation, &cfg, "delay");
        assert!(items.iter().all(|i| i.query.len() <= 1));
        assert_eq!(items.len(), 6);
    }

    #[test]
    fn preprocess_fills_store() {
        let data = tiny_dataset();
        let cfg = config();
        let summarizer = GreedySummarizer::with_optimized_pruning();
        let (store, report) = preprocess(&data, &cfg, &summarizer, &SolverPool::new(0)).unwrap();
        // Two targets × 12 queries.
        assert_eq!(report.queries, 24);
        assert_eq!(report.speeches, 24);
        assert_eq!(store.len(), 24);
        assert!(report.per_query() > Duration::ZERO);
        // Solver effort is accounted per item, so it is positive and at
        // least roughly commensurate with the wall clock of a serial run.
        assert!(report.total_solver_time() > Duration::ZERO);
        // Every stored speech has at most speech_length facts and text.
        for query in store.queries() {
            let speech = store.get(&query).unwrap();
            assert!(speech.facts.len() <= cfg.speech_length);
            assert!(!speech.text.is_empty());
            assert!(speech.utility >= -1e-9);
        }
        // The constant prior is recorded per target for later refreshes.
        let relation = target_relation(&data, &cfg, "delay").unwrap();
        assert_eq!(store.target_prior("delay"), Some(relation.target_mean()));
    }

    #[test]
    fn single_worker_matches_parallel() {
        let data = tiny_dataset();
        let cfg = config();
        let summarizer = GreedySummarizer::base();
        let (s1, r1) = preprocess(&data, &cfg, &summarizer, &SolverPool::new(1)).unwrap();
        let (s2, r2) = preprocess(&data, &cfg, &summarizer, &SolverPool::new(8)).unwrap();
        assert_eq!(s1.len(), s2.len());
        assert_eq!(s1.snapshot(), s2.snapshot());
        assert_eq!(r1.instrumentation, r2.instrumentation);
        for query in s1.queries() {
            let a = s1.get(&query).unwrap();
            let b = s2.get(&query).unwrap();
            assert!((a.utility - b.utility).abs() < 1e-9, "{query}");
        }
    }

    #[test]
    fn configured_exact_store_is_identical_for_any_solver_worker_count() {
        let data = tiny_dataset();
        let mut cfg = config();
        let pool = SolverPool::new(2);
        cfg.solver_workers = 1;
        let (serial, _) = preprocess(&data, &cfg, &configured_exact(&cfg), &pool).unwrap();
        cfg.solver_workers = 8;
        let solver = configured_exact(&cfg);
        assert_eq!(solver.workers, 8);
        let (parallel, _) = preprocess(&data, &cfg, &solver, &pool).unwrap();
        assert_eq!(serial.snapshot(), parallel.snapshot());
        // Exact speeches are at least as good as greedy's.
        let (greedy, _) =
            preprocess(&data, &cfg, &GreedySummarizer::base(), &SolverPool::new(0)).unwrap();
        for query in greedy.queries() {
            let g = greedy.get(&query).unwrap();
            let e = parallel.get(&query).unwrap();
            assert!(e.utility >= g.utility - 1e-9, "{query}");
        }
    }

    #[test]
    fn missing_columns_reported() {
        let data = tiny_dataset();
        let bad = Configuration::new("tiny", &["season", "nonexistent"], &["delay"]);
        let err =
            preprocess(&data, &bad, &GreedySummarizer::base(), &SolverPool::new(0)).unwrap_err();
        assert!(matches!(err, EngineError::MissingColumn { .. }));
    }

    #[test]
    fn full_length_queries_get_overall_fact_only_when_no_free_dims() {
        let data = tiny_dataset();
        let mut cfg = config();
        cfg.max_query_length = 2; // queries can fix both dimensions
        cfg.include_overall_fact = false;
        let (store, _) =
            preprocess(&data, &cfg, &GreedySummarizer::base(), &SolverPool::new(2)).unwrap();
        // A query fixing both dims has no free dimensions; its only
        // candidate fact is the subset average.
        let q = store
            .queries()
            .into_iter()
            .find(|q| q.len() == 2 && q.target() == "delay")
            .unwrap();
        let speech = store.get(&q).unwrap();
        assert_eq!(speech.facts.len(), 1);
        assert!(speech.facts[0].scope.is_empty());
    }

    #[test]
    fn refresh_with_no_changes_keeps_every_entry() {
        let data = tiny_dataset();
        let cfg = config();
        let summarizer = GreedySummarizer::with_optimized_pruning();
        let pool = SolverPool::new(0);
        let (store, _) = preprocess(&data, &cfg, &summarizer, &pool).unwrap();
        let before = store.snapshot();
        let report = refresh(&data, &cfg, &summarizer, &pool, &store, &[]).unwrap();
        assert_eq!(report.recomputed, 0);
        assert_eq!(report.kept, report.queries);
        assert_eq!(report.removed, 0);
        let after = store.snapshot();
        assert_eq!(before, after);
        // Untouched entries are pointer-stable, not just value-stable.
        for (a, b) in before.iter().zip(&after) {
            assert!(std::sync::Arc::ptr_eq(a, b), "{}", a.query);
        }
    }

    #[test]
    fn refresh_recomputes_invalidated_target_only() {
        let data = tiny_dataset();
        let cfg = config();
        let summarizer = GreedySummarizer::with_optimized_pruning();
        let pool = SolverPool::new(0);
        let (store, _) = preprocess(&data, &cfg, &summarizer, &pool).unwrap();
        let cancelled_before = store.snapshot();
        assert_eq!(store.invalidate_target("delay"), 12);
        let report = refresh(&data, &cfg, &summarizer, &pool, &store, &[]).unwrap();
        assert_eq!(report.recomputed, 12);
        assert_eq!(report.kept, 12);
        assert_eq!(store.len(), 24);
        // The untouched target kept its exact Arcs.
        for speech in cancelled_before
            .iter()
            .filter(|s| s.query.target() == "cancelled")
        {
            let now = store.get(&speech.query).unwrap();
            assert!(std::sync::Arc::ptr_eq(speech, &now), "{}", speech.query);
        }
    }

    /// Fails on every query whose subset contains a marked row, letting
    /// tests inject solver errors mid-batch.
    struct FailingSummarizer {
        fail_on_row: usize,
    }

    impl Summarizer for FailingSummarizer {
        fn name(&self) -> &'static str {
            "FAIL"
        }

        fn summarize(&self, problem: &Problem<'_>) -> vqs_core::error::Result<Summary> {
            let _ = problem;
            Err(vqs_core::error::CoreError::InvalidProblem {
                detail: format!("injected failure (row {})", self.fail_on_row),
            })
        }
    }

    #[test]
    fn failed_refresh_leaves_store_untouched() {
        let data = tiny_dataset();
        let cfg = config();
        let summarizer = GreedySummarizer::with_optimized_pruning();
        let pool = SolverPool::new(0);
        let (store, _) = preprocess(&data, &cfg, &summarizer, &pool).unwrap();
        let before = store.snapshot();
        // Force recomputation of everything, with a solver that always
        // errors: the refresh must fail without mutating the store —
        // no removals, no partial inserts, no prior updates.
        store.set_target_prior("delay", -1.0);
        store.set_target_prior("cancelled", -1.0);
        let err = refresh(
            &data,
            &cfg,
            &FailingSummarizer { fail_on_row: 0 },
            &pool,
            &store,
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Core(_)));
        let after = store.snapshot();
        assert_eq!(before, after);
        for (a, b) in before.iter().zip(&after) {
            assert!(std::sync::Arc::ptr_eq(a, b), "{}", a.query);
        }
        // A subsequent successful refresh recovers fully.
        let report = refresh(&data, &cfg, &summarizer, &pool, &store, &[]).unwrap();
        assert_eq!(report.recomputed, 24);
        assert_eq!(store.snapshot().len(), 24);
    }

    #[test]
    fn refresh_on_empty_store_equals_preprocess() {
        let data = tiny_dataset();
        let cfg = config();
        let summarizer = GreedySummarizer::with_optimized_pruning();
        let pool = SolverPool::new(0);
        let (reference, _) = preprocess(&data, &cfg, &summarizer, &pool).unwrap();
        let store = SpeechStore::new();
        let report = refresh(&data, &cfg, &summarizer, &pool, &store, &[]).unwrap();
        assert_eq!(report.recomputed, 24);
        assert_eq!(report.kept, 0);
        assert_eq!(store.snapshot(), reference.snapshot());
    }
}
