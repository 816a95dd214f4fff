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
//! `resummarize_with` is the one path by which speeches reach a store: it
//! builds the tenant's next store from the published one, solving the
//! queries whose data subset changed, carrying every other published
//! speech over pointer-stable, and leaving out queries whose value
//! combination disappeared from the data. A registration runs it against
//! an empty store, where every query is new. The batch refresh
//! ([`crate::service::VoiceService::refresh_tenant`]) and the streaming
//! ingest flush run it with the rows that changed: the refresh passes its
//! caller's, the flush its delta log's record. Enumeration maps those rows
//! to their cells and flags every query whose subset holds one. The
//! service publishes the result; no store is written once published.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vqs_core::prelude::*;
use vqs_data::GeneratedDataset;
use vqs_relalg::hash::FxHashMap;
use vqs_relalg::prelude::Table;

use crate::config::Configuration;
use crate::error::{EngineError, Result};
use crate::problem::{NamedFact, Predicate, Query, StoredSpeech};
use crate::service::{ScatterPriority, SolverPool};
use crate::store::SpeechStore;
use crate::template::SpeechTemplate;

/// One pre-processing work item: a query and the rows of its data subset.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// The query to answer.
    pub query: Query,
    /// Row indexes of the subset within the target's relation, ascending.
    /// They do not depend on the target, so the items of a tenant's
    /// further targets share the first target's lists.
    pub rows: Arc<[u32]>,
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
    /// Wall-clock time of the serial set-up before the solves (part of
    /// `elapsed`): coding the first target's relation, partitioning its
    /// cells and enumerating its queries, then re-targeting that relation
    /// for every further target, whose queries share the row lists.
    pub plan_time: Duration,
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

/// Aggregate report of one re-summarization pass, as
/// [`crate::service::VoiceService::refresh_tenant`] returns it. A
/// registration and an ingest flush run the same pass and report it as a
/// [`PreprocessReport`] and a [`crate::ingest::FlushReport`].
#[derive(Debug, Clone, Default)]
pub struct RefreshReport {
    /// Queries enumerated over the new data (across all targets).
    pub queries: usize,
    /// Queries whose speech was recomputed.
    pub recomputed: usize,
    /// Queries whose published speech the next store keeps (the same
    /// `Arc`).
    pub kept: usize,
    /// Published queries the next store leaves out because their value
    /// combination no longer occurs in the data.
    pub removed: usize,
    /// Wall-clock time of the whole pass.
    pub elapsed: Duration,
    /// Wall-clock time of the serial set-up before the solves (part of
    /// `elapsed`), as in [`PreprocessReport::plan_time`].
    pub plan_time: Duration,
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

/// [`target_relation`] over a bare table (a tenant holds its data as a
/// projected [`Table`], not as the original dataset).
pub(crate) fn table_relation(
    table: &Table,
    config: &Configuration,
    target: &str,
) -> Result<EncodedRelation> {
    for dim in &config.dimensions {
        require_column(table, dim)?;
    }
    require_column(table, target)?;
    let dims: Vec<&str> = config.dimensions.iter().map(String::as_str).collect();
    with_mean_prior(EncodedRelation::from_table(
        table,
        &dims,
        target,
        Prior::Constant(0.0),
    )?)
}

/// [`table_relation`] for another target of the same table, keeping
/// `relation`'s dimensions and codes (they do not depend on the target).
fn retarget(relation: &EncodedRelation, table: &Table, target: &str) -> Result<EncodedRelation> {
    require_column(table, target)?;
    with_mean_prior(relation.retargeted(table, target, Prior::Constant(0.0))?)
}

/// [`EngineError::MissingColumn`] unless `table` has `column`.
pub(crate) fn require_column(table: &Table, column: &str) -> Result<()> {
    match table.schema().index_of(column) {
        Ok(_) => Ok(()),
        Err(_) => Err(EngineError::MissingColumn {
            column: column.to_string(),
        }),
    }
}

/// `relation` with the §III prior: its global target average.
fn with_mean_prior(relation: EncodedRelation) -> Result<EncodedRelation> {
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
    let cells = target_cells(relation);
    enumerate_over(relation, &cells, config, &Arc::from(target), &[]).0
}

/// [`enumerate_queries`] over the relation's [`target_cells`]: each
/// predicate mask groups the cells, not the rows, and one counting sort
/// lays every combination's rows out in row order, from where each item
/// copies its exact-size list. Every query holds `target` and the
/// relation's own name and value handles, so enumeration copies no name.
/// Beside the items, one flag per item tells whether its subset holds one
/// of `changed_cells`.
fn enumerate_over(
    relation: &EncodedRelation,
    cells: &RowPartition,
    config: &Configuration,
    target: &Arc<str>,
    changed_cells: &[u32],
) -> (Vec<WorkItem>, Vec<bool>) {
    let mut cell_rows = vec![0u32; cells.len()];
    for &cell in &cells.of_row {
        cell_rows[cell as usize] += 1;
    }
    let mut laid_out = vec![0u32; relation.len()];
    let mut items = Vec::new();
    let mut changed = Vec::new();
    for mask in subset_masks(relation.dim_count(), config.max_query_length) {
        let dims = mask_dims(mask);
        let combos = cells.group_cells(relation, &dims);
        let mut holds_changed = vec![false; combos.len()];
        for &cell in changed_cells {
            holds_changed[combos.of_row[cell as usize] as usize] = true;
        }
        // Lexicographic order of the code tuples: jobs, and with them the
        // store's insertion order, follow it.
        let first_row = |combo: usize| cells.first_row[combos.first_row[combo] as usize];
        let codes = |combo: usize| row_codes(relation, &dims, first_row(combo));
        let mut order: Vec<usize> = (0..combos.len()).collect();
        order.sort_unstable_by(|&a, &b| codes(a).cmp(codes(b)));
        // Each combination's rows start where those of the combinations
        // before it in that order end; placing the rows advances the
        // starts to the ends.
        let mut next = vec![0u32; combos.len()];
        for (&combo, &size) in combos.of_row.iter().zip(&cell_rows) {
            next[combo as usize] += size;
        }
        let mut start = 0;
        for &combo in &order {
            (next[combo], start) = (start, start + next[combo]);
        }
        for (row, &cell) in (0..).zip(&cells.of_row) {
            let slot = &mut next[combos.of_row[cell as usize] as usize];
            laid_out[*slot as usize] = row;
            *slot += 1;
        }
        let mut start = 0;
        for combo in order {
            let predicates = dims
                .iter()
                .zip(codes(combo))
                .map(|(&d, code)| named(relation, d, code));
            let end = next[combo] as usize;
            items.push(WorkItem {
                query: Query::new(Arc::clone(target), predicates),
                rows: Arc::from(&laid_out[start..end]),
            });
            changed.push(holds_changed[combo]);
            start = end;
        }
    }
    (items, changed)
}

/// Dimension `d`'s name and its value coded `code`, as the relation's
/// handles.
fn named(relation: &EncodedRelation, d: usize, code: u32) -> Predicate {
    let dim = &relation.dims()[d];
    (
        Arc::clone(&dim.name),
        Arc::clone(&dim.values[code as usize]),
    )
}

/// The codes of `row` on `dims`, in order.
fn row_codes<'a>(
    relation: &'a EncodedRelation,
    dims: &'a [usize],
    row: u32,
) -> impl Iterator<Item = u32> + 'a {
    dims.iter().map(move |&d| relation.code(d, row as usize))
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
    // Dimensions not fixed by the query remain free for fact scopes.
    let fixed = item.query.predicates();
    let free_dims: Vec<usize> = (0..relation.dim_count())
        .filter(|&d| !fixed.iter().any(|(f, _)| *f == relation.dims()[d].name))
        .collect();
    let min_dims = usize::from(!config.include_overall_fact && !free_dims.is_empty());
    let max_dims = config.max_fact_dimensions.min(free_dims.len());
    let catalog = FactCatalog::build_over(
        relation,
        cells,
        Arc::clone(&item.rows),
        &free_dims,
        min_dims,
        max_dims,
    )?;
    let problem = Problem::new(relation, &catalog, config.speech_length)?;
    let summary = summarizer.summarize(&problem)?;

    let facts: Box<[NamedFact]> = summary
        .speech
        .facts()
        .iter()
        .map(|fact| NamedFact {
            scope: fact
                .scope
                .pairs()
                .into_iter()
                .map(|(d, code)| named(relation, d, code))
                .collect(),
            value: fact.value,
            support: fact.support,
        })
        .collect();
    let text = template.render(&item.query, &facts).into_boxed_str();
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
    ))
}

/// The fully-prepared pre-processing input for one target.
struct TargetPlan {
    /// The target's name: the one handle every query of the plan holds.
    target: Arc<str>,
    relation: EncodedRelation,
    template: SpeechTemplate,
    items: Vec<WorkItem>,
    /// Global target average, the §III constant prior.
    prior: f64,
}

/// The pre-processing input of one tenant. Cells and query subsets
/// depend only on the dimension codes, which every target shares.
struct Plans {
    /// The [`target_cells`] of every target's relation, shared by every
    /// query's catalog.
    cells: RowPartition,
    /// Per work item index, whether the item's subset holds a changed row.
    /// Every target lists the same subsets in the same order, so one flag
    /// serves the item at that index in each.
    changed: Vec<bool>,
    targets: Vec<TargetPlan>,
}

/// Validate the configuration and its columns and enumerate the work for
/// every configured target, flagging the items whose subsets hold one of
/// `changed_rows` (indexes into `table`; those past its end are ignored).
/// The first target's relation is coded, partitioned into cells and
/// enumerated; every further target takes its own target column and the
/// first target's queries, re-targeted, over the first target's row
/// lists.
fn build_plans(
    table: &Table,
    config: &Configuration,
    templates: &FxHashMap<String, SpeechTemplate>,
    changed_rows: &[usize],
) -> Result<Plans> {
    config.validate()?;
    let (first, rest) = config
        .targets
        .split_first()
        .expect("a valid configuration has a target");
    let relation = table_relation(table, config, first)?;
    let cells = target_cells(&relation);
    let changed_cells: Vec<u32> = changed_rows
        .iter()
        .filter_map(|&row| cells.of_row.get(row).copied())
        .collect();
    let name: Arc<str> = Arc::from(first.as_str());
    let (items, changed) = enumerate_over(&relation, &cells, config, &name, &changed_cells);
    let mut targets = vec![target_plan(name, relation, items, templates)];
    for target in rest {
        let relation = retarget(&targets[0].relation, table, target)?;
        let name: Arc<str> = Arc::from(target.as_str());
        let items = targets[0]
            .items
            .iter()
            .map(|item| WorkItem {
                query: item.query.retargeted(Arc::clone(&name)),
                rows: Arc::clone(&item.rows),
            })
            .collect();
        targets.push(target_plan(name, relation, items, templates));
    }
    Ok(Plans {
        cells,
        changed,
        targets,
    })
}

fn target_plan(
    target: Arc<str>,
    relation: EncodedRelation,
    items: Vec<WorkItem>,
    templates: &FxHashMap<String, SpeechTemplate>,
) -> TargetPlan {
    TargetPlan {
        template: templates
            .get(&*target)
            .cloned()
            .unwrap_or_else(|| SpeechTemplate::plain(&target)),
        target,
        prior: relation.target_mean(),
        relation,
        items,
    }
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
    plans: &Plans,
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
            let plan = &plans.targets[plan_index];
            let solve_start = Instant::now();
            let outcome = solve_item(
                &plan.relation,
                &plans.cells,
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

/// Solve `table`'s queries on `pool`, queued on `priority`, into the
/// next store: the one path by which speeches reach a store.
/// Registration runs it against an empty `published` store, which solves
/// every query; a batch refresh and an ingest flush run it against the
/// tenant's published store with the rows that changed.
///
/// `changed_rows` are indexes into `table`; those past its end are
/// ignored. Every row they do not name must be a row of the table
/// `published` was solved over, unchanged and in its old relative order.
/// A subset holding none of them and keeping its size then holds exactly
/// its old rows, so its speech stands. A query is solved when any of
/// these hold:
/// - its subset holds a changed row, for every target;
/// - its published row count differs from the new subset size — rows
///   moved *out of* the subset;
/// - `published` holds no speech for it — its value combination is new
///   to the data;
/// - the target's global average (the §III constant prior) drifted, which
///   invalidates every speech of that target.
///
/// The next store holds every other query's published speech, the same
/// [`std::sync::Arc`] inserted before the solved ones, and no query whose
/// value combination vanished, so it is element-wise identical to a
/// registration over `table`. It shares `published`'s lookup counters.
/// `published` is only read, so a failed pass changes nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resummarize_with<S: Summarizer + Sync + ?Sized>(
    table: &Table,
    config: &Configuration,
    summarizer: &S,
    templates: &FxHashMap<String, SpeechTemplate>,
    published: &SpeechStore,
    changed_rows: &[usize],
    pool: &SolverPool,
    priority: ScatterPriority,
) -> Result<(SpeechStore, RefreshReport)> {
    let start = Instant::now();
    let plans = build_plans(table, config, templates, changed_rows)?;
    let plan_time = start.elapsed();

    let queries: usize = plans.targets.iter().map(|plan| plan.items.len()).sum();
    let mut kept: Vec<Arc<StoredSpeech>> = Vec::new();
    // Sized for a registration, which solves every query.
    let mut jobs: Vec<(usize, usize)> = Vec::with_capacity(queries);
    // Published queries that still occur in the data; the rest vanished.
    let mut found = 0usize;
    for (plan_index, plan) in plans.targets.iter().enumerate() {
        // The prior is recomputed deterministically from the data, so an
        // unchanged target column reproduces it bit-for-bit; any other
        // value means every kept speech of this target would embed a
        // stale prior.
        let prior_drifted = match published.target_prior(&plan.target) {
            Some(old) => old.to_bits() != plan.prior.to_bits(),
            None => true,
        };
        for (item_index, item) in plan.items.iter().enumerate() {
            let existing = published.get(&item.query);
            found += usize::from(existing.is_some());
            let keep = existing.filter(|existing| {
                !prior_drifted && !plans.changed[item_index] && existing.rows == item.rows.len()
            });
            match keep {
                Some(speech) => kept.push(speech),
                None => jobs.push((plan_index, item_index)),
            }
        }
    }

    let (solved, solver_time) = run_jobs(&plans, &jobs, config, summarizer, pool, priority)?;
    let mut store = published.successor();
    let kept_count = kept.len();
    for speech in kept {
        store.insert_arc(speech);
    }
    let recomputed = solved.len();
    let mut instrumentation = Instrumentation::default();
    for (speech, counters) in solved {
        instrumentation.merge(&counters);
        store.insert(speech);
    }
    for plan in &plans.targets {
        store.set_target_prior(&plan.target, plan.prior);
    }

    let report = RefreshReport {
        queries,
        recomputed,
        kept: kept_count,
        removed: published.len() - found,
        elapsed: start.elapsed(),
        plan_time,
        solver_time,
        instrumentation,
    };
    Ok((store, report))
}

// These tests drive `resummarize_with` on small private pools; the
// facade path is covered by `service::tests` and the `vqs-integration`
// service suite.
#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};
    use vqs_data::{DimSpec, SynthSpec, TargetSpec};
    use vqs_relalg::hash::FxHasher;
    use vqs_relalg::prelude::ColumnData;

    use crate::store::Lookup;

    /// A registration: [`resummarize_with`] with plain templates against
    /// an empty store on `pool`'s bulk lane.
    fn preprocess<S: Summarizer + Sync + ?Sized>(
        dataset: &GeneratedDataset,
        config: &Configuration,
        summarizer: &S,
        pool: &SolverPool,
    ) -> Result<(SpeechStore, PreprocessReport)> {
        let (store, report) = resummarize_with(
            &dataset.table,
            config,
            summarizer,
            &FxHashMap::default(),
            &SpeechStore::new(),
            &[],
            pool,
            ScatterPriority::Bulk,
        )?;
        let report = PreprocessReport {
            queries: report.queries,
            speeches: store.len(),
            elapsed: report.elapsed,
            plan_time: report.plan_time,
            solver_time: report.solver_time,
            instrumentation: report.instrumentation,
        };
        Ok((store, report))
    }

    /// A refresh naming no changed rows: [`resummarize_with`] with plain
    /// templates on `pool`'s interactive lane, building the store that
    /// replaces `store`.
    fn refresh<S: Summarizer + Sync + ?Sized>(
        dataset: &GeneratedDataset,
        config: &Configuration,
        summarizer: &S,
        pool: &SolverPool,
        store: &SpeechStore,
    ) -> Result<(SpeechStore, RefreshReport)> {
        resummarize_with(
            &dataset.table,
            config,
            summarizer,
            &FxHashMap::default(),
            store,
            &[],
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
                for &row in item.rows.iter() {
                    assert_eq!(relation.value_str(dim, row as usize), &**v);
                }
            }
        }
        // Subsets of the same dimension set partition the rows.
        let season_rows: usize = items
            .iter()
            .filter(|i| i.query.len() == 1 && &*i.query.predicates()[0].0 == "season")
            .map(|i| i.rows.len())
            .sum();
        assert_eq!(season_rows, relation.len());
    }

    #[test]
    fn plans_share_cells_and_queries_across_targets() {
        let data = tiny_dataset();
        let cfg = config();
        let plans = build_plans(&data.table, &cfg, &FxHashMap::default(), &[]).unwrap();
        assert_eq!(plans.targets.len(), 2);
        let listed = |items: &[WorkItem]| -> Vec<(Query, Vec<u32>)> {
            items
                .iter()
                .map(|item| (item.query.clone(), item.rows.to_vec()))
                .collect()
        };
        for (plan, target) in plans.targets.iter().zip(&cfg.targets) {
            let relation = target_relation(&data, &cfg, target).unwrap();
            assert_eq!(&*plan.target, target);
            assert_eq!(plan.relation, relation);
            assert_eq!(plan.prior, relation.target_mean());
            let cells = target_cells(&relation);
            assert_eq!(plans.cells.of_row, cells.of_row);
            assert_eq!(plans.cells.first_row, cells.first_row);
            let expected = enumerate_queries(&relation, &cfg, target);
            assert_eq!(listed(&plan.items), listed(&expected), "{target}");
        }
        // Rows do not depend on the target: a further target holds the
        // first target's `u32` lists themselves, not copies.
        let (first, second) = (&plans.targets[0].items, &plans.targets[1].items);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(second) {
            let rows: &Arc<[u32]> = &b.rows;
            assert!(Arc::ptr_eq(&a.rows, rows), "{}", b.query);
        }
    }

    /// Each item is flagged exactly when its subset holds a changed row;
    /// rows past the table's end flag nothing, and a registration, with
    /// no changed rows, flags no item.
    #[test]
    fn changed_rows_flag_the_items_whose_subsets_hold_them() {
        let data = tiny_dataset();
        let past_end = data.table.len();
        let plans = build_plans(
            &data.table,
            &config(),
            &FxHashMap::default(),
            &[7, past_end, 130],
        )
        .unwrap();
        let items = &plans.targets[0].items;
        assert_eq!(plans.changed.len(), items.len());
        for (item, &flagged) in items.iter().zip(&plans.changed) {
            let holds = item.rows.iter().any(|&row| row == 7 || row == 130);
            assert_eq!(flagged, holds, "{}", item.query);
        }
        assert!(plans.changed[0], "the overall query holds every row");
        let plans = build_plans(&data.table, &config(), &FxHashMap::default(), &[]).unwrap();
        assert!(!plans.changed.contains(&true));
    }

    /// A further target's relation holds the first target's dimension
    /// codes, not a copy.
    #[test]
    fn plans_share_dimension_codes_across_targets() {
        let data = tiny_dataset();
        let plans = build_plans(&data.table, &config(), &FxHashMap::default(), &[]).unwrap();
        let (first, second) = (&plans.targets[0].relation, &plans.targets[1].relation);
        assert_ne!(first.target_name(), second.target_name());
        for d in 0..first.dim_count() {
            assert!(
                std::ptr::eq(first.codes(d), second.codes(d)),
                "dimension {d}"
            );
        }
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
        assert!(report.plan_time > Duration::ZERO && report.plan_time <= report.elapsed);
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

    /// Every speech of a registration names each target, dimension and
    /// value through one handle, and values through the table
    /// dictionary's own strings.
    #[test]
    fn stored_speeches_share_one_handle_per_name() {
        let data = tiny_dataset();
        let summarizer = GreedySummarizer::with_optimized_pruning();
        let (store, _) = preprocess(&data, &config(), &summarizer, &SolverPool::new(2)).unwrap();
        let snapshot = store.snapshot();
        let mut handles: FxHashMap<&str, &Arc<str>> = FxHashMap::default();
        for speech in &snapshot {
            for name in speech.names() {
                let first = handles.entry(name).or_insert(name);
                assert!(Arc::ptr_eq(first, name), "{name} is copied");
            }
        }
        // delay, cancelled; season, region; Winter, Summer, East, West, North.
        assert_eq!(handles.len(), 9);
        let relation = target_relation(&data, &config(), "delay").unwrap();
        let ColumnData::Str { dict, .. } = relation_column(&data, "season") else {
            panic!("season is a string column");
        };
        for value in &relation.dims()[0].values {
            assert!(dict.strings().iter().any(|entry| Arc::ptr_eq(entry, value)));
            assert!(Arc::ptr_eq(handles[&**value], value), "{value}");
        }
    }

    fn relation_column<'a>(data: &'a GeneratedDataset, name: &str) -> &'a ColumnData {
        let index = data.table.schema().index_of(name).unwrap();
        data.table.column(index).unwrap()
    }

    /// The analyzer and voicebench spell queries from owned `String`s: such
    /// a query shares no handle with the store's, yet hashes and compares
    /// equal, so every read path finds the generator's speeches.
    #[test]
    fn queries_spelled_from_owned_strings_find_stored_speeches() {
        let data = tiny_dataset();
        let summarizer = GreedySummarizer::with_optimized_pruning();
        let (store, _) = preprocess(&data, &config(), &summarizer, &SolverPool::new(0)).unwrap();
        let owned = |predicates: &[(&str, &str)]| {
            let predicates: Vec<(String, String)> = predicates
                .iter()
                .map(|&(d, v)| (d.to_string(), v.to_string()))
                .collect();
            Query::new("delay".to_string(), predicates)
        };
        let winter = owned(&[("season", "Winter")]);
        let stored = store.get(&winter).expect("stored");
        assert!(!Arc::ptr_eq(
            winter.target_handle(),
            stored.query.target_handle()
        ));
        assert_eq!(stored.query, winter);
        let fx = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(fx.hash_one(&stored.query), fx.hash_one(&winter));
        let std = std::hash::RandomState::new();
        assert_eq!(std.hash_one(&stored.query), std.hash_one(&winter));
        match store.lookup(&winter) {
            Lookup::Exact(speech) => assert!(Arc::ptr_eq(&speech, &stored)),
            other => panic!("expected an exact hit, got {other:?}"),
        }
        // An unknown dimension generalizes to the stored pair.
        let wide = owned(&[("season", "Winter"), ("region", "East"), ("day", "Mon")]);
        let pair = store
            .get(&owned(&[("season", "Winter"), ("region", "East")]))
            .expect("stored");
        match store.lookup(&wide) {
            Lookup::Generalized {
                speech,
                kept_predicates: 2,
            } => assert!(Arc::ptr_eq(&speech, &pair)),
            other => panic!("expected the stored pair, got {other:?}"),
        }
        // The canonically smallest one-step extension: region East sorts
        // before North and West.
        let hint = store.follow_on(&winter).expect("a stored extension");
        assert!(Arc::ptr_eq(&hint, &pair));
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

    /// The pool's worker count is the only solver worker count: the
    /// exact summarizer's store does not depend on it.
    #[test]
    fn configured_exact_store_is_identical_for_any_solver_worker_count() {
        let data = tiny_dataset();
        let cfg = config();
        let solver = ExactSummarizer::paper();
        let (serial, _) = preprocess(&data, &cfg, &solver, &SolverPool::new(1)).unwrap();
        let (parallel, _) = preprocess(&data, &cfg, &solver, &SolverPool::new(8)).unwrap();
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
        let (store, report) = refresh(&data, &cfg, &summarizer, &pool, &store).unwrap();
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
        // A published store without the delay target: cancelled's
        // speeches and prior alone.
        let mut partial = SpeechStore::new();
        for speech in cancelled_before
            .iter()
            .filter(|s| s.query.target() == "cancelled")
        {
            partial.insert_arc(Arc::clone(speech));
        }
        partial.set_target_prior("cancelled", store.target_prior("cancelled").unwrap());
        assert_eq!(store.len() - partial.len(), 12);
        let (store, report) = refresh(&data, &cfg, &summarizer, &pool, &partial).unwrap();
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
        let (mut store, _) = preprocess(&data, &cfg, &summarizer, &pool).unwrap();
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
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Core(_)));
        let after = store.snapshot();
        assert_eq!(before, after);
        for (a, b) in before.iter().zip(&after) {
            assert!(std::sync::Arc::ptr_eq(a, b), "{}", a.query);
        }
        // A subsequent successful refresh recovers fully.
        let (store, report) = refresh(&data, &cfg, &summarizer, &pool, &store).unwrap();
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
        let (store, report) =
            refresh(&data, &cfg, &summarizer, &pool, &SpeechStore::new()).unwrap();
        assert_eq!(report.recomputed, 24);
        assert_eq!(report.kept, 0);
        assert_eq!(store.snapshot(), reference.snapshot());
    }
}
