//! The multi-tenant deployment facade (the primary public API).
//!
//! The paper's Fig. 2 architecture is a long-running *service*:
//! pre-processing fills a speech store that then answers live voice
//! traffic. [`VoiceService`] packages that architecture for production:
//! it owns a registry of named **tenants** (each tenant = one dataset +
//! [`Configuration`] + its own sharded [`SpeechStore`] + per-tenant
//! instrumentation roll-up), runs every tenant's pre-processing and
//! delta refreshes on one **shared long-lived [`SolverPool`]**, and
//! answers requests through a typed pipeline
//! [`ServiceRequest`] → [`ServiceResponse`] whose [`Answer`] enum
//! replaces the stringly `VoiceResponse` of the old free-function API.
//!
//! ```
//! use vqs_engine::prelude::*;
//! use vqs_data::{DimSpec, SynthSpec, TargetSpec};
//!
//! let data = SynthSpec {
//!     name: "demo".into(),
//!     dims: vec![DimSpec::named("season", &["Winter", "Summer"])],
//!     targets: vec![TargetSpec::new("delay", 15.0, 6.0, 2.0, (0.0, 60.0))],
//!     rows: 200,
//! }.generate(1, 1.0);
//! let config = Configuration::new("demo", &["season"], &["delay"]);
//!
//! let service = ServiceBuilder::new().workers(2).build();
//! let report = service
//!     .register_dataset(TenantSpec::new("demo", data, config))
//!     .unwrap();
//! assert_eq!(report.speeches, 3); // overall + two seasons
//!
//! let response = service.respond(&ServiceRequest::new("demo", "delay in Winter?"));
//! assert!(matches!(response.answer, Answer::Speech { .. }));
//! ```

pub mod faults;
pub mod frontend;
pub mod pool;

pub use faults::{Fault, FaultPlan, FaultSite, Trigger};
pub use frontend::{
    FrontEnd, FrontEndBuilder, FrontEndStats, IngestTicket, OverloadPolicy, RefreshTicket,
    RegisterTicket, ResponseTicket, TaskTicket, Ticket,
};
pub use pool::{ScatterPriority, SolverPool};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use vqs_core::prelude::{GreedySummarizer, Instrumentation, Summarizer};
use vqs_data::GeneratedDataset;
use vqs_relalg::hash::FxHashMap;
use vqs_relalg::ops::{self, ProjectItem};
use vqs_relalg::prelude::Table;

use crate::config::Configuration;
use crate::error::{EngineError, Result};
use crate::extensions::ExtremumIndex;
use crate::generator::{
    preprocess_with, refresh_with, require_column, resummarize_with, table_relation, Invalidation,
    PreprocessReport, RefreshReport,
};
use crate::ingest::{FlushReport, IngestBuilder, IngestInner, IngestReport, IngestState, RowDelta};
use crate::logsim::{tabulate, LogEntry};
use crate::nlq::{Extractor, Request, Unsupported};
use crate::pipeline::{self, ComputedValue, Exec, FollowOn, PipelineContext, QueryPlan};
use crate::problem::StoredSpeech;
use crate::store::{SpeechStore, StoreStats};
use crate::template::{speaking_time_secs, SpeechTemplate};
use crate::voice::VoiceSession;

/// Spoken fallback when a supported query has no stored speech.
pub(crate) const NO_SUMMARY: &str = "I have no summary for that topic yet.";
/// Spoken fallback for unintelligible input.
pub(crate) const NOT_UNDERSTOOD: &str = "Sorry, I did not understand. Say 'help' for examples.";
/// Spoken fallback for a repeat request with no conversation history.
pub(crate) const NOTHING_TO_REPEAT: &str = "I have not said anything yet.";
/// Apology for extremum queries with no extension index.
pub(crate) const EXTREMUM_APOLOGY: &str = "I can only summarize averages, not find extremes.";
/// Apology for comparison queries with no extension index.
pub(crate) const COMPARISON_APOLOGY: &str =
    "I cannot compare data subsets directly; ask about one subset at a time.";
/// Apology for count/total aggregates when no live table is retained.
pub(crate) const AGGREGATE_APOLOGY: &str =
    "I can only summarize averages, not compute counts or totals.";
/// Apology for conjunctive queries beyond the pre-computed length when
/// no live table is retained.
pub(crate) const CONJUNCTIVE_APOLOGY: &str =
    "That question combines more filters than I pre-computed.";
/// Apology for data outside the deployment.
pub(crate) const UNAVAILABLE: &str = "That data is not part of this deployment.";
/// Spoken text of [`Answer::UnknownTenant`].
pub(crate) const UNKNOWN_TENANT: &str = "I do not know that data set.";
/// Spoken text of [`Answer::Overloaded`].
pub(crate) const OVERLOADED: &str = "I am handling too many requests right now; please try again.";
/// Spoken text of [`Answer::Internal`].
pub(crate) const INTERNAL_ERROR: &str = "Something went wrong on my end; please try again.";
/// Spoken text of [`Answer::Expired`].
pub(crate) const EXPIRED: &str = "I could not get to that in time; please ask again.";

/// One incoming voice request, addressed to a tenant by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    /// Registered tenant (dataset) the request targets.
    pub tenant: String,
    /// Raw utterance text.
    pub text: String,
    /// Absolute wall-clock deadline of this request. `None` falls back
    /// to the tenant's [`TenantSpec::default_deadline`], if any. Once
    /// past the deadline a queued request is completed with
    /// [`Answer::Expired`] instead of being computed, and the remaining
    /// budget bounds live solver work on the respond path.
    pub deadline: Option<Instant>,
}

impl ServiceRequest {
    /// Build a request with no per-request deadline.
    pub fn new(tenant: impl Into<String>, text: impl Into<String>) -> ServiceRequest {
        ServiceRequest {
            tenant: tenant.into(),
            text: text.into(),
            deadline: None,
        }
    }

    /// Set an absolute deadline (overrides tenant and service defaults).
    pub fn with_deadline(mut self, deadline: Instant) -> ServiceRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Set the deadline as a budget from now.
    pub fn with_budget(self, budget: Duration) -> ServiceRequest {
        self.with_deadline(Instant::now() + budget)
    }
}

/// How far down the answer-quality ladder a response had to step to
/// meet its deadline. Stamped on every [`ServiceResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Degradation {
    /// Full-quality answer (always the case for deadline-free requests).
    #[default]
    None,
    /// The budgeted live solve timed out; a poly-time greedy pass
    /// produced the speech instead (valid, merely non-optimal).
    Greedy,
    /// No budget remained for live work; the answer came from the store
    /// (or a typed apology) alone.
    StoreOnly,
}

/// What the service answered — the typed replacement for the old
/// text-only response. Every variant still carries (or derives) a spoken
/// form via [`Answer::text`], but callers can now branch on structure
/// instead of string-matching.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A pre-generated speech served from the tenant's store.
    Speech {
        /// The stored speech (shared, never deep-copied).
        speech: Arc<StoredSpeech>,
        /// `None` for an exact hit; `Some(k)` when the §III
        /// generalization fallback answered with `k` of the query's
        /// predicates retained.
        kept_predicates: Option<usize>,
    },
    /// Answered by a pre-computed extension index (extremum/comparison).
    Extension {
        /// Spoken answer.
        text: String,
    },
    /// Computed live by executing a typed [`QueryPlan`] over the
    /// tenant's retained table (the pipeline's tier two): questions the
    /// store does not precompute — conjunctive filters beyond the
    /// configured length, comparatives, extrema, counts and totals.
    Computed {
        /// The logical plan that was executed.
        plan: QueryPlan,
        /// The typed result the spoken text was rendered from.
        value: ComputedValue,
        /// Spoken rendering of `value`.
        text: String,
    },
    /// Usage guidance: explicit help requests, unintelligible input, and
    /// repeat requests without history all resolve here.
    Help {
        /// Spoken guidance.
        text: String,
    },
    /// A recognized data-access request the deployment cannot answer.
    Unsupported {
        /// Why the request is unsupported.
        reason: Unsupported,
        /// Spoken apology.
        text: String,
    },
    /// A supported query with no stored speech — distinct from
    /// [`Answer::Unsupported`] so callers can tell "nothing generated
    /// for this combination (yet)" from "outside the deployment".
    NoSummary {
        /// The classified query that missed.
        query: crate::problem::Query,
    },
    /// The request named a tenant that is not registered.
    UnknownTenant {
        /// The unknown tenant name.
        tenant: String,
    },
    /// The serving front-end shed this request before it reached a
    /// tenant: the admission queue (or the tenant's fair share of it)
    /// was full. Produced only by [`crate::service::FrontEnd`] — the
    /// direct [`VoiceService::respond`] path never sheds.
    Overloaded {
        /// The tenant the rejected request addressed.
        tenant: String,
    },
    /// A serving worker contained a panic while answering this request;
    /// the ticket completed with this marker instead of hanging its
    /// waiter. Produced only by [`crate::service::FrontEnd`]; indicates
    /// a bug worth reporting, not load.
    Internal {
        /// The contained panic payload, when it was a string.
        what: String,
    },
    /// The request sat in the serving queue past its deadline and was
    /// completed without computing an answer — in voice UX a fast "ask
    /// again" beats a stale answer nobody is waiting for. Produced only
    /// by [`crate::service::FrontEnd`]; the direct
    /// [`VoiceService::respond`] path never queues.
    Expired {
        /// The tenant the expired request addressed.
        tenant: String,
        /// How long the request had been queued when it expired.
        queued_for: Duration,
    },
}

impl Answer {
    /// The spoken form of this answer.
    pub fn text(&self) -> &str {
        match self {
            Answer::Speech { speech, .. } => &speech.text,
            Answer::Extension { text }
            | Answer::Computed { text, .. }
            | Answer::Help { text }
            | Answer::Unsupported { text, .. } => text,
            Answer::NoSummary { .. } => NO_SUMMARY,
            Answer::UnknownTenant { .. } => UNKNOWN_TENANT,
            Answer::Overloaded { .. } => OVERLOADED,
            Answer::Internal { .. } => INTERNAL_ERROR,
            Answer::Expired { .. } => EXPIRED,
        }
    }

    /// True when a pre-generated speech was served.
    pub fn is_speech(&self) -> bool {
        matches!(self, Answer::Speech { .. })
    }
}

/// One answered request: the classification, the typed answer, and the
/// latency/speaking-time accounting of the old response type.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The tenant that answered (echoed from the request; empty for
    /// free-standing sessions without a tenant label).
    pub tenant: String,
    /// The classified request; `None` only when the tenant was unknown
    /// (no extractor exists to classify against).
    pub request: Option<Request>,
    /// The typed answer.
    pub answer: Answer,
    /// A suggested follow-on question drawn from summaries adjacent to
    /// the answered query, when one exists. Only store-served and
    /// live-computed answers carry hints.
    pub follow_on: Option<FollowOn>,
    /// The stable id of the [`VoiceSession`] that answered, `None` for
    /// stateless [`VoiceService::respond`] traffic — lets front-end and
    /// log consumers attribute load to individual conversations.
    pub session: Option<u64>,
    /// Classification + lookup latency in microseconds (time until the
    /// system can start speaking).
    pub latency_micros: u64,
    /// Estimated speaking time of the answer, in seconds.
    pub speaking_secs: f64,
    /// How far the answer degraded to meet the request deadline
    /// ([`Degradation::None`] for every deadline-free request).
    pub degradation: Degradation,
}

impl ServiceResponse {
    /// The spoken form of the answer.
    pub fn text(&self) -> &str {
        self.answer.text()
    }

    /// Table III row label of the classified request ("Unknown" when the
    /// tenant did not resolve).
    pub fn label(&self) -> &'static str {
        self.request.as_ref().map_or("Unknown", Request::label)
    }
}

/// Everything needed to register one tenant: the dataset, its
/// configuration, and the optional speech/extractor customizations that
/// used to be wired by hand around the free functions.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    dataset: GeneratedDataset,
    config: Configuration,
    help_text: Option<String>,
    templates: FxHashMap<String, SpeechTemplate>,
    synonyms: Vec<(String, Vec<String>)>,
    unavailable_markers: Vec<String>,
    extremum: Option<(String, String)>,
    default_deadline: Option<Duration>,
    ingest: Option<IngestBuilder>,
}

impl TenantSpec {
    /// A tenant with default speech templates and an auto-generated help
    /// text.
    pub fn new(
        name: impl Into<String>,
        dataset: GeneratedDataset,
        config: Configuration,
    ) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            dataset,
            config,
            help_text: None,
            templates: FxHashMap::default(),
            synonyms: Vec::new(),
            unavailable_markers: Vec::new(),
            extremum: None,
            default_deadline: None,
            ingest: None,
        }
    }

    /// The tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the spoken help text.
    pub fn help_text(mut self, text: impl Into<String>) -> TenantSpec {
        self.help_text = Some(text.into());
        self
    }

    /// Use `template` for speeches of `target` (defaults to
    /// [`SpeechTemplate::plain`]).
    pub fn template(mut self, target: &str, template: SpeechTemplate) -> TenantSpec {
        self.templates.insert(target.to_string(), template);
        self
    }

    /// Register spoken synonyms for a target column ("a few samples" of
    /// phrasings, §III).
    pub fn target_synonyms(mut self, target: &str, synonyms: &[&str]) -> TenantSpec {
        self.synonyms.push((
            target.to_string(),
            synonyms.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Register phrases marking data the deployment does not cover.
    pub fn unavailable_markers(mut self, markers: &[&str]) -> TenantSpec {
        self.unavailable_markers
            .extend(markers.iter().map(|m| m.to_string()));
        self
    }

    /// Pre-compute the extremum/comparison extension index for `target`,
    /// spoken as `phrase` (answers the §VIII-D "U-Query" shapes).
    pub fn extremum_index(mut self, target: &str, phrase: &str) -> TenantSpec {
        self.extremum = Some((target.to_string(), phrase.to_string()));
        self
    }

    /// Default per-request deadline budget for this tenant: requests
    /// without their own [`ServiceRequest::deadline`] get `now + budget`
    /// on arrival — at admission to the serving [`FrontEnd`], or when a
    /// direct [`VoiceService::respond`] call starts.
    pub fn default_deadline(mut self, budget: Duration) -> TenantSpec {
        self.default_deadline = Some(budget);
        self
    }

    /// Enable streaming ingestion for this tenant: the service accepts row
    /// deltas through [`VoiceService::ingest`] /
    /// [`FrontEnd::submit_ingest`], patches them into the tenant's
    /// projected table (the one copy of its data every tenant keeps for
    /// live plans), and re-summarizes debounced per `options` (see
    /// [`crate::ingest`] for the dataflow and its convergence contract).
    pub fn ingest(mut self, options: IngestBuilder) -> TenantSpec {
        self.ingest = Some(options);
        self
    }
}

/// Per-request counters of one tenant, updated with relaxed atomics on
/// the respond path. Shared (via [`std::sync::Arc`]) with every
/// [`VoiceSession`] opened on the tenant, so session traffic shows up
/// in the same per-tenant roll-up the front-end's fairness accounting
/// reads.
#[derive(Debug, Default)]
pub(crate) struct RequestCounters {
    requests: AtomicU64,
    speeches: AtomicU64,
    extensions: AtomicU64,
    computed: AtomicU64,
    helps: AtomicU64,
    unsupported: AtomicU64,
    misses: AtomicU64,
    sessions: AtomicU64,
    /// Requests expired in the serving queue (never computed, so not
    /// part of `requests`).
    expired: AtomicU64,
    /// Answers served below full quality to meet their deadline.
    degraded: AtomicU64,
}

impl RequestCounters {
    /// Account one answered request. `UnknownTenant`/`Overloaded` never
    /// reach a tenant's counters (they are produced before a tenant
    /// resolves), so they only bump the request total here; `Expired`
    /// requests are accounted via [`RequestCounters::record_expired`]
    /// instead (they were never computed).
    pub(crate) fn record(&self, answer: &Answer, degradation: Degradation) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if degradation != Degradation::None {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let kind = match answer {
            Answer::Speech { .. } => &self.speeches,
            Answer::Extension { .. } => &self.extensions,
            Answer::Computed { .. } => &self.computed,
            Answer::Help { .. } => &self.helps,
            Answer::Unsupported { .. } => &self.unsupported,
            Answer::NoSummary { .. } => &self.misses,
            Answer::UnknownTenant { .. }
            | Answer::Overloaded { .. }
            | Answer::Internal { .. }
            | Answer::Expired { .. } => return,
        };
        kind.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one request expired in the serving queue.
    pub(crate) fn record_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }
}

/// Pre-processing/refresh accounting of one tenant, merged across its
/// lifetime.
#[derive(Debug)]
struct TenantRollup {
    preprocess: PreprocessReport,
    refreshes: u64,
    recomputed: u64,
    removed: u64,
    solver: Instrumentation,
    solver_time: Duration,
}

/// The answer-time state rebuilt after every refresh (dictionaries may
/// gain values, the live table follows the data).
#[derive(Debug)]
pub(crate) struct TenantRuntime {
    pub(crate) extractor: Extractor,
    pub(crate) extensions: Option<ExtremumIndex>,
    /// The tenant's data, projected by [`Tenant::project`] — the
    /// pipeline's tier-two execution input, and the table an ingest
    /// flush solves over.
    pub(crate) live: Arc<Table>,
}

/// One registered deployment.
pub(crate) struct Tenant {
    name: String,
    config: Configuration,
    help_text: String,
    templates: FxHashMap<String, SpeechTemplate>,
    synonyms: Vec<(String, Vec<String>)>,
    unavailable_markers: Vec<String>,
    extremum: Option<(String, String)>,
    /// Default deadline budget stamped onto requests that carry none.
    default_deadline: Option<Duration>,
    store: Arc<SpeechStore>,
    /// Serializes refreshes per tenant. The raw dataset itself is *not*
    /// retained — callers hand the current data to
    /// [`VoiceService::refresh_tenant`] — but the runtime keeps a
    /// projection of it ([`Tenant::project`]), so the pipeline's live
    /// tier can answer questions the store does not precompute. That
    /// projection is the tenant's only copy of its data: an ingest log
    /// patches it and a flush publishes it. A tenant's resident cost is
    /// its store plus dictionaries plus that bounded projection.
    refresh_lock: Mutex<()>,
    /// Shared with every open [`VoiceSession`], so refreshed extractor
    /// dictionaries reach live sessions immediately.
    runtime: Arc<RwLock<TenantRuntime>>,
    rollup: Mutex<TenantRollup>,
    counters: Arc<RequestCounters>,
    /// Streaming-ingestion state (the patched table, delta log, and
    /// dirty sets); `None` unless the tenant opted in via
    /// [`TenantSpec::ingest`].
    ingest: Option<IngestState>,
}

impl Tenant {
    /// The tenant's one copy of its data: `table` projected to the
    /// configured dimensions, then the targets, then the extremum column
    /// when it is not a target.
    fn project(
        table: &Table,
        config: &Configuration,
        extremum: &Option<(String, String)>,
    ) -> Result<Arc<Table>> {
        let extra = extremum
            .as_ref()
            .map(|(target, _)| target)
            .filter(|target| !config.targets.contains(target));
        let mut projection = Vec::new();
        for column in config.dimensions.iter().chain(&config.targets).chain(extra) {
            require_column(table, column)?;
            projection.push(ProjectItem::passthrough(table, column)?);
        }
        Ok(Arc::new(ops::project(table, &projection)?))
    }

    /// Build the extractor (and optional extension index) over `live`, a
    /// [`Tenant::project`]ion, and serve live plans from it.
    fn build_runtime(
        live: &Arc<Table>,
        config: &Configuration,
        synonyms: &[(String, Vec<String>)],
        unavailable_markers: &[String],
        extremum: &Option<(String, String)>,
    ) -> Result<TenantRuntime> {
        let mut extractor = Extractor::for_deployment(live, config)?;
        for (target, phrases) in synonyms {
            let phrases: Vec<&str> = phrases.iter().map(String::as_str).collect();
            extractor = extractor.with_target_synonyms(target, &phrases);
        }
        if !unavailable_markers.is_empty() {
            let markers: Vec<&str> = unavailable_markers.iter().map(String::as_str).collect();
            extractor = extractor.with_unavailable_markers(&markers);
        }
        let extensions = match extremum {
            Some((target, phrase)) => Some(ExtremumIndex::build(
                &table_relation(live, config, target)?,
                phrase,
            )),
            None => None,
        };
        Ok(TenantRuntime {
            extractor,
            extensions,
            live: Arc::clone(live),
        })
    }
}

/// Point-in-time statistics of one tenant.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Speeches currently stored.
    pub speeches: usize,
    /// Queries enumerated by the initial pre-processing.
    pub queries: usize,
    /// Requests answered via [`VoiceService::respond`].
    pub requests: u64,
    /// Requests answered with a stored speech.
    pub speech_answers: u64,
    /// Requests answered by an extension index.
    pub extension_answers: u64,
    /// Requests answered by live plan execution ([`Answer::Computed`]).
    pub computed_answers: u64,
    /// Requests answered with usage guidance.
    pub help_answers: u64,
    /// Requests answered with an apology.
    pub unsupported_answers: u64,
    /// Supported queries with no stored speech ([`Answer::NoSummary`]).
    pub miss_answers: u64,
    /// Requests expired in the serving queue past their deadline
    /// (completed with [`Answer::Expired`], never computed — not part
    /// of `requests`).
    pub expired_requests: u64,
    /// Answers served below full quality to meet their deadline
    /// ([`ServiceResponse::degradation`] ≠ [`Degradation::None`]).
    pub degraded_answers: u64,
    /// Sessions opened on this tenant via [`VoiceService::session`].
    pub sessions_opened: u64,
    /// Completed [`VoiceService::refresh_tenant`] runs.
    pub refreshes: u64,
    /// Speeches recomputed across all refreshes.
    pub recomputed: u64,
    /// Speeches removed across all refreshes.
    pub removed: u64,
    /// Row deltas drained into the store through streaming-ingestion
    /// flushes (zero for tenants without [`TenantSpec::ingest`]).
    pub deltas_applied: u64,
    /// Stored summaries invalidated (re-solved or removed) by
    /// streaming-ingestion flushes.
    pub summaries_invalidated: u64,
    /// Summaries re-solved and swapped in by streaming-ingestion
    /// flushes.
    pub summaries_resummarized: u64,
    /// Newest-accepted minus newest-applied ingest sequence number: how
    /// far the store currently trails the delta log (zero once the log
    /// drained).
    pub ingest_lag: u64,
    /// Automatic ingest flushes (inline in [`VoiceService::ingest`] or
    /// from [`VoiceService::ingest_tick`]) that failed with an error or
    /// a contained panic; their deltas stayed pending for the next
    /// flush.
    pub flush_failures: u64,
    /// Run-time store counters.
    pub store: StoreStats,
    /// Solver work counters, merged over pre-processing and refreshes.
    pub solver: Instrumentation,
    /// Wall-clock solver time, summed over pre-processing and refreshes.
    pub solver_time: Duration,
}

/// Aggregated statistics of the whole service.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Per-tenant roll-ups, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

impl ServiceStats {
    /// Requests answered across all tenants.
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.requests).sum()
    }

    /// Speeches stored across all tenants.
    pub fn total_speeches(&self) -> usize {
        self.tenants.iter().map(|t| t.speeches).sum()
    }

    /// Store counters summed across all tenants.
    pub fn store_totals(&self) -> StoreStats {
        let mut totals = StoreStats::default();
        for tenant in &self.tenants {
            totals.merge(&tenant.store);
        }
        totals
    }

    /// Solver work counters summed across all tenants.
    pub fn solver_totals(&self) -> Instrumentation {
        let mut totals = Instrumentation::default();
        for tenant in &self.tenants {
            totals.merge(&tenant.solver);
        }
        totals
    }
}

/// Deferred summarizer construction: the algorithm may want a handle to
/// the service's pool (built later, in [`ServiceBuilder::build`]) to
/// route its inner search fan-out through it.
type SummarizerFactory = Box<dyn FnOnce(Arc<SolverPool>) -> Arc<dyn Summarizer + Send + Sync>>;

/// Configures and builds a [`VoiceService`].
pub struct ServiceBuilder {
    workers: usize,
    summarizer: Option<SummarizerFactory>,
    faults: Option<Arc<FaultPlan>>,
}

impl Default for ServiceBuilder {
    fn default() -> ServiceBuilder {
        ServiceBuilder::new()
    }
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("workers", &self.workers)
            .field("summarizer", &self.summarizer.is_some())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl ServiceBuilder {
    /// Start from the defaults: all available cores, the optimized
    /// greedy summarizer, no fault injection.
    pub fn new() -> ServiceBuilder {
        ServiceBuilder {
            workers: 0,
            summarizer: None,
            faults: None,
        }
    }

    /// Solver pool threads shared by every tenant (`0` = all cores).
    pub fn workers(mut self, workers: usize) -> ServiceBuilder {
        self.workers = workers;
        self
    }

    /// Summarization algorithm used for every tenant's pre-processing
    /// and refreshes (default: [`GreedySummarizer::with_optimized_pruning`]).
    pub fn summarizer(
        mut self,
        summarizer: impl Summarizer + Send + Sync + 'static,
    ) -> ServiceBuilder {
        let shared: Arc<dyn Summarizer + Send + Sync> = Arc::new(summarizer);
        self.summarizer = Some(Box::new(move |_| shared));
        self
    }

    /// Like [`ServiceBuilder::summarizer`], for an already-boxed
    /// algorithm (e.g. one picked at run time).
    pub fn summarizer_box(
        mut self,
        summarizer: Box<dyn Summarizer + Send + Sync>,
    ) -> ServiceBuilder {
        let shared: Arc<dyn Summarizer + Send + Sync> = Arc::from(summarizer);
        self.summarizer = Some(Box::new(move |_| shared));
        self
    }

    /// Build the summarizer *from the service's own pool*: `factory`
    /// receives the shared [`SolverPool`] once it exists, so algorithms
    /// whose inner search fans out (e.g.
    /// [`vqs_core::prelude::ExactSummarizer::on_executor`]) ride the
    /// same long-lived workers as cross-query pre-processing instead of
    /// spawning scoped threads per search. Searches issued from inside a
    /// pool job degrade to inline execution automatically (see
    /// [`SolverPool::on_worker_thread`]), so the nesting is safe.
    pub fn summarizer_with_pool<F>(mut self, factory: F) -> ServiceBuilder
    where
        F: FnOnce(Arc<SolverPool>) -> Box<dyn Summarizer + Send + Sync> + 'static,
    {
        self.summarizer = Some(Box::new(move |pool| Arc::from(factory(pool))));
        self
    }

    /// Install a (typically still disarmed) fault-injection plan: the
    /// service draws from it at the named [`FaultSite`]s on the
    /// respond/refresh/register paths. Intended for chaos testing; a
    /// disarmed plan costs one atomic load per site check.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> ServiceBuilder {
        self.faults = Some(plan);
        self
    }

    /// Spawn the pool and build the (initially tenant-less) service.
    pub fn build(self) -> VoiceService {
        let pool = Arc::new(SolverPool::new(self.workers));
        let summarizer = match self.summarizer {
            Some(factory) => factory(Arc::clone(&pool)),
            None => Arc::new(GreedySummarizer::with_optimized_pruning()),
        };
        VoiceService {
            pool,
            summarizer,
            faults: self.faults,
            tenants: RwLock::new(FxHashMap::default()),
        }
    }
}

/// The long-running voice-query service (Fig. 2 as a deployable object):
/// a registry of tenants behind one shared solver pool. All methods take
/// `&self`; the service is designed to be shared across request-serving
/// threads.
pub struct VoiceService {
    pool: Arc<SolverPool>,
    summarizer: Arc<dyn Summarizer + Send + Sync>,
    faults: Option<Arc<FaultPlan>>,
    tenants: RwLock<FxHashMap<String, Arc<Tenant>>>,
}

impl std::fmt::Debug for VoiceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoiceService")
            .field("pool", &self.pool)
            .field("summarizer", &self.summarizer.name())
            .field("tenants", &self.tenants())
            .finish()
    }
}

impl VoiceService {
    /// Start configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// Worker threads in the shared solver pool.
    pub fn pool_workers(&self) -> usize {
        self.pool.workers()
    }

    /// A handle to the shared solver pool — the executor behind every
    /// tenant's pre-processing, refreshes, and (for pool-backed
    /// summarizers) the inner search fan-out.
    pub fn solver_pool(&self) -> Arc<SolverPool> {
        Arc::clone(&self.pool)
    }

    fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().get(name).cloned()
    }

    /// Draw from the fault plan at a control-path site. A forced solver
    /// timeout surfaces as a typed [`EngineError::Internal`] — the same
    /// shape a genuine solver breakdown would take — which the serving
    /// front-end's background lane retries with backoff.
    fn impose_control(&self, site: FaultSite) -> Result<()> {
        if let Some(faults) = &self.faults {
            if faults.impose(site) {
                return Err(EngineError::Internal {
                    what: format!("injected solver timeout at {}", site.name()),
                });
            }
        }
        Ok(())
    }

    /// Register a dataset as a new tenant: enumerate its queries, solve
    /// them over the shared pool, and make the tenant answerable. The
    /// produced store is byte-identical to the legacy free-function
    /// pre-processing for the same dataset and configuration.
    ///
    /// Fails with [`EngineError::DuplicateTenant`] when the name is
    /// taken, and with the underlying error when the configuration or
    /// solving fails (in which case no tenant is registered).
    pub fn register_dataset(&self, spec: TenantSpec) -> Result<PreprocessReport> {
        self.impose_control(FaultSite::Register)?;
        spec.config.validate()?;
        if self.tenant(&spec.name).is_some() {
            return Err(EngineError::DuplicateTenant { name: spec.name });
        }
        // Pre-process over the caller's table first, so its projection
        // never adds to the set-up's peak memory.
        let (store, report) = preprocess_with(
            &spec.dataset.table,
            &spec.config,
            self.summarizer.as_ref(),
            &spec.templates,
            &self.pool,
            ScatterPriority::Bulk,
        )?;
        let live = Tenant::project(&spec.dataset.table, &spec.config, &spec.extremum)?;
        let runtime = Tenant::build_runtime(
            &live,
            &spec.config,
            &spec.synonyms,
            &spec.unavailable_markers,
            &spec.extremum,
        )?;
        let ingest = spec.ingest.map(|options| {
            IngestState::new(options, spec.dataset.table.schema(), live, &spec.config)
        });
        let help_text = spec.help_text.unwrap_or_else(|| {
            format!(
                "Ask about {} by {}.",
                spec.config.targets.join(" or ").replace('_', " "),
                spec.config.dimensions.join(" or ").replace('_', " "),
            )
        });
        let tenant = Arc::new(Tenant {
            name: spec.name.clone(),
            config: spec.config,
            help_text,
            templates: spec.templates,
            synonyms: spec.synonyms,
            unavailable_markers: spec.unavailable_markers,
            extremum: spec.extremum,
            default_deadline: spec.default_deadline,
            store: Arc::new(store),
            refresh_lock: Mutex::new(()),
            runtime: Arc::new(RwLock::new(runtime)),
            rollup: Mutex::new(TenantRollup {
                preprocess: report.clone(),
                refreshes: 0,
                recomputed: 0,
                removed: 0,
                solver: report.instrumentation,
                solver_time: report.solver_time,
            }),
            counters: Arc::new(RequestCounters::default()),
            ingest,
        });
        let mut tenants = self.tenants.write();
        if tenants.contains_key(&spec.name) {
            return Err(EngineError::DuplicateTenant { name: spec.name });
        }
        tenants.insert(spec.name, tenant);
        Ok(report)
    }

    /// Bring a tenant up to date with `dataset` after the rows in
    /// `changed_rows` were mutated: recomputes only the affected
    /// speeches (untouched entries stay pointer-stable), replaces the
    /// tenant's dataset, and rebuilds its extractor dictionaries.
    /// Refreshes of the same tenant are serialized; lookups keep being
    /// served throughout.
    pub fn refresh_tenant(
        &self,
        name: &str,
        dataset: &GeneratedDataset,
        changed_rows: &[usize],
    ) -> Result<RefreshReport> {
        let tenant = self
            .tenant(name)
            .ok_or_else(|| EngineError::UnknownTenant {
                name: name.to_string(),
            })?;
        // On an ingest-enabled tenant the caller's dataset is
        // authoritative: the delta log is quiesced for the duration (the
        // log lock is always taken *before* the refresh lock) and reset
        // to the new table on success. Everything pending is considered
        // applied by the refresh.
        let mut log = tenant.ingest.as_ref().map(|state| state.inner.lock());
        // Holding the refresh lock for the whole run serializes
        // refreshes per tenant without blocking the respond path.
        let _refresh = tenant.refresh_lock.lock();
        // An injected fault here fails the refresh *before* any state is
        // touched, preserving fail-atomicity by construction.
        self.impose_control(FaultSite::Refresh)?;
        // Build the new projection and runtime *before* touching the
        // store: they are the only other fallible steps, so ordering them
        // first keeps a failed refresh fail-atomic (store, data,
        // extractor, and counters all stay on the old data together).
        let live = Tenant::project(&dataset.table, &tenant.config, &tenant.extremum)?;
        let runtime = Tenant::build_runtime(
            &live,
            &tenant.config,
            &tenant.synonyms,
            &tenant.unavailable_markers,
            &tenant.extremum,
        )?;
        let report = refresh_with(
            &dataset.table,
            &tenant.config,
            self.summarizer.as_ref(),
            &tenant.templates,
            &tenant.store,
            changed_rows,
            &self.pool,
            ScatterPriority::Interactive,
        )?;
        *tenant.runtime.write() = runtime;
        if let (Some(state), Some(inner)) = (tenant.ingest.as_ref(), log.as_mut()) {
            inner.reset_from(dataset.table.schema(), live);
            state
                .counters
                .applied_seqno
                .store(inner.applied, Ordering::Relaxed);
        }
        let mut rollup = tenant.rollup.lock();
        rollup.refreshes += 1;
        rollup.recomputed += report.recomputed as u64;
        rollup.removed += report.removed as u64;
        rollup.solver.merge(&report.instrumentation);
        rollup.solver_time += report.solver_time;
        Ok(report)
    }

    /// Accept a batch of row deltas into a tenant's streaming-ingestion
    /// log (see [`crate::ingest`] for the dataflow). Every delta is
    /// seqno-stamped and applied to the log's copy of the tenant's table
    /// immediately; the store is brought up to date by a debounced
    /// flush — inline in this call when the dirty-set bound or the
    /// coalescing window closes, otherwise by a later call or an
    /// explicit [`VoiceService::drain_ingest`]. Lookups keep serving the
    /// last-good speeches throughout; a validation error rejects the
    /// whole batch before any of it is applied.
    ///
    /// Every error precedes acceptance: once the batch is accepted the
    /// call returns `Ok`. An inline flush that fails — an error, or a
    /// panic in the summarizer — is reported in
    /// [`IngestReport::flush_error`] and leaves the deltas pending for
    /// the next flush, so retrying an `Err` never applies a batch twice.
    ///
    /// Fails with [`EngineError::IngestDisabled`] unless the tenant was
    /// registered with [`TenantSpec::ingest`].
    pub fn ingest(&self, name: &str, deltas: &[RowDelta]) -> Result<IngestReport> {
        self.ingest_with(name, deltas, false)
    }

    /// The delta-accepting variant of [`VoiceService::refresh_tenant`]:
    /// accept `deltas` and synchronously drain the whole log through the
    /// shared invalidation circuit, so the store reflects every accepted
    /// delta when this returns. Batch refresh and streaming ingestion
    /// share one invalidation code path; this entry point simply forces
    /// the flush instead of debouncing it.
    ///
    /// An `Err` from validation (or for an unknown or ingest-disabled
    /// tenant) means nothing was accepted. An `Err` after validation —
    /// a failed flush — means the batch *was* accepted and is pending:
    /// the next flush applies it.
    pub fn refresh_tenant_deltas(&self, name: &str, deltas: &[RowDelta]) -> Result<FlushReport> {
        let report = self.ingest_with(name, deltas, true)?;
        Ok(report.flush.expect("forced ingest always flushes"))
    }

    /// Force a full drain of a tenant's pending delta log, regardless of
    /// debounce windows and rate caps. After a successful drain the
    /// store snapshot is byte-identical to a cold pre-processing of the
    /// log's table (the convergence contract), and
    /// [`TenantStats::ingest_lag`] is zero.
    pub fn drain_ingest(&self, name: &str) -> Result<FlushReport> {
        let report = self.ingest_with(name, &[], true)?;
        Ok(report.flush.expect("forced ingest always flushes"))
    }

    /// Shared implementation of the streaming entry points.
    fn ingest_with(&self, name: &str, deltas: &[RowDelta], force: bool) -> Result<IngestReport> {
        let tenant = self
            .tenant(name)
            .ok_or_else(|| EngineError::UnknownTenant {
                name: name.to_string(),
            })?;
        // An injected fault here fires *before* any delta is accepted,
        // so it never leaves the log partially applied.
        self.impose_control(FaultSite::Ingest)?;
        let state = tenant
            .ingest
            .as_ref()
            .ok_or_else(|| EngineError::IngestDisabled {
                tenant: name.to_string(),
            })?;
        let mut inner = state.inner.lock();
        let (first_seqno, last_seqno) = if deltas.is_empty() {
            (0, 0)
        } else {
            inner.accept(deltas)?
        };
        state
            .counters
            .accepted_seqno
            .store(inner.accepted, Ordering::Relaxed);
        let mut report = IngestReport {
            accepted: deltas.len(),
            first_seqno,
            last_seqno,
            flush: None,
            flush_error: None,
        };
        if force {
            report.flush = Some(self.flush_ingest(&tenant, state, &mut inner)?);
        } else if state.auto_flush_due(&inner) {
            match self.auto_flush(&tenant, state, &mut inner) {
                Ok(flush) => report.flush = Some(flush),
                Err(error) => report.flush_error = Some(error),
            }
        }
        Ok(report)
    }

    /// An automatic flush: inline in [`VoiceService::ingest`], or from
    /// [`VoiceService::ingest_tick`]. Its error or panic is contained
    /// here, so it never fails the call that accepted the deltas — a
    /// retry of that call would accept them again. `flush_ingest`
    /// mutates nothing before it succeeds, so the deltas stay pending
    /// for the next flush; the failure is counted in
    /// [`TenantStats::flush_failures`].
    fn auto_flush(
        &self,
        tenant: &Tenant,
        state: &IngestState,
        inner: &mut IngestInner,
    ) -> Result<FlushReport> {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.flush_ingest(tenant, state, inner)))
            .unwrap_or_else(|payload| {
                Err(EngineError::Internal {
                    what: frontend::panic_text(payload),
                })
            });
        if outcome.is_err() {
            state
                .counters
                .flush_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Drain the pending log into the store: re-solve exactly the dirty
    /// `(query-subset, target)` summaries on the pool's Bulk lane and
    /// swap them in atomically, entry by entry — untouched speeches stay
    /// `Arc`-pointer-stable and lookups are never blocked. The store is
    /// only mutated after every dirty query solved, so a failed flush
    /// keeps the log (and its dirty sets) intact for a later retry.
    fn flush_ingest(
        &self,
        tenant: &Tenant,
        state: &IngestState,
        inner: &mut IngestInner,
    ) -> Result<FlushReport> {
        if inner.pending == 0 {
            return Ok(FlushReport::empty());
        }
        let start = Instant::now();
        // The log's table, shared: solved over here and published as the
        // live table, so the next accepted delta copies it once.
        let live = Arc::clone(inner.table());
        // Serialize against batch refreshes (log lock first, then the
        // refresh lock — the same order `refresh_tenant` takes them).
        let _refresh = tenant.refresh_lock.lock();
        // As in `refresh_tenant`: the runtime rebuild is the only other
        // fallible step, so it runs before the store is touched.
        let runtime = Tenant::build_runtime(
            &live,
            &tenant.config,
            &tenant.synonyms,
            &tenant.unavailable_markers,
            &tenant.extremum,
        )?;
        let (all, by_target) = inner.dirty();
        let report = resummarize_with(
            &live,
            &tenant.config,
            self.summarizer.as_ref(),
            &tenant.templates,
            &tenant.store,
            Invalidation::DirtyKeys { all, by_target },
            &self.pool,
            ScatterPriority::Bulk,
        )?;
        *tenant.runtime.write() = runtime;
        let deltas = inner.pending;
        inner.drained(report.recomputed, state.options.max_solves_per_sec);
        let invalidated = report.recomputed + report.removed;
        state
            .counters
            .deltas_applied
            .fetch_add(deltas, Ordering::Relaxed);
        state
            .counters
            .invalidated
            .fetch_add(invalidated as u64, Ordering::Relaxed);
        state
            .counters
            .resummarized
            .fetch_add(report.recomputed as u64, Ordering::Relaxed);
        state
            .counters
            .applied_seqno
            .store(inner.applied, Ordering::Relaxed);
        let mut rollup = tenant.rollup.lock();
        rollup.solver.merge(&report.instrumentation);
        rollup.solver_time += report.solver_time;
        Ok(FlushReport {
            deltas,
            invalidated,
            resummarized: report.recomputed,
            removed: report.removed,
            kept: report.kept,
            elapsed: start.elapsed(),
        })
    }

    /// One pass of a background flusher: drain every streaming tenant
    /// whose debounce window is open (pending deltas, `flush_interval`
    /// elapsed, rate cap satisfied). This is what lets a tenant that
    /// goes *silent* after a burst converge — without it, flushes only
    /// piggyback on the next `ingest` call, which may never come.
    ///
    /// Uses `try_lock` on each tenant's log so a tick never stalls
    /// behind an in-flight ingest (that ingest will flush inline
    /// anyway); a skipped tenant is simply retried on the next tick.
    /// A failed flush (an error or a contained panic) leaves the log
    /// and dirty sets intact for the next tick and is counted in
    /// [`TenantStats::flush_failures`]. Returns the number of tenants
    /// flushed.
    pub fn ingest_tick(&self) -> usize {
        let tenants: Vec<Arc<Tenant>> = self.tenants.read().values().cloned().collect();
        let mut flushed = 0;
        for tenant in tenants {
            let Some(state) = tenant.ingest.as_ref() else {
                continue;
            };
            let Some(mut inner) = state.inner.try_lock() else {
                continue;
            };
            if state.auto_flush_due(&inner) && self.auto_flush(&tenant, state, &mut inner).is_ok() {
                flushed += 1;
            }
        }
        flushed
    }

    /// Shortest configured [`IngestBuilder::flush_interval`] across
    /// streaming-enabled tenants (`None` when no tenant streams). The
    /// front-end flusher derives its tick period from this so the
    /// 2×-interval convergence bound holds for every tenant.
    pub fn min_flush_interval(&self) -> Option<Duration> {
        self.tenants
            .read()
            .values()
            .filter_map(|tenant| {
                tenant
                    .ingest
                    .as_ref()
                    .map(|state| state.options.flush_interval)
            })
            .min()
    }

    /// Remove a tenant (its store dies with the last outstanding
    /// reference). Returns whether the tenant existed.
    pub fn evict_tenant(&self, name: &str) -> bool {
        self.tenants.write().remove(name).is_some()
    }

    /// Registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Shared handle to a tenant's speech store (diagnostics and the
    /// byte-identity assertions in the integration suite).
    pub fn tenant_store(&self, name: &str) -> Option<Arc<SpeechStore>> {
        self.tenant(name).map(|tenant| Arc::clone(&tenant.store))
    }

    /// A clone of a tenant's current extractor (deployment-log replay
    /// and diagnostics).
    pub fn extractor(&self, name: &str) -> Option<Extractor> {
        self.tenant(name)
            .map(|tenant| tenant.runtime.read().extractor.clone())
    }

    /// Open a stateful conversation ([`VoiceSession`]) over one tenant:
    /// the session adds repeat handling on top of the same typed answer
    /// pipeline. It shares the tenant's *live* runtime, so extractor
    /// dictionaries refreshed via [`VoiceService::refresh_tenant`] take
    /// effect mid-conversation, and it holds its own store handle, so it
    /// keeps answering even after the tenant is evicted.
    pub fn session(&self, name: &str) -> Option<VoiceSession> {
        let tenant = self.tenant(name)?;
        let extractor = tenant.runtime.read().extractor.clone();
        tenant.counters.sessions.fetch_add(1, Ordering::Relaxed);
        Some(
            VoiceSession::new(
                Arc::clone(&tenant.store),
                extractor,
                tenant.help_text.clone(),
            )
            .with_tenant_label(&tenant.name)
            .with_shared_runtime(Arc::clone(&tenant.runtime))
            .with_counters(Arc::clone(&tenant.counters)),
        )
    }

    /// Answer one stateless request through the staged pipeline:
    /// classify the text with the tenant's extractor, then resolve
    /// through the three-tier chain — stored speech (or extension
    /// answer), live plan execution on the shared pool's bulk lane, or
    /// a typed apology — and account the latency. Per-user conversation
    /// state (repeat handling) lives in [`VoiceService::session`].
    pub fn respond(&self, request: &ServiceRequest) -> ServiceResponse {
        let start = Instant::now();
        match self.tenant(&request.tenant) {
            Some(tenant) => {
                let deadline = request
                    .deadline
                    .or_else(|| tenant.default_deadline.map(|budget| start + budget));
                self.respond_resolved(
                    &tenant,
                    request.tenant.clone(),
                    &request.text,
                    start,
                    deadline,
                    Exec::Bulk(&self.pool),
                )
            }
            None => Self::unknown_tenant_response(&request.tenant, start),
        }
    }

    /// The response for a request naming an unregistered tenant.
    pub(crate) fn unknown_tenant_response(tenant: &str, start: Instant) -> ServiceResponse {
        let answer = Answer::UnknownTenant {
            tenant: tenant.to_string(),
        };
        ServiceResponse {
            tenant: tenant.to_string(),
            request: None,
            speaking_secs: speaking_time_secs(answer.text()),
            follow_on: None,
            session: None,
            latency_micros: start.elapsed().as_micros() as u64,
            degradation: Degradation::None,
            answer,
        }
    }

    /// Resolve a tenant handle for the serving front-end's batch loop
    /// (one registry read per distinct tenant per batch instead of one
    /// per request). `None` when the tenant is not registered.
    pub(crate) fn resolve_tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenant(name)
    }

    /// A tenant's default deadline budget (the serving front-end stamps
    /// it onto budget-less requests at admission).
    pub(crate) fn tenant_default_deadline(&self, name: &str) -> Option<Duration> {
        self.tenant(name).and_then(|tenant| tenant.default_deadline)
    }

    /// Roll one queue-expired request into its tenant's counters (the
    /// expiry happens in the front-end, before a tenant handle exists).
    pub(crate) fn record_expired(&self, name: &str) {
        if let Some(tenant) = self.tenant(name) {
            tenant.counters.record_expired();
        }
    }

    /// [`VoiceService::respond`] against an already-resolved tenant;
    /// `label` becomes [`ServiceResponse::tenant`] (the front-end moves
    /// the request's own label in, so its allocation travels submitter →
    /// response and is freed where it was allocated).
    pub(crate) fn respond_resolved(
        &self,
        tenant: &Tenant,
        label: String,
        text: &str,
        start: Instant,
        deadline: Option<Instant>,
        exec: Exec<'_>,
    ) -> ServiceResponse {
        if let Some(faults) = &self.faults {
            // Latency/panic injection on the hot path; panics are
            // contained by the front-end's worker loop.
            faults.impose(FaultSite::Respond);
        }
        let runtime = tenant.runtime.read();
        let analysis = pipeline::analyze::analyze(&runtime.extractor, text);
        let solve = pipeline::LiveSolve {
            summarizer: self.summarizer.as_ref(),
            config: &tenant.config,
            templates: &tenant.templates,
            faults: self.faults.as_deref(),
        };
        let ctx = PipelineContext {
            store: &tenant.store,
            help_text: &tenant.help_text,
            extensions: runtime.extensions.as_ref(),
            live: Some(&runtime.live),
            exec,
            deadline,
            solve: Some(solve),
        };
        let (answer, follow_on, degradation) = pipeline::answer(&analysis, text, &ctx);
        drop(runtime);
        tenant.counters.record(&answer, degradation);
        ServiceResponse {
            tenant: label,
            request: Some(analysis.request),
            speaking_secs: speaking_time_secs(answer.text()),
            follow_on,
            session: None,
            latency_micros: start.elapsed().as_micros() as u64,
            degradation,
            answer,
        }
    }

    /// Replay a generated deployment log through one tenant's classifier
    /// and tabulate it into Table III counts (label order: Help, Repeat,
    /// S-Query, U-Query, Other).
    pub fn replay(&self, name: &str, log: &[LogEntry]) -> Option<[usize; 5]> {
        let extractor = self.extractor(name)?;
        Some(tabulate(&extractor, log))
    }

    /// Point-in-time statistics of every tenant, sorted by name.
    pub fn stats(&self) -> ServiceStats {
        let tenants: Vec<Arc<Tenant>> = self.tenants.read().values().cloned().collect();
        let mut stats: Vec<TenantStats> = tenants
            .into_iter()
            .map(|tenant| {
                let rollup = tenant.rollup.lock();
                TenantStats {
                    tenant: tenant.name.clone(),
                    speeches: tenant.store.len(),
                    queries: rollup.preprocess.queries,
                    requests: tenant.counters.requests.load(Ordering::Relaxed),
                    speech_answers: tenant.counters.speeches.load(Ordering::Relaxed),
                    extension_answers: tenant.counters.extensions.load(Ordering::Relaxed),
                    computed_answers: tenant.counters.computed.load(Ordering::Relaxed),
                    help_answers: tenant.counters.helps.load(Ordering::Relaxed),
                    unsupported_answers: tenant.counters.unsupported.load(Ordering::Relaxed),
                    miss_answers: tenant.counters.misses.load(Ordering::Relaxed),
                    expired_requests: tenant.counters.expired.load(Ordering::Relaxed),
                    degraded_answers: tenant.counters.degraded.load(Ordering::Relaxed),
                    sessions_opened: tenant.counters.sessions.load(Ordering::Relaxed),
                    refreshes: rollup.refreshes,
                    recomputed: rollup.recomputed,
                    removed: rollup.removed,
                    deltas_applied: tenant.ingest.as_ref().map_or(0, |state| {
                        state.counters.deltas_applied.load(Ordering::Relaxed)
                    }),
                    summaries_invalidated: tenant.ingest.as_ref().map_or(0, |state| {
                        state.counters.invalidated.load(Ordering::Relaxed)
                    }),
                    summaries_resummarized: tenant.ingest.as_ref().map_or(0, |state| {
                        state.counters.resummarized.load(Ordering::Relaxed)
                    }),
                    ingest_lag: tenant
                        .ingest
                        .as_ref()
                        .map_or(0, |state| state.counters.lag()),
                    flush_failures: tenant.ingest.as_ref().map_or(0, |state| {
                        state.counters.flush_failures.load(Ordering::Relaxed)
                    }),
                    store: tenant.store.stats(),
                    solver: rollup.solver,
                    solver_time: rollup.solver_time,
                }
            })
            .collect();
        stats.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        ServiceStats { tenants: stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_data::{DimSpec, SynthSpec, TargetSpec};

    fn dataset(seed: u64) -> GeneratedDataset {
        SynthSpec {
            name: "svc".to_string(),
            dims: vec![
                DimSpec::named("season", &["Winter", "Summer"]),
                DimSpec::named("region", &["East", "West"]),
            ],
            targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
            rows: 160,
        }
        .generate(seed, 1.0)
    }

    fn config() -> Configuration {
        Configuration::new("svc", &["season", "region"], &["delay"])
    }

    fn service() -> VoiceService {
        ServiceBuilder::new().workers(2).build()
    }

    #[test]
    fn register_respond_and_evict() {
        let service = service();
        let report = service
            .register_dataset(TenantSpec::new("svc", dataset(7), config()))
            .unwrap();
        assert_eq!(report.queries, report.speeches);
        assert!(report.total_solver_time() > Duration::ZERO);
        assert_eq!(service.tenants(), vec!["svc".to_string()]);

        let response = service.respond(&ServiceRequest::new("svc", "delay in Winter?"));
        assert_eq!(response.label(), "S-Query");
        match &response.answer {
            Answer::Speech {
                speech,
                kept_predicates,
            } => {
                assert_eq!(kept_predicates, &None);
                assert!(speech.text.contains("season Winter"), "{}", speech.text);
            }
            other => panic!("expected speech, got {other:?}"),
        }
        assert!(response.speaking_secs > 0.0);

        assert!(service.evict_tenant("svc"));
        assert!(!service.evict_tenant("svc"));
        assert!(service.tenants().is_empty());
        let gone = service.respond(&ServiceRequest::new("svc", "delay in Winter?"));
        assert!(matches!(gone.answer, Answer::UnknownTenant { .. }));
        assert_eq!(gone.text(), UNKNOWN_TENANT);
        assert_eq!(gone.label(), "Unknown");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let service = service();
        service
            .register_dataset(TenantSpec::new("svc", dataset(7), config()))
            .unwrap();
        let err = service
            .register_dataset(TenantSpec::new("svc", dataset(8), config()))
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateTenant { name } if name == "svc"));
    }

    #[test]
    fn refresh_of_unknown_tenant_errors() {
        let service = service();
        let err = service
            .refresh_tenant("nope", &dataset(7), &[])
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownTenant { name } if name == "nope"));
    }

    #[test]
    fn help_chatter_and_miss_map_to_typed_answers() {
        let service = service();
        service
            .register_dataset(
                TenantSpec::new("svc", dataset(7), config()).help_text("Try 'delay in Winter'."),
            )
            .unwrap();
        let help = service.respond(&ServiceRequest::new("svc", "help me"));
        assert_eq!(
            help.answer,
            Answer::Help {
                text: "Try 'delay in Winter'.".to_string()
            }
        );
        let chatter = service.respond(&ServiceRequest::new("svc", "sing me a song"));
        assert_eq!(chatter.text(), NOT_UNDERSTOOD);
        let repeat = service.respond(&ServiceRequest::new("svc", "repeat that"));
        assert_eq!(repeat.text(), NOTHING_TO_REPEAT);
        // With no extension index, the extremum question still
        // classifies as U-Query but the live tier answers it.
        let extremum = service.respond(&ServiceRequest::new(
            "svc",
            "which season has the most delay",
        ));
        assert_eq!(
            extremum.request,
            Some(Request::Unsupported(Unsupported::Extremum))
        );
        match &extremum.answer {
            Answer::Computed { plan, value, text } => {
                assert!(
                    matches!(
                        plan,
                        QueryPlan::GroupExtremum {
                            dimension,
                            highest: true,
                            ..
                        } if dimension == "season"
                    ),
                    "{plan:?}"
                );
                assert!(matches!(value, ComputedValue::GroupExtremum { .. }));
                assert!(text.contains("highest average delay"), "{text}");
            }
            other => panic!("expected a live computed answer, got {other:?}"),
        }

        let stats = service.stats();
        assert_eq!(stats.tenants.len(), 1);
        let tenant = &stats.tenants[0];
        assert_eq!(tenant.requests, 4);
        assert_eq!(tenant.help_answers, 3);
        assert_eq!(tenant.computed_answers, 1);
        assert_eq!(tenant.unsupported_answers, 0);
        assert_eq!(tenant.speech_answers, 0);
    }

    #[test]
    fn extremum_extension_answers_through_the_facade() {
        let service = service();
        service
            .register_dataset(
                TenantSpec::new("svc", dataset(7), config())
                    .target_synonyms("delay", &["delays"])
                    .extremum_index("delay", "delay"),
            )
            .unwrap();
        let response = service.respond(&ServiceRequest::new(
            "svc",
            "which season has the most delays",
        ));
        match &response.answer {
            Answer::Extension { text } => assert!(text.contains("highest"), "{text}"),
            other => panic!("expected extension answer, got {other:?}"),
        }
        assert_eq!(service.stats().tenants[0].extension_answers, 1);
    }

    #[test]
    fn generalization_fallback_reports_kept_predicates() {
        use crate::problem::Query;
        // A store covering only the overall and the Winter slice: a
        // (Winter, North) query must fall back to Winter with one
        // predicate kept, and the typed answer must say so.
        let store = SpeechStore::new();
        for predicates in [vec![], vec![("season", "Winter")]] {
            let query = Query::of("delay", &predicates);
            store.insert(StoredSpeech {
                text: format!("speech for {query}"),
                facts: vec![],
                utility: 1.0,
                base_error: 2.0,
                rows: 10,
                query,
            });
        }
        let ctx = PipelineContext {
            store: &store,
            help_text: "help",
            extensions: None,
            live: None,
            exec: Exec::Inline,
            deadline: None,
            solve: None,
        };
        let analysis = pipeline::Analysis {
            request: Request::Query(Query::of(
                "delay",
                &[("season", "Winter"), ("region", "North")],
            )),
            plan: None,
        };
        let (answer, _, degradation) = pipeline::answer(&analysis, "", &ctx);
        assert_eq!(degradation, Degradation::None);
        match answer {
            Answer::Speech {
                speech,
                kept_predicates,
            } => {
                assert_eq!(kept_predicates, Some(1));
                assert_eq!(speech.query, Query::of("delay", &[("season", "Winter")]));
            }
            other => panic!("expected generalized speech, got {other:?}"),
        }
        // Without a live table, an unknown target is a typed miss
        // carrying the query, distinct from the out-of-deployment
        // apology.
        let miss = pipeline::Analysis {
            request: Request::Query(Query::of("satisfaction", &[])),
            plan: None,
        };
        let (answer, follow_on, _) = pipeline::answer(&miss, "", &ctx);
        assert_eq!(
            answer,
            Answer::NoSummary {
                query: Query::of("satisfaction", &[]),
            }
        );
        assert_eq!(answer.text(), NO_SUMMARY);
        assert_eq!(follow_on, None);
    }

    #[test]
    fn store_hits_carry_follow_on_hints() {
        let service = service();
        service
            .register_dataset(TenantSpec::new("svc", dataset(7), config()))
            .unwrap();
        // The Winter slice extends to (Winter, East) and (Winter, West);
        // the hint picks the canonically first extension.
        let response = service.respond(&ServiceRequest::new("svc", "delay in Winter?"));
        assert!(response.answer.is_speech());
        let hint = response.follow_on.expect("adjacent summaries exist");
        assert_eq!(
            hint.query,
            crate::problem::Query::of("delay", &[("season", "Winter"), ("region", "East")])
        );
        assert_eq!(hint.utterance, "delay for region East and season Winter?");
        // A fully-predicated query has no one-step extension.
        let leaf = service.respond(&ServiceRequest::new("svc", "delay in Winter in the East?"));
        assert!(leaf.answer.is_speech());
        assert_eq!(leaf.follow_on, None);
        // Help answers never carry hints.
        assert_eq!(
            service
                .respond(&ServiceRequest::new("svc", "help"))
                .follow_on,
            None
        );
    }

    #[test]
    fn stats_aggregate_across_tenants() {
        let service = service();
        for name in ["a", "b"] {
            service
                .register_dataset(TenantSpec::new(name, dataset(7), config()))
                .unwrap();
        }
        service.respond(&ServiceRequest::new("a", "delay in Winter?"));
        service.respond(&ServiceRequest::new("a", "delay in Summer?"));
        service.respond(&ServiceRequest::new("b", "delay in Winter?"));
        let stats = service.stats();
        assert_eq!(stats.total_requests(), 3);
        assert_eq!(stats.tenants[0].tenant, "a");
        assert_eq!(stats.tenants[0].requests, 2);
        assert_eq!(stats.tenants[1].requests, 1);
        assert_eq!(stats.total_speeches(), 18);
        assert_eq!(stats.store_totals().lookups, 3);
        assert!(stats.solver_totals().gain_passes > 0);
    }

    #[test]
    fn streaming_ingest_drains_to_cold_preprocess() {
        use vqs_relalg::prelude::Value;
        let service = service();
        let base = dataset(7);
        service
            .register_dataset(
                TenantSpec::new("svc", base.clone(), config()).ingest(
                    IngestBuilder::new()
                        .max_dirty(1000)
                        .flush_interval(Duration::from_secs(3600)),
                ),
            )
            .unwrap();
        let moved = vec![Value::str("Summer"), Value::str("West"), Value::Float(5.25)];
        let deltas = vec![
            RowDelta::Insert(vec![
                Value::str("Winter"),
                Value::str("East"),
                Value::Float(33.0),
            ]),
            RowDelta::Update {
                row: 0,
                values: moved.clone(),
            },
            RowDelta::Delete { row: 3 },
        ];
        let report = service.ingest("svc", &deltas).unwrap();
        assert_eq!(report.accepted, 3);
        assert_eq!((report.first_seqno, report.last_seqno), (1, 3));
        assert!(report.flush.is_none(), "wide debounce window coalesces");
        assert_eq!(service.stats().tenants[0].ingest_lag, 3);

        let flush = service.drain_ingest("svc").unwrap();
        assert_eq!(flush.deltas, 3);
        assert!(flush.resummarized > 0);

        // Convergence: byte-identical to a cold pre-processing of the
        // final table.
        let mut rows: Vec<Vec<Value>> = base.table.iter_rows().collect();
        rows.push(vec![
            Value::str("Winter"),
            Value::str("East"),
            Value::Float(33.0),
        ]);
        rows[0] = moved;
        rows.remove(3);
        let final_dataset = GeneratedDataset {
            name: base.name.clone(),
            table: Table::from_rows(base.table.schema().clone(), rows).unwrap(),
            dims: base.dims.clone(),
            targets: base.targets.clone(),
        };
        let cold = ServiceBuilder::new().workers(2).build();
        cold.register_dataset(TenantSpec::new("svc", final_dataset, config()))
            .unwrap();
        assert_eq!(
            service.tenant_store("svc").unwrap().snapshot(),
            cold.tenant_store("svc").unwrap().snapshot()
        );

        let stats = service.stats();
        let tenant = &stats.tenants[0];
        assert_eq!(tenant.deltas_applied, 3);
        assert_eq!(tenant.ingest_lag, 0);
        assert!(tenant.summaries_resummarized > 0);
        assert!(tenant.summaries_invalidated >= tenant.summaries_resummarized);
    }

    #[test]
    fn a_drained_log_and_the_live_table_are_one_allocation() {
        use vqs_relalg::prelude::Value;
        let service = service();
        service
            .register_dataset(
                TenantSpec::new("svc", dataset(7), config()).ingest(
                    IngestBuilder::new()
                        .max_dirty(1000)
                        .flush_interval(Duration::from_secs(3600)),
                ),
            )
            .unwrap();
        let tenant = service.tenant("svc").unwrap();
        let shared = || {
            let log = tenant.ingest.as_ref().unwrap().inner.lock();
            Arc::ptr_eq(log.table(), &tenant.runtime.read().live)
        };
        assert!(shared(), "registration hands the log the live projection");
        let moved = vec![Value::str("Summer"), Value::str("West"), Value::Float(5.25)];
        service
            .ingest(
                "svc",
                &[
                    RowDelta::Update {
                        row: 1,
                        values: moved.clone(),
                    },
                    RowDelta::Delete { row: 0 },
                ],
            )
            .unwrap();
        assert!(!shared(), "the first delta copies the shared table");
        service.drain_ingest("svc").unwrap();
        assert!(shared(), "the flush publishes the log's table");
        let live = Arc::clone(&tenant.runtime.read().live);
        assert_eq!(live.len(), dataset(7).table.len() - 1);
        assert_eq!(live.row(0), moved);
    }

    #[test]
    fn ingest_requires_opt_in_and_valid_batches() {
        use vqs_relalg::prelude::Value;
        let service = service();
        service
            .register_dataset(TenantSpec::new("svc", dataset(7), config()))
            .unwrap();
        let err = service.ingest("svc", &[]).unwrap_err();
        assert!(matches!(err, EngineError::IngestDisabled { .. }));
        let err = service.ingest("missing", &[]).unwrap_err();
        assert!(matches!(err, EngineError::UnknownTenant { .. }));

        let streaming = ServiceBuilder::new().workers(2).build();
        streaming
            .register_dataset(
                TenantSpec::new("svc", dataset(7), config()).ingest(IngestBuilder::new()),
            )
            .unwrap();
        let err = streaming
            .ingest("svc", &[RowDelta::Delete { row: 10_000 }])
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidDelta { .. }));
        // The rejected batch left nothing behind.
        assert_eq!(streaming.stats().tenants[0].ingest_lag, 0);
        let _ = Value::Null;
    }

    #[test]
    fn refresh_tenant_deltas_matches_batch_refresh() {
        use vqs_relalg::prelude::Value;
        let streaming = service();
        streaming
            .register_dataset(
                TenantSpec::new("svc", dataset(7), config()).ingest(IngestBuilder::new()),
            )
            .unwrap();
        let flush = streaming
            .refresh_tenant_deltas(
                "svc",
                &[RowDelta::Update {
                    row: 2,
                    values: vec![Value::str("Winter"), Value::str("West"), Value::Float(48.0)],
                }],
            )
            .unwrap();
        assert_eq!(flush.deltas, 1);
        assert_eq!(streaming.stats().tenants[0].ingest_lag, 0);

        // The batch path over the same final table lands on the same
        // store.
        let base = dataset(7);
        let mut rows: Vec<Vec<Value>> = base.table.iter_rows().collect();
        rows[2] = vec![Value::str("Winter"), Value::str("West"), Value::Float(48.0)];
        let final_dataset = GeneratedDataset {
            name: base.name.clone(),
            table: Table::from_rows(base.table.schema().clone(), rows).unwrap(),
            dims: base.dims.clone(),
            targets: base.targets.clone(),
        };
        let batch = service();
        batch
            .register_dataset(TenantSpec::new("svc", base, config()))
            .unwrap();
        batch.refresh_tenant("svc", &final_dataset, &[2]).unwrap();
        assert_eq!(
            streaming.tenant_store("svc").unwrap().snapshot(),
            batch.tenant_store("svc").unwrap().snapshot()
        );
    }

    #[test]
    fn full_refresh_resets_the_ingest_log() {
        use vqs_relalg::prelude::Value;
        let service = service();
        service
            .register_dataset(
                TenantSpec::new("svc", dataset(7), config()).ingest(
                    IngestBuilder::new()
                        .max_dirty(1000)
                        .flush_interval(Duration::from_secs(3600)),
                ),
            )
            .unwrap();
        service
            .ingest(
                "svc",
                &[RowDelta::Insert(vec![
                    Value::str("Winter"),
                    Value::str("East"),
                    Value::Float(12.0),
                ])],
            )
            .unwrap();
        assert_eq!(service.stats().tenants[0].ingest_lag, 1);
        // A full refresh hands over authoritative data: the pending log
        // is considered applied by it.
        let replacement = dataset(8);
        service.refresh_tenant("svc", &replacement, &[]).unwrap();
        assert_eq!(service.stats().tenants[0].ingest_lag, 0);
        // Subsequent deltas build on the replacement table.
        let flush = service.drain_ingest("svc").unwrap();
        assert_eq!(flush.deltas, 0);
    }

    #[test]
    fn session_traffic_rolls_up_into_tenant_counters() {
        let service = service();
        service
            .register_dataset(TenantSpec::new("svc", dataset(7), config()))
            .unwrap();
        let mut session = service.session("svc").unwrap();
        let mut second = service.session("svc").unwrap();
        assert_ne!(session.id(), second.id(), "session ids are unique");

        let speech = session.answer("delay in Winter?");
        assert_eq!(speech.session, Some(session.id()));
        assert!(speech.answer.is_speech());
        session.answer("help");
        second.answer("delay in Summer?");
        // Stateless traffic and session traffic meet in one roll-up.
        service.respond(&ServiceRequest::new("svc", "delay in Winter?"));

        let stats = service.stats();
        let tenant = &stats.tenants[0];
        assert_eq!(tenant.sessions_opened, 2);
        assert_eq!(tenant.requests, 4);
        assert_eq!(tenant.speech_answers, 3);
        assert_eq!(tenant.help_answers, 1);
        // The stateless respond path stamps no session id.
        let direct = service.respond(&ServiceRequest::new("svc", "delay in Winter?"));
        assert_eq!(direct.session, None);
    }

    #[test]
    fn session_carries_repeat_state() {
        let service = service();
        service
            .register_dataset(TenantSpec::new("svc", dataset(7), config()))
            .unwrap();
        let mut session = service.session("svc").unwrap();
        assert!(session.answer("say that again").text().contains("not said"));
        let first = session.answer("delay in Winter?").text().to_string();
        assert_eq!(session.answer("repeat that").text(), first);
        assert!(service.session("missing").is_none());
    }

    #[test]
    fn open_sessions_follow_refreshed_dictionaries() {
        use crate::problem::Query;
        use vqs_relalg::prelude::{Table, Value};
        // Before-data where every row is Winter: "Summer" is not in the
        // extractor dictionary at registration time.
        let full = dataset(7);
        let schema = full.table.schema().clone();
        let season_col = schema.index_of("season").unwrap();
        let rows: Vec<Vec<Value>> = full
            .table
            .iter_rows()
            .map(|mut row| {
                row[season_col] = Value::Str("Winter".into());
                row
            })
            .collect();
        let winter_only = GeneratedDataset {
            name: full.name.clone(),
            table: Table::from_rows(schema, rows).unwrap(),
            dims: full.dims.clone(),
            targets: full.targets.clone(),
        };
        let service = service();
        service
            .register_dataset(TenantSpec::new("svc", winter_only, config()))
            .unwrap();
        let mut session = service.session("svc").unwrap();
        match &session.answer("delay in Summer").answer {
            Answer::Speech { speech, .. } => {
                assert!(speech.query.is_empty(), "unknown value → overall speech")
            }
            other => panic!("expected overall speech, got {other:?}"),
        }
        // After a refresh onto data containing Summer, the *same open
        // session* classifies the new value (live shared runtime).
        let changed: Vec<usize> = (0..full.table.len()).collect();
        service.refresh_tenant("svc", &full, &changed).unwrap();
        match &session.answer("delay in Summer").answer {
            Answer::Speech { speech, .. } => {
                assert_eq!(speech.query, Query::of("delay", &[("season", "Summer")]))
            }
            other => panic!("expected the Summer speech, got {other:?}"),
        }
    }

    /// A pool-backed exact summarizer (inner search fan-out routed
    /// through the service's own [`SolverPool`]) must register the
    /// byte-identical store a scoped single-worker exact run produces —
    /// including nested searches inside pool scatter jobs degrading to
    /// inline execution instead of deadlocking.
    #[test]
    fn pool_backed_exact_summarizer_matches_scoped_reference() {
        let mut cfg = config();
        cfg.solver_workers = 0; // resolve to the pool's worker count
        let service = ServiceBuilder::new()
            .workers(2)
            .summarizer_with_pool({
                let cfg = cfg.clone();
                move |pool| Box::new(crate::generator::configured_exact_on(&cfg, pool))
            })
            .build();
        service
            .register_dataset(TenantSpec::new("svc", dataset(7), cfg.clone()))
            .unwrap();
        let pooled = service.tenant_store("svc").unwrap();

        let mut serial_cfg = cfg;
        serial_cfg.solver_workers = 1;
        let (reference, _) = preprocess_with(
            &dataset(7).table,
            &serial_cfg,
            &crate::generator::configured_exact(&serial_cfg),
            &Default::default(),
            &service.solver_pool(),
            ScatterPriority::Bulk,
        )
        .unwrap();
        assert_eq!(pooled.snapshot(), reference.snapshot());
    }

    #[test]
    fn builder_defaults_are_sensible() {
        let service = ServiceBuilder::default().workers(1).build();
        assert_eq!(service.pool_workers(), 1);
        assert!(service.tenants().is_empty());
        assert!(format!("{service:?}").contains("VoiceService"));
        let stats = service.stats();
        assert_eq!(stats.total_requests(), 0);
        assert_eq!(stats.total_speeches(), 0);
    }
}
