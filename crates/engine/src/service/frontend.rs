//! The non-blocking serving front-end: admission control over a
//! [`VoiceService`].
//!
//! [`VoiceService::respond`] is lock-light and `&self`, so any number of
//! threads *can* call it directly — but a thread per voice session does
//! not survive bursty production traffic: a load spike either spawns
//! unbounded threads or blocks callers for unbounded time. The
//! [`FrontEnd`] multiplexes many concurrent sessions over a small fixed
//! worker set instead:
//!
//! * **Bounded ingress.** [`FrontEnd::submit`] enqueues the request and
//!   immediately returns a [`ResponseTicket`] — a future-style handle
//!   completed by a serving worker. The queue is bounded; past the
//!   configured capacity the request is *shed* with an explicit
//!   [`Answer::Overloaded`], so the submitter never waits. Nothing
//!   inside grows with offered load.
//! * **Per-tenant fairness.** Queued requests live in per-tenant FIFO
//!   lanes served round-robin, and each tenant's queue share is capped
//!   ([`FrontEndBuilder::tenant_share`]), so one hot tenant saturating
//!   the service cannot starve the others: its overflow is shed while
//!   other tenants keep being admitted.
//! * **Deadlines & expiry.** A request may carry an absolute deadline
//!   (its own [`ServiceRequest::with_deadline`], else the tenant's
//!   [`TenantSpec::default_deadline`]). When admission finds the
//!   queue full, the *oldest queued request already past its deadline*
//!   is shed first — completed with [`Answer::Expired`] — before fresh
//!   work is shed, and a serving worker re-checks expiry when it picks
//!   a request up, so no compute is spent on an answer nobody is
//!   waiting for. A request answered past its deadline skips live plans
//!   and answers from the store alone (see [`crate::pipeline`]).
//! * **One job per thread.** Serving workers answer interactive
//!   requests end to end, live plans included. Background work — tenant
//!   registrations, refreshes, ingest batches (with any flush they run
//!   inline) and ad-hoc tasks, submitted through
//!   [`FrontEnd::submit_register`], [`FrontEnd::submit_refresh`],
//!   [`FrontEnd::submit_ingest`] and [`FrontEnd::submit_task`] — queues
//!   on a control lane that one dedicated control thread runs, one job
//!   at a time, in FIFO order. Between jobs the same thread runs the
//!   flush tick that drains silent streaming tenants. So no `respond`
//!   waits behind a registration or a flush. Only solver work reaches
//!   the shared [`SolverPool`](crate::service::SolverPool): the control
//!   jobs' solves fan out over it, and no respond runs a summarizer.
//! * **Graceful shutdown.** Dropping the front-end (or calling
//!   [`FrontEnd::shutdown`]) drains every admitted request — the serving
//!   workers drain the interactive lanes, the control thread the control
//!   lane, so tickets are never lost — and joins the serving workers and
//!   the control thread. No flush tick starts after shutdown began.
//!
//! ```
//! use std::sync::Arc;
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
//! let service = Arc::new(ServiceBuilder::new().workers(2).build());
//! service
//!     .register_dataset(TenantSpec::new("demo", data, config))
//!     .unwrap();
//!
//! let frontend = FrontEnd::builder(Arc::clone(&service))
//!     .workers(2)
//!     .queue_capacity(128)
//!     .build();
//! let ticket = frontend.submit(ServiceRequest::new("demo", "delay in Winter?"));
//! let response = ticket.wait();
//! assert!(response.answer.is_speech());
//! assert_eq!(frontend.stats().completed, 1);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vqs_data::GeneratedDataset;
use vqs_relalg::hash::FxHashMap;

use crate::error::{EngineError, Result};
use crate::generator::{PreprocessReport, RefreshReport};
use crate::ingest::{IngestReport, RowDelta};
use crate::service::{
    Answer, Degradation, ServiceRequest, ServiceResponse, Tenant, TenantSpec, VoiceService,
};

/// How many queued interactive requests one worker claims per queue-lock
/// acquisition (round-robin across tenant lanes), amortizing the handoff
/// cost under load.
const SERVE_BATCH: usize = 32;

/// Emptied per-tenant lanes are kept (their buffers are reused) only up
/// to this many lanes; beyond it, emptied lanes are dropped so ingress
/// state stays bounded even when clients invent tenant names.
const RETAINED_LANES: usize = 64;

/// Distinct tenants tracked by the per-tenant shed counters; rejections
/// for names beyond this bucket into a `"(other)"` row so the map
/// cannot grow without bound under an adversarial name flood.
const SHED_TENANT_CAP: usize = 256;

/// Maximum queued background jobs (registrations, refreshes, ingest
/// batches and tasks) on the control lane.
const BACKGROUND_CAPACITY: usize = 64;

/// Maximum retries of one background job after an infrastructure
/// failure (a contained panic or [`EngineError::Internal`]).
const BACKGROUND_RETRIES: u32 = 2;

/// Backoff before the first background retry; it doubles per attempt up
/// to [`RETRY_BACKOFF_CAP`].
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Upper bound on the exponential backoff between background retry
/// attempts.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Longest period of the control thread's flush tick. The tick comes
/// every half the shortest tenant `flush_interval`, but never less often
/// than this — so a tenant registered with a *smaller* interval while
/// the control thread waits is picked up within one bounded period.
const FLUSH_TICK_CAP: Duration = Duration::from_millis(100);

/// Shortest period of the flush tick (ticking faster than this buys
/// nothing — `auto_flush_due` gates on the per-tenant interval anyway).
const FLUSH_TICK_FLOOR: Duration = Duration::from_millis(1);

/// Shared completion state of one ticket. The value lives in a
/// [`OnceLock`], so readiness checks and completed-value reads are
/// lock-free; the mutex guards only the count of parked waiters, and a
/// completion pays the condvar notification only when somebody is
/// actually parked.
struct TicketInner<T> {
    value: OnceLock<T>,
    waiters: Mutex<u32>,
    ready: Condvar,
}

/// A future-style handle to one admitted request. Cloneable — any number
/// of threads may wait on or poll the same ticket; every waiter observes
/// the same completed value.
pub struct Ticket<T: Clone> {
    inner: Arc<TicketInner<T>>,
}

impl<T: Clone> Clone for Ticket<T> {
    fn clone(&self) -> Self {
        Ticket {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<T: Clone> Ticket<T> {
    fn pending() -> Ticket<T> {
        Ticket {
            inner: Arc::new(TicketInner {
                value: OnceLock::new(),
                waiters: Mutex::new(0),
                ready: Condvar::new(),
            }),
        }
    }

    fn completed(value: T) -> Ticket<T> {
        let ticket = Ticket::pending();
        let _ = ticket.inner.value.set(value);
        ticket
    }

    fn complete(&self, value: T) {
        let won = self.inner.value.set(value).is_ok();
        debug_assert!(won, "ticket completed twice");
        // Registration of a waiter happens under the mutex after a
        // failed lock-free read, so taking the mutex here orders this
        // wakeup after any in-flight registration — and skips the
        // condvar entirely in the common nobody-parked case.
        let waiters = self.inner.waiters.lock().expect("ticket poisoned");
        if *waiters > 0 {
            self.inner.ready.notify_all();
        }
    }

    /// Park until the value is set (lock-free fast path first).
    fn block_until_ready(&self) {
        if self.inner.value.get().is_some() {
            return;
        }
        let mut waiters = self.inner.waiters.lock().expect("ticket poisoned");
        while self.inner.value.get().is_none() {
            *waiters += 1;
            waiters = self.inner.ready.wait(waiters).expect("ticket poisoned");
            *waiters -= 1;
        }
    }

    /// Whether the result is available ([`Ticket::wait`] would not
    /// block). Lock-free.
    pub fn is_ready(&self) -> bool {
        self.inner.value.get().is_some()
    }

    /// Block until the request completed and return its result.
    pub fn wait(&self) -> T {
        self.block_until_ready();
        self.inner.value.get().cloned().expect("ticket ready above")
    }

    /// [`Ticket::wait`], consuming the handle. When this is the last
    /// handle to the ticket (the common single-consumer case — the
    /// serving worker drops its own handle at completion), the result
    /// is moved out instead of cloned, which keeps the per-request
    /// overhead allocation-free on the hot path.
    pub fn into_inner(self) -> T {
        self.block_until_ready();
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.value.into_inner().expect("ticket ready above"),
            Err(inner) => inner.value.get().cloned().expect("ticket ready above"),
        }
    }

    /// [`Ticket::wait`] with a deadline; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<T> {
        if let Some(value) = self.inner.value.get() {
            return Some(value.clone());
        }
        let deadline = Instant::now() + timeout;
        let mut waiters = self.inner.waiters.lock().expect("ticket poisoned");
        loop {
            if let Some(value) = self.inner.value.get() {
                return Some(value.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            *waiters += 1;
            let (guard, _) = self
                .inner
                .ready
                .wait_timeout(waiters, deadline - now)
                .expect("ticket poisoned");
            waiters = guard;
            *waiters -= 1;
        }
    }
}

/// Ticket for one interactive request; completes with the same
/// [`ServiceResponse`] a direct [`VoiceService::respond`] call returns
/// (or an [`Answer::Overloaded`] response when shed).
pub type ResponseTicket = Ticket<ServiceResponse>;
/// Ticket for a background [`FrontEnd::submit_register`].
pub type RegisterTicket = Ticket<Result<PreprocessReport>>;
/// Ticket for a background [`FrontEnd::submit_refresh`].
pub type RefreshTicket = Ticket<Result<RefreshReport>>;
/// Ticket for a background [`FrontEnd::submit_ingest`].
pub type IngestTicket = Ticket<Result<IngestReport>>;
/// Ticket for a background [`FrontEnd::submit_task`].
pub type TaskTicket = Ticket<()>;

/// Render a contained panic payload for [`EngineError::Internal`].
pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run a fallible background operation with up to
/// [`BACKGROUND_RETRIES`] retries.
///
/// Only *infrastructure* failures are retried: contained panics (each
/// attempt runs under its own `catch_unwind`) and
/// [`EngineError::Internal`]. Typed domain errors — duplicate tenant,
/// unknown tenant, bad data — are deterministic, so retrying them would
/// only burn control-lane time; they surface immediately. The backoff
/// doubles per attempt from [`RETRY_BACKOFF`], capped at
/// [`RETRY_BACKOFF_CAP`].
fn run_with_retry<T>(retried: &AtomicU64, attempt: impl Fn() -> Result<T>) -> Result<T> {
    let mut tries = 0u32;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(&attempt)).unwrap_or_else(|payload| {
            Err(EngineError::Internal {
                what: panic_text(payload),
            })
        });
        match outcome {
            Err(EngineError::Internal { .. }) if tries < BACKGROUND_RETRIES => {
                tries += 1;
                retried.fetch_add(1, Ordering::Relaxed);
                let exp = RETRY_BACKOFF.saturating_mul(1u32 << (tries - 1));
                std::thread::sleep(exp.min(RETRY_BACKOFF_CAP));
            }
            outcome => return outcome,
        }
    }
}

/// A queued interactive request: one entry of a tenant's FIFO lane.
struct Queued {
    request: ServiceRequest,
    ticket: ResponseTicket,
    submitted_at: Instant,
}

impl Queued {
    /// Whether the request is past its deadline (stamped at admission;
    /// a deadline-free request never expires).
    fn expired(&self, now: Instant) -> bool {
        self.request.deadline.is_some_and(|d| now >= d)
    }
}

/// A queued background job (registration, refresh, or ad-hoc task);
/// completes its own ticket.
type BackgroundJob = Box<dyn FnOnce(&VoiceService) + Send + 'static>;

/// The ingress state, under one lock.
struct Ingress {
    /// Per-tenant FIFO lanes of the interactive queue.
    lanes: FxHashMap<String, VecDeque<Queued>>,
    /// Tenants with a non-empty lane, in round-robin dispatch order.
    rotation: VecDeque<String>,
    /// Total requests across all interactive lanes.
    interactive_queued: usize,
    /// The background/control lane, run by the control thread.
    background: VecDeque<BackgroundJob>,
    /// Serving workers currently parked on `work_ready`.
    idle_workers: usize,
    /// Set once by shutdown; the serving workers drain the interactive
    /// lanes and the control thread the control lane, then they exit.
    shutdown: bool,
}

/// Monotonic counters, read through [`FrontEnd::stats`].
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    degraded: AtomicU64,
    background_submitted: AtomicU64,
    background_completed: AtomicU64,
    retried_background: AtomicU64,
    ingest_submitted: AtomicU64,
    ingest_deltas: AtomicU64,
    peak_queued: AtomicU64,
    contained_panics: AtomicU64,
    flush_ticks: AtomicU64,
    background_flushes: AtomicU64,
    shed_by_tenant: Mutex<FxHashMap<String, u64>>,
}

/// State shared between the front-end handle, its serving workers and
/// its control thread.
struct FrontShared {
    ingress: Mutex<Ingress>,
    /// Wakes serving workers parked for interactive work.
    work_ready: Condvar,
    /// Wakes the control thread parked for background work (it also
    /// wakes on its own when the flush tick is due).
    control_ready: Condvar,
    counters: Counters,
}

/// A point-in-time snapshot of the front-end counters.
#[derive(Debug, Clone, Default)]
pub struct FrontEndStats {
    /// Interactive requests offered to [`FrontEnd::submit`].
    pub submitted: u64,
    /// Interactive requests completed by a serving worker.
    pub completed: u64,
    /// Interactive requests rejected with [`Answer::Overloaded`].
    pub shed: u64,
    /// Interactive requests that sat in the queue past their deadline
    /// and were completed with [`Answer::Expired`] without being
    /// computed. Every submitted request lands in exactly one of
    /// `completed`, `shed`, or `expired`; once the queue drains,
    /// `submitted == completed + shed + expired`.
    pub expired: u64,
    /// Completed requests whose answer stepped down the degradation
    /// ladder to meet its deadline
    /// ([`ServiceResponse::degradation`] ≠ [`Degradation::None`]).
    /// A subset of `completed`: a degraded answer is still an answer.
    pub degraded: u64,
    /// Background jobs admitted (registrations, refreshes, ingest
    /// batches, tasks).
    pub background_submitted: u64,
    /// Background jobs claimed and run by the control thread (counted
    /// as the job starts; every claimed job runs to completion).
    pub background_completed: u64,
    /// Background attempts retried after an infrastructure failure (a
    /// contained panic or [`EngineError::Internal`]); typed domain
    /// errors are never retried. Each retry of the same job counts
    /// once, so one job can contribute up to 2.
    pub retried_background: u64,
    /// Streaming-ingestion batches admitted via
    /// [`FrontEnd::submit_ingest`] (a subset of `background_submitted`).
    pub ingest_submitted: u64,
    /// Row deltas carried by those admitted batches.
    pub ingest_deltas: u64,
    /// Highest interactive queue depth observed at admission.
    pub peak_queued: u64,
    /// Interactive requests whose handling panicked; the panic was
    /// contained and the ticket completed with [`Answer::Internal`].
    /// Nonzero values indicate bugs, not load.
    pub contained_panics: u64,
    /// Flush ticks the control thread ran over the streaming tenants
    /// (zero under [`FrontEndBuilder::no_flush_tick`]).
    pub flush_ticks: u64,
    /// Tenants whose pending delta log a flush tick drained — flushes
    /// that happened *without* an ingest call to piggyback on (a silent
    /// tenant converging on its `flush_interval`).
    pub background_flushes: u64,
    /// Interactive sheds per tenant, sorted by tenant name.
    pub shed_by_tenant: Vec<(String, u64)>,
}

/// Configures and spawns a [`FrontEnd`].
#[derive(Debug)]
pub struct FrontEndBuilder {
    service: Arc<VoiceService>,
    workers: usize,
    queue_capacity: usize,
    tenant_share: Option<usize>,
    flush_tick: bool,
}

impl FrontEndBuilder {
    /// Start from the defaults: 2 serving workers, a 1024-deep ingress
    /// queue with no per-tenant cap below it, and the flush tick on the
    /// control thread enabled. The control lane holds up to 64 queued
    /// background jobs, each retried at most twice after an
    /// infrastructure failure.
    pub fn new(service: Arc<VoiceService>) -> FrontEndBuilder {
        FrontEndBuilder {
            service,
            workers: 2,
            queue_capacity: 1024,
            tenant_share: None,
            flush_tick: true,
        }
    }

    /// Serving worker threads (`0` = all available cores; clamped to at
    /// least 1). Lookups are µs-scale, so a handful of workers saturate
    /// a store — size this to cores, not to concurrent sessions. The
    /// control thread that runs background jobs and the flush tick comes
    /// on top.
    pub fn workers(mut self, workers: usize) -> FrontEndBuilder {
        self.workers = workers;
        self
    }

    /// Maximum *queued* interactive requests across all tenants
    /// (clamped to at least 1). The admission cap: request `capacity+1`
    /// sheds.
    pub fn queue_capacity(mut self, capacity: usize) -> FrontEndBuilder {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Maximum queued requests any single tenant may hold (defaults to
    /// the whole queue capacity). A tenant past its share is shed even
    /// when the queue has room, so a hot tenant's burst cannot consume
    /// the queue space other tenants admit into.
    pub fn tenant_share(mut self, share: usize) -> FrontEndBuilder {
        self.tenant_share = Some(share.max(1));
        self
    }

    /// Turn off the control thread's flush tick. Streaming tenants then
    /// flush only inline with ingest calls or explicitly via
    /// [`VoiceService::drain_ingest`] / [`VoiceService::ingest_tick`].
    /// With the tick (the default), a tenant that goes *silent* after a
    /// burst still converges: the control thread calls
    /// [`VoiceService::ingest_tick`] between control jobs, so a lone
    /// delta is re-summarized within 2× its tenant's [`flush_interval`]
    /// of the control thread being free, with no further calls. A control
    /// job that runs longer (a registration, a flush) delays the tick
    /// until it returns.
    ///
    /// [`flush_interval`]: crate::ingest::IngestBuilder::flush_interval
    pub fn no_flush_tick(mut self) -> FrontEndBuilder {
        self.flush_tick = false;
        self
    }

    /// Spawn the serving workers and the control thread, and build the
    /// front-end.
    pub fn build(self) -> FrontEnd {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        } else {
            self.workers
        };
        let shared = Arc::new(FrontShared {
            ingress: Mutex::new(Ingress {
                lanes: FxHashMap::default(),
                rotation: VecDeque::new(),
                interactive_queued: 0,
                background: VecDeque::new(),
                idle_workers: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            control_ready: Condvar::new(),
            counters: Counters::default(),
        });
        let mut handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let service = Arc::clone(&self.service);
                std::thread::Builder::new()
                    .name(format!("vqs-serve-{index}"))
                    .spawn(move || worker_loop(&shared, &service))
                    .expect("spawn serving worker")
            })
            .collect();
        {
            let shared = Arc::clone(&shared);
            let service = Arc::clone(&self.service);
            let flush_tick = self.flush_tick;
            handles.push(
                std::thread::Builder::new()
                    .name("vqs-control".to_string())
                    .spawn(move || control_loop(&shared, &service, flush_tick))
                    .expect("spawn control thread"),
            );
        }
        FrontEnd {
            service: self.service,
            shared,
            workers,
            queue_capacity: self.queue_capacity,
            tenant_share: self.tenant_share.unwrap_or(self.queue_capacity),
            handles,
        }
    }
}

/// The serving front-end; see the [module docs](crate::service::frontend)
/// for the admission model. All submission methods take `&self` — share the front-end
/// behind an [`Arc`] across any number of gateway threads.
pub struct FrontEnd {
    service: Arc<VoiceService>,
    shared: Arc<FrontShared>,
    workers: usize,
    queue_capacity: usize,
    tenant_share: usize,
    /// The serving workers, then the control thread.
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("tenant_share", &self.tenant_share)
            .finish_non_exhaustive()
    }
}

impl FrontEnd {
    /// Start configuring a front-end over `service`.
    pub fn builder(service: Arc<VoiceService>) -> FrontEndBuilder {
        FrontEndBuilder::new(service)
    }

    /// The service this front-end serves.
    pub fn service(&self) -> &Arc<VoiceService> {
        &self.service
    }

    /// Serving worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queued (interactive, background) requests right now — a racy
    /// load gauge.
    pub fn queue_depths(&self) -> (usize, usize) {
        let ingress = self.shared.ingress.lock().expect("ingress poisoned");
        (ingress.interactive_queued, ingress.background.len())
    }

    /// The response a shed request completes with, and the per-tenant
    /// accounting of the rejection.
    fn shed_response(&self, tenant: &str, start: Instant) -> ServiceResponse {
        self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        {
            // Leaf lock (never held while taking another). Allocate the
            // map key only on a tenant's first shed — this path runs
            // hottest exactly during overload bursts.
            let mut shed_by_tenant = self
                .shared
                .counters
                .shed_by_tenant
                .lock()
                .expect("shed map poisoned");
            if let Some(count) = shed_by_tenant.get_mut(tenant) {
                *count += 1;
            } else if shed_by_tenant.len() < SHED_TENANT_CAP {
                shed_by_tenant.insert(tenant.to_string(), 1);
            } else {
                *shed_by_tenant.entry("(other)".to_string()).or_insert(0) += 1;
            }
        }
        let answer = Answer::Overloaded {
            tenant: tenant.to_string(),
        };
        ServiceResponse::unclassified(tenant, answer, start.elapsed())
    }

    /// Stamp a request's resolved deadline at admission: its own
    /// [`ServiceRequest::deadline`] wins, else the tenant's default
    /// budget, measured from `start` (the submission call's entry).
    fn stamp_deadline(&self, request: &mut ServiceRequest, start: Instant) {
        if request.deadline.is_none() {
            request.deadline = self
                .service
                .tenant_default_deadline(&request.tenant)
                .map(|budget| start + budget);
        }
    }

    /// Deadline-driven shedding at a full queue: remove the oldest
    /// queued entry already past its deadline (if any), complete it as
    /// [`Answer::Expired`], and return whether space was freed. Runs
    /// *before* fresh work is shed, so stale requests nobody is waiting
    /// for anymore are the first to go.
    fn shed_expired(&self, ingress: &mut Ingress) -> bool {
        let now = Instant::now();
        let Some(entry) = take_expired(ingress, now) else {
            return false;
        };
        expire_entry(entry, now, &self.service, &self.shared.counters);
        true
    }

    /// Submit one interactive request. Never blocks: the returned ticket
    /// is either admitted (completed by a serving worker) or already
    /// completed with [`Answer::Overloaded`], at the tenant's share or
    /// at the global cap.
    pub fn submit(&self, mut request: ServiceRequest) -> ResponseTicket {
        let start = Instant::now();
        self.stamp_deadline(&mut request, start);
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let mut ingress = self.shared.ingress.lock().expect("ingress poisoned");
        // Fairness cap first: a tenant past its share sheds regardless of
        // headroom. Then the global cap, after first trying to make room
        // by expiring the oldest queued request already past its
        // deadline.
        let lane_depth = ingress.lanes.get(&request.tenant).map_or(0, VecDeque::len);
        if lane_depth >= self.tenant_share
            || (ingress.interactive_queued >= self.queue_capacity
                && !self.shed_expired(&mut ingress))
        {
            drop(ingress);
            return Ticket::completed(self.shed_response(&request.tenant, start));
        }
        let ticket = Ticket::pending();
        let state = &mut *ingress;
        // Fast path: the tenant's lane already exists (no key clone, and
        // an emptied lane keeps its buffer).
        let lane = match state.lanes.get_mut(&request.tenant) {
            Some(lane) => lane,
            None => state.lanes.entry(request.tenant.clone()).or_default(),
        };
        if lane.is_empty() {
            state.rotation.push_back(request.tenant.clone());
        }
        lane.push_back(Queued {
            request,
            ticket: ticket.clone(),
            submitted_at: start,
        });
        state.interactive_queued += 1;
        self.shared
            .counters
            .peak_queued
            .fetch_max(state.interactive_queued as u64, Ordering::Relaxed);
        if state.idle_workers > 0 {
            self.shared.work_ready.notify_one();
        }
        ticket
    }

    /// Queue a background job on the control lane, applying the
    /// background-capacity admission check, and wake the control thread.
    fn submit_background(&self, job: BackgroundJob) -> std::result::Result<(), ()> {
        let mut ingress = self.shared.ingress.lock().expect("ingress poisoned");
        if ingress.background.len() >= BACKGROUND_CAPACITY {
            return Err(());
        }
        ingress.background.push_back(job);
        self.shared
            .counters
            .background_submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.control_ready.notify_one();
        Ok(())
    }

    /// Register a tenant in the background: the control thread runs the
    /// registration, whose solver batches carry the bulk tag through the
    /// shared pool, while the serving workers keep answering. The ticket
    /// resolves to [`VoiceService::register_dataset`]'s result, or
    /// [`EngineError::Overloaded`] if the control lane was full. Panics
    /// and internal errors are retried up to twice with exponential
    /// backoff — registration is all-or-nothing service-side, so a failed
    /// attempt leaves nothing behind and the retry starts clean.
    pub fn submit_register(&self, spec: TenantSpec) -> RegisterTicket {
        let ticket: RegisterTicket = Ticket::pending();
        let completion = ticket.clone();
        let tenant = spec.name().to_string();
        let shared = Arc::clone(&self.shared);
        let job: BackgroundJob = Box::new(move |service| {
            // Contain panics: the control thread survives and the ticket
            // still completes (with `EngineError::Internal` after the
            // last attempt) instead of hanging its waiters.
            let outcome = run_with_retry(&shared.counters.retried_background, || {
                service.register_dataset(spec.clone())
            });
            completion.complete(outcome);
        });
        if self.submit_background(job).is_err() {
            return Ticket::completed(Err(EngineError::Overloaded { tenant }));
        }
        ticket
    }

    /// Refresh a tenant in the background (on the control thread; its
    /// solver batches ride the pool's interactive fast lane so small
    /// deltas are not stuck behind a bulk registration). The ticket
    /// resolves to [`VoiceService::refresh_tenant`]'s result. Panics and
    /// internal errors are retried up to twice with exponential backoff
    /// — safe because a failed refresh is fail-atomic (the tenant keeps
    /// serving its previous store).
    pub fn submit_refresh(
        &self,
        tenant: impl Into<String>,
        dataset: GeneratedDataset,
        changed_rows: Vec<usize>,
    ) -> RefreshTicket {
        let tenant = tenant.into();
        let ticket: RefreshTicket = Ticket::pending();
        let completion = ticket.clone();
        let name = tenant.clone();
        let shared = Arc::clone(&self.shared);
        let job: BackgroundJob = Box::new(move |service| {
            let outcome = run_with_retry(&shared.counters.retried_background, || {
                service.refresh_tenant(&name, &dataset, &changed_rows)
            });
            completion.complete(outcome);
        });
        if self.submit_background(job).is_err() {
            return Ticket::completed(Err(EngineError::Overloaded { tenant }));
        }
        ticket
    }

    /// Stream a batch of row deltas into a tenant in the background. The
    /// control thread runs [`VoiceService::ingest`], including the flush
    /// it runs inline once the tenant's pending deltas reach `max_dirty`
    /// or its `flush_interval` has passed, so the serving workers never
    /// wait for a flush; the flush's solves fan out over the shared
    /// pool. The ticket resolves to `ingest`'s result, whose
    /// [`IngestReport::flush`] reports that inline flush. Panics and
    /// internal errors are retried up to twice. A retry never applies a
    /// batch twice: every error `ingest` returns precedes acceptance (an
    /// injected [`crate::service::FaultSite::Ingest`] fault, a validation
    /// error), and once the batch is accepted the call reports `Ok` — a
    /// failed inline flush only sets [`IngestReport::flush_error`] and
    /// leaves the deltas pending for the next flush.
    pub fn submit_ingest(&self, tenant: impl Into<String>, deltas: Vec<RowDelta>) -> IngestTicket {
        let tenant = tenant.into();
        let ticket: IngestTicket = Ticket::pending();
        let completion = ticket.clone();
        let name = tenant.clone();
        let shared = Arc::clone(&self.shared);
        let batch = deltas.len() as u64;
        let job: BackgroundJob = Box::new(move |service| {
            let outcome = run_with_retry(&shared.counters.retried_background, || {
                service.ingest(&name, &deltas)
            });
            completion.complete(outcome);
        });
        if self.submit_background(job).is_err() {
            return Ticket::completed(Err(EngineError::Overloaded { tenant }));
        }
        self.shared
            .counters
            .ingest_submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .counters
            .ingest_deltas
            .fetch_add(batch, Ordering::Relaxed);
        ticket
    }

    /// Run an arbitrary closure against the service on the control
    /// thread (evictions, stats dumps, maintenance). Subject to the same
    /// background admission control; the ticket completes after the
    /// closure ran.
    ///
    /// Control jobs run one at a time, so a task must not wait on the
    /// ticket of another control job (a registration, refresh, ingest
    /// batch or task): a job queued behind the task cannot start until
    /// the task returns, so that wait never ends.
    pub fn submit_task(
        &self,
        task: impl FnOnce(&VoiceService) + Send + 'static,
    ) -> std::result::Result<TaskTicket, EngineError> {
        let ticket: TaskTicket = Ticket::pending();
        let completion = ticket.clone();
        let job: BackgroundJob = Box::new(move |service| {
            // A panicking task is contained (the control thread
            // survives) and its ticket still completes.
            let _ = catch_unwind(AssertUnwindSafe(|| task(service)));
            completion.complete(());
        });
        match self.submit_background(job) {
            Ok(()) => Ok(ticket),
            Err(()) => Err(EngineError::Overloaded {
                tenant: String::new(),
            }),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FrontEndStats {
        let counters = &self.shared.counters;
        let mut shed_by_tenant: Vec<(String, u64)> = counters
            .shed_by_tenant
            .lock()
            .expect("shed map poisoned")
            .iter()
            .map(|(tenant, count)| (tenant.clone(), *count))
            .collect();
        shed_by_tenant.sort();
        FrontEndStats {
            submitted: counters.submitted.load(Ordering::Relaxed),
            completed: counters.completed.load(Ordering::Relaxed),
            shed: counters.shed.load(Ordering::Relaxed),
            expired: counters.expired.load(Ordering::Relaxed),
            degraded: counters.degraded.load(Ordering::Relaxed),
            background_submitted: counters.background_submitted.load(Ordering::Relaxed),
            background_completed: counters.background_completed.load(Ordering::Relaxed),
            retried_background: counters.retried_background.load(Ordering::Relaxed),
            ingest_submitted: counters.ingest_submitted.load(Ordering::Relaxed),
            ingest_deltas: counters.ingest_deltas.load(Ordering::Relaxed),
            peak_queued: counters.peak_queued.load(Ordering::Relaxed),
            contained_panics: counters.contained_panics.load(Ordering::Relaxed),
            flush_ticks: counters.flush_ticks.load(Ordering::Relaxed),
            background_flushes: counters.background_flushes.load(Ordering::Relaxed),
            shed_by_tenant,
        }
    }

    /// Stop admitting, drain every admitted request (all outstanding
    /// tickets complete), and join the serving workers and the control
    /// thread. Equivalent to dropping the front-end, made explicit for
    /// call sites that want the drain point visible.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        {
            let mut ingress = self.shared.ingress.lock().expect("ingress poisoned");
            ingress.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.control_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Remove and return the oldest-submitted *expired* queued request,
/// fixing up the lane/rotation accounting. Only lane fronts are
/// inspected: lanes are FIFO, so each front is its lane's oldest entry
/// and anything behind it has waited strictly less long.
fn take_expired(ingress: &mut Ingress, now: Instant) -> Option<Queued> {
    let mut oldest: Option<(usize, Instant)> = None;
    for (slot, tenant) in ingress.rotation.iter().enumerate() {
        let entry = ingress
            .lanes
            .get(tenant)
            .and_then(VecDeque::front)
            .expect("rotation entry without queued lane");
        if entry.expired(now) && oldest.is_none_or(|(_, at)| entry.submitted_at < at) {
            oldest = Some((slot, entry.submitted_at));
        }
    }
    let (slot, _) = oldest?;
    let tenant = ingress.rotation.remove(slot).expect("slot from enumerate");
    let lane = ingress
        .lanes
        .get_mut(&tenant)
        .expect("rotation entry without lane");
    let entry = lane.pop_front().expect("front entry seen above");
    ingress.interactive_queued -= 1;
    if !lane.is_empty() {
        // The lane keeps its dispatch turn — it merely rejoins the
        // rotation at the back, like after any served entry.
        ingress.rotation.push_back(tenant);
    } else if ingress.lanes.len() > RETAINED_LANES {
        ingress.lanes.remove(&tenant);
    }
    Some(entry)
}

/// Complete an expired request's ticket and do the accounting: expired
/// requests count in `expired`, *not* `completed` — the invariant is
/// `submitted == completed + shed + expired` — and roll into their
/// tenant's own [`TenantStats::expired_requests`].
///
/// [`TenantStats::expired_requests`]: crate::service::TenantStats::expired_requests
fn expire_entry(entry: Queued, now: Instant, service: &VoiceService, counters: &Counters) {
    counters.expired.fetch_add(1, Ordering::Relaxed);
    service.record_expired(&entry.request.tenant);
    // The request's entire cost was its time in the queue, so that is
    // also its reported latency: it was never computed.
    let queued_for = now.saturating_duration_since(entry.submitted_at);
    let tenant = &entry.request.tenant;
    let answer = Answer::Expired {
        tenant: tenant.clone(),
        queued_for,
    };
    let response = ServiceResponse::unclassified(tenant, answer, queued_for);
    entry.ticket.complete(response);
}

/// Claim a round-robin batch from the interactive lanes, or nothing when
/// no request is queued.
fn next_work(ingress: &mut Ingress) -> Option<Vec<Queued>> {
    if ingress.interactive_queued == 0 {
        return None;
    }
    // Leave a fair share for workers currently parked: claiming the
    // whole queue while peers idle would serialize a burst through one
    // thread.
    let target = SERVE_BATCH
        .min(
            ingress
                .interactive_queued
                .div_ceil(ingress.idle_workers + 1),
        )
        .max(1);
    let mut batch = Vec::with_capacity(target);
    while batch.len() < target {
        let Some(tenant) = ingress.rotation.pop_front() else {
            break;
        };
        let lane = ingress
            .lanes
            .get_mut(&tenant)
            .expect("rotation entry without lane");
        batch.push(lane.pop_front().expect("empty lane in rotation"));
        // Emptied lanes stay in the map (their buffers are reused on the
        // next submit) up to a bounded count; the rotation only lists
        // non-empty lanes.
        if !lane.is_empty() {
            ingress.rotation.push_back(tenant);
        } else if ingress.lanes.len() > RETAINED_LANES {
            ingress.lanes.remove(&tenant);
        }
    }
    ingress.interactive_queued -= batch.len();
    Some(batch)
}

/// [`respond_cached`] with panic containment: a panic completes the
/// request with [`Answer::Internal`] (counted in
/// [`FrontEndStats::contained_panics`]) instead of killing the worker
/// and hanging every waiter behind it. That answer is a bug signal,
/// distinct from overload, and unattributed: the panicking call consumed
/// the request.
fn respond_contained(
    service: &VoiceService,
    resolved: &mut Vec<(String, Option<Arc<Tenant>>)>,
    request: ServiceRequest,
    shared: &FrontShared,
) -> ServiceResponse {
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(|| {
        respond_cached(service, resolved, request)
    }))
    .unwrap_or_else(|payload| {
        shared
            .counters
            .contained_panics
            .fetch_add(1, Ordering::Relaxed);
        let answer = Answer::Internal {
            what: panic_text(payload),
        };
        ServiceResponse::unclassified("", answer, start.elapsed())
    })
}

/// Answer one request, resolving each distinct tenant once per batch
/// via `resolved` (the registry read-lock and handle bump come off the
/// per-request path; staleness is bounded by one batch — the same
/// window a request already being served has).
fn respond_cached(
    service: &VoiceService,
    resolved: &mut Vec<(String, Option<Arc<Tenant>>)>,
    request: ServiceRequest,
) -> ServiceResponse {
    let start = Instant::now();
    let tenant = match resolved.iter().find(|(name, _)| *name == request.tenant) {
        Some((_, tenant)) => tenant.clone(),
        None => {
            let tenant = service.resolve_tenant(&request.tenant);
            resolved.push((request.tenant.clone(), tenant.clone()));
            tenant
        }
    };
    match &tenant {
        Some(tenant) => {
            // The deadline was stamped at admission; a request answered
            // past it skips live plans.
            let deadline = request.deadline;
            service.respond_resolved(tenant, request.tenant, &request.text, start, deadline)
        }
        None => ServiceResponse::unclassified(
            &request.tenant,
            Answer::UnknownTenant {
                tenant: request.tenant.clone(),
            },
            start.elapsed(),
        ),
    }
}

/// Serving worker body: drain the interactive lanes (round-robin across
/// tenants), park when idle, exit once shut down with the lanes drained.
fn worker_loop(shared: &FrontShared, service: &VoiceService) {
    loop {
        let batch = {
            let mut ingress = shared.ingress.lock().expect("ingress poisoned");
            loop {
                if let Some(batch) = next_work(&mut ingress) {
                    break batch;
                }
                if ingress.shutdown {
                    return;
                }
                ingress.idle_workers += 1;
                ingress = shared.work_ready.wait(ingress).expect("ingress poisoned");
                ingress.idle_workers -= 1;
            }
        };
        let mut resolved: Vec<(String, Option<Arc<Tenant>>)> = Vec::new();
        for queued in batch {
            // Count *before* completing: a waiter that saw its ticket
            // resolve must already see it in `completed` (or `expired`).
            // A request that sat in the queue past its deadline is never
            // computed — its waiter stopped listening; the instant
            // Expired answer frees the worker for requests someone still
            // wants.
            let now = Instant::now();
            if queued.expired(now) {
                expire_entry(queued, now, service, &shared.counters);
                continue;
            }
            let response = respond_contained(service, &mut resolved, queued.request, shared);
            if response.degradation != Degradation::None {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
            }
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            queued.ticket.complete(response);
        }
    }
}

/// Control thread body: run the control lane's jobs one at a time in
/// FIFO order and, with `flush_tick`, the flush tick between them; park
/// when idle; exit once shut down with the lane drained. Each job runs
/// its own [`run_with_retry`] (or, for a task, its own panic
/// containment) and completes its own ticket.
///
/// The tick comes every half the shortest streaming tenant's
/// `flush_interval` (re-read after every tick and clamped to
/// [[`FLUSH_TICK_FLOOR`], [`FLUSH_TICK_CAP`]]): an idle control thread
/// parks no longer than until the next tick is due, and a due tick runs
/// before the next job is popped, so a steady job stream cannot starve
/// it. [`VoiceService::ingest_tick`] flushes a tenant once
/// `last_flush.elapsed() >= flush_interval`, and two consecutive ticks at
/// most `flush_interval / 2` apart always straddle that instant — a lone
/// delta is re-summarized within 1.5× (worst case 2×) its tenant's
/// interval of the control thread being free, with no further calls.
fn control_loop(shared: &FrontShared, service: &VoiceService, flush_tick: bool) {
    let tick_period = || {
        service
            .min_flush_interval()
            .map_or(FLUSH_TICK_CAP, |interval| interval / 2)
            .clamp(FLUSH_TICK_FLOOR, FLUSH_TICK_CAP)
    };
    let mut next_tick = flush_tick.then(|| Instant::now() + tick_period());
    let mut ingress = shared.ingress.lock().expect("ingress poisoned");
    loop {
        let now = Instant::now();
        if next_tick.is_some_and(|due| now >= due) && !ingress.shutdown {
            drop(ingress);
            let flushed = service.ingest_tick();
            shared.counters.flush_ticks.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .background_flushes
                .fetch_add(flushed as u64, Ordering::Relaxed);
            next_tick = Some(Instant::now() + tick_period());
            ingress = shared.ingress.lock().expect("ingress poisoned");
            continue;
        }
        if let Some(job) = ingress.background.pop_front() {
            drop(ingress);
            // Counted before the job completes its ticket, for the same
            // observability ordering as interactive requests.
            shared
                .counters
                .background_completed
                .fetch_add(1, Ordering::Relaxed);
            job(service);
            ingress = shared.ingress.lock().expect("ingress poisoned");
            continue;
        }
        if ingress.shutdown {
            return;
        }
        ingress = match next_tick {
            Some(due) => {
                shared
                    .control_ready
                    .wait_timeout(ingress, due - now)
                    .expect("ingress poisoned")
                    .0
            }
            None => shared
                .control_ready
                .wait(ingress)
                .expect("ingress poisoned"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::service::{Fault, FaultPlan, FaultSite, ServiceBuilder};
    use vqs_data::{DimSpec, SynthSpec, TargetSpec};

    fn dataset(seed: u64) -> GeneratedDataset {
        SynthSpec {
            name: "fe".to_string(),
            dims: vec![DimSpec::named("season", &["Winter", "Summer"])],
            targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
            rows: 120,
        }
        .generate(seed, 1.0)
    }

    fn config() -> Configuration {
        Configuration::new("fe", &["season"], &["delay"])
    }

    fn service_with_tenant() -> Arc<VoiceService> {
        let service = Arc::new(ServiceBuilder::new().workers(1).build());
        service
            .register_dataset(TenantSpec::new("fe", dataset(3), config()))
            .unwrap();
        service
    }

    /// A service over the `fe` tenant whose responds each sleep 60 s
    /// while its fault plan (returned, disarmed) is armed.
    fn held_service() -> (Arc<VoiceService>, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new(1).rule_every(
            FaultSite::Respond,
            Fault::Latency(Duration::from_secs(60)),
            1,
        ));
        let service = Arc::new(
            ServiceBuilder::new()
                .workers(1)
                .fault_plan(Arc::clone(&plan))
                .build(),
        );
        service
            .register_dataset(TenantSpec::new("fe", dataset(3), config()))
            .unwrap();
        (service, plan)
    }

    /// Disarms the plan when dropped, so a failing assert releases the
    /// held worker instead of hanging in `FrontEnd::drop`. Declare it
    /// after the front-end: locals drop in reverse order.
    struct DisarmOnDrop(Arc<FaultPlan>);

    impl Drop for DisarmOnDrop {
        fn drop(&mut self) {
            self.0.disarm();
        }
    }

    /// Hold the only serving worker inside a respond: arm the plan, and
    /// return the held request's ticket once its latency fault was
    /// drawn. Disarming the plan releases the worker.
    fn park_worker(frontend: &FrontEnd, plan: &FaultPlan) -> ResponseTicket {
        plan.arm();
        let parked = frontend.submit(ServiceRequest::new("fe", "delay in Winter?"));
        while plan.injected() == 0 {
            std::thread::yield_now();
        }
        parked
    }

    #[test]
    fn silent_tenant_flushes_within_two_intervals() {
        use crate::ingest::IngestBuilder;
        use vqs_relalg::prelude::Value;

        let interval = Duration::from_millis(100);
        let service = Arc::new(ServiceBuilder::new().workers(1).build());
        service
            .register_dataset(
                TenantSpec::new("fe", dataset(3), config())
                    .ingest(IngestBuilder::new().flush_interval(interval)),
            )
            .unwrap();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        // One lone delta: far below `max_dirty` and inside the debounce
        // window, so the accepting call coalesces instead of flushing.
        let report = frontend
            .submit_ingest(
                "fe",
                vec![RowDelta::Insert(vec![
                    Value::str("Winter"),
                    Value::Float(9.0),
                ])],
            )
            .wait()
            .unwrap();
        assert!(
            report.flush.is_none(),
            "lone delta must debounce, not flush inline"
        );
        // ... then the tenant goes silent. The background flush tick
        // must drain the log within 2× the interval, no further calls.
        let deadline = Instant::now() + 2 * interval;
        let lag = loop {
            let stats = service.stats();
            let lag = stats
                .tenants
                .iter()
                .find(|t| t.tenant == "fe")
                .expect("tenant registered")
                .ingest_lag;
            if lag == 0 || Instant::now() >= deadline {
                break lag;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(lag, 0, "silent tenant not flushed within 2x flush_interval");
        let stats = frontend.stats();
        assert!(stats.flush_ticks >= 1);
        assert!(
            stats.background_flushes >= 1,
            "the flush must come from the background tick, not an ingest call"
        );
    }

    #[test]
    fn panicking_task_is_contained_and_the_worker_survives() {
        let service = service_with_tenant();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        let ticket = frontend
            .submit_task(|_| panic!("injected task panic"))
            .unwrap();
        // The ticket still completes, the control thread runs the next
        // job, and the serving worker keeps serving.
        ticket.wait();
        frontend.submit_task(|_| {}).unwrap().wait();
        let response = frontend
            .submit(ServiceRequest::new("fe", "delay in Winter?"))
            .wait();
        assert!(response.answer.is_speech());
    }

    #[test]
    fn panicking_registration_resolves_to_an_internal_error() {
        use vqs_core::prelude::{Problem, Summarizer, Summary};
        struct ExplodingSummarizer;
        impl Summarizer for ExplodingSummarizer {
            fn name(&self) -> &'static str {
                "exploding"
            }
            fn summarize(&self, _: &Problem<'_>) -> vqs_core::prelude::Result<Summary> {
                panic!("solver exploded");
            }
        }
        let service = Arc::new(
            ServiceBuilder::new()
                .workers(1)
                .summarizer(ExplodingSummarizer)
                .build(),
        );
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        let ticket = frontend.submit_register(TenantSpec::new("fe", dataset(3), config()));
        match ticket.wait() {
            Err(EngineError::Internal { what }) => assert!(what.contains("solver exploded")),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // Nothing was registered: the tenant answers UnknownTenant
        // through the queue.
        let response = frontend.submit(ServiceRequest::new("fe", "delay?")).wait();
        assert!(matches!(response.answer, Answer::UnknownTenant { .. }));
    }

    #[test]
    fn submit_and_wait_round_trips() {
        let service = service_with_tenant();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(2).build();
        let ticket = frontend.submit(ServiceRequest::new("fe", "delay in Winter?"));
        let response = ticket.wait();
        assert!(response.answer.is_speech());
        assert!(ticket.is_ready());
        // Waiting again (or from a clone) observes the same response.
        assert_eq!(ticket.clone().wait().text(), response.text());
        let stats = frontend.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn many_concurrent_submitters_complete() {
        let service = service_with_tenant();
        let frontend = Arc::new(
            FrontEnd::builder(Arc::clone(&service))
                .workers(2)
                .queue_capacity(512)
                .build(),
        );
        let total: usize = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let frontend = Arc::clone(&frontend);
                    scope.spawn(move || {
                        let mut speeches = 0;
                        for _ in 0..50 {
                            let ticket =
                                frontend.submit(ServiceRequest::new("fe", "delay in Summer?"));
                            if ticket.wait().answer.is_speech() {
                                speeches += 1;
                            }
                        }
                        speeches
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .sum()
        });
        assert_eq!(total, 200);
        let stats = frontend.stats();
        assert_eq!(stats.submitted, 200);
        assert_eq!(stats.completed, 200);
    }

    #[test]
    fn background_register_and_refresh_resolve() {
        let service = service_with_tenant();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        let register = frontend.submit_register(TenantSpec::new("fe2", dataset(5), config()));
        let report = register.wait().unwrap();
        assert!(report.speeches > 0);
        let respond = frontend.submit(ServiceRequest::new("fe2", "delay in Winter?"));
        assert!(respond.wait().answer.is_speech());
        let refresh = frontend.submit_refresh("fe2", dataset(5), vec![0, 1]);
        assert_eq!(refresh.wait().unwrap().removed, 0);
        let duplicate = frontend.submit_register(TenantSpec::new("fe2", dataset(5), config()));
        assert!(matches!(
            duplicate.wait(),
            Err(EngineError::DuplicateTenant { .. })
        ));
        let stats = frontend.stats();
        assert_eq!(stats.background_submitted, 3);
        assert_eq!(stats.background_completed, 3);
        // The duplicate registration failed with a typed domain error —
        // deterministic, so it must not have been retried.
        assert_eq!(stats.retried_background, 0);
    }

    #[test]
    fn panic_text_renders_non_string_payloads() {
        assert_eq!(panic_text(Box::new("boom")), "boom");
        assert_eq!(panic_text(Box::new(String::from("heap boom"))), "heap boom");
        assert_eq!(panic_text(Box::new(42u32)), "non-string panic payload");
        assert_eq!(panic_text(Box::new(())), "non-string panic payload");
    }

    #[test]
    fn contained_panic_spares_the_next_request() {
        let plan = Arc::new(FaultPlan::new(9).rule_every(FaultSite::Respond, Fault::Panic, 2));
        let service = Arc::new(
            ServiceBuilder::new()
                .workers(1)
                .fault_plan(Arc::clone(&plan))
                .build(),
        );
        service
            .register_dataset(TenantSpec::new("fe", dataset(3), config()))
            .unwrap();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        plan.arm();
        let first = frontend.submit(ServiceRequest::new("fe", "delay in Winter?"));
        let second = frontend.submit(ServiceRequest::new("fe", "delay in Summer?"));
        let (first, second) = (first.wait(), second.wait());
        plan.disarm();
        // The every-2nd-draw rule spares the first request and panics
        // the second; the worker contains it and keeps serving.
        assert!(first.answer.is_speech());
        assert!(matches!(second.answer, Answer::Internal { .. }));
        let stats = frontend.stats();
        assert_eq!(stats.contained_panics, 1);
        // A contained panic still counts as completed: the ticket
        // resolved with an answer.
        assert_eq!(stats.completed, 2);
    }

    /// Once `ingest` accepted a batch, a summarizer panic in its inline
    /// flush must not fail the call: the front-end would retry it and
    /// accept the batch a second time.
    #[test]
    fn failed_inline_flush_applies_the_batch_exactly_once() {
        use crate::ingest::IngestBuilder;
        use std::sync::atomic::AtomicBool;
        use vqs_core::prelude::{GreedySummarizer, Problem, Summarizer, Summary};
        use vqs_relalg::prelude::Value;

        /// The service's default summarizer, panicking on its first
        /// call once armed.
        struct PanicsOnce {
            armed: Arc<AtomicBool>,
            inner: GreedySummarizer,
        }
        impl Summarizer for PanicsOnce {
            fn name(&self) -> &'static str {
                "panics-once"
            }
            fn summarize(&self, problem: &Problem<'_>) -> vqs_core::prelude::Result<Summary> {
                if self.armed.swap(false, Ordering::SeqCst) {
                    panic!("summarizer exploded mid-flush");
                }
                self.inner.summarize(problem)
            }
        }

        let armed = Arc::new(AtomicBool::new(false));
        let service = Arc::new(
            ServiceBuilder::new()
                .workers(1)
                .summarizer(PanicsOnce {
                    armed: Arc::clone(&armed),
                    inner: GreedySummarizer::with_optimized_pruning(),
                })
                .build(),
        );
        service
            .register_dataset(
                TenantSpec::new("fe", dataset(3), config())
                    .ingest(IngestBuilder::new().max_dirty(1)),
            )
            .unwrap();
        let frontend = FrontEnd::builder(Arc::clone(&service))
            .workers(1)
            .no_flush_tick()
            .build();
        let row = vec![Value::str("Winter"), Value::Float(9.0)];
        armed.store(true, Ordering::SeqCst);
        let report = frontend
            .submit_ingest("fe", vec![RowDelta::Insert(row.clone())])
            .wait()
            .expect("an accepted batch reports Ok");
        assert_eq!(report.first_seqno, 1, "the batch was accepted twice");
        assert!(report.flush.is_none());
        assert!(matches!(
            report.flush_error,
            Some(EngineError::Internal { ref what }) if what.contains("exploded")
        ));
        assert_eq!(frontend.stats().retried_background, 0);

        service.drain_ingest("fe").unwrap();
        let tenant = service.stats().tenants.remove(0);
        assert_eq!(tenant.deltas_applied, 1);
        assert_eq!(tenant.flush_failures, 1);
        assert_eq!(tenant.ingest_lag, 0);

        // The drained store equals a cold registration of the table
        // plus the one row.
        let mut data = dataset(3);
        data.table = vqs_relalg::prelude::Table::from_rows(
            data.table.schema().clone(),
            data.table.iter_rows().chain(std::iter::once(row)),
        )
        .unwrap();
        let cold = ServiceBuilder::new().workers(1).build();
        cold.register_dataset(TenantSpec::new("fe", data, config()))
            .unwrap();
        assert_eq!(
            service.tenant_store("fe").unwrap().snapshot(),
            cold.tenant_store("fe").unwrap().snapshot()
        );
    }

    #[test]
    fn queue_expired_requests_complete_as_expired() {
        let service = Arc::new(ServiceBuilder::new().workers(1).build());
        service
            .register_dataset(
                TenantSpec::new("fe", dataset(3), config()).default_deadline(Duration::ZERO),
            )
            .unwrap();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        // The tenant default stamps a zero budget: the worker's expiry
        // check fires before any computation happens.
        let response = frontend
            .submit(ServiceRequest::new("fe", "delay in Winter?"))
            .wait();
        match response.answer {
            Answer::Expired { ref tenant, .. } => assert_eq!(tenant, "fe"),
            ref other => panic!("expected Expired, got {other:?}"),
        }
        // Expired requests count as expired, NOT completed:
        // submitted == completed + shed + expired.
        let stats = frontend.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.shed, 0);
        // ... and roll into the tenant's own counters.
        let tenant_stats = &service.stats().tenants[0];
        assert_eq!(tenant_stats.expired_requests, 1);
        assert_eq!(tenant_stats.requests, 0);
        // A per-request deadline overrides the tenant default.
        let response = frontend
            .submit(
                ServiceRequest::new("fe", "delay in Winter?").with_budget(Duration::from_secs(60)),
            )
            .wait();
        assert!(response.answer.is_speech());
    }

    #[test]
    fn admission_sheds_the_oldest_expired_request_first() {
        let (service, plan) = held_service();
        let frontend = FrontEnd::builder(Arc::clone(&service))
            .workers(1)
            .queue_capacity(2)
            .tenant_share(8)
            .build();
        let _disarm = DisarmOnDrop(Arc::clone(&plan));
        // Hold the only worker inside a respond so admitted requests
        // stay queued.
        let parked = park_worker(&frontend, &plan);
        // Fill the queue: one instantly-expired request, one fresh one.
        let stale = frontend
            .submit(ServiceRequest::new("fe", "delay in Winter?").with_budget(Duration::ZERO));
        let fresh = frontend.submit(
            ServiceRequest::new("fe", "delay in Winter?").with_budget(Duration::from_secs(60)),
        );
        // The queue (capacity 2) is full. The next submission makes
        // room by expiring the stale entry instead of shedding anyone.
        let newcomer = frontend.submit(
            ServiceRequest::new("fe", "delay in Summer?").with_budget(Duration::from_secs(60)),
        );
        assert!(stale.is_ready(), "expired entry not shed at admission");
        assert!(matches!(stale.wait().answer, Answer::Expired { .. }));
        plan.disarm();
        assert!(parked.wait().answer.is_speech());
        assert!(fresh.wait().answer.is_speech());
        assert!(newcomer.wait().answer.is_speech());
        // The parked request counts once in `submitted` and `completed`.
        let stats = frontend.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn background_refresh_retries_injected_internal_faults() {
        let plan =
            Arc::new(FaultPlan::new(11).rule_every(FaultSite::Refresh, Fault::SolverTimeout, 2));
        let service = Arc::new(
            ServiceBuilder::new()
                .workers(1)
                .fault_plan(Arc::clone(&plan))
                .build(),
        );
        service
            .register_dataset(TenantSpec::new("fe", dataset(3), config()))
            .unwrap();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        // Burn draw 0 so the every-2nd-draw rule fires on the first
        // refresh attempt (draw 1) and clears on the retry (draw 2).
        plan.arm();
        assert!(!plan.impose(FaultSite::Refresh));
        let refresh = frontend.submit_refresh("fe", dataset(3), vec![0, 1]);
        assert!(refresh.wait().is_ok(), "retry should have recovered");
        plan.disarm();
        let stats = frontend.stats();
        assert_eq!(stats.retried_background, 1);
        assert_eq!(stats.background_submitted, 1);
        assert_eq!(stats.background_completed, 1);
    }

    #[test]
    fn unknown_tenant_flows_through_the_queue() {
        let service = service_with_tenant();
        let frontend = FrontEnd::builder(service).workers(1).build();
        let ticket = frontend.submit(ServiceRequest::new("nope", "delay?"));
        assert!(matches!(ticket.wait().answer, Answer::UnknownTenant { .. }));
    }

    #[test]
    fn shutdown_drains_outstanding_tickets() {
        let service = service_with_tenant();
        let frontend = FrontEnd::builder(Arc::clone(&service))
            .workers(1)
            .queue_capacity(256)
            .build();
        let tickets: Vec<ResponseTicket> = (0..64)
            .map(|_| frontend.submit(ServiceRequest::new("fe", "delay in Winter?")))
            .collect();
        frontend.shutdown();
        for ticket in tickets {
            assert!(ticket.is_ready(), "ticket lost across shutdown");
            assert!(ticket.wait().answer.is_speech());
        }
    }

    #[test]
    fn wait_timeout_expires_and_then_resolves() {
        let (service, plan) = held_service();
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        let _disarm = DisarmOnDrop(Arc::clone(&plan));
        // A respond held in its latency fault keeps the only worker busy.
        let parked = park_worker(&frontend, &plan);
        let ticket = frontend.submit(ServiceRequest::new("fe", "delay in Summer?"));
        assert!(ticket.wait_timeout(Duration::from_millis(20)).is_none());
        plan.disarm();
        assert!(ticket
            .wait_timeout(Duration::from_secs(30))
            .unwrap()
            .answer
            .is_speech());
        assert!(parked.wait().answer.is_speech());
    }
}
