//! Open-loop, coordinated-omission-safe load generation for the
//! serving front-end.
//!
//! The committed service benches before ISSUE 10 were *closed-loop*:
//! the driver sent a request, waited for the response, then sent the
//! next. Under that protocol a server stall silently pauses the load
//! generator too — the requests that *would* have arrived during the
//! stall are never sent, so their (large) latencies are never measured.
//! That is coordinated omission, and it makes recorded p99s
//! systematically optimistic (see Gil Tene's HdrHistogram work).
//!
//! This module fixes the methodology:
//!
//! * **[`Schedule`]** — requests live on a fixed arrival timeline
//!   (constant-rate or Poisson), generated up front from a seed.
//!   The timeline never reacts to the server.
//! * **Open-loop driving** — [`run`] submits each request at its
//!   scheduled instant through the non-blocking [`FrontEnd::submit`]
//!   family and *never* waits in the submission path; a collector
//!   thread stamps each ticket when it first sees it ready, so a slow
//!   ingest batch cannot delay the stamp of a respond answered behind
//!   it.
//! * **Intended-time latency** — each sample is
//!   `completion − intended send time`, so queueing delay a stalled
//!   server causes is charged to the server, not silently dropped.
//!   The from-actual-send sketch is kept alongside: its divergence
//!   from the intended-time sketch is exactly the omission bias (and
//!   [`Pacing::ClosedLoop`] is retained to *quantify* the bias — see
//!   the probe test).
//! * **[`LatencySketch`]** — HdrHistogram-style log-bucketed
//!   percentiles implemented in-crate: power-of-two ranges with
//!   [`SUB_BUCKET_BITS`] sub-buckets each, bounded relative error
//!   (≤ 1/32), deterministic, dependency-free, and reported from the
//!   bucket's *upper* bound so sketch percentiles are never optimistic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqs_data::GeneratedDataset;
use vqs_engine::prelude::{
    Answer, Degradation, FrontEnd, IngestTicket, RefreshTicket, ResponseTicket, RowDelta,
    ServiceRequest,
};

/// Sub-bucket resolution bits of [`LatencySketch`]: each power-of-two
/// value range splits into `2^SUB_BUCKET_BITS` equal sub-buckets, so
/// the relative quantization error is at most `2^-SUB_BUCKET_BITS`
/// (1/32 ≈ 3.1%).
pub const SUB_BUCKET_BITS: u32 = 5;

const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Bucket count covering the full `u64` range: one exact bucket per
/// value below [`SUB_BUCKETS`], then `SUB_BUCKETS` buckets per octave.
const BUCKET_COUNT: usize = ((64 - SUB_BUCKET_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// A deterministic, dependency-free log-bucketed latency histogram
/// (HdrHistogram-style). Values are microseconds.
#[derive(Clone)]
pub struct LatencySketch {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencySketch {
    fn default() -> LatencySketch {
        LatencySketch::new()
    }
}

impl std::fmt::Debug for LatencySketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencySketch")
            .field("count", &self.count)
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

/// Index of the bucket holding `value`.
fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - u64::from(value.leading_zeros());
    let shift = msb - u64::from(SUB_BUCKET_BITS);
    let sub = (value >> shift) & (SUB_BUCKETS - 1);
    ((msb - u64::from(SUB_BUCKET_BITS) + 1) * SUB_BUCKETS + sub) as usize
}

/// Largest value mapping into bucket `index` — the conservative
/// (never-optimistic) representative reported by percentiles.
fn bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let block = index / SUB_BUCKETS; // ≥ 1
    let sub = index % SUB_BUCKETS;
    let shift = block - 1;
    ((SUB_BUCKETS + sub + 1) << shift) - 1
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> LatencySketch {
        LatencySketch {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one latency sample (microseconds).
    pub fn record(&mut self, micros: u64) {
        self.buckets[bucket_of(micros)] += 1;
        self.count += 1;
        self.sum += micros;
        self.min = self.min.min(micros);
        self.max = self.max.max(micros);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0 < p ≤ 100) as the containing bucket's
    /// upper bound: within `1/2^SUB_BUCKET_BITS` relative error above
    /// the exact order statistic, never below it.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The true sample can't exceed the tracked max.
                return bucket_high(index).min(self.max);
            }
        }
        self.max
    }

    /// Fold another sketch into this one.
    pub fn merge(&mut self, other: &LatencySketch) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Arrival process of the request timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Evenly spaced arrivals at `rate` requests per second.
    Constant {
        /// Offered requests per second.
        rate: f64,
    },
    /// Poisson arrivals (exponential inter-arrival gaps) averaging
    /// `rate` requests per second — the memoryless process real
    /// independent voice sessions approximate.
    Poisson {
        /// Mean offered requests per second.
        rate: f64,
    },
}

/// A fixed arrival timeline: offsets from the run's origin at which
/// request 0, 1, 2, … are *intended* to be sent. Pure in
/// `(arrival, n, seed)` — the server never influences it.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Intended send offset of each request.
    pub offsets: Vec<Duration>,
}

impl Schedule {
    /// Generate the timeline for `n` requests.
    pub fn new(arrival: Arrival, n: usize, seed: u64) -> Schedule {
        let mut offsets = Vec::with_capacity(n);
        match arrival {
            Arrival::Constant { rate } => {
                let gap = 1.0 / rate.max(f64::MIN_POSITIVE);
                for i in 0..n {
                    offsets.push(Duration::from_secs_f64(gap * i as f64));
                }
            }
            Arrival::Poisson { rate } => {
                let rate = rate.max(f64::MIN_POSITIVE);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut at = 0.0f64;
                for _ in 0..n {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    at += -u.ln() / rate;
                    offsets.push(Duration::from_secs_f64(at));
                }
            }
        }
        Schedule { offsets }
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// How the driver paces itself against the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Submit at the intended instant regardless of outstanding work;
    /// latency is measured from the *intended* send time. The honest
    /// mode — always use this for recorded numbers.
    #[default]
    OpenLoop,
    /// Wait for each response before submitting the next request (the
    /// pre-ISSUE-10 protocol). Kept to *measure* the coordinated
    /// omission bias: under a server stall this mode's p99 stays
    /// small because the stalled-out arrivals are simply never sent.
    ClosedLoop,
}

/// Relative weights of the traffic mix (zero disables an op kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Interactive `respond` requests.
    pub respond: u32,
    /// Streaming delta batches via `submit_ingest`.
    pub ingest: u32,
    /// Full-dataset refreshes via `submit_refresh`.
    pub refresh: u32,
}

impl MixWeights {
    /// Interactive-only traffic.
    pub fn respond_only() -> MixWeights {
        MixWeights {
            respond: 1,
            ingest: 0,
            refresh: 0,
        }
    }
}

/// One load-generation run: the timeline, the traffic mix, and the
/// request material cycled through it.
pub struct LoadPlan {
    /// The fixed arrival timeline.
    pub schedule: Schedule,
    /// Traffic mix weights; the op of event `i` is drawn from `seed`.
    pub mix: MixWeights,
    /// Prototype interactive requests, cycled (cloned per send).
    pub requests: Vec<ServiceRequest>,
    /// Prototype `(tenant, deltas)` ingest batches, cycled.
    pub ingest_batches: Vec<(String, Vec<RowDelta>)>,
    /// Refresh material: `(tenant, dataset)` resubmitted per refresh op,
    /// naming as changed every row the plan's ingest batches may have
    /// changed since `dataset`.
    pub refresh: Option<(String, GeneratedDataset)>,
    /// Open- vs closed-loop driving.
    pub pacing: Pacing,
    /// Budget used to classify a respond completion as in-deadline
    /// (measured from the intended send time).
    pub deadline_budget: Option<Duration>,
    /// Seed for the mix draws.
    pub seed: u64,
}

impl LoadPlan {
    /// An interactive-only open-loop plan over `requests`.
    pub fn respond_only(schedule: Schedule, requests: Vec<ServiceRequest>, seed: u64) -> LoadPlan {
        LoadPlan {
            schedule,
            mix: MixWeights::respond_only(),
            requests,
            ingest_batches: Vec::new(),
            refresh: None,
            pacing: Pacing::OpenLoop,
            deadline_budget: None,
            seed,
        }
    }
}

/// Outcome of one [`run`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Respond latencies from the *intended* send time — the honest,
    /// coordinated-omission-safe distribution.
    pub intended: LatencySketch,
    /// Respond latencies from the *actual* send time — what a
    /// closed-loop driver would have reported; kept to expose the
    /// omission bias (`intended` − `measured` divergence).
    pub measured: LatencySketch,
    /// Ingest/refresh completion latencies from intended send time.
    pub control: LatencySketch,
    /// Events submitted, by kind.
    pub responds: u64,
    /// Ingest batches submitted.
    pub ingests: u64,
    /// Refreshes submitted.
    pub refreshes: u64,
    /// Respond completions with a served answer (speech, computed, help,
    /// unsupported, no-summary).
    pub answered: u64,
    /// Respond completions shed with [`Answer::Overloaded`].
    pub shed: u64,
    /// Respond completions expired past their deadline.
    pub expired: u64,
    /// Respond completions with [`Answer::Internal`] (bug signal).
    pub internal: u64,
    /// Answered completions that stepped down the degradation ladder.
    pub degraded: u64,
    /// Answered completions within [`LoadPlan::deadline_budget`] of
    /// their intended send time (equals `answered` when no budget set).
    pub in_deadline: u64,
    /// Ingest/refresh tickets resolving `Ok`.
    pub control_ok: u64,
    /// Ingest/refresh tickets resolving `Err` (overload included).
    pub control_err: u64,
    /// Worst submission slip: how far an actual send lagged its
    /// intended instant (µs). Large values mean the *generator*
    /// saturated and even intended-time numbers understate the server.
    pub max_send_lag_micros: u64,
    /// Wall-clock span from first intended send to last completion.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Offered rate actually achieved, in events per second.
    pub fn achieved_rate(&self) -> f64 {
        let total = self.responds + self.ingests + self.refreshes;
        if self.elapsed.is_zero() {
            0.0
        } else {
            total as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// In-deadline fraction of respond submissions (sheds and expiries
    /// count against it).
    pub fn in_deadline_rate(&self) -> f64 {
        if self.responds == 0 {
            1.0
        } else {
            self.in_deadline as f64 / self.responds as f64
        }
    }
}

/// Longest the collector of [`run`] blocks on one ticket (or on an empty
/// channel) before it sweeps every outstanding ticket again: the bound
/// on how late a completion is stamped.
const POLL: Duration = Duration::from_millis(1);

/// A submitted event awaiting completion.
enum Pending {
    Respond {
        intended: Instant,
        sent: Instant,
        ticket: ResponseTicket,
    },
    Ingest {
        intended: Instant,
        ticket: IngestTicket,
    },
    Refresh {
        intended: Instant,
        ticket: RefreshTicket,
    },
}

impl Pending {
    fn is_ready(&self) -> bool {
        match self {
            Pending::Respond { ticket, .. } => ticket.is_ready(),
            Pending::Ingest { ticket, .. } => ticket.is_ready(),
            Pending::Refresh { ticket, .. } => ticket.is_ready(),
        }
    }

    /// Block until the ticket is ready or `timeout` passed.
    fn wait(&self, timeout: Duration) {
        match self {
            Pending::Respond { ticket, .. } => drop(ticket.wait_timeout(timeout)),
            Pending::Ingest { ticket, .. } => drop(ticket.wait_timeout(timeout)),
            Pending::Refresh { ticket, .. } => drop(ticket.wait_timeout(timeout)),
        }
    }
}

/// The rows a refresh of `tenant` to `dataset` names as changed. The
/// plan's ingest batches may have changed the tenant's table since
/// `dataset`, and a refresh keeps the speech of every subset that holds
/// no named row and keeps its size. So it names every row an update of
/// `tenant` targets, and every row of `dataset` once a batch of `tenant`
/// inserts or deletes, which shifts the rows after it.
fn refresh_rows(plan: &LoadPlan, tenant: &str, dataset: &GeneratedDataset) -> Vec<usize> {
    let mut rows = Vec::new();
    let batches = plan.ingest_batches.iter().filter(|(to, _)| to == tenant);
    for delta in batches.flat_map(|(_, deltas)| deltas) {
        match delta {
            RowDelta::Update { row, .. } => rows.push(*row),
            RowDelta::Insert(_) | RowDelta::Delete { .. } => {
                return (0..dataset.table.len()).collect();
            }
        }
    }
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Sleep (coarse) then spin (fine) until `target`. Plain `sleep` alone
/// overshoots by a scheduler quantum, which at thousands of requests
/// per second would smear the whole timeline.
fn pace_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let remaining = target - now;
        if remaining > Duration::from_micros(500) {
            std::thread::sleep(remaining - Duration::from_micros(400));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Execute `plan` against `frontend`.
///
/// The calling thread is the submitter: it walks the schedule and, in
/// open-loop mode, never blocks on the server. A collector thread stamps
/// each ticket when it first sees it ready: it blocks at most one 1 ms
/// poll on the oldest outstanding respond, then sweeps every
/// outstanding ticket with `is_ready`. A stamp is taken after the
/// ticket was seen ready, so it can only *overstate* a completion time
/// (never understate — conservative in the same direction as the
/// bucket bounds), and by at most one poll: a ticket that completes
/// while the collector blocks on another is stamped by the sweep that
/// follows.
pub fn run(frontend: &FrontEnd, plan: &LoadPlan) -> LoadReport {
    let total_weight = plan.mix.respond + plan.mix.ingest + plan.mix.refresh;
    assert!(total_weight > 0, "empty traffic mix");
    assert!(
        plan.mix.respond == 0 || !plan.requests.is_empty(),
        "respond weight with no prototype requests"
    );
    assert!(
        plan.mix.ingest == 0 || !plan.ingest_batches.is_empty(),
        "ingest weight with no prototype batches"
    );
    assert!(
        plan.mix.refresh == 0 || plan.refresh.is_some(),
        "refresh weight with no refresh material"
    );

    let (tx, rx) = mpsc::channel::<Pending>();
    let max_send_lag = AtomicU64::new(0);
    let mut report = LoadReport {
        intended: LatencySketch::new(),
        measured: LatencySketch::new(),
        control: LatencySketch::new(),
        responds: 0,
        ingests: 0,
        refreshes: 0,
        answered: 0,
        shed: 0,
        expired: 0,
        internal: 0,
        degraded: 0,
        in_deadline: 0,
        control_ok: 0,
        control_err: 0,
        max_send_lag_micros: 0,
        elapsed: Duration::ZERO,
    };
    // Give the submitter a head start so request 0 is not already late.
    let origin = Instant::now() + Duration::from_millis(2);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let mut respond_cursor = 0usize;
    let mut ingest_cursor = 0usize;
    let changed_rows = plan
        .refresh
        .as_ref()
        .map(|(tenant, dataset)| refresh_rows(plan, tenant, dataset))
        .unwrap_or_default();

    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut intended_sketch = LatencySketch::new();
            let mut measured_sketch = LatencySketch::new();
            let mut control_sketch = LatencySketch::new();
            let mut counts = [0u64; 8]; // answered, shed, expired, internal, degraded, in_deadline, control_ok, control_err
            let mut last_completion = origin;
            let mut pending: VecDeque<Pending> = VecDeque::new();
            let mut open = true;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(next) => pending.push_back(next),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                // Respond stamps carry the latency the report is about,
                // so block on the oldest respond; background tickets are
                // stamped by the sweep.
                let oldest = pending
                    .iter()
                    .find(|p| matches!(p, Pending::Respond { .. }))
                    .or(pending.front());
                match oldest {
                    Some(oldest) => oldest.wait(POLL),
                    None if open => match rx.recv_timeout(POLL) {
                        Ok(next) => pending.push_back(next),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => open = false,
                    },
                    None => {}
                }
                let done = Instant::now();
                let mut index = 0;
                while index < pending.len() {
                    if !pending[index].is_ready() {
                        index += 1;
                        continue;
                    }
                    last_completion = last_completion.max(done);
                    match pending.remove(index).expect("index in range") {
                        Pending::Respond {
                            intended,
                            sent,
                            ticket,
                        } => {
                            let response = ticket.into_inner();
                            let from_intended = done.saturating_duration_since(intended);
                            let from_sent = done.saturating_duration_since(sent);
                            intended_sketch.record(from_intended.as_micros() as u64);
                            measured_sketch.record(from_sent.as_micros() as u64);
                            match &response.answer {
                                Answer::Overloaded { .. } => counts[1] += 1,
                                Answer::Expired { .. } => counts[2] += 1,
                                Answer::Internal { .. } => counts[3] += 1,
                                _ => {
                                    counts[0] += 1;
                                    if response.degradation != Degradation::None {
                                        counts[4] += 1;
                                    }
                                    if plan
                                        .deadline_budget
                                        .is_none_or(|budget| from_intended <= budget)
                                    {
                                        counts[5] += 1;
                                    }
                                }
                            }
                        }
                        Pending::Ingest { intended, ticket } => {
                            let outcome = ticket.into_inner();
                            control_sketch.record(
                                done.saturating_duration_since(intended).as_micros() as u64,
                            );
                            match outcome {
                                Ok(_) => counts[6] += 1,
                                Err(_) => counts[7] += 1,
                            }
                        }
                        Pending::Refresh { intended, ticket } => {
                            let outcome = ticket.into_inner();
                            control_sketch.record(
                                done.saturating_duration_since(intended).as_micros() as u64,
                            );
                            match outcome {
                                Ok(_) => counts[6] += 1,
                                Err(_) => counts[7] += 1,
                            }
                        }
                    }
                }
            }
            (
                intended_sketch,
                measured_sketch,
                control_sketch,
                counts,
                last_completion,
            )
        });

        for offset in &plan.schedule.offsets {
            let intended = origin + *offset;
            pace_until(intended);
            let sent = Instant::now();
            let lag = sent.saturating_duration_since(intended).as_micros() as u64;
            max_send_lag.fetch_max(lag, Ordering::Relaxed);
            let pick = rng.gen_range(0..total_weight);
            if pick < plan.mix.respond {
                let request = plan.requests[respond_cursor % plan.requests.len()].clone();
                respond_cursor += 1;
                report.responds += 1;
                let ticket = frontend.submit(request);
                if plan.pacing == Pacing::ClosedLoop {
                    // The omission under measurement: wait here, so a
                    // stall pauses the generator itself.
                    let _ = ticket.wait();
                }
                tx.send(Pending::Respond {
                    intended,
                    sent,
                    ticket,
                })
                .expect("collector alive");
            } else if pick < plan.mix.respond + plan.mix.ingest {
                let (tenant, deltas) =
                    plan.ingest_batches[ingest_cursor % plan.ingest_batches.len()].clone();
                ingest_cursor += 1;
                report.ingests += 1;
                let ticket = frontend.submit_ingest(tenant, deltas);
                if plan.pacing == Pacing::ClosedLoop {
                    let _ = ticket.wait();
                }
                tx.send(Pending::Ingest { intended, ticket })
                    .expect("collector alive");
            } else {
                let (tenant, dataset) = plan.refresh.as_ref().expect("refresh material checked");
                report.refreshes += 1;
                let ticket =
                    frontend.submit_refresh(tenant.clone(), dataset.clone(), changed_rows.clone());
                if plan.pacing == Pacing::ClosedLoop {
                    let _ = ticket.wait();
                }
                tx.send(Pending::Refresh { intended, ticket })
                    .expect("collector alive");
            }
        }
        drop(tx);
        let (intended_sketch, measured_sketch, control_sketch, counts, last_completion) =
            collector.join().expect("collector panicked");
        report.intended = intended_sketch;
        report.measured = measured_sketch;
        report.control = control_sketch;
        report.answered = counts[0];
        report.shed = counts[1];
        report.expired = counts[2];
        report.internal = counts[3];
        report.degraded = counts[4];
        report.in_deadline = counts[5];
        report.control_ok = counts[6];
        report.control_err = counts[7];
        report.elapsed = last_completion.saturating_duration_since(origin);
    });
    report.max_send_lag_micros = max_send_lag.load(Ordering::Relaxed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vqs_data::{DimSpec, SynthSpec, TargetSpec};
    use vqs_engine::prelude::{
        Configuration, Fault, FaultPlan, FaultSite, IngestBuilder, ServiceBuilder, TenantSpec,
        VoiceService,
    };
    use vqs_relalg::prelude::Value;

    #[test]
    fn schedules_are_reproducible_per_seed() {
        let a = Schedule::new(Arrival::Poisson { rate: 500.0 }, 200, 9);
        let b = Schedule::new(Arrival::Poisson { rate: 500.0 }, 200, 9);
        assert_eq!(a, b);
        let c = Schedule::new(Arrival::Poisson { rate: 500.0 }, 200, 10);
        assert_ne!(a, c);
        // Offsets are sorted and strictly increasing in expectation.
        assert!(a.offsets.windows(2).all(|w| w[0] <= w[1]));

        let constant = Schedule::new(Arrival::Constant { rate: 1000.0 }, 5, 0);
        let gaps: Vec<u64> = constant
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]).as_micros() as u64)
            .collect();
        assert_eq!(gaps, vec![1000; 4]);
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let schedule = Schedule::new(Arrival::Poisson { rate: 1000.0 }, 4000, 42);
        let span = schedule.offsets.last().unwrap().as_secs_f64();
        let rate = 4000.0 / span;
        assert!(
            (800.0..1200.0).contains(&rate),
            "poisson mean rate off: {rate}"
        );
    }

    #[test]
    fn sketch_matches_exact_percentiles_within_bucket_error() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut sketch = LatencySketch::new();
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..5_000 {
            // Log-uniform over µs..10s so every octave is exercised.
            let log: f64 = rng.gen_range(0.0..7.0);
            let v = 10f64.powf(log) as u64;
            sketch.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * exact.len() as f64).ceil().max(1.0) as usize;
            let truth = exact[rank.min(exact.len()) - 1];
            let estimate = sketch.percentile(p);
            assert!(
                estimate >= truth,
                "p{p}: sketch {estimate} below exact {truth}"
            );
            let bound = truth + truth / 16 + 1;
            assert!(
                estimate <= bound,
                "p{p}: sketch {estimate} above error bound {bound} (exact {truth})"
            );
        }
        assert_eq!(sketch.min(), exact[0]);
        assert_eq!(sketch.max(), *exact.last().unwrap());
        let exact_mean = exact.iter().sum::<u64>() as f64 / exact.len() as f64;
        assert!((sketch.mean() - exact_mean).abs() < 1e-6);
    }

    #[test]
    fn sketch_buckets_are_exact_below_resolution() {
        let mut sketch = LatencySketch::new();
        for v in 0..32u64 {
            sketch.record(v);
        }
        assert_eq!(sketch.percentile(50.0), 15);
        assert_eq!(sketch.percentile(100.0), 31);
    }

    fn dataset() -> GeneratedDataset {
        SynthSpec {
            name: "lg".to_string(),
            dims: vec![
                DimSpec::named("season", &["Winter", "Summer"]),
                DimSpec::named("region", &["East", "West"]),
            ],
            targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
            rows: 200,
        }
        .generate(3, 1.0)
    }

    fn config() -> Configuration {
        Configuration::new("lg", &["season", "region"], &["delay"])
    }

    /// The `lg` tenant, with an ingest log that flushes inline on every
    /// accepted delta.
    fn service_with_tenant(fault_plan: Option<Arc<FaultPlan>>) -> Arc<VoiceService> {
        let mut builder = ServiceBuilder::new().workers(1);
        if let Some(plan) = fault_plan {
            builder = builder.fault_plan(plan);
        }
        let service = Arc::new(builder.build());
        service
            .register_dataset(
                TenantSpec::new("lg", dataset(), config())
                    .ingest(IngestBuilder::new().max_dirty(1)),
            )
            .unwrap();
        service
    }

    /// Row 0 of the generated data with its region flipped.
    fn region_flip() -> Vec<RowDelta> {
        let mut row = dataset().table.iter_rows().next().expect("a row");
        row[1] = Value::str(if row[1].as_str() == Some("East") {
            "West"
        } else {
            "East"
        });
        vec![RowDelta::Update {
            row: 0,
            values: row,
        }]
    }

    /// After a flushed region flip, a refresh back to the generated data
    /// must re-solve the subsets holding the flipped row. Its season's
    /// subset keeps its size, so a refresh naming no rows keeps that
    /// subset's speech, solved over the flipped region.
    #[test]
    fn refreshes_name_the_rows_ingest_batches_changed() {
        let service = service_with_tenant(None);
        service.ingest("lg", &region_flip()).unwrap();
        service.drain_ingest("lg").unwrap();
        let frontend = FrontEnd::builder(Arc::clone(&service))
            .workers(1)
            .no_flush_tick()
            .build();
        let plan = LoadPlan {
            mix: MixWeights {
                respond: 0,
                ingest: 0,
                refresh: 1,
            },
            ingest_batches: vec![("lg".to_string(), region_flip())],
            refresh: Some(("lg".to_string(), dataset())),
            ..respond_plan(1, 100.0, Pacing::OpenLoop)
        };
        let report = run(&frontend, &plan);
        drop(frontend);
        assert_eq!((report.refreshes, report.control_ok), (1, 1));
        let cold = ServiceBuilder::new().workers(1).build();
        cold.register_dataset(TenantSpec::new("lg", dataset(), config()))
            .unwrap();
        assert_eq!(
            service.tenant_store("lg").unwrap().snapshot(),
            cold.tenant_store("lg").unwrap().snapshot()
        );
    }

    /// A refresh names the rows updates target, once each, and every row
    /// once a batch of its tenant inserts or deletes; other tenants'
    /// batches name nothing.
    #[test]
    fn refresh_rows_follow_the_tenants_batches() {
        let data = dataset();
        let update = |row| RowDelta::Update {
            row,
            values: data.table.iter_rows().nth(row).expect("a row"),
        };
        let mut plan = respond_plan(1, 100.0, Pacing::OpenLoop);
        plan.ingest_batches = vec![
            ("lg".to_string(), vec![update(9), update(2)]),
            ("other".to_string(), vec![RowDelta::Delete { row: 0 }]),
            ("lg".to_string(), vec![update(2)]),
        ];
        assert_eq!(refresh_rows(&plan, "lg", &data), vec![2, 9]);
        plan.ingest_batches
            .push(("lg".to_string(), vec![RowDelta::Delete { row: 4 }]));
        assert_eq!(
            refresh_rows(&plan, "lg", &data),
            (0..data.table.len()).collect::<Vec<_>>()
        );
    }

    fn respond_plan(n: usize, rate: f64, pacing: Pacing) -> LoadPlan {
        let requests = vec![
            ServiceRequest::new("lg", "delay in Winter?"),
            ServiceRequest::new("lg", "delay in Summer in the East?"),
        ];
        LoadPlan {
            pacing,
            ..LoadPlan::respond_only(Schedule::new(Arrival::Constant { rate }, n, 5), requests, 5)
        }
    }

    /// The coordinated-omission probe: a deterministic 50 ms stall
    /// every 150th respond. Open-loop intended-time p99 must charge the
    /// queue the stall builds (hundreds of affected arrivals); the
    /// closed-loop driver pauses itself during the stall, so only
    /// 1-in-150 of its samples (< 1%) even sees it and its p99 stays
    /// small. This asymmetry *is* the bias the open-loop harness fixes.
    #[test]
    fn coordinated_omission_probe() {
        let stall = Duration::from_millis(50);
        let open = {
            let plan = Arc::new(FaultPlan::new(1).rule_every(
                FaultSite::Respond,
                Fault::Latency(stall),
                150,
            ));
            let service = service_with_tenant(Some(Arc::clone(&plan)));
            let frontend = FrontEnd::builder(service)
                .workers(1)
                .queue_capacity(4096)
                .no_flush_tick()
                .build();
            plan.arm();
            let report = run(&frontend, &respond_plan(600, 1200.0, Pacing::OpenLoop));
            plan.disarm();
            report
        };
        let closed = {
            let plan = Arc::new(FaultPlan::new(1).rule_every(
                FaultSite::Respond,
                Fault::Latency(stall),
                150,
            ));
            let service = service_with_tenant(Some(Arc::clone(&plan)));
            let frontend = FrontEnd::builder(service)
                .workers(1)
                .queue_capacity(4096)
                .no_flush_tick()
                .build();
            plan.arm();
            let report = run(&frontend, &respond_plan(600, 1200.0, Pacing::ClosedLoop));
            plan.disarm();
            report
        };
        assert_eq!(open.responds, 600);
        assert_eq!(closed.responds, 600);
        let open_p99 = open.intended.percentile(99.0);
        let closed_p99 = closed.measured.percentile(99.0);
        // Open loop: each stall queues ~60 arrivals (1200/s × 50 ms),
        // so ≥ 1/3 of samples carry queueing delay and p99 lands well
        // above 20 ms. Closed loop: 4 of 600 samples (0.67%) see the
        // stall — below the 99th percentile, which stays µs-scale.
        assert!(
            open_p99 >= 20_000,
            "open-loop intended-time p99 must reflect the stall: {open_p99}µs"
        );
        assert!(
            closed_p99 < open_p99 / 2,
            "closed-loop p99 {closed_p99}µs should understate open-loop p99 {open_p99}µs"
        );
    }

    #[test]
    fn open_loop_report_accounts_every_event() {
        let service = service_with_tenant(None);
        let frontend = FrontEnd::builder(service).workers(1).build();
        let mut plan = respond_plan(200, 2000.0, Pacing::OpenLoop);
        plan.deadline_budget = Some(Duration::from_secs(5));
        let report = run(&frontend, &plan);
        assert_eq!(report.responds, 200);
        assert_eq!(report.intended.count(), 200);
        assert_eq!(
            report.answered + report.shed + report.expired + report.internal,
            200
        );
        assert_eq!(report.internal, 0);
        assert!(report.in_deadline_rate() > 0.0);
        assert!(report.achieved_rate() > 0.0);
    }

    /// With two serving workers, a batch stalled 100 ms inside the
    /// service must not delay the stamps of the responds that the other
    /// worker answered meanwhile. A collector that waits on tickets in
    /// submission order stamps every one of them after the batch.
    #[test]
    fn slow_ingest_does_not_delay_later_respond_stamps() {
        let faults = Arc::new(FaultPlan::new(1).rule_every(
            FaultSite::Ingest,
            Fault::Latency(Duration::from_millis(100)),
            1,
        ));
        let service = service_with_tenant(Some(Arc::clone(&faults)));
        let frontend = FrontEnd::builder(service)
            .workers(2)
            .no_flush_tick()
            .build();
        let mut row = dataset().table.iter_rows().next().expect("a row");
        row[0] = Value::str(if row[0].as_str() == Some("Winter") {
            "Summer"
        } else {
            "Winter"
        });
        // 41 events 2 ms apart. With these weights, mix seed 73 draws
        // the ingest batch for event 0 and a respond for every later one.
        let plan = LoadPlan {
            mix: MixWeights {
                respond: 40,
                ingest: 1,
                refresh: 0,
            },
            ingest_batches: vec![(
                "lg".to_string(),
                vec![RowDelta::Update {
                    row: 0,
                    values: row,
                }],
            )],
            seed: 73,
            ..respond_plan(41, 500.0, Pacing::OpenLoop)
        };
        faults.arm();
        let report = run(&frontend, &plan);
        faults.disarm();

        assert_eq!((report.responds, report.ingests), (40, 1));
        assert_eq!(report.control_ok, 1);
        assert!(report.control.min() >= 100_000, "the batch was not slowed");
        let p50 = report.intended.percentile(50.0);
        assert!(
            p50 < 20_000,
            "responds behind a 100 ms batch were stamped late: p50 {p50}µs"
        );
    }
}
