//! One run of one workload: set up, check, load, refresh, check again,
//! and turn what was measured into the result line.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vqs_data::{wide_probe_spec, GeneratedDataset};
use vqs_engine::prelude::{
    enumerate_queries, target_relation, Answer, Configuration, Extractor, FlushReport, FrontEnd,
    IngestBuilder, Lookup, PreprocessReport, Query, Request, ServiceBuilder, SpeechStore,
    StoredSpeech, TenantSpec, TenantStats, VoiceService,
};

use crate::load::{self, Completion, Event, LoadRun, Outcome};
use crate::metrics::{Metric, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{median, Samples};
use crate::trace::{Span, Trace};
use crate::workloads::{Inputs, Tenant, Workload, BUDGET};

/// Solver-pool threads of the service (one per core of the two-core
/// reference machine).
const POOL_WORKERS: usize = 2;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Wide-probe predicate counts swept in `store_hit`'s traced run.
const WIDE_PROBES: [usize; 5] = [4, 8, 12, 16, 20];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of offered load.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Where the traced run writes `<workload>.jsonl`.
    pub trace_dir: PathBuf,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// The result line.
    pub result: RunResult,
    /// Stable hash of every tenant's final store snapshot.
    pub store_digest: String,
    /// Human-readable lines: sample counts, checks, notes.
    pub notes: Vec<String>,
}

/// Failed correctness checks, collected rather than aborting at the
/// first so a run reports everything it found.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.failures.push(what);
    }
}

fn spec(tenant: &Tenant, ingest: Option<IngestBuilder>) -> TenantSpec {
    let spec = TenantSpec::new(
        &tenant.name,
        GeneratedDataset::clone(&tenant.dataset),
        tenant.config.clone(),
    );
    match ingest {
        Some(options) => spec.ingest(options),
        None => spec,
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The speech a store-tier answer must share with the store, if the
/// answer claims to come from it.
fn stored_speech(store: &SpeechStore, query: &Query) -> Option<Arc<StoredSpeech>> {
    match store.lookup(query) {
        Lookup::Exact(speech) | Lookup::Generalized { speech, .. } => Some(speech),
        Lookup::Miss => None,
    }
}

/// Run one workload.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut trace = Trace::new();
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let inputs = Inputs::generate(options.workload, options.seed, options.seconds);
    let shape = &inputs.shape;
    let primary = &inputs.tenants[0];

    // Set-up: cold registrations into fresh services; the last one serves.
    // What the benchmark itself holds (its inputs) is resident before the
    // first set-up starts, and is subtracted from the set-up's peak.
    let inputs_rss_mb = proc_status_mb("VmRSS")?;
    let inputs_hwm_mb = proc_status_mb("VmHWM")?;
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut service = None;
    let mut reports: Vec<PreprocessReport> = Vec::new();
    let mut setup_rss_mb = 0.0;
    for rep in 0..SETUP_REPS {
        drop(service.take());
        let fresh = Arc::new(ServiceBuilder::new().workers(POOL_WORKERS).build());
        let specs: Vec<TenantSpec> = inputs
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| spec(t, shape.ingest.clone().filter(|_| i == 0)))
            .collect();
        reports.clear();
        let start = Instant::now();
        for spec in specs {
            let begin = Instant::now();
            reports.push(
                fresh
                    .register_dataset(spec)
                    .map_err(|e| format!("registration failed: {e}"))?,
            );
            trace.root("service.register_dataset", begin, Instant::now());
        }
        setup_secs.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            // The high-water mark of the first cold set-up above the
            // inputs: what pre-processing and the resident stores need.
            // Later set-ups and phases reuse freed memory unevenly across
            // threads' allocator arenas, which does not repeat from run
            // to run.
            let peak = proc_status_mb("VmHWM")?;
            if peak <= inputs_hwm_mb {
                return Err(format!(
                    "set-up peak {peak} MB does not exceed input generation's {inputs_hwm_mb} MB"
                ));
            }
            setup_rss_mb = peak - inputs_rss_mb;
            notes.push(format!(
                "rss: inputs {inputs_rss_mb:.1} MB (peak {inputs_hwm_mb:.1} MB), set-up peak {peak:.1} MB"
            ));
        }
        service = Some(fresh);
    }
    let service = service.expect("at least one set-up");
    let setup_s = median(&setup_secs);
    let store_bytes: u64 = inputs
        .tenants
        .iter()
        .map(|t| {
            service
                .tenant_store(&t.name)
                .expect("registered")
                .stats()
                .approx_bytes
        })
        .sum();

    // Serial prefix: every stored speech served is the store's own.
    for request in &inputs.prefix {
        let response = service.respond(request);
        if let Answer::Internal { what } = &response.answer {
            checks.fail(format!(
                "prefix '{}' answered Internal: {what}",
                request.text
            ));
        }
        if let (Answer::Speech { speech, .. }, Some(Request::Query(query))) =
            (&response.answer, &response.request)
        {
            let store = service.tenant_store(&request.tenant).expect("registered");
            let shared = stored_speech(&store, query).is_some_and(|s| Arc::ptr_eq(&s, speech));
            if !shared {
                checks.fail(format!(
                    "prefix '{}' served a speech that is not the store's",
                    request.text
                ));
            }
        }
    }

    // Load. Without the front-end's background flush tick, every flush
    // runs inline in the ingest call that triggers it, so its report
    // reaches the benchmark and the lane it blocks is the one measured.
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(1)
        .no_flush_tick()
        .build();
    let split = if options.trace {
        inputs.events.len() / 2
    } else {
        inputs.events.len()
    };
    let untraced = load::run(
        &frontend,
        &inputs.offsets[..split],
        &inputs.events[..split],
        || {},
    );
    let mut layers = Layers::default();
    let mut traced = None;
    if options.trace {
        let base = inputs.offsets[split];
        let offsets: Vec<Duration> = inputs.offsets[split..].iter().map(|o| *o - base).collect();
        let before_fe = frontend.stats();
        let before_tenant = tenant_stats(&service, &primary.name);
        let mut probe = Probe::default();
        let pool = service.solver_pool();
        let run = load::run(&frontend, &offsets, &inputs.events[split..], || {
            let (interactive, bulk) = pool.queued();
            probe.interactive_max = probe.interactive_max.max(interactive);
            probe.bulk_max = probe.bulk_max.max(bulk);
        });
        let after_fe = frontend.stats();
        layers.frontend_shed = after_fe.shed - before_fe.shed;
        layers.peak_queued = after_fe.peak_queued;
        layers.probe = probe;
        layers.before_tenant = Some(before_tenant);
        traced = Some((run, split));
    }
    drop(frontend);

    if shape.ingest.is_some() {
        let drain_start = Instant::now();
        let drained = service
            .drain_ingest(&primary.name)
            .map_err(|e| format!("drain failed: {e}"))?;
        let drain_end = Instant::now();
        trace.root("service.drain_ingest", drain_start, drain_end);
        layers.drain = Some((drain_end, drained));
    }
    layers.after_tenant = Some(tenant_stats(&service, &primary.name));
    // Attribute the traced load (and shadow-replay its lookups) against
    // the store the load saw, before the refreshes below change it.
    if let Some((run, split)) = &traced {
        layers.setup(&inputs, &reports, &service, options.workload);
        layers.load(
            &service, &inputs, &untraced, run, *split, &mut trace, &mut notes,
        );
    }

    // Refresh: the data owner's batch updates through the shared
    // invalidation path.
    let mut refresh_secs = Vec::with_capacity(inputs.refreshes.len());
    for batch in &inputs.refreshes {
        let start = Instant::now();
        service
            .refresh_tenant_deltas(&primary.name, batch)
            .map_err(|e| format!("refresh failed: {e}"))?;
        let end = Instant::now();
        trace.root("service.refresh_tenant_deltas", start, end);
        refresh_secs.push((end - start).as_secs_f64());
    }

    // Convergence: the mutated tenant equals a cold registration of its
    // final table.
    if let Some(deltas) = &inputs.deltas {
        let cold = ServiceBuilder::new().workers(POOL_WORKERS).build();
        cold.register_dataset(TenantSpec::new(
            &primary.name,
            deltas.dataset(),
            primary.config.clone(),
        ))
        .map_err(|e| format!("cold registration failed: {e}"))?;
        let live_snapshot = service
            .tenant_store(&primary.name)
            .expect("registered")
            .snapshot();
        if live_snapshot
            != cold
                .tenant_store(&primary.name)
                .expect("registered")
                .snapshot()
        {
            checks.fail(
                "store after deltas differs from a cold registration of the final table".into(),
            );
        }
    }
    let store_digest = digest(&service);

    // Accounting over everything the load phase sent.
    let mut load: Vec<&Completion> = untraced.completions.iter().collect();
    if let Some((run, _)) = &traced {
        load.extend(run.completions.iter());
    }
    let mut failed = 0u64;
    for completion in &load {
        match &completion.outcome {
            Outcome::Respond(response) => match &response.answer {
                Answer::Overloaded { .. } | Answer::Expired { .. } => failed += 1,
                Answer::Internal { what } => {
                    failed += 1;
                    checks.fail(format!("load answered Internal: {what}"));
                }
                _ => {}
            },
            Outcome::Ingest(Err(err)) => {
                failed += 1;
                checks.fail(format!("ingest batch failed: {err}"));
            }
            Outcome::Ingest(Ok(_)) => {}
        }
    }
    if load.len() != inputs.events.len() {
        checks.fail(format!(
            "{} of {} events completed",
            load.len(),
            inputs.events.len()
        ));
    }
    let attempted = (inputs.prefix.len() + inputs.events.len() + inputs.refreshes.len()) as u64;

    let span = inputs.offsets[..split].last().copied().unwrap_or_default();
    let in_deadline = respond_latency(&untraced, span, &mut notes);
    let metrics = if options.trace {
        // Wall times follow the host's speed too closely to hold a bound,
        // so they are reported per layer (see README.md). They cover both
        // halves of the load: on `ingest_mixed` the flush falls in the
        // second.
        let mut latency = Samples::default();
        for completion in &load {
            if matches!(completion.outcome, Outcome::Respond(_)) {
                latency.push(completion.latency().as_nanos() as u64);
            }
        }
        layers.set_percentile("respond_p50_ms", &mut latency, 50.0, 1e-6, &mut notes);
        layers.set_percentile("respond_p95_ms", &mut latency, 95.0, 1e-6, &mut notes);
        layers.set(
            "refresh_s",
            if refresh_secs.is_empty() {
                0.0
            } else {
                median(&refresh_secs)
            },
        );
        let path = options
            .trace_dir
            .join(format!("{}.jsonl", options.workload.name()));
        trace
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            trace.len(),
            path.display()
        ));
        layers.metrics(&mut notes)
    } else {
        let values = [setup_s, in_deadline, store_bytes as f64 / 1e6, setup_rss_mb];
        END_TO_END.iter().copied().zip(values).collect()
    };
    notes.push(format!(
        "setup {:?}s refresh {:?}s",
        setup_secs, refresh_secs
    ));
    Ok(Report {
        result: RunResult {
            correct: checks.failures.is_empty(),
            attempted,
            failed,
            metrics,
        },
        store_digest,
        notes,
    })
}

/// The in-deadline share of one load phase's responds; in the notes, the
/// respond latency from intended send (tails with the samples beyond
/// them), the SLO verdict and the backlog trend.
fn respond_latency(run: &LoadRun, span: Duration, notes: &mut Vec<String>) -> f64 {
    let mut all = Samples::default();
    let (mut first_tenth, mut last_tenth) = (Samples::default(), Samples::default());
    let (mut responds, mut in_deadline) = (0usize, 0usize);
    for completion in &run.completions {
        let Outcome::Respond(response) = &completion.outcome else {
            continue;
        };
        responds += 1;
        let nanos = completion.latency().as_nanos() as u64;
        all.push(nanos);
        if completion.intended * 10 < span {
            first_tenth.push(nanos);
        } else if completion.intended * 10 >= span * 9 {
            last_tenth.push(nanos);
        }
        let served = !matches!(
            response.answer,
            Answer::Overloaded { .. } | Answer::Expired { .. } | Answer::Internal { .. }
        );
        if served && completion.latency() <= BUDGET {
            in_deadline += 1;
        }
    }
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let in_deadline = in_deadline as f64 / responds.max(1) as f64;
    for p in [50.0, 95.0, 99.0] {
        match all.guarded(p) {
            Ok(found) => notes.push(format!(
                "respond p{p}: {:.3}ms (n={}, {} beyond)",
                ms(found.value),
                found.count,
                found.beyond
            )),
            Err(why) => notes.push(format!("respond p{p} not reported: {why}")),
        }
    }
    let growth = match (first_tenth.percentile(50.0), last_tenth.percentile(50.0)) {
        (Some(first), Some(last)) => last.value as f64 / first.value.max(1) as f64,
        _ => f64::NAN,
    };
    notes.push(format!(
        "backlog: last tenth p50 / first tenth p50 = {growth:.2} (growing above 2)"
    ));
    let slo = match all.guarded(99.0) {
        Ok(p99) if ms(p99.value) <= BUDGET.as_secs_f64() * 1e3 => {
            if in_deadline >= 0.99 && growth <= 2.0 {
                "met"
            } else {
                "missed"
            }
        }
        Ok(_) => "missed",
        Err(_) => "not judged (thin p99)",
    };
    notes.push(format!(
        "SLO (p99 <= {}ms, in-deadline >= 0.99, no growing backlog): {slo}",
        BUDGET.as_millis()
    ));
    notes.push(format!(
        "generator: max send lag {}us",
        run.max_send_lag.as_micros()
    ));
    in_deadline
}

fn tenant_stats(service: &VoiceService, name: &str) -> TenantStats {
    service
        .stats()
        .tenants
        .into_iter()
        .find(|t| t.tenant == name)
        .expect("registered tenant")
}

/// FNV-1a over the debug rendering of every tenant's sorted snapshot.
fn digest(service: &VoiceService) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for tenant in service.tenants() {
        let store = service.tenant_store(&tenant).expect("registered");
        for speech in store.snapshot() {
            for byte in format!("{tenant}{speech:?}").bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{hash:016x}")
}

/// A memory field of this process (`VmRSS`, `VmHWM`) from
/// `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1e3)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Pool queue depths sampled on the collector thread during the traced
/// load.
#[derive(Debug, Default)]
struct Probe {
    interactive_max: usize,
    bulk_max: usize,
}

/// Per-layer measurements of a traced run.
#[derive(Debug, Default)]
struct Layers {
    frontend_shed: u64,
    peak_queued: u64,
    probe: Probe,
    before_tenant: Option<TenantStats>,
    after_tenant: Option<TenantStats>,
    drain: Option<(Instant, FlushReport)>,
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// A percentile of `samples` scaled by `scale`, or 0 with a note when
    /// the sample cannot support it.
    fn set_percentile(
        &mut self,
        name: &'static str,
        samples: &mut Samples,
        p: f64,
        scale: f64,
        notes: &mut Vec<String>,
    ) {
        if samples.is_empty() {
            self.set(name, 0.0);
            return;
        }
        let guarded = if p <= 50.0 {
            samples.percentile(p).ok_or_else(String::new)
        } else {
            samples.guarded(p)
        };
        match guarded {
            Ok(found) => {
                notes.push(format!("{name}: n={} beyond={}", found.count, found.beyond));
                self.set(name, found.value as f64 * scale);
            }
            Err(why) => {
                notes.push(format!("{name}: not reported, {why}"));
                self.set(name, 0.0);
            }
        }
    }

    /// Layers measured around set-up: enumeration, solving, work counts,
    /// and the wide-probe lookup sweep.
    fn setup(
        &mut self,
        inputs: &Inputs,
        reports: &[PreprocessReport],
        service: &VoiceService,
        workload: Workload,
    ) {
        let mut enumerate = Duration::ZERO;
        for tenant in &inputs.tenants {
            for target in &tenant.config.targets {
                let relation = target_relation(&tenant.dataset, &tenant.config, target)
                    .expect("configured target");
                let start = Instant::now();
                std::hint::black_box(enumerate_queries(&relation, &tenant.config, target));
                enumerate += start.elapsed();
            }
        }
        self.set("generator.enumerate_ms", ms(enumerate));
        let solver: Duration = reports.iter().map(|r| r.solver_time).sum();
        let elapsed: Duration = reports.iter().map(|r| r.elapsed).sum();
        let workers = service.pool_workers().max(1) as u32;
        self.set("generator.solver_ms", ms(solver));
        self.set(
            "generator.other_ms",
            ms(elapsed.saturating_sub(solver / workers)),
        );
        self.set(
            "generator.queries",
            reports.iter().map(|r| r.queries).sum::<usize>() as f64,
        );
        let mut work = [0u64; 4];
        for report in reports {
            let counts = &report.instrumentation;
            work[0] += counts.index_row_touches;
            work[1] += counts.nodes_expanded;
            work[2] += counts.speeches_evaluated;
            work[3] += counts.groups_pruned;
        }
        self.set("core.index_row_touches", work[0] as f64);
        self.set("core.nodes_expanded", work[1] as f64);
        self.set("core.speeches_evaluated", work[2] as f64);
        self.set("core.groups_pruned", work[3] as f64);
        let wide = if workload == Workload::StoreHit {
            wide_probe_sweep()
        } else {
            vec![0.0; WIDE_PROBES.len()]
        };
        for (name, nanos) in [
            "store.wide_lookup_ns_n4",
            "store.wide_lookup_ns_n8",
            "store.wide_lookup_ns_n12",
            "store.wide_lookup_ns_n16",
            "store.wide_lookup_ns_n20",
        ]
        .into_iter()
        .zip(wide)
        {
            self.set(name, nanos);
        }
    }

    /// Layers measured around the traced load and its shadow replay.
    #[allow(clippy::too_many_arguments)]
    fn load(
        &mut self,
        service: &VoiceService,
        inputs: &Inputs,
        untraced: &LoadRun,
        run: &LoadRun,
        split: usize,
        trace: &mut Trace,
        notes: &mut Vec<String>,
    ) {
        let origin = trace.at(run.origin);
        let mut queue_wait = Samples::default();
        let mut service_time = Samples::default();
        let mut from_send = Samples::default();
        let mut traced_latency = Samples::default();
        let mut send_lag = Samples::default();
        let mut answered = 0usize;
        let mut live: Vec<(usize, u64)> = Vec::new();
        let mut flush_ms = Samples::default();
        let mut accept = Samples::default();
        let mut fresh = Samples::default();
        let mut failed = 0usize;
        // `(last seqno, ready)` of every batch whose call flushed: the
        // store reflects a batch once a flush covering its seqno returned.
        let mut flushed: Vec<(u64, Instant)> = run
            .completions
            .iter()
            .filter_map(|c| match &c.outcome {
                Outcome::Ingest(Ok(report))
                    if report.flush.as_ref().is_some_and(|f| f.deltas > 0) =>
                {
                    Some((report.last_seqno, run.origin + c.ready))
                }
                _ => None,
            })
            .collect();
        flushed.sort_by_key(|(seqno, _)| *seqno);
        let drained_at = self.drain.as_ref().map(|(at, _)| *at);

        // Shadow replay: the benchmark's thread re-issues the
        // classification and store lookup of every respond on the
        // timeline serially, timing each call.
        let mut shadow: Vec<Option<(u64, u64)>> = vec![None; inputs.events.len()];
        let mut classify = Samples::default();
        let mut lookup = Samples::default();
        let extractors: Vec<(String, Extractor, Arc<SpeechStore>)> = inputs
            .tenants
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    service.extractor(&t.name).expect("registered"),
                    service.tenant_store(&t.name).expect("registered"),
                )
            })
            .collect();
        let lookups_before = service.stats().store_totals();
        let shadow_start = trace.at(Instant::now());
        for (index, event) in inputs.events.iter().enumerate() {
            let Event::Respond(request) = event else {
                continue;
            };
            let (_, extractor, store) = extractors
                .iter()
                .find(|(name, _, _)| *name == request.tenant)
                .expect("known tenant");
            let start = Instant::now();
            let classified = std::hint::black_box(extractor.classify(&request.text));
            let mid = Instant::now();
            let mut lookup_ns = 0;
            if let Request::Query(query) = &classified {
                std::hint::black_box(store.lookup(query));
                let end = Instant::now();
                lookup_ns = (end - mid).as_nanos() as u64;
                lookup.push(lookup_ns);
                trace.push(Span {
                    name: "store.lookup",
                    start: trace.at(mid),
                    end: trace.at(end),
                    parent: None,
                    request: Some(index),
                    shadow: true,
                });
            }
            let classify_ns = (mid - start).as_nanos() as u64;
            classify.push(classify_ns);
            trace.push(Span {
                name: "nlq.classify",
                start: trace.at(start),
                end: trace.at(mid),
                parent: None,
                request: Some(index),
                shadow: true,
            });
            shadow[index] = Some((classify_ns, lookup_ns));
        }
        let lookups_after = service.stats().store_totals();
        notes.push(format!(
            "shadow replay took {:.1}ms",
            ms(trace.at(Instant::now()) - shadow_start)
        ));

        for completion in &run.completions {
            let request = Some(split + completion.event);
            let sent = origin + completion.sent;
            let ready = origin + completion.ready;
            send_lag.push((completion.sent - completion.intended).as_nanos() as u64);
            match &completion.outcome {
                Outcome::Respond(response) => {
                    traced_latency.push(completion.latency().as_nanos() as u64);
                    let service_ns = response.latency_micros * 1000;
                    let submit_ns = (completion.ready - completion.sent).as_nanos() as u64;
                    from_send.push(submit_ns);
                    let root = trace.push(Span {
                        name: "frontend.submit",
                        start: sent,
                        end: ready,
                        parent: None,
                        request,
                        shadow: false,
                    });
                    let served_from = ready.saturating_sub(Duration::from_nanos(service_ns));
                    trace.push(Span {
                        name: "service.respond",
                        start: served_from.max(sent),
                        end: ready,
                        parent: Some(root),
                        request,
                        shadow: false,
                    });
                    match &response.answer {
                        Answer::Overloaded { .. }
                        | Answer::Expired { .. }
                        | Answer::Internal { .. } => {
                            failed += 1;
                            continue;
                        }
                        _ => {}
                    }
                    answered += 1;
                    queue_wait.push(submit_ns.saturating_sub(service_ns));
                    service_time.push(service_ns);
                    // Requests carry no deadline, so the degradation
                    // ladder never runs: live plans are the only tier off
                    // the store.
                    if matches!(response.answer, Answer::Computed { .. }) {
                        live.push((split + completion.event, service_ns));
                    }
                }
                Outcome::Ingest(result) => {
                    let root = trace.push(Span {
                        name: "frontend.submit_ingest",
                        start: sent,
                        end: ready,
                        parent: None,
                        request,
                        shadow: false,
                    });
                    let Ok(report) = result else {
                        failed += 1;
                        continue;
                    };
                    match &report.flush {
                        Some(flush) if flush.deltas > 0 => {
                            flush_ms.push(flush.elapsed.as_nanos() as u64);
                            trace.push(Span {
                                name: "ingest.flush",
                                start: ready.saturating_sub(flush.elapsed).max(sent),
                                end: ready,
                                parent: Some(root),
                                request,
                                shadow: false,
                            });
                        }
                        _ => accept.push((completion.ready - completion.sent).as_nanos() as u64),
                    }
                    let fresh_at = flushed
                        .iter()
                        .find(|(seqno, _)| *seqno >= report.last_seqno)
                        .map(|(_, at)| *at)
                        .or(drained_at)
                        .expect("a workload that ingests drains after the load");
                    let due = run.origin + completion.intended;
                    fresh.push(fresh_at.saturating_duration_since(due).as_nanos() as u64);
                }
            }
        }

        // Live-tier self time: what the answer cost beyond classifying and
        // looking up, per request.
        let mut live_self = Samples::default();
        for (event, service_ns) in &live {
            if let Some((classify_ns, lookup_ns)) = shadow[*event] {
                live_self.push(service_ns.saturating_sub(classify_ns + lookup_ns));
            }
        }

        self.set_percentile(
            "frontend.queue_wait_p50_us",
            &mut queue_wait,
            50.0,
            1e-3,
            notes,
        );
        self.set_percentile(
            "frontend.queue_wait_p95_us",
            &mut queue_wait,
            95.0,
            1e-3,
            notes,
        );
        self.set("frontend.shed", self.frontend_shed as f64);
        self.set("frontend.peak_queued", self.peak_queued as f64);
        self.set_percentile(
            "service.respond_p50_us",
            &mut service_time,
            50.0,
            1e-3,
            notes,
        );
        self.set_percentile(
            "service.respond_p95_us",
            &mut service_time,
            95.0,
            1e-3,
            notes,
        );
        self.set(
            "service.live_share",
            live.len() as f64 / answered.max(1) as f64,
        );
        self.set(
            "service.fail_rate",
            failed as f64 / run.completions.len().max(1) as f64,
        );
        self.set_percentile("nlq.classify_p50_us", &mut classify, 50.0, 1e-3, notes);
        self.set_percentile("nlq.classify_p99_us", &mut classify, 99.0, 1e-3, notes);
        self.set_percentile("store.lookup_p50_ns", &mut lookup, 50.0, 1.0, notes);
        self.set_percentile("store.lookup_p99_ns", &mut lookup, 99.0, 1.0, notes);
        let lookups = lookups_after.lookups - lookups_before.lookups;
        let probes = lookups_after.probes - lookups_before.probes;
        let exact = lookups_after.exact_hits - lookups_before.exact_hits;
        self.set(
            "store.probes_per_lookup",
            probes as f64 / lookups.max(1) as f64,
        );
        self.set(
            "store.exact_hit_ratio",
            exact as f64 / lookups.max(1) as f64,
        );
        self.set_percentile(
            "pipeline.live_self_p50_us",
            &mut live_self,
            50.0,
            1e-3,
            notes,
        );
        self.set_percentile(
            "pipeline.live_self_p90_us",
            &mut live_self,
            90.0,
            1e-3,
            notes,
        );
        self.set("pool.bulk_queued_max", self.probe.bulk_max as f64);
        self.set(
            "pool.interactive_queued_max",
            self.probe.interactive_max as f64,
        );

        let (drain_deltas, drain_elapsed) = self
            .drain
            .as_ref()
            .map_or((0, Duration::ZERO), |(_, flush)| {
                (flush.deltas, flush.elapsed)
            });
        let drain_flushed = u64::from(drain_deltas > 0);
        if drain_deltas > 0 {
            flush_ms.push(drain_elapsed.as_nanos() as u64);
        }
        self.set_percentile("ingest.flush_ms_p50", &mut flush_ms, 50.0, 1e-6, notes);
        self.set("ingest.flush_ms_max", flush_ms.max() as f64 / 1e6);
        self.set(
            "ingest.flushes",
            (flushed.len() as u64 + drain_flushed) as f64,
        );
        let (before, after) = (
            self.before_tenant.as_ref().expect("sampled"),
            self.after_tenant.as_ref().expect("sampled"),
        );
        let deltas = after.deltas_applied - before.deltas_applied;
        let resummarized = after.summaries_resummarized - before.summaries_resummarized;
        self.set(
            "ingest.resummarized_per_delta",
            resummarized as f64 / deltas.max(1) as f64,
        );
        self.set_percentile("ingest.accept_p90_us", &mut accept, 90.0, 1e-3, notes);
        self.set_percentile("ingest.fresh_p50_ms", &mut fresh, 50.0, 1e-6, notes);
        self.set_percentile("ingest.fresh_p90_ms", &mut fresh, 90.0, 1e-6, notes);
        self.set("ingest.drain_ms", ms(drain_elapsed));
        self.set(
            "loadgen.send_lag_max_us",
            run.max_send_lag.as_secs_f64() * 1e6,
        );
        self.set_percentile("loadgen.send_lag_p95_us", &mut send_lag, 95.0, 1e-3, notes);

        let mut plain = Samples::default();
        for completion in &untraced.completions {
            if matches!(completion.outcome, Outcome::Respond(_)) {
                plain.push(completion.latency().as_nanos() as u64);
            }
        }
        let overhead = match (traced_latency.percentile(50.0), plain.percentile(50.0)) {
            (Some(traced), Some(plain)) => traced.value as f64 / plain.value.max(1) as f64,
            _ => 0.0,
        };
        self.set("trace.overhead_p50", overhead);
        let reconcile = match (
            queue_wait.percentile(50.0),
            service_time.percentile(50.0),
            from_send.percentile(50.0),
        ) {
            (Some(wait), Some(serve), Some(total)) => {
                (wait.value + serve.value) as f64 / total.value.max(1) as f64
            }
            _ => 0.0,
        };
        self.set("trace.reconcile_ratio", reconcile);
    }

    /// Every per-layer metric, in declaration order.
    fn metrics(&self, notes: &mut Vec<String>) -> Vec<(Metric, f64)> {
        PER_LAYER
            .iter()
            .map(|metric| {
                let value = self
                    .values
                    .iter()
                    .find(|(name, _)| *name == metric.name)
                    .map(|(_, v)| *v);
                if value.is_none() {
                    notes.push(format!("{}: not measured", metric.name));
                }
                (*metric, value.unwrap_or(0.0))
            })
            .collect()
    }
}

/// Mean lookup time (ns) on a 20-binary-dimension tenant for each query
/// length in [`WIDE_PROBES`], with value `b` on every dimension so long
/// queries walk the full generalization path.
fn wide_probe_sweep() -> Vec<f64> {
    let dataset = wide_probe_spec(20).generate(vqs_data::DEFAULT_SEED, 1.0);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new(&dataset.name, &dims, &["metric"]);
    let service = ServiceBuilder::new().workers(POOL_WORKERS).build();
    service
        .register_dataset(TenantSpec::new("wide", dataset, config))
        .expect("wide tenant registers");
    let store = service.tenant_store("wide").expect("registered");
    WIDE_PROBES
        .iter()
        .map(|&n| {
            let query = Query::new(
                "metric",
                (0..n)
                    .map(|d| (format!("d{d:02}"), "b".to_string()))
                    .collect::<Vec<_>>(),
            );
            let start = Instant::now();
            let mut rounds = 0u32;
            while rounds < 3 || start.elapsed() < Duration::from_millis(20) {
                std::hint::black_box(store.lookup(&query));
                rounds += 1;
            }
            start.elapsed().as_nanos() as f64 / f64::from(rounds)
        })
        .collect()
}
