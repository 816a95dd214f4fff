//! Chaos suite: a sustained, seeded fault plan against a live serving
//! front-end, plus the deterministic degradation-ladder acceptance
//! checks.
//!
//! The randomized test drives waves of mixed traffic (deadline-free,
//! budgeted, instantly-expiring, plus background refreshes, registrations
//! and ingest batches) while a [`FaultPlan`] injects latency, panics, and
//! forced solver timeouts at every site, then asserts the serving
//! invariants:
//!
//! * every ticket completes — nothing hangs, nothing is lost;
//! * the workers survive injected panics and keep serving;
//! * the shed/expired/degraded/retried counters reconcile
//!   (`submitted == completed + shed + expired`, and the front-end's
//!   totals agree with the per-tenant roll-ups);
//! * refreshes stay fail-atomic, so after the chaos the tenant's store
//!   is byte-identical to a fault-free run's, and a fault-free rerun of
//!   the same requests returns byte-identical answers.
//!
//! The fault schedule is a pure function of the seed (pinned in CI via
//! `VQS_CHAOS_SEED`), so a failure reproduces by rerunning with the
//! same seed.

use std::sync::Arc;
use std::time::Duration;

use vqs_data::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_relalg::prelude::{Table, Value};

const LONG_WAIT: Duration = Duration::from_secs(120);

/// Pinned default; override with `VQS_CHAOS_SEED=<n>` to reproduce a CI
/// failure locally or to explore other schedules.
const DEFAULT_CHAOS_SEED: u64 = 20210411;

fn chaos_seed() -> u64 {
    std::env::var("VQS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_CHAOS_SEED)
}

fn dataset(name: &str, seed: u64) -> GeneratedDataset {
    SynthSpec {
        name: name.to_string(),
        dims: vec![
            DimSpec::named("season", &["Winter", "Summer"]),
            DimSpec::named("region", &["East", "West"]),
        ],
        targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
        rows: 160,
    }
    .generate(seed, 1.0)
}

fn config(name: &str) -> Configuration {
    Configuration::new(name, &["season", "region"], &["delay"])
}

/// The seed of the streaming tenant's base table (distinct from the
/// chaos tenant so store drift on one cannot mask drift on the other).
const STREAM_SEED: u64 = 29;

/// The `wave`-th ingest batch: one insert and one update, both always
/// valid (rows are never deleted, and `wave` < the 160 base rows), so
/// validity never depends on which earlier batches survived the faults.
fn stream_batch(wave: usize) -> Vec<RowDelta> {
    let seasons = ["Winter", "Summer"];
    let regions = ["East", "West"];
    vec![
        RowDelta::Insert(vec![
            Value::str(seasons[wave % 2]),
            Value::str(regions[(wave / 2) % 2]),
            Value::Float(10.0 + wave as f64),
        ]),
        RowDelta::Update {
            row: wave,
            values: vec![
                Value::str(seasons[(wave + 1) % 2]),
                Value::str(regions[wave % 2]),
                Value::Float(20.0 + wave as f64),
            ],
        },
    ]
}

/// Deadline-free requests whose answers must be byte-identical across a
/// fault-free service and a post-chaos, disarmed one. The last one hits
/// the evicted (Winter, East) speech and must serve the same
/// generalization both times.
const PLAIN: &[&str] = &[
    "delay in Winter?",
    "delay in Summer?",
    "delay in the East?",
    "delay in the West?",
    "delay in Winter in the East?",
];

/// The query whose stored speech both runs evict after registration: a
/// deadline-carrying request for it exercises the live-solve rung of
/// the degradation ladder (and its fault site) on every wave.
fn evicted_query() -> Query {
    Query::of("delay", &[("season", "Winter"), ("region", "East")])
}

/// Register the tenant and evict the (Winter, East) speech, simulating
/// a store entry lost to memory pressure while the live rows remain.
fn build_tenant(service: &VoiceService) {
    service
        .register_dataset(TenantSpec::new(
            "chaos",
            dataset("chaos", 17),
            config("chaos"),
        ))
        .unwrap();
    let store = service.tenant_store("chaos").unwrap();
    store.remove(&evicted_query()).expect("speech was stored");
}

#[test]
fn chaos_plan_preserves_serving_invariants() {
    let seed = chaos_seed();

    // ---- Fault-free reference: expected answers and store bytes. ----
    let reference = ServiceBuilder::new().workers(2).build();
    build_tenant(&reference);
    reference
        .refresh_tenant("chaos", &dataset("chaos", 17), &[])
        .unwrap();
    let expected_texts: Vec<String> = PLAIN
        .iter()
        .map(|utterance| {
            let response = reference.respond(&ServiceRequest::new("chaos", *utterance));
            assert!(response.answer.is_speech());
            assert_eq!(response.degradation, Degradation::None);
            response.text().to_string()
        })
        .collect();
    let expected_store = reference.tenant_store("chaos").unwrap().snapshot();

    // ---- The chaos run. ----
    let plan = Arc::new(
        FaultPlan::new(seed)
            .rule(
                FaultSite::Respond,
                Fault::Latency(Duration::from_millis(2)),
                0.20,
            )
            .rule(FaultSite::Respond, Fault::Panic, 0.05)
            .rule(FaultSite::RespondSolve, Fault::SolverTimeout, 0.50)
            .rule(FaultSite::RespondSolve, Fault::Panic, 0.05)
            .rule(FaultSite::Refresh, Fault::SolverTimeout, 0.30)
            .rule(
                FaultSite::Refresh,
                Fault::Latency(Duration::from_millis(2)),
                0.20,
            )
            .rule(FaultSite::Register, Fault::SolverTimeout, 0.50)
            .rule(FaultSite::Ingest, Fault::SolverTimeout, 0.30)
            .rule(
                FaultSite::Ingest,
                Fault::Latency(Duration::from_millis(2)),
                0.20,
            )
            .rule(FaultSite::Ingest, Fault::Panic, 0.05),
    );
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .fault_plan(Arc::clone(&plan))
            .build(),
    );
    build_tenant(&service);
    // A second, ingest-enabled tenant: streaming deltas ride the same
    // background lane as the refreshes while the plan injects faults at
    // the ingest entry. `max_dirty(1)` makes every accepted batch flush,
    // so the incremental circuit itself runs under chaos.
    service
        .register_dataset(
            TenantSpec::new("stream", dataset("stream", STREAM_SEED), config("stream"))
                .ingest(IngestBuilder::new().max_dirty(1)),
        )
        .unwrap();
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(2)
        .queue_capacity(256)
        .build();
    plan.arm();

    const WAVES: usize = 8;
    let mut internal_answers = 0u64;
    let mut degraded_answers = 0u64;
    let mut zero_budget_total = 0u64;
    let mut refresh_tickets = Vec::new();
    let mut register_tickets = Vec::new();
    let mut applied_batches: Vec<usize> = Vec::new();
    for wave in 0..WAVES {
        let mut tickets: Vec<ResponseTicket> = Vec::new();
        // Deadline-free traffic: must never expire or degrade; a
        // contained panic (typed Internal) is the only admissible
        // fault effect.
        for utterance in PLAIN {
            tickets.push(frontend.submit(ServiceRequest::new("chaos", *utterance)));
        }
        // Budgeted traffic at the evicted combination: the generous
        // budget never expires in-queue but routes through the
        // live-solve rung, where injected solver timeouts degrade the
        // answer to a greedy-built speech.
        for _ in 0..3 {
            tickets.push(
                frontend.submit(
                    ServiceRequest::new("chaos", "delay in Winter in the East?")
                        .with_budget(Duration::from_secs(60)),
                ),
            );
        }
        // Instantly-expiring traffic: the deadline passes while queued,
        // so the worker must complete these as Expired without
        // computing anything.
        for _ in 0..2 {
            zero_budget_total += 1;
            tickets.push(frontend.submit(
                ServiceRequest::new("chaos", "delay in Summer?").with_budget(Duration::ZERO),
            ));
        }
        // A mixed group that must never expire: deadline-free, or a
        // generous budget.
        let never_expiring: Vec<ResponseTicket> = [
            ServiceRequest::new("chaos", "delay in Winter?"),
            ServiceRequest::new("chaos", "delay in the West?"),
            ServiceRequest::new("chaos", "delay in Winter in the East?")
                .with_budget(Duration::from_secs(60)),
            ServiceRequest::new("chaos", "delay in Summer?"),
        ]
        .into_iter()
        .map(|request| frontend.submit(request))
        .collect();
        // Background control-lane traffic under faults: a no-op delta
        // refresh (fail-atomic either way) and, on alternating waves, a
        // fresh registration.
        refresh_tickets.push(frontend.submit_refresh("chaos", dataset("chaos", 17), vec![]));
        if wave % 2 == 0 {
            register_tickets.push(frontend.submit_register(TenantSpec::new(
                format!("extra{wave}"),
                dataset("extra", 23 + wave as u64),
                config("extra"),
            )));
        }
        // One streaming batch per wave, waited *before* the next wave's
        // batch so the applied order is deterministic. Every error
        // `ingest` returns precedes acceptance (the ingest fault site
        // fires before any delta is accepted, and an accepted batch
        // reports Ok even if its inline flush fails), so an Err ticket
        // means the batch was never applied — and a retried one was
        // applied exactly once.
        match frontend
            .submit_ingest("stream", stream_batch(wave))
            .wait_timeout(LONG_WAIT)
            .expect("ingest ticket never completed under chaos")
        {
            Ok(report) => {
                assert_eq!(report.accepted, 2);
                assert!(report.flush.is_some(), "max_dirty(1) flushes every batch");
                applied_batches.push(wave);
            }
            Err(EngineError::Internal { what }) => {
                assert!(what.contains("injected"), "unexpected ingest error: {what}")
            }
            Err(other) => panic!("unexpected ingest error {other:?}"),
        }

        // Every ticket completes — a hang here is an invariant failure,
        // surfaced as a timeout instead of a stuck suite.
        for ticket in tickets {
            let response = ticket
                .wait_timeout(LONG_WAIT)
                .expect("interactive ticket never completed under chaos");
            if response.degradation != Degradation::None {
                degraded_answers += 1;
            }
            match &response.answer {
                Answer::Speech { .. } => {}
                Answer::Internal { what } => {
                    internal_answers += 1;
                    assert!(what.contains("injected fault"), "unexpected panic: {what}");
                }
                Answer::Expired { tenant, .. } => assert_eq!(tenant, "chaos"),
                other => panic!("unexpected chaos answer {other:?}"),
            }
        }
        for ticket in never_expiring {
            let response = ticket
                .wait_timeout(LONG_WAIT)
                .expect("interactive ticket never completed under chaos");
            if response.degradation != Degradation::None {
                degraded_answers += 1;
            }
            match &response.answer {
                Answer::Speech { .. } => {}
                Answer::Internal { what } => {
                    internal_answers += 1;
                    assert!(what.contains("injected fault"), "unexpected panic: {what}");
                }
                other => panic!("unexpected never-expiring answer {other:?}"),
            }
        }
    }
    // Background tickets complete with Ok or a typed error — injected
    // faults on the control lane surface as EngineError::Internal after
    // the bounded retries are exhausted, never as a hang or a panic.
    for ticket in refresh_tickets {
        match ticket
            .wait_timeout(LONG_WAIT)
            .expect("refresh ticket never completed under chaos")
        {
            Ok(report) => assert_eq!(report.removed, 0),
            Err(EngineError::Internal { what }) => {
                assert!(
                    what.contains("injected"),
                    "unexpected refresh error: {what}"
                )
            }
            Err(other) => panic!("unexpected refresh error {other:?}"),
        }
    }
    for ticket in register_tickets {
        match ticket
            .wait_timeout(LONG_WAIT)
            .expect("register ticket never completed under chaos")
        {
            Ok(report) => assert!(report.speeches > 0),
            Err(EngineError::Internal { what }) => {
                assert!(
                    what.contains("injected"),
                    "unexpected register error: {what}"
                )
            }
            Err(other) => panic!("unexpected register error {other:?}"),
        }
    }
    plan.disarm();
    assert!(
        plan.injected() > 0,
        "the plan never fired — not a chaos run"
    );

    // ---- Counters reconcile. ----
    let stats = frontend.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.shed + stats.expired,
        "submitted != completed + shed + expired: {stats:?}"
    );
    assert_eq!(stats.shed, 0, "nothing should shed below capacity");
    assert_eq!(stats.expired, zero_budget_total);
    assert_eq!(stats.degraded, degraded_answers);
    assert_eq!(stats.contained_panics, internal_answers);
    assert_eq!(stats.background_completed, stats.background_submitted);
    assert!(
        stats.retried_background <= 2 * stats.background_submitted,
        "more retries than the per-job bound allows: {stats:?}"
    );
    // The front-end's totals agree with the tenant's own roll-up: all
    // expired and degraded traffic addressed the chaos tenant.
    let service_stats = service.stats();
    let tenant = service_stats
        .tenants
        .iter()
        .find(|t| t.tenant == "chaos")
        .unwrap();
    assert_eq!(tenant.expired_requests, stats.expired);
    assert_eq!(tenant.degraded_answers, stats.degraded);

    // ---- Post-chaos: workers alive, behavior byte-identical. ----
    for (utterance, expected) in PLAIN.iter().zip(&expected_texts) {
        let response = frontend
            .submit(ServiceRequest::new("chaos", *utterance))
            .wait_timeout(LONG_WAIT)
            .expect("post-chaos ticket never completed");
        assert!(response.answer.is_speech(), "worker did not survive chaos");
        assert_eq!(response.degradation, Degradation::None);
        assert_eq!(response.text(), expected, "answer drifted after chaos");
    }
    // Refreshes were fail-atomic no-ops either way: the store holds
    // exactly the bytes of the fault-free run.
    let store = service.tenant_store("chaos").unwrap();
    assert_eq!(
        store.snapshot(),
        expected_store,
        "store drifted under chaos"
    );

    // ---- Streaming tenant: counters reconcile, log converges. ----
    assert_eq!(stats.ingest_submitted, WAVES as u64);
    assert_eq!(stats.ingest_deltas, 2 * WAVES as u64);
    let flush = service.drain_ingest("stream").unwrap();
    assert_eq!(flush.deltas, 0, "every accepted batch already flushed");
    let final_stats = service.stats();
    let stream = final_stats
        .tenants
        .iter()
        .find(|t| t.tenant == "stream")
        .unwrap();
    assert_eq!(
        stream.deltas_applied,
        2 * applied_batches.len() as u64,
        "applied deltas disagree with the surviving tickets"
    );
    assert_eq!(stream.ingest_lag, 0);

    // Convergence under chaos: the store equals a cold pre-processing
    // of the table built from exactly the batches whose tickets
    // returned Ok, in submission order.
    let mut rows: Vec<Vec<Value>> = dataset("stream", STREAM_SEED).table.iter_rows().collect();
    for &wave in &applied_batches {
        for delta in stream_batch(wave) {
            match delta {
                RowDelta::Insert(values) => rows.push(values),
                RowDelta::Update { row, values } => rows[row] = values,
                RowDelta::Delete { row } => {
                    rows.remove(row);
                }
            }
        }
    }
    let base = dataset("stream", STREAM_SEED);
    let expected = GeneratedDataset {
        name: base.name.clone(),
        table: Table::from_rows(base.table.schema().clone(), rows).unwrap(),
        dims: base.dims.clone(),
        targets: base.targets.clone(),
    };
    let cold = ServiceBuilder::new().workers(2).build();
    cold.register_dataset(TenantSpec::new("stream", expected, config("stream")))
        .unwrap();
    assert_eq!(
        service.tenant_store("stream").unwrap().snapshot(),
        cold.tenant_store("stream").unwrap().snapshot(),
        "streaming tenant did not converge under chaos"
    );
    frontend.shutdown();
}

/// The acceptance check for the degradation ladder: a deadline-carrying
/// request whose budgeted live solve is forced to time out must come
/// back as a *greedy-degraded speech* — tier stamped — not an apology,
/// while the same request with no budget left degrades to the stored
/// generalization and a deadline-free request keeps the exact pre-PR
/// behavior.
#[test]
fn deadline_pressured_request_degrades_to_greedy_not_apology() {
    use vqs_core::prelude::ExactSummarizer;
    let plan =
        Arc::new(FaultPlan::new(1).rule_every(FaultSite::RespondSolve, Fault::SolverTimeout, 1));
    let service = ServiceBuilder::new()
        .workers(1)
        .summarizer(ExactSummarizer::paper())
        .fault_plan(Arc::clone(&plan))
        .build();
    build_tenant(&service);

    // Deadline-free baseline: the evicted combination generalizes (one
    // predicate kept), full quality — byte-for-byte the pre-deadline
    // behavior.
    let request = ServiceRequest::new("chaos", "delay in Winter in the East?");
    let response = service.respond(&request);
    assert_eq!(response.degradation, Degradation::None);
    match &response.answer {
        Answer::Speech {
            kept_predicates, ..
        } => assert_eq!(*kept_predicates, Some(1)),
        other => panic!("expected generalized speech, got {other:?}"),
    }

    // With budget and no faults: the live exact solve answers the full
    // two-predicate query at full quality.
    let response = service.respond(&request.clone().with_budget(Duration::from_secs(60)));
    assert_eq!(response.degradation, Degradation::None);
    match &response.answer {
        Answer::Speech {
            kept_predicates, ..
        } => assert_eq!(*kept_predicates, None, "live solve answers exactly"),
        other => panic!("expected live-solved speech, got {other:?}"),
    }

    // Deadline pressure: the armed plan forces the budgeted exact solve
    // to time out mid-request. The answer steps down to a greedy-built
    // speech for the *exact* query — stamped Greedy — instead of
    // apologizing.
    plan.arm();
    let response = service.respond(&request.clone().with_budget(Duration::from_secs(60)));
    plan.disarm();
    assert_eq!(response.degradation, Degradation::Greedy);
    match &response.answer {
        Answer::Speech {
            kept_predicates, ..
        } => assert_eq!(*kept_predicates, None, "greedy still answers exactly"),
        other => panic!("expected a degraded speech, not an apology: {other:?}"),
    }

    // No budget at all: nothing is computed; the stored generalization
    // is served and stamped StoreOnly.
    let response = service.respond(&request.clone().with_budget(Duration::ZERO));
    assert_eq!(response.degradation, Degradation::StoreOnly);
    match &response.answer {
        Answer::Speech {
            kept_predicates, ..
        } => assert_eq!(*kept_predicates, Some(1)),
        other => panic!("expected the stored generalization, got {other:?}"),
    }

    // The tenant's counters saw the two degraded answers.
    let stats = service.stats();
    let tenant = stats.tenants.iter().find(|t| t.tenant == "chaos").unwrap();
    assert_eq!(tenant.degraded_answers, 2);
}

/// The accounting invariant under *sustained* open-loop overload
/// (ISSUE 10): an offered rate far past a deliberately slowed
/// one-worker front-end, driven by the coordinated-omission-safe load
/// generator. Every submission must land in exactly one of
/// completed/shed/expired — under queue-full shedding and in-queue
/// expiry at once — and the generator's own per-ticket classification
/// must agree with the front-end's counters.
#[test]
fn overload_accounting_reconciles_under_open_loop_load() {
    use vqs_bench::loadgen::{self, Arrival, LoadPlan, Schedule};

    let seed = chaos_seed();
    // Every respond sleeps 5ms: a ~200 req/s worker offered 3000 req/s.
    let plan = Arc::new(FaultPlan::new(seed).rule_every(
        FaultSite::Respond,
        Fault::Latency(Duration::from_millis(5)),
        1,
    ));
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .fault_plan(Arc::clone(&plan))
            .build(),
    );
    build_tenant(&service);
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(1)
        .queue_capacity(32)
        .build();
    plan.arm();

    // Two deadline-free prototypes plus one whose fixed deadline falls
    // ~150ms into the run: cycled clones submitted after that instant
    // expire in the backed-up queue rather than being computed.
    let stale_deadline = std::time::Instant::now() + Duration::from_millis(150);
    let requests = vec![
        ServiceRequest::new("chaos", "delay in Winter?"),
        ServiceRequest::new("chaos", "delay in Summer?"),
        ServiceRequest::new("chaos", "delay in the West?").with_deadline(stale_deadline),
    ];
    let load_plan = LoadPlan::respond_only(
        Schedule::new(Arrival::Constant { rate: 3000.0 }, 600, seed),
        requests,
        seed,
    );
    let report = loadgen::run(&frontend, &load_plan);
    plan.disarm();

    // The generator accounted every submission exactly once...
    assert_eq!(report.responds, 600);
    assert_eq!(
        report.answered + report.shed + report.expired + report.internal,
        600,
        "loadgen lost a ticket: {report:?}"
    );
    // ...the overload genuinely bit on both rungs...
    assert!(
        report.shed > 0,
        "no sheds — not an overload run: {report:?}"
    );
    assert!(
        report.expired > 0,
        "no expiries — stale deadlines never queued: {report:?}"
    );
    assert!(report.answered > 0, "the worker starved entirely");

    // ...and the front-end's own counters reconcile and agree with the
    // generator's per-ticket classification.
    let stats = frontend.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.shed + stats.expired,
        "submitted != completed + shed + expired: {stats:?}"
    );
    assert_eq!(stats.submitted, 600);
    assert_eq!(stats.shed, report.shed);
    assert_eq!(stats.expired, report.expired);
    assert_eq!(stats.contained_panics, report.internal);

    // Post-overload the worker still serves cleanly.
    let response = frontend
        .submit(ServiceRequest::new("chaos", "delay in Winter?"))
        .wait_timeout(LONG_WAIT)
        .expect("post-overload ticket never completed");
    assert!(response.answer.is_speech(), "worker did not recover");
    frontend.shutdown();
}
