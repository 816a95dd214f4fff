//! Serving front-end behavior under load: deterministic shedding at the
//! admission cap, per-tenant fairness under a hot-tenant flood, serving
//! (live plans included) that never waits on the control lane or the
//! solver pool, the flush tick on the control thread, and graceful
//! shutdown.
//!
//! The deterministic tests hold threads on *gates* — a summarizer that
//! parks solves (a registration or flush holds the control thread), a
//! background task that holds the control thread, or a latency fault at
//! the respond site that holds a serving worker until its plan is
//! disarmed — and wait until the gate counts the entry, so queue states
//! are exact, not timing-dependent.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vqs_core::prelude::{GreedySummarizer, Problem, Summarizer, Summary};
use vqs_data::{DimSpec, GeneratedDataset, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;
use vqs_relalg::prelude::{Table, Value};

const LONG_WAIT: Duration = Duration::from_secs(60);

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

/// A close/open gate; the thread that runs whatever closure waits on it
/// parks there, giving tests exact control over queue states.
struct TestGate {
    closed: Mutex<bool>,
    released: Condvar,
    entered: AtomicUsize,
}

impl TestGate {
    fn new() -> Arc<TestGate> {
        Arc::new(TestGate {
            closed: Mutex::new(true),
            released: Condvar::new(),
            entered: AtomicUsize::new(0),
        })
    }

    /// Block until the gate opens (counting the entry).
    fn pass(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            closed = self.released.wait(closed).unwrap();
        }
    }

    /// Open the gate, releasing every parked passer.
    fn open(&self) {
        *self.closed.lock().unwrap() = false;
        self.released.notify_all();
    }

    /// Close the gate again: the next solve or passer parks.
    fn close(&self) {
        *self.closed.lock().unwrap() = true;
    }

    /// Spin until `n` passers are parked inside.
    fn await_entered(&self, n: usize) {
        while self.entered.load(Ordering::SeqCst) < n {
            std::thread::yield_now();
        }
    }
}

/// Opens its gate when dropped, so a failing assert releases the parked
/// thread instead of hanging in `FrontEnd::drop`. Declare it after the
/// front-end: locals drop in reverse order.
struct OpenOnDrop(Arc<TestGate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A summarizer whose solves park on a gate while it is closed — makes
/// "a solve is running right now" an exact, held state instead of a
/// race.
struct GatedSummarizer {
    inner: GreedySummarizer,
    gate: Arc<TestGate>,
}

impl Summarizer for GatedSummarizer {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn summarize(&self, problem: &Problem<'_>) -> vqs_core::prelude::Result<Summary> {
        if *self.gate.closed.lock().unwrap() {
            self.gate.pass();
        }
        self.inner.summarize(problem)
    }
}

/// The test tenant `name` with its fixed seed.
fn tenant(name: &str) -> TenantSpec {
    TenantSpec::new(name, dataset(name, 7), config(name))
}

/// A service over `gate`'s summarizer with `tenants` registered while
/// the gate is open; the gate is closed again on return.
fn gated_service(
    gate: &Arc<TestGate>,
    tenants: impl IntoIterator<Item = TenantSpec>,
) -> Arc<VoiceService> {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .summarizer(GatedSummarizer {
                inner: GreedySummarizer::with_optimized_pruning(),
                gate: Arc::clone(gate),
            })
            .build(),
    );
    gate.open();
    for spec in tenants {
        service.register_dataset(spec).unwrap();
    }
    gate.close();
    service
}

/// Answer a live-plan question through `frontend` within [`LONG_WAIT`]
/// and check that the live tier computed it.
fn assert_live_plan_answered(frontend: &FrontEnd, tenant: &str) {
    let response = frontend
        .submit(ServiceRequest::new(tenant, "how many delays in Winter"))
        .wait_timeout(LONG_WAIT)
        .expect("live plan answered while the pool's worker is held");
    assert!(
        matches!(response.answer, Answer::Computed { .. }),
        "expected a computed answer, got {:?}",
        response.answer
    );
}

/// A service with `tenants` registered, whose responds each sleep
/// [`LONG_WAIT`] while its fault plan (returned, disarmed) is armed.
fn held_service(
    tenants: impl IntoIterator<Item = TenantSpec>,
) -> (Arc<VoiceService>, Arc<FaultPlan>) {
    let plan =
        Arc::new(FaultPlan::new(1).rule_every(FaultSite::Respond, Fault::Latency(LONG_WAIT), 1));
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .fault_plan(Arc::clone(&plan))
            .build(),
    );
    for spec in tenants {
        service.register_dataset(spec).unwrap();
    }
    (service, plan)
}

/// Disarms the plan when dropped, so a failing assert releases the held
/// worker instead of hanging in `FrontEnd::drop`. Declare it after the
/// front-end: locals drop in reverse order.
struct DisarmOnDrop(Arc<FaultPlan>);

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        self.0.disarm();
    }
}

/// Hold the front-end's (only) serving worker inside a respond to
/// `tenant`, on a service from [`held_service`]: arm the plan, and
/// return the held request's ticket once its latency fault was drawn.
/// Disarming the plan releases the worker.
fn park_serving_worker(frontend: &FrontEnd, plan: &FaultPlan, tenant: &str) -> ResponseTicket {
    plan.arm();
    let parked = frontend.submit(ServiceRequest::new(tenant, "delay in Winter in the East?"));
    while plan.injected() == 0 {
        std::thread::yield_now();
    }
    parked
}

#[test]
fn overload_sheds_deterministically_at_the_cap() {
    let (service, plan) = held_service([tenant("svc")]);
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(1)
        .queue_capacity(3)
        .build();
    let _disarm = DisarmOnDrop(Arc::clone(&plan));
    let parked = park_serving_worker(&frontend, &plan, "svc");

    // Exactly `queue_capacity` requests are admitted...
    let admitted: Vec<ResponseTicket> = (0..3)
        .map(|_| frontend.submit(ServiceRequest::new("svc", "delay in Winter?")))
        .collect();
    for ticket in &admitted {
        assert!(!ticket.is_ready(), "admitted request served while held");
    }
    // ...and request capacity+1 is shed immediately, with the explicit
    // typed overload answer.
    let shed = frontend.submit(ServiceRequest::new("svc", "delay in Winter?"));
    assert!(shed.is_ready(), "shed ticket must complete immediately");
    let response = shed.wait();
    assert!(matches!(
        response.answer,
        Answer::Overloaded { ref tenant } if tenant == "svc"
    ));
    assert!(response.text().contains("too many requests"));

    // The parked request counts once in `submitted` (and later in
    // `completed`); it left the queue before the others arrived.
    let stats = frontend.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.peak_queued, 3);
    assert_eq!(stats.shed_by_tenant, vec![("svc".to_string(), 1)]);

    // Disarming the plan drains the admitted requests — none were lost.
    plan.disarm();
    assert!(parked.wait_timeout(LONG_WAIT).unwrap().answer.is_speech());
    for ticket in admitted {
        assert!(ticket.wait_timeout(LONG_WAIT).unwrap().answer.is_speech());
    }
    assert_eq!(frontend.stats().completed, 4);
}

#[test]
fn hot_tenant_flood_cannot_starve_other_tenants() {
    let (service, plan) = held_service([tenant("hot"), tenant("cold")]);
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(1)
        .queue_capacity(16)
        .tenant_share(2)
        .build();
    let _disarm = DisarmOnDrop(Arc::clone(&plan));
    // The parked request left the hot lane, so the tenant's full share
    // is still free below.
    let parked = park_serving_worker(&frontend, &plan, "hot");

    // The hot tenant floods: only its fair share is admitted, the rest
    // is shed even though the global queue has plenty of headroom.
    let hot: Vec<ResponseTicket> = (0..6)
        .map(|_| frontend.submit(ServiceRequest::new("hot", "delay in Winter?")))
        .collect();
    let hot_shed = hot.iter().filter(|t| t.is_ready()).count();
    assert_eq!(hot_shed, 4, "flood past the tenant share sheds");

    // The cold tenant still gets in behind the flood.
    let cold: Vec<ResponseTicket> = (0..2)
        .map(|_| frontend.submit(ServiceRequest::new("cold", "delay in Summer?")))
        .collect();
    assert!(
        cold.iter().all(|t| !t.is_ready()),
        "cold tenant must be admitted despite the hot flood"
    );

    plan.disarm();
    assert!(parked.wait_timeout(LONG_WAIT).unwrap().answer.is_speech());
    for ticket in &cold {
        assert!(ticket.wait_timeout(LONG_WAIT).unwrap().answer.is_speech());
    }
    let mut answers = 0;
    for ticket in &hot {
        let response = ticket.wait_timeout(LONG_WAIT).unwrap();
        if response.answer.is_speech() {
            answers += 1;
        } else {
            assert!(matches!(response.answer, Answer::Overloaded { .. }));
        }
    }
    assert_eq!(answers, 2, "the admitted share of the flood is served");
    let stats = frontend.stats();
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.shed_by_tenant, vec![("hot".to_string(), 4)]);
}

#[test]
fn a_held_registration_cannot_delay_concurrent_responds() {
    let gate = TestGate::new();
    let service = gated_service(&gate, [tenant("live")]);

    // The gate is closed: the background registration submitted next
    // parks inside the solver.
    let before = gate.entered.load(Ordering::SeqCst);
    let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
    let _open = OpenOnDrop(Arc::clone(&gate));
    let register =
        frontend.submit_register(TenantSpec::new("bulk", dataset("bulk", 5), config("bulk")));
    gate.await_entered(before + 1);

    // While the registration is provably still held, interactive
    // traffic flows through the only serving worker: store hits, and a
    // live plan although the registration holds the pool's only worker.
    for _ in 0..5 {
        let ticket = frontend.submit(ServiceRequest::new("live", "delay in Winter?"));
        let response = ticket.wait_timeout(LONG_WAIT).expect("respond served");
        assert!(response.answer.is_speech());
    }
    assert_live_plan_answered(&frontend, "live");
    assert!(
        !register.is_ready(),
        "the registration is still gated, yet responds completed"
    );

    gate.open();
    let report = register.wait_timeout(LONG_WAIT).unwrap().unwrap();
    assert!(report.speeches > 0);
    assert!(frontend
        .submit(ServiceRequest::new("bulk", "delay in Winter?"))
        .wait()
        .answer
        .is_speech());
}

#[test]
fn a_held_flush_cannot_delay_responds() {
    let gate = TestGate::new();
    let mut data = dataset("live", 7);
    let service = gated_service(
        &gate,
        [TenantSpec::new("live", data.clone(), config("live"))
            .ingest(IngestBuilder::new().max_dirty(1))],
    );
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(1)
        .no_flush_tick()
        .build();
    let _open = OpenOnDrop(Arc::clone(&gate));

    // One dimension flip: with `max_dirty(1)` the call that accepts it
    // flushes inline, and the flush's first re-solve parks in the gate.
    let mut row = data.table.iter_rows().next().expect("a row");
    row[0] = Value::str(if row[0].as_str() == Some("Winter") {
        "Summer"
    } else {
        "Winter"
    });
    let before = gate.entered.load(Ordering::SeqCst);
    let ingest = frontend.submit_ingest(
        "live",
        vec![RowDelta::Update {
            row: 0,
            values: row.clone(),
        }],
    );
    gate.await_entered(before + 1);

    // While the flush is provably still held, the only serving worker
    // answers from the store, and runs a live plan although the flush
    // holds the pool's only worker.
    for _ in 0..5 {
        let response = frontend
            .submit(ServiceRequest::new("live", "delay in Winter?"))
            .wait_timeout(LONG_WAIT)
            .expect("respond served while the flush is held");
        assert!(response.answer.is_speech());
    }
    assert_live_plan_answered(&frontend, "live");
    assert!(
        !ingest.is_ready(),
        "the flush is still gated, yet responds completed"
    );

    gate.open();
    let report = ingest
        .wait_timeout(LONG_WAIT)
        .unwrap()
        .expect("the batch is accepted");
    assert!(report.flush.is_some(), "the batch flushes inline");
    service.drain_ingest("live").unwrap();

    // The drained store equals a cold registration of the updated table.
    let mut rows: Vec<Vec<Value>> = data.table.iter_rows().collect();
    rows[0] = row;
    data.table = Table::from_rows(data.table.schema().clone(), rows).unwrap();
    let cold = ServiceBuilder::new().workers(1).build();
    cold.register_dataset(TenantSpec::new("live", data, config("live")))
        .unwrap();
    assert_eq!(
        service.tenant_store("live").unwrap().snapshot(),
        cold.tenant_store("live").unwrap().snapshot()
    );
}

/// Hold the control thread on `gate` with a background task; returns
/// once the thread is provably in the gate.
fn park_control_thread(frontend: &FrontEnd, gate: &Arc<TestGate>) -> TaskTicket {
    let passer = Arc::clone(gate);
    let before = gate.entered.load(Ordering::SeqCst);
    let ticket = frontend
        .submit_task(move |_| passer.pass())
        .expect("gate task admitted");
    gate.await_entered(before + 1);
    ticket
}

/// A live plan runs on the thread that answers, so a respond issued from
/// inside a pool job completes even when that job holds the pool's only
/// worker.
#[test]
fn a_live_plan_respond_inside_a_pool_job_completes() {
    let service = Arc::new(ServiceBuilder::new().workers(1).build());
    service.register_dataset(tenant("svc")).unwrap();
    let (done, answered) = mpsc::channel();
    // On its own thread, so a deadlock fails the test instead of
    // hanging it.
    let asker = std::thread::spawn(move || {
        let answers = service.solver_pool().scatter(1, |_| {
            service
                .respond(&ServiceRequest::new("svc", "how many delays in Winter"))
                .answer
        });
        let _ = done.send(answers);
    });
    let answers = answered
        .recv_timeout(LONG_WAIT)
        .expect("a live-plan respond inside a pool job deadlocked");
    asker.join().expect("the asking thread finished");
    assert!(
        matches!(answers[..], [Answer::Computed { .. }]),
        "expected one computed answer, got {answers:?}"
    );
}

/// The flush tick runs on the control thread: while a control job holds
/// that thread no tick flushes a silent tenant, and once it is free the
/// tick drains the tenant within two intervals.
#[test]
fn the_flush_tick_runs_on_the_control_thread() {
    let interval = Duration::from_millis(100);
    let service = Arc::new(ServiceBuilder::new().workers(1).build());
    service
        .register_dataset(tenant("svc").ingest(IngestBuilder::new().flush_interval(interval)))
        .unwrap();
    let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
    let gate = TestGate::new();
    let _open = OpenOnDrop(Arc::clone(&gate));
    let parked = park_control_thread(&frontend, &gate);

    // One lone delta straight into the service: inside the debounce
    // window, so the accepting call coalesces instead of flushing.
    let row = dataset("svc", 7).table.iter_rows().next().expect("a row");
    let report = service
        .ingest("svc", &[RowDelta::Insert(row)])
        .expect("the delta is accepted");
    assert!(report.flush.is_none(), "lone delta must debounce");
    let lag = || {
        service
            .stats()
            .tenants
            .iter()
            .find(|t| t.tenant == "svc")
            .expect("tenant registered")
            .ingest_lag
    };

    // The control thread is held: no tick runs, so the delta stays
    // pending well past its interval.
    std::thread::sleep(4 * interval);
    assert_eq!(lag(), 1, "a tick flushed while the control thread was held");
    assert_eq!(frontend.stats().background_flushes, 0);

    // Freed, the control thread's tick drains the tenant within two
    // intervals.
    gate.open();
    parked.wait_timeout(LONG_WAIT).expect("gate task completes");
    let deadline = Instant::now() + 2 * interval;
    while lag() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(lag(), 0, "tenant not flushed within 2x flush_interval");
    assert!(frontend.stats().background_flushes >= 1);
}

#[test]
fn interactive_lane_drains_before_queued_background_work() {
    let service = Arc::new(ServiceBuilder::new().workers(1).build());
    service.register_dataset(tenant("svc")).unwrap();
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(1)
        .queue_capacity(16)
        .build();
    let gate = TestGate::new();
    let _open = OpenOnDrop(Arc::clone(&gate));
    let gate_ticket = park_control_thread(&frontend, &gate);

    // Queue background work FIRST — a refresh, then a probe task that
    // records whether the refresh had completed when the probe ran —
    // and interactive requests after it. With the control thread held,
    // the only serving worker answers every interactive request while
    // both control jobs are still queued.
    let refresh = frontend.submit_refresh("svc", dataset("svc", 7), vec![0, 1, 2]);
    let refresh_ran_first = Arc::new(AtomicBool::new(false));
    let probe = {
        let refresh = refresh.clone();
        let flag = Arc::clone(&refresh_ran_first);
        frontend
            .submit_task(move |_| flag.store(refresh.is_ready(), Ordering::SeqCst))
            .unwrap()
    };
    let responds: Vec<ResponseTicket> = (0..4)
        .map(|_| frontend.submit(ServiceRequest::new("svc", "delay in Winter?")))
        .collect();
    for ticket in &responds {
        let response = ticket
            .wait_timeout(LONG_WAIT)
            .expect("respond served while the control thread is held");
        assert!(response.answer.is_speech());
    }
    assert!(!gate_ticket.is_ready());
    assert_eq!(frontend.queue_depths(), (0, 2));

    // The control lane runs FIFO: the refresh, then the probe.
    gate.open();
    probe.wait_timeout(LONG_WAIT).unwrap();
    assert!(
        refresh_ran_first.load(Ordering::SeqCst),
        "the control lane must run its jobs in submission order"
    );
    assert!(refresh.wait().is_ok());
}

#[test]
fn shutdown_drains_all_admitted_work_and_joins_clean() {
    let service = Arc::new(ServiceBuilder::new().workers(1).build());
    service
        .register_dataset(TenantSpec::new("svc", dataset("svc", 7), config("svc")))
        .unwrap();
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(2)
        .queue_capacity(256)
        .build();

    let responds: Vec<ResponseTicket> = (0..40)
        .map(|_| frontend.submit(ServiceRequest::new("svc", "delay in Winter?")))
        .collect();
    let refresh = frontend.submit_refresh("svc", dataset("svc", 7), vec![0]);
    let register =
        frontend.submit_register(TenantSpec::new("late", dataset("late", 9), config("late")));
    // Shutdown returns only after every admitted request completed and
    // the workers joined.
    frontend.shutdown();

    for ticket in responds {
        assert!(ticket.is_ready(), "interactive ticket lost in shutdown");
        assert!(ticket.wait().answer.is_speech());
    }
    assert!(refresh.is_ready(), "refresh ticket lost in shutdown");
    assert!(refresh.wait().is_ok());
    assert!(register.is_ready(), "register ticket lost in shutdown");
    assert!(register.wait().is_ok());
    // The service itself outlives the front-end.
    assert!(service
        .respond(&ServiceRequest::new("late", "delay in Winter?"))
        .answer
        .is_speech());
}

#[test]
fn frontend_and_sessions_share_tenant_accounting() {
    let service = Arc::new(ServiceBuilder::new().workers(1).build());
    service
        .register_dataset(TenantSpec::new("svc", dataset("svc", 7), config("svc")))
        .unwrap();
    let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();

    // Conversation traffic (sessions, counted per tenant) and queued
    // stateless traffic land in the same tenant roll-up.
    let mut session = service.session("svc").unwrap();
    let spoken = session.answer("delay in Winter?");
    assert_eq!(spoken.session, Some(session.id()));
    let queued = frontend
        .submit(ServiceRequest::new("svc", "delay in Summer?"))
        .wait();
    assert_eq!(queued.session, None);

    let stats = service.stats();
    let tenant = &stats.tenants[0];
    assert_eq!(tenant.sessions_opened, 1);
    assert_eq!(tenant.requests, 2);
    assert_eq!(tenant.speech_answers, 2);
}
