//! Scale-realism sweep: how far the reproduction actually carries
//! toward the paper's deployment claim ("millions of users", ROADMAP
//! item 2), measured honestly and committed as `BENCH_scale.json`.
//!
//! Six sections:
//!
//! * `smoke_baseline` — a cheap fixed workload (flights @ 0.02 scale:
//!   preprocess, ingest drain, a short open-loop load run). Always
//!   computed; CI re-runs it with `--smoke` and `ci/check_scale.py`
//!   compares against the committed values (1.5× wall-time gate,
//!   exact-match probe counts and store bytes after registration, and a
//!   1.5× gate on the `wide_probes` lookup time at 16 and 20
//!   predicates).
//! * `wide_probes` — store probe counts and lookup latency as the query
//!   predicate count grows far past the longest stored query: the
//!   generalization walk stops at the stored query length, so its cost
//!   grows polynomially in the predicate count. Probe counts are
//!   deterministic; always computed.
//! * `overload` — constant arrivals far above one serving worker's
//!   rate into a 32-deep admission queue: the shed rate and the peak
//!   queue depth, which must stay within the cap. Always computed.
//! * `live_plans` — one tenant answered from the store tier and from
//!   live relational plans, one open-loop run per tier at the same
//!   rate. Always computed.
//! * `scenarios` — the four paper data sets at scale ∈ {0.02, 0.25,
//!   1.0}: preprocess wall time with its serial plan time
//!   ([`PreprocessReport::plan_time`]) and summed solver time, store
//!   footprint
//!   ([`StoreStats::approx_bytes`]), and an open-loop Poisson load run
//!   whose percentiles are measured from the *intended* send time
//!   (coordinated-omission-safe; see `vqs_bench::loadgen`).
//! * `synthetic` — the `ScaleTenant` at ≥ 1M rows (10M with `--deep`):
//!   generation + preprocess wall time (plan and solver time as for the
//!   scenarios), store bytes, ingest flush cost
//!   via a timed drain, and a mixed respond+ingest open-loop run.
//!
//! Every load run is open-loop (`loadgen::run`). The binary asserts
//! the invariants its sections rely on — every tenant registered with
//! a full store hits a stored speech for ≥ 90% of its supported
//! utterances, front-end counters reconcile with the load reports, and
//! each `live_plans` pool is answered by its own tier — so the CI smoke
//! run checks them.
//!
//! The numbers are recorded as measured — including the parts that
//! break down at scale; BENCHMARKS.md interprets the trajectory.
//!
//! Usage: `bench_scale [--out PATH] [--smoke] [--deep] [--rows N]
//! [--requests N] [--rate R] [--workers W]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use vqs_bench::loadgen::{self, Arrival, LoadPlan, LoadReport, MixWeights, Schedule};
use vqs_bench::{scenario_dataset, single_target_config, RunConfig};
use vqs_data::{
    scale_tenant_spec, wide_probe_spec, DimSpec, GeneratedDataset, SynthSpec, TargetSpec,
};
use vqs_engine::prelude::*;
use vqs_relalg::prelude::Value;

/// Seed for load-plan schedules and mix draws (distinct from the data
/// seed so the two can vary independently).
const LOAD_SEED: u64 = 0x5CA1E;
/// In-deadline budget for classifying open-loop respond completions,
/// measured from the intended send instant.
const DEADLINE_BUDGET: Duration = Duration::from_millis(50);

/// Admission cap of the `overload` section's front-end.
const OVERLOAD_QUEUE: usize = 32;
/// Offered rate of the `overload` section: more than the generator can
/// send (its lag is recorded), and still far more than one serving
/// worker answers, so the queue overflows within milliseconds.
const OVERLOAD_RATE: f64 = 500_000.0;
/// Requests of the `overload` run.
const OVERLOAD_REQUESTS: usize = 4_000;

/// Dimension values and row count of the `live_plans` fixture.
const SEASONS: [&str; 4] = ["Winter", "Spring", "Summer", "Fall"];
const REGIONS: [&str; 3] = ["East", "West", "North"];
const LIVE_PLAN_ROWS: usize = 240;

struct ScenarioEntry {
    scenario: String,
    target: String,
    scale: f64,
    rows: usize,
    queries: usize,
    speeches: usize,
    preprocess_ms: f64,
    plan_ms: f64,
    solver_ms: f64,
    store_bytes: u64,
    load: LoadReport,
}

struct ProbeEntry {
    predicates: usize,
    probes_per_lookup: u64,
    lookup_nanos: u64,
}

struct SyntheticEntry {
    rows: usize,
    load_mix: &'static str,
    generate_ms: f64,
    preprocess_ms: f64,
    plan_ms: f64,
    solver_ms: f64,
    queries: usize,
    speeches: usize,
    store_bytes: u64,
    ingest_deltas: usize,
    ingest_flush_ms: f64,
    load: LoadReport,
    load_ingests: u64,
}

struct SmokeBaseline {
    preprocess_ms: f64,
    store_bytes: u64,
    ingest_deltas: usize,
    ingest_flush_ms: f64,
    wide_probe_16: u64,
    wide_probe_20: u64,
    load: LoadReport,
}

struct OverloadEntry {
    peak_queued: u64,
    load: LoadReport,
}

struct LivePlansEntry {
    rate: f64,
    store_tier: LoadReport,
    live_tier: LoadReport,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut smoke = false;
    let mut deep = false;
    let mut rows = 1_000_000usize;
    let mut requests = 400usize;
    let mut rate = 800.0f64;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                })
                .to_string()
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")),
            "--smoke" => smoke = true,
            "--deep" => deep = true,
            "--rows" => rows = value("--rows").parse().expect("numeric count"),
            "--requests" => requests = value("--requests").parse().expect("numeric count"),
            "--rate" => rate = value("--rate").parse().expect("numeric rate"),
            "--workers" => workers = value("--workers").parse().expect("numeric count"),
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    eprintln!("bench_scale: smoke baseline");
    let baseline = smoke_baseline(workers, requests.min(240), rate.min(600.0));
    eprintln!("bench_scale: wide-probe sweep");
    let probes = wide_probe_sweep(workers);
    eprintln!("bench_scale: overload");
    let overload = overload(workers);
    eprintln!("bench_scale: live plans");
    let live_plans = live_plans(workers, requests.min(240), rate.min(600.0));

    let mut scenarios: Vec<ScenarioEntry> = Vec::new();
    let mut synthetic: Vec<SyntheticEntry> = Vec::new();
    if !smoke {
        for scale in [0.02, 0.25, 1.0] {
            for (letter, tenant, target) in [
                ('F', "flights", "delay"),
                ('A', "acs", "hearing"),
                ('S', "stackoverflow", "competence"),
                ('P', "primaries", "support"),
            ] {
                eprintln!("bench_scale: scenario {tenant} @ scale {scale}");
                scenarios.push(run_scenario(
                    letter, tenant, target, scale, workers, requests, rate,
                ));
            }
        }
        let mut row_points = vec![(rows, true)];
        if deep {
            // The 10x point drops the ingest share from the load mix:
            // flush cost grows linearly with rows (~2 s for 512 deltas
            // at 1M on one worker, see BENCHMARKS.md), so at 10M every
            // ingest batch would hold the control thread for tens of
            // seconds and the run would mostly wait on flushes.
            // Respond-only load decomposes the break instead: lookup
            // latency stays row-count-independent while the recorded
            // flush cost grows with rows.
            row_points.push((rows * 10, false));
        }
        for (rows, mixed) in row_points {
            eprintln!("bench_scale: synthetic tenant @ {rows} rows");
            synthetic.push(run_synthetic(rows, workers, requests, rate, mixed));
        }
    }

    let json = render_json(
        smoke,
        workers,
        requests,
        rate,
        &baseline,
        &probes,
        &overload,
        &live_plans,
        &scenarios,
        &synthetic,
    );
    match out {
        Some(path) => {
            std::fs::write(&path, &json).expect("write BENCH_scale.json");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// Open-loop Poisson respond plan over a tenant's supported-query log.
fn respond_plan(tenant: &str, texts: &[String], requests: usize, rate: f64) -> LoadPlan {
    let prototypes: Vec<ServiceRequest> = texts
        .iter()
        .map(|text| ServiceRequest::new(tenant, text))
        .collect();
    let mut plan = LoadPlan::respond_only(
        Schedule::new(Arrival::Poisson { rate }, requests, LOAD_SEED),
        prototypes,
        LOAD_SEED,
    );
    plan.deadline_budget = Some(DEADLINE_BUDGET);
    plan
}

/// Paper scenario `letter` at `scale`, restricted to `target`: its data,
/// its engine configuration and its supported utterances.
fn scenario(
    letter: char,
    target: &str,
    scale: f64,
) -> (GeneratedDataset, Configuration, Vec<String>) {
    let config = RunConfig {
        scale,
        ..Default::default()
    };
    let dataset = scenario_dataset(letter, &config);
    let engine_config = single_target_config(&dataset, target);
    let texts = supported_texts(&dataset, &engine_config, target);
    (dataset, engine_config, texts)
}

/// Supported utterances for a registered tenant, derived from the
/// target's relation.
fn supported_texts(
    dataset: &GeneratedDataset,
    config: &Configuration,
    target: &str,
) -> Vec<String> {
    let relation = target_relation(dataset, config, target).expect("known target");
    let mix = RequestMix {
        name: "scale",
        help: 0,
        repeat: 0,
        s_query: 64,
        u_query: 0,
        other: 0,
    };
    generate_log(&relation, &target.replace('_', " "), &mix, LOAD_SEED)
        .into_iter()
        .map(|entry| entry.text)
        .collect()
}

/// Dimension-flip update deltas against the first `count` rows (the
/// same shape the streaming bench applies, cheap to re-solve). The
/// dimension's value universe is read off the column itself.
fn update_deltas(dataset: &GeneratedDataset, dim_index: usize, count: usize) -> Vec<RowDelta> {
    let column = dataset
        .table
        .column_by_name(&dataset.dims[dim_index])
        .expect("known dimension");
    let mut values: Vec<String> = Vec::new();
    for row in 0..dataset.table.len() {
        let value = column.value(row).to_string();
        if !values.contains(&value) {
            values.push(value);
            if values.len() >= 2 {
                break;
            }
        }
    }
    let mut deltas = Vec::with_capacity(count);
    for (row, mut row_values) in dataset.table.iter_rows().take(count).enumerate() {
        let current = row_values[dim_index]
            .as_str()
            .expect("dimension is a string");
        let next = values
            .iter()
            .find(|v| v.as_str() != current)
            .expect("two distinct values");
        row_values[dim_index] = Value::str(next);
        deltas.push(RowDelta::Update {
            row,
            values: row_values,
        });
    }
    deltas
}

/// Ingest batches for `loadgen` to cycle round-robin: the first `count`
/// rows flipped on `dim_index`, then the same rows restored to their
/// generated values. One cycled batch would change data only the first
/// time it lands; alternating the pair makes every batch a change.
fn flip_and_restore(
    tenant: &str,
    dataset: &GeneratedDataset,
    dim_index: usize,
    count: usize,
) -> Vec<(String, Vec<RowDelta>)> {
    let restore = dataset
        .table
        .iter_rows()
        .take(count)
        .enumerate()
        .map(|(row, values)| RowDelta::Update { row, values })
        .collect();
    vec![
        (tenant.to_string(), update_deltas(dataset, dim_index, count)),
        (tenant.to_string(), restore),
    ]
}

/// Feed `deltas` through the ingest log in `batch`-sized calls, then
/// time the drain — the flush (incremental re-solve) cost in isolation.
fn timed_flush(service: &VoiceService, tenant: &str, deltas: Vec<RowDelta>, batch: usize) -> f64 {
    for chunk in deltas.chunks(batch) {
        service.ingest(tenant, chunk).expect("ingest accepted");
    }
    let start = Instant::now();
    service.drain_ingest(tenant).expect("drain succeeds");
    start.elapsed().as_secs_f64() * 1e3
}

fn smoke_baseline(workers: usize, requests: usize, rate: f64) -> SmokeBaseline {
    let (dataset, engine_config, texts) = scenario('F', "delay", 0.02);
    let deltas = update_deltas(&dataset, 3, 128);
    let service = Arc::new(ServiceBuilder::new().workers(workers).build());
    let start = Instant::now();
    service
        .register_dataset(
            TenantSpec::new("flights", dataset.clone(), engine_config)
                // Large max_dirty: the explicit drain below is the only
                // flush, so its timing is the full 128-delta cost.
                .ingest(IngestBuilder::new().max_dirty(100_000)),
        )
        .expect("registration succeeds");
    let preprocess_ms = start.elapsed().as_secs_f64() * 1e3;
    // Read before any ingest: here the store holds exactly what the
    // seeded data pre-processes to, so CI can pin it. After the mixed
    // load below it would depend on which flip-and-restore batches the
    // last flush saw.
    let store_bytes = service
        .tenant_store("flights")
        .expect("registered")
        .stats()
        .approx_bytes;
    assert_store_hits(&service, "flights", &texts);

    let ingest_deltas = deltas.len();
    let ingest_flush_ms = timed_flush(&service, "flights", deltas, 32);

    // Mixed open-loop traffic: mostly responds, a trickle of ingest
    // batches and one-row refreshes, so all three submission paths run.
    let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
    let mut plan = respond_plan("flights", &texts, requests, rate);
    plan.mix = MixWeights {
        respond: 48,
        ingest: 6,
        refresh: 1,
    };
    plan.ingest_batches = flip_and_restore("flights", &dataset, 4, 4);
    plan.refresh = Some(("flights".to_string(), dataset));
    let load = loadgen::run(&frontend, &plan);
    drop(frontend);

    // The two probe counts CI pins exactly (deterministic in the seed).
    let (probe_16, probe_20) = {
        let entries = wide_probe_sweep(workers);
        let probe = |n: usize| {
            entries
                .iter()
                .find(|e| e.predicates == n)
                .map(|e| e.probes_per_lookup)
                .unwrap_or(0)
        };
        (probe(16), probe(20))
    };
    SmokeBaseline {
        preprocess_ms,
        store_bytes,
        ingest_deltas,
        ingest_flush_ms,
        wide_probe_16: probe_16,
        wide_probe_20: probe_20,
        load,
    }
}

/// Probe the store's generalization walk on a 20-binary-dimension tenant
/// whose longest stored query has 2 predicates, for queries of 1 to 20.
fn wide_probe_sweep(workers: usize) -> Vec<ProbeEntry> {
    let spec = wide_probe_spec(20);
    let dataset = spec.generate(vqs_data::DEFAULT_SEED, 1.0);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new(&dataset.name, &dims, &["metric"]);
    let service = ServiceBuilder::new().workers(workers).build();
    service
        .register_dataset(TenantSpec::new("wide", dataset, config))
        .expect("registration succeeds");
    let store = service.tenant_store("wide").expect("registered");

    let mut entries = Vec::new();
    for predicates in [1usize, 2, 4, 8, 12, 16, 17, 18, 20] {
        // Value "b" on every dimension: misses the exact entry on long
        // queries, so the lookup walks its generalization levels.
        let query = Query::new(
            "metric",
            (0..predicates)
                .map(|d| (format!("d{d:02}"), "b".to_string()))
                .collect::<Vec<_>>(),
        );
        let before = store.stats();
        let rounds = 64u32;
        let start = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(store.lookup(&query));
        }
        let lookup_nanos = (start.elapsed().as_nanos() / u128::from(rounds)) as u64;
        let after = store.stats();
        entries.push(ProbeEntry {
            predicates,
            probes_per_lookup: (after.probes - before.probes) / u64::from(rounds),
            lookup_nanos,
        });
    }
    entries
}

/// Assert that at least 90% of a tenant's supported utterances hit a
/// stored speech: a tenant registered with a full store answers from
/// it. Served serially, before any load.
fn assert_store_hits(service: &VoiceService, tenant: &str, texts: &[String]) {
    let hits = texts
        .iter()
        .filter(|text| {
            service
                .respond(&ServiceRequest::new(tenant, text.as_str()))
                .answer
                .is_speech()
        })
        .count();
    assert!(
        hits * 10 >= texts.len() * 9,
        "{tenant}: {hits}/{} supported utterances answered with a stored speech",
        texts.len()
    );
}

/// Assert the front-end's ledger after `load` drained through it: every
/// submission ended completed, shed or expired, and the load report saw
/// the same sheds, expiries and degraded answers the front-end counted.
fn assert_reconciles(frontend: &FrontEnd, load: &LoadReport) {
    let stats = frontend.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.shed + stats.expired,
        "front-end counters must reconcile: {stats:?}"
    );
    assert_eq!(load.shed, stats.shed, "served sheds != FrontEndStats::shed");
    assert_eq!(
        load.expired, stats.expired,
        "served expiries != FrontEndStats::expired"
    );
    assert_eq!(
        load.degraded, stats.degraded,
        "served degraded answers != FrontEndStats::degraded"
    );
}

/// Constant arrivals far above one serving worker's rate into a
/// [`OVERLOAD_QUEUE`]-deep queue: the overflow must come back as
/// explicit sheds, and the queue must never grow past its cap.
fn overload(workers: usize) -> OverloadEntry {
    let (dataset, engine_config, texts) = scenario('F', "delay", 0.02);
    let service = Arc::new(ServiceBuilder::new().workers(workers).build());
    service
        .register_dataset(TenantSpec::new("flights", dataset, engine_config))
        .expect("registration succeeds");
    let prototypes = texts
        .iter()
        .map(|text| ServiceRequest::new("flights", text))
        .collect();
    let plan = LoadPlan::respond_only(
        Schedule::new(
            Arrival::Constant {
                rate: OVERLOAD_RATE,
            },
            OVERLOAD_REQUESTS,
            LOAD_SEED,
        ),
        prototypes,
        LOAD_SEED,
    );
    let frontend = FrontEnd::builder(service)
        .workers(1)
        .queue_capacity(OVERLOAD_QUEUE)
        .build();
    let load = loadgen::run(&frontend, &plan);
    assert_reconciles(&frontend, &load);
    let peak_queued = frontend.stats().peak_queued;
    assert!(
        peak_queued <= OVERLOAD_QUEUE as u64,
        "queue depth {peak_queued} exceeded the admission cap {OVERLOAD_QUEUE}"
    );
    OverloadEntry { peak_queued, load }
}

/// One tenant, two question pools: store-tier questions answered with
/// a stored speech, and extrema, comparisons and aggregates that miss
/// the store and execute a relational plan on the live table. Each
/// pool runs open-loop at the same rate.
fn live_plans(workers: usize, requests: usize, rate: f64) -> LivePlansEntry {
    let dataset = SynthSpec {
        name: "air".to_string(),
        dims: vec![
            DimSpec::named("season", &SEASONS),
            DimSpec::named("region", &REGIONS),
        ],
        targets: vec![
            TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
            TargetSpec::new("cancelled", 30.0, 10.0, 4.0, (0.0, 1000.0)),
        ],
        rows: LIVE_PLAN_ROWS,
    }
    .generate(0xA1, 1.0);
    let service = Arc::new(ServiceBuilder::new().workers(workers).build());
    service
        .register_dataset(
            TenantSpec::new(
                "air",
                dataset,
                Configuration::new("air", &["season", "region"], &["delay", "cancelled"]),
            )
            .target_synonyms("delay", &["delays"])
            .unavailable_markers(&["flight"]),
        )
        .expect("registration succeeds");

    let mut store_pool: Vec<String> = Vec::new();
    let mut live_pool: Vec<String> = Vec::new();
    for target in ["delay", "cancelled"] {
        for season in SEASONS {
            store_pool.push(format!("{target} in {season}?"));
        }
        for region in REGIONS {
            store_pool.push(format!("{target} in the {region}?"));
        }
        for dim in ["season", "region"] {
            live_pool.push(format!("which {dim} has the most {target}"));
            live_pool.push(format!("which {dim} has the lowest {target}"));
        }
        for pair in SEASONS.windows(2) {
            live_pool.push(format!(
                "compare {target} for {} versus {}",
                pair[0], pair[1]
            ));
        }
        for season in SEASONS {
            live_pool.push(format!("how many {target} in {season}"));
            live_pool.push(format!("the total {target} in {season}"));
        }
    }
    // Each pool is answered by its own tier, checked serially before
    // any load runs.
    for text in &store_pool {
        let answer = service.respond(&ServiceRequest::new("air", text)).answer;
        assert!(
            answer.is_speech(),
            "store-tier '{text}' answered {answer:?}"
        );
    }
    for text in &live_pool {
        let answer = service.respond(&ServiceRequest::new("air", text)).answer;
        assert!(
            matches!(answer, Answer::Computed { .. }),
            "live-tier '{text}' answered {answer:?}"
        );
    }

    let run = |pool: &[String]| {
        let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
        let load = loadgen::run(&frontend, &respond_plan("air", pool, requests, rate));
        assert_reconciles(&frontend, &load);
        load
    };
    let store_tier = run(&store_pool);
    let live_tier = run(&live_pool);
    LivePlansEntry {
        rate,
        store_tier,
        live_tier,
    }
}

fn run_scenario(
    letter: char,
    tenant: &str,
    target: &str,
    scale: f64,
    workers: usize,
    requests: usize,
    rate: f64,
) -> ScenarioEntry {
    let (dataset, engine_config, texts) = scenario(letter, target, scale);
    let rows = dataset.table.len();
    let service = Arc::new(ServiceBuilder::new().workers(workers).build());
    let start = Instant::now();
    let report = service
        .register_dataset(TenantSpec::new(tenant, dataset, engine_config))
        .expect("registration succeeds");
    let preprocess_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_store_hits(&service, tenant, &texts);

    let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
    let load = loadgen::run(&frontend, &respond_plan(tenant, &texts, requests, rate));
    drop(frontend);
    let store_bytes = service
        .tenant_store(tenant)
        .expect("registered")
        .stats()
        .approx_bytes;
    ScenarioEntry {
        scenario: tenant.to_string(),
        target: target.to_string(),
        scale,
        rows,
        queries: report.queries,
        speeches: report.speeches,
        preprocess_ms,
        plan_ms: report.plan_time.as_secs_f64() * 1e3,
        solver_ms: report.total_solver_time().as_secs_f64() * 1e3,
        store_bytes,
        load,
    }
}

fn run_synthetic(
    rows: usize,
    workers: usize,
    requests: usize,
    rate: f64,
    mixed: bool,
) -> SyntheticEntry {
    let spec = scale_tenant_spec();
    let start = Instant::now();
    let dataset = spec.generate_rows(vqs_data::DEFAULT_SEED, rows, workers);
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;

    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new(&dataset.name, &dims, &["engagement", "latency_ms"]);
    let texts = supported_texts(&dataset, &config, "engagement");
    let service = Arc::new(ServiceBuilder::new().workers(workers).build());
    let start = Instant::now();
    let report = service
        .register_dataset(
            TenantSpec::new("scale", dataset.clone(), config)
                .ingest(IngestBuilder::new().max_dirty(100_000)),
        )
        .expect("registration succeeds");
    let preprocess_ms = start.elapsed().as_secs_f64() * 1e3;

    // Flush cost in isolation: 512 dimension-flip updates, one drain.
    let deltas = update_deltas(&dataset, 3, 512);
    let ingest_deltas = deltas.len();
    let ingest_flush_ms = timed_flush(&service, "scale", deltas, 64);

    // Mixed open-loop traffic: responds with an ingest trickle riding
    // the control lane. The batches flush on the control thread, inline
    // or from its flush tick, never on the serving worker.
    let frontend = FrontEnd::builder(Arc::clone(&service)).workers(1).build();
    let mut plan = respond_plan("scale", &texts, requests, rate);
    if mixed {
        plan.mix = MixWeights {
            respond: 90,
            ingest: 10,
            refresh: 0,
        };
        plan.ingest_batches = flip_and_restore("scale", &dataset, 2, 4);
    }
    let load = loadgen::run(&frontend, &plan);
    let load_ingests = load.ingests;
    drop(frontend);
    let store_bytes = service
        .tenant_store("scale")
        .expect("registered")
        .stats()
        .approx_bytes;
    SyntheticEntry {
        rows,
        load_mix: if mixed {
            "respond+ingest"
        } else {
            "respond_only"
        },
        generate_ms,
        preprocess_ms,
        plan_ms: report.plan_time.as_secs_f64() * 1e3,
        solver_ms: report.total_solver_time().as_secs_f64() * 1e3,
        queries: report.queries,
        speeches: report.speeches,
        store_bytes,
        ingest_deltas,
        ingest_flush_ms,
        load,
        load_ingests,
    }
}

/// One load report as a JSON object on `lines`, at 4-space indent.
fn push_load(lines: &mut Vec<String>, indent: &str, load: &LoadReport, trailing_comma: bool) {
    lines.push(format!("{indent}\"load\": {{"));
    lines.push(format!("{indent}  \"responds\": {},", load.responds));
    lines.push(format!(
        "{indent}  \"p50_intended_micros\": {},",
        load.intended.percentile(50.0)
    ));
    lines.push(format!(
        "{indent}  \"p99_intended_micros\": {},",
        load.intended.percentile(99.0)
    ));
    lines.push(format!(
        "{indent}  \"p99_measured_micros\": {},",
        load.measured.percentile(99.0)
    ));
    lines.push(format!(
        "{indent}  \"max_intended_micros\": {},",
        load.intended.max()
    ));
    lines.push(format!("{indent}  \"answered\": {},", load.answered));
    lines.push(format!("{indent}  \"shed\": {},", load.shed));
    lines.push(format!("{indent}  \"expired\": {},", load.expired));
    lines.push(format!("{indent}  \"internal\": {},", load.internal));
    lines.push(format!("{indent}  \"degraded\": {},", load.degraded));
    lines.push(format!(
        "{indent}  \"in_deadline_rate\": {:.4},",
        load.in_deadline_rate()
    ));
    lines.push(format!(
        "{indent}  \"achieved_rate_per_sec\": {:.0},",
        load.achieved_rate()
    ));
    lines.push(format!(
        "{indent}  \"max_send_lag_micros\": {}",
        load.max_send_lag_micros
    ));
    lines.push(format!(
        "{indent}}}{}",
        if trailing_comma { "," } else { "" }
    ));
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    workers: usize,
    requests: usize,
    rate: f64,
    baseline: &SmokeBaseline,
    probes: &[ProbeEntry],
    overload: &OverloadEntry,
    live_plans: &LivePlansEntry,
    scenarios: &[ScenarioEntry],
    synthetic: &[SyntheticEntry],
) -> String {
    let mut lines = Vec::new();
    lines.push("{".to_string());
    lines.push("  \"schema\": \"vqs-bench-scale/v1\",".to_string());
    lines.push(format!(
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    ));
    lines.push(format!("  \"workers\": {workers},"));
    lines.push("  \"loadgen\": {".to_string());
    lines.push("    \"arrival\": \"poisson\",".to_string());
    lines.push(format!("    \"rate_per_sec\": {rate:.0},"));
    lines.push(format!("    \"requests\": {requests},"));
    lines.push(format!(
        "    \"deadline_budget_ms\": {},",
        DEADLINE_BUDGET.as_millis()
    ));
    lines.push("    \"latency_origin\": \"intended_send_time\"".to_string());
    lines.push("  },".to_string());

    lines.push("  \"smoke_baseline\": {".to_string());
    lines.push(format!(
        "    \"preprocess_ms\": {:.3},",
        baseline.preprocess_ms
    ));
    lines.push(format!("    \"store_bytes\": {},", baseline.store_bytes));
    lines.push(format!(
        "    \"ingest_deltas\": {},",
        baseline.ingest_deltas
    ));
    lines.push(format!(
        "    \"ingest_flush_ms\": {:.3},",
        baseline.ingest_flush_ms
    ));
    lines.push(format!(
        "    \"wide_probe_16\": {},",
        baseline.wide_probe_16
    ));
    lines.push(format!(
        "    \"wide_probe_20\": {},",
        baseline.wide_probe_20
    ));
    push_load(&mut lines, "    ", &baseline.load, false);
    lines.push("  },".to_string());

    lines.push("  \"wide_probes\": [".to_string());
    for (i, entry) in probes.iter().enumerate() {
        let comma = if i + 1 == probes.len() { "" } else { "," };
        lines.push(format!(
            "    {{\"predicates\": {}, \"probes_per_lookup\": {}, \"lookup_nanos\": {}}}{}",
            entry.predicates, entry.probes_per_lookup, entry.lookup_nanos, comma
        ));
    }
    lines.push("  ],".to_string());

    lines.push("  \"overload\": {".to_string());
    lines.push(format!("    \"queue_capacity\": {OVERLOAD_QUEUE},"));
    lines.push(format!("    \"rate_per_sec\": {OVERLOAD_RATE:.0},"));
    lines.push(format!(
        "    \"shed_rate\": {:.4},",
        overload.load.shed as f64 / overload.load.responds.max(1) as f64
    ));
    lines.push(format!("    \"peak_queued\": {},", overload.peak_queued));
    push_load(&mut lines, "    ", &overload.load, false);
    lines.push("  },".to_string());

    lines.push("  \"live_plans\": {".to_string());
    lines.push(format!("    \"rows\": {LIVE_PLAN_ROWS},"));
    lines.push(format!("    \"rate_per_sec\": {:.0},", live_plans.rate));
    lines.push("    \"store_tier\": {".to_string());
    push_load(&mut lines, "      ", &live_plans.store_tier, false);
    lines.push("    },".to_string());
    lines.push("    \"live_tier\": {".to_string());
    push_load(&mut lines, "      ", &live_plans.live_tier, false);
    lines.push("    }".to_string());
    lines.push("  },".to_string());

    lines.push("  \"scenarios\": [".to_string());
    for (i, entry) in scenarios.iter().enumerate() {
        lines.push("    {".to_string());
        lines.push(format!("      \"scenario\": \"{}\",", entry.scenario));
        lines.push(format!("      \"target\": \"{}\",", entry.target));
        lines.push(format!("      \"scale\": {},", entry.scale));
        lines.push(format!("      \"rows\": {},", entry.rows));
        lines.push(format!("      \"queries\": {},", entry.queries));
        lines.push(format!("      \"speeches\": {},", entry.speeches));
        lines.push(format!(
            "      \"preprocess_ms\": {:.3},",
            entry.preprocess_ms
        ));
        lines.push(format!("      \"plan_ms\": {:.3},", entry.plan_ms));
        lines.push(format!("      \"solver_ms\": {:.3},", entry.solver_ms));
        lines.push(format!("      \"store_bytes\": {},", entry.store_bytes));
        push_load(&mut lines, "      ", &entry.load, false);
        lines.push(format!(
            "    }}{}",
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    lines.push("  ],".to_string());

    lines.push("  \"synthetic\": [".to_string());
    for (i, entry) in synthetic.iter().enumerate() {
        lines.push("    {".to_string());
        lines.push("      \"tenant\": \"ScaleTenant\",".to_string());
        lines.push(format!("      \"rows\": {},", entry.rows));
        lines.push(format!("      \"load_mix\": \"{}\",", entry.load_mix));
        lines.push(format!("      \"generate_ms\": {:.3},", entry.generate_ms));
        lines.push(format!(
            "      \"preprocess_ms\": {:.3},",
            entry.preprocess_ms
        ));
        lines.push(format!("      \"plan_ms\": {:.3},", entry.plan_ms));
        lines.push(format!("      \"solver_ms\": {:.3},", entry.solver_ms));
        lines.push(format!("      \"queries\": {},", entry.queries));
        lines.push(format!("      \"speeches\": {},", entry.speeches));
        lines.push(format!("      \"store_bytes\": {},", entry.store_bytes));
        lines.push(format!("      \"ingest_deltas\": {},", entry.ingest_deltas));
        lines.push(format!(
            "      \"ingest_flush_ms\": {:.3},",
            entry.ingest_flush_ms
        ));
        lines.push(format!("      \"load_ingests\": {},", entry.load_ingests));
        push_load(&mut lines, "      ", &entry.load, false);
        lines.push(format!(
            "    }}{}",
            if i + 1 == synthetic.len() { "" } else { "," }
        ));
    }
    lines.push("  ]".to_string());
    lines.push("}".to_string());
    let mut json = lines.join("\n");
    json.push('\n');
    json
}
