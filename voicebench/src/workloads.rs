//! The four workloads and the inputs they feed the service: tenants,
//! the open-loop event timeline, the serial correctness prefix, and
//! effective delta batches. Data stays at [`vqs_data::DEFAULT_SEED`];
//! everything the workload seed drives — the arrival schedule, the mix
//! draws, the utterance order and the rows that updates touch — is
//! generated here, so the service only ever sees the generated inputs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vqs_bench::loadgen::{Arrival, Schedule};
use vqs_data::{by_letter, scale_tenant_spec, GeneratedDataset, DEFAULT_SEED};
use vqs_engine::prelude::{
    generate_log, target_relation, Configuration, IngestBuilder, RequestMix, RowDelta,
    ServiceRequest,
};
use vqs_relalg::prelude::{Schema, Table, Value};

use crate::load::Event;

/// The latency budget of a respond, measured from its intended send
/// time: the in-deadline threshold. Requests carry no deadline of their
/// own: every generated stored-speech query is an exact store hit, so a
/// deadline would never engage the degradation ladder and would only
/// expire requests caught behind a stall of the host.
pub const BUDGET: Duration = Duration::from_millis(50);
/// Requests answered serially before the load to check store identity.
pub const PREFIX: usize = 256;
/// Delta batches applied through `refresh_tenant_deltas` after the load.
pub const REFRESHES: usize = 5;
/// Dimension flips per refresh batch.
pub const REFRESH_DELTAS: usize = 64;
/// Supported utterances generated per tenant target.
const SUPPORTED_PER_TARGET: usize = 64;
/// Pending deltas at which `ingest_mixed` flushes. Flushes fall at fixed
/// points of the batch sequence, not of the clock, so every run makes the
/// same number of them.
const FLUSH_DELTAS: usize = 1200;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Flights, ACS and Primaries in one service; answers come from the
    /// pre-computed store.
    StoreHit,
    /// Stack Overflow: NL analysis over large dictionaries, and live
    /// plans.
    SoServe,
    /// ScaleTenant at 50k rows with delta batches beside the reads.
    IngestMixed,
    /// ScaleTenant at 200k rows: the offline stage at a row count where
    /// rows dominate its cost.
    BatchPreprocess,
}

/// How one workload loads the service.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Offered events per second (Poisson arrivals).
    pub rate: f64,
    /// Share of events, in percent, that are ingest batches.
    pub ingest_percent: u32,
    /// Deltas per ingest batch.
    pub ingest_deltas: usize,
    /// Share of responds, in percent, that are live-plan questions.
    pub live_percent: u32,
    /// Streaming-ingestion options of the first tenant, on the workloads
    /// that change its data (load-time batches or post-load refreshes);
    /// the others register without an ingest log.
    pub ingest: Option<IngestBuilder>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` declares them.
    pub const ALL: [Workload; 4] = [
        Workload::StoreHit,
        Workload::SoServe,
        Workload::IngestMixed,
        Workload::BatchPreprocess,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreHit => "store_hit",
            Workload::SoServe => "so_serve",
            Workload::IngestMixed => "ingest_mixed",
            Workload::BatchPreprocess => "batch_preprocess",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The load shape.
    pub fn shape(self) -> Shape {
        let serving = |rate| Shape {
            rate,
            ingest_percent: 0,
            ingest_deltas: 0,
            live_percent: 0,
            ingest: None,
        };
        match self {
            Workload::StoreHit => serving(1000.0),
            Workload::SoServe => Shape {
                // Live plans cost severalfold more by kind (comparison,
                // count, extremum); with four equally likely kinds at
                // 3.75% each, the p95 falls inside the second-costliest
                // kind whatever their order, never on a boundary.
                live_percent: 15,
                ..serving(100.0)
            },
            Workload::IngestMixed => Shape {
                ingest_percent: 10,
                ingest_deltas: 4,
                ingest: Some(
                    IngestBuilder::new()
                        .max_dirty(FLUSH_DELTAS)
                        .flush_interval(Duration::from_secs(3600)),
                ),
                ..serving(300.0)
            },
            Workload::BatchPreprocess => Shape {
                ingest: Some(IngestBuilder::new()),
                ..serving(1000.0)
            },
        }
    }

    /// The tenants the workload registers; the first one receives the
    /// delta batches.
    pub fn tenants(self) -> Vec<Tenant> {
        match self {
            Workload::StoreHit => vec![
                Tenant::scenario("flights", 'F', "delay"),
                Tenant::scenario("acs", 'A', "hearing"),
                Tenant::scenario("primaries", 'P', "support"),
            ],
            Workload::SoServe => vec![Tenant::scenario("stackoverflow", 'S', "competence")],
            Workload::IngestMixed => vec![Tenant::scale("scale", 50_000)],
            Workload::BatchPreprocess => vec![Tenant::scale("scale", 200_000)],
        }
    }
}

/// One tenant: its data and configuration.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Tenant name.
    pub name: String,
    /// The data, generated at [`DEFAULT_SEED`], shared with the delta
    /// source rather than copied.
    pub dataset: Arc<GeneratedDataset>,
    /// The deployment configuration.
    pub config: Configuration,
}

impl Tenant {
    /// A paper scenario at scale 1.0 with one target.
    fn scenario(name: &str, letter: char, target: &str) -> Tenant {
        let dataset = by_letter(&letter.to_string(), 1.0).expect("known scenario letter");
        let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
        let config = Configuration::new(&dataset.name, &dims, &[target]);
        Tenant {
            name: name.to_string(),
            dataset: Arc::new(dataset),
            config,
        }
    }

    /// The synthetic ScaleTenant at `rows` rows with both its targets.
    /// Generated on one thread (the rows are the same for any worker
    /// count): with two, the memory the generator leaves resident varied
    /// by 6 MB between runs, and `peak_rss_mb` subtracts it.
    fn scale(name: &str, rows: usize) -> Tenant {
        let dataset = scale_tenant_spec().generate_rows(DEFAULT_SEED, rows, 1);
        let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
        let config = Configuration::new(&dataset.name, &dims, &["engagement", "latency_ms"]);
        Tenant {
            name: name.to_string(),
            dataset: Arc::new(dataset),
            config,
        }
    }
}

/// A seed for one independent stream drawn from the workload seed.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Supported utterances of `tenant`: single-target data-access queries
/// from the deployment-log generator, which the store answers. The pool
/// is the same for every workload seed (drawn at the data seed); the
/// workload seed only orders the draws from it, so runs with different
/// seeds offer the same mix of work.
pub fn supported_utterances(tenant: &Tenant) -> Vec<String> {
    let mix = RequestMix {
        name: "benchmark",
        help: 0,
        repeat: 0,
        s_query: SUPPORTED_PER_TARGET,
        u_query: 0,
        other: 0,
    };
    let mut texts = Vec::new();
    for (t, target) in tenant.config.targets.iter().enumerate() {
        let relation =
            target_relation(&tenant.dataset, &tenant.config, target).expect("configured target");
        let phrase = target.replace('_', " ");
        texts.extend(
            generate_log(
                &relation,
                &phrase,
                &mix,
                stream_seed(DEFAULT_SEED, t as u64),
            )
            .into_iter()
            .map(|entry| entry.text),
        );
    }
    texts
}

/// Questions the store does not pre-compute and the pipeline answers by
/// executing a `QueryPlan` live: for every dimension of the first target,
/// both group extrema, a comparison of its first two values and a count.
pub fn live_questions(tenant: &Tenant) -> Vec<String> {
    let target = &tenant.config.targets[0];
    let relation =
        target_relation(&tenant.dataset, &tenant.config, target).expect("configured target");
    let phrase = target.replace('_', " ");
    let mut questions = Vec::new();
    for dim in relation.dims() {
        let name = dim.name.replace('_', " ");
        questions.push(format!("which {name} has the most {phrase}"));
        questions.push(format!("which {name} has the lowest {phrase}"));
        if let [left, right, ..] = &dim.values[..] {
            questions.push(format!("compare {phrase} for {left} versus {right}"));
        }
        questions.push(format!("how many {phrase} in {}", dim.values[0]));
    }
    questions
}

/// Seeded dimension-flip updates against one tenant's table. Each update
/// moves a row to a *different* value of one dimension, read off the row
/// as earlier batches left it, so every batch changes the data and
/// dirties at least the summaries of the row's old and new values.
#[derive(Debug, Clone)]
pub struct DeltaSource {
    tenant: String,
    base: Arc<GeneratedDataset>,
    /// Every row an update touched, as the updates left it.
    changed: BTreeMap<usize, Vec<Value>>,
    /// `(column index, distinct values)` of every configured dimension.
    dims: Vec<(usize, Vec<Value>)>,
    rng: StdRng,
}

impl DeltaSource {
    /// A source over `tenant`'s registered table.
    pub fn new(tenant: &Tenant, seed: u64) -> DeltaSource {
        let table = &tenant.dataset.table;
        let dims = tenant
            .config
            .dimensions
            .iter()
            .map(|dim| {
                let col = table.schema().index_of(dim).expect("configured dimension");
                let column = table.column_by_name(dim).expect("configured dimension");
                let mut values: Vec<Value> = Vec::new();
                for row in 0..table.len() {
                    let value = column.value(row);
                    if !values.contains(&value) {
                        values.push(value);
                    }
                }
                (col, values)
            })
            .filter(|(_, values)| values.len() >= 2)
            .collect();
        DeltaSource {
            tenant: tenant.name.clone(),
            base: Arc::clone(&tenant.dataset),
            changed: BTreeMap::new(),
            dims,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Row `row` as the updates so far left it.
    fn row(&self, row: usize) -> Vec<Value> {
        self.changed
            .get(&row)
            .cloned()
            .unwrap_or_else(|| self.base.table.row(row))
    }

    /// The tenant the updates address.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The next batch of `n` updates on distinct rows, applied to the
    /// source's copy of the table.
    pub fn batch(&mut self, n: usize) -> Vec<RowDelta> {
        let rows = self.base.table.len();
        let mut touched: Vec<usize> = Vec::with_capacity(n);
        let mut deltas = Vec::with_capacity(n);
        while deltas.len() < n.min(rows) {
            let row = self.rng.gen_range(0..rows);
            if touched.contains(&row) {
                continue;
            }
            touched.push(row);
            let (col, values) = &self.dims[self.rng.gen_range(0..self.dims.len())];
            let mut updated = self.row(row);
            let others: Vec<&Value> = values.iter().filter(|v| **v != updated[*col]).collect();
            updated[*col] = (*others.choose(&mut self.rng).expect("two distinct values")).clone();
            self.changed.insert(row, updated.clone());
            deltas.push(RowDelta::Update {
                row,
                values: updated,
            });
        }
        deltas
    }

    /// The table with every generated batch applied: what a cold
    /// registration must reproduce once the service applied them all.
    pub fn dataset(&self) -> GeneratedDataset {
        let schema: Schema = self.base.table.schema().clone();
        let rows = (0..self.base.table.len()).map(|row| self.row(row));
        GeneratedDataset {
            table: Table::from_rows(schema, rows).expect("rows fit schema"),
            ..GeneratedDataset::clone(&self.base)
        }
    }
}

/// Everything one run of a workload sends.
#[derive(Debug)]
pub struct Inputs {
    /// Its load shape.
    pub shape: Shape,
    /// Its tenants.
    pub tenants: Vec<Tenant>,
    /// Intended send offsets of the timeline.
    pub offsets: Vec<Duration>,
    /// The events, one per offset.
    pub events: Vec<Event>,
    /// Requests answered serially, deadline-free, before the load.
    pub prefix: Vec<ServiceRequest>,
    /// Delta batches applied through `refresh_tenant_deltas` after it.
    pub refreshes: Vec<Vec<RowDelta>>,
    /// The source of every delta, holding the final table; `None` on the
    /// workloads that never change data.
    pub deltas: Option<DeltaSource>,
}

impl Inputs {
    /// Generate the inputs of a run that offers load for `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let shape = workload.shape();
        let tenants = workload.tenants();
        let supported: Vec<Vec<String>> = tenants.iter().map(supported_utterances).collect();
        let live: Vec<Vec<String>> = tenants.iter().map(live_questions).collect();
        let mut deltas = shape
            .ingest
            .is_some()
            .then(|| DeltaSource::new(&tenants[0], stream_seed(seed, 2)));
        let mut mix = StdRng::seed_from_u64(stream_seed(seed, 1));
        let respond = |mix: &mut StdRng, live_percent: u32| {
            let t = mix.gen_range(0..tenants.len());
            let pool = if mix.gen_range(0..100u32) < live_percent {
                &live[t]
            } else {
                &supported[t]
            };
            ServiceRequest::new(&tenants[t].name, &pool[mix.gen_range(0..pool.len())])
        };

        let prefix = (0..PREFIX)
            .map(|_| respond(&mut mix, shape.live_percent))
            .collect();
        let count = (shape.rate * seconds).round().max(1.0) as usize;
        let schedule = Schedule::new(Arrival::Poisson { rate: shape.rate }, count, seed);
        let events = (0..count)
            .map(|_| match deltas.as_mut() {
                Some(source) if mix.gen_range(0..100u32) < shape.ingest_percent => Event::Ingest {
                    tenant: source.tenant().to_string(),
                    deltas: source.batch(shape.ingest_deltas),
                },
                _ => Event::Respond(respond(&mut mix, shape.live_percent)),
            })
            .collect();
        let refreshes = match deltas.as_mut() {
            Some(source) => (0..REFRESHES)
                .map(|_| source.batch(REFRESH_DELTAS))
                .collect(),
            None => Vec::new(),
        };
        Inputs {
            shape,
            tenants,
            offsets: schedule.offsets,
            events,
            prefix,
            refreshes,
            deltas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_engine::prelude::*;

    fn small_tenant() -> Tenant {
        Tenant::scale("scale", 2_000)
    }

    fn texts(events: &[Event]) -> Vec<String> {
        events
            .iter()
            .map(|event| match event {
                Event::Respond(request) => format!("{}:{}", request.tenant, request.text),
                Event::Ingest { tenant, deltas } => format!("{tenant}:{deltas:?}"),
            })
            .collect()
    }

    #[test]
    fn the_seed_fixes_requests_and_deltas() {
        let a = Inputs::generate(Workload::IngestMixed, 7, 1.0);
        let b = Inputs::generate(Workload::IngestMixed, 7, 1.0);
        let c = Inputs::generate(Workload::IngestMixed, 8, 1.0);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(texts(&a.events), texts(&b.events));
        assert_eq!(a.refreshes, b.refreshes);
        assert_ne!(texts(&a.events), texts(&c.events));
        assert_ne!(a.refreshes, c.refreshes);
        assert_ne!(a.offsets, c.offsets);
        let ingests = a
            .events
            .iter()
            .filter(|e| matches!(e, Event::Ingest { .. }))
            .count();
        assert!(ingests > 0 && ingests < a.events.len());
    }

    #[test]
    fn every_batch_dirties_a_summary() {
        let tenant = small_tenant();
        let service = ServiceBuilder::new().workers(1).build();
        service
            .register_dataset(
                TenantSpec::new(
                    &tenant.name,
                    GeneratedDataset::clone(&tenant.dataset),
                    tenant.config.clone(),
                )
                .ingest(IngestBuilder::new()),
            )
            .expect("registers");
        let mut source = DeltaSource::new(&tenant, 3);
        let mut invalidated = 0;
        for n in [1, 4, 4, 16, 1] {
            let batch = source.batch(n);
            assert_eq!(batch.len(), n);
            service.ingest(&tenant.name, &batch).expect("accepted");
            service.drain_ingest(&tenant.name).expect("drains");
            let now = service.stats().tenants[0].summaries_invalidated;
            assert!(now > invalidated, "a batch of {n} dirtied nothing");
            invalidated = now;
        }
        // The source's table is the one the service converged to.
        let cold = ServiceBuilder::new().workers(1).build();
        cold.register_dataset(TenantSpec::new(
            &tenant.name,
            source.dataset(),
            tenant.config.clone(),
        ))
        .expect("registers");
        assert_eq!(
            service.tenant_store(&tenant.name).unwrap().snapshot(),
            cold.tenant_store(&tenant.name).unwrap().snapshot()
        );
    }

    #[test]
    fn generated_utterances_reach_their_tier() {
        for tenant in [
            small_tenant(),
            Tenant::scenario("primaries", 'P', "support"),
        ] {
            let service = ServiceBuilder::new().workers(1).build();
            service
                .register_dataset(TenantSpec::new(
                    &tenant.name,
                    GeneratedDataset::clone(&tenant.dataset),
                    tenant.config.clone(),
                ))
                .expect("registers");
            for text in supported_utterances(&tenant) {
                let response = service.respond(&ServiceRequest::new(&tenant.name, &text));
                assert!(response.answer.is_speech(), "{text}: {:?}", response.answer);
            }
            for text in live_questions(&tenant) {
                let response = service.respond(&ServiceRequest::new(&tenant.name, &text));
                assert!(
                    matches!(response.answer, Answer::Computed { .. }),
                    "{text}: {:?}",
                    response.answer
                );
            }
        }
    }
}
