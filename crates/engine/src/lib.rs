//! # vqs-engine — the end-to-end voice query system (Fig. 2)
//!
//! The primary API is the multi-tenant [`service::VoiceService`] facade:
//! a [`ServiceBuilder`](service::ServiceBuilder) spawns one shared,
//! long-lived solver pool; each registered [`service::TenantSpec`]
//! (dataset + [`config::Configuration`]) gets its queries enumerated and
//! solved into its own sharded, lock-striped [`store::SpeechStore`]; and
//! live traffic flows through the typed pipeline
//! [`service::ServiceRequest`] → [`service::ServiceResponse`], whose
//! [`service::Answer`] enum distinguishes stored speeches, extension
//! answers, help, and apologies. Delta refreshes
//! ([`service::VoiceService::refresh_tenant`]) re-summarize only the
//! queries whose data subset changed. Production traffic enters
//! through the non-blocking [`service::frontend`]: a bounded admission
//! queue with per-tenant fairness, explicit overload shedding
//! ([`service::Answer::Overloaded`]), and an interactive priority lane
//! over background registrations/refreshes. [`logsim`] replays the
//! §VIII-D public-deployment workload.
//!
//! Answers resolve through the staged [`pipeline`] (tokenize → analyze
//! → plan → execute): a summary-store hit first, then live plan
//! execution over `vqs-relalg` for questions the store does not
//! precompute ([`service::Answer::Computed`]), then a typed apology.
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
//!
//! let service = ServiceBuilder::new().workers(2).build();
//! let report = service
//!     .register_dataset(TenantSpec::new(
//!         "demo",
//!         data,
//!         Configuration::new("demo", &["season"], &["delay"]),
//!     ))
//!     .unwrap();
//! assert_eq!(report.speeches, 3); // overall + two seasons
//!
//! let response = service.respond(&ServiceRequest::new("demo", "delay in Winter?"));
//! match &response.answer {
//!     Answer::Speech { speech, .. } => assert!(speech.text.contains("Winter")),
//!     other => panic!("expected a stored speech, got {other:?}"),
//! }
//! ```
//!
//! The pre-facade free functions (`generator::preprocess`,
//! `generator::refresh`) and the text-only `VoiceResponse` are gone;
//! see the README migration table for the replacements.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod extensions;
pub mod generator;
pub mod ingest;
pub mod logsim;
pub mod nlq;
pub mod pipeline;
pub mod problem;
pub mod service;
pub mod store;
pub mod template;
pub mod voice;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::{ConfigError, Configuration};
    pub use crate::error::{EngineError, Result};
    pub use crate::extensions::{ExtremumIndex, GroupAverage};
    pub use crate::generator::{
        configured_exact, configured_exact_on, enumerate_queries, solve_item, target_cells,
        target_relation, PreprocessReport, RefreshReport, WorkItem,
    };
    pub use crate::ingest::{FlushReport, IngestBuilder, IngestReport, RowDelta};
    pub use crate::logsim::{
        complexity_histogram, generate_log, tabulate, LogEntry, RequestMix, FIG9_COMPLEXITY,
        FIG9_TYPES, TABLE3,
    };
    pub use crate::nlq::{Extractor, Request, Unsupported};
    pub use crate::pipeline::{AggKind, ComputedValue, FollowOn, QueryPlan, Utterance};
    pub use crate::problem::{NamedFact, Query, StoredSpeech};
    pub use crate::service::{
        Answer, Degradation, Fault, FaultPlan, FaultSite, FrontEnd, FrontEndBuilder, FrontEndStats,
        IngestTicket, OverloadPolicy, RefreshTicket, RegisterTicket, ResponseTicket,
        ScatterPriority, ServiceBuilder, ServiceRequest, ServiceResponse, ServiceStats, SolverPool,
        TaskTicket, TenantSpec, TenantStats, Ticket, Trigger, VoiceService,
    };
    pub use crate::store::{Lookup, SpeechStore, StoreStats, DEFAULT_SHARDS};
    pub use crate::template::{format_value, speaking_time_secs, SpeechTemplate, ValueStyle};
    pub use crate::voice::VoiceSession;
}
