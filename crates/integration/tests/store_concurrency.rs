//! Determinism of the work-stealing pre-processing pipeline in the
//! solver pool's worker count. A store is built by one owner and only
//! read once published, so concurrent readers are exercised where the
//! service publishes stores: the `ingest` suite's
//! `concurrent_reads_see_no_torn_or_missing_entries` and the `service`
//! suite's `concurrent_respond_and_refresh_on_separate_tenants`.

use vqs_core::prelude::{ExactSummarizer, GreedySummarizer, Summarizer};
use vqs_data::{DimSpec, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;

fn determinism_dataset() -> vqs_data::GeneratedDataset {
    SynthSpec {
        name: "determinism".to_string(),
        dims: vec![
            DimSpec::named("season", &["Winter", "Spring", "Summer", "Fall"]),
            DimSpec::named("region", &["East", "West", "North", "South"]),
            DimSpec::synthetic("airline", "airline", 3, 0.4),
        ],
        targets: vec![
            TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
            TargetSpec::new("cancelled", 30.0, 10.0, 4.0, (0.0, 1000.0)),
        ],
        rows: 600,
    }
    .generate(0xD57, 1.0)
}

/// `preprocess` with 1, 2, and 8 workers yields byte-identical stores and
/// identical instrumentation totals, for the optimized greedy and the
/// exact summarizer — the work-stealing queue must not introduce
/// chunking- or scheduling-dependent results. Registration runs on the
/// service's shared solver pool, so this also pins the pool path.
#[test]
fn preprocess_is_deterministic_in_worker_count() {
    let data = determinism_dataset();
    let config = Configuration::new(
        "determinism",
        &["season", "region", "airline"],
        &["delay", "cancelled"],
    );
    let summarizers: [fn() -> Box<dyn Summarizer + Send + Sync>; 2] = [
        || Box::new(GreedySummarizer::with_optimized_pruning()),
        || Box::new(ExactSummarizer::paper()),
    ];
    for summarizer in summarizers {
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let service = ServiceBuilder::new()
                    .workers(workers)
                    .summarizer_box(summarizer())
                    .build();
                let report = service
                    .register_dataset(TenantSpec::new("determinism", data.clone(), config.clone()))
                    .unwrap();
                (service.tenant_store("determinism").unwrap(), report)
            })
            .collect();
        let name = summarizer().name();
        let (reference_store, reference_report) = &runs[0];
        let reference = reference_store.snapshot();
        assert!(reference_report.queries > 50, "{name}");
        for (store, report) in &runs[1..] {
            assert_eq!(report.queries, reference_report.queries, "{name}");
            assert_eq!(report.speeches, reference_report.speeches, "{name}");
            // Instrumentation totals are summed in job order from
            // per-worker partials: exactly equal, not just approximately.
            assert_eq!(
                report.instrumentation, reference_report.instrumentation,
                "{name}"
            );
            let snapshot = store.snapshot();
            assert_eq!(snapshot, reference, "{name}");
            // Byte-identical including float formatting, not just PartialEq.
            assert_eq!(format!("{snapshot:?}"), format!("{reference:?}"), "{name}");
        }
    }
}
