//! A scripted voice-assistant session over the flights deployment,
//! mirroring the paper's public Google-Assistant deployment (§VIII-D):
//! tenant registration, live traffic, and a classified request log —
//! all through the [`vqs_engine::service::VoiceService`] facade.
//!
//! ```text
//! cargo run --release --example voice_assistant
//! ```

use vqs_engine::prelude::*;

fn main() -> Result<()> {
    let dataset = vqs_data::flights_spec().generate(vqs_data::DEFAULT_SEED, 0.05);
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let config = Configuration::new("flights", &dims, &["cancelled"]);
    // The relation is only needed locally to generate the synthetic
    // deployment log; the service builds its own from the registration.
    let relation = target_relation(&dataset, &config, "cancelled")?;

    // Register the deployment: speech template, target phrasings and the
    // markers for unavailable data.
    let service = ServiceBuilder::new().build();
    let report = service.register_dataset(
        TenantSpec::new("flights", dataset, config)
            .template(
                "cancelled",
                SpeechTemplate::per_mille("cancellation probability", "flights"),
            )
            .target_synonyms("cancelled", &["cancellations", "cancellation probability"])
            .unavailable_markers(&["flight"])
            .help_text("Ask about flight cancellations, e.g. 'cancellations in Winter'."),
    )?;
    println!(
        "deployment ready: {} speeches pre-generated in {:?}\n",
        report.speeches, report.elapsed
    );

    // Stateless traffic through the typed pipeline, including the
    // Example 5 query. The §VIII-D "U-Query" shapes (extrema,
    // comparisons) are computed live from the tenant's data.
    for utterance in [
        "help",
        "cancellations in Winter?",
        "cancellations in Winter on Mon in the evening",
        "which airline has the most cancellations",
        "cancellations of flight UA one twenty three",
        "thanks!",
    ] {
        let response = service.respond(&ServiceRequest::new("flights", utterance));
        if utterance.starts_with("which airline") {
            assert!(
                matches!(response.answer, Answer::Computed { .. }),
                "{:?}",
                response.answer
            );
        }
        println!("You:    {utterance}");
        println!("System: {} [{}]\n", response.text(), response.label());
    }

    // Conversation state (repeat handling) lives in per-user sessions.
    let mut session = service.session("flights").expect("tenant registered");
    let first = session.answer("cancellations in Winter?");
    let repeated = session.answer("repeat that");
    assert_eq!(first.text(), repeated.text());
    println!(
        "You:    repeat that\nSystem: {} [repeat]\n",
        repeated.text()
    );

    // Replay the §VIII-D deployment log through the tenant's classifier
    // and tabulate it (Table III).
    let mix = TABLE3[1]; // the flights column
    let log = generate_log(&relation, "cancellations", &mix, 7);
    let counts = service.replay("flights", &log).expect("tenant registered");
    println!("last {} requests classified:", log.len());
    for (label, count) in ["Help", "Repeat", "S-Query", "U-Query", "Other"]
        .iter()
        .zip(counts)
    {
        println!("  {label:8} {count}");
    }

    // Per-tenant roll-up of everything the service just did.
    let stats = service.stats();
    let tenant = &stats.tenants[0];
    println!(
        "\ntenant '{}': {} requests ({} speech, {} computed, {} help, {} apologies), \
         {} store lookups",
        tenant.tenant,
        tenant.requests,
        tenant.speech_answers,
        tenant.computed_answers,
        tenant.help_answers,
        tenant.unsupported_answers,
        tenant.store.lookups,
    );
    Ok(())
}
