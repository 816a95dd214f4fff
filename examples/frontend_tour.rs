//! Serving front-end tour: a [`vqs_engine::service::FrontEnd`]
//! multiplexing concurrent clients over a [`VoiceService`] through a
//! bounded admission queue — ticketed responses, a background
//! registration on the control lane, a deliberate overload burst with
//! explicit shedding, per-tenant fairness accounting, and a graceful
//! draining shutdown.
//!
//! ```text
//! cargo run --release --example frontend_tour
//! ```

use std::sync::Arc;

use vqs_engine::prelude::*;

fn main() -> Result<()> {
    // A service with one tenant registered up front...
    let service = Arc::new(ServiceBuilder::new().build());
    let flights = vqs_data::flights_spec().generate(vqs_data::DEFAULT_SEED, 0.05);
    let dims: Vec<String> = flights.dims.clone();
    let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
    let report = service.register_dataset(
        TenantSpec::new(
            "flights",
            flights,
            Configuration::new("flights", &dims, &["cancelled"]),
        )
        .target_synonyms("cancelled", &["cancellations"]),
    )?;
    println!("registered 'flights': {} speeches", report.speeches);

    // ...behind a small, bounded serving front-end.
    let frontend = FrontEnd::builder(Arc::clone(&service))
        .workers(2)
        .queue_capacity(64)
        .tenant_share(48)
        .build();
    println!(
        "front-end up: {} serving workers over a 64-deep admission queue\n",
        frontend.workers()
    );

    // A second tenant registers in the BACKGROUND: the front-end's
    // control thread runs it while the serving workers keep answering,
    // and its solver batches take the pool's bulk lane.
    let acs = vqs_data::acs_spec().generate(vqs_data::DEFAULT_SEED, 0.05);
    let dims: Vec<String> = acs.dims.clone();
    let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
    let registration = frontend.submit_register(TenantSpec::new(
        "acs",
        acs,
        Configuration::new("acs", &dims, &["hearing"]),
    ));

    // Interactive traffic flows immediately, ticket by ticket...
    for text in [
        "cancellations in winter",
        "cancellations in December",
        "help",
    ] {
        let ticket = frontend.submit(ServiceRequest::new("flights", text));
        let response = ticket.wait();
        println!("  '{text}' -> {}", response.text());
    }
    // ...or pipelined: submit several, then wait on each ticket.
    let tickets: Vec<(String, ResponseTicket)> = (1..=4)
        .map(|month| {
            let text = format!("cancellations in month {month}");
            let ticket = frontend.submit(ServiceRequest::new("flights", text.as_str()));
            (text, ticket)
        })
        .collect();
    for (text, ticket) in tickets {
        println!("  '{text}' (pipelined) -> {}", ticket.wait().label());
    }
    println!();

    // The background registration resolves on its own ticket.
    let report = registration.wait()?;
    println!(
        "'acs' registered behind live traffic: {} speeches",
        report.speeches
    );
    let response = frontend
        .submit(ServiceRequest::new("acs", "hearing impairment in Alaska"))
        .wait();
    println!("  acs answer: {}\n", response.text());

    // Overload: a burst far past the queue bound is shed explicitly —
    // typed `Answer::Overloaded`, never an unbounded queue.
    let burst: Vec<ResponseTicket> = (0..512)
        .map(|_| frontend.submit(ServiceRequest::new("flights", "cancellations in December")))
        .collect();
    let shed = burst
        .into_iter()
        .filter(|t| matches!(t.wait().answer, Answer::Overloaded { .. }))
        .count();
    let stats = frontend.stats();
    println!(
        "burst of 512: {} served, {} shed (peak queue depth {})",
        stats.completed - 8,
        shed,
        stats.peak_queued
    );
    for (tenant, count) in &stats.shed_by_tenant {
        println!("  shed by tenant: {tenant} = {count}");
    }

    // Shutdown drains everything already admitted, then joins.
    frontend.shutdown();
    println!("\nfront-end drained and shut down; the service lives on:");
    let direct = service.respond(&ServiceRequest::new("flights", "cancellations in December"));
    println!("  direct respond still works: {}", direct.text());
    Ok(())
}
