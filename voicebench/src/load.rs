//! The open-loop load generator: one submitter (the calling thread) walks a
//! fixed timeline and never waits on the service; one collector thread
//! stamps completions. Latency is measured from each event's *intended*
//! send time, so a stalled service is charged for the queue it builds.
//!
//! The collector stamps every ticket when it is first seen ready: it
//! waits a bounded time on the oldest outstanding ticket, then sweeps the
//! rest with `is_ready`. A slow ingest batch therefore cannot delay the
//! stamp of a respond that finished behind it (waiting on tickets in
//! submission order would charge the batch's time to every respond
//! queued after it).

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use vqs_engine::prelude::{
    FrontEnd, IngestReport, IngestTicket, ResponseTicket, RowDelta, ServiceRequest, ServiceResponse,
};

/// Longest the collector blocks on one ticket (or on an empty channel)
/// before sweeping again: the stamp resolution for tickets that complete
/// while it waits on another, and the probe cadence.
const POLL: Duration = Duration::from_millis(1);

/// One scheduled operation.
#[derive(Debug, Clone)]
pub enum Event {
    /// An interactive request through [`FrontEnd::submit`].
    Respond(ServiceRequest),
    /// A delta batch through [`FrontEnd::submit_ingest`].
    Ingest {
        /// Tenant receiving the batch.
        tenant: String,
        /// The deltas.
        deltas: Vec<RowDelta>,
    },
}

/// A completed event's result.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The response a respond event completed with.
    Respond(Box<ServiceResponse>),
    /// The result an ingest event completed with.
    Ingest(Result<IngestReport, String>),
}

/// One completed event; times are offsets from the run's origin.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Index of the event in the timeline.
    pub event: usize,
    /// When the event was due to be sent.
    pub intended: Duration,
    /// When it was actually submitted.
    pub sent: Duration,
    /// When the collector first saw its ticket ready.
    pub ready: Duration,
    /// What it completed with.
    pub outcome: Outcome,
}

impl Completion {
    /// Latency from the intended send time.
    pub fn latency(&self) -> Duration {
        self.ready.saturating_sub(self.intended)
    }
}

/// Result of one [`run`].
#[derive(Debug)]
pub struct LoadRun {
    /// The instant every offset is measured from.
    pub origin: Instant,
    /// Every event, in the order the collector saw it complete.
    pub completions: Vec<Completion>,
    /// Worst lag of an actual send behind its intended instant.
    pub max_send_lag: Duration,
}

enum Ticket {
    Respond(ResponseTicket),
    Ingest(IngestTicket),
}

struct Pending {
    event: usize,
    intended: Duration,
    sent: Duration,
    ticket: Ticket,
}

impl Pending {
    fn is_ready(&self) -> bool {
        match &self.ticket {
            Ticket::Respond(ticket) => ticket.is_ready(),
            Ticket::Ingest(ticket) => ticket.is_ready(),
        }
    }

    fn wait(&self, timeout: Duration) {
        match &self.ticket {
            Ticket::Respond(ticket) => drop(ticket.wait_timeout(timeout)),
            Ticket::Ingest(ticket) => drop(ticket.wait_timeout(timeout)),
        }
    }

    fn complete(self, ready: Duration) -> Completion {
        let outcome = match self.ticket {
            Ticket::Respond(ticket) => Outcome::Respond(Box::new(ticket.into_inner())),
            Ticket::Ingest(ticket) => {
                Outcome::Ingest(ticket.into_inner().map_err(|err| err.to_string()))
            }
        };
        Completion {
            event: self.event,
            intended: self.intended,
            sent: self.sent,
            ready,
            outcome,
        }
    }
}

/// Sleep until `target`. Spinning the last stretch would make the
/// submitter a third runnable thread beside the serving worker and the
/// collector on a two-core machine, and the scheduler's time slices then
/// stall whichever loses — a worse error than the sleep's overshoot,
/// which is reported as send lag.
fn pace_until(target: Instant) {
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Drive `events` at their `offsets` through `frontend`. `probe` runs on
/// the collector thread about every [`POLL`] while the run lasts
/// (samplers of racy gauges); pass `|| {}` for none.
pub fn run(
    frontend: &FrontEnd,
    offsets: &[Duration],
    events: &[Event],
    mut probe: impl FnMut() + Send,
) -> LoadRun {
    assert_eq!(offsets.len(), events.len(), "one offset per event");
    let (tx, rx) = mpsc::channel::<Pending>();
    // A head start so event 0 is not already late.
    let origin = Instant::now() + Duration::from_millis(2);
    let mut max_send_lag = Duration::ZERO;
    let completions = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut pending: VecDeque<Pending> = VecDeque::new();
            let mut done = Vec::with_capacity(offsets.len());
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
                // Background batches complete after the responds queued
                // behind them, so the oldest *respond* is the ticket most
                // likely to complete next.
                let oldest = pending
                    .iter()
                    .find(|p| matches!(p.ticket, Ticket::Respond(_)))
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
                let now = origin.elapsed();
                let mut index = 0;
                while index < pending.len() {
                    if pending[index].is_ready() {
                        let ready = pending.remove(index).expect("index in range");
                        done.push(ready.complete(now));
                    } else {
                        index += 1;
                    }
                }
                probe();
            }
            done
        });

        for (event, (offset, op)) in offsets.iter().zip(events).enumerate() {
            let due = origin + *offset;
            pace_until(due);
            let now = Instant::now();
            max_send_lag = max_send_lag.max(now.saturating_duration_since(due));
            let ticket = match op {
                Event::Respond(request) => Ticket::Respond(frontend.submit(request.clone())),
                Event::Ingest { tenant, deltas } => {
                    Ticket::Ingest(frontend.submit_ingest(tenant.clone(), deltas.clone()))
                }
            };
            tx.send(Pending {
                event,
                intended: *offset,
                sent: now.saturating_duration_since(origin),
                ticket,
            })
            .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector panicked")
    });
    LoadRun {
        origin,
        completions,
        max_send_lag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vqs_data::{DimSpec, SynthSpec, TargetSpec};
    use vqs_engine::prelude::*;
    use vqs_relalg::prelude::Value;

    /// With two serving workers, a batch stalled 100 ms inside the
    /// service must not delay the stamps of responds that a second
    /// worker answered meanwhile.
    #[test]
    fn slow_ingest_does_not_delay_later_respond_stamps() {
        let data = SynthSpec {
            name: "lg".to_string(),
            dims: vec![
                DimSpec::named("season", &["Winter", "Summer"]),
                DimSpec::named("region", &["East", "West"]),
            ],
            targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
            rows: 200,
        }
        .generate(3, 1.0);
        let config = Configuration::new("lg", &["season", "region"], &["delay"]);
        let faults = Arc::new(FaultPlan::new(1).rule_every(
            FaultSite::Ingest,
            Fault::Latency(Duration::from_millis(100)),
            1,
        ));
        let service = Arc::new(
            ServiceBuilder::new()
                .workers(1)
                .fault_plan(Arc::clone(&faults))
                .build(),
        );
        let mut row = data.table.iter_rows().next().expect("a row");
        service
            .register_dataset(
                TenantSpec::new("lg", data, config).ingest(IngestBuilder::new().max_dirty(1)),
            )
            .expect("registers");
        let frontend = FrontEnd::builder(Arc::clone(&service))
            .workers(2)
            .no_flush_tick()
            .build();

        // One ingest batch first, then 40 responds over the next 80 ms.
        row[0] = Value::str(if row[0].as_str() == Some("Winter") {
            "Summer"
        } else {
            "Winter"
        });
        let mut offsets = vec![Duration::ZERO];
        let mut events = vec![Event::Ingest {
            tenant: "lg".to_string(),
            deltas: vec![RowDelta::Update {
                row: 0,
                values: row,
            }],
        }];
        for i in 1..=40u64 {
            offsets.push(Duration::from_millis(2 * i));
            events.push(Event::Respond(ServiceRequest::new(
                "lg",
                "delay in Winter?",
            )));
        }
        faults.arm();
        let run = run(&frontend, &offsets, &events, || {});
        faults.disarm();

        assert_eq!(run.completions.len(), 41);
        let mut respond_latencies: Vec<Duration> = run
            .completions
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::Respond(_)))
            .map(Completion::latency)
            .collect();
        respond_latencies.sort();
        let p50 = respond_latencies[respond_latencies.len() / 2];
        assert!(
            p50 < Duration::from_millis(20),
            "responds behind a 100 ms batch were stamped late: p50 {p50:?}"
        );
        let ingest = run
            .completions
            .iter()
            .find(|c| matches!(c.outcome, Outcome::Ingest(_)))
            .expect("ingest completed");
        assert!(ingest.latency() >= Duration::from_millis(100));
    }
}
