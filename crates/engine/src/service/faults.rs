//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a seeded, deterministic schedule of faults imposed
//! at named sites inside the service ([`FaultSite`]). The chaos suite
//! arms a plan against a live [`VoiceService`](crate::service::VoiceService)
//! and then asserts the serving invariants hold — every ticket completes,
//! workers survive injected panics, refreshes stay fail-atomic — while the
//! plan injects latency, panics, and forced solver timeouts. A latency
//! fault ends as soon as its plan is disarmed, so a test can hold a
//! thread inside one and release it on demand.
//!
//! Determinism contract: whether the *i*-th draw at a given site fires is
//! a pure function of `(seed, site, i, rule)`. Each site keeps its own
//! atomic draw counter, so the schedule at one site does not depend on
//! thread interleaving at another. (The *assignment* of draws to requests
//! still depends on arrival order; tests that need a specific request to
//! fault pin the worker count or use [`Trigger::Every`] with a single
//! lane.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A named injection point inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Entry of the respond path (front-end worker or direct call).
    Respond,
    /// Entry of [`refresh_tenant`](crate::service::VoiceService::refresh_tenant).
    Refresh,
    /// Entry of [`register_dataset`](crate::service::VoiceService::register_dataset).
    Register,
    /// Entry of [`ingest`](crate::service::VoiceService::ingest) (and
    /// the other streaming-delta entry points), *before* any delta is
    /// accepted into the log — so an injected fault never leaves a batch
    /// partially applied, and its error means nothing was accepted.
    /// Faults inside a flush are not injected here.
    Ingest,
}

impl FaultSite {
    /// Stable lowercase name used in injected panic messages and errors.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Respond => "respond",
            FaultSite::Refresh => "refresh",
            FaultSite::Register => "register",
            FaultSite::Ingest => "ingest",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Respond => 0,
            FaultSite::Refresh => 1,
            FaultSite::Register => 2,
            FaultSite::Ingest => 3,
        }
    }
}

const SITE_COUNT: usize = 4;

/// How often a thread inside a latency fault checks whether the plan
/// was disarmed.
const DISARM_POLL: Duration = Duration::from_millis(1);

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sleep for the given duration before proceeding, or until the
    /// plan is disarmed, whichever comes first.
    Latency(Duration),
    /// Panic with a message naming the site (containment is the caller's
    /// responsibility — the front-end catches these, direct calls don't).
    Panic,
    /// Report a forced solver timeout: registration, refresh and ingest
    /// map it to a typed internal error; the respond path ignores it.
    SolverTimeout,
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on each draw independently with this probability.
    Probability(f64),
    /// Fire on every `n`-th draw at the site (draws `n-1`, `2n-1`, …).
    Every(u64),
}

#[derive(Debug, Clone)]
struct Rule {
    fault: Fault,
    trigger: Trigger,
}

/// A seeded, deterministic schedule of injected faults.
///
/// Plans start **disarmed**: every site check is a single relaxed atomic
/// load until [`FaultPlan::arm`] is called, so a plan can be threaded
/// through a service unconditionally at negligible cost.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    armed: AtomicBool,
    rules: [Vec<Rule>; SITE_COUNT],
    draws: [AtomicU64; SITE_COUNT],
    injected: AtomicU64,
}

impl FaultPlan {
    /// A new, disarmed plan with no rules.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            armed: AtomicBool::new(false),
            rules: std::array::from_fn(|_| Vec::new()),
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: AtomicU64::new(0),
        }
    }

    /// Add a probabilistic rule: at `site`, impose `fault` on each draw
    /// independently with probability `probability` (clamped to `[0, 1]`).
    pub fn rule(mut self, site: FaultSite, fault: Fault, probability: f64) -> Self {
        self.rules[site.index()].push(Rule {
            fault,
            trigger: Trigger::Probability(probability.clamp(0.0, 1.0)),
        });
        self
    }

    /// Add a periodic rule: at `site`, impose `fault` on every `n`-th
    /// draw (`n` of 0 is treated as 1, i.e. every draw).
    pub fn rule_every(mut self, site: FaultSite, fault: Fault, n: u64) -> Self {
        self.rules[site.index()].push(Rule {
            fault,
            trigger: Trigger::Every(n.max(1)),
        });
        self
    }

    /// Start imposing faults.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stop imposing faults (draw counters keep their positions).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the plan is currently imposing faults.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Total faults imposed since construction (all sites, all kinds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decide which fault (if any) the next draw at `site` imposes.
    ///
    /// Draw counters advance only while armed, so a disarmed plan is
    /// re-armable without perturbing the schedule positions.
    fn decide(&self, site: FaultSite) -> Option<Fault> {
        if !self.is_armed() {
            return None;
        }
        let s = site.index();
        let rules = &self.rules[s];
        if rules.is_empty() {
            return None;
        }
        let draw = self.draws[s].fetch_add(1, Ordering::Relaxed);
        for (r, rule) in rules.iter().enumerate() {
            let fires = match rule.trigger {
                Trigger::Probability(p) => {
                    // splitmix64-style mix of (seed, site, draw, rule):
                    // pure, so the i-th draw at a site is deterministic
                    // regardless of which thread performs it.
                    let mut z = self
                        .seed
                        .wrapping_add((s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add(draw.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                        .wrapping_add((r as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    ((z >> 11) as f64 / (1u64 << 53) as f64) < p
                }
                Trigger::Every(n) => draw % n == n - 1,
            };
            if fires {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(rule.fault);
            }
        }
        None
    }

    /// Impose the next scheduled fault at `site`, if any.
    ///
    /// Latency faults sleep here until their duration passes or the
    /// plan is disarmed; panic faults panic with a message naming the
    /// site; solver-timeout faults return `true` so the caller can
    /// simulate an expired solve. Returns `false` when no fault fires.
    pub fn impose(&self, site: FaultSite) -> bool {
        match self.decide(site) {
            None => false,
            Some(Fault::Latency(d)) => {
                let end = Instant::now() + d;
                while self.is_armed() {
                    let left = end.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::sleep(left.min(DISARM_POLL));
                }
                false
            }
            Some(Fault::Panic) => {
                panic!("injected fault: panic at {}", site.name())
            }
            Some(Fault::SolverTimeout) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_fires() {
        let plan = FaultPlan::new(7).rule(FaultSite::Respond, Fault::Panic, 1.0);
        for _ in 0..100 {
            assert!(!plan.impose(FaultSite::Respond));
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn probability_schedule_is_deterministic_per_seed() {
        let fires = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).rule(FaultSite::Refresh, Fault::SolverTimeout, 0.5);
            plan.arm();
            (0..64).map(|_| plan.impose(FaultSite::Refresh)).collect()
        };
        assert_eq!(fires(42), fires(42));
        assert_ne!(fires(42), fires(43));
        // ~0.5 probability actually fires a plausible fraction.
        let n = fires(42).iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&n), "fired {n}/64");
    }

    #[test]
    fn every_n_fires_on_exact_draws() {
        let plan = FaultPlan::new(0).rule_every(FaultSite::Register, Fault::SolverTimeout, 3);
        plan.arm();
        let fired: Vec<bool> = (0..9).map(|_| plan.impose(FaultSite::Register)).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn sites_draw_independently() {
        let plan = FaultPlan::new(5)
            .rule_every(FaultSite::Respond, Fault::SolverTimeout, 2)
            .rule_every(FaultSite::Refresh, Fault::SolverTimeout, 2);
        plan.arm();
        // Interleaved draws: each site sees its own counter.
        assert!(!plan.impose(FaultSite::Respond));
        assert!(!plan.impose(FaultSite::Refresh));
        assert!(plan.impose(FaultSite::Respond));
        assert!(plan.impose(FaultSite::Refresh));
    }

    #[test]
    fn injected_panic_names_the_site() {
        let plan = FaultPlan::new(1).rule_every(FaultSite::Respond, Fault::Panic, 1);
        plan.arm();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.impose(FaultSite::Respond)
        }))
        .unwrap_err();
        let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("injected fault: panic at respond"), "{text}");
    }

    #[test]
    fn disarm_pauses_without_resetting_schedule() {
        let plan = FaultPlan::new(0).rule_every(FaultSite::Respond, Fault::SolverTimeout, 2);
        plan.arm();
        assert!(!plan.impose(FaultSite::Respond)); // draw 0
        plan.disarm();
        for _ in 0..10 {
            assert!(!plan.impose(FaultSite::Respond)); // no draws consumed
        }
        plan.arm();
        assert!(plan.impose(FaultSite::Respond)); // draw 1 fires
    }

    #[test]
    fn disarm_releases_a_thread_held_in_a_latency_fault() {
        let plan = std::sync::Arc::new(FaultPlan::new(0).rule_every(
            FaultSite::Respond,
            Fault::Latency(Duration::from_secs(60)),
            1,
        ));
        plan.arm();
        let (done, returned) = std::sync::mpsc::channel();
        let held = {
            let plan = std::sync::Arc::clone(&plan);
            std::thread::spawn(move || {
                plan.impose(FaultSite::Respond);
                let _ = done.send(());
            })
        };
        // The draw is counted before the sleep starts.
        while plan.injected() == 0 {
            std::thread::yield_now();
        }
        plan.disarm();
        returned
            .recv_timeout(Duration::from_secs(5))
            .expect("the held thread did not return after the disarm");
        held.join().expect("the held thread finished");
    }

    #[test]
    fn an_armed_latency_fault_sleeps_its_duration() {
        let latency = Duration::from_millis(30);
        let plan = FaultPlan::new(0).rule_every(FaultSite::Respond, Fault::Latency(latency), 1);
        plan.arm();
        let start = Instant::now();
        assert!(!plan.impose(FaultSite::Respond));
        let slept = start.elapsed();
        assert!(slept >= latency, "slept only {slept:?}");
        assert!(slept < Duration::from_secs(5), "slept {slept:?}");
    }
}
