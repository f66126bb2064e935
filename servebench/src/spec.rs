//! The four workloads and their frozen load parameters.
//!
//! Offered rates were set once on the commit that defined this
//! benchmark (2-core host) and are frozen: a later change is measured
//! at the same offered rate as its parent. `fresh`, `repeat` and
//! `fleet-mixed` run at about half of their `sustained_rps`; `neural`
//! runs at about a third, because at half its decode queue made the
//! latency percentiles spread by more than half their median from run
//! to run. Latency limits come from the paper's Table 6 per-plan
//! response times (RULE-LANTERN 15 ms, NEURAL-LANTERN 216 ms).

/// Which deployment and traffic a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One replica, every request a distinct plan (cold misses).
    Fresh,
    /// One replica, 90% verbatim repeats from a 64-plan history.
    Repeat,
    /// Coordinator + 2 one-worker replicas; singles, batches, diffs and
    /// periodic catalog writes.
    Fleet,
    /// One replica serving the trained NEURAL-LANTERN backend.
    Neural,
}

/// One workload: what it sends, why, and its frozen load parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
    /// Open-loop offered rate for the latency phase, requests/s.
    pub offered_rps: f64,
    /// p99 latency limit (from intended send time) for `sustained_rps`, ms.
    pub limit_ms: f64,
}

/// Ratio between neighbouring rates of the sustained-rate ladder (≤ 5%).
pub const LADDER_STEP: f64 = 1.04;
/// The ladder spans `[LADDER_LOW, LADDER_HIGH] × offered_rps`.
pub const LADDER_LOW: f64 = 0.5;
pub const LADDER_HIGH: f64 = 4.0;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "fresh",
        kind: Kind::Fresh,
        why: "distinct plans to one replica, so parse, fingerprint, narration, render and the event core all do full work",
        offered_rps: 5000.0,
        limit_ms: 15.0,
    },
    Spec {
        name: "repeat",
        kind: Kind::Repeat,
        why: "90% verbatim repeats of a 64-plan history to one replica, so the exact-text cache answers and render plus the worker hop dominate",
        offered_rps: 12000.0,
        limit_ms: 15.0,
    },
    Spec {
        name: "fleet-mixed",
        kind: Kind::Fleet,
        why: "coordinator over 2 replicas with singles, batches of 8, diffs and periodic catalog writes, so routing, fan-out and writes run beside reads",
        offered_rps: 400.0,
        limit_ms: 15.0,
    },
    Spec {
        name: "neural",
        kind: Kind::Neural,
        why: "NEURAL-LANTERN backend (beam 4) on distinct plans, so model decoding dominates and training lands in set-up",
        offered_rps: 120.0,
        limit_ms: 216.0,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The sustained-rate ladder: geometric rates from
    /// `LADDER_LOW × offered` up to `LADDER_HIGH × offered`.
    pub fn ladder(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut rate = self.offered_rps * LADDER_LOW;
        while rate <= self.offered_rps * LADDER_HIGH {
            rates.push(rate);
            rate *= LADDER_STEP;
        }
        rates
    }
}
