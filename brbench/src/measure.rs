//! What the benchmark reads from outside the program: process clocks and
//! memory from procfs, and the user-visible outcome of a run from the hop
//! ledger, the metrics and the convergence audit.

use bladerunner::fault::ConvergenceReport;
use bladerunner::sim::SystemSim;
use simkit::snap::Fp64;
use simkit::trace::{DropReason, Hop, HopOutcome, TraceId};

/// Every drop reason, in tag order. [`classify`] is an exhaustive match,
/// so a new reason fails to compile until it is classified; this list is
/// what the `drop.<reason>` metrics iterate.
pub const DROP_REASONS: [DropReason; 14] = [
    DropReason::LanguageFilter,
    DropReason::QualityFilter,
    DropReason::Stale,
    DropReason::PrivacyBlock,
    DropReason::RateLimit,
    DropReason::BufferOverflow,
    DropReason::NotFound,
    DropReason::NoSubscribers,
    DropReason::DeviceDisconnected,
    DropReason::LastMileLoss,
    DropReason::HostDown,
    DropReason::MailboxOverflow,
    DropReason::FlowControl,
    DropReason::NoAudience,
];

/// The hops whose p99 the traced run prints, in pipeline order.
pub const HOPS: [Hop; 7] = [
    Hop::TaoCommit,
    Hop::PylonPublish,
    Hop::PylonDeliver,
    Hop::BrassProcess,
    Hop::BrassSend,
    Hop::BurstDeliver,
    Hop::DeviceRender,
];

/// Whether a drop is an intended outcome of policy or a failure to
/// deliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropKind {
    Policy,
    Failure,
}

pub fn classify(reason: DropReason) -> DropKind {
    match reason {
        DropReason::LanguageFilter
        | DropReason::QualityFilter
        | DropReason::Stale
        | DropReason::PrivacyBlock
        | DropReason::RateLimit
        | DropReason::BufferOverflow
        | DropReason::NotFound
        | DropReason::NoSubscribers
        | DropReason::NoAudience => DropKind::Policy,
        DropReason::DeviceDisconnected
        | DropReason::LastMileLoss
        | DropReason::HostDown
        | DropReason::MailboxOverflow
        | DropReason::FlowControl => DropKind::Failure,
    }
}

/// The highest percentile at or below `wanted` that has at least ten
/// samples beyond it among `n`, or `None` when even the median has not.
pub fn supported_quantile(n: usize, wanted: f64) -> Option<f64> {
    const LADDER: [f64; 7] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5, 0.0];
    LADDER
        .into_iter()
        .filter(|&q| q <= wanted && q > 0.0)
        .find(|&q| (n as f64) * (1.0 - q) >= 10.0)
}

/// Nearest-rank quantile of sorted values.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The user-visible outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Problems that make the run incorrect (empty when correct).
    pub failures: Vec<String>,
    /// Ledger traces and how many of them failed.
    pub traces: u64,
    pub failed_traces: u64,
    /// Commit-to-render latency of every delivery (µs), sorted.
    pub e2e_us: Vec<u64>,
    /// Drop records per reason, in [`DROP_REASONS`] order.
    pub drops: [u64; 14],
    /// Digest of deliveries, the drop table and the ledger hash.
    pub digest: u64,
}

impl Outcome {
    /// The outcomes of several runs taken together: deliveries, traces and
    /// drops summed, every failure kept, the digests folded in order.
    pub fn pooled(outcomes: &[Outcome]) -> Outcome {
        let mut fp = Fp64::new();
        let mut all = Outcome {
            failures: Vec::new(),
            traces: 0,
            failed_traces: 0,
            e2e_us: Vec::new(),
            drops: [0; 14],
            digest: 0,
        };
        for o in outcomes {
            all.failures.extend(o.failures.iter().cloned());
            all.traces += o.traces;
            all.failed_traces += o.failed_traces;
            all.e2e_us.extend_from_slice(&o.e2e_us);
            for (sum, n) in all.drops.iter_mut().zip(o.drops) {
                *sum += n;
            }
            fp.mix_u64(o.digest);
        }
        all.e2e_us.sort_unstable();
        all.digest = fp.value();
        all
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Failed traces over all traces; every trace counts as failed when
    /// the run is incorrect.
    pub fn failed_share(&self) -> f64 {
        if !self.correct() {
            return 1.0;
        }
        self.failed_traces as f64 / self.traces.max(1) as f64
    }

    /// Simulated latency at `q` and the percentile actually reported.
    pub fn sim_latency_ms(&self, q: f64) -> (f64, f64) {
        let used = supported_quantile(self.e2e_us.len(), q).unwrap_or(0.5);
        (nearest_rank(&self.e2e_us, used) as f64 / 1e3, used)
    }
}

/// Audits a finished run: the convergence report, the workload's own
/// gates, and the ledger's per-trace outcome.
pub fn audit(sim: &SystemSim, gate_failures: Vec<String>) -> Outcome {
    let report = sim.convergence_report();
    let ledger = sim.trace_ledger();
    // A trace fails if any of its drop records names a failure reason and
    // no backfill recovered it, or if the ledger cannot account for it.
    let mut failed: Vec<TraceId> = ledger
        .records()
        .iter()
        .filter(|r| match r.outcome {
            HopOutcome::Dropped(reason) => classify(reason) == DropKind::Failure,
            _ => false,
        })
        .map(|r| r.trace_id)
        .collect();
    failed.sort_unstable();
    failed.dedup();
    failed.retain(|&t| !ledger.is_backfilled(t));
    let unaccounted = ledger.unaccounted();
    let mut e2e_us: Vec<u64> = ledger
        .deliveries()
        .iter()
        .map(|&(_, d)| d.as_micros())
        .collect();
    e2e_us.sort_unstable();
    let mut drops = [0u64; 14];
    let mut fp = Fp64::new();
    for (hop, reason, n) in ledger.drop_table() {
        let i = DROP_REASONS
            .iter()
            .position(|&r| r == reason)
            .expect("listed");
        drops[i] += n;
        fp.mix_bytes(hop.name().as_bytes());
        fp.mix_bytes(reason.name().as_bytes());
        fp.mix_u64(n);
    }
    fp.mix_u64(sim.metrics().deliveries.get());
    fp.mix_u64(ledger.delivered_count());
    fp.mix_u64(ledger.fingerprint());
    let traces = ledger.trace_count() as u64;
    drop(ledger);
    Outcome {
        failures: correctness_failures(&report, gate_failures),
        traces,
        failed_traces: (failed.len() + unaccounted.len()) as u64,
        e2e_us,
        drops,
        digest: fp.value(),
    }
}

/// Everything that makes a run incorrect: convergence violations (which
/// include unaccounted traces) and the workload's gate failures.
pub fn correctness_failures(report: &ConvergenceReport, gate: Vec<String>) -> Vec<String> {
    let mut failures = report.failures();
    if !report.converged() && failures.is_empty() {
        failures.push("convergence audit failed".to_string());
    }
    if !report.unaccounted.is_empty() && failures.is_empty() {
        failures.push(format!("{} unaccounted traces", report.unaccounted.len()));
    }
    failures.extend(gate);
    failures
}

/// Process CPU time (user + system, all threads), seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // `_SC_CLK_TCK` is 100 on every Linux ABI.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bladerunner::fault::ConvergenceReport;
    use burst::frame::StreamId;

    #[test]
    fn each_drop_reason_is_pinned_to_policy_or_failure() {
        use DropKind::*;
        let expected = [
            ("language_filter", Policy),
            ("quality_filter", Policy),
            ("stale", Policy),
            ("privacy_block", Policy),
            ("rate_limit", Policy),
            ("buffer_overflow", Policy),
            ("not_found", Policy),
            ("no_subscribers", Policy),
            ("device_disconnected", Failure),
            ("last_mile_loss", Failure),
            ("host_down", Failure),
            ("mailbox_overflow", Failure),
            ("flow_control", Failure),
            ("no_audience", Policy),
        ];
        assert_eq!(DROP_REASONS.len(), expected.len());
        for (reason, (name, kind)) in DROP_REASONS.iter().zip(expected) {
            assert_eq!(reason.name(), name);
            assert_eq!(classify(*reason), kind, "{name}");
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(supported_quantile(1_000, 0.99), Some(0.99));
        assert_eq!(supported_quantile(999, 0.99), Some(0.95));
        assert_eq!(supported_quantile(200, 0.99), Some(0.95));
        assert_eq!(supported_quantile(199, 0.99), Some(0.9));
        assert_eq!(supported_quantile(20, 0.99), Some(0.5));
        assert_eq!(supported_quantile(19, 0.99), None);
        assert_eq!(supported_quantile(100_000, 0.5), Some(0.5));
        for n in [20usize, 100, 999, 1_000, 46_000] {
            let q = supported_quantile(n, 0.99).unwrap();
            assert!((n as f64) * (1.0 - q) >= 10.0, "n={n} q={q}");
        }
    }

    #[test]
    fn pooled_outcomes_sum_traces_and_merge_deliveries() {
        let one = |failures: Vec<String>, e2e_us: Vec<u64>, digest| Outcome {
            failures,
            traces: 10,
            failed_traces: 3,
            e2e_us,
            drops: [1; 14],
            digest,
        };
        let a = one(Vec::new(), vec![1, 5, 9], 1);
        let b = one(vec!["stranded stream".into()], vec![2, 3], 2);
        let all = Outcome::pooled(&[a.clone(), b.clone()]);
        assert_eq!((all.traces, all.failed_traces), (20, 6));
        assert_eq!(all.e2e_us, vec![1, 2, 3, 5, 9]);
        assert_eq!(all.drops, [2; 14]);
        assert!(!all.correct());
        assert_eq!(all.failed_share(), 1.0);
        assert_ne!(all.digest, Outcome::pooled(&[b, a]).digest);
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn a_planted_convergence_violation_fails_the_run() {
        let clean = ConvergenceReport::default().finish();
        assert!(correctness_failures(&clean, Vec::new()).is_empty());

        let planted = ConvergenceReport {
            stranded: vec![(7, StreamId(1))],
            ..ConvergenceReport::default()
        }
        .finish();
        let failures = correctness_failures(&planted, Vec::new());
        assert!(!failures.is_empty());
        let outcome = Outcome {
            failures,
            traces: 10,
            failed_traces: 0,
            e2e_us: vec![1; 100],
            drops: [0; 14],
            digest: 0,
        };
        assert!(!outcome.correct());
        assert_eq!(outcome.failed_share(), 1.0, "every trace counts as failed");
    }

    #[test]
    fn an_unaccounted_trace_fails_the_run() {
        let planted = ConvergenceReport {
            unaccounted: vec![TraceId(3)],
            ..ConvergenceReport::default()
        }
        .finish();
        assert!(!correctness_failures(&planted, Vec::new()).is_empty());
    }

    #[test]
    fn a_gate_failure_fails_the_run() {
        let clean = ConvergenceReport::default().finish();
        let failures = correctness_failures(&clean, vec!["p99 over bound".to_string()]);
        assert_eq!(failures, vec!["p99 over bound".to_string()]);
    }
}
