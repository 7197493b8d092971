//! The repository's benchmark: runs one named workload of the Bladerunner
//! simulator from a seed, checks its outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path brbench/Cargo.toml -- \
//!     --workload steady_fanout --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with one worker
//! thread and the span recorder off. `--trace 1` prints the per-layer
//! metrics: counts from the program's public counters, spans from the
//! benchmark's own calls into the simulator, and probes of the layer
//! crates. `--steadiness N` reruns every workload N times in child
//! processes (seeds `seed..seed+N`, or `seed` every time with
//! `--same-seed 1`) and reports the spread of each end-to-end metric. The last
//! line of standard output is always one JSON object; see README.md.

mod catalog;
mod measure;
mod probes;
mod reference;
mod spans;
mod steady;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use simkit::time::SimTime;

use crate::measure::{Outcome, DROP_REASONS, HOPS};
use crate::reference::Gauge;
use crate::spans::Recorder;
use crate::workload::{Instance, Workload};

/// Each run repeats its workload once per sub-seed at least, after one
/// warm-up repetition that grows the heap and is left out of the timings.
/// It pools this many simulator seeds, derived from `--seed`, so the
/// deterministic metrics average over several draws of the workload.
const SUB_SEEDS: u64 = 3;
/// `setup_s` samples, taken in a fresh heap before the warm-up, and the
/// builds timed together as one sample.
const SETUP_SAMPLES: usize = 16;
const SETUP_BATCH: usize = 4;

/// The simulator seed of sub-seed `i` of run seed `seed`.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed * SUB_SEEDS + i
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: usize,
    same_seed: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        steadiness: 0,
        same_seed: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--steadiness" => args.steadiness = value.parse().map_err(|_| bad())?,
            "--same-seed" => {
                args.same_seed = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("brbench: {e}");
            std::process::exit(2);
        }
    };
    if args.steadiness > 0 {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        std::process::exit(steady::run(
            &workloads,
            args.steadiness,
            args.seed,
            args.same_seed,
            args.seconds,
        ));
    }
    let Some(workload) = args.workload else {
        eprintln!("brbench: --workload is required");
        std::process::exit(2);
    };
    if args.trace {
        run_layers(workload, args.seed, args.seconds);
    } else {
        run_end_to_end(workload, args.seed, args.seconds);
    }
}

/// Builds the workload; returns the instance and the set-up wall time.
fn set_up(w: Workload, seed: u64, workers: usize, rec: &mut Recorder) -> (Instance, f64) {
    let span = rec.enter("setup");
    let t = Instant::now();
    let mut d = w.build(seed, rec);
    d.sim.set_workers(workers);
    let setup_s = t.elapsed().as_secs_f64();
    rec.exit(span);
    (d, setup_s)
}

/// One repetition of the workload.
struct Rep {
    run_s: f64,
    cpu_s: f64,
    /// The host's slowness over the run (1 without a gauge).
    slowness: f64,
    outcome: Outcome,
    /// Kept alive only when the caller asks (the traced run snapshots it).
    instance: Option<Instance>,
    /// Counter samples taken after every chunk (traced runs only).
    timeline: Vec<String>,
}

fn run_rep(
    w: Workload,
    seed: u64,
    workers: usize,
    rec: &mut Recorder,
    keep: bool,
    mut gauge: Option<&mut Gauge>,
) -> Rep {
    let root = rec.enter("rep");
    let (mut d, _) = set_up(w, seed, workers, rec);
    let mut timeline = Vec::new();
    let run = rec.enter("run");
    if let Some(g) = gauge.as_mut() {
        g.open();
    }
    let cpu0 = measure::cpu_seconds();
    let t = Instant::now();
    let mut now = SimTime::ZERO;
    while now < d.end {
        let next = (now + d.chunk).min(d.end);
        let chunk = rec.enter("chunk");
        d.sim.run_until(next);
        rec.exit(chunk);
        if rec.is_on() {
            timeline.push(sample_counters(&d));
        }
        if let Some(g) = gauge.as_mut() {
            g.tick();
        }
        now = next;
    }
    let mut run_s = t.elapsed().as_secs_f64();
    let mut cpu_s = measure::cpu_seconds() - cpu0;
    let mut slowness = 1.0;
    if let Some(g) = gauge {
        let (s, paused, paused_cpu) = g.close();
        slowness = s;
        run_s -= paused;
        cpu_s -= paused_cpu;
    }
    rec.exit(run);
    let audit = rec.enter("audit");
    let outcome = measure::audit(&d.sim, d.gate(w));
    rec.exit(audit);
    rec.exit(root);
    Rep {
        run_s,
        cpu_s,
        slowness,
        outcome,
        instance: keep.then_some(d),
        timeline,
    }
}

/// One CSV row of the program's public counters.
fn sample_counters(d: &Instance) -> String {
    let s = d.sim.event_stats();
    let m = d.sim.metrics();
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        d.sim.now().as_micros(),
        s.total,
        s.workload,
        s.pylon,
        s.brass,
        s.transport_up,
        s.transport_down,
        s.device_churn,
        s.faults,
        s.heartbeats,
        m.deliveries.get(),
        m.mailbox_sheds.get(),
        m.flow_sheds.get(),
        m.backfills.get(),
        m.q_brass_mailbox.current(),
    )
}

const TIMELINE_HEADER: &str = "sim_us,events,workload,pylon,brass,up,down,churn,faults,\
                               heartbeats,deliveries,mailbox_sheds,flow_sheds,backfills,\
                               mailbox_depth";

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Tracks correctness across every repetition of one process: each must
/// pass its own checks, and all repetitions of one simulator seed must
/// produce the same digest.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    digests: Vec<(u64, u64)>,
    problems: Vec<String>,
}

impl Verdict {
    fn note(&mut self, label: &str, sim_seed: u64, o: &Outcome) {
        self.attempted += 1;
        let mut ok = o.correct();
        for f in &o.failures {
            self.problems.push(format!("{label}: {f}"));
        }
        match self.digests.iter().find(|(s, _)| *s == sim_seed) {
            None => self.digests.push((sim_seed, o.digest)),
            Some(&(_, d)) if d != o.digest => {
                ok = false;
                self.problems.push(format!(
                    "{label}: output digest {:016x} differs from {d:016x} for seed {sim_seed}",
                    o.digest
                ));
            }
            Some(_) => {}
        }
        if !ok {
            self.failed += 1;
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn print_result(v: &Verdict, metrics: &[(String, f64, &str)]) {
    for p in &v.problems {
        eprintln!("INCORRECT {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted,
        v.failed,
        body.join(", ")
    );
}

fn print_outputs(w: Workload, seed: &str, o: &Outcome) {
    let (p50, _) = o.sim_latency_ms(0.5);
    let (p99, q) = o.sim_latency_ms(0.99);
    println!(
        "{} seed {seed}: digest {:016x}, {} deliveries (sim p50 {p50:.3} ms, p{} {p99:.3} ms), \
         failed traces {}/{}",
        w.name(),
        o.digest,
        o.e2e_us.len(),
        q * 100.0,
        o.failed_traces,
        o.traces,
    );
    let drops: Vec<String> = DROP_REASONS
        .iter()
        .zip(o.drops)
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("{}={n}", r.name()))
        .collect();
    println!("  drops: {}", drops.join(" "));
}

/// Untraced: repeat the workload for `seconds`, one worker thread, and
/// report medians over the repetitions. Every time is divided by the
/// host's slowness over the same interval (see `reference.rs`); the raw
/// times are printed alongside.
fn run_end_to_end(w: Workload, seed: u64, seconds: f64) {
    let mut rec = Recorder::new(false);
    let started = Instant::now();
    let mut gauge = Gauge::new();
    let mut verdict = Verdict::default();
    let (mut setups, mut runs, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_setups, mut raw_runs) = (Vec::new(), Vec::new());
    // The first outcome of each sub-seed, pooled for the deterministic
    // metrics; later repetitions cycle through the sub-seeds again.
    let mut outcomes = Vec::new();
    // Set-up samples first, while the heap holds nothing but freed
    // builds: after whole runs the same build is about a tenth slower on
    // steady_fanout. One build off the record pays the first page faults.
    drop(set_up(w, sub_seed(seed, 0), 1, &mut rec));
    for i in 0..SETUP_SAMPLES {
        let sim_seed = sub_seed(seed, i as u64 % SUB_SEEDS);
        // A batch of builds, each timed up to its first `run_until` and
        // dropped off the clock, between two reference slices: the host
        // changes speed within a second.
        gauge.open();
        let mut batch_s = 0.0;
        for _ in 0..SETUP_BATCH {
            let (d, s) = set_up(w, sim_seed, 1, &mut rec);
            batch_s += s;
            drop(d);
        }
        let (slowness, _, _) = gauge.close();
        raw_setups.push(batch_s / SETUP_BATCH as f64);
        setups.push(batch_s / SETUP_BATCH as f64 / slowness);
    }
    let first = sub_seed(seed, 0);
    let warm_up = run_rep(w, first, 1, &mut rec, false, None);
    verdict.note("warm-up", first, &warm_up.outcome);
    drop(warm_up);
    // One repetition's peak, before later ones add fragmentation.
    let peak_rss_mib = measure::peak_rss_mib() - gauge.own_rss_mib;
    let measuring = Instant::now();
    loop {
        let sim_seed = sub_seed(seed, runs.len() as u64 % SUB_SEEDS);
        let rep = run_rep(w, sim_seed, 1, &mut rec, false, Some(&mut gauge));
        raw_runs.push(rep.run_s);
        runs.push(rep.run_s / rep.slowness);
        cpus.push(rep.cpu_s / rep.slowness);
        verdict.note(&format!("rep {}", runs.len()), sim_seed, &rep.outcome);
        if outcomes.len() < SUB_SEEDS as usize {
            outcomes.push(rep.outcome);
        }
        let per_rep = measuring.elapsed().as_secs_f64() / runs.len() as f64;
        if runs.len() >= SUB_SEEDS as usize && started.elapsed().as_secs_f64() + per_rep > seconds {
            break;
        }
    }
    let o = Outcome::pooled(&outcomes);
    let seeds = format!("{}..={}", first, sub_seed(seed, SUB_SEEDS - 1));
    print_outputs(w, &seeds, &o);
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    println!(
        "  {} reps: run_s {:?}, raw {:?}; setup_s {:.5} (min {:.5}, max {:.5}) of \
         {SETUP_SAMPLES} batches of {SETUP_BATCH}, raw {:.5}",
        runs.len(),
        ms(&runs),
        ms(&raw_runs),
        median(&setups),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
        median(&raw_setups),
    );
    let failed_share = if verdict.correct() {
        o.failed_share()
    } else {
        1.0
    };
    let metrics = vec![
        ("run_s".to_string(), median(&runs), "s"),
        ("cpu_s".to_string(), median(&cpus), "s"),
        ("setup_s".to_string(), median(&setups), "s"),
        ("peak_rss_mib".to_string(), peak_rss_mib, "MiB"),
        ("sim_p50_ms".to_string(), o.sim_latency_ms(0.5).0, "ms"),
        ("sim_p99_ms".to_string(), o.sim_latency_ms(0.99).0, "ms"),
        ("failed_share".to_string(), failed_share, "ratio"),
    ];
    print_result(&verdict, &metrics);
}

/// Traced: after a warm-up, cycles of an untraced run, a traced run and a
/// two-worker run, then the layer probes. Counts come from the first
/// traced run; timings are medians over the cycles, the three runs' times
/// divided by the host's slowness as in the untraced mode.
fn run_layers(w: Workload, seed: u64, seconds: f64) {
    let started = Instant::now();
    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let mut verdict = Verdict::default();
    let (mut plain, mut traced, mut two) = (Vec::new(), Vec::new(), Vec::new());
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut first: Option<Rep> = None;
    let mut cycle = 0u32;
    // One simulator seed throughout, the first of the untraced run's.
    let seed = sub_seed(seed, 0);
    let mut gauge = Gauge::new();
    let warm_up = run_rep(w, seed, 1, &mut off, false, None);
    verdict.note("warm-up", seed, &warm_up.outcome);
    let measuring = Instant::now();
    loop {
        let p = run_rep(w, seed, 1, &mut off, false, Some(&mut gauge));
        verdict.note("untraced", seed, &p.outcome);
        plain.push(p.run_s / p.slowness);

        rec.set_run(cycle);
        let mut t = run_rep(w, seed, 1, &mut rec, first.is_none(), Some(&mut gauge));
        verdict.note("traced", seed, &t.outcome);
        traced.push(t.run_s / t.slowness);
        if let Some(d) = t.instance.take() {
            values = layer_counts(&d, &t.outcome);
            let span = rec.enter("snapshot");
            let clock = Instant::now();
            let bytes = d.sim.snapshot();
            values.push(("simkit.snapshot_s".into(), clock.elapsed().as_secs_f64()));
            rec.exit(span);
            values.push((
                "simkit.snapshot_mib".into(),
                bytes.len() as f64 / (1024.0 * 1024.0),
            ));
            first = Some(t);
        }

        let two_workers = run_rep(w, seed, 2, &mut off, false, Some(&mut gauge));
        verdict.note("two workers", seed, &two_workers.outcome);
        two.push(two_workers.run_s / two_workers.slowness);

        cycle += 1;
        let per_cycle = measuring.elapsed().as_secs_f64() / f64::from(cycle);
        if started.elapsed().as_secs_f64() + per_cycle > seconds {
            break;
        }
    }
    let probe_span = rec.enter("probes");
    let probes = probes::run(w, seed);
    rec.exit(probe_span);

    let rep = first.expect("at least one traced run");
    print_outputs(w, &seed.to_string(), &rep.outcome);
    write_trace(w, seed, &rec, &rep.timeline);

    let chunk_ms: Vec<f64> = rec
        .durations("chunk", 0)
        .into_iter()
        .map(|x| x * 1e3)
        .collect();
    let per_run = |name: &str| -> f64 {
        let sums: Vec<f64> = (0..cycle)
            .map(|r| rec.durations(name, r).iter().sum())
            .collect();
        median(&sums)
    };
    let run_plain = median(&plain);
    let events = values
        .iter()
        .find(|(n, _)| n == "bladerunner.events_total")
        .map_or(1.0, |v| v.1);
    values.extend([
        ("bladerunner.ns_per_event".into(), run_plain / events * 1e9),
        ("bladerunner.chunk_ms_p50".into(), median(&chunk_ms)),
        (
            "bladerunner.chunk_ms_max".into(),
            chunk_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("bladerunner.audit_s".into(), per_run("audit")),
        ("bladerunner.speedup_w2".into(), run_plain / median(&two)),
        (
            "bladerunner.trace_overhead".into(),
            median(&traced) / run_plain,
        ),
        ("workload.setup_fleet_s".into(), per_run("fleet")),
        ("workload.inject_s".into(), per_run("inject")),
        ("simkit.queue_ns_per_op".into(), probes.queue_ns_per_op),
        ("pylon.publish_us_hot".into(), probes.publish_us_hot),
        ("pylon.publish_us_spread".into(), probes.publish_us_spread),
        ("edge.teardown_us".into(), probes.teardown_us),
        ("edge.teardown_growth".into(), probes.teardown_growth),
        ("edge.downstream_ns".into(), probes.downstream_ns),
    ]);
    println!(
        "  {cycle} cycles: untraced run_s {:.3}, traced {:.3}, two workers {:.3}",
        run_plain,
        median(&traced),
        median(&two)
    );
    let metrics: Vec<(String, f64, &str)> = catalog::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value for {name}"))
                .1;
            (name, v, unit)
        })
        .collect();
    print_result(&verdict, &metrics);
}

/// The per-layer counts of a finished run, read from the program's public
/// counters and its hop ledger.
fn layer_counts(d: &Instance, o: &Outcome) -> Vec<(String, f64)> {
    let sim = &d.sim;
    let s = sim.event_stats();
    let m = sim.metrics();
    let ledger = sim.trace_ledger();
    let policy_drops: u64 = DROP_REASONS
        .iter()
        .zip(o.drops)
        .filter(|(r, _)| measure::classify(**r) == measure::DropKind::Policy)
        .map(|(_, n)| n)
        .sum();
    let mut v: Vec<(String, u64)> = vec![
        ("bladerunner.events_total".into(), s.total),
        ("bladerunner.fault_events".into(), s.faults),
        ("workload.events".into(), s.workload),
        ("simkit.trace_records".into(), ledger.records().len() as u64),
        ("tao.events".into(), s.tao),
        ("tao.mutations".into(), m.mutations.get()),
        ("was.backfill_polls".into(), m.backfill_polls.get()),
        ("was.backfills".into(), m.backfills.get()),
        ("pylon.events".into(), s.pylon),
        ("pylon.publications".into(), m.publications.get()),
        ("pylon.fanout_peak".into(), m.q_pylon_fanout.peak()),
        ("brass.events".into(), s.brass),
        ("brass.mailbox_peak".into(), m.q_brass_mailbox.peak()),
        ("brass.mailbox_sheds".into(), m.mailbox_sheds.get()),
        ("brass.policy_drops".into(), policy_drops),
        ("burst.heartbeat_events".into(), s.heartbeats),
        ("burst.flow_sheds".into(), m.flow_sheds.get()),
        ("burst.flow_window_peak".into(), m.q_flow_window.peak()),
        ("edge.events_up".into(), s.transport_up),
        ("edge.events_down".into(), s.transport_down),
        ("edge.churn_events".into(), s.device_churn),
        ("edge.proxy_reconnects".into(), sim.total_proxy_reconnects()),
        (
            "edge.parked_devices".into(),
            sim.hibernation_census().0 as u64,
        ),
        ("edge.pop_egress_peak".into(), m.q_pop_egress.peak()),
    ];
    for (reason, n) in DROP_REASONS.iter().zip(o.drops) {
        v.push((format!("drop.{}", reason.name()), n));
    }
    let mut out: Vec<(String, f64)> = v.into_iter().map(|(n, x)| (n, x as f64)).collect();
    out.push((
        "brass.useful_ratio".into(),
        m.deliveries.get() as f64 / s.brass.max(1) as f64,
    ));
    for hop in HOPS {
        let p99 = ledger.hop_histogram(hop).map_or(0.0, |h| h.quantile(0.99));
        out.push((format!("hop.{}.p99_ms", hop.name()), p99));
    }
    out
}

/// Writes the spans (with self times) and the per-chunk counter samples
/// under `brbench/out/`.
fn write_trace(w: Workload, seed: u64, rec: &Recorder, timeline: &[String]) {
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let stem = format!("{}-seed{seed}", w.name());
    let spans_path = out_dir.join(format!("{stem}-spans.jsonl"));
    let timeline_path = out_dir.join(format!("{stem}-timeline.csv"));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| rec.write_jsonl(&spans_path))
        .and_then(|()| {
            std::fs::write(
                &timeline_path,
                format!("{TIMELINE_HEADER}\n{}\n", timeline.join("\n")),
            )
        });
    match written {
        Ok(()) => eprintln!(
            "spans: {}, timeline: {}",
            spans_path.display(),
            timeline_path.display()
        ),
        Err(e) => eprintln!("could not write the trace: {e}"),
    }
    print_self_times(rec);
}

/// Prints total and self time per span name, largest self time first.
fn print_self_times(rec: &Recorder) {
    let selfs = spans::self_times(rec.spans());
    let mut by_name: Vec<(&str, f64, f64, usize)> = Vec::new();
    for (s, self_ns) in rec.spans().iter().zip(selfs) {
        match by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += s.duration_ns() as f64 / 1e9;
                e.2 += self_ns as f64 / 1e9;
                e.3 += 1;
            }
            None => by_name.push((
                s.name,
                s.duration_ns() as f64 / 1e9,
                self_ns as f64 / 1e9,
                1,
            )),
        }
    }
    by_name.sort_by(|a, b| b.2.total_cmp(&a.2));
    eprintln!(
        "{:>10} {:>10} {:>10} {:>8}",
        "span", "total_s", "self_s", "count"
    );
    for (name, total, own, n) in by_name {
        eprintln!("{name:>10} {total:>10.4} {own:>10.4} {n:>8}");
    }
}
