//! The three workloads. Each builds a `SystemSim` from a seed and drives
//! it open loop in simulated time: arrivals are scheduled on the event
//! queue ahead of the clock and never wait on the system, so the
//! generator is never late. Latency is taken from the commit time.

use bladerunner::config::SystemConfig;
use bladerunner::fault::canned_plan;
use bladerunner::scenario::FlashCrowd;
use bladerunner::sim::SystemSim;
use pylon::PylonConfig;
use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Retention;
use tao::TaoConfig;

use crate::spans::Recorder;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyFanout,
    FlashCrowd,
    ChaosChurn,
}

/// steady_fanout: devices in the fleet (LVC audiences of ~500 per video).
pub const STEADY_DEVICES: usize = 10_000;
/// steady_fanout: comments per video over the 30 s comment window.
const STEADY_COMMENTS_PER_VIDEO: usize = 12;
/// steady_fanout: share of frames the last mile loses.
const STEADY_LAST_MILE_DROP: f64 = 0.0014;
/// steady_fanout: simulated seconds.
const STEADY_SECS: u64 = 60;
/// flash_crowd: viewers piling onto the one hot video.
pub const CROWD_VIEWERS: usize = 2_000;
/// flash_crowd: comments per second, 3x the 8 hosts' 100/s capacity.
const CROWD_RATE: f64 = 300.0;
/// flash_crowd: BRASS service time per update (100 updates/s per host).
const CROWD_SERVICE_US: u64 = 10_000;
/// flash_crowd: admitted-update p99 bound of the graceful-shed gate. LVC
/// batching alone puts the p99 near 11 s; the bounded mailbox may add
/// 200 x 10 ms = 2 s of queueing on top.
pub const CROWD_P99_BOUND_MS: f64 = 15_000.0;
/// chaos_churn: devices in the fleet.
pub const CHAOS_DEVICES: usize = 3_000;
/// chaos_churn: the seed the fault plan is compiled from.
const CHAOS_PLAN_SEED: u64 = 0xFA;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SteadyFanout,
        Workload::FlashCrowd,
        Workload::ChaosChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyFanout => "steady_fanout",
            Workload::FlashCrowd => "flash_crowd",
            Workload::ChaosChurn => "chaos_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system under test. Every workload keeps the full hop ledger:
    /// `failed_share` classifies every drop record of every trace.
    pub fn config(self) -> SystemConfig {
        let mut config = SystemConfig::medium();
        config.trace_retention = Retention::Full;
        match self {
            Workload::SteadyFanout | Workload::ChaosChurn => {
                config.tao = TaoConfig {
                    shards: 64,
                    regions: 3,
                    cache_capacity: 1 << 20,
                };
                config.pylon = PylonConfig {
                    topic_shards: 65_536,
                    servers: 64,
                    kv_nodes: 16,
                    replicas: 3,
                };
                config.brass_hosts = 32;
                config.proxies = 8;
                config.pops = 8;
            }
            Workload::FlashCrowd => {
                config.brass_hosts = 8;
                config.proxies = 4;
                config.pops = 4;
            }
        }
        match self {
            Workload::SteadyFanout => config.last_mile_drop = STEADY_LAST_MILE_DROP,
            Workload::FlashCrowd => {
                config.last_mile_drop = 0.0;
                config.device_heartbeats = true;
                config.metrics_interval = SimDuration::from_secs(2);
                config.metrics_horizon = SimDuration::from_mins(10);
                config.brass_service_us = CROWD_SERVICE_US;
                config.brass_mailbox_capacity = 200;
                config.egress_window_bytes = 320;
            }
            Workload::ChaosChurn => {
                config.last_mile_drop = 0.0;
                config.device_heartbeats = true;
                config.metrics_interval = SimDuration::from_secs(2);
                config.metrics_horizon = SimDuration::from_hours(2);
            }
        }
        config
    }

    /// Streams each reverse proxy holds at the workload's peak: the size
    /// the teardown and downstream-frame probes use.
    pub fn streams_per_proxy(self) -> usize {
        let c = self.config();
        let streams = match self {
            // One LVC stream each, plus a notification topic on every 4th.
            Workload::SteadyFanout => STEADY_DEVICES + STEADY_DEVICES / 4,
            Workload::FlashCrowd => CROWD_VIEWERS,
            Workload::ChaosChurn => CHAOS_DEVICES,
        };
        streams / c.proxies as usize
    }

    /// Builds the system and schedules every arrival of the run.
    pub fn build(self, seed: u64, rec: &mut Recorder) -> Instance {
        let config = self.config();
        match self {
            Workload::SteadyFanout => steady_build(config, seed, rec),
            Workload::FlashCrowd => crowd_build(config, seed, rec),
            Workload::ChaosChurn => chaos_build(config, seed, rec),
        }
    }
}

/// A built workload: the system with every arrival already scheduled.
pub struct Instance {
    pub sim: SystemSim,
    pub end: SimTime,
    pub chunk: SimDuration,
}

impl Instance {
    /// Workload-specific correctness gates beyond the convergence audit.
    pub fn gate(&self, workload: Workload) -> Vec<String> {
        let mut failures = Vec::new();
        if workload != Workload::FlashCrowd {
            return failures;
        }
        // The graceful-shed gate: bounded admitted p99, no host falsely
        // declared dead, and every degradation signal matched by a
        // recovery on the devices still connected (the convergence audit
        // fails on any connected device left degraded).
        let m = self.sim.metrics();
        let p99 = m
            .per_app
            .get("lvc")
            .map_or(0.0, |lat| lat.total.quantile(0.99));
        if p99 > CROWD_P99_BOUND_MS {
            failures.push(format!(
                "admitted-update p99 {p99:.0} ms exceeds the {CROWD_P99_BOUND_MS:.0} ms bound"
            ));
        }
        if m.host_failures_detected.get() > 0 {
            failures.push(format!(
                "{} BRASS host(s) falsely declared dead under pure overload",
                m.host_failures_detected.get()
            ));
        }
        if m.flow_recovered_signals.get() > m.flow_degraded_signals.get() {
            failures.push(format!(
                "{} recoveries for {} degradations",
                m.flow_recovered_signals.get(),
                m.flow_degraded_signals.get()
            ));
        }
        if m.mailbox_sheds.get() == 0 {
            failures.push("the overloaded tier never hit the mailbox cap".to_string());
        }
        failures
    }
}

fn steady_build(config: SystemConfig, seed: u64, rec: &mut Recorder) -> Instance {
    let mut sim = SystemSim::new(config, seed);
    let devices = STEADY_DEVICES;
    let videos = devices / 500;
    let fleet = rec.enter("fleet");
    let video0 = sim.was_mut().create_video("live0");
    for i in 1..videos {
        sim.was_mut().create_video(&format!("live{i}"));
    }
    let device0 = sim.create_user_device("u0", "en");
    for i in 1..devices {
        sim.create_user_device(&format!("u{i}"), "en");
    }
    rec.exit(fleet);
    let inject = rec.enter("inject");
    // Every device subscribes to one video over the first 5 s; every 4th
    // also opens its notification topic.
    for i in 0..devices {
        let at = SimTime::from_micros(i as u64 * 5_000_000 / devices as u64);
        let d = device0 + i as u64;
        sim.subscribe_lvc(
            at,
            d,
            video0 + (i.wrapping_mul(2_654_435_761) % videos) as u64,
        );
        if i % 4 == 0 {
            sim.subscribe_notifications(at + SimDuration::from_millis(10), d);
        }
    }
    // A Poisson process over [10 s, 40 s) conditioned on its count: the
    // count is fixed, so every seed offers the same work, and the times
    // are independent uniform draws. Comments go round-robin over videos.
    let mut comments: Vec<SimTime> = (0..videos * STEADY_COMMENTS_PER_VIDEO)
        .map(|_| SimTime::from_micros(10_000_000 + sim.rng_mut().below(30_000_000)))
        .collect();
    comments.sort_unstable();
    for (n, &at) in comments.iter().enumerate() {
        let v = n % videos;
        sim.post_comment(
            at,
            device0 + (v % devices) as u64,
            video0 + v as u64,
            "steady fanout comment",
        );
    }
    // 0.1 % churn: one device in a thousand drops at 20 s and reconnects.
    for i in (0..devices).filter(|i| i % 1_000 == 500) {
        sim.schedule_device_drop(SimTime::from_secs(20), device0 + i as u64);
    }
    rec.exit(inject);
    Instance {
        sim,
        end: SimTime::from_secs(STEADY_SECS),
        chunk: SimDuration::from_millis(250),
    }
}

fn crowd_build(config: SystemConfig, seed: u64, rec: &mut Recorder) -> Instance {
    let mut sim = SystemSim::new(config, seed);
    let fleet = rec.enter("fleet");
    // The audience piles onto one topic over a 2 s ramp.
    let crowd = FlashCrowd::setup(
        &mut sim,
        CROWD_VIEWERS,
        20,
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
    );
    rec.exit(fleet);
    let inject = rec.enter("inject");
    let storm_from = SimTime::from_secs(5);
    let storm = SimDuration::from_secs(40);
    crowd.drive_storm(&mut sim, storm_from, storm, CROWD_RATE);
    // Mid-storm: one proxy dark for 10 s, and every 4th viewer's link
    // dies silently over 2 s.
    crowd.regional_outage(
        &mut sim,
        SimTime::from_secs(15),
        1,
        SimDuration::from_secs(10),
    );
    crowd.reconnect_storm(
        &mut sim,
        SimTime::from_secs(20),
        SimDuration::from_secs(2),
        4,
    );
    rec.exit(inject);
    Instance {
        sim,
        end: storm_from + storm + SimDuration::from_secs(60),
        chunk: SimDuration::from_secs(1),
    }
}

fn chaos_build(config: SystemConfig, seed: u64, rec: &mut Recorder) -> Instance {
    let mut sim = SystemSim::new(config.clone(), seed);
    let devices = CHAOS_DEVICES;
    let videos = devices / 500;
    let fleet = rec.enter("fleet");
    let video_ids: Vec<u64> = (0..videos)
        .map(|i| sim.was_mut().create_video(&format!("chaos{i}")))
        .collect();
    let device_ids: Vec<u64> = (0..devices)
        .map(|i| sim.create_user_device(&format!("u{i}"), "en"))
        .collect();
    rec.exit(fleet);
    let inject = rec.enter("inject");
    for (i, &d) in device_ids.iter().enumerate() {
        let at = SimTime::from_micros(i as u64 * 5_000_000 / devices as u64);
        sim.subscribe_lvc(at, d, video_ids[i.wrapping_mul(2_654_435_761) % videos]);
    }
    // All six fault kinds. The plan is part of the workload, compiled from
    // a fixed seed, so every run meets the same faults; the run's seed
    // moves the comment phases and the system's own random draws.
    let mut plan_rng = DetRng::new(CHAOS_PLAN_SEED);
    let plan = canned_plan(SimTime::from_secs(30), &config, &device_ids, &mut plan_rng);
    plan.apply(&mut sim);
    let heal = plan.heal_time();
    // One comment per video every 5 s through the chaos window.
    for (v, &video) in video_ids.iter().enumerate() {
        let mut t =
            SimTime::from_secs(10) + SimDuration::from_micros((v as u64 * 7_919) % 10_000_000);
        while t < heal {
            sim.post_comment(t, device_ids[v % devices], video, "chaos churn comment");
            t += SimDuration::from_secs(5);
        }
    }
    rec.exit(inject);
    Instance {
        sim,
        // Through the last heal plus grace: detection windows close,
        // reconnect backoffs drain, backfills land.
        end: heal + SimDuration::from_secs(60),
        chunk: SimDuration::from_secs(1),
    }
}
