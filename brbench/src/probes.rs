//! Layer probes: time a layer crate's public functions from outside, on
//! inputs shaped like the workload. Traced runs only.

use std::hint::black_box;
use std::time::Instant;

use burst::frame::{Frame, StreamId};
use burst::json::Json;
use edge::proxy::{ReverseProxy, RouteStrategy};
use pylon::{HostId, PylonCluster, Topic};
use simkit::queue::EventQueue;
use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};

use crate::workload::Workload;

/// What the probes measured.
pub struct Probes {
    /// µs per `ReverseProxy::on_device_disconnected` at the workload's
    /// streams-per-proxy size.
    pub teardown_us: f64,
    /// Teardown cost at full size over the cost at a tenth of it.
    pub teardown_growth: f64,
    /// ns per `ReverseProxy::on_downstream_frame` (subscribe + cancel).
    pub downstream_ns: f64,
    /// µs per `PylonCluster::publish` on one topic every host follows.
    pub publish_us_hot: f64,
    /// µs per `PylonCluster::publish` over many topics of two hosts each.
    pub publish_us_spread: f64,
    /// ns per schedule + pop on an `EventQueue` holding the workload's
    /// mix of 2 s timers and millisecond hops.
    pub queue_ns_per_op: f64,
}

pub fn run(workload: Workload, seed: u64) -> Probes {
    let config = workload.config();
    let streams = workload.streams_per_proxy();
    let hosts = config.brass_hosts;
    let teardown_us = teardown(streams, hosts);
    let teardown_small = teardown((streams / 10).max(1), hosts);
    let mut rng = DetRng::new(seed ^ 0x9E0B);
    Probes {
        teardown_us,
        teardown_growth: teardown_us / teardown_small.max(1e-9),
        downstream_ns: downstream(streams, hosts),
        publish_us_hot: publish(&config.pylon, hosts, 1, hosts as usize),
        publish_us_spread: publish(&config.pylon, hosts, 4_096, 2),
        queue_ns_per_op: queue(streams * config.proxies as usize, &mut rng),
    }
}

fn subscribe_frame(device: u64) -> Frame {
    Frame::Subscribe {
        sid: StreamId(1),
        header: Json::obj([
            ("viewer", Json::from(device)),
            ("lang", Json::from("en")),
            (
                "gql",
                Json::from(format!(
                    "subscription {{ liveVideoComments(videoId: {}) }}",
                    device % 40
                )),
            ),
        ]),
        body: Vec::new(),
    }
}

fn proxy_with(streams: usize, hosts: u32) -> ReverseProxy {
    let mut proxy = ReverseProxy::new(0, RouteStrategy::ByLoad, (0..hosts).collect());
    for d in 0..streams as u64 {
        proxy.on_downstream_frame(d, subscribe_frame(d), 0);
    }
    proxy
}

/// Mean µs of one device teardown on a proxy holding `streams` streams.
/// Each torn-down device resubscribes untimed, so the table keeps its size.
fn teardown(streams: usize, hosts: u32) -> f64 {
    let mut proxy = proxy_with(streams, hosts);
    let samples = 200u64;
    let stride = (streams as u64 / samples).max(1);
    let mut total = 0.0;
    for i in 0..samples {
        let d = (i * stride) % streams as u64;
        let t = Instant::now();
        black_box(proxy.on_device_disconnected(black_box(d)));
        total += t.elapsed().as_secs_f64();
        proxy.on_downstream_frame(d, subscribe_frame(d), 0);
    }
    total / samples as f64 * 1e6
}

/// Mean ns per downstream frame: fresh devices subscribe, then cancel.
fn downstream(streams: usize, hosts: u32) -> f64 {
    let mut proxy = proxy_with(streams, hosts);
    let n = 20_000u64;
    let frames: Vec<(u64, Frame)> = (0..n)
        .map(|i| (streams as u64 + i, subscribe_frame(streams as u64 + i)))
        .collect();
    let t = Instant::now();
    for (d, frame) in frames {
        black_box(proxy.on_downstream_frame(d, frame, 1));
        black_box(proxy.on_downstream_frame(d, Frame::Cancel { sid: StreamId(1) }, 2));
    }
    t.elapsed().as_secs_f64() / (2 * n) as f64 * 1e9
}

/// Mean µs per publish over `topics` topics, each followed by
/// `per_topic` hosts.
fn publish(config: &pylon::PylonConfig, hosts: u32, topics: usize, per_topic: usize) -> f64 {
    let mut cluster = PylonCluster::new(config.clone());
    let names: Vec<Topic> = (0..topics)
        .map(|i| Topic::new(&format!("/LVC/probe{topics}x{i}")).expect("valid topic"))
        .collect();
    for (i, topic) in names.iter().enumerate() {
        for k in 0..per_topic {
            let host = HostId(((i + k) % hosts as usize) as u32);
            cluster.subscribe(topic, host).expect("all nodes up");
        }
    }
    let n = 50_000usize;
    let t = Instant::now();
    for i in 0..n {
        black_box(cluster.publish(&names[i % topics], i as u64));
    }
    t.elapsed().as_secs_f64() / n as f64 * 1e6
}

/// Mean ns per schedule + pop with `pending` events in flight: 60 % are
/// 2 s stream timers (the BRASS share of events), the rest hops of 1–50 ms.
fn queue(pending: usize, rng: &mut DetRng) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..pending {
        let at = SimTime::from_micros(rng.below(2_000_000));
        q.schedule(at, i as u32);
    }
    let n = 1_000_000usize;
    // Draw the mix up front so the timed loop touches only the queue.
    let timers: Vec<bool> = (0..n).map(|_| rng.chance(0.6)).collect();
    let hops: Vec<u64> = (0..n).map(|_| rng.range(1_000, 50_000)).collect();
    let t = Instant::now();
    for i in 0..n {
        let (now, ev) = q.pop().expect("population is constant");
        let at = if timers[i] {
            now + SimDuration::from_secs(2)
        } else {
            now + SimDuration::from_micros(hops[i])
        };
        q.schedule(at, black_box(ev));
    }
    t.elapsed().as_secs_f64() / n as f64 * 1e9
}
