//! A fixed reference workload that gauges how fast the host runs right
//! now. The untraced run interleaves short slices of it with the
//! simulator and divides the simulator's times by the host's slowness
//! over the same interval, so a neighbour slowing the whole machine down
//! does not read as a slower program.
//!
//! A slice has two parts, each close to one side of the simulator: updates
//! of an ordered map over a working set of about 24 MiB (pointer chasing
//! and branches), and building and dropping hash maps of formatted strings
//! (small allocations and hashing, like building a fleet). The host has
//! phases in which the second part, and the simulator's builds, run about
//! 1.8x slower while the first barely moves; elsewhere the first tracks
//! the simulator better. The slowness is the geometric mean of the two.
//! Both use only the standard library and fixed inputs, so they do the
//! same work in every process and do not change when the simulator does.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crate::measure;

/// Entries in the reference map.
const ENTRIES: usize = 1 << 19;
/// Map updates per slice.
const OPS: usize = 8_000;
/// Hash maps built per slice, and their entries.
const BUILDS: usize = 5;
const BUILD_ENTRIES: u64 = 6_000;
/// The wall time of each part of a slice on a 2-vCPU Xeon (model 207) VM,
/// typical of that host. Slowness is relative to them, so normalised times
/// read as seconds on that host.
pub const NOMINAL_S: [f64; 2] = [0.0125, 0.010];
/// How often a run pauses the simulator for a slice.
const EVERY: Duration = Duration::from_millis(250);

pub struct Reference {
    map: BTreeMap<u64, u64>,
    keys: Vec<u64>,
    state: u64,
    sink: u64,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            map: BTreeMap::new(),
            keys: Vec::with_capacity(ENTRIES),
            state: 0x9E37_79B9_7F4A_7C15,
            sink: 0,
        };
        for _ in 0..ENTRIES {
            let k = r.next();
            r.map.insert(k, k >> 7);
            r.keys.push(k);
        }
        r
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Runs one slice and returns the wall time of each part in seconds.
    pub fn slice(&mut self) -> [f64; 2] {
        let t = Instant::now();
        for _ in 0..OPS {
            let i = (self.next() % ENTRIES as u64) as usize;
            let old = self.keys[i];
            let v = self.map.remove(&old).unwrap_or(0);
            let k = self.next();
            self.map.insert(k, v.wrapping_add(old));
            self.keys[i] = k;
            let probe = self.keys[(k % ENTRIES as u64) as usize];
            self.sink ^= self.map.get(&probe).copied().unwrap_or(0);
        }
        let ordered = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..BUILDS {
            let mut m: HashMap<String, Vec<u64>> = HashMap::new();
            for i in 0..BUILD_ENTRIES {
                let key = format!("user{}", i.wrapping_mul(0x9E37_79B9));
                m.insert(key, vec![i; 1 + (i % 7) as usize]);
            }
            for (k, v) in &m {
                self.sink = self.sink.wrapping_add(k.len() as u64 + v[0]);
            }
        }
        std::hint::black_box(self.sink);
        [ordered, t.elapsed().as_secs_f64()]
    }
}

/// Samples the host's speed with reference slices over a window of work.
/// The window is cut into segments at the slices, and each segment's work
/// is divided by the slowness the two slices around it show: the host
/// changes speed within a second.
pub struct Gauge {
    reference: Reference,
    /// Resident memory the reference holds, MiB; the run subtracts it from
    /// its peak.
    pub own_rss_mib: f64,
    /// The last slice and when it ended.
    last: [f64; 2],
    since: Instant,
    /// Work seconds in the window, as measured and divided by slowness.
    work_s: f64,
    normalised_s: f64,
    /// Wall and CPU seconds spent in slices since the window opened.
    paused_s: f64,
    paused_cpu_s: f64,
}

impl Gauge {
    pub fn new() -> Self {
        let before = measure::rss_mib();
        let reference = Reference::new();
        Gauge {
            reference,
            own_rss_mib: measure::rss_mib() - before,
            last: [0.0; 2],
            since: Instant::now(),
            work_s: 0.0,
            normalised_s: 0.0,
            paused_s: 0.0,
            paused_cpu_s: 0.0,
        }
    }

    /// Ends the current segment with a slice.
    fn cut(&mut self) {
        let work = self.since.elapsed().as_secs_f64();
        let next = self.reference.slice();
        // Per part, the mean of the two slices over the nominal time; the
        // slowness is the geometric mean of the two parts.
        let part = |i: usize| (self.last[i] + next[i]) / 2.0 / NOMINAL_S[i];
        let slowness = (part(0) * part(1)).sqrt();
        self.work_s += work;
        self.normalised_s += work / slowness;
        self.last = next;
        self.since = Instant::now();
    }

    /// Opens a window with a first slice.
    pub fn open(&mut self) {
        self.last = self.reference.slice();
        self.since = Instant::now();
        self.work_s = 0.0;
        self.normalised_s = 0.0;
        self.paused_s = 0.0;
        self.paused_cpu_s = 0.0;
    }

    /// Takes a slice if one is due, keeping its wall and CPU time apart
    /// from the work being measured.
    pub fn tick(&mut self) {
        if self.since.elapsed() < EVERY {
            return;
        }
        let cpu = measure::cpu_seconds();
        let t = Instant::now();
        self.cut();
        self.paused_s += t.elapsed().as_secs_f64();
        self.paused_cpu_s += measure::cpu_seconds() - cpu;
    }

    /// Closes the window with a last slice. Returns the host's slowness
    /// over it (its work time over its work time divided segment by
    /// segment) and the wall and CPU seconds that slices took inside it.
    pub fn close(&mut self) -> (f64, f64, f64) {
        self.cut();
        let slowness = self.work_s / self.normalised_s.max(f64::MIN_POSITIVE);
        (slowness, self.paused_s, self.paused_cpu_s)
    }
}
