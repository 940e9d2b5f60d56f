//! Host calibration.
//!
//! The benchmark host's speed drifts by 20–35% in phases lasting tens of
//! seconds, and by more from one second to the next, so raw wall-clock
//! numbers from two runs of identical code do not agree within a tenth
//! however long each run is. A fixed reference kernel that calls no repo
//! code therefore runs between requests, at most every `SAMPLE_EVERY_NS`,
//! and a timed block is scaled by `NOMINAL_REF_MS / mean` with `mean` the
//! mean reference time sampled during the block. The kernel owns its
//! buffer, allocated once, so nothing the program under test does can
//! change the kernel's work, and kernel time is excluded from every
//! timing. On a 2-vCPU Xeon VM the kernel slowed as the workloads did
//! (correlation 0.88–0.91 over one-second windows), while a pure
//! arithmetic loop barely slowed at all.

use bshm_obs::span::now;
use std::hint::black_box;
use std::time::Instant;

/// Keys sorted, then searched, by one reference run.
const REF_LEN: usize = 50_000;
/// Minimum gap between two reference samples taken by `tick`.
const SAMPLE_EVERY_NS: u64 = 40_000_000;
/// The reference time every timing is scaled to. Its value only fixes
/// the unit: a calibrated time is what the block would have taken on a
/// host that runs the kernel in exactly this many milliseconds.
const NOMINAL_REF_MS: f64 = 2.5;

/// Runs the reference kernel and remembers every sample.
pub struct Calibrator {
    keys: Vec<u64>,
    samples_ms: Vec<f64>,
    /// Raw nanoseconds spent in the kernel so far.
    kernel_ns: u64,
    last_sample: Instant,
}

/// A timed block or request in progress.
pub struct Start {
    at: Instant,
    kernel_ns: u64,
    sample: usize,
}

/// A raw request latency and the reference samples taken before it
/// started.
pub struct Latency {
    ns: u64,
    sample: usize,
}

/// A finished timed block.
pub struct Block {
    /// Raw wall-clock nanoseconds of the block, kernel time excluded.
    pub raw_ns: u64,
    /// Multiply a raw duration from inside the block by this to
    /// calibrate it.
    pub factor: f64,
}

impl Block {
    /// The block's calibrated duration in seconds.
    pub fn seconds(&self) -> f64 {
        ns_to_s(self.raw_ns) * self.factor
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            keys: Vec::with_capacity(REF_LEN),
            samples_ms: Vec::new(),
            kernel_ns: 0,
            last_sample: now(),
        };
        c.sample();
        c
    }

    /// Takes a reference sample if none was taken in the last
    /// `SAMPLE_EVERY_NS`. Call it between requests.
    pub fn tick(&mut self) {
        if elapsed_ns(self.last_sample) >= SAMPLE_EVERY_NS {
            self.sample();
        }
    }

    pub fn start(&self) -> Start {
        Start {
            at: now(),
            kernel_ns: self.kernel_ns,
            sample: self.samples_ms.len(),
        }
    }

    /// The latency of a request that started at `s`, kernel time
    /// excluded. Callers tick only after taking it, so that no sample
    /// runs inside a request.
    pub fn latency(&self, s: &Start) -> Latency {
        Latency {
            ns: elapsed_ns(s.at).saturating_sub(self.kernel_ns - s.kernel_ns),
            sample: s.sample,
        }
    }

    /// Ends a block with one more sample, and scales it by the samples
    /// taken since the one just before it started.
    pub fn finish(&mut self, s: Start) -> Block {
        let wall_ns = elapsed_ns(s.at);
        let raw_ns = wall_ns.saturating_sub(self.kernel_ns - s.kernel_ns);
        self.sample();
        let window = &self.samples_ms[s.sample.saturating_sub(1)..];
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        Block {
            raw_ns,
            factor: NOMINAL_REF_MS / mean,
        }
    }

    /// A request's calibrated milliseconds, scaled by the last sample
    /// taken before it started and the first taken after that.
    pub fn latency_ms(&self, l: &Latency) -> f64 {
        let before = self.samples_ms[l.sample - 1];
        let after = self.samples_ms.get(l.sample).copied().unwrap_or(before);
        ns_to_ms(l.ns) * NOMINAL_REF_MS * 2.0 / (before + after)
    }

    /// Times `f` as one block.
    pub fn time<T>(&mut self, f: impl FnOnce(&mut Calibrator) -> T) -> (T, Block) {
        let s = self.start();
        let value = f(self);
        (value, self.finish(s))
    }

    /// Median raw reference time over the run, in milliseconds.
    pub fn raw_median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    fn sample(&mut self) {
        let start = now();
        black_box(self.kernel());
        let ns = elapsed_ns(start);
        self.kernel_ns += ns;
        self.samples_ms.push(ns_to_ms(ns));
        self.last_sample = now();
    }

    /// Sorts `REF_LEN` xorshift keys, then runs `REF_LEN` binary searches
    /// over them.
    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        self.keys.clear();
        for _ in 0..REF_LEN {
            x = xorshift(x);
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        let mut acc = 0u64;
        for _ in 0..REF_LEN {
            x = xorshift(x);
            acc = acc.wrapping_add(self.keys.partition_point(|&k| k < x) as u64);
        }
        acc
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
