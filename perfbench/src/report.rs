//! What a replay hands back to the runner, and the small timing and
//! hashing helpers every workload shares.

use std::time::{Duration, Instant};

/// How a replay runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Library calls only: no event log, no profiler, no timing inside
    /// the replay. End-to-end metrics come from these.
    Plain,
    /// As `Plain`, with the program's typed event log switched on.
    Logged,
    /// Every call into a layer timed from the benchmark side.
    Traced,
}

/// One named figure with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as printed.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The per-layer side of a traced replay.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-layer metrics this workload exercises.
    pub layers: Vec<Metric>,
    /// Sum of the top-level timed layer calls, seconds.
    pub layer_s: f64,
    /// The replay loop's own time outside those calls, seconds.
    pub driver_s: f64,
}

/// Everything one replay produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Building the replay's inputs and the program state it starts from.
    pub setup_s: f64,
    /// Host wall time of the replay itself.
    pub wall_s: f64,
    /// Units of work replayed: the numerator of `ops_per_s`.
    pub ops: u64,
    /// Canonical rendering of the simulated outcome. Replays of one seed
    /// must agree on it whatever the mode.
    pub digest: String,
    /// Simulated, deterministic metrics.
    pub sim: Vec<Metric>,
    /// Output checks that failed.
    pub errors: Vec<String>,
    /// Per-layer figures (traced replays only).
    pub trace: Option<Trace>,
}

/// Accumulated time and call count of one timed layer entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Span {
    /// Runs `f`, charging its wall time and one call to this span.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    /// [`Span::time`] when `on`, else just runs `f`: plain replays call
    /// the layers with no timing in between.
    #[inline]
    pub fn time_if<R>(&mut self, on: bool, f: impl FnOnce() -> R) -> R {
        if on {
            self.time(f)
        } else {
            f()
        }
    }

    /// Charges `d` and one call.
    #[inline]
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as u64;
        self.calls += 1;
    }

    /// Total charged time, seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// 64-bit FNV-1a, for order-sensitive digests of simulated state.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
