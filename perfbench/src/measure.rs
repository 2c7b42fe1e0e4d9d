//! Timing, tallies and summary statistics shared by the workloads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Everything the timed requests of a run produced.
#[derive(Default)]
pub struct Tally {
    /// Wall time of every completed request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests attempted, completed or not.
    pub attempted: u64,
    /// Requests that returned an error, panicked or failed an output
    /// check, plus failed pass-level checks.
    pub failed: u64,
    /// Per-request achieved-horizon / T* ratios (deterministic per seed).
    pub quality: Vec<f64>,
    /// Wall time of every durable recovery, milliseconds.
    pub recoveries_ms: Vec<f64>,
    /// Final journal bytes over events ingested, per durable pass.
    pub journal_bytes_per_event: Vec<f64>,
    /// The first few failure messages.
    pub problems: Vec<String>,
}

impl Tally {
    /// Time one request. `f` makes the call and checks its output; an
    /// `Err` or a panic counts the request as failed.
    pub fn request<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let elapsed = start.elapsed();
        self.attempted += 1;
        match out {
            Ok(Ok(value)) => {
                self.latencies_ms.push(ms(elapsed));
                Some(value)
            }
            Ok(Err(msg)) => {
                self.fail(msg);
                None
            }
            Err(_) => {
                self.fail("request panicked".into());
                None
            }
        }
    }

    /// Record a failed check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    /// Wall time of the last completed request.
    pub fn last_latency(&self) -> Duration {
        Duration::from_secs_f64(self.latencies_ms.last().copied().unwrap_or(0.0) / 1000.0)
    }

    /// Wall time spent inside completed requests, seconds.
    pub fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1000.0
    }
}

/// Per-layer time and counters of one traced pass. Time keys are metric
/// names; each metric reports its mean per timed call.
#[derive(Default)]
pub struct Layers {
    times: BTreeMap<String, (Duration, u64)>,
    counts: BTreeMap<String, f64>,
}

impl Layers {
    /// Run `f` as one call of layer `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Record one call of layer `name` that took `elapsed`.
    pub fn add(&mut self, name: &str, elapsed: Duration) {
        let slot = self.times.entry(name.to_string()).or_default();
        slot.0 += elapsed;
        slot.1 += 1;
    }

    /// Add `by` to counter `name`.
    pub fn count(&mut self, name: &str, by: f64) {
        *self.counts.entry(name.to_string()).or_default() += by;
    }

    /// Counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The deterministic counters, for the two-pass self-check.
    pub fn counters(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }

    /// Total time and calls of layer `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.times.get(name).copied().unwrap_or_default()
    }

    /// Every layer and counter name recorded.
    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.times.keys().chain(self.counts.keys())
    }

    /// Fold another pass into this one.
    pub fn absorb(&mut self, other: &Layers) {
        for (name, (d, n)) in &other.times {
            let slot = self.times.entry(name.clone()).or_default();
            slot.0 += *d;
            slot.1 += n;
        }
        for (name, v) in &other.counts {
            *self.counts.entry(name.clone()).or_default() += v;
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed single-thread integer workload: what the host can do right now.
fn burn() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// Host calibration: the median time of one burn, milliseconds, and the
/// wall time of two concurrent burns over one (1.0 = two free cores,
/// 2.0 = one).
pub fn host_calibration() -> (f64, f64) {
    let single: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            burn();
            ms(start.elapsed())
        })
        .collect();
    let one = percentile(&single, 50.0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(burn);
        let b = s.spawn(burn);
        a.join().expect("burn thread panicked");
        b.join().expect("burn thread panicked");
    });
    (one, ms(start.elapsed()) / one)
}
