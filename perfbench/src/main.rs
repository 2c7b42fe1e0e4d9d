//! The repository's benchmark: three closed-loop workloads, one client on
//! one thread, every request's output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline|online|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets up a batch of inputs from the seed and makes one pass of
//! requests over it, then does the same with the next batch until
//! `--seconds` have gone by. `--trace 0` prints the end-to-end metrics.
//! `--trace 1` follows each untraced pass with a traced pass over the same
//! batch, checks that both produce the same outputs, and prints the
//! per-layer metrics; a traced pass makes the program's own sequence of
//! public calls and times each one. The last line of standard output is
//! one JSON object. README.md says why each workload exists.

mod durable;
mod measure;
mod offline;
mod online;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use measure::{mean, ms, percentile, Layers, Tally};

/// Fewest batches a run measures, so that `setup_s` is a median of
/// several set-ups.
const MIN_BATCHES: usize = 3;

/// Requests a run needs for ten of them to lie beyond the 95th
/// percentile; with fewer, p95 rests on too few samples and a warning is
/// printed.
const P95_MIN_SAMPLES: usize = 200;

/// One benchmark workload. A run measures one batch of inputs after
/// another, each generated from the seed and the batch number and set up
/// afresh, until its time is up: the program's cost varies so much from
/// input to input that a single batch per run left the medians at the
/// mercy of the seed.
pub trait Workload: Sized {
    /// The layers whose times together make up a traced request.
    const COVERING: &'static [&'static str];
    /// Generate batch `batch` of the inputs of a run seeded `seed` and
    /// bring the program to the state a pass starts from. This is the
    /// timed set-up.
    fn setup(seed: u64, batch: u64) -> Self;
    /// Run every request of one pass from the set-up state, timing and
    /// checking each into `tally`. With `layers`, make the program's own
    /// sequence of public calls instead of the single entry point, timing
    /// each layer. Returns the pass's deterministic outputs, which both
    /// modes must agree on.
    fn pass(&mut self, tally: &mut Tally, layers: Option<&mut Layers>) -> Vec<u8>;
}

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. A metric in
/// `ms` or `us` is the mean time per call of the layer of that name over
/// every traced pass, a `count` is the first batch's, and the rest are
/// derived in [`per_layer`].
const PER_LAYER: &[(&str, &str)] = &[
    ("core.instance.complete_ms", "ms"),
    ("core.lst.search_ms", "ms"),
    ("core.lst.probes", "count"),
    ("core.lst.round_ms", "ms"),
    ("core.assignment.horizon_ms", "ms"),
    ("core.hier.schedule_ms", "ms"),
    ("core.schedule.validate_ms", "ms"),
    ("simulator.replay_ms", "ms"),
    ("lp.certified", "count"),
    ("lp.fallbacks", "count"),
    ("lp.cert_ratio", "share"),
    ("lp.factor_reuses", "count"),
    ("lp.warm_fallbacks", "count"),
    ("lp.columns_priced", "count"),
    ("service.epoch_ms.arrive", "ms"),
    ("service.epoch_ms.depart", "ms"),
    ("service.epoch_ms.fail", "ms"),
    ("service.epoch_ms.recover", "ms"),
    ("service.epoch_ms.fallback", "ms"),
    ("service.epoch_ms.clean", "ms"),
    ("service.epochs.fallback", "count"),
    ("service.epochs.clean", "count"),
    ("service.tier1", "count"),
    ("service.tier2", "count"),
    ("service.tier3", "count"),
    ("service.budget_exhaustions", "count"),
    ("service.reassignments", "count"),
    ("service.ingest_ms.applied", "ms"),
    ("service.ingest_ms.rejected", "ms"),
    ("ingest.rejected.duplicate-id", "count"),
    ("ingest.rejected.unknown-job", "count"),
    ("ingest.rejected.zero-size", "count"),
    ("ingest.rejected.bad-pin", "count"),
    ("ingest.rejected.unknown-set", "count"),
    ("ingest.rejected.incoherent", "count"),
    ("journal.append_us", "us"),
    ("journal.checkpoint_us", "us"),
    ("journal.checkpoint_bytes", "bytes"),
    ("journal.bytes_per_event", "bytes"),
    ("journal.scan_ms", "ms"),
    ("service.restore_replay_ms", "ms"),
    ("service.replayed_events", "count"),
    ("service.recovery_p50_ms", "ms"),
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
    ("host.burn_ms", "ms"),
    ("host.parallel_x", "x"),
];

const USAGE: &str =
    "usage: perfbench --workload offline|online|durable --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let number = |v: String, name: &str| v.parse::<u64>().map_err(|_| format!("bad {name}: {v}"));
    let workload = take("--workload")?;
    let seed = number(take("--seed")?, "--seed")?;
    let seconds = number(take("--seconds")?, "--seconds")?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("bad --trace: {v}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// One reported metric: name, value, unit and what it was computed from.
struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &str, samples: impl Into<String>) -> Self {
        Metric { name: name.into(), value, unit: unit.into(), samples: samples.into() }
    }
}

/// What one run measured.
struct Run {
    setups: Vec<f64>,
    plain: Tally,
    traced: Tally,
    /// Every traced pass, for the per-layer times.
    layers: Layers,
    /// The first batch's traced pass, for the counters: a run covers as
    /// many batches as its time allows, but the first is the same on
    /// every run with the same seed.
    first: Layers,
    traced_passes: usize,
    passes: usize,
    coverage: f64,
}

fn set_up<W: Workload>(seed: u64, batch: u64, from: Instant, setups: &mut Vec<f64>) -> W {
    let state = W::setup(seed, batch);
    setups.push(from.elapsed().as_secs_f64());
    state
}

fn run<W: Workload>(args: &Args, start: Instant) -> Run {
    let budget = Duration::from_secs(args.seconds);
    let mut setups = Vec::new();
    // The first set-up is timed from process start, which it dominates.
    let mut state: W = set_up(args.seed, 0, start, &mut setups);
    let timed = Instant::now();
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let (mut layers, mut first) = (Layers::default(), Layers::default());
    let (mut passes, mut traced_passes) = (0, 0);
    loop {
        let reference = state.pass(&mut plain, None);
        passes += 1;
        if args.trace {
            let mut pass_layers = Layers::default();
            if state.pass(&mut traced, Some(&mut pass_layers)) != reference {
                traced.fail("the traced pass did not reproduce the untraced outputs".into());
            }
            if passes == 1 {
                // The traced counters must repeat exactly on the same batch.
                let (mut again, mut repeat) = (Layers::default(), Tally::default());
                if state.pass(&mut repeat, Some(&mut again)) != reference
                    || again.counters() != pass_layers.counters()
                {
                    traced.fail("a second traced pass over the same batch differed".into());
                }
                traced.attempted += repeat.attempted;
                traced.failed += repeat.failed;
                traced.problems.extend(repeat.problems);
                first.absorb(&pass_layers);
            }
            layers.absorb(&pass_layers);
            traced_passes += 1;
        }
        if timed.elapsed() >= budget && passes >= MIN_BATCHES {
            break;
        }
        state = set_up(args.seed, passes as u64, Instant::now(), &mut setups);
    }
    let covered: Duration = W::COVERING.iter().map(|name| layers.total(name).0).sum();
    let coverage = covered.as_secs_f64() / traced.busy_s().max(f64::MIN_POSITIVE);
    Run { setups, plain, traced, layers, first, traced_passes, passes, coverage }
}

/// The seed of part `index` of the inputs of a run seeded `seed`.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index)
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let t = &run.plain;
    let n = t.latencies_ms.len();
    let requests = format!("n={n} requests");
    vec![
        Metric::new(
            "setup_s",
            percentile(&run.setups, 50.0),
            "s",
            format!("n={} set-ups", run.setups.len()),
        ),
        Metric::new("requests_per_s", n as f64 / t.busy_s().max(1e-9), "1/s", requests.clone()),
        Metric::new("request_p50_ms", percentile(&t.latencies_ms, 50.0), "ms", requests.clone()),
        Metric::new("request_p95_ms", percentile(&t.latencies_ms, 95.0), "ms", requests),
        Metric::new("quality_ratio", mean(&t.quality), "ratio", format!("n={}", t.quality.len())),
        Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MiB", "n=1"),
    ]
}

fn per_layer(run: &Run, host: (f64, f64)) -> Vec<Metric> {
    let (l, first) = (&run.layers, &run.first);
    let certified = first.counter("lp.certified");
    let fallbacks = first.counter("lp.fallbacks");
    let checkpoints = first.total("journal.checkpoint_us").1;
    let derived: BTreeMap<&str, f64> = [
        ("lp.cert_ratio", certified / (certified + fallbacks).max(1.0)),
        (
            "journal.checkpoint_bytes",
            first.counter("journal.checkpoint_bytes") / checkpoints.max(1) as f64,
        ),
        (
            "journal.bytes_per_event",
            run.traced.journal_bytes_per_event.first().copied().unwrap_or(0.0),
        ),
        ("service.recovery_p50_ms", percentile(&run.traced.recoveries_ms, 50.0)),
        ("trace.coverage", run.coverage),
        ("trace.overhead", run.traced.busy_s() / run.plain.busy_s().max(1e-9) - 1.0),
        ("host.burn_ms", host.0),
        ("host.parallel_x", host.1),
    ]
    .into_iter()
    .collect();
    let traced = format!("{} traced passes", run.traced_passes);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (total, calls) = l.total(name);
            let per_call = total / calls.max(1) as u32;
            let (value, samples) = match (derived.get(name), unit) {
                (Some(&v), _) => (v, traced.clone()),
                (None, "ms") => (ms(per_call), format!("n={calls} calls")),
                (None, "us") => (per_call.as_secs_f64() * 1e6, format!("n={calls} calls")),
                (None, _) => (first.counter(name), "first batch".to_string()),
            };
            Metric::new(name, value, unit, samples)
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let start = Instant::now();
    // The solver layer reads this on every solve; pin it before any.
    std::env::set_var("HSCHED_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "offline" => run::<offline::Offline>(&args, start),
        "online" => run::<online::Online>(&args, start),
        "durable" => run::<durable::Durable>(&args, start),
        w => {
            eprintln!("perfbench: unknown workload {w}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = measure::host_calibration();

    let mut failed = run.plain.failed + run.traced.failed;
    let attempted = run.plain.attempted + run.traced.attempted;
    let mut problems: Vec<String> =
        run.plain.problems.iter().chain(&run.traced.problems).cloned().collect();
    let names: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
    if let Some(stray) = run.layers.names().find(|n| !names.contains(&n.as_str())) {
        failed += 1;
        problems.push(format!("layer {stray} is not a listed per-layer metric"));
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={} passes={} traced_passes={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("HSCHED_THREADS").unwrap_or_default(),
        run.passes,
        run.traced_passes,
    );
    println!("host.burn_ms {:.3} ms (median of 3 burns)", host.0);
    println!("host.parallel_x {:.3} x (2 concurrent burns / 1)", host.1);
    let metrics = if args.trace { per_layer(&run, host) } else { end_to_end(&run) };
    for m in &metrics {
        println!("{:<30} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.samples);
    }
    if args.trace {
        println!(
            "traced request time {:.3} s vs untraced {:.3} s over {} pass pairs",
            run.traced.busy_s(),
            run.plain.busy_s(),
            run.traced_passes
        );
    } else {
        let t = &run.plain;
        println!(
            "failed_share {} share ({}/{} requests)",
            failed as f64 / attempted.max(1) as f64,
            failed,
            attempted
        );
        if !t.recoveries_ms.is_empty() {
            println!(
                "recovery_p50_ms {:.6} ms (n={} recoveries)",
                percentile(&t.recoveries_ms, 50.0),
                t.recoveries_ms.len()
            );
            println!(
                "journal_bytes_per_event {:.6} bytes (n={} passes)",
                mean(&t.journal_bytes_per_event),
                t.journal_bytes_per_event.len()
            );
        }
        if t.latencies_ms.len() < P95_MIN_SAMPLES {
            println!("warning: fewer than 10 requests beyond p95");
        }
    }
    for p in &problems {
        println!("FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        body.join(", ")
    );
}
