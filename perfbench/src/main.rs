//! The repository benchmark: four simulator workloads, timed end to end
//! and, in a separate traced run, per layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client thread issues ops back to back (a closed loop);
//! an op is one simulated deployment run. Every op parameter comes from
//! `--seed`. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any correctness check failed.

mod calib;
mod closed;
mod edge;
mod llm;
mod outcome;
mod stats;
mod tenancy;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Speed;
use outcome::{Counters, Outcome};
use stats::{beyond, median, percentile, Fnv, LogHistogram};
use trace::{LayerTotals, Tracer};

/// One workload: a pool of ops generated from the seed.
pub trait Workload {
    /// Distinct ops in the pool.
    fn ops(&self) -> usize;
    /// Runs op `i` through the program's public entry point, untraced.
    /// With `exact`, the outcome carries the full printed report.
    fn run(&self, i: usize, exact: bool) -> Outcome;
    /// Runs op `i` as its layer calls, each in a span under a root span
    /// named `op`, then any out-of-op probes under roots named `probe`.
    /// The outcome must equal [`Workload::run`]'s, exact report included.
    fn run_traced(&self, i: usize, t: &mut Tracer, c: &mut Counters) -> Outcome;
    /// Per-layer metrics from this workload's spans and counters.
    fn layer_metrics(
        &self,
        op: &LayerTotals,
        probe: &LayerTotals,
        c: &Counters,
    ) -> Vec<(&'static str, f64)>;
    /// The span names expected to take most of an op's time.
    fn dominant(&self) -> &'static [&'static str];
}

const WORKLOADS: [&str; 4] = [
    "closed_sweep",
    "multitenant_realloc",
    "llm_kv",
    "edge_offload",
];

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "closed_sweep" => Box::new(closed::setup(seed)),
        "multitenant_realloc" => Box::new(tenancy::setup(seed)),
        "llm_kv" => Box::new(llm::setup(seed)),
        "edge_offload" => Box::new(edge::setup(seed)),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 8] = [
    ("sim_req_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput_rps", "1/s"),
    ("sim_slo_attain", "ratio"),
    ("sim_p99_ms", "ms"),
];

/// Per-layer metrics, reported by the traced run.
const PER_LAYER: [(&str, &str); 38] = [
    ("trace.coverage", "ratio"),
    ("trace.dominant_share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("workload.requests_ms", "ms"),
    ("model.materialize_ms", "ms"),
    ("model.ns_per_sample", "ns"),
    ("model.layers_per_sample", "layers"),
    ("model.materialize_sequences_ms", "ms"),
    ("model.ns_per_token", "ns"),
    ("profiler.profile_ms", "ms"),
    ("optimizer.plan_ms", "ms"),
    ("core.build_ms", "ms"),
    ("kernel.loop_ms", "ms"),
    ("kernel.events", "count"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.events_per_s", "1/s"),
    ("kernel.mean_batch", "samples"),
    ("kernel.observer_ns_per_event", "ns"),
    ("simcore.calendar_speedup", "ratio"),
    ("tenancy.alloc_ms", "ms"),
    ("tenancy.serve_ms", "ms"),
    ("tenancy.events_per_s", "1/s"),
    ("optimizer.oracle_solves", "count"),
    ("continuous.loop_ms", "ms"),
    ("continuous.ns_per_event", "ns"),
    ("continuous.events_per_s", "1/s"),
    ("continuous.tokens", "count"),
    ("continuous.preempt_per_seq", "count"),
    ("continuous.kv_waste_frac", "ratio"),
    ("optimizer.edge_tables_ms", "ms"),
    ("edge.fleet_ms", "ms"),
    ("edge.offload_frac", "ratio"),
    ("edge.abort_frac", "ratio"),
    ("edge.retries_per_offload", "count"),
    ("invariant.ns_per_event", "ns"),
    ("invariant.violations", "count"),
    ("failed_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Ops each set-up runs to warm caches and the allocator before timing.
const WARMUP_OPS: usize = 3;
/// Ops stop being issued after this long, whatever `--seconds` says,
/// so a run always ends well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one op, turning a panic into a failed check (timed up to the
/// panic).
fn guarded(f: impl FnOnce() -> Outcome) -> Outcome {
    let (out, ms) = outcome::timed(|| catch_unwind(AssertUnwindSafe(f)));
    out.unwrap_or_else(|_| Outcome {
        host_ms: ms,
        errors: vec!["op panicked".into()],
        ..Default::default()
    })
}

/// Ops attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn record(&mut self, op: usize, errors: &[String]) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages
                    .push(format!("op {op}: {}", errors.join("; ")));
            }
        }
    }
}

/// The simulated outcome pooled over the pool's distinct ops.
#[derive(Default)]
struct Pooled {
    offered: u64,
    within: u64,
    sim_secs: f64,
    latencies_ms: LogHistogram,
    digests: Vec<u64>,
}

impl Pooled {
    fn add(&mut self, o: &Outcome) {
        self.offered += o.offered;
        self.within += o.within;
        self.sim_secs += o.sim_secs;
        o.latencies_ms
            .iter()
            .for_each(|&l| self.latencies_ms.record(l));
        self.digests.push(o.digest);
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &d in &self.digests {
            h.u64(d);
        }
        h.finish()
    }
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// The untraced run: set up `SETUP_REPS` times, then issue ops for
/// `seconds`, cycling through the pool (the first pass always completes,
/// so the simulated-outcome metrics cover every distinct op).
fn run_untraced(args: &Args, tally: &mut Tally, report: &mut String) -> Metrics {
    // Host times are reported at reference speed (see `calib`); the raw
    // wall-clock figures are printed alongside.
    let mut speed = Speed::default();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take()); // free the previous set-up before timing the next
        speed.calibrate();
        let start = Instant::now();
        let fresh = make(&args.workload, args.seed);
        for i in 0..WARMUP_OPS {
            std::hint::black_box(fresh.run(i, false));
        }
        let secs = start.elapsed().as_secs_f64();
        raw_setups.push(secs);
        setups.push(secs * speed.scale());
        w = Some(fresh);
    }
    let w = w.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let mut op_ms = Vec::new();
    let mut raw_op_ms = Vec::new();
    let mut pooled = Pooled::default();
    let mut terminal = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while (i < w.ops() || start.elapsed() < budget) && start.elapsed() < HARD_STOP {
        let spec = i % w.ops();
        speed.calibrate();
        let mut o = guarded(|| w.run(spec, false));
        raw_op_ms.push(o.host_ms);
        op_ms.push(o.host_ms * speed.scale());
        if i < w.ops() {
            pooled.add(&o);
        } else if o.errors.is_empty() && o.digest != pooled.digests[spec] {
            o.errors
                .push("re-running the op changed its outcome".into());
        }
        terminal += o.terminal;
        tally.record(i, &o.errors);
        i += 1;
    }
    let host_secs = start.elapsed().as_secs_f64();
    if pooled.digests.len() < w.ops() {
        tally.failed += 1;
        tally.messages.push(format!(
            "only {} of {} distinct ops ran before the hard stop",
            pooled.digests.len(),
            w.ops()
        ));
    }

    let _ = writeln!(
        report,
        "{} seed {}: {} ops ({} distinct) in {:.3} s; {} of {} p90 samples beyond; setup {:?} s",
        args.workload,
        args.seed,
        op_ms.len(),
        w.ops(),
        host_secs,
        beyond(&op_ms, 0.9),
        op_ms.len(),
        setups
    );
    let _ = writeln!(
        report,
        "wall clock, unscaled: op p50 {:.3} ms, op p90 {:.3} ms, setup {:.4} s; speed scale now {:.3}",
        percentile(&raw_op_ms, 0.5).unwrap_or(f64::NAN),
        percentile(&raw_op_ms, 0.9).unwrap_or(f64::NAN),
        median(&raw_setups).unwrap_or(f64::NAN),
        speed.scale()
    );
    let _ = writeln!(
        report,
        "digest {} seed {}: {:016x}",
        args.workload,
        args.seed,
        pooled.digest()
    );
    let n = op_ms.len();
    let pct = |q| percentile(&op_ms, q).unwrap_or(f64::NAN);
    // Throughput over the (scaled) time spent inside the program's calls,
    // so the benchmark's own bookkeeping between ops does not count.
    let values = [
        terminal as f64 / (op_ms.iter().sum::<f64>() / 1e3),
        pct(0.5),
        pct(0.9),
        median(&setups).unwrap_or(f64::NAN),
        peak_rss_mb(),
        pooled.within as f64 / pooled.sim_secs,
        pooled.within as f64 / pooled.offered as f64,
        pooled.latencies_ms.quantile(0.99).unwrap_or(f64::NAN),
    ];
    let samples = [
        n,
        n,
        n,
        SETUP_REPS,
        1,
        pooled.digests.len(),
        pooled.digests.len(),
        pooled.latencies_ms.count() as usize,
    ];
    let _ = writeln!(
        report,
        "  failed_frac = {} ratio (n={})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.attempted
    );
    END_TO_END
        .iter()
        .zip(values)
        .zip(samples)
        .map(|(((name, unit), v), n)| {
            let _ = writeln!(report, "  {name} = {v} {unit} (n={n})");
            (*name, *unit, v)
        })
        .collect()
}

/// Collects one workload's per-layer metrics from its spans.
fn layer_metrics(w: &dyn Workload, t: &Tracer, c: &Counters) -> BTreeMap<&'static str, f64> {
    let op = LayerTotals::of(t.spans(), "op");
    let probe = LayerTotals::of(t.spans(), "probe");
    w.layer_metrics(&op, &probe, c).into_iter().collect()
}

/// The traced run: each op runs both untraced and traced, and the two
/// outcomes must agree exactly. Layers this workload never calls are
/// filled in from one traced op of the workload that does (same seed).
fn run_traced(args: &Args, tally: &mut Tally, report: &mut String) -> Metrics {
    let w = make(&args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::default();
    let mut counters = Counters::new();
    let mut untraced_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed() < budget.min(HARD_STOP) {
        let spec = i % w.ops();
        tracer.set_op(i as u32);
        // Alternate which side runs first, so neither gets warmer caches.
        let mut traced = Outcome::default();
        if i % 2 == 1 {
            traced = guarded(|| w.run_traced(spec, &mut tracer, &mut counters));
        }
        let plain = guarded(|| w.run(spec, true));
        untraced_ms.push(plain.host_ms);
        if i % 2 == 0 {
            traced = guarded(|| w.run_traced(spec, &mut tracer, &mut counters));
        }
        if plain.errors.is_empty() && (plain.digest != traced.digest || plain.exact != traced.exact)
        {
            traced
                .errors
                .push("traced decomposition's report differs from the untraced op's".into());
        }
        let mut errors = plain.errors;
        errors.extend(traced.errors);
        tally.record(i, &errors);
        i += 1;
    }

    let totals = LayerTotals::of(tracer.spans(), "op");
    let traced_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "op")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let mut metrics = layer_metrics(w.as_ref(), &tracer, &counters);
    let traced_p50 = median(&traced_ms).unwrap_or(f64::NAN);
    metrics.insert("trace.coverage", totals.coverage());
    metrics.insert(
        "trace.dominant_share",
        w.dominant().iter().map(|d| totals.self_share(d)).sum(),
    );
    metrics.insert("trace.op_p50_ms", traced_p50);
    metrics.insert(
        "trace.overhead_ms",
        traced_p50 - median(&untraced_ms).unwrap_or(f64::NAN),
    );
    let _ = writeln!(
        report,
        "{} seed {} traced: {} ops; self-time share of op time per layer:",
        args.workload, args.seed, i
    );
    for (name, ns) in &totals.self_ns {
        let _ = writeln!(
            report,
            "  {name:<32} {:>6.1}%  ({} spans)",
            100.0 * *ns as f64 / totals.root_ns.max(1) as f64,
            totals.count(name)
        );
    }
    write_spans(args, &tracer, report);

    let mut source: BTreeMap<&'static str, &str> = metrics
        .keys()
        .map(|k| (*k, args.workload.as_str()))
        .collect();
    for other in WORKLOADS.iter().filter(|o| **o != args.workload) {
        let ow = make(other, args.seed);
        let mut t = Tracer::default();
        let mut c = Counters::new();
        let o = guarded(|| ow.run_traced(0, &mut t, &mut c));
        tally.record(0, &o.errors);
        for (k, v) in layer_metrics(ow.as_ref(), &t, &c) {
            if let std::collections::btree_map::Entry::Vacant(e) = metrics.entry(k) {
                e.insert(v);
                source.insert(k, other);
            }
        }
    }
    metrics.insert(
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(f64::NAN);
            let from = source.get(name).copied().unwrap_or(args.workload.as_str());
            let _ = writeln!(report, "  {name} = {v} {unit} (from {from})");
            (*name, *unit, v)
        })
        .collect()
}

/// Writes the spans of a traced run as TSV under `perfbench/out/`.
fn write_spans(args: &Args, tracer: &Tracer, report: &mut String) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_tsv()));
    let _ = match written {
        Ok(()) => writeln!(report, "spans written to {}", path.display()),
        Err(e) => writeln!(report, "spans not written ({}): {e}", path.display()),
    };
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut report = String::new();
    let metrics = if args.trace {
        run_traced(&args, &mut tally, &mut report)
    } else {
        run_untraced(&args, &mut tally, &mut report)
    };
    let mut correct = tally.failed == 0;
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            correct = false;
            tally
                .messages
                .push(format!("metric {name} is not a number"));
        }
    }
    print!("{report}");
    for m in &tally.messages {
        println!("FAILED {m}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
