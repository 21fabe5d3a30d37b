//! `closed_sweep`: one op is one closed-loop E3 deployment run on 16
//! V100s (`e3::harness::run_closed_loop`), the path most paper figures
//! take. Traced, the op is decomposed into the same public calls
//! (profile, plan, build, request generation, materialize, event loop),
//! whose report must equal the untraced one.

use std::time::Instant;

use e3::harness::{run_closed_loop, HarnessOpts, ModelFamily, SystemKind};
use e3::system::measure_profile;
use e3::DeploymentBuilder;
use e3_hardware::{ClusterSpec, TransferModel};
use e3_model::{InferenceSim, RampController};
use e3_optimizer::{plan_for_cluster, OptimizerConfig};
use e3_runtime::kernel::EventLog;
use e3_runtime::kernel::NullObserver;
use e3_runtime::{KernelEvent, RunObserver, RunReport, Strategy, TaggedEventLog};
use e3_scenarios::{CheckerConfig, InvariantChecker};
use e3_simcore::{SeedSplitter, SimTime};
use e3_workload::{DatasetModel, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::outcome::{add, digest_report, get, timed, Counters, Outcome, Strata};
use crate::stats::Fnv;
use crate::trace::{LayerTotals, Tracer};
use crate::Workload;

/// Easy/hard-mix slices per (family, batch) cell: 100 distinct ops.
const STRATA: usize = 10;
/// Simulated requests per op.
const REQUESTS: usize = 10_000;
const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];

struct Op {
    family: usize,
    batch: usize,
    dataset: DatasetModel,
    seed: u64,
}

pub struct ClosedSweep {
    families: [ModelFamily; 2],
    cluster: ClusterSpec,
    opts: HarnessOpts,
    ops: Vec<Op>,
}

pub fn setup(seed: u64) -> ClosedSweep {
    // Cells: NLP or vision family x batch size.
    let s = Strata::new(seed, 2 * BATCHES.len(), STRATA);
    let ops = (0..s.len())
        .map(|i| Op {
            family: s.cell(i) % 2,
            batch: BATCHES[s.cell(i) / 2],
            dataset: DatasetModel::with_mix(s.uniform("mix", i, 0.2, 0.9)),
            seed: s.op_seed(i),
        })
        .collect();
    ClosedSweep {
        families: [ModelFamily::nlp(), ModelFamily::vision()],
        cluster: ClusterSpec::paper_homogeneous_v100(),
        opts: HarnessOpts::default(),
        ops,
    }
}

fn outcome(r: &RunReport, exact: bool) -> Outcome {
    let mut h = Fnv::default();
    digest_report(&mut h, r);
    let mut o = Outcome {
        host_ms: 0.0,
        offered: REQUESTS as u64,
        terminal: r.completed + r.dropped,
        within: r.within_slo,
        sim_secs: r.duration.as_secs_f64(),
        latencies_ms: r.latency.samples_ms().to_vec(),
        digest: h.finish(),
        exact: exact.then(|| format!("{r:?}")),
        errors: Vec::new(),
    };
    o.check_conservation("completed + dropped");
    o
}

/// The benchmark's copy of the harness's closed-loop request backlog
/// (every request arrives at time zero); the traced decomposition needs
/// the requests themselves, which `run_closed_loop` keeps private.
fn requests(dataset: &DatasetModel, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| Request {
            id,
            arrival: SimTime::ZERO,
            hardness: dataset.sample_hardness(&mut rng),
            output_tokens: dataset.output_len.sample(&mut rng),
        })
        .collect()
}

struct Counting(u64);

impl RunObserver for Counting {
    fn on_event(&mut self, _now: SimTime, _event: &KernelEvent) {
        self.0 += 1;
    }
}

impl Workload for ClosedSweep {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run(&self, i: usize, exact: bool) -> Outcome {
        let op = &self.ops[i];
        let (r, host_ms) = timed(|| {
            run_closed_loop(
                SystemKind::E3,
                &self.families[op.family],
                &self.cluster,
                op.batch,
                &op.dataset,
                REQUESTS,
                &self.opts,
                op.seed,
            )
        });
        Outcome {
            host_ms,
            ..outcome(&r, exact)
        }
    }

    fn run_traced(&self, i: usize, t: &mut Tracer, c: &mut Counters) -> Outcome {
        let op = &self.ops[i];
        let fam = &self.families[op.family];
        let opts = &self.opts;
        let seeds = SeedSplitter::new(op.seed);
        let infer = InferenceSim::with_accuracy(op.dataset.base_accuracy);
        let ctrl = RampController::all_enabled(fam.ee.num_ramps(), fam.policy.ramp_style());
        let lm = fam.latency_model();
        let run_seed = seeds.derive("run");

        let root = t.enter("op");
        let profile = t.span("profiler.profile", |_| {
            measure_profile(
                &fam.ee,
                &fam.policy,
                &ctrl,
                &infer,
                &op.dataset,
                opts.profile_samples,
                seeds.derive("profile"),
            )
            .with_shrinkage_error(opts.profile_error)
        });
        let plan = t.span("optimizer.plan", |_| {
            let cfg = OptimizerConfig {
                slo: opts.slo,
                pipelining: opts.pipelining,
                max_splits: opts.max_splits,
                stage_overhead_frac: opts.stage_overhead_frac,
                ..Default::default()
            };
            plan_for_cluster(
                &fam.ee,
                &ctrl,
                &profile,
                &self.cluster,
                op.batch as f64,
                &TransferModel::default(),
                &lm,
                &cfg,
            )
        });
        let strategy = Strategy::Plan(plan);
        let sim = t.span("core.build", |_| {
            DeploymentBuilder::new(&fam.ee, fam.policy, &strategy, &self.cluster)
                .with_ctrl(ctrl)
                .with_inference(infer)
                .with_latency_model(lm)
                .with_slo(opts.slo)
                .with_fault_plan(opts.fault_plan.clone())
                .with_straggler_detection(opts.detect_stragglers)
                .build()
        });
        let reqs = t.span("workload.requests", |_| {
            requests(&op.dataset, REQUESTS, seeds.derive("requests"))
        });
        let backlog = t.span("model.materialize", |_| {
            sim.materialize_backlog(&reqs, run_seed)
        });
        let layers: usize = backlog.iter().map(|s| s.layers_executed).sum();
        let report = t.span("kernel.loop", |_| {
            sim.run_backlog_observed(backlog, &mut NullObserver)
        });
        t.exit(root);
        add(c, "model.samples", REQUESTS as f64);
        add(c, "model.layers", layers as f64);
        add(c, "kernel.mean_batch", report.mean_dispatch_batch[0]);

        // Probes, outside the op: the same event loop under observers,
        // the invariant checker, and the reference queue.
        let probe = t.enter("probe");
        let backlog = t.span("model.materialize", |_| {
            sim.materialize_backlog(&reqs, run_seed)
        });
        let mut count = Counting(0);
        t.span("kernel.loop_counting", |_| {
            sim.run_backlog_observed(backlog.clone(), &mut count)
        });
        let mut tagged = TaggedEventLog::new();
        t.span("kernel.loop_tagged", |_| {
            sim.run_backlog_observed(backlog.clone(), &mut tagged.tagged(0))
        });
        let mut log = EventLog::new();
        sim.run_backlog_observed(backlog, &mut log);
        let start = Instant::now();
        let violations = InvariantChecker::check_log(CheckerConfig::default(), &log);
        add(c, "invariant.ns", start.elapsed().as_nanos() as f64);
        add(c, "invariant.events", log.events.len() as f64);
        add(c, "invariant.violations", violations.len() as f64);
        let reference = t.span("simcore.reference_run", |_| {
            sim.run_observed_reference(&reqs, run_seed, &mut NullObserver)
        });
        t.exit(probe);
        add(c, "kernel.events", count.0 as f64);

        let mut o = outcome(&report, true);
        if format!("{reference:?}") != o.exact.as_deref().unwrap_or_default() {
            o.errors
                .push("calendar-queue and reference-queue reports differ".into());
        }
        if let Some(v) = violations.first() {
            o.errors.push(format!("invariant violation: {v}"));
        }
        o
    }

    fn layer_metrics(
        &self,
        op: &LayerTotals,
        probe: &LayerTotals,
        c: &Counters,
    ) -> Vec<(&'static str, f64)> {
        let ops = op.count("kernel.loop").max(1) as f64;
        let loop_ns = op.total_ns("kernel.loop") as f64;
        let events = get(c, "kernel.events");
        let samples = get(c, "model.samples");
        let mat_ns = op.total_ns("model.materialize") as f64;
        let ref_loop_ns = probe.total_ns("simcore.reference_run") as f64
            - probe.total_ns("model.materialize") as f64;
        vec![
            ("model.materialize_ms", mat_ns / ops / 1e6),
            ("model.ns_per_sample", mat_ns / samples),
            ("model.layers_per_sample", get(c, "model.layers") / samples),
            ("kernel.loop_ms", loop_ns / ops / 1e6),
            ("kernel.events", events / ops),
            ("kernel.ns_per_event", loop_ns / events),
            (
                "kernel.events_per_s",
                events / probe.total_ns("kernel.loop_counting") as f64 * 1e9,
            ),
            ("kernel.mean_batch", get(c, "kernel.mean_batch") / ops),
            (
                "kernel.observer_ns_per_event",
                (probe.total_ns("kernel.loop_tagged") as f64 - loop_ns) / events,
            ),
            ("simcore.calendar_speedup", ref_loop_ns / loop_ns),
            (
                "profiler.profile_ms",
                op.total_ns("profiler.profile") as f64 / ops / 1e6,
            ),
            (
                "optimizer.plan_ms",
                op.total_ns("optimizer.plan") as f64 / ops / 1e6,
            ),
            (
                "core.build_ms",
                op.total_ns("core.build") as f64 / ops / 1e6,
            ),
            (
                "workload.requests_ms",
                op.total_ns("workload.requests") as f64 / ops / 1e6,
            ),
            (
                "invariant.ns_per_event",
                get(c, "invariant.ns") / get(c, "invariant.events"),
            ),
            ("invariant.violations", get(c, "invariant.violations")),
        ]
    }

    fn dominant(&self) -> &'static [&'static str] {
        &["model.materialize", "kernel.loop"]
    }
}
