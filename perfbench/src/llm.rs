//! `llm_kv`: one op materializes CALM-T5 summarization sequences
//! (`materialize_sequences`) and serves them with iteration-level
//! continuous batching (`run_continuous`) under a finite KV-cache budget
//! with preemption. Sequences arrive as a seeded Poisson stream.

use std::time::Instant;

use e3::harness::ModelFamily;
use e3_hardware::{GpuKind, LatencyModel};
use e3_model::{InferenceSim, RampController};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::{EventLog, NullObserver};
use e3_runtime::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, KernelEvent, KvPlan, PreemptMode,
    SequenceSpec,
};
use e3_scenarios::{CheckerConfig, InvariantChecker};
use e3_simcore::rng::exp_sample;
use e3_simcore::{SeedSplitter, SimDuration, SimTime};
use e3_workload::DatasetModel;

use crate::outcome::{add, digest_report, get, timed, Counters, Outcome, Strata};
use crate::stats::Fnv;
use crate::trace::{LayerTotals, Tracer};
use crate::Workload;

/// KV-budget slices per (mode, rate) cell: 200 distinct ops, enough for
/// the pooled p99 to rest on many ops' tails.
const STRATA: usize = 20;
/// Poisson arrival rates, sequences per second, around the 4 replicas'
/// service rate.
const RATES: [f64; 5] = [150.0, 185.0, 220.0, 255.0, 290.0];
const SEQUENCES: usize = 2000;
const REPLICAS: usize = 4;
const MODES: [PreemptMode; 2] = [PreemptMode::Recompute, PreemptMode::Swap];
/// Per-sequence latency SLO (arrival to last token).
const SLO: SimDuration = SimDuration::from_secs(1);

struct Op {
    seed: u64,
    kv: KvPlan,
    /// Poisson arrival instants, one per sequence.
    arrivals: Vec<SimTime>,
}

pub struct LlmKv {
    family: ModelFamily,
    ctrl: RampController,
    dataset: DatasetModel,
    infer: InferenceSim,
    lm: LatencyModel,
    ops: Vec<Op>,
}

pub fn setup(seed: u64) -> LlmKv {
    let family = ModelFamily::llm_t5();
    let ctrl = RampController::all_enabled(family.ee.num_ramps(), family.policy.ramp_style());
    let dataset = DatasetModel::samsum();
    let infer = InferenceSim::with_accuracy(dataset.base_accuracy);
    let bytes_per_token = family
        .ee
        .autoreg()
        .expect("CALM-T5 is autoregressive")
        .kv_bytes_per_token;
    // Cells: preemption mode x arrival rate. The rate is a cell, not a
    // sliced axis, so every seed pairs the tightest KV budgets with the
    // highest rates equally often and the latency tail stays comparable.
    let s = Strata::new(seed, MODES.len() * RATES.len(), STRATA);
    let ops = (0..s.len())
        .map(|i| {
            let rate = RATES[s.cell(i) / MODES.len()];
            let mut rng = SeedSplitter::new(s.op_seed(i)).rng("arrivals");
            let mut at = 0.0;
            let arrivals = (0..SEQUENCES)
                .map(|_| {
                    at += exp_sample(&mut rng, rate);
                    SimTime::ZERO + SimDuration::from_secs_f64(at)
                })
                .collect();
            Op {
                seed: s.op_seed(i),
                kv: KvPlan {
                    capacity_tokens: s.uniform("kv-capacity", i, 96.0, 384.0) as usize,
                    bytes_per_token,
                    mode: MODES[s.cell(i) % MODES.len()],
                },
                arrivals,
            }
        })
        .collect();
    LlmKv {
        family,
        ctrl,
        dataset,
        infer,
        lm: LatencyModel::new(),
        ops,
    }
}

impl LlmKv {
    fn config(&self, op: &Op) -> ContinuousConfig<'_> {
        ContinuousConfig {
            model: &self.family.ee,
            ctrl: &self.ctrl,
            gpu: GpuKind::A6000,
            lm: &self.lm,
            join: JoinPolicy::Continuous,
            b0: 16,
            replicas_a: REPLICAS,
            boundary: None,
            replicas_b: 0,
            deferred_exits: false,
            kv: Some(op.kv),
            slo: SLO,
            fault_plan: FaultPlan::new(),
            b_max_wait: None,
        }
    }

    fn sequences(&self, op: &Op) -> Vec<SequenceSpec> {
        let mut specs = materialize_sequences(
            &self.family.ee,
            &self.family.policy,
            &self.ctrl,
            &self.infer,
            &self.dataset,
            SEQUENCES,
            op.seed,
        );
        for (s, &at) in specs.iter_mut().zip(&op.arrivals) {
            s.arrival = at;
        }
        specs
    }
}

fn outcome(specs: &[SequenceSpec], out: &e3_runtime::ContinuousOutcome, exact: bool) -> Outcome {
    let r = &out.report;
    let mut h = Fnv::default();
    digest_report(&mut h, r);
    h.u64(out.leftover).u64(out.boundary_crossings);
    let mut o = Outcome {
        host_ms: 0.0,
        offered: specs.len() as u64,
        terminal: r.completed + r.dropped + out.leftover,
        within: r.within_slo,
        sim_secs: r.duration.as_secs_f64(),
        latencies_ms: r.latency.samples_ms().to_vec(),
        digest: h.finish(),
        exact: exact.then(|| format!("{out:?}")),
        errors: Vec::new(),
    };
    o.check_conservation("sequences completed + dropped + leftover");
    let tokens: u64 = specs.iter().map(|s| s.tokens.len() as u64).sum();
    if out.leftover == 0 && r.dropped == 0 && r.tokens_generated != tokens {
        o.errors.push(format!(
            "tokens: {} generated != {tokens} materialized",
            r.tokens_generated
        ));
    }
    o
}

impl Workload for LlmKv {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run(&self, i: usize, exact: bool) -> Outcome {
        let op = &self.ops[i];
        let ((specs, out), host_ms) = timed(|| {
            let specs = self.sequences(op);
            let out = run_continuous(&self.config(op), &specs, &mut NullObserver);
            (specs, out)
        });
        Outcome {
            host_ms,
            ..outcome(&specs, &out, exact)
        }
    }

    fn run_traced(&self, i: usize, t: &mut Tracer, c: &mut Counters) -> Outcome {
        let op = &self.ops[i];
        let cfg = self.config(op);
        let root = t.enter("op");
        let specs = t.span("model.materialize_sequences", |_| self.sequences(op));
        let out = t.span("continuous.loop", |_| {
            run_continuous(&cfg, &specs, &mut NullObserver)
        });
        t.exit(root);
        let tokens: usize = specs.iter().map(|s| s.tokens.len()).sum();
        add(c, "model.tokens", tokens as f64);
        add(c, "continuous.tokens", out.report.tokens_generated as f64);
        add(
            c,
            "continuous.preemptions",
            out.report.kv_preemptions as f64,
        );
        add(c, "continuous.sequences", specs.len() as f64);

        let probe = t.enter("probe");
        let mut log = EventLog::new();
        t.span("continuous.loop_logged", |_| {
            run_continuous(&cfg, &specs, &mut log)
        });
        t.exit(probe);
        let freed: usize = log
            .events
            .iter()
            .map(|(_, e)| match e {
                KernelEvent::KvPreempted { tokens_freed, .. } => *tokens_freed,
                _ => 0,
            })
            .sum();
        add(c, "continuous.tokens_freed", freed as f64);
        add(c, "continuous.events", log.events.len() as f64);
        let start = Instant::now();
        let violations = InvariantChecker::check_log(
            CheckerConfig {
                kv_capacity_tokens: Some(op.kv.capacity_tokens),
                ..Default::default()
            },
            &log,
        );
        add(c, "invariant.ns", start.elapsed().as_nanos() as f64);
        add(c, "invariant.events", log.events.len() as f64);
        add(c, "invariant.violations", violations.len() as f64);

        let mut o = outcome(&specs, &out, true);
        if let Some(v) = violations.first() {
            o.errors.push(format!("invariant violation: {v}"));
        }
        o
    }

    fn layer_metrics(
        &self,
        op: &LayerTotals,
        _probe: &LayerTotals,
        c: &Counters,
    ) -> Vec<(&'static str, f64)> {
        let ops = op.count("continuous.loop").max(1) as f64;
        let loop_ns = op.total_ns("continuous.loop") as f64;
        let events = get(c, "continuous.events");
        let generated = get(c, "continuous.tokens");
        vec![
            (
                "model.ns_per_token",
                op.total_ns("model.materialize_sequences") as f64 / get(c, "model.tokens"),
            ),
            (
                "model.materialize_sequences_ms",
                op.total_ns("model.materialize_sequences") as f64 / ops / 1e6,
            ),
            ("continuous.loop_ms", loop_ns / ops / 1e6),
            ("continuous.ns_per_event", loop_ns / events),
            ("continuous.events_per_s", events / loop_ns * 1e9),
            ("continuous.tokens", generated / ops),
            (
                "continuous.preempt_per_seq",
                get(c, "continuous.preemptions") / get(c, "continuous.sequences"),
            ),
            (
                "continuous.kv_waste_frac",
                get(c, "continuous.tokens_freed") / generated,
            ),
            (
                "invariant.ns_per_event",
                get(c, "invariant.ns") / get(c, "invariant.events"),
            ),
            ("invariant.violations", get(c, "invariant.violations")),
        ]
    }

    fn dominant(&self) -> &'static [&'static str] {
        &["model.materialize_sequences", "continuous.loop"]
    }
}
