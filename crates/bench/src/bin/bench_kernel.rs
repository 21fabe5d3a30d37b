//! Kernel event-throughput microbenchmark.
//!
//! Three sections, one JSON line each, so CI can archive the output as
//! `BENCH_kernel.json` and diff `events_per_sec` against the committed
//! baseline:
//!
//! 1. `kernel` — the fixed fig. 7 E3 configuration (BERT/DeeBERT on 16
//!    V100s, b=8, 20k requests). The Monte-Carlo materialization runs
//!    *once* (`ServingSim::materialize_backlog`); the timed region is
//!    the kernel event loop alone (`run_backlog_observed`), repeated to
//!    amortize timer noise. This is the number the binary-heap event
//!    queue and the allocation-free batch loops are accountable to.
//! 2. `kernel_continuous` — CALM-T5 continuous batching on SAMSum under
//!    a finite KV budget (admission + preemption events included).
//! 3. `kernel_multi_tenant` — three NLP tenants under joint allocation
//!    on 6 V100s; events are every tenant's tagged kernel stream.
//!
//! ```text
//! cargo run --release -p e3-bench --bin bench_kernel > BENCH_kernel.json
//! ```

use std::time::Instant;

use e3::harness::{build_closed_loop_sim, HarnessOpts, ModelFamily, SystemKind};
use e3_bench::{RUN_N, SEED};
use e3_hardware::{ClusterSpec, GpuKind, LatencyModel};
use e3_model::{InferenceSim, RampController};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, KernelEvent, KvPlan, PreemptMode,
    RunObserver, TaggedEventLog,
};
use e3_simcore::{SimDuration, SimTime};
use e3_tenancy::{MarginalGoodput, MultiTenantSystem, TenancyConfig, TenantSpec};
use e3_workload::DatasetModel;

/// Timed repetitions per section (event counts are per repetition).
const REPS: usize = 5;

struct CountingObserver {
    events: u64,
}

impl RunObserver for CountingObserver {
    fn on_event(&mut self, _now: SimTime, _event: &KernelEvent) {
        self.events += 1;
    }
}

/// Section 1: windowed kernel loop over a pre-materialized backlog.
fn bench_windowed() {
    let family = ModelFamily::nlp();
    let (sim, reqs, run_seed) = build_closed_loop_sim(
        SystemKind::E3,
        &family,
        &ClusterSpec::paper_homogeneous_v100(),
        8,
        &DatasetModel::sst2(),
        RUN_N,
        &HarnessOpts::default(),
        SEED,
    );
    let backlog = sim.materialize_backlog(&reqs, run_seed);
    // Warm-up pass: faults caches and sizes the arena before timing.
    let mut obs = CountingObserver { events: 0 };
    let report = sim.run_backlog_observed(backlog.clone(), &mut obs);
    let per_run = obs.events;

    let mut obs = CountingObserver { events: 0 };
    let start = Instant::now();
    for _ in 0..REPS {
        sim.run_backlog_observed(backlog.clone(), &mut obs);
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{{\"bench\":\"kernel\",\"requests\":{},\"completed\":{},\"events\":{},\"wall_secs\":{:.3},\"events_per_sec\":{:.0}}}",
        RUN_N,
        report.completed,
        per_run,
        wall,
        obs.events as f64 / wall.max(1e-9)
    );
}

/// Section 2: continuous-batching kernel loop (KV admission/preemption
/// events included) over pre-materialized token journeys.
fn bench_continuous() {
    let fam = ModelFamily::llm_t5();
    let ctrl = RampController::all_enabled(fam.ee.num_ramps(), fam.policy.ramp_style());
    let ds = DatasetModel::samsum();
    let infer = InferenceSim::with_accuracy(ds.base_accuracy);
    let lm = LatencyModel::new();
    let n_seqs = 400;
    let specs = materialize_sequences(&fam.ee, &fam.policy, &ctrl, &infer, &ds, n_seqs, SEED);
    let cfg = ContinuousConfig {
        model: &fam.ee,
        ctrl: &ctrl,
        gpu: GpuKind::A6000,
        lm: &lm,
        join: JoinPolicy::Continuous,
        b0: 16,
        replicas_a: 4,
        boundary: None,
        replicas_b: 0,
        deferred_exits: false,
        kv: Some(KvPlan {
            capacity_tokens: 256,
            bytes_per_token: fam.ee.autoreg().expect("autoreg").kv_bytes_per_token,
            mode: PreemptMode::Recompute,
        }),
        slo: SimDuration::from_secs(86_400),
        fault_plan: FaultPlan::new(),
        b_max_wait: None,
    };
    let mut obs = CountingObserver { events: 0 };
    let outcome = run_continuous(&cfg, &specs, &mut obs);
    let per_run = obs.events;

    let mut obs = CountingObserver { events: 0 };
    let start = Instant::now();
    for _ in 0..REPS {
        run_continuous(&cfg, &specs, &mut obs);
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{{\"bench\":\"kernel_continuous\",\"sequences\":{},\"completed\":{},\"events\":{},\"wall_secs\":{:.3},\"events_per_sec\":{:.0}}}",
        n_seqs,
        outcome.report.completed,
        per_run,
        wall,
        obs.events as f64 / wall.max(1e-9)
    );
}

/// Section 3: multi-tenant serving — every tenant's tagged kernel
/// stream, including the per-window plan solves the control loop pays.
fn bench_multi_tenant() {
    let cfg = TenancyConfig {
        windows: 4,
        realloc_every: 2,
        seed: SEED,
        profile_samples: 400,
        max_splits: 2,
        ..Default::default()
    };
    let horizon = cfg.window * cfg.windows as u64;
    let tenants: Vec<TenantSpec> = (0..3)
        .map(|i| {
            TenantSpec::nlp_stationary(&format!("tenant{i}"), DatasetModel::with_mix(0.6), horizon)
                .with_demand(300)
        })
        .collect();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 6, 2);
    let sys = MultiTenantSystem::new(tenants, cluster, cfg);

    let mut log = TaggedEventLog::new();
    let report = sys.run_observed(&MarginalGoodput::default(), &mut log);
    let per_run = log.events.len() as u64;

    let mut events = 0u64;
    let start = Instant::now();
    for _ in 0..REPS {
        let mut log = TaggedEventLog::new();
        sys.run_observed(&MarginalGoodput::default(), &mut log);
        events += log.events.len() as u64;
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{{\"bench\":\"kernel_multi_tenant\",\"tenants\":3,\"windows\":4,\"completed\":{},\"events\":{},\"wall_secs\":{:.3},\"events_per_sec\":{:.0}}}",
        report.tenants.iter().map(|t| t.within_slo()).sum::<u64>(),
        per_run,
        wall,
        events as f64 / wall.max(1e-9)
    );
}

fn main() {
    bench_windowed();
    bench_continuous();
    bench_multi_tenant();
}
