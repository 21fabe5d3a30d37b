//! Pins every `RunReport` field of every driver that produces one.
//!
//! A corpus of runs — the serving kernel under decoded fault plans, both
//! batching policies and both loop modes; kernel runs that provoke each
//! tail-tolerance mechanism; continuous batching under KV pressure with
//! faults; and the serial barrier mode — is reduced to one FNV-1a hash of
//! each report's `{:?}` and compared against `tests/golden/report_fold.txt`.
//! `{:?}` covers every field, so any change to what a run reports moves a
//! hash. A coverage test asserts that the corpus drives every counter
//! away from zero somewhere, so no field is pinned only at its default.
//! A replay test feeds each recorded event stream through a fresh
//! `RunAccumulator` and demands the very report the run returned: the
//! report is a fold over the stream and nothing else.

use e3_hardware::{ClusterSpec, DomainTopology, GpuKind, LatencyModel, TransferModel};
use e3_model::{zoo, EeModel, ExitPolicy, InferenceSim, RampController, RampStyle};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::{EventLog, RunAccumulator, RunObserver, StaticBatching};
use e3_runtime::serial::run_serial_barrier;
use e3_runtime::strategy::StageSpec;
use e3_runtime::{
    run_continuous, BreakerConfig, ContinuousConfig, FaultPlan, HedgeConfig, JoinPolicy, KvPlan,
    PreemptMode, RunReport, ServingConfig, ServingSim, ShedCause, Strategy, TransferRetryConfig,
};
use e3_scenarios::{decode_fault_plan, RECORD_BYTES};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::{ArrivalProcess, DatasetModel, Request, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("../golden/report_fold.txt");

/// One corpus entry: the report a run returned and, for drivers that
/// stream events to a caller's observer, the recorded stream plus an
/// empty accumulator of the run's shape to replay it into.
struct Case {
    name: String,
    report: RunReport,
    replay: Option<(EventLog, RunAccumulator)>,
}

/// FNV-1a over the report's `{:?}`.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deterministic byte stream for the fault-plan decoder (splitmix64).
fn plan_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed;
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(n);
    out
}

fn closed_requests(n: usize, seed: u64) -> Vec<Request> {
    let g = WorkloadGenerator::new(
        ArrivalProcess::ClosedLoop { concurrency: 64 },
        DatasetModel::sst2(),
        SimDuration::from_secs(60),
    );
    g.generate(n, &mut StdRng::seed_from_u64(seed))
}

fn poisson_requests(rate: f64, horizon_ms: u64, seed: u64) -> Vec<Request> {
    let g = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate },
        DatasetModel::sst2(),
        SimDuration::from_millis(horizon_ms),
    );
    g.generate(0, &mut StdRng::seed_from_u64(seed))
}

/// A two-stage DeeBERT pipeline over six V100s (4 + 2 replicas), so
/// transfers, fusion and link faults all occur.
fn pipeline() -> Vec<StageSpec> {
    vec![
        StageSpec {
            layers: 0..6,
            target_batch: 8,
            replicas: vec![GpuKind::V100; 4],
            deferred_exits: true,
        },
        StageSpec {
            layers: 6..12,
            target_batch: 8,
            replicas: vec![GpuKind::V100; 2],
            deferred_exits: true,
        },
    ]
}

fn kernel_case(
    name: String,
    model: &EeModel,
    stages: Vec<StageSpec>,
    cfg: ServingConfig,
    reqs: &[Request],
    seed: u64,
    static_batching: bool,
) -> Case {
    let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
    let targets: Vec<usize> = stages.iter().map(|s| s.target_batch).collect();
    let replicas = stages.iter().map(|s| s.replicas.len()).sum();
    let acc = RunAccumulator::new(stages.len(), replicas, cfg.slo, cfg.record_exit_events);
    let sim = ServingSim::new(
        model,
        ExitPolicy::Entropy { threshold: 0.4 },
        ctrl,
        InferenceSim::new(),
        stages,
        LatencyModel::new(),
        TransferModel::default(),
        cfg,
    );
    let mut policies = sim.default_policies();
    if static_batching {
        policies.batching = Box::new(StaticBatching::new(&targets));
    }
    let mut log = EventLog::new();
    let report = sim.run_with(reqs, seed, policies, &mut log);
    Case {
        name,
        report,
        replay: Some((log, acc)),
    }
}

/// Kernel runs over decoded fault plans x {fusion, static} batching x
/// {closed, open} loop, with straggler detection and a patient retry
/// schedule so exclusions, recoveries and transfer retries all occur.
fn fault_plan_cases(out: &mut Vec<Case>) {
    let model = zoo::deebert();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 6, 2);
    let topology = DomainTopology::derive(&cluster, 1);
    for seed in 0..4u64 {
        for closed in [true, false] {
            let plan = decode_fault_plan(
                &plan_bytes(seed, RECORD_BYTES * (3 + seed as usize)),
                &topology,
                &[0, 4],
                6,
                2,
                SimDuration::from_millis(if closed { 300 } else { 600 }),
            );
            let reqs = if closed {
                closed_requests(1200, seed)
            } else {
                poisson_requests(700.0, 800, seed)
            };
            for static_batching in [false, true] {
                let cfg = ServingConfig {
                    closed_loop: closed,
                    slo: SimDuration::from_millis(40),
                    detect_stragglers: true,
                    transfer_retry: TransferRetryConfig {
                        max_attempts: 4,
                        base_backoff: SimDuration::from_millis(1),
                    },
                    fault_plan: plan.clone(),
                    ..Default::default()
                };
                let name = format!(
                    "kernel/plan{seed}/{}/{}",
                    if closed { "closed" } else { "open" },
                    if static_batching { "static" } else { "fusion" }
                );
                out.push(kernel_case(
                    name,
                    &model,
                    pipeline(),
                    cfg,
                    &reqs,
                    seed,
                    static_batching,
                ));
            }
        }
    }
}

/// Kernel runs that each provoke one piece of tail-tolerance machinery.
fn mechanism_cases(out: &mut Vec<Case>) {
    let bert = zoo::bert_base();
    let deebert = zoo::deebert();
    let vanilla = |n: usize| {
        Strategy::Vanilla { batch: 8 }
            .realize(&bert, &ClusterSpec::homogeneous(GpuKind::V100, n, 1))
    };
    // Per-replica queue bound under overload, organic and brownout-tagged.
    let overload = poisson_requests(5000.0, 300, 25);
    for cause in [ShedCause::QueueCap, ShedCause::Brownout] {
        let cfg = ServingConfig {
            closed_loop: false,
            horizon: Some(SimDuration::from_millis(300)),
            queue_cap: Some(1),
            shed_cause: cause,
            ..Default::default()
        };
        let name = format!("kernel/queue_cap/{cause:?}");
        out.push(kernel_case(
            name,
            &bert,
            vanilla(2),
            cfg,
            &overload,
            25,
            false,
        ));
    }
    // Hedged dispatch around a gray replica.
    let cfg = ServingConfig {
        closed_loop: false,
        horizon: Some(SimDuration::from_millis(600)),
        slo: SimDuration::from_millis(30),
        hedge: Some(HedgeConfig::default()),
        fault_plan: FaultPlan::new().gray(
            2,
            8.0,
            SimTime::from_millis(5),
            SimTime::from_millis(600),
        ),
        ..Default::default()
    };
    let reqs = poisson_requests(300.0, 600, 23);
    out.push(kernel_case(
        "kernel/hedge".into(),
        &bert,
        vanilla(3),
        cfg,
        &reqs,
        23,
        false,
    ));
    // Circuit breaker tripping, probing and closing on a gray replica.
    let cfg = ServingConfig {
        detect_stragglers: true,
        breaker: Some(BreakerConfig::default()),
        fault_plan: FaultPlan::new().gray(
            2,
            3.0,
            SimTime::from_millis(5),
            SimTime::from_millis(300),
        ),
        ..Default::default()
    };
    let reqs = closed_requests(2500, 22);
    out.push(kernel_case(
        "kernel/breaker".into(),
        &bert,
        vanilla(4),
        cfg,
        &reqs,
        22,
        false,
    ));
    // A finite retry budget against a long link outage.
    for budget in [None, Some(4)] {
        let cfg = ServingConfig {
            fault_plan: FaultPlan::new().link_down(
                0,
                SimTime::from_millis(5),
                SimTime::from_millis(200),
            ),
            transfer_retry: TransferRetryConfig {
                max_attempts: 30,
                base_backoff: SimDuration::from_millis(1),
            },
            retry_budget: budget,
            ..Default::default()
        };
        let name = format!("kernel/retry_budget/{budget:?}");
        let reqs = closed_requests(1500, 24);
        out.push(kernel_case(
            name,
            &deebert,
            pipeline(),
            cfg,
            &reqs,
            24,
            false,
        ));
    }
}

/// Continuous batching under KV pressure, Recompute and Swap, with a
/// crash/recover plan; plus a two-stage split under a link outage.
fn continuous_cases(out: &mut Vec<Case>) {
    let model = zoo::calm_t5();
    let ar = *model.autoreg().expect("calm_t5 is autoregressive");
    let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
    let specs = materialize_sequences(
        &model,
        &zoo::default_policy("CALM"),
        &ctrl,
        &InferenceSim::new(),
        &DatasetModel::samsum(),
        40,
        0xE3,
    );
    let lm = LatencyModel::new();
    let base = |mode: PreemptMode| ContinuousConfig {
        model: &model,
        ctrl: &ctrl,
        gpu: GpuKind::A6000,
        lm: &lm,
        join: JoinPolicy::Continuous,
        b0: 8,
        replicas_a: 2,
        boundary: None,
        replicas_b: 0,
        deferred_exits: false,
        kv: Some(KvPlan {
            capacity_tokens: 96,
            bytes_per_token: ar.kv_bytes_per_token,
            mode,
        }),
        slo: SimDuration::from_secs(2),
        fault_plan: FaultPlan::new()
            .crash(0, SimTime::from_millis(2))
            .recover(0, SimTime::from_millis(8))
            .slowdown(1, 2.0, SimTime::from_millis(3), SimTime::from_millis(20)),
        b_max_wait: None,
    };
    let mut split = base(PreemptMode::Recompute);
    split.kv = None;
    split.boundary = Some(11);
    split.replicas_b = 1;
    split.deferred_exits = true;
    split.fault_plan = FaultPlan::new()
        .link_down(0, SimTime::from_millis(1), SimTime::from_millis(6))
        .stall(1, SimTime::from_millis(8), SimTime::from_millis(12));
    let cfgs = [
        ("continuous/Recompute", base(PreemptMode::Recompute)),
        ("continuous/Swap", base(PreemptMode::Swap)),
        ("continuous/split", split),
    ];
    for (name, cfg) in cfgs {
        let stages = 1 + usize::from(cfg.boundary.is_some());
        let acc = RunAccumulator::new(stages, cfg.replicas_a + cfg.replicas_b, cfg.slo, false);
        let mut log = EventLog::new();
        let report = run_continuous(&cfg, &specs, &mut log).report;
        out.push(Case {
            name: name.into(),
            report,
            replay: Some((log, acc)),
        });
    }
}

/// The serial barrier mode streams to no caller, so it has no replay.
fn serial_case(out: &mut Vec<Case>) {
    let model = zoo::deebert();
    let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
    let report = run_serial_barrier(
        &model,
        zoo::default_policy("DeeBERT"),
        &ctrl,
        &InferenceSim::new(),
        &[4, 8],
        &[GpuKind::V100; 3],
        8,
        SimDuration::from_millis(30),
        &LatencyModel::new(),
        &closed_requests(1000, 7),
        7,
    );
    out.push(Case {
        name: "serial".into(),
        report,
        replay: None,
    });
}

fn corpus() -> Vec<Case> {
    let mut out = Vec::new();
    fault_plan_cases(&mut out);
    mechanism_cases(&mut out);
    continuous_cases(&mut out);
    serial_case(&mut out);
    out
}

#[test]
fn every_report_matches_its_golden_hash() {
    let corpus = corpus();
    let actual: String = corpus
        .iter()
        .map(|c| format!("{} {:016x}\n", c.name, fnv(&format!("{:?}", c.report))))
        .collect();
    if actual != GOLDEN {
        let golden: Vec<&str> = GOLDEN.lines().collect();
        for (c, line) in corpus.iter().zip(actual.lines()) {
            if !golden.contains(&line) {
                eprintln!("{} drifted; its report is now:\n{:?}\n", c.name, c.report);
            }
        }
        panic!("report hashes drifted from tests/golden/report_fold.txt:\n{actual}");
    }
}

#[test]
fn replaying_the_event_log_reproduces_the_report() {
    let mut replayed = 0;
    for c in corpus() {
        let Some((log, mut acc)) = c.replay else {
            continue;
        };
        for (at, e) in &log.events {
            acc.on_event(*at, e);
        }
        let report = acc.finish(c.report.duration);
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", c.report),
            "{}: the replayed stream folds to a different report",
            c.name
        );
        replayed += 1;
    }
    assert!(replayed >= 20, "only {replayed} cases replayed");
}

#[test]
fn corpus_drives_every_counter_off_zero() {
    let corpus = corpus();
    let any = |f: &dyn Fn(&RunReport) -> bool| corpus.iter().any(|c| f(&c.report));
    let checks: [(&str, bool); 21] = [
        ("dropped", any(&|r| r.dropped > 0)),
        (
            "sheds.queue_cap",
            any(&|r| r.robustness.sheds.queue_cap > 0),
        ),
        (
            "sheds.admission",
            any(&|r| r.robustness.sheds.admission > 0),
        ),
        (
            "sheds.transfer_abort",
            any(&|r| r.robustness.sheds.transfer_abort > 0),
        ),
        ("sheds.brownout", any(&|r| r.robustness.sheds.brownout > 0)),
        ("transfer_retries", any(&|r| r.transfer_retries > 0)),
        ("transfer_aborts", any(&|r| r.transfer_aborts > 0)),
        (
            "retry_budget_exhausted",
            any(&|r| r.robustness.retry_budget_exhausted > 0),
        ),
        (
            "hedges_dispatched",
            any(&|r| r.robustness.hedges_dispatched > 0),
        ),
        ("hedges_won", any(&|r| r.robustness.hedges_won > 0)),
        (
            "hedges_cancelled",
            any(&|r| r.robustness.hedges_cancelled > 0),
        ),
        ("breaker_trips", any(&|r| r.robustness.breaker_trips > 0)),
        ("breaker_probes", any(&|r| r.robustness.breaker_probes > 0)),
        ("breaker_closes", any(&|r| r.robustness.breaker_closes > 0)),
        (
            "stragglers_detected",
            any(&|r| !r.stragglers_detected.is_empty()),
        ),
        ("faults_injected", any(&|r| r.faults_injected > 0)),
        ("degraded_completed", any(&|r| r.degraded_completed > 0)),
        ("kv_preemptions", any(&|r| r.kv_preemptions > 0)),
        (
            "peak_replica_queue_depth",
            any(&|r| r.peak_replica_queue_depth.iter().any(|&d| d > 0)),
        ),
        (
            "replica_availability < 1",
            any(&|r| r.replica_availability.iter().any(|&a| a < 1.0)),
        ),
        ("tokens_generated", any(&|r| r.tokens_generated > 0)),
    ];
    let missing: Vec<&str> = checks
        .iter()
        .filter(|(_, hit)| !hit)
        .map(|(name, _)| *name)
        .collect();
    assert!(missing.is_empty(), "corpus never exercises: {missing:?}");
}
