//! Optimizer planning-time benchmark: wall time vs cluster size.
//!
//! Times three planning modes of the warm-started incremental DP at each
//! cluster size, up to the 10k-GPU horizon:
//!
//! * `cold` — fresh [`PlanCache`]: the full binary-search DP fills its
//!   tables from scratch.
//! * `warm` — the immediately repeated query: a cache hit, so the plan
//!   is pure parent-pointer reconstruction.
//! * `extend` — the cache holds tables for a smaller cluster (7/8 of
//!   `m`); only the missing GPU columns are filled.
//!
//! Then it times the heterogeneous solver on the paper's pool of 6 V100,
//! 8 P100 and 15 K80, `cold` (a fresh stage table) and `warm` (a
//! [`ValueOracle`] whose stage table another count vector already
//! filled), and one 3-tenant `MarginalGoodput` allocation on the same
//! pool, the oracle-driven control step of the multi-tenant study. These
//! report the median of several samples, plus how many kind assignments
//! the heterogeneous search enumerated and how many of those it actually
//! waterfilled (the rest lost to a bound first). The counts are
//! deterministic.
//!
//! One JSON line per measurement so CI can archive the output as
//! `BENCH_optimizer.json`:
//!
//! ```text
//! cargo run --release -p e3-bench --bin bench_optimizer > BENCH_optimizer.json
//! ```

use std::time::Instant;

use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, TransferModel};
use e3_model::{zoo, BatchProfile, RampController, RampStyle};
use e3_optimizer::{
    optimize_heterogeneous, optimize_homogeneous_cached, OptimizerConfig, PlanCache, ValueOracle,
};
use e3_simcore::SimDuration;
use e3_tenancy::{ClusterAllocator, MarginalGoodput, TenantDemand};

/// Timed samples per heterogeneous measurement.
const SAMPLES: usize = 9;

/// Median wall time of `SAMPLES` runs of `run`, which returns the
/// seconds of its own timed region.
fn median_secs(mut run: impl FnMut() -> f64) -> f64 {
    let mut secs: Vec<f64> = (0..SAMPLES).map(|_| run()).collect();
    secs.sort_by(f64::total_cmp);
    secs[SAMPLES / 2]
}

fn main() {
    let model = zoo::deebert();
    let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
    let profile = BatchProfile::new(vec![
        1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
    ]);
    let (tm, lm) = (TransferModel::default(), LatencyModel::new());
    let cfg = OptimizerConfig {
        max_splits: 4,
        ..Default::default()
    };
    let solve = |m: usize, cache: &mut PlanCache| {
        optimize_homogeneous_cached(
            &model,
            &ctrl,
            &profile,
            GpuKind::V100,
            m,
            8.0,
            &tm,
            &lm,
            &cfg,
            cache,
        )
    };

    for &m in &[16usize, 100, 1000, 10_000] {
        let mut cache = PlanCache::new();
        let start = Instant::now();
        let cold_plan = solve(m, &mut cache);
        let cold = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let warm_plan = solve(m, &mut cache);
        let warm = start.elapsed().as_secs_f64();
        assert_eq!(cold_plan, warm_plan, "warm re-plan must equal cold solve");

        let mut cache = PlanCache::new();
        solve(m - m / 8, &mut cache);
        let start = Instant::now();
        let ext_plan = solve(m, &mut cache);
        let extend = start.elapsed().as_secs_f64();
        assert_eq!(cold_plan, ext_plan, "extended solve must equal cold solve");

        println!(
            "{{\"bench\":\"optimizer\",\"gpus\":{},\"splits\":{},\"cold_secs\":{:.6},\"warm_secs\":{:.6},\"extend_secs\":{:.6},\"warm_speedup\":{:.1},\"extend_speedup\":{:.1}}}",
            m,
            cold_plan.splits.len(),
            cold,
            warm,
            extend,
            cold / warm.max(1e-9),
            cold / extend.max(1e-9)
        );
    }

    let cluster = ClusterSpec::paper_heterogeneous();
    let counts = cluster.gpu_counts();
    // The warm solve's table was filled for a different count vector.
    let mut primer = counts.clone();
    *primer.get_mut(&GpuKind::K80).expect("paper pool has K80s") -= 1;
    let solve_hetero =
        || optimize_heterogeneous(&model, &ctrl, &profile, &counts, 8.0, &tm, &lm, &cfg);
    let plan = solve_hetero();
    let cold = median_secs(|| {
        let start = Instant::now();
        let cold_plan = solve_hetero();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(cold_plan, plan, "heterogeneous solves must repeat");
        secs
    });
    let mut search = (0, 0);
    let warm = median_secs(|| {
        let mut oracle = ValueOracle::new(&model, &ctrl, &profile, 8.0, &tm, &lm, &cfg);
        oracle.value(&primer);
        let start = Instant::now();
        let value = oracle.value(&counts);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            value.goodput, plan.goodput,
            "warm solve must equal cold solve"
        );
        search = (
            oracle.assignments_enumerated(),
            oracle.assignments_waterfilled(),
        );
        secs
    });
    println!(
        "{{\"bench\":\"optimizer_hetero\",\"gpus\":{},\"splits\":{},\"samples\":{},\"cold_secs\":{:.6},\"warm_secs\":{:.6},\"warm_speedup\":{:.1},\"assignments_enumerated\":{},\"assignments_waterfilled\":{}}}",
        cluster.num_gpus(),
        plan.splits.len(),
        SAMPLES,
        cold,
        warm,
        cold / warm.max(1e-9),
        search.0,
        search.1
    );

    // Three tenants with different exit behaviour and demand.
    let profiles = [
        profile.clone(),
        BatchProfile::new(vec![
            1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.42, 0.4, 0.38, 0.36, 0.35, 0.35,
        ]),
        BatchProfile::no_exits(model.num_layers()),
    ];
    let demands: Vec<TenantDemand> = [4000.0, 2500.0, 1500.0]
        .iter()
        .map(|&demand_rate| TenantDemand {
            demand_rate,
            weight: 1.0,
            slo: SimDuration::from_millis(100),
        })
        .collect();
    let mut solves = 0;
    let alloc = median_secs(|| {
        let mut oracles: Vec<ValueOracle<'_>> = profiles
            .iter()
            .map(|p| ValueOracle::new(&model, &ctrl, p, 8.0, &tm, &lm, &cfg))
            .collect();
        let start = Instant::now();
        let shares = MarginalGoodput::default().allocate(&cluster, &demands, &mut oracles);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(shares.len(), demands.len());
        solves = oracles.iter().map(ValueOracle::subsets_solved).sum();
        search = oracles.iter().fold((0, 0), |(e, w), o| {
            (
                e + o.assignments_enumerated(),
                w + o.assignments_waterfilled(),
            )
        });
        secs
    });
    println!(
        "{{\"bench\":\"marginal_allocate\",\"tenants\":{},\"gpus\":{},\"samples\":{},\"oracle_solves\":{},\"secs\":{:.6},\"assignments_enumerated\":{},\"assignments_waterfilled\":{}}}",
        demands.len(),
        cluster.num_gpus(),
        SAMPLES,
        solves,
        alloc,
        search.0,
        search.1
    );
}
