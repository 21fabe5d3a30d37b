//! Incremental marginal-value queries over cluster subsets.
//!
//! The tenancy layer's water-filling allocator repeatedly asks "what
//! would tenant *t*'s best plan be worth on its current GPU grant plus
//! one more device of kind *k*?" — the same DP optimization, over nearly
//! the same subsets, many times per allocation round. [`ValueOracle`]
//! wraps the split optimizer as a value function over per-kind GPU
//! counts and memoizes every subset it has ever solved, so the greedy
//! outer loop pays for each distinct subset exactly once.
//!
//! Every subset reads one stage table, so each stage of the planning
//! context is priced once per oracle rather than once per subset.
//! Single-kind subsets skip the heterogeneous boundary/kind enumeration
//! and run the homogeneous DP (pipelined or serial) on the table's
//! entries for their kind, the pipelined one warm-started across GPU
//! counts by a [`PlanCache`]; mixed subsets run the bounded
//! heterogeneous search on it.

use std::collections::BTreeMap;
use std::collections::HashMap;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::auto::plan_feasible;
use crate::cache::PlanCache;
use crate::config::OptimizerConfig;
use crate::dp::optimize_homogeneous_tabled;
use crate::hetero::optimize_tabled;
use crate::plan::SplitPlan;
use crate::stage::StageTable;

/// The optimizer's verdict on one GPU-count subset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsetValue {
    /// Best-plan goodput on the subset (input samples/s).
    pub goodput: f64,
    /// Whether that plan satisfies the configured SLO budget.
    pub feasible: bool,
    /// Dollar cost per second of the GPUs the plan occupies.
    pub cost_per_sec: f64,
}

/// A memoizing value function: per-kind GPU counts → best-plan value for
/// one (model, profile, batch, config) context.
///
/// The cache key is the count vector itself, so queries are *incremental*
/// in the water-filling sense: evaluating `counts + 1×k` after `counts`
/// costs one new DP solve, and re-evaluating either is a map lookup.
pub struct ValueOracle<'a> {
    cfg: &'a OptimizerConfig,
    cache: HashMap<Vec<(GpuKind, usize)>, SubsetValue>,
    /// Warm-start state for the homogeneous DP behind single-kind
    /// subsets: the water-filling loop grows counts one GPU at a time,
    /// which the plan cache answers by extending one DP column instead
    /// of re-solving.
    plans: PlanCache,
    /// Stage prices behind every subset: all of them read the same
    /// one-replica stage times and transfers.
    stages: StageTable<'a>,
}

impl<'a> ValueOracle<'a> {
    /// Creates an oracle for one tenant's planning context.
    #[allow(clippy::too_many_arguments)] // the DP inputs of fig. 6
    pub fn new(
        model: &'a EeModel,
        ctrl: &'a RampController,
        profile: &'a BatchProfile,
        b0: f64,
        tm: &'a TransferModel,
        lm: &'a LatencyModel,
        cfg: &'a OptimizerConfig,
    ) -> Self {
        ValueOracle {
            cfg,
            cache: HashMap::new(),
            plans: PlanCache::new(),
            stages: StageTable::new(model, ctrl, profile, b0, tm, lm),
        }
    }

    /// Best-plan value on the subset described by `counts`. Zero-count
    /// entries are ignored; an all-zero subset is worth nothing.
    pub fn value(&mut self, counts: &BTreeMap<GpuKind, usize>) -> SubsetValue {
        let key: Vec<(GpuKind, usize)> = counts
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&k, &n)| (k, n))
            .collect();
        if key.is_empty() {
            return SubsetValue {
                goodput: 0.0,
                feasible: false,
                cost_per_sec: 0.0,
            };
        }
        if let Some(v) = self.cache.get(&key) {
            return *v;
        }
        let plan = self.solve(&key);
        let v = SubsetValue {
            goodput: plan.goodput,
            feasible: plan_feasible(&plan, self.cfg),
            cost_per_sec: plan.cost_per_sec(),
        };
        self.cache.insert(key, v);
        v
    }

    /// The goodput gained by adding one GPU of `kind` to `counts`.
    /// Never negative: a device the optimizer cannot use is worth zero,
    /// not a penalty.
    pub fn marginal_gain(&mut self, counts: &BTreeMap<GpuKind, usize>, kind: GpuKind) -> f64 {
        let base = self.value(counts).goodput;
        let mut grown = counts.clone();
        *grown.entry(kind).or_insert(0) += 1;
        (self.value(&grown).goodput - base).max(0.0)
    }

    /// Distinct subsets solved so far (cache size) — exposed so callers
    /// and tests can verify the incremental-query claim.
    pub fn subsets_solved(&self) -> usize {
        self.cache.len()
    }

    /// Kind assignments the heterogeneous search behind mixed-kind
    /// subsets has enumerated so far, including those its bounds skipped.
    pub fn assignments_enumerated(&self) -> u64 {
        self.stages.search.enumerated
    }

    /// Kind assignments whose replica counts the heterogeneous search
    /// actually waterfilled; the rest of
    /// [`Self::assignments_enumerated`] lost to a bound first.
    pub fn assignments_waterfilled(&self) -> u64 {
        self.stages.search.waterfilled
    }

    fn solve(&mut self, key: &[(GpuKind, usize)]) -> SplitPlan {
        match *key {
            [(kind, n)] => {
                optimize_homogeneous_tabled(&mut self.stages, kind, n, self.cfg, &mut self.plans)
            }
            _ => optimize_tabled(&mut self.stages, key, self.cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimize_homogeneous;
    use e3_model::{zoo, RampStyle};

    fn profile() -> BatchProfile {
        let mut surv = vec![1.0];
        for k in 1..=12 {
            surv.push((1.0 - 0.07 * k as f64).max(0.1));
        }
        BatchProfile::new(surv)
    }

    #[test]
    fn value_matches_direct_optimization_and_caches() {
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = profile();
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        let mut oracle = ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);

        let counts = BTreeMap::from([(GpuKind::V100, 6)]);
        let direct = optimize_homogeneous(&m, &ctrl, &p, GpuKind::V100, 6, 8.0, &tm, &lm, &cfg);
        let v = oracle.value(&counts);
        assert_eq!(v.goodput, direct.goodput);
        assert_eq!(v.cost_per_sec, direct.cost_per_sec());
        assert_eq!(oracle.subsets_solved(), 1);
        // Re-query hits the cache; marginal query adds exactly one solve.
        let _ = oracle.value(&counts);
        assert_eq!(oracle.subsets_solved(), 1);
        let gain = oracle.marginal_gain(&counts, GpuKind::V100);
        assert_eq!(oracle.subsets_solved(), 2);
        assert!(gain > 0.0, "an extra V100 must help: {gain}");
    }

    #[test]
    fn single_kind_subsets_match_fresh_homogeneous_solves() {
        // Single-kind subsets run the homogeneous DP, pipelined or
        // serial, on the oracle's stage table; every kind and count must
        // still plan exactly as a fresh solve does. Llama at b=3000
        // overflows every K80 range, so that context also takes the
        // unconstrained fallback.
        let deebert = zoo::deebert();
        let llama = zoo::llama31_8b();
        let (tm, lm) = (TransferModel::default(), LatencyModel::new());
        let contexts = [
            (&deebert, profile(), 8.0, 16),
            (
                &llama,
                BatchProfile::no_exits(llama.num_layers()),
                3000.0,
                4,
            ),
        ];
        for pipelining in [true, false] {
            let cfg = OptimizerConfig {
                pipelining,
                ..Default::default()
            };
            for (m, p, b0, pool) in &contexts {
                let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
                let mut oracle = ValueOracle::new(m, &ctrl, p, *b0, &tm, &lm, &cfg);
                for kind in GpuKind::ALL {
                    for n in 1..=*pool {
                        let direct =
                            optimize_homogeneous(m, &ctrl, p, kind, n, *b0, &tm, &lm, &cfg);
                        let at = format!("{kind:?} x{n} pipelining={pipelining}");
                        if *b0 == 3000.0 && kind == GpuKind::K80 {
                            assert!(!direct.memory_feasible(m), "sanity: no K80 plan fits");
                        }
                        assert_eq!(oracle.solve(&[(kind, n)]), direct, "{at}");
                        let v = oracle.value(&BTreeMap::from([(kind, n)]));
                        assert_eq!(v.goodput, direct.goodput, "{at}");
                        assert_eq!(v.feasible, plan_feasible(&direct, &cfg), "{at}");
                        assert_eq!(v.cost_per_sec, direct.cost_per_sec(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "profile mismatch")]
    fn profile_longer_than_the_model_is_rejected() {
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = BatchProfile::no_exits(m.num_layers() + 1);
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);
    }

    #[test]
    fn mixed_subsets_match_fresh_heterogeneous_solves() {
        // The oracle's stage table is filled by the first mixed subset
        // and reused by the rest; every value must still equal a solve
        // from scratch.
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = profile();
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        let mut oracle = ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);
        for counts in [
            BTreeMap::from([(GpuKind::V100, 2), (GpuKind::K80, 3)]),
            BTreeMap::from([(GpuKind::V100, 6), (GpuKind::P100, 8), (GpuKind::K80, 15)]),
            BTreeMap::from([(GpuKind::A6000, 1), (GpuKind::P100, 4)]),
        ] {
            let direct = crate::optimize_heterogeneous(&m, &ctrl, &p, &counts, 8.0, &tm, &lm, &cfg);
            let v = oracle.value(&counts);
            assert_eq!(v.goodput, direct.goodput, "{counts:?}");
            assert_eq!(v.cost_per_sec, direct.cost_per_sec(), "{counts:?}");
        }
        // The bounds skip most assignments without waterfilling them.
        assert!(oracle.assignments_waterfilled() < oracle.assignments_enumerated());
    }

    #[test]
    fn stronger_kinds_have_larger_marginal_gains() {
        // From the same base grant, one extra V100 buys more goodput
        // than one extra K80 — the ordering the water-filling loop's
        // gain-per-cost comparisons rely on.
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = profile();
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        let mut oracle = ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);
        let base = BTreeMap::from([(GpuKind::V100, 4)]);
        let strong = oracle.marginal_gain(&base, GpuKind::V100);
        let weak = oracle.marginal_gain(&base, GpuKind::K80);
        assert!(
            strong > weak,
            "V100 gain ({strong}) should exceed K80 gain ({weak})"
        );
    }

    #[test]
    fn empty_subset_is_worthless_and_zero_counts_are_ignored() {
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = profile();
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        let mut oracle = ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);
        let empty = oracle.value(&BTreeMap::new());
        assert_eq!(empty.goodput, 0.0);
        assert!(!empty.feasible);
        // {V100: 2, K80: 0} and {V100: 2} are the same subset.
        let a = oracle.value(&BTreeMap::from([(GpuKind::V100, 2), (GpuKind::K80, 0)]));
        let b = oracle.value(&BTreeMap::from([(GpuKind::V100, 2)]));
        assert_eq!(a, b);
        assert_eq!(oracle.subsets_solved(), 1);
    }
}
