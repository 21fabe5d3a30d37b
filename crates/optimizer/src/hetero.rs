//! Heterogeneity-aware split optimization (§3.2.3, fig. 6).
//!
//! The paper's final formulation lets every split choose a GPU
//! configuration, constrained so a split's replicas share one kind. A
//! literal DP over the 4-dimensional GPU-count vector is exact but
//! needlessly large; because the number of useful splits is tiny (the
//! paper's deployments cut once or twice), we solve the same optimum by:
//!
//! 1. enumerating split-boundary sets with at most `max_splits` stages;
//! 2. enumerating each stage's GPU kind (|kinds|^stages combinations);
//! 3. allocating replica counts within each kind by *waterfilling* —
//!    repeatedly granting a GPU to the stage with the largest current
//!    per-replica effective time, which is optimal for minimizing the
//!    maximum (the pipeline bottleneck).
//!
//! The same machinery answers the cost question of §5.3: given a target
//! goodput, each stage needs `ceil(t_eff / λ*)` replicas where
//! `λ* = b0 / goodput`, and we take the cheapest feasible assignment.
//!
//! Every candidate is priced from a `StageTable`: the one-replica time
//! of each (layer range, kind) and the transfer into each boundary. Those
//! depend on the planning context but not on the GPU counts, so a caller
//! solving many count vectors in one context (the tenancy
//! [`crate::ValueOracle`]) computes each value once.

use std::collections::BTreeMap;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::config::OptimizerConfig;
use crate::dp::{build_plan_hetero, optimize_homogeneous};
use crate::plan::SplitPlan;
use crate::stage::{boundary_transfer_surviving, stage_cost};

/// One assigned stage: (start layer, end layer, replicas, GPU kind).
type StageAssignment = (usize, usize, usize, GpuKind);

/// Table slots per layer range: one for every `GpuKind` variant, indexed
/// by discriminant.
const KIND_SLOTS: usize = GpuKind::ALL.len() + GpuKind::EDGE.len();

/// Lazily filled stage prices for one planning context (model, ramp
/// controller, profile, batch, transfer and latency models): the
/// one-replica `effective_time` of every (start, end, kind) stage and the
/// surviving-batch transfer into every boundary, both in seconds.
///
/// Neither depends on how many GPUs of each kind are on offer, so one
/// table serves every heterogeneous solve in its context.
pub(crate) struct StageTable<'a> {
    model: &'a EeModel,
    ctrl: &'a RampController,
    profile: &'a BatchProfile,
    b0: f64,
    tm: &'a TransferModel,
    lm: &'a LatencyModel,
    /// Slot `(start * (layers + 1) + end) * KIND_SLOTS + kind`.
    stage_time: Vec<Option<f64>>,
    /// Slot `start`; the first stage has no incoming transfer.
    transfer_in: Vec<Option<f64>>,
}

impl<'a> StageTable<'a> {
    /// An empty table for one planning context.
    pub(crate) fn new(
        model: &'a EeModel,
        ctrl: &'a RampController,
        profile: &'a BatchProfile,
        b0: f64,
        tm: &'a TransferModel,
        lm: &'a LatencyModel,
    ) -> Self {
        assert!(b0 > 0.0, "batch must be positive");
        let l = model.num_layers();
        StageTable {
            model,
            ctrl,
            profile,
            b0,
            tm,
            lm,
            stage_time: vec![None; l * (l + 1) * KIND_SLOTS],
            transfer_in: vec![None; l],
        }
    }

    /// One-replica effective time of layers `start..end` on `kind`.
    fn stage_time(&mut self, start: usize, end: usize, kind: GpuKind) -> f64 {
        let slot = (start * (self.model.num_layers() + 1) + end) * KIND_SLOTS + kind as usize;
        *self.stage_time[slot].get_or_insert_with(|| {
            stage_cost(
                self.model,
                self.ctrl,
                self.profile,
                start..end,
                self.b0,
                kind,
                1,
                self.lm,
            )
            .effective_time
            .as_secs_f64()
        })
    }

    /// Surviving-batch transfer entering the stage that starts at
    /// `start`; amortized over that stage's replicas once allocated.
    fn transfer_in(&mut self, start: usize) -> f64 {
        if start == 0 {
            return 0.0;
        }
        *self.transfer_in[start].get_or_insert_with(|| {
            boundary_transfer_surviving(self.model, self.profile, start, self.b0, self.tm)
                .as_secs_f64()
        })
    }

    fn build(&self, cfg: &OptimizerConfig, stages: &[StageAssignment]) -> SplitPlan {
        build_plan_hetero(
            self.model,
            self.ctrl,
            self.profile,
            self.b0,
            self.tm,
            self.lm,
            cfg,
            stages,
            true,
        )
    }
}

/// The stages of one boundary set, priced for the kinds on offer.
struct StageSet<'s> {
    /// Half-open layer range of each stage.
    ranges: &'s [(usize, usize)],
    /// One-replica time of stage `i` on kind `ki` at `i * kinds + ki`.
    times: &'s [f64],
    /// Transfer into each stage (zero for the first).
    tx_in: &'s [f64],
    kinds: usize,
}

impl StageSet<'_> {
    fn time(&self, stage: usize, kind: usize) -> f64 {
        self.times[stage * self.kinds + kind]
    }
}

/// Visits, in pre-order, every extension of `cuts` by at most `left`
/// more sorted interior cuts drawn from `start..l`.
fn for_each_cut_set(
    l: usize,
    start: usize,
    left: usize,
    cuts: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if left == 0 {
        return;
    }
    for b in start..l {
        cuts.push(b);
        visit(cuts);
        for_each_cut_set(l, b + 1, left - 1, cuts, visit);
        cuts.pop();
    }
}

/// Advances an odometer over `base^len`; returns `false` on wrap-around.
fn next_assignment(assign: &mut [usize], base: usize) -> bool {
    for slot in assign.iter_mut() {
        *slot += 1;
        if *slot < base {
            return true;
        }
        *slot = 0;
    }
    false
}

/// Calls `eval` with every boundary set of at most `max_stages` stages
/// (the uncut model first, then cut sets in lexicographic pre-order) and
/// every assignment of an index into `kinds` to each of its stages
/// (first stage varying fastest). Candidates are visited in this fixed
/// order, so callers' strict-improvement tie-breaks are deterministic.
fn for_each_assignment(
    table: &mut StageTable<'_>,
    kinds: &[(GpuKind, usize)],
    max_stages: usize,
    mut eval: impl FnMut(&StageSet<'_>, &[usize]),
) {
    let l = table.model.num_layers();
    // No boundary set has more stages than layers.
    let max_stages = max_stages.min(l);
    let mut ranges = Vec::with_capacity(max_stages);
    let mut times = Vec::with_capacity(max_stages * kinds.len());
    let mut tx_in = Vec::with_capacity(max_stages);
    let mut assign = Vec::with_capacity(max_stages);
    let mut visit = |cuts: &[usize]| {
        ranges.clear();
        let mut prev = 0;
        for &c in cuts.iter().chain([l].iter()) {
            ranges.push((prev, c));
            prev = c;
        }
        times.clear();
        tx_in.clear();
        for &(a, b) in &ranges {
            times.extend(kinds.iter().map(|&(k, _)| table.stage_time(a, b, k)));
            tx_in.push(table.transfer_in(a));
        }
        let set = StageSet {
            ranges: &ranges,
            times: &times,
            tx_in: &tx_in,
            kinds: kinds.len(),
        };
        assign.clear();
        assign.resize(ranges.len(), 0);
        loop {
            eval(&set, &assign);
            if !next_assignment(&mut assign, kinds.len()) {
                break;
            }
        }
    };
    let mut cuts = Vec::with_capacity(max_stages);
    visit(&cuts);
    for_each_cut_set(l, 1, max_stages.saturating_sub(1), &mut cuts, &mut visit);
}

/// Waterfills `extra` GPUs across stages (each already holding one),
/// minimizing the maximum of `work[i] / m[i]`, and writes the per-stage
/// counts into `m`. Each grant goes to the *last* stage with the largest
/// current share, the tie rule of `Iterator::max_by`.
fn waterfill(work: &[f64], extra: usize, m: &mut [usize]) {
    m.fill(1);
    for _ in 0..extra {
        let mut top = 0;
        let mut top_share = work[0] / m[0] as f64;
        for (i, (&w, &mi)) in work.iter().zip(m.iter()).enumerate().skip(1) {
            let share = w / mi as f64;
            if share >= top_share {
                top = i;
                top_share = share;
            }
        }
        m[top] += 1;
    }
}

/// The kinds with at least one GPU, in kind order.
fn available_kinds(counts: &BTreeMap<GpuKind, usize>) -> Vec<(GpuKind, usize)> {
    counts
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(k, n)| (*k, *n))
        .collect()
}

/// Maximizes goodput on a heterogeneous pool: `counts` gives the number
/// of available GPUs per kind. Returns the bottleneck-optimal plan (ties
/// broken by lower cost).
///
/// With `cfg.pipelining == false`, heterogeneous placement offers no
/// advantage (all splits run serially on the same devices), so the best
/// single-kind serial plan is returned instead.
///
/// When no assignment meets `cfg.max_cost_per_sec`, the cap is dropped
/// and the uncapped optimum is returned; [`crate::plan_feasible`] then
/// reports it infeasible, as for homogeneous plans.
#[allow(clippy::too_many_arguments)]
pub fn optimize_heterogeneous(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    counts: &BTreeMap<GpuKind, usize>,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> SplitPlan {
    let mut table = StageTable::new(model, ctrl, profile, b0, tm, lm);
    optimize_tabled(&mut table, &available_kinds(counts), cfg)
}

/// [`optimize_heterogeneous`] on the kinds `kinds` (all counts nonzero,
/// in kind order), priced from `table`.
pub(crate) fn optimize_tabled(
    table: &mut StageTable<'_>,
    kinds: &[(GpuKind, usize)],
    cfg: &OptimizerConfig,
) -> SplitPlan {
    assert!(!kinds.is_empty(), "no GPUs available");

    if !cfg.pipelining {
        // Serial mode cannot exploit heterogeneity; take the best
        // homogeneous serial plan over the available kinds.
        return kinds
            .iter()
            .map(|&(k, n)| {
                optimize_homogeneous(
                    table.model,
                    table.ctrl,
                    table.profile,
                    k,
                    n,
                    table.b0,
                    table.tm,
                    table.lm,
                    cfg,
                )
            })
            .max_by(|a, b| a.goodput.partial_cmp(&b.goodput).expect("finite"))
            .expect("nonempty kinds");
    }

    let stages = min_bottleneck_stages(table, kinds, cfg, cfg.max_cost_per_sec)
        .or_else(|| min_bottleneck_stages(table, kinds, cfg, None))
        .expect("without a cost cap the single-stage plan is feasible");
    table.build(cfg, &stages)
}

/// The bottleneck-optimal stage assignment (ties broken by lower cost)
/// among those costing at most `cap`, or `None` if none does.
fn min_bottleneck_stages(
    table: &mut StageTable<'_>,
    kinds: &[(GpuKind, usize)],
    cfg: &OptimizerConfig,
    cap: Option<f64>,
) -> Option<Vec<StageAssignment>> {
    // (penalized bottleneck, cost) of `best_stages`.
    let mut best: Option<(f64, f64)> = None;
    let mut best_stages = Vec::new();
    let (mut group, mut work, mut ms, mut stage_m) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for_each_assignment(table, kinds, cfg.max_splits.max(1), |set, assign| {
        let s = set.ranges.len();
        stage_m.resize(s, 0);
        // Group stages by kind and waterfill within each group.
        let mut bottleneck = 0.0f64;
        let mut cost = 0.0;
        for (ki, &(kind, avail)) in kinds.iter().enumerate() {
            group.clear();
            group.extend((0..s).filter(|&i| assign[i] == ki));
            if group.is_empty() {
                continue;
            }
            if group.len() > avail {
                return;
            }
            work.clear();
            work.extend(group.iter().map(|&i| set.time(i, ki)));
            ms.resize(group.len(), 0);
            waterfill(&work, avail - group.len(), &mut ms);
            for (&i, &m) in group.iter().zip(&ms) {
                stage_m[i] = m;
                bottleneck = bottleneck
                    .max(set.time(i, ki) / m as f64)
                    .max(set.tx_in[i] / m as f64);
                cost += m as f64 * kind.cost_per_sec();
            }
        }
        if cap.is_some_and(|cap| cost > cap + 1e-12) {
            return;
        }
        // Same realization penalty per extra stage as the homogeneous DP
        // (see OptimizerConfig::stage_overhead_frac).
        let penalized = bottleneck * (1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0));
        let better = match best {
            None => true,
            Some((bb, bc)) => {
                penalized < bb - 1e-12 || ((penalized - bb).abs() <= 1e-12 && cost < bc)
            }
        };
        if better {
            best = Some((penalized, cost));
            best_stages.clear();
            best_stages.extend(
                set.ranges
                    .iter()
                    .zip(assign)
                    .zip(&stage_m)
                    .map(|((&(a, b), &ki), &m)| (a, b, m, kinds[ki].0)),
            );
        }
    });
    best.map(|_| best_stages)
}

/// Minimizes dollar cost subject to a goodput target on a heterogeneous
/// pool. Returns `None` when the target is unreachable even using every
/// GPU.
#[allow(clippy::too_many_arguments)]
pub fn min_cost_plan(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    counts: &BTreeMap<GpuKind, usize>,
    b0: f64,
    target_goodput: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> Option<SplitPlan> {
    let mut table = StageTable::new(model, ctrl, profile, b0, tm, lm);
    min_cost_tabled(&mut table, &available_kinds(counts), target_goodput, cfg)
}

/// [`min_cost_plan`] on the kinds `kinds` (all counts nonzero, in kind
/// order), priced from `table`.
fn min_cost_tabled(
    table: &mut StageTable<'_>,
    kinds: &[(GpuKind, usize)],
    target_goodput: f64,
    cfg: &OptimizerConfig,
) -> Option<SplitPlan> {
    assert!(target_goodput > 0.0, "target must be positive");
    if kinds.is_empty() {
        return None;
    }
    let lambda = table.b0 / target_goodput; // required bottleneck in seconds
    let mut best: Option<f64> = None;
    let mut best_stages = Vec::new();
    let (mut per_kind_used, mut stage_m) = (vec![0usize; kinds.len()], Vec::new());
    for_each_assignment(table, kinds, cfg.max_splits.max(1), |set, assign| {
        per_kind_used.fill(0);
        stage_m.clear();
        let mut cost = 0.0;
        for (i, &ki) in assign.iter().enumerate() {
            // Enough replicas to meet the bottleneck for both compute
            // and the incoming (replica-amortized) transfer.
            let need = (set.time(i, ki).max(set.tx_in[i]) / lambda).ceil().max(1.0) as usize;
            per_kind_used[ki] += need;
            if per_kind_used[ki] > kinds[ki].1 {
                return;
            }
            stage_m.push(need);
            cost += need as f64 * kinds[ki].0.cost_per_sec();
        }
        if best.is_none_or(|bc| cost < bc) {
            best = Some(cost);
            best_stages.clear();
            best_stages.extend(
                set.ranges
                    .iter()
                    .zip(assign)
                    .zip(&stage_m)
                    .map(|((&(a, b), &ki), &m)| (a, b, m, kinds[ki].0)),
            );
        }
    });
    best.map(|_| table.build(cfg, &best_stages))
}

/// The straight-line solver the [`StageTable`] path replaced: it prices
/// every stage of every boundary set afresh and allocates per
/// assignment. Kept as the differential reference for the tabled path.
#[cfg(test)]
mod reference {
    use super::*;

    /// Enumerates boundary sets: sorted interior cut positions in `1..l`,
    /// with at most `max_stages - 1` cuts. Includes the empty set (1 stage).
    pub(super) fn boundary_sets(l: usize, max_stages: usize) -> Vec<Vec<usize>> {
        fn rec(
            l: usize,
            start: usize,
            left: usize,
            current: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if left == 0 {
                return;
            }
            for b in start..l {
                current.push(b);
                out.push(current.clone());
                rec(l, b + 1, left - 1, current, out);
                current.pop();
            }
        }
        let mut out = vec![vec![]];
        let mut current = Vec::new();
        rec(l, 1, max_stages.saturating_sub(1), &mut current, &mut out);
        out
    }

    /// Converts a boundary set into stage ranges.
    fn stages_of(l: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
        let mut stages = Vec::with_capacity(cuts.len() + 1);
        let mut prev = 0;
        for &c in cuts {
            stages.push((prev, c));
            prev = c;
        }
        stages.push((prev, l));
        stages
    }

    /// Waterfills `extra` GPUs across stages (each already holding one),
    /// minimizing the maximum of `work[i] / m[i]`. Returns per-stage counts.
    pub(super) fn waterfill(work: &[f64], mut extra: usize) -> Vec<usize> {
        let mut m = vec![1usize; work.len()];
        while extra > 0 {
            let (i, _) = work
                .iter()
                .enumerate()
                .map(|(i, w)| (i, w / m[i] as f64))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("nonempty");
            m[i] += 1;
            extra -= 1;
        }
        m
    }

    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn price(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        kinds: &[(GpuKind, usize)],
        stages: &[(usize, usize)],
        b0: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let t1 = stages
            .iter()
            .map(|&(a, b)| {
                kinds
                    .iter()
                    .map(|&(k, _)| {
                        stage_cost(model, ctrl, profile, a..b, b0, k, 1, lm)
                            .effective_time
                            .as_secs_f64()
                    })
                    .collect()
            })
            .collect();
        let tx_in = stages
            .iter()
            .enumerate()
            .map(|(i, &(a, _))| {
                if i == 0 {
                    0.0
                } else {
                    boundary_transfer_surviving(model, profile, a, b0, tm).as_secs_f64()
                }
            })
            .collect();
        (t1, tx_in)
    }

    /// The reference [`super::optimize_heterogeneous`], or `None` where
    /// no assignment meets `cfg.max_cost_per_sec`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn optimize_heterogeneous(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        counts: &BTreeMap<GpuKind, usize>,
        b0: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> Option<SplitPlan> {
        let kinds = available_kinds(counts);
        if !cfg.pipelining {
            return kinds
                .iter()
                .map(|&(k, n)| optimize_homogeneous(model, ctrl, profile, k, n, b0, tm, lm, cfg))
                .max_by(|a, b| a.goodput.partial_cmp(&b.goodput).expect("finite"));
        }
        let l = model.num_layers();
        let mut best: Option<(f64, f64, Vec<StageAssignment>)> = None;
        for cuts in boundary_sets(l, cfg.max_splits.max(1)) {
            let stages = stages_of(l, &cuts);
            let s = stages.len();
            let (t1, tx_in) = price(model, ctrl, profile, &kinds, &stages, b0, tm, lm);
            let mut assign = vec![0usize; s];
            loop {
                let mut feasible = true;
                let mut bottleneck = 0.0f64;
                let mut cost = 0.0;
                let mut stage_m = vec![0usize; s];
                for (ki, &(kind, avail)) in kinds.iter().enumerate() {
                    let group: Vec<usize> = (0..s).filter(|&i| assign[i] == ki).collect();
                    if group.is_empty() {
                        continue;
                    }
                    if group.len() > avail {
                        feasible = false;
                        break;
                    }
                    let work: Vec<f64> = group.iter().map(|&i| t1[i][ki]).collect();
                    let ms = waterfill(&work, avail - group.len());
                    for (gi, &i) in group.iter().enumerate() {
                        stage_m[i] = ms[gi];
                        bottleneck = bottleneck
                            .max(t1[i][ki] / ms[gi] as f64)
                            .max(tx_in[i] / ms[gi] as f64);
                        cost += ms[gi] as f64 * kind.cost_per_sec();
                    }
                }
                if feasible {
                    if let Some(cap) = cfg.max_cost_per_sec {
                        if cost > cap + 1e-12 {
                            feasible = false;
                        }
                    }
                }
                if feasible {
                    let penalized = bottleneck * (1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0));
                    let better = match &best {
                        None => true,
                        Some((bb, bc, _)) => {
                            penalized < bb - 1e-12
                                || ((penalized - bb).abs() <= 1e-12 && cost < *bc)
                        }
                    };
                    if better {
                        let built: Vec<StageAssignment> = stages
                            .iter()
                            .enumerate()
                            .map(|(i, &(a, b))| (a, b, stage_m[i], kinds[assign[i]].0))
                            .collect();
                        best = Some((penalized, cost, built));
                    }
                }
                if !next_assignment(&mut assign, kinds.len()) {
                    break;
                }
            }
        }
        best.map(|(_, _, stages)| {
            build_plan_hetero(model, ctrl, profile, b0, tm, lm, cfg, &stages, true)
        })
    }

    /// The reference [`super::min_cost_plan`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn min_cost_plan(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        counts: &BTreeMap<GpuKind, usize>,
        b0: f64,
        target_goodput: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> Option<SplitPlan> {
        let kinds = available_kinds(counts);
        if kinds.is_empty() {
            return None;
        }
        let l = model.num_layers();
        let lambda = b0 / target_goodput;
        let mut best: Option<(f64, Vec<StageAssignment>)> = None;
        for cuts in boundary_sets(l, cfg.max_splits.max(1)) {
            let stages = stages_of(l, &cuts);
            let s = stages.len();
            let (t1, tx_in) = price(model, ctrl, profile, &kinds, &stages, b0, tm, lm);
            let mut assign = vec![0usize; s];
            loop {
                let mut feasible = true;
                let mut cost = 0.0;
                let mut per_kind_used = vec![0usize; kinds.len()];
                let mut stage_m = vec![0usize; s];
                for i in 0..s {
                    let ki = assign[i];
                    let need = (t1[i][ki].max(tx_in[i]) / lambda).ceil().max(1.0) as usize;
                    per_kind_used[ki] += need;
                    if per_kind_used[ki] > kinds[ki].1 {
                        feasible = false;
                        break;
                    }
                    stage_m[i] = need;
                    cost += need as f64 * kinds[ki].0.cost_per_sec();
                }
                if feasible && best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                    let built: Vec<StageAssignment> = stages
                        .iter()
                        .enumerate()
                        .map(|(i, &(a, b))| (a, b, stage_m[i], kinds[assign[i]].0))
                        .collect();
                    best = Some((cost, built));
                }
                if !next_assignment(&mut assign, kinds.len()) {
                    break;
                }
            }
        }
        best.map(|(_, stages)| {
            build_plan_hetero(model, ctrl, profile, b0, tm, lm, cfg, &stages, true)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::plan_feasible;
    use e3_model::{zoo, RampStyle};
    use proptest::collection;
    use proptest::prelude::*;

    fn half_by_six() -> BatchProfile {
        let mut surv = vec![1.0];
        for k in 1..=12 {
            let s = if k <= 6 {
                1.0 - 0.5 * (k as f64 / 6.0)
            } else {
                0.5 - 0.1 * ((k - 6) as f64 / 6.0)
            };
            surv.push(s);
        }
        BatchProfile::new(surv)
    }

    fn paper_hetero_counts() -> BTreeMap<GpuKind, usize> {
        let mut c = BTreeMap::new();
        c.insert(GpuKind::V100, 6);
        c.insert(GpuKind::P100, 8);
        c.insert(GpuKind::K80, 15);
        c
    }

    fn setup() -> (
        e3_model::EeModel,
        RampController,
        LatencyModel,
        TransferModel,
    ) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new(), TransferModel::default())
    }

    #[test]
    fn boundary_sets_counts() {
        // 4 layers, up to 3 stages: {} + C(3,1) + C(3,2) = 1 + 3 + 3.
        let sets = reference::boundary_sets(4, 3);
        assert_eq!(sets.len(), 7);
        assert!(sets.contains(&vec![]));
        assert!(sets.contains(&vec![1, 3]));
        for s in &sets {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&b| (1..4).contains(&b)));
        }
    }

    #[test]
    fn cut_sets_are_visited_in_reference_order() {
        for (l, max_stages) in [(4, 3), (12, 4), (6, 1), (3, 9)] {
            let mut seen = vec![vec![]];
            let mut cuts = Vec::new();
            for_each_cut_set(l, 1, max_stages - 1, &mut cuts, &mut |c| {
                seen.push(c.to_vec())
            });
            assert_eq!(seen, reference::boundary_sets(l, max_stages));
        }
    }

    #[test]
    fn waterfill_minimizes_max() {
        // max(4/3, 2/2) = 1.33 beats max(4/4, 2/1) = 2.0.
        let mut m = [0; 2];
        waterfill(&[4.0, 2.0], 3, &mut m);
        assert_eq!(m.iter().sum::<usize>(), 5);
        assert_eq!(m, [3, 2]);
    }

    #[test]
    fn waterfill_grants_ties_to_the_last_stage() {
        for (work, extra) in [
            (vec![0.0, 0.0, 0.0], 4),
            (vec![2.0, 1.0, 2.0], 3),
            (vec![1.0], 5),
        ] {
            let mut m = vec![0; work.len()];
            waterfill(&work, extra, &mut m);
            assert_eq!(m, reference::waterfill(&work, extra), "{work:?} +{extra}");
        }
    }

    #[test]
    fn hetero_plan_is_valid_and_productive() {
        let (m, c, lm, tm) = setup();
        let plan = optimize_heterogeneous(
            &m,
            &c,
            &half_by_six(),
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        plan.assert_valid(12);
        assert!(plan.goodput > 0.0);
        assert!(plan.gpus_used() >= 6, "{plan}");
    }

    #[test]
    fn hetero_beats_or_matches_v100_subset() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let profile = half_by_six();
        let hetero = optimize_heterogeneous(
            &m,
            &c,
            &profile,
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &cfg,
        );
        let v100_only = crate::dp::optimize_homogeneous(
            &m,
            &c,
            &profile,
            GpuKind::V100,
            6,
            8.0,
            &tm,
            &lm,
            &cfg,
        );
        assert!(
            hetero.goodput >= v100_only.goodput - 1e-6,
            "hetero {} < v100-only {}",
            hetero.goodput,
            v100_only.goodput
        );
    }

    #[test]
    fn single_kind_pool_matches_homogeneous_objective() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let mut counts = BTreeMap::new();
        counts.insert(GpuKind::V100, 16);
        let hetero = optimize_heterogeneous(&m, &c, &half_by_six(), &counts, 8.0, &tm, &lm, &cfg);
        let homo = crate::dp::optimize_homogeneous(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &cfg,
        );
        assert!(
            (hetero.goodput - homo.goodput).abs() / homo.goodput < 0.05,
            "hetero {} homo {}",
            hetero.goodput,
            homo.goodput
        );
    }

    #[test]
    fn min_cost_meets_target_cheaper_than_full_pool() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let counts = paper_hetero_counts();
        let full = optimize_heterogeneous(&m, &c, &half_by_six(), &counts, 8.0, &tm, &lm, &cfg);
        let target = full.goodput * 0.5;
        let cheap = min_cost_plan(&m, &c, &half_by_six(), &counts, 8.0, target, &tm, &lm, &cfg)
            .expect("target reachable");
        assert!(cheap.goodput >= target * 0.99, "{}", cheap.goodput);
        assert!(
            cheap.cost_per_sec() < full.cost_per_sec(),
            "cheap {} full {}",
            cheap.cost_per_sec(),
            full.cost_per_sec()
        );
    }

    #[test]
    fn min_cost_unreachable_returns_none() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let mut counts = BTreeMap::new();
        counts.insert(GpuKind::K80, 1);
        let plan = min_cost_plan(&m, &c, &half_by_six(), &counts, 8.0, 1.0e9, &tm, &lm, &cfg);
        assert!(plan.is_none());
    }

    #[test]
    fn serial_mode_falls_back_to_best_kind() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig {
            pipelining: false,
            ..Default::default()
        };
        let plan = optimize_heterogeneous(
            &m,
            &c,
            &half_by_six(),
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &cfg,
        );
        let kinds: std::collections::BTreeSet<_> = plan.splits.iter().map(|s| s.gpu).collect();
        assert_eq!(kinds.len(), 1);
        assert!(!plan.pipelined);
    }

    #[test]
    fn unmeetable_cost_cap_returns_the_uncapped_plan_reported_infeasible() {
        let (m, c, lm, tm) = setup();
        let counts = BTreeMap::from([(GpuKind::V100, 6), (GpuKind::K80, 15)]);
        let capped = OptimizerConfig {
            max_cost_per_sec: Some(1e-6),
            ..Default::default()
        };
        let plan = optimize_heterogeneous(&m, &c, &half_by_six(), &counts, 8.0, &tm, &lm, &capped);
        let uncapped = optimize_heterogeneous(
            &m,
            &c,
            &half_by_six(),
            &counts,
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        assert_eq!(plan, uncapped);
        assert!(!plan_feasible(&plan, &capped));
    }

    /// A non-increasing survival curve over `l` layers: each layer keeps
    /// `1 - 0.4 * drop` of its input (`drop < 0.3` keeps everyone), and
    /// nobody survives from layer `zero_from` on.
    fn monotone_profile(l: usize, drops: &[f64], zero_from: usize) -> BatchProfile {
        let mut surv = vec![1.0];
        for k in 1..=l {
            let keep = if drops[k - 1] < 0.3 {
                1.0
            } else {
                1.0 - 0.4 * drops[k - 1]
            };
            let prev = surv[k - 1];
            surv.push(if k >= zero_from { 0.0 } else { prev * keep });
        }
        BatchProfile::new(surv)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tabled solvers reproduce the straight-line reference
        /// bit for bit, with one table shared across a sequence of count
        /// vectors and both solvers, as the tenancy oracle shares it.
        ///
        /// Half the cases are tie-prone: ramps off, survival flat up to
        /// the zero tail and no per-stage penalty, so equal-length stages
        /// cost exactly the same and the optimum sometimes holds two of
        /// them on one kind, where waterfilling's tie rule decides the
        /// replica split.
        #[test]
        fn tabled_solvers_match_reference(
            tie_prone in 0usize..2,
            model_ix in 0usize..2,
            count_seq in collection::vec(collection::vec(0usize..7, 4), 3),
            masks in collection::vec(1usize..16, 3),
            max_splits in 1usize..5,
            b0_ix in 0usize..4,
            drops in collection::vec(0.0f64..1.0, 12),
            zero_from in 1usize..20,
            cap_ix in 0usize..3,
            cap_frac in 0.2f64..1.0,
            serial in 0usize..4,
            target_frac in 0.05f64..1.3,
        ) {
            let model = if model_ix == 0 { zoo::deebert() } else { zoo::distilbert_ee() };
            let l = model.num_layers();
            let mut ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
            let mut drops = drops;
            let mut overhead = OptimizerConfig::default().stage_overhead_frac;
            if tie_prone == 1 {
                ctrl.keep_only(&[]);
                drops.fill(0.0);
                overhead = 0.0;
            }
            let profile = monotone_profile(l, &drops, zero_from);
            let b0 = [1.0, 4.0, 8.0, 16.0][b0_ix];
            let (tm, lm) = (TransferModel::default(), LatencyModel::new());
            let mut table = StageTable::new(&model, &ctrl, &profile, b0, &tm, &lm);
            for (step, (raw, mask)) in count_seq.iter().zip(&masks).enumerate() {
                // Masked-out kinds stay in the map with a zero count.
                let counts: BTreeMap<GpuKind, usize> = GpuKind::ALL
                    .iter()
                    .zip(raw)
                    .enumerate()
                    .map(|(i, (&k, &n))| (k, if mask & (1 << i) != 0 { n } else { 0 }))
                    .collect();
                let kinds = available_kinds(&counts);
                if kinds.is_empty() {
                    continue;
                }
                let pool_cost: f64 = kinds.iter().map(|&(k, n)| n as f64 * k.cost_per_sec()).sum();
                let cfg = OptimizerConfig {
                    max_splits,
                    pipelining: serial != 0,
                    max_cost_per_sec: [None, Some(pool_cost * cap_frac), Some(1e-6)][cap_ix],
                    stage_overhead_frac: overhead,
                    ..Default::default()
                };
                let want = reference::optimize_heterogeneous(
                    &model, &ctrl, &profile, &counts, b0, &tm, &lm, &cfg,
                )
                .unwrap_or_else(|| {
                    let uncapped = OptimizerConfig { max_cost_per_sec: None, ..cfg };
                    reference::optimize_heterogeneous(
                        &model, &ctrl, &profile, &counts, b0, &tm, &lm, &uncapped,
                    )
                    .expect("uncapped reference always plans")
                });
                let got = optimize_tabled(&mut table, &kinds, &cfg);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));

                let target = want.goodput * target_frac;
                let want = reference::min_cost_plan(
                    &model, &ctrl, &profile, &counts, b0, target, &tm, &lm, &cfg,
                );
                let got = min_cost_tabled(&mut table, &kinds, target, &cfg);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                if step == 0 {
                    let fresh = min_cost_plan(
                        &model, &ctrl, &profile, &counts, b0, target, &tm, &lm, &cfg,
                    );
                    prop_assert_eq!(format!("{fresh:?}"), format!("{got:?}"));
                    let fresh = optimize_heterogeneous(
                        &model, &ctrl, &profile, &counts, b0, &tm, &lm, &cfg,
                    );
                    let tabled = optimize_tabled(&mut table, &kinds, &cfg);
                    prop_assert_eq!(format!("{fresh:?}"), format!("{tabled:?}"));
                }
            }
        }
    }
}
