//! Heterogeneity-aware split optimization (§3.2.3, fig. 6).
//!
//! The paper's final formulation lets every split choose a GPU
//! configuration, constrained so a split's replicas share one kind. A
//! literal DP over the 4-dimensional GPU-count vector is exact but
//! needlessly large; because the number of useful splits is tiny (the
//! paper's deployments cut once or twice), we solve the same optimum by:
//!
//! 1. enumerating split-boundary sets with at most `max_splits` stages
//!    (and no more stages than GPUs);
//! 2. walking each stage's GPU kind (|kinds|^stages combinations) as a
//!    depth-first search from the last stage to the first, pruned by
//!    lower bounds on the bottleneck;
//! 3. allocating replica counts within each kind by *waterfilling* —
//!    repeatedly granting a GPU to the stage with the largest current
//!    per-replica effective time, which is optimal for minimizing the
//!    maximum (the pipeline bottleneck).
//!
//! The pruning in step 2 is exact. A stage on kind `k` that shares it
//! with `c` stages gets at most `avail - c + 1` replicas, and a kind's
//! stages share exactly its `avail` GPUs, so `max(t, tx) / (avail - c +
//! 1)` and `Σt / avail` bound the bottleneck of every assignment below a
//! search node. A subtree is skipped only when that bound, penalized,
//! already exceeds the live incumbent by more than the 1e-12 tie window:
//! each skipped candidate would have been rejected, a rejection leaves
//! the incumbent unchanged, so the incumbent sequence, and with it the
//! tie rule's outcome, is the exhaustive search's.
//!
//! The same machinery answers the cost question of §5.3: given a target
//! goodput, each stage needs `ceil(t_eff / λ*)` replicas where
//! `λ* = b0 / goodput`, and we take the cheapest feasible assignment.
//!
//! Every candidate is priced from a `StageTable`: the one-replica time
//! of each (layer range, kind) and the transfer into each boundary. Those
//! depend on the planning context but not on the GPU counts, so a caller
//! solving many count vectors in one context (the tenancy
//! [`crate::ValueOracle`]) computes each value once, for its homogeneous
//! and heterogeneous solves alike.

use std::collections::BTreeMap;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::config::OptimizerConfig;
use crate::dp::{build_plan_hetero, serial_dp};
use crate::plan::SplitPlan;
use crate::stage::{SearchCounts, StageTable};

/// One assigned stage: (start layer, end layer, replicas, GPU kind).
type StageAssignment = (usize, usize, usize, GpuKind);

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

    /// Walks every assignment of a kind index to each stage, first stage
    /// varying fastest (an odometer's order). `visit(assign, j)` sees
    /// stages `j..` assigned (the rest of `assign` is stale); at `j == 0`
    /// it sees a whole candidate. Returning `false` from a partial visit
    /// skips every candidate that extends `assign[j..]`; what a
    /// whole-candidate visit returns is ignored.
    fn walk_assignments(&self, mut visit: impl FnMut(&[usize], usize) -> bool) {
        fn descend(
            assign: &mut [usize],
            j: usize,
            kinds: usize,
            visit: &mut impl FnMut(&[usize], usize) -> bool,
        ) {
            for ki in 0..kinds {
                assign[j - 1] = ki;
                if visit(assign, j - 1) && j > 1 {
                    descend(assign, j - 1, kinds, visit);
                }
            }
        }
        let s = self.ranges.len();
        descend(&mut vec![0; s], s, self.kinds, &mut visit);
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

/// Calls `visit` with every boundary set of at most `max_stages` stages
/// (the uncut model first, then cut sets in lexicographic pre-order),
/// priced for `kinds`. Sets with more stages than the pool has GPUs are
/// skipped: no assignment of theirs is feasible. Together with
/// [`StageSet::walk_assignments`] this visits candidates in a fixed
/// order, so callers' strict-improvement tie-breaks are deterministic.
fn for_each_stage_set(
    table: &mut StageTable<'_>,
    kinds: &[(GpuKind, usize)],
    max_stages: usize,
    mut visit: impl FnMut(&StageSet<'_>),
) {
    let l = table.model.num_layers();
    // No boundary set has more stages than layers, and every stage needs
    // a GPU of its own.
    let gpus: usize = kinds.iter().map(|&(_, n)| n).sum();
    let max_stages = max_stages.min(l).min(gpus);
    let mut ranges = Vec::with_capacity(max_stages);
    let mut times = Vec::with_capacity(max_stages * kinds.len());
    let mut tx_in = Vec::with_capacity(max_stages);
    let mut visit_cuts = |cuts: &[usize]| {
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
        visit(&StageSet {
            ranges: &ranges,
            times: &times,
            tx_in: &tx_in,
            kinds: kinds.len(),
        });
    };
    let mut cuts = Vec::with_capacity(max_stages);
    visit_cuts(&cuts);
    for_each_cut_set(
        l,
        1,
        max_stages.saturating_sub(1),
        &mut cuts,
        &mut visit_cuts,
    );
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
            .map(|&(k, n)| serial_dp(table, k, n, cfg))
            .max_by(|a, b| a.goodput.partial_cmp(&b.goodput).expect("finite"))
            .expect("nonempty kinds");
    }

    let stages = min_bottleneck_stages(table, kinds, cfg, cfg.max_cost_per_sec)
        .or_else(|| min_bottleneck_stages(table, kinds, cfg, None))
        .expect("without a cost cap the single-stage plan is feasible");
    build(table, cfg, &stages)
}

/// Assembles the pipelined plan for `stages` in `table`'s context.
fn build(table: &StageTable<'_>, cfg: &OptimizerConfig, stages: &[StageAssignment]) -> SplitPlan {
    build_plan_hetero(
        table.model,
        table.ctrl,
        table.profile,
        table.b0,
        table.tm,
        table.lm,
        cfg,
        stages,
        true,
    )
}

/// Relative slack on the `Σt / avail` bound of [`SetBounds`]. That
/// bound sums stage times, at most `max_splits` terms, and scales the sum
/// by a rounded reciprocal, so it carries a relative rounding error of
/// about `(n + 4) · 2^-53` against the waterfilled shares it bounds;
/// `1e-9` covers millions of terms.
const SUM_SLACK: f64 = 1e-9;

/// Lower bounds on the bottleneck waterfilling gives the candidates of
/// one boundary set, kept per depth of [`StageSet::walk_assignments`]:
/// row `j` describes the assigned stages `j..`.
#[derive(Default)]
struct SetBounds {
    /// `max(t, tx)` of stage `i` on kind `ki`, at `i * kinds + ki`: the
    /// stage's share times its replica count.
    work: Vec<f64>,
    /// `free[j]`: the largest, over stages `..j`, of the least share that
    /// stage gets on any kind (at most all of that kind's GPUs).
    free: Vec<f64>,
    /// `(1 - SUM_SLACK) / avail` per kind.
    scale: Vec<f64>,
    /// Per row and kind, at `j * kinds + ki`: the assigned stages on the
    /// kind, their summed time, and their largest `work`.
    used: Vec<usize>,
    sums: Vec<f64>,
    most: Vec<f64>,
    /// Per row: the bound the assigned stages alone give.
    assigned: Vec<f64>,
}

impl SetBounds {
    /// Readies the bounds for `set`, with no stage assigned.
    fn prepare(&mut self, set: &StageSet<'_>, kinds: &[(GpuKind, usize)]) {
        let (s, k) = (set.ranges.len(), kinds.len());
        self.work.clear();
        self.free.clear();
        self.free.push(0.0);
        for i in 0..s {
            let mut least = f64::INFINITY;
            for (ki, &(_, avail)) in kinds.iter().enumerate() {
                let h = set.time(i, ki).max(set.tx_in[i]);
                least = least.min(h / avail as f64);
                self.work.push(h);
            }
            self.free.push(self.free[i].max(least));
        }
        self.scale.clear();
        self.scale.extend(
            kinds
                .iter()
                .map(|&(_, avail)| (1.0 - SUM_SLACK) / avail as f64),
        );
        let root = s * k;
        self.used.resize((s + 1) * k, 0);
        self.sums.resize((s + 1) * k, 0.0);
        self.most.resize((s + 1) * k, 0.0);
        self.used[root..].fill(0);
        self.sums[root..].fill(0.0);
        self.most[root..].fill(0.0);
        self.assigned.resize(s + 1, 0.0);
        self.assigned[s] = 0.0;
    }

    /// A lower bound on the bottleneck of every candidate that extends
    /// `assign[j..]`, or `None` if none is feasible (more stages on a
    /// kind than it has GPUs). Stages `..j` are still free. Row `j + 1`
    /// must describe `assign[j + 1..]`, as the walk's pre-order ensures.
    fn assign(
        &mut self,
        set: &StageSet<'_>,
        kinds: &[(GpuKind, usize)],
        assign: &[usize],
        j: usize,
    ) -> Option<f64> {
        let k = kinds.len();
        let (row, parent) = (j * k, (j + 1) * k);
        self.used.copy_within(parent..parent + k, row);
        self.sums.copy_within(parent..parent + k, row);
        self.most.copy_within(parent..parent + k, row);
        let ki = assign[j];
        let (slot, avail) = (row + ki, kinds[ki].1);
        self.used[slot] += 1;
        if self.used[slot] > avail {
            return None;
        }
        self.sums[slot] += set.time(j, ki);
        self.most[slot] = self.most[slot].max(self.work[j * k + ki]);
        // A candidate puts at least `used` stages on this kind and the
        // others keep at least one GPU each, so none of these stages gets
        // more than `avail - used + 1`. Division is monotone in the
        // divisor, so this bound needs no slack.
        let share = self.most[slot] / (avail - self.used[slot] + 1) as f64;
        // Waterfilling hands a kind's stages exactly all of its GPUs, so
        // one of them has a share of at least their total time over that
        // supply, and these stages' time is part of that total.
        let total = self.sums[slot] * self.scale[ki];
        // Only this kind's terms changed, and neither shrank.
        self.assigned[j] = self.assigned[j + 1].max(share).max(total);
        Some(self.assigned[j].max(self.free[j]))
    }
}

/// Whether a candidate whose bottleneck is at least `lb` must lose to the
/// incumbent `best` (penalized bottleneck, cost), whatever its cost.
///
/// For `penalty >= 0`, IEEE multiplication and subtraction are monotone,
/// so the candidate's penalized bottleneck then also exceeds the
/// incumbent's by more than the 1e-12 tie window, and the acceptance test
/// in [`min_bottleneck_stages`] rejects it. A rejected candidate leaves
/// the incumbent unchanged, so skipping it keeps every later comparison,
/// and the result, exactly as in the exhaustive search.
fn beaten(lb: f64, penalty: f64, best: Option<(f64, f64)>) -> bool {
    penalty >= 0.0 && best.is_some_and(|(bb, _)| lb * penalty - bb > 1e-12)
}

/// The bottleneck-optimal stage assignment (ties broken by lower cost)
/// among those costing at most `cap`, or `None` if none does.
///
/// Cut sets and candidates whose bottleneck bound already loses to the
/// incumbent are skipped before waterfilling (see [`beaten`]); the
/// table's [`SearchCounts`] record how many were.
fn min_bottleneck_stages(
    table: &mut StageTable<'_>,
    kinds: &[(GpuKind, usize)],
    cfg: &OptimizerConfig,
    cap: Option<f64>,
) -> Option<Vec<StageAssignment>> {
    // (penalized bottleneck, cost) of `best_stages`.
    let mut best: Option<(f64, f64)> = None;
    let mut best_stages = Vec::new();
    let mut search = SearchCounts::default();
    let (mut group, mut work, mut ms, mut stage_m) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bounds = SetBounds::default();
    for_each_stage_set(table, kinds, cfg.max_splits.max(1), |set| {
        let s = set.ranges.len();
        search.enumerated += (kinds.len() as u64).saturating_pow(s as u32);
        // Same realization penalty per extra stage as the homogeneous DP
        // (see OptimizerConfig::stage_overhead_frac).
        let penalty = 1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0);
        bounds.prepare(set, kinds);
        if beaten(bounds.free[s], penalty, best) {
            return;
        }
        stage_m.resize(s, 0);
        set.walk_assignments(|assign, j| {
            match bounds.assign(set, kinds, assign, j) {
                Some(lb) if !beaten(lb, penalty, best) => {}
                _ => return false,
            }
            if j > 0 {
                return true;
            }
            search.waterfilled += 1;
            // Group stages by kind and waterfill within each group.
            let mut bottleneck = 0.0f64;
            let mut cost = 0.0;
            for (ki, &(kind, avail)) in kinds.iter().enumerate() {
                group.clear();
                group.extend((0..s).filter(|&i| assign[i] == ki));
                if group.is_empty() {
                    continue;
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
                return false;
            }
            let penalized = bottleneck * penalty;
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
            false
        });
    });
    table.search.enumerated += search.enumerated;
    table.search.waterfilled += search.waterfilled;
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
    for_each_stage_set(table, kinds, cfg.max_splits.max(1), |set| {
        set.walk_assignments(|assign, j| {
            if j > 0 {
                return true;
            }
            per_kind_used.fill(0);
            stage_m.clear();
            let mut cost = 0.0;
            for (i, &ki) in assign.iter().enumerate() {
                // Enough replicas to meet the bottleneck for both compute
                // and the incoming (replica-amortized) transfer.
                let need = (set.time(i, ki).max(set.tx_in[i]) / lambda).ceil().max(1.0) as usize;
                per_kind_used[ki] += need;
                if per_kind_used[ki] > kinds[ki].1 {
                    return false;
                }
                stage_m.push(need);
                cost += need as f64 * kinds[ki].0.cost_per_sec();
                // Adding a non-negative term never lowers a float sum, so
                // a candidate that reaches the incumbent's cost can no
                // longer undercut it.
                if best.is_some_and(|bc| cost >= bc) {
                    return false;
                }
            }
            best = Some(cost);
            best_stages.clear();
            best_stages.extend(
                set.ranges
                    .iter()
                    .zip(assign)
                    .zip(&stage_m)
                    .map(|((&(a, b), &ki), &m)| (a, b, m, kinds[ki].0)),
            );
            false
        });
    });
    best.map(|_| build(table, cfg, &best_stages))
}

/// The straight-line solver the [`StageTable`] path replaced: it prices
/// every stage of every boundary set afresh and allocates per
/// assignment. Kept as the differential reference for the tabled path.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::dp::optimize_homogeneous;
    use crate::stage::{boundary_transfer_surviving, stage_cost};

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
