//! Stage cost evaluation: the `T(i → j, c, m, B)` term of the paper's DP.
//!
//! A *stage* is one split running on one GPU kind. Its batch enters at
//! the split boundary refused to the full input batch `b0`; inside the
//! stage, exits shrink the expected batch according to the profile, and
//! each surviving layer (plus every enabled ramp) is charged the
//! latency-model cost at its expected batch size.
//!
//! The *effective* per-input-batch time of a stage divides by the replica
//! count and multiplies by the stage's survival fraction: a stage that
//! only 50% of samples reach needs to run only half a stage-batch per
//! input batch, and `m` replicas share that work.
//!
//! Every optimizer solve prices its stages through a `StageTable`: the
//! lazily filled one-replica time of each (layer range, GPU kind) and the
//! transfer into each boundary for one planning context. A miss prices
//! every stage with the same start and kind in one pass over the layers
//! (`stage_row`).

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};
use e3_simcore::SimDuration;
use std::ops::Range;

/// Cost summary of one stage (split × GPU kind × replica count × batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Wall time for one replica to process one stage-batch.
    pub batch_time: SimDuration,
    /// Per-input-batch effective time: `survival_at_start · batch_time / replicas`.
    pub effective_time: SimDuration,
    /// Mean GPU occupancy while executing (for utilization reports).
    pub mean_occupancy: f64,
    /// Expected batch surviving at the stage's end (per stage-batch of `b0`).
    pub batch_out: f64,
    /// Survival fraction at the stage's start.
    pub survival_in: f64,
}

/// Computes the cost of running `layers` (half-open) of `model` at input
/// batch `b0` on `gpu`, honoring the profile's shrinkage and the ramp
/// controller's enablement.
///
/// `b0` is the *constant* batch E3 maintains: the batch entering the
/// stage is refused to `b0` regardless of upstream exits; within the
/// stage the expected batch is `b0 · survival[k] / survival[start]`.
#[allow(clippy::too_many_arguments)] // the DP inputs of fig. 6
pub fn stage_cost(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    layers: Range<usize>,
    b0: f64,
    gpu: GpuKind,
    replicas: usize,
    lm: &LatencyModel,
) -> StageCost {
    assert!(!layers.is_empty(), "stage must contain at least one layer");
    assert!(layers.end <= model.num_layers(), "stage out of range");
    assert!(replicas >= 1, "stage needs at least one replica");
    assert!(b0 > 0.0, "batch must be positive");

    let s_in = profile.survival_at(layers.start);
    if s_in <= 0.0 {
        // Nothing reaches this stage; it is free (the DP will still place
        // a replica, but it will never run).
        return StageCost {
            batch_time: SimDuration::ZERO,
            effective_time: SimDuration::ZERO,
            mean_occupancy: 0.0,
            batch_out: 0.0,
            survival_in: 0.0,
        };
    }

    let mut batch_time = SimDuration::ZERO;
    let mut occ_weighted = 0.0f64;
    let mut ramps_in_stage = false;
    for k in layers.clone() {
        let batch = b0 * profile.survival_at(k) / s_in;
        if batch <= 0.0 {
            continue;
        }
        let spec = model.layers()[k];
        let t = lm.layer_time(spec.work_us + spec.fixed_us, batch, gpu);
        occ_weighted += t.as_secs_f64() * lm.occupancy(batch, gpu);
        batch_time += t;
        if let Some(ri) = model.ramp_after(k) {
            if ctrl.pays_cost_at(ri) {
                ramps_in_stage = true;
                let rs = model.ramps()[ri];
                let rt = lm.layer_time(rs.work_us + rs.fixed_us, batch, gpu);
                occ_weighted += rt.as_secs_f64() * lm.occupancy(batch, gpu);
                batch_time += rt;
            }
        }
    }
    if ramps_in_stage {
        // E3's split execution acts on all exit decisions with one
        // gather at the stage boundary (see e3-hardware's ExitOverheads).
        let live_at_end = b0 * profile.survival_at(layers.end) / s_in;
        batch_time += lm.exit.reform_time(live_at_end);
    }
    let mean_occupancy = if batch_time.is_zero() {
        0.0
    } else {
        occ_weighted / batch_time.as_secs_f64()
    };
    let effective_time = batch_time.mul_f64(s_in / replicas as f64);
    StageCost {
        batch_time,
        effective_time,
        mean_occupancy,
        batch_out: b0 * profile.survival_at(layers.end) / s_in,
        survival_in: s_in,
    }
}

/// The one-replica effective time of every stage that starts at `start`:
/// element `i` equals `stage_cost(.., start..start + 1 + i, b0, gpu, 1,
/// ..).effective_time` bit for bit, for every end up to the model's last
/// layer.
///
/// One pass over the layers prices the whole row: a stage's batch time
/// is an integer-nanosecond sum in layer order, so each end extends the
/// previous end's running sum, and the boundary reform and survival
/// weighting are applied per end exactly as [`stage_cost`] applies them.
#[allow(clippy::too_many_arguments)] // the DP inputs of fig. 6
pub(crate) fn stage_row(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    start: usize,
    b0: f64,
    gpu: GpuKind,
    lm: &LatencyModel,
) -> Vec<SimDuration> {
    let l = model.num_layers();
    assert!(start < l, "stage out of range");
    assert!(b0 > 0.0, "batch must be positive");

    let s_in = profile.survival_at(start);
    if s_in <= 0.0 {
        return vec![SimDuration::ZERO; l - start];
    }
    let mut row = Vec::with_capacity(l - start);
    let mut running = SimDuration::ZERO;
    let mut ramps_in_stage = false;
    for k in start..l {
        let batch = b0 * profile.survival_at(k) / s_in;
        if batch > 0.0 {
            let spec = model.layers()[k];
            running += lm.layer_time(spec.work_us + spec.fixed_us, batch, gpu);
            if let Some(ri) = model.ramp_after(k) {
                if ctrl.pays_cost_at(ri) {
                    ramps_in_stage = true;
                    let rs = model.ramps()[ri];
                    running += lm.layer_time(rs.work_us + rs.fixed_us, batch, gpu);
                }
            }
        }
        let mut batch_time = running;
        if ramps_in_stage {
            batch_time += lm.exit.reform_time(b0 * profile.survival_at(k + 1) / s_in);
        }
        // `stage_cost` scales by `s_in / replicas`, and `s_in / 1.0 == s_in`.
        row.push(batch_time.mul_f64(s_in));
    }
    row
}

/// Whether one replica of the stage `layers` fits `gpu`'s memory at
/// batch `b0`: estimated weights (from the calibrated compute costs) plus
/// double-buffered activations, per the §3.1 resource safety check. The
/// DP uses this to prune memory-infeasible transitions.
pub fn stage_fits(model: &EeModel, layers: Range<usize>, b0: f64, gpu: GpuKind) -> bool {
    use e3_hardware::memory::{params_from_work_us, MemoryFootprint};
    let params: f64 = layers
        .clone()
        .map(|k| params_from_work_us(model.layers()[k].work_us))
        .sum();
    let widest = layers
        .map(|k| model.layers()[k].output_bytes as f64)
        .fold(0.0f64, f64::max);
    MemoryFootprint::new(params, widest).fits(b0, gpu)
}

/// The activation-transfer time charged at the boundary entering
/// `next_start` (the paper's `Tx(s, s+1)`): one refused batch of `b0`
/// samples of the boundary's activation size.
pub fn boundary_transfer(
    model: &EeModel,
    next_start: usize,
    b0: f64,
    tm: &e3_hardware::TransferModel,
) -> SimDuration {
    assert!(next_start >= 1, "no boundary before the first layer");
    tm.batch_transfer_time(model.boundary_bytes(next_start - 1), b0)
}

/// The transfer time of the *surviving* samples crossing the boundary at
/// `next_start`: samples that exited upstream never cross, so the wire
/// carries only `b0 · survival[next_start]` samples. This is the payload
/// that matters for the pipeline's steady state; the full-batch
/// [`boundary_transfer`] matters for a single request's latency path.
pub fn boundary_transfer_surviving(
    model: &EeModel,
    profile: &BatchProfile,
    next_start: usize,
    b0: f64,
    tm: &e3_hardware::TransferModel,
) -> SimDuration {
    assert!(next_start >= 1, "no boundary before the first layer");
    tm.batch_transfer_time(
        model.boundary_bytes(next_start - 1),
        b0 * profile.survival_at(next_start),
    )
}

/// Table slots per layer range: one for every `GpuKind` variant, indexed
/// by discriminant.
const KIND_SLOTS: usize = GpuKind::ALL.len() + GpuKind::EDGE.len();

/// Lazily filled stage prices for one planning context (model, ramp
/// controller, profile, batch, transfer and latency models): the
/// one-replica `effective_time` of every (start, end, kind) stage and the
/// surviving-batch transfer into every boundary, both in seconds.
///
/// Neither depends on how many GPUs of each kind are on offer, so one
/// table serves every solve in its context: the homogeneous DPs read
/// their per-kind tables from it ([`StageTable::t1`], [`StageTable::tx`])
/// and the heterogeneous search reads single entries. Every plan is
/// priced through one of these tables.
pub(crate) struct StageTable<'a> {
    pub(crate) model: &'a EeModel,
    pub(crate) ctrl: &'a RampController,
    pub(crate) profile: &'a BatchProfile,
    pub(crate) b0: f64,
    pub(crate) tm: &'a TransferModel,
    pub(crate) lm: &'a LatencyModel,
    /// Slot `(start * (layers + 1) + end) * KIND_SLOTS + kind`.
    stage_time: Vec<Option<f64>>,
    /// Whether one replica of the stage fits the kind's memory, in the
    /// same slots as `stage_time`.
    fits: Vec<Option<bool>>,
    /// Slot `start`; the first stage has no incoming transfer.
    transfer_in: Vec<Option<f64>>,
    /// How much of the heterogeneous search ran on this table.
    pub(crate) search: SearchCounts,
}

/// Kind assignments the heterogeneous search covered and waterfilled.
#[derive(Default)]
pub(crate) struct SearchCounts {
    /// Assignments enumerated, counting those a bound skipped.
    pub(crate) enumerated: u64,
    /// Assignments whose replica counts were waterfilled.
    pub(crate) waterfilled: u64,
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
        assert_eq!(profile.num_layers(), model.num_layers(), "profile mismatch");
        let l = model.num_layers();
        StageTable {
            model,
            ctrl,
            profile,
            b0,
            tm,
            lm,
            stage_time: vec![None; l * (l + 1) * KIND_SLOTS],
            fits: vec![None; l * (l + 1) * KIND_SLOTS],
            transfer_in: vec![None; l],
            search: SearchCounts::default(),
        }
    }

    fn slot(&self, start: usize, end: usize, kind: GpuKind) -> usize {
        (start * (self.model.num_layers() + 1) + end) * KIND_SLOTS + kind as usize
    }

    /// One-replica effective time of layers `start..end` on `kind`. A
    /// miss prices every stage that starts at `start` on `kind`.
    pub(crate) fn stage_time(&mut self, start: usize, end: usize, kind: GpuKind) -> f64 {
        let slot = self.slot(start, end, kind);
        if let Some(t) = self.stage_time[slot] {
            return t;
        }
        let row = stage_row(
            self.model,
            self.ctrl,
            self.profile,
            start,
            self.b0,
            kind,
            self.lm,
        );
        for (e, t) in (start + 1..).zip(row) {
            let slot = self.slot(start, e, kind);
            self.stage_time[slot] = Some(t.as_secs_f64());
        }
        self.stage_time[slot].expect("the row covers every end")
    }

    /// Whether one replica of layers `start..end` fits `kind`'s memory.
    fn fits(&mut self, start: usize, end: usize, kind: GpuKind) -> bool {
        let slot = self.slot(start, end, kind);
        *self.fits[slot].get_or_insert_with(|| stage_fits(self.model, start..end, self.b0, kind))
    }

    /// The homogeneous DPs' stage table for `kind`, read from this one:
    /// `t1[s][j]` is the one-replica time of layers `s..j`, `INF` where
    /// the range overflows device memory (when `check_memory`).
    pub(crate) fn t1(&mut self, kind: GpuKind, check_memory: bool) -> Vec<Vec<f64>> {
        let l = self.model.num_layers();
        let mut t1 = vec![vec![f64::INFINITY; l + 1]; l + 1];
        for (s, row) in t1.iter_mut().enumerate().take(l) {
            for (j, t) in row.iter_mut().enumerate().skip(s + 1) {
                if !check_memory || self.fits(s, j, kind) {
                    *t = self.stage_time(s, j, kind);
                }
            }
        }
        t1
    }

    /// The homogeneous DP's transfers: element `s - 1` enters the
    /// boundary at layer `s`.
    pub(crate) fn tx(&mut self) -> Vec<f64> {
        (1..self.model.num_layers())
            .map(|s| self.transfer_in(s))
            .collect()
    }

    /// Surviving-batch transfer entering the stage that starts at
    /// `start`; amortized over that stage's replicas once allocated.
    pub(crate) fn transfer_in(&mut self, start: usize) -> f64 {
        if start == 0 {
            return 0.0;
        }
        *self.transfer_in[start].get_or_insert_with(|| {
            boundary_transfer_surviving(self.model, self.profile, start, self.b0, self.tm)
                .as_secs_f64()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::zoo;
    use e3_model::RampStyle;
    use proptest::collection;
    use proptest::prelude::*;

    fn setup() -> (EeModel, RampController, LatencyModel) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new())
    }

    #[test]
    fn full_model_no_exit_stage_matches_anchor() {
        // Whole DeeBERT with a flat profile at b=8 on V100: layer time
        // ~19.7ms plus ~11 ramps of overhead.
        let (m, c, lm) = setup();
        let p = BatchProfile::no_exits(12);
        let sc = stage_cost(&m, &c, &p, 0..12, 8.0, GpuKind::V100, 1, &lm);
        let ms = sc.batch_time.as_millis_f64();
        assert!((20.0..26.0).contains(&ms), "t={ms}");
        assert_eq!(sc.batch_out, 8.0);
        assert_eq!(sc.survival_in, 1.0);
    }

    #[test]
    fn shrinking_profile_cheapens_late_layers() {
        let (m, c, lm) = setup();
        // Half the batch gone by layer 6.
        let mut surv = vec![1.0; 7];
        surv.extend(vec![0.5; 6]);
        let p = BatchProfile::new(surv);
        let flat = stage_cost(
            &m,
            &c,
            &BatchProfile::no_exits(12),
            0..12,
            8.0,
            GpuKind::V100,
            1,
            &lm,
        );
        let shrunk = stage_cost(&m, &c, &p, 0..12, 8.0, GpuKind::V100, 1, &lm);
        assert!(shrunk.batch_time < flat.batch_time);
        assert_eq!(shrunk.batch_out, 4.0);
    }

    #[test]
    fn effective_time_scales_with_replicas_and_survival() {
        let (m, c, lm) = setup();
        // Survival drops to 0.5 entering layer 6 (indices 0..=5 are 1.0).
        let mut surv = vec![1.0; 6];
        surv.extend(vec![0.5; 7]);
        let p = BatchProfile::new(surv);
        // Second half of the model: survival in = 0.5.
        let one = stage_cost(&m, &c, &p, 6..12, 8.0, GpuKind::V100, 1, &lm);
        let two = stage_cost(&m, &c, &p, 6..12, 8.0, GpuKind::V100, 2, &lm);
        assert_eq!(one.survival_in, 0.5);
        assert!(
            (one.effective_time.as_secs_f64() - 0.5 * one.batch_time.as_secs_f64()).abs() < 1e-9
        );
        assert!(
            (two.effective_time.as_secs_f64() - 0.5 * one.effective_time.as_secs_f64()).abs()
                < 1e-9
        );
    }

    #[test]
    fn disabled_ramps_reduce_stage_time() {
        let (m, mut c, lm) = setup();
        let p = BatchProfile::no_exits(12);
        let full = stage_cost(&m, &c, &p, 0..12, 4.0, GpuKind::V100, 1, &lm);
        c.keep_only(&[5]);
        let trimmed = stage_cost(&m, &c, &p, 0..12, 4.0, GpuKind::V100, 1, &lm);
        assert!(trimmed.batch_time < full.batch_time);
    }

    #[test]
    fn dead_stage_is_free() {
        let (m, c, lm) = setup();
        // Nobody survives past layer 5.
        let mut surv = vec![1.0; 6];
        surv.extend(vec![0.0; 7]);
        let p = BatchProfile::new(surv);
        let sc = stage_cost(&m, &c, &p, 6..12, 8.0, GpuKind::V100, 1, &lm);
        assert!(sc.batch_time.is_zero());
        assert_eq!(sc.survival_in, 0.0);
    }

    #[test]
    fn boundary_transfer_positive_for_ethernet() {
        let (m, _, _) = setup();
        let tm = TransferModel::default();
        let t = boundary_transfer(&m, 6, 16.0, &tm);
        assert!(t > SimDuration::from_millis(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row pricer reproduces the per-range `stage_cost` bit for
        /// bit on every range and kind, with ramps all on, all off or
        /// partly on, and with survival that may drop to zero mid-model.
        #[test]
        fn stage_row_matches_stage_cost(
            model_ix in 0usize..2,
            ramp_mode in 0usize..3,
            keeps in collection::vec(0.3f64..1.0, 12),
            zero_from in 1usize..20,
            b0 in 0.5f64..32.0,
        ) {
            let m = if model_ix == 0 { zoo::deebert() } else { zoo::distilbert_ee() };
            let l = m.num_layers();
            let mut c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
            match ramp_mode {
                0 => {}
                1 => c.keep_only(&[]),
                _ => c.keep_only(&[1, 3]),
            }
            let mut surv = vec![1.0];
            for k in 1..=l {
                surv.push(if k >= zero_from { 0.0 } else { surv[k - 1] * keeps[k - 1] });
            }
            let p = BatchProfile::new(surv);
            let lm = LatencyModel::new();
            for gpu in GpuKind::ALL.into_iter().chain(GpuKind::EDGE) {
                for start in 0..l {
                    let row = stage_row(&m, &c, &p, start, b0, gpu, &lm);
                    prop_assert_eq!(row.len(), l - start);
                    for (end, &t) in (start + 1..=l).zip(&row) {
                        let want = stage_cost(&m, &c, &p, start..end, b0, gpu, 1, &lm);
                        prop_assert_eq!(t, want.effective_time);
                    }
                }
            }
        }
    }

    #[test]
    fn occupancy_reflects_batch() {
        let (m, c, lm) = setup();
        let p = BatchProfile::no_exits(12);
        let small = stage_cost(&m, &c, &p, 0..12, 1.0, GpuKind::V100, 1, &lm);
        let big = stage_cost(&m, &c, &p, 0..12, 8.0, GpuKind::V100, 1, &lm);
        assert!(small.mean_occupancy < 0.3);
        // Boundary-reform time dilutes occupancy slightly below 1.0.
        assert!(big.mean_occupancy > 0.9, "occ={}", big.mean_occupancy);
    }
}
