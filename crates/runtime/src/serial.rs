//! Serial split execution — the "model parallelism OFF" mode (§5.8.7).
//!
//! Without model parallelism, E3 "must execute the splits in the same
//! GPU serially, waiting for all copies of a split to finish before it
//! can start executing the next". This module simulates exactly that
//! barrier discipline: the data-parallel GPU set runs stage `s` on every
//! outstanding batch, idles at a barrier, gathers survivors over PCIe,
//! re-forms full batches, and only then starts stage `s+1`. The idle
//! time at each barrier (the max-minus-mean of the wave) is what the
//! pipelined mode eliminates — the gap plotted in fig. 26.
//!
//! No events interleave between barriers, by construction, so the driver
//! needs no event queue: its clock is a plain [`SimTime`] advanced in
//! lockstep. The report is the same [`RunAccumulator`] fold over the
//! [`KernelEvent`]s the driver emits (dispatches, batch executions,
//! completions) that the event-driven kernel uses.

use rand::rngs::StdRng;
use rand::SeedableRng;

use e3_hardware::{GpuKind, LatencyModel, LinkKind, TransferModel};
use e3_model::{EeModel, ExitPolicy, InferenceSim, RampController};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::Request;

use crate::executor::execute_batch;
use crate::kernel::{completion, KernelEvent, RunAccumulator, RunObserver};
use crate::report::RunReport;
use crate::sample::SimSample;

/// Runs the serial-barrier mode over `requests`.
///
/// `boundaries` are the interior split points (as from
/// [`e3_optimizer::SplitPlan::boundaries`]); `gpus` is the data-parallel
/// device set; every stage runs at target batch `b0`.
#[allow(clippy::too_many_arguments)]
pub fn run_serial_barrier(
    model: &EeModel,
    policy: ExitPolicy,
    ctrl: &RampController,
    infer: &InferenceSim,
    boundaries: &[usize],
    gpus: &[GpuKind],
    b0: usize,
    slo: SimDuration,
    lm: &LatencyModel,
    requests: &[Request],
    seed: u64,
) -> RunReport {
    assert!(!gpus.is_empty(), "need at least one GPU");
    assert!(b0 >= 1, "batch must be at least 1");
    let sampler = infer.sampler(model, &policy, ctrl);
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<SimSample> = requests
        .iter()
        .map(|r| SimSample::materialize_with(r, &sampler, &mut rng))
        .collect();

    // Stage ranges from the boundary list.
    let mut stages = Vec::new();
    let mut prev = 0usize;
    for &b in boundaries {
        assert!(b > prev && b < model.num_layers(), "bad boundary {b}");
        stages.push(prev..b);
        prev = b;
    }
    stages.push(prev..model.num_layers());

    let gather = TransferModel::new(LinkKind::Pcie);
    let m = gpus.len();
    // Pure lockstep: nothing is ever scheduled, so a clock suffices.
    let mut now = SimTime::ZERO;
    let mut acc = RunAccumulator::new(stages.len(), m, slo, true);
    // The driver's one emission path; nothing observes it but the fold.
    let mut emit = |now: SimTime, event: KernelEvent| acc.on_event(now, &event);
    // Every dispatch in this mode is exactly b0 wide, at every stage.
    for stage in 0..stages.len() {
        emit(
            SimTime::ZERO,
            KernelEvent::Dispatched {
                stage,
                width: b0 as f64,
                queued: None,
            },
        );
    }

    // Super-rounds of m * b0 samples keep every GPU busy in stage 0.
    for chunk in samples.chunks(m * b0) {
        let round_start = now;
        let mut alive: Vec<SimSample> = chunk.to_vec();
        for (si, stage) in stages.iter().enumerate() {
            if alive.is_empty() {
                break;
            }
            // Re-form full batches from survivors and run them in waves
            // of m, with a barrier after each wave.
            let batches: Vec<&[SimSample]> = alive.chunks(b0).collect();
            for wave in batches.chunks(m) {
                let mut wave_max = SimDuration::ZERO;
                for (g, batch) in wave.iter().enumerate() {
                    let out = execute_batch(
                        model,
                        ctrl,
                        lm,
                        &lm.exit,
                        gpus[g],
                        stage.clone(),
                        batch,
                        true,
                        1.0,
                    );
                    emit(
                        now,
                        KernelEvent::ExecStart {
                            replica: g,
                            stage: si as u32,
                            size: batch.len() as u32,
                            busy: out.duration,
                            occupancy: out.mean_occupancy,
                        },
                    );
                    wave_max = wave_max.max(out.duration);
                }
                now += wave_max; // the barrier: everyone waits for the slowest
            }
            // Gather survivors across GPUs over shared PCIe.
            let survivors: Vec<SimSample> = alive
                .iter()
                .filter(|s| !s.finishes_before(stage.end))
                .copied()
                .collect();
            let finished: Vec<SimSample> = alive
                .iter()
                .filter(|s| s.finishes_before(stage.end))
                .copied()
                .collect();
            if stage.end < model.num_layers() && !survivors.is_empty() {
                now += gather.batch_transfer_time(
                    model.boundary_bytes(stage.end - 1),
                    survivors.len() as f64,
                );
            }
            for mut s in finished {
                s.arrival = round_start; // latency = time since the round began
                emit(now, completion(&s, now, slo));
            }
            alive = survivors;
        }
        assert!(alive.is_empty(), "samples survived past the final stage");
    }

    let duration = now.saturating_since(SimTime::ZERO);
    acc.finish(duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::{zoo, RampStyle};
    use e3_simcore::SimTime;

    fn requests(n: usize) -> Vec<Request> {
        let ds = e3_workload::DatasetModel::sst2();
        let mut rng = StdRng::seed_from_u64(1);
        (0..n as u64)
            .map(|id| Request {
                id,
                arrival: SimTime::ZERO,
                hardness: ds.sample_hardness(&mut rng),
                output_tokens: 1,
            })
            .collect()
    }

    fn run(boundaries: &[usize], gpus: usize, b0: usize) -> RunReport {
        let model = zoo::deebert();
        let policy = zoo::default_policy("DeeBERT");
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        run_serial_barrier(
            &model,
            policy,
            &ctrl,
            &InferenceSim::new(),
            boundaries,
            &vec![GpuKind::V100; gpus],
            b0,
            SimDuration::from_millis(100),
            &LatencyModel::new(),
            &requests(8000),
            7,
        )
    }

    #[test]
    fn completes_everything() {
        let r = run(&[6], 4, 8);
        assert_eq!(r.completed, 8000);
        assert_eq!(r.dropped, 0);
        assert!(r.goodput() > 0.0);
    }

    #[test]
    fn serial_refusion_pays_barrier_costs() {
        // With barriers, re-fusing at a boundary costs idle waves and a
        // PCIe gather; above GPU saturation that outweighs the refusion
        // benefit — exactly why the paper's MP-OFF mode underperforms.
        let none = run(&[], 4, 8);
        let split = run(&[6], 4, 8);
        assert!(split.goodput() > none.goodput() * 0.6, "not catastrophic");
        assert!(
            split.goodput() < none.goodput() * 1.1,
            "barriers must not be free: split {} none {}",
            split.goodput(),
            none.goodput()
        );
    }

    #[test]
    fn more_gpus_more_goodput() {
        let small = run(&[6], 2, 8);
        let big = run(&[6], 8, 8);
        assert!(big.goodput() > small.goodput() * 1.5);
    }

    #[test]
    fn deterministic() {
        let a = run(&[4, 8], 4, 8);
        let b = run(&[4, 8], 4, 8);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
    }

    #[test]
    fn report_shape_matches_barrier_mode() {
        // The accumulator path must reproduce the mode's fixed-shape
        // fields: constant dispatch width, no drops, no stragglers.
        let r = run(&[4, 8], 4, 8);
        assert_eq!(r.mean_dispatch_batch, vec![8.0, 8.0, 8.0]);
        assert_eq!(r.peak_queue_depth, vec![0, 0, 0]);
        assert!(r.stragglers_detected.is_empty());
        assert_eq!(r.exit_events.len() as u64, r.completed);
    }
}
