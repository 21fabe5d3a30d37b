//! Run accounting as a fold over the kernel event stream.
//!
//! Every driver that produces a [`RunReport`] — the event-driven kernel,
//! the continuous-batching driver, the serial barrier mode — feeds each
//! [`KernelEvent`] it emits to one [`RunAccumulator`] before any other
//! observer sees it. [`RunObserver::on_event`] is the accumulator's only
//! mutator, so the report is a pure function of the stream: replaying a
//! recorded [`super::EventLog`] through a fresh accumulator reproduces
//! the run's report exactly.

use e3_simcore::metrics::{DurationHistogram, UtilizationTracker};
use e3_simcore::{SimDuration, SimTime};

use super::observer::{KernelEvent, RunObserver};
use super::ExclusionReason;
use crate::report::{ExitEvent, RobustnessStats, RunReport};
use crate::sample::SimSample;

/// The [`KernelEvent::Completion`] of `s` finishing at `now`: the one
/// place a latency is judged against the SLO.
pub(crate) fn completion(s: &SimSample, now: SimTime, slo: SimDuration) -> KernelEvent {
    let latency = now.saturating_since(s.arrival);
    KernelEvent::Completion {
        sample: s.id,
        latency,
        within_slo: latency <= slo,
        correct: s.correct,
        exited_early: s.exited_at_ramp.is_some(),
        layers_executed: s.layers_executed,
    }
}

/// Folds one run's event stream into its metrics;
/// [`RunAccumulator::finish`] converts them into the public
/// [`RunReport`].
#[derive(Debug, Clone)]
pub struct RunAccumulator {
    slo: SimDuration,
    record_exit_events: bool,
    latency: DurationHistogram,
    util: Vec<UtilizationTracker>,
    completed: u64,
    within_slo: u64,
    correct: u64,
    exit_events: Vec<ExitEvent>,
    dispatch_batch_sum: Vec<f64>,
    dispatch_batch_n: Vec<u64>,
    stragglers_detected: Vec<usize>,
    last_completion: SimTime,
    peak_queue_depth: Vec<usize>,
    peak_replica_queue_depth: Vec<usize>,
    transfer_retries: u64,
    transfer_aborts: u64,
    excluded_since: Vec<Option<SimTime>>,
    excluded_total: Vec<SimDuration>,
    excluded_now: usize,
    faults_injected: u64,
    degraded_completed: u64,
    degraded_within_slo: u64,
    tokens_generated: u64,
    kv_preemptions: u64,
    robustness: RobustnessStats,
}

impl RunAccumulator {
    /// An empty accumulator for `num_stages` stages and `num_replicas`
    /// execution units.
    pub fn new(
        num_stages: usize,
        num_replicas: usize,
        slo: SimDuration,
        record_exit_events: bool,
    ) -> Self {
        RunAccumulator {
            slo,
            record_exit_events,
            latency: DurationHistogram::new(),
            util: (0..num_replicas)
                .map(|_| UtilizationTracker::new())
                .collect(),
            completed: 0,
            within_slo: 0,
            correct: 0,
            exit_events: Vec::new(),
            dispatch_batch_sum: vec![0.0; num_stages],
            dispatch_batch_n: vec![0; num_stages],
            stragglers_detected: Vec::new(),
            last_completion: SimTime::ZERO,
            peak_queue_depth: vec![0; num_stages],
            peak_replica_queue_depth: vec![0; num_replicas],
            transfer_retries: 0,
            transfer_aborts: 0,
            excluded_since: vec![None; num_replicas],
            excluded_total: vec![SimDuration::ZERO; num_replicas],
            excluded_now: 0,
            faults_injected: 0,
            degraded_completed: 0,
            degraded_within_slo: 0,
            tokens_generated: 0,
            kv_preemptions: 0,
            robustness: RobustnessStats::default(),
        }
    }

    /// Time of the most recent completion.
    pub fn last_completion(&self) -> SimTime {
        self.last_completion
    }

    /// Converts the accumulated measurements into a [`RunReport`] covering
    /// `duration` of simulated time.
    pub fn finish(mut self, duration: SimDuration) -> RunReport {
        let num_stages = self.dispatch_batch_sum.len();
        // Close exclusion intervals still open at the horizon, then turn
        // each replica's total excluded time into an availability fraction.
        let end = SimTime::ZERO + duration;
        for rid in 0..self.excluded_since.len() {
            if let Some(since) = self.excluded_since[rid].take() {
                self.excluded_total[rid] += end.saturating_since(since);
            }
        }
        let replica_availability = self
            .excluded_total
            .iter()
            .map(|&out| {
                if duration == SimDuration::ZERO {
                    1.0
                } else {
                    (1.0 - out.as_secs_f64() / duration.as_secs_f64()).max(0.0)
                }
            })
            .collect();
        let sheds = self.robustness.sheds;
        RunReport {
            duration,
            completed: self.completed,
            within_slo: self.within_slo,
            dropped: sheds.total(),
            correct: self.correct,
            latency: self.latency,
            replica_util: self.util,
            mean_dispatch_batch: (0..num_stages)
                .map(|s| {
                    if self.dispatch_batch_n[s] == 0 {
                        0.0
                    } else {
                        self.dispatch_batch_sum[s] / self.dispatch_batch_n[s] as f64
                    }
                })
                .collect(),
            exit_events: self.exit_events,
            slo: self.slo,
            stragglers_detected: self.stragglers_detected,
            peak_queue_depth: self.peak_queue_depth,
            peak_replica_queue_depth: self.peak_replica_queue_depth,
            replica_availability,
            faults_injected: self.faults_injected,
            degraded_completed: self.degraded_completed,
            degraded_within_slo: self.degraded_within_slo,
            shed: sheds.queue_cap + sheds.brownout,
            transfer_retries: self.transfer_retries,
            transfer_aborts: self.transfer_aborts,
            tokens_generated: self.tokens_generated,
            kv_preemptions: self.kv_preemptions,
            robustness: self.robustness,
        }
    }
}

impl RunObserver for RunAccumulator {
    fn on_event(&mut self, now: SimTime, event: &KernelEvent) {
        let rb = &mut self.robustness;
        match *event {
            KernelEvent::Dispatched {
                stage,
                width,
                queued,
            } => {
                self.dispatch_batch_sum[stage] += width;
                self.dispatch_batch_n[stage] += 1;
                if let Some(q) = queued {
                    let peak = &mut self.peak_replica_queue_depth[q.replica as usize];
                    *peak = (*peak).max(q.replica_depth as usize);
                    let peak = &mut self.peak_queue_depth[stage];
                    *peak = (*peak).max(q.stage_depth as usize);
                }
            }
            KernelEvent::ExecStart {
                replica,
                busy,
                occupancy,
                ..
            } => self.util[replica].record_busy(busy, occupancy),
            KernelEvent::Completion {
                latency,
                within_slo,
                correct,
                exited_early,
                layers_executed,
                ..
            } => {
                self.latency.record(latency);
                self.completed += 1;
                self.within_slo += u64::from(within_slo);
                self.correct += u64::from(correct);
                if self.excluded_now > 0 {
                    self.degraded_completed += 1;
                    self.degraded_within_slo += u64::from(within_slo);
                }
                if self.record_exit_events {
                    self.exit_events.push(ExitEvent {
                        at: now,
                        layers_executed,
                        exited_early,
                    });
                }
                self.last_completion = now;
            }
            KernelEvent::Dropped { cause, .. } => rb.sheds.record(cause),
            KernelEvent::TransferRetried { .. } => self.transfer_retries += 1,
            KernelEvent::TransferAborted {
                budget_exhausted, ..
            } => {
                self.transfer_aborts += 1;
                rb.retry_budget_exhausted += u64::from(budget_exhausted);
            }
            KernelEvent::HedgeDispatched { .. } => rb.hedges_dispatched += 1,
            KernelEvent::HedgeWon { .. } => rb.hedges_won += 1,
            KernelEvent::HedgeCancelled { .. } => rb.hedges_cancelled += 1,
            KernelEvent::BreakerTripped { .. } => rb.breaker_trips += 1,
            KernelEvent::BreakerProbe { .. } => rb.breaker_probes += 1,
            KernelEvent::BreakerClosed { .. } => rb.breaker_closes += 1,
            KernelEvent::FaultInjected { .. } => self.faults_injected += 1,
            KernelEvent::TokenGenerated { .. } => self.tokens_generated += 1,
            KernelEvent::KvPreempted { .. } => self.kv_preemptions += 1,
            // Exclusion is idempotent while the replica stays out (a crash
            // may follow a straggler verdict); recovery closes the
            // interval, if one is open.
            KernelEvent::ReplicaExcluded { replica, reason } => {
                if reason == ExclusionReason::Straggler {
                    self.stragglers_detected.push(replica);
                }
                if self.excluded_since[replica].is_none() {
                    self.excluded_since[replica] = Some(now);
                    self.excluded_now += 1;
                }
            }
            KernelEvent::ReplicaRecovered { replica } => {
                if let Some(since) = self.excluded_since[replica].take() {
                    self.excluded_total[replica] += now.saturating_since(since);
                    self.excluded_now -= 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::observer::QueueDepth;
    use crate::report::DropCause;

    fn sample(arrival: SimTime, exited_at_ramp: Option<usize>, correct: bool) -> SimSample {
        SimSample {
            id: 1,
            arrival,
            layers_executed: 4,
            exited_at_ramp,
            correct,
            output_tokens: 1,
        }
    }

    fn feed(acc: &mut RunAccumulator, now: SimTime, events: &[KernelEvent]) {
        for e in events {
            acc.on_event(now, e);
        }
    }

    fn dropped(cause: DropCause) -> KernelEvent {
        KernelEvent::Dropped {
            sample: 0,
            stage: 0,
            cause,
        }
    }

    #[test]
    fn accumulates_and_finishes() {
        let slo = SimDuration::from_millis(20);
        let mut acc = RunAccumulator::new(2, 3, slo, true);
        let queued = |stage_depth| {
            Some(QueueDepth {
                replica: 2,
                replica_depth: 1,
                stage_depth,
            })
        };
        let s = sample(SimTime::ZERO, Some(1), true);
        feed(
            &mut acc,
            SimTime::ZERO,
            &[
                KernelEvent::Dispatched {
                    stage: 0,
                    width: 8.0,
                    queued: None,
                },
                KernelEvent::Dispatched {
                    stage: 0,
                    width: 4.0,
                    queued: None,
                },
                KernelEvent::Dispatched {
                    stage: 1,
                    width: 6.0,
                    queued: queued(3),
                },
                KernelEvent::Dispatched {
                    stage: 1,
                    width: 6.0,
                    queued: queued(2),
                },
                KernelEvent::ExecStart {
                    replica: 1,
                    stage: 1,
                    size: 6,
                    busy: SimDuration::from_millis(5),
                    occupancy: 0.5,
                },
                dropped(DropCause::Admission),
            ],
        );
        let done_at = SimTime::from_millis(10);
        acc.on_event(done_at, &completion(&s, done_at, slo));
        let late = SimTime::from_millis(30);
        acc.on_event(late, &completion(&s, late, slo));
        assert_eq!(acc.last_completion(), late);
        let r = acc.finish(SimDuration::from_secs(1));
        assert_eq!(r.completed, 2);
        assert_eq!(r.within_slo, 1);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.correct, 2);
        assert_eq!(r.mean_dispatch_batch, vec![6.0, 6.0]);
        assert_eq!(r.peak_queue_depth, vec![0, 3]);
        assert_eq!(r.peak_replica_queue_depth, vec![0, 0, 1]);
        assert_eq!(r.replica_util[1].busy(), SimDuration::from_millis(5));
        assert_eq!(r.exit_events.len(), 2);
        assert!(r.exit_events[0].exited_early);
        assert_eq!(r.latency.samples_ms().len(), 2);
    }

    #[test]
    fn exclusion_intervals_become_availability() {
        let slo = SimDuration::from_millis(100);
        let mut acc = RunAccumulator::new(1, 2, slo, false);
        let at = SimTime::from_secs;
        let excluded = |replica, reason| KernelEvent::ReplicaExcluded { replica, reason };
        let fault = KernelEvent::FaultInjected {
            fault: crate::kernel::FaultEvent::ReplicaCrash {
                replica: 0,
                at: at(1),
            },
        };
        acc.on_event(at(1), &fault);
        acc.on_event(at(1), &excluded(0, ExclusionReason::Straggler));
        acc.on_event(at(2), &excluded(0, ExclusionReason::Crash)); // idempotent
        let s = sample(at(1), None, true);
        let done_at = at(1) + SimDuration::from_millis(50);
        acc.on_event(done_at, &completion(&s, done_at, slo));
        acc.on_event(at(3), &KernelEvent::ReplicaRecovered { replica: 0 });
        acc.on_event(at(4), &KernelEvent::ReplicaRecovered { replica: 0 }); // no-op
                                                                            // Not degraded any more: this completion does not count as one.
        acc.on_event(at(5), &completion(&s, at(5), slo));
        // Replica 1 excluded at t=6 and never recovered: interval closes
        // at the 8 s horizon.
        acc.on_event(at(6), &excluded(1, ExclusionReason::Breaker));
        let r = acc.finish(SimDuration::from_secs(8));
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.stragglers_detected, vec![0]);
        assert_eq!(r.degraded_completed, 1);
        assert_eq!(r.degraded_within_slo, 1);
        assert!((r.replica_availability[0] - 0.75).abs() < 1e-12);
        assert!((r.replica_availability[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sheds_by_cause_partition_the_drops() {
        let mut acc = RunAccumulator::new(1, 2, SimDuration::from_millis(20), false);
        let aborted = |budget_exhausted| KernelEvent::TransferAborted {
            from_stage: 0,
            size: 1,
            budget_exhausted,
        };
        let mut events = Vec::new();
        events.extend([dropped(DropCause::QueueCap); 4]);
        events.extend([dropped(DropCause::Brownout); 3]);
        events.push(dropped(DropCause::Admission));
        events.extend([dropped(DropCause::TransferAbort); 7]);
        events.extend([
            aborted(false),
            aborted(true),
            KernelEvent::HedgeDispatched {
                primary: 0,
                backup: 1,
                size: 2,
            },
            KernelEvent::HedgeWon {
                replica: 0,
                size: 2,
            },
            KernelEvent::HedgeCancelled {
                replica: 1,
                size: 2,
            },
            KernelEvent::BreakerTripped { replica: 1 },
            KernelEvent::BreakerProbe { replica: 1 },
            KernelEvent::BreakerClosed { replica: 1 },
        ]);
        feed(&mut acc, SimTime::ZERO, &events);
        let r = acc.finish(SimDuration::from_secs(1));
        assert_eq!(r.robustness.sheds.queue_cap, 4);
        assert_eq!(r.robustness.sheds.brownout, 3);
        assert_eq!(r.robustness.sheds.admission, 1);
        assert_eq!(r.robustness.sheds.transfer_abort, 7);
        // The breakdown partitions `dropped` exactly.
        assert_eq!(r.robustness.sheds.total(), r.dropped);
        // Legacy aggregates keep their meaning.
        assert_eq!(r.shed, 7);
        assert_eq!(r.transfer_aborts, 2);
        assert_eq!(r.robustness.retry_budget_exhausted, 1);
        assert_eq!(r.robustness.hedges_dispatched, 1);
        assert_eq!(r.robustness.hedges_won, 1);
        assert_eq!(r.robustness.hedges_cancelled, 1);
        assert_eq!(r.robustness.breaker_trips, 1);
        assert_eq!(r.robustness.breaker_probes, 1);
        assert_eq!(r.robustness.breaker_closes, 1);
    }

    #[test]
    fn exit_events_can_be_disabled() {
        let slo = SimDuration::from_millis(20);
        let mut acc = RunAccumulator::new(1, 1, slo, false);
        let s = sample(SimTime::ZERO, None, false);
        let now = SimTime::from_millis(1);
        acc.on_event(now, &completion(&s, now, slo));
        let r = acc.finish(SimDuration::from_secs(1));
        assert!(r.exit_events.is_empty());
        assert_eq!(r.correct, 0);
    }
}
