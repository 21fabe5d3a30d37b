//! Deterministic fault injection for the serving kernel.
//!
//! A [`FaultPlan`] is a schedule of typed [`FaultEvent`]s applied at the
//! kernel's existing decision points — replica selection, execution-time
//! computation, batch dispatch. Faults are ordinary events on the
//! simulator's one event queue, [`e3_simcore::EventQueue`], so a run with
//! a fault plan is exactly as deterministic as one without: the same seed
//! and the same plan produce a bit-identical event stream and report.
//!
//! The fault vocabulary mirrors the failure modes §3.3 claims robustness
//! to:
//!
//! * [`FaultEvent::ReplicaCrash`] — the replica stops mid-batch; its
//!   running and queued work is re-routed to surviving stage peers and it
//!   receives no new assignments until a [`FaultEvent::DelayedRecovery`];
//! * [`FaultEvent::TransientSlowdown`] — the replica's service time is
//!   multiplied by a factor over a time window (the straggler model);
//! * [`FaultEvent::StageStall`] — no replica of a stage may begin a batch
//!   during the window (an interconnect or driver hiccup); queued batches
//!   wait and dispatch resumes when the stall lifts;
//! * [`FaultEvent::DelayedRecovery`] — a crashed (or straggler-excluded)
//!   replica rejoins with fresh service statistics;
//! * [`FaultEvent::LinkDown`] — the interconnect out of a stage drops
//!   transfers over a time window; the kernel retries them with
//!   exponential backoff and aborts (dropping the samples) when the
//!   retry budget runs out;
//! * [`FaultEvent::GrayDegradation`] — a partial slowdown the replica
//!   does not *report*: execution genuinely takes longer, but the
//!   replica's self-reported service statistics (what the straggler
//!   watchdog reads) stay clean. Only an external wall-clock health
//!   estimator can catch it.
//!
//! Faults need not be independent: the `*_domain` builders expand one
//! infrastructure event over an [`e3_hardware::FaultDomain`] (a rack,
//! switch, or PDU grouping from [`e3_hardware::DomainTopology`]) into
//! per-replica events, so a single injected failure takes out a
//! correlated replica set.

use e3_hardware::FaultDomain;
use e3_simcore::SimTime;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Replica `replica` fails at `at`: its running batch is lost and
    /// re-executed elsewhere, its queue is re-routed, and it is excluded
    /// from assignment until recovered.
    ReplicaCrash {
        /// Global replica id.
        replica: usize,
        /// Crash instant.
        at: SimTime,
    },
    /// Replica `replica` runs `factor` times slower between `from` and
    /// `until` (batches started inside the window carry the factor for
    /// their whole execution).
    TransientSlowdown {
        /// Global replica id.
        replica: usize,
        /// Multiplicative service-time factor (> 1 slows the replica).
        factor: f64,
        /// Slowdown onset.
        from: SimTime,
        /// Slowdown end.
        until: SimTime,
    },
    /// No replica of `stage` may begin executing a batch between `from`
    /// and `until`; routed batches queue and start when the stall lifts.
    StageStall {
        /// Stalled stage index.
        stage: usize,
        /// Stall onset.
        from: SimTime,
        /// Stall end.
        until: SimTime,
    },
    /// Replica `replica` rejoins at `at`: its crash/exclusion flags are
    /// cleared and its service statistics reset so the straggler policy
    /// judges it afresh.
    DelayedRecovery {
        /// Global replica id.
        replica: usize,
        /// Recovery instant.
        at: SimTime,
    },
    /// Transfers out of `from_stage` fail between `from` and `until`:
    /// each affected transfer is retried with exponential backoff (see
    /// [`crate::engine::ServingConfig::transfer_retry`]) and dropped when
    /// the budget is exhausted.
    LinkDown {
        /// Sending stage whose outbound link is down.
        from_stage: usize,
        /// Outage onset.
        from: SimTime,
        /// Outage end.
        until: SimTime,
    },
    /// Replica `replica` silently runs `factor` times slower between
    /// `from` and `until`. Unlike [`FaultEvent::TransientSlowdown`],
    /// the replica's self-reported per-sample service statistics are
    /// *not* inflated — the straggler watchdog sees a healthy replica
    /// while wall-clock completions drift late (a gray failure).
    GrayDegradation {
        /// Global replica id.
        replica: usize,
        /// Multiplicative wall-clock factor (> 1 slows the replica).
        factor: f64,
        /// Degradation onset.
        from: SimTime,
        /// Degradation end.
        until: SimTime,
    },
}

impl FaultEvent {
    /// The replica the fault targets, if replica-scoped.
    pub fn replica(&self) -> Option<usize> {
        match self {
            FaultEvent::ReplicaCrash { replica, .. }
            | FaultEvent::TransientSlowdown { replica, .. }
            | FaultEvent::DelayedRecovery { replica, .. }
            | FaultEvent::GrayDegradation { replica, .. } => Some(*replica),
            FaultEvent::StageStall { .. } | FaultEvent::LinkDown { .. } => None,
        }
    }

    /// The stage the fault targets, if stage-scoped.
    pub fn stage(&self) -> Option<usize> {
        match self {
            FaultEvent::StageStall { stage, .. } => Some(*stage),
            FaultEvent::LinkDown { from_stage, .. } => Some(*from_stage),
            _ => None,
        }
    }

    /// When the fault first takes effect.
    pub fn starts_at(&self) -> SimTime {
        match self {
            FaultEvent::ReplicaCrash { at, .. } | FaultEvent::DelayedRecovery { at, .. } => *at,
            FaultEvent::TransientSlowdown { from, .. }
            | FaultEvent::StageStall { from, .. }
            | FaultEvent::LinkDown { from, .. }
            | FaultEvent::GrayDegradation { from, .. } => *from,
        }
    }
}

/// A deterministic schedule of faults for one kernel run.
///
/// Construct with the builder methods, then hand the plan to
/// [`crate::engine::ServingConfig::fault_plan`] (or
/// `DeploymentBuilder::with_fault_plan` / `HarnessOpts::fault_plan` one
/// layer up). An empty plan is the default and costs nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit events.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Schedules a crash of `replica` at `at`.
    pub fn crash(mut self, replica: usize, at: SimTime) -> Self {
        self.events.push(FaultEvent::ReplicaCrash { replica, at });
        self
    }

    /// Schedules a `factor`× slowdown of `replica` over `[from, until)`.
    pub fn slowdown(mut self, replica: usize, factor: f64, from: SimTime, until: SimTime) -> Self {
        self.events.push(FaultEvent::TransientSlowdown {
            replica,
            factor,
            from,
            until,
        });
        self
    }

    /// Schedules a dispatch stall of `stage` over `[from, until)`.
    pub fn stall(mut self, stage: usize, from: SimTime, until: SimTime) -> Self {
        self.events
            .push(FaultEvent::StageStall { stage, from, until });
        self
    }

    /// Schedules a recovery of `replica` at `at`.
    pub fn recover(mut self, replica: usize, at: SimTime) -> Self {
        self.events
            .push(FaultEvent::DelayedRecovery { replica, at });
        self
    }

    /// Schedules an outage of the link out of `from_stage` over
    /// `[from, until)`.
    pub fn link_down(mut self, from_stage: usize, from: SimTime, until: SimTime) -> Self {
        self.events.push(FaultEvent::LinkDown {
            from_stage,
            from,
            until,
        });
        self
    }

    /// Schedules a watchdog-invisible `factor`× gray degradation of
    /// `replica` over `[from, until)`.
    pub fn gray(mut self, replica: usize, factor: f64, from: SimTime, until: SimTime) -> Self {
        self.events.push(FaultEvent::GrayDegradation {
            replica,
            factor,
            from,
            until,
        });
        self
    }

    /// Schedules a correlated crash of every replica in `domain` at
    /// `at` — one rack/switch/PDU event, many simultaneous crashes.
    pub fn crash_domain(mut self, domain: &FaultDomain, at: SimTime) -> Self {
        for &replica in &domain.gpus {
            self.events.push(FaultEvent::ReplicaCrash { replica, at });
        }
        self
    }

    /// Schedules a correlated recovery of every replica in `domain` at
    /// `at`.
    pub fn recover_domain(mut self, domain: &FaultDomain, at: SimTime) -> Self {
        for &replica in &domain.gpus {
            self.events
                .push(FaultEvent::DelayedRecovery { replica, at });
        }
        self
    }

    /// Schedules a correlated `factor`× slowdown of every replica in
    /// `domain` over `[from, until)`.
    pub fn slowdown_domain(
        mut self,
        domain: &FaultDomain,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        for &replica in &domain.gpus {
            self.events.push(FaultEvent::TransientSlowdown {
                replica,
                factor,
                from,
                until,
            });
        }
        self
    }

    /// Schedules a correlated gray degradation of every replica in
    /// `domain` over `[from, until)`.
    pub fn gray_domain(
        mut self,
        domain: &FaultDomain,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        for &replica in &domain.gpus {
            self.events.push(FaultEvent::GrayDegradation {
                replica,
                factor,
                from,
                until,
            });
        }
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Replicas crashed by this plan that never receive a
    /// [`FaultEvent::DelayedRecovery`] afterwards — the set the control
    /// loop must treat as permanently lost when it re-plans.
    pub fn permanently_crashed(&self) -> Vec<usize> {
        let mut lost: Vec<usize> = Vec::new();
        for e in &self.events {
            if let FaultEvent::ReplicaCrash { replica, at } = e {
                let recovered = self.events.iter().any(|o| {
                    matches!(o, FaultEvent::DelayedRecovery { replica: r, at: t }
                             if r == replica && t >= at)
                });
                if !recovered && !lost.contains(replica) {
                    lost.push(*replica);
                }
            }
        }
        lost
    }

    /// Checks the plan against a deployment's shape.
    ///
    /// # Panics
    ///
    /// Panics when a fault names a replica `>= num_replicas` or a stage
    /// `>= num_stages`, when a window has `until < from`, or when a
    /// slowdown factor is not positive — all of which would make the
    /// fault silently inert or non-causal.
    pub fn validate(&self, num_replicas: usize, num_stages: usize) {
        for e in &self.events {
            if let Some(r) = e.replica() {
                assert!(
                    r < num_replicas,
                    "fault targets replica {r} but the deployment has {num_replicas}"
                );
            }
            if let Some(s) = e.stage() {
                assert!(
                    s < num_stages,
                    "fault targets stage {s} but the deployment has {num_stages}"
                );
            }
            match e {
                FaultEvent::TransientSlowdown {
                    factor,
                    from,
                    until,
                    ..
                }
                | FaultEvent::GrayDegradation {
                    factor,
                    from,
                    until,
                    ..
                } => {
                    assert!(*factor > 0.0, "slowdown factor must be positive");
                    assert!(until >= from, "slowdown window ends before it starts");
                }
                FaultEvent::StageStall { from, until, .. } => {
                    assert!(until >= from, "stall window ends before it starts");
                }
                FaultEvent::LinkDown {
                    from_stage,
                    from,
                    until,
                } => {
                    assert!(
                        from_stage + 1 < num_stages,
                        "link-down fault targets stage {from_stage}, which has no outbound link"
                    );
                    assert!(until >= from, "link-down window ends before it starts");
                }
                _ => {}
            }
        }
    }
}

/// Why a replica was excluded from assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionReason {
    /// The straggler policy flagged it.
    Straggler,
    /// An injected [`FaultEvent::ReplicaCrash`].
    Crash,
    /// The replica's circuit breaker opened (health-estimator trip).
    Breaker,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn builder_accumulates_in_order() {
        let plan = FaultPlan::new()
            .crash(2, ms(10))
            .slowdown(1, 4.0, ms(5), ms(50))
            .stall(0, ms(20), ms(30))
            .recover(2, ms(40));
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.events()[0].replica(), Some(2));
        assert_eq!(plan.events()[2].stage(), Some(0));
        assert_eq!(plan.events()[1].starts_at(), ms(5));
        assert!(!plan.is_empty());
    }

    #[test]
    fn permanently_crashed_respects_recovery() {
        let plan = FaultPlan::new()
            .crash(0, ms(10))
            .crash(1, ms(10))
            .recover(1, ms(20));
        assert_eq!(plan.permanently_crashed(), vec![0]);
        // A recovery *before* the crash does not save the replica.
        let early = FaultPlan::new().recover(3, ms(1)).crash(3, ms(10));
        assert_eq!(early.permanently_crashed(), vec![3]);
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        FaultPlan::new()
            .crash(0, ms(1))
            .slowdown(1, 2.0, ms(1), ms(2))
            .stall(1, ms(3), ms(4))
            .validate(2, 2);
        FaultPlan::new().validate(0, 0); // empty plan fits anything
    }

    #[test]
    #[should_panic(expected = "targets replica")]
    fn validate_rejects_out_of_range_replica() {
        FaultPlan::new().crash(5, ms(1)).validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "targets stage")]
    fn validate_rejects_out_of_range_stage() {
        FaultPlan::new().stall(3, ms(1), ms(2)).validate(8, 2);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn validate_rejects_nonpositive_factor() {
        FaultPlan::new()
            .slowdown(0, 0.0, ms(1), ms(2))
            .validate(1, 1);
    }

    #[test]
    fn link_down_is_stage_scoped() {
        let plan = FaultPlan::new().link_down(0, ms(5), ms(25));
        assert_eq!(plan.events()[0].stage(), Some(0));
        assert_eq!(plan.events()[0].replica(), None);
        assert_eq!(plan.events()[0].starts_at(), ms(5));
        plan.validate(4, 2);
    }

    #[test]
    #[should_panic(expected = "no outbound link")]
    fn validate_rejects_link_down_on_last_stage() {
        FaultPlan::new().link_down(1, ms(1), ms(2)).validate(4, 2);
    }

    #[test]
    fn gray_degradation_is_replica_scoped_and_validated() {
        let plan = FaultPlan::new().gray(2, 1.8, ms(5), ms(50));
        assert_eq!(plan.events()[0].replica(), Some(2));
        assert_eq!(plan.events()[0].starts_at(), ms(5));
        plan.validate(3, 1);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn validate_rejects_nonpositive_gray_factor() {
        FaultPlan::new().gray(0, 0.0, ms(1), ms(2)).validate(1, 1);
    }

    #[test]
    fn domain_builders_expand_to_correlated_replica_sets() {
        use e3_hardware::{ClusterSpec, DomainTopology, GpuKind};
        // 6 GPUs / 3 machines; racks of 2 machines -> rack 0 = GPUs 0..4.
        let c = ClusterSpec::homogeneous(GpuKind::V100, 6, 2);
        let t = DomainTopology::derive(&c, 2);
        let rack0 = &t.racks()[0];
        let plan = FaultPlan::new()
            .crash_domain(rack0, ms(10))
            .recover_domain(rack0, ms(100));
        assert_eq!(plan.len(), 2 * rack0.num_gpus());
        // All crashes land at the same instant on the rack's replicas.
        let crashed: Vec<usize> = plan
            .events()
            .iter()
            .filter_map(|e| match e {
                FaultEvent::ReplicaCrash { replica, at } if *at == ms(10) => Some(*replica),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, rack0.gpus);
        assert!(plan.permanently_crashed().is_empty());
        plan.validate(6, 1);
        // Correlated slow + gray expand the same way.
        let slow = FaultPlan::new()
            .slowdown_domain(rack0, 2.0, ms(1), ms(9))
            .gray_domain(rack0, 1.5, ms(1), ms(9));
        assert_eq!(slow.len(), 2 * rack0.num_gpus());
        slow.validate(6, 1);
    }
}
