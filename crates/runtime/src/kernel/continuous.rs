//! Continuous batching for autoregressive serving (§5.1.3, figs. 10–12).
//!
//! Generative models run their decoder once per output token, so batch
//! membership must be renegotiated *every iteration*: sequences that
//! finish (or exit early) leave the running batch immediately and queued
//! sequences join mid-flight. [`ContinuousBatching`] is that discipline
//! expressed as a [`BatchingPolicy`] — a buffer that never waits — and
//! [`run_continuous`] is the iteration-level driver built on the kernel's
//! primitives: the same [`EventQueue`] and clock, the typed
//! [`KernelEvent`] observer stream, the deterministic [`FaultPlan`]
//! vocabulary, and the [`RunAccumulator`] fold that turns the stream it
//! emits into the run's [`RunReport`].
//!
//! The driver also owns the runtime half of the KV-cache model
//! ([`e3_hardware::KvCacheSpec`] supplies the capacity math): every
//! generated token pins one more cache token on its sequence's replica,
//! admission is refused when a joiner's cache cannot fit, and overflow
//! preempts the youngest resident sequence — releasing its cache and
//! re-queuing it with a rebuild debt that is repaid by recomputation or a
//! PCIe swap-in when it rejoins. Both transitions are narrated through
//! [`KernelEvent::KvAdmitted`] / [`KernelEvent::KvPreempted`].
//!
//! Two join disciplines are supported so the window-batching baselines of
//! figs. 10–12 run through the same loop:
//!
//! * [`JoinPolicy::Continuous`] — vLLM/Orca-style: free slots refill at
//!   every iteration boundary;
//! * [`JoinPolicy::Window`] — the legacy discipline: a replica admits a
//!   window of sequences, serves it to completion (optionally padding
//!   finished members at full width, the vanilla-static baseline), and
//!   only then admits the next window.
//!
//! An optional decoder split at `boundary` models E3: tokens surviving
//! the boundary transfer to a second stage group where full batches are
//! re-fused before the deep layers and the lm-head run.

use std::collections::VecDeque;

use e3_hardware::{GpuKind, LatencyModel, LinkKind};
use e3_model::{EeModel, RampController};
use e3_simcore::{EventQueue, SimDuration, SimTime};

use super::accounting::{completion, RunAccumulator};
use super::faults::{ExclusionReason, FaultEvent, FaultPlan};
use super::observer::{KernelEvent, RunObserver};
use super::policy::BatchingPolicy;
use crate::batch::{Batch, FusionBuffer};
use crate::report::RunReport;
use crate::sample::SimSample;

/// Iteration-level batching: a per-stage buffer that *never waits*.
///
/// Whatever is queued when the scheduler asks is dispatched immediately
/// (up to the stage's target width); there is no flush deadline because
/// nothing is ever held back. Plugged into the generic kernel it turns
/// batch formation eager; the continuous driver uses it as the admission
/// queue that sequences join from and are preempted back onto.
#[derive(Debug, Clone)]
pub struct ContinuousBatching {
    queues: Vec<VecDeque<(SimSample, SimTime)>>,
    targets: Vec<usize>,
}

impl ContinuousBatching {
    /// Creates per-stage queues dispatching at most `targets[s]` samples
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics if any target is zero.
    pub fn new(targets: &[usize]) -> Self {
        assert!(targets.iter().all(|&t| t >= 1), "batch target must be >= 1");
        ContinuousBatching {
            queues: targets.iter().map(|_| VecDeque::new()).collect(),
            targets: targets.to_vec(),
        }
    }

    /// Removes and returns up to `n` samples from `stage`, oldest first.
    pub fn take_up_to(&mut self, stage: usize, n: usize, _now: SimTime) -> Vec<SimSample> {
        let take = self.queues[stage].len().min(n);
        self.queues[stage].drain(..take).map(|(s, _)| s).collect()
    }

    /// Removes and returns the oldest queued sample of `stage`, if any —
    /// the allocation-free single-admission path.
    pub fn take_front(&mut self, stage: usize) -> Option<SimSample> {
        self.queues[stage].pop_front().map(|(s, _)| s)
    }

    /// Re-queues a sample at the *front* of `stage` — preempted sequences
    /// resume before fresh arrivals.
    pub fn push_front(&mut self, stage: usize, sample: SimSample, now: SimTime) {
        self.queues[stage].push_front((sample, now));
    }

    /// Queued samples at `stage`.
    pub fn len(&self, stage: usize) -> usize {
        self.queues[stage].len()
    }
}

impl BatchingPolicy for ContinuousBatching {
    fn push(&mut self, stage: usize, sample: SimSample, now: SimTime) {
        self.queues[stage].push_back((sample, now));
    }

    fn take_full(&mut self, stage: usize, now: SimTime) -> Option<Batch> {
        if self.queues[stage].is_empty() {
            return None;
        }
        let samples = self.take_up_to(stage, self.targets[stage], now);
        Some(Batch {
            samples,
            formed_at: now,
        })
    }

    fn take_due(&mut self, _stage: usize, _now: SimTime) -> Option<Batch> {
        // Nothing ever waits: `take_full` already drains eagerly.
        None
    }

    fn next_flush_at(&self, _stage: usize, _now: SimTime) -> Option<SimTime> {
        None
    }

    fn is_empty(&self, stage: usize) -> bool {
        self.queues[stage].is_empty()
    }
}

/// When queued sequences may join a replica's running batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPolicy {
    /// Join at any iteration boundary with a free slot (continuous
    /// batching).
    Continuous,
    /// Join only when the replica's previous window has fully drained.
    /// With `padded`, finished members keep burning compute at full
    /// window width until the longest member ends (vanilla static
    /// batching); without it, exits shrink the per-layer widths but the
    /// freed slots still cannot be refilled mid-window.
    Window {
        /// Charge every iteration at the full window width.
        padded: bool,
    },
}

/// How a preempted sequence's KV cache is rebuilt when it rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMode {
    /// Re-run the decoder prefix over the generated tokens (prefill).
    Recompute,
    /// Swap the cache out to host memory over PCIe and back in on rejoin.
    Swap,
}

/// Per-replica KV-cache budget, as planned from device memory
/// (see [`e3_hardware::MemoryFootprint::kv_capacity_tokens`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvPlan {
    /// Cache tokens one replica may keep resident.
    pub capacity_tokens: usize,
    /// Cache bytes per token (swap-cost accounting).
    pub bytes_per_token: f64,
    /// Rebuild mechanism under preemption.
    pub mode: PreemptMode,
}

/// One output token's materialized journey through the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenJourney {
    /// Absolute layers this token executes (including any encoder
    /// prefix); the model's layer count when it never exits.
    pub layers_executed: usize,
}

/// One request: an id, an arrival, and its materialized token journeys.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceSpec {
    /// Request id (reported in the event stream).
    pub id: u64,
    /// Arrival at the frontend.
    pub arrival: SimTime,
    /// Per-token journeys, drawn once at ingest.
    pub tokens: Vec<TokenJourney>,
}

/// Configuration of one continuous-batching run.
pub struct ContinuousConfig<'a> {
    /// The autoregressive model served.
    pub model: &'a EeModel,
    /// Ramp mask: which exit ramps pay their cost.
    pub ctrl: &'a RampController,
    /// Device kind (homogeneous across replicas).
    pub gpu: GpuKind,
    /// Latency model.
    pub lm: &'a LatencyModel,
    /// Join discipline.
    pub join: JoinPolicy,
    /// Target token-batch width per replica.
    pub b0: usize,
    /// Stage-A replicas (encoder + decoder layers up to the boundary).
    pub replicas_a: usize,
    /// Decoder split boundary (absolute layer index). `None` = single
    /// stage running the whole model.
    pub boundary: Option<usize>,
    /// Stage-B replicas (boundary..end plus the lm-head). Must be zero
    /// iff `boundary` is `None`.
    pub replicas_b: usize,
    /// E3-style deferred exits: per-ramp device-host syncs are skipped
    /// and one batch re-formation is paid at the boundary.
    pub deferred_exits: bool,
    /// Finite per-replica KV budget; `None` disables cache accounting.
    pub kv: Option<KvPlan>,
    /// SLO for goodput accounting.
    pub slo: SimDuration,
    /// Deterministic fault schedule.
    pub fault_plan: FaultPlan,
    /// Stage-B fusion wait before a partial batch dispatches; `None`
    /// derives it from one full-width stage-A pass.
    pub b_max_wait: Option<SimDuration>,
}

/// What one continuous run produced beyond the standard report.
#[derive(Debug, Clone)]
pub struct ContinuousOutcome {
    /// The standard run metrics (goodput, latency, tokens, preemptions).
    pub report: RunReport,
    /// Tokens that crossed the decoder split into stage B.
    pub boundary_crossings: u64,
    /// Sequences left unfinished when the event queue drained (only
    /// non-zero when faults permanently removed every usable replica).
    pub leftover: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SState {
    Queued,
    Running { home: usize },
    Blocked { home: Option<usize> },
    Done,
}

#[derive(Debug, Clone)]
struct SeqRt {
    next_token: usize,
    kv_tokens: usize,
    debt: usize,
    encoded: bool,
    state: SState,
}

struct Rep {
    stage: usize,
    resident: Vec<usize>,
    pass: Vec<usize>,
    bpass: Vec<SimSample>,
    pass_width: f64,
    busy: bool,
    epoch: u32,
    crashed: bool,
    kv_used: usize,
    transient: Vec<f64>,
    carry: SimDuration,
}

#[derive(Debug, Clone)]
enum CEv {
    StepDone { replica: usize, epoch: u32 },
    BFlush,
    Fault(FaultAction),
}

#[derive(Debug, Clone)]
enum FaultAction {
    Apply(FaultEvent),
    ExpireSlowdown { replica: usize, factor: f64 },
    ExpireStall { stage: usize },
    ExpireLink,
}

struct Driver<'a, 'o> {
    cfg: &'a ContinuousConfig<'a>,
    specs: &'a [SequenceSpec],
    rt: Vec<SeqRt>,
    reps: Vec<Rep>,
    pool: ContinuousBatching,
    bbuf: FusionBuffer,
    held: Vec<SimSample>,
    link_down: bool,
    stall: [bool; 2],
    q: EventQueue<CEv>,
    /// The report fold; fed every event by [`Driver::emit`].
    acc: RunAccumulator,
    obs: &'o mut dyn RunObserver,
    crossings: u64,
    enc: usize,
    cut: usize,
    bwait: SimDuration,
    /// Reused per-layer width histogram (see `try_start_a`).
    width_scratch: Vec<usize>,
}

/// Runs closed-loop continuous batching over `specs` and narrates it to
/// `observer`.
///
/// # Panics
///
/// Panics on inconsistent configuration: zero replicas or batch, a
/// boundary outside the decoder, stage-B replicas without a boundary, a
/// windowed two-stage layout, or a fault plan that does not fit the
/// replica/stage shape.
pub fn run_continuous(
    cfg: &ContinuousConfig<'_>,
    specs: &[SequenceSpec],
    observer: &mut dyn RunObserver,
) -> ContinuousOutcome {
    let ar = cfg.model.autoreg().expect("autoregressive model required");
    let enc = ar.encoder_layers;
    let two_stage = cfg.boundary.is_some();
    let cut = cfg.boundary.unwrap_or_else(|| cfg.model.num_layers());
    assert!(cfg.replicas_a >= 1 && cfg.b0 >= 1, "empty deployment");
    assert!(
        two_stage == (cfg.replicas_b > 0),
        "stage-B replicas iff a boundary is set"
    );
    if two_stage {
        assert!(
            cut > enc && cut < cfg.model.num_layers(),
            "boundary must cut the decoder"
        );
        assert!(
            cfg.join == JoinPolicy::Continuous,
            "window batching is single-stage"
        );
    }
    let num_stages = 1 + usize::from(two_stage);
    let num_replicas = cfg.replicas_a + cfg.replicas_b;
    cfg.fault_plan.validate(num_replicas, num_stages);

    let rt = specs
        .iter()
        .map(|s| {
            assert!(!s.tokens.is_empty(), "sequence without tokens");
            SeqRt {
                next_token: 0,
                kv_tokens: 0,
                debt: 0,
                encoded: false,
                state: SState::Queued,
            }
        })
        .collect();
    let reps = (0..num_replicas)
        .map(|i| Rep {
            stage: usize::from(i >= cfg.replicas_a),
            resident: Vec::new(),
            pass: Vec::new(),
            bpass: Vec::new(),
            pass_width: 0.0,
            busy: false,
            epoch: 0,
            crashed: false,
            kv_used: 0,
            transient: Vec::new(),
            carry: SimDuration::ZERO,
        })
        .collect();

    let mut d = Driver {
        cfg,
        specs,
        rt,
        reps,
        pool: ContinuousBatching::new(&[cfg.b0]),
        bbuf: FusionBuffer::new(cfg.b0),
        held: Vec::new(),
        link_down: false,
        stall: [false; 2],
        q: EventQueue::new(),
        acc: RunAccumulator::new(num_stages, num_replicas, cfg.slo, false),
        obs: observer,
        crossings: 0,
        enc,
        cut,
        bwait: SimDuration::ZERO,
        width_scratch: Vec::new(),
    };
    // Default stage-B fusion wait: the inter-arrival gap of boundary
    // crossers — one full-width stage-A pass divided by the stage-A
    // replica count (passes interleave) — long enough for the boundary
    // to refill, short enough not to idle B.
    d.bwait = cfg.b_max_wait.unwrap_or_else(|| {
        (enc..cut)
            .fold(SimDuration::ZERO, |acc, k| {
                acc + cfg.lm.layer_time(d.layer_cost(k), cfg.b0 as f64, cfg.gpu)
            })
            .mul_f64(1.0 / cfg.replicas_a as f64)
    });

    for (i, s) in specs.iter().enumerate() {
        d.emit(KernelEvent::Arrival { sample: s.id });
        d.pool.push(0, d.seq_sample(i), s.arrival);
    }
    for ev in cfg.fault_plan.events() {
        d.q.schedule(ev.starts_at(), CEv::Fault(FaultAction::Apply(*ev)));
    }
    d.kick_stage_a();

    while let Some(ev) = d.q.pop() {
        match ev.event {
            CEv::StepDone { replica, epoch } => d.on_step_done(replica, epoch),
            CEv::BFlush => d.try_start_b(),
            CEv::Fault(action) => d.on_fault(action),
        }
    }

    let duration = d.q.now().saturating_since(SimTime::ZERO);
    let leftover = d.rt.iter().filter(|s| s.state != SState::Done).count() as u64;
    ContinuousOutcome {
        report: d.acc.finish(duration),
        boundary_crossings: d.crossings,
        leftover,
    }
}

impl Driver<'_, '_> {
    fn layer_cost(&self, k: usize) -> f64 {
        let l = self.cfg.model.layers()[k];
        l.work_us + l.fixed_us
    }

    fn ramp_cost(&self, ri: usize) -> f64 {
        let r = self.cfg.model.ramps()[ri];
        r.work_us + r.fixed_us
    }

    fn head_cost(&self) -> f64 {
        let h = self.cfg.model.autoreg().expect("autoreg").lm_head;
        h.work_us + h.fixed_us
    }

    fn two_stage(&self) -> bool {
        self.cfg.boundary.is_some()
    }

    fn seq_sample(&self, idx: usize) -> SimSample {
        let s = &self.specs[idx];
        SimSample {
            id: idx as u64,
            arrival: s.arrival,
            layers_executed: 0,
            exited_at_ramp: None,
            correct: true,
            output_tokens: s.tokens.len() as u32,
        }
    }

    /// The driver's one emission path: the report fold first, then the
    /// caller's observer.
    fn emit(&mut self, ev: KernelEvent) {
        let now = self.q.now();
        self.acc.on_event(now, &ev);
        self.obs.on_event(now, &ev);
    }

    fn kick_stage_a(&mut self) {
        for r in 0..self.cfg.replicas_a {
            self.try_start_a(r);
        }
    }

    /// KV headroom check for admitting sequence `idx` onto replica `r`.
    fn kv_admits(&self, r: usize, idx: usize) -> bool {
        let Some(kv) = self.cfg.kv else { return true };
        // A replica with nothing resident always admits one sequence —
        // otherwise a long sequence could never run at all. It may
        // overcommit; preemption cannot shrink a lone runner.
        if self.reps[r].resident.is_empty() {
            return true;
        }
        // Admission needs room for the accumulated debt plus the next
        // token: used + debt + 1 <= capacity.
        self.reps[r].kv_used + self.rt[idx].debt < kv.capacity_tokens
    }

    fn admit_to(&mut self, r: usize, idx: usize) {
        let id = self.specs[idx].id;
        let debt = self.rt[idx].debt;
        self.rt[idx].state = SState::Running { home: r };
        self.rt[idx].kv_tokens = debt;
        self.reps[r].resident.push(idx);
        self.reps[r].kv_used += debt;
        self.emit(KernelEvent::SequenceJoined {
            replica: r,
            sample: id,
        });
        if self.cfg.kv.is_some() {
            let resident_tokens = self.reps[r].kv_used;
            self.emit(KernelEvent::KvAdmitted {
                replica: r,
                sample: id,
                resident_tokens,
            });
        }
    }

    /// Sequences currently running on `r`, in resident order. Counting
    /// (not collecting) keeps the admission loop allocation-free.
    fn running_count(&self, r: usize) -> usize {
        self.reps[r]
            .resident
            .iter()
            .filter(|&&i| self.rt[i].state == SState::Running { home: r })
            .count()
    }

    fn try_start_a(&mut self, r: usize) {
        if self.reps[r].busy || self.reps[r].crashed || self.stall[0] {
            return;
        }
        // Admission: refill free slots from the pool.
        match self.cfg.join {
            JoinPolicy::Continuous => {
                while self.running_count(r) < self.cfg.b0 && self.pool.len(0) > 0 {
                    let idx = self.pool.queues_peek_front();
                    if !self.kv_admits(r, idx) {
                        break;
                    }
                    let s = self.pool.take_front(0).expect("peeked nonempty");
                    debug_assert_eq!(s.id as usize, idx);
                    self.admit_to(r, idx);
                }
            }
            JoinPolicy::Window { .. } => {
                if self.reps[r].resident.is_empty() {
                    while self.reps[r].resident.len() < self.cfg.b0 && self.pool.len(0) > 0 {
                        let idx = self.pool.queues_peek_front();
                        if !self.kv_admits(r, idx) {
                            break;
                        }
                        let _ = self.pool.take_front(0);
                        self.admit_to(r, idx);
                    }
                }
            }
        }
        // Reuse the replica's pass buffer across steps: the scheduler's
        // inner loop allocates nothing in steady state.
        let mut pass = std::mem::take(&mut self.reps[r].pass);
        pass.clear();
        pass.extend(
            self.reps[r]
                .resident
                .iter()
                .copied()
                .filter(|&i| self.rt[i].state == SState::Running { home: r }),
        );
        pass.truncate(self.cfg.b0);
        if pass.is_empty() {
            self.reps[r].pass = pass;
            return;
        }

        // Pass cost: encoder for fresh joiners, prefill/swap-in for
        // rebuild debts, then the decoder layers at per-layer surviving
        // widths (or padded window width).
        let padded_width = match self.cfg.join {
            JoinPolicy::Window { padded: true } => Some(self.reps[r].resident.len() as f64),
            _ => None,
        };
        let mut cost = self.reps[r].carry;
        self.reps[r].carry = SimDuration::ZERO;
        let joiners = pass
            .iter()
            .filter(|&&i| !self.rt[i].encoded && self.rt[i].debt == 0)
            .count();
        if joiners > 0 {
            for k in 0..self.enc {
                cost += self
                    .cfg
                    .lm
                    .layer_time(self.layer_cost(k), joiners as f64, self.cfg.gpu);
            }
        }
        for &i in &pass {
            self.rt[i].encoded = true;
            let debt = self.rt[i].debt;
            if debt > 0 {
                match self.cfg.kv.map(|kv| kv.mode) {
                    Some(PreemptMode::Swap) => {
                        let bytes = self.cfg.kv.expect("kv").bytes_per_token * debt as f64;
                        cost += LinkKind::Pcie.transfer_time(bytes as u64);
                    }
                    _ => {
                        // Prefill: one pass over the stage's layers with
                        // the rebuilt positions batched together.
                        for k in self.enc..self.cut {
                            cost += self.cfg.lm.layer_time(
                                self.layer_cost(k),
                                debt as f64,
                                self.cfg.gpu,
                            );
                        }
                    }
                }
                self.rt[i].debt = 0;
            }
        }
        let mut crossers = 0usize;
        // One-pass width histogram: bucket members by clamped executed
        // depth, then suffix-sum so `widths[j]` counts members still
        // active entering layer `enc + j`. Same integers as filtering
        // the pass per layer, without the O(layers × batch) rescan.
        let span = self.cut - self.enc;
        let mut widths = std::mem::take(&mut self.width_scratch);
        widths.clear();
        widths.resize(span + 1, 0);
        for &i in &pass {
            let tl = self.token_layers(i).clamp(self.enc, self.cut) - self.enc;
            widths[tl] += 1;
        }
        for j in (0..span).rev() {
            widths[j] += widths[j + 1];
        }
        for k in self.enc..self.cut {
            let active = widths[k - self.enc + 1] as f64;
            let width = padded_width.unwrap_or(active);
            if width <= 0.0 {
                continue;
            }
            cost += self
                .cfg
                .lm
                .layer_time(self.layer_cost(k), width, self.cfg.gpu);
            if let Some(ri) = self.cfg.model.ramp_after(k) {
                if self.cfg.ctrl.pays_cost_at(ri) {
                    cost += self
                        .cfg
                        .lm
                        .layer_time(self.ramp_cost(ri), width, self.cfg.gpu);
                    if !self.cfg.deferred_exits {
                        cost += self.cfg.lm.exit.reform_time(width);
                    }
                }
            }
        }
        self.width_scratch = widths;
        if self.two_stage() {
            crossers = pass
                .iter()
                .filter(|&&i| self.token_layers(i) > self.cut)
                .count();
            if self.cfg.deferred_exits && crossers > 0 {
                cost += self.cfg.lm.exit.reform_time(crossers as f64);
            }
        } else {
            let full = self.cfg.model.num_layers();
            let finishers = pass
                .iter()
                .filter(|&&i| self.token_layers(i) == full)
                .count() as f64;
            let head_width = padded_width.unwrap_or(finishers);
            if head_width > 0.0 {
                cost += self
                    .cfg
                    .lm
                    .layer_time(self.head_cost(), head_width, self.cfg.gpu);
            }
        }
        let _ = crossers;
        for f in &self.reps[r].transient {
            cost = cost.mul_f64(*f);
        }

        let width = padded_width.unwrap_or(pass.len() as f64);
        self.emit(KernelEvent::Dispatched {
            stage: 0,
            width,
            queued: None,
        });
        self.emit(KernelEvent::ExecStart {
            replica: r,
            stage: 0,
            size: pass.len() as u32,
            busy: cost,
            occupancy: self.cfg.lm.occupancy(width, self.cfg.gpu),
        });
        self.reps[r].pass = pass;
        self.reps[r].pass_width = width;
        self.reps[r].busy = true;
        let epoch = self.reps[r].epoch;
        self.q
            .schedule_after(cost, CEv::StepDone { replica: r, epoch });
    }

    fn token_layers(&self, idx: usize) -> usize {
        self.specs[idx].tokens[self.rt[idx].next_token].layers_executed
    }

    fn complete_seq(&mut self, idx: usize) {
        let spec = &self.specs[idx];
        let last_layers = spec.tokens.last().expect("nonempty").layers_executed;
        let s = SimSample {
            id: spec.id,
            arrival: spec.arrival,
            layers_executed: last_layers,
            exited_at_ramp: None,
            correct: true,
            output_tokens: spec.tokens.len() as u32,
        };
        self.rt[idx].state = SState::Done;
        self.emit(completion(&s, self.q.now(), self.cfg.slo));
    }

    fn free_kv(&mut self, idx: usize, home: usize) {
        let t = self.rt[idx].kv_tokens;
        self.reps[home].kv_used -= t;
        self.rt[idx].kv_tokens = 0;
    }

    fn on_step_done(&mut self, r: usize, epoch: u32) {
        if self.reps[r].epoch != epoch || !self.reps[r].busy {
            return; // stale: the replica crashed since this was scheduled
        }
        if self.reps[r].stage == 1 {
            self.on_b_done(r);
            return;
        }
        self.reps[r].busy = false;
        self.emit(KernelEvent::ExecDone {
            replica: r,
            stage: 0,
            size: self.reps[r].pass_width as usize,
        });
        // Take the pass buffer out so the loop can mutate `self`; it is
        // cleared and handed back below for the next step to reuse.
        let mut pass = std::mem::take(&mut self.reps[r].pass);
        let mut transfers = 0usize;
        for &idx in &pass {
            let layers = self.token_layers(idx);
            self.rt[idx].kv_tokens += 1;
            self.reps[r].kv_used += 1;
            if self.two_stage() && layers > self.cut {
                self.crossings += 1;
                self.rt[idx].state = SState::Blocked { home: Some(r) };
                let job = SimSample {
                    id: idx as u64,
                    arrival: self.specs[idx].arrival,
                    layers_executed: layers,
                    exited_at_ramp: None,
                    correct: true,
                    output_tokens: 1,
                };
                if self.link_down {
                    self.held.push(job);
                } else {
                    transfers += 1;
                    self.bbuf.push(job, self.q.now());
                }
            } else {
                self.finish_token(idx);
            }
        }
        pass.clear();
        self.reps[r].pass = pass;
        if transfers > 0 {
            self.emit(KernelEvent::StageTransfer {
                from_stage: 0,
                to_stage: 1,
                size: transfers,
            });
            self.q.schedule_after(self.bwait, CEv::BFlush);
        }
        // Window drain: the next window may only form once every member
        // (including finished padding) is done.
        if matches!(self.cfg.join, JoinPolicy::Window { .. })
            && self.reps[r]
                .resident
                .iter()
                .all(|&i| self.rt[i].state == SState::Done)
        {
            for idx in std::mem::take(&mut self.reps[r].resident) {
                let id = self.specs[idx].id;
                self.emit(KernelEvent::SequenceLeft {
                    replica: r,
                    sample: id,
                });
            }
        }
        self.preempt_overflow(r);
        self.try_start_a(r);
        self.try_start_b();
        self.kick_stage_a();
    }

    /// Finishes sequence `idx`'s current token on its home replica, and
    /// the whole sequence when it was the last one.
    fn finish_token(&mut self, idx: usize) {
        let id = self.specs[idx].id;
        let index = self.rt[idx].next_token as u32;
        self.emit(KernelEvent::TokenGenerated { sample: id, index });
        self.rt[idx].next_token += 1;
        if self.rt[idx].next_token == self.specs[idx].tokens.len() {
            let home = match self.rt[idx].state {
                SState::Running { home } => Some(home),
                SState::Blocked { home } => home,
                _ => None,
            };
            if let Some(h) = home {
                self.free_kv(idx, h);
                if self.cfg.join == JoinPolicy::Continuous {
                    self.reps[h].resident.retain(|&i| i != idx);
                    self.emit(KernelEvent::SequenceLeft {
                        replica: h,
                        sample: id,
                    });
                }
            }
            self.complete_seq(idx);
        }
    }

    /// Preempts youngest-resident running sequences until the replica's
    /// cache fits its budget again. The oldest runner is never preempted
    /// (a lone sequence may overcommit); blocked sequences are skipped —
    /// their in-flight token is already at stage B.
    fn preempt_overflow(&mut self, r: usize) {
        let Some(kv) = self.cfg.kv else { return };
        while self.reps[r].kv_used > kv.capacity_tokens {
            // Youngest runner = last running entry in resident order.
            let mut count = 0usize;
            let mut last = None;
            for &i in &self.reps[r].resident {
                if self.rt[i].state == (SState::Running { home: r }) {
                    count += 1;
                    last = Some(i);
                }
            }
            if count <= 1 {
                break;
            }
            let victim = last.expect("nonempty");
            let id = self.specs[victim].id;
            let tokens = self.rt[victim].kv_tokens;
            self.free_kv(victim, r);
            self.rt[victim].debt = tokens;
            self.rt[victim].state = SState::Queued;
            self.reps[r].resident.retain(|&i| i != victim);
            if kv.mode == PreemptMode::Swap {
                let bytes = kv.bytes_per_token * tokens as f64;
                self.reps[r].carry += LinkKind::Pcie.transfer_time(bytes as u64);
            }
            self.emit(KernelEvent::KvPreempted {
                replica: r,
                sample: id,
                tokens_freed: tokens,
                swapped: kv.mode == PreemptMode::Swap,
            });
            self.emit(KernelEvent::SequenceLeft {
                replica: r,
                sample: id,
            });
            self.pool
                .push_front(0, self.seq_sample(victim), self.q.now());
        }
    }

    /// True when stage A cannot feed the boundary any further: nothing is
    /// queued and every unfinished sequence is blocked at stage B.
    fn draining(&self) -> bool {
        self.pool.is_empty(0)
            && self
                .rt
                .iter()
                .all(|s| matches!(s.state, SState::Done | SState::Blocked { .. }))
    }

    fn try_start_b(&mut self) {
        if !self.two_stage() {
            return;
        }
        for r in self.cfg.replicas_a..self.reps.len() {
            if self.reps[r].busy || self.reps[r].crashed || self.stall[1] {
                continue;
            }
            let now = self.q.now();
            // A partial batch is due after the fusion wait — or at once
            // when stage A can produce no further crossers (drain mode:
            // every unfinished sequence is already at the boundary).
            let due = self
                .bbuf
                .oldest_enqueue()
                .is_some_and(|t| now >= t + self.bwait)
                || self.draining();
            let Some(batch) = self.bbuf.take_full(now).or_else(|| {
                if due {
                    self.bbuf.take_partial(now)
                } else {
                    None
                }
            }) else {
                break;
            };
            let size = batch.len();
            self.emit(KernelEvent::BatchFormed {
                stage: 1,
                size,
                partial: size < self.cfg.b0,
            });
            let mut cost = SimDuration::ZERO;
            for k in self.cut..self.cfg.model.num_layers() {
                let active = batch
                    .samples
                    .iter()
                    .filter(|j| j.layers_executed > k)
                    .count() as f64;
                if active <= 0.0 {
                    continue;
                }
                cost += self
                    .cfg
                    .lm
                    .layer_time(self.layer_cost(k), active, self.cfg.gpu);
                if let Some(ri) = self.cfg.model.ramp_after(k) {
                    if self.cfg.ctrl.pays_cost_at(ri) {
                        cost += self
                            .cfg
                            .lm
                            .layer_time(self.ramp_cost(ri), active, self.cfg.gpu);
                        if !self.cfg.deferred_exits {
                            cost += self.cfg.lm.exit.reform_time(active);
                        }
                    }
                }
            }
            cost += self
                .cfg
                .lm
                .layer_time(self.head_cost(), size as f64, self.cfg.gpu);
            for f in &self.reps[r].transient {
                cost = cost.mul_f64(*f);
            }
            self.emit(KernelEvent::Dispatched {
                stage: 1,
                width: size as f64,
                queued: None,
            });
            self.emit(KernelEvent::ExecStart {
                replica: r,
                stage: 1,
                size: size as u32,
                busy: cost,
                occupancy: self.cfg.lm.occupancy(size as f64, self.cfg.gpu),
            });
            self.reps[r].bpass = batch.samples;
            self.reps[r].pass_width = size as f64;
            self.reps[r].busy = true;
            let epoch = self.reps[r].epoch;
            self.q
                .schedule_after(cost, CEv::StepDone { replica: r, epoch });
        }
    }

    fn on_b_done(&mut self, r: usize) {
        self.reps[r].busy = false;
        self.emit(KernelEvent::ExecDone {
            replica: r,
            stage: 1,
            size: self.reps[r].pass_width as usize,
        });
        let jobs = std::mem::take(&mut self.reps[r].bpass);
        for job in jobs {
            let idx = job.id as usize;
            let home = match self.rt[idx].state {
                SState::Blocked { home } => home,
                _ => None,
            };
            self.finish_token(idx);
            if self.rt[idx].state == SState::Done {
                continue;
            }
            match home {
                Some(h) if !self.reps[h].crashed => {
                    self.rt[idx].state = SState::Running { home: h };
                }
                _ => {
                    // The home replica crashed while this token was in
                    // flight: its cache is gone; rebuild on rejoin.
                    self.rt[idx].debt = self.rt[idx].next_token;
                    self.rt[idx].kv_tokens = 0;
                    self.rt[idx].state = SState::Queued;
                    self.pool.push_front(0, self.seq_sample(idx), self.q.now());
                }
            }
        }
        self.try_start_b();
        self.kick_stage_a();
    }

    fn on_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::Apply(ev) => self.apply_fault(ev),
            FaultAction::ExpireSlowdown { replica, factor } => {
                let t = &mut self.reps[replica].transient;
                if let Some(pos) = t.iter().position(|f| *f == factor) {
                    t.remove(pos);
                }
            }
            FaultAction::ExpireStall { stage } => {
                self.stall[stage] = false;
                if stage == 0 {
                    self.kick_stage_a();
                } else {
                    self.try_start_b();
                }
            }
            FaultAction::ExpireLink => {
                self.link_down = false;
                let held = std::mem::take(&mut self.held);
                let n = held.len();
                for job in held {
                    self.bbuf.push(job, self.q.now());
                }
                if n > 0 {
                    self.emit(KernelEvent::StageTransfer {
                        from_stage: 0,
                        to_stage: 1,
                        size: n,
                    });
                    self.q.schedule_after(self.bwait, CEv::BFlush);
                }
                self.try_start_b();
            }
        }
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::ReplicaCrash { replica, .. } => {
                if self.reps[replica].crashed {
                    return;
                }
                self.emit(KernelEvent::FaultInjected { fault: ev });
                self.emit(KernelEvent::ReplicaExcluded {
                    replica,
                    reason: ExclusionReason::Crash,
                });
                self.reps[replica].crashed = true;
                self.reps[replica].epoch += 1;
                self.reps[replica].busy = false;
                if self.reps[replica].stage == 0 {
                    self.reps[replica].pass.clear();
                    let resident = std::mem::take(&mut self.reps[replica].resident);
                    // Requeue in reverse so push_front restores join order.
                    for &idx in resident.iter().rev() {
                        match self.rt[idx].state {
                            SState::Done => {}
                            SState::Blocked { .. } => {
                                let t = self.rt[idx].kv_tokens;
                                self.rt[idx].debt = t;
                                self.rt[idx].kv_tokens = 0;
                                self.rt[idx].state = SState::Blocked { home: None };
                            }
                            _ => {
                                let id = self.specs[idx].id;
                                let t = self.rt[idx].kv_tokens;
                                self.rt[idx].debt = t;
                                self.rt[idx].kv_tokens = 0;
                                self.rt[idx].state = SState::Queued;
                                self.emit(KernelEvent::SequenceLeft {
                                    replica,
                                    sample: id,
                                });
                                self.pool.push_front(0, self.seq_sample(idx), self.q.now());
                            }
                        }
                    }
                    self.reps[replica].kv_used = 0;
                    self.kick_stage_a();
                } else {
                    let jobs = std::mem::take(&mut self.reps[replica].bpass);
                    for job in jobs.into_iter().rev() {
                        self.bbuf_push_front(job);
                    }
                    self.try_start_b();
                }
            }
            FaultEvent::TransientSlowdown {
                replica,
                factor,
                until,
                ..
            } => {
                self.emit(KernelEvent::FaultInjected { fault: ev });
                self.reps[replica].transient.push(factor);
                self.q.schedule(
                    until,
                    CEv::Fault(FaultAction::ExpireSlowdown { replica, factor }),
                );
            }
            FaultEvent::StageStall { stage, until, .. } => {
                self.emit(KernelEvent::FaultInjected { fault: ev });
                self.stall[stage] = true;
                self.q
                    .schedule(until, CEv::Fault(FaultAction::ExpireStall { stage }));
            }
            FaultEvent::DelayedRecovery { replica, .. } => {
                if !self.reps[replica].crashed {
                    return;
                }
                self.emit(KernelEvent::FaultInjected { fault: ev });
                self.reps[replica].crashed = false;
                self.emit(KernelEvent::ReplicaRecovered { replica });
                if self.reps[replica].stage == 0 {
                    self.try_start_a(replica);
                } else {
                    self.try_start_b();
                }
            }
            FaultEvent::LinkDown { until, .. } => {
                self.emit(KernelEvent::FaultInjected { fault: ev });
                self.link_down = true;
                self.q.schedule(until, CEv::Fault(FaultAction::ExpireLink));
            }
            FaultEvent::GrayDegradation {
                replica,
                factor,
                until,
                ..
            } => {
                self.emit(KernelEvent::FaultInjected { fault: ev });
                // This driver keeps no self-reported service statistics
                // to fool, so a gray degradation degenerates to a
                // transient slowdown of the same window.
                self.reps[replica].transient.push(factor);
                self.q.schedule(
                    until,
                    CEv::Fault(FaultAction::ExpireSlowdown { replica, factor }),
                );
            }
        }
    }

    /// Restores a stage-B job to the head of the fusion buffer (crash
    /// recovery); the buffer's wait clock restarts at `now`.
    fn bbuf_push_front(&mut self, job: SimSample) {
        self.bbuf.push_front(job, self.q.now());
    }
}

impl ContinuousBatching {
    /// Internal: index (SimSample id) of the front-of-queue sequence.
    fn queues_peek_front(&self) -> usize {
        self.queues[0].front().expect("nonempty").0.id as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::observer::EventLog;
    use e3_model::{zoo, RampStyle};

    fn lm() -> LatencyModel {
        LatencyModel::new()
    }

    fn seqs(n: usize, tokens: usize, layers: usize) -> Vec<SequenceSpec> {
        (0..n)
            .map(|i| SequenceSpec {
                id: i as u64,
                arrival: SimTime::ZERO,
                tokens: vec![
                    TokenJourney {
                        layers_executed: layers
                    };
                    tokens
                ],
            })
            .collect()
    }

    fn base_cfg<'a>(
        model: &'a EeModel,
        ctrl: &'a RampController,
        lm: &'a LatencyModel,
        join: JoinPolicy,
        b0: usize,
        replicas: usize,
    ) -> ContinuousConfig<'a> {
        ContinuousConfig {
            model,
            ctrl,
            gpu: GpuKind::A6000,
            lm,
            join,
            b0,
            replicas_a: replicas,
            boundary: None,
            replicas_b: 0,
            deferred_exits: false,
            kv: None,
            slo: SimDuration::from_secs(86_400),
            fault_plan: FaultPlan::new(),
            b_max_wait: None,
        }
    }

    #[test]
    fn continuous_policy_never_waits() {
        let mut p = ContinuousBatching::new(&[4]);
        let s = SimSample {
            id: 1,
            arrival: SimTime::ZERO,
            layers_executed: 2,
            exited_at_ramp: None,
            correct: true,
            output_tokens: 1,
        };
        p.push(0, s, SimTime::ZERO);
        assert!(p.next_flush_at(0, SimTime::ZERO).is_none());
        assert!(p.take_due(0, SimTime::from_secs(9)).is_none());
        // A single queued sample dispatches immediately as a partial.
        let b = p.take_full(0, SimTime::ZERO).expect("eager dispatch");
        assert_eq!(b.len(), 1);
        assert!(p.is_empty(0));
        // push_front resumes before fresh arrivals.
        p.push(0, SimSample { id: 2, ..s }, SimTime::ZERO);
        p.push_front(0, s, SimTime::ZERO);
        let order: Vec<u64> = p
            .take_full(0, SimTime::ZERO)
            .expect("batch")
            .samples
            .iter()
            .map(|x| x.id)
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn padded_window_matches_closed_form() {
        // 8 equal sequences of 2 tokens on one replica at b0=4, no exits:
        // 2 windows, each costing enc(4) + 2 * (decoder layers + head at 4).
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Window { padded: true }, 4, 1);
        let n = t5.num_layers();
        let out = run_continuous(&cfg, &seqs(8, 2, n), &mut crate::kernel::NullObserver);
        assert_eq!(out.report.completed, 8);
        assert_eq!(out.report.tokens_generated, 16);
        assert_eq!(out.leftover, 0);
        let enc = t5.autoreg().unwrap().encoder_layers;
        let per_layer = |k: usize| {
            let sp = t5.layers()[k];
            l.layer_time(sp.work_us + sp.fixed_us, 4.0, GpuKind::A6000)
        };
        let head = t5.autoreg().unwrap().lm_head;
        let mut pass = l.layer_time(head.work_us + head.fixed_us, 4.0, GpuKind::A6000);
        for k in enc..n {
            pass += per_layer(k);
        }
        let mut encoder = SimDuration::ZERO;
        for k in 0..enc {
            encoder += per_layer(k);
        }
        let expected = (encoder + pass + pass).mul_f64(2.0);
        assert_eq!(out.report.duration, expected);
    }

    #[test]
    fn tokens_are_generated_exactly_once() {
        let calm = zoo::calm_t5();
        let ctrl = RampController::all_enabled(calm.num_ramps(), RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&calm, &ctrl, &l, JoinPolicy::Continuous, 4, 2);
        cfg.fault_plan = FaultPlan::new()
            .crash(0, SimTime::from_millis(40))
            .recover(0, SimTime::from_millis(200));
        // Varied per-token depths.
        let specs: Vec<SequenceSpec> = (0..12)
            .map(|i| SequenceSpec {
                id: i,
                arrival: SimTime::ZERO,
                tokens: (0..3)
                    .map(|t| TokenJourney {
                        layers_executed: 9 + ((i as usize + t) % 8),
                    })
                    .collect(),
            })
            .collect();
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &specs, &mut log);
        assert_eq!(out.report.completed, 12);
        assert_eq!(out.report.tokens_generated, 36);
        let mut seen = std::collections::BTreeSet::new();
        for (_, e) in &log.events {
            if let KernelEvent::TokenGenerated { sample, index } = e {
                assert!(seen.insert((*sample, *index)), "token served twice");
            }
        }
        assert_eq!(seen.len(), 36);
        assert_eq!(out.report.faults_injected, 2);
    }

    #[test]
    fn kv_pressure_preempts_and_everyone_still_finishes() {
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 4, 1);
        // Budget for ~6 resident tokens while 4 sequences of 8 tokens run.
        cfg.kv = Some(KvPlan {
            capacity_tokens: 6,
            bytes_per_token: 49_152.0,
            mode: PreemptMode::Recompute,
        });
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &seqs(4, 8, t5.num_layers()), &mut log);
        assert_eq!(out.report.completed, 4);
        assert_eq!(out.report.tokens_generated, 32);
        assert!(out.report.kv_preemptions > 0);
        let preempts = log.count(|e| matches!(e, KernelEvent::KvPreempted { .. }));
        let admits = log.count(|e| matches!(e, KernelEvent::KvAdmitted { .. }));
        assert_eq!(preempts as u64, out.report.kv_preemptions);
        assert!(admits >= 4, "every join passes admission");
        // Swap mode also completes, paying PCIe instead of recompute.
        cfg.kv = Some(KvPlan {
            capacity_tokens: 6,
            bytes_per_token: 49_152.0,
            mode: PreemptMode::Swap,
        });
        let swap = run_continuous(&cfg, &seqs(4, 8, t5.num_layers()), &mut EventLog::new());
        assert_eq!(swap.report.completed, 4);
        assert!(swap.report.kv_preemptions > 0);
    }

    #[test]
    fn continuous_refill_beats_window_on_varied_lengths() {
        // Sequences of very different lengths: a window pays for its
        // longest member; continuous refills freed slots immediately.
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let specs: Vec<SequenceSpec> = (0..32)
            .map(|i| SequenceSpec {
                id: i,
                arrival: SimTime::ZERO,
                tokens: vec![
                    TokenJourney {
                        layers_executed: t5.num_layers()
                    };
                    if i % 4 == 0 { 24 } else { 4 }
                ],
            })
            .collect();
        let win = base_cfg(&t5, &ctrl, &l, JoinPolicy::Window { padded: true }, 8, 2);
        let cont = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 8, 2);
        let w = run_continuous(&win, &specs, &mut crate::kernel::NullObserver);
        let c = run_continuous(&cont, &specs, &mut crate::kernel::NullObserver);
        assert!(
            c.report.goodput() > w.report.goodput(),
            "continuous {} vs window {}",
            c.report.goodput(),
            w.report.goodput()
        );
    }

    #[test]
    fn two_stage_split_transfers_and_completes() {
        let calm = zoo::calm_t5();
        let ctrl = RampController::all_enabled(calm.num_ramps(), RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&calm, &ctrl, &l, JoinPolicy::Continuous, 4, 3);
        cfg.boundary = Some(11);
        cfg.replicas_b = 1;
        cfg.deferred_exits = true;
        // Half the tokens cross layer 11.
        let specs: Vec<SequenceSpec> = (0..16)
            .map(|i| SequenceSpec {
                id: i,
                arrival: SimTime::ZERO,
                tokens: (0..4)
                    .map(|t| TokenJourney {
                        layers_executed: if (i as usize + t).is_multiple_of(2) {
                            10
                        } else {
                            16
                        },
                    })
                    .collect(),
            })
            .collect();
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &specs, &mut log);
        assert_eq!(out.report.completed, 16);
        assert_eq!(out.report.tokens_generated, 64);
        assert_eq!(out.boundary_crossings, 32);
        assert!(log.count(|e| matches!(e, KernelEvent::StageTransfer { .. })) > 0);
        assert!(log.count(|e| matches!(e, KernelEvent::ExecStart { stage: 1, .. })) > 0);
    }

    #[test]
    fn passes_count_as_busy_time() {
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 4, 2);
        cfg.fault_plan = FaultPlan::new().crash(1, SimTime::from_millis(5));
        let out = run_continuous(&cfg, &seqs(8, 4, t5.num_layers()), &mut EventLog::new());
        assert!(out.report.mean_busy_fraction() > 0.0);
        // Replica 1 was busy from t=0 until its crash at 5 ms; the pass
        // the crash cut short counts in full from its start.
        assert!(out.report.replica_util[1].busy() > SimDuration::from_millis(5));
    }

    #[test]
    fn permanent_crash_of_all_replicas_strands_but_never_loses_work() {
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 2, 1);
        cfg.fault_plan = FaultPlan::new().crash(0, SimTime::from_millis(30));
        let out = run_continuous(&cfg, &seqs(6, 4, t5.num_layers()), &mut EventLog::new());
        assert_eq!(out.report.completed + out.leftover, 6);
        assert!(out.leftover > 0, "the lone replica died; work must strand");
    }
}
