//! Synthetic inference semantics.
//!
//! Real EE-DNNs decide exits from logits; we have no weights, so we model
//! the *statistical process* that drives everything E3 observes. Each
//! sample carries a latent **hardness** `h ∈ [0,1]`, interpreted as the
//! fraction of the model's depth required before its prediction
//! stabilizes (`d* = h · L` layers). At the ramp after layer `l` we form a
//! noisy *stabilization margin*
//!
//! ```text
//! x = k · ((l + 1) − d*) + ε,   ε ~ N(0, σ²)
//! ```
//!
//! and derive every observable a real ramp would expose:
//!
//! * normalized entropy `= σ(−x)` — high before stabilization, →0 after;
//! * confidence `= 1/C + (1 − 1/C) · σ(x)`;
//! * predicted class — the sample's final class with probability
//!   `0.5 + 0.5·σ(x)`, otherwise a random other class (this is what makes
//!   patience/voting policies behave realistically);
//! * learned-gate score `= σ(x)`.
//!
//! Correctness: completing the full model is correct with the dataset's
//! base accuracy; exiting at a ramp adds a small fixed EE loss (ramp
//! classifiers are weaker than the final head) plus a penalty growing
//! with how far *before* its stabilization depth the sample left. The
//! constants are calibrated to fig. 2: entropy threshold 0.4 yields
//! ≈40–45% average compute saving at <2% accuracy loss on easy-skewed
//! workloads, and the 0.3/0.4/0.5 sweep of fig. 23 shifts exits by about
//! ±1 layer.
//!
//! ## Bounded ramp sampler
//!
//! Every observable above is a monotone function of `x`, and every
//! threshold policy exits iff `x` clears a fixed margin threshold. The
//! [`RampSampler`] therefore draws the same uniforms as the straight-line
//! evaluator ([`InferenceSim::run_sample_reference`]), bounds `x` from
//! the uniforms' bits and table lookups, and settles the ramp's class and
//! exit from that interval. Only a ramp whose interval straddles a
//! decision falls back to the exact Box–Muller and sigmoid arithmetic, so
//! outcomes and the RNG stream are bit-identical to the reference.

use std::f64::consts::TAU;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::Rng;

use crate::model::{EeModel, ModelError, Task};
use crate::policy::{ExitPolicy, RampObservation, SampleExitState};
use crate::profile::BatchProfile;
use crate::wrapper::RampController;
use e3_simcore::rng::{box_muller, normal_sample, normal_uniforms};

/// Result of pushing one sample (or one generated token, for
/// autoregressive models) through an EE-DNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceOutcome {
    /// Number of layers executed (== `num_layers` when no exit fired).
    pub layers_executed: usize,
    /// Index (into the model's ramp list) of the ramp the sample exited
    /// at, or `None` if it ran to completion.
    pub exited_at_ramp: Option<usize>,
    /// Whether the final prediction was correct under the synthetic
    /// accuracy model.
    pub correct: bool,
}

impl InferenceOutcome {
    /// Ramp indices whose checking cost was paid, ascending: every ramp
    /// up to and including the exit ramp (all ramps when no exit fired)
    /// that `ctrl` charges for. `ctrl` must be the controller the
    /// outcome was sampled under.
    pub fn ramps_paid<'c>(&self, ctrl: &'c RampController) -> impl Iterator<Item = usize> + 'c {
        let end = self.exited_at_ramp.map_or(ctrl.num_ramps(), |r| r + 1);
        (0..end).filter(move |&i| ctrl.pays_cost_at(i))
    }
}

/// The synthetic inference engine. One instance per experiment; methods
/// are pure given the RNG.
#[derive(Debug, Clone, Copy)]
pub struct InferenceSim {
    /// Margin steepness per layer (how sharply confidence rises once the
    /// stabilization depth is passed).
    pub steepness: f64,
    /// Standard deviation of per-ramp margin noise.
    pub ramp_noise_sd: f64,
    /// Dataset accuracy ceiling when the full model runs.
    pub base_accuracy: f64,
    /// Fixed extra error for exiting at any ramp (ramp heads are weaker
    /// than the final classifier).
    pub ee_base_loss: f64,
    /// Error penalty per *fraction of total depth* exited before the
    /// sample's stabilization depth.
    pub early_exit_penalty: f64,
}

impl Default for InferenceSim {
    fn default() -> Self {
        InferenceSim {
            steepness: 0.8,
            ramp_noise_sd: 0.25,
            base_accuracy: 0.92,
            ee_base_loss: 0.012,
            early_exit_penalty: 0.15,
        }
    }
}

impl InferenceSim {
    /// Calibrated default engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with a specific dataset accuracy ceiling.
    pub fn with_accuracy(base_accuracy: f64) -> Self {
        InferenceSim {
            base_accuracy,
            ..Self::default()
        }
    }

    /// The sample's stabilization depth in layers for a model of `layers`
    /// relevant depth.
    fn d_star(&self, hardness: f64, layers: usize) -> f64 {
        hardness.clamp(0.0, 1.0) * layers as f64
    }

    /// Synthesizes the ramp observation at executed-depth `depth` (layers
    /// completed so far) for a sample with stabilization depth `d_star`.
    fn observe(
        &self,
        depth: f64,
        d_star: f64,
        num_classes: usize,
        rng: &mut StdRng,
    ) -> RampObservation {
        let noise = normal_sample(rng) * self.ramp_noise_sd;
        let x = self.steepness * (depth - d_star) + noise;
        let predicted_class = if rng.gen::<f64>() < stable_class_prob(x) {
            0
        } else {
            // A random wrong class; for C == 2 this is class 1.
            1 + rng.gen_range(0..num_classes.max(2) - 1)
        };
        observation(x, 1.0 / num_classes as f64, predicted_class)
    }

    /// Compiles `(self, model, policy, ctrl)` into a [`RampSampler`], the
    /// form to build once before a loop over samples.
    ///
    /// # Panics
    ///
    /// Panics if `ctrl` does not have one entry per ramp of `model`
    /// ([`RampSampler::new`] returns that as an error instead).
    pub fn sampler(
        &self,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
    ) -> RampSampler {
        RampSampler::new(self, model, policy, ctrl)
            .unwrap_or_else(|e| panic!("ramp controller does not match model: {e}"))
    }

    /// Runs one sample through the model under `policy` and `ctrl`.
    ///
    /// For [`Task::Generation`] models this simulates a *single token
    /// pass*: the exit depth is measured within the decoder (layers after
    /// the autoregressive encoder prefix), where all ramps live.
    ///
    /// Builds a [`RampSampler`] for this one sample; loops should build
    /// it once with [`InferenceSim::sampler`].
    ///
    /// # Panics
    ///
    /// Panics if `ctrl` does not have one entry per ramp of `model`.
    pub fn run_sample(
        &self,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
        hardness: f64,
        rng: &mut StdRng,
    ) -> InferenceOutcome {
        self.sampler(model, policy, ctrl).sample(hardness, rng)
    }

    /// The straight-line evaluator: every visited ramp computes its
    /// margin, observation and policy decision exactly. This is the
    /// specification [`RampSampler::sample`] must reproduce bit for bit
    /// (outcome and RNG stream) and the reference its differential tests
    /// compare against.
    ///
    /// # Panics
    ///
    /// Panics if `ctrl` does not have one entry per ramp of `model`.
    pub fn run_sample_reference(
        &self,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
        hardness: f64,
        rng: &mut StdRng,
    ) -> InferenceOutcome {
        assert_eq!(
            ctrl.num_ramps(),
            model.num_ramps(),
            "ramp controller does not match model"
        );
        let prefix = decoder_prefix(model);
        let depth_span = model.num_layers() - prefix;
        let d_star = self.d_star(hardness, depth_span);
        let mut state = SampleExitState::new();

        for (i, ramp) in model.ramps().iter().enumerate() {
            if !ctrl.pays_cost_at(i) && !ctrl.can_exit_at(i) {
                continue; // independent + disabled: fully skipped
            }
            let depth = (ramp.after_layer + 1).saturating_sub(prefix) as f64;
            let obs = self.observe(depth, d_star, model.num_classes(), rng);
            let wants_exit = if ctrl.advances_state_at(i) || ctrl.can_exit_at(i) {
                state.observe(policy, &obs)
            } else {
                false
            };
            if wants_exit && ctrl.can_exit_at(i) {
                let exit_depth = depth;
                let correct = self.draw_correct(exit_depth, d_star, depth_span, true, rng);
                return InferenceOutcome {
                    layers_executed: ramp.after_layer + 1,
                    exited_at_ramp: Some(i),
                    correct,
                };
            }
        }
        let correct = self.draw_correct(depth_span as f64, d_star, depth_span, false, rng);
        InferenceOutcome {
            layers_executed: model.num_layers(),
            exited_at_ramp: None,
            correct,
        }
    }

    fn draw_correct(
        &self,
        exit_depth: f64,
        d_star: f64,
        depth_span: usize,
        via_ramp: bool,
        rng: &mut StdRng,
    ) -> bool {
        let mut p = self.base_accuracy;
        if via_ramp {
            p -= self.ee_base_loss;
            let early = (d_star - exit_depth).max(0.0) / depth_span.max(1) as f64;
            p -= self.early_exit_penalty * early;
        }
        rng.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Monte-Carlo estimate of the batch-shrinkage profile for a hardness
    /// population: runs each hardness through the model and bins exits per
    /// layer. This is "ground truth" the online profiler tries to track.
    pub fn exit_profile(
        &self,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
        hardnesses: &[f64],
        rng: &mut StdRng,
    ) -> BatchProfile {
        let sampler = self.sampler(model, policy, ctrl);
        let mut exits_after = vec![0.0; model.num_layers()];
        for &h in hardnesses {
            let out = sampler.sample(h, rng);
            if let Some(r) = out.exited_at_ramp {
                exits_after[model.ramps()[r].after_layer] += 1.0;
            }
        }
        BatchProfile::from_exit_counts(&exits_after, hardnesses.len().max(1) as f64)
    }

    /// Mean accuracy and mean executed-depth fraction over a hardness
    /// population — the two axes of fig. 2.
    pub fn accuracy_and_depth(
        &self,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
        hardnesses: &[f64],
        rng: &mut StdRng,
    ) -> (f64, f64) {
        if hardnesses.is_empty() {
            return (0.0, 0.0);
        }
        let sampler = self.sampler(model, policy, ctrl);
        let mut correct = 0usize;
        let mut depth = 0usize;
        for &h in hardnesses {
            let out = sampler.sample(h, rng);
            correct += usize::from(out.correct);
            depth += out.layers_executed;
        }
        let n = hardnesses.len() as f64;
        (
            correct as f64 / n,
            depth as f64 / (n * model.num_layers() as f64),
        )
    }
}

/// Layers before the first layer a ramp's depth is counted from: the
/// encoder of an autoregressive model, else none.
fn decoder_prefix(model: &EeModel) -> usize {
    match model.task() {
        Task::Generation { .. } => model.autoreg().map_or(0, |a| a.encoder_layers),
        Task::Classification { .. } => 0,
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Probability that a ramp with margin `x` predicts the sample's final
/// class (`0.5 + 0.5·σ(x)`, never below one half).
fn stable_class_prob(x: f64) -> f64 {
    0.5 + 0.5 * sigmoid(x)
}

/// The observation a ramp with margin `x` exposes to the policy.
fn observation(x: f64, inv_c: f64, predicted_class: usize) -> RampObservation {
    let s = sigmoid(x);
    RampObservation {
        entropy: sigmoid(-x),
        confidence: inv_c + (1.0 - inv_c) * s,
        predicted_class,
        gate_score: s,
    }
}

/// Relative slack on every bound of the margin `x` and on the noise
/// tables. Floating-point rounding in the exact path moves `x` by a few
/// units in the last place (~1e-16 relative); the slack is four orders of
/// magnitude wider, so a settled decision can never disagree with it.
const ROUNDING_SLACK: f64 = 1e-12;

/// Absolute slack on the tabulated class probabilities.
const CLASS_SLACK: f64 = 1e-12;

/// Width of the undecided band around a policy's margin threshold, in
/// units of `(1 + |θ|) / (s*·(1 − s*))` where `s*` is the threshold in
/// sigmoid space: far wider than the rounding of `θ` itself and of the
/// policy's observable near it.
const THRESHOLD_SLACK: f64 = 1e-12;

/// Beyond `|θ| > 500` the policy's observable is near the edge of the
/// float range, so such thresholds are never settled from a bound.
const MAX_SETTLED_THRESHOLD: f64 = 500.0;

/// `u1 ∈ [ε, 1)` spans 52 binades; each splits into 16 buckets by its
/// top four mantissa bits.
const RADIUS_BUCKETS: usize = 52 * 16;

/// `u2 ∈ [0, 1)` splits into 64 equal buckets.
const COS_BUCKETS: usize = 64;

/// The class-probability grid covers `x ∈ [−16, 16]` in steps of 1/16.
const CLASS_GRID_HALF_WIDTH: f64 = 16.0;
const CLASS_GRID_STEPS_PER_UNIT: f64 = 16.0;
const CLASS_GRID_LAST: usize = 512;

/// Static tables behind the margin bounds, built once per process.
#[derive(Debug)]
struct BoundTables {
    /// Upper bound of `sqrt(−2 ln u1)` over each [`radius_bucket`].
    radius: [f64; RADIUS_BUCKETS],
    /// Upper bound of `|cos(2π u2)|` over each [`cos_bucket`].
    cos: [f64; COS_BUCKETS],
    /// [`stable_class_prob`] at `x = −16 + i/16`, `i = 0..=512`.
    class_prob: [f64; CLASS_GRID_LAST + 1],
}

impl BoundTables {
    fn get() -> &'static BoundTables {
        static TABLES: OnceLock<BoundTables> = OnceLock::new();
        TABLES.get_or_init(BoundTables::build)
    }

    fn build() -> BoundTables {
        let mut radius = [0.0; RADIUS_BUCKETS];
        for (i, r) in radius.iter_mut().enumerate() {
            // Smallest u1 in the bucket: 2^-(binade+1) · (16 + m) / 16.
            let (binade, m) = (i / 16, i % 16);
            let lowest = 0.5f64.powi(binade as i32 + 1) * (16 + m) as f64 / 16.0;
            *r = (-2.0 * lowest.ln()).sqrt() * (1.0 + ROUNDING_SLACK);
        }
        let mut cos = [1.0; COS_BUCKETS];
        for (j, c) in cos.iter_mut().enumerate() {
            // |cos| is monotone between multiples of π/2, which fall on
            // bucket edges, so the maximum sits at an edge unless the
            // bucket touches a multiple of π, where it is 1.
            if j % (COS_BUCKETS / 2) != 0 && (j + 1) % (COS_BUCKETS / 2) != 0 {
                let at = |k: usize| (TAU * k as f64 / COS_BUCKETS as f64).cos().abs();
                *c = (at(j).max(at(j + 1)) + ROUNDING_SLACK).min(1.0);
            }
        }
        let mut class_prob = [0.0; CLASS_GRID_LAST + 1];
        for (i, p) in class_prob.iter_mut().enumerate() {
            *p = stable_class_prob(i as f64 / CLASS_GRID_STEPS_PER_UNIT - CLASS_GRID_HALF_WIDTH);
        }
        BoundTables {
            radius,
            cos,
            class_prob,
        }
    }

    /// Settles whether the ramp predicts the final class (`u3 <
    /// stable_class_prob(x)`) for every margin in `[lo, hi]`, or `None`
    /// when the interval straddles `u3`.
    fn settle_class(&self, lo: f64, hi: f64, u3: f64) -> Option<bool> {
        if u3 < 0.5 {
            return Some(true);
        }
        let lowest = if lo <= -CLASS_GRID_HALF_WIDTH {
            0.5
        } else {
            let i = ((lo + CLASS_GRID_HALF_WIDTH) * CLASS_GRID_STEPS_PER_UNIT).floor();
            self.class_prob[(i as usize).min(CLASS_GRID_LAST)]
        };
        if u3 < lowest - CLASS_SLACK {
            return Some(true);
        }
        let highest = if hi >= CLASS_GRID_HALF_WIDTH {
            1.0
        } else {
            let i = ((hi + CLASS_GRID_HALF_WIDTH) * CLASS_GRID_STEPS_PER_UNIT).ceil();
            self.class_prob[(i.max(0.0) as usize).min(CLASS_GRID_LAST)]
        };
        if u3 >= highest + CLASS_SLACK {
            return Some(false);
        }
        None
    }
}

/// Bucket of `u1 ∈ [ε, 1)`: its binade below one (0 for `[½, 1)`) times
/// 16 plus its top four mantissa bits. Values outside `[ε, 1)` map past
/// the end of the table.
fn radius_bucket(u1: f64) -> usize {
    let bits = u1.to_bits();
    let binade = 1022u64.wrapping_sub(bits >> 52);
    (binade.wrapping_shl(4) | ((bits >> 48) & 15)) as usize
}

/// Bucket of `u2 ∈ [0, 1)`: `⌊64·u2⌋` (exact, as 64 is a power of two).
fn cos_bucket(u2: f64) -> usize {
    (u2 * COS_BUCKETS as f64) as usize & (COS_BUCKETS - 1)
}

/// How a policy's exit decision is settled at a ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ExitRule {
    /// Patience and voting: the decision follows from the predicted
    /// class and the sample's cross-ramp state alone.
    ByClass,
    /// Entropy, confidence and learned gates exit iff the margin clears a
    /// threshold `θ`. Settled as "stay" when the margin interval lies
    /// below `stay_below` and as "exit" when it lies above `exit_above`;
    /// otherwise the ramp takes the exact path.
    Margin { stay_below: f64, exit_above: f64 },
}

impl ExitRule {
    /// Always exits: every finite margin lies above `-∞`.
    const ALWAYS: ExitRule = ExitRule::Margin {
        stay_below: f64::NEG_INFINITY,
        exit_above: f64::NEG_INFINITY,
    };
    /// Never exits: every finite margin lies below `+∞`.
    const NEVER: ExitRule = ExitRule::Margin {
        stay_below: f64::INFINITY,
        exit_above: f64::INFINITY,
    };
    /// Never settled from a bound.
    const EXACT: ExitRule = ExitRule::Margin {
        stay_below: f64::NEG_INFINITY,
        exit_above: f64::INFINITY,
    };

    /// Compiles `policy` for a model with `1/C = inv_c`. Thresholds the
    /// observable can never or always meet become [`ExitRule::NEVER`] /
    /// [`ExitRule::ALWAYS`]; the rest become a band around the margin
    /// threshold `θ = logit(s*)`, where `s*` is the threshold in sigmoid
    /// space: `ln((1−t)/t)` for entropy, `logit((t−1/C)/(1−1/C))` for
    /// confidence and `logit(t)` for learned gates.
    fn for_policy(policy: &ExitPolicy, inv_c: f64) -> ExitRule {
        let (s, theta) = match *policy {
            ExitPolicy::Patience { .. } | ExitPolicy::Voting { .. } => return ExitRule::ByClass,
            // Normalized entropy σ(−x) lies in [0, 1].
            ExitPolicy::Entropy { threshold: t } => {
                if t.is_nan() || t < 0.0 {
                    return ExitRule::NEVER;
                }
                if t >= 1.0 {
                    return ExitRule::ALWAYS;
                }
                (1.0 - t, ((1.0 - t) / t).ln())
            }
            // Confidence 1/C + (1 − 1/C)·σ(x) lies in [1/C, 1], up to
            // rounding at the top.
            ExitPolicy::Confidence { threshold: t } => {
                if t.is_nan() || t > 1.0 + 1e-9 {
                    return ExitRule::NEVER;
                }
                if t <= inv_c {
                    return ExitRule::ALWAYS;
                }
                let s = (t - inv_c) / (1.0 - inv_c);
                (s, (s / (1.0 - s)).ln())
            }
            // The gate score σ(x) lies in [0, 1].
            ExitPolicy::Learned { threshold: t } => {
                if t.is_nan() || t > 1.0 {
                    return ExitRule::NEVER;
                }
                if t <= 0.0 {
                    return ExitRule::ALWAYS;
                }
                (t, (t / (1.0 - t)).ln())
            }
        };
        let band = THRESHOLD_SLACK * (1.0 + theta.abs()) / (s * (1.0 - s));
        if theta.abs() <= MAX_SETTLED_THRESHOLD && band.is_finite() {
            ExitRule::Margin {
                stay_below: theta - band,
                exit_above: theta + band,
            }
        } else {
            ExitRule::EXACT
        }
    }
}

/// One ramp the sampler visits. Disabled independent ramps are dropped
/// when the sampler is built, exactly as the reference skips them.
#[derive(Debug, Clone, Copy)]
struct ActiveRamp {
    /// Index into the model's ramp list.
    index: usize,
    /// Layers executed by a sample exiting here.
    layers: usize,
    /// Executed depth past the encoder prefix (`l + 1` in the margin).
    depth: f64,
    /// Whether samples may exit here.
    can_exit: bool,
}

/// A compiled `(InferenceSim, EeModel, ExitPolicy, RampController)`
/// that samples outcomes bit-identically to
/// [`InferenceSim::run_sample_reference`] while skipping most of its
/// transcendental arithmetic.
///
/// Per visited ramp it draws `u1`, `u2` (the Box–Muller uniforms), `u3`
/// (the class draw) and, when the ramp predicts a wrong class, that
/// class — the reference's draws, in its order. `u1 ≥ 2^-(b+1)·(1+m/16)`
/// bounds `|ε| ≤ σ·sqrt(−2 ln u1)` and `u2`'s bucket bounds
/// `|cos 2πu2|`, so the margin lies in `a ± w` around the exactly
/// computed `a = k·(depth − d*)`. The class is settled when `u3 < ½` or
/// from a tabulated monotone class probability at the interval's ends;
/// the exit is settled against the policy's precomputed margin band.
/// Anything else computes `x` exactly.
#[derive(Debug, Clone)]
pub struct RampSampler {
    sim: InferenceSim,
    policy: ExitPolicy,
    ramps: Vec<ActiveRamp>,
    num_layers: usize,
    depth_span: usize,
    num_classes: usize,
    inv_c: f64,
    rule: ExitRule,
    /// `|σ|`, the scale of the noise bound.
    noise_scale: f64,
    /// Whether the sim's parameters are finite, so margins can be
    /// bounded at all.
    bounded: bool,
    tables: &'static BoundTables,
}

impl RampSampler {
    /// Compiles the sampler for `policy` on `model` with ramp mask `ctrl`.
    ///
    /// # Errors
    ///
    /// [`ModelError::RampMaskMismatch`] if `ctrl` does not have one entry
    /// per ramp of `model`.
    pub fn new(
        sim: &InferenceSim,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
    ) -> Result<RampSampler, ModelError> {
        if ctrl.num_ramps() != model.num_ramps() {
            return Err(ModelError::RampMaskMismatch {
                model: model.num_ramps(),
                mask: ctrl.num_ramps(),
            });
        }
        let prefix = decoder_prefix(model);
        let ramps = model
            .ramps()
            .iter()
            .enumerate()
            .filter(|&(i, _)| ctrl.pays_cost_at(i) || ctrl.can_exit_at(i))
            .map(|(i, ramp)| ActiveRamp {
                index: i,
                layers: ramp.after_layer + 1,
                depth: (ramp.after_layer + 1).saturating_sub(prefix) as f64,
                can_exit: ctrl.can_exit_at(i),
            })
            .collect();
        let inv_c = 1.0 / model.num_classes() as f64;
        Ok(RampSampler {
            sim: *sim,
            policy: *policy,
            ramps,
            num_layers: model.num_layers(),
            depth_span: model.num_layers() - prefix,
            num_classes: model.num_classes(),
            inv_c,
            rule: ExitRule::for_policy(policy, inv_c),
            noise_scale: sim.ramp_noise_sd.abs(),
            bounded: sim.steepness.is_finite() && sim.ramp_noise_sd.is_finite(),
            tables: BoundTables::get(),
        })
    }

    /// Samples one outcome for a sample of `hardness`; identical, outcome
    /// and RNG stream, to [`InferenceSim::run_sample_reference`].
    pub fn sample(&self, hardness: f64, rng: &mut StdRng) -> InferenceOutcome {
        let sim = &self.sim;
        let d_star = sim.d_star(hardness, self.depth_span);
        let bounded = self.bounded && d_star.is_finite();
        let mut state = SampleExitState::new();
        for ramp in &self.ramps {
            #[cfg(test)]
            tally::bump(&tally::RAMPS);
            let (u1, u2) = normal_uniforms(rng);
            let u3: f64 = rng.gen();
            let a = sim.steepness * (ramp.depth - d_star);
            let mut exact = None;
            let mut margin = || {
                *exact.get_or_insert_with(|| {
                    #[cfg(test)]
                    tally::bump(&tally::EXACT);
                    a + box_muller(u1, u2) * sim.ramp_noise_sd
                })
            };
            let bounds = if bounded {
                self.margin_bounds(a, u1, u2)
            } else {
                None
            };
            let stable = match bounds.and_then(|(lo, hi)| self.tables.settle_class(lo, hi, u3)) {
                Some(stable) => stable,
                None => {
                    #[cfg(test)]
                    tally::bump(&tally::CLASS_FALLBACKS);
                    u3 < stable_class_prob(margin())
                }
            };
            let class = if stable {
                0
            } else {
                1 + rng.gen_range(0..self.num_classes.max(2) - 1)
            };
            let exits = match self.rule {
                ExitRule::ByClass => state.observe_class(&self.policy, class),
                ExitRule::Margin { .. } if !ramp.can_exit => false,
                ExitRule::Margin {
                    stay_below,
                    exit_above,
                } => match bounds {
                    Some((lo, _)) if lo > exit_above => true,
                    Some((_, hi)) if hi < stay_below => false,
                    _ => {
                        #[cfg(test)]
                        tally::bump(&tally::EXIT_FALLBACKS);
                        state.observe(&self.policy, &observation(margin(), self.inv_c, class))
                    }
                },
            };
            if exits && ramp.can_exit {
                let correct = sim.draw_correct(ramp.depth, d_star, self.depth_span, true, rng);
                return InferenceOutcome {
                    layers_executed: ramp.layers,
                    exited_at_ramp: Some(ramp.index),
                    correct,
                };
            }
        }
        let correct = sim.draw_correct(self.depth_span as f64, d_star, self.depth_span, false, rng);
        InferenceOutcome {
            layers_executed: self.num_layers,
            exited_at_ramp: None,
            correct,
        }
    }

    /// An interval `[lo, hi]` certain to contain the margin the exact path
    /// would compute from `a`, `u1` and `u2`, or `None` when `u1` lies
    /// outside the tabulated range.
    fn margin_bounds(&self, a: f64, u1: f64, u2: f64) -> Option<(f64, f64)> {
        let radius = *self.tables.radius.get(radius_bucket(u1))?;
        let noise = self.noise_scale * radius * self.tables.cos[cos_bucket(u2)];
        let w = noise + (a.abs() + noise) * ROUNDING_SLACK;
        Some((a - w, a + w))
    }
}

/// Test-only tally of how the sampler settled its ramps, so a silent
/// slide back to the exact path fails a test.
#[cfg(test)]
mod tally {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// Ramps visited.
        pub static RAMPS: Cell<u64> = const { Cell::new(0) };
        /// Ramps whose margin was computed exactly.
        pub static EXACT: Cell<u64> = const { Cell::new(0) };
        /// Ramps whose class was not settled from the bound.
        pub static CLASS_FALLBACKS: Cell<u64> = const { Cell::new(0) };
        /// Ramps whose exit was not settled from the bound.
        pub static EXIT_FALLBACKS: Cell<u64> = const { Cell::new(0) };
    }

    pub fn bump(counter: &'static LocalKey<Cell<u64>>) {
        counter.with(|c| c.set(c.get() + 1));
    }

    /// Reads and clears `counter`.
    pub fn take(counter: &'static LocalKey<Cell<u64>>) -> u64 {
        counter.with(|c| c.replace(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LayerSpec, RampSpec};
    use crate::wrapper::RampStyle;
    use rand::SeedableRng;

    fn bert_like(layers: usize) -> EeModel {
        let layer = LayerSpec {
            work_us: 767.0,
            fixed_us: 98.0,
            output_bytes: 393_216,
        };
        let ramps = (0..layers - 1)
            .map(|l| RampSpec {
                after_layer: l,
                work_us: 100.0,
                fixed_us: 10.0,
            })
            .collect();
        EeModel::new(
            "test-bert",
            vec![layer; layers],
            ramps,
            Task::Classification { num_classes: 2 },
            None,
        )
        .unwrap()
    }

    fn all_on(m: &EeModel) -> RampController {
        RampController::all_enabled(m.num_ramps(), RampStyle::Independent)
    }

    /// An easy-skewed hardness population (roughly the paper's 80E/20H).
    fn easy_mix(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < 0.8 {
                    e3_simcore::rng::beta_sample(rng, 2.0, 4.0) // easy
                } else {
                    0.7 + 0.3 * rng.gen::<f64>() // hard
                }
            })
            .collect()
    }

    #[test]
    fn hard_samples_exit_later_than_easy() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        let mut rng = StdRng::seed_from_u64(1);
        let mut depth = |h: f64| -> f64 {
            let n = 500;
            (0..n)
                .map(|_| sim.run_sample(&m, &pol, &ctrl, h, &mut rng).layers_executed as f64)
                .sum::<f64>()
                / n as f64
        };
        let easy = depth(0.2);
        let hard = depth(0.9);
        assert!(easy < hard, "easy={easy} hard={hard}");
        assert!(easy < 5.0, "easy samples should exit early: {easy}");
        assert!(hard > 9.0, "hard samples should go deep: {hard}");
    }

    #[test]
    fn entropy_threshold_sweep_shifts_exits() {
        // fig. 23: higher entropy tolerance -> earlier exits.
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let ctrl = all_on(&m);
        let mut rng = StdRng::seed_from_u64(2);
        let hs = easy_mix(2000, &mut rng);
        let mean_depth = |t: f64| {
            let pol = ExitPolicy::Entropy { threshold: t };
            let mut r = StdRng::seed_from_u64(3);
            sim.accuracy_and_depth(&m, &pol, &ctrl, &hs, &mut r).1
        };
        let d03 = mean_depth(0.3);
        let d04 = mean_depth(0.4);
        let d05 = mean_depth(0.5);
        assert!(d05 < d04 && d04 < d03, "depths: {d03} {d04} {d05}");
    }

    #[test]
    fn calibration_matches_fig2_anchors() {
        // Entropy 0.4 on an easy-skewed mix: ~40-60% mean depth, <2%
        // accuracy loss versus running the full model.
        let m = bert_like(12);
        let sim = InferenceSim::with_accuracy(0.924);
        let ctrl = all_on(&m);
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let mut rng = StdRng::seed_from_u64(4);
        let hs = easy_mix(5000, &mut rng);
        let (acc, depth) = sim.accuracy_and_depth(&m, &pol, &ctrl, &hs, &mut rng);
        assert!((0.40..0.65).contains(&depth), "depth={depth}");
        assert!(acc > 0.924 - 0.02, "acc={acc}");
        // Stock model for comparison: full depth, full accuracy.
        let stock = m.without_exits();
        let ctrl0 = RampController::all_enabled(0, RampStyle::Independent);
        let (acc0, depth0) = sim.accuracy_and_depth(&stock, &pol, &ctrl0, &hs, &mut rng);
        assert_eq!(depth0, 1.0);
        assert!(acc0 > acc, "stock must be at least as accurate");
    }

    #[test]
    fn disabled_ramps_are_not_paid_and_defer_exits() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let mut ctrl = all_on(&m);
        ctrl.keep_only(&[5, 10]); // boundary ramps only
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let out = sim.run_sample(&m, &pol, &ctrl, 0.1, &mut rng);
            assert!(out.ramps_paid(&ctrl).all(|r| [5, 10].contains(&r)));
            if let Some(r) = out.exited_at_ramp {
                assert!([5, 10].contains(&r));
            }
        }
    }

    #[test]
    fn patience_policy_needs_consecutive_ramps() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Patience { patience: 6 };
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Dependent);
        let mut rng = StdRng::seed_from_u64(6);
        // Even the easiest sample cannot exit before `patience` ramps.
        for _ in 0..100 {
            let out = sim.run_sample(&m, &pol, &ctrl, 0.0, &mut rng);
            assert!(out.layers_executed >= 6);
        }
    }

    #[test]
    fn exit_profile_monotone_and_matches_depths() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        let mut rng = StdRng::seed_from_u64(7);
        let hs = easy_mix(3000, &mut rng);
        let prof = sim.exit_profile(&m, &pol, &ctrl, &hs, &mut rng);
        assert_eq!(prof.num_layers(), 12);
        // Roughly half the batch should be gone by mid-model (fig. 3).
        let mid = prof.survival_at(6);
        assert!((0.2..0.7).contains(&mid), "mid-model survival={mid}");
    }

    #[test]
    fn stock_model_never_exits() {
        let m = bert_like(12).without_exits();
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let mut rng = StdRng::seed_from_u64(8);
        let out = sim.run_sample(&m, &pol, &ctrl, 0.0, &mut rng);
        assert_eq!(out.layers_executed, 12);
        assert_eq!(out.exited_at_ramp, None);
        assert_eq!(out.ramps_paid(&ctrl).next(), None);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        let a = sim.run_sample(&m, &pol, &ctrl, 0.5, &mut StdRng::seed_from_u64(9));
        let b = sim.run_sample(&m, &pol, &ctrl, 0.5, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn ramps_paid_is_derived_from_the_exit_and_the_mask() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Patience { patience: 3 };
        let mut ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Dependent);
        ctrl.keep_only(&[5, 10]);
        let mut rng = StdRng::seed_from_u64(10);
        for h in [0.0, 0.5, 1.0] {
            let out = sim.run_sample(&m, &pol, &ctrl, h, &mut rng);
            // Dependent ramps run (and are paid) even when disabled.
            let end = out.exited_at_ramp.map_or(m.num_ramps(), |r| r + 1);
            assert_eq!(
                out.ramps_paid(&ctrl).collect::<Vec<_>>(),
                (0..end).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn ramp_mask_mismatch_is_a_typed_error() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = RampController::all_enabled(3, RampStyle::Independent);
        let err = RampSampler::new(&sim, &m, &pol, &ctrl).unwrap_err();
        assert_eq!(err, ModelError::RampMaskMismatch { model: 11, mask: 3 });
        assert_eq!(
            err.to_string(),
            "ramp controller covers 3 ramps but the model has 11"
        );
        assert!(RampSampler::new(&sim, &m, &pol, &all_on(&m)).is_ok());
    }

    #[test]
    #[should_panic(expected = "ramp controller does not match model")]
    fn run_sample_panics_on_a_mask_mismatch() {
        let m = bert_like(12);
        let ctrl = RampController::all_enabled(3, RampStyle::Independent);
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        InferenceSim::new().run_sample(&m, &pol, &ctrl, 0.5, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn margin_bounds_contain_the_exact_margin() {
        let m = bert_like(12);
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let mut rng = StdRng::seed_from_u64(11);
        for sd in [0.25, 3.0, -0.5, 0.0] {
            let sim = InferenceSim {
                ramp_noise_sd: sd,
                ..InferenceSim::new()
            };
            let sampler = RampSampler::new(&sim, &m, &pol, &all_on(&m)).unwrap();
            for i in 0..200_000 {
                // Include both ends of u1's range and every binade.
                let u1 = match i % 4 {
                    0 => f64::EPSILON,
                    1 => 1.0 - f64::EPSILON / 2.0,
                    2 => 0.5f64.powi(rng.gen_range(1..53)).max(f64::EPSILON),
                    _ => rng.gen_range(f64::EPSILON..1.0),
                };
                let u2: f64 = rng.gen();
                let a = rng.gen_range(-20.0..20.0);
                let x = a + box_muller(u1, u2) * sd;
                let (lo, hi) = sampler.margin_bounds(a, u1, u2).unwrap();
                assert!(lo <= x && x <= hi, "{x} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn class_settlement_agrees_with_the_exact_draw() {
        let tables = BoundTables::get();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..200_000 {
            let lo = rng.gen_range(-20.0..20.0);
            let hi = lo + rng.gen_range(0.0..2.0);
            let u3: f64 = rng.gen();
            if let Some(stable) = tables.settle_class(lo, hi, u3) {
                for x in [lo, hi, lo + (hi - lo) * rng.gen::<f64>()] {
                    assert_eq!(stable, u3 < stable_class_prob(x), "x={x} u3={u3}");
                }
            }
        }
    }

    #[test]
    fn exit_rules_compile_thresholds_to_margin_bands() {
        let entropy = |t| ExitRule::for_policy(&ExitPolicy::Entropy { threshold: t }, 0.5);
        let confidence = |t| ExitRule::for_policy(&ExitPolicy::Confidence { threshold: t }, 0.5);
        let learned = |t| ExitRule::for_policy(&ExitPolicy::Learned { threshold: t }, 0.5);
        for t in [f64::NAN, -0.1] {
            assert_eq!(entropy(t), ExitRule::NEVER);
        }
        assert_eq!(entropy(1.0), ExitRule::ALWAYS);
        assert_eq!(entropy(0.0), ExitRule::EXACT, "exits only on overflow");
        assert_eq!(confidence(0.5), ExitRule::ALWAYS, "1/C is the floor");
        assert_eq!(confidence(1.5), ExitRule::NEVER);
        assert_eq!(confidence(1.0), ExitRule::EXACT);
        assert_eq!(learned(0.0), ExitRule::ALWAYS);
        assert_eq!(learned(1.0), ExitRule::EXACT, "exits once σ rounds to 1");
        assert_eq!(learned(f64::NAN), ExitRule::NEVER);
        assert_eq!(
            ExitRule::for_policy(&ExitPolicy::Voting { quorum: 2 }, 0.5),
            ExitRule::ByClass
        );
        // Every finite band brackets θ tightly, and the observable agrees
        // with the settled decision just outside it.
        let cases: [(ExitRule, &dyn Fn(f64) -> bool); 3] = [
            (entropy(0.4), &|x: f64| sigmoid(-x) <= 0.4),
            (confidence(0.85), &|x: f64| 0.5 + 0.5 * sigmoid(x) >= 0.85),
            (learned(0.6), &|x: f64| sigmoid(x) >= 0.6),
        ];
        for (rule, exits) in cases {
            let ExitRule::Margin {
                stay_below,
                exit_above,
            } = rule
            else {
                panic!("expected a margin band");
            };
            assert!(exit_above - stay_below < 1e-9);
            assert!(!exits(stay_below) && exits(exit_above));
        }
    }

    #[test]
    fn ambiguous_class_falls_back_to_the_exact_draw() {
        // The interval straddles the class probability at u3.
        let tables = BoundTables::get();
        assert_eq!(tables.settle_class(-0.1, 0.1, stable_class_prob(0.0)), None);
        assert_eq!(tables.settle_class(-0.1, 0.1, 0.25), Some(true));
        assert_eq!(tables.settle_class(-0.1, 0.1, 0.99), Some(false));
        // Wide noise leaves most draws of u3 >= 1/2 undecided; every
        // fallback still matches the reference.
        let m = bert_like(12);
        let sim = InferenceSim {
            ramp_noise_sd: 10.0,
            ..InferenceSim::new()
        };
        let pol = ExitPolicy::Patience { patience: 3 };
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Dependent);
        let sampler = sim.sampler(&m, &pol, &ctrl);
        tally::take(&tally::CLASS_FALLBACKS);
        let mut fast = StdRng::seed_from_u64(13);
        let mut reference = StdRng::seed_from_u64(13);
        for _ in 0..500 {
            assert_eq!(
                sampler.sample(0.5, &mut fast),
                sim.run_sample_reference(&m, &pol, &ctrl, 0.5, &mut reference)
            );
        }
        assert_eq!(fast.gen::<u64>(), reference.gen::<u64>());
        assert!(tally::take(&tally::CLASS_FALLBACKS) > 100);
    }

    #[test]
    fn ambiguous_exit_falls_back_to_the_exact_policy() {
        // One ramp at depth 1 whose noiseless margin sits on the entropy
        // threshold θ = ln(1.5): every draw's interval straddles θ.
        let m = bert_like(2);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        let theta = 1.5f64.ln();
        let h = (1.0 - theta / sim.steepness) / 2.0;
        let sampler = sim.sampler(&m, &pol, &ctrl);
        let ExitRule::Margin {
            stay_below,
            exit_above,
        } = sampler.rule
        else {
            panic!("entropy compiles to a margin band");
        };
        let a = sim.steepness * (1.0 - sim.d_star(h, 2));
        let (lo, hi) = sampler.margin_bounds(a, 0.9, 0.25).unwrap();
        assert!(lo <= stay_below && exit_above <= hi);
        tally::take(&tally::EXIT_FALLBACKS);
        let mut fast = StdRng::seed_from_u64(14);
        let mut reference = StdRng::seed_from_u64(14);
        let mut exits = 0;
        for _ in 0..500 {
            let out = sampler.sample(h, &mut fast);
            assert_eq!(
                out,
                sim.run_sample_reference(&m, &pol, &ctrl, h, &mut reference)
            );
            exits += usize::from(out.exited_at_ramp.is_some());
        }
        assert_eq!(fast.gen::<u64>(), reference.gen::<u64>());
        assert_eq!(tally::take(&tally::EXIT_FALLBACKS), 500);
        assert!((150..350).contains(&exits), "exits={exits}");
    }

    #[test]
    fn non_finite_inputs_take_the_exact_path() {
        let m = bert_like(12);
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        for (sim, h) in [
            (InferenceSim::new(), f64::NAN),
            (
                InferenceSim {
                    steepness: f64::INFINITY,
                    ..InferenceSim::new()
                },
                0.5,
            ),
        ] {
            let sampler = sim.sampler(&m, &pol, &ctrl);
            tally::take(&tally::RAMPS);
            tally::take(&tally::EXACT);
            let mut fast = StdRng::seed_from_u64(15);
            let mut reference = StdRng::seed_from_u64(15);
            for _ in 0..50 {
                assert_eq!(
                    sampler.sample(h, &mut fast),
                    sim.run_sample_reference(&m, &pol, &ctrl, h, &mut reference)
                );
            }
            assert_eq!(tally::take(&tally::EXACT), tally::take(&tally::RAMPS));
        }
    }

    #[test]
    fn most_deebert_sst2_ramps_skip_the_transcendentals() {
        let m = crate::zoo::deebert();
        let ds = e3_workload::DatasetModel::sst2();
        let sim = InferenceSim::with_accuracy(ds.base_accuracy);
        let pol = crate::zoo::default_policy(m.name());
        let ctrl = RampController::all_enabled(m.num_ramps(), pol.ramp_style());
        let sampler = sim.sampler(&m, &pol, &ctrl);
        let mut rng = StdRng::seed_from_u64(16);
        tally::take(&tally::RAMPS);
        tally::take(&tally::EXACT);
        for _ in 0..20_000 {
            let h = ds.sample_hardness(&mut rng);
            sampler.sample(h, &mut rng);
        }
        let ramps = tally::take(&tally::RAMPS);
        let exact = tally::take(&tally::EXACT);
        let settled = 1.0 - exact as f64 / ramps as f64;
        assert!(settled >= 0.5, "only {settled:.3} of {ramps} ramps settled");
    }
}
