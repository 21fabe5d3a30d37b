//! Differential test of the bounded ramp sampler: `RampSampler::sample`
//! must reproduce `InferenceSim::run_sample_reference` exactly — the same
//! outcome and the same position in the RNG stream after every sample —
//! for every zoo model, all five exit policies (thresholds swept over
//! 0, 1, out-of-range values and NaN), both ramp styles under random ramp
//! masks, and hardness below, inside and above `[0, 1]`.

use e3_model::{zoo, EeModel, ExitPolicy, InferenceSim, RampController, RampStyle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn zoo_models() -> Vec<EeModel> {
    vec![
        zoo::bert_base(),
        zoo::deebert(),
        zoo::bert_large(),
        zoo::pabee(),
        zoo::distilbert(),
        zoo::distilbert_ee(),
        zoo::resnet50(),
        zoo::branchy_resnet50(),
        zoo::t5(),
        zoo::calm_t5(),
        zoo::llama31_8b(),
        zoo::llama31_8b_ee(),
        zoo::fastbert(),
        zoo::berxit(),
        zoo::albert(),
        zoo::elbert(),
    ]
}

/// Thresholds at and beyond the edges of every policy's range, plus the
/// calibrated defaults. Index `THRESHOLDS.len()` draws one from `[0, 1)`.
const THRESHOLDS: [f64; 14] = [
    0.0,
    1.0,
    -0.5,
    1.5,
    f64::NAN,
    f64::INFINITY,
    0.4,
    0.85,
    0.5,
    0.6,
    1e-300,
    1.0 - 1e-16,
    0.5 + 1e-17,
    1.0 + 1e-12,
];

fn policy(kind: usize, threshold: f64, count: usize) -> ExitPolicy {
    match kind {
        0 => ExitPolicy::Entropy { threshold },
        1 => ExitPolicy::Confidence { threshold },
        2 => ExitPolicy::Learned { threshold },
        3 => ExitPolicy::Patience { patience: count },
        _ => ExitPolicy::Voting { quorum: count },
    }
}

/// The calibrated engine and variants that stress the bounds: wide noise
/// (most classes undecided), no noise, a flat margin, and a steep one.
fn sim(variant: usize) -> InferenceSim {
    let base = InferenceSim::new();
    match variant {
        0 => base,
        1 => InferenceSim {
            ramp_noise_sd: 3.0,
            ..base
        },
        2 => InferenceSim {
            ramp_noise_sd: 0.0,
            ..base
        },
        3 => InferenceSim {
            steepness: 0.0,
            ..base
        },
        _ => InferenceSim {
            steepness: 40.0,
            ramp_noise_sd: -0.5,
            ..base
        },
    }
}

/// A hardness below, inside or above `[0, 1]`, or a non-finite one.
fn hardness(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen();
    match rng.gen_range(0..10) {
        0 | 1 => -3.0 * u,
        2 | 3 => 1.0 + 3.0 * u,
        4 => [0.0, 1.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..6)],
        _ => u,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn sampler_matches_reference(
        model_i in 0usize..16,
        kind in 0usize..5,
        threshold_i in 0usize..15,
        count in 0usize..8,
        dependent in 0u32..2,
        mask in 0u64..u64::MAX,
        sim_i in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let models = zoo_models();
        let model = &models[model_i];
        let mut hardness_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let threshold = THRESHOLDS
            .get(threshold_i)
            .copied()
            .unwrap_or_else(|| hardness_rng.gen());
        let policy = policy(kind, threshold, count);
        let style = if dependent == 1 {
            RampStyle::Dependent
        } else {
            RampStyle::Independent
        };
        let enabled = (0..model.num_ramps())
            .map(|i| (mask >> (i % 64)) & 1 == 1)
            .collect();
        let ctrl = RampController::with_mask(enabled, style);
        let sim = sim(sim_i);
        let sampler = sim.sampler(model, &policy, &ctrl);
        let mut fast = StdRng::seed_from_u64(seed);
        let mut reference = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let h = hardness(&mut hardness_rng);
            let got = sampler.sample(h, &mut fast);
            let want = sim.run_sample_reference(model, &policy, &ctrl, h, &mut reference);
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast.clone().gen::<u64>(), reference.clone().gen::<u64>());
        }
    }
}

#[test]
fn run_sample_matches_reference_on_every_default_policy() {
    let sim = InferenceSim::new();
    for model in zoo_models() {
        let policy = zoo::default_policy(model.name());
        let ctrl = RampController::all_enabled(model.num_ramps(), policy.ramp_style());
        let mut fast = StdRng::seed_from_u64(11);
        let mut reference = StdRng::seed_from_u64(11);
        let mut hardness_rng = StdRng::seed_from_u64(12);
        for _ in 0..500 {
            let h: f64 = hardness_rng.gen();
            assert_eq!(
                sim.run_sample(&model, &policy, &ctrl, h, &mut fast),
                sim.run_sample_reference(&model, &policy, &ctrl, h, &mut reference),
                "{}",
                model.name()
            );
        }
        assert_eq!(fast.gen::<u64>(), reference.gen::<u64>());
    }
}
