//! Host-speed calibration.
//!
//! Shared machines drift in speed by tens of percent over minutes (other
//! tenants' load, frequency scaling), which moves every host timing of a
//! run together. A fixed calibration kernel, independent of the program
//! under test, runs just before each timed op; the op's time is scaled
//! by how much slower or faster than its reference the kernel ran. The
//! result is the op's time on a host where the kernel takes
//! [`REFERENCE_MS`], and changes to the program move it while changes in
//! the host's speed cancel out.

use std::collections::VecDeque;
use std::time::Instant;

/// The kernel's time on the reference host (a 2-vCPU VM at its median
/// speed), so scaled times stay close to that host's wall-clock times.
pub const REFERENCE_MS: f64 = 0.5;

/// Calibration samples the current speed is the median of.
const WINDOW: usize = 5;

/// Sorts a fixed pseudo-random vector and sums square roots over it:
/// allocation, branchy memory access and floating point, like the
/// simulator's own mix. Returns a value so the work cannot be elided.
fn kernel() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    v.iter().map(|&y| ((y >> 11) as f64).sqrt()).sum()
}

/// The recent calibration times and the scale they imply.
#[derive(Debug, Default)]
pub struct Speed {
    recent: VecDeque<f64>,
}

impl Speed {
    /// Runs the kernel once and records its time.
    pub fn calibrate(&mut self) {
        let start = Instant::now();
        std::hint::black_box(kernel());
        self.record(start.elapsed().as_secs_f64() * 1e3);
    }

    fn record(&mut self, ms: f64) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
    }

    /// Factor that turns a host time measured now into reference-host
    /// time: the reference over the median of the recent samples.
    pub fn scale(&self) -> f64 {
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        match v.get(v.len() / 2) {
            Some(&median) if median > 0.0 => REFERENCE_MS / median,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
    }

    #[test]
    fn scale_follows_the_median_of_recent_samples() {
        let mut s = Speed::default();
        assert_eq!(s.scale(), 1.0, "uncalibrated clocks do not scale");
        for ms in [1.0, 1.0, 9.0] {
            s.record(ms);
        }
        assert!((s.scale() - REFERENCE_MS / 1.0).abs() < 1e-12);
        // A host twice as slow halves the scale; old samples age out.
        for _ in 0..WINDOW {
            s.record(2.0);
        }
        assert!((s.scale() - REFERENCE_MS / 2.0).abs() < 1e-12);
    }

    #[test]
    fn calibrating_records_a_positive_time() {
        let mut s = Speed::default();
        s.calibrate();
        assert!(s.scale() > 0.0 && s.scale().is_finite());
    }
}
