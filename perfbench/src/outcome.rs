//! What one op produced, and the seeded parameter draws ops are made of.

use std::collections::BTreeMap;
use std::time::Instant;

use e3_runtime::RunReport;
use e3_simcore::SeedSplitter;
use rand::Rng;

use crate::stats::Fnv;

/// The simulated outcome of one op, as the program reported it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host milliseconds the op's calls into the program took (outcome
    /// bookkeeping excluded).
    pub host_ms: f64,
    /// Simulated requests (or sequences) offered.
    pub offered: u64,
    /// Offered requests that reached a terminal state.
    pub terminal: u64,
    /// Completions within the SLO or deadline.
    pub within: u64,
    /// Simulated seconds the op covered.
    pub sim_secs: f64,
    /// Simulated end-to-end latency of every completed request.
    pub latencies_ms: Vec<f64>,
    /// Digest of the simulated outcome (byte-identity across commits).
    pub digest: u64,
    /// The full report, printed with `{:?}`; filled only when an exact
    /// comparison was asked for (traced runs).
    pub exact: Option<String>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Conservation check: every offered request reached a terminal state.
    pub fn check_conservation(&mut self, what: &str) {
        if self.terminal != self.offered {
            self.errors.push(format!(
                "{what}: {} terminal != {} offered",
                self.terminal, self.offered
            ));
        }
    }
}

/// Runs `f`, returning its result and its host time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// Adds a run report's simulated outcome to a digest.
pub fn digest_report(h: &mut Fnv, r: &RunReport) {
    h.u64(r.duration.as_nanos())
        .u64(r.completed)
        .u64(r.within_slo)
        .u64(r.dropped)
        .u64(r.correct)
        .u64(r.shed)
        .u64(r.tokens_generated)
        .u64(r.kv_preemptions)
        .u64(r.transfer_retries)
        .u64(r.transfer_aborts)
        .u64(r.exit_events.len() as u64);
    for &b in &r.mean_dispatch_batch {
        h.f64(b);
    }
    for &l in r.latency.samples_ms() {
        h.f64(l);
    }
}

/// Per-layer counters summed over traced ops (event counts, tokens,
/// probe timings taken outside spans).
pub type Counters = BTreeMap<&'static str, f64>;

pub fn add(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_default() += v;
}

pub fn get(c: &Counters, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0.0)
}

/// A stratified design for a pool of `cells x strata` ops. Each op sits
/// in one categorical cell (e.g. a batch size) and, on every continuous
/// axis, in one of `strata` equal slices of the axis's range; within a
/// cell each axis visits each slice exactly once (a Latin hypercube).
/// Every seed therefore yields the same proportions; the seed moves
/// values within their slices and pairs slices across axes. Cells take
/// turns along the pool, so every prefix of it (the warm-up ops, a last
/// partial pass) holds the cells in equal shares. This keeps the op mix,
/// and so the medians, steady from seed to seed, while every input still
/// comes from the seed.
pub struct Strata {
    seeds: SeedSplitter,
    cells: usize,
    strata: usize,
}

impl Strata {
    pub fn new(seed: u64, cells: usize, strata: usize) -> Self {
        Strata {
            seeds: SeedSplitter::new(seed),
            cells,
            strata,
        }
    }

    pub fn len(&self) -> usize {
        self.cells * self.strata
    }

    /// The categorical cell of the op at pool position `pos`.
    pub fn cell(&self, pos: usize) -> usize {
        pos % self.cells
    }

    /// The op's value on `axis`, in `[lo, hi)`.
    pub fn uniform(&self, axis: &str, pos: usize, lo: f64, hi: f64) -> f64 {
        let slice = permutation(&self.seeds, axis, self.strata)[pos / self.cells];
        let mut rng = self.seeds.rng_indexed(axis, pos as u64);
        let u: f64 = rng.gen();
        lo + (hi - lo) * (slice as f64 + u) / self.strata as f64
    }

    /// The op's own simulation seed.
    pub fn op_seed(&self, pos: usize) -> u64 {
        self.seeds.derive_indexed("op", pos as u64)
    }
}

/// A seeded permutation of `0..n`.
fn permutation(seeds: &SeedSplitter, label: &str, n: usize) -> Vec<usize> {
    let mut rng = seeds.rng(label);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..i + 1));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(s: &Strata) -> Vec<(usize, f64, f64)> {
        (0..s.len())
            .map(|p| {
                (
                    s.cell(p),
                    s.uniform("mix", p, 0.2, 0.9),
                    s.uniform("rate", p, 1.0, 2.0),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_parameters() {
        let (a, b, c) = (
            Strata::new(42, 5, 6),
            Strata::new(42, 5, 6),
            Strata::new(43, 5, 6),
        );
        assert_eq!(draws(&a), draws(&b));
        assert_eq!(a.op_seed(7), b.op_seed(7));
        assert_ne!(draws(&a), draws(&c));
        assert_ne!(a.op_seed(7), c.op_seed(7));
    }

    #[test]
    fn every_seed_fills_every_slice_of_every_cell() {
        for seed in 0..5 {
            let s = Strata::new(seed, 5, 8);
            assert_eq!(s.len(), 40);
            for axis in ["mix", "rate"] {
                let mut seen = [[0usize; 8]; 5];
                for p in 0..s.len() {
                    let v = s.uniform(axis, p, 0.2, 0.9);
                    assert!((0.2..0.9).contains(&v));
                    seen[s.cell(p)][((v - 0.2) / 0.7 * 8.0) as usize] += 1;
                }
                assert!(seen.iter().flatten().all(|&n| n == 1), "{axis}: {seen:?}");
            }
        }
    }

    #[test]
    fn every_prefix_shares_the_cells_evenly() {
        let s = Strata::new(1, 3, 10);
        for n in 1..=s.len() {
            let mut count = [0usize; 3];
            (0..n).for_each(|p| count[s.cell(p)] += 1);
            assert!(count.iter().max().unwrap() - count.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn seeds_reorder_the_slices() {
        let slices = |seed| {
            let s = Strata::new(seed, 3, 10);
            (0..30)
                .map(|p| (s.uniform("mix", p, 0.0, 10.0)) as usize)
                .collect::<Vec<_>>()
        };
        assert_ne!(slices(1), slices(2));
    }
}
