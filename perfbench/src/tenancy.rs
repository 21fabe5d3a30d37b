//! `multitenant_realloc`: one op is `MultiTenantSystem::run` with
//! `MarginalGoodput` on the paper's heterogeneous cluster: 2-4 NLP
//! tenants whose easy/hard mixes flip out of phase, with seeded demand
//! skew, reallocated every epoch (the fig_multitenant shape). Traced,
//! every `ClusterAllocator::allocate` call is its own span.

use std::cell::RefCell;
use std::time::Instant;

use e3_hardware::ClusterSpec;
use e3_optimizer::ValueOracle;
use e3_runtime::TaggedEventLog;
use e3_scenarios::{CheckerConfig, InvariantChecker, StreamScope};
use e3_tenancy::{
    ClusterAllocator, MarginalGoodput, MultiTenantReport, MultiTenantSystem, Shares, TenancyConfig,
    TenantDemand, TenantSpec,
};
use e3_workload::{DatasetModel, Phase};

use crate::outcome::{add, digest_report, get, timed, Counters, Outcome, Strata};
use crate::stats::Fnv;
use crate::trace::{LayerTotals, Tracer};
use crate::Workload;

/// Skew and mix slices per tenant count: 72 distinct ops. Op time grows
/// with the tenant count, so the median op sits among the 3-tenant ops
/// and needs many of them to stay put from seed to seed.
const STRATA: usize = 24;
const TENANTS: [usize; 3] = [2, 3, 4];
/// Cluster-wide requests per scheduling window, sized so allocation
/// (the `ValueOracle` DP solves) takes over half of an op.
const REQUESTS_PER_WINDOW: f64 = 1000.0;

pub struct MultiTenant {
    systems: Vec<MultiTenantSystem>,
    allocator: MarginalGoodput,
}

pub fn setup(seed: u64) -> MultiTenant {
    let s = Strata::new(seed, TENANTS.len(), STRATA);
    let systems = (0..s.len())
        .map(|i| {
            let skew = s.uniform("skew", i, 0.0, 1.0);
            let hard = s.uniform("hard-mix", i, 0.25, 0.5);
            let easy = s.uniform("easy-mix", i, 0.65, 0.9);
            let cfg = TenancyConfig {
                windows: 4,
                realloc_every: 1,
                profile_samples: 500,
                seed: s.op_seed(i),
                ..Default::default()
            };
            let horizon = cfg.window * cfg.windows as u64;
            let n = TENANTS[s.cell(i)];
            // Tenant 0 offers between an even share and 5/8 of the load.
            let first = 1.0 / n as f64 + skew * (0.625 - 1.0 / n as f64);
            let tenants = (0..n)
                .map(|t| {
                    let frac = if t == 0 {
                        first
                    } else {
                        (1.0 - first) / (n - 1) as f64
                    };
                    let (a, b) = if t % 2 == 0 {
                        (easy, hard)
                    } else {
                        (hard, easy)
                    };
                    let phases = [a, b]
                        .map(|mix| Phase {
                            dataset: DatasetModel::with_mix(mix),
                            duration: horizon / 2,
                        })
                        .to_vec();
                    TenantSpec::nlp(&format!("tenant{t}"), phases)
                        .with_demand((REQUESTS_PER_WINDOW * frac).round() as usize)
                })
                .collect();
            MultiTenantSystem::new(tenants, ClusterSpec::paper_heterogeneous(), cfg)
        })
        .collect();
    MultiTenant {
        systems,
        allocator: MarginalGoodput::default(),
    }
}

fn outcome(r: &MultiTenantReport, exact: bool) -> Outcome {
    let mut h = Fnv::default();
    let mut o = Outcome::default();
    for t in &r.tenants {
        for w in &t.windows {
            digest_report(&mut h, &w.run);
            o.terminal += w.run.completed + w.run.dropped;
            o.latencies_ms.extend_from_slice(w.run.latency.samples_ms());
        }
        o.offered += t.offered();
        o.within += t.within_slo();
    }
    for a in &r.allocations {
        for share in &a.shares {
            for (kind, n) in share {
                h.bytes(format!("{kind:?}").as_bytes()).u64(*n as u64);
            }
        }
    }
    o.sim_secs = r.horizon().as_secs_f64();
    o.digest = h.finish();
    o.exact = exact.then(|| format!("{r:?}"));
    o.check_conservation("tenant windows completed + dropped");
    o
}

/// `MarginalGoodput`, with each allocation decision in its own span and
/// the oracles' DP solves counted.
struct TracedAllocator<'t, 'c> {
    inner: &'t MarginalGoodput,
    tracer: RefCell<&'t mut Tracer>,
    counters: RefCell<&'c mut Counters>,
}

impl ClusterAllocator for TracedAllocator<'_, '_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(
        &self,
        cluster: &ClusterSpec,
        demands: &[TenantDemand],
        oracles: &mut [ValueOracle<'_>],
    ) -> Shares {
        let id = self.tracer.borrow_mut().enter("tenancy.alloc");
        let shares = self.inner.allocate(cluster, demands, oracles);
        self.tracer.borrow_mut().exit(id);
        let solved: usize = oracles.iter().map(ValueOracle::subsets_solved).sum();
        add(
            &mut self.counters.borrow_mut(),
            "optimizer.oracle_solves",
            solved as f64,
        );
        shares
    }
}

impl Workload for MultiTenant {
    fn ops(&self) -> usize {
        self.systems.len()
    }

    fn run(&self, i: usize, exact: bool) -> Outcome {
        let (r, host_ms) = timed(|| self.systems[i].run(&self.allocator));
        Outcome {
            host_ms,
            ..outcome(&r, exact)
        }
    }

    fn run_traced(&self, i: usize, t: &mut Tracer, c: &mut Counters) -> Outcome {
        let sys = &self.systems[i];
        let mut log = TaggedEventLog::new();
        let root = t.enter("op");
        let run = t.enter("tenancy.run");
        let report = {
            let alloc = TracedAllocator {
                inner: &self.allocator,
                tracer: RefCell::new(&mut *t),
                counters: RefCell::new(&mut *c),
            };
            sys.run_observed(&alloc, &mut log)
        };
        t.exit(run);
        t.exit(root);
        add(c, "tenancy.events", log.events.len() as f64);

        let mut o = outcome(&report, true);
        let start = Instant::now();
        let cfg = CheckerConfig {
            scope: StreamScope::Windowed,
            ..Default::default()
        };
        let mut violations = Vec::new();
        for tag in 0..sys.tenants().len() as u32 {
            violations.extend(InvariantChecker::check_tagged(cfg, &log, tag));
        }
        add(c, "invariant.ns", start.elapsed().as_nanos() as f64);
        add(c, "invariant.events", log.events.len() as f64);
        add(c, "invariant.violations", violations.len() as f64);
        if let Some(v) = violations.first() {
            o.errors.push(format!("invariant violation: {v}"));
        }
        o
    }

    fn layer_metrics(
        &self,
        op: &LayerTotals,
        _probe: &LayerTotals,
        c: &Counters,
    ) -> Vec<(&'static str, f64)> {
        let ops = op.count("tenancy.run").max(1) as f64;
        let alloc_ns = op.total_ns("tenancy.alloc") as f64;
        let run_ns = op.total_ns("tenancy.run") as f64;
        vec![
            ("tenancy.alloc_ms", alloc_ns / ops / 1e6),
            ("tenancy.serve_ms", (run_ns - alloc_ns) / ops / 1e6),
            (
                "tenancy.events_per_s",
                get(c, "tenancy.events") / run_ns * 1e9,
            ),
            (
                "optimizer.oracle_solves",
                get(c, "optimizer.oracle_solves") / ops,
            ),
            (
                "invariant.ns_per_event",
                get(c, "invariant.ns") / get(c, "invariant.events"),
            ),
            ("invariant.violations", get(c, "invariant.violations")),
        ]
    }

    fn dominant(&self) -> &'static [&'static str] {
        &["tenancy.alloc"]
    }
}
