//! `edge_offload`: one op is `EdgeFleet::run` under `DeadlineAware` for
//! a seeded edge cell (WAN quality x deadline): Orin-class devices and
//! memory-starved Coral-class devices, each with its own open-loop
//! arrivals, offloading suffixes to 4 V100s.

use std::time::Instant;

use e3_edge::{DeadlineAware, EdgeClassSpec, EdgeConfig, EdgeFleet, EdgeReport, WanSpec};
use e3_hardware::{ClusterSpec, GpuKind, JitteredLink, LatencyModel, LinkKind, LinkOutages};
use e3_model::{InferenceSim, RampController};
use e3_optimizer::edge::EdgeSplitTables;
use e3_scenarios::check_offload_conservation;
use e3_simcore::{SeedSplitter, SimDuration};
use e3_workload::DatasetModel;

use crate::outcome::{add, digest_report, get, timed, Counters, Outcome, Strata};
use crate::stats::Fnv;
use crate::trace::{LayerTotals, Tracer};
use crate::Workload;

/// Deadline slices per WAN link quality: 180 distinct ops. The slowest
/// ops (flaky links) are few, so p90 needs a large pool to stay put from
/// seed to seed.
const STRATA: usize = 60;
/// The scenario matrix's edge cell at its per-device load, run for eight
/// times as many windows: its 3-window ops last only 1-4 ms.
const WINDOWS: usize = 24;
const ORIN_REQUESTS: usize = 3;
const CORAL_REQUESTS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Link {
    Fiber,
    Cellular,
    FlakyCellular,
}

const LINKS: [Link; 3] = [Link::Fiber, Link::Cellular, Link::FlakyCellular];

fn wan(link: Link, seed: u64, horizon: SimDuration) -> WanSpec {
    let cellular = JitteredLink::new(LinkKind::WanCellular, 0.3, seed);
    match link {
        Link::Fiber => WanSpec::healthy(LinkKind::WanFiber),
        Link::Cellular => WanSpec {
            link: cellular,
            outages: LinkOutages::none(),
            result_bytes: 4 * 1024,
        },
        Link::FlakyCellular => WanSpec {
            link: cellular,
            outages: LinkOutages::seeded(
                seed ^ 0xF1A4,
                SimDuration::from_millis(600),
                SimDuration::from_millis(200),
                horizon,
            ),
            result_bytes: 4 * 1024,
        },
    }
}

pub struct EdgeOffload {
    fleets: Vec<EdgeFleet>,
}

pub fn setup(seed: u64) -> EdgeOffload {
    let s = Strata::new(seed, LINKS.len(), STRATA);
    let fleets = (0..s.len())
        .map(|i| {
            let link = LINKS[s.cell(i)];
            let deadline = s.uniform("deadline-ms", i, 120.0, 300.0);
            let window = SimDuration::from_secs(1);
            let horizon = window * WINDOWS as u64;
            let op_seed = s.op_seed(i);
            let wan_seed = SeedSplitter::new(op_seed).derive("wan");
            let classes = vec![
                EdgeClassSpec {
                    name: "orin".into(),
                    tier: GpuKind::OrinNx,
                    wan: wan(link, wan_seed, horizon),
                    devices: 24,
                    requests_per_device_window: ORIN_REQUESTS,
                    dataset: DatasetModel::with_mix(0.6),
                },
                EdgeClassSpec {
                    name: "coral".into(),
                    tier: GpuKind::CoralNpu,
                    wan: wan(link, wan_seed ^ 1, horizon),
                    devices: 16,
                    requests_per_device_window: CORAL_REQUESTS,
                    dataset: DatasetModel::with_mix(0.55),
                },
            ];
            EdgeFleet::new(EdgeConfig {
                profile_samples: 400,
                ..EdgeConfig::deebert(
                    classes,
                    WINDOWS,
                    window,
                    SimDuration::from_millis_f64(deadline.round()),
                    ClusterSpec::homogeneous(GpuKind::V100, 4, 2),
                    op_seed,
                )
            })
        })
        .collect();
    EdgeOffload { fleets }
}

fn run_fleet(fleet: &EdgeFleet) -> EdgeReport {
    fleet.run(&mut |_, tables| Box::new(DeadlineAware::new(tables)))
}

fn outcome(fleet: &EdgeFleet, r: &EdgeReport, exact: bool) -> Outcome {
    let mut h = Fnv::default();
    let mut o = Outcome::default();
    for c in &r.classes {
        digest_report(&mut h, &c.run);
        h.u64(c.offloaded)
            .u64(c.aborted)
            .u64(c.transfer_retries)
            .f64(c.mean_boundary);
        o.offered += c.requests;
        o.terminal +=
            c.local_exits + c.local_completions + c.aborted + c.cloud_dropped + c.cloud_completed;
        o.within += c.run.within_slo;
        o.latencies_ms.extend_from_slice(c.run.latency.samples_ms());
        // `offloaded` counts uploads that reached the cluster; aborted
        // uploads are counted apart.
        if c.offloaded != c.cloud_dropped + c.cloud_completed {
            o.errors.push(format!(
                "class {}: {} offloaded != cloud dropped + completed",
                c.name, c.offloaded
            ));
        }
    }
    h.u64(r.events.len() as u64);
    o.sim_secs = fleet.config().horizon().as_secs_f64();
    o.digest = h.finish();
    o.exact = exact.then(|| format!("{r:?}"));
    o.check_conservation("edge terminals");
    o
}

impl Workload for EdgeOffload {
    fn ops(&self) -> usize {
        self.fleets.len()
    }

    fn run(&self, i: usize, exact: bool) -> Outcome {
        let fleet = &self.fleets[i];
        let (r, host_ms) = timed(|| run_fleet(fleet));
        Outcome {
            host_ms,
            ..outcome(fleet, &r, exact)
        }
    }

    fn run_traced(&self, i: usize, t: &mut Tracer, c: &mut Counters) -> Outcome {
        let fleet = &self.fleets[i];
        let root = t.enter("op");
        let report = t.span("edge.fleet", |_| run_fleet(fleet));
        t.exit(root);
        for cl in &report.classes {
            add(c, "edge.requests", cl.requests as f64);
            add(c, "edge.uploads", (cl.offloaded + cl.aborted) as f64);
            add(c, "edge.aborted", cl.aborted as f64);
            add(c, "edge.retries", cl.transfer_retries as f64);
        }

        // Probe: the fleet's per-class split-pricing tables, rebuilt from
        // the same seeded profile the fleet measures.
        let cfg = fleet.config();
        let seeds = SeedSplitter::new(cfg.seed);
        let ctrl = RampController::all_enabled(cfg.model.num_ramps(), cfg.policy.ramp_style());
        let lm = LatencyModel::new();
        let probe = t.enter("probe");
        for (ci, class) in cfg.classes.iter().enumerate() {
            let mut rng = seeds.rng_indexed("edge-profile", ci as u64);
            let hardnesses = class
                .dataset
                .sample_hardnesses(cfg.profile_samples, &mut rng);
            let profile = InferenceSim::new().exit_profile(
                &cfg.model,
                &cfg.policy,
                &ctrl,
                &hardnesses,
                &mut rng,
            );
            t.span("optimizer.edge_tables", |_| {
                EdgeSplitTables::build(
                    &cfg.model,
                    &ctrl,
                    &profile,
                    class.tier,
                    &lm,
                    cfg.cluster.gpus()[0].kind,
                    cfg.cluster_batch,
                    &lm,
                )
            });
        }
        t.exit(probe);

        let start = Instant::now();
        let violations = check_offload_conservation(&report.events);
        add(c, "invariant.ns", start.elapsed().as_nanos() as f64);
        add(c, "invariant.events", report.events.len() as f64);
        add(c, "invariant.violations", violations.len() as f64);
        let mut o = outcome(fleet, &report, true);
        if let Some(v) = violations.first() {
            o.errors
                .push(format!("offload-conservation violation: {v}"));
        }
        o
    }

    fn layer_metrics(
        &self,
        op: &LayerTotals,
        probe: &LayerTotals,
        c: &Counters,
    ) -> Vec<(&'static str, f64)> {
        let ops = op.count("edge.fleet").max(1) as f64;
        let uploads = get(c, "edge.uploads");
        vec![
            (
                "edge.fleet_ms",
                op.total_ns("edge.fleet") as f64 / ops / 1e6,
            ),
            (
                "optimizer.edge_tables_ms",
                probe.total_ns("optimizer.edge_tables") as f64 / ops / 1e6,
            ),
            ("edge.offload_frac", uploads / get(c, "edge.requests")),
            ("edge.abort_frac", get(c, "edge.aborted") / uploads),
            ("edge.retries_per_offload", get(c, "edge.retries") / uploads),
            (
                "invariant.ns_per_event",
                get(c, "invariant.ns") / get(c, "invariant.events"),
            ),
            ("invariant.violations", get(c, "invariant.violations")),
        ]
    }

    fn dominant(&self) -> &'static [&'static str] {
        &["edge.fleet"]
    }
}
