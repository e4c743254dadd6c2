//! `fleet_observed`: a two-tenant skewed Poisson mix on a 4-server fleet
//! through the serverless backend, with telemetry and the obs plane on.
//!
//! A "hot" tenant floods short functions (0.3 GPU-s at 6 req/s) and a
//! "cold" tenant sends sparse long ones (1.2 GPU-s at 1.2 req/s): 3.24
//! GPU-s/s offered against 4 GPUs. Admission caps the platform at 8
//! functions in flight, so about a fifth of the requests is shed by
//! design. The fleet
//! routes load-aware with bounded sticky placement, queues per tenant with
//! MQFQ, admits under a weighted-fair budget and autoscales predictively
//! from the obs plane. After each run the benchmark exports `metrics.json`
//! and `trace.json` (written to disk once per benchmark run, outside the
//! timed region), assembles every request's trace tree, runs
//! attribution and SLO burn, and renders the obs dashboard. This is the
//! only workload where the sinks and the backend paths do real work. A
//! pass runs four such fleets, each with its own seed derived from the
//! workload seed.

use std::path::Path;
use std::sync::Arc;

use dgsf::cuda::{CudaResult, KernelDef};
use dgsf::gpu::GB;
use dgsf::prelude::*;
use dgsf::sim::trace::{assemble, attribute, slo_burn, SloPolicy};
use dgsf::sim::{ProcCtx, TelemetryExport};

use crate::decor::{self, Decorated, Layer};
use crate::spans;
use crate::stats::{digest_migrations, digest_results, Digest};

/// Independent fleet runs per pass, each seeded from the workload seed:
/// the shed share moves with the arrival draw, so a pass averages several
/// runs instead of one long one.
const REPLICAS: u64 = 4;
/// Arrival window of each run, virtual seconds.
const WINDOW_SECS: u64 = 60;
/// Hot tenant: offered milli-requests/second and GPU seconds per call.
const HOT_RPS_MILLI: u64 = 6_000;
const HOT_SECS: f64 = 0.3;
/// Cold tenant: offered milli-requests/second and GPU seconds per call.
const COLD_RPS_MILLI: u64 = 1_200;
const COLD_SECS: f64 = 1.2;

/// A timed-kernel function with a configurable footprint.
struct Spin {
    name: &'static str,
    secs: f64,
    mem: u64,
}

impl Workload for Spin {
    fn name(&self) -> &str {
        self.name
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")))
    }
    fn required_gpu_mem(&self) -> u64 {
        self.mem
    }
    fn download_bytes(&self) -> u64 {
        0
    }
    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()> {
        rec.enter(p, dgsf::serverless::phase::PROCESSING);
        api.launch_kernel(
            p,
            "k",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(self.secs, 0),
        )?;
        api.device_synchronize(p)?;
        rec.close(p);
        Ok(())
    }
    fn cpu_secs(&self) -> f64 {
        30.0
    }
}

/// The platform under test, with the obs plane on or off.
fn platform(seed: u64, obs: bool) -> PlatformConfig {
    let autoscale = AutoscaleConfig::new(1, 2)
        .with_target_queue_delay(Dur::from_millis(250))
        .with_up_ticks(4)
        .with_idle_ttl(Dur::from_secs(3))
        .with_cooldown(Dur::from_millis(600))
        .with_predictive(PredictiveConfig::default());
    let cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(
            GpuServerConfig::paper_default()
                .gpus(1)
                .sharing(2)
                .with_autoscale(autoscale),
        )
        .with_num_servers(4)
        .with_fleet_policy(FleetPolicy::LoadAware)
        .with_sticky(StickyConfig::new().with_max_share(500))
        .with_mqfq(
            MqfqConfig::new()
                .with_weight("hot", 1)
                .with_weight("cold", 1),
        )
        .with_max_inflight(8)
        .with_max_queue_age(Dur::from_millis(3_000))
        .with_weighted_fair(
            FairShedConfig::new()
                .with_weight("hot", 1)
                .with_weight("cold", 1)
                .with_burst(2)
                .with_refill(1_000),
        );
    if obs {
        cfg.with_obs(ObsConfig::paper_default().with_window(Dur::from_secs(2)))
    } else {
        cfg
    }
}

fn slo_policy() -> SloPolicy {
    SloPolicy {
        target_e2e: Dur::from_secs(2),
        error_budget_permille: 100,
    }
}

/// Inputs of one fleet run.
struct Replica {
    schedule: Schedule,
    seed: u64,
}

/// Inputs of one pass.
pub struct Prepared {
    suite: Vec<Arc<dyn Workload>>,
    replicas: Vec<Replica>,
}

/// What one fleet run produced.
pub struct FleetRun {
    /// The backend run.
    pub run: BackendRunOutput,
    /// Requests launched.
    pub launched: u64,
    /// Trees whose critical-path segments do not sum to their latency.
    pub broken_trees: u64,
}

/// What one pass produced.
pub struct Output {
    /// Every fleet run, in order.
    pub runs: Vec<FleetRun>,
    /// The last fleet run's `metrics.json` and `trace.json`.
    pub export: Option<TelemetryExport>,
    /// Bytes of `metrics.json` plus `trace.json`, summed over runs.
    pub export_bytes: u64,
    /// Trace trees assembled.
    pub trees: u64,
    /// Telemetry records (spans plus instants); counted on traced passes.
    pub records: u64,
}

/// Build the suite, schedules and platform seeds from `seed`.
pub fn setup(seed: u64) -> Prepared {
    setup_window(seed, WINDOW_SECS)
}

/// [`setup`] with another arrival window (tests use short ones).
pub fn setup_window(seed: u64, window_secs: u64) -> Prepared {
    let suite: Vec<Arc<dyn Workload>> = vec![
        Arc::new(Tenanted::new(
            "hot",
            Spin {
                name: "hot-spin",
                secs: HOT_SECS,
                mem: GB,
            },
        )),
        Arc::new(Tenanted::new(
            "cold",
            Spin {
                name: "cold-spin",
                secs: COLD_SECS,
                mem: 4 * GB,
            },
        )),
    ];
    let stream = |rate_milli: u64| ArrivalPattern::Exponential {
        mean: Dur(1_000_000_000_000 / rate_milli),
    };
    let launches = |rate_milli: u64| (rate_milli * window_secs / 1000) as usize;
    let replicas = (0..REPLICAS)
        .map(|i| {
            let seed = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let schedule = Schedule::merged(
                seed,
                &[
                    (0, launches(HOT_RPS_MILLI), stream(HOT_RPS_MILLI)),
                    (1, launches(COLD_RPS_MILLI), stream(COLD_RPS_MILLI)),
                ],
            );
            Replica { schedule, seed }
        })
        .collect();
    Prepared { suite, replicas }
}

/// Run the pass (the timed region). Per fleet run: the platform run with
/// telemetry and obs on, then the exports, trace assembly, attribution,
/// SLO burn and dashboard. `traced` decorates the workloads and spans the
/// sink calls.
pub fn run(prep: &Prepared, traced: bool) -> Output {
    let suite: Vec<Arc<dyn Workload>> = if traced {
        prep.suite
            .iter()
            .map(|w| Decorated::wrap(Arc::clone(w), Layer::Guest))
            .collect()
    } else {
        prep.suite.clone()
    };
    let mut out = Output {
        runs: Vec::with_capacity(prep.replicas.len()),
        export: None,
        export_bytes: 0,
        trees: 0,
        records: 0,
    };
    for replica in &prep.replicas {
        let cfg = platform(replica.seed, true);
        let (run, tel) = decor::runner(|| {
            Testbed::run_platform_schedule_traced(&cfg, &suite, &replica.schedule)
        });
        let export = spans::timed("sim.telemetry.export", 0, 0, || tel.export());
        out.export_bytes += (export.metrics_json.len() + export.chrome_trace_json.len()) as u64;
        out.export = Some(export);
        let trees = spans::timed("sim.trace.assemble", 0, 0, || assemble(&tel));
        let broken_trees = trees
            .iter()
            .filter(|t| t.segment_total() != t.e2e())
            .count() as u64;
        let groups = spans::timed("sim.trace.attribute", 0, 0, || attribute(&trees, 5));
        let burn = spans::timed("sim.trace.slo_burn", 0, 0, || {
            slo_burn(&trees, &slo_policy())
        });
        let dashboard = spans::timed("sim.obs.dashboard", 0, 0, || {
            run.obs.as_ref().map(|o| o.dashboard_json())
        });
        std::hint::black_box((groups, burn, dashboard));
        out.trees += trees.len() as u64;
        if traced {
            out.records += (tel.spans().len() + tel.instants().len()) as u64;
        }
        out.runs.push(FleetRun {
            launched: replica.schedule.len() as u64,
            broken_trees,
            run,
        });
    }
    out
}

/// Write an export as `metrics.json` and `trace.json` under `out_dir`.
pub fn write_export(export: &TelemetryExport, out_dir: &Path) -> std::io::Result<()> {
    std::fs::write(out_dir.join("metrics.json"), &export.metrics_json)?;
    std::fs::write(out_dir.join("trace.json"), &export.chrome_trace_json)
}

/// The platform runs alone, with telemetry and the obs plane switched
/// independently: the sink-overhead arms of the traced run. Returns the
/// runners' wall ns and the digest of their outputs.
pub fn runner_arm(prep: &Prepared, telemetry: bool, obs: bool) -> (u64, u64) {
    let mut wall = 0;
    let mut d = Digest::default();
    for replica in &prep.replicas {
        let cfg = platform(replica.seed, obs);
        let t0 = spans::now_ns();
        let run = if telemetry {
            Testbed::run_platform_schedule_traced(&cfg, &prep.suite, &replica.schedule).0
        } else {
            Testbed::run_platform_schedule(&cfg, &prep.suite, &replica.schedule)
        };
        wall += spans::now_ns() - t0;
        digest_run(&mut d, &run);
    }
    (wall, d.value())
}

fn digest_run(d: &mut Digest, run: &BackendRunOutput) {
    digest_results(d, &run.results);
    for migs in &run.migrations {
        digest_migrations(d, migs);
    }
    d.push(run.completed() as u64);
    d.push(run.shed() as u64);
    d.push(run.failed() as u64);
}

impl Output {
    /// Digest of the virtual-time output: per fleet run, every request's
    /// end-to-end ns and outcome, every migration, and the outcome counts.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.runs {
            digest_run(&mut d, &r.run);
        }
        d.value()
    }

    /// Every function result, run by run.
    pub fn results(&self) -> impl Iterator<Item = &dgsf::serverless::FunctionResult> {
        self.runs.iter().flat_map(|r| &r.run.results)
    }

    /// Requests launched.
    pub fn launched(&self) -> u64 {
        self.runs.iter().map(|r| r.launched).sum()
    }

    /// Requests shed.
    pub fn shed(&self) -> u64 {
        self.runs.iter().map(|r| r.run.shed() as u64).sum()
    }

    /// Retries across all requests (attempts beyond the first).
    pub fn retries(&self) -> u64 {
        self.results()
            .map(|r| r.attempts.saturating_sub(1) as u64)
            .sum()
    }

    /// The output checks, per fleet run: the exactly-once oracle,
    /// completed + shed + failed = launched, and every trace tree
    /// partitions its latency.
    pub fn check(&self) -> Result<(), String> {
        for (i, r) in self.runs.iter().enumerate() {
            let report = dgsf::check_backend_run(&r.run);
            if !report.ok() {
                return Err(format!(
                    "fleet run {i}: {} invariant violation(s), first: {:?}",
                    report.violations.len(),
                    report.violations.first()
                ));
            }
            let (c, s, f) = (r.run.completed(), r.run.shed(), r.run.failed());
            if (c + s + f) as u64 != r.launched || r.run.results.len() as u64 != r.launched {
                return Err(format!(
                    "fleet run {i}: completed {c} + shed {s} + failed {f} != launched {}",
                    r.launched
                ));
            }
            if r.broken_trees > 0 {
                return Err(format!(
                    "fleet run {i}: {} trace trees do not partition their latency",
                    r.broken_trees
                ));
            }
        }
        Ok(())
    }
}
