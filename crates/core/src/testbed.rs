//! The experiment testbed: one-call orchestration of the paper's
//! measurement setups.
//!
//! Every table and figure in §VIII boils down to: provision a GPU server
//! with some configuration, launch a schedule of workloads against it (or
//! run single workloads natively / on CPU), and collect end-to-end times,
//! queue delays, phase breakdowns and utilization timelines. [`Testbed`]
//! packages exactly that, deterministically per seed.

use std::sync::Arc;

use dgsf_cuda::CostTable;
use dgsf_remoting::OptConfig;
use dgsf_server::{GpuServer, GpuServerConfig, InvocationRecord, MigrationRecord};
use dgsf_serverless::{
    invoke_cpu, invoke_native, Backend, FunctionResult, InvokeOptions, Invoker, ObjectStore,
    Schedule, Workload,
};
use dgsf_sim::{
    Dur, ObsConfig, ObsPlane, ObsReport, ProcCtx, Sim, SimHandle, SimTime, Telemetry, Timeline,
    TraceOutcome,
};
use parking_lot::Mutex;

use crate::PlatformConfig;

/// Configuration of one experiment run.
///
/// A thin single-server view of [`PlatformConfig`] — the
/// consolidated builder is the documented entry point; this type remains
/// for the testbed's single-server runners.
#[derive(Clone)]
pub struct TestbedConfig {
    /// RNG seed (arrivals, jitter).
    pub seed: u64,
    /// GPU server shape and policies.
    pub server: GpuServerConfig,
    /// Guest-library optimization level.
    pub opts: OptConfig,
}

impl TestbedConfig {
    /// The paper's default: 4 GPUs, no sharing, full optimizations.
    pub fn paper_default() -> TestbedConfig {
        TestbedConfig {
            seed: 42,
            server: GpuServerConfig::paper_default(),
            opts: OptConfig::full(),
        }
    }
}

/// Everything a schedule run produced.
pub struct RunOutput {
    /// Per-function results, in completion order.
    pub results: Vec<FunctionResult>,
    /// GPU-server-side invocation records (queue delays etc.).
    pub records: Vec<InvocationRecord>,
    /// Completed migrations.
    pub migrations: Vec<MigrationRecord>,
    /// Compute busy timelines, one per GPU.
    pub gpu_timelines: Vec<Timeline>,
    /// When the first function launched.
    pub first_launch: SimTime,
    /// When the last function finished — the provider's end-to-end time.
    pub all_done: SimTime,
}

impl RunOutput {
    /// Provider end-to-end time: launch of the first function to completion
    /// of the last (Tables III/IV's "End to end").
    pub fn provider_e2e(&self) -> Dur {
        self.all_done.since(self.first_launch)
    }

    /// Sum of every function's end-to-end time (Tables III/IV's
    /// "Function E2E Sum").
    pub fn function_e2e_sum(&self) -> Dur {
        self.results.iter().fold(Dur::ZERO, |acc, r| acc + r.e2e())
    }

    /// Mean GPU utilization (busy-time fraction) over `[a, b)`.
    pub fn mean_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        if b <= a || self.gpu_timelines.is_empty() {
            return 0.0;
        }
        let span = b.since(a).as_secs_f64();
        let total: f64 = self
            .gpu_timelines
            .iter()
            .map(|tl| tl.busy_between(a, b).as_secs_f64() / span)
            .sum();
        total / self.gpu_timelines.len() as f64
    }

    /// Results for one workload name.
    pub fn by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FunctionResult> {
        self.results.iter().filter(move |r| r.name == name)
    }

    /// Queue delays (seconds) for one workload name, via server records.
    pub fn queue_delays(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .filter_map(|r| r.queue_delay())
            .map(|d| d.as_secs_f64())
            .collect()
    }
}

/// Everything a backend-level schedule run produced.
pub struct BackendRunOutput {
    /// Per-function results in completion order — including shed ones
    /// ([`FunctionResult::shed`]), which is the point of running through
    /// the backend.
    pub results: Vec<FunctionResult>,
    /// Server-side invocation records, one `Vec` per fleet member.
    pub records: Vec<Vec<InvocationRecord>>,
    /// Committed migrations, one `Vec` per fleet member.
    pub migrations: Vec<Vec<MigrationRecord>>,
    /// Final API-server pool size per fleet member (autoscaled fleets may
    /// differ from the provisioned count).
    pub pool_sizes: Vec<usize>,
    /// When the first function launched.
    pub first_launch: SimTime,
    /// When the last function finished (completed or shed).
    pub all_done: SimTime,
    /// Observability report (windows, alerts, health) when the run was
    /// configured with [`PlatformConfig::obs`]; `None` otherwise.
    pub obs: Option<ObsReport>,
}

impl BackendRunOutput {
    /// Functions that completed successfully.
    pub fn completed(&self) -> usize {
        self.count(TraceOutcome::Completed)
    }

    /// Functions shed by admission control / overload.
    pub fn shed(&self) -> usize {
        self.count(TraceOutcome::Shed)
    }

    /// Functions that failed for any non-shed reason.
    pub fn failed(&self) -> usize {
        self.count(TraceOutcome::Failed)
    }

    fn count(&self, outcome: TraceOutcome) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome() == outcome)
            .count()
    }
}

/// Deterministic experiment orchestration.
pub struct Testbed;

impl Testbed {
    /// Run a mixed-workload `schedule` against a freshly provisioned GPU
    /// server. Each schedule entry spawns one warm function at its launch
    /// time; the run ends when every function completed.
    pub fn run_schedule(
        cfg: &TestbedConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
    ) -> RunOutput {
        Self::run_schedule_inner(cfg, suite, schedule, false).0
    }

    /// [`run_schedule`](Self::run_schedule) with telemetry recording on:
    /// also returns the run's telemetry registry, ready to export or to
    /// assert against. Same seed ⇒ byte-identical exports.
    pub fn run_schedule_traced(
        cfg: &TestbedConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
    ) -> (RunOutput, Arc<Telemetry>) {
        Self::run_schedule_inner(cfg, suite, schedule, true)
    }

    fn run_schedule_inner(
        cfg: &TestbedConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
        trace: bool,
    ) -> (RunOutput, Arc<Telemetry>) {
        let store = Arc::new(ObjectStore::new(cfg.server.net.s3_bw));
        let server_cfg = cfg.server.clone();
        let opts = cfg.opts;
        let suite: Vec<Arc<dyn Workload>> = suite.to_vec();
        let schedule = schedule.clone();
        let ((results, (records, migrations, gpu_timelines)), telemetry) =
            simulate(cfg.seed, trace, None, "platform-root", move |p, h, out| {
                let server = GpuServer::provision(p, h, server_cfg);
                let server2 = Arc::clone(&server);
                launch(
                    h,
                    &schedule,
                    &suite,
                    out,
                    move |p, w| {
                        Invoker::new(&server, &store)
                            .invoke(p, w, InvokeOptions::new(opts))
                            .expect("schedule runs fault-free")
                    },
                    move || {
                        let timelines: Vec<Timeline> =
                            server2.gpus.iter().map(|g| g.compute_timeline()).collect();
                        (server2.records(), server2.migrations(), timelines)
                    },
                );
            });
        let (first_launch, all_done) = window(&results);
        (
            RunOutput {
                results,
                records,
                migrations,
                gpu_timelines,
                first_launch,
                all_done,
            },
            telemetry,
        )
    }

    /// Run a schedule through the serverless backend on a platform
    /// described by one consolidated [`PlatformConfig`]: a fleet of
    /// `cfg.num_servers` GPU servers behind the cluster balancer's
    /// routing (`cfg.policy`), retries and (optionally) admission control.
    /// Unlike [`run_schedule`](Self::run_schedule), every launch always
    /// yields a [`FunctionResult`] — overload turns into shed results, not
    /// panics — so saturation experiments terminate.
    ///
    /// # Panics
    ///
    /// If [`PlatformConfig::validate`] rejects `cfg`.
    pub fn run_platform_schedule(
        cfg: &PlatformConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
    ) -> BackendRunOutput {
        Self::run_fleet(cfg, suite, schedule, false).0
    }

    /// [`run_platform_schedule`](Self::run_platform_schedule) with
    /// telemetry recording on. Same seed ⇒ byte-identical exports.
    pub fn run_platform_schedule_traced(
        cfg: &PlatformConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
    ) -> (BackendRunOutput, Arc<Telemetry>) {
        Self::run_fleet(cfg, suite, schedule, true)
    }

    fn run_fleet(
        cfg: &PlatformConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
        trace: bool,
    ) -> (BackendRunOutput, Arc<Telemetry>) {
        if let Err(e) = cfg.validate() {
            panic!("invalid PlatformConfig: {e}");
        }
        assert!(cfg.num_servers >= 1, "a fleet needs at least one server");
        let store = Arc::new(ObjectStore::new(cfg.server.net.s3_bw));
        let cfg2 = cfg.clone();
        let suite: Vec<Arc<dyn Workload>> = suite.to_vec();
        let schedule = schedule.clone();
        let obs = cfg.obs.clone();
        let ((results, (records, migrations, pool_sizes)), telemetry) =
            simulate(cfg.seed, trace, obs, "platform-root", move |p, h, out| {
                let fleet: Vec<Arc<GpuServer>> = (0..cfg2.num_servers)
                    .map(|_| GpuServer::provision(p, h, cfg2.server.clone()))
                    .collect();
                let mut backend = Backend::new(fleet.clone(), cfg2.policy);
                if let Some(adm) = cfg2.admission.clone() {
                    backend = backend.with_admission(adm);
                }
                if let Some(sticky) = cfg2.sticky.clone() {
                    backend = backend.with_sticky(sticky);
                }
                launch(
                    h,
                    &schedule,
                    &suite,
                    out,
                    move |p, w| backend.invoke(p, &store, w, OptConfig::full()),
                    move || {
                        let records: Vec<Vec<InvocationRecord>> =
                            fleet.iter().map(|s| s.records()).collect();
                        let migrations: Vec<Vec<MigrationRecord>> =
                            fleet.iter().map(|s| s.migrations()).collect();
                        let pools: Vec<usize> = fleet.iter().map(|s| s.pool_size()).collect();
                        (records, migrations, pools)
                    },
                );
            });
        let (first_launch, all_done) = window(&results);
        let out = BackendRunOutput {
            results,
            records,
            migrations,
            pool_sizes,
            first_launch,
            all_done,
            obs: telemetry.obs().map(ObsPlane::report),
        };
        // Every fleet run is oracle-checked in debug builds.
        #[cfg(debug_assertions)]
        crate::check_backend_run(&out).assert_ok();
        (out, telemetry)
    }

    /// Run one workload alone over DGSF (warm server, no contention).
    pub fn run_dgsf_once(cfg: &TestbedConfig, w: Arc<dyn Workload>) -> FunctionResult {
        let suite = vec![w];
        let schedule = Schedule {
            entries: vec![(SimTime::ZERO, 0)],
        };
        let out = Self::run_schedule(cfg, &suite, &schedule);
        out.results.into_iter().next().expect("one function ran")
    }

    /// [`run_dgsf_once`](Self::run_dgsf_once) with telemetry recording on.
    pub fn run_dgsf_once_traced(
        cfg: &TestbedConfig,
        w: Arc<dyn Workload>,
    ) -> (FunctionResult, Arc<Telemetry>) {
        let suite = vec![w];
        let schedule = Schedule {
            entries: vec![(SimTime::ZERO, 0)],
        };
        let (out, tel) = Self::run_schedule_traced(cfg, &suite, &schedule);
        (
            out.results.into_iter().next().expect("one function ran"),
            tel,
        )
    }

    /// Run one workload natively (dedicated machine with a local GPU).
    pub fn run_native_once(seed: u64, costs: &CostTable, w: Arc<dyn Workload>) -> FunctionResult {
        Self::run_native_once_inner(seed, costs, w, false).0
    }

    /// [`run_native_once`](Self::run_native_once) with telemetry recording
    /// on.
    pub fn run_native_once_traced(
        seed: u64,
        costs: &CostTable,
        w: Arc<dyn Workload>,
    ) -> (FunctionResult, Arc<Telemetry>) {
        Self::run_native_once_inner(seed, costs, w, true)
    }

    fn run_native_once_inner(
        seed: u64,
        costs: &CostTable,
        w: Arc<dyn Workload>,
        trace: bool,
    ) -> (FunctionResult, Arc<Telemetry>) {
        let store = ObjectStore::new(dgsf_remoting::NetProfile::datacenter().s3_bw);
        let costs = Arc::new(costs.clone());
        simulate(seed, trace, None, "native-root", move |p, h, out| {
            *out.lock() = Some(invoke_native(p, h, &store, w.as_ref(), costs));
        })
    }

    /// Run one workload on the CPU baseline (6 threads, cost-modeled).
    pub fn run_cpu_once(seed: u64, w: Arc<dyn Workload>) -> FunctionResult {
        let store = ObjectStore::new(dgsf_remoting::NetProfile::datacenter().s3_bw);
        simulate(seed, false, None, "cpu-root", move |p, _, out| {
            *out.lock() = Some(invoke_cpu(p, &store, w.as_ref()));
        })
        .0
    }
}

/// Where a simulated run leaves its result: filled in by the root process
/// (or a process it spawned) and taken once the simulation drains.
type Slot<T> = Arc<Mutex<Option<T>>>;

/// The one simulation harness behind every runner: build a `Sim` seeded
/// with `seed` (telemetry recording iff `trace`, an obs plane iff `obs`),
/// run `root` as the process named `root_name` until the event queue
/// drains, and take what it left in its slot.
fn simulate<T: Send + 'static>(
    seed: u64,
    trace: bool,
    obs: Option<ObsConfig>,
    root_name: &str,
    root: impl FnOnce(&ProcCtx, &SimHandle, Slot<T>) + Send + 'static,
) -> (T, Arc<Telemetry>) {
    let mut sim = Sim::new(seed);
    let telemetry = sim.telemetry();
    if trace {
        telemetry.enable();
    }
    if let Some(cfg) = obs {
        telemetry.observe(cfg);
    }
    let h = sim.handle();
    let slot: Slot<T> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    sim.spawn(root_name, move |p| root(p, &h, out));
    sim.run();
    let r = slot.lock().take().expect("the run produced its result");
    (r, telemetry)
}

/// Spawn one process per `schedule` entry running `invoke`, plus a
/// collector that polls every 500 ms until every function has finished,
/// then fills `out` with the results (in finish order) and `snapshot()`.
fn launch<S: Send + 'static>(
    h: &SimHandle,
    schedule: &Schedule,
    suite: &[Arc<dyn Workload>],
    out: Slot<(Vec<FunctionResult>, S)>,
    invoke: impl Fn(&ProcCtx, &dyn Workload) -> FunctionResult + Send + Sync + 'static,
    snapshot: impl FnOnce() -> S + Send + 'static,
) {
    let invoke = Arc::new(invoke);
    let results = Arc::new(Mutex::new(Vec::new()));
    for (at, widx) in schedule.entries.iter().copied() {
        let w = Arc::clone(&suite[widx]);
        let invoke = Arc::clone(&invoke);
        let results = Arc::clone(&results);
        h.spawn_at(&format!("fn-{}-{widx}", at.as_nanos()), at, move |p| {
            let r = invoke(p, w.as_ref());
            results.lock().push(r);
        });
    }
    let n_functions = schedule.len();
    h.spawn("collector", move |p| {
        loop {
            p.sleep(Dur::from_millis(500));
            if results.lock().len() >= n_functions {
                break;
            }
        }
        let mut results = std::mem::take(&mut *results.lock());
        results.sort_by_key(|r| r.finished_at);
        *out.lock() = Some((results, snapshot()));
    });
}

/// First launch and last finish over a run's results (zero when empty).
fn window(results: &[FunctionResult]) -> (SimTime, SimTime) {
    let first_launch = results.iter().map(|r| r.launched_at).min();
    let all_done = results.iter().map(|r| r.finished_at).max();
    (
        first_launch.unwrap_or(SimTime::ZERO),
        all_done.unwrap_or(SimTime::ZERO),
    )
}
