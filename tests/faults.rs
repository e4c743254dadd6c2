//! Chaos tests for the fault-injection + recovery stack.
//!
//! The contract under test: with a seeded [`FaultPlan`] installed, every
//! invocation either completes or is reported failed after a bounded number
//! of attempts — none hang, none are silently lost — and the whole chaotic
//! timeline is reproducible byte-for-byte from the seed. An *empty* fault
//! plan must be invisible: bit-identical to a run with no plan at all.

use std::collections::BTreeMap;
use std::sync::Arc;

use dgsf::cuda::{CudaApi, CudaResult, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf::prelude::*;
use dgsf::remoting::FaultPlan;
use dgsf::server::{GpuServer, InvocationRecord};
use dgsf::serverless::{Backend, FleetPolicy, ObjectStore};
use dgsf::sim::trace::assemble;
use dgsf::sim::TraceOutcome;
use parking_lot::Mutex;

const GB: u64 = 1 << 30;

/// A function with one long timed kernel — long enough that a mid-run
/// server kill lands inside it.
struct SpinFn {
    secs: f64,
}

impl Workload for SpinFn {
    fn name(&self) -> &str {
        "spin"
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")))
    }
    fn required_gpu_mem(&self) -> u64 {
        GB
    }
    fn download_bytes(&self) -> u64 {
        0
    }
    fn run(
        &self,
        p: &dgsf::sim::ProcCtx,
        api: &mut dyn CudaApi,
        rec: &mut PhaseRecorder,
    ) -> CudaResult<()> {
        rec.enter(p, dgsf::serverless::phase::PROCESSING);
        api.launch_kernel(
            p,
            "k",
            LaunchConfig::linear(1 << 20, 256),
            KernelArgs::timed(self.secs, 0),
        )?;
        api.device_synchronize(p)?;
        rec.close(p);
        Ok(())
    }
    fn cpu_secs(&self) -> f64 {
        self.secs * 30.0
    }
}

fn t(secs: f64) -> SimTime {
    SimTime::ZERO + Dur::from_secs_f64(secs)
}

/// Comparable digest of one function outcome.
type ResultKey = (u64, u64, u32, Option<String>, Option<u64>);

/// Comparable digest of one server-side invocation record.
type RecordKey = (
    u64,
    String,
    u64,
    u64,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    u32,
);

fn record_key(r: &InvocationRecord) -> RecordKey {
    (
        r.invocation,
        r.name.clone(),
        r.requested_at.as_nanos(),
        r.mem,
        r.assigned_at.map(|x| x.as_nanos()),
        r.done_at.map(|x| x.as_nanos()),
        r.failed_at.map(|x| x.as_nanos()),
        r.attempts,
    )
}

/// Run `n` staggered functions through a two-server backend where server A
/// carries `faults` (`None`: the pre-chaos configuration, identical
/// explicit timeouts and no fault plan), with telemetry recording on. Returns (per-function
/// outcome digests in launch order, the concatenated record digests of both
/// servers, dropped-transfer count on the faulted link, the run's telemetry
/// registry).
fn chaos_run(
    seed: u64,
    n: usize,
    faults: Option<FaultPlan>,
) -> (
    Vec<ResultKey>,
    Vec<Vec<InvocationRecord>>,
    u64,
    Arc<dgsf::sim::Telemetry>,
) {
    let mut sim = Sim::new(seed);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let out: Arc<Mutex<Vec<(usize, ResultKey)>>> = Arc::new(Mutex::new(Vec::new()));
    let records: Arc<Mutex<Vec<Vec<InvocationRecord>>>> = Arc::new(Mutex::new(Vec::new()));
    let dropped = Arc::new(Mutex::new(0u64));
    let o2 = Arc::clone(&out);
    let rec2 = Arc::clone(&records);
    let d2 = Arc::clone(&dropped);
    let h2 = h.clone();
    sim.spawn("chaos-root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_rpc_timeout(Dur::from_secs(2))
            .with_queue_timeout(Dur::from_secs(10))
            .with_idle_timeout(Dur::from_secs(5));
        let a_cfg = match faults {
            Some(plan) => cfg.clone().with_faults(plan),
            None => cfg.clone(),
        };
        let a = GpuServer::provision(p, &h2, a_cfg);
        let b = GpuServer::provision(p, &h2, cfg);
        let backend = Arc::new(Backend::new(
            vec![Arc::clone(&a), Arc::clone(&b)],
            FleetPolicy::RoundRobin,
        ));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        let done = Arc::new(Mutex::new(0usize));
        for i in 0..n {
            let backend = Arc::clone(&backend);
            let store = Arc::clone(&store);
            let out = Arc::clone(&o2);
            let done = Arc::clone(&done);
            h2.spawn_at(&format!("fn-{i}"), t(0.6 * i as f64), move |p| {
                let r = backend.invoke(p, &store, &SpinFn { secs: 1.5 }, OptConfig::full());
                out.lock().push((
                    i,
                    (
                        r.launched_at.as_nanos(),
                        r.finished_at.as_nanos(),
                        r.attempts,
                        r.failure.clone(),
                        r.invocation,
                    ),
                ));
                *done.lock() += 1;
            });
        }
        let rec3 = Arc::clone(&rec2);
        let d3 = Arc::clone(&d2);
        h2.spawn("collector", move |p| {
            while *done.lock() < n {
                p.sleep(Dur::from_millis(500));
            }
            *rec3.lock() = vec![a.records(), b.records()];
            *d3.lock() = a.fault_stats().map(|s| s.dropped).unwrap_or(0);
        });
    });
    sim.run();
    let mut results = out.lock().clone();
    results.sort_by_key(|(i, _)| *i);
    let results = results.into_iter().map(|(_, k)| k).collect();
    let records = records.lock().clone();
    let dropped = *dropped.lock();
    (results, records, dropped, tel)
}

#[test]
fn kill_and_drops_recover_and_replay_identically() {
    // Server A dies 1 s in (mid-kernel of the first function) and its link
    // eats one early RPC round trip outright.
    let plan = FaultPlan::new(11).kill_server(0, t(1.0)).drop_message(6);
    let (results, records, dropped, tel) = chaos_run(11, 6, Some(plan.clone()));

    // Termination: every launched function produced an outcome.
    assert_eq!(results.len(), 6, "no invocation may hang or get lost");
    // Recovery: attempts stay within the budget, and the kill forced at
    // least one function through a retry.
    for (launched, finished, attempts, _failure, _inv) in &results {
        assert!(*attempts >= 1 && *attempts <= 3);
        assert!(finished > launched);
    }
    assert!(
        results.iter().any(|(_, _, attempts, _, _)| *attempts > 1),
        "the dead server must force retries"
    );
    // Detection: the monitor recorded failed invocations on the dead server.
    let failed: usize = records
        .iter()
        .flatten()
        .filter(|r| r.failed_at.is_some())
        .count();
    assert!(
        failed >= 1,
        "the kill must surface as failed invocation records"
    );
    assert!(
        dropped >= 1,
        "the indexed drop must claim at least one transfer"
    );
    // Accounting: a record never carries both outcomes.
    for r in records.iter().flatten() {
        assert!(
            !(r.done_at.is_some() && r.failed_at.is_some()),
            "done and failed are mutually exclusive"
        );
    }

    // Determinism: replaying the same seed gives byte-identical outcomes,
    // byte-identical server-side timelines, and byte-identical telemetry
    // exports — chaos and all.
    let (results2, records2, dropped2, tel2) = chaos_run(11, 6, Some(plan));
    assert_eq!(results, results2, "chaos outcomes must replay exactly");
    assert_eq!(dropped, dropped2);
    let keys = |rs: &Vec<Vec<InvocationRecord>>| -> Vec<_> {
        rs.iter().flatten().map(record_key).collect::<Vec<_>>()
    };
    assert_eq!(
        keys(&records),
        keys(&records2),
        "record timelines must replay exactly"
    );
    assert_eq!(
        tel.export(),
        tel2.export(),
        "telemetry exports must replay byte-for-byte under chaos"
    );
}

#[test]
fn chaos_counters_match_invocation_records_exactly() {
    // The telemetry counters are exact, not approximate: they must agree
    // with the ground truth the backend and servers already report.
    let plan = FaultPlan::new(11).kill_server(0, t(1.0)).drop_message(6);
    let (results, records, dropped, tel) = chaos_run(11, 6, Some(plan));

    let total_attempts: u64 = results.iter().map(|(_, _, a, _, _)| u64::from(*a)).sum();
    let failed_functions = results
        .iter()
        .filter(|(_, _, _, failure, _)| failure.is_some())
        .count() as u64;
    let failed_records = records
        .iter()
        .flatten()
        .filter(|r| r.failed_at.is_some())
        .count() as u64;

    assert_eq!(tel.counter("backend.invocations"), 6);
    assert_eq!(
        tel.counter("backend.attempts"),
        total_attempts,
        "attempt counter must equal the sum of per-function attempts"
    );
    assert_eq!(
        tel.counter("backend.retries"),
        total_attempts - 6,
        "every attempt beyond the first is exactly one retry"
    );
    assert_eq!(tel.counter("backend.failures"), failed_functions);
    assert_eq!(
        tel.counter("invocation.failures"),
        failed_records,
        "failure counter must match records with failed_at set"
    );
    assert_eq!(
        tel.counter("net.dropped"),
        dropped,
        "drop counter must match the faulted link's own accounting"
    );
    assert!(
        tel.counter("rpc.transport_errors") >= 1,
        "the kill+drop plan must surface transport errors"
    );
    // Every retry left an instant event, one per counted retry.
    let retry_events = tel.instants().iter().filter(|e| e.name == "retry").count() as u64;
    assert_eq!(retry_events, tel.counter("backend.retries"));
}

#[test]
fn empty_fault_plan_is_invisible() {
    // A plan that injects nothing must leave the run bit-identical to one
    // provisioned with no plan at all (the no-chaos baseline) — including
    // the telemetry exports, byte for byte.
    let (base_results, base_records, _, base_tel) = chaos_run(17, 4, None);
    let (results, records, dropped, tel) = chaos_run(17, 4, Some(FaultPlan::new(17)));
    assert_eq!(dropped, 0);
    assert_eq!(
        results, base_results,
        "an empty plan must not perturb outcomes"
    );
    let keys = |rs: &Vec<Vec<InvocationRecord>>| -> Vec<_> {
        rs.iter().flatten().map(record_key).collect::<Vec<_>>()
    };
    assert_eq!(keys(&records), keys(&base_records));
    for (_, _, attempts, failure, _) in &results {
        assert_eq!(*attempts, 1);
        assert!(
            failure.is_none(),
            "nothing may fail without injected faults"
        );
    }
    let base_export = base_tel.export();
    let export = tel.export();
    assert_eq!(
        export.metrics_json, base_export.metrics_json,
        "empty plan must leave metrics byte-identical to no plan"
    );
    assert_eq!(
        export.chrome_trace_json, base_export.chrome_trace_json,
        "empty plan must leave the trace byte-identical to no plan"
    );
    assert_eq!(tel.counter("backend.retries"), 0);
    assert_eq!(tel.counter("invocation.failures"), 0);
    assert_eq!(tel.counter("rpc.transport_errors"), 0);
}

#[test]
fn blackhole_window_terminates_every_invocation() {
    // The faulted link goes completely dark for a second and additionally
    // drops 5% of transfers at random; everything must still terminate.
    let plan = FaultPlan::new(3)
        .blackhole(t(0.5), t(1.5))
        .drop_probability(0.05);
    let (results, _records, dropped, _tel) = chaos_run(3, 5, Some(plan));
    assert_eq!(
        results.len(),
        5,
        "blackholed invocations must time out, not hang"
    );
    assert!(
        dropped >= 1,
        "the blackhole must claim at least one transfer"
    );
    for (launched, finished, attempts, _failure, _inv) in &results {
        assert!(*attempts <= 3);
        assert!(finished > launched);
    }
}

/// Run one short `SpinFn` per `launches` entry through a one-server,
/// one-GPU platform carrying `faults`, with telemetry and the obs plane on,
/// and check that every request's three views of how it ended agree: the
/// caller's [`FunctionResult::outcome`], the assembled trace tree (outcome
/// and attempt count), and the obs plane's per-window finished and
/// violation counts.
fn run_agreeing(
    faults: FaultPlan,
    launches: &[f64],
) -> (dgsf::BackendRunOutput, Arc<dgsf::sim::Telemetry>) {
    let server = GpuServerConfig::paper_default()
        .gpus(1)
        .with_rpc_timeout(Dur::from_secs(2))
        .with_queue_timeout(Dur::from_secs(10))
        .with_idle_timeout(Dur::from_secs(5))
        .with_faults(faults);
    let ocfg = ObsConfig::paper_default();
    let cfg = PlatformConfig::paper_default()
        .with_seed(1)
        .with_server(server)
        .with_obs(ocfg.clone());
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(SpinFn { secs: 0.5 })];
    let schedule = Schedule {
        entries: launches.iter().map(|&at| (t(at), 0)).collect(),
    };
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    assert_eq!(out.results.len(), launches.len(), "every request ends");

    let trees = assemble(&tel);
    let window = ocfg.window.as_nanos();
    let mut offline: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in &out.results {
        let id = r.trace.expect("backend results carry a trace id");
        let tree = trees
            .iter()
            .find(|t| t.id == id)
            .unwrap_or_else(|| panic!("no assembled trace for request {id}"));
        assert_eq!(tree.outcome, r.outcome(), "trace {id} outcome");
        assert_eq!(tree.attempts, r.attempts, "trace {id} attempts");
        let violated = r.outcome() != TraceOutcome::Completed || r.e2e() > ocfg.slo_target;
        let row = offline
            .entry(r.finished_at.as_nanos() / window * window)
            .or_default();
        row.0 += 1;
        row.1 += u64::from(violated);
    }
    let report = out.obs.as_ref().expect("obs plane was configured");
    let online: BTreeMap<u64, (u64, u64)> = report
        .windows
        .iter()
        .filter(|w| w.finished > 0)
        .map(|w| (w.start_ns, (w.finished, w.violations)))
        .collect();
    assert_eq!(online, offline, "obs windows: (finished, violations)");
    (out, tel)
}

#[test]
fn recovered_reply_and_expired_fleet_exits_agree_across_every_view() {
    // The 10th message on the link is the reply to the first function's
    // EndFunction: the work completed server-side, only the answer died.
    let (out, tel) = run_agreeing(FaultPlan::new(1).drop_message(9), &[0.0, 4.0, 8.0]);
    assert!(
        tel.counter("backend.recovered_replies") >= 1,
        "the dropped reply must be recovered, not retried"
    );
    assert_eq!(out.completed(), 3, "a recovered reply is a completion");

    // The fleet's only API server dies before anything finishes: the
    // in-flight requests fail over to nothing, and a late one finds no
    // live lease at all.
    let (out, _) = run_agreeing(FaultPlan::new(1).kill_server(0, t(0.3)), &[0.0, 0.1, 5.0]);
    let expired = out
        .results
        .iter()
        .filter(|r| r.failure.as_deref() == Some("no live GPU server: every lease expired"))
        .count();
    assert!(expired >= 1, "the every-lease-expired exit must fire");
    assert_eq!(out.failed(), 3);
    assert!(
        out.results.iter().any(|r| r.attempts == 0),
        "a request arriving after expiry makes no attempt"
    );
}
