//! The serverless backend's GPU-server selection (§IV) and retry policy.
//!
//! "Our prototype uses a fixed policy to choose, given a function requesting
//! a GPU, which GPU server to use. Different policies can be used in a
//! commercial deployment, such as choosing the least loaded GPU server to
//! optimize latency or the opposite to increase utilization." This module
//! implements that policy space over multiple provisioned [`GpuServer`]s;
//! scaling out is exactly as simple as the paper describes — a new server
//! registers itself and becomes a choice.
//!
//! The backend is also where failure recovery lives: a transient
//! (transport-class) attempt failure triggers a bounded retry with
//! exponential backoff, preferring a *different* GPU server for the next
//! attempt. Every invocation therefore terminates: it either completes or
//! comes back as a [`FunctionResult`] with `failure` set after the attempt
//! budget is spent.

use std::sync::Arc;

use dgsf_remoting::OptConfig;
use dgsf_server::{FleetPolicy, GpuServer, InvocationOutcome, ShedPolicy};
use dgsf_sim::{Dur, ProcCtx, SimTime, TraceCtx, TraceOutcome};
use parking_lot::Mutex;

use crate::cluster::ClusterBalancer;
use crate::invoke::{record_request_span, FailureClass, FunctionResult, InvokeOptions, Invoker};
use crate::phases::{phase, PhaseRecorder};
use crate::store::ObjectStore;
use crate::tenant::{FairShedConfig, FairShedder};
use crate::workload::Workload;

/// Total attempt budget per request (first try included), shared by the
/// backend's retry loop and [`Invoker::invoke_dag`]'s whole-DAG retries.
pub const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the second attempt of a transient invocation failure;
/// each later backoff doubles it.
const INITIAL_BACKOFF_MS: u64 = 50;

/// Backoff to sleep after failed attempt number `attempt` (1-based, at
/// most [`MAX_ATTEMPTS`], so the shift cannot overflow).
fn backoff(attempt: u32) -> Dur {
    Dur::from_millis(INITIAL_BACKOFF_MS << (attempt - 1))
}

/// Admission control at the backend's front door: bounded concurrency and
/// queue age, so overload turns into fast, explicit shedding instead of
/// unbounded queueing. Shed invocations come back immediately with
/// [`FunctionResult::shed`] set and are never retried.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum invocations admitted concurrently (platform-wide). Anything
    /// beyond is shed on arrival.
    pub max_inflight: usize,
    /// Maximum time one attempt may wait in a GPU server's queue before
    /// the work is shed as overload (bounds queue *age*, not just depth).
    pub max_queue_age: Option<Dur>,
    /// Per-tenant weighted fair shedding ([`ShedPolicy::WeightedFair`]).
    /// `None` is the FIFO baseline: slots go to whoever arrives first,
    /// tenant-blind.
    pub fairness: Option<FairShedConfig>,
}

impl AdmissionConfig {
    /// Admit up to `max_inflight` concurrent invocations; no age bound.
    pub fn new(max_inflight: usize) -> AdmissionConfig {
        assert!(max_inflight >= 1, "admitting nothing serves nothing");
        AdmissionConfig {
            max_inflight,
            max_queue_age: None,
            fairness: None,
        }
    }

    /// Builder-style: bound per-attempt queue wait.
    pub fn with_max_queue_age(mut self, d: Dur) -> Self {
        self.max_queue_age = Some(d);
        self
    }

    /// Builder-style: shed per tenant (weighted fair) instead of FIFO.
    pub fn with_weighted_fair(mut self, fairness: FairShedConfig) -> Self {
        self.fairness = Some(fairness);
        self
    }

    /// Which shed policy this configuration implements.
    pub fn shed_policy(&self) -> ShedPolicy {
        if self.fairness.is_some() {
            ShedPolicy::WeightedFair
        } else {
            ShedPolicy::Fifo
        }
    }
}

/// Live admission counters (one lock: admission decisions are atomic).
#[derive(Default)]
struct AdmissionState {
    inflight: usize,
    /// Present iff the admission config asked for weighted fair shedding.
    fair: Option<FairShedder>,
}

/// RAII release of an admission slot.
struct AdmissionSlot<'a> {
    state: &'a Mutex<AdmissionState>,
    /// Tenant charged by the fair shedder, when fairness is on.
    tenant: Option<String>,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        let mut st = self.state.lock();
        st.inflight -= 1;
        if let (Some(t), Some(fair)) = (&self.tenant, st.fair.as_mut()) {
            fair.release(t);
        }
    }
}

/// What one terminal exit of [`Backend::invoke`] knows about the request.
struct Exit {
    /// `None` when the request completed; otherwise the class of its last
    /// failure (which decides shed vs failed) and the reason.
    failure: Option<(FailureClass, String)>,
    attempts: u32,
    phases: PhaseRecorder,
    api_stats: dgsf_cuda::ApiStats,
    invocation: Option<u64>,
    server: Option<u32>,
}

impl Exit {
    /// A request that ended without a completed attempt.
    fn failed(class: FailureClass, reason: String, attempts: u32) -> Exit {
        Exit {
            failure: Some((class, reason)),
            attempts,
            phases: PhaseRecorder::new(),
            api_stats: dgsf_cuda::ApiStats::default(),
            invocation: None,
            server: None,
        }
    }
}

/// The central serverless backend: a registry of GPU servers plus the
/// cluster balancer that routes across them.
pub struct Backend {
    servers: Vec<Arc<GpuServer>>,
    balancer: ClusterBalancer,
    admission: Option<AdmissionConfig>,
    admitted: Mutex<AdmissionState>,
}

impl Backend {
    /// Build a backend over already-provisioned servers.
    pub fn new(servers: Vec<Arc<GpuServer>>, policy: FleetPolicy) -> Backend {
        assert!(
            !servers.is_empty(),
            "a backend needs at least one GPU server"
        );
        Backend {
            servers,
            balancer: ClusterBalancer::new(policy),
            admission: None,
            admitted: Mutex::new(AdmissionState::default()),
        }
    }

    /// Turn on admission control. Without it the backend admits everything
    /// and queues without bound (the paper's prototype behaviour).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Backend {
        self.admitted.get_mut().fair = admission.fairness.clone().map(FairShedder::new);
        self.admission = Some(admission);
        self
    }

    /// Turn on bounded sticky tenant placement: the balancer steers each
    /// tenant back to its warm servers, capped at the configured fleet
    /// share (the MQFQ-Sticky locality half).
    pub fn with_sticky(mut self, sticky: crate::cluster::StickyConfig) -> Backend {
        self.balancer = ClusterBalancer::new(self.balancer.policy()).with_sticky(sticky);
        self
    }

    /// The cluster balancer (for inspecting warm sets and cold placements).
    pub fn balancer(&self) -> &ClusterBalancer {
        &self.balancer
    }

    /// The fleet policy the balancer routes under.
    pub fn policy(&self) -> FleetPolicy {
        self.balancer.policy()
    }

    /// The shed policy admission control implements ([`ShedPolicy::Fifo`]
    /// when admission control is off entirely).
    pub fn shed_policy(&self) -> ShedPolicy {
        self.admission
            .as_ref()
            .map(|a| a.shed_policy())
            .unwrap_or(ShedPolicy::Fifo)
    }

    /// Invocations currently admitted (holding an admission slot).
    pub fn inflight(&self) -> usize {
        self.admitted.lock().inflight
    }

    /// A GPU server announcing readiness (§IV: "it annouces it is ready
    /// ... and becomes a choice when a function requests a GPU").
    pub fn register(&mut self, server: Arc<GpuServer>) {
        self.servers.push(server);
    }

    /// The registered servers.
    pub fn servers(&self) -> &[Arc<GpuServer>] {
        &self.servers
    }

    /// Choose a server for the next function under the configured policy.
    ///
    /// Panics when every registered server's lease has expired — use
    /// [`invoke`](Self::invoke), which reports that case as a failed
    /// [`FunctionResult`] instead.
    pub fn choose(&self) -> &Arc<GpuServer> {
        let idx = self
            .balancer
            .route(&self.servers, None)
            .expect("every registered GPU server's lease has expired");
        &self.servers[idx]
    }

    /// Invoke a workload through the backend: choose a server, run the full
    /// DGSF path against it, and on a transient failure retry (with
    /// backoff, preferring a different server) up to [`MAX_ATTEMPTS`].
    ///
    /// Always returns: check [`FunctionResult::outcome`] for how it ended.
    /// `launched_at`/`finished_at` span the whole invocation including
    /// retries and backoff, so `e2e()` reflects what the client observed.
    pub fn invoke(
        &self,
        p: &ProcCtx,
        store: &ObjectStore,
        w: &dyn Workload,
        opts: OptConfig,
    ) -> FunctionResult {
        let launched_at = p.now();
        let tel = p.telemetry();
        tel.counter_add("backend.invocations", 1);
        if let Some(obs) = tel.obs() {
            obs.record_arrival(launched_at);
        }
        // One causal trace per request, spanning every retry attempt; the
        // id rides the admission slot, the monitor queue and the RPC
        // envelopes so every layer's spans share it.
        let trace = TraceCtx::new(tel.next_trace_id(), w.tenant());
        // Queue wait summed across every attempt — the same total the
        // offline trace decomposition assigns to the "queue" segment, so
        // online burn alerts reconcile with post-hoc attribution.
        let mut queue_wait = Dur::ZERO;
        let finish = |queue_wait, exit| self.finish(p, w, &trace, launched_at, queue_wait, exit);
        // Admission control: claim a slot or shed on the spot.
        let _slot = match self.try_admit(p, w) {
            Ok(slot) => slot,
            Err(reason) => {
                return finish(
                    queue_wait,
                    Exit::failed(FailureClass::Overloaded, reason, 0),
                )
            }
        };
        let max_queue_age = self.admission.as_ref().and_then(|a| a.max_queue_age);
        let mut avoid = None;
        let mut attempt = 1;
        loop {
            // Routing: the balancer never hands out a lease-expired
            // server. A fully expired fleet is a permanent failure, not a
            // shed — retrying or queueing cannot help.
            let Some(idx) = self.balancer.route_for(w.tenant(), &self.servers, avoid) else {
                let reason = "no live GPU server: every lease expired".to_string();
                let exit = Exit::failed(FailureClass::Permanent, reason, attempt - 1);
                return finish(queue_wait, exit);
            };
            tel.counter_add("backend.attempts", 1);
            let f = match Invoker::new(&self.servers[idx], store).invoke(
                p,
                w,
                InvokeOptions::new(opts)
                    .with_attempt(attempt)
                    .with_max_queue_age(max_queue_age)
                    .with_trace(trace.with_attempt(attempt)),
            ) {
                Ok(r) => {
                    queue_wait += r.phases.get(phase::QUEUE);
                    let exit = Exit {
                        failure: None,
                        attempts: attempt,
                        phases: r.phases,
                        api_stats: r.api_stats,
                        invocation: r.invocation,
                        server: r.server,
                    };
                    return finish(queue_wait, exit);
                }
                Err(f) => f,
            };
            queue_wait += f.phases.get(phase::QUEUE);
            // Exactly-once fence: from here a lost *reply* is
            // indistinguishable from a lost request. If the server's own
            // record says the invocation completed, the work happened and
            // only the response died on the wire — re-running it would
            // execute the function twice, so recover the completion instead
            // of retrying.
            if let Some(inv) = f.invocation.filter(|&inv| {
                f.class == FailureClass::Transient
                    && self.servers[idx].invocation_outcome(inv)
                        == Some(InvocationOutcome::Completed)
            }) {
                tel.counter_add("backend.recovered_replies", 1);
                if tel.is_enabled() {
                    tel.instant(
                        p.name(),
                        "reply-recovered",
                        p.now(),
                        &[
                            ("workload", w.name().to_string()),
                            ("invocation", inv.to_string()),
                            ("inv", trace.id.to_string()),
                        ],
                    );
                }
                let exit = Exit {
                    failure: None,
                    attempts: attempt,
                    phases: *f.phases,
                    // The reply carried the stats; they died with it.
                    api_stats: dgsf_cuda::ApiStats::default(),
                    invocation: Some(inv),
                    server: self.servers[idx].invocation_server(inv),
                };
                return finish(queue_wait, exit);
            }
            // Overloaded is deliberately not retried: piling retries onto a
            // saturated platform makes it worse.
            if f.class != FailureClass::Transient || attempt >= MAX_ATTEMPTS {
                let exit = Exit {
                    invocation: f.invocation,
                    phases: *f.phases,
                    ..Exit::failed(f.class, f.error.to_string(), attempt)
                };
                return finish(queue_wait, exit);
            }
            if tel.is_enabled() {
                tel.counter_add("backend.retries", 1);
                tel.instant(
                    p.name(),
                    "retry",
                    p.now(),
                    &[
                        ("workload", w.name().to_string()),
                        ("failed_attempt", attempt.to_string()),
                        ("error", f.error.to_string()),
                        ("inv", trace.id.to_string()),
                    ],
                );
            }
            avoid = Some(idx);
            p.sleep(backoff(attempt));
            attempt += 1;
        }
    }

    /// The one terminal path of [`invoke`](Self::invoke): count a shed or
    /// failure (a shed also leaves a `shed` instant), close the request's
    /// `req:` span, feed the obs plane (with the queue wait summed across
    /// every attempt, matching the offline trace decomposition), and build
    /// the caller's result.
    fn finish(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
        trace: &TraceCtx,
        launched_at: SimTime,
        queue_wait: Dur,
        exit: Exit,
    ) -> FunctionResult {
        let tel = p.telemetry();
        let outcome = exit
            .failure
            .as_ref()
            .map_or(TraceOutcome::Completed, |(class, _)| class.outcome());
        let failure = exit.failure.map(|(_, reason)| {
            if outcome != TraceOutcome::Shed {
                tel.counter_add("backend.failures", 1);
                return reason;
            }
            tel.counter_add("backend.shed", 1);
            if tel.is_enabled() {
                tel.instant(
                    p.name(),
                    "shed",
                    p.now(),
                    &[
                        ("workload", w.name().to_string()),
                        ("reason", reason.clone()),
                        ("inv", trace.id.to_string()),
                    ],
                );
            }
            format!("overloaded: {reason}")
        });
        record_request_span(
            p,
            trace,
            w.name(),
            launched_at,
            p.now(),
            outcome,
            exit.attempts,
        );
        if let Some(obs) = tel.obs() {
            let e2e = p.now().since(launched_at);
            obs.record_completion(p.now(), w.tenant(), e2e, queue_wait, outcome);
        }
        FunctionResult {
            name: w.name().to_string(),
            tenant: w.tenant().to_string(),
            mode: "dgsf".into(),
            launched_at,
            finished_at: p.now(),
            phases: exit.phases,
            api_stats: exit.api_stats,
            invocation: exit.invocation,
            attempts: exit.attempts,
            failure,
            shed: outcome == TraceOutcome::Shed,
            trace: Some(trace.id),
            server: exit.server,
        }
    }

    /// Claim an admission slot for `w`, or say why it was refused.
    fn try_admit(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
    ) -> Result<Option<AdmissionSlot<'_>>, String> {
        let Some(adm) = &self.admission else {
            return Ok(None); // no admission control: everything enters
        };
        let mut st = self.admitted.lock();
        if st.inflight >= adm.max_inflight {
            return Err(format!(
                "inflight limit reached ({}/{})",
                st.inflight, adm.max_inflight
            ));
        }
        // Weighted fair shedding: within the global budget, each tenant
        // owns its weighted share and borrows beyond it only as fast as
        // its token bucket refills — the most over-budget tenant is the
        // one refused.
        let max_inflight = adm.max_inflight;
        let tenant = if let Some(fair) = st.fair.as_mut() {
            let t = w.tenant();
            if fair.try_admit(t, p.now(), max_inflight).is_err() {
                return Err(format!(
                    "tenant '{t}' over fair share ({} inflight / {} slots, bucket empty)",
                    fair.inflight_of(t),
                    fair.share_of(t, max_inflight),
                ));
            }
            Some(t.to_string())
        } else {
            None
        };
        st.inflight += 1;
        Ok(Some(AdmissionSlot {
            state: &self.admitted,
            tenant,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_cuda::{CudaResult, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
    use dgsf_gpu::GB;
    use dgsf_remoting::NetProfile;
    use dgsf_server::GpuServerConfig;
    use dgsf_sim::{Dur, Sim};
    use parking_lot::Mutex;

    use crate::phases::PhaseRecorder;

    /// One ~1 s timed kernel under the given workload name.
    struct Spin(&'static str);
    impl Workload for Spin {
        fn name(&self) -> &str {
            self.0
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
            p: &ProcCtx,
            api: &mut dyn dgsf_cuda::CudaApi,
            rec: &mut PhaseRecorder,
        ) -> CudaResult<()> {
            rec.enter(p, crate::phases::phase::PROCESSING);
            api.launch_kernel(
                p,
                "k",
                LaunchConfig::linear(1, 32),
                KernelArgs::timed(1.0, 0),
            )?;
            api.device_synchronize(p)?;
            rec.close(p);
            Ok(())
        }
        fn cpu_secs(&self) -> f64 {
            30.0
        }
    }

    fn two_server_backend(p: &ProcCtx, h: &dgsf_sim::SimHandle, policy: FleetPolicy) -> Backend {
        let cfg = GpuServerConfig::paper_default().gpus(1);
        let s1 = GpuServer::provision(p, h, cfg.clone());
        let s2 = GpuServer::provision(p, h, cfg);
        Backend::new(vec![s1, s2], policy)
    }

    #[test]
    fn round_robin_alternates() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("root", move |p| {
            let b = two_server_backend(p, &h, FleetPolicy::RoundRobin);
            let a = Arc::as_ptr(b.choose());
            let c = Arc::as_ptr(b.choose());
            let d = Arc::as_ptr(b.choose());
            assert_ne!(a, c);
            assert_eq!(a, d);
        });
        sim.run();
    }

    #[test]
    fn retry_backoff_grows_geometrically() {
        assert_eq!(backoff(1), Dur::from_millis(50));
        assert_eq!(backoff(2), Dur::from_millis(100));
        assert_eq!(backoff(3), Dur::from_millis(200));
    }

    #[test]
    fn least_loaded_spreads_most_loaded_packs() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let spread = Arc::new(Mutex::new((0usize, 0usize)));
        let s2 = spread.clone();
        sim.spawn("root", move |p| {
            let b = Arc::new(two_server_backend(p, &h, FleetPolicy::LeastLoaded));
            let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
            // launch 4 concurrent functions through the backend
            for i in 0..4 {
                let b = Arc::clone(&b);
                let store = Arc::clone(&store);
                h.spawn(&format!("fn{i}"), move |p| {
                    let _ = b.invoke(p, &store, &Spin("spin"), OptConfig::full());
                });
            }
            p.sleep(Dur::from_secs(30));
            *s2.lock() = (
                b.servers()[0].records().len(),
                b.servers()[1].records().len(),
            );
        });
        sim.run();
        let (a, c) = *spread.lock();
        assert_eq!(a + c, 4);
        assert_eq!(a, 2, "least-loaded balances 2/2, got {a}/{c}");
    }

    #[test]
    fn admission_sheds_beyond_the_inflight_limit() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let results = Arc::new(Mutex::new(Vec::new()));
        let r2 = results.clone();
        sim.spawn("root", move |p| {
            let cfg = GpuServerConfig::paper_default().gpus(1);
            let srv = GpuServer::provision(p, &h, cfg);
            let b = Arc::new(
                Backend::new(vec![srv], FleetPolicy::RoundRobin)
                    .with_admission(AdmissionConfig::new(1)),
            );
            let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
            for i in 0..2 {
                let b = Arc::clone(&b);
                let store = Arc::clone(&store);
                let r = r2.clone();
                h.spawn(&format!("fn{i}"), move |p| {
                    // stagger by 1 ms so fn0 holds the only slot when fn1
                    // arrives (both well within fn0's ~1 s runtime)
                    p.sleep(Dur::from_millis(i as u64));
                    let res = b.invoke(p, &store, &Spin("spin"), OptConfig::full());
                    r.lock().push(res);
                });
            }
            p.sleep(Dur::from_secs(10));
            assert_eq!(b.inflight(), 0, "slots released after completion");
        });
        sim.run();
        let res = results.lock().clone();
        assert_eq!(res.len(), 2);
        let shed: Vec<&FunctionResult> = res.iter().filter(|r| r.shed).collect();
        assert_eq!(shed.len(), 1, "exactly one invocation shed");
        assert_eq!(shed[0].attempts, 0, "shed before any attempt");
        assert!(shed[0].failure.as_deref().unwrap().contains("overloaded"));
        assert!(
            res.iter().any(|r| r.succeeded()),
            "the admitted invocation completed"
        );
    }

    #[test]
    fn most_loaded_consolidates_onto_one_server() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let spread = Arc::new(Mutex::new((0usize, 0usize)));
        let s2 = spread.clone();
        sim.spawn("root", move |p| {
            let b = Arc::new(two_server_backend(p, &h, FleetPolicy::MostLoaded));
            let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
            for i in 0..3 {
                let b = Arc::clone(&b);
                let store = Arc::clone(&store);
                h.spawn(&format!("fn{i}"), move |p| {
                    // stagger so load is observable at choice time
                    p.sleep(Dur::from_millis(200 * i as u64));
                    let _ = b.invoke(p, &store, &Spin("spin"), OptConfig::full());
                });
            }
            p.sleep(Dur::from_secs(30));
            *s2.lock() = (
                b.servers()[0].records().len(),
                b.servers()[1].records().len(),
            );
        });
        sim.run();
        let (a, c) = *spread.lock();
        assert_eq!(a + c, 3);
        assert!(
            a == 3 || c == 3,
            "most-loaded packs everything onto one server: {a}/{c}"
        );
    }
}
