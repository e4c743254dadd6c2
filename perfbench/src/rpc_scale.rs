//! `rpc_scale`: the heavy-tailed M/G/k RPC trace of `dgsf-expt scale`,
//! driven from the benchmark's own code through public `dgsf::sim` and
//! `dgsf::remoting` calls only.
//!
//! An open-loop generator emits invocations with exponential gaps (1250
//! req/s offered), a Zipf(1.1) tenant mix over 64 tenants and log-normal
//! service (2 ms median, sigma 1). Six worker/server pairs drain them; each
//! invocation is one framed `Launch` round trip over
//! `RpcClient`/`RpcInbox`/`NetLink`. Only the DES kernel and the
//! small-frame wire/transport path do work here.
//!
//! The RNG call order matches `dgsf-expt scale`, so seed 42 with 50k
//! invocations reproduces `goldens/BENCH_scale_quick.json`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use dgsf::remoting::wire::{Request, Response, WireArgs};
use dgsf::remoting::{NetLink, NetProfile, RpcClient, RpcInbox};
use dgsf::sim::{rng, Dur, Sim, SimTime};

use crate::spans;
use crate::stats::{percentile_sorted, Digest};

/// Invocations per pass (the size of `dgsf-expt scale --quick`).
pub const INVOCATIONS: u64 = 50_000;

/// The committed golden this workload must reproduce at seed 42.
pub const GOLDEN_SEED: u64 = 42;
const GOLDEN: &str = include_str!("../../goldens/BENCH_scale_quick.json");

/// Tenants in the Zipf mix.
const TENANTS: usize = 64;
/// Worker/server pairs (the k of M/G/k).
const SERVERS: usize = 6;
/// Mean inter-arrival gap: 1250 req/s offered against ~1800 req/s of
/// capacity.
const MEAN_GAP: Dur = Dur::from_micros(800);
/// Spread of the log service time (the median is 2 ms).
const SERVICE_SIGMA: f64 = 1.0;
/// Zipf skew of the tenant mix.
const ZIPF_S: f64 = 1.1;
/// Progress checkpoints at fixed virtual times.
const CHECKPOINTS: u64 = 8;

/// One pass's seed and size.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of the simulation RNG (arrivals, mix, service times).
    pub seed: u64,
    /// Invocations the generator emits.
    pub invocations: u64,
}

impl Config {
    /// A pass of `invocations` at `seed`.
    pub fn new(seed: u64, invocations: u64) -> Config {
        Config { seed, invocations }
    }
}

struct Invocation {
    id: u64,
    arrival: SimTime,
    tenant: u32,
    service_ns: u64,
}

type Done = Arc<Mutex<Vec<(u64, u32)>>>;

/// A constructed simulation with every process spawned, ready to run.
pub struct Prepared {
    cfg: Config,
    sim: Sim,
    done: Done,
}

/// Progress at a fixed virtual time: (virtual ms, completed, events).
pub type Checkpoint = (u64, u64, u64);

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct Output {
    /// Invocations emitted.
    pub invocations: u64,
    /// Per-invocation end-to-end latency (ns), in completion order.
    pub latencies_ns: Vec<u64>,
    /// Tenant of each completion, same order.
    pub tenants: Vec<u32>,
    /// Kernel events executed.
    pub events: u64,
    /// Final virtual time, ns.
    pub end_ns: u64,
    /// Progress curve.
    pub checkpoints: Vec<Checkpoint>,
}

/// Build the simulation: links, RPC connections and every process.
pub fn setup(cfg: Config) -> Prepared {
    assert!(cfg.invocations > 0);
    let sim = Sim::new(cfg.seed);
    let h = sim.handle();
    let done: Done = Arc::new(Mutex::new(Vec::with_capacity(cfg.invocations as usize)));
    let (inv_tx, inv_rx) = h.channel::<Invocation>();

    for s in 0..SERVERS {
        let link = NetLink::new(
            &h,
            NetProfile {
                rpc_latency: Dur::from_micros(60),
                rpc_jitter: Dur::ZERO,
                nic_bw: 1.25e9,
                s3_bw: 0.15e9,
            },
        );
        let (client, inbox) = RpcClient::connect(&h, link.clone());
        // The call span in flight on this pair, parent of the server side.
        let in_flight = Arc::new(AtomicU32::new(0));
        let server_call = Arc::clone(&in_flight);
        sim.spawn(&format!("server-{s}"), move |p| loop {
            let next = spans::timed("sim.kernel.block.next", 0, 0, || inbox.next(p));
            let Some(env) = next else { break };
            let parent = server_call.load(Ordering::Relaxed);
            let req = spans::timed("remoting.transport.decode", parent, 0, || {
                RpcInbox::decode(&env)
            })
            .expect("rpc_scale frames always decode");
            if let Request::Launch { args, .. } = &req {
                spans::timed("sim.kernel.block.sleep", parent, 0, || {
                    p.sleep(Dur(args.scalars[0]))
                });
            }
            spans::timed("remoting.transport.respond", parent, 0, || {
                inbox.respond(p, &link, &env, &Response::Ok)
            });
        });
        let rx = inv_rx.clone();
        let done = Arc::clone(&done);
        sim.spawn(&format!("worker-{s}"), move |p| loop {
            let next = spans::timed("sim.kernel.block.recv", 0, 0, || rx.recv(p));
            let Some(inv) = next else { break };
            let req = Request::Launch {
                fptr: inv.tenant as u64,
                args: WireArgs {
                    ptrs: vec![inv.tenant as u64],
                    scalars: vec![inv.service_ns],
                    bytes: 0,
                    work_hint: None,
                },
            };
            let span = spans::open("remoting.transport.call", 0, inv.id);
            in_flight.store(span.as_ref().map_or(0, |s| s.id()), Ordering::Relaxed);
            let resp = client.call(p, &req).expect("rpc_scale servers never fail");
            if let Some(s) = span {
                s.close();
            }
            assert_eq!(resp, Response::Ok);
            done.lock()
                .expect("completion log poisoned by a panic")
                .push((p.now().since(inv.arrival).as_nanos(), inv.tenant));
        });
    }
    drop(inv_rx);

    let invocations = cfg.invocations;
    sim.spawn("generator", move |p| {
        let zipf = rng::Zipf::new(TENANTS, ZIPF_S);
        let service_mu = (0.002f64).ln();
        for id in 1..=invocations {
            let gap = p.with_rng(|r| rng::exp_gap(r, MEAN_GAP));
            spans::timed("sim.kernel.block.sleep", 0, 0, || p.sleep(gap));
            let tenant = p.with_rng(|r| zipf.sample(r)) as u32;
            let service = p.with_rng(|r| rng::lognormal_dur(r, service_mu, SERVICE_SIGMA));
            inv_tx.send(
                p,
                Invocation {
                    id,
                    arrival: p.now(),
                    tenant,
                    service_ns: service.as_nanos().max(1),
                },
            );
        }
    });
    Prepared { cfg, sim, done }
}

/// Run the prepared simulation to completion (the timed region).
pub fn run(prep: Prepared) -> Output {
    let Prepared { cfg, mut sim, done } = prep;
    let horizon = MEAN_GAP.as_nanos().saturating_mul(cfg.invocations);
    let completed = || done.lock().expect("completion log poisoned").len() as u64;
    let mut checkpoints = Vec::with_capacity(CHECKPOINTS as usize + 1);
    for k in 1..=CHECKPOINTS {
        let deadline = SimTime::ZERO + Dur(horizon / CHECKPOINTS * k);
        let at = sim.run_until(deadline);
        checkpoints.push((
            at.max(deadline).as_nanos() / 1_000_000,
            completed(),
            sim.events_executed(),
        ));
    }
    let end = sim.run();
    let events = sim.events_executed();
    checkpoints.push((end.as_nanos() / 1_000_000, completed(), events));
    drop(sim);
    let done = std::mem::take(&mut *done.lock().expect("completion log poisoned"));
    Output {
        invocations: cfg.invocations,
        latencies_ns: done.iter().map(|&(ns, _)| ns).collect(),
        tenants: done.iter().map(|&(_, t)| t).collect(),
        events,
        end_ns: end.as_nanos(),
        checkpoints,
    }
}

impl Output {
    /// Digest of the virtual-time output: every latency and tenant in
    /// completion order, and the completion count.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.push_all(&self.latencies_ns);
        d.push_all(&self.tenants.iter().map(|&t| t as u64).collect::<Vec<_>>());
        d.push(self.latencies_ns.len() as u64);
        d.value()
    }

    /// The run rendered exactly as `dgsf-expt scale` writes
    /// `BENCH_scale.json` (integers only).
    pub fn scale_json(&self, cfg: &Config) -> String {
        let completed = self.latencies_ns.len() as u64;
        let mut us: Vec<u64> = self.latencies_ns.iter().map(|ns| ns / 1_000).collect();
        us.sort_unstable();
        let hot = self.tenants.iter().filter(|&&t| t == 0).count() as u64;
        let mut out = String::from("{\n");
        let mut field = |k: &str, v: u64| out.push_str(&format!("  \"{k}\": {v},\n"));
        field("seed", cfg.seed);
        field("invocations", self.invocations);
        field("completed", completed);
        field("tenants", TENANTS as u64);
        field("servers", SERVERS as u64);
        field("p50_us", percentile_sorted(&us, 50_000));
        field("p99_us", percentile_sorted(&us, 99_000));
        field("p999_us", percentile_sorted(&us, 99_900));
        field("max_us", us.last().copied().unwrap_or(0));
        field("virtual_ms", self.end_ns / 1_000_000);
        field("events", self.events);
        field(
            "events_per_invocation_milli",
            (self.events * 1000).checked_div(completed).unwrap_or(0),
        );
        field(
            "hot_tenant_permille",
            (hot * 1000).checked_div(completed).unwrap_or(0),
        );
        out.push_str("  \"checkpoints\": [");
        for (i, (ms, done, ev)) in self.checkpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"virtual_ms\": {ms}, \"completed\": {done}, \"events\": {ev}}}"
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The output checks: every invocation completed, and at the golden's
    /// seed and size the virtual results equal the committed golden.
    pub fn check(&self, cfg: &Config) -> Result<(), String> {
        let completed = self.latencies_ns.len() as u64;
        if completed != cfg.invocations {
            return Err(format!(
                "completed {completed} of {} invocations",
                cfg.invocations
            ));
        }
        if cfg.seed == GOLDEN_SEED
            && cfg.invocations == INVOCATIONS
            && self.scale_json(cfg) != GOLDEN
        {
            return Err("seed 42 output differs from goldens/BENCH_scale_quick.json".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_seed_reproduces_the_committed_scale_golden() {
        let cfg = Config::new(GOLDEN_SEED, INVOCATIONS);
        let out = run(setup(cfg.clone()));
        assert_eq!(out.scale_json(&cfg), GOLDEN);
        out.check(&cfg).expect("golden check passes");
    }
}
