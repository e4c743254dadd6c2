//! Fault injection + recovery demo.
//!
//! ```text
//! cargo run --release --example chaos
//! ```
//!
//! Two 1-GPU servers serve a burst of inference functions while server A is
//! killed mid-run and its link eats one RPC outright. The backend detects
//! the failures (RPC timeouts, heartbeat leases) and retries each function
//! on the surviving server, so every invocation terminates. The whole
//! chaotic timeline replays byte-identically from the seed.

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::remoting::FaultPlan;
use dgsf::server::GpuServer;
use dgsf::serverless::{Backend, FleetPolicy, ObjectStore};
use parking_lot::Mutex;

/// One function's client-observed outcome.
type Outcome = (usize, u64, u32, Option<String>);

fn chaos_run(seed: u64, n: usize) -> (Vec<Outcome>, u64, usize) {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let out: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
    let stats = Arc::new(Mutex::new((0u64, 0usize)));
    let (o2, s2, h2) = (Arc::clone(&out), Arc::clone(&stats), h.clone());
    sim.spawn("chaos-root", move |p| {
        // Server A dies 8 s in — mid-invocation — and its link drops the
        // 6th message. Timeouts are filled in by "chaos implies hardening"
        // defaults, but we tighten the RPC timeout for a snappier demo.
        let faults = FaultPlan::new(seed)
            .kill_server(0, SimTime::ZERO + Dur::from_secs(8))
            .drop_message(6);
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_rpc_timeout(Dur::from_secs(2));
        let a = GpuServer::provision(p, &h2, cfg.clone().with_faults(faults));
        let b = GpuServer::provision(p, &h2, cfg);
        let backend = Arc::new(Backend::new(
            vec![Arc::clone(&a), Arc::clone(&b)],
            FleetPolicy::RoundRobin,
        ));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        let done = Arc::new(Mutex::new(0usize));
        for i in 0..n {
            let (backend, store, out, done) = (
                Arc::clone(&backend),
                Arc::clone(&store),
                Arc::clone(&o2),
                Arc::clone(&done),
            );
            h2.spawn_at(
                &format!("fn-{i}"),
                SimTime::ZERO + Dur::from_secs(2 * i as u64),
                move |p| {
                    let w = dgsf::workloads::face_identification();
                    let r = backend.invoke(p, &store, &w, OptConfig::full());
                    out.lock()
                        .push((i, r.e2e().as_nanos(), r.attempts, r.failure.clone()));
                    *done.lock() += 1;
                },
            );
        }
        let s3 = Arc::clone(&s2);
        h2.spawn("collector", move |p| {
            while *done.lock() < n {
                p.sleep(Dur::from_millis(500));
            }
            let dropped = a.fault_stats().map(|s| s.dropped).unwrap_or(0);
            let failed = a
                .records()
                .iter()
                .chain(b.records().iter())
                .filter(|r| r.failed_at.is_some())
                .count();
            *s3.lock() = (dropped, failed);
        });
    });
    sim.run();
    let mut results = out.lock().clone();
    results.sort_by_key(|(i, ..)| *i);
    let (dropped, failed) = *stats.lock();
    (results, dropped, failed)
}

fn main() {
    let (n, seed) = (6usize, 11u64);
    println!("chaos: 2 servers, server A killed at t=8s + one dropped RPC\n");
    let (results, dropped, failed) = chaos_run(seed, n);
    for (i, e2e, attempts, failure) in &results {
        println!(
            "fn-{i}: e2e {:6.2}s  attempts {attempts}  {}",
            *e2e as f64 / 1e9,
            match failure {
                None => "ok".to_string(),
                Some(f) => format!("FAILED: {f}"),
            }
        );
    }
    println!(
        "\nserver-side: {failed} invocation(s) recorded failed, {dropped} transfer(s) dropped"
    );

    let replay = chaos_run(seed, n);
    println!(
        "same-seed replay identical: {}",
        replay == (results, dropped, failed)
    );
}
