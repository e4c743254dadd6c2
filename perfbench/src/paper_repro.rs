//! `paper_repro`: the paper's evaluation on the 4×V100 server model with
//! telemetry off, as a reader regenerates it.
//!
//! * Table II / Fig. 4 — each of the six paper workloads alone, natively
//!   and under DGSF at every optimisation level (none → handle pools →
//!   descriptor pools → full). The native arms run the CUDA/GPU model
//!   without remoting; the no-opt arm sends one small RPC per CUDA call,
//!   the full arm batched deferred calls plus bulk h2d payloads.
//! * Table III — the heavy-load mix (exponential gaps, mean 2 s, all six
//!   workloads) under each sharing mode.
//! * Fig. 8 — the migration case (2 NLP + 2 image classification on two
//!   GPUs) under no sharing, worst-fit, best-fit and best-fit + migration.
//!
//! Every simulation is seeded from the workload seed; the datacenter
//! profile has no jitter, so only the Table III arrivals change with it.

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::server::MigrationRecord;
use dgsf::serverless::FunctionResult;
use dgsf::workloads::{as_workloads, image_classification, nlp, paper_suite, TraceSpec};

use crate::decor::{self, Decorated, Layer};
use crate::stats::{digest_migrations, digest_results, Digest};

/// Copies of each workload in a Table III run.
const TABLE3_COPIES: usize = 3;

/// The optimisation ladder of Fig. 4.
pub fn levels() -> [(&'static str, OptConfig); 4] {
    [
        ("none", OptConfig::none()),
        ("handle_pools", OptConfig::handle_pools()),
        ("descriptor_pools", OptConfig::descriptor_pools()),
        ("full", OptConfig::full()),
    ]
}

/// The paper's Table II seconds (native, DGSF) per workload, as carried
/// in `refs/paper_table2.tsv`.
pub fn paper_table2() -> Vec<(String, f64, f64)> {
    include_str!("../refs/paper_table2.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let secs = |s: &str| s.parse::<f64>().expect("paper table holds seconds");
            (f[0].to_string(), secs(f[1]), secs(f[2]))
        })
        .collect()
}

/// Table III's sharing modes.
const MODES: [&str; 3] = ["no_sharing", "best_fit", "worst_fit"];

fn sharing(mode: &str, cfg: GpuServerConfig) -> GpuServerConfig {
    match mode {
        "no_sharing" => cfg.sharing(1),
        "best_fit" => cfg.sharing(2).with_policy(PlacementPolicy::BestFit),
        "worst_fit" => cfg.sharing(2).with_policy(PlacementPolicy::WorstFit),
        other => unreachable!("unknown sharing mode {other}"),
    }
}

/// Inputs of one pass: the suites, configurations and schedules.
pub struct Prepared {
    seed: u64,
    suite: Vec<Arc<TraceSpec>>,
    table3: Vec<(TestbedConfig, Schedule)>,
    fig8_suite: Vec<Arc<TraceSpec>>,
    fig8: Vec<(TestbedConfig, Schedule)>,
}

/// What one pass produced.
pub struct Output {
    /// Every function result, in run order (each run's in completion order).
    pub results: Vec<FunctionResult>,
    /// Migrations committed by every schedule run, in run order.
    pub migrations: Vec<MigrationRecord>,
    /// (workload, native seconds, full-DGSF seconds), suite order.
    pub table2: Vec<(String, f64, f64)>,
    /// Per optimisation level: (label, API calls issued, RPCs sent).
    pub forwarding: Vec<(&'static str, u64, u64)>,
    /// Testbed runner calls made.
    pub runner_calls: u64,
}

/// Build every input of the pass from `seed`.
pub fn setup(seed: u64) -> Prepared {
    let table3 = MODES
        .iter()
        .map(|mode| {
            let cfg = TestbedConfig {
                seed,
                server: sharing(mode, GpuServerConfig::paper_default().gpus(4)),
                opts: OptConfig::full(),
            };
            let pattern = ArrivalPattern::Exponential {
                mean: Dur::from_secs(2),
            };
            (cfg, Schedule::mixed(seed, 6, TABLE3_COPIES, pattern))
        })
        .collect();
    let together = Schedule {
        entries: vec![
            (SimTime::ZERO, 0),
            (SimTime::ZERO, 0),
            (SimTime::ZERO, 1),
            (SimTime::ZERO, 1),
        ],
    };
    let fig8 = [
        ("no_sharing", false),
        ("worst_fit", false),
        ("best_fit", false),
        ("best_fit", true),
    ]
    .iter()
    .map(|&(mode, migration)| {
        let cfg = TestbedConfig {
            seed,
            server: sharing(mode, GpuServerConfig::paper_default().gpus(2))
                .with_migration(migration),
            opts: OptConfig::full(),
        };
        (cfg, together.clone())
    })
    .collect();
    Prepared {
        seed,
        suite: paper_suite(),
        table3,
        fig8_suite: vec![Arc::new(nlp()), Arc::new(image_classification())],
        fig8,
    }
}

fn workloads(suite: &[Arc<TraceSpec>], traced: bool, layer: Layer) -> Vec<Arc<dyn Workload>> {
    as_workloads(suite)
        .into_iter()
        .map(|w| if traced { Decorated::wrap(w, layer) } else { w })
        .collect()
}

/// Run the pass (the timed region). `traced` decorates every workload's
/// CUDA API with spans.
pub fn run(prep: &Prepared, traced: bool) -> Output {
    let mut out = Output {
        results: Vec::new(),
        migrations: Vec::new(),
        table2: Vec::new(),
        forwarding: levels().iter().map(|(l, _)| (*l, 0, 0)).collect(),
        runner_calls: 0,
    };
    let costs = TestbedConfig::paper_default().server.costs;
    let native = workloads(&prep.suite, traced, Layer::Cuda);
    let remote = workloads(&prep.suite, traced, Layer::Guest);
    for (i, spec) in prep.suite.iter().enumerate() {
        let n = decor::runner(|| Testbed::run_native_once(prep.seed, &costs, native[i].clone()));
        let native_s = n.e2e().as_secs_f64();
        out.results.push(n);
        let mut full_s = 0.0;
        for (l, (_, opts)) in levels().iter().enumerate() {
            let cfg = TestbedConfig {
                seed: prep.seed,
                opts: *opts,
                ..TestbedConfig::paper_default()
            };
            let r = decor::runner(|| Testbed::run_dgsf_once(&cfg, remote[i].clone()));
            out.forwarding[l].1 += r.api_stats.issued_calls;
            out.forwarding[l].2 += r.api_stats.remoted_calls;
            full_s = r.e2e().as_secs_f64();
            out.results.push(r);
        }
        out.table2.push((spec.name.clone(), native_s, full_s));
        out.runner_calls += 1 + levels().len() as u64;
    }
    let fig8_suite = workloads(&prep.fig8_suite, traced, Layer::Guest);
    let schedule_runs = prep
        .table3
        .iter()
        .map(|run| (run, &remote))
        .chain(prep.fig8.iter().map(|run| (run, &fig8_suite)));
    for ((cfg, schedule), suite) in schedule_runs {
        let r = decor::runner(|| Testbed::run_schedule(cfg, suite, schedule));
        out.results.extend(r.results);
        out.migrations.extend(r.migrations);
        out.runner_calls += 1;
    }
    out
}

impl Output {
    /// Digest of the virtual-time output: every function's end-to-end ns
    /// and outcome, the completion count, and every migration record.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        digest_results(&mut d, &self.results);
        digest_migrations(&mut d, &self.migrations);
        d.value()
    }

    /// Mean absolute relative error (%) of this pass's Table II against
    /// the paper's.
    pub fn paper_err_pct(&self) -> f64 {
        paper_err_pct(&self.table2)
    }

    /// The output checks: every function completed.
    pub fn check(&self) -> Result<(), String> {
        let failed = self.results.iter().filter(|r| !r.succeeded()).count();
        if failed > 0 {
            return Err(format!("{failed} paper_repro functions failed"));
        }
        Ok(())
    }
}

/// Mean absolute relative error (%) of simulated Table II native and DGSF
/// seconds against the paper's twelve values.
pub fn paper_err_pct(table2: &[(String, f64, f64)]) -> f64 {
    let paper = paper_table2();
    let mut errs = Vec::with_capacity(2 * paper.len());
    for (name, native, dgsf) in &paper {
        let (_, sim_native, sim_dgsf) = table2
            .iter()
            .find(|(n, _, _)| n == name)
            .expect("every paper workload ran");
        errs.push((sim_native - native).abs() / native);
        errs.push((sim_dgsf - dgsf).abs() / dgsf);
    }
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

/// Only Table II's native and full-DGSF runs, seeded from `seed`: the
/// model-validation figure the other workloads report after their timed
/// region, so a model change shows on every row.
pub fn table2_err_pct(seed: u64) -> f64 {
    let costs = TestbedConfig::paper_default().server.costs;
    let cfg = TestbedConfig {
        seed,
        ..TestbedConfig::paper_default()
    };
    let table2: Vec<(String, f64, f64)> = paper_suite()
        .iter()
        .map(|spec| {
            let w = Arc::clone(spec) as Arc<dyn Workload>;
            let native = Testbed::run_native_once(seed, &costs, w.clone());
            let dgsf = Testbed::run_dgsf_once(&cfg, w);
            (
                spec.name.clone(),
                native.e2e().as_secs_f64(),
                dgsf.e2e().as_secs_f64(),
            )
        })
        .collect();
    paper_err_pct(&table2)
}
