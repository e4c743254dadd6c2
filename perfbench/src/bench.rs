//! The harness: timed passes of one workload, their checks, and the two
//! reports — end-to-end metrics from untraced passes, per-layer metrics
//! from the traced run.
//!
//! A *pass* is one complete run of a workload: set-up (schedule
//! generation, simulation construction, process spawn) then the timed
//! region. Each pass's virtual-time output is digested and checked.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::decor::{self, Layer};
use crate::fleet_observed;
use crate::paper_repro;
use crate::refs;
use crate::rpc_scale;
use crate::spans::{self, Span};
use crate::stats::{median, percentile_label, Dist};
use crate::sys::{count_allocs, Usage};
use crate::wire_probe;
use dgsf::sim::TelemetryExport;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Heavy-tailed M/G/k RPC trace over the bare remoting transport.
    RpcScale,
    /// The paper's Table II / Fig. 4, Table III and Fig. 8.
    PaperRepro,
    /// Two-tenant fleet through the backend, sinks and obs plane on.
    FleetObserved,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::RpcScale, Kind::PaperRepro, Kind::FleetObserved];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RpcScale => "rpc_scale",
            Kind::PaperRepro => "paper_repro",
            Kind::FleetObserved => "fleet_observed",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Set-up samples per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 21;

/// What one pass produced, beyond its timings.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Digest of the virtual-time output.
    pub digest: u64,
    /// Invocations launched.
    pub launched: u64,
    /// Invocations completed.
    pub completed: u64,
    /// Virtual end-to-end latency of every completed invocation, ns.
    pub latencies_ns: Vec<u64>,
    /// Why the output checks failed, if they did.
    pub failure: Option<String>,
    /// Simulated Table II error against the paper (paper_repro only).
    pub paper_err_pct: Option<f64>,
    /// Kernel events (rpc_scale only; testbed runs do not expose them).
    pub events: u64,
    /// Allocations during the timed region (traced rpc_scale only).
    pub allocs: u64,
    /// Per optimisation level: (label, API calls issued, RPCs sent).
    pub forwarding: Vec<(&'static str, u64, u64)>,
    /// Testbed runner calls.
    pub runner_calls: u64,
    /// Backend (invocations, shed, retries) — fleet_observed only.
    pub backend: [u64; 3],
    /// Telemetry export bytes, records and assembled trees.
    pub sinks: [u64; 3],
    /// The fleet's last telemetry export, written out after the timed
    /// passes.
    pub export: Option<TelemetryExport>,
}

/// One pass: timings, process counters and the outcome (`Err` when the
/// pass panicked).
#[derive(Debug)]
pub struct Pass {
    /// Wall seconds of set-up.
    pub setup_s: f64,
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Process counters accumulated over the timed region.
    pub usage: Usage,
    /// What the pass produced, or the panic message.
    pub outcome: Result<Outcome, String>,
}

impl Pass {
    /// The check verdict, panics included.
    pub fn verdict(&self) -> Result<&Outcome, String> {
        match &self.outcome {
            Ok(o) => o.failure.clone().map_or(Ok(o), Err),
            Err(e) => Err(e.clone()),
        }
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Time `setup`, then `run` on its result; panics become the outcome.
fn measure<P>(setup: impl FnOnce() -> P, run: impl FnOnce(P) -> Outcome) -> Pass {
    let t0 = Instant::now();
    let prep = catch_unwind(AssertUnwindSafe(setup));
    let setup_s = t0.elapsed().as_secs_f64();
    let u0 = Usage::now();
    let w0 = Instant::now();
    let outcome = prep.and_then(|p| catch_unwind(AssertUnwindSafe(|| run(p))));
    let wall_s = w0.elapsed().as_secs_f64();
    let usage = Usage::now().since(&u0);
    Pass {
        setup_s,
        wall_s,
        usage,
        outcome: outcome.map_err(panic_message),
    }
}

/// Set up a workload and drop it unrun: an extra set-up sample.
fn setup_only(kind: Kind, seed: u64) -> f64 {
    let t0 = Instant::now();
    match kind {
        Kind::RpcScale => drop(rpc_scale::setup(rpc_scale::Config::new(
            seed,
            rpc_scale::INVOCATIONS,
        ))),
        Kind::PaperRepro => drop(paper_repro::setup(seed)),
        Kind::FleetObserved => drop(fleet_observed::setup(seed)),
    }
    t0.elapsed().as_secs_f64()
}

/// One pass of `kind` at `seed`. `traced` records spans (and, on
/// rpc_scale, counts allocations) inside the timed region.
pub fn pass(kind: Kind, seed: u64, traced: bool) -> Pass {
    match kind {
        Kind::RpcScale => {
            let cfg = rpc_scale::Config::new(seed, rpc_scale::INVOCATIONS);
            measure(
                || rpc_scale::setup(cfg.clone()),
                |prep| {
                    let (o, allocs) = if traced {
                        count_allocs(|| rpc_scale::run(prep))
                    } else {
                        (rpc_scale::run(prep), 0)
                    };
                    let digest = o.digest();
                    Outcome {
                        digest,
                        launched: o.invocations,
                        completed: o.latencies_ns.len() as u64,
                        failure: o.check(&cfg).err(),
                        events: o.events,
                        allocs,
                        latencies_ns: o.latencies_ns,
                        ..Outcome::default()
                    }
                },
            )
        }
        Kind::PaperRepro => measure(
            || paper_repro::setup(seed),
            |prep| {
                let o = paper_repro::run(&prep, traced);
                let latencies_ns = o
                    .results
                    .iter()
                    .filter(|r| r.succeeded())
                    .map(|r| r.e2e().as_nanos())
                    .collect::<Vec<_>>();
                Outcome {
                    digest: o.digest(),
                    launched: o.results.len() as u64,
                    completed: latencies_ns.len() as u64,
                    latencies_ns,
                    failure: o.check().err(),
                    paper_err_pct: Some(o.paper_err_pct()),
                    forwarding: o.forwarding.clone(),
                    runner_calls: o.runner_calls,
                    ..Outcome::default()
                }
            },
        ),
        Kind::FleetObserved => measure(
            || fleet_observed::setup(seed),
            |prep| {
                let o = fleet_observed::run(&prep, traced);
                let latencies_ns = o
                    .results()
                    .filter(|r| r.succeeded())
                    .map(|r| r.e2e().as_nanos())
                    .collect::<Vec<_>>();
                Outcome {
                    digest: o.digest(),
                    launched: o.launched(),
                    completed: latencies_ns.len() as u64,
                    latencies_ns,
                    failure: o.check().err(),
                    runner_calls: o.runs.len() as u64,
                    backend: [o.launched(), o.shed(), o.retries()],
                    sinks: [o.export_bytes, o.records, o.trees],
                    export: o.export,
                    ..Outcome::default()
                }
            },
        ),
    }
}

/// The digest of one untimed pass, for recording references.
pub fn digest_of(kind: Kind, seed: u64) -> Result<u64, String> {
    pass(kind, seed, false).verdict().map(|o| o.digest)
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall or CPU time, or a host-side counter.
    Host,
    /// Simulated (virtual) time; repeats exactly per seed.
    Virtual,
}

/// A metric's name, unit and clock.
pub type Schema = Vec<(String, &'static str, Clock)>;

/// End-to-end metrics, in report order.
pub fn end_to_end_schema() -> Schema {
    [
        ("setup_s", "s", Clock::Host),
        ("wall_s", "s", Clock::Host),
        ("invocations_per_s", "1/s", Clock::Host),
        ("cpu_s", "s", Clock::Host),
        ("peak_rss_mb", "MB", Clock::Host),
        ("check_ok_frac", "frac", Clock::Host),
        ("sim_p50_ms", "ms", Clock::Virtual),
        ("sim_tail_ms", "ms", Clock::Virtual),
        ("sim_ok_frac", "frac", Clock::Virtual),
        ("sim_paper_err_pct", "%", Clock::Virtual),
    ]
    .into_iter()
    .map(|(n, u, c)| (n.to_string(), u, c))
    .collect()
}

/// Per-layer metrics, in report order. Layers a workload does not
/// exercise report 0 (no calls, no samples).
pub fn per_layer_schema() -> Schema {
    use Clock::{Host, Virtual};
    let mut s: Schema = Vec::new();
    let one = |s: &mut Schema, name: String, unit, clock| s.push((name, unit, clock));
    let dist = |s: &mut Schema, name: String| {
        s.push((format!("{name}.p50"), "ns", Host));
        s.push((format!("{name}.tail"), "ns", Host));
    };
    for (n, u) in [
        ("events", "count"),
        ("events_per_s", "1/s"),
        ("ns_per_event", "ns"),
        ("csw_per_event", "count"),
        ("csw_per_invocation", "count"),
        ("sys_frac", "frac"),
        ("block_ns.count", "count"),
    ] {
        one(&mut s, format!("sim.kernel.{n}"), u, Host);
    }
    dist(&mut s, "sim.kernel.block_ns".into());
    for c in wire_probe::CLASSES {
        for op in wire_probe::OPS {
            dist(&mut s, format!("remoting.wire.{op}.{c}"));
        }
        one(&mut s, format!("remoting.wire.bytes.{c}"), "B", Host);
    }
    one(&mut s, "remoting.wire.allocs_per_rpc".into(), "count", Host);
    one(&mut s, "remoting.transport.calls".into(), "count", Host);
    for n in ["call_ns", "decode_ns", "respond_ns"] {
        dist(&mut s, format!("remoting.transport.{n}"));
    }
    for layer in ["remoting.guest", "cuda"] {
        for k in decor::CLASSES {
            one(&mut s, format!("{layer}.calls.{k}"), "count", Host);
            dist(&mut s, format!("{layer}.call_ns.{k}"));
        }
    }
    for (l, _) in paper_repro::levels() {
        one(
            &mut s,
            format!("remoting.guest.rpcs_per_call.{l}"),
            "ratio",
            Virtual,
        );
    }
    one(&mut s, "core.testbed.runs".into(), "count", Host);
    dist(&mut s, "core.testbed.run_ns".into());
    dist(&mut s, "core.testbed.self_ns".into());
    for n in ["invocations", "shed", "retries"] {
        one(&mut s, format!("serverless.backend.{n}"), "count", Virtual);
    }
    for (n, u, c) in [
        ("sim.telemetry.records", "count", Virtual),
        ("sim.telemetry.overhead_frac", "frac", Host),
        ("sim.telemetry.ns_per_record", "ns", Host),
        ("sim.telemetry.export_ns", "ns", Host),
        ("sim.telemetry.export_bytes", "B", Virtual),
        ("sim.obs.overhead_frac", "frac", Host),
        ("sim.obs.report_ns", "ns", Host),
        ("sim.trace.assemble_ns_per_request", "ns", Host),
        ("sim.trace.attribute_ns", "ns", Host),
        ("bench.trace_overhead_frac", "frac", Host),
    ] {
        one(&mut s, n.into(), u, c);
    }
    s
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Clock the value reads.
    pub clock: Clock,
}

/// Measured values by name, resolved against a schema when complete.
#[derive(Default)]
struct Values {
    map: HashMap<String, f64>,
    notes: Vec<String>,
}

impl Values {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        assert!(
            self.map.insert(name.clone(), value).is_none(),
            "{name} measured twice"
        );
    }

    fn put_dist(&mut self, name: &str, d: &Dist) {
        self.put(format!("{name}.p50"), d.p50 as f64);
        self.put(format!("{name}.tail"), d.tail as f64);
        if d.count > 0 {
            self.notes.push(format!(
                "{name}: tail = {} over {} samples",
                percentile_label(d.tail_p),
                d.count
            ));
        }
    }

    /// Every schema metric with its value; a metric missing from either
    /// side is a bug in this file.
    fn resolve(mut self, schema: Schema) -> (Vec<Metric>, Vec<String>) {
        let metrics = schema
            .into_iter()
            .map(|(name, unit, clock)| Metric {
                value: self
                    .map
                    .remove(&name)
                    .unwrap_or_else(|| panic!("{name} was not measured")),
                name,
                unit,
                clock,
            })
            .collect();
        assert!(
            self.map.is_empty(),
            "unlisted metrics {:?}",
            self.map.keys()
        );
        (metrics, self.notes)
    }
}

/// A run's result: the metrics plus the pass accounting.
#[derive(Debug, Default)]
pub struct Report {
    /// Every pass passed its checks.
    pub correct: bool,
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that panicked, violated an oracle or mismatched a digest.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    fn new(passes: &[&Pass], reference: Option<u64>, values: Values, schema: Schema) -> Report {
        let (failed, mut notes) = audit(reference, passes);
        let (metrics, measured) = values.resolve(schema);
        notes.extend(measured);
        Report {
            correct: failed == 0,
            attempted: passes.len() as u64,
            failed,
            metrics,
            notes,
        }
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: notes, the pass accounting, then every metric
    /// with its unit and clock.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out.push_str(&format!(
            "# check_fail_frac = {}/{}\n",
            self.failed, self.attempted
        ));
        for m in &self.metrics {
            let clock = match m.clock {
                Clock::Host => "host",
                Clock::Virtual => "virtual",
            };
            out.push_str(&format!(
                "{:<44} {:>16.6} {:<6} [{clock}]\n",
                m.name, m.value, m.unit
            ));
        }
        out
    }
}

/// Check a run's passes: each passed its own checks, all produced the same
/// digest, and that digest equals the recorded reference when there is
/// one. Returns (passes failed, notes).
fn audit(reference: Option<u64>, passes: &[&Pass]) -> (u64, Vec<String>) {
    let first = passes
        .iter()
        .find_map(|p| p.verdict().ok().map(|o| o.digest));
    let mut notes = vec![match reference {
        Some(r) => format!("reference digest {r:016x}"),
        None => "no reference digest for this seed: passes are checked against each other".into(),
    }];
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        let bad = match p.verdict() {
            Err(e) => Some(e),
            Ok(o) if Some(o.digest) != first => Some(format!("digest {:016x} differs", o.digest)),
            Ok(o) => reference
                .filter(|&r| r != o.digest)
                .map(|r| format!("digest {:016x} != reference {r:016x}", o.digest)),
        };
        if let Some(why) = bad {
            failed += 1;
            notes.push(format!("pass {i} FAILED: {why}"));
        }
    }
    (failed, notes)
}

/// Keep a pass's telemetry export only when `keep` (one per run is
/// written out; the rest would only hold memory).
fn keep_export(mut p: Pass, keep: bool) -> Pass {
    if let (Ok(o), false) = (&mut p.outcome, keep) {
        o.export = None;
    }
    p
}

/// Write a pass's telemetry export, if it has one; returns a note.
fn write_export(o: &Outcome, out_dir: &Path) -> Option<String> {
    let export = o.export.as_ref()?;
    Some(match fleet_observed::write_export(export, out_dir) {
        Ok(()) => format!("wrote metrics.json and trace.json to {}", out_dir.display()),
        Err(e) => format!("could not write the telemetry export: {e}"),
    })
}

/// `num / den`, or 0 when there is nothing to divide by.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Relative growth of `with` over `without`, or 0 without a base.
fn growth(with: f64, without: f64) -> f64 {
    if without > 0.0 {
        with / without - 1.0
    } else {
        0.0
    }
}

/// End-to-end run: set-ups, then untraced passes until `seconds` have
/// elapsed.
pub fn timed_run(kind: Kind, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_only(kind, seed)).collect();
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(keep_export(pass(kind, seed, false), passes.is_empty()));
    }
    let peak_rss_mb = Usage::now().peak_rss_mb;
    let ok: Vec<(&Pass, &Outcome)> = passes
        .iter()
        .filter_map(|p| p.verdict().ok().map(|o| (p, o)))
        .collect();
    let med = |f: &dyn Fn(&Pass, &Outcome) -> f64| {
        median(&ok.iter().map(|(p, o)| f(p, o)).collect::<Vec<_>>())
    };
    let first = ok.first().map(|(_, o)| *o).cloned().unwrap_or_default();
    let lat = Dist::of(first.latencies_ns.clone());
    let paper_err_pct = first
        .paper_err_pct
        .unwrap_or_else(|| paper_repro::table2_err_pct(seed));

    let mut v = Values::default();
    v.notes.extend(write_export(&first, out_dir));
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    v.notes
        .push(format!("pass wall seconds: {}", walls.join(" ")));
    v.notes.push(format!(
        "sim_tail_ms is {} of {} invocations",
        percentile_label(lat.tail_p),
        lat.count
    ));
    v.put("setup_s", median(&setups));
    v.put("wall_s", med(&|p, _| p.wall_s));
    v.put(
        "invocations_per_s",
        med(&|p, o| o.completed as f64 / p.wall_s),
    );
    v.put("cpu_s", med(&|p, _| p.usage.cpu_s()));
    v.put("peak_rss_mb", peak_rss_mb);
    v.put("check_ok_frac", ok.len() as f64 / passes.len() as f64);
    v.put("sim_p50_ms", lat.p50 as f64 / 1e6);
    v.put("sim_tail_ms", lat.tail as f64 / 1e6);
    v.put(
        "sim_ok_frac",
        per(first.completed as f64, first.launched as f64),
    );
    v.put("sim_paper_err_pct", paper_err_pct);
    let all: Vec<&Pass> = passes.iter().collect();
    Report::new(
        &all,
        refs::reference(kind.name(), seed),
        v,
        end_to_end_schema(),
    )
}

/// Durations (or self times, with `own`) of every span named `name`.
fn span_dist(spans: &[Span], self_ns: &[u64], name: &str, own: bool) -> Dist {
    Dist::of(
        spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, st)| if own { *st } else { s.dur() })
            .collect(),
    )
}

/// Traced run: pairs of (untraced, traced) passes until `seconds` have
/// elapsed — on fleet_observed each pair also runs the sink-overhead arms
/// — then the wire probes. Spans are written to
/// `out_dir/spans_<workload>.tsv`.
pub fn traced_run(kind: Kind, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut all_spans: Vec<Span> = Vec::new();
    // Sink arms: the same schedules with telemetry off, telemetry on, and
    // telemetry plus the obs plane on; runner wall only.
    let mut arms: [Vec<f64>; 3] = Default::default();
    let mut arm_digests = Vec::new();
    let fleet = (kind == Kind::FleetObserved).then(|| fleet_observed::setup(seed));
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.push(keep_export(pass(kind, seed, false), plain.is_empty()));
        let capacity = match kind {
            Kind::RpcScale => 8 * rpc_scale::INVOCATIONS as usize,
            _ => 1 << 16,
        };
        spans::start(capacity);
        traced.push(keep_export(pass(kind, seed, true), false));
        all_spans.extend(spans::stop());
        if let Some(prep) = &fleet {
            for (i, (tel, obs)) in [(false, false), (true, false), (true, true)]
                .into_iter()
                .enumerate()
            {
                let (wall, digest) = fleet_observed::runner_arm(prep, tel, obs);
                arms[i].push(wall as f64);
                if !obs {
                    arm_digests.push(digest);
                }
            }
        }
    }
    let probes = wire_probe::probe();

    let mut v = Values::default();
    let path = out_dir.join(format!("spans_{}.tsv", kind.name()));
    v.notes.push(match spans::write_tsv(&path, &all_spans) {
        Ok(()) => format!("wrote {} spans to {}", all_spans.len(), path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    });
    v.notes.push(format!(
        "{} untraced + {} traced passes; wire probes: p90 tails over {} blocks of 64 operations",
        plain.len(),
        traced.len(),
        wire_probe::BLOCKS
    ));
    let self_ns = spans::self_times(&all_spans);
    let dist = |name: &str| span_dist(&all_spans, &self_ns, name, false);
    let n_traced = traced.len() as f64;
    let first = plain
        .iter()
        .find_map(|p| p.verdict().ok().cloned())
        .unwrap_or_default();
    let traced_first = traced
        .iter()
        .find_map(|p| p.verdict().ok().cloned())
        .unwrap_or_default();
    v.notes.extend(write_export(&first, out_dir));
    let med_plain = |f: &dyn Fn(&Pass) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let wall = med_plain(&|p| p.wall_s);
    let csw = med_plain(&|p| p.usage.csw as f64);
    let events = first.events as f64;

    // sim.kernel
    v.put("sim.kernel.events", events);
    v.put("sim.kernel.events_per_s", per(events, wall));
    v.put("sim.kernel.ns_per_event", per(wall * 1e9, events));
    v.put("sim.kernel.csw_per_event", per(csw, events));
    v.put(
        "sim.kernel.csw_per_invocation",
        per(csw, first.completed as f64),
    );
    v.put(
        "sim.kernel.sys_frac",
        per(
            med_plain(&|p| p.usage.sys_s),
            med_plain(&|p| p.usage.cpu_s()),
        ),
    );
    let block = Dist::of(
        all_spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name.starts_with("sim.kernel.block."))
            .map(|(_, st)| *st)
            .collect(),
    );
    v.put("sim.kernel.block_ns.count", block.count as f64 / n_traced);
    v.put_dist("sim.kernel.block_ns", &block);

    // remoting.wire
    for (c, probe) in wire_probe::CLASSES.iter().zip(&probes) {
        for (op, (p50, tail)) in wire_probe::OPS.iter().zip(probe.ops) {
            v.put(format!("remoting.wire.{op}.{c}.p50"), p50);
            v.put(format!("remoting.wire.{op}.{c}.tail"), tail);
        }
        v.put(format!("remoting.wire.bytes.{c}"), probe.bytes as f64);
    }
    let allocs: Vec<f64> = traced
        .iter()
        .filter_map(|p| p.verdict().ok())
        .map(|o| per(o.allocs as f64, o.completed as f64))
        .collect();
    v.put("remoting.wire.allocs_per_rpc", median(&allocs));

    // remoting.transport
    let call = dist("remoting.transport.call");
    v.put("remoting.transport.calls", call.count as f64 / n_traced);
    v.put_dist("remoting.transport.call_ns", &call);
    v.put_dist(
        "remoting.transport.decode_ns",
        &dist("remoting.transport.decode"),
    );
    v.put_dist(
        "remoting.transport.respond_ns",
        &dist("remoting.transport.respond"),
    );

    // remoting.guest and cuda: the API decorator's spans
    for (layer, l) in [("remoting.guest", Layer::Guest), ("cuda", Layer::Cuda)] {
        for (k, span_name) in decor::CLASSES.iter().zip(l.span_names()) {
            let d = dist(span_name);
            v.put(format!("{layer}.calls.{k}"), d.count as f64 / n_traced);
            v.put_dist(&format!("{layer}.call_ns.{k}"), &d);
        }
    }
    for (i, (l, _)) in paper_repro::levels().iter().enumerate() {
        let ratio = first
            .forwarding
            .get(i)
            .map_or(0.0, |&(_, issued, rpcs)| per(rpcs as f64, issued as f64));
        v.put(format!("remoting.guest.rpcs_per_call.{l}"), ratio);
    }

    // core.testbed
    v.put("core.testbed.runs", first.runner_calls as f64);
    v.put_dist("core.testbed.run_ns", &dist("core.testbed.run"));
    v.put_dist(
        "core.testbed.self_ns",
        &span_dist(&all_spans, &self_ns, "core.testbed.run", true),
    );

    // serverless.backend
    for (i, n) in ["invocations", "shed", "retries"].iter().enumerate() {
        v.put(format!("serverless.backend.{n}"), first.backend[i] as f64);
    }

    // sinks
    let [export_bytes, _, trees] = first.sinks;
    let records = traced_first.sinks[1] as f64;
    let [off, tel, obs] = arms.map(|a| median(&a));
    let p50 = |name: &str| dist(name).p50 as f64;
    v.put("sim.telemetry.records", records);
    v.put("sim.telemetry.overhead_frac", growth(tel, off));
    v.put("sim.telemetry.ns_per_record", per(tel - off, records));
    v.put("sim.telemetry.export_ns", p50("sim.telemetry.export"));
    v.put("sim.telemetry.export_bytes", export_bytes as f64);
    v.put("sim.obs.overhead_frac", growth(obs, tel));
    v.put("sim.obs.report_ns", p50("sim.obs.dashboard"));
    v.put(
        "sim.trace.assemble_ns_per_request",
        per(
            p50("sim.trace.assemble") * first.runner_calls as f64,
            trees as f64,
        ),
    );
    v.put("sim.trace.attribute_ns", p50("sim.trace.attribute"));

    // bench
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    v.put("bench.trace_overhead_frac", growth(traced_wall, wall));

    let both: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let mut r = Report::new(
        &both,
        refs::reference(kind.name(), seed),
        v,
        per_layer_schema(),
    );
    if arm_digests.windows(2).any(|w| w[0] != w[1]) {
        r.failed += 1;
        r.correct = false;
        r.notes
            .push("sink arms FAILED: telemetry changed the virtual output".into());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_with_digest(digest: u64) -> Pass {
        Pass {
            setup_s: 0.0,
            wall_s: 1.0,
            usage: Usage::default(),
            outcome: Ok(Outcome {
                digest,
                ..Outcome::default()
            }),
        }
    }

    #[test]
    fn digest_check_rejects_one_perturbed_invocation() {
        let cfg = rpc_scale::Config::new(7, 500);
        let out = rpc_scale::run(rpc_scale::setup(cfg));
        let good = out.digest();
        let mut perturbed = out.clone();
        perturbed.latencies_ns[123] += 1;
        let bad = perturbed.digest();
        assert_ne!(bad, good, "a 1 ns change moves the digest");

        let (ok, bad_pass) = (pass_with_digest(good), pass_with_digest(bad));
        assert_eq!(audit(Some(good), &[&ok, &ok]).0, 0);
        assert_eq!(
            audit(Some(good), &[&ok, &bad_pass]).0,
            1,
            "against the reference"
        );
        assert_eq!(
            audit(None, &[&ok, &bad_pass]).0,
            1,
            "against the other passes"
        );
        assert_eq!(
            audit(Some(good), &[&bad_pass]).0,
            1,
            "a lone perturbed pass"
        );
    }

    #[test]
    fn traced_and_untraced_digests_are_equal_on_a_small_seed() {
        let cfg = rpc_scale::Config::new(3, 2_000);
        let fleet = fleet_observed::setup_window(3, 10);
        let plain = (
            rpc_scale::run(rpc_scale::setup(cfg.clone())).digest(),
            fleet_observed::run(&fleet, false).digest(),
        );
        spans::start(1 << 16);
        let traced = (
            rpc_scale::run(rpc_scale::setup(cfg)).digest(),
            fleet_observed::run(&fleet, true).digest(),
        );
        let recorded = spans::stop();
        assert_eq!(plain, traced);
        for name in [
            "remoting.transport.call",
            "remoting.guest.launch",
            "core.testbed.run",
        ] {
            assert!(
                recorded.iter().any(|s| s.name == name),
                "the traced passes recorded {name} spans"
            );
        }
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric_with_its_unit() {
        let json = include_str!("../../BENCHMARK.json");
        let schema: Schema = end_to_end_schema()
            .into_iter()
            .chain(per_layer_schema())
            .collect();
        for (name, unit, _) in &schema {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("BENCHMARK.json lists {name}"));
            let rest = &json[at..];
            let unit_at = rest.find("\"unit\": \"").expect("every metric has a unit") + 9;
            assert!(
                rest[unit_at..].starts_with(&format!("{unit}\"")),
                "{name} is in {unit}"
            );
        }
        let workloads = Kind::ALL.len();
        assert_eq!(json.matches("\"name\":").count(), workloads + schema.len());
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<String> = end_to_end_schema()
            .into_iter()
            .chain(per_layer_schema())
            .map(|(n, _, _)| n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names are unique");
        assert!(per_layer_schema().len() <= 128);
    }
}
