//! `dgsf-expt` — regenerate the paper's tables and figures.
//!
//! Usage: `dgsf-expt <name> [--quick] [--out DIR]`
//!
//! * Paper tables and figures (`table2`, `fig3`, `fig4`,
//!   `table3`, `fig5`, `table4`, `fig6`, `fig7`, `fig8`, `table5`,
//!   `apicounts`, the `restart` and `sjf` extensions, or `all`) print text
//!   only. `--quick` shrinks the mixed-workload experiments (2 copies
//!   instead of 10).
//! * Artifact experiments (`trace`, `sweep`, `fleet`,
//!   `pipeline`, `scale`, `obs`, `attribute`) print a text report and write
//!   their files to DIR (default `target/<dir>` per row). Every file is
//!   derived from virtual time only, so the same seed gives byte-identical
//!   files; `--quick` is the size the committed goldens are taken at.
//! * `dgsf-expt verify [--out DIR]` runs every artifact experiment twice
//!   in quick mode, writes the first run's files under DIR (default
//!   `target/verify`), and checks that both runs are byte-identical, that
//!   every `BENCH_*.json` matches `goldens/BENCH_*_quick.json`, and that
//!   the scale run clears `goldens/scale_events_per_sec_floor.txt`. On a
//!   mismatch it prints the first differing line and exits 1.
//!
//! An unknown name prints the known ones and exits 2.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::exit;

use dgsf_bench::{attrib, fleet, mixed, obs, pipeline, scale, single, sweep, trace};

const SEED: u64 = 42;

/// What one artifact experiment run produced.
struct Run {
    /// Emitted files, `(file name, contents)`.
    files: Vec<(&'static str, String)>,
    /// Human-readable report (may include wall-clock figures).
    text: String,
    /// Kernel events per wall-clock second, for the run that is gated on it.
    events_per_sec: Option<f64>,
}

impl Run {
    fn new(files: Vec<(&'static str, String)>, text: String) -> Run {
        Run {
            files,
            text,
            events_per_sec: None,
        }
    }
}

/// One artifact-writing experiment.
struct Experiment {
    name: &'static str,
    /// Default output directory.
    out_dir: &'static str,
    title: &'static str,
    /// Runs the experiment at `(seed, quick)`.
    run: fn(u64, bool) -> Run,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "trace",
        out_dir: "target/trace",
        title: "Telemetry trace: heavy-load mix with recording on",
        run: |seed, quick| {
            let export = trace::trace(seed, if quick { 2 } else { 10 });
            Run::new(
                vec![
                    ("metrics.json", export.metrics_json),
                    ("trace.json", export.chrome_trace_json),
                ],
                "(open trace.json in chrome://tracing or ui.perfetto.dev)\n".into(),
            )
        },
    },
    Experiment {
        name: "sweep",
        out_dir: "target/sweep",
        title: "Load sweep: autoscaled fleet with admission control",
        run: |seed, quick| {
            let s = sweep::sweep(seed, quick);
            Run::new(
                vec![("BENCH_sweep.json", sweep::sweep_json(&s))],
                sweep::sweep_text(&s),
            )
        },
    },
    Experiment {
        name: "fleet",
        out_dir: "target/fleet",
        title: "Fleet sweep: cluster balancing × per-tenant fair shedding",
        run: |seed, quick| {
            let f = fleet::fleet(seed, quick);
            Run::new(
                vec![("BENCH_fleet.json", fleet::fleet_json(&f))],
                fleet::fleet_text(&f),
            )
        },
    },
    Experiment {
        name: "pipeline",
        out_dir: "target/pipeline",
        title: "DAG pipeline: host-bounce vs GPU-resident handoff",
        run: |seed, quick| {
            let o = pipeline::pipeline(seed, quick);
            Run::new(
                vec![("BENCH_pipeline.json", pipeline::pipeline_json(&o))],
                pipeline::pipeline_text(&o),
            )
        },
    },
    Experiment {
        name: "scale",
        out_dir: "target/scale",
        title: "Scale: heavy-tailed open-loop invocations through the remoting stack",
        run: |seed, quick| {
            let cfg = if quick {
                scale::ScaleConfig::quick(seed)
            } else {
                scale::ScaleConfig::full(seed)
            };
            let (s, wall_secs) = scale::scale(&cfg);
            Run {
                files: vec![("BENCH_scale.json", scale::scale_json(&s))],
                text: scale::scale_text(&s, wall_secs),
                events_per_sec: Some(s.events as f64 / wall_secs),
            }
        },
    },
    Experiment {
        name: "obs",
        out_dir: "target/obs",
        title: "Observability: predictive vs reactive autoscaling on a 10x ramp",
        run: |seed, quick| {
            let o = obs::obs(seed, quick);
            let text = obs::obs_text(&o);
            let json = obs::obs_json(&o);
            Run::new(
                vec![("BENCH_obs.json", json), ("dashboard.json", o.dashboard)],
                text,
            )
        },
    },
    Experiment {
        name: "attribute",
        out_dir: "target/attrib",
        title: "Tail-latency attribution: critical-path decomposition",
        run: |seed, quick| {
            let a = attrib::attrib(seed, quick);
            Run::new(
                vec![
                    ("BENCH_attrib.json", attrib::attrib_json(&a)),
                    ("attrib_traces.json", attrib::traces_json(&a)),
                ],
                attrib::attrib_text(&a),
            )
        },
    },
];

/// The text-only paper tables and figures, space-separated.
const PAPER: &str = "table2 fig3 fig4 table3 fig5 table4 fig6 fig7 fig8 table5 \
    apicounts restart sjf all";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out_dir: Option<PathBuf> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(v) => out_dir = Some(v.into()),
                None => {
                    eprintln!("--out requires a directory argument");
                    exit(2);
                }
            }
        } else if !a.starts_with('-') {
            positional.push(a.as_str());
        }
    }
    let what = positional.first().copied().unwrap_or("all");

    if what == "verify" {
        let dir = out_dir.unwrap_or_else(|| "target/verify".into());
        if !verify(&dir) {
            exit(1);
        }
    } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.name == what) {
        let dir = out_dir.unwrap_or_else(|| e.out_dir.into());
        println!("== {} ==", e.title);
        let run = (e.run)(SEED, quick);
        print!("{}", run.text);
        if let Err(err) = write_files(&dir, &run.files) {
            eprintln!("{what} export failed: {err}");
            exit(1);
        }
        for (name, _) in &run.files {
            println!("wrote {}", dir.join(name).display());
        }
    } else if PAPER.split(' ').any(|p| p == what) {
        paper(what, quick);
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "unknown experiment {what:?}\nknown: {PAPER} {} verify",
            names.join(" ")
        );
        exit(2);
    }
}

fn write_files(dir: &Path, files: &[(&str, String)]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for (name, contents) in files {
        fs::write(dir.join(name), contents)?;
    }
    Ok(())
}

/// The 1-based number and both versions of the first line where `want`
/// and `got` differ, or `None` when they are byte-identical.
fn first_difference<'a>(want: &'a str, got: &'a str) -> Option<(usize, &'a str, &'a str)> {
    if want == got {
        return None;
    }
    let (mut w, mut g) = (want.split('\n'), got.split('\n'));
    let mut line = 1;
    loop {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                let eof = "<end of file>";
                return Some((line, a.unwrap_or(eof), b.unwrap_or(eof)));
            }
        }
    }
}

/// Report `got` against `want` (labelled `against`); true when identical.
fn same(path: &Path, against: &str, want: &str, got: &str) -> bool {
    match first_difference(want, got) {
        None => true,
        Some((line, w, g)) => {
            println!("MISMATCH {} vs {against}, line {line}:", path.display());
            println!("  expected: {w}");
            println!("  this run: {g}");
            false
        }
    }
}

/// Run every artifact experiment twice in quick mode and check the files
/// for determinism, the goldens and the scale throughput floor.
fn verify(out: &Path) -> bool {
    let goldens = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens"));
    let mut ok = true;
    for e in EXPERIMENTS {
        let first = (e.run)(SEED, true);
        let second = (e.run)(SEED, true);
        let dir = out.join(e.name);
        if let Err(err) = write_files(&dir, &first.files) {
            println!("FAIL {}: {err}", dir.display());
            ok = false;
        }
        for ((name, got), (_, rerun)) in first.files.iter().zip(&second.files) {
            let path = dir.join(name);
            let mut file_ok = same(&path, "second run", rerun, got);
            let mut checked = "deterministic";
            if name.starts_with("BENCH_") {
                let golden_name = name.replace(".json", "_quick.json");
                let golden = goldens.join(&golden_name);
                match fs::read_to_string(&golden) {
                    Ok(want) => {
                        file_ok &= same(&path, &format!("golden {golden_name}"), &want, got)
                    }
                    Err(err) => {
                        println!(
                            "FAIL {}: golden {}: {err}",
                            path.display(),
                            golden.display()
                        );
                        file_ok = false;
                    }
                }
                checked = "deterministic, matches golden";
            }
            if file_ok {
                println!("ok   {}: {checked}", path.display());
            }
            ok &= file_ok;
        }
        if let Some(rate) = first.events_per_sec {
            let floor_path = goldens.join("scale_events_per_sec_floor.txt");
            let floor: Option<f64> = fs::read_to_string(&floor_path)
                .ok()
                .and_then(|s| s.trim().parse().ok());
            match floor {
                Some(floor) if rate >= floor => {
                    println!("ok   {}: {rate:.0} events/sec (floor {floor})", e.name)
                }
                Some(floor) => {
                    println!("FAIL {}: {rate:.0} events/sec below floor {floor}", e.name);
                    ok = false;
                }
                None => {
                    println!("FAIL {}: unreadable floor {}", e.name, floor_path.display());
                    ok = false;
                }
            }
        }
    }
    println!(
        "verify: {}",
        if ok { "all checks passed" } else { "FAILED" }
    );
    ok
}

/// Print the text-only paper tables and figures `what` selects.
fn paper(what: &str, quick: bool) {
    let copies = if quick { 2 } else { 10 };
    let bursts = if quick { 3 } else { 10 };
    let run = |name: &str| what == name || what == "all";

    if run("table2") {
        println!("== Table II: workload runtimes across execution modes ==");
        println!("{}", single::table2_text(&single::table2()));
    }
    if run("fig3") {
        println!("== Figure 3: phase breakdown (native / DGSF-noopt / DGSF) ==");
        println!("{}", single::fig3_text(&single::fig3()));
    }
    if run("fig4") {
        println!("== Figure 4: optimization ablation (download excluded) ==");
        println!("{}", single::fig4_text(&single::fig4()));
    }
    if run("table3") || run("fig5") {
        let study = mixed::heavy_load(copies, SEED);
        if run("table3") {
            println!("== Table III: heavy load (exp gaps, mean 2 s), 4 GPUs ==");
            println!("{}", mixed::table3_text(&study));
        }
        if run("fig5") {
            println!("== Figure 5: per-workload delays under heavy load ==");
            println!("{}", mixed::per_workload_delay_text(&study.runs));
        }
    }
    if run("table4") || run("fig6") {
        let study = mixed::light_load(copies, SEED);
        if run("table4") {
            println!("== Table IV: light load (exp gaps, mean 3 s), 4 vs 3 GPUs ==");
            println!("{}", mixed::table4_text(&study));
        }
        if run("fig6") {
            println!("== Figure 6: per-workload delays under light load ==");
            let runs: Vec<(&'static str, mixed::SharingMode, dgsf::RunOutput)> = study
                .runs
                .into_iter()
                .map(|(g, m, o)| (if g == 4 { "4-gpus" } else { "3-gpus" }, m, o))
                .collect();
            println!("{}", mixed::per_workload_delay_text(&runs));
        }
    }
    if run("fig7") {
        println!("== Figure 7: GPU utilization during bursts ==");
        println!("{}", mixed::fig7_text(&mixed::burst(bursts, SEED)));
    }
    if run("fig8") {
        println!("== Figure 8: migration case study (2 NLP + 2 image-classification, 2 GPUs) ==");
        println!("{}", mixed::fig8_text(&mixed::fig8(SEED)));
    }
    if run("table5") {
        println!("== Table V: synthetic migration microbenchmark ==");
        println!("{}", single::table5_text(&single::table5()));
    }
    if run("apicounts") {
        println!("== §V-C: forwarded CUDA API reduction ==");
        println!("{}", single::apicounts_text(&single::apicounts()));
    }
    if run("restart") {
        println!("== Extension: live migration vs restart-from-scratch break-even ==");
        println!("{}", single::restart_text(&single::migration_vs_restart()));
    }
    if run("sjf") {
        println!("== Extension (§VIII-D future work): FCFS vs smallest-first queueing ==");
        println!(
            "{}",
            mixed::queue_policy_text(&mixed::queue_policy(copies, SEED))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_line_and_both_versions() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_difference("a\nb\n", "a\nc\n"), Some((2, "b", "c")));
        // A missing trailing newline or a truncated file still differs.
        assert_eq!(first_difference("a\n", "a"), Some((2, "", "<end of file>")));
        assert_eq!(
            first_difference("a", "a\nextra"),
            Some((2, "<end of file>", "extra"))
        );
    }
}
