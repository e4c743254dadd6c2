//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric with its unit and clock, then
//! a JSON result line. `--trace 0` reports the end-to-end metrics from
//! untraced passes; `--trace 1` the per-layer metrics from a traced run.
//! `--digest` prints the workload's reference digest line instead. Exits
//! non-zero when an output check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{self, Kind};
use perfbench::sys::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut digest = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => out = value()?.into(),
            "--digest" => digest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        digest,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    if args.digest {
        return match bench::digest_of(args.kind, args.seed) {
            Ok(d) => {
                println!("{}\t{}\t{d:016x}", args.kind.name(), args.seed);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!(
                    "perfbench: {} seed {} failed: {e}",
                    args.kind.name(),
                    args.seed
                );
                ExitCode::FAILURE
            }
        };
    }
    let report = if args.trace {
        bench::traced_run(args.kind, args.seed, args.seconds, &args.out)
    } else {
        bench::timed_run(args.kind, args.seed, args.seconds, &args.out)
    };
    print!("{}", report.text());
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
