//! Layered benchmark of the replay engine and the paper's data plane.
//!
//! ```text
//! cargo run --release --offline --manifest-path layerbench/Cargo.toml -- \
//!     --workload <flood_ingest|epoch_churn|ckpt_cadence|casestudy_drilldown> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload end to end and reports the end-to-end
//! metrics; `--trace 1` is the separate traced run that reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is the JSON result. A failed correctness check makes
//! the exit code 1. See `README.md` for the workloads and metrics.

mod e2e;
mod layers;
mod report;
mod scenario;
mod spans;
mod stats;

use report::{json_num, Report};
use scenario::{Workload, ENGINE_PREHASH_THREADS, SHARDS};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: layerbench --workload <flood_ingest|epoch_churn|ckpt_cadence|\
                     casestudy_drilldown> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The first `model name` in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| String::from("unknown"))
}

/// The host record, one JSON line.
fn host_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {:?}, \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"shards\": {SHARDS}, \"engine_prehash_threads\": \
         {ENGINE_PREHASH_THREADS}, \"benchmark_threads\": 1}}",
        cpu_model(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn print_report(report: &Report) {
    for note in &report.notes {
        println!("note: {note}");
    }
    for m in report.metrics.iter().chain(&report.extra) {
        println!(
            "metric: {:<44} {:>18} {}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.result_json());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host_json(&args));
    let budget = Duration::from_secs(args.seconds);
    let report = match (args.workload.replay_spec(), args.trace) {
        (Some(spec), false) => e2e::replay(args.workload, &spec, args.seed, budget),
        (None, false) => e2e::casestudy(args.seed, budget),
        (_, true) => layers::traced(args.workload, args.seed, budget),
    };
    print_report(&report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
