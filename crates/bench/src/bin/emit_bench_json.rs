//! Machine-readable replay benchmark: runs the persistent-pool replay
//! engine at 1/2/4/8 shards over the standard SYN-flood workload and
//! writes `BENCH_replay.json` — throughput, epoch/merge timing
//! quantiles, the detector's detection-delay distribution, and the
//! pool-vs-reference speedup per shard count. `reference_pps` is the
//! throughput of `replay::reference`, the threadless sequential oracle
//! that runs the same epoch coordinator with a plain per-frame loop.
//!
//! ```text
//! cargo run -p bench --bin emit_bench_json --release [-- [--check] [OUT.json]]
//! ```
//!
//! With `--check` the process exits 1 unless every gate holds:
//!
//! - best multi-shard pool throughput ≥ the single-shard pool baseline
//!   ("sharding still pays for itself"; skipped with a note on
//!   single-core machines, where a multi-shard win is not physically
//!   expected);
//! - `partition_ns` carries exactly one sample per closed epoch (the
//!   warm-up hash pass must land in `prepartition_ns`, not the
//!   per-epoch histogram);
//! - merge cost grows **sub-linearly** in shard count: the 8-shard
//!   merge p50 stays under 4× the 1-shard p50 — the sparse delta path
//!   folds only touched cells, so per-barrier cost must not scale with
//!   8× the full tracker state (the pre-delta engine sat at ~7×);
//! - the delta telemetry proves sparsity: nonzero `merge_delta_bytes`
//!   and `merge_skipped_registers`, and at most 2 full rebuilds per
//!   faultless run (the first barrier, plus slack for one alive-map
//!   hiccup).
//!
//! The numbers come straight from the run's telemetry snapshot, so the
//! benchmark exercises the same instrumentation the `--metrics-out`
//! CLI path exports; the JSON is hand-rolled (no serde derive) like the
//! rest of the telemetry layer, keeping the workspace offline-buildable.

use replay::{reference, run_replay, ReplayConfig, ReplayOutcome};
use telemetry::{json_string, LogLinearHistogram};
use workloads::{Schedule, SynFloodWorkload};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn workload() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 50_000,
        flood_start: 400_000_000,
        duration: 900_000_000,
        seed: 4,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

/// `"name":{"p50":..,"p99":..,"max":..,"count":..}` for a histogram,
/// with nulls when empty.
fn hist_json(name: &str, h: &LogLinearHistogram) -> String {
    let q = |p: u32| h.quantile(p).map_or(String::from("null"), |v| v.to_string());
    format!(
        "{}:{{\"p50\":{},\"p99\":{},\"max\":{},\"count\":{}}}",
        json_string(name),
        q(50),
        q(99),
        h.max().map_or(String::from("null"), |v| v.to_string()),
        h.count()
    )
}

/// Best throughput over `passes` timed runs (after the caller's
/// warmup), so one scheduler hiccup doesn't skew the published number.
fn best_pps(passes: usize, run: impl Fn() -> ReplayOutcome) -> (ReplayOutcome, f64) {
    let mut best: Option<(ReplayOutcome, f64)> = None;
    for _ in 0..passes {
        let out = run();
        let pps = out.throughput_pps();
        if best.as_ref().is_none_or(|(_, b)| pps > *b) {
            best = Some((out, pps));
        }
    }
    best.expect("at least one benchmark pass")
}

fn main() {
    let mut check = false;
    let mut out_path = String::from("BENCH_replay.json");
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out_path = arg;
        }
    }
    let schedule = workload();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "sharded replay benchmark: {} packets, shard counts {SHARD_COUNTS:?}, {cores} core(s)",
        schedule.len()
    );

    let mut runs = Vec::new();
    let mut pool_pps = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    let mut merge_p50: Vec<Option<u64>> = Vec::new();
    for shards in SHARD_COUNTS {
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        // Warmup pass: fault in the page cache and warm the allocator
        // before anything is timed.
        let _ = run_replay(&schedule, &cfg);
        let (out, pps) = best_pps(3, || run_replay(&schedule, &cfg));
        let (_, ref_pps) = best_pps(3, || reference::run_replay(&schedule, &cfg));
        pool_pps.push(pps);
        let t = &out.telemetry;
        let merged = t.merged_shard();
        let delay = &t.detector.detection_delay;
        println!(
            "  {shards} shard(s): {pps:>8.0} pkt/s pool, {ref_pps:>8.0} pkt/s reference \
             ({:.2}x), {} epochs, {} alerts",
            pps / ref_pps,
            out.epochs,
            out.alerts.len(),
        );
        runs.push(format!(
            "{{\"shards\":{shards},\"packets\":{},\"epochs\":{},\"alerts\":{},\
             \"elapsed_ns\":{},\"pps\":{pps:.0},\"reference_pps\":{ref_pps:.0},\
             \"speedup_vs_reference\":{:.3},\"detected_at_ns\":{},\
             \"merge_delta_bytes\":{},\"merge_skipped_registers\":{},\
             \"merge_rebuilds\":{},{},{},{},{},{},{}}}",
            out.packets,
            out.epochs,
            out.alerts.len(),
            t.elapsed_ns,
            pps / ref_pps,
            out.detected_at
                .map_or(String::from("null"), |v| v.to_string()),
            t.merge_delta_bytes.get(),
            t.merge_skipped_registers.get(),
            t.merge_rebuilds.get(),
            hist_json("detection_delay_ns", delay),
            hist_json("epoch_ns", &t.epoch_ns),
            hist_json("merge_ns", &t.merge_ns),
            hist_json("barrier_wait_ns", &merged.barrier_wait_ns),
            hist_json("partition_ns", &t.partition_ns),
            hist_json("queue_wait_ns", &merged.queue_wait_ns),
        ));
        merge_p50.push(t.merge_ns.quantile(50));
        // Per-run gates: recorded here (where the telemetry is in
        // scope), reported under --check after the JSON is written.
        if t.partition_ns.count() != out.epochs {
            gate_failures.push(format!(
                "{shards} shard(s): partition_ns carries {} samples for {} epochs \
                 (warm-up pass must land in prepartition_ns)",
                t.partition_ns.count(),
                out.epochs
            ));
        }
        if t.merge_delta_bytes.get() == 0 || t.merge_skipped_registers.get() == 0 {
            gate_failures.push(format!(
                "{shards} shard(s): delta merge telemetry is not sparse \
                 (delta_bytes={}, skipped_registers={})",
                t.merge_delta_bytes.get(),
                t.merge_skipped_registers.get()
            ));
        }
        if t.merge_rebuilds.get() > 2 {
            gate_failures.push(format!(
                "{shards} shard(s): {} full merge rebuilds on a faultless run \
                 (expected 1, tolerating 2)",
                t.merge_rebuilds.get()
            ));
        }
    }

    let json = format!(
        "{{\"benchmark\":\"sharded_replay\",\"workload\":\"synflood\",\
         \"packets\":{},\"cores\":{cores},\"runs\":[{}]}}\n",
        schedule.len(),
        runs.join(",")
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("emit_bench_json: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if check {
        // Sub-linear merge growth: the sparse delta path folds only the
        // cells touched during the epoch, so the 8-shard merge p50 must
        // stay well under 8x the 1-shard p50. A floor of 2048 ns on the
        // baseline keeps the ratio meaningful when single-shard merges
        // are too fast for the histogram's resolution.
        if let (Some(&Some(one)), Some(&Some(eight))) = (merge_p50.first(), merge_p50.last()) {
            let bound = 4 * one.max(2048);
            if eight >= bound {
                gate_failures.push(format!(
                    "merge p50 grew super-linearly: {eight} ns at 8 shards vs \
                     {one} ns at 1 shard (bound {bound} ns)"
                ));
            } else {
                println!("--check: merge p50 {one} ns @1 shard -> {eight} ns @8 shards (sub-linear)");
            }
        } else {
            gate_failures.push(String::from("merge_ns histogram is empty at 1 or 8 shards"));
        }
        if cores < 2 {
            println!("--check: throughput gate skipped (single core; multi-shard speedup not expected)");
        } else {
            let single = pool_pps[0];
            let best_multi = pool_pps[1..].iter().copied().fold(f64::MIN, f64::max);
            if best_multi < single {
                gate_failures.push(format!(
                    "best multi-shard throughput {best_multi:.0} pkt/s is below \
                     the 1-shard baseline {single:.0} pkt/s"
                ));
            } else {
                println!(
                    "--check: best multi-shard {best_multi:.0} pkt/s >= 1-shard {single:.0} pkt/s"
                );
            }
        }
        if !gate_failures.is_empty() {
            for f in &gate_failures {
                eprintln!("--check: FAILED — {f}");
            }
            std::process::exit(1);
        }
        println!("--check: ok — all gates passed");
    }
}
