//! End-to-end runs (`--trace 0`): each workload is a closed-loop batch
//! job with one client, repeated back to back for the measuring time.
//! Every repetition's outputs are checked.

use crate::report::Report;
use crate::scenario::{self, ReplayInput, ReplaySpec, Workload, CTRL_DELAY_NS, SHARDS};
use crate::stats::{iqr_share, median, quartiles, BlockQuantiles};
use anomaly::drilldown::{DrilldownController, DrilldownPhase};
use faultinject::FaultSchedule;
use netsim::P4SwitchNode;
use replay::{
    run_replay, run_replay_lifecycle, LifecyclePlan, ReplayConfig, ReplayOutcome, ShardState,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use telemetry::LogLinearHistogram;
use workloads::Schedule;

/// Set-ups per run; `setup_s` is their median.
/// The first set-ups of a process run on a cold heap and take about
/// 1.5× longer; with 7 the median always falls among warm ones.
pub const SETUP_REPS: usize = 7;
/// Fewest timed repetitions per run, however long each takes.
pub const MIN_REPS: usize = 3;

/// Directory the benchmark owns for the files it writes (checkpoints,
/// span dumps).
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Times `SETUP_REPS` set-ups and keeps the last one's product.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        median(&secs).expect("set-up times"),
    )
}

/// Repeats `rep` until `budget` has passed and at least [`MIN_REPS`]
/// ran; returns how many ran.
pub fn repeat_for(budget: Duration, mut rep: impl FnMut()) -> usize {
    let started = Instant::now();
    let mut n = 0;
    while n < MIN_REPS || started.elapsed() < budget {
        rep();
        n += 1;
    }
    n
}

/// The within-run spread of per-repetition throughput.
fn rep_spread(pps: &[f64]) -> String {
    let (q1, q3) = quartiles(pps).unwrap_or((f64::NAN, f64::NAN));
    format!(
        "throughput over {} reps: q1 {q1:.0}, median {:.0}, q3 {q3:.0} pkt/s (IQR {:.1}% of median)",
        pps.len(),
        median(pps).unwrap_or(f64::NAN),
        iqr_share(pps).unwrap_or(f64::NAN) * 100.0
    )
}

/// What the checks compare every timed repetition against: a 1-shard
/// run (shard-count invariance) and a sequential fold of the schedule.
pub struct Baseline {
    pub one_shard: ReplayOutcome,
    pub fold: Fold,
}

impl Baseline {
    /// Computes the baseline, untimed.
    #[must_use]
    pub fn new(schedule: &Schedule, spec: &ReplaySpec) -> Self {
        Self {
            one_shard: run_replay(schedule, &spec.config(1)),
            fold: sequential_fold(schedule, &spec.config(1)),
        }
    }

    /// Checks one multi-shard outcome against the baseline.
    pub fn check(&self, out: &ReplayOutcome, report: &mut Report) {
        let b = &self.one_shard;
        report.packets(out.health.packets_offered, out.health.packets_ingested);
        report.check(out.alerts == b.alerts, || {
            format!(
                "{} alerts at {SHARDS} shards, {} at 1 shard",
                out.alerts.len(),
                b.alerts.len()
            )
        });
        report.check(out.detected_at == b.detected_at, || {
            format!(
                "detected_at {:?} at {SHARDS} shards, {:?} at 1 shard",
                out.detected_at, b.detected_at
            )
        });
        let (m, f) = (&out.merged, &self.fold.state);
        let mismatch = [
            ("packets", m.packets == f.packets),
            ("kinds", m.kinds == f.kinds),
            ("len_stats", m.len_stats == f.len_stats),
            ("dst_sketch", m.dst_sketch == f.dst_sketch),
            ("src_hll", m.src_hll == f.src_hll),
        ]
        .into_iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| name)
        .collect::<Vec<_>>();
        report.check(mismatch.is_empty(), || {
            format!("merged trackers differ from a sequential fold: {mismatch:?}")
        });
        // The per-epoch merged view is checked where the detectors
        // consumed it: the signals of every provenance record.
        let wrong: Vec<u64> = out
            .provenance
            .iter()
            .map(|p| &p.provenance.signals)
            .filter(|sig| {
                let got = [sig.packets, sig.syns, sig.len_sum, sig.distinct_sources];
                self.fold.signals.get(&sig.epoch) != Some(&got)
            })
            .map(|sig| sig.epoch)
            .collect();
        report.check(!out.provenance.is_empty() && wrong.is_empty(), || {
            format!(
                "interval signals differ from a sequential fold at {} of {} provenance \
                 records, first at epochs {:?}",
                wrong.len(),
                out.provenance.len(),
                &wrong[..wrong.len().min(4)]
            )
        });
    }
}

/// A sequential fold of a schedule: the final state, plus every
/// epoch's `[packets, syns, len_sum, distinct_sources]` just before its
/// close. The interval fields and the HLL registers reset at each
/// close, so the final state alone cannot show them.
pub struct Fold {
    pub state: ShardState,
    pub signals: BTreeMap<u64, [i64; 4]>,
}

/// Folds the schedule through one [`ShardState`] epoch by epoch,
/// closing the interval at the end of every epoch as the engine does,
/// so the result is comparable with the engine's final merged view.
#[must_use]
pub fn sequential_fold(schedule: &Schedule, cfg: &ReplayConfig) -> Fold {
    let mut state = ShardState::new(cfg);
    let mut signals = BTreeMap::new();
    for (e, range) in epoch_ranges(schedule, cfg.detector.interval_ns.max(1)) {
        for (_, frame) in &schedule[range] {
            state.ingest(frame);
        }
        let sources = i64::try_from(state.src_hll.estimate()).unwrap_or(i64::MAX);
        signals.insert(
            e,
            [
                state.packets_in_interval,
                state.syn_in_interval,
                state.len_sum_in_interval,
                sources,
            ],
        );
        state.close_interval();
    }
    Fold { state, signals }
}

/// Epoch ranges of a time-sorted schedule: contiguous runs of
/// `t / interval`, as the engine cuts them.
#[must_use]
pub fn epoch_ranges(schedule: &Schedule, interval: u64) -> Vec<(u64, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < schedule.len() {
        let e = schedule[i].0 / interval;
        let mut j = i;
        while j < schedule.len() && schedule[j].0 / interval == e {
            j += 1;
        }
        out.push((e, i..j));
        i = j;
    }
    out
}

/// Detection quality of a replay outcome against the flood's onset:
/// `(detect_delay_epochs, pinpoint_s, false_alerts)`. The delay counts
/// epochs from the onset's epoch to the one whose close raised the
/// first alert (1 = detected at the close of the onset epoch); the
/// pinpoint is the simulated time from onset until the drill-down
/// ladder rebinds to host granularity.
#[must_use]
pub fn replay_quality(
    out: &ReplayOutcome,
    onset_ns: u64,
    interval_ns: u64,
) -> (Option<f64>, Option<f64>, u64) {
    let false_alerts = out.alerts.iter().filter(|a| a.at() <= onset_ns).count() as u64;
    let delay = out
        .alerts
        .iter()
        .map(anomaly::Alert::at)
        .find(|&at| at > onset_ns)
        .map(|at| (at / interval_ns - onset_ns / interval_ns) as f64);
    let pinpoint = out
        .provenance
        .iter()
        .flat_map(|p| &p.drilldown)
        .find(|tx| tx.to_phase == "hosts" && tx.at > onset_ns)
        .map(|tx| (tx.at - onset_ns) as f64 / 1e9);
    (delay, pinpoint, false_alerts)
}

/// Checkpoints a run of `epochs` epochs writes at `every`.
#[must_use]
pub fn expected_checkpoints(epochs: u64, every: u64) -> u64 {
    epochs.saturating_sub(1) / every
}

/// A lifecycle plan checkpointing into `dir` every `every` epochs.
#[must_use]
pub fn ckpt_plan(dir: &Path, every: u64) -> LifecyclePlan {
    LifecyclePlan {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: every,
        ..LifecyclePlan::none()
    }
}

/// Removes and recreates an empty directory.
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the benchmark's output directory");
}

/// One replay workload, end to end.
pub fn replay(w: Workload, spec: &ReplaySpec, seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let ckpt_dir = out_dir().join(format!("ckpt-{}", w.name()));
    let (input, setup_s): (ReplayInput, f64) = timed_setup(|| {
        let input = spec.generate(seed);
        if spec.checkpoint_every.is_some() {
            fresh_dir(&ckpt_dir);
        }
        input
    });
    let schedule = &input.schedule;
    let cfg = spec.config(SHARDS);
    let base = Baseline::new(schedule, spec);
    let plan = spec
        .checkpoint_every
        .map_or_else(LifecyclePlan::none, |every| ckpt_plan(&ckpt_dir, every));
    let run = |report: &mut Report| -> (ReplayOutcome, f64) {
        if spec.checkpoint_every.is_some() {
            fresh_dir(&ckpt_dir);
        }
        let t0 = Instant::now();
        let Some(every) = spec.checkpoint_every else {
            let out = run_replay(schedule, &cfg);
            return (out, t0.elapsed().as_secs_f64());
        };
        let (out, lc) = run_replay_lifecycle(schedule, &cfg, &FaultSchedule::none(), &plan);
        let wall = t0.elapsed().as_secs_f64();
        let want = expected_checkpoints(out.epochs, every);
        report.check(lc.checkpoints_written == want, || {
            format!(
                "{} checkpoints written, expected {want}",
                lc.checkpoints_written
            )
        });
        (out, wall)
    };
    // Warm-up: fault in the schedule and the allocator; checked, not timed.
    let (warm, _) = run(&mut report);
    base.check(&warm, &mut report);
    let epochs = warm.epochs;
    drop(warm);

    let mut pps = Vec::new();
    let mut epoch_ns = BlockQuantiles::default();
    let reps = repeat_for(budget, || {
        let (out, wall) = run(&mut report);
        base.check(&out, &mut report);
        pps.push(schedule.len() as f64 / wall);
        epoch_ns.add(&out.telemetry.epoch_ns);
    });
    if spec.checkpoint_every.is_some() {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    let (delay, pinpoint, false_alerts) =
        replay_quality(&base.one_shard, input.onset_ns, spec.interval_ns);
    report.check(delay.is_some(), || String::from("flood never detected"));
    report.check(pinpoint.is_some(), || {
        String::from("drill-down never reached host granularity")
    });
    report.check(epoch_ns.blocks() > 0, || {
        format!("{} epoch samples: too few for a p99", epoch_ns.samples())
    });

    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_pps", median(&pps).unwrap_or(f64::NAN), "pkt/s");
    report.metric(
        "epoch_p50_us",
        epoch_ns.p50().unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    report.extra(
        "epoch_p99_us",
        epoch_ns.p99().unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    report.metric("detect_delay_epochs", delay.unwrap_or(f64::NAN), "epochs");
    report.metric("pinpoint_s", pinpoint.unwrap_or(f64::NAN), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.extra("false_alerts", false_alerts as f64, "count");
    report.extra("failed_frac", report.failed_frac(), "share");
    report.note(rep_spread(&pps));
    report.note(format!(
        "{}: {} packets, {epochs} epochs of {} ms, {SHARDS} shards, onset {:.4} s, victim {}, \
         {reps} timed reps, {} epoch samples in {} blocks",
        w.name(),
        schedule.len(),
        spec.interval_ns / 1_000_000,
        input.onset_ns as f64 / 1e9,
        input.victim,
        epoch_ns.samples(),
        epoch_ns.blocks()
    ));
    report
}

/// Outcome of one case-study simulation.
pub struct CaseRun {
    pub wall_s: f64,
    pub interval_ns: LogLinearHistogram,
    pub events: u64,
    pub packets_processed: u64,
    pub process_errors: u64,
    pub phase_done: bool,
    pub report: anomaly::drilldown::DrilldownReport,
}

/// Runs the case-study network over `schedule`, timing every simulated
/// detector interval separately.
#[must_use]
pub fn case_run(schedule: Schedule) -> CaseRun {
    // Intervals are timed while traffic flows; the control-plane tail
    // after the last packet runs untimed per interval (but counts in
    // the wall time).
    let end = schedule.last().map_or(0, |(t, _)| *t);
    let mut cs = scenario::case_build(schedule);
    let interval = scenario::case_interval_ns();
    let mut interval_ns = LogLinearHistogram::default();
    let t0 = Instant::now();
    let mut until = interval;
    while until <= end {
        let t = Instant::now();
        cs.sim.run_until(until - 1);
        interval_ns.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        until += interval;
    }
    cs.sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let sw = cs
        .sim
        .node_as::<P4SwitchNode>(cs.switch)
        .expect("switch node");
    let ctl = cs
        .sim
        .node_as::<DrilldownController>(cs.controller)
        .expect("controller node");
    CaseRun {
        wall_s,
        interval_ns,
        events: cs.sim.events_processed,
        packets_processed: sw.pipeline.packets_processed(),
        process_errors: sw.process_errors,
        phase_done: matches!(ctl.phase, DrilldownPhase::Done { .. }),
        report: ctl.report,
    }
}

/// Checks one case-study run; returns `(detect_delay_epochs,
/// pinpoint_s, false_alerts)`.
pub fn case_check(
    run: &CaseRun,
    offered: u64,
    truth: &workloads::SpikeGroundTruth,
    report: &mut Report,
) -> (Option<f64>, Option<f64>, u64) {
    let interval = scenario::case_interval_ns();
    report.packets(
        offered,
        run.packets_processed.saturating_sub(run.process_errors),
    );
    let emitted = run
        .report
        .spike_alert_at
        .map(|at| at.saturating_sub(CTRL_DELAY_NS));
    report.check(
        emitted.is_some_and(|e| {
            e >= truth.spike_start && e <= truth.spike_start + interval + interval / 4
        }),
        || {
            format!(
                "spike digest emitted at {emitted:?}, onset {} ns: not in the first interval",
                truth.spike_start
            )
        },
    );
    report.check(
        run.phase_done && run.report.dest == Some(truth.spike_dest),
        || {
            format!(
                "pinpointed {:?} (done: {}), spike went to {}",
                run.report.dest, run.phase_done, truth.spike_dest
            )
        },
    );
    let delay = emitted.map(|e| (e / interval - truth.spike_start / interval) as f64);
    let pinpoint = run
        .report
        .pinpointed_at
        .map(|at| at.saturating_sub(truth.spike_start) as f64 / 1e9);
    let false_alerts = u64::from(emitted.is_some_and(|e| e < truth.spike_start));
    (delay, pinpoint, false_alerts)
}

/// The case study, end to end.
pub fn casestudy(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    // Set-up: generate the trace and build the app and the network.
    let ((schedule, truth), setup_s) = timed_setup(|| {
        let (schedule, truth) = scenario::case_generate(seed);
        drop(scenario::case_build(schedule.clone()));
        (schedule, truth)
    });
    let offered = schedule.len() as u64;
    let warm = case_run(schedule.clone());
    let quality = case_check(&warm, offered, &truth, &mut report);
    let (delay, pinpoint, false_alerts) = quality;
    let events = warm.events;
    drop(warm);

    let mut pps = Vec::new();
    let mut intervals = BlockQuantiles::default();
    let reps = repeat_for(budget, || {
        let run = case_run(schedule.clone());
        let again = case_check(&run, offered, &truth, &mut report);
        report.check(again == quality && run.events == events, || {
            String::from("case study is not deterministic across repetitions")
        });
        pps.push(offered as f64 / run.wall_s);
        intervals.add(&run.interval_ns);
    });
    report.check(intervals.blocks() > 0, || {
        format!(
            "{} interval samples: too few for a p99",
            intervals.samples()
        )
    });

    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_pps", median(&pps).unwrap_or(f64::NAN), "pkt/s");
    report.metric(
        "epoch_p50_us",
        intervals.p50().unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    report.extra(
        "epoch_p99_us",
        intervals.p99().unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    report.metric("detect_delay_epochs", delay.unwrap_or(f64::NAN), "epochs");
    report.metric("pinpoint_s", pinpoint.unwrap_or(f64::NAN), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.extra("false_alerts", false_alerts as f64, "count");
    report.extra("failed_frac", report.failed_frac(), "share");
    report.note(rep_spread(&pps));
    report.note(format!(
        "casestudy_drilldown: {offered} packets, {events} events per run, onset {:.4} s, dest {}, \
         {reps} timed reps, {} interval samples in {} blocks",
        truth.spike_start as f64 / 1e9,
        truth.spike_dest,
        intervals.samples(),
        intervals.blocks()
    ));
    report
}
