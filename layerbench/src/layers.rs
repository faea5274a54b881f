//! The traced run (`--trace 1`): per-layer numbers, taken by timing
//! calls into each layer's public functions from this file.
//!
//! - **Traced pass.** A sequential re-enactment of the replay engine's
//!   per-epoch work on the workload's schedule: flow-hash routing,
//!   batched frame parse and tracker ingest per shard, the barrier's
//!   delta take/apply, the ensemble and the drill-down ladder. Every
//!   call sits in a span ([`crate::spans`]); layer self times come from
//!   the spans. The same pass also runs with the recorder off, and the
//!   difference is the tracing overhead.
//! - **Probes.** The replay pool's own telemetry, a checkpointing run,
//!   per-tracker loops, the p4sim interpreter per program, the netsim
//!   case-study network and the telemetry primitives, each timed on the
//!   workload's own schedule.
//!
//! Every layer is measured on every workload; `README.md` says on
//! which workload each one is on the end-to-end path.

use crate::e2e::{
    self, case_run, ckpt_plan, epoch_ranges, fresh_dir, out_dir, timed_setup, MIN_REPS,
};
use crate::report::Report;
use crate::scenario::{self, Workload, SHARDS};
use crate::spans::{Recorder, COORDINATOR};
use crate::stats::{hist_quantile, median};
use anomaly::drilldown::ScoreDrilldown;
use anomaly::SignalContext;
use faultinject::FaultSchedule;
use replay::{
    ckpt, parse_frame, run_replay, run_replay_lifecycle, FrameMeta, ReplayConfig, ShardState,
};
use stat4_core::Mergeable;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::{LogLinearHistogram, TracePhase, Tracer};
use workloads::Schedule;

/// Real replay-engine runs behind the pool metrics.
const POOL_RUNS: usize = 3;
/// Checkpoints the probe aims for on workloads without a cadence.
const PROBE_CKPTS: u64 = 8;
/// Calls per telemetry micro-probe.
const MICRO_CALLS: usize = 1 << 20;

/// Layer spans of the traced pass, in report order.
const SHARD_OF: &str = "workloads.shard_of";
const PARSE: &str = "replay.parse_frame";
const INGEST: &str = "stat4_core.ingest";
const TAKE: &str = "replay.barrier.take_delta";
const APPLY: &str = "replay.barrier.apply_delta";
const ENSEMBLE: &str = "anomaly.ensemble";
const DRILL: &str = "anomaly.drilldown";
const CLOSE: &str = "replay.close_interval";
const EPOCH: &str = "epoch";

fn secs_ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Counts the traced pass produces besides its spans.
#[derive(Debug, Default, Clone, Copy)]
struct PassCounts {
    packets: u64,
    epochs: u64,
    delta_bytes: u64,
    touched: u64,
    wall_ns: f64,
}

/// One sequential re-enactment of the engine's epochs over `schedule`.
fn pass(schedule: &Schedule, cfg: &ReplayConfig, rec: &mut Recorder) -> PassCounts {
    let interval = cfg.detector.interval_ns.max(1);
    let mut states: Vec<ShardState> = (0..SHARDS).map(|_| ShardState::new(cfg)).collect();
    let mut acc = ShardState::new(cfg);
    let mut ensemble = replay::build_ensemble(cfg);
    let mut drill = ScoreDrilldown::new(cfg.ensemble.trigger);
    let mut work: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
    let mut metas: Vec<FrameMeta> = Vec::new();
    let mut counts = PassCounts::default();
    let started = Instant::now();
    for (e, range) in epoch_ranges(schedule, interval) {
        rec.begin(EPOCH, e, COORDINATOR);
        rec.span(SHARD_OF, e, COORDINATOR, || {
            for w in &mut work {
                w.clear();
            }
            for idx in range.clone() {
                work[workloads::shard_of(&schedule[idx].1, SHARDS)].push(idx);
            }
        });
        for (s, (state, slice)) in states.iter_mut().zip(&work).enumerate() {
            let lane = s as u32;
            for chunk in slice.chunks(cfg.batch.max(1)) {
                rec.span(PARSE, e, lane, || {
                    metas.clear();
                    metas.extend(chunk.iter().map(|&i| parse_frame(&schedule[i].1)));
                });
                rec.span(INGEST, e, lane, || {
                    for m in &metas {
                        state.ingest_meta(m);
                    }
                });
            }
        }
        // The barrier: interval fields start fresh, then every shard's
        // delta folds into the accumulator.
        acc.syn_in_interval = 0;
        acc.packets_in_interval = 0;
        acc.len_sum_in_interval = 0;
        acc.src_hll.reset();
        for state in &mut states {
            let delta = rec.span(TAKE, e, COORDINATOR, || state.take_delta());
            counts.delta_bytes += delta.wire_bytes();
            counts.touched += delta.touched_registers();
            rec.span(APPLY, e, COORDINATOR, || acc.apply_delta(&delta))
                .expect("deltas of one configuration merge");
        }
        let ctx = SignalContext {
            at: (e + 1) * interval,
            epoch: e,
            interval_ns: interval,
            spanned: 1,
            packets: acc.packets_in_interval,
            syns: acc.syn_in_interval,
            len_sum: acc.len_sum_in_interval,
            distinct_sources: i64::try_from(acc.src_hll.estimate()).unwrap_or(i64::MAX),
            median_len: acc.len_median.estimate(0).unwrap_or(0),
            kinds: &acc.kinds,
            len_stats: &acc.len_stats,
        };
        let verdict = rec.span(ENSEMBLE, e, COORDINATOR, || ensemble.observe(&ctx));
        black_box(rec.span(DRILL, e, COORDINATOR, || drill.observe(&verdict)));
        for state in &mut states {
            rec.span(CLOSE, e, COORDINATOR, || state.close_interval());
        }
        rec.end();
        counts.packets += range.len() as u64;
        counts.epochs += 1;
    }
    counts.wall_ns = secs_ns(started.elapsed());
    counts
}

/// Blocking-path time of the traced pass as the pool would run it with
/// the shards in parallel: per epoch, the slowest shard's parse and
/// ingest plus everything the pool's coordinator does itself (routing,
/// delta take and apply, ensemble, drill-down, interval close).
fn critical_path_ns(rec: &Recorder) -> f64 {
    let mut per: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    let mut coord: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, t) in rec.spans().iter().zip(rec.self_times()) {
        if s.name == EPOCH {
            continue;
        }
        if s.lane == COORDINATOR {
            *coord.entry(s.epoch).or_default() += t;
        } else {
            *per.entry((s.epoch, s.lane)).or_default() += t;
        }
    }
    let mut slowest: BTreeMap<u64, u64> = BTreeMap::new();
    for ((e, _), t) in per {
        let m = slowest.entry(e).or_default();
        *m = (*m).max(t);
    }
    (coord.values().sum::<u64>() + slowest.values().sum::<u64>()) as f64
}

/// Trace events per epoch the engine's own tracers record, counted over
/// the epochs every tracer still covered before its buffer filled.
fn spans_per_epoch(tracers: &[&Tracer]) -> f64 {
    let covered = tracers
        .iter()
        .filter_map(|t| t.events().last().map(|e| e.epoch))
        .min()
        .unwrap_or(0);
    let begins = tracers
        .iter()
        .flat_map(|t| t.events())
        .filter(|e| e.epoch < covered && e.phase == TracePhase::Begin)
        .count();
    let epochs = tracers.first().map_or(0, |t| {
        let mut seen: Vec<u64> = t
            .events()
            .iter()
            .map(|e| e.epoch)
            .filter(|&e| e < covered)
            .collect();
        seen.dedup();
        seen.len()
    });
    begins as f64 / epochs.max(1) as f64
}

/// The replay pool's own telemetry over real runs.
fn probe_pool(
    schedule: &Schedule,
    cfg: &ReplayConfig,
    detect_ns_per_epoch: f64,
    report: &mut Report,
) -> f64 {
    let mut queue_wait = LogLinearHistogram::default();
    let mut barrier_wait = LogLinearHistogram::default();
    let mut prepartition = Vec::new();
    let mut handoff = Vec::new();
    let mut walls = Vec::new();
    let mut spe = 0.0;
    for _ in 0..POOL_RUNS {
        let t0 = Instant::now();
        let out = run_replay(schedule, cfg);
        walls.push(secs_ns(t0.elapsed()));
        let t = &out.telemetry;
        for s in &t.shards {
            queue_wait
                .merge_from(&s.queue_wait_ns)
                .expect("same geometry");
            barrier_wait
                .merge_from(&s.barrier_wait_ns)
                .expect("same geometry");
        }
        prepartition.push(t.prepartition_ns.get() as f64);
        let slowest_ingest = t
            .shards
            .iter()
            .map(|s| s.ingest_ns.get())
            .max()
            .unwrap_or(0) as f64;
        let epochs = out.epochs.max(1) as f64;
        let rest = t.epoch_ns.sum() as f64 - slowest_ingest - t.merge_ns.sum() as f64;
        handoff.push(rest / epochs - detect_ns_per_epoch);
        let mut tracers: Vec<&Tracer> = vec![&t.trace];
        tracers.extend(&t.shard_traces);
        spe = spans_per_epoch(&tracers);
    }
    report.metric(
        "replay.pool.queue_wait_ns_p50",
        hist_quantile(&queue_wait, 50.0).unwrap_or(f64::NAN),
        "ns",
    );
    report.metric(
        "replay.pool.barrier_wait_ns_p50",
        hist_quantile(&barrier_wait, 50.0).unwrap_or(f64::NAN),
        "ns",
    );
    report.metric(
        "replay.pool.prepartition_ns",
        median(&prepartition).unwrap_or(f64::NAN),
        "ns",
    );
    report.metric(
        "replay.pool.handoff_ns_per_epoch",
        median(&handoff).unwrap_or(f64::NAN),
        "ns",
    );
    report.metric("telemetry.spans_per_epoch", spe, "count");
    median(&walls).unwrap_or(f64::NAN)
}

/// A checkpointing run: write latency from the run's telemetry, then
/// parse and re-serialise every checkpoint it wrote.
fn probe_ckpt(
    w: Workload,
    schedule: &Schedule,
    cfg: &ReplayConfig,
    every: u64,
    report: &mut Report,
) {
    let dir = out_dir().join(format!("ckpt-probe-{}", w.name()));
    fresh_dir(&dir);
    let (out, lc) = run_replay_lifecycle(
        schedule,
        cfg,
        &FaultSchedule::none(),
        &ckpt_plan(&dir, every),
    );
    let want = e2e::expected_checkpoints(out.epochs, every);
    report.check(lc.checkpoints_written == want && want > 0, || {
        format!(
            "checkpoint probe wrote {} checkpoints, expected {want}",
            lc.checkpoints_written
        )
    });
    let (mut parse_ns, mut ser_ns, mut bytes, mut n) = (0.0, 0.0, 0u64, 0u64);
    for ord in 0..lc.checkpoints_written {
        let path = dir.join(ckpt::file_name(ord));
        let Ok(text) = std::fs::read_to_string(&path) else {
            report.check(false, || format!("cannot read {}", path.display()));
            continue;
        };
        let t0 = Instant::now();
        let parsed = ckpt::parse(black_box(&text));
        parse_ns += secs_ns(t0.elapsed());
        let Ok(c) = parsed else {
            report.check(false, || format!("checkpoint {ord} does not parse"));
            continue;
        };
        let t0 = Instant::now();
        let again = black_box(ckpt::serialize(&c));
        ser_ns += secs_ns(t0.elapsed());
        report.check(again == text, || {
            format!("checkpoint {ord} does not re-serialise byte-identically")
        });
        bytes += text.len() as u64;
        n += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let n = n.max(1) as f64;
    report.metric("replay.ckpt.serialize.ns_per_ckpt", ser_ns / n, "ns");
    report.metric("replay.ckpt.parse.ns_per_ckpt", parse_ns / n, "ns");
    report.metric("replay.ckpt.bytes_per_ckpt", bytes as f64 / n, "bytes");
    report.metric(
        "replay.ckpt.write_ns_p50",
        hist_quantile(&out.telemetry.ckpt_write_ns, 50.0).unwrap_or(f64::NAN),
        "ns",
    );
}

/// Times `f` over `reps` repetitions and returns the median in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        v.push(secs_ns(t0.elapsed()));
    }
    median(&v).unwrap_or(f64::NAN)
}

/// Each tracker's update alone over the schedule's parsed frames.
fn probe_trackers(schedule: &Schedule, cfg: &ReplayConfig, report: &mut Report) {
    let metas: Vec<FrameMeta> = schedule.iter().map(|(_, f)| parse_frame(f)).collect();
    let n = metas.len().max(1) as f64;
    let fresh = ShardState::new(cfg);
    let per = |f: &mut dyn FnMut(&mut ShardState, &FrameMeta)| {
        median_ns(MIN_REPS, || {
            let mut s = fresh.clone();
            for m in &metas {
                f(&mut s, black_box(m));
            }
            black_box(&s);
        }) / n
    };
    let freq = per(&mut |s, m| {
        let _ = s.kinds.observe(m.kind);
    });
    let running = per(&mut |s, m| s.len_stats.push(m.len));
    let sketch = per(&mut |s, m| s.dst_sketch.update(m.dst, 1));
    let percentile = per(&mut |s, m| {
        let _ = s.len_median.observe(m.len);
    });
    let hll = per(&mut |s, m| s.src_hll.observe(m.src));
    report.metric("stat4_core.freq.ns_per_pkt", freq, "ns");
    report.metric("stat4_core.running.ns_per_pkt", running, "ns");
    report.metric("stat4_core.sketch.ns_per_pkt", sketch, "ns");
    report.metric("stat4_core.percentile.ns_per_pkt", percentile, "ns");
    report.metric("stat4_core.hll.ns_per_pkt", hll, "ns");
}

/// The p4sim parser and interpreter: the case-study program over the
/// schedule (traced in batches, for the attribution), and the echo
/// program over an echo trace of the same length (echo only accepts
/// frames carrying its payload integer). Returns the case-study time
/// in ns.
fn probe_p4sim(schedule: &Schedule, seed: u64, rec: &mut Recorder, report: &mut Report) -> f64 {
    let n = schedule.len().max(1) as f64;
    let parse = median_ns(MIN_REPS, || {
        for (t, f) in schedule {
            black_box(p4sim::parse_frame(black_box(f), 0, *t));
        }
    });
    let mut app =
        stat4_p4::CaseStudyApp::build(scenario::case_params()).expect("case-study app builds");
    let (mut steps, mut errors) = (0u64, 0u64);
    let t0 = Instant::now();
    for (b, chunk) in schedule.chunks(256).enumerate() {
        rec.span("p4sim.casestudy", b as u64, COORDINATOR, || {
            for (t, f) in chunk {
                match app.pipeline.process_frame(f, 0, *t) {
                    Ok((_, out)) => steps += out.steps,
                    Err(_) => errors += 1,
                }
            }
        });
    }
    let casestudy = secs_ns(t0.elapsed());
    let mut echo =
        stat4_p4::EchoApp::build(&stat4_p4::Stat4Config::default()).expect("echo app builds");
    let (echo_trace, _) = workloads::EchoWorkload {
        packets: schedule.len(),
        seed,
        ..workloads::EchoWorkload::default()
    }
    .generate();
    let mut echo_errors = 0u64;
    let t0 = Instant::now();
    for (t, f) in &echo_trace {
        if echo.pipeline.process_frame(f, 0, *t).is_err() {
            echo_errors += 1;
        }
    }
    let echo_ns = secs_ns(t0.elapsed());
    report.check(errors == 0, || {
        format!("case-study program failed on {errors} frames")
    });
    report.check(echo_errors == 0, || {
        format!("echo program failed on {echo_errors} frames")
    });
    report.metric("p4sim.parse_frame.ns_per_pkt", parse / n, "ns");
    report.metric("p4sim.casestudy.ns_per_pkt", casestudy / n, "ns");
    report.metric("p4sim.steps_per_pkt", steps as f64 / n, "count");
    report.metric("p4sim.echo.ns_per_pkt", echo_ns / n, "ns");
    casestudy
}

/// The telemetry primitives every run pays for.
fn probe_telemetry(report: &mut Report) {
    let values: Vec<u64> = (0..MICRO_CALLS as u64)
        .map(|i| (i * 2_654_435_761) % 10_000_000)
        .collect();
    let hist = median_ns(MIN_REPS, || {
        let mut h = LogLinearHistogram::default();
        for &v in &values {
            h.record(black_box(v));
        }
        black_box(&h);
    });
    let span = median_ns(MIN_REPS, || {
        let mut t = Tracer::new(MICRO_CALLS);
        for i in 0..MICRO_CALLS as u64 {
            t.begin(black_box("ingest"), i);
        }
        black_box(&t);
    });
    report.metric("telemetry.hist_record.ns", hist / MICRO_CALLS as f64, "ns");
    report.metric("telemetry.span.ns", span / MICRO_CALLS as f64, "ns");
}

/// The traced run of one workload.
pub fn traced(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let spec = w.replay_spec();
    // The replay layers run on the case study's trace at its interval.
    let cfg = spec.map_or_else(
        || scenario::replay_config(scenario::case_interval_ns(), SHARDS),
        |s| s.config(SHARDS),
    );
    let (schedule, gen_s) = timed_setup(|| match spec {
        Some(s) => s.generate(seed).schedule,
        None => scenario::case_generate(seed).0,
    });
    let n = schedule.len().max(1) as f64;
    report.metric("workloads.generate.ns_per_pkt", gen_s * 1e9 / n, "ns");

    // Traced and untraced passes, alternated until the budget is spent.
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut layer_ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut critical = Vec::new();
    let mut counts = PassCounts::default();
    let mut last = Recorder::new(false);
    e2e::repeat_for(budget, || {
        plain_walls.push(pass(&schedule, &cfg, &mut Recorder::new(false)).wall_ns);
        let mut rec = Recorder::new(true);
        counts = pass(&schedule, &cfg, &mut rec);
        traced_walls.push(counts.wall_ns);
        for (name, t) in rec.self_time_by_name() {
            layer_ns.entry(name).or_default().push(t as f64);
        }
        critical.push(critical_path_ns(&rec));
        last = rec;
    });
    let layer = |name: &str| layer_ns.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    let epochs = counts.epochs.max(1) as f64;
    let packets = counts.packets.max(1) as f64;
    report.metric(
        "replay.parse_frame.ns_per_pkt",
        layer(PARSE) / packets,
        "ns",
    );
    report.metric(
        "workloads.shard_of.ns_per_pkt",
        layer(SHARD_OF) / packets,
        "ns",
    );
    report.metric(
        "stat4_core.ingest.ns_per_pkt",
        layer(INGEST) / packets,
        "ns",
    );
    report.metric(
        "replay.barrier.take_delta.ns_per_epoch",
        layer(TAKE) / epochs,
        "ns",
    );
    report.metric(
        "replay.barrier.apply_delta.ns_per_epoch",
        layer(APPLY) / epochs,
        "ns",
    );
    report.metric(
        "replay.barrier.delta_bytes_per_epoch",
        counts.delta_bytes as f64 / epochs,
        "bytes",
    );
    report.metric(
        "replay.barrier.touched_registers_per_epoch",
        counts.touched as f64 / epochs,
        "count",
    );
    report.metric(
        "anomaly.ensemble.ns_per_epoch",
        layer(ENSEMBLE) / epochs,
        "ns",
    );
    report.metric(
        "anomaly.drilldown.ns_per_epoch",
        layer(DRILL) / epochs,
        "ns",
    );
    let detect_per_epoch = (layer(ENSEMBLE) + layer(DRILL)) / epochs;

    probe_trackers(&schedule, &cfg, &mut report);
    let pool_wall = probe_pool(&schedule, &cfg, detect_per_epoch, &mut report);
    let every = spec
        .and_then(|s| s.checkpoint_every)
        .unwrap_or((counts.epochs / (PROBE_CKPTS + 1)).max(1));
    probe_ckpt(w, &schedule, &cfg, every, &mut report);
    let mut p4rec = Recorder::new(true);
    let p4_ns = probe_p4sim(&schedule, seed, &mut p4rec, &mut report);
    let sim = case_run(schedule.clone());
    report.packets(
        schedule.len() as u64,
        sim.packets_processed.saturating_sub(sim.process_errors),
    );
    report.metric("netsim.events", sim.events as f64, "count");
    report.metric(
        "netsim.ns_per_event",
        sim.wall_s * 1e9 / sim.events.max(1) as f64,
        "ns",
    );
    probe_telemetry(&mut report);

    // Attribution: on replay workloads, the traced pass's blocking path
    // against the engine's own wall time; on the case study, the p4sim
    // interpreter's time against the simulation's.
    let (attributed, e2e_wall) = if spec.is_some() {
        (median(&critical).unwrap_or(f64::NAN), pool_wall)
    } else {
        (p4_ns, sim.wall_s * 1e9)
    };
    let overhead =
        median(&traced_walls).unwrap_or(f64::NAN) / median(&plain_walls).unwrap_or(f64::NAN) - 1.0;
    report.metric("trace.attributed_share", attributed / e2e_wall, "share");
    report.metric("trace.overhead_share", overhead, "share");

    let path = out_dir().join(format!("spans-{}.txt", w.name()));
    let written = if spec.is_some() {
        last.write_to(&path)
    } else {
        p4rec.write_to(&path)
    };
    match written {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
    report.note(format!(
        "{}: {} packets, {} epochs, {} traced passes, pass wall {:.3} ms traced / {:.3} ms untraced, \
         engine wall {:.3} ms, attributed {:.3} ms",
        w.name(),
        schedule.len(),
        counts.epochs,
        traced_walls.len(),
        median(&traced_walls).unwrap_or(f64::NAN) / 1e6,
        median(&plain_walls).unwrap_or(f64::NAN) / 1e6,
        e2e_wall / 1e6,
        attributed / 1e6,
    ));
    report
}
