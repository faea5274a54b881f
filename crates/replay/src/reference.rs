//! The threadless sequential oracle: the conformance baseline for the
//! persistent worker pool.
//!
//! It drives the same [`EpochCoordinator`] as the pool — every per-run
//! rule (epoch cutting, faults, merge, detection, provenance) is shared
//! — but ingests with the plainest possible loop: each frame is routed
//! with [`workloads::shard::shard_of`] and fed to
//! [`ShardState::ingest`](crate::ShardState::ingest) one at a time, in
//! `cfg.batch`-sized chunks, on the calling thread. `tests/pool.rs`
//! therefore checks the pool's threading, up-front flow hashing and
//! parse-once batch path against a plain loop, with `==`.
//!
//! That loop is `ingest_inline`, and it is the only copy: the pool
//! calls it too, for every epoch it keeps on the coordinator and for
//! shard 0, which the coordinator always serves.

use crate::coordinator::{
    elapsed_ns, injected_panic_message, Engine, EpochCoordinator, EpochIngest, ShardResult,
};
use crate::{LifecyclePlan, ReplayConfig, ReplayOutcome};
use faultinject::{FaultSchedule, ShardFaultKind};
use std::ops::Range;
use std::time::Instant;
use workloads::Schedule;

/// [`crate::run_replay`] on the sequential oracle — no faults.
///
/// # Panics
///
/// Panics if `cfg.shards` is zero.
#[must_use]
pub fn run_replay(schedule: &Schedule, cfg: &ReplayConfig) -> ReplayOutcome {
    run_replay_with_faults(schedule, cfg, &FaultSchedule::none())
}

/// [`crate::run_replay_with_faults`] on the threadless sequential
/// oracle. Semantics are documented on the crate-level function and
/// the outcome is bit-identical to it. An injected panic files the
/// same message the pool's worker panics with; an injected stall is a
/// no-op here, since it only delays a worker thread and there is none.
///
/// # Panics
///
/// Panics if `cfg.shards` is zero.
#[must_use]
pub fn run_replay_with_faults(
    schedule: &Schedule,
    cfg: &ReplayConfig,
    faults: &FaultSchedule,
) -> ReplayOutcome {
    let plan = LifecyclePlan::none();
    let mut coordinator = EpochCoordinator::new(schedule, cfg, faults.clone(), &plan);
    coordinator.run(&mut Oracle {
        schedule,
        shards: cfg.shards,
    });
    coordinator.finish().0
}

struct Oracle<'a> {
    schedule: &'a Schedule,
    shards: usize,
}

impl<'a> Engine<'a> for Oracle<'a> {
    fn home(&self, idx: usize) -> usize {
        workloads::shard::shard_of(&self.schedule[idx].1, self.shards)
    }

    fn ingest(
        &mut self,
        mut e: EpochIngest<'_, 'a>,
        results: &mut Vec<(usize, ShardResult)>,
    ) -> u64 {
        e.telemetry.epochs_inline.inc();
        ingest_inline(&mut e, 0..self.shards, results);
        0
    }
}

/// Ingests the routed slice of every alive shard in `shards` on the
/// calling thread, one frame at a time in `e.batch`-sized chunks,
/// pushing one result per shard in shard order. An injected panic
/// files the message a worker would panic with, before any ingest; an
/// injected stall is a no-op, since there is no worker thread to delay.
pub(crate) fn ingest_inline(
    e: &mut EpochIngest<'_, '_>,
    shards: Range<usize>,
    results: &mut Vec<(usize, ShardResult)>,
) {
    for s in shards.filter(|&s| e.alive[s]) {
        if e.faults[s] == Some(ShardFaultKind::Panic) {
            results.push((s, Err(injected_panic_message(s, e.idx))));
            continue;
        }
        let state = e.states[s].as_mut().expect("alive shard holds its state");
        let mut tracer = e.tracers[s].as_mut().filter(|_| e.traces_on);
        let m = &mut e.telemetry.shards[s];
        if let Some(tr) = tracer.as_deref_mut() {
            tr.begin("ingest", e.idx);
        }
        let busy = Instant::now();
        for chunk in e.work[s].chunks(e.batch) {
            for frame in chunk {
                state.ingest(frame);
            }
            m.packets.add(chunk.len() as u64);
            m.batches.inc();
            if e.hists_on {
                m.batch_size.record(chunk.len() as u64);
            }
        }
        let busy_ns = elapsed_ns(busy);
        if let Some(tr) = tracer {
            tr.end("ingest", e.idx);
        }
        results.push((s, Ok(busy_ns)));
    }
}
