//! The epoch coordinator: every per-run rule of a replay, in one place.
//!
//! In the paper's architecture the switch keeps per-pipe registers and
//! a control plane folds them every interval before judging them
//! (Sec. 4). [`EpochCoordinator`] is that control plane: epoch cutting,
//! routing, the fault plan and crash quarantine, per-shard result
//! accounting, the [`BarrierMerger`] merge, report-loss carry-forward
//! into the averaged [`SignalContext`], the ensemble, drilldown and
//! provenance, quarantine timing and `close_interval`, the drain point
//! (checkpoint, kill, swap vetting), the mapping to and from a
//! [`Checkpoint`], and the final [`ReplayOutcome`].
//!
//! An [`Engine`] supplies only each frame's home shard and how a
//! surviving shard's routed slice gets ingested. The worker pool
//! ([`crate::pool`]) and the threadless sequential oracle
//! ([`crate::reference`]) are the two engines, so `tests/pool.rs`
//! checks the pool's threading, pre-hash and parse-once batch path
//! against a plain loop.

use crate::barrier::BarrierMerger;
use crate::ckpt::{self, Checkpoint, ContextEntry, OverrideEntry};
use crate::lifecycle::{self, LifecyclePlan, LifecycleReport, ShedController};
use crate::provenance::{AlertProvenanceRecord, LineageSources};
use crate::{
    build_ensemble, merge_surviving, EnsembleReport, IncidentKind, ReplayConfig, ReplayHealth,
    ReplayOutcome, ReplayTelemetry, ShardIncident, ShardState,
};
use anomaly::{Ensemble, ScoreDrilldown, SignalContext, SignalValues, SynFloodEngine};
use faultinject::{FaultSchedule, ShardFaultKind};
use stat4_core::freq::FrequencyDist;
use stat4_core::running::RunningStats;
use std::ops::Range;
use std::time::Instant;
use telemetry::Tracer;
use workloads::Schedule;

#[inline]
pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The message an injected `shard_panic` fault files. The pool's worker
/// panics with it and the oracle reports it directly, so the captured
/// [`IncidentKind::Panicked`] strings compare equal across engines.
pub(crate) fn injected_panic_message(shard: usize, epoch: u64) -> String {
    format!("injected fault: shard {shard} panicked at epoch {epoch}")
}

/// What one surviving shard's ingest returned: its busy nanoseconds,
/// or the panic message of a shard that died (its state with it).
pub(crate) type ShardResult = Result<u64, String>;

/// One epoch's ingest order, lent to an [`Engine`]. Every shard with
/// `alive[s]` set gets its `work[s]` slice ingested into `states[s]`.
pub(crate) struct EpochIngest<'c, 'a> {
    pub(crate) idx: u64,
    /// Scheduled shard faults; crashes are already quarantined.
    pub(crate) faults: &'c [Option<ShardFaultKind>],
    pub(crate) alive: &'c [bool],
    pub(crate) work: &'c mut [Vec<&'a bytes::Bytes>],
    /// `Some` while the coordinator holds the state; an engine may move
    /// it out for the epoch but must put it back unless the shard died.
    pub(crate) states: &'c mut [Option<ShardState>],
    /// Per-shard span recorders, same ownership rule as `states`.
    pub(crate) tracers: &'c mut [Option<Tracer>],
    pub(crate) telemetry: &'c mut ReplayTelemetry,
    pub(crate) batch: usize,
    /// Time the coordinator spent routing this epoch.
    pub(crate) route_ns: u64,
    pub(crate) traces_on: bool,
    pub(crate) hists_on: bool,
}

/// How a replay gets each surviving shard's slice ingested.
pub(crate) trait Engine<'a> {
    /// Home shard of `schedule[idx]`.
    fn home(&self, idx: usize) -> usize;

    /// Ingests one epoch, pushing one result per alive shard, in shard
    /// order, into `results`. Records the per-batch series (`packets`,
    /// `batches`, `batch_size`) itself and returns the epoch's worst
    /// queue wait for the shed controller.
    fn ingest(
        &mut self,
        epoch: EpochIngest<'_, 'a>,
        results: &mut Vec<(usize, ShardResult)>,
    ) -> u64;
}

/// The state of one replay run, fresh or resumed; see the module docs.
pub(crate) struct EpochCoordinator<'a> {
    schedule: &'a Schedule,
    cfg: &'a ReplayConfig,
    plan: &'a LifecyclePlan,
    faults: FaultSchedule,
    /// The fault spec embedded in checkpoints: the plan's on a fresh
    /// run, the checkpoint's on a resume.
    faults_spec: String,
    interval: u64,
    /// `(epoch index, schedule range)` per epoch, in time order.
    ranges: Vec<(u64, Range<usize>)>,
    start_ordinal: usize,
    next_ckpt_ordinal: u64,
    /// `Some` while the coordinator holds the state; `None` while an
    /// engine has it out, or after it died with a panicked shard.
    states: Vec<Option<ShardState>>,
    /// The shard span recorders, same ownership as `states`.
    tracers: Vec<Option<Tracer>>,
    /// One frame list per shard, refilled by routing every epoch.
    work: Vec<Vec<&'a bytes::Bytes>>,
    alive: Vec<bool>,
    incidents: Vec<ShardIncident>,
    pub(crate) telemetry: ReplayTelemetry,
    packets: u64,
    epochs: u64,
    packets_rerouted: u64,
    reports_dropped: u64,
    // Counts from intervals whose epoch report was lost; folded into
    // the next delivered report (switch registers are cumulative). The
    // delivered report spans `carried_epochs + 1` intervals, so the
    // engines observe the per-interval average — otherwise a run of
    // dropped reports would masquerade as a spike. HLL registers are
    // not carried: a dropped interval's distinct-source registers wash
    // at its barrier.
    carried_syns: i64,
    carried_packets: i64,
    carried_len_sum: i64,
    carried_epochs: i64,
    /// Epoch indices of the carried (dropped) reports — alert lineage.
    carried_from: Vec<u64>,
    ensemble: Ensemble,
    /// Drilldown ladder fed by every delivered verdict; each trigger
    /// yields one provenance record.
    drill: ScoreDrilldown,
    provenance: Vec<AlertProvenanceRecord>,
    merger: BarrierMerger,
    generation: u64,
    swaps_committed: u64,
    /// The ensemble warm-replay log; kept only when checkpoints can be
    /// written (it is checkpoint payload, nothing else reads it).
    context_log: Vec<ContextEntry>,
    overrides: Vec<OverrideEntry>,
    /// Caches the rendered text of the two push-only logs
    /// (`context_log`, `provenance`) between checkpoints. Starts empty,
    /// after a resume too: the first write renders the restored logs.
    ckpt_writer: ckpt::Writer,
    /// Ensemble observations so far (positions weight overrides).
    observes: u64,
    shed: ShedController,
    report: LifecycleReport,
    /// Per-epoch scratch: the fault plan and the engine's results.
    fault_plan: Vec<Option<ShardFaultKind>>,
    results: Vec<(usize, ShardResult)>,
    started: Instant,
}

impl<'a> EpochCoordinator<'a> {
    /// A fresh run of `schedule` under `faults`, with `plan`'s
    /// lifecycle layer.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero.
    pub(crate) fn new(
        schedule: &'a Schedule,
        cfg: &'a ReplayConfig,
        faults: FaultSchedule,
        plan: &'a LifecyclePlan,
    ) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        let interval = cfg.detector.interval_ns.max(1);
        // Epoch boundaries: contiguous runs of `t / interval` in the
        // time-sorted schedule.
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < schedule.len() {
            let epoch_idx = schedule[i].0 / interval;
            let mut j = i;
            while j < schedule.len() && schedule[j].0 / interval == epoch_idx {
                j += 1;
            }
            ranges.push((epoch_idx, i..j));
            i = j;
        }
        let mut telemetry = ReplayTelemetry::new(cfg.shards);
        let tracers = telemetry.shard_traces.drain(..).map(Some).collect();
        Self {
            schedule,
            cfg,
            plan,
            faults,
            faults_spec: plan.faults_spec.clone(),
            interval,
            ranges,
            start_ordinal: 0,
            next_ckpt_ordinal: 0,
            states: (0..cfg.shards)
                .map(|_| Some(ShardState::new(cfg)))
                .collect(),
            tracers,
            work: vec![Vec::new(); cfg.shards],
            alive: vec![true; cfg.shards],
            incidents: Vec::new(),
            telemetry,
            packets: 0,
            epochs: 0,
            packets_rerouted: 0,
            reports_dropped: 0,
            carried_syns: 0,
            carried_packets: 0,
            carried_len_sum: 0,
            carried_epochs: 0,
            carried_from: Vec::new(),
            ensemble: build_ensemble(cfg),
            drill: ScoreDrilldown::new(cfg.ensemble.trigger),
            provenance: Vec::new(),
            merger: BarrierMerger::new(),
            generation: 0,
            swaps_committed: 0,
            context_log: Vec::new(),
            overrides: Vec::new(),
            ckpt_writer: ckpt::Writer::default(),
            observes: 0,
            shed: ShedController::new(plan.shed),
            report: LifecycleReport::default(),
            fault_plan: vec![None; cfg.shards],
            results: Vec::with_capacity(cfg.shards),
            started: Instant::now(),
        }
    }

    /// Continues the run checkpoint `c` captured: the inverse of
    /// [`Self::checkpoint`]. Shard trackers arrive rebuilt and
    /// validated by the checkpoint parser; the ensemble and drilldown
    /// ladder are rebuilt by replaying the delivered-signal log,
    /// provenance is restored verbatim, and the fault schedule is
    /// reparsed from the stored spec and seed. `fallbacks` (newer
    /// checkpoints the loader rejected) become report events.
    ///
    /// # Errors
    ///
    /// - the checkpoint disagrees with `cfg` (shards, batch, interval)
    ///   or with the schedule's length;
    /// - a shard marked alive has no stored state;
    /// - the stored fault spec no longer parses;
    /// - the delivered-signal log holds a malformed kind distribution.
    pub(crate) fn resume(
        schedule: &'a Schedule,
        cfg: &'a ReplayConfig,
        plan: &'a LifecyclePlan,
        c: Checkpoint,
        fallbacks: Vec<String>,
    ) -> Result<Self, String> {
        if c.cfg_shards != cfg.shards || c.cfg_batch != cfg.batch {
            return Err(format!(
                "checkpoint was taken with shards={}, batch={}; run configured with shards={}, \
                 batch={}",
                c.cfg_shards, c.cfg_batch, cfg.shards, cfg.batch
            ));
        }
        if c.alive.len() != cfg.shards || c.shards.len() != cfg.shards {
            return Err(format!(
                "checkpoint lists {} liveness flags and {} shard states for {} shards",
                c.alive.len(),
                c.shards.len(),
                cfg.shards
            ));
        }
        if let Some(s) = (0..cfg.shards).find(|&s| c.alive[s] && c.shards[s].is_none()) {
            return Err(format!(
                "$.payload.shards[{s}] is null, but alive[{s}] says shard {s} is live and \
                 needs its tracker state"
            ));
        }
        if c.cfg_interval_ns != cfg.detector.interval_ns {
            return Err(format!(
                "checkpoint interval {}ns does not match configured {}ns",
                c.cfg_interval_ns, cfg.detector.interval_ns
            ));
        }
        if c.schedule_packets != schedule.len() as u64 {
            return Err(format!(
                "checkpoint covers a {}-frame schedule; this schedule has {} frames",
                c.schedule_packets,
                schedule.len()
            ));
        }
        let faults = if c.faults_spec.is_empty() {
            FaultSchedule::none()
        } else {
            FaultSchedule::parse(&c.faults_spec, c.fault_seed)
                .map_err(|e| format!("stored fault spec {:?}: {e}", c.faults_spec))?
        };
        let mut co = Self::new(schedule, cfg, faults, plan);
        (co.ensemble, co.drill) = rebuild_detection(&c, cfg)?;
        co.observes = c.context_log.len() as u64;
        co.start_ordinal = c.next_ordinal;
        co.next_ckpt_ordinal = c.checkpoint_ordinal + 1;
        co.states = c.shards;
        co.alive = c.alive;
        co.incidents = c.incidents;
        co.packets = c.packets;
        co.epochs = c.epochs;
        co.packets_rerouted = c.packets_rerouted;
        co.reports_dropped = c.reports_dropped;
        co.carried_syns = c.carried_syns;
        co.carried_packets = c.carried_packets;
        co.carried_len_sum = c.carried_len_sum;
        co.carried_epochs = c.carried_epochs;
        co.carried_from = c.carried_from;
        co.context_log = c.context_log;
        co.overrides = c.overrides;
        co.provenance = c.provenance;
        co.generation = c.generation;
        co.swaps_committed = c.swaps_committed;
        // Checkpoints written after this resume embed the stored spec,
        // not whatever the caller had in the plan.
        co.faults_spec = c.faults_spec;
        let at = c.next_ordinal as u64;
        co.report.resumed_from = Some(c.checkpoint_ordinal);
        co.report.push(
            at,
            "resumed",
            format!(
                "from checkpoint {} at epoch ordinal {}",
                c.checkpoint_ordinal, c.next_ordinal
            ),
        );
        for note in fallbacks {
            co.report.push(at, "checkpoint_fallback", note);
        }
        Ok(co)
    }

    pub(crate) fn schedule(&self) -> &'a Schedule {
        self.schedule
    }

    pub(crate) fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Runs every remaining epoch through `engine`, stopping early at a
    /// cooperative kill.
    pub(crate) fn run<E: Engine<'a>>(&mut self, engine: &mut E) {
        for k in self.start_ordinal..self.ranges.len() {
            if !self.drain_point(k) {
                break;
            }
            self.epoch(k, engine);
        }
    }

    /// The drain point before epoch ordinal `k`: every surviving state
    /// is home and no epoch is in flight — the only place configuration
    /// or persistence may change. Returns `false` on a cooperative
    /// kill.
    fn drain_point(&mut self, k: usize) -> bool {
        let k64 = k as u64;
        let plan = self.plan;
        // Checkpoint cadence. Written *before* the kill check so a
        // killed run's directory looks exactly like a crashed run's.
        // `k != start_ordinal` skips the vacuous checkpoint of the
        // state we just loaded (or, fresh, of an empty run).
        if let Some(dir) = plan.checkpoint_dir.as_deref() {
            if plan.checkpoint_every > 0
                && k64.is_multiple_of(plan.checkpoint_every)
                && k != self.start_ordinal
            {
                let t0 = Instant::now();
                let c = self.checkpoint(k);
                let written = self.ckpt_writer.write(dir, &c, &self.faults);
                self.context_log = c.context_log;
                self.provenance = c.provenance;
                match written {
                    Ok(path) => {
                        self.telemetry.checkpoints_written.inc();
                        self.report.checkpoints_written += 1;
                        self.report.push(
                            k64,
                            "checkpoint_written",
                            format!("{} (resumes at ordinal {k})", path.display()),
                        );
                    }
                    Err(e) => self.report.push(k64, "checkpoint_error", e),
                }
                self.telemetry.ckpt_write_ns.record(elapsed_ns(t0));
                self.next_ckpt_ordinal += 1;
            }
        }

        // Cooperative kill: stop at the drain point with a clean
        // teardown — the crash model recovery tests resume from.
        if plan.kill_at_epoch == Some(k64) {
            self.report.push(
                k64,
                "killed",
                format!("stopped at drain point before epoch ordinal {k}"),
            );
            return false;
        }

        // Swaps: vet everything against the running configuration,
        // then commit atomically — or reject leaving it untouched.
        for req in plan.swaps.iter().filter(|s| s.at_epoch == k64) {
            match lifecycle::vet_swap(req, self.generation, &self.ensemble) {
                Ok(detail) => {
                    for (name, w) in &req.weights {
                        let _ = self.ensemble.set_weight_override(name, *w);
                        self.overrides.push(OverrideEntry {
                            after_observes: self.observes,
                            engine: name.clone(),
                            weight: *w,
                        });
                    }
                    self.generation += 1;
                    self.swaps_committed += 1;
                    self.telemetry.swaps_committed.inc();
                    self.report.swaps_committed += 1;
                    self.report.push(
                        k64,
                        "swap_committed",
                        format!("generation {}: {detail}", self.generation),
                    );
                    // Control-channel duplication: the storm fault
                    // redelivers the request we just committed. Its
                    // expected generation is now stale, so the
                    // duplicate vets to rejection — commits are
                    // idempotent.
                    if self.faults.duplicate_reconfig(self.swaps_committed) {
                        if let Err(e) = lifecycle::vet_swap(req, self.generation, &self.ensemble) {
                            self.telemetry.swaps_rejected.inc();
                            self.report.swaps_rejected += 1;
                            self.report.push(k64, "stale_swap_rejected", e);
                        }
                    }
                }
                Err(e) => {
                    self.telemetry.swaps_rejected.inc();
                    self.report.swaps_rejected += 1;
                    let kind = if req.expected_generation == self.generation {
                        "swap_rejected"
                    } else {
                        "stale_swap_rejected"
                    };
                    self.report.push(k64, kind, e);
                }
            }
        }
        true
    }

    /// Everything needed to resume at epoch ordinal `k`: the inverse of
    /// [`Self::resume`]. The two logs are lent, not copied: they move
    /// into the checkpoint and the caller moves them back after the
    /// write.
    fn checkpoint(&mut self, k: usize) -> Checkpoint {
        Checkpoint {
            next_ordinal: k,
            checkpoint_ordinal: self.next_ckpt_ordinal,
            cfg_shards: self.cfg.shards,
            cfg_batch: self.cfg.batch,
            cfg_interval_ns: self.cfg.detector.interval_ns,
            schedule_packets: self.schedule.len() as u64,
            faults_spec: self.faults_spec.clone(),
            fault_seed: self.faults.seed(),
            packets: self.packets,
            epochs: self.epochs,
            packets_rerouted: self.packets_rerouted,
            reports_dropped: self.reports_dropped,
            carried_syns: self.carried_syns,
            carried_packets: self.carried_packets,
            carried_len_sum: self.carried_len_sum,
            carried_epochs: self.carried_epochs,
            carried_from: self.carried_from.clone(),
            alive: self.alive.clone(),
            shards: self.states.clone(),
            incidents: self.incidents.clone(),
            context_log: std::mem::take(&mut self.context_log),
            overrides: self.overrides.clone(),
            provenance: std::mem::take(&mut self.provenance),
            generation: self.generation,
            swaps_committed: self.swaps_committed,
        }
    }

    /// One epoch: route, apply the fault plan, let `engine` ingest,
    /// account the results, then the barrier and the interval close.
    #[allow(clippy::too_many_lines)]
    fn epoch<E: Engine<'a>>(&mut self, k: usize, engine: &mut E) {
        let (epoch_idx, range) = self.ranges[k].clone();
        let shards = self.cfg.shards;
        // Telemetry shedding is sampled once per epoch so every span
        // opened this epoch also closes this epoch.
        let traces_on = self.shed.allow_traces();
        let hists_on = self.shed.allow_histograms();
        if !traces_on {
            self.telemetry.telemetry_shed.inc();
        }
        let incidents_before = self.incidents.len();

        if traces_on {
            self.telemetry.trace.begin("ingest", epoch_idx);
        }
        let epoch_started = Instant::now();

        // Routing. Frames whose home shard was quarantined in an
        // earlier epoch reroute to the next survivor in ring order (the
        // controller's repartitioning); with no survivors they are lost.
        let route_started = Instant::now();
        for w in &mut self.work {
            w.clear();
        }
        let schedule = self.schedule;
        let mut rerouted = 0u64;
        for idx in range.clone() {
            let home = engine.home(idx);
            let target = if self.alive[home] {
                Some(home)
            } else {
                next_alive(&self.alive, home)
            };
            if let Some(t) = target {
                rerouted += u64::from(t != home);
                self.work[t].push(&schedule[idx].1);
            }
        }
        let route_ns = elapsed_ns(route_started);
        self.packets_rerouted += rerouted;

        // Fault plan. A crash quarantines before ingest, so the crashed
        // shard's slice of this interval is lost — its state stays
        // parked in its slot, excluded from merges.
        let mut recover_started: Option<Instant> = None;
        for s in 0..shards {
            let fault = if self.alive[s] {
                self.faults.shard_fault(epoch_idx, s)
            } else {
                None
            };
            self.fault_plan[s] = fault;
            let Some(kind) = fault else { continue };
            self.telemetry.faults_injected.inc();
            if kind == ShardFaultKind::Crash {
                recover_started.get_or_insert_with(Instant::now);
                self.alive[s] = false;
                self.incidents.push(ShardIncident {
                    shard: s,
                    epoch: epoch_idx,
                    kind: IncidentKind::Crashed,
                });
            }
        }

        self.results.clear();
        let worst_queue_wait_ns = engine.ingest(
            EpochIngest {
                idx: epoch_idx,
                faults: &self.fault_plan,
                alive: &self.alive,
                work: &mut self.work,
                states: &mut self.states,
                tracers: &mut self.tracers,
                telemetry: &mut self.telemetry,
                batch: self.cfg.batch.max(1),
                route_ns,
                traces_on,
                hists_on,
            },
            &mut self.results,
        );
        let epoch_wall = elapsed_ns(epoch_started);
        if traces_on {
            self.telemetry.trace.end("ingest", epoch_idx);
        }
        // A failed ingest quarantines the shard instead of propagating
        // the panic; its state died with it.
        for (s, r) in self.results.drain(..) {
            match r {
                Ok(busy_ns) => {
                    let m = &mut self.telemetry.shards[s];
                    m.ingest_ns.add(busy_ns);
                    if hists_on {
                        m.barrier_wait_ns.record(epoch_wall.saturating_sub(busy_ns));
                    }
                }
                Err(msg) => {
                    recover_started.get_or_insert_with(Instant::now);
                    self.alive[s] = false;
                    self.states[s] = None;
                    self.incidents.push(ShardIncident {
                        shard: s,
                        epoch: epoch_idx,
                        kind: IncidentKind::Panicked(msg),
                    });
                }
            }
        }
        self.packets += range.len() as u64;
        self.epochs += 1;

        // Barrier: fold the surviving shards into the merged view and,
        // unless this epoch's report is lost, let the ensemble judge it.
        if traces_on {
            self.telemetry.trace.begin("merge", epoch_idx);
        }
        let merge_started = Instant::now();
        let mut entries: Vec<(usize, &mut ShardState)> = self
            .states
            .iter_mut()
            .enumerate()
            .filter_map(|(s, st)| st.as_mut().map(|st| (s, st)))
            .collect();
        let merge_stats = self.merger.merge(
            &mut entries,
            &mut self.alive,
            self.cfg,
            epoch_idx,
            &mut self.incidents,
        );
        drop(entries);
        let merged = self.merger.merged();
        let merge_ns = elapsed_ns(merge_started);
        let t = &mut self.telemetry;
        if traces_on {
            t.trace.end("merge", epoch_idx);
        }
        if hists_on {
            t.merge_ns.record(merge_ns);
        }
        t.merge_delta_bytes.add(merge_stats.delta_bytes);
        t.merge_skipped_registers.add(merge_stats.skipped_registers);
        if merge_stats.rebuilt {
            t.merge_rebuilds.inc();
        }
        let mut any_fired = false;
        if self.faults.drop_epoch_report(epoch_idx) {
            self.reports_dropped += 1;
            t.reports_dropped.inc();
            if traces_on {
                t.trace.instant("report_dropped", epoch_idx);
            }
            self.carried_syns += merged.syn_in_interval;
            self.carried_packets += merged.packets_in_interval;
            self.carried_len_sum += merged.len_sum_in_interval;
            self.carried_epochs += 1;
            self.carried_from.push(epoch_idx);
        } else {
            if traces_on {
                t.trace.begin("detect", epoch_idx);
            }
            let span = self.carried_epochs + 1;
            let ctx = SignalContext {
                at: (epoch_idx + 1) * self.interval,
                epoch: epoch_idx,
                interval_ns: self.interval,
                spanned: span,
                packets: (merged.packets_in_interval + self.carried_packets) / span,
                syns: (merged.syn_in_interval + self.carried_syns) / span,
                len_sum: (merged.len_sum_in_interval + self.carried_len_sum) / span,
                distinct_sources: i64::try_from(merged.src_hll.estimate()).unwrap_or(i64::MAX),
                median_len: median_len_signal(&merged.len_median, &mut t.median_fallbacks),
                kinds: &merged.kinds,
                len_stats: &merged.len_stats,
            };
            // The warm-replay log records exactly what the ensemble
            // just observed: the scalar signals plus the two merged
            // trackers the context borrows.
            if self.plan.checkpoint_dir.is_some() {
                self.context_log.push(ContextEntry {
                    signals: SignalValues::capture(&ctx),
                    kinds_min: merged.kinds.min_value(),
                    kinds_counts: merged.kinds.counts().to_vec(),
                    len_n: merged.len_stats.n(),
                    len_xsum: merged.len_stats.xsum(),
                    len_xsumsq: merged.len_stats.xsumsq(),
                });
            }
            self.observes += 1;
            let verdict = self.ensemble.observe(&ctx);
            any_fired = !verdict.fired.is_empty();
            if let Some(outcome) = self.drill.observe(&verdict) {
                if traces_on && !outcome.transactions.is_empty() {
                    t.trace.instant("rebind", epoch_idx);
                }
                let delivered: Vec<usize> = (0..shards).filter(|&s| self.alive[s]).collect();
                self.provenance.push(AlertProvenanceRecord::capture(
                    self.provenance.len() as u64,
                    &ctx,
                    &verdict,
                    outcome,
                    LineageSources {
                        delivered_shards: delivered,
                        carried_from: &self.carried_from,
                        rerouted_frames: rerouted,
                        incidents: &self.incidents,
                    },
                ));
            }
            if traces_on {
                t.trace.end("detect", epoch_idx);
            }
            self.carried_syns = 0;
            self.carried_packets = 0;
            self.carried_len_sum = 0;
            self.carried_epochs = 0;
            self.carried_from.clear();
        }
        if any_fired && traces_on {
            t.trace.instant("alert", epoch_idx);
        }
        if hists_on {
            // Actual wall time of the whole epoch, routing through
            // merge and detection.
            t.epoch_ns.record(elapsed_ns(epoch_started));
        }
        t.epochs.inc();

        // Quarantine bookkeeping: recovery is complete once the
        // surviving state is re-merged, so the time-to-recover clock
        // runs from the first failure this epoch to here.
        let new_incidents = self.incidents.len() - incidents_before;
        if new_incidents > 0 {
            t.shards_quarantined.add(new_incidents as u64);
            if traces_on {
                t.trace.instant("quarantine", epoch_idx);
            }
            let spent = elapsed_ns(recover_started.unwrap_or(merge_started));
            for _ in 0..new_incidents {
                t.recover_ns.record(spent);
            }
        }

        // Fold the closed interval's SYN counts and reset the
        // per-interval fields (counters and HLL registers). Parked
        // (crashed) states carry zero here.
        for (s, (st, m)) in self.states.iter_mut().zip(t.shards.iter_mut()).enumerate() {
            let Some(state) = st else { continue };
            let mut tracer = self.tracers[s].as_mut().filter(|_| traces_on);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.begin("close_interval", epoch_idx);
            }
            m.syn_packets.add(closed_interval_syns(
                state.syn_in_interval,
                &mut t.syn_clamps,
            ));
            state.close_interval();
            if let Some(tr) = tracer {
                tr.end("close_interval", epoch_idx);
            }
        }

        // Feed the shed controller the epoch's worst queue wait; a
        // level change takes effect next epoch (this one's spans are
        // already committed).
        if let Some(level) = self.shed.observe(worst_queue_wait_ns) {
            self.report
                .push(k as u64, "shed_level", level.as_str().to_string());
        }
    }

    /// Closes the run: the final merge, health, ensemble report and
    /// telemetry totals.
    pub(crate) fn finish(mut self) -> (ReplayOutcome, LifecycleReport) {
        let elapsed = self.started.elapsed();
        let mut telemetry = self.telemetry;
        telemetry.elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // A panicked worker's tracer died with it — an empty
        // placeholder keeps the slot (it contributes no events and no
        // thread to the merged trace).
        let origin = telemetry.trace.origin();
        telemetry.shard_traces = self
            .tracers
            .into_iter()
            .enumerate()
            .map(|(s, t)| t.unwrap_or_else(|| Tracer::for_shard(0, s as u32, origin)))
            .collect();
        let syn_engine = self
            .ensemble
            .engine::<SynFloodEngine>("synflood")
            .expect("ensemble always carries the SYN-flood engine");
        let alerts = syn_engine.alerts().to_vec();
        let detected_at = syn_engine.detected_at();
        telemetry.alerts.add(alerts.len() as u64);
        telemetry.detector = syn_engine.metrics().clone();
        telemetry.engines = self
            .ensemble
            .metrics_by_name()
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        let ensemble = EnsembleReport {
            engines: self.ensemble.summaries(),
            fired: self.ensemble.fired_log.clone(),
        };

        let final_epoch = self.schedule.last().map_or(0, |(t, _)| t / self.interval);
        let entries: Vec<(usize, &ShardState)> = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(s, st)| st.as_ref().map(|st| (s, st)))
            .collect();
        let merged = merge_surviving(
            &entries,
            &mut self.alive,
            self.cfg,
            final_epoch,
            &mut self.incidents,
        );
        let health = ReplayHealth {
            shards_configured: self.cfg.shards,
            shards_alive: self.alive.iter().filter(|a| **a).count(),
            packets_offered: self.packets,
            packets_ingested: merged.packets,
            packets_lost: self.packets.saturating_sub(merged.packets),
            packets_rerouted: self.packets_rerouted,
            reports_dropped: self.reports_dropped,
            incidents: self.incidents,
        };
        telemetry.packets_lost.add(health.packets_lost);
        telemetry.packets_rerouted.add(health.packets_rerouted);
        self.report.generation = self.generation;
        let outcome = ReplayOutcome {
            merged,
            alerts,
            detected_at,
            packets: self.packets,
            epochs: self.epochs,
            elapsed,
            health,
            ensemble,
            provenance: self.provenance,
            telemetry,
        };
        (outcome, self.report)
    }
}

/// The next surviving shard after `home` in ring order, if any.
fn next_alive(alive: &[bool], home: usize) -> Option<usize> {
    (1..alive.len())
        .map(|d| (home + d) % alive.len())
        .find(|&s| alive[s])
}

/// The merged median frame length handed to the detectors. An empty
/// merged state (every shard quarantined) has no median: the detectors
/// get 0, and the fallback is counted in `median_fallbacks` so a
/// degraded signal is visible.
pub(crate) fn median_len_signal(
    len_median: &stat4_core::percentile::PercentileSet,
    fallbacks: &mut telemetry::Counter,
) -> i64 {
    len_median.estimate(0).unwrap_or_else(|| {
        fallbacks.inc();
        0
    })
}

/// The closed interval's SYN count as the detectors' u64 signal. The
/// counter is i64 (carried-forward arithmetic can in principle go
/// negative on a corrupted pipe); a negative value clamps to 0 and is
/// counted in `syn_clamps`.
pub(crate) fn closed_interval_syns(syns: i64, clamps: &mut telemetry::Counter) -> u64 {
    u64::try_from(syns).unwrap_or_else(|_| {
        clamps.inc();
        0
    })
}

/// Rebuilds the detection ensemble and the drilldown ladder by
/// replaying checkpoint `c`'s delivered-signal log (with committed
/// weight overrides re-applied at their original positions) through
/// fresh instances. Detection is a pure function of that input
/// sequence, so the rebuilt state — engine internals, fired log,
/// metrics, ladder phase — is bit-identical to the state at checkpoint
/// time.
fn rebuild_detection(
    c: &Checkpoint,
    cfg: &ReplayConfig,
) -> Result<(Ensemble, ScoreDrilldown), String> {
    let mut ensemble = build_ensemble(cfg);
    let mut drill = ScoreDrilldown::new(cfg.ensemble.trigger);
    let mut next_override = 0usize;
    for (i, entry) in c.context_log.iter().enumerate() {
        while let Some(o) = c.overrides.get(next_override) {
            if o.after_observes as usize > i {
                break;
            }
            let _ = ensemble.set_weight_override(&o.engine, o.weight);
            next_override += 1;
        }
        let kinds = FrequencyDist::from_raw_counts(entry.kinds_min, entry.kinds_counts.clone())
            .map_err(|e| format!("context_log[{i}]: kind distribution: {e}"))?;
        let len_stats = RunningStats::from_raw(entry.len_n, entry.len_xsum, entry.len_xsumsq);
        let s = &entry.signals;
        let ctx = SignalContext {
            at: s.at,
            epoch: s.epoch,
            interval_ns: s.interval_ns,
            spanned: s.spanned,
            packets: s.packets,
            syns: s.syns,
            len_sum: s.len_sum,
            distinct_sources: s.distinct_sources,
            median_len: s.median_len,
            kinds: &kinds,
            len_stats: &len_stats,
        };
        let verdict = ensemble.observe(&ctx);
        // The ladder's phase/generation/quiet counters advance on every
        // verdict; the outcome itself was recorded in the provenance
        // log at first firing, which resumes verbatim.
        let _ = drill.observe(&verdict);
    }
    for o in &c.overrides[next_override..] {
        let _ = ensemble.set_weight_override(&o.engine, o.weight);
    }
    Ok((ensemble, drill))
}
