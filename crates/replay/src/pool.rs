//! The persistent shard worker pool — the crate's production engine.
//!
//! Every per-run rule lives in the [`EpochCoordinator`]; this module
//! only decides where and how each surviving shard's slice gets
//! ingested:
//!
//! - **The site is chosen per epoch.** At every drain point each
//!   surviving state is home and ingest is a pure function, so the
//!   coordinator may ingest an epoch itself through the oracle's loop
//!   ([`reference::ingest_inline`]), and the outcome is bit-identical
//!   by construction. It dispatches only when the work parallelism
//!   saves beats the handoff: `(epoch packets − largest shard's
//!   packets) × ns_per_pkt > handoff_ns`. Both are running estimates
//!   over the last [`WINDOW`] measurements: `ns_per_pkt` the median
//!   busy time per packet of every epoch, `handoff_ns` the least
//!   overhead of a dispatched epoch (first send to last reply, minus
//!   the slowest shard's busy time). Until both windows are full the
//!   pool dispatches, and every [`PROBE_EVERY`]th
//!   choice takes the other site, so a stale estimate cannot lock in.
//!   The site depends on packet counts and timings; it never changes
//!   what is ingested.
//! - **N shards, N − 1 workers.** The coordinator serves shard 0 itself
//!   in both modes: on a dispatched epoch it ingests shard 0 while the
//!   workers run. A 1-shard run spawns no thread.
//! - **Faults.** An epoch with a scheduled fault on a worker shard
//!   always dispatches, so an injected panic unwinds a real thread: the
//!   coordinator notices the reply channel disconnect, joins the dead
//!   thread for its payload and quarantines the shard (its state died
//!   with the worker). A fault on shard 0 is handled as the oracle
//!   handles it: a panic files the same message, a stall is a no-op.
//! - **Workers spawn once per run.** One OS thread per worker shard
//!   lives for the whole replay inside a single `std::thread::scope`,
//!   fed through a bounded [`sync_channel`] of capacity
//!   [`QUEUE_CAPACITY`]. An epoch is a message, not a thread.
//! - **State ping-pongs, never copies.** A dispatched epoch *moves* the
//!   shard's [`ShardState`], its span recorder and its frame list to
//!   the worker and gets all three back in the reply — pointer
//!   handoffs through the channel, zero clones. Merging therefore stays
//!   serialized on the coordinator.
//! - **Flow hashing is a parallel pre-stage.** Hashing — the
//!   expensive, alive-map-independent half of routing — runs once up
//!   front over the whole schedule on scoped threads
//!   ([`workloads::shard::assignments_parallel`]); the coordinator's
//!   per-epoch routing then only looks the home shard up.
//! - **Headers are parsed once per batch.** A worker parses each
//!   `cfg.batch` chunk into a flat [`crate::FrameMeta`] buffer and
//!   feeds the trackers from it.
//!
//! The [`mod@reference`] oracle runs the same coordinator with
//! [`reference::ingest_inline`] alone; `tests/pool.rs` and
//! `tests/pool_teardown.rs` hold the pool to bit-identical outcomes
//! and leak-free teardown, and this module's tests pin each site.

use crate::coordinator::{
    elapsed_ns, injected_panic_message, Engine, EpochCoordinator, EpochIngest, ShardResult,
};
use crate::lifecycle::LifecycleReport;
use crate::reference;
use crate::{ReplayOutcome, ShardState};
use faultinject::ShardFaultKind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;
use telemetry::Tracer;

/// Bound of each shard's dispatch queue: one epoch in flight plus the
/// shutdown marker, so the coordinator never blocks on a send. Depth
/// beyond 1 would let epoch k+1 start before k's merge — the detector
/// is sequential, so the pipeline ends at the barrier by design.
pub(crate) const QUEUE_CAPACITY: usize = 2;

/// Most scoped threads for the up-front flow-hash pass; a run uses
/// `min(PARTITION_THREADS, available_parallelism())`. Hashing is pure
/// and order-preserving, so any thread count yields the same assignment
/// (`assignments_parallel` falls back to serial for short schedules).
const PARTITION_THREADS: usize = 4;

/// One epoch's work order for a shard: its state, its routed frame
/// list, and any fault scheduled to fire on the worker.
struct EpochWork<'a> {
    epoch_idx: u64,
    fault: Option<ShardFaultKind>,
    state: ShardState,
    frames: Vec<&'a bytes::Bytes>,
    batch: usize,
    /// Dispatch timestamp, for the queue-wait histogram.
    sent_at: Instant,
    /// The shard's span recorder, handed off with the state — threads
    /// never share a tracer. Dies with the worker on a panic.
    tracer: Tracer,
}

/// Coordinator → worker messages. The size skew between the variants
/// is deliberate: an `EpochWork` lives in at most one channel slot per
/// shard at a time (queue depth ≤ 1 by construction), so boxing it
/// would add a per-epoch allocation to save nothing.
#[allow(clippy::large_enum_variant)]
enum Dispatch<'a> {
    Epoch(EpochWork<'a>),
    Shutdown,
}

/// Worker → coordinator reply: the state, tracer and frame list come
/// home, plus the numbers the per-shard series need.
struct Reply<'a> {
    state: ShardState,
    frames: Vec<&'a bytes::Bytes>,
    busy_ns: u64,
    queue_wait_ns: u64,
    tracer: Tracer,
}

/// The persistent per-shard worker: block on the queue, run one epoch,
/// reply, repeat until shutdown or coordinator disconnect. An injected
/// panic fires before any ingest (so the quarantined state is a clean
/// epoch boundary) and unwinds through this loop, dropping both
/// channel ends — the reply-channel disconnect is how the coordinator
/// notices.
fn worker_loop<'a>(shard: usize, rx: &Receiver<Dispatch<'a>>, tx: &SyncSender<Reply<'a>>) {
    // Flat parsed-batch buffer, reused for the worker's whole life:
    // each batch's headers are parsed once into it, then the trackers
    // replay the metas without touching the frame bytes again.
    let mut metas: Vec<crate::FrameMeta> = Vec::new();
    while let Ok(Dispatch::Epoch(mut work)) = rx.recv() {
        let queue_wait_ns = elapsed_ns(work.sent_at);
        let mut tracer = work.tracer;
        // The queue-wait span opens at the instant the coordinator
        // dispatched (captured on its thread, same clock origin) and
        // closes now that the worker has dequeued.
        let sent_ns = tracer.ns_since(work.sent_at);
        tracer.begin_at("queue_wait", work.epoch_idx, sent_ns);
        tracer.end("queue_wait", work.epoch_idx);
        match work.fault {
            Some(ShardFaultKind::Panic) => {
                panic!("{}", injected_panic_message(shard, work.epoch_idx))
            }
            Some(ShardFaultKind::Stall { ns }) => {
                std::thread::sleep(std::time::Duration::from_nanos(ns));
            }
            _ => {}
        }
        tracer.begin("ingest", work.epoch_idx);
        let busy = Instant::now();
        for chunk in work.frames.chunks(work.batch) {
            metas.clear();
            metas.extend(chunk.iter().map(|f| crate::parse_frame(f)));
            for m in &metas {
                work.state.ingest_meta(m);
            }
        }
        let busy_ns = elapsed_ns(busy);
        tracer.end("ingest", work.epoch_idx);
        let reply = Reply {
            state: work.state,
            frames: work.frames,
            busy_ns,
            queue_wait_ns,
            tracer,
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// Renders a caught panic payload (best effort: `&str` and `String`
/// payloads, which covers every `panic!` with a message).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("shard thread panicked (non-string payload)")
    }
}

/// Running estimates look at this many recent measurements.
const WINDOW: usize = 8;

/// Every this-many-th site choice takes the site the estimates did not
/// pick, so an estimate that went stale gets measured again.
const PROBE_EVERY: u64 = 256;

/// Where one epoch's surviving slices are ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// Every slice on the coordinator thread, through the oracle's loop.
    Inline,
    /// Worker shards on their threads, shard 0 on the coordinator.
    Dispatch,
}

impl Site {
    fn other(self) -> Self {
        match self {
            Site::Inline => Site::Dispatch,
            Site::Dispatch => Site::Inline,
        }
    }
}

/// The last [`WINDOW`] samples of one measurement. It has no estimate
/// until the window is full, so one cold first epoch (workers still
/// starting, caches empty) cannot decide the next ones alone.
#[derive(Debug, Default)]
struct Running {
    samples: [f64; WINDOW],
    len: usize,
    next: usize,
}

impl Running {
    fn push(&mut self, v: f64) {
        self.samples[self.next] = v;
        self.next = (self.next + 1) % WINDOW;
        self.len = (self.len + 1).min(WINDOW);
    }

    fn full(&self) -> Option<[f64; WINDOW]> {
        (self.len == WINDOW).then_some(self.samples)
    }

    /// The middle sample: one outlier cannot swing it.
    fn median(&self) -> Option<f64> {
        let mut sorted = self.full()?;
        sorted.sort_by(f64::total_cmp);
        Some(sorted[WINDOW / 2])
    }

    /// The smallest sample, for a measurement whose noise only adds.
    fn min(&self) -> Option<f64> {
        self.full()?.into_iter().reduce(f64::min)
    }
}

/// A fixed site for tests: each one must stay bit-identical to the
/// oracle on its own.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
enum Pin {
    Inline,
    Dispatch,
    /// Odd choices inline, even choices dispatched.
    Alternate,
}

/// The per-epoch site choice; see the module docs.
#[derive(Debug, Default)]
struct SitePolicy {
    /// Estimated by the median.
    ns_per_pkt: Running,
    /// Estimated by the minimum: a preempted or cold worker only ever
    /// adds to a handoff, and on a busy host such outliers can fill half
    /// the window.
    handoff_ns: Running,
    choices: u64,
    #[cfg(test)]
    pin: Option<Pin>,
}

impl SitePolicy {
    /// The site for an epoch of `total` packets whose largest slice
    /// holds `largest`.
    fn choose(&mut self, total: u64, largest: u64) -> Site {
        self.choices += 1;
        #[cfg(test)]
        if let Some(pin) = self.pin {
            return match pin {
                Pin::Inline => Site::Inline,
                Pin::Dispatch => Site::Dispatch,
                Pin::Alternate if self.choices % 2 == 1 => Site::Inline,
                Pin::Alternate => Site::Dispatch,
            };
        }
        let rule = match (self.ns_per_pkt.median(), self.handoff_ns.min()) {
            (Some(ns_per_pkt), Some(handoff_ns))
                if (total - largest) as f64 * ns_per_pkt <= handoff_ns =>
            {
                Site::Inline
            }
            _ => Site::Dispatch,
        };
        if self.choices.is_multiple_of(PROBE_EVERY) {
            rule.other()
        } else {
            rule
        }
    }
}

/// One worker thread's queue pair and join handle.
struct Worker<'scope, 'a> {
    to: SyncSender<Dispatch<'a>>,
    from: Receiver<Reply<'a>>,
    /// `None` once a dead worker has been joined for its payload.
    handle: Option<ScopedJoinHandle<'scope, ()>>,
    in_flight: u64,
}

/// The running pool: the worker of every shard but 0, the up-front
/// flow-hash assignment of every frame, and the site policy.
struct Pool<'scope, 'a> {
    homes: Vec<usize>,
    /// `workers[i]` serves shard `i + 1`; the coordinator serves shard 0.
    workers: Vec<Worker<'scope, 'a>>,
    policy: SitePolicy,
}

impl<'scope, 'a: 'scope> Pool<'scope, 'a> {
    fn spawn(
        scope: &'scope Scope<'scope, '_>,
        shards: usize,
        homes: Vec<usize>,
        policy: SitePolicy,
    ) -> Self {
        let workers = (1..shards)
            .map(|s| {
                let (tx_d, rx_d) = sync_channel::<Dispatch<'a>>(QUEUE_CAPACITY);
                let (tx_r, rx_r) = sync_channel::<Reply<'a>>(QUEUE_CAPACITY);
                Worker {
                    to: tx_d,
                    from: rx_r,
                    handle: Some(scope.spawn(move || worker_loop(s, &rx_d, &tx_r))),
                    in_flight: 0,
                }
            })
            .collect();
        Pool {
            homes,
            workers,
            policy,
        }
    }
}

impl<'a> Pool<'_, 'a> {
    /// Wakes every worker with a shutdown marker (dead workers' queues
    /// are disconnected — ignore), then joins. Panicked workers were
    /// joined at quarantine time, so every remaining join is a clean
    /// exit and the scope ends with no unjoined threads to re-panic on.
    fn shutdown(self) {
        for w in &self.workers {
            let _ = w.to.send(Dispatch::Shutdown);
        }
        for w in self.workers {
            drop(w.to);
            if let Some(h) = w.handle {
                h.join().expect("idle worker shuts down cleanly");
            }
        }
    }

    /// Where epoch `e` runs: inline when no worker shard survives,
    /// dispatched when one has a fault scheduled, else the policy's
    /// choice.
    fn site(&mut self, e: &EpochIngest<'_, 'a>) -> Site {
        let workers = 1..e.alive.len();
        if !workers.clone().any(|s| e.alive[s]) {
            return Site::Inline;
        }
        if workers.clone().any(|s| e.alive[s] && e.faults[s].is_some()) {
            return Site::Dispatch;
        }
        let (total, largest) = (0..e.alive.len())
            .filter(|&s| e.alive[s])
            .map(|s| e.work[s].len() as u64)
            .fold((0, 0), |(t, l), n| (t + n, l.max(n)));
        self.policy.choose(total, largest)
    }

    /// Sends every surviving worker shard its epoch, ingests shard 0
    /// meanwhile, then collects the replies in shard order. Returns the
    /// epoch's worst queue wait.
    fn dispatch(
        &mut self,
        e: &mut EpochIngest<'_, 'a>,
        results: &mut Vec<(usize, ShardResult)>,
    ) -> u64 {
        let shards = e.alive.len();
        let first_send = Instant::now();
        for s in (1..shards).filter(|&s| e.alive[s]) {
            let w = &mut self.workers[s - 1];
            let msg = Dispatch::Epoch(EpochWork {
                epoch_idx: e.idx,
                fault: e.faults[s],
                state: e.states[s].take().expect("alive shard holds its state"),
                frames: std::mem::take(&mut e.work[s]),
                batch: e.batch,
                sent_at: Instant::now(),
                tracer: e.tracers[s].take().expect("alive shard holds its tracer"),
            });
            w.to.send(msg)
                .expect("dispatch to a live worker cannot fail");
            w.in_flight += 1;
            if e.hists_on {
                e.telemetry.shards[s].queue_depth.record(w.in_flight);
            }
        }
        reference::ingest_inline(e, 0..1, results);
        let mut slowest_busy_ns = match results.last() {
            Some((0, Ok(busy_ns))) => *busy_ns,
            _ => 0,
        };

        // Collect replies in shard order. A disconnected reply channel
        // means the worker died: join it for the panic payload.
        if e.traces_on {
            e.telemetry.trace.begin("barrier", e.idx);
        }
        let batch = e.batch as u64;
        let mut worst_queue_wait_ns = 0u64;
        for s in (1..shards).filter(|&s| e.alive[s]) {
            let w = &mut self.workers[s - 1];
            w.in_flight -= 1;
            let Ok(reply) = w.from.recv() else {
                let h = w.handle.take().expect("dead worker joined once");
                let msg = match h.join() {
                    Err(payload) => panic_message(payload),
                    Ok(()) => String::from("shard worker exited without a reply"),
                };
                results.push((s, Err(msg)));
                continue;
            };
            // The oracle records one batch per `chunks(batch)` chunk:
            // `full` whole batches plus one remainder batch, and
            // `record_n` is bit-identical to repeated `record`s.
            let ingested = reply.frames.len() as u64;
            let (full, rem) = (ingested / batch, ingested % batch);
            let m = &mut e.telemetry.shards[s];
            m.packets.add(ingested);
            m.batches.add(full + u64::from(rem > 0));
            if e.hists_on {
                m.batch_size.record_n(batch, full);
                if rem > 0 {
                    m.batch_size.record(rem);
                }
                m.queue_wait_ns.record(reply.queue_wait_ns);
            }
            worst_queue_wait_ns = worst_queue_wait_ns.max(reply.queue_wait_ns);
            slowest_busy_ns = slowest_busy_ns.max(reply.busy_ns);
            e.states[s] = Some(reply.state);
            e.tracers[s] = Some(reply.tracer);
            e.work[s] = reply.frames;
            results.push((s, Ok(reply.busy_ns)));
        }
        let handoff_ns = elapsed_ns(first_send).saturating_sub(slowest_busy_ns);
        if e.traces_on {
            e.telemetry.trace.end("barrier", e.idx);
        }
        if e.hists_on {
            e.telemetry.handoff_ns.record(handoff_ns);
        }
        // A stall or a panic is not what a handoff costs.
        if e.faults.iter().all(Option::is_none) {
            self.policy.handoff_ns.push(handoff_ns as f64);
        }
        worst_queue_wait_ns
    }
}

impl<'a> Engine<'a> for Pool<'_, 'a> {
    fn home(&self, idx: usize) -> usize {
        self.homes[idx]
    }

    fn ingest(
        &mut self,
        mut e: EpochIngest<'_, 'a>,
        results: &mut Vec<(usize, ShardResult)>,
    ) -> u64 {
        if e.hists_on {
            e.telemetry.partition_ns.record(e.route_ns);
        }
        let worst_queue_wait_ns = match self.site(&e) {
            Site::Inline => {
                e.telemetry.epochs_inline.inc();
                let shards = e.alive.len();
                reference::ingest_inline(&mut e, 0..shards, results);
                0
            }
            Site::Dispatch => {
                e.telemetry.epochs_dispatched.inc();
                self.dispatch(&mut e, results)
            }
        };
        let (mut packets, mut busy_ns) = (0u64, 0u64);
        for (s, r) in results.iter() {
            if let Ok(b) = r {
                packets += e.work[*s].len() as u64;
                busy_ns += b;
            }
        }
        if packets > 0 {
            self.policy.ns_per_pkt.push(busy_ns as f64 / packets as f64);
        }
        worst_queue_wait_ns
    }
}

/// Runs `coordinator` to completion on the persistent worker pool.
pub(crate) fn run(coordinator: EpochCoordinator<'_>) -> (ReplayOutcome, LifecycleReport) {
    run_with(coordinator, SitePolicy::default())
}

fn run_with(
    mut coordinator: EpochCoordinator<'_>,
    policy: SitePolicy,
) -> (ReplayOutcome, LifecycleReport) {
    coordinator.telemetry.queue_capacity = QUEUE_CAPACITY as u64;
    let schedule = coordinator.schedule();
    if !schedule.is_empty() {
        let shards = coordinator.shards();
        let homes = if shards == 1 {
            vec![0; schedule.len()]
        } else {
            let threads = std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(PARTITION_THREADS);
            // Recorded as `prepartition_ns`, not into the per-epoch
            // `partition_ns` histogram: this pass happens before any
            // epoch.
            let hash_started = Instant::now();
            let homes = workloads::shard::assignments_parallel(schedule, shards, threads);
            coordinator
                .telemetry
                .prepartition_ns
                .add(elapsed_ns(hash_started));
            homes
        };
        std::thread::scope(|scope| {
            let mut pool = Pool::spawn(scope, shards, homes, policy);
            coordinator.run(&mut pool);
            pool.shutdown();
        });
    }
    coordinator.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, LifecyclePlan, ReplayConfig};
    use faultinject::FaultSchedule;
    use workloads::{Schedule, SynFloodWorkload};

    fn small_flood() -> Schedule {
        let (s, _) = SynFloodWorkload {
            background_cps: 500,
            flood_pps: 20_000,
            flood_start: 150_000_000,
            duration: 400_000_000,
            seed: 11,
            ..SynFloodWorkload::default()
        }
        .generate();
        s
    }

    fn run_pinned(
        schedule: &Schedule,
        cfg: &ReplayConfig,
        faults: &FaultSchedule,
        pin: Pin,
    ) -> ReplayOutcome {
        let plan = LifecyclePlan::none();
        let policy = SitePolicy {
            pin: Some(pin),
            ..SitePolicy::default()
        };
        run_with(EpochCoordinator::new(schedule, cfg, faults.clone(), &plan), policy).0
    }

    /// The checks of `tests/pool.rs`'s `assert_outcomes_identical`:
    /// everything deterministic about two outcomes is equal.
    fn assert_identical(pool: &ReplayOutcome, refr: &ReplayOutcome, ctx: &str) {
        assert_eq!(pool.merged, refr.merged, "{ctx}: merged state");
        assert_eq!(pool.alerts, refr.alerts, "{ctx}: alerts");
        assert_eq!(pool.detected_at, refr.detected_at, "{ctx}: detection time");
        assert_eq!(pool.packets, refr.packets, "{ctx}: packets");
        assert_eq!(pool.epochs, refr.epochs, "{ctx}: epochs");
        assert_eq!(pool.health, refr.health, "{ctx}: health");
        assert_eq!(pool.ensemble, refr.ensemble, "{ctx}: ensemble report");
        assert_eq!(pool.provenance, refr.provenance, "{ctx}: provenance");
        let (p, r) = (&pool.telemetry, &refr.telemetry);
        assert_eq!(p.shards.len(), r.shards.len(), "{ctx}: shard metric sets");
        for (s, (p, r)) in p.shards.iter().zip(&r.shards).enumerate() {
            assert_eq!(p.packets, r.packets, "{ctx}: shard {s} packets");
            assert_eq!(p.syn_packets, r.syn_packets, "{ctx}: shard {s} syn_packets");
            assert_eq!(p.batches, r.batches, "{ctx}: shard {s} batches");
            assert_eq!(p.batch_size, r.batch_size, "{ctx}: shard {s} batch_size");
            assert_eq!(
                p.barrier_wait_ns.count(),
                r.barrier_wait_ns.count(),
                "{ctx}: shard {s} barrier records"
            );
        }
        for (name, p, r) in [
            ("epochs", &p.epochs, &r.epochs),
            ("alerts", &p.alerts, &r.alerts),
            ("faults_injected", &p.faults_injected, &r.faults_injected),
            ("shards_quarantined", &p.shards_quarantined, &r.shards_quarantined),
            ("packets_lost", &p.packets_lost, &r.packets_lost),
            ("packets_rerouted", &p.packets_rerouted, &r.packets_rerouted),
            ("reports_dropped", &p.reports_dropped, &r.reports_dropped),
        ] {
            assert_eq!(p.get(), r.get(), "{ctx}: telemetry counter {name}");
        }
    }

    /// A fault spec that kills every one of `shards` shards, shard 0
    /// by panic, over the first few epochs.
    fn every_shard_dies(shards: usize) -> String {
        (0..shards)
            .map(|s| {
                let kind = if s % 2 == 0 { "shard_panic" } else { "shard_crash" };
                format!("{kind}={s}@{}", 1 + s / 2)
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Every pinned site against the oracle, at 1/2/4/8 shards: no
    /// faults, the chaos specs of `tests/pool.rs` over their seeds, a
    /// panic on the coordinator's shard, a panic on a worker shard, and
    /// every shard dying.
    fn pinned_site_matches_the_oracle(pin: Pin) {
        let s = small_flood();
        for shards in [1usize, 2, 4, 8] {
            let cfg = ReplayConfig {
                shards,
                ..ReplayConfig::default()
            };
            let mut cases = vec![(String::new(), 0u64)];
            for spec in [
                "shard_crash=1@3,ctrl_loss=0.30",
                "shard_panic=2@4",
                "shard_crash=1@3,shard_panic=2@5,shard_stall=0@2:1000000,ctrl_loss=0.30",
            ] {
                cases.extend([0u64, 42, 1234].map(|seed| (spec.to_string(), seed)));
            }
            cases.push((String::from("shard_panic=0@4"), 0));
            cases.push((String::from("shard_panic=0@3,shard_panic=1@3"), 0));
            cases.push((String::from("shard_panic=1@4,shard_stall=1@2:1000000"), 0));
            cases.push((every_shard_dies(shards), 0));
            for (spec, seed) in cases {
                let faults = if spec.is_empty() {
                    FaultSchedule::none()
                } else {
                    FaultSchedule::parse(&spec, seed).unwrap()
                };
                let ctx = format!("{pin:?} at {shards} shards, spec {spec:?} seed {seed}");
                let pool = run_pinned(&s, &cfg, &faults, pin);
                let refr = reference::run_replay_with_faults(&s, &cfg, &faults);
                assert_identical(&pool, &refr, &ctx);
                let t = &pool.telemetry;
                let (inline, dispatched) = (t.epochs_inline.get(), t.epochs_dispatched.get());
                assert_eq!(inline + dispatched, pool.epochs, "{ctx}: one site per epoch");
                assert_eq!(t.handoff_ns.count(), dispatched, "{ctx}: handoff samples");
                if shards == 1 {
                    assert_eq!(dispatched, 0, "{ctx}: no worker to dispatch to");
                } else if spec.is_empty() {
                    let want = match pin {
                        Pin::Inline => (pool.epochs, 0),
                        Pin::Dispatch => (0, pool.epochs),
                        Pin::Alternate => (pool.epochs.div_ceil(2), pool.epochs / 2),
                    };
                    assert_eq!((inline, dispatched), want, "{ctx}: sites");
                }
                if spec.starts_with("shard_panic=2@4") && shards > 2 {
                    assert!(dispatched > 0, "{ctx}: a worker fault dispatches");
                }
            }
        }
    }

    #[test]
    fn always_inline_matches_the_oracle() {
        pinned_site_matches_the_oracle(Pin::Inline);
    }

    #[test]
    fn always_dispatched_matches_the_oracle() {
        pinned_site_matches_the_oracle(Pin::Dispatch);
    }

    #[test]
    fn alternating_sites_match_the_oracle() {
        pinned_site_matches_the_oracle(Pin::Alternate);
    }

    /// A policy whose windows hold `ns_per_pkt` and `handoff_ns`.
    fn warmed(ns_per_pkt: f64, handoff_ns: f64) -> SitePolicy {
        let mut p = SitePolicy::default();
        for _ in 0..WINDOW {
            p.ns_per_pkt.push(ns_per_pkt);
            p.handoff_ns.push(handoff_ns);
        }
        p
    }

    #[test]
    fn the_rule_dispatches_only_when_the_saved_work_beats_the_handoff() {
        // 100 ns/pkt against a 1,000 ns handoff: the boundary is 10
        // packets saved, and a tie stays inline.
        let mut p = warmed(100.0, 1_000.0);
        assert_eq!(p.choose(20, 10), Site::Inline, "10 × 100 = 1,000: a tie");
        assert_eq!(p.choose(21, 10), Site::Dispatch, "11 × 100 > 1,000");
        assert_eq!(p.choose(40, 40), Site::Inline, "one busy shard saves nothing");
        assert_eq!(p.choose(0, 0), Site::Inline, "an empty epoch saves nothing");
    }

    #[test]
    fn the_rule_dispatches_until_both_windows_are_full() {
        let mut p = SitePolicy::default();
        for i in 0..WINDOW - 1 {
            assert_eq!(p.choose(2, 1), Site::Dispatch, "bootstrap choice {i}");
            p.ns_per_pkt.push(100.0);
            p.handoff_ns.push(1e9);
        }
        assert_eq!(p.choose(2, 1), Site::Dispatch, "one window short");
        p.ns_per_pkt.push(100.0);
        assert_eq!(p.choose(2, 1), Site::Dispatch, "handoff window short");
        p.handoff_ns.push(1e9);
        assert_eq!(p.choose(2, 1), Site::Inline, "both windows full");
    }

    #[test]
    fn every_probe_choice_takes_the_other_site() {
        for (rule, total) in [(Site::Inline, 2), (Site::Dispatch, 1_000_000)] {
            let mut p = warmed(100.0, 1_000.0);
            for choice in 1..=3 * PROBE_EVERY {
                let want = if choice.is_multiple_of(PROBE_EVERY) {
                    rule.other()
                } else {
                    rule
                };
                assert_eq!(p.choose(total, 1), want, "{rule:?} rule, choice {choice}");
            }
        }
    }

    #[test]
    fn estimates_are_the_window_median_and_minimum() {
        let mut r = Running::default();
        assert_eq!((r.median(), r.min()), (None, None));
        for v in [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 50.0] {
            r.push(v);
        }
        assert_eq!((r.median(), r.min()), (Some(7.0), Some(1.0)));
        // The oldest samples age out: a stale low value cannot pin the
        // minimum.
        for _ in 0..WINDOW {
            r.push(40.0);
        }
        assert_eq!((r.median(), r.min()), (Some(40.0), Some(40.0)));
    }
}
