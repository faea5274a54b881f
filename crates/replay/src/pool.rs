//! The persistent shard worker pool — the crate's production engine.
//!
//! Every per-run rule lives in the [`EpochCoordinator`]; this module
//! only decides how a surviving shard's slice gets ingested:
//!
//! - **Workers spawn once per run.** One OS thread per shard lives for
//!   the whole replay inside a single `std::thread::scope`, fed
//!   through a bounded [`sync_channel`] of capacity
//!   [`QUEUE_CAPACITY`]. An epoch is a message, not a thread.
//! - **State ping-pongs, never copies.** Each epoch the coordinator
//!   *moves* the shard's [`ShardState`], its span recorder and its
//!   frame list to the worker and gets all three back in the reply —
//!   pointer handoffs through the channel, zero clones. Merging
//!   therefore stays serialized on the coordinator.
//! - **Flow hashing is a parallel pre-stage.** Hashing — the
//!   expensive, alive-map-independent half of routing — runs once up
//!   front over the whole schedule on scoped threads
//!   ([`workloads::shard::assignments_parallel`]); the coordinator's
//!   per-epoch routing then only looks the home shard up.
//! - **Headers are parsed once per batch.** A worker parses each
//!   `cfg.batch` chunk into a flat [`crate::FrameMeta`] buffer and
//!   feeds the trackers from it.
//!
//! An injected panic unwinds the worker: the coordinator notices the
//! reply channel disconnect, joins the dead thread for its payload, and
//! quarantines the shard (its state died with the worker). The
//! [`reference`](crate::reference) oracle runs the same coordinator
//! with a plain sequential loop; `tests/pool.rs` and
//! `tests/pool_teardown.rs` hold the pool to bit-identical outcomes and
//! leak-free teardown.

use crate::coordinator::{
    elapsed_ns, injected_panic_message, Engine, EpochCoordinator, EpochIngest, ShardResult,
};
use crate::lifecycle::LifecycleReport;
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

/// The running pool: one queue pair and join handle per shard, plus
/// the up-front flow-hash assignment of every frame.
struct Pool<'scope, 'a> {
    homes: Vec<usize>,
    to_worker: Vec<SyncSender<Dispatch<'a>>>,
    from_worker: Vec<Receiver<Reply<'a>>>,
    /// `None` once a dead worker has been joined for its payload.
    handles: Vec<Option<ScopedJoinHandle<'scope, ()>>>,
    in_flight: Vec<u64>,
}

impl<'scope, 'a: 'scope> Pool<'scope, 'a> {
    fn spawn(scope: &'scope Scope<'scope, '_>, shards: usize, homes: Vec<usize>) -> Self {
        let mut pool = Pool {
            homes,
            to_worker: Vec::with_capacity(shards),
            from_worker: Vec::with_capacity(shards),
            handles: Vec::with_capacity(shards),
            in_flight: vec![0; shards],
        };
        for s in 0..shards {
            let (tx_d, rx_d) = sync_channel::<Dispatch<'a>>(QUEUE_CAPACITY);
            let (tx_r, rx_r) = sync_channel::<Reply<'a>>(QUEUE_CAPACITY);
            pool.to_worker.push(tx_d);
            pool.from_worker.push(rx_r);
            pool.handles
                .push(Some(scope.spawn(move || worker_loop(s, &rx_d, &tx_r))));
        }
        pool
    }

    /// Wakes every worker with a shutdown marker (dead workers' queues
    /// are disconnected — ignore), then joins. Panicked workers were
    /// joined at quarantine time, so every remaining join is a clean
    /// exit and the scope ends with no unjoined threads to re-panic on.
    fn shutdown(self) {
        for tx in &self.to_worker {
            let _ = tx.send(Dispatch::Shutdown);
        }
        drop(self.to_worker);
        for h in self.handles.into_iter().flatten() {
            h.join().expect("idle worker shuts down cleanly");
        }
    }
}

impl<'a> Engine<'a> for Pool<'_, 'a> {
    fn home(&self, idx: usize) -> usize {
        self.homes[idx]
    }

    fn ingest(&mut self, e: EpochIngest<'_, 'a>, results: &mut Vec<(usize, ShardResult)>) -> u64 {
        let shards = e.alive.len();
        if e.hists_on {
            e.telemetry.partition_ns.record(e.route_ns);
        }
        // Dispatch to every surviving worker: move the state, tracer
        // and frame list through the bounded queue.
        for s in (0..shards).filter(|&s| e.alive[s]) {
            let msg = Dispatch::Epoch(EpochWork {
                epoch_idx: e.idx,
                fault: e.faults[s],
                state: e.states[s].take().expect("alive shard holds its state"),
                frames: std::mem::take(&mut e.work[s]),
                batch: e.batch,
                sent_at: Instant::now(),
                tracer: e.tracers[s].take().expect("alive shard holds its tracer"),
            });
            self.to_worker[s]
                .send(msg)
                .expect("dispatch to a live worker cannot fail");
            self.in_flight[s] += 1;
            if e.hists_on {
                e.telemetry.shards[s].queue_depth.record(self.in_flight[s]);
            }
        }

        // Collect replies in shard order. A disconnected reply channel
        // means the worker died: join it for the panic payload.
        if e.traces_on {
            e.telemetry.trace.begin("barrier", e.idx);
        }
        let batch = e.batch as u64;
        let mut worst_queue_wait_ns = 0u64;
        for s in (0..shards).filter(|&s| e.alive[s]) {
            self.in_flight[s] -= 1;
            let Ok(reply) = self.from_worker[s].recv() else {
                let h = self.handles[s].take().expect("dead worker joined once");
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
            e.states[s] = Some(reply.state);
            e.tracers[s] = Some(reply.tracer);
            e.work[s] = reply.frames;
            results.push((s, Ok(reply.busy_ns)));
        }
        if e.traces_on {
            e.telemetry.trace.end("barrier", e.idx);
        }
        worst_queue_wait_ns
    }
}

/// Runs `coordinator` to completion on the persistent worker pool.
pub(crate) fn run(mut coordinator: EpochCoordinator<'_>) -> (ReplayOutcome, LifecycleReport) {
    coordinator.telemetry.queue_capacity = QUEUE_CAPACITY as u64;
    let schedule = coordinator.schedule();
    if !schedule.is_empty() {
        let shards = coordinator.shards();
        let threads = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(PARTITION_THREADS);
        // Recorded as `prepartition_ns`, not into the per-epoch
        // `partition_ns` histogram: this pass happens before any epoch.
        let hash_started = Instant::now();
        let homes = workloads::shard::assignments_parallel(schedule, shards, threads);
        coordinator
            .telemetry
            .prepartition_ns
            .add(elapsed_ns(hash_started));
        std::thread::scope(|scope| {
            let mut pool = Pool::spawn(scope, shards, homes);
            coordinator.run(&mut pool);
            pool.shutdown();
        });
    }
    coordinator.finish()
}
