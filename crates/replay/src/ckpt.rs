//! Crash-consistent epoch checkpoints for the replay pool.
//!
//! At a configurable epoch cadence the coordinator serializes its full
//! deterministic state — the per-shard tracker sets (via the raw
//! export/import constructors in `stat4-core`), the supervisor's
//! degraded-mode bookkeeping, the delivered-signal log the detection
//! ensemble replays on resume, alert provenance verbatim, and the
//! lifecycle generation — into one versioned JSON document guarded by
//! an FNV-1a 64 checksum.
//!
//! **Write discipline.** A checkpoint is written to a temp file in the
//! same directory, fsynced, then atomically renamed into place (and the
//! directory fsynced, best effort). A crash mid-write therefore leaves
//! either the previous checkpoint set intact or a stray temp file the
//! loader ignores — never a half-written `ckpt-*.json`. The
//! `ckpt_corrupt` fault domain injects torn writes / bit rot *after*
//! the checksum is computed, so the loader's validation path is
//! testable.
//!
//! **Read discipline.** [`load_latest`] scans the directory newest
//! ordinal first and returns the first checkpoint whose magic, version,
//! checksum and tracker geometries all validate, reporting every
//! rejected file — a torn or rotted newest checkpoint falls back to its
//! predecessor instead of wedging recovery.
//!
//! **Why a signal log instead of serialized engines.** The detection
//! ensemble and the drilldown ladder are path-dependent objects with
//! private state spread over eight engines. Rather than chase every
//! field, the checkpoint stores the exact per-interval inputs they
//! observed ([`ContextEntry`]); a resume replays them (with any
//! committed weight overrides re-applied at their original positions)
//! through fresh instances. Detection is a pure function of that input
//! sequence, so the rebuilt state — engine internals, fired log,
//! metrics, ladder phase — is bit-identical to the state at checkpoint
//! time.
//!
//! **Write cost.** The coordinator's [`Writer`] renders the payload
//! once, hashes it, and writes the fixed header around it. The two logs
//! that grow with the run, `context_log` and `provenance`, are
//! push-only: the coordinator only appends to them, and a resume
//! restores them whole into a coordinator whose writer starts empty.
//! The writer therefore keeps each log's rendered text between writes
//! and renders only the entries appended since the previous
//! checkpoint; the rest of the payload (scalars, shards, incidents,
//! overrides) is small and rendered at every write. Two passes stay
//! O(history) per write: the FNV-1a checksum over the whole payload and
//! the file write with its fsync. Shrinking those needs a format
//! change. [`serialize`] is the same code with a fresh writer, so there
//! is one rendering path and the bytes on disk do not depend on when a
//! log entry was rendered.

use crate::provenance::AlertProvenanceRecord;
use crate::snapshot::{
    ju, jus, obj, opt_u64, parse_record, parse_signals, record_json, req, req_arr, req_i64,
    req_str, req_u64, req_usize, signals_json,
};
use crate::{IncidentKind, ShardIncident, ShardState};
use anomaly::SignalValues;
use faultinject::{CkptCorruption, FaultSchedule};
use stat4_core::freq::FrequencyDist;
use stat4_core::hll::HyperLogLog;
use stat4_core::percentile::{MarkerRaw, PercentileSet};
use stat4_core::running::RunningStats;
use stat4_core::sketch::{CountMinSketch, ROW_SALTS};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use telemetry::json::{render, render_into};
use telemetry::{json_string, Json};

/// First bytes of every checkpoint document.
pub const MAGIC: &str = "stat4-replay-ckpt";
/// Current checkpoint format version; the parser refuses every other.
pub const VERSION: u64 = 2;

/// FNV-1a 64 — the checksum guarding a checkpoint payload. Chosen for
/// the same reason the fault injector uses SplitMix64: dependency-free,
/// deterministic, and plenty to catch torn writes and bit rot (this is
/// an integrity check, not an adversarial MAC).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One delivered epoch report: everything the detection ensemble read
/// for that interval. The scalar signals plus the two merged trackers
/// the [`SignalContext`] borrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextEntry {
    /// The scalar signal values.
    pub signals: SignalValues,
    /// Merged kind-distribution domain minimum at that epoch.
    pub kinds_min: i64,
    /// Merged kind-distribution counts at that epoch.
    pub kinds_counts: Vec<u64>,
    /// Merged length-moment `N`.
    pub len_n: u64,
    /// Merged length-moment `Xsum`.
    pub len_xsum: i64,
    /// Merged length-moment `Xsumsq`.
    pub len_xsumsq: i64,
}

/// A committed ensemble weight override, positioned by how many epoch
/// reports the ensemble had observed when it was applied — replaying
/// the log applies it at exactly the same point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverrideEntry {
    /// Ensemble observations made before this override took effect.
    pub after_observes: u64,
    /// Engine name.
    pub engine: String,
    /// Q16 weight, or `None` to restore the engine's own weight.
    pub weight: Option<i64>,
}

/// Everything needed to continue a replay bit-identically from an
/// epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Index into the run's epoch-range list where processing resumes.
    pub next_ordinal: usize,
    /// 0-based ordinal of this checkpoint within its run (file name,
    /// corruption-injection key).
    pub checkpoint_ordinal: u64,
    /// Shards the run was configured with.
    pub cfg_shards: usize,
    /// Batch size the run was configured with.
    pub cfg_batch: usize,
    /// Detector interval the run was configured with.
    pub cfg_interval_ns: u64,
    /// Frames in the schedule (resume sanity check).
    pub schedule_packets: u64,
    /// Fault spec string the run was started with.
    pub faults_spec: String,
    /// Chaos seed the run was started with.
    pub fault_seed: u64,
    /// Frames replayed so far.
    pub packets: u64,
    /// Epochs closed so far.
    pub epochs: u64,
    /// Frames rerouted so far.
    pub packets_rerouted: u64,
    /// Epoch reports dropped so far.
    pub reports_dropped: u64,
    /// Report-loss carry-forward: SYNs.
    pub carried_syns: i64,
    /// Report-loss carry-forward: frames.
    pub carried_packets: i64,
    /// Report-loss carry-forward: length sum.
    pub carried_len_sum: i64,
    /// Report-loss carry-forward: spanned intervals.
    pub carried_epochs: i64,
    /// Epoch ordinals of the carried (dropped) reports.
    pub carried_from: Vec<u64>,
    /// Per-shard liveness.
    pub alive: Vec<bool>,
    /// Per-shard state; `None` for shards whose state died with a
    /// panicked worker.
    pub shards: Vec<Option<ShardState>>,
    /// Every quarantine incident so far, in occurrence order.
    pub incidents: Vec<ShardIncident>,
    /// Every delivered epoch report, in delivery order — the ensemble
    /// warm-replay log.
    pub context_log: Vec<ContextEntry>,
    /// Committed weight overrides, in commit order.
    pub overrides: Vec<OverrideEntry>,
    /// Alert provenance records, restored verbatim.
    pub provenance: Vec<AlertProvenanceRecord>,
    /// Reconfiguration generation at the checkpoint.
    pub generation: u64,
    /// Committed reconfiguration transactions so far (stale-duplicate
    /// rejection continues where it left off).
    pub swaps_committed: u64,
}

// ---- render ---------------------------------------------------------

fn jb(v: bool) -> Json {
    Json::Bool(v)
}

fn jopt_i64(v: Option<i64>) -> Json {
    v.map_or(Json::Null, Json::Int)
}

fn u64_arr(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| ju(x)).collect())
}

/// One shard's full tracker set, read straight off the live trackers.
fn shard_json(s: &ShardState) -> Json {
    let (pc_min, pc_max) = s.len_median.domain();
    obj(vec![
        ("kinds_min", Json::Int(s.kinds.min_value())),
        ("kinds_counts", u64_arr(s.kinds.counts())),
        ("len_n", ju(s.len_stats.n())),
        ("len_xsum", Json::Int(s.len_stats.xsum())),
        ("len_xsumsq", Json::Int(s.len_stats.xsumsq())),
        ("sk_rows", jus(s.dst_sketch.rows())),
        ("sk_width_log2", ju(u64::from(s.dst_sketch.width_log2()))),
        ("sk_cells", u64_arr(s.dst_sketch.cells())),
        ("sk_total", ju(s.dst_sketch.total())),
        ("pc_min", Json::Int(pc_min)),
        ("pc_max", Json::Int(pc_max)),
        ("pc_counts", u64_arr(s.len_median.counts())),
        ("pc_total", ju(s.len_median.total())),
        (
            "pc_markers",
            Json::Arr(
                s.len_median
                    .export_markers()
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("low_weight", ju(u64::from(m.low_weight))),
                            ("high_weight", ju(u64::from(m.high_weight))),
                            (
                                "pos",
                                m.pos.map_or(Json::Null, jus),
                            ),
                            ("low", ju(m.low)),
                            ("high", ju(m.high)),
                            ("moves", ju(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("hll_precision", ju(u64::from(s.src_hll.precision()))),
        (
            "hll_registers",
            Json::Arr(s.src_hll.registers().iter().map(|&r| ju(u64::from(r))).collect()),
        ),
        ("packets", ju(s.packets)),
        ("syn_in_interval", Json::Int(s.syn_in_interval)),
        ("packets_in_interval", Json::Int(s.packets_in_interval)),
        ("len_sum_in_interval", Json::Int(s.len_sum_in_interval)),
    ])
}

fn incident_json(i: &ShardIncident) -> Json {
    let (kind, msg) = match &i.kind {
        IncidentKind::Crashed => ("crashed", String::new()),
        IncidentKind::Panicked(m) => ("panicked", m.clone()),
        IncidentKind::MergeFailed(m) => ("merge_failed", m.clone()),
    };
    obj(vec![
        ("shard", jus(i.shard)),
        ("epoch", ju(i.epoch)),
        ("kind", Json::Str(kind.to_string())),
        ("msg", Json::Str(msg)),
    ])
}

fn context_json(e: &ContextEntry) -> Json {
    obj(vec![
        ("signals", signals_json(&e.signals)),
        ("kinds_min", Json::Int(e.kinds_min)),
        ("kinds_counts", u64_arr(&e.kinds_counts)),
        ("len_n", ju(e.len_n)),
        ("len_xsum", Json::Int(e.len_xsum)),
        ("len_xsumsq", Json::Int(e.len_xsumsq)),
    ])
}

fn override_json(o: &OverrideEntry) -> Json {
    obj(vec![
        ("after_observes", ju(o.after_observes)),
        ("engine", Json::Str(o.engine.clone())),
        ("weight", jopt_i64(o.weight)),
    ])
}

/// The rendered array body (entries joined by commas) of one push-only
/// log, and how many of its entries that text covers.
#[derive(Debug, Default)]
struct LogText {
    text: String,
    entries: usize,
}

impl LogText {
    /// Renders the entries of `log` this text does not cover yet onto
    /// it, and returns the whole body.
    ///
    /// # Panics
    ///
    /// Panics if `log` is shorter than the entries already rendered:
    /// the log was not push-only, and the cached text is stale.
    fn extend<T>(&mut self, log: &[T], to_json: fn(&T) -> Json) -> &str {
        assert!(
            log.len() >= self.entries,
            "checkpoint log shrank from {} to {} entries; it must be push-only",
            self.entries,
            log.len()
        );
        for e in &log[self.entries..] {
            if !self.text.is_empty() {
                self.text.push(',');
            }
            render_into(&mut self.text, &to_json(e));
        }
        self.entries = log.len();
        &self.text
    }
}

/// One payload member: a small tree rendered at every write, or the
/// cached array body of a push-only log.
enum Member<'a> {
    Tree(Json),
    Log(&'a str),
}

/// Renders checkpoints of one run. It keeps the rendered text of the
/// two push-only logs (`context_log`, `provenance`) between writes, so
/// each write renders only the entries appended since the previous
/// one. A fresh writer renders everything; [`serialize`] is exactly
/// that.
#[derive(Debug, Default)]
pub struct Writer {
    context_log: LogText,
    provenance: LogText,
}

impl Writer {
    fn payload(&mut self, c: &Checkpoint) -> String {
        use Member::{Log, Tree};
        let context_log = self.context_log.extend(&c.context_log, context_json);
        let provenance = self.provenance.extend(&c.provenance, record_json);
        let members = [
            ("next_ordinal", Tree(jus(c.next_ordinal))),
            ("checkpoint_ordinal", Tree(ju(c.checkpoint_ordinal))),
            ("cfg_shards", Tree(jus(c.cfg_shards))),
            ("cfg_batch", Tree(jus(c.cfg_batch))),
            ("cfg_interval_ns", Tree(ju(c.cfg_interval_ns))),
            ("schedule_packets", Tree(ju(c.schedule_packets))),
            ("faults_spec", Tree(Json::Str(c.faults_spec.clone()))),
            ("fault_seed", Tree(ju(c.fault_seed))),
            ("packets", Tree(ju(c.packets))),
            ("epochs", Tree(ju(c.epochs))),
            ("packets_rerouted", Tree(ju(c.packets_rerouted))),
            ("reports_dropped", Tree(ju(c.reports_dropped))),
            ("carried_syns", Tree(Json::Int(c.carried_syns))),
            ("carried_packets", Tree(Json::Int(c.carried_packets))),
            ("carried_len_sum", Tree(Json::Int(c.carried_len_sum))),
            ("carried_epochs", Tree(Json::Int(c.carried_epochs))),
            ("carried_from", Tree(u64_arr(&c.carried_from))),
            (
                "alive",
                Tree(Json::Arr(c.alive.iter().map(|&a| jb(a)).collect())),
            ),
            (
                "shards",
                Tree(Json::Arr(
                    c.shards
                        .iter()
                        .map(|s| s.as_ref().map_or(Json::Null, shard_json))
                        .collect(),
                )),
            ),
            (
                "incidents",
                Tree(Json::Arr(c.incidents.iter().map(incident_json).collect())),
            ),
            ("context_log", Log(context_log)),
            (
                "overrides",
                Tree(Json::Arr(c.overrides.iter().map(override_json).collect())),
            ),
            ("provenance", Log(provenance)),
            ("generation", Tree(ju(c.generation))),
            ("swaps_committed", Tree(ju(c.swaps_committed))),
        ];
        // The logs dominate; 64 KiB covers the fixed part of a few shards.
        let mut out = String::with_capacity(context_log.len() + provenance.len() + (1 << 16));
        out.push('{');
        for (i, (key, member)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(key));
            out.push(':');
            match member {
                Tree(v) => render_into(&mut out, v),
                Log(body) => {
                    out.push('[');
                    out.push_str(body);
                    out.push(']');
                }
            }
        }
        out.push('}');
        out
    }

    /// Renders `c` into its on-disk document: magic, version, checksum
    /// over the canonical payload rendering, then the payload. The
    /// payload is rendered once and hashed; the fixed header is written
    /// around it.
    ///
    /// # Panics
    ///
    /// Panics if `c`'s logs are shorter than at this writer's previous
    /// call (see [`LogText::extend`]).
    pub fn serialize(&mut self, c: &Checkpoint) -> String {
        let payload = self.payload(c);
        let sum = fnv1a64(payload.as_bytes());
        let mut doc = String::with_capacity(payload.len() + 128);
        let _ = write!(
            doc,
            "{{\"magic\":{},\"version\":{VERSION},\"checksum\":\"{sum:016x}\",\"payload\":",
            json_string(MAGIC)
        );
        doc.push_str(&payload);
        doc.push('}');
        doc
    }

    /// Writes `c` to `dir` crash-consistently: temp file in the same
    /// directory, fsync, atomic rename, directory fsync (best effort).
    /// If `faults` schedules corruption for this checkpoint ordinal the
    /// bytes are damaged *after* the checksum was computed — modelling
    /// a torn write or bit rot between the engine and the platter.
    ///
    /// # Errors
    ///
    /// Any I/O failure, labelled with the path it hit.
    pub fn write(
        &mut self,
        dir: &Path,
        c: &Checkpoint,
        faults: &FaultSchedule,
    ) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        let mut bytes = self.serialize(c).into_bytes();
        match faults.ckpt_corruption(c.checkpoint_ordinal) {
            Some(CkptCorruption::Truncate { keep }) => {
                let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(bytes.len());
                bytes.truncate(keep);
            }
            Some(CkptCorruption::FlipByte { offset, mask }) if !bytes.is_empty() => {
                let i = usize::try_from(offset % bytes.len() as u64).unwrap_or(0);
                bytes[i] ^= mask;
            }
            _ => {}
        }
        let final_path = dir.join(file_name(c.checkpoint_ordinal));
        let tmp_path = dir.join(format!(".tmp-{}", file_name(c.checkpoint_ordinal)));
        {
            let mut f = std::fs::File::create(&tmp_path)
                .map_err(|e| format!("cannot create {}: {e}", tmp_path.display()))?;
            f.write_all(&bytes)
                .map_err(|e| format!("cannot write {}: {e}", tmp_path.display()))?;
            f.sync_all()
                .map_err(|e| format!("cannot fsync {}: {e}", tmp_path.display()))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(|e| {
            format!(
                "cannot rename {} to {}: {e}",
                tmp_path.display(),
                final_path.display()
            )
        })?;
        // Durability of the rename itself; failure here degrades the
        // guarantee, never correctness, so it is best effort.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(final_path)
    }
}

/// Serializes a checkpoint into its on-disk document with a fresh
/// [`Writer`]: every entry of both logs is rendered.
#[must_use]
pub fn serialize(c: &Checkpoint) -> String {
    Writer::default().serialize(c)
}

// ---- parse ----------------------------------------------------------

fn req_u64_arr(v: &Json, key: &str, path: &str) -> Result<Vec<u64>, String> {
    req_arr(v, key, path)?
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x.as_u64()
                .ok_or_else(|| format!("{path}: {key}[{i}] is not a non-negative integer"))
        })
        .collect()
}

/// Rebuilds one shard's tracker set through the `stat4-core` raw
/// constructors, validating every tracker's geometry.
fn parse_shard(v: &Json, path: &str) -> Result<ShardState, String> {
    let pc_markers = req_arr(v, "pc_markers", path)?
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mp = format!("{path}.pc_markers[{i}]");
            Ok(MarkerRaw {
                low_weight: u32::try_from(req_u64(m, "low_weight", &mp)?)
                    .map_err(|_| format!("{mp}: \"low_weight\" overflows u32"))?,
                high_weight: u32::try_from(req_u64(m, "high_weight", &mp)?)
                    .map_err(|_| format!("{mp}: \"high_weight\" overflows u32"))?,
                pos: opt_u64(m, "pos", &mp)?
                    .map(|p| {
                        usize::try_from(p).map_err(|_| format!("{mp}: \"pos\" overflows usize"))
                    })
                    .transpose()?,
                low: req_u64(m, "low", &mp)?,
                high: req_u64(m, "high", &mp)?,
                moves: req_u64(m, "moves", &mp)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let hll_registers = req_arr(v, "hll_registers", path)?
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.as_u64()
                .and_then(|x| u8::try_from(x).ok())
                .ok_or_else(|| format!("{path}: hll_registers[{i}] is not a register rank"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sk_rows = req_usize(v, "sk_rows", path)?;
    let sk_width_log2 = u32::try_from(req_u64(v, "sk_width_log2", path)?)
        .map_err(|_| format!("{path}: \"sk_width_log2\" overflows u32"))?;
    let sk_cells = req_u64_arr(v, "sk_cells", path)?;
    // `CountMinSketch::from_raw` asserts its geometry; check it here so
    // a damaged document is an error, not a panic.
    if !(1..=ROW_SALTS.len()).contains(&sk_rows) || sk_width_log2 >= 28 {
        return Err(format!("{path}: sketch geometry out of range"));
    }
    if sk_cells.len() != sk_rows << sk_width_log2 {
        return Err(format!("{path}: sketch cell array length mismatch"));
    }
    let packets = req_u64(v, "packets", path)?;
    Ok(ShardState {
        kinds: FrequencyDist::from_raw_counts(
            req_i64(v, "kinds_min", path)?,
            req_u64_arr(v, "kinds_counts", path)?,
        )
        .map_err(|e| format!("{path}: kind distribution: {e}"))?,
        len_stats: RunningStats::from_raw(
            req_u64(v, "len_n", path)?,
            req_i64(v, "len_xsum", path)?,
            req_i64(v, "len_xsumsq", path)?,
        ),
        dst_sketch: CountMinSketch::from_raw(
            sk_rows,
            sk_width_log2,
            sk_cells,
            req_u64(v, "sk_total", path)?,
        ),
        len_median: PercentileSet::from_raw(
            req_i64(v, "pc_min", path)?,
            req_i64(v, "pc_max", path)?,
            req_u64_arr(v, "pc_counts", path)?,
            req_u64(v, "pc_total", path)?,
            &pc_markers,
        )
        .map_err(|e| format!("{path}: length median: {e}"))?,
        src_hll: HyperLogLog::from_registers(
            u32::try_from(req_u64(v, "hll_precision", path)?)
                .map_err(|_| format!("{path}: \"hll_precision\" overflows u32"))?,
            hll_registers,
        )
        .map_err(|e| format!("{path}: source HLL: {e}"))?,
        packets,
        syn_in_interval: req_i64(v, "syn_in_interval", path)?,
        packets_in_interval: req_i64(v, "packets_in_interval", path)?,
        len_sum_in_interval: req_i64(v, "len_sum_in_interval", path)?,
        // Restored trackers re-base their delta journals at the
        // restored values, so the delta baseline matches.
        taken_packets: packets,
    })
}

fn parse_incident(v: &Json, path: &str) -> Result<ShardIncident, String> {
    let msg = req_str(v, "msg", path)?;
    let kind = match req_str(v, "kind", path)?.as_str() {
        "crashed" => IncidentKind::Crashed,
        "panicked" => IncidentKind::Panicked(msg),
        "merge_failed" => IncidentKind::MergeFailed(msg),
        other => return Err(format!("{path}: unknown incident kind {other:?}")),
    };
    Ok(ShardIncident {
        shard: req_usize(v, "shard", path)?,
        epoch: req_u64(v, "epoch", path)?,
        kind,
    })
}

/// Parses a checkpoint document, validating magic, version and
/// checksum before any field is interpreted.
///
/// # Errors
///
/// A description of the first structural problem: bad magic, an
/// unsupported version, a checksum mismatch (the torn-write signal), or
/// a missing/mistyped field with its path.
pub fn parse(text: &str) -> Result<Checkpoint, String> {
    let doc = Json::parse(text)?;
    let magic = req_str(&doc, "magic", "$")?;
    if magic != MAGIC {
        return Err(format!("not a checkpoint: magic {magic:?}"));
    }
    let version = req_u64(&doc, "version", "$")?;
    if version != VERSION {
        return Err(format!(
            "checkpoint version {version} is not the supported version {VERSION}"
        ));
    }
    let want = req_str(&doc, "checksum", "$")?;
    let payload = req(&doc, "payload", "$")?;
    let got = format!("{:016x}", fnv1a64(render(payload).as_bytes()));
    if got != want {
        return Err(format!(
            "checksum mismatch: payload hashes to {got}, header says {want}"
        ));
    }
    let p = payload;
    let pp = "$.payload";
    let alive = req_arr(p, "alive", pp)?
        .iter()
        .enumerate()
        .map(|(i, a)| {
            a.as_bool()
                .ok_or_else(|| format!("{pp}: alive[{i}] is not a boolean"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shards = req_arr(p, "shards", pp)?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if s.is_null() {
                Ok(None)
            } else {
                parse_shard(s, &format!("{pp}.shards[{i}]")).map(Some)
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let incidents = req_arr(p, "incidents", pp)?
        .iter()
        .enumerate()
        .map(|(i, v)| parse_incident(v, &format!("{pp}.incidents[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let context_log = req_arr(p, "context_log", pp)?
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let ep = format!("{pp}.context_log[{i}]");
            Ok(ContextEntry {
                signals: parse_signals(req(e, "signals", &ep)?, &format!("{ep}.signals"))?,
                kinds_min: req_i64(e, "kinds_min", &ep)?,
                kinds_counts: req_u64_arr(e, "kinds_counts", &ep)?,
                len_n: req_u64(e, "len_n", &ep)?,
                len_xsum: req_i64(e, "len_xsum", &ep)?,
                len_xsumsq: req_i64(e, "len_xsumsq", &ep)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let overrides = req_arr(p, "overrides", pp)?
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let op = format!("{pp}.overrides[{i}]");
            let w = req(o, "weight", &op)?;
            let weight = if w.is_null() {
                None
            } else {
                Some(
                    w.as_i64()
                        .ok_or_else(|| format!("{op}: \"weight\" is neither null nor an integer"))?,
                )
            };
            Ok(OverrideEntry {
                after_observes: req_u64(o, "after_observes", &op)?,
                engine: req_str(o, "engine", &op)?,
                weight,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let provenance = req_arr(p, "provenance", pp)?
        .iter()
        .enumerate()
        .map(|(i, r)| parse_record(r, &format!("{pp}.provenance[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Checkpoint {
        next_ordinal: req_usize(p, "next_ordinal", pp)?,
        checkpoint_ordinal: req_u64(p, "checkpoint_ordinal", pp)?,
        cfg_shards: req_usize(p, "cfg_shards", pp)?,
        cfg_batch: req_usize(p, "cfg_batch", pp)?,
        cfg_interval_ns: req_u64(p, "cfg_interval_ns", pp)?,
        schedule_packets: req_u64(p, "schedule_packets", pp)?,
        faults_spec: req_str(p, "faults_spec", pp)?,
        fault_seed: req_u64(p, "fault_seed", pp)?,
        packets: req_u64(p, "packets", pp)?,
        epochs: req_u64(p, "epochs", pp)?,
        packets_rerouted: req_u64(p, "packets_rerouted", pp)?,
        reports_dropped: req_u64(p, "reports_dropped", pp)?,
        carried_syns: req_i64(p, "carried_syns", pp)?,
        carried_packets: req_i64(p, "carried_packets", pp)?,
        carried_len_sum: req_i64(p, "carried_len_sum", pp)?,
        carried_epochs: req_i64(p, "carried_epochs", pp)?,
        carried_from: req_u64_arr(p, "carried_from", pp)?,
        alive,
        shards,
        incidents,
        context_log,
        overrides,
        provenance,
        generation: req_u64(p, "generation", pp)?,
        swaps_committed: req_u64(p, "swaps_committed", pp)?,
    })
}

// ---- disk -----------------------------------------------------------

/// File name of checkpoint `ordinal`.
#[must_use]
pub fn file_name(ordinal: u64) -> String {
    format!("ckpt-{ordinal:06}.json")
}

/// Scans `dir` for checkpoints and returns the newest (highest
/// ordinal) one that validates, plus a note for every newer file that
/// was rejected (the fallback trail).
///
/// # Errors
///
/// When the directory is unreadable or no checkpoint in it validates.
pub fn load_latest(dir: &Path) -> Result<(Checkpoint, Vec<String>), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read checkpoint dir {}: {e}", dir.display()))?;
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(ord) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        candidates.push((ord, entry.path()));
    }
    if candidates.is_empty() {
        return Err(format!("no checkpoints in {}", dir.display()));
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    let mut rejected = Vec::new();
    for (_, path) in &candidates {
        let attempt = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text));
        match attempt {
            Ok(c) => return Ok((c, rejected)),
            Err(e) => rejected.push(format!("{}: {e}", path.display())),
        }
    }
    Err(format!(
        "no valid checkpoint in {}:\n  {}",
        dir.display(),
        rejected.join("\n  ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplayConfig;

    fn sample_state() -> ShardState {
        let cfg = ReplayConfig::default();
        let mut s = ShardState::new(&cfg);
        // A real frame would do; raw bytes exercise the KIND_OTHER path
        // while still moving every tracker.
        for i in 0..200u64 {
            let frame = vec![(i % 251) as u8; 60 + (i as usize % 40)];
            s.ingest(&frame);
        }
        s
    }

    fn sample_checkpoint() -> Checkpoint {
        let s = sample_state();
        Checkpoint {
            next_ordinal: 7,
            checkpoint_ordinal: 3,
            cfg_shards: 2,
            cfg_batch: 256,
            cfg_interval_ns: 10_000_000,
            schedule_packets: 400,
            faults_spec: String::from("ctrl_loss=0.30"),
            fault_seed: 9,
            packets: 400,
            epochs: 7,
            packets_rerouted: 12,
            reports_dropped: 1,
            carried_syns: 5,
            carried_packets: 40,
            carried_len_sum: 2_400,
            carried_epochs: 1,
            carried_from: vec![6],
            alive: vec![true, false],
            shards: vec![Some(s), None],
            incidents: vec![ShardIncident {
                shard: 1,
                epoch: 4,
                kind: IncidentKind::Panicked(String::from("injected fault")),
            }],
            context_log: vec![ContextEntry {
                signals: SignalValues {
                    at: 10_000_000,
                    epoch: 0,
                    interval_ns: 10_000_000,
                    spanned: 1,
                    packets: 200,
                    syns: 10,
                    len_sum: 12_000,
                    distinct_sources: 40,
                    median_len: 60,
                },
                kinds_min: 0,
                kinds_counts: vec![100, 50, 30, 10, 10],
                len_n: 200,
                len_xsum: 12_000,
                len_xsumsq: 800_000,
            }],
            overrides: vec![OverrideEntry {
                after_observes: 1,
                engine: String::from("cusum"),
                weight: Some(0),
            }],
            provenance: Vec::new(),
            generation: 2,
            swaps_committed: 2,
        }
    }

    #[test]
    fn shard_json_round_trips_exactly() {
        let s = sample_state();
        let restored = parse_shard(&shard_json(&s), "$").expect("captured state restores");
        assert_eq!(restored, s);
    }

    #[test]
    fn shard_geometry_errors_name_the_shard() {
        let mut doc = shard_json(&sample_state());
        let Json::Obj(members) = &mut doc else { unreachable!() };
        // One row past the sketch's salt table, with a cell array that
        // fits it: `CountMinSketch::from_raw` would panic on this.
        let rows = ROW_SALTS.len() + 1;
        for (k, v) in members.iter_mut() {
            match k.as_str() {
                "sk_rows" => *v = jus(rows),
                "sk_cells" => *v = u64_arr(&vec![0; rows << 12]),
                _ => {}
            }
        }
        let err = parse_shard(&doc, "$.payload.shards[1]").unwrap_err();
        assert!(err.starts_with("$.payload.shards[1]: sketch geometry"), "{err}");
    }

    #[test]
    fn checkpoint_serialization_round_trips_byte_identically() {
        let c = sample_checkpoint();
        let text = serialize(&c);
        let parsed = parse(&text).expect("own rendering parses");
        assert_eq!(parsed, c);
        assert_eq!(serialize(&parsed), text, "re-render is byte-identical");
    }

    fn sample_record(id: u64, signals: SignalValues) -> AlertProvenanceRecord {
        use crate::provenance::EpochLineage;
        use anomaly::{AlertProvenance, TriggerCause};
        AlertProvenanceRecord {
            id,
            provenance: AlertProvenance {
                at: signals.at,
                epoch: signals.epoch,
                signals,
                combined_q16: 70_000,
                engines: Vec::new(),
                cause: TriggerCause::EnginesFired(vec![String::from("cusum")]),
            },
            lineage: EpochLineage {
                epoch: signals.epoch,
                delivered_shards: vec![0],
                carried_epochs: Vec::new(),
                spanned: 1,
                rerouted_frames: 0,
                quarantined: Vec::new(),
            },
            drilldown: Vec::new(),
        }
    }

    #[test]
    fn persistent_writer_matches_a_fresh_serialize_as_the_logs_grow() {
        let mut c = sample_checkpoint();
        let entry = c.context_log[0].clone();
        c.context_log.clear();
        let mut writer = Writer::default();
        let mut step = |c: &Checkpoint, what: &str| {
            assert!(
                writer.serialize(c) == serialize(c),
                "writer diverged after {what}"
            );
        };
        step(&c, "empty logs");
        c.context_log.push(entry.clone());
        c.provenance.push(sample_record(0, entry.signals));
        step(&c, "one entry each");
        for i in 1..4 {
            let mut e = entry.clone();
            e.signals.epoch = i;
            e.len_n += i;
            c.context_log.push(e.clone());
            c.provenance.push(sample_record(i, e.signals));
        }
        c.epochs += 3;
        step(&c, "several entries");
        c.checkpoint_ordinal += 1;
        step(&c, "a write with nothing appended");
        step(&c, "a second write with nothing appended");
        c.context_log.push(entry);
        step(&c, "one log growing alone");
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let text = serialize(&sample_checkpoint());
        // Damage one payload byte without touching the header.
        let broken = text.replace("\"packets\":400", "\"packets\":401");
        assert_ne!(text, broken, "replacement must hit");
        let err = parse(&broken).expect_err("corrupted payload must fail");
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncated_document_is_rejected() {
        let text = serialize(&sample_checkpoint());
        assert!(parse(&text[..text.len() / 2]).is_err());
        assert!(parse("{}").unwrap_err().contains("magic"));
        assert!(parse("{\"magic\":\"other\"}").unwrap_err().contains("not a checkpoint"));
    }

    #[test]
    fn newer_versions_are_refused() {
        let text = serialize(&sample_checkpoint());
        let bumped = text.replace("\"version\":2", "\"version\":999");
        assert_ne!(text, bumped, "replacement must hit");
        let err = parse(&bumped).unwrap_err();
        assert!(err.contains("version 999") && err.contains("version 2"), "{err}");
    }

    #[test]
    fn older_versions_are_refused() {
        let text = serialize(&sample_checkpoint());
        for old in [0, 1] {
            let aged = text.replace("\"version\":2", &format!("\"version\":{old}"));
            assert_ne!(text, aged, "replacement must hit");
            let err = parse(&aged).unwrap_err();
            assert!(
                err.contains(&format!("version {old}")) && err.contains("version 2"),
                "{err}"
            );
        }
    }

    #[test]
    fn loader_falls_back_past_a_corrupt_newest_checkpoint() {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let good = sample_checkpoint();
        let mut newer = good.clone();
        newer.checkpoint_ordinal = 4;
        newer.next_ordinal = 9;
        let faults = FaultSchedule::none();
        let mut writer = Writer::default();
        writer.write(&dir, &good, &faults).unwrap();
        writer.write(&dir, &newer, &faults).unwrap();
        // Damage the newest file in place.
        let p = dir.join(file_name(4));
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, &text[..text.len() / 3]).unwrap();
        let (loaded, rejected) = load_latest(&dir).expect("fallback must succeed");
        assert_eq!(loaded, good);
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].contains("ckpt-000004"), "{rejected:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_is_caught_by_the_checksum() {
        let dir = std::env::temp_dir().join(format!("stat4-ckpt-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = sample_checkpoint();
        let faults = FaultSchedule::parse("ckpt_corrupt=3", 5).unwrap();
        let path = Writer::default().write(&dir, &c, &faults).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(parse(&text).is_err(), "corrupted write must not validate");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
