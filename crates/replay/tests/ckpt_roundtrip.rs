//! Properties of the checkpoints a real run writes:
//!
//! - across shard counts, chaos seeds and kill points, each parses back
//!   and re-renders byte-identically. The serialized form IS the
//!   canonical form; any drift between writer and parser shows up here
//!   as a one-byte diff;
//! - a payload mutated past the checksum (a key dropped, a value
//!   retyped, an array resized, a live shard's state nulled) and then
//!   resealed is refused with an error by parse or resume, never a
//!   panic;
//! - the checkpoints of a run killed and resumed are byte-identical to
//!   the uninterrupted run's, including those written after the resume
//!   and those that hold alert provenance.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use faultinject::FaultSchedule;
use replay::ckpt;
use replay::{resume_from_checkpoint, run_replay_lifecycle, LifecyclePlan, ReplayConfig};
use telemetry::json::render;
use telemetry::Json;
use workloads::{Schedule, SynFloodWorkload};

fn tiny_flood(seed: u64) -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 400,
        flood_pps: 10_000,
        flood_start: 100_000_000,
        duration: 250_000_000,
        seed,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn written_checkpoints_reparse_byte_identically(
        shards in 1usize..=4,
        chaos_seed in 0u64..1000,
        workload_seed in 0u64..4,
        kill_at in 3u64..8,
    ) {
        let s = tiny_flood(workload_seed);
        let cfg = ReplayConfig { shards, ..ReplayConfig::default() };
        let spec = "shard_crash=1@3,ctrl_loss=0.25";
        let faults = FaultSchedule::parse(spec, chaos_seed).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "replay-ckpt-prop-{}-{shards}-{chaos_seed}-{workload_seed}-{kill_at}",
            std::process::id(),
        ));
        std::fs::remove_dir_all(&dir).ok();

        let plan = LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            kill_at_epoch: Some(kill_at),
            faults_spec: String::from(spec),
            ..LifecyclePlan::none()
        };
        let (_, report) = run_replay_lifecycle(&s, &cfg, &faults, &plan);
        prop_assert!(report.checkpoints_written >= 1, "no checkpoint written before the kill");

        let mut files = 0usize;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let parsed = ckpt::parse(&text)
                .unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"));
            prop_assert_eq!(
                &ckpt::serialize(&parsed),
                &text,
                "{:?}: parse → serialize is not the identity",
                path
            );
            files += 1;
        }
        prop_assert_eq!(files as u64, report.checkpoints_written);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every checkpoint in `dir`, as `(file name, text)` in name order.
fn checkpoint_files(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn resumed_runs_write_the_uninterrupted_runs_checkpoints() {
    const SPEC: &str = "shard_crash=1@3,ctrl_loss=0.30";
    let s = tiny_flood(0);
    let faults = FaultSchedule::parse(SPEC, 42).unwrap();
    for shards in [1, 2, 4] {
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        let dir = |run: &str| {
            let d = std::env::temp_dir()
                .join(format!("replay-ckpt-{run}-{}-{shards}", std::process::id()));
            std::fs::remove_dir_all(&d).ok();
            d
        };
        let plan = |dir: &Path, kill_at_epoch| LifecyclePlan {
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_every: 2,
            kill_at_epoch,
            faults_spec: String::from(SPEC),
            ..LifecyclePlan::none()
        };

        let full_dir = dir("full");
        let (_, report) = run_replay_lifecycle(&s, &cfg, &faults, &plan(&full_dir, None));
        let full = checkpoint_files(&full_dir);
        assert_eq!(
            full.len() as u64,
            report.checkpoints_written,
            "{shards} shard(s)"
        );
        let with_provenance = full
            .iter()
            .filter(|(_, text)| {
                let doc = Json::parse(text).unwrap();
                !doc.get("payload")
                    .unwrap()
                    .get("provenance")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .is_empty()
            })
            .count();
        assert!(
            with_provenance >= 2,
            "{shards} shard(s): only {with_provenance} of {} checkpoints hold provenance",
            full.len()
        );
        for (name, text) in &full {
            let parsed = ckpt::parse(text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            assert!(
                ckpt::serialize(&parsed) == *text,
                "{shards} shard(s): {name} does not re-render"
            );
        }

        let resumed_dir = dir("resumed");
        let (_, killed) = run_replay_lifecycle(&s, &cfg, &faults, &plan(&resumed_dir, Some(5)));
        assert_eq!(killed.checkpoints_written, 2, "{shards} shard(s)");
        resume_from_checkpoint(&s, &cfg, &plan(&resumed_dir, None)).expect("resume");
        let resumed = checkpoint_files(&resumed_dir);
        assert_eq!(
            resumed.iter().map(|f| &f.0).collect::<Vec<_>>(),
            full.iter().map(|f| &f.0).collect::<Vec<_>>(),
            "{shards} shard(s): checkpoint file sets differ"
        );
        for ((name, got), (_, want)) in resumed.iter().zip(&full) {
            assert!(
                got == want,
                "{shards} shard(s): {name} differs after the resume"
            );
        }
        std::fs::remove_dir_all(&full_dir).ok();
        std::fs::remove_dir_all(&resumed_dir).ok();
    }
}

const SHARDS: usize = 2;

fn resume_plan(dir: &Path) -> LifecyclePlan {
    LifecyclePlan {
        checkpoint_dir: Some(dir.to_path_buf()),
        ..LifecyclePlan::none()
    }
}

/// The newest checkpoint of a 2-shard run killed at epoch 5, as
/// `(file name, text)`, written once per test binary.
fn real_checkpoint() -> &'static (String, String) {
    static CKPT: OnceLock<(String, String)> = OnceLock::new();
    CKPT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("replay-ckpt-src-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let plan = LifecyclePlan {
            checkpoint_every: 2,
            kill_at_epoch: Some(5),
            ..resume_plan(&dir)
        };
        let cfg = ReplayConfig { shards: SHARDS, ..ReplayConfig::default() };
        let (_, report) = run_replay_lifecycle(&tiny_flood(0), &cfg, &FaultSchedule::none(), &plan);
        assert!(report.checkpoints_written >= 1, "the run wrote a checkpoint");
        let mut files: Vec<PathBuf> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        files.sort();
        let newest = files.pop().unwrap();
        let name = newest.file_name().unwrap().to_str().unwrap().to_string();
        let text = std::fs::read_to_string(&newest).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (name, text)
    })
}

fn member<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(members) = v else { panic!("not an object") };
    &mut members.iter_mut().find(|(k, _)| k == key).expect("key present").1
}

fn items(v: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(items) = v else { panic!("not an array") };
    items
}

fn keys(v: &Json) -> Vec<String> {
    v.as_obj().expect("object").iter().map(|(k, _)| k.clone()).collect()
}

fn drop_key(v: &mut Json, key: &str) {
    let Json::Obj(members) = v else { panic!("not an object") };
    members.retain(|(k, _)| k != key);
}

fn retype(v: &mut Json) {
    *v = if matches!(v, Json::Str(_)) { Json::Int(7) } else { Json::Str("mutated".into()) };
}

/// One way to break a payload while keeping it well-formed JSON.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    DropKey,
    Retype,
    DropShardKey,
    RetypeShardKey,
    Resize,
    NullLiveShard,
}

const MUTATIONS: [Mutation; 6] = [
    Mutation::DropKey,
    Mutation::Retype,
    Mutation::DropShardKey,
    Mutation::RetypeShardKey,
    Mutation::Resize,
    Mutation::NullLiveShard,
];

/// Applies `m` to `payload`, steered by `pick`. Returns the location
/// the refusal must name, where the check owns one.
fn mutate(payload: &mut Json, m: Mutation, pick: usize) -> Option<String> {
    let top = keys(payload);
    let s = pick % SHARDS;
    match m {
        Mutation::DropKey => {
            drop_key(payload, &top[pick % top.len()]);
            Some("$.payload".into())
        }
        Mutation::Retype => {
            retype(member(payload, &top[pick % top.len()]));
            Some("$.payload".into())
        }
        Mutation::DropShardKey | Mutation::RetypeShardKey => {
            let shard = &mut items(member(payload, "shards"))[s];
            let k = keys(shard);
            let key = &k[pick % k.len()];
            if matches!(m, Mutation::DropShardKey) {
                drop_key(shard, key);
            } else {
                retype(member(shard, key));
            }
            Some(format!("$.payload.shards[{s}]"))
        }
        Mutation::Resize => {
            // The liveness and shard lists are checked against each
            // other and the run's topology at resume; a tracker array
            // fails its shard's geometry check in the parser.
            let (arr, must_name) = match pick % 5 {
                0 => (member(payload, "alive"), None),
                1 => (member(payload, "shards"), None),
                k => (
                    member(
                        &mut items(member(payload, "shards"))[s],
                        ["sk_cells", "hll_registers", "pc_counts"][k - 2],
                    ),
                    Some(format!("$.payload.shards[{s}]")),
                ),
            };
            let arr = items(arr);
            if (pick / 5).is_multiple_of(2) {
                arr.pop();
            } else {
                arr.push(arr[0].clone());
            }
            must_name
        }
        Mutation::NullLiveShard => {
            items(member(payload, "alive"))[s] = Json::Bool(true);
            items(member(payload, "shards"))[s] = Json::Null;
            Some(format!("$.payload.shards[{s}]"))
        }
    }
}

/// Re-renders `doc` with its checksum recomputed over the payload, so
/// the mutation gets past the torn-write check.
fn reseal(doc: &mut Json) -> String {
    let sum = ckpt::fnv1a64(render(member(doc, "payload")).as_bytes());
    *member(doc, "checksum") = Json::Str(format!("{sum:016x}"));
    render(doc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resealed_malformed_checkpoints_are_refused(pick in any::<usize>()) {
        let (name, text) = real_checkpoint();
        let schedule = tiny_flood(0);
        let cfg = ReplayConfig { shards: SHARDS, ..ReplayConfig::default() };
        let dir = std::env::temp_dir().join(format!(
            "replay-ckpt-bad-{}-{pick}",
            std::process::id()
        ));
        for m in MUTATIONS {
            let mut doc = Json::parse(text).unwrap();
            let must_name = mutate(member(&mut doc, "payload"), m, pick);
            let sealed = reseal(&mut doc);
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(name), &sealed).unwrap();
            let result = resume_from_checkpoint(&schedule, &cfg, &resume_plan(&dir));
            std::fs::remove_dir_all(&dir).ok();
            let Err(e) = result else {
                return Err(TestCaseError::fail(format!("{m:?} (pick {pick}) resumed")));
            };
            if let Some(path) = must_name {
                prop_assert!(e.contains(&path), "{:?}: error does not name {}: {}", m, path, e);
            }
        }
    }
}
