//! Malformed-input properties for replay's two other JSON readers,
//! [`parse_outcome_json`] (the `--snapshot-out` document) and
//! [`LifecycleReport::parse`] (the `--lifecycle-out` document).
//!
//! Both documents come from one real chaos CLI run with a swap demo and
//! checkpoints. Each case drops a key, retypes a value, or grows an
//! array by an element that does not fit its schema, anywhere in the
//! tree. The property: the reader returns `Err`, never panics, and the
//! error names a `$`-path. (Shrinking an array, or repeating one of its
//! elements, yields another well-formed document: every array in these
//! two formats is a variable-length list.)

use std::process::Command;
use std::sync::OnceLock;

use proptest::prelude::*;

use replay::{parse_outcome_json, LifecycleReport};
use telemetry::json::render;
use telemetry::Json;

/// `(snapshot, lifecycle report)` of one chaos run, produced once per
/// test binary by the `replay` CLI.
fn documents() -> &'static (String, String) {
    static DOCS: OnceLock<(String, String)> = OnceLock::new();
    DOCS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("replay-json-malformed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("run.json");
        let lifecycle = dir.join("lifecycle.json");
        let status = Command::new(env!("CARGO_BIN_EXE_replay"))
            .args(["synflood", "4", "--faults", "shard_crash=1@3,ctrl_loss=0.30", "--seed", "42"])
            .args(["--swap-demo", "3", "--checkpoint-every", "8", "--checkpoint-dir"])
            .arg(dir.join("ckpt"))
            .arg("--snapshot-out")
            .arg(&snapshot)
            .arg("--lifecycle-out")
            .arg(&lifecycle)
            .output()
            .expect("the replay CLI runs");
        assert!(status.status.success(), "replay CLI failed: {status:?}");
        let docs = (
            std::fs::read_to_string(&snapshot).unwrap(),
            std::fs::read_to_string(&lifecycle).unwrap(),
        );
        std::fs::remove_dir_all(&dir).ok();
        docs
    })
}

/// One step from a node to a child.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Idx(usize),
}

/// Every node below the root, in document order: its path, and
/// whether it is an array.
fn nodes(v: &Json, here: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, bool)>) {
    let children: Vec<(Step, &Json)> = match v {
        Json::Obj(members) => members.iter().map(|(k, c)| (Step::Key(k.clone()), c)).collect(),
        Json::Arr(items) => items.iter().enumerate().map(|(i, c)| (Step::Idx(i), c)).collect(),
        _ => return,
    };
    for (step, child) in children {
        here.push(step);
        out.push((here.clone(), matches!(child, Json::Arr(_))));
        nodes(child, here, out);
        here.pop();
    }
}

fn at<'a>(mut v: &'a mut Json, path: &[Step]) -> &'a mut Json {
    for step in path {
        v = match (v, step) {
            (Json::Obj(members), Step::Key(k)) => {
                &mut members.iter_mut().find(|(m, _)| m == k).expect("key present").1
            }
            (Json::Arr(items), Step::Idx(i)) => &mut items[*i],
            _ => panic!("path does not match the document"),
        };
    }
    v
}

/// A value of a different JSON type than `v`.
fn retyped(v: &Json) -> Json {
    if matches!(v, Json::Str(_)) {
        Json::Int(7)
    } else {
        Json::Str("mutated".into())
    }
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    DropKey,
    Retype,
    Grow,
}

/// Applies `m` to `doc`, steered by `pick`.
fn mutate(doc: &mut Json, m: Mutation, pick: usize) {
    let mut all = Vec::new();
    nodes(doc, &mut Vec::new(), &mut all);
    let candidates: Vec<Vec<Step>> = all
        .into_iter()
        .filter(|(p, is_arr)| match m {
            Mutation::DropKey => matches!(p.last(), Some(Step::Key(_))),
            Mutation::Retype => true,
            Mutation::Grow => *is_arr,
        })
        .map(|(p, _)| p)
        .collect();
    let path = &candidates[pick % candidates.len()];
    match m {
        Mutation::DropKey => {
            let (Some(Step::Key(key)), parent) = (path.last(), &path[..path.len() - 1]) else {
                unreachable!()
            };
            let Json::Obj(members) = at(doc, parent) else { unreachable!() };
            members.retain(|(k, _)| k != key);
        }
        Mutation::Retype => {
            let node = at(doc, path);
            *node = retyped(node);
        }
        Mutation::Grow => {
            let Json::Arr(items) = at(doc, path) else { unreachable!() };
            // An element of another type than the array's first; a
            // string in an empty array, which in these formats holds
            // objects or integers.
            let extra = items.first().map_or(Json::Str("mutated".into()), retyped);
            items.push(extra);
        }
    }
}

fn check(
    text: &str,
    parse: impl Fn(&str) -> Result<(), String>,
    pick: usize,
) -> Result<(), TestCaseError> {
    for m in [Mutation::DropKey, Mutation::Retype, Mutation::Grow] {
        let mut doc = Json::parse(text).unwrap();
        mutate(&mut doc, m, pick);
        match parse(&render(&doc)) {
            Ok(()) => return Err(TestCaseError::fail(format!("{m:?} (pick {pick}) parsed"))),
            Err(e) => prop_assert!(e.contains('$'), "{:?} (pick {}): no $-path in {}", m, pick, e),
        }
    }
    Ok(())
}

#[test]
fn chaos_run_documents_parse() {
    let (snapshot, lifecycle) = documents();
    parse_outcome_json(snapshot).expect("the snapshot parses");
    let report = LifecycleReport::parse(lifecycle).expect("the lifecycle report parses");
    assert!(
        report.events.len() >= 3,
        "the run yields swap and checkpoint events to mutate: {:?}",
        report.events
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn malformed_snapshots_are_refused_with_a_path(pick in any::<usize>()) {
        check(&documents().0, |t| parse_outcome_json(t).map(|_| ()), pick)?;
    }

    #[test]
    fn malformed_lifecycle_reports_are_refused_with_a_path(pick in any::<usize>()) {
        check(&documents().1, |t| LifecycleReport::parse(t).map(|_| ()), pick)?;
    }
}
