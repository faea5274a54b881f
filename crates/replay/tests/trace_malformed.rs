//! Malformed-input properties for the Chrome-trace reader,
//! [`telemetry::check_trace`] and [`telemetry::parse_trace`] (what
//! `stat4-trace check` runs on a `--trace-out` document).
//!
//! The document is the merged trace of a real chaos replay: a crash,
//! a worker panic and report loss over four epochs at 4 shards (about
//! 6 KB, so every cut and swap of it parses in a few seconds). Every
//! truncation, and a swap of each pair of adjacent bytes, must come
//! back without a panic; every error must name where it is, as an
//! event index or a byte offset.

use faultinject::FaultSchedule;
use replay::{run_replay_with_faults, ReplayConfig};
use telemetry::{check_trace, parse_trace};
use workloads::SynFloodWorkload;

/// The merged trace of a short chaos replay.
fn chaos_trace() -> String {
    let (schedule, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 5_000,
        flood_start: 10_000_000,
        duration: 40_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    let cfg = ReplayConfig {
        shards: 4,
        ..ReplayConfig::default()
    };
    let faults =
        FaultSchedule::parse("shard_crash=1@1,shard_panic=2@2,ctrl_loss=0.30", 42).unwrap();
    let out = run_replay_with_faults(&schedule, &cfg, &faults);
    assert_eq!(
        out.health.incidents.len(),
        2,
        "the crash and the panic both fire"
    );
    out.telemetry.merged_trace().to_chrome_json()
}

/// An error names an event index or a byte offset.
fn located(error: &str) -> bool {
    let number_after = |word: &str| {
        error.match_indices(word).any(|(i, w)| {
            error[i + w.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
    };
    number_after("event ") || number_after("byte ")
}

/// Runs the checker on `text` (its first stage is [`parse_trace`], so
/// both readers run): it must not panic, and every error must be
/// located. Returns whether it accepted the text.
fn read(text: &str, what: &str) -> bool {
    let Err(errors) = check_trace(text) else {
        return true;
    };
    assert!(!errors.is_empty(), "{what}: failed without an error");
    for e in &errors {
        assert!(located(e), "{what}: error {e:?} names no event or byte");
    }
    false
}

#[test]
fn the_chaos_trace_is_valid_and_spans_the_worker_threads() {
    let trace = chaos_trace();
    let summary = check_trace(&trace).expect("the unmutated trace validates");
    assert_eq!(parse_trace(&trace).unwrap().events.len(), summary.events);
    assert!(
        summary.threads >= 2,
        "coordinator and worker threads: {summary:?}"
    );
    assert!(summary.spans > 0);
}

#[test]
fn every_truncation_is_a_located_error() {
    let trace = chaos_trace();
    assert!(trace.is_ascii(), "byte-level cuts stay on char boundaries");
    for cut in 0..trace.len() {
        let accepted = read(&trace[..cut], &format!("cut at byte {cut}"));
        assert!(
            !accepted,
            "cut at byte {cut} of {} was accepted",
            trace.len()
        );
    }
}

#[test]
fn every_adjacent_byte_swap_is_read_without_a_panic() {
    let trace = chaos_trace();
    let mut bytes = trace.clone().into_bytes();
    let mut rejected = 0usize;
    for i in 0..bytes.len() - 1 {
        if bytes[i] == bytes[i + 1] {
            continue;
        }
        bytes.swap(i, i + 1);
        let text = std::str::from_utf8(&bytes).expect("an ASCII swap stays UTF-8");
        rejected += usize::from(!read(text, &format!("swap at byte {i}")));
        bytes.swap(i, i + 1);
    }
    assert!(rejected > 0, "some swap must break the document");
}

#[test]
fn document_level_errors_name_the_object_offset() {
    let errors = check_trace("  {\"traceEvents\":[]}").unwrap_err();
    assert_eq!(
        errors,
        vec![String::from("byte 2: document: missing dropped counter")]
    );
    let errors = check_trace("{\"traceEvnets\":[],\"dropped\":0}").unwrap_err();
    assert_eq!(
        errors,
        vec![String::from("byte 0: document: missing traceEvents")]
    );
}
