//! Malformed fault specs: valid specs mutated every way a hand-typed or
//! truncated `--faults` argument goes wrong — cut short at any byte,
//! one byte replaced by grammar punctuation, a number too wide for any
//! field spliced in, an entry repeated.
//!
//! Property: [`FaultSpec::parse`] and [`FaultSchedule::parse`] never
//! panic, and every error names, in backticks, an entry that occurs in
//! the input. The mutation space is small enough to enumerate, so every
//! position and every replacement byte is tried rather than sampled.

use faultinject::{FaultSchedule, FaultSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid specs covering every key of the grammar.
const VALID: [&str; 3] = [
    "shard_crash=1@3,ctrl_loss=0.30",
    "ctrl_loss=0.30, ctrl_dup=0.05, ctrl_delay_ns=250us, link_flap=@5ms..9ms, \
     shard_crash=1@3, shard_panic=0@2, shard_stall=2@4:1500000, \
     seu=syn_count:12:7@40000, table_miss=binding@100..200",
    "ckpt_corrupt=2,reconfig_storm=0.75,ctrl_delay=4ms,link_flap=@1s..2s",
];

const PUNCTUATION: [u8; 5] = *b"=@,.:";

const WIDE: &str = "1234567890123456789012345";

/// Every mutation of `spec`, each a complete input string.
fn mutations(spec: &str) -> Vec<String> {
    let bytes = spec.as_bytes();
    let mut out = Vec::new();
    for i in 0..=bytes.len() {
        out.push(spec[..i].to_string());
        out.push(format!("{}{WIDE}{}", &spec[..i], &spec[i..]));
    }
    for i in 0..bytes.len() {
        for &p in &PUNCTUATION {
            let mut b = bytes.to_vec();
            b[i] = p;
            out.push(String::from_utf8(b).expect("ASCII in, ASCII out"));
        }
    }
    let entries: Vec<&str> = spec.split(',').collect();
    for j in 0..entries.len() {
        let mut e = entries.clone();
        e.insert(j, entries[j]);
        out.push(e.join(","));
    }
    out
}

/// The entry an error message names: the text between its first pair
/// of backticks.
fn named_entry(msg: &str) -> Option<&str> {
    let rest = &msg[msg.find('`')? + 1..];
    Some(&rest[..rest.find('`')?])
}

fn check(input: &str) {
    let spec = catch_unwind(|| FaultSpec::parse(input))
        .unwrap_or_else(|_| panic!("FaultSpec::parse panicked on {input:?}"));
    let schedule = catch_unwind(AssertUnwindSafe(|| FaultSchedule::parse(input, 7)))
        .unwrap_or_else(|_| panic!("FaultSchedule::parse panicked on {input:?}"));
    assert_eq!(
        spec.is_ok(),
        schedule.is_ok(),
        "{input:?}: the two parsers disagree"
    );
    for err in [spec.err(), schedule.err()].into_iter().flatten() {
        let msg = err.to_string();
        let entry = named_entry(&msg)
            .unwrap_or_else(|| panic!("{input:?}: error names no entry in backticks: {msg}"));
        assert!(
            !entry.is_empty() && input.contains(entry),
            "{input:?}: error names `{entry}`, which is not in the input: {msg}"
        );
    }
}

#[test]
fn mutated_specs_never_panic_and_errors_name_an_input_entry() {
    let mut errors = 0;
    for spec in VALID {
        assert!(
            FaultSpec::parse(spec).is_ok(),
            "base spec {spec:?} must parse"
        );
        for input in mutations(spec) {
            check(&input);
            errors += usize::from(FaultSpec::parse(&input).is_err());
        }
    }
    // The corpus must actually reach the error paths.
    assert!(errors > 500, "only {errors} mutated specs were rejected");
}
