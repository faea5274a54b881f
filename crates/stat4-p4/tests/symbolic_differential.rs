//! Differential property: guided symbolic execution agrees with the
//! concrete interpreter on random packets, over **every** built-in
//! program.
//!
//! This is the soundness anchor for the whole symbolic suite
//! (`S4L013`–`S4L016`): the equivalence, merge-soundness and rebind
//! checks all reason about program behaviour through the symbolic
//! executor, so the executor itself must be bit-faithful to the
//! interpreter — same outcome, same final PHV, same register state,
//! same digests, same recirculation count, same applied-table trace.

use p4sim::phv::{fields, FieldId};
use p4sim::{
    check_agreement, check_merge_soundness, Pipeline, PipelineState, RegMerge, SymbolicOptions,
    Witness,
};
use packet::builder::PacketBuilder;
use proptest::prelude::*;
use stat4_p4::binding::bind_prefix;
use stat4_p4::lint::builtin_pipelines;
use stat4_p4::{CaseStudyApp, CaseStudyParams};
use std::net::Ipv4Addr;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random packet plus random initial register state. Field values
/// mix boundary cases (0, 1), small values, addresses inside the
/// case study's monitored 10.0.0.0/8 (so LPM-guarded paths are
/// exercised, not just table misses), and full-range 64-bit values.
fn random_witness(p: &Pipeline, seed: u64) -> Witness {
    let mut s = seed;
    let mut fvals = Vec::new();
    for i in 0..u16::try_from(fields::FIELD_COUNT).unwrap() {
        let r = splitmix(&mut s);
        let v = match r % 5 {
            0 => 0,
            1 => 1,
            2 => (r >> 8) & 0xFF,
            3 => 0x0a00_0000 | ((r >> 8) & 0xFFFF),
            _ => splitmix(&mut s),
        };
        fvals.push((FieldId(i), v));
    }
    let registers = p
        .registers()
        .iter()
        .map(|reg| {
            let mask = if reg.width_bits >= 64 {
                u64::MAX
            } else {
                (1u64 << reg.width_bits) - 1
            };
            let cells = (0..reg.cells.len()).map(|_| splitmix(&mut s) & mask).collect();
            (reg.name.clone(), cells)
        })
        .collect();
    Witness {
        fields: fvals,
        registers,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn symbolic_agrees_with_concrete_on_every_builtin(seed in any::<u64>()) {
        for (name, p) in builtin_pipelines() {
            for k in 0..4u64 {
                let w = random_witness(&p, seed ^ k.wrapping_mul(0x0123_4567_89AB_CDEF));
                if let Err(e) = check_agreement(&p, &w) {
                    prop_assert!(false, "{name} (packet {k}): {e}");
                }
            }
        }
    }
}

/// The all-zero packet on fresh state — the single most common real
/// input — agrees exactly, as a plain (non-property) regression.
#[test]
fn symbolic_agrees_on_zero_packet() {
    for (name, p) in builtin_pipelines() {
        let w = Witness {
            fields: Vec::new(),
            registers: Vec::new(),
        };
        check_agreement(&p, &w).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

type Trace = Vec<(u64, Vec<u8>)>;

/// Runs `trace` through `p` and returns the final register state.
fn run(mut p: Pipeline, trace: &[(u64, Vec<u8>)]) -> PipelineState {
    for (t, f) in trace {
        p.process_frame(f, 0, *t).expect("frame processes");
    }
    p.export_state()
}

/// The echo workload's values, each added to `offset`, on frames from
/// 16 sources. `EchoWorkload` sends every frame on one flow, which
/// `shard_of` would route whole to one pipe; spreading the sources
/// gives both pipes traffic.
fn echo_trace(offset: i64) -> Trace {
    let (schedule, values) = workloads::EchoWorkload {
        packets: 2_000,
        ..workloads::EchoWorkload::default()
    }
    .generate();
    let dst = Ipv4Addr::new(10, 0, 0, 1);
    schedule
        .iter()
        .zip(&values)
        .enumerate()
        .map(|(i, ((t, _), v))| {
            let src = Ipv4Addr::new(192, 0, 2, (i % 16) as u8 + 1);
            let payload = ((v + offset) as u64).to_be_bytes();
            (*t, PacketBuilder::ipv4(src, dst, 0xfd).payload(&payload).build())
        })
        .collect()
}

/// Zipf-popular traffic over 64 /24s inside 10.0.0.0/16.
fn zipf_trace() -> Trace {
    let (schedule, _) = workloads::ZipfPrefixWorkload {
        packets: 4_000,
        ..workloads::ZipfPrefixWorkload::default()
    }
    .generate();
    schedule.into_iter().map(|(t, f)| (t, f.to_vec())).collect()
}

/// The concrete side of `S4L015`. On every built-in program the check
/// reports clean with at least one checked register, a workload trace
/// split across two pipes by flow hash, then folded register by
/// register with the declared [`RegMerge::combine`], equals one pipe
/// that saw the whole trace. `RegMerge::None` registers are exempt, as
/// in the check.
#[test]
fn merge_sound_registers_fold_to_one_pipe() {
    let opts = SymbolicOptions {
        path_budget: 512,
        samples: 24,
        merge_origins: 4,
        merge_witnesses: 12,
        ..SymbolicOptions::default()
    };
    let mut covered = Vec::new();
    for (name, p) in builtin_pipelines() {
        let report = check_merge_soundness(&p, &opts);
        if !report.passes(true) || report.checked == 0 {
            continue;
        }
        let (p, trace) = match name.split(' ').next() {
            Some("echo") => (p, echo_trace(0)),
            Some("median") => (p, echo_trace(255)),
            Some("sketch") => (p, zipf_trace()),
            Some("casestudy") => {
                // The built-in ships with an empty drill-down table; bind
                // the Zipf trace's /16 so the summed registers are written.
                let mut app = CaseStudyApp::build(CaseStudyParams::default()).expect("builds");
                let bind = bind_prefix(&app, Ipv4Addr::new(10, 0, 0, 0), 16, 0, 0);
                assert!(app.pipeline.runtime(&bind).is_ok(), "binding installs");
                (app.pipeline, zipf_trace())
            }
            _ => panic!("{name}: no split trace for this merge-checked program"),
        };
        let mut halves: [Trace; 2] = [Vec::new(), Vec::new()];
        for (t, f) in &trace {
            halves[workloads::shard_of(f, 2)].push((*t, f.clone()));
        }
        assert!(halves.iter().all(|h| !h.is_empty()), "{name}: both pipes get traffic");
        let whole = run(p.clone(), &trace);
        let [a, b] = halves.map(|h| run(p.clone(), &h));
        let mut folded_regs = 0;
        for (i, reg) in p.registers().iter().enumerate() {
            if reg.merge == RegMerge::None {
                continue;
            }
            let mask = if reg.width_bits >= 64 { u64::MAX } else { (1u64 << reg.width_bits) - 1 };
            let folded: Vec<u64> = a.registers[i]
                .1
                .iter()
                .zip(&b.registers[i].1)
                .map(|(x, y)| reg.merge.combine(*x, *y, mask))
                .collect();
            assert_eq!(folded, whole.registers[i].1, "{name}: register `{}`", reg.name);
            assert!(folded.iter().any(|&c| c != 0), "{name}: register `{}` was written", reg.name);
            folded_regs += 1;
        }
        assert_eq!(folded_regs, report.checked, "{name}");
        covered.push(name);
    }
    for want in [
        "echo (bmv2, exact-mul)",
        "echo (tofino-like, shift-add)",
        "casestudy (bmv2)",
        "median (bmv2)",
        "median (bmv2, recirculating)",
        "sketch (tofino-like)",
    ] {
        assert!(covered.contains(&want), "{want} is merge-checked and covered: {covered:?}");
    }
}
