//! The four workloads: what each generates from a seed, and the
//! engine configuration it runs under. The program only ever sees the
//! generated schedule.

use anomaly::drilldown::{DrilldownController, DrilldownTopology};
use anomaly::synflood::SynFloodConfig;
use netsim::host::{SinkHost, TraceGen, TrafficSource};
use netsim::{NodeId, P4SwitchNode, Simulation, MICROS, MILLIS};
use replay::ReplayConfig;
use stat4_p4::{CaseStudyApp, CaseStudyParams};
use std::net::Ipv4Addr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use workloads::{Schedule, SpikeGroundTruth, SpikeWorkload, SynFloodWorkload};

/// Worker shards of the replay workloads: one per core of the 2-core
/// host the bounds were set on.
pub const SHARDS: usize = 2;

/// Pre-hash threads the replay engine spawns per run regardless of the
/// core count (`PARTITION_THREADS` in `crates/replay/src/pool.rs`, a
/// private constant, so it is restated here for the host record).
pub const ENGINE_PREHASH_THREADS: usize = 4;

/// One-way control-channel delay of the case study (the order of bmv2
/// digest handling plus P4Runtime updates, as in `repro_casestudy`).
pub const CTRL_DELAY_NS: u64 = 400 * MILLIS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FloodIngest,
    EpochChurn,
    CkptCadence,
    CasestudyDrilldown,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::FloodIngest,
        Self::EpochChurn,
        Self::CkptCadence,
        Self::CasestudyDrilldown,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FloodIngest => "flood_ingest",
            Self::EpochChurn => "epoch_churn",
            Self::CkptCadence => "ckpt_cadence",
            Self::CasestudyDrilldown => "casestudy_drilldown",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The replay-engine shape of this workload, `None` for the case
    /// study (which runs on netsim + p4sim instead).
    #[must_use]
    pub fn replay_spec(self) -> Option<ReplaySpec> {
        // epoch_churn and ckpt_cadence share one trace: 60 s at ~8k pps
        // in 5 ms epochs (~12k epochs of ~40 packets), flood onset late.
        let churn = ReplaySpec {
            interval_ns: 5 * MILLIS,
            background_cps: 1_333,
            flood_pps: 10_000,
            onset_base_ns: 57_000 * MILLIS,
            duration_ns: 60_000 * MILLIS,
            checkpoint_every: None,
        };
        match self {
            // ~120k pps background, 1M pps flood from a third of the
            // way in: ~1.42M packets in 180 epochs of 10 ms. Two thirds
            // of the epochs are flooded, so the epoch p50 sits inside
            // the flood mode rather than between the two modes.
            Self::FloodIngest => Some(ReplaySpec {
                interval_ns: 10 * MILLIS,
                background_cps: 20_000,
                flood_pps: 1_000_000,
                onset_base_ns: 600 * MILLIS,
                duration_ns: 1_800 * MILLIS,
                checkpoint_every: None,
            }),
            Self::EpochChurn => Some(churn),
            // Every 500 epochs: 24 checkpoints a run, about two thirds
            // of its wall time.
            Self::CkptCadence => Some(ReplaySpec {
                checkpoint_every: Some(500),
                ..churn
            }),
            Self::CasestudyDrilldown => None,
        }
    }
}

/// A replay workload's generator settings and engine shape.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Detector interval = epoch length.
    pub interval_ns: u64,
    /// Legitimate connections per second (~6 packets each).
    pub background_cps: u64,
    /// Flood SYNs per second after the onset.
    pub flood_pps: u64,
    /// Start of the epoch the flood begins in; the seed picks where in
    /// that epoch (see [`onset_phase`]).
    pub onset_base_ns: u64,
    pub duration_ns: u64,
    /// Checkpoint cadence in epochs (`ckpt_cadence` only).
    pub checkpoint_every: Option<u64>,
}

/// The replay engine's default configuration at `interval_ns` epochs.
#[must_use]
pub fn replay_config(interval_ns: u64, shards: usize) -> ReplayConfig {
    ReplayConfig {
        shards,
        detector: SynFloodConfig {
            interval_ns,
            ..SynFloodConfig::default()
        },
        ..ReplayConfig::default()
    }
}

impl ReplaySpec {
    #[must_use]
    pub fn config(&self, shards: usize) -> ReplayConfig {
        replay_config(self.interval_ns, shards)
    }

    /// Generates the schedule for `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> ReplayInput {
        let onset_ns = self.onset_base_ns + onset_phase(seed, self.interval_ns);
        let (schedule, victim) = SynFloodWorkload {
            background_cps: self.background_cps,
            flood_pps: self.flood_pps,
            flood_start: onset_ns,
            duration: self.duration_ns,
            seed,
            ..SynFloodWorkload::default()
        }
        .generate();
        ReplayInput {
            schedule,
            onset_ns,
            victim,
        }
    }
}

/// A generated replay schedule with its ground truth.
pub struct ReplayInput {
    pub schedule: Schedule,
    /// Ground-truth flood onset.
    pub onset_ns: u64,
    pub victim: Ipv4Addr,
}

/// Where in its epoch the seed places an onset: 10–40% of the way in,
/// so the onset epoch always carries enough of the anomaly to be
/// detectable and the onset is not pinned to an epoch boundary.
#[must_use]
pub fn onset_phase(seed: u64, interval_ns: u64) -> u64 {
    // splitmix64 finaliser: a well-mixed fraction from any seed.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let frac = 0.1 + 0.3 * (z >> 11) as f64 / (1u64 << 53) as f64;
    (frac * interval_ns as f64) as u64
}

/// The case study's data-plane parameters: the paper's ~8.4 ms
/// interval (2^23 ns) and a 100-interval window.
#[must_use]
pub fn case_params() -> CaseStudyParams {
    CaseStudyParams::default()
}

/// The case study's detection interval.
#[must_use]
pub fn case_interval_ns() -> u64 {
    1u64 << case_params().interval_log2
}

/// The case study's traffic: the default spike workload, except that
/// the onset is pinned to the first half of the interval starting at
/// 1.5 s (the seed picks where), so every seed leaves the drill-down
/// the same time to finish and the same spike share of the trace.
#[must_use]
pub fn case_workload(seed: u64) -> SpikeWorkload {
    let interval = case_interval_ns();
    let start = (1_500 * MILLIS).next_multiple_of(interval);
    SpikeWorkload {
        spike_start_range: (start, start + interval / 2),
        seed,
        ..SpikeWorkload::default()
    }
}

/// Generates the case-study schedule for `seed`.
#[must_use]
pub fn case_generate(seed: u64) -> (Schedule, SpikeGroundTruth) {
    case_workload(seed).generate()
}

/// The case-study network: traffic source → P4 switch running the
/// case-study app → sink, with the drill-down controller on a control
/// channel of [`CTRL_DELAY_NS`].
pub struct CaseSim {
    pub sim: Simulation,
    pub switch: NodeId,
    pub controller: NodeId,
}

/// Builds the app and the network around `schedule`.
///
/// # Panics
///
/// Panics if the case-study program fails validation (a bug in the
/// repository's app, not an input condition).
#[must_use]
pub fn case_build(schedule: Schedule) -> CaseSim {
    let app = CaseStudyApp::build(case_params()).expect("case-study app builds");
    let handles = app.handles();
    let mut sim = Simulation::new();
    let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
        schedule,
    )))));
    let sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
    let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline)));
    let topo = SpikeWorkload::default();
    let controller = sim.add_node(Box::new(DrilldownController::new(
        handles,
        switch,
        DrilldownTopology {
            net: topo.net,
            subnets: topo.subnets,
            hosts_per_subnet: topo.hosts_per_subnet,
        },
    )));
    sim.node_as_mut::<P4SwitchNode>(switch)
        .expect("switch node")
        .controller = Some(controller);
    sim.connect(source, 0, switch, 0, 20 * MICROS);
    sim.connect(switch, 1, sink, 0, 20 * MICROS);
    sim.connect_control(switch, controller, CTRL_DELAY_NS);
    CaseSim {
        sim,
        switch,
        controller,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn onset_phase_is_seeded_and_inside_the_window() {
        let i = 10_000_000;
        assert_eq!(onset_phase(7, i), onset_phase(7, i));
        let phases: Vec<u64> = (0..200).map(|s| onset_phase(s, i)).collect();
        assert!(phases.iter().all(|&p| (i / 10..=i * 4 / 10).contains(&p)));
        assert!(phases.windows(2).any(|w| w[0] != w[1]));
    }
}
