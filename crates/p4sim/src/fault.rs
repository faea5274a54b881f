//! Data-plane fault injection behind a trait object.
//!
//! Real switch ASICs see single-event upsets (a cosmic-ray bit flip in
//! SRAM register state) and transient table-lookup failures (a pipe
//! reset wiping TCAM entries until the controller reinstalls them).
//! The interpreter exposes both through [`FaultHook`]: an optional
//! hook the [`crate::Pipeline`] consults at two points —
//!
//! - **before each packet**, where the hook may corrupt register
//!   cells ([`FaultHook::before_packet`]), and
//! - **at each table application**, where the hook may force a miss
//!   regardless of installed entries ([`FaultHook::force_miss`]).
//!
//! With no hook installed (the default) the pipeline behaves exactly
//! as before — the hot path pays one `Option` check per packet.
//!
//! [`ScheduledFaults`] is the standard implementation: an explicit,
//! deterministic list of SEU flips and table-miss windows (typically
//! produced from a `faultinject::FaultSchedule`; this crate stays
//! dependency-free so the trait lives here and the schedule crate
//! depends on us, not the reverse).
//!
//! # Saturating recovery
//!
//! An SEU can set a bit *above* a register's declared width — the cell
//! is a raw `u64`, the corruption is physical. [`SeuRecovery::Saturate`]
//! models the paper-style defensive accumulator: after a flip, any
//! value exceeding the register's width mask is clamped to the mask
//! (saturation) instead of being left to wrap through subsequent
//! arithmetic. This is the recovery path the `S4L012` lint checks for:
//! it needs headroom bits above the declared width to detect the
//! excursion, so a 64-bit-wide register on a target reserving SEU
//! headroom leaves the recovery nothing to work with.

use crate::pipeline::Register;
use std::fmt::Debug;

/// Pipeline-level fault injection points. Implementations must be
/// deterministic functions of their construction-time inputs and the
/// packet index — the conformance suite replays runs and compares
/// outcomes bit for bit.
pub trait FaultHook: Send + Debug {
    /// Invoked before packet `pkt` (the pipeline's 0-based global
    /// packet counter) is processed; may mutate register state.
    fn before_packet(&mut self, pkt: u64, registers: &mut [Register]);

    /// Whether the lookup of `table` (by declared name) for packet
    /// `pkt` must miss regardless of installed entries. The table's
    /// default action still runs, exactly as for a genuine miss.
    fn force_miss(&self, pkt: u64, table: &str) -> bool;

    /// Clone into a box — keeps [`crate::Pipeline`] cloneable.
    fn clone_box(&self) -> Box<dyn FaultHook>;
}

impl Clone for Box<dyn FaultHook> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// What happens to a register cell after an SEU flip lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeuRecovery {
    /// Leave the corrupted value as-is (raw physical model).
    #[default]
    None,
    /// Clamp any value that exceeds the register's width mask down to
    /// the mask — the defensive saturating accumulator.
    Saturate,
}

/// One scheduled bit flip: before packet `at_packet`, flip `bit` of
/// `cells[cell]` in the register named `register`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeuEvent {
    /// Register name as declared in the program.
    pub register: String,
    /// Cell index; out-of-range events are ignored (counted as
    /// misses, not panics — corruption targeting absent SRAM).
    pub cell: usize,
    /// Bit position to flip (0 = LSB of the raw 64-bit cell).
    pub bit: u8,
    /// Packet index before which the flip is applied.
    pub at_packet: u64,
}

/// A forced-miss window on one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissWindow {
    /// Table name as declared in the program.
    pub table: String,
    /// First affected packet (inclusive).
    pub from_packet: u64,
    /// First unaffected packet (exclusive).
    pub to_packet: u64,
}

/// The standard deterministic [`FaultHook`]: explicit SEU flips plus
/// table-miss windows.
#[derive(Debug, Clone, Default)]
pub struct ScheduledFaults {
    seus: Vec<SeuEvent>,
    windows: Vec<MissWindow>,
    recovery: SeuRecovery,
    flips_applied: u64,
    recoveries: u64,
}

impl ScheduledFaults {
    /// Builds a hook from flip events and miss windows.
    #[must_use]
    pub fn new(seus: Vec<SeuEvent>, windows: Vec<MissWindow>, recovery: SeuRecovery) -> Self {
        Self {
            seus,
            windows,
            recovery,
            flips_applied: 0,
            recoveries: 0,
        }
    }

    /// True when the hook will never do anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seus.is_empty() && self.windows.is_empty()
    }

    /// Flips actually applied so far (events naming unknown registers
    /// or out-of-range cells are skipped and not counted).
    #[must_use]
    pub fn flips_applied(&self) -> u64 {
        self.flips_applied
    }

    /// Flips whose corrupted value was clamped by
    /// [`SeuRecovery::Saturate`].
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

impl FaultHook for ScheduledFaults {
    fn before_packet(&mut self, pkt: u64, registers: &mut [Register]) {
        let mut flips = 0;
        let mut recovered = 0;
        for e in &self.seus {
            if e.at_packet != pkt {
                continue;
            }
            let Some(reg) = registers.iter_mut().find(|r| r.name == e.register) else {
                continue;
            };
            let mask = reg.mask();
            let Some(slot) = reg.cells.get_mut(e.cell) else {
                continue;
            };
            *slot ^= 1u64 << e.bit;
            flips += 1;
            if self.recovery == SeuRecovery::Saturate && *slot > mask {
                *slot = mask;
                recovered += 1;
            }
        }
        self.flips_applied += flips;
        self.recoveries += recovered;
    }

    fn force_miss(&self, pkt: u64, table: &str) -> bool {
        self.windows
            .iter()
            .any(|w| w.table == table && (w.from_packet..w.to_packet).contains(&pkt))
    }

    fn clone_box(&self) -> Box<dyn FaultHook> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(name: &str, width: u32, cells: usize) -> Register {
        Register {
            name: name.into(),
            width_bits: width,
            cells: vec![0; cells],
            merge: crate::pipeline::RegMerge::Sum,
        }
    }

    #[test]
    fn flip_lands_at_its_packet_only() {
        let mut h = ScheduledFaults::new(
            vec![SeuEvent { register: "r".into(), cell: 1, bit: 3, at_packet: 5 }],
            vec![],
            SeuRecovery::None,
        );
        let mut regs = vec![reg("r", 64, 4)];
        h.before_packet(4, &mut regs);
        assert_eq!(regs[0].cells[1], 0);
        h.before_packet(5, &mut regs);
        assert_eq!(regs[0].cells[1], 1 << 3);
        assert_eq!(h.flips_applied(), 1);
    }

    #[test]
    fn unknown_register_or_cell_is_ignored() {
        let mut h = ScheduledFaults::new(
            vec![
                SeuEvent { register: "ghost".into(), cell: 0, bit: 0, at_packet: 0 },
                SeuEvent { register: "r".into(), cell: 99, bit: 0, at_packet: 0 },
            ],
            vec![],
            SeuRecovery::None,
        );
        let mut regs = vec![reg("r", 64, 2)];
        h.before_packet(0, &mut regs);
        assert_eq!(h.flips_applied(), 0);
        assert_eq!(regs[0].cells, vec![0, 0]);
    }

    #[test]
    fn saturating_recovery_clamps_out_of_width_flips() {
        // 8-bit register, flip bit 40: corrupted value exceeds the
        // width mask and saturates to 0xff.
        let mut h = ScheduledFaults::new(
            vec![SeuEvent { register: "r".into(), cell: 0, bit: 40, at_packet: 0 }],
            vec![],
            SeuRecovery::Saturate,
        );
        let mut regs = vec![reg("r", 8, 1)];
        regs[0].cells[0] = 0x2a;
        h.before_packet(0, &mut regs);
        assert_eq!(regs[0].cells[0], 0xff);
        assert_eq!(h.recoveries(), 1);

        // In-width flips are left alone.
        let mut h2 = ScheduledFaults::new(
            vec![SeuEvent { register: "r".into(), cell: 0, bit: 2, at_packet: 0 }],
            vec![],
            SeuRecovery::Saturate,
        );
        let mut regs2 = vec![reg("r", 8, 1)];
        h2.before_packet(0, &mut regs2);
        assert_eq!(regs2[0].cells[0], 1 << 2);
        assert_eq!(h2.recoveries(), 0);
    }

    #[test]
    fn miss_window_is_half_open_and_per_table() {
        let h = ScheduledFaults::new(
            vec![],
            vec![MissWindow { table: "bind".into(), from_packet: 10, to_packet: 20 }],
            SeuRecovery::None,
        );
        assert!(!h.force_miss(9, "bind"));
        assert!(h.force_miss(10, "bind"));
        assert!(h.force_miss(19, "bind"));
        assert!(!h.force_miss(20, "bind"));
        assert!(!h.force_miss(15, "other"));
    }

    #[test]
    fn boxed_hook_clones() {
        let h: Box<dyn FaultHook> = Box::new(ScheduledFaults::new(
            vec![SeuEvent { register: "r".into(), cell: 0, bit: 0, at_packet: 0 }],
            vec![],
            SeuRecovery::None,
        ));
        let mut c = h.clone();
        let mut regs = vec![reg("r", 64, 1)];
        c.before_packet(0, &mut regs);
        assert_eq!(regs[0].cells[0], 1);
    }
}
