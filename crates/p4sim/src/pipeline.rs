//! The pipeline interpreter: executes a validated program packet by
//! packet against register state.

use crate::action::{ActionDef, Operand, Primitive};
use crate::control::Control;
use crate::error::{P4Error, P4Result};
use crate::fault::FaultHook;
use crate::parser::parse_frame;
use crate::phv::{fields, Phv, DROP_PORT};
use crate::table::Table;
use crate::target::TargetModel;
use serde::{Deserialize, Serialize};

/// How one register's per-pipe state would fold into a whole-switch
/// view if its traffic were split across pipes: the algebra the
/// merge-soundness check (`S4L015`) verifies the register's update
/// function against. The interpreter itself runs one pipe; the
/// `symbolic_differential` tests fold split runs with
/// [`RegMerge::combine`] to check the verdict concretely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegMerge {
    /// Cellwise wrapping addition masked to the register width — the
    /// arithmetic a fixed-width hardware register performs. Correct for
    /// counters and sum/sum-of-squares accumulators.
    #[default]
    Sum,
    /// Cellwise saturating addition clamped at the width mask.
    SatSum,
    /// Cellwise maximum (high-water marks).
    Max,
    /// Not mergeable cellwise: state encodes order (ring heads, marker
    /// positions, seeded-once flags). The merge keeps the destination
    /// shard's cells, and the register is exempt from the soundness
    /// check — a higher-level rebuild must reconcile it.
    None,
}

impl RegMerge {
    /// Folds one source cell into a destination cell under this policy
    /// (`mask` is the register's width mask). `None` keeps `dst`.
    #[must_use]
    pub fn combine(self, dst: u64, src: u64, mask: u64) -> u64 {
        match self {
            RegMerge::Sum => dst.wrapping_add(src) & mask,
            RegMerge::SatSum => dst.saturating_add(src).min(mask),
            RegMerge::Max => dst.max(src),
            RegMerge::None => dst,
        }
    }
}

/// A stateful register array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Register {
    /// Name for reports.
    pub name: String,
    /// Cell width in bits (writes are masked).
    pub width_bits: u32,
    /// Cell storage.
    pub cells: Vec<u64>,
    /// Declared cross-shard merge policy (see [`RegMerge`]).
    #[serde(default)]
    pub merge: RegMerge,
}

impl Register {
    pub(crate) fn mask(&self) -> u64 {
        if self.width_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width_bits) - 1
        }
    }

    /// Writes `v` into cell `i`, masked to the register width.
    pub(crate) fn write_cell(&mut self, i: usize, v: u64) {
        self.cells[i] = v & self.mask();
    }
}

/// A digest pushed to the controller during packet processing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestRecord {
    /// Application-defined digest kind.
    pub id: u16,
    /// Evaluated payload values.
    pub values: Vec<u64>,
}

/// What happened to one packet.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PacketOutcome {
    /// Egress port, if forwarded.
    pub egress: Option<u64>,
    /// True if dropped.
    pub dropped: bool,
    /// Extra pipeline passes the packet consumed.
    pub recirculations: u32,
    /// Set while a pass is executing when the next pass was requested.
    #[serde(skip)]
    recirculate_requested: bool,
    /// Digests emitted (push alerts to the controller).
    pub digests: Vec<DigestRecord>,
    /// Interpreter steps consumed (primitives + table lookups).
    pub steps: u64,
    /// `(table_id, hit)` for every table applied, in order.
    pub tables_applied: Vec<(usize, bool)>,
}

/// A snapshot of a pipeline's mutable state — every register cell plus
/// the packet counter — for comparing two runs of a program (the
/// split-trace merge test in `stat4-p4`). The static definition
/// (tables, actions, control tree) is deliberately not captured.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineState {
    /// `(register name, cells)` in declaration order.
    pub registers: Vec<(String, Vec<u64>)>,
    /// Packets processed when the state was captured.
    pub packets_processed: u64,
}

/// A complete program instance: static definition plus mutable state.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) target: TargetModel,
    pub(crate) registers: Vec<Register>,
    pub(crate) actions: Vec<ActionDef>,
    pub(crate) tables: Vec<Table>,
    pub(crate) control: Control,
    pub(crate) packets_processed: u64,
    pub(crate) fault_hook: Option<Box<dyn FaultHook>>,
}

impl Pipeline {
    pub(crate) fn from_parts(
        target: TargetModel,
        registers: Vec<Register>,
        actions: Vec<ActionDef>,
        tables: Vec<Table>,
        control: Control,
    ) -> Self {
        Self {
            target,
            registers,
            actions,
            tables,
            control,
            packets_processed: 0,
            fault_hook: None,
        }
    }

    /// Installs (or with `None`, removes) a fault-injection hook. The
    /// hook sees every subsequent packet; see [`crate::fault`].
    pub fn set_fault_hook(&mut self, hook: Option<Box<dyn FaultHook>>) {
        self.fault_hook = hook;
    }

    /// The target this program was validated against.
    #[must_use]
    pub fn target(&self) -> &TargetModel {
        &self.target
    }

    /// Number of packets processed so far.
    #[must_use]
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Read-only register access (tests, resource accounting; the
    /// controller path goes through [`crate::runtime`]).
    #[must_use]
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// Captures the pipeline's mutable state (register cells + packet
    /// counter); see [`PipelineState`].
    #[must_use]
    pub fn export_state(&self) -> PipelineState {
        PipelineState {
            registers: self
                .registers
                .iter()
                .map(|r| (r.name.clone(), r.cells.clone()))
                .collect(),
            packets_processed: self.packets_processed,
        }
    }

    /// Read-only table access.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Actions (for reports).
    #[must_use]
    pub fn actions(&self) -> &[ActionDef] {
        &self.actions
    }

    /// Control tree (for analysis).
    #[must_use]
    pub fn control(&self) -> &Control {
        &self.control
    }

    /// Parses `frame` and runs it through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors ([`P4Error::RegisterOutOfBounds`],
    /// [`P4Error::StepBudgetExhausted`], …).
    pub fn process_frame(
        &mut self,
        frame: &[u8],
        ingress_port: u64,
        timestamp_ns: u64,
    ) -> P4Result<(Phv, PacketOutcome)> {
        let mut phv = parse_frame(frame, ingress_port, timestamp_ns);
        let outcome = self.process_phv(&mut phv)?;
        Ok((phv, outcome))
    }

    /// Runs an already-parsed PHV through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn process_phv(&mut self, phv: &mut Phv) -> P4Result<PacketOutcome> {
        let mut outcome = PacketOutcome::default();
        if let Some(mut hook) = self.fault_hook.take() {
            hook.before_packet(self.packets_processed, &mut self.registers);
            self.fault_hook = Some(hook);
        }
        let control = self.control.clone();
        self.exec_control(&control, phv, &mut outcome)?;
        while outcome.recirculate_requested {
            outcome.recirculate_requested = false;
            if outcome.recirculations >= self.target.max_recirculations {
                // Bounded like hardware: the packet proceeds without the
                // extra pass rather than looping forever.
                break;
            }
            outcome.recirculations += 1;
            self.exec_control(&control, phv, &mut outcome)?;
        }
        if phv.dropped() {
            outcome.dropped = true;
            outcome.egress = None;
        } else {
            let e = phv.get(fields::EGRESS_PORT);
            outcome.egress = (e != 0 || !outcome.tables_applied.is_empty()).then_some(e);
        }
        self.packets_processed += 1;
        Ok(outcome)
    }

    fn charge(&self, outcome: &mut PacketOutcome, cost: u64) -> P4Result<()> {
        outcome.steps += cost;
        if outcome.steps > self.target.step_budget {
            return Err(P4Error::StepBudgetExhausted {
                budget: self.target.step_budget,
            });
        }
        Ok(())
    }

    fn exec_control(
        &mut self,
        c: &Control,
        phv: &mut Phv,
        outcome: &mut PacketOutcome,
    ) -> P4Result<bool> {
        // Returns false when an Exit was hit.
        match c {
            Control::Nop => Ok(true),
            Control::Seq(children) => {
                for child in children {
                    if !self.exec_control(child, phv, outcome)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Control::ApplyTable(tid) => {
                self.charge(outcome, 1)?;
                let table = self.tables.get(*tid).ok_or(P4Error::UnknownId {
                    kind: "table",
                    id: *tid,
                })?;
                let forced_miss = self
                    .fault_hook
                    .as_ref()
                    .is_some_and(|h| h.force_miss(self.packets_processed, &table.def.name));
                let hit = if forced_miss {
                    None
                } else {
                    table.lookup(phv).cloned()
                };
                outcome.tables_applied.push((*tid, hit.is_some()));
                let invocation = match hit {
                    Some(e) => Some((e.action, e.action_data)),
                    None => table.def.default_action.clone(),
                };
                if let Some((aid, data)) = invocation {
                    self.exec_action(aid, &data, phv, outcome)?;
                }
                Ok(true)
            }
            Control::ApplyAction(aid) => {
                self.exec_action(*aid, &[], phv, outcome)?;
                Ok(true)
            }
            Control::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.charge(outcome, 1)?;
                let a = self.eval(&cond.a, &[], phv)?;
                let b = self.eval(&cond.b, &[], phv)?;
                if cond.eval(a, b) {
                    self.exec_control(then_branch, phv, outcome)
                } else if let Some(e) = else_branch {
                    self.exec_control(e, phv, outcome)
                } else {
                    Ok(true)
                }
            }
            Control::Exit => Ok(false),
            Control::Recirculate => {
                self.charge(outcome, 1)?;
                outcome.recirculate_requested = true;
                Ok(true)
            }
        }
    }

    fn exec_action(
        &mut self,
        aid: usize,
        data: &[u64],
        phv: &mut Phv,
        outcome: &mut PacketOutcome,
    ) -> P4Result<()> {
        let action = self
            .actions
            .get(aid)
            .ok_or(P4Error::UnknownId {
                kind: "action",
                id: aid,
            })?
            .clone();
        for p in &action.primitives {
            let cost = if matches!(p, Primitive::Msb { .. }) {
                u64::from(self.target.msb_cost)
            } else {
                1
            };
            self.charge(outcome, cost)?;
            self.exec_primitive(aid, p, data, phv, outcome)?;
        }
        Ok(())
    }

    fn eval(&self, o: &Operand, data: &[u64], phv: &Phv) -> P4Result<u64> {
        match o {
            Operand::Const(v) => Ok(*v),
            Operand::Field(f) => Ok(phv.get(*f)),
            Operand::Data(n) => data.get(*n).copied().ok_or(P4Error::ActionDataOutOfBounds {
                action: usize::MAX,
                slot: *n,
            }),
        }
    }

    fn reg_index(&self, register: usize, index: u64) -> P4Result<usize> {
        let reg = self.registers.get(register).ok_or(P4Error::UnknownId {
            kind: "register",
            id: register,
        })?;
        if (index as usize) < reg.cells.len() {
            Ok(index as usize)
        } else {
            Err(P4Error::RegisterOutOfBounds {
                register,
                index,
                size: reg.cells.len() as u64,
            })
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_primitive(
        &mut self,
        aid: usize,
        p: &Primitive,
        data: &[u64],
        phv: &mut Phv,
        outcome: &mut PacketOutcome,
    ) -> P4Result<()> {
        let fix_slot = |e: P4Error| match e {
            P4Error::ActionDataOutOfBounds { slot, .. } => {
                P4Error::ActionDataOutOfBounds { action: aid, slot }
            }
            other => other,
        };
        macro_rules! ev {
            ($o:expr) => {
                self.eval($o, data, phv).map_err(fix_slot)?
            };
        }
        match p {
            Primitive::Set { dst, src } => {
                let v = ev!(src);
                phv.set(*dst, v);
            }
            Primitive::Add { dst, a, b } => {
                let v = ev!(a).wrapping_add(ev!(b));
                phv.set(*dst, v);
            }
            Primitive::Sub { dst, a, b } => {
                let v = ev!(a).wrapping_sub(ev!(b));
                phv.set(*dst, v);
            }
            Primitive::And { dst, a, b } => {
                let v = ev!(a) & ev!(b);
                phv.set(*dst, v);
            }
            Primitive::Or { dst, a, b } => {
                let v = ev!(a) | ev!(b);
                phv.set(*dst, v);
            }
            Primitive::Xor { dst, a, b } => {
                let v = ev!(a) ^ ev!(b);
                phv.set(*dst, v);
            }
            Primitive::Not { dst, src } => {
                let v = !ev!(src);
                phv.set(*dst, v);
            }
            Primitive::Shl { dst, src, amount } => {
                let s = ev!(src);
                let n = ev!(amount);
                phv.set(*dst, if n >= 64 { 0 } else { s << n });
            }
            Primitive::Shr { dst, src, amount } => {
                let s = ev!(src);
                let n = ev!(amount);
                phv.set(*dst, if n >= 64 { 0 } else { s >> n });
            }
            Primitive::Mul { dst, a, b } => {
                let v = ev!(a).wrapping_mul(ev!(b));
                phv.set(*dst, v);
            }
            Primitive::Min { dst, a, b } => {
                let v = ev!(a).min(ev!(b));
                phv.set(*dst, v);
            }
            Primitive::Max { dst, a, b } => {
                let v = ev!(a).max(ev!(b));
                phv.set(*dst, v);
            }
            Primitive::Msb { dst, src } => {
                let s = ev!(src);
                let v = if s == 0 { 0 } else { 63 - u64::from(s.leading_zeros()) };
                phv.set(*dst, v);
            }
            Primitive::Hash {
                dst,
                src,
                salt,
                width_log2,
            } => {
                let key = ev!(src);
                let w = (*width_log2).clamp(1, 63);
                let mask = (1u64 << w) - 1;
                let v = (key.wrapping_mul(*salt | 1) >> (64 - w - 1)) & mask;
                phv.set(*dst, v);
            }
            Primitive::RegRead {
                dst,
                register,
                index,
            } => {
                let i = self.reg_index(*register, ev!(index))?;
                let v = self.registers[*register].cells[i];
                phv.set(*dst, v);
            }
            Primitive::RegWrite {
                register,
                index,
                src,
            } => {
                let i = self.reg_index(*register, ev!(index))?;
                let v = ev!(src);
                self.registers[*register].write_cell(i, v);
            }
            Primitive::Digest { id, values } => {
                let mut vals = Vec::with_capacity(values.len());
                for v in values {
                    vals.push(ev!(v));
                }
                outcome.digests.push(DigestRecord { id: *id, values: vals });
            }
            Primitive::Forward { port } => {
                let p = ev!(port);
                phv.set(fields::EGRESS_PORT, p);
            }
            Primitive::Drop => {
                phv.set(fields::EGRESS_PORT, DROP_PORT);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{CmpOp, Cond};
    use crate::phv::FieldId;
    use crate::program::ProgramBuilder;
    use crate::table::{Entry, MatchKind, MatchValue, TableDef};

    const M1_TEST: FieldId = fields::scratch(1);
    const M2_TEST: FieldId = fields::scratch(2);

    /// A counting pipeline: one register, one table binding dst-IP /8 to
    /// a per-prefix counter cell, default action forwards.
    fn counting_pipeline() -> Pipeline {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("counters", 64, 16);
        let fwd = b.add_action(ActionDef::new(
            "forward",
            vec![Primitive::Forward {
                port: Operand::Const(1),
            }],
        ));
        let count = b.add_action(ActionDef::new(
            "count",
            vec![
                // counters[data0] += pkt_len
                Primitive::RegRead {
                    dst: fields::M0,
                    register: reg,
                    index: Operand::Data(0),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Field(fields::PKT_LEN),
                },
                Primitive::RegWrite {
                    register: reg,
                    index: Operand::Data(0),
                    src: Operand::Field(fields::M0),
                },
                Primitive::Forward {
                    port: Operand::Const(1),
                },
            ],
        ));
        let t = b.add_table(TableDef {
            name: "bind".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
            max_entries: 8,
            allowed_actions: vec![fwd, count],
            default_action: Some((fwd, vec![])),
        });
        b.set_control(Control::ApplyTable(t));
        let mut pipe = b.build(TargetModel::bmv2()).unwrap();
        pipe.tables[t]
            .insert(
                t,
                Entry {
                    key: vec![MatchValue::Lpm {
                        value: 0x0a00_0000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: count,
                    action_data: vec![3],
                },
            )
            .unwrap();
        pipe
    }

    fn phv_to(dst: u64, len: u64) -> Phv {
        let mut phv = Phv::new();
        phv.set(fields::IPV4_DST, dst);
        phv.set(fields::PKT_LEN, len);
        phv
    }

    #[test]
    fn counts_matching_traffic() {
        let mut p = counting_pipeline();
        let mut phv = phv_to(0x0a01_0203, 100);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.egress, Some(1));
        assert!(!out.dropped);
        assert_eq!(out.tables_applied, vec![(0, true)]);
        assert_eq!(p.registers()[0].cells[3], 100);

        let mut phv = phv_to(0x0a0f_ffff, 60);
        p.process_phv(&mut phv).unwrap();
        assert_eq!(p.registers()[0].cells[3], 160);
    }

    #[test]
    fn state_export_captures_every_register() {
        let mut live = counting_pipeline();
        for i in 0..5u64 {
            let mut phv = phv_to(0x0a01_0203, 100 + i);
            live.process_phv(&mut phv).unwrap();
        }
        let state = live.export_state();
        assert_eq!(state.packets_processed, live.packets_processed());
        assert_eq!(state.registers.len(), live.registers().len());
        for ((name, cells), reg) in state.registers.iter().zip(live.registers()) {
            assert_eq!(name, &reg.name);
            assert_eq!(cells, &reg.cells);
        }
        assert_ne!(state, counting_pipeline().export_state(), "traffic moved the registers");
    }

    #[test]
    fn miss_runs_default_action() {
        let mut p = counting_pipeline();
        let mut phv = phv_to(0x0b00_0001, 100);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.egress, Some(1));
        assert_eq!(out.tables_applied, vec![(0, false)]);
        assert_eq!(p.registers()[0].cells[3], 0, "no counting on miss");
    }

    #[test]
    fn drop_primitive() {
        let mut b = ProgramBuilder::new();
        let drop = b.add_action(ActionDef::new("drop", vec![Primitive::Drop]));
        b.set_control(Control::ApplyAction(drop));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        let out = p.process_phv(&mut phv).unwrap();
        assert!(out.dropped);
        assert_eq!(out.egress, None);
    }

    #[test]
    fn if_branches_on_field() {
        let mut b = ProgramBuilder::new();
        let syn = b.add_action(ActionDef::new(
            "mark_syn",
            vec![Primitive::Set {
                dst: M1_TEST,
                src: Operand::Const(77),
            }],
        ));
        b.set_control(Control::If {
            cond: Cond::new(
                Operand::Field(fields::TCP_IS_SYN),
                CmpOp::Eq,
                Operand::Const(1),
            ),
            then_branch: Box::new(Control::ApplyAction(syn)),
            else_branch: None,
        });
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::TCP_IS_SYN, 1);
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 77);

        let mut phv2 = Phv::new();
        p.process_phv(&mut phv2).unwrap();
        assert_eq!(phv2.get(M1_TEST), 0);
    }

    #[test]
    fn exit_stops_processing() {
        let mut b = ProgramBuilder::new();
        let set = b.add_action(ActionDef::new(
            "set",
            vec![Primitive::Set {
                dst: M1_TEST,
                src: Operand::Const(1),
            }],
        ));
        b.set_control(Control::Seq(vec![
            Control::Exit,
            Control::ApplyAction(set),
        ]));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 0, "statement after Exit skipped");
    }

    #[test]
    fn register_width_masks_writes() {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("narrow", 8, 4);
        let w = b.add_action(ActionDef::new(
            "w",
            vec![Primitive::RegWrite {
                register: reg,
                index: Operand::Const(0),
                src: Operand::Const(0x1ff),
            }],
        ));
        b.set_control(Control::ApplyAction(w));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(p.registers()[0].cells[0], 0xff, "masked to 8 bits");
    }

    #[test]
    fn regmerge_combine_wraps_at_register_width() {
        let mask = 0xffff;
        // Two pipes each counted 40,000 into a 16-bit cell; one pipe
        // that saw all 80,000 holds 80,000 mod 2^16. Sum folds the
        // wrapped halves to exactly that.
        let (a, b) = (40_000 & mask, 40_000 & mask);
        assert_eq!(RegMerge::Sum.combine(a, b, mask), 80_000 & mask);
        assert_eq!(RegMerge::Sum.combine(0xfff0, 0x20, mask), 0x10);
        assert_eq!(RegMerge::SatSum.combine(0xfff0, 0x20, mask), mask);
        assert_eq!(RegMerge::Max.combine(0xfff0, 0x20, mask), 0xfff0);
        assert_eq!(RegMerge::None.combine(0x20, 0xfff0, mask), 0x20);
    }

    #[test]
    fn register_oob_is_error() {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("r", 64, 2);
        let w = b.add_action(ActionDef::new(
            "w",
            vec![Primitive::RegWrite {
                register: reg,
                index: Operand::Const(5),
                src: Operand::Const(1),
            }],
        ));
        b.set_control(Control::ApplyAction(w));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        assert!(matches!(
            p.process_phv(&mut phv),
            Err(P4Error::RegisterOutOfBounds {
                index: 5,
                size: 2,
                ..
            })
        ));
    }

    #[test]
    fn digest_reaches_outcome() {
        let mut b = ProgramBuilder::new();
        let d = b.add_action(ActionDef::new(
            "alert",
            vec![Primitive::Digest {
                id: 42,
                values: vec![Operand::Const(7), Operand::Field(fields::PKT_LEN)],
            }],
        ));
        b.set_control(Control::ApplyAction(d));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, 99);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].id, 42);
        assert_eq!(out.digests[0].values, vec![7, 99]);
    }

    #[test]
    fn msb_primitive_and_cost() {
        let mut b = ProgramBuilder::new();
        let m = b.add_action(ActionDef::new(
            "msb",
            vec![Primitive::Msb {
                dst: M1_TEST,
                src: Operand::Field(fields::PKT_LEN),
            }],
        ));
        b.set_control(Control::ApplyAction(m));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, 106);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 6);
        assert_eq!(out.steps, u64::from(TargetModel::bmv2().msb_cost));

        let mut phv0 = Phv::new();
        p.process_phv(&mut phv0).unwrap();
        assert_eq!(phv0.get(M1_TEST), 0, "msb(0) = 0");
    }

    #[test]
    fn fault_hook_seu_flip_corrupts_register_before_packet() {
        use crate::fault::{ScheduledFaults, SeuEvent, SeuRecovery};
        let mut p = counting_pipeline();
        p.set_fault_hook(Some(Box::new(ScheduledFaults::new(
            vec![SeuEvent { register: "counters".into(), cell: 3, bit: 10, at_packet: 1 }],
            vec![],
            SeuRecovery::None,
        ))));
        // Packet 0: no fault yet, counts 100 into cell 3.
        p.process_phv(&mut phv_to(0x0a01_0203, 100)).unwrap();
        assert_eq!(p.registers()[0].cells[3], 100);
        // Packet 1: flip bit 10 first, then count 60 more.
        p.process_phv(&mut phv_to(0x0a01_0203, 60)).unwrap();
        assert_eq!(p.registers()[0].cells[3], (100 ^ (1 << 10)) + 60);
        // Cloning the pipeline clones the hook.
        let _ = p.clone();
    }

    #[test]
    fn fault_hook_forced_miss_runs_default_action() {
        use crate::fault::{MissWindow, ScheduledFaults, SeuRecovery};
        let mut p = counting_pipeline();
        p.set_fault_hook(Some(Box::new(ScheduledFaults::new(
            vec![],
            vec![MissWindow { table: "bind".into(), from_packet: 0, to_packet: 1 }],
            SeuRecovery::None,
        ))));
        // Packet 0 is inside the miss window: matching traffic is not
        // counted, the default action still forwards.
        let out = p.process_phv(&mut phv_to(0x0a01_0203, 100)).unwrap();
        assert_eq!(out.tables_applied, vec![(0, false)]);
        assert_eq!(out.egress, Some(1));
        assert_eq!(p.registers()[0].cells[3], 0);
        // Packet 1 is past the window: normal hit.
        let out = p.process_phv(&mut phv_to(0x0a01_0203, 100)).unwrap();
        assert_eq!(out.tables_applied, vec![(0, true)]);
        assert_eq!(p.registers()[0].cells[3], 100);
    }

    #[test]
    fn shift_saturation_past_width() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "s",
            vec![
                Primitive::Shl {
                    dst: M1_TEST,
                    src: Operand::Const(1),
                    amount: Operand::Const(70),
                },
                Primitive::Shr {
                    dst: M2_TEST,
                    src: Operand::Const(u64::MAX),
                    amount: Operand::Const(64),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 0);
        assert_eq!(phv.get(M2_TEST), 0);
    }

}
