//! ALUT area estimation (paper Table 3 reports post-fit ALUTs).
//!
//! The model mimics LegUp-style binding on a Stratix-IV-class device: each
//! worker instantiates **one functional unit per [`Unit`] kind** its ops
//! bind to ([`op_timing`] decides which), with separate 32- and 64-bit
//! `fadd`, `fmul` and `fdiv` units (the width rules are listed in
//! [`crate::timing`]); resource sharing across states is free because the
//! scheduler never double-books a unit. On top come per-operation steering
//! logic (input muxes), FSM one-hot decode, pipeline registers, and
//! memory/FIFO port adapters.
//!
//! Absolute numbers are model-based — the reproduction has no Quartus — but
//! the *ratios* the paper reports (CGPA ≈ 4.1× LegUp, driven by four
//! parallel workers plus FIFO and multi-port overhead) emerge structurally.

use crate::fsm::Fsm;
use crate::timing::{op_timing, Unit};
use cgpa_ir::{Function, Op, Ty};
use std::collections::{BTreeMap, BTreeSet};

/// ALUT envelope of the paper's evaluation platform — the Stratix IV
/// EP4SGX230 on the Altera DE4 board (§4.1) offers 182,400 ALUTs. The
/// design-space explorer uses this as its default area budget when
/// recommending a configuration.
pub const DE4_ALUT_BUDGET: u32 = 182_400;

/// ALUT cost table.
#[derive(Debug, Clone)]
pub struct AreaModel {
    /// Cost of one functional unit, by kind and width in bits: `fadd`,
    /// `fmul` and `fdiv` have a 32- and a 64-bit unit, every other kind is
    /// one 32-bit unit whatever its operands' width. Every unit an op can
    /// bind to must be priced; [`estimate_area`] panics on a missing one.
    pub unit_cost: BTreeMap<(Unit, u32), u32>,
    /// Steering/mux cost per scheduled operation.
    pub per_op: u32,
    /// FSM decode cost per state.
    pub per_state: u32,
    /// Cost per 32-bit pipeline register.
    pub per_register: u32,
    /// Memory-port adapter per worker.
    pub mem_port: u32,
    /// FIFO control logic per channel (the storage itself is BRAM).
    pub fifo_channel: u32,
}

impl Default for AreaModel {
    fn default() -> Self {
        let unit_cost = BTreeMap::from([
            // 32-bit integer units.
            ((Unit::Add, 32), 32),
            ((Unit::Logic, 32), 32),
            ((Unit::Shift, 32), 64),
            ((Unit::ICmp, 32), 20),
            ((Unit::Select, 32), 32),
            ((Unit::IMul, 32), 130),
            ((Unit::IDiv, 32), 650),
            // Floating point (DSP-assisted, so modest ALUT counts).
            ((Unit::FAdd, 32), 220),
            ((Unit::FAdd, 64), 420),
            ((Unit::FMul, 32), 120),
            ((Unit::FMul, 64), 260),
            ((Unit::FDiv, 32), 700),
            ((Unit::FDiv, 64), 1400),
            ((Unit::FCmp, 32), 80),
        ]);
        AreaModel {
            unit_cost,
            per_op: 6,
            per_state: 3,
            per_register: 8,
            mem_port: 90,
            fifo_channel: 25,
        }
    }
}

/// Area breakdown for one worker (or a whole accelerator when summed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AreaReport {
    /// Functional units.
    pub units: u32,
    /// Per-op steering.
    pub steering: u32,
    /// FSM decode.
    pub fsm: u32,
    /// Registers.
    pub registers: u32,
    /// Memory-port adapter.
    pub mem_port: u32,
    /// FIFO channel control (only on accelerator-level reports).
    pub fifo: u32,
}

impl AreaReport {
    /// Total ALUTs.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.units + self.steering + self.fsm + self.registers + self.mem_port + self.fifo
    }

    /// Element-wise sum.
    #[must_use]
    pub fn add(&self, other: &AreaReport) -> AreaReport {
        AreaReport {
            units: self.units + other.units,
            steering: self.steering + other.steering,
            fsm: self.fsm + other.fsm,
            registers: self.registers + other.registers,
            mem_port: self.mem_port + other.mem_port,
            fifo: self.fifo + other.fifo,
        }
    }
}

/// Estimate the area of one scheduled worker.
///
/// # Panics
/// If `model` prices no unit for a kind and width one of the ops binds to.
#[must_use]
pub fn estimate_area(model: &AreaModel, func: &Function, fsm: &Fsm) -> AreaReport {
    let mut units: BTreeSet<(Unit, u32)> = BTreeSet::new();
    let mut op_count = 0u32;
    let mut uses_memory = false;
    for inst in &func.insts {
        match &inst.op {
            Op::Phi { .. } | Op::Br { .. } | Op::Ret { .. } => continue,
            _ => {}
        }
        op_count += 1;
        if inst.op.is_memory() {
            uses_memory = true;
        }
        let ty = inst.result.map(|r| func.value_ty(r));
        if let Some(unit) = op_timing(&inst.op, ty).unit {
            let bits = match unit {
                Unit::FAdd | Unit::FMul | Unit::FDiv if ty == Some(Ty::F64) => 64,
                _ => 32,
            };
            units.insert((unit, bits));
        }
    }
    // One unit per kind and width (the scheduler never double-books one).
    let units: u32 = units.iter().map(|key| model.unit_cost[key]).sum();
    let registers = fsm.register_count(func) as u32;
    AreaReport {
        units,
        steering: op_count * model.per_op,
        fsm: fsm.len() as u32 * model.per_state,
        registers: registers * model.per_register,
        mem_port: if uses_memory { model.mem_port } else { 0 },
        fifo: 0,
    }
}

/// FIFO-control area for an accelerator with the given channel counts
/// (element width is fixed at 32 bits; 64-bit elements use two beats, not
/// wider FIFOs, matching the paper's fixed 32-bit width).
#[must_use]
pub fn fifo_area(model: &AreaModel, total_channels: u32) -> AreaReport {
    AreaReport { fifo: total_channels * model.fifo_channel, ..AreaReport::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule_function;
    use cgpa_ir::builder::FunctionBuilder;
    use cgpa_ir::BinOp;

    fn worker() -> Function {
        let mut b = FunctionBuilder::new("w", &[("p", Ty::Ptr)], None);
        let p = b.param(0);
        let x = b.load(p, Ty::F64);
        let y = b.binary(BinOp::FMul, x, x);
        let z = b.binary(BinOp::FMul, y, y); // same kind: shared unit
        b.store(p, z);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn same_kind_units_are_shared() {
        let f = worker();
        let fsm = schedule_function(&f);
        let model = AreaModel::default();
        let rep = estimate_area(&model, &f, &fsm);
        // Only one fmul64 unit despite two fmuls.
        let fmul64 = model.unit_cost[&(Unit::FMul, 64)];
        assert!(rep.units >= fmul64);
        assert!(rep.units < 2 * fmul64);
        assert!(rep.mem_port > 0);
        assert!(rep.total() > rep.units);
    }

    #[test]
    fn fifo_area_scales_with_channels() {
        let model = AreaModel::default();
        let a4 = fifo_area(&model, 4);
        let a8 = fifo_area(&model, 8);
        assert_eq!(a8.total(), 2 * a4.total());
    }

    #[test]
    fn pure_control_worker_has_no_mem_port() {
        let mut b = FunctionBuilder::new("c", &[("x", Ty::I32)], None);
        let x = b.param(0);
        let one = b.const_i32(1);
        b.binary(BinOp::Add, x, one);
        b.ret(None);
        let f = b.finish().unwrap();
        let fsm = schedule_function(&f);
        let rep = estimate_area(&AreaModel::default(), &f, &fsm);
        assert_eq!(rep.mem_port, 0);
    }
}
