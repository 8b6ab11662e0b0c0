//! Functions, basic blocks, modules, and inter-task queue declarations.

use crate::inst::{Inst, InstId, Op};
use crate::types::Ty;
use crate::value::{Const, ValueDef, ValueId};
use std::collections::HashMap;
use std::fmt;

/// A handle to a basic block inside one [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index of this block in its function's block table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A handle to an inter-stage FIFO queue set declared at [`Module`] level.
///
/// A queue set is one logical communication edge of the pipeline; it expands
/// into one hardware FIFO per consumer worker (a *channel*). A `produce`
/// selects a channel by worker index, a `produce_broadcast` pushes to all
/// channels, and each consumer worker pops its own channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u32);

impl QueueId {
    /// The index of this queue in the module's queue table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Module-level declaration of a queue set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueInfo {
    /// Human-readable name (e.g. the communicated value's name).
    pub name: String,
    /// Element type carried by the queue.
    pub elem_ty: Ty,
    /// Number of parallel channels (1 for sequential→sequential edges,
    /// `workers` for edges into/out of the parallel stage).
    pub channels: u32,
}

/// A basic block: an ordered list of instructions ending in a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Debug name.
    pub name: String,
    /// Instructions in program order. The last one must be a terminator once
    /// the function is finished.
    pub insts: Vec<InstId>,
    /// Static execution-frequency hint relative to one loop iteration
    /// (e.g. an inner-loop body with average trip count 10 gets `10.0`).
    /// Used by the pipeline partitioner to weight stages; defaults to `1.0`.
    pub freq_hint: f64,
}

/// A function in SSA form.
///
/// Construct with [`FunctionBuilder`](crate::builder::FunctionBuilder) rather
/// than by hand; the builder maintains the value-table invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter names and types.
    pub params: Vec<(String, Ty)>,
    /// Return type, if the function returns a value.
    pub ret_ty: Option<Ty>,
    /// Basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// All instructions, indexed by [`InstId`].
    pub insts: Vec<Inst>,
    /// All values, indexed by [`ValueId`].
    pub values: Vec<ValueDef>,
    /// For parallel-stage tasks: the worker-id parameter index, if any.
    /// Sequential tasks and ordinary functions have `None`.
    pub worker_id_param: Option<u32>,
}

impl Function {
    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// The block data for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// The instruction data for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// The value definition for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &ValueDef {
        &self.values[id.index()]
    }

    /// The type of value `id`.
    #[must_use]
    pub fn value_ty(&self, id: ValueId) -> Ty {
        self.value(id).ty()
    }

    /// The terminator of `block`, if the block is non-empty and ends in one.
    #[must_use]
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = *self.block(block).insts.last()?;
        self.inst(last).op.is_terminator().then_some(last)
    }

    /// Successor blocks of `block` in CFG order.
    #[must_use]
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block).map(|t| &self.inst(t).op) {
            Some(Op::Br { target }) => vec![*target],
            Some(Op::CondBr { on_true, on_false, .. }) => vec![*on_true, *on_false],
            _ => Vec::new(),
        }
    }

    /// Iterate over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterate over all instruction ids in block order, program order within
    /// each block.
    pub fn inst_ids_in_order(&self) -> impl Iterator<Item = InstId> + '_ {
        self.blocks.iter().flat_map(|b| b.insts.iter().copied())
    }

    /// All instructions whose `op` defines a result equal to `value`.
    #[must_use]
    pub fn def_of(&self, value: ValueId) -> Option<InstId> {
        self.value(value).def_inst()
    }

    /// Append an instruction to `block`, assigning a fresh result value if
    /// the operation produces one. Used by the builder and by the pipeline
    /// transform.
    pub fn push_inst(
        &mut self,
        block: BlockId,
        op: Op,
        name: Option<String>,
    ) -> (InstId, Option<ValueId>) {
        let id = InstId(self.insts.len() as u32);
        let result_ty = op.result_ty(|v| self.value_ty(v));
        let result = result_ty.map(|ty| {
            let vid = ValueId(self.values.len() as u32);
            self.values.push(ValueDef::Inst { inst: id, ty });
            vid
        });
        self.insts.push(Inst { op, block, result, name });
        self.blocks[block.index()].insts.push(id);
        (id, result)
    }

    /// Intern a constant, returning its value id. Identical constants share
    /// one id.
    pub fn intern_const(&mut self, c: Const) -> ValueId {
        // Linear scan is fine at our function sizes; the builder caches.
        for (i, v) in self.values.iter().enumerate() {
            if let ValueDef::Const(existing) = v {
                if existing.ty() == c.ty() && existing.bits() == c.bits() {
                    return ValueId(i as u32);
                }
            }
        }
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueDef::Const(c));
        id
    }

    /// The value id of parameter `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range. Parameters occupy the first
    /// `params.len()` slots of the value table in order.
    #[must_use]
    pub fn param_value(&self, index: u32) -> ValueId {
        assert!(
            (index as usize) < self.params.len(),
            "parameter index {index} out of range for `{}`",
            self.name
        );
        ValueId(index)
    }

    /// Count of instructions of each coarse kind — used by area estimation
    /// and by tests.
    #[must_use]
    pub fn op_histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for inst in &self.insts {
            let key = match &inst.op {
                Op::Binary { op, .. } => op.mnemonic(),
                Op::ICmp { .. } => "icmp",
                Op::FCmp { .. } => "fcmp",
                Op::Select { .. } => "select",
                Op::Cast { .. } => "cast",
                Op::Load { .. } => "load",
                Op::Store { .. } => "store",
                Op::Gep { .. } => "gep",
                Op::Br { .. } => "br",
                Op::CondBr { .. } => "condbr",
                Op::Ret { .. } => "ret",
                Op::Phi { .. } => "phi",
                Op::Produce { .. } => "produce",
                Op::ProduceBroadcast { .. } => "produce_broadcast",
                Op::Consume { .. } => "consume",
                Op::ParallelFork { .. } => "parallel_fork",
                Op::ParallelJoin { .. } => "parallel_join",
                Op::StoreLiveout { .. } => "store_liveout",
                Op::RetrieveLiveout { .. } => "retrieve_liveout",
            };
            *h.entry(key).or_insert(0) += 1;
        }
        h
    }
}

/// A module: a set of functions plus the queue sets connecting task
/// functions generated by the pipeline transform.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Functions; indexes are referred to by name elsewhere.
    pub funcs: Vec<Function>,
    /// Queue-set declarations shared by the task functions.
    pub queues: Vec<QueueInfo>,
}

impl Module {
    /// Create an empty module.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), funcs: Vec::new(), queues: Vec::new() }
    }

    /// Add a function, returning its index.
    pub fn add_func(&mut self, f: Function) -> usize {
        self.funcs.push(f);
        self.funcs.len() - 1
    }

    /// Declare a queue set, returning its id.
    pub fn add_queue(&mut self, name: impl Into<String>, elem_ty: Ty, channels: u32) -> QueueId {
        let id = QueueId(self.queues.len() as u32);
        self.queues.push(QueueInfo { name: name.into(), elem_ty, channels });
        id
    }

    /// The queue info for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn queue(&self, id: QueueId) -> &QueueInfo {
        &self.queues[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, IntPredicate};

    fn simple_loop() -> Function {
        let mut b = FunctionBuilder::new("f", &[("n", Ty::I32)], Some(Ty::I32));
        let n = b.param(0);
        let entry = b.entry_block();
        let header = b.append_block("header");
        let exit = b.append_block("exit");
        b.switch_to(entry);
        let zero = b.const_i32(0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let one = b.const_i32(1);
        let i2 = b.binary(BinOp::Add, i, one);
        let c = b.icmp(IntPredicate::Slt, i2, n);
        b.cond_br(c, header, exit);
        b.switch_to(exit);
        b.ret(Some(i2));
        b.add_phi_incoming(i, entry, zero);
        b.add_phi_incoming(i, header, i2);
        b.finish().unwrap()
    }

    #[test]
    fn successors_and_terminator() {
        let f = simple_loop();
        assert_eq!(f.successors(BlockId(0)), vec![BlockId(1)]);
        assert_eq!(f.successors(BlockId(1)), vec![BlockId(1), BlockId(2)]);
        assert!(f.successors(BlockId(2)).is_empty());
        assert!(f.terminator(BlockId(2)).is_some());
    }

    #[test]
    fn const_interning_dedups() {
        let mut f = simple_loop();
        let a = f.intern_const(Const::I32(42));
        let b = f.intern_const(Const::I32(42));
        let c = f.intern_const(Const::I32(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn const_interning_distinguishes_types() {
        let mut f = simple_loop();
        let a = f.intern_const(Const::I32(0));
        let b = f.intern_const(Const::Ptr(0));
        assert_ne!(a, b);
    }

    #[test]
    fn op_histogram_counts() {
        let f = simple_loop();
        let h = f.op_histogram();
        assert_eq!(h.get("phi"), Some(&1));
        assert_eq!(h.get("add"), Some(&1));
        assert_eq!(h.get("condbr"), Some(&1));
    }

    #[test]
    fn module_queues() {
        let mut m = Module::new("m");
        let q = m.add_queue("node_ptr", Ty::Ptr, 4);
        assert_eq!(m.queue(q).channels, 4);
        assert_eq!(m.queue(q).elem_ty, Ty::Ptr);
        assert_eq!(q.to_string(), "q0");
    }
}
