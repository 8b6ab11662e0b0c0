//! MIPS soft-core timing model (the paper's CPU baseline, §4.1).
//!
//! A single-issue in-order core: one instruction per cycle plus hazard and
//! latency penalties, instruction fetch through a private direct-mapped
//! I-cache (512 × 128 B, 1 port) and data through the shared D-cache.
//! Soft-core floating point is an unpipelined coprocessor, so FP latencies
//! serialize — the main reason specialization wins even before
//! parallelization.
//!
//! An instruction's issue cost is the cost of the functional unit
//! [`op_timing`] binds it to, so the core and the accelerators classify
//! ops the same way: `fadd` and `fmul` are charged by result width, `fdiv`
//! flat, and every op without a multi-cycle unit as one ALU op (the width
//! rules of each consumer are listed in [`cgpa_rtl::timing`]). Each IR op
//! is one instruction: an integer op takes one issue slot (`int_op`), and
//! the expansion of an IR op into several MIPS instructions (immediates,
//! address formation, spills) is not modelled.
//!
//! Instruction `i` is fetched from the synthetic address `code_base + 4i`
//! before it issues, and a fetch slower than a hit stalls the front end.
//! When the function's code spans no more I-cache blocks than the cache has
//! lines, its blocks fall on distinct lines and only fetches fill the
//! I-cache, so no fetched line is ever evicted. The timer then books every
//! fetch after an instruction's first as a hit, counters and bank timing
//! included ([`CacheSystem`]'s `book_hit`), without looking the line up;
//! first fetches, and every fetch of code that aliases in the cache, go
//! through [`CacheSystem::request`]. The tests check both paths against a
//! timer that makes one request per fetch.

use crate::cache::{CacheConfig, CacheSystem};
use crate::interp::{run_function, ExecHooks, InterpError};
use crate::mem::SimMemory;
use crate::value::Value;
use cgpa_ir::{Function, InstId, Op, Ty};
use cgpa_rtl::timing::{op_timing, Unit};

/// Per-class instruction costs (issue cycles).
#[derive(Debug, Clone, Copy)]
pub struct MipsConfig {
    /// Simple ALU / address op.
    pub int_op: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// FP add/sub (f32).
    pub fadd32: u64,
    /// FP add/sub (f64).
    pub fadd64: u64,
    /// FP multiply (f32).
    pub fmul32: u64,
    /// FP multiply (f64).
    pub fmul64: u64,
    /// FP divide (either width).
    pub fdiv: u64,
    /// FP compare.
    pub fcmp: u64,
    /// Taken-branch penalty.
    pub branch_taken: u64,
    /// D-cache geometry (1 port for the core).
    pub dcache: CacheConfig,
    /// I-cache geometry.
    pub icache: CacheConfig,
}

impl Default for MipsConfig {
    fn default() -> Self {
        MipsConfig {
            int_op: 1,
            mul: 2,
            div: 18,
            fadd32: 4,
            fadd64: 5,
            fmul32: 5,
            fmul64: 7,
            fdiv: 24,
            fcmp: 3,
            branch_taken: 3,
            dcache: CacheConfig { banks: 1, ..CacheConfig::default() },
            icache: CacheConfig { banks: 1, ..CacheConfig::default() },
        }
    }
}

/// Result of a timed MIPS run.
#[derive(Debug, Clone)]
pub struct MipsRun {
    /// Total cycles.
    pub cycles: u64,
    /// Executed IR instructions.
    pub instructions: u64,
    /// Return value of the kernel, if any.
    pub ret: Option<Value>,
    /// D-cache statistics.
    pub dcache: crate::cache::CacheStats,
    /// I-cache statistics.
    pub icache: crate::cache::CacheStats,
}

struct MipsTimer<'c> {
    cfg: &'c MipsConfig,
    /// Issue cycles per instruction of the timed function, by `InstId`.
    issue: Vec<u64>,
    cycles: u64,
    dcache: CacheSystem,
    icache: CacheSystem,
    /// Synthetic code base for instruction fetch addresses.
    code_base: u32,
    /// No two of the function's code blocks share an I-cache line, so a
    /// fetched line stays filled: every later fetch from it hits.
    resident: bool,
    /// Per instruction, once it has been fetched while `resident`, the
    /// I-cache bank of its line. `None` before that, and always when the
    /// code aliases in the cache.
    fetch_bank: Vec<Option<u32>>,
}

/// Issue cycles of one instruction, before fetch and data-cache stalls:
/// the cost of the functional unit [`op_timing`] binds it to.
fn issue_cost(cfg: &MipsConfig, func: &Function, inst: InstId) -> u64 {
    let inst = func.inst(inst);
    if matches!(inst.op, Op::Phi { .. }) {
        return 0; // register move folded into the producer
    }
    let ty = inst.result.map(|r| func.value_ty(r));
    let cost = match (op_timing(&inst.op, ty).unit, ty == Some(Ty::F64)) {
        (Some(Unit::IMul), _) => cfg.mul,
        (Some(Unit::IDiv), _) => cfg.div,
        (Some(Unit::FAdd), false) => cfg.fadd32,
        (Some(Unit::FAdd), true) => cfg.fadd64,
        (Some(Unit::FMul), false) => cfg.fmul32,
        (Some(Unit::FMul), true) => cfg.fmul64,
        (Some(Unit::FDiv), _) => cfg.fdiv,
        (Some(Unit::FCmp), _) => cfg.fcmp,
        // Integer ALU ops, casts, branches, and loads/stores, which issue in
        // 1 cycle; the D-cache adds its latency in `on_mem`.
        _ => cfg.int_op,
    };
    cost.max(1)
}

impl<'c> MipsTimer<'c> {
    /// A timer at reset for `func`: cold caches, cycle 0.
    fn new(func: &Function, cfg: &'c MipsConfig) -> Self {
        let n = func.insts.len();
        let icache = CacheSystem::new(cfg.icache);
        let code_base = 0x8000_0000u32 >> 1; // synthetic text segment
                                             // The code's blocks are consecutive, so they fall on distinct lines
                                             // exactly when there are no more of them than lines.
        let c = icache.config();
        let block = |i: usize| (u64::from(code_base) + 4 * i as u64) / u64::from(c.block_bytes);
        MipsTimer {
            cfg,
            issue: (0..n as u32).map(|i| issue_cost(cfg, func, InstId(i))).collect(),
            cycles: 0,
            dcache: CacheSystem::new(cfg.dcache),
            icache,
            code_base,
            resident: block(n.saturating_sub(1)) - block(0) < u64::from(c.lines),
            fetch_bank: vec![None; n],
        }
    }
}

impl ExecHooks for MipsTimer<'_> {
    fn on_inst(&mut self, _func: &Function, inst: InstId) {
        // Instruction fetch: a miss stalls the front end. A fetch from a
        // line that stays filled hits, so it is booked without a lookup.
        let done = match self.fetch_bank[inst.index()] {
            Some(bank) => self.icache.book_hit(self.cycles, bank as usize),
            None => {
                let pc = self.code_base + inst.0 * 4;
                if self.resident {
                    let c = self.icache.config();
                    self.fetch_bank[inst.index()] = Some(pc / c.block_bytes % c.banks);
                }
                self.icache.request(self.cycles, pc)
            }
        };
        if done > self.cycles + u64::from(self.cfg.icache.hit_latency) {
            self.cycles = done;
        }
        self.cycles += self.issue[inst.index()];
    }

    fn on_mem(&mut self, addr: u32, _size: u32, _store: bool) {
        // The soft core blocks on every data access (no load/store queue):
        // a hit costs the cache latency, a miss the full fill.
        let done = self.dcache.request(self.cycles, addr);
        self.cycles = self.cycles.max(done);
    }

    fn on_branch(&mut self, taken: bool) {
        if taken {
            self.cycles += self.cfg.branch_taken;
        }
    }
}

/// Run `func` on the MIPS timing model.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use cgpa_ir::{builder::FunctionBuilder, Ty};
/// use cgpa_sim::mips::{run_mips, MipsConfig};
/// use cgpa_sim::{SimMemory, Value};
///
/// let mut b = FunctionBuilder::new("peek", &[("p", Ty::Ptr)], Some(Ty::I32));
/// let p = b.param(0);
/// let x = b.load(p, Ty::I32);
/// b.ret(Some(x));
/// let f = b.finish()?;
///
/// let mut mem = SimMemory::new(4096);
/// let a = mem.alloc(4, 4);
/// mem.write_i32(a, 7);
/// let run = run_mips(&f, &[Value::Ptr(a)], &mut mem, 1000, &MipsConfig::default())?;
/// assert_eq!(run.ret, Some(Value::I32(7)));
/// assert!(run.cycles >= 24); // the cold miss dominates
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Forwards interpreter errors ([`InterpError`]).
pub fn run_mips(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    cfg: &MipsConfig,
) -> Result<MipsRun, InterpError> {
    let mut timer = MipsTimer::new(func, cfg);
    let (ret, instructions) = run_function(func, args, mem, fuel, &mut timer)?;
    Ok(MipsRun {
        cycles: timer.cycles,
        instructions,
        ret,
        dcache: timer.dcache.stats,
        icache: timer.icache.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};

    fn stride_loop(stride: u32) -> Function {
        // for (i = 0; i < n; i++) s += a[i*stride];
        let mut b = FunctionBuilder::new("s", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::F64));
        let a = b.param(0);
        let n = b.param(1);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let zf = b.const_f64(0.0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let s = b.phi(Ty::F64, "s");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.gep(a, i, stride, 0);
        let x = b.load(p, Ty::F64);
        let s2 = b.binary(BinOp::FAdd, s, x);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(s));
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(s, b.entry_block(), zf);
        b.add_phi_incoming(s, body, s2);
        b.finish().unwrap()
    }

    #[test]
    fn timed_run_preserves_functional_result() {
        let f = stride_loop(8);
        let mut mem = SimMemory::new(1 << 20);
        let base = mem.alloc(8 * 100, 8);
        for i in 0..100 {
            mem.write_f64(base + i * 8, 1.0);
        }
        let run = run_mips(
            &f,
            &[Value::Ptr(base), Value::I32(100)],
            &mut mem,
            1_000_000,
            &MipsConfig::default(),
        )
        .unwrap();
        assert_eq!(run.ret, Some(Value::F64(100.0)));
        // More cycles than instructions: CPI > 1 on this core.
        assert!(run.cycles > run.instructions);
    }

    #[test]
    fn sparse_strides_miss_more_and_run_longer() {
        let mk = |stride: u32| {
            let f = stride_loop(stride);
            let mut mem = SimMemory::new(1 << 22);
            let base = mem.alloc(stride * 300 + 64, 8);
            for i in 0..300 {
                mem.write_f64(base + i * stride, 1.0);
            }
            run_mips(
                &f,
                &[Value::Ptr(base), Value::I32(300)],
                &mut mem,
                10_000_000,
                &MipsConfig::default(),
            )
            .unwrap()
        };
        let dense = mk(8); // 16 values per 128B block
        let sparse = mk(256); // every access a new block
        assert!(sparse.dcache.misses > dense.dcache.misses * 4);
        assert!(sparse.cycles > dense.cycles);
    }

    /// The per-fetch timer: one [`CacheSystem::request`] per instruction
    /// fetch, the reference for the timer's lookup-free resident fetches.
    struct PerFetch<'c>(MipsTimer<'c>);

    impl ExecHooks for PerFetch<'_> {
        fn on_inst(&mut self, _func: &Function, inst: InstId) {
            let t = &mut self.0;
            let done = t.icache.request(t.cycles, t.code_base + inst.0 * 4);
            if done > t.cycles + u64::from(t.cfg.icache.hit_latency) {
                t.cycles = done;
            }
            t.cycles += t.issue[inst.index()];
        }

        fn on_mem(&mut self, addr: u32, size: u32, store: bool) {
            self.0.on_mem(addr, size, store);
        }

        fn on_branch(&mut self, taken: bool) {
            self.0.on_branch(taken);
        }
    }

    /// I-cache geometries where the code fits, aliases, or shares a bank
    /// with itself: `run_mips` times every one exactly as one request per
    /// fetch does.
    #[test]
    fn resident_fetches_match_the_per_fetch_timer() {
        let mut paths = [false; 2];
        for stride in [8, 256] {
            let f = stride_loop(stride);
            for (lines, block_bytes, banks) in (1..=3)
                .flat_map(|l| [4, 128].map(|b| (l, b)))
                .flat_map(|(l, b)| [1, 2].map(|k| (l, b, k)))
                .chain([(512, 128, 1)])
            {
                let icache = CacheConfig { lines, block_bytes, banks, ..CacheConfig::default() };
                let cfg = MipsConfig { icache, ..MipsConfig::default() };
                let mut mem = SimMemory::new(1 << 22);
                let base = mem.alloc(stride * 64 + 64, 8);
                for i in 0..64 {
                    mem.write_f64(base + i * stride, f64::from(i));
                }
                let args = [Value::Ptr(base), Value::I32(64)];
                let mut reference = PerFetch(MipsTimer::new(&f, &cfg));
                paths[usize::from(reference.0.resident)] = true;
                let (ret, instructions) =
                    run_function(&f, &args, &mut mem.clone(), 1_000_000, &mut reference).unwrap();
                let run = run_mips(&f, &args, &mut mem, 1_000_000, &cfg).unwrap();
                let at = format!("stride {stride}, {icache:?}");
                assert_eq!(run.cycles, reference.0.cycles, "{at}");
                assert_eq!((run.ret, run.instructions), (ret, instructions), "{at}");
                assert_eq!(run.icache, reference.0.icache.stats, "{at}");
                assert_eq!(run.dcache, reference.0.dcache.stats, "{at}");
            }
        }
        assert_eq!(paths, [true, true], "both fetch paths run");
    }

    #[test]
    fn icache_warms_up() {
        let f = stride_loop(8);
        let mut mem = SimMemory::new(1 << 20);
        let base = mem.alloc(8 * 50, 8);
        let run = run_mips(
            &f,
            &[Value::Ptr(base), Value::I32(50)],
            &mut mem,
            1_000_000,
            &MipsConfig::default(),
        )
        .unwrap();
        // Tiny kernel: essentially all fetches hit after the first block.
        assert!(run.icache.hits > run.icache.misses * 20);
    }
}
