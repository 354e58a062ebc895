//! The SC88 execution core.
//!
//! One core drives every platform; platforms differ in cycle cost
//! modelling, debug visibility and peripheral fault injection, not in
//! architectural semantics — matching the paper's premise that the same
//! test code runs everywhere.

use advm_isa::{vector_entry_addr, AddrReg, BitSrc, DataReg, Insn, Psw, TrapKind, RESET_PC};
use advm_soc::memmap::STACK_TOP;

use crate::bus::{BusFault, SocBus};
use crate::savestate::{put_u32, put_u64, SaveReader, SaveStateError};
use crate::trace::ExecTrace;

/// Per-instruction cycle costs. Functional platforms use all-ones;
/// cycle-accurate platforms charge extra for memory, multiply and taken
/// control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of any instruction.
    pub base: u32,
    /// Extra cost of a memory access.
    pub mem: u32,
    /// Extra cost of a multiply.
    pub mul: u32,
    /// Extra cost of taken control flow.
    pub branch: u32,
    /// Global multiplier (gate-level simulation charges double).
    pub scale: u32,
}

impl CostModel {
    /// One cycle per instruction (golden model, accelerator, silicon).
    pub fn functional() -> Self {
        Self {
            base: 1,
            mem: 0,
            mul: 0,
            branch: 0,
            scale: 1,
        }
    }

    /// RTL-like pipeline costs.
    pub fn rtl() -> Self {
        Self {
            base: 1,
            mem: 1,
            mul: 3,
            branch: 2,
            scale: 1,
        }
    }

    /// Gate-level: RTL costs at half clock (doubled cycles).
    pub fn gate() -> Self {
        Self {
            base: 1,
            mem: 1,
            mul: 3,
            branch: 2,
            scale: 2,
        }
    }

    fn cost(&self, insn: &Insn, taken: bool) -> u32 {
        let mut c = self.base;
        if insn.touches_memory() {
            c += self.mem;
        }
        if matches!(insn, Insn::Mul { .. }) {
            c += self.mul;
        }
        if taken && insn.is_control_flow() {
            c += self.branch;
        }
        c * self.scale
    }
}

/// A non-recoverable execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FatalError {
    /// A trap fired but its vector-table entry is zero.
    UnhandledTrap {
        /// The trap cause.
        kind: TrapKind,
        /// PC at the time of the trap.
        at: u32,
    },
    /// A fault occurred while entering a trap handler (e.g. the stack
    /// pointer is pointing at ROM).
    DoubleFault {
        /// PC at the time of the second fault.
        at: u32,
    },
}

impl std::fmt::Display for FatalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FatalError::UnhandledTrap { kind, at } => {
                write!(f, "unhandled {kind} at pc {at:#07x}")
            }
            FatalError::DoubleFault { at } => write!(f, "double fault at pc {at:#07x}"),
        }
    }
}

/// The result of one [`Cpu::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired.
    Executed {
        /// Cycles consumed.
        cycles: u32,
        /// `DBG` marker tag, if the instruction was a debug marker.
        dbg: Option<u8>,
    },
    /// A `HALT` instruction retired; the platform stops.
    Halted {
        /// The halt code.
        code: u8,
    },
    /// Execution cannot continue.
    Fatal(FatalError),
}

/// Why a batched [`Cpu::run`] call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchExit {
    /// The test-bench mailbox's `SIM_END` register was written.
    SimEnd,
    /// A `HALT` instruction retired.
    Halted {
        /// The halt code.
        code: u8,
    },
    /// Execution hit a fatal condition (unhandled trap, double fault).
    Fatal(FatalError),
    /// The instruction budget was exhausted.
    OutOfFuel,
}

/// The SC88 CPU state.
#[derive(Debug, Clone)]
pub struct Cpu {
    d: [u32; 16],
    a: [u32; 16],
    pc: u32,
    psw: Psw,
    retired: u64,
}

impl Cpu {
    /// A CPU in the architectural reset state: `PC = RESET_PC`, the stack
    /// pointer (`a10`) at the top of RAM, interrupts disabled.
    pub fn new() -> Self {
        let mut cpu = Self {
            d: [0; 16],
            a: [0; 16],
            pc: RESET_PC,
            psw: Psw::new(),
            retired: 0,
        };
        cpu.a[AddrReg::SP.index() as usize] = STACK_TOP;
        cpu
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The status word.
    pub fn psw(&self) -> Psw {
        self.psw
    }

    /// Reads a data register.
    pub fn d(&self, reg: DataReg) -> u32 {
        self.d[reg.index() as usize]
    }

    /// Reads an address register.
    pub fn a(&self, reg: AddrReg) -> u32 {
        self.a[reg.index() as usize]
    }

    /// Instructions retired since reset.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Serializes the full register state (snapshot body).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        for v in self.d {
            put_u32(out, v);
        }
        for v in self.a {
            put_u32(out, v);
        }
        put_u32(out, self.pc);
        put_u32(out, self.psw.bits());
        put_u64(out, self.retired);
    }

    /// Restores register state from a snapshot body.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        for v in &mut self.d {
            *v = r.take_u32()?;
        }
        for v in &mut self.a {
            *v = r.take_u32()?;
        }
        self.pc = r.take_u32()?;
        self.psw = Psw::from_bits(r.take_u32()?);
        self.retired = r.take_u64()?;
        Ok(())
    }

    /// Appends the architectural (timing-free) register state for
    /// divergence digests.
    pub(crate) fn arch_bytes(&self, out: &mut Vec<u8>) {
        for v in self.d {
            put_u32(out, v);
        }
        for v in self.a {
            put_u32(out, v);
        }
        put_u32(out, self.pc);
        put_u32(out, self.psw.bits());
        put_u64(out, self.retired);
    }

    /// Executes one instruction (or takes one pending trap/interrupt).
    pub fn step(&mut self, bus: &mut SocBus, cost: &CostModel) -> StepOutcome {
        // Asynchronous causes first: watchdog (non-maskable), then IRQs.
        // The bus maintains a single hoisted attention flag, so the
        // no-async common case costs one predictable branch.
        if bus.async_pending() {
            if let Some(outcome) = self.take_async(bus, cost) {
                return outcome;
            }
        }

        let (_, insn) = match bus.fetch_decoded(self.pc) {
            Ok(fetched) => fetched,
            Err(fault) => return self.fault_to_trap(bus, fault),
        };
        let Some(insn) = insn else {
            return match self.enter_trap(bus, TrapKind::IllegalInsn, self.pc + 4) {
                Ok(()) => StepOutcome::Executed {
                    cycles: cost.base * cost.scale,
                    dbg: None,
                },
                Err(fatal) => StepOutcome::Fatal(fatal),
            };
        };
        self.exec(bus, cost, insn)
    }

    /// Takes one pending asynchronous cause, if any: watchdog bite
    /// (non-maskable) first, then the lowest pending enabled IRQ.
    fn take_async(&mut self, bus: &mut SocBus, cost: &CostModel) -> Option<StepOutcome> {
        if bus.take_watchdog_bite() {
            return Some(match self.enter_trap(bus, TrapKind::Watchdog, self.pc) {
                Ok(()) => StepOutcome::Executed {
                    cycles: cost.base * cost.scale,
                    dbg: None,
                },
                Err(fatal) => StepOutcome::Fatal(fatal),
            });
        }
        if self.psw.interrupts_enabled() {
            if let Some(line) = bus.pending_irq() {
                return Some(match self.enter_trap(bus, TrapKind::Irq(line), self.pc) {
                    Ok(()) => StepOutcome::Executed {
                        cycles: cost.base * cost.scale,
                        dbg: None,
                    },
                    Err(fatal) => StepOutcome::Fatal(fatal),
                });
            }
        }
        None
    }

    /// Runs until the mailbox ends the simulation, a `HALT` retires, a
    /// fatal condition hits, or `fuel` further instructions have retired
    /// — the batched alternative to calling [`Cpu::step`] in a loop,
    /// with the end-of-run and asynchronous-cause checks hoisted to one
    /// cheap test each per instruction, and to one test *per superblock*
    /// on the straight-line fast path.
    ///
    /// `fuel == 0` returns [`BatchExit::OutOfFuel`] immediately without
    /// retiring anything, and the budget is tracked as a countdown, so
    /// it is exact even when the retired counter sits near `u64::MAX`.
    ///
    /// Time advances by each retired instruction's cycle cost, exactly
    /// as the per-step loop does.
    pub fn run(&mut self, bus: &mut SocBus, cost: &CostModel, fuel: u64) -> BatchExit {
        self.run_observed(bus, cost, fuel, None, None)
    }

    /// [`Cpu::run`] with observation hooks: `trace` records each retired
    /// `(pc, word)` (exactly as the legacy per-step driver did), `dbg`
    /// collects `DBG` marker tags.
    ///
    /// With no trace armed, straight-line runs of bus-free instructions
    /// dispatch as whole superblocks: the sim-end/fuel/async/timing
    /// checks move to block boundaries, and time advances once per block
    /// by the summed cycle cost. Nothing inside a block can touch the
    /// bus, so the architectural stream — including every MMIO
    /// timestamp — is identical to per-instruction stepping; a fuel
    /// budget smaller than the block clamps the dispatch, never
    /// overshooting mid-block. Tracing, pending asynchronous causes and
    /// active timing all fall back to the per-word path, where each
    /// instruction is observed individually.
    pub(crate) fn run_observed(
        &mut self,
        bus: &mut SocBus,
        cost: &CostModel,
        fuel: u64,
        mut trace: Option<&mut ExecTrace>,
        mut dbg: Option<&mut Vec<u8>>,
    ) -> BatchExit {
        // A countdown, not a `retired + fuel` limit: the additive limit
        // saturates near `u64::MAX` and spins forever.
        let mut left = fuel;
        // Hoisted: tracing and the tier switch are fixed for the whole
        // call (runtime configuration, never toggled mid-run), so the
        // per-instruction modes skip the block branch entirely.
        let blocks_ok = trace.is_none() && bus.superblocks_enabled();
        // One-entry dispatch cache: hot loops re-enter the same block
        // back to back, so the map lookup and `Arc` clone inside
        // `superblock_at` are paid once per (pc, invalidation epoch),
        // not once per dispatch. The generation check keeps a cached
        // block from surviving any invalidation, including an NVM
        // commit inside `advance`.
        let mut cached: Option<std::sync::Arc<crate::decoded::Superblock>> = None;
        let mut cached_pc = 0u32;
        let mut cached_gen = 0u64;
        loop {
            if bus.mailbox().sim_ended() {
                return BatchExit::SimEnd;
            }
            if left == 0 {
                return BatchExit::OutOfFuel;
            }
            if blocks_ok && !bus.async_pending() && !bus.timing_active() {
                let generation = bus.decode_generation();
                if cached.is_none() || cached_pc != self.pc || cached_gen != generation {
                    cached = bus.superblock_at(self.pc);
                    cached_pc = self.pc;
                    cached_gen = generation;
                }
                if let Some(block) = &cached {
                    let n = (block.len() as u64).min(left) as usize;
                    let (retired, cycles) = self.exec_block(&block.insns()[..n], cost, &mut dbg);
                    debug_assert!(
                        retired <= left,
                        "superblock dispatch overshot the fuel budget"
                    );
                    if retired > 0 {
                        left = left.saturating_sub(retired);
                        bus.advance(cycles);
                        bus.note_block_dispatch(retired);
                        continue;
                    }
                    // Defensive: the block's first instruction is not
                    // pure-executable (classifier drift). Fall through
                    // to the per-instruction path, which executes it
                    // correctly.
                }
            }
            if let Some(trace) = trace.as_deref_mut() {
                if let Ok(word) = bus.read32(self.pc) {
                    trace.record(self.pc, word);
                }
            }
            let before = self.retired;
            match self.step(bus, cost) {
                StepOutcome::Executed {
                    cycles,
                    dbg: marker,
                } => {
                    bus.advance(u64::from(cycles));
                    if let (Some(tag), Some(sink)) = (marker, dbg.as_deref_mut()) {
                        sink.push(tag);
                    }
                    // Trap/interrupt entries retire nothing and consume
                    // no fuel, exactly as the additive limit behaved.
                    left = left.saturating_sub(self.retired.wrapping_sub(before));
                }
                StepOutcome::Halted { code } => return BatchExit::Halted { code },
                StepOutcome::Fatal(fatal) => return BatchExit::Fatal(fatal),
            }
        }
    }

    /// Executes one bus-free instruction: pure register/PSW writes that
    /// never read the pc, touch the bus, trap, or retire specially.
    /// This is every block-eligible instruction except `DBG` (which
    /// carries a marker the caller must route). The pc/retired update
    /// is the caller's — [`Cpu::exec`] retires one, [`Cpu::exec_block`]
    /// batches a whole block. Returns `Some(is_mul)` when handled
    /// (`is_mul` selects the block executor's cycle class), `None`
    /// otherwise.
    #[inline(always)]
    fn exec_pure(&mut self, insn: &Insn) -> Option<bool> {
        match *insn {
            Insn::Nop => {}
            Insn::MovI { rd, imm } => self.d[rd.index() as usize] = u32::from(imm),
            Insn::MovHi { rd, imm } => {
                let r = &mut self.d[rd.index() as usize];
                *r = (u32::from(imm) << 16) | (*r & 0xFFFF);
            }
            Insn::Mov { rd, ra } => self.d[rd.index() as usize] = self.d(ra),
            Insn::MovDa { rd, ab } => self.d[rd.index() as usize] = self.a(ab),
            Insn::MovAd { ad, rb } => self.a[ad.index() as usize] = self.d(rb),
            Insn::MovAa { ad, ab } => self.a[ad.index() as usize] = self.a(ab),
            Insn::Lea { ad, addr } => self.a[ad.index() as usize] = addr,
            Insn::Add { rd, ra, rb } => {
                let (r, c) = self.d(ra).overflowing_add(self.d(rb));
                let v = (self.d(ra) as i32).overflowing_add(self.d(rb) as i32).1;
                self.set_arith(rd, r, c, v);
            }
            Insn::AddI { rd, ra, imm } => {
                let b = i32::from(imm) as u32;
                let (r, c) = self.d(ra).overflowing_add(b);
                let v = (self.d(ra) as i32).overflowing_add(i32::from(imm)).1;
                self.set_arith(rd, r, c, v);
            }
            Insn::Sub { rd, ra, rb } => {
                let (r, c) = self.d(ra).overflowing_sub(self.d(rb));
                let v = (self.d(ra) as i32).overflowing_sub(self.d(rb) as i32).1;
                self.set_arith(rd, r, c, v);
            }
            Insn::Mul { rd, ra, rb } => {
                let r = self.d(ra).wrapping_mul(self.d(rb));
                self.set_logic(rd, r);
                return Some(true);
            }
            Insn::And { rd, ra, rb } => {
                let r = self.d(ra) & self.d(rb);
                self.set_logic(rd, r);
            }
            Insn::AndI { rd, ra, imm } => {
                let r = self.d(ra) & u32::from(imm);
                self.set_logic(rd, r);
            }
            Insn::Or { rd, ra, rb } => {
                let r = self.d(ra) | self.d(rb);
                self.set_logic(rd, r);
            }
            Insn::OrI { rd, ra, imm } => {
                let r = self.d(ra) | u32::from(imm);
                self.set_logic(rd, r);
            }
            Insn::Xor { rd, ra, rb } => {
                let r = self.d(ra) ^ self.d(rb);
                self.set_logic(rd, r);
            }
            Insn::XorI { rd, ra, imm } => {
                let r = self.d(ra) ^ u32::from(imm);
                self.set_logic(rd, r);
            }
            Insn::Shl { rd, ra, rb } => {
                let r = self.d(ra).wrapping_shl(self.d(rb) & 31);
                self.set_logic(rd, r);
            }
            Insn::ShlI { rd, ra, sh } => {
                let r = self.d(ra).wrapping_shl(u32::from(sh));
                self.set_logic(rd, r);
            }
            Insn::Shr { rd, ra, rb } => {
                let r = self.d(ra).wrapping_shr(self.d(rb) & 31);
                self.set_logic(rd, r);
            }
            Insn::ShrI { rd, ra, sh } => {
                let r = self.d(ra).wrapping_shr(u32::from(sh));
                self.set_logic(rd, r);
            }
            Insn::SarI { rd, ra, sh } => {
                let r = ((self.d(ra) as i32) >> sh) as u32;
                self.set_logic(rd, r);
            }
            Insn::Not { rd, ra } => {
                let r = !self.d(ra);
                self.set_logic(rd, r);
            }
            Insn::Neg { rd, ra } => {
                let (r, c) = 0u32.overflowing_sub(self.d(ra));
                let v = 0i32.overflowing_sub(self.d(ra) as i32).1;
                self.set_arith(rd, r, c, v);
            }
            Insn::Cmp { ra, rb } => self.psw.set_compare(self.d(ra), self.d(rb)),
            Insn::CmpI { ra, imm } => self.psw.set_compare(self.d(ra), i32::from(imm) as u32),
            Insn::Insert {
                rd,
                ra,
                src,
                pos,
                width,
            } => {
                let value = match src {
                    BitSrc::Reg(r) => self.d(r),
                    BitSrc::Imm(v) => u32::from(v),
                };
                let mask = if width == 32 {
                    u32::MAX
                } else {
                    (1u32 << width) - 1
                };
                let r = (self.d(ra) & !(mask << pos)) | ((value & mask) << pos);
                self.set_logic(rd, r);
            }
            Insn::Extract { rd, ra, pos, width } => {
                let mask = if width == 32 {
                    u32::MAX
                } else {
                    (1u32 << width) - 1
                };
                let r = (self.d(ra) >> pos) & mask;
                self.set_logic(rd, r);
            }
            Insn::Ei => self.psw.set_interrupts_enabled(true),
            Insn::Di => self.psw.set_interrupts_enabled(false),
            Insn::AddA { ad, imm } => {
                let r = self.a(ad).wrapping_add_signed(i32::from(imm));
                self.a[ad.index() as usize] = r;
            }
            _ => return None,
        }
        Some(false)
    }

    /// Executes up to `insns.len()` leading instructions of a
    /// superblock in a tight bus-free loop: one batched pc/retired
    /// update, O(1)-per-instruction cycle accounting (pure instructions
    /// cost `base`, multiplies `base + mul`, the trailing branch adds
    /// `branch` when taken — all scaled, exactly [`CostModel::cost`]
    /// restricted to bus-free instructions), and `DBG` tags pushed
    /// straight into the sink. The caller clamps `insns` to the fuel
    /// budget, so the dispatch can never overshoot. Stops after a
    /// terminator, and stops *before* any instruction the pure path
    /// cannot execute — the defensive exit for classifier drift: the
    /// per-instruction path picks that instruction up, so nothing is
    /// lost or double-executed. Returns `(retired, cycles)`.
    fn exec_block(
        &mut self,
        insns: &[Insn],
        cost: &CostModel,
        dbg: &mut Option<&mut Vec<u8>>,
    ) -> (u64, u64) {
        let pure_cost = u64::from(cost.base * cost.scale);
        let mul_extra = u64::from(cost.mul * cost.scale);
        let branch_extra = u64::from(cost.branch * cost.scale);
        let mut cycles = 0u64;
        let mut jumped = None;
        let mut done = 0usize;
        for insn in insns {
            if let Some(is_mul) = self.exec_pure(insn) {
                cycles += pure_cost + if is_mul { mul_extra } else { 0 };
                done += 1;
                continue;
            }
            match *insn {
                Insn::Dbg { tag } => {
                    if let Some(sink) = dbg.as_deref_mut() {
                        sink.push(tag);
                    }
                    cycles += pure_cost;
                    done += 1;
                }
                Insn::Jmp { target } => {
                    cycles += pure_cost + branch_extra;
                    done += 1;
                    jumped = Some(target);
                    break;
                }
                Insn::J { cond, target } => {
                    if cond.holds(self.psw) {
                        cycles += pure_cost + branch_extra;
                        jumped = Some(target);
                    } else {
                        cycles += pure_cost;
                    }
                    done += 1;
                    break;
                }
                _ => break,
            }
        }
        // Pure instructions never read the pc, so the whole prefix
        // advances it in one batch: the taken branch target, or
        // fall-through past everything retired.
        self.pc = jumped.unwrap_or(self.pc.wrapping_add(4 * done as u32));
        self.retired = self.retired.wrapping_add(done as u64);
        (done as u64, cycles)
    }

    /// Executes one decoded instruction.
    fn exec(&mut self, bus: &mut SocBus, cost: &CostModel, insn: Insn) -> StepOutcome {
        // Bus-free register/PSW operations — the bulk of any stream —
        // share the superblock executor's pure path and retire here.
        // `is_mul` already encodes the only cost distinction among pure
        // instructions, so the generic cost match is skipped.
        if let Some(is_mul) = self.exec_pure(&insn) {
            self.pc += 4;
            self.retired = self.retired.wrapping_add(1);
            return StepOutcome::Executed {
                cycles: (cost.base + if is_mul { cost.mul } else { 0 }) * cost.scale,
                dbg: None,
            };
        }

        let mut next_pc = self.pc + 4;
        let mut taken = false;
        let mut dbg = None;

        macro_rules! bus_try {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => return self.fault_to_trap(bus, fault),
                }
            };
        }

        match insn {
            Insn::Halt { code } => {
                self.retired = self.retired.wrapping_add(1);
                return StepOutcome::Halted { code };
            }
            Insn::Trap { vector } => {
                self.retired = self.retired.wrapping_add(1);
                return match self.enter_trap(bus, TrapKind::Software(vector), self.pc + 4) {
                    Ok(()) => StepOutcome::Executed {
                        cycles: cost.cost(&insn, true),
                        dbg: None,
                    },
                    Err(fatal) => StepOutcome::Fatal(fatal),
                };
            }
            Insn::Dbg { tag } => dbg = Some(tag),
            Insn::Ld { rd, ab, off } => {
                let addr = self.a(ab).wrapping_add_signed(i32::from(off));
                self.d[rd.index() as usize] = bus_try!(bus.read32(addr));
            }
            Insn::LdB { rd, ab, off } => {
                let addr = self.a(ab).wrapping_add_signed(i32::from(off));
                self.d[rd.index() as usize] = u32::from(bus_try!(bus.read8(addr)));
            }
            Insn::St { ab, off, rs } => {
                let addr = self.a(ab).wrapping_add_signed(i32::from(off));
                bus_try!(bus.write32(addr, self.d(rs)));
            }
            Insn::StB { ab, off, rs } => {
                let addr = self.a(ab).wrapping_add_signed(i32::from(off));
                bus_try!(bus.write8(addr, (self.d(rs) & 0xFF) as u8));
            }
            Insn::LdAbs { rd, addr } => self.d[rd.index() as usize] = bus_try!(bus.read32(addr)),
            Insn::StAbs { addr, rs } => bus_try!(bus.write32(addr, self.d(rs))),
            Insn::Jmp { target } => {
                next_pc = target;
                taken = true;
            }
            Insn::J { cond, target } => {
                if cond.holds(self.psw) {
                    next_pc = target;
                    taken = true;
                }
            }
            Insn::Call { target } => {
                bus_try!(self.push(bus, self.pc + 4));
                next_pc = target;
                taken = true;
            }
            Insn::CallR { ab } => {
                bus_try!(self.push(bus, self.pc + 4));
                next_pc = self.a(ab);
                taken = true;
            }
            Insn::Ret => {
                next_pc = bus_try!(self.pop(bus));
                taken = true;
            }
            Insn::RetI => {
                let psw_bits = bus_try!(self.pop(bus));
                self.psw = Psw::from_bits(psw_bits);
                next_pc = bus_try!(self.pop(bus));
                taken = true;
            }
            Insn::Push { rs } => bus_try!(self.push(bus, self.d(rs))),
            Insn::Pop { rd } => {
                let v = bus_try!(self.pop(bus));
                self.d[rd.index() as usize] = v;
            }
            Insn::PushA { ab } => bus_try!(self.push(bus, self.a(ab))),
            Insn::PopA { ad } => {
                let v = bus_try!(self.pop(bus));
                self.a[ad.index() as usize] = v;
            }
            // Everything bus-free already retired through `exec_pure`.
            other => unreachable!("exec_pure must cover {other:?}"),
        }

        self.pc = next_pc;
        self.retired = self.retired.wrapping_add(1);
        StepOutcome::Executed {
            cycles: cost.cost(&insn, taken),
            dbg,
        }
    }

    fn set_arith(&mut self, rd: DataReg, result: u32, carry: bool, overflow: bool) {
        self.d[rd.index() as usize] = result;
        self.psw.set_zn(result);
        self.psw.set_carry(carry);
        self.psw.set_overflow(overflow);
    }

    fn set_logic(&mut self, rd: DataReg, result: u32) {
        self.d[rd.index() as usize] = result;
        self.psw.set_zn(result);
    }

    fn push(&mut self, bus: &mut SocBus, value: u32) -> Result<(), BusFault> {
        let sp = self.a(AddrReg::SP).wrapping_sub(4);
        bus.write32(sp, value)?;
        self.a[AddrReg::SP.index() as usize] = sp;
        Ok(())
    }

    fn pop(&mut self, bus: &mut SocBus) -> Result<u32, BusFault> {
        let sp = self.a(AddrReg::SP);
        let value = bus.read32(sp)?;
        self.a[AddrReg::SP.index() as usize] = sp.wrapping_add(4);
        Ok(value)
    }

    fn fault_to_trap(&mut self, bus: &mut SocBus, fault: BusFault) -> StepOutcome {
        let kind = match fault {
            BusFault::Misaligned(_) => TrapKind::Misaligned,
            _ => TrapKind::BusError,
        };
        match self.enter_trap(bus, kind, self.pc + 4) {
            Ok(()) => StepOutcome::Executed {
                cycles: 1,
                dbg: None,
            },
            Err(fatal) => StepOutcome::Fatal(fatal),
        }
    }

    fn enter_trap(
        &mut self,
        bus: &mut SocBus,
        kind: TrapKind,
        return_pc: u32,
    ) -> Result<(), FatalError> {
        let vector = kind.vector();
        let handler = bus
            .read32(vector_entry_addr(vector))
            .map_err(|_| FatalError::DoubleFault { at: self.pc })?;
        if handler == 0 {
            return Err(FatalError::UnhandledTrap { kind, at: self.pc });
        }
        self.push(bus, return_pc)
            .map_err(|_| FatalError::DoubleFault { at: self.pc })?;
        self.push(bus, self.psw.bits())
            .map_err(|_| FatalError::DoubleFault { at: self.pc })?;
        self.psw.set_interrupts_enabled(false);
        self.pc = handler;
        Ok(())
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use advm_soc::{Derivative, PlatformId};

    use crate::fault::PlatformFault;

    use super::*;

    fn machine(asm: &str) -> (Cpu, SocBus) {
        let program = advm_asm::assemble_str(asm).unwrap_or_else(|e| panic!("{e}"));
        let mut image = advm_asm::Image::new();
        image.load_program(&program).unwrap();
        let mut bus = SocBus::new(
            &Derivative::sc88a(),
            PlatformId::GoldenModel,
            PlatformFault::None,
        );
        bus.load_image(&image);
        (Cpu::new(), bus)
    }

    fn run_until_halt(cpu: &mut Cpu, bus: &mut SocBus, max: u64) -> u8 {
        let cost = CostModel::functional();
        for _ in 0..max {
            match cpu.step(bus, &cost) {
                StepOutcome::Executed { cycles, .. } => bus.advance(u64::from(cycles)),
                StepOutcome::Halted { code } => return code,
                StepOutcome::Fatal(f) => panic!("fatal: {f}"),
            }
        }
        panic!("did not halt in {max} steps");
    }

    #[test]
    fn reset_state() {
        let cpu = Cpu::new();
        assert_eq!(cpu.pc(), RESET_PC);
        assert_eq!(cpu.a(AddrReg::SP), STACK_TOP);
        assert!(!cpu.psw().interrupts_enabled());
    }

    #[test]
    fn arithmetic_and_flags() {
        let (mut cpu, mut bus) = machine(
            "\
LOAD d1, #10
LOAD d2, #3
SUB d3, d1, d2
HALT #0
",
        );
        run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(cpu.d(DataReg::D3), 7);
        assert!(!cpu.psw().zero());
        assert!(!cpu.psw().carry());
    }

    #[test]
    fn paper_insert_sequence_executes() {
        // The Figure 6 data-value construction: page 8 into a 5-bit field
        // at bit 0, with ENABLE at bit 8.
        let (mut cpu, mut bus) = machine(
            "\
MOVI d14, #0
INSERT d14, d14, #8, 0, 5
ORI d14, d14, #0x100
STORE [0xE0100], d14
LOAD d1, [0xE0104]
HALT #0
",
        );
        run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(cpu.d(DataReg::D14), 0x108);
        assert_eq!(cpu.d(DataReg::D1) & 0x1F, 8, "ACTIVE_PAGE reads back");
    }

    #[test]
    fn call_and_return_via_stack() {
        let (mut cpu, mut bus) = machine(
            "\
_main:
    CALL fn
    HALT #7
fn:
    LOAD d5, #42
    RETURN
",
        );
        let code = run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(code, 7);
        assert_eq!(cpu.d(DataReg::D5), 42);
        assert_eq!(cpu.a(AddrReg::SP), STACK_TOP, "stack balanced");
    }

    #[test]
    fn call_through_register_like_figure7() {
        let (mut cpu, mut bus) = machine(
            "\
_main:
    LOAD a12, fn
    CALL a12
    HALT #0
fn:
    LOAD d5, #9
    RETURN
",
        );
        run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(cpu.d(DataReg::D5), 9);
    }

    #[test]
    fn software_trap_dispatches_through_vector() {
        let (mut cpu, mut bus) = machine(
            "\
.ORG 0x0
.WORD 0, 0, 0, 0, 0, 0, 0, 0, 0, handler
.ORG 0x100
_main:
    TRAP #9
    HALT #1
handler:
    LOAD d6, #0xAB
    RETI
",
        );
        let code = run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(code, 1, "returned after RETI and hit HALT");
        assert_eq!(cpu.d(DataReg::D6), 0xAB);
    }

    #[test]
    fn unhandled_trap_is_fatal() {
        let (mut cpu, mut bus) = machine("TRAP #9\nHALT #0\n");
        let cost = CostModel::functional();
        match cpu.step(&mut bus, &cost) {
            StepOutcome::Fatal(FatalError::UnhandledTrap { kind, .. }) => {
                assert_eq!(kind, TrapKind::Software(9));
            }
            other => panic!("expected fatal, got {other:?}"),
        }
    }

    #[test]
    fn illegal_instruction_traps() {
        let (mut cpu, mut bus) = machine(
            "\
.ORG 0x0
.WORD 0, handler
.ORG 0x100
_main:
    .WORD 0xFFFFFFFF
    HALT #1
handler:
    HALT #2
",
        );
        let code = run_until_halt(&mut cpu, &mut bus, 10);
        assert_eq!(code, 2, "illegal word vectored to handler");
    }

    #[test]
    fn interrupt_taken_when_enabled() {
        let (mut cpu, mut bus) = machine(
            "\
.ORG 0x0
.WORD 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, isr
.ORG 0x100
_main:
    STORE [0xE0300], d0      ; INTC ENABLE = 0 first; set below
    LOAD d1, #1
    STORE [0xE0300], d1      ; enable line 0
    LOAD d2, #3
    STORE [0xE0204], d2      ; TIMER LOAD = 3
    LOAD d3, #3
    STORE [0xE0200], d3      ; TIMER EN|IE
    EI
spin:
    JMP spin
isr:
    HALT #5
",
        );
        let code = run_until_halt(&mut cpu, &mut bus, 1000);
        assert_eq!(code, 5, "timer interrupt reached the ISR");
    }

    #[test]
    fn interrupts_masked_when_disabled() {
        let (mut cpu, mut bus) = machine(
            "\
_main:
    LOAD d1, #1
    STORE [0xE0300], d1
    LOAD d2, #2
    STORE [0xE0204], d2
    LOAD d3, #3
    STORE [0xE0200], d3
    NOP
    NOP
    NOP
    NOP
    NOP
    HALT #0
",
        );
        // IE never set: the pending IRQ must not fire.
        let code = run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(code, 0);
    }

    #[test]
    fn watchdog_is_nonmaskable() {
        let (mut cpu, mut bus) = machine(
            "\
.ORG 0x0
.WORD 0, 0, 0, 0, wdt_isr
.ORG 0x100
_main:
    LOAD d1, #5
    STORE [0xE0408], d1      ; WDT PERIOD = 5
    LOAD d1, #1
    STORE [0xE0400], d1      ; WDT EN (interrupts NOT enabled)
spin:
    JMP spin
wdt_isr:
    HALT #9
",
        );
        let code = run_until_halt(&mut cpu, &mut bus, 1000);
        assert_eq!(code, 9, "watchdog fires with IE clear");
    }

    #[test]
    fn cycle_model_charges_more_on_rtl() {
        let functional = CostModel::functional();
        let rtl = CostModel::rtl();
        let gate = CostModel::gate();
        let mul = Insn::Mul {
            rd: DataReg::D0,
            ra: DataReg::D0,
            rb: DataReg::D0,
        };
        assert_eq!(functional.cost(&mul, false), 1);
        assert_eq!(rtl.cost(&mul, false), 4);
        assert_eq!(gate.cost(&mul, false), 8);
        let jmp = Insn::Jmp { target: 0 };
        assert_eq!(rtl.cost(&jmp, true), 3);
        assert_eq!(rtl.cost(&jmp, false), 1);
    }

    #[test]
    fn adda_adjusts_pointer() {
        let (mut cpu, mut bus) = machine(
            "\
LOAD a4, #0x40000
ADDA a4, #8
ADDA a4, #-4
HALT #0
",
        );
        run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(cpu.a(AddrReg::A4), 0x40004);
    }

    #[test]
    fn byte_load_store() {
        let (mut cpu, mut bus) = machine(
            "\
LOAD a4, #0x40000
LOAD d1, #0x1FF
STB [a4], d1
LDB d2, [a4]
HALT #0
",
        );
        run_until_halt(&mut cpu, &mut bus, 100);
        assert_eq!(
            cpu.d(DataReg::D2),
            0xFF,
            "byte store truncates, load zero-extends"
        );
    }

    #[test]
    fn fuel_zero_returns_without_retiring() {
        let (mut cpu, mut bus) = machine("LOAD d1, #1\nHALT #0\n");
        let cost = CostModel::functional();
        let pc = cpu.pc();
        assert_eq!(cpu.run(&mut bus, &cost, 0), BatchExit::OutOfFuel);
        assert_eq!(cpu.retired(), 0, "fuel == 0 must retire nothing");
        assert_eq!(cpu.pc(), pc, "fuel == 0 must not move the pc");
        assert_eq!(cpu.d(DataReg::D1), 0);
    }

    #[test]
    fn fuel_limit_terminates_near_u64_max() {
        // The old `retired.saturating_add(fuel)` limit saturated at
        // `u64::MAX` here and the run loop spun forever on a program
        // that never halts. The countdown budget stays exact.
        let (mut cpu, mut bus) = machine("spin:\n    JMP spin\n");
        cpu.retired = u64::MAX - 2;
        let cost = CostModel::functional();
        assert_eq!(cpu.run(&mut bus, &cost, 7), BatchExit::OutOfFuel);
        assert_eq!(cpu.retired(), (u64::MAX - 2).wrapping_add(7));
    }

    #[test]
    fn near_u64_max_halt_still_wins_over_fuel() {
        let (mut cpu, mut bus) = machine("NOP\nNOP\nHALT #3\n");
        cpu.retired = u64::MAX - 1;
        let cost = CostModel::functional();
        assert_eq!(cpu.run(&mut bus, &cost, 100), BatchExit::Halted { code: 3 });
        assert_eq!(cpu.retired(), (u64::MAX - 1).wrapping_add(3));
    }

    #[test]
    fn superblock_dispatch_clamps_to_fuel_mid_block() {
        // Ten straight-line ALU instructions form one superblock; a
        // budget of 3 must stop exactly 3 instructions in, not at the
        // block boundary.
        let (mut cpu, mut bus) = machine(
            "\
_main:
    MOVI d1, #1
    MOVI d2, #2
    MOVI d3, #3
    MOVI d4, #4
    MOVI d5, #5
    MOVI d6, #6
    MOVI d7, #7
    ADD d1, d1, d2
    XOR d2, d2, d3
    SUB d3, d3, d4
    HALT #0
",
        );
        assert!(bus.superblocks_enabled());
        let cost = CostModel::functional();
        assert_eq!(cpu.run(&mut bus, &cost, 3), BatchExit::OutOfFuel);
        assert_eq!(cpu.retired(), 3, "clamped mid-block, no overshoot");
        assert_eq!(cpu.d(DataReg::D3), 3);
        assert_eq!(cpu.d(DataReg::D4), 0, "fourth insn must not execute");
        // Resuming with ample fuel finishes the program normally.
        assert_eq!(
            cpu.run(&mut bus, &cost, 1_000),
            BatchExit::Halted { code: 0 }
        );
        assert_eq!(cpu.d(DataReg::D3), 0xFFFF_FFFF, "3 - 4 wrapped");
    }
}
