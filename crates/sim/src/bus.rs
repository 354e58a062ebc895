//! The SoC bus: memory regions plus derivative-placed peripherals.
//!
//! The bus is constructed from a [`Derivative`], so peripheral base
//! addresses (the UART moves on SC88-D) and bit-field geometry (the page
//! field moves/widens on SC88-B/C) are *hardware properties*, not just
//! documentation. A test built against the wrong `Globals.inc` touches
//! the wrong addresses or bits and fails — which is exactly the behaviour
//! the methodology's experiments need to observe.
//!
//! What a bus holds is sized to what its run touches: ROM, RAM and NVM
//! are paged tables (see `paged`, crate-internal) holding only the pages
//! an image load, store or NVM program wrote, and the derivative's
//! peripheral windows and page-field geometry are read from a wiring
//! built once per catalogued derivative.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

use advm_isa::Insn;
use advm_soc::memmap::{MemoryMap, NVM_SIZE, NVM_START, RAM_SIZE, RAM_START, ROM_SIZE, ROM_START};
use advm_soc::testbench::PlatformId;
use advm_soc::{Derivative, DerivativeId, Field, RegionKind};

use crate::decoded::{DecodeCache, DecodeStats, DecodedProgram, ExecRegion, Superblock};
use crate::fault::{PlatformFault, BUS_WAIT_STATE_CYCLES};
use crate::paged::Memory;
use crate::periph::{
    timer::TIMER_IRQ_LINE, CrcUnit, Intc, MailboxDevice, NvmController, PageModule, Timer, Uart,
    Watchdog,
};
use crate::savestate::{put_bool, put_u32, put_u64, SaveReader, SaveStateError};
use crate::trace::{MmioEvent, MmioTrace};

/// A bus access fault, mapped to a CPU trap by the execution core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusFault {
    /// No region or peripheral claims the address.
    Unmapped(u32),
    /// Word access to a non-word-aligned address.
    Misaligned(u32),
    /// Store to ROM or directly to NVM.
    ReadOnly(u32),
    /// Byte-wide access to a word-only MMIO register.
    ByteAccessToMmio(u32),
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusFault::Unmapped(a) => write!(f, "unmapped address {a:#07x}"),
            BusFault::Misaligned(a) => write!(f, "misaligned access at {a:#07x}"),
            BusFault::ReadOnly(a) => write!(f, "store to read-only memory at {a:#07x}"),
            BusFault::ByteAccessToMmio(a) => write!(f, "byte access to MMIO at {a:#07x}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Periph {
    Uart,
    Page,
    Timer,
    Intc,
    Wdt,
    Nvmc,
    Crc,
    Mailbox,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mapping {
    base: u32,
    size: u32,
    periph: Periph,
}

/// What [`SocBus::new`] reads off a derivative's register map: the
/// eight peripheral windows and the page module's four field
/// geometries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Wiring {
    mappings: [Mapping; 8],
    /// `PAGE_CTRL.PAGE`, `PAGE_CTRL.ENABLE`, `PAGE_STATUS.ACTIVE_PAGE`,
    /// `PAGE_STATUS.READY`, as the page module takes them.
    page_fields: [Field; 4],
}

impl Wiring {
    /// The derivative's wiring. Building the register map is almost all
    /// of a bus's construction cost, and the wiring is a pure function
    /// of the derivative, so each catalogued derivative's wiring is
    /// built once per process (the same memo as
    /// [`Derivative::page_count`]); any other derivative builds its map.
    fn of(derivative: &Derivative) -> Cow<'static, Wiring> {
        static CATALOGUE: OnceLock<Vec<(Derivative, Wiring)>> = OnceLock::new();
        let catalogue = CATALOGUE.get_or_init(|| {
            DerivativeId::ALL
                .into_iter()
                .map(|id| {
                    let derivative = Derivative::from_id(id);
                    let wiring = Self::from_regmap(&derivative);
                    (derivative, wiring)
                })
                .collect()
        });
        Self::lookup(catalogue, derivative)
    }

    /// `derivative`'s entry in `catalogue`, or its wiring built from the
    /// register map when the catalogue has no equal derivative.
    fn lookup<'a>(
        catalogue: &'a [(Derivative, Wiring)],
        derivative: &Derivative,
    ) -> Cow<'a, Wiring> {
        match catalogue.iter().find(|(known, _)| known == derivative) {
            Some((_, wiring)) => Cow::Borrowed(wiring),
            None => Cow::Owned(Self::from_regmap(derivative)),
        }
    }

    /// The wiring read off a freshly built register map.
    ///
    /// # Panics
    ///
    /// Panics if the derivative's register map is missing a catalogued
    /// module or page field — impossible for maps produced by
    /// [`Derivative::regmap`].
    fn from_regmap(derivative: &Derivative) -> Self {
        let map = derivative.regmap();
        let window = |name: &str, periph: Periph| {
            let module = map
                .module(name)
                .unwrap_or_else(|| panic!("derivative map lacks module {name}"));
            Mapping {
                base: module.base(),
                size: module.size(),
                periph,
            }
        };
        let field = |reg: &str, field_name: &str| {
            let hw = derivative.hardware_register_name(reg);
            map.module("PAGE")
                .and_then(|m| m.register(hw))
                .and_then(|r| r.field(field_name))
                .cloned()
                .unwrap_or_else(|| panic!("missing field PAGE.{reg}.{field_name}"))
        };
        Self {
            mappings: [
                window("UART", Periph::Uart),
                window("PAGE", Periph::Page),
                window("TIMER", Periph::Timer),
                window("INTC", Periph::Intc),
                window("WDT", Periph::Wdt),
                window("NVMC", Periph::Nvmc),
                window("CRC", Periph::Crc),
                window("TB", Periph::Mailbox),
            ],
            page_fields: [
                field("PAGE_CTRL", "PAGE"),
                field("PAGE_CTRL", "ENABLE"),
                field("PAGE_STATUS", "ACTIVE_PAGE"),
                field("PAGE_STATUS", "READY"),
            ],
        }
    }
}

/// The SC88 SoC bus for one (derivative, platform) pair.
///
/// Construction allocates no memory page: ROM and RAM read as `0x00`
/// and NVM as erased `0xFF` until written, and each memory and decode
/// table holds only the pages its run wrote. Snapshots encode the
/// memories page by page.
#[derive(Debug, Clone)]
pub struct SocBus {
    rom: Memory,
    ram: Memory,
    nvm: Memory,
    mappings: [Mapping; 8],
    uart: Uart,
    page: PageModule,
    timer: Timer,
    intc: Intc,
    wdt: Watchdog,
    nvmc: NvmController,
    crc: CrcUnit,
    mailbox: MailboxDevice,
    memmap: MemoryMap,
    now: u64,
    watchdog_bite: bool,
    mmio_touched: std::collections::BTreeSet<u32>,
    /// Fault injection: ES jump-table fetches return the next slot.
    es_skew: bool,
    /// Fault injection: extra cycles charged per MMIO access (0 = none).
    mmio_wait: u64,
    /// Predecoded-instruction cache over ROM/RAM/NVM words.
    decode: DecodeCache,
    /// Hoisted attention flag: true iff a watchdog bite is latched or an
    /// enabled interrupt line is pending. The CPU fast path tests this
    /// one bool instead of polling the peripherals every step.
    async_work: bool,
    /// Hoisted timing flag: true iff advancing time can change any
    /// state (timer or watchdog armed, NVM operation in flight). While
    /// false, [`SocBus::advance`] is a bare cycle-counter add.
    timing_active: bool,
    /// Optional test-bench bus monitor: records MMIO transactions for
    /// assertion mining/checking. Verification scaffolding, not machine
    /// state — never serialized into snapshots.
    mmio_trace: Option<MmioTrace>,
}

impl SocBus {
    /// Builds the bus for a derivative on a platform, with optional fault
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if the derivative's register map is missing a catalogued
    /// module — impossible for maps produced by [`Derivative::regmap`].
    pub fn new(derivative: &Derivative, platform: PlatformId, fault: PlatformFault) -> Self {
        let wiring = Wiring::of(derivative);
        let cycle_accurate = matches!(platform, PlatformId::RtlSim | PlatformId::GateSim);

        let mut uart = Uart::new(cycle_accurate);
        let [page_field, enable_field, active_field, ready_field] = wiring.page_fields.clone();
        let mut page = PageModule::new(page_field, enable_field, active_field, ready_field);
        let mut timer = Timer::new();
        let mut mailbox = MailboxDevice::new(platform);
        let mut es_skew = false;
        let mut mmio_wait = 0;
        match fault {
            PlatformFault::None => {}
            PlatformFault::PageActiveOffByOne => page.inject_active_off_by_one(),
            PlatformFault::PageSelectDropsLowBit => page.inject_select_drops_low_bit(),
            PlatformFault::PageMapWriteIgnored => page.inject_map_write_ignored(),
            PlatformFault::UartDropsBytes => uart.inject_drop_bytes(),
            PlatformFault::UartTxStuckBusy => uart.inject_tx_stuck_busy(),
            PlatformFault::UartDuplicatesBytes => uart.inject_duplicate_bytes(),
            PlatformFault::TimerNeverExpires => timer.inject_never_expires(),
            PlatformFault::TimerPeriodicNoReload => timer.inject_periodic_no_reload(),
            PlatformFault::TimerIrqSuppressed => timer.inject_irq_suppressed(),
            PlatformFault::MailboxScratchStuck => mailbox.inject_scratch_stuck(),
            PlatformFault::MailboxTicksFrozen => mailbox.inject_ticks_frozen(),
            PlatformFault::EsDispatchSkewed => es_skew = true,
            PlatformFault::BusExtraWaitStates => mmio_wait = BUS_WAIT_STATE_CYCLES,
        }

        Self {
            rom: Memory::new(ROM_SIZE as usize, 0x00),
            ram: Memory::new(RAM_SIZE as usize, 0x00),
            nvm: Memory::new(NVM_SIZE as usize, 0xFF),
            mappings: wiring.mappings,
            uart,
            page,
            timer,
            intc: Intc::new(),
            wdt: Watchdog::new(),
            nvmc: NvmController::new(NVM_SIZE),
            crc: CrcUnit::new(),
            mailbox,
            memmap: MemoryMap::sc88(),
            now: 0,
            watchdog_bite: false,
            mmio_touched: std::collections::BTreeSet::new(),
            es_skew,
            mmio_wait,
            decode: DecodeCache::default(),
            async_work: false,
            timing_active: false,
            mmio_trace: None,
        }
    }

    /// Arms the MMIO bus monitor, keeping at most `capacity` most-recent
    /// transactions. Available on every platform: the monitor belongs to
    /// the verification environment, not the device under test.
    pub fn enable_mmio_trace(&mut self, capacity: usize) {
        self.mmio_trace = Some(MmioTrace::new(capacity));
    }

    /// The MMIO bus monitor, if armed.
    pub fn mmio_trace(&self) -> Option<&MmioTrace> {
        self.mmio_trace.as_ref()
    }

    /// Recomputes the hoisted attention flag. Must be called whenever
    /// the watchdog latch or the interrupt controller's pending/enabled
    /// state may have changed.
    fn recompute_async(&mut self) {
        self.async_work = self.watchdog_bite || self.intc.active_line().is_some();
    }

    /// Recomputes the hoisted timing flag. Must be called whenever a
    /// peripheral's armed/busy state may have changed.
    fn recompute_timing(&mut self) {
        self.timing_active = self.timer.armed() || self.wdt.armed() || self.nvmc.op_in_flight();
    }

    /// Whether an asynchronous cause (watchdog bite or pending enabled
    /// IRQ) needs the CPU's attention. A single-bool fast-path check;
    /// the CPU consults [`SocBus::take_watchdog_bite`] /
    /// [`SocBus::pending_irq`] only when this is true.
    #[inline]
    pub fn async_pending(&self) -> bool {
        self.async_work
    }

    /// Whether advancing time can change any machine state (timer or
    /// watchdog armed, NVM operation in flight). While false, nothing
    /// asynchronous can surface between two bus accesses — the
    /// precondition for whole-superblock dispatch.
    #[inline]
    pub fn timing_active(&self) -> bool {
        self.timing_active
    }

    /// Applies the ES-dispatch-skew fault to a ROM fetch address: reads
    /// inside the embedded-software jump table are redirected to the next
    /// slot (wrapping), modelling an address decoder off by one row.
    fn skewed_rom_addr(&self, addr: u32) -> u32 {
        if !self.es_skew {
            return addr;
        }
        let table_base = advm_soc::memmap::ES_BASE;
        let table_bytes = 4 * advm_soc::EsFunction::ALL.len() as u32;
        if addr >= table_base && addr < table_base + table_bytes {
            table_base + (addr - table_base + 4) % table_bytes
        } else {
            addr
        }
    }

    /// Every MMIO register address the software touched (read or write) —
    /// the raw material for register-coverage reporting.
    pub fn mmio_touched(&self) -> impl Iterator<Item = u32> + '_ {
        self.mmio_touched.iter().copied()
    }

    /// Loads an assembled image into backing memory (ROM/RAM/NVM regions).
    ///
    /// # Panics
    ///
    /// Panics if a byte falls outside every loadable region — images are
    /// produced by the assembler against the SC88 memory map, so this
    /// indicates a corrupt build, not user input.
    pub fn load_image(&mut self, image: &advm_asm::Image) {
        self.decode.invalidate_all();
        for (base, bytes) in image.runs() {
            // Copy region-sized spans at a time; a run rarely crosses a
            // region boundary, so this is one copy per page in practice.
            let mut addr = base;
            let mut rest = bytes;
            while !rest.is_empty() {
                let Some(region) = self.memmap.region_at(addr) else {
                    panic!("image byte at {addr:#07x} outside loadable memory")
                };
                let span = rest.len().min((region.end() - addr) as usize);
                let off = (addr - region.start()) as usize;
                let dst = match region.kind() {
                    RegionKind::Rom => &mut self.rom,
                    RegionKind::Ram => &mut self.ram,
                    RegionKind::Nvm => &mut self.nvm,
                    _ => panic!("image byte at {addr:#07x} outside loadable memory"),
                };
                dst.write_slice(off, &rest[..span]);
                addr += span as u32;
                rest = &rest[span..];
            }
        }
    }

    /// Seeds the decode cache from a shared predecode artifact (see
    /// [`DecodedProgram`]). Call after [`SocBus::load_image`] with the
    /// artifact built from the *same* image; a no-op while the cache is
    /// disabled.
    pub fn seed_decoded(&mut self, program: &DecodedProgram) {
        self.decode.preload(program);
    }

    /// Enables or disables the predecoded-instruction cache (default:
    /// enabled). Disabled, every fetch re-decodes — the pre-refactor
    /// baseline the benches compare against.
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.decode.set_enabled(enabled);
    }

    /// Whether the predecoded-instruction cache is enabled.
    pub fn decode_cache_enabled(&self) -> bool {
        self.decode.enabled()
    }

    /// Enables or disables superblock dispatch (default: enabled).
    /// Requires the decode cache too — blocks are chained over its
    /// slots. Disabled, execution takes the per-word predecoded path,
    /// the baseline the block tier is benchmarked against. The setting
    /// is runtime configuration, not machine state: it is never
    /// serialized into snapshots.
    pub fn set_superblocks(&mut self, enabled: bool) {
        self.decode.set_blocks(enabled);
    }

    /// Whether superblock dispatch is enabled.
    pub fn superblocks_enabled(&self) -> bool {
        self.decode.blocks_enabled()
    }

    /// The superblock starting at `addr`, looked up or built through
    /// the decode cache. `None` when the tier is off, the address is
    /// misaligned or outside executable memory, the ES-skew fault
    /// redirects fetches there, or no bus-free run starts at the word.
    #[inline]
    pub(crate) fn superblock_at(&mut self, addr: u32) -> Option<std::sync::Arc<Superblock>> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        match ExecRegion::classify(addr) {
            Some((ExecRegion::Rom, idx)) => {
                // Blocks never start inside or extend into the skewed
                // jump table: those fetches take the per-word bypass.
                let excluded = self.es_skew.then(|| {
                    let lo = ((advm_soc::memmap::ES_BASE - ROM_START) >> 2) as usize;
                    (lo, lo + advm_soc::EsFunction::ALL.len())
                });
                self.decode
                    .superblock(ExecRegion::Rom, &self.rom, idx, excluded)
            }
            Some((ExecRegion::Ram, idx)) => {
                self.decode
                    .superblock(ExecRegion::Ram, &self.ram, idx, None)
            }
            Some((ExecRegion::Nvm, idx)) => {
                self.decode
                    .superblock(ExecRegion::Nvm, &self.nvm, idx, None)
            }
            None => None,
        }
    }

    /// Accounts one whole-block dispatch (see
    /// [`DecodeCache::note_block_dispatch`]).
    #[inline]
    pub(crate) fn note_block_dispatch(&mut self, insns: u64) {
        self.decode.note_block_dispatch(insns);
    }

    /// The decode cache's block-invalidation epoch (see
    /// [`DecodeCache::generation`]).
    #[inline]
    pub(crate) fn decode_generation(&self) -> u64 {
        self.decode.generation()
    }

    /// The run's decode-cache counters.
    pub fn decode_stats(&self) -> DecodeStats {
        self.decode.stats
    }

    /// The current cycle count.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances time: peripherals tick, timed NVM ops commit, timer IRQs
    /// route to the interrupt controller, watchdog expiry latches.
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
        // Fast path: with no timer or watchdog armed and no NVM op in
        // flight, advancing time cannot change any state.
        if !self.timing_active {
            return;
        }
        self.timer.tick(cycles);
        if self.timer.take_irq() {
            self.intc.raise(TIMER_IRQ_LINE);
        }
        self.wdt.tick(cycles);
        if self.wdt.take_expiry() {
            self.watchdog_bite = true;
        }
        if let Some(op) = self.nvmc.take_completed(self.now) {
            match op {
                crate::periph::nvmc::NvmOp::Write { offset, value } => {
                    self.nvm.set_word(offset as usize, value);
                    self.decode
                        .invalidate_word(ExecRegion::Nvm, (offset >> 2) as usize);
                }
                crate::periph::nvmc::NvmOp::Erase { offset } => {
                    let page = (offset / crate::periph::nvmc::PAGE_BYTES)
                        * crate::periph::nvmc::PAGE_BYTES;
                    let p = page as usize;
                    let end = (p + crate::periph::nvmc::PAGE_BYTES as usize).min(self.nvm.len());
                    self.nvm.fill_range(p..end, 0xFF);
                    self.decode.invalidate_range(
                        ExecRegion::Nvm,
                        (page >> 2) as usize,
                        (end - p) / 4,
                    );
                }
            }
        }
        self.recompute_async();
        self.recompute_timing();
    }

    /// The lowest pending enabled interrupt line, if any.
    pub fn pending_irq(&self) -> Option<u8> {
        self.intc.active_line()
    }

    /// Takes the watchdog-expiry edge.
    pub fn take_watchdog_bite(&mut self) -> bool {
        let bite = std::mem::take(&mut self.watchdog_bite);
        if bite {
            self.recompute_async();
        }
        bite
    }

    /// The test-bench mailbox (outcome, console, sim-end flag).
    pub fn mailbox(&self) -> &MailboxDevice {
        &self.mailbox
    }

    /// UART transmit log (for checking UART tests end to end).
    pub fn uart_tx(&self) -> &[u8] {
        self.uart.tx_log()
    }

    /// Serializes the bus's dynamic state: cycle counter, latched
    /// watchdog bite, the three memories (run-length encoded page by
    /// page, byte-identical to encoding them whole), the MMIO
    /// coverage set (sorted — `BTreeSet` iteration order), the decode
    /// cache counters, and all eight peripherals in fixed order.
    /// Configuration (mappings, memory map, fault wiring) is re-derived
    /// from the constructor on restore.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.now);
        put_bool(out, self.watchdog_bite);
        crate::savestate::put_rle_paged(out, &self.rom);
        crate::savestate::put_rle_paged(out, &self.ram);
        crate::savestate::put_rle_paged(out, &self.nvm);
        put_u32(out, self.mmio_touched.len() as u32);
        for addr in &self.mmio_touched {
            put_u32(out, *addr);
        }
        self.decode.save_state(out);
        self.uart.save_state(out);
        self.page.save_state(out);
        self.timer.save_state(out);
        self.intc.save_state(out);
        self.wdt.save_state(out);
        self.nvmc.save_state(out);
        self.crc.save_state(out);
        self.mailbox.save_state(out);
    }

    /// Restores the bus's dynamic state, then recomputes the hoisted
    /// attention/timing flags from the restored peripherals.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.now = r.take_u64()?;
        self.watchdog_bite = r.take_bool()?;
        r.take_rle_paged(&mut self.rom)?;
        r.take_rle_paged(&mut self.ram)?;
        r.take_rle_paged(&mut self.nvm)?;
        self.mmio_touched.clear();
        for _ in 0..r.take_u32()? {
            self.mmio_touched.insert(r.take_u32()?);
        }
        self.decode.apply_state(r)?;
        self.uart.apply_state(r)?;
        self.page.apply_state(r)?;
        self.timer.apply_state(r)?;
        self.intc.apply_state(r)?;
        self.wdt.apply_state(r)?;
        self.nvmc.apply_state(r)?;
        self.crc.apply_state(r)?;
        self.mailbox.apply_state(r)?;
        self.recompute_async();
        self.recompute_timing();
        Ok(())
    }

    /// Appends the architectural (timing-free) bus state for divergence
    /// digests: RAM, NVM, and the externally observable peripheral state
    /// (mailbox protocol registers, UART transmit log, page selection).
    /// Cycle counters and busy-until deadlines are excluded so platforms
    /// that share a cost model digest equal while architecturally equal.
    pub(crate) fn arch_bytes(&self, out: &mut Vec<u8>) {
        self.ram.extend_into(out);
        self.nvm.extend_into(out);
        self.mailbox.arch_bytes(out);
        self.uart.arch_bytes(out);
        self.page.arch_bytes(out);
    }

    /// Whether forking a run with `fault` injected from this machine's
    /// current state is *provably* equivalent to running it from reset:
    /// true iff the fault's observable surface was never exercised so
    /// far. Page/UART/timer/mailbox faults are safe iff no register of
    /// that module was touched; extra bus wait states are safe iff no
    /// MMIO at all was touched; the ES jump-table skew redirects ROM
    /// fetches the coverage set never records, so it is never safe.
    pub fn fault_fork_safe(&self, fault: PlatformFault) -> bool {
        let module = match fault {
            PlatformFault::None => return true,
            PlatformFault::EsDispatchSkewed => return false,
            PlatformFault::BusExtraWaitStates => return self.mmio_touched.is_empty(),
            PlatformFault::PageActiveOffByOne
            | PlatformFault::PageSelectDropsLowBit
            | PlatformFault::PageMapWriteIgnored => Periph::Page,
            PlatformFault::UartDropsBytes
            | PlatformFault::UartTxStuckBusy
            | PlatformFault::UartDuplicatesBytes => Periph::Uart,
            PlatformFault::TimerNeverExpires
            | PlatformFault::TimerPeriodicNoReload
            | PlatformFault::TimerIrqSuppressed => Periph::Timer,
            PlatformFault::MailboxScratchStuck | PlatformFault::MailboxTicksFrozen => {
                Periph::Mailbox
            }
        };
        let Some(m) = self.mappings.iter().find(|m| m.periph == module) else {
            return false;
        };
        self.mmio_touched
            .range(m.base..m.base + m.size)
            .next()
            .is_none()
    }

    /// Direct NVM inspection for assertions in tests and experiments.
    ///
    /// # Panics
    ///
    /// Panics if the word does not lie inside NVM.
    pub fn nvm_word(&self, offset: u32) -> u32 {
        let o = offset as usize;
        assert!(
            o + 4 <= self.nvm.len(),
            "NVM word at {offset:#x} outside NVM"
        );
        u32::from_le_bytes([
            self.nvm.get(o),
            self.nvm.get(o + 1),
            self.nvm.get(o + 2),
            self.nvm.get(o + 3),
        ])
    }

    fn mapping_at(&self, addr: u32) -> Option<(Periph, u32)> {
        self.mappings
            .iter()
            .find(|m| addr >= m.base && addr < m.base + m.size)
            .map(|m| (m.periph, addr - m.base))
    }

    fn periph_read(&mut self, periph: Periph, offset: u32) -> u32 {
        match periph {
            Periph::Uart => self.uart.read(offset, self.now),
            Periph::Page => self.page.read(offset),
            Periph::Timer => self.timer.read(offset),
            Periph::Intc => self.intc.read(offset),
            Periph::Wdt => self.wdt.read(offset),
            Periph::Nvmc => self.nvmc.read(offset, self.now),
            Periph::Crc => self.crc.read(offset),
            Periph::Mailbox => self.mailbox.read(offset, self.now),
        }
    }

    fn periph_write(&mut self, periph: Periph, offset: u32, value: u32) {
        match periph {
            Periph::Uart => self.uart.write(offset, value, self.now),
            Periph::Page => self.page.write(offset, value),
            Periph::Timer => self.timer.write(offset, value),
            Periph::Intc => self.intc.write(offset, value),
            Periph::Wdt => self.wdt.write(offset, value),
            Periph::Nvmc => self.nvmc.write(offset, value, self.now),
            Periph::Crc => self.crc.write(offset, value),
            Periph::Mailbox => self.mailbox.write(offset, value),
        }
    }

    /// Reads a 32-bit word.
    ///
    /// Plain ROM/RAM/NVM traffic takes a region-split fast path (three
    /// range compares); only MMIO and unmapped addresses reach the
    /// peripheral match.
    ///
    /// # Errors
    ///
    /// Returns a [`BusFault`] for misaligned or unmapped accesses.
    #[inline]
    pub fn read32(&mut self, addr: u32) -> Result<u32, BusFault> {
        if !addr.is_multiple_of(4) {
            return Err(BusFault::Misaligned(addr));
        }
        if addr < ROM_START + ROM_SIZE {
            let fetch = if self.es_skew {
                self.skewed_rom_addr(addr)
            } else {
                addr
            };
            return Ok(self.rom.word((fetch - ROM_START) as usize));
        }
        if addr.wrapping_sub(RAM_START) < RAM_SIZE {
            return Ok(self.ram.word((addr - RAM_START) as usize));
        }
        if addr.wrapping_sub(NVM_START) < NVM_SIZE {
            return Ok(self.nvm.word((addr - NVM_START) as usize));
        }
        self.mmio_read32(addr)
    }

    /// The MMIO/unmapped slow path of [`SocBus::read32`].
    fn mmio_read32(&mut self, addr: u32) -> Result<u32, BusFault> {
        match self.memmap.region_at(addr).map(|r| r.kind()) {
            Some(RegionKind::Mmio) => match self.mapping_at(addr) {
                Some((p, offset)) => {
                    self.mmio_touched.insert(addr);
                    if self.mmio_wait > 0 {
                        self.advance(self.mmio_wait);
                    }
                    let value = self.periph_read(p, offset);
                    if let Some(monitor) = self.mmio_trace.as_mut() {
                        monitor.record(MmioEvent {
                            cycle: self.now,
                            addr,
                            value,
                            write: false,
                        });
                    }
                    self.recompute_async();
                    self.recompute_timing();
                    Ok(value)
                }
                None => Err(BusFault::Unmapped(addr)),
            },
            _ => Err(BusFault::Unmapped(addr)),
        }
    }

    /// Fetches and decodes the instruction word at `addr` through the
    /// predecoded-instruction cache. Returns the raw word and its
    /// decoding (`None` = illegal instruction).
    ///
    /// Architecturally identical to `read32` + `decode`: ES-skew
    /// redirected fetches bypass the cache (re-fetching the skewed slot
    /// every time), and RAM/NVM slots are invalidated by the stores that
    /// rewrite them, so the cached and uncached instruction streams are
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// The same [`BusFault`] classes as [`SocBus::read32`].
    #[inline]
    pub fn fetch_decoded(&mut self, addr: u32) -> Result<(u32, Option<Insn>), BusFault> {
        if !addr.is_multiple_of(4) {
            return Err(BusFault::Misaligned(addr));
        }
        if self.es_skew && addr < ROM_START + ROM_SIZE {
            let fetch = self.skewed_rom_addr(addr);
            if fetch != addr {
                // Jump-table skew: the redirected word is never cached
                // under the requested address — always re-decode.
                self.decode.stats.misses += 1;
                let word = self.rom.word((fetch - ROM_START) as usize);
                return Ok((word, advm_isa::decode(word).ok()));
            }
        }
        match ExecRegion::classify(addr) {
            Some((ExecRegion::Rom, idx)) => Ok(self.decode.fetch(ExecRegion::Rom, &self.rom, idx)),
            Some((ExecRegion::Ram, idx)) => Ok(self.decode.fetch(ExecRegion::Ram, &self.ram, idx)),
            Some((ExecRegion::Nvm, idx)) => Ok(self.decode.fetch(ExecRegion::Nvm, &self.nvm, idx)),
            None => {
                // Executing out of MMIO: architecturally allowed, never
                // cached (register reads have side effects).
                let word = self.mmio_read32(addr)?;
                self.decode.stats.misses += 1;
                Ok((word, advm_isa::decode(word).ok()))
            }
        }
    }

    /// Writes a 32-bit word.
    ///
    /// RAM stores take the region-split fast path and precisely
    /// invalidate the decode-cache word they hit (self-modifying code).
    ///
    /// # Errors
    ///
    /// Returns a [`BusFault`] for misaligned, unmapped or read-only
    /// targets (ROM, and the NVM region, which is programmed only through
    /// the NVM controller).
    #[inline]
    pub fn write32(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        if !addr.is_multiple_of(4) {
            return Err(BusFault::Misaligned(addr));
        }
        if addr.wrapping_sub(RAM_START) < RAM_SIZE {
            self.ram.set_word((addr - RAM_START) as usize, value);
            self.decode
                .invalidate_word(ExecRegion::Ram, ((addr - RAM_START) >> 2) as usize);
            return Ok(());
        }
        if addr < ROM_START + ROM_SIZE || addr.wrapping_sub(NVM_START) < NVM_SIZE {
            return Err(BusFault::ReadOnly(addr));
        }
        match self.memmap.region_at(addr).map(|r| r.kind()) {
            Some(RegionKind::Mmio) => match self.mapping_at(addr) {
                Some((p, offset)) => {
                    self.mmio_touched.insert(addr);
                    if self.mmio_wait > 0 {
                        self.advance(self.mmio_wait);
                    }
                    if let Some(monitor) = self.mmio_trace.as_mut() {
                        monitor.record(MmioEvent {
                            cycle: self.now,
                            addr,
                            value,
                            write: true,
                        });
                    }
                    self.periph_write(p, offset, value);
                    self.recompute_async();
                    self.recompute_timing();
                    Ok(())
                }
                None => Err(BusFault::Unmapped(addr)),
            },
            _ => Err(BusFault::Unmapped(addr)),
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns a [`BusFault`] for unmapped addresses or MMIO (registers
    /// are word-only).
    #[inline]
    pub fn read8(&mut self, addr: u32) -> Result<u8, BusFault> {
        if addr < ROM_START + ROM_SIZE {
            return Ok(self.rom.get((addr - ROM_START) as usize));
        }
        if addr.wrapping_sub(RAM_START) < RAM_SIZE {
            return Ok(self.ram.get((addr - RAM_START) as usize));
        }
        if addr.wrapping_sub(NVM_START) < NVM_SIZE {
            return Ok(self.nvm.get((addr - NVM_START) as usize));
        }
        match self.memmap.region_at(addr).map(|r| r.kind()) {
            Some(RegionKind::Mmio) => Err(BusFault::ByteAccessToMmio(addr)),
            _ => Err(BusFault::Unmapped(addr)),
        }
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Same classes as [`SocBus::write32`], plus MMIO byte access.
    #[inline]
    pub fn write8(&mut self, addr: u32, value: u8) -> Result<(), BusFault> {
        if addr.wrapping_sub(RAM_START) < RAM_SIZE {
            *self.ram.entry_mut((addr - RAM_START) as usize) = value;
            self.decode
                .invalidate_word(ExecRegion::Ram, ((addr - RAM_START) >> 2) as usize);
            return Ok(());
        }
        if addr < ROM_START + ROM_SIZE || addr.wrapping_sub(NVM_START) < NVM_SIZE {
            return Err(BusFault::ReadOnly(addr));
        }
        match self.memmap.region_at(addr).map(|r| r.kind()) {
            Some(RegionKind::Mmio) => Err(BusFault::ByteAccessToMmio(addr)),
            _ => Err(BusFault::Unmapped(addr)),
        }
    }
}

#[cfg(test)]
impl SocBus {
    /// How many pages the bus holds: `(memory pages, decode-cache
    /// pages)`.
    pub(crate) fn resident_pages(&self) -> (usize, usize) {
        let memory = [&self.rom, &self.ram, &self.nvm]
            .iter()
            .map(|m| m.resident_pages())
            .sum();
        (memory, self.decode.resident_pages())
    }
}

#[cfg(test)]
mod tests {
    use advm_soc::Mailbox;

    use super::*;

    #[test]
    fn wiring_memo_equals_the_register_map_build() {
        for id in DerivativeId::ALL {
            let derivative = Derivative::from_id(id);
            // Twice: the first call may fill the memo, the second reads it.
            for _ in 0..2 {
                let wiring = Wiring::of(&derivative);
                assert!(matches!(wiring, Cow::Borrowed(_)), "{id} misses the memo");
                assert_eq!(*wiring, Wiring::from_regmap(&derivative), "{id}");
            }
        }
    }

    #[test]
    fn wiring_outside_the_catalogue_is_built_from_the_register_map() {
        // A catalogue that knows only SC88-A, under a deliberately wrong
        // wiring: SC88-A is answered from the catalogue, and every
        // derivative it does not hold from its own register map.
        let sc88a = Derivative::sc88a();
        let wrong = Wiring::from_regmap(&Derivative::sc88d());
        assert_ne!(wrong, Wiring::from_regmap(&sc88a));
        let catalogue = [(sc88a.clone(), wrong.clone())];
        assert_eq!(*Wiring::lookup(&catalogue, &sc88a), wrong);
        for id in [
            DerivativeId::Sc88B,
            DerivativeId::Sc88C,
            DerivativeId::Sc88D,
        ] {
            let derivative = Derivative::from_id(id);
            let wiring = Wiring::lookup(&catalogue, &derivative);
            assert!(matches!(wiring, Cow::Owned(_)), "{id} hit the memo");
            assert_eq!(*wiring, Wiring::from_regmap(&derivative), "{id}");
        }
    }

    #[test]
    fn bus_is_wired_from_the_derivative_register_map() {
        for id in DerivativeId::ALL {
            let derivative = Derivative::from_id(id);
            let map = derivative.regmap();
            let bus = SocBus::new(&derivative, PlatformId::GoldenModel, PlatformFault::None);
            for (mapping, name) in bus
                .mappings
                .iter()
                .zip(["UART", "PAGE", "TIMER", "INTC", "WDT", "NVMC", "CRC", "TB"])
            {
                let module = map.module(name).unwrap();
                assert_eq!((mapping.base, mapping.size), (module.base(), module.size()));
            }
        }
    }

    fn bus() -> SocBus {
        SocBus::new(
            &Derivative::sc88a(),
            PlatformId::GoldenModel,
            PlatformFault::None,
        )
    }

    #[test]
    fn ram_roundtrips() {
        let mut b = bus();
        b.write32(RAM_START, 0xDEAD_BEEF).unwrap();
        assert_eq!(b.read32(RAM_START).unwrap(), 0xDEAD_BEEF);
        b.write8(RAM_START + 4, 0xAB).unwrap();
        assert_eq!(b.read8(RAM_START + 4).unwrap(), 0xAB);
    }

    #[test]
    fn rom_is_read_only() {
        let mut b = bus();
        assert_eq!(b.write32(0x100, 1), Err(BusFault::ReadOnly(0x100)));
        assert_eq!(b.write8(0x100, 1), Err(BusFault::ReadOnly(0x100)));
    }

    #[test]
    fn nvm_direct_store_faults_but_controller_path_works() {
        let mut b = bus();
        let nvm_base = advm_soc::memmap::NVM_START;
        assert!(matches!(b.write32(nvm_base, 1), Err(BusFault::ReadOnly(_))));
        assert_eq!(
            b.read32(nvm_base).unwrap(),
            0xFFFF_FFFF,
            "erased NVM reads 0xFF"
        );

        // Unlock and program through the controller.
        let nvmc = 0xE_0500;
        b.write32(nvmc, 0x55).unwrap(); // KEY
        b.write32(nvmc, 0xAA).unwrap();
        b.write32(nvmc + 0x08, 0x10).unwrap(); // ADDR (offset in NVM)
        b.write32(nvmc + 0x0C, 0x1234_5678).unwrap(); // DATA
        b.write32(nvmc + 0x14, 1).unwrap(); // CMD_WRITE
        b.advance(crate::periph::nvmc::WRITE_CYCLES);
        assert_eq!(b.read32(nvm_base + 0x10).unwrap(), 0x1234_5678);
        assert_eq!(b.nvm_word(0x10), 0x1234_5678);
    }

    #[test]
    fn misaligned_word_access_faults() {
        let mut b = bus();
        assert_eq!(
            b.read32(RAM_START + 2),
            Err(BusFault::Misaligned(RAM_START + 2))
        );
        assert_eq!(
            b.write32(RAM_START + 1, 0),
            Err(BusFault::Misaligned(RAM_START + 1))
        );
    }

    #[test]
    fn unmapped_hole_faults() {
        let mut b = bus();
        assert!(matches!(b.read32(0x7_0000), Err(BusFault::Unmapped(_))));
        assert!(
            matches!(b.read32(0xE_5000), Err(BusFault::Unmapped(_))),
            "MMIO hole"
        );
    }

    #[test]
    fn mmio_byte_access_faults() {
        let mut b = bus();
        assert!(matches!(
            b.read8(0xE_0100),
            Err(BusFault::ByteAccessToMmio(_))
        ));
        assert!(matches!(
            b.write8(0xE_0100, 1),
            Err(BusFault::ByteAccessToMmio(_))
        ));
    }

    #[test]
    fn uart_moves_with_derivative_d() {
        let mut a = bus();
        let mut d = SocBus::new(
            &Derivative::sc88d(),
            PlatformId::GoldenModel,
            PlatformFault::None,
        );
        // UART CTRL is at 0xE0000 on SC88-A but 0xE0800 on SC88-D.
        assert!(a.read32(0xE_0000).is_ok());
        assert!(matches!(d.read32(0xE_0000), Err(BusFault::Unmapped(_))));
        assert!(d.read32(0xE_0800).is_ok());
        assert!(matches!(a.read32(0xE_0800), Err(BusFault::Unmapped(_))));
    }

    #[test]
    fn page_geometry_follows_derivative() {
        let mut a = bus();
        let mut b2 = SocBus::new(
            &Derivative::sc88b(),
            PlatformId::GoldenModel,
            PlatformFault::None,
        );
        // Writing 8|ENABLE selects page 8 on SC88-A but page 4 on SC88-B.
        a.write32(0xE_0100, 8 | (1 << 8)).unwrap();
        b2.write32(0xE_0100, 8 | (1 << 8)).unwrap();
        assert_eq!(a.read32(0xE_0104).unwrap() & 0x1F, 8);
        assert_eq!((b2.read32(0xE_0104).unwrap() >> 1) & 0x1F, 4);
    }

    #[test]
    fn timer_irq_routes_to_intc() {
        let mut b = bus();
        b.write32(0xE_0300, 1).unwrap(); // INTC ENABLE line 0
        b.write32(0xE_0204, 5).unwrap(); // TIMER LOAD
        b.write32(0xE_0200, 0b011).unwrap(); // TIMER EN|IE
        b.advance(5);
        assert_eq!(b.pending_irq(), Some(0));
        b.write32(0xE_0308, 0).unwrap(); // ACK line 0
        assert_eq!(b.pending_irq(), None);
    }

    #[test]
    fn watchdog_bite_latches() {
        let mut b = bus();
        b.write32(0xE_0408, 10).unwrap(); // PERIOD
        b.write32(0xE_0400, 1).unwrap(); // EN
        b.advance(10);
        assert!(b.take_watchdog_bite());
        assert!(!b.take_watchdog_bite(), "edge consumed");
    }

    #[test]
    fn mailbox_reports_outcome() {
        let mut b = bus();
        let mb = Mailbox::new();
        b.write32(mb.reg(Mailbox::RESULT), Mailbox::PASS_MAGIC)
            .unwrap();
        b.write32(mb.reg(Mailbox::SIM_END), 1).unwrap();
        assert!(b.mailbox().sim_ended());
        assert!(b.mailbox().outcome().unwrap().passed());
    }

    #[test]
    fn es_dispatch_skew_redirects_table_fetches_only() {
        use advm_soc::memmap::ES_BASE;
        // Eight distinct words starting at the jump-table base; the
        // table itself is seven slots long.
        let program = advm_asm::assemble_str(
            ".ORG 0x30000\n    HALT #1\n    HALT #2\n    HALT #3\n    HALT #4\n    \
             HALT #5\n    HALT #6\n    HALT #7\n    HALT #8\n",
        )
        .unwrap();
        let mut image = advm_asm::Image::new();
        image.load_program(&program).unwrap();
        let mut clean = bus();
        clean.load_image(&image);
        let mut skewed = SocBus::new(
            &Derivative::sc88a(),
            PlatformId::GoldenModel,
            PlatformFault::EsDispatchSkewed,
        );
        skewed.load_image(&image);
        // Inside the table every fetch lands one slot down…
        assert_eq!(
            skewed.read32(ES_BASE).unwrap(),
            clean.read32(ES_BASE + 4).unwrap()
        );
        // …the last slot wraps to the first…
        assert_eq!(
            skewed.read32(ES_BASE + 24).unwrap(),
            clean.read32(ES_BASE).unwrap()
        );
        // …and fetches outside the table are untouched.
        assert_eq!(
            skewed.read32(ES_BASE + 28).unwrap(),
            clean.read32(ES_BASE + 28).unwrap()
        );
    }

    #[test]
    fn bus_wait_states_charge_extra_cycles_on_mmio_only() {
        let mut b = SocBus::new(
            &Derivative::sc88a(),
            PlatformId::GoldenModel,
            PlatformFault::BusExtraWaitStates,
        );
        let t0 = b.now();
        b.read32(0xE_FF10).unwrap(); // mailbox PLATFORM register
        assert_eq!(b.now(), t0 + BUS_WAIT_STATE_CYCLES);
        let t1 = b.now();
        b.write32(RAM_START, 7).unwrap();
        b.read32(RAM_START).unwrap();
        assert_eq!(b.now(), t1, "plain memory traffic stays free");
    }

    #[test]
    fn image_loads_into_rom() {
        let mut b = bus();
        let program = advm_asm::assemble_str("_main:\n  NOP\n  HALT #0\n").unwrap();
        let mut image = advm_asm::Image::new();
        image.load_program(&program).unwrap();
        b.load_image(&image);
        assert_eq!(b.read32(0x100).unwrap(), 0, "NOP encodes as zero");
    }
}
