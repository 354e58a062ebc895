//! The six execution platforms of the paper's §1.
//!
//! All platforms execute the same architectural core ([`crate::cpu`]);
//! they differ in:
//!
//! * **cycle modelling** — RTL and gate-level simulations charge
//!   realistic per-instruction costs (gate level at half clock plus a
//!   long reset sequence); functional platforms charge one cycle each,
//! * **debug visibility** — the golden model, RTL sim and bondout device
//!   record `DBG` markers and a retirement trace; accelerator and product
//!   silicon are black boxes,
//! * **fault injection** — a platform can carry a hardware bug (see
//!   [`PlatformFault`]), which is how cross-platform divergence is
//!   exercised.

use std::fmt;

use advm_asm::Image;
use advm_soc::testbench::{PlatformId, TestOutcome};
use advm_soc::Derivative;

use crate::bus::SocBus;
use crate::cpu::{BatchExit, CostModel, Cpu};
use crate::decoded::{DecodeStats, DecodedProgram};
use crate::fault::PlatformFault;
use crate::savestate::{
    fault_from_tag, fault_tag, fnv1a, platform_from_code, put_bool, put_u32, put_u64, SaveReader,
    SaveState, SaveStateError, FNV_BASIS, SAVESTATE_MAGIC, SAVESTATE_VERSION,
};
use crate::trace::ExecTrace;

/// Why a platform run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndReason {
    /// The test wrote the mailbox `SIM_END` register.
    SimEnd,
    /// A `HALT` instruction retired.
    Halt(u8),
    /// The instruction budget was exhausted (hung test).
    OutOfFuel,
    /// Execution hit a fatal condition (unhandled trap, double fault).
    Fatal(String),
}

impl fmt::Display for EndReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndReason::SimEnd => f.write_str("sim-end"),
            EndReason::Halt(code) => write!(f, "halt({code})"),
            EndReason::OutOfFuel => f.write_str("out-of-fuel"),
            EndReason::Fatal(msg) => write!(f, "fatal: {msg}"),
        }
    }
}

/// The result of running one test image on one platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Which platform ran.
    pub platform: PlatformId,
    /// Why the run ended.
    pub end: EndReason,
    /// The mailbox-reported outcome, if any.
    pub outcome: Option<TestOutcome>,
    /// Instructions retired.
    pub insns: u64,
    /// Cycles consumed (platform-specific cost model).
    pub cycles: u64,
    /// Mailbox console output.
    pub console: String,
    /// UART transmit log.
    pub uart_tx: Vec<u8>,
    /// `DBG` markers, recorded only on debug-visible platforms.
    pub dbg_markers: Vec<u8>,
    /// Every MMIO register address the run touched (register coverage).
    pub mmio_touched: Vec<u32>,
    /// Decode-cache counters for the run (perf telemetry, never part of
    /// the architectural verdict).
    pub decode: DecodeStats,
}

impl RunResult {
    /// Whether the run counts as a pass: the test reported PASS and ended
    /// cleanly (mailbox sim-end or a `HALT`).
    pub fn passed(&self) -> bool {
        matches!(self.outcome, Some(TestOutcome::Pass { .. }))
            && matches!(self.end, EndReason::SimEnd | EndReason::Halt(_))
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} after {} insns / {} cycles ({})",
            self.platform,
            match self.outcome {
                Some(o) => o.to_string(),
                None => "NO-RESULT".to_owned(),
            },
            self.insns,
            self.cycles,
            self.end,
        )
    }
}

/// Default instruction budget per run.
pub const DEFAULT_FUEL: u64 = 2_000_000;

/// One execution platform instance, loaded with a derivative's hardware
/// configuration.
#[derive(Debug, Clone)]
pub struct Platform {
    id: PlatformId,
    cpu: Cpu,
    bus: SocBus,
    cost: CostModel,
    reset_cycles: u64,
    fuel: u64,
    trace: Option<ExecTrace>,
    fault: PlatformFault,
    /// Whether the reset sequence has been charged. Reset happens once
    /// per machine, not once per [`Platform::run`] call — a machine
    /// resumed from a snapshot must not come out of reset twice.
    reset_done: bool,
}

impl Platform {
    /// Creates a fault-free platform for a derivative.
    pub fn new(id: PlatformId, derivative: &Derivative) -> Self {
        Self::with_fault(id, derivative, PlatformFault::None)
    }

    /// Creates a platform carrying an injected hardware fault.
    pub fn with_fault(id: PlatformId, derivative: &Derivative, fault: PlatformFault) -> Self {
        let (cost, reset_cycles) = match id {
            PlatformId::RtlSim => (CostModel::rtl(), 16),
            PlatformId::GateSim => (CostModel::gate(), 200),
            _ => (CostModel::functional(), 1),
        };
        Self {
            id,
            cpu: Cpu::new(),
            bus: SocBus::new(derivative, id, fault),
            cost,
            reset_cycles,
            fuel: DEFAULT_FUEL,
            trace: None,
            fault,
            reset_done: false,
        }
    }

    /// Arms execution tracing (retired PC + instruction word, bounded to
    /// `capacity` records; the signature covers the full history).
    ///
    /// Tracing is a *debug capability*: it is available only on
    /// debug-visible platforms — the golden model, RTL simulation and the
    /// bondout device. On black-box platforms this call is ignored, just
    /// as a logic analyser has nothing to probe on product silicon.
    pub fn enable_trace(&mut self, capacity: usize) {
        if self.id.has_debug_visibility() {
            self.trace = Some(ExecTrace::new(capacity));
        }
    }

    /// The execution trace, if armed and supported.
    pub fn trace(&self) -> Option<&ExecTrace> {
        self.trace.as_ref()
    }

    /// Arms the test-bench MMIO bus monitor (bounded to `capacity`
    /// transactions). Unlike [`Platform::enable_trace`] this works on
    /// *every* platform: the monitor models the verification
    /// environment watching bus pins, not on-chip debug hardware, so
    /// even product silicon can be observed this way.
    pub fn enable_mmio_trace(&mut self, capacity: usize) {
        self.bus.enable_mmio_trace(capacity);
    }

    /// The MMIO bus monitor, if armed.
    pub fn mmio_trace(&self) -> Option<&crate::trace::MmioTrace> {
        self.bus.mmio_trace()
    }

    /// The platform identity.
    pub fn id(&self) -> PlatformId {
        self.id
    }

    /// The injected hardware fault this machine carries.
    pub fn fault(&self) -> PlatformFault {
        self.fault
    }

    /// Overrides the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Loads an assembled image into the platform's memory.
    pub fn load_image(&mut self, image: &Image) {
        self.bus.load_image(image);
    }

    /// Loads an image together with its shared predecode artifact: the
    /// decode cache is seeded from `decoded` instead of decoding each
    /// word on first fetch. The artifact must be built from the same
    /// image (see [`DecodedProgram::from_image`]); campaigns build it
    /// once per deduplicated image and share it across every worker and
    /// platform.
    pub fn load_prebuilt(&mut self, image: &Image, decoded: &DecodedProgram) {
        self.bus.load_image(image);
        self.bus.seed_decoded(decoded);
    }

    /// Enables or disables the predecoded-instruction cache (default:
    /// enabled). The architectural stream is identical either way;
    /// disabling re-decodes every fetch, the baseline
    /// `exp_sim_throughput` compares against.
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.bus.set_decode_cache(enabled);
    }

    /// Enables or disables superblock dispatch (default: enabled).
    /// Blocks chain straight-line decoded instructions over the decode
    /// cache and execute whole between run-loop boundary checks; the
    /// architectural stream is identical either way. Runtime
    /// configuration, not machine state: snapshots neither capture nor
    /// restore it, so a machine restored with
    /// [`Platform::from_snapshot`] runs with blocks on until this turns
    /// them off again.
    pub fn set_superblocks(&mut self, enabled: bool) {
        self.bus.set_superblocks(enabled);
    }

    /// Direct bus access for white-box assertions in tests/experiments.
    pub fn bus(&mut self) -> &mut SocBus {
        &mut self.bus
    }

    /// Direct CPU access for white-box assertions (bondout-style debug).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Runs until the test ends the simulation, halts, faults fatally or
    /// runs out of fuel.
    pub fn run(&mut self) -> RunResult {
        // Reset sequence: gate-level netlists take a long time to come
        // out of reset; everything else is quick. Charged once per
        // machine — a resumed or forked run continues mid-flight.
        if !self.reset_done {
            self.bus.advance(self.reset_cycles);
            self.reset_done = true;
        }

        let mut dbg_markers = Vec::new();
        let debug_visible = self.id.has_debug_visibility();
        // The budget is absolute across repeated `run` calls, matching
        // the legacy per-step driver's `retired >= fuel` check.
        let remaining = self.fuel.saturating_sub(self.cpu.retired());
        let exit = self.cpu.run_observed(
            &mut self.bus,
            &self.cost,
            remaining,
            self.trace.as_mut(),
            debug_visible.then_some(&mut dbg_markers),
        );
        let end = match exit {
            BatchExit::SimEnd => EndReason::SimEnd,
            BatchExit::Halted { code } => EndReason::Halt(code),
            BatchExit::OutOfFuel => EndReason::OutOfFuel,
            BatchExit::Fatal(fatal) => EndReason::Fatal(fatal.to_string()),
        };

        RunResult {
            platform: self.id,
            end,
            outcome: self.bus.mailbox().outcome(),
            insns: self.cpu.retired(),
            cycles: self.bus.now(),
            console: String::from_utf8_lossy(self.bus.mailbox().console()).into_owned(),
            uart_tx: self.bus.uart_tx().to_vec(),
            dbg_markers,
            mmio_touched: self.bus.mmio_touched().collect(),
            decode: self.bus.decode_stats(),
        }
    }
}

impl Platform {
    /// Captures the whole machine as a versioned, byte-stable
    /// [`SaveState`]: the same machine state always snapshots to the
    /// same bytes. Configuration (derivative geometry, cost model,
    /// fault wiring) is not captured — it is re-derived by whichever
    /// constructor the blob is later applied through.
    pub fn snapshot(&self) -> SaveState {
        let mut out = Vec::new();
        out.extend_from_slice(&SAVESTATE_MAGIC);
        out.push(SAVESTATE_VERSION);
        put_u32(&mut out, self.id.code());
        out.push(fault_tag(self.fault));
        put_u64(&mut out, self.fuel);
        put_bool(&mut out, self.reset_done);
        self.cpu.save_state(&mut out);
        self.bus.save_state(&mut out);
        match &self.trace {
            Some(trace) => {
                put_bool(&mut out, true);
                trace.save_state(&mut out);
            }
            None => put_bool(&mut out, false),
        }
        SaveState::from_raw(out)
    }

    /// Rewinds this machine to a snapshot previously taken from it (or
    /// from an identically configured machine).
    ///
    /// # Errors
    ///
    /// Rejects blobs with a bad header, from a different platform
    /// ([`SaveStateError::PlatformMismatch`]) or captured under a
    /// different injected fault ([`SaveStateError::FaultMismatch`]) —
    /// use [`Platform::from_snapshot`] to re-target a fault.
    pub fn restore(&mut self, state: &SaveState) -> Result<(), SaveStateError> {
        let mut r = SaveReader::new(state.as_bytes());
        r.expect_header()?;
        if r.take_u32()? != self.id.code() {
            return Err(SaveStateError::PlatformMismatch);
        }
        if fault_from_tag(r.take_u8()?) != Some(self.fault) {
            return Err(SaveStateError::FaultMismatch);
        }
        self.apply_body(&mut r)
    }

    /// Builds a fresh machine from a snapshot, carrying `fault` — the
    /// fork primitive. The snapshot supplies the platform identity and
    /// all dynamic state; the derivative and the (possibly different)
    /// injected fault are wired by normal construction. Campaigns use
    /// this to run a shared fault-free prefix once and branch each
    /// faulted run from it.
    ///
    /// # Errors
    ///
    /// The same header/decoding failures as [`Platform::restore`].
    pub fn from_snapshot(
        state: &SaveState,
        derivative: &Derivative,
        fault: PlatformFault,
    ) -> Result<Self, SaveStateError> {
        let mut r = SaveReader::new(state.as_bytes());
        r.expect_header()?;
        let id = platform_from_code(r.take_u32()?)
            .ok_or(SaveStateError::Corrupt("unknown platform code"))?;
        fault_from_tag(r.take_u8()?).ok_or(SaveStateError::Corrupt("unknown fault tag"))?;
        let mut platform = Platform::with_fault(id, derivative, fault);
        platform.apply_body(&mut r)?;
        Ok(platform)
    }

    /// Clones this machine's dynamic state into a new machine carrying
    /// `fault` — snapshot and [`Platform::from_snapshot`] in one step.
    pub fn fork(&self, derivative: &Derivative, fault: PlatformFault) -> Self {
        Self::from_snapshot(&self.snapshot(), derivative, fault)
            .expect("a live machine's snapshot always applies")
    }

    /// Whether forking a `fault`-carrying run from this machine's
    /// current state is provably byte-identical to running it from
    /// reset: true iff the fault's observable surface was never
    /// exercised so far.
    pub fn fork_safe(&self, fault: PlatformFault) -> bool {
        self.bus.fault_fork_safe(fault)
    }

    /// FNV digest over the architectural (timing-free) machine state:
    /// registers, RAM, NVM and externally observable peripheral state.
    /// Two platforms executing the same architectural stream digest
    /// equal at the same retired-instruction count; divergence
    /// bisection binary-searches this.
    pub fn state_digest(&self) -> u64 {
        let mut bytes = Vec::new();
        self.cpu.arch_bytes(&mut bytes);
        self.bus.arch_bytes(&mut bytes);
        fnv1a(FNV_BASIS, &bytes)
    }

    fn apply_body(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.fuel = r.take_u64()?;
        self.reset_done = r.take_bool()?;
        self.cpu.apply_state(r)?;
        self.bus.apply_state(r)?;
        self.trace = if r.take_bool()? {
            Some(ExecTrace::from_save(r)?)
        } else {
            None
        };
        r.expect_end()
    }
}

/// Convenience: assemble-load-run one image on a fresh platform.
pub fn run_image(id: PlatformId, derivative: &Derivative, image: &Image) -> RunResult {
    let mut platform = Platform::new(id, derivative);
    platform.load_image(image);
    platform.run()
}

#[cfg(test)]
mod tests {
    use advm_asm::{assemble_str, Image};

    use super::*;

    fn image(asm: &str) -> Image {
        let program = assemble_str(asm).unwrap_or_else(|e| panic!("{e}"));
        let mut image = Image::new();
        image.load_program(&program).unwrap();
        image
    }

    fn passing_test() -> Image {
        image(
            "\
_main:
    LOAD d1, #0x600D0000
    STORE [0xEFF00], d1
    STORE [0xEFF08], d1
    HALT #0
",
        )
    }

    #[test]
    fn pass_protocol_ends_run() {
        let result = run_image(
            PlatformId::GoldenModel,
            &Derivative::sc88a(),
            &passing_test(),
        );
        assert!(result.passed(), "{result}");
        assert_eq!(result.end, EndReason::SimEnd);
    }

    #[test]
    fn same_image_passes_on_all_platforms() {
        let img = passing_test();
        for id in PlatformId::ALL {
            let result = run_image(id, &Derivative::sc88a(), &img);
            assert!(result.passed(), "{result}");
        }
    }

    #[test]
    fn cycle_counts_rank_platforms() {
        let img = image(
            "\
_main:
    LOAD d1, #100
loop:
    SUB d1, d1, #1
    CMP d1, #0
    JNE loop
    HALT #0
",
        );
        let golden = run_image(PlatformId::GoldenModel, &Derivative::sc88a(), &img);
        let rtl = run_image(PlatformId::RtlSim, &Derivative::sc88a(), &img);
        let gate = run_image(PlatformId::GateSim, &Derivative::sc88a(), &img);
        assert_eq!(golden.insns, rtl.insns, "same architecture");
        assert!(rtl.cycles > golden.cycles, "RTL charges pipeline costs");
        assert!(gate.cycles > rtl.cycles, "gate level is slower still");
    }

    #[test]
    fn hung_test_runs_out_of_fuel() {
        let img = image("_main:\n    JMP _main\n");
        let mut platform = Platform::new(PlatformId::GoldenModel, &Derivative::sc88a());
        platform.set_fuel(1000);
        platform.load_image(&img);
        let result = platform.run();
        assert_eq!(result.end, EndReason::OutOfFuel);
        assert!(!result.passed());
    }

    #[test]
    fn dbg_markers_visible_only_on_debug_platforms() {
        let img = image(
            "\
_main:
    DBG #1
    DBG #2
    HALT #0
",
        );
        let golden = run_image(PlatformId::GoldenModel, &Derivative::sc88a(), &img);
        assert_eq!(golden.dbg_markers, vec![1, 2]);
        let silicon = run_image(PlatformId::ProductSilicon, &Derivative::sc88a(), &img);
        assert!(silicon.dbg_markers.is_empty(), "silicon has no debug port");
        // Architecturally identical regardless of visibility.
        assert_eq!(golden.end, silicon.end);
    }

    #[test]
    fn platform_register_identifies_platform() {
        let img = image(
            "\
_main:
    LOAD d1, [0xEFF10]
    STORE [0xEFF14], d1
    HALT #0
",
        );
        for id in PlatformId::ALL {
            let mut platform = Platform::new(id, &Derivative::sc88a());
            platform.load_image(&img);
            platform.run();
            let scratch = platform.bus().read32(0xE_FF14).unwrap();
            assert_eq!(scratch, id.code(), "{id}");
        }
    }

    #[test]
    fn injected_page_fault_fails_only_on_faulty_platform() {
        // A read-back test: select page 5, verify ACTIVE_PAGE == 5.
        let img = image(
            "\
_main:
    MOVI d14, #0
    INSERT d14, d14, #5, 0, 5
    ORI d14, d14, #0x100
    STORE [0xE0100], d14
    LOAD d1, [0xE0104]
    ANDI d1, d1, #0x1F
    CMP d1, #5
    JNE fail
    LOAD d2, #0x600D0000
    STORE [0xEFF00], d2
    STORE [0xEFF08], d2
    HALT #0
fail:
    LOAD d2, #0xBAD00001
    STORE [0xEFF00], d2
    STORE [0xEFF08], d2
    HALT #1
",
        );
        let clean = run_image(PlatformId::RtlSim, &Derivative::sc88a(), &img);
        assert!(clean.passed());

        let mut faulty = Platform::with_fault(
            PlatformId::RtlSim,
            &Derivative::sc88a(),
            PlatformFault::PageActiveOffByOne,
        );
        faulty.load_image(&img);
        let result = faulty.run();
        assert!(!result.passed(), "{result}");
    }

    #[test]
    fn trace_available_on_bondout_but_not_silicon() {
        let img = passing_test();
        let mut bondout = Platform::new(PlatformId::Bondout, &Derivative::sc88a());
        bondout.enable_trace(64);
        bondout.load_image(&img);
        bondout.run();
        let trace = bondout.trace().expect("bondout has debug visibility");
        assert!(!trace.records().is_empty());
        assert!(
            trace.disassembly().contains("MOVI"),
            "{}",
            trace.disassembly()
        );

        let mut silicon = Platform::new(PlatformId::ProductSilicon, &Derivative::sc88a());
        silicon.enable_trace(64);
        silicon.load_image(&img);
        silicon.run();
        assert!(
            silicon.trace().is_none(),
            "no logic analyser on product silicon"
        );
    }

    #[test]
    fn trace_signatures_match_across_debug_platforms() {
        // Golden model and bondout execute the same architectural stream:
        // their full-history signatures must agree (cycle counts differ).
        let img = passing_test();
        let mut signatures = Vec::new();
        for id in [PlatformId::GoldenModel, PlatformId::Bondout] {
            let mut platform = Platform::new(id, &Derivative::sc88a());
            platform.enable_trace(16);
            platform.load_image(&img);
            platform.run();
            signatures.push(platform.trace().unwrap().signature());
        }
        assert_eq!(signatures[0], signatures[1]);
    }

    #[test]
    fn a_machine_holds_only_the_pages_its_image_and_stack_cover() {
        use std::collections::BTreeSet;

        use advm_soc::memmap::STACK_TOP;

        use crate::paged::PAGE_BYTES;

        // Code in the first ROM page, a data store in the first RAM page
        // and a CALL whose return address lands in the last RAM page.
        let img = image(
            "\
_main:
    LOAD d1, #0xDEAD0000
    STORE [0x40100], d1
    CALL sub
    LOAD d2, #0x600D0000
    STORE [0xEFF00], d2
    STORE [0xEFF08], d2
    HALT #0
sub:
    RETURN
",
        );
        let page = |addr: u32| addr as usize / PAGE_BYTES;
        let image_pages: BTreeSet<usize> = img.iter().map(|(addr, _)| page(addr)).collect();
        let data_pages: BTreeSet<usize> = [0x4_0100, STACK_TOP - 4].into_iter().map(page).collect();
        assert_eq!((image_pages.len(), data_pages.len()), (1, 2));
        let decoded = DecodedProgram::from_image(&img);
        for id in PlatformId::ALL {
            for prebuilt in [false, true] {
                let mut machine = Platform::new(id, &Derivative::sc88a());
                assert_eq!(machine.bus().resident_pages(), (0, 0), "{id}: construction");
                if prebuilt {
                    machine.load_prebuilt(&img, &decoded);
                } else {
                    machine.load_image(&img);
                }
                // Preloading fills the image page's slots.
                let slots = usize::from(prebuilt);
                let loaded = (image_pages.len(), slots);
                assert_eq!(machine.bus().resident_pages(), loaded, "{id}: load");
                assert!(machine.run().passed(), "{id}");
                // The run adds the data and stack pages, and the code
                // page's slots and block map.
                let ran = (image_pages.len() + data_pages.len(), 2);
                assert_eq!(machine.bus().resident_pages(), ran, "{id}: run");
            }
        }
    }

    #[test]
    fn console_output_collected() {
        let img = image(
            "\
_main:
    LOAD d1, #72
    STORE [0xEFF04], d1
    LOAD d1, #105
    STORE [0xEFF04], d1
    HALT #0
",
        );
        let result = run_image(PlatformId::GoldenModel, &Derivative::sc88a(), &img);
        assert_eq!(result.console, "Hi");
    }
}
