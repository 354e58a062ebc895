//! # advm-sim — the six SC88 execution platforms
//!
//! The paper's §1 lists the development platforms a compiled assembler
//! test suite must cross unchanged: golden reference model, HDL-RTL
//! simulation, gate-level simulation, hardware accelerator, bondout
//! silicon and product silicon. This crate implements all six over one
//! architectural core:
//!
//! * [`cpu`] — the SC88 execution core (identical everywhere),
//! * [`bus`] — memory plus derivative-placed peripherals
//!   ([`periph`]: UART, page module, timer, interrupt controller,
//!   watchdog, NVM controller, CRC unit, test-bench mailbox),
//! * [`decoded`] — predecoded-instruction artifacts and the per-bus
//!   decode cache with its superblock tier,
//! * [`platform`] — per-platform cycle models, debug visibility, reset
//!   behaviour and the run loop,
//! * [`fault`] — injectable platform bugs,
//! * [`diverge`] — cross-platform result comparison (the "if they don't
//!   execute the code the same way, a bug has been found" check),
//! * [`savestate`] — versioned, byte-stable whole-machine snapshots
//!   ([`Platform::snapshot`]/[`Platform::restore`]/[`Platform::fork`]),
//! * [`bisect`] — snapshot-powered binary search for the first retired
//!   instruction at which two platforms diverge.
//!
//! A machine's state is sized to what its run touches. ROM, RAM, NVM
//! and the decode cache's slot tables and superblock maps are paged
//! tables over the whole SC88 address space: a page is allocated on its
//! first write, and an absent page reads as its region's power-up fill
//! (`0x00` for ROM and RAM, erased `0xFF` for NVM). Constructing a
//! machine allocates no page, so every run builds a fresh one, and
//! snapshots encode memories page by page (byte-identical to encoding
//! them whole). The derivative-dependent bus wiring — peripheral windows
//! and page-field geometry — is built once per catalogued derivative.
//!
//! ```
//! use advm_asm::{assemble_str, Image};
//! use advm_sim::platform::run_image;
//! use advm_soc::{Derivative, PlatformId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble_str(
//!     "_main:\n    LOAD d1, #0x600D0000\n    STORE [0xEFF00], d1\n    STORE [0xEFF08], d1\n",
//! )?;
//! let mut image = Image::new();
//! image.load_program(&program)?;
//! let result = run_image(PlatformId::GoldenModel, &Derivative::sc88a(), &image);
//! assert!(result.passed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;
pub mod bus;
pub mod cpu;
pub mod decoded;
pub mod diverge;
pub mod fault;
mod paged;
pub mod periph;
pub mod platform;
pub mod savestate;
pub mod trace;

pub use bisect::{bisect_divergence, FirstDivergence};
pub use bus::{BusFault, SocBus};
pub use cpu::{BatchExit, CostModel, Cpu, FatalError, StepOutcome};
pub use decoded::{DecodeStats, DecodedProgram};
pub use diverge::{compare, DivergenceError, DivergenceReport};
pub use fault::{PlatformFault, BUS_WAIT_STATE_CYCLES};
pub use platform::{run_image, EndReason, Platform, RunResult, DEFAULT_FUEL};
pub use savestate::{SaveState, SaveStateError, SAVESTATE_MAGIC, SAVESTATE_VERSION};
pub use trace::{ExecTrace, MmioEvent, MmioTrace, TraceRecord};
