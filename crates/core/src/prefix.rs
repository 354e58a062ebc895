//! Shared golden prefixes — snapshot-based run forking for campaigns.
//!
//! Every run of the same deduplicated image on the same platform retires
//! an identical instruction prefix: reset, the ES ROM's dispatch
//! preamble, the test's own setup. A campaign on an
//! [`ArtifactStore`](crate::artifacts::ArtifactStore) executes that
//! prefix **once** per `(content key, platform)` on a fault-free
//! machine, snapshots it ([`advm_sim::Platform::snapshot`]) into the
//! store, and lets every later run of a campaign sharing the store —
//! including fault-injected ones — fork from the snapshot instead of
//! re-executing from reset.
//!
//! Forking is only taken when it is provably byte-identical to running
//! from reset ([`advm_sim::Platform::fork_safe`]): the prefix must have
//! ended by exhausting its budget (not by halting), and the injected
//! fault's module must be untouched by the prefix's MMIO coverage.
//! Otherwise the run silently falls back to from-reset execution —
//! verdicts never depend on whether a fork happened.
//!
//! The store is the only way in: a campaign forks when it has one
//! attached ([`Campaign::artifact_store`](crate::campaign::Campaign::artifact_store)),
//! and [`ArtifactStore::with_prefix_budget`](crate::artifacts::ArtifactStore::with_prefix_budget)
//! sets the budget (0 switches forking off). [`crate::audit::FaultAudit`]
//! runs all of its campaigns on one store, so the whole fault × platform
//! matrix pays for each image's prefix exactly once.

use std::sync::{Arc, OnceLock};

use advm_sim::{PlatformFault, SaveState};

/// Default prefix budget: instructions executed before the snapshot
/// point. Long enough to cover reset plus the ES ROM preamble, short
/// enough that the snapshot lands before typical tests start touching
/// the peripheral under test.
pub const DEFAULT_PREFIX_BUDGET: u64 = 64;

/// One captured prefix: the machine snapshot plus the run-local
/// observations a forked continuation must inherit.
pub(crate) struct PrefixEntry {
    /// The machine at the snapshot point.
    pub(crate) state: SaveState,
    /// Instructions the prefix retired (what each fork skips).
    pub(crate) retired: u64,
    /// `DBG` markers the prefix emitted; markers are collected per
    /// `run()` call, so forked continuations prepend these.
    pub(crate) dbg_markers: Vec<u8>,
    /// Per-fault fork-safety verdicts captured from the live prefix
    /// machine (bit `i` = `PlatformFault::ALL[i]` forks safely), so an
    /// unsafe fork is rejected without deserializing the snapshot.
    fork_safe_mask: u16,
}

impl PrefixEntry {
    /// Seals a prefix captured on the live `platform` machine.
    pub(crate) fn capture(
        platform: &advm_sim::Platform,
        retired: u64,
        dbg_markers: Vec<u8>,
    ) -> Self {
        let fork_safe_mask = PlatformFault::ALL
            .iter()
            .enumerate()
            .fold(0u16, |mask, (i, &fault)| {
                mask | (u16::from(platform.fork_safe(fault)) << i)
            });
        Self {
            state: platform.snapshot(),
            retired,
            dbg_markers,
            fork_safe_mask,
        }
    }

    /// Whether forking a `fault`-carrying run from this prefix is
    /// provably byte-identical to running it from reset. Equals what
    /// the restored machine's `fork_safe` would answer — MMIO coverage
    /// round-trips through the snapshot — but costs a bit test instead
    /// of a deserialization.
    pub(crate) fn fork_safe(&self, fault: PlatformFault) -> bool {
        match PlatformFault::ALL.iter().position(|&f| f == fault) {
            Some(i) => self.fork_safe_mask & (1 << i) != 0,
            // Fault-free forks of a live prefix are always safe.
            None => true,
        }
    }
}

/// The shared once-slot for one `(content key, platform)` prefix: the
/// first worker to arrive initializes it; `None` marks an image whose
/// prefix cannot be forked (it halted inside the budget).
pub(crate) type PrefixSlot = Arc<OnceLock<Option<PrefixEntry>>>;
