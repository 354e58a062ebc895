//! Trace assertions: invariants and bounded-temporal checks mined from
//! fault-free MMIO traces, then evaluated against every later run.
//!
//! Mining is purely observational — no peripheral knowledge is wired
//! in. Two families are derived from [`MmioTrace`]s:
//!
//! * [`TraceAssertion::ReadbackEquals`] — for a register that is read
//!   back after writes, the bits that matched on *every* observed
//!   write→read pair form the invariant mask ("page MAP readback equals
//!   the last MAP write").
//! * [`TraceAssertion::BitSetsWithin`] — for a (write register, status
//!   register, bit) triple in the same module where the bit was observed
//!   to rise after every write, the mined window bounds the rise
//!   latency ("UART `TX_READY` sets within N cycles of a data write").
//!
//! Both checkers are truncation-aware. The monitor's ring drops the
//! *oldest* records first, so a retained write is always followed by a
//! complete suffix of events: checkers anchor only on retained writes,
//! and reads whose anchoring write fell off the ring are skipped, never
//! reported as violations.

use std::collections::BTreeMap;

use advm_sim::{MmioEvent, MmioTrace};

/// Minimum number of observations before an invariant is mined (a
/// single pair proves nothing about intent).
const MIN_SAMPLES: usize = 2;

/// Slack multiplier applied to the worst observed rise latency: mined
/// windows must stay robust to small cycle perturbations without
/// letting a stuck status bit escape.
const WINDOW_SLACK: u64 = 2;
/// Additive slack on mined windows (cycles).
const WINDOW_PAD: u64 = 64;

/// One mined checker over a run's MMIO trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceAssertion {
    /// Reading `addr` after a write returns the written value under
    /// `mask` (bits outside the mask are unconstrained).
    ReadbackEquals {
        /// The register address.
        addr: u32,
        /// Bits that must read back as written.
        mask: u32,
    },
    /// After every write to `write_addr`, bit `bit` of `status_addr`
    /// reads as set within `window` cycles (observing it still clear
    /// later than the window — with no set observation in between — is
    /// a violation; vacuous if the status is never read).
    BitSetsWithin {
        /// The register whose write arms the check.
        write_addr: u32,
        /// The status register the bit lives in.
        status_addr: u32,
        /// The status bit index.
        bit: u8,
        /// Maximum allowed rise latency in cycles.
        window: u64,
    },
}

impl TraceAssertion {
    /// A stable machine-readable name (used in events and report JSON).
    pub fn name(&self) -> String {
        match self {
            TraceAssertion::ReadbackEquals { addr, mask } => {
                format!("readback[{addr:#07x}&{mask:#010x}]")
            }
            TraceAssertion::BitSetsWithin {
                write_addr,
                status_addr,
                bit,
                window,
            } => format!("within[{write_addr:#07x}->{status_addr:#07x} bit{bit} w={window}]"),
        }
    }

    /// Evaluates the checker against one run's MMIO trace, returning a
    /// detail string per violation (empty = clean).
    pub fn check(&self, trace: &MmioTrace) -> Vec<String> {
        let events = trace.records();
        match *self {
            TraceAssertion::ReadbackEquals { addr, mask } => check_readback(&events, addr, mask),
            TraceAssertion::BitSetsWithin {
                write_addr,
                status_addr,
                bit,
                window,
            } => check_bit_sets_within(&events, write_addr, status_addr, bit, window),
        }
    }
}

/// Readback invariant: compare each read of `addr` against the last
/// *retained* write. Reads before the first retained write are skipped
/// — if the ring truncated, the anchoring write may have been dropped,
/// and an unanchored comparison would be a false violation.
fn check_readback(events: &[MmioEvent], addr: u32, mask: u32) -> Vec<String> {
    let mut last_write: Option<&MmioEvent> = None;
    let mut violations = Vec::new();
    for event in events.iter().filter(|e| e.addr == addr) {
        if event.write {
            last_write = Some(event);
        } else if let Some(w) = last_write {
            if (event.value ^ w.value) & mask != 0 {
                violations.push(format!(
                    "{addr:#07x}: wrote {:#010x} at cycle {}, read {:#010x} at cycle {} \
                     (mask {mask:#010x})",
                    w.value, w.cycle, event.value, event.cycle
                ));
            }
        }
    }
    violations
}

/// Bounded-temporal check, anchored on each retained write to
/// `write_addr`. Because the ring drops oldest-first, every event after
/// a retained anchor is itself retained — the scan forward is complete,
/// and dropped anchors are simply never scanned.
fn check_bit_sets_within(
    events: &[MmioEvent],
    write_addr: u32,
    status_addr: u32,
    bit: u8,
    window: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, anchor) in events.iter().enumerate() {
        if !(anchor.write && anchor.addr == write_addr) {
            continue;
        }
        for event in &events[i + 1..] {
            if event.write && event.addr == write_addr {
                break; // next transaction re-arms the check
            }
            if event.write || event.addr != status_addr {
                continue;
            }
            let latency = event.cycle.saturating_sub(anchor.cycle);
            if event.value >> bit & 1 == 1 {
                if latency > window {
                    violations.push(late(anchor, write_addr, status_addr, bit, window, latency));
                }
                break;
            }
            if latency > window {
                violations.push(late(anchor, write_addr, status_addr, bit, window, latency));
                break;
            }
        }
    }
    violations
}

fn late(
    anchor: &MmioEvent,
    write_addr: u32,
    status_addr: u32,
    bit: u8,
    window: u64,
    latency: u64,
) -> String {
    format!(
        "{status_addr:#07x} bit{bit} not set {latency} cycles after write to {write_addr:#07x} \
         at cycle {} (window {window})",
        anchor.cycle
    )
}

/// Per-address readback statistics accumulated during mining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadbackStats {
    pairs: usize,
    mask: u32,
}

impl Default for ReadbackStats {
    /// No pairs yet: every bit is still a mask candidate.
    fn default() -> Self {
        Self {
            pairs: 0,
            mask: u32::MAX,
        }
    }
}

impl ReadbackStats {
    fn merge(&mut self, other: &Self) {
        self.pairs += other.pairs;
        self.mask &= other.mask;
    }
}

/// Per-(write, status, bit) temporal statistics accumulated during
/// mining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RiseStats {
    anchors: usize,
    max_latency: u64,
    saw_clear_first: bool,
    incomplete: bool,
}

impl RiseStats {
    fn merge(&mut self, other: &Self) {
        self.anchors += other.anchors;
        self.max_latency = self.max_latency.max(other.max_latency);
        self.saw_clear_first |= other.saw_clear_first;
        self.incomplete |= other.incomplete;
    }
}

/// Incremental checker mining: [`observe`](Miner::observe) folds one
/// fault-free trace into running statistics, so a trace can be dropped
/// as soon as it is observed.
///
/// Every statistic is a sum, a maximum, a bitwise AND or an OR, so
/// miners fed disjoint shares of a trace set [`merge`](Miner::merge) in
/// any order to the miner that observed the whole set — one miner per
/// worker, merged at the end, [`finish`](Miner::finish)es to exactly
/// what [`mine`] returns for the full list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Miner {
    readback: BTreeMap<u32, ReadbackStats>,
    rise: BTreeMap<(u32, u32, u8), RiseStats>,
}

impl Miner {
    /// A miner that has observed nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one fault-free trace into the statistics.
    pub fn observe(&mut self, trace: &MmioTrace) {
        let events = trace.records();
        mine_readback(&events, &mut self.readback);
        mine_rise(&events, &mut self.rise);
    }

    /// Combines two miners' statistics; the result is the miner that
    /// observed both trace sets.
    #[must_use]
    pub fn merge(mut self, other: Miner) -> Miner {
        for (addr, stats) in &other.readback {
            self.readback.entry(*addr).or_default().merge(stats);
        }
        for (key, stats) in &other.rise {
            self.rise.entry(*key).or_default().merge(stats);
        }
        self
    }

    /// The checkers the observed traces support. Deterministic: output
    /// order follows the derived key order, independent of observation
    /// and merge order.
    pub fn finish(self) -> Vec<TraceAssertion> {
        let mut mined = Vec::new();
        for (addr, stats) in self.readback {
            if stats.pairs >= MIN_SAMPLES && stats.mask != 0 {
                mined.push(TraceAssertion::ReadbackEquals {
                    addr,
                    mask: stats.mask,
                });
            }
        }
        for ((write_addr, status_addr, bit), stats) in self.rise {
            if stats.anchors >= MIN_SAMPLES && stats.saw_clear_first && !stats.incomplete {
                mined.push(TraceAssertion::BitSetsWithin {
                    write_addr,
                    status_addr,
                    bit,
                    window: WINDOW_SLACK * stats.max_latency + WINDOW_PAD,
                });
            }
        }
        mined
    }
}

/// Mines checkers from a set of fault-free traces (typically one trace
/// per program × platform): a [`Miner`] folded over `traces`.
/// Deterministic: output order follows the derived key order,
/// independent of trace order.
pub fn mine(traces: &[&MmioTrace]) -> Vec<TraceAssertion> {
    let mut miner = Miner::new();
    for trace in traces {
        miner.observe(trace);
    }
    miner.finish()
}

fn mine_readback(events: &[MmioEvent], stats: &mut BTreeMap<u32, ReadbackStats>) {
    let mut last_write: BTreeMap<u32, u32> = BTreeMap::new();
    for event in events {
        if event.write {
            last_write.insert(event.addr, event.value);
        } else if let Some(written) = last_write.get(&event.addr) {
            let entry = stats.entry(event.addr).or_default();
            entry.pairs += 1;
            entry.mask &= !(event.value ^ written);
        }
    }
}

/// Candidate temporal pairs are (write register, status register) in
/// the same 256-byte module window — cross-module couplings are noise.
fn same_module(a: u32, b: u32) -> bool {
    a & !0xFF == b & !0xFF
}

fn mine_rise(events: &[MmioEvent], stats: &mut BTreeMap<(u32, u32, u8), RiseStats>) {
    for (i, anchor) in events.iter().enumerate() {
        if !anchor.write {
            continue;
        }
        // Which status registers were read between this write and the
        // next write to the same register? Per (status, bit): whether
        // the *first* read saw the bit clear, and the latency of the
        // first read that saw it set.
        #[derive(Default)]
        struct Observation {
            seen: bool,
            clear_first: bool,
            first_set: Option<u64>,
        }
        let mut per_status: BTreeMap<(u32, u8), Observation> = BTreeMap::new();
        for event in &events[i + 1..] {
            if event.write && event.addr == anchor.addr {
                break;
            }
            if event.write || !same_module(event.addr, anchor.addr) || event.addr == anchor.addr {
                continue;
            }
            for bit in 0..4u8 {
                let set = event.value >> bit & 1 == 1;
                let latency = event.cycle.saturating_sub(anchor.cycle);
                let entry = per_status.entry((event.addr, bit)).or_default();
                if !entry.seen {
                    entry.seen = true;
                    entry.clear_first = !set;
                }
                if set && entry.first_set.is_none() {
                    entry.first_set = Some(latency);
                }
            }
        }
        for ((status_addr, bit), observation) in per_status {
            let Observation {
                seen,
                clear_first,
                first_set,
            } = observation;
            if !seen {
                continue;
            }
            let entry = stats.entry((anchor.addr, status_addr, bit)).or_default();
            entry.anchors += 1;
            entry.saw_clear_first |= clear_first;
            match first_set {
                Some(latency) => entry.max_latency = entry.max_latency.max(latency),
                // Reads observed but the bit never rose: this pair
                // cannot be mined as a rise bound.
                None => entry.incomplete = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(cycle: u64, addr: u32, value: u32) -> MmioEvent {
        MmioEvent {
            cycle,
            addr,
            value,
            write: true,
        }
    }

    fn read(cycle: u64, addr: u32, value: u32) -> MmioEvent {
        MmioEvent {
            cycle,
            addr,
            value,
            write: false,
        }
    }

    fn trace_of(events: &[MmioEvent], capacity: usize) -> MmioTrace {
        let mut trace = MmioTrace::new(capacity);
        for e in events {
            trace.record(*e);
        }
        trace
    }

    const MAP: u32 = 0xE0108;
    const DATA: u32 = 0xE0008;
    const STATUS: u32 = 0xE0004;

    #[test]
    fn mines_readback_invariant_and_detects_ignored_writes() {
        let clean = trace_of(
            &[
                write(10, MAP, 0x1234),
                read(12, MAP, 0x1234),
                write(20, MAP, 0x00FF),
                read(22, MAP, 0x00FF),
            ],
            64,
        );
        let mined = mine(&[&clean]);
        assert_eq!(
            mined,
            vec![TraceAssertion::ReadbackEquals {
                addr: MAP,
                mask: u32::MAX
            }]
        );
        let checker = mined[0];
        assert!(checker.check(&clean).is_empty());

        // A faulted platform ignoring the write violates the invariant.
        let faulty = trace_of(&[write(10, MAP, 0x1234), read(12, MAP, 0x0000)], 64);
        let violations = checker.check(&faulty);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("wrote 0x00001234"), "{violations:?}");
    }

    #[test]
    fn readback_mask_narrows_to_stable_bits() {
        // Bit 4 reads back flipped once: it must leave the mask.
        let trace = trace_of(
            &[
                write(1, MAP, 0x10),
                read(2, MAP, 0x00),
                write(3, MAP, 0x13),
                read(4, MAP, 0x13),
            ],
            64,
        );
        let mined = mine(&[&trace]);
        assert_eq!(
            mined,
            vec![TraceAssertion::ReadbackEquals {
                addr: MAP,
                mask: !0x10
            }]
        );
    }

    #[test]
    fn mines_rise_window_and_detects_stuck_bit() {
        let mut events = Vec::new();
        // Two transmissions: the ready bit is clear right after the
        // write and rises 30 cycles later.
        for base in [100u64, 400] {
            events.push(write(base, DATA, 0x41));
            events.push(read(base + 6, STATUS, 0));
            events.push(read(base + 30, STATUS, 1));
        }
        let clean = trace_of(&events, 256);
        let mined = mine(&[&clean]);
        let checker = mined
            .iter()
            .find(|c| matches!(c, TraceAssertion::BitSetsWithin { bit: 0, .. }))
            .expect("rise checker mined");
        if let TraceAssertion::BitSetsWithin { window, .. } = checker {
            assert_eq!(*window, 2 * 30 + 64);
        }
        assert!(checker.check(&clean).is_empty());

        // Stuck busy: the bit never rises and polls continue far past
        // the window.
        let stuck = trace_of(
            &[
                write(100, DATA, 0x41),
                read(106, STATUS, 0),
                read(300, STATUS, 0),
            ],
            256,
        );
        let violations = checker.check(&stuck);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("bit0 not set"), "{violations:?}");
    }

    #[test]
    fn rise_mining_requires_clear_first_observation() {
        // The bit is already set on every first read: no temporal
        // relationship is observable, so nothing is mined.
        let trace = trace_of(
            &[
                write(10, DATA, 0x41),
                read(12, STATUS, 1),
                write(20, DATA, 0x42),
                read(22, STATUS, 1),
            ],
            64,
        );
        assert!(mine(&[&trace])
            .iter()
            .all(|c| !matches!(c, TraceAssertion::BitSetsWithin { .. })));
    }

    #[test]
    fn truncated_traces_skip_unanchored_checks() {
        let readback = TraceAssertion::ReadbackEquals {
            addr: MAP,
            mask: u32::MAX,
        };
        let temporal = TraceAssertion::BitSetsWithin {
            write_addr: DATA,
            status_addr: STATUS,
            bit: 0,
            window: 10,
        };
        // The anchoring writes (and for readback, the value they wrote)
        // fall off a tiny ring; the retained reads *look* like
        // violations but must be skipped. Capacity 0 retains nothing,
        // 1 and 2 only the newest reads.
        let events = [
            write(1, MAP, 0x1234),
            write(2, DATA, 0x41),
            read(50, STATUS, 0), // far beyond the window
            read(51, MAP, 0x9999),
            read(52, MAP, 0x9999),
            read(53, MAP, 0x9999),
        ];
        for capacity in [0, 1, 2, 4] {
            let tiny = trace_of(&events, capacity);
            assert!(tiny.dropped() > 0, "capacity {capacity}");
            for checker in [readback, temporal] {
                assert!(checker.check(&tiny).is_empty(), "capacity {capacity}");
            }
        }

        // The same stream with a large ring does violate both.
        let full = trace_of(&events, 64);
        assert_eq!(full.dropped(), 0);
        assert_eq!(readback.check(&full).len(), 3);
        assert_eq!(temporal.check(&full).len(), 1);
    }

    #[test]
    fn checker_names_are_stable() {
        assert_eq!(
            TraceAssertion::ReadbackEquals {
                addr: MAP,
                mask: 0xFFFF
            }
            .name(),
            "readback[0xe0108&0x0000ffff]"
        );
        assert_eq!(
            TraceAssertion::BitSetsWithin {
                write_addr: DATA,
                status_addr: STATUS,
                bit: 0,
                window: 124
            }
            .name(),
            "within[0xe0008->0xe0004 bit0 w=124]"
        );
    }
}
