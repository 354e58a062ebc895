//! Execution tracing — the bondout device's "extra hardware debugging
//! capabilities", also available on the golden model and RTL simulation.
//!
//! A trace records the retired program-counter stream (bounded), the
//! fetched instruction words, and a FNV signature over the whole
//! retirement history. Signatures compare cheaply across debug-visible
//! platforms: two platforms executing the same architectural stream have
//! equal signatures even when their cycle counts differ.

use std::fmt;

use advm_isa::decode;

use crate::savestate::{put_u32, put_u64, SaveReader, SaveStateError};

/// One retired-instruction trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Program counter of the retired instruction.
    pub pc: u32,
    /// The fetched instruction word.
    pub word: u32,
}

/// A bounded execution trace with a full-history signature.
///
/// The retained window is a true ring buffer: recording is O(1) at any
/// capacity (the previous implementation shifted the whole window with
/// `Vec::remove(0)` once full — O(capacity) per retired instruction on
/// long exploration runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecTrace {
    /// Ring storage; once `ring.len() == capacity`, `head` is the
    /// oldest record's index and new records overwrite in place.
    ring: Vec<TraceRecord>,
    head: usize,
    capacity: usize,
    dropped: u64,
    signature: u64,
}

impl ExecTrace {
    /// A trace keeping at most `capacity` most-recent records (the
    /// signature always covers the full history).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Vec::new(),
            head: 0,
            capacity,
            dropped: 0,
            signature: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Records one retirement.
    pub fn record(&mut self, pc: u32, word: u32) {
        for b in pc.to_le_bytes().into_iter().chain(word.to_le_bytes()) {
            self.signature ^= u64::from(b);
            self.signature = self.signature.wrapping_mul(0x100_0000_01b3);
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(TraceRecord { pc, word });
            return;
        }
        self.ring[self.head] = TraceRecord { pc, word };
        self.head = (self.head + 1) % self.capacity;
        self.dropped += 1;
    }

    /// The retained (most recent) records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.iter().copied().collect()
    }

    /// Iterates the retained window, oldest record first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently retained in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records that fell off the front of the window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The FNV signature over the *entire* retirement history.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Renders the retained window as a disassembly listing.
    pub fn disassembly(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier record(s) dropped ...\n",
                self.dropped
            ));
        }
        for r in self.iter() {
            match decode(r.word) {
                Ok(insn) => out.push_str(&format!("{:05X}: {insn}\n", r.pc)),
                Err(_) => out.push_str(&format!("{:05X}: .WORD 0x{:08X}\n", r.pc, r.word)),
            }
        }
        out
    }

    /// Serializes the trace: capacity, ring position, dropped count,
    /// signature and the raw ring storage (physical order, so a restored
    /// trace iterates in exactly the same oldest-first order).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.capacity as u64);
        put_u64(out, self.head as u64);
        put_u64(out, self.dropped);
        put_u64(out, self.signature);
        put_u32(out, self.ring.len() as u32);
        for r in &self.ring {
            put_u32(out, r.pc);
            put_u32(out, r.word);
        }
    }

    /// Reconstructs a trace from a snapshot body.
    pub(crate) fn from_save(r: &mut SaveReader<'_>) -> Result<Self, SaveStateError> {
        let capacity = usize::try_from(r.take_u64()?)
            .map_err(|_| SaveStateError::Corrupt("trace capacity out of range"))?;
        let head = usize::try_from(r.take_u64()?)
            .map_err(|_| SaveStateError::Corrupt("trace head out of range"))?;
        let dropped = r.take_u64()?;
        let signature = r.take_u64()?;
        let len = r.take_u32()? as usize;
        if len > capacity || (head != 0 && head >= len) {
            return Err(SaveStateError::Corrupt("trace ring geometry"));
        }
        let mut ring = Vec::with_capacity(len);
        for _ in 0..len {
            ring.push(TraceRecord {
                pc: r.take_u32()?,
                word: r.take_u32()?,
            });
        }
        Ok(Self {
            ring,
            head,
            capacity,
            dropped,
            signature,
        })
    }
}

/// One observed MMIO bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmioEvent {
    /// Bus cycle at which the transaction completed (wait states
    /// included).
    pub cycle: u64,
    /// Absolute register address.
    pub addr: u32,
    /// The value written, or the value the read returned.
    pub value: u32,
    /// `true` for a write, `false` for a read.
    pub write: bool,
}

/// A bounded MMIO transaction monitor.
///
/// Unlike [`ExecTrace`], which models silicon debug hardware and is
/// therefore restricted to debug-visible platforms, this monitor sits in
/// the *verification environment* — the test bench watches bus
/// transactions on every platform, the way the paper's test bench
/// observes device pins. It is scaffolding, not machine state: snapshots
/// never carry it, and an armed monitor does not perturb execution.
///
/// Same ring discipline as [`ExecTrace`]: O(1) recording, oldest records
/// dropped first, with [`MmioTrace::dropped`] counting the loss so
/// consumers can tell a complete history from a truncated one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmioTrace {
    ring: Vec<MmioEvent>,
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl MmioTrace {
    /// A monitor keeping at most `capacity` most-recent transactions.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Vec::new(),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Records one bus transaction.
    pub fn record(&mut self, event: MmioEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(event);
            return;
        }
        self.ring[self.head] = event;
        self.head = (self.head + 1) % self.capacity;
        self.dropped += 1;
    }

    /// The retained (most recent) transactions, oldest first.
    pub fn records(&self) -> Vec<MmioEvent> {
        self.iter().copied().collect()
    }

    /// Iterates the retained window, oldest transaction first.
    pub fn iter(&self) -> impl Iterator<Item = &MmioEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of transactions currently retained in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Transactions that fell off the front of the window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl fmt::Display for ExecTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace[{} records, {} dropped, sig {:016x}]",
            self.len(),
            self.dropped,
            self.signature
        )
    }
}

#[cfg(test)]
mod tests {
    use advm_isa::{encode, Insn};

    use super::*;

    #[test]
    fn signature_covers_full_history() {
        let mut small = ExecTrace::new(2);
        let mut large = ExecTrace::new(100);
        for pc in (0x100..0x140).step_by(4) {
            small.record(pc, encode(&Insn::Nop));
            large.record(pc, encode(&Insn::Nop));
        }
        assert_eq!(
            small.signature(),
            large.signature(),
            "window size is invisible"
        );
        assert_eq!(small.records().len(), 2);
        assert_eq!(small.dropped(), 14);
        assert_eq!(large.dropped(), 0);
    }

    #[test]
    fn different_streams_have_different_signatures() {
        let mut a = ExecTrace::new(8);
        let mut b = ExecTrace::new(8);
        a.record(0x100, encode(&Insn::Nop));
        b.record(0x104, encode(&Insn::Nop));
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn disassembly_renders_instructions_and_data() {
        let mut trace = ExecTrace::new(8);
        trace.record(0x100, encode(&Insn::Ret));
        trace.record(0x104, 0xFFFF_FFFF);
        let text = trace.disassembly();
        assert!(text.contains("00100: RETURN"), "{text}");
        assert!(text.contains(".WORD 0xFFFFFFFF"), "{text}");
    }

    #[test]
    fn ring_window_keeps_most_recent_in_order() {
        let mut trace = ExecTrace::new(3);
        for pc in (0x100..0x118).step_by(4) {
            trace.record(pc, encode(&Insn::Nop));
        }
        let pcs: Vec<u32> = trace.records().iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![0x10C, 0x110, 0x114], "oldest first after wrap");
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.capacity(), 3);
        let listing = trace.disassembly();
        assert!(listing.starts_with("... 3 earlier record(s) dropped ...\n"));
        let first_insn = listing.lines().nth(1).unwrap();
        assert!(first_insn.starts_with("0010C:"), "{listing}");
    }

    #[test]
    fn zero_capacity_keeps_signature_only() {
        let mut trace = ExecTrace::new(0);
        trace.record(0x100, 0);
        assert!(trace.records().is_empty());
        assert_ne!(trace.signature(), ExecTrace::new(0).signature());
    }

    #[test]
    fn one_capacity_retains_only_the_newest_record() {
        let mut trace = ExecTrace::new(1);
        for pc in (0x100..0x110).step_by(4) {
            trace.record(pc, encode(&Insn::Nop));
        }
        let pcs: Vec<u32> = trace.records().iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![0x10C], "only the newest survives");
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.capacity(), 1);
    }

    #[test]
    fn from_save_rejects_bad_ring_geometry() {
        let mut trace = ExecTrace::new(4);
        for pc in (0x100..0x120).step_by(4) {
            trace.record(pc, 0);
        }
        let mut bytes = Vec::new();
        trace.save_state(&mut bytes);
        // Corrupt the capacity field (first u64) down to 1: the stored
        // ring of 4 records no longer fits.
        bytes[..8].copy_from_slice(&1u64.to_le_bytes());
        let mut r = SaveReader::new(&bytes);
        assert_eq!(
            ExecTrace::from_save(&mut r),
            Err(SaveStateError::Corrupt("trace ring geometry"))
        );
    }

    #[test]
    fn mmio_ring_keeps_most_recent_in_order() {
        let mut monitor = MmioTrace::new(3);
        for i in 0..5u32 {
            monitor.record(MmioEvent {
                cycle: u64::from(i),
                addr: 0xE0000 + 4 * i,
                value: i,
                write: i % 2 == 0,
            });
        }
        let addrs: Vec<u32> = monitor.records().iter().map(|e| e.addr).collect();
        assert_eq!(addrs, vec![0xE0008, 0xE000C, 0xE0010], "oldest first");
        assert_eq!(monitor.dropped(), 2);
        assert_eq!(monitor.len(), 3);
        assert_eq!(monitor.capacity(), 3);
        assert!(!monitor.is_empty());
    }

    #[test]
    fn mmio_zero_capacity_counts_drops_only() {
        let mut monitor = MmioTrace::new(0);
        monitor.record(MmioEvent {
            cycle: 0,
            addr: 0xE0000,
            value: 0,
            write: true,
        });
        assert!(monitor.records().is_empty());
        assert_eq!(monitor.dropped(), 1);
    }

    #[test]
    fn mmio_one_capacity_retains_only_the_newest_event() {
        let mut monitor = MmioTrace::new(1);
        for i in 0..4u32 {
            monitor.record(MmioEvent {
                cycle: u64::from(i),
                addr: 0xE0000 + 4 * i,
                value: i,
                write: true,
            });
        }
        let records = monitor.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].addr, 0xE000C, "only the newest survives");
        assert_eq!(monitor.dropped(), 3);
    }

    mod props {
        use proptest::prelude::*;

        use super::super::ExecTrace;

        proptest! {
            // Pinned so CI case counts don't drift with proptest defaults.
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Serialization round-trip: ring contents, head position,
            /// dropped count and full-history signature all survive, and
            /// the restored trace iterates in the same oldest-first
            /// order.
            #[test]
            fn save_state_roundtrips(
                capacity in 0usize..8,
                stream in proptest::collection::vec((0u32..0x1000, 0u32..u32::MAX), 0..24),
            ) {
                let mut trace = ExecTrace::new(capacity);
                for &(pc, word) in &stream {
                    trace.record(pc, word);
                }
                let mut bytes = Vec::new();
                trace.save_state(&mut bytes);
                let mut r = super::super::SaveReader::new(&bytes);
                let back = ExecTrace::from_save(&mut r).expect("round-trip");
                prop_assert_eq!(&back, &trace, "full structural equality");
                prop_assert_eq!(back.signature(), trace.signature());
                prop_assert_eq!(back.dropped(), trace.dropped());
                prop_assert_eq!(back.records(), trace.records(), "iteration order");
            }
        }
    }
}
