//! The test-bench mailbox device — the platform side of the protocol
//! declared in [`advm_soc::testbench`].

use advm_soc::testbench::{Mailbox, PlatformId, TestOutcome};

use crate::savestate::{put_bool, put_bytes, put_u32, SaveReader, SaveStateError};

/// The mailbox peripheral state.
#[derive(Debug, Clone)]
pub struct MailboxDevice {
    platform: PlatformId,
    result: Option<u32>,
    chars: Vec<u8>,
    sim_end: bool,
    scratch: u32,
    /// Fault injection: `SCRATCH` writes are dropped.
    scratch_stuck: bool,
    /// Fault injection: `TICKS` reads zero forever.
    ticks_frozen: bool,
}

impl MailboxDevice {
    /// Creates the mailbox for a platform.
    pub fn new(platform: PlatformId) -> Self {
        Self {
            platform,
            result: None,
            chars: Vec::new(),
            sim_end: false,
            scratch: 0,
            scratch_stuck: false,
            ticks_frozen: false,
        }
    }

    /// Enables the dead-scratch-write fault (platform fault injection).
    pub(crate) fn inject_scratch_stuck(&mut self) {
        self.scratch_stuck = true;
    }

    /// Enables the frozen-ticks fault (platform fault injection).
    pub(crate) fn inject_ticks_frozen(&mut self) {
        self.ticks_frozen = true;
    }

    /// Reads a register (by offset within the mailbox block).
    pub fn read(&mut self, offset: u32, now: u64) -> u32 {
        match offset {
            Mailbox::TICKS if self.ticks_frozen => 0,
            Mailbox::TICKS => now as u32,
            Mailbox::PLATFORM => self.platform.code(),
            Mailbox::SCRATCH => self.scratch,
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, offset: u32, value: u32) {
        match offset {
            Mailbox::RESULT => self.result = Some(value),
            Mailbox::CHAROUT => self.chars.push((value & 0xFF) as u8),
            Mailbox::SIM_END => self.sim_end = true,
            Mailbox::SCRATCH if !self.scratch_stuck => self.scratch = value,
            _ => {}
        }
    }

    /// Whether the test asked to end the simulation.
    pub(crate) fn sim_ended(&self) -> bool {
        self.sim_end
    }

    /// The classified test outcome, if a result was reported.
    pub fn outcome(&self) -> Option<TestOutcome> {
        self.result.and_then(Mailbox::classify_result)
    }

    /// Console output accumulated through `CHAROUT`.
    pub fn console(&self) -> &[u8] {
        &self.chars
    }

    /// Serializes the dynamic state (the platform identity and fault
    /// wiring are configuration, re-derived on restore).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        match self.result {
            Some(v) => {
                put_bool(out, true);
                put_u32(out, v);
            }
            None => put_bool(out, false),
        }
        put_bytes(out, &self.chars);
        put_bool(out, self.sim_end);
        put_u32(out, self.scratch);
    }

    /// Restores the dynamic state.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.result = if r.take_bool()? {
            Some(r.take_u32()?)
        } else {
            None
        };
        self.chars = r.take_bytes()?.to_vec();
        self.sim_end = r.take_bool()?;
        self.scratch = r.take_u32()?;
        Ok(())
    }

    /// Appends architectural (timing-free) state for divergence digests.
    pub(crate) fn arch_bytes(&self, out: &mut Vec<u8>) {
        match self.result {
            Some(v) => {
                put_bool(out, true);
                put_u32(out, v);
            }
            None => put_bool(out, false),
        }
        put_bytes(out, &self.chars);
        put_bool(out, self.sim_end);
        put_u32(out, self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_protocol() {
        let mut mb = MailboxDevice::new(PlatformId::GoldenModel);
        mb.write(Mailbox::RESULT, Mailbox::PASS_MAGIC | 3);
        mb.write(Mailbox::SIM_END, 1);
        assert!(mb.sim_ended());
        assert_eq!(mb.outcome(), Some(TestOutcome::Pass { detail: 3 }));
    }

    #[test]
    fn garbage_result_classifies_none() {
        let mut mb = MailboxDevice::new(PlatformId::RtlSim);
        mb.write(Mailbox::RESULT, 0x1234_5678);
        assert_eq!(mb.outcome(), None);
        assert_eq!(mb.result, Some(0x1234_5678));
    }

    #[test]
    fn console_collects_chars() {
        let mut mb = MailboxDevice::new(PlatformId::Bondout);
        for b in b"ok" {
            mb.write(Mailbox::CHAROUT, u32::from(*b));
        }
        assert_eq!(mb.console(), b"ok");
    }

    #[test]
    fn platform_and_ticks_readable() {
        let mut mb = MailboxDevice::new(PlatformId::Accelerator);
        assert_eq!(
            mb.read(Mailbox::PLATFORM, 0),
            PlatformId::Accelerator.code()
        );
        assert_eq!(mb.read(Mailbox::TICKS, 12345), 12345);
    }

    #[test]
    fn scratch_roundtrips() {
        let mut mb = MailboxDevice::new(PlatformId::GoldenModel);
        mb.write(Mailbox::SCRATCH, 0xFEED);
        assert_eq!(mb.read(Mailbox::SCRATCH, 0), 0xFEED);
    }

    #[test]
    fn fault_scratch_stuck_drops_writes() {
        let mut mb = MailboxDevice::new(PlatformId::GoldenModel);
        mb.inject_scratch_stuck();
        mb.write(Mailbox::SCRATCH, 0xFEED);
        assert_eq!(mb.read(Mailbox::SCRATCH, 0), 0);
        // The protocol registers stay intact.
        mb.write(Mailbox::RESULT, Mailbox::PASS_MAGIC);
        assert!(mb.outcome().unwrap().passed());
    }

    #[test]
    fn fault_ticks_frozen_reads_zero() {
        let mut mb = MailboxDevice::new(PlatformId::GoldenModel);
        mb.inject_ticks_frozen();
        assert_eq!(mb.read(Mailbox::TICKS, 12345), 0);
    }
}
