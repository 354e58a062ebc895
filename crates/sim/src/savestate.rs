//! Versioned, byte-stable machine snapshots.
//!
//! A [`SaveState`] captures the *dynamic* state of a whole platform —
//! CPU registers, memories, every peripheral (including in-flight NVM
//! operations and armed timers), the MMIO-coverage set, decode-cache
//! counters and the execution trace — as one opaque little-endian byte
//! blob. Configuration-derived state (derivative register geometry,
//! platform cost models, injected-fault wiring) is *not* serialized: it
//! is re-derived from the constructor on restore, which is what makes
//! [`crate::Platform::fork`] able to re-target a snapshot at a different
//! injected fault.
//!
//! # Format and compatibility policy
//!
//! Every blob starts with the magic `b"ADVM"` followed by a single
//! format version byte ([`SAVESTATE_VERSION`]). The encoding of any
//! given version is frozen: the same machine state always serializes to
//! the same bytes (memories are run-length encoded, set iteration is
//! sorted). Any change to the layout MUST bump the version byte; blobs
//! from other versions are rejected with
//! [`SaveStateError::UnsupportedVersion`] rather than misread.

use std::fmt;
use std::ops::Range;

use advm_soc::testbench::PlatformId;

use crate::fault::PlatformFault;
use crate::paged::Paged;

/// Magic bytes at the start of every snapshot blob.
pub const SAVESTATE_MAGIC: [u8; 4] = *b"ADVM";

/// Current snapshot format version. Bump on any layout change.
pub const SAVESTATE_VERSION: u8 = 1;

/// An opaque, versioned snapshot of a whole machine.
///
/// Produced by [`crate::Platform::snapshot`]; consumed by
/// [`crate::Platform::restore`] and [`crate::Platform::from_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveState {
    bytes: Vec<u8>,
}

impl SaveState {
    pub(crate) fn from_raw(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// The serialized blob.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Wraps externally stored bytes, validating magic and version.
    ///
    /// # Errors
    ///
    /// [`SaveStateError::BadMagic`] or
    /// [`SaveStateError::UnsupportedVersion`] if the header does not
    /// identify a blob this build can read.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SaveStateError> {
        let mut r = SaveReader::new(bytes);
        r.expect_header()?;
        Ok(Self {
            bytes: bytes.to_vec(),
        })
    }

    /// The format version byte of this blob.
    pub fn version(&self) -> u8 {
        self.bytes[SAVESTATE_MAGIC.len()]
    }
}

/// Why a snapshot could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveStateError {
    /// The blob does not start with the `ADVM` magic.
    BadMagic,
    /// The blob's format version differs from [`SAVESTATE_VERSION`].
    UnsupportedVersion(u8),
    /// The blob ended before the decoder did.
    Truncated,
    /// The blob decoded to an impossible state.
    Corrupt(&'static str),
    /// The blob was captured on a different platform.
    PlatformMismatch,
    /// The blob was captured under a different injected fault.
    FaultMismatch,
}

impl fmt::Display for SaveStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveStateError::BadMagic => f.write_str("save state lacks the ADVM magic"),
            SaveStateError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "save state version {v} unsupported (this build reads {SAVESTATE_VERSION})"
                )
            }
            SaveStateError::Truncated => f.write_str("save state truncated"),
            SaveStateError::Corrupt(what) => write!(f, "save state corrupt: {what}"),
            SaveStateError::PlatformMismatch => {
                f.write_str("save state was captured on a different platform")
            }
            SaveStateError::FaultMismatch => {
                f.write_str("save state was captured under a different injected fault")
            }
        }
    }
}

impl std::error::Error for SaveStateError {}

// --- primitive writers ---------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Run-length encodes a memory array: decoded length, then
/// `(byte, run)` pairs of maximal runs. Mostly-blank ROM/RAM/NVM images
/// compress to a few dozen bytes, keeping committed golden blobs
/// reviewable. Machines encode their paged memories with
/// [`put_rle_paged`]; this dense form is its reference.
#[cfg(test)]
pub(crate) fn put_rle(out: &mut Vec<u8>, data: &[u8]) {
    put_u32(out, data.len() as u32);
    let mut rest = data;
    while let Some(&byte) = rest.first() {
        let run = run_length(rest, byte);
        put_u8(out, byte);
        put_u32(out, run as u32);
        rest = &rest[run..];
    }
}

/// `put_rle` over a paged memory, byte for byte: runs merge across
/// page boundaries, and an absent page adds a run of the fill without
/// being scanned.
pub(crate) fn put_rle_paged<const N: usize>(out: &mut Vec<u8>, mem: &Paged<u8, N>) {
    put_u32(out, mem.len() as u32);
    let mut run = None;
    for page in mem.pages() {
        let Some(bytes) = page else {
            extend_run(out, &mut run, mem.fill(), N);
            continue;
        };
        let mut rest = &bytes[..];
        while let Some(&byte) = rest.first() {
            let n = run_length(rest, byte);
            extend_run(out, &mut run, byte, n);
            rest = &rest[n..];
        }
    }
    if let Some((byte, n)) = run {
        put_u8(out, byte);
        put_u32(out, n as u32);
    }
}

/// Adds `n` copies of `byte` to the pending run, first writing out the
/// pending run if it holds a different byte.
fn extend_run(out: &mut Vec<u8>, run: &mut Option<(u8, usize)>, byte: u8, n: usize) {
    match run {
        Some((pending, len)) if *pending == byte => *len += n,
        _ => {
            if let Some((pending, len)) = run.replace((byte, n)) {
                put_u8(out, pending);
                put_u32(out, len as u32);
            }
        }
    }
}

/// Length of the leading run of `byte` in `data`. Scans a word at a
/// time: snapshotting is on campaigns' fork path, and the memories are
/// dominated by long blank runs.
fn run_length(data: &[u8], byte: u8) -> usize {
    let pattern = u64::from_ne_bytes([byte; 8]);
    let mut n = 0;
    while let Some(word) = data.get(n..n + 8) {
        if u64::from_ne_bytes(word.try_into().expect("8-byte slice")) != pattern {
            break;
        }
        n += 8;
    }
    while data.get(n) == Some(&byte) {
        n += 1;
    }
    n
}

// --- reader --------------------------------------------------------------

/// Cursor over a snapshot blob.
pub(crate) struct SaveReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SaveReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SaveStateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SaveStateError::Truncated)?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Validates the `ADVM` magic and version byte.
    pub(crate) fn expect_header(&mut self) -> Result<(), SaveStateError> {
        let magic = self.take(SAVESTATE_MAGIC.len())?;
        if magic != SAVESTATE_MAGIC {
            return Err(SaveStateError::BadMagic);
        }
        let version = self.take_u8()?;
        if version != SAVESTATE_VERSION {
            return Err(SaveStateError::UnsupportedVersion(version));
        }
        Ok(())
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, SaveStateError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_bool(&mut self) -> Result<bool, SaveStateError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SaveStateError::Corrupt("bool out of range")),
        }
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, SaveStateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, SaveStateError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn take_bytes(&mut self) -> Result<&'a [u8], SaveStateError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Reads an RLE section's header and runs, checking that it decodes
    /// to exactly `len` bytes, and hands each run to `each` as its byte
    /// range and value.
    fn take_runs(
        &mut self,
        len: usize,
        mut each: impl FnMut(Range<usize>, u8) -> Result<(), SaveStateError>,
    ) -> Result<(), SaveStateError> {
        let total = self.take_u32()? as usize;
        if total != len {
            return Err(SaveStateError::Corrupt("memory size mismatch"));
        }
        let mut filled = 0usize;
        while filled < total {
            let byte = self.take_u8()?;
            let run = self.take_u32()? as usize;
            if run == 0 || run > total - filled {
                return Err(SaveStateError::Corrupt("bad run length"));
            }
            each(filled..filled + run, byte)?;
            filled += run;
        }
        Ok(())
    }

    /// Decodes a run-length-encoded memory image into `dst`, whose
    /// length must equal the encoded length (memory sizes are fixed by
    /// the SC88 map, not by the blob). The dense reference for
    /// [`SaveReader::take_rle_paged`].
    #[cfg(test)]
    pub(crate) fn take_rle_into(&mut self, dst: &mut [u8]) -> Result<(), SaveStateError> {
        self.take_runs(dst.len(), |range, byte| {
            dst[range].fill(byte);
            Ok(())
        })
    }

    /// Decodes a run-length-encoded memory image into a paged memory,
    /// replacing its contents. Runs of the memory's fill allocate
    /// nothing, so only pages holding other bytes end up resident.
    pub(crate) fn take_rle_paged<const N: usize>(
        &mut self,
        dst: &mut Paged<u8, N>,
    ) -> Result<(), SaveStateError> {
        dst.clear();
        self.take_runs(dst.len(), |range, byte| {
            dst.fill_range(range, byte);
            Ok(())
        })
    }

    /// Asserts the whole blob was consumed.
    pub(crate) fn expect_end(&self) -> Result<(), SaveStateError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SaveStateError::Corrupt("trailing bytes"))
        }
    }
}

// --- enum tag maps -------------------------------------------------------

/// Stable tag for a fault: `0` = no fault, then 1-based catalog order.
pub(crate) fn fault_tag(fault: PlatformFault) -> u8 {
    if fault == PlatformFault::None {
        return 0;
    }
    let idx = PlatformFault::ALL
        .iter()
        .position(|f| *f == fault)
        .expect("every non-None fault is catalogued");
    (idx + 1) as u8
}

pub(crate) fn fault_from_tag(tag: u8) -> Option<PlatformFault> {
    if tag == 0 {
        return Some(PlatformFault::None);
    }
    PlatformFault::ALL.get(usize::from(tag) - 1).copied()
}

pub(crate) fn platform_from_code(code: u32) -> Option<PlatformId> {
    PlatformId::ALL.iter().copied().find(|p| p.code() == code)
}

/// FNV-1a fold, used for architectural state digests.
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::paged::PAGE_BYTES;

    #[test]
    fn rle_roundtrips_arbitrary_data() {
        for data in [
            vec![],
            vec![0u8; 64],
            vec![1, 1, 2, 3, 3, 3, 0],
            (0..=255u8).collect::<Vec<_>>(),
        ] {
            let mut out = Vec::new();
            put_rle(&mut out, &data);
            let mut back = vec![0xEEu8; data.len()];
            let mut r = SaveReader::new(&out);
            r.take_rle_into(&mut back).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, data);
        }
    }

    #[test]
    fn rle_rejects_length_mismatch() {
        let mut out = Vec::new();
        put_rle(&mut out, &[0u8; 8]);
        let mut dst = [0u8; 4];
        let mut r = SaveReader::new(&out);
        assert_eq!(
            r.take_rle_into(&mut dst),
            Err(SaveStateError::Corrupt("memory size mismatch"))
        );
    }

    /// One generated page: absent (`kind == 0`) or held, its contents a
    /// sequence of `(random byte, selector, length)` runs. Selectors 0–2
    /// pick the fill, the other erase value or `0x5A`, so runs of the
    /// fill meet page boundaries often; selector 3 keeps the random byte.
    type PageSpec = (u8, Vec<(u8, u8, usize)>);

    fn page_specs() -> impl Strategy<Value = Vec<PageSpec>> {
        proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec((any::<u8>(), 0u8..4, 1usize..24), 0..12),
            ),
            0..6,
        )
    }

    /// Builds the paged memory a page spec describes, plus its dense
    /// contents and how many of its pages hold a byte other than `fill`.
    fn build<const N: usize>(specs: &[PageSpec], fill: u8) -> (Paged<u8, N>, Vec<u8>, usize) {
        let mut mem = Paged::<u8, N>::new(specs.len() * N, fill);
        let mut dense = Vec::new();
        let mut non_blank = 0;
        for (p, (kind, runs)) in specs.iter().enumerate() {
            let mut bytes: Vec<u8> = runs
                .iter()
                .flat_map(|&(random, sel, n)| {
                    let byte = [fill, !fill, 0x5A, random][usize::from(sel)];
                    std::iter::repeat_n(byte, n)
                })
                .collect();
            bytes.resize(N, fill);
            if *kind == 0 {
                bytes.fill(fill);
            } else {
                mem.write_slice(p * N, &bytes);
            }
            non_blank += usize::from(bytes.iter().any(|&b| b != fill));
            dense.extend_from_slice(&bytes);
        }
        (mem, dense, non_blank)
    }

    fn check_paged_rle<const N: usize>(specs: &[PageSpec], fill: u8) {
        let (mem, dense, non_blank) = build::<N>(specs, fill);
        let mut paged = Vec::new();
        put_rle_paged(&mut paged, &mem);
        let mut reference = Vec::new();
        put_rle(&mut reference, &dense);
        assert_eq!(paged, reference, "paged RLE must equal the dense encoding");

        let mut back = Paged::<u8, N>::new(dense.len(), fill);
        back.write_slice(0, &vec![!fill; dense.len()]);
        let mut r = SaveReader::new(&paged);
        r.take_rle_paged(&mut back).unwrap();
        r.expect_end().unwrap();
        let mut contents = Vec::new();
        back.extend_into(&mut contents);
        assert_eq!(contents, dense);
        assert_eq!(
            back.resident_pages(),
            non_blank,
            "decoding allocates exactly the pages holding non-fill bytes"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The page-by-page encoder writes the dense encoder's bytes
        /// for arbitrary page contents, and the page-by-page decoder
        /// reads them back allocating only pages that differ from the
        /// fill — at a page size small enough for runs to span many
        /// pages, and at the machines' own page size.
        #[test]
        fn paged_rle_matches_dense_encoding(
            specs in page_specs(),
            fill in prop_oneof![Just(0x00u8), Just(0xFFu8)],
        ) {
            check_paged_rle::<8>(&specs, fill);
            check_paged_rle::<PAGE_BYTES>(&specs, fill);
        }
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = SaveReader::new(&[1, 2]);
        assert_eq!(r.take_u32(), Err(SaveStateError::Truncated));
    }

    #[test]
    fn fault_tags_roundtrip_exhaustively() {
        for fault in std::iter::once(PlatformFault::None).chain(PlatformFault::ALL) {
            let tag = fault_tag(fault);
            assert_eq!(fault_from_tag(tag), Some(fault), "{fault:?}");
        }
        assert_eq!(fault_from_tag(14), None, "13 faults + none");
    }

    #[test]
    fn platform_codes_roundtrip() {
        for id in PlatformId::ALL {
            assert_eq!(platform_from_code(id.code()), Some(id));
        }
        assert_eq!(platform_from_code(0xFFFF), None);
    }

    #[test]
    fn from_bytes_validates_header() {
        assert_eq!(
            SaveState::from_bytes(b"NOPE\x01"),
            Err(SaveStateError::BadMagic)
        );
        assert_eq!(
            SaveState::from_bytes(b"ADVM\x63"),
            Err(SaveStateError::UnsupportedVersion(0x63))
        );
        assert!(SaveState::from_bytes(b"ADVM\x01").is_ok());
    }
}
