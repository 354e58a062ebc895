//! Assembled programs and loadable memory images.

use std::collections::BTreeMap;
use std::fmt;

/// A contiguous block of assembled bytes at a fixed base address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    base: u32,
    bytes: Vec<u8>,
}

impl Segment {
    /// Creates a segment.
    pub fn new(base: u32, bytes: Vec<u8>) -> Self {
        Self { base, bytes }
    }

    /// First byte address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// One past the last byte address.
    pub fn end(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }
}

/// The output of assembling one translation unit: segments, the label
/// table, the `.EQU` constants and a listing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    segments: Vec<Segment>,
    labels: BTreeMap<String, u32>,
    equs: BTreeMap<String, i64>,
    listing: Vec<ListingEntry>,
}

impl Program {
    pub(crate) fn new(
        segments: Vec<Segment>,
        labels: BTreeMap<String, u32>,
        equs: BTreeMap<String, i64>,
        listing: Vec<ListingEntry>,
    ) -> Self {
        Self {
            segments,
            labels,
            equs,
            listing,
        }
    }

    /// The program's segments in assembly order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Looks up a label's address.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// All labels.
    pub fn labels(&self) -> &BTreeMap<String, u32> {
        &self.labels
    }

    /// Looks up an `.EQU` constant.
    pub fn equ(&self, name: &str) -> Option<i64> {
        self.equs.get(name).copied()
    }

    /// The listing: one entry per emitting statement.
    pub fn listing(&self) -> &[ListingEntry] {
        &self.listing
    }

    /// Total emitted size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }

    /// Renders a human-readable listing (`address: word  source`).
    pub fn render_listing(&self) -> String {
        let mut out = String::new();
        for entry in &self.listing {
            match (entry.addr, entry.words.as_slice()) {
                (Some(addr), []) => {
                    out.push_str(&format!("{addr:05X}:            {}\n", entry.text));
                }
                (Some(addr), words) => {
                    for (i, w) in words.iter().enumerate() {
                        if i == 0 {
                            out.push_str(&format!("{addr:05X}: {w:08X}  {}\n", entry.text));
                        } else {
                            out.push_str(&format!("{:05X}: {w:08X}\n", addr + 4 * i as u32));
                        }
                    }
                }
                (None, _) => out.push_str(&format!("                  {}\n", entry.text)),
            }
        }
        out
    }
}

/// One listing line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListingEntry {
    /// Address of the statement's first emitted byte (None for pure
    /// symbol definitions).
    pub addr: Option<u32>,
    /// Emitted instruction/data words.
    pub words: Vec<u32>,
    /// Source text (reconstructed from tokens).
    pub text: String,
    /// `file:line` of the source statement.
    pub source: String,
}

/// Error returned when merging programs into an [`Image`] detects
/// overlapping bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkError {
    addr: u32,
}

impl LinkError {
    /// The first overlapping byte address.
    pub fn addr(&self) -> u32 {
        self.addr
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image overlap at address {:#07x}", self.addr)
    }
}

impl std::error::Error for LinkError {}

/// A sparse, loadable memory image built from one or more programs —
/// for ADVM, typically the test unit plus the embedded-software ROM.
///
/// Stored as sorted, disjoint, maximally-merged byte runs: linking and
/// loading are the campaign build hot path, and a run per contiguous
/// span keeps both O(segments) instead of O(bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Image {
    runs: Vec<Segment>,
}

impl Image {
    /// An empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a program's segments into the image.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError`] if any byte would overwrite one already
    /// loaded (two programs claiming the same memory is always a build
    /// mistake in the ADVM flow).
    pub fn load_program(&mut self, program: &Program) -> Result<(), LinkError> {
        for segment in program.segments() {
            if segment.bytes().is_empty() {
                continue;
            }
            self.insert_run(segment.base(), segment.bytes())?;
        }
        Ok(())
    }

    /// Inserts one contiguous run, merging with adjacent runs so equal
    /// byte maps always have equal run decompositions.
    fn insert_run(&mut self, base: u32, bytes: &[u8]) -> Result<(), LinkError> {
        let end = base + bytes.len() as u32;
        // First run that ends after the new run's base is the only
        // overlap candidate on the left; the run after the insertion
        // point is the candidate on the right.
        let idx = self.runs.partition_point(|r| r.end() <= base);
        if let Some(run) = self.runs.get(idx) {
            if run.base() < end {
                return Err(LinkError {
                    addr: base.max(run.base()),
                });
            }
        }
        let merge_left = idx > 0 && self.runs[idx - 1].end() == base;
        let merge_right = self.runs.get(idx).is_some_and(|r| r.base() == end);
        match (merge_left, merge_right) {
            (true, true) => {
                let right = self.runs.remove(idx);
                let left = &mut self.runs[idx - 1];
                left.bytes.extend_from_slice(bytes);
                left.bytes.extend_from_slice(right.bytes());
            }
            (true, false) => self.runs[idx - 1].bytes.extend_from_slice(bytes),
            (false, true) => {
                let run = &mut self.runs[idx];
                run.base = base;
                run.bytes.splice(0..0, bytes.iter().copied());
            }
            (false, false) => self.runs.insert(idx, Segment::new(base, bytes.to_vec())),
        }
        Ok(())
    }

    /// The run holding `addr`, if any.
    fn run_at(&self, addr: u32) -> Option<&Segment> {
        let idx = self.runs.partition_point(|r| r.end() <= addr);
        self.runs.get(idx).filter(|r| r.base() <= addr)
    }

    /// Reads one byte (0 where nothing was loaded).
    pub fn byte(&self, addr: u32) -> u8 {
        match self.run_at(addr) {
            Some(run) => run.bytes()[(addr - run.base()) as usize],
            None => 0,
        }
    }

    /// Reads a little-endian word.
    pub fn word(&self, addr: u32) -> u32 {
        if let Some(run) = self.run_at(addr) {
            let off = (addr - run.base()) as usize;
            if let Some(b) = run.bytes().get(off..off + 4) {
                return u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        u32::from_le_bytes([
            self.byte(addr),
            self.byte(addr + 1),
            self.byte(addr + 2),
            self.byte(addr + 3),
        ])
    }

    /// Iterates over loaded bytes in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.runs.iter().flat_map(|run| {
            run.bytes()
                .iter()
                .enumerate()
                .map(move |(i, b)| (run.base() + i as u32, *b))
        })
    }

    /// Iterates over the contiguous byte runs in address order.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.runs.iter().map(|run| (run.base(), run.bytes()))
    }

    /// Number of loaded bytes.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.bytes().len()).sum()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(base: u32, bytes: Vec<u8>) -> Program {
        Program::new(
            vec![Segment::new(base, bytes)],
            BTreeMap::new(),
            BTreeMap::new(),
            Vec::new(),
        )
    }

    #[test]
    fn image_loads_and_reads_words() {
        let mut image = Image::new();
        image
            .load_program(&prog(0x100, vec![0x78, 0x56, 0x34, 0x12]))
            .unwrap();
        assert_eq!(image.word(0x100), 0x1234_5678);
        assert_eq!(image.byte(0x100), 0x78);
        assert_eq!(image.word(0x200), 0, "unloaded memory reads zero");
        assert_eq!(image.len(), 4);
    }

    #[test]
    fn overlap_detected() {
        let mut image = Image::new();
        image.load_program(&prog(0x100, vec![1, 2, 3, 4])).unwrap();
        let err = image.load_program(&prog(0x102, vec![9])).unwrap_err();
        assert_eq!(err.addr(), 0x102);
    }

    #[test]
    fn disjoint_programs_merge() {
        let mut image = Image::new();
        image.load_program(&prog(0x100, vec![1])).unwrap();
        image.load_program(&prog(0x3_0000, vec![2])).unwrap();
        assert_eq!(image.byte(0x100), 1);
        assert_eq!(image.byte(0x3_0000), 2);
    }

    #[test]
    fn segment_end() {
        let s = Segment::new(0x10, vec![0; 8]);
        assert_eq!(s.end(), 0x18);
    }
}
