//! Paged tables: the backing store behind every address-indexed array a
//! machine holds — ROM, RAM and NVM bytes, decode slots and superblock
//! maps.
//!
//! A table spans its whole region but holds only the pages written since
//! it was built or last cleared: a page is allocated on its first write,
//! and an absent page reads as the table's fill (the value the region
//! powers up with). A directed test that touches a few KiB therefore
//! costs a few KiB to set up, snapshot and tear down, not the size of
//! the SC88 address space.

use std::fmt;
use std::ops::Range;

use advm_soc::memmap::ROM_SIZE;

/// Bytes of address space one page covers, in every table. A memory
/// page holds this many bytes and a word table's page a quarter as many
/// entries, so a memory page and the decode pages above it cover the
/// same address window.
pub(crate) const PAGE_BYTES: usize = 1024;

/// Entries per page of a word-indexed table.
pub(crate) const PAGE_WORDS: usize = PAGE_BYTES / 4;

/// A byte-indexed memory region.
pub(crate) type Memory = Paged<u8, PAGE_BYTES>;

/// A table with one entry per aligned word of a region.
pub(crate) type WordTable<T> = Paged<T, PAGE_WORDS>;

/// Most pages any table holds: the ROM's (the largest region), whose
/// bytes and words span the same number of pages.
pub(crate) const MAX_PAGES: usize = ROM_SIZE as usize / PAGE_BYTES;

/// A fixed-length table of `T` stored as lazily allocated pages of `N`
/// entries.
///
/// The page directory is inline, so a lookup costs the same two
/// dependent loads as indexing a flat array: the page pointer, then the
/// entry.
#[derive(Clone)]
pub(crate) struct Paged<T, const N: usize> {
    /// Logical length in entries (a whole number of pages).
    len: usize,
    /// What every entry of an absent page reads as.
    fill: T,
    /// How many pages are held.
    held: usize,
    /// Page directory; `None` marks an absent page.
    pages: [Option<Box<[T; N]>>; MAX_PAGES],
}

impl<T: Copy + PartialEq, const N: usize> Paged<T, N> {
    /// A table of `len` entries reading as `fill`, holding no page.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a whole number of pages, or more than
    /// [`MAX_PAGES`] of them.
    pub(crate) fn new(len: usize, fill: T) -> Self {
        assert!(
            len.is_multiple_of(N) && len / N <= MAX_PAGES,
            "{len} entries is not a whole number of at most {MAX_PAGES} pages"
        );
        Self {
            len,
            fill,
            held: 0,
            pages: [const { None }; MAX_PAGES],
        }
    }

    /// Logical length in entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// What an absent page's entries read as.
    pub(crate) fn fill(&self) -> T {
        self.fill
    }

    /// Whether no page is held: every entry reads as the fill.
    pub(crate) fn untouched(&self) -> bool {
        self.held == 0
    }

    /// The entry at `i` (the fill when its page is absent).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        match self.pages.get(i / N) {
            Some(Some(page)) => page[i % N],
            _ => self.fill,
        }
    }

    /// Page `p`, if held.
    #[inline]
    fn page(&self, p: usize) -> Option<&[T; N]> {
        self.pages.get(p).and_then(|page| page.as_deref())
    }

    /// Page `p` for writing, allocated and filled on first use.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies beyond the table.
    #[inline]
    pub(crate) fn page_mut(&mut self, p: usize) -> &mut [T; N] {
        if self.page(p).is_none() {
            self.allocate(p);
        }
        match &mut self.pages[p] {
            Some(page) => page,
            None => unreachable!("page {p} was just allocated"),
        }
    }

    /// Allocates page `p`, filled.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self, p: usize) {
        assert!(
            p < self.len / N,
            "page {p} beyond a {}-entry table",
            self.len
        );
        let page = vec![self.fill; N].into_boxed_slice().try_into();
        self.pages[p] = Some(page.unwrap_or_else(|_| unreachable!("a page holds N entries")));
        self.held += 1;
    }

    /// The entry at `i` for writing (allocating its page).
    #[inline]
    pub(crate) fn entry_mut(&mut self, i: usize) -> &mut T {
        &mut self.page_mut(i / N)[i % N]
    }

    /// Sets every entry in `range` to `value`. Writing the fill over an
    /// absent page is a no-op, so it allocates nothing.
    pub(crate) fn fill_range(&mut self, range: Range<usize>, value: T) {
        let mut at = range.start;
        while at < range.end {
            let p = at / N;
            let end = range.end.min((p + 1) * N);
            if value != self.fill || self.page(p).is_some() {
                let start = at % N;
                self.page_mut(p)[start..start + (end - at)].fill(value);
            }
            at = end;
        }
    }

    /// Drops every page: the whole table reads as the fill again.
    pub(crate) fn clear(&mut self) {
        if self.held > 0 {
            self.pages.iter_mut().for_each(|page| *page = None);
            self.held = 0;
        }
    }

    /// Every page of the table in address order, `None` where absent.
    pub(crate) fn pages(&self) -> impl Iterator<Item = Option<&[T; N]>> + '_ {
        self.pages[..self.len / N]
            .iter()
            .map(|page| page.as_deref())
    }

    /// How many pages the table holds.
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.held
    }
}

impl<const N: usize> Paged<u8, N> {
    /// Reads the little-endian word at 4-aligned byte offset `offset`.
    #[inline]
    pub(crate) fn word(&self, offset: usize) -> u32 {
        debug_assert!(offset.is_multiple_of(4) && N.is_multiple_of(4));
        match self.pages.get(offset / N) {
            Some(Some(page)) => {
                let o = (offset % N) & !3;
                u32::from_le_bytes([page[o], page[o + 1], page[o + 2], page[o + 3]])
            }
            _ => u32::from_ne_bytes([self.fill; 4]),
        }
    }

    /// Writes the little-endian word at 4-aligned byte offset `offset`.
    #[inline]
    pub(crate) fn set_word(&mut self, offset: usize, value: u32) {
        debug_assert!(offset.is_multiple_of(4) && N.is_multiple_of(4));
        let o = (offset % N) & !3;
        self.page_mut(offset / N)[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies `bytes` in at byte offset `offset`.
    pub(crate) fn write_slice(&mut self, offset: usize, bytes: &[u8]) {
        let mut at = offset;
        let mut rest = bytes;
        while !rest.is_empty() {
            let start = at % N;
            let span = rest.len().min(N - start);
            self.page_mut(at / N)[start..start + span].copy_from_slice(&rest[..span]);
            at += span;
            rest = &rest[span..];
        }
    }

    /// Appends the table's contents, absent pages as runs of the fill.
    pub(crate) fn extend_into(&self, out: &mut Vec<u8>) {
        for page in self.pages() {
            match page {
                Some(bytes) => out.extend_from_slice(bytes),
                None => out.resize(out.len() + N, self.fill),
            }
        }
    }
}

impl<T, const N: usize> fmt::Debug for Paged<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Paged")
            .field("len", &self.len)
            .field("resident", &self.held)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_pages_read_as_the_fill_and_allocate_on_first_write() {
        let mut mem = Paged::<u8, 8>::new(64, 0xFF);
        assert!(mem.untouched());
        assert_eq!(mem.word(12), 0xFFFF_FFFF);
        mem.set_word(12, 0x0403_0201);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.word(12), 0x0403_0201);
        assert_eq!((mem.get(11), mem.get(12), mem.get(16)), (0xFF, 0x01, 0xFF));
        mem.clear();
        assert!(mem.untouched());
        assert_eq!(mem.word(12), 0xFFFF_FFFF);
    }

    #[test]
    fn fill_runs_skip_absent_pages_and_writes_span_pages() {
        let mut mem = Paged::<u8, 8>::new(64, 0);
        mem.fill_range(3..40, 0);
        assert!(mem.untouched(), "writing the fill allocates nothing");
        mem.write_slice(6, &[1, 2, 3, 4]);
        assert_eq!(mem.resident_pages(), 2);
        mem.fill_range(0..24, 0);
        assert_eq!(
            mem.resident_pages(),
            2,
            "held pages are overwritten in place"
        );
        let mut dense = Vec::new();
        mem.extend_into(&mut dense);
        assert_eq!(dense, vec![0; 64]);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn writes_past_the_table_panic() {
        Paged::<u8, 8>::new(16, 0).set_word(16, 1);
    }
}
