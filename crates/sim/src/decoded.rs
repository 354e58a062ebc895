//! Predecoded instruction artifacts — decode once, dispatch many.
//!
//! The execution hot path used to re-fetch and re-decode every word
//! through the full bus match on every step. This module provides the
//! two halves of the cure:
//!
//! * [`DecodedProgram`] — an immutable, shareable predecode of a loaded
//!   [`Image`]: every word the image covers, already run through
//!   [`advm_isa::decode`]. Campaigns build one per *deduplicated* image
//!   (behind the content-keyed build cache) and seed every worker's
//!   platform from the same `Arc`, so a cell targeted at six platforms
//!   decodes once, not six times.
//! * `DecodeCache` (crate-internal) — the per-bus mutable cache the CPU
//!   fetches through. Slots memoise `(word, decode(word))` per aligned word of
//!   ROM, RAM and NVM, in paged tables (see `paged`, crate-internal)
//!   that hold only the pages a run fetched from or preloaded. Slots
//!   are invalidated *precisely*: a RAM store
//!   clears the word it hits (self-modifying code), an NVM-controller
//!   program/erase clears the words it commits, and the ES-ROM
//!   jump-table-skew fault bypasses the cache for redirected fetches —
//!   so fault-audit matrices and golden traces are byte-identical with
//!   the cache on or off.
//!
//! On top of the word slots sits the *superblock* tier: straight-line
//! runs of bus-free decoded instructions (optionally ending in a
//! bus-free jump) are chained into immutable `Superblock`s
//! (crate-internal), shared via `Arc` and executed whole by the
//! batched CPU run loop — one
//! fuel/sim-end/async/timing check per block instead of per
//! instruction. Blocks are invalidated through the same precise hooks
//! as the slots beneath them, so the architectural stream is
//! byte-identical with blocks on or off.
//!
//! [`DecodeStats`] reports hits/misses/invalidations/preloads plus the
//! block-tier counters; the campaign layer aggregates them into its
//! `perf` block.

use std::sync::Arc;

use advm_asm::Image;
use advm_isa::{decode, Insn};
use advm_soc::memmap::{MemoryMap, NVM_SIZE, NVM_START, RAM_SIZE, RAM_START, ROM_SIZE, ROM_START};
use advm_soc::RegionKind;

use crate::paged::{Memory, WordTable};

/// One predecoded word slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Not decoded yet, or invalidated by a write.
    Unknown,
    /// The word decodes to an instruction.
    Insn {
        /// The raw fetched word.
        word: u32,
        /// Its decoding.
        insn: Insn,
    },
    /// The word does not decode (illegal instruction).
    Illegal {
        /// The raw fetched word.
        word: u32,
    },
}

impl Slot {
    fn of(word: u32) -> Self {
        match decode(word) {
            Ok(insn) => Slot::Insn { word, insn },
            Err(_) => Slot::Illegal { word },
        }
    }
}

/// Decode-cache counters for one run.
///
/// The four word-slot counters (`hits`/`misses`/`invalidations`/
/// `preloaded`) are serialized into snapshots; the block-tier counters
/// are runtime telemetry only — the snapshot byte format predates the
/// superblock tier and stays frozen, so a restored machine restarts its
/// block counters from zero (the blocks themselves are rebuilt lazily
/// either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Fetches served from a live slot. Instructions dispatched through
    /// a superblock count here too — one hit per retired instruction —
    /// so `hits + misses` remains the total fetch count regardless of
    /// dispatch tier.
    pub hits: u64,
    /// Fetches that had to decode (cold slot, invalidated slot, cache
    /// disabled, or a skew-redirected / non-cacheable address).
    pub misses: u64,
    /// Slots cleared by writes (self-modifying RAM stores, NVM
    /// programming, image loads).
    pub invalidations: u64,
    /// Slots seeded from a shared [`DecodedProgram`] artifact.
    pub preloaded: u64,
    /// Superblocks constructed.
    pub blocks_built: u64,
    /// Superblocks dropped because a write touched a word they cover.
    pub block_invalidations: u64,
    /// Whole-block dispatches taken by the batched run loop.
    pub block_dispatches: u64,
    /// Instructions retired through block dispatch (each also counted
    /// in `hits`).
    pub block_insns: u64,
}

impl DecodeStats {
    /// Hit rate in `0.0..=1.0` (1.0 when nothing was fetched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Longest superblock, in words (terminator included). Bounds both the
/// build walk and the invalidation back-scan: a write at word `i` can
/// only be covered by blocks starting in `(i - MAX_BLOCK_WORDS, i]`.
pub(crate) const MAX_BLOCK_WORDS: usize = 64;

/// An immutable straight-line run of decoded instructions.
///
/// Every instruction in a block is *bus-free*: pure register/PSW
/// operations, plus at most one trailing `JMP`/`Jcc` (which computes its
/// target without touching the bus). Because nothing inside a block can
/// read or write the bus, raise an interrupt, end the simulation or
/// fault, the batched run loop may execute the whole block between two
/// boundary checks and advance time once by the summed cycle cost —
/// byte-identical to stepping it.
#[derive(Debug)]
pub(crate) struct Superblock {
    insns: Box<[Insn]>,
}

impl Superblock {
    /// Instructions (= words) the block covers.
    pub(crate) fn len(&self) -> usize {
        self.insns.len()
    }

    /// The decoded instructions, in execution order.
    pub(crate) fn insns(&self) -> &[Insn] {
        &self.insns
    }
}

/// How an instruction participates in superblock formation.
enum BlockRole {
    /// Bus-free, falls through: may appear anywhere in a block.
    Pure,
    /// Bus-free control flow: may end a block (`JMP`, `Jcc`).
    Terminator,
    /// Touches the bus, retires specially, or traps: never in a block.
    Stop,
}

fn block_role(insn: &Insn) -> BlockRole {
    // Exhaustive on purpose: a new instruction variant must make an
    // explicit block-eligibility decision here.
    match insn {
        Insn::Nop
        | Insn::Dbg { .. }
        | Insn::MovI { .. }
        | Insn::MovHi { .. }
        | Insn::Mov { .. }
        | Insn::MovDa { .. }
        | Insn::MovAd { .. }
        | Insn::MovAa { .. }
        | Insn::Lea { .. }
        | Insn::Add { .. }
        | Insn::AddI { .. }
        | Insn::Sub { .. }
        | Insn::Mul { .. }
        | Insn::And { .. }
        | Insn::AndI { .. }
        | Insn::Or { .. }
        | Insn::OrI { .. }
        | Insn::Xor { .. }
        | Insn::XorI { .. }
        | Insn::Shl { .. }
        | Insn::ShlI { .. }
        | Insn::Shr { .. }
        | Insn::ShrI { .. }
        | Insn::SarI { .. }
        | Insn::Not { .. }
        | Insn::Neg { .. }
        | Insn::Cmp { .. }
        | Insn::CmpI { .. }
        | Insn::Insert { .. }
        | Insn::Extract { .. }
        | Insn::Ei
        | Insn::Di
        | Insn::AddA { .. } => BlockRole::Pure,
        Insn::Jmp { .. } | Insn::J { .. } => BlockRole::Terminator,
        Insn::Halt { .. }
        | Insn::Trap { .. }
        | Insn::Ld { .. }
        | Insn::LdB { .. }
        | Insn::St { .. }
        | Insn::StB { .. }
        | Insn::LdAbs { .. }
        | Insn::StAbs { .. }
        | Insn::Call { .. }
        | Insn::CallR { .. }
        | Insn::Ret
        | Insn::RetI
        | Insn::Push { .. }
        | Insn::Pop { .. }
        | Insn::PushA { .. }
        | Insn::PopA { .. } => BlockRole::Stop,
    }
}

/// An immutable predecode of every word an [`Image`] covers.
///
/// Built once per distinct image (the campaign layer keys it by the same
/// content hash that dedupes builds) and shared across workers and
/// platforms via `Arc`; [`crate::Platform::load_prebuilt`] seeds a
/// platform's decode cache from it.
#[derive(Debug, Clone, Default)]
pub struct DecodedProgram {
    /// `(word address, slot)` pairs, address-ascending.
    entries: Vec<(u32, Slot)>,
}

impl DecodedProgram {
    /// Predecodes every aligned word the image covers.
    ///
    /// Partially covered words are filled with the backing region's
    /// reset byte (`0xFF` for NVM, `0` elsewhere) so the predecoded word
    /// equals exactly what the bus would fetch after
    /// [`crate::SocBus::load_image`]. Bytes outside ROM/RAM/NVM are
    /// skipped (they are not executable memory).
    pub fn from_image(image: &Image) -> Self {
        let map = MemoryMap::sc88();
        let mut entries = Vec::new();
        let mut current: Option<(u32, [u8; 4], RegionKind)> = None;
        let flush = |pending: &mut Option<(u32, [u8; 4], RegionKind)>,
                     out: &mut Vec<(u32, Slot)>| {
            if let Some((addr, bytes, _)) = pending.take() {
                out.push((addr, Slot::of(u32::from_le_bytes(bytes))));
            }
        };
        for (addr, byte) in image.iter() {
            let word_addr = addr & !3;
            let kind = match map.region_at(addr).map(|r| r.kind()) {
                Some(kind @ (RegionKind::Rom | RegionKind::Ram | RegionKind::Nvm)) => kind,
                _ => continue,
            };
            match &mut current {
                Some((pending_addr, bytes, _)) if *pending_addr == word_addr => {
                    bytes[(addr & 3) as usize] = byte;
                }
                _ => {
                    flush(&mut current, &mut entries);
                    let fill = if kind == RegionKind::Nvm { 0xFF } else { 0 };
                    let mut bytes = [fill; 4];
                    bytes[(addr & 3) as usize] = byte;
                    current = Some((word_addr, bytes, kind));
                }
            }
        }
        flush(&mut current, &mut entries);
        Self { entries }
    }

    /// Number of predecoded words.
    pub fn words(&self) -> usize {
        self.entries.len()
    }

    /// Whether the artifact is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn entries(&self) -> &[(u32, Slot)] {
        &self.entries
    }
}

const ROM_WORDS: usize = (ROM_SIZE / 4) as usize;
const RAM_WORDS: usize = (RAM_SIZE / 4) as usize;
const NVM_WORDS: usize = (NVM_SIZE / 4) as usize;

/// Block-map sentinel: no block-build attempt recorded for this word.
const BLOCK_UNKNOWN: u32 = 0;
/// Block-map sentinel: a build was attempted and produced no block
/// (negative cache — the word is illegal or starts with a bus-touching
/// instruction). Entries ≥ [`BLOCK_BASE`] are arena ids plus the base.
const BLOCK_NONE: u32 = 1;
const BLOCK_BASE: u32 = 2;

/// The per-bus decode cache: one paged slot table per executable
/// region, the superblock tier built over those slots, plus the run's
/// [`DecodeStats`]. A page of slots or of the block map is allocated on
/// its first write, so the cache holds only the pages covering words a
/// run fetched, preloaded or started a block at.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    rom: WordTable<Slot>,
    ram: WordTable<Slot>,
    nvm: WordTable<Slot>,
    /// Per-region block map, paged like the slot tables: indexed by
    /// start word, [`BLOCK_UNKNOWN`]/[`BLOCK_NONE`] sentinels or an
    /// arena id + [`BLOCK_BASE`].
    rom_blocks: WordTable<u32>,
    ram_blocks: WordTable<u32>,
    nvm_blocks: WordTable<u32>,
    /// Shared-ownership block storage; freed ids are recycled.
    arena: Vec<Option<Arc<Superblock>>>,
    free: Vec<u32>,
    /// Bumped whenever any block may have been dropped; the run loop's
    /// one-entry block cache revalidates against it, so a cached `Arc`
    /// can never outlive an invalidation.
    generation: u64,
    enabled: bool,
    /// Whether the superblock tier is active (requires `enabled` too).
    blocks: bool,
    pub(crate) stats: DecodeStats,
}

impl Default for DecodeCache {
    fn default() -> Self {
        Self {
            rom: WordTable::new(ROM_WORDS, Slot::Unknown),
            ram: WordTable::new(RAM_WORDS, Slot::Unknown),
            nvm: WordTable::new(NVM_WORDS, Slot::Unknown),
            rom_blocks: WordTable::new(ROM_WORDS, BLOCK_UNKNOWN),
            ram_blocks: WordTable::new(RAM_WORDS, BLOCK_UNKNOWN),
            nvm_blocks: WordTable::new(NVM_WORDS, BLOCK_UNKNOWN),
            arena: Vec::new(),
            free: Vec::new(),
            generation: 0,
            enabled: true,
            blocks: true,
            stats: DecodeStats::default(),
        }
    }
}

/// Which executable region a cached fetch targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecRegion {
    /// Read-only program memory.
    Rom,
    /// Volatile memory (self-modifying code lives here).
    Ram,
    /// Non-volatile memory (reprogrammed through the NVM controller).
    Nvm,
}

impl ExecRegion {
    /// Classifies an address, returning the region and its word index.
    pub(crate) fn classify(addr: u32) -> Option<(Self, usize)> {
        if addr < ROM_START + ROM_SIZE {
            Some((ExecRegion::Rom, ((addr - ROM_START) >> 2) as usize))
        } else if (RAM_START..RAM_START + RAM_SIZE).contains(&addr) {
            Some((ExecRegion::Ram, ((addr - RAM_START) >> 2) as usize))
        } else if (NVM_START..NVM_START + NVM_SIZE).contains(&addr) {
            Some((ExecRegion::Nvm, ((addr - NVM_START) >> 2) as usize))
        } else {
            None
        }
    }
}

impl DecodeCache {
    /// Enables or disables memoisation. Disabled, every fetch decodes
    /// fresh (the pre-refactor baseline `exp_sim_throughput` compares
    /// against) and
    /// the superblock tier — built over the slots — goes dormant too.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.rom.clear();
            self.ram.clear();
            self.nvm.clear();
            self.drop_all_blocks();
        }
    }

    /// Enables or disables the superblock tier (default: enabled).
    /// Orthogonal to [`DecodeCache::set_enabled`]: with blocks off the
    /// per-word slot path still memoises, which is the PR 5 predecoded
    /// baseline the block tier is benchmarked against.
    pub(crate) fn set_blocks(&mut self, enabled: bool) {
        self.blocks = enabled;
        if !enabled {
            self.drop_all_blocks();
        }
    }

    pub(crate) fn blocks_enabled(&self) -> bool {
        self.blocks
    }

    fn drop_all_blocks(&mut self) {
        self.rom_blocks.clear();
        self.ram_blocks.clear();
        self.nvm_blocks.clear();
        self.arena.clear();
        self.free.clear();
        self.generation = self.generation.wrapping_add(1);
    }

    /// Monotonic block-invalidation epoch: bumped whenever any block may
    /// have been dropped. A `(pc, generation)`-keyed dispatch cache is
    /// valid exactly while this is unchanged.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The slot table of one region. A free function keeps the borrow
    /// of the table disjoint from the stats counters.
    fn region_of<'a>(
        rom: &'a mut WordTable<Slot>,
        ram: &'a mut WordTable<Slot>,
        nvm: &'a mut WordTable<Slot>,
        region: ExecRegion,
    ) -> &'a mut WordTable<Slot> {
        match region {
            ExecRegion::Rom => rom,
            ExecRegion::Ram => ram,
            ExecRegion::Nvm => nvm,
        }
    }

    /// Fetches through the cache: `mem` is the region's backing memory,
    /// `idx` the word index within it. Returns the raw word and its
    /// decoding (`None` = illegal).
    ///
    /// Inlined so a hit costs the caller one page lookup; the disabled
    /// cache's path stays a call, so the uncached baseline the
    /// predecoded tier is gated against (≥ 2×) keeps its cost.
    #[inline(always)]
    pub(crate) fn fetch(
        &mut self,
        region: ExecRegion,
        mem: &Memory,
        idx: usize,
    ) -> (u32, Option<Insn>) {
        if !self.enabled {
            return self.fetch_uncached(mem, idx);
        }
        let slots = Self::region_of(&mut self.rom, &mut self.ram, &mut self.nvm, region);
        let slot = match slots.get(idx) {
            Slot::Unknown => {
                let fresh = Slot::of(mem.word(idx * 4));
                *slots.entry_mut(idx) = fresh;
                self.stats.misses += 1;
                fresh
            }
            live => {
                self.stats.hits += 1;
                live
            }
        };
        match slot {
            Slot::Insn { word, insn } => (word, Some(insn)),
            Slot::Illegal { word } => (word, None),
            Slot::Unknown => unreachable!("slot was just filled"),
        }
    }

    /// [`DecodeCache::fetch`] with the cache disabled: decodes afresh.
    #[inline(never)]
    fn fetch_uncached(&mut self, mem: &Memory, idx: usize) -> (u32, Option<Insn>) {
        self.stats.misses += 1;
        let word = mem.word(idx * 4);
        (word, decode(word).ok())
    }

    /// The block map of one region (same disjoint borrow trick as
    /// [`DecodeCache::region_of`]).
    fn block_map_of<'a>(
        rom: &'a mut WordTable<u32>,
        ram: &'a mut WordTable<u32>,
        nvm: &'a mut WordTable<u32>,
        region: ExecRegion,
    ) -> &'a mut WordTable<u32> {
        match region {
            ExecRegion::Rom => rom,
            ExecRegion::Ram => ram,
            ExecRegion::Nvm => nvm,
        }
    }

    /// Looks up — or builds — the superblock starting at word `idx` of
    /// `region`. Returns `None` when the tier is off, the start word
    /// lies in `excluded` (the ES-skew jump table, whose fetches must
    /// take the per-word bypass), or no bus-free run begins there (a
    /// negative result, cached until a write disturbs the
    /// neighbourhood).
    pub(crate) fn superblock(
        &mut self,
        region: ExecRegion,
        mem: &Memory,
        idx: usize,
        excluded: Option<(usize, usize)>,
    ) -> Option<Arc<Superblock>> {
        if !self.enabled || !self.blocks {
            return None;
        }
        if excluded.is_some_and(|(lo, hi)| idx >= lo && idx < hi) {
            return None;
        }
        let entry = Self::block_map_of(
            &mut self.rom_blocks,
            &mut self.ram_blocks,
            &mut self.nvm_blocks,
            region,
        )
        .get(idx);
        match entry {
            BLOCK_UNKNOWN => {}
            BLOCK_NONE => return None,
            id => return self.arena[(id - BLOCK_BASE) as usize].clone(),
        }
        // Cold start: chain forward over the decoded slots, filling
        // cold ones silently — the dispatch accounts the fetches, the
        // build only materialises the chain.
        let mut insns: Vec<Insn> = Vec::new();
        {
            let slots = Self::region_of(&mut self.rom, &mut self.ram, &mut self.nvm, region);
            let mut cap = (idx + MAX_BLOCK_WORDS).min(slots.len());
            if let Some((lo, _)) = excluded {
                if idx < lo {
                    cap = cap.min(lo);
                }
            }
            for at in idx..cap {
                let slot = slots.entry_mut(at);
                if *slot == Slot::Unknown {
                    *slot = Slot::of(mem.word(at * 4));
                }
                let Slot::Insn { insn, .. } = *slot else {
                    break;
                };
                match block_role(&insn) {
                    BlockRole::Pure => insns.push(insn),
                    BlockRole::Terminator => {
                        insns.push(insn);
                        break;
                    }
                    BlockRole::Stop => break,
                }
            }
        }
        let map = Self::block_map_of(
            &mut self.rom_blocks,
            &mut self.ram_blocks,
            &mut self.nvm_blocks,
            region,
        );
        if insns.is_empty() {
            *map.entry_mut(idx) = BLOCK_NONE;
            return None;
        }
        let block = Arc::new(Superblock {
            insns: insns.into_boxed_slice(),
        });
        let id = match self.free.pop() {
            Some(id) => {
                self.arena[id as usize] = Some(Arc::clone(&block));
                id
            }
            None => {
                self.arena.push(Some(Arc::clone(&block)));
                (self.arena.len() - 1) as u32
            }
        };
        self.stats.blocks_built += 1;
        *map.entry_mut(idx) = id + BLOCK_BASE;
        Some(block)
    }

    /// Accounts one whole-block dispatch of `insns` retired
    /// instructions: each counts as a fetch hit (so `hits + misses`
    /// stays the total fetch count across dispatch tiers) plus the
    /// block-tier counters.
    pub(crate) fn note_block_dispatch(&mut self, insns: u64) {
        self.stats.hits += insns;
        self.stats.block_insns += insns;
        self.stats.block_dispatches += 1;
    }

    /// Drops every block that covers a word in `[start, end)`, plus any
    /// negative-cache entry a changed word could now upgrade to a block.
    /// A block starting at `j` covers at most `j + MAX_BLOCK_WORDS`
    /// words, so the back-scan window is bounded.
    fn drop_blocks_touching(&mut self, region: ExecRegion, start: usize, end: usize) {
        let map = match region {
            ExecRegion::Rom => &mut self.rom_blocks,
            ExecRegion::Ram => &mut self.ram_blocks,
            ExecRegion::Nvm => &mut self.nvm_blocks,
        };
        if map.untouched() {
            return;
        }
        self.generation = self.generation.wrapping_add(1);
        let lo = start.saturating_sub(MAX_BLOCK_WORDS - 1);
        let hi = end.min(map.len());
        for j in lo..hi {
            // Entries on absent pages read BLOCK_UNKNOWN and are
            // skipped, so the scan allocates nothing.
            let entry = map.get(j);
            if entry == BLOCK_UNKNOWN {
                continue;
            }
            if entry == BLOCK_NONE {
                // The written word may turn this start into a viable
                // block — retry the build next time it is dispatched.
                *map.entry_mut(j) = BLOCK_UNKNOWN;
                continue;
            }
            let id = (entry - BLOCK_BASE) as usize;
            if self.arena[id].as_ref().is_some_and(|b| j + b.len() > start) {
                self.arena[id] = None;
                self.free.push(entry - BLOCK_BASE);
                *map.entry_mut(j) = BLOCK_UNKNOWN;
                self.stats.block_invalidations += 1;
            }
        }
    }

    /// Invalidates one word slot (no-op while the slot is cold, so a
    /// store never allocates a slot page).
    fn invalidate_word_slot(&mut self, region: ExecRegion, idx: usize) {
        let slots = Self::region_of(&mut self.rom, &mut self.ram, &mut self.nvm, region);
        if !slots.untouched() && slots.get(idx) != Slot::Unknown {
            *slots.entry_mut(idx) = Slot::Unknown;
            self.stats.invalidations += 1;
        }
    }

    /// Invalidates one word: its slot, and every block covering it.
    pub(crate) fn invalidate_word(&mut self, region: ExecRegion, idx: usize) {
        self.invalidate_word_slot(region, idx);
        self.drop_blocks_touching(region, idx, idx + 1);
    }

    /// Invalidates a word range (NVM page erase): the slots, and every
    /// block touching the range.
    pub(crate) fn invalidate_range(&mut self, region: ExecRegion, idx: usize, words: usize) {
        for i in idx..idx + words {
            self.invalidate_word_slot(region, i);
        }
        self.drop_blocks_touching(region, idx, idx + words);
    }

    /// Drops every slot and block (image load replaces backing memory
    /// wholesale): every page of the cache is freed.
    pub(crate) fn invalidate_all(&mut self) {
        for slots in [&mut self.rom, &mut self.ram, &mut self.nvm] {
            if !slots.untouched() {
                self.stats.invalidations += 1;
                slots.clear();
            }
        }
        let live = self.arena.iter().filter(|e| e.is_some()).count() as u64;
        self.stats.block_invalidations += live;
        self.drop_all_blocks();
    }

    /// Serializes the cache's dynamic state: the enabled flag and the
    /// four word-slot counters. Slot contents and superblocks are *not*
    /// serialized — they are a pure memoisation over backing memory,
    /// lazily re-derived after restore — and the block-tier counters
    /// stay out too: the v1 byte format is frozen, so a restored run
    /// restarts them from zero.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        crate::savestate::put_bool(out, self.enabled);
        crate::savestate::put_u64(out, self.stats.hits);
        crate::savestate::put_u64(out, self.stats.misses);
        crate::savestate::put_u64(out, self.stats.invalidations);
        crate::savestate::put_u64(out, self.stats.preloaded);
    }

    /// Restores the cache's dynamic state, dropping any live slots (they
    /// may describe different backing memory). Stats are restored last:
    /// clearing the slots must not perturb the serialized counters.
    pub(crate) fn apply_state(
        &mut self,
        r: &mut crate::savestate::SaveReader<'_>,
    ) -> Result<(), crate::savestate::SaveStateError> {
        let enabled = r.take_bool()?;
        let stats = DecodeStats {
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            invalidations: r.take_u64()?,
            preloaded: r.take_u64()?,
            ..DecodeStats::default()
        };
        self.set_enabled(enabled);
        self.invalidate_all();
        self.stats = stats;
        Ok(())
    }

    /// Seeds slots from a shared predecode artifact.
    pub(crate) fn preload(&mut self, program: &DecodedProgram) {
        if !self.enabled {
            return;
        }
        for &(addr, slot) in program.entries() {
            let Some((region, idx)) = ExecRegion::classify(addr) else {
                continue;
            };
            *Self::region_of(&mut self.rom, &mut self.ram, &mut self.nvm, region).entry_mut(idx) =
                slot;
            self.stats.preloaded += 1;
        }
    }
}

#[cfg(test)]
impl DecodeCache {
    /// How many slot and block-map pages the cache holds.
    pub(crate) fn resident_pages(&self) -> usize {
        let slots: usize = [&self.rom, &self.ram, &self.nvm]
            .iter()
            .map(|t| t.resident_pages())
            .sum();
        let blocks: usize = [&self.rom_blocks, &self.ram_blocks, &self.nvm_blocks]
            .iter()
            .map(|t| t.resident_pages())
            .sum();
        slots + blocks
    }
}

#[cfg(test)]
mod tests {
    use advm_isa::encode;

    use super::*;

    #[test]
    fn from_image_predecodes_loaded_words() {
        let program = advm_asm::assemble_str("_main:\n    NOP\n    HALT #3\n").unwrap();
        let mut image = Image::new();
        image.load_program(&program).unwrap();
        let decoded = DecodedProgram::from_image(&image);
        assert_eq!(decoded.words(), 2);
        let (addr, slot) = decoded.entries()[0];
        assert_eq!(addr, 0x100, "reset PC word first");
        assert_eq!(
            slot,
            Slot::Insn {
                word: encode(&Insn::Nop),
                insn: Insn::Nop
            }
        );
    }

    #[test]
    fn nvm_fill_matches_erased_state() {
        // One byte loaded into an NVM word: the other three must read as
        // erased (0xFF), exactly what the bus fetch would return.
        let mut image = Image::new();
        let program = advm_asm::assemble_str(&format!(".ORG 0x{NVM_START:X}\n.BYTE 1\n")).unwrap();
        image.load_program(&program).unwrap();
        let decoded = DecodedProgram::from_image(&image);
        assert_eq!(decoded.words(), 1);
        let (_, slot) = decoded.entries()[0];
        let word = match slot {
            Slot::Insn { word, .. } | Slot::Illegal { word } => word,
            Slot::Unknown => panic!("loaded word must be decoded"),
        };
        assert_eq!(word, 0xFFFF_FF01);
    }

    /// A ROM-sized memory holding `word` at offset 0.
    fn memory(word: &Insn) -> Memory {
        let mut mem = Memory::new(ROM_SIZE as usize, 0);
        mem.set_word(0, encode(word));
        mem
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = DecodeCache::default();
        let mem = memory(&Insn::Nop);
        let (word, insn) = cache.fetch(ExecRegion::Rom, &mem, 0);
        assert_eq!(word, encode(&Insn::Nop));
        assert_eq!(insn, Some(Insn::Nop));
        assert_eq!(cache.stats.misses, 1);
        cache.fetch(ExecRegion::Rom, &mem, 0);
        assert_eq!(cache.stats.hits, 1);
    }

    #[test]
    fn invalidation_forces_redecode() {
        let mut cache = DecodeCache::default();
        let mut mem = memory(&Insn::Nop);
        cache.fetch(ExecRegion::Ram, &mem, 0);
        mem.set_word(0, encode(&Insn::Halt { code: 7 }));
        // Stale without invalidation…
        let (_, insn) = cache.fetch(ExecRegion::Ram, &mem, 0);
        assert_eq!(insn, Some(Insn::Nop));
        // …fresh after it.
        cache.invalidate_word(ExecRegion::Ram, 0);
        assert_eq!(cache.stats.invalidations, 1);
        let (_, insn) = cache.fetch(ExecRegion::Ram, &mem, 0);
        assert_eq!(insn, Some(Insn::Halt { code: 7 }));
    }

    #[test]
    fn disabled_cache_always_decodes() {
        let mut cache = DecodeCache::default();
        cache.set_enabled(false);
        let mem = memory(&Insn::Nop);
        cache.fetch(ExecRegion::Rom, &mem, 0);
        cache.fetch(ExecRegion::Rom, &mem, 0);
        assert_eq!(cache.stats.hits, 0);
        assert_eq!(cache.stats.misses, 2);
    }

    #[test]
    fn preload_seeds_slots_as_hits() {
        let program = advm_asm::assemble_str("_main:\n    NOP\n    HALT #0\n").unwrap();
        let mut image = Image::new();
        image.load_program(&program).unwrap();
        let decoded = DecodedProgram::from_image(&image);
        let mut cache = DecodeCache::default();
        cache.preload(&decoded);
        assert_eq!(cache.stats.preloaded, 2);
        let mem = Memory::new(ROM_SIZE as usize, 0);
        let (_, insn) = cache.fetch(ExecRegion::Rom, &mem, 0x100 / 4);
        assert_eq!(insn, Some(Insn::Nop));
        assert_eq!(cache.stats.hits, 1);
        assert_eq!(cache.stats.misses, 0);
    }

    #[test]
    fn stats_hit_rate() {
        let stats = DecodeStats {
            hits: 3,
            misses: 1,
            ..DecodeStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(DecodeStats::default().hit_rate(), 1.0);
    }
}
