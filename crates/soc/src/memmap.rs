//! The SC88 memory map.
//!
//! The whole architecturally visible space fits in the ISA's 20-bit
//! absolute addressing (see [`advm_isa::ADDR_SPACE_BYTES`]):
//!
//! | region | range | contents |
//! |--------|-------|----------|
//! | ROM    | `0x00000..0x40000` | vector table, reset code, test image, ES ROM |
//! | RAM    | `0x40000..0x60000` | data, stack (SP starts at `0x60000`) |
//! | NVM    | `0x80000..0x90000` | non-volatile memory, written via the NVM controller |
//! | MMIO   | `0xE0000..0xF0000` | peripheral registers |

use std::fmt;

/// Classification of a memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Execute/read-only program memory.
    Rom,
    /// Volatile read/write memory.
    Ram,
    /// Non-volatile memory: readable on the bus, writable only through the
    /// NVM controller's unlock sequence.
    Nvm,
    /// Memory-mapped peripheral registers.
    Mmio,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RegionKind::Rom => "ROM",
            RegionKind::Ram => "RAM",
            RegionKind::Nvm => "NVM",
            RegionKind::Mmio => "MMIO",
        })
    }
}

/// One contiguous region of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    kind: RegionKind,
    start: u32,
    size: u32,
}

impl Region {
    /// Creates a region covering `start..start + size`.
    pub fn new(kind: RegionKind, start: u32, size: u32) -> Self {
        Self { kind, start, size }
    }

    /// The region's classification.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// First byte address.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// One past the last byte address.
    pub fn end(&self) -> u32 {
        self.start + self.size
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.start && addr < self.end()
    }

    fn overlaps(&self, other: &Region) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// The memory map of one SC88 chip.
///
/// All derivatives share the same coarse map; peripheral placement within
/// MMIO is per-derivative and lives in the register map instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryMap {
    regions: Vec<Region>,
    stack_top: u32,
    es_base: u32,
}

/// Default ROM region start.
pub const ROM_START: u32 = 0x0_0000;
/// Default ROM region size (256 KiB).
pub const ROM_SIZE: u32 = 0x4_0000;
/// Default RAM region start.
pub const RAM_START: u32 = 0x4_0000;
/// Default RAM region size (128 KiB).
pub const RAM_SIZE: u32 = 0x2_0000;
/// Default NVM region start.
pub const NVM_START: u32 = 0x8_0000;
/// Default NVM region size (64 KiB).
pub const NVM_SIZE: u32 = 0x1_0000;
/// Default MMIO region start.
pub const MMIO_START: u32 = 0xE_0000;
/// Default MMIO region size (64 KiB).
pub const MMIO_SIZE: u32 = 0x1_0000;
/// Initial stack pointer (top of RAM; the stack grows downwards).
pub const STACK_TOP: u32 = RAM_START + RAM_SIZE;
/// Link base of the embedded-software ROM within the ROM region.
pub const ES_BASE: u32 = 0x3_0000;

// Software conventions of the global trap-handler library: RAM words
// holding runtime-installable handler hooks. The library hardwires these
// (it is global-layer code); `Globals.inc` re-publishes them for tests.
/// RAM word holding the IRQ-line-0 handler hook.
pub const HOOK_IRQ0: u32 = RAM_START + 0x10;
/// RAM word holding the IRQ-line-1 handler hook.
pub const HOOK_IRQ1: u32 = RAM_START + 0x14;
/// RAM word holding the software-trap-8 handler hook.
pub const HOOK_TRAP8: u32 = RAM_START + 0x18;
/// RAM word holding the watchdog handler hook.
pub const HOOK_WDT: u32 = RAM_START + 0x1C;
/// Start of the RAM area reserved for test scratch data.
pub const TEST_DATA_BASE: u32 = RAM_START + 0x1000;

impl MemoryMap {
    /// The standard SC88 memory map shared by all derivatives.
    pub fn sc88() -> Self {
        Self {
            regions: vec![
                Region::new(RegionKind::Rom, ROM_START, ROM_SIZE),
                Region::new(RegionKind::Ram, RAM_START, RAM_SIZE),
                Region::new(RegionKind::Nvm, NVM_START, NVM_SIZE),
                Region::new(RegionKind::Mmio, MMIO_START, MMIO_SIZE),
            ],
            stack_top: STACK_TOP,
            es_base: ES_BASE,
        }
    }

    /// All regions in address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing `addr`, if any.
    pub fn region_at(&self, addr: u32) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// The region of the given kind (the SC88 map has exactly one of each).
    pub fn region(&self, kind: RegionKind) -> Option<&Region> {
        self.regions.iter().find(|r| r.kind == kind)
    }

    /// Initial stack pointer value.
    pub(crate) fn stack_top(&self) -> u32 {
        self.stack_top
    }

    /// Checks internal consistency: regions must not overlap, the stack
    /// top must bound the RAM region, and the ES base must lie in ROM.
    pub fn validate(&self) -> Result<(), String> {
        for (i, a) in self.regions.iter().enumerate() {
            for b in &self.regions[i + 1..] {
                if a.overlaps(b) {
                    return Err(format!("regions {} and {} overlap", a.kind, b.kind));
                }
            }
        }
        let ram = self.region(RegionKind::Ram).ok_or("no RAM region")?;
        if self.stack_top != ram.end() {
            return Err(format!(
                "stack top {:#x} is not the end of RAM {:#x}",
                self.stack_top,
                ram.end()
            ));
        }
        let rom = self.region(RegionKind::Rom).ok_or("no ROM region")?;
        if !rom.contains(self.es_base) {
            return Err(format!("ES base {:#x} outside ROM", self.es_base));
        }
        if self
            .regions
            .iter()
            .any(|r| r.end() > advm_isa::ADDR_SPACE_BYTES)
        {
            return Err("region exceeds the 20-bit address space".to_owned());
        }
        Ok(())
    }
}

impl Default for MemoryMap {
    fn default() -> Self {
        Self::sc88()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_map_is_valid() {
        MemoryMap::sc88().validate().unwrap();
    }

    #[test]
    fn region_lookup() {
        let map = MemoryMap::sc88();
        assert_eq!(map.region_at(0x100).unwrap().kind(), RegionKind::Rom);
        assert_eq!(map.region_at(0x4_0000).unwrap().kind(), RegionKind::Ram);
        assert_eq!(map.region_at(0x8_FFFF).unwrap().kind(), RegionKind::Nvm);
        assert_eq!(map.region_at(0xE_0100).unwrap().kind(), RegionKind::Mmio);
        assert!(
            map.region_at(0x7_0000).is_none(),
            "hole between RAM and NVM"
        );
    }

    #[test]
    fn stack_top_is_ram_end() {
        let map = MemoryMap::sc88();
        assert_eq!(map.stack_top(), map.region(RegionKind::Ram).unwrap().end());
    }

    #[test]
    fn es_base_in_rom() {
        let map = MemoryMap::sc88();
        assert!(map.region(RegionKind::Rom).unwrap().contains(map.es_base));
    }

    #[test]
    fn whole_map_fits_isa_address_space() {
        let map = MemoryMap::sc88();
        for region in map.regions() {
            assert!(region.end() <= advm_isa::ADDR_SPACE_BYTES);
        }
    }

    #[test]
    fn region_contains_is_half_open() {
        let r = Region::new(RegionKind::Ram, 0x100, 0x100);
        assert!(!r.contains(0xFF));
        assert!(r.contains(0x100));
        assert!(r.contains(0x1FF));
        assert!(!r.contains(0x200));
    }
}
