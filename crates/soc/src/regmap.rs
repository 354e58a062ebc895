//! Register-map modelling: modules, registers and named bit-fields.
//!
//! This is the machine-readable form of the "Global Control & Status
//! Register Definitions" that the paper places in the global layer
//! (Figure 1). Derivatives transform these maps; the abstraction layer's
//! `Globals.inc` is generated from them.

use std::fmt;

/// Register access rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Readable and writable.
    ReadWrite,
    /// Read-only (writes are ignored by hardware).
    ReadOnly,
    /// Write-only (reads return zero).
    WriteOnly,
}

impl Access {
    /// Whether a bus read is architecturally meaningful.
    pub fn readable(self) -> bool {
        !matches!(self, Access::WriteOnly)
    }

    /// Whether a bus write has an architectural effect.
    pub fn writable(self) -> bool {
        !matches!(self, Access::ReadOnly)
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Access::ReadWrite => "RW",
            Access::ReadOnly => "RO",
            Access::WriteOnly => "WO",
        })
    }
}

/// A named bit-field within a 32-bit register.
///
/// The paper's Figure 6 manipulates exactly such a field: the `PAGE` field
/// whose `pos`/`width` become `PAGE_FIELD_START_POSITION` /
/// `PAGE_FIELD_SIZE` in `Globals.inc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    pos: u8,
    width: u8,
}

impl Field {
    /// Creates a field.
    ///
    /// # Errors
    ///
    /// Fails if the field does not fit in a 32-bit register.
    pub fn new(name: impl Into<String>, pos: u8, width: u8) -> Result<Self, RegMapError> {
        let name = name.into();
        if width == 0 || width > 32 || pos > 31 || u32::from(pos) + u32::from(width) > 32 {
            return Err(RegMapError::BadField {
                field: name,
                pos,
                width,
            });
        }
        Ok(Self { name, pos, width })
    }

    /// The field's name (unique within its register).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bit position of the least-significant bit.
    pub fn pos(&self) -> u8 {
        self.pos
    }

    /// Width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The field's bit mask in register position.
    pub fn mask(&self) -> u32 {
        self.value_mask() << self.pos
    }

    /// Mask for a field value before shifting (low `width` bits).
    pub fn value_mask(&self) -> u32 {
        if self.width == 32 {
            u32::MAX
        } else {
            (1 << self.width) - 1
        }
    }

    /// Extracts this field's value from a register word.
    pub fn extract(&self, word: u32) -> u32 {
        (word >> self.pos) & self.value_mask()
    }

    /// Returns `word` with this field replaced by `value` (masked to width).
    pub fn insert(&self, word: u32, value: u32) -> u32 {
        (word & !self.mask()) | ((value & self.value_mask()) << self.pos)
    }

    fn overlaps(&self, other: &Field) -> bool {
        self.mask() & other.mask() != 0
    }
}

/// A 32-bit register within a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    name: String,
    offset: u32,
    access: Access,
    reset: u32,
    fields: Vec<Field>,
}

impl Register {
    /// Creates a register with no fields.
    ///
    /// # Errors
    ///
    /// Fails if `offset` is not word aligned.
    pub fn new(
        name: impl Into<String>,
        offset: u32,
        access: Access,
        reset: u32,
    ) -> Result<Self, RegMapError> {
        let name = name.into();
        if !offset.is_multiple_of(4) {
            return Err(RegMapError::MisalignedRegister {
                register: name,
                offset,
            });
        }
        Ok(Self {
            name,
            offset,
            access,
            reset,
            fields: Vec::new(),
        })
    }

    /// Adds a field, builder style.
    ///
    /// # Errors
    ///
    /// Fails if the field overlaps an existing field or duplicates a name.
    pub(crate) fn with_field(mut self, field: Field) -> Result<Self, RegMapError> {
        if self.fields.iter().any(|f| f.name == field.name) {
            return Err(RegMapError::DuplicateName {
                kind: "field",
                name: format!("{}.{}", self.name, field.name),
            });
        }
        if let Some(clash) = self.fields.iter().find(|f| f.overlaps(&field)) {
            return Err(RegMapError::OverlappingFields {
                register: self.name.clone(),
                first: clash.name.clone(),
                second: field.name,
            });
        }
        self.fields.push(field);
        Ok(self)
    }

    /// The register's name (unique within its module).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Byte offset from the module base.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// Access rights.
    pub fn access(&self) -> Access {
        self.access
    }

    /// Architectural reset value.
    pub fn reset(&self) -> u32 {
        self.reset
    }

    /// The register's fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A hardware module (peripheral) with a base address and registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    name: String,
    base: u32,
    size: u32,
    registers: Vec<Register>,
}

impl Module {
    /// Creates an empty module claiming `size` bytes from `base`.
    ///
    /// # Errors
    ///
    /// Fails if the base is not word aligned or the size is zero.
    pub fn new(name: impl Into<String>, base: u32, size: u32) -> Result<Self, RegMapError> {
        let name = name.into();
        if !base.is_multiple_of(4) || size == 0 {
            return Err(RegMapError::BadModule {
                module: name,
                base,
                size,
            });
        }
        Ok(Self {
            name,
            base,
            size,
            registers: Vec::new(),
        })
    }

    /// Adds a register, builder style.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names, duplicate offsets, or offsets outside the
    /// module's claimed size.
    pub(crate) fn with_register(mut self, register: Register) -> Result<Self, RegMapError> {
        if register.offset + 4 > self.size {
            return Err(RegMapError::RegisterOutsideModule {
                module: self.name,
                register: register.name,
            });
        }
        if self.registers.iter().any(|r| r.name == register.name) {
            return Err(RegMapError::DuplicateName {
                kind: "register",
                name: format!("{}.{}", self.name, register.name),
            });
        }
        if let Some(clash) = self.registers.iter().find(|r| r.offset == register.offset) {
            return Err(RegMapError::OverlappingRegisters {
                module: self.name.clone(),
                first: clash.name.clone(),
                second: register.name,
            });
        }
        self.registers.push(register);
        Ok(self)
    }

    /// The module name (unique within the map).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Base byte address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Claimed address-space size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Registers in declaration order.
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// Looks up a register by name.
    pub fn register(&self, name: &str) -> Option<&Register> {
        self.registers.iter().find(|r| r.name == name)
    }

    /// The absolute byte address of a register.
    pub(crate) fn register_addr(&self, name: &str) -> Option<u32> {
        self.register(name).map(|r| self.base + r.offset)
    }

    /// Whether `addr` falls inside this module's claimed range.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr < self.base + self.size
    }

    fn overlaps(&self, other: &Module) -> bool {
        self.base < other.base + other.size && other.base < self.base + self.size
    }

    pub(crate) fn rename_register(&mut self, old: &str, new: &str) -> Result<(), RegMapError> {
        if self.registers.iter().any(|r| r.name == new) {
            return Err(RegMapError::DuplicateName {
                kind: "register",
                name: format!("{}.{new}", self.name),
            });
        }
        let reg = self
            .registers
            .iter_mut()
            .find(|r| r.name == old)
            .ok_or_else(|| RegMapError::UnknownRegister {
                module: self.name.clone(),
                register: old.to_owned(),
            })?;
        reg.name = new.to_owned();
        Ok(())
    }

    pub(crate) fn update_field<F>(
        &mut self,
        register: &str,
        field: &str,
        update: F,
    ) -> Result<(), RegMapError>
    where
        F: FnOnce(&Field) -> Result<Field, RegMapError>,
    {
        let module_name = self.name.clone();
        let reg = self
            .registers
            .iter_mut()
            .find(|r| r.name == register)
            .ok_or_else(|| RegMapError::UnknownRegister {
                module: module_name,
                register: register.to_owned(),
            })?;
        let idx = reg
            .fields
            .iter()
            .position(|f| f.name == field)
            .ok_or_else(|| RegMapError::UnknownField {
                register: register.to_owned(),
                field: field.to_owned(),
            })?;
        let updated = update(&reg.fields[idx])?;
        // Re-check overlap against the *other* fields.
        if let Some(clash) = reg
            .fields
            .iter()
            .enumerate()
            .find(|(i, f)| *i != idx && f.overlaps(&updated))
        {
            return Err(RegMapError::OverlappingFields {
                register: reg.name.clone(),
                first: clash.1.name.clone(),
                second: updated.name,
            });
        }
        reg.fields[idx] = updated;
        Ok(())
    }
}

/// A complete register map: every module of one chip derivative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegMap {
    modules: Vec<Module>,
}

impl RegMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a module, builder style.
    ///
    /// # Errors
    ///
    /// Fails if the module's address range overlaps an existing module or
    /// duplicates a name.
    pub(crate) fn with_module(mut self, module: Module) -> Result<Self, RegMapError> {
        if self.modules.iter().any(|m| m.name == module.name) {
            return Err(RegMapError::DuplicateName {
                kind: "module",
                name: module.name,
            });
        }
        if let Some(clash) = self.modules.iter().find(|m| m.overlaps(&module)) {
            return Err(RegMapError::OverlappingModules {
                first: clash.name.clone(),
                second: module.name,
            });
        }
        self.modules.push(module);
        Ok(self)
    }

    /// Modules in declaration order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    pub(crate) fn module_mut(&mut self, name: &str) -> Result<&mut Module, RegMapError> {
        self.modules
            .iter_mut()
            .find(|m| m.name == name)
            .ok_or_else(|| RegMapError::UnknownModule {
                module: name.to_owned(),
            })
    }

    /// Finds the module containing `addr`, if any.
    #[cfg(test)]
    pub(crate) fn module_at(&self, addr: u32) -> Option<&Module> {
        self.modules.iter().find(|m| m.contains(addr))
    }

    pub(crate) fn relocate_module(&mut self, name: &str, new_base: u32) -> Result<(), RegMapError> {
        if !new_base.is_multiple_of(4) {
            return Err(RegMapError::BadModule {
                module: name.to_owned(),
                base: new_base,
                size: 1,
            });
        }
        let idx = self
            .modules
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| RegMapError::UnknownModule {
                module: name.to_owned(),
            })?;
        let mut moved = self.modules[idx].clone();
        moved.base = new_base;
        if let Some(clash) = self
            .modules
            .iter()
            .enumerate()
            .find(|(i, m)| *i != idx && m.overlaps(&moved))
        {
            return Err(RegMapError::OverlappingModules {
                first: clash.1.name.clone(),
                second: moved.name,
            });
        }
        self.modules[idx] = moved;
        Ok(())
    }
}

/// Errors arising while constructing or transforming register maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegMapError {
    /// A field does not fit in a 32-bit register.
    BadField {
        /// Field name.
        field: String,
        /// Offending position.
        pos: u8,
        /// Offending width.
        width: u8,
    },
    /// A register offset is not word aligned.
    MisalignedRegister {
        /// Register name.
        register: String,
        /// Offending offset.
        offset: u32,
    },
    /// A module base/size is invalid.
    BadModule {
        /// Module name.
        module: String,
        /// Offending base.
        base: u32,
        /// Offending size.
        size: u32,
    },
    /// Register placed outside its module's claimed range.
    RegisterOutsideModule {
        /// Module name.
        module: String,
        /// Register name.
        register: String,
    },
    /// Two named entities collide.
    DuplicateName {
        /// Entity kind ("module", "register", "field").
        kind: &'static str,
        /// The colliding name.
        name: String,
    },
    /// Two fields occupy the same bits.
    OverlappingFields {
        /// Register name.
        register: String,
        /// First field.
        first: String,
        /// Second field.
        second: String,
    },
    /// Two registers share an offset.
    OverlappingRegisters {
        /// Module name.
        module: String,
        /// First register.
        first: String,
        /// Second register.
        second: String,
    },
    /// Two modules' address ranges intersect.
    OverlappingModules {
        /// First module.
        first: String,
        /// Second module.
        second: String,
    },
    /// Named module does not exist.
    UnknownModule {
        /// Module name.
        module: String,
    },
    /// Named register does not exist.
    UnknownRegister {
        /// Module name.
        module: String,
        /// Register name.
        register: String,
    },
    /// Named field does not exist.
    UnknownField {
        /// Register name.
        register: String,
        /// Field name.
        field: String,
    },
}

impl fmt::Display for RegMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegMapError::BadField { field, pos, width } => {
                write!(
                    f,
                    "field `{field}` (pos {pos}, width {width}) does not fit a 32-bit register"
                )
            }
            RegMapError::MisalignedRegister { register, offset } => {
                write!(
                    f,
                    "register `{register}` offset {offset:#x} is not word aligned"
                )
            }
            RegMapError::BadModule { module, base, size } => {
                write!(
                    f,
                    "module `{module}` has invalid base {base:#x} / size {size:#x}"
                )
            }
            RegMapError::RegisterOutsideModule { module, register } => {
                write!(f, "register `{register}` lies outside module `{module}`")
            }
            RegMapError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            RegMapError::OverlappingFields {
                register,
                first,
                second,
            } => {
                write!(
                    f,
                    "fields `{first}` and `{second}` overlap in register `{register}`"
                )
            }
            RegMapError::OverlappingRegisters {
                module,
                first,
                second,
            } => {
                write!(
                    f,
                    "registers `{first}` and `{second}` overlap in module `{module}`"
                )
            }
            RegMapError::OverlappingModules { first, second } => {
                write!(
                    f,
                    "modules `{first}` and `{second}` have overlapping address ranges"
                )
            }
            RegMapError::UnknownModule { module } => write!(f, "unknown module `{module}`"),
            RegMapError::UnknownRegister { module, register } => {
                write!(f, "unknown register `{register}` in module `{module}`")
            }
            RegMapError::UnknownField { register, field } => {
                write!(f, "unknown field `{field}` in register `{register}`")
            }
        }
    }
}

impl std::error::Error for RegMapError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_register() -> Register {
        Register::new("PAGE_CTRL", 0x0, Access::ReadWrite, 0)
            .unwrap()
            .with_field(Field::new("PAGE", 0, 5).unwrap())
            .unwrap()
            .with_field(Field::new("ENABLE", 8, 1).unwrap())
            .unwrap()
    }

    #[test]
    fn field_insert_extract_roundtrip() {
        let field = Field::new("PAGE", 3, 5).unwrap();
        let word = field.insert(0xFFFF_FFFF, 0b10110);
        assert_eq!(field.extract(word), 0b10110);
        // Bits outside the field untouched.
        assert_eq!(word | field.mask(), 0xFFFF_FFFF);
    }

    #[test]
    fn field_insert_masks_value() {
        let field = Field::new("PAGE", 0, 5).unwrap();
        assert_eq!(field.insert(0, 0xFF), 0x1F);
        assert_eq!(field.value_mask(), 31);
    }

    #[test]
    fn full_width_field() {
        let field = Field::new("ALL", 0, 32).unwrap();
        assert_eq!(field.mask(), u32::MAX);
        assert_eq!(field.insert(0, 0xDEAD_BEEF), 0xDEAD_BEEF);
    }

    #[test]
    fn bad_fields_rejected() {
        assert!(Field::new("X", 28, 5).is_err());
        assert!(Field::new("X", 0, 0).is_err());
        assert!(Field::new("X", 32, 1).is_err());
    }

    #[test]
    fn overlapping_fields_rejected() {
        let reg = Register::new("R", 0, Access::ReadWrite, 0)
            .unwrap()
            .with_field(Field::new("A", 0, 5).unwrap())
            .unwrap();
        let err = reg.with_field(Field::new("B", 4, 2).unwrap()).unwrap_err();
        assert!(matches!(err, RegMapError::OverlappingFields { .. }));
    }

    #[test]
    fn duplicate_field_names_rejected() {
        let reg = Register::new("R", 0, Access::ReadWrite, 0)
            .unwrap()
            .with_field(Field::new("A", 0, 2).unwrap())
            .unwrap();
        assert!(matches!(
            reg.with_field(Field::new("A", 8, 2).unwrap()),
            Err(RegMapError::DuplicateName { .. })
        ));
    }

    #[test]
    fn module_register_addressing() {
        let module = Module::new("PAGE", 0xE0100, 0x100)
            .unwrap()
            .with_register(page_register())
            .unwrap();
        assert_eq!(module.register_addr("PAGE_CTRL"), Some(0xE0100));
        assert!(module.contains(0xE0100));
        assert!(module.contains(0xE01FF));
        assert!(!module.contains(0xE0200));
    }

    #[test]
    fn register_outside_module_rejected() {
        let module = Module::new("M", 0, 0x8).unwrap();
        let reg = Register::new("R", 0x8, Access::ReadWrite, 0).unwrap();
        assert!(matches!(
            module.with_register(reg),
            Err(RegMapError::RegisterOutsideModule { .. })
        ));
    }

    #[test]
    fn overlapping_modules_rejected() {
        let map = RegMap::new()
            .with_module(Module::new("A", 0x0, 0x100).unwrap())
            .unwrap();
        assert!(matches!(
            map.with_module(Module::new("B", 0x80, 0x100).unwrap()),
            Err(RegMapError::OverlappingModules { .. })
        ));
    }

    #[test]
    fn module_at_finds_owner() {
        let map = RegMap::new()
            .with_module(Module::new("A", 0x0, 0x100).unwrap())
            .unwrap()
            .with_module(Module::new("B", 0x100, 0x100).unwrap())
            .unwrap();
        assert_eq!(map.module_at(0xFF).unwrap().name(), "A");
        assert_eq!(map.module_at(0x100).unwrap().name(), "B");
        assert!(map.module_at(0x200).is_none());
    }

    #[test]
    fn rename_register_works_and_validates() {
        let mut module = Module::new("PAGE", 0xE0100, 0x100)
            .unwrap()
            .with_register(page_register())
            .unwrap();
        module.rename_register("PAGE_CTRL", "PAGE_CONF").unwrap();
        assert!(module.register("PAGE_CONF").is_some());
        assert!(module.register("PAGE_CTRL").is_none());
        assert!(module.rename_register("NOPE", "X").is_err());
    }

    #[test]
    fn update_field_rechecks_overlap() {
        let mut module = Module::new("PAGE", 0xE0100, 0x100)
            .unwrap()
            .with_register(page_register())
            .unwrap();
        // Widen PAGE to 9 bits: would collide with ENABLE at bit 8.
        let err = module
            .update_field("PAGE_CTRL", "PAGE", |f| Field::new(f.name(), f.pos(), 9))
            .unwrap_err();
        assert!(matches!(err, RegMapError::OverlappingFields { .. }));
        // Widen to 6 bits: fine.
        module
            .update_field("PAGE_CTRL", "PAGE", |f| Field::new(f.name(), f.pos(), 6))
            .unwrap();
        assert_eq!(
            module
                .register("PAGE_CTRL")
                .unwrap()
                .field("PAGE")
                .unwrap()
                .width(),
            6
        );
    }

    #[test]
    fn relocate_module_rechecks_overlap() {
        let mut map = RegMap::new()
            .with_module(Module::new("A", 0x0, 0x100).unwrap())
            .unwrap()
            .with_module(Module::new("B", 0x100, 0x100).unwrap())
            .unwrap();
        assert!(matches!(
            map.relocate_module("A", 0x180),
            Err(RegMapError::OverlappingModules { .. })
        ));
        map.relocate_module("A", 0x400).unwrap();
        assert_eq!(map.module("A").unwrap().base(), 0x400);
    }

    #[test]
    fn access_rights() {
        assert!(Access::ReadWrite.readable() && Access::ReadWrite.writable());
        assert!(Access::ReadOnly.readable() && !Access::ReadOnly.writable());
        assert!(!Access::WriteOnly.readable() && Access::WriteOnly.writable());
        assert_eq!(Access::ReadOnly.to_string(), "RO");
    }
}
