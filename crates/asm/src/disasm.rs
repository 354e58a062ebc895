//! Disassembler: instruction words back to canonical assembler text.
//!
//! Used by the bondout/RTL trace facilities and by debugging output in the
//! regression runner. Undecodable words are rendered as `.WORD` data so a
//! disassembly listing is always complete.

use advm_isa::decode;

use crate::program::Image;

/// Disassembles one word at `addr`.
pub(crate) fn disassemble_word(addr: u32, word: u32) -> String {
    match decode(word) {
        Ok(insn) => format!("{addr:05X}: {word:08X}  {insn}"),
        Err(_) => format!("{addr:05X}: {word:08X}  .WORD 0x{word:X}"),
    }
}

/// Disassembles `count` words of an image starting at `start`.
pub(crate) fn disassemble_range(image: &Image, start: u32, count: u32) -> String {
    let mut out = String::new();
    for i in 0..count {
        let addr = start + 4 * i;
        out.push_str(&disassemble_word(addr, image.word(addr)));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use advm_isa::{encode, DataReg, Insn};

    use super::*;

    #[test]
    fn decodable_word_renders_instruction() {
        let word = encode(&Insn::MovI {
            rd: DataReg::D3,
            imm: 0x42,
        });
        let text = disassemble_word(0x100, word);
        assert!(text.contains("MOVI d3"), "{text}");
        assert!(text.starts_with("00100:"));
    }

    #[test]
    fn junk_word_renders_as_data() {
        let text = disassemble_word(0x0, 0xFFFF_FFFF);
        assert!(text.contains(".WORD"), "{text}");
    }

    #[test]
    fn range_walks_words() {
        let mut image = Image::new();
        let mut program_bytes = Vec::new();
        for insn in [Insn::Nop, Insn::Ret] {
            program_bytes.extend_from_slice(&encode(&insn).to_le_bytes());
        }
        let program = crate::program::Program::new(
            vec![crate::program::Segment::new(0x200, program_bytes)],
            Default::default(),
            Default::default(),
            Vec::new(),
        );
        image.load_program(&program).unwrap();
        let text = disassemble_range(&image, 0x200, 2);
        assert!(text.contains("NOP"));
        assert!(text.contains("RETURN"));
    }
}
