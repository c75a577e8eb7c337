//! A minimal hand-rolled x86-64 instruction encoder.
//!
//! Only the forms the lowering in [`super::lower`] actually emits are
//! implemented: reg-reg ALU at all four widths, loads/stores through
//! `[base + disp]` and the guest-memory form `[r12 + rax]`, rel32 branches
//! with label fixups, the scalar-SSE subset, and the glue (pushfq, bts,
//! setcc, cqo, idiv, movabs + indirect call) the runtime scaffolding
//! needs. Operands are host register numbers 0-15 (the hardware encoding,
//! not the guest [`crate::mir::Reg`] indices).

// Host register numbers (hardware encoding).
pub const RAX: u8 = 0;
pub const RCX: u8 = 1;
pub const RDX: u8 = 2;
pub const RBX: u8 = 3;
pub const RSP: u8 = 4;
pub const RBP: u8 = 5;
pub const RSI: u8 = 6;
pub const RDI: u8 = 7;
pub const R12: u8 = 12;
pub const R13: u8 = 13;
pub const R14: u8 = 14;
pub const R15: u8 = 15;

// Condition-code encodings (low nibble of `0F 8x` / `0F 9x`).
pub const CC_B: u8 = 0x2;
pub const CC_AE: u8 = 0x3;
pub const CC_E: u8 = 0x4;
pub const CC_NE: u8 = 0x5;
pub const CC_A: u8 = 0x7;

/// A forward-referencable code position.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// Code buffer with label/rel32 fixups.
pub struct Asm {
    pub code: Vec<u8>,
    labels: Vec<usize>,
    fixups: Vec<(usize, Label)>,
}

const UNBOUND: usize = usize::MAX;

impl Asm {
    pub fn new() -> Asm {
        Asm { code: Vec::new(), labels: Vec::new(), fixups: Vec::new() }
    }

    pub fn new_label(&mut self) -> Label {
        self.labels.push(UNBOUND);
        Label(self.labels.len() as u32 - 1)
    }

    pub fn bind(&mut self, l: Label) {
        debug_assert_eq!(self.labels[l.0 as usize], UNBOUND, "label bound twice");
        self.labels[l.0 as usize] = self.code.len();
    }

    /// Offset of a bound label (after [`Asm::finalize`]).
    pub fn offset_of(&self, l: Label) -> usize {
        let off = self.labels[l.0 as usize];
        debug_assert_ne!(off, UNBOUND, "label never bound");
        off
    }

    /// Patch every rel32 fixup. Must run after all labels are bound.
    pub fn finalize(&mut self) {
        for &(pos, l) in &self.fixups {
            let target = self.labels[l.0 as usize];
            debug_assert_ne!(target, UNBOUND, "branch to unbound label");
            let rel = (target as i64 - (pos as i64 + 4)) as i32;
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.fixups.clear();
    }

    // ---- raw emission ------------------------------------------------------

    fn b(&mut self, bytes: &[u8]) {
        self.code.extend_from_slice(bytes);
    }

    fn d32(&mut self, v: u32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn d64(&mut self, v: u64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix for (reg, index, base); emitted only when needed. `op8`
    /// forces a bare REX when an 8-bit operand in sil/dil/bpl/spl would
    /// otherwise be misencoded as a high-byte register.
    fn rex(&mut self, w: bool, reg: u8, index: u8, base: u8, op8_regs: &[u8]) {
        let byte = 0x40 | ((w as u8) << 3) | (((reg >> 3) & 1) << 2) | (((index >> 3) & 1) << 1) | ((base >> 3) & 1);
        if byte != 0x40 || op8_regs.iter().any(|&r| (4..8).contains(&r)) {
            self.code.push(byte);
        }
    }

    fn modrm(&mut self, mode: u8, reg: u8, rm: u8) {
        self.code.push((mode << 6) | ((reg & 7) << 3) | (rm & 7));
    }

    /// ModRM (+SIB, +disp) for a `[base + disp]` memory operand.
    fn mem(&mut self, reg: u8, base: u8, disp: i32) {
        let base3 = base & 7;
        let need_sib = base3 == 4; // rsp/r12 need a SIB byte
        let rm = if need_sib { 4 } else { base3 };
        if disp == 0 && base3 != 5 {
            self.modrm(0, reg, rm);
            if need_sib {
                self.code.push(0x24);
            }
        } else if (-128..=127).contains(&disp) {
            self.modrm(1, reg, rm);
            if need_sib {
                self.code.push(0x24);
            }
            self.code.push(disp as i8 as u8);
        } else {
            self.modrm(2, reg, rm);
            if need_sib {
                self.code.push(0x24);
            }
            self.d32(disp as u32);
        }
    }

    // ---- moves -------------------------------------------------------------

    pub fn push_r(&mut self, r: u8) {
        self.rex(false, 0, 0, r, &[]);
        self.code.push(0x50 + (r & 7));
    }

    pub fn pop_r(&mut self, r: u8) {
        self.rex(false, 0, 0, r, &[]);
        self.code.push(0x58 + (r & 7));
    }

    /// `mov dst, src` (64-bit reg-reg).
    pub fn mov_rr(&mut self, dst: u8, src: u8) {
        self.rex(true, src, 0, dst, &[]);
        self.code.push(0x89);
        self.modrm(3, src, dst);
    }

    /// `mov dst32, src32` — canonicalizing 32-bit move (zeroes bits 32-63).
    pub fn mov_rr32(&mut self, dst: u8, src: u8) {
        self.rex(false, src, 0, dst, &[]);
        self.code.push(0x89);
        self.modrm(3, src, dst);
    }

    /// `mov dst, [base + disp]` (64-bit).
    pub fn load64(&mut self, dst: u8, base: u8, disp: i32) {
        self.rex(true, dst, 0, base, &[]);
        self.code.push(0x8B);
        self.mem(dst, base, disp);
    }

    /// `mov dst32, [base + disp]` (zero-extends).
    pub fn load32(&mut self, dst: u8, base: u8, disp: i32) {
        self.rex(false, dst, 0, base, &[]);
        self.code.push(0x8B);
        self.mem(dst, base, disp);
    }

    /// `movzx dst32, word [base + disp]`.
    pub fn load16z(&mut self, dst: u8, base: u8, disp: i32) {
        self.rex(false, dst, 0, base, &[]);
        self.b(&[0x0F, 0xB7]);
        self.mem(dst, base, disp);
    }

    /// `movzx dst32, byte [base + disp]`.
    pub fn load8z(&mut self, dst: u8, base: u8, disp: i32) {
        self.rex(false, dst, 0, base, &[]);
        self.b(&[0x0F, 0xB6]);
        self.mem(dst, base, disp);
    }

    /// `mov [base + disp], src` (64-bit).
    pub fn store64(&mut self, base: u8, disp: i32, src: u8) {
        self.rex(true, src, 0, base, &[]);
        self.code.push(0x89);
        self.mem(src, base, disp);
    }

    /// `mov dst, imm32` (zero-extends into the full register).
    pub fn mov_ri32(&mut self, dst: u8, imm: u32) {
        self.rex(false, 0, 0, dst, &[]);
        self.code.push(0xB8 + (dst & 7));
        self.d32(imm);
    }

    /// `movabs dst, imm64`.
    pub fn mov_ri64(&mut self, dst: u8, imm: u64) {
        self.rex(true, 0, 0, dst, &[]);
        self.code.push(0xB8 + (dst & 7));
        self.d64(imm);
    }

    /// Load a canonical constant by the shortest form.
    pub fn mov_ri(&mut self, dst: u8, imm: u64) {
        if imm <= u32::MAX as u64 {
            self.mov_ri32(dst, imm as u32);
        } else {
            self.mov_ri64(dst, imm);
        }
    }

    // ---- ALU ---------------------------------------------------------------

    /// Width-parameterized reg-reg ALU in the `op rm, reg` form: `opc8` is
    /// the 8-bit opcode (0x00 add, 0x28 sub, 0x20 and, 0x08 or, 0x30 xor,
    /// 0x38 cmp, 0x84 test); wider widths use `opc8 + 1`.
    pub fn alu_rr(&mut self, w: u8, opc8: u8, src: u8, dst: u8) {
        match w {
            1 => {
                self.rex(false, src, 0, dst, &[src, dst]);
                self.code.push(opc8);
            }
            2 => {
                self.code.push(0x66);
                self.rex(false, src, 0, dst, &[]);
                self.code.push(opc8 + 1);
            }
            4 => {
                self.rex(false, src, 0, dst, &[]);
                self.code.push(opc8 + 1);
            }
            _ => {
                self.rex(true, src, 0, dst, &[]);
                self.code.push(opc8 + 1);
            }
        }
        self.modrm(3, src, dst);
    }

    /// 32-bit `op r, imm32` through the 81 /ext group (0 add, 4 and, 5 sub,
    /// 7 cmp).
    pub fn alu_ri32(&mut self, ext: u8, r: u8, imm: u32) {
        self.rex(false, 0, 0, r, &[]);
        self.code.push(0x81);
        self.modrm(3, ext, r);
        self.d32(imm);
    }

    /// 64-bit `op r, imm8` (sign-extended) through 83 /ext.
    pub fn alu_ri64_i8(&mut self, ext: u8, r: u8, imm: i8) {
        self.rex(true, 0, 0, r, &[]);
        self.code.push(0x83);
        self.modrm(3, ext, r);
        self.code.push(imm as u8);
    }

    /// 64-bit `op r, imm32` (sign-extended) through REX.W 81 /ext.
    pub fn alu_ri64(&mut self, ext: u8, r: u8, imm: u32) {
        self.rex(true, 0, 0, r, &[]);
        self.code.push(0x81);
        self.modrm(3, ext, r);
        self.d32(imm);
    }

    /// `imul dst, src` (0F AF; w = 4 or 8).
    pub fn imul_rr(&mut self, w: u8, dst: u8, src: u8) {
        self.rex(w == 8, dst, 0, src, &[]);
        self.b(&[0x0F, 0xAF]);
        self.modrm(3, dst, src);
    }

    /// Width-parameterized shift by `cl` (ext: 4 shl, 7 sar).
    pub fn shift_cl(&mut self, w: u8, ext: u8, dst: u8) {
        match w {
            1 => {
                self.rex(false, 0, 0, dst, &[dst]);
                self.code.push(0xD2);
            }
            2 => {
                self.code.push(0x66);
                self.rex(false, 0, 0, dst, &[]);
                self.code.push(0xD3);
            }
            4 => {
                self.rex(false, 0, 0, dst, &[]);
                self.code.push(0xD3);
            }
            _ => {
                self.rex(true, 0, 0, dst, &[]);
                self.code.push(0xD3);
            }
        }
        self.modrm(3, ext, dst);
    }

    /// 64-bit shift by immediate (ext as in [`Asm::shift_cl`]).
    pub fn shift_ri64(&mut self, ext: u8, dst: u8, imm: u8) {
        self.rex(true, 0, 0, dst, &[]);
        self.code.push(0xC1);
        self.modrm(3, ext, dst);
        self.code.push(imm);
    }

    /// `add qword [base + disp], imm` (83/81 /0, imm sign-extended; a
    /// negative imm subtracts). Writes host flags.
    pub fn add_m64_i32(&mut self, base: u8, disp: i32, imm: i32) {
        self.rex(true, 0, 0, base, &[]);
        if let Ok(v) = i8::try_from(imm) {
            self.code.push(0x83);
            self.mem(0, base, disp);
            self.code.push(v as u8);
        } else {
            self.code.push(0x81);
            self.mem(0, base, disp);
            self.code.extend_from_slice(&imm.to_le_bytes());
        }
    }

    /// `test byte [base + disp], imm8` (F6 /0).
    pub fn test_m8_imm8(&mut self, base: u8, disp: i32, imm: u8) {
        self.rex(false, 0, 0, base, &[]);
        self.code.push(0xF6);
        self.mem(0, base, disp);
        self.code.push(imm);
    }

    /// `cmp r, [base + disp]` (64-bit; flags from r - mem).
    pub fn cmp_r_mem64(&mut self, r: u8, base: u8, disp: i32) {
        self.rex(true, r, 0, base, &[]);
        self.code.push(0x3B);
        self.mem(r, base, disp);
    }

    /// `lea dst, [base + disp]` (64-bit, wrapping).
    pub fn lea64(&mut self, dst: u8, base: u8, disp: i32) {
        self.rex(true, dst, 0, base, &[]);
        self.code.push(0x8D);
        self.mem(dst, base, disp);
    }

    pub fn pushfq(&mut self) {
        self.code.push(0x9C);
    }

    /// `test r8, imm8` (reg must be al/cl/dl/bl).
    pub fn test_r8_imm8(&mut self, r: u8, imm: u8) {
        debug_assert!(r < 4);
        if r == RAX {
            self.b(&[0xA8, imm]);
        } else {
            self.code.push(0xF6);
            self.modrm(3, 0, r);
            self.code.push(imm);
        }
    }

    /// `set<cc> r8` (reg must be al/cl/dl/bl).
    pub fn setcc(&mut self, cc: u8, r: u8) {
        debug_assert!(r < 4);
        self.b(&[0x0F, 0x90 + cc]);
        self.modrm(3, 0, r);
    }

    /// `movzx dst32, src8` (src must be al/cl/dl/bl).
    pub fn movzx_rr8(&mut self, dst: u8, src: u8) {
        debug_assert!(src < 4);
        self.rex(false, dst, 0, src, &[]);
        self.b(&[0x0F, 0xB6]);
        self.modrm(3, dst, src);
    }

    /// `movzx dst32, src16`.
    pub fn movzx_rr16(&mut self, dst: u8, src: u8) {
        self.rex(false, dst, 0, src, &[]);
        self.b(&[0x0F, 0xB7]);
        self.modrm(3, dst, src);
    }

    pub fn cqo(&mut self) {
        self.b(&[0x48, 0x99]);
    }

    /// `idiv r` (64-bit).
    pub fn idiv_r64(&mut self, r: u8) {
        self.rex(true, 0, 0, r, &[]);
        self.code.push(0xF7);
        self.modrm(3, 7, r);
    }

    /// `bts [base], bitreg` (64-bit bit-string set; marks dirty pages).
    pub fn bts_m64(&mut self, base: u8, bitreg: u8) {
        debug_assert!(base & 7 != 4 && base & 7 != 5);
        self.rex(true, bitreg, 0, base, &[]);
        self.b(&[0x0F, 0xAB]);
        self.modrm(0, bitreg, base);
    }

    // ---- control -----------------------------------------------------------

    /// `j<cc> label` (rel32).
    pub fn jcc(&mut self, cc: u8, l: Label) {
        self.b(&[0x0F, 0x80 + cc]);
        self.fixups.push((self.code.len(), l));
        self.d32(0);
    }

    /// `jmp label` (rel32).
    pub fn jmp(&mut self, l: Label) {
        self.code.push(0xE9);
        self.fixups.push((self.code.len(), l));
        self.d32(0);
    }

    /// `jmp [base + index*8]` (base must not be rbp/r13/rsp/r12).
    pub fn jmp_table(&mut self, base: u8, index: u8) {
        debug_assert!(base & 7 != 4 && base & 7 != 5);
        self.rex(false, 0, index, base, &[]);
        self.code.push(0xFF);
        self.modrm(0, 4, 4);
        self.code.push((3 << 6) | ((index & 7) << 3) | (base & 7));
    }

    /// `call r`.
    pub fn call_r(&mut self, r: u8) {
        self.rex(false, 0, 0, r, &[]);
        self.code.push(0xFF);
        self.modrm(3, 2, r);
    }

    pub fn ret(&mut self) {
        self.code.push(0xC3);
    }

    // ---- guest memory (`[r12 + rax]`) --------------------------------------

    fn guest_sib(&mut self, reg: u8) {
        self.modrm(0, reg, 4);
        // scale 0, index rax, base r12 (REX.B set by the caller).
        self.code.push(0x04);
    }

    /// Zero-extending load from guest memory at `[r12 + rax]`.
    pub fn load_guest(&mut self, w: u8, dst: u8) {
        match w {
            1 => {
                self.rex(false, dst, 0, R12, &[]);
                self.b(&[0x0F, 0xB6]);
            }
            2 => {
                self.rex(false, dst, 0, R12, &[]);
                self.b(&[0x0F, 0xB7]);
            }
            4 => {
                self.rex(false, dst, 0, R12, &[]);
                self.code.push(0x8B);
            }
            _ => {
                self.rex(true, dst, 0, R12, &[]);
                self.code.push(0x8B);
            }
        }
        self.guest_sib(dst);
    }

    /// Store to guest memory at `[r12 + rax]` (src must be a/c/d for w=1).
    pub fn store_guest(&mut self, w: u8, src: u8) {
        match w {
            1 => {
                debug_assert!(src < 4);
                self.rex(false, src, 0, R12, &[]);
                self.code.push(0x88);
            }
            2 => {
                self.code.push(0x66);
                self.rex(false, src, 0, R12, &[]);
                self.code.push(0x89);
            }
            4 => {
                self.rex(false, src, 0, R12, &[]);
                self.code.push(0x89);
            }
            _ => {
                self.rex(true, src, 0, R12, &[]);
                self.code.push(0x89);
            }
        }
        self.guest_sib(src);
    }

    // ---- scalar SSE --------------------------------------------------------

    /// `movq xmm, r64`.
    pub fn movq_x_r(&mut self, xmm: u8, r: u8) {
        self.code.push(0x66);
        self.rex(true, xmm, 0, r, &[]);
        self.b(&[0x0F, 0x6E]);
        self.modrm(3, xmm, r);
    }

    /// `movq r64, xmm`.
    pub fn movq_r_x(&mut self, r: u8, xmm: u8) {
        self.code.push(0x66);
        self.rex(true, xmm, 0, r, &[]);
        self.b(&[0x0F, 0x7E]);
        self.modrm(3, xmm, r);
    }

    /// Scalar double arithmetic `op dst_xmm, src_xmm`; opc 0x58 add,
    /// 0x5C sub, 0x59 mul, 0x5E div.
    pub fn sse_op(&mut self, opc: u8, dst: u8, src: u8) {
        self.code.push(0xF2);
        self.rex(false, dst, 0, src, &[]);
        self.b(&[0x0F, opc]);
        self.modrm(3, dst, src);
    }

    /// `ucomisd dst, src`.
    pub fn ucomisd(&mut self, dst: u8, src: u8) {
        self.code.push(0x66);
        self.rex(false, dst, 0, src, &[]);
        self.b(&[0x0F, 0x2E]);
        self.modrm(3, dst, src);
    }

    /// `cvtsi2sd xmm, r64`.
    pub fn cvtsi2sd(&mut self, xmm: u8, r: u8) {
        self.code.push(0xF2);
        self.rex(true, xmm, 0, r, &[]);
        self.b(&[0x0F, 0x2A]);
        self.modrm(3, xmm, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_encodings() {
        // Spot-check a handful of encodings against hand-assembled bytes.
        let mut a = Asm::new();
        a.mov_rr(RAX, RSI); // mov rax, rsi
        assert_eq!(a.code, [0x48, 0x89, 0xF0]);

        let mut a = Asm::new();
        a.load64(RDX, RBP, 160); // mov rdx, [rbp+160]
        assert_eq!(a.code, [0x48, 0x8B, 0x95, 0xA0, 0x00, 0x00, 0x00]);

        let mut a = Asm::new();
        a.load64(RCX, RBX, 0x48); // mov rcx, [rbx+0x48]
        assert_eq!(a.code, [0x48, 0x8B, 0x4B, 0x48]);

        let mut a = Asm::new();
        a.load_guest(8, RDX); // mov rdx, [r12+rax]
        assert_eq!(a.code, [0x49, 0x8B, 0x14, 0x04]);

        let mut a = Asm::new();
        a.store_guest(1, RDX); // mov [r12+rax], dl
        assert_eq!(a.code, [0x41, 0x88, 0x14, 0x04]);

        let mut a = Asm::new();
        a.bts_m64(RSI, RCX); // bts [rsi], rcx
        assert_eq!(a.code, [0x48, 0x0F, 0xAB, 0x0E]);

        let mut a = Asm::new();
        a.alu_rr(4, 0x00, RDX, RAX); // add eax, edx
        assert_eq!(a.code, [0x01, 0xD0]);

        let mut a = Asm::new();
        a.alu_rr(1, 0x38, RDX, RAX); // cmp al, dl
        assert_eq!(a.code, [0x38, 0xD0]);

        let mut a = Asm::new();
        a.lea64(R13, R13, 1); // lea r13, [r13+1]
        assert_eq!(a.code, [0x4D, 0x8D, 0x6D, 0x01]);

        let mut a = Asm::new();
        a.alu_ri64(7, RAX, 12); // cmp rax, 12
        assert_eq!(a.code, [0x48, 0x81, 0xF8, 0x0C, 0x00, 0x00, 0x00]);

        let mut a = Asm::new();
        a.jmp_table(RCX, RDX); // jmp [rcx+rdx*8]
        assert_eq!(a.code, [0xFF, 0x24, 0xD1]);

        let mut a = Asm::new();
        a.movq_x_r(0, RAX); // movq xmm0, rax
        assert_eq!(a.code, [0x66, 0x48, 0x0F, 0x6E, 0xC0]);

        let mut a = Asm::new();
        a.shift_cl(1, 4, RAX); // shl al, cl
        assert_eq!(a.code, [0xD2, 0xE0]);
    }

    #[test]
    fn rel32_fixups_resolve() {
        let mut a = Asm::new();
        let top = a.new_label();
        let out = a.new_label();
        a.bind(top);
        a.jcc(CC_E, out); // 6 bytes
        a.jmp(top); // 5 bytes
        a.bind(out);
        a.ret();
        a.finalize();
        // je +5 (to ret at 11), jmp -11 (back to 0)
        assert_eq!(&a.code[2..6], &5i32.to_le_bytes());
        assert_eq!(&a.code[7..11], &(-11i32).to_le_bytes());
        assert_eq!(a.offset_of(out), 11);
    }
}
