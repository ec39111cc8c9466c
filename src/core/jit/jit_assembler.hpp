/**
 * @file
 * Minimal x86-64 assembler for the plan-level JIT: exactly the
 * instructions the fragment compiler emits, nothing more. Code is
 * assembled into a growable byte vector; the caller seals it into an
 * ExecBuffer afterwards (see jit_buffer.hpp for the W^X discipline).
 *
 * Vector instructions use the 3-byte VEX (AVX/AVX2) encoding only:
 * the JIT emits code only when the running CPU reports AVX2.
 *
 * The register mnemonics below are encoder numbers (RAX=0 ... R15=15,
 * and xmm/ymm registers use the same 0..15 numbering). Memory
 * operands are [base + index*scale + disp] with the usual ModRM/SIB
 * quirks handled internally (RSP/R12 force a SIB byte, RBP/R13 force
 * a displacement). The index register must never be RSP (the encoding
 * cannot express it); the compiler only ever indexes through RCX.
 */

#ifndef UNCERTAIN_CORE_JIT_JIT_ASSEMBLER_HPP
#define UNCERTAIN_CORE_JIT_JIT_ASSEMBLER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uncertain {
namespace jit {

/** Encoder numbers for the general-purpose registers. */
enum Gpr : int
{
    RAX = 0,
    RCX = 1,
    RDX = 2,
    RBX = 3,
    RSP = 4,
    RBP = 5,
    RSI = 6,
    RDI = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
};

/** [base + index*scale + disp]; index < 0 means "no index". */
struct Mem
{
    int base = RAX;
    int index = -1;
    int scale = 1; //!< 1, 2, 4, or 8 (ignored without an index)
    std::int32_t disp = 0;
};

class Assembler
{
  public:
    const std::vector<std::uint8_t>& code() const { return code_; }
    std::size_t here() const { return code_.size(); }

    // ---- general-purpose ---------------------------------------------

    void
    pushR(int r)
    {
        if (r >= 8)
            u8(0x41);
        u8(static_cast<std::uint8_t>(0x50 + (r & 7)));
    }

    void
    popR(int r)
    {
        if (r >= 8)
            u8(0x41);
        u8(static_cast<std::uint8_t>(0x58 + (r & 7)));
    }

    /** mov r64, imm64 */
    void
    movRImm64(int r, std::uint64_t imm)
    {
        u8(static_cast<std::uint8_t>(0x48 | ((r >> 3) & 1)));
        u8(static_cast<std::uint8_t>(0xB8 + (r & 7)));
        u64(imm);
    }

    /** mov r64, r64 */
    void
    movRR(int dst, int src)
    {
        rex(true, dst, -1, src);
        u8(0x8B);
        modrmReg(dst, src);
    }

    /** mov r32, r32 */
    void
    movR32R32(int dst, int src)
    {
        rex(false, dst, -1, src);
        u8(0x8B);
        modrmReg(dst, src);
    }

    /** mov r64, m64 */
    void
    movRM(int dst, const Mem& m)
    {
        rex(true, dst, m.index, m.base);
        u8(0x8B);
        modrmMem(dst, m);
    }

    /** mov m8, r8 (low byte of @p src; use only RAX/RDX sources). */
    void
    movM8R8(const Mem& m, int src)
    {
        rex(false, src, m.index, m.base);
        u8(0x88);
        modrmMem(src, m);
    }

    /** add r64, imm32 */
    void
    addRImm32(int r, std::int32_t imm)
    {
        rex(true, 0, -1, r);
        u8(0x81);
        modrmReg(0, r);
        u32(static_cast<std::uint32_t>(imm));
    }

    /** and r32, imm8 (sign-extended) */
    void
    andR32Imm8(int r, std::int8_t imm)
    {
        rex(false, 4, -1, r);
        u8(0x83);
        modrmReg(4, r);
        u8(static_cast<std::uint8_t>(imm));
    }

    /** shr r32, imm8 */
    void
    shrR32Imm8(int r, std::uint8_t imm)
    {
        rex(false, 5, -1, r);
        u8(0xC1);
        modrmReg(5, r);
        u8(imm);
    }

    /** cmp a64, b64 */
    void
    cmpRR(int a, int b)
    {
        rex(true, b, -1, a);
        u8(0x39);
        modrmReg(b, a);
    }

    /** jb @p target (an already-emitted label position). */
    void
    jbTo(std::size_t target)
    {
        u8(0x0F);
        u8(0x82);
        const std::int64_t rel = static_cast<std::int64_t>(target)
                                 - static_cast<std::int64_t>(here() + 4);
        u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(rel)));
    }

    void ret() { u8(0xC3); }

    // ---- VEX (AVX/AVX2) ----------------------------------------------
    // mmmmm: 1 = 0F, 2 = 0F38, 3 = 0F3A. pp: 0 = none, 1 = 66.
    // L: 0 = 128-bit, 1 = 256-bit. vvvv = 0 encodes "no source".

    /** VEX op with reg, vvvv, and rm all registers. */
    void
    vexRR(std::uint8_t op, int mmmmm, int pp, int w, int l, int reg,
          int vvvv, int rm)
    {
        vex3(reg, -1, rm, mmmmm, w, vvvv, l, pp);
        u8(op);
        modrmReg(reg, rm);
    }

    /** VEX op with a memory rm operand. */
    void
    vexRM(std::uint8_t op, int mmmmm, int pp, int w, int l, int reg,
          int vvvv, const Mem& m)
    {
        vex3(reg, m.index, m.base, mmmmm, w, vvvv, l, pp);
        u8(op);
        modrmMem(reg, m);
    }

    /** vcmppd dst, a, b, pred (dst = a cmp b) */
    void
    vcmppd(int dst, int a, int b, std::uint8_t pred)
    {
        vexRR(0xC2, 1, 1, 0, 1, dst, a, b);
        u8(pred);
    }

    /** vblendvpd dst, src1, src2, mask: lane = mask.sign ? src2 : src1 */
    void
    vblendvpd(int dst, int src1, int src2, int mask)
    {
        vexRR(0x4B, 3, 1, 0, 1, dst, src1, src2);
        u8(static_cast<std::uint8_t>(mask << 4));
    }

    /** vzeroupper — emitted before ret so the caller's non-VEX code
     *  does not pay AVX state transition penalties. */
    void
    vzeroupper()
    {
        u8(0xC5);
        u8(0xF8);
        u8(0x77);
    }

  private:
    void u8(std::uint8_t v) { code_.push_back(v); }

    void
    u32(std::uint32_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
        u8(static_cast<std::uint8_t>(v >> 16));
        u8(static_cast<std::uint8_t>(v >> 24));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    /** Emit a REX prefix if any extension bit (or W) is needed. */
    void
    rex(bool w, int reg, int index, int base)
    {
        const int r = (reg >= 8) ? 1 : 0;
        const int x = (index >= 8) ? 1 : 0;
        const int b = (base >= 8) ? 1 : 0;
        const std::uint8_t v = static_cast<std::uint8_t>(
            0x40 | (w ? 8 : 0) | (r << 2) | (x << 1) | b);
        if (v != 0x40)
            u8(v);
    }

    /** 3-byte VEX prefix (R/X/B/vvvv stored inverted). */
    void
    vex3(int reg, int index, int base, int mmmmm, int w, int vvvv,
         int l, int pp)
    {
        const int r = (reg >= 8) ? 0 : 1;
        const int x = (index >= 8) ? 0 : 1;
        const int b = (base >= 8) ? 0 : 1;
        u8(0xC4);
        u8(static_cast<std::uint8_t>((r << 7) | (x << 6) | (b << 5)
                                     | mmmmm));
        u8(static_cast<std::uint8_t>((w << 7) | ((~vvvv & 0xF) << 3)
                                     | (l << 2) | pp));
    }

    void
    modrmReg(int reg, int rm)
    {
        u8(static_cast<std::uint8_t>(0xC0 | ((reg & 7) << 3)
                                     | (rm & 7)));
    }

    void
    modrmMem(int reg, const Mem& m)
    {
        const int rl = reg & 7;
        const bool needSib = (m.index >= 0) || ((m.base & 7) == 4);
        int mod;
        if (m.disp == 0 && (m.base & 7) != 5)
            mod = 0;
        else if (m.disp >= -128 && m.disp <= 127)
            mod = 1;
        else
            mod = 2;
        if (needSib) {
            u8(static_cast<std::uint8_t>((mod << 6) | (rl << 3) | 4));
            const int scaleBits =
                m.scale == 1 ? 0 : m.scale == 2 ? 1 : m.scale == 4 ? 2 : 3;
            const int idx = (m.index >= 0) ? (m.index & 7) : 4;
            u8(static_cast<std::uint8_t>((scaleBits << 6) | (idx << 3)
                                         | (m.base & 7)));
        } else {
            u8(static_cast<std::uint8_t>((mod << 6) | (rl << 3)
                                         | (m.base & 7)));
        }
        if (mod == 1)
            u8(static_cast<std::uint8_t>(m.disp));
        else if (mod == 2)
            u32(static_cast<std::uint32_t>(m.disp));
    }

    std::vector<std::uint8_t> code_;
};

} // namespace jit
} // namespace uncertain

#endif // UNCERTAIN_CORE_JIT_JIT_ASSEMBLER_HPP
