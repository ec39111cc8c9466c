#include "core/jit/jit_compiler.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/jit/jit_assembler.hpp"
#include "core/simd_kernels.hpp"

namespace uncertain {
namespace jit {

namespace {

// Fragment ABI (System V x86-64):
//   void fn(unsigned char* const* cols /* rdi */, size_t base /* rsi */)
//
// Register roles inside a fragment:
//   RDI  column pointer table (never clobbered)
//   RCX  element index, runs base .. base + stripElems
//   RSI  loop limit (base + stripElems)
//   RAX, RDX  scalar temps (const materialization, bool byte traffic)
//   R11  base of a column whose slot did not get a pinned register
//   R8, R9, R10, RBX, R12..R15  pinned bases of the first 8 column slots
//
// Vector registers: 0..11 hold pinned broadcast constants (low numbers)
// and live intermediate values (the strip IR's scratch offsets mapped
// to registers — scratch values never touch memory, which is the
// whole perf story). 12..15 are per-step temporaries: T0..T2 receive
// column loads for source positions 0..2, T3 is the compute register
// for column destinations and the blend-mask scratch.
//
// Each loop iteration advances `interleave_` element-quads at once,
// with every step emitted once per quad-lane back to back and each
// lane's intermediates in its own registers. A fused group is
// typically one dependent chain per element; emitted serially the
// out-of-order scheduler sees only that chain's stalled ops and the
// loop runs at FP *latency* (~4 cycles/step), not throughput.
// Interleaving K independent chains instruction by instruction keeps
// K ready ops in every scheduler window (measured 1.5x on the
// depth-64 chain at K=4). K is bounded by register pressure — the
// per-lane live-scratch maximum times K plus the pinned constants
// must fit the 12-register pool — never by step count.
constexpr int kTemp0 = 12;
constexpr int kTempEnd = 16;
constexpr int kPoolSize = 12;
constexpr int kPins[8] = {R8, R9, R10, RBX, R12, R13, R14, R15};
constexpr int kFirstCalleeSavedPin = 3; //!< kPins[3..] need push/pop
constexpr int kW = 4; //!< elements per pack: 4 x 64-bit lanes of a ymm

enum class Elem : std::uint8_t
{
    F64,
    I64,
    Bool,
};

struct OpSig
{
    Elem res = Elem::F64;
    std::array<Elem, 3> args{};
    std::uint8_t arity = 0;
};

bool
sigOf(Op op, OpSig& out)
{
    const Elem F = Elem::F64;
    const Elem I = Elem::I64;
    const Elem B = Elem::Bool;
    switch (op) {
        case Op::AddF64:
        case Op::SubF64:
        case Op::MulF64:
        case Op::DivF64:
        case Op::MinF64:
        case Op::MaxF64:
            out = {F, {F, F, F}, 2};
            return true;
        case Op::NegF64:
            out = {F, {F, F, F}, 1};
            return true;
        case Op::LtF64:
        case Op::GtF64:
        case Op::LeF64:
        case Op::GeF64:
        case Op::EqF64:
        case Op::NeF64:
            out = {B, {F, F, F}, 2};
            return true;
        case Op::AddI64:
        case Op::SubI64:
            out = {I, {I, I, I}, 2};
            return true;
        case Op::AndBool:
        case Op::OrBool:
            out = {B, {B, B, B}, 2};
            return true;
        case Op::NotBool:
            out = {B, {B, B, B}, 1};
            return true;
        case Op::SelectF64:
            out = {F, {B, F, F}, 3};
            return true;
        default: // the int32 rows: the SIMD strips run them
            return false;
    }
}

/** Broadcast-lane bit pattern of a constant operand. Bool constants
 *  become canonical masks (the in-register bool representation). */
std::uint64_t
laneBits(const Operand& o, Elem e)
{
    if (e == Elem::Bool)
        return (o.constBits & 0xffu) != 0 ? ~std::uint64_t{0} : 0;
    return o.constBits;
}

int
elemBytes(Elem e)
{
    return e == Elem::Bool ? 1 : 8;
}

constexpr std::uint64_t kSignMask = 0x8000000000000000ull;

class GroupEmitter
{
  public:
    GroupEmitter(const std::vector<GroupStep>& steps,
                 std::size_t columnSlots, std::size_t stripElems)
        : steps_(steps), columnSlots_(columnSlots),
          stripElems_(stripElems)
    {}

    /** Analyze + emit; false = refusal (nothing usable emitted). */
    bool
    emit()
    {
        if (!analyze())
            return false;
        chooseInterleave();
        emitPrologue();
        const std::size_t top = a_.here();
        emitBody();
        a_.addRImm32(RCX,
                     static_cast<std::int32_t>(kW * interleave_));
        a_.cmpRR(RCX, RSI);
        a_.jbTo(top);
        emitEpilogue();
        return true;
    }

    const std::vector<std::uint8_t>& code() const { return a_.code(); }

  private:
    // ---- analysis ----------------------------------------------------

    bool
    analyze()
    {
        if (steps_.empty() || columnSlots_ > kMaxColumnSlots)
            return false;
        if (stripElems_ == 0
            || stripElems_ % static_cast<std::size_t>(kW) != 0)
            return false;
        if (stripElems_
            > static_cast<std::size_t>(
                std::numeric_limits<std::int32_t>::max()))
            return false;
        sigs_.resize(steps_.size());
        std::set<std::uint32_t> defined;
        bool needZero = false;
        for (std::size_t k = 0; k < steps_.size(); ++k) {
            const GroupStep& s = steps_[k];
            OpSig& g = sigs_[k];
            if (!sigOf(s.op, g))
                return false;
            if (s.arity != g.arity)
                return false;
            for (unsigned i = 0; i < g.arity; ++i) {
                const Operand& o = s.src[i];
                const Elem e = g.args[i];
                switch (o.kind) {
                    case Operand::Kind::Column:
                        if (o.index >= columnSlots_)
                            return false;
                        if (e == Elem::Bool)
                            needZero = true;
                        break;
                    case Operand::Kind::Scratch:
                        if (defined.count(o.index) == 0)
                            return false; // reads a value the group never wrote
                        lastRef_[o.index] = k;
                        break;
                    case Operand::Kind::Const:
                        internConst(laneBits(o, e));
                        break;
                }
            }
            if (s.dst.kind == Operand::Kind::Const)
                return false;
            if (s.dst.kind == Operand::Kind::Column
                && s.dst.index >= columnSlots_)
                return false;
            if (s.dst.kind == Operand::Kind::Scratch) {
                defined.insert(s.dst.index);
                lastRef_[s.dst.index] = k;
            }
            if (s.op == Op::NegF64)
                internConst(kSignMask);
            if (s.op == Op::NotBool)
                internConst(~std::uint64_t{0});
        }
        if (needZero)
            internConst(0);
        if (constRegs_.size() > static_cast<std::size_t>(kPoolSize))
            return false;

        // Dry-run the scratch-offset -> vector-register binding so
        // emission can never run out of registers halfway through.
        // A binding lives from the offset's first definition to its
        // last reference; an overwrite before that reuses the same
        // register (the plan recycles offsets only after last use, so
        // the old value is dead by then).
        std::set<std::uint32_t> bound;
        std::size_t live = 0;
        maxLiveScratch_ = 0;
        for (std::size_t k = 0; k < steps_.size(); ++k) {
            const GroupStep& s = steps_[k];
            if (s.dst.kind == Operand::Kind::Scratch
                && bound.insert(s.dst.index).second) {
                ++live;
                maxLiveScratch_ = std::max(maxLiveScratch_, live);
            }
            auto releaseIfDead = [&](const Operand& o) {
                if (o.kind != Operand::Kind::Scratch)
                    return;
                if (lastRef_.at(o.index) == k && bound.erase(o.index))
                    --live;
            };
            for (unsigned i = 0; i < s.arity; ++i)
                releaseIfDead(s.src[i]);
            releaseIfDead(s.dst);
        }
        return constRegs_.size() + maxLiveScratch_
               <= static_cast<std::size_t>(kPoolSize);
    }

    void
    internConst(std::uint64_t bits)
    {
        if (constRegs_.count(bits))
            return;
        const int reg = static_cast<int>(constRegs_.size());
        constRegs_[bits] = reg;
        constOrder_.push_back(bits);
    }

    void
    chooseInterleave()
    {
        const std::size_t consts = constRegs_.size();
        interleave_ = 4;
        while (interleave_ > 1
               && (consts + maxLiveScratch_ * interleave_
                       > static_cast<std::size_t>(kPoolSize)
                   || stripElems_
                              % static_cast<std::size_t>(kW
                                                         * interleave_)
                          != 0))
            interleave_ /= 2;
    }

    // ---- prologue / epilogue -----------------------------------------

    void
    emitPrologue()
    {
        const int pinned = static_cast<int>(
            std::min<std::size_t>(columnSlots_, 8));
        for (int i = kFirstCalleeSavedPin; i < pinned; ++i)
            a_.pushR(kPins[i]);
        for (std::uint64_t bits : constOrder_) {
            const int reg = constRegs_.at(bits);
            if (bits == 0) {
                a_.vexRR(0x57, 1, 1, 0, 1, reg, reg, reg); // vxorpd
                continue;
            }
            a_.movRImm64(RAX, bits);
            // vmovq xmm, rax; vbroadcastsd ymm, xmm
            a_.vexRR(0x6E, 1, 1, 1, 0, reg, 0, RAX);
            a_.vexRR(0x19, 2, 1, 0, 1, reg, 0, reg);
        }
        for (int s = 0; s < pinned; ++s)
            a_.movRM(kPins[s],
                     Mem{RDI, -1, 1, static_cast<std::int32_t>(8 * s)});
        a_.movRR(RCX, RSI); // index = base
        a_.addRImm32(RSI, static_cast<std::int32_t>(stripElems_));
    }

    void
    emitEpilogue()
    {
        a_.vzeroupper();
        const int pinned = static_cast<int>(
            std::min<std::size_t>(columnSlots_, 8));
        for (int i = pinned - 1; i >= kFirstCalleeSavedPin; --i)
            a_.popR(kPins[i]);
        a_.ret();
    }

    // ---- the interleaved loop body -----------------------------------

    void
    emitBody()
    {
        scratchReg_.clear();
        freeRegs_.clear();
        for (int r = kPoolSize - 1;
             r >= static_cast<int>(constRegs_.size()); --r)
            freeRegs_.push_back(r);
        for (std::size_t k = 0; k < steps_.size(); ++k)
            for (unsigned u = 0; u < interleave_; ++u)
                emitStep(k, u);
    }

    /** Key for a scratch offset's register binding in quad-lane @p u —
     *  every lane carries its own copy of each live intermediate. */
    static std::uint64_t
    laneKey(std::uint32_t offset, unsigned u)
    {
        return (static_cast<std::uint64_t>(offset) << 3) | u;
    }

    void
    emitStep(std::size_t k, unsigned u)
    {
        const GroupStep& s = steps_[k];
        const OpSig& g = sigs_[k];
        int r[3] = {-1, -1, -1};
        for (unsigned i = 0; i < g.arity; ++i)
            r[i] = srcReg(s, g, i, u);
        int d;
        const bool dstColumn = s.dst.kind == Operand::Kind::Column;
        if (dstColumn) {
            d = pickTemp(r, g.arity);
        } else {
            auto it = scratchReg_.find(laneKey(s.dst.index, u));
            if (it != scratchReg_.end()) {
                d = it->second;
            } else {
                d = freeRegs_.back(); // analyze() proved non-empty
                freeRegs_.pop_back();
                scratchReg_.emplace(laneKey(s.dst.index, u), d);
            }
        }
        emitOp(s.op, d, r);
        if (dstColumn)
            storeDst(s.dst.index, g.res, u, d);
        releaseAfter(k, u);
    }

    void
    releaseAfter(std::size_t k, unsigned u)
    {
        const GroupStep& s = steps_[k];
        auto release = [&](const Operand& o) {
            if (o.kind != Operand::Kind::Scratch)
                return;
            if (lastRef_.at(o.index) != k)
                return;
            auto it = scratchReg_.find(laneKey(o.index, u));
            if (it == scratchReg_.end())
                return;
            freeRegs_.push_back(it->second);
            scratchReg_.erase(it);
        };
        for (unsigned i = 0; i < s.arity; ++i)
            release(s.src[i]);
        release(s.dst);
    }

    // ---- operands ----------------------------------------------------

    /** Register holding source @p i, loading/widening columns into the
     *  per-position temp T0..T2. */
    int
    srcReg(const GroupStep& s, const OpSig& g, unsigned i, unsigned u)
    {
        const Operand& o = s.src[i];
        const Elem e = g.args[i];
        switch (o.kind) {
            case Operand::Kind::Const:
                return constRegs_.at(laneBits(o, e));
            case Operand::Kind::Scratch:
                return scratchReg_.at(laneKey(o.index, u));
            case Operand::Kind::Column:
                break;
        }
        const int t = kTemp0 + static_cast<int>(i);
        if (e == Elem::Bool)
            widenBool(t, o.index, u);
        else
            loadColumn(t, o.index, e, u);
        return t;
    }

    /** Compute register for a column destination: a temp not holding
     *  any of this step's sources (scanned high so T3 wins when the
     *  low temps carry loads). */
    int
    pickTemp(const int* r, unsigned arity) const
    {
        for (int t = kTempEnd - 1; t >= kTemp0; --t) {
            bool taken = false;
            for (unsigned i = 0; i < arity; ++i)
                taken = taken || r[i] == t;
            if (!taken)
                return t;
        }
        return kTempEnd - 1; // unreachable: <= 3 sources
    }

    /** A temp distinct from every register in @p used (helper for
     *  the Min/Max blend masks). */
    int
    pickHelper(std::initializer_list<int> used) const
    {
        for (int t = kTemp0; t < kTempEnd; ++t) {
            bool taken = false;
            for (int x : used)
                taken = taken || x == t;
            if (!taken)
                return t;
        }
        return kTemp0; // unreachable by construction (see callers)
    }

    /** Address of column @p slot at element rcx + dispElems. Slots
     *  past the pinned set go through R11, reloaded per access. */
    Mem
    colMem(std::uint32_t slot, Elem e, int dispElems)
    {
        const int scale = elemBytes(e);
        const std::int32_t disp = dispElems * scale;
        if (slot < 8)
            return Mem{kPins[slot], RCX, scale, disp};
        a_.movRM(R11,
                 Mem{RDI, -1, 1, static_cast<std::int32_t>(8 * slot)});
        return Mem{R11, RCX, scale, disp};
    }

    void
    loadColumn(int t, std::uint32_t slot, Elem e, unsigned u)
    {
        const Mem m = colMem(slot, e, static_cast<int>(u) * kW);
        a_.vexRM(0x10, 1, 1, 0, 1, t, 0, m); // vmovupd
    }

    /** Load kW bool bytes and widen to the canonical
     *  all-ones/all-zero lane masks. */
    void
    widenBool(int t, std::uint32_t slot, unsigned u)
    {
        const Mem m = colMem(slot, Elem::Bool,
                             static_cast<int>(u) * kW);
        a_.vexRM(0x32, 2, 1, 0, 1, t, 0, m); // vpmovzxbq ymm, m32
        // mask = widened > 0
        a_.vexRR(0x37, 2, 1, 1, 1, t, t, constRegs_.at(0));
    }

    void
    storeDst(std::uint32_t slot, Elem e, unsigned u, int v)
    {
        if (e == Elem::Bool) {
            storeMask(slot, u, v);
            return;
        }
        const Mem m = colMem(slot, e, static_cast<int>(u) * kW);
        a_.vexRM(0x11, 1, 1, 0, 1, v, 0, m); // vmovupd store
    }

    /** Canonical mask -> kW bool bytes (exactly 0 or 1, matching the
     *  interpreter's stores byte for byte). */
    void
    storeMask(std::uint32_t slot, unsigned u, int v)
    {
        a_.vexRR(0x50, 1, 1, 0, 1, RAX, 0, v); // vmovmskpd
        const Mem m = colMem(slot, Elem::Bool,
                             static_cast<int>(u) * kW);
        for (int k = 0; k < kW; ++k) {
            Mem mk = m;
            mk.disp += k;
            if (k + 1 < kW) {
                a_.movR32R32(RDX, RAX);
                a_.andR32Imm8(RDX, 1);
                a_.movM8R8(mk, RDX);
                a_.shrR32Imm8(RAX, 1);
            } else {
                a_.andR32Imm8(RAX, 1);
                a_.movM8R8(mk, RAX);
            }
        }
    }

    // ---- op selection (AVX2 non-destructive three-operand forms) -----

    void
    vbin(std::uint8_t opc, int d, int a, int b)
    {
        a_.vexRR(opc, 1, 1, 0, 1, d, a, b);
    }

    void
    emitOp(Op op, int d, const int* r)
    {
        switch (op) {
            case Op::AddF64: vbin(0x58, d, r[0], r[1]); return;
            case Op::SubF64: vbin(0x5C, d, r[0], r[1]); return;
            case Op::MulF64: vbin(0x59, d, r[0], r[1]); return;
            case Op::DivF64: vbin(0x5E, d, r[0], r[1]); return;
            case Op::MinF64: {
                // (y < x) ? y : x — compare+blend, NaN/-0 like std::min
                const int m = pickHelper({d, r[0], r[1]});
                a_.vcmppd(m, r[1], r[0], 1);
                a_.vblendvpd(d, r[0], r[1], m);
                return;
            }
            case Op::MaxF64: {
                const int m = pickHelper({d, r[0], r[1]});
                a_.vcmppd(m, r[0], r[1], 1);
                a_.vblendvpd(d, r[0], r[1], m);
                return;
            }
            case Op::NegF64:
                vbin(0x57, d, r[0], constRegs_.at(kSignMask));
                return;
            case Op::LtF64: a_.vcmppd(d, r[0], r[1], 1); return;
            case Op::GtF64: a_.vcmppd(d, r[1], r[0], 1); return;
            case Op::LeF64: a_.vcmppd(d, r[0], r[1], 2); return;
            case Op::GeF64: a_.vcmppd(d, r[1], r[0], 2); return;
            case Op::EqF64: a_.vcmppd(d, r[0], r[1], 0); return;
            case Op::NeF64: a_.vcmppd(d, r[0], r[1], 4); return;
            case Op::AddI64: vbin(0xD4, d, r[0], r[1]); return;
            case Op::SubI64: vbin(0xFB, d, r[0], r[1]); return;
            case Op::AndBool: vbin(0x54, d, r[0], r[1]); return;
            case Op::OrBool: vbin(0x56, d, r[0], r[1]); return;
            case Op::NotBool:
                vbin(0x57, d, r[0],
                     constRegs_.at(~std::uint64_t{0}));
                return;
            case Op::SelectF64:
                // c ? x : y; blend picks src2 where the mask is set
                a_.vblendvpd(d, r[2], r[1], r[0]);
                return;
            default: // sigOf refused every other op before emission
                return;
        }
    }

    const std::vector<GroupStep>& steps_;
    std::size_t columnSlots_;
    std::size_t stripElems_;
    unsigned interleave_ = 1;
    std::size_t maxLiveScratch_ = 0;
    Assembler a_;
    std::vector<OpSig> sigs_;
    std::map<std::uint32_t, std::size_t> lastRef_;
    std::map<std::uint64_t, int> constRegs_;
    std::vector<std::uint64_t> constOrder_;
    std::map<std::uint64_t, int> scratchReg_;
    std::vector<int> freeRegs_;
};

// ---- availability ----------------------------------------------------

#if defined(__x86_64__)
bool
execProbe()
{
    // One-time end-to-end check that this process may actually map,
    // seal, and call native code (hardened kernels can refuse).
    static const bool ok = [] {
        Assembler a;
        a.ret();
        auto buf = ExecBuffer::seal(a.code().data(), a.code().size());
        if (!buf)
            return false;
        reinterpret_cast<void (*)()>(const_cast<void*>(buf->entry()))();
        return true;
    }();
    return ok;
}
#endif

// ---- process-wide fragment cache -------------------------------------

constexpr std::size_t kCacheCap = 256;

struct CacheState
{
    std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const Fragment>>
        map;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t refusals = 0;
    std::uint64_t evictions = 0;
};

CacheState&
cacheState()
{
    static CacheState s;
    return s;
}

std::string
cacheKey(const std::vector<GroupStep>& steps, std::size_t columnSlots,
         std::size_t stripElems)
{
    std::string key;
    key.reserve(16 + steps.size() * 32);
    auto put8 = [&](std::uint8_t v) {
        key.push_back(static_cast<char>(v));
    };
    auto put32 = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            put8(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto put64 = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            put8(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put64(stripElems);
    put64(columnSlots);
    for (const GroupStep& s : steps) {
        put8(static_cast<std::uint8_t>(s.op));
        put8(s.arity);
        put8(static_cast<std::uint8_t>(s.dst.kind));
        put32(s.dst.index);
        for (unsigned i = 0; i < s.arity; ++i) {
            put8(static_cast<std::uint8_t>(s.src[i].kind));
            put32(s.src[i].index);
            put64(s.src[i].constBits);
        }
    }
    return key;
}

} // namespace

bool
available()
{
#if defined(__x86_64__)
    return simd::activeIsa() == simd::Isa::Avx2 && execProbe();
#else
    return false;
#endif
}

const char*
codegenIsaName()
{
    return available() ? "avx2" : "none";
}

CompileResult
compileGroup(const std::vector<GroupStep>& steps,
             std::size_t columnSlots, std::size_t stripElems)
{
    CompileResult res;
    CacheState& c = cacheState();
    if (!available()) {
        std::lock_guard<std::mutex> lock(c.mu);
        ++c.refusals;
        return res;
    }
    const std::string key = cacheKey(steps, columnSlots, stripElems);
    std::lock_guard<std::mutex> lock(c.mu);
    auto it = c.map.find(key);
    if (it != c.map.end()) {
        ++c.hits;
        res.fragment = it->second;
        res.cacheHit = true;
        return res;
    }
    ++c.misses;
    const auto t0 = std::chrono::steady_clock::now();
    GroupEmitter em(steps, columnSlots, stripElems);
    if (!em.emit()) {
        ++c.refusals;
        return res;
    }
    auto buf = ExecBuffer::seal(em.code().data(), em.code().size());
    if (!buf) {
        ++c.refusals;
        return res;
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.fragment = std::make_shared<const Fragment>(std::move(buf));
    res.compileNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    if (c.map.size() >= kCacheCap) {
        c.map.erase(c.map.begin());
        ++c.evictions;
    }
    c.map.emplace(key, res.fragment);
    return res;
}

FragmentCacheStats
fragmentCacheStats()
{
    CacheState& c = cacheState();
    std::lock_guard<std::mutex> lock(c.mu);
    FragmentCacheStats out;
    out.hits = c.hits;
    out.misses = c.misses;
    out.refusals = c.refusals;
    out.evictions = c.evictions;
    out.size = c.map.size();
    return out;
}

void
clearFragmentCache()
{
    CacheState& c = cacheState();
    std::lock_guard<std::mutex> lock(c.mu);
    c.map.clear();
}

} // namespace jit
} // namespace uncertain
