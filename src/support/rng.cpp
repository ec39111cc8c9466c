#include "support/rng.hpp"

#include <atomic>

#include "support/error.hpp"

namespace uncertain {

namespace {

inline std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** 53 high bits scaled by 2^-53: the canonical [0, 1) double. */
inline double
wordToDouble(std::uint64_t x)
{
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/** (x + 0.5) * 2^-53 lies strictly inside (0, 1) for all x. */
inline double
wordToDoubleOpen(std::uint64_t x)
{
    return (static_cast<double>(x >> 11) + 0.5) * 0x1.0p-53;
}

} // namespace

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed)
{
    SplitMix64 expander(seed);
    for (auto& word : state_)
        word = expander.next();
    // An all-zero state is the one invalid state; the SplitMix64
    // expansion of any seed cannot produce it, but guard anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
        state_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
Xoshiro256StarStar::next()
{
    const std::uint64_t result = rotl64(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl64(state_[3], 45);

    return result;
}

void
Xoshiro256StarStar::jump()
{
    static constexpr std::uint64_t kJump[] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL,
    };

    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t word : kJump) {
        for (int bit = 0; bit < 64; ++bit) {
            if (word & (1ULL << bit)) {
                s0 ^= state_[0];
                s1 ^= state_[1];
                s2 ^= state_[2];
                s3 ^= state_[3];
            }
            next();
        }
    }
    state_ = {s0, s1, s2, s3};
}

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1) | 1)
{
    next();
    state_ += seed;
    next();
}

std::uint32_t
Pcg32::next()
{
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

double
Rng::nextDouble()
{
    return wordToDouble(nextU64());
}

double
Rng::nextDoubleOpen()
{
    return wordToDoubleOpen(nextU64());
}

double
Rng::nextRange(double lo, double hi)
{
    UNCERTAIN_REQUIRE(lo < hi, "Rng::nextRange requires lo < hi");
    return lo + (hi - lo) * nextDouble();
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    UNCERTAIN_REQUIRE(bound > 0, "Rng::nextBelow requires bound > 0");
    // Rejection to remove modulo bias (Lemire-style threshold).
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t raw = nextU64();
        if (raw >= threshold)
            return raw % bound;
    }
}

bool
Rng::nextBool(double p)
{
    UNCERTAIN_REQUIRE(p >= 0.0 && p <= 1.0,
                      "Rng::nextBool requires p in [0, 1]");
    return nextDouble() < p;
}

// The bulk fills step a local copy of the engine: out is a
// uint64_t*/double* the compiler cannot prove disjoint from engine_,
// so stepping the member would reload and store all four state words
// around every output store. They are scalar on purpose: the xoshiro
// transition is a serial dependency chain, so a 4-lane leapfrogged
// AVX2 fill must run four vector transitions per pack to keep every
// lane on the serial orbit. It saves no work and measured ~1.5x
// slower than this loop on a 4-vCPU AVX2 x86-64 machine.

void
Rng::fillU64(std::uint64_t* out, std::size_t n)
{
    Xoshiro256StarStar engine = engine_;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = engine.next();
    engine_ = engine;
}

void
Rng::fillDouble(double* out, std::size_t n)
{
    Xoshiro256StarStar engine = engine_;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = wordToDouble(engine.next());
    engine_ = engine;
}

void
Rng::fillDoubleOpen(double* out, std::size_t n)
{
    Xoshiro256StarStar engine = engine_;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = wordToDoubleOpen(engine.next());
    engine_ = engine;
}

namespace {

/** SplitMix64 finalizer as a stand-alone 64-bit mixing function. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng
Rng::split(std::uint64_t streamIndex) const
{
    // Fold the full 256-bit state and the stream index through the
    // SplitMix64 finalizer. Each input word is mixed before being
    // absorbed so that low-entropy indices (0, 1, 2, ...) still flip
    // about half the seed bits between adjacent children.
    const auto& s = engine_.state();
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t word : s)
        h = mix64(h ^ mix64(word));
    h = mix64(h ^ mix64(streamIndex + 0xbf58476d1ce4e5b9ULL));
    // The child seed is expanded to a full 256-bit state by the
    // Xoshiro256StarStar(seed) constructor via SplitMix64.
    return Rng(h);
}

Rng
Rng::fork()
{
    Xoshiro256StarStar child = engine_;
    child.jump();
    engine_.jump();
    engine_.jump();
    return Rng(child);
}

namespace {

std::atomic<std::uint64_t> threadSeedCounter{0x5eedULL};

} // namespace

Rng&
globalRng()
{
    thread_local Rng rng(threadSeedCounter.fetch_add(
        0x9e3779b97f4a7c15ULL, std::memory_order_relaxed));
    return rng;
}

void
seedGlobalRng(std::uint64_t seed)
{
    globalRng() = Rng(seed);
}

} // namespace uncertain
