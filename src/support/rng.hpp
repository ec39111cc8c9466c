/**
 * @file
 * Pseudo-random number engines and the Rng facade.
 *
 * The library implements its own engines so that sampling behaviour is
 * reproducible across standard libraries and platforms:
 *  - SplitMix64: seed expander (Steele, Lea & Flood, OOPSLA 2014).
 *  - Xoshiro256StarStar: default engine (Blackman & Vigna, 2018).
 *  - Pcg32: small-state alternative engine (O'Neill, 2014).
 *
 * The Rng facade wraps an engine and provides the uniform deviates the
 * distribution classes in src/random build on. Engines satisfy
 * std::uniform_random_bit_generator, so they also interoperate with
 * <random> if a user prefers the standard distributions.
 */

#ifndef UNCERTAIN_SUPPORT_RNG_HPP
#define UNCERTAIN_SUPPORT_RNG_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace uncertain {

/**
 * SplitMix64: a tiny 64-bit generator used to expand a single seed
 * into the larger state vectors of the main engines. Also usable as a
 * (statistically weaker) engine in its own right.
 */
class SplitMix64
{
  public:
    using result_type = std::uint64_t;

    explicit SplitMix64(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state_(seed)
    {}

    /** Advance the state and return the next 64-bit output. */
    std::uint64_t next();

    std::uint64_t operator()() { return next(); }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t
    max()
    {
        return std::numeric_limits<std::uint64_t>::max();
    }

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256** 1.0, the library's default engine: 256 bits of state,
 * period 2^256 - 1, excellent statistical quality, and a jump()
 * function that provides 2^128 non-overlapping subsequences for
 * independent streams.
 */
class Xoshiro256StarStar
{
  public:
    using result_type = std::uint64_t;

    /** Seeds the 256-bit state by running SplitMix64 on @p seed. */
    explicit Xoshiro256StarStar(std::uint64_t seed = 0xdeadbeefcafef00dULL);

    /** Advance the state and return the next 64-bit output. */
    std::uint64_t next();

    std::uint64_t operator()() { return next(); }

    /**
     * Jump ahead by 2^128 steps. Calling jump() on a copy yields a
     * stream guaranteed not to overlap the original for 2^128 draws.
     */
    void jump();

    /**
     * Read-only snapshot of the 256-bit state. Used to derive child
     * streams deterministically (Rng::split) without advancing the
     * engine.
     */
    const std::array<std::uint64_t, 4>& state() const { return state_; }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t
    max()
    {
        return std::numeric_limits<std::uint64_t>::max();
    }

  private:
    std::array<std::uint64_t, 4> state_;
};

/**
 * PCG-XSH-RR 64/32 (pcg32): 64 bits of state, 32-bit output. Provided
 * as a small-state alternative and to cross-check engine independence
 * in tests.
 */
class Pcg32
{
  public:
    using result_type = std::uint32_t;

    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Advance the state and return the next 32-bit output. */
    std::uint32_t next();

    std::uint32_t operator()() { return next(); }

    static constexpr std::uint32_t min() { return 0; }
    static constexpr std::uint32_t
    max()
    {
        return std::numeric_limits<std::uint32_t>::max();
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/**
 * Facade over the default engine providing the uniform deviates that
 * every distribution in src/random is built from. One Rng instance is
 * a single stream; fork() splits off an independent stream.
 *
 * Not thread-safe; use one Rng (or fork) per thread.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t nextU64() { return engine_.next(); }

    std::uint64_t operator()() { return nextU64(); }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t
    max()
    {
        return std::numeric_limits<std::uint64_t>::max();
    }

    /** Uniform double in [0, 1) with 53 random bits. */
    double nextDouble();

    /** Uniform double in (0, 1); never returns exactly 0 or 1. */
    double nextDoubleOpen();

    /** Uniform double in [lo, hi). Requires lo < hi. */
    double nextRange(double lo, double hi);

    /** Unbiased uniform integer in [0, bound). Requires bound > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Bernoulli(p) draw. */
    bool nextBool(double p = 0.5);

    /**
     * Bulk fills: write @p n consecutive deviates into @p out, exactly
     * as the corresponding scalar call would produce them in a loop.
     * These exist so the columnar batch kernels (core/batch_plan.hpp)
     * can fill a whole leaf column without paying the facade call per
     * element; the stream advances by the same amount as n scalar
     * draws.
     */
    void fillU64(std::uint64_t* out, std::size_t n);

    /** n values of nextDouble() into @p out. */
    void fillDouble(double* out, std::size_t n);

    /** n values of nextDoubleOpen() into @p out. */
    void fillDoubleOpen(double* out, std::size_t n);

    /**
     * Split off an independent stream: the result is a copy of this
     * engine jumped ahead 2^128 steps, and this engine is jumped once
     * more so the parent and all forks are pairwise non-overlapping.
     */
    Rng fork();

    /**
     * Deterministic, counter-based child stream: hashes the current
     * 256-bit state together with @p streamIndex into a fresh engine
     * seed. Unlike fork(), split() does NOT advance this generator,
     * so the family { split(0), split(1), ... } is a pure function of
     * (state, index). This is what makes batch sample i identical no
     * matter which thread draws it: every worker derives stream i
     * from the same parent snapshot. Uses only fixed-width integer
     * ops, so results are identical across platforms. Distinct
     * indices give statistically independent streams (SplitMix64
     * finalization; see tests/support/rng_split_test.cpp).
     */
    Rng split(std::uint64_t streamIndex) const;

    /**
     * Advance this generator by one draw. Call after handing out
     * split() children for a batch so the next batch derives a fresh
     * stream family.
     */
    void advance() { (void)nextU64(); }

  private:
    explicit Rng(const Xoshiro256StarStar& engine) : engine_(engine) {}

    Xoshiro256StarStar engine_;
};

/**
 * Per-thread default generator used when a sampling call is made
 * without an explicit Rng. Deterministically seeded per thread;
 * reseedable for reproducible runs.
 */
Rng& globalRng();

/** Reseed the calling thread's global generator. */
void seedGlobalRng(std::uint64_t seed);

} // namespace uncertain

#endif // UNCERTAIN_SUPPORT_RNG_HPP
