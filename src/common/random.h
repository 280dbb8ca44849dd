/**
 * @file
 * Deterministic, seedable pseudo-random source (xoshiro256**).
 *
 * Every stochastic decision in cmpsim draws from an explicitly threaded
 * Random instance so that a (seed, config) pair fully determines a
 * simulation; the experiment runner varies seeds to measure space
 * variability the way the paper does [Alameldeen & Wood, HPCA 2003].
 */

#ifndef CMPSIM_COMMON_RANDOM_H
#define CMPSIM_COMMON_RANDOM_H

#include <cstdint>

#include "src/common/log.h"

namespace cmpsim {

/** xoshiro256** generator with splitmix64 seeding. */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 1) { reseed(seed); }

    /** Re-initialize the full state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        cmpsim_assert(bound > 0);
        // Lemire's multiply-shift rejection-free variant is fine here;
        // the slight modulo bias of 2^64 % bound is irrelevant for
        // simulation workload draws, but we use 128-bit multiply anyway.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    inRange(std::uint64_t lo, std::uint64_t hi)
    {
        cmpsim_assert(hi >= lo);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Approximately Zipf-distributed rank in [0, n) with exponent
     * @p s, via inverse-CDF on a power-law envelope. Cheap and close
     * enough to model hot/cold data-set skew.
     */
    std::uint64_t
    zipf(std::uint64_t n, double s);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state_[4];
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_RANDOM_H
