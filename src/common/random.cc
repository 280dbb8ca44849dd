#include "src/common/random.h"

#include <cmath>

namespace cmpsim {

namespace {

/** Memoized envelope constants of one (n, s) pair. zipf() is called
 *  once per generated memory access but only ever sees a handful of
 *  distinct (n, s) pairs per workload, and the constant pow()/log()
 *  below would otherwise dominate functional-mode throughput.
 *  Caching is bit-exact: the same inputs produce the same double.
 *  thread_local because runner workers simulate several systems at
 *  once in one process. */
struct ZipfEnv
{
    std::uint64_t n = 0;
    double s = 0.0;
    double top = 0.0;     ///< n^(1-s)   (s != 1 branch)
    double inv_oms = 0.0; ///< 1 / (1-s) (s != 1 branch)
    double log_n = 0.0;   ///< ln(n)     (s == 1 branch)
};

ZipfEnv &
zipfEnv(std::uint64_t n, double s)
{
    static thread_local ZipfEnv cache[4];
    static thread_local unsigned victim = 0;
    for (ZipfEnv &e : cache) {
        if (e.n == n && e.s == s)
            return e;
    }
    ZipfEnv &e = cache[victim];
    victim = (victim + 1) & 3;
    e.n = n;
    e.s = s;
    if (std::abs(s - 1.0) < 1e-9) {
        e.log_n = std::log(static_cast<double>(n));
    } else {
        const double one_minus_s = 1.0 - s;
        e.top = std::pow(static_cast<double>(n), one_minus_s);
        e.inv_oms = 1.0 / one_minus_s;
    }
    return e;
}

} // namespace

std::uint64_t
Random::zipf(std::uint64_t n, double s)
{
    cmpsim_assert(n > 0);
    if (n == 1)
        return 0;
    if (s <= 0.0)
        return below(n);
    // Inverse-CDF of the continuous power-law envelope
    //   F(x) ~ (x^(1-s) - 1) / (n^(1-s) - 1)  for s != 1,
    //   F(x) ~ ln(x) / ln(n)                  for s == 1.
    const ZipfEnv &env = zipfEnv(n, s);
    const double u = uniform();
    double x;
    if (std::abs(s - 1.0) < 1e-9)
        x = std::exp(u * env.log_n);
    else
        x = std::pow(u * (env.top - 1.0) + 1.0, env.inv_oms);
    auto rank = static_cast<std::uint64_t>(x) - 1;
    return rank >= n ? n - 1 : rank;
}

} // namespace cmpsim
