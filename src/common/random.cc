#include "src/common/random.h"

#include <cmath>

namespace cmpsim {

namespace {
bool
unitExponent(double s)
{
    return std::abs(s - 1.0) < 1e-9;
}
} // namespace

ZipfEnvelope::ZipfEnvelope(std::uint64_t ranks, double exponent)
    : n(ranks), s(exponent)
{
    if (unitExponent(s)) {
        log_n = std::log(static_cast<double>(n));
    } else {
        const double one_minus_s = 1.0 - s;
        top = std::pow(static_cast<double>(n), one_minus_s);
        inv_oms = 1.0 / one_minus_s;
    }
}

std::uint64_t
Random::zipf(const ZipfEnvelope &env)
{
    const std::uint64_t n = env.n;
    cmpsim_assert(n > 0);
    if (n == 1)
        return 0;
    if (env.s <= 0.0)
        return below(n);
    // Inverse-CDF of the continuous power-law envelope
    //   F(x) ~ (x^(1-s) - 1) / (n^(1-s) - 1)  for s != 1,
    //   F(x) ~ ln(x) / ln(n)                  for s == 1.
    const double u = uniform();
    double x;
    if (unitExponent(env.s))
        x = std::exp(u * env.log_n);
    else
        x = std::pow(u * (env.top - 1.0) + 1.0, env.inv_oms);
    auto rank = static_cast<std::uint64_t>(x) - 1;
    return rank >= n ? n - 1 : rank;
}

} // namespace cmpsim
