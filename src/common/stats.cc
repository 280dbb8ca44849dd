#include "src/common/stats.h"

#include <cmath>

namespace cmpsim {

void
StatRegistry::registerCounter(const std::string &name, const Counter *c)
{
    cmpsim_assert(c != nullptr);
    auto [it, inserted] = counters_.emplace(name, c);
    (void)it;
    if (!inserted)
        cmpsim_panic("duplicate counter registration: %s", name.c_str());
}

void
StatRegistry::registerAverage(const std::string &name, const Average *a)
{
    cmpsim_assert(a != nullptr);
    auto [it, inserted] = averages_.emplace(name, a);
    (void)it;
    if (!inserted)
        cmpsim_panic("duplicate average registration: %s", name.c_str());
}

void
StatRegistry::registerHistogram(const std::string &name,
                                const Histogram *h)
{
    cmpsim_assert(h != nullptr);
    auto [it, inserted] = histograms_.emplace(name, h);
    (void)it;
    if (!inserted)
        cmpsim_panic("duplicate histogram registration: %s",
                     name.c_str());
}

std::uint64_t
StatRegistry::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    if (it == counters_.end())
        cmpsim_panic("unknown counter: %s", name.c_str());
    return it->second->value();
}

double
StatRegistry::average(const std::string &name) const
{
    auto it = averages_.find(name);
    if (it == averages_.end())
        cmpsim_panic("unknown average: %s", name.c_str());
    return it->second->mean();
}

bool
StatRegistry::hasCounter(const std::string &name) const
{
    return counters_.count(name) != 0;
}

const Histogram &
StatRegistry::histogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        cmpsim_panic("unknown histogram: %s", name.c_str());
    return *it->second;
}

std::vector<std::string>
StatRegistry::histogramNames() const
{
    std::vector<std::string> names;
    names.reserve(histograms_.size());
    for (const auto &[name, stat] : histograms_) {
        (void)stat;
        names.push_back(name);
    }
    return names;
}

std::vector<std::string>
StatRegistry::counterNames() const
{
    std::vector<std::string> names;
    names.reserve(counters_.size());
    for (const auto &[name, stat] : counters_) {
        (void)stat;
        names.push_back(name);
    }
    return names;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, stat] : counters_)
        os << name << " " << stat->value() << "\n";
    for (const auto &[name, stat] : averages_)
        os << name << " " << stat->mean() << "\n";
    for (const auto &[name, stat] : histograms_) {
        os << name << ".count " << stat->total() << "\n";
        os << name << ".mean " << stat->mean() << "\n";
        os << name << ".p50 " << stat->quantile(0.50) << "\n";
        os << name << ".p90 " << stat->quantile(0.90) << "\n";
        os << name << ".p99 " << stat->quantile(0.99) << "\n";
        os << name << ".underflow " << stat->underflow() << "\n";
    }
}

void
StatRegistry::resetAll()
{
    for (auto &[name, stat] : counters_) {
        (void)name;
        const_cast<Counter *>(stat)->reset();
    }
    for (auto &[name, stat] : averages_) {
        (void)name;
        const_cast<Average *>(stat)->reset();
    }
    for (auto &[name, stat] : histograms_) {
        (void)name;
        const_cast<Histogram *>(stat)->reset();
    }
}

std::uint64_t
StatSnapshot::counter(const std::string &name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

void
StatSnapshot::accumulate(const StatSnapshot &delta)
{
    for (const auto &[name, v] : delta.counters)
        counters[name] += v;
    for (const auto &[name, a] : delta.averages) {
        Avg &dst = averages[name];
        dst.sum += a.sum;
        dst.count += a.count;
    }
}

StatSnapshot
StatRegistry::snapshot() const
{
    StatSnapshot s;
    for (const auto &[name, stat] : counters_)
        s.counters[name] = stat->value();
    for (const auto &[name, stat] : averages_)
        s.averages[name] = {stat->sum(), stat->count()};
    return s;
}

StatSnapshot
StatRegistry::delta(const StatSnapshot &after,
                    const StatSnapshot &before)
{
    StatSnapshot d;
    for (const auto &[name, v] : after.counters) {
        const auto it = before.counters.find(name);
        d.counters[name] =
            v - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto &[name, a] : after.averages) {
        StatSnapshot::Avg base;
        const auto it = before.averages.find(name);
        if (it != before.averages.end())
            base = it->second;
        d.averages[name] = {a.sum - base.sum, a.count - base.count};
    }
    return d;
}

double
Histogram::quantile(double p) const
{
    cmpsim_assert(p >= 0.0 && p <= 1.0);
    if (total_ == 0)
        return 0.0;
    // Rank of the target sample, 1-based; ceil(p * total) so p = 0.5
    // of 2 samples resolves to the first.
    const double target = p * static_cast<double>(total_);
    std::uint64_t cum = underflow_;
    if (static_cast<double>(cum) >= target && underflow_ > 0)
        return 0.0; // negative samples report as "below 0"
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += counts_[i];
        if (static_cast<double>(cum) >= target)
            return width_ * static_cast<double>(i + 1);
    }
    return width_ * static_cast<double>(counts_.size());
}

namespace {

/**
 * Two-sided 97.5% Student-t quantiles for n-1 degrees of freedom,
 * indexed by dof (1-based); beyond the table we use the normal 1.96.
 */
constexpr double kT975[] = {
    0.0,    // dof 0 (unused)
    12.706, // 1
    4.303,  // 2
    3.182,  // 3
    2.776,  // 4
    2.571,  // 5
    2.447,  // 6
    2.365,  // 7
    2.306,  // 8
    2.262,  // 9
    2.228,  // 10
    2.201,  // 11
    2.179,  // 12
    2.160,  // 13
    2.145,  // 14
    2.131,  // 15
};

} // namespace

SampleSummary
summarize(const std::vector<double> &samples)
{
    SampleSummary s;
    s.n = static_cast<unsigned>(samples.size());
    if (s.n == 0)
        return s;

    double sum = 0.0;
    for (double v : samples)
        sum += v;
    s.mean = sum / s.n;

    if (s.n < 2)
        return s;

    double ss = 0.0;
    for (double v : samples) {
        const double d = v - s.mean;
        ss += d * d;
    }
    const double stderr_mean = std::sqrt(ss / (s.n - 1)) / std::sqrt(s.n);
    const unsigned dof = s.n - 1;
    const double t =
        dof < sizeof(kT975) / sizeof(kT975[0]) ? kT975[dof] : 1.96;
    s.ci95 = t * stderr_mean;
    return s;
}

} // namespace cmpsim
