/**
 * @file
 * Shared types of the cmpsim performance benchmark: the span log of
 * the traced run, one pass of a workload and what it produced, and the
 * workload interface that main.cc drives. See README.md beside this
 * file for the workloads and the metric catalogue.
 */

#ifndef CMPSIM_PERFBENCH_PERFBENCH_H
#define CMPSIM_PERFBENCH_PERFBENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v; 0 when it is empty. */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

/**
 * Spans of one traced run, kept in memory and written as one JSON file
 * when the benchmark ends. A span opened while another is open becomes
 * its child.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1; ///< index into spans(), -1 for a top-level span
        double start_s = 0;
        double end_s = 0;
    };

    SpanLog(std::string workload, std::uint64_t seed)
        : workload_(std::move(workload)), seed_(seed)
    {
    }

    int
    open(std::string name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), parent, now(), 0});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[id].end_s = now();
        stack_.pop_back();
    }

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span to @p path; false when the file cannot be
     *  written. */
    bool write(const std::string &path) const;

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    std::string workload_;
    std::uint64_t seed_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Run @p fn, recording it as span @p name when @p log is set, and
 *  return its host seconds. */
template <class Fn>
double
timed(SpanLog *log, const char *name, Fn &&fn)
{
    const int id = log != nullptr ? log->open(name) : -1;
    const auto t0 = Clock::now();
    fn();
    const double s = secondsSince(t0);
    if (log != nullptr)
        log->close(id);
    return s;
}

/** Result of one simulated system, or of one batch point. */
struct Outcome
{
    std::string label;
    bool ok = true;
    std::string why;              ///< why it failed ("" when ok)
    std::uint64_t fingerprint = 0; ///< fnv1a over its stats or summary
};

/** Ordered (name, value) pairs. */
using Values = std::vector<std::pair<std::string, double>>;

/** Everything one pass of a workload produced. */
struct Pass
{
    double setup_s = 0;      ///< host seconds before the first timed cycle
    double wall_s = 0;       ///< first construction to last result
    double minstr_per_s = 0; ///< simulated Minstr per host second
    std::vector<Outcome> outcomes;
    /** Simulated counts read from stats(): fixed for a given seed. */
    Values counts;
    /** |simulated EQ 5 interaction - paper|, where the workload has
     *  one. */
    std::optional<double> interaction_err_pts;

    // Filled by the traced pass only.
    double sim_cycles = 0;       ///< cycles of the timed run()
    std::vector<cmpsim::Addr> l2_misses; ///< L2 demand-miss lines
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** JSON members (no braces) with the effective SystemConfig knobs
     *  and run lengths, for the provenance record. */
    virtual std::string knobs() const = 0;

    /** True when a pass runs on several threads of its own. */
    virtual bool threaded() const { return false; }

    /** One pass. With @p log set this is the traced pass: record
     *  spans and capture the L2 demand-miss stream. */
    virtual Pass pass(SpanLog *log) = 0;

    /**
     * Traced-run work after the traced pass (replays, the solo batch
     * pass): add its per-layer metrics to @p layers and the outcomes of
     * any systems it simulates to @p outcomes.
     */
    virtual void layers(const Pass &traced, SpanLog &log,
                        std::map<std::string, double> &layers,
                        std::vector<Outcome> &outcomes) = 0;
};

/** The workload called @p name, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, unsigned jobs);

} // namespace perfbench

#endif // CMPSIM_PERFBENCH_PERFBENCH_H
