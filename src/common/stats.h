/**
 * @file
 * Lightweight statistics package: counters, averages and histograms that
 * components register with a StatRegistry for end-of-run dumping, plus
 * the sample-summary (mean / 95% confidence interval) helpers the
 * experiment runner uses to report multi-seed results the way the paper
 * does.
 */

#ifndef CMPSIM_COMMON_STATS_H
#define CMPSIM_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/log.h"

namespace cmpsim {

/** A monotonically growing event count. */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator+=(std::uint64_t n)
    {
        value_ += n;
        return *this;
    }

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Overwrite the count (a follower adopting its leader's skip
     *  totals, CoreModel::adoptSkip()). */
    void restore(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

/** Sum/count pair for mean-of-samples stats (e.g., average latency). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Fixed-width-bucket histogram with overflow bucket (last bucket) and
 * a dedicated underflow bucket for negative samples, so a negative
 * latency (always a bug somewhere) is visible instead of being
 * silently folded into bucket 0.
 */
class Histogram
{
  public:
    /** @param bucket_width width of each bucket; @param buckets count. */
    Histogram(double bucket_width, unsigned buckets)
        : width_(bucket_width), counts_(buckets + 1, 0)
    {
        cmpsim_assert(bucket_width > 0 && buckets > 0);
    }

    void
    sample(double v)
    {
        if (v < 0) {
            ++underflow_;
        } else {
            auto idx = static_cast<unsigned>(v / width_);
            if (idx >= counts_.size())
                idx = static_cast<unsigned>(counts_.size()) - 1;
            ++counts_[idx];
        }
        sum_ += v;
        ++total_;
    }

    std::uint64_t bucket(unsigned i) const { return counts_.at(i); }
    unsigned buckets() const { return static_cast<unsigned>(counts_.size()); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t total() const { return total_; }
    double bucketWidth() const { return width_; }

    double
    mean() const
    {
        return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
    }

    /**
     * Value below which fraction @p p (0..1) of the samples fall,
     * resolved to the upper edge of the containing bucket (0 for the
     * underflow bucket, +"inf" is clamped to the overflow bucket's
     * lower edge + width). 0 when empty.
     */
    double quantile(double p) const;

    void
    reset()
    {
        for (auto &c : counts_)
            c = 0;
        underflow_ = 0;
        sum_ = 0.0;
        total_ = 0;
    }

  private:
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    double sum_ = 0.0;
    std::uint64_t total_ = 0;
};

/**
 * Value snapshot of every registered counter and average, keyed by
 * name (DESIGN.md §14). The statistical sampling engine captures one
 * at each detailed-interval boundary and differences consecutive
 * snapshots to get per-interval metric deltas; histograms are
 * excluded (interval metrics are means and rates).
 */
struct StatSnapshot
{
    /** Sum/count pair of one Average at snapshot time. */
    struct Avg
    {
        double sum = 0.0;
        std::uint64_t count = 0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Avg> averages;

    /** Counter value, 0 when absent (a stat registered mid-plan). */
    std::uint64_t counter(const std::string &name) const;

    /** Add @p delta into this snapshot (accumulating interval deltas
     *  into a running total). */
    void accumulate(const StatSnapshot &delta);
};

/**
 * Name -> stat-pointer registry. Components register their counters
 * under a hierarchical dotted prefix ("l2.misses"); the registry can
 * dump everything or resolve one value for tests and benches.
 *
 * The registry does not own the stats; registrants must outlive it or
 * call nothing after destruction (the usual pattern is that the System
 * owns both the components and the registry).
 */
class StatRegistry
{
  public:
    void registerCounter(const std::string &name, const Counter *c);
    void registerAverage(const std::string &name, const Average *a);
    void registerHistogram(const std::string &name, const Histogram *h);

    /** Value of a registered counter. Fatal if absent. */
    std::uint64_t counter(const std::string &name) const;

    /** Mean of a registered average. Fatal if absent. */
    double average(const std::string &name) const;

    bool hasCounter(const std::string &name) const;

    /** A registered histogram. Fatal if absent. */
    const Histogram &histogram(const std::string &name) const;

    /** All registered histogram names, sorted. */
    std::vector<std::string> histogramNames() const;

    /** All registered counter names, sorted. */
    std::vector<std::string> counterNames() const;

    /** Dump "name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    /** Reset every registered stat to zero (start of measurement). */
    void resetAll();

    // ---- interval sampling (DESIGN.md §14) ----

    /** Capture every registered counter and average by value. */
    StatSnapshot snapshot() const;

    /**
     * Per-name difference @p after - @p before: counter deltas and
     * average sum/count deltas. Names absent from @p before (stats
     * registered between snapshots) count from zero; names absent
     * from @p after are dropped.
     */
    static StatSnapshot delta(const StatSnapshot &after,
                              const StatSnapshot &before);

  private:
    std::map<std::string, const Counter *> counters_;
    std::map<std::string, const Average *> averages_;
    std::map<std::string, const Histogram *> histograms_;
};

/** Summary of repeated-trial samples: mean and 95% CI half-width. */
struct SampleSummary
{
    double mean = 0.0;
    double ci95 = 0.0; ///< half-width; 0 when fewer than 2 samples
    unsigned n = 0;
};

/** Student-t based summary of @p samples (the paper's methodology). */
SampleSummary summarize(const std::vector<double> &samples);

} // namespace cmpsim

#endif // CMPSIM_COMMON_STATS_H
