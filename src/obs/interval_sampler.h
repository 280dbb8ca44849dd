/**
 * @file
 * Interval time-series sampler (DESIGN.md §9): driven by the event
 * kernel every SystemConfig::sample_interval cycles, it snapshots
 * every counter registered in the system's StatRegistry as a
 * per-interval *delta*, plus a set of instantaneous gauges
 * (compression ratio, adaptive-controller counter, ...), and derives
 * the paper's rate metrics (per-core IPC, L1/L2 miss rates, link
 * bytes/cycle, L2 prefetch accuracy) per interval.
 *
 * This is the counter infrastructure runtime-guided prefetch
 * reconfiguration depends on (Prat et al., IPDPS'15) and the raw
 * series representative-interval selection consumes (Bueno et al.):
 * without per-interval data there is no way to see *when* the
 * adaptive controller throttles or a link saturates.
 *
 * The sampler is an observer: it only reads stats, so enabling it
 * cannot change simulated results (the determinism gate runs with it
 * on). Deltas are taken against an internal baseline that
 * CmpSystem::resetAllStats() re-anchors, so the warmup -> measure
 * stat reset cannot produce wrapped (underflowed) deltas.
 */

#ifndef CMPSIM_OBS_INTERVAL_SAMPLER_H
#define CMPSIM_OBS_INTERVAL_SAMPLER_H

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"

namespace cmpsim {

/** One sampled interval: [t0, t1) deltas plus gauge values. */
struct SampleRow
{
    Cycle t0 = 0;
    Cycle t1 = 0;
    std::vector<std::uint64_t> counter_deltas; ///< parallel to counterNames()
    std::vector<double> gauges;                ///< parallel to gaugeNames()
};

/** Rate metrics derived from one row (what the figures plot). */
struct DerivedMetrics
{
    double ipc_total = 0.0;
    std::vector<double> ipc_core;
    double l1i_miss_rate = 0.0;
    double l1d_miss_rate = 0.0;
    double l2_miss_rate = 0.0;
    double link_bytes_per_cycle = 0.0;
    double link_utilization = 0.0; ///< bytes/cycle over the pin rate
    double l2pf_accuracy_pct = 0.0;
};

/** Periodic whole-registry snapshotter. */
class IntervalSampler
{
  public:
    /** Shape of the sampled system (for derived metrics). */
    struct Shape
    {
        unsigned cores = 0;
        double link_bytes_per_cycle = 0.0; ///< pin rate (0 = unknown)
    };

    /**
     * @param reg registry to snapshot (must outlive the sampler);
     *        the counter-name set is captured here and fixed
     * @param interval nominal sampling period in cycles
     */
    IntervalSampler(const StatRegistry &reg, Cycle interval,
                    const Shape &shape);

    /** Add an instantaneous gauge sampled with each row. */
    void addGauge(const std::string &name, std::function<double()> fn);

    /** Anchor the baseline at @p now (start of measurement). */
    void begin(Cycle now);

    /** Record the interval [baseline, now) and re-anchor. Intervals
     *  of zero cycles are skipped (nothing can have changed). */
    void sampleAt(Cycle now);

    /** Stats were reset to zero: re-anchor the baseline at @p now so
     *  the next delta is (current - 0), not a wrapped subtraction. */
    void onStatsReset(Cycle now);

    Cycle interval() const { return interval_; }
    const std::vector<std::string> &counterNames() const { return names_; }
    const std::vector<std::string> &gaugeNames() const { return gauge_names_; }
    const std::vector<SampleRow> &rows() const { return rows_; }

    /** Delta of counter @p name in @p row (0 when unknown). */
    std::uint64_t counterDelta(const SampleRow &row,
                               const std::string &name) const;

    /** Rate metrics for @p row. */
    DerivedMetrics derived(const SampleRow &row) const;

    /**
     * CSV: header then one line per row —
     * cycle_start,cycle_end,<derived...>,<gauges...>,<counter deltas...>
     */
    void writeCsv(std::ostream &os) const;

    /** JSON object mirroring the CSV (schema in DESIGN.md §9). */
    void writeJson(std::ostream &os) const;

  private:
    void snapshotInto(std::vector<std::uint64_t> &out) const;

    const StatRegistry &reg_;
    Cycle interval_;
    Shape shape_;

    std::vector<std::string> names_; ///< sorted counter names (fixed)
    std::vector<std::string> gauge_names_;
    std::vector<std::function<double()>> gauge_fns_;

    Cycle baseline_cycle_ = 0;
    std::vector<std::uint64_t> baseline_;
    bool began_ = false;

    std::vector<SampleRow> rows_;
};

} // namespace cmpsim

#endif // CMPSIM_OBS_INTERVAL_SAMPLER_H
