/**
 * @file
 * FIFO-serialized shared bandwidth channel.
 *
 * Models a resource (off-chip pin interface, on-chip crossbar) with a
 * fixed bytes/cycle rate: each transfer occupies the channel for
 * size/rate cycles, and transfers queue behind one another. This is
 * the mechanism through which prefetching-induced contention degrades
 * performance in the paper, and through which link compression buys it
 * back.
 */

#ifndef CMPSIM_SIM_BANDWIDTH_RESOURCE_H
#define CMPSIM_SIM_BANDWIDTH_RESOURCE_H

#include <string>

#include "src/common/log.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace cmpsim {

/** A shared channel with a byte/cycle rate and FIFO queuing. */
class BandwidthResource
{
  public:
    /**
     * @param bytes_per_cycle channel rate; at the paper's 5 GHz clock,
     *        20 GB/s pins = 4 bytes/cycle.
     */
    explicit BandwidthResource(double bytes_per_cycle)
        : rate_(bytes_per_cycle)
    {
        cmpsim_assert(bytes_per_cycle > 0);
    }

    /**
     * Reserve a transfer of @p bytes that is ready to start at
     * @p earliest. @return the cycle at which the last byte arrives.
     */
    Cycle
    reserve(Cycle earliest, unsigned bytes)
    {
        const double duration = static_cast<double>(bytes) / rate_;
        total_bytes_ += bytes;
        ++transfers_;

        double start = static_cast<double>(earliest);
        if (next_free_ > start)
            start = next_free_;

        queue_delay_.sample(start - static_cast<double>(earliest));

        const double end = start + duration;
        next_free_ = end;
        busy_ += duration;

        // The message is usable when its last byte lands.
        auto end_cycle = static_cast<Cycle>(end);
        if (static_cast<double>(end_cycle) < end)
            ++end_cycle;
        return end_cycle;
    }

    /** Total bytes ever transferred (the bandwidth-demand numerator). */
    std::uint64_t totalBytes() const { return total_bytes_; }

    std::uint64_t transfers() const { return transfers_; }

    /** Channel-busy cycles (for utilization). */
    double busyCycles() const { return busy_; }

    /** Mean cycles a transfer waited behind earlier traffic. */
    double meanQueueDelay() const { return queue_delay_.mean(); }

    double rate() const { return rate_; }

    /** Register stats under @p prefix. */
    void
    registerStats(StatRegistry &reg, const std::string &prefix)
    {
        reg.registerAverage(prefix + ".queue_delay", &queue_delay_);
    }

    /** Clear the plain totals (start of measurement interval); the
     *  registered queue-delay average is the registry's to reset. */
    void
    resetStats()
    {
        total_bytes_ = 0;
        transfers_ = 0;
        busy_ = 0;
    }

  private:
    double rate_;
    double next_free_ = 0.0;
    std::uint64_t total_bytes_ = 0;
    std::uint64_t transfers_ = 0;
    double busy_ = 0.0;
    Average queue_delay_;
};

} // namespace cmpsim

#endif // CMPSIM_SIM_BANDWIDTH_RESOURCE_H
