/**
 * @file
 * Event-driven off-chip link transmitter with priority classes.
 *
 * The pin interface transmits one message at a time at a fixed
 * byte/cycle rate. Demand fetches outrank prefetches, which outrank
 * writebacks — the arbitration every real memory controller applies —
 * so a 25-deep prefetch burst delays later prefetches rather than
 * stalling the demand miss behind it. Contention still degrades
 * performance once total traffic approaches the pin rate (the paper's
 * Section 5.1 effect); priorities only decide who absorbs the delay.
 *
 * In infinite-bandwidth mode (the paper's bandwidth-*demand*
 * methodology, Section 4.2) messages never queue but bytes are still
 * counted.
 */

#ifndef CMPSIM_MEM_PRIORITY_LINK_H
#define CMPSIM_MEM_PRIORITY_LINK_H

#include <array>
#include <string>

#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

/** Arbitration class of an off-chip message. */
enum class LinkClass : unsigned
{
    Demand = 0,    ///< critical-path fetches
    Prefetch = 1,  ///< speculative fetches
    Writeback = 2, ///< dirty evictions (never latency-critical)
};

inline constexpr unsigned kLinkClasses = 3;

/** One shared, priority-arbitrated off-chip channel. */
class PriorityLink
{
  public:
    /** Runs at the cycle a message's last byte lands. */
    using Deliver = EventQueue::Callback;

    /**
     * @param bytes_per_cycle pin rate (20 GB/s @ 5 GHz = 4)
     * @param infinite measure demand without queuing
     */
    PriorityLink(EventQueue &eq, double bytes_per_cycle, bool infinite);

    /**
     * Queue a message of @p bytes, ready to transmit at @p ready.
     * @p deliver runs at the cycle the last byte lands (may be empty).
     */
    void send(unsigned bytes, LinkClass cls, Cycle ready,
              Deliver deliver);

    std::uint64_t totalBytes() const { return total_bytes_.value(); }
    std::uint64_t classBytes(LinkClass c) const
    {
        return class_bytes_[static_cast<unsigned>(c)].value();
    }
    std::uint64_t transfers() const { return transfers_.value(); }

    // --- byte-conservation accounting (audit subsystem) ----------
    // Invariant: totalBytes() + pendingBytesAtReset() ==
    //            deliveredBytes() + inflightBytes() + queuedBytes().

    /** Bytes whose transfer has completed (last byte landed). */
    std::uint64_t deliveredBytes() const { return delivered_bytes_.value(); }

    /** Bytes of the transfer currently occupying the channel. */
    std::uint64_t inflightBytes() const { return inflight_bytes_; }

    /** Bytes sitting in the class queues, not yet transmitting. */
    std::uint64_t queuedBytes() const;

    /** Bytes that were in flight or queued when stats were last
     *  reset (so conservation holds across resetStats()). */
    std::uint64_t pendingBytesAtReset() const { return pending_at_reset_; }
    double meanQueueDelay() const { return queue_delay_.mean(); }
    double rate() const { return rate_; }
    bool infinite() const { return infinite_; }

    /** Messages waiting (all classes), for tests. */
    std::size_t backlog() const;

    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Re-baseline the byte-conservation accounting the stat registry
     *  does not own, after StatRegistry::resetAll() zeroed the
     *  registered stats. */
    void resetStats();

  private:
    struct Message
    {
        unsigned bytes;
        Cycle ready;
        Deliver deliver;
    };

    /** Start the next transmission if the channel is idle. */
    void pump();

    /** End-of-transfer bookkeeping + delivery of inflight_deliver_
     *  (the completion event's body). */
    void completeTransfer(Cycle done, unsigned bytes);

    /** Serialization time for @p bytes starting at @p start. */
    Cycle
    endOfTransfer(double start, unsigned bytes) const
    {
        const double end = start + static_cast<double>(bytes) / rate_;
        auto c = static_cast<Cycle>(end);
        if (static_cast<double>(c) < end)
            ++c;
        return c;
    }

    EventQueue &eq_;
    double rate_;
    bool infinite_;

    std::array<RingQueue<Message>, kLinkClasses> queues_;
    bool busy_ = false;
    /** The transmitting message's delivery. Only one message is on
     *  the channel at a time (busy_), so its completion event
     *  captures just the byte count. */
    Deliver inflight_deliver_;
    double cursor_ = 0.0; ///< fractional end of the last transmission

    Counter total_bytes_;
    std::array<Counter, kLinkClasses> class_bytes_;
    Counter transfers_;
    Counter delivered_bytes_;
    std::uint64_t inflight_bytes_ = 0;
    std::uint64_t pending_at_reset_ = 0;
    Average queue_delay_;
    /** Queue-delay distribution: 64 buckets of 10 cycles. The mean
     *  alone hides the bimodal idle-link/saturated-link split the
     *  paper's bandwidth sweep produces. */
    Histogram queue_delay_hist_{10.0, 64};
};

} // namespace cmpsim

#endif // CMPSIM_MEM_PRIORITY_LINK_H
