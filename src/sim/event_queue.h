/**
 * @file
 * Discrete-event simulation kernel: a time-ordered queue of callbacks.
 *
 * All timing components (caches, link, memory controller) schedule
 * continuations on one shared EventQueue; the Simulator interleaves
 * event execution with core-model ticks. Events at the same cycle run
 * in scheduling order (stable), which keeps runs bit-reproducible.
 * A callback receives the cycle it was scheduled for, so a component's
 * completion callback (`void(Cycle)`) is scheduled as is, without a
 * wrapper closure that only re-supplies the cycle. Callbacks are
 * InlineFunctions: scheduling copies the closure into the slab and
 * never allocates.
 *
 * Implementation notes (hot path — this queue executes every timed
 * cache/link/memory transaction in the simulator):
 *
 *  - Ordering state and payload are split. The binary min-heap and the
 *    same-cycle FIFO hold 24-byte trivially copyable keys
 *    (when, seq, slot); sift-up/sift-down copy only those. The
 *    callback sits in a slab slot that never moves while the event is
 *    pending: the slab grows in fixed-size chunks, and freed slots are
 *    recycled through a free list.
 *
 *  - A callback runs in place in its slot, which is recycled after it
 *    returns, so a callback that schedules more events (and grows the
 *    slab) never invalidates itself.
 *
 *  - Same-cycle fast path: while an event at cycle T executes,
 *    continuations it schedules back at cycle T are appended to a
 *    plain FIFO and run without touching the heap at all. This is
 *    order-exact: once now() has reached T every event already in the
 *    heap at T carries a smaller seq than any newly scheduled one, so
 *    "drain heap entries at T, then the FIFO in append order" is
 *    precisely the global (when, seq) order.
 */

#ifndef CMPSIM_SIM_EVENT_QUEUE_H
#define CMPSIM_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/log.h"
#include "src/common/types.h"
#include "src/obs/profiler.h"
#include "src/sim/inline_function.h"

namespace cmpsim {

/** Time-ordered callback queue. */
class EventQueue
{
  public:
    /**
     * Inline closure bytes of a Callback. The widest timed-path
     * closures fill it exactly: L2Cache::request's lookup event and
     * MainMemory::fetchLine's request delivery, each a `this`, three
     * scalars and a 24-byte nested completion.
     */
    static constexpr std::size_t kCallbackBytes = 56;

    /** An event body; receives the cycle it was scheduled for. */
    using Callback = InlineFunction<void(Cycle), kCallbackBytes>;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /**
     * Pre-size the pending-event storage for @p events outstanding
     * events so neither the heap nor the slab grows mid-run (the
     * caller bounds in-flight continuations, e.g. cores x ROB
     * entries).
     */
    void
    reserve(std::size_t events)
    {
        heap_.reserve(events);
        same_cycle_.reserve(events);
        free_.reserve(events);
        while (chunks_.size() * kChunkSlots < events)
            addChunk();
    }

    /**
     * Schedule @p cb to run at @p when; it is called with @p when.
     * @pre when >= now().
     */
    void
    schedule(Cycle when, Callback cb)
    {
        cmpsim_assert(when >= now_,
                      "schedule into the past: when=%llu now=%llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        const Key key{when, seq_++, acquireSlot(cb)};
        if (when == now_) {
            // Same-cycle continuation: newest seq by construction, so
            // FIFO append order is (when, seq) order.
            same_cycle_.push_back(key);
            return;
        }
        heap_.push_back(key);
        siftUp(heap_.size() - 1);
    }

    bool
    empty() const
    {
        return heap_.empty() && same_head_ == same_cycle_.size();
    }

    std::size_t
    size() const
    {
        return heap_.size() + (same_cycle_.size() - same_head_);
    }

    /** Cycle of the earliest pending event (kCycleNever if none). */
    Cycle
    nextEventCycle() const
    {
        if (same_head_ < same_cycle_.size())
            return now_;
        return heap_.empty() ? kCycleNever : heap_.front().when;
    }

    /**
     * Advance now() to @p when and run every event scheduled at or
     * before it, in time order. @pre when >= now().
     */
    void
    advanceTo(Cycle when)
    {
        cmpsim_assert(when >= now_,
                      "advanceTo into the past: when=%llu now=%llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        runDue(when);
        now_ = when;
    }

    /**
     * Run events until the queue drains or @p limit cycles elapse.
     * Used by unit tests and by components driven without cores.
     * @return number of events executed.
     */
    std::uint64_t
    drain(Cycle limit = kCycleNever)
    {
        return runDue(limit);
    }

  private:
    /**
     * Heap/FIFO entry: the event's exact (when, seq) identity plus its
     * payload's slab slot. seq is the scheduling order, so (when, seq)
     * is a total order and same-cycle events run in schedule order.
     */
    struct Key
    {
        Cycle when = 0;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;

        bool
        before(const Key &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);
    static_assert(sizeof(Callback) == 64 &&
                  std::is_trivially_copyable_v<Callback>);

    static constexpr unsigned kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    Callback &
    pending(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
    }

    void
    addChunk()
    {
        const auto base =
            static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
        chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
        // Pushed high to low so the lowest index is handed out first.
        for (std::uint32_t i = kChunkSlots; i-- > 0;)
            free_.push_back(base + i);
    }

    std::uint32_t
    acquireSlot(const Callback &cb)
    {
        if (free_.empty())
            addChunk();
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        pending(slot) = cb;
        return slot;
    }

    /** Run @p k's callback in its slot, then recycle the slot. */
    void
    fire(const Key &k)
    {
        pending(k.slot)(k.when);
        free_.push_back(k.slot);
    }

    Key
    popFifo()
    {
        const Key k = same_cycle_[same_head_++];
        if (same_head_ == same_cycle_.size()) {
            same_cycle_.clear();
            same_head_ = 0;
        }
        return k;
    }

    /**
     * Run every due event: heap entries with when <= @p limit plus
     * all same-cycle continuations they spawn. On return the FIFO is
     * empty and the heap's earliest entry (if any) is past limit.
     */
    std::uint64_t
    runDue(Cycle limit)
    {
        // One site for the whole pop+dispatch drain: cheap enough to
        // stay on permanently (a relaxed load when profiling is off),
        // and the run report's eq.dispatch line attributes kernel cost
        // separately from component cost (e.g. l2.lookup).
        CMPSIM_PROF_SCOPE("eq.dispatch");
        std::uint64_t executed = 0;
        // Events at the current cycle (heap leftovers and the FIFO)
        // are due only if now_ itself is within the limit — drain()
        // may be called with a limit in the past and must be a no-op
        // then, exactly like the when <= limit heap condition.
        while (true) {
            const bool now_due = now_ <= limit;
            if (now_due && !heap_.empty() && heap_.front().when <= now_) {
                // Pending heap entry at the current cycle: scheduled
                // before now() reached it, so older than anything in
                // the FIFO — must run first.
                fire(popHeap());
            } else if (now_due && same_head_ < same_cycle_.size()) {
                fire(popFifo());
            } else if (!heap_.empty() && heap_.front().when <= limit) {
                const Key k = popHeap();
                now_ = k.when;
                fire(k);
            } else {
                break;
            }
            ++executed;
        }
        return executed;
    }

    /** Remove the root and restore the heap property. */
    Key
    popHeap()
    {
        const Key top = heap_.front();
        const Key last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0, last);
        return top;
    }

    void
    siftUp(std::size_t i)
    {
        const Key k = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!k.before(heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = k;
    }

    /** Place @p k in the hole at @p i, moving smaller children up. */
    void
    siftDown(std::size_t i, const Key k)
    {
        const std::size_t n = heap_.size();
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap_[child + 1].before(heap_[child]))
                ++child;
            if (!heap_[child].before(k))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = k;
    }

    std::vector<Key> heap_;       ///< binary min-heap by (when, seq)
    std::vector<Key> same_cycle_; ///< FIFO of events at now()
    std::size_t same_head_ = 0;   ///< first unconsumed FIFO slot
    std::vector<std::unique_ptr<Callback[]>> chunks_; ///< payload slab
    std::vector<std::uint32_t> free_; ///< recycled slab slots
    Cycle now_ = 0;
    std::uint64_t seq_ = 0; ///< next sequence number to hand out
};

} // namespace cmpsim

#endif // CMPSIM_SIM_EVENT_QUEUE_H
