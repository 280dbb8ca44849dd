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
 *  - Timing wheel. kWheelSlots buckets cover the cycles
 *    [now, now + kWheelSlots); cycle T lives in bucket
 *    T mod kWheelSlots. A bucket is a FIFO list of slab slots threaded
 *    through next_, so scheduling appends and dispatch pops in O(1). A
 *    two-level occupancy bitmap (a bit per bucket, a summary bit per
 *    64 buckets) finds the next busy bucket with three countr_zero
 *    calls at most.
 *
 *  - Overflow. An event kWheelSlots or more cycles ahead waits in a
 *    min-heap of (when, seq, slot) keys. Whenever now() advances, the
 *    overflow events the new window covers move to their buckets
 *    before any callback or core tick runs at the new cycle.
 *    kWheelSlots exceeds the longest delay a valid configuration
 *    schedules (DESIGN §7), so the heap stays empty on those paths.
 *
 *  - Order. Events run in global (when, seq) order, seq being the
 *    scheduling order. Buckets are visited in cycle order, so it is
 *    enough that each bucket's list is in seq order:
 *      * a direct append to bucket T needs T - now < kWheelSlots, and
 *        direct appends are made in seq order;
 *      * an event that went to the heap for T was scheduled while
 *        T - now >= kWheelSlots, so before any direct append to T was
 *        possible (now never decreases), and it migrates on the first
 *        advance of now past T - kWheelSlots, before anything can run
 *        or schedule at the new cycle, so it is appended ahead of
 *        every direct append;
 *      * the heap yields events in (when, seq) order, so events that
 *        migrate into one bucket keep their seq order.
 *    A continuation scheduled back at the executing cycle appends to
 *    the bucket being drained and runs after its older peers.
 *
 *  - Payload. The 64-byte callback sits in a slab slot that never
 *    moves while the event is pending: the slab grows in fixed-size
 *    chunks, and freed slots are recycled through a free list. A
 *    callback runs in place in its slot, which is recycled after it
 *    returns, so a callback that schedules more events (and grows the
 *    slab) never invalidates itself.
 */

#ifndef CMPSIM_SIM_EVENT_QUEUE_H
#define CMPSIM_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
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

    /**
     * Cycles the timing wheel covers. An event this many cycles ahead
     * or more waits in the overflow heap until now() comes within
     * range. Sized from the measured scheduling delays (DESIGN §7).
     */
    static constexpr std::size_t kWheelSlots = 4096;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /**
     * Pre-size the pending-event storage for @p events outstanding
     * events so the slab does not grow mid-run (the caller bounds
     * in-flight continuations, e.g. cores x ROB entries).
     */
    void
    reserve(std::size_t events)
    {
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
        const std::uint32_t slot = acquireSlot(cb);
        if (when - now_ < kWheelSlots) {
            append(slot, when);
        } else {
            overflow_.push_back(Key{when, seq_++, slot});
            std::push_heap(overflow_.begin(), overflow_.end(), later);
        }
    }

    bool empty() const { return size() == 0; }

    std::size_t size() const { return wheel_size_ + overflow_.size(); }

    /** Cycle of the earliest pending event (kCycleNever if none). */
    Cycle
    nextEventCycle() const
    {
        if (busy_words_ != 0)
            return now_ + nextBusyDistance();
        return overflow_.empty() ? kCycleNever : overflow_.front().when;
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
        moveNow(when);
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

    /**
     * Structural self-check behind the `eq.wheel` audit: the bucket
     * lists and the overflow heap hold size() events and, with the
     * free list, every slab slot; a bucket's occupancy bit (and its
     * word's summary bit) is set exactly when its list is non-empty;
     * each wheel event lies in [now, now + kWheelSlots) in its own
     * bucket, and each overflow event at or past now + kWheelSlots.
     * Call it between events, not from inside a callback.
     * @return true when all hold; otherwise @p why names the breach.
     */
    bool
    auditWheel(std::string &why) const
    {
        const auto num = [](std::uint64_t v) { return std::to_string(v); };
        std::size_t listed = 0;
        for (std::size_t b = 0; b < kWheelSlots; ++b) {
            const Bucket &bucket = buckets_[b];
            if (isBusy(b) != (bucket.head != kNil)) {
                why = "bucket " + num(b) + (isBusy(b)
                          ? " is marked busy but its list is empty"
                          : " holds events but is marked idle");
                return false;
            }
            std::uint32_t last = kNil;
            for (std::uint32_t s = bucket.head; s != kNil; s = next_[s]) {
                // The count bound also stops a list that loops.
                if (++listed > wheel_size_) {
                    why = "bucket lists hold more than the " +
                          num(wheel_size_) + " wheel events counted";
                    return false;
                }
                if (when_[s] < now_ || when_[s] - now_ >= kWheelSlots ||
                    (when_[s] & kWheelMask) != b) {
                    why = "slot " + num(s) + " for cycle " +
                          num(when_[s]) + " sits in bucket " + num(b) +
                          " at now " + num(now_);
                    return false;
                }
                last = s;
            }
            if (last != kNil && bucket.tail != last) {
                why = "bucket " + num(b) + " tail is slot " +
                      num(bucket.tail) + ", its list ends at slot " +
                      num(last);
                return false;
            }
        }
        for (std::size_t w = 0; w < kWords; ++w) {
            if (((busy_words_ >> w) & 1) != (occupied_[w] != 0)) {
                why = "summary bit " + num(w) + " disagrees with its " +
                      "occupancy word " + num(occupied_[w]);
                return false;
            }
        }
        for (const Key &k : overflow_) {
            if (k.when < now_ || k.when - now_ < kWheelSlots) {
                why = "overflow event for cycle " + num(k.when) +
                      " lies inside the wheel at now " + num(now_);
                return false;
            }
        }
        const std::size_t slots = chunks_.size() * kChunkSlots;
        if (listed != wheel_size_ || size() + free_.size() != slots) {
            why = "bucket lists hold " + num(listed) + " + overflow " +
                  num(overflow_.size()) + " events, size() is " +
                  num(size()) + ", free slots " + num(free_.size()) +
                  " of " + num(slots);
            return false;
        }
        return true;
    }

  private:
    /**
     * Overflow entry: the event's exact (when, seq) identity plus its
     * payload's slab slot. seq counts overflow schedules, so it orders
     * overflow events of one cycle by scheduling order.
     */
    struct Key
    {
        Cycle when = 0;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);
    static_assert(sizeof(Callback) == 64 &&
                  std::is_trivially_copyable_v<Callback>);

    /** Heap order: true when @p a runs after @p b (a min-heap). */
    static bool
    later(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One cycle's FIFO: first and last slot, kNil when empty. */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    static constexpr Cycle kWheelMask = kWheelSlots - 1;
    static constexpr std::size_t kWords = kWheelSlots / 64;
    static_assert(std::has_single_bit(kWheelSlots) && kWords >= 1 &&
                  kWords <= 64, "one summary word covers the bitmap");

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
        next_.resize(base + kChunkSlots);
        when_.resize(base + kChunkSlots);
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

    bool
    isBusy(std::size_t b) const
    {
        return (occupied_[b >> 6] >> (b & 63)) & 1;
    }

    /** Append @p slot, due at @p when, to its bucket's FIFO.
     *  @pre when - now() < kWheelSlots. */
    void
    append(std::uint32_t slot, Cycle when)
    {
        const std::size_t b = when & kWheelMask;
        when_[slot] = when;
        next_[slot] = kNil;
        Bucket &bucket = buckets_[b];
        if (bucket.head == kNil) {
            bucket.head = slot;
            occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
            busy_words_ |= std::uint64_t{1} << (b >> 6);
        } else {
            next_[bucket.tail] = slot;
        }
        bucket.tail = slot;
        ++wheel_size_;
    }

    /** Unlink the oldest event of busy bucket @p b; @return its slot. */
    std::uint32_t
    popFront(std::size_t b)
    {
        Bucket &bucket = buckets_[b];
        const std::uint32_t slot = bucket.head;
        bucket.head = next_[slot];
        if (bucket.head == kNil) {
            std::uint64_t &word = occupied_[b >> 6];
            word &= ~(std::uint64_t{1} << (b & 63));
            if (word == 0)
                busy_words_ &= ~(std::uint64_t{1} << (b >> 6));
        }
        --wheel_size_;
        return slot;
    }

    /** Cycles from now() to the first busy bucket at or after it,
     *  wrapping around the wheel. @pre some bucket is busy. */
    std::size_t
    nextBusyDistance() const
    {
        const std::size_t pos = now_ & kWheelMask;
        const std::size_t w = pos >> 6;
        const std::uint64_t here = occupied_[w] >> (pos & 63);
        if (here != 0)
            return static_cast<std::size_t>(std::countr_zero(here));
        // Busy words after w; failing those, the wrap to words 0..w.
        const std::uint64_t after =
            busy_words_ & ~((std::uint64_t{2} << w) - 1);
        const auto w2 = static_cast<std::size_t>(
            std::countr_zero(after != 0 ? after : busy_words_));
        const std::size_t b =
            w2 * 64 +
            static_cast<std::size_t>(std::countr_zero(occupied_[w2]));
        return (b - pos) & kWheelMask;
    }

    /** Set now() to @p when and move the overflow events the new
     *  window covers into their buckets, in (when, seq) order.
     *  @pre nothing is pending before @p when. */
    void
    moveNow(Cycle when)
    {
        now_ = when;
        while (!overflow_.empty() &&
               overflow_.front().when - when < kWheelSlots) {
            std::pop_heap(overflow_.begin(), overflow_.end(), later);
            const Key k = overflow_.back();
            overflow_.pop_back();
            append(k.slot, k.when);
        }
    }

    /**
     * Run every event due at or before @p limit, bucket by bucket,
     * including the continuations they schedule inside the limit. On
     * return nothing pending is due.
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
        // drain() may be called with a limit in the past and must be a
        // no-op then, events at now() included.
        if (now_ > limit)
            return 0;
        while (true) {
            const std::size_t b = now_ & kWheelMask;
            while (buckets_[b].head != kNil) {
                const std::uint32_t slot = popFront(b);
                pending(slot)(now_);
                free_.push_back(slot);
                ++executed;
            }
            if (empty())
                break;
            const Cycle next = nextEventCycle();
            if (next > limit)
                break;
            moveNow(next);
        }
        return executed;
    }

    std::vector<Bucket> buckets_ = std::vector<Bucket>(kWheelSlots);
    std::array<std::uint64_t, kWords> occupied_{}; ///< bit per bucket
    std::uint64_t busy_words_ = 0; ///< bit per non-zero occupied_ word
    std::size_t wheel_size_ = 0;   ///< events in bucket lists
    std::vector<Key> overflow_;    ///< min-heap by (when, seq)
    std::uint64_t seq_ = 0;        ///< next overflow sequence number
    std::vector<std::unique_ptr<Callback[]>> chunks_; ///< payload slab
    std::vector<std::uint32_t> next_; ///< per slot: next in its bucket
    std::vector<Cycle> when_;         ///< per slot: its wheel cycle
    std::vector<std::uint32_t> free_; ///< recycled slab slots
    Cycle now_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_SIM_EVENT_QUEUE_H
