/**
 * @file
 * Approximate out-of-order core timing model.
 *
 * The model preserves the degrees of freedom the paper's results
 * depend on — 4-wide dispatch/retire, a 128-entry ROB that bounds how
 * much memory latency can be hidden, up to 16 outstanding misses per
 * core (enforced by the L1D MSHRs), branch-redirect stalls, and
 * I-fetch stalls on L1I misses — without simulating register renaming
 * or a scheduler. ALU operations complete a cycle after dispatch;
 * loads complete when the memory system responds; stores retire from a
 * store buffer (their MSHR occupancy still throttles the core);
 * instructions retire in order.
 *
 * The core is polled by the Simulator: tick(now) advances one cycle
 * and returns the next cycle the core can make progress; memory
 * completion callbacks lower nextWake() so a blocked core resumes as
 * soon as data returns.
 */

#ifndef CMPSIM_CORE_CORE_MODEL_H
#define CMPSIM_CORE_CORE_MODEL_H

#include <deque>
#include <string>
#include <vector>

#include "src/cache/l1_cache.h"
#include "src/common/stats.h"
#include "src/core/instruction.h"
#include "src/mem/value_store.h"

namespace cmpsim {

class CpiAccount;

/** Static core configuration (Table 1). */
struct CoreParams
{
    unsigned dispatch_width = 4;
    unsigned retire_width = 4;
    unsigned rob_entries = 128;

    /** Pipeline refill after a mispredicted branch resolves. */
    Cycle branch_redirect_penalty = 11;

    Cycle alu_latency = 1;
};

/** One single-threaded core. */
class CoreModel
{
  public:
    CoreModel(EventQueue &eq, L1Cache &icache, L1Cache &dcache,
              ValueStore &values, InstructionStream &stream,
              unsigned cpu, const CoreParams &params);

    /**
     * Run one cycle at @p now (retire, then dispatch).
     * @return the next cycle this core can do useful work;
     *         kCycleNever when it is blocked purely on memory
     *         responses (whose callbacks will lower nextWake()).
     */
    Cycle tick(Cycle now);

    /** Earliest cycle the core wants to run (updated by callbacks). */
    Cycle nextWake() const { return next_wake_; }

    std::uint64_t instructionsRetired() const { return retired_.value(); }

    /**
     * Run @p count instructions functionally (cache state only, no
     * timing) for warmup.
     */
    void runFunctional(std::uint64_t count);

    /**
     * Pure fast-forward: advance @p count instructions of the stream
     * — identical RNG draws, value-store first touches and store
     * writes as runFunctional(), so a later functional or detailed
     * phase continues the exact same workload — but with no cache or
     * prefetcher state updates. The cheap half of a SMARTS-style
     * skip+warm fast-forward (DESIGN.md §14).
     */
    void runSkip(std::uint64_t count);

    /**
     * Adopt the outcome of a pure-skip phase a lockstep twin executed
     * on this core's behalf (shared-prefix fast-forward, DESIGN.md
     * §14): copy the fetch cursor and the stream-content counters
     * runSkip() would have advanced, resynchronizing this core to the
     * leader's instruction index. The caller separately copies the
     * workload generator state and replays the twin's value-store
     * journal; @p count is the per-core skip length just executed and
     * @p slack the per-core drift a timed detail window can introduce
     * (its total budget) — the twins' retirement gap is asserted to be
     * count within +/- slack.
     */
    void adoptSkip(const CoreModel &leader, std::uint64_t count,
                   std::uint64_t slack);

    unsigned cpu() const { return cpu_; }

    /** Attach the (opt-in) CPI-stack account this core reports its
     *  per-tick blocking cause to; nullptr (the default) disarms the
     *  probes entirely. */
    void setCpi(CpiAccount *cpi) { cpi_ = cpi; }

    void registerStats(StatRegistry &reg, const std::string &prefix);
    void resetStats();

  private:
    struct RobEntry
    {
        InstrType type = InstrType::Alu;
        Cycle done_at = kCycleNever;
        std::uint64_t id = ~0ULL; ///< guards stale memory callbacks
        bool completed(Cycle now) const { return done_at <= now; }
    };

    /** Dispatch one instruction at @p now; false when stalled. */
    bool dispatchOne(Cycle now);

    /** Handle the instruction-fetch side of dispatching @p pc. */
    bool fetchAvailable(Addr pc, Cycle now);

    void
    wake(Cycle c)
    {
        if (c < next_wake_)
            next_wake_ = c;
    }

    EventQueue &eq_;
    L1Cache &icache_;
    L1Cache &dcache_;
    ValueStore &values_;
    InstructionStream &stream_;
    unsigned cpu_;
    CoreParams params_;

    std::vector<RobEntry> rob_; // ring buffer
    unsigned rob_head_ = 0;
    unsigned rob_tail_ = 0;
    unsigned rob_count_ = 0;
    std::uint64_t next_rob_id_ = 0;

    bool have_pending_ = false;   ///< instruction stalled at dispatch
    Instruction pending_{};

    /** Pointer-chase serialization: accesses waiting on the previous
     *  chained load, issued one per completion. */
    struct ChainedAccess
    {
        Addr addr;
        bool is_write;
        unsigned slot;
        std::uint64_t id;
    };
    std::deque<ChainedAccess> chain_queue_;
    bool chain_outstanding_ = false;

    /** Issue the next queued chained access, if any. */
    void issueChainHead(Cycle now);

    /** Completion handling shared by chained and plain loads. */
    void finishLoad(unsigned slot, std::uint64_t id, Cycle c,
                    bool chained);

    Addr last_fetch_line_ = kAddrInvalid;
    Cycle fetch_stall_until_ = 0;
    Cycle next_wake_ = 0;

    /** Why fetch last stalled — the CPI stack's tie-break between an
     *  I-miss and a branch redirect (last writer wins; untouched when
     *  no CpiAccount is attached means it is never read). */
    enum class FetchStallKind : std::uint8_t { IMiss, Branch };
    FetchStallKind fetch_kind_ = FetchStallKind::IMiss;
    bool mshr_stall_ = false; ///< dispatch hit a full MSHR this tick
    CpiAccount *cpi_ = nullptr;

    Counter retired_;
    Counter loads_;
    Counter chained_loads_;
    Counter stores_;
    Counter branches_;
    Counter mispredicts_;
    Counter ifetch_lines_;
    Counter dispatch_stalls_mshr_;
    Counter cycles_;
};

} // namespace cmpsim

#endif // CMPSIM_CORE_CORE_MODEL_H
