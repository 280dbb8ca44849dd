/**
 * @file
 * Off-chip memory subsystem: the priority-arbitrated pin link, the
 * memory controller and the DRAM array, matching the paper's memory
 * interface (Section 2): 400-cycle DRAM access, 20 GB/s chip-to-memory
 * bandwidth, variable-length compressed message formats when link
 * compression is enabled, and lines stored in memory in the form the
 * chip sent them (the ECC meta-bit trick), which our value-store model
 * gives us for free because both sides use the same compressor.
 *
 * Message framing: every message carries one 8-byte header flit; data
 * messages add one 8-byte flit per stored segment (1-8 compressed,
 * 8 uncompressed).
 */

#ifndef CMPSIM_MEM_MAIN_MEMORY_H
#define CMPSIM_MEM_MAIN_MEMORY_H

#include <functional>
#include <memory>
#include <string>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/dram/dram_params.h"
#include "src/mem/priority_link.h"
#include "src/mem/value_store.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

class DramBackend;
class InvariantRegistry;
class MissJournal;

/** Configuration of the off-chip memory path. */
struct MemoryParams
{
    /** DRAM access latency in cycles (row + column + controller). */
    Cycle dram_latency = 400;

    /** Pin bandwidth in bytes per core cycle (20 GB/s @ 5 GHz = 4). */
    double link_bytes_per_cycle = 4.0;

    /** Measure demand: remove queuing from the link. */
    bool infinite_bandwidth = false;

    /** Compress data payloads on the link (paper's link compression). */
    bool link_compression = false;

    /** Memory backend behind the link: the paper-validated fixed
     *  dram_latency (default) or the banked timing model. */
    DramTimingParams dram;
};

/** DRAM + controller + pin link. */
class MainMemory
{
  public:
    using FetchCallback = std::function<void(Cycle)>;

    MainMemory(EventQueue &eq, ValueStore &values,
               const MemoryParams &params);
    ~MainMemory();

    /**
     * Fetch the line at @p line_addr; @p done runs at the cycle the
     * full data message has crossed the link onto the chip.
     *
     * @param when cycle the request message is ready to leave the chip
     * @param prefetch arbitrate below demand fetches and writebacks
     */
    void fetchLine(Addr line_addr, Cycle when, bool prefetch,
                   FetchCallback done);

    /** Write the line at @p line_addr back to memory (no response). */
    void writebackLine(Addr line_addr, Cycle when);

    /** Pin-interface accounting. */
    const PriorityLink &link() const { return link_; }
    PriorityLink &link() { return link_; }

    /** Banked DRAM backend, or nullptr on the fixed-latency path. */
    DramBackend *dram() { return dram_.get(); }
    const DramBackend *dram() const { return dram_.get(); }

    /** Wire the (opt-in) miss-genealogy journal; nullptr disarms. */
    void setJournal(MissJournal *j) { journal_ = j; }

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::uint64_t dataFlits() const { return data_flits_.value(); }
    std::uint64_t headerFlits() const { return header_flits_.value(); }

    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Register backend audits (no-op on the fixed path, which has no
     *  outstanding-request state to conserve). */
    void registerAudits(InvariantRegistry &reg, const std::string &name);

    void resetStats();

    const MemoryParams &params() const { return params_; }

  private:
    /** Payload segments for a data message for @p line_addr. */
    unsigned dataSegments(Addr line_addr);

    /** Request message arrived at the controller: start DRAM (or the
     *  fixed latency) and arrange the data message back. */
    void fetchStage2(Addr line_addr, Cycle when, LinkClass cls,
                     FetchCallback done, Cycle req_arrives);

    /** DRAM produced the data: queue the data message onto the link. */
    void fetchSendData(Cycle when, LinkClass cls, unsigned segments,
                       FetchCallback done, Cycle dram_done);

    /** Data message landed on-chip: sample latency, complete. */
    void fetchDeliver(Cycle when, const FetchCallback &done, Cycle at);

    EventQueue &eq_;
    ValueStore &values_;
    MemoryParams params_;
    PriorityLink link_;
    std::unique_ptr<DramBackend> dram_; ///< null when backend == Fixed
    MissJournal *journal_ = nullptr;

    Counter reads_;
    Counter writebacks_;
    Counter data_flits_;
    Counter header_flits_;
    Average read_latency_;
    /** Read-latency distribution: 64 buckets of 50 cycles covers the
     *  400-cycle DRAM floor through heavy link queuing. */
    Histogram read_latency_hist_{50.0, 64};
};

} // namespace cmpsim

#endif // CMPSIM_MEM_MAIN_MEMORY_H
