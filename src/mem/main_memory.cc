#include "src/mem/main_memory.h"

#include "src/obs/cpi_stack.h"

namespace cmpsim {

MainMemory::MainMemory(EventQueue &eq, ValueStore &values,
                       const MemoryParams &params)
    : values_(values), params_(params),
      link_(eq, params.link_bytes_per_cycle, params.infinite_bandwidth)
{
}

unsigned
MainMemory::dataSegments(Addr line_addr)
{
    return params_.link_compression ? values_.segments(line_addr)
                                    : kSegmentsPerLine;
}

void
MainMemory::fetchLine(Addr line_addr, Cycle when, bool prefetch,
                      FetchCallback done)
{
    ++reads_;
    ++header_flits_;
    const LinkClass cls =
        prefetch ? LinkClass::Prefetch : LinkClass::Demand;

    // Request message toward memory, then DRAM, then the data message
    // back (fetchStage2 -> fetchDeliver). The data message enters the
    // link queue only when DRAM has produced it.
    link_.send(kMessageHeaderBytes, cls, when,
               [this, line_addr, when, cls, done](Cycle req_arrives) {
                   fetchStage2(line_addr, when, cls, done, req_arrives);
               });
}

void
MainMemory::fetchStage2(Addr line_addr, Cycle when, LinkClass cls,
                        FetchCallback done, Cycle req_arrives)
{
    const unsigned segments = dataSegments(line_addr);
    const Cycle dram_done = req_arrives + params_.dram_latency;
    if (journal_ != nullptr) {
        journal_->onMemRead(line_addr, when, req_arrives, dram_done,
                            segments);
    }
    ++header_flits_;
    data_flits_ += segments;
    const unsigned bytes = kMessageHeaderBytes + segments * kSegmentBytes;
    link_.send(bytes, cls, dram_done, [this, when, done](Cycle at) {
        fetchDeliver(when, done, at);
    });
}

void
MainMemory::fetchDeliver(Cycle when, const FetchCallback &done, Cycle at)
{
    read_latency_.sample(static_cast<double>(at - when));
    read_latency_hist_.sample(static_cast<double>(at - when));
    done(at);
}

void
MainMemory::writebackLine(Addr line_addr, Cycle when)
{
    ++writebacks_;
    ++header_flits_;
    const unsigned segments = dataSegments(line_addr);
    data_flits_ += segments;
    const unsigned bytes =
        kMessageHeaderBytes + segments * kSegmentBytes;
    // Writebacks vanish once across the link.
    link_.send(bytes, LinkClass::Writeback, when, nullptr);
}

void
MainMemory::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.registerCounter(prefix + ".reads", &reads_);
    reg.registerCounter(prefix + ".writebacks", &writebacks_);
    reg.registerCounter(prefix + ".data_flits", &data_flits_);
    reg.registerCounter(prefix + ".header_flits", &header_flits_);
    reg.registerAverage(prefix + ".read_latency", &read_latency_);
    reg.registerHistogram(prefix + ".read_latency_hist",
                          &read_latency_hist_);
    link_.registerStats(reg, prefix + ".link");
}

void
MainMemory::resetStats()
{
    link_.resetStats();
}

} // namespace cmpsim
