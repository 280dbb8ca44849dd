#include "src/mem/main_memory.h"

#include "src/dram/dram_backend.h"
#include "src/obs/cpi_stack.h"

namespace cmpsim {

MainMemory::MainMemory(EventQueue &eq, ValueStore &values,
                       const MemoryParams &params)
    : eq_(eq), values_(values), params_(params),
      link_(eq, params.link_bytes_per_cycle, params.infinite_bandwidth)
{
    if (params_.dram.backend == DramBackendKind::Banked)
        dram_ = std::make_unique<DramBackend>(eq, params_.dram);
}

MainMemory::~MainMemory() = default;

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
    // back (fetchStage2 -> fetchSendData -> fetchDeliver). The data
    // message enters the link queue only when DRAM has produced it.
    // Lines are stored in memory in the form the chip sent them (ECC
    // meta-bit trick), so the banked backend's burst count follows the
    // stored segment count.
    link_.send(kMessageHeaderBytes, cls, when,
               [this, line_addr, when, cls,
                done = std::move(done)](Cycle req_arrives) mutable {
                   fetchStage2(line_addr, when, cls, std::move(done),
                               req_arrives);
               });
}

void
MainMemory::fetchStage2(Addr line_addr, Cycle when, LinkClass cls,
                        FetchCallback done, Cycle req_arrives)
{
    const unsigned segments = dataSegments(line_addr);
    if (journal_ != nullptr)
        journal_->onMemRequestSent(line_addr, when, req_arrives, segments);
    auto send_data = [this, when, cls, segments,
                      done = std::move(done)](Cycle dram_done) mutable {
        fetchSendData(when, cls, segments, std::move(done), dram_done);
    };
    if (dram_) {
        dram_->read(line_addr, segments, cls == LinkClass::Prefetch,
                    req_arrives, std::move(send_data));
    } else {
        if (journal_ != nullptr) {
            journal_->onDramFixed(line_addr, req_arrives,
                                  req_arrives + params_.dram_latency);
        }
        send_data(req_arrives + params_.dram_latency);
    }
}

void
MainMemory::fetchSendData(Cycle when, LinkClass cls, unsigned segments,
                          FetchCallback done, Cycle dram_done)
{
    ++header_flits_;
    data_flits_ += segments;
    const unsigned bytes = kMessageHeaderBytes + segments * kSegmentBytes;
    link_.send(bytes, cls, dram_done,
               [this, when, done = std::move(done)](Cycle at) {
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
    // Fixed backend: writebacks vanish once across the link. Banked:
    // they enter the controller's write queue on arrival and occupy
    // bank/bus time when drained.
    PriorityLink::Deliver deliver = nullptr;
    if (dram_) {
        deliver = [this, line_addr, segments](Cycle at) {
            dram_->write(line_addr, segments, at);
        };
    }
    link_.send(bytes, LinkClass::Writeback, when, std::move(deliver));
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
    if (dram_)
        dram_->registerStats(reg, prefix + ".dram");
}

void
MainMemory::registerAudits(InvariantRegistry &reg,
                           const std::string &name)
{
    if (dram_)
        dram_->registerAudits(reg, name + ".dram");
}

void
MainMemory::resetStats()
{
    reads_.reset();
    writebacks_.reset();
    data_flits_.reset();
    header_flits_.reset();
    read_latency_.reset();
    read_latency_hist_.reset();
    link_.resetStats();
    if (dram_)
        dram_->resetStats();
}

} // namespace cmpsim
