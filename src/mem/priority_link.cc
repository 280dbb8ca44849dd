#include "src/mem/priority_link.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

PriorityLink::PriorityLink(EventQueue &eq, double bytes_per_cycle,
                           bool infinite)
    : eq_(eq), rate_(bytes_per_cycle), infinite_(infinite)
{
    cmpsim_assert(bytes_per_cycle > 0);
}

void
PriorityLink::send(unsigned bytes, LinkClass cls, Cycle ready,
                   Deliver deliver)
{
    faultSite("link.transfer");
    // Stamp with the current cycle, not `ready` (which may lie in the
    // future), so the track's timestamps stay monotone.
    traceInstant("link.transfer", eq_.now(),
                 {{"bytes", std::uint64_t{bytes}},
                  {"class", cls == LinkClass::Demand     ? "demand"
                            : cls == LinkClass::Prefetch ? "prefetch"
                                                         : "writeback"}});
    total_bytes_ += bytes;
    class_bytes_[static_cast<unsigned>(cls)] += bytes;
    ++transfers_;

    if (infinite_) {
        // No queuing: only the serialization time applies. Bytes count
        // as delivered immediately — nothing ever occupies the channel.
        delivered_bytes_ += bytes;
        const Cycle done =
            endOfTransfer(static_cast<double>(ready), bytes);
        queue_delay_.sample(0.0);
        queue_delay_hist_.sample(0.0);
        if (deliver)
            eq_.schedule(done, std::move(deliver));
        return;
    }

    queues_[static_cast<unsigned>(cls)].push_back(
        Message{bytes, ready, std::move(deliver)});
    if (!busy_) {
        // Kick the pump at the message's ready time (or now).
        const Cycle at = std::max(ready, eq_.now());
        eq_.schedule(at, [this](Cycle) { pump(); });
    }
}

std::size_t
PriorityLink::backlog() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

std::uint64_t
PriorityLink::queuedBytes() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        for (const Message &m : q)
            n += m.bytes;
    return n;
}

void
PriorityLink::pump()
{
    if (busy_)
        return;

    const Cycle now = eq_.now();

    // Highest-priority message that is ready (FIFO within a class,
    // but a ready message may overtake a not-yet-ready one). A full
    // write buffer gets promoted: real controllers must drain
    // writebacks before the buffer backs up into the cache.
    constexpr std::size_t kWbHighWater = 16;
    std::deque<Message> *queue = nullptr;
    std::size_t index = 0;
    Cycle earliest_future = kCycleNever;

    auto scan = [&](std::deque<Message> &q) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            if (q[i].ready <= now) {
                queue = &q;
                index = i;
                return true;
            }
            earliest_future = std::min(earliest_future, q[i].ready);
        }
        return false;
    };

    auto &wb_queue =
        queues_[static_cast<unsigned>(LinkClass::Writeback)];
    if (wb_queue.size() > kWbHighWater)
        scan(wb_queue);
    for (auto &q : queues_) {
        if (queue)
            break;
        scan(q);
    }

    if (queue == nullptr) {
        if (earliest_future != kCycleNever)
            eq_.schedule(earliest_future, [this](Cycle) { pump(); });
        return;
    }

    Message msg = std::move((*queue)[index]);
    queue->erase(queue->begin() + static_cast<std::ptrdiff_t>(index));

    queue_delay_.sample(static_cast<double>(now - msg.ready));
    queue_delay_hist_.sample(static_cast<double>(now - msg.ready));

    const double start =
        std::max(cursor_, static_cast<double>(now));
    const Cycle done = endOfTransfer(start, msg.bytes);
    cursor_ = start + static_cast<double>(msg.bytes) / rate_;

    busy_ = true;
    inflight_bytes_ = msg.bytes;
    eq_.schedule(done, [this, deliver = std::move(msg.deliver),
                        bytes = msg.bytes](Cycle at) mutable {
        completeTransfer(std::move(deliver), at, bytes);
    });
}

void
PriorityLink::completeTransfer(Deliver deliver, Cycle done,
                               unsigned bytes)
{
    busy_ = false;
    inflight_bytes_ = 0;
    delivered_bytes_ += bytes;
    if (deliver)
        deliver(done);
    pump();
}

void
PriorityLink::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.registerCounter(prefix + ".bytes", &total_bytes_);
    reg.registerCounter(prefix + ".demand_bytes",
                        &class_bytes_[0]);
    reg.registerCounter(prefix + ".prefetch_bytes",
                        &class_bytes_[1]);
    reg.registerCounter(prefix + ".writeback_bytes",
                        &class_bytes_[2]);
    reg.registerCounter(prefix + ".transfers", &transfers_);
    reg.registerAverage(prefix + ".queue_delay", &queue_delay_);
    reg.registerHistogram(prefix + ".queue_delay_hist",
                          &queue_delay_hist_);
}

void
PriorityLink::resetStats()
{
    total_bytes_.reset();
    for (auto &c : class_bytes_)
        c.reset();
    transfers_.reset();
    queue_delay_.reset();
    queue_delay_hist_.reset();
    delivered_bytes_.reset();
    // Messages still queued or on the channel were requested before the
    // reset; remember them so byte conservation holds afterwards.
    pending_at_reset_ = inflight_bytes_ + queuedBytes();
}

} // namespace cmpsim
