#include "src/core/core_model.h"

#include <algorithm>

#include "src/obs/cpi_stack.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

CoreModel::CoreModel(EventQueue &eq, L1Cache &icache, L1Cache &dcache,
                     ValueStore &values, InstructionStream &stream,
                     unsigned cpu, const CoreParams &params)
    : eq_(eq), icache_(icache), dcache_(dcache), values_(values),
      stream_(stream), cpu_(cpu), params_(params),
      rob_(params.rob_entries)
{
    cmpsim_assert(params.rob_entries > 0);
    cmpsim_assert(params.dispatch_width > 0 && params.retire_width > 0);
}

bool
CoreModel::fetchAvailable(Addr pc, Cycle now)
{
    const Addr line = lineAddr(pc);
    if (line == last_fetch_line_)
        return true;

    if (icache_.probeHit(line)) {
        // Pipelined I-hit: no stall, but the access still updates LRU,
        // prefetch bits and the I-prefetcher.
        ++ifetch_lines_;
        last_fetch_line_ = line;
        icache_.access(line, false, now, [](Cycle) {});
        return true;
    }

    if (!icache_.canAccept(line)) {
        // I-MSHRs saturated (prefetch burst); retry shortly.
        fetch_stall_until_ = now + 8;
        fetch_kind_ = FetchStallKind::IMiss;
        return false;
    }

    ++ifetch_lines_;
    last_fetch_line_ = line;
    fetch_stall_until_ = kCycleNever; // resolved by the callback
    fetch_kind_ = FetchStallKind::IMiss;
    icache_.access(line, false, now,
                   [this](Cycle c) {
                       fetch_stall_until_ = c;
                       wake(c);
                   });
    return false;
}

bool
CoreModel::dispatchOne(Cycle now)
{
    if (now < fetch_stall_until_)
        return false;

    if (!have_pending_) {
        pending_ = stream_.next();
        have_pending_ = true;
    }
    const Instruction &in = pending_;

    if (!fetchAvailable(in.pc, now))
        return false;

    const unsigned slot = rob_tail_;
    RobEntry &e = rob_[slot];
    const std::uint64_t id = next_rob_id_;

    switch (in.type) {
      case InstrType::Load: {
        if (!dcache_.canAccept(in.addr)) {
            ++dispatch_stalls_mshr_;
            mshr_stall_ = true;
            return false;
        }
        ++loads_;
        e.type = InstrType::Load;
        e.done_at = kCycleNever;
        if (cpi_ != nullptr)
            cpi_->noteLoad(slot, lineAddr(in.addr));
        if (in.chained) {
            ++chained_loads_;
            chain_queue_.push_back(
                ChainedAccess{in.addr, false, slot, id});
            issueChainHead(now);
        } else {
            dcache_.access(in.addr, false, now,
                           [this, slot, id](Cycle c) {
                               finishLoad(slot, id, c, false);
                           });
        }
        break;
      }
      case InstrType::Store: {
        if (!dcache_.canAccept(in.addr)) {
            ++dispatch_stalls_mshr_;
            mshr_stall_ = true;
            return false;
        }
        ++stores_;
        // The store's value lands in the value store now (simulator
        // convenience; see ValueStore); timing-wise the store retires
        // from a store buffer while its MSHR throttles the core.
        values_.writeWord(in.addr & ~static_cast<Addr>(3), in.store_value);
        e.type = InstrType::Store;
        e.done_at = now + 1;
        if (in.chained) {
            // The store's address depends on the chain too, but the
            // store buffer decouples it: issue when the chain allows,
            // without blocking retirement.
            chain_queue_.push_back(
                ChainedAccess{in.addr, true, slot, id});
            issueChainHead(now);
        } else {
            dcache_.access(in.addr, true, now,
                           [this](Cycle c) { wake(c); });
        }
        break;
      }
      case InstrType::Branch: {
        ++branches_;
        e.type = InstrType::Branch;
        e.done_at = now + 1;
        if (in.mispredict) {
            ++mispredicts_;
            fetch_kind_ = FetchStallKind::Branch;
            fetch_stall_until_ = std::max(
                fetch_stall_until_ == kCycleNever ? 0 : fetch_stall_until_,
                now + params_.branch_redirect_penalty);
        }
        break;
      }
      case InstrType::Alu: {
        e.type = InstrType::Alu;
        e.done_at = now + params_.alu_latency;
        break;
      }
    }

    e.id = id;
    ++next_rob_id_;
    if (++rob_tail_ == params_.rob_entries)
        rob_tail_ = 0;
    ++rob_count_;
    have_pending_ = false;
    return true;
}

void
CoreModel::finishLoad(unsigned slot, std::uint64_t id, Cycle c,
                      bool chained)
{
    if (rob_[slot].id == id) {
        rob_[slot].done_at = c;
        wake(c);
    }
    if (chained) {
        chain_outstanding_ = false;
        issueChainHead(c);
    }
}

void
CoreModel::issueChainHead(Cycle now)
{
    if (chain_outstanding_ || chain_queue_.empty())
        return;
    if (!dcache_.canAccept(chain_queue_.front().addr)) {
        // Retry when an MSHR frees (any dcache completion wakes us);
        // leave the access queued.
        return;
    }
    const ChainedAccess a = chain_queue_.front();
    chain_queue_.pop_front();
    chain_outstanding_ = true;
    if (a.is_write) {
        dcache_.access(a.addr, true, now,
                       [this](Cycle c) {
                           chain_outstanding_ = false;
                           wake(c);
                           issueChainHead(c);
                       });
    } else {
        dcache_.access(a.addr, false, now,
                       [this, slot = a.slot, id = a.id](Cycle c) {
                           finishLoad(slot, id, c, true);
                       });
    }
}

Cycle
CoreModel::tick(Cycle now)
{
    if (cpi_ != nullptr)
        cpi_->beginTick(now);
    if (faultStallActive("core.stall")) {
        // Injected livelock: keep ticking without retiring anything so
        // the cycle-based watchdog (not a hang) ends the simulation.
        if (cpi_ != nullptr)
            cpi_->endTick(now, CpiBlock::Compute, 0);
        next_wake_ = now + 1;
        return next_wake_;
    }
    ++cycles_;
    mshr_stall_ = false;
    bool progress = false;

    // A chained access may be waiting on a free MSHR.
    issueChainHead(now);

    // In-order retire.
    for (unsigned r = 0; r < params_.retire_width && rob_count_ > 0;
         ++r) {
        RobEntry &head = rob_[rob_head_];
        if (!head.completed(now))
            break;
        head.id = ~head.id; // poison stale completion callbacks
        if (++rob_head_ == params_.rob_entries)
            rob_head_ = 0;
        --rob_count_;
        ++retired_;
        progress = true;
    }

    // Dispatch.
    for (unsigned d = 0;
         d < params_.dispatch_width && rob_count_ < params_.rob_entries;
         ++d) {
        if (!dispatchOne(now))
            break;
        progress = true;
    }

    if (progress) {
        if (cpi_ != nullptr)
            cpi_->endTick(now, CpiBlock::Compute, 0);
        next_wake_ = now + 1;
        return next_wake_;
    }

    if (cpi_ != nullptr) {
        // Blocking-cause tie-break (DESIGN.md §9): the oldest
        // incomplete instruction is what retirement is actually
        // waiting on, so an incomplete ROB-head load wins; otherwise
        // whatever froze the front end this tick.
        CpiBlock cause = CpiBlock::Compute;
        Addr line = 0;
        if (rob_count_ > 0 && !rob_[rob_head_].completed(now) &&
            rob_[rob_head_].type == InstrType::Load) {
            cause = CpiBlock::L1dMiss;
            line = cpi_->loadLine(rob_head_);
        } else if (now < fetch_stall_until_) {
            cause = fetch_kind_ == FetchStallKind::Branch
                        ? CpiBlock::BranchRedirect
                        : CpiBlock::L1iMiss;
        } else if (mshr_stall_) {
            cause = CpiBlock::MshrFull;
        }
        cpi_->endTick(now, cause, line);
    }

    // Blocked: compute the earliest self-known wake-up over the
    // occupied ring, which is at most two contiguous spans:
    // [head, min(head + count, size)) and its wrapped remainder.
    Cycle nw = kCycleNever;
    auto scan = [&nw, now](const RobEntry *e, const RobEntry *end) {
        for (; e != end; ++e) {
            const Cycle d = e->done_at;
            if (d != kCycleNever && d > now)
                nw = std::min(nw, d);
        }
    };
    const unsigned first =
        std::min(rob_count_, params_.rob_entries - rob_head_);
    scan(rob_.data() + rob_head_, rob_.data() + rob_head_ + first);
    scan(rob_.data(), rob_.data() + (rob_count_ - first));
    if (fetch_stall_until_ != kCycleNever && fetch_stall_until_ > now)
        nw = std::min(nw, fetch_stall_until_);
    next_wake_ = nw;
    return nw;
}

void
CoreModel::runFunctional(std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const Instruction in = stream_.next();
        const Addr iline = lineAddr(in.pc);
        if (iline != last_fetch_line_) {
            ++ifetch_lines_;
            last_fetch_line_ = iline;
            icache_.accessFunctional(in.pc, false);
        }
        switch (in.type) {
          case InstrType::Load:
            ++loads_;
            dcache_.accessFunctional(in.addr, false);
            break;
          case InstrType::Store:
            ++stores_;
            values_.writeWord(in.addr & ~static_cast<Addr>(3),
                              in.store_value);
            dcache_.accessFunctional(in.addr, true);
            break;
          case InstrType::Branch:
            ++branches_;
            if (in.mispredict)
                ++mispredicts_;
            break;
          case InstrType::Alu:
            break;
        }
        ++retired_;
    }
}

void
CoreModel::runSkip(std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const Instruction in = stream_.next();
        const Addr iline = lineAddr(in.pc);
        if (iline != last_fetch_line_) {
            ++ifetch_lines_;
            last_fetch_line_ = iline;
        }
        switch (in.type) {
          case InstrType::Load:
            ++loads_;
            break;
          case InstrType::Store:
            ++stores_;
            values_.writeWord(in.addr & ~static_cast<Addr>(3),
                              in.store_value);
            break;
          case InstrType::Branch:
            ++branches_;
            if (in.mispredict)
                ++mispredicts_;
            break;
          case InstrType::Alu:
            break;
        }
        ++retired_;
    }
}

void
CoreModel::adoptSkip(const CoreModel &leader, std::uint64_t count,
                     std::uint64_t slack)
{
    cmpsim_assert(cpu_ == leader.cpu_);
    // The timed detail window's budget is a *total* across cores, so
    // per-core retirement drifts by up to the window length between
    // configurations; adoption resynchronizes to the leader's cursor.
    // A gap outside skip-length +/- one detail window means the
    // systems were never in lockstep at all.
    const std::uint64_t gap = leader.retired_.value() - retired_.value();
    cmpsim_assert(gap + slack >= count && gap <= count + slack);
    retired_.restore(leader.retired_.value());
    loads_.restore(leader.loads_.value());
    stores_.restore(leader.stores_.value());
    branches_.restore(leader.branches_.value());
    mispredicts_.restore(leader.mispredicts_.value());
    ifetch_lines_.restore(leader.ifetch_lines_.value());
    last_fetch_line_ = leader.last_fetch_line_;
}

void
CoreModel::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.registerCounter(prefix + ".retired", &retired_);
    reg.registerCounter(prefix + ".loads", &loads_);
    reg.registerCounter(prefix + ".chained_loads", &chained_loads_);
    reg.registerCounter(prefix + ".stores", &stores_);
    reg.registerCounter(prefix + ".branches", &branches_);
    reg.registerCounter(prefix + ".mispredicts", &mispredicts_);
    reg.registerCounter(prefix + ".ifetch_lines", &ifetch_lines_);
    reg.registerCounter(prefix + ".dispatch_stalls_mshr",
                        &dispatch_stalls_mshr_);
    reg.registerCounter(prefix + ".active_cycles", &cycles_);
}

void
CoreModel::resetStats()
{
    retired_.reset();
    loads_.reset();
    chained_loads_.reset();
    stores_.reset();
    branches_.reset();
    mispredicts_.reset();
    ifetch_lines_.reset();
    dispatch_stalls_mshr_.reset();
    cycles_.reset();
}

} // namespace cmpsim
