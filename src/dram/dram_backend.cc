#include "src/dram/dram_backend.h"

#include <algorithm>
#include <tuple>

#include "src/audit/invariant_registry.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

DramBackend::DramBackend(EventQueue &eq, const DramTimingParams &params)
    : eq_(eq), params_(params)
{
    channels_.resize(params_.channels);
    for (auto &ch : channels_) {
        ch.banks.resize(params_.banksPerChannel());
        ch.next_refresh = params_.refresh_interval;
    }
}

DramBackend::Decoded
DramBackend::decode(Addr line_addr) const
{
    // Column bits lowest, then channel, then bank, then row: the
    // consecutive lines of a stride stream walk one row and spread
    // rows across channels, the mapping every open-page controller
    // uses to convert spatial locality into row hits.
    const std::uint64_t line = line_addr / kLineBytes;
    const unsigned lpr = params_.linesPerRow();
    Decoded d;
    d.column = line % lpr;
    std::uint64_t rest = line / lpr;
    d.channel = static_cast<unsigned>(rest % params_.channels);
    rest /= params_.channels;
    d.bank = static_cast<unsigned>(rest % params_.banksPerChannel());
    d.row = rest / params_.banksPerChannel();
    return d;
}

unsigned
DramBackend::beatsFor(unsigned segments) const
{
    const unsigned bytes = segments * kSegmentBytes;
    const unsigned beats =
        (bytes + params_.burst_bytes - 1) / params_.burst_bytes;
    return std::max(1u, beats);
}

void
DramBackend::read(Addr line_addr, unsigned segments, bool prefetch,
                  Cycle when, Done done)
{
    faultSite("dram.access");
    const Decoded d = decode(line_addr);
    Channel &ch = channels_[d.channel];
    Bank &b = ch.banks[d.bank];

    ++reads_enqueued_;
    ++conserv_reads_in_;
    bank_queue_depth_.sample(static_cast<double>(b.pending));
    ++b.pending;
    ch.reads.push_back(Request{line_addr, d.row, d.bank,
                               beatsFor(segments), prefetch, when,
                               next_seq_++, std::move(done)});
    wake(d.channel, when);
}

void
DramBackend::write(Addr line_addr, unsigned segments, Cycle when)
{
    const Decoded d = decode(line_addr);
    Channel &ch = channels_[d.channel];
    Bank &b = ch.banks[d.bank];

    ++writes_enqueued_;
    ++conserv_writes_in_;
    bank_queue_depth_.sample(static_cast<double>(b.pending));
    ++b.pending;
    ch.writes.push_back(Request{line_addr, d.row, d.bank,
                               beatsFor(segments), false, when,
                               next_seq_++, nullptr});
    wake(d.channel, when);
}

void
DramBackend::wake(unsigned ci, Cycle at)
{
    Channel &ch = channels_[ci];
    if (ch.busy)
        return;
    ch.busy = true;
    eq_.schedule(std::max(at, eq_.now()), [this, ci](Cycle) { pump(ci); });
}

bool
DramBackend::select(const Channel &ch, const std::deque<Request> &q,
                    Cycle now, std::size_t &index) const
{
    using Key = std::tuple<unsigned, unsigned, std::uint64_t>;
    bool found = false;
    Key best{};
    for (std::size_t i = 0; i < q.size(); ++i) {
        const Request &r = q[i];
        if (r.ready > now)
            continue;
        Key key;
        if (params_.sched == DramSched::Fcfs) {
            key = Key{0, 0, r.seq};
        } else {
            const Bank &b = ch.banks[r.bank];
            const bool hit = b.row_open && b.open_row == r.row;
            key = Key{hit ? 0u : 1u, r.prefetch ? 1u : 0u, r.seq};
        }
        if (!found || key < best) {
            best = key;
            index = i;
            found = true;
        }
    }
    return found;
}

Cycle
DramBackend::service(Channel &ch, Request &r, Cycle now)
{
    Bank &b = ch.banks[r.bank];
    const Cycle start = std::max(now, b.ready);
    Cycle data_start;
    if (b.row_open && b.open_row == r.row) {
        ++row_hits_;
        data_start = start + params_.tcas;
    } else if (!b.row_open) {
        ++row_misses_;
        b.activated = start;
        data_start = start + params_.trcd + params_.tcas;
    } else {
        ++row_conflicts_;
        // Precharge may not start before tRAS has elapsed since the
        // open row's activation.
        const Cycle pre = std::max(start, b.activated + params_.tras);
        b.activated = pre + params_.trp;
        data_start = b.activated + params_.trcd + params_.tcas;
    }
    const Cycle data_end =
        data_start + static_cast<Cycle>(r.beats) * params_.burst_cycles;
    if (params_.closed_page) {
        b.row_open = false;
        const Cycle pre = std::max(data_end, b.activated + params_.tras);
        b.ready = pre + params_.trp;
    } else {
        b.row_open = true;
        b.open_row = r.row;
        b.ready = data_end;
    }
    return data_end;
}

void
DramBackend::pump(unsigned ci)
{
    Channel &ch = channels_[ci];
    const Cycle now = eq_.now();

    // Refresh catch-up: periods that elapsed entirely while the
    // channel slept are skipped; once work exists and the deadline
    // has passed, one tRFC stall is charged and every row closes.
    if (params_.refresh_interval > 0 && now >= ch.next_refresh) {
        const Cycle interval = params_.refresh_interval;
        const std::uint64_t periods = (now - ch.next_refresh) / interval + 1;
        ch.next_refresh += periods * interval;
        ++refreshes_;
        for (auto &b : ch.banks) {
            b.row_open = false;
            b.ready = std::max(b.ready, now + params_.refresh_cycles);
        }
        eq_.schedule(now + params_.refresh_cycles,
                     [this, ci](Cycle) { pump(ci); });
        return;
    }

    // Write-drain hysteresis.
    if (!ch.draining &&
        ch.writes.size() >= params_.write_high_watermark) {
        ch.draining = true;
        ++write_drains_;
    }
    if (ch.draining && ch.writes.size() <= params_.write_low_watermark)
        ch.draining = false;

    std::size_t idx = 0;
    bool is_write = false;
    bool have = false;
    if (ch.draining && select(ch, ch.writes, now, idx)) {
        is_write = true;
        have = true;
    } else if (select(ch, ch.reads, now, idx)) {
        have = true;
    } else if (select(ch, ch.writes, now, idx)) {
        // No ready read: drain a write opportunistically.
        is_write = true;
        have = true;
    }

    if (!have) {
        // Nothing has arrived yet; sleep until the earliest arrival
        // (or go idle — wake() re-enters on the next enqueue).
        Cycle earliest = kCycleNever;
        for (const auto &r : ch.reads)
            earliest = std::min(earliest, r.ready);
        for (const auto &r : ch.writes)
            earliest = std::min(earliest, r.ready);
        if (earliest == kCycleNever) {
            ch.busy = false;
            return;
        }
        eq_.schedule(earliest, [this, ci](Cycle) { pump(ci); });
        return;
    }

    std::deque<Request> &q = is_write ? ch.writes : ch.reads;
    Request r = std::move(q[idx]);
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
    --ch.banks[r.bank].pending;

    // Row outcome must be read before service() rotates the bank's
    // row-buffer state.
    const Bank &rb = ch.banks[r.bank];
    const bool row_hit = rb.row_open && rb.open_row == r.row;

    const Cycle data_end = service(ch, r, now);
    if (is_write) {
        ++inflight_writes_;
        eq_.schedule(data_end, [this, ci](Cycle) {
            ++writes_serviced_;
            ++conserv_writes_out_;
            --inflight_writes_;
            pump(ci);
        });
    } else {
        ++inflight_reads_;
        read_queue_wait_.sample(static_cast<double>(now - r.ready));
        const Cycle done_at = data_end + params_.ctrl_latency;
        if (read_observer_)
            read_observer_(r.line, now, done_at, row_hit);
        eq_.schedule(done_at, std::move(r.done));
        eq_.schedule(data_end, [this, ci](Cycle) {
            ++reads_serviced_;
            ++conserv_reads_out_;
            --inflight_reads_;
            pump(ci);
        });
    }
}

double
DramBackend::rowHitRate() const
{
    const std::uint64_t total = row_hits_.value() + row_misses_.value() +
                                row_conflicts_.value();
    return total == 0
               ? 0.0
               : static_cast<double>(row_hits_.value()) /
                     static_cast<double>(total);
}

std::size_t
DramBackend::queuedReads() const
{
    std::size_t n = 0;
    for (const auto &ch : channels_)
        n += ch.reads.size();
    return n;
}

std::size_t
DramBackend::queuedWrites() const
{
    std::size_t n = 0;
    for (const auto &ch : channels_)
        n += ch.writes.size();
    return n;
}

void
DramBackend::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.registerCounter(prefix + ".reads_enqueued", &reads_enqueued_);
    reg.registerCounter(prefix + ".reads_serviced", &reads_serviced_);
    reg.registerCounter(prefix + ".writes_enqueued", &writes_enqueued_);
    reg.registerCounter(prefix + ".writes_serviced", &writes_serviced_);
    reg.registerCounter(prefix + ".row_hits", &row_hits_);
    reg.registerCounter(prefix + ".row_misses", &row_misses_);
    reg.registerCounter(prefix + ".row_conflicts", &row_conflicts_);
    reg.registerCounter(prefix + ".refreshes", &refreshes_);
    reg.registerCounter(prefix + ".write_drains", &write_drains_);
    reg.registerAverage(prefix + ".read_queue_wait", &read_queue_wait_);
    reg.registerHistogram(prefix + ".bank_queue_depth",
                          &bank_queue_depth_);
}

void
DramBackend::registerAudits(InvariantRegistry &reg,
                            const std::string &name)
{
    reg.add(name + ".request_conservation", [this](std::string &why) {
        const std::uint64_t r_rhs =
            conserv_reads_out_ + inflight_reads_ + queuedReads();
        const std::uint64_t w_rhs =
            conserv_writes_out_ + inflight_writes_ + queuedWrites();
        if (conserv_reads_in_ == r_rhs && conserv_writes_in_ == w_rhs)
            return true;
        why = "reads in=" + std::to_string(conserv_reads_in_) +
              " out=" + std::to_string(conserv_reads_out_) +
              " inflight=" + std::to_string(inflight_reads_) +
              " queued=" + std::to_string(queuedReads()) +
              "; writes in=" + std::to_string(conserv_writes_in_) +
              " out=" + std::to_string(conserv_writes_out_) +
              " inflight=" + std::to_string(inflight_writes_) +
              " queued=" + std::to_string(queuedWrites());
        return false;
    });
}

void
DramBackend::resetStats()
{
    reads_enqueued_.reset();
    reads_serviced_.reset();
    writes_enqueued_.reset();
    writes_serviced_.reset();
    row_hits_.reset();
    row_misses_.reset();
    row_conflicts_.reset();
    refreshes_.reset();
    write_drains_.reset();
    read_queue_wait_.reset();
    bank_queue_depth_.reset();
}

} // namespace cmpsim
