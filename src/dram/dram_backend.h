/**
 * @file
 * Event-driven banked DRAM backend (DESIGN.md §10).
 *
 * Requests arriving off the pin link are decoded to (channel, bank,
 * row) — column bits lowest, so the consecutive lines a stride
 * prefetcher fetches land in the same row — and queued per channel.
 * Each channel schedules one access at a time:
 *
 *  - FR-FCFS: among arrived requests, open-row hits first, demand
 *    before prefetch within each class, age as the tie-break (the
 *    classic first-ready, first-come-first-served policy plus the
 *    demand-over-prefetch priority every real controller applies).
 *    DramSched::Fcfs degrades this to strict arrival order for
 *    ablation.
 *  - Row-buffer state: an access to the open row pays tCAS only; to
 *    an idle (precharged) bank tRCD + tCAS; to a bank holding a
 *    different row tRP + tRCD + tCAS, with the precharge gated on
 *    tRAS since that row's activation. Closed-page mode auto-
 *    precharges after every access.
 *  - Compression-aware transfers: a request for S stored segments
 *    needs ceil(S * 8 / burst_bytes) column accesses, each occupying
 *    the channel data bus for burst_cycles — link compression
 *    (which also shrinks the stored form, the paper's ECC meta-bit
 *    trick) therefore shortens the DRAM burst, not just the pin
 *    message.
 *  - Write queue: writebacks buffer per channel and drain when the
 *    queue reaches its high watermark (until the low watermark),
 *    stealing read slots exactly when real controllers do; an idle
 *    channel also drains writes opportunistically.
 *  - Refresh: every refresh_interval cycles the channel stalls for
 *    refresh_cycles and closes every row. Refresh periods that
 *    elapse entirely while the channel has no work are skipped, not
 *    charged retroactively.
 *
 * Deliberate simplification (documented for model-fidelity reviews):
 * a channel serializes whole accesses — bank preparation (activate /
 * precharge) of the *next* request does not overlap the current data
 * burst, so per-channel bank-level parallelism is not modeled;
 * parallelism comes from multiple channels. Row-hit latency savings,
 * FR-FCFS reordering, bank-conflict penalties, burst-length effects
 * and write-drain interference — the effects the paper's memory
 * interactions depend on — are all preserved, and the model stays a
 * pure function of (config, request stream), bit-reproducible under
 * the determinism gate.
 */

#ifndef CMPSIM_DRAM_DRAM_BACKEND_H
#define CMPSIM_DRAM_DRAM_BACKEND_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/dram/dram_params.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

class InvariantRegistry;

/** Channels x ranks x banks DRAM timing model. */
class DramBackend
{
  public:
    using Done = std::function<void(Cycle)>;

    /** Read-service observer: (line, service_start, done_at, row_hit).
     *  Runs when a read is issued to its bank (serial event context);
     *  pure observation for the miss-genealogy journal. */
    using ReadObserver = std::function<void(Addr, Cycle, Cycle, bool)>;

    DramBackend(EventQueue &eq, const DramTimingParams &params);

    /** Wire the read-service observer (empty disarms). */
    void setReadObserver(ReadObserver obs) { read_observer_ = std::move(obs); }

    /**
     * Service a line read of @p segments stored segments arriving at
     * the controller at @p when; @p done runs at the cycle the last
     * data beat leaves the device (plus ctrl_latency).
     * Fault-injection site: "dram.access".
     */
    void read(Addr line_addr, unsigned segments, bool prefetch,
              Cycle when, Done done);

    /** Queue a line write of @p segments segments arriving at @p when
     *  (no response; drained by watermark or opportunistically). */
    void write(Addr line_addr, unsigned segments, Cycle when);

    // ---- observers (tests, gauges, audits) ----

    /** (channel, bank-within-channel, row, column) of a line. */
    struct Decoded
    {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
        std::uint64_t column;
    };
    Decoded decode(Addr line_addr) const;

    /** Column accesses needed for @p segments stored segments. */
    unsigned beatsFor(unsigned segments) const;

    std::uint64_t rowHits() const { return row_hits_.value(); }
    std::uint64_t rowMisses() const { return row_misses_.value(); }
    std::uint64_t rowConflicts() const { return row_conflicts_.value(); }
    std::uint64_t refreshes() const { return refreshes_.value(); }
    std::uint64_t readsServiced() const { return reads_serviced_.value(); }
    std::uint64_t writesServiced() const
    {
        return writes_serviced_.value();
    }
    std::uint64_t writeDrains() const { return write_drains_.value(); }

    /** row hits / all row outcomes since the last stats reset
     *  (0 when nothing has been serviced). */
    double rowHitRate() const;

    /** Requests currently sitting in read/write queues (all channels). */
    std::size_t queuedReads() const;
    std::size_t queuedWrites() const;

    const DramTimingParams &params() const { return params_; }

    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Register the request-conservation audit ("<name>.request_
     *  conservation"): enqueued == serviced + in-flight + queued,
     *  for reads and writes independently. */
    void registerAudits(InvariantRegistry &reg, const std::string &name);

    void resetStats();

  private:
    struct Request
    {
        Addr line;
        std::uint64_t row;
        unsigned bank; ///< within the channel
        unsigned beats;
        bool prefetch;
        Cycle ready;        ///< arrival at the controller
        std::uint64_t seq;  ///< global arrival order
        Done done;          ///< null for writes
    };

    struct Bank
    {
        bool row_open = false;
        std::uint64_t open_row = 0;
        Cycle ready = 0;     ///< earliest next command
        Cycle activated = 0; ///< cycle of the open row's activation
        std::uint64_t pending = 0; ///< queued requests targeting this bank
    };

    struct Channel
    {
        std::vector<Bank> banks;
        std::deque<Request> reads;
        std::deque<Request> writes;
        bool busy = false;     ///< an access (or refresh) is in service
        bool draining = false; ///< write-drain mode latched
        Cycle next_refresh = 0;
    };

    /** Schedule-and-service loop for channel @p ci (event-driven,
     *  PriorityLink-style: re-entered when the channel frees or a
     *  request arrives at an idle channel). */
    void pump(unsigned ci);

    /** Pick the next request index from @p q per the scheduling
     *  policy (bank row state read from @p ch); returns false when
     *  nothing has arrived by @p now. */
    bool select(const Channel &ch, const std::deque<Request> &q,
                Cycle now, std::size_t &index) const;

    /** Issue @p r on its bank starting no earlier than @p now;
     *  returns the cycle its last data beat completes. */
    Cycle service(Channel &ch, Request &r, Cycle now);

    /** Kick pump(ci) at max(at, now) unless the channel is busy. */
    void wake(unsigned ci, Cycle at);

    EventQueue &eq_;
    DramTimingParams params_;
    ReadObserver read_observer_;
    std::vector<Channel> channels_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t inflight_reads_ = 0;
    std::uint64_t inflight_writes_ = 0;

    /** Raw lifetime totals for the conservation audit. Deliberately
     *  separate from the registered Counters: resetStats() zeroes
     *  those at measurement start while warmup requests may still be
     *  queued or in flight, which would break the balance. */
    std::uint64_t conserv_reads_in_ = 0;
    std::uint64_t conserv_reads_out_ = 0;
    std::uint64_t conserv_writes_in_ = 0;
    std::uint64_t conserv_writes_out_ = 0;

    Counter reads_enqueued_;
    Counter reads_serviced_;
    Counter writes_enqueued_;
    Counter writes_serviced_;
    Counter row_hits_;
    Counter row_misses_;
    Counter row_conflicts_;
    Counter refreshes_;
    Counter write_drains_;
    Average read_queue_wait_;
    /** Depth of the target bank's pending-request list as each
     *  request arrives: the per-bank queueing the FR-FCFS scheduler
     *  works against (32 buckets of 1). */
    Histogram bank_queue_depth_{1.0, 32};
};

} // namespace cmpsim

#endif // CMPSIM_DRAM_DRAM_BACKEND_H
