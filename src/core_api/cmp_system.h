/**
 * @file
 * CmpSystem: the fully wired CMP of the paper — cores, split L1s,
 * per-core L1I/L1D/L2 stride prefetchers, adaptive controllers, the
 * banked shared compressed L2, the pin link with optional link
 * compression, and DRAM — built from a SystemConfig plus a workload,
 * with functional warmup and a timed run loop.
 *
 * This is the library's primary entry point:
 *
 *     CmpSystem sys(makeConfig(8, 4, true, true, true, true),
 *                   benchmarkParams("zeus"));
 *     sys.warmup(200'000);
 *     sys.run(50'000);
 *     double speedup_input = sys.cycles();
 */

#ifndef CMPSIM_CORE_API_CMP_SYSTEM_H
#define CMPSIM_CORE_API_CMP_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "src/audit/invariant_registry.h"
#include "src/compression/fpc.h"
#include "src/core_api/system_config.h"
#include "src/workload/synthetic_workload.h"

namespace cmpsim {

class CpiAccount;
class MissJournal;

/** A complete simulated CMP. */
class CmpSystem
{
  public:
    CmpSystem(const SystemConfig &config, const WorkloadParams &workload);
    ~CmpSystem();

    CmpSystem(const CmpSystem &) = delete;
    CmpSystem &operator=(const CmpSystem &) = delete;

    /**
     * Functional cache warmup: drain the event queue to quiescence,
     * then every core executes @p instr_per_core instructions updating
     * cache/directory/prefetcher state with no timing (the functional
     * loop shared with fastForward()). Stats are reset afterwards.
     */
    void warmup(std::uint64_t instr_per_core);

    /**
     * Timed simulation until the cores together retire
     * @p instr_per_core x cores instructions (measured from the call).
     */
    void run(std::uint64_t instr_per_core);

    /** Cycles elapsed during run(). */
    Cycle cycles() const { return measured_cycles_; }

    /** Instructions retired during run(). */
    std::uint64_t instructions() const { return measured_instructions_; }

    double
    ipc() const
    {
        return measured_cycles_ == 0
                   ? 0.0
                   : static_cast<double>(measured_instructions_) /
                         static_cast<double>(measured_cycles_);
    }

    /** Mean L2 compression ratio over the periodic samples. */
    double compressionRatio() const { return ratio_samples_.mean(); }

    // Component access for stats and tests.
    const SystemConfig &config() const { return config_; }
    const WorkloadParams &workload() const { return workload_; }
    L2Cache &l2() { return *l2_; }
    const L2Cache &l2() const { return *l2_; }
    MainMemory &memory() { return *memory_; }
    const ValueStore &values() const { return *values_; }
    L1Cache &l1i(unsigned cpu) { return *l1i_[cpu]; }
    L1Cache &l1d(unsigned cpu) { return *l1d_[cpu]; }
    CoreModel &core(unsigned cpu) { return *cores_[cpu]; }
    StatRegistry &stats() { return registry_; }
    AdaptivePrefetchController &l2Adaptive() { return *l2_adaptive_; }

    /**
     * The system-wide invariant registry. Populated at construction;
     * run() enforces it every config.audit_interval cycles (and once
     * at end-of-run) when the interval is non-zero. Tests may call
     * audits().check()/enforce() directly at any point.
     */
    InvariantRegistry &audits() { return audits_; }
    const InvariantRegistry &audits() const { return audits_; }

    // ---- statistical sampling (DESIGN.md §14) ----

    /**
     * Budgeted functional fast-forward between detailed intervals:
     * drain the event queue to quiescence (functional execution
     * must not race pending fills holding tag references), then
     * advance every core @p instr_per_core instructions through the
     * functional loop shared with warmup(). Only the last
     * @p warm_per_core instructions (clamped; default all) run in
     * functional-warming mode (CoreModel::runFunctional()); any
     * prefix runs in pure skip mode (CoreModel::runSkip()). Unlike
     * warmup() this does NOT reset stats — MatrixSampler brackets
     * detailed intervals with snapshots instead — and it probes the
     * sample.ff fault site once per chunk. With an armed
     * config.sampling plan its "sample.ff_*" counters and the
     * sample.conservation audit are registered.
     */
    void fastForward(std::uint64_t instr_per_core,
                     std::uint64_t warm_per_core = SamplingPlan::kWarmAll);

    /**
     * Leader half of shared-prefix fast-forward (DESIGN.md §14): run
     * a pure-skip fastForward(instr_per_core, 0) while journaling
     * every value-store mutation, and return the journal. A pure-skip
     * phase touches no cache, prefetcher or timing state, so its
     * outcome (workload cursor + value-store delta) is identical for
     * every configuration of the same workload and seed — lockstep
     * twins can adopt it instead of re-executing the stream.
     */
    std::vector<ValueStore::Op>
    fastForwardJournaled(std::uint64_t instr_per_core);

    /**
     * Follower half: jump this system over a pure-skip phase @p
     * leader just executed via fastForwardJournaled() — drain to
     * quiescence, copy the per-core workload cursors and skip
     * counters, and replay the value-store journal. Requires lockstep
     * twins: same workload, seed and core count, and this system at
     * exactly instr_per_core retired instructions behind the leader
     * (asserted per core).
     */
    void adoptSkip(const CmpSystem &leader,
                   const std::vector<ValueStore::Op> &ops,
                   std::uint64_t instr_per_core);

    /** Instructions fast-forwarded over all cores, adopted skips
     *  included (the sample.ff_instructions counter); MatrixSampler
     *  reports its growth across a plan. */
    std::uint64_t fastForwarded() const { return ff_instructions_.value(); }

    /**
     * CPI-stack and miss-genealogy statistics (config.cpi_stack /
     * CMPSIM_CPISTACK, DESIGN.md §9): per-core "cpi.<n>.<leaf>" cycle
     * counters plus "genealogy.*" journey counters and per-segment
     * latency histograms. A *separate* registry: stats() dumps feed
     * determinism fingerprints that must stay byte-identical whether
     * or not the attribution layer is armed. Empty when the layer is
     * off.
     */
    StatRegistry &cpiStats() { return cpi_registry_; }
    const StatRegistry &cpiStats() const { return cpi_registry_; }

    /** Per-core CPI account, or nullptr when the layer is off. */
    const CpiAccount *cpiAccount(unsigned cpu) const
    {
        return cpu < cpi_.size() ? cpi_[cpu].get() : nullptr;
    }

    /** The miss-genealogy journal, or nullptr when the layer is off. */
    const MissJournal *missJournal() const { return miss_journal_.get(); }

  private:
    void buildSystem();
    void resetAllStats();

    /**
     * The one functional loop behind warmup() and fastForward(): drain
     * the event queue (functional execution must not race pending
     * fills holding tag references), then every core advances
     * @p instr_per_core instructions, interleaved in
     * chunks so the shared L2 sees a realistic core mix; the last
     * @p warm_per_core (clamped) warm the caches and any prefix only
     * skips, and no chunk straddles the boundary. The point deadline
     * is polled once per chunk, labelled "sample.ff" for a
     * @p fast_forward (which also probes the sample.ff fault site) and
     * "warmup" otherwise. @return the chunks run.
     */
    std::uint64_t runFunctionalLoop(std::uint64_t instr_per_core,
                                    std::uint64_t warm_per_core,
                                    bool fast_forward);

    /** Sum of every core's retirement counter. */
    std::uint64_t retiredTotal() const;

    /** One-line-per-item progress diagnostic for watchdog/deadlock
     *  reports: event-queue depth and horizon plus per-core state. */
    std::string runDiagnostic(Cycle now) const;

    /** Close every core's open attribution window at @p now so the
     *  CPI leaves sum to exactly the elapsed cycles (end-of-run). */
    void cpiFlush(Cycle now);

    SystemConfig config_;
    WorkloadParams workload_;

    EventQueue eq_; ///< the one event queue every component uses
    FpcCompressor fpc_;
    std::unique_ptr<ValueStore> values_;
    std::unique_ptr<MainMemory> memory_;
    std::unique_ptr<L2Cache> l2_;
    std::vector<std::unique_ptr<L1Cache>> l1i_;
    std::vector<std::unique_ptr<L1Cache>> l1d_;
    std::vector<std::unique_ptr<StridePrefetcher>> pf_l1i_;
    std::vector<std::unique_ptr<StridePrefetcher>> pf_l1d_;
    std::vector<std::unique_ptr<StridePrefetcher>> pf_l2_;
    std::vector<std::unique_ptr<AdaptivePrefetchController>> ad_l1i_;
    std::vector<std::unique_ptr<AdaptivePrefetchController>> ad_l1d_;
    std::unique_ptr<AdaptivePrefetchController> l2_adaptive_;
    std::vector<std::unique_ptr<SyntheticWorkload>> streams_;
    std::vector<std::unique_ptr<CoreModel>> cores_;

    std::unique_ptr<MissJournal> miss_journal_;     ///< see cpiStats()
    std::vector<std::unique_ptr<CpiAccount>> cpi_;  ///< per core

    StatRegistry registry_;
    StatRegistry cpi_registry_; ///< see cpiStats()
    InvariantRegistry audits_;
    Average ratio_samples_;

    // Fast-forward accounting ("sample.*", registered only when a
    // plan is armed so unsampled dumps stay byte-identical).
    Counter ff_instructions_;      ///< budget handed out (all cores)
    Counter ff_skip_instructions_; ///< pure-skip share of the budget
    Counter ff_chunks_;            ///< interleave rounds executed
    /** Conservation audit inputs: cumulative budget and retirement
     *  growth across fast-forwards. Not stats — never reset. */
    std::uint64_t ff_expected_ = 0;
    std::uint64_t ff_observed_ = 0;

    Cycle measured_cycles_ = 0;
    std::uint64_t measured_instructions_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_CORE_API_CMP_SYSTEM_H
