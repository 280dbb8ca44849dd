#include "src/core_api/cmp_system.h"

#include <algorithm>
#include <string>

#include "src/audit/audits.h"
#include "src/common/sim_error.h"
#include "src/obs/cpi_stack.h"
#include "src/obs/trace.h"

namespace cmpsim {

namespace {
/** Cycles between effective-cache-size samples (Table 3 methodology:
 *  "periodically measuring the average effective cache size"). */
constexpr Cycle kRatioSampleInterval = 20000;

/** Functional execution interleaves cores in chunks this large so
 *  the shared region and the L2 see a realistic interleaving. */
constexpr std::uint64_t kFunctionalChunk = 2000;
} // namespace

CmpSystem::CmpSystem(const SystemConfig &config,
                     const WorkloadParams &workload)
    : config_(config), workload_(workload.scaled(config.scale))
{
    config_.validate();
    buildSystem();

    if (Tracer *tracer = Tracer::armed()) {
        // Label the sim-pid tracks so Perfetto renders names instead
        // of bare tids: tid 0 carries the uncore events, and each
        // core's miss journeys land on their own track.
        tracer->threadName(kTraceSimPid, 0, "uncore");
        if (config_.cpi_stack) {
            for (unsigned c = 0; c < config_.cores; ++c) {
                tracer->threadName(
                    kTraceSimPid, kJourneyTraceTidBase + c,
                    "core " + std::to_string(c) + " journeys");
            }
        }
    }
}

CmpSystem::~CmpSystem() = default;

void
CmpSystem::buildSystem()
{
    // Pre-size the event queue so mid-run event bursts never
    // reallocate: in-flight continuations are bounded by cores times
    // pipeline depth (each ROB slot holds at most one outstanding
    // completion, plus fetch/prefetch headroom absorbed by the bound).
    const std::size_t depth = config_.coreParams().rob_entries;
    eq_.reserve(config_.cores * depth);

    values_ = std::make_unique<ValueStore>(fpc_);
    memory_ =
        std::make_unique<MainMemory>(eq_, *values_, config_.memoryParams());
    l2_ = std::make_unique<L2Cache>(eq_, *values_, *memory_,
                                    config_.l2Params());

    const L1Params l1d_params = config_.l1Params();
    L1Params l1i_params = l1d_params;
    l1i_params.mshrs = 4; // sequential fetch + a few prefetches
    l1i_params.prefetch_headroom = 1;

    for (unsigned c = 0; c < config_.cores; ++c) {
        l1i_.push_back(std::make_unique<L1Cache>(eq_, *l2_, c, l1i_params));
        l1d_.push_back(std::make_unique<L1Cache>(eq_, *l2_, c, l1d_params));
    }

    l2_->setL1Invalidator([this](unsigned cpu, Addr line) {
        const bool d_dirty = l1d_[cpu]->invalidateLine(line);
        const bool i_dirty = l1i_[cpu]->invalidateLine(line);
        return d_dirty || i_dirty;
    });
    l2_->setL1Downgrader([this](unsigned cpu, Addr line) {
        l1d_[cpu]->downgradeLine(line);
        l1i_[cpu]->downgradeLine(line);
    });

    if (config_.prefetching) {
        for (unsigned c = 0; c < config_.cores; ++c) {
            pf_l1i_.push_back(std::make_unique<StridePrefetcher>(
                config_.l1PrefetcherParams()));
            pf_l1d_.push_back(std::make_unique<StridePrefetcher>(
                config_.l1PrefetcherParams()));
            ad_l1i_.push_back(
                std::make_unique<AdaptivePrefetchController>(
                    config_.l1_startup_prefetches,
                    config_.adaptive_prefetch));
            ad_l1d_.push_back(
                std::make_unique<AdaptivePrefetchController>(
                    config_.l1_startup_prefetches,
                    config_.adaptive_prefetch));
            l1i_[c]->setPrefetcher(pf_l1i_[c].get());
            l1d_[c]->setPrefetcher(pf_l1d_[c].get());
            l1i_[c]->setAdaptiveController(ad_l1i_[c].get());
            l1d_[c]->setAdaptiveController(ad_l1d_[c].get());
        }
        // One saturating counter for the shared L2 (Section 3), with
        // per-core L2 prefetch engines [7] (or one shared, ablation).
        l2_adaptive_ = std::make_unique<AdaptivePrefetchController>(
            config_.l2_startup_prefetches, config_.adaptive_prefetch);
        l2_->setAdaptiveController(l2_adaptive_.get());
        const unsigned engines =
            config_.shared_l2_prefetcher ? 1 : config_.cores;
        for (unsigned e = 0; e < engines; ++e) {
            pf_l2_.push_back(std::make_unique<StridePrefetcher>(
                config_.l2PrefetcherParams()));
        }
        for (unsigned c = 0; c < config_.cores; ++c) {
            l2_->setPrefetcher(
                c, pf_l2_[config_.shared_l2_prefetcher ? 0 : c].get());
        }
    }

    for (unsigned c = 0; c < config_.cores; ++c) {
        streams_.push_back(std::make_unique<SyntheticWorkload>(
            workload_, *values_, c, config_.seed));
        cores_.push_back(std::make_unique<CoreModel>(
            eq_, *l1i_[c], *l1d_[c], *values_, *streams_[c], c,
            config_.coreParams()));
    }

    if (config_.cpi_stack) {
        // CPI-stack / miss-genealogy layer (DESIGN.md §9): one journal
        // fed by the uncore timing layers plus one account per core.
        // All its stats land in cpi_registry_ so stats() dumps — and
        // the determinism fingerprints — never change when it's armed.
        const MemoryParams mp = config_.memoryParams();
        miss_journal_ = std::make_unique<MissJournal>(
            mp.link_bytes_per_cycle, mp.infinite_bandwidth);
        l2_->setJournal(miss_journal_.get());
        memory_->setJournal(miss_journal_.get());
        for (unsigned c = 0; c < config_.cores; ++c) {
            cpi_.push_back(std::make_unique<CpiAccount>(
                c, config_.coreParams().rob_entries,
                miss_journal_.get()));
            cores_[c]->setCpi(cpi_[c].get());
        }
        miss_journal_->registerStats(cpi_registry_, "genealogy");
        for (unsigned c = 0; c < config_.cores; ++c) {
            cpi_[c]->registerStats(cpi_registry_,
                                   "cpi." + std::to_string(c));
        }
        // Conservation: every attributed window's leaves must sum to
        // exactly the elapsed cycles it covered — checked per core.
        audits_.add("obs.cpi_conservation", [this](std::string &why) {
            for (auto &a : cpi_) {
                if (!a->conserved(why))
                    return false;
            }
            return true;
        });
    }

    if (config_.sampling.armed()) {
        // Statistical sampling (DESIGN.md §14): the fast-forward stats
        // are registered only when a plan is armed so unsampled runs
        // register no extra stats and their dumps stay byte-identical.
        registry_.registerCounter("sample.ff_instructions",
                                  &ff_instructions_);
        registry_.registerCounter("sample.ff_skip_instructions",
                                  &ff_skip_instructions_);
        registry_.registerCounter("sample.ff_chunks", &ff_chunks_);
        // Conservation: fast-forwards must retire exactly the budget
        // handed out — a skipped or double-counted instruction would
        // silently bias every sampled metric.
        audits_.add("sample.conservation", [this](std::string &why) {
            if (ff_observed_ == ff_expected_)
                return true;
            why = "fast-forward retired " + std::to_string(ff_observed_) +
                  " instructions against a budget of " +
                  std::to_string(ff_expected_);
            return false;
        });
    }

    // Stat registration.
    l2_->registerStats(registry_, "l2");
    memory_->registerStats(registry_, "mem");
    for (unsigned c = 0; c < config_.cores; ++c) {
        const std::string idx = std::to_string(c);
        l1i_[c]->registerStats(registry_, "l1i." + idx);
        l1d_[c]->registerStats(registry_, "l1d." + idx);
        cores_[c]->registerStats(registry_, "core." + idx);
        if (config_.prefetching) {
            pf_l1i_[c]->registerStats(registry_, "pf.l1i." + idx);
            pf_l1d_[c]->registerStats(registry_, "pf.l1d." + idx);
            ad_l1i_[c]->registerStats(registry_, "ad.l1i." + idx);
            ad_l1d_[c]->registerStats(registry_, "ad.l1d." + idx);
        }
    }
    if (config_.prefetching) {
        for (unsigned e = 0; e < pf_l2_.size(); ++e) {
            pf_l2_[e]->registerStats(registry_,
                                     "pf.l2." + std::to_string(e));
        }
        l2_adaptive_->registerStats(registry_, "ad.l2");
    }

    // Invariant registration (DESIGN.md §6). Every component hangs its
    // named checks on the shared registry; run() enforces it
    // periodically when config_.audit_interval is set.
    registerEventQueueAudits(audits_, eq_, "eq");
    l2_->registerAudits(audits_, "l2");
    registerBandwidthResourceAudits(audits_, l2_->onchip(), "l2.onchip");
    registerPriorityLinkAudits(audits_, memory_->link(), "mem.link");
    for (unsigned c = 0; c < config_.cores; ++c) {
        const std::string idx = std::to_string(c);
        l1i_[c]->registerAudits(audits_, "l1i." + idx);
        l1d_[c]->registerAudits(audits_, "l1d." + idx);
    }
    // One audit per structure kind, each looping over every instance:
    // a name and a closure per core or prefetcher would be
    // construction work for nothing.
    audits_.add("core.done_horizon", [this](std::string &why) {
        for (const auto &core : cores_) {
            if (!core->auditDoneHorizon(why))
                return false;
        }
        return true;
    });
    if (config_.prefetching) {
        audits_.add("prefetch.filters", [this](std::string &why) {
            auto pass = [&why](const auto &engines, const char *name) {
                for (std::size_t e = 0; e < engines.size(); ++e) {
                    if (!engines[e]->auditFilters(why)) {
                        why = name + std::to_string(e) + ": " + why;
                        return false;
                    }
                }
                return true;
            };
            return pass(pf_l1i_, "pf.l1i.") && pass(pf_l1d_, "pf.l1d.") &&
                   pass(pf_l2_, "pf.l2.");
        });
    }
}

void
CmpSystem::resetAllStats()
{
    // The registries zero every registered stat; the components then
    // re-baseline only the accounting no registry owns.
    registry_.resetAll();
    memory_->resetStats();
    l2_->resetStats();
    ratio_samples_.reset();
    cpi_registry_.resetAll();
    for (auto &a : cpi_)
        a->resetStats();
}

void
CmpSystem::cpiFlush(Cycle now)
{
    for (auto &a : cpi_)
        a->flush(now);
}

std::uint64_t
CmpSystem::retiredTotal() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->instructionsRetired();
    return total;
}

std::uint64_t
CmpSystem::runFunctionalLoop(std::uint64_t instr_per_core,
                             std::uint64_t warm_per_core)
{
    // Drain to quiescence first: functional accesses evict lines, and
    // a pending fill completing into an evicted tag would corrupt the
    // set. The loop terminates because pending events only complete
    // existing work (cores create new events only via tick(), which
    // the drain never calls). A fresh system has nothing pending.
    eq_.drain();

    const std::uint64_t skip =
        instr_per_core - std::min(warm_per_core, instr_per_core);
    std::uint64_t done = 0;
    std::uint64_t chunks = 0;
    while (done < instr_per_core) {
        // A skip chunk ends at the skip/warm boundary at the latest.
        const bool skipping = done < skip;
        const std::uint64_t chunk = std::min(
            kFunctionalChunk, (skipping ? skip : instr_per_core) - done);
        for (auto &core : cores_) {
            if (skipping)
                core->runSkip(chunk);
            else
                core->runFunctional(chunk);
        }
        done += chunk;
        ++chunks;
    }
    return chunks;
}

void
CmpSystem::warmup(std::uint64_t instr_per_core)
{
    Tracer *tracer = Tracer::armed();
    const std::uint64_t t0 = tracer != nullptr ? tracer->nowWallUs() : 0;

    runFunctionalLoop(instr_per_core, instr_per_core);
    resetAllStats();

    if (tracer != nullptr) {
        tracer->completeWall("phase.warmup", t0, tracer->nowWallUs(),
                             {{"instr_per_core", instr_per_core}});
    }
}

void
CmpSystem::run(std::uint64_t instr_per_core)
{
    Tracer *tracer = Tracer::armed();
    const std::uint64_t wall0 =
        tracer != nullptr ? tracer->nowWallUs() : 0;

    const Cycle start = eq_.now();
    const std::uint64_t start_retired = retiredTotal();
    const std::uint64_t target =
        start_retired + instr_per_core * config_.cores;

    Cycle now = start;
    Cycle next_sample = start + kRatioSampleInterval;
    const Cycle audit_interval = config_.audit_interval;
    Cycle next_audit =
        audit_interval > 0 ? start + audit_interval : kCycleNever;
    std::uint64_t retired = start_retired;

    // Forward-progress watchdog: if no core retires an instruction for
    // watchdog_cycles simulated cycles, the run is livelocked (events
    // keep flowing but nothing completes) and we bail out with a
    // diagnosable WatchdogTimeout instead of spinning forever.
    const Cycle watchdog = config_.watchdog_cycles;
    Cycle last_progress = start;
    std::uint64_t last_retired = start_retired;

    // Earliest core wake-up. Only event callbacks and a core's own
    // tick move a core's wake-up, and a tick schedules events rather
    // than running other cores' callbacks, so the minimum taken
    // during the tick pass is exact until the next advanceTo().
    Cycle min_wake = kCycleNever;
    for (auto &core : cores_)
        min_wake = std::min(min_wake, core->nextWake());

    while (retired < target) {
        Cycle next = std::min(eq_.nextEventCycle(), min_wake);
        if (next == kCycleNever) {
            cmpsim_panic("simulation deadlock: no events, no core "
                         "work\n%s",
                         runDiagnostic(now).c_str());
        }
        if (next < now)
            next = now;

        eq_.advanceTo(next);
        now = next;

        retired = 0;
        min_wake = kCycleNever;
        for (auto &core : cores_) {
            if (core->nextWake() <= now)
                core->tick(now);
            retired += core->instructionsRetired();
            min_wake = std::min(min_wake, core->nextWake());
        }

        if (retired != last_retired) {
            last_retired = retired;
            last_progress = now;
        } else if (watchdog > 0 && now - last_progress >= watchdog) {
            traceInstant("watchdog.timeout", now,
                         {{"stalled_cycles", now - last_progress},
                          {"retired", retired}});
            throw WatchdogTimeout(
                "cmp_system.run",
                "no instruction retired in " + std::to_string(watchdog) +
                    " cycles (CMPSIM_WATCHDOG)\n" + runDiagnostic(now));
        }

        if (now >= next_sample) {
            ratio_samples_.sample(l2_->compressionRatio());
            next_sample = now + kRatioSampleInterval;
        }
        if (now >= next_audit) {
            audits_.enforce();
            next_audit = now + audit_interval;
        }
    }

    ratio_samples_.sample(l2_->compressionRatio());
    if (!cpi_.empty()) {
        // Close every open attribution window so the CPI leaves sum to
        // exactly the measured cycles before the end-of-run audit.
        cpiFlush(now);
    }
    if (audit_interval > 0)
        audits_.enforce(); // end-of-simulation audit
    measured_cycles_ = now - start;
    measured_instructions_ = retired - start_retired;

    if (tracer != nullptr) {
        tracer->completeWall("phase.measure", wall0, tracer->nowWallUs(),
                             {{"instr_per_core", instr_per_core},
                              {"cycles", measured_cycles_}});
    }
}

void
CmpSystem::fastForward(std::uint64_t instr_per_core,
                       std::uint64_t warm_per_core)
{
    Tracer *tracer = Tracer::armed();
    const std::uint64_t t0 = tracer != nullptr ? tracer->nowWallUs() : 0;

    const std::uint64_t before = retiredTotal();
    ff_chunks_ += runFunctionalLoop(instr_per_core, warm_per_core);
    const std::uint64_t cores = cores_.size();
    const std::uint64_t budget = instr_per_core * cores;
    ff_instructions_ += budget;
    ff_skip_instructions_ +=
        (instr_per_core - std::min(warm_per_core, instr_per_core)) * cores;
    ff_expected_ += budget;
    ff_observed_ += retiredTotal() - before;

    if (tracer != nullptr) {
        tracer->completeWall("phase.fastforward", t0, tracer->nowWallUs(),
                             {{"instr_per_core", instr_per_core}});
    }
}

std::vector<ValueStore::Op>
CmpSystem::fastForwardJournaled(std::uint64_t instr_per_core)
{
    values_->startJournal();
    fastForward(instr_per_core, 0);
    return values_->takeJournal();
}

void
CmpSystem::adoptSkip(const CmpSystem &leader,
                     const std::vector<ValueStore::Op> &ops,
                     std::uint64_t instr_per_core)
{
    cmpsim_assert(config_.cores == leader.config_.cores);
    cmpsim_assert(config_.seed == leader.config_.seed);
    cmpsim_assert(workload_.name == leader.workload_.name);

    // Same pre-condition as fastForward(): functional state must not
    // change under pending timed events.
    eq_.drain();

    // The timed detail windows between skips spend a *total* budget,
    // so per-core retirement drifts across configurations by up to
    // one window; adoption is a resync to the leader's cursors, and
    // the drift bounds the per-core gap check inside.
    const std::uint64_t slack =
        config_.sampling.detail_per_core *
        static_cast<std::uint64_t>(config_.cores);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        streams_[i]->copyStateFrom(*leader.streams_[i]);
        cores_[i]->adoptSkip(*leader.cores_[i], instr_per_core, slack);
    }
    values_->applyOps(ops);

    // The cores' retirement counters were copied to the post-skip
    // values, so both sides of the conservation audit grow by the
    // adopted budget.
    const std::uint64_t budget =
        instr_per_core * static_cast<std::uint64_t>(config_.cores);
    ff_instructions_ += budget;
    ff_skip_instructions_ += budget;
    ff_expected_ += budget;
    ff_observed_ += budget;
}

std::string
CmpSystem::runDiagnostic(Cycle now) const
{
    std::string out = "  now=" + std::to_string(now) +
                      " eq.size=" + std::to_string(eq_.size());
    const Cycle horizon = eq_.nextEventCycle();
    out += " eq.next=";
    out += horizon == kCycleNever ? "never" : std::to_string(horizon);
    for (unsigned c = 0; c < config_.cores; ++c) {
        const Cycle wake = cores_[c]->nextWake();
        out += "\n  core." + std::to_string(c) + ": nextWake=";
        out += wake == kCycleNever ? "never" : std::to_string(wake);
        out += " retired=" +
               std::to_string(cores_[c]->instructionsRetired());
    }
    return out;
}

} // namespace cmpsim
