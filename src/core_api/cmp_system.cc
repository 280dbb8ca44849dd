#include "src/core_api/cmp_system.h"

#include <algorithm>
#include <string>

#include "src/audit/audits.h"
#include "src/common/sim_error.h"

namespace cmpsim {

namespace {
/** Cycles between effective-cache-size samples (Table 3 methodology:
 *  "periodically measuring the average effective cache size"). */
constexpr Cycle kRatioSampleInterval = 20000;

/** Functional execution interleaves cores in chunks this large so
 *  the shared region and the L2 see a realistic interleaving. */
constexpr std::uint64_t kFunctionalChunk = 2000;

/** @return @p ok; on a failure, prefix @p why with the failing
 *  instance's stats name (@p kind followed by @p index). */
bool
named(bool ok, const char *kind, std::size_t index, std::string &why)
{
    if (!ok)
        why = kind + std::to_string(index) + ": " + why;
    return ok;
}
} // namespace

CmpSystem::Tile::Tile(const SystemConfig &config,
                      const WorkloadParams &workload, unsigned cpu,
                      EventQueue &eq, ValueStore &values, L2Cache &l2,
                      const MissJournal *journal)
    : l1i(eq, l2, cpu, config.l1iParams()),
      l1d(eq, l2, cpu, config.l1Params()),
      stream(workload, values, cpu, config.seed),
      core(eq, l1i, l1d, values, stream, cpu, config.coreParams())
{
    if (config.prefetching) {
        pf_l1i.emplace(config.l1PrefetcherParams());
        pf_l1d.emplace(config.l1PrefetcherParams());
        ad_l1i.emplace(config.l1_startup_prefetches,
                       config.adaptive_prefetch);
        ad_l1d.emplace(config.l1_startup_prefetches,
                       config.adaptive_prefetch);
        l1i.setPrefetcher(&*pf_l1i);
        l1d.setPrefetcher(&*pf_l1d);
        l1i.setAdaptiveController(&*ad_l1i);
        l1d.setAdaptiveController(&*ad_l1d);
    }
    if (config.cpi_stack) {
        cpi.emplace(cpu, config.coreParams().rob_entries, journal);
        core.setCpi(&*cpi);
    }
}

CmpSystem::CmpSystem(const SystemConfig &config,
                     const WorkloadParams &workload)
    : config_(config), workload_(workload.scaled(config.scale))
{
    config_.validate();

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
    l2_->registerStats(registry_, "l2");
    memory_->registerStats(registry_, "mem");

    if (config_.cpi_stack) {
        // CPI-stack / miss-genealogy layer (DESIGN.md §9): one journal
        // fed by the uncore timing layers plus one account per tile.
        // All its stats land in cpi_registry_ so stats() dumps — and
        // the determinism fingerprints — never change when it's armed.
        const MemoryParams mp = config_.memoryParams();
        miss_journal_ = std::make_unique<MissJournal>(
            mp.link_bytes_per_cycle, mp.infinite_bandwidth);
        l2_->setJournal(miss_journal_.get());
        memory_->setJournal(miss_journal_.get());
        miss_journal_->registerStats(cpi_registry_, "genealogy");
    }

    if (config_.prefetching) {
        // One saturating counter for the shared L2 (Section 3), with
        // per-core L2 prefetch engines [7] (or one shared, ablation).
        l2_adaptive_.emplace(config_.l2_startup_prefetches,
                             config_.adaptive_prefetch);
        l2_->setAdaptiveController(&*l2_adaptive_);
        l2_adaptive_->registerStats(registry_, "ad.l2");
        const unsigned engines =
            config_.shared_l2_prefetcher ? 1 : config_.cores;
        pf_l2_.reserve(engines); // the L2 points into it
        for (unsigned e = 0; e < engines; ++e) {
            pf_l2_.emplace_back(config_.l2PrefetcherParams());
            pf_l2_[e].registerStats(registry_, "pf.l2." + std::to_string(e));
        }
        for (unsigned c = 0; c < config_.cores; ++c)
            l2_->setPrefetcher(c, &pf_l2_[engines == 1 ? 0 : c]);
    }

    tiles_.reserve(config_.cores);
    for (unsigned c = 0; c < config_.cores; ++c) {
        Tile &t = *tiles_.emplace_back(std::make_unique<Tile>(
            config_, workload_, c, eq_, *values_, *l2_,
            miss_journal_.get()));
        const std::string idx = std::to_string(c);
        t.l1i.registerStats(registry_, "l1i." + idx);
        t.l1d.registerStats(registry_, "l1d." + idx);
        t.core.registerStats(registry_, "core." + idx);
        if (config_.prefetching) {
            t.pf_l1i->registerStats(registry_, "pf.l1i." + idx);
            t.pf_l1d->registerStats(registry_, "pf.l1d." + idx);
            t.ad_l1i->registerStats(registry_, "ad.l1i." + idx);
            t.ad_l1d->registerStats(registry_, "ad.l1d." + idx);
        }
        if (t.cpi)
            t.cpi->registerStats(cpi_registry_, "cpi." + idx);
    }
    l2_->setL1Invalidator([this](unsigned cpu, Addr line) {
        const bool d_dirty = tiles_[cpu]->l1d.invalidateLine(line);
        const bool i_dirty = tiles_[cpu]->l1i.invalidateLine(line);
        return d_dirty || i_dirty;
    });
    l2_->setL1Downgrader([this](unsigned cpu, Addr line) {
        tiles_[cpu]->l1d.downgradeLine(line);
        tiles_[cpu]->l1i.downgradeLine(line);
    });

    if (config_.sampling.armed()) {
        // Statistical sampling (DESIGN.md §14): the fast-forward stats
        // are registered only when a plan is armed so unsampled runs
        // register no extra stats and their dumps stay byte-identical.
        registry_.registerCounter("sample.ff_instructions",
                                  &ff_instructions_);
        registry_.registerCounter("sample.ff_skip_instructions",
                                  &ff_skip_instructions_);
        registry_.registerCounter("sample.ff_chunks", &ff_chunks_);
    }

    registerInvariants();
}

CmpSystem::~CmpSystem() = default;

void
CmpSystem::registerInvariants()
{
    audits_.add("eq.monotonic_now",
                [this, last = Cycle{0}](std::string &why) mutable {
                    if (eq_.now() < last) {
                        why = auditFormat(
                            "now() went backwards: %llu after %llu",
                            static_cast<unsigned long long>(eq_.now()),
                            static_cast<unsigned long long>(last));
                        return false;
                    }
                    last = eq_.now();
                    return true;
                });
    audits_.add("eq.no_past_events", [this](std::string &why) {
        return auditNoPastEvents(eq_, why);
    });
    audits_.add("eq.wheel",
                [this](std::string &why) { return eq_.auditWheel(why); });

    auto on_l2 = [this](bool (L2Cache::*audit)(std::string &) const) {
        return [this, audit](std::string &why) { return (*l2_.*audit)(why); };
    };
    audits_.add("l2.set_integrity", on_l2(&L2Cache::auditSetIntegrity));
    audits_.add("l2.pf_mshr_accounting",
                on_l2(&L2Cache::auditPfMshrAccounting));
    audits_.add("l2.demand_balance", on_l2(&L2Cache::auditDemandBalance));
    audits_.add("l2.prefetch_pipeline",
                on_l2(&L2Cache::auditPrefetchPipeline));
    if (config_.prefetching) {
        audits_.add("l2.adaptive_feedback",
                    on_l2(&L2Cache::auditAdaptiveFeedback));
    }
    audits_.add("l2.onchip.busy_bytes", [this](std::string &why) {
        return auditBusyBytes(l2_->onchip(), why);
    });
    audits_.add("mem.link.byte_conservation", [this](std::string &why) {
        return auditByteConservation(memory_->link(), why);
    });

    // A per-tile check runs over every tile up to the first failure.
    auto each_tile = [this](auto check) {
        return [this, check](std::string &why) {
            for (const auto &t : tiles_) {
                if (!check(*t, why))
                    return false;
            }
            return true;
        };
    };
    // An L1 check runs over both L1s of every tile.
    auto each_l1 = [&](bool (L1Cache::*audit)(std::string &) const) {
        return each_tile([audit](const Tile &t, std::string &why) {
            const unsigned c = t.core.cpu();
            return named((t.l1i.*audit)(why), "l1i.", c, why) &&
                   named((t.l1d.*audit)(why), "l1d.", c, why);
        });
    };
    audits_.add("l1.set_integrity", each_l1(&L1Cache::auditSetIntegrity));
    audits_.add("l1.mshr_limit", each_l1(&L1Cache::auditMshrLimit));
    audits_.add("l1.access_balance", each_l1(&L1Cache::auditAccessBalance));
    if (config_.prefetching) {
        audits_.add("l1.adaptive_feedback",
                    each_l1(&L1Cache::auditAdaptiveFeedback));
    }

    audits_.add("core.done_horizon",
                each_tile([](const Tile &t, std::string &why) {
                    return t.core.auditDoneHorizon(why);
                }));
    if (config_.prefetching) {
        audits_.add("prefetch.filters", [this](std::string &why) {
            for (const auto &t : tiles_) {
                const unsigned c = t->core.cpu();
                if (!named(t->pf_l1i->auditFilters(why), "pf.l1i.", c, why) ||
                    !named(t->pf_l1d->auditFilters(why), "pf.l1d.", c, why))
                    return false;
            }
            for (std::size_t e = 0; e < pf_l2_.size(); ++e) {
                if (!named(pf_l2_[e].auditFilters(why), "pf.l2.", e, why))
                    return false;
            }
            return true;
        });
    }

    if (config_.cpi_stack) {
        // Every core's CPI leaves sum to exactly the elapsed cycles.
        audits_.add("obs.cpi_conservation",
                    each_tile([](const Tile &t, std::string &why) {
                        return t.cpi->conserved(why);
                    }));
    }
    if (config_.sampling.armed()) {
        // Fast-forwards must retire exactly the budget handed out — a
        // skipped or double-counted instruction would silently bias
        // every sampled metric.
        audits_.add("sample.conservation", [this](std::string &why) {
            if (ff_observed_ == ff_expected_)
                return true;
            why = "fast-forward retired " + std::to_string(ff_observed_) +
                  " instructions against a budget of " +
                  std::to_string(ff_expected_);
            return false;
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
    for (auto &t : tiles_) {
        if (t->cpi)
            t->cpi->resetStats();
    }
}

std::uint64_t
CmpSystem::retiredTotal() const
{
    std::uint64_t total = 0;
    for (const auto &t : tiles_)
        total += t->core.instructionsRetired();
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
        for (auto &t : tiles_) {
            if (skipping)
                t->core.runSkip(chunk);
            else
                t->core.runFunctional(chunk);
        }
        done += chunk;
        ++chunks;
    }
    return chunks;
}

void
CmpSystem::warmup(std::uint64_t instr_per_core)
{
    runFunctionalLoop(instr_per_core, instr_per_core);
    resetAllStats();
}

void
CmpSystem::run(std::uint64_t instr_per_core)
{
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
    for (auto &t : tiles_)
        min_wake = std::min(min_wake, t->core.nextWake());

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
        for (auto &t : tiles_) {
            CoreModel &core = t->core;
            if (core.nextWake() <= now)
                core.tick(now);
            retired += core.instructionsRetired();
            min_wake = std::min(min_wake, core.nextWake());
        }

        if (retired != last_retired) {
            last_retired = retired;
            last_progress = now;
        } else if (watchdog > 0 && now - last_progress >= watchdog) {
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
    // Close every open attribution window so the CPI leaves sum to
    // exactly the measured cycles before the end-of-run audit.
    for (auto &t : tiles_) {
        if (t->cpi)
            t->cpi->flush(now);
    }
    if (audit_interval > 0)
        audits_.enforce(); // end-of-simulation audit
    measured_cycles_ = now - start;
    measured_instructions_ = retired - start_retired;
}

void
CmpSystem::fastForward(std::uint64_t instr_per_core,
                       std::uint64_t warm_per_core)
{
    const std::uint64_t before = retiredTotal();
    ff_chunks_ += runFunctionalLoop(instr_per_core, warm_per_core);
    const std::uint64_t cores = tiles_.size();
    const std::uint64_t budget = instr_per_core * cores;
    ff_instructions_ += budget;
    ff_skip_instructions_ +=
        (instr_per_core - std::min(warm_per_core, instr_per_core)) * cores;
    ff_expected_ += budget;
    ff_observed_ += retiredTotal() - before;
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
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
        Tile &t = *tiles_[i];
        t.stream.copyStateFrom(leader.tiles_[i]->stream);
        t.core.adoptSkip(leader.tiles_[i]->core, instr_per_core, slack);
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
    for (const auto &t : tiles_) {
        const Cycle wake = t->core.nextWake();
        out += "\n  core." + std::to_string(t->core.cpu()) + ": nextWake=";
        out += wake == kCycleNever ? "never" : std::to_string(wake);
        out += " retired=" + std::to_string(t->core.instructionsRetired());
    }
    return out;
}

} // namespace cmpsim
