#include "src/sample/matrix_sampler.h"

#include "src/common/log.h"
#include "src/core_api/cmp_system.h"

namespace cmpsim {

MatrixSampler::MatrixSampler(std::vector<CmpSystem *> systems)
    : systems_(std::move(systems))
{
    cmpsim_assert(!systems_.empty());
    plan_ = systems_.front()->config().sampling;
    cmpsim_assert(plan_.armed());
    for (CmpSystem *sys : systems_) {
        const SamplingPlan &p = sys->config().sampling;
        cmpsim_assert(p.ff_per_core == plan_.ff_per_core);
        cmpsim_assert(p.detail_per_core == plan_.detail_per_core);
        cmpsim_assert(p.max_intervals == plan_.max_intervals);
        cmpsim_assert(p.warm_per_core == plan_.warm_per_core);
        ff_start_.push_back(sys->fastForwarded());
    }
}

void
MatrixSampler::measureInterval(CmpSystem &sys, SamplingResult &r) const
{
    const StatSnapshot baseline = sys.stats().snapshot();
    sys.run(plan_.detail_per_core);
    r.totals.accumulate(
        StatRegistry::delta(sys.stats().snapshot(), baseline));
    r.samples.push_back(
        {.cycles = static_cast<double>(sys.cycles()),
         .instructions = static_cast<double>(sys.instructions()),
         .compression_ratio = sys.l2().compressionRatio()});
    r.detail_cycles += r.samples.back().cycles;
    r.detail_instructions += r.samples.back().instructions;
}

std::vector<SamplingResult>
MatrixSampler::run()
{
    const std::uint64_t warm = plan_.warmPerCore();
    const std::uint64_t skip = plan_.ff_per_core - warm;
    std::vector<SamplingResult> results(systems_.size());

    for (unsigned i = 0; i < plan_.max_intervals; ++i) {
        if (skip > 0) {
            const std::vector<ValueStore::Op> ops =
                systems_.front()->fastForwardJournaled(skip);
            for (std::size_t s = 1; s < systems_.size(); ++s)
                systems_[s]->adoptSkip(*systems_.front(), ops, skip);
        }
        if (warm > 0) {
            for (CmpSystem *sys : systems_)
                sys->fastForward(warm, warm);
        }
        for (std::size_t s = 0; s < systems_.size(); ++s)
            measureInterval(*systems_[s], results[s]);
    }

    for (std::size_t s = 0; s < systems_.size(); ++s) {
        SamplingResult &r = results[s];
        r.intervals = static_cast<unsigned>(r.samples.size());
        r.ff_instructions = systems_[s]->fastForwarded() - ff_start_[s];
        std::vector<double> ratio;
        for (const IntervalSample &sample : r.samples)
            ratio.push_back(sample.compression_ratio);
        r.compression_ratio = summarize(ratio);
    }
    return results;
}

} // namespace cmpsim
