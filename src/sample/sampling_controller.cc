#include "src/sample/sampling_controller.h"

#include "src/common/log.h"
#include "src/core_api/cmp_system.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

SamplingController::SamplingController(CmpSystem &sys)
    : sys_(sys), plan_(sys.config().sampling)
{
    cmpsim_assert(plan_.armed());
    ff_start_ = sys.fastForwardEngine()->instructionsAdvanced();
}

void
SamplingController::beginInterval()
{
    baseline_ = sys_.stats().snapshot();
}

void
SamplingController::closeInterval()
{
    const StatSnapshot delta =
        StatRegistry::delta(sys_.stats().snapshot(), baseline_);
    samples_.push_back(
        {.cycles = static_cast<double>(sys_.cycles()),
         .instructions = static_cast<double>(sys_.instructions()),
         .compression_ratio = sys_.l2().compressionRatio()});
    detail_totals_.accumulate(delta);
    baseline_ = StatSnapshot{};
}

void
SamplingController::measureInterval()
{
    faultSite("sample.interval");
    beginInterval();
    sys_.run(plan_.detail_per_core);
    closeInterval();
}

SamplingResult
SamplingController::run()
{
    while (samples_.size() < plan_.max_intervals) {
        if (plan_.ff_per_core > 0)
            sys_.fastForward(plan_.ff_per_core, plan_.warmPerCore());
        measureInterval();
    }
    return reduce();
}

SamplingResult
SamplingController::reduce() const
{
    SamplingResult r;
    r.intervals = static_cast<unsigned>(samples_.size());
    r.ff_instructions =
        sys_.fastForwardEngine()->instructionsAdvanced() - ff_start_;
    r.totals = detail_totals_;
    r.samples = samples_;

    std::vector<double> ratio;
    for (const IntervalSample &s : samples_) {
        ratio.push_back(s.compression_ratio);
        r.detail_cycles += s.cycles;
        r.detail_instructions += s.instructions;
    }
    r.compression_ratio = summarize(ratio);
    return r;
}

} // namespace cmpsim
