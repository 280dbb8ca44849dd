#include "src/core_api/env_knobs.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/common/parse_unsigned.h"
#include "src/common/sim_error.h"

namespace cmpsim {

namespace {

/** The variable's value; "" when it is unset. */
std::string
envValue(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr ? v : "";
}

[[noreturn]] void
badValue(const char *name, const std::string &v,
         const std::string &expected)
{
    throw ConfigError(name, "bad value \"" + v + "\" (expected " +
                                expected + ")");
}

template <typename T>
std::optional<T>
unsignedKnob(const char *name)
{
    const std::string v = envValue(name);
    if (v.empty())
        return std::nullopt;
    const std::optional<T> parsed = parseUnsigned<T>(v);
    if (!parsed) {
        badValue(name, v,
                 "an unsigned integer <= " +
                     std::to_string(std::numeric_limits<T>::max()));
    }
    return parsed;
}

std::optional<bool>
boolKnob(const char *name)
{
    const std::string v = envValue(name);
    if (v.empty())
        return std::nullopt;
    if (v != "0" && v != "1")
        badValue(name, v, "0 or 1");
    return v == "1";
}

/** Seconds; 0 when unset. */
double
secondsKnob(const char *name)
{
    const std::string v = envValue(name);
    if (v.empty())
        return 0.0;
    char *end = nullptr;
    const double s = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || !std::isfinite(s) || s < 0.0)
        badValue(name, v, "finite seconds >= 0");
    return s;
}

} // namespace

EnvKnobs
readEnvKnobs()
{
    EnvKnobs k;
    k.scale = unsignedKnob<unsigned>("CMPSIM_SCALE").value_or(k.scale);
    k.lengths.warmup_per_core =
        unsignedKnob<std::uint64_t>("CMPSIM_WARMUP")
            .value_or(k.lengths.warmup_per_core);
    k.lengths.measure_per_core =
        unsignedKnob<std::uint64_t>("CMPSIM_MEASURE")
            .value_or(k.lengths.measure_per_core);
    k.seeds = unsignedKnob<unsigned>("CMPSIM_SEEDS").value_or(k.seeds);
    k.jobs = unsignedKnob<unsigned>("CMPSIM_JOBS").value_or(k.jobs);

    // Paths and the fault plan: empty is unset (an empty plan).
    k.policy.journal_path = envValue("CMPSIM_JOURNAL");
    k.policy.point_timeout_sec = secondsKnob("CMPSIM_POINT_TIMEOUT");
    k.policy.faults = FaultPlan::parse(envValue("CMPSIM_FAULT"));
    k.policy.report_path = envValue("CMPSIM_REPORT");
    k.policy.progress = boolKnob("CMPSIM_PROGRESS").value_or(false);

    k.audit = unsignedKnob<Cycle>("CMPSIM_AUDIT");
    k.watchdog = unsignedKnob<Cycle>("CMPSIM_WATCHDOG");
    k.sample_cycles = unsignedKnob<Cycle>("CMPSIM_SAMPLE_CYCLES");
    k.cpi_stack = boolKnob("CMPSIM_CPISTACK");
    if (const std::string v = envValue("CMPSIM_SAMPLING"); !v.empty())
        k.sampling = SamplingPlan::parse(v);

    k.trace = envValue("CMPSIM_TRACE");
    k.prof = boolKnob("CMPSIM_PROF").value_or(false);
    return k;
}

} // namespace cmpsim
