#include "src/core_api/env_knobs.h"

#include <cmath>
#include <cstdlib>

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
badValue(const char *name, const std::string &v, const char *expected)
{
    throw ConfigError(name, "bad value \"" + v + "\" (expected " +
                                expected + ")");
}

std::optional<std::uint64_t>
unsignedKnob(const char *name)
{
    const std::string v = envValue(name);
    if (v.empty())
        return std::nullopt;
    char *end = nullptr;
    const std::uint64_t parsed = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        badValue(name, v, "an unsigned integer");
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
    k.scale = static_cast<unsigned>(
        unsignedKnob("CMPSIM_SCALE").value_or(k.scale));
    k.lengths.warmup_per_core = unsignedKnob("CMPSIM_WARMUP")
                                    .value_or(k.lengths.warmup_per_core);
    k.lengths.measure_per_core = unsignedKnob("CMPSIM_MEASURE")
                                     .value_or(k.lengths.measure_per_core);
    k.seeds = static_cast<unsigned>(
        unsignedKnob("CMPSIM_SEEDS").value_or(k.seeds));
    k.jobs = static_cast<unsigned>(
        unsignedKnob("CMPSIM_JOBS").value_or(k.jobs));

    // Paths and the fault plan: empty is unset (an empty plan).
    k.policy.journal_path = envValue("CMPSIM_JOURNAL");
    k.policy.point_timeout_sec = secondsKnob("CMPSIM_POINT_TIMEOUT");
    k.policy.faults = FaultPlan::parse(envValue("CMPSIM_FAULT"));
    k.policy.report_path = envValue("CMPSIM_REPORT");
    k.policy.progress = boolKnob("CMPSIM_PROGRESS").value_or(false);

    k.audit = unsignedKnob("CMPSIM_AUDIT");
    k.watchdog = unsignedKnob("CMPSIM_WATCHDOG");
    k.sample_cycles = unsignedKnob("CMPSIM_SAMPLE_CYCLES");
    k.cpi_stack = boolKnob("CMPSIM_CPISTACK");
    if (const std::string v = envValue("CMPSIM_DRAM"); !v.empty())
        parseDramSpec(v, k.dram.emplace());
    if (const std::string v = envValue("CMPSIM_SAMPLING"); !v.empty())
        k.sampling = SamplingPlan::parse(v);

    k.trace = envValue("CMPSIM_TRACE");
    k.prof = boolKnob("CMPSIM_PROF").value_or(false);
    return k;
}

} // namespace cmpsim
