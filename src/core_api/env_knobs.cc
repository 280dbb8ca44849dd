#include "src/core_api/env_knobs.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/common/parse_unsigned.h"
#include "src/common/sim_error.h"

namespace cmpsim {

namespace {

using RawKnobs = std::map<std::string, std::string>;

/** The variable's value; "" when it is unset. A non-empty value is
 *  also kept in @p raw. */
std::string
envValue(RawKnobs &raw, const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return "";
    raw[name] = v;
    return v;
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
unsignedKnob(RawKnobs &raw, const char *name)
{
    const std::string v = envValue(raw, name);
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
boolKnob(RawKnobs &raw, const char *name)
{
    const std::string v = envValue(raw, name);
    if (v.empty())
        return std::nullopt;
    if (v != "0" && v != "1")
        badValue(name, v, "0 or 1");
    return v == "1";
}

/** Seconds; 0 when unset. */
double
secondsKnob(RawKnobs &raw, const char *name)
{
    const std::string v = envValue(raw, name);
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
    RawKnobs &raw = k.raw;
    k.scale =
        unsignedKnob<unsigned>(raw, "CMPSIM_SCALE").value_or(k.scale);
    k.lengths.warmup_per_core =
        unsignedKnob<std::uint64_t>(raw, "CMPSIM_WARMUP")
            .value_or(k.lengths.warmup_per_core);
    k.lengths.measure_per_core =
        unsignedKnob<std::uint64_t>(raw, "CMPSIM_MEASURE")
            .value_or(k.lengths.measure_per_core);
    k.seeds = unsignedKnob<unsigned>(raw, "CMPSIM_SEEDS").value_or(k.seeds);
    k.jobs = unsignedKnob<unsigned>(raw, "CMPSIM_JOBS").value_or(k.jobs);

    // Paths and the fault plan: empty is unset (an empty plan).
    k.policy.journal_path = envValue(raw, "CMPSIM_JOURNAL");
    k.policy.point_timeout_sec = secondsKnob(raw, "CMPSIM_POINT_TIMEOUT");
    k.policy.faults = FaultPlan::parse(envValue(raw, "CMPSIM_FAULT"));
    k.policy.report_path = envValue(raw, "CMPSIM_REPORT");
    k.policy.progress =
        boolKnob(raw, "CMPSIM_PROGRESS").value_or(false);

    k.audit = unsignedKnob<Cycle>(raw, "CMPSIM_AUDIT");
    k.watchdog = unsignedKnob<Cycle>(raw, "CMPSIM_WATCHDOG");
    k.cpi_stack = boolKnob(raw, "CMPSIM_CPISTACK");

    k.trace = envValue(raw, "CMPSIM_TRACE");
    k.prof = boolKnob(raw, "CMPSIM_PROF").value_or(false);
    return k;
}

} // namespace cmpsim
