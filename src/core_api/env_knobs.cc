#include "src/core_api/env_knobs.h"

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
    k.journal = envValue(raw, "CMPSIM_JOURNAL");

    k.audit = unsignedKnob<Cycle>(raw, "CMPSIM_AUDIT");
    k.watchdog = unsignedKnob<Cycle>(raw, "CMPSIM_WATCHDOG");
    k.cpi_stack = boolKnob(raw, "CMPSIM_CPISTACK");

    k.prof = boolKnob(raw, "CMPSIM_PROF").value_or(false);
    return k;
}

} // namespace cmpsim
