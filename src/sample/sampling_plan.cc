#include "src/sample/sampling_plan.h"

#include <cstring>
#include <optional>

#include "src/common/parse_unsigned.h"
#include "src/common/sim_error.h"

namespace cmpsim {

namespace {

[[noreturn]] void
badSpec(const std::string &spec, const std::string &why)
{
    throw ConfigError(
        "config.sampling",
        "bad sampling spec \"" + spec + "\": " + why +
            " (expected <ff>:<detail>:<n>[:warm<instr>])");
}

/** The count from @p p up to the next ':' (or the end); leaves @p p
 *  there. */
std::uint64_t
parseField(const std::string &spec, const char *&p, const char *what)
{
    const std::string_view field(p, std::strcspn(p, ":"));
    const std::optional<std::uint64_t> v =
        parseUnsigned<std::uint64_t>(field);
    if (!v) {
        badSpec(spec, std::string("bad ") + what + " \"" +
                          std::string(field) + "\"");
    }
    p += field.size();
    return *v;
}

} // namespace

SamplingPlan
SamplingPlan::parse(const std::string &spec)
{
    SamplingPlan plan;
    const char *p = spec.c_str();
    plan.ff_per_core = parseField(spec, p, "fast-forward length");
    if (*p != ':')
        badSpec(spec, "missing ':' after fast-forward length");
    ++p;
    plan.detail_per_core = parseField(spec, p, "detail length");
    if (*p != ':')
        badSpec(spec, "missing ':' after detail length");
    ++p;
    const std::uint64_t n = parseField(spec, p, "interval count");
    if (n > 1000000)
        badSpec(spec, "interval count " + std::to_string(n) +
                          " is absurd (max 1000000)");
    plan.max_intervals = static_cast<unsigned>(n);
    if (*p == ':') {
        ++p;
        if (std::strncmp(p, "warm", 4) != 0)
            badSpec(spec, "expected warm<instr> suffix");
        p += 4;
        plan.warm_per_core = parseField(spec, p, "warm instruction count");
    }
    if (*p != '\0')
        badSpec(spec, std::string("trailing garbage \"") + p + "\"");
    return plan;
}

} // namespace cmpsim
