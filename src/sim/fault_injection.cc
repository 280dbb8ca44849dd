#include "src/sim/fault_injection.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <string_view>

#include "src/common/log.h"
#include "src/common/parse_unsigned.h"
#include "src/common/sim_error.h"

namespace cmpsim {

namespace {

/** Every site a faultSite()/faultStallActive() probe in src/ names.
 *  parse() rejects any other, so a misspelt or retired site fails
 *  loudly instead of arming a rule that can never fire. */
constexpr std::array<std::string_view, 6> kKnownSites = {
    "l2.fill",    "link.transfer", "workload.gen",
    "core.stall", "sample.ff",     "sample.interval",
};

} // namespace

namespace detail {

/** Per-thread armed state: the plan plus this task's hit counts. */
struct ArmedFaults
{
    const FaultPlan *plan = nullptr;
    std::size_t point = kFaultAnyPoint;
    unsigned seed = kFaultAnySeed;
    std::vector<std::uint64_t> hits; ///< parallel to plan->specs()
    bool stall_latched = false;
};

// analyze-ok: shared-state fault arming is per-worker by design: each harness thread arms its own plan, so thread_local is the isolation, not a leak (DESIGN.md section 8)
constinit thread_local ArmedFaults *tl_armed = nullptr;
// analyze-ok: shared-state per-worker watchdog flag, armed and read only by the owning harness thread
constinit thread_local bool tl_has_deadline = false;

namespace {

// analyze-ok: shared-state per-worker arming storage backing tl_armed; never shared across threads
thread_local ArmedFaults tl_armed_storage;
// analyze-ok: shared-state per-worker watchdog deadline; wall-clock is confined to the containment layer and never reaches simulated state
thread_local std::chrono::steady_clock::time_point tl_deadline;

/** Does @p spec apply to the armed task at all? */
bool
applies(const FaultSpec &spec, const ArmedFaults &armed,
        const char *site)
{
    if (spec.site != site)
        return false;
    if (spec.point != kFaultAnyPoint && spec.point != armed.point)
        return false;
    if (spec.seed != kFaultAnySeed && spec.seed != armed.seed)
        return false;
    return true;
}

} // namespace

void
faultSiteSlow(const char *site)
{
    ArmedFaults &armed = *tl_armed;
    const auto &specs = armed.plan->specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const FaultSpec &spec = specs[i];
        if (spec.kind != FaultKind::Throw || spec.site != site)
            continue;
        // Hits are counted whenever the site matches so "the nth
        // occurrence" is a property of the simulation, not of the
        // point/seed selectors.
        const std::uint64_t hit = ++armed.hits[i];
        if (hit == spec.nth && applies(spec, armed, site))
            throw InjectedFault(site, spec.nth);
    }
}

bool
faultStallSlow(const char *site)
{
    ArmedFaults &armed = *tl_armed;
    if (!armed.stall_latched) {
        const auto &specs = armed.plan->specs();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const FaultSpec &spec = specs[i];
            if (spec.kind != FaultKind::Stall || spec.site != site)
                continue;
            const std::uint64_t hit = ++armed.hits[i];
            if (hit >= spec.nth && applies(spec, armed, site))
                armed.stall_latched = true;
        }
    }
    return armed.stall_latched;
}

void
checkPointDeadlineSlow(const char *where)
{
    if (std::chrono::steady_clock::now() < tl_deadline)
        return;
    tl_has_deadline = false; // throw once, not on every unwind probe
    throw WatchdogTimeout(where,
                          "wall-clock point deadline exceeded "
                          "(CMPSIM_POINT_TIMEOUT)");
}

} // namespace detail

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        // Split on ':'.
        std::vector<std::string> fields;
        std::size_t p = 0;
        while (true) {
            const std::size_t colon = entry.find(':', p);
            if (colon == std::string::npos) {
                fields.push_back(entry.substr(p));
                break;
            }
            fields.push_back(entry.substr(p, colon - p));
            p = colon + 1;
        }
        if (fields.size() < 2 || fields[0].empty()) {
            throw ConfigError("fault.spec",
                              "expected site:nth[...], got \"" + entry +
                                  "\"");
        }

        auto parseUint = [&entry]<typename T>(const std::string &s,
                                              const char *what, T &out) {
            const std::optional<T> v = parseUnsigned<T>(s);
            if (!v) {
                throw ConfigError("fault.spec",
                                  std::string("bad ") + what + " \"" + s +
                                      "\" in \"" + entry + "\"");
            }
            out = *v;
        };

        if (std::find(kKnownSites.begin(), kKnownSites.end(),
                      fields[0]) == kKnownSites.end()) {
            throw ConfigError("fault.spec",
                              "unknown site \"" + fields[0] + "\" in \"" +
                                  entry + "\"");
        }

        FaultSpec fault;
        fault.site = fields[0];
        parseUint(fields[1], "occurrence", fault.nth);
        if (fault.nth == 0) {
            throw ConfigError("fault.spec",
                              "occurrence must be >= 1 in \"" + entry +
                                  "\"");
        }
        for (std::size_t f = 2; f < fields.size(); ++f) {
            const std::string &field = fields[f];
            if (field.empty())
                continue;
            if (field == "throw") {
                fault.kind = FaultKind::Throw;
            } else if (field == "stall") {
                fault.kind = FaultKind::Stall;
            } else if (field[0] == 'p' && field.size() > 1) {
                parseUint(field.substr(1), "point selector", fault.point);
            } else if (field[0] == 's' && field.size() > 1) {
                parseUint(field.substr(1), "seed selector", fault.seed);
            } else {
                throw ConfigError("fault.spec",
                                  "unknown field \"" + field + "\" in \"" +
                                      entry + "\"");
            }
        }
        plan.specs_.push_back(std::move(fault));
    }
    return plan;
}

FaultArmGuard::FaultArmGuard(const FaultPlan &plan, std::size_t point,
                             unsigned seed)
{
    cmpsim_assert(detail::tl_armed == nullptr,
                  "nested fault arming on one thread");
    if (plan.empty())
        return;
    detail::ArmedFaults &armed = detail::tl_armed_storage;
    armed.plan = &plan;
    armed.point = point;
    armed.seed = seed;
    armed.hits.assign(plan.specs().size(), 0);
    armed.stall_latched = false;
    detail::tl_armed = &armed;
}

FaultArmGuard::~FaultArmGuard()
{
    detail::tl_armed = nullptr;
}

DeadlineGuard::DeadlineGuard(double seconds)
{
    if (!(seconds > 0.0))
        return;
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    // A deadline steady_clock cannot represent is no deadline: the
    // cast below would overflow. The one-second margin absorbs double
    // rounding near the clock's limit.
    const std::chrono::duration<double> room =
        Clock::time_point::max() - now;
    if (!(seconds < room.count() - 1.0))
        return;
    detail::tl_deadline =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
    detail::tl_has_deadline = true;
}

DeadlineGuard::~DeadlineGuard()
{
    detail::tl_has_deadline = false;
}

} // namespace cmpsim
