#include "src/obs/profiler.h"

#include <map>
#include <mutex>

namespace cmpsim {

namespace detail {
std::atomic<bool> g_prof_enabled{false};
} // namespace detail

namespace {

/** Head of the intrusive site list; push-only, mutex-serialized. */
std::atomic<ProfSite *> g_sites{nullptr};
std::mutex g_register_mutex;

} // namespace

void
ProfSite::profRegisterSite(ProfSite &site)
{
    std::lock_guard<std::mutex> lock(g_register_mutex);
    site.next = g_sites.load(std::memory_order_relaxed);
    g_sites.store(&site, std::memory_order_release);
}

void
setProfEnabled(bool on)
{
    detail::g_prof_enabled.store(on, std::memory_order_relaxed);
}

std::vector<ProfSample>
profSnapshot()
{
    // Merge by name: distinct site objects may share a label (e.g. a
    // scope in a header that ends up instantiated more than once).
    std::map<std::string, ProfSample> merged;
    for (const ProfSite *s = g_sites.load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
        const std::uint64_t calls =
            s->calls.load(std::memory_order_relaxed);
        if (calls == 0)
            continue;
        ProfSample &sample = merged[s->name];
        sample.name = s->name;
        sample.calls += calls;
        sample.total_ns += s->total_ns.load(std::memory_order_relaxed);
    }
    std::vector<ProfSample> out;
    out.reserve(merged.size());
    for (auto &[name, sample] : merged) {
        (void)name;
        out.push_back(std::move(sample));
    }
    return out;
}

void
profReset()
{
    for (ProfSite *s = g_sites.load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
        s->calls.store(0, std::memory_order_relaxed);
        s->total_ns.store(0, std::memory_order_relaxed);
    }
}

} // namespace cmpsim
