#include "src/audit/invariant_registry.h"

#include "src/common/log.h"

namespace cmpsim {

void
InvariantRegistry::add(const std::string &name, Check fn)
{
    cmpsim_assert(fn != nullptr);
    for (const auto &[existing, _] : checks_) {
        if (existing == name)
            cmpsim_panic("duplicate invariant name \"%s\"", name.c_str());
    }
    checks_.emplace_back(name, std::move(fn));
}

std::vector<InvariantFailure>
InvariantRegistry::check() const
{
    std::vector<InvariantFailure> failures;
    for (const auto &[name, fn] : checks_) {
        std::string why;
        if (!fn(why))
            failures.push_back(InvariantFailure{name, why});
    }
    ++passes_;
    return failures;
}

void
InvariantRegistry::enforce() const
{
    for (const auto &[name, fn] : checks_) {
        std::string why;
        if (!fn(why)) {
            cmpsim_panic("invariant \"%s\" violated: %s", name.c_str(),
                         why.empty() ? "(no detail)" : why.c_str());
        }
    }
    ++passes_;
}

std::vector<std::string>
InvariantRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(checks_.size());
    for (const auto &[name, _] : checks_)
        out.push_back(name);
    return out;
}

} // namespace cmpsim
