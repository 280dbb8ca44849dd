/**
 * @file
 * Invariant-audit registry: the safety net every simulation component
 * hangs its named consistency checks on.
 *
 * Simulator bugs rarely crash — they silently corrupt miss rates,
 * bandwidth counters and speedups (exactly the numbers the paper's
 * figures are built from). Components therefore register named check
 * functions here; CmpSystem runs the whole registry every
 * SystemConfig::audit_interval cycles and at end-of-simulation, and
 * panics with the failing invariant's name plus a description of the
 * offending component state.
 *
 * Two evaluation modes:
 *  - enforce(): production/test runs — panic on the first failure;
 *  - check():   audit unit tests — collect every failure and return
 *               them without aborting, so deliberate corruption can be
 *               asserted on.
 */

#ifndef CMPSIM_AUDIT_INVARIANT_REGISTRY_H
#define CMPSIM_AUDIT_INVARIANT_REGISTRY_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace cmpsim {

/** One failed invariant: its registered name + component state. */
struct InvariantFailure
{
    std::string name;   ///< registered invariant name ("l2.set_segments")
    std::string detail; ///< offending component state, human-readable
};

/** Name -> check-function registry for simulation invariants. */
class InvariantRegistry
{
  public:
    /**
     * One invariant check. Return true when the invariant holds;
     * otherwise fill @p why with the offending component state (values
     * of the counters/fields that disagree) and return false. Checks
     * may keep mutable state (e.g. the last observed cycle for
     * monotonicity checks) but must never modify simulation state.
     */
    using Check = std::function<bool(std::string &why)>;

    /** Register @p fn under @p name. Names should be hierarchical
     *  dotted paths ("l2.set_segments", "eq.monotonic_now"). */
    void add(const std::string &name, Check fn);

    /** Run every check; return all failures (never aborts). */
    std::vector<InvariantFailure> check() const;

    /** Run every check; panic with name + state on the first failure. */
    void enforce() const;

    std::size_t size() const { return checks_.size(); }

    /** Registered invariant names, in registration order. */
    std::vector<std::string> names() const;

    /** Number of completed full audit passes (check() or enforce()). */
    std::uint64_t passesRun() const { return passes_; }

  private:
    std::vector<std::pair<std::string, Check>> checks_;
    mutable std::uint64_t passes_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_AUDIT_INVARIANT_REGISTRY_H
