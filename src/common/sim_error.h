/**
 * @file
 * Structured error taxonomy for fault-tolerant experiment execution
 * (DESIGN.md §8).
 *
 * Every failure the simulator can raise carries a kind (what class of
 * thing went wrong), a context (the site that detected it, e.g.
 * "l2.fill" or "config.cores") and a message. The experiment layer
 * contains every kind to the (point, seed) task that raised it and
 * reports the kind in the point's outcome.
 *
 * The legacy cmpsim_fatal()/cmpsim_panic() reporters throw
 * ConfigError/InvariantError respectively (src/common/log.cc), so a
 * single bad point in a parallel batch unwinds its own simulation
 * instead of killing the process. cmpsim_assert() still aborts: a
 * tripped assertion means in-memory state is untrustworthy.
 */

#ifndef CMPSIM_COMMON_SIM_ERROR_H
#define CMPSIM_COMMON_SIM_ERROR_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cmpsim {

/** Failure classes, ordered roughly by how deterministic they are. */
enum class ErrorKind
{
    Config,    ///< the user asked for an impossible system
    Workload,  ///< benchmark input missing or malformed
    Invariant, ///< a simulator invariant was violated (a cmpsim bug)
    Watchdog,  ///< no forward progress (livelock) or deadline missed
    Injected,  ///< deliberately injected by the fault harness
    Internal,  ///< wrapped foreign exception / multi-task failure
};

/** Stable lower-case name of @p kind ("config", "watchdog", ...). */
const char *errorKindName(ErrorKind kind);

/** Base of the simulator's exception hierarchy. */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorKind kind, std::string context,
             const std::string &message);

    ErrorKind kind() const { return kind_; }

    /** The site that raised the error, e.g. "l2.fill". */
    const std::string &context() const { return context_; }

  private:
    ErrorKind kind_;
    std::string context_;
};

/** The requested SystemConfig (or environment knob) is impossible. */
class ConfigError : public SimError
{
  public:
    ConfigError(std::string context, const std::string &message);
};

/** A workload input (benchmark name) is unusable. */
class WorkloadError : public SimError
{
  public:
    WorkloadError(std::string context, const std::string &message);
};

/** A simulator invariant failed — the run's results are untrustworthy. */
class InvariantError : public SimError
{
  public:
    InvariantError(std::string context, const std::string &message);
};

/** The simulation stopped making progress (cycle-based watchdog) or
 *  overran its wall-clock deadline (CMPSIM_POINT_TIMEOUT). */
class WatchdogTimeout : public SimError
{
  public:
    WatchdogTimeout(std::string context, const std::string &message);
};

/** Raised at a named fault site by the injection harness
 *  (CMPSIM_FAULT; src/sim/fault_injection.h). */
class InjectedFault : public SimError
{
  public:
    InjectedFault(std::string site, std::uint64_t nth);
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_SIM_ERROR_H
