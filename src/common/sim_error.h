/**
 * @file
 * Structured error taxonomy for fault-tolerant experiment execution
 * (DESIGN.md §8).
 *
 * Every failure the simulator can raise carries a kind (what class of
 * thing went wrong), a context (the site that detected it, e.g.
 * "cmp_system.run" or "config.cores") and a message. The experiment
 * layer contains every kind to the (point, seed) task that raised it
 * and reports the kind in the point's outcome. Every kind but Internal
 * is a pure function of the point's spec: the same spec fails the
 * same way on any host.
 *
 * The legacy cmpsim_fatal()/cmpsim_panic() reporters throw
 * ConfigError/InvariantError respectively (src/common/log.cc), so a
 * single bad point in a parallel batch unwinds its own simulation
 * instead of killing the process. cmpsim_assert() still aborts: a
 * tripped assertion means in-memory state is untrustworthy.
 */

#ifndef CMPSIM_COMMON_SIM_ERROR_H
#define CMPSIM_COMMON_SIM_ERROR_H

#include <stdexcept>
#include <string>

namespace cmpsim {

/** Failure classes. */
enum class ErrorKind
{
    Config,    ///< the user asked for an impossible system
    Workload,  ///< benchmark input missing or malformed
    Invariant, ///< a simulator invariant was violated (a cmpsim bug)
    Watchdog,  ///< no instruction retired within watchdog_cycles
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

    /** The site that raised the error, e.g. "cmp_system.run". */
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

/** The simulation stopped making progress: no core retired an
 *  instruction for watchdog_cycles simulated cycles. */
class WatchdogTimeout : public SimError
{
  public:
    WatchdogTimeout(std::string context, const std::string &message);
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_SIM_ERROR_H
