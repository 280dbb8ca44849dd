#include "src/common/sim_error.h"

namespace cmpsim {

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Config:
        return "config";
      case ErrorKind::Workload:
        return "workload";
      case ErrorKind::Invariant:
        return "invariant";
      case ErrorKind::Watchdog:
        return "watchdog";
      case ErrorKind::Internal:
        return "internal";
    }
    return "unknown";
}

namespace {

std::string
compose(ErrorKind kind, const std::string &context,
        const std::string &message)
{
    std::string out = "[";
    out += errorKindName(kind);
    out += "] ";
    out += context;
    out += ": ";
    out += message;
    return out;
}

} // namespace

SimError::SimError(ErrorKind kind, std::string context,
                   const std::string &message)
    : std::runtime_error(compose(kind, context, message)),
      kind_(kind), context_(std::move(context))
{
}

ConfigError::ConfigError(std::string context, const std::string &message)
    : SimError(ErrorKind::Config, std::move(context), message)
{
}

WorkloadError::WorkloadError(std::string context,
                             const std::string &message)
    : SimError(ErrorKind::Workload, std::move(context), message)
{
}

InvariantError::InvariantError(std::string context,
                               const std::string &message)
    : SimError(ErrorKind::Invariant, std::move(context), message)
{
}

WatchdogTimeout::WatchdogTimeout(std::string context,
                                 const std::string &message)
    : SimError(ErrorKind::Watchdog, std::move(context), message)
{
}

} // namespace cmpsim
