/**
 * @file
 * The one place configuration enters from the environment: every
 * CMPSIM_* knob is read and parsed by readEnvKnobs(), and nothing else
 * under src/ or tools/ calls getenv (enforced by the analyzer's
 * knob-registry check, DESIGN.md §11). One parse rule per value type,
 * each ConfigError naming the knob:
 *   unsigned  empty = unset; 0 is a value; else decimal digits that
 *             fit the field (parseUnsigned)
 *   boolean   empty = unset; else "0" or "1"
 *   path      empty = unset
 *
 * Precedence: SystemConfig defaults, then the environment (applied by
 * makeConfig()), then whatever code or a CLI flag sets afterwards.
 * Parsed afresh on every call: tests change variables between calls,
 * and no timed path reads it.
 */

#ifndef CMPSIM_CORE_API_ENV_KNOBS_H
#define CMPSIM_CORE_API_ENV_KNOBS_H

#include <map>
#include <optional>
#include <string>

#include "src/core_api/experiment.h"

namespace cmpsim {

/** Every CMPSIM_* environment knob, parsed. */
struct EnvKnobs
{
    unsigned scale = 4;  ///< CMPSIM_SCALE: capacity divisor
    RunLengths lengths;  ///< CMPSIM_WARMUP / CMPSIM_MEASURE
    unsigned seeds = 2;  ///< CMPSIM_SEEDS: seeds per bench point
    /** CMPSIM_JOBS: runner workers (0 = one per hardware thread). */
    unsigned jobs = 0;
    std::string journal; ///< CMPSIM_JOURNAL: runPoints()'s journal file

    // Applied by makeConfig(); unset leaves the SystemConfig default.
    std::optional<Cycle> audit;            ///< CMPSIM_AUDIT
    std::optional<Cycle> watchdog;         ///< CMPSIM_WATCHDOG
    std::optional<bool> cpi_stack;         ///< CMPSIM_CPISTACK

    std::string trace;  ///< CMPSIM_TRACE: Chrome trace file
    bool prof = false;  ///< CMPSIM_PROF: arm the scoped profiler

    /** The raw value of every knob set non-empty, by name: the
     *  run report's "knobs" object. */
    std::map<std::string, std::string> raw;
};

/** Parse every CMPSIM_* knob; throws ConfigError on the first
 *  malformed one, whichever it is. */
EnvKnobs readEnvKnobs();

} // namespace cmpsim

#endif // CMPSIM_CORE_API_ENV_KNOBS_H
