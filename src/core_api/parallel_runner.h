/**
 * @file
 * Parallel experiment execution: fan a batch of independent
 * (config, workload, seed) simulation points across worker threads,
 * with crash containment and journaled resume (DESIGN.md §8).
 *
 * Every point is a pure function of (SystemConfig, workload name,
 * RunLengths, seed) — each run owns its CmpSystem, EventQueue and
 * Random — so runs can execute on any thread in any order. Results
 * are written into pre-sized slots indexed by submission order, which
 * makes the output vector (and therefore every table printed from
 * it) byte-identical regardless of the worker count.
 *
 * Failure model: runPointsChecked() never lets one broken point sink
 * the batch. Each (point, seed) task runs once; whatever it throws is
 * caught on its worker and recorded as a PointOutcome. A point is a
 * pure function of its spec, so rerunning a failure would fail the
 * same way; a rerun under the journal re-simulates only the failed
 * points. The runPoints() wrapper keeps the all-or-nothing contract
 * by throwing a SimError summarising any failures.
 *
 * Journaled resume: with a journal path, every completed point's spec
 * fingerprint and summaryBytes are appended to a journal file as soon
 * as its last seed finishes. A rerun over the same journal restores
 * those points byte-identically (asserted by
 * tests/journal_resume_test.cc) and only simulates the rest.
 *
 * runPoints() takes its journal path (CMPSIM_JOURNAL), and a zero
 * worker count its jobs, from the environment knobs
 * (src/core_api/env_knobs.h).
 */

#ifndef CMPSIM_CORE_API_PARALLEL_RUNNER_H
#define CMPSIM_CORE_API_PARALLEL_RUNNER_H

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/sim_error.h"
#include "src/core_api/experiment.h"

namespace cmpsim {

/** One experiment point: a config/workload pair run over N seeds. */
struct PointSpec
{
    SystemConfig config;
    std::string benchmark;
    RunLengths lengths;
    unsigned seeds = 1;
};

/** How one point of a checked batch ended up. */
enum class PointStatus
{
    Ok,       ///< simulated this run; all seeds succeeded
    /** Not simulated: loaded byte-identically from the journal
     *  (attempts == 0). */
    Restored,
    Failed,   ///< at least one seed failed
};

/** Per-point execution record from runPointsChecked(). */
struct PointOutcome
{
    PointStatus status = PointStatus::Ok;
    /** Kind of the first recorded failure (valid when Failed). */
    ErrorKind error_kind = ErrorKind::Internal;
    /** what() of the first recorded failure ("" when not Failed). */
    std::string error;
    /** 1 for a simulated point, 0 for a journal-restored one
     *  (nothing was executed). */
    unsigned attempts = 0;
};

/** Everything a checked batch produced: summaries + outcomes. */
struct BatchResult
{
    /** One summary per input point, input order. A Failed point's
     *  summary holds whatever seeds did complete; its aggregate
     *  cycles stay default-initialised. */
    std::vector<MetricSummary> summaries;
    std::vector<PointOutcome> outcomes; ///< parallel to summaries

    std::size_t failed() const; ///< points with status Failed

    /** Multi-line human-readable digest of every failure, or ""
     *  when the batch is clean. */
    std::string failureSummary() const;

    /** Throw a SimError of the first failure's kind whose message is
     *  failureSummary(); no-op when the batch is clean. */
    void throwIfFailed() const;
};

/**
 * Run every (point, seed) task on min(@p jobs, tasks) threads, the
 * calling thread among them (@p jobs 0 = CMPSIM_JOBS if that is
 * non-zero, else one per hardware thread). With @p journal_path set,
 * journaled points are restored instead of simulated and every
 * completed point is appended to the journal. One point's failure is
 * contained: the rest of the batch still runs to completion and the
 * failure is recorded in the returned outcomes. Deterministic: the
 * summaries are a pure function of @p points (and the journal
 * contents), independent of jobs. Throws only on batch-level misuse
 * (bad journal path, a journal path naming a file that is not a
 * journal, zero seeds).
 */
BatchResult runPointsChecked(const std::vector<PointSpec> &points,
                             unsigned jobs = 0,
                             const std::string &journal_path = "");

/**
 * Strict wrapper: runPointsChecked() journaling to CMPSIM_JOURNAL
 * (EnvKnobs::journal), returning just the summaries; any point
 * failure throws (BatchResult::throwIfFailed()). runs[s] within each
 * summary is seed s+1.
 */
std::vector<MetricSummary> runPoints(const std::vector<PointSpec> &points,
                                     unsigned jobs = 0);

/**
 * Byte-exact serialization of a summary's every metric (hexfloat, so
 * no rounding ambiguity), for fingerprint comparison in determinism
 * gates and for journal records. Feed to fnv1a() from
 * src/common/fingerprint.h.
 */
std::string summaryBytes(const MetricSummary &summary);

/** Inverse of summaryBytes(): rebuild @p out (aggregate recomputed
 *  with summarize(), so re-serialising is byte-identical). Returns
 *  false on malformed input, leaving @p out unspecified. */
bool parseSummaryBytes(const std::string &bytes, MetricSummary &out);

/**
 * Stable serialization of everything that determines a point's
 * results — the behavioural config knobs (not seed, which the runner
 * owns, and not observability knobs like audit/watchdog settings),
 * the benchmark, run lengths, and seed count. fnv1a() of this is the
 * journal key.
 */
std::string pointSpecBytes(const PointSpec &spec);

} // namespace cmpsim

#endif // CMPSIM_CORE_API_PARALLEL_RUNNER_H
