/**
 * @file
 * Parallel experiment execution: fan a batch of independent
 * (config, workload, seed) simulation points across a worker pool,
 * with crash containment, bounded retry, and journaled resume
 * (DESIGN.md §8).
 *
 * Every point is a pure function of (SystemConfig, workload name,
 * RunLengths, seed) — each run owns its CmpSystem, EventQueue and
 * Random — so runs can execute on any thread in any order. Results
 * are written into pre-sized slots indexed by submission order, which
 * makes the output vector (and therefore every table printed from
 * it) byte-identical regardless of the worker count.
 *
 * Failure model: runPointsChecked() never lets one broken point sink
 * the batch. Each task's exception is caught and recorded as a
 * PointOutcome; transient failures (injected faults, watchdogs) are
 * retried up to RunPolicy::max_attempts in deterministic attempt
 * order; deterministic failures (bad config, bad workload, tripped
 * invariants) are reported once and never retried. The legacy
 * runPoints() wrapper keeps the old all-or-nothing contract by
 * throwing a SimError summarising any failures.
 *
 * Journaled resume: with RunPolicy::journal_path set, every completed
 * point's spec fingerprint and summaryBytes are appended to a journal
 * file as soon as its last seed finishes. A rerun over the same
 * journal restores those points byte-identically (asserted by
 * tests/journal_resume_test.cc) and only simulates the rest.
 *
 * Environment (read by defaultRunPolicy(), which runPoints() uses):
 *   CMPSIM_JOBS          worker threads (0/unset = hardware)
 *   CMPSIM_RETRIES       extra attempts for transient failures (def 1)
 *   CMPSIM_JOURNAL       journal file path (unset = no journal)
 *   CMPSIM_POINT_TIMEOUT per-point wall-clock deadline, seconds
 *   CMPSIM_FAULT         fault-injection plan (src/sim/fault_injection.h)
 *   CMPSIM_REPORT        batch JSON report path (unset = no report)
 *   CMPSIM_PROGRESS      "1" = per-task stderr progress lines
 */

#ifndef CMPSIM_CORE_API_PARALLEL_RUNNER_H
#define CMPSIM_CORE_API_PARALLEL_RUNNER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_error.h"
#include "src/core_api/experiment.h"
#include "src/sim/fault_injection.h"

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
    Failed,   ///< at least one seed failed on its final attempt
};

/** Per-point execution record from runPointsChecked(). */
struct PointOutcome
{
    PointStatus status = PointStatus::Ok;
    /** Kind of the first recorded failure (valid when Failed). */
    ErrorKind error_kind = ErrorKind::Internal;
    /** what() of the first recorded failure ("" when not Failed). */
    std::string error;
    /** Highest attempt number any of the point's seeds used
     *  (0 for journal-restored points — nothing was executed). */
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

    /** Backoff slept before each retry round, in ms. Deterministic:
     *  keyed on the retrying points' spec fingerprints and the attempt
     *  number, never on wall-clock or randomness, so reruns of the
     *  same batch sleep the same schedule. */
    std::vector<std::uint64_t> retry_delays_ms;

    std::size_t failed() const;   ///< points with status Failed
    std::size_t restored() const; ///< points with status Restored

    /** Multi-line human-readable digest of every failure (including
     *  the retry backoff schedule, when any round was retried), or ""
     *  when the batch is clean. */
    std::string failureSummary() const;
};

/** Fault-tolerance policy for one batch. The default-constructed
 *  policy is inert: one attempt, no journal, no deadline, no faults. */
struct RunPolicy
{
    /** Total attempts per (point, seed) task; transient failures are
     *  retried until this bound, deterministic ones never. */
    unsigned max_attempts = 1;
    /** Journal file for completed points ("" = no journal). */
    std::string journal_path;
    /** Per-point wall-clock deadline in seconds (0 = none). */
    double point_timeout_sec = 0.0;
    /** Deterministic fault-injection plan (empty = none). */
    FaultPlan faults;
    /** Batch JSON report path ("" = no report): per-point provenance
     *  (status, attempts, error kind, spec fingerprint, aggregate
     *  cycles) plus batch wall-clock/heap telemetry (DESIGN.md §9). */
    std::string report_path;
    /** Emit one stderr progress line per finished (point, seed) task
     *  — live visibility into long sweeps without polluting stdout. */
    bool progress = false;
};

/** Policy from the environment: CMPSIM_RETRIES / CMPSIM_JOURNAL /
 *  CMPSIM_POINT_TIMEOUT / CMPSIM_FAULT as documented above. */
RunPolicy defaultRunPolicy();

/**
 * Worker count policy: CMPSIM_JOBS if set and non-zero, else
 * std::thread::hardware_concurrency() (at least 1). CMPSIM_JOBS=0
 * explicitly requests the hardware default.
 */
unsigned defaultJobs();

/**
 * Run every (point, seed) task across @p jobs workers (0 = use
 * defaultJobs()) under @p policy. One point's failure is contained:
 * the rest of the batch still runs to completion and the failure is
 * recorded in the returned outcomes. Deterministic: the summaries
 * are a pure function of @p points (and the journal contents),
 * independent of jobs. Throws only on batch-level misuse (bad
 * journal path, malformed fault plan, zero seeds).
 */
BatchResult runPointsChecked(const std::vector<PointSpec> &points,
                             unsigned jobs = 0,
                             const RunPolicy &policy = RunPolicy{});

/**
 * Legacy strict wrapper: runPointsChecked() under defaultRunPolicy(),
 * returning just the summaries. Any point failure throws a SimError
 * of the first failure's kind whose message is the batch's
 * failureSummary(). runs[s] within each summary is seed s+1, exactly
 * as the serial runSeeds loop produced.
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
