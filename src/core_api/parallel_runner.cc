#include "src/core_api/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/common/crc32.h"
#include "src/common/fingerprint.h"
#include "src/obs/json_writer.h"
#include "src/obs/run_report.h"
#include "src/obs/trace.h"
#include "src/sim/thread_pool.h"

namespace cmpsim {

unsigned
defaultJobs()
{
    const auto jobs = envUint64Or("CMPSIM_JOBS", 0);
    if (jobs != 0)
        return static_cast<unsigned>(jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

RunPolicy
defaultRunPolicy()
{
    RunPolicy policy;
    policy.max_attempts =
        1 + static_cast<unsigned>(envUint64Or("CMPSIM_RETRIES", 1));
    if (const char *env = std::getenv("CMPSIM_JOURNAL")) {
        if (*env != '\0')
            policy.journal_path = env;
    }
    if (const char *env = std::getenv("CMPSIM_POINT_TIMEOUT")) {
        char *end = nullptr;
        const double v = std::strtod(env, &end);
        if (end == env || *end != '\0') {
            throw ConfigError("CMPSIM_POINT_TIMEOUT",
                              std::string("bad value \"") + env + "\"");
        }
        policy.point_timeout_sec = v;
    }
    policy.faults = FaultPlan::fromEnv();
    if (const char *env = std::getenv("CMPSIM_REPORT")) {
        if (*env != '\0')
            policy.report_path = env;
    }
    if (const char *env = std::getenv("CMPSIM_PROGRESS")) {
        policy.progress = *env != '\0' &&
                          !(env[0] == '0' && env[1] == '\0');
    }
    return policy;
}

std::size_t
BatchResult::failed() const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const PointOutcome &o) {
                          return o.status == PointStatus::Failed;
                      }));
}

std::size_t
BatchResult::restored() const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const PointOutcome &o) {
                          return o.status == PointStatus::Restored;
                      }));
}

std::string
BatchResult::failureSummary() const
{
    const std::size_t n = failed();
    if (n == 0)
        return "";
    std::string out = std::to_string(n) + "/" +
                      std::to_string(outcomes.size()) +
                      " points failed:";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const PointOutcome &o = outcomes[i];
        if (o.status != PointStatus::Failed)
            continue;
        out += "\n  point " + std::to_string(i) + " after " +
               std::to_string(o.attempts) + " attempt(s): " + o.error;
    }
    if (!retry_delays_ms.empty()) {
        out += "\n  retry backoff:";
        for (const std::uint64_t ms : retry_delays_ms)
            out += " " + std::to_string(ms) + "ms";
    }
    return out;
}

namespace {

/**
 * Append-only journal of completed points. Text format (v2):
 *
 *     cmpsim-journal v2\n
 *     point <fp:016x> <len> <crc:08x>\n
 *     <len bytes of summaryBytes() text>end\n
 *     ...
 *
 * <crc> is the CRC-32 of the record body, so a corrupted *interior*
 * record (bit rot, partial overwrite) is detected — the journal is
 * truncated at the first bad record, keeping the valid prefix, rather
 * than trusting a body whose framing happens to still line up. v1
 * files (no CRC field) are still read; loading one rewrites it in v2
 * so every on-disk journal converges to the checked format.
 *
 * Loading tolerates a crash mid-append: the valid prefix is kept and
 * the partial tail truncated away, so a journal is usable after any
 * interruption. Appends are serialized by a mutex and flushed per
 * record (a record is either fully present or dropped on reload).
 */
class Journal
{
  public:
    explicit Journal(const std::string &path) : path_(path)
    {
        load();
        out_.open(path_, std::ios::binary | std::ios::app);
        if (!out_.is_open()) {
            throw ConfigError("journal",
                              "cannot open journal file \"" + path_ +
                                  "\" for append");
        }
    }

    bool
    lookup(std::uint64_t fp, std::string &bytes) const
    {
        const auto it = records_.find(fp);
        if (it == records_.end())
            return false;
        bytes = it->second;
        return true;
    }

    void
    append(std::uint64_t fp, const std::string &bytes)
    {
        const std::string head = recordHead(fp, bytes);
        std::lock_guard<std::mutex> lock(mutex_);
        out_ << head << bytes << "end\n";
        out_.flush();
    }

  private:
    static constexpr const char *kHeader = "cmpsim-journal v2\n";
    static constexpr const char *kHeaderV1 = "cmpsim-journal v1\n";

    static std::string
    recordHead(std::uint64_t fp, const std::string &bytes)
    {
        char head[80];
        std::snprintf(head, sizeof(head), "point %016llx %zu %08lx\n",
                      static_cast<unsigned long long>(fp), bytes.size(),
                      static_cast<unsigned long>(
                          crc32(bytes.data(), bytes.size())));
        return head;
    }

    void
    load()
    {
        std::string content;
        {
            std::ifstream in(path_, std::ios::binary);
            if (in) {
                content.assign(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>());
            }
        }

        const std::string header = kHeader;
        const std::string header_v1 = kHeaderV1;
        const bool v2 = content.compare(0, header.size(), header) == 0;
        const bool v1 =
            !v2 && content.compare(0, header_v1.size(), header_v1) == 0;

        // Parse-order record list: the map serves lookups, the vector
        // preserves append order for the v1 -> v2 rewrite.
        std::vector<std::pair<std::uint64_t, std::string>> ordered;
        std::size_t good = 0;
        if (v2 || v1) {
            std::size_t pos = header.size(); // both headers same length
            good = pos;
            while (pos < content.size()) {
                if (content.compare(pos, 6, "point ") != 0)
                    break;
                const std::size_t nl = content.find('\n', pos);
                if (nl == std::string::npos)
                    break;
                const char *p = content.c_str() + pos + 6;
                char *end = nullptr;
                const std::uint64_t fp = std::strtoull(p, &end, 16);
                if (end == p || *end != ' ')
                    break;
                p = end + 1;
                const std::uint64_t len = std::strtoull(p, &end, 10);
                if (end == p)
                    break;
                std::uint64_t crc = 0;
                if (v2) {
                    if (*end != ' ')
                        break;
                    p = end + 1;
                    crc = std::strtoull(p, &end, 16);
                }
                if (end != content.c_str() + nl)
                    break;
                const std::size_t body = nl + 1;
                if (body + len + 4 > content.size())
                    break; // truncated mid-record
                if (content.compare(body + len, 4, "end\n") != 0)
                    break;
                std::string bytes = content.substr(body, len);
                if (v2 && crc32(bytes.data(), bytes.size()) !=
                              static_cast<std::uint32_t>(crc)) {
                    break; // interior corruption: keep the prefix
                }
                records_[fp] = bytes;
                ordered.emplace_back(fp, std::move(bytes));
                pos = body + len + 4;
                good = pos;
            }
        }

        if (good == 0) {
            // Missing, empty, or unrecognisable: start fresh.
            std::ofstream fresh(path_,
                                std::ios::binary | std::ios::trunc);
            if (fresh.is_open())
                fresh << header;
        } else if (v1) {
            // Upgrade in place: rewrite the valid prefix with CRCs so
            // subsequent appends and reloads are all one format.
            std::ofstream fresh(path_,
                                std::ios::binary | std::ios::trunc);
            if (fresh.is_open()) {
                fresh << header;
                for (const auto &[fp, bytes] : ordered)
                    fresh << recordHead(fp, bytes) << bytes << "end\n";
            }
        } else if (good < content.size()) {
            // Drop the corrupt/partial tail.
            std::filesystem::resize_file(path_, good);
        }
    }

    std::string path_;
    std::unordered_map<std::uint64_t, std::string> records_;
    std::ofstream out_;
    std::mutex mutex_;
};

void
appendHex(std::string &out, const char *name, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%a\n", name, v);
    out += buf;
}

/** Aggregate a point's per-seed cycles exactly as the serial runSeeds
 *  loop does, so summaries are bit-identical however they were
 *  produced (simulated, retried, or journal-restored). */
void
aggregatePoint(MetricSummary &summary)
{
    std::vector<double> cycle_samples, ipc_samples;
    cycle_samples.reserve(summary.runs.size());
    ipc_samples.reserve(summary.runs.size());
    for (const auto &r : summary.runs) {
        cycle_samples.push_back(r.cycles);
        ipc_samples.push_back(r.ipc);
    }
    summary.cycles = summarize(cycle_samples);
    summary.ipc = summarize(ipc_samples);
}

const char *
pointStatusName(PointStatus s)
{
    switch (s) {
    case PointStatus::Ok: return "ok";
    case PointStatus::Restored: return "restored";
    case PointStatus::Failed: return "failed";
    }
    return "unknown";
}

/** Batch JSON report (RunPolicy::report_path / CMPSIM_REPORT): the
 *  per-point provenance a sweep harness archives — what ran, what was
 *  restored, what failed and why, and what the batch cost. */
void
writeBatchReport(const std::string &path,
                 const std::vector<PointSpec> &points,
                 const BatchResult &batch,
                 const std::vector<std::uint64_t> &fps,
                 double wall_seconds)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
        throw ConfigError("report",
                          "cannot open batch report file \"" + path +
                              "\" for writing");
    }
    JsonWriter w(out);
    w.beginObject();
    w.keyValue("schema", "cmpsim.batch_report.v1");
    w.keyValue("points", static_cast<std::uint64_t>(points.size()));
    w.keyValue("failed", static_cast<std::uint64_t>(batch.failed()));
    w.keyValue("restored",
               static_cast<std::uint64_t>(batch.restored()));
    w.beginArray("outcomes");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointOutcome &o = batch.outcomes[i];
        const MetricSummary &s = batch.summaries[i];
        w.beginObject();
        w.keyValue("point", static_cast<std::uint64_t>(i));
        w.keyValue("benchmark", points[i].benchmark);
        w.keyValue("seeds",
                   static_cast<std::uint64_t>(points[i].seeds));
        w.keyValue("fingerprint", fps[i]);
        w.keyValue("status", pointStatusName(o.status));
        w.keyValue("attempts", static_cast<std::uint64_t>(o.attempts));
        if (o.status == PointStatus::Failed) {
            w.keyValue("error_kind", errorKindName(o.error_kind));
            w.keyValue("error", o.error);
        }
        w.keyValue("cycles_mean", s.cycles.mean);
        w.keyValue("cycles_ci95", s.cycles.ci95);
        w.end();
    }
    w.end();
    w.beginObject("telemetry");
    w.keyValue("wall_seconds", wall_seconds);
    w.keyValue("max_rss_kb", currentMaxRssKb());
    w.end();
    w.end();
    out << "\n";
}

} // namespace

BatchResult
runPointsChecked(const std::vector<PointSpec> &points, unsigned jobs,
                 const RunPolicy &policy)
{
    const auto batch_start = std::chrono::steady_clock::now();
    BatchResult batch;
    batch.summaries.resize(points.size());
    batch.outcomes.resize(points.size());

    std::unique_ptr<Journal> journal;
    if (!policy.journal_path.empty())
        journal = std::make_unique<Journal>(policy.journal_path);

    // Restore journaled points; lay out the remaining (point, seed)
    // tasks in submission order.
    struct Task
    {
        std::size_t point;
        unsigned seed_idx;
    };
    std::vector<Task> tasks;
    std::vector<std::uint64_t> fps(points.size(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].seeds < 1) {
            throw ConfigError("point.seeds",
                              "point " + std::to_string(i) +
                                  " has zero seeds");
        }
        fps[i] = fnv1a(pointSpecBytes(points[i]));
        std::string bytes;
        if (journal && journal->lookup(fps[i], bytes) &&
            parseSummaryBytes(bytes, batch.summaries[i]) &&
            batch.summaries[i].runs.size() == points[i].seeds) {
            batch.outcomes[i].status = PointStatus::Restored;
            continue;
        }
        batch.summaries[i].runs.assign(points[i].seeds, RunResult{});
        for (unsigned s = 0; s < points[i].seeds; ++s)
            tasks.push_back(Task{i, s});
    }
    auto finishBatch = [&] {
        if (policy.report_path.empty())
            return;
        const double wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - batch_start)
                .count();
        writeBatchReport(policy.report_path, points, batch, fps,
                         wall_seconds);
    };

    if (tasks.empty()) {
        finishBatch();
        return batch;
    }

    if (jobs == 0)
        jobs = defaultJobs();
    jobs = static_cast<unsigned>(std::min<std::size_t>(jobs, tasks.size()));

    // Per-task failure slots (race-free: unique per task) and per-point
    // countdown of outstanding seeds; the last seed to finish a point
    // aggregates it and appends the journal record, so a crash later
    // in the batch cannot lose already-completed points.
    struct TaskFailure
    {
        bool failed = false;
        ErrorKind kind = ErrorKind::Internal;
        std::string what;
    };
    std::vector<TaskFailure> failures(tasks.size());
    std::unique_ptr<std::atomic<unsigned>[]> pending(
        new std::atomic<unsigned>[points.size()]);
    for (std::size_t i = 0; i < points.size(); ++i)
        pending[i].store(points[i].seeds, std::memory_order_relaxed);

    const unsigned max_attempts = std::max(policy.max_attempts, 1u);
    std::vector<std::size_t> round(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t)
        round[t] = t;

    const std::size_t total_tasks = tasks.size();
    std::atomic<std::size_t> tasks_done{0};

    // Scope the pool so its destructor joins the workers even if
    // wait() rethrows (it shouldn't: tasks catch internally).
    ThreadPool pool(jobs);
    for (unsigned attempt = 1;
         attempt <= max_attempts && !round.empty(); ++attempt) {
        for (const std::size_t t : round) {
            pool.submit([&points, &policy, &batch, &failures, &tasks,
                         &fps, &pending, &journal, &tasks_done,
                         total_tasks, t, attempt] {
                const Task &task = tasks[t];
                TaskFailure &slot = failures[t];
                slot.failed = false;
                // Each concurrent task traces onto its own (pid, tid)
                // track so parallel points don't interleave.
                TraceThreadScope trace_scope(
                    kTraceSimPid, static_cast<unsigned>(t) + 1);
                Tracer *tracer = Tracer::armed();
                const std::uint64_t wall0 =
                    tracer != nullptr ? tracer->nowWallUs() : 0;
                try {
                    // Arm injection/deadline for exactly this attempt
                    // of this (point, seed) task.
                    FaultArmGuard arm(policy.faults, attempt,
                                      task.point, task.seed_idx + 1);
                    DeadlineGuard deadline(policy.point_timeout_sec);
                    SystemConfig config = points[task.point].config;
                    config.seed = task.seed_idx + 1;
                    batch.summaries[task.point].runs[task.seed_idx] =
                        runOnce(config, points[task.point].benchmark,
                                points[task.point].lengths);
                } catch (const SimError &e) {
                    slot.failed = true;
                    slot.kind = e.kind();
                    slot.what = e.what();
                } catch (const std::exception &e) {
                    slot.failed = true;
                    slot.kind = ErrorKind::Internal;
                    slot.what = e.what();
                } catch (...) {
                    slot.failed = true;
                    slot.kind = ErrorKind::Internal;
                    slot.what = "non-standard exception";
                }
                if (!slot.failed &&
                    pending[task.point].fetch_sub(1) == 1) {
                    aggregatePoint(batch.summaries[task.point]);
                    if (journal) {
                        journal->append(
                            fps[task.point],
                            summaryBytes(batch.summaries[task.point]));
                    }
                }
                const char *result = slot.failed ? "failed" : "ok";
                if (tracer != nullptr) {
                    tracer->completeWall(
                        "point.task", wall0, tracer->nowWallUs(),
                        {{"point", std::uint64_t{task.point}},
                         {"seed", std::uint64_t{task.seed_idx + 1}},
                         {"attempt", std::uint64_t{attempt}},
                         {"status", result}});
                }
                const std::size_t done =
                    tasks_done.fetch_add(1) + 1;
                if (policy.progress) {
                    std::fprintf(
                        stderr,
                        "[cmpsim] %zu/%zu point %zu seed %u "
                        "attempt %u: %s\n",
                        done, total_tasks, task.point,
                        task.seed_idx + 1, attempt, result);
                }
            });
        }
        pool.wait();

        // Classify this round serially, in task order, so retry order
        // (and therefore every outcome) is deterministic.
        std::vector<std::size_t> retry;
        for (const std::size_t t : round) {
            const Task &task = tasks[t];
            PointOutcome &outcome = batch.outcomes[task.point];
            outcome.attempts = std::max(outcome.attempts, attempt);
            const TaskFailure &slot = failures[t];
            if (!slot.failed)
                continue;
            if (errorKindTransient(slot.kind) && attempt < max_attempts) {
                retry.push_back(t);
                continue;
            }
            if (outcome.status != PointStatus::Failed) {
                outcome.status = PointStatus::Failed;
                outcome.error_kind = slot.kind;
                outcome.error = slot.what;
            }
        }
        round = std::move(retry);

        if (!round.empty() && attempt < max_attempts) {
            // Bounded backoff before the next retry round, so a
            // transiently overloaded host (the usual cause of watchdog
            // trips) gets breathing room. Deterministic by design: the
            // delay is keyed on the retrying points' spec fingerprints
            // and the attempt number — simulation-derived quantities —
            // never on wall-clock or randomness, so rerunning the same
            // batch sleeps the same schedule.
            std::uint64_t key = 0x9e3779b97f4a7c15ULL ^ attempt;
            for (const std::size_t t : round)
                key = (key ^ fps[tasks[t].point]) * 0x100000001b3ULL;
            const std::uint64_t delay_ms =
                std::min<std::uint64_t>(500, 10ULL << (attempt - 1)) +
                key % 10;
            batch.retry_delays_ms.push_back(delay_ms);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        }
    }

    finishBatch();
    return batch;
}

std::vector<MetricSummary>
runPoints(const std::vector<PointSpec> &points, unsigned jobs)
{
    BatchResult batch = runPointsChecked(points, jobs, defaultRunPolicy());
    if (batch.failed() != 0) {
        ErrorKind kind = ErrorKind::Internal;
        for (const PointOutcome &o : batch.outcomes) {
            if (o.status == PointStatus::Failed) {
                kind = o.error_kind;
                break;
            }
        }
        throw SimError(kind, "parallel_runner", batch.failureSummary());
    }
    return std::move(batch.summaries);
}

std::string
summaryBytes(const MetricSummary &summary)
{
    std::string out;
    appendHex(out, "cycles.mean", summary.cycles.mean);
    appendHex(out, "cycles.ci95", summary.cycles.ci95);
    out += "n=" + std::to_string(summary.cycles.n) + "\n";
    for (const auto &r : summary.runs) {
        appendHex(out, "cycles", r.cycles);
        appendHex(out, "instructions", r.instructions);
        appendHex(out, "ipc", r.ipc);
        appendHex(out, "l2_demand_misses", r.l2_demand_misses);
        appendHex(out, "l2_demand_accesses", r.l2_demand_accesses);
        appendHex(out, "l2_miss_rate", r.l2_miss_rate);
        appendHex(out, "l2_mpki", r.l2_misses_per_kilo_instr);
        appendHex(out, "bandwidth_gbps", r.bandwidth_gbps);
        appendHex(out, "compression_ratio", r.compression_ratio);
        appendHex(out, "penalized_hits", r.penalized_hits);
        for (const auto *pf : {&r.l1i, &r.l1d, &r.l2pf}) {
            appendHex(out, "pf.rate", pf->rate_per_kilo_instr);
            appendHex(out, "pf.coverage", pf->coverage_pct);
            appendHex(out, "pf.accuracy", pf->accuracy_pct);
        }
        appendHex(out, "adaptive_counter", r.l2_adaptive_counter);
        appendHex(out, "useful", r.useful_prefetches);
        appendHex(out, "useless", r.useless_prefetches);
        appendHex(out, "harmful", r.harmful_flags);
        appendHex(out, "victim_tags", r.victim_tags_per_set);
        // Sampled-run block, appended only when the run used an armed
        // sampling plan: unsampled journal bodies stay byte-identical
        // to the pre-sampling format (same gating idea as the DRAM
        // knobs in pointSpecBytes).
        if (r.sampled.armed) {
            const RunResult::SampledMetrics &sm = r.sampled;
            out += "sampling.intervals=" +
                   std::to_string(sm.intervals) + "\n";
            out += "sampling.stopped_early=" +
                   std::to_string(sm.stopped_early ? 1 : 0) + "\n";
            appendHex(out, "sampling.ff_instructions",
                      sm.ff_instructions);
            const std::pair<const char *, const SampleSummary *>
                metrics[] = {
                    {"cycles", &sm.cycles},
                    {"ipc", &sm.ipc},
                    {"l2_miss_rate", &sm.l2_miss_rate},
                    {"l2_mpki", &sm.l2_mpki},
                    {"bandwidth_gbps", &sm.bandwidth_gbps},
                    {"compression_ratio", &sm.compression_ratio}};
            for (const auto &[name, s] : metrics) {
                const std::string key = std::string("sampling.") + name;
                appendHex(out, (key + ".mean").c_str(), s->mean);
                appendHex(out, (key + ".ci95").c_str(), s->ci95);
            }
        }
    }
    return out;
}

bool
parseSummaryBytes(const std::string &bytes, MetricSummary &out)
{
    out = MetricSummary{};
    std::size_t pos = 0;

    auto nextLine = [&bytes, &pos](std::string &line) {
        if (pos >= bytes.size())
            return false;
        const std::size_t nl = bytes.find('\n', pos);
        if (nl == std::string::npos)
            return false; // every line must be newline-terminated
        line.assign(bytes, pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    auto readValue = [&nextLine](const char *key, double &v) {
        std::string line;
        if (!nextLine(line))
            return false;
        const std::size_t klen = std::string(key).size();
        if (line.compare(0, klen, key) != 0 || line.size() <= klen ||
            line[klen] != '=')
            return false;
        const char *start = line.c_str() + klen + 1;
        char *end = nullptr;
        v = std::strtod(start, &end);
        return end == line.c_str() + line.size();
    };

    double mean = 0, ci95 = 0;
    if (!readValue("cycles.mean", mean) ||
        !readValue("cycles.ci95", ci95))
        return false;
    std::string nline;
    if (!nextLine(nline) || nline.compare(0, 2, "n=") != 0)
        return false;
    char *end = nullptr;
    const std::uint64_t n =
        std::strtoull(nline.c_str() + 2, &end, 10);
    if (end != nline.c_str() + nline.size())
        return false;

    while (pos < bytes.size()) {
        RunResult r;
        if (!readValue("cycles", r.cycles) ||
            !readValue("instructions", r.instructions) ||
            !readValue("ipc", r.ipc) ||
            !readValue("l2_demand_misses", r.l2_demand_misses) ||
            !readValue("l2_demand_accesses", r.l2_demand_accesses) ||
            !readValue("l2_miss_rate", r.l2_miss_rate) ||
            !readValue("l2_mpki", r.l2_misses_per_kilo_instr) ||
            !readValue("bandwidth_gbps", r.bandwidth_gbps) ||
            !readValue("compression_ratio", r.compression_ratio) ||
            !readValue("penalized_hits", r.penalized_hits))
            return false;
        for (auto *pf : {&r.l1i, &r.l1d, &r.l2pf}) {
            if (!readValue("pf.rate", pf->rate_per_kilo_instr) ||
                !readValue("pf.coverage", pf->coverage_pct) ||
                !readValue("pf.accuracy", pf->accuracy_pct))
                return false;
        }
        if (!readValue("adaptive_counter", r.l2_adaptive_counter) ||
            !readValue("useful", r.useful_prefetches) ||
            !readValue("useless", r.useless_prefetches) ||
            !readValue("harmful", r.harmful_flags) ||
            !readValue("victim_tags", r.victim_tags_per_set))
            return false;
        // Optional sampled-run block: presence is detected by peeking
        // for the "sampling." prefix, so journal bodies written before
        // the sampling engine existed still parse.
        if (bytes.compare(pos, 9, "sampling.") == 0) {
            RunResult::SampledMetrics &sm = r.sampled;
            std::string line;
            if (!nextLine(line) ||
                line.compare(0, 19, "sampling.intervals=") != 0)
                return false;
            char *iend = nullptr;
            sm.intervals = static_cast<unsigned>(
                std::strtoul(line.c_str() + 19, &iend, 10));
            if (iend != line.c_str() + line.size())
                return false;
            if (!nextLine(line))
                return false;
            if (line == "sampling.stopped_early=1")
                sm.stopped_early = true;
            else if (line != "sampling.stopped_early=0")
                return false;
            if (!readValue("sampling.ff_instructions",
                           sm.ff_instructions))
                return false;
            const std::pair<const char *, SampleSummary *> metrics[] = {
                {"cycles", &sm.cycles},
                {"ipc", &sm.ipc},
                {"l2_miss_rate", &sm.l2_miss_rate},
                {"l2_mpki", &sm.l2_mpki},
                {"bandwidth_gbps", &sm.bandwidth_gbps},
                {"compression_ratio", &sm.compression_ratio}};
            for (const auto &[name, s] : metrics) {
                const std::string key = std::string("sampling.") + name;
                if (!readValue((key + ".mean").c_str(), s->mean) ||
                    !readValue((key + ".ci95").c_str(), s->ci95))
                    return false;
                s->n = sm.intervals;
            }
            sm.armed = true;
        }
        out.runs.push_back(r);
    }
    if (n != out.runs.size())
        return false;

    // Recompute the aggregate instead of trusting the stored header:
    // summarize() is deterministic, so the round trip is byte-exact
    // and the struct is internally consistent by construction.
    aggregatePoint(out);
    return true;
}

std::string
pointSpecBytes(const PointSpec &spec)
{
    const SystemConfig &c = spec.config;
    std::string out = "cmpsim-point v1\n";
    auto kv = [&out](const char *key, std::uint64_t v) {
        out += std::string(key) + "=" + std::to_string(v) + "\n";
    };
    // Every knob that changes simulated behaviour. Excluded on
    // purpose: seed (the runner assigns s+1 per task), audit_interval
    // / audit_fill_roundtrip / watchdog_cycles (observability only —
    // they abort bad runs, never change good ones), sample_interval
    // (pure observation: the sampler only reads counters, so a
    // sampled and an unsampled run are byte-identical).
    kv("cores", c.cores);
    kv("scale", c.scale);
    kv("cache_compression", c.cache_compression);
    kv("link_compression", c.link_compression);
    kv("prefetching", c.prefetching);
    kv("adaptive_prefetch", c.adaptive_prefetch);
    appendHex(out, "pin_bandwidth_gbps", c.pin_bandwidth_gbps);
    kv("infinite_bandwidth", c.infinite_bandwidth);
    kv("shared_l2_prefetcher", c.shared_l2_prefetcher);
    kv("l1_prefetch_triggers_l2", c.l1_prefetch_triggers_l2);
    kv("extra_victim_tags", c.extra_victim_tags);
    kv("l1_startup_prefetches", c.l1_startup_prefetches);
    kv("l2_startup_prefetches", c.l2_startup_prefetches);
    kv("decompression_latency", c.decompression_latency);
    kv("adaptive_compression", c.adaptive_compression);
    kv("wide_compressed_sets", c.wide_compressed_sets);
    // DRAM knobs are inert while the backend is Fixed, so they are
    // appended only when armed: fixed-mode fingerprints — and every
    // journal written before the banked backend existed — stay valid.
    if (c.dram.backend != DramBackendKind::Fixed) {
        const DramTimingParams &d = c.dram;
        kv("dram.backend", static_cast<std::uint64_t>(d.backend));
        kv("dram.channels", d.channels);
        kv("dram.ranks", d.ranks);
        kv("dram.banks", d.banks);
        kv("dram.row_bytes", d.row_bytes);
        kv("dram.trcd", d.trcd);
        kv("dram.tcas", d.tcas);
        kv("dram.trp", d.trp);
        kv("dram.tras", d.tras);
        kv("dram.burst_bytes", d.burst_bytes);
        kv("dram.burst_cycles", d.burst_cycles);
        kv("dram.ctrl_latency", d.ctrl_latency);
        kv("dram.closed_page", d.closed_page);
        kv("dram.sched", static_cast<std::uint64_t>(d.sched));
        kv("dram.refresh_interval", d.refresh_interval);
        kv("dram.refresh_cycles", d.refresh_cycles);
        kv("dram.wq_high", d.write_high_watermark);
        kv("dram.wq_low", d.write_low_watermark);
    }
    // Sampling-plan knobs use the same gating: the plan changes the
    // measurement protocol (interval schedule, hence every measured
    // number), so it is behavioural — but appending it only when
    // armed keeps every unsampled fingerprint, and every journal
    // written before the sampling engine existed, valid.
    if (c.sampling.armed()) {
        kv("sampling.ff", c.sampling.ff_per_core);
        kv("sampling.detail", c.sampling.detail_per_core);
        kv("sampling.n", c.sampling.max_intervals);
        kv("sampling.warm", c.sampling.warm_per_core);
        appendHex(out, "sampling.ci", c.sampling.ci_target_pct);
    }
    out += "benchmark=" + spec.benchmark + "\n";
    kv("warmup_per_core", spec.lengths.warmup_per_core);
    kv("measure_per_core", spec.lengths.measure_per_core);
    kv("seeds", spec.seeds);
    return out;
}

} // namespace cmpsim
