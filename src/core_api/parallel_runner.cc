#include "src/core_api/parallel_runner.h"

#include <algorithm>
#include <atomic>
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
#include "src/core_api/env_knobs.h"

namespace cmpsim {

std::size_t
BatchResult::failed() const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const PointOutcome &o) {
                          return o.status == PointStatus::Failed;
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
        out += "\n  point " + std::to_string(i) + ": " + o.error;
    }
    return out;
}

void
BatchResult::throwIfFailed() const
{
    for (const PointOutcome &o : outcomes) {
        if (o.status == PointStatus::Failed)
            throw SimError(o.error_kind, "parallel_runner",
                           failureSummary());
    }
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
 * than trusting a body whose framing happens to still line up.
 *
 * Loading tolerates a crash mid-append: the valid prefix is kept and
 * the partial tail truncated away, so a journal is usable after any
 * interruption. Appends are serialized by a mutex and flushed per
 * record (a record is either fully present or dropped on reload).
 * A file with no valid prefix restarts fresh only when a crash or
 * another build could have left it: empty, a torn header, or another
 * journal version. Any other file is refused and left untouched.
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
        std::size_t good = 0;
        if (content.compare(0, header.size(), header) == 0) {
            std::size_t pos = header.size();
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
                if (end == p || *end != ' ')
                    break;
                p = end + 1;
                const std::uint64_t crc = std::strtoull(p, &end, 16);
                if (end != content.c_str() + nl)
                    break;
                const std::size_t body = nl + 1;
                if (body + len + 4 > content.size())
                    break; // truncated mid-record
                if (content.compare(body + len, 4, "end\n") != 0)
                    break;
                std::string bytes = content.substr(body, len);
                if (crc32(bytes.data(), bytes.size()) !=
                    static_cast<std::uint32_t>(crc)) {
                    break; // interior corruption: keep the prefix
                }
                records_[fp] = std::move(bytes);
                pos = body + len + 4;
                good = pos;
            }
        }

        if (good == 0) {
            const bool torn =
                content.size() < header.size() &&
                header.compare(0, content.size(), content) == 0;
            if (!torn && content.rfind("cmpsim-journal v", 0) != 0) {
                throw ConfigError("journal",
                                  "\"" + path_ +
                                      "\" is not a cmpsim journal; "
                                      "refusing to overwrite it");
            }
            std::ofstream fresh(path_,
                                std::ios::binary | std::ios::trunc);
            if (fresh.is_open())
                fresh << header;
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

/**
 * The one list of a run's journal fields: calls @p f(key, field) for
 * each, in body order. @p R is const RunResult for summaryBytes() and
 * RunResult for parseSummaryBytes().
 */
template <typename R, typename F>
void
forEachRunField(R &r, F &&f)
{
    f("cycles", r.cycles);
    f("instructions", r.instructions);
    f("ipc", r.ipc);
    f("l2_demand_misses", r.l2_demand_misses);
    f("l2_demand_accesses", r.l2_demand_accesses);
    f("l2_miss_rate", r.l2_miss_rate);
    f("l2_mpki", r.l2_misses_per_kilo_instr);
    f("bandwidth_gbps", r.bandwidth_gbps);
    f("compression_ratio", r.compression_ratio);
    f("penalized_hits", r.penalized_hits);
    for (auto *pf : {&r.l1i, &r.l1d, &r.l2pf}) {
        f("pf.rate", pf->rate_per_kilo_instr);
        f("pf.coverage", pf->coverage_pct);
        f("pf.accuracy", pf->accuracy_pct);
    }
    f("adaptive_counter", r.l2_adaptive_counter);
    f("useful", r.useful_prefetches);
    f("useless", r.useless_prefetches);
    f("harmful", r.harmful_flags);
    f("victim_tags", r.victim_tags_per_set);
}

/** Aggregate a point's per-seed cycles and IPC, so summaries are
 *  bit-identical however they were produced (simulated or
 *  journal-restored). */
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

} // namespace

BatchResult
runPointsChecked(const std::vector<PointSpec> &points, unsigned jobs,
                 const std::string &journal_path)
{
    BatchResult batch;
    batch.summaries.resize(points.size());
    batch.outcomes.resize(points.size());

    std::unique_ptr<Journal> journal;
    if (!journal_path.empty())
        journal = std::make_unique<Journal>(journal_path);

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
    if (tasks.empty())
        return batch;

    if (jobs == 0)
        jobs = readEnvKnobs().jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
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

    // Task t: simulate its (point, seed); the point's last seed also
    // aggregates and journals it. Whatever those steps throw is the
    // task's failure, so none of it leaves a worker.
    auto runTask = [&](std::size_t t) {
        const Task &task = tasks[t];
        TaskFailure &slot = failures[t];
        try {
            MetricSummary &summary = batch.summaries[task.point];
            SystemConfig config = points[task.point].config;
            config.seed = task.seed_idx + 1;
            summary.runs[task.seed_idx] =
                runOnce(config, points[task.point].benchmark,
                        points[task.point].lengths);
            if (pending[task.point].fetch_sub(1) == 1) {
                aggregatePoint(summary);
                if (journal)
                    journal->append(fps[task.point], summaryBytes(summary));
            }
        } catch (const SimError &e) {
            slot = {true, e.kind(), e.what()};
        } catch (const std::exception &e) {
            slot = {true, ErrorKind::Internal, e.what()};
        } catch (...) {
            slot = {true, ErrorKind::Internal, "non-standard exception"};
        }
    };

    // Workers claim tasks in submission order; the calling thread is
    // one of them. Leaving the scope joins the others, on an exception
    // too, and orders every slot write before the reads below.
    std::atomic<std::size_t> next_task{0};
    auto work = [&] {
        for (std::size_t t = next_task.fetch_add(1); t < tasks.size();
             t = next_task.fetch_add(1))
            runTask(t);
    };
    {
        std::vector<std::jthread> workers;
        workers.reserve(jobs - 1);
        for (unsigned w = 1; w < jobs; ++w)
            workers.emplace_back(work);
        work();
    }

    // Record outcomes serially, in task order, so the failure a point
    // reports (and therefore every outcome) is deterministic.
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        PointOutcome &outcome = batch.outcomes[tasks[t].point];
        outcome.attempts = 1;
        const TaskFailure &slot = failures[t];
        if (slot.failed && outcome.status != PointStatus::Failed) {
            outcome.status = PointStatus::Failed;
            outcome.error_kind = slot.kind;
            outcome.error = slot.what;
        }
    }
    return batch;
}

std::vector<MetricSummary>
runPoints(const std::vector<PointSpec> &points, unsigned jobs)
{
    BatchResult batch =
        runPointsChecked(points, jobs, readEnvKnobs().journal);
    batch.throwIfFailed();
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
        forEachRunField(r, [&out](const char *key, double v) {
            appendHex(out, key, v);
        });
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
        bool ok = true;
        forEachRunField(r, [&](const char *key, double &v) {
            ok = ok && readValue(key, v);
        });
        if (!ok)
            return false;
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
    // and watchdog_cycles (observability only — they abort bad runs,
    // never change good ones).
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
    // Appended only when armed, so every unsampled fingerprint keeps
    // its bytes. A point that arms a plan fails [config] (only
    // MatrixSampler runs a plan); its own key keeps a journal that
    // holds its unsampled twin from restoring it.
    if (c.sampling.armed()) {
        kv("sampling.ff", c.sampling.ff_per_core);
        kv("sampling.detail", c.sampling.detail_per_core);
        kv("sampling.n", c.sampling.max_intervals);
        kv("sampling.warm", c.sampling.warm_per_core);
    }
    out += "benchmark=" + spec.benchmark + "\n";
    kv("warmup_per_core", spec.lengths.warmup_per_core);
    kv("measure_per_core", spec.lengths.measure_per_core);
    kv("seeds", spec.seeds);
    return out;
}

} // namespace cmpsim
