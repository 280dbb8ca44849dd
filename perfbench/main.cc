/**
 * @file
 * Entry point of the cmpsim performance benchmark.
 *
 *   cmpsim_perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--git-sha <sha>] [--git-dirty <0|1>]
 *                    [--trace-dir <dir>]
 *
 * Repeats untraced passes of one workload for about --seconds (at
 * least two) and reports the end-to-end metrics over them. With
 * --trace 1 (after at least one untraced pass) it then runs one more
 * pass with spans, the simulator's profiler sites and an L2 miss
 * observer on, runs the workload's layer replays, writes the spans to
 * --trace-dir and reports per-layer metrics instead. The last line of
 * standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/common/fingerprint.h"
#include "src/obs/profiler.h"

extern char **environ;

namespace perfbench {
namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics of the untraced run, in BENCHMARK.json order. */
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_minstr_per_s", "Minstr/s"},
    {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics of the traced run, in BENCHMARK.json order. A
 *  layer the workload does not exercise reports 0. */
constexpr MetricDef kPerLayer[] = {
    {"core_api.construct_s", "s"},
    {"core_api.warmup_s", "s"},
    {"core_api.run_s", "s"},
    {"core_api.run_ns_per_cycle", "ns/cycle"},
    {"core_api.loop_s", "s"},
    {"sim.eq_dispatch_s", "s"},
    {"cache.l2_lookup_s", "s"},
    {"cache.l2_functional_s", "s"},
    {"sample.matrix_s", "s"},
    {"sample.ff_skip_minstr_per_s", "Minstr/s"},
    {"sample.ff_warm_minstr_per_s", "Minstr/s"},
    {"workload.next_ns", "ns"},
    {"compression.fpc_compress_ns", "ns"},
    {"prefetch.observe_miss_ns", "ns"},
    {"runner.batch_s", "s"},
    {"runner.longest_point_s", "s"},
    {"runner.parallel_eff", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
    {"core.ipc", "instr/cycle"},
    {"cache.l2_accesses", "count"},
    {"cache.l2_mpki", "misses/kinstr"},
    {"cache.l1d_miss_rate", "ratio"},
    {"compression.ratio", "ratio"},
    {"prefetch.l2_issued", "count"},
    {"prefetch.l2_accuracy_pct", "%"},
    {"prefetch.l2_coverage_pct", "%"},
    {"mem.link_util", "ratio"},
    {"mem.link_queue_delay_cy", "cycles"},
    {"mem.read_latency_cy", "cycles"},
    {"sample.ff_instr", "count"},
    {"sample.interaction_ci95_pts", "pts"},
    {"runner.attempts", "count"},
};

/** Layer spans whose summed duration is reported as a metric. */
constexpr std::pair<const char *, const char *> kSpanMetrics[] = {
    {"core_api.construct", "core_api.construct_s"},
    {"core_api.warmup", "core_api.warmup_s"},
    {"core_api.run", "core_api.run_s"},
    {"sample.matrix", "sample.matrix_s"},
    {"runner.batch", "runner.batch_s"},
};

/** The simulator's profiler sites and the metrics they feed. */
constexpr std::pair<const char *, const char *> kProfMetrics[] = {
    {"eq.dispatch", "sim.eq_dispatch_s"},
    {"l2.lookup", "cache.l2_lookup_s"},
    {"l2.functional", "cache.l2_functional_s"},
};

/** Untraced passes per run, at least: two keep a run from resting on
 *  one pass and one CPU even for the sampled workload, whose ~18 s pass
 *  allows no more within the run. A traced run only needs a baseline for
 *  trace.overhead_pct, and one pass keeps the longest traced run well
 *  inside its time limit. */
constexpr unsigned kMinPasses = 2;
constexpr unsigned kMinPassesTraced = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string git_sha = "unknown";
    std::string git_dirty = "unknown";
    std::string trace_dir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: cmpsim_perfbench --workload "
                 "<name> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--git-sha SHA] [--git-dirty 0|1] "
                 "[--trace-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*end != '\0' || o.seed == 0)
                usage("--seed must be a positive integer");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(o.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            o.trace = v[0] == '1';
        } else if (flag == "--git-sha") {
            o.git_sha = v;
        } else if (flag == "--git-dirty") {
            o.git_dirty = v;
        } else if (flag == "--trace-dir") {
            o.trace_dir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/**
 * The library reads 22 CMPSIM_* variables (DRAM and sampling specs in
 * makeConfig, lanes/audits/CPI stacks in the CmpSystem constructor,
 * jobs/faults/journal in the runner, ...); any of them would change
 * what is measured. Refuse to run with any CMPSIM_* variable set.
 */
void
refuseKnobs()
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "CMPSIM_", 7) == 0) {
            const char *eq = std::strchr(*e, '=');
            const std::string name =
                eq == nullptr ? *e : std::string(*e, eq - *e);
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; "
                         "unset every CMPSIM_* variable\n",
                         name.c_str());
            std::exit(2);
        }
    }
}

/** Timings of unoptimized or instrumented code mean nothing here. */
void
refuseBuild()
{
    bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    sanitized = true;
#endif
#endif
    bool debug = false;
#ifndef NDEBUG
    debug = true;
#endif
    if (sanitized || debug ||
        std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
        std::fprintf(stderr, "perfbench: refusing a %s build\n",
                     sanitized ? "sanitizer" : "Debug");
        std::exit(2);
    }
}

/**
 * Pins the calling thread to each CPU the process may use in turn. On
 * a shared host each CPU's speed drifts on its own, for seconds to
 * tens of seconds at a time, with the load other tenants put on that
 * core; a single-threaded run left on one CPU measures that CPU's
 * neighbours. Taking the CPUs in turn, pass by pass, makes every run
 * sample all of them. (Moving the thread every 250 ms within a pass
 * made passes ~10% slower: each move costs it its private caches.)
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof(all_), &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
        }
    }

    /** Pin the calling thread to the next CPU. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    /** Let the calling thread run on every CPU again. */
    void
    release()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(all_), &all_);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Failure accounting over every simulated system or batch point. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const Outcome &o, const std::string &pass)
    {
        ++attempted;
        if (!o.ok) {
            ++failed;
            std::printf("FAIL %s %s: %s\n", pass.c_str(), o.label.c_str(),
                        o.why.c_str());
        }
    }
};

/** Count @p p's outcomes, failing any whose fingerprint, counts or
 *  interaction differ from the reference pass @p ref. */
void
tallyPass(const Pass &p, const Pass &ref, const std::string &label, Tally &t)
{
    const bool same_counts = p.counts == ref.counts &&
                             p.interaction_err_pts == ref.interaction_err_pts &&
                             p.outcomes.size() == ref.outcomes.size();
    for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
        Outcome o = p.outcomes[i];
        if (o.ok && !same_counts) {
            o.ok = false;
            o.why = "simulated counts differ from pass 1";
        } else if (o.ok && o.fingerprint != ref.outcomes[i].fingerprint) {
            o.ok = false;
            o.why = "stats fingerprint differs from pass 1";
        }
        t.add(o, label);
    }
}

void
printFingerprints(const Pass &p)
{
    std::string all;
    for (const Outcome &o : p.outcomes) {
        std::printf("fingerprint %s %016llx\n", o.label.c_str(),
                    static_cast<unsigned long long>(o.fingerprint));
        all += std::to_string(o.fingerprint) + ",";
    }
    std::printf("fingerprint all %016llx\n",
                static_cast<unsigned long long>(cmpsim::fnv1a(all)));
    for (const auto &[name, value] : p.counts)
        std::printf("count %s %.17g\n", name.c_str(), value);
}

void
printResult(const Tally &t,
            const std::vector<std::pair<MetricDef, double>> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                t.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // Shortest text that reads back as the same double.
        char value[64];
        *std::to_chars(value, value + sizeof(value) - 1,
                       metrics[i].second)
             .ptr = '\0';
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].first.name, value,
                    metrics[i].first.unit);
    }
    std::printf("}}\n");
}

int
run(const Options &opt)
{
    // The batch's worker count: one per hardware thread.
    const unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    std::unique_ptr<Workload> wl = makeWorkload(opt.workload, opt.seed, jobs);
    if (wl == nullptr)
        usage(("unknown workload " + opt.workload).c_str());

    std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"git_sha\": \"%s\", "
                "\"git_dirty\": \"%s\", \"nproc\": %u, \"jobs\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", %s}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.git_sha.c_str(),
                opt.git_dirty.c_str(), std::thread::hardware_concurrency(),
                jobs, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                wl->knobs().c_str());
    std::fflush(stdout);

    // Untraced passes: every end-to-end metric comes from these.
    Tally tally;
    std::optional<Pass> first;
    std::vector<double> wall, setup, rate, took;
    CpuRotation cpus;
    const auto t0 = Clock::now();
    const unsigned min_passes = opt.trace ? kMinPassesTraced : kMinPasses;
    // Start another pass only while one of median length still ends
    // within --seconds, so a run lasts about --seconds.
    while (wall.size() < min_passes ||
           secondsSince(t0) + median(took) <= opt.seconds) {
        // A threaded workload spreads over every CPU by itself.
        if (!wl->threaded())
            cpus.next();
        const auto p0 = Clock::now();
        Pass p = wl->pass(nullptr);
        took.push_back(secondsSince(p0));
        wall.push_back(p.wall_s);
        setup.push_back(p.setup_s);
        rate.push_back(p.minstr_per_s);
        const std::string label = "pass " + std::to_string(wall.size());
        std::printf("%s setup_s %.6f wall_s %.6f sim_minstr_per_s %.4f\n",
                    label.c_str(), p.setup_s, p.wall_s, p.minstr_per_s);
        std::fflush(stdout);
        tallyPass(p, first ? *first : p, label, tally);
        if (!first)
            first = std::move(p);
    }
    cpus.release();
    const double peak_rss = peakRssMiB();
    printFingerprints(*first);

    // wall_s and sim_minstr_per_s come from the slowest pass. How long
    // the host stays fast varies from minute to minute, but how slow
    // its busy spells make a pass barely does, and a run of many passes
    // on every CPU meets one of them: measured over runs of the same
    // work, the slowest pass spread about half as much as the median.
    const double wall_median = median(wall);
    const std::vector<std::pair<MetricDef, double>> e2e = {
        {kEndToEnd[0], *std::max_element(wall.begin(), wall.end())},
        {kEndToEnd[1], median(setup)},
        {kEndToEnd[2], *std::min_element(rate.begin(), rate.end())},
        {kEndToEnd[3], peak_rss},
    };
    for (const auto &[def, v] : e2e)
        std::printf("metric %s %.6f %s\n", def.name, v, def.unit);
    std::printf("metric fail_frac %.6f ratio\n",
                static_cast<double>(tally.failed) /
                    static_cast<double>(tally.attempted));
    if (first->interaction_err_pts) {
        std::printf("metric interaction_err_pts %.6f pts\n",
                    *first->interaction_err_pts);
    }
    std::printf("passes %zu\n", wall.size());

    if (!opt.trace) {
        printResult(tally, e2e);
        return 0;
    }

    // Traced pass: spans, profiler sites and the L2 miss observer on.
    SpanLog log(opt.workload, opt.seed);
    cmpsim::profReset();
    cmpsim::setProfEnabled(true);
    const int root = log.open("workload");
    Pass traced = wl->pass(&log);
    log.close(root);
    cmpsim::setProfEnabled(false);
    tallyPass(traced, *first, "traced pass", tally);

    std::map<std::string, double> layers;
    for (const MetricDef &d : kPerLayer)
        layers[d.name] = 0;
    double top = 0;
    for (const SpanLog::Span &s : log.spans()) {
        if (s.parent == root)
            top += s.end_s - s.start_s;
    }
    const double traced_wall =
        log.spans()[root].end_s - log.spans()[root].start_s;
    for (const auto &[span, metric] : kSpanMetrics)
        layers[metric] = log.total(span);
    for (const cmpsim::ProfSample &s : cmpsim::profSnapshot()) {
        for (const auto &[site, metric] : kProfMetrics) {
            if (s.name == site)
                layers[metric] = static_cast<double>(s.total_ns) / 1e9;
        }
    }
    const double run_s = layers["core_api.run_s"];
    if (run_s > 0) {
        layers["core_api.run_ns_per_cycle"] = run_s * 1e9 / traced.sim_cycles;
        layers["core_api.loop_s"] = run_s - layers["sim.eq_dispatch_s"];
    }
    layers["trace.overhead_pct"] = (traced.wall_s / wall_median - 1) * 100;
    layers["trace.coverage_pct"] = top / traced_wall * 100;
    for (const auto &[name, value] : traced.counts)
        layers[name] = value;

    std::vector<Outcome> extra;
    wl->layers(traced, log, layers, extra);
    for (const Outcome &o : extra)
        tally.add(o, "traced replay");

    const std::string path = opt.trace_dir + "/" + opt.workload + "_seed" +
                             std::to_string(opt.seed) + ".spans.json";
    if (!log.write(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("spans %zu written to %s (top-level spans cover %.2f%% of "
                "the traced pass)\n",
                log.spans().size(), path.c_str(),
                layers["trace.coverage_pct"]);

    std::vector<std::pair<MetricDef, double>> out;
    for (const MetricDef &d : kPerLayer) {
        std::printf("layer %s %.9g %s\n", d.name, layers[d.name], d.unit);
        out.emplace_back(d, layers[d.name]);
    }
    printResult(tally, out);
    return 0;
}

} // namespace

double
SpanLog::total(const std::string &name) const
{
    double s = 0;
    for (const Span &span : spans_) {
        if (span.name == name)
            s += span.end_s - span.start_s;
    }
    return s;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream f(path);
    f << "{\"workload\": \"" << workload_ << "\", \"seed\": " << seed_
      << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": "
                      "%d, \"workload\": \"%s\", \"start_s\": %.9f, "
                      "\"end_s\": %.9f}",
                      i == 0 ? "" : ",", i, s.name.c_str(), s.parent,
                      workload_.c_str(), s.start_s, s.end_s);
        f << buf;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    refuseKnobs();
    refuseBuild();
    return run(opt);
}
