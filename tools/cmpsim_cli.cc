/**
 * @file
 * cmpsim command-line driver: configure any system the paper
 * evaluates (and the ablation variants), run one simulation, and dump
 * the statistics.
 *
 *   cmpsim --workload zeus --compression --prefetch --adaptive
 *   cmpsim --workload jbb --cores 16 --bandwidth 10 --stats
 *
 * Run with --help for the full flag list.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "src/common/fingerprint.h"
#include "src/common/parse_unsigned.h"
#include "src/common/sim_error.h"
#include "src/core_api/env_knobs.h"
#include "src/core_api/experiment.h"
#include "src/core_api/parallel_runner.h"
#include "src/obs/cpi_stack.h"
#include "src/obs/profiler.h"
#include "src/obs/run_report.h"

using namespace cmpsim;

namespace {

/** One-line structured error, machine-grepable, exit code 2. */
[[noreturn]] void
die(const char *context, const std::string &message)
{
    std::fprintf(stderr, "cmpsim: error: [usage] %s: %s\n", context,
                 message.c_str());
    std::exit(2);
}

struct CliOptions
{
    std::string workload = "zeus";
    unsigned cores = 8;
    std::optional<unsigned> scale; ///< --scale, else CMPSIM_SCALE
    bool cache_compression = false;
    bool link_compression = false;
    bool prefetch = false;
    bool adaptive = false;
    bool adaptive_compression = false;
    bool infinite_bw = false;
    double bandwidth = 20.0;
    std::optional<std::uint64_t> warmup;  ///< else CMPSIM_WARMUP
    std::optional<std::uint64_t> measure; ///< else CMPSIM_MEASURE
    std::uint64_t seed = 1;
    bool dump_stats = false;
    bool cpi_stack = false;   ///< --cpi-stack: attribution layer
    std::string report_path;  ///< --report: JSON run report
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "cmpsim — CMP compression/prefetching simulator (HPCA'07 "
        "reproduction)\n\n"
        "usage: cmpsim [flags]\n\n"
        "A flag beats the CMPSIM_* environment variable it shares a\n"
        "setting with.\n\n"
        "  --workload NAME     apache zeus oltp jbb art apsi fma3d "
        "mgrid (default zeus)\n"
        "  --cores N           1..16 (default 8)\n"
        "  --scale N           capacity divisor; 1 = paper-size 4 MB "
        "L2\n"
        "                      (default CMPSIM_SCALE, else 4)\n"
        "  --compression       cache + link compression\n"
        "  --cache-compression / --link-compression  individually\n"
        "  --adaptive-compression  ISCA'04 compression policy\n"
        "  --prefetch          L1I/L1D/L2 stride prefetchers\n"
        "  --adaptive          adaptive prefetch throttling\n"
        "  --bandwidth GBPS    pin bandwidth (default 20)\n"
        "  --infinite-bw       measure bandwidth demand (no queuing)\n"
        "  --warmup N          functional warmup instr/core\n"
        "                      (default CMPSIM_WARMUP, else 400000)\n"
        "  --measure N         timed instr/core\n"
        "                      (default CMPSIM_MEASURE, else 50000)\n"
        "  --seed N            RNG seed (default 1)\n"
        "  --stats             dump every registered counter\n"
        "  --cpi-stack         arm CPI-stack / miss-genealogy\n"
        "                      attribution (also CMPSIM_CPISTACK=1);\n"
        "                      prints per-core stacks and adds a\n"
        "                      cpi_stack section to --report\n"
        "  --report FILE       write a structured JSON run report\n"
        "  --help\n");
    std::exit(code);
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions o;
    auto need_value = [&](int i) -> const char * {
        if (i + 1 >= argc)
            die(argv[i], "missing value");
        return argv[i + 1];
    };
    auto parse_uint = [&]<typename T>(int i, T &out) {
        const char *v = need_value(i);
        const std::optional<T> parsed = parseUnsigned<T>(v);
        if (!parsed)
            die(argv[i], std::string("bad integer \"") + v + "\"");
        out = *parsed;
    };
    auto parse_double = [&](int i) -> double {
        const char *v = need_value(i);
        char *end = nullptr;
        const double parsed = std::strtod(v, &end);
        if (end == v || *end != '\0')
            die(argv[i], std::string("bad number \"") + v + "\"");
        return parsed;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(0);
        } else if (a == "--workload") {
            o.workload = need_value(i++);
        } else if (a == "--cores") {
            parse_uint(i++, o.cores);
        } else if (a == "--scale") {
            parse_uint(i++, o.scale.emplace());
        } else if (a == "--compression") {
            o.cache_compression = o.link_compression = true;
        } else if (a == "--cache-compression") {
            o.cache_compression = true;
        } else if (a == "--link-compression") {
            o.link_compression = true;
        } else if (a == "--adaptive-compression") {
            o.adaptive_compression = true;
        } else if (a == "--prefetch") {
            o.prefetch = true;
        } else if (a == "--adaptive") {
            o.prefetch = true;
            o.adaptive = true;
        } else if (a == "--bandwidth") {
            o.bandwidth = parse_double(i++);
        } else if (a == "--infinite-bw") {
            o.infinite_bw = true;
        } else if (a == "--warmup") {
            parse_uint(i++, o.warmup.emplace());
        } else if (a == "--measure") {
            parse_uint(i++, o.measure.emplace());
        } else if (a == "--seed") {
            parse_uint(i++, o.seed);
        } else if (a == "--stats") {
            o.dump_stats = true;
        } else if (a == "--cpi-stack") {
            o.cpi_stack = true;
        } else if (a == "--report") {
            o.report_path = need_value(i++);
        } else {
            die(a.c_str(), "unknown flag (see --help)");
        }
    }
    return o;
}

/** The run's stdout: the headline metrics, then the CPI stacks and
 *  the full stat dump when asked for. */
void
printFullDetail(const CliOptions &o, CmpSystem &sys, const RunResult &r)
{
    std::printf("\ncycles        %.0f\n", r.cycles);
    std::printf("instructions  %.0f\n", r.instructions);
    std::printf("IPC           %.3f (%.3f per core)\n", r.ipc,
                r.ipc / o.cores);
    std::printf("off-chip bw   %.2f GB/s\n", r.bandwidth_gbps);
    std::printf("L2 misses     %.0f (%.2f per 1k instr)\n",
                r.l2_demand_misses, r.l2_misses_per_kilo_instr);
    if (o.cache_compression)
        std::printf("L2 ratio      %.2f\n", r.compression_ratio);
    const StatRegistry &reg = sys.stats();
    if (o.prefetch) {
        std::printf("L2 prefetches %llu issued, %llu hits\n",
                    static_cast<unsigned long long>(
                        reg.counter("l2.l2pf_issued")),
                    static_cast<unsigned long long>(
                        reg.counter("l2.pf_hits_l2")));
        if (o.adaptive)
            std::printf("L2 adaptive counter %.0f / 25\n",
                        r.l2_adaptive_counter);
    }

    if (sys.config().cpi_stack) {
        // Per-core stacks: every attributed cycle belongs to exactly
        // one leaf, so each line sums to that core's measured cycles.
        std::printf("\n--- CPI stack (cycles per leaf) ---\n");
        for (unsigned c = 0; c < o.cores; ++c) {
            const CpiAccount *a = sys.cpiAccount(c);
            if (a == nullptr)
                continue;
            std::printf("core %u:", c);
            for (unsigned l = 0; l < kCpiLeafCount; ++l) {
                const auto leaf = static_cast<CpiLeaf>(l);
                const std::uint64_t v = a->leafCycles(leaf);
                if (v != 0)
                    std::printf(" %s=%llu", cpiLeafName(leaf),
                                static_cast<unsigned long long>(v));
            }
            std::printf(" (pf_hidden=%llu)\n",
                        static_cast<unsigned long long>(
                            a->pfHiddenCycles()));
        }
        const MissJournal *j = sys.missJournal();
        if (j != nullptr)
            std::printf("journeys      %llu completed\n",
                        static_cast<unsigned long long>(
                            j->recordsCompleted()));
    }

    if (o.dump_stats) {
        std::printf("\n--- full statistics ---\n");
        std::ostringstream os;
        reg.dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
}

/** The real driver; throws SimError for anything the simulator
 *  rejects (unknown benchmark, bad config, watchdog, ...). */
int
run(const CliOptions &o)
{
    // Honour the environment knobs for single runs too: a flag not
    // given takes its knob's value.
    const EnvKnobs env = readEnvKnobs();

    RunLengths lengths = env.lengths;
    lengths.warmup_per_core = o.warmup.value_or(lengths.warmup_per_core);
    lengths.measure_per_core =
        o.measure.value_or(lengths.measure_per_core);
    SystemConfig cfg =
        makeConfig(o.cores, o.scale.value_or(env.scale),
                   o.cache_compression, o.link_compression, o.prefetch,
                   o.adaptive, o.bandwidth);
    cfg.infinite_bandwidth = o.infinite_bw;
    cfg.adaptive_compression = o.adaptive_compression;
    cfg.seed = o.seed;
    // Flags beat the environment makeConfig() applied.
    if (o.cpi_stack)
        cfg.cpi_stack = true;
    // Validate before the banner: "--scale 0" must die with a
    // ConfigError, not divide the L2-size estimate by zero.
    cfg.validate();

    // CMPSIM_PROF=1 turns the scoped timers on, reported in the
    // --report JSON.
    setProfEnabled(env.prof);

    std::printf("cmpsim: %s, %u cores, scale %u (L2 %llu KB), "
                "%.0f GB/s%s%s%s%s%s\n",
                o.workload.c_str(), o.cores, cfg.scale,
                static_cast<unsigned long long>(
                    cfg.l2Params().dataCapacityBytes() / 1024),
                o.bandwidth,
                o.infinite_bw ? " (infinite)" : "",
                o.cache_compression ? ", cache-compr" : "",
                o.link_compression ? ", link-compr" : "",
                o.prefetch ? ", prefetch" : "",
                o.adaptive ? " (adaptive)" : "");

    RunReport report;
    report.benchmark = o.workload;
    report.seed = o.seed;
    report.warmup_per_core = lengths.warmup_per_core;
    report.measure_per_core = lengths.measure_per_core;
    report.knobs = env.raw;
    {
        PointSpec spec;
        spec.config = cfg;
        spec.benchmark = o.workload;
        spec.lengths = lengths;
        spec.seeds = 1;
        report.config_fingerprint = fnv1a(pointSpecBytes(spec));
    }
    const auto wall_start = std::chrono::steady_clock::now();
    auto writeReport = [&](CmpSystem &system) {
        if (o.report_path.empty())
            return;
        report.wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        report.max_rss_kb = currentMaxRssKb();
        report.prof = profSnapshot();
        report.stats = captureStats(system.stats());
        if (system.config().cpi_stack)
            report.cpi_stack = captureStats(system.cpiStats());
        std::ofstream out(o.report_path,
                          std::ios::binary | std::ios::trunc);
        if (!out.is_open()) {
            throw ConfigError("report",
                              "cannot open report file \"" +
                                  o.report_path + "\" for writing");
        }
        writeRunReport(out, report);
    };

    CmpSystem sys(cfg, benchmarkParams(o.workload));
    RunResult r;
    try {
        r = warmupAndMeasure(sys, lengths);
    } catch (const SimError &e) {
        // A failed run still leaves a report: status, the error, and
        // whatever stats the run accumulated before it died.
        report.status = errorKindName(e.kind());
        report.error = e.what();
        writeReport(sys);
        throw;
    }
    report.cycles = static_cast<std::uint64_t>(r.cycles);
    report.instructions = static_cast<std::uint64_t>(r.instructions);
    report.ipc = r.ipc;
    report.bandwidth_gbps = r.bandwidth_gbps;
    report.compression_ratio = r.compression_ratio;

    printFullDetail(o, sys, r);

    writeReport(sys);
    if (!o.report_path.empty())
        std::printf("run report    %s\n", o.report_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions o = parse(argc, argv);
    try {
        return run(o);
    } catch (const SimError &e) {
        // what() is already "[kind] context: message" — one line,
        // machine-grepable.
        std::fprintf(stderr, "cmpsim: error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cmpsim: error: [internal] %s\n", e.what());
        return 2;
    }
}
