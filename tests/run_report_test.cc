#include "src/obs/run_report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core_api/cmp_system.h"
#include "src/obs/profiler.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

/** Brackets/braces balance outside string literals. */
bool
jsonBalanced(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '[': stack.push_back(']'); break;
        case '{': stack.push_back('}'); break;
        case ']':
        case '}':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
        default: break;
        }
    }
    return !in_string && stack.empty();
}

TEST(RunReportTest, CaptureStatsCopiesEveryCounterAndHistogram)
{
    StatRegistry reg;
    Counter a, b;
    Histogram h(10.0, 4);
    reg.registerCounter("b.second", &b);
    reg.registerCounter("a.first", &a);
    reg.registerHistogram("lat", &h);
    a += 3;
    b += 9;
    h.sample(5);
    h.sample(15);
    h.sample(-1);

    const StatCapture c = captureStats(reg);

    ASSERT_EQ(c.counters.size(), 2u);
    EXPECT_EQ(c.counters[0].first, "a.first"); // sorted
    EXPECT_EQ(c.counters[0].second, 3u);
    EXPECT_EQ(c.counters[1].first, "b.second");
    EXPECT_EQ(c.counters[1].second, 9u);

    ASSERT_EQ(c.histograms.size(), 1u);
    const HistogramReport &hr = c.histograms[0];
    EXPECT_EQ(hr.name, "lat");
    EXPECT_EQ(hr.count, 3u);
    EXPECT_EQ(hr.underflow, 1u);
    EXPECT_DOUBLE_EQ(hr.p50, h.quantile(0.50));
    EXPECT_DOUBLE_EQ(hr.p99, h.quantile(0.99));
}

TEST(RunReportTest, JsonRoundTripsEveryField)
{
    RunReport report;
    report.benchmark = "zeus";
    report.seed = 42;
    report.config_fingerprint = 0xdeadbeefu;
    report.warmup_per_core = 1000;
    report.measure_per_core = 500;
    report.knobs = {{"CMPSIM_SEEDS", "3"}, {"CMPSIM_JOBS", "1"}};
    report.cycles = 12345;
    report.instructions = 6789;
    report.ipc = 0.5;
    report.stats.counters.emplace_back("l2.demand_misses", 17);
    HistogramReport hr;
    hr.name = "mem.read_latency_hist";
    hr.count = 4;
    hr.p99 = 250.0;
    report.stats.histograms.push_back(hr);
    report.wall_seconds = 1.25;
    report.max_rss_kb = 2048;
    ProfSample prof;
    prof.name = "eq.dispatch";
    prof.calls = 7;
    prof.total_ns = 900;
    report.prof.push_back(prof);

    std::ostringstream os;
    writeRunReport(os, report);
    const std::string json = os.str();

    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"schema\": \"cmpsim.run_report.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"benchmark\": \"zeus\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
    // One "knobs" object, sorted by name.
    const std::size_t knobs = json.find("\"knobs\": {");
    const std::size_t jobs = json.find("\"CMPSIM_JOBS\": \"1\"");
    const std::size_t seeds = json.find("\"CMPSIM_SEEDS\": \"3\"");
    ASSERT_NE(knobs, std::string::npos);
    ASSERT_NE(jobs, std::string::npos);
    ASSERT_NE(seeds, std::string::npos);
    EXPECT_LT(knobs, jobs);
    EXPECT_LT(jobs, seeds);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\": 12345"), std::string::npos);
    EXPECT_NE(json.find("\"l2.demand_misses\": 17"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"mem.read_latency_hist\""),
              std::string::npos);
    EXPECT_NE(json.find("\"p99\": 250"), std::string::npos);
    EXPECT_NE(json.find("\"max_rss_kb\": 2048"), std::string::npos);
    EXPECT_NE(json.find("\"site\": \"eq.dispatch\""), std::string::npos);
    EXPECT_NE(json.find("\"calls\": 7"), std::string::npos);
    // "error" is omitted on the happy path.
    EXPECT_EQ(json.find("\"error\""), std::string::npos);
}

TEST(RunReportTest, FailedRunReportCarriesErrorAndStatus)
{
    RunReport report;
    report.status = "watchdog";
    report.error = "[watchdog] run: no instruction retired";
    std::ostringstream os;
    writeRunReport(os, report);
    const std::string json = os.str();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"status\": \"watchdog\""), std::string::npos);
    EXPECT_NE(json.find("\"error\": \"[watchdog] run: no instruction "
                        "retired\""),
              std::string::npos);
}

TEST(RunReportTest, MaxRssIsReported)
{
    // getrusage can't reasonably fail for RUSAGE_SELF on Linux, and a
    // running gtest binary occupies at least a megabyte.
    EXPECT_GT(currentMaxRssKb(), 1024u);
}

TEST(ProfilerTest, ScopedTimersAccumulateWhenEnabled)
{
    profReset();
    setProfEnabled(true);
    for (int i = 0; i < 10; ++i) {
        CMPSIM_PROF_SCOPE("test.prof_site");
    }
    setProfEnabled(false);

    const std::vector<ProfSample> snap = profSnapshot();
    const ProfSample *site = nullptr;
    for (const ProfSample &s : snap) {
        if (s.name == "test.prof_site")
            site = &s;
    }
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->calls, 10u);

    profReset();
    for (const ProfSample &s : profSnapshot())
        EXPECT_NE(s.name, "test.prof_site"); // zero-call sites dropped
}

/** One deterministic mini-run; returns the stats fingerprint text. */
std::string
runFingerprint()
{
    SystemConfig cfg = makeConfig(/*cores=*/2, /*scale=*/4,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/true);
    cfg.seed = 99;
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(5000);
    sys.run(3000);
    std::ostringstream os;
    sys.stats().dump(os);
    os << "cycles " << sys.cycles() << "\n";
    os << "instructions " << sys.instructions() << "\n";
    return os.str();
}

TEST(ProfilerTest, ProfilingDoesNotPerturbSimulation)
{
    setProfEnabled(false);
    const std::string baseline = runFingerprint();
    profReset();
    setProfEnabled(true);
    const std::string profiled = runFingerprint();
    setProfEnabled(false);
    // Byte-identical stats: the scopes only read the host clock.
    EXPECT_EQ(baseline, profiled);
    // The profiled run really timed the event kernel's dispatch
    // (the snapshot lists only sites that recorded calls).
    bool timed = false;
    for (const ProfSample &s : profSnapshot())
        timed |= s.name == "eq.dispatch";
    EXPECT_TRUE(timed);
    profReset();
}

TEST(ProfilerTest, DisabledScopesCostNoSamples)
{
    profReset();
    setProfEnabled(false);
    {
        CMPSIM_PROF_SCOPE("test.disabled_site");
    }
    for (const ProfSample &s : profSnapshot())
        EXPECT_NE(s.name, "test.disabled_site");
}

} // namespace
} // namespace cmpsim
