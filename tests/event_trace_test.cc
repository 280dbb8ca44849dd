#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core_api/cmp_system.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "cmpsim_event_trace_" + name + ".json";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Structural JSON validation without a parser dependency: brackets
 * and braces balance outside string literals, strings terminate, and
 * the document reduces to exactly one top-level value.
 */
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

/** Every "ts" of events named @p name, in file order. */
std::vector<std::uint64_t>
timestampsOf(const std::string &text, const std::string &name)
{
    std::vector<std::uint64_t> out;
    const std::string needle = "\"name\":\"" + name + "\"";
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find(needle) == std::string::npos)
            continue;
        const auto ts_pos = line.find("\"ts\":");
        if (ts_pos == std::string::npos) {
            ADD_FAILURE() << "event without ts: " << line;
            continue;
        }
        out.push_back(std::strtoull(line.c_str() + ts_pos + 5, nullptr, 10));
    }
    return out;
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

TEST(EventTraceTest, FileIsWellFormedJsonArray)
{
    const std::string path = tempPath("wellformed");
    {
        Tracer tracer(path);
        Tracer::arm(&tracer);
        TraceThreadScope scope(kTraceSimPid, 3);
        traceInstant("unit.event", 10, {{"line", std::uint64_t{64}}});
        tracer.completeWall("unit.wall", 0, 100);
        Tracer::arm(nullptr);
        EXPECT_GE(tracer.eventsWritten(), 4u); // 2 metadata + 2 above
    }
    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.substr(text.size() - 2), "]\n");
    EXPECT_TRUE(jsonBalanced(text));
    // The escaping path holds up for quotes and backslashes too.
    EXPECT_NE(text.find("\"unit.event\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(EventTraceTest, ProbesAreInertWhenUnarmed)
{
    ASSERT_EQ(Tracer::armed(), nullptr);
    EXPECT_FALSE(traceEnabled());
    // Must be safe (and free) to call with no tracer.
    traceInstant("nobody.listening", 1, {{"x", std::uint64_t{2}}});
}

TEST(EventTraceTest, TracedRunEmitsMonotonicObservabilityTracks)
{
    const std::string path = tempPath("monotonic");
    {
        TraceSession session(path);
        ASSERT_TRUE(session.active());
        (void)runFingerprint();
    }
    const std::string text = slurp(path);
    EXPECT_TRUE(jsonBalanced(text));

    // Link transfers (stamped at eq.now(), not their future ready
    // cycle) and the wall-clock phase events are emitted in time
    // order.
    for (const char *track : {"link.transfer", "phase.measure"}) {
        const std::vector<std::uint64_t> ts = timestampsOf(text, track);
        ASSERT_FALSE(ts.empty()) << track << " missing from trace";
        for (std::size_t i = 1; i < ts.size(); ++i)
            EXPECT_LE(ts[i - 1], ts[i]) << track;
    }
    // The probe sites actually fired during a full-featured run.
    EXPECT_NE(text.find("\"l2.fill\""), std::string::npos);
    EXPECT_NE(text.find("\"link.transfer\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(EventTraceTest, TracingDoesNotPerturbSimulation)
{
    const std::string baseline = runFingerprint();
    const std::string path = tempPath("perturb");
    std::string traced;
    {
        TraceSession session(path);
        ASSERT_TRUE(session.active());
        traced = runFingerprint();
    }
    // Byte-identical stats: the probes only read simulator state.
    EXPECT_EQ(baseline, traced);
    std::remove(path.c_str());
}

} // namespace
} // namespace cmpsim
