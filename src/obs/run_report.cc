#include "src/obs/run_report.h"

#include <sys/resource.h>

#include "src/obs/json_writer.h"

namespace cmpsim {

std::uint64_t
currentMaxRssKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in KiB already.
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

StatCapture
captureStats(const StatRegistry &reg)
{
    StatCapture c;
    for (const std::string &name : reg.counterNames())
        c.counters.emplace_back(name, reg.counter(name));
    for (const std::string &name : reg.histogramNames()) {
        const Histogram &h = reg.histogram(name);
        HistogramReport hr;
        hr.name = name;
        hr.count = h.total();
        hr.mean = h.mean();
        hr.p50 = h.quantile(0.50);
        hr.p90 = h.quantile(0.90);
        hr.p99 = h.quantile(0.99);
        hr.underflow = h.underflow();
        c.histograms.push_back(std::move(hr));
    }
    return c;
}

namespace {

/** @p c as a "counters" object and a "histograms" array. */
void
writeCapture(JsonWriter &w, const StatCapture &c)
{
    w.beginObject("counters");
    for (const auto &[name, value] : c.counters)
        w.keyValue(name.c_str(), value);
    w.end();

    w.beginArray("histograms");
    for (const HistogramReport &h : c.histograms) {
        w.beginObject();
        w.keyValue("name", h.name);
        w.keyValue("count", h.count);
        w.keyValue("mean", h.mean);
        w.keyValue("p50", h.p50);
        w.keyValue("p90", h.p90);
        w.keyValue("p99", h.p99);
        w.keyValue("underflow", h.underflow);
        w.end();
    }
    w.end();
}

} // namespace

void
writeRunReport(std::ostream &os, const RunReport &report)
{
    JsonWriter w(os);
    w.beginObject();
    w.keyValue("schema", "cmpsim.run_report.v1");
    w.keyValue("benchmark", report.benchmark);
    w.keyValue("seed", report.seed);
    w.keyValue("config_fingerprint", report.config_fingerprint);
    w.keyValue("warmup_per_core", report.warmup_per_core);
    w.keyValue("measure_per_core", report.measure_per_core);
    w.beginObject("knobs");
    for (const auto &[name, value] : report.knobs)
        w.keyValue(name.c_str(), value);
    w.end();
    w.keyValue("status", report.status);
    if (!report.error.empty())
        w.keyValue("error", report.error);

    w.beginObject("metrics");
    w.keyValue("cycles", report.cycles);
    w.keyValue("instructions", report.instructions);
    w.keyValue("ipc", report.ipc);
    w.keyValue("bandwidth_gbps", report.bandwidth_gbps);
    w.keyValue("compression_ratio", report.compression_ratio);
    w.end();

    writeCapture(w, report.stats);
    if (!report.cpi_stack.counters.empty() ||
        !report.cpi_stack.histograms.empty()) {
        w.beginObject("cpi_stack");
        writeCapture(w, report.cpi_stack);
        w.end();
    }

    w.beginObject("telemetry");
    w.keyValue("wall_seconds", report.wall_seconds);
    w.keyValue("max_rss_kb", report.max_rss_kb);
    w.beginArray("prof");
    for (const ProfSample &p : report.prof) {
        w.beginObject();
        w.keyValue("site", p.name);
        w.keyValue("calls", p.calls);
        w.keyValue("total_ns", p.total_ns);
        w.end();
    }
    w.end();
    w.end();

    w.end();
    os << "\n";
}

} // namespace cmpsim
