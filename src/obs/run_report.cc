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

void
captureStats(const StatRegistry &reg, RunReport &report)
{
    report.counters.clear();
    for (const std::string &name : reg.counterNames())
        report.counters.emplace_back(name, reg.counter(name));

    report.histograms.clear();
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
        report.histograms.push_back(std::move(hr));
    }
}

void
captureCpiStats(const StatRegistry &reg, RunReport &report)
{
    report.cpi_stack.clear();
    for (const std::string &name : reg.counterNames())
        report.cpi_stack.emplace_back(name, reg.counter(name));

    report.cpi_histograms.clear();
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
        report.cpi_histograms.push_back(std::move(hr));
    }
}

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

    w.beginObject("counters");
    for (const auto &[name, value] : report.counters)
        w.keyValue(name.c_str(), value);
    w.end();

    w.beginArray("histograms");
    for (const HistogramReport &h : report.histograms) {
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

    if (!report.cpi_stack.empty() || !report.cpi_histograms.empty()) {
        w.beginObject("cpi_stack");
        w.beginObject("counters");
        for (const auto &[name, value] : report.cpi_stack)
            w.keyValue(name.c_str(), value);
        w.end();
        w.beginArray("histograms");
        for (const HistogramReport &h : report.cpi_histograms) {
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
