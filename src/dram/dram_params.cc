#include "src/dram/dram_params.h"

#include <cstdlib>

#include "src/common/sim_error.h"

namespace cmpsim {

namespace {

bool
isPowerOfTwo(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

[[noreturn]] void
badSpec(const std::string &why)
{
    throw ConfigError("env.CMPSIM_DRAM", why);
}

std::uint64_t
parseUint(const std::string &key, const std::string &value)
{
    if (value.empty())
        badSpec("empty value for \"" + key + "\"");
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size())
        badSpec("bad integer \"" + value + "\" for \"" + key + "\"");
    return v;
}

void
applyOption(DramTimingParams &p, const std::string &key,
            const std::string &value)
{
    auto u32 = [&] { return static_cast<unsigned>(parseUint(key, value)); };
    auto cyc = [&] { return static_cast<Cycle>(parseUint(key, value)); };
    if (key == "channels") {
        p.channels = u32();
    } else if (key == "ranks") {
        p.ranks = u32();
    } else if (key == "banks") {
        p.banks = u32();
    } else if (key == "row_bytes") {
        p.row_bytes = u32();
    } else if (key == "trcd") {
        p.trcd = cyc();
    } else if (key == "tcas") {
        p.tcas = cyc();
    } else if (key == "trp") {
        p.trp = cyc();
    } else if (key == "tras") {
        p.tras = cyc();
    } else if (key == "burst_bytes") {
        p.burst_bytes = u32();
    } else if (key == "burst_cycles") {
        p.burst_cycles = cyc();
    } else if (key == "ctrl_latency") {
        p.ctrl_latency = cyc();
    } else if (key == "refresh_interval") {
        p.refresh_interval = cyc();
    } else if (key == "refresh_cycles") {
        p.refresh_cycles = cyc();
    } else if (key == "wq_high") {
        p.write_high_watermark = u32();
    } else if (key == "wq_low") {
        p.write_low_watermark = u32();
    } else if (key == "page") {
        if (value == "open")
            p.closed_page = false;
        else if (value == "closed")
            p.closed_page = true;
        else
            badSpec("page must be open|closed, got \"" + value + "\"");
    } else if (key == "sched") {
        if (value == "frfcfs")
            p.sched = DramSched::FrFcfs;
        else if (value == "fcfs")
            p.sched = DramSched::Fcfs;
        else
            badSpec("sched must be frfcfs|fcfs, got \"" + value + "\"");
    } else {
        badSpec("unknown option \"" + key + "\"");
    }
}

} // namespace

void
parseDramSpec(const std::string &spec, DramTimingParams &p)
{
    if (spec.empty())
        return;

    const std::size_t colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    if (kind == "fixed") {
        if (colon != std::string::npos)
            badSpec("\"fixed\" takes no options");
        p.backend = DramBackendKind::Fixed;
        return;
    }
    if (kind != "banked")
        badSpec("backend must be fixed|banked, got \"" + kind + "\"");
    p.backend = DramBackendKind::Banked;
    if (colon == std::string::npos)
        return;

    std::size_t at = colon + 1;
    while (at <= spec.size()) {
        std::size_t comma = spec.find(',', at);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(at, comma - at);
        const std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0)
            badSpec("options must be key=value, got \"" + item + "\"");
        applyOption(p, item.substr(0, eq), item.substr(eq + 1));
        at = comma + 1;
    }
}

void
validateDramParams(const DramTimingParams &p)
{
    auto reject = [](const char *knob, const std::string &why) {
        throw ConfigError(knob, why);
    };

    if (p.channels == 0)
        reject("config.dram.channels", "zero DRAM channels");
    if (p.ranks == 0)
        reject("config.dram.ranks", "zero DRAM ranks");
    if (p.banks == 0)
        reject("config.dram.banks", "zero DRAM banks");
    if (p.row_bytes < kLineBytes || !isPowerOfTwo(p.row_bytes)) {
        reject("config.dram.row_bytes",
               "row buffer must be a power of two >= " +
                   std::to_string(kLineBytes) + " bytes, got " +
                   std::to_string(p.row_bytes));
    }
    if (p.burst_bytes == 0)
        reject("config.dram.burst_bytes", "burst of 0 bytes");
    if (p.burst_cycles == 0)
        reject("config.dram.burst_cycles", "burst of 0 cycles");
    if (p.trcd == 0 || p.tcas == 0 || p.trp == 0) {
        reject("config.dram.timing",
               "tRCD/tCAS/tRP must all be >= 1 cycle");
    }
    if (p.tras < p.trcd + p.tcas) {
        reject("config.dram.tras",
               "tRAS " + std::to_string(p.tras) +
                   " < tRCD + tCAS = " +
                   std::to_string(p.trcd + p.tcas));
    }
    if (p.write_high_watermark == 0)
        reject("config.dram.wq_high", "zero write-drain high watermark");
    if (p.write_low_watermark >= p.write_high_watermark) {
        reject("config.dram.wq_low",
               "write-drain low watermark " +
                   std::to_string(p.write_low_watermark) +
                   " must be below the high watermark " +
                   std::to_string(p.write_high_watermark));
    }
    if (p.refresh_interval > 0 &&
        p.refresh_cycles >= p.refresh_interval) {
        reject("config.dram.refresh",
               "refresh stall " + std::to_string(p.refresh_cycles) +
                   " cycles must be shorter than the refresh interval " +
                   std::to_string(p.refresh_interval));
    }
}

} // namespace cmpsim
