#include "src/obs/trace.h"

#include <cstdio>

#include "src/common/sim_error.h"
#include "src/obs/json_writer.h"

namespace cmpsim {

namespace detail {
std::atomic<Tracer *> g_tracer{nullptr};
} // namespace detail

namespace {

/** Per-thread track identity for simulated events. */
thread_local unsigned tl_pid = kTraceSimPid;
thread_local unsigned tl_tid = 0;

} // namespace

Tracer::Tracer(const std::string &path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc),
      epoch_(std::chrono::steady_clock::now())
{
    if (!out_.is_open()) {
        throw ConfigError("trace",
                          "cannot open trace file \"" + path +
                              "\" for writing");
    }
    out_ << "[\n";
    processName(kTraceWallPid, "cmpsim wall clock (us)");
    processName(kTraceSimPid, "cmpsim simulation (cycles)");
}

Tracer::~Tracer()
{
    if (armed() == this)
        arm(nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    // A trailing comma after the last event is invalid JSON; the
    // metadata events emitted at construction guarantee at least one
    // event, so closing after "\n]" is always well-formed.
    out_ << "\n]\n";
    out_.flush();
}

void
Tracer::arm(Tracer *t)
{
    detail::g_tracer.store(t, std::memory_order_release);
}

Tracer *
Tracer::armed()
{
    return detail::g_tracer.load(std::memory_order_acquire);
}

std::uint64_t
Tracer::nowWallUs() const
{
    const auto dt = std::chrono::steady_clock::now() - epoch_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(dt)
            .count());
}

void
Tracer::emit(const char *name, char phase, std::uint64_t ts,
             unsigned pid, unsigned tid, std::uint64_t dur,
             bool has_dur, bool instant_scope, TraceArgs args,
             std::uint64_t id, bool has_id)
{
    // One event per line: greppable, and a truncated tail is easy to
    // spot. Built outside the lock; only the write is serialized.
    std::string line;
    line.reserve(128);
    line += "{\"name\":\"";
    line += jsonEscape(name);
    line += "\",\"ph\":\"";
    line += phase;
    line += "\",\"ts\":";
    line += std::to_string(ts);
    if (has_dur) {
        line += ",\"dur\":";
        line += std::to_string(dur);
    }
    if (has_id) {
        line += ",\"id\":";
        line += std::to_string(id);
    }
    line += ",\"pid\":";
    line += std::to_string(pid);
    line += ",\"tid\":";
    line += std::to_string(tid);
    if (instant_scope)
        line += ",\"s\":\"t\""; // thread-scoped instant marker
    if (args.size() != 0) {
        line += ",\"args\":{";
        bool first = true;
        for (const TraceArg &a : args) {
            if (!first)
                line += ",";
            first = false;
            line += "\"";
            line += jsonEscape(a.key);
            line += "\":";
            if (a.is_string) {
                line += "\"";
                line += jsonEscape(a.str);
                line += "\"";
            } else {
                char buf[40];
                std::snprintf(buf, sizeof(buf), "%.17g", a.num);
                line += buf;
            }
        }
        line += "}";
    }
    line += "}";

    std::lock_guard<std::mutex> lock(mutex_);
    if (events_ != 0)
        out_ << ",\n";
    out_ << line;
    ++events_;
}

void
Tracer::instant(const char *name, Cycle cycle, TraceArgs args)
{
    emit(name, 'i', cycle, tl_pid, tl_tid, 0, false, true, args);
}

void
Tracer::completeWall(const char *name, std::uint64_t start_us,
                     std::uint64_t end_us, TraceArgs args)
{
    emit(name, 'X', start_us, kTraceWallPid, tl_tid,
         end_us >= start_us ? end_us - start_us : 0, true, false, args);
}

void
Tracer::processName(unsigned pid, const std::string &name)
{
    emit("process_name", 'M', 0, pid, 0, 0, false, false,
         {{"name", name.c_str()}});
}

void
Tracer::threadName(unsigned pid, unsigned tid, const std::string &name)
{
    emit("thread_name", 'M', 0, pid, tid, 0, false, false,
         {{"name", name.c_str()}});
}

void
Tracer::asyncBegin(const char *name, Cycle cycle, std::uint64_t id,
                   TraceArgs args)
{
    emit(name, 'b', cycle, tl_pid, tl_tid, 0, false, false, args, id,
         /*has_id=*/true);
}

void
Tracer::asyncEnd(const char *name, Cycle cycle, std::uint64_t id,
                 TraceArgs args)
{
    emit(name, 'e', cycle, tl_pid, tl_tid, 0, false, false, args, id,
         /*has_id=*/true);
}

TraceThreadScope::TraceThreadScope(unsigned pid, unsigned tid)
    : prev_pid_(tl_pid), prev_tid_(tl_tid)
{
    tl_pid = pid;
    tl_tid = tid;
}

TraceThreadScope::~TraceThreadScope()
{
    tl_pid = prev_pid_;
    tl_tid = prev_tid_;
}

TraceSession::TraceSession(const std::string &path)
{
    if (path.empty())
        return;
    tracer_ = std::make_unique<Tracer>(path);
    Tracer::arm(tracer_.get());
}

TraceSession::~TraceSession()
{
    if (tracer_ != nullptr && Tracer::armed() == tracer_.get())
        Tracer::arm(nullptr);
}

} // namespace cmpsim
