/**
 * @file
 * Minimal streaming JSON emitter for the run report
 * (src/obs/run_report.h). No reflection, no DOM: callers push
 * begin/end/key/value calls and the writer tracks comma placement and
 * indentation. Output is deterministic for deterministic inputs —
 * doubles are printed with %.17g so a value round-trips bit-exactly
 * through a JSON parser.
 */

#ifndef CMPSIM_OBS_JSON_WRITER_H
#define CMPSIM_OBS_JSON_WRITER_H

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/log.h"

namespace cmpsim {

/** Escape @p s for inclusion inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

/** Push-based JSON writer with two-space indentation. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** Open the root (or a nested anonymous) object/array. */
    void beginObject() { open('{'); }
    void beginArray() { open('['); }

    /** Open an object/array as the value of @p key. */
    void
    beginObject(const char *key)
    {
        keyPrefix(key);
        openRaw('{');
    }

    void
    beginArray(const char *key)
    {
        keyPrefix(key);
        openRaw('[');
    }

    void
    end()
    {
        cmpsim_assert(!stack_.empty());
        const Frame f = stack_.back();
        stack_.pop_back();
        if (f.count > 0) {
            os_ << "\n";
            indent();
        }
        os_ << (f.array ? ']' : '}');
    }

    // -- scalar values ---------------------------------------------
    void
    value(const std::string &v)
    {
        std::string quoted(1, '"');
        quoted.append(jsonEscape(v));
        quoted.push_back('"');
        item(quoted);
    }
    void value(const char *v) { value(std::string(v)); }
    void value(bool v) { item(v ? "true" : "false"); }
    void value(std::uint64_t v) { item(std::to_string(v)); }
    void value(std::int64_t v) { item(std::to_string(v)); }
    void value(unsigned v) { item(std::to_string(v)); }
    void value(int v) { item(std::to_string(v)); }

    void
    value(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        item(buf);
    }

    template <typename T>
    void
    keyValue(const char *key, const T &v)
    {
        keyPrefix(key);
        pending_key_ = true;
        value(v);
    }

  private:
    struct Frame
    {
        bool array;
        unsigned count;
    };

    void
    indent()
    {
        for (std::size_t i = 0; i < stack_.size(); ++i)
            os_ << "  ";
    }

    /** Comma/newline/indent for the next element of the open frame. */
    void
    separate()
    {
        if (stack_.empty())
            return;
        if (stack_.back().count++ > 0)
            os_ << ",";
        os_ << "\n";
        indent();
    }

    void
    keyPrefix(const char *key)
    {
        cmpsim_assert(!stack_.empty() && !stack_.back().array);
        separate();
        os_ << "\"" << jsonEscape(key) << "\": ";
    }

    void
    open(char c)
    {
        if (!stack_.empty())
            separate();
        openRaw(c);
    }

    void
    openRaw(char c)
    {
        os_ << c;
        stack_.push_back(Frame{c == '[', 0});
    }

    void
    item(const std::string &text)
    {
        if (pending_key_)
            pending_key_ = false; // key already emitted the separator
        else
            separate();
        os_ << text;
    }

    std::ostream &os_;
    std::vector<Frame> stack_;
    bool pending_key_ = false;
};

} // namespace cmpsim

#endif // CMPSIM_OBS_JSON_WRITER_H
