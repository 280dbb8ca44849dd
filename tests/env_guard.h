/**
 * @file
 * Scoped environment variable for tests that set CMPSIM_* knobs. It
 * sets the variable (or unsets it, given nullptr) and restores the
 * previous state on scope exit, so a test neither leaks a knob into
 * the next one nor clobbers one the suite runs under (CI's audit leg
 * exports CMPSIM_AUDIT to every test).
 */

#ifndef CMPSIM_TESTS_ENV_GUARD_H
#define CMPSIM_TESTS_ENV_GUARD_H

#include <cstdlib>
#include <optional>
#include <string>

namespace cmpsim {

class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        set(value);
    }
    ~EnvGuard() { set(saved_ ? saved_->c_str() : nullptr); }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    void
    set(const char *value)
    {
        if (value != nullptr)
            ::setenv(name_, value, 1);
        else
            ::unsetenv(name_);
    }

    const char *name_;
    std::optional<std::string> saved_;
};

} // namespace cmpsim

#endif // CMPSIM_TESTS_ENV_GUARD_H
