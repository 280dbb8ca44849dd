#include "src/ckpt/cont_tag.h"

#include <atomic>

namespace cmpsim::ckpt {

namespace {

thread_local bool t_restored = false;

} // namespace

namespace detail {

std::atomic<bool> g_armed{false};

Tag
makeTag(std::uint16_t kind, std::uint64_t a, std::uint64_t b,
        std::uint64_t c, std::uint64_t d, Tag inner)
{
    auto f = std::make_shared<Frame>();
    f->kind = kind;
    f->a = a;
    f->b = b;
    f->c = c;
    f->d = d;
    f->inner = std::move(inner);
    return f;
}

} // namespace detail

void
setArmed(bool on)
{
    detail::g_armed.store(on, std::memory_order_relaxed);
}

void
noteRestored()
{
    t_restored = true;
}

bool
consumeRestoredFlag()
{
    const bool was = t_restored;
    t_restored = false;
    return was;
}

} // namespace cmpsim::ckpt
