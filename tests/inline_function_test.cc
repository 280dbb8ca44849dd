#include "src/sim/inline_function.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "src/common/types.h"

namespace cmpsim {
namespace {

using Fn = InlineFunction<int(int), 24>;

static_assert(std::is_trivially_copyable_v<Fn>);
static_assert(sizeof(Fn) == sizeof(void *) + 24);

TEST(InlineFunctionTest, InvokesTheStoredClosure)
{
    const int base = 40;
    const Fn add = [base](int x) { return base + x; };
    EXPECT_EQ(add(2), 42);
}

TEST(InlineFunctionTest, CopiesCarryTheirOwnCaptures)
{
    std::uint64_t hits = 0;
    const std::uint64_t step = 3;
    InlineFunction<void(Cycle), 16> f = [&hits, step](Cycle c) {
        hits += step * c;
    };
    const auto g = f;
    f = nullptr;
    g(2);
    g(1);
    EXPECT_EQ(hits, 9u);
    EXPECT_FALSE(f);
    EXPECT_TRUE(g);
}

TEST(InlineFunctionTest, NullptrAndDefaultAreEmpty)
{
    const Fn from_null = nullptr;
    const Fn defaulted{};
    EXPECT_FALSE(from_null);
    EXPECT_FALSE(defaulted);
    EXPECT_TRUE(Fn([](int x) { return x; }));
}

TEST(InlineFunctionTest, MutableClosureKeepsStateAcrossCalls)
{
    const Fn counter = [n = 0](int step) mutable { return n += step; };
    EXPECT_EQ(counter(1), 1);
    EXPECT_EQ(counter(2), 3);
    // A copy snapshots the state at the time it was taken.
    const Fn fork = counter;
    EXPECT_EQ(fork(10), 13);
    EXPECT_EQ(counter(1), 4);
}

TEST(InlineFunctionTest, NestsAnotherInlineFunction)
{
    using Inner = InlineFunction<int(int), 8>;
    const Inner twice = [](int x) { return 2 * x; };
    const Fn outer = [twice](int x) { return twice(x) + 1; };
    EXPECT_EQ(outer(20), 41);
}

} // namespace
} // namespace cmpsim
