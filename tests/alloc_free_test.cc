/**
 * @file
 * The timed path allocates nothing in steady state: once a system is
 * warmed and has run long enough for its queues, MSHR lists and value
 * store to reach their working size, a further run() performs fewer
 * than one heap allocation per 10,000 simulated instructions.
 *
 * This binary replaces the global operator new/delete to count
 * allocations, so it links no other test. The configs are
 * golden_fingerprint_test's three: every feature on zeus, the 16-core
 * bypass case on mgrid, and compression + plain prefetching on jbb.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/core_api/cmp_system.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

/** Where the self-test parks its allocation so it cannot be elided. */
void *volatile g_sink = nullptr;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace cmpsim {
namespace {

/** Settling run per core before counting. */
constexpr std::uint64_t kSettle = 20000;
/** Counted run per core. */
constexpr std::uint64_t kCounted = 20000;

/** Allocations during a run() of @p counted per core after warmup and
 *  a settling run; @p instructions receives the run's total. */
std::uint64_t
steadyStateAllocations(SystemConfig cfg, const std::string &workload,
                       std::uint64_t warm, std::uint64_t &instructions)
{
    // The default timed path: no periodic audits, no CPI attribution.
    cfg.audit_interval = 0;
    cfg.cpi_stack = false;
    CmpSystem sys(cfg, benchmarkParams(workload));
    sys.warmup(warm);
    sys.run(kSettle);
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    sys.run(kCounted);
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    instructions = sys.instructions();
    return after - before;
}

void
expectAllocationFree(SystemConfig cfg, const std::string &workload,
                     std::uint64_t warm)
{
    std::uint64_t instructions = 0;
    const std::uint64_t allocs =
        steadyStateAllocations(cfg, workload, warm, instructions);
    ASSERT_GE(instructions, kCounted * cfg.cores);
    EXPECT_LT(allocs * 10000, instructions)
        << allocs << " heap allocations in " << instructions
        << " timed instructions";
}

TEST(AllocFreeTest, CountsAllocations)
{
    const std::uint64_t before = g_allocations.load();
    auto *p = new std::uint64_t(7);
    g_sink = p;
    EXPECT_EQ(g_allocations.load(), before + 1);
    delete p;
}

TEST(AllocFreeTest, ZeusEightCoresAllFeatures)
{
    expectAllocationFree(makeConfig(8, 4, true, true, true, true, 20.0),
                         "zeus", 40000);
}

TEST(AllocFreeTest, MgridSixteenCoresBase)
{
    expectAllocationFree(makeConfig(16, 4, false, false, false, false, 20.0),
                         "mgrid", 40000);
}

TEST(AllocFreeTest, JbbComprPref)
{
    expectAllocationFree(makeConfig(8, 4, true, true, true, false, 20.0),
                         "jbb", 30000);
}

} // namespace
} // namespace cmpsim
