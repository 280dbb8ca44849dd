/**
 * @file
 * Checkpoint/restore contract (DESIGN.md §13): a run interrupted by
 * an autosave and resumed in a fresh process finishes with stat dumps
 * byte-identical to the uninterrupted run — under either DRAM
 * backend — while damaged or mismatched snapshots are refused
 * with [config]-kind errors, a bit-flipped primary falls back to its
 * .prev predecessor, and a SIGKILL landing mid-autosave (the chaos
 * test) never loses the run.
 */

#include "src/ckpt/checkpoint.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "src/ckpt/cont_tag.h"
#include "src/ckpt/controller.h"
#include "src/common/fingerprint.h"
#include "src/common/sim_error.h"
#include "src/compression/fpc.h"
#include "src/core_api/cmp_system.h"
#include "src/sim/fault_injection.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

constexpr std::uint64_t kWarmup = 5000;
constexpr std::uint64_t kMeasure = 3000;

SystemConfig
smallConfig()
{
    SystemConfig cfg = makeConfig(/*cores=*/2, /*scale=*/8,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/true);
    cfg.seed = 4242;
    cfg.audit_interval = 5000;
    return cfg;
}

std::string
ckptPath(const char *name)
{
    return ::testing::TempDir() + "cmpsim_" + name + ".ckpt";
}

void
removeSnapshots(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    std::remove((path + ".tmp").c_str());
}

/** Stats fingerprint of a finished system, exactly as the
 *  determinism gate hashes it. */
std::uint64_t
statsHash(CmpSystem &sys)
{
    std::ostringstream out;
    sys.stats().dump(out);
    out << "cycles " << sys.cycles() << "\n";
    out << "instructions " << sys.instructions() << "\n";
    out << "audit_passes " << sys.audits().passesRun() << "\n";
    return fnv1a(out.str());
}

/** One full warmup + run under the current environment. */
std::uint64_t
runToEnd(const SystemConfig &cfg, const char *workload)
{
    CmpSystem sys(cfg, benchmarkParams(workload));
    sys.warmup(kWarmup);
    sys.run(kMeasure);
    return statsHash(sys);
}

/** Scoped environment variable (CmpSystem reads the checkpoint knobs
 *  from the environment at construction). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        setenv(name_, value.c_str(), 1);
    }
    ~EnvGuard() { unsetenv(name_); }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name_;
};

/** Arm continuation tagging for direct checkpointBytes() use (the
 *  env-armed paths arm it themselves in the CmpSystem constructor). */
class ArmGuard
{
  public:
    ArmGuard() { ckpt::setArmed(true); }
    ~ArmGuard() { ckpt::setArmed(false); }
};

void
flipByte(const std::string &path, std::size_t offset)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    ASSERT_LT(offset, size);
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

// ------------------------------------------------------- roundtrip

TEST(CheckpointTest, SaveRestoreSaveIsByteIdentical)
{
    ArmGuard arm;
    const SystemConfig cfg = smallConfig();

    CmpSystem first(cfg, benchmarkParams("zeus"));
    first.warmup(kWarmup);
    first.run(kMeasure);
    const std::string bytes = first.checkpointBytes();

    CmpSystem second(cfg, benchmarkParams("zeus"));
    second.restoreCheckpoint(bytes);
    EXPECT_TRUE(second.restoredFromCheckpoint());
    EXPECT_EQ(second.checkpointBytes(), bytes);
    EXPECT_EQ(statsHash(second), statsHash(first));
}

TEST(CheckpointTest, ValueStoreRoundTripAfterGrowthIsByteIdentical)
{
    ArmGuard arm;
    const SystemConfig cfg = smallConfig();
    const FpcCompressor fpc;
    const std::size_t initial = ValueStore(fpc).capacity();

    CmpSystem first(cfg, benchmarkParams("zeus"));
    first.warmup(50 * kWarmup);
    first.run(kMeasure);
    // The line index has doubled at least three times.
    ASSERT_GE(first.values().capacity(), 8 * initial);
    const std::string bytes = first.checkpointBytes();

    CmpSystem second(cfg, benchmarkParams("zeus"));
    second.restoreCheckpoint(bytes);
    EXPECT_EQ(second.values().lineCount(), first.values().lineCount());
    EXPECT_EQ(second.checkpointBytes(), bytes);
    EXPECT_EQ(statsHash(second), statsHash(first));
}

TEST(CheckpointTest, AutosaveResumeMatchesUninterruptedRun)
{
    const SystemConfig cfg = smallConfig();
    const std::uint64_t baseline = runToEnd(cfg, "zeus");

    const std::string path = ckptPath("AutosaveResume");
    removeSnapshots(path);
    {
        // Autosaving is a pure observer: same hash as the baseline,
        // and the last mid-run snapshot is left on disk.
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
        EXPECT_EQ(runToEnd(cfg, "zeus"), baseline);
    }
    {
        // Resume from the last snapshot: warmup is a no-op (the state
        // is already mid-measurement) and the run finishes toward the
        // original retirement target with the baseline hash.
        EnvGuard restore("CMPSIM_RESTORE", path);
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        EXPECT_TRUE(sys.restoredFromCheckpoint());
        sys.warmup(kWarmup);
        sys.run(kMeasure);
        EXPECT_EQ(statsHash(sys), baseline);
    }
    removeSnapshots(path);
}

TEST(CheckpointTest, BankedDramStateRoundtrips)
{
    SystemConfig cfg = smallConfig();
    cfg.dram.backend = DramBackendKind::Banked;
    const std::uint64_t baseline = runToEnd(cfg, "zeus");

    const std::string path = ckptPath("BankedDram");
    removeSnapshots(path);
    {
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
        EXPECT_EQ(runToEnd(cfg, "zeus"), baseline);
    }
    {
        EnvGuard restore("CMPSIM_RESTORE", path);
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        sys.run(kMeasure);
        EXPECT_EQ(statsHash(sys), baseline);
    }
    removeSnapshots(path);
}

// ------------------------------------------------------- rejection

TEST(CheckpointTest, MismatchedFingerprintIsRefused)
{
    const SystemConfig cfg = smallConfig();
    const std::string path = ckptPath("FingerprintMismatch");
    removeSnapshots(path);
    {
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
        runToEnd(cfg, "zeus");
    }

    EnvGuard restore("CMPSIM_RESTORE", path);
    // Different workload: fingerprints disagree, restore is refused.
    EXPECT_THROW(CmpSystem(cfg, benchmarkParams("apsi")), ConfigError);
    // Different behavioural config knob: ditto.
    SystemConfig other = cfg;
    other.cache_compression = false;
    EXPECT_THROW(CmpSystem(other, benchmarkParams("zeus")), ConfigError);
    removeSnapshots(path);
}

TEST(CheckpointTest, TruncatedSnapshotWithoutFallbackIsRefused)
{
    const SystemConfig cfg = smallConfig();
    const std::string path = ckptPath("Truncated");
    removeSnapshots(path);
    {
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
        runToEnd(cfg, "zeus");
    }
    std::remove((path + ".prev").c_str());

    // Chop the file mid-section: the whole-file CRC no longer matches
    // and there is no .prev to fall back to.
    {
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 200u);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }

    EnvGuard restore("CMPSIM_RESTORE", path);
    try {
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        FAIL() << "truncated snapshot was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("[config]"),
                  std::string::npos)
            << e.what();
    }
    removeSnapshots(path);
}

TEST(CheckpointTest, BitFlippedPrimaryFallsBackToPrev)
{
    const SystemConfig cfg = smallConfig();
    const std::uint64_t baseline = runToEnd(cfg, "zeus");

    const std::string path = ckptPath("BitFlip");
    removeSnapshots(path);
    {
        // every500 over a few-thousand-cycle run: several autosaves,
        // so both the primary and its .prev predecessor exist.
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
        runToEnd(cfg, "zeus");
    }
    std::ifstream prev(path + ".prev", std::ios::binary);
    ASSERT_TRUE(prev.good()) << "autosave never rotated a .prev";
    prev.close();

    flipByte(path, 4096);
    {
        // Corrupt primary, intact .prev: restore silently falls back
        // and the resumed run still reproduces the baseline.
        EnvGuard restore("CMPSIM_RESTORE", path);
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        sys.run(kMeasure);
        EXPECT_EQ(statsHash(sys), baseline);
    }

    flipByte(path + ".prev", 4096);
    {
        // Both damaged: refused with a [config]-kind error.
        EnvGuard restore("CMPSIM_RESTORE", path);
        EXPECT_THROW(CmpSystem(cfg, benchmarkParams("zeus")),
                     ConfigError);
    }
    removeSnapshots(path);
}

TEST(CheckpointTest, SamplerAndCheckpointAreMutuallyExclusive)
{
    SystemConfig cfg = smallConfig();
    cfg.sample_interval = 1000;
    const std::string path = ckptPath("SamplerConflict");
    EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
    EXPECT_THROW(CmpSystem(cfg, benchmarkParams("zeus")), ConfigError);
    removeSnapshots(path);
}

TEST(CheckpointTest, MalformedCkptSpecIsRefused)
{
    EXPECT_THROW(ckpt::Settings::parseCkptSpec("snap.bin"), ConfigError);
    EXPECT_THROW(ckpt::Settings::parseCkptSpec("snap.bin:every"),
                 ConfigError);
    EXPECT_THROW(ckpt::Settings::parseCkptSpec("snap.bin:every0"),
                 ConfigError);
    EXPECT_THROW(ckpt::Settings::parseCkptSpec("snap.bin:everyx9"),
                 ConfigError);
    const ckpt::Settings s = ckpt::Settings::parseCkptSpec(
        "snap.bin:every1000");
    EXPECT_EQ(s.save_path, "snap.bin");
    EXPECT_EQ(s.every, 1000u);
}

// ---------------------------------------------------- fault sites

TEST(CheckpointFaultTest, SaveSiteInjectsOnAutosave)
{
    const SystemConfig cfg = smallConfig();
    const std::string path = ckptPath("SaveFault");
    removeSnapshots(path);

    const FaultPlan plan = FaultPlan::parse("ckpt.save:1");
    FaultArmGuard arm(plan, /*attempt=*/1);
    EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(kWarmup);
    EXPECT_THROW(sys.run(kMeasure), InjectedFault);
    removeSnapshots(path);
}

TEST(CheckpointFaultTest, LoadSiteInjectsOnRestore)
{
    const SystemConfig cfg = smallConfig();
    const std::string path = ckptPath("LoadFault");
    removeSnapshots(path);
    {
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every500");
        runToEnd(cfg, "zeus");
    }

    const FaultPlan plan = FaultPlan::parse("ckpt.load:1");
    FaultArmGuard arm(plan, /*attempt=*/1);
    EnvGuard restore("CMPSIM_RESTORE", path);
    EXPECT_THROW(CmpSystem(cfg, benchmarkParams("zeus")), InjectedFault);
    removeSnapshots(path);
}

// ----------------------------------------------------- chaos test

/**
 * Crash-safety: fork a child that runs with frequent autosaves, then
 * SIGKILL it as soon as a snapshot exists — with every500 the kill
 * frequently lands inside atomicSave's write/rename window. Whatever
 * instant the kill hit, the parent must be able to resume from the
 * primary-or-.prev snapshot and finish with the uninterrupted run's
 * exact stats.
 */
TEST(CheckpointChaosTest, KilledMidAutosaveResumesFromSnapshot)
{
    const SystemConfig cfg = smallConfig();
    const std::uint64_t baseline = runToEnd(cfg, "zeus");

    const std::string path = ckptPath("Chaos");
    removeSnapshots(path);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: autosave aggressively until killed. _exit, never
        // return into gtest.
        setenv("CMPSIM_CKPT", (path + ":every500").c_str(), 1);
        try {
            CmpSystem sys(cfg, benchmarkParams("zeus"));
            sys.warmup(kWarmup);
            sys.run(kMeasure);
        } catch (...) {
        }
        _exit(0);
    }

    // Parent: kill the child the moment any snapshot exists (or reap
    // it if the run finished first — the last autosave still resumes).
    for (int i = 0; i < 20000; ++i) {
        if (access(path.c_str(), F_OK) == 0 ||
            access((path + ".prev").c_str(), F_OK) == 0)
            break;
        int wstatus = 0;
        if (waitpid(pid, &wstatus, WNOHANG) == pid)
            break;
        usleep(1000);
    }
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    ASSERT_TRUE(access(path.c_str(), F_OK) == 0 ||
                access((path + ".prev").c_str(), F_OK) == 0)
        << "child was killed before any autosave landed";

    EnvGuard restore("CMPSIM_RESTORE", path);
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(kWarmup);
    sys.run(kMeasure);
    EXPECT_EQ(statsHash(sys), baseline);
    removeSnapshots(path);
}

} // namespace
} // namespace cmpsim
