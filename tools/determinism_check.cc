/**
 * @file
 * Bit-reproducibility gate: run the same experiment twice with the
 * same seed and compare a hash of every registered statistic.
 *
 * The simulator's results must be a pure function of (config, seed) —
 * any dependence on wall-clock time, ASLR'd pointer values (e.g.
 * hashing a pointer into an event order) or uninitialized memory
 * shows up here as a hash mismatch long before anyone notices a
 * figure is unreproducible.
 *
 * Covers one commercial and one SPEComp workload by default (the
 * paper's two workload families exercise different value/sharing
 * behaviour), each under the full feature set — compression, link
 * compression, prefetching, adaptive throttling — with periodic
 * invariant audits and per-fill round-trip verification enabled.
 *
 * A second leg checks the parallel experiment runner: the same
 * workloads batched through runPoints() with 1 worker and again with
 * 4 must produce byte-identical metric summaries (the CMPSIM_JOBS
 * invariance every bench table now depends on).
 *
 * A third leg checks the statistical sampling engine (DESIGN.md
 * Section 14), which runs a plan only through MatrixSampler: one
 * lockstep base + full-feature study per workload, run twice, must
 * reproduce every system's stats and per-interval samples.
 *
 *   determinism_check [workload ...]      # default: zeus apsi
 *
 * Exit status 0 when every workload reproduces, 1 otherwise.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/sim_error.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/env_knobs.h"
#include "src/core_api/parallel_runner.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/sample/matrix_sampler.h"
#include "src/workload/workload_params.h"

namespace {

using cmpsim::fnv1a;

/** One full warmup + measured run; returns the stats fingerprint. */
std::uint64_t
runOnce(const std::string &workload)
{
    using namespace cmpsim;
    // Full feature set so every subsystem participates in the hash.
    SystemConfig cfg = makeConfig(/*cores=*/4, /*scale=*/4,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/true);
    cfg.seed = 12345;
    cfg.audit_interval = 10000;

    CmpSystem sys(cfg, benchmarkParams(workload));
    sys.warmup(20000);
    sys.run(10000);

    std::ostringstream out;
    sys.stats().dump(out);
    out << "cycles " << sys.cycles() << "\n";
    out << "instructions " << sys.instructions() << "\n";
    out << "audit_passes " << sys.audits().passesRun() << "\n";
    return fnv1a(out.str());
}

/**
 * Parallel-runner leg: batch every workload through runPoints() with
 * 1 worker and with 4; each point's summary must fingerprint
 * identically. Returns 0 on success, 1 on any divergence.
 */
int
checkParallelRunner(const std::vector<std::string> &workloads)
{
    using namespace cmpsim;
    std::vector<PointSpec> specs;
    for (const std::string &w : workloads) {
        PointSpec spec;
        spec.config = makeConfig(/*cores=*/4, /*scale=*/4,
                                 /*cache_compression=*/true,
                                 /*link_compression=*/true,
                                 /*prefetching=*/true,
                                 /*adaptive=*/true);
        spec.benchmark = w;
        spec.lengths.warmup_per_core = 20000;
        spec.lengths.measure_per_core = 10000;
        spec.seeds = 2;
        specs.push_back(std::move(spec));
    }

    const auto serial = runPoints(specs, /*jobs=*/1);
    const auto parallel = runPoints(specs, /*jobs=*/4);

    int status = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t h1 = fnv1a(summaryBytes(serial[i]));
        const std::uint64_t h4 = fnv1a(summaryBytes(parallel[i]));
        if (h1 == h4) {
            std::printf("determinism_check: %-8s ok    %016llx "
                        "(jobs 1 == jobs 4)\n",
                        specs[i].benchmark.c_str(),
                        static_cast<unsigned long long>(h1));
        } else {
            std::printf("determinism_check: %-8s FAIL  %016llx != "
                        "%016llx (jobs 1 vs jobs 4)\n",
                        specs[i].benchmark.c_str(),
                        static_cast<unsigned long long>(h1),
                        static_cast<unsigned long long>(h4));
            status = 1;
        }
    }
    return status;
}

/**
 * One lockstep MatrixSampler study of @p workload: base leads and the
 * full feature set follows, so every interval's skip is journaled by
 * the leader and adopted by the follower. Returns the fingerprint of
 * both systems' stats dumps and per-interval samples.
 */
std::uint64_t
matrixOnce(const std::string &workload)
{
    using namespace cmpsim;
    const SamplingPlan plan = SamplingPlan::parse("12000:4000:4:warm4000");
    std::vector<std::unique_ptr<CmpSystem>> systems;
    for (const bool on : {false, true}) {
        SystemConfig cfg = makeConfig(/*cores=*/4, /*scale=*/4, on, on,
                                      on, on);
        cfg.seed = 12345;
        cfg.sampling = plan;
        // The CPI-stack layer refuses to combine with statistical
        // sampling (validate()), and CI's armed gate sets
        // CMPSIM_CPISTACK for the other legs: this leg runs unarmed.
        cfg.cpi_stack = false;
        systems.push_back(
            std::make_unique<CmpSystem>(cfg, benchmarkParams(workload)));
    }
    const std::vector<SamplingResult> results =
        MatrixSampler({systems[0].get(), systems[1].get()}).run();

    std::ostringstream out;
    out.precision(17);
    for (std::size_t i = 0; i < systems.size(); ++i) {
        systems[i]->stats().dump(out);
        for (const IntervalSample &s : results[i].samples) {
            out << "sample " << s.cycles << " " << s.instructions << " "
                << s.compression_ratio << "\n";
        }
    }
    return fnv1a(out.str());
}

/**
 * Statistical-sampling leg (DESIGN.md Section 14): each workload's
 * matrix study, run twice, must fingerprint identically. Returns 0 on
 * success, 1 on any divergence.
 */
int
checkMatrixSampler(const std::vector<std::string> &workloads)
{
    int status = 0;
    for (const std::string &w : workloads) {
        const std::uint64_t first = matrixOnce(w);
        const std::uint64_t second = matrixOnce(w);
        if (first == second) {
            std::printf("determinism_check: %-8s ok    %016llx "
                        "(matrix: run 1 == run 2)\n",
                        w.c_str(),
                        static_cast<unsigned long long>(first));
        } else {
            std::printf("determinism_check: %-8s FAIL  matrix "
                        "%016llx != %016llx (run 1 vs run 2)\n",
                        w.c_str(),
                        static_cast<unsigned long long>(first),
                        static_cast<unsigned long long>(second));
            status = 1;
        }
    }
    return status;
}

int
run(const std::vector<std::string> &workloads)
{
    int status = 0;
    for (const std::string &w : workloads) {
        const std::uint64_t first = runOnce(w);
        const std::uint64_t second = runOnce(w);
        if (first == second) {
            std::printf("determinism_check: %-8s ok    %016llx\n",
                        w.c_str(),
                        static_cast<unsigned long long>(first));
        } else {
            std::printf("determinism_check: %-8s FAIL  %016llx != "
                        "%016llx\n",
                        w.c_str(),
                        static_cast<unsigned long long>(first),
                        static_cast<unsigned long long>(second));
            status = 1;
        }
    }
    status |= checkParallelRunner(workloads);
    status |= checkMatrixSampler(workloads);
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workloads;
    for (int i = 1; i < argc; ++i)
        workloads.push_back(argv[i]);
    if (workloads.empty())
        workloads = {"zeus", "apsi"}; // one commercial, one SPEComp

    try {
        // CI's traced gate sets CMPSIM_TRACE and CMPSIM_PROF: the
        // hashes must reproduce with the observability probes live,
        // proving they only read simulator state.
        const cmpsim::EnvKnobs env = cmpsim::readEnvKnobs();
        cmpsim::TraceSession trace_session(env.trace);
        cmpsim::setProfEnabled(env.prof);
        const int status = run(workloads);
        // profSnapshot() lists only sites that recorded calls.
        bool timed = false;
        for (const cmpsim::ProfSample &s : cmpsim::profSnapshot())
            timed |= s.name == "eq.dispatch";
        if (env.prof && !timed) {
            std::fprintf(stderr, "determinism_check: CMPSIM_PROF=1 but "
                                 "no eq.dispatch scope was timed\n");
            return 1;
        }
        return status;
    } catch (const cmpsim::SimError &e) {
        std::fprintf(stderr, "determinism_check: error: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "determinism_check: error: [internal] %s\n",
                     e.what());
        return 1;
    }
}
