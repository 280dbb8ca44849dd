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
 * Section 14): a sampled batch must reproduce across runner worker
 * counts (jobs 1 vs 4 on the published summaries).
 *
 *   determinism_check [workload ...]      # default: zeus apsi
 *
 * Exit status 0 when every workload reproduces, 1 otherwise.
 */

#include <cstdint>
#include <cstdio>
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
 * Statistical-sampling leg (DESIGN.md Section 14): a sampled run must
 * be as reproducible as a full-detail one — jobs 1 == 4 on the
 * published summary of a sampled batch. Returns 0 on success, 1 on
 * any divergence.
 */
int
checkSampledRuns(const std::vector<std::string> &workloads)
{
    using namespace cmpsim;
    const char *kPlan = "12000:4000:4:warm4000";

    std::vector<PointSpec> specs;
    for (const std::string &w : workloads) {
        PointSpec spec;
        spec.config = makeConfig(/*cores=*/4, /*scale=*/4,
                                 /*cache_compression=*/true,
                                 /*link_compression=*/true,
                                 /*prefetching=*/true,
                                 /*adaptive=*/true);
        spec.config.sampling = SamplingPlan::parse(kPlan);
        // The CPI-stack layer refuses to combine with statistical
        // sampling (validate()), and CI's armed gate sets
        // CMPSIM_CPISTACK for the other legs: this leg runs unarmed.
        spec.config.cpi_stack = false;
        spec.benchmark = w;
        spec.lengths.warmup_per_core = 20000;
        spec.lengths.measure_per_core = 0; // sampled runs ignore it
        spec.seeds = 2;
        specs.push_back(std::move(spec));
    }
    const auto serial = runPoints(specs, /*jobs=*/1);
    const auto parallel = runPoints(specs, /*jobs=*/4);
    int status = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t j1 = fnv1a(summaryBytes(serial[i]));
        const std::uint64_t j4 = fnv1a(summaryBytes(parallel[i]));
        if (j1 == j4) {
            std::printf("determinism_check: %-8s ok    %016llx "
                        "(sampled: jobs 1 == jobs 4)\n",
                        specs[i].benchmark.c_str(),
                        static_cast<unsigned long long>(j1));
        } else {
            std::printf("determinism_check: %-8s FAIL  sampled "
                        "%016llx != %016llx (jobs 1 vs jobs 4)\n",
                        specs[i].benchmark.c_str(),
                        static_cast<unsigned long long>(j1),
                        static_cast<unsigned long long>(j4));
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
    status |= checkSampledRuns(workloads);
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
#if !defined(CMPSIM_PROF_DISABLED)
        // profSnapshot() lists only sites that recorded calls.
        bool timed = false;
        for (const cmpsim::ProfSample &s : cmpsim::profSnapshot())
            timed |= s.name == "eq.dispatch";
        if (env.prof && !timed) {
            std::fprintf(stderr, "determinism_check: CMPSIM_PROF=1 but "
                                 "no eq.dispatch scope was timed\n");
            return 1;
        }
#endif
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
