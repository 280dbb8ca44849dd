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
 * A third leg checks checkpoint/restore (DESIGN.md Section 13): a
 * run with periodic CMPSIM_CKPT autosaves must hash identically to
 * the plain baseline (saving is a pure observer), and a fresh system
 * resumed from the last mid-run snapshot with CMPSIM_RESTORE must
 * finish with that same hash.
 *
 * A fourth leg checks the statistical sampling engine (DESIGN.md
 * Section 14): a sampled run must reproduce across a mid-plan
 * checkpoint/restore and across runner worker counts (jobs 1 vs 4 on
 * the published summaries).
 *
 *   determinism_check [workload ...]      # default: zeus apsi
 *
 * Exit status 0 when every workload reproduces, 1 otherwise.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/sim_error.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/parallel_runner.h"
#include "src/obs/trace.h"
#include "src/sample/sampling_controller.h"
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
    cfg.audit_fill_roundtrip = true;

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
 * Checkpoint-resume leg: autosave every few thousand cycles while
 * running to completion (hash must equal @p baseline — a save never
 * perturbs simulation), then resume a fresh system from the last
 * mid-run snapshot (it must finish with the baseline hash). Returns 0
 * on success, 1 on any divergence.
 */
int
checkCheckpointResume(const std::vector<std::string> &workloads,
                      const std::vector<std::uint64_t> &baseline)
{
    int status = 0;
    const std::string path = "determinism_check_ckpt.bin";
    const std::string spec = path + ":every3000";

    // Checkpointing refuses to combine with interval sampling (the
    // sampler's already-emitted rows are not replayable), and CI's
    // traced gate arms CMPSIM_SAMPLE_CYCLES for the other legs — so
    // this leg runs with sampling off, restoring the knob afterwards.
    const char *sample_env = getenv("CMPSIM_SAMPLE_CYCLES");
    const std::string saved_sample = sample_env != nullptr ? sample_env : "";
    if (sample_env != nullptr)
        unsetenv("CMPSIM_SAMPLE_CYCLES");
    // Same for the CPI-stack layer (CI's armed gate sets
    // CMPSIM_CPISTACK for the other legs): genealogy records are not
    // checkpointed, so this leg runs unarmed. The hashes still prove
    // what the gate needs — stats() never depends on the layer.
    const char *cpi_env = getenv("CMPSIM_CPISTACK");
    const std::string saved_cpi = cpi_env != nullptr ? cpi_env : "";
    if (cpi_env != nullptr)
        unsetenv("CMPSIM_CPISTACK");

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());

        setenv("CMPSIM_CKPT", spec.c_str(), 1);
        const std::uint64_t save = runOnce(workloads[i]);
        unsetenv("CMPSIM_CKPT");

        setenv("CMPSIM_RESTORE", path.c_str(), 1);
        const std::uint64_t resume = runOnce(workloads[i]);
        unsetenv("CMPSIM_RESTORE");

        if (save == baseline[i] && resume == baseline[i]) {
            std::printf("determinism_check: %-8s ok    %016llx "
                        "(ckpt save == resume)\n",
                        workloads[i].c_str(),
                        static_cast<unsigned long long>(baseline[i]));
        } else {
            std::printf("determinism_check: %-8s FAIL  baseline "
                        "%016llx vs %016llx (ckpt save) vs %016llx "
                        "(resume)\n",
                        workloads[i].c_str(),
                        static_cast<unsigned long long>(baseline[i]),
                        static_cast<unsigned long long>(save),
                        static_cast<unsigned long long>(resume));
            status = 1;
        }
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());
    }
    if (sample_env != nullptr)
        setenv("CMPSIM_SAMPLE_CYCLES", saved_sample.c_str(), 1);
    if (cpi_env != nullptr)
        setenv("CMPSIM_CPISTACK", saved_cpi.c_str(), 1);
    return status;
}

/**
 * Statistical-sampling leg (DESIGN.md Section 14): a sampled run must
 * be as reproducible as a full-detail one. Checks, per workload: a
 * direct sampled run with autosaves and a fresh system resumed from
 * its mid-plan snapshot both finishing with the straight-run stats
 * hash, and jobs 1 == 4 on the published summary of a sampled batch.
 * Returns 0 on success, 1 on any divergence.
 */
int
checkSampledRuns(const std::vector<std::string> &workloads)
{
    using namespace cmpsim;
    const char *kPlan = "12000:4000:4:warm4000";

    // The CPI-stack layer refuses to combine with statistical
    // sampling (validate()), and checkpoints refuse interval
    // time-series sampling — run this leg with both knobs unarmed,
    // restoring them afterwards (same dance as the checkpoint leg).
    const char *cpi_env = getenv("CMPSIM_CPISTACK");
    const std::string saved_cpi = cpi_env != nullptr ? cpi_env : "";
    if (cpi_env != nullptr)
        unsetenv("CMPSIM_CPISTACK");
    const char *sample_env = getenv("CMPSIM_SAMPLE_CYCLES");
    const std::string saved_sample =
        sample_env != nullptr ? sample_env : "";
    if (sample_env != nullptr)
        unsetenv("CMPSIM_SAMPLE_CYCLES");

    // Direct sampled run -> stats hash.
    const auto sampledOnce = [&](const std::string &workload) {
        SystemConfig cfg = makeConfig(/*cores=*/4, /*scale=*/4,
                                      /*cache_compression=*/true,
                                      /*link_compression=*/true,
                                      /*prefetching=*/true,
                                      /*adaptive=*/true);
        cfg.seed = 12345;
        cfg.audit_interval = 10000;
        cfg.sampling = SamplingPlan::parse(kPlan);
        CmpSystem sys(cfg, benchmarkParams(workload));
        sys.warmup(20000);
        SamplingController(sys).run();
        std::ostringstream out;
        sys.stats().dump(out);
        out << "cycles " << sys.cycles() << "\n";
        out << "instructions " << sys.instructions() << "\n";
        return fnv1a(out.str());
    };

    int status = 0;
    const std::string path = "determinism_check_sampled_ckpt.bin";
    for (const std::string &w : workloads) {
        const std::uint64_t h1 = sampledOnce(w);

        // Mid-plan checkpoint: autosave while running to completion,
        // then resume a fresh system from the last (mid-plan)
        // snapshot; both must land on the straight-run hash.
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());
        setenv("CMPSIM_CKPT", (path + ":every3000").c_str(), 1);
        const std::uint64_t save = sampledOnce(w);
        unsetenv("CMPSIM_CKPT");
        setenv("CMPSIM_RESTORE", path.c_str(), 1);
        const std::uint64_t resume = sampledOnce(w);
        unsetenv("CMPSIM_RESTORE");
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());

        if (save == h1 && resume == h1) {
            std::printf("determinism_check: %-8s ok    %016llx "
                        "(sampled: midplan resume)\n",
                        w.c_str(),
                        static_cast<unsigned long long>(h1));
        } else {
            std::printf("determinism_check: %-8s FAIL  sampled "
                        "%016llx vs %016llx (ckpt save) vs %016llx "
                        "(midplan resume)\n",
                        w.c_str(),
                        static_cast<unsigned long long>(h1),
                        static_cast<unsigned long long>(save),
                        static_cast<unsigned long long>(resume));
            status = 1;
        }
    }

    // Sampled batch through the parallel runner: jobs 1 vs 4.
    std::vector<PointSpec> specs;
    for (const std::string &w : workloads) {
        PointSpec spec;
        spec.config = makeConfig(/*cores=*/4, /*scale=*/4,
                                 /*cache_compression=*/true,
                                 /*link_compression=*/true,
                                 /*prefetching=*/true,
                                 /*adaptive=*/true);
        spec.config.sampling = SamplingPlan::parse(kPlan);
        spec.benchmark = w;
        spec.lengths.warmup_per_core = 20000;
        spec.lengths.measure_per_core = 0; // sampled runs ignore it
        spec.seeds = 2;
        specs.push_back(std::move(spec));
    }
    const auto serial = runPoints(specs, /*jobs=*/1);
    const auto parallel = runPoints(specs, /*jobs=*/4);
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

    if (cpi_env != nullptr)
        setenv("CMPSIM_CPISTACK", saved_cpi.c_str(), 1);
    if (sample_env != nullptr)
        setenv("CMPSIM_SAMPLE_CYCLES", saved_sample.c_str(), 1);
    return status;
}

int
run(const std::vector<std::string> &workloads)
{
    int status = 0;
    std::vector<std::uint64_t> baseline;
    for (const std::string &w : workloads) {
        const std::uint64_t first = runOnce(w);
        const std::uint64_t second = runOnce(w);
        baseline.push_back(first);
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
    status |= checkCheckpointResume(workloads, baseline);
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
        // CI's traced gate sets CMPSIM_TRACE (and CMPSIM_SAMPLE_CYCLES):
        // the hashes must reproduce with the observability probes live,
        // proving they only read simulator state.
        cmpsim::TraceSession trace_session;
        return run(workloads);
    } catch (const cmpsim::SimError &e) {
        std::fprintf(stderr, "determinism_check: error: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "determinism_check: error: [internal] %s\n",
                     e.what());
        return 1;
    }
}
