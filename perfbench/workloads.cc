/**
 * @file
 * The four benchmark workloads. Each pass drives the simulator through
 * its public API only (CmpSystem, MatrixSampler, runPointsChecked),
 * times the phases a user waits for, and checks the simulated outputs:
 * invariant audits on every system, a stats fingerprint per system or
 * batch point, the sampled interaction gate and batch point status.
 * The traced run adds replays that time single layers in isolation.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"
#include "perfbench/perfbench.h"
#include "src/common/fingerprint.h"
#include "src/compression/fpc.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/parallel_runner.h"
#include "src/sample/matrix_sampler.h"

using namespace cmpsim;

namespace perfbench {
namespace {

constexpr unsigned kScale = 4;
constexpr double kPinGbps = 20.0;

/** Set-ups per untraced pass of the workloads whose set-up takes only
 *  milliseconds; their setup_s is the median, because one window that
 *  short reads mostly host noise. */
constexpr unsigned kSetupRepeats = 5;

/** The sampled workload's plan: twice the intervals of
 *  bench/table5_sampled, since with ten the gate fails on a few seeds
 *  in thirty. */
constexpr const char *kSampledPlan = "480000:20000:20:warm145000";

/** The four Table 5 configurations, in EQ 5 order. */
struct Table5Cfg
{
    const char *name;
    bool compression;
    bool prefetching;
};
constexpr Table5Cfg kTable5[] = {{"Base", false, false},
                                 {"Pref", false, true},
                                 {"Compr", true, false},
                                 {"ComprPref", true, true}};

SystemConfig
table5Config(const Table5Cfg &c, std::uint64_t seed)
{
    SystemConfig cfg = makeConfig(8, kScale, c.compression, c.compression,
                                  c.prefetching, false, kPinGbps);
    cfg.seed = seed;
    return cfg;
}

/** EQ 5 interaction, in percent, from the four configs' cycles. */
double
interactionPct(double base, double pref, double compr, double both)
{
    return interaction(speedup(base, pref), speedup(base, compr),
                       speedup(base, both)) *
           100.0;
}

std::string
knobsOf(const SystemConfig &c)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"cores\": %u, \"scale\": %u, \"cache_compression\": "
                  "%s, \"link_compression\": %s, \"prefetching\": %s, "
                  "\"adaptive_prefetch\": %s, \"pin_bandwidth_gbps\": %g, "
                  "\"seed\": %llu}",
                  c.cores, c.scale, c.cache_compression ? "true" : "false",
                  c.link_compression ? "true" : "false",
                  c.prefetching ? "true" : "false",
                  c.adaptive_prefetch ? "true" : "false",
                  c.pin_bandwidth_gbps,
                  static_cast<unsigned long long>(c.seed));
    return buf;
}

double
averageOf(const StatSnapshot &s, const std::string &name)
{
    const auto it = s.averages.find(name);
    return it == s.averages.end() || it->second.count == 0
               ? 0.0
               : it->second.sum / static_cast<double>(it->second.count);
}

/** The simulated counts of one system, from a snapshot of its stats
 *  over the measured window. */
Values
countsOf(const StatSnapshot &s, const SystemConfig &cfg, double cycles,
         double instructions, double compression_ratio)
{
    auto counter = [&](const std::string &name) {
        return static_cast<double>(s.counter(name));
    };
    double l1d_accesses = 0;
    double l1d_misses = 0;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const std::string prefix = "l1d." + std::to_string(c) + ".";
        l1d_accesses += counter(prefix + "accesses");
        l1d_misses += counter(prefix + "misses");
    }
    const double misses = counter("l2.demand_misses");
    const double issued = counter("l2.l2pf_issued");
    const double useful = counter("l2.pf_hits_l2");
    const double link_capacity =
        SystemConfig::bytesPerCycle(cfg.pin_bandwidth_gbps) * cycles;
    return {
        {"core.ipc", cycles > 0 ? instructions / cycles : 0},
        {"cache.l2_accesses", counter("l2.demand_accesses")},
        {"cache.l2_mpki",
         instructions > 0 ? misses / (instructions / 1000.0) : 0},
        {"cache.l1d_miss_rate",
         l1d_accesses > 0 ? l1d_misses / l1d_accesses : 0},
        {"compression.ratio", compression_ratio},
        {"prefetch.l2_issued", issued},
        {"prefetch.l2_accuracy_pct", issued > 0 ? 100 * useful / issued : 0},
        {"prefetch.l2_coverage_pct",
         useful + misses > 0 ? 100 * useful / (useful + misses) : 0},
        {"mem.link_util",
         link_capacity > 0 ? counter("mem.link.bytes") / link_capacity : 0},
        {"mem.link_queue_delay_cy", averageOf(s, "mem.link.queue_delay")},
        {"mem.read_latency_cy", averageOf(s, "mem.read_latency")},
    };
}

/** Audit @p sys and fingerprint its stats. */
Outcome
checkSystem(CmpSystem &sys, std::string label)
{
    Outcome o;
    o.label = std::move(label);
    const auto failures = sys.audits().check();
    if (!failures.empty()) {
        o.ok = false;
        o.why = "audit " + failures.front().name + ": " +
                failures.front().detail;
    }
    std::ostringstream dump;
    sys.stats().dump(dump);
    o.fingerprint = fnv1a(dump.str());
    return o;
}

Outcome
thrown(std::string label, const std::exception &e)
{
    return {std::move(label), false, e.what(), 0};
}

/** Record @p sys's L2 demand misses into @p out. */
void
captureMisses(CmpSystem &sys, std::vector<Addr> &out)
{
    sys.l2().setMissObserver([&out](ReqType type, Addr line) {
        if (type == ReqType::Demand)
            out.push_back(line);
    });
}

/**
 * Replay one workload's instruction streams outside the simulator:
 * SyntheticWorkload::next() per core, then FpcCompressor::compress
 * over every data line the streams touched. Sets workload.next_ns and
 * compression.fpc_compress_ns.
 */
void
replayWorkload(const std::string &bench, unsigned cores,
               std::uint64_t seed, SpanLog &log,
               std::map<std::string, double> &layers)
{
    constexpr std::uint64_t kPerCore = 200'000;
    constexpr std::uint64_t kChunk = 2'000;
    constexpr unsigned kFpcPasses = 4;

    const WorkloadParams params = benchmarkParams(bench).scaled(kScale);
    FpcCompressor fpc;
    ValueStore store(fpc);
    std::vector<std::unique_ptr<SyntheticWorkload>> streams;
    for (unsigned c = 0; c < cores; ++c) {
        streams.push_back(
            std::make_unique<SyntheticWorkload>(params, store, c, seed));
    }
    std::vector<Addr> lines;
    lines.reserve(kPerCore * cores);
    const double gen_s = timed(&log, "workload.replay", [&] {
        for (std::uint64_t done = 0; done < kPerCore; done += kChunk) {
            for (auto &stream : streams) {
                for (std::uint64_t i = 0; i < kChunk; ++i) {
                    const Instruction in = stream->next();
                    if (in.type == InstrType::Load ||
                        in.type == InstrType::Store)
                        lines.push_back(lineAddr(in.addr));
                }
            }
        }
    });
    layers["workload.next_ns"] =
        gen_s * 1e9 / static_cast<double>(kPerCore * cores);

    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    std::vector<LineData> data;
    data.reserve(lines.size());
    for (Addr line : lines)
        data.push_back(store.line(line));
    unsigned long long segments = 0;
    const double fpc_s = timed(&log, "compression.replay", [&] {
        for (unsigned p = 0; p < kFpcPasses; ++p) {
            for (const LineData &d : data)
                segments += fpc.compress(d).segments;
        }
    });
    if (!data.empty()) {
        layers["compression.fpc_compress_ns"] =
            fpc_s * 1e9 / static_cast<double>(kFpcPasses * data.size());
    }
    std::printf("replay workload: %llu instructions, %zu distinct data "
                "lines, %llu FPC segments\n",
                static_cast<unsigned long long>(kPerCore * cores),
                data.size(), segments);
}

/** Replay @p misses through fresh L2 stride prefetchers built like the
 *  system's; sets prefetch.observe_miss_ns. */
void
replayPrefetcher(const std::vector<Addr> &misses, const SystemConfig &cfg,
                 SpanLog &log, std::map<std::string, double> &layers)
{
    constexpr unsigned kPasses = 4;
    if (misses.empty())
        return;
    std::size_t prefetches = 0;
    const double s = timed(&log, "prefetch.replay", [&] {
        for (unsigned p = 0; p < kPasses; ++p) {
            StridePrefetcher pf(cfg.l2PrefetcherParams());
            for (Addr line : misses)
                prefetches +=
                    pf.observeMiss(line, cfg.l2_startup_prefetches).size();
        }
    });
    layers["prefetch.observe_miss_ns"] =
        s * 1e9 / static_cast<double>(kPasses * misses.size());
    std::printf("replay prefetcher: %zu L2 demand misses, %zu prefetches "
                "per pass\n",
                misses.size(), prefetches / kPasses);
}

// ---------------------------------------------------------------- timed

/** One system: construct, warmup(), then one run(). */
class TimedWorkload : public Workload
{
  public:
    TimedWorkload(std::string bench, SystemConfig cfg,
                  std::uint64_t warmup_per_core,
                  std::uint64_t measure_per_core)
        : bench_(std::move(bench)), cfg_(cfg), warmup_(warmup_per_core),
          measure_(measure_per_core)
    {
    }

    std::string
    knobs() const override
    {
        return "\"benchmark\": \"" + bench_ + "\", \"config\": " +
               knobsOf(cfg_) + ", \"warmup_per_core\": " +
               std::to_string(warmup_) +
               ", \"measure_per_core\": " + std::to_string(measure_);
    }

    Pass
    pass(SpanLog *log) override
    {
        Pass p;
        const auto t0 = Clock::now();
        try {
            std::unique_ptr<CmpSystem> sys;
            const double construct_s =
                timed(log, "core_api.construct", [&] {
                    sys = std::make_unique<CmpSystem>(
                        cfg_, benchmarkParams(bench_));
                });
            const double warmup_s = timed(
                log, "core_api.warmup", [&] { sys->warmup(warmup_); });
            if (log != nullptr)
                captureMisses(*sys, p.l2_misses);
            const double run_s =
                timed(log, "core_api.run", [&] { sys->run(measure_); });
            p.wall_s = secondsSince(t0);
            p.setup_s = construct_s + warmup_s;
            p.minstr_per_s =
                static_cast<double>(sys->instructions()) / run_s / 1e6;
            p.sim_cycles = static_cast<double>(sys->cycles());
            sys->l2().setMissObserver(nullptr);
            p.counts = countsOf(sys->stats().snapshot(), cfg_,
                                static_cast<double>(sys->cycles()),
                                static_cast<double>(sys->instructions()),
                                sys->compressionRatio());
            p.outcomes.push_back(checkSystem(*sys, bench_));
        } catch (const std::exception &e) {
            p.outcomes.push_back(thrown(bench_, e));
        }
        return p;
    }

    void
    layers(const Pass &traced, SpanLog &log,
           std::map<std::string, double> &layers,
           std::vector<Outcome> &) override
    {
        replayWorkload(bench_, cfg_.cores, cfg_.seed, log, layers);
        replayPrefetcher(traced.l2_misses, cfg_, log, layers);
    }

  private:
    std::string bench_;
    SystemConfig cfg_;
    std::uint64_t warmup_;
    std::uint64_t measure_;
};

// -------------------------------------------------------------- sampled

/**
 * mgrid's four Table 5 configs in lockstep through MatrixSampler. There
 * is no separate warmup: the first interval's functional-warming tail
 * is the warmup, so set-up is the four constructions. (An up-front
 * warmup() shifts every interval's window and narrows the gate's
 * margin.)
 */
class SampledWorkload : public Workload
{
  public:
    SampledWorkload(std::uint64_t seed, const std::string &plan)
        : seed_(seed), plan_spec_(plan), plan_(SamplingPlan::parse(plan))
    {
        for (const Table5Cfg &c : kTable5) {
            cfgs_.push_back(table5Config(c, seed));
            cfgs_.back().sampling = plan_;
        }
    }

    std::string
    knobs() const override
    {
        std::string s = "\"benchmark\": \"mgrid\", \"sampling_plan\": \"" +
                        plan_spec_ + "\", \"configs\": {";
        for (std::size_t i = 0; i < cfgs_.size(); ++i) {
            s += std::string(i == 0 ? "" : ", ") + "\"" + kTable5[i].name +
                 "\": " + knobsOf(cfgs_[i]);
        }
        return s + "}";
    }

    Pass
    pass(SpanLog *log) override
    {
        Pass p;
        const auto t0 = Clock::now();
        try {
            std::vector<std::unique_ptr<CmpSystem>> systems;
            std::vector<double> setups;
            const unsigned repeats = log != nullptr ? 1 : kSetupRepeats;
            for (unsigned r = 0; r < repeats; ++r) {
                systems.clear();
                setups.push_back(timed(log, "core_api.construct", [&] {
                    for (const SystemConfig &cfg : cfgs_) {
                        systems.push_back(std::make_unique<CmpSystem>(
                            cfg, benchmarkParams("mgrid")));
                    }
                }));
            }
            p.setup_s = median(setups);
            std::vector<CmpSystem *> ptrs;
            for (auto &s : systems)
                ptrs.push_back(s.get());
            if (log != nullptr)
                captureMisses(*systems.back(), p.l2_misses);
            std::vector<SamplingResult> res;
            const double matrix_s = timed(log, "sample.matrix", [&] {
                res = MatrixSampler(std::move(ptrs)).run();
            });
            p.wall_s = secondsSince(t0);
            const double traversed =
                static_cast<double>(systems.size() * cfgs_[0].cores *
                                    plan_.max_intervals) *
                static_cast<double>(plan_.ff_per_core +
                                    plan_.detail_per_core);
            p.minstr_per_s = traversed / matrix_s / 1e6;
            systems.back()->l2().setMissObserver(nullptr);

            // EQ 5 per interval, paired across the four configs.
            std::size_t n = res[0].samples.size();
            for (const auto &r : res)
                n = std::min(n, r.samples.size());
            std::vector<double> ratios;
            for (std::size_t i = 0; i < n; ++i) {
                ratios.push_back(
                    res[1].samples[i].cycles * res[2].samples[i].cycles /
                    (res[0].samples[i].cycles * res[3].samples[i].cycles));
            }
            const SampleSummary r = summarize(ratios);
            const double inter_pct = (r.mean - 1.0) * 100.0;
            // Positive, with a 95% CI that excludes zero.
            const bool gate = r.mean - 1.0 > r.ci95;
            p.interaction_err_pts = std::fabs(
                inter_pct - bench::paperRow("mgrid").interaction);
            std::printf("interaction mgrid %+.4f%% ci95 +/-%.4f pts "
                        "(paper %+.1f%%) gate %s\n",
                        inter_pct, r.ci95 * 100.0,
                        bench::paperRow("mgrid").interaction,
                        gate ? "pass" : "FAIL");

            const SamplingResult &both = res.back();
            p.counts = countsOf(both.totals, cfgs_.back(),
                                both.detail_cycles,
                                both.detail_instructions,
                                both.compression_ratio.mean);
            double ff = 0;
            for (const auto &x : res)
                ff += static_cast<double>(x.ff_instructions);
            p.counts.emplace_back("sample.ff_instr", ff);
            p.counts.emplace_back("sample.interaction_ci95_pts",
                                  r.ci95 * 100.0);
            for (std::size_t i = 0; i < systems.size(); ++i) {
                Outcome o = checkSystem(
                    *systems[i], std::string("mgrid/") + kTable5[i].name);
                if (o.ok && !gate) {
                    o.ok = false;
                    o.why = "interaction not positive with a 95% CI "
                            "excluding zero";
                }
                p.outcomes.push_back(std::move(o));
            }
        } catch (const std::exception &e) {
            for (const Table5Cfg &c : kTable5)
                p.outcomes.push_back(
                    thrown(std::string("mgrid/") + c.name, e));
        }
        return p;
    }

    void
    layers(const Pass &traced, SpanLog &log,
           std::map<std::string, double> &layers,
           std::vector<Outcome> &outcomes) override
    {
        replayWorkload("mgrid", cfgs_[0].cores, seed_, log, layers);
        replayPrefetcher(traced.l2_misses, cfgs_.back(), log, layers);

        // Fast-forward throughput on one extra armed system.
        constexpr std::uint64_t kBurst = 250'000;
        try {
            CmpSystem sys(cfgs_[0], benchmarkParams("mgrid"));
            sys.warmup(10'000);
            const double instr =
                static_cast<double>(kBurst * cfgs_[0].cores);
            const double warm_s = timed(&log, "sample.ff_warm",
                                        [&] { sys.fastForward(kBurst); });
            const double skip_s = timed(&log, "sample.ff_skip",
                                        [&] { sys.fastForward(kBurst, 0); });
            layers["sample.ff_warm_minstr_per_s"] = instr / warm_s / 1e6;
            layers["sample.ff_skip_minstr_per_s"] = instr / skip_s / 1e6;
            outcomes.push_back(checkSystem(sys, "mgrid/ff"));
        } catch (const std::exception &e) {
            outcomes.push_back(thrown("mgrid/ff", e));
        }
    }

  private:
    std::uint64_t seed_;
    std::string plan_spec_;
    SamplingPlan plan_;
    std::vector<SystemConfig> cfgs_;
};

// ---------------------------------------------------------------- batch

/**
 * The four Table 5 configs x the eight workloads in one
 * runPointsChecked call. The runner assigns point seeds itself (seed 1
 * for a one-seed point), so --seed moves the start of the measured
 * window instead: warmup is 400k + 1000 * ((seed - 1) mod 8)
 * instructions per core.
 */
class BatchWorkload : public Workload
{
  public:
    BatchWorkload(std::uint64_t seed, unsigned jobs)
        : jobs_(jobs), sampled_(seed, kSampledPlan)
    {
        RunLengths lengths;
        lengths.warmup_per_core = 400'000 + 1'000 * ((seed - 1) % 8);
        lengths.measure_per_core = 50'000;
        for (const std::string &wl : benchmarkNames()) {
            for (const Table5Cfg &c : kTable5) {
                PointSpec spec;
                spec.config = table5Config(c, 1);
                spec.benchmark = wl;
                spec.lengths = lengths;
                spec.seeds = 1;
                specs_.push_back(std::move(spec));
            }
        }
    }

    std::string
    knobs() const override
    {
        std::string s = "\"jobs\": " + std::to_string(jobs_) +
                        ", \"points\": " + std::to_string(specs_.size()) +
                        ", \"warmup_per_core\": " +
                        std::to_string(specs_[0].lengths.warmup_per_core) +
                        ", \"measure_per_core\": " +
                        std::to_string(specs_[0].lengths.measure_per_core) +
                        ", \"workloads\": [";
        for (std::size_t w = 0; w < benchmarkNames().size(); ++w)
            s += std::string(w == 0 ? "\"" : ", \"") + benchmarkNames()[w] +
                 "\"";
        s += "], \"configs\": {";
        for (std::size_t i = 0; i < std::size(kTable5); ++i) {
            s += std::string(i == 0 ? "" : ", ") + "\"" + kTable5[i].name +
                 "\": " + knobsOf(specs_[i].config);
        }
        return s + "}";
    }

    bool threaded() const override { return true; }

    Pass
    pass(SpanLog *log) override
    {
        Pass p;
        try {
            // Set-up: each point's system, built on this thread.
            std::vector<double> setups;
            const unsigned repeats = log != nullptr ? 1 : kSetupRepeats;
            for (unsigned r = 0; r < repeats; ++r) {
                setups.push_back(timed(log, "core_api.construct", [&] {
                    for (const PointSpec &spec : specs_)
                        CmpSystem(spec.config,
                                  benchmarkParams(spec.benchmark));
                }));
            }
            p.setup_s = median(setups);
            BatchResult br;
            p.wall_s = timed(log, "runner.batch", [&] {
                br = runPointsChecked(specs_, jobs_);
            });
            double instructions = 0;
            double attempts = 0;
            std::vector<const RunResult *> runs;
            for (std::size_t i = 0; i < specs_.size(); ++i) {
                const PointOutcome &po = br.outcomes[i];
                Outcome o;
                o.label = specs_[i].benchmark + "/" + kTable5[i % 4].name;
                o.ok = po.status != PointStatus::Failed;
                o.why = po.error;
                o.fingerprint = fnv1a(summaryBytes(br.summaries[i]));
                attempts += po.attempts;
                p.outcomes.push_back(std::move(o));
                const RunLengths &len = specs_[i].lengths;
                instructions += static_cast<double>(
                    specs_[i].config.cores *
                    (len.warmup_per_core + len.measure_per_core));
                runs.push_back(br.summaries[i].runs.empty()
                                   ? nullptr
                                   : &br.summaries[i].runs.front());
            }
            p.minstr_per_s = instructions / p.wall_s / 1e6;
            p.counts = batchCounts(runs);
            p.counts.emplace_back("runner.attempts", attempts);
            if (br.failed() == 0)
                p.interaction_err_pts = interactionError(br);
        } catch (const std::exception &e) {
            for (const PointSpec &spec : specs_)
                p.outcomes.push_back(thrown(spec.benchmark, e));
        }
        return p;
    }

    /**
     * Each point alone at jobs = 1: the tail and the parallel
     * efficiency the batch could reach. Then one pass of the sampled
     * workload with its replays, which is the only code that drives
     * sample/: its end-to-end timings spread too far to be a benchmark
     * workload of their own (see README.md), so the sampling layer is
     * measured, and its gate checked, here.
     */
    void
    layers(const Pass &traced, SpanLog &log,
           std::map<std::string, double> &layers,
           std::vector<Outcome> &outcomes) override
    {
        double longest = 0;
        double sum = 0;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            BatchResult br;
            const double s = timed(&log, "runner.solo_point", [&] {
                br = runPointsChecked({specs_[i]}, 1);
            });
            longest = std::max(longest, s);
            sum += s;
            Outcome o;
            o.label = "solo " + specs_[i].benchmark + "/" +
                      kTable5[i % 4].name;
            o.ok = br.failed() == 0 &&
                   fnv1a(summaryBytes(br.summaries[0])) ==
                       traced.outcomes[i].fingerprint;
            if (!o.ok) {
                o.why = br.failed() != 0 ? br.outcomes[0].error
                                         : "summary differs from the "
                                           "batch's";
            }
            outcomes.push_back(std::move(o));
        }
        layers["runner.longest_point_s"] = longest;
        layers["runner.parallel_eff"] = sum / (jobs_ * traced.wall_s);

        const Pass sampled = sampled_.pass(&log);
        outcomes.insert(outcomes.end(), sampled.outcomes.begin(),
                        sampled.outcomes.end());
        layers["sample.matrix_s"] = log.total("sample.matrix");
        for (const auto &[name, value] : sampled.counts) {
            if (name.rfind("sample.", 0) == 0)
                layers[name] = value;
        }
        sampled_.layers(sampled, log, layers, outcomes);
    }

  private:
    static Values
    batchCounts(const std::vector<const RunResult *> &runs)
    {
        double ipc = 0, accesses = 0, mpki = 0, ratio = 0, issued = 0;
        double accuracy = 0, coverage = 0, util = 0;
        unsigned n = 0, compressed = 0, prefetching = 0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RunResult *r = runs[i];
            if (r == nullptr)
                continue;
            ++n;
            ipc += r->ipc;
            accesses += r->l2_demand_accesses;
            mpki += r->l2_misses_per_kilo_instr;
            util += r->bandwidth_gbps / kPinGbps;
            if (kTable5[i % 4].compression) {
                ++compressed;
                ratio += r->compression_ratio;
            }
            if (kTable5[i % 4].prefetching) {
                ++prefetching;
                issued +=
                    r->l2pf.rate_per_kilo_instr * r->instructions / 1000.0;
                accuracy += r->l2pf.accuracy_pct;
                coverage += r->l2pf.coverage_pct;
            }
        }
        auto mean = [](double sum, unsigned count) {
            return count == 0 ? 0.0 : sum / count;
        };
        return {
            {"core.ipc", mean(ipc, n)},
            {"cache.l2_accesses", accesses},
            {"cache.l2_mpki", mean(mpki, n)},
            {"compression.ratio", mean(ratio, compressed)},
            {"prefetch.l2_issued", issued},
            {"prefetch.l2_accuracy_pct", mean(accuracy, prefetching)},
            {"prefetch.l2_coverage_pct", mean(coverage, prefetching)},
            {"mem.link_util", mean(util, n)},
        };
    }

    /** Mean over the eight workloads of |interaction - paper|. */
    static double
    interactionError(const BatchResult &br)
    {
        double err = 0;
        const auto &names = benchmarkNames();
        for (std::size_t w = 0; w < names.size(); ++w) {
            const auto &s = br.summaries;
            const double inter = interactionPct(
                meanCycles(s[4 * w]), meanCycles(s[4 * w + 1]),
                meanCycles(s[4 * w + 2]), meanCycles(s[4 * w + 3]));
            const double paper = bench::paperRow(names[w]).interaction;
            std::printf("interaction %s %+.4f%% (paper %+.1f%%)\n",
                        names[w].c_str(), inter, paper);
            err += std::fabs(inter - paper);
        }
        return err / static_cast<double>(names.size());
    }

    unsigned jobs_;
    std::vector<PointSpec> specs_;
    SampledWorkload sampled_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, unsigned jobs)
{
    if (name == "zeus_full") {
        SystemConfig cfg =
            makeConfig(8, kScale, true, true, true, true, kPinGbps);
        cfg.seed = seed;
        return std::make_unique<TimedWorkload>("zeus", cfg, 400'000,
                                               400'000);
    }
    if (name == "mgrid_base16") {
        SystemConfig cfg =
            makeConfig(16, kScale, false, false, false, false, kPinGbps);
        cfg.seed = seed;
        return std::make_unique<TimedWorkload>("mgrid", cfg, 400'000,
                                               200'000);
    }
    if (name == "mgrid_table5_sampled")
        return std::make_unique<SampledWorkload>(seed, kSampledPlan);
    if (name == "table5_batch")
        return std::make_unique<BatchWorkload>(seed, jobs);
    return nullptr;
}

} // namespace perfbench
