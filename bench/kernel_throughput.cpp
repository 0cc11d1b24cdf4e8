// Engineering throughput benchmarks (google-benchmark) for the simulation
// and analysis kernels underlying every experiment: event-driven logic
// simulation, parallel-pattern fault simulation, PODEM test generation,
// STA, power analysis, the Tables I-IV evaluation layer (evaluateDft,
// optimizeFanout), and the analog transient stepper.
// Besides the console output, every run exports
// BENCH_kernel_throughput.json — per-benchmark repetition statistics
// (median/min/IQR real time and faults/sec over >= 5 measured reps after 1
// warmup, repetitions injected unless --benchmark_repetitions is given)
// inside the shared provenance envelope (obs/benchio.hpp), so
// flh_benchdiff can gate the performance trajectory across PRs. The
// output directory honors --out / FLH_BENCH_OUT.
#include "bench_util.hpp"
#include "analog/flh_chain.hpp"
#include "atpg/podem.hpp"
#include "dft/design.hpp"
#include "dft/fanout_opt.hpp"
#include "fault/fault_sim.hpp"
#include "fault/parallel_sim.hpp"
#include "obs/telemetry.hpp"
#include "power/power.hpp"
#include "sta/timing.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>

using namespace flh;
using namespace flh::bench;

namespace {

/// range(0) picks the scanned circuit: 0 s298, 1 s1423, 2 s5378, 3 s13207.
const Netlist& circuitFor(const ::benchmark::State& state) {
    static const std::vector<std::string> names = {"s298", "s1423", "s5378", "s13207"};
    static std::vector<Netlist> circuits = [] {
        std::vector<Netlist> v;
        for (const auto& n : names) v.push_back(scannedCircuit(n));
        return v;
    }();
    return circuits[static_cast<std::size_t>(state.range(0))];
}

void BM_EventSimFullEval(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    PatternSim sim(nl);
    Rng rng(1);
    for (auto _ : state) {
        for (const NetId pi : nl.pis()) sim.setNet(pi, PV{rng.next(), 0});
        for (const GateId ff : nl.flipFlops())
            sim.setNet(nl.gate(ff).output, PV{rng.next(), 0});
        benchmark::DoNotOptimize(sim.propagate());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventSimFullEval)->Arg(0)->Arg(1)->Arg(2);

void BM_StuckAtFaultSim(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    const auto pats = randomPatterns(nl, 64, 3);
    const auto faults = collapsedStuckAtFaults(nl);
    for (auto _ : state) {
        benchmark::DoNotOptimize(runStuckAtFaultSim(nl, pats, faults).detected);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_StuckAtFaultSim)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Faults/sec appears as items_per_second. range(1) is the worker count
// (0 = one per hardware thread), so "/N/1" rows are the serial baseline and
// "/N/0" rows the parallel engine — their ratio is the measured speedup.
void BM_StuckAtFaultSimThreads(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    const auto pats = randomPatterns(nl, 64, 3);
    const auto faults = collapsedStuckAtFaults(nl);
    FaultSimOptions opts;
    opts.threads = static_cast<unsigned>(state.range(1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runStuckAtFaultSim(nl, pats, faults, opts).detected);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_StuckAtFaultSimThreads)
    ->ArgNames({"circuit", "threads"})
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({2, 1})
    ->Args({2, 0})
    ->Unit(benchmark::kMillisecond);

std::vector<TwoPattern> makeTests(const Netlist& nl, std::size_t n, std::uint64_t s1,
                                  std::uint64_t s2) {
    const auto v1s = randomPatterns(nl, n, s1);
    const auto v2s = randomPatterns(nl, n, s2);
    std::vector<TwoPattern> tests;
    tests.reserve(n);
    for (std::size_t i = 0; i < n; ++i) tests.push_back(TwoPattern{v1s[i], v2s[i]});
    return tests;
}

void BM_TransitionFaultSimThreads(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    const auto tests = makeTests(nl, 64, 7, 8);
    const auto faults = allTransitionFaults(nl);
    FaultSimOptions opts;
    opts.threads = static_cast<unsigned>(state.range(1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runTransitionFaultSim(nl, tests, faults, opts).detected);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_TransitionFaultSimThreads)
    ->ArgNames({"circuit", "threads"})
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({2, 1})
    ->Args({2, 0})
    ->Unit(benchmark::kMillisecond);

// Word-packed PPSFP axis: range(1) is FaultSimOptions::words (0 = the
// one-word reference grader). 512 tests so words=8 runs one full block and
// the packed engine is not clamped; faults/sec appears as items_per_second
// and the "/words:0" to "/words:W" ratio is the packing speedup.
void BM_TransitionFaultSimWords(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    const auto tests = makeTests(nl, 512, 7, 8);
    const auto faults = allTransitionFaults(nl);
    FaultSimOptions opts;
    opts.threads = 1;
    opts.words = static_cast<unsigned>(state.range(1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runTransitionFaultSim(nl, tests, faults, opts).detected);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_TransitionFaultSimWords)
    ->ArgNames({"circuit", "words"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({2, 0})
    ->Args({2, 8})
    ->Unit(benchmark::kMillisecond);

void BM_StuckAtFaultSimWords(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    const auto pats = randomPatterns(nl, 512, 3);
    const auto faults = collapsedStuckAtFaults(nl);
    FaultSimOptions opts;
    opts.threads = 1;
    opts.words = static_cast<unsigned>(state.range(1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runStuckAtFaultSim(nl, pats, faults, opts).detected);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_StuckAtFaultSimWords)
    ->ArgNames({"circuit", "words"})
    ->Args({1, 0})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

// A/B pin for flh_benchdiff, which matches rows by (schema, name, threads):
// the packed width comes from FLH_SIM_WORDS (default 8, 0 = the reference
// grader), so a baseline run with FLH_SIM_WORDS=0 and a candidate run with
// FLH_SIM_WORDS=8 share the row name and their faults/sec ratio is exactly
// the packed-engine speedup on this machine.
//
// The pinned workload is the n-detect grading profile
// (countTransitionDetections): with detection counting there is no fault
// dropping, so every fault is graded against every block and the full
// words*64-pattern width does real work per pass. This is the profile the
// SDD-grading experiments consume. The detect-until-dropped variant — where
// the scalar engine stops early on faults it detects in the first 64
// patterns, so packing buys less — is tracked separately on the
// BM_TransitionFaultSimWords axis.
void BM_TransitionFaultSimPPSFP(benchmark::State& state) {
    const Netlist& nl = scannedCircuit("s1423");
    const auto tests = makeTests(nl, 512, 7, 8);
    const auto faults = allTransitionFaults(nl);
    FaultSimOptions opts;
    opts.threads = 1;
    opts.words = 8;
    if (const char* env = std::getenv("FLH_SIM_WORDS"))
        opts.words = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    for (auto _ : state) {
        benchmark::DoNotOptimize(countTransitionDetections(nl, tests, faults, opts).size());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
    state.counters["words"] = static_cast<double>(opts.words);
}
BENCHMARK(BM_TransitionFaultSimPPSFP)->Unit(benchmark::kMillisecond);

// Telemetry cost on the hottest kernel: range(0) toggles obs recording.
// "/0" rows are the compiled-in-but-disabled baseline (the production
// default — must stay within ~2% of pre-telemetry faults/sec), "/1" rows
// measure the full recording path (spans + counters live).
void BM_TransitionFaultSimTelemetry(benchmark::State& state) {
    const Netlist& nl = scannedCircuit("s1423");
    const auto v1s = randomPatterns(nl, 64, 7);
    const auto v2s = randomPatterns(nl, 64, 8);
    std::vector<TwoPattern> tests;
    tests.reserve(v1s.size());
    for (std::size_t i = 0; i < v1s.size(); ++i) tests.push_back(TwoPattern{v1s[i], v2s[i]});
    const auto faults = allTransitionFaults(nl);
    obs::setEnabled(state.range(0) != 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(runTransitionFaultSim(nl, tests, faults).detected);
    }
    obs::setEnabled(false);
    obs::reset();
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_TransitionFaultSimTelemetry)
    ->ArgNames({"obs"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_NDetectProfileThreads(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    const auto v1s = randomPatterns(nl, 128, 9);
    const auto v2s = randomPatterns(nl, 128, 10);
    std::vector<TwoPattern> tests;
    tests.reserve(v1s.size());
    for (std::size_t i = 0; i < v1s.size(); ++i) tests.push_back(TwoPattern{v1s[i], v2s[i]});
    const auto faults = allTransitionFaults(nl);
    FaultSimOptions opts;
    opts.threads = static_cast<unsigned>(state.range(1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(countTransitionDetections(nl, tests, faults, opts).size());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
// The s5378 hardware-threads row is in the CI filter: it covers n-detect
// grading and how evenly the fault stripes load the workers. So is the
// s1423 one-thread row, which runs the same grading inline, with no pool. The workers do
// the grading, so iterations are sized by wall time: the calling thread's
// CPU time is a small fraction of it and would run each rep ~30x too long.
BENCHMARK(BM_NDetectProfileThreads)
    ->ArgNames({"circuit", "threads"})
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({2, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// PODEM's search step cost: serial Podem::generate (default 300-backtrack
// limit) over every 16th collapsed stuck-at fault of s1423, aborts
// included — the top-off's per-fault work without the grading.
void BM_PodemGenerate(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    const std::vector<FaultSite> all = collapsedStuckAtFaults(nl);
    std::vector<FaultSite> faults;
    for (std::size_t i = 0; i < all.size(); i += 16) faults.push_back(all[i]);
    Podem podem(nl);
    Pattern p;
    for (auto _ : state) {
        for (const FaultSite& f : faults) benchmark::DoNotOptimize(podem.generate(f, p));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_PodemGenerate)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Sta(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(runSta(nl).critical_delay_ps);
    }
}
BENCHMARK(BM_Sta)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

/// A power seed no earlier iteration of the process used. simulateSwitching
/// reuses the activity of a repeated (netlist, config), so the power
/// benchmarks give every iteration its own seed to time the simulation.
std::uint64_t freshPowerSeed() {
    static std::uint64_t seed = 0;
    return ++seed;
}

// Normal-mode switching simulation (20 vectors, default rates) on s298,
// s1423 and s13207, where a settle sweeps about 8000 gates.
void BM_NormalPower(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    PowerConfig cfg;
    cfg.n_vectors = 20;
    for (auto _ : state) {
        cfg.seed = freshPowerSeed();
        benchmark::DoNotOptimize(measureNormalPower(nl, {}, cfg).totalUw());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20 * 64);
}
BENCHMARK(BM_NormalPower)->Arg(0)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

// Tables I-III: evaluateDft of all three holding styles on s5378 (STA with
// and without each overlay). With a fresh seed per iteration it times one
// switching simulation and two reuses of its activity, as the tables pay
// per circuit.
void BM_EvaluateDft(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    PowerConfig cfg = powerConfigFor(nl.name());
    for (auto _ : state) {
        cfg.seed = freshPowerSeed();
        for (const HoldStyle style : {HoldStyle::EnhancedScan, HoldStyle::MuxHold, HoldStyle::Flh})
            benchmark::DoNotOptimize(evaluateDft(nl, planDft(nl, style), cfg).power_uw);
    }
}
BENCHMARK(BM_EvaluateDft)->Arg(2)->Unit(benchmark::kMillisecond);

// Table IV: optimizeFanout on a fresh copy of s5378 and s13207 each
// iteration (the copy is not timed). s13207's 226 accepted moves are where
// re-timing the whole netlist per move grew with the square of its size.
void BM_FanoutOpt(benchmark::State& state) {
    const Netlist& base = circuitFor(state);
    for (auto _ : state) {
        state.PauseTiming();
        Netlist nl = base;
        state.ResumeTiming();
        benchmark::DoNotOptimize(optimizeFanout(nl).ffs_optimized);
    }
}
BENCHMARK(BM_FanoutOpt)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_AnalogTransient(benchmark::State& state) {
    ChainConfig cfg;
    cfg.with_keeper = true;
    for (auto _ : state) {
        GatedChain chain = buildGatedInverterChain(
            defaultTech(), cfg, [](double t) { return t < 500.0 ? 0.0 : 1.0; },
            [](double) { return 0.0; });
        benchmark::DoNotOptimize(
            chain.ckt.run(5000.0, 0.5, {{"OUT1", false, chain.outs[0]}}, 100).time_ps.size());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_AnalogTransient)->Unit(benchmark::kMillisecond);

void BM_ScanShiftSim(benchmark::State& state) {
    const Netlist& nl = circuitFor(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            measureScanShiftPower(nl, HoldStyle::Flh, 2).comb_toggles);
    }
}
BENCHMARK(BM_ScanShiftSim)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally collects every per-repetition run,
/// folds them into repetition statistics (first rep dropped as warmup),
/// and writes the envelope export through BenchWriter.
class JsonExportReporter final : public benchmark::ConsoleReporter {
public:
    void ReportRuns(const std::vector<Run>& runs) override {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const Run& run : runs) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
            // One sample per repetition; aggregates (mean/median rows) are
            // RT_Aggregate and excluded above. Strip the "/repeats:N" name
            // component so every repetition lands in the same group.
            std::string name = run.benchmark_name();
            if (const auto pos = name.find("/repeats:"); pos != std::string::npos) {
                const auto end = name.find('/', pos + 1);
                name.erase(pos, end == std::string::npos ? std::string::npos
                                                         : end - pos);
            }
            const auto [it_group, inserted] = groups_.try_emplace(name, Samples{});
            if (inserted) order_.push_back(name);
            Samples& s = it_group->second;
            const double t = run.GetAdjustedRealTime() *
                             benchmark::GetTimeUnitMultiplier(benchmark::kNanosecond) /
                             benchmark::GetTimeUnitMultiplier(run.time_unit);
            double ips = 0.0;
            if (const auto it = run.counters.find("items_per_second");
                it != run.counters.end())
                ips = it->second;
            // First repetition of a group is the warmup: caches, branch
            // predictors, and the allocator settle before anything counts.
            if (s.warmup_dropped == 0) {
                s.warmup_dropped = 1;
            } else {
                s.time_ns.push_back(t);
                if (ips > 0) s.ips.push_back(ips);
            }
        }
    }

    /// Writes BENCH_kernel_throughput.json unless no group collected a
    /// sample (--benchmark_list_tests, a filter matching nothing): an empty
    /// export would overwrite a previous run's file, baselines included.
    void writeExport(const std::string& out_flag) const {
        obs::BenchWriter bw("flh.bench.kernel_throughput/1");
        std::size_t exported = 0;
        for (const std::string& name : order_) {
            const Samples& s = groups_.at(name);
            obs::BenchEntry e;
            e.name = name;
            e.threads = threadsFromName(name);
            e.warmup = s.warmup_dropped;
            e.time_samples = s.time_ns;
            e.ips_samples = s.ips;
            // A group that only ever saw one repetition (user override of
            // --benchmark_repetitions=1) has no sample once the warmup is
            // dropped, and is left out rather than exported empty.
            if (e.time_samples.empty() && s.warmup_dropped == 1) continue;
            bw.add(std::move(e));
            ++exported;
        }
        if (exported == 0) {
            std::cerr << "no benchmark collected a sample; BENCH_kernel_throughput.json "
                         "not written\n";
            return;
        }
        bw.writeFile("BENCH_kernel_throughput.json", out_flag);
    }

private:
    struct Samples {
        int warmup_dropped = 0;
        std::vector<double> time_ns;
        std::vector<double> ips;
    };

    /// The "threads:N" component of a benchmark name, 0 when absent (which
    /// also matches the knob's "one per hardware thread" spelling).
    static unsigned threadsFromName(const std::string& name) {
        const auto pos = name.find("threads:");
        if (pos == std::string::npos) return 0;
        return static_cast<unsigned>(
            std::strtoul(name.c_str() + pos + 8, nullptr, 10));
    }

    std::map<std::string, Samples> groups_;
    std::vector<std::string> order_; ///< first-seen order for the export
};

} // namespace

int main(int argc, char** argv) {
    // Pull out the shared bench flags, inject the repetition default (1
    // warmup + 5 measured reps) unless the caller chose their own, and
    // hand the rest to google-benchmark.
    const std::string out_flag = obs::parseBenchOutFlag(argc, argv);
    std::vector<std::string> args;
    bool has_reps = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out") {
            ++i; // value consumed by parseBenchOutFlag
            continue;
        }
        if (a.rfind("--out=", 0) == 0) continue;
        if (a.rfind("--benchmark_repetitions", 0) == 0) has_reps = true;
        args.push_back(a);
    }
    if (!has_reps) args.insert(args.begin(), "--benchmark_repetitions=6");

    std::vector<char*> bargv;
    bargv.push_back(argv[0]);
    for (std::string& a : args) bargv.push_back(a.data());
    int bargc = static_cast<int>(bargv.size());
    benchmark::Initialize(&bargc, bargv.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) return 1;
    JsonExportReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    reporter.writeExport(out_flag);
    benchmark::Shutdown();
    return 0;
}
