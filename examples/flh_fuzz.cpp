// flh_fuzz: differential verification driver.
//
//   flh_fuzz --seeds 500                  # cross-engine + DFT-equivalence fuzz
//   flh_fuzz --inject-mutant --seeds 20   # mutation-testing smoke: the checker
//                                         # must catch a corrupted FLH netlist
//   flh_fuzz --check-corpus tests/corpus  # replay committed reproducers
//
// Every seed deterministically generates a random sequential circuit, scans
// it, and cross-checks: a naive reference evaluator vs PatternSim at one
// word and at every --words width, SequentialSim::clock vs the nextState
// oracle, the serial reference grader (words = 0) vs fault simulation at
// every --threads count x --words width (bitmaps and
// n-detect counts), the paper's Fig. 5b two-pattern protocol under
// enhanced scan / MUX-hold / FLH vs direct evaluation, and — on circuits with
// at most 16 sources — PODEM's verdicts vs fault simulation and exhaustive
// source enumeration (aborts are counted and printed, not failed). Any
// mismatch is greedily shrunk to a small .bench + .pairs reproducer under
// --corpus and the run exits non-zero.
//
// In --inject-mutant mode the FLH variant is deliberately corrupted (one gate
// function flipped) and the exit codes invert: 0 means the checker caught the
// mutant within the seed budget, 1 means it slept through — the guard against
// a vacuously-passing checker.
#include "cell/logic_block.hpp"
#include "obs/benchio.hpp"
#include "obs/telemetry.hpp"
#include "util/cli.hpp"
#include "verify/corpus.hpp"
#include "verify/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

using namespace flh;

namespace {

constexpr const char* kUsage = R"(usage: flh_fuzz [options]
  --seeds N            fuzz seeds to run (default 100)
  --start-seed N       first seed (default 1)
  --pairs N            random (V1,V2) pairs per seed (default 12)
  --atpg-pairs N       ATPG-generated pairs per seed (default 6)
  --patterns N         stuck-at patterns per seed (default 16)
  --max-faults N       fault-list cap per seed (default 96)
  --threads LIST       comma-separated thread counts to cross-check
                       (default 1,4)
  --words LIST         comma-separated packed word widths to cross-check
                       against the naive evaluator and the words=0
                       reference grader, each 1..8 (default 1,4,8)
  --corpus DIR         where shrunk reproducers are written
                       (default fuzz_corpus)
  --no-shrink          report mismatches without minimizing them
  --keep-going         do not stop at the first finding
  --check-corpus DIR   replay every reproducer in DIR through the
                       equivalence checker instead of fuzzing
  --inject-mutant      corrupt the FLH variant (mutation-testing smoke);
                       exit 0 iff the checker catches it
  --mutant-seed N      mutation seed for --inject-mutant (default 1)
  --trace FILE         write a Chrome trace_event JSON (enables telemetry)
  --metrics FILE       write telemetry metrics wrapped in the provenance
                       envelope (enables telemetry)
  --out DIR            directory for --metrics (overrides FLH_BENCH_OUT)
  --quiet              suppress per-finding console output
  --help
)";

int replayCorpus(const std::string& dir, bool quiet) {
    const Library lib = makeDefaultLibrary();
    const std::vector<CorpusEntry> corpus = loadCorpus(dir, lib);
    std::size_t bad = 0;
    for (const CorpusEntry& entry : corpus) {
        const EquivalenceReport rep = checkDftEquivalence(entry.netlist, entry.pairs);
        if (!quiet)
            std::cout << entry.name << ": " << rep.pairs_checked << " pairs, "
                      << (rep.ok() ? "ok" : "MISMATCH") << "\n";
        if (!rep.ok()) {
            ++bad;
            std::cerr << "flh_fuzz: corpus entry '" << entry.name << "' fails: "
                      << rep.summary() << "\n";
        }
    }
    if (!quiet)
        std::cout << corpus.size() << " corpus entries replayed, " << bad << " failing\n";
    return bad == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    cli::ArgScan scan(argc, argv, "flh_fuzz", kUsage);
    cli::CommonFlags common;
    common.parse_threads = false; // --threads is a cross-check LIST here
    FuzzOptions opts;
    opts.corpus_dir = "fuzz_corpus";
    std::string check_corpus_dir;
    bool inject_mutant = false;
    std::uint64_t mutant_seed = 1;

    while (scan.next()) {
        if (common.tryParse(scan)) continue;
        if (scan.is("--seeds")) opts.seeds = scan.num<std::size_t>();
        else if (scan.is("--start-seed")) opts.start_seed = scan.num<std::uint64_t>();
        else if (scan.is("--pairs")) opts.random_pairs = scan.num<std::size_t>();
        else if (scan.is("--atpg-pairs")) opts.atpg_pairs = scan.num<std::size_t>();
        else if (scan.is("--patterns")) opts.stuck_patterns = scan.num<std::size_t>();
        else if (scan.is("--max-faults")) opts.max_faults = scan.num<std::size_t>();
        else if (scan.is("--threads")) opts.thread_counts = scan.numList<unsigned>();
        else if (scan.is("--words")) {
            opts.word_widths = scan.numList<unsigned>();
            for (const unsigned w : opts.word_widths)
                if (w < 1 || w > kMaxPackedWords)
                    scan.usageError("--words values must be in 1.." +
                                    std::to_string(kMaxPackedWords) + ", got " +
                                    std::to_string(w));
        }
        else if (scan.is("--corpus")) opts.corpus_dir = scan.value();
        else if (scan.is("--no-shrink")) opts.shrink = false;
        else if (scan.is("--keep-going")) opts.stop_on_first = false;
        else if (scan.is("--check-corpus")) check_corpus_dir = scan.value();
        else if (scan.is("--inject-mutant")) inject_mutant = true;
        else if (scan.is("--mutant-seed")) mutant_seed = scan.num<std::uint64_t>();
        else scan.unknownOption();
    }

    if (common.wantsTelemetry()) {
        obs::setEnabled(true);
        obs::setThreadLabel("main");
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t checks_run = 0;
    int exit_code = 0;
    if (!check_corpus_dir.empty()) {
        try {
            exit_code = replayCorpus(check_corpus_dir, common.quiet);
        } catch (const std::exception& e) {
            std::cerr << "flh_fuzz: " << e.what() << "\n";
            exit_code = 1;
        }
    } else {
        if (inject_mutant) opts.mutant_seed = mutant_seed;
        const FuzzReport rep = runFuzz(opts);
        checks_run = rep.checks_run;

        if (!common.quiet) {
            std::cout << rep.seeds_run << " seeds, " << rep.checks_run << " checks, "
                      << rep.findings.size() << " findings, " << rep.podem_aborts
                      << " PODEM aborts\n";
            for (const FuzzFinding& f : rep.findings) {
                std::cout << "seed " << f.seed << " [" << f.check << "] " << f.detail << "\n";
                if (!f.bench_path.empty())
                    std::cout << "  reproducer: " << f.bench_path << " + " << f.pairs_path
                              << " (" << f.shrunk_gates << " gates after shrink)\n";
            }
        }

        if (inject_mutant) {
            const bool caught = std::any_of(
                rep.findings.begin(), rep.findings.end(),
                [](const FuzzFinding& f) { return f.check == "dft-equivalence"; });
            if (!common.quiet)
                std::cout << "mutant " << (caught ? "caught" : "NOT caught") << " within "
                          << rep.seeds_run << " seeds\n";
            exit_code = caught ? 0 : 1;
        } else {
            exit_code = rep.ok() ? 0 : 1;
        }
    }

    const double wall_ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
            .count();

    if (!common.trace_path.empty())
        cli::writeFileOrDie("flh_fuzz", common.trace_path, obs::traceJson());
    if (!common.metrics_path.empty()) {
        // Envelope export: the flat flh.obs.metrics payload nests under
        // "results", plus one whole-run entry so flh_benchdiff can track
        // fuzz throughput across builds.
        obs::BenchWriter bw("flh.obs.metrics/1");
        obs::BenchEntry e;
        e.name = "fuzz/checks";
        e.threads = 1;
        e.time_samples.push_back(wall_ns);
        if (checks_run > 0 && wall_ns > 0.0)
            e.ips_samples.push_back(static_cast<double>(checks_run) / (wall_ns / 1e9));
        bw.add(std::move(e));
        bw.setResults(obs::metricsJson());
        cli::writeFileOrDie("flh_fuzz", obs::benchOutPath(common.metrics_path, common.out_flag),
                            bw.json());
    }
    return exit_code;
}
