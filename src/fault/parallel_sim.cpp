#include "fault/parallel_sim.hpp"

#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <string>
#include <thread>

namespace flh {

namespace {

/// Load up to 64 patterns into the simulator (slot i = pattern i); missing
/// slots repeat the last pattern so they never create spurious detections
/// (their detection bits are masked off by `valid`).
void loadPatterns(PatternSim& sim, std::span<const Pattern> pats, std::size_t base,
                  std::size_t count) {
    const Netlist& nl = sim.netlist();
    const auto& pis = nl.pis();
    const auto& ffs = nl.flipFlops();
    for (std::size_t k = 0; k < pis.size(); ++k) {
        PV v;
        for (unsigned slot = 0; slot < 64; ++slot) {
            const Pattern& p = pats[base + std::min<std::size_t>(slot, count - 1)];
            v.set(slot, p.pis.at(k));
        }
        sim.setNet(pis[k], v);
    }
    for (std::size_t k = 0; k < ffs.size(); ++k) {
        PV v;
        for (unsigned slot = 0; slot < 64; ++slot) {
            const Pattern& p = pats[base + std::min<std::size_t>(slot, count - 1)];
            v.set(slot, p.state.at(k));
        }
        sim.setNet(nl.gate(ffs[k]).output, v);
    }
    sim.propagate();
}

/// Observation snapshot into a reusable buffer: POs then FF D nets.
void observeInto(const PatternSim& sim, std::vector<PV>& out) {
    const Netlist& nl = sim.netlist();
    out.clear();
    for (const NetId po : nl.pos()) out.push_back(sim.get(po));
    for (const GateId ff : nl.flipFlops()) out.push_back(sim.get(nl.gate(ff).inputs[0]));
}

/// Slots where any observation point definitely differs.
std::uint64_t diffMask(const std::vector<PV>& good, const std::vector<PV>& faulty) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < good.size(); ++i)
        m |= (good[i].v ^ faulty[i].v) & ~good[i].x & ~faulty[i].x;
    return m;
}

std::uint64_t validMask(std::size_t count) {
    return count == 64 ? ~0ULL : ((1ULL << count) - 1);
}

/// One detection bit per fault, shared by every worker. Bits move only
/// 0 -> 1 and each is written under the single-fault independence
/// assumption, so relaxed ordering suffices; the final read-out happens
/// after the pool joins, which synchronizes everything.
class DetectedBitmap {
public:
    explicit DetectedBitmap(std::size_t bits) : words_((bits + 63) / 64) {}

    [[nodiscard]] bool test(std::size_t i) const noexcept {
        return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1;
    }
    void set(std::size_t i) noexcept {
        words_[i >> 6].fetch_or(1ULL << (i & 63), std::memory_order_relaxed);
    }

private:
    std::vector<std::atomic<std::uint64_t>> words_;
};

/// Telemetry hooks shared by the three grading engines. Counter lookups
/// happen once per process (static refs); workers accumulate locally and
/// flush once per partition so the enabled path adds no per-fault atomics.
struct SimTelemetry {
    obs::Counter& graded = obs::counter("fault_sim.faults_graded");
    obs::Counter& detected = obs::counter("fault_sim.faults_detected");
    obs::Counter& dropped = obs::counter("fault_sim.faults_dropped");
    obs::Counter& batches = obs::counter("fault_sim.batches");
    obs::Counter& partitions = obs::counter("fault_sim.partitions");

    static const SimTelemetry& get() {
        static const SimTelemetry t;
        return t;
    }
};

/// Worker-local accumulators, flushed to the shared counters when the
/// worker's partition finishes.
struct WorkerTally {
    std::uint64_t graded = 0;
    std::uint64_t detected = 0;
    std::uint64_t dropped = 0;
    std::uint64_t batches = 0;

    void flush() const {
        const SimTelemetry& t = SimTelemetry::get();
        t.graded.add(graded);
        t.detected.add(detected);
        t.dropped.add(dropped);
        t.batches.add(batches);
        t.partitions.add(1);
    }
};

/// Span label for one worker's contiguous fault range.
std::string partitionLabel(const char* engine, std::size_t lo, std::size_t hi) {
    return std::string(engine) + ":partition[" + std::to_string(lo) + "," +
           std::to_string(hi) + ")";
}

/// Run `work(lo, hi, tally)` over [0, n) split into `t` contiguous ranges.
/// t == 1 runs inline on the caller. Worker exceptions are rethrown here.
/// `engine` names the grading engine in spans and worker lane labels.
template <typename Fn>
void runPartitioned(const char* engine, std::size_t n, unsigned t, const Fn& work) {
    if (t <= 1 || n == 0) {
        obs::ScopedSpan span(obs::enabled() ? partitionLabel(engine, 0, n) : std::string(),
                             "fault_sim");
        WorkerTally tally;
        work(std::size_t{0}, n, tally);
        tally.flush();
        return;
    }
    std::vector<std::thread> pool;
    std::vector<std::exception_ptr> errors(t);
    pool.reserve(t);
    for (unsigned w = 0; w < t; ++w) {
        const std::size_t lo = n * w / t;
        const std::size_t hi = n * (w + 1) / t;
        pool.emplace_back([&work, &errors, lo, hi, w, engine] {
            try {
                if (obs::enabled())
                    obs::setThreadLabel("sim-worker-" + std::to_string(w));
                obs::ScopedSpan span(
                    obs::enabled() ? partitionLabel(engine, lo, hi) : std::string(),
                    "fault_sim");
                WorkerTally tally;
                work(lo, hi, tally);
                tally.flush();
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (std::thread& th : pool) th.join();
    for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
}

// ---- packed (word-parallel) engine helpers -------------------------------

/// Effective packed width for a run: 0 keeps the reference grader;
/// otherwise clamp to the words the pattern count actually fills, so small
/// runs (ATPG grading one test at a time) never propagate unused words.
unsigned effectiveWords(unsigned words, std::size_t n_patterns) {
    if (words == 0) return 0;
    const std::size_t need = (n_patterns + 63) / 64;
    return static_cast<unsigned>(std::min<std::size_t>(
        {static_cast<std::size_t>(words), need, static_cast<std::size_t>(kMaxPackedWords)}));
}

/// Load up to words*64 patterns into the packed simulator (pattern i in
/// word i/64, slot i%64); missing slots repeat the last pattern so they
/// never create spurious detections (masked off via the per-word valid
/// masks). The transpose runs pattern-major — one pass over each Pattern's
/// bit vectors, accumulating words per source — instead of revisiting all
/// words*64 Pattern objects once per source net.
void loadPatternsPacked(PatternSim& sim, std::span<const Pattern> pats, std::size_t base,
                        std::size_t count) {
    const Netlist& nl = sim.netlist();
    const unsigned W = sim.words();
    const auto& pis = nl.pis();
    const auto& ffs = nl.flipFlops();
    const std::size_t n_pis = pis.size();
    const std::size_t n_src = n_pis + ffs.size();
    std::vector<std::uint64_t> tv(n_src * W, 0);
    std::vector<std::uint64_t> tx(n_src * W, 0);
    for (unsigned w = 0; w < W; ++w) {
        for (unsigned slot = 0; slot < 64; ++slot) {
            const std::size_t i = std::min<std::size_t>(64ULL * w + slot, count - 1);
            const Pattern& p = pats[base + i];
            const std::uint64_t bit = 1ULL << slot;
            for (std::size_t k = 0; k < n_pis; ++k) {
                const Logic l = p.pis[k];
                if (l == Logic::One) tv[k * W + w] |= bit;
                else if (l == Logic::X) tx[k * W + w] |= bit;
            }
            for (std::size_t k = 0; k < ffs.size(); ++k) {
                const Logic l = p.state[k];
                if (l == Logic::One) tv[(n_pis + k) * W + w] |= bit;
                else if (l == Logic::X) tx[(n_pis + k) * W + w] |= bit;
            }
        }
    }
    for (std::size_t k = 0; k < n_pis; ++k)
        for (unsigned w = 0; w < W; ++w)
            sim.setNet(pis[k], w, PV{tv[k * W + w], tx[k * W + w]});
    for (std::size_t k = 0; k < ffs.size(); ++k)
        for (unsigned w = 0; w < W; ++w)
            sim.setNet(nl.gate(ffs[k]).output, w,
                       PV{tv[(n_pis + k) * W + w], tx[(n_pis + k) * W + w]});
    sim.propagate();
}

/// One flag per net marking the observation points (POs and FF D nets) for
/// PatternSim::faultDiffOnto. The packed engine detects against the undo
/// log's pre-fault planes, so no good-machine observation snapshot is ever
/// taken: per fault it compares only the nets the fault cone touched.
std::vector<std::uint8_t> observationFlags(const Netlist& nl) {
    std::vector<std::uint8_t> is_obs(nl.netCount(), 0);
    for (const NetId po : nl.pos()) is_obs[po] = 1;
    for (const GateId ff : nl.flipFlops()) is_obs[nl.gate(ff).inputs[0]] = 1;
    return is_obs;
}

/// Valid-slot mask of word `w` in a block of `count` patterns.
std::uint64_t validMaskWord(std::size_t count, unsigned w) {
    const std::size_t lo = 64ULL * w;
    if (count <= lo) return 0;
    return validMask(std::min<std::size_t>(count - lo, 64));
}

} // namespace

FaultSimResult runStuckAtFaultSim(const Netlist& nl, std::span<const Pattern> pats,
                                  std::span<const FaultSite> faults,
                                  const FaultSimOptions& opts) {
    FaultSimResult res;
    res.total = faults.size();
    res.detected_mask.assign(faults.size(), false);
    if (pats.empty() || faults.empty()) return res;

    // One table set for every worker's simulators. Building it also forces
    // the Netlist's lazily built fanout/topo caches, so workers only read.
    const std::shared_ptr<const SimTables> tables = std::make_shared<const SimTables>(nl);
    DetectedBitmap det(faults.size());
    const unsigned W = effectiveWords(opts.words, pats.size());
    const unsigned threads = opts.resolveThreads(faults.size());
    if (W) {
        runPartitioned(
            "stuck_at", faults.size(), threads,
            [&](std::size_t lo, std::size_t hi, WorkerTally& tally) {
                if (lo == hi) return;
                PatternSim sim(tables, W);
                const std::vector<std::uint8_t> is_obs = observationFlags(nl);
                std::uint64_t diff[kMaxPackedWords];
                std::uint64_t validw[kMaxPackedWords];
                const std::size_t block = 64ULL * W;
                for (std::size_t base = 0; base < pats.size(); base += block) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(block, pats.size() - base);
                    for (unsigned w = 0; w < W; ++w) validw[w] = validMaskWord(count, w);
                    loadPatternsPacked(sim, pats, base, count);
                    for (std::size_t fi = lo; fi < hi; ++fi) {
                        if (det.test(fi)) {
                            ++tally.dropped;
                            continue;
                        }
                        sim.injectFault(faults[fi]);
                        sim.propagate();
                        sim.faultDiffOnto(is_obs.data(), diff);
                        sim.clearFault();
                        ++tally.graded;
                        std::uint64_t hit = 0;
                        for (unsigned w = 0; w < W; ++w) hit |= diff[w] & validw[w];
                        if (hit) {
                            det.set(fi);
                            ++tally.detected;
                        }
                    }
                }
            });

        for (std::size_t fi = 0; fi < faults.size(); ++fi)
            if (det.test(fi)) {
                res.detected_mask[fi] = true;
                ++res.detected;
            }
        return res;
    }
    runPartitioned("stuck_at", faults.size(), threads,
                   [&](std::size_t lo, std::size_t hi, WorkerTally& tally) {
                       if (lo == hi) return;
                       PatternSim sim(tables);
                       std::vector<PV> good;
                       std::vector<PV> faulty;
                       for (std::size_t base = 0; base < pats.size(); base += 64) {
                           obs::ScopedSpan batch_span(
                               obs::enabled() ? "batch@" + std::to_string(base)
                                              : std::string(),
                               "fault_sim.batch");
                           ++tally.batches;
                           const std::size_t count = std::min<std::size_t>(64, pats.size() - base);
                           const std::uint64_t valid = validMask(count);
                           loadPatterns(sim, pats, base, count);
                           observeInto(sim, good);
                           for (std::size_t fi = lo; fi < hi; ++fi) {
                               if (det.test(fi)) {
                                   ++tally.dropped;
                                   continue;
                               }
                               sim.injectFault(faults[fi]);
                               sim.propagate();
                               observeInto(sim, faulty);
                               const std::uint64_t hit = diffMask(good, faulty) & valid;
                               sim.clearFault();
                               ++tally.graded;
                               if (hit) {
                                   det.set(fi);
                                   ++tally.detected;
                               }
                           }
                       }
                   });

    for (std::size_t fi = 0; fi < faults.size(); ++fi)
        if (det.test(fi)) {
            res.detected_mask[fi] = true;
            ++res.detected;
        }
    return res;
}

namespace {

/// Split two-pattern tests into the V1 / V2 pattern sequences the 64-wide
/// loader consumes.
void splitPairs(std::span<const TwoPattern> tests, std::vector<Pattern>& v1s,
                std::vector<Pattern>& v2s) {
    v1s.reserve(tests.size());
    v2s.reserve(tests.size());
    for (const TwoPattern& tp : tests) {
        v1s.push_back(tp.v1);
        v2s.push_back(tp.v2);
    }
}

/// Batch detection mask for one transition fault: slots where V1 launches
/// the transition (initial value established at the site) AND V2 propagates
/// the equivalent stuck-at effect to an observation point.
struct TransitionWorkerState {
    PatternSim sim_v1;
    PatternSim sim_v2;
    std::vector<PV> good;
    std::vector<PV> faulty;

    explicit TransitionWorkerState(const std::shared_ptr<const SimTables>& tables)
        : sim_v1(tables), sim_v2(tables) {}

    void loadBatch(std::span<const Pattern> v1s, std::span<const Pattern> v2s,
                   std::size_t base, std::size_t count) {
        loadPatterns(sim_v1, v1s, base, count);
        loadPatterns(sim_v2, v2s, base, count);
        observeInto(sim_v2, good);
    }

    [[nodiscard]] std::uint64_t launchMask(const TransitionFault& tf) const {
        const PV at_site = sim_v1.get(tf.net);
        const std::uint64_t want_one = tf.initialValue() == Logic::One ? ~0ULL : 0;
        return ~(at_site.v ^ want_one) & ~at_site.x;
    }

    [[nodiscard]] std::uint64_t detectMask(const TransitionFault& tf, std::uint64_t init_ok,
                                           std::uint64_t valid) {
        sim_v2.injectFault(tf.equivalentStuckAt());
        sim_v2.propagate();
        observeInto(sim_v2, faulty);
        const std::uint64_t hit = diffMask(good, faulty) & init_ok & valid;
        sim_v2.clearFault();
        return hit;
    }
};

} // namespace

TransitionGrader::TransitionGrader(std::shared_ptr<const SimTables> tables, unsigned words)
    : v1_(tables, words), v2_(tables, words), is_obs_(observationFlags(*tables->nl)) {}

void TransitionGrader::loadBlock(std::span<const Pattern> v1s, std::span<const Pattern> v2s,
                                 std::size_t base, std::size_t count) {
    loadPatternsPacked(v1_, v1s, base, count);
    loadPatternsPacked(v2_, v2s, base, count);
}

std::uint64_t TransitionGrader::launchMask(const TransitionFault& tf, const std::uint64_t* valid,
                                           std::uint64_t* init_ok) const {
    const unsigned W = v1_.words();
    const std::uint64_t* v = v1_.valuePlane(tf.net);
    const std::uint64_t* x = v1_.unknownPlane(tf.net);
    const std::uint64_t want_one = tf.initialValue() == Logic::One ? ~0ULL : 0;
    std::uint64_t any = 0;
    for (unsigned w = 0; w < W; ++w) {
        init_ok[w] = ~(v[w] ^ want_one) & ~x[w] & valid[w];
        any |= init_ok[w];
    }
    return any;
}

std::uint64_t TransitionGrader::detectMask(const TransitionFault& tf,
                                           const std::uint64_t* init_ok, std::uint64_t* hit) {
    const unsigned W = v2_.words();
    v2_.injectFault(tf.equivalentStuckAt());
    v2_.propagate();
    v2_.faultDiffOnto(is_obs_.data(), hit);
    v2_.clearFault();
    std::uint64_t any = 0;
    for (unsigned w = 0; w < W; ++w) {
        hit[w] &= init_ok[w];
        any |= hit[w];
    }
    return any;
}

FaultSimResult runTransitionFaultSim(const Netlist& nl, std::span<const TwoPattern> tests,
                                     std::span<const TransitionFault> faults,
                                     const FaultSimOptions& opts) {
    FaultSimResult res;
    res.total = faults.size();
    res.detected_mask.assign(faults.size(), false);
    if (tests.empty() || faults.empty()) return res;

    // One table set for every worker's simulators. Building it also forces
    // the Netlist's lazily built fanout/topo caches, so workers only read.
    const std::shared_ptr<const SimTables> tables = std::make_shared<const SimTables>(nl);
    std::vector<Pattern> v1s;
    std::vector<Pattern> v2s;
    splitPairs(tests, v1s, v2s);

    DetectedBitmap det(faults.size());
    const unsigned W = effectiveWords(opts.words, tests.size());
    const unsigned threads = opts.resolveThreads(faults.size());
    if (W) {
        runPartitioned(
            "transition", faults.size(), threads,
            [&](std::size_t lo, std::size_t hi, WorkerTally& tally) {
                if (lo == hi) return;
                TransitionGrader ws(tables, W);
                std::uint64_t validw[kMaxPackedWords];
                std::uint64_t init_ok[kMaxPackedWords];
                std::uint64_t hit[kMaxPackedWords];
                const std::size_t block = 64ULL * W;
                for (std::size_t base = 0; base < tests.size(); base += block) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(block, tests.size() - base);
                    for (unsigned w = 0; w < W; ++w) validw[w] = validMaskWord(count, w);
                    ws.loadBlock(v1s, v2s, base, count);
                    for (std::size_t fi = lo; fi < hi; ++fi) {
                        if (det.test(fi)) {
                            ++tally.dropped;
                            continue;
                        }
                        if (ws.launchMask(faults[fi], validw, init_ok) == 0) continue;
                        ++tally.graded;
                        if (ws.detectMask(faults[fi], init_ok, hit)) {
                            det.set(fi);
                            ++tally.detected;
                        }
                    }
                }
            });

        for (std::size_t fi = 0; fi < faults.size(); ++fi)
            if (det.test(fi)) {
                res.detected_mask[fi] = true;
                ++res.detected;
            }
        return res;
    }
    runPartitioned("transition", faults.size(), threads,
                   [&](std::size_t lo, std::size_t hi, WorkerTally& tally) {
                       if (lo == hi) return;
                       TransitionWorkerState ws(tables);
                       for (std::size_t base = 0; base < tests.size(); base += 64) {
                           obs::ScopedSpan batch_span(
                               obs::enabled() ? "batch@" + std::to_string(base)
                                              : std::string(),
                               "fault_sim.batch");
                           ++tally.batches;
                           const std::size_t count = std::min<std::size_t>(64, tests.size() - base);
                           const std::uint64_t valid = validMask(count);
                           ws.loadBatch(v1s, v2s, base, count);
                           for (std::size_t fi = lo; fi < hi; ++fi) {
                               if (det.test(fi)) {
                                   ++tally.dropped;
                                   continue;
                               }
                               const std::uint64_t init_ok = ws.launchMask(faults[fi]);
                               if ((init_ok & valid) == 0) continue;
                               ++tally.graded;
                               if (ws.detectMask(faults[fi], init_ok, valid)) {
                                   det.set(fi);
                                   ++tally.detected;
                               }
                           }
                       }
                   });

    for (std::size_t fi = 0; fi < faults.size(); ++fi)
        if (det.test(fi)) {
            res.detected_mask[fi] = true;
            ++res.detected;
        }
    return res;
}

std::vector<std::size_t> countTransitionDetections(const Netlist& nl,
                                                   std::span<const TwoPattern> tests,
                                                   std::span<const TransitionFault> faults,
                                                   const FaultSimOptions& opts) {
    std::vector<std::size_t> counts(faults.size(), 0);
    if (tests.empty() || faults.empty()) return counts;

    // One table set for every worker's simulators. Building it also forces
    // the Netlist's lazily built fanout/topo caches, so workers only read.
    const std::shared_ptr<const SimTables> tables = std::make_shared<const SimTables>(nl);
    std::vector<Pattern> v1s;
    std::vector<Pattern> v2s;
    splitPairs(tests, v1s, v2s);

    // No fault dropping (the profile needs every test), and each worker
    // writes a disjoint slice of `counts`, so no synchronization is needed.
    const unsigned W = effectiveWords(opts.words, tests.size());
    const unsigned threads = opts.resolveThreads(faults.size());
    if (W) {
        runPartitioned(
            "ndetect", faults.size(), threads,
            [&](std::size_t lo, std::size_t hi, WorkerTally& tally) {
                if (lo == hi) return;
                TransitionGrader ws(tables, W);
                std::uint64_t validw[kMaxPackedWords];
                std::uint64_t init_ok[kMaxPackedWords];
                std::uint64_t hit[kMaxPackedWords];
                const std::size_t block = 64ULL * W;
                for (std::size_t base = 0; base < tests.size(); base += block) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(block, tests.size() - base);
                    for (unsigned w = 0; w < W; ++w) validw[w] = validMaskWord(count, w);
                    ws.loadBlock(v1s, v2s, base, count);
                    for (std::size_t fi = lo; fi < hi; ++fi) {
                        if (ws.launchMask(faults[fi], validw, init_ok) == 0) continue;
                        ++tally.graded;
                        ws.detectMask(faults[fi], init_ok, hit);
                        for (unsigned w = 0; w < W; ++w)
                            counts[fi] += static_cast<std::size_t>(std::popcount(hit[w]));
                    }
                }
            });
        return counts;
    }
    runPartitioned("ndetect", faults.size(), threads,
                   [&](std::size_t lo, std::size_t hi, WorkerTally& tally) {
                       if (lo == hi) return;
                       TransitionWorkerState ws(tables);
                       for (std::size_t base = 0; base < tests.size(); base += 64) {
                           obs::ScopedSpan batch_span(
                               obs::enabled() ? "batch@" + std::to_string(base)
                                              : std::string(),
                               "fault_sim.batch");
                           ++tally.batches;
                           const std::size_t count = std::min<std::size_t>(64, tests.size() - base);
                           const std::uint64_t valid = validMask(count);
                           ws.loadBatch(v1s, v2s, base, count);
                           for (std::size_t fi = lo; fi < hi; ++fi) {
                               const std::uint64_t init_ok = ws.launchMask(faults[fi]);
                               if ((init_ok & valid) == 0) continue;
                               ++tally.graded;
                               counts[fi] += static_cast<std::size_t>(
                                   std::popcount(ws.detectMask(faults[fi], init_ok, valid)));
                           }
                       }
                   });
    return counts;
}

} // namespace flh
