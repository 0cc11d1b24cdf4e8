#include "fault/parallel_sim.hpp"

#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

namespace flh {

namespace {

/// The reference grader's loader: up to 64 patterns into the simulator
/// (slot i = `at(i)`), one slot at a time; missing slots repeat the last
/// pattern so they never create spurious detections (their detection bits
/// are masked off by `valid`). `at(i)` returns the block's pattern i,
/// i < count: a stuck-at pattern or one half of a two-pattern test, read in
/// place. It derives the source nets from the Netlist itself, independent
/// of SimTables::sources, because the packed engine is tested against it.
template <class PatternAt>
void loadPatterns(PatternSim& sim, std::size_t count, const PatternAt& at) {
    const Netlist& nl = sim.netlist();
    const auto& pis = nl.pis();
    const auto& ffs = nl.flipFlops();
    for (std::size_t k = 0; k < pis.size(); ++k) {
        PV v;
        for (unsigned slot = 0; slot < 64; ++slot)
            v.set(slot, at(std::min<std::size_t>(slot, count - 1)).pis.at(k));
        sim.setNet(pis[k], v);
    }
    for (std::size_t k = 0; k < ffs.size(); ++k) {
        PV v;
        for (unsigned slot = 0; slot < 64; ++slot)
            v.set(slot, at(std::min<std::size_t>(slot, count - 1)).state.at(k));
        sim.setNet(nl.gate(ffs[k]).output, v);
    }
    sim.propagate();
}

/// Observation snapshot (SimTables::observed) into a reusable buffer.
void observeInto(const PatternSim& sim, std::vector<PV>& out) {
    out.clear();
    for (const NetId n : sim.tables()->observed) out.push_back(sim.get(n));
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
    explicit DetectedBitmap(std::size_t bits) : bits_(bits), words_((bits + 63) / 64) {}

    [[nodiscard]] bool test(std::size_t i) const noexcept {
        return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1;
    }
    void set(std::size_t i) noexcept {
        words_[i >> 6].fetch_or(1ULL << (i & 63), std::memory_order_relaxed);
    }

    /// The run's verdict, one mask bit per fault; read after the pool joins.
    [[nodiscard]] FaultSimResult result() const {
        FaultSimResult res;
        res.total = bits_;
        res.detected_mask.assign(bits_, false);
        for (std::size_t fi = 0; fi < bits_; ++fi)
            if (test(fi)) {
                res.detected_mask[fi] = true;
                ++res.detected;
            }
        return res;
    }

private:
    std::size_t bits_;
    std::vector<std::atomic<std::uint64_t>> words_;
};

/// Telemetry hooks shared by the three grading engines. Counter lookups
/// happen once per process (static refs); workers accumulate locally and
/// flush once per stripe so the enabled path adds no per-fault atomics.
struct SimTelemetry {
    obs::Counter& graded = obs::counter("fault_sim.faults_graded");
    obs::Counter& detected = obs::counter("fault_sim.faults_detected");
    obs::Counter& dropped = obs::counter("fault_sim.faults_dropped");
    obs::Counter& batches = obs::counter("fault_sim.batches");
    obs::Counter& stripes = obs::counter("fault_sim.stripes");

    static const SimTelemetry& get() {
        static const SimTelemetry t;
        return t;
    }
};

/// Worker-local accumulators, flushed to the shared counters when the
/// worker's stripe finishes.
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
        t.stripes.add(1);
    }
};

/// Faults per stripe chunk. Even, so a net's slow-to-rise / slow-to-fall
/// pair (adjacent in allTransitionFaults) never straddles two chunks; 64, so
/// each chunk owns whole words of the DetectedBitmap.
constexpr std::size_t kStripeChunk = 64;

/// One worker's share of a fault list of `n`: chunks w, w + t, w + 2t, ...
/// of kStripeChunk consecutive faults. Faults with large cones cluster in
/// the list (they come from the same region of the netlist), so dealing
/// chunks out round-robin balances the workers where contiguous ranges
/// would leave one worker with most of the work.
struct Stripe {
    std::size_t n;
    unsigned w;
    unsigned t;

    /// Call `fn(lo, hi)` for each chunk [lo, hi) of the stripe, in order.
    template <typename Fn>
    void forEachChunk(const Fn& fn) const {
        const std::size_t step = kStripeChunk * t;
        for (std::size_t lo = kStripeChunk * w; lo < n; lo += step)
            fn(lo, std::min(lo + kStripeChunk, n));
    }
};

/// Span label for one worker's stripe.
std::string stripeLabel(const char* engine, const Stripe& s) {
    return std::string(engine) + ":stripe[" + std::to_string(s.w) + "/" +
           std::to_string(s.t) + "]";
}

/// Run `work(stripe, tally)` for the `t` stripes of [0, n), one worker each;
/// a list of fewer than `t` chunks gets one worker per chunk. A single
/// stripe runs inline on the caller. Worker exceptions are rethrown here.
/// `engine` names the grading engine in spans and worker lane labels.
template <typename Fn>
void runStriped(const char* engine, std::size_t n, unsigned t, const Fn& work) {
    const std::size_t chunks = (n + kStripeChunk - 1) / kStripeChunk;
    t = static_cast<unsigned>(std::clamp<std::size_t>(chunks, 1, t));
    const auto runStripe = [&](unsigned w) {
        const Stripe s{n, w, t};
        obs::ScopedSpan span(obs::enabled() ? stripeLabel(engine, s) : std::string(),
                             "fault_sim");
        WorkerTally tally;
        work(s, tally);
        tally.flush();
    };
    if (t == 1) {
        runStripe(0);
        return;
    }
    std::vector<std::thread> pool;
    std::vector<std::exception_ptr> errors(t);
    pool.reserve(t);
    for (unsigned w = 0; w < t; ++w) {
        pool.emplace_back([&runStripe, &errors, w] {
            try {
                if (obs::enabled())
                    obs::setThreadLabel("sim-worker-" + std::to_string(w));
                runStripe(w);
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

/// Load up to words*64 patterns into the packed simulator (pattern i =
/// `at(i)` in word i/64, slot i%64); missing slots repeat the last pattern
/// so they never create spurious detections (masked off via the per-word
/// valid masks). The transpose runs pattern-major — one pass over each
/// Pattern's bit vectors, accumulating words per source — instead of
/// revisiting all words*64 Pattern objects once per source net.
template <class PatternAt>
void loadPatternsPacked(PatternSim& sim, std::size_t count, const PatternAt& at) {
    const unsigned W = sim.words();
    const std::vector<NetId>& src = sim.tables()->sources;
    const std::size_t n_pis = sim.netlist().pis().size();
    const std::size_t n_src = src.size();
    std::vector<std::uint64_t> tv(n_src * W, 0);
    std::vector<std::uint64_t> tx(n_src * W, 0);
    const auto put = [&](std::size_t k, unsigned w, std::uint64_t bit, Logic l) {
        if (l == Logic::One) tv[k * W + w] |= bit;
        else if (l == Logic::X) tx[k * W + w] |= bit;
    };
    for (unsigned w = 0; w < W; ++w) {
        for (unsigned slot = 0; slot < 64; ++slot) {
            const Pattern& p = at(std::min<std::size_t>(64ULL * w + slot, count - 1));
            const std::uint64_t bit = 1ULL << slot;
            for (std::size_t k = 0; k < n_pis; ++k) put(k, w, bit, p.pis[k]);
            for (std::size_t k = n_pis; k < n_src; ++k) put(k, w, bit, p.state[k - n_pis]);
        }
    }
    for (std::size_t k = 0; k < n_src; ++k)
        for (unsigned w = 0; w < W; ++w) sim.setNet(src[k], w, PV{tv[k * W + w], tx[k * W + w]});
    sim.propagate();
}

/// The loaders read patterns unchecked, so every grading entry point checks
/// the shapes first: each width then rejects a malformed pattern alike.
void checkShapes(const Netlist& nl, std::span<const Pattern> pats, const char* who) {
    for (const Pattern& p : pats) checkPatternShape(nl, p, who);
}

void checkShapes(const Netlist& nl, std::span<const TwoPattern> tests, const char* who) {
    for (const TwoPattern& tp : tests) {
        checkPatternShape(nl, tp.v1, who);
        checkPatternShape(nl, tp.v2, who);
    }
}

/// Pattern getter for the loaders: pattern i of a block starting at `base`.
auto patternsFrom(std::span<const Pattern> pats, std::size_t base) {
    return [pats, base](std::size_t i) -> const Pattern& { return pats[base + i]; };
}

/// Pattern getter for the loaders: V1 (`first`) or V2 of test base + i, read
/// in place.
auto halfOf(std::span<const TwoPattern> tests, std::size_t base, bool first) {
    return [tests, base, first](std::size_t i) -> const Pattern& {
        const TwoPattern& tp = tests[base + i];
        return first ? tp.v1 : tp.v2;
    };
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
    checkShapes(nl, pats, "runStuckAtFaultSim");
    DetectedBitmap det(faults.size());
    if (pats.empty() || faults.empty()) return det.result();

    // One table set for every worker's simulators. Building it also forces
    // the Netlist's lazily built fanout/topo caches, so workers only read.
    const std::shared_ptr<const SimTables> tables = std::make_shared<const SimTables>(nl);
    const unsigned W = effectiveWords(opts.words, pats.size());
    const unsigned threads = opts.resolveThreads(faults.size());
    if (W) {
        runStriped(
            "stuck_at", faults.size(), threads, [&](const Stripe& stripe, WorkerTally& tally) {
                PatternSim sim(tables, W);
                // Detection compares, against the undo log's pre-fault
                // planes, only the observation points the fault cone touched.
                const std::uint8_t* is_obs = tables->is_obs.data();
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
                    loadPatternsPacked(sim, count, patternsFrom(pats, base));
                    stripe.forEachChunk([&](std::size_t lo, std::size_t hi) {
                        for (std::size_t fi = lo; fi < hi; ++fi) {
                            if (det.test(fi)) {
                                ++tally.dropped;
                                continue;
                            }
                            sim.injectFault(faults[fi]);
                            sim.propagate();
                            sim.faultDiffOnto(is_obs, diff);
                            sim.clearFault();
                            ++tally.graded;
                            std::uint64_t hit = 0;
                            for (unsigned w = 0; w < W; ++w) hit |= diff[w] & validw[w];
                            if (hit) {
                                det.set(fi);
                                ++tally.detected;
                            }
                        }
                    });
                }
            });
    } else {
        runStriped(
            "stuck_at", faults.size(), threads, [&](const Stripe& stripe, WorkerTally& tally) {
                PatternSim sim(tables);
                std::vector<PV> good;
                std::vector<PV> faulty;
                for (std::size_t base = 0; base < pats.size(); base += 64) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(64, pats.size() - base);
                    const std::uint64_t valid = validMask(count);
                    loadPatterns(sim, count, patternsFrom(pats, base));
                    observeInto(sim, good);
                    stripe.forEachChunk([&](std::size_t lo, std::size_t hi) {
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
                    });
                }
            });
    }
    return det.result();
}

namespace {

/// The reference grader's transition verdict for one batch of 64 tests:
/// slots where V1 launches the transition (initial value established at the
/// site) AND V2 propagates the equivalent stuck-at effect to an observation
/// point, found by comparing full good and faulty observation snapshots.
struct TransitionWorkerState {
    PatternSim sim_v1;
    PatternSim sim_v2;
    std::vector<PV> good;
    std::vector<PV> faulty;

    explicit TransitionWorkerState(const std::shared_ptr<const SimTables>& tables)
        : sim_v1(tables), sim_v2(tables) {}

    void loadBatch(std::span<const TwoPattern> tests, std::size_t base, std::size_t count) {
        loadPatterns(sim_v1, count, halfOf(tests, base, true));
        loadPatterns(sim_v2, count, halfOf(tests, base, false));
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

/// One past the last fault of the group that starts at `fi` and is graded
/// by one TransitionGrader::grade call: fault fi + 1 joins when it lies
/// before `hi`, sits on the same net, and `open(fi + 1)` holds.
template <class Open>
std::size_t netGroupEnd(std::span<const TransitionFault> faults, std::size_t fi, std::size_t hi,
                        const Open& open) {
    const std::size_t next = fi + 1;
    return next < hi && faults[next].net == faults[fi].net && open(next) ? next + 1 : next;
}

} // namespace

TransitionGrader::TransitionGrader(std::shared_ptr<const SimTables> tables, unsigned words)
    : v1_(tables, words), v2_(std::move(tables), words) {}

void TransitionGrader::loadBlock(std::span<const TwoPattern> tests, std::size_t base,
                                 std::size_t count) {
    checkShapes(v1_.netlist(), tests.subspan(base, count), "TransitionGrader::loadBlock");
    loadPatternsPacked(v1_, count, halfOf(tests, base, true));
    loadPatternsPacked(v2_, count, halfOf(tests, base, false));
}

unsigned TransitionGrader::grade(std::span<const TransitionFault> group,
                                 const std::uint64_t* valid, std::uint64_t* hit) {
    if (group.empty() || group.size() > kMaxGroup)
        throw std::invalid_argument("TransitionGrader::grade: a group holds 1 to " +
                                    std::to_string(kMaxGroup) + " faults");
    const NetId net = group.front().net;
    const unsigned W = v2_.words();
    const std::uint64_t* v1 = v1_.valuePlane(net);
    const std::uint64_t* x1 = v1_.unknownPlane(net);
    const std::uint64_t* v2 = v2_.valuePlane(net);
    const std::uint64_t* x2 = v2_.unknownPlane(net);
    // A fault is graded in the slots where V1 sets its initial value and V2
    // the opposite one: there the equivalent stuck-at fault is activated,
    // and complementing the net builds exactly its faulty machine. The
    // faults of one net complement disjoint slots (V2 is 1 for slow-to-rise,
    // 0 for slow-to-fall), so one excursion over their union grades all.
    std::uint64_t flip[kMaxPackedWords] = {};
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        if (group[i].net != net)
            throw std::invalid_argument("TransitionGrader::grade: faults on different nets");
        const std::uint64_t want_one = group[i].initialValue() == Logic::One ? ~0ULL : 0;
        std::uint64_t* ok = hit + i * W;
        for (unsigned w = 0; w < W; ++w) {
            ok[w] = ~(v1[w] ^ want_one) & (v2[w] ^ want_one) & ~x1[w] & ~x2[w] & valid[w];
            flip[w] |= ok[w];
            any |= ok[w];
        }
    }
    if (!any) return 0;
    std::uint64_t diff[kMaxPackedWords];
    v2_.injectComplement(net, flip);
    v2_.propagate();
    v2_.faultDiffOnto(v2_.tables()->is_obs.data(), diff);
    v2_.clearFault();
    unsigned found = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        std::uint64_t* h = hit + i * W;
        std::uint64_t seen = 0;
        for (unsigned w = 0; w < W; ++w) {
            h[w] &= diff[w];
            seen |= h[w];
        }
        if (seen) found |= 1U << i;
    }
    return found;
}

FaultSimResult runTransitionFaultSim(const Netlist& nl, std::span<const TwoPattern> tests,
                                     std::span<const TransitionFault> faults,
                                     const FaultSimOptions& opts) {
    checkShapes(nl, tests, "runTransitionFaultSim");
    DetectedBitmap det(faults.size());
    if (tests.empty() || faults.empty()) return det.result();

    // One table set for every worker's simulators. Building it also forces
    // the Netlist's lazily built fanout/topo caches, so workers only read.
    const std::shared_ptr<const SimTables> tables = std::make_shared<const SimTables>(nl);
    const unsigned W = effectiveWords(opts.words, tests.size());
    const unsigned threads = opts.resolveThreads(faults.size());
    if (W) {
        runStriped(
            "transition", faults.size(), threads, [&](const Stripe& stripe, WorkerTally& tally) {
                TransitionGrader grader(tables, W);
                std::uint64_t validw[kMaxPackedWords];
                std::uint64_t hit[TransitionGrader::kMaxGroup * kMaxPackedWords];
                const std::size_t block = 64ULL * W;
                const auto open = [&](std::size_t fi) { return !det.test(fi); };
                for (std::size_t base = 0; base < tests.size(); base += block) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(block, tests.size() - base);
                    for (unsigned w = 0; w < W; ++w) validw[w] = validMaskWord(count, w);
                    grader.loadBlock(tests, base, count);
                    stripe.forEachChunk([&](std::size_t lo, std::size_t hi) {
                        for (std::size_t fi = lo; fi < hi;) {
                            if (!open(fi)) {
                                ++tally.dropped;
                                ++fi;
                                continue;
                            }
                            const std::size_t end = netGroupEnd(faults, fi, hi, open);
                            const unsigned found =
                                grader.grade(faults.subspan(fi, end - fi), validw, hit);
                            tally.graded += end - fi;
                            for (std::size_t k = 0; k < end - fi; ++k)
                                if ((found >> k) & 1) {
                                    det.set(fi + k);
                                    ++tally.detected;
                                }
                            fi = end;
                        }
                    });
                }
            });
    } else {
        runStriped(
            "transition", faults.size(), threads, [&](const Stripe& stripe, WorkerTally& tally) {
                TransitionWorkerState ws(tables);
                for (std::size_t base = 0; base < tests.size(); base += 64) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(64, tests.size() - base);
                    const std::uint64_t valid = validMask(count);
                    ws.loadBatch(tests, base, count);
                    stripe.forEachChunk([&](std::size_t lo, std::size_t hi) {
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
                    });
                }
            });
    }
    return det.result();
}

std::vector<std::size_t> countTransitionDetections(const Netlist& nl,
                                                   std::span<const TwoPattern> tests,
                                                   std::span<const TransitionFault> faults,
                                                   const FaultSimOptions& opts) {
    checkShapes(nl, tests, "countTransitionDetections");
    std::vector<std::size_t> counts(faults.size(), 0);
    if (tests.empty() || faults.empty()) return counts;

    // One table set for every worker's simulators. Building it also forces
    // the Netlist's lazily built fanout/topo caches, so workers only read.
    const std::shared_ptr<const SimTables> tables = std::make_shared<const SimTables>(nl);

    // No fault dropping (the profile needs every test), and each worker
    // writes the disjoint chunks of its stripe in `counts`, so no
    // synchronization is needed.
    const unsigned W = effectiveWords(opts.words, tests.size());
    const unsigned threads = opts.resolveThreads(faults.size());
    if (W) {
        runStriped(
            "ndetect", faults.size(), threads, [&](const Stripe& stripe, WorkerTally& tally) {
                TransitionGrader grader(tables, W);
                std::uint64_t validw[kMaxPackedWords];
                std::uint64_t hit[TransitionGrader::kMaxGroup * kMaxPackedWords];
                const std::size_t block = 64ULL * W;
                const auto open = [](std::size_t) { return true; };
                for (std::size_t base = 0; base < tests.size(); base += block) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(block, tests.size() - base);
                    for (unsigned w = 0; w < W; ++w) validw[w] = validMaskWord(count, w);
                    grader.loadBlock(tests, base, count);
                    stripe.forEachChunk([&](std::size_t lo, std::size_t hi) {
                        for (std::size_t fi = lo; fi < hi;) {
                            const std::size_t end = netGroupEnd(faults, fi, hi, open);
                            const std::size_t n = end - fi;
                            if (grader.grade(faults.subspan(fi, n), validw, hit))
                                for (std::size_t k = 0; k < n; ++k)
                                    for (unsigned w = 0; w < W; ++w)
                                        counts[fi + k] += static_cast<std::size_t>(
                                            std::popcount(hit[k * W + w]));
                            tally.graded += n;
                            fi = end;
                        }
                    });
                }
            });
    } else {
        runStriped(
            "ndetect", faults.size(), threads, [&](const Stripe& stripe, WorkerTally& tally) {
                TransitionWorkerState ws(tables);
                for (std::size_t base = 0; base < tests.size(); base += 64) {
                    obs::ScopedSpan batch_span(
                        obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                        "fault_sim.batch");
                    ++tally.batches;
                    const std::size_t count = std::min<std::size_t>(64, tests.size() - base);
                    const std::uint64_t valid = validMask(count);
                    ws.loadBatch(tests, base, count);
                    stripe.forEachChunk([&](std::size_t lo, std::size_t hi) {
                        for (std::size_t fi = lo; fi < hi; ++fi) {
                            const std::uint64_t init_ok = ws.launchMask(faults[fi]);
                            if ((init_ok & valid) == 0) continue;
                            ++tally.graded;
                            counts[fi] += static_cast<std::size_t>(
                                std::popcount(ws.detectMask(faults[fi], init_ok, valid)));
                        }
                    });
                }
            });
    }
    return counts;
}

} // namespace flh
