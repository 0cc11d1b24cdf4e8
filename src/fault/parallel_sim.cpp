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

/// Telemetry hooks of the block driver. Counter lookups happen once per
/// process (static refs); workers accumulate locally and flush once per
/// stripe so the enabled path adds no per-fault atomics.
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
/// each chunk owns whole words of the drop sink's bitmap.
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

/// Valid-slot mask of word `w` in a block of `count` patterns.
std::uint64_t validMaskWord(std::size_t count, unsigned w) {
    const std::size_t lo = 64ULL * w;
    if (count <= lo) return 0;
    return count - lo >= 64 ? ~0ULL : ((1ULL << (count - lo)) - 1);
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

// ---- graders ---------------------------------------------------------------
//
// A grader owns its simulators and grades one block of patterns at a time:
//   kMaxGroup               most faults one grade() call takes;
//   words()                 64-bit words per block;
//   loadBlock(pats, b, n)   load patterns [b, b + n);
//   grade(group, valid, hit)  fill hit[i * words() + w] with the valid slots
//                           of word w that detect group[i], and return a bit
//                           per fault, bit i set iff group[i] is detected.
// TransitionGrader (parallel_sim.hpp) is the packed transition grader.

/// The packed stuck-at grader: one fault per excursion, its detections read
/// from the undo log at the observation points the fault cone touched.
class StuckAtGrader {
public:
    static constexpr std::size_t kMaxGroup = 1;

    StuckAtGrader(std::shared_ptr<const SimTables> tables, unsigned words)
        : sim_(std::move(tables), words) {}

    [[nodiscard]] unsigned words() const noexcept { return sim_.words(); }

    void loadBlock(std::span<const Pattern> pats, std::size_t base, std::size_t count) {
        loadPatternsPacked(sim_, count, patternsFrom(pats, base));
    }

    unsigned grade(std::span<const FaultSite> group, const std::uint64_t* valid,
                   std::uint64_t* hit) {
        sim_.injectFault(group.front());
        sim_.propagate();
        sim_.faultDiffOnto(sim_.tables()->is_obs.data(), hit);
        sim_.clearFault();
        std::uint64_t any = 0;
        for (unsigned w = 0; w < sim_.words(); ++w) any |= hit[w] &= valid[w];
        return any != 0;
    }

private:
    PatternSim sim_;
};

/// The reference stuck-at grader: blocks of one word from the slot-by-slot
/// loader, and detection by comparing the full good and faulty observation
/// snapshots.
class StuckAtReference {
public:
    static constexpr std::size_t kMaxGroup = 1;

    explicit StuckAtReference(std::shared_ptr<const SimTables> tables) : sim_(std::move(tables)) {}

    [[nodiscard]] static unsigned words() noexcept { return 1; }

    /// Load `count` patterns, pattern i = `at(i)`, and snapshot the good
    /// machine's observation points.
    template <class PatternAt>
    void load(std::size_t count, const PatternAt& at) {
        loadPatterns(sim_, count, at);
        observeInto(sim_, good_);
    }

    void loadBlock(std::span<const Pattern> pats, std::size_t base, std::size_t count) {
        load(count, patternsFrom(pats, base));
    }

    unsigned grade(std::span<const FaultSite> group, const std::uint64_t* valid,
                   std::uint64_t* hit) {
        sim_.injectFault(group.front());
        sim_.propagate();
        observeInto(sim_, faulty_);
        hit[0] = diffMask(good_, faulty_) & valid[0];
        sim_.clearFault();
        return hit[0] != 0;
    }

private:
    PatternSim sim_;
    std::vector<PV> good_;
    std::vector<PV> faulty_;
};

/// The reference transition grader: slots where V1 launches the transition
/// (initial value established at the site) AND V2 detects the equivalent
/// stuck-at fault, graded by the reference stuck-at grader over V2. One
/// fault per group: each fault gets its own stuck-at excursion.
class TransitionReference {
public:
    static constexpr std::size_t kMaxGroup = 1;

    explicit TransitionReference(const std::shared_ptr<const SimTables>& tables)
        : v1_(tables), v2_(tables) {}

    [[nodiscard]] static unsigned words() noexcept { return 1; }

    void loadBlock(std::span<const TwoPattern> tests, std::size_t base, std::size_t count) {
        loadPatterns(v1_, count, halfOf(tests, base, true));
        v2_.load(count, halfOf(tests, base, false));
    }

    unsigned grade(std::span<const TransitionFault> group, const std::uint64_t* valid,
                   std::uint64_t* hit) {
        const TransitionFault& tf = group.front();
        const PV at_site = v1_.get(tf.net);
        const std::uint64_t want_one = tf.initialValue() == Logic::One ? ~0ULL : 0;
        const std::uint64_t launched = ~(at_site.v ^ want_one) & ~at_site.x & valid[0];
        if (!launched) {
            hit[0] = 0;
            return 0;
        }
        const FaultSite sa = tf.equivalentStuckAt();
        return v2_.grade({&sa, 1}, &launched, hit);
    }

private:
    PatternSim v1_;
    StuckAtReference v2_;
};

/// The diagnosis grader: one fault's TransitionGrader excursion, read out
/// against a die's observed responses. Its hit mask holds the valid slots
/// where the V2 machine's capture (SimTables::observed) differs from the
/// observed one in value or X-ness: the faulty capture where the fault is
/// activated, the good one elsewhere.
class MismatchGrader {
public:
    static constexpr std::size_t kMaxGroup = 1;

    MismatchGrader(std::shared_ptr<const SimTables> tables, unsigned words,
                   std::span<const Response> observed)
        : tg_(std::move(tables), words), observed_(observed),
          obs_(tg_.v2().tables()->observed.size() * 2 * words) {}

    [[nodiscard]] unsigned words() const noexcept { return tg_.words(); }

    /// Load the tests and pack their observed responses: point k's value
    /// words, then its unknown words.
    void loadBlock(std::span<const TwoPattern> tests, std::size_t base, std::size_t count) {
        tg_.loadBlock(tests, base, count);
        const unsigned W = words();
        std::fill(obs_.begin(), obs_.end(), 0);
        for (std::size_t i = 0; i < count; ++i) {
            const Response& r = observed_[base + i];
            for (std::size_t k = 0; k < r.size(); ++k)
                if (r[k] != Logic::Zero)
                    obs_[k * 2 * W + (r[k] == Logic::X ? W : 0) + i / 64] |= 1ULL << (i % 64);
        }
        missOnto(tg_.v2(), good_miss_);
    }

    unsigned grade(std::span<const TransitionFault> group, const std::uint64_t* valid,
                   std::uint64_t* hit) {
        const unsigned W = words();
        if (!tg_.excite(group, valid, hit, [&](const PatternSim& v2) { missOnto(v2, hit); }))
            std::copy(good_miss_, good_miss_ + W, hit);
        std::uint64_t any = 0;
        for (unsigned w = 0; w < W; ++w) any |= hit[w] &= valid[w];
        return any != 0;
    }

private:
    /// Slots where `sim`'s capture differs from the observed one.
    void missOnto(const PatternSim& sim, std::uint64_t* m) const {
        const unsigned W = words();
        std::fill(m, m + W, 0);
        const std::vector<NetId>& observed = sim.tables()->observed;
        for (std::size_t k = 0; k < observed.size(); ++k) {
            const std::uint64_t* v = sim.valuePlane(observed[k]);
            const std::uint64_t* x = sim.unknownPlane(observed[k]);
            const std::uint64_t* ov = obs_.data() + k * 2 * W;
            const std::uint64_t* ox = ov + W;
            for (unsigned w = 0; w < W; ++w) m[w] |= (x[w] ^ ox[w]) | (~x[w] & (v[w] ^ ov[w]));
        }
    }

    TransitionGrader tg_;
    std::span<const Response> observed_;
    std::vector<std::uint64_t> obs_;
    std::uint64_t good_miss_[kMaxPackedWords] = {};
};

// ---- sinks -----------------------------------------------------------------
//
// A sink takes each graded group's verdict:
//   closed(i)                            fault i needs no more grading;
//   take(base, first, n, found, hit, W)  the verdict of faults [first,
//                                        first + n) on the block at pattern
//                                        `base`; returns how many it closed.

/// The drop sink: one detection bit per fault, shared by every worker. A
/// detected fault's bit is set and the fault closed for later blocks. Bits
/// move only 0 -> 1 and each is written under the single-fault independence
/// assumption, so relaxed ordering suffices; the final read-out happens
/// after the pool joins, which synchronizes everything.
class DropSink {
public:
    explicit DropSink(std::size_t bits) : bits_(bits), words_((bits + 63) / 64) {}

    [[nodiscard]] bool closed(std::size_t i) const noexcept {
        return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1;
    }

    /// Take the verdict of the group of `n` faults at `first`: set the bit
    /// of each fault `found` flags. Returns how many it closed.
    std::size_t take(std::size_t, std::size_t first, std::size_t n, unsigned found,
                     const std::uint64_t*, unsigned) noexcept {
        for (std::size_t k = 0; k < n; ++k)
            if ((found >> k) & 1)
                words_[(first + k) >> 6].fetch_or(1ULL << ((first + k) & 63),
                                                  std::memory_order_relaxed);
        return static_cast<std::size_t>(std::popcount(found));
    }

    /// The run's verdict, one mask bit per fault; read after the pool joins.
    [[nodiscard]] FaultSimResult result() const {
        FaultSimResult res;
        res.total = bits_;
        res.detected_mask.assign(bits_, false);
        for (std::size_t fi = 0; fi < bits_; ++fi)
            if (closed(fi)) {
                res.detected_mask[fi] = true;
                ++res.detected;
            }
        return res;
    }

private:
    std::size_t bits_;
    std::vector<std::atomic<std::uint64_t>> words_;
};

/// The n-detect sink: adds the popcount of each fault's hit masks to its
/// count and closes nothing (the profile needs every test). Each worker
/// writes the disjoint chunks of its stripe, so no synchronization is
/// needed.
struct NDetectSink {
    std::vector<std::size_t> counts;

    [[nodiscard]] static bool closed(std::size_t) noexcept { return false; }

    std::size_t take(std::size_t, std::size_t first, std::size_t n, unsigned found,
                     const std::uint64_t* hit, unsigned words) {
        if (!found) return 0;
        for (std::size_t k = 0; k < n; ++k)
            for (unsigned w = 0; w < words; ++w)
                counts[first + k] += static_cast<std::size_t>(std::popcount(hit[k * words + w]));
        return 0;
    }
};

/// The last-detector sink: per fault, the last pattern that detects it. A
/// worker walks its blocks in pattern order, so a later block's highest hit
/// slot overwrites an earlier one. Workers write disjoint chunks.
struct LastDetectorSink {
    std::vector<std::size_t> last;

    [[nodiscard]] static bool closed(std::size_t) noexcept { return false; }

    std::size_t take(std::size_t base, std::size_t first, std::size_t n, unsigned found,
                     const std::uint64_t* hit, unsigned words) {
        for (std::size_t k = 0; k < n; ++k) {
            if (!((found >> k) & 1)) continue;
            for (unsigned w = words; w-- > 0;) {
                if (const std::uint64_t h = hit[k * words + w]) {
                    last[first + k] = base + 64ULL * w + 63 - std::countl_zero(h);
                    break;
                }
            }
        }
        return 0;
    }
};

// ---- the block driver --------------------------------------------------------

/// The one grading loop. Each worker of the stripes of `faults` makes its
/// grader and, for every block of 64 x words() patterns, loads the block and
/// hands each open fault group of its stripe (forEachNetGroup) to the
/// grader and the verdict to `sink`. A fault counts as graded when handed
/// to the grader, as dropped when the sink had closed it, and as detected
/// when the sink closes it.
template <class Pat, class Fault, class MakeGrader, class Sink>
void runBlocks(const char* engine, std::span<const Pat> pats, std::span<const Fault> faults,
               unsigned threads, const MakeGrader& make_grader, Sink& sink) {
    using Grader = decltype(make_grader());
    runStriped(engine, faults.size(), threads, [&](const Stripe& stripe, WorkerTally& tally) {
        Grader grader = make_grader();
        const unsigned W = grader.words();
        const std::size_t block = 64ULL * W;
        const auto open = [&](std::size_t fi) { return !sink.closed(fi); };
        std::uint64_t valid[kMaxPackedWords];
        std::uint64_t hit[Grader::kMaxGroup * kMaxPackedWords];
        for (std::size_t base = 0; base < pats.size(); base += block) {
            obs::ScopedSpan batch_span(
                obs::enabled() ? "batch@" + std::to_string(base) : std::string(),
                "fault_sim.batch");
            ++tally.batches;
            const std::size_t count = std::min<std::size_t>(block, pats.size() - base);
            for (unsigned w = 0; w < W; ++w) valid[w] = validMaskWord(count, w);
            grader.loadBlock(pats, base, count);
            stripe.forEachChunk([&](std::size_t lo, std::size_t hi) {
                std::size_t graded = 0;
                forEachNetGroup(faults, lo, hi, Grader::kMaxGroup, open,
                                [&](std::size_t b, std::size_t e) {
                                    const unsigned found =
                                        grader.grade(faults.subspan(b, e - b), valid, hit);
                                    tally.detected +=
                                        sink.take(base, b, e - b, found, hit, W);
                                    graded += e - b;
                                });
                tally.graded += graded;
                tally.dropped += hi - lo - graded;
            });
        }
    });
}

/// Grade `faults` over `pats` into `sink` with the packed grader at the
/// run's effective width, or the reference grader at words = 0. One table
/// set serves every worker's graders; building it also forces the Netlist's
/// lazily built fanout/topo caches, so workers only read.
template <class Packed, class Reference, class Pat, class Fault, class Sink>
void gradeInto(Sink& sink, const char* engine, const Netlist& nl, std::span<const Pat> pats,
               std::span<const Fault> faults, const FaultSimOptions& opts) {
    if (pats.empty() || faults.empty()) return;
    const std::shared_ptr<const SimTables> tables = std::make_shared<const SimTables>(nl);
    const unsigned threads = opts.resolveThreads(faults.size());
    if (const unsigned W = effectiveWords(opts.words, pats.size()))
        runBlocks(engine, pats, faults, threads, [&] { return Packed(tables, W); }, sink);
    else
        runBlocks(engine, pats, faults, threads, [&] { return Reference(tables); }, sink);
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

bool TransitionGrader::activate(std::span<const TransitionFault> group,
                                const std::uint64_t* valid, std::uint64_t* ok,
                                std::uint64_t* flip) const {
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
    std::fill(flip, flip + W, 0);
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        if (group[i].net != net)
            throw std::invalid_argument("TransitionGrader::grade: faults on different nets");
        const std::uint64_t want_one = group[i].initialValue() == Logic::One ? ~0ULL : 0;
        std::uint64_t* o = ok + i * W;
        for (unsigned w = 0; w < W; ++w) {
            o[w] = ~(v1[w] ^ want_one) & (v2[w] ^ want_one) & ~x1[w] & ~x2[w] & valid[w];
            flip[w] |= o[w];
            any |= o[w];
        }
    }
    return any != 0;
}

unsigned TransitionGrader::grade(std::span<const TransitionFault> group,
                                 const std::uint64_t* valid, std::uint64_t* hit) {
    std::uint64_t diff[kMaxPackedWords];
    if (!excite(group, valid, hit, [&](const PatternSim& v2) {
            v2.faultDiffOnto(v2.tables()->is_obs.data(), diff);
        }))
        return 0;
    const unsigned W = v2_.words();
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

FaultSimResult runStuckAtFaultSim(const Netlist& nl, std::span<const Pattern> pats,
                                  std::span<const FaultSite> faults,
                                  const FaultSimOptions& opts) {
    checkShapes(nl, pats, "runStuckAtFaultSim");
    DropSink sink(faults.size());
    gradeInto<StuckAtGrader, StuckAtReference>(sink, "stuck_at", nl, pats, faults, opts);
    return sink.result();
}

FaultSimResult runTransitionFaultSim(const Netlist& nl, std::span<const TwoPattern> tests,
                                     std::span<const TransitionFault> faults,
                                     const FaultSimOptions& opts) {
    checkShapes(nl, tests, "runTransitionFaultSim");
    DropSink sink(faults.size());
    gradeInto<TransitionGrader, TransitionReference>(sink, "transition", nl, tests, faults, opts);
    return sink.result();
}

std::vector<std::size_t> countTransitionDetections(const Netlist& nl,
                                                   std::span<const TwoPattern> tests,
                                                   std::span<const TransitionFault> faults,
                                                   const FaultSimOptions& opts) {
    checkShapes(nl, tests, "countTransitionDetections");
    NDetectSink sink{std::vector<std::size_t>(faults.size(), 0)};
    gradeInto<TransitionGrader, TransitionReference>(sink, "ndetect", nl, tests, faults, opts);
    return std::move(sink.counts);
}

std::vector<std::size_t> lastDetectingPatterns(const Netlist& nl, std::span<const Pattern> pats,
                                               std::span<const FaultSite> faults,
                                               const FaultSimOptions& opts) {
    checkShapes(nl, pats, "lastDetectingPatterns");
    LastDetectorSink sink{std::vector<std::size_t>(faults.size(), kNoPattern)};
    gradeInto<StuckAtGrader, StuckAtReference>(sink, "last_detector", nl, pats, faults, opts);
    return std::move(sink.last);
}

std::vector<std::size_t> lastDetectingPatterns(const Netlist& nl,
                                               std::span<const TwoPattern> tests,
                                               std::span<const TransitionFault> faults,
                                               const FaultSimOptions& opts) {
    checkShapes(nl, tests, "lastDetectingPatterns");
    LastDetectorSink sink{std::vector<std::size_t>(faults.size(), kNoPattern)};
    gradeInto<TransitionGrader, TransitionReference>(sink, "last_detector", nl, tests, faults,
                                                     opts);
    return std::move(sink.last);
}

std::vector<std::size_t> countMismatchingTests(const Netlist& nl,
                                               std::span<const TwoPattern> tests,
                                               std::span<const Response> observed,
                                               std::span<const TransitionFault> faults,
                                               const FaultSimOptions& opts) {
    if (observed.size() != tests.size())
        throw std::invalid_argument("countMismatchingTests: " + std::to_string(observed.size()) +
                                    " observed responses for " +
                                    std::to_string(tests.size()) + " tests");
    const std::size_t width = nl.pos().size() + nl.flipFlops().size();
    for (std::size_t t = 0; t < observed.size(); ++t)
        if (observed[t].size() != width)
            throw std::invalid_argument("countMismatchingTests: response " + std::to_string(t) +
                                        " has " + std::to_string(observed[t].size()) +
                                        " values, " + nl.name() + " captures " +
                                        std::to_string(width));
    checkShapes(nl, tests, "countMismatchingTests");
    NDetectSink sink{std::vector<std::size_t>(faults.size(), 0)};
    if (tests.empty() || faults.empty()) return std::move(sink.counts);
    const auto tables = std::make_shared<const SimTables>(nl);
    const unsigned W = effectiveWords(std::max(opts.words, 1U), tests.size());
    runBlocks("diagnosis", tests, faults, opts.resolveThreads(faults.size()),
              [&] { return MismatchGrader(tables, W, observed); }, sink);
    return std::move(sink.counts);
}

std::vector<Response> transitionResponses(const Netlist& nl, std::span<const TwoPattern> tests,
                                          const TransitionFault* slow) {
    std::vector<Response> out(tests.size());
    if (tests.empty()) return out;
    const unsigned W = effectiveWords(FaultSimOptions{}.words, tests.size());
    TransitionGrader grader(std::make_shared<const SimTables>(nl), W);
    const std::vector<NetId>& observed = grader.v2().tables()->observed;
    std::uint64_t valid[kMaxPackedWords];
    std::uint64_t ok[kMaxPackedWords];
    for (std::size_t base = 0; base < tests.size(); base += 64ULL * W) {
        const std::size_t count = std::min<std::size_t>(64ULL * W, tests.size() - base);
        for (unsigned w = 0; w < W; ++w) valid[w] = validMaskWord(count, w);
        grader.loadBlock(tests, base, count);
        const auto read = [&](const PatternSim& v2) {
            for (std::size_t i = 0; i < count; ++i) {
                Response& r = out[base + i];
                r.resize(observed.size());
                for (std::size_t k = 0; k < observed.size(); ++k)
                    r[k] = v2.get(observed[k], static_cast<unsigned>(i / 64),
                                  static_cast<unsigned>(i % 64));
            }
        };
        if (!slow || !grader.excite({slow, 1}, valid, ok, read)) read(grader.v2());
    }
    return out;
}

} // namespace flh
