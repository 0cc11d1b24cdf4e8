#include "atpg/transition_atpg.hpp"

#include "fault/parallel_sim.hpp"
#include "obs/telemetry.hpp"
#include "util/exec_policy.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

namespace flh {

namespace {

Pattern randomPattern(const Netlist& nl, Rng& rng) {
    Pattern p;
    p.pis.assign(nl.pis().size(), Logic::X);
    p.state.assign(nl.flipFlops().size(), Logic::X);
    fillRandom(p, rng);
    return p;
}

std::vector<Logic> randomBits(std::size_t n, Rng& rng) {
    std::vector<Logic> v(n);
    for (Logic& b : v) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
    return v;
}

/// Random two-pattern test respecting the style's structural constraint.
TwoPattern randomPair(const Netlist& nl, TestApplication style, Rng& rng) {
    const Pattern v1 = randomPattern(nl, rng);
    switch (style) {
        case TestApplication::EnhancedScan: {
            TwoPattern tp;
            tp.v1 = v1;
            tp.v2 = randomPattern(nl, rng);
            return tp;
        }
        case TestApplication::Broadside:
        case TestApplication::SkewedLoad:
            return makePair(nl, style, v1, randomBits(nl.pis().size(), rng),
                            rng.chance(0.5) ? Logic::One : Logic::Zero);
    }
    return {};
}

/// At most one top-off worker per this many open faults. The floor is for
/// memory, not time: a worker costs a thread, a Podem and, under glibc, a
/// malloc arena that stays resident, while a top-off this small finishes in
/// milliseconds serially.
constexpr std::size_t kMinTopOffFaultsPerWorker = 256;

/// Parallel top-off look-ahead, in faults per worker past the last commit.
/// An aborting fault costs many typical successes, so a narrow window
/// lets one abort idle the pool; a wider one costs only discarded work
/// (faults an earlier commit detects) and pending Prepared patterns. On
/// s5378 (64 random pairs, 4 threads) 8 against 2 cut the generation from
/// about 810 to 535-645 ms, with about 20 preparations discarded instead
/// of 4; wider windows measured the same within noise (DESIGN.md §7).
constexpr std::size_t kTopOffWindowPerWorker = 8;

/// The fill-independent part of one fault's top-off: PODEM's V2 and, for
/// enhanced scan and broadside, V1's justification. A pure function of the
/// fault, so any worker's Podem may compute it.
struct Prepared {
    PodemOutcome v2_out = PodemOutcome::Aborted;
    Pattern v2;
    /// The V1 justification's verdict; Success when there is none.
    PodemOutcome v1_out = PodemOutcome::Success;
    Pattern v1_base;
};

/// Deterministic top-off over the faults the random phase left undetected.
/// prepare() may run on any thread; commit() — every counter, every random
/// fill, skewed load's per-attempt justification and the grading — runs on
/// the calling thread in fault order, so the outcome does not depend on the
/// thread count.
class TopOff {
public:
    TopOff(const Netlist& nl, TestApplication style, std::span<const TransitionFault> faults,
           const TransitionAtpgConfig& cfg, TransitionAtpgResult& res, Rng& rng)
        : nl_(nl), style_(style), faults_(faults), cfg_(cfg), res_(res), rng_(rng),
          tables_(std::make_shared<const SimTables>(nl)), podem_(tables_, cfg.podem),
          grader_(tables_, 1) {
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (res.coverage.detected_mask[fi]) continue;
            open_idx_.push_back(fi);
            open_faults_.push_back(faults[fi]);
        }
    }

    void run();

private:
    [[nodiscard]] Prepared prepare(Podem& podem, std::size_t fi) const;
    void commit(std::size_t fi, const Prepared& p);
    bool tryAddTest(std::size_t fi, const TwoPattern& tp);

    const Netlist& nl_;
    TestApplication style_;
    std::span<const TransitionFault> faults_;
    const TransitionAtpgConfig& cfg_;
    TransitionAtpgResult& res_;
    Rng& rng_;
    /// Simulator tables shared by every Podem and the grader.
    std::shared_ptr<const SimTables> tables_;
    Podem podem_; ///< the calling thread's: its prepares, skewed-load commit
    TransitionGrader grader_; ///< one-test grading, one word, calling thread only
    /// Still-undetected faults, ascending: what one-test grading covers.
    std::vector<std::size_t> open_idx_;
    std::vector<TransitionFault> open_faults_;
    std::vector<std::uint8_t> hit_; ///< tryAddTest scratch: per open fault, detected
    /// Guards res_.coverage.detected_mask writes (commit) against the
    /// workers' claim-time reads.
    std::mutex mu_;
};

Prepared TopOff::prepare(Podem& podem, std::size_t fi) const {
    Prepared p;
    const TransitionFault& tf = faults_[fi];
    // V2: detect the equivalent stuck-at fault.
    podem.clearFrozen();
    p.v2_out = podem.generate(tf.equivalentStuckAt(), p.v2);
    // Enhanced-scan and broadside V1 searches do not depend on the random
    // fill, so each runs once and every attempt re-fills a copy; a failure
    // would repeat on every retry. Skewed load re-justifies per attempt at
    // commit: its frozen state comes from the filled V2.
    if (p.v2_out != PodemOutcome::Success || style_ == TestApplication::SkewedLoad ||
        cfg_.justify_retries <= 0)
        return p;
    podem.clearFrozen();
    if (style_ == TestApplication::EnhancedScan) {
        // V1: independently justify the initial value at the site.
        p.v1_out = podem.justify(tf.net, tf.initialValue(), p.v1_base);
        return p;
    }
    // V1 must drive the circuit into V2's required state: justify every
    // specified bit of V2.state at the FF D inputs — the sequential
    // justification that makes broadside coverage poor.
    const auto& ffs = nl_.flipFlops();
    std::vector<std::pair<NetId, Logic>> objectives;
    for (std::size_t i = 0; i < ffs.size(); ++i) {
        if (p.v2.state[i] == Logic::X) continue;
        objectives.push_back({nl_.gate(ffs[i]).inputs[0], p.v2.state[i]});
    }
    // The initial value at the site must hold in V1 as well.
    objectives.push_back({tf.net, tf.initialValue()});
    p.v1_out = podem.justifyAll(objectives, p.v1_base);
    return p;
}

void TopOff::commit(std::size_t fi, const Prepared& p) {
    if (p.v2_out == PodemOutcome::Untestable) {
        ++res_.untestable;
        return;
    }
    if (p.v2_out == PodemOutcome::Aborted) {
        ++res_.aborted;
        return;
    }
    if (p.v1_out != PodemOutcome::Success) {
        if (style_ == TestApplication::EnhancedScan)
            ++(p.v1_out == PodemOutcome::Untestable ? res_.v1_untestable : res_.v1_aborted);
        else // broadside: one failure per attempt, as if each had re-run it
            res_.justify_failures += static_cast<std::size_t>(cfg_.justify_retries);
        return;
    }

    const TransitionFault& tf = faults_[fi];
    const auto& ffs = nl_.flipFlops();
    bool added = false;
    for (int attempt = 0; attempt < cfg_.justify_retries && !added; ++attempt) {
        switch (style_) {
            case TestApplication::EnhancedScan: {
                TwoPattern tp;
                tp.v1 = p.v1_base;
                fillRandom(tp.v1, rng_);
                tp.v2 = p.v2;
                fillRandom(tp.v2, rng_);
                added = tryAddTest(fi, tp);
                break;
            }
            case TestApplication::SkewedLoad: {
                // V1's state is V2's state shifted back by one position;
                // only the PIs and the scan-out-end bit remain free.
                Pattern v2f = p.v2;
                fillRandom(v2f, rng_);
                podem_.clearFrozen();
                for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
                    podem_.freeze(nl_.gate(ffs[i + 1]).output, v2f.state[i]);
                Pattern v1;
                if (podem_.justify(tf.net, tf.initialValue(), v1) != PodemOutcome::Success) {
                    ++res_.justify_failures;
                    break;
                }
                fillRandom(v1, rng_);
                // Re-derive V2's state from the (filled) V1 so the pair is
                // structurally exact, keeping V2's required PIs.
                TwoPattern tp = makePair(nl_, style_, v1, v2f.pis,
                                         v2f.state.empty() ? Logic::Zero : v2f.state.back());
                added = tryAddTest(fi, tp);
                break;
            }
            case TestApplication::Broadside: {
                Pattern v1 = p.v1_base;
                fillRandom(v1, rng_);
                TwoPattern tp = makePair(nl_, style_, v1, [&] {
                    Pattern v2f = p.v2;
                    fillRandom(v2f, rng_);
                    return v2f.pis;
                }());
                added = tryAddTest(fi, tp);
                break;
            }
        }
    }
}

bool TopOff::tryAddTest(std::size_t fi, const TwoPattern& tp) {
    // Already-detected faults cannot change detected_mask, so grading
    // covers only the open ones. `fi` is open: commit runs only for those.
    // Slot 0 of the grader's one word holds the test.
    grader_.loadBlock({&tp, 1}, 0, 1);
    const std::uint64_t valid = 1;
    std::uint64_t hit[TransitionGrader::kMaxGroup];
    // A test that misses its target is rejected before the others are graded.
    if (!grader_.grade({&faults_[fi], 1}, &valid, hit)) return false;
    // Adjacent open faults on one net share a grading call; a fault list
    // that keeps a net's two polarities together (allTransitionFaults
    // does) keeps them adjacent here, since the open list is ascending.
    const std::span<const TransitionFault> open(open_faults_);
    hit_.resize(open.size());
    forEachNetGroup(open, 0, open.size(), TransitionGrader::kMaxGroup,
                    [](std::size_t) { return true; }, [&](std::size_t b, std::size_t e) {
                        const unsigned found = grader_.grade(open.subspan(b, e - b), &valid, hit);
                        for (std::size_t k = b; k < e; ++k) hit_[k] = (found >> (k - b)) & 1;
                    });
    std::size_t kept = 0;
    {
        const std::lock_guard lock(mu_);
        for (std::size_t j = 0; j < open_idx_.size(); ++j) {
            if (hit_[j]) {
                res_.coverage.detected_mask[open_idx_[j]] = true;
                ++res_.coverage.detected;
            } else {
                open_idx_[kept] = open_idx_[j];
                open_faults_[kept] = open_faults_[j];
                ++kept;
            }
        }
    }
    open_idx_.resize(kept);
    open_faults_.resize(kept);
    res_.tests.push_back(tp);
    ++res_.generated;
    return true;
}

void TopOff::run() {
    // Workers prepare faults speculatively, at most `window` past the last
    // commit; the calling thread commits them in fault order and discards
    // one that an earlier commit's test has since detected — exactly the
    // fault a one-at-a-time walk would have skipped. While the next fault
    // in order is not ready, the calling thread prepares too, so it spawns
    // one worker fewer than `workers` (none for one). The open list shrinks
    // as tests are added; walk a snapshot.
    const std::vector<std::size_t> order = open_idx_;
    const unsigned workers =
        ExecPolicy{cfg_.threads, kMinTopOffFaultsPerWorker}.resolveThreads(order.size());
    const std::size_t n = order.size();
    const std::size_t window = kTopOffWindowPerWorker * workers;
    enum class Slot : std::uint8_t { Pending, Ready, Skipped };
    // All guarded by mu_.
    std::vector<Slot> slot(n, Slot::Pending);
    std::vector<Prepared> prepared(n);
    std::size_t next_claim = 0;
    std::size_t next_commit = 0;
    bool stop = false;
    std::vector<std::exception_ptr> errors(workers);
    std::condition_variable claim_cv;  // workers: a claim became possible
    std::condition_variable commit_cv; // caller: a slot became Ready/Skipped

    // Claims the next fault if the window allows and prepares it unless an
    // earlier commit already detected it. Call with `lock` held.
    const auto claimOne = [&](std::unique_lock<std::mutex>& lock, Podem& podem) -> bool {
        if (next_claim >= n || next_claim >= next_commit + window) return false;
        const std::size_t k = next_claim++;
        if (res_.coverage.detected_mask[order[k]]) {
            slot[k] = Slot::Skipped;
        } else {
            lock.unlock();
            Prepared p = prepare(podem, order[k]);
            lock.lock();
            prepared[k] = std::move(p);
            slot[k] = Slot::Ready;
        }
        return true;
    };
    const auto worker = [&](unsigned w) {
        try {
            if (obs::enabled()) obs::setThreadLabel("atpg-worker-" + std::to_string(w));
            obs::ScopedSpan span(obs::enabled() ? "atpg:topoff:worker[" + std::to_string(w) + "]"
                                                : std::string(),
                                 "atpg");
            Podem podem(tables_, cfg_.podem);
            std::unique_lock lock(mu_);
            for (;;) {
                claim_cv.wait(lock, [&] {
                    return stop || next_claim >= n || next_claim < next_commit + window;
                });
                if (stop || next_claim >= n) return;
                claimOne(lock, podem);
                commit_cv.notify_one();
            }
        } catch (...) {
            const std::lock_guard lock(mu_);
            errors[w] = std::current_exception();
            stop = true;
            claim_cv.notify_all();
            commit_cv.notify_one();
        }
    };

    // The Netlist builds its derived data lazily; force it before the
    // workers only read it.
    (void)nl_.levels();
    if (nl_.netCount()) (void)nl_.fanout(0);
    std::vector<std::thread> pool;
    const auto halt = [&] {
        {
            const std::lock_guard lock(mu_);
            stop = true;
        }
        claim_cv.notify_all();
        for (std::thread& t : pool) t.join();
    };

    std::size_t discarded = 0;
    try {
        pool.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w) pool.emplace_back(worker, w);
        for (std::size_t k = 0; k < n; ++k) {
            Prepared p;
            bool skipped = false;
            {
                std::unique_lock lock(mu_);
                // The calling thread is worker 0 while it waits for slot k.
                while (!stop && slot[k] == Slot::Pending)
                    if (!claimOne(lock, podem_)) commit_cv.wait(lock);
                if (stop) break; // a worker failed; its error is rethrown below
                skipped = slot[k] == Slot::Skipped;
                if (!skipped) p = std::move(prepared[k]);
            }
            // Only this thread writes detected_mask, so it reads it unlocked.
            if (!skipped) {
                if (res_.coverage.detected_mask[order[k]])
                    ++discarded;
                else
                    commit(order[k], p);
            }
            {
                const std::lock_guard lock(mu_);
                next_commit = k + 1;
            }
            claim_cv.notify_all();
        }
    } catch (...) {
        halt();
        throw;
    }
    halt();
    static obs::Counter& c_discarded = obs::counter("atpg.topoff_discarded");
    c_discarded.add(discarded);
    for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
}

} // namespace

TransitionAtpgResult generateTransitionTests(const Netlist& nl, TestApplication style,
                                             std::span<const TransitionFault> faults,
                                             const TransitionAtpgConfig& cfg) {
    obs::ScopedSpan span(obs::enabled() ? std::string("atpg:transition:") + toString(style)
                                        : std::string(),
                         "atpg");
    TransitionAtpgResult res;
    res.style = style;
    Rng rng(cfg.seed);

    // Phase 1: random pairs with fault dropping.
    {
        obs::ScopedSpan phase_span("atpg:transition:random", "atpg");
        for (int i = 0; i < cfg.random_pairs; ++i)
            res.tests.push_back(randomPair(nl, style, rng));
        res.coverage = runTransitionFaultSim(nl, res.tests, faults);
    }

    // Phase 2: deterministic top-off.
    {
        obs::ScopedSpan topoff_span("atpg:transition:topoff", "atpg");
        TopOff(nl, style, faults, cfg, res, rng).run();
    }
    static obs::Counter& c_generated = obs::counter("atpg.generated");
    static obs::Counter& c_aborted = obs::counter("atpg.aborted");
    static obs::Counter& c_untestable = obs::counter("atpg.untestable");
    static obs::Counter& c_v1_aborted = obs::counter("atpg.v1_aborted");
    static obs::Counter& c_v1_untestable = obs::counter("atpg.v1_untestable");
    c_generated.add(res.generated);
    c_aborted.add(res.aborted);
    c_untestable.add(res.untestable);
    c_v1_aborted.add(res.v1_aborted);
    c_v1_untestable.add(res.v1_untestable);
    return res;
}

} // namespace flh
