#include "verify/fuzz.hpp"

#include "atpg/podem.hpp"
#include "dft/scan.hpp"
#include "fault/parallel_sim.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"
#include "verify/corpus.hpp"
#include "verify/shrink.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

namespace flh {

namespace {

constexpr std::uint64_t kPairSeedMix = 0xD1B54A32D192ED03ULL;
constexpr std::uint64_t kEngineSeedMix = 0x8CB92BA72F3D8DD7ULL;

/// The podem-verdict check enumerates every source assignment, so it runs
/// only on circuits with at most this many sources (PIs + flip-flops).
constexpr std::size_t kMaxVerdictSources = 16;

/// Naive scalar reference evaluation: one pattern, gate by gate in topo
/// order through evalCellScalar. Shares nothing with the event-driven
/// engine beyond the cell truth tables.
std::vector<Logic> refEval(const Netlist& nl, const Pattern& p) {
    std::vector<Logic> val(nl.netCount(), Logic::X);
    for (std::size_t k = 0; k < p.pis.size(); ++k) val[nl.pis()[k]] = p.pis[k];
    for (std::size_t k = 0; k < p.state.size(); ++k)
        val[nl.gate(nl.flipFlops()[k]).output] = p.state[k];
    std::vector<Logic> ins;
    for (const GateId g : nl.topoOrder()) {
        const Gate& gate = nl.gate(g);
        ins.clear();
        for (const NetId in : gate.inputs) ins.push_back(val[in]);
        val[gate.output] = evalCellScalar(gate.fn, ins);
    }
    return val;
}

/// The event-driven engine vs the scalar reference, at one word and at
/// every requested word width. An all-X pattern goes first so the widest
/// Kleene case is always present, the list is padded by repeating the last
/// pattern (as the fault-sim loaders do), and the padded tail slot of the
/// last word is checked too.
bool perNetMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                    const FuzzOptions& opts, std::string* detail) {
    if (pairs.empty()) return false;
    std::vector<Pattern> pats;
    pats.reserve(pairs.size() + 1);
    pats.push_back(pairs[0].v1);
    for (Logic& b : pats[0].pis) b = Logic::X;
    for (Logic& b : pats[0].state) b = Logic::X;
    for (const TwoPattern& tp : pairs) pats.push_back(tp.v1);
    std::vector<std::vector<Logic>> refs;
    refs.reserve(pats.size());
    for (const Pattern& p : pats) refs.push_back(refEval(nl, p));

    std::vector<unsigned> widths{1};
    for (const unsigned W : opts.word_widths)
        if (W > 1 && W <= kMaxPackedWords) widths.push_back(W);
    for (const unsigned W : widths) {
        PatternSim sim(nl, W);
        const auto loadSource = [&](NetId net, auto&& bit) {
            for (unsigned w = 0; w < W; ++w) {
                PV v;
                for (unsigned slot = 0; slot < 64; ++slot) {
                    const std::size_t i = std::min<std::size_t>(64ULL * w + slot, pats.size() - 1);
                    v.set(slot, bit(pats[i]));
                }
                sim.setNet(net, w, v);
            }
        };
        for (std::size_t k = 0; k < nl.pis().size(); ++k)
            loadSource(nl.pis()[k], [k](const Pattern& p) { return p.pis[k]; });
        for (std::size_t k = 0; k < nl.flipFlops().size(); ++k)
            loadSource(nl.gate(nl.flipFlops()[k]).output,
                       [k](const Pattern& p) { return p.state[k]; });
        sim.evalAll();

        const auto mismatchAt = [&](std::size_t pat, unsigned w, unsigned slot) {
            for (NetId net = 0; net < nl.netCount(); ++net) {
                if (sim.get(net, w, slot) == refs[pat][net]) continue;
                if (detail) {
                    std::ostringstream os;
                    os << "words=" << W << " net " << nl.net(net).name << " word " << w
                       << " slot " << slot << ": reference " << toChar(refs[pat][net])
                       << ", PatternSim " << toChar(sim.get(net, w, slot));
                    *detail = os.str();
                }
                return true;
            }
            return false;
        };
        for (std::size_t i = 0; i < pats.size() && i < 64ULL * W; ++i)
            if (mismatchAt(i, static_cast<unsigned>(i / 64), static_cast<unsigned>(i % 64)))
                return true;
        if (mismatchAt(pats.size() - 1, W - 1, 63)) return true; // padded tail
    }
    return false;
}

bool seqCaptureMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                        std::string* detail) {
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        const Pattern& p = pairs[pi].v1;
        SequentialSim seq(nl, HoldStyle::None);
        std::vector<PV> st(p.state.size());
        for (std::size_t k = 0; k < st.size(); ++k) st[k] = PV::all(p.state[k]);
        seq.setState(st);
        std::vector<PV> pis(p.pis.size());
        for (std::size_t k = 0; k < pis.size(); ++k) pis[k] = PV::all(p.pis[k]);
        seq.setPis(pis);
        seq.settle();
        seq.clock();
        const std::vector<Logic> oracle = nextState(nl, p);
        for (std::size_t k = 0; k < oracle.size(); ++k) {
            if (seq.state()[k].get(0) == oracle[k]) continue;
            if (detail) {
                std::ostringstream os;
                os << "pair " << pi << " FF " << k << ": nextState " << toChar(oracle[k])
                   << ", SequentialSim::clock " << toChar(seq.state()[k].get(0));
                *detail = os.str();
            }
            return true;
        }
    }
    return false;
}

bool masksDiffer(const std::vector<bool>& a, const std::vector<bool>& b, std::size_t* where) {
    if (a.size() != b.size()) {
        if (where) *where = 0;
        return true;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) {
            if (where) *where = i;
            return true;
        }
    }
    return false;
}

/// Output faults on a PI and a PO net are engine edge cases (fault at the
/// very source / sink of the cone); the capped collapsed list can drop
/// them, so they are always re-appended.
void addBoundaryStuckSites(const Netlist& nl, std::vector<FaultSite>& f) {
    const auto addNetFault = [&](NetId net) {
        for (const bool sa1 : {false, true}) {
            FaultSite s;
            s.net = net;
            s.stuck_at_one = sa1;
            if (std::find(f.begin(), f.end(), s) == f.end()) f.push_back(s);
        }
    };
    if (!nl.pis().empty()) addNetFault(nl.pis().front());
    if (!nl.pos().empty()) addNetFault(nl.pos().front());
}

void addBoundaryTransitionSites(const Netlist& nl, std::vector<TransitionFault>& f) {
    const auto addNetFault = [&](NetId net) {
        for (const Transition k : {Transition::SlowToRise, Transition::SlowToFall}) {
            const TransitionFault tf{net, k};
            if (std::find(f.begin(), f.end(), tf) == f.end()) f.push_back(tf);
        }
    };
    if (!nl.pis().empty()) addNetFault(nl.pis().front());
    if (!nl.pos().empty()) addNetFault(nl.pos().front());
}

std::vector<FaultSite> stuckFaults(const Netlist& nl, std::size_t cap) {
    std::vector<FaultSite> f = collapsedStuckAtFaults(nl);
    if (f.size() > cap) f.resize(cap);
    addBoundaryStuckSites(nl, f);
    return f;
}

std::vector<TransitionFault> transitionFaults(const Netlist& nl, std::size_t cap) {
    std::vector<TransitionFault> f = allTransitionFaults(nl);
    if (f.size() > cap) f.resize(cap);
    addBoundaryTransitionSites(nl, f);
    return f;
}

FaultSimOptions poolOptions(unsigned threads, unsigned words) {
    FaultSimOptions o;
    o.threads = threads;
    o.min_faults_per_worker = 1; // force a real pool even on tiny fault lists
    o.words = words;
    return o;
}

/// The single-threaded reference grader (words = 0) every other
/// configuration must match bit for bit.
FaultSimOptions referenceGrader() { return poolOptions(1, 0); }

/// words = 0 first (thread determinism of the oracle itself), then every
/// requested packed width.
std::vector<unsigned> widthsUnderTest(const FuzzOptions& opts) {
    std::vector<unsigned> ws{0};
    for (const unsigned w : opts.word_widths)
        if (w >= 1 && w <= kMaxPackedWords) ws.push_back(w);
    return ws;
}

bool stuckBitmapMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                         const FuzzOptions& opts, std::string* detail) {
    std::vector<Pattern> pats;
    pats.reserve(pairs.size());
    for (const TwoPattern& tp : pairs) pats.push_back(tp.v1);
    const std::vector<FaultSite> faults = stuckFaults(nl, opts.max_faults);
    const FaultSimResult serial = runStuckAtFaultSim(nl, pats, faults, referenceGrader());
    for (const unsigned t : opts.thread_counts) {
        for (const unsigned w : widthsUnderTest(opts)) {
            const FaultSimResult par = runStuckAtFaultSim(nl, pats, faults, poolOptions(t, w));
            std::size_t where = 0;
            if (masksDiffer(serial.detected_mask, par.detected_mask, &where)) {
                if (detail) {
                    std::ostringstream os;
                    os << "threads=" << t << " words=" << w << " fault "
                       << toString(nl, faults[where]) << ": reference serial "
                       << serial.detected_mask[where] << ", engine "
                       << par.detected_mask[where];
                    *detail = os.str();
                }
                return true;
            }
        }
    }
    return false;
}

bool transitionBitmapMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                              const FuzzOptions& opts, std::string* detail) {
    const std::vector<TransitionFault> faults = transitionFaults(nl, opts.max_faults);
    const FaultSimResult serial = runTransitionFaultSim(nl, pairs, faults, referenceGrader());
    for (const unsigned t : opts.thread_counts) {
        for (const unsigned w : widthsUnderTest(opts)) {
            const FaultSimResult par = runTransitionFaultSim(nl, pairs, faults, poolOptions(t, w));
            std::size_t where = 0;
            if (masksDiffer(serial.detected_mask, par.detected_mask, &where)) {
                if (detail) {
                    std::ostringstream os;
                    os << "threads=" << t << " words=" << w << " fault "
                       << toString(nl, faults[where]) << ": reference serial "
                       << serial.detected_mask[where] << ", engine "
                       << par.detected_mask[where];
                    *detail = os.str();
                }
                return true;
            }
        }
    }
    return false;
}

bool nDetectMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                     const FuzzOptions& opts, std::string* detail) {
    const std::vector<TransitionFault> faults = transitionFaults(nl, opts.max_faults);
    const std::vector<std::size_t> serial =
        countTransitionDetections(nl, pairs, faults, referenceGrader());
    for (const unsigned t : opts.thread_counts) {
        for (const unsigned w : widthsUnderTest(opts)) {
            const std::vector<std::size_t> par =
                countTransitionDetections(nl, pairs, faults, poolOptions(t, w));
            for (std::size_t i = 0; i < serial.size(); ++i) {
                if (par.size() == serial.size() && par[i] == serial[i]) continue;
                if (detail) {
                    std::ostringstream os;
                    os << "threads=" << t << " words=" << w << " fault "
                       << toString(nl, faults[i]) << ": reference serial " << serial[i]
                       << " detections, engine "
                       << (i < par.size() ? std::to_string(par[i]) : std::string("<missing>"));
                    *detail = os.str();
                }
                return true;
            }
        }
    }
    return false;
}

/// Source assignments m in [lo, hi): PI k takes bit k of m, flip-flop k
/// takes bit (number of PIs + k).
std::vector<Pattern> enumeratedPatterns(const Netlist& nl, std::uint64_t lo, std::uint64_t hi) {
    const std::size_t n_pis = nl.pis().size();
    const std::size_t n_ffs = nl.flipFlops().size();
    std::vector<Pattern> pats(hi - lo);
    for (std::uint64_t m = lo; m < hi; ++m) {
        Pattern& p = pats[m - lo];
        p.pis.resize(n_pis);
        p.state.resize(n_ffs);
        for (std::size_t k = 0; k < n_pis + n_ffs; ++k) {
            const Logic b = ((m >> k) & 1) ? Logic::One : Logic::Zero;
            (k < n_pis ? p.pis[k] : p.state[k - n_pis]) = b;
        }
    }
    return pats;
}

/// PODEM's verdicts against simulation, on circuits whose sources can be
/// enumerated: every "Success" pattern of `generate` must detect its fault
/// under the reference grader (words = 0), exactly as returned (its X
/// bits included); no "Untestable" fault may be detected by any source
/// assignment; and every successful `justify` pattern must produce its
/// target value under the naive reference evaluator. Aborted calls prove
/// nothing either way; they are counted into `*aborts`.
bool podemVerdictMismatch(const Netlist& nl, const FuzzOptions& opts, std::size_t* aborts,
                          std::string* detail) {
    *aborts = 0;
    const std::size_t n_src = nl.pis().size() + nl.flipFlops().size();
    if (n_src > kMaxVerdictSources) return false;
    const auto fail = [&](const std::string& what) {
        if (detail) *detail = what;
        return true;
    };

    Podem podem(nl);
    std::vector<FaultSite> untestable;
    for (const FaultSite& f : stuckFaults(nl, opts.max_faults)) {
        Pattern p;
        const PodemOutcome out = podem.generate(f, p);
        if (out == PodemOutcome::Aborted) ++*aborts;
        if (out == PodemOutcome::Untestable) untestable.push_back(f);
        if (out != PodemOutcome::Success) continue;
        const Pattern one[1] = {p};
        const FaultSite site[1] = {f};
        if (runStuckAtFaultSim(nl, one, site, referenceGrader()).detected != 1)
            return fail("generate " + toString(nl, f) + ": the Success pattern misses the fault");
    }
    // 4096 assignments per grading call bound the pattern memory.
    const std::uint64_t n_assign = std::uint64_t{1} << n_src;
    for (std::uint64_t lo = 0; lo < n_assign && !untestable.empty(); lo += 4096) {
        const std::vector<Pattern> pats =
            enumeratedPatterns(nl, lo, std::min<std::uint64_t>(lo + 4096, n_assign));
        const FaultSimResult r = runStuckAtFaultSim(nl, pats, untestable, FaultSimOptions{});
        for (std::size_t i = 0; i < untestable.size(); ++i)
            if (r.detected_mask[i])
                return fail("generate " + toString(nl, untestable[i]) +
                            ": Untestable, but a source assignment detects it");
    }

    for (NetId net = 0; net < nl.netCount(); ++net) {
        for (const Logic v : {Logic::Zero, Logic::One}) {
            Pattern p;
            const PodemOutcome out = podem.justify(net, v, p);
            if (out == PodemOutcome::Aborted) ++*aborts;
            if (out != PodemOutcome::Success) continue;
            const Logic got = refEval(nl, p)[net];
            if (got != v) {
                std::ostringstream os;
                os << "justify " << nl.net(net).name << " = " << toChar(v)
                   << ": the Success pattern gives " << toChar(got);
                return fail(os.str());
            }
        }
    }
    return false;
}

/// Inject some X bits so Kleene propagation is fuzzed too (the fault-sim
/// checks keep the fully-specified list; X-detection semantics are theirs
/// to define, value agreement is not).
std::vector<TwoPattern> withXBits(std::vector<TwoPattern> pairs, std::uint64_t seed) {
    Rng rng(seed);
    for (TwoPattern& tp : pairs)
        for (Pattern* p : {&tp.v1, &tp.v2}) {
            for (Logic& b : p->pis)
                if (rng.chance(0.12)) b = Logic::X;
            for (Logic& b : p->state)
                if (rng.chance(0.12)) b = Logic::X;
        }
    return pairs;
}

struct CheckDef {
    const char* name;
    FailurePredicate fails;
    const std::vector<TwoPattern>* pairs;
};

} // namespace

CircuitSpec fuzzSpec(std::uint64_t seed) {
    Rng rng(seed ^ 0xF022);
    CircuitSpec s;
    s.name = "fuzz" + std::to_string(seed);
    s.n_pis = rng.range(3, 8);
    s.n_pos = rng.range(2, 4);
    s.n_ffs = rng.range(3, 10);
    s.depth = rng.range(4, 11);
    s.n_comb_gates = rng.range(30, 110);
    s.ff_fanout_avg = 1.5 + rng.uniform() * 2.0;
    s.unique_ratio = 1.0 + rng.uniform() * std::min(2.0, s.ff_fanout_avg - 1.0);
    s.seed = rng.next();
    // The generator needs enough interior gates beyond the first level to
    // drive every FF D pin after reserving one backbone gate per level:
    // n_comb_gates >= n_fl + (depth - 1) + n_ffs.
    const int n_fl = static_cast<int>(s.unique_ratio * s.n_ffs + 0.5);
    s.n_comb_gates = std::max(s.n_comb_gates, n_fl + s.depth + s.n_ffs + 4);
    return s;
}

FuzzReport runFuzz(const FuzzOptions& opts) {
    static obs::Counter& c_seeds = obs::counter("verify.fuzz.seeds");
    static obs::Counter& c_checks = obs::counter("verify.fuzz.checks");
    static obs::Counter& c_findings = obs::counter("verify.fuzz.findings");
    static obs::Counter& c_podem_aborts = obs::counter("verify.fuzz.podem_aborts");

    const Library& lib = [] () -> const Library& {
        static const Library l = makeDefaultLibrary();
        return l;
    }();

    FuzzReport rep;
    for (std::uint64_t seed = opts.start_seed; seed < opts.start_seed + opts.seeds; ++seed) {
        obs::ScopedSpan seed_span("seed-" + std::to_string(seed), "verify.seed");
        c_seeds.add(1);
        ++rep.seeds_run;

        Netlist scanned = generateCircuit(fuzzSpec(seed), lib);
        insertScan(scanned);

        const std::vector<TwoPattern> engine_pairs =
            randomTwoPatterns(scanned, opts.stuck_patterns, seed * kEngineSeedMix + 1);
        const std::vector<TwoPattern> x_pairs = withXBits(engine_pairs, seed ^ 0x5E);
        const std::vector<TwoPattern> eq_pairs =
            makeEquivalencePairs(scanned, opts.random_pairs, opts.atpg_pairs,
                                 seed * kPairSeedMix + 1);

        const EquivalenceOptions eq_opts;
        std::optional<Netlist> mutant;
        VariantNetlists variants;
        MutantInfo mutant_info;
        if (opts.mutant_seed != 0) {
            mutant = injectMutant(scanned, opts.mutant_seed ^ (seed * kPairSeedMix),
                                  &mutant_info);
            variants.flh = &*mutant;
        }

        std::size_t podem_aborts = 0; // set by the podem-verdict check
        std::vector<CheckDef> checks = {
            {"per-net",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return perNetMismatch(n, ps, opts, nullptr);
             },
             &x_pairs},
            {"seq-capture",
             [](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return seqCaptureMismatch(n, ps, nullptr);
             },
             &x_pairs},
            {"stuck-bitmap",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return stuckBitmapMismatch(n, ps, opts, nullptr);
             },
             &engine_pairs},
            {"transition-bitmap",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return transitionBitmapMismatch(n, ps, opts, nullptr);
             },
             &engine_pairs},
            {"n-detect",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return nDetectMismatch(n, ps, opts, nullptr);
             },
             &engine_pairs},
            {"dft-equivalence",
             [&eq_opts, &variants](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return !checkDftEquivalence(n, ps, eq_opts, variants).ok();
             },
             &eq_pairs},
        };
        if (scanned.pis().size() + scanned.flipFlops().size() <= kMaxVerdictSources)
            checks.push_back({"podem-verdict",
                              [&opts, &podem_aborts](const Netlist& n,
                                                     const std::vector<TwoPattern>&) {
                                  return podemVerdictMismatch(n, opts, &podem_aborts, nullptr);
                              },
                              &engine_pairs});

        for (const CheckDef& check : checks) {
            obs::ScopedSpan check_span(check.name, "verify.check");
            c_checks.add(1);
            ++rep.checks_run;
            podem_aborts = 0;
            const bool failed = check.fails(scanned, *check.pairs);
            rep.podem_aborts += podem_aborts;
            c_podem_aborts.add(podem_aborts);
            if (!failed) continue;

            c_findings.add(1);
            FuzzFinding finding;
            finding.seed = seed;
            finding.check = check.name;

            // Re-run the detailed probe for the report text.
            std::string detail;
            if (finding.check == "per-net") perNetMismatch(scanned, *check.pairs, opts, &detail);
            else if (finding.check == "seq-capture")
                seqCaptureMismatch(scanned, *check.pairs, &detail);
            else if (finding.check == "stuck-bitmap")
                stuckBitmapMismatch(scanned, *check.pairs, opts, &detail);
            else if (finding.check == "transition-bitmap")
                transitionBitmapMismatch(scanned, *check.pairs, opts, &detail);
            else if (finding.check == "n-detect")
                nDetectMismatch(scanned, *check.pairs, opts, &detail);
            else if (finding.check == "podem-verdict")
                podemVerdictMismatch(scanned, opts, &podem_aborts, &detail);
            else
                detail = checkDftEquivalence(scanned, *check.pairs, eq_opts, variants).summary();
            if (opts.mutant_seed != 0 && finding.check == "dft-equivalence")
                detail += " [injected mutant: " + mutant_info.describe() + "]";
            finding.detail = detail;

            // Shrink and persist — except expected mutant findings, which
            // are the mutation-testing success signal, not a bug.
            const bool expected_mutant =
                opts.mutant_seed != 0 && finding.check == "dft-equivalence";
            if (opts.shrink && !opts.corpus_dir.empty() && !expected_mutant) {
                ShrinkOptions sh;
                sh.max_rounds = opts.shrink_rounds;
                const ShrinkResult shrunk =
                    shrinkReproducer(scanned, *check.pairs, check.fails, sh);
                finding.shrunk_gates = shrunk.gates_after;
                std::ostringstream note;
                note << "fuzz seed " << seed << " check " << finding.check << ": " << detail
                     << "\nshrunk from " << shrunk.gates_before << " gates / "
                     << shrunk.pairs_before << " pairs to " << shrunk.gates_after << " / "
                     << shrunk.pairs_after;
                std::string stem = "fuzz_seed" + std::to_string(seed) + "_" + finding.check;
                std::replace(stem.begin(), stem.end(), '-', '_');
                const ReproducerPaths paths = writeReproducer(
                    opts.corpus_dir, stem, shrunk.netlist, shrunk.pairs, note.str());
                finding.bench_path = paths.bench;
                finding.pairs_path = paths.pairs;
            }
            rep.findings.push_back(std::move(finding));
            if (opts.stop_on_first) return rep;
        }
    }
    return rep;
}

} // namespace flh
