// Flow engine: graph validation, scheduler determinism across thread
// counts, content-addressed cache behavior (hit replay, precise
// invalidation), artifact round-trip, and failure poisoning.
#include "flow/cache.hpp"
#include "flow/paper_flow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

namespace flh {
namespace {

namespace fs = std::filesystem;

/// Fresh cache directory per test, removed on destruction.
struct TempCache {
    std::string dir;
    TempCache() {
        dir = (fs::temp_directory_path() /
               ("flh_flow_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter()++)))
                  .string();
    }
    ~TempCache() {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    static std::atomic<int>& counter() {
        static std::atomic<int> c{0};
        return c;
    }
};

/// Small synthetic graph: a -> b -> d, a -> c -> d; run counters per stage.
struct CountingGraph {
    std::shared_ptr<std::atomic<int>> a = std::make_shared<std::atomic<int>>(0);
    std::shared_ptr<std::atomic<int>> b = std::make_shared<std::atomic<int>>(0);
    std::shared_ptr<std::atomic<int>> c = std::make_shared<std::atomic<int>>(0);
    std::shared_ptr<std::atomic<int>> d = std::make_shared<std::atomic<int>>(0);
    FlowGraph graph;

    explicit CountingGraph(const std::string& b_config = "k=1") {
        auto counting = [](std::shared_ptr<std::atomic<int>> n, std::string tag,
                           std::vector<std::string> deps) {
            return [n = std::move(n), tag = std::move(tag),
                    deps = std::move(deps)](const StageContext& ctx) {
                n->fetch_add(1);
                Artifact art;
                std::string combined = tag + ":" + ctx.source();
                for (const auto& dep : deps) combined += "|" + ctx.input(dep).str("value");
                art.setStr("value", combined);
                return art;
            };
        };
        graph.addStage({"a", "", {}, counting(a, "a", {})});
        graph.addStage({"b", b_config, {"a"}, counting(b, "b", {"a"})});
        graph.addStage({"c", "", {"a"}, counting(c, "c", {"a"})});
        graph.addStage({"d", "", {"b", "c"}, counting(d, "d", {"b", "c"})});
    }
};

std::vector<DesignInput> twoDesigns() {
    return {{"alpha", "src-alpha", ""}, {"beta", "src-beta", ""}};
}

TEST(FlowGraph, RejectsInvalidDefinitions) {
    FlowGraph g;
    const StageFn nop = [](const StageContext&) { return Artifact{}; };
    EXPECT_THROW(g.addStage({"", "", {}, nop}), std::invalid_argument);
    EXPECT_THROW(g.addStage({"x", "", {}, nullptr}), std::invalid_argument);
    g.addStage({"x", "", {}, nop});
    EXPECT_THROW(g.addStage({"x", "", {}, nop}), std::invalid_argument); // duplicate
    EXPECT_THROW(g.addStage({"y", "", {"y"}, nop}), std::invalid_argument); // self-dep
    EXPECT_THROW(g.addStage({"y", "", {"missing"}, nop}), std::invalid_argument);
}

TEST(FlowHash, StableAndFieldSeparated) {
    EXPECT_EQ(contentHash("abc").hex(), contentHash("abc").hex());
    EXPECT_NE(contentHash("abc").hex(), contentHash("abd").hex());
    EXPECT_EQ(contentHash("").hex().size(), 32u);
    // Length prefixing distinguishes ("ab","c") from ("a","bc").
    const auto h1 = ContentHasher().field("ab").field("c").digest();
    const auto h2 = ContentHasher().field("a").field("bc").digest();
    EXPECT_NE(h1.hex(), h2.hex());
}

TEST(FlowArtifact, SerializeRoundTripIsCanonical) {
    Artifact a;
    a.setStr("name", "s27");
    a.setNum("cov", 98.765);
    a.setInt("n", 42);
    a.setBlob("bench", "INPUT(a)\nb = NOT(a)\n# weird |{}\" bytes\n");
    const std::string bytes = a.serialize();
    const Artifact b = Artifact::deserialize(bytes);
    EXPECT_EQ(a, b);
    EXPECT_EQ(bytes, b.serialize());
    EXPECT_EQ(a.digest().hex(), b.digest().hex());
    EXPECT_EQ(b.integer("n"), 42);
    EXPECT_DOUBLE_EQ(b.num("cov"), 98.765);
    EXPECT_THROW(Artifact::deserialize("garbage"), std::runtime_error);
}

TEST(FlowEngine, SameInputsGiveBitIdenticalReportsAcross128Threads) {
    TempCache cache;
    std::string first_report;
    std::string first_artifact_bytes;
    for (const unsigned threads : {1u, 2u, 8u}) {
        CountingGraph cg;
        FlowOptions opts;
        opts.threads = threads;
        opts.cache.dir = cache.dir + "_t" + std::to_string(threads); // isolated caches
        const auto designs = twoDesigns();
        const RunReport rep = runFlow(cg.graph, designs, opts);
        EXPECT_EQ(rep.failures(), 0u);
        EXPECT_EQ(rep.misses(), 8u) << "cold run at " << threads << " threads";
        // Every stage ran exactly once per design.
        EXPECT_EQ(cg.a->load(), 2);
        EXPECT_EQ(cg.d->load(), 2);
        const std::string serialized = rep.records().front().artifact.serialize();
        if (first_report.empty()) {
            first_report = rep.reportJson();
            first_artifact_bytes = serialized;
        } else {
            EXPECT_EQ(rep.reportJson(), first_report) << threads << " threads";
            EXPECT_EQ(serialized, first_artifact_bytes) << threads << " threads";
        }
    }
}

TEST(FlowEngine, WarmRunHitsEverythingWithIdenticalReport) {
    TempCache cache;
    FlowOptions opts;
    opts.cache.dir = cache.dir;
    const auto designs = twoDesigns();

    CountingGraph cold;
    const RunReport r1 = runFlow(cold.graph, designs, opts);
    EXPECT_EQ(r1.hits(), 0u);
    EXPECT_EQ(r1.misses(), 8u);

    // Warm run, different scheduler width: all hits, nothing re-runs,
    // report bytes identical.
    CountingGraph warm;
    opts.threads = 4;
    const RunReport r2 = runFlow(warm.graph, designs, opts);
    EXPECT_EQ(r2.hits(), 8u);
    EXPECT_EQ(r2.misses(), 0u);
    EXPECT_DOUBLE_EQ(r2.hitRate(), 1.0);
    EXPECT_EQ(warm.a->load() + warm.b->load() + warm.c->load() + warm.d->load(), 0);
    EXPECT_EQ(r1.reportJson(), r2.reportJson());
}

TEST(FlowEngine, ConfigEditInvalidatesExactlyTheDownstreamCone) {
    TempCache cache;
    FlowOptions opts;
    opts.cache.dir = cache.dir;
    const auto designs = twoDesigns();

    CountingGraph cold;
    (void)runFlow(cold.graph, designs, opts);

    // Change stage b's config: b and d (its dependent) recompute; a and c
    // stay cached. Per design: 2 misses, 2 hits.
    CountingGraph edited("k=2");
    const RunReport rep = runFlow(edited.graph, designs, opts);
    EXPECT_EQ(rep.hits(), 4u);
    EXPECT_EQ(rep.misses(), 4u);
    EXPECT_EQ(edited.a->load(), 0);
    EXPECT_EQ(edited.b->load(), 2);
    EXPECT_EQ(edited.c->load(), 0);
    EXPECT_EQ(edited.d->load(), 2);
}

TEST(FlowEngine, SourceEditInvalidatesOnlyThatDesign) {
    TempCache cache;
    FlowOptions opts;
    opts.cache.dir = cache.dir;
    auto designs = twoDesigns();

    CountingGraph cold;
    (void)runFlow(cold.graph, designs, opts);

    designs[1].source = "src-beta-edited";
    CountingGraph edited;
    const RunReport rep = runFlow(edited.graph, designs, opts);
    EXPECT_EQ(rep.hits(), 4u);   // alpha untouched
    EXPECT_EQ(rep.misses(), 4u); // all of beta re-keyed
    for (const StageRecord& r : rep.records())
        EXPECT_EQ(r.cache_hit, r.design == "alpha") << r.design << "/" << r.stage;
}

TEST(FlowEngine, FailurePoisonsExactlyTheDownstreamCone) {
    FlowGraph g;
    const StageFn ok = [](const StageContext&) { return Artifact{}; };
    g.addStage({"a", "", {}, ok});
    g.addStage({"b", "", {"a"}, [](const StageContext&) -> Artifact {
                    throw std::runtime_error("boom");
                }});
    g.addStage({"c", "", {"a"}, ok});
    g.addStage({"d", "", {"b", "c"}, ok});
    const std::vector<DesignInput> designs = {{"x", "s", ""}};
    FlowOptions opts;
    opts.cache.enabled = false;
    const RunReport rep = runFlow(g, designs, opts);
    EXPECT_EQ(rep.failures(), 2u); // b and d
    for (const StageRecord& r : rep.records()) {
        if (r.stage == "b") {
            EXPECT_EQ(r.error, "boom");
        } else if (r.stage == "d") {
            EXPECT_NE(r.error.find("upstream"), std::string::npos);
        } else {
            EXPECT_FALSE(r.failed);
        }
    }
}

TEST(FlowCache, ConcurrentReadersAndWritersNeverSeeTornArtifacts) {
    // The engine points every scheduler worker at one FlowCache handle,
    // so get/put must be safe under concurrency: the atomic temp-file +
    // rename store means a reader observes either a complete artifact or a
    // miss — never a half-written entry. Writers stamp head and tail with
    // the same token around a bulk blob; a torn read would mismatch them.
    TempCache tmp;
    CacheConfig cfg;
    cfg.dir = tmp.dir;
    FlowCache cache(cfg);
    constexpr int kKeys = 4;
    constexpr int kWriters = 3;
    constexpr int kReaders = 3;
    constexpr int kIters = 40;
    std::vector<CacheKey> keys;
    for (int k = 0; k < kKeys; ++k) {
        char buf[33];
        std::snprintf(buf, sizeof buf, "%032x", k + 1);
        keys.push_back(CacheKey::parse(buf));
    }

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::atomic<int> observed{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (int i = 0; i < kIters; ++i) {
                for (const CacheKey& key : keys) {
                    const std::string token =
                        key.hex() + ":" + std::to_string(w) + ":" + std::to_string(i);
                    Artifact art;
                    art.setStr("head", token);
                    art.setBlob("bulk", std::string(64 * 1024, 'x'));
                    art.setStr("tail", token);
                    cache.put(key, art);
                }
            }
        });
    }
    for (int r = 0; r < kReaders; ++r) {
        threads.emplace_back([&] {
            while (!stop.load()) {
                for (const CacheKey& key : keys) {
                    const std::optional<Artifact> art = cache.get(key);
                    if (!art) continue; // not stored yet: a clean miss
                    observed.fetch_add(1);
                    if (!art->hasMeta("head") || !art->hasMeta("tail") ||
                        art->str("head") != art->str("tail") ||
                        art->blob("bulk").size() != 64u * 1024)
                        torn.fetch_add(1);
                }
            }
        });
    }
    for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
    stop.store(true);
    for (int r = 0; r < kReaders; ++r)
        threads[static_cast<std::size_t>(kWriters + r)].join();

    EXPECT_EQ(torn.load(), 0);
    EXPECT_GT(observed.load(), 0);
    // After the dust settles every key holds one complete final artifact.
    for (const CacheKey& key : keys) {
        const std::optional<Artifact> art = cache.get(key);
        ASSERT_TRUE(art.has_value());
        EXPECT_EQ(art->str("head"), art->str("tail"));
    }
    EXPECT_EQ(cache.stats().entries, static_cast<std::uint64_t>(kKeys));
}

TEST(FlowEngine, CorruptCacheEntryIsRecomputedNotTrusted) {
    TempCache cache;
    FlowOptions opts;
    opts.cache.dir = cache.dir;
    const std::vector<DesignInput> designs = {{"x", "s", ""}};
    CountingGraph cold;
    const RunReport r1 = runFlow(cold.graph, designs, opts);
    // Truncate every cached entry.
    for (const auto& entry : fs::recursive_directory_iterator(cache.dir))
        if (entry.is_regular_file()) {
            std::FILE* f = std::fopen(entry.path().c_str(), "wb");
            ASSERT_NE(f, nullptr);
            std::fputs("corrupt", f);
            std::fclose(f);
        }
    CountingGraph again;
    const RunReport r2 = runFlow(again.graph, designs, opts);
    EXPECT_EQ(r2.hits(), 0u);
    EXPECT_EQ(r2.misses(), 4u);
    EXPECT_EQ(r1.reportJson(), r2.reportJson());
}

TEST(FlowTests, TwoPatternWireFormatRoundTrips) {
    std::vector<TwoPattern> tests(2);
    tests[0].v1.pis = {Logic::Zero, Logic::One, Logic::X};
    tests[0].v1.state = {Logic::One};
    tests[0].v2.pis = {Logic::X, Logic::X, Logic::Zero};
    tests[0].v2.state = {Logic::Zero};
    tests[1].v1.pis = {};
    tests[1].v1.state = {Logic::Zero, Logic::Zero};
    tests[1].v2.pis = {};
    tests[1].v2.state = {Logic::One, Logic::X};
    const std::string wire = serializeTests(tests);
    const auto back = parseTests(wire);
    ASSERT_EQ(back.size(), tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i) {
        EXPECT_EQ(back[i].v1.pis, tests[i].v1.pis);
        EXPECT_EQ(back[i].v1.state, tests[i].v1.state);
        EXPECT_EQ(back[i].v2.pis, tests[i].v2.pis);
        EXPECT_EQ(back[i].v2.state, tests[i].v2.state);
    }
    EXPECT_THROW(parseTests("0|1\n"), std::runtime_error);
}

TEST(PaperFlow, EndToEndOnS27IsCachedAndDeterministic) {
    TempCache cache;
    const FlowGraph graph = buildPaperFlow({});
    const std::vector<DesignInput> designs = {designInputFor("s27")};

    FlowOptions opts;
    opts.cache.dir = cache.dir;
    const RunReport cold = runFlow(graph, designs, opts);
    ASSERT_EQ(cold.failures(), 0u);
    EXPECT_EQ(cold.misses(), graph.size());

    // Warm run with a wider pool and a different inner sim budget must be
    // all hits and byte-identical (fault sim is thread-count deterministic).
    opts.threads = 4;
    opts.sim_threads = 2;
    const RunReport warm = runFlow(graph, designs, opts);
    EXPECT_EQ(warm.hits(), graph.size());
    EXPECT_EQ(cold.reportJson(), warm.reportJson());

    // Sanity on the metrics the report carries.
    bool saw_cov = false;
    for (const StageRecord& r : warm.records())
        if (r.stage == "fault_sim") {
            EXPECT_GT(r.artifact.num("coverage_pct"), 0.0);
            saw_cov = true;
        }
    EXPECT_TRUE(saw_cov);
    EXPECT_GT(warm.peakTests(), 0);
}

TEST(PaperFlow, AtpgConfigEditRecomputesOnlyAtpgCone) {
    TempCache cache;
    const std::vector<DesignInput> designs = {designInputFor("s27")};
    FlowOptions opts;
    opts.cache.dir = cache.dir;

    (void)runFlow(buildPaperFlow({}), designs, opts);

    PaperFlowConfig edited;
    edited.random_pairs = 32; // atpg config change -> atpg + fault_sim only
    const RunReport rep = runFlow(buildPaperFlow(edited), designs, opts);
    for (const StageRecord& r : rep.records()) {
        const bool should_miss = r.stage == "atpg" || r.stage == "fault_sim";
        EXPECT_EQ(r.cache_hit, !should_miss) << r.stage;
    }
}

} // namespace
} // namespace flh
