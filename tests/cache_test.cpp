// Flat flow cache: key validation, handle counters, the on-disk layout
// (one directory of <key>.art files), temp-file hygiene, and multi-process
// safety under fork().
#include "flow/cache.hpp"
#include "flow/paper_flow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace flh {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
    std::string dir;
    TempDir() {
        static std::atomic<int> counter{0};
        dir = (fs::temp_directory_path() /
               ("flh_cache_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++)))
                  .string();
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
};

/// A well-formed key whose leading byte and tail are chosen.
CacheKey makeKey(unsigned lead, unsigned n) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%02x%030x", lead & 0xffu, n);
    return CacheKey::parse(std::string_view(buf, 32));
}

Artifact artOf(const std::string& value, std::size_t pad = 0) {
    Artifact a;
    a.setStr("value", value);
    if (pad > 0) a.setBlob("pad", std::string(pad, 'p'));
    return a;
}

// ---- CacheKey ----------------------------------------------------------

TEST(CacheKey, ParseRoundTripsThroughHex) {
    const std::string hex = "ab000000000000000000000000000042";
    const CacheKey k = CacheKey::parse(hex);
    EXPECT_EQ(k.hex(), hex);
    EXPECT_EQ(CacheKey::parse("00000000000000000000000000000000"), CacheKey());
    // Uppercase input parses but renders canonically lowercase.
    EXPECT_EQ(CacheKey::parse("AB000000000000000000000000000042").hex(), hex);
    // Hashing and parsing agree.
    const Hash128 h = contentHash("some stage cone");
    EXPECT_EQ(CacheKey::parse(h.hex()), CacheKey::fromHash(h));
}

TEST(CacheKey, RejectsMalformedHex) {
    EXPECT_THROW((void)CacheKey::parse(""), std::invalid_argument);
    EXPECT_THROW((void)CacheKey::parse("abc"), std::invalid_argument);
    EXPECT_THROW((void)CacheKey::parse(std::string(31, '0')), std::invalid_argument);
    EXPECT_THROW((void)CacheKey::parse(std::string(33, '0')), std::invalid_argument);
    EXPECT_THROW((void)CacheKey::parse("0000000000000000000000000000000g"),
                 std::invalid_argument);
    EXPECT_THROW((void)CacheKey::parse("xy000000000000000000000000000000"),
                 std::invalid_argument);
}

// ---- handle counters ---------------------------------------------------

TEST(FlowCacheStats, CountsHitsMissesStoresAndScansDisk) {
    TempDir tmp;
    CacheConfig cfg;
    cfg.dir = tmp.dir;
    FlowCache cache(cfg);

    const CacheKey k1 = makeKey(0x11, 1);
    const CacheKey k2 = makeKey(0x22, 2);
    EXPECT_FALSE(cache.get(k1).has_value()); // miss
    cache.put(k1, artOf("one"));
    cache.put(k2, artOf("two", 512));
    const std::optional<Artifact> got = cache.get(k1); // hit
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->str("value"), "one");

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 2u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_GT(s.bytes, 512u);
}

// ---- on-disk layout ----------------------------------------------------

TEST(FlowCacheLayout, ColdRunLeavesOnlyFlatArtifactFiles) {
    TempDir tmp;
    PaperFlowConfig pcfg;
    pcfg.random_pairs = 2;
    pcfg.power_vectors = 2;
    const std::vector<DesignInput> designs = {designInputFor("s27")};
    FlowOptions opts;
    opts.cache.dir = tmp.dir;
    opts.cache_handle = std::make_shared<FlowCache>(opts.cache);
    const RunReport report = runFlow(buildPaperFlow(pcfg), designs, opts);
    ASSERT_EQ(report.failures(), 0u);
    ASSERT_EQ(report.hits(), 0u);

    // Nothing but <32 hex>.art files: no shard subdirectories, no index
    // logs, no lock files, no temp droppings.
    std::size_t files = 0;
    for (const auto& e : fs::directory_iterator(tmp.dir)) {
        const std::string name = e.path().filename().string();
        EXPECT_TRUE(e.is_regular_file()) << name;
        ASSERT_EQ(name.size(), 36u) << name;
        EXPECT_EQ(name.substr(32), ".art") << name;
        EXPECT_EQ(name.substr(0, 32).find_first_not_of("0123456789abcdef"), std::string::npos)
            << name;
        ++files;
    }

    const CacheStats s = opts.cache_handle->stats();
    EXPECT_EQ(s.stores, report.misses());
    EXPECT_EQ(s.entries, s.stores);
    EXPECT_EQ(files, s.entries);

    // A stray temp file (a writer killed between write and rename) is not
    // an entry.
    std::ofstream(tmp.dir + "/" + report.records().front().key + ".tmp0.12345") << "partial";
    EXPECT_EQ(opts.cache_handle->stats().entries, s.entries);
    EXPECT_EQ(opts.cache_handle->stats().bytes, s.bytes);
}

TEST(FlowCacheLayout, EntriesInShardSubdirectoriesAreMisses) {
    // A cache directory left by the earlier sharded layout (<dir>/<hh>/
    // <key>.art) is read as cold: its entries are neither hits nor counted.
    TempDir tmp;
    CacheConfig cfg;
    cfg.dir = tmp.dir;
    const CacheKey k = makeKey(0xab, 1);
    fs::create_directories(tmp.dir + "/ab");
    std::ofstream(tmp.dir + "/ab/" + k.hex() + ".art", std::ios::binary)
        << artOf("sharded").serialize();

    FlowCache cache(cfg);
    EXPECT_FALSE(cache.get(k).has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
    cache.put(k, artOf("flat"));
    const std::optional<Artifact> got = cache.get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->str("value"), "flat");
    EXPECT_EQ(cache.stats().entries, 1u);
}

// ---- store hygiene -----------------------------------------------------

TEST(FlowCachePut, FailedRenameLeavesNoTempBehind) {
    TempDir tmp;
    CacheConfig cfg;
    cfg.dir = tmp.dir;
    FlowCache cache(cfg);
    const CacheKey k = makeKey(0x2a, 7);

    // Occupy the artifact path with a non-empty directory: the final
    // rename must fail, and the failed store must clean up its temp file.
    const std::string art_path = tmp.dir + "/" + k.hex() + ".art";
    fs::create_directories(art_path + "/blocker");
    EXPECT_THROW(cache.put(k, artOf("doomed")), std::exception);
    for (const auto& e : fs::directory_iterator(tmp.dir))
        EXPECT_EQ(e.path().filename().string().find(".tmp"), std::string::npos)
            << "orphaned temp after failed rename: " << e.path();

    // Once the obstruction is gone the same key stores and loads cleanly.
    fs::remove_all(art_path);
    cache.put(k, artOf("fine"));
    const std::optional<Artifact> got = cache.get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->str("value"), "fine");
}

// ---- multi-process -----------------------------------------------------

TEST(FlowCacheMp, ForkedWritersAndReadersNeverSeeTornArtifacts) {
    // N child processes hammer one cache directory: every child writes
    // head/tail-stamped artifacts over a shared key set while reading the
    // others' keys. The invariant under fire: a reader sees a complete
    // artifact or a clean miss, never a torn entry.
    TempDir tmp;
    constexpr int kProcs = 4;
    constexpr int kIters = 25;
    constexpr unsigned kKeys = 8;

    std::vector<pid_t> pids;
    for (int p = 0; p < kProcs; ++p) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            int bad = 0;
            try {
                CacheConfig cfg;
                cfg.dir = tmp.dir;
                FlowCache cache(cfg);
                for (int i = 0; i < kIters; ++i) {
                    for (unsigned k = 0; k < kKeys; ++k) {
                        const CacheKey key = makeKey(k * 0x21, k);
                        const std::string token = key.hex() + ":" + std::to_string(p) +
                                                  ":" + std::to_string(i);
                        Artifact art;
                        art.setStr("head", token);
                        art.setBlob("bulk", std::string(4096, 'x'));
                        art.setStr("tail", token);
                        cache.put(key, art);
                        const CacheKey probe = makeKey(((k + 1) % kKeys) * 0x21,
                                                       (k + 1) % kKeys);
                        const std::optional<Artifact> got = cache.get(probe);
                        if (got && (got->str("head") != got->str("tail") ||
                                    got->blob("bulk").size() != 4096u))
                            ++bad;
                    }
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "cache stress child %d threw: %s\n", p, e.what());
                ::_exit(100);
            } catch (...) {
                ::_exit(100);
            }
            ::_exit(bad == 0 ? 0 : 1);
        }
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "child saw torn artifacts or threw";
    }

    // After the dust settles, every key holds one complete final artifact
    // and no writer left a temp file behind.
    CacheConfig cfg;
    cfg.dir = tmp.dir;
    FlowCache cache(cfg);
    for (unsigned k = 0; k < kKeys; ++k) {
        const std::optional<Artifact> art = cache.get(makeKey(k * 0x21, k));
        ASSERT_TRUE(art.has_value());
        EXPECT_EQ(art->str("head"), art->str("tail"));
    }
    EXPECT_EQ(cache.stats().entries, static_cast<std::uint64_t>(kKeys));
    std::size_t files = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(tmp.dir)) ++files;
    EXPECT_EQ(files, static_cast<std::size_t>(kKeys));
}

} // namespace
} // namespace flh
