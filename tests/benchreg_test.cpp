// Perf-regression observability: repetition statistics, the provenance
// envelope round-trip, bench output-path resolution, and flh_benchdiff
// verdict classification on synthetic baseline/candidate pairs.
#include "obs/benchdiff.hpp"
#include "obs/benchio.hpp"
#include "obs/provenance.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace flh::obs {
namespace {

namespace fs = std::filesystem;

/// Fresh telemetry state per test (same discipline as obs_test.cpp).
struct BenchRegFixture : ::testing::Test {
    void SetUp() override {
        setEnabled(false);
        reset();
    }
    void TearDown() override {
        setEnabled(false);
        reset();
    }
};

using RepStatsMath = BenchRegFixture;
using Envelope = BenchRegFixture;
using OutPath = BenchRegFixture;
using BenchDiff = BenchRegFixture;

TEST_F(RepStatsMath, OddSampleCountUsesHalvesMethod) {
    const RepStats s = RepStats::of({30, 10, 50, 20, 40});
    EXPECT_EQ(s.reps, 5);
    EXPECT_DOUBLE_EQ(s.median, 30.0);
    EXPECT_DOUBLE_EQ(s.min, 10.0);
    EXPECT_DOUBLE_EQ(s.max, 50.0);
    EXPECT_DOUBLE_EQ(s.q1, 15.0);
    EXPECT_DOUBLE_EQ(s.q3, 45.0);
    EXPECT_DOUBLE_EQ(s.iqr(), 30.0);
}

TEST_F(RepStatsMath, EvenSampleCountSplitsCleanly) {
    const RepStats s = RepStats::of({4, 1, 3, 2});
    EXPECT_EQ(s.reps, 4);
    EXPECT_DOUBLE_EQ(s.median, 2.5);
    EXPECT_DOUBLE_EQ(s.q1, 1.5);
    EXPECT_DOUBLE_EQ(s.q3, 3.5);
}

TEST_F(RepStatsMath, SingleSampleCollapsesToThatSample) {
    const RepStats s = RepStats::of({7.5});
    EXPECT_EQ(s.reps, 1);
    EXPECT_DOUBLE_EQ(s.median, 7.5);
    EXPECT_DOUBLE_EQ(s.min, 7.5);
    EXPECT_DOUBLE_EQ(s.max, 7.5);
    EXPECT_DOUBLE_EQ(s.iqr(), 0.0);
}

TEST_F(Envelope, ProvenanceCollectsPlausibleFields) {
    const RunProvenance p = RunProvenance::collect(3);
    EXPECT_FALSE(p.git_sha.empty());
    EXPECT_FALSE(p.build_type.empty());
    EXPECT_FALSE(p.compiler.empty());
    EXPECT_FALSE(p.hostname.empty());
    EXPECT_GE(p.hw_concurrency, 1u);
    EXPECT_EQ(p.threads, 3u);
    // ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
    ASSERT_EQ(p.timestamp_utc.size(), 20u) << p.timestamp_utc;
    EXPECT_EQ(p.timestamp_utc[10], 'T');
    EXPECT_EQ(p.timestamp_utc.back(), 'Z');
}

TEST_F(Envelope, WriterRoundTripsThroughSharedParser) {
    BenchWriter bw("flh.bench.test/1", 2);
    BenchEntry e;
    e.name = "alpha";
    e.threads = 2;
    e.warmup = 1;
    e.time_samples = {100, 110, 105, 120, 90};
    e.ips_samples = {10, 9, 9.5, 8, 11};
    bw.add(e);
    bw.setResults("{\n  \"schema\": \"flh.bench.test/1\",\n  \"legacy\": true\n}\n");

    const JsonValue v = parseJson(bw.json());
    EXPECT_EQ(v.at("schema").str, kBenchEnvelopeSchema);
    EXPECT_EQ(v.at("payload_schema").str, "flh.bench.test/1");
    const JsonValue& prov = v.at("provenance");
    EXPECT_EQ(prov.at("schema").str, "flh.provenance/1");
    EXPECT_EQ(prov.at("threads").num, 2.0);
    ASSERT_EQ(v.at("benchmarks").arr.size(), 1u);
    const JsonValue& b = v.at("benchmarks").arr[0];
    EXPECT_EQ(b.at("name").str, "alpha");
    EXPECT_EQ(b.at("reps").num, 5.0);
    EXPECT_EQ(b.at("warmup").num, 1.0);
    EXPECT_DOUBLE_EQ(b.at("real_time_ns").at("median").num, 105.0);
    EXPECT_DOUBLE_EQ(b.at("real_time_ns").at("q1").num, 95.0);
    EXPECT_DOUBLE_EQ(b.at("real_time_ns").at("q3").num, 115.0);
    EXPECT_DOUBLE_EQ(b.at("items_per_second").at("median").num, 9.5);
    ASSERT_EQ(b.at("time_samples").arr.size(), 5u);
    // The legacy payload nests verbatim under "results".
    EXPECT_EQ(v.at("results").at("schema").str, "flh.bench.test/1");
    EXPECT_TRUE(v.at("results").at("legacy").b);
}

TEST_F(OutPath, FlagBeatsEnvBeatsCwd) {
    ::unsetenv("FLH_BENCH_OUT");
    EXPECT_EQ(benchOutPath("BENCH_x.json"), "BENCH_x.json");
    ::setenv("FLH_BENCH_OUT", "/tmp/envdir", 1);
    EXPECT_EQ(benchOutPath("BENCH_x.json"), "/tmp/envdir/BENCH_x.json");
    EXPECT_EQ(benchOutPath("BENCH_x.json", "/tmp/flagdir"),
              "/tmp/flagdir/BENCH_x.json");
    // Explicit directory components win over both.
    EXPECT_EQ(benchOutPath("sub/BENCH_x.json", "/tmp/flagdir"), "sub/BENCH_x.json");
    ::unsetenv("FLH_BENCH_OUT");
}

TEST_F(OutPath, ParseBenchOutFlagFindsBothSpellings) {
    const char* argv1[] = {"bin", "--foo", "--out", "/tmp/d", "--bar"};
    EXPECT_EQ(parseBenchOutFlag(5, const_cast<char**>(argv1)), "/tmp/d");
    const char* argv2[] = {"bin", "--out=/tmp/e"};
    EXPECT_EQ(parseBenchOutFlag(2, const_cast<char**>(argv2)), "/tmp/e");
    const char* argv3[] = {"bin", "--other"};
    EXPECT_EQ(parseBenchOutFlag(2, const_cast<char**>(argv3)), "");
}

// ---------------------------------------------------------------------------
// benchdiff

BenchPoint point(const std::string& name, std::vector<double> samples,
                 unsigned threads = 1) {
    BenchPoint p;
    p.payload_schema = "flh.bench.test/1";
    p.name = name;
    p.threads = threads;
    p.real_time = RepStats::of(std::move(samples));
    return p;
}

TEST_F(BenchDiff, JitterInsideIqrIsOkRealSlowdownIsNot) {
    // Baseline median 100us, IQR [95us, 115us].
    const std::vector<BenchPoint> base = {
        point("steady", {100e3, 110e3, 105e3, 120e3, 90e3}),
        point("slower", {100e3, 110e3, 105e3, 120e3, 90e3}),
    };
    const std::vector<BenchPoint> cand = {
        point("steady", {108e3, 112e3, 110e3, 109e3, 111e3}), // inside IQR
        point("slower", {140e3, 145e3, 142e3, 141e3, 143e3}), // 1.35x, outside
    };
    const DiffReport rep = diffBench(base, cand);
    ASSERT_EQ(rep.rows.size(), 2u);
    EXPECT_EQ(rep.rows[0].verdict, Verdict::Ok);
    EXPECT_EQ(rep.rows[1].verdict, Verdict::Regression);
    EXPECT_FALSE(rep.rows[1].hard_fail);
    EXPECT_EQ(rep.regressions(), 1u);
}

TEST_F(BenchDiff, OutsideIqrButUnderRatioStaysOk) {
    // 6% above a tight IQR: leaves the spread but not by the 10% ratio.
    const std::vector<BenchPoint> base = {point("tight", {100e3, 101e3, 100.5e3})};
    const std::vector<BenchPoint> cand = {point("tight", {106e3, 106.5e3, 106.2e3})};
    const DiffReport rep = diffBench(base, cand);
    ASSERT_EQ(rep.rows.size(), 1u);
    EXPECT_EQ(rep.rows[0].verdict, Verdict::Ok);
}

TEST_F(BenchDiff, ImprovementNewMissingAndSkipVerdicts) {
    const std::vector<BenchPoint> base = {
        point("faster", {200e3, 210e3, 205e3}),
        point("gone", {100e3, 100e3, 100e3}),
        point("micro", {10e3, 11e3, 10.5e3}), // < 50us floor -> Skipped
    };
    const std::vector<BenchPoint> cand = {
        point("faster", {100e3, 101e3, 100.5e3}),
        point("micro", {40e3, 41e3, 40.5e3}),
        point("brand-new", {100e3, 100e3, 100e3}),
    };
    const DiffReport rep = diffBench(base, cand);
    ASSERT_EQ(rep.rows.size(), 4u);
    EXPECT_EQ(rep.rows[0].verdict, Verdict::Improvement);
    EXPECT_EQ(rep.rows[1].verdict, Verdict::Missing);
    EXPECT_EQ(rep.rows[2].verdict, Verdict::Skipped);
    EXPECT_EQ(rep.rows[3].verdict, Verdict::New);
    EXPECT_EQ(rep.improvements(), 1u);
    EXPECT_EQ(rep.missing(), 1u);
    EXPECT_EQ(rep.added(), 1u);
    EXPECT_FALSE(rep.hardFailures());
}

TEST_F(BenchDiff, SingleRepBaselinesGetWiderMarginAndHigherFloor) {
    const std::vector<BenchPoint> base = {
        point("one-shot-jitter", {600e3}), // 1 rep: no IQR to lean on
        point("one-shot-slow", {600e3}),
        point("one-shot-micro", {200e3}), // above 50us, below the 10x floor
    };
    const std::vector<BenchPoint> cand = {
        point("one-shot-jitter", {720e3}), // 1.2x: jitter for a single rep
        point("one-shot-slow", {900e3}),   // 1.5x: beyond even the wide margin
        point("one-shot-micro", {400e3}),
    };
    const DiffReport rep = diffBench(base, cand);
    ASSERT_EQ(rep.rows.size(), 3u);
    EXPECT_EQ(rep.rows[0].verdict, Verdict::Ok);
    EXPECT_EQ(rep.rows[1].verdict, Verdict::Regression);
    EXPECT_EQ(rep.rows[2].verdict, Verdict::Skipped);
}

TEST_F(BenchDiff, ThreadCountIsPartOfTheMatchingKey) {
    const std::vector<BenchPoint> base = {point("kernel", {100e3, 100e3, 100e3}, 1)};
    const std::vector<BenchPoint> cand = {point("kernel", {100e3, 100e3, 100e3}, 4)};
    const DiffReport rep = diffBench(base, cand);
    ASSERT_EQ(rep.rows.size(), 2u);
    EXPECT_EQ(rep.rows[0].verdict, Verdict::Missing);
    EXPECT_EQ(rep.rows[1].verdict, Verdict::New);
}

TEST_F(BenchDiff, FailAboveMarksHardFailureAndJsonParses) {
    DiffOptions opts;
    opts.fail_above = 2.0;
    const std::vector<BenchPoint> base = {point("hot", {100e3, 100e3, 100e3})};
    const std::vector<BenchPoint> cand = {point("hot", {250e3, 251e3, 250.5e3})};
    const DiffReport rep = diffBench(base, cand, opts);
    ASSERT_EQ(rep.rows.size(), 1u);
    EXPECT_EQ(rep.rows[0].verdict, Verdict::Regression);
    EXPECT_TRUE(rep.rows[0].hard_fail);
    EXPECT_TRUE(rep.hardFailures());

    const JsonValue v = parseJson(rep.json());
    EXPECT_EQ(v.at("schema").str, "flh.bench.diff/1");
    EXPECT_DOUBLE_EQ(v.at("options").at("fail_above").num, 2.0);
    EXPECT_EQ(v.at("summary").at("regressions").num, 1.0);
    ASSERT_EQ(v.at("rows").arr.size(), 1u);
    EXPECT_EQ(v.at("rows").arr[0].at("verdict").str, "regression");
    EXPECT_TRUE(v.at("rows").arr[0].at("hard_fail").b);
}

TEST_F(BenchDiff, LoadBenchDirRoundTripsWrittenEnvelopes) {
    const fs::path dir = fs::path(::testing::TempDir()) / "benchreg_envelopes";
    fs::remove_all(dir);
    fs::create_directories(dir);

    BenchWriter bw("flh.bench.test/1", 2);
    BenchEntry e;
    e.name = "roundtrip";
    e.threads = 2;
    e.time_samples = {100e3, 110e3, 105e3};
    bw.add(e);
    ASSERT_FALSE(bw.writeFile("BENCH_roundtrip.json", dir.string()).empty());
    // Non-envelope JSON in the same directory is skipped, not fatal.
    std::ofstream(dir / "not_an_envelope.json") << "{\"schema\": \"other/1\"}\n";

    const std::vector<BenchPoint> pts = loadBenchDir(dir.string());
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].payload_schema, "flh.bench.test/1");
    EXPECT_EQ(pts[0].name, "roundtrip");
    EXPECT_EQ(pts[0].threads, 2u);
    EXPECT_DOUBLE_EQ(pts[0].real_time.median, 105e3);
    EXPECT_FALSE(pts[0].git_sha.empty());

    // Same dir diffed against itself: everything Ok, nothing fires.
    const DiffReport rep = diffBench(pts, pts);
    ASSERT_EQ(rep.rows.size(), 1u);
    EXPECT_EQ(rep.rows[0].verdict, Verdict::Ok);
    EXPECT_DOUBLE_EQ(rep.rows[0].ratio, 1.0);

    EXPECT_THROW((void)loadBenchDir((dir / "missing_subdir").string()),
                 std::runtime_error);
    fs::remove_all(dir);
}

} // namespace
} // namespace flh::obs
