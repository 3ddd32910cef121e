#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_io.h"
#include "util/json_lite.h"

/**
 * The shared bench I/O (bench/bench_io.h): the flag parser's accept and
 * reject cases (exit-2 paths), the JSON writer's exact layout, escaping
 * and write-failure reporting (exit-1 path), and the --baseline replay,
 * including the case where an id key also appears in the run metadata.
 */

namespace fleet {
namespace bench {
namespace {

using Layout = JsonWriter::Layout;

/** Parse `args` (argv[0] is supplied) with stderr captured. */
bool
parseArgs(const Cli &cli, std::vector<std::string> args,
          std::string *err = nullptr)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    testing::internal::CaptureStderr();
    bool ok = cli.parse(int(argv.size()), argv.data());
    std::string captured = testing::internal::GetCapturedStderr();
    if (err)
        *err = captured;
    return ok;
}

struct Flags
{
    bool smoke = false;
    std::string json;
    int threads = 0;
    std::optional<uint64_t> faults;
    std::vector<uint64_t> seeds;
    system::PuBackend backend = system::PuBackend::Fast;

    Cli cli()
    {
        Cli c;
        c.flag("--smoke", &smoke)
            .option("--json", "PATH", &json)
            .option("--threads", "N", &threads)
            .option("--faults", "SEED", &faults)
            .repeated("--seed", "S", &seeds)
            .backend(&backend);
        return c;
    }
};

TEST(BenchCli, ParsesEveryFlagKind)
{
    Flags f;
    ASSERT_TRUE(parseArgs(f.cli(),
                          {"--smoke", "--json", "out.json", "--threads",
                           "-1", "--faults", "0x10", "--seed", "7",
                           "--seed", "2026", "--backend", "rtl-jit"}));
    EXPECT_TRUE(f.smoke);
    EXPECT_EQ(f.json, "out.json");
    EXPECT_EQ(f.threads, -1) << "negative --threads keeps meaning auto";
    ASSERT_TRUE(f.faults.has_value());
    EXPECT_EQ(*f.faults, 16u) << "u64 values parse in base 0";
    EXPECT_EQ(f.seeds, (std::vector<uint64_t>{7, 2026}));
    EXPECT_EQ(f.backend, system::PuBackend::RtlJit);
}

TEST(BenchCli, AbsentFlagsKeepDefaults)
{
    Flags f;
    f.threads = 3;
    ASSERT_TRUE(parseArgs(f.cli(), {}));
    EXPECT_FALSE(f.smoke);
    EXPECT_EQ(f.threads, 3);
    EXPECT_FALSE(f.faults.has_value());
    EXPECT_TRUE(f.seeds.empty());
}

TEST(BenchCli, RejectsWithUsage)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--bogus"},
        {"--json"},
        {"--threads", "abc"},
        {"--threads", "12x"},
        {"--threads", ""},
        {"--threads", "99999999999"},
        {"--faults", "-1"},
        {"--faults", "abc"},
        {"--seed", "1", "--seed", "-1"},
        {"--seed", "99999999999999999999"},
        {"--backend", "nope"},
        {"smoke"},
    };
    for (const auto &args : bad) {
        Flags f;
        std::string err;
        EXPECT_FALSE(parseArgs(f.cli(), args, &err)) << args[0];
        EXPECT_NE(err.find("usage: bench [--smoke] [--json PATH] "
                           "[--threads N] [--faults SEED] [--seed S]... "
                           "[--backend fast|rtl|rtlinterp|rtljit]"),
                  std::string::npos)
            << err;
    }
}

TEST(BenchJsonWriter, GoldenLayout)
{
    JsonWriter w;
    w.field("name", "plain")
        .field("count", 3)
        .field("ratio", 0.5, 3)
        .field("ok", true)
        .array("rows");
    w.object()
        .field("id", "a")
        .array("cells", Layout::Row)
        .value("x")
        .value("y")
        .end()
        .end();
    w.object(nullptr, Layout::Row)
        .field("id", "b")
        .field("big", UINT64_MAX)
        .field("neg", -2)
        .end();
    w.end();
    w.array("counters", Layout::BlockBelowKey)
        .object(nullptr, Layout::Row)
        .field("component", "ch0")
        .field("beats", uint64_t(7))
        .end()
        .end();
    w.array("none").end();
    EXPECT_EQ(w.finish(), R"({
  "name": "plain",
  "count": 3,
  "ratio": 0.500,
  "ok": true,
  "rows": [
    {
      "id": "a",
      "cells": ["x", "y"]
    },
    {"id": "b", "big": 18446744073709551615, "neg": -2}
  ],
  "counters":
  [
    {"component": "ch0", "beats": 7}
  ],
  "none": []
}
)");
}

TEST(BenchJsonWriter, EscapesStrings)
{
    JsonWriter w;
    w.field("s", std::string("q\"b\\n\nc\x01"));
    EXPECT_EQ(w.finish(), "{\n  \"s\": \"q\\\"b\\\\n\\nc\\u0001\"\n}\n");
    json::Value root;
    ASSERT_TRUE(json::parse(w.finish(), root));
    EXPECT_EQ(root.getString("s"), "q\"b\\n\nc\x01");
}

TEST(BenchJsonWriter, SaveReportsWriteFailures)
{
    const std::string path = ::testing::TempDir() + "bench_io_save.json";
    JsonWriter w;
    w.field("k", 1);
    testing::internal::CaptureStdout();
    EXPECT_TRUE(w.save(path));
    testing::internal::GetCapturedStdout();
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "{\n  \"k\": 1\n}\n");

    testing::internal::CaptureStderr();
    EXPECT_FALSE(w.save("/nonexistent-dir/x.json"));
    if (std::filesystem::exists("/dev/full")) {
        EXPECT_FALSE(w.save("/dev/full"))
            << "a write that fails at flush/close must not succeed";
    }
    testing::internal::GetCapturedStderr();
}

TEST(BenchJsonWriter, ReportOpensWithRunMetadata)
{
    json::Value root;
    ASSERT_TRUE(json::parse(benchReport("b", "rtl", 4).finish(), root));
    ASSERT_GE(root.object.size(), 9u);
    EXPECT_EQ(root.object[0].first, "bench");
    EXPECT_EQ(root.getString("bench"), "b");
    EXPECT_EQ(root.getInt("bench_version"), kBenchJsonVersion);
    EXPECT_EQ(root.getString("backend"), "rtl");
    EXPECT_EQ(root.getInt("threads"), 4);
    EXPECT_EQ(root.getInt("devices"), 1);
    EXPECT_EQ(root.find("link_gbps")->str, "0.000");
    json::Value bare;
    ASSERT_TRUE(json::parse(benchReport("b", "fast", -1).finish(), bare));
    EXPECT_FALSE(bare.has("threads")) << "-1 omits the threads key";
}

class BenchBaseline : public ::testing::Test
{
  protected:
    std::string write(const std::string &text)
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string path = ::testing::TempDir() + "bench_io_" +
                           info->name() + ".json";
        std::ofstream(path) << text;
        return path;
    }
    bool replay(const std::string &text, const char *array,
                const char *id, const char *value,
                const std::vector<BaselineRow> &rows)
    {
        std::string path = write(text);
        testing::internal::CaptureStdout();
        testing::internal::CaptureStderr();
        bool ok = replayBaseline(path, array, id, value, rows);
        testing::internal::GetCapturedStdout();
        err_ = testing::internal::GetCapturedStderr();
        return ok;
    }
    std::string err_;
};

const char *const kApps = R"({
  "bench": "fig7_main_results",
  "apps": [
    {"app": "Regex", "bytes_per_cycle": 1.250000, "cycles": 9},
    {"app": "Bloom", "bytes_per_cycle": 0.500000}
  ]
})";

TEST_F(BenchBaseline, MatchesAtPrintedPrecision)
{
    EXPECT_TRUE(replay(kApps, "apps", "app", "bytes_per_cycle",
                       {{"Regex", fixed(1.25, 6)}, {"Bloom", "0.500000"}}))
        << err_;
}

TEST_F(BenchBaseline, ChangedValueFails)
{
    EXPECT_FALSE(replay(kApps, "apps", "app", "bytes_per_cycle",
                        {{"Regex", "1.250001"}}));
    EXPECT_NE(err_.find("1.250000 -> 1.250001"), std::string::npos)
        << err_;
    // Same double, different printed precision: still a change.
    EXPECT_FALSE(replay(kApps, "apps", "app", "bytes_per_cycle",
                        {{"Bloom", "0.5"}}));
}

TEST_F(BenchBaseline, MissingIdOrValueFails)
{
    EXPECT_FALSE(replay(kApps, "apps", "app", "bytes_per_cycle",
                        {{"Regex", "1.250000"}, {"Json", "1.000000"}}));
    EXPECT_NE(err_.find("Json"), std::string::npos) << err_;
    EXPECT_FALSE(
        replay(kApps, "apps", "app", "cycles", {{"Bloom", "0"}}));
}

TEST_F(BenchBaseline, NotJsonOrNoArrayFails)
{
    EXPECT_FALSE(replay("{\"apps\": [", "apps", "app", "bytes_per_cycle",
                        {{"Regex", "1.250000"}}));
    EXPECT_NE(err_.find("not JSON"), std::string::npos) << err_;
    EXPECT_FALSE(replay(kApps, "points", "app", "bytes_per_cycle",
                        {{"Regex", "1.250000"}}));
    testing::internal::CaptureStderr();
    EXPECT_FALSE(replayBaseline(::testing::TempDir() + "no-such.json",
                                "apps", "app", "bytes_per_cycle", {}));
    testing::internal::GetCapturedStderr();
}

TEST_F(BenchBaseline, KeyOrderDoesNotMatter)
{
    EXPECT_TRUE(replay(R"({"points": [
      {"p99_total_cycles": 812, "label": "poisson-0.50"},
      {"label": "bursty-0.90", "rho": 0.9, "p99_total_cycles": 950}
    ]})",
                       "points", "label", "p99_total_cycles",
                       {{"bursty-0.90", "950"}, {"poisson-0.50", "812"}}))
        << err_;
}

TEST_F(BenchBaseline, MetadataKeyNeverPairsWithARow)
{
    // cluster_scaling's metadata carries "devices" too; only the
    // scale_points rows may answer for a device count.
    const char *text = R"({
  "devices": 4,
  "jobs_per_mcycle": 99.000000,
  "scale_points": [
    {"devices": 1, "jobs_per_mcycle": 10.000000},
    {"devices": 2, "jobs_per_mcycle": 19.500000}
  ]
})";
    EXPECT_TRUE(replay(text, "scale_points", "devices", "jobs_per_mcycle",
                       {{"1", "10.000000"}, {"2", "19.500000"}}))
        << err_;
    EXPECT_FALSE(replay(text, "scale_points", "devices",
                        "jobs_per_mcycle", {{"4", "99.000000"}}));
}

} // namespace
} // namespace bench
} // namespace fleet
