// Campaign integration of the metrics registry: snapshot export into
// ScenarioContext, cross-scenario percentile aggregation, and the BENCH
// json "metrics" array round-trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "obs/campaign.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace c = rtsc::campaign;
namespace o = rtsc::obs;

TEST(CampaignObs, ExportMetricsFillsScenarioContext) {
    o::MetricsRegistry reg;
    reg.counter("runs").inc(7);
    reg.histogram("lat").record(10);

    c::ScenarioContext ctx(0, 42);
    o::export_metrics(reg, ctx, "sim.");

    c::ScenarioSpec spec{"s", [&reg](c::ScenarioContext& inner) {
                             o::export_metrics(reg, inner);
                         }};
    const auto report =
        c::CampaignRunner({.workers = 1, .seed = 1, .on_progress = {}}).run({spec});
    ASSERT_EQ(report.results.size(), 1u);
    const auto& metrics = report.results[0].metrics;
    ASSERT_FALSE(metrics.empty());
    bool saw_runs = false;
    for (const auto& [name, value] : metrics) {
        if (name == "runs") {
            saw_runs = true;
            EXPECT_DOUBLE_EQ(value, 7.0);
        }
    }
    EXPECT_TRUE(saw_runs);
}

TEST(CampaignObs, AggregateMetricsComputesExactPercentiles) {
    c::CampaignReport report;
    // 100 scenarios each reporting latency = index+1 (1..100) and a second
    // metric only some report.
    for (std::size_t i = 0; i < 100; ++i) {
        c::ScenarioResult r;
        r.name = "s" + std::to_string(i);
        r.index = i;
        r.ok = true;
        r.metrics.emplace_back("latency", static_cast<double>(i + 1));
        if (i % 2 == 0) r.metrics.emplace_back("misses", static_cast<double>(i));
        report.results.push_back(std::move(r));
    }

    const auto agg = report.aggregate_metrics();
    ASSERT_EQ(agg.size(), 2u);
    // Sorted by name: "latency" then "misses".
    EXPECT_EQ(agg[0].name, "latency");
    EXPECT_EQ(agg[0].count, 100u);
    EXPECT_DOUBLE_EQ(agg[0].min, 1.0);
    EXPECT_DOUBLE_EQ(agg[0].max, 100.0);
    EXPECT_DOUBLE_EQ(agg[0].mean, 50.5);
    // Exact nearest-rank over 1..100: p50 = 50th value = 50, p90 = 90, p99 = 99.
    EXPECT_DOUBLE_EQ(agg[0].p50, 50.0);
    EXPECT_DOUBLE_EQ(agg[0].p90, 90.0);
    EXPECT_DOUBLE_EQ(agg[0].p99, 99.0);
    EXPECT_EQ(agg[1].name, "misses");
    EXPECT_EQ(agg[1].count, 50u);

    // Determinism: shuffling result order must not change the aggregate
    // (values are sorted internally).
    c::CampaignReport reversed;
    for (auto it = report.results.rbegin(); it != report.results.rend(); ++it)
        reversed.results.push_back(*it);
    const auto agg2 = reversed.aggregate_metrics();
    ASSERT_EQ(agg2.size(), agg.size());
    EXPECT_DOUBLE_EQ(agg2[0].p99, agg[0].p99);
}

TEST(CampaignObs, BenchEntryMetricsArrayIsValidJson) {
    const std::string path = "test_bench_obs_tmp.json";
    std::remove(path.c_str());

    c::BenchEntry entry;
    entry.name = "bench_x";
    entry.scenarios = 4;
    entry.serial_ms = 10.0;
    entry.parallel_ms = 5.0;
    entry.speedup = 2.0;
    entry.digests_match = true;
    entry.metrics.push_back(
        {.name = "latency", .count = 4, .min = 1, .max = 9, .mean = 4.5,
         .p50 = 4, .p90 = 8, .p99 = 9});
    c::write_bench_entry(path, entry);

    // A second, metrics-free entry must coexist on its own line.
    c::BenchEntry legacy;
    legacy.name = "bench_legacy";
    c::write_bench_entry(path, legacy);

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const auto root = o::json::parse(ss.str());
    ASSERT_TRUE(root->is_object());
    const auto* entries = root->get("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->arr.size(), 2u);

    const auto& first = *entries->arr[0];
    EXPECT_EQ(first.get("name")->str, "bench_x");
    const auto* metrics = first.get("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->arr.size(), 1u);
    EXPECT_EQ(metrics->arr[0]->get("name")->str, "latency");
    EXPECT_DOUBLE_EQ(metrics->arr[0]->get("p99")->num, 9.0);
    EXPECT_EQ(entries->arr[1]->get("metrics"), nullptr);

    // Merge-by-name still works with the metrics array present.
    entry.serial_ms = 20.0;
    c::write_bench_entry(path, entry);
    std::ifstream in2(path);
    std::stringstream ss2;
    ss2 << in2.rdbuf();
    const auto root2 = o::json::parse(ss2.str());
    ASSERT_EQ(root2->get("entries")->arr.size(), 2u);
    EXPECT_DOUBLE_EQ(root2->get("entries")->arr[0]->get("serial_ms")->num, 20.0);

    std::remove(path.c_str());
}
