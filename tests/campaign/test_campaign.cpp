// Campaign runner: work distribution, failure isolation, and — the core
// contract — bit-identical aggregate reports for every worker count.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include <fstream>
#include <sstream>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "workload/taskset.hpp"

namespace c = rtsc::campaign;
namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace w = rtsc::workload;
using namespace rtsc::kernel::time_literals;

namespace {

/// A real simulation scenario: a random task set generated from the
/// scenario's deterministic seed, simulated to 50 ms, metrics extracted.
void simulate_taskset(c::ScenarioContext& ctx, r::EngineKind kind) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     kind);
    const auto specs = w::random_task_set(3, 0.6, 1_ms, 10_ms, ctx.seed());
    w::PeriodicTaskSet ts(cpu, specs);
    sim.run_until(50_ms);
    ctx.metric("misses", static_cast<double>(ts.total_misses()));
    for (const auto& res : ts.results())
        ctx.metric(res.name + ".max_response_us",
                   res.max_response.to_sec() * 1e6);
}

std::vector<c::ScenarioSpec> taskset_campaign(std::size_t n) {
    std::vector<c::ScenarioSpec> scenarios;
    for (std::size_t i = 0; i < n; ++i) {
        const r::EngineKind kind = i % 2 == 0 ? r::EngineKind::procedure_calls
                                              : r::EngineKind::rtos_thread;
        scenarios.push_back({"taskset_" + std::to_string(i),
                             [kind](c::ScenarioContext& ctx) {
                                 simulate_taskset(ctx, kind);
                             }});
    }
    return scenarios;
}

} // namespace

TEST(SeedDerivation, DeterministicAndSpread) {
    EXPECT_EQ(c::derive_seed(42, 0), c::derive_seed(42, 0));
    EXPECT_NE(c::derive_seed(42, 0), c::derive_seed(42, 1));
    EXPECT_NE(c::derive_seed(42, 0), c::derive_seed(43, 0));
    // Consecutive indices must not produce correlated (e.g. off-by-one) seeds.
    const auto a = c::derive_seed(7, 10);
    const auto b = c::derive_seed(7, 11);
    EXPECT_GT((a > b ? a - b : b - a), 1u << 20);
}

TEST(CampaignRunner, RunsEveryScenarioAndKeepsSubmissionOrder) {
    std::vector<c::ScenarioSpec> scenarios;
    for (int i = 0; i < 8; ++i)
        scenarios.push_back({"s" + std::to_string(i), [i](c::ScenarioContext& ctx) {
                                 ctx.metric("id", i);
                             }});
    const auto report =
        c::CampaignRunner({.workers = 3, .seed = 99}).run(scenarios);
    ASSERT_EQ(report.results.size(), 8u);
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.workers, 3u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(report.results[i].index, i);
        EXPECT_EQ(report.results[i].name, "s" + std::to_string(i));
        EXPECT_EQ(report.results[i].seed, c::derive_seed(99, i));
        ASSERT_EQ(report.results[i].metrics.size(), 1u);
        EXPECT_EQ(report.results[i].metrics[0].second, static_cast<double>(i));
    }
}

TEST(CampaignRunner, ScenarioFailureIsIsolated) {
    std::vector<c::ScenarioSpec> scenarios = {
        {"good1", [](c::ScenarioContext& ctx) { ctx.metric("v", 1); }},
        {"bad", [](c::ScenarioContext&) { throw std::runtime_error("boom"); }},
        {"ugly", [](c::ScenarioContext&) { throw 42; }},
        {"good2", [](c::ScenarioContext& ctx) { ctx.metric("v", 2); }},
    };
    const auto report = c::CampaignRunner({.workers = 2}).run(scenarios);
    EXPECT_EQ(report.failures(), 2u);
    EXPECT_TRUE(report.results[0].ok);
    EXPECT_FALSE(report.results[1].ok);
    // failure_description: demangled dynamic type + what(), identical in
    // every runner (serial, threaded, sharded).
    EXPECT_EQ(report.results[1].error, "std::runtime_error: boom");
    EXPECT_FALSE(report.results[2].ok);
    EXPECT_EQ(report.results[2].error, "unknown exception type");
    EXPECT_TRUE(report.results[3].ok);
    ASSERT_NE(report.find("good2"), nullptr);
    EXPECT_EQ(report.find("good2")->metrics[0].second, 2.0);
    EXPECT_EQ(report.find("nope"), nullptr);
}

TEST(CampaignRunner, ProgressReportsEveryCompletion) {
    std::vector<c::ScenarioSpec> scenarios;
    for (int i = 0; i < 10; ++i)
        scenarios.push_back({"s" + std::to_string(i), [](c::ScenarioContext&) {}});
    std::size_t calls = 0;
    std::size_t max_completed = 0;
    c::CampaignRunner::Options opt;
    opt.workers = 4;
    opt.on_progress = [&](const c::Progress& p) {
        // Serialized by the runner's lock: plain counters are safe here.
        ++calls;
        EXPECT_EQ(p.total, 10u);
        EXPECT_GE(p.completed, 1u);
        EXPECT_LE(p.completed, 10u);
        if (p.completed > max_completed) max_completed = p.completed;
    };
    (void)c::CampaignRunner(opt).run(scenarios);
    EXPECT_EQ(calls, 10u);
    EXPECT_EQ(max_completed, 10u);
}

TEST(CampaignRunner, WorkerCountIsClampedToScenarioCount) {
    std::vector<c::ScenarioSpec> scenarios = {
        {"only", [](c::ScenarioContext&) {}}};
    const auto report = c::CampaignRunner({.workers = 16}).run(scenarios);
    EXPECT_EQ(report.workers, 1u);
    const auto empty = c::CampaignRunner({.workers = 16}).run({});
    EXPECT_EQ(empty.results.size(), 0u);
    EXPECT_EQ(empty.failures(), 0u);
}

TEST(CampaignDeterminism, AggregateReportIdenticalAcrossWorkerCounts) {
    const auto scenarios = taskset_campaign(10);
    const auto serial =
        c::CampaignRunner({.workers = 1, .seed = 2026}).run(scenarios);
    ASSERT_EQ(serial.failures(), 0u);

    for (const unsigned workers : {2u, 4u, 7u}) {
        const auto parallel =
            c::CampaignRunner({.workers = workers, .seed = 2026}).run(scenarios);
        EXPECT_EQ(parallel.digest(), serial.digest()) << workers << " workers";
        // The digest claim, verified field by field.
        ASSERT_EQ(parallel.results.size(), serial.results.size());
        for (std::size_t i = 0; i < serial.results.size(); ++i) {
            const auto& a = serial.results[i];
            const auto& b = parallel.results[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.seed, b.seed);
            EXPECT_EQ(a.ok, b.ok);
            EXPECT_EQ(a.metrics, b.metrics);
            EXPECT_EQ(a.notes, b.notes);
        }
    }
}

TEST(CampaignDeterminism, DifferentCampaignSeedChangesTheScience) {
    const auto scenarios = taskset_campaign(4);
    const auto a = c::CampaignRunner({.workers = 2, .seed = 1}).run(scenarios);
    const auto b = c::CampaignRunner({.workers = 2, .seed = 2}).run(scenarios);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(BenchJson, EntriesMergeByNameAndSurviveRewrites) {
    const std::string path = ::testing::TempDir() + "/bench_campaign_test.json";
    std::remove(path.c_str());

    c::BenchEntry a;
    a.name = "mpeg2_dse";
    a.scenarios = 16;
    a.hardware_cores = 4;
    a.workers = 4;
    a.serial_ms = 100.0;
    a.parallel_ms = 30.0;
    a.speedup = 100.0 / 30.0;
    a.digest = 0xdeadbeefull;
    a.digests_match = true;
    c::write_bench_entry(path, a);

    c::BenchEntry b = a;
    b.name = "overhead_sweep";
    b.serial_ms = 80.0;
    c::write_bench_entry(path, b);

    a.serial_ms = 200.0; // update in place: must replace, not duplicate
    c::write_bench_entry(path, a);

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    EXPECT_EQ(text.find("mpeg2_dse"), text.rfind("mpeg2_dse"));
    EXPECT_NE(text.find("overhead_sweep"), std::string::npos);
    EXPECT_NE(text.find("\"serial_ms\": 200.00"), std::string::npos);
    EXPECT_EQ(text.find("\"serial_ms\": 100.00"), std::string::npos);
    EXPECT_NE(text.find("00000000deadbeef"), std::string::npos);
    EXPECT_NE(text.find("\"digests_match\": true"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CampaignReport, TextAndCsvRenderings) {
    std::vector<c::ScenarioSpec> scenarios = {
        {"alpha", [](c::ScenarioContext& ctx) { ctx.metric("m", 1.5); }},
        {"beta", [](c::ScenarioContext&) { throw std::runtime_error("bad"); }},
    };
    const auto report = c::CampaignRunner({.workers = 1, .seed = 5}).run(scenarios);
    const std::string text = report.to_string();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("FAILED"), std::string::npos);
    EXPECT_NE(text.find("bad"), std::string::npos);
    const std::string csv = report.to_csv();
    EXPECT_NE(csv.find("scenario,index,seed,ok,metric,value"), std::string::npos);
    EXPECT_NE(csv.find("alpha,0,"), std::string::npos);
    EXPECT_NE(csv.find(",m,1.5"), std::string::npos);
    EXPECT_NE(csv.find("beta,1,"), std::string::npos);
}
