// Live campaign status: the coordinator writes an advisory JSON snapshot
// (atomic rename) that appears while the campaign runs, parses as strict
// JSON (obs/json.hpp), folds worker heartbeat deltas exactly once, and —
// the contract that matters — never changes the deterministic report
// digest, including under injected crashes and retries.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.hpp"
#include "campaign/shard/coordinator.hpp"
#include "campaign/shard/status.hpp"
#include "kernel/simulator.hpp"
#include "obs/json.hpp"
#include "rtos/processor.hpp"
#include "workload/taskset.hpp"

namespace c = rtsc::campaign;
namespace shard = rtsc::campaign::shard;
namespace j = rtsc::obs::json;
namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace w = rtsc::workload;
using namespace rtsc::kernel::time_literals;

namespace {

void simulate_taskset(c::ScenarioContext& ctx) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    const auto specs = w::random_task_set(3, 0.6, 1_ms, 10_ms, ctx.seed());
    w::PeriodicTaskSet ts(cpu, specs);
    sim.run_until(20_ms);
    ctx.metric("misses", static_cast<double>(ts.total_misses()));
}

[[nodiscard]] std::vector<c::ScenarioSpec> taskset_campaign(std::size_t n) {
    std::vector<c::ScenarioSpec> scenarios;
    for (std::size_t i = 0; i < n; ++i)
        scenarios.push_back({"taskset_" + std::to_string(i),
                             [](c::ScenarioContext& ctx) {
                                 simulate_taskset(ctx);
                             }});
    return scenarios;
}

struct TempStatus {
    TempStatus()
        : path("shard_status_" + std::to_string(::getpid()) + ".json") {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    ~TempStatus() {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::string path;
};

[[nodiscard]] j::ValuePtr parse_file(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return j::parse(ss.str());
}

[[nodiscard]] double num_field(const j::Value& obj, const char* name) {
    const j::Value* v = obj.get(name);
    EXPECT_NE(v, nullptr) << name;
    EXPECT_TRUE(v == nullptr || v->is_number()) << name;
    return v != nullptr && v->is_number() ? v->num : -1.0;
}

} // namespace

TEST(ShardStatus, SnapshotJsonRoundTripsThroughObsJson) {
    rtsc::obs::MetricsRegistry live;
    live.counter("shard.worker.scenarios_run").inc(7);
    live.histogram("shard.scenario_wall_us").record(1500);
    live.histogram("shard.scenario_wall_us").record(2500);

    shard::StatusSnapshot s;
    s.seed = 42;
    s.scenarios = 10;
    s.completed = 7;
    s.failed = 1;
    s.in_flight = 2;
    s.retries = 3;
    s.heartbeats = 7;
    s.elapsed_ms = 2000.0;
    s.live = &live;

    const auto root = j::parse(shard::status_to_json(s));
    ASSERT_TRUE(root->is_object());
    EXPECT_EQ(num_field(*root, "seed"), 42.0);
    EXPECT_EQ(num_field(*root, "completed"), 7.0);
    EXPECT_EQ(num_field(*root, "failed"), 1.0);
    EXPECT_EQ(num_field(*root, "in_flight"), 2.0);
    EXPECT_EQ(num_field(*root, "heartbeats"), 7.0);
    // 7 done in 2 s -> 3.5/s; 3 remaining -> ~857 ms.
    EXPECT_NEAR(num_field(*root, "throughput_per_s"), 3.5, 1e-9);
    EXPECT_NEAR(num_field(*root, "eta_ms"), 3.0 / 3.5 * 1000.0, 1e-6);
    const j::Value* wall = root->get("scenario_wall_us");
    ASSERT_NE(wall, nullptr);
    ASSERT_TRUE(wall->is_object());
    EXPECT_EQ(num_field(*wall, "count"), 2.0);
    const j::Value* metrics = root->get("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->is_object());
    EXPECT_NE(metrics->get("shard.worker.scenarios_run"), nullptr);
}

TEST(ShardStatus, ZeroProgressHasUnknownEta) {
    shard::StatusSnapshot s;
    s.scenarios = 5;
    s.elapsed_ms = 100.0;
    const auto root = j::parse(shard::status_to_json(s));
    EXPECT_EQ(num_field(*root, "throughput_per_s"), 0.0);
    EXPECT_EQ(num_field(*root, "eta_ms"), -1.0);
}

TEST(ShardStatus, WriteStatusFileIsAtomicReplace) {
    TempStatus tmp;
    ASSERT_TRUE(shard::write_status_file(tmp.path, "{\"v\": 1}\n"));
    ASSERT_TRUE(shard::write_status_file(tmp.path, "{\"v\": 2}\n"));
    const auto root = parse_file(tmp.path);
    EXPECT_EQ(num_field(*root, "v"), 2.0);
    // No .tmp litter after a successful replace.
    EXPECT_FALSE(std::ifstream(tmp.path + ".tmp").good());
}

TEST(ShardStatus, FileAppearsMidRunAndFinalSnapshotIsDone) {
    TempStatus tmp;
    const auto scenarios = taskset_campaign(6);

    shard::ShardOptions opt;
    opt.workers = 2;
    opt.seed = 99;
    opt.status_path = tmp.path;
    opt.status_period = std::chrono::milliseconds(1);
    bool seen_mid_run = false;
    bool seen_not_done = false;
    opt.on_progress = [&](const c::Progress&) {
        // Fired mid-campaign from the coordinator loop: the status file
        // must already exist (an initial snapshot precedes any worker).
        std::ifstream in(tmp.path);
        if (!in.good()) return;
        seen_mid_run = true;
        std::stringstream ss;
        ss << in.rdbuf();
        const auto root = j::parse(ss.str()); // must parse at any instant
        const j::Value* done = root->get("done");
        if (done != nullptr && done->kind == j::Value::Kind::boolean &&
            !done->b)
            seen_not_done = true;
    };
    const auto outcome = shard::ShardCoordinator(opt).run(scenarios);

    EXPECT_TRUE(seen_mid_run);
    EXPECT_TRUE(seen_not_done);
    EXPECT_GT(outcome.heartbeats, 0u);

    const auto root = parse_file(tmp.path);
    const j::Value* done = root->get("done");
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->kind, j::Value::Kind::boolean);
    EXPECT_TRUE(done->b);
    EXPECT_EQ(num_field(*root, "completed"), 6.0);
    EXPECT_EQ(num_field(*root, "scenarios"), 6.0);
    EXPECT_EQ(num_field(*root, "in_flight"), 0.0);
    EXPECT_EQ(num_field(*root, "heartbeats"),
              static_cast<double>(outcome.heartbeats));
    // Heartbeat deltas folded exactly once: the live runs counter equals
    // the campaign size even though each worker sent several frames.
    const j::Value* metrics = root->get("metrics");
    ASSERT_NE(metrics, nullptr);
    const j::Value* runs = metrics->get("shard.worker.scenarios_run");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->num, 6.0);
}

TEST(ShardStatus, StatusOutputNeverChangesTheDigest) {
    const auto scenarios = taskset_campaign(8);
    const auto in_process =
        c::CampaignRunner({.workers = 1, .seed = 2026, .on_progress = {}})
            .run(scenarios);

    TempStatus tmp;
    shard::ShardOptions with_status;
    with_status.workers = 3;
    with_status.seed = 2026;
    with_status.status_path = tmp.path;
    with_status.status_period = std::chrono::milliseconds(1);
    const auto outcome = shard::ShardCoordinator(with_status).run(scenarios);

    EXPECT_EQ(outcome.report.digest(), in_process.digest());
    EXPECT_GT(outcome.heartbeats, 0u);
    // The final cumulative metrics path is also intact: every scenario ran
    // exactly once across the fleet.
    const auto* runs =
        outcome.metrics.find_counter("shard.worker.scenarios_run");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->value(), 8u);
}

TEST(ShardStatus, DigestIdenticalUnderCrashRetryWithStatusEnabled) {
    // An injected worker crash on one scenario: retries burn the attempt
    // budget, the scenario lands as a deterministic failed entry — and the
    // digest equals a run without any status output.
    auto scenarios = taskset_campaign(5);
    scenarios[3].body = [](c::ScenarioContext&) { std::raise(SIGKILL); };

    shard::ShardOptions plain;
    plain.workers = 2;
    plain.seed = 7;
    plain.max_attempts = 2;
    plain.backoff_base = std::chrono::milliseconds(1);
    const auto baseline = shard::ShardCoordinator(plain).run(scenarios);
    ASSERT_GT(baseline.crashes, 0u);

    TempStatus tmp;
    shard::ShardOptions with_status = plain;
    with_status.status_path = tmp.path;
    with_status.status_period = std::chrono::milliseconds(1);
    const auto outcome = shard::ShardCoordinator(with_status).run(scenarios);

    EXPECT_EQ(outcome.report.digest(), baseline.report.digest());
    EXPECT_GT(outcome.crashes, 0u);
    EXPECT_GT(outcome.retries, 0u);

    const auto root = parse_file(tmp.path);
    EXPECT_GE(num_field(*root, "crashes"), 1.0);
    EXPECT_GE(num_field(*root, "retries"), 1.0);
    EXPECT_EQ(num_field(*root, "failed"), 1.0);
}
