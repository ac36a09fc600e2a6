// ShardCoordinator end-to-end: digest parity with the in-process runner,
// crash/timeout retry with graceful degradation, kill-9 + resume identity,
// merged per-worker metrics. Everything here forks real worker processes.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "campaign/shard/checkpoint.hpp"
#include "campaign/shard/coordinator.hpp"
#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "workload/taskset.hpp"

namespace c = rtsc::campaign;
namespace shard = rtsc::campaign::shard;
namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace w = rtsc::workload;
using namespace rtsc::kernel::time_literals;

namespace {

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

[[nodiscard]] std::vector<c::ScenarioSpec> taskset_campaign(std::size_t n) {
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

struct TempPath {
    explicit TempPath(const std::string& tag)
        : path("shard_e2e_" + tag + "_" + std::to_string(::getpid()) +
               ".journal") {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

[[nodiscard]] std::size_t journal_lines(const std::string& path) {
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line)) ++n;
    return n;
}

} // namespace

TEST(Shard, DigestMatchesInProcessRunnerForEveryWorkerCount) {
    const auto scenarios = taskset_campaign(8);
    const auto in_process =
        c::CampaignRunner({.workers = 1, .seed = 2026, .on_progress = {}})
            .run(scenarios);
    ASSERT_EQ(in_process.failures(), 0u);

    for (const unsigned workers : {1u, 2u, 4u}) {
        shard::ShardOptions opt;
        opt.workers = workers;
        opt.seed = 2026;
        const auto outcome = shard::ShardCoordinator(opt).run(scenarios);
        EXPECT_EQ(outcome.report.digest(), in_process.digest())
            << workers << " workers";
        EXPECT_EQ(outcome.crashes, 0u);
        EXPECT_EQ(outcome.retries, 0u);
        ASSERT_EQ(outcome.report.results.size(), in_process.results.size());
        for (std::size_t i = 0; i < in_process.results.size(); ++i) {
            const auto& a = in_process.results[i];
            const auto& b = outcome.report.results[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.seed, b.seed);
            EXPECT_EQ(a.ok, b.ok);
            EXPECT_EQ(a.metrics, b.metrics);
            EXPECT_EQ(a.notes, b.notes);
        }
    }
}

TEST(Shard, ThrowingScenarioIsTerminalAndMatchesInProcessRunner) {
    auto scenarios = taskset_campaign(4);
    scenarios[2].body = [](c::ScenarioContext&) {
        throw std::runtime_error("deliberate");
    };
    const auto in_process =
        c::CampaignRunner({.workers = 1, .seed = 5, .on_progress = {}})
            .run(scenarios);

    shard::ShardOptions opt;
    opt.workers = 2;
    opt.seed = 5;
    opt.max_attempts = 3; // must NOT be consumed by an app-level throw
    const auto outcome = shard::ShardCoordinator(opt).run(scenarios);

    EXPECT_EQ(outcome.report.digest(), in_process.digest());
    EXPECT_EQ(outcome.report.failures(), 1u);
    EXPECT_FALSE(outcome.report.results[2].ok);
    EXPECT_EQ(outcome.report.results[2].error, "std::runtime_error: deliberate");
    EXPECT_EQ(outcome.retries, 0u);
    EXPECT_EQ(outcome.crashes, 0u);
}

TEST(Shard, CrashingScenarioExhaustsRetryBudgetGracefully) {
    auto scenarios = taskset_campaign(6);
    scenarios[3].body = [](c::ScenarioContext&) {
        std::raise(SIGKILL); // uncatchable: deterministic worker death
    };

    shard::ShardOptions opt;
    opt.workers = 2;
    opt.seed = 11;
    opt.max_attempts = 2;
    opt.backoff_base = std::chrono::milliseconds(1);
    opt.backoff_cap = std::chrono::milliseconds(4);

    const auto outcome = shard::ShardCoordinator(opt).run(scenarios);
    ASSERT_EQ(outcome.report.results.size(), 6u);
    EXPECT_EQ(outcome.report.failures(), 1u);
    const auto& failed = outcome.report.results[3];
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.error, "shard: worker killed by signal 9 (attempt 2/2)");
    EXPECT_EQ(failed.seed, c::derive_seed(11, 3));
    EXPECT_EQ(outcome.crashes, 2u);  // one per attempt
    EXPECT_EQ(outcome.retries, 1u);
    EXPECT_EQ(outcome.timeouts, 0u);
    for (std::size_t i = 0; i < 6; ++i) {
        if (i != 3) {
            EXPECT_TRUE(outcome.report.results[i].ok) << i;
        }
    }

    // Graceful degradation never changes healthy results: same campaign with
    // 1 worker (every scenario re-run after each crash lands on the sole
    // worker) produces the identical digest.
    opt.workers = 1;
    const auto serial = shard::ShardCoordinator(opt).run(scenarios);
    EXPECT_EQ(serial.report.digest(), outcome.report.digest());
}

TEST(Shard, NonzeroExitIsRecordedAsWorkerDeath) {
    auto scenarios = taskset_campaign(3);
    scenarios[1].body = [](c::ScenarioContext&) { ::_exit(7); };

    shard::ShardOptions opt;
    opt.workers = 2;
    opt.seed = 3;
    opt.max_attempts = 1; // no retries: first death is terminal
    opt.backoff_base = std::chrono::milliseconds(1);

    const auto outcome = shard::ShardCoordinator(opt).run(scenarios);
    EXPECT_EQ(outcome.report.failures(), 1u);
    EXPECT_EQ(outcome.report.results[1].error,
              "shard: worker exited with status 7 (attempt 1/1)");
    EXPECT_EQ(outcome.crashes, 1u);
    EXPECT_EQ(outcome.retries, 0u);
}

TEST(Shard, HungScenarioIsKilledAtTheDeadline) {
    auto scenarios = taskset_campaign(4);
    scenarios[1].body = [](c::ScenarioContext&) {
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    };

    shard::ShardOptions opt;
    opt.workers = 2;
    opt.seed = 17;
    opt.timeout = std::chrono::milliseconds(200);
    opt.max_attempts = 2;
    opt.backoff_base = std::chrono::milliseconds(1);
    opt.backoff_cap = std::chrono::milliseconds(4);

    const auto t0 = std::chrono::steady_clock::now();
    const auto outcome = shard::ShardCoordinator(opt).run(scenarios);
    const auto wall = std::chrono::steady_clock::now() - t0;

    EXPECT_EQ(outcome.report.failures(), 1u);
    EXPECT_EQ(outcome.report.results[1].error,
              "shard: scenario timed out after 200ms (attempt 2/2)");
    EXPECT_EQ(outcome.timeouts, 2u);
    EXPECT_EQ(outcome.retries, 1u);
    // Two 200 ms deadlines plus overhead — nowhere near the 1 s sleeps the
    // hung body would take. Generous bound for loaded CI machines.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(wall).count(), 20);
    for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}})
        EXPECT_TRUE(outcome.report.results[i].ok) << i;
}

TEST(Shard, CheckpointResumeReproducesTheDigest) {
    const TempPath tmp("resume");
    const auto scenarios = taskset_campaign(6);

    shard::ShardOptions opt;
    opt.workers = 2;
    opt.seed = 23;
    opt.checkpoint_path = tmp.path;

    const auto fresh = shard::ShardCoordinator(opt).run(scenarios);
    EXPECT_EQ(fresh.resumed, 0u);
    EXPECT_EQ(journal_lines(tmp.path), 1u + scenarios.size()); // header + N

    // Resume over a complete journal: nothing re-runs, digest identical.
    opt.resume = true;
    const auto resumed = shard::ShardCoordinator(opt).run(scenarios);
    EXPECT_EQ(resumed.resumed, scenarios.size());
    EXPECT_EQ(resumed.report.digest(), fresh.report.digest());

    // Resume keyed to a different campaign must throw, not mix results.
    opt.seed = 24;
    EXPECT_THROW((void)shard::ShardCoordinator(opt).run(scenarios),
                 std::runtime_error);
}

TEST(Shard, KillNineMidCampaignThenResumeMatchesUninterruptedRun) {
    const TempPath tmp("kill9");
    const std::size_t n = 12;

    // The uninterrupted reference, computed in-process (also proves
    // cross-runner digest identity once the resumed run matches it).
    const auto reference =
        c::CampaignRunner({.workers = 1, .seed = 71, .on_progress = {}})
            .run(taskset_campaign(n));

    // Coordinator in a child process so we can SIGKILL it mid-campaign. The
    // child's scenarios sleep to guarantee the kill lands while the journal
    // is partially written.
    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        auto slow = taskset_campaign(n);
        for (auto& s : slow) {
            auto body = s.body;
            s.body = [body](c::ScenarioContext& ctx) {
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                body(ctx);
            };
        }
        shard::ShardOptions opt;
        opt.workers = 2;
        opt.seed = 71;
        opt.checkpoint_path = tmp.path;
        try {
            (void)shard::ShardCoordinator(opt).run(slow);
        } catch (...) {
        }
        ::_exit(0);
    }

    // Wait until at least two records hit the journal, then kill -9.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (journal_lines(tmp.path) < 3) { // header + 2 records
        if (std::chrono::steady_clock::now() > give_up) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(journal_lines(tmp.path), 3u) << "journal never grew";
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Resume in this process — no sleeps needed, the campaign definition
    // (seed, count, names) is what the journal is keyed on.
    shard::ShardOptions opt;
    opt.workers = 2;
    opt.seed = 71;
    opt.checkpoint_path = tmp.path;
    opt.resume = true;
    const auto outcome = shard::ShardCoordinator(opt).run(taskset_campaign(n));

    EXPECT_GE(outcome.resumed, 1u);   // something genuinely came from disk
    EXPECT_EQ(outcome.report.results.size(), n);
    EXPECT_EQ(outcome.report.failures(), 0u);
    EXPECT_EQ(outcome.report.digest(), reference.digest())
        << "resumed digest must equal the uninterrupted run's";
}

TEST(Shard, WorkerMetricsMergeIntoTheOutcome) {
    const auto scenarios = taskset_campaign(9);
    shard::ShardOptions opt;
    opt.workers = 3;
    opt.seed = 13;
    const auto outcome = shard::ShardCoordinator(opt).run(scenarios);
    ASSERT_EQ(outcome.report.failures(), 0u);

    // Per-worker registries merge exactly: the campaign-wide counters and
    // histogram counts must equal what one worker running everything would
    // have recorded.
    const auto* run = outcome.metrics.find_counter("shard.worker.scenarios_run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->value(), scenarios.size());
    const auto* failed =
        outcome.metrics.find_counter("shard.worker.scenarios_failed");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->value(), 0u);
    const auto* wall =
        outcome.metrics.find_histogram("shard.worker.scenario_wall_us");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count(), scenarios.size());
    // Coordinator-side accounting rides along in the same registry.
    const auto* coord = outcome.metrics.find_histogram("shard.scenario_wall_us");
    ASSERT_NE(coord, nullptr);
    EXPECT_EQ(coord->count(), scenarios.size());
}

TEST(Shard, EmptyCampaignAndProgressCallback) {
    shard::ShardOptions opt;
    opt.workers = 4;
    opt.seed = 1;
    const auto empty = shard::ShardCoordinator(opt).run({});
    EXPECT_TRUE(empty.report.results.empty());
    EXPECT_EQ(empty.report.failures(), 0u);

    std::size_t calls = 0;
    std::size_t last_completed = 0;
    opt.on_progress = [&](const c::Progress& p) {
        ++calls;
        EXPECT_EQ(p.total, 5u);
        EXPECT_GT(p.completed, last_completed);
        last_completed = p.completed;
    };
    opt.workers = 2;
    const auto outcome = shard::ShardCoordinator(opt).run(taskset_campaign(5));
    EXPECT_EQ(calls, 5u);
    EXPECT_EQ(last_completed, 5u);
    EXPECT_EQ(outcome.report.failures(), 0u);
}
