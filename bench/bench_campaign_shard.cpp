// Sharded-campaign lane: wall time and digest identity of the multi-process
// coordinator at 1/2/4 workers against the in-process serial runner.
//
// Process isolation is bought with fork/IPC overhead; this bench records
// what that costs on a healthy campaign (no crashes, no retries) and
// re-certifies on every run that worker count cannot change the science:
// each lane's report digest must equal the serial in-process digest.
// Results land in BENCH_campaign.json (RTSC_BENCH_JSON overrides the path),
// one entry per worker count: serial_ms is the in-process reference,
// parallel_ms the sharded wall time.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "campaign/shard/coordinator.hpp"
#include "kernel/simulator.hpp"
#include "rtos/policy.hpp"
#include "rtos/processor.hpp"
#include "workload/taskset.hpp"

namespace c = rtsc::campaign;
namespace shard = rtsc::campaign::shard;
namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace w = rtsc::workload;
using namespace rtsc::kernel::time_literals;

namespace {

constexpr std::size_t kScenarios = 24;
constexpr std::uint64_t kSeed = 2026;

std::vector<c::ScenarioSpec> build_campaign() {
    std::vector<c::ScenarioSpec> scenarios;
    for (std::size_t i = 0; i < kScenarios; ++i) {
        const r::EngineKind kind = i % 2 == 0 ? r::EngineKind::procedure_calls
                                              : r::EngineKind::rtos_thread;
        scenarios.push_back(
            {"taskset_" + std::to_string(i), [kind](c::ScenarioContext& ctx) {
                 k::Simulator sim;
                 r::Processor cpu("cpu",
                                  std::make_unique<r::PriorityPreemptivePolicy>(),
                                  kind);
                 const auto specs =
                     w::random_task_set(4, 0.7, 1_ms, 10_ms, ctx.seed());
                 w::PeriodicTaskSet ts(cpu, specs);
                 sim.run_until(200_ms);
                 ctx.metric("misses", static_cast<double>(ts.total_misses()));
                 for (const auto& res : ts.results())
                     ctx.metric(res.name + ".max_response_us",
                                res.max_response.to_sec() * 1e6);
             }});
    }
    return scenarios;
}

} // namespace

int main() {
    const auto scenarios = build_campaign();
    const char* env = std::getenv("RTSC_BENCH_JSON");
    const std::string json_path = env != nullptr ? env : "BENCH_campaign.json";

    const auto serial =
        c::CampaignRunner({.workers = 1, .seed = kSeed, .on_progress = {}})
            .run(scenarios);
    if (serial.failures() != 0) {
        std::cerr << "campaign_shard bench: serial reference failed\n"
                  << serial.to_string();
        return 1;
    }

    bool all_match = true;
    for (const unsigned workers : {1u, 2u, 4u}) {
        shard::ShardOptions opt;
        opt.workers = workers;
        opt.seed = kSeed;
        const auto outcome = shard::ShardCoordinator(opt).run(scenarios);
        const bool match = outcome.report.digest() == serial.digest();
        all_match = all_match && match;

        c::BenchEntry entry;
        entry.name = "campaign_shard_w" + std::to_string(workers);
        entry.scenarios = scenarios.size();
        entry.hardware_cores = std::thread::hardware_concurrency();
        entry.workers = workers;
        entry.serial_ms = serial.wall_ms;
        entry.parallel_ms = outcome.report.wall_ms;
        entry.speedup = outcome.report.wall_ms > 0
                            ? serial.wall_ms / outcome.report.wall_ms
                            : 0;
        entry.digest = outcome.report.digest();
        entry.digests_match = match;
        c::write_bench_entry(json_path, entry);

        std::cout << "[campaign_shard] " << scenarios.size() << " scenarios, "
                  << workers << " worker process(es): " << outcome.report.wall_ms
                  << " ms (in-process serial " << serial.wall_ms
                  << " ms), digests " << (match ? "MATCH" : "DIVERGE") << "\n";
    }
    if (!all_match) {
        std::cerr << "campaign_shard bench: DIGEST DIVERGENCE\n";
        return 1;
    }
    return 0;
}
