#pragma once
// Shared harness for campaign-ported benchmarks: run the scenario list once
// serially and once on a worker pool, check the aggregate reports are
// bit-identical, record the wall times in BENCH_campaign.json (path
// overridable with RTSC_BENCH_JSON), and hand the serial report back for the
// benchmark's own tables.

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"

namespace rtsc::campaign_bench {

struct HarnessOutcome {
    campaign::CampaignReport serial;
    bool digests_match = false;
};

inline HarnessOutcome run_and_record(const std::string& bench_name,
                                     const std::vector<campaign::ScenarioSpec>& scenarios,
                                     std::uint64_t seed) {
    namespace c = rtsc::campaign;
    const unsigned cores = std::thread::hardware_concurrency();
    const unsigned workers = cores > 4 ? cores : 4;

    HarnessOutcome out;
    out.serial =
        c::CampaignRunner({.workers = 1, .seed = seed, .on_progress = {}})
            .run(scenarios);
    const auto parallel =
        c::CampaignRunner({.workers = workers, .seed = seed, .on_progress = {}})
            .run(scenarios);
    out.digests_match = parallel.digest() == out.serial.digest();

    c::BenchEntry entry;
    entry.name = bench_name;
    entry.scenarios = scenarios.size();
    entry.hardware_cores = cores;
    entry.workers = workers;
    entry.serial_ms = out.serial.wall_ms;
    entry.parallel_ms = parallel.wall_ms;
    entry.speedup = parallel.wall_ms > 0 ? out.serial.wall_ms / parallel.wall_ms : 0;
    entry.digest = out.serial.digest();
    entry.digests_match = out.digests_match;
    // Percentile aggregates of every metric the scenarios recorded
    // (ScenarioContext::metric), so benches report p50/p90/p99, not just
    // wall times.
    entry.metrics = out.serial.aggregate_metrics();

    const char* path = std::getenv("RTSC_BENCH_JSON");
    c::write_bench_entry(path != nullptr ? path : "BENCH_campaign.json", entry);

    std::cout << "\n[campaign] " << bench_name << ": " << scenarios.size()
              << " scenarios, serial " << out.serial.wall_ms << " ms, "
              << workers << " workers " << parallel.wall_ms << " ms (speedup "
              << entry.speedup << "x on " << cores << " core(s)), digests "
              << (out.digests_match ? "MATCH" : "DIVERGE") << "\n";
    if (const std::size_t f = out.serial.failures(); f != 0)
        std::cout << "[campaign] WARNING: " << f << " scenario(s) failed\n"
                  << out.serial.to_string();
    return out;
}

} // namespace rtsc::campaign_bench
