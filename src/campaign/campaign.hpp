#pragma once
// Campaign runner: fan N independent, parameterized simulation scenarios over
// a pool of worker threads.
//
// The paper's procedural RTOS engine (§4.2) exists to make *many* simulation
// runs affordable — design-space exploration sweeps overheads x policies x
// speeds, schedulability studies run hundreds of random task sets, fault
// campaigns replay seeded fault plans. Every scenario builds its own
// kernel::Simulator, and the kernel binds the active simulator per thread
// (Simulator::current() is thread_local), so independent scenarios can run
// truly concurrently — one simulator per worker thread, zero shared state.
//
// Contract (see docs/CAMPAIGN.md):
//   - determinism: each scenario receives a seed derived only from the
//     campaign seed and its submission index. The aggregate CampaignReport
//     is ordered by submission index and its digest() covers only
//     deterministic fields, so the report is bit-identical for any worker
//     count — parallelism can never change the science, only the wall time;
//   - failure isolation: a scenario that throws is recorded as failed
//     (ok == false, error == failure_description(e)) and the rest of the
//     campaign proceeds;
//   - thread safety: scenario bodies must not touch shared mutable state.
//     Build the Simulator and the whole model inside the body, on the
//     worker's stack; return data via ScenarioContext metrics/notes.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace rtsc::campaign {

/// SplitMix64 step — the per-scenario seed stream. Deterministic, cheap, and
/// well-distributed even for consecutive indices.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// The seed scenario `index` receives under campaign seed `campaign_seed`.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                                  std::uint64_t index) noexcept {
    return splitmix64(campaign_seed ^ splitmix64(index));
}

struct ScenarioSpec;
struct ScenarioResult;

/// Handed to the scenario body: its identity, its deterministic seed, and
/// the sink for result data. One context per scenario, used by one worker
/// thread only — no locking needed inside the body.
class ScenarioContext {
public:
    ScenarioContext(std::size_t index, std::uint64_t seed)
        : index_(index), seed_(seed) {}

    ScenarioContext(const ScenarioContext&) = delete;
    ScenarioContext& operator=(const ScenarioContext&) = delete;

    [[nodiscard]] std::size_t index() const noexcept { return index_; }
    /// Deterministic per-scenario seed — use it for every random choice in
    /// the scenario (task-set generation, fault plans) so the campaign
    /// replays exactly.
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    /// Record a named numeric result (latency, miss count, ...). Order is
    /// preserved and part of the deterministic digest.
    void metric(std::string name, double value) {
        metrics_.emplace_back(std::move(name), value);
    }
    /// Record a named string result (a verdict, a constraint report, ...).
    void note(std::string name, std::string value) {
        notes_.emplace_back(std::move(name), std::move(value));
    }

private:
    friend class CampaignRunner;
    friend ScenarioResult run_scenario(const ScenarioSpec&, std::size_t,
                                       std::uint64_t);
    std::size_t index_;
    std::uint64_t seed_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
};

/// One parameterized scenario: a name for the report and a body that builds
/// and runs its own Simulator.
struct ScenarioSpec {
    std::string name;
    std::function<void(ScenarioContext&)> body;
};

/// Structured description of the in-flight exception: demangled dynamic type
/// plus what() ("std::runtime_error: boom"), or "unknown exception type" for
/// non-std::exception throws. Every runner — serial, threaded, sharded —
/// records scenario failures through this one function so their reports (and
/// digests) agree on failure entries.
[[nodiscard]] std::string failure_description(const std::exception& e);

/// Outcome of one scenario.
struct ScenarioResult {
    std::string name;
    std::size_t index = 0;
    std::uint64_t seed = 0;
    bool ok = false;
    std::string error;  ///< exception message when !ok
    double wall_ms = 0; ///< host wall time (measurement only, not digested)
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, std::string>> notes;
};

/// Cross-scenario aggregate of one named metric (see
/// CampaignReport::aggregate_metrics). Percentiles are exact nearest-rank
/// values over the sorted per-scenario samples.
struct MetricSummary {
    std::string name;
    std::size_t count = 0; ///< how many scenario results reported the metric
    double min = 0;
    double max = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
};

/// Aggregate of a whole campaign, ordered by submission index.
struct CampaignReport {
    std::uint64_t seed = 0;
    unsigned workers = 0;
    double wall_ms = 0; ///< whole campaign host wall time
    std::vector<ScenarioResult> results;

    [[nodiscard]] std::size_t failures() const noexcept;
    [[nodiscard]] const ScenarioResult* find(const std::string& name) const;

    /// FNV-1a 64-bit digest over the deterministic content: names, indices,
    /// seeds, ok/error, metrics and notes — NOT wall times or worker count.
    /// Equal digests across worker counts certify the aggregate is
    /// bit-identical to the serial order.
    [[nodiscard]] std::uint64_t digest() const;

    /// Summarise every named metric across all scenario results (failed
    /// scenarios contribute whatever they managed to record). Returned
    /// sorted by name; deterministic — a pure function of the digested
    /// metric values, so it is identical for any worker count.
    [[nodiscard]] std::vector<MetricSummary> aggregate_metrics() const;

    /// Human-readable summary (one line per scenario + failure tally).
    [[nodiscard]] std::string to_string() const;
    /// "scenario,index,seed,ok,metric,value" rows for spreadsheet analysis.
    [[nodiscard]] std::string to_csv() const;
};

/// Run one scenario to completion on the calling thread, exactly as every
/// runner does it: derive the seed, time the body, isolate exceptions into a
/// structured failed entry (failure_description). The single definition of
/// "execute a scenario" — the thread-pool runner and the sharded worker both
/// call this, which is what makes their reports digest-identical.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          std::size_t index,
                                          std::uint64_t campaign_seed);

/// Progress callback payload: fired once per completed scenario, under the
/// runner's lock (callbacks never race each other).
struct Progress {
    std::size_t completed = 0; ///< scenarios finished so far
    std::size_t total = 0;
    const ScenarioResult& last; ///< the scenario that just finished
};

class CampaignRunner {
public:
    struct Options {
        /// Worker threads; 0 = std::thread::hardware_concurrency(). Clamped
        /// to the scenario count. 1 reproduces strictly serial execution.
        unsigned workers = 0;
        /// Campaign master seed: the only source of scenario randomness.
        std::uint64_t seed = 0;
        /// Optional per-completion callback (see Progress).
        std::function<void(const Progress&)> on_progress;
    };

    CampaignRunner() = default;
    explicit CampaignRunner(Options opt) : opt_(std::move(opt)) {}

    /// Run all scenarios on worker threads and aggregate their results.
    /// Blocks until the last scenario finished; scenario failures are
    /// contained in the report, a worker is never torn down by a throwing
    /// scenario.
    [[nodiscard]] CampaignReport run(const std::vector<ScenarioSpec>& scenarios) const;

private:
    Options opt_;
};

} // namespace rtsc::campaign
