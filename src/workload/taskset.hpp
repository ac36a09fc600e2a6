#pragma once
// Periodic / sporadic workload generation on top of the RTOS model:
//   - PeriodicTaskSet instantiates classic periodic tasks (offset, period,
//     WCET, deadline) as rtos::Tasks, records per-job response times and
//     detects deadline misses — the paper's "future work" hook of automatic
//     timing-constraint verification by simulation;
//   - uunifast() generates random utilisation vectors for synthetic
//     experiments (Bini & Buttazzo's UUniFast algorithm).

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "analysis/response_time.hpp"
#include "kernel/time.hpp"
#include "rtos/processor.hpp"

namespace rtsc::workload {

struct PeriodicSpec {
    std::string name;
    kernel::Time period{};
    kernel::Time wcet{};
    kernel::Time deadline{};   ///< relative; zero => implicit (== period)
    kernel::Time offset{};     ///< release of the first job
    int priority = 0;
    bool edf_deadlines = false; ///< refresh Task::absolute_deadline per job

    [[nodiscard]] kernel::Time effective_deadline() const noexcept {
        return deadline.is_zero() ? period : deadline;
    }
};

/// Outcome of one released job.
struct JobOutcome {
    std::uint64_t index = 0;
    kernel::Time release{};
    kernel::Time completion{};
    bool missed = false;

    [[nodiscard]] kernel::Time response() const noexcept {
        return completion - release;
    }
};

class PeriodicTaskSet {
public:
    /// Creates one task per spec on the processor. Jobs release at
    /// offset + k*period; each job consumes wcet of CPU and its completion
    /// is checked against the absolute deadline.
    PeriodicTaskSet(rtos::Processor& cpu, std::vector<PeriodicSpec> specs);

    struct TaskResult {
        std::string name;
        std::vector<JobOutcome> jobs;
        kernel::Time max_response{};
        std::uint64_t misses = 0;

        [[nodiscard]] double miss_ratio() const noexcept {
            return jobs.empty() ? 0.0
                                : static_cast<double>(misses) /
                                      static_cast<double>(jobs.size());
        }
    };

    [[nodiscard]] const std::vector<TaskResult>& results() const noexcept {
        return results_;
    }
    [[nodiscard]] const TaskResult* result(const std::string& name) const;
    [[nodiscard]] const std::vector<PeriodicSpec>& specs() const noexcept {
        return specs_;
    }
    [[nodiscard]] std::uint64_t total_misses() const noexcept;

    /// The analysis-layer view of this set (for RTA cross-checks).
    [[nodiscard]] std::vector<analysis::PeriodicTask> to_analysis() const;

private:
    std::vector<PeriodicSpec> specs_;
    std::vector<TaskResult> results_;
};

/// UUniFast: n utilisations that sum to total_u, uniformly distributed over
/// the valid simplex. Deterministic for a given seed.
[[nodiscard]] std::vector<double> uunifast(std::size_t n, double total_u,
                                           std::uint64_t seed);

/// Build a random periodic task set with the given total utilisation.
/// Periods are sampled log-uniformly from [min_period, max_period] and
/// priorities assigned rate-monotonically.
[[nodiscard]] std::vector<PeriodicSpec> random_task_set(
    std::size_t n, double total_u, kernel::Time min_period,
    kernel::Time max_period, std::uint64_t seed);

} // namespace rtsc::workload
