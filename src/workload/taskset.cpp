#include "workload/taskset.hpp"

#include <algorithm>
#include <cmath>

namespace rtsc::workload {

namespace k = rtsc::kernel;

PeriodicTaskSet::PeriodicTaskSet(rtos::Processor& cpu,
                                 std::vector<PeriodicSpec> specs)
    : specs_(std::move(specs)) {
    results_.resize(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const PeriodicSpec& spec = specs_[i];
        results_[i].name = spec.name;
        TaskResult& result = results_[i];
        rtos::Task& task = cpu.create_task(
            {.name = spec.name,
             .priority = spec.priority,
             .start_time = spec.offset},
            [&result, spec](rtos::Task& self) {
                k::Simulator& sim = self.processor().simulator();
                for (std::uint64_t j = 0;; ++j) {
                    const k::Time release = spec.offset + j * spec.period;
                    const k::Time abs_deadline =
                        release + spec.effective_deadline();
                    // The deadline must be in place BEFORE the task re-enters
                    // the ready queue at its release, or EDF would order the
                    // wake-up by the previous job's (earlier) deadline.
                    if (spec.edf_deadlines) self.set_absolute_deadline(abs_deadline);
                    if (sim.now() < release) self.sleep_until(release);
                    self.compute(spec.wcet);
                    JobOutcome job;
                    job.index = j;
                    job.release = release;
                    job.completion = sim.now();
                    job.missed = job.completion > abs_deadline;
                    result.jobs.push_back(job);
                    result.max_response =
                        std::max(result.max_response, job.response());
                    if (job.missed) ++result.misses;
                }
            });
        // The first job's deadline must already be visible when the task
        // first becomes ready (at spec.offset); the body only runs once
        // dispatched, which under EDF would leave the initial release
        // deadline-less and mis-ordered.
        if (spec.edf_deadlines)
            task.set_absolute_deadline(spec.offset + spec.effective_deadline());
    }
}

const PeriodicTaskSet::TaskResult* PeriodicTaskSet::result(
    const std::string& name) const {
    for (const auto& r : results_)
        if (r.name == name) return &r;
    return nullptr;
}

std::uint64_t PeriodicTaskSet::total_misses() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : results_) n += r.misses;
    return n;
}

std::vector<analysis::PeriodicTask> PeriodicTaskSet::to_analysis() const {
    std::vector<analysis::PeriodicTask> out;
    out.reserve(specs_.size());
    for (const auto& s : specs_)
        out.push_back({s.name, s.period, s.wcet, s.deadline, s.priority,
                       k::Time::zero()});
    return out;
}

std::vector<double> uunifast(std::size_t n, double total_u, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::vector<double> u(n);
    double sum = total_u;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double next =
            sum * std::pow(uni(rng), 1.0 / static_cast<double>(n - 1 - i));
        u[i] = sum - next;
        sum = next;
    }
    if (n > 0) u[n - 1] = sum;
    return u;
}

std::vector<PeriodicSpec> random_task_set(std::size_t n, double total_u,
                                          kernel::Time min_period,
                                          kernel::Time max_period,
                                          std::uint64_t seed) {
    const auto utils = uunifast(n, total_u, seed);
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const double lo = std::log(static_cast<double>(min_period.raw_ps()));
    const double hi = std::log(static_cast<double>(max_period.raw_ps()));

    std::vector<PeriodicSpec> specs(n);
    std::vector<kernel::Time> periods(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto ps = static_cast<k::Time::rep>(
            std::exp(lo + (hi - lo) * uni(rng)));
        // Round to whole microseconds to keep hyperperiods small-ish.
        periods[i] = k::Time::us(std::max<k::Time::rep>(1, ps / 1'000'000u));
        auto wcet_ps = static_cast<k::Time::rep>(
            static_cast<double>(periods[i].raw_ps()) * utils[i]);
        specs[i].name = "task" + std::to_string(i);
        specs[i].period = periods[i];
        specs[i].wcet = k::Time::ps(std::max<k::Time::rep>(1'000, wcet_ps));
    }
    const auto prios = rtos::rate_monotonic_priorities(periods);
    for (std::size_t i = 0; i < n; ++i) specs[i].priority = prios[i];
    return specs;
}

} // namespace rtsc::workload
