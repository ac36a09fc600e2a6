#include "obs/collector.hpp"

#include <algorithm>

#include "obs/attribution.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;

MetricsCollector::~MetricsCollector() {
    // Processors keep raw observer pointers; unsubscribe so a collector with
    // a shorter lifetime than its processors cannot dangle, and unplug the
    // analyzer, whose completion hook points back here.
    for (r::Processor* cpu : attached_) cpu->remove_observer(*this);
    set_attribution(nullptr);
}

void MetricsCollector::attach(r::Processor& cpu) {
    if (attr_ != nullptr) attr_->attach(cpu);
    cpu.add_observer(*this);
    attached_.push_back(&cpu);
    (void)cpu_metrics(cpu); // create the catalogue eagerly: stable snapshots
                            // even for processors that never schedule
}

MetricsCollector::CpuMetrics& MetricsCollector::cpu_metrics(
    const r::Processor& cpu) {
    for (auto& m : cpus_)
        if (m.cpu == &cpu) return m;
    const std::string p = "cpu." + cpu.name() + ".";
    cpus_.push_back({&cpu, &reg_.counter(p + "scheduler_runs"),
                     &reg_.counter(p + "ctx_switches"),
                     &reg_.counter(p + "preemptions"),
                     &reg_.histogram(p + "ready_queue_len"),
                     &reg_.histogram(p + "preempt_depth"),
                     &reg_.histogram(p + "sched_latency_ps"),
                     &reg_.histogram(p + "dispatch_latency_ps")});
    return cpus_.back();
}

MetricsCollector::TaskMetrics& MetricsCollector::task_metrics(
    const r::Task& t) {
    // Transposition scan: a hit swaps one step toward the front, so the
    // busiest tasks (ISRs completing thousands of jobs) quickly settle at
    // the head without paying a full move-to-front rotate per lookup.
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].task != &t) continue;
        if (i == 0) return tasks_[0];
        std::swap(tasks_[i - 1], tasks_[i]);
        return tasks_[i - 1];
    }
    const std::string p = "task." + t.name() + ".";
    tasks_.push_back({&t, &reg_.counter(p + "activations"),
                      &reg_.histogram(p + "response_ps")});
    return tasks_.back();
}

void MetricsCollector::on_scheduler_run(const r::Processor& cpu,
                                        std::size_t ready_len) {
    CpuMetrics& m = cpu_metrics(cpu);
    m.scheduler_runs->inc();
    m.ready_queue_len->record(static_cast<std::uint64_t>(ready_len));
}

void MetricsCollector::on_dispatch(const r::Processor& cpu, const r::Task&,
                                   k::Time sched_latency,
                                   k::Time dispatch_latency) {
    CpuMetrics& m = cpu_metrics(cpu);
    m.ctx_switches->inc();
    m.sched_latency->record(sched_latency);
    m.dispatch_latency->record(dispatch_latency);
}

void MetricsCollector::on_preempt(const r::Processor& cpu, const r::Task&,
                                  std::size_t depth) {
    CpuMetrics& m = cpu_metrics(cpu);
    m.preemptions->inc();
    m.preempt_depth->record(static_cast<std::uint64_t>(depth));
}

MetricsCollector::BlameMetrics& MetricsCollector::blame_metrics(
    const r::Task& t) {
    // Move-to-front scan: job completions cluster per task (ISR tasks in
    // particular complete far more jobs than anyone else), so the hot entry
    // sits at the head.
    for (auto it = blame_order_.begin(); it != blame_order_.end(); ++it) {
        if ((*it)->task == &t) {
            if (it != blame_order_.begin())
                std::rotate(blame_order_.begin(), it, it + 1);
            return *blame_order_.front();
        }
    }
    const std::string p = "task." + t.name() + ".";
    blames_.push_back({&t, p, &reg_.histogram(p + "blame.exec_ps"),
                       &reg_.histogram(p + "blame.preempt_ps"),
                       &reg_.histogram(p + "blame.block_ps"),
                       &reg_.histogram(p + "blame.overhead_ps"),
                       &reg_.histogram(p + "blame.interrupt_ps"),
                       {},
                       {}});
    blame_order_.insert(blame_order_.begin(), &blames_.back());
    return blames_.back();
}

Counter& MetricsCollector::preemptor_counter(BlameMetrics& m,
                                             const r::Task& by) {
    for (auto& [t, c] : m.preempted_by)
        if (t == &by) return *c;
    Counter& c = reg_.counter(m.prefix + "preempted_by." + by.name());
    m.preempted_by.emplace_back(&by, &c);
    return c;
}

Counter& MetricsCollector::culprit_counter(
    std::vector<std::pair<std::string, Counter*>>& cache,
    const std::string& prefix, const char* group, const std::string& name) {
    for (auto& [n, c] : cache)
        if (n == name) return *c;
    Counter& c = reg_.counter(prefix + group + name);
    cache.emplace_back(name, &c);
    return c;
}

void MetricsCollector::set_attribution(Attribution* a) {
    if (attr_ != nullptr) {
        attr_->set_completion_hook_lite(nullptr);
        attr_->collector_ = nullptr;
    }
    attr_ = a;
    if (a == nullptr) return;
    // An analyzer feeds one collector at a time.
    if (a->collector_ != nullptr) a->collector_->set_attribution(nullptr);
    a->collector_ = this;
    for (r::Processor* cpu : attached_) a->attach(*cpu);
    a->set_completion_hook_lite([this](const Attribution::CompletionView& v) {
        BlameMetrics& m = blame_metrics(*v.task);
        // The preemptor view is per-slot (Task identity); the catalogue
        // counts one inc per job per *name* (duplicate-named tasks merge
        // into one counter), so dedup by resolved Counter identity.
        culprits_seen_.clear();
        for (std::size_t i = 0; i < v.preemptor_count; ++i) {
            const r::Task* by = v.preemptors[i].first;
            if (by->isr_task()) continue; // ISR share is `interrupt`
            Counter& c = preemptor_counter(m, *by);
            if (std::find(culprits_seen_.begin(), culprits_seen_.end(), &c) ==
                culprits_seen_.end()) {
                culprits_seen_.push_back(&c);
                c.inc();
            }
        }
        for (std::size_t i = 0; i < v.blocker_count; ++i)
            culprit_counter(m.blocked_on, m.prefix, "blocked_on.",
                            v.blockers[i].first)
                .inc();
        m.exec->record(v.exec);
        m.preempt->record(v.preemption);
        m.block->record(v.blocking);
        m.overhead->record(v.overhead);
        m.interrupt->record(v.interrupt);
        if (v.task->processor().dvfs_enabled()) {
            if (m.energy_exec == nullptr) {
                m.energy_exec = &reg_.gauge(m.prefix + "energy_exec_j");
                m.energy_ov = &reg_.gauge(m.prefix + "energy_overhead_j");
            }
            m.energy_exec->set(r::energy_to_joules(v.energy_exec));
            m.energy_ov->set(r::energy_to_joules(v.energy_overhead));
        }
    });
}

void MetricsCollector::on_task_state(const r::Task& task, r::TaskState from,
                                     r::TaskState to) {
    if (from == to) return; // creation announcement
    // Release: leaving a synchronization wait (or creation) for Ready starts
    // a response episode — same rule as trace::ConstraintMonitor. Completion:
    // the running task blocks again or terminates. Every other transition
    // (dispatch, preemption, resource waits) records nothing, so the metric
    // lookup and the now() query only run on the two episode edges.
    const bool release =
        to == r::TaskState::ready &&
        (from == r::TaskState::waiting || from == r::TaskState::created);
    const bool completion =
        from == r::TaskState::running &&
        (to == r::TaskState::waiting || to == r::TaskState::terminated);
    if (!release && !completion) return;
    TaskMetrics& m = task_metrics(task);
    const k::Time now = task.processor().simulator().now();
    if (release) {
        m.activations->inc();
        m.active = true;
        m.released = now;
        return;
    }
    // A kill/crash leaves the episode open — an aborted activation has no
    // response time.
    if (m.active) {
        m.active = false;
        if (!(to == r::TaskState::terminated &&
              (task.killed() || task.crashed())))
            m.response->record(now - m.released);
    }
}

} // namespace rtsc::obs
