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

MetricsCollector::TaskMetrics* MetricsCollector::find_task_metrics(
    const r::Task& t) {
    // Transposition scan: a hit swaps one step toward the front, so the
    // busiest tasks (ISRs completing thousands of jobs) quickly settle at
    // the head without paying a full move-to-front rotate per lookup.
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].task != &t) continue;
        if (i == 0) return &tasks_[0];
        std::swap(tasks_[i - 1], tasks_[i]);
        return &tasks_[i - 1];
    }
    return nullptr;
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
        attr_->set_completion_hook(nullptr);
        attr_->collector_ = nullptr;
    }
    attr_ = a;
    if (a == nullptr) return;
    // An analyzer feeds one collector at a time.
    if (a->collector_ != nullptr) a->collector_->set_attribution(nullptr);
    a->collector_ = this;
    for (r::Processor* cpu : attached_) a->attach(*cpu);
    a->set_completion_hook([this](const Attribution::JobView& v) {
        BlameMetrics& m = blame_metrics(*v.task);
        // One inc per job per name: the view merges same-named preemptors
        // and resources, and leaves the ISR share to `interrupt`.
        for (const auto& [by, share] : v.preempted_by)
            culprit_counter(m.preempted_by, m.prefix, "preempted_by.",
                            by->name())
                .inc();
        for (const auto& [name, share] : v.blocked_on)
            culprit_counter(m.blocked_on, m.prefix, "blocked_on.", name).inc();
        const Attribution::JobBlame& b = v.blame;
        m.exec->record(b.exec);
        m.preempt->record(b.preemption);
        m.block->record(b.blocking);
        m.overhead->record(b.overhead);
        m.interrupt->record(b.interrupt);
        if (v.task->processor().dvfs_enabled()) {
            if (m.energy_exec == nullptr) {
                m.energy_exec = &reg_.gauge(m.prefix + "energy_exec_j");
                m.energy_ov = &reg_.gauge(m.prefix + "energy_overhead_j");
            }
            m.energy_exec->set(r::energy_to_joules(b.energy_exec));
            m.energy_ov->set(r::energy_to_joules(b.energy_overhead));
        }
    });
}

void MetricsCollector::on_task_state(const r::Task& task, r::TaskState from,
                                     r::TaskState to) {
    // Only a job edge records anything, so the metric lookup and the now()
    // query run on those alone.
    const r::JobEdge edge = r::job_edge(task, from, to);
    if (edge == r::JobEdge::none) return;
    TaskMetrics* m = find_task_metrics(task);
    const k::Time now = task.processor().simulator().now();
    if (edge == r::JobEdge::release) {
        if (m == nullptr) {
            const std::string p = "task." + task.name() + ".";
            m = &tasks_.emplace_back(TaskMetrics{
                &task, &reg_.counter(p + "activations"),
                &reg_.histogram(p + "response_ps")});
        }
        m->activations->inc();
        m->active = true;
        m->released = now;
        return;
    }
    // An aborted activation closes its episode without a response time.
    if (m == nullptr || !m->active) return;
    m->active = false;
    if (edge == r::JobEdge::completion) m->response->record(now - m->released);
}

} // namespace rtsc::obs
