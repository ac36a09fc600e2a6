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
    const auto counter = [&](std::string_view field) {
        return &reg_.counter(metric_name("cpu.", cpu.name(), field));
    };
    const auto histogram = [&](std::string_view field) {
        return &reg_.histogram(metric_name("cpu.", cpu.name(), field));
    };
    cpus_.push_back({&cpu, counter("scheduler_runs"), counter("ctx_switches"),
                     counter("preemptions"), histogram("ready_queue_len"),
                     histogram("preempt_depth"), histogram("sched_latency_ps"),
                     histogram("dispatch_latency_ps")});
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
    const auto histogram = [&](std::string_view field) {
        return &reg_.histogram(metric_name("task.", t.name(), field));
    };
    blames_.push_back({&t, histogram("blame.exec_ps"),
                       histogram("blame.preempt_ps"),
                       histogram("blame.block_ps"),
                       histogram("blame.overhead_ps"),
                       histogram("blame.interrupt_ps"),
                       {},
                       {}});
    blame_order_.insert(blame_order_.begin(), &blames_.back());
    return blames_.back();
}

std::string_view MetricsCollector::metric_name(std::string_view kind,
                                              std::string_view owner,
                                              std::string_view field) {
    name_.assign(kind).append(owner).append(1, '.').append(field);
    return name_;
}

Counter& MetricsCollector::culprit_counter(
    std::vector<std::pair<std::string, Counter*>>& cache, const r::Task& t,
    std::string_view group, const std::string& name) {
    for (auto& [n, c] : cache)
        if (n == name) return *c;
    (void)metric_name("task.", t.name(), group);
    name_.append(name);
    Counter& c = reg_.counter(name_);
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
            culprit_counter(m.preempted_by, *v.task, "preempted_by.",
                            by->name())
                .inc();
        for (const auto& [name, share] : v.blocked_on)
            culprit_counter(m.blocked_on, *v.task, "blocked_on.", name).inc();
        const Attribution::JobBlame& b = v.blame;
        m.exec->record(b.exec);
        m.preempt->record(b.preemption);
        m.block->record(b.blocking);
        m.overhead->record(b.overhead);
        m.interrupt->record(b.interrupt);
        if (v.task->processor().dvfs_enabled()) {
            if (m.energy_exec == nullptr) {
                m.energy_exec =
                    &reg_.gauge(metric_name("task.", v.task->name(),
                                            "energy_exec_j"));
                m.energy_ov = &reg_.gauge(
                    metric_name("task.", v.task->name(), "energy_overhead_j"));
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
            // A braced list runs in order: each name is registered before
            // the buffer is reused.
            m = &tasks_.emplace_back(TaskMetrics{
                &task,
                &reg_.counter(metric_name("task.", task.name(), "activations")),
                &reg_.histogram(
                    metric_name("task.", task.name(), "response_ps"))});
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
