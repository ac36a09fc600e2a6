#pragma once
// MetricsCollector: an rtos::Observer turning engine events into metrics.
// Attach it to one or more Processors and it populates a MetricsRegistry
// with the standard catalogue (docs/OBSERVABILITY.md):
//
//   cpu.<name>.scheduler_runs        counter   scheduling passes
//   cpu.<name>.ctx_switches         counter   Ready -> Running dispatches
//   cpu.<name>.preemptions          counter   involuntary Running -> Ready
//   cpu.<name>.ready_queue_len      histogram queue length per scheduling pass
//   cpu.<name>.preempt_depth        histogram preempted tasks in queue per preemption
//   cpu.<name>.sched_latency_ps     histogram Ready -> Running wait, ps
//   cpu.<name>.dispatch_latency_ps  histogram grant -> Running tail, ps
//   task.<name>.response_ps         histogram activation -> completion, ps
//   task.<name>.activations         counter   release count
//
// With an Attribution analyzer plugged in (set_attribution) the catalogue
// grows per-job blame metrics:
//
//   task.<n>.preempted_by.<m>       counter   jobs of n delayed by task m
//   task.<n>.blocked_on.<r>         counter   jobs of n blocked on relation r
//   task.<n>.blame.exec_ps          histogram own-execution share per job
//   task.<n>.blame.preempt_ps       histogram preemption share per job
//   task.<n>.blame.block_ps         histogram blocking share per job
//   task.<n>.blame.overhead_ps      histogram RTOS overhead share per job
//   task.<n>.blame.interrupt_ps     histogram ISR-stolen share per job
//
// On DVFS-enabled processors (Processor::set_dvfs) two per-job energy gauges
// join the catalogue, in joules (mean/min/max/last over the task's jobs):
//
//   task.<n>.energy_exec_j          gauge     job execution energy
//   task.<n>.energy_overhead_j      gauge     job attributed-overhead energy
//
// All values are simulated-time quantities: the registry contents are
// engine-equivalent (procedural vs threaded) and bit-identical across runs.
// When nothing observes a processor its hook sites cost one untaken branch
// each (rtos/observer.hpp).

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "rtos/observer.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::obs {

class Attribution;

class MetricsCollector final : public rtos::Observer {
public:
    explicit MetricsCollector(MetricsRegistry& registry) : reg_(registry) {}

    MetricsCollector(const MetricsCollector&) = delete;
    MetricsCollector& operator=(const MetricsCollector&) = delete;
    ~MetricsCollector() override;

    /// Subscribe this collector — and the analyzer plugged in with
    /// set_attribution, if any — to `cpu`'s events. Call before
    /// Simulator::run(). Destroying the collector unsubscribes it.
    void attach(rtos::Processor& cpu);

    [[nodiscard]] MetricsRegistry& registry() noexcept { return reg_; }

    /// Plug in a causal-latency analyzer: its job completions feed the
    /// task.<n>.preempted_by.* / blocked_on.* counters and blame histograms,
    /// and the collector subscribes it to every processor the collector is
    /// attached to, before or after this call. Attaching the analyzer
    /// directly as well is harmless (each event still reaches it once).
    /// Pass nullptr to stop recording blame; the analyzer stays subscribed.
    /// Destroying either side unplugs it.
    void set_attribution(Attribution* a);

    // rtos::Observer
    void on_scheduler_run(const rtos::Processor& cpu,
                          std::size_t ready_len) override;
    void on_dispatch(const rtos::Processor& cpu, const rtos::Task& t,
                     kernel::Time sched_latency,
                     kernel::Time dispatch_latency) override;
    void on_preempt(const rtos::Processor& cpu, const rtos::Task& t,
                    std::size_t depth) override;
    void on_task_state(const rtos::Task& task, rtos::TaskState from,
                       rtos::TaskState to) override;

private:
    struct CpuMetrics {
        const rtos::Processor* cpu;
        Counter* scheduler_runs;
        Counter* ctx_switches;
        Counter* preemptions;
        Histogram* ready_queue_len;
        Histogram* preempt_depth;
        Histogram* sched_latency;
        Histogram* dispatch_latency;
    };
    struct TaskMetrics {
        const rtos::Task* task;
        Counter* activations;
        Histogram* response;
        bool active = false;       ///< a response episode is open
        kernel::Time released{};
    };
    /// Cached blame-metric pointers for one completing task. The completion
    /// hook fires once per job — resolving five histograms plus per-culprit
    /// counters through string-keyed registry lookups every time dominated
    /// the attribution overhead, so the pointers are resolved once and the
    /// per-culprit counters accumulate in small name-keyed caches. Keyed by
    /// Task identity; two tasks sharing a name get two cache entries whose
    /// pointers land on the same registry objects, preserving the name-merged
    /// catalogue.
    struct BlameMetrics {
        const rtos::Task* task;
        Histogram* exec;
        Histogram* preempt;
        Histogram* block;
        Histogram* overhead;
        Histogram* interrupt;
        std::vector<std::pair<std::string, Counter*>> preempted_by;
        std::vector<std::pair<std::string, Counter*>> blocked_on;
        /// Resolved on first job of a DVFS processor only — non-DVFS runs
        /// keep the catalogue free of dead-zero energy metrics.
        Gauge* energy_exec = nullptr;
        Gauge* energy_ov = nullptr;
    };

    [[nodiscard]] CpuMetrics& cpu_metrics(const rtos::Processor& cpu);
    /// The task's response metrics, or nullptr before its first release.
    [[nodiscard]] TaskMetrics* find_task_metrics(const rtos::Task& t);
    [[nodiscard]] BlameMetrics& blame_metrics(const rtos::Task& t);
    [[nodiscard]] Counter& culprit_counter(
        std::vector<std::pair<std::string, Counter*>>& cache,
        const rtos::Task& t, std::string_view group, const std::string& name);
    /// "<kind><owner>.<field>" built in name_, which the view shows until
    /// the next call: every metric name is built in that one buffer.
    [[nodiscard]] std::string_view metric_name(std::string_view kind,
                                               std::string_view owner,
                                               std::string_view field);

    MetricsRegistry& reg_;
    std::string name_; ///< metric_name's buffer
    std::vector<CpuMetrics> cpus_;
    std::vector<TaskMetrics> tasks_;
    std::deque<BlameMetrics> blames_; ///< deque: blame_order_ holds pointers,
                                      ///< growth must not invalidate them
    std::vector<BlameMetrics*> blame_order_; ///< move-to-front scan order

    std::vector<rtos::Processor*> attached_;
    Attribution* attr_ = nullptr;
};

} // namespace rtsc::obs
