#pragma once
// Processor: a software execution resource running a set of Tasks under an
// RTOS — the central class of the paper's model (Figure 1). It aggregates
//   - the scheduling policy (pluggable strategy, or override the virtual
//     scheduling_policy() method as the paper suggests),
//   - the preemptive / non-preemptive mode, changeable during simulation to
//     model critical regions (§3.1),
//   - the three overhead parameters of §3.2,
//   - the scheduler engine: procedure-call based (§4.2, default) or with a
//     dedicated RTOS thread (§4.1).

#include <memory>
#include <string>
#include <vector>

#include "kernel/module.hpp"
#include "rtos/dvfs.hpp"
#include "rtos/engine.hpp"
#include "rtos/observer.hpp"
#include "rtos/overhead.hpp"
#include "rtos/policy.hpp"
#include "rtos/task.hpp"

namespace rtsc::rtos {

/// Which of the paper's two RTOS model implementations to use.
enum class EngineKind {
    procedure_calls, ///< §4.2: RTOS primitives run in the tasks' threads (fast)
    rtos_thread,     ///< §4.1: a dedicated scheduler thread (more switches)
};

class Processor : public kernel::Module {
public:
    explicit Processor(std::string name,
                       std::unique_ptr<SchedulingPolicy> policy =
                           std::make_unique<PriorityPreemptivePolicy>(),
                       EngineKind engine = EngineKind::procedure_calls);
    ~Processor() override;

    // ---- task management ----
    Task& create_task(TaskConfig config, Task::Body body);
    [[nodiscard]] const std::vector<std::unique_ptr<Task>>& tasks() const noexcept {
        return tasks_;
    }

    /// Bring a terminated task (normal end, kill() or crash) back to life
    /// with a fresh incarnation of its body, released after `delay` of
    /// simulated time. Statistics accumulate across incarnations;
    /// Task::restarts() counts them. Throws if the task is still alive or
    /// belongs to another processor.
    void restart_task(Task& t, kernel::Time delay = kernel::Time::zero());

    // ---- scheduling policy ----
    [[nodiscard]] SchedulingPolicy& policy() const noexcept { return *policy_; }
    /// The paper's extension point: "designers can define their own policies
    /// by overloading the SchedulingPolicy method of our Processor class".
    /// Defaults to delegating to the policy strategy object. For ordering-
    /// aware policies (SchedulingPolicy::ordered()) the engine keeps `ready`
    /// sorted in dispatch order, so the decision is O(1) from the front; an
    /// override sees the queue in that same dispatch order — install a
    /// non-ordered policy (e.g. FifoPolicy) to get arrival order instead.
    [[nodiscard]] virtual Task* scheduling_policy(const ReadyQueue& ready) const {
        if (policy_->ordered()) return ready.empty() ? nullptr : ready.front();
        return policy_->select(ready);
    }
    [[nodiscard]] virtual bool should_preempt(const Task& candidate,
                                              const Task& running) const {
        return policy_->should_preempt(candidate, running);
    }

    // ---- preemptive mode (runtime-switchable, §3.1) ----
    /// Preemption happens only when the mode is preemptive AND no preemption
    /// lock is held.
    [[nodiscard]] bool preemption_allowed() const noexcept {
        return preemptive_ && preemption_lock_depth_ == 0;
    }
    [[nodiscard]] bool preemptive_mode() const noexcept { return preemptive_; }
    void set_preemptive(bool on);
    /// Critical-region support: nestable preemption lock.
    void lock_preemption() noexcept { ++preemption_lock_depth_; }
    void unlock_preemption();

    /// RAII critical region: disables preemption for the guard's lifetime.
    class PreemptionGuard {
    public:
        explicit PreemptionGuard(Processor& p) : p_(p) { p_.lock_preemption(); }
        ~PreemptionGuard() { p_.unlock_preemption(); }
        PreemptionGuard(const PreemptionGuard&) = delete;
        PreemptionGuard& operator=(const PreemptionGuard&) = delete;

    private:
        Processor& p_;
    };

    // ---- RTOS overheads (§3.2) ----
    void set_overheads(RtosOverheads ov) noexcept { overheads_ = std::move(ov); }
    [[nodiscard]] const RtosOverheads& overheads() const noexcept { return overheads_; }
    [[nodiscard]] kernel::Time overhead_duration(OverheadKind kind) const;

    // ---- DVFS (optional; rtos/dvfs.hpp) ----
    /// Install a DVFS model. The processor starts at level 0 (full speed).
    /// Must be called before the simulation runs — switching models mid-run
    /// would corrupt the energy ledger.
    void set_dvfs(DvfsModel model);
    [[nodiscard]] bool dvfs_enabled() const noexcept { return dvfs_ != nullptr; }
    /// The installed model; only valid when dvfs_enabled().
    [[nodiscard]] const DvfsModel& dvfs() const noexcept { return *dvfs_; }
    [[nodiscard]] std::size_t dvfs_level() const noexcept { return dvfs_level_; }
    /// Dynamic power at the current level (kHz·mV²); 0 with no model.
    [[nodiscard]] std::uint64_t dvfs_power() const noexcept {
        return dvfs_ ? dvfs_->power(dvfs_level_) : 0;
    }
    /// Stretch a full-speed duration to the current level (identity with no
    /// model installed or at full speed).
    [[nodiscard]] kernel::Time dvfs_scale(kernel::Time d) const noexcept {
        return dvfs_ ? dvfs_->scale(d, dvfs_level_) : d;
    }

    /// Per-CPU energy ledger (model units, rtos/dvfs.hpp), folded by the
    /// engine. Conservation: busy == Σ task energy_exec() and
    /// overhead == Σ task energy_overhead() + unattributed, bit-exactly.
    struct EnergyLedger {
        Energy busy = 0;         ///< running phase (a task executing)
        Energy overhead = 0;     ///< overhead phase (RTOS charges); idle is free
        Energy unattributed = 0; ///< overhead charges with no `about` task
        [[nodiscard]] Energy total() const noexcept { return busy + overhead; }
    };
    [[nodiscard]] const EnergyLedger& energy() const noexcept { return energy_; }

    // ---- engine / runtime state ----
    [[nodiscard]] SchedulerEngine& engine() noexcept { return *engine_; }
    [[nodiscard]] const SchedulerEngine& engine() const noexcept { return *engine_; }
    [[nodiscard]] EngineKind engine_kind() const noexcept { return engine_kind_; }
    [[nodiscard]] Task* running_task() const noexcept { return engine_->running(); }
    [[nodiscard]] const ReadyQueue& ready_queue() const noexcept {
        return engine_->ready_queue();
    }

    // ---- observers (rtos/observer.hpp) ----
    /// Subscribe `obs` to this processor's task-state, overhead and engine
    /// events; a no-op when it is already subscribed.
    void add_observer(Observer& obs) { observers_.add(obs); }
    void remove_observer(Observer& obs) noexcept { observers_.remove(obs); }
    [[nodiscard]] const ObserverList& observers() const noexcept {
        return observers_;
    }

private:
    friend class SchedulerEngine; // level application + energy folding

    std::unique_ptr<SchedulingPolicy> policy_;
    EngineKind engine_kind_;
    std::unique_ptr<SchedulerEngine> engine_;
    std::vector<std::unique_ptr<Task>> tasks_;
    ObserverList observers_;
    RtosOverheads overheads_;
    bool preemptive_ = true;
    int preemption_lock_depth_ = 0;

    // DVFS state (engine-managed once the simulation runs)
    std::unique_ptr<DvfsModel> dvfs_;
    std::size_t dvfs_level_ = 0;
    EnergyLedger energy_;
};

} // namespace rtsc::rtos
