#include "rtos/processor.hpp"

#include "kernel/simulator.hpp"
#include "rtos/procedural_engine.hpp"
#include "rtos/threaded_engine.hpp"

namespace rtsc::rtos {

namespace k = rtsc::kernel;

namespace {
std::unique_ptr<SchedulerEngine> make_engine(Processor& p, EngineKind kind) {
    switch (kind) {
        case EngineKind::procedure_calls: return std::make_unique<ProceduralEngine>(p);
        case EngineKind::rtos_thread: return std::make_unique<ThreadedEngine>(p);
    }
    throw k::SimulationError("unknown EngineKind");
}
} // namespace

Processor::Processor(std::string name, std::unique_ptr<SchedulingPolicy> policy,
                     EngineKind engine)
    : Module(std::move(name)), policy_(std::move(policy)), engine_kind_(engine) {
    if (!policy_)
        throw k::SimulationError("Processor requires a scheduling policy: " +
                                 this->name());
    engine_ = make_engine(*this, engine);
}

Processor::~Processor() = default;

Task& Processor::create_task(TaskConfig config, Task::Body body) {
    if (config.name.empty())
        config.name = name() + ".task" + std::to_string(tasks_.size());
    auto task = std::unique_ptr<Task>(new Task(*this, std::move(config), std::move(body)));
    Task& t = *task;
    tasks_.push_back(std::move(task));
    // Announce creation so timeline recorders can open a row for the task.
    for (Observer* o : observers_)
        o->on_task_state(t, TaskState::created, TaskState::created);
    return t;
}

void Processor::restart_task(Task& t, kernel::Time delay) {
    if (&t.processor() != this)
        throw k::SimulationError("restart_task: task '" + t.name() +
                                 "' belongs to another processor");
    if (!t.terminated())
        throw k::SimulationError("restart_task on a live task: " + t.name() +
                                 " (kill it first)");
    t.prepare_restart(delay);
}

void Processor::set_preemptive(bool on) {
    const bool was_allowed = preemption_allowed();
    preemptive_ = on;
    if (!was_allowed && preemption_allowed()) engine_->recheck_preemption();
}

void Processor::unlock_preemption() {
    if (preemption_lock_depth_ == 0)
        throw k::SimulationError("unlock_preemption without a matching lock: " +
                                 name());
    if (--preemption_lock_depth_ == 0 && preemptive_)
        engine_->recheck_preemption();
}

void Processor::set_dvfs(DvfsModel model) {
    dvfs_ = std::make_unique<DvfsModel>(std::move(model));
    dvfs_level_ = 0;
}

kernel::Time Processor::overhead_duration(OverheadKind kind) const {
    const SystemState state{simulator().now(), engine_->ready_queue().size(),
                            tasks_.size(), this, kind};
    switch (kind) {
        case OverheadKind::scheduling: return overheads_.scheduling.evaluate(state);
        case OverheadKind::context_load: return overheads_.context_load.evaluate(state);
        case OverheadKind::context_save: return overheads_.context_save.evaluate(state);
        case OverheadKind::frequency_switch:
            return overheads_.frequency_switch.evaluate(state);
    }
    return kernel::Time::zero();
}

} // namespace rtsc::rtos
