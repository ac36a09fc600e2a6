#include "rtos/task.hpp"

#include "kernel/simulator.hpp"
#include "rtos/engine.hpp"
#include "rtos/processor.hpp"

namespace rtsc::rtos {

namespace k = rtsc::kernel;

Task* current_task() noexcept {
    k::Simulator* sim = k::Simulator::current_or_null();
    if (sim == nullptr) return nullptr;
    k::Process* p = sim->current_process();
    return p != nullptr ? static_cast<Task*>(p->user_data) : nullptr;
}

Task::Task(Processor& processor, TaskConfig config, Body body)
    : processor_(processor),
      config_(std::move(config)),
      body_(std::move(body)),
      ev_run_(config_.name + ".TaskRun"),
      ev_preempt_(config_.name + ".TaskPreempt"),
      ev_ack_(config_.name + ".TaskAck"),
      ev_retired_(config_.name + ".TaskRetired"),
      start_delay_(config_.start_time) {
    state_since_ = processor_.simulator().now();
    spawn_process();
}

Task::~Task() = default;

void Task::spawn_process() {
    proc_ = &processor_.simulator().spawn(config_.name, [this] { run_body(); },
                                          config_.stack_bytes);
    proc_->user_data = this;
    proc_->set_daemon(daemon_);
}

void Task::set_daemon(bool on) {
    daemon_ = on;
    proc_->set_daemon(on);
}

void Task::run_body() {
    SchedulerEngine& eng = processor_.engine();
    // The engine bookkeeping consumes simulated time (charge waits), so it
    // must run *after* the catch blocks: yielding the coroutine while an
    // exception is live would corrupt the thread-local C++ EH state shared
    // by every coroutine on this OS thread.
    enum class Exit : std::uint8_t { normal, killed, crashed } exit = Exit::normal;
    std::string diagnostic;
    try {
        eng.start_task(*this);
        body_(*this);
    } catch (const kernel::ProcessKilled&) {
        exit = Exit::killed;
    } catch (const std::exception& e) {
        exit = Exit::crashed;
        diagnostic = e.what();
    } catch (...) {
        exit = Exit::crashed;
        diagnostic = "unknown exception type";
    }
    switch (exit) {
        case Exit::normal:
            eng.finish_task(*this);
            break;
        case Exit::killed:
            eng.on_body_unwound(*this, /*crashed=*/false);
            break;
        case Exit::crashed:
            processor_.simulator().reporter().report(
                kernel::Severity::warning,
                "task '" + name() + "' terminated by unhandled exception: " +
                    diagnostic);
            eng.on_body_unwound(*this, /*crashed=*/true);
            break;
    }
}

void Task::kill() { processor_.engine().kill(*this); }

void Task::prepare_restart(kernel::Time delay) {
    killed_ = false;
    crashed_ = false;
    retired_ = false;
    granted_ = false;
    kicked_ = false;
    preempt_pending_ = false;
    preempt_reason_ = PreemptReason::none;
    entered_ready_preempted_ = false;
    redispatch_on_unwind_ = false;
    boosted_ = false;
    has_deadline_ = false;
    ev_run_.cancel();
    ev_preempt_.cancel();
    ev_ack_.cancel();
    ev_retired_.cancel();
    ++restarts_;
    start_delay_ = delay;
    set_state(TaskState::created);
    spawn_process();
}

void Task::set_state(TaskState s) {
    const k::Time now = processor_.simulator().now();
    const k::Time d = now - state_since_;
    switch (state_) {
        case TaskState::running: stats_.running_time += d; break;
        case TaskState::ready:
            if (entered_ready_preempted_)
                stats_.preempted_time += d;
            else
                stats_.ready_time += d;
            break;
        case TaskState::waiting: stats_.waiting_time += d; break;
        case TaskState::waiting_resource: stats_.waiting_resource_time += d; break;
        case TaskState::created:
        case TaskState::terminated: break;
    }
    const TaskState old = state_;
    state_ = s;
    state_since_ = now;
    if (s == TaskState::running) ++stats_.dispatches;
    for (Observer* o : processor_.observers()) o->on_task_state(*this, old, s);
}

void Task::set_base_priority(int p) {
    config_.priority = p;
    processor_.engine().on_priority_changed(*this);
}

void Task::inherit_priority(int p) {
    boosted_ = true;
    boost_priority_ = p;
    processor_.engine().requeue_ready(*this);
}

void Task::restore_base_priority() {
    boosted_ = false;
    processor_.engine().requeue_ready(*this);
}

void Task::set_absolute_deadline(kernel::Time t) {
    deadline_ = t;
    has_deadline_ = true;
    processor_.engine().requeue_ready(*this);
}

void Task::clear_deadline() {
    has_deadline_ = false;
    processor_.engine().requeue_ready(*this);
}

void Task::compute(k::Time duration) {
    // The compute hook is applied inside consume(), after DVFS scaling, so
    // the scale-then-jitter order is identical in both engines.
    processor_.engine().consume(*this, duration);
}

void Task::sleep_for(k::Time duration) { processor_.engine().sleep_for(*this, duration); }

void Task::sleep_until(k::Time wake_at) {
    const k::Time now = processor_.simulator().now();
    sleep_for(k::Time::sat_sub(wake_at, now));
}

void Task::yield_cpu() { processor_.engine().yield_cpu(*this); }

} // namespace rtsc::rtos
