#include "fault/deadline_handler.hpp"

#include <algorithm>

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::fault {

namespace k = rtsc::kernel;

DeadlineMissHandler::DeadlineMissHandler(trace::ConstraintMonitor& monitor)
    : sim_(k::Simulator::current()), wake_("deadline_handler.wake") {
    monitor.set_violation_callback(
        [this](const trace::ConstraintMonitor::Violation& v) {
            on_violation(v);
        });
    agent_ = &sim_.spawn("deadline_handler.agent", [this] { agent_body(); });
    agent_->set_daemon(true);
}

void DeadlineMissHandler::set_policy(rtos::Task& task, RecoveryPolicy policy) {
    for (auto& [t, p] : policies_) {
        if (t == &task) {
            p = policy;
            return;
        }
    }
    policies_.emplace_back(&task, policy);
}

void DeadlineMissHandler::on_violation(
    const trace::ConstraintMonitor::Violation& v) {
    // Called inside a state-transition notification: only enqueue here.
    if (v.task != nullptr) {
        for (auto& [t, p] : policies_) {
            if (t == v.task) {
                pending_.push_back({t, p});
                wake_.notify();
                return;
            }
        }
    }
    ++unhandled_;
}

void DeadlineMissHandler::agent_body() {
    for (;;) {
        while (pending_.empty()) k::wait(wake_);
        // Drain one batch, deduplicating per task: several violations of the
        // same task at one instant warrant one recovery, not a kill storm.
        std::vector<Entry> batch;
        while (!pending_.empty()) {
            Entry e = pending_.front();
            pending_.pop_front();
            const bool seen =
                std::any_of(batch.begin(), batch.end(),
                            [&e](const Entry& b) { return b.task == e.task; });
            if (!seen) batch.push_back(e);
        }
        for (const Entry& e : batch) apply(e);
    }
}

void DeadlineMissHandler::apply(const Entry& e) {
    ++handled_;
    rtos::Task& t = *e.task;
    for (rtos::Observer* o : observers_)
        o->on_marker("deadline", "miss:" + t.name() + " (" +
                                 to_string(e.policy.action) + ")");
    sim_.reporter().report(
        k::Severity::warning,
        "deadline miss on task '" + t.name() + "' at " + sim_.now().to_string() +
            " (action: " + to_string(e.policy.action) + ")");
    switch (e.policy.action) {
        case RecoveryAction::log:
            break;
        case RecoveryAction::kill:
            if (!t.body_finished()) {
                t.kill();
                ++kills_;
            }
            break;
        case RecoveryAction::restart: {
            if (!t.body_finished()) {
                t.kill();
                ++kills_;
            }
            // Restart only once the terminal leave settled (engine-
            // independent instant; see Task::retired_event).
            if (!t.retired()) k::wait(t.retired_event());
            t.processor().restart_task(t, e.policy.restart_delay);
            ++restarts_;
            break;
        }
        case RecoveryAction::demote_priority:
            t.set_base_priority(e.policy.demote_to);
            ++demotions_;
            break;
    }
}

} // namespace rtsc::fault
