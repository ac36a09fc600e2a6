#include "fault/watchdog.hpp"

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::fault {

namespace k = rtsc::kernel;

Watchdog::Watchdog(rtos::Task& task, k::Time deadline, RecoveryPolicy policy)
    : task_(task),
      deadline_(deadline),
      policy_(policy),
      beat_("watchdog." + task.name() + ".beat") {
    proc_ = &task.processor().simulator().spawn(
        "watchdog." + task.name(), [this] { body(); });
    proc_->set_daemon(true);
}

void Watchdog::pet() {
    last_beat_ = task_.processor().simulator().now();
    beat_.notify();
}

void Watchdog::body() {
    k::Simulator& sim = task_.processor().simulator();
    for (;;) {
        const auto reason = sim.wait(deadline_, beat_);
        if (reason == k::Process::WakeReason::event) continue;
        // A task that ended on its own stops being supervised (only the
        // restart policy has business with a dead task).
        if (task_.body_finished() && policy_.action != RecoveryAction::restart)
            return;
        fire();
        if (policy_.action == RecoveryAction::kill) {
            // The corpse stays dead: wait out the unwind and stop, so the
            // watchdog does not fire forever against it.
            if (!task_.retired()) k::wait(task_.retired_event());
            return;
        }
    }
}

void Watchdog::fire() {
    ++timeouts_;
    k::Simulator& sim = task_.processor().simulator();
    for (rtos::Observer* o : observers_)
        o->on_marker("watchdog", "timeout:" + task_.name() + " (" +
                                         to_string(policy_.action) + ")");
    sim.reporter().report(
        k::Severity::warning,
        "watchdog timeout on task '" + task_.name() + "' at " +
            sim.now().to_string() + " (action: " + to_string(policy_.action) +
            ")");
    switch (policy_.action) {
        case RecoveryAction::log:
            break;
        case RecoveryAction::kill:
            if (!task_.body_finished()) task_.kill();
            break;
        case RecoveryAction::restart: {
            if (!task_.body_finished()) task_.kill();
            // Restart only once the terminal leave settled (engine-
            // independent instant; see Task::retired_event).
            if (!task_.retired()) k::wait(task_.retired_event());
            task_.processor().restart_task(task_, policy_.restart_delay);
            break;
        }
        case RecoveryAction::demote_priority:
            task_.set_base_priority(policy_.demote_to);
            break;
    }
}

} // namespace rtsc::fault
