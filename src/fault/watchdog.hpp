#pragma once
// Watchdog: per-task heartbeat supervision, modelled on hardware/OS watchdog
// timers. The supervised task calls pet() from its body; if the gap between
// consecutive heartbeats exceeds the deadline, the watchdog fires and applies
// its RecoveryPolicy (log / kill / restart / demote_priority).
//
// The watchdog runs in its own daemon kernel process, so firing — even
// killing the supervised task mid-compute — happens from a safe scheduler
// context, never from inside an RTOS engine transition.

#include <cstdint>
#include <string>

#include "fault/recovery.hpp"
#include "kernel/event.hpp"
#include "kernel/time.hpp"
#include "rtos/observer.hpp"

namespace rtsc::kernel {
class Process;
}

namespace rtsc::fault {

class Watchdog {
public:
    /// Supervise `task`: it must pet() at least every `deadline` of simulated
    /// time, starting when the simulation starts.
    Watchdog(rtos::Task& task, kernel::Time deadline,
             RecoveryPolicy policy = {});

    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// Heartbeat. Callable from any simulation context (usually the
    /// supervised task's own body).
    void pet();

    [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
    [[nodiscard]] kernel::Time last_beat() const noexcept { return last_beat_; }
    [[nodiscard]] const RecoveryPolicy& policy() const noexcept { return policy_; }

    /// Report every timeout as an instant marker ("watchdog" category) to
    /// `obs` (Observer::on_marker); a no-op when it is already subscribed.
    /// The observer must outlive the watchdog.
    void add_observer(rtos::Observer& obs) { observers_.add(obs); }

private:
    void body();
    void fire();

    rtos::Task& task_;
    kernel::Time deadline_;
    RecoveryPolicy policy_;
    kernel::Event beat_;
    kernel::Time last_beat_{};
    std::uint64_t timeouts_ = 0;
    kernel::Process* proc_ = nullptr;
    rtos::ObserverList observers_;
};

} // namespace rtsc::fault
