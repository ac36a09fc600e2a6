#pragma once
// DeadlineMissHandler: reacts to trace::ConstraintMonitor violations with a
// per-task RecoveryPolicy (log / kill / restart / demote_priority).
//
// ConstraintMonitor's violation callback fires synchronously inside a task
// state transition — possibly on the violating task's own thread, mid-engine
// bookkeeping — where killing or restarting would corrupt the in-flight
// scheduling pass. The handler therefore only *enqueues* the incident there
// and performs the recovery from its own daemon agent process, one delta
// cycle later at the same simulated instant.

#include <cstdint>
#include <deque>
#include <vector>

#include "fault/recovery.hpp"
#include "kernel/event.hpp"
#include "trace/constraints.hpp"

namespace rtsc::kernel {
class Process;
}

namespace rtsc::fault {

class DeadlineMissHandler {
public:
    /// Install the handler as `monitor`'s violation callback (replaces any
    /// previous callback).
    explicit DeadlineMissHandler(trace::ConstraintMonitor& monitor);

    DeadlineMissHandler(const DeadlineMissHandler&) = delete;
    DeadlineMissHandler& operator=(const DeadlineMissHandler&) = delete;

    /// React to violations whose rule monitors `task`. Violations for tasks
    /// without a policy (and latency violations, which carry no task) are
    /// counted in unhandled() only.
    void set_policy(rtos::Task& task, RecoveryPolicy policy);

    [[nodiscard]] std::uint64_t handled() const noexcept { return handled_; }
    [[nodiscard]] std::uint64_t unhandled() const noexcept { return unhandled_; }
    [[nodiscard]] std::uint64_t kills() const noexcept { return kills_; }
    [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }
    [[nodiscard]] std::uint64_t demotions() const noexcept { return demotions_; }

    /// Report every handled miss as an instant marker ("deadline" category)
    /// to `obs` (Observer::on_marker); a no-op when it is already
    /// subscribed. The observer must outlive the handler.
    void add_observer(rtos::Observer& obs) { observers_.add(obs); }

private:
    struct Entry {
        rtos::Task* task;
        RecoveryPolicy policy;
    };

    void on_violation(const trace::ConstraintMonitor::Violation& v);
    void agent_body();
    void apply(const Entry& e);

    kernel::Simulator& sim_;
    std::vector<std::pair<rtos::Task*, RecoveryPolicy>> policies_;
    std::deque<Entry> pending_;
    kernel::Event wake_;
    kernel::Process* agent_ = nullptr;
    rtos::ObserverList observers_;
    std::uint64_t handled_ = 0;
    std::uint64_t unhandled_ = 0;
    std::uint64_t kills_ = 0;
    std::uint64_t restarts_ = 0;
    std::uint64_t demotions_ = 0;
};

} // namespace rtsc::fault
