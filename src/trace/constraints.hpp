#pragma once
// Automatic timing-constraint verification by simulation — the paper's §6
// future work: "Another improvement we can imagine now is automatic
// verification of timing constraints by simulation after setting these
// constraints in the initial system model."
//
// Two constraint kinds cover the measurements the paper extracts manually
// from TimeLine charts:
//   - response constraints: every activation of a task (Ready after a
//     synchronization or its creation) must complete (block again or
//     terminate) within a bound — per-activation response time;
//   - latency constraints: the n-th occurrence of a sink access (e.g. a
//     write to an output queue) must follow the n-th occurrence of a source
//     access (e.g. the interrupt event's signal) within a bound — "the time
//     spent between an external event and the system's reaction" (§5).
//
// The monitor observes processors and relations like the Recorder does, and
// collects violations for inspection or test assertions.

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "mcse/relation.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::trace {

class ConstraintMonitor final : public rtos::Observer {
public:
    struct Violation {
        std::string constraint;
        kernel::Time at;       ///< when the violation was detected
        kernel::Time measured;
        kernel::Time bound;
        /// Task the violated rule monitors (response rules; nullptr for
        /// latency rules). Recovery handlers use it to kill/restart/demote.
        const rtos::Task* task = nullptr;
    };

    /// Every activation of `task` must complete within `bound` of its
    /// release. An activation starts when the task leaves waiting/created
    /// for ready, and completes when it blocks again or terminates;
    /// preemptions and resource waits in between belong to the activation.
    void require_response(rtos::Task& task, kernel::Time bound,
                          std::string name = {});

    /// Occurrence i of (to, to_kind) must happen within `bound` of
    /// occurrence i of (from, from_kind).
    void require_latency(std::string name, mcse::Relation& from,
                         mcse::AccessKind from_kind, mcse::Relation& to,
                         mcse::AccessKind to_kind, kernel::Time bound);

    [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
        return violations_;
    }
    [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
    [[nodiscard]] std::uint64_t checks_performed() const noexcept {
        return checks_;
    }
    void print(std::ostream& os) const;

    /// Invoked synchronously on every recorded violation (after it is
    /// appended to violations()). The callback runs inside the task state /
    /// access notification, possibly on the violating task's own thread: it
    /// must not block or kill tasks directly — defer recovery to a separate
    /// process (fault::DeadlineMissHandler does exactly that).
    void set_violation_callback(std::function<void(const Violation&)> cb) {
        on_violation_ = std::move(cb);
    }

    // rtos::Observer
    void on_task_state(const rtos::Task& task, rtos::TaskState from,
                       rtos::TaskState to) override;
    void on_access(const mcse::Relation& rel, const rtos::Task* task,
                   mcse::AccessKind kind, bool blocked) override;

private:
    struct ResponseRule {
        const rtos::Task* task;
        kernel::Time bound;
        std::string name;
        bool active = false;
        kernel::Time released{};
    };
    struct LatencyRule {
        std::string name;
        const mcse::Relation* from;
        mcse::AccessKind from_kind;
        const mcse::Relation* to;
        mcse::AccessKind to_kind;
        kernel::Time bound;
        std::vector<kernel::Time> pending; ///< unmatched source occurrences
    };

    void add_violation(Violation v);

    std::vector<ResponseRule> response_rules_;
    std::vector<LatencyRule> latency_rules_;
    std::vector<Violation> violations_;
    std::uint64_t checks_ = 0;
    std::function<void(const Violation&)> on_violation_;
};

} // namespace rtsc::trace
