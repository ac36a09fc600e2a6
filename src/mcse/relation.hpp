#pragma once
// Base machinery for MCSE functional-model communication relations (§2).
//
// The MCSE methodology describes a system as functions (tasks) communicating
// through three kinds of relations: events (synchronization), message queues
// (producer/consumer) and shared variables (data under mutual exclusion).
// These relations are RTOS-aware: a *software* task blocking on one enters
// the RTOS Waiting state and frees its processor; a *hardware* process
// (plain kernel process) blocks at kernel level. A relation can therefore
// connect HW and SW sides of a co-simulated model transparently.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "kernel/event.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"
#include "rtos/observer.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::mcse {

class Relation;

/// What a task/process did on a relation; recorded for the TimeLine chart
/// ("a vertical arrow represents a task accessing a communications link and
/// the arrow style informs on the kind of access").
enum class AccessKind : std::uint8_t {
    signal_op, ///< event signalled
    await_op,  ///< event awaited
    write_op,  ///< message/data written
    read_op,   ///< message/data read
    lock_op,   ///< mutual-exclusion resource acquired
    unlock_op, ///< mutual-exclusion resource released
};

[[nodiscard]] constexpr const char* to_string(AccessKind k) noexcept {
    switch (k) {
        case AccessKind::signal_op: return "signal";
        case AccessKind::await_op: return "await";
        case AccessKind::write_op: return "write";
        case AccessKind::read_op: return "read";
        case AccessKind::lock_op: return "lock";
        case AccessKind::unlock_op: return "unlock";
    }
    return "?";
}

/// Former name of the observer interface, kept for source compatibility;
/// relation accesses arrive through rtos::Observer::on_access.
using CommObserver = rtos::Observer;

class Relation {
public:
    explicit Relation(std::string name)
        : sim_(kernel::Simulator::current()),
          name_(std::move(name)),
          hw_wake_(name_ + ".hw_wake") {}

    virtual ~Relation() = default;
    Relation(const Relation&) = delete;
    Relation& operator=(const Relation&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] virtual const char* type_name() const noexcept = 0;

    /// Subscribe `obs` to this relation's accesses (Observer::on_access); a
    /// no-op when it is already subscribed.
    void add_observer(rtos::Observer& obs) { observers_.add(obs); }

    // ---- accumulated statistics (Figure 8 "(4)" channel utilisation) ----
    struct AccessStats {
        std::uint64_t accesses = 0;      ///< total operations
        std::uint64_t blocked_accesses = 0;
        kernel::Time blocked_time{};     ///< total time callers spent blocked
    };
    [[nodiscard]] const AccessStats& access_stats() const noexcept { return stats_; }

    /// Relation-type-specific utilisation in [0,1] over the elapsed time
    /// (queues: fraction of time non-empty; shared variables: fraction of
    /// time locked; events: fraction of awaits that had to block).
    [[nodiscard]] virtual double utilization() const = 0;

    // ---- fault injection ----

    /// Loss hook: consulted on each transfer the relation chooses to subject
    /// to loss (MessageQueue writes); returning true drops the transfer.
    /// Installed by fault::FaultInjector; one hook per relation.
    void set_loss_hook(std::function<bool()> hook) { loss_hook_ = std::move(hook); }
    /// Transfers dropped by the loss hook so far.
    [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }

protected:
    /// A registered software-task waiter; lives on the waiting task's stack.
    struct TaskWaiter {
        rtos::Task* task;
        bool delivered = false;
    };

    /// RAII deregistration: removes the waiter from its list on scope exit,
    /// so a kill()/crash unwinding through a blocked task never leaves a
    /// dangling stack pointer registered with the relation. Erasing an
    /// already-removed waiter is a no-op.
    class WaiterGuard {
    public:
        WaiterGuard(TaskWaiter& w, std::deque<TaskWaiter*>& list)
            : w_(w), list_(list) {}
        ~WaiterGuard() {
            const auto it = std::find(list_.begin(), list_.end(), &w_);
            if (it != list_.end()) list_.erase(it);
        }
        WaiterGuard(const WaiterGuard&) = delete;
        WaiterGuard& operator=(const WaiterGuard&) = delete;

    private:
        TaskWaiter& w_;
        std::deque<TaskWaiter*>& list_;
    };

    /// True when the loss hook decides to drop this transfer (also counts it).
    bool lose_transfer() {
        if (loss_hook_ && loss_hook_()) {
            ++lost_;
            return true;
        }
        return false;
    }

    [[nodiscard]] kernel::Simulator& sim() const noexcept { return sim_; }
    [[nodiscard]] kernel::Time now() const noexcept { return sim_.now(); }

    /// Record a completed access. The single accounting rule every relation
    /// op follows: `blocked` is whether the caller had to suspend before the
    /// operation could proceed (even when it was woken within the same
    /// instant), `blocked_for` is `now() - started` when it did and zero
    /// otherwise.
    void record(const rtos::Task* task, AccessKind kind,
                kernel::Time blocked_for, bool blocked) {
        ++stats_.accesses;
        if (blocked) {
            ++stats_.blocked_accesses;
            stats_.blocked_time += blocked_for;
        }
        for (rtos::Observer* o : observers_)
            o->on_access(*this, task, kind, blocked);
    }
    /// Convenience overload deriving `blocked` from a non-zero duration.
    void record(const rtos::Task* task, AccessKind kind,
                kernel::Time blocked_for) {
        record(task, kind, blocked_for, !blocked_for.is_zero());
    }

    /// Block the calling software task in `state` until a waker delivers
    /// this waiter (sets delivered + make_ready). Spurious re-dispatches
    /// (wake-then-steal races) re-block automatically.
    void block_task(TaskWaiter& w, std::deque<TaskWaiter*>& list,
                    rtos::TaskState state) {
        list.push_back(&w);
        WaiterGuard guard(w, list); // unwind-safe: kill() cleans up
        rtos::SchedulerEngine& eng = w.task->processor().engine();
        do {
            eng.block(*w.task, state, this);
        } while (!w.delivered);
    }

    /// Deliver one waiter (FIFO) if any; returns whether one was woken.
    /// Waiters whose task was killed/crashed are skipped (their stack is
    /// unwinding; delivering to them would lose the wake-up).
    static bool wake_one(std::deque<TaskWaiter*>& list) {
        while (!list.empty()) {
            TaskWaiter* w = list.front();
            if (w->task->killed() || w->task->crashed() || w->task->terminated()) {
                list.pop_front();
                continue;
            }
            list.pop_front();
            w->delivered = true;
            w->task->processor().engine().make_ready(*w->task);
            return true;
        }
        return false;
    }

    /// Deliver every registered waiter.
    static void wake_all(std::deque<TaskWaiter*>& list) {
        while (wake_one(list)) {
        }
    }

    /// Kernel-level wake-up channel for hardware processes blocked on this
    /// relation; they re-check their predicate after every notification.
    kernel::Event& hw_wake() noexcept { return hw_wake_; }

private:
    kernel::Simulator& sim_;
    std::string name_;
    kernel::Event hw_wake_;
    rtos::ObserverList observers_;
    AccessStats stats_;
    std::function<bool()> loss_hook_;
    std::uint64_t lost_ = 0;
};

} // namespace rtsc::mcse
