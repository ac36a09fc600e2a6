#pragma once
// MCSE Event relation (§2): synchronization between functions with three
// memorization policies:
//   fugitive — no memorization, like SystemC's sc_event: a signal with no
//              waiter is lost;
//   boolean  — one level of memorization: a signal with no waiter sets a
//              flag consumed by the next await;
//   counter  — every signal is memorized; each await consumes one.
//
// Waking rules: fugitive and boolean signals wake *all* current waiters;
// a counter signal wakes exactly one (each occurrence is one "token").

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>

#include "mcse/relation.hpp"
#include "rtos/engine.hpp"

namespace rtsc::mcse {

enum class EventPolicy : std::uint8_t { fugitive, boolean, counter };

[[nodiscard]] constexpr const char* to_string(EventPolicy p) noexcept {
    switch (p) {
        case EventPolicy::fugitive: return "fugitive";
        case EventPolicy::boolean: return "boolean";
        case EventPolicy::counter: return "counter";
    }
    return "?";
}

class Event final : public Relation {
public:
    explicit Event(std::string name, EventPolicy policy = EventPolicy::fugitive)
        : Relation(std::move(name)), policy_(policy) {}

    [[nodiscard]] const char* type_name() const noexcept override { return "event"; }
    [[nodiscard]] EventPolicy policy() const noexcept { return policy_; }

    /// Number of memorized occurrences (0/1 for boolean, any for counter,
    /// always 0 for fugitive).
    [[nodiscard]] std::uint64_t pending() const noexcept { return pending_; }

    /// Signal the event. Callable from tasks, hardware processes or
    /// scheduler context. Never blocks the caller beyond the RTOS primitive
    /// overhead charged when a software task readies another.
    void signal() {
        const rtos::Task* caller = rtos::current_task();
        ++signals_;
        if (!waiters_.empty()) {
            if (policy_ == EventPolicy::counter)
                wake_one(waiters_);
            else
                wake_all(waiters_);
        } else {
            switch (policy_) {
                case EventPolicy::fugitive: break; // lost
                case EventPolicy::boolean: pending_ = 1; break;
                case EventPolicy::counter: ++pending_; break;
            }
        }
        hw_wake().notify();
        record(caller, AccessKind::signal_op, kernel::Time::zero(), false);
    }

    /// Wait for (and consume) one occurrence. A memorized occurrence returns
    /// immediately; otherwise the caller blocks (software tasks enter the
    /// RTOS Waiting state, hardware processes block at kernel level).
    void await() {
        rtos::Task* task = rtos::current_task();
        const kernel::Time started = now();
        if (task != nullptr) {
            if (try_consume()) {
                record(task, AccessKind::await_op, kernel::Time::zero(), false);
                return;
            }
            TaskWaiter w{task};
            block_task(w, waiters_, rtos::TaskState::waiting);
            record(task, AccessKind::await_op, now() - started, true);
            return;
        }
        // Hardware process.
        bool blocked = false;
        if (policy_ == EventPolicy::fugitive) {
            blocked = true;
            kernel::wait(hw_wake());
        } else {
            while (!try_consume()) {
                blocked = true;
                kernel::wait(hw_wake());
            }
        }
        record(nullptr, AccessKind::await_op,
               blocked ? now() - started : kernel::Time::zero(), blocked);
    }

    /// Bounded wait: like await(), but gives up after `timeout`. Returns
    /// whether an occurrence was consumed. (Timed receives are a standard
    /// RTOS primitive; extension over the paper's relation set.)
    [[nodiscard]] bool await_for(kernel::Time timeout) {
        rtos::Task* task = rtos::current_task();
        const kernel::Time started = now();
        if (task != nullptr) {
            if (try_consume()) {
                record(task, AccessKind::await_op, kernel::Time::zero(), false);
                return true;
            }
            TaskWaiter w{task};
            waiters_.push_back(&w);
            WaiterGuard guard(w, waiters_); // unwind/timeout-safe dereg
            (void)task->processor().engine().block_timed(
                *task, rtos::TaskState::waiting, timeout, this);
            // A delivery racing the timeout at the same instant wins: the
            // occurrence was consumed on this waiter's behalf.
            record(task, AccessKind::await_op, now() - started, true);
            return w.delivered;
        }
        // Hardware process: kernel-level timed wait.
        bool blocked = false;
        const kernel::Time deadline = started + timeout;
        for (;;) {
            if (policy_ != EventPolicy::fugitive && try_consume()) break;
            const kernel::Time remaining =
                kernel::Time::sat_sub(deadline, now());
            if (remaining.is_zero()) {
                record(nullptr, AccessKind::await_op,
                       blocked ? now() - started : kernel::Time::zero(), blocked);
                return false;
            }
            blocked = true;
            const auto reason =
                kernel::Simulator::current().wait(remaining, hw_wake());
            if (policy_ == EventPolicy::fugitive &&
                reason == kernel::Process::WakeReason::event)
                break;
        }
        record(nullptr, AccessKind::await_op,
               blocked ? now() - started : kernel::Time::zero(), blocked);
        return true;
    }

    /// Non-blocking variant: consume a memorized occurrence if present.
    [[nodiscard]] bool try_await() {
        const bool ok = try_consume();
        if (ok)
            record(rtos::current_task(), AccessKind::await_op,
                   kernel::Time::zero(), false);
        return ok;
    }

    /// Drop all memorized occurrences.
    void reset() noexcept { pending_ = 0; }

    [[nodiscard]] std::uint64_t signal_count() const noexcept { return signals_; }

    /// Events are "utilised" when awaits had to block.
    [[nodiscard]] double utilization() const override {
        const auto& s = access_stats();
        return s.accesses == 0
                   ? 0.0
                   : static_cast<double>(s.blocked_accesses) /
                         static_cast<double>(s.accesses);
    }

private:
    [[nodiscard]] bool try_consume() noexcept {
        if (pending_ == 0) return false;
        --pending_;
        return true;
    }

    EventPolicy policy_;
    std::uint64_t pending_ = 0;
    std::uint64_t signals_ = 0;
    std::deque<TaskWaiter*> waiters_;
};

} // namespace rtsc::mcse
