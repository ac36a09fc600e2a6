#pragma once
// MCSE Shared-variable relation (§2): "it exchanges data without any
// synchronization except mutual exclusion."
//
// read()/write() acquire the variable's mutual-exclusion resource, consume
// the given access duration as (preemptible) CPU time, then release. This is
// how Figure 7's scenario arises: Function_3 is preempted *during a read*
// while holding the resource, and higher-priority Function_2 then blocks in
// the Waiting-for-resource state.
//
// Protection options model the paper's discussion of the priority-inversion
// problem:
//   none                 — plain mutual exclusion (Figure 7 as-is);
//   preemption_lock      — "disabling preemption during access to shared
//                          data" (the fix the paper proposes);
//   priority_inheritance — the classic alternative from Buttazzo [10]
//                          (extension; see DESIGN.md §6).

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "mcse/relation.hpp"
#include "rtos/processor.hpp"

namespace rtsc::mcse {

enum class Protection : std::uint8_t { none, preemption_lock, priority_inheritance };

[[nodiscard]] constexpr const char* to_string(Protection p) noexcept {
    switch (p) {
        case Protection::none: return "none";
        case Protection::preemption_lock: return "preemption_lock";
        case Protection::priority_inheritance: return "priority_inheritance";
    }
    return "?";
}

template <typename T>
class SharedVariable final : public Relation {
public:
    SharedVariable(std::string name, T initial = T{},
                   Protection protection = Protection::none)
        : Relation(std::move(name)),
          value_(std::move(initial)),
          protection_(protection) {}

    [[nodiscard]] const char* type_name() const noexcept override {
        return "shared_variable";
    }
    [[nodiscard]] Protection protection() const noexcept { return protection_; }
    [[nodiscard]] bool locked() const noexcept { return locked_; }

    /// Read the value under mutual exclusion, spending `access_duration` of
    /// CPU time (preemptible for software tasks) while holding the resource.
    [[nodiscard]] T read(kernel::Time access_duration = kernel::Time::zero()) {
        const LockOutcome lk = lock();
        LockRelease rel{*this}; // kill()-unwind-safe: never leak the resource
        consume_access(access_duration);
        T copy = value_;
        rel.armed = false;
        unlock();
        record(rtos::current_task(), AccessKind::read_op, lk.blocked_for,
               lk.blocked);
        return copy;
    }

    /// Write the value under mutual exclusion, spending `access_duration` of
    /// CPU time while holding the resource.
    void write(T v, kernel::Time access_duration = kernel::Time::zero()) {
        const LockOutcome lk = lock();
        LockRelease rel{*this}; // kill()-unwind-safe: never leak the resource
        consume_access(access_duration);
        value_ = std::move(v);
        rel.armed = false;
        unlock();
        record(rtos::current_task(), AccessKind::write_op, lk.blocked_for,
               lk.blocked);
    }

    /// Scoped access for arbitrary read-modify-write critical sections.
    class Guard {
    public:
        explicit Guard(SharedVariable& sv) : sv_(sv) {
            const LockOutcome lk = sv_.lock();
            sv_.record(rtos::current_task(), AccessKind::lock_op,
                       lk.blocked_for, lk.blocked);
        }
        /// The release is a suspension point: the waiter it readies may
        /// preempt this task, and a kill may land before it runs again.
        /// Then ProcessKilled leaves through here, after the release has
        /// been recorded.
        ~Guard() noexcept(false) {
            try {
                sv_.unlock();
            } catch (...) {
                record_unlock();
                throw;
            }
            record_unlock();
        }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;
        [[nodiscard]] T& value() noexcept { return sv_.value_; }

    private:
        void record_unlock() {
            sv_.record(rtos::current_task(), AccessKind::unlock_op,
                       kernel::Time::zero(), false);
        }

        SharedVariable& sv_;
    };
    [[nodiscard]] Guard access() { return Guard(*this); }

    /// Fraction of elapsed time the resource was held.
    [[nodiscard]] double utilization() const override {
        const auto held = locked_time_ +
                          (locked_ ? now() - lock_since_ : kernel::Time::zero());
        const double total = now().to_sec();
        return total <= 0.0 ? 0.0 : held.to_sec() / total;
    }

private:
    /// Releases the resource if a kill/crash unwinds the accessor mid-way
    /// (the wake it triggers takes the engine's non-suspending path).
    struct LockRelease {
        SharedVariable& sv;
        bool armed = true;
        ~LockRelease() {
            if (armed) sv.unlock();
        }
    };

    struct LockOutcome {
        kernel::Time blocked_for; ///< now() - entry when blocked, else zero
        bool blocked;             ///< the caller had to suspend
    };

    /// Acquire the resource; reports whether and for how long the caller was
    /// blocked (including the re-dispatch latency after the resource was
    /// released).
    LockOutcome lock() {
        rtos::Task* task = rtos::current_task();
        const kernel::Time entered = now();
        bool blocked = false;
        if (task != nullptr) {
            while (locked_) {
                blocked = true;
                apply_inheritance(*task);
                TaskWaiter w{task};
                block_task(w, waiters_, rtos::TaskState::waiting_resource);
            }
            locked_ = true;
            owner_ = task;
            lock_since_ = now();
            for (rtos::Observer* o : task->processor().observers())
                o->on_resource_acquire(task->processor(), *task, *this);
            if (protection_ == Protection::preemption_lock)
                task->processor().lock_preemption();
        } else {
            while (locked_) {
                blocked = true;
                kernel::wait(hw_wake());
            }
            locked_ = true;
            owner_ = nullptr;
            lock_since_ = now();
        }
        return {blocked ? now() - entered : kernel::Time::zero(), blocked};
    }

    void unlock() {
        locked_time_ += now() - lock_since_;
        locked_ = false;
        rtos::Task* released_by = owner_;
        owner_ = nullptr;
        if (released_by != nullptr) {
            for (rtos::Observer* o : released_by->processor().observers())
                o->on_resource_release(released_by->processor(), *released_by,
                                       *this);
            if (boosted_owner_ == released_by) {
                boosted_owner_ = nullptr;
                released_by->restore_base_priority();
                // With its base priority back, the releaser may now lose the
                // CPU to an already-ready task.
                released_by->processor().engine().recheck_preemption();
            }
            if (protection_ == Protection::preemption_lock)
                released_by->processor().unlock_preemption();
        }
        // The wake can suspend the releaser (the waiter preempts it) and a
        // kill can unwind it from there: hardware waiters are told either way.
        try {
            wake_highest_priority_waiter();
        } catch (...) {
            hw_wake().notify();
            throw;
        }
        hw_wake().notify();
    }

    void consume_access(kernel::Time d) {
        if (d.is_zero()) return;
        if (rtos::Task* task = rtos::current_task(); task != nullptr)
            task->compute(d); // preemptible unless protection disables it
        else
            kernel::wait(d);
    }

    void apply_inheritance(rtos::Task& waiter) {
        if (protection_ != Protection::priority_inheritance || owner_ == nullptr)
            return;
        if (owner_->effective_priority() < waiter.effective_priority()) {
            owner_->inherit_priority(waiter.effective_priority());
            boosted_owner_ = owner_;
        }
    }

    void wake_highest_priority_waiter() {
        std::erase_if(waiters_, [](TaskWaiter* w) {
            return w->task->killed() || w->task->crashed() || w->task->terminated();
        });
        if (waiters_.empty()) return;
        auto best = std::max_element(
            waiters_.begin(), waiters_.end(), [](TaskWaiter* a, TaskWaiter* b) {
                return a->task->effective_priority() < b->task->effective_priority();
            });
        TaskWaiter* w = *best;
        waiters_.erase(best);
        w->delivered = true;
        w->task->processor().engine().make_ready(*w->task);
    }

    T value_;
    Protection protection_;
    bool locked_ = false;
    rtos::Task* owner_ = nullptr;
    rtos::Task* boosted_owner_ = nullptr;
    std::deque<TaskWaiter*> waiters_;
    kernel::Time lock_since_{};
    kernel::Time locked_time_{};
};

} // namespace rtsc::mcse
