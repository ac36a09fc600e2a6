#pragma once
// MCSE counting-semaphore relation. The paper lists synchronization "based
// on events or semaphores" among the standard RTOS communication mechanisms
// (§2); the Event relation covers the signal/await style, this class covers
// resource-counting synchronization: acquire() blocks while the count is
// zero, release() increments it and wakes a waiter.
//
// Like every relation, it is RTOS-aware (software tasks block in the Waiting
// state and free their processor) and usable from hardware processes (kernel
// level blocking), so it can guard resources shared across the HW/SW
// boundary. Waiters are served in FIFO order by default, or by effective
// priority (the common RTOS option) when constructed with WakeOrder::priority.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>

#include "mcse/relation.hpp"
#include "rtos/engine.hpp"
#include "rtos/observer.hpp"

namespace rtsc::mcse {

enum class WakeOrder : std::uint8_t { fifo, priority };

class Semaphore final : public Relation {
public:
    Semaphore(std::string name, std::uint64_t initial,
              WakeOrder order = WakeOrder::fifo)
        : Relation(std::move(name)),
          count_(initial),
          order_(order),
          was_zero_(initial == 0) {}

    [[nodiscard]] const char* type_name() const noexcept override {
        return "semaphore";
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return count_; }
    [[nodiscard]] WakeOrder wake_order() const noexcept { return order_; }

    /// Take one unit, blocking while the count is zero. A blocked task
    /// waiter receives its unit by *reservation*: release() decrements the
    /// count on the waiter's behalf before waking it, so no try_acquire or
    /// later-arriving caller can barge in between wake-up and resumption.
    void acquire() {
        rtos::Task* task = rtos::current_task();
        const kernel::Time started = now();
        bool blocked = false;
        if (task != nullptr) {
            if (count_ == 0) {
                blocked = true;
                TaskWaiter w{task};
                UnitGuard unit(*this, w); // unwind-safe: never leak the unit
                block_task(w, waiters_, rtos::TaskState::waiting);
                unit.armed = false; // delivery reserved our unit; consume it
            } else {
                take_unit();
                notify_acquire(*task);
            }
        } else {
            while (count_ == 0) {
                blocked = true;
                kernel::wait(hw_wake());
            }
            take_unit();
        }
        record(task, AccessKind::lock_op,
               blocked ? now() - started : kernel::Time::zero(), blocked);
    }

    /// Bounded-wait acquire: gives up after `timeout`; returns whether a
    /// unit was taken. A delivery racing the deadline at the same instant
    /// wins (the unit is already reserved for this waiter), matching the
    /// kernel's wait(Time, Event&) tie rule. (Extension: timed acquires are
    /// a standard RTOS semaphore primitive.)
    [[nodiscard]] bool acquire_for(kernel::Time timeout) {
        rtos::Task* task = rtos::current_task();
        const kernel::Time started = now();
        const kernel::Time deadline = started + timeout;
        bool blocked = false;
        if (task != nullptr) {
            if (count_ == 0) {
                TaskWaiter w{task};
                waiters_.push_back(&w);
                WaiterGuard guard(w, waiters_); // unwind/timeout-safe dereg
                UnitGuard unit(*this, w);       // unwind-safe: return the unit
                while (!w.delivered) {
                    const kernel::Time remaining =
                        kernel::Time::sat_sub(deadline, now());
                    if (remaining.is_zero()) {
                        record(task, AccessKind::lock_op,
                               blocked ? now() - started : kernel::Time::zero(),
                               blocked);
                        return false;
                    }
                    blocked = true;
                    (void)task->processor().engine().block_timed(
                        *task, rtos::TaskState::waiting, remaining, this);
                    // If a release() delivered while the timeout wake was in
                    // flight, the loop condition spots it: delivery wins.
                }
                unit.armed = false;
            } else {
                take_unit();
                notify_acquire(*task);
            }
        } else {
            while (count_ == 0) {
                const kernel::Time remaining =
                    kernel::Time::sat_sub(deadline, now());
                if (remaining.is_zero()) {
                    record(nullptr, AccessKind::lock_op,
                           blocked ? now() - started : kernel::Time::zero(),
                           blocked);
                    return false;
                }
                blocked = true;
                (void)kernel::Simulator::current().wait(remaining, hw_wake());
            }
            take_unit();
        }
        record(task, AccessKind::lock_op,
               blocked ? now() - started : kernel::Time::zero(), blocked);
        return true;
    }

    /// Take one unit if available; never blocks. Units already reserved for
    /// blocked waiters are invisible here (the count is zero), so a waiter
    /// can never lose its delivery to a try_acquire.
    [[nodiscard]] bool try_acquire() {
        if (count_ == 0) return false;
        take_unit();
        if (rtos::Task* task = rtos::current_task()) notify_acquire(*task);
        record(rtos::current_task(), AccessKind::lock_op, kernel::Time::zero(),
               false);
        return true;
    }

    /// Give one unit back (or produce one). If a task waiter is registered,
    /// the unit is reserved for it on the spot (FIFO or best effective
    /// priority per the wake order): the count goes straight back to zero
    /// and the chosen waiter is made ready with `delivered` set.
    void release() {
        ++count_;
        account_zero();
        if (rtos::Task* task = rtos::current_task())
            for (rtos::Observer* o : task->processor().observers())
                o->on_resource_release(task->processor(), *task, *this);
        deliver_one();
        hw_wake().notify();
        record(rtos::current_task(), AccessKind::unlock_op,
               kernel::Time::zero(), false);
    }

    /// RAII guard: acquire on construction, release on destruction.
    class Guard {
    public:
        explicit Guard(Semaphore& s) : s_(s) { s_.acquire(); }
        ~Guard() { s_.release(); }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;

    private:
        Semaphore& s_;
    };

    /// Fraction of elapsed time the semaphore was exhausted (count == 0) —
    /// the natural contention measure for Figure-8-style reports.
    [[nodiscard]] double utilization() const override {
        auto exhausted = exhausted_time_;
        if (count_ == 0) exhausted += now() - last_zero_edge_;
        const double total = now().to_sec();
        return total <= 0.0 ? 0.0 : exhausted.to_sec() / total;
    }

private:
    void take_unit() {
        --count_;
        account_zero();
    }

    /// Reserve one available unit for one live task waiter (if both exist):
    /// decrement the count on the waiter's behalf, mark it delivered and make
    /// it ready. FIFO order serves the front of the queue; priority order the
    /// best effective priority.
    void deliver_one() {
        std::erase_if(waiters_, [](TaskWaiter* w) {
            return w->task->killed() || w->task->crashed() || w->task->terminated();
        });
        if (count_ == 0 || waiters_.empty()) return;
        auto it = waiters_.begin();
        if (order_ == WakeOrder::priority)
            it = std::max_element(
                waiters_.begin(), waiters_.end(),
                [](TaskWaiter* a, TaskWaiter* b) {
                    return a->task->effective_priority() <
                           b->task->effective_priority();
                });
        TaskWaiter* w = *it;
        waiters_.erase(it);
        take_unit();
        w->delivered = true;
        // Ownership of the unit transfers at the reservation instant.
        notify_acquire(*w->task);
        w->task->processor().engine().make_ready(*w->task);
    }

    void notify_acquire(rtos::Task& task) {
        for (rtos::Observer* o : task.processor().observers())
            o->on_resource_acquire(task.processor(), task, *this);
    }

    /// A delivered-but-unconsumed unit flows back when the waiter's stack
    /// unwinds (kill/crash between delivery and resumption); the next waiter
    /// inherits it.
    struct UnitGuard {
        Semaphore& s;
        TaskWaiter& w;
        bool armed = true;
        UnitGuard(Semaphore& sem, TaskWaiter& waiter) : s(sem), w(waiter) {}
        ~UnitGuard() {
            if (!armed || !w.delivered) return;
            ++s.count_;
            s.account_zero();
            s.deliver_one();
            s.hw_wake().notify();
        }
    };

    /// Track time spent at count == 0.
    void account_zero() {
        const bool zero_now = count_ == 0;
        if (zero_now && !was_zero_) {
            last_zero_edge_ = now();
        } else if (!zero_now && was_zero_) {
            exhausted_time_ += now() - last_zero_edge_;
        }
        was_zero_ = zero_now;
    }

    std::uint64_t count_;
    WakeOrder order_;
    std::deque<TaskWaiter*> waiters_;
    bool was_zero_ = false;
    kernel::Time last_zero_edge_{};
    kernel::Time exhausted_time_{};
};

} // namespace rtsc::mcse
